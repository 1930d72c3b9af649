//! Serving-side metric publication: pre-resolved registry handles.
//!
//! [`ServeMetrics`] is built once per deployment
//! ([`ShardedEngine::attach_metrics`](crate::ShardedEngine::attach_metrics))
//! and holds `Arc` handles into a [`MetricsRegistry`] — counters, gauges
//! and the sharded latency histogram for one `method` label. All
//! registration (mutex, string interning) happens at attach time; the
//! per-query hot path only touches the handles' relaxed atomics, and the
//! per-query trace harvest is a handful of `fetch_add`s on the 1-in-`N`
//! sampled queries plus one branch on the rest.
//!
//! Metric families published (all labeled `method`, stage counters also
//! `stage`):
//!
//! | family | kind | meaning |
//! |---|---|---|
//! | `permsearch_queries_total` | counter | queries served |
//! | `permsearch_batches_total` | counter | batches served |
//! | `permsearch_query_latency_seconds` | summary | per-query wall latency (one histogram shard per worker) |
//! | `permsearch_dists_total` | counter | distance computations (the [`CountedSpace`](permsearch_core::CountedSpace) counter) |
//! | `permsearch_traces_sampled_total` | counter | queries that ran with an armed trace |
//! | `permsearch_trace_stage_nanos_total` | counter | summed stage wall nanoseconds over sampled queries |
//! | `permsearch_trace_stage_dists_total` | counter | summed stage distance computations over sampled queries |
//! | `permsearch_trace_candidates_total` | counter | summed candidate-list sizes over sampled queries |
//! | `permsearch_trace_quant_engaged_total` | counter | sampled queries where the SQ8 pre-filter engaged; reads 0, since no refine path runs one |
//! | `permsearch_queries_degraded_total` | counter | queries served in degraded mode (pressure-tightened refinement) |
//! | `permsearch_queries_partial_total` | counter | queries cut by their deadline (partial results returned) |
//! | `permsearch_query_panics_total` | counter | queries whose per-query work panicked (isolated; empty result returned) |
//! | `permsearch_index_points` | gauge | points indexed by the deployment |
//! | `permsearch_index_shards` | gauge | index shards in the deployment |

use std::sync::Arc;

use permsearch_core::QueryTrace;
use permsearch_obs::{Counter, MetricsRegistry, ShardedHistogram, STAGES};

pub use permsearch_obs::DEFAULT_SAMPLE_EVERY;

use permsearch_obs::STAGE_COUNT;

/// Pre-resolved registry handles for serving one method.
///
/// Cheap to share across worker threads by reference; every handle is a
/// relaxed atomic underneath.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    pub(crate) sample_every: usize,
    pub(crate) queries_total: Arc<Counter>,
    pub(crate) batches_total: Arc<Counter>,
    pub(crate) latency: Arc<ShardedHistogram>,
    pub(crate) dists_total: Arc<Counter>,
    pub(crate) traces_sampled_total: Arc<Counter>,
    pub(crate) stage_nanos_total: [Arc<Counter>; STAGE_COUNT],
    pub(crate) stage_dists_total: [Arc<Counter>; STAGE_COUNT],
    pub(crate) candidates_total: Arc<Counter>,
    pub(crate) quant_engaged_total: Arc<Counter>,
    pub(crate) degraded_total: Arc<Counter>,
    pub(crate) partial_total: Arc<Counter>,
    pub(crate) panics_total: Arc<Counter>,
}

impl ServeMetrics {
    /// Register (or re-resolve) every serving family for `method` in
    /// `registry` and return the handle bundle. `workers` sizes the latency
    /// histogram's shard count (used on first registration only); queries
    /// are traced 1-in-`sample_every` (clamped to at least 1).
    pub fn register(
        registry: &MetricsRegistry,
        method: &str,
        workers: usize,
        sample_every: usize,
    ) -> Self {
        let m: &[(&str, &str)] = &[("method", method)];
        let stage_counters = |name: &str, help: &str| {
            STAGES.map(|s| registry.counter(name, help, &[("method", method), ("stage", s.name())]))
        };
        Self {
            sample_every: sample_every.max(1),
            queries_total: registry.counter("permsearch_queries_total", "Queries served.", m),
            batches_total: registry.counter("permsearch_batches_total", "Query batches served.", m),
            latency: registry.histogram(
                "permsearch_query_latency_seconds",
                "Per-query wall latency.",
                m,
                workers,
            ),
            dists_total: registry.counter(
                "permsearch_dists_total",
                "Distance computations (space-level, counted by CountedSpace).",
                m,
            ),
            traces_sampled_total: registry.counter(
                "permsearch_traces_sampled_total",
                "Queries served with an armed stage trace.",
                m,
            ),
            stage_nanos_total: stage_counters(
                "permsearch_trace_stage_nanos_total",
                "Stage wall nanoseconds summed over sampled queries.",
            ),
            stage_dists_total: stage_counters(
                "permsearch_trace_stage_dists_total",
                "Stage distance computations summed over sampled queries.",
            ),
            candidates_total: registry.counter(
                "permsearch_trace_candidates_total",
                "Candidate-list sizes summed over sampled queries.",
                m,
            ),
            quant_engaged_total: registry.counter(
                "permsearch_trace_quant_engaged_total",
                "Sampled queries where the SQ8 pre-filter engaged (0: no refine path runs one).",
                m,
            ),
            degraded_total: registry.counter(
                "permsearch_queries_degraded_total",
                "Queries served in degraded mode (pressure-tightened refinement).",
                m,
            ),
            partial_total: registry.counter(
                "permsearch_queries_partial_total",
                "Queries cut by their deadline; partial results were returned.",
                m,
            ),
            panics_total: registry.counter(
                "permsearch_query_panics_total",
                "Queries whose per-query work panicked (isolated to one answer).",
                m,
            ),
        }
    }

    /// Sampling rate: 1 query in this many runs with an armed trace.
    pub fn sample_every(&self) -> usize {
        self.sample_every
    }

    /// The `permsearch_dists_total` handle — pass it to
    /// [`CountedSpace::with_counter`](permsearch_core::CountedSpace::with_counter)
    /// when building the deployment's space so space-level distance counts
    /// land in the registry with no second tally.
    pub fn dists_counter(&self) -> &Arc<Counter> {
        &self.dists_total
    }

    /// Whether query `global_index` of a batch should run traced.
    #[inline]
    pub fn should_trace(&self, global_index: usize) -> bool {
        global_index.is_multiple_of(self.sample_every)
    }

    /// Record one served query: latency into worker `worker`'s histogram
    /// shard plus the query counter. Allocation- and lock-free.
    #[inline]
    pub fn observe_query(&self, worker: usize, nanos: u64) {
        self.latency.record(worker, nanos);
        self.queries_total.inc();
    }

    /// Harvest a completed per-query trace into the stage counters.
    /// Disarmed traces cost one branch, so callers pass every query's
    /// trace unconditionally.
    #[inline]
    pub fn observe_trace(&self, trace: &QueryTrace) {
        if !trace.active() {
            return;
        }
        self.traces_sampled_total.inc();
        for s in STAGES {
            self.stage_nanos_total[s as usize].add(trace.stage_nanos(s));
            self.stage_dists_total[s as usize].add(trace.stage_dists(s));
        }
        self.candidates_total.add(trace.candidates());
        self.quant_engaged_total
            .add(u64::from(trace.quant_engaged()));
    }

    /// Count one served batch.
    #[inline]
    pub fn observe_batch(&self) {
        self.batches_total.inc();
    }

    /// Count a query's robustness outcome. No-outcome queries (the common
    /// case) take three untaken branches.
    #[inline]
    pub fn observe_outcome(&self, outcome: &crate::serve::QueryOutcome) {
        if outcome.degraded {
            self.degraded_total.inc();
        }
        if outcome.partial {
            self.partial_total.inc();
        }
        if outcome.failed {
            self.panics_total.inc();
        }
    }
}

/// Set the deployment-shape gauges for `method`: total indexed points and
/// shard count, plus one `permsearch_shard_points{method, shard}` gauge
/// per index shard.
pub fn set_deployment_gauges(
    registry: &MetricsRegistry,
    method: &str,
    num_points: usize,
    shard_points: &[usize],
) {
    let m: &[(&str, &str)] = &[("method", method)];
    registry
        .gauge(
            "permsearch_index_points",
            "Points indexed by the deployment.",
            m,
        )
        .set(num_points as i64);
    registry
        .gauge(
            "permsearch_index_shards",
            "Index shards in the deployment.",
            m,
        )
        .set(shard_points.len() as i64);
    for (sid, &points) in shard_points.iter().enumerate() {
        let shard = sid.to_string();
        registry
            .gauge(
                "permsearch_shard_points",
                "Points indexed by one shard.",
                &[("method", method), ("shard", &shard)],
            )
            .set(points as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::Stage;

    #[test]
    fn observe_trace_ignores_disarmed() {
        let registry = MetricsRegistry::new();
        let metrics = ServeMetrics::register(&registry, "napp", 2, 8);
        let mut trace = QueryTrace::new();
        trace.begin(false);
        metrics.observe_trace(&trace);
        assert_eq!(metrics.traces_sampled_total.get(), 0);

        trace.begin(true);
        trace.add_dists(Stage::Refine, 7);
        trace.add_candidates(3);
        trace.set_quant_engaged();
        metrics.observe_trace(&trace);
        assert_eq!(metrics.traces_sampled_total.get(), 1);
        assert_eq!(metrics.stage_dists_total[Stage::Refine as usize].get(), 7);
        assert_eq!(metrics.candidates_total.get(), 3);
        assert_eq!(metrics.quant_engaged_total.get(), 1);
    }

    #[test]
    fn sampling_schedule_hits_one_in_n() {
        let registry = MetricsRegistry::new();
        let metrics = ServeMetrics::register(&registry, "m", 1, 4);
        let traced = (0..16).filter(|&i| metrics.should_trace(i)).count();
        assert_eq!(traced, 4);
        // sample_every clamps to 1: everything traced.
        let all = ServeMetrics::register(&registry, "m", 1, 0);
        assert!((0..5).all(|i| all.should_trace(i)));
    }

    #[test]
    fn deployment_gauges_land_per_shard() {
        let registry = MetricsRegistry::new();
        set_deployment_gauges(&registry, "vptree", 100, &[34, 33, 33]);
        let text = registry.render_text();
        assert!(text.contains("permsearch_index_points{method=\"vptree\"} 100"));
        assert!(text.contains("permsearch_index_shards{method=\"vptree\"} 3"));
        assert!(text.contains("permsearch_shard_points{method=\"vptree\",shard=\"1\"} 33"));
        permsearch_obs::validate_text(&text).expect("gauge exposition parses");
    }
}
