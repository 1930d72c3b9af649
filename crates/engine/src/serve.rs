//! Batch execution across a worker pool, with per-batch serving statistics.
//!
//! [`serve_batch`] drives any [`SearchIndex`] (usually a
//! [`ShardedIndex`](crate::ShardedIndex)) over a query batch with `W`
//! scoped worker threads, one contiguous slice of the batch per worker —
//! queries are independent, so parallelism across queries scales without
//! any synchronization on the hot path. Each worker records per-query wall
//! latency into its own shard of a lock-free log-linear histogram
//! ([`permsearch_obs::ShardedHistogram`]); the batch summary
//! ([`ServeStats`]) is re-derived from the merged histogram and reports
//! throughput (QPS) plus mean/p50/p99/p999 latency, and [`ServeReport`]
//! adds deployment metadata and optional recall against a [`GoldStandard`]
//! in a JSON-emitting record.
//!
//! With an attached [`ServeMetrics`] handle bundle, [`serve_batch`] also
//! publishes cumulative query/latency families plus the 1-in-`N` sampled
//! per-query stage traces; [`ServeOptions`] carry degraded mode and
//! per-query deadlines.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use permsearch_core::{Neighbor, SearchIndex, SearchScratch};
use permsearch_eval::GoldStandard;
use permsearch_obs::{HistogramSnapshot, ShardedHistogram};

use crate::metrics::ServeMetrics;

/// Percentile of an ascending-sorted slice — re-exported from
/// `permsearch-obs` so the serving and eval layers share one rank
/// convention (`round(q · (len − 1))`).
pub use permsearch_obs::percentile;

/// Per-batch serving statistics.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Queries served.
    pub queries: usize,
    /// Wall time for the whole batch, in seconds.
    pub batch_secs: f64,
    /// Throughput: queries per second of batch wall time.
    pub qps: f64,
    /// Mean per-query latency, in seconds.
    pub mean_latency_secs: f64,
    /// Median per-query latency, in seconds.
    pub p50_latency_secs: f64,
    /// 99th-percentile per-query latency, in seconds.
    pub p99_latency_secs: f64,
    /// 99.9th-percentile per-query latency, in seconds.
    pub p999_latency_secs: f64,
}

impl ServeStats {
    /// Summarize a batch from the merged per-worker latency histogram.
    /// The mean is exact (true sum over true count); the percentiles carry
    /// the histogram's bounded relative error
    /// ([`permsearch_obs::RELATIVE_ERROR`], conservatively biased upward).
    pub fn from_histogram(batch_secs: f64, snap: &HistogramSnapshot) -> Self {
        if snap.count() == 0 {
            return Self::zeroed(batch_secs);
        }
        Self {
            queries: snap.count() as usize,
            batch_secs,
            qps: Self::qps_of(snap.count() as usize, batch_secs),
            mean_latency_secs: snap.mean_secs(),
            p50_latency_secs: snap.percentile_secs(0.50),
            p99_latency_secs: snap.percentile_secs(0.99),
            p999_latency_secs: snap.percentile_secs(0.999),
        }
    }

    fn qps_of(queries: usize, batch_secs: f64) -> f64 {
        if queries == 0 {
            // An empty batch has zero throughput even when its wall time
            // rounds to zero: 0/0 must not become NaN or infinity.
            0.0
        } else if batch_secs > 0.0 {
            queries as f64 / batch_secs
        } else {
            f64::INFINITY
        }
    }

    /// The summary of a zero-query batch: every rate and percentile is an
    /// honest zero. Empty batches are reachable from the network path
    /// (a client may send a query frame with no queries), so the stats
    /// must stay finite and JSON-serializable.
    fn zeroed(batch_secs: f64) -> Self {
        Self {
            queries: 0,
            batch_secs,
            qps: 0.0,
            mean_latency_secs: 0.0,
            p50_latency_secs: 0.0,
            p99_latency_secs: 0.0,
            p999_latency_secs: 0.0,
        }
    }
}

/// Per-query robustness outcome. All-false is the common case: a complete,
/// full-precision answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Served in degraded mode: the refinement stage traded recall for
    /// bounded work (a tightened candidate budget; distances stay exact).
    pub degraded: bool,
    /// The query's deadline expired mid-flight; the result list covers
    /// only the stages/shards that completed in time.
    pub partial: bool,
    /// Per-query work panicked; the panic was isolated to this query and
    /// its result list is empty.
    pub failed: bool,
}

/// Batch-level serving options: how hard to try, and for how long.
///
/// The default (`no degradation, no deadlines`) serves exactly like the
/// option-free path — bit-identical results.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Serve the whole batch in degraded mode (the admission layer sets
    /// this under queue pressure).
    pub degraded: bool,
    /// Absolute per-query deadlines, indexed by batch position; `None`
    /// entries (and positions past the end) are unlimited.
    pub deadlines: Vec<Option<Instant>>,
}

/// Results plus statistics for one served batch.
#[derive(Debug, Clone)]
pub struct ServeOutput {
    /// Global top-k per query, in batch order.
    pub results: Vec<Vec<Neighbor>>,
    /// Per-query robustness outcomes, in batch order (all-default when
    /// the batch ran without options).
    pub outcomes: Vec<QueryOutcome>,
    /// Batch timing summary.
    pub stats: ServeStats,
}

impl ServeOutput {
    /// Mean recall of the served results against exact answers.
    pub fn recall_against(&self, gold: &GoldStandard) -> f64 {
        assert_eq!(self.results.len(), gold.neighbors.len(), "batch/gold size");
        let sum: f64 = self
            .results
            .iter()
            .zip(&gold.neighbors)
            .map(|(res, truth)| permsearch_eval::metrics::recall_vs(res, truth))
            .sum();
        sum / self.results.len().max(1) as f64
    }
}

/// Worker threads actually used for a batch: at least one, and never more
/// than there are queries to hand out.
pub fn effective_workers(requested: usize, batch_len: usize) -> usize {
    requested.max(1).min(batch_len.max(1))
}

/// Serve `queries` against `index` with `workers` threads, collecting the
/// top-`k` per query and per-query latencies.
///
/// `workers == 1` runs inline on the calling thread (no pool overhead), so
/// single-worker numbers are an honest baseline for scaling measurements.
///
/// When `metrics` is supplied, every query lands in the registry's
/// cumulative latency histogram and query counter, batches are counted,
/// and 1-in-`N` queries run with an armed stage trace that is harvested
/// into the per-stage counters. The off-sample tracing cost is one branch
/// per query.
///
/// `options` carry degraded-mode refinement and per-query deadlines;
/// [`ServeOptions::default`] serves every query in full. Per-query work
/// runs under `catch_unwind`, so a panic inside one search poisons one
/// answer (empty result, `failed` outcome) instead of the worker pool.
pub fn serve_batch<P, I>(
    index: &I,
    queries: &[P],
    k: usize,
    workers: usize,
    metrics: Option<&ServeMetrics>,
    options: &ServeOptions,
) -> ServeOutput
where
    P: Sync,
    I: SearchIndex<P> + Sync + ?Sized,
{
    let nq = queries.len();
    let workers = effective_workers(workers, nq);
    let mut results: Vec<Vec<Neighbor>> = Vec::new();
    results.resize_with(nq, Vec::new);
    let mut outcomes: Vec<QueryOutcome> = vec![QueryOutcome::default(); nq];
    // Per-batch latency histogram, one shard per worker: ServeStats is
    // derived from it whether or not registry metrics are attached.
    let hist = ShardedHistogram::new(workers);
    let wall = Instant::now();
    if workers == 1 {
        serve_slice(
            index,
            queries,
            k,
            &mut results,
            &mut outcomes,
            Slice {
                worker: 0,
                offset: 0,
                hist: &hist,
                metrics,
            },
            options,
        );
    } else {
        let chunk = nq.div_ceil(workers);
        std::thread::scope(|scope| {
            for (w, ((qs, rs), os)) in queries
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .zip(outcomes.chunks_mut(chunk))
                .enumerate()
            {
                let hist = &hist;
                scope.spawn(move || {
                    serve_slice(
                        index,
                        qs,
                        k,
                        rs,
                        os,
                        Slice {
                            worker: w,
                            offset: w * chunk,
                            hist,
                            metrics,
                        },
                        options,
                    )
                });
            }
        });
    }
    let batch_secs = wall.elapsed().as_secs_f64();
    if let Some(m) = metrics {
        m.observe_batch();
    }
    ServeOutput {
        results,
        outcomes,
        stats: ServeStats::from_histogram(batch_secs, &hist.snapshot()),
    }
}

/// One worker's view of a batch: its ordinal (histogram shard), the batch
/// offset of its first query (keeps the trace-sampling schedule aligned to
/// batch positions regardless of the worker count), the per-batch
/// histogram, and the optional registry handles.
struct Slice<'a> {
    worker: usize,
    offset: usize,
    hist: &'a ShardedHistogram,
    metrics: Option<&'a ServeMetrics>,
}

fn serve_slice<P, I>(
    index: &I,
    queries: &[P],
    k: usize,
    results: &mut [Vec<Neighbor>],
    outcomes: &mut [QueryOutcome],
    s: Slice,
    options: &ServeOptions,
) where
    I: SearchIndex<P> + ?Sized,
{
    // One scratch per worker: after the first few queries grow its buffers
    // to their high-water sizes, the steady-state serving loop performs no
    // per-query heap allocation beyond the per-query result vector (which
    // is the output, written in place).
    let mut scratch = SearchScratch::new();
    for (i, q) in queries.iter().enumerate() {
        let global = s.offset + i;
        if let Some(m) = s.metrics {
            scratch.trace.begin(m.should_trace(global));
        }
        scratch.budget.clear();
        scratch.budget.set_degraded(options.degraded);
        if let Some(deadline) = options.deadlines.get(global).copied().flatten() {
            scratch.budget.set_deadline(deadline);
        }
        let start = Instant::now();
        // Panic isolation: one poisoned query degrades one answer, not
        // the worker pool (a panic escaping a scoped worker would tear
        // down the whole batch). The success path costs nothing.
        let scratch_ref = &mut scratch;
        let out_ref = &mut results[i];
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            if permsearch_core::failpoints::fire("query_panic") {
                panic!("failpoint query_panic");
            }
            index.search_into(q, k, scratch_ref, out_ref);
        }))
        .is_err();
        if panicked {
            results[i].clear();
        }
        let nanos = start.elapsed().as_nanos() as u64;
        s.hist.record(s.worker, nanos);
        outcomes[i] = QueryOutcome {
            degraded: options.degraded && !panicked,
            partial: scratch.budget.was_cut() && !panicked,
            failed: panicked,
        };
        if let Some(m) = s.metrics {
            m.observe_query(s.worker, nanos);
            m.observe_trace(&scratch.trace);
            m.observe_outcome(&outcomes[i]);
        }
    }
}

/// One serving run's record: deployment metadata, throughput, latency and
/// (when gold answers were supplied) recall. `to_json` emits it without
/// external dependencies, matching the harness convention.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Registry method name deployed on every shard.
    pub method: String,
    /// Indexed points across all shards.
    pub num_points: usize,
    /// Shards the dataset was partitioned into.
    pub shards: usize,
    /// Worker threads actually used for the batch (the configured pool
    /// clamped to the batch size — see [`effective_workers`]).
    pub workers: usize,
    /// Neighbors requested per query.
    pub k: usize,
    /// Batch statistics.
    pub stats: ServeStats,
    /// Mean recall against exact answers, when gold was supplied.
    pub recall: Option<f64>,
}

impl ServeReport {
    /// Hand-rolled JSON (all fields are numeric except the method name,
    /// which is escaped for quotes/backslashes like `eval::Table`).
    /// Non-finite floats (e.g. the infinite QPS of a zero-duration batch)
    /// are emitted as `null`, since JSON has no representation for them.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let method = self.method.replace('\\', "\\\\").replace('"', "\\\"");
        let recall = match self.recall {
            Some(r) => num(r),
            None => "null".to_string(),
        };
        let s = &self.stats;
        format!(
            concat!(
                "{{\"method\": \"{}\", \"num_points\": {}, \"shards\": {}, ",
                "\"workers\": {}, \"k\": {}, \"queries\": {}, ",
                "\"batch_secs\": {}, \"qps\": {}, \"mean_latency_secs\": {}, ",
                "\"p50_latency_secs\": {}, \"p99_latency_secs\": {}, ",
                "\"p999_latency_secs\": {}, \"recall\": {}}}"
            ),
            method,
            self.num_points,
            self.shards,
            self.workers,
            self.k,
            s.queries,
            num(s.batch_secs),
            num(s.qps),
            num(s.mean_latency_secs),
            num(s.p50_latency_secs),
            num(s.p99_latency_secs),
            num(s.p999_latency_secs),
            recall
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::{Dataset, ExhaustiveSearch};
    use permsearch_spaces::L2;
    use std::sync::Arc;

    fn line_world(n: usize) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
        let data = Arc::new(Dataset::new(
            (0..n).map(|i| vec![i as f32]).collect::<Vec<_>>(),
        ));
        let queries: Vec<Vec<f32>> = (0..40).map(|i| vec![i as f32 + 0.25]).collect();
        (data, queries)
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let (data, queries) = line_world(200);
        let idx = ExhaustiveSearch::new(data, L2);
        let opts = ServeOptions::default();
        let one = serve_batch(&idx, &queries, 5, 1, None, &opts);
        for w in [2, 3, 8, 64] {
            let many = serve_batch(&idx, &queries, 5, w, None, &opts);
            assert_eq!(one.results, many.results, "workers={w}");
        }
        assert_eq!(one.stats.queries, 40);
        assert!(one.stats.qps > 0.0);
        assert!(one.stats.p99_latency_secs >= one.stats.p50_latency_secs);
        assert!(one.stats.p999_latency_secs >= one.stats.p99_latency_secs);
    }

    #[test]
    fn empty_latencies_summarize_to_zero() {
        let from_hist =
            ServeStats::from_histogram(1.0, &permsearch_obs::LatencyHistogram::new().snapshot());
        assert_eq!(from_hist.queries, 0);
        assert_eq!(from_hist.p999_latency_secs, 0.0);
    }

    #[test]
    fn histogram_stats_match_exact_within_relative_error() {
        let hist = ShardedHistogram::new(3);
        let mut exact: Vec<f64> = Vec::new();
        for i in 0..500u64 {
            let nanos = 10_000 + i * i * 13;
            hist.record(i as usize, nanos);
            exact.push(nanos as f64 * 1e-9);
        }
        exact.sort_unstable_by(f64::total_cmp);
        let stats = ServeStats::from_histogram(2.0, &hist.snapshot());
        assert_eq!(stats.queries, 500);
        assert_eq!(stats.qps, 250.0);
        for (got, q) in [
            (stats.p50_latency_secs, 0.5),
            (stats.p99_latency_secs, 0.99),
            (stats.p999_latency_secs, 0.999),
        ] {
            let want = percentile(&exact, q);
            assert!(got >= want && got <= want * (1.0 + permsearch_obs::RELATIVE_ERROR));
        }
        let mean = permsearch_obs::mean(&exact);
        assert!(
            (stats.mean_latency_secs - mean).abs() < 1e-12,
            "mean is exact"
        );
    }

    #[test]
    fn observed_serving_publishes_and_matches_unobserved() {
        let (data, queries) = line_world(200);
        let idx = ExhaustiveSearch::new(data, L2);
        let registry = permsearch_obs::MetricsRegistry::new();
        let metrics = crate::metrics::ServeMetrics::register(&registry, "brute-force", 2, 4);
        let opts = ServeOptions::default();
        let plain = serve_batch(&idx, &queries, 5, 2, None, &opts);
        let observed = serve_batch(&idx, &queries, 5, 2, Some(&metrics), &opts);
        assert_eq!(plain.results, observed.results);
        assert_eq!(metrics.queries_total.get(), 40);
        assert_eq!(metrics.batches_total.get(), 1);
        // 40 queries at 1-in-4: positions 0,4,... of each slice's global range.
        assert_eq!(metrics.traces_sampled_total.get(), 10);
        // Every sampled query's refine stage scanned the whole dataset.
        assert_eq!(
            metrics.stage_dists_total[permsearch_core::Stage::Refine as usize].get(),
            10 * 200
        );
        let text = registry.render_text();
        permsearch_obs::validate_text(&text).expect("serving exposition parses");
        assert!(text.contains("permsearch_query_latency_seconds_count{method=\"brute-force\"} 40"));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let stats = ServeStats {
            queries: 3,
            batch_secs: 0.5,
            qps: 6.0,
            mean_latency_secs: 0.2,
            p50_latency_secs: 0.2,
            p99_latency_secs: 0.3,
            p999_latency_secs: 0.3,
        };
        let report = ServeReport {
            method: "napp".into(),
            num_points: 100,
            shards: 4,
            workers: 2,
            k: 10,
            stats,
            recall: Some(0.97),
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"method\": \"napp\""));
        assert!(json.contains("\"qps\": 6"));
        assert!(json.contains("\"recall\": 0.97"));
        let none = ServeReport {
            recall: None,
            ..report
        };
        assert!(none.to_json().contains("\"recall\": null"));
    }

    #[test]
    fn report_json_nulls_non_finite_floats() {
        let stats = ServeStats {
            queries: 1,
            batch_secs: 0.0,
            qps: f64::INFINITY,
            mean_latency_secs: f64::NAN,
            p50_latency_secs: 0.1,
            p99_latency_secs: 0.1,
            p999_latency_secs: 0.1,
        };
        let report = ServeReport {
            method: "m".into(),
            num_points: 1,
            shards: 1,
            workers: 1,
            k: 1,
            stats,
            recall: Some(1.0),
        };
        let json = report.to_json();
        assert!(json.contains("\"qps\": null"), "{json}");
        assert!(json.contains("\"mean_latency_secs\": null"), "{json}");
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
    }

    #[test]
    fn empty_batch_is_served() {
        let (data, _) = line_world(10);
        let idx = ExhaustiveSearch::new(data, L2);
        let out = serve_batch(
            &idx,
            &[] as &[Vec<f32>],
            3,
            4,
            None,
            &ServeOptions::default(),
        );
        assert!(out.results.is_empty());
        assert_eq!(out.stats.queries, 0);
    }

    /// Zero-query batches must summarize to honest zeros — not NaN
    /// percentiles or an infinite 0/0 QPS — through the histogram
    /// constructor and the full serving path.
    #[test]
    fn empty_batch_stats_are_zeroed() {
        let finite_zeros = |stats: &ServeStats| {
            assert_eq!(stats.queries, 0);
            assert_eq!(stats.qps, 0.0);
            assert_eq!(stats.mean_latency_secs, 0.0);
            assert_eq!(stats.p50_latency_secs, 0.0);
            assert_eq!(stats.p99_latency_secs, 0.0);
            assert_eq!(stats.p999_latency_secs, 0.0);
            assert!(stats.batch_secs.is_finite());
        };

        let hist = ShardedHistogram::new(2);
        finite_zeros(&ServeStats::from_histogram(0.0, &hist.snapshot()));

        let (data, _) = line_world(10);
        let idx = ExhaustiveSearch::new(data, L2);
        let out = serve_batch(
            &idx,
            &[] as &[Vec<f32>],
            3,
            4,
            None,
            &ServeOptions::default(),
        );
        finite_zeros(&out.stats);
        // The JSON report path must survive the same batch (no bare NaN
        // tokens, which are invalid JSON).
        let report = ServeReport {
            method: "brute".into(),
            num_points: 10,
            shards: 1,
            workers: 1,
            k: 3,
            stats: out.stats,
            recall: None,
        };
        let json = report.to_json();
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        assert!(json.contains("\"qps\": 0"), "{json}");
    }
}
