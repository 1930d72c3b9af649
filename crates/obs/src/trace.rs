//! Sampled per-query stage tracing.
//!
//! A [`QueryTrace`] is a small fixed-size record embedded in every
//! `SearchScratch`. When armed ([`QueryTrace::begin`] with `active =
//! true`, typically for 1 query in [`DEFAULT_SAMPLE_EVERY`]), the index
//! `search_into` implementations stamp per-[`Stage`] wall time and
//! distance-computation counts into its fixed arrays; when disarmed, every
//! instrumentation call is a branch on one bool and nothing else — no
//! clock reads, no allocation, nothing for the off-sample path to pay.
//!
//! Stage taxonomy across the index families:
//!
//! | Stage         | what it covers                                              |
//! |---------------|-------------------------------------------------------------|
//! | `Filter`      | candidate generation: permutation scan, inverted-file probe, tree/graph traversal, LSH bucket gather |
//! | `QuantFilter` | an SQ8 pre-filter; no library stage stamps it                |
//! | `Refine`      | exact re-ranking of surviving candidates (for exhaustive search, the whole scan) |
//! | `Merge`       | the sharded k-way result merge                               |

use std::time::Instant;

/// Pipeline stages a query passes through. Discriminants index the
/// fixed arrays in [`QueryTrace`] and [`StageBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Candidate generation (permutation/table scan, traversal, gather).
    Filter = 0,
    /// An SQ8 pre-filter ahead of exact refinement. No library stage
    /// stamps it; it stays so stage arrays keep their layout.
    QuantFilter = 1,
    /// Exact re-ranking (or the full scan, for exhaustive search).
    Refine = 2,
    /// Sharded k-way merge.
    Merge = 3,
}

/// Number of [`Stage`] variants; length of every per-stage array.
pub const STAGE_COUNT: usize = 4;

/// All stages, in discriminant order.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::Filter,
    Stage::QuantFilter,
    Stage::Refine,
    Stage::Merge,
];

impl Stage {
    /// Stable lowercase name, used as the `stage` label value in the
    /// registry and as JSON field suffixes.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Filter => "filter",
            Stage::QuantFilter => "quant_filter",
            Stage::Refine => "refine",
            Stage::Merge => "merge",
        }
    }
}

/// Default sampling rate: one traced query per this many served.
pub const DEFAULT_SAMPLE_EVERY: usize = 64;

/// Fixed-size per-query stage record carried inside `SearchScratch`.
///
/// All storage is inline arrays — constructing, arming and recording never
/// allocate. The struct is plain data (not atomic): a scratch belongs to
/// exactly one worker at a time.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    active: bool,
    stage_nanos: [u64; STAGE_COUNT],
    stage_dists: [u64; STAGE_COUNT],
    candidates: u64,
    quant_engaged: bool,
}

impl QueryTrace {
    /// A disarmed trace (what `SearchScratch::default()` embeds).
    pub const fn new() -> Self {
        Self {
            active: false,
            stage_nanos: [0; STAGE_COUNT],
            stage_dists: [0; STAGE_COUNT],
            candidates: 0,
            quant_engaged: false,
        }
    }

    /// Reset all fields and arm (or disarm) the trace for the next query.
    /// Call once per query before `search_into`.
    #[inline]
    pub fn begin(&mut self, active: bool) {
        *self = Self::new();
        self.active = active;
    }

    /// Whether this query is being traced.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Read the clock iff tracing — the off-sample path pays one branch.
    /// Pair with [`finish`](Self::finish).
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.active {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Close a timing region opened by [`start`](Self::start), attributing
    /// the elapsed wall time to `stage`. Accumulates, so a stage may be
    /// entered multiple times (e.g. refine once per shard).
    #[inline]
    pub fn finish(&mut self, stage: Stage, started: Option<Instant>) {
        if let Some(t0) = started {
            self.stage_nanos[stage as usize] += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Attribute `n` distance computations to `stage` (no-op when
    /// disarmed).
    #[inline]
    pub fn add_dists(&mut self, stage: Stage, n: u64) {
        if self.active {
            self.stage_dists[stage as usize] += n;
        }
    }

    /// Record the size of a generated candidate list (accumulates across
    /// shards; no-op when disarmed).
    #[inline]
    pub fn add_candidates(&mut self, n: usize) {
        if self.active {
            self.candidates += n as u64;
        }
    }

    /// Note that the SQ8 pre-filter engaged for this query. No library
    /// stage calls this any more, so the flag stays `false`.
    #[inline]
    pub fn set_quant_engaged(&mut self) {
        if self.active {
            self.quant_engaged = true;
        }
    }

    /// Nanoseconds attributed to `stage`.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }

    /// Distance computations attributed to `stage`.
    pub fn stage_dists(&self, stage: Stage) -> u64 {
        self.stage_dists[stage as usize]
    }

    /// Total candidate-list size recorded.
    pub fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Whether the SQ8 pre-filter engaged (always `false` in the library).
    pub fn quant_engaged(&self) -> bool {
        self.quant_engaged
    }
}

/// Accumulator over many sampled [`QueryTrace`]s — what `eval::runner` and
/// `paper_grid` aggregate per method/cell.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageBreakdown {
    /// Traces accumulated.
    pub sampled: u64,
    /// Summed per-stage nanoseconds, indexed by `Stage as usize`.
    pub stage_nanos: [u64; STAGE_COUNT],
    /// Summed per-stage distance computations.
    pub stage_dists: [u64; STAGE_COUNT],
    /// Summed candidate-list sizes.
    pub candidates: u64,
    /// How many sampled queries engaged the SQ8 pre-filter (0: no library
    /// stage runs one).
    pub quant_engaged: u64,
}

impl StageBreakdown {
    /// Fold one completed (armed) trace in. Ignores disarmed traces, so
    /// callers can pass every query's trace unconditionally.
    pub fn absorb(&mut self, trace: &QueryTrace) {
        if !trace.active {
            return;
        }
        self.sampled += 1;
        for i in 0..STAGE_COUNT {
            self.stage_nanos[i] += trace.stage_nanos[i];
            self.stage_dists[i] += trace.stage_dists[i];
        }
        self.candidates += trace.candidates;
        self.quant_engaged += u64::from(trace.quant_engaged);
    }

    /// Merge another breakdown (shard/worker partials) in.
    pub fn merge(&mut self, other: &StageBreakdown) {
        self.sampled += other.sampled;
        for i in 0..STAGE_COUNT {
            self.stage_nanos[i] += other.stage_nanos[i];
            self.stage_dists[i] += other.stage_dists[i];
        }
        self.candidates += other.candidates;
        self.quant_engaged += other.quant_engaged;
    }

    /// Mean nanoseconds per sampled query in `stage` (0 when nothing
    /// sampled).
    pub fn mean_stage_nanos(&self, stage: Stage) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.stage_nanos[stage as usize] as f64 / self.sampled as f64
        }
    }

    /// Mean candidate-list size per sampled query.
    pub fn mean_candidates(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.candidates as f64 / self.sampled as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_trace_records_nothing() {
        let mut t = QueryTrace::new();
        t.begin(false);
        assert!(t.start().is_none());
        t.add_dists(Stage::Filter, 100);
        t.add_candidates(50);
        t.set_quant_engaged();
        assert_eq!(t.stage_dists(Stage::Filter), 0);
        assert_eq!(t.candidates(), 0);
        assert!(!t.quant_engaged());
        let mut b = StageBreakdown::default();
        b.absorb(&t);
        assert_eq!(b.sampled, 0);
    }

    #[test]
    fn armed_trace_accumulates_per_stage() {
        let mut t = QueryTrace::new();
        t.begin(true);
        let t0 = t.start();
        assert!(t0.is_some());
        t.finish(Stage::Refine, t0);
        t.add_dists(Stage::Filter, 7);
        t.add_dists(Stage::Filter, 3);
        t.add_dists(Stage::Refine, 5);
        t.add_candidates(20);
        t.add_candidates(22);
        t.set_quant_engaged();
        assert_eq!(t.stage_dists(Stage::Filter), 10);
        assert_eq!(t.stage_dists(Stage::Refine), 5);
        assert_eq!(t.candidates(), 42);
        assert!(t.quant_engaged());

        let mut b = StageBreakdown::default();
        b.absorb(&t);
        assert_eq!(b.sampled, 1);
        assert_eq!(b.stage_dists[Stage::Filter as usize], 10);
        assert_eq!(b.candidates, 42);
        assert_eq!(b.quant_engaged, 1);
        assert_eq!(b.mean_candidates(), 42.0);
    }

    #[test]
    fn begin_resets_previous_query_state() {
        let mut t = QueryTrace::new();
        t.begin(true);
        t.add_dists(Stage::Filter, 9);
        t.begin(true);
        assert_eq!(t.stage_dists(Stage::Filter), 0);
        t.begin(false);
        assert!(!t.active());
    }

    #[test]
    fn breakdown_merge_adds_fields() {
        let mut a = StageBreakdown::default();
        let mut t = QueryTrace::new();
        t.begin(true);
        t.add_dists(Stage::Merge, 4);
        a.absorb(&t);
        let mut b = StageBreakdown::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.sampled, 2);
        assert_eq!(b.stage_dists[Stage::Merge as usize], 8);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = STAGES.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["filter", "quant_filter", "refine", "merge"]);
    }
}
