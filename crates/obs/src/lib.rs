//! Observability substrate for the `permsearch` serving stack.
//!
//! Three layers, bottom to top:
//!
//! * **Lock-free metric primitives** — [`Counter`] and [`Gauge`] (relaxed
//!   atomics; clones of the handle share the cell) and the log-linear
//!   [`LatencyHistogram`] with its per-worker [`ShardedHistogram`] wrapper.
//!   Recording is a handful of relaxed atomic operations on a fixed bucket
//!   array: no locks, no allocation, mergeable snapshots.
//! * **A [`MetricsRegistry`]** — named metric families with `(key, value)`
//!   labels (e.g. `method`, `shard`), registered once on the cold path
//!   (behind a mutex) and thereafter updated purely through the returned
//!   atomic handles. [`MetricsRegistry::render_text`] emits the
//!   Prometheus-style text format, [`MetricsRegistry::render_json`] a JSON
//!   mirror; both are hand-rolled, and [`validate_text`] parses the text
//!   form back (the CI scrape gate).
//! * **Sampled per-query tracing** — [`QueryTrace`], a fixed-size record of
//!   per-[`Stage`] wall time, distance-computation counts, candidate-list
//!   sizes and an SQ8 flag (no library stage sets it) that lives inside
//!   every `SearchScratch`. Tracing is enabled 1-in-N per serving worker;
//!   the off-sample (and even the on-sample) path allocates nothing.
//!
//! This crate sits *below* `permsearch_core` in the workspace graph so the
//! core scratch/space types can embed its primitives without a cycle. It
//! has no dependencies and hand-rolls its exposition formats, matching the
//! workspace's no-new-deps constraint.

pub mod counter;
pub mod hist;
pub mod registry;
pub mod stats;
pub mod trace;

pub use counter::{Counter, Gauge};
pub use hist::{
    HistogramSnapshot, LatencyHistogram, ShardedHistogram, NUM_BUCKETS, RELATIVE_ERROR,
};
pub use registry::{validate_text, MetricsRegistry, SUMMARY_QUANTILES};
pub use stats::{mean, percentile};
pub use trace::{QueryTrace, Stage, StageBreakdown, DEFAULT_SAMPLE_EVERY, STAGES, STAGE_COUNT};
