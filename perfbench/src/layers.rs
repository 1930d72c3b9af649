//! Per-layer probes that live in the benchmark, not in the program: a
//! [`Space`] wrapper that records the id lists an index hands to the
//! kernels, direct kernel replays against a memcpy ceiling, and a reader
//! for the metrics registry's Prometheus exposition.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use permsearch_core::{FlatAccess, QuantizedView, Space, Stage, StageBreakdown, STAGES};

use crate::report::Report;

/// Which kernel family a recorded call went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `distance_block_flat`: f32 arena rows.
    Flat,
    /// `distance_block_quantized`: SQ8 rows.
    Quant,
    /// `distance_block` over dataset rows (gathered references).
    Gathered,
}

/// One recorded kernel call: the query it served and the row ids it named.
pub struct Call {
    pub kind: Kind,
    pub query: u32,
    pub ids: Vec<u32>,
}

/// Maps a gathered row reference back to its dataset id: rows of a nested
/// dataset are `stride` bytes apart starting at `base`.
#[derive(Debug, Clone, Copy)]
pub struct RowMap {
    pub base: usize,
    pub len: usize,
    pub stride: usize,
}

/// Shared state of every clone of one [`Recorder`].
#[derive(Default)]
pub struct KernelLog {
    armed: AtomicBool,
    query: AtomicU32,
    rows: Option<RowMap>,
    calls: Mutex<Vec<Call>>,
}

impl KernelLog {
    /// Record calls made while serving query `query` (until disarmed).
    pub fn arm(&self, query: u32) {
        self.query.store(query, Ordering::Relaxed);
        self.armed.store(true, Ordering::Relaxed);
    }

    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Take the recorded calls.
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("kernel log poisoned"))
    }

    fn push(&self, kind: Kind, ids: Vec<u32>) {
        if ids.is_empty() {
            return;
        }
        let query = self.query.load(Ordering::Relaxed);
        self.calls
            .lock()
            .expect("kernel log poisoned")
            .push(Call { kind, query, ids });
    }
}

/// A [`Space`] that forwards every call to `inner` and, while its log is
/// armed, records the row ids each batched kernel call scores. Clones share
/// the log.
#[derive(Clone)]
pub struct Recorder<S> {
    inner: S,
    log: Arc<KernelLog>,
}

impl<S> Recorder<S> {
    /// Wrap `inner`; `rows` maps gathered references to dataset ids (nested
    /// datasets only — flat and quantized calls carry their ids).
    pub fn new(inner: S, rows: Option<RowMap>) -> Self {
        let log = KernelLog {
            rows,
            ..KernelLog::default()
        };
        Self {
            inner,
            log: Arc::new(log),
        }
    }

    pub fn log(&self) -> &Arc<KernelLog> {
        &self.log
    }
}

impl<P: ?Sized, S: Space<P>> Space<P> for Recorder<S> {
    fn distance(&self, x: &P, y: &P) -> f32 {
        self.inner.distance(x, y)
    }
    fn distance_block(&self, xs: &[&P], y: &P, out: &mut [f32]) {
        if self.log.armed.load(Ordering::Relaxed) {
            if let Some(map) = self.log.rows {
                // Pivot rows live outside the dataset and are skipped.
                let ids = xs
                    .iter()
                    .filter_map(|&x| {
                        let addr = (x as *const P).cast::<u8>() as usize;
                        let off = addr.checked_sub(map.base)?;
                        let id = off / map.stride;
                        (off % map.stride == 0 && id < map.len).then_some(id as u32)
                    })
                    .collect();
                self.log.push(Kind::Gathered, ids);
            }
        }
        self.inner.distance_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        self.inner.supports_flat()
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &P, out: &mut [f32]) {
        if self.log.armed.load(Ordering::Relaxed) {
            self.log.push(Kind::Flat, ids.to_vec());
        }
        self.inner.distance_block_flat(flat, ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        self.inner.supports_quantized()
    }
    fn distance_block_quantized(&self, quant: &QuantizedView, ids: &[u32], y: &P, out: &mut [f32]) {
        if self.log.armed.load(Ordering::Relaxed) {
            self.log.push(Kind::Quant, ids.to_vec());
        }
        self.inner.distance_block_quantized(quant, ids, y, out)
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A kernel's replayed speed. Bytes are computed (rows scored × bytes per
/// row), not measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Roofline {
    pub ns_per_row: f64,
    pub gbps: f64,
}

/// Replay `calls` through `kernel` (query index, ids, output) in passes
/// until `budget` has elapsed (at least three passes) and report the
/// median pass.
pub fn replay(
    calls: &[&Call],
    bytes_per_row: usize,
    budget: Duration,
    mut kernel: impl FnMut(u32, &[u32], &mut [f32]),
) -> Roofline {
    let rows: usize = calls.iter().map(|c| c.ids.len()).sum();
    if rows == 0 {
        return Roofline::default();
    }
    let width = calls.iter().map(|c| c.ids.len()).max().unwrap_or(0);
    let mut out = vec![0.0f32; width];
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for call in calls {
            let out = &mut out[..call.ids.len()];
            kernel(call.query, black_box(&call.ids), out);
            black_box(&out);
        }
        passes.push(t.elapsed().as_nanos() as f64);
    }
    let ns = crate::stats::median(&passes);
    Roofline {
        ns_per_row: ns / rows as f64,
        gbps: (rows * bytes_per_row) as f64 / ns,
    }
}

/// Copy the rows `calls` name out of each `table` (row-major, `row_len`
/// floats per row) into a scratch block: the memory-bandwidth ceiling for a
/// kernel that reads the same rows.
pub fn memcpy_ceiling(
    calls: &[&Call],
    tables: &[&[f32]],
    row_len: usize,
    budget: Duration,
) -> Roofline {
    let width = calls.iter().map(|c| c.ids.len()).max().unwrap_or(0);
    let mut block = vec![0.0f32; width * row_len * tables.len()];
    replay(calls, row_len * 4 * tables.len(), budget, |_, ids, _| {
        let mut at = 0;
        for table in tables {
            for &id in ids {
                let row = id as usize * row_len;
                block[at..at + row_len].copy_from_slice(&table[row..row + row_len]);
                at += row_len;
            }
        }
        black_box(&block);
    })
}

/// Samples of a Prometheus text exposition: `(family, labels, value)`.
pub struct Scrape(Vec<(String, String, f64)>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                let value = value.parse::<f64>().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((n, rest)) => (n, rest.trim_end_matches('}')),
                    None => (series, ""),
                };
                Some((name.to_string(), labels.to_string(), value))
            })
            .collect();
        Self(samples)
    }

    /// Sum of `family` over every series whose labels contain `label`
    /// (`""` matches all).
    pub fn sum(&self, family: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(n, l, _)| n == family && l.contains(label))
            .map(|(_, _, v)| v)
            .sum()
    }
}

/// The stage traces a metrics registry accumulated between two scrapes.
pub fn traced_between(before: &Scrape, after: &Scrape) -> StageBreakdown {
    let delta =
        |family: &str, label: &str| (after.sum(family, label) - before.sum(family, label)) as u64;
    let mut b = StageBreakdown {
        sampled: delta("permsearch_traces_sampled_total", ""),
        candidates: delta("permsearch_trace_candidates_total", ""),
        quant_engaged: delta("permsearch_trace_quant_engaged_total", ""),
        ..StageBreakdown::default()
    };
    for stage in STAGES {
        let label = format!("stage=\"{}\"", stage.name());
        b.stage_nanos[stage as usize] = delta("permsearch_trace_stage_nanos_total", &label);
        b.stage_dists[stage as usize] = delta("permsearch_trace_stage_dists_total", &label);
    }
    b
}

/// Per-query stage means of a traced sample: `permutation.*`,
/// `engine.merge_us` and the sample size.
pub fn set_stage_metrics(r: &mut Report, stages: &StageBreakdown, k: usize) {
    let us = |s: Stage| stages.mean_stage_nanos(s) / 1e3;
    r.set("permutation.filter_us", us(Stage::Filter));
    r.set("permutation.quant_filter_us", us(Stage::QuantFilter));
    r.set("permutation.refine_us", us(Stage::Refine));
    r.set("engine.merge_us", us(Stage::Merge));
    r.set("permutation.candidates_per_query", stages.mean_candidates());
    let sampled = stages.sampled.max(1) as f64;
    r.set(
        "permutation.quant_engaged_share",
        stages.quant_engaged as f64 / sampled,
    );
    let refine_dists = stages.stage_dists[Stage::Refine as usize] as f64 / sampled;
    if refine_dists > 0.0 {
        r.set("permutation.refine_yield", k as f64 / refine_dists);
    }
    r.set("bench.queries_traced", stages.sampled as f64);
}
