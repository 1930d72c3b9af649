//! The [`Space`] trait: a distance function over a point type.
//!
//! A *space* in this library is a pair of a point representation `P` and a
//! dissimilarity `d(x, y) ≥ 0` with `d(x, x) = 0`. The distance does **not**
//! have to be a metric: the paper evaluates the Kullback–Leibler divergence
//! (not even symmetric), the Jensen–Shannon divergence, the cosine distance,
//! and the normalized Levenshtein distance alongside the metric `L2` and
//! SQFD.

use std::sync::Arc;

use permsearch_obs::Counter;

use crate::dataset::{Dataset, DenseStore, FlatAccess};
use crate::point::Point;
use crate::quant::QuantizedView;

/// Number of candidates a batched scoring call processes at once.
///
/// 64 rows keep the gathered reference block and the distance output block
/// comfortably inside L1 while amortizing per-call overhead; the serving
/// helpers ([`score_all`], [`score_ids`]) and the index leaf/refine scans
/// all chunk by this width.
pub const BATCH_WIDTH: usize = 64;

/// A dissimilarity function over points of type `P`.
///
/// Convention for non-symmetric distances (the paper's *left* queries): the
/// data point is the **first** argument and the query point is the second,
/// i.e. indexes evaluate `space.distance(data, query)`.
pub trait Space<P: ?Sized>: Send + Sync {
    /// Evaluate the distance from data point `x` to query point `y`.
    ///
    /// Must be non-negative and zero for identical arguments; no other
    /// axioms (symmetry, triangle inequality) are assumed.
    fn distance(&self, x: &P, y: &P) -> f32;

    /// Score a contiguous block of data points against one query in a
    /// single call: `out[i]` receives `distance(xs[i], y)`.
    ///
    /// **Accuracy contract:** implementations must return exactly the
    /// values the scalar [`distance`](Self::distance) returns for each
    /// point — bitwise identical, which every override in this workspace
    /// achieves by keeping the per-point arithmetic order unchanged. An
    /// implementation that cannot (e.g. an FMA-contracted kernel) must
    /// document its ≤ 1-ulp deviation; the `kernel_equivalence` suite in
    /// `permsearch_spaces` pins the contract. Counting wrappers count one
    /// evaluation **per point scored**, not per kernel call.
    ///
    /// The default loops over `distance`; dense spaces override it with
    /// chunked kernels that keep several accumulator chains in flight.
    fn distance_block(&self, xs: &[&P], y: &P, out: &mut [f32]) {
        debug_assert_eq!(xs.len(), out.len(), "block/output length mismatch");
        for (x, o) in xs.iter().zip(out.iter_mut()) {
            *o = self.distance(x, y);
        }
    }

    /// Whether this space can score rows straight out of a flat
    /// [`FlatAccess`] arena view via
    /// [`distance_block_flat`](Self::distance_block_flat).
    ///
    /// Only spaces whose point type is logically a dense `f32` row (L2,
    /// L1, dense cosine) return `true`; consumers must check this before
    /// calling the flat kernel.
    fn supports_flat(&self) -> bool {
        false
    }

    /// Score the arena rows named by `ids` (view-relative) against `y` in
    /// a single gather-free pass: `out[i]` receives the distance of
    /// `flat.row(ids[i])` to `y`.
    ///
    /// Same accuracy contract as [`distance_block`](Self::distance_block):
    /// results are bitwise identical to the scalar `distance` per row.
    /// Implementations stream rows out of the arena (with a
    /// consecutive-run fast path and optional software prefetch); the
    /// default is only a guard — callers gate on
    /// [`supports_flat`](Self::supports_flat), so it must never run.
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &P, out: &mut [f32]) {
        let _ = (flat, ids, y, out);
        unreachable!(
            "distance_block_flat called on {:?}, which has no flat kernel",
            self.name()
        );
    }

    /// Whether this space can score SQ8 rows of a
    /// [`QuantizedView`] via
    /// [`distance_block_quantized`](Self::distance_block_quantized).
    ///
    /// No space in this workspace returns `true`, and no search or refine
    /// path consults it: every candidate is scored exactly. The hook and
    /// its forwarders remain only so benchmark instrumentation that
    /// wraps a space still compiles.
    fn supports_quantized(&self) -> bool {
        false
    }

    /// Score the SQ8 rows named by `ids` (view-relative) against the
    /// full-precision query `y`: `out[i]` receives an *approximate*
    /// distance of the dequantized `quant.row(ids[i])` to `y`.
    ///
    /// Unlike the flat kernel, a quantized kernel has **no** bitwise
    /// contract with [`distance`](Self::distance) — quantization is lossy
    /// by design. Callers gate on
    /// [`supports_quantized`](Self::supports_quantized); the default must
    /// never run.
    fn distance_block_quantized(&self, quant: &QuantizedView, ids: &[u32], y: &P, out: &mut [f32]) {
        let _ = (quant, ids, y, out);
        unreachable!(
            "distance_block_quantized called on {:?}, which has no quantized kernel",
            self.name()
        );
    }

    /// Whether `distance(x, y) == distance(y, x)` for all points.
    ///
    /// Non-symmetric spaces (KL-divergence) return `false`; indexes that
    /// fundamentally require symmetry (e.g. LSH) must not be used with them.
    fn is_symmetric(&self) -> bool {
        true
    }

    /// Short name used in reports, e.g. `"L2"` or `"KL-div"`.
    fn name(&self) -> &'static str;
}

// A space behind a shared reference is itself a space. This lets indexes
// borrow one space instance instead of cloning it.
impl<P: ?Sized, S: Space<P> + ?Sized> Space<P> for &S {
    fn distance(&self, x: &P, y: &P) -> f32 {
        (**self).distance(x, y)
    }
    fn distance_block(&self, xs: &[&P], y: &P, out: &mut [f32]) {
        (**self).distance_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        (**self).supports_flat()
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &P, out: &mut [f32]) {
        (**self).distance_block_flat(flat, ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        (**self).supports_quantized()
    }
    fn distance_block_quantized(&self, quant: &QuantizedView, ids: &[u32], y: &P, out: &mut [f32]) {
        (**self).distance_block_quantized(quant, ids, y, out)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<P: ?Sized, S: Space<P> + ?Sized> Space<P> for Arc<S> {
    fn distance(&self, x: &P, y: &P) -> f32 {
        (**self).distance(x, y)
    }
    fn distance_block(&self, xs: &[&P], y: &P, out: &mut [f32]) {
        (**self).distance_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        (**self).supports_flat()
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &P, out: &mut [f32]) {
        (**self).distance_block_flat(flat, ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        (**self).supports_quantized()
    }
    fn distance_block_quantized(&self, quant: &QuantizedView, ids: &[u32], y: &P, out: &mut [f32]) {
        (**self).distance_block_quantized(quant, ids, y, out)
    }
    fn is_symmetric(&self) -> bool {
        (**self).is_symmetric()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Score every point of a contiguous slice against `query` in
/// [`BATCH_WIDTH`] blocks, invoking `f(index, dist)` in increasing index
/// order. The shared engine under [`score_all`] (dataset scans) and the
/// permutation crates' pivot scoring; `dists` is the reused kernel output
/// buffer (grown once, then allocation-free).
pub fn score_slice<P: Point, S: Space<P::Ref> + ?Sized>(
    space: &S,
    points: &[P],
    query: &P::Ref,
    dists: &mut Vec<f32>,
    mut f: impl FnMut(u32, f32),
) {
    if dists.len() < BATCH_WIDTH {
        dists.resize(BATCH_WIDTH, 0.0);
    }
    let mut id = 0u32;
    for chunk in points.chunks(BATCH_WIDTH) {
        let mut refs: [&P::Ref; BATCH_WIDTH] = [query; BATCH_WIDTH];
        for (slot, p) in refs.iter_mut().zip(chunk) {
            *slot = p.point_ref();
        }
        space.distance_block(&refs[..chunk.len()], query, &mut dists[..chunk.len()]);
        for &d in &dists[..chunk.len()] {
            f(id, d);
            id += 1;
        }
    }
}

/// Score every point of `data` against `query` in [`BATCH_WIDTH`] blocks,
/// invoking `f(id, dist)` in increasing id order — the batched form of the
/// exhaustive scan.
///
/// When the dataset carries a flat arena and the space has a flat kernel,
/// the scan streams rows straight out of the arena (the ids of each block
/// are consecutive, so the kernels take their contiguous-run fast path);
/// otherwise it falls back to the gathering [`score_slice`]. Both paths
/// produce bitwise-identical distances in identical order.
pub fn score_all<P: Point, S: Space<P::Ref> + ?Sized>(
    space: &S,
    data: &Dataset<P>,
    query: &P::Ref,
    dists: &mut Vec<f32>,
    mut f: impl FnMut(u32, f32),
) {
    if dists.len() < BATCH_WIDTH {
        dists.resize(BATCH_WIDTH, 0.0);
    }
    let n = data.len();
    if let Some(flat) = DenseStore::flat(data) {
        if space.supports_flat() {
            let mut idbuf = [0u32; BATCH_WIDTH];
            let mut id = 0u32;
            while (id as usize) < n {
                let take = BATCH_WIDTH.min(n - id as usize);
                for (off, slot) in idbuf[..take].iter_mut().enumerate() {
                    *slot = id + off as u32;
                }
                space.distance_block_flat(flat, &idbuf[..take], query, &mut dists[..take]);
                for &d in &dists[..take] {
                    f(id, d);
                    id += 1;
                }
            }
            return;
        }
    }
    // Gather fallback over ids, which serves both nested storage and the
    // (unusual) arena-without-flat-kernel combination.
    let mut id = 0u32;
    while (id as usize) < n {
        let take = BATCH_WIDTH.min(n - id as usize);
        let mut refs: [&P::Ref; BATCH_WIDTH] = [query; BATCH_WIDTH];
        for (off, slot) in refs[..take].iter_mut().enumerate() {
            *slot = data.get(id + off as u32);
        }
        space.distance_block(&refs[..take], query, &mut dists[..take]);
        for &d in &dists[..take] {
            f(id, d);
            id += 1;
        }
    }
}

/// Score the data points named by `ids` against `query` in [`BATCH_WIDTH`]
/// blocks, invoking `f(id, dist)` in input order — the batched form of the
/// filter-and-refine candidate check. Allocation-free after `dists` reaches
/// [`BATCH_WIDTH`].
///
/// When the dataset carries a flat arena and the space has a flat kernel,
/// candidate rows are read straight out of the arena with no gather step;
/// callers that can pass `ids` in ascending order should (near-sequential
/// arena reads), but any order is scored correctly and identically to the
/// gather path.
pub fn score_ids<P: Point, S: Space<P::Ref> + ?Sized>(
    space: &S,
    data: &Dataset<P>,
    query: &P::Ref,
    ids: &[u32],
    dists: &mut Vec<f32>,
    mut f: impl FnMut(u32, f32),
) {
    if dists.len() < BATCH_WIDTH {
        dists.resize(BATCH_WIDTH, 0.0);
    }
    if let Some(flat) = DenseStore::flat(data) {
        if space.supports_flat() {
            for chunk in ids.chunks(BATCH_WIDTH) {
                space.distance_block_flat(flat, chunk, query, &mut dists[..chunk.len()]);
                for (&id, &d) in chunk.iter().zip(dists.iter()) {
                    f(id, d);
                }
            }
            return;
        }
    }
    for chunk in ids.chunks(BATCH_WIDTH) {
        let mut refs: [&P::Ref; BATCH_WIDTH] = [query; BATCH_WIDTH];
        for (slot, &id) in refs.iter_mut().zip(chunk) {
            *slot = data.get(id);
        }
        space.distance_block(&refs[..chunk.len()], query, &mut dists[..chunk.len()]);
        for (&id, &d) in chunk.iter().zip(dists.iter()) {
            f(id, d);
        }
    }
}

/// A thread-safe distance-evaluation counter around a [`Space`].
///
/// Counts with a shared [`permsearch_obs::Counter`] and therefore *is* a
/// `Space`: indexes can be built over it directly and every distance their
/// construction and searches evaluate is counted — batched kernel calls
/// count **one per point scored**. Clones share the counter, so one tally
/// can span an index plus its refine stage.
///
/// [`with_counter`](Self::with_counter) lets callers supply the counter
/// cell — the metrics registry hands its `dists_total` series handle
/// straight in, so the scraped counter and the bench-side `count()` are the
/// same atomic word and can never drift.
#[derive(Debug, Clone)]
pub struct CountedSpace<S> {
    inner: S,
    count: Arc<Counter>,
}

impl<S> CountedSpace<S> {
    /// Wrap `inner` with a fresh shared counter at zero.
    pub fn new(inner: S) -> Self {
        Self::with_counter(inner, Arc::new(Counter::new()))
    }

    /// Wrap `inner`, counting into a caller-provided cell (typically a
    /// metrics-registry `dists_total` handle).
    pub fn with_counter(inner: S, count: Arc<Counter>) -> Self {
        Self { inner, count }
    }

    /// Distance evaluations since construction or the last
    /// [`reset`](Self::reset), across all clones.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Reset the shared counter to zero.
    pub fn reset(&self) {
        self.count.reset();
    }

    /// Borrow the wrapped space.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The shared counter cell itself.
    pub fn counter(&self) -> &Arc<Counter> {
        &self.count
    }
}

impl<P: ?Sized, S: Space<P>> Space<P> for CountedSpace<S> {
    fn distance(&self, x: &P, y: &P) -> f32 {
        self.count.inc();
        self.inner.distance(x, y)
    }
    fn distance_block(&self, xs: &[&P], y: &P, out: &mut [f32]) {
        // One count per point scored — the batched-counting contract.
        self.count.add(xs.len() as u64);
        self.inner.distance_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        self.inner.supports_flat()
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &P, out: &mut [f32]) {
        // One count per row scored, same as the gather block.
        self.count.add(ids.len() as u64);
        self.inner.distance_block_flat(flat, ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        self.inner.supports_quantized()
    }
    fn distance_block_quantized(&self, quant: &QuantizedView, ids: &[u32], y: &P, out: &mut [f32]) {
        // Quantized scans are distance work too: one count per row.
        self.count.add(ids.len() as u64);
        self.inner.distance_block_quantized(quant, ids, y, out)
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A counting wrapper around a [`Space`] that records how many distance
/// evaluations were performed.
///
/// The evaluation harness uses it to report the *number of distance
/// computations* alongside wall-clock time: for expensive distances (SQFD,
/// normalized Levenshtein) the distance count is the dominant cost and is
/// hardware-independent, which makes shape comparisons with the paper robust.
///
/// The counter is a [`permsearch_obs::Counter`] — the same relaxed-atomic
/// cell [`CountedSpace`] and the metrics registry use — so the wrapper is
/// `Sync` and the two accounting paths share one arithmetic. Unlike
/// `CountedSpace` it owns both the space and the counter (no sharing), for
/// one-shot single-harness tallies.
pub struct SpaceStats<S> {
    inner: S,
    count: Counter,
}

impl<S> SpaceStats<S> {
    /// Wrap `inner`, starting the counter at zero.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            count: Counter::new(),
        }
    }

    /// Number of distance evaluations since construction or the last
    /// [`reset`](Self::reset).
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Reset the evaluation counter to zero.
    pub fn reset(&self) {
        self.count.reset();
    }

    /// Consume the wrapper, returning the inner space.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Evaluate the wrapped distance and bump the counter without requiring
    /// the full `Space<P>` bound on `Self` (historical inherent-method
    /// entry point, kept for the single-threaded harness code).
    pub fn distance_counted<P: ?Sized>(&self, x: &P, y: &P) -> f32
    where
        S: Space<P>,
    {
        self.count.inc();
        self.inner.distance(x, y)
    }

    /// Batched companion of [`distance_counted`](Self::distance_counted):
    /// scores the block with the inner space's kernel and counts **one
    /// evaluation per point scored** (`xs.len()`), not one per kernel call.
    pub fn distance_block_counted<P: ?Sized>(&self, xs: &[&P], y: &P, out: &mut [f32])
    where
        S: Space<P>,
    {
        self.count.add(xs.len() as u64);
        self.inner.distance_block(xs, y, out)
    }
}

impl<P: ?Sized, S: Space<P>> Space<P> for SpaceStats<S> {
    fn distance(&self, x: &P, y: &P) -> f32 {
        self.count.inc();
        self.inner.distance(x, y)
    }
    fn distance_block(&self, xs: &[&P], y: &P, out: &mut [f32]) {
        // One count per point scored, not per kernel call.
        self.count.add(xs.len() as u64);
        self.inner.distance_block(xs, y, out)
    }
    fn supports_flat(&self) -> bool {
        self.inner.supports_flat()
    }
    fn distance_block_flat(&self, flat: &FlatAccess, ids: &[u32], y: &P, out: &mut [f32]) {
        // One count per row scored, not per kernel call.
        self.count.add(ids.len() as u64);
        self.inner.distance_block_flat(flat, ids, y, out)
    }
    fn supports_quantized(&self) -> bool {
        self.inner.supports_quantized()
    }
    fn distance_block_quantized(&self, quant: &QuantizedView, ids: &[u32], y: &P, out: &mut [f32]) {
        // One count per row scored, not per kernel call.
        self.count.add(ids.len() as u64);
        self.inner.distance_block_quantized(quant, ids, y, out)
    }
    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Abs;
    impl Space<f32> for Abs {
        fn distance(&self, x: &f32, y: &f32) -> f32 {
            (x - y).abs()
        }
        fn name(&self) -> &'static str {
            "abs"
        }
    }

    #[test]
    fn reference_impl_delegates() {
        let s = Abs;
        let r: &Abs = &s;
        assert_eq!(r.distance(&1.0, &4.0), 3.0);
        assert!(r.is_symmetric());
        assert_eq!(r.name(), "abs");
    }

    #[test]
    fn arc_impl_delegates() {
        let s = std::sync::Arc::new(Abs);
        assert_eq!(s.distance(&1.0, &4.0), 3.0);
        assert_eq!(s.name(), "abs");
    }

    #[test]
    fn default_distance_block_matches_scalar() {
        let s = Abs;
        let xs = [1.0f32, 4.0, -2.0, 0.5];
        let refs: Vec<&f32> = xs.iter().collect();
        let mut out = vec![0.0f32; 4];
        s.distance_block(&refs, &1.0, &mut out);
        for (x, d) in xs.iter().zip(&out) {
            assert_eq!(*d, s.distance(x, &1.0));
        }
    }

    #[test]
    fn counted_space_counts_scalar_and_batched_per_point() {
        let s = CountedSpace::new(Abs);
        let _ = s.distance(&0.0, &1.0);
        let xs = [1.0f32, 2.0, 3.0];
        let refs: Vec<&f32> = xs.iter().collect();
        let mut out = vec![0.0f32; 3];
        s.distance_block(&refs, &0.0, &mut out);
        assert_eq!(s.count(), 4, "3 batched points + 1 scalar");
        let clone = s.clone();
        let _ = clone.distance(&0.0, &1.0);
        assert_eq!(s.count(), 5, "clones share the counter");
        assert!(s.is_symmetric());
        assert_eq!(s.name(), "abs");
        assert_eq!(s.inner().distance(&0.0, &2.0), 2.0);
        s.reset();
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn stats_counts_batched_evaluations_per_point() {
        let s = SpaceStats::new(Abs);
        let xs = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        let refs: Vec<&f32> = xs.iter().collect();
        let mut out = vec![0.0f32; 5];
        s.distance_block_counted(&refs, &0.0, &mut out);
        assert_eq!(s.count(), 5, "one count per point scored");
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn score_all_and_score_ids_visit_in_order() {
        let data = Dataset::new((0..150).map(|i| i as f32).collect::<Vec<_>>());
        let mut dists = Vec::new();
        let mut seen = Vec::new();
        score_all(&Abs, &data, &2.0, &mut dists, |id, d| seen.push((id, d)));
        assert_eq!(seen.len(), 150);
        assert_eq!(seen[0], (0, 2.0));
        assert!(seen.windows(2).all(|w| w[0].0 + 1 == w[1].0));
        let ids = [5u32, 149, 0];
        let mut picked = Vec::new();
        score_ids(&Abs, &data, &2.0, &ids, &mut dists, |id, d| {
            picked.push((id, d))
        });
        assert_eq!(picked, vec![(5, 3.0), (149, 147.0), (0, 2.0)]);
    }

    #[test]
    fn stats_counts_evaluations() {
        let s = SpaceStats::new(Abs);
        assert_eq!(s.count(), 0);
        let _ = s.distance_counted(&0.0, &1.0);
        let _ = s.distance_counted(&2.0, &1.0);
        assert_eq!(s.count(), 2);
        s.reset();
        assert_eq!(s.count(), 0);
        let _ = s.into_inner();
    }
}
