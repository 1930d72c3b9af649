//! Permutation induction and permutation distances (paper §2.1).
//!
//! For a point `x` and pivots `π_0..π_{m-1}`, the *permutation induced by
//! `x`* is the vector whose `i`-th element is the ordinal position (rank) of
//! pivot `π_i` when all pivots are sorted by increasing distance from `x`.
//! Ties are resolved in favor of the pivot with the smallest index, as in
//! the paper. Ranks here are **0-based**; the paper's worked example uses
//! 1-based ranks, so its permutation `(1, 2, 3, 4)` is our `[0, 1, 2, 3]`.
//!
//! Two rank-correlation distances compare permutations:
//!
//! * Footrule: `Σ |x_i − y_i|` (L1 on rank vectors);
//! * Spearman's rho: `Σ (x_i − y_i)^2` (squared L2 on rank vectors); the
//!   paper (and Chávez et al.) find it slightly more effective, which our
//!   `rho_vs_footrule` ablation bench confirms.

use std::thread;

use permsearch_core::{Dataset, Point, Space};

/// Compute the permutation (rank vector) induced by `point`.
///
/// `ranks[i]` is the 0-based rank of pivot `i` among all pivots ordered by
/// increasing distance from `point` (left-query convention: the pivot is
/// the data-side argument). `O(m log m)` per point.
pub fn compute_ranks<P: Point, S: Space<P::Ref>>(
    space: &S,
    pivots: &[P],
    point: &P::Ref,
) -> Vec<u32> {
    let mut dists = Vec::new();
    let mut order = Vec::new();
    let mut ranks = Vec::new();
    compute_ranks_into(space, pivots, point, &mut dists, &mut order, &mut ranks);
    ranks
}

/// Scratch-reusing form of [`compute_ranks`]: pivot distances are evaluated
/// with the batched [`Space::distance_block`] kernel in
/// [`permsearch_core::BATCH_WIDTH`] blocks (`dists` is the reused kernel
/// output buffer), the ordering buffer and rank vector are reused, and the
/// result lands in `ranks`. Distances, tie-breaks and ranks are identical
/// to the allocating form.
pub fn compute_ranks_into<P: Point, S: Space<P::Ref>>(
    space: &S,
    pivots: &[P],
    point: &P::Ref,
    dists: &mut Vec<f32>,
    order: &mut Vec<(f32, u32)>,
    ranks: &mut Vec<u32>,
) {
    order.clear();
    // Pivots are the data-side argument (left-query convention).
    permsearch_core::score_slice(space, pivots, point, dists, |pivot, d| {
        order.push((d, pivot));
    });
    // Sort by distance, breaking ties by the smaller pivot index.
    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranks.clear();
    ranks.resize(pivots.len(), 0);
    for (rank, &(_, pivot)) in order.iter().enumerate() {
        ranks[pivot as usize] = rank as u32;
    }
}

/// Invert a rank vector into pivot order: `order[r]` is the id of the pivot
/// at rank `r` (i.e. the `r`-th closest pivot).
pub fn ranks_to_order(ranks: &[u32]) -> Vec<u32> {
    let mut order = vec![0u32; ranks.len()];
    for (pivot, &r) in ranks.iter().enumerate() {
        order[r as usize] = pivot as u32;
    }
    order
}

/// The Footrule distance `Σ |x_i − y_i|` between two equal-length rank
/// vectors.
#[inline]
pub fn footrule(x: &[u32], y: &[u32]) -> u64 {
    debug_assert_eq!(x.len(), y.len());
    let mut sum = 0u64;
    for (a, b) in x.iter().zip(y) {
        sum += u64::from(a.abs_diff(*b));
    }
    sum
}

/// Spearman's rho distance `Σ (x_i − y_i)^2` between two equal-length rank
/// vectors (the paper's default permutation distance).
#[inline]
pub fn spearman_rho(x: &[u32], y: &[u32]) -> u64 {
    debug_assert_eq!(x.len(), y.len());
    let mut sum = 0u64;
    for (a, b) in x.iter().zip(y) {
        let d = u64::from(a.abs_diff(*b));
        sum += d * d;
    }
    sum
}

/// Widest permutation length for which the 4-lane `u32` scan kernels
/// cannot overflow. Per lane the rho sum is at most `(m/4) * (m-1)^2`; at
/// `m = 2048` that is `512 * 2047^2 = 2_145_387_008`, which fits `u32`
/// with only ~2x headroom — `m = 2580` is the true ceiling, so do NOT
/// raise this past it. The paper's largest pivot set is 2048, so the
/// narrow kernels cover every real configuration; wider tables fall back
/// to the `u64` rows.
const LANE_SAFE_M: usize = 2048;

/// Lane-split rho row kernel: four independent `u32` accumulators widened
/// to `u64` once per row. Integer arithmetic is exact and order-free, so
/// the result is **identical** to [`spearman_rho`] — the narrower lanes
/// exist purely so the table scan vectorizes.
#[inline]
fn rho_row_lanes(x: &[u32], y: &[u32]) -> u64 {
    let mut acc = [0u32; 4];
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    for (a, b) in (&mut cx).zip(&mut cy) {
        for lane in 0..4 {
            let d = a[lane].abs_diff(b[lane]);
            acc[lane] += d * d;
        }
    }
    let mut sum: u64 = acc.iter().map(|&v| u64::from(v)).sum();
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        let d = u64::from(a.abs_diff(*b));
        sum += d * d;
    }
    sum
}

/// Lane-split Footrule row kernel; identical values to [`footrule`], same
/// overflow bound reasoning as [`rho_row_lanes`] (terms are at most
/// `m - 1`, so the margin is even wider).
#[inline]
fn footrule_row_lanes(x: &[u32], y: &[u32]) -> u64 {
    let mut acc = [0u32; 4];
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact(4);
    for (a, b) in (&mut cx).zip(&mut cy) {
        for lane in 0..4 {
            acc[lane] += a[lane].abs_diff(b[lane]);
        }
    }
    let mut sum: u64 = acc.iter().map(|&v| u64::from(v)).sum();
    for (a, b) in cx.remainder().iter().zip(cy.remainder()) {
        sum += u64::from(a.abs_diff(*b));
    }
    sum
}

/// All permutations of a dataset, stored contiguously (`n × m` flat array)
/// for cache-friendly brute-force scanning.
#[derive(Debug, Clone)]
pub struct PermutationTable {
    pub(crate) m: usize,
    pub(crate) ranks: Vec<u32>,
}

impl PermutationTable {
    /// Compute the permutation of every data point with respect to
    /// `pivots`, using `threads` worker threads (the paper indexes with
    /// four).
    pub fn build<P, S>(data: &Dataset<P>, space: &S, pivots: &[P], threads: usize) -> Self
    where
        P: Point + Sync,
        S: Space<P::Ref> + Sync,
    {
        let m = pivots.len();
        assert!(m > 0, "at least one pivot required");
        let n = data.len();
        let threads = threads.max(1).min(n.max(1));
        let mut ranks = vec![0u32; n * m];

        if n > 0 {
            let chunk = n.div_ceil(threads);
            thread::scope(|s| {
                for (t, out) in ranks.chunks_mut(chunk * m).enumerate() {
                    let start = (t * chunk) as u32;
                    s.spawn(move || {
                        for (row, id) in out.chunks_mut(m).zip(start..) {
                            row.copy_from_slice(&compute_ranks(space, pivots, data.get(id)));
                        }
                    });
                }
            });
        }
        Self { m, ranks }
    }

    /// Number of pivots (permutation length).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of stored permutations.
    pub fn len(&self) -> usize {
        self.ranks.len() / self.m
    }

    /// True when no permutations are stored.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// The rank vector of data point `id`.
    pub fn ranks(&self, id: u32) -> &[u32] {
        let i = id as usize * self.m;
        &self.ranks[i..i + self.m]
    }

    /// Batched filtering scan: Spearman's rho of **every** stored
    /// permutation against `q_ranks`, written as `(distance, id)` pairs in
    /// increasing id order. The table is one flat row-major array, so the
    /// scan is a single pass over contiguous memory — no per-id slice
    /// arithmetic — and `out` is reused across queries. Values and order
    /// are identical to calling [`spearman_rho`] on [`ranks`](Self::ranks)
    /// per id.
    pub fn scan_rho_into(&self, q_ranks: &[u32], out: &mut Vec<(u64, u32)>) {
        assert_eq!(q_ranks.len(), self.m, "query permutation length mismatch");
        out.clear();
        if self.m <= LANE_SAFE_M {
            out.extend(
                self.ranks
                    .chunks_exact(self.m)
                    .enumerate()
                    .map(|(id, row)| (rho_row_lanes(row, q_ranks), id as u32)),
            );
        } else {
            out.extend(
                self.ranks
                    .chunks_exact(self.m)
                    .enumerate()
                    .map(|(id, row)| (spearman_rho(row, q_ranks), id as u32)),
            );
        }
    }

    /// Batched filtering scan under the Footrule; see
    /// [`scan_rho_into`](Self::scan_rho_into).
    pub fn scan_footrule_into(&self, q_ranks: &[u32], out: &mut Vec<(u64, u32)>) {
        assert_eq!(q_ranks.len(), self.m, "query permutation length mismatch");
        out.clear();
        if self.m <= LANE_SAFE_M {
            out.extend(
                self.ranks
                    .chunks_exact(self.m)
                    .enumerate()
                    .map(|(id, row)| (footrule_row_lanes(row, q_ranks), id as u32)),
            );
        } else {
            out.extend(
                self.ranks
                    .chunks_exact(self.m)
                    .enumerate()
                    .map(|(id, row)| (footrule(row, q_ranks), id as u32)),
            );
        }
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.ranks.len() * 4
    }
}

/// Spearman-rho permutation space for indexing permutations with metric
/// structures (Figueroa & Fredriksson, paper §2.3).
///
/// Returns `sqrt(Σ (x_i − y_i)^2)`, i.e. `L2` on rank vectors: Spearman's
/// rho is a monotonic transformation (squaring) of this metric, so nearest
/// neighbors under the metric coincide with nearest neighbors under rho —
/// and a VP-tree over it may prune exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpearmanRhoSpace;

impl Space<Vec<u32>> for SpearmanRhoSpace {
    fn distance(&self, x: &Vec<u32>, y: &Vec<u32>) -> f32 {
        (spearman_rho(x, y) as f32).sqrt()
    }
    fn name(&self) -> &'static str {
        "spearman-rho(L2)"
    }
}

/// Footrule permutation space (`L1` on rank vectors), provided for the
/// rho-vs-footrule ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct FootruleSpace;

impl Space<Vec<u32>> for FootruleSpace {
    fn distance(&self, x: &Vec<u32>, y: &Vec<u32>) -> f32 {
        footrule(x, y) as f32
    }
    fn name(&self) -> &'static str {
        "footrule(L1)"
    }
}

/// Backwards-compatible alias constructor for [`FootruleSpace`].
pub fn spearman_footrule_space() -> FootruleSpace {
    FootruleSpace
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_spaces::L2;

    /// The paper's Figure 1 layout: four pivots and points a, b, c, d in the
    /// plane, chosen so the induced permutations match the worked example
    /// (a → (1,2,3,4), b → (1,2,4,3), c → (2,3,1,4), d → (3,2,4,1) in the
    /// paper's 1-based notation).
    fn figure1() -> (Vec<Vec<f32>>, [Vec<f32>; 4]) {
        let pivots = vec![
            vec![0.0, 0.0],  // π1
            vec![3.0, 0.0],  // π2
            vec![-2.5, 2.0], // π3
            vec![2.8, 3.5],  // π4
        ];
        let a = vec![0.5, 0.5];
        let b = vec![1.2, 0.3];
        let c = vec![-1.2, 1.4];
        let d = vec![2.9, 2.0];
        (pivots, [a, b, c, d])
    }

    #[test]
    fn paper_example_permutations() {
        let (pivots, [a, b, c, d]) = figure1();
        // 0-based equivalents of the paper's permutations.
        assert_eq!(compute_ranks(&L2, &pivots, &a), vec![0, 1, 2, 3]);
        assert_eq!(compute_ranks(&L2, &pivots, &b), vec![0, 1, 3, 2]);
        assert_eq!(compute_ranks(&L2, &pivots, &c), vec![1, 2, 0, 3]);
        assert_eq!(compute_ranks(&L2, &pivots, &d), vec![2, 1, 3, 0]);
    }

    #[test]
    fn paper_example_footrule_values() {
        let (pivots, [a, b, c, d]) = figure1();
        let pa = compute_ranks(&L2, &pivots, &a);
        let pb = compute_ranks(&L2, &pivots, &b);
        let pc = compute_ranks(&L2, &pivots, &c);
        let pd = compute_ranks(&L2, &pivots, &d);
        // Paper §2.1: Footrule(a,b) = 2, Footrule(a,c) = 4, Footrule(a,d) = 6.
        assert_eq!(footrule(&pa, &pb), 2);
        assert_eq!(footrule(&pa, &pc), 4);
        assert_eq!(footrule(&pa, &pd), 6);
    }

    #[test]
    fn ranks_are_a_permutation_of_0_to_m() {
        let (pivots, [a, ..]) = figure1();
        let mut r = compute_ranks(&L2, &pivots, &a);
        r.sort_unstable();
        assert_eq!(r, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ranks_to_order_inverts() {
        let ranks = vec![2u32, 0, 3, 1];
        let order = ranks_to_order(&ranks);
        assert_eq!(order, vec![1, 3, 0, 2]);
        for (pivot, &r) in ranks.iter().enumerate() {
            assert_eq!(order[r as usize] as usize, pivot);
        }
    }

    #[test]
    fn tie_break_prefers_smaller_pivot_index() {
        // Two pivots at identical locations: equal distance to any point.
        let pivots = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        let ranks = compute_ranks(&L2, &pivots, &[0.9, 0.9]);
        assert!(ranks[0] < ranks[1], "smaller index wins ties: {ranks:?}");
    }

    #[test]
    fn footrule_and_rho_basics() {
        let x = vec![0u32, 1, 2, 3];
        let y = vec![3u32, 2, 1, 0];
        assert_eq!(footrule(&x, &x), 0);
        assert_eq!(spearman_rho(&x, &x), 0);
        assert_eq!(footrule(&x, &y), 3 + 1 + 1 + 3);
        assert_eq!(spearman_rho(&x, &y), 9 + 1 + 1 + 9);
    }

    #[test]
    fn table_matches_per_point_computation() {
        let (pivots, pts) = figure1();
        let data = Dataset::new(pts.to_vec());
        for threads in [1usize, 2, 4, 8] {
            let table = PermutationTable::build(&data, &L2, &pivots, threads);
            assert_eq!(table.len(), 4);
            assert_eq!(table.m(), 4);
            for (id, p) in data.iter() {
                assert_eq!(
                    table.ranks(id),
                    compute_ranks(&L2, &pivots, p).as_slice(),
                    "mismatch at id {id} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn empty_dataset_table() {
        let data: Dataset<Vec<f32>> = Dataset::default();
        let pivots = vec![vec![0.0f32, 0.0]];
        let t = PermutationTable::build(&data, &L2, &pivots, 4);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.size_bytes(), 0);
    }

    #[test]
    fn permutation_spaces_wrap_distances() {
        let x = vec![0u32, 1, 2];
        let y = vec![2u32, 1, 0];
        assert_eq!(SpearmanRhoSpace.distance(&x, &y), (8.0f32).sqrt());
        assert_eq!(FootruleSpace.distance(&x, &y), 4.0);
        assert_eq!(spearman_footrule_space().distance(&x, &y), 4.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn rank_vec(m: usize) -> impl Strategy<Value = Vec<u32>> {
        Just((0..m as u32).collect::<Vec<u32>>()).prop_shuffle()
    }

    proptest! {
        #[test]
        fn footrule_is_metric_on_permutations(
            x in rank_vec(16),
            y in rank_vec(16),
            z in rank_vec(16),
        ) {
            prop_assert_eq!(footrule(&x, &y), footrule(&y, &x));
            prop_assert!(footrule(&x, &y) <= footrule(&x, &z) + footrule(&z, &y));
            prop_assert_eq!(footrule(&x, &x), 0);
        }

        #[test]
        fn lane_kernels_equal_reference_rows(x in rank_vec(23), y in rank_vec(23)) {
            // The scan kernels must produce the exact reference values —
            // integer lanes reassociate but never approximate.
            prop_assert_eq!(rho_row_lanes(&x, &y), spearman_rho(&x, &y));
            prop_assert_eq!(footrule_row_lanes(&x, &y), footrule(&x, &y));
        }

        #[test]
        fn rho_vs_footrule_cauchy_schwarz(x in rank_vec(16), y in rank_vec(16)) {
            // footrule^2 <= m * rho (Cauchy–Schwarz), and footrule >= sqrt(rho).
            let f = footrule(&x, &y);
            let r = spearman_rho(&x, &y);
            prop_assert!(f * f <= 16 * r);
            prop_assert!(f as f64 >= (r as f64).sqrt() - 1e-9);
        }

        #[test]
        fn spearman_sqrt_triangle(x in rank_vec(12), y in rank_vec(12), z in rank_vec(12)) {
            // sqrt(rho) is the L2 metric on rank vectors.
            let xy = (spearman_rho(&x, &y) as f64).sqrt();
            let xz = (spearman_rho(&x, &z) as f64).sqrt();
            let zy = (spearman_rho(&z, &y) as f64).sqrt();
            prop_assert!(xy <= xz + zy + 1e-9);
        }
    }
}
