//! Batched distance kernels over contiguous candidate blocks.
//!
//! Three families live here:
//!
//! * **Flat row-major kernels** (`*_flat`) — score `out.len()` rows stored
//!   back to back in one slice (`xs[i*dim..(i+1)*dim]` is row `i`) against a
//!   single query. One pass over contiguous memory with no per-row pointer
//!   chasing; this is the layout of the LSH projection matrices and mirrors
//!   the permutation-table scans in `permsearch_permutation`.
//! * **Id-addressed flat kernels** (`*_flat_ids`) — score the rows *named
//!   by an id list* straight out of a flat table: the gather-free refine
//!   path over a [`permsearch_core::FlatVectors`] arena. Consecutive id
//!   runs (exhaustive scans) collapse to one `chunks_exact` pass; scattered
//!   ids get a software prefetch of the next row. These back the
//!   [`distance_block_flat`](permsearch_core::Space::distance_block_flat)
//!   overrides of the dense spaces.
//! * **Block kernels** (`*_block`) — score a gathered block of point
//!   references; the fallback when points are not arena-backed. These back
//!   the [`distance_block`](permsearch_core::Space::distance_block)
//!   overrides of the dense spaces.
//!
//! **Accuracy policy:** every kernel performs, per row, exactly the same
//! floating-point operations in exactly the same order as the scalar
//! [`Space::distance`](permsearch_core::Space::distance) of the
//! corresponding space, so results are *bitwise identical* — not merely
//! close. (Interleaving rows never reorders the additions *within* a
//! row.) The `kernel_equivalence` proptest suite pins
//! this bit-for-bit, including empty rows, single-element rows, lengths that
//! are not a multiple of the 4-lane chunk, zeros and denormals. Any future
//! kernel that must deviate (e.g. FMA contraction) is required to document
//! its ≤ 1-ulp bound here and downgrade the affected suite assertions.
//!
//! **Symmetry caveat:** kernels follow the library's left-query convention
//! — rows are *data* points, the query is the second argument. For the
//! non-symmetric KL-divergence this matters: [`kl_flat`] computes
//! `KL(row ‖ query)` (the paper's left queries). There is no batched right
//! query kernel; wrap with `ReversedKl` and the scalar path, or swap the
//! roles explicitly.

use crate::dense::{cosine_row, l1_sum, squared_l2};
use crate::divergence::{js_row, kl_row};
use permsearch_core::QuantizedView;

/// Hint the prefetcher at the row starting at `idx` (no-op off x86_64 and
/// for out-of-range indices; purely a performance hint either way).
#[inline(always)]
fn prefetch_row(xs: &[f32], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    if idx < xs.len() {
        // SAFETY: `idx` is in bounds, and prefetch reads no memory — it
        // only primes the cache.
        unsafe {
            std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
                xs.as_ptr().add(idx).cast::<i8>(),
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (xs, idx);
    }
}

/// Whether `ids` is a consecutive ascending run (`base, base+1, ...`) — the
/// shape sequential scans produce, which lets the `*_flat_ids` kernels
/// degrade to one contiguous `chunks_exact` pass with zero per-row
/// addressing.
#[inline]
fn consecutive_run(ids: &[u32]) -> bool {
    ids.windows(2).all(|w| w[1] == w[0].wrapping_add(1))
}

/// Generate an id-addressed companion (`$name_ids`) of a flat kernel: rows
/// named by view-relative `ids` are read straight out of the row-major
/// table `xs` — no gather into a reference block — with a contiguous-run
/// fast path and software prefetch of the next row. Bitwise identical to
/// the scalar space per row (same shared row kernel).
macro_rules! flat_ids_kernel {
    ($(#[$doc:meta])* $name:ident, $row_kernel:expr) => {
        $(#[$doc])*
        pub fn $name(xs: &[f32], dim: usize, ids: &[u32], y: &[f32], out: &mut [f32]) {
            assert_eq!(ids.len(), out.len(), "ids/output length mismatch");
            assert_eq!(y.len(), dim, "query dimension mismatch");
            if dim == 0 {
                out.fill(0.0);
                return;
            }
            let row_of = |id: u32| {
                let i = id as usize * dim;
                &xs[i..i + dim]
            };
            if consecutive_run(ids) && !ids.is_empty() {
                let start = ids[0] as usize * dim;
                for (row, o) in xs[start..start + ids.len() * dim]
                    .chunks_exact(dim)
                    .zip(out.iter_mut())
                {
                    *o = $row_kernel(row, y);
                }
                return;
            }
            for (i, (&id, o)) in ids.iter().zip(out.iter_mut()).enumerate() {
                if let Some(&next) = ids.get(i + 1) {
                    prefetch_row(xs, next as usize * dim);
                }
                *o = $row_kernel(row_of(id), y);
            }
        }
    };
}

flat_ids_kernel!(
    /// Euclidean distances of the arena rows named by `ids` to `y`.
    /// Bitwise identical to `L2::distance` per row.
    l2_flat_ids,
    |row, y| squared_l2(row, y).sqrt()
);

flat_ids_kernel!(
    /// Manhattan distances of the arena rows named by `ids` to `y`.
    /// Bitwise identical to `L1::distance` per row.
    l1_flat_ids,
    l1_sum
);

flat_ids_kernel!(
    /// Cosine distances of the arena rows named by `ids` to `y`. Bitwise
    /// identical to [`crate::dense::DenseCosine`]'s scalar distance.
    cosine_flat_ids,
    cosine_row
);

flat_ids_kernel!(
    /// Dot products of the arena rows named by `ids` with `y`, accumulated
    /// strictly left to right (matching [`dot_flat`]).
    dot_flat_ids,
    |row: &[f32], y: &[f32]| {
        let mut acc = 0.0f32;
        for (&a, &b) in row.iter().zip(y) {
            acc += a * b;
        }
        acc
    }
);

/// KL-divergences `KL(row ‖ query)` of the histogram rows named by `ids`
/// out of the parallel `values`/`logs` tables (see [`kl_flat`] for the
/// layout and the left-query symmetry caveat). Bitwise identical to
/// `KlDivergence::distance` per row.
///
/// Note: no production path feeds this yet — `TopicHistogram` datasets
/// carry no arena, so today's divergence scoring gathers. The kernel (and
/// [`js_flat_ids`]) completes the id-addressed family ahead of a
/// flat histogram store and is equivalence-pinned alongside the rest in
/// `kernel_equivalence`.
pub fn kl_flat_ids(
    values: &[f32],
    logs: &[f32],
    dim: usize,
    ids: &[u32],
    q_logs: &[f32],
    out: &mut [f32],
) {
    assert_eq!(ids.len(), out.len(), "ids/output length mismatch");
    assert_eq!(values.len(), logs.len(), "values/logs tables diverge");
    assert_eq!(q_logs.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for (i, (&id, o)) in ids.iter().zip(out.iter_mut()).enumerate() {
        if let Some(&next) = ids.get(i + 1) {
            prefetch_row(values, next as usize * dim);
            prefetch_row(logs, next as usize * dim);
        }
        let r = id as usize * dim;
        *o = kl_row(&values[r..r + dim], &logs[r..r + dim], q_logs);
    }
}

/// JS-divergences of the histogram rows named by `ids` to the query
/// histogram `(q_values, q_logs)`; see [`js_flat`]. Bitwise identical to
/// `JsDivergence::distance` per row.
pub fn js_flat_ids(
    values: &[f32],
    logs: &[f32],
    dim: usize,
    ids: &[u32],
    q_values: &[f32],
    q_logs: &[f32],
    out: &mut [f32],
) {
    assert_eq!(ids.len(), out.len(), "ids/output length mismatch");
    assert_eq!(values.len(), logs.len(), "values/logs tables diverge");
    assert_eq!(q_values.len(), dim, "query dimension mismatch");
    assert_eq!(q_logs.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for (i, (&id, o)) in ids.iter().zip(out.iter_mut()).enumerate() {
        if let Some(&next) = ids.get(i + 1) {
            prefetch_row(values, next as usize * dim);
            prefetch_row(logs, next as usize * dim);
        }
        let r = id as usize * dim;
        *o = js_row(&values[r..r + dim], &logs[r..r + dim], q_values, q_logs);
    }
}

/// Euclidean distances of `out.len()` flat rows to `y`.
///
/// `xs.len()` must equal `out.len() * dim` and `y.len()` must equal `dim`.
/// Bitwise identical to `L2::distance` per row.
pub fn l2_flat(xs: &[f32], dim: usize, y: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len() * dim, "flat table size mismatch");
    assert_eq!(y.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for (row, o) in xs.chunks_exact(dim).zip(out.iter_mut()) {
        *o = squared_l2(row, y).sqrt();
    }
}

/// Manhattan distances of `out.len()` flat rows to `y`. Bitwise identical
/// to `L1::distance` per row.
pub fn l1_flat(xs: &[f32], dim: usize, y: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len() * dim, "flat table size mismatch");
    assert_eq!(y.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for (row, o) in xs.chunks_exact(dim).zip(out.iter_mut()) {
        *o = l1_sum(row, y);
    }
}

/// Dot products of `out.len()` flat rows with `y`, accumulated strictly
/// left to right (the order the LSH hash projections have always used, so
/// swapping the projection loop for this kernel changes no bucket key).
pub fn dot_flat(xs: &[f32], dim: usize, y: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len() * dim, "flat table size mismatch");
    assert_eq!(y.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for (row, o) in xs.chunks_exact(dim).zip(out.iter_mut()) {
        let mut acc = 0.0f32;
        for (&a, &b) in row.iter().zip(y) {
            acc += a * b;
        }
        *o = acc;
    }
}

/// Cosine distances of `out.len()` flat rows to `y`. Bitwise identical to
/// [`crate::dense::DenseCosine`]'s scalar distance per row.
pub fn cosine_flat(xs: &[f32], dim: usize, y: &[f32], out: &mut [f32]) {
    assert_eq!(xs.len(), out.len() * dim, "flat table size mismatch");
    assert_eq!(y.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for (row, o) in xs.chunks_exact(dim).zip(out.iter_mut()) {
        *o = crate::dense::cosine_row(row, y);
    }
}

/// KL-divergences `KL(row ‖ query)` of `out.len()` flat histogram rows.
///
/// `values` and `logs` are parallel row-major tables (`logs[i] =
/// ln(values[i])`, as [`crate::TopicHistogram`] precomputes); `q_logs` is
/// the query's log table. Left-query convention — see the module docs for
/// the symmetry caveat. Bitwise identical to `KlDivergence::distance`.
pub fn kl_flat(values: &[f32], logs: &[f32], dim: usize, q_logs: &[f32], out: &mut [f32]) {
    assert_eq!(values.len(), out.len() * dim, "flat table size mismatch");
    assert_eq!(values.len(), logs.len(), "values/logs tables diverge");
    assert_eq!(q_logs.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for ((vrow, lrow), o) in values
        .chunks_exact(dim)
        .zip(logs.chunks_exact(dim))
        .zip(out.iter_mut())
    {
        *o = crate::divergence::kl_row(vrow, lrow, q_logs);
    }
}

/// JS-divergences of `out.len()` flat histogram rows to the query
/// histogram `(q_values, q_logs)`. Bitwise identical to
/// `JsDivergence::distance` per row.
pub fn js_flat(
    values: &[f32],
    logs: &[f32],
    dim: usize,
    q_values: &[f32],
    q_logs: &[f32],
    out: &mut [f32],
) {
    assert_eq!(values.len(), out.len() * dim, "flat table size mismatch");
    assert_eq!(values.len(), logs.len(), "values/logs tables diverge");
    assert_eq!(q_values.len(), dim, "query dimension mismatch");
    assert_eq!(q_logs.len(), dim, "query dimension mismatch");
    if dim == 0 {
        out.fill(0.0);
        return;
    }
    for ((vrow, lrow), o) in values
        .chunks_exact(dim)
        .zip(logs.chunks_exact(dim))
        .zip(out.iter_mut())
    {
        *o = crate::divergence::js_row(vrow, lrow, q_values, q_logs);
    }
}

/// Euclidean distances of a gathered reference block, one shared-kernel
/// row at a time. Bitwise identical to `L2::distance` per row.
///
/// (An interleaved two-rows-per-iteration variant was measured ~40% slower
/// here: the extra accumulator chains defeat the auto-vectorizer. The win
/// of the block API is the shared, bounds-check-free row kernel plus the
/// amortized call overhead, not manual interleaving.)
pub fn l2_block(xs: &[&[f32]], y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len(), "block/output length mismatch");
    for (x, o) in xs.iter().zip(out.iter_mut()) {
        *o = squared_l2(x, y).sqrt();
    }
}

/// Manhattan distances of a gathered reference block. Bitwise identical to
/// `L1::distance` per row.
pub fn l1_block(xs: &[&[f32]], y: &[f32], out: &mut [f32]) {
    debug_assert_eq!(xs.len(), out.len(), "block/output length mismatch");
    for (x, o) in xs.iter().zip(out.iter_mut()) {
        *o = l1_sum(x, y);
    }
}

// ---------------------------------------------------------------------------
// Asymmetric SQ8 kernel: quantized data rows against a full-precision
// query. Dequantization (`v̂ = min[d] + scale[d]·q`) is fused into the
// accumulation — no dequantized row buffer exists. It is *approximate* by
// design (the only kernel in this module exempt from the bitwise policy).
// No search or refine path calls it; it is kept for the benchmark's kernel
// replay until that replay drops it.
// ---------------------------------------------------------------------------

/// Approximate Euclidean distances of the SQ8 rows named by `ids` to the
/// full-precision query `y`.
pub fn l2_quant_ids(quant: &QuantizedView, ids: &[u32], y: &[f32], out: &mut [f32]) {
    assert_eq!(ids.len(), out.len(), "ids/output length mismatch");
    assert_eq!(y.len(), quant.dim(), "query dimension mismatch");
    let mins = quant.mins();
    let scales = quant.scales();
    for (&id, o) in ids.iter().zip(out.iter_mut()) {
        let row = quant.row(id);
        let mut acc = 0.0f32;
        for d in 0..row.len() {
            let v = mins[d] + scales[d] * f32::from(row[d]);
            let diff = v - y[d];
            acc += diff * diff;
        }
        *o = acc.sqrt();
    }
}

/// Flatten equal-length dense vectors into one row-major slice (a helper
/// for feeding the `*_flat` kernels from `Vec<Vec<f32>>` storage; callers
/// that can keep their data flat should).
pub fn flatten_rows(rows: &[Vec<f32>]) -> Vec<f32> {
    let dim = rows.first().map_or(0, Vec::len);
    let mut flat = Vec::with_capacity(rows.len() * dim);
    for r in rows {
        assert_eq!(r.len(), dim, "ragged rows cannot be flattened");
        flat.extend_from_slice(r);
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{DenseCosine, L1, L2};
    use permsearch_core::Space;

    fn rows() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, -2.0, 3.5, 0.0, 7.25],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![-1.5, 4.0, 2.0, -3.0, 0.5],
        ]
    }

    #[test]
    fn flat_kernels_match_scalar_spaces_bitwise() {
        let rows = rows();
        let flat = flatten_rows(&rows);
        let q = vec![0.5f32, 1.0, -2.0, 3.0, 0.25];
        let mut out = vec![0.0f32; rows.len()];
        l2_flat(&flat, 5, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            assert_eq!(d.to_bits(), L2.distance(r, &q).to_bits());
        }
        l1_flat(&flat, 5, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            assert_eq!(d.to_bits(), L1.distance(r, &q).to_bits());
        }
        cosine_flat(&flat, 5, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            assert_eq!(d.to_bits(), DenseCosine.distance(r, &q).to_bits());
        }
    }

    #[test]
    fn dot_flat_matches_sequential_accumulation() {
        let rows = rows();
        let flat = flatten_rows(&rows);
        let q = vec![2.0f32, -1.0, 0.5, 4.0, 1.0];
        let mut out = vec![0.0f32; 3];
        dot_flat(&flat, 5, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            let mut acc = 0.0f32;
            for i in 0..5 {
                acc += r[i] * q[i];
            }
            assert_eq!(d.to_bits(), acc.to_bits());
        }
    }

    #[test]
    fn block_kernels_handle_odd_lengths_and_empty() {
        let rows = rows();
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let q = vec![0.1f32, 0.2, 0.3, 0.4, 0.5];
        let mut out = vec![0.0f32; 3];
        l2_block(&refs, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            assert_eq!(d.to_bits(), L2.distance(r, &q).to_bits());
        }
        l1_block(&refs, &q, &mut out);
        for (r, d) in rows.iter().zip(&out) {
            assert_eq!(d.to_bits(), L1.distance(r, &q).to_bits());
        }
        let empty: [&[f32]; 0] = [];
        l2_block(&empty, &q, &mut []);
        l1_block(&empty, &q, &mut []);
    }

    #[test]
    fn zero_dim_rows_score_zero() {
        let mut out = vec![1.0f32; 4];
        l2_flat(&[], 0, &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
        let mut out = vec![1.0f32; 2];
        dot_flat(&[], 0, &[], &mut out);
        assert_eq!(out, vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn flatten_rejects_ragged_rows() {
        let _ = flatten_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
