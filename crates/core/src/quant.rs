//! The SQ8 scalar-quantized tier: [`QuantizedVectors`] and the shared
//! sub-range [`QuantizedView`].
//!
//! Quantizing each dimension to one byte with a per-dim affine map makes
//! the rows 4x smaller than the `f32` arena. The tier is storage only,
//! built by [`Dataset::quantize`](crate::Dataset::quantize) and persisted
//! by snapshots (v3 tag 2). No search or refine path reads it: its scalar
//! kernel scans a row about 3x slower than the exact `f32` kernel, so a
//! quantized pre-filter costs more than the exact scan it would save.
//!
//! **Scheme (per-dim affine, SQ8):** for dimension `d`, over all rows,
//! `min[d]` and `max[d]` are recorded, `scale[d] = (max[d] − min[d]) / 255`,
//! and a value `v` encodes as `q = round((v − min[d]) / scale[d])` clamped
//! to `0..=255` (constant dimensions get `scale = 0` and encode as 0). An
//! asymmetric kernel dequantizes on the fly — `v̂ = min[d] + scale[d]·q` —
//! against the *full-precision* query, so no dequantized row buffer ever
//! exists. Per-row dequantized L2 norms are precomputed at quantization
//! time.
//!
//! Like [`FlatAccess`](crate::FlatAccess), a [`QuantizedView`] is an `Arc`
//! plus a row range: the sharded engine hands every shard its contiguous
//! sub-range of the one parent code block, no byte copies.

use std::sync::Arc;

/// A row-major block of SQ8-encoded dense vectors plus the per-dim affine
/// parameters and per-row dequantized norms.
#[derive(Clone)]
pub struct QuantizedVectors {
    /// Per-dim minimum (the affine offset), `dim` values.
    mins: Vec<f32>,
    /// Per-dim step size `(max − min) / 255`; `0.0` for constant dims.
    scales: Vec<f32>,
    /// Row-major codes, `rows * dim` bytes.
    codes: Vec<u8>,
    /// Per-row L2 norm of the *dequantized* row. Part of the snapshot
    /// tag-2 layout; no kernel reads it.
    norms: Vec<f32>,
    dim: usize,
    rows: usize,
}

impl QuantizedVectors {
    /// Quantize a row-major `f32` block of `rows` rows of `dim` values.
    pub fn from_flat(values: &[f32], dim: usize, rows: usize) -> Self {
        assert_eq!(
            values.len(),
            rows.checked_mul(dim).expect("block size overflows usize"),
            "flat buffer length does not match rows x dim"
        );
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for row in values
            .chunks_exact(dim.max(1))
            .take(if dim == 0 { 0 } else { rows })
        {
            for (d, &v) in row.iter().enumerate() {
                if v < mins[d] {
                    mins[d] = v;
                }
                if v > maxs[d] {
                    maxs[d] = v;
                }
            }
        }
        if rows == 0 {
            mins.iter_mut().for_each(|m| *m = 0.0);
            maxs.iter_mut().for_each(|m| *m = 0.0);
        }
        let scales: Vec<f32> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        let mut codes = vec![0u8; rows * dim];
        let mut norms = vec![0.0f32; rows];
        for (i, row) in values.chunks_exact(dim.max(1)).take(rows).enumerate() {
            if dim == 0 {
                break;
            }
            let mut norm_sq = 0.0f32;
            let out = &mut codes[i * dim..(i + 1) * dim];
            for (d, &v) in row.iter().enumerate() {
                let q = if scales[d] > 0.0 {
                    ((v - mins[d]) / scales[d]).round().clamp(0.0, 255.0) as u8
                } else {
                    0
                };
                out[d] = q;
                let deq = mins[d] + scales[d] * f32::from(q);
                norm_sq += deq * deq;
            }
            norms[i] = norm_sq.sqrt();
        }
        Self {
            mins,
            scales,
            codes,
            norms,
            dim,
            rows,
        }
    }

    /// Reassemble a block from its stored parts (the snapshot restore
    /// path). Returns `None` when the part lengths are inconsistent with
    /// `rows` and `dim` — the caller converts that into a typed
    /// corruption error instead of panicking on bad bytes.
    pub fn from_parts(
        mins: Vec<f32>,
        scales: Vec<f32>,
        norms: Vec<f32>,
        codes: Vec<u8>,
        dim: usize,
        rows: usize,
    ) -> Option<Self> {
        let total = rows.checked_mul(dim)?;
        if mins.len() != dim || scales.len() != dim || norms.len() != rows || codes.len() != total {
            return None;
        }
        Some(Self {
            mins,
            scales,
            codes,
            norms,
            dim,
            rows,
        })
    }

    /// Row length (vector dimensionality).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Per-dim affine offsets.
    #[inline]
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-dim affine step sizes.
    #[inline]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Per-row dequantized L2 norms.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// The whole code block, row-major.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Row `id`'s codes.
    #[inline]
    pub fn row(&self, id: u32) -> &[u8] {
        let i = id as usize * self.dim;
        &self.codes[i..i + self.dim]
    }

    /// Dequantize one code of dimension `d` — the exact arithmetic the
    /// asymmetric kernels use.
    #[inline]
    pub fn dequant(&self, d: usize, q: u8) -> f32 {
        self.mins[d] + self.scales[d] * f32::from(q)
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.codes.len()
            + (self.mins.len() + self.scales.len() + self.norms.len()) * std::mem::size_of::<f32>()
    }
}

impl std::fmt::Debug for QuantizedVectors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedVectors")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .finish()
    }
}

/// A shared, sub-range view into a [`QuantizedVectors`] block, mirroring
/// [`FlatAccess`](crate::FlatAccess): cheap to clone, cheap to slice, row
/// ids view-relative.
#[derive(Clone)]
pub struct QuantizedView {
    quant: Arc<QuantizedVectors>,
    start: usize,
    len: usize,
}

impl QuantizedView {
    /// View over a whole block.
    pub fn new(quant: QuantizedVectors) -> Self {
        Self::from_arc(Arc::new(quant))
    }

    /// View over a whole shared block.
    pub fn from_arc(quant: Arc<QuantizedVectors>) -> Self {
        let len = quant.len();
        Self {
            quant,
            start: 0,
            len,
        }
    }

    /// A sub-view of `len` rows starting at view-relative row `start`,
    /// sharing the same block.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.len,
            "sub-view {start}..{} outside a view of {} rows",
            start + len,
            self.len
        );
        Self {
            quant: Arc::clone(&self.quant),
            start: self.start + start,
            len,
        }
    }

    /// Row length (vector dimensionality).
    #[inline]
    pub fn dim(&self) -> usize {
        self.quant.dim()
    }

    /// Number of rows in this view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// View-relative row `id`'s codes (hard bound check, like
    /// [`FlatAccess::row`](crate::FlatAccess::row)).
    #[inline]
    pub fn row(&self, id: u32) -> &[u8] {
        assert!((id as usize) < self.len, "row {id} outside the view");
        self.quant.row((self.start + id as usize) as u32)
    }

    /// The view's rows as one contiguous row-major code slice.
    #[inline]
    pub fn codes(&self) -> &[u8] {
        let dim = self.quant.dim();
        &self.quant.codes()[self.start * dim..(self.start + self.len) * dim]
    }

    /// The view's per-row dequantized norms.
    #[inline]
    pub fn norms(&self) -> &[f32] {
        &self.quant.norms()[self.start..self.start + self.len]
    }

    /// Per-dim affine offsets (shared by all views of the block).
    #[inline]
    pub fn mins(&self) -> &[f32] {
        self.quant.mins()
    }

    /// Per-dim affine step sizes (shared by all views of the block).
    #[inline]
    pub fn scales(&self) -> &[f32] {
        self.quant.scales()
    }

    /// The backing block (shared across all views of it).
    pub fn block(&self) -> &Arc<QuantizedVectors> {
        &self.quant
    }
}

impl std::fmt::Debug for QuantizedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedView")
            .field("start", &self.start)
            .field("len", &self.len)
            .field("dim", &self.dim())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(rows: &[Vec<f32>]) -> (Vec<f32>, usize, usize) {
        let dim = rows.first().map_or(0, Vec::len);
        let values: Vec<f32> = rows.iter().flatten().copied().collect();
        (values, dim, rows.len())
    }

    #[test]
    fn quantization_error_is_within_half_a_step() {
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i as f32).sin() * 3.0, i as f32, -0.5])
            .collect();
        let (values, dim, n) = flat(&rows);
        let q = QuantizedVectors::from_flat(&values, dim, n);
        assert_eq!(q.len(), n);
        assert_eq!(q.dim(), dim);
        for (i, row) in rows.iter().enumerate() {
            for (d, &v) in row.iter().enumerate() {
                let deq = q.dequant(d, q.row(i as u32)[d]);
                let tol = q.scales()[d] * 0.5 + 1e-6;
                assert!((deq - v).abs() <= tol, "row {i} dim {d}: {deq} vs {v}");
            }
        }
    }

    #[test]
    fn constant_dims_have_zero_scale_and_exact_reconstruction() {
        let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![4.25, i as f32]).collect();
        let (values, dim, n) = flat(&rows);
        let q = QuantizedVectors::from_flat(&values, dim, n);
        assert_eq!(q.scales()[0], 0.0);
        for i in 0..n {
            assert_eq!(q.dequant(0, q.row(i as u32)[0]), 4.25);
        }
        // A fully constant row dequantizes exactly, so its norm is exact.
        let all_same = QuantizedVectors::from_flat(&[2.0, 2.0, 2.0, 2.0], 2, 2);
        assert_eq!(all_same.norms()[0], (8.0f32).sqrt());
    }

    #[test]
    fn empty_and_zero_dim_blocks() {
        let empty = QuantizedVectors::from_flat(&[], 3, 0);
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 3);
        let zero_dim = QuantizedVectors::from_flat(&[], 0, 5);
        assert_eq!(zero_dim.len(), 5);
        assert_eq!(zero_dim.dim(), 0);
        assert!(zero_dim.row(4).is_empty());
        assert_eq!(zero_dim.norms(), &[0.0; 5]);
    }

    #[test]
    fn views_slice_without_copying() {
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, -(i as f32)]).collect();
        let (values, dim, n) = flat(&rows);
        let view = QuantizedView::new(QuantizedVectors::from_flat(&values, dim, n));
        assert_eq!(view.len(), 10);
        let sub = view.slice(4, 3);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.row(0), view.row(4));
        assert_eq!(sub.row(2), view.row(6));
        assert_eq!(sub.codes(), &view.codes()[8..14]);
        assert_eq!(sub.norms(), &view.norms()[4..7]);
        let subsub = sub.slice(1, 2);
        assert_eq!(subsub.row(0), view.row(5));
        assert!(
            Arc::ptr_eq(view.block(), subsub.block()),
            "one shared block"
        );
    }

    #[test]
    #[should_panic(expected = "outside the view")]
    fn out_of_view_row_panics() {
        let view = QuantizedView::new(QuantizedVectors::from_flat(&[1.0], 1, 1));
        let sub = view.slice(0, 1);
        let _ = sub.row(1);
    }

    #[test]
    fn from_parts_validates_shape() {
        let q = QuantizedVectors::from_flat(&[1.0, 2.0, 3.0, 4.0], 2, 2);
        let ok = QuantizedVectors::from_parts(
            q.mins().to_vec(),
            q.scales().to_vec(),
            q.norms().to_vec(),
            q.codes().to_vec(),
            2,
            2,
        );
        assert!(ok.is_some());
        let bad =
            QuantizedVectors::from_parts(vec![0.0], vec![0.0, 0.0], vec![0.0; 2], vec![0; 4], 2, 2);
        assert!(bad.is_none(), "mins length mismatch must be rejected");
        let overflow =
            QuantizedVectors::from_parts(vec![], vec![], vec![], vec![], usize::MAX, usize::MAX);
        assert!(overflow.is_none(), "rows x dim overflow must be rejected");
    }

    #[test]
    fn size_bytes_counts_codes_and_parameters() {
        let q = QuantizedVectors::from_flat(&[1.0; 12], 3, 4);
        assert_eq!(q.size_bytes(), 12 + (3 + 3 + 4) * 4);
    }
}
