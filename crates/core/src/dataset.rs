//! In-memory datasets of points addressed by dense `u32` ids, plus the
//! contiguous dense arena ([`FlatVectors`]) behind the gather-free batch
//! kernels.
//!
//! The paper's economy argument is that candidate checks must be cheap,
//! sequential memory reads — but a `Vec<Vec<f32>>` stores every dense point
//! as its own heap allocation, so batched scoring must first *gather*
//! scattered rows before it can stream. [`FlatVectors`] puts all dense rows
//! back to back in one cache-line-aligned row-major buffer, and a dense
//! [`Dataset`] built over it (see [`Dataset::new_flat`]) stores **only**
//! the arena: [`Dataset::get`] answers with a borrowed row view
//! (`&[f32]`), the dense spaces' `distance_block_flat` kernels stream rows
//! straight out of the arena, and no nested `Vec<Vec<f32>>` mirror exists
//! anywhere — floats are resident exactly once. Sparse, topic, signature
//! and string points keep the per-point representation (their layouts are
//! ragged by nature); for them `flat()` is `None` and scoring falls back
//! to the gather path.
//!
//! Arena-backed datasets can additionally carry an SQ8
//! [`QuantizedVectors`] tier (see [`Dataset::quantize`]): 4x-smaller
//! rows that snapshots persist alongside the arena. No search path reads
//! them; every candidate is scored exactly from the `f32` arena.

use std::ops::Index as StdIndex;
use std::sync::Arc;

use crate::point::Point;
use crate::quant::{QuantizedVectors, QuantizedView};

/// `f32` lanes per 64-byte cache line — the arena's alignment unit.
const LINE_LANES: usize = 16;

/// One cache line of the arena. The wrapper exists solely to give the
/// backing `Vec` 64-byte alignment; it is never exposed.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct CacheLine([f32; LINE_LANES]);

/// A contiguous, cache-line-aligned, row-major arena of equal-length dense
/// vectors, addressed by row id.
///
/// Row `i` occupies `data[i*dim..(i+1)*dim]` of [`as_slice`](Self::as_slice);
/// the first row starts on a 64-byte boundary (and so does every row when
/// `dim` is a multiple of 16). The arena is the storage the paper's
/// "cheap sequential scan" claim wants: one allocation, hardware-prefetch
/// friendly, no per-row headers.
#[derive(Clone)]
pub struct FlatVectors {
    buf: Vec<CacheLine>,
    dim: usize,
    rows: usize,
}

impl FlatVectors {
    /// Build an arena from nested rows. All rows must share one length
    /// (panics on ragged input — a dense dataset is rectangular by
    /// definition).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let dim = rows.first().map_or(0, Vec::len);
        let mut arena = Self::zeroed(rows.len(), dim);
        let flat = arena.as_mut_slice();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), dim, "ragged row {i} in a dense arena");
            flat[i * dim..(i + 1) * dim].copy_from_slice(row);
        }
        arena
    }

    /// Build an arena from an already-flat row-major slice of `rows` rows
    /// of `dim` values (`values.len()` must equal `rows * dim`).
    pub fn from_parts(values: &[f32], dim: usize, rows: usize) -> Self {
        Self::try_from_parts(values, dim, rows)
            .expect("flat buffer length does not match rows x dim")
    }

    /// Fallible form of [`from_parts`](Self::from_parts): `None` when
    /// `rows * dim` overflows or does not match the buffer length. The
    /// snapshot readers use this so corrupt headers surface as typed
    /// errors instead of panics.
    pub fn try_from_parts(values: &[f32], dim: usize, rows: usize) -> Option<Self> {
        let total = rows.checked_mul(dim)?;
        if values.len() != total {
            return None;
        }
        let mut arena = Self::zeroed(rows, dim);
        arena.as_mut_slice().copy_from_slice(values);
        Some(arena)
    }

    /// An all-zero arena of the given shape (cache-line padding included).
    fn zeroed(rows: usize, dim: usize) -> Self {
        let total = rows.checked_mul(dim).expect("arena size overflows usize");
        let lines = total.div_ceil(LINE_LANES);
        Self {
            buf: vec![CacheLine([0.0; LINE_LANES]); lines],
            dim,
            rows,
        }
    }

    /// Row length (vector dimensionality).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The whole arena as one row-major slice (`rows * dim` values,
    /// 64-byte-aligned base pointer).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `CacheLine` is a `repr(C)` array of initialized `f32`s,
        // so reinterpreting the buffer as `f32`s is layout-exact; the
        // logical length `rows * dim` never exceeds the line-padded
        // allocation, and `Vec::as_ptr` is aligned even when empty.
        unsafe { std::slice::from_raw_parts(self.buf.as_ptr().cast::<f32>(), self.rows * self.dim) }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`, plus exclusive access via `&mut self`.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.buf.as_mut_ptr().cast::<f32>(),
                self.rows * self.dim,
            )
        }
    }

    /// Row `id` as a slice.
    #[inline]
    pub fn row(&self, id: u32) -> &[f32] {
        let i = id as usize * self.dim;
        &self.as_slice()[i..i + self.dim]
    }

    /// Convert back to nested rows (the inverse of
    /// [`from_rows`](Self::from_rows)).
    pub fn to_rows(&self) -> Vec<Vec<f32>> {
        if self.dim == 0 {
            return vec![Vec::new(); self.rows];
        }
        self.as_slice()
            .chunks(self.dim)
            .map(<[f32]>::to_vec)
            .collect()
    }

    /// Heap footprint in bytes (padding included).
    pub fn size_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<CacheLine>()
    }
}

impl std::fmt::Debug for FlatVectors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatVectors")
            .field("rows", &self.rows)
            .field("dim", &self.dim)
            .finish()
    }
}

impl From<Vec<Vec<f32>>> for FlatVectors {
    fn from(rows: Vec<Vec<f32>>) -> Self {
        Self::from_rows(&rows)
    }
}

/// A shared, sub-range view into a [`FlatVectors`] arena: the handle the
/// flat scoring paths address rows through.
///
/// Views are cheap to clone (an `Arc` bump) and to slice, which is how the
/// sharded engine hands each shard its contiguous range of the one parent
/// arena instead of copying floats. Row ids are **view-relative**: `row(0)`
/// is the first row of the view, matching the dataset ids of the
/// [`Dataset`] the view backs.
#[derive(Clone)]
pub struct FlatAccess {
    arena: Arc<FlatVectors>,
    start: usize,
    len: usize,
}

impl FlatAccess {
    /// View over a whole arena.
    pub fn new(arena: FlatVectors) -> Self {
        Self::from_arc(Arc::new(arena))
    }

    /// View over a whole shared arena.
    pub fn from_arc(arena: Arc<FlatVectors>) -> Self {
        let len = arena.len();
        Self {
            arena,
            start: 0,
            len,
        }
    }

    /// A sub-view of `len` rows starting at view-relative row `start`,
    /// sharing the same arena.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        assert!(
            start + len <= self.len,
            "sub-view {start}..{} outside a view of {} rows",
            start + len,
            self.len
        );
        Self {
            arena: Arc::clone(&self.arena),
            start: self.start + start,
            len,
        }
    }

    /// Row length (vector dimensionality).
    #[inline]
    pub fn dim(&self) -> usize {
        self.arena.dim()
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

    /// View-relative row `id`.
    ///
    /// A hard bound check: an out-of-view id on a sub-range view would
    /// otherwise still land inside the parent arena and silently return a
    /// *neighboring shard's* row. This accessor is off the kernel hot
    /// path (the batch kernels index [`data`](Self::data) directly), so
    /// the check costs nothing where it matters.
    #[inline]
    pub fn row(&self, id: u32) -> &[f32] {
        assert!((id as usize) < self.len, "row {id} outside the view");
        self.arena.row((self.start + id as usize) as u32)
    }

    /// The view's rows as one contiguous row-major slice.
    #[inline]
    pub fn data(&self) -> &[f32] {
        let dim = self.arena.dim();
        &self.arena.as_slice()[self.start * dim..(self.start + self.len) * dim]
    }

    /// The backing arena (shared across all views of it).
    pub fn arena(&self) -> &Arc<FlatVectors> {
        &self.arena
    }
}

impl std::fmt::Debug for FlatAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatAccess")
            .field("start", &self.start)
            .field("len", &self.len)
            .field("dim", &self.dim())
            .finish()
    }
}

/// Read access to the optional contiguous dense arena behind a point store.
///
/// Implemented by [`Dataset`]; scoring helpers ([`score_all`],
/// [`score_ids`]) consult it together with
/// [`Space::supports_flat`](crate::Space::supports_flat) to pick the
/// gather-free path.
///
/// [`score_all`]: crate::score_all
/// [`score_ids`]: crate::score_ids
pub trait DenseStore {
    /// The flat row-major view of the store's points, when one exists.
    fn flat(&self) -> Option<&FlatAccess>;
}

/// How a [`Dataset`] physically stores its points: exactly one of the two
/// representations, never both.
#[derive(Debug, Clone)]
enum Storage<P> {
    /// One owned value per point — the generic representation.
    Nested(Vec<P>),
    /// One contiguous `f32` arena view, rows addressed in place — the
    /// dense representation. Only constructible for `P = Vec<f32>`.
    Flat(FlatAccess),
}

/// An immutable, in-memory collection of points.
///
/// The paper's setting is main-memory retrieval: "both data and indices are
/// stored in main memory". Ids are dense indices `0..len`, which is what the
/// inverted-file methods (NAPP, MI-file) and ScanCount merging rely on.
///
/// Dense (`Vec<f32>`) datasets built via [`Dataset::new_flat`],
/// [`into_flat`](Self::into_flat) or [`from_arena`](Self::from_arena) hold
/// **only** a [`FlatVectors`] arena view: [`get`](Self::get) returns a
/// borrowed row straight out of the arena (`&[f32]`), so the floats the
/// batch kernels stream and the floats `get` answers with are the same
/// bytes — there is no nested mirror and no way for the two to drift.
/// Every other construction keeps one owned value per point.
#[derive(Debug, Clone)]
pub struct Dataset<P> {
    storage: Storage<P>,
    quant: Option<QuantizedView>,
}

impl<P> Default for Dataset<P> {
    fn default() -> Self {
        Self::new(Vec::new())
    }
}

impl<P> Dataset<P> {
    /// Build a dataset from a vector of points. Ids are assigned in order.
    pub fn new(points: Vec<P>) -> Self {
        assert!(
            points.len() <= u32::MAX as usize,
            "dataset exceeds u32 id space"
        );
        Self {
            storage: Storage::Nested(points),
            quant: None,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        match &self.storage {
            Storage::Nested(points) => points.len(),
            Storage::Flat(flat) => flat.len(),
        }
    }

    /// True when the dataset holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the owned point slice of a nested dataset.
    ///
    /// Arena-backed dense datasets have no owned points to borrow — their
    /// rows live only in the arena — so this panics for them; dense code
    /// paths use [`get`](Self::get), [`iter`](Self::iter) or
    /// [`flat`](Self::flat) instead.
    pub fn points(&self) -> &[P] {
        match &self.storage {
            Storage::Nested(points) => points,
            Storage::Flat(_) => {
                panic!("arena-backed dense dataset stores no owned points; use get()/iter()/flat()")
            }
        }
    }

    /// Consume a nested dataset, returning the point vector. Panics for
    /// arena-backed datasets (see [`points`](Self::points)).
    pub fn into_points(self) -> Vec<P> {
        match self.storage {
            Storage::Nested(points) => points,
            Storage::Flat(_) => {
                panic!("arena-backed dense dataset stores no owned points; use get()/iter()/flat()")
            }
        }
    }

    /// The flat arena view of an arena-backed dense dataset.
    pub fn flat(&self) -> Option<&FlatAccess> {
        match &self.storage {
            Storage::Nested(_) => None,
            Storage::Flat(flat) => Some(flat),
        }
    }

    /// The SQ8 quantized tier, when one was built (see
    /// [`Dataset::quantize`]) or restored from a snapshot. Storage only:
    /// no search or refine path reads it.
    pub fn quantized(&self) -> Option<&QuantizedView> {
        self.quant.as_ref()
    }

    /// A contiguous sub-range of `len` points starting at `start`, as its
    /// own dataset with ids remapped to `0..len`.
    ///
    /// For arena-backed datasets this is an `Arc` bump — the sub-dataset
    /// views its range of the one parent arena (and of the quantized
    /// block, when present) without copying a single float; this is how
    /// the sharded engine partitions. Nested datasets clone the range.
    pub fn subrange(&self, start: usize, len: usize) -> Self
    where
        P: Clone,
    {
        assert!(
            start.checked_add(len).is_some_and(|end| end <= self.len()),
            "subrange {start}..{} outside a dataset of {} points",
            start + len,
            self.len()
        );
        let storage = match &self.storage {
            Storage::Nested(points) => Storage::Nested(points[start..start + len].to_vec()),
            Storage::Flat(flat) => Storage::Flat(flat.slice(start, len)),
        };
        Self {
            storage,
            quant: self.quant.as_ref().map(|q| q.slice(start, len)),
        }
    }
}

impl<P: Point> Dataset<P> {
    /// Access a point by id, in its borrowed form: `&[f32]` straight out
    /// of the arena for arena-backed dense datasets, `&P` (via
    /// [`Point::point_ref`]) otherwise.
    #[inline]
    pub fn get(&self, id: u32) -> &P::Ref {
        match &self.storage {
            Storage::Nested(points) => points[id as usize].point_ref(),
            Storage::Flat(flat) => P::ref_from_row(flat.row(id)),
        }
    }

    /// Iterate over `(id, point)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &P::Ref)> {
        (0..self.len() as u32).map(move |id| (id, self.get(id)))
    }

    /// Clone every point into its owned form, regardless of storage. The
    /// query-set splitters use this; it is the only API that materializes
    /// owned rows from an arena, and it never attaches them back.
    pub fn to_owned_points(&self) -> Vec<P> {
        self.iter().map(|(_, p)| p.to_owned()).collect()
    }
}

impl Dataset<Vec<f32>> {
    /// Build a dense dataset stored as one contiguous [`FlatVectors`]
    /// arena (the nested input rows are dropped after the copy). All rows
    /// must share one length.
    pub fn new_flat(points: Vec<Vec<f32>>) -> Self {
        Self::from_arena(FlatVectors::from_rows(&points))
    }

    /// Convert to arena-backed storage: nested points are flattened into
    /// an arena and dropped (no-op if already arena-backed). Panics on
    /// ragged rows.
    pub fn into_flat(self) -> Self {
        match self.storage {
            Storage::Nested(points) => {
                let quant = self.quant;
                let mut data = Self::from_arena(FlatVectors::from_rows(&points));
                data.quant = quant;
                data
            }
            Storage::Flat(_) => self,
        }
    }

    /// Build a dense dataset straight from an arena. The arena is the
    /// dataset's only storage — `get` answers from the same bytes the
    /// kernels score.
    pub fn from_arena(arena: FlatVectors) -> Self {
        Self::from_flat_view(FlatAccess::new(arena))
    }

    /// Build a dense dataset over an existing arena view (shared, not
    /// copied).
    pub fn from_flat_view(view: FlatAccess) -> Self {
        assert!(
            view.len() <= u32::MAX as usize,
            "dataset exceeds u32 id space"
        );
        Self {
            storage: Storage::Flat(view),
            quant: None,
        }
    }

    /// Vector dimensionality (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        match &self.storage {
            Storage::Nested(points) => points.first().map_or(0, Vec::len),
            Storage::Flat(flat) => flat.dim(),
        }
    }

    /// Build the SQ8 quantized tier (1-byte codes, 4x fewer bytes than the
    /// arena) over an arena-backed dataset. Snapshots persist it; no
    /// search or refine path reads it. No-op when a tier is already
    /// attached; panics for nested datasets (the tier quantizes the arena,
    /// so build the arena first via [`new_flat`](Self::new_flat) /
    /// [`into_flat`](Self::into_flat)).
    pub fn quantize(mut self) -> Self {
        if self.quant.is_none() {
            let flat = self
                .flat()
                .expect("quantize() requires arena-backed storage; call into_flat() first");
            self.quant = Some(QuantizedView::new(QuantizedVectors::from_flat(
                flat.data(),
                flat.dim(),
                flat.len(),
            )));
        }
        self
    }
}

impl<P> Dataset<P> {
    /// Attach an already-built quantized view (the snapshot restore path).
    ///
    /// **Contract:** `view.row(i)` must encode point `i`; only the row
    /// count is checked.
    pub fn set_quantized_view(&mut self, view: QuantizedView) {
        assert_eq!(
            view.len(),
            self.len(),
            "quantized view row count does not match the dataset"
        );
        self.quant = Some(view);
    }
}

impl<P> DenseStore for Dataset<P> {
    fn flat(&self) -> Option<&FlatAccess> {
        Dataset::flat(self)
    }
}

impl<P: Point> StdIndex<u32> for Dataset<P> {
    type Output = P::Ref;
    fn index(&self, id: u32) -> &P::Ref {
        self.get(id)
    }
}

impl<P> From<Vec<P>> for Dataset<P> {
    fn from(points: Vec<P>) -> Self {
        Self::new(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_in_order() {
        let d = Dataset::new(vec![10, 20, 30]);
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(*d.get(1), 20);
        assert_eq!(d[2], 30);
        let pairs: Vec<(u32, i32)> = d.iter().map(|(i, p)| (i, *p)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn conversions_round_trip() {
        let d: Dataset<i32> = vec![1, 2].into();
        let v = d.clone().into_points();
        assert_eq!(v, vec![1, 2]);
        assert_eq!(d.to_owned_points(), vec![1, 2]);
    }

    #[test]
    fn empty_dataset() {
        let d: Dataset<u8> = Dataset::default();
        assert!(d.is_empty());
        assert_eq!(d.points().len(), 0);
        assert!(d.flat().is_none());
        assert!(d.quantized().is_none());
    }

    #[test]
    fn arena_is_cache_line_aligned_and_row_exact() {
        let rows: Vec<Vec<f32>> = (0..37).map(|i| vec![i as f32; 5]).collect();
        let arena = FlatVectors::from_rows(&rows);
        assert_eq!(arena.len(), 37);
        assert_eq!(arena.dim(), 5);
        assert_eq!(arena.as_slice().as_ptr() as usize % 64, 0, "aligned base");
        assert_eq!(arena.as_slice().len(), 37 * 5);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(arena.row(i as u32), row.as_slice());
        }
        assert_eq!(arena.to_rows(), rows);
        assert!(arena.size_bytes() >= 37 * 5 * 4);
        assert_eq!(arena.size_bytes() % 64, 0, "whole cache lines");
    }

    #[test]
    fn arena_from_parts_round_trips() {
        let flat: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let arena = FlatVectors::from_parts(&flat, 3, 4);
        assert_eq!(arena.as_slice(), flat.as_slice());
        assert_eq!(arena.row(2), &[6.0, 7.0, 8.0]);
        let via_from: FlatVectors = arena.to_rows().into();
        assert_eq!(via_from.as_slice(), flat.as_slice());
    }

    #[test]
    fn bad_arena_shapes_are_rejected_without_panicking() {
        assert!(FlatVectors::try_from_parts(&[1.0; 5], 2, 3).is_none());
        assert!(FlatVectors::try_from_parts(&[], usize::MAX, usize::MAX).is_none());
        assert!(FlatVectors::try_from_parts(&[1.0; 6], 2, 3).is_some());
    }

    #[test]
    fn empty_and_zero_dim_arenas() {
        let empty = FlatVectors::from_rows(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 0);
        assert!(empty.as_slice().is_empty());
        let zero_dim = FlatVectors::from_rows(&[vec![], vec![]]);
        assert_eq!(zero_dim.len(), 2);
        assert_eq!(zero_dim.dim(), 0);
        assert!(zero_dim.row(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn ragged_rows_panic() {
        let _ = FlatVectors::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn views_slice_without_copying() {
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, -(i as f32)]).collect();
        let view = FlatAccess::new(FlatVectors::from_rows(&rows));
        assert_eq!(view.len(), 10);
        let sub = view.slice(4, 3);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.row(0), rows[4].as_slice());
        assert_eq!(sub.row(2), rows[6].as_slice());
        assert_eq!(sub.data(), &view.data()[8..14]);
        let subsub = sub.slice(1, 2);
        assert_eq!(subsub.row(0), rows[5].as_slice());
        assert!(
            Arc::ptr_eq(view.arena(), subsub.arena()),
            "one shared arena"
        );
    }

    #[test]
    #[should_panic(expected = "outside a view")]
    fn oversized_sub_view_panics() {
        let view = FlatAccess::new(FlatVectors::from_rows(&[vec![0.0f32]]));
        let _ = view.slice(0, 2);
    }

    #[test]
    fn flat_dataset_serves_rows_from_the_arena_only() {
        let rows: Vec<Vec<f32>> = (0..8).map(|i| vec![i as f32; 3]).collect();
        let nested = Dataset::new(rows.clone());
        assert!(nested.flat().is_none());
        assert_eq!(nested.get(3), rows[3].as_slice());
        let flat = Dataset::new_flat(rows.clone());
        let view = flat.flat().expect("arena attached");
        assert_eq!(view.len(), flat.len());
        for (id, row) in rows.iter().enumerate() {
            assert_eq!(flat.get(id as u32), row.as_slice());
            // `get` answers from the arena bytes themselves, not a copy.
            assert!(std::ptr::eq(
                flat.get(id as u32).as_ptr(),
                view.row(id as u32).as_ptr()
            ));
        }
        let from_arena = Dataset::from_arena(FlatVectors::from_rows(&rows));
        assert_eq!(from_arena.to_owned_points(), rows);
        assert!(from_arena.flat().is_some());
        // Converting nested storage drops the nested points.
        let converted = nested.into_flat();
        assert!(converted.flat().is_some());
        assert_eq!(converted.get(3), rows[3].as_slice());
    }

    #[test]
    fn every_construction_path_serves_bitwise_arena_rows() {
        // Rows with awkward bit patterns (negative zero, subnormals,
        // values that would change under any f64 round-trip): `get(i)`
        // must be bit-for-bit the arena row on every way of building a
        // dense dataset — `new_flat`, `into_flat`, `from_arena` and a
        // snapshot restore.
        let rows: Vec<Vec<f32>> = (0..13)
            .map(|i| {
                vec![
                    -0.0,
                    f32::MIN_POSITIVE / 4.0,
                    0.1 + i as f32 * 1e-3,
                    (i as f32).exp(),
                ]
            })
            .collect();
        let mut snap = Vec::new();
        Dataset::new_flat(rows.clone())
            .write_snapshot(&mut snap)
            .unwrap();
        let restored = Dataset::<Vec<f32>>::read_snapshot(&mut snap.as_slice()).unwrap();
        let paths: [(&str, Dataset<Vec<f32>>); 4] = [
            ("new_flat", Dataset::new_flat(rows.clone())),
            ("into_flat", Dataset::new(rows.clone()).into_flat()),
            (
                "from_arena",
                Dataset::from_arena(FlatVectors::from_rows(&rows)),
            ),
            ("snapshot restore", restored),
        ];
        for (path, d) in &paths {
            let arena = d.flat().expect("{path}: arena attached").arena();
            for i in 0..rows.len() as u32 {
                let got: Vec<u32> = d.get(i).iter().map(|x| x.to_bits()).collect();
                let from_arena: Vec<u32> = arena.row(i).iter().map(|x| x.to_bits()).collect();
                let want: Vec<u32> = rows[i as usize].iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, from_arena, "{path}: get({i}) != arena row");
                assert_eq!(got, want, "{path}: row {i} bits drifted from source");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no owned points")]
    fn flat_dataset_has_no_owned_points() {
        let d = Dataset::new_flat(vec![vec![1.0f32], vec![2.0]]);
        let _ = d.points();
    }

    #[test]
    fn subrange_views_share_the_arena() {
        let rows: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 1.0]).collect();
        let flat = Dataset::new_flat(rows.clone()).quantize();
        let sub = flat.subrange(3, 4);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.get(0), rows[3].as_slice());
        assert_eq!(sub.get(3), rows[6].as_slice());
        assert!(Arc::ptr_eq(
            flat.flat().unwrap().arena(),
            sub.flat().unwrap().arena()
        ));
        let q = sub.quantized().expect("quantized view sliced along");
        assert_eq!(q.len(), 4);
        assert_eq!(q.row(0), flat.quantized().unwrap().row(3));
        // Nested subranges clone the range.
        let nested = Dataset::new(rows.clone());
        let nsub = nested.subrange(8, 2);
        assert_eq!(nsub.len(), 2);
        assert_eq!(nsub.get(1), rows[9].as_slice());
        assert!(nsub.quantized().is_none());
    }

    #[test]
    #[should_panic(expected = "outside a dataset")]
    fn oversized_subrange_panics() {
        let d = Dataset::new(vec![1i32, 2]);
        let _ = d.subrange(1, 2);
    }

    #[test]
    fn quantize_attaches_a_matching_tier() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32, -2.0 * i as f32]).collect();
        let data = Dataset::new_flat(rows).quantize();
        let q = data.quantized().expect("tier built");
        assert_eq!(q.len(), data.len());
        assert_eq!(q.dim(), data.dim());
        // Idempotent.
        let again = data.clone().quantize();
        assert_eq!(again.quantized().unwrap().len(), 20);
    }

    #[test]
    #[should_panic(expected = "arena-backed")]
    fn quantize_requires_an_arena() {
        let _ = Dataset::new(vec![vec![1.0f32]]).quantize();
    }
}
