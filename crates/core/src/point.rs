//! The [`Point`] trait: the owned/borrowed split behind single-residency
//! dense storage.
//!
//! A [`Dataset`](crate::Dataset) used to hand out `&P` — which forced dense
//! datasets to keep a nested `Vec<Vec<f32>>` *alongside* the flat arena the
//! batch kernels scan, doubling float residency. [`Point`] breaks that
//! coupling: every point type names a borrowed form
//! ([`Point::Ref`]), and `Dataset::get` returns `&P::Ref`. For
//! `Vec<f32>` the borrowed form is `[f32]`, so an arena-backed dataset can
//! answer `get` with a row view straight out of the arena — the nested
//! mirror is gone. For every other point type the borrowed form is the type
//! itself, and nothing changes.
//!
//! Spaces over dense vectors are accordingly written as `Space<[f32]>`;
//! `&Vec<f32>` coerces to `&[f32]` at call sites, so owned queries keep
//! working unchanged.

/// A point type usable in a [`Dataset`](crate::Dataset): an owned value
/// with a canonical borrowed form.
///
/// `Ref` is the type distance functions are written over and `Dataset::get`
/// hands out. The `ToOwned<Owned = Self>` bound gives generic code one
/// uniform way (`.to_owned()`) to clone a borrowed point back into its
/// owned form (pivot selection, query-set splits).
pub trait Point: Sized + Send + Sync + 'static {
    /// The borrowed form of this point (`[f32]` for `Vec<f32>`, `Self`
    /// for everything else).
    type Ref: ?Sized + ToOwned<Owned = Self> + Send + Sync;

    /// Borrow this point in its canonical borrowed form.
    fn point_ref(&self) -> &Self::Ref;

    /// Reinterpret one dense arena row as a borrowed point.
    ///
    /// Only meaningful for point types that are logically dense `f32`
    /// rows; flat arena storage is constructible only for those, so the
    /// default body is unreachable for every other type.
    fn ref_from_row(row: &[f32]) -> &Self::Ref {
        let _ = row;
        unreachable!("flat arena storage exists only for dense f32 points")
    }
}

impl Point for Vec<f32> {
    type Ref = [f32];

    #[inline]
    fn point_ref(&self) -> &[f32] {
        self.as_slice()
    }

    #[inline]
    fn ref_from_row(row: &[f32]) -> &[f32] {
        row
    }
}

/// Implement [`Point`] with `Ref = Self` for owned point types whose
/// borrowed form is themselves (everything except dense `f32` vectors).
#[macro_export]
macro_rules! impl_self_ref_point {
    ($($ty:ty),* $(,)?) => {$(
        impl $crate::point::Point for $ty {
            type Ref = $ty;
            #[inline]
            fn point_ref(&self) -> &$ty {
                self
            }
        }
    )*};
}

impl_self_ref_point!(
    i32,
    i64,
    u8,
    u16,
    u32,
    u64,
    f32,
    f64,
    String,
    Vec<u32>,
    Vec<u8>,
    Vec<u64>,
    (f32, f32)
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_vectors_borrow_as_slices() {
        let v = vec![1.0f32, 2.0];
        let r: &[f32] = v.point_ref();
        assert_eq!(r, &[1.0, 2.0]);
        let owned: Vec<f32> = r.to_owned();
        assert_eq!(owned, v);
        assert_eq!(<Vec<f32> as Point>::ref_from_row(&[3.0]), &[3.0]);
    }

    #[test]
    fn self_ref_points_borrow_as_themselves() {
        let s = "acgt".to_string();
        assert_eq!(s.point_ref(), &s);
        let p = vec![1u32, 2];
        assert_eq!(p.point_ref(), &p);
        assert_eq!(7i32.point_ref(), &7);
    }

    #[test]
    #[should_panic(expected = "dense f32 points")]
    fn row_reinterpretation_is_dense_only() {
        let _ = <String as Point>::ref_from_row(&[1.0]);
    }
}
