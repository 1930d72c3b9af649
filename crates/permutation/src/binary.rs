//! Binarized permutations (Tellez et al., paper §2.1–2.2).
//!
//! Coarsen a rank vector into bits: ranks below a threshold `b` become 0,
//! ranks ≥ `b` become 1. Binarized permutations pack into bit arrays and
//! compare with the Hamming distance via XOR + popcount — the paper's
//! fastest filtering kernel, and the overall winner on the DNA dataset
//! (Figure 4f).

use std::thread;

use permsearch_core::{BitVector, Dataset, Point, Space};

use crate::perm::compute_ranks;

/// Binarize a rank vector with threshold `b`: bit `i` = `ranks[i] >= b`.
///
/// The paper's choice of `b = m/2` balances the bit population (half zeros,
/// half ones), maximizing the Hamming distance's discriminative power.
pub fn binarize(ranks: &[u32], b: u32) -> BitVector {
    let mut v = BitVector::zeros(ranks.len());
    for (i, &r) in ranks.iter().enumerate() {
        if r >= b {
            v.set(i, true);
        }
    }
    v
}

/// Binarized permutations of a whole dataset, stored contiguously
/// (`n × ceil(m/64)` packed words) for cache-friendly scanning.
#[derive(Debug, Clone)]
pub struct BinarizedPermutations {
    pub(crate) words_per_point: usize,
    pub(crate) m: usize,
    pub(crate) threshold: u32,
    pub(crate) words: Vec<u64>,
}

impl BinarizedPermutations {
    /// Compute and binarize the permutation of every data point.
    /// `threshold` defaults to `m / 2` when `None`.
    pub fn build<P, S>(
        data: &Dataset<P>,
        space: &S,
        pivots: &[P],
        threshold: Option<u32>,
        threads: usize,
    ) -> Self
    where
        P: Point + Sync,
        S: Space<P::Ref> + Sync,
    {
        let m = pivots.len();
        assert!(m > 0, "at least one pivot required");
        let threshold = threshold.unwrap_or(m as u32 / 2);
        let wpp = m.div_ceil(64);
        let n = data.len();
        let mut words = vec![0u64; n * wpp];
        if n > 0 {
            let threads = threads.max(1).min(n);
            let chunk = n.div_ceil(threads);
            thread::scope(|s| {
                for (t, out) in words.chunks_mut(chunk * wpp).enumerate() {
                    let start = (t * chunk) as u32;
                    s.spawn(move || {
                        for (row, id) in out.chunks_mut(wpp).zip(start..) {
                            let ranks = compute_ranks(space, pivots, data.get(id));
                            for (i, &r) in ranks.iter().enumerate() {
                                if r >= threshold {
                                    row[i / 64] |= 1u64 << (i % 64);
                                }
                            }
                        }
                    });
                }
            });
        }
        Self {
            words_per_point: wpp,
            m,
            threshold,
            words,
        }
    }

    /// Packed words of data point `id`.
    pub fn words(&self, id: u32) -> &[u64] {
        let i = id as usize * self.words_per_point;
        &self.words[i..i + self.words_per_point]
    }

    /// Hamming distance between stored point `id` and a packed query row.
    #[inline]
    pub fn hamming_to(&self, id: u32, query_words: &[u64]) -> u32 {
        debug_assert_eq!(query_words.len(), self.words_per_point);
        self.words(id)
            .iter()
            .zip(query_words)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Binarize a query's rank vector with the table's threshold, packed to
    /// the table's row layout.
    pub fn pack_query(&self, ranks: &[u32]) -> Vec<u64> {
        let mut row = Vec::new();
        self.pack_query_into(ranks, &mut row);
        row
    }

    /// Buffer-reusing form of [`pack_query`](Self::pack_query).
    pub fn pack_query_into(&self, ranks: &[u32], out: &mut Vec<u64>) {
        assert_eq!(ranks.len(), self.m, "query permutation length mismatch");
        out.clear();
        out.resize(self.words_per_point, 0);
        for (i, &r) in ranks.iter().enumerate() {
            if r >= self.threshold {
                out[i / 64] |= 1u64 << (i % 64);
            }
        }
    }

    /// Batched filtering scan: the Hamming distance of **every** stored
    /// binarized permutation to the packed query row, written as
    /// `(distance, id)` pairs in increasing id order. One pass of the
    /// flat-word [`permsearch_core::bits::hamming_flat`] kernel over the
    /// contiguous table; identical values to per-id
    /// [`hamming_to`](Self::hamming_to).
    pub fn scan_hamming_into(&self, query_words: &[u64], out: &mut Vec<(u32, u32)>) {
        debug_assert_eq!(query_words.len(), self.words_per_point);
        out.clear();
        out.reserve(self.len());
        permsearch_core::bits::hamming_flat(
            &self.words,
            self.words_per_point,
            query_words,
            |id, h| {
                out.push((h, id));
            },
        );
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.words
            .len()
            .checked_div(self.words_per_point)
            .unwrap_or(0)
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Permutation length (number of pivots).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Binarization threshold in use.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_spaces::L2;

    #[test]
    fn binarize_matches_paper_example() {
        // Paper's 1-based threshold b = 3 over permutation (1,2,3,4) is our
        // 0-based threshold 2 over [0,1,2,3]: bits 0011.
        let v = binarize(&[0, 1, 2, 3], 2);
        assert!(!v.get(0) && !v.get(1) && v.get(2) && v.get(3));
    }

    #[test]
    fn build_matches_manual_binarization() {
        let pivots = vec![
            vec![0.0f32, 0.0],
            vec![2.0, 0.5],
            vec![-1.0, 2.5],
            vec![4.0, 2.0],
        ];
        let data = Dataset::new(vec![
            vec![0.5f32, 0.5],
            vec![1.2, 0.4],
            vec![-0.5, 1.5],
            vec![3.2, 1.2],
        ]);
        let table = BinarizedPermutations::build(&data, &L2, &pivots, None, 2);
        assert_eq!(table.len(), 4);
        assert_eq!(table.threshold(), 2);
        for (id, p) in data.iter() {
            let ranks = compute_ranks(&L2, &pivots, p);
            let expected = binarize(&ranks, 2);
            let packed = table.pack_query(&ranks);
            assert_eq!(table.hamming_to(id, &packed), 0);
            for (w, ew) in table.words(id).iter().zip(expected.words()) {
                assert_eq!(w, ew);
            }
        }
    }

    #[test]
    fn hamming_between_near_points_is_smaller() {
        let pivots = vec![
            vec![0.0f32, 0.0],
            vec![2.0, 0.5],
            vec![-1.0, 2.5],
            vec![4.0, 2.0],
        ];
        let data = Dataset::new(vec![vec![0.5f32, 0.5], vec![3.2, 1.2]]);
        let table = BinarizedPermutations::build(&data, &L2, &pivots, None, 1);
        let q = table.pack_query(&compute_ranks(&L2, &pivots, &[0.6f32, 0.5]));
        assert!(table.hamming_to(0, &q) <= table.hamming_to(1, &q));
    }

    #[test]
    fn wide_permutations_cross_word_boundaries() {
        let ranks: Vec<u32> = (0..100u32).collect();
        let v = binarize(&ranks, 50);
        assert_eq!(v.count_ones(), 50);
        assert!(!v.get(49));
        assert!(v.get(50));
        assert!(v.get(99));
    }

    #[test]
    fn empty_dataset() {
        let data: Dataset<Vec<f32>> = Dataset::default();
        let pivots = vec![vec![0.0f32]];
        let t = BinarizedPermutations::build(&data, &L2, &pivots, None, 4);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
