//! Quantized-tier equivalence, pinned across the registry.
//!
//! The SQ8 tier is storage, never a scoring authority: no search or
//! refine path reads it, and every reported neighbor is scored with the
//! exact f32 kernels over the flat arena. Pinned here for **every**
//! registered dense method:
//!
//! 1. reported distances are bitwise the full-precision `L2` distance to
//!    the arena row (no dequantized value ever leaks into a result);
//! 2. recall against exact gold does not fall below the same method
//!    built *without* the quantized tier (minus a small seed tolerance);
//! 3. an attached tier changes no answer at all — same ids, distance
//!    bits and distance counts, normal and degraded.
//!
//! Property tests extend the exactness pin to the degenerate shapes the
//! affine scheme must survive — dim 0, dim 1, dims that are not a
//! multiple of the 16-lane kernel width, constant rows (zero scale) —
//! and to sub-range shard views of a parent quantized dataset.

use std::sync::Arc;

use proptest::prelude::*;

use permsearch_core::{
    CountedSpace, Dataset, ExhaustiveSearch, Neighbor, SearchIndex, SearchScratch,
};
use permsearch_datasets::{DenseGaussianMixture, Generator};
use permsearch_engine::{dense_l2_registry, standard_registry};
use permsearch_permutation::refine;
use permsearch_spaces::L2;

const K: usize = 10;

fn world(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let gen = DenseGaussianMixture::new(10, 4, 0.2);
    (gen.generate(n, seed), gen.generate(12, seed ^ 0x9e37))
}

fn recall_at_k(got: &[Neighbor], truth: &[Neighbor]) -> f64 {
    let want: Vec<u32> = truth.iter().map(|n| n.id).collect();
    let hits = got.iter().filter(|n| want.contains(&n.id)).count();
    hits as f64 / want.len().max(1) as f64
}

/// Every registry method over a quantized dataset: distances bitwise
/// f32-exact against the arena, recall no worse than the unquantized
/// build of the same method (same seed), with a small tolerance.
#[test]
fn every_registry_method_is_exact_and_meets_floors_with_quantized_tier() {
    let (points, queries) = world(500, 29);
    let plain = Arc::new(Dataset::new_flat(points.clone()));
    let quant = Arc::new(Dataset::new_flat(points).quantize());
    assert!(plain.quantized().is_none() && quant.quantized().is_some());
    let exact = ExhaustiveSearch::new(plain.clone(), L2);
    let reg = dense_l2_registry();
    let mut scratch = SearchScratch::new();
    let (mut res_plain, mut res_quant) = (Vec::new(), Vec::new());
    for name in reg.names() {
        let idx_plain = reg.build(name, plain.clone(), 5).expect("build plain");
        let idx_quant = reg.build(name, quant.clone(), 5).expect("build quantized");
        let (mut recall_plain, mut recall_quant) = (0.0, 0.0);
        for (qi, q) in queries.iter().enumerate() {
            let truth = exact.search(q, K);
            idx_plain.search_into(q, K, &mut scratch, &mut res_plain);
            idx_quant.search_into(q, K, &mut scratch, &mut res_quant);
            recall_plain += recall_at_k(&res_plain, &truth);
            recall_quant += recall_at_k(&res_quant, &truth);
            for n in &res_quant {
                let want = permsearch_core::Space::distance(&L2, plain.get(n.id), q.as_slice());
                assert_eq!(
                    n.dist.to_bits(),
                    want.to_bits(),
                    "{name} q{qi}: reported distance for id {} is not exact f32",
                    n.id
                );
            }
        }
        let nq = queries.len() as f64;
        let (recall_plain, recall_quant) = (recall_plain / nq, recall_quant / nq);
        assert!(
            recall_quant >= recall_plain - 0.05,
            "{name}: quantized recall {recall_quant:.4} fell below \
             unquantized {recall_plain:.4}"
        );
        assert!(
            recall_quant >= 0.30,
            "{name}: quantized recall collapsed to {recall_quant:.4}"
        );
    }
}

/// An attached SQ8 tier changes no answer: every method of the standard
/// registry, over the same points with and without the tier, returns the
/// same ids and distance bits at the same distance cost — both normally
/// and in degraded mode (armed per query, as `serve_batch` arms it).
#[test]
fn attached_sq8_tier_changes_no_answer() {
    let (points, queries) = world(500, 29);
    let plain = Arc::new(Dataset::new_flat(points.clone()));
    let tiered = Arc::new(Dataset::new_flat(points).quantize());
    let (space_plain, space_tiered) = (CountedSpace::new(L2), CountedSpace::new(L2));
    let reg_plain = standard_registry(space_plain.clone());
    let reg_tiered = standard_registry(space_tiered.clone());
    let mut scratch = SearchScratch::new();
    let (mut res_plain, mut res_tiered) = (Vec::new(), Vec::new());
    for name in reg_plain.names() {
        let idx_plain = reg_plain
            .build(name, plain.clone(), 5)
            .expect("build plain");
        let idx_tiered = reg_tiered
            .build(name, tiered.clone(), 5)
            .expect("build tiered");
        for degraded in [false, true] {
            for (qi, q) in queries.iter().enumerate() {
                let mut run = |idx: &dyn SearchIndex<Vec<f32>>,
                               space: &CountedSpace<L2>,
                               res: &mut Vec<Neighbor>| {
                    scratch.budget.clear();
                    scratch.budget.set_degraded(degraded);
                    let before = space.count();
                    idx.search_into(q, K, &mut scratch, res);
                    space.count() - before
                };
                let cost_plain = run(&*idx_plain, &space_plain, &mut res_plain);
                let cost_tiered = run(&*idx_tiered, &space_tiered, &mut res_tiered);
                let bits = |r: &[Neighbor]| -> Vec<(u32, u32)> {
                    r.iter().map(|n| (n.id, n.dist.to_bits())).collect()
                };
                assert_eq!(
                    bits(&res_plain),
                    bits(&res_tiered),
                    "{name} q{qi} degraded={degraded}: the tier changed the answer"
                );
                assert_eq!(
                    cost_plain, cost_tiered,
                    "{name} q{qi} degraded={degraded}: the tier changed the distance count"
                );
            }
        }
    }
}

/// Exactness of `refine` over a quantized dataset for one query: the
/// top-k ids and distance bits must equal the unquantized refine of the
/// same candidate set whenever the true neighbors are unambiguous under
/// the SQ8 approximation; distances are always checked bitwise.
fn assert_refine_exact(rows: &[Vec<f32>], query: &[f32], check_topk: bool) {
    let plain = Dataset::new_flat(rows.to_vec());
    let quant = Dataset::new_flat(rows.to_vec()).quantize();
    let cands: Vec<u32> = (0..rows.len() as u32).collect();
    let q = query.to_vec();
    let baseline = refine(&plain, &L2, &q, cands.iter().copied(), K);
    let filtered = refine(&quant, &L2, &q, cands.iter().copied(), K);
    assert_eq!(baseline.len(), filtered.len(), "result lengths diverge");
    for n in &filtered {
        let want = permsearch_core::Space::distance(&L2, plain.get(n.id), query);
        assert_eq!(n.dist.to_bits(), want.to_bits(), "id {} not exact", n.id);
    }
    if check_topk {
        assert_eq!(baseline, filtered, "quantized refine changed the top-k");
    }
}

/// Constant rows quantize with zero scale in every dimension; the tier
/// must neither divide by zero nor perturb the (all-equal) distances.
#[test]
fn constant_rows_quantize_with_zero_scale() {
    let rows: Vec<Vec<f32>> = (0..200).map(|_| vec![3.5f32, -1.25, 0.0]).collect();
    assert_refine_exact(&rows, &[3.5, -1.25, 0.0], true);
    assert_refine_exact(&rows, &[0.0, 0.0, 0.0], true);
}

/// Zero-dimensional rows: every distance is 0, nothing to quantize, no
/// panic anywhere in the pipeline.
#[test]
fn zero_dim_rows_survive_quantization() {
    let rows: Vec<Vec<f32>> = (0..100).map(|_| Vec::new()).collect();
    assert_refine_exact(&rows, &[], true);
}

/// Sub-range shard views of a quantized parent: refining inside a view
/// must agree bitwise (modulo the id offset) with refining the parent
/// over the same global id range.
#[test]
fn sliced_shard_views_refine_identically_to_the_parent() {
    let (points, queries) = world(300, 91);
    let parent = Dataset::new_flat(points).quantize();
    for (start, len) in [(0usize, 120usize), (77, 160), (150, 150)] {
        let sub = parent.subrange(start, len);
        assert!(sub.quantized().is_some(), "quant tier survives subrange");
        for q in queries.iter().take(6) {
            let local = refine(&sub, &L2, q, 0..len as u32, K);
            let global = refine(&parent, &L2, q, (start as u32)..(start + len) as u32, K);
            assert_eq!(local.len(), global.len());
            for (l, g) in local.iter().zip(&global) {
                assert_eq!(l.id + start as u32, g.id, "id offset broken");
                assert_eq!(l.dist.to_bits(), g.dist.to_bits(), "distance bits");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Awkward dimensionalities — 1, non-multiples of the 16-lane kernel
    /// width, and beyond one block — always report exact f32 distances
    /// through the quantized pre-filter.
    #[test]
    fn awkward_dims_stay_exact(
        dim in proptest::sample::select(vec![1usize, 3, 15, 17, 31, 50]),
        n in 150usize..400,
        seed in 0u64..200,
    ) {
        let gen = DenseGaussianMixture::new(dim, 3, 0.3);
        let rows = gen.generate(n, seed);
        let query = gen.generate(1, seed ^ 0xfeed).pop().unwrap();
        // Top-k identity is only guaranteed when the SQ8 shortlist is
        // unambiguous, so only the bitwise-exactness half is asserted.
        assert_refine_exact(&rows, &query, false);
    }

    /// Mixed constant and varying dimensions: zero-scale dims inside an
    /// otherwise varying row must not disturb exactness.
    #[test]
    fn zero_scale_dims_mixed_with_live_dims_stay_exact(
        n in 100usize..300,
        seed in 0u64..200,
        pin in -5.0f32..5.0,
    ) {
        let gen = DenseGaussianMixture::new(6, 2, 0.4);
        let mut rows = gen.generate(n, seed);
        for row in &mut rows {
            row[2] = pin; // one constant (zero-scale) dimension
        }
        let mut query = gen.generate(1, seed ^ 0xbeef).pop().unwrap();
        query[2] = pin;
        assert_refine_exact(&rows, &query, false);
    }
}
