//! The refine stage shared by every filter-and-refine method.

use permsearch_core::{
    failpoints, score_ids, Dataset, Neighbor, Point, SearchScratch, Space, Stage,
};

/// Oversampling factor of the degraded candidate budget: a degraded query
/// refines only the first `k * DEGRADED_OVERSAMPLE + DEGRADED_FLOOR`
/// deduplicated candidates.
const DEGRADED_OVERSAMPLE: usize = 4;

/// Additive floor of the degraded candidate budget, so small `k` still
/// refines a healthy pool.
const DEGRADED_FLOOR: usize = 32;

/// Compare each candidate id to the query with the original distance and
/// return the best `k`, sorted by increasing distance.
///
/// Candidates are sorted ascending and **deduplicated** before scoring:
/// duplicates (overlapping posting lists, multi-table probes) are never
/// evaluated twice, and on arena-backed dense datasets the ascending order
/// makes the refine stage read the flat arena near-sequentially instead of
/// hopping backward and forward through memory. Refinement treats the
/// candidate list as a *set*, so sorting changes nothing about which ids
/// are considered; among equal-distance candidates at the `k` boundary the
/// smallest ids now win deterministically.
pub fn refine<P: Point, S: Space<P::Ref>>(
    data: &Dataset<P>,
    space: &S,
    query: &P::Ref,
    candidates: impl IntoIterator<Item = u32>,
    k: usize,
) -> Vec<Neighbor> {
    let mut scratch = SearchScratch::new();
    scratch.ids.extend(candidates);
    let mut out = Vec::new();
    refine_into(data, space, query, k, &mut scratch, &mut out);
    out
}

/// Scratch-reusing, batched form of [`refine`]: the candidates are the
/// ids the caller left in `scratch.ids`. They are sorted ascending and
/// deduplicated in place, then each is scored exactly once in
/// [`permsearch_core::BATCH_WIDTH`] blocks — via the gather-free
/// [`Space::distance_block_flat`] kernels when the dataset carries a flat
/// arena — and offered to the reused result heap in ascending id order.
/// The sorted top-`k` lands in `out`, with exact distances. Results are
/// identical to the allocating [`refine`] (both paths sort the same way).
///
/// A dataset's SQ8 tier, if it carries one, is not read here: every
/// candidate is scored with the full-precision kernels, so a tiered
/// dataset answers exactly as the same data without its tier.
///
/// `scratch.budget` is consulted at two boundaries: once the candidates
/// are collected, and again just before scoring. An unlimited budget
/// costs one branch per boundary and changes nothing; an expired one
/// returns an empty answer. Under a **degraded** budget the stage trades
/// recall for bounded work: it refines only the first `k *
/// DEGRADED_OVERSAMPLE + DEGRADED_FLOOR` deduplicated candidates.
pub fn refine_into<P: Point, S: Space<P::Ref>>(
    data: &Dataset<P>,
    space: &S,
    query: &P::Ref,
    k: usize,
    scratch: &mut SearchScratch,
    out: &mut Vec<Neighbor>,
) {
    let SearchScratch {
        ids,
        dists,
        heap,
        trace,
        budget,
        ..
    } = scratch;
    // Ascending ids: near-sequential arena reads, and duplicates from
    // interleaved candidate sources are dropped before they cost a
    // distance evaluation.
    ids.sort_unstable();
    ids.dedup();
    trace.add_candidates(ids.len());
    // Boundary "filter -> refine": the candidates are collected; an
    // expired query stops before paying for any scoring.
    if !budget.checkpoint() {
        out.clear();
        return;
    }
    if budget.is_degraded() {
        // Tightened candidate budget: refine only the first ids of the
        // deduplicated ascending list. Deterministic and bounded; recall
        // traded for latency.
        ids.truncate(k * DEGRADED_OVERSAMPLE + DEGRADED_FLOOR);
    }
    if failpoints::fire("stall:refine") {
        budget.force_expire();
    }
    // Boundary before scoring, where a stalled refine is cut.
    if !budget.checkpoint() {
        out.clear();
        return;
    }
    let t0 = trace.start();
    trace.add_dists(Stage::Refine, ids.len() as u64);
    heap.reset(k);
    score_ids(space, data, query, ids, dists, |id, d| {
        heap.push(id, d);
    });
    heap.drain_sorted_into(out);
    trace.finish(Stage::Refine, t0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_spaces::L2;

    #[test]
    fn refine_orders_by_original_distance() {
        let data = Dataset::new(vec![vec![0.0f32], vec![10.0], vec![1.0], vec![5.0]]);
        let res = refine(&data, &L2, &[0.2f32], [0u32, 1, 2, 3], 2);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn refine_tolerates_duplicates_and_short_candidate_lists() {
        let data = Dataset::new(vec![vec![0.0f32], vec![1.0]]);
        let res = refine(&data, &L2, &[0.0f32], [1u32, 1, 1, 0], 5);
        assert_eq!(res.len(), 2);
        assert_eq!(res[0].id, 0);
    }

    #[test]
    fn duplicate_candidates_are_scored_once() {
        use permsearch_core::CountedSpace;
        let data = Dataset::new((0..50).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let space = CountedSpace::new(L2);
        // 3 unique ids submitted 4x each, interleaved (the shape
        // overlapping posting lists / multi-table probes produce).
        let cands: Vec<u32> = (0..4).flat_map(|_| [7u32, 3, 40]).collect();
        let res = refine(&data, &space, &[5.0f32], cands, 2);
        assert_eq!(space.count(), 3, "each unique candidate costs one distance");
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 7]);
    }

    #[test]
    fn refine_with_empty_candidates() {
        let data = Dataset::new(vec![vec![0.0f32]]);
        let res = refine(&data, &L2, &[0.0f32], std::iter::empty(), 3);
        assert!(res.is_empty());
    }

    #[test]
    fn quantized_prefilter_rereanks_with_exact_distances() {
        // An attached SQ8 tier must not change the top-k, and the reported
        // distances must be full-precision f32.
        let rows: Vec<Vec<f32>> = (0..500).map(|i| vec![i as f32, -(i as f32)]).collect();
        let exact_data = Dataset::new_flat(rows.clone());
        let quant_data = Dataset::new_flat(rows).quantize();
        assert!(quant_data.quantized().is_some());
        let q = vec![123.4f32, -123.4];
        let cands: Vec<u32> = (0..500u32).collect();
        let baseline = refine(&exact_data, &L2, &q, cands.iter().copied(), 7);
        let filtered = refine(&quant_data, &L2, &q, cands.iter().copied(), 7);
        assert_eq!(
            baseline, filtered,
            "pre-filter changed well-separated top-k"
        );
        for n in &filtered {
            let want = L2.distance(exact_data.get(n.id), &q);
            assert_eq!(n.dist.to_bits(), want.to_bits(), "distance not exact f32");
        }
    }

    #[test]
    fn small_candidate_lists_bypass_the_prefilter() {
        use permsearch_core::CountedSpace;
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let data = Dataset::new_flat(rows).quantize();
        let space = CountedSpace::new(L2);
        // Each candidate costs exactly one (exact) distance, tier or no
        // tier — a quantized pass would double the tally.
        let res = refine(&data, &space, &[5.0f32], (0..10u32).collect::<Vec<_>>(), 2);
        assert_eq!(res[0].id, 5);
        assert_eq!(space.count(), 10, "pre-filter ran on a tiny list");
    }

    #[test]
    fn refine_into_reuses_buffers_identically() {
        let data = Dataset::new((0..200).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let mut scratch = SearchScratch::new();
        let mut out = Vec::new();
        for qi in 0..20 {
            let q = vec![qi as f32 * 7.3];
            let cands: Vec<u32> = (0..200u32).filter(|i| i % 3 == qi % 3).collect();
            scratch.ids.clear();
            scratch.ids.extend(cands.iter().copied());
            refine_into(&data, &L2, &q, 5, &mut scratch, &mut out);
            let fresh = refine(&data, &L2, &q, cands.iter().copied(), 5);
            assert_eq!(out, fresh, "query {qi}");
        }
    }
}
