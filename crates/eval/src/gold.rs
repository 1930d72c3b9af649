//! Exact gold standards and the brute-force timing baseline.

use std::sync::Arc;
use std::time::Instant;

use permsearch_core::{Dataset, ExhaustiveSearch, Neighbor, Point, SearchIndex, Space};

/// Exact k-NN answers for a query set, plus the measured single-threaded
/// brute-force time — the denominator-side baseline of the paper's
/// "improvement in efficiency".
#[derive(Debug, Clone)]
pub struct GoldStandard {
    /// Exact neighbors per query, sorted by distance.
    pub neighbors: Vec<Vec<Neighbor>>,
    /// Average brute-force time per query, in seconds.
    pub brute_force_secs: f64,
    /// k used.
    pub k: usize,
}

impl GoldStandard {
    /// Exact neighbor ids of query `i`.
    pub fn ids(&self, i: usize) -> Vec<u32> {
        self.neighbors[i].iter().map(|n| n.id).collect()
    }
}

/// Run exact search for every query, timing the scans.
///
/// Gold construction is the slowest step of every harness binary, so the
/// queries are fanned out across all available cores (capped at 8 — the
/// scan is memory-bound and wider pools stop paying). The per-query
/// brute-force baseline stays the paper's *single-threaded* cost: timing
/// scans inside concurrent workers would bake memory-bandwidth contention
/// into the denominator of every "improvement in efficiency" figure, so
/// the baseline is always measured by a separate single-threaded pass over
/// a bounded query sample, whatever the thread count.
pub fn compute_gold<P, S>(data: &Arc<Dataset<P>>, space: S, queries: &[P], k: usize) -> GoldStandard
where
    P: Point,
    S: Space<P::Ref> + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    compute_gold_with_threads(data, space, queries, k, threads)
}

/// [`compute_gold`] with an explicit worker count (`1` runs inline).
/// Results are identical for every thread count; only wall time differs.
pub fn compute_gold_with_threads<P, S>(
    data: &Arc<Dataset<P>>,
    space: S,
    queries: &[P],
    k: usize,
    threads: usize,
) -> GoldStandard
where
    P: Point,
    S: Space<P::Ref> + Sync,
{
    let exact = ExhaustiveSearch::new(data.clone(), space);
    let nq = queries.len();
    let mut neighbors: Vec<Vec<Neighbor>> = Vec::new();
    neighbors.resize_with(nq, Vec::new);
    let threads = threads.max(1).min(nq.max(1));
    if threads == 1 {
        gold_slice(&exact, queries, k, &mut neighbors);
    } else {
        let chunk = nq.div_ceil(threads);
        std::thread::scope(|scope| {
            for (qs, ns) in queries.chunks(chunk).zip(neighbors.chunks_mut(chunk)) {
                let exact = &exact;
                scope.spawn(move || gold_slice(exact, qs, k, ns));
            }
        });
    }
    // Baseline calibration: a bounded, evenly spaced sample re-scanned
    // single-threaded (answers discarded; only the timing is kept). This
    // runs on *every* path, not just the parallel one, so the measurement
    // methodology does not vary with the host's core count and results
    // stay comparable across machines.
    let stride = nq.div_ceil(nq.clamp(1, BASELINE_SAMPLE)).max(1);
    let mut count = 0usize;
    let start = Instant::now();
    for q in queries.iter().step_by(stride) {
        std::hint::black_box(exact.search(q, k));
        count += 1;
    }
    GoldStandard {
        neighbors,
        brute_force_secs: start.elapsed().as_secs_f64() / count.max(1) as f64,
        k,
    }
}

/// Queries re-scanned single-threaded to calibrate `brute_force_secs`
/// (bounded so calibration stays cheap next to gold construction itself).
const BASELINE_SAMPLE: usize = 32;

fn gold_slice<P: Point, S: Space<P::Ref>>(
    exact: &ExhaustiveSearch<P, S>,
    queries: &[P],
    k: usize,
    neighbors: &mut [Vec<Neighbor>],
) {
    // Per-worker scratch: the batched exhaustive scan reuses its heap and
    // kernel buffers across the worker's whole query slice.
    let mut scratch = permsearch_core::SearchScratch::new();
    for (i, q) in queries.iter().enumerate() {
        exact.search_into(q, k, &mut scratch, &mut neighbors[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_spaces::L2;

    #[test]
    fn gold_is_exact_and_sorted() {
        let data = Arc::new(Dataset::new(vec![
            vec![0.0f32],
            vec![3.0],
            vec![1.0],
            vec![2.0],
        ]));
        let queries = vec![vec![0.9f32], vec![2.9f32]];
        let gold = compute_gold(&data, L2, &queries, 2);
        assert_eq!(gold.k, 2);
        assert_eq!(gold.ids(0), vec![2, 0]);
        assert_eq!(gold.ids(1), vec![1, 3]);
        assert!(gold.brute_force_secs >= 0.0);
    }

    #[test]
    fn parallel_gold_matches_sequential() {
        let data = Arc::new(Dataset::new(
            (0..300).map(|i| vec![(i % 31) as f32]).collect::<Vec<_>>(),
        ));
        let queries: Vec<Vec<f32>> = (0..37).map(|i| vec![i as f32 * 0.9]).collect();
        let seq = compute_gold_with_threads(&data, L2, &queries, 4, 1);
        for threads in [2, 3, 5, 16] {
            let par = compute_gold_with_threads(&data, L2, &queries, 4, threads);
            assert_eq!(seq.neighbors, par.neighbors, "threads={threads}");
            assert_eq!(par.k, 4);
        }
    }
}
