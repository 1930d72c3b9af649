//! Dataset partitioning and the sharded index.
//!
//! A [`ShardedIndex`] splits a [`Dataset`] into `S` contiguous shards,
//! builds one (arbitrary, type-erased) index per shard — in parallel, one
//! scoped thread per shard — and answers queries by searching every shard
//! for its local top-k and reducing the per-shard lists with
//! [`merge_sorted_topk`](permsearch_core::merge_sorted_topk). Because the
//! partition is contiguous, the remap from shard-local ids to global ids
//! is a constant offset per shard, and the global `(distance, id)` tie
//! order is preserved exactly (pinned by the `shard_equivalence` property
//! test).
//!
//! The sharded index is itself a [`SearchIndex`], so everything written
//! for single indices — `eval::runner::evaluate`, the property tests, the
//! serving layer — works on it unchanged.

use std::sync::Arc;

use permsearch_core::{
    merge_sorted_topk_with, BoxedSearchIndex, Dataset, Neighbor, SearchIndex, SearchScratch, Stage,
};

/// One shard: a type-erased index over a contiguous slice of the dataset
/// plus the offset mapping its local ids back to global ids.
struct Shard<P> {
    index: BoxedSearchIndex<P>,
    /// Global id of the shard's local id 0.
    base: u32,
}

/// An index over a dataset partitioned into contiguous shards.
pub struct ShardedIndex<P> {
    shards: Vec<Shard<P>>,
    len: usize,
}

impl<P> ShardedIndex<P>
where
    P: Clone + Send + Sync,
{
    /// Partition `data` into at most `num_shards` contiguous shards and
    /// build one index per shard in parallel (one scoped worker each).
    ///
    /// `build_shard` receives the shard ordinal and the shard's dataset
    /// and returns the shard's index; it runs concurrently across shards,
    /// so index constructors that are themselves multi-threaded should be
    /// configured accordingly. When `num_shards` exceeds the number of
    /// points, the extra (empty) shards are simply not created.
    ///
    /// Shards are cut with [`Dataset::subrange`]: for an arena-backed
    /// dense dataset every shard is a contiguous sub-range *view* of the
    /// one parent arena (and of its SQ8 block, when present) — an `Arc`
    /// bump, not a float copy — so the gather-free scoring paths and the
    /// single-allocation float storage both survive sharding. Only nested
    /// (non-arena) datasets clone their slice of owned points, because the
    /// `SearchIndex` builders take whole owned datasets.
    pub fn build<F>(data: &Arc<Dataset<P>>, num_shards: usize, build_shard: F) -> Self
    where
        F: Fn(usize, Arc<Dataset<P>>) -> BoxedSearchIndex<P> + Sync,
    {
        let result: Result<Self, std::convert::Infallible> =
            Self::try_build(data, num_shards, |sid, shard_data| {
                Ok(build_shard(sid, shard_data))
            });
        match result {
            Ok(sharded) => sharded,
            Err(never) => match never {},
        }
    }

    /// Fallible variant of [`build`](Self::build): the per-shard closure
    /// may fail (snapshot I/O, decoding), and the first error — in shard
    /// order — aborts the whole build. Shards still build concurrently,
    /// which is how warm-start restores all shard snapshots in parallel.
    pub fn try_build<F, E>(
        data: &Arc<Dataset<P>>,
        num_shards: usize,
        build_shard: F,
    ) -> Result<Self, E>
    where
        F: Fn(usize, Arc<Dataset<P>>) -> Result<BoxedSearchIndex<P>, E> + Sync,
        E: Send,
    {
        assert!(num_shards > 0, "num_shards must be positive");
        assert!(!data.is_empty(), "cannot shard an empty dataset");
        let n = data.len();
        let chunk = n.div_ceil(num_shards);
        let mut slots: Vec<Option<Result<BoxedSearchIndex<P>, E>>> = Vec::new();
        slots.resize_with(n.div_ceil(chunk), || None);
        // Build in waves of at most the core count so a large shard count
        // (a deployment choice, not a parallelism choice) cannot
        // oversubscribe the machine with concurrent index builds.
        let wave = std::thread::available_parallelism().map_or(1, |c| c.get());
        for (wid, slot_wave) in slots.chunks_mut(wave).enumerate() {
            std::thread::scope(|scope| {
                for (off, slot) in slot_wave.iter_mut().enumerate() {
                    let build_shard = &build_shard;
                    let data = &data;
                    let sid = wid * wave + off;
                    scope.spawn(move || {
                        let start = sid * chunk;
                        let shard_data = data.subrange(start, chunk.min(n - start));
                        *slot = Some(build_shard(sid, Arc::new(shard_data)));
                    });
                }
            });
        }
        let mut shards = Vec::with_capacity(slots.len());
        for (sid, slot) in slots.into_iter().enumerate() {
            shards.push(Shard {
                index: slot.expect("shard built")?,
                base: (sid * chunk) as u32,
            });
        }
        Ok(Self { shards, len: n })
    }
}

impl<P> ShardedIndex<P> {
    /// Number of shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard method name (all shards share it by construction).
    pub fn shard_method(&self) -> &'static str {
        self.shards[0].index.name()
    }

    /// Points indexed by each shard, in shard order (feeds the per-shard
    /// deployment gauges).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.index.len()).collect()
    }
}

impl<P> SearchIndex<P> for ShardedIndex<P> {
    /// Per-shard top-k searches followed by the k-way heap merge: each
    /// shard's `search_into` runs with the shared scratch writing into a
    /// per-shard list reused across queries, and the reduce step is the
    /// scratch-backed k-way merge under the global `(distance, id)` order.
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<Neighbor>,
    ) {
        // Take the list buffers out of the scratch so shard searches can
        // borrow the scratch mutably; they go back after the merge.
        let mut lists = std::mem::take(&mut scratch.lists);
        if lists.len() < self.shards.len() {
            lists.resize_with(self.shards.len(), Vec::new);
        }
        for (shard, local) in self.shards.iter().zip(lists.iter_mut()) {
            if permsearch_core::failpoints::fire("stall:shard") {
                scratch.budget.force_expire();
            }
            // Per-shard budget boundary: an expired query skips the
            // remaining shards and merges what the earlier shards found.
            // Skipped lists must be cleared — they are reused across
            // queries and would otherwise leak a previous query's results
            // into this merge.
            if !scratch.budget.checkpoint() {
                local.clear();
                continue;
            }
            shard.index.search_into(query, k, scratch, local);
            for n in local.iter_mut() {
                n.id += shard.base;
            }
        }
        let t0 = scratch.trace.start();
        merge_sorted_topk_with(&lists[..self.shards.len()], k, scratch, out);
        scratch.trace.finish(Stage::Merge, t0);
        scratch.lists = lists;
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "sharded"
    }

    fn index_size_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.index.index_size_bytes() + std::mem::size_of::<Shard<P>>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permsearch_core::ExhaustiveSearch;
    use permsearch_spaces::L2;

    fn sharded_exhaustive(
        data: &Arc<Dataset<Vec<f32>>>,
        num_shards: usize,
    ) -> ShardedIndex<Vec<f32>> {
        ShardedIndex::build(data, num_shards, |_, shard_data| {
            Box::new(ExhaustiveSearch::new(shard_data, L2))
        })
    }

    #[test]
    fn covers_all_points_and_remaps_ids() {
        let data = Arc::new(Dataset::new(
            (0..10).map(|i| vec![i as f32]).collect::<Vec<_>>(),
        ));
        let idx = sharded_exhaustive(&data, 3);
        assert_eq!(idx.num_shards(), 3);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx.shard_method(), "brute-force");
        let res = idx.search(&vec![9.0f32], 2);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![9, 8]); // global ids, not shard-local ones
    }

    #[test]
    fn more_shards_than_points_degrades_gracefully() {
        let data = Arc::new(Dataset::new(
            (0..3).map(|i| vec![i as f32]).collect::<Vec<_>>(),
        ));
        let idx = sharded_exhaustive(&data, 8);
        assert_eq!(idx.num_shards(), 3);
        assert_eq!(idx.search(&vec![0.0f32], 3).len(), 3);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data: Arc<Dataset<Vec<f32>>> = Arc::new(Dataset::default());
        let _ = sharded_exhaustive(&data, 2);
    }
}
