//! Generational mutable serving: a [`MutableEngine`] accepts inserts and
//! removals while serving queries, without ever rebuilding the immutable
//! base deployment.
//!
//! ## Architecture
//!
//! Queries see three kinds of sources, all reduced by the same k-way
//! merge the sharded index uses:
//!
//! * the **base**: the immutable [`ShardedIndex`](crate::ShardedIndex)
//!   built over the initial dataset (arena shards, snapshots, the whole
//!   warm-start machinery) — never rebuilt, its dead points are masked
//!   by tombstones;
//! * zero or one **frozen segments**: earlier deltas sealed by
//!   compaction and folded into one dense immutable segment;
//! * the **active delta**: a [`MutableIndex`] where every insert lands.
//!
//! Removals are pure bookkeeping: the global id goes into a tombstone
//! set that masks results from every source. Tombstones are **never
//! pruned** — keeping the set append-only is what makes a live engine and
//! a journal replay agree bitwise on the per-source overfetch
//! (`k + tombstones`), at a memory cost bounded by lifetime removals.
//!
//! ## The parity contract
//!
//! The churn-equivalence suite pins two properties, which together give
//! the headline guarantee (post-compaction results equal a rebuilt-from-
//! scratch index, bitwise, ties included):
//!
//! 1. **Mutation visibility**: after any op sequence, queries equal the
//!    same ops replayed into a fresh engine that never compacts.
//! 2. **Compact invariance**: [`force_compact`](MutableEngine::force_compact)
//!    changes no query result.
//!
//! Both hold because every delta generation shares one pivot
//! configuration ([`MutableIndex::empty_like`]): a point's filter
//! candidacy depends only on `(point, query, pivots)`, never on which
//! segment holds it, and per-source lists merge under the total
//! `(distance, id)` order.
//!
//! ## Concurrency
//!
//! One `RwLock` guards the whole mutable state (segment list, delta,
//! tombstones, journal): a query takes one read guard, so it can never
//! observe a torn seal (generation without its delta, or a point served
//! from two sources). Writes take brief write locks. Compaction runs the
//! expensive fold **off-lock** — it seals under one brief write lock,
//! rebuilds on its own thread, and swaps under another — so no query
//! ever blocks on an index build.
//!
//! ## Durability
//!
//! With [`open`](MutableEngine::open), every successful mutation is
//! framed into an append-only journal (`permsearch-store`'s `PSJL`
//! format) *before* it is applied, under the same lock that assigns ids —
//! journal order is id order by construction. Warm start replays the
//! journal over the restored base and reproduces the live engine's
//! results exactly. A journal append failure *refuses* the mutation with
//! a typed [`MutationError`] — the in-memory state is untouched, the
//! write lock is released normally (never poisoned), and the engine
//! keeps serving reads; the partial frame the failure may have left
//! behind is exactly the torn tail recovery already truncates.
//!
//! ## Supervision
//!
//! Compaction can panic (index build bugs, snapshot I/O). The background
//! thread runs every cycle through [`try_compact`](MutableEngine::try_compact),
//! which isolates the panic, counts it in
//! `permsearch_compactions_failed_total`, surfaces the panic text as the
//! `permsearch_compactor_last_error` info gauge, and retries later with
//! capped exponential backoff. A panicked cycle leaves the engine
//! serving a consistent generation: phase 1's seal is atomic under the
//! write lock, and a panic after it merely leaves the sealed segment
//! unfolded — still served, still masked by tombstones.

use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use permsearch_core::snapshot::corrupt;
use permsearch_core::{
    merge_sorted_topk_with, BoxedMutableIndex, Dataset, MutableIndex, PointCodec, SearchIndex,
    SearchScratch, Stage,
};
use permsearch_obs::{Counter, Gauge, MetricsRegistry, ShardedHistogram};
use permsearch_store::{
    append_journal, create_journal, JournalError, JournalRecord, JournalWriter,
};

use crate::engine::{Engine, ShardedEngine, WarmStart};
use crate::metrics::{set_deployment_gauges, ServeMetrics};
use crate::registry::{EngineError, MethodRegistry};
use crate::serve::{serve_batch, ServeOptions, ServeOutput};

/// Journal op tag: insert one point (payload = the point's codec bytes).
pub const OP_INSERT: u8 = 1;
/// Journal op tag: remove one global id (payload = `u32` little-endian).
pub const OP_REMOVE: u8 = 2;

/// Journal kind tag for a delta method's mutation log.
pub fn mutation_kind(delta_method: &str) -> String {
    format!("mutations:{delta_method}")
}

/// Mutation journal file inside a deployment directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("mutations.psjl")
}

/// Snapshot file of the most recently folded segment.
pub fn folded_segment_path(dir: &Path) -> PathBuf {
    dir.join("folded_segment.psnp")
}

/// Container kind tag of folded-segment snapshots.
pub fn segment_kind(delta_method: &str) -> String {
    format!("segment:{delta_method}")
}

/// How local ids of one frozen segment map to global ids.
#[derive(Clone)]
enum SegmentIds {
    /// `global = base + local`: a sealed delta keeps its contiguous run.
    Contiguous(u32),
    /// `global = map[local]`: a folded segment holds an arbitrary live
    /// subset. The map ascends, and folding inserts in ascending global
    /// order, so local `(distance, id)` order equals global order.
    Mapped(Arc<Vec<u32>>),
}

impl SegmentIds {
    #[inline]
    fn global(&self, local: u32) -> u32 {
        match self {
            SegmentIds::Contiguous(base) => base + local,
            SegmentIds::Mapped(map) => map[local as usize],
        }
    }
}

/// A sealed, immutable former delta (or fold of former deltas).
#[derive(Clone)]
struct FrozenSegment<P> {
    index: Arc<BoxedMutableIndex<P>>,
    ids: SegmentIds,
}

/// Everything a query must see atomically. One read guard = one
/// consistent generation: the segment list, the delta those segments do
/// *not* yet contain, and the tombstones masking both.
struct MemState<P> {
    frozen: Vec<FrozenSegment<P>>,
    delta: BoxedMutableIndex<P>,
    /// Global id of the active delta's local id 0. Invariant:
    /// `next_id == delta_base + delta.slot_len()`.
    delta_base: u32,
    /// Removed global ids. Append-only (see module docs).
    tombstones: HashSet<u32>,
    next_id: u32,
    /// Live points across base + frozen + delta.
    live: usize,
    journal: Option<JournalWriter>,
}

/// Compaction trigger policy for the background thread.
#[derive(Debug, Clone)]
pub struct CompactionConfig {
    /// Seal and fold once the active delta holds this many id slots
    /// (clamped to at least 1).
    pub min_delta_slots: usize,
    /// How often the compactor thread polls the trigger.
    pub poll_interval: Duration,
}

impl Default for CompactionConfig {
    fn default() -> Self {
        Self {
            min_delta_slots: 4096,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// Handle to a background compactor thread; stops and joins on drop.
pub struct CompactorHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl CompactorHandle {
    /// Signal the thread and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            // The loop isolates compaction panics itself; a join error
            // would mean the supervisor died, which drop must not
            // escalate into a second panic.
            let _ = thread.join();
        }
    }
}

impl Drop for CompactorHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Result of a [`flush`](MutableServing::flush): the generation after the
/// forced compaction and the live point count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushInfo {
    /// Generation counter after the flush's compaction.
    pub generation: u64,
    /// Live points at flush time.
    pub live: usize,
}

/// A refused mutation: its journal record could not be written, so the
/// in-memory state was left untouched and the engine keeps serving the
/// pre-mutation results. Returned instead of panicking so a storage
/// fault never poisons the state lock.
#[derive(Debug)]
pub struct MutationError {
    op: &'static str,
    source: JournalError,
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} refused: mutation journal: {}", self.op, self.source)
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// How [`MutableEngine::open`] restored its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutableWarmStart {
    /// How the immutable base deployment was obtained.
    pub base: WarmStart,
    /// Mutation records replayed from the journal.
    pub journal_records: usize,
}

/// The object-safe mutation façade the serving layer talks to, layered on
/// [`Engine`] so one trait object serves queries *and* accepts writes.
pub trait MutableServing<P>: Engine<P> {
    /// Insert a batch, returning the assigned global ids in order. A
    /// journal fault stops the batch at the first refused point; the
    /// points before it are applied (the journal holds only successful
    /// ops, so a warm start agrees).
    fn insert_points(&self, points: Vec<P>) -> Result<Vec<u32>, MutationError>;

    /// Remove a batch of global ids; `true` per id that named a live
    /// point. Double-removes and unknown ids report `false` harmlessly.
    /// A journal fault stops the batch at the first refused removal.
    fn remove_ids(&self, ids: &[u32]) -> Result<Vec<bool>, MutationError>;

    /// Sync the journal to disk and force one compaction cycle.
    fn flush(&self) -> Result<FlushInfo, MutationError>;

    /// Completed compaction count (the "generation" queries see).
    fn generation(&self) -> u64;
}

/// A generational mutable engine: immutable sharded base + frozen
/// segments + an active mutable delta, masked by shared tombstones.
pub struct MutableEngine<P> {
    base: ShardedEngine<P>,
    delta_method: String,
    label: String,
    workers: usize,
    state: RwLock<MemState<P>>,
    /// Single-flight guard: at most one compaction runs at a time, so the
    /// segment list can only be reshaped by the thread holding it.
    compacting: Mutex<()>,
    generation: AtomicU64,
    journaled: bool,
    dir: Option<PathBuf>,
    metrics: Option<ServeMetrics>,
    mutation: Option<MutationMetrics>,
}

impl<P> MutableEngine<P>
where
    P: PointCodec + Clone,
{
    /// In-memory construction: build the base deployment with
    /// `base_method` and an empty delta with `delta_method`, both over
    /// `data` (the delta uses it only to sample pivots). No journal.
    #[allow(clippy::too_many_arguments)]
    pub fn from_registry(
        registry: &MethodRegistry<P>,
        base_method: &str,
        delta_method: &str,
        data: &Arc<Dataset<P>>,
        num_shards: usize,
        workers: usize,
        seed: u64,
    ) -> Result<Self, EngineError> {
        let base =
            ShardedEngine::from_registry(registry, base_method, data, num_shards, workers, seed)?;
        let delta = registry.build_mutable(delta_method, data.clone(), seed)?;
        Ok(Self::assemble(
            base,
            base_method,
            delta_method,
            workers,
            delta,
            data.len(),
            None,
            None,
        ))
    }

    /// Durable construction: warm-start the base from `dir` (building and
    /// snapshotting on first run), then replay the mutation journal so the
    /// restored engine answers exactly like the one that wrote it. The
    /// journal's torn tail — a crash mid-append — is recovered by
    /// truncation; checksum corruption on a complete record is refused.
    #[allow(clippy::too_many_arguments)]
    pub fn open(
        registry: &MethodRegistry<P>,
        base_method: &str,
        delta_method: &str,
        data: &Arc<Dataset<P>>,
        num_shards: usize,
        workers: usize,
        seed: u64,
        dir: &Path,
    ) -> Result<(Self, MutableWarmStart), EngineError> {
        let (base, warm) = ShardedEngine::build_or_load(
            registry,
            base_method,
            data,
            num_shards,
            workers,
            seed,
            dir,
        )?;
        let delta = registry.build_mutable(delta_method, data.clone(), seed)?;
        let kind = mutation_kind(delta_method);
        let path = journal_path(dir);
        let wrap = |source| EngineError::Journal {
            method: delta_method.to_string(),
            source,
        };
        let (records, writer) = if path.exists() {
            append_journal(&path, &kind).map_err(wrap)?
        } else {
            (Vec::new(), create_journal(&path, &kind).map_err(wrap)?)
        };
        let engine = Self::assemble(
            base,
            base_method,
            delta_method,
            workers,
            delta,
            data.len(),
            Some(writer),
            Some(dir.to_path_buf()),
        );
        engine.replay(&records)?;
        Ok((
            engine,
            MutableWarmStart {
                base: warm,
                journal_records: records.len(),
            },
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        base: ShardedEngine<P>,
        base_method: &str,
        delta_method: &str,
        workers: usize,
        delta: BoxedMutableIndex<P>,
        base_len: usize,
        journal: Option<JournalWriter>,
        dir: Option<PathBuf>,
    ) -> Self {
        assert!(base_len < u32::MAX as usize, "base exceeds the id space");
        assert_eq!(delta.slot_len(), 0, "delta builder must start empty");
        Self {
            base,
            delta_method: delta_method.to_string(),
            label: format!("{base_method}+{delta_method}"),
            workers: workers.max(1),
            journaled: journal.is_some(),
            state: RwLock::new(MemState {
                frozen: Vec::new(),
                delta,
                delta_base: base_len as u32,
                tombstones: HashSet::new(),
                next_id: base_len as u32,
                live: base_len,
                journal,
            }),
            compacting: Mutex::new(()),
            generation: AtomicU64::new(0),
            dir,
            metrics: None,
            mutation: None,
        }
    }

    /// Set the journal's automatic-fsync cadence: sync after every `n`
    /// appended records (`1` = every record, the durability default for
    /// network serving; `0` = only on flush frames and clean shutdown).
    /// Widening the window trades a bounded number of acknowledged
    /// mutations — at most `n - 1` records, recoverable as a torn tail —
    /// against per-mutation fsync cost. No-op on journal-less engines.
    pub fn set_journal_sync_every(&self, n: u64) {
        let mut st = self.state.write().expect("engine state poisoned");
        if let Some(journal) = st.journal.as_mut() {
            journal.set_sync_every(n);
        }
    }

    /// Insert one point, returning its global id. Ids ascend from the
    /// base size and are never reused. The journal record (when durable)
    /// is framed under the same lock that assigns the id, so journal
    /// order is id order. A journal fault refuses the insert with the
    /// state untouched: the record is framed *before* the point is
    /// applied, and the error return releases the write lock normally.
    pub fn try_insert(&self, point: P) -> Result<u32, MutationError> {
        // Encode outside the lock; only the append itself must serialize.
        let payload = self.journaled.then(|| encode_point(&point));
        let mut st = self.state.write().expect("engine state poisoned");
        let id = st.next_id;
        assert!(id < u32::MAX, "global id space exhausted");
        if let Some(journal) = st.journal.as_mut() {
            journal
                .append(OP_INSERT, &payload.expect("encoded when journaled"))
                .map_err(|source| MutationError {
                    op: "insert",
                    source,
                })?;
        }
        let local = st.delta.insert(point);
        debug_assert_eq!(st.delta_base + local, id);
        st.next_id += 1;
        st.live += 1;
        if let Some(m) = &self.mutation {
            m.on_insert(&st);
        }
        Ok(id)
    }

    /// [`try_insert`](Self::try_insert), panicking on a journal fault.
    pub fn insert(&self, point: P) -> u32 {
        self.try_insert(point)
            .expect("mutation journal append failed")
    }

    /// Remove one global id (base, frozen or delta point alike). Returns
    /// `false` for unknown or already-removed ids, which are journaled as
    /// nothing at all — the journal holds only successful ops. A journal
    /// fault refuses the removal with the state untouched.
    pub fn try_remove(&self, id: u32) -> Result<bool, MutationError> {
        let mut st = self.state.write().expect("engine state poisoned");
        if id >= st.next_id || st.tombstones.contains(&id) {
            return Ok(false);
        }
        if let Some(journal) = st.journal.as_mut() {
            journal
                .append(OP_REMOVE, &id.to_le_bytes())
                .map_err(|source| MutationError {
                    op: "remove",
                    source,
                })?;
        }
        st.tombstones.insert(id);
        st.live -= 1;
        if let Some(m) = &self.mutation {
            m.on_remove(&st);
        }
        Ok(true)
    }

    /// [`try_remove`](Self::try_remove), panicking on a journal fault.
    pub fn remove(&self, id: u32) -> bool {
        self.try_remove(id).expect("mutation journal append failed")
    }

    /// Apply replayed journal records without re-journaling them. The
    /// journal holds only successful ops, so a replay that would fail
    /// (out-of-range or double remove) means the file is corrupt in a way
    /// the checksums cannot see — refused, never patched over.
    fn replay(&self, records: &[JournalRecord]) -> Result<(), EngineError> {
        let wrap = |msg: String| EngineError::Snapshot {
            method: self.delta_method.clone(),
            source: corrupt(msg),
        };
        let mut st = self.state.write().expect("engine state poisoned");
        for (i, rec) in records.iter().enumerate() {
            match rec.op {
                OP_INSERT => {
                    let mut r = rec.payload.as_slice();
                    let point = P::read_point(&mut r).map_err(|source| EngineError::Snapshot {
                        method: self.delta_method.clone(),
                        source,
                    })?;
                    if !r.is_empty() {
                        return Err(wrap(format!(
                            "journal record {i}: {} trailing bytes after the point",
                            r.len()
                        )));
                    }
                    st.delta.insert(point);
                    st.next_id += 1;
                    st.live += 1;
                }
                OP_REMOVE => {
                    let bytes: [u8; 4] = rec.payload.as_slice().try_into().map_err(|_| {
                        wrap(format!(
                            "journal record {i}: remove payload is {} bytes, want 4",
                            rec.payload.len()
                        ))
                    })?;
                    let id = u32::from_le_bytes(bytes);
                    if id >= st.next_id || !st.tombstones.insert(id) {
                        return Err(wrap(format!(
                            "journal record {i}: remove of id {id} cannot have succeeded"
                        )));
                    }
                    st.live -= 1;
                }
                op => {
                    return Err(wrap(format!("journal record {i}: unknown op {op}")));
                }
            }
        }
        Ok(())
    }

    /// Run one full compaction cycle — seal, fold, snapshot, swap —
    /// regardless of the trigger policy, returning the generation after
    /// it. No-op (generation unchanged) when there is nothing to seal or
    /// fold. Holds the single-flight lock, so concurrent callers queue.
    ///
    /// Queries never block on the fold: the expensive rebuild runs
    /// between two brief write-locked swaps, and a query in flight keeps
    /// serving the pre-seal generation through its own read guard.
    pub fn force_compact(&self) -> u64 {
        // A panicked earlier cycle poisons this mutex but leaves the
        // engine consistent (see `try_compact`); single-flight is all the
        // guard provides, so poisoning is recoverable here.
        let _flight = self
            .compacting
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let started = Instant::now();
        // Phase 1 — seal the active delta (brief write lock). New writes
        // land in an identically-configured empty twin.
        let (segments, tombstones) = {
            let mut st = self.state.write().expect("engine state poisoned");
            if st.delta.slot_len() > 0 {
                let empty = st.delta.empty_like();
                let sealed = std::mem::replace(&mut st.delta, empty);
                let base = st.delta_base;
                st.delta_base = st.next_id;
                st.frozen.push(FrozenSegment {
                    index: Arc::new(sealed),
                    ids: SegmentIds::Contiguous(base),
                });
            }
            if st.frozen.is_empty() {
                return self.generation.load(Ordering::Acquire);
            }
            (st.frozen.clone(), st.tombstones.clone())
        };
        // Phase 2 — fold off-lock: gather survivors in ascending global
        // id order and rebuild one dense segment. Removals that land
        // *during* the fold are not lost: tombstones are never pruned, so
        // they keep masking the folded segment after the swap.
        if permsearch_core::failpoints::fire("compactor_panic") {
            panic!("failpoint compactor_panic");
        }
        let mut entries: Vec<(u32, P)> = Vec::new();
        for seg in &segments {
            for (local, point) in seg.index.live_entries() {
                let id = seg.ids.global(local);
                if !tombstones.contains(&id) {
                    entries.push((id, point));
                }
            }
        }
        entries.sort_by_key(|&(id, _)| id);
        let folded = if entries.is_empty() {
            None
        } else {
            let mut index = segments[0].index.empty_like();
            let mut ids = Vec::with_capacity(entries.len());
            for (id, point) in entries {
                ids.push(id);
                index.insert(point);
            }
            Some(FrozenSegment {
                index: Arc::new(index),
                ids: SegmentIds::Mapped(Arc::new(ids)),
            })
        };
        // Phase 3 — snapshot the fresh segment (still off-lock).
        if let (Some(dir), Some(seg)) = (&self.dir, &folded) {
            permsearch_store::save_to_file(
                &folded_segment_path(dir),
                &segment_kind(&self.delta_method),
                |w| seg.index.write_snapshot_dyn(w),
            )
            .expect("folded-segment snapshot write failed");
        }
        // Phase 4 — swap (brief write lock). Only compaction reshapes the
        // segment list and we hold the single-flight lock, so the list is
        // exactly the one sealed in phase 1.
        {
            let mut st = self.state.write().expect("engine state poisoned");
            st.frozen.clear();
            st.frozen.extend(folded);
        }
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(m) = &self.mutation {
            let st = self.state.read().expect("engine state poisoned");
            m.on_compaction(started.elapsed(), generation, &st);
        }
        generation
    }

    /// [`force_compact`](Self::force_compact) with panic isolation: a
    /// cycle that panics is counted in
    /// `permsearch_compactions_failed_total`, its panic text becomes the
    /// `permsearch_compactor_last_error` info gauge, and the engine keeps
    /// serving. The interrupted cycle leaves a consistent generation —
    /// phase 1's seal either happened atomically or not at all, and a
    /// sealed-but-unfolded segment is served like any other frozen
    /// segment until the next cycle folds it.
    pub fn try_compact(&self) -> Result<u64, String> {
        match catch_unwind(AssertUnwindSafe(|| self.force_compact())) {
            Ok(generation) => Ok(generation),
            Err(payload) => {
                let text = panic_text(payload.as_ref());
                if let Some(m) = &self.mutation {
                    m.on_compaction_failure(&text);
                }
                Err(text)
            }
        }
    }

    /// Whether the background trigger policy wants a compaction now.
    fn wants_compaction(&self, config: &CompactionConfig) -> bool {
        let st = self.state.read().expect("engine state poisoned");
        st.delta.slot_len() >= config.min_delta_slots.max(1)
    }

    /// Spawn the background compaction thread. It polls the trigger every
    /// `poll_interval` and runs [`try_compact`](Self::try_compact) when
    /// the delta outgrows `min_delta_slots` — a panicked cycle is
    /// isolated, counted, and retried with exponential backoff capped at
    /// 64 poll intervals (reset by the first successful cycle). The
    /// returned handle stops and joins the thread on drop; the thread
    /// holds only a weak reference, so dropping the engine also ends it.
    pub fn spawn_compactor(self: &Arc<Self>, config: CompactionConfig) -> CompactorHandle
    where
        P: 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let weak = Arc::downgrade(self);
        let thread = std::thread::Builder::new()
            .name("permsearch-compactor".into())
            .spawn(move || {
                let mut failures: u32 = 0;
                while !flag.load(Ordering::Acquire) {
                    let Some(engine) = weak.upgrade() else { return };
                    if engine.wants_compaction(&config) {
                        failures = match engine.try_compact() {
                            Ok(_) => 0,
                            Err(_) => (failures + 1).min(6),
                        };
                    }
                    drop(engine);
                    std::thread::sleep(config.poll_interval * (1u32 << failures));
                }
            })
            .expect("failed to spawn the compactor thread");
        CompactorHandle {
            stop,
            thread: Some(thread),
        }
    }

    /// Sync the journal to disk (when durable) and force one compaction.
    /// An fsync fault refuses the flush without poisoning the state lock.
    pub fn try_flush(&self) -> Result<FlushInfo, MutationError> {
        {
            let mut st = self.state.write().expect("engine state poisoned");
            if let Some(journal) = st.journal.as_mut() {
                journal.sync().map_err(|source| MutationError {
                    op: "flush",
                    source,
                })?;
            }
        }
        let generation = self.force_compact();
        Ok(FlushInfo {
            generation,
            live: SearchIndex::len(self),
        })
    }

    /// [`try_flush`](Self::try_flush), panicking on a journal fault.
    pub fn flush(&self) -> FlushInfo {
        self.try_flush().expect("mutation journal sync failed")
    }

    /// Completed compactions (bumped once per seal-fold-swap cycle).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Current tombstone count — also the per-source overfetch margin.
    pub fn tombstone_count(&self) -> usize {
        self.state
            .read()
            .expect("engine state poisoned")
            .tombstones
            .len()
    }

    /// Id slots in the active delta (live + removed-but-slotted).
    pub fn delta_slots(&self) -> usize {
        self.state
            .read()
            .expect("engine state poisoned")
            .delta
            .slot_len()
    }

    /// Frozen segments currently served (0 or 1 outside a compaction).
    pub fn frozen_segments(&self) -> usize {
        self.state
            .read()
            .expect("engine state poisoned")
            .frozen
            .len()
    }

    /// Register serving and mutation metric families under this engine's
    /// method label and start updating the deployment gauges. Takes the
    /// registry by `Arc` (unlike the immutable engine) because compactor
    /// failure reporting registers its error-labeled info gauge lazily,
    /// at failure time.
    pub fn attach_metrics(
        &mut self,
        registry: &Arc<MetricsRegistry>,
        sample_every: usize,
    ) -> &ServeMetrics {
        let metrics = ServeMetrics::register(registry, &self.label, self.workers, sample_every);
        let mutation = MutationMetrics::register(registry, &self.label);
        {
            let st = self.state.read().expect("engine state poisoned");
            mutation.set_gauges(self.generation(), &st);
        }
        set_deployment_gauges(
            registry,
            &self.label,
            SearchIndex::len(self.base.sharded()),
            &self.base.sharded().shard_lens(),
        );
        self.mutation = Some(mutation);
        self.metrics.insert(metrics)
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Encode one point into its journal payload.
fn encode_point<P: PointCodec>(point: &P) -> Vec<u8> {
    let mut buf = Vec::new();
    point
        .write_point(&mut buf)
        .expect("in-memory point encoding cannot fail");
    buf
}

impl<P> SearchIndex<P> for MutableEngine<P>
where
    P: PointCodec + Clone,
{
    /// The generational merge. Every source is overfetched by the
    /// tombstone count — at most that many dead entries can precede the
    /// k-th live result — masked, remapped to global ids, and reduced by
    /// the k-way merge under the total `(distance, id)` order. One read
    /// guard covers the whole query; the per-source lists live in
    /// `scratch.gen_lists` (separate from `lists`, which the base's own
    /// sharded reduce uses inside this same query).
    fn search_into(
        &self,
        query: &P,
        k: usize,
        scratch: &mut SearchScratch,
        out: &mut Vec<permsearch_core::Neighbor>,
    ) {
        out.clear();
        let st = self.state.read().expect("engine state poisoned");
        if st.live == 0 {
            return;
        }
        let k_fetch = k + st.tombstones.len();
        let sources = 2 + st.frozen.len();
        let mut lists = std::mem::take(&mut scratch.gen_lists);
        if lists.len() < sources {
            lists.resize_with(sources, Vec::new);
        }
        // Each source is a deadline boundary: once the budget cuts, the
        // remaining sources are skipped and the merge reduces whatever
        // was gathered. Skipped lists must be cleared — they are reused
        // across queries and would leak a previous answer into the merge.
        if scratch.budget.checkpoint() {
            self.base
                .sharded()
                .search_into(query, k_fetch, scratch, &mut lists[0]);
            lists[0].retain(|n| !st.tombstones.contains(&n.id));
        } else {
            lists[0].clear();
        }
        for (si, seg) in st.frozen.iter().enumerate() {
            let list = &mut lists[1 + si];
            if !scratch.budget.checkpoint() {
                list.clear();
                continue;
            }
            seg.index.search_into(query, k_fetch, scratch, list);
            for n in list.iter_mut() {
                n.id = seg.ids.global(n.id);
            }
            list.retain(|n| !st.tombstones.contains(&n.id));
        }
        let last = sources - 1;
        let delta_base = st.delta_base;
        if scratch.budget.checkpoint() {
            st.delta
                .search_into(query, k_fetch, scratch, &mut lists[last]);
            for n in lists[last].iter_mut() {
                n.id += delta_base;
            }
            lists[last].retain(|n| !st.tombstones.contains(&n.id));
        } else {
            lists[last].clear();
        }
        let t0 = scratch.trace.start();
        merge_sorted_topk_with(&lists[..sources], k, scratch, out);
        scratch.trace.finish(Stage::Merge, t0);
        scratch.gen_lists = lists;
    }

    fn len(&self) -> usize {
        self.state.read().expect("engine state poisoned").live
    }

    fn name(&self) -> &'static str {
        "generational"
    }

    fn index_size_bytes(&self) -> usize {
        let st = self.state.read().expect("engine state poisoned");
        self.base.sharded().index_size_bytes()
            + st.frozen
                .iter()
                .map(|s| s.index.index_size_bytes())
                .sum::<usize>()
            + st.delta.index_size_bytes()
            + st.tombstones.len() * std::mem::size_of::<u32>()
    }
}

impl<P> Engine<P> for MutableEngine<P>
where
    P: PointCodec + Clone,
{
    fn serve_opts(&self, queries: &[P], k: usize, options: &ServeOptions) -> ServeOutput {
        serve_batch(
            self,
            queries,
            k,
            self.workers,
            self.metrics.as_ref(),
            options,
        )
    }

    fn method(&self) -> &str {
        &self.label
    }

    /// Base shards plus frozen segments plus the active delta.
    fn num_shards(&self) -> usize {
        self.base.num_shards() + self.frozen_segments() + 1
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn len(&self) -> usize {
        SearchIndex::len(self)
    }
}

impl<P> MutableServing<P> for MutableEngine<P>
where
    P: PointCodec + Clone,
{
    fn insert_points(&self, points: Vec<P>) -> Result<Vec<u32>, MutationError> {
        points.into_iter().map(|p| self.try_insert(p)).collect()
    }

    fn remove_ids(&self, ids: &[u32]) -> Result<Vec<bool>, MutationError> {
        ids.iter().map(|&id| self.try_remove(id)).collect()
    }

    fn flush(&self) -> Result<FlushInfo, MutationError> {
        self.try_flush()
    }

    fn generation(&self) -> u64 {
        MutableEngine::generation(self)
    }
}

/// Pre-resolved mutation metric handles for one engine label.
///
/// | family | kind | meaning |
/// |---|---|---|
/// | `permsearch_inserts_total` | counter | points inserted |
/// | `permsearch_removes_total` | counter | successful removals |
/// | `permsearch_compactions_total` | counter | completed seal-fold-swap cycles |
/// | `permsearch_compactions_failed_total` | counter | compaction cycles that panicked (isolated, retried) |
/// | `permsearch_compactor_last_error` | gauge | info gauge: 1 on the `error` label of the latest failure |
/// | `permsearch_compaction_duration_seconds` | summary | wall time per compaction |
/// | `permsearch_generation` | gauge | completed compaction count |
/// | `permsearch_live_points` | gauge | live points across all sources |
/// | `permsearch_delta_slots` | gauge | id slots in the active delta |
/// | `permsearch_tombstones` | gauge | accumulated removed ids |
/// | `permsearch_frozen_segments` | gauge | sealed segments being served |
#[derive(Debug, Clone)]
pub struct MutationMetrics {
    inserts_total: Arc<Counter>,
    removes_total: Arc<Counter>,
    compactions_total: Arc<Counter>,
    compactions_failed_total: Arc<Counter>,
    compaction_duration: Arc<ShardedHistogram>,
    generation: Arc<Gauge>,
    live_points: Arc<Gauge>,
    delta_slots: Arc<Gauge>,
    tombstones: Arc<Gauge>,
    frozen_segments: Arc<Gauge>,
    /// Kept for lazy registration of the error-labeled info gauge.
    registry: Arc<MetricsRegistry>,
    method: String,
    /// The currently-raised `permsearch_compactor_last_error` series, so
    /// a new error can lower the previous one before raising its own.
    last_error: Arc<Mutex<RaisedError>>,
}

/// The raised last-error series: sanitized error label and its gauge.
type RaisedError = Option<(String, Arc<Gauge>)>;

impl MutationMetrics {
    /// Register (or re-resolve) the mutation families for `method`.
    pub fn register(registry: &Arc<MetricsRegistry>, method: &str) -> Self {
        let m: &[(&str, &str)] = &[("method", method)];
        Self {
            registry: Arc::clone(registry),
            method: method.to_string(),
            last_error: Arc::new(Mutex::new(None)),
            inserts_total: registry.counter("permsearch_inserts_total", "Points inserted.", m),
            removes_total: registry.counter(
                "permsearch_removes_total",
                "Successful point removals.",
                m,
            ),
            compactions_total: registry.counter(
                "permsearch_compactions_total",
                "Completed compaction cycles (seal, fold, swap).",
                m,
            ),
            compactions_failed_total: registry.counter(
                "permsearch_compactions_failed_total",
                "Compaction cycles that panicked; isolated and retried with backoff.",
                m,
            ),
            compaction_duration: registry.histogram(
                "permsearch_compaction_duration_seconds",
                "Wall time of one compaction cycle.",
                m,
                1,
            ),
            generation: registry.gauge(
                "permsearch_generation",
                "Completed compaction count (the serving generation).",
                m,
            ),
            live_points: registry.gauge(
                "permsearch_live_points",
                "Live points across base, frozen segments and delta.",
                m,
            ),
            delta_slots: registry.gauge(
                "permsearch_delta_slots",
                "Id slots in the active mutable delta.",
                m,
            ),
            tombstones: registry.gauge(
                "permsearch_tombstones",
                "Accumulated removed ids masking every source.",
                m,
            ),
            frozen_segments: registry.gauge(
                "permsearch_frozen_segments",
                "Sealed immutable segments currently served.",
                m,
            ),
        }
    }

    fn set_gauges<P>(&self, generation: u64, st: &MemState<P>) {
        self.generation.set(generation as i64);
        self.live_points.set(st.live as i64);
        self.delta_slots.set(st.delta.slot_len() as i64);
        self.tombstones.set(st.tombstones.len() as i64);
        self.frozen_segments.set(st.frozen.len() as i64);
    }

    fn on_insert<P>(&self, st: &MemState<P>) {
        self.inserts_total.inc();
        self.live_points.set(st.live as i64);
        self.delta_slots.set(st.delta.slot_len() as i64);
    }

    fn on_remove<P>(&self, st: &MemState<P>) {
        self.removes_total.inc();
        self.live_points.set(st.live as i64);
        self.tombstones.set(st.tombstones.len() as i64);
    }

    fn on_compaction<P>(&self, elapsed: Duration, generation: u64, st: &MemState<P>) {
        self.compactions_total.inc();
        self.compaction_duration
            .record(0, elapsed.as_nanos() as u64);
        self.set_gauges(generation, st);
    }

    /// Count one isolated compaction panic and surface its text as the
    /// `permsearch_compactor_last_error{method, error}` info gauge: the
    /// newest failure's series reads 1, any previous one drops to 0.
    /// Cardinality stays bounded because panic texts come from a small
    /// fixed set of `panic!`/`expect` sites, not from per-item data.
    fn on_compaction_failure(&self, text: &str) {
        self.compactions_failed_total.inc();
        let label = error_label(text);
        let mut slot = self
            .last_error
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some((current, gauge)) = slot.as_ref() {
            if *current == label {
                return;
            }
            gauge.set(0);
        }
        let gauge = self.registry.gauge(
            "permsearch_compactor_last_error",
            "Info gauge: 1 on the error label of the latest compaction failure.",
            &[("method", &self.method), ("error", &label)],
        );
        gauge.set(1);
        *slot = Some((label, gauge));
    }
}

/// Squash a panic text into a label-safe value: control characters,
/// quotes and backslashes become spaces, and the text is capped at 96
/// bytes so an exotic payload cannot bloat the exposition.
fn error_label(text: &str) -> String {
    let mut label: String = text
        .chars()
        .map(|c| {
            if c.is_control() || c == '"' || c == '\\' {
                ' '
            } else {
                c
            }
        })
        .take(96)
        .collect();
    if label.is_empty() {
        label.push_str("unknown");
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::dense_l2_registry;
    use permsearch_core::Neighbor;

    fn grid(n: usize) -> Arc<Dataset<Vec<f32>>> {
        Arc::new(Dataset::new(
            (0..n)
                .map(|i| vec![(i % 13) as f32, (i / 13) as f32])
                .collect::<Vec<_>>(),
        ))
    }

    fn queries() -> Vec<Vec<f32>> {
        (0..12)
            .map(|i| vec![(i % 4) as f32 + 0.25, (i / 4) as f32 + 0.5])
            .collect()
    }

    fn engine(data: &Arc<Dataset<Vec<f32>>>) -> MutableEngine<Vec<f32>> {
        let reg = dense_l2_registry();
        MutableEngine::from_registry(&reg, "napp", "dynamic-napp", data, 3, 2, 42).unwrap()
    }

    fn all_results(e: &MutableEngine<Vec<f32>>, k: usize) -> Vec<Vec<Neighbor>> {
        queries().iter().map(|q| e.search(q, k)).collect()
    }

    #[test]
    fn inserts_and_removes_are_immediately_visible() {
        let data = grid(150);
        let e = engine(&data);
        assert_eq!(Engine::len(&e), 150);
        let id = e.insert(vec![100.0, 100.0]);
        assert_eq!(id, 150);
        let res = e.search(&vec![100.0f32, 100.0], 1);
        assert_eq!(res[0].id, 150);
        assert_eq!(res[0].dist, 0.0);
        // Remove a base point and the fresh insert; both vanish.
        assert!(e.remove(0));
        assert!(e.remove(150));
        assert!(!e.remove(150), "double remove reports false");
        assert!(!e.remove(9999), "unknown id reports false");
        assert_eq!(Engine::len(&e), 149);
        let res = e.search(&vec![100.0f32, 100.0], 3);
        assert!(res.iter().all(|n| n.id != 150 && n.id != 0));
    }

    #[test]
    fn compaction_changes_no_result_bitwise() {
        let data = grid(200);
        let e = engine(&data);
        for i in 0..40 {
            e.insert(vec![(i % 7) as f32 + 0.1, (i / 7) as f32 + 0.2]);
        }
        for id in [3u32, 77, 205, 210, 230] {
            assert!(e.remove(id));
        }
        let before = all_results(&e, 10);
        assert_eq!(e.generation(), 0);
        let g1 = e.force_compact();
        assert_eq!(g1, 1);
        assert_eq!(
            all_results(&e, 10),
            before,
            "first compaction changed results"
        );
        assert_eq!(e.delta_slots(), 0);
        assert_eq!(e.frozen_segments(), 1);
        // Mutate across the generation boundary and compact again.
        for i in 0..10 {
            e.insert(vec![i as f32 * 0.3, 2.0]);
        }
        assert!(e.remove(241));
        let mid = all_results(&e, 10);
        let g2 = e.force_compact();
        assert_eq!(g2, 2);
        assert_eq!(
            all_results(&e, 10),
            mid,
            "second compaction changed results"
        );
        // Compacting an untouched engine is a generation no-op.
        let e2 = engine(&grid(50));
        assert_eq!(e2.force_compact(), 0);
    }

    #[test]
    fn matches_never_compacted_oracle_bitwise() {
        let data = grid(180);
        let live = engine(&data);
        let oracle = engine(&data);
        // Same op log, different compaction schedules.
        let mut id_log = Vec::new();
        for i in 0..60 {
            let p = vec![(i % 9) as f32 + 0.15, (i / 9) as f32 + 0.45];
            assert_eq!(live.insert(p.clone()), oracle.insert(p));
            if i == 20 || i == 45 {
                live.force_compact();
            }
            if i % 7 == 3 {
                let victim = (i * 5 % 180) as u32;
                assert_eq!(live.remove(victim), oracle.remove(victim));
                id_log.push(victim);
            }
        }
        live.force_compact();
        assert_eq!(oracle.generation(), 0);
        assert!(live.generation() >= 3);
        for k in [1, 5, 17] {
            assert_eq!(
                all_results(&live, k),
                all_results(&oracle, k),
                "k={k}: compacted engine diverged from the never-compacted oracle"
            );
        }
    }

    #[test]
    fn all_inserted_points_removed_leaves_base_only() {
        let data = grid(90);
        let e = engine(&data);
        let baseline = all_results(&e, 8);
        let ids: Vec<u32> = (0..25)
            .map(|i| e.insert(vec![50.0 + i as f32, 0.0]))
            .collect();
        for id in &ids {
            assert!(e.remove(*id));
        }
        assert_eq!(Engine::len(&e), 90);
        assert_eq!(all_results(&e, 8), baseline, "masked deltas leaked");
        e.force_compact();
        // Every sealed point was dead: the fold produces no segment.
        assert_eq!(e.frozen_segments(), 0);
        assert_eq!(all_results(&e, 8), baseline, "post-fold results diverged");
    }

    #[test]
    fn background_compactor_triggers_and_stops() {
        let data = grid(100);
        let e = Arc::new(engine(&data));
        let handle = e.spawn_compactor(CompactionConfig {
            min_delta_slots: 8,
            poll_interval: Duration::from_millis(5),
        });
        for i in 0..64 {
            e.insert(vec![i as f32 * 0.01, 1.0]);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while e.generation() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(e.generation() > 0, "compactor never fired");
        handle.stop();
        let resting = e.generation();
        // Below the trigger, nothing more happens.
        e.insert(vec![0.5, 0.5]);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(e.generation(), resting);
    }

    #[test]
    fn serves_batches_and_reports_generational_shape() {
        let data = grid(120);
        let mut e = engine(&data);
        let registry = Arc::new(MetricsRegistry::new());
        e.attach_metrics(&registry, 4);
        for i in 0..30 {
            e.insert(vec![i as f32 * 0.2, 0.7]);
        }
        e.remove(5);
        e.force_compact();
        let out = Engine::serve(&e, &queries(), 6);
        assert_eq!(out.results.len(), 12);
        assert!(out.results.iter().all(|r| r.len() == 6));
        assert_eq!(e.method(), "napp+dynamic-napp");
        // 3 base shards + 1 frozen segment + the active delta.
        assert_eq!(Engine::num_shards(&e), 5);
        let text = registry.render_text();
        assert!(text.contains("permsearch_inserts_total"), "{text}");
        assert!(text.contains("permsearch_compactions_total"), "{text}");
        assert!(text.contains("permsearch_generation"), "{text}");
        permsearch_obs::validate_text(&text).expect("mutation exposition parses");
    }
}
