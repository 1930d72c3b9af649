//! `churn`: an in-process `MutableEngine::open` deployment (2-shard NAPP
//! base over sift-like points, `dynamic-napp` delta, every mutation
//! journaled, the journal fsynced at each flush) driven by one thread
//! through a seeded op stream of fixed
//! length: single-query `Engine::serve` searches interleaved with
//! `insert_points` and `remove_ids` (70/15/15 by op count), a `flush()`
//! after every fixed number of mutations, and deletes that accumulate to a
//! quarter of the base. A fixed op count, rather than a fixed time, makes
//! the tombstone trajectory the same on every run.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::slice;
use std::sync::Arc;
use std::time::Instant;

use permsearch_core::rng::seeded_rng;
use permsearch_core::{CountedSpace, Dataset, Neighbor, SearchIndex, Space, STAGES};
use permsearch_engine::{
    journal_path, standard_registry, Engine, MetricsRegistry, MutableEngine, MutableServing,
};
use permsearch_eval::recall_vs;
use permsearch_obs::mean;
use permsearch_spaces::L2;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::layers::{set_stage_metrics, traced_between, Scrape};
use crate::report::Report;
use crate::stats::{median, quantile, rss_mb};
use crate::{inputs, Opts, CORPUS_SEED};

const K: usize = 10;
const SHARDS: usize = 2;
const WORKERS: usize = 2;
/// Ops in the stream per second of `--seconds`.
const OPS_PER_SECOND: f64 = 400.0;
/// Flush checkpoints over the stream.
const CHECKPOINTS: usize = 8;
/// Queries scored against exact search over the live set at a checkpoint.
const GOLD_SAMPLE: usize = 20;
const RECALL_FLOOR: f64 = 0.9;
/// Searches per side of the traced/untraced comparison.
const OVERHEAD_SEARCHES: usize = 400;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Search,
    Insert,
    Delete,
}

/// A fresh directory under the working directory for one deployment.
fn journal_dir(tag: usize) -> PathBuf {
    let dir = PathBuf::from(".perfbench_tmp").join(format!("churn-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    dir
}

fn open<S>(
    space: S,
    points: Vec<Vec<f32>>,
    dir: &Path,
    traced: Option<&Arc<MetricsRegistry>>,
) -> (MutableEngine<Vec<f32>>, f64)
where
    S: Space<[f32]> + Clone + Send + Sync + 'static,
{
    let t = Instant::now();
    let data = Arc::new(Dataset::new_flat(points));
    let registry = standard_registry(space);
    let (mut engine, _) = MutableEngine::open(
        &registry,
        "napp",
        "dynamic-napp",
        &data,
        SHARDS,
        WORKERS,
        CORPUS_SEED,
        dir,
    )
    .expect("open the mutable deployment");
    // Every record is appended to the journal, and `flush()` fsyncs it.
    // The daemon's policy, an fsync after every record, made the disk's
    // latency swing every timing of the run, searches included: five runs
    // of one seed spread by 0.31 on `query_p99_us` and 0.16 on `qps`,
    // against 0.09 and 0.04 with this policy.
    engine.set_journal_sync_every(0);
    if let Some(metrics) = traced {
        engine.attach_metrics(metrics, 1);
    }
    let secs = t.elapsed().as_secs_f64();
    (engine, secs)
}

pub fn run(opts: &Opts) -> Report {
    let mut r = Report::new(opts);
    let (n, q) = (opts.scale.n, opts.scale.queries);
    let n_ops = ((opts.seconds * OPS_PER_SECOND).round() as usize).max(40);
    let n_delete_ops = n_ops * 15 / 100;
    let n_insert_ops = n_ops * 15 / 100;
    let batch = ((n / 4) / n_delete_ops.max(1)).max(1);
    let flush_every = ((n_delete_ops + n_insert_ops) / CHECKPOINTS).max(1);

    let fresh = n_insert_ops * batch;
    let (points, mut queries) = inputs(permsearch_datasets::sift_like(), n, q + fresh, opts.seed);
    let inserts = queries.split_off(q);

    record_config(&mut r, n_ops, batch, flush_every);

    let mut setup_s = Vec::new();
    let mut plain = None;
    for i in 0..opts.scale.setups {
        if let Some((engine, dir)) = plain.take() {
            drop(engine);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = journal_dir(i);
        let (engine, secs) = open(L2, points.clone(), &dir, None);
        setup_s.push(secs);
        plain = Some((engine, dir));
    }
    eprintln!("[setup] {setup_s:.3?} s");
    r.set("setup_s", median(&setup_s));
    let (plain, plain_dir) = plain.expect("at least one set-up");

    // The traced run drives a second deployment over a counting space with
    // every query traced, after comparing its search speed with the plain
    // one on the same (fresh) state.
    let metrics = Arc::new(MetricsRegistry::new());
    let counted = CountedSpace::new(L2);
    let traced_dir = journal_dir(opts.scale.setups);
    let engine = if opts.trace {
        let (traced, _) = open(counted.clone(), points.clone(), &traced_dir, Some(&metrics));
        let overhead = search_overhead(&plain, &traced, &queries);
        r.set("bench.trace_overhead_pct", overhead);
        drop(plain);
        traced
    } else {
        plain
    };

    // The op stream: exact op counts, shuffled by the seed.
    let mut rng = seeded_rng(opts.seed ^ 0xC4_0412);
    let mut ops = vec![Op::Search; n_ops - n_delete_ops - n_insert_ops];
    ops.extend(std::iter::repeat_n(Op::Insert, n_insert_ops));
    ops.extend(std::iter::repeat_n(Op::Delete, n_delete_ops));
    ops.shuffle(&mut rng);

    // Mirror of the live set for exact gold: id -> point, plus live ids.
    let mut by_id: Vec<Vec<f32>> = points;
    let mut live: Vec<u32> = (0..by_id.len() as u32).collect();
    let mut removed: HashSet<u32> = HashSet::new();
    let mut inserts = inserts.into_iter();

    let mut search_us = Vec::new();
    let mut insert_us = Vec::new();
    let mut delete_us = Vec::new();
    let mut flush_ms = Vec::new();
    let mut k_fetch = Vec::new();
    let mut segments_max = 0usize;
    let mut search_dists = 0u64;
    let mut leaked = 0usize;
    let mut refused = 0u64;
    let mut recalls = Vec::new();
    let mut mutations = 0usize;
    let mut attempted = 0u64;
    let before = Scrape::parse(&metrics.render_text());

    for (i, &op) in ops.iter().enumerate() {
        attempted += 1;
        match op {
            Op::Search => {
                let query = &queries[i % queries.len()];
                k_fetch.push((K + engine.tombstone_count()) as f64);
                let c0 = counted.count();
                let t = Instant::now();
                let out = engine.serve(slice::from_ref(query), K);
                search_us.push(t.elapsed().as_secs_f64() * 1e6);
                search_dists += counted.count() - c0;
                leaked += out.results[0]
                    .iter()
                    .filter(|nb| removed.contains(&nb.id))
                    .count();
            }
            Op::Insert => {
                let fresh: Vec<Vec<f32>> = inserts.by_ref().take(batch).collect();
                let t = Instant::now();
                let result = engine.insert_points(fresh.clone());
                insert_us.push(t.elapsed().as_secs_f64() * 1e6);
                match result {
                    Ok(ids) => {
                        for (id, p) in ids.into_iter().zip(fresh) {
                            assert_eq!(id as usize, by_id.len(), "ids ascend from the base size");
                            by_id.push(p);
                            live.push(id);
                        }
                    }
                    Err(e) => {
                        eprintln!("[churn] insert refused: {e}");
                        refused += 1;
                    }
                }
                mutations += 1;
            }
            Op::Delete => {
                let victims: Vec<u32> = (0..batch.min(live.len()))
                    .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
                    .collect();
                let t = Instant::now();
                let result = engine.remove_ids(&victims);
                delete_us.push(t.elapsed().as_secs_f64() * 1e6);
                match result {
                    Ok(flags) if flags.iter().all(|&f| f) => removed.extend(victims),
                    other => {
                        eprintln!("[churn] delete refused or missed: {:?}", other.err());
                        refused += 1;
                    }
                }
                mutations += 1;
            }
        }
        segments_max = segments_max.max(engine.frozen_segments() + 1);
        if matches!(op, Op::Insert | Op::Delete) && mutations.is_multiple_of(flush_every) {
            attempted += 1;
            let t = Instant::now();
            let flushed = MutableServing::flush(&engine);
            flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
            match flushed {
                Ok(info) => {
                    if info.live != live.len() {
                        eprintln!("[churn] live count {} != mirror {}", info.live, live.len());
                        refused += 1;
                    }
                }
                Err(e) => {
                    eprintln!("[churn] flush refused: {e}");
                    refused += 1;
                }
            }
            recalls.push(checkpoint_recall(&engine, &queries, &by_id, &live));
        }
    }
    let after = Scrape::parse(&metrics.render_text());
    r.attempted = attempted;
    r.failed = refused;

    let write_us: Vec<f64> = insert_us.iter().chain(&delete_us).copied().collect();
    // Every op the store serves counts as a query here: searches, writes
    // and flushes, per second of the time spent in them.
    let op_s = (search_us.iter().sum::<f64>() + write_us.iter().sum::<f64>()) / 1e6
        + flush_ms.iter().sum::<f64>() / 1e3;
    r.set("qps", attempted as f64 / op_s);
    r.set("query_p50_us", quantile(&search_us, 0.5));
    r.set("query_p99_us", quantile(&search_us, 0.99));
    r.set("recall_at_10", mean(&recalls));
    // The benchmark's mirror of the live set is freed first: the reading
    // is the engine's memory plus the process baseline.
    drop((by_id, live, removed, inserts));
    r.set("rss_mb", rss_mb());

    let tenth = (search_us.len() / 10).max(1);
    r.set(
        "engine.mutable.search_growth",
        quantile(&search_us[search_us.len() - tenth..], 0.5) / quantile(&search_us[..tenth], 0.5),
    );
    r.set(
        "engine.mutable.tombstones_max",
        engine.tombstone_count() as f64,
    );
    r.set("engine.mutable.k_fetch_mean", mean(&k_fetch));
    r.set("engine.mutable.segments_max", segments_max as f64);
    r.set("engine.mutable.flush_ms_p50", quantile(&flush_ms, 0.5));
    r.set(
        "engine.mutable.flush_ms_max",
        flush_ms.iter().copied().fold(0.0, f64::max),
    );
    r.set("engine.mutable.insert_us_p50", quantile(&insert_us, 0.5));
    r.set("engine.mutable.delete_us_p50", quantile(&delete_us, 0.5));
    r.set("engine.mutable.write_p50_us", quantile(&write_us, 0.5));
    r.set("engine.mutable.write_p99_us", quantile(&write_us, 0.99));
    let records = (n_insert_ops + n_delete_ops) * batch;
    let journal = std::fs::metadata(journal_path(if opts.trace {
        &traced_dir
    } else {
        &plain_dir
    }))
    .map_or(0, |m| m.len());
    r.set(
        "store.journal_bytes_per_mutation",
        journal as f64 / records as f64,
    );
    r.set(
        "spaces.dists_per_query",
        search_dists as f64 / search_us.len() as f64,
    );
    r.set("bench.failed_share", refused as f64 / attempted as f64);
    let stages = traced_between(&before, &after);
    if stages.sampled > 0 {
        set_stage_metrics(&mut r, &stages, K);
        r.set(
            "bench.unattributed_share",
            1.0 - STAGES
                .iter()
                .map(|&s| stages.mean_stage_nanos(s) / 1e3)
                .sum::<f64>()
                / mean(&search_us),
        );
    }
    eprintln!(
        "[churn] {n_ops} ops ({batch} points each), {} searches, {} flushes, {} tombstones",
        search_us.len(),
        flush_ms.len(),
        engine.tombstone_count(),
    );

    r.gate(
        leaked == 0,
        &format!("no removed id in any result ({leaked} seen)"),
    );
    let worst = recalls.iter().copied().fold(1.0, f64::min);
    r.gate(
        worst >= RECALL_FLOOR,
        &format!("recall@10 at every flush checkpoint >= {RECALL_FLOOR} (worst {worst:.4})"),
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&traced_dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    r
}

/// Recall@10 of the engine against exact search over the live set, on a
/// fixed sample of queries. Searches through `SearchIndex`, which the
/// engine's serving metrics do not observe, so the traced stage means cover
/// the op stream's searches only.
fn checkpoint_recall(
    engine: &MutableEngine<Vec<f32>>,
    queries: &[Vec<f32>],
    by_id: &[Vec<f32>],
    live: &[u32],
) -> f64 {
    let recalls: Vec<f64> = queries
        .iter()
        .take(GOLD_SAMPLE)
        .map(|q| {
            let mut exact: Vec<Neighbor> = live
                .iter()
                .map(|&id| Neighbor::new(id, L2.distance(&by_id[id as usize], q)))
                .collect();
            exact.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
            exact.truncate(K);
            recall_vs(&SearchIndex::search(engine, q, K), &exact)
        })
        .collect();
    mean(&recalls)
}

/// Alternate blocks of single-query searches between the plain and the
/// traced engine (same fresh state); the traced rate's shortfall, percent.
fn search_overhead(
    plain: &MutableEngine<Vec<f32>>,
    traced: &MutableEngine<Vec<f32>>,
    queries: &[Vec<f32>],
) -> f64 {
    let mut rates = [Vec::new(), Vec::new()];
    for round in 0..8 {
        for (side, engine) in [plain, traced].into_iter().enumerate() {
            let t = Instant::now();
            for q in queries
                .iter()
                .cycle()
                .skip(round)
                .take(OVERHEAD_SEARCHES / 8)
            {
                engine.serve(slice::from_ref(q), K);
            }
            rates[side].push((OVERHEAD_SEARCHES / 8) as f64 / t.elapsed().as_secs_f64());
        }
    }
    let (p, t) = (median(&rates[0]), median(&rates[1]));
    (p - t) / p * 100.0
}

fn record_config(r: &mut Report, n_ops: usize, batch: usize, flush_every: usize) {
    r.config_str("data", "sift-like 128-d, L2, f32 arena, no SQ8 tier");
    r.config_str(
        "deployment",
        "MutableEngine::open, base napp, delta dynamic-napp",
    );
    r.config_str(
        "napp",
        "registry napp per shard: pivots scaled to the shard size (at most 512), 32 indexed, min_shared 2",
    );
    r.config_num("shards", SHARDS as f64);
    r.config_num("workers", WORKERS as f64);
    r.config_str(
        "journal_sync",
        "append every record, fsync at each flush (sync_every 0)",
    );
    r.config_num("ops", n_ops as f64);
    r.config_str("op_mix", "70% search, 15% insert, 15% delete (by op count)");
    r.config_num("points_per_mutation_op", batch as f64);
    r.config_num("flush_every_mutation_ops", flush_every as f64);
    r.config_str("load", "closed loop, 1 client thread, k=10");
}
