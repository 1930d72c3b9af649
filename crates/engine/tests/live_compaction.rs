//! Serving while the background compactor reshapes the engine, and warm
//! restart from the mutation journal.
//!
//! The concurrency test is the swap-safety pin: query threads hammer the
//! engine while a writer drives enough churn for the compactor to fold
//! several generations underneath them. Every answer must be internally
//! consistent — correct length, sorted with the (dist, id) tie order, no
//! duplicate ids (a torn swap would serve the same point from both the
//! sealed segment and its folded replacement), no id that was removed
//! before serving began — and the latency histogram must show every
//! query accounted for with a sane tail.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use permsearch_core::{Dataset, SearchIndex};
use permsearch_engine::{
    dense_l2_registry, CompactionConfig, Engine, MetricsRegistry, MutableEngine, MutableWarmStart,
};

fn grid(n: usize) -> Arc<Dataset<Vec<f32>>> {
    Arc::new(Dataset::new(
        (0..n)
            .map(|i| vec![(i % 17) as f32, (i / 17) as f32])
            .collect::<Vec<_>>(),
    ))
}

fn queries(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| vec![(i % 6) as f32 + 0.3, (i / 6) as f32 + 0.6])
        .collect()
}

#[test]
fn queries_stay_consistent_through_background_compactions() {
    const PRE_REMOVED: [u32; 4] = [3, 77, 150, 299];
    const K: usize = 8;
    const TARGET_GENERATIONS: u64 = 3;

    let registry = dense_l2_registry();
    let data = grid(400);
    let metrics = Arc::new(MetricsRegistry::new());
    let mut engine =
        MutableEngine::from_registry(&registry, "napp", "dynamic-napp", &data, 3, 2, 42).unwrap();
    engine.attach_metrics(&metrics, 1);
    let engine = Arc::new(engine);
    for id in PRE_REMOVED {
        assert!(engine.remove(id));
    }
    let compactor = engine.spawn_compactor(CompactionConfig {
        min_delta_slots: 24,
        poll_interval: Duration::from_millis(2),
    });

    let done = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let batch = queries(12);
    let mut worst_p99 = 0.0f64;
    std::thread::scope(|s| {
        // Writer: churn until the compactor has swapped generations at
        // least TARGET_GENERATIONS times (10s safety deadline).
        let writer_engine = Arc::clone(&engine);
        let writer_done = &done;
        s.spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut i = 0u32;
            while writer_engine.generation() < TARGET_GENERATIONS && Instant::now() < deadline {
                let id =
                    writer_engine.insert(vec![(i % 11) as f32 + 0.2, (i / 11 % 23) as f32 + 0.7]);
                if i.is_multiple_of(3) {
                    writer_engine.remove(id);
                }
                i += 1;
                if i.is_multiple_of(16) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            writer_done.store(true, Ordering::SeqCst);
        });

        // Query threads: serve batches and validate every answer until
        // the writer stops. Failures panic the scope.
        let mut handles = Vec::new();
        for _ in 0..3 {
            let qe = Arc::clone(&engine);
            let qb = batch.clone();
            let qdone = &done;
            let qserved = &served;
            handles.push(s.spawn(move || {
                let mut max_p99 = 0.0f64;
                while !qdone.load(Ordering::SeqCst) {
                    let out = qe.serve(&qb, K);
                    assert_eq!(out.results.len(), qb.len());
                    for r in &out.results {
                        assert_eq!(r.len(), K, "live count stays far above k");
                        let mut seen = std::collections::HashSet::new();
                        for w in r.windows(2) {
                            assert!(
                                (w[0].dist, w[0].id) < (w[1].dist, w[1].id),
                                "result order torn: {:?}",
                                r
                            );
                        }
                        for n in r {
                            assert!(seen.insert(n.id), "duplicate id {} in {:?}", n.id, r);
                            assert!(
                                !PRE_REMOVED.contains(&n.id),
                                "tombstoned id {} served mid-compaction",
                                n.id
                            );
                        }
                    }
                    qserved.fetch_add(qb.len(), Ordering::Relaxed);
                    max_p99 = max_p99.max(out.stats.p99_latency_secs);
                }
                max_p99
            }));
        }
        for h in handles {
            worst_p99 = worst_p99.max(h.join().expect("query thread"));
        }
    });
    compactor.stop();

    assert!(
        engine.generation() >= TARGET_GENERATIONS,
        "compactor swapped only {} generations",
        engine.generation()
    );
    let total = served.load(Ordering::Relaxed);
    assert!(total > 0, "no query was served during compaction churn");
    // Bounded tail: generous enough for a loaded CI box, tight enough to
    // catch a query blocking on a whole compaction build.
    assert!(
        worst_p99 < 5.0,
        "p99 of {worst_p99}s suggests queries blocked on compaction"
    );

    // The sampled latency histogram accounted for the concurrent load
    // and the exposition stays well-formed under churn.
    let text = metrics.render_text();
    let families = permsearch_obs::validate_text(&text).expect("exposition parses");
    for family in [
        "permsearch_queries_total",
        "permsearch_compactions_total",
        "permsearch_generation",
        "permsearch_query_latency_seconds",
    ] {
        assert!(
            families.iter().any(|f| f == family),
            "missing {family} in {families:?}"
        );
    }
}

#[test]
fn warm_restart_replays_the_journal_bitwise() {
    let dir = std::env::temp_dir().join(format!("psrv-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let registry = dense_l2_registry();
    let data = grid(120);
    let batch = queries(10);

    // First life: open (cold build), churn, flush, record answers.
    let (want, want_len) = {
        let (engine, warm) =
            MutableEngine::open(&registry, "napp", "dynamic-napp", &data, 2, 2, 42, &dir).unwrap();
        assert_eq!(warm.journal_records, 0, "fresh journal starts empty");
        for i in 0..40u32 {
            let id = engine.insert(vec![(i % 9) as f32 + 0.4, (i / 9) as f32 + 0.8]);
            if i % 4 == 1 {
                assert!(engine.remove(id));
            }
        }
        for victim in [5u32, 60, 119] {
            assert!(engine.remove(victim));
        }
        let info = engine.flush();
        assert!(info.generation >= 1);
        (engine.serve(&batch, 9).results, Engine::len(&engine))
    };

    // Second life: reopen the same directory. The journal replays every
    // acknowledged op, so the restored engine answers bitwise the same.
    let (engine, warm): (MutableEngine<Vec<f32>>, MutableWarmStart) =
        MutableEngine::open(&registry, "napp", "dynamic-napp", &data, 2, 2, 42, &dir).unwrap();
    assert_eq!(warm.journal_records, 53, "40 inserts + 13 removes replayed");
    assert!(
        warm.base.shards_loaded > 0,
        "base warm-started from snapshots"
    );
    assert_eq!(Engine::len(&engine), want_len);
    assert_eq!(
        engine.generation(),
        0,
        "generation is serving state, not persisted state"
    );
    let got = engine.serve(&batch, 9).results;
    assert_eq!(got, want, "restored engine diverged from its first life");

    // Mutations keep journaling after a restart: a third life sees them.
    let id = engine.insert(vec![50.0, 50.0]);
    drop(engine);
    let (engine, warm) =
        MutableEngine::open(&registry, "napp", "dynamic-napp", &data, 2, 2, 42, &dir).unwrap();
    assert_eq!(warm.journal_records, 54);
    let res = engine.search(&vec![50.0f32, 50.0], 1);
    assert_eq!(res[0].id, id);
    assert_eq!(res[0].dist, 0.0);

    let _ = std::fs::remove_dir_all(&dir);
}
