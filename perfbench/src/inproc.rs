//! `sift-napp` and `kl-napp`: one thread, one query at a time, k = 10,
//! through `SearchIndex::search_into` on a NAPP index with the grid's
//! parameters (256 pivots, 16 indexed, min_shared 2, 1 build thread).

use std::sync::Arc;
use std::time::{Duration, Instant};

use permsearch_core::{
    CountedSpace, Dataset, Neighbor, Point, SearchIndex, SearchScratch, Space, StageBreakdown,
};
use permsearch_eval::{compute_gold_with_threads, recall_vs, GoldStandard};
use permsearch_permutation::{Napp, NappParams};
use permsearch_spaces::batch::{kl_flat_ids, l2_flat_ids, l2_quant_ids};
use permsearch_spaces::{KlDivergence, PointSize, TopicHistogram, L2};

use crate::layers::{memcpy_ceiling, replay, set_stage_metrics, Call, Kind, Recorder, RowMap};
use crate::report::Report;
use crate::stats::{median, quantile, rss_mb};
use crate::{inputs, Opts, CORPUS_SEED};

const K: usize = 10;

/// Time each replayed kernel (and the memcpy ceiling) for this long.
const KERNEL_BUDGET: Duration = Duration::from_millis(300);

/// Queries whose kernel calls are recorded for the roofline replay.
const RECORDED_QUERIES: usize = 50;

fn napp_params() -> NappParams {
    NappParams {
        num_pivots: 256,
        num_indexed: 16,
        min_shared: 2,
        threads: 1,
        ..Default::default()
    }
}

/// What differs between the two in-process workloads.
struct World<P: Point, S> {
    space: S,
    /// Build the indexed dataset from the generated points (timed as set-up).
    make: fn(Vec<P>) -> Dataset<P>,
    /// How a gathered row reference maps back to a dataset id.
    rows: fn(&Dataset<P>) -> Option<RowMap>,
    /// `(dataset bytes, SQ8 tier bytes)`.
    bytes: fn(&Dataset<P>) -> (usize, usize),
    /// Replay the recorded kernel calls and set the `spaces.*` roofline.
    roofline: fn(&Dataset<P>, &[P], &[Call], &mut Report),
    /// Recall gate.
    recall_floor: f64,
}

/// The SIFT-like world of `paper_grid` (same generator and corpus size):
/// 128-d L2, f32 arena plus SQ8 tier.
pub fn sift(opts: &Opts) -> Report {
    let (n, q) = (opts.scale.n, opts.scale.queries);
    let (points, queries) = inputs(permsearch_datasets::sift_like(), n, q, opts.seed);
    let world = World {
        space: L2,
        make: |pts| Dataset::new_flat(pts).quantize(),
        rows: |_| None,
        bytes: |d| {
            let flat = d.flat().map_or(0, |f| f.arena().size_bytes());
            let sq8 = d.quantized().map_or(0, |q| q.block().size_bytes());
            (flat + sq8, sq8)
        },
        roofline: sift_roofline,
        recall_floor: 0.95,
    };
    run(
        opts,
        world,
        points,
        queries,
        "sift-like 128-d, L2, f32 arena + SQ8 tier",
    )
}

/// The `wiki8-kl` world of `paper_grid`: 8-topic histograms under KL
/// divergence (non-metric), nested storage, no SQ8 tier.
pub fn kl(opts: &Opts) -> Report {
    let (n, q) = (opts.scale.n, opts.scale.queries);
    let (points, queries) = inputs(permsearch_datasets::wiki8_like(), n, q, opts.seed);
    let world = World {
        space: KlDivergence,
        make: Dataset::new,
        rows: |d| {
            let points = d.points();
            Some(RowMap {
                base: points.as_ptr() as usize,
                len: points.len(),
                stride: std::mem::size_of::<TopicHistogram>(),
            })
        },
        bytes: |d: &Dataset<TopicHistogram>| (d.iter().map(|(_, p)| p.point_size_bytes()).sum(), 0),
        roofline: kl_roofline,
        recall_floor: 0.95,
    };
    run(
        opts,
        world,
        points,
        queries,
        "wiki8-like 8-topic histograms, KL divergence",
    )
}

fn run<P, S>(opts: &Opts, world: World<P, S>, points: Vec<P>, queries: Vec<P>, data: &str) -> Report
where
    P: Point + Clone + Send + Sync,
    S: Space<P::Ref> + Clone + Send + Sync + 'static,
{
    let mut r = Report::new(opts);
    let params = napp_params();
    r.config_str("data", data);
    r.config_str("deployment", "napp index, in-process, no shards");
    r.config_str("load", "closed loop, 1 thread, 1 query in flight, k=10");
    r.config_num("napp.num_pivots", params.num_pivots as f64);
    r.config_num("napp.num_indexed", params.num_indexed as f64);
    r.config_num("napp.min_shared", f64::from(params.min_shared));
    r.config_num("napp.build_threads", params.threads as f64);

    let gold = {
        let data = Arc::new((world.make)(points.clone()));
        compute_gold_with_threads(&data, world.space.clone(), &queries, K, 1)
    };

    // Set-up: dataset (arena, SQ8 tier) plus index build, median of several.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..opts.scale.setups {
        let pts = points.clone();
        drop(built.take());
        let t = Instant::now();
        let data = Arc::new((world.make)(pts));
        let index = Napp::build(
            data.clone(),
            world.space.clone(),
            params.clone(),
            CORPUS_SEED,
        );
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some((data, index));
    }
    let (data, index) = built.expect("at least one set-up");
    eprintln!("[setup] {setup_s:.3?} s");
    r.set("setup_s", median(&setup_s));
    let (dataset_bytes, sq8_bytes) = (world.bytes)(&data);
    r.set("core.dataset_bytes", dataset_bytes as f64);
    r.set("core.sq8_bytes", sq8_bytes as f64);

    let mut scratch = SearchScratch::new();
    let mut res = Vec::new();
    for q in &queries {
        index.search_into(q, K, &mut scratch, &mut res);
    }

    if !opts.trace {
        let loop_ = closed_loop(&index, &queries, &gold, opts.seconds, &mut scratch);
        let lat = &loop_.lat_us;
        r.set("qps", lat.len() as f64 / (lat.iter().sum::<f64>() / 1e6));
        r.set("query_p50_us", quantile(lat, 0.5));
        r.set("query_p99_us", quantile(lat, 0.99));
        r.set("recall_at_10", loop_.recall);
        r.attempted = lat.len() as u64;
        eprintln!("[{}] {} queries", opts.workload, lat.len());
        r.gate(
            loop_.recall >= world.recall_floor,
            &format!("recall@10 {:.4} >= {}", loop_.recall, world.recall_floor),
        );
        // The benchmark's own sample buffer is freed first, so the reading
        // does not depend on how many queries the loop completed.
        drop(loop_);
        r.set("rss_mb", rss_mb());
        return r;
    }

    // Traced run: the same index rebuilt over a counting, recording space,
    // interleaved pass by pass with the plain index so their rates compare
    // under the same host conditions.
    let recorder = Recorder::new(world.space.clone(), (world.rows)(&data));
    let log = recorder.log().clone();
    let counted = CountedSpace::new(recorder);
    let traced = Napp::build(data.clone(), counted.clone(), params, CORPUS_SEED);
    for q in &queries {
        traced.search_into(q, K, &mut scratch, &mut res);
    }
    counted.reset();
    let mut plain_rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut stages = StageBreakdown::default();
    let mut unattributed = Vec::new();
    let mut traced_queries = 0u64;
    let mut recall = None;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut round = 0;
    while Instant::now() < deadline || traced_rates.is_empty() {
        // Alternate which side goes first, so neither always runs warm.
        for side in [round % 2, 1 - round % 2] {
            let mut busy_ns = 0.0;
            if side == 0 {
                for q in &queries {
                    let t = Instant::now();
                    index.search_into(q, K, &mut scratch, &mut res);
                    busy_ns += t.elapsed().as_nanos() as f64;
                }
                plain_rates.push(queries.len() as f64 / (busy_ns / 1e9));
                continue;
            }
            let mut rsum = 0.0;
            for (i, q) in queries.iter().enumerate() {
                if recall.is_none() && i < RECORDED_QUERIES {
                    log.arm(i as u32);
                }
                scratch.trace.begin(true);
                let t = Instant::now();
                traced.search_into(q, K, &mut scratch, &mut res);
                let ns = t.elapsed().as_nanos() as f64;
                log.disarm();
                busy_ns += ns;
                let staged: u64 = permsearch_core::STAGES
                    .iter()
                    .map(|&s| scratch.trace.stage_nanos(s))
                    .sum();
                unattributed.push(1.0 - staged as f64 / ns);
                stages.absorb(&scratch.trace);
                traced_queries += 1;
                rsum += recall_vs(&res, &gold.neighbors[i]);
            }
            traced_rates.push(queries.len() as f64 / (busy_ns / 1e9));
            recall.get_or_insert(rsum / queries.len() as f64);
        }
        round += 1;
    }
    let recall = recall.expect("at least one traced pass");
    r.attempted = traced_queries + (plain_rates.len() * queries.len()) as u64;
    r.gate(
        recall >= world.recall_floor,
        &format!("recall@10 {recall:.4} >= {}", world.recall_floor),
    );

    let plain = median(&plain_rates);
    r.set(
        "bench.trace_overhead_pct",
        (plain - median(&traced_rates)) / plain * 100.0,
    );
    r.set("bench.unattributed_share", median(&unattributed));
    r.set(
        "spaces.dists_per_query",
        counted.count() as f64 / traced_queries as f64,
    );
    set_stage_metrics(&mut r, &stages, K);

    let calls = log.take();
    r.set("bench.kernel_calls_replayed", calls.len() as f64);
    (world.roofline)(&data, &queries, &calls, &mut r);
    r
}

struct LoopResult {
    /// Per-query latency in the order sent, microseconds.
    lat_us: Vec<f64>,
    /// Mean recall@10 of the first pass over the query set.
    recall: f64,
}

/// Send queries back to back, cycling through the set, for `seconds`.
/// Only the search call is inside the per-query clock.
fn closed_loop<P, I: SearchIndex<P>>(
    index: &I,
    queries: &[P],
    gold: &GoldStandard,
    seconds: f64,
    scratch: &mut SearchScratch,
) -> LoopResult {
    let mut res: Vec<Neighbor> = Vec::new();
    let mut lat_us = Vec::new();
    let mut recall = 0.0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < queries.len() || Instant::now() < deadline {
        let q = i % queries.len();
        let t = Instant::now();
        index.search_into(&queries[q], K, scratch, &mut res);
        lat_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        if i < queries.len() {
            recall += recall_vs(&res, &gold.neighbors[q]);
        }
        i += 1;
    }
    LoopResult {
        lat_us,
        recall: recall / queries.len() as f64,
    }
}

fn of_kind(calls: &[Call], kind: Kind) -> Vec<&Call> {
    calls.iter().filter(|c| c.kind == kind).collect()
}

fn sift_roofline(data: &Dataset<Vec<f32>>, queries: &[Vec<f32>], calls: &[Call], r: &mut Report) {
    let flat = data.flat().expect("sift world is arena-backed");
    let quant = data.quantized().expect("sift world carries an SQ8 tier");
    let dim = flat.dim();
    let rows = flat.data();
    let exact = of_kind(calls, Kind::Flat);
    let l2 = replay(&exact, dim * 4, KERNEL_BUDGET, |q, ids, out| {
        l2_flat_ids(rows, dim, ids, &queries[q as usize], out)
    });
    let sq8 = replay(
        &of_kind(calls, Kind::Quant),
        dim,
        KERNEL_BUDGET,
        |q, ids, out| l2_quant_ids(quant, ids, &queries[q as usize], out),
    );
    let copy = memcpy_ceiling(&exact, &[rows], dim, KERNEL_BUDGET);
    r.set("spaces.l2_flat_ns_per_row", l2.ns_per_row);
    r.set("spaces.l2_flat_gbps", l2.gbps);
    r.set("spaces.l2_quant_ns_per_row", sq8.ns_per_row);
    r.set("spaces.l2_quant_gbps", sq8.gbps);
    r.set("spaces.memcpy_gbps", copy.gbps);
}

fn kl_roofline(
    data: &Dataset<TopicHistogram>,
    queries: &[TopicHistogram],
    calls: &[Call],
    r: &mut Report,
) {
    let dim = data.get(0).dim();
    let values: Vec<f32> = data.iter().flat_map(|(_, h)| h.values().to_vec()).collect();
    let logs: Vec<f32> = data.iter().flat_map(|(_, h)| h.logs().to_vec()).collect();
    let gathered = of_kind(calls, Kind::Gathered);
    let kl = replay(&gathered, dim * 8, KERNEL_BUDGET, |q, ids, out| {
        kl_flat_ids(&values, &logs, dim, ids, queries[q as usize].logs(), out)
    });
    let copy = memcpy_ceiling(&gathered, &[&values, &logs], dim, KERNEL_BUDGET);
    r.set("spaces.kl_ns_per_row", kl.ns_per_row);
    r.set("spaces.kl_gbps", kl.gbps);
    r.set("spaces.memcpy_gbps", copy.gbps);
}
