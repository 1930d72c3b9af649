//! `paper_grid` — the methods × datasets performance grid.
//!
//! Sweeps every applicable paper method over a dense (`sift`, L2), a sparse
//! (`wiki-sparse`, cosine) and a topic-histogram (`wiki8-kl`, KL) world and
//! records, per `(world, method)` cell: recall@10 against exact gold,
//! single-threaded QPS through the zero-allocation `search_into` serving
//! pipeline, and the number of **distance computations per query** (counted
//! by [`CountedSpace`] — batched kernels count one per point scored), plus
//! the index size, the resident dataset bytes (the f32 arena for dense
//! worlds, owned points elsewhere) and the process peak RSS
//! (`VmHWM`) at the time the cell finished. Results are written to
//! `bench_results/BENCH_grid.json` so every later change has a perf
//! trajectory to beat.
//!
//! `--smoke` shrinks the worlds to a seconds-scale pass and **exits
//! non-zero when any cell's recall drops below its pinned floor** — the
//! CI regression gate for kernel or scratch changes that would silently
//! degrade quality. It also fails when the dense world's resident dataset
//! bytes exceed the pinned post-refactor ceiling (one f32 arena plus room
//! for an SQ8 tier plus slack): re-growing a nested `Vec<Vec<f32>>` mirror
//! next to the arena — the old 2x-residency bug — trips the gate
//! immediately.
//!
//! Reading `BENCH_grid.json`: one JSON object per cell. `recall` is the
//! quality axis; `qps` (and its inverse `query_secs`) the wall-clock axis
//! on one core; `dists_per_query` the hardware-independent cost axis the
//! paper argues with — a method whose QPS moves while `dists_per_query`
//! stays flat changed its constant factors, not its algorithm.

use std::fmt::Write as _;
use std::fs;
use std::sync::Arc;
use std::time::Instant;

use permsearch_bench::Args;
use permsearch_core::{
    BoxedSearchIndex, CountedSpace, Dataset, ExhaustiveSearch, Point, SearchIndex, SearchScratch,
    Space, StageBreakdown, STAGES,
};
use permsearch_eval::{compute_gold, metrics::recall_vs, GoldStandard};
use permsearch_knngraph::{SwGraph, SwGraphParams};
use permsearch_permutation::{
    select_pivots, BruteForceBinFilter, BruteForcePermFilter, MiFile, MiFileParams, Napp,
    NappParams, PermDistanceKind, PpIndex, PpIndexParams,
};
use permsearch_spaces::PointSize;
use permsearch_vptree::{Pruner, VpTree, VpTreeParams};

const K: usize = 10;

/// Resident bytes of a dense dataset: the flat f32 arena (or, should the
/// storage ever regress to nested owned rows, their payload bytes) plus
/// the SQ8 quantized tier when attached.
fn dense_dataset_bytes(data: &Dataset<Vec<f32>>) -> usize {
    let base = data.flat().map_or_else(
        || {
            data.iter()
                .map(|(_, row)| std::mem::size_of_val(row) + std::mem::size_of::<Vec<f32>>())
                .sum()
        },
        |f| f.arena().size_bytes(),
    );
    base + data.quantized().map_or(0, |q| q.block().size_bytes())
}

/// Labelled index constructors of one world.
type Builders<'a, P> = Vec<(&'static str, Box<dyn Fn() -> BoxedSearchIndex<P> + 'a>)>;

/// One `(world, method)` cell of the grid.
struct GridRow {
    world: &'static str,
    method: String,
    n: usize,
    queries: usize,
    recall: f64,
    qps: f64,
    query_secs: f64,
    dists_per_query: f64,
    index_bytes: usize,
    /// Resident bytes of the indexed dataset itself: flat f32 arena (plus
    /// an SQ8 tier, if attached) on dense worlds, owned point payloads
    /// elsewhere.
    dataset_bytes: usize,
    /// Process peak RSS (`VmHWM`) when the cell finished, in bytes
    /// (0 where `/proc/self/status` is unavailable).
    rss_peak_bytes: usize,
    /// Per-stage wall-time/distance breakdown over the traced subset of
    /// the measured queries (sampled stage tracing, see `measure`).
    stages: StageBreakdown,
}

impl GridRow {
    fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let method = self.method.replace('\\', "\\\\").replace('"', "\\\"");
        // Stage-timing fields: one `"stage_<name>_nanos"`/`_dists` pair
        // per pipeline stage, summed over the traced queries, plus the
        // trace-sample bookkeeping needed to normalize them.
        let mut stages = String::new();
        for stage in STAGES {
            let i = stage as usize;
            let _ = write!(
                stages,
                ", \"stage_{}_nanos\": {}, \"stage_{}_dists\": {}",
                stage.name(),
                self.stages.stage_nanos[i],
                stage.name(),
                self.stages.stage_dists[i]
            );
        }
        format!(
            concat!(
                "{{\"world\": \"{}\", \"method\": \"{}\", \"n\": {}, ",
                "\"queries\": {}, \"k\": {}, \"recall\": {}, \"qps\": {}, ",
                "\"query_secs\": {}, \"dists_per_query\": {}, \"index_bytes\": {}, ",
                "\"dataset_bytes\": {}, \"rss_peak_bytes\": {}, ",
                "\"traced_queries\": {}, \"traced_candidates\": {}, ",
                "\"traced_quant_engaged\": {}{}}}"
            ),
            self.world,
            method,
            self.n,
            self.queries,
            K,
            num(self.recall),
            num(self.qps),
            num(self.query_secs),
            num(self.dists_per_query),
            self.index_bytes,
            self.dataset_bytes,
            self.rss_peak_bytes,
            self.stages.sampled,
            self.stages.candidates,
            self.stages.quant_engaged,
            stages
        )
    }
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. Returns 0 where that file does not exist (or has
/// no `VmHWM` line), so grid cells degrade to a null-ish value instead of
/// failing off-Linux.
fn peak_rss_bytes() -> usize {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<usize>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Serve every query single-threaded through the scratch pipeline,
/// measuring wall time, recall@10 and counted distance computations.
fn measure<P, S>(
    world: &'static str,
    index: &BoxedSearchIndex<P>,
    queries: &[P],
    gold: &GoldStandard,
    space: &CountedSpace<S>,
    dataset_bytes: usize,
) -> GridRow
where
    P: Point,
    S: Space<P::Ref>,
{
    let mut scratch = SearchScratch::new();
    let mut res = Vec::new();
    // Warm-up: grow the scratch to its steady-state footprint.
    for q in queries.iter().take(8) {
        index.search_into(q, K, &mut scratch, &mut res);
    }
    space.reset();
    let mut recall = 0.0;
    let mut secs = 0.0;
    let mut stages = StageBreakdown::default();
    // Stage tracing samples sparsely enough not to distort the timed
    // region (clock reads happen inside traced searches only), but densely
    // enough that smoke-scale query sets still trace a handful of queries.
    let sample_every = (queries.len() / 8).clamp(1, permsearch_obs::DEFAULT_SAMPLE_EVERY);
    // Per-query clocks around the searches only; recall scoring stays
    // outside the timer, matching `eval::runner::evaluate`'s methodology
    // so grid QPS is comparable to evaluate/serve numbers.
    for (i, (q, truth)) in queries.iter().zip(&gold.neighbors).enumerate() {
        scratch.trace.begin(i % sample_every == 0);
        let start = Instant::now();
        index.search_into(q, K, &mut scratch, &mut res);
        secs += start.elapsed().as_secs_f64();
        stages.absorb(&scratch.trace);
        recall += recall_vs(&res, truth);
    }
    let nq = queries.len().max(1);
    GridRow {
        world,
        method: index.name().to_string(),
        n: index.len(),
        queries: queries.len(),
        recall: recall / nq as f64,
        qps: nq as f64 / secs,
        query_secs: secs / nq as f64,
        dists_per_query: space.count() as f64 / nq as f64,
        index_bytes: index.index_size_bytes(),
        dataset_bytes,
        rss_peak_bytes: peak_rss_bytes(),
        stages,
    }
}

/// Run one world: build each method over the counted space, measure, and
/// append the rows.
fn run_world<P, S>(
    world: &'static str,
    data: &Arc<Dataset<P>>,
    queries: &[P],
    space: &CountedSpace<S>,
    builders: Builders<'_, P>,
    dataset_bytes: usize,
    rows: &mut Vec<GridRow>,
) where
    P: Point,
    S: Space<P::Ref> + Clone + Sync,
{
    // Gold uses the *uncounted* inner space; serving counts are reset per
    // method anyway, but this keeps build-phase tallies meaningful.
    let gold = compute_gold(data, space.inner().clone(), queries, K);
    for (label, build) in builders {
        let index = build();
        let row = measure(world, &index, queries, &gold, space, dataset_bytes);
        println!(
            "{world:>11} {label:>10}: recall={:.4} qps={:>9.1} dists/q={:>9.1}",
            row.recall, row.qps, row.dists_per_query
        );
        rows.push(row);
    }
}

/// Pinned smoke-mode recall floors; `--smoke` exits non-zero when any cell
/// lands below its floor. Values are the observed smoke recalls minus a
/// safety margin — a kernel or scratch regression that degrades quality
/// trips them long before it reaches zero.
fn smoke_floor(world: &str, method: &str) -> f64 {
    match (world, method) {
        (_, "brute-force") => 0.999,
        ("sift", "vp-tree") => 0.999,
        ("sift", _) => 0.85,
        // NAPP runs with the max_candidates cap (keep the top-40% sharers):
        // measured recall 0.894 at smoke and full scale. The old 1.0 came
        // from the pre-cap unfiltered scan — costlier than brute force —
        // and is not a number any gate or doc should state anymore.
        ("wiki-sparse", "napp") => 0.85,
        // Truncated-permutation footrule estimates discriminate poorly on
        // near-orthogonal sparse TF-IDF at smoke scale; the floor guards
        // against regressions, not against the method's intrinsic ceiling.
        ("wiki-sparse", "mi-file") => 0.60,
        ("wiki-sparse", _) => 0.85,
        ("wiki8-kl", _) => 0.80,
        _ => 0.5,
    }
}

/// Pinned smoke-mode **dists/query ceilings**, as a fraction of the
/// indexed-set size `n`; `--smoke` exits non-zero when any cell evaluates
/// more distances per query than its ceiling allows. This is the cost-side
/// twin of the recall floors: a change that silently stops *filtering* —
/// the PP-index root-fallback and the NAPP sparse-cosine cells both used
/// to scan essentially the whole dataset — trips it even when recall looks
/// perfect (an unfiltered scan always has perfect recall). Values are the
/// observed smoke fractions plus a safety margin.
///
/// Independent of the per-cell values, **no** cell may exceed `1.05 * n`
/// (brute force plus a 5% slack for pivot rankings): a filter-and-refine
/// method costing more distances than brute force is a regression by
/// definition.
fn smoke_dists_ceiling(world: &str, method: &str) -> f64 {
    match (world, method) {
        (_, "brute-force") => 1.0,
        // Exact metric pruning on the smoke world prunes little; this
        // guards against it degrading to a full scan plus overhead.
        ("sift", "vp-tree") => 1.0,
        ("sift", "napp") => 0.60,
        ("sift", "mi-file") => 0.15,
        ("sift", "pp-index") => 0.55,
        ("sift", "brute-force filt.") => 0.15,
        ("sift", "brute-force filt. bin.") => 0.15,
        ("sift", "kNN-graph (SW)") => 0.35,
        ("wiki-sparse", "napp") => 0.90,
        ("wiki-sparse", "mi-file") => 0.50,
        ("wiki8-kl", "vp-tree") => 0.35,
        ("wiki8-kl", "napp") => 0.45,
        ("wiki8-kl", "mi-file") => 0.30,
        _ => 1.0,
    }
}

/// Days since 1970-01-01 to a civil (y, m, d) date (Gregorian; Howard
/// Hinnant's `civil_from_days`). Enough calendar for a trajectory stamp.
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn main() {
    let mut args = Args::parse();
    if args.smoke {
        args.n = Some(args.n.unwrap_or(1_500));
        args.queries = Some(args.queries.unwrap_or(40));
    }
    let seed = args.seed;
    let mut rows: Vec<GridRow> = Vec::new();
    // `(resident dataset bytes, raw f32 payload bytes)` of the dense
    // world, captured for the smoke-mode residency gate below.
    let mut dense_resident: Option<(usize, usize)> = None;

    if args.wants("sift") {
        let (data, queries) = permsearch_bench::worlds::sift(&args);
        let dataset_bytes = dense_dataset_bytes(&data);
        let raw_bytes = data.flat().map_or(0, |f| f.data().len() * 4);
        dense_resident = Some((dataset_bytes, raw_bytes));
        let space = CountedSpace::new(permsearch_spaces::L2);
        let pivots = select_pivots(&data, 128, seed);
        let builders: Builders<'_, Vec<f32>> = vec![
            (
                "brute",
                Box::new(|| Box::new(ExhaustiveSearch::new(data.clone(), space.clone()))),
            ),
            (
                "vptree",
                Box::new(|| {
                    Box::new(VpTree::build(
                        data.clone(),
                        space.clone(),
                        VpTreeParams::default(),
                        seed,
                    ))
                }),
            ),
            (
                "napp",
                Box::new(|| {
                    Box::new(Napp::build(
                        data.clone(),
                        space.clone(),
                        NappParams {
                            num_pivots: 256,
                            num_indexed: 16,
                            min_shared: 2,
                            threads: 1,
                            ..Default::default()
                        },
                        seed,
                    ))
                }),
            ),
            (
                "mifile",
                Box::new(|| {
                    Box::new(MiFile::build(
                        data.clone(),
                        space.clone(),
                        MiFileParams {
                            num_pivots: 128,
                            num_indexed: 32,
                            gamma: 0.05,
                            threads: 1,
                            ..Default::default()
                        },
                        seed,
                    ))
                }),
            ),
            (
                "ppindex",
                Box::new(|| {
                    Box::new(PpIndex::build(
                        data.clone(),
                        space.clone(),
                        // Prefix shortening pops up a level whenever the
                        // subtree holds fewer than gamma*n candidates, so
                        // the tree only *filters* while gamma*n is
                        // comfortably below the depth-1 subtree size
                        // ~n/m — prefix shortening otherwise pops to the
                        // root and collects everything. The old m=32,
                        // gamma=0.05 fell back to the root on every
                        // query: 19.9k dists/query on the 20k world, a
                        // brute scan in disguise. m=16 with gamma=0.02
                        // keeps even the *smallest* skewed Voronoi cells
                        // above the budget, so the walk stays at
                        // depth >= 1; pinned by the smoke dists ceiling.
                        PpIndexParams {
                            num_pivots: 16,
                            prefix_len: 4,
                            gamma: 0.02,
                            num_trees: 4,
                            threads: 1,
                        },
                        seed,
                    ))
                }),
            ),
            (
                "bruteperm",
                Box::new(|| {
                    Box::new(BruteForcePermFilter::build(
                        data.clone(),
                        space.clone(),
                        pivots.clone(),
                        PermDistanceKind::SpearmanRho,
                        0.05,
                        1,
                    ))
                }),
            ),
            (
                "brutebin",
                Box::new(|| {
                    Box::new(BruteForceBinFilter::build(
                        data.clone(),
                        space.clone(),
                        pivots.clone(),
                        0.05,
                        1,
                    ))
                }),
            ),
            (
                "swgraph",
                Box::new(|| {
                    Box::new(SwGraph::build_parallel(
                        data.clone(),
                        space.clone(),
                        SwGraphParams::default(),
                        seed,
                        1,
                    ))
                }),
            ),
        ];
        run_world(
            "sift",
            &data,
            &queries,
            &space,
            builders,
            dataset_bytes,
            &mut rows,
        );
    }

    if args.wants("wiki-sparse") {
        let mut sparse_args = args.clone();
        if !args.smoke && args.n.is_none() {
            sparse_args.n = Some(5_000); // cosine is ~5x L2; keep the grid laptop-scale
        }
        let (data, queries) = permsearch_bench::worlds::wiki_sparse(&sparse_args);
        let dataset_bytes: usize = data.iter().map(|(_, p)| p.point_size_bytes()).sum();
        let space = CountedSpace::new(permsearch_spaces::CosineDistance);
        let builders: Builders<'_, permsearch_spaces::SparseVector> = vec![
            (
                "brute",
                Box::new(|| Box::new(ExhaustiveSearch::new(data.clone(), space.clone()))),
            ),
            (
                "napp",
                Box::new(|| {
                    Box::new(Napp::build(
                        data.clone(),
                        space.clone(),
                        // Near-orthogonal sparse TF-IDF shares >= 2 of 32
                        // query pivots with almost every point, so
                        // min_shared alone barely filtered: ~5.2k
                        // dists/query on the 5k world (more than brute
                        // force — the pivot rankings came on top). The
                        // max_candidates cap is the paper's extra
                        // filtering step for exactly this case: keep the
                        // 40% of points sharing the most pivots, which
                        // bounds the cell at 256 + 0.4n dists/query at
                        // every world scale (smoke included).
                        NappParams {
                            num_pivots: 256,
                            num_indexed: 32,
                            min_shared: 2,
                            max_candidates: Some(data.len() * 2 / 5),
                            threads: 1,
                            ..Default::default()
                        },
                        seed,
                    ))
                }),
            ),
            (
                "mifile",
                Box::new(|| {
                    Box::new(MiFile::build(
                        data.clone(),
                        space.clone(),
                        MiFileParams {
                            num_pivots: 128,
                            num_indexed: 64,
                            gamma: 0.2,
                            threads: 1,
                            ..Default::default()
                        },
                        seed,
                    ))
                }),
            ),
        ];
        run_world(
            "wiki-sparse",
            &data,
            &queries,
            &space,
            builders,
            dataset_bytes,
            &mut rows,
        );
    }

    if args.wants("wiki8-kl") {
        let (data, queries) = permsearch_bench::worlds::wiki8(&args, "wiki8-kl");
        let dataset_bytes: usize = data.iter().map(|(_, p)| p.point_size_bytes()).sum();
        let space = CountedSpace::new(permsearch_spaces::KlDivergence);
        let builders: Builders<'_, permsearch_spaces::TopicHistogram> = vec![
            (
                "brute",
                Box::new(|| Box::new(ExhaustiveSearch::new(data.clone(), space.clone()))),
            ),
            (
                "vptree-poly",
                Box::new(|| {
                    Box::new(VpTree::build(
                        data.clone(),
                        space.clone(),
                        VpTreeParams {
                            bucket_size: 16,
                            pruner: Pruner::Polynomial {
                                alpha_left: 0.5,
                                alpha_right: 0.5,
                                beta: 2,
                            },
                        },
                        seed,
                    ))
                }),
            ),
            (
                "napp",
                Box::new(|| {
                    Box::new(Napp::build(
                        data.clone(),
                        space.clone(),
                        NappParams {
                            num_pivots: 256,
                            num_indexed: 16,
                            min_shared: 2,
                            threads: 1,
                            ..Default::default()
                        },
                        seed,
                    ))
                }),
            ),
            (
                "mifile",
                Box::new(|| {
                    Box::new(MiFile::build(
                        data.clone(),
                        space.clone(),
                        MiFileParams {
                            num_pivots: 128,
                            num_indexed: 32,
                            gamma: 0.05,
                            threads: 1,
                            ..Default::default()
                        },
                        seed,
                    ))
                }),
            ),
        ];
        run_world(
            "wiki8-kl",
            &data,
            &queries,
            &space,
            builders,
            dataset_bytes,
            &mut rows,
        );
    }

    // Emit the JSON trajectory file.
    let mut json = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(json, "  {}{sep}", row.to_json());
    }
    json.push_str("]\n");
    if let Err(e) = fs::create_dir_all("bench_results") {
        eprintln!("cannot create bench_results/: {e}");
        std::process::exit(1);
    }
    let path = "bench_results/BENCH_grid.json";
    if let Err(e) = fs::write(path, &json) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path} ({} cells)", rows.len());

    // Per-PR trajectory: BENCH_grid.json always holds the *latest* grid;
    // every run also appends one dated line here, so the perf history of
    // the repo reads straight out of `bench_results/trajectory.jsonl`.
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (y, m, d) = civil_from_days((unix / 86_400) as i64);
    let mut line = format!(
        "{{\"date\": \"{y:04}-{m:02}-{d:02}\", \"unix\": {unix}, \"smoke\": {}, \"cells\": [",
        args.smoke
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&row.to_json());
    }
    line.push_str("]}\n");
    let traj = "bench_results/trajectory.jsonl";
    let append = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(traj)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
    match append {
        Ok(()) => println!("appended {traj}"),
        Err(e) => {
            eprintln!("cannot append {traj}: {e}");
            std::process::exit(1);
        }
    }

    if args.smoke {
        let mut failed = false;
        // Residency gate: the dense world must hold exactly one f32 copy.
        // The pinned post-refactor ceiling is the raw f32 payload plus room
        // for an SQ8 tier (codes = raw/4, per-row norms and per-dim
        // min/scale tables well under raw/10; the grid attaches none) plus
        // 64 KiB of fixed slack. Re-growing a nested `Vec<Vec<f32>>` mirror
        // beside the arena (~2x raw plus per-row Vec headers) overshoots
        // this by most of a full copy.
        if let Some((resident, raw)) = dense_resident {
            let ceiling = raw + raw / 4 + raw / 10 + (64 << 10);
            if resident > ceiling {
                eprintln!(
                    "SMOKE RESIDENCY VIOLATION: dense dataset holds {resident} bytes \
                     > ceiling {ceiling} (raw f32 payload {raw}); a second dense copy \
                     is resident"
                );
                failed = true;
            }
        }
        for row in &rows {
            let floor = smoke_floor(row.world, &row.method);
            if row.recall < floor {
                eprintln!(
                    "SMOKE FLOOR VIOLATION: {}/{} recall {:.4} < floor {:.2}",
                    row.world, row.method, row.recall, floor
                );
                failed = true;
            }
            // Cost gate: filtering must actually filter. The per-cell
            // ceiling catches tuning regressions; the global `1.05 * n`
            // bound catches any method degrading past brute force.
            let ceiling = (smoke_dists_ceiling(row.world, &row.method) * row.n as f64)
                .min(1.05 * row.n as f64);
            if row.dists_per_query > ceiling {
                eprintln!(
                    "SMOKE DISTS CEILING VIOLATION: {}/{} {:.1} dists/query > ceiling {:.1} (n = {})",
                    row.world, row.method, row.dists_per_query, ceiling, row.n
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "smoke: all {} cells within their recall floors and dists/query ceilings",
            rows.len()
        );
    }
}
