//! `perfbench` — the permsearch benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sift-napp --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Each run builds one workload's inputs from `--seed`, drives the library
//! through its public API, checks the answers, and prints one JSON object as
//! its last stdout line. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer metrics (see `README.md` for every definition).
//! A failed correctness gate prints `"correct": false` and exits 1.
//! `--self-test` runs every workload at a tiny scale in both modes and checks
//! that every metric `BENCHMARK.json` names is emitted with its unit.

mod churn;
mod inproc;
mod layers;
mod report;
mod selftest;
mod stats;

use std::process::exit;

use report::Report;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sift-napp", "kl-napp", "churn"];

/// Input sizes of one run. `full` is what the benchmark measures; `tiny`
/// keeps the self-test to seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Indexed points (the base set on churn).
    pub n: usize,
    /// Held-out queries.
    pub queries: usize,
    /// Index builds timed for `setup_s` (the median is reported).
    pub setups: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        n: 20_000,
        queries: 1_000,
        setups: 9,
    };
    pub const TINY: Scale = Scale {
        n: 2_000,
        queries: 40,
        setups: 2,
    };
}

/// Seed of every workload's corpus, held-out pool and index build. The
/// deployment is the same on every run, as a real corpus would be; the
/// run's `--seed` draws the queries (and churn's inserts and op stream)
/// from the pool. With a corpus per seed, work per query moved by up to
/// ±20% between seeds and hid the run-to-run changes the benchmark exists
/// to catch.
pub const CORPUS_SEED: u64 = 0x0005_0017;

/// The fixed corpus of `n` points, and `draw` points the run's `seed`
/// samples from a held-out pool of `5 × draw`.
pub fn inputs<G: permsearch_datasets::Generator>(
    generator: G,
    n: usize,
    draw: usize,
    seed: u64,
) -> (Vec<G::Point>, Vec<G::Point>) {
    let all = generator.generate(n + 5 * draw, CORPUS_SEED);
    let (corpus, pool) = permsearch_eval::split_points(all, 5 * draw, CORPUS_SEED);
    let (_, drawn) = permsearch_eval::split_points(pool, draw, seed);
    (corpus, drawn)
}

/// One run's options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload {sift-napp|kl-napp|churn} \
--seed N --seconds S --trace {0|1}\n       perfbench --self-test";

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2)
}

fn parse(argv: &[String]) -> Opts {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| die("--seed takes an unsigned integer")),
                )
            }
            "--seconds" => {
                let s = value()
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("--seconds takes a number"));
                if !(s > 0.0 && s <= 600.0) {
                    die("--seconds must be in (0, 600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                })
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| die("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        die(&format!("unknown workload {workload}"));
    }
    Opts {
        workload,
        seed: seed.unwrap_or_else(|| die("--seed is required")),
        seconds: seconds.unwrap_or_else(|| die("--seconds is required")),
        trace: trace.unwrap_or_else(|| die("--trace is required")),
        scale: Scale::FULL,
    }
}

/// Run one workload and return its report (not yet printed).
pub fn run(opts: &Opts) -> Report {
    match opts.workload.as_str() {
        "sift-napp" => inproc::sift(opts),
        "kl-napp" => inproc::kl(opts),
        "churn" => churn::run(opts),
        other => unreachable!("workload {other} passed validation"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--self-test") {
        match selftest::run() {
            Ok(()) => {
                println!("self-test: every workload emits every metric BENCHMARK.json names");
                return;
            }
            Err(e) => {
                eprintln!("self-test failed: {e}");
                exit(1);
            }
        }
    }
    let opts = parse(&argv);
    let report = run(&opts);
    report.print();
    if !report.correct {
        exit(1);
    }
}
