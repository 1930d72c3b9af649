//! The metric catalog and the result line every run prints.

use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics (printed with `--trace 0`), with their units. Every
/// workload reports every one of them; `README.md` defines each per
/// workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("recall_at_10", "ratio"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`), with their units. A layer
/// a workload does not run reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("spaces.l2_flat_ns_per_row", "ns"),
    ("spaces.l2_flat_gbps", "GB/s"),
    ("spaces.l2_quant_ns_per_row", "ns"),
    ("spaces.l2_quant_gbps", "GB/s"),
    ("spaces.kl_ns_per_row", "ns"),
    ("spaces.kl_gbps", "GB/s"),
    ("spaces.memcpy_gbps", "GB/s"),
    ("spaces.dists_per_query", "count"),
    ("core.dataset_bytes", "bytes"),
    ("core.sq8_bytes", "bytes"),
    ("permutation.filter_us", "us"),
    ("permutation.quant_filter_us", "us"),
    ("permutation.refine_us", "us"),
    ("permutation.candidates_per_query", "count"),
    ("permutation.quant_engaged_share", "ratio"),
    ("permutation.refine_yield", "ratio"),
    ("engine.merge_us", "us"),
    ("engine.mutable.tombstones_max", "count"),
    ("engine.mutable.k_fetch_mean", "count"),
    ("engine.mutable.segments_max", "count"),
    ("engine.mutable.flush_ms_p50", "ms"),
    ("engine.mutable.flush_ms_max", "ms"),
    ("engine.mutable.insert_us_p50", "us"),
    ("engine.mutable.delete_us_p50", "us"),
    ("engine.mutable.write_p50_us", "us"),
    ("engine.mutable.write_p99_us", "us"),
    ("engine.mutable.search_growth", "ratio"),
    ("store.journal_bytes_per_mutation", "bytes"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_share", "ratio"),
    ("bench.failed_share", "ratio"),
    ("bench.queries_traced", "count"),
    ("bench.kernel_calls_replayed", "count"),
];

/// One run's result: configuration record, metrics, operation counts and
/// correctness-gate outcomes.
pub struct Report {
    trace: bool,
    config: Vec<(String, String)>,
    metrics: Vec<(&'static str, f64)>,
    /// Operations sent (queries, writes, flushes).
    pub attempted: u64,
    /// Operations that errored, were shed, came back failed/partial, or
    /// were refused.
    pub failed: u64,
    /// All correctness gates passed.
    pub correct: bool,
}

impl Report {
    /// Start a report with the configuration fields every workload shares.
    pub fn new(opts: &crate::Opts) -> Self {
        let mut r = Self {
            trace: opts.trace,
            config: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        };
        r.config_str("workload", &opts.workload);
        r.config_str("commit", &commit().unwrap_or_else(|| "unknown".into()));
        r.config_str("source_fnv64", &format!("{:016x}", source_fingerprint()));
        r.config_num("nproc", nproc() as f64);
        r.config_num("seed", opts.seed as f64);
        r.config_num("seconds", opts.seconds);
        r.config_num("trace", u8::from(opts.trace) as f64);
        r.config_num("n", opts.scale.n as f64);
        r.config_num("queries", opts.scale.queries as f64);
        r.config_num("setups", opts.scale.setups as f64);
        r
    }

    /// Record a string configuration field.
    pub fn config_str(&mut self, key: &str, value: &str) {
        self.config.push((key.to_string(), json_string(value)));
    }

    /// Record a numeric configuration field.
    pub fn config_num(&mut self, key: &str, value: f64) {
        self.config.push((key.to_string(), json_number(value)));
    }

    /// Set a metric of the catalog for this run's mode. Metrics of the other
    /// mode are ignored, so workloads can compute both unconditionally.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let catalog: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let other: &[(&str, &str)] = if self.trace { &END_TO_END } else { &PER_LAYER };
        if catalog.iter().any(|(n, _)| *n == name) {
            self.metrics.retain(|(n, _)| *n != name);
            self.metrics.push((name, value));
        } else {
            assert!(
                other.iter().any(|(n, _)| *n == name),
                "metric {name} is not in the catalog"
            );
        }
    }

    /// Fail a correctness gate: the run will print `"correct": false` and
    /// exit 1.
    pub fn gate(&mut self, ok: bool, what: &str) {
        if ok {
            eprintln!("[gate] ok: {what}");
        } else {
            eprintln!("[gate] FAILED: {what}");
            self.correct = false;
        }
    }

    /// The value set for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The result line's metrics object; unset catalog entries read 0.
    fn metrics_json(&self) -> String {
        let catalog: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut out = String::from("{");
        for (i, (name, unit)) in catalog.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        out.push('}');
        out
    }

    /// Print the human-readable metric lines, the configuration record, and
    /// the result object as the last stdout line.
    pub fn print(&self) {
        let catalog: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in catalog {
            match self.get(name) {
                Some(v) => println!("{name:<36} {v:>16.4} {unit}"),
                None => println!("{name:<36} {:>16} {unit} (layer not on this path)", 0),
            }
        }
        let config: Vec<String> = self
            .config
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("config {{{}}}", config.join(", "));
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json()
        );
    }

    /// Metric names and units this report would print, for the self-test.
    pub fn emitted(&self) -> Vec<(&'static str, &'static str, f64)> {
        let catalog: &[(&'static str, &'static str)] =
            if self.trace { &PER_LAYER } else { &END_TO_END };
        catalog
            .iter()
            .map(|&(n, u)| (n, u, self.get(n).unwrap_or(0.0)))
            .collect()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Available hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` without running git. `None`
/// outside a git checkout.
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a over the library sources (`crates/`, sorted by path), so a result
/// names the code it measured even where no git metadata exists.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
