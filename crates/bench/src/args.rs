//! Minimal command-line parsing for the experiment binaries (no external
//! CLI crate needed for five flags).

use crate::worlds::WORLDS;

/// Common experiment options.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset size override; `None` keeps each dataset's default scale.
    pub n: Option<usize>,
    /// Query-set size override.
    pub queries: Option<usize>,
    /// Base RNG seed.
    pub seed: u64,
    /// Restrict to these dataset names (comma-separated on the CLI).
    pub datasets: Option<Vec<String>>,
    /// Emit JSON instead of an aligned table.
    pub json: bool,
    /// Smoke mode: a binary shrinks its sweep to a seconds-scale sanity
    /// pass (used by CI to exercise the serving path, not to measure it).
    pub smoke: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            n: None,
            queries: None,
            seed: 42,
            datasets: None,
            json: false,
            smoke: false,
        }
    }
}

impl Args {
    /// Parse `std::env::args()`. Unknown flags abort with a usage message.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn from_args<I: IntoIterator<Item = String>>(iter: I) -> Self {
        let mut args = Args::default();
        let mut it = iter.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--n" => args.n = Some(expect_num(&flag, it.next())),
                "--queries" => args.queries = Some(expect_num(&flag, it.next())),
                "--seed" => args.seed = expect_num(&flag, it.next()) as u64,
                "--datasets" => {
                    let v = it.next().unwrap_or_else(|| usage(&flag));
                    let names: Vec<String> = v.split(',').map(|s| s.trim().to_string()).collect();
                    let known: Vec<&str> = WORLDS.iter().map(|&(w, _)| w).collect();
                    if let Some(bad) = names.iter().find(|d| !known.contains(&d.as_str())) {
                        usage(&format!("--datasets {bad} (known: {})", known.join(",")));
                    }
                    args.datasets = Some(names);
                }
                "--json" => args.json = true,
                "--smoke" => args.smoke = true,
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--n N] [--queries Q] [--seed S] [--datasets a,b,c] [--json] [--smoke]"
                    );
                    std::process::exit(0);
                }
                other => usage(other),
            }
        }
        args
    }

    /// Whether dataset `name` is selected.
    pub fn wants(&self, name: &str) -> bool {
        self.datasets
            .as_ref()
            .is_none_or(|ds| ds.iter().any(|d| d == name))
    }
}

fn expect_num(flag: &str, value: Option<String>) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(flag))
}

fn usage(flag: &str) -> ! {
    eprintln!("unexpected or malformed flag: {flag}");
    eprintln!("usage: [--n N] [--queries Q] [--seed S] [--datasets a,b,c] [--json] [--smoke]");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn defaults() {
        let a = parse("");
        assert_eq!(a.n, None);
        assert_eq!(a.seed, 42);
        assert!(a.wants("sift"));
        assert!(!a.json);
    }

    #[test]
    fn full_flags() {
        let a = parse("--n 5000 --queries 50 --seed 7 --datasets sift,dna --json --smoke");
        assert_eq!(a.n, Some(5000));
        assert_eq!(a.queries, Some(50));
        assert_eq!(a.seed, 7);
        assert!(a.json);
        assert!(a.smoke);
        assert!(a.wants("sift"));
        assert!(a.wants("dna"));
        assert!(!a.wants("cophir"));
    }
}
