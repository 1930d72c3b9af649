//! Dataset registry: one "world" per paper dataset, scaled to laptop size.
//!
//! A world is `(indexed dataset, query set, space)`, produced with the
//! paper's split protocol (§3.3). Default sizes keep every harness binary
//! within a laptop time budget; `--n` / `--queries` scale them up toward
//! the paper's millions.

use std::sync::Arc;

use permsearch_core::Dataset;
use permsearch_datasets::Generator;
use permsearch_eval::split_points;
use permsearch_spaces::{Sequence, Signature, SparseVector, TopicHistogram};

use crate::Args;

/// Canonical dataset names with their default indexed-set sizes (scaled
/// by distance cost), in the paper's Table 1 order. The one list of world
/// names: `--datasets` is validated against it.
pub const WORLDS: [(&str, usize); 9] = [
    ("cophir", 20_000),
    ("sift", 20_000),
    ("imagenet", 2_000),
    ("wiki-sparse", 10_000),
    ("wiki8-kl", 20_000),
    ("wiki128-kl", 20_000),
    ("wiki8-js", 10_000),
    ("wiki128-js", 10_000),
    ("dna", 3_000),
];

/// Default indexed-set size for a dataset.
pub fn default_n(name: &str) -> usize {
    WORLDS
        .iter()
        .find(|&&(w, _)| w == name)
        .map(|&(_, n)| n)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
}

/// Default query-set size (the paper uses 1000 for cheap distances and 200
/// for expensive ones; we scale both down proportionally).
pub fn default_queries(name: &str) -> usize {
    match name {
        "imagenet" | "dna" => 40,
        _ => 100,
    }
}

fn sizes(args: &Args, name: &str) -> (usize, usize) {
    (
        args.n.unwrap_or_else(|| default_n(name)),
        args.queries.unwrap_or_else(|| default_queries(name)),
    )
}

fn build<G: Generator>(
    gen: &G,
    n: usize,
    q: usize,
    seed: u64,
) -> (Arc<Dataset<G::Point>>, Vec<G::Point>) {
    let all = gen.generate(n + q, seed);
    let (indexed, queries) = split_points(all, q, seed ^ 0x0005_0017);
    (Arc::new(Dataset::new(indexed)), queries)
}

/// Like [`build`] for dense-vector generators: the indexed points move
/// into a contiguous [`permsearch_core::FlatVectors`] arena (the *only*
/// dense copy — there is no nested mirror) so every batched scoring path
/// over these worlds runs gather-free. No SQ8 tier is attached: refine
/// scores every candidate exactly from the arena and reads no tier.
fn build_dense<G: Generator<Point = Vec<f32>>>(
    gen: &G,
    n: usize,
    q: usize,
    seed: u64,
) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
    let all = gen.generate(n + q, seed);
    let (indexed, queries) = split_points(all, q, seed ^ 0x0005_0017);
    (Arc::new(Dataset::new_flat(indexed)), queries)
}

/// CoPhIR-like world (282-d dense, L2; arena-backed).
pub fn cophir(args: &Args) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
    let (n, q) = sizes(args, "cophir");
    build_dense(&permsearch_datasets::cophir_like(), n, q, args.seed)
}

/// SIFT-like world (128-d dense, L2; arena-backed).
pub fn sift(args: &Args) -> (Arc<Dataset<Vec<f32>>>, Vec<Vec<f32>>) {
    let (n, q) = sizes(args, "sift");
    build_dense(&permsearch_datasets::sift_like(), n, q, args.seed)
}

/// ImageNet-like world (feature signatures, SQFD).
pub fn imagenet(args: &Args) -> (Arc<Dataset<Signature>>, Vec<Signature>) {
    let (n, q) = sizes(args, "imagenet");
    build(&permsearch_datasets::imagenet_like(), n, q, args.seed)
}

/// Wiki-sparse-like world (sparse TF-IDF, cosine).
pub fn wiki_sparse(args: &Args) -> (Arc<Dataset<SparseVector>>, Vec<SparseVector>) {
    let (n, q) = sizes(args, "wiki-sparse");
    build(&permsearch_datasets::wiki_sparse_like(), n, q, args.seed)
}

/// Wiki-8-like world (8-topic histograms; pair with KL or JS).
pub fn wiki8(args: &Args, name: &str) -> (Arc<Dataset<TopicHistogram>>, Vec<TopicHistogram>) {
    let (n, q) = sizes(args, name);
    build(&permsearch_datasets::wiki8_like(), n, q, args.seed)
}

/// Wiki-128-like world (128-topic histograms; pair with KL or JS).
pub fn wiki128(args: &Args, name: &str) -> (Arc<Dataset<TopicHistogram>>, Vec<TopicHistogram>) {
    let (n, q) = sizes(args, name);
    build(&permsearch_datasets::wiki128_like(), n, q, args.seed)
}

/// DNA-like world (byte sequences, normalized Levenshtein).
pub fn dna(args: &Args) -> (Arc<Dataset<Sequence>>, Vec<Sequence>) {
    let (n, q) = sizes(args, "dna");
    build(&permsearch_datasets::dna_like(), n, q, args.seed)
}

/// Run `$body` once per selected world, with `$name`, `$data`, `$queries`
/// and `$space` bound appropriately for each dataset. The body is expanded
/// per arm, so it may use the concrete point/space types generically.
#[macro_export]
macro_rules! for_each_world {
    ($args:expr, |$name:ident, $data:ident, $queries:ident, $space:ident| $body:block) => {{
        let args_ref = &$args;
        if args_ref.wants("cophir") {
            let $name = "cophir";
            let ($data, $queries) = $crate::worlds::cophir(args_ref);
            let $space = ::permsearch_spaces::L2;
            $body
        }
        if args_ref.wants("sift") {
            let $name = "sift";
            let ($data, $queries) = $crate::worlds::sift(args_ref);
            let $space = ::permsearch_spaces::L2;
            $body
        }
        if args_ref.wants("imagenet") {
            let $name = "imagenet";
            let ($data, $queries) = $crate::worlds::imagenet(args_ref);
            let $space = ::permsearch_spaces::Sqfd::default();
            $body
        }
        if args_ref.wants("wiki-sparse") {
            let $name = "wiki-sparse";
            let ($data, $queries) = $crate::worlds::wiki_sparse(args_ref);
            let $space = ::permsearch_spaces::CosineDistance;
            $body
        }
        if args_ref.wants("wiki8-kl") {
            let $name = "wiki8-kl";
            let ($data, $queries) = $crate::worlds::wiki8(args_ref, "wiki8-kl");
            let $space = ::permsearch_spaces::KlDivergence;
            $body
        }
        if args_ref.wants("wiki128-kl") {
            let $name = "wiki128-kl";
            let ($data, $queries) = $crate::worlds::wiki128(args_ref, "wiki128-kl");
            let $space = ::permsearch_spaces::KlDivergence;
            $body
        }
        if args_ref.wants("wiki8-js") {
            let $name = "wiki8-js";
            let ($data, $queries) = $crate::worlds::wiki8(args_ref, "wiki8-js");
            let $space = ::permsearch_spaces::JsDivergence;
            $body
        }
        if args_ref.wants("wiki128-js") {
            let $name = "wiki128-js";
            let ($data, $queries) = $crate::worlds::wiki128(args_ref, "wiki128-js");
            let $space = ::permsearch_spaces::JsDivergence;
            $body
        }
        if args_ref.wants("dna") {
            let $name = "dna";
            let ($data, $queries) = $crate::worlds::dna(args_ref);
            let $space = ::permsearch_spaces::NormalizedLevenshtein;
            $body
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worlds_build_with_tiny_overrides() {
        let args = Args {
            n: Some(50),
            queries: Some(5),
            ..Default::default()
        };
        let (d, q) = sift(&args);
        assert_eq!(d.len(), 50);
        assert_eq!(q.len(), 5);
        let (d, q) = dna(&args);
        assert_eq!(d.len(), 50);
        assert_eq!(q.len(), 5);
        let (d, _) = wiki8(&args, "wiki8-kl");
        assert_eq!(d.get(0).dim(), 8);
    }

    #[test]
    fn macro_visits_selected_worlds() {
        let args = Args {
            n: Some(30),
            queries: Some(3),
            datasets: Some(vec!["sift".into(), "dna".into()]),
            ..Default::default()
        };
        let mut visited = Vec::new();
        for_each_world!(args, |name, data, queries, space| {
            // Touch everything generically.
            let _ = permsearch_core::Space::distance(&space, &queries[0], &queries[1]);
            assert_eq!(data.len(), 30);
            visited.push(name);
        });
        assert_eq!(visited, vec!["sift", "dna"]);
    }

    #[test]
    fn default_scales_are_defined_for_all_worlds() {
        for (w, _) in WORLDS {
            assert!(default_n(w) > 0);
            assert!(default_queries(w) > 0);
        }
    }
}
