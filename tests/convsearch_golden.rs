//! Golden tests for the convention-search report: over the same
//! 11-program corpus the cache and trace golden tests use, the sparse
//! sweep must pass every point, and the rendered JSON and markdown must
//! be byte-identical across cache temperature (a cold compile populating
//! a fresh `--cache-dir` vs the warm replay from it). CI reruns the dense
//! sweep and diffs it against the committed `BENCH_convsearch.json`.

use std::path::PathBuf;

use ipra_driver::convsearch::{
    corpus_program, default_shapes, grid_points, run_search, CorpusProgram, SearchOptions,
};

mod common;

/// The shared golden corpus, prepared for the search.
fn corpus() -> Vec<CorpusProgram> {
    common::corpus()
        .into_iter()
        .map(|(name, module)| corpus_program(&name, module).unwrap())
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ipra-convsearch-{tag}-{}", std::process::id()))
}

/// The sparse sweep over both default shapes must pass every point on the
/// full corpus.
#[test]
fn sparse_sweep_passes_every_point_on_the_corpus() {
    let report = run_search(&corpus(), &default_shapes(), &SearchOptions::default());
    assert!(report.failures.is_empty(), "{:#?}", report.failures);
    assert_eq!(report.num_points(), report.num_passing_points());
    assert_eq!(report.corpus.len(), 11);
}

/// A cold search populating a fresh cache directory and the warm rerun
/// replaying from it must render byte-identical reports — and both must
/// match the uncached search.
#[test]
fn report_is_byte_identical_across_cache_temperature() {
    let corpus = corpus();
    let shapes = default_shapes();
    let dir = scratch_dir("cache");
    let _ = std::fs::remove_dir_all(&dir);

    let uncached = run_search(&corpus, &shapes, &SearchOptions::default());
    let cached_opts = SearchOptions {
        cache_dir: Some(dir.clone()),
        ..SearchOptions::default()
    };
    let cold = run_search(&corpus, &shapes, &cached_opts);
    let warm = run_search(&corpus, &shapes, &cached_opts);
    let _ = std::fs::remove_dir_all(&dir);

    let want = uncached.to_json().render_pretty();
    assert_eq!(
        cold.to_json().render_pretty(),
        want,
        "cold cached report differs from uncached"
    );
    assert_eq!(
        warm.to_json().render_pretty(),
        want,
        "warm cached report differs from uncached"
    );
    assert_eq!(warm.to_markdown(), uncached.to_markdown());
}

/// The dense grid — the one the committed `BENCH_convsearch.json` was
/// produced from — meets the coverage floor on every default shape.
#[test]
fn dense_grid_meets_the_coverage_floor() {
    for shape in default_shapes() {
        assert!(
            grid_points(&shape, true).len() >= 12,
            "{} dense grid below the 12-point floor",
            shape.name
        );
    }
}
