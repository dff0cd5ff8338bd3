//! Corpus regression test: every checked-in repro under `corpus/` must
//! pass the full differential check. When a fuzzing run finds a failure,
//! the minimized repro gets fixed and then checked in here, so the bug
//! stays fixed.
//!
//! Repros are plain Mini sources (`*.mini`), optionally with `//` header
//! comments recording their provenance. The synthetic call tree
//! `tree-8x2` rides along as the widest call DAG the check sees: its
//! 256 functions include 128 leaves, far more than any repro's.

use ipra_driver::differential::{check_module, check_source, DiffOptions, DiffVerdict};
use ipra_workloads::synth;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("corpus")
}

#[test]
fn every_checked_in_repro_passes_the_differential_check() {
    let dir = corpus_dir();
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "mini"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "corpus must contain at least one repro");

    let opts = DiffOptions::default();
    for path in &names {
        let src = std::fs::read_to_string(path).unwrap();
        match check_source(&src, &opts) {
            Ok(DiffVerdict::Pass) => {}
            Ok(DiffVerdict::Skipped(t)) => {
                panic!("{}: repro hit a resource limit ({t:?})", path.display())
            }
            Err(f) => panic!("{}: regressed: {f}", path.display()),
        }
    }
    let tree = synth::call_tree_program(7, 2, 8, 1);
    match check_module(&tree, &opts) {
        Ok(verdict) => assert_eq!(verdict, DiffVerdict::Pass, "tree-8x2"),
        Err(f) => panic!("tree-8x2: regressed: {f}"),
    }
}
