//! The static verifier must accept everything the compiler actually
//! produces: the 13-program paper-analog suite and every reduced fuzz
//! repro in `corpus/`, under every named configuration plus the inliner
//! at `-O2` under a small growth budget. A violation here is either a
//! compiler bug or a verifier false positive — both are release blockers
//! for the second oracle. The same compiles pin that a summary is the
//! default one exactly when its function was treated as open.

use ipra_core::AllocMode;
use ipra_driver::differential::all_configs;
use ipra_driver::{compile_only, Config};

/// Every named configuration, plus `-O2 --inline --inline-budget 8`.
fn configs() -> Vec<Config> {
    let mut small_budget = Config::inline_a();
    small_budget.name = "inline/A budget 8".into();
    small_budget.opts.inline_budget = 8;
    let mut configs = all_configs();
    configs.push(small_budget);
    configs
}

fn assert_verifies(name: &str, source: &str) {
    let module =
        ipra_frontend::compile(source).unwrap_or_else(|e| panic!("{name}: frontend rejected: {e}"));
    for config in configs() {
        let compiled = compile_only(&module, &config);
        let violations =
            ipra_verify::verify_module(&compiled.mmodule, &config.target.regs, &compiled.summaries);
        assert!(
            violations.is_empty(),
            "{name} under {}: {} violation(s), first: {}",
            config.name,
            violations.len(),
            violations[0]
        );
        // The driver publishes a summary to callers, and
        // `clobber_masks()` reads its clobbers, on the strength of the
        // default flag alone: it must hold exactly for the functions
        // treated as open.
        for (summary, report) in compiled.summaries.iter().zip(&compiled.reports) {
            let treated_open = config.opts.mode != AllocMode::Inter
                || !report.open_reasons.is_empty()
                || report.forced_open;
            assert_eq!(
                summary.is_default, treated_open,
                "{name} under {}: `{}` has a default summary iff it was treated as open",
                config.name, report.name
            );
        }
    }
}

#[test]
fn paper_analog_suite_verifies_under_all_configs() {
    for w in ipra_workloads::all() {
        assert_verifies(w.name, w.source);
    }
}

#[test]
fn corpus_repros_verify_under_all_configs() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut checked = 0;
    for entry in std::fs::read_dir(corpus).expect("corpus directory") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "mini") {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        assert_verifies(&path.display().to_string(), &source);
        checked += 1;
    }
    assert!(checked > 0, "corpus should hold at least one .mini repro");
}
