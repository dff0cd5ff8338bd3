//! Calibration tests for the shaped generator: the corpora must actually
//! exercise both sides of the paper's open/closed procedure
//! classification, and every shape class must survive the full
//! differential check on a fixed seed window.

use ipra_driver::differential::{check_module, DiffOptions, DiffVerdict};
use ipra_workloads::synth::{shaped_source, ShapeClass, ShapeConfig, ShapeStats};

fn module_for(class: ShapeClass, seed: u64) -> ipra_ir::Module {
    let src = shaped_source(seed, &ShapeConfig::new(class));
    ipra_frontend::compile(&src).unwrap_or_else(|e| panic!("{class} seed {seed}: {e}\n{src}"))
}

/// Every function-pointer-heavy module must classify at least one
/// procedure besides `main` open (the `AddressTaken` reason), with a real
/// indirect call site to back it up.
#[test]
fn fnptr_heavy_modules_always_classify_an_open_procedure() {
    for seed in 0..40u64 {
        let s = ShapeStats::collect(&module_for(ShapeClass::FnPtrHeavy, seed));
        assert!(s.address_taken_funcs >= 1, "seed {seed}: no address taken");
        assert!(s.indirect_sites >= 1, "seed {seed}: no indirect call site");
        assert!(
            s.open_funcs >= 2,
            "seed {seed}: expected main plus an address-taken procedure open, \
             got {} open / {} closed",
            s.open_funcs,
            s.closed_funcs
        );
    }
}

/// Fully direct acyclic modules must classify every non-`main` procedure
/// closed: no recursion, no address-taking, nothing externally visible.
#[test]
fn acyclic_modules_classify_all_non_main_procedures_closed() {
    for seed in 0..40u64 {
        let s = ShapeStats::collect(&module_for(ShapeClass::Acyclic, seed));
        assert_eq!(s.recursive_funcs, 0, "seed {seed}");
        assert_eq!(s.indirect_sites, 0, "seed {seed}");
        assert_eq!(s.open_funcs, 1, "seed {seed}: only main is open");
        assert_eq!(s.closed_funcs, s.funcs - 1, "seed {seed}");
    }
}

/// Recursion corpora put procedures on call-graph cycles; a cycle forces
/// the `Recursive` open reason, so those procedures classify open.
#[test]
fn recursive_corpora_put_procedures_on_cycles() {
    let mut agg = ShapeStats::default();
    for seed in 0..25u64 {
        agg.absorb(&ShapeStats::collect(&module_for(
            ShapeClass::DeepRecursion,
            seed,
        )));
    }
    assert!(agg.recursive_funcs > 0, "no cycles in 25 recursion modules");
    assert!(
        agg.open_funcs > 25,
        "recursive procedures must classify open beyond the 25 mains"
    );
}

/// The full differential check (all configs, oracle comparison, static
/// verifier) over a fixed window of every shape class. Resource-limit
/// skips are allowed; differential failures are not.
#[test]
fn every_shape_class_passes_the_differential_check() {
    let opts = DiffOptions::default();
    for class in ShapeClass::ALL {
        let cfg = ShapeConfig::new(class);
        let mut stats = ShapeStats::default();
        for seed in 0..12u64 {
            let src = shaped_source(seed, &cfg);
            let module = ipra_frontend::compile(&src)
                .unwrap_or_else(|e| panic!("{class} seed {seed}: {e}\n{src}"));
            stats.absorb(&ShapeStats::collect(&module));
            match check_module(&module, &opts) {
                Ok(DiffVerdict::Pass | DiffVerdict::Skipped(_)) => {}
                Err(f) => panic!("{class} seed {seed}: {f}\n{src}"),
            }
        }
        assert!(stats.open_funcs > 0, "{class}: no open procedures");
        assert!(stats.closed_funcs > 0, "{class}: no closed procedures");
    }
}

/// Shape statistics must flow into the observability layer, so a trace of
/// a fuzzing run is evidence of corpus calibration.
#[test]
fn shape_counters_prove_both_classes_are_exercised() {
    ipra_obs::enable();
    for class in [ShapeClass::Acyclic, ShapeClass::FnPtrHeavy] {
        for seed in 0..5u64 {
            ShapeStats::collect(&module_for(class, seed)).record();
        }
    }
    let m = ipra_obs::disable().metrics;
    assert!(m.counter_value("shape.open_funcs", &[]) > 0);
    assert!(m.counter_value("shape.closed_funcs", &[]) > 0);
    assert!(m.counter_value("shape.indirect_sites", &[]) > 0);
    assert!(m.counter_value("shape.funcs", &[]) > 0);
}
