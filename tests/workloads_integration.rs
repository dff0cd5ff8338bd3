//! Workspace integration test: every workload, compiled under every named
//! configuration, must print exactly what the reference interpreter prints,
//! with the simulator's register-preservation checker enabled throughout.
//! (`verify_static` runs the static register-contract verifier over the
//! same workloads and configurations.)

use ipra_driver::differential::all_configs;
use ipra_driver::{compile_and_run, Config};

/// Every named configuration, plus the inliner at `-O2` under a small
/// growth budget (`-O2 --inline --inline-budget 8`).
fn configs() -> Vec<Config> {
    let mut small_budget = Config::inline_a();
    small_budget.name = "inline/A budget 8".into();
    small_budget.opts.inline_budget = 8;
    let mut configs = all_configs();
    configs.push(small_budget);
    configs
}

#[test]
fn every_workload_agrees_with_the_interpreter_under_every_config() {
    for w in ipra_workloads::all() {
        let module = ipra_workloads::compile_workload(w)
            .unwrap_or_else(|e| panic!("[{}] front end: {e}", w.name));
        let expected = ipra_ir::interp::run_module(&module)
            .unwrap_or_else(|t| panic!("[{}] interpreter: {t}", w.name));
        for config in configs() {
            let m = compile_and_run(&module, &config)
                .unwrap_or_else(|t| panic!("[{}/{}] simulator: {t}", w.name, config.name));
            assert_eq!(
                m.output, expected.output,
                "[{}/{}] output mismatch",
                w.name, config.name
            );
        }
    }
}

#[test]
fn optimizations_help_on_the_whole_suite() {
    // Aggregate claim of Table 1: -O3 must reduce total scalar traffic over
    // the suite (individual programs may regress, as ccom does in B).
    let mut base_total = 0u64;
    let mut o3_total = 0u64;
    let mut base_cycles = 0u64;
    let mut o3_cycles = 0u64;
    for w in ipra_workloads::all() {
        let module = ipra_workloads::compile_workload(w).unwrap();
        let base = compile_and_run(&module, &Config::o2_base()).unwrap();
        let o3 = compile_and_run(&module, &Config::c()).unwrap();
        base_total += base.scalar_mem();
        o3_total += o3.scalar_mem();
        base_cycles += base.cycles();
        o3_cycles += o3.cycles();
    }
    assert!(
        o3_total < base_total,
        "suite-wide scalar traffic must drop: {o3_total} vs {base_total}"
    );
    assert!(
        o3_cycles <= base_cycles,
        "suite-wide cycles must not regress: {o3_cycles} vs {base_cycles}"
    );
}

#[test]
fn shrink_wrap_alone_never_increases_scalar_traffic_suite_wide() {
    // Paper: "Column IIA shows that this optimization always reduces memory
    // accesses" — checked per workload.
    for w in ipra_workloads::all() {
        let module = ipra_workloads::compile_workload(w).unwrap();
        let base = compile_and_run(&module, &Config::o2_base()).unwrap();
        let a = compile_and_run(&module, &Config::a()).unwrap();
        assert!(
            a.scalar_mem() <= base.scalar_mem(),
            "[{}] shrink-wrap added scalar traffic: {} vs {}",
            w.name,
            a.scalar_mem(),
            base.scalar_mem()
        );
    }
}

#[test]
fn separate_compilation_degrades_gracefully() {
    // Forcing every function open must still be correct, and must not beat
    // the fully-closed compilation.
    let w = ipra_workloads::by_name("calcc").unwrap();
    let module = ipra_workloads::compile_workload(w).unwrap();
    let expected = ipra_ir::interp::run_module(&module).unwrap();

    let mut all_open = Config::c();
    all_open.name = "all-open".into();
    for (_, f) in module.funcs.iter() {
        all_open.opts.forced_open.insert(f.name.clone());
    }
    let open_m = compile_and_run(&module, &all_open).unwrap();
    assert_eq!(open_m.output, expected.output);

    let closed_m = compile_and_run(&module, &Config::c()).unwrap();
    assert!(
        closed_m.scalar_mem() <= open_m.scalar_mem(),
        "closing procedures must not hurt: {} vs {}",
        closed_m.scalar_mem(),
        open_m.scalar_mem()
    );
}
