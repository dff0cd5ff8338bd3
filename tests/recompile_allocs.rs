//! Heap allocations of warm-cache recompiles from source text, counted by
//! a global allocator. Per workload, a fresh front end plus a one-shot
//! `compile_module` with a warm cache directory (every hit re-read and
//! re-decoded from disk) is compared with a replay of the same text
//! through a persistent [`ipra_core::Pipeline`]'s source entry point
//! (the prepared module replayed whole, so no front end runs, and every
//! component answered from its memo).
//!
//! Allocation counts do not vary between runs or build profiles, so the
//! test renders the per-workload table and requires each of its rows in
//! EXPERIMENTS.md. The fresh side's front end is `parse` plus `lower`:
//! `ipra_frontend::compile` also runs the IR verifier in debug builds
//! only. This file holds a single test: no other test thread allocates
//! inside a measured window.

use std::cell::Cell;

use ipra_bench::alloc_meter::{measure, CountingAlloc};
use ipra_core::ipra::compile_module;
use ipra_core::Pipeline;
use ipra_driver::Config;
use ipra_frontend::{lower, parser, CompileError};
use ipra_ir::Module;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The Mini front end without the debug-only verification
/// `ipra_frontend::compile` adds, so its counts match in every profile.
fn front_end(text: &str) -> Result<Module, CompileError> {
    lower::lower(&parser::parse(text)?)
}

/// The share of a fresh recompile's allocations the reused pipeline saves.
fn reduction(fresh: u64, reused: u64) -> f64 {
    1.0 - reused as f64 / fresh.max(1) as f64
}

#[test]
fn reused_pipeline_halves_warm_recompile_allocations() {
    let dir = std::env::temp_dir().join(format!("ipra-recompile-allocs-{}", std::process::id()));
    let mut rows = Vec::new();
    let (mut fresh_total, mut reused_total) = (0, 0);
    for w in ipra_workloads::all() {
        let module = front_end(w.source).unwrap();
        let mut cfg = Config::c();
        cfg.opts.cache_dir = Some(dir.join(w.name));

        // The cold compile populates the disk cache and is not measured.
        compile_module(&module, &cfg.target, &cfg.opts);
        let (fresh_out, fresh) = measure(|| {
            let module = front_end(w.source).unwrap();
            compile_module(&module, &cfg.target, &cfg.opts)
        });

        // The priming compile runs the front end and decodes the cache
        // entries into the pipeline; the measured replay neither runs the
        // front end nor reads the directory.
        let pipe = Pipeline::new();
        let calls = Cell::new(0);
        let counted = |text: &str| {
            calls.set(calls.get() + 1);
            front_end(text)
        };
        let replay = || pipe.compile_source(w.source, counted, &cfg.target, &cfg.opts);
        replay().unwrap();
        let (reused_out, reused) = measure(|| replay().unwrap());
        assert_eq!(calls.get(), 1, "[{}] the replay ran the front end", w.name);

        let regs = &cfg.target.regs;
        assert!(
            reused_out.mmodule.asm(regs) == fresh_out.mmodule.asm(regs),
            "[{}] reused-pipeline assembly differs from fresh-pipeline assembly",
            w.name
        );
        rows.push(format!(
            "| {} | {} | {} | {} | {:.1}% |",
            w.name,
            module.funcs.len(),
            fresh.allocs,
            reused.allocs,
            100.0 * reduction(fresh.allocs, reused.allocs)
        ));
        fresh_total += fresh.allocs;
        reused_total += reused.allocs;
    }
    let _ = std::fs::remove_dir_all(&dir);

    let total = reduction(fresh_total, reused_total);
    rows.push(format!(
        "| **TOTAL** | | **{fresh_total}** | **{reused_total}** | **{:.1}%** |",
        100.0 * total
    ));
    let experiments = include_str!("../EXPERIMENTS.md");
    let missing: Vec<&str> = rows
        .iter()
        .map(String::as_str)
        .filter(|row| !experiments.contains(row))
        .collect();
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md lacks these warm-recompile rows:\n{}",
        missing.join("\n")
    );
    assert!(
        total >= 0.5,
        "warm-recompile allocation reduction {:.1}% is below the 50% floor",
        100.0 * total
    );
}
