//! Heap allocations of warm-cache recompiles, counted by a global
//! allocator. Per workload, a warm recompile through a fresh pipeline
//! (every cache hit re-read and re-decoded from disk, every analysis
//! recomputed) is compared with one through a persistent
//! [`ipra_core::Pipeline`] (hits answered from the in-memory entry image,
//! analyses replayed from the memo, scratch recycled).
//!
//! Allocation counts do not vary between runs or build profiles, so the
//! test renders the per-workload table and requires each of its rows in
//! EXPERIMENTS.md. This file holds a single test: no other test thread
//! allocates inside a measured window.

use ipra_bench::alloc_meter::{measure, CountingAlloc};
use ipra_core::ipra::compile_module;
use ipra_core::Pipeline;
use ipra_driver::Config;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
        let module = ipra_workloads::compile_workload(w).unwrap();
        let mut cfg = Config::c();
        cfg.opts.jobs = 1;
        cfg.opts.cache_dir = Some(dir.join(w.name));

        // The cold compile populates the disk cache and is not measured.
        compile_module(&module, &cfg.target, &cfg.opts);
        let (fresh_out, fresh) = measure(|| compile_module(&module, &cfg.target, &cfg.opts));

        // The priming compile decodes the cache entries into the
        // pipeline; the measured recompile never touches the directory.
        let pipe = Pipeline::new();
        pipe.compile(&module, &cfg.target, &cfg.opts);
        let (reused_out, reused) = measure(|| pipe.compile(&module, &cfg.target, &cfg.opts));

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
