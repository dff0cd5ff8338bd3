//! Measures the heap-allocation cost of warm-cache recompiles: for each
//! workload, compares a warm recompile through a fresh pipeline (every
//! cache hit re-read and re-decoded from disk) against one through a
//! persistent [`ipra_core::Pipeline`] (hits answered from the in-memory
//! entry image, analyses replayed from the memo, scratch recycled), and
//! writes the results as `BENCH_allocs.json` at the repository root.
//!
//! The two compiles must render byte-identical assembly — the bench
//! doubles as a parity check — and the corpus-total allocation reduction
//! must reach 50%, the budget `bench --check-budgets` enforces.
//!
//! ```text
//! recompile_allocs [--small] [--out <path>] [--history <path>]
//!   --small         three smallest workloads only
//!   --out <p>       output path (default BENCH_allocs.json)
//!   --history <p>   trajectory file to append one summary line to
//!                   (default BENCH_history.jsonl; `--history none` skips)
//! ```

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use ipra_bench::alloc_meter::{measure, AllocDelta, CountingAlloc};
use ipra_bench::{append_history, history_entry};
use ipra_core::ipra::{compile_module, CompiledModule};
use ipra_core::Pipeline;
use ipra_driver::Config;
use ipra_obs::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Row {
    name: String,
    funcs: usize,
    baseline: AllocDelta,
    reuse: AllocDelta,
}

impl Row {
    fn reduction(&self) -> f64 {
        1.0 - self.reuse.allocs as f64 / self.baseline.allocs.max(1) as f64
    }
}

/// Renders every function's machine code — the byte-identity witness.
fn asm_of(compiled: &CompiledModule, config: &Config) -> String {
    let mut out = String::new();
    for (_, f) in compiled.mmodule.funcs.iter() {
        out.push_str(
            &f.display_in(&config.target.regs, &compiled.mmodule)
                .to_string(),
        );
        out.push('\n');
    }
    out
}

fn main() -> ExitCode {
    let mut small = false;
    let mut out_path = "BENCH_allocs.json".to_string();
    let mut history = Some("BENCH_history.jsonl".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let ok = match a.as_str() {
            "--small" => {
                small = true;
                true
            }
            "--out" => match args.next() {
                Some(p) => {
                    out_path = p;
                    true
                }
                None => false,
            },
            "--history" => match args.next() {
                Some(p) => {
                    history = (p != "none").then_some(p);
                    true
                }
                None => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("usage: recompile_allocs [--small] [--out PATH] [--history PATH|none]");
            return ExitCode::FAILURE;
        }
    }

    let modules: Vec<_> = ipra_workloads::all()
        .into_iter()
        .take(if small { 3 } else { usize::MAX })
        .map(|w| {
            let m = ipra_workloads::compile_workload(w).expect("workload compiles");
            (w.name.to_string(), m)
        })
        .collect();

    let dir = std::env::temp_dir().join(format!("ipra-alloc-bench-{}", std::process::id()));
    println!("warm-recompile heap allocations — fresh pipeline vs reused pipeline, jobs=1");
    println!(
        "{:<10} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>9}",
        "program", "funcs", "allocs", "bytes", "allocs'", "bytes'", "reduction"
    );

    let mut rows = Vec::new();
    for (name, module) in &modules {
        let mut cfg = Config::c();
        cfg.opts.jobs = 1;
        let cache_dir = dir.join(name);
        let _ = std::fs::remove_dir_all(&cache_dir);
        cfg.opts.cache_dir = Some(cache_dir);

        // Cold compile populates the disk cache (not measured).
        compile_module(module, &cfg.target, &cfg.opts);

        // Baseline: warm-disk recompile through a fresh pipeline — every
        // hit is re-read, re-parsed and re-decoded from the cache files.
        let (base_out, baseline) = measure(|| compile_module(module, &cfg.target, &cfg.opts));

        // Reused pipeline: the priming compile decodes the entries into
        // the in-memory image; the measured recompile then never touches
        // the cache directory and replays analyses from the memo.
        let pipe = Pipeline::new();
        pipe.compile(module, &cfg.target, &cfg.opts);
        let (reuse_out, reuse) = measure(|| pipe.compile(module, &cfg.target, &cfg.opts));

        if asm_of(&reuse_out, &cfg) != asm_of(&base_out, &cfg) {
            eprintln!("{name}: reused-pipeline assembly differs from fresh-pipeline assembly");
            return ExitCode::FAILURE;
        }

        // Export the measurements as gauges through the metrics registry,
        // so traced runs of this harness carry them like any other metric.
        for (pipeline, d) in [("fresh", &baseline), ("reused", &reuse)] {
            let labels = &[("pipeline", pipeline), ("program", name.as_str())];
            ipra_obs::gauge("recompile.heap_allocs", labels, d.allocs as i64);
            ipra_obs::gauge("recompile.heap_bytes", labels, d.bytes as i64);
            ipra_obs::gauge("recompile.heap_peak_bytes", labels, d.peak_bytes as i64);
        }

        let row = Row {
            name: name.clone(),
            funcs: module.funcs.len(),
            baseline,
            reuse,
        };
        println!(
            "{:<10} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>8.1}%",
            row.name,
            row.funcs,
            row.baseline.allocs,
            row.baseline.bytes,
            row.reuse.allocs,
            row.reuse.bytes,
            100.0 * row.reduction()
        );
        rows.push(row);
    }

    let sum = |f: fn(&Row) -> u64| rows.iter().map(f).sum::<u64>();
    let allocs_baseline = sum(|r| r.baseline.allocs);
    let allocs_reuse = sum(|r| r.reuse.allocs);
    let bytes_baseline = sum(|r| r.baseline.bytes);
    let bytes_reuse = sum(|r| r.reuse.bytes);
    let reduction = 1.0 - allocs_reuse as f64 / allocs_baseline.max(1) as f64;
    println!(
        "{:<10} {:>6} | {:>10} {:>12} | {:>10} {:>12} | {:>8.1}%",
        "TOTAL",
        "",
        allocs_baseline,
        bytes_baseline,
        allocs_reuse,
        bytes_reuse,
        100.0 * reduction
    );

    let total = Json::obj(vec![
        ("allocs_baseline", Json::Int(allocs_baseline as i64)),
        ("allocs_reuse", Json::Int(allocs_reuse as i64)),
        ("bytes_baseline", Json::Int(bytes_baseline as i64)),
        ("bytes_reuse", Json::Int(bytes_reuse as i64)),
        ("reduction", Json::Float(reduction)),
    ]);
    let doc = Json::obj(vec![
        ("bench", Json::Str("recompile_allocs".into())),
        ("total", total.clone()),
        (
            "programs",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("funcs", Json::Int(r.funcs as i64)),
                            ("allocs_baseline", Json::Int(r.baseline.allocs as i64)),
                            ("allocs_reuse", Json::Int(r.reuse.allocs as i64)),
                            ("bytes_baseline", Json::Int(r.baseline.bytes as i64)),
                            ("bytes_reuse", Json::Int(r.reuse.bytes as i64)),
                            ("peak_baseline", Json::Int(r.baseline.peak_bytes as i64)),
                            ("peak_reuse", Json::Int(r.reuse.peak_bytes as i64)),
                            ("reduction", Json::Float(r.reduction())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.render_pretty()) {
        eprintln!("{out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    if let Some(path) = history {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        if let Err(e) = append_history(
            path.as_ref(),
            &history_entry("recompile_allocs", unix_ms, total),
        ) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("appended to {path}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    if reduction < 0.5 {
        eprintln!(
            "allocation reduction {:.1}% is below the 50% target",
            100.0 * reduction
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
