//! Measures the wall-clock effect of the wave scheduler: compiles each
//! workload repeatedly under `--jobs 1` and `--jobs N` and prints the
//! speedup, together with the call-graph wave shape (how much parallelism
//! each module exposes).
//!
//! ```text
//! wave_speedup [--jobs <n>] [--reps <r>] [--small] [--out <path>]
//!   --jobs <n>      parallel worker count to compare against serial
//!                   (default: available parallelism)
//!   --reps <r>      timed repetitions per configuration (default 5; the
//!                   minimum over reps is reported to suppress scheduling
//!                   noise)
//!   --small         three smallest workloads only
//!   --out <p>       JSON results path (default BENCH_waves.json)
//! ```
//!
//! Serial and parallel repetitions alternate, and which of the two runs
//! first flips every repetition, so a host whose speed drifts over the
//! run biases neither side. The speedup has no floor; this harness only
//! reports it.

use std::process::ExitCode;
use std::time::Instant;

use ipra_callgraph::{scc::SccInfo, CallGraph};
use ipra_core::ipra::compile_module;
use ipra_driver::Config;
use ipra_ir::Module;
use ipra_obs::json::Json;
use ipra_workloads::synth;

struct Row {
    name: String,
    funcs: usize,
    waves: usize,
    widest: usize,
    serial_us: u128,
    parallel_us: u128,
}

fn wave_shape(module: &Module) -> (usize, usize, usize) {
    let cg = CallGraph::build(module);
    let scc = SccInfo::compute(&cg);
    let waves = scc.levels(&cg);
    let widest = waves.iter().map(Vec::len).max().unwrap_or(0);
    (module.funcs.len(), waves.len(), widest)
}

/// Best-of-`reps` wall times of `a` and `b`, in microseconds, taking
/// their samples alternately and flipping which goes first each rep.
fn best_of_alternating(reps: usize, a: impl Fn(), b: impl Fn()) -> (u128, u128) {
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_micros()
    };
    let (mut best_a, mut best_b) = (u128::MAX, u128::MAX);
    for rep in 0..reps {
        let (ta, tb) = if rep % 2 == 0 {
            let ta = time(&a);
            (ta, time(&b))
        } else {
            let tb = time(&b);
            (time(&a), tb)
        };
        best_a = best_a.min(ta);
        best_b = best_b.min(tb);
    }
    (best_a, best_b)
}

fn main() -> ExitCode {
    let mut jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut reps = 5usize;
    let mut small = false;
    let mut out_path = "BENCH_waves.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let ok = match a.as_str() {
            "--jobs" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(v) => {
                    jobs = v;
                    true
                }
                None => false,
            },
            "--reps" => match args.next().and_then(|v| v.trim().parse().ok()) {
                Some(v) => {
                    reps = v;
                    true
                }
                None => false,
            },
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
            _ => false,
        };
        if !ok {
            eprintln!("usage: wave_speedup [--jobs N] [--reps R] [--small] [--out PATH]");
            return ExitCode::FAILURE;
        }
    }

    let mut modules: Vec<(String, Module)> = ipra_workloads::all()
        .into_iter()
        .take(if small { 3 } else { usize::MAX })
        .map(|w| {
            let m = ipra_workloads::compile_workload(w).expect("workload compiles");
            (w.name.to_string(), m)
        })
        .collect();
    // A wide synthetic call DAG (255 leaf-heavy functions): the upper end of
    // the parallelism the paper's workloads expose.
    modules.push(("tree-8x2".into(), synth::call_tree_program(7, 2, 8, 1)));

    let base = Config::c();
    println!(
        "wave scheduler speedup — jobs=1 vs jobs={jobs}, best of {reps} reps, host parallelism {}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "{:<10} {:>6} {:>6} {:>7} | {:>11} {:>11} {:>8}",
        "program", "funcs", "waves", "widest", "serial(us)", "jobs-N(us)", "speedup"
    );
    let mut rows = Vec::new();
    for (name, module) in &modules {
        let (funcs, waves, widest) = wave_shape(module);
        let mut serial = base.clone();
        serial.opts.jobs = 1;
        let mut parallel = base.clone();
        parallel.opts.jobs = jobs;
        let (serial_us, parallel_us) = best_of_alternating(
            reps,
            || {
                compile_module(module, &serial.target, &serial.opts);
            },
            || {
                compile_module(module, &parallel.target, &parallel.opts);
            },
        );
        rows.push(Row {
            name: name.clone(),
            funcs,
            waves,
            widest,
            serial_us,
            parallel_us,
        });
    }
    for r in &rows {
        println!(
            "{:<10} {:>6} {:>6} {:>7} | {:>11} {:>11} {:>7.2}x",
            r.name,
            r.funcs,
            r.waves,
            r.widest,
            r.serial_us,
            r.parallel_us,
            r.serial_us as f64 / r.parallel_us.max(1) as f64
        );
    }
    let s: u128 = rows.iter().map(|r| r.serial_us).sum();
    let p: u128 = rows.iter().map(|r| r.parallel_us).sum();
    let speedup = s as f64 / p.max(1) as f64;
    println!(
        "{:<10} {:>6} {:>6} {:>7} | {:>11} {:>11} {:>7.2}x",
        "TOTAL", "", "", "", s, p, speedup
    );

    let total = Json::obj(vec![
        ("serial_us", Json::Int(s as i64)),
        ("parallel_us", Json::Int(p as i64)),
        ("speedup", Json::Float(speedup)),
    ]);
    let doc = Json::obj(vec![
        ("bench", Json::Str("wave_speedup".into())),
        ("reps", Json::Int(reps as i64)),
        ("jobs", Json::Int(jobs as i64)),
        ("total", total),
        (
            "programs",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::Str(r.name.clone())),
                            ("funcs", Json::Int(r.funcs as i64)),
                            ("waves", Json::Int(r.waves as i64)),
                            ("widest", Json::Int(r.widest as i64)),
                            ("serial_us", Json::Int(r.serial_us as i64)),
                            ("parallel_us", Json::Int(r.parallel_us as i64)),
                            (
                                "speedup",
                                Json::Float(r.serial_us as f64 / r.parallel_us.max(1) as f64),
                            ),
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
    ExitCode::SUCCESS
}
