//! `fuzz` — differential fuzzing driver.
//!
//! Sweeps deterministic seed ranges through the shaped program generator
//! and checks every generated program against two oracles: the reference
//! interpreter (dynamic — the executed path must print the right values)
//! and the static register-contract verifier (`ipra-verify` — every path
//! must honor the published save/restore and convention contracts), under
//! the full configuration cross-product (all allocator configs, cold vs
//! warm cache, scratch reuse). Failing seeds are written to a corpus
//! directory as standalone `.mini` repros and delta-debugged to minimal
//! ones; static-verifier failures carry config `static-verify/<name>`
//! and reduce exactly like interpreter mismatches.
//!
//! ```text
//! fuzz [OPTIONS]
//!   --seeds <n>        seeds per shape class (default 200)
//!   --start <s>        first seed (default 0)
//!   --shape <name>     restrict to one shape class (repeatable);
//!                      names: acyclic recursive fanout fnptr arity
//!   --fuel <n>         interpreter instruction budget per seed
//!   --corpus <dir>     where to write failing repros (default fuzz-corpus)
//!   --cache-every <n>  cold/warm cache check every n-th seed (default 10,
//!                      0 = never)
//!   --quiet            suppress per-shape progress lines
//! ```
//!
//! Exit status: 0 when every checked seed passed (skips are fine), 1 when
//! any seed failed, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use ipra_driver::differential::{check_module, check_source, DiffOptions, DiffVerdict};
use ipra_workloads::reduce::{reduce, ReduceOptions};
use ipra_workloads::synth::{shaped_source, ShapeClass, ShapeConfig, ShapeStats};

struct Args {
    seeds: u64,
    start: u64,
    shapes: Vec<ShapeClass>,
    fuel: u64,
    corpus: PathBuf,
    cache_every: u64,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: fuzz [--seeds N] [--start S] [--shape NAME] [--fuel N] \
     [--corpus DIR] [--cache-every N] [--quiet]"
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        seeds: 200,
        start: 0,
        shapes: Vec::new(),
        // Generous enough that virtually every generated program finishes,
        // small enough that a pathological seed is skipped in milliseconds.
        fuel: 20_000_000,
        corpus: PathBuf::from("fuzz-corpus"),
        cache_every: 10,
        quiet: false,
    };
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seeds" => {
                let v = args.next().ok_or("--seeds needs a count")?;
                out.seeds = v.parse().map_err(|_| format!("bad seed count `{v}`"))?;
            }
            "--start" => {
                let v = args.next().ok_or("--start needs a seed")?;
                out.start = v.parse().map_err(|_| format!("bad start seed `{v}`"))?;
            }
            "--shape" => {
                let v = args.next().ok_or("--shape needs a name")?;
                let c = ShapeClass::by_name(&v).ok_or(format!(
                    "unknown shape `{v}` (try: acyclic recursive fanout fnptr arity)"
                ))?;
                out.shapes.push(c);
            }
            "--fuel" => {
                let v = args.next().ok_or("--fuel needs a budget")?;
                out.fuel = v.parse().map_err(|_| format!("bad fuel `{v}`"))?;
            }
            "--corpus" => {
                out.corpus = PathBuf::from(args.next().ok_or("--corpus needs a directory")?);
            }
            "--cache-every" => {
                let v = args.next().ok_or("--cache-every needs a count")?;
                out.cache_every = v.parse().map_err(|_| format!("bad count `{v}`"))?;
            }
            "--quiet" => out.quiet = true,
            "-h" | "--help" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if out.shapes.is_empty() {
        out.shapes = ShapeClass::ALL.to_vec();
    }
    Ok(out)
}

/// Writes a standalone repro for a failing seed: the source, prefixed with
/// comments recording the shape, seed and failure, so the corpus
/// regression test (and a human) can replay it without the generator.
fn persist_failure(
    corpus: &std::path::Path,
    class: ShapeClass,
    seed: u64,
    cfg: &ShapeConfig,
    source: &str,
    failure: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(corpus)?;
    let path = corpus.join(format!("{class}-{seed}.mini"));
    let header = format!(
        "// fuzz failure: shape {class} seed {seed}\n// {failure}\n// shape config: {cfg:?}\n",
    );
    std::fs::write(&path, format!("{header}{source}"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let cache_root = std::env::temp_dir().join(format!("ipra-fuzz-{}", std::process::id()));
    let mut failures = 0u64;
    let mut total = (0u64, 0u64, 0u64); // checked, passed, skipped
    let mut grand = ShapeStats::default();

    for class in &args.shapes {
        let class = *class;
        let shape_cfg = ShapeConfig::new(class);
        let mut stats = ShapeStats::default();
        let (mut passed, mut skipped) = (0u64, 0u64);

        for seed in args.start..args.start + args.seeds {
            let source = shaped_source(seed, &shape_cfg);
            let module = match ipra_frontend::compile(&source) {
                Ok(m) => m,
                Err(e) => {
                    let what = format!("frontend rejected generated source: {e}");
                    report_failure(&args, class, seed, &shape_cfg, &source, &what);
                    failures += 1;
                    continue;
                }
            };
            stats.absorb(&ShapeStats::collect(&module));

            let mut opts = DiffOptions::default().with_fuel(args.fuel);
            if args.cache_every > 0 && (seed - args.start) % args.cache_every == 0 {
                opts = opts.with_cache_root(&cache_root);
            }
            match check_module(&module, &opts) {
                Ok(DiffVerdict::Pass) => passed += 1,
                Ok(DiffVerdict::Skipped(_)) => skipped += 1,
                Err(f) => {
                    report_failure(&args, class, seed, &shape_cfg, &source, &f.to_string());
                    failures += 1;
                }
            }
        }

        if !args.quiet {
            println!(
                "shape {class:>9}: {} seeds, {passed} passed, {skipped} skipped, \
                 open {} / closed {}, recursive {}, indirect sites {}, \
                 max depth {}, max arity {}",
                args.seeds,
                stats.open_funcs,
                stats.closed_funcs,
                stats.recursive_funcs,
                stats.indirect_sites,
                stats.max_call_depth,
                stats.max_arity,
            );
        }
        total.0 += args.seeds;
        total.1 += passed;
        total.2 += skipped;
        grand.absorb(&stats);
    }
    let _ = std::fs::remove_dir_all(&cache_root);

    println!(
        "fuzz: {} seeds checked, {} passed, {} skipped, {} failed \
         (corpus open {} / closed {} procedures)",
        total.0, total.1, total.2, failures, grand.open_funcs, grand.closed_funcs
    );
    if grand.open_funcs == 0 || grand.closed_funcs == 0 {
        eprintln!("fuzz: WARNING: corpus is not calibrated — one openness class is empty");
    }
    if failures > 0 {
        eprintln!(
            "fuzz: {failures} failing seed(s) written to {}",
            args.corpus.display()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn report_failure(
    args: &Args,
    class: ShapeClass,
    seed: u64,
    cfg: &ShapeConfig,
    source: &str,
    what: &str,
) {
    eprintln!("fuzz: FAIL shape {class} seed {seed}: {what}");
    match persist_failure(&args.corpus, class, seed, cfg, source, what) {
        Ok(p) => eprintln!("fuzz:   repro written to {}", p.display()),
        Err(e) => eprintln!("fuzz:   could not write repro: {e}"),
    }
    minimize_failure(args, class, seed, cfg, source);
}

/// Delta-debugs a failing source down to a minimal repro that still fails
/// the differential check *with the same config*, and writes it next to
/// the full repro as `<shape>-<seed>.min.mini`. Best effort: a repro that
/// stops reproducing mid-reduction just skips the minimized file.
fn minimize_failure(args: &Args, class: ShapeClass, seed: u64, cfg: &ShapeConfig, source: &str) {
    // Identify the failure by its config so reduction cannot wander off
    // to some unrelated breakage. The cache leg is excluded: it is the
    // only stateful check, and its scratch directories would be churned
    // thousands of times during reduction.
    let opts = DiffOptions::default().with_fuel(args.fuel);
    let failed_config = match check_source(source, &opts) {
        Err(f) => f.config,
        Ok(_) => return, // only the cache leg failed; nothing to chase
    };
    let still_fails =
        |s: &str| matches!(check_source(s, &opts), Err(f) if f.config == failed_config);
    let budget = ReduceOptions { max_tests: 3_000 };
    match reduce(source, still_fails, &budget) {
        Ok((minimal, stats)) => {
            let path = args.corpus.join(format!("{class}-{seed}.min.mini"));
            let header = format!(
                "// minimized fuzz failure: shape {class} seed {seed} (config {failed_config})\n\
                 // reduced {} -> {} lines in {} tests\n// shape config: {cfg:?}\n",
                stats.initial_lines, stats.final_lines, stats.tested
            );
            match std::fs::write(&path, format!("{header}{minimal}")) {
                Ok(()) => eprintln!("fuzz:   minimized to {}", path.display()),
                Err(e) => eprintln!("fuzz:   could not write minimized repro: {e}"),
            }
        }
        Err(e) => eprintln!("fuzz:   reduction skipped: {e}"),
    }
}
