//! `convsearch` — sweep calling-convention partitions per register-file
//! shape and report the penalty surface.
//!
//! ```text
//! convsearch [--small] [--jobs N] [--cache-dir DIR] [--out FILE] [--md FILE]
//! ```
//!
//! Compiles the workload suite at every `(caller-saved, argument-regs)`
//! grid point of each register-file shape, requires the static verifier
//! and the interpreter oracle to pass at every point, and writes the
//! penalty surface as deterministic JSON (and optionally markdown). The
//! JSON bytes are independent of `--jobs` and cache temperature; CI diffs
//! them to enforce that.

use std::path::PathBuf;
use std::process::ExitCode;

use ipra_driver::convsearch::{default_shapes, run_search, workload_corpus, SearchOptions};

struct Args {
    small: bool,
    jobs: usize,
    cache_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    md: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: convsearch [--small] [--jobs N] [--cache-dir DIR] [--out FILE] [--md FILE]\n\
         \n\
         Sweeps caller/callee-saved partitions and argument-register counts\n\
         per register-file shape over the workload suite and reports the\n\
         penalty surface.\n\
         \n\
         --small        sparse grid + 3-workload corpus (CI smoke)\n\
         --jobs N       wave-scheduler workers per compile (0 = auto); waves\n\
         \x20              too small to pay for a hand-off run on the calling thread\n\
         --cache-dir D  incremental-cache directory shared across points\n\
         --out FILE     write the JSON report (default: stdout)\n\
         --md FILE      also write the markdown table"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        small: false,
        jobs: 0,
        cache_dir: None,
        out: None,
        md: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => args.small = true,
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage());
                args.jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--cache-dir" => {
                args.cache_dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())))
            }
            "--out" => args.out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--md" => args.md = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let corpus = match workload_corpus(args.small) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("convsearch: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = SearchOptions {
        jobs: args.jobs,
        cache_dir: args.cache_dir,
        dense: !args.small,
    };
    let report = run_search(&corpus, &default_shapes(), &opts);

    let json = report.to_json().render_pretty();
    match &args.out {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &json) {
                eprintln!("convsearch: write {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
        None => println!("{json}"),
    }
    if let Some(p) = &args.md {
        if let Err(e) = std::fs::write(p, report.to_markdown()) {
            eprintln!("convsearch: write {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }

    for s in &report.shapes {
        let b = &s.points[s.best];
        eprintln!(
            "convsearch: {}: best caller={} callee={} args={} penalty_cycles={}",
            s.shape.name, b.caller, b.callee, b.args, b.penalty_cycles
        );
    }
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "convsearch: {} failing point/program pairs",
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}
