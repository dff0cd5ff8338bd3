//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table-sweep|cold-compile|daemon-edit> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the metrics as a table, then one JSON result line last on
//! stdout. Exits 0 only when every correctness gate passed.

use std::process::ExitCode;

use ipra_bench::alloc_meter::CountingAlloc;

// Counts live heap bytes for `peak_mem_kb`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?).filter(|s| *s > 0.0)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rep = match perfbench::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for n in &rep.notes {
        eprintln!("[{}] {n}", args.workload);
    }
    for f in &rep.failures {
        eprintln!("[{}] FAILED: {f}", args.workload);
    }
    for m in &rep.metrics {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>16.4} ratio ({} of {} failed)",
        "failed_ratio",
        perfbench::report::ratio(rep.failed as f64, rep.attempted as f64),
        rep.failed,
        rep.attempted
    );
    println!("{}", rep.to_json().render());
    if rep.failed == 0 && rep.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
