//! Prints the Table 1 reproduction: % reduction in cycles and scalar
//! loads/stores for configurations A, B, C relative to -O2 baseline.
//!
//! Flags: `--small` (three smallest workloads), `--trace-json <dir>` (dump
//! one JSON compile trace per configuration).

use std::process::ExitCode;

use ipra_bench::{dump_config_traces, parse_table_args};
use ipra_driver::{table_row, Config};

fn main() -> ExitCode {
    let args = match parse_table_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!("Table 1 reproduction — % reduction vs -O2 (shrink-wrap off)");
    println!(
        "{:<10} {:>11} | {:>7} {:>7} {:>7} | {:>7} {:>7} {:>7}",
        "program", "cycles/call", "I.A", "I.B", "I.C", "II.A", "II.B", "II.C"
    );
    for w in args.workloads() {
        let module = ipra_workloads::compile_workload(w).expect("workload compiles");
        let configs = [Config::a(), Config::b(), Config::c()];
        let base = Config::o2_base();
        let row = table_row(w.name, &module, &base, &configs);
        println!(
            "{:<10} {:>11.0} | {:>6.1}% {:>6.1}% {:>6.1}% | {:>6.1}% {:>6.1}% {:>6.1}%",
            row.workload,
            row.cycles_per_call,
            row.columns[0].1,
            row.columns[1].1,
            row.columns[2].1,
            row.columns[0].2,
            row.columns[1].2,
            row.columns[2].2
        );
        if let Some(dir) = &args.trace_json {
            let mut all = vec![base];
            all.extend(configs);
            if let Err(e) = dump_config_traces(dir, w.name, &module, &all) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
