//! Determinism self-test: the exact counts the benchmark gates on repeat
//! across runs, across worker counts and when regenerated from the same
//! seed, and a seed not used while the benchmark was written runs clean.
//! Run with `--release`; every test simulates the corpus.

use ipra_core::compile_module;
use ipra_driver::{run_compiled, Config};
use ipra_machine::CostModel;
use perfbench::report::Report;
use perfbench::{programs, stage, WORKLOADS};

const QUALITY: [&str; 4] = [
    "code_insts",
    "sim_cycles",
    "scalar_mem_ops",
    "penalty_cycles",
];
const CACHE: [&str; 3] = ["cache.hits", "cache.misses", "cache.cutoffs"];

/// A seed kept out of every run made while the benchmark was tuned.
const UNSEEN_SEED: u64 = 0x1D1E_5EED;

/// One shortest run: a single round (plus one traced round with `trace`).
fn run(workload: &str, seed: u64, trace: bool) -> Report {
    let rep = perfbench::run(workload, seed, 1e-3, trace).expect("run starts");
    assert_eq!(rep.failed, 0, "{workload} seed {seed}: {:?}", rep.failures);
    rep
}

fn values(rep: &Report, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| rep.get(n).unwrap_or_else(|| panic!("{n} missing")))
        .collect()
}

#[test]
fn quality_counts_repeat_across_runs_and_seeds() {
    for w in WORKLOADS {
        let first = values(&run(w, 3, false), &QUALITY);
        assert_eq!(first, values(&run(w, 3, false), &QUALITY), "{w}: rerun");
        assert_eq!(
            first,
            values(&run(w, 4, false), &QUALITY),
            "{w}: other seed"
        );
        assert!(first.iter().all(|v| *v > 0.0), "{w}: {first:?}");
    }
}

#[test]
fn daemon_cache_counts_repeat_when_regenerated_from_the_seed() {
    let a = values(&run("daemon-edit", 5, true), &CACHE);
    let b = values(&run("daemon-edit", 5, true), &CACHE);
    assert_eq!(a, b);
    assert!(a[0] > 0.0 && a[1] > 0.0 && a[2] > 0.0, "{a:?}");
}

#[test]
fn code_and_counts_are_identical_across_worker_counts() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (name, source) in programs::corpus() {
        let module = ipra_frontend::compile(&source).expect("corpus parses");
        for cfg in [
            Config::o2_base(),
            Config::b(),
            Config::c(),
            Config::inline_c(),
        ] {
            let at = |jobs: usize| {
                let mut c = cfg.clone();
                c.opts.jobs = jobs;
                let cm = compile_module(&module, &c.target, &c.opts);
                let m = run_compiled(&cm, &c).expect("simulates");
                (
                    stage::render_asm(&cm.mmodule, &c.target),
                    stage::code_insts(&cm.mmodule),
                    m.stats.cycles,
                    m.stats.scalar_mem(),
                    m.stats.penalty_cycles(&CostModel::default()),
                )
            };
            assert!(at(1) == at(nproc), "{name}/{}: jobs 1 vs {nproc}", cfg.name);
        }
    }
}

#[test]
fn an_unseen_seed_runs_clean_traced_and_untraced() {
    for w in WORKLOADS {
        run(w, UNSEEN_SEED, false);
        let traced = run(w, UNSEEN_SEED, true);
        assert!(values(&traced, &["trace.replays"])[0] > 0.0, "{w}");
    }
}
