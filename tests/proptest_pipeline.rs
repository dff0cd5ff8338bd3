//! Property-based tests over the whole pipeline, on a plain harness:
//! each case seeds the workspace PRNG, which draws the generator seed and
//! program shape, and a greedy shrink loop reports the smallest failing
//! shape when a property breaks. A failure names its case seed;
//! `XorShift64Star::new(seed)` replays it.

use ipra_driver::{compile_and_run, Config, Measurement};
use ipra_workloads::synth::{random_source, SourceConfig, XorShift64Star};

const CASES: u64 = 48;

fn arb_shape(rng: &mut XorShift64Star) -> SourceConfig {
    let mut range = |lo: u64, hi: u64| (lo + rng.below(hi - lo)) as usize;
    SourceConfig {
        num_funcs: range(1, 8),
        num_globals: range(0, 6),
        num_arrays: range(0, 3),
        stmts_per_func: range(1, 10),
        max_depth: range(0, 4),
    }
}

/// Candidate smaller shapes: each field stepped toward its minimum, one
/// at a time (the classic one-dimensional shrink lattice).
fn shrink_steps(shape: &SourceConfig) -> Vec<SourceConfig> {
    let mut steps = Vec::new();
    let mut push = |f: fn(&mut SourceConfig) -> &mut usize, min: usize, shape: &SourceConfig| {
        let mut s = *shape;
        let v = f(&mut s);
        if *v > min {
            *v -= 1;
            steps.push(s);
        }
    };
    push(|s| &mut s.num_funcs, 1, shape);
    push(|s| &mut s.num_globals, 0, shape);
    push(|s| &mut s.num_arrays, 0, shape);
    push(|s| &mut s.stmts_per_func, 1, shape);
    push(|s| &mut s.max_depth, 0, shape);
    steps
}

/// Runs `prop` over `CASES` generated (program seed, shape) pairs. On
/// failure, greedily shrinks the shape while the property still fails and
/// panics with the smallest reproducer.
fn check(name: &str, prop: impl Fn(u64, &SourceConfig) -> Result<(), String>) {
    for seed in 0..CASES {
        let rng = &mut XorShift64Star::new(seed);
        let src_seed = rng.below(10_000);
        let mut shape = arb_shape(rng);
        let Err(mut err) = prop(src_seed, &shape) else {
            continue;
        };
        // Greedy descent: take the first smaller shape that still fails
        // until none does.
        'shrinking: loop {
            for smaller in shrink_steps(&shape) {
                if let Err(e) = prop(src_seed, &smaller) {
                    shape = smaller;
                    err = e;
                    continue 'shrinking;
                }
            }
            break;
        }
        panic!(
            "property `{name}` failed at seed {seed}\n  program seed: {src_seed}\n  \
             minimal shape: {shape:?}\n  {err}"
        );
    }
}

/// The generated program, compiled by the front end.
fn module_of(seed: u64, shape: &SourceConfig) -> Result<ipra_ir::Module, String> {
    ipra_frontend::compile(&random_source(seed, shape))
        .map_err(|e| format!("front end rejected the generated program: {e}"))
}

/// Compiles and simulates `module` under `config`.
fn run(module: &ipra_ir::Module, config: &Config) -> Result<Measurement, String> {
    compile_and_run(module, config).map_err(|t| format!("{}: {t}", config.name))
}

/// The central soundness property: optimized machine code prints what
/// the IR interpreter prints, under the paper configs and the inliner.
#[test]
fn compiled_output_matches_interpreter() {
    check("interp-match", |seed, shape| {
        let module = module_of(seed, shape)?;
        let expected = ipra_ir::interp::run_module(&module)
            .map_err(|t| format!("interpreter trapped: {t}"))?;
        for config in [Config::o2_base(), Config::c(), Config::inline_c()] {
            if run(&module, &config)?.output != expected.output {
                return Err(format!("config {}: output diverged", config.name));
            }
        }
        Ok(())
    });
}

/// Determinism: compiling twice yields identical measurements.
#[test]
fn compilation_is_deterministic() {
    check("determinism", |seed, shape| {
        let module = module_of(seed, shape)?;
        let a = run(&module, &Config::c())?;
        let b = run(&module, &Config::c())?;
        if a.output != b.output
            || a.stats.cycles != b.stats.cycles
            || a.stats.loads_by_class != b.stats.loads_by_class
        {
            return Err("two compiles of the same module measured differently".into());
        }
        Ok(())
    });
}

/// Register allocation only ever removes scalar memory traffic relative
/// to the unallocated baseline.
#[test]
fn allocation_reduces_scalar_traffic() {
    check("scalar-traffic", |seed, shape| {
        let module = module_of(seed, shape)?;
        let none = run(&module, &Config::no_alloc())?;
        let o2 = run(&module, &Config::o2_base())?;
        if o2.scalar_mem() > none.scalar_mem() {
            return Err(format!(
                "allocation added scalar traffic: {} vs {}",
                o2.scalar_mem(),
                none.scalar_mem()
            ));
        }
        Ok(())
    });
}
