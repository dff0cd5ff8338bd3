//! Property-based tests over the whole pipeline, on a hand-rolled
//! harness: a splitmix64 PRNG drives the generator seeds and shapes, and
//! a greedy shrink loop reports the smallest failing shape when a
//! property breaks. No external crates — the harness is a for-loop, not
//! a framework — so the `proptest` feature leg builds and runs fully
//! offline. It stays non-default only because it multiplies CI time
//! (hundreds of full compile+simulate cycles), not because it needs the
//! network. Enable with `cargo test --features proptest`.
#![cfg(feature = "proptest")]

use ipra_driver::{compile_and_run, Config};
use ipra_workloads::synth::{random_source, SourceConfig};

const CASES: u64 = 48;

/// splitmix64: tiny, statistically solid, and deterministic across
/// platforms — the same seeds fail on every machine.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

fn arb_shape(rng: &mut Rng) -> SourceConfig {
    SourceConfig {
        num_funcs: rng.range(1, 8),
        num_globals: rng.range(0, 6),
        num_arrays: rng.range(0, 3),
        stmts_per_func: rng.range(1, 10),
        max_depth: rng.range(0, 4),
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

/// Runs `prop` over `CASES` generated (seed, shape) pairs. On failure,
/// greedily shrinks the shape while the property still fails and panics
/// with the smallest reproducer.
fn check(name: &str, prop: impl Fn(u64, &SourceConfig) -> Result<(), String>) {
    let mut rng = Rng(0x1b7a_c0de ^ name.len() as u64);
    for _ in 0..CASES {
        let seed = rng.next() % 10_000;
        let mut shape = arb_shape(&mut rng);
        let Err(mut err) = prop(seed, &shape) else {
            continue;
        };
        // Greedy descent: take the first smaller shape that still fails
        // until none does.
        'shrinking: loop {
            for smaller in shrink_steps(&shape) {
                if let Err(e) = prop(seed, &smaller) {
                    shape = smaller;
                    err = e;
                    continue 'shrinking;
                }
            }
            break;
        }
        panic!("property `{name}` failed\n  seed: {seed}\n  minimal shape: {shape:?}\n  {err}");
    }
}

/// The central soundness property: optimized machine code prints what
/// the IR interpreter prints, under the paper configs and the inliner.
#[test]
fn compiled_output_matches_interpreter() {
    check("interp-match", |seed, shape| {
        let src = random_source(seed, shape);
        let module = ipra_frontend::compile(&src).expect("generator emits valid Mini");
        let expected = ipra_ir::interp::run_module(&module).expect("generated programs terminate");
        for config in [Config::o2_base(), Config::c(), Config::inline_c()] {
            let m =
                compile_and_run(&module, &config).map_err(|t| format!("{}: {t}", config.name))?;
            if m.output != expected.output {
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
        let src = random_source(seed, shape);
        let module = ipra_frontend::compile(&src).expect("valid");
        let a = compile_and_run(&module, &Config::c()).expect("runs");
        let b = compile_and_run(&module, &Config::c()).expect("runs");
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
        let src = random_source(seed, shape);
        let module = ipra_frontend::compile(&src).expect("valid");
        let none = compile_and_run(&module, &Config::no_alloc()).expect("runs");
        let o2 = compile_and_run(&module, &Config::o2_base()).expect("runs");
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
