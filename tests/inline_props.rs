//! Property tests for the inliner's vreg renamer, on the workspace PRNG
//! (no external crates; a failure names its seed, and
//! `XorShift64Star::new(seed)` replays it):
//!
//! 1. **Fresh-name injectivity** — [`ipra_core::inline::rename_vregs`]
//!    maps every callee vreg to a distinct caller vreg that did not
//!    exist before the call, over random (caller, callee) pairs drawn
//!    from generated modules.
//! 2. **No free-variable escape** — after the full inlining pass, every
//!    function still passes the IR verifier (no instruction reads a
//!    vreg that was never defined, i.e. no callee variable leaked in
//!    un-renamed) and the module's interpreted output is unchanged.

use std::collections::HashSet;

use ipra_core::inline::{inline_hot_calls, rename_vregs};
use ipra_workloads::synth::{random_source, SourceConfig, XorShift64Star};

fn shape(rng: &mut XorShift64Star) -> SourceConfig {
    let mut below = |n: u64| rng.below(n) as usize;
    SourceConfig {
        num_funcs: 2 + below(6),
        num_globals: below(4),
        num_arrays: below(3),
        stmts_per_func: 1 + below(8),
        max_depth: below(4),
    }
}

#[test]
fn renamer_is_injective_and_fresh_on_random_pairs() {
    for seed in 0..64 {
        let rng = &mut XorShift64Star::new(seed);
        let src_seed = rng.below(10_000);
        let cfg = shape(rng);
        let module = ipra_frontend::compile(&random_source(src_seed, &cfg))
            .unwrap_or_else(|e| panic!("seed {seed}: generated Mini rejected: {e}"));
        if module.funcs.len() < 2 {
            continue;
        }
        let n = module.funcs.len() as u64;
        let caller_id = rng.below(n) as usize;
        let callee_id = rng.below(n) as usize;
        let callee = module.funcs[ipra_ir::FuncId(callee_id as u32)].clone();
        let mut caller = module.funcs[ipra_ir::FuncId(caller_id as u32)].clone();

        let before = caller.num_vregs();
        let map = rename_vregs(&mut caller, &callee);
        assert_eq!(
            map.len(),
            callee.num_vregs(),
            "seed {seed}: every callee vreg gets a mapping"
        );
        let distinct: HashSet<_> = map.iter().collect();
        assert_eq!(
            distinct.len(),
            map.len(),
            "seed {seed}: renaming must be injective"
        );
        for v in &map {
            assert!(
                v.index() >= before,
                "seed {seed}: mapped vreg {v:?} existed in the caller before renaming \
                 (capture bug: callee values would alias caller locals)"
            );
            assert!(
                v.index() < caller.num_vregs(),
                "seed {seed}: mapped vreg {v:?} was never registered with the caller"
            );
        }
    }
}

#[test]
fn inlined_modules_verify_and_preserve_interpreted_output() {
    let mut inlined_somewhere = 0u64;
    for seed in 0..48 {
        let rng = &mut XorShift64Star::new(seed);
        let src_seed = rng.below(10_000);
        let cfg = shape(rng);
        let module = ipra_frontend::compile(&random_source(src_seed, &cfg))
            .unwrap_or_else(|e| panic!("seed {seed}: generated Mini rejected: {e}"));
        let expected = ipra_ir::interp::run_module(&module)
            .unwrap_or_else(|t| panic!("seed {seed}: generated program trapped: {t}"));

        // Run the pass the way prepare_module does: on the already
        // interp-checked module, with openness computed fresh inside.
        let mut transformed = module.clone();
        let stats = inline_hot_calls(
            &mut transformed,
            ipra_core::DEFAULT_INLINE_BUDGET,
            &HashSet::new(),
            None,
        );
        inlined_somewhere += stats.inlined;

        if let Err(errors) = ipra_ir::verify::verify_module(&transformed) {
            panic!(
                "seed {seed}: inlined module fails IR verification \
                 (free-variable escape or malformed splice): {errors:?}"
            );
        }
        let got = ipra_ir::interp::run_module(&transformed)
            .unwrap_or_else(|t| panic!("seed {seed}: inlined module trapped: {t}"));
        assert_eq!(
            got.output, expected.output,
            "seed {seed}: inlining changed the program's output"
        );
    }
    assert!(
        inlined_somewhere > 0,
        "the property run never exercised an actual inline — generator drift?"
    );
}
