//! Tests for the component memo and the reusable scratch pools: a
//! persistent [`ipra_core::Pipeline`] must replay every unchanged
//! component and allocate exactly the edited ones, and reusing scratch
//! across compiles must never change the machine code.

use ipra_core::Pipeline;
use ipra_driver::{compile_only, Config};

const CHAIN: &str = r#"
fn leaf(a: int) -> int { return a + 1; }
fn mid(a: int) -> int { return leaf(a) + leaf(a + 1); }
fn top(a: int) -> int { return mid(a) * 2; }
fn other(a: int) -> int { return a * 3; }
fn main() { print(top(2) + other(5)); }
"#;

/// Without a cache directory, a cold compile allocates every function, a
/// warm recompile of the identical module allocates none and replays
/// all of them from the component memo, and editing one body allocates
/// exactly that function while its caller replays as an early cutoff —
/// all while staying bit-identical to fresh one-shot compiles.
#[test]
fn memo_invalidation_follows_body_edits_exactly() {
    let m1 = ipra_frontend::compile(CHAIN).unwrap();
    // Same shape, different constant: only `leaf`'s body hash changes,
    // and its summary does not.
    let m2 = ipra_frontend::compile(&CHAIN.replace("return a + 1;", "return a + 2;")).unwrap();
    let n = m1.funcs.len() as u64;
    let cfg = Config::c();
    let asm = |c: &ipra_core::CompiledModule| c.mmodule.asm(&cfg.target.regs);

    let pipe = Pipeline::new();
    let cold = pipe.compile(&m1, &cfg.target, &cfg.opts);
    assert_eq!((cold.cache.hits, cold.cache.misses), (0, n));

    let warm = pipe.compile(&m1, &cfg.target, &cfg.opts);
    assert_eq!(
        warm.cache.misses, 0,
        "the warm recompile allocates no function"
    );
    assert_eq!(warm.cache.hits, n, "and replays every one");
    assert_eq!(warm.cache.cutoffs, 0);
    assert_eq!(
        asm(&warm),
        asm(&compile_only(&m1, &cfg)),
        "memoized compile of the unchanged module == fresh compile"
    );

    let edited = pipe.compile(&m2, &cfg.target, &cfg.opts);
    assert_eq!(
        edited.cache.recompiled,
        ["leaf"],
        "editing one body must allocate exactly that function"
    );
    assert_eq!(edited.cache.hits, n - 1);
    assert_eq!(
        edited.cache.cutoffs, 1,
        "`mid`, the edited function's one caller, replays as a cutoff"
    );
    assert_eq!(
        asm(&edited),
        asm(&compile_only(&m2, &cfg)),
        "memoized compile of the edited module == fresh compile"
    );
}

/// Scratch reuse must be invisible in the output: recompiling through
/// one pipeline (cold and warm memo) renders the same bytes as a fresh
/// one-shot compile every time. A warm recompile replays every component
/// and allocates nothing, so each pipeline then compiles the module under
/// configuration E, which misses the memo and allocates every function
/// in the scratch the earlier compiles left. `tree-8x2`, a wide call DAG,
/// runs beside nim.
#[test]
fn reused_scratch_is_bit_identical() {
    let workload = ipra_workloads::by_name("nim").unwrap();
    let nim = ipra_workloads::compile_workload(workload).unwrap();
    let tree = ipra_workloads::synth::call_tree_program(7, 2, 8, 1);

    for (name, module) in [("nim", nim), ("tree-8x2", tree)] {
        let cfg = Config::c();
        let want = compile_only(&module, &cfg).mmodule.asm(&cfg.target.regs);

        let pipe = Pipeline::new();
        for round in 0..3 {
            let got = pipe.compile(&module, &cfg.target, &cfg.opts);
            assert_eq!(
                got.mmodule.asm(&cfg.target.regs),
                want,
                "{name} round={round}: reused scratch changed the output"
            );
        }

        let second = Config::e();
        let got = pipe.compile(&module, &second.target, &second.opts);
        assert_eq!(
            got.cache.misses,
            module.funcs.len() as u64,
            "{name}: E allocates every function"
        );
        assert_eq!(
            got.mmodule.asm(&second.target.regs),
            compile_only(&module, &second)
                .mmodule
                .asm(&second.target.regs),
            "{name}: reused scratch changed E's output"
        );
    }
}
