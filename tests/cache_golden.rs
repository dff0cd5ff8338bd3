//! Golden tests for the incremental allocation cache: warm compiles must be
//! bit-identical to cold ones across the whole corpus, invalidation must
//! follow the call graph exactly, early cutoff must stop recompilation at
//! callers whose callees' summaries are byte-identical, and a damaged cache
//! must degrade to a cold compile — never to a panic or a wrong program.

use ipra_callgraph::{CallGraph, SccInfo};
use ipra_core::ipra::CompiledModule;
use ipra_core::Pipeline;
use ipra_driver::{compile_only, run_compiled, Config};
use ipra_workloads::synth;

mod common;
use common::{corpus, DEMO};

/// A scratch cache directory, unique per test and process.
fn cache_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("ipra-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Everything observable about one compilation: program output, simulator
/// stats, summaries, clobber masks, reports and the rendered machine code.
fn observe(compiled: &CompiledModule, config: &Config) -> String {
    let m = run_compiled(compiled, config).expect("program runs");
    let mut out = String::new();
    out.push_str(&format!("output: {:?}\nstats: {:?}\n", m.output, m.stats));
    out.push_str(&format!(
        "summaries: {:?}\nclobbers: {:?}\nreports: {:?}\n",
        compiled.summaries,
        compiled.clobber_masks(),
        compiled.reports
    ));
    out.push_str(&compiled.mmodule.asm(&config.target.regs));
    out
}

/// Warm compiles must replay every function from the cache and still be
/// bit-identical to the cold compile — machine code, summaries, clobber
/// masks, reports, output and stats — at `jobs = 1`, `2` (the driver
/// plus one helper) and `4`. `tree-8x2` joins the corpus here because
/// only its widest waves pay for handing tasks to the helpers.
#[test]
fn warm_compile_is_bit_identical_to_cold_across_corpus() {
    let tree = ("tree-8x2".to_string(), synth::call_tree_program(7, 2, 8, 1));
    let programs: Vec<_> = corpus().into_iter().chain([tree]).collect();
    for jobs in [1usize, 2, 4] {
        let dir = cache_dir(&format!("warm-{jobs}"));
        for (name, module) in &programs {
            let mut cfg = Config::c();
            cfg.opts.jobs = jobs;
            let baseline = compile_only(module, &cfg);
            assert!(!baseline.cache.enabled, "[{name}] no cache configured");

            cfg.opts.cache_dir = Some(dir.join(name));
            let cold = compile_only(module, &cfg);
            let n = module.funcs.len() as u64;
            assert_eq!(cold.cache.misses, n, "[{name}/j{jobs}] cold misses all");
            assert_eq!(cold.cache.hits, 0, "[{name}/j{jobs}] cold has no hits");

            let warm = compile_only(module, &cfg);
            assert_eq!(warm.cache.hits, n, "[{name}/j{jobs}] warm hits all");
            assert_eq!(warm.cache.misses, 0, "[{name}/j{jobs}] warm misses none");
            assert_eq!(warm.cache.cutoffs, 0, "[{name}/j{jobs}] nothing recompiled");

            let want = observe(&baseline, &cfg);
            assert_eq!(
                observe(&cold, &cfg),
                want,
                "[{name}/j{jobs}] cold == uncached"
            );
            assert_eq!(observe(&warm, &cfg), want, "[{name}/j{jobs}] warm == cold");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

const CHAIN_V1: &str = r#"
fn leaf(a: int) -> int { return a + 1; }
fn mid(a: int) -> int { return leaf(a) + leaf(a + 1); }
fn top(a: int) -> int { return mid(a) * 2; }
fn other(a: int) -> int { return a * 3; }
fn main() { print(top(2) + other(5)); }
"#;

/// Editing a leaf's body without changing its summary or subtree register
/// usage must recompile exactly that leaf: its callers replay from the
/// cache (the early cutoff), and the result is still bit-identical to a
/// cold compile of the edited program.
#[test]
fn leaf_edit_with_unchanged_summary_recompiles_exactly_one_function() {
    // Same shape, same register demand — only the constant differs, so
    // `leaf`'s summary and tree-used mask are unchanged.
    let v2 = CHAIN_V1.replace("return a + 1;", "return a + 2;");

    let m1 = ipra_frontend::compile(CHAIN_V1).unwrap();
    let m2 = ipra_frontend::compile(&v2).unwrap();

    let dir = cache_dir("cutoff");
    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());

    let cold1 = compile_only(&m1, &cfg);
    assert_eq!(cold1.cache.misses, 5);
    // Precondition for the cutoff: the edit leaves the exported interface
    // byte-identical.
    let fresh2 = compile_only(&m2, &Config::c());
    assert_eq!(
        format!("{:?}", cold1.summaries),
        format!("{:?}", fresh2.summaries)
    );

    let warm2 = compile_only(&m2, &cfg);
    assert_eq!(
        warm2.cache.recompiled,
        vec!["leaf".to_string()],
        "only the edited leaf recompiles"
    );
    assert_eq!(warm2.cache.misses, 1);
    assert_eq!(warm2.cache.hits, 4);
    assert!(
        warm2.cache.cutoffs > 0,
        "a caller of the recompiled leaf must report the cutoff"
    );
    assert_eq!(
        observe(&warm2, &cfg),
        observe(&fresh2, &cfg),
        "incremental result == cold compile of the edited program"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing a leaf so that its register usage (summary / tree-used mask)
/// changes must invalidate exactly the leaf's ancestor set in the call
/// graph — `other`, which cannot reach the leaf, stays cached.
#[test]
fn interface_change_invalidates_exactly_the_ancestor_set() {
    // The new leaf keeps many values live at once: its used-register set
    // (hence its subtree mask, hence every ancestor's cache key) changes.
    let v2 = CHAIN_V1.replace(
        "fn leaf(a: int) -> int { return a + 1; }",
        r#"fn leaf(a: int) -> int {
            var b: int = a * 2; var c: int = b + a; var d: int = c * b;
            var e: int = d - a; var f: int = e * c; var g: int = f + d;
            return b + c + d + e + f + g;
        }"#,
    );

    let m1 = ipra_frontend::compile(CHAIN_V1).unwrap();
    let m2 = ipra_frontend::compile(&v2).unwrap();

    let dir = cache_dir("ancestors");
    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    compile_only(&m1, &cfg);

    // The expected invalidation set, from the call graph itself.
    let cg = CallGraph::build(&m2);
    let scc = SccInfo::compute(&cg);
    let leaf = m2.func_by_name("leaf").unwrap();
    let ancestors: Vec<String> = scc
        .dirty_closure(&cg, &[leaf])
        .into_iter()
        .map(|fid| m2.funcs[fid].name.clone())
        .collect();
    assert_eq!(ancestors, ["leaf", "mid", "top", "main"]);

    let warm2 = compile_only(&m2, &cfg);
    assert_eq!(
        warm2.cache.recompiled, ancestors,
        "invalidation must be exactly the ancestor set"
    );
    assert_eq!(warm2.cache.hits, 1, "`other` replays from the cache");
    assert_eq!(
        observe(&warm2, &cfg),
        observe(&compile_only(&m2, &Config::c()), &cfg),
        "incremental result == cold compile of the edited program"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Editing a function the inliner spliced away must recompile exactly
/// the inliner's ancestor set: the function itself plus every function
/// whose post-inline body transitively contains the splice. Functions
/// outside that set replay from the cache — the inliner must not turn
/// every edit into a cold compile — and the warm result stays
/// bit-identical to a cold compile of the edited program.
#[test]
fn editing_an_inlined_away_function_recompiles_the_inline_ancestor_set() {
    // A constant-only edit: under the plain config the early cutoff
    // confines this to `leaf` alone (previous test). Under the inliner
    // the spliced copies of `leaf`'s body change too, so the ancestor
    // set must recompile — and nothing else.
    let v2 = CHAIN_V1.replace("return a + 1;", "return a + 2;");
    let m1 = ipra_frontend::compile(CHAIN_V1).unwrap();
    let m2 = ipra_frontend::compile(&v2).unwrap();

    let dir = cache_dir("inline-cutoff");
    let mut cfg = Config::inline_c();
    cfg.opts.cache_dir = Some(dir.clone());

    let cold1 = compile_only(&m1, &cfg);
    assert_eq!(cold1.cache.misses, 5);

    // The expected invalidation set, from the inliner's own edge list:
    // the transitive closure of "spliced `leaf` (or a function containing
    // it) into its body".
    let mut expected: std::collections::BTreeSet<String> =
        std::iter::once("leaf".to_string()).collect();
    loop {
        let before = expected.len();
        for (caller, callee) in &cold1.inline.edges {
            if expected.contains(callee) {
                expected.insert(caller.clone());
            }
        }
        if expected.len() == before {
            break;
        }
    }
    assert!(
        expected.len() > 1,
        "fixture must actually inline leaf somewhere (edges: {:?})",
        cold1.inline.edges
    );

    let warm2 = compile_only(&m2, &cfg);
    let recompiled: std::collections::BTreeSet<String> =
        warm2.cache.recompiled.iter().cloned().collect();
    assert_eq!(
        recompiled, expected,
        "recompilation must cover exactly the inline-ancestor set"
    );
    assert_eq!(
        warm2.cache.hits,
        5 - expected.len() as u64,
        "functions outside the splice set replay from the cache"
    );

    let fresh2 = compile_only(&m2, &{
        let mut c = Config::inline_c();
        c.opts.jobs = cfg.opts.jobs;
        c
    });
    assert_eq!(
        observe(&warm2, &cfg),
        observe(&fresh2, &cfg),
        "incremental result == cold compile of the edited program"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted, truncated, or version-skewed shard files must behave
/// exactly like an empty cache: a cold compile that then repopulates the
/// directory. Entries live in per-key `<key>.ce.json` shards, so the test
/// damages every shard the warm compile would read.
#[test]
fn damaged_cache_degrades_to_cold_compile() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let dir = cache_dir("damaged");

    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    let want = observe(&compile_only(&module, &Config::c()), &cfg);

    /// The shard files currently in the cache directory.
    fn shards(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut v: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.to_string_lossy().ends_with(".ce.json"))
            .collect();
        v.sort();
        v
    }

    for garbage in [
        "not json at all",
        "{\"version\": 999, \"funcs\": []}",
        "{\"version\": 1, \"funcs\": [17, \"nope\"]}",
        "",
    ] {
        // Populate, then damage every shard.
        compile_only(&module, &cfg);
        let files = shards(&dir);
        assert_eq!(files.len(), 2, "one shard per single-function component");
        for f in &files {
            std::fs::write(f, garbage).unwrap();
        }

        let c = compile_only(&module, &cfg);
        assert_eq!(c.cache.hits, 0, "damaged cache yields no hits");
        assert_eq!(c.cache.misses, 2, "damaged cache compiles cold");
        assert_eq!(observe(&c, &cfg), want, "and the result is unharmed");
    }

    // The cold compile rewrote the shards; the next compile is warm again.
    let warm = compile_only(&module, &cfg);
    assert_eq!(warm.cache.hits, 2);

    // A stray legacy monolithic cache file is ignored entirely.
    std::fs::write(dir.join("ipra-cache.json"), "legacy").unwrap();
    let still_warm = compile_only(&module, &cfg);
    assert_eq!(still_warm.cache.hits, 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `Pipeline` with a cache directory compiles the whole corpus in
/// Table 1 order. The programs share helpers (eight of them carry the
/// same `rand`), so later programs hit entries the pipeline memoized for
/// earlier ones, whose functions and globals are numbered differently.
/// Each compile must still equal a fresh one-shot compile of the same
/// program.
#[test]
fn shared_pipeline_replays_memoized_entries_in_the_current_numbering() {
    let dir = cache_dir("memo-numbering");
    let pipe = Pipeline::new();
    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    for w in ipra_workloads::all() {
        let module = ipra_workloads::compile_workload(w).unwrap();
        let want = observe(&compile_only(&module, &Config::c()), &cfg);
        let got = pipe.compile(&module, &cfg.target, &cfg.opts);
        assert!(got.cache.enabled, "[{}] cache configured", w.name);
        assert_eq!(observe(&got, &cfg), want, "[{}] shared pipeline", w.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A function whose body is unchanged keeps its component key when a new
/// global shifts every `GlobalId`; replaying its memoized machine code
/// must not read the global that now has its old id.
#[test]
fn memoized_entry_survives_a_global_inserted_before_it() {
    let before = "global a: int; fn get() -> int { return a; } \
                  fn main() { a = 7; print(get()); }";
    let after = "global z: int; global a: int; fn get() -> int { return a; } \
                 fn main() { z = 99; a = 7; print(get() + z); }";
    let dir = cache_dir("memo-global");
    let pipe = Pipeline::new();
    let mut cfg = Config::c();
    cfg.opts.cache_dir = Some(dir.clone());
    for (src, want) in [(before, vec![7]), (after, vec![106])] {
        let module = ipra_frontend::compile(src).unwrap();
        let compiled = pipe.compile(&module, &cfg.target, &cfg.opts);
        let out = run_compiled(&compiled, &cfg).expect("program runs").output;
        assert_eq!(out, want, "{src}");
        assert_eq!(
            observe(&compiled, &cfg),
            observe(&compile_only(&module, &Config::c()), &cfg),
            "{src}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `mini-cc --cache-dir` end to end: the cold run misses every function,
/// the warm run replays every function, and both print the same asm.
#[test]
fn mini_cc_cache_dir_replays_every_function_with_identical_asm() {
    let dir = cache_dir("mini-cc");
    let compile = || {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_mini-cc"))
            .args(["--workload", "nim", "--emit", "asm", "--cache-dir"])
            .arg(&dir)
            .output()
            .expect("mini-cc runs");
        assert!(out.status.success(), "{out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let counts = stderr
            .lines()
            .find_map(|l| l.strip_prefix("[cache] "))
            .unwrap_or_else(|| panic!("no cache line in {stderr}"))
            .to_string();
        (out.stdout, counts)
    };
    let (cold_asm, cold) = compile();
    let (warm_asm, warm) = compile();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(cold.starts_with("hits: 0 "), "cold run: {cold}");
    assert!(!cold.contains("misses: 0 "), "cold run: {cold}");
    assert!(warm.contains("misses: 0 "), "warm run: {warm}");
    assert!(!warm.starts_with("hits: 0 "), "warm run: {warm}");
    assert!(
        !cold_asm.is_empty() && warm_asm == cold_asm,
        "warm asm differs from cold"
    );
}
