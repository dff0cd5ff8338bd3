//! The source entry point, `Pipeline::compile_source`: the
//! prepared-module memo is keyed by the source text and the options that
//! change preparation, so a replayed text calls no front end, and every
//! output equals a fresh front end plus a one-shot compile byte for byte.
//! The front end is passed in as a closure, so each test counts its
//! calls.

use std::cell::Cell;

use ipra_core::{compile_module, CompiledModule, Pipeline};
use ipra_driver::service::{CompileRequest, RequestSource, Service};
use ipra_driver::Config;
use ipra_frontend::CompileError;
use ipra_obs::json::Json;

/// A loop whose accumulator crosses a call to a small helper the inliner
/// takes, and a global promotion can keep in a register.
const DEMO: &str = r#"
global total: int;
fn helper(a: int, b: int) -> int {
    var t: int = a * b;
    if t > 100 { t = t - 100; }
    return t + 1;
}
fn bump(x: int) -> int { total = total + x; return total; }
fn main() {
    var acc: int = 0;
    var i: int = 0;
    while i < 20 {
        acc = acc + helper(i, acc);
        acc = acc + bump(i);
        i = i + 1;
    }
    print(acc);
}
"#;

/// Everything a compile produces that a memo must not change: the
/// assembly, the per-function reports and summaries, and what promotion
/// and the inliner did.
fn outputs(compiled: &CompiledModule, config: &Config) -> String {
    format!(
        "{}\n{:?}\n{:?}\n{:?}\n{:?}",
        compiled.mmodule.asm(&config.target.regs),
        compiled.reports,
        compiled.summaries,
        compiled.promotion,
        compiled.inline
    )
}

/// The reference: a fresh front end and a one-shot compile.
fn one_shot(text: &str, config: &Config) -> String {
    let module = ipra_frontend::compile(text).expect("test programs compile");
    outputs(
        &compile_module(&module, &config.target, &config.opts),
        config,
    )
}

/// Compiles `text` through `pipe`, adding one to `calls` whenever the
/// front end runs.
fn compile(
    pipe: &Pipeline,
    text: &str,
    config: &Config,
    calls: &Cell<usize>,
) -> Result<String, CompileError> {
    let front_end = |text: &str| {
        calls.set(calls.get() + 1);
        ipra_frontend::compile(text)
    };
    pipe.compile_source(text, front_end, &config.target, &config.opts)
        .map(|compiled| outputs(&compiled, config))
}

#[test]
fn a_replayed_text_calls_no_front_end() {
    let config = Config::c();
    let pipe = Pipeline::new();
    let calls = Cell::new(0);
    for w in ipra_workloads::all() {
        let want = one_shot(w.source, &config);
        for round in ["cold", "replay"] {
            calls.set(0);
            let got = compile(&pipe, w.source, &config, &calls).unwrap();
            assert!(got == want, "{} {round}: differs from one-shot", w.name);
            let expected = usize::from(round == "cold");
            assert_eq!(calls.get(), expected, "{} {round}: front-end calls", w.name);
        }
    }
}

#[test]
fn a_one_space_edit_runs_the_front_end_again_with_the_same_asm() {
    let config = Config::c();
    let pipe = Pipeline::new();
    let calls = Cell::new(0);
    let spaced = DEMO.replacen("fn main", "fn  main", 1);
    assert_eq!(spaced.len(), DEMO.len() + 1);
    let first = compile(&pipe, DEMO, &config, &calls).unwrap();
    let second = compile(&pipe, &spaced, &config, &calls).unwrap();
    assert_eq!(calls.get(), 2, "a different text misses the memo");
    assert!(first == second && first == one_shot(DEMO, &config));
    assert_eq!(pipe.memo_sizes().0, 2);
}

#[test]
fn a_rejected_text_is_never_memoized() {
    let config = Config::c();
    let pipe = Pipeline::new();
    let calls = Cell::new(0);
    let bad = "fn main() { print(1) }";
    let want = ipra_frontend::compile(bad).unwrap_err().to_string();
    for attempt in 1..=3 {
        let err = compile(&pipe, bad, &config, &calls).unwrap_err();
        assert_eq!(err.to_string(), want, "attempt {attempt}");
        assert_eq!(calls.get(), attempt, "attempt {attempt} runs the front end");
    }
    assert_eq!(pipe.memo_sizes(), (0, 0));
}

#[test]
fn options_that_change_preparation_never_share_an_entry() {
    let base = Config::c();
    let mut no_promote = Config::c();
    no_promote.opts.promote_globals = false;
    let inline = Config::inline_c();
    let mut small_budget = Config::inline_c();
    small_budget.opts.inline_budget = 4;
    let mut forced = Config::inline_c();
    forced.opts = forced.opts.force_open("helper");
    let mut both_forced = forced.clone();
    both_forced.opts = both_forced.opts.force_open("bump");
    let configs = [
        ("C", base),
        ("C, no promotion", no_promote),
        ("inline/C", inline),
        ("inline/C, budget 4", small_budget),
        ("inline/C, helper forced open", forced),
        ("inline/C, helper and bump forced open", both_forced),
    ];

    let pipe = Pipeline::new();
    let calls = Cell::new(0);
    for round in ["cold", "replay"] {
        for (n, (name, config)) in configs.iter().enumerate() {
            calls.set(0);
            let got = compile(&pipe, DEMO, config, &calls).unwrap();
            assert!(got == one_shot(DEMO, config), "{name} {round}: differs");
            let expected = usize::from(round == "cold");
            assert_eq!(calls.get(), expected, "{name} {round}: front-end calls");
            if round == "cold" {
                assert_eq!(pipe.memo_sizes().0, n + 1, "{name}: its own entry");
            }
        }
    }
    // The inliner splices `helper` unless it is forced open, so the
    // forced-open entry is a different transform, not just another key.
    let forced_open = &configs[4].1;
    assert!(one_shot(DEMO, forced_open) != one_shot(DEMO, &configs[2].1));
}

/// Forcing a function open keeps the inliner from splicing it, so a warm
/// pipeline must not replay a preparation made under another forced-open
/// set. Every corpus program is compiled under inline/C through one
/// pipeline with no function forced open, then once with each non-`main`
/// function forced open, and each compile is compared with its one-shot
/// compile.
#[test]
fn forced_open_sets_never_share_a_prepared_module() {
    let pipe = Pipeline::new();
    let calls = Cell::new(0);
    let mut differing = Vec::new();
    for w in ipra_workloads::all() {
        let module = ipra_workloads::compile_workload(w).unwrap();
        let mut sets = vec![None];
        sets.extend(
            module
                .funcs
                .iter()
                .filter(|&(fid, _)| Some(fid) != module.main)
                .map(|(_, f)| Some(f.name.clone())),
        );
        for set in sets {
            let mut config = Config::inline_c();
            if let Some(name) = &set {
                config.opts = config.opts.force_open(name.as_str());
            }
            let got = compile(&pipe, w.source, &config, &calls).unwrap();
            if got != one_shot(w.source, &config) {
                differing.push(format!("{} forced open {set:?}", w.name));
            }
        }
    }
    assert!(
        differing.is_empty(),
        "{} compiles differ from one-shot:\n{}",
        differing.len(),
        differing.join("\n")
    );
}

/// Drops every wall-clock field (`*_ns`, `*_us`) from a trace document.
fn untimed(j: &Json) -> Json {
    match j {
        Json::Arr(items) => Json::Arr(items.iter().map(untimed).collect()),
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| !k.ends_with("_ns") && !k.ends_with("_us"))
                .map(|(k, v)| (k.clone(), untimed(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The trace starts before the front end, so a traced request whose text
/// misses the prepared memo records the same trace as one whose text hits
/// it. Both requests below replay every component, so the prepared memo
/// is the only difference.
#[test]
fn a_traced_request_has_the_same_trace_whether_its_text_hit_the_memo() {
    let service = Service::with_defaults();
    let spaced = DEMO.replacen("fn main", "fn  main", 1);
    let request = |id: i64, text: &str| {
        let mut req = CompileRequest::new(id, RequestSource::Source(text.into()));
        req.run = true;
        req.trace = true;
        service.dispatch(&req.to_json()).0
    };
    let field = |resp: &Json, key: &str| resp.get(key).cloned().unwrap_or(Json::Null);

    let cold = request(1, DEMO);
    assert_eq!(field(&cold, "warm"), Json::Bool(false));
    // A new text, so the front end runs inside the trace...
    let missed = request(2, &spaced);
    // ...and the first text again, which skips it.
    let hit = request(3, DEMO);
    for resp in [&missed, &hit] {
        assert_eq!(field(resp, "status"), Json::Str("ok".into()));
        assert_eq!(field(resp, "warm"), Json::Bool(true));
        assert_eq!(field(resp, "asm"), field(&cold, "asm"));
    }
    assert_eq!(service.pipeline().memo_sizes().0, 2);
    let trace = |resp: &Json| untimed(&field(resp, "trace"));
    assert!(trace(&missed) != Json::Null);
    assert!(
        trace(&missed) == trace(&hit),
        "the trace of a memo hit differs from the trace of a miss"
    );
}
