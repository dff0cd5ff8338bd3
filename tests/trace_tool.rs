//! Integration tests for the penalty-attribution flight recorder: exact
//! ledger reconciliation across the corpus, Chrome trace-event validity
//! on a real compile, the trace files `mini-cc` writes, and the
//! `trace-tool` binary's exit-code contract.

use ipra_driver::{compile_and_run_traced, compile_only, Config};
use ipra_machine::MemClass;
use ipra_obs::json::Json;

mod common;
use common::{corpus, DEMO};

/// The acceptance bar for the ledger: per-edge penalty rows must sum
/// *exactly* — not approximately — to the aggregate simulator statistics
/// on every corpus program, for save/restore traffic, spill traffic and
/// priced penalty cycles alike.
#[test]
fn penalty_ledger_reconciles_exactly_across_corpus() {
    for (name, module) in &corpus() {
        let config = Config::c();
        let m = compile_and_run_traced(module, &config)
            .unwrap_or_else(|t| panic!("[{name}] trapped: {t}"));
        let trace = m.trace.expect("traced run carries a trace");
        let stats = &m.stats;
        let cost = &ipra_sim::SimOptions::for_target(&config.target.regs).cost;

        let ledger = &trace.penalty_by_edge;
        assert!(!ledger.is_empty(), "[{name}] ledger has edges");
        let sum =
            |f: fn(&ipra_driver::trace::PenaltyEdge) -> u64| -> u64 { ledger.iter().map(f).sum() };
        assert_eq!(
            sum(|e| e.sr_loads),
            stats.loads(MemClass::SaveRestore),
            "[{name}] save/restore loads"
        );
        assert_eq!(
            sum(|e| e.sr_stores),
            stats.stores(MemClass::SaveRestore),
            "[{name}] save/restore stores"
        );
        assert_eq!(
            sum(|e| e.spill_loads),
            stats.loads(MemClass::Spill),
            "[{name}] spill loads"
        );
        assert_eq!(
            sum(|e| e.spill_stores),
            stats.stores(MemClass::Spill),
            "[{name}] spill stores"
        );
        assert_eq!(
            sum(|e| e.penalty_cycles),
            stats.penalty_cycles(cost),
            "[{name}] penalty cycles"
        );
        assert_eq!(
            sum(|e| e.calls),
            stats.calls,
            "[{name}] ledger call counts match aggregate calls"
        );
    }
}

/// Chrome/Perfetto export of a real traced compile: parses as JSON,
/// carries `traceEvents`, and every event has the trace-event-format
/// required keys with complete events also carrying a duration.
#[test]
fn chrome_export_of_a_real_compile_has_required_keys() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let config = Config::c();
    ipra_obs::enable();
    let _compiled = compile_only(&module, &config);
    let raw = ipra_obs::disable();
    assert!(!raw.spans.is_empty(), "traced compile records spans");

    let doc = ipra_obs::chrome::export(&raw, &config.name);
    let rendered = doc.render_pretty();
    let reparsed = ipra_obs::json::parse(&rendered).expect("chrome JSON parses");

    assert_eq!(
        complete_events(&reparsed),
        raw.spans.len(),
        "one X event per span"
    );
}

/// Checks that every event of a Chrome trace document carries the
/// trace-event format's required keys, complete (`X`) events also a
/// duration, and returns the number of complete events.
fn complete_events(doc: &Json) -> usize {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let mut seen_x = 0;
    for ev in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(ev.get(key).is_some(), "event missing `{key}`: {ev:?}");
        }
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        match ph {
            "X" => {
                seen_x += 1;
                assert!(ev.get("dur").is_some(), "complete event missing `dur`");
                assert!(ev.get("ts").unwrap().as_f64().unwrap() >= 0.0);
            }
            "M" => {}
            other => panic!("unexpected event phase `{other}`"),
        }
    }
    seen_x
}

/// One traced `mini-cc` run writes both trace files: the structured
/// trace loads with `trace-tool`'s loader and self-diffs clean, and the
/// Chrome trace carries the trace-event format's keys.
#[test]
fn mini_cc_writes_loadable_structured_and_chrome_traces() {
    let dir = std::env::temp_dir().join(format!("ipra-mini-cc-traces-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let chrome = dir.join("chrome.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mini-cc"))
        .args(["--workload", "stanford", "--run", "--trace-json"])
        .arg(&trace)
        .arg("--trace-chrome")
        .arg(&chrome)
        .output()
        .expect("mini-cc runs");
    assert!(out.status.success(), "{out:?}");
    let read = |path: &std::path::Path| {
        ipra_obs::json::parse(&std::fs::read_to_string(path).unwrap()).expect("valid JSON")
    };
    let doc = ipra_driver::tracetool::load(&read(&trace)).expect("trace-tool loads the trace");
    assert!(doc.funcs.iter().any(|f| f.name == "main"));
    assert!(
        complete_events(&read(&chrome)) > 0,
        "chrome trace has spans"
    );
    let trace = trace.to_str().unwrap();
    let (code, text) = run_tool(&["diff", trace, trace]);
    assert_eq!(code, 0, "self-diff is clean:\n{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the built `trace-tool` binary and returns (exit code, stdout).
fn run_tool(args: &[&str]) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .args(args)
        .output()
        .expect("trace-tool runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// End-to-end exit-code contract: a self-diff of a real trace is clean
/// (exit 0) while a planted ≥10% penalty regression makes `diff` exit
/// nonzero; `top` and `flame` work on the same document.
#[test]
fn trace_tool_diff_flags_planted_regression_with_nonzero_exit() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.unwrap();
    let baseline = trace.to_json().render_pretty();

    // Plant the regression structurally: re-parse the real document and
    // scale every penalty quantity up 50%, so the diff sees the same
    // program with strictly worse save/restore behaviour.
    let planted = match ipra_obs::json::parse(&baseline).unwrap() {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    if k == "sim" || k == "penalty_by_edge" {
                        (k, scale_penalties(v))
                    } else {
                        (k, v)
                    }
                })
                .collect(),
        ),
        _ => unreachable!("trace documents are objects"),
    };

    let dir = std::env::temp_dir().join(format!("ipra-trace-tool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(&old, &baseline).unwrap();
    std::fs::write(&new, planted.render_pretty()).unwrap();
    let old = old.to_str().unwrap();
    let new = new.to_str().unwrap();

    let (code, text) = run_tool(&["diff", old, old]);
    assert_eq!(code, 0, "self-diff is clean:\n{text}");
    assert!(text.contains("0 regression(s)"), "{text}");

    let (code, text) = run_tool(&["diff", old, new]);
    assert_eq!(code, 1, "planted regression exits 1:\n{text}");
    assert!(text.contains("REGRESSED"), "{text}");

    // The planted trace as a *baseline* is an improvement, not a
    // regression.
    let (code, _) = run_tool(&["diff", new, old]);
    assert_eq!(code, 0, "improvements do not fail the gate");

    let (code, text) = run_tool(&["top", old]);
    assert_eq!(code, 0);
    assert!(text.contains("functions:"), "{text}");

    let (code, text) = run_tool(&["flame", old]);
    assert_eq!(code, 0);
    assert!(text.contains("main;"), "{text}");

    // Usage errors exit 2.
    let (code, _) = run_tool(&["frobnicate"]);
    assert_eq!(code, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Multiplies every penalty-relevant integer under `sim` /
/// `penalty_by_edge` by 1.5 (rounding up), leaving structure intact.
fn scale_penalties(j: Json) -> Json {
    match j {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| {
                    let scaled = matches!(
                        k.as_str(),
                        "penalty_cycles"
                            | "sr_loads"
                            | "sr_stores"
                            | "save_restore_loads"
                            | "save_restore_stores"
                    );
                    if scaled {
                        match v {
                            Json::Int(n) => (k, Json::Int(n + (n + 1) / 2)),
                            other => (k, other),
                        }
                    } else {
                        (k, scale_penalties(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(scale_penalties).collect()),
        other => other,
    }
}
