//! Golden tests for the observability trace: JSON shape and content of a
//! fixed demo module, and the zero-cost guarantee of the disabled path.

use ipra_driver::{compile_and_run, compile_and_run_traced, compile_only, Config};
use ipra_obs::json::{parse, Json};

// This binary uses only `DEMO` of the shared corpus module.
#[allow(dead_code)]
mod common;
use common::DEMO;

const PHASES: [&str; 5] = ["ranges", "priority", "color", "shrink_wrap", "lower"];

/// Counters the compile records once per function, with a `func` label.
const PER_FUNC: [&str; 7] = [
    "dataflow.liveness.iterations",
    "ranges.interference_edges",
    "priority.rows",
    "priority.parts",
    "priority.scans",
    "shrink_wrap.iterations",
    "shrink_wrap.antav.sweeps",
];

/// The registry counter instances of a trace document.
fn registry_counters(doc: &Json) -> &[Json] {
    doc.get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(Json::as_arr)
        .expect("trace JSON has metrics.counters")
}

/// The value of counter `name` labeled with function `func` alone.
fn func_counter(doc: &Json, name: &str, func: &str) -> Option<i64> {
    let want = Json::Obj(vec![("func".into(), Json::Str(func.into()))]);
    registry_counters(doc)
        .iter()
        .find(|c| {
            c.get("name").and_then(Json::as_str) == Some(name) && c.get("labels") == Some(&want)
        })
        .and_then(|c| c.get("value"))
        .and_then(Json::as_i64)
}

#[test]
fn traced_json_has_every_phase_once_per_function() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.expect("traced run carries a trace");
    let doc = parse(&trace.to_json().render_pretty()).expect("emitted JSON parses");

    assert_eq!(doc.get("config").unwrap().as_str(), Some("C"));
    let funcs = doc.get("functions").unwrap().as_arr().unwrap();
    assert_eq!(funcs.len(), 2, "helper and main");

    for f in funcs {
        let name = f.get("name").unwrap().as_str().unwrap();
        let phases = f.get("phases").unwrap().as_arr().unwrap();

        // Every pipeline phase appears exactly once.
        for want in PHASES {
            let n = phases
                .iter()
                .filter(|p| p.get("name").unwrap().as_str() == Some(want))
                .count();
            assert_eq!(n, 1, "phase `{want}` of `{name}` appears {n} times");
        }
        assert_eq!(phases.len(), PHASES.len());

        // Non-negative durations and monotone start times in pipeline order
        // (lower runs in a later pass, so it starts after the others).
        let mut last_start = 0i64;
        for p in phases {
            let start = p.get("start_ns").unwrap().as_i64().unwrap();
            let dur = p.get("dur_ns").unwrap().as_i64().unwrap();
            assert!(
                start >= last_start,
                "phase starts must be monotone in `{name}`"
            );
            assert!(dur >= 0);
            last_start = start;
        }

        // Iteration counters present and >= 1.
        for c in ["dataflow.liveness.iterations", "shrink_wrap.iterations"] {
            let v = func_counter(&doc, c, name)
                .unwrap_or_else(|| panic!("counter `{c}` missing for `{name}`"));
            assert!(v >= 1, "`{c}` of `{name}` is {v}");
        }

        // One decision per candidate vreg, each with a valid kind.
        let decisions = f.get("decisions").unwrap().as_arr().unwrap();
        assert!(!decisions.is_empty(), "`{name}` has candidate vregs");
        for d in decisions {
            let kind = d.get("kind").unwrap().as_str().unwrap();
            assert!(
                ["caller_saved", "callee_saved", "split", "mem"].contains(&kind),
                "bad decision kind `{kind}`"
            );
            assert!(d.get("priority").is_some());
        }

        // Simulator attribution is present and self-consistent.
        let sim = f.get("sim").unwrap();
        assert!(
            sim.get("cycles").unwrap().as_i64().unwrap() > 0,
            "`{name}` executed"
        );
    }

    // Decision count equals the compiler's candidate-vreg count per function.
    let compiled = compile_only(&module, &Config::c());
    for (ft, report) in trace.funcs.iter().zip(&compiled.reports) {
        assert_eq!(ft.name, report.name);
        assert_eq!(
            ft.decisions.len(),
            report.candidate_vregs,
            "one decision per candidate vreg in `{}`",
            ft.name
        );
    }

    // Whole-program simulator summary: the call edge main -> helper ran 20
    // times, and the depth histogram is consistent with it.
    let sim = doc.get("sim").unwrap();
    assert!(sim.get("cycles").unwrap().as_i64().unwrap() > 0);
    assert_eq!(sim.get("max_depth").unwrap().as_i64(), Some(2));
    // The depth histogram is a log₂ histogram object: 21 activations in
    // total, `main` once at depth 1 (bucket [1,2)), `helper` 20 times at
    // depth 2 (bucket [2,4)), exact max on the side.
    let hist = sim.get("depth_hist").unwrap();
    assert_eq!(hist.get("count").unwrap().as_i64(), Some(21));
    assert_eq!(hist.get("max").unwrap().as_i64(), Some(2));
    let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
    let bucket_count = |lo: i64| {
        buckets
            .iter()
            .find(|b| b.get("lo").unwrap().as_i64() == Some(lo))
            .map(|b| b.get("count").unwrap().as_i64().unwrap())
            .unwrap_or(0)
    };
    assert_eq!(bucket_count(1), 1, "main enters once at depth 1");
    assert_eq!(bucket_count(2), 20, "helper enters 20 times at depth 2");

    // The penalty ledger attributes the save/restore traffic to edges and
    // sums exactly to the aggregate counts.
    let ledger = doc.get("penalty_by_edge").unwrap().as_arr().unwrap();
    assert!(!ledger.is_empty());
    let sum = |key: &str| -> i64 {
        ledger
            .iter()
            .map(|e| e.get(key).unwrap().as_i64().unwrap())
            .sum()
    };
    assert_eq!(
        sum("sr_loads"),
        sim.get("save_restore_loads").unwrap().as_i64().unwrap(),
        "ledger reconciles with aggregate loads"
    );
    assert_eq!(
        sum("sr_stores"),
        sim.get("save_restore_stores").unwrap().as_i64().unwrap(),
        "ledger reconciles with aggregate stores"
    );
    assert_eq!(
        sum("penalty_cycles"),
        sim.get("penalty_cycles").unwrap().as_i64().unwrap(),
        "ledger reconciles with aggregate penalty cycles"
    );
    let edges = sim.get("call_edges").unwrap().as_arr().unwrap();
    assert_eq!(edges.len(), 1);
    assert_eq!(edges[0].get("caller").unwrap().as_str(), Some("main"));
    assert_eq!(edges[0].get("callee").unwrap().as_str(), Some("helper"));
    assert_eq!(edges[0].get("count").unwrap().as_i64(), Some(20));
}

#[test]
fn disabled_sink_records_nothing_and_results_are_identical() {
    let module = ipra_frontend::compile(DEMO).unwrap();

    // Plain compilation with no sink: nothing may be recorded.
    let plain = compile_and_run(&module, &Config::c()).unwrap();
    assert!(plain.trace.is_none());
    assert!(
        ipra_obs::disable().is_empty(),
        "no trace collected on the disabled path"
    );

    // Tracing must not change what is compiled or measured.
    let traced = compile_and_run_traced(&module, &Config::c()).unwrap();
    assert_eq!(plain.output, traced.output);
    assert_eq!(
        plain.stats, traced.stats,
        "tracing must not perturb the simulation"
    );

    // And the sink is closed again afterwards.
    assert!(!ipra_obs::is_enabled());
}

#[test]
fn trace_counts_match_function_reports() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let m = compile_and_run_traced(&module, &Config::c()).unwrap();
    let trace = m.trace.unwrap();
    let compiled = compile_only(&module, &Config::c());

    let text = trace.render_text();
    for (ft, report) in trace.funcs.iter().zip(&compiled.reports) {
        let label = [("func", ft.name.as_str())];
        let shrink = trace
            .metrics
            .counter_value("shrink_wrap.iterations", &label);
        assert_eq!(shrink, u64::from(report.shrink_iterations));
        // Coloring prices every candidate range once, into one to 24
        // parts.
        let rows = trace.metrics.counter_value("priority.rows", &label);
        let parts = trace.metrics.counter_value("priority.parts", &label);
        assert_eq!(rows, report.candidate_vregs as u64, "rows of `{}`", ft.name);
        assert!(
            (rows..=24 * rows).contains(&parts),
            "parts of `{}`",
            ft.name
        );
        // `mini-cc --trace` prints them in the function's section.
        let start = text.find(&format!("fn {}:\n", ft.name)).unwrap();
        let section = &text[start..];
        let section = &section[..section[1..].find("\nfn ").map_or(section.len(), |e| e + 1)];
        for name in ["priority.rows", "priority.parts", "priority.scans"] {
            let v = trace.metrics.counter_value(name, &label);
            assert!(
                section.contains(&format!("\n  {name}: {v}\n")),
                "`{name}` in the text section of `{}`:\n{section}",
                ft.name
            );
        }
        let split = ft.decisions.iter().filter(|d| d.kind == "split").count();
        let mem = ft.decisions.iter().filter(|d| d.kind == "mem").count();
        assert_eq!(split, report.split_vregs, "split count in `{}`", ft.name);
        assert_eq!(mem, report.memory_vregs, "mem count in `{}`", ft.name);
    }
}

/// Every count lives once, in the registry: the document has no `module`
/// member and no per-function `counters`, module-level counters are
/// unlabeled, per-function ones name their function in a `func` label,
/// and no counter repeats the cache outcome that the `cache` object
/// carries, or names an analysis outcome. Checked cold (every function
/// allocated) and warm (every function replayed from the cache).
#[test]
fn each_count_is_recorded_once_in_metrics() {
    let module = ipra_frontend::compile(DEMO).unwrap();
    let funcs: Vec<&str> = module.funcs.iter().map(|(_, f)| f.name.as_str()).collect();
    let dir = std::env::temp_dir().join(format!("ipra-trace-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = Config::c();
    config.opts.cache_dir = Some(dir.clone());

    for round in ["cold", "warm"] {
        let m = compile_and_run_traced(&module, &config).unwrap();
        let doc = parse(&m.trace.unwrap().to_json().render_pretty()).unwrap();
        assert!(doc.get("module").is_none(), "[{round}] `module` member");
        assert!(doc.get("cache").is_some(), "[{round}] `cache` object");
        for f in doc.get("functions").unwrap().as_arr().unwrap() {
            assert!(
                f.get("counters").is_none(),
                "[{round}] per-function `counters` member: {f:?}"
            );
        }

        let mut per_func = 0;
        for c in registry_counters(&doc) {
            let name = c.get("name").and_then(Json::as_str).unwrap();
            let Some(Json::Obj(labels)) = c.get("labels") else {
                panic!("[{round}] `{name}` has no label object");
            };
            assert!(
                !name.starts_with("cache.") && !name.starts_with("analysis."),
                "[{round}] `{name}` repeats the cache or analysis object"
            );
            if labels.is_empty() {
                assert!(
                    ["callgraph.", "promote.", "inline.", "shape."]
                        .iter()
                        .any(|p| name.starts_with(p)),
                    "[{round}] unlabeled `{name}` is not a module-level counter"
                );
            } else if PER_FUNC.contains(&name) {
                assert!(
                    matches!(&labels[..], [(k, Json::Str(f))] if k == "func" && funcs.contains(&f.as_str())),
                    "[{round}] `{name}` must carry exactly one `func` label naming a function: {labels:?}"
                );
                per_func += 1;
            }
        }
        let want = if round == "cold" {
            PER_FUNC.len() * funcs.len()
        } else {
            0
        };
        assert_eq!(
            per_func, want,
            "[{round}] one instance per (counter, allocated function)"
        );
        let callgraph_functions = registry_counters(&doc)
            .iter()
            .find(|c| c.get("name").and_then(Json::as_str) == Some("callgraph.functions"));
        assert_eq!(
            callgraph_functions
                .and_then(|c| c.get("value"))
                .and_then(Json::as_i64),
            Some(funcs.len() as i64),
            "[{round}] module-level call-graph size"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
