//! Golden tests for the three-leg inlining × IPRA ablation
//! (`off` / `inline` / `inline+IPRA`, see `ipra_bench::inline_ablation`):
//! the rendered JSON document must be byte-identical without a cache and
//! across cold and warm allocation caches; the ablation invariant
//! (inline+IPRA pays no more penalty than off) must hold on every corpus
//! program; and two workloads' inliner site counts are pinned exactly, so
//! any change to ranking, budget accounting or candidate legality shows
//! up as a diff in this file rather than as a silent behavior drift. The
//! committed `BENCH_inline.json` must match a fresh 13-workload run byte
//! for byte.
//!
//! The bench crate's other deterministic output, the per-configuration
//! traces `table1 --trace-json` writes, is checked here too.

use ipra_bench::inline_ablation::{ablation_to_json, run_ablation, run_ablation_modules};
use ipra_obs::json::Json;

mod common;
use common::corpus;

/// The full ablation document must not depend on allocation-cache
/// temperature: three runs — no cache, cold cache, warm cache over the
/// same directory — render byte-identical JSON.
#[test]
fn ablation_json_is_byte_identical_across_cache_temperature() {
    let corpus = corpus();
    let doc = |rows: &_| ablation_to_json(rows).render_pretty();

    let uncached = doc(&run_ablation_modules(&corpus, None).expect("uncached runs"));
    let dir = std::env::temp_dir().join(format!("ipra-inline-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = doc(&run_ablation_modules(&corpus, Some(&dir)).expect("cold cache runs"));
    let warm = doc(&run_ablation_modules(&corpus, Some(&dir)).expect("warm cache runs"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        uncached, cold,
        "ablation JSON differs between no-cache and cold cache"
    );
    assert_eq!(
        cold, warm,
        "ablation JSON differs between cold and warm cache"
    );
}

/// The ablation's invariant on this corpus: with IPRA on, inlining
/// must not add save/restore penalty in aggregate (individual tiny
/// programs may pay a few cycles more when splicing shifts register
/// pressure, so only the total is held), the call-heaviest real
/// workload (`nim`) must improve outright, and the corpus must actually
/// exercise the inliner.
#[test]
fn inline_plus_ipra_never_pays_more_penalty_than_off() {
    let rows = run_ablation_modules(&corpus(), None).expect("ablation runs");
    let total = |leg: usize| -> u64 { rows.iter().map(|r| r.legs[leg].penalty_cycles).sum() };
    assert!(
        total(2) <= total(0),
        "aggregate inline+IPRA penalty {} exceeds off-leg penalty {}",
        total(2),
        total(0)
    );
    for r in rows.iter().filter(|r| r.workload == "nim") {
        assert!(
            r.legs[2].penalty_cycles < r.legs[0].penalty_cycles,
            "[{}] inline+IPRA must strictly beat the off leg ({} vs {})",
            r.workload,
            r.legs[2].penalty_cycles,
            r.legs[0].penalty_cycles
        );
    }
    let inlined_total: u64 = rows.iter().map(|r| r.legs[2].sites_inlined).sum();
    assert!(inlined_total > 0, "corpus never exercised the inliner");
}

/// Exact inliner decisions on the two real workloads, pinned. A change
/// to the ranking, the budget arithmetic, or candidate legality must
/// update these numbers consciously — the budget off-by-one mutant in
/// `inline_mutants` is precisely the kind of drift this pin catches.
#[test]
fn site_counts_are_pinned_for_the_real_workloads() {
    let corpus: Vec<_> = corpus()
        .into_iter()
        .filter(|(n, _)| n == "nim" || n == "stanford")
        .collect();
    let rows = run_ablation_modules(&corpus, None).expect("ablation runs");
    let pin: Vec<(String, u64, u64, u64)> = rows
        .iter()
        .map(|r| {
            let l = &r.legs[2]; // inline+IPRA
            (
                r.workload.clone(),
                l.sites_considered,
                l.sites_inlined,
                l.budget_stops,
            )
        })
        .collect();
    assert_eq!(
        pin,
        vec![
            ("nim".to_string(), 13, 5, 1),
            ("stanford".to_string(), 29, 12, 3),
        ],
        "(workload, sites_considered, sites_inlined, budget_stops) drifted"
    );
}

/// `BENCH_inline.json` is exactly what `inline_ablation` renders for the
/// 13-workload suite, and it meets the ablation's floor: the inline+IPRA
/// leg pays no more total penalty than the off leg, and the inliner
/// fired.
#[test]
fn committed_ablation_is_regenerated_byte_for_byte() {
    let doc = ablation_to_json(&run_ablation(&ipra_workloads::all()).expect("ablation runs"));
    assert!(
        doc.render_pretty() == include_str!("../BENCH_inline.json"),
        "BENCH_inline.json is stale; regenerate it with \
         `cargo run --release -p ipra-bench --bin inline_ablation`"
    );
    let total = doc.get("total").expect("the document has a total");
    let get = |key| total.get(key).and_then(Json::as_i64).expect(key);
    assert!(
        get("penalty_inline_ipra") <= get("penalty_off"),
        "inline+IPRA pays more penalty than inlining off"
    );
    assert!(get("sites_inlined") > 0, "the inliner never fired");
}

/// `table1 --small --trace-json DIR` writes one trace per workload and
/// configuration (nim, map and calcc under base, A, B and C), each of
/// which `trace-tool` loads.
#[test]
fn table1_small_writes_one_loadable_trace_per_config() {
    let dir = std::env::temp_dir().join(format!("ipra-table1-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--small", "--trace-json"])
        .arg(&dir)
        .output()
        .expect("table1 runs");
    assert!(out.status.success(), "{out:?}");
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut want: Vec<String> = ["nim", "map", "calcc"]
        .iter()
        .flat_map(|w| ["base", "A", "B", "C"].map(|c| format!("{w}-{c}.json")))
        .collect();
    want.sort();
    assert_eq!(files, want);
    for f in &files {
        let text = std::fs::read_to_string(dir.join(f)).unwrap();
        let doc = ipra_obs::json::parse(&text).unwrap_or_else(|e| panic!("{f}: {e}"));
        ipra_driver::tracetool::load(&doc).unwrap_or_else(|e| panic!("{f}: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
