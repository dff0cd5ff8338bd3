//! The golden corpus the trace, cache, convention-search, inlining and
//! trace-tool tests share.

use ipra_ir::Module;
use ipra_workloads::synth;

/// A loop whose accumulator crosses a call to a branchy helper.
pub const DEMO: &str = r#"
fn helper(a: int, b: int) -> int {
    var t: int = a * b;
    if t > 100 { t = t - 100; }
    return t + 1;
}
fn main() {
    var acc: int = 0;
    var i: int = 0;
    while i < 20 {
        acc = acc + helper(i, acc);
        i = i + 1;
    }
    print(acc);
}
"#;

/// The 11-program golden corpus: [`DEMO`], mutual recursion, a deep call
/// DAG, six generator programs and the nim and stanford workloads.
pub fn corpus() -> Vec<(String, Module)> {
    let mutual = r#"
        fn even(n: int) -> int { if n == 0 { return 1; } return odd(n - 1); }
        fn odd(n: int) -> int { if n == 0 { return 0; } return even(n - 1); }
        fn main() { print(even(10) + odd(7)); }
    "#;
    let mut corpus: Vec<(String, Module)> = vec![
        ("demo".into(), ipra_frontend::compile(DEMO).unwrap()),
        ("mutual".into(), ipra_frontend::compile(mutual).unwrap()),
        ("tree".into(), synth::call_tree_program(3, 2, 4, 5)),
    ];
    for seed in 0..6u64 {
        let src = synth::random_source(seed, &synth::SourceConfig::default());
        corpus.push((
            format!("synth-{seed}"),
            ipra_frontend::compile(&src).unwrap(),
        ));
    }
    for w in ["nim", "stanford"] {
        let workload = ipra_workloads::by_name(w).unwrap();
        corpus.push((
            w.into(),
            ipra_workloads::compile_workload(workload).unwrap(),
        ));
    }
    corpus
}
