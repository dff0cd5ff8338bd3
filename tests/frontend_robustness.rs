//! Error-path robustness for the frontend: feeding it damaged input must
//! produce an `Err`, never a panic. The fuzz driver relies on this — a
//! byte-level mutation of a generated program lands here, and a frontend
//! rejection must be reportable as an ordinary differential failure.
//!
//! All mutations are driven by fixed seeds, so a failure names the exact
//! (seed, mutation) pair that produced it.
//!
//! The front end's output is pinned as well: the IR text of every corpus
//! workload (`format!("{module}")`, what `mini-cc --emit ir` prints,
//! vreg names included), and per shape class one digest over every
//! mutated input's outcome — its IR text when accepted, or the error's
//! `Display` (message with `line:col`) when rejected.

use ipra_ir::Fnv64;
use ipra_workloads::synth::{shaped_source, ShapeClass, ShapeConfig, XorShift64Star};

/// `(workload, FNV-1a digest of its IR text)`.
#[rustfmt::skip]
const IR_PINS: &[(&str, u64)] = &[
    ("nim", 0x516a2a871ccb6037),
    ("map", 0xb1352bd854d2c0b2),
    ("calcc", 0x6eea4ec6a6ec711c),
    ("diff", 0x5af3abedbbd672a1),
    ("dhrystone", 0x3519ee9897b78af8),
    ("stanford", 0x8af87af0dc596330),
    ("pf", 0xae107e8dbddb40d7),
    ("awk", 0x4b40954ac6deaeb7),
    ("tex", 0x2744fa8bcabfefd1),
    ("ccom", 0x2d288c338b1d497b),
    ("as1", 0xf0e296c0f41d6983),
    ("upas", 0x362ff19f4818ad45),
    ("uopt", 0x1238d994817f9f6d),
];

/// `(shape class, FNV-1a digest over the outcomes of its mutated
/// inputs)`, in [`ShapeClass::ALL`] order.
#[rustfmt::skip]
const OUTCOME_PINS: &[(&str, u64)] = &[
    ("acyclic", 0x6c980b5f991b74e9),
    ("recursive", 0x15e525fa65ad154e),
    ("fanout", 0x492a185966a8eef4),
    ("fnptr", 0x2e07e4e83b0358ab),
    ("arity", 0x12ad92aa7896fa05),
];

/// What the front end makes of `src`: the module's IR text, or the error
/// with its position.
fn outcome(src: &str) -> String {
    match ipra_frontend::compile(src) {
        Ok(module) => format!("{module}"),
        Err(e) => format!("error {e}"),
    }
}

/// Applies one random byte-level mutation: overwrite, insert, delete, or
/// truncate. The result is forced back to UTF-8 lossily, like a fuzzer
/// reading an on-disk repro would.
fn mutate(src: &str, rng: &mut XorShift64Star) -> String {
    let mut bytes = src.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let at = rng.below(bytes.len() as u64) as usize;
    match rng.below(4) {
        0 => bytes[at] = rng.below(256) as u8,
        1 => bytes.insert(at, rng.below(256) as u8),
        2 => {
            bytes.remove(at);
        }
        _ => bytes.truncate(at),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Byte-mutated generated programs must compile or be rejected with an
/// error — the frontend must not panic, whatever the damage. Each base
/// program takes a burst of stacked mutations so the input drifts far
/// from well-formed. Every outcome, accepted or rejected, feeds its
/// class's pinned digest.
#[test]
fn mutated_sources_never_panic_the_frontend() {
    let mut observed = Vec::new();
    for class in ShapeClass::ALL {
        let cfg = ShapeConfig::new(class);
        let mut h = Fnv64::new();
        for seed in 0..8u64 {
            let base = shaped_source(seed, &cfg);
            let mut rng = XorShift64Star::new(seed ^ 0xBAD_BEEF ^ (class as u64) << 48);
            let mut src = base;
            for step in 0..24 {
                src = mutate(&src, &mut rng);
                // Err is fine; only a panic (which aborts the test) or a
                // compile of truly empty input would be a bug.
                let text = std::panic::catch_unwind(|| outcome(&src))
                    .unwrap_or_else(|_| panic!("{class} seed {seed} step {step} panicked:\n{src}"));
                h.write_str(&text);
            }
        }
        observed.push((class.name(), h.finish()));
    }
    let table: String = observed
        .iter()
        .map(|(c, d)| format!("    (\"{c}\", {d:#018x}),\n"))
        .collect();
    assert!(
        observed == OUTCOME_PINS,
        "front-end outcomes on mutated input moved; observed:\n{table}"
    );
}

/// Every corpus workload lowers to the pinned IR text.
#[test]
fn corpus_ir_text_matches_pins() {
    let observed: Vec<(&str, u64)> = ipra_workloads::all()
        .into_iter()
        .map(|w| {
            let mut h = Fnv64::new();
            h.write_str(&outcome(w.source));
            (w.name, h.finish())
        })
        .collect();
    let table: String = observed
        .iter()
        .map(|(w, d)| format!("    (\"{w}\", {d:#018x}),\n"))
        .collect();
    assert!(
        observed == IR_PINS,
        "corpus IR text moved; observed:\n{table}"
    );
}

/// A grab-bag of adversarial fixed inputs: empty, unterminated constructs,
/// deep nesting, stray NULs, huge literals. All must return `Err` (or a
/// valid module), never panic.
#[test]
fn adversarial_fixed_inputs_are_rejected_gracefully() {
    let deep_parens = format!(
        "fn main() {{ print({}1{}); }}",
        "(".repeat(300),
        ")".repeat(300)
    );
    let cases: Vec<String> = vec![
        String::new(),
        "fn".into(),
        "fn main(".into(),
        "fn main() { print(1); ".into(),
        "fn main() { var x: int = 99999999999999999999999999; }".into(),
        "fn main() { print(&); }".into(),
        "fn main() { print(1 + ); }".into(),
        "fn f() -> int { } fn main() { print(f()); }".into(),
        "fn main() { \u{0} }".into(),
        "fn main() { } fn main() { }".into(),
        "var g: fnptr = &missing; fn main() { }".into(),
        deep_parens,
    ];
    for (i, src) in cases.iter().enumerate() {
        let _ = std::panic::catch_unwind(|| ipra_frontend::compile(src))
            .unwrap_or_else(|_| panic!("adversarial case {i} panicked:\n{src}"));
    }
}
