//! The benchmark's input programs: the 13-program corpus, seeded
//! `synth::shaped_source` programs, single-function edits of corpus
//! programs, and the interpreter reference outputs they are checked
//! against.

use ipra_ir::interp::{run_module_with, InterpOptions};
use ipra_ir::Module;
use ipra_workloads::synth::{shaped_source, ShapeClass, ShapeConfig, XorShift64Star};

use crate::report::timed;

/// One input program, parsed once during set-up.
pub struct Program {
    /// Display name (`nim`, `shaped/fanout`, ...).
    pub name: String,
    /// Mini source text.
    pub source: String,
    /// The front end's output for `source`.
    pub module: Module,
    /// The interpreter's output.
    pub reference: Vec<i64>,
    /// Generated from the seed. Code-quality counts cover only the
    /// corpus, so they are identical for every seed.
    pub seeded: bool,
}

/// The interpreter budget of the corpus tests; every corpus and shaped
/// program finishes well inside it.
const INTERP: InterpOptions = InterpOptions {
    fuel: 2_000_000_000,
    max_depth: 20_000,
};

/// `(name, source)` of the 13 corpus programs, in Table 1 order.
pub fn corpus() -> Vec<(String, String)> {
    ipra_workloads::all()
        .into_iter()
        .map(|w| (w.name.to_string(), w.source.to_string()))
        .collect()
}

/// Dynamic instructions a seeded program may execute. Generated
/// programs range over three orders of magnitude of run time; capping it
/// keeps the corpus, which is the same for every seed, the bulk of every
/// workload, so runs with different seeds stay comparable.
pub const SHAPED_MAX_INSTS: u64 = 50_000;

/// One seeded shaped program per [`ShapeClass`], each drawn until one
/// runs within [`SHAPED_MAX_INSTS`] instructions.
pub fn shaped(seed: u64) -> Vec<(String, String)> {
    let mut rng = XorShift64Star::new(seed ^ 0x5EED_5A9E);
    ShapeClass::ALL
        .iter()
        .map(|&class| (format!("shaped/{class}"), bounded_shaped(&mut rng, class)))
        .collect()
}

/// The next seeded `class` program that runs within
/// [`SHAPED_MAX_INSTS`] instructions.
pub fn bounded_shaped(rng: &mut XorShift64Star, class: ShapeClass) -> String {
    let budget = INTERP.with_fuel(SHAPED_MAX_INSTS);
    loop {
        let source = shaped_source(rng.next_u64(), &ShapeConfig::new(class));
        let fits =
            ipra_frontend::compile(&source).is_ok_and(|m| run_module_with(&m, budget).is_ok());
        if fits {
            return source;
        }
    }
}

/// Parses the corpus and the seeded shaped programs, and records each one's interpreter output. Returns the programs and
/// the interpretation time in microseconds.
///
/// # Errors
///
/// Names the program whose front end or interpretation failed.
pub fn load(seed: u64) -> Result<(Vec<Program>, f64), String> {
    let corpus = corpus().into_iter().map(|(n, s)| (n, s, false));
    let seeded = shaped(seed).into_iter().map(|(n, s)| (n, s, true));
    let mut interp_us = 0.0;
    let mut out = Vec::new();
    for (name, source, seeded) in corpus.chain(seeded) {
        let module =
            ipra_frontend::compile(&source).map_err(|e| format!("{name}: front end: {e}"))?;
        let (r, t) = timed(|| run_module_with(&module, INTERP));
        interp_us += t;
        let reference = r.map_err(|e| format!("{name}: interpreter: {e}"))?.output;
        out.push(Program {
            name,
            source,
            module,
            reference,
            seeded,
        });
    }
    Ok((out, interp_us))
}

/// A single-function edit of `source`: one function, picked by `rng`,
/// gains a dead local initialised with a fresh literal. The edit changes
/// exactly that function's body (so its cache entry and analyses go
/// stale) and never the program's output, so callers whose summaries do
/// not change are early cutoffs.
pub fn edit(source: &str, rng: &mut XorShift64Star, tag: u64) -> String {
    let starts: Vec<usize> = source
        .match_indices("\nfn ")
        .map(|(i, _)| i + 1)
        .chain(source.match_indices("\nextern fn ").map(|(i, _)| i + 1))
        .collect();
    let at = starts[rng.below(starts.len() as u64) as usize];
    let brace = at + source[at..].find('{').expect("function body");
    let literal = rng.range_i64(1, 1_000_000);
    format!(
        "{} var zedit{tag}: int = {literal};{}",
        &source[..=brace],
        &source[brace + 1..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_keep_output_and_change_one_function() {
        let mut rng = XorShift64Star::new(7);
        for (name, src) in corpus() {
            let edited = edit(&src, &mut rng, 1);
            let a = ipra_frontend::compile(&src).unwrap();
            let b = ipra_frontend::compile(&edited).unwrap();
            let out = |m| run_module_with(m, INTERP).unwrap().output;
            assert_eq!(out(&a), out(&b), "{name}");
            let (ha, hb) = (
                ipra_ir::hash_all_functions(&a),
                ipra_ir::hash_all_functions(&b),
            );
            assert_eq!(
                ha.iter().zip(&hb).filter(|(x, y)| x != y).count(),
                1,
                "{name}"
            );
        }
    }

    #[test]
    fn shaped_programs_are_seeded() {
        assert_eq!(shaped(3), shaped(3));
        assert_ne!(shaped(3), shaped(4));
        assert_eq!(shaped(3).len(), ShapeClass::ALL.len());
    }
}
