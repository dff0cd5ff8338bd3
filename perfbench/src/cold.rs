//! `cold-compile`: compile only. Corpus and seeded shaped programs go
//! from source text to machine code under `base`, `A`, `B`, `C` and
//! `inline/C`, each through a fresh one-shot `compile_module` at the
//! default `jobs = 0` (one worker per core). All the time goes to the
//! front end, prepare, analyses, allocation, lowering and the wave
//! scheduler; no cache or memo can help, so this is the workload where
//! a scheduler or per-pass change shows.

use std::time::Instant;

use ipra_bench::alloc_meter;
use ipra_core::{compile_module, CompiledModule};
use ipra_driver::{run_compiled, Config};

use crate::ledger::Ledger;
use crate::programs::{self, Program};
use crate::report::{mean, ratio, timed, us, EndToEnd, Quality, Report, Round};
use crate::stage::{self, Layers};

/// Set-up state: programs with reference outputs for the after-run check.
pub struct Cold {
    programs: Vec<Program>,
    configs: Vec<Config>,
    interp_us: f64,
}

fn configs() -> Vec<Config> {
    let mut cs = vec![
        Config::o2_base(),
        Config::a(),
        Config::b(),
        Config::c(),
        Config::inline_c(),
    ];
    for c in &mut cs {
        c.opts.jobs = 0;
    }
    cs
}

impl Cold {
    /// The resolved wave-scheduler worker count of every compile.
    pub fn jobs(&self) -> usize {
        self.configs[0].opts.effective_jobs()
    }
}

/// Generates the programs and interprets them for their reference output.
///
/// # Errors
///
/// A program that fails to parse or to interpret.
pub fn setup(seed: u64) -> Result<Cold, String> {
    let (programs, interp_us) = programs::load(seed)?;
    Ok(Cold {
        programs,
        configs: configs(),
        interp_us,
    })
}

/// Measures compile rounds for `seconds`, then checks the first round's
/// modules outside the timed region: `verify_module` must find no
/// violation and the simulated output must equal the interpreter's.
pub fn measure(s: &Cold, setup_s: f64, seconds: f64, trace: bool, rep: &mut Report) {
    let mut rounds = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut first: Vec<Result<CompiledModule, String>> = Vec::new();
    let mut peak_bytes = 0;
    let mut layers = Layers::default();
    let mut unattributed = 0.0;
    let start = Instant::now();
    while plain_s.is_empty()
        || (trace && traced_s.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = trace && plain_s.len() > traced_s.len();
        let keep = first.is_empty();
        let scale = crate::host::scale();
        let mut op_us = Vec::new();
        let t = Instant::now();
        for p in &s.programs {
            for cfg in &s.configs {
                if tracing {
                    traced_op(p, cfg, &mut layers, &mut unattributed, rep);
                    continue;
                }
                let t = Instant::now();
                let (compiled, mem) = alloc_meter::measure(|| {
                    ipra_frontend::compile(&p.source)
                        .map(|m| compile_module(&m, &cfg.target, &cfg.opts))
                });
                if !p.seeded {
                    op_us.push(us(t.elapsed()) * scale);
                }
                if keep {
                    if !p.seeded {
                        peak_bytes = peak_bytes.max(mem.peak_bytes);
                    }
                    first.push(compiled.map_err(|e| e.to_string()));
                }
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if tracing {
            traced_s.push(wall);
        } else {
            plain_s.push(wall);
            rounds.push(Round {
                wall_s: op_us.iter().sum::<f64>() / 1e6,
                ops: op_us.len(),
                op_us,
            });
        }
    }

    let quality = check(s, &first, rep);
    let ops = (s.programs.len() * s.configs.len()) as f64;
    if trace {
        let mut l = Ledger {
            jobs: s.jobs() as f64,
            interp_us: s.interp_us,
            ..Ledger::default()
        };
        l.set_compile_layers(&layers, traced_s.len() as u64);
        l.driver_unattributed_us = ratio(unattributed, layers.compiles as f64);
        l.trace_overhead_us = (mean(&traced_s) - mean(&plain_s)) * 1e6 / ops;
        l.trace_replays = layers.compiles as f64;
        l.emit(rep);
    } else {
        EndToEnd {
            setup_s,
            rounds,
            peak_bytes,
            quality,
        }
        .emit(rep);
    }
}

/// One traced compile: the staged replay (front end included) against an
/// untraced `compile_module` of the same module.
fn traced_op(
    p: &Program,
    cfg: &Config,
    layers: &mut Layers,
    unattributed: &mut f64,
    rep: &mut Report,
) {
    let mut l = Layers::default();
    let Ok(module) = stage::frontend(&p.source, &mut l) else {
        return rep.check(false, || format!("{}: front end failed", p.name));
    };
    let replay = stage::compile(&module, &cfg.target, &cfg.opts, &mut l);
    let (compiled, compile_us) = timed(|| compile_module(&module, &cfg.target, &cfg.opts));
    stage::count_reports(&compiled, &mut l);
    *unattributed += compile_us - l.compile_us();
    layers.add(&l);
    let same = stage::render_asm(&replay, &cfg.target)
        == stage::render_asm(&compiled.mmodule, &cfg.target);
    rep.check(same, || {
        format!("{}/{}: staged replay differs", p.name, cfg.name)
    });
}

/// The after-run gates over the first round's modules, in
/// `(program, config)` order, and the corpus's code-quality counts.
fn check(s: &Cold, first: &[Result<CompiledModule, String>], rep: &mut Report) -> Quality {
    let mut q = Quality::default();
    let pairs = s
        .programs
        .iter()
        .flat_map(|p| s.configs.iter().map(move |c| (p, c)));
    for ((p, cfg), c) in pairs.zip(first) {
        let c = match c {
            Ok(c) => c,
            Err(e) => {
                rep.check(false, || format!("{}: front end: {e}", p.name));
                continue;
            }
        };
        let violations = ipra_verify::verify_module(&c.mmodule, &cfg.target.regs, &c.summaries);
        let run = run_compiled(c, cfg);
        if !p.seeded {
            q.code_insts += stage::code_insts(&c.mmodule);
            if let Ok(m) = &run {
                q.add_run(m);
            }
        }
        let ok = violations.is_empty() && run.is_ok_and(|m| m.output == p.reference);
        rep.check(ok, || {
            format!(
                "{}/{}: {} verifier violations or output differs from the interpreter",
                p.name,
                cfg.name,
                violations.len()
            )
        });
    }
    q
}
