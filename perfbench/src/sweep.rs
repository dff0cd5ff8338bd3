//! `table-sweep`: the paper's Tables 1 and 2. Every corpus program and
//! one seeded shaped program per shape class is compiled under each
//! Table 1/2 configuration plus `inline/C` at `jobs = 1`, then simulated
//! with the convention checker on, and its output is compared with the
//! interpreter's. The simulator takes almost all of the time, so this is
//! the sim layer's workload and the source of the code-quality counts.
//! An operation is one table column: one configuration over every
//! program. Per-program latencies cluster by program size, so their
//! quantiles jump between clusters from run to run; a column's do not.

use std::time::Instant;

use ipra_bench::alloc_meter;
use ipra_core::compile_module;
use ipra_driver::{run_compiled, Config};

use crate::ledger::Ledger;
use crate::programs::{self, Program};
use crate::report::{mean, ratio, timed, us, EndToEnd, Quality, Report, Round};
use crate::stage::{self, Layers};

/// Set-up state: the programs with their reference outputs.
pub struct Sweep {
    programs: Vec<Program>,
    configs: Vec<Config>,
    interp_us: f64,
}

/// The configurations of Tables 1 and 2 plus the inliner leg, serial.
fn configs() -> Vec<Config> {
    let mut cs = vec![
        Config::o2_base(),
        Config::a(),
        Config::b(),
        Config::c(),
        Config::d(),
        Config::e(),
        Config::inline_c(),
    ];
    for c in &mut cs {
        c.opts.jobs = 1;
    }
    cs
}

impl Sweep {
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
pub fn setup(seed: u64) -> Result<Sweep, String> {
    let (programs, interp_us) = programs::load(seed)?;
    Ok(Sweep {
        programs,
        configs: configs(),
        interp_us,
    })
}

/// Per-sweep totals.
#[derive(Default)]
struct Totals {
    quality: Quality,
    peak_bytes: u64,
    sim_us: f64,
    sim_insts: u64,
    sim_calls: u64,
}

/// Measures full sweeps for `seconds`. With `trace`, traced sweeps
/// alternate with untraced ones and only the ledger is reported.
pub fn measure(s: &Sweep, setup_s: f64, seconds: f64, trace: bool, rep: &mut Report) {
    let mut rounds = Vec::new();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut first: Option<Totals> = None;
    let mut layers = Layers::default();
    let mut unattributed = 0.0;
    let mut traced_sim_us = 0.0;
    let start = Instant::now();
    while plain_s.is_empty()
        || (trace && traced_s.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = trace && plain_s.len() > traced_s.len();
        let t = Instant::now();
        let mut op_us = Vec::new();
        let round = sweep(s, tracing, &mut op_us, &mut layers, &mut unattributed, rep);
        let wall = t.elapsed().as_secs_f64();
        if tracing {
            traced_s.push(wall);
            traced_sim_us += round.sim_us;
        } else {
            plain_s.push(wall);
            rounds.push(Round {
                wall_s: op_us.iter().sum::<f64>() / 1e6,
                ops: s.configs.len(),
                op_us,
            });
        }
        match &first {
            None => first = Some(round),
            Some(f) if round.quality != f.quality => rep.fail(format!(
                "code-quality counts changed between sweeps: {:?} vs {:?}",
                f.quality, round.quality
            )),
            Some(_) => {}
        }
    }
    let first = first.expect("at least one sweep");
    let ops = (s.programs.len() * s.configs.len()) as f64;
    if trace {
        let rounds = traced_s.len() as u64;
        let mut l = Ledger {
            jobs: s.jobs() as f64,
            interp_us: s.interp_us,
            ..Ledger::default()
        };
        l.set_compile_layers(&layers, rounds);
        l.driver_unattributed_us = ratio(unattributed, layers.compiles as f64);
        l.sim_us = ratio(traced_sim_us, layers.compiles as f64);
        l.sim_minsts_per_s = ratio(first.sim_insts as f64 * rounds as f64, traced_sim_us);
        l.sim_insts = first.sim_insts as f64;
        l.sim_calls = first.sim_calls as f64;
        l.trace_overhead_us = (mean(&traced_s) - mean(&plain_s)) * 1e6 / ops;
        l.trace_replays = layers.compiles as f64;
        l.emit(rep);
    } else {
        EndToEnd {
            setup_s,
            rounds,
            peak_bytes: first.peak_bytes,
            quality: first.quality,
        }
        .emit(rep);
    }
}

/// One full sweep, one table column (a configuration over every program)
/// at a time. Untraced sweeps append each column's corpus latency, scaled
/// with a host reference timed right before it, to `op_us`;
/// traced ones instead replay each compile layer by layer into `layers`
/// and check it byte for byte against `compile_module`.
fn sweep(
    s: &Sweep,
    tracing: bool,
    op_us: &mut Vec<f64>,
    layers: &mut Layers,
    unattributed: &mut f64,
    rep: &mut Report,
) -> Totals {
    let mut round = Totals::default();
    for cfg in &s.configs {
        let scale = crate::host::scale();
        let mut column_us = 0.0;
        for p in &s.programs {
            let t = Instant::now();
            let ((compiled, compile_us, run, sim_us), mem) = alloc_meter::measure(|| {
                let (c, tc) = timed(|| compile_module(&p.module, &cfg.target, &cfg.opts));
                let (m, ts) = timed(|| run_compiled(&c, cfg));
                (c, tc, m, ts)
            });
            if !p.seeded {
                column_us += us(t.elapsed());
            }
            round.sim_us += sim_us;
            if tracing {
                let mut l = Layers::default();
                let replay = stage::compile(&p.module, &cfg.target, &cfg.opts, &mut l);
                stage::count_reports(&compiled, &mut l);
                *unattributed += compile_us - l.compile_us();
                layers.add(&l);
                let same = stage::render_asm(&replay, &cfg.target)
                    == stage::render_asm(&compiled.mmodule, &cfg.target);
                if !same {
                    rep.fail(format!("{}/{}: staged replay differs", p.name, cfg.name));
                }
            }
            if !p.seeded {
                round.peak_bytes = round.peak_bytes.max(mem.peak_bytes);
                round.quality.code_insts += stage::code_insts(&compiled.mmodule);
            }
            let ok = match run {
                Ok(m) => {
                    if !p.seeded {
                        round.quality.add_run(&m);
                    }
                    round.sim_insts += m.stats.insts;
                    round.sim_calls += m.stats.calls;
                    m.output == p.reference
                }
                Err(_) => false,
            };
            rep.check(ok, || {
                format!(
                    "{}/{}: output differs from the interpreter",
                    p.name, cfg.name
                )
            });
        }
        if !tracing {
            op_us.push(column_us * scale);
        }
    }
    round
}
