//! # ipra-driver — compilation pipeline and measurement harness
//!
//! Ties the whole reproduction together: Mini source → IR → register
//! allocation under a named configuration → machine code → simulation with
//! convention checking → the measurements the paper reports (cycles, scalar
//! loads/stores, cycles per call).
//!
//! ```
//! use ipra_driver::{compile_and_run, Config};
//!
//! let module = ipra_frontend::compile(
//!     "fn sq(x: int) -> int { return x * x; } fn main() { print(sq(9)); }",
//! )?;
//! let m = compile_and_run(&module, &Config::o3()).unwrap();
//! assert_eq!(m.output, vec![81]);
//! # Ok::<(), ipra_frontend::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod convsearch;
pub mod differential;
pub mod profile;
pub mod service;
pub mod trace;
pub mod tracetool;

use ipra_core::config::AllocOptions;
use ipra_core::ipra::{compile_module, compile_module_with_profile, CompiledModule};
use ipra_ir::Module;
use ipra_machine::Target;
use ipra_sim::{SimOptions, SimTrap, Stats};

pub use ipra_core::config::AllocMode;
pub use ipra_sim::percent_reduction;
pub use profile::{profile_from_json, profile_to_json};
pub use trace::CompileTrace;

/// A named compilation configuration (target + allocator options).
#[derive(Clone, Debug)]
pub struct Config {
    /// Short label used in tables.
    pub name: String,
    /// Target machine.
    pub target: Target,
    /// Allocator options.
    pub opts: AllocOptions,
}

impl Config {
    /// The paper's baseline: `-O2`, shrink-wrap disabled.
    pub fn o2_base() -> Self {
        Config {
            name: "base".into(),
            target: Target::mips_like(),
            opts: AllocOptions::o2_base(),
        }
    }

    /// Table 1 column A: `-O2` with shrink-wrap.
    pub fn a() -> Self {
        Config {
            name: "A".into(),
            target: Target::mips_like(),
            opts: AllocOptions::o2_shrink_wrap(),
        }
    }

    /// Table 1 column B: `-O3` without shrink-wrap.
    pub fn b() -> Self {
        Config {
            name: "B".into(),
            target: Target::mips_like(),
            opts: AllocOptions::o3_no_shrink_wrap(),
        }
    }

    /// Table 1 column C: `-O3` with shrink-wrap.
    pub fn c() -> Self {
        Config {
            name: "C".into(),
            target: Target::mips_like(),
            opts: AllocOptions::o3(),
        }
    }

    /// Alias for [`Config::c`].
    pub fn o3() -> Self {
        Self::c()
    }

    /// Table 2 column D: like C but only 7 caller-saved registers.
    pub fn d() -> Self {
        Config {
            name: "D".into(),
            target: Target::with_class_limits(7, 0),
            opts: AllocOptions::o3(),
        }
    }

    /// Table 2 column E: like C but only 7 callee-saved registers.
    pub fn e() -> Self {
        Config {
            name: "E".into(),
            target: Target::with_class_limits(0, 7),
            opts: AllocOptions::o3(),
        }
    }

    /// The no-register-allocation oracle.
    pub fn no_alloc() -> Self {
        Config {
            name: "noalloc".into(),
            target: Target::mips_like(),
            opts: AllocOptions::no_alloc(),
        }
    }

    /// The "inline without IPRA" ablation leg: configuration A (`-O2`
    /// with shrink-wrap) plus the profile-guided inliner. The `inline/`
    /// name prefix is load-bearing: the fuzz reducer keys failures by
    /// config name, so inline-leg failures minimize as `inline/<config>`
    /// pseudo-configs.
    pub fn inline_a() -> Self {
        Config {
            name: "inline/A".into(),
            target: Target::mips_like(),
            opts: AllocOptions::o2_shrink_wrap().with_inline(true),
        }
    }

    /// The "inline + IPRA" ablation leg: configuration C (`-O3` with
    /// shrink-wrap) plus the profile-guided inliner.
    pub fn inline_c() -> Self {
        Config {
            name: "inline/C".into(),
            target: Target::mips_like(),
            opts: AllocOptions::o3().with_inline(true),
        }
    }
}

/// The result of compiling and simulating one program under one config.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Configuration label.
    pub config: String,
    /// Dynamic counts from the simulator.
    pub stats: Stats,
    /// Program output (for cross-config equality checks).
    pub output: Vec<i64>,
    /// Compile/execution trace, when collected (see
    /// [`compile_and_run_traced`]); `None` otherwise, at zero cost.
    pub trace: Option<CompileTrace>,
}

impl Measurement {
    /// Scalar loads + stores (Table 1 column II's quantity).
    pub fn scalar_mem(&self) -> u64 {
        self.stats.scalar_mem()
    }

    /// Total cycles (Table 1 column I's quantity).
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Compiles `module` under `config` and simulates it with the convention
/// checker enabled.
///
/// # Errors
///
/// Returns the simulator trap, including convention violations (which would
/// indicate an allocator bug).
pub fn compile_and_run(module: &Module, config: &Config) -> Result<Measurement, SimTrap> {
    let compiled = compile_module(module, &config.target, &config.opts);
    run_compiled(&compiled, config)
}

/// Compiles without running (for inspection: assembly, reports).
pub fn compile_only(module: &Module, config: &Config) -> CompiledModule {
    compile_module(module, &config.target, &config.opts)
}

/// Profile-guided compilation (the paper's §8 future work): compile once,
/// run to collect per-block execution counts, then recompile with the
/// measured profile feeding the priority function and re-measure.
///
/// # Errors
///
/// Returns the simulator trap of either run.
pub fn profile_guided(module: &Module, config: &Config) -> Result<Measurement, SimTrap> {
    // Training run.
    let compiled = compile_module(module, &config.target, &config.opts);
    let sim_opts = SimOptions::for_target(&config.target.regs)
        .check_preservation(compiled.clobber_masks())
        .with_block_profile();
    let trained = ipra_sim::run(&compiled.mmodule, &config.target.regs, &sim_opts)?;
    let profile = trained.block_profile.expect("profile requested");

    // Feedback run.
    let compiled =
        compile_module_with_profile(module, &config.target, &config.opts, Some(&profile));
    let sim_opts =
        SimOptions::for_target(&config.target.regs).check_preservation(compiled.clobber_masks());
    let r = ipra_sim::run(&compiled.mmodule, &config.target.regs, &sim_opts)?;
    Ok(Measurement {
        config: format!("{}+profile", config.name),
        stats: r.stats,
        output: r.output,
        trace: None,
    })
}

/// Simulates an already compiled module.
///
/// # Errors
///
/// Returns the simulator trap.
pub fn run_compiled(compiled: &CompiledModule, config: &Config) -> Result<Measurement, SimTrap> {
    run_compiled_within(compiled, config, None)
}

/// Like [`run_compiled`], but within `fuel` cycles when given instead of
/// the simulator's default budget.
pub(crate) fn run_compiled_within(
    compiled: &CompiledModule,
    config: &Config,
    fuel: Option<u64>,
) -> Result<Measurement, SimTrap> {
    let mut sim_opts =
        SimOptions::for_target(&config.target.regs).check_preservation(compiled.clobber_masks());
    if let Some(fuel) = fuel {
        sim_opts.fuel = fuel;
    }
    let r = ipra_sim::run(&compiled.mmodule, &config.target.regs, &sim_opts)?;
    Ok(Measurement {
        config: config.name.clone(),
        stats: r.stats,
        output: r.output,
        trace: None,
    })
}

/// Like [`compile_and_run`], but with tracing enabled for the compilation:
/// the returned [`Measurement`] carries a [`CompileTrace`] with per-function
/// phase timings, iteration counters, allocation decisions and simulator
/// attribution. The stats and output are identical to the untraced path.
///
/// # Errors
///
/// Returns the simulator trap, like [`compile_and_run`].
pub fn compile_and_run_traced(module: &Module, config: &Config) -> Result<Measurement, SimTrap> {
    ipra_obs::enable();
    let compiled = compile_module(module, &config.target, &config.opts);
    let raw = ipra_obs::disable();
    let mut m = run_compiled(&compiled, config)?;
    m.trace = Some(CompileTrace::build(
        &config.name,
        &raw,
        &compiled,
        Some(&m.stats),
    ));
    Ok(m)
}

/// One row of the paper's Table 1 / Table 2 for a single workload: the
/// baseline plus percentage reductions per configuration.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Workload name.
    pub workload: String,
    /// Baseline cycles per call.
    pub cycles_per_call: f64,
    /// `(config, %cycles reduction, %scalar-memory reduction)` per column.
    pub columns: Vec<(String, f64, f64)>,
}

/// Measures a workload under a baseline and several configurations,
/// verifying that all outputs agree, and returns the paper-style row.
///
/// # Panics
///
/// Panics if any configuration traps or produces different output — both
/// indicate a compiler bug, not a measurement.
pub fn table_row(name: &str, module: &Module, base: &Config, configs: &[Config]) -> TableRow {
    let base_m = compile_and_run(module, base)
        .unwrap_or_else(|t| panic!("[{name}/{}] trapped: {t}", base.name));
    let mut columns = Vec::new();
    for c in configs {
        let m = compile_and_run(module, c)
            .unwrap_or_else(|t| panic!("[{name}/{}] trapped: {t}", c.name));
        assert_eq!(
            m.output, base_m.output,
            "[{name}/{}] output differs from baseline",
            c.name
        );
        columns.push((
            c.name.clone(),
            percent_reduction(base_m.cycles(), m.cycles()),
            percent_reduction(base_m.scalar_mem(), m.scalar_mem()),
        ));
    }
    TableRow {
        workload: name.to_string(),
        cycles_per_call: base_m.stats.cycles_per_call(),
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_module() -> Module {
        ipra_frontend::compile(
            r#"
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
            "#,
        )
        .unwrap()
    }

    #[test]
    fn all_named_configs_agree_on_output() {
        let m = demo_module();
        let base = compile_and_run(&m, &Config::o2_base()).unwrap();
        for c in [
            Config::no_alloc(),
            Config::a(),
            Config::b(),
            Config::c(),
            Config::d(),
            Config::e(),
        ] {
            let r = compile_and_run(&m, &c).unwrap();
            assert_eq!(r.output, base.output, "config {}", c.name);
        }
    }

    #[test]
    fn table_row_reports_reductions() {
        let m = demo_module();
        let row = table_row("demo", &m, &Config::o2_base(), &[Config::a(), Config::c()]);
        assert_eq!(row.columns.len(), 2);
        assert!(row.cycles_per_call > 0.0);
        let (_, _dc, dm) = &row.columns[1];
        assert!(
            *dm >= 0.0,
            "O3 must not add scalar traffic on this program, got {dm}"
        );
    }

    #[test]
    fn profile_guided_is_correct_and_never_worse_here() {
        let m = demo_module();
        let plain = compile_and_run(&m, &Config::c()).unwrap();
        let pg = profile_guided(&m, &Config::c()).unwrap();
        assert_eq!(pg.output, plain.output);
        assert!(
            pg.cycles() <= plain.cycles() + plain.cycles() / 10,
            "profile feedback should not noticeably regress: {} vs {}",
            pg.cycles(),
            plain.cycles()
        );
    }

    #[test]
    fn optimization_ladder_is_monotone_here() {
        // noalloc >> O2 >= O3 in scalar traffic on a call-intensive demo.
        let m = demo_module();
        let none = compile_and_run(&m, &Config::no_alloc()).unwrap();
        let o2 = compile_and_run(&m, &Config::o2_base()).unwrap();
        let o3 = compile_and_run(&m, &Config::c()).unwrap();
        assert!(o2.scalar_mem() < none.scalar_mem());
        assert!(o3.scalar_mem() <= o2.scalar_mem());
    }
}
