//! The repository benchmark: three workloads that each load some layers
//! of the compiler heavily and bypass others, end-to-end metrics from an
//! untraced run, and a per-layer ledger from a separate traced run that
//! replays every compile stage by stage through the compiler's public
//! functions. See `perfbench/README.md` for the metric definitions and
//! which layer metric moves which end-to-end metric.

pub mod cold;
pub mod daemon;
pub mod host;
pub mod ledger;
pub mod programs;
pub mod report;
pub mod stage;
pub mod sweep;

use std::time::Instant;

use report::Report;

/// The workload names `--workload` accepts.
pub const WORKLOADS: [&str; 3] = ["table-sweep", "cold-compile", "daemon-edit"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Environment variables that silently override `AllocOptions` fields.
pub const OVERRIDES: [&str; 3] = ["IPRA_JOBS", "IPRA_CACHE", "IPRA_INLINE"];

/// Runs `setup` [`SETUP_REPS`] times and returns the last state with the
/// median set-up time in seconds, each scaled to nominal host speed with
/// a reference timed right before it.
fn repeat_setup<S>(setup: impl Fn() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let scale = host::scale();
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64() * scale);
    }
    times.sort_by(f64::total_cmp);
    Ok((state.expect("at least one set-up"), times[SETUP_REPS / 2]))
}

/// Runs one workload for `seconds` of measurement. Untraced runs report
/// the end-to-end metrics, traced runs the per-layer ledger.
///
/// # Errors
///
/// An unknown workload, a set `IPRA_*` override, or a failed set-up.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    if let Some(v) = OVERRIDES.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{v} is set; it would override the benchmark's options"
        ));
    }
    let mut rep = Report::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let note = |jobs: usize| format!("nproc {nproc}, compile workers {jobs}");
    match workload {
        "table-sweep" => {
            let (s, setup_s) = repeat_setup(|| sweep::setup(seed))?;
            rep.notes.push(note(s.jobs()));
            sweep::measure(&s, setup_s, seconds, trace, &mut rep);
        }
        "cold-compile" => {
            let (s, setup_s) = repeat_setup(|| cold::setup(seed))?;
            rep.notes.push(note(s.jobs()));
            cold::measure(&s, setup_s, seconds, trace, &mut rep);
        }
        "daemon-edit" => {
            let (s, setup_s) = repeat_setup(|| daemon::setup(seed))?;
            rep.notes.push(note(s.jobs()));
            daemon::measure(&s, setup_s, seconds, trace, &mut rep);
        }
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
    Ok(rep)
}
