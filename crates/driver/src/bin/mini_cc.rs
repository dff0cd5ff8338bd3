//! `mini-cc` — the command-line compiler driver.
//!
//! ```text
//! mini-cc [OPTIONS] <file.mini>
//!   -O0 | -O2 | -O3        optimization level (default -O3)
//!   --no-shrink-wrap       disable save/restore shrink-wrapping
//!   --limit <nc>,<ne>      restrict allocatable registers per class
//!   --target <name>        compile for a named target from the registry
//!                          (mips-like, table2-d, table2-e, embedded8,
//!                          searched) or an anonymous convention point
//!                          conv:POOL,CALLER,ARGS
//!   --emit ir|asm|summary  print IR, machine code, or per-function report
//!   --run                  simulate and print output + statistics
//!   --trace                print the compile/execution trace to stderr
//!   --trace-json <path>    write the trace as JSON to <path>
//!   --trace-chrome <path>  write a Chrome/Perfetto trace-event file to <path>
//!   --jobs <n>             wave-scheduler worker threads (0 = auto, 1 = serial)
//!   --cache-dir <dir>      incremental allocation cache directory
//!   --verify-mc            statically verify register contracts of the
//!                          lowered code (default on in debug builds)
//!   --no-verify-mc         skip the static verifier
//!   --profile-out <file>   run, then write per-block execution counts as JSON
//!   --profile-in <file>    recompile with a previously written profile
//!   --inline               run the profile-guided inliner before allocation
//!                          (ranks direct call sites by profile count ×
//!                          estimated save/restore penalty; pairs with
//!                          --profile-in, falls back to static ranking)
//!   --inline-budget <n>    instruction-growth budget for --inline
//!                          (default 48); the IPRA_INLINE env var can
//!                          force the pass on (1/on/true) or off
//!                          (0/off/false) regardless of the flag
//!   --workload <name>      compile a bundled benchmark instead of a file
//!   --remote <socket>      send the compile to a running mini-ccd instead
//!                          of compiling locally (same options, same output)
//!   --ping                 with --remote: check the daemon is alive
//!   --shutdown             with --remote: ask the daemon to shut down
//! ```
//!
//! With `--remote`, `--emit metrics` fetches the daemon's metrics
//! registry as JSON (readable by `trace-tool top`).

use std::process::ExitCode;

use ipra_core::config::{AllocMode, AllocOptions};
use ipra_driver::{profile_from_json, profile_to_json, run_compiled, CompileTrace, Config};
use ipra_machine::Target;

struct Args {
    opts: AllocOptions,
    target: Target,
    /// `--limit NC,NE` as given, for forwarding to a remote daemon.
    limit: Option<(usize, usize)>,
    /// `--target NAME` as given, for forwarding to a remote daemon.
    target_name: Option<String>,
    emit: Option<String>,
    run: bool,
    trace: bool,
    trace_json: Option<String>,
    trace_chrome: Option<String>,
    profile_out: Option<String>,
    profile_in: Option<String>,
    verify_mc: bool,
    remote: Option<String>,
    ping: bool,
    shutdown: bool,
    input: Option<Input>,
}

enum Input {
    File(String),
    Workload(String),
}

fn usage() -> &'static str {
    "usage: mini-cc [-O0|-O2|-O3] [--no-shrink-wrap] [--limit NC,NE] \
     [--target NAME|conv:P,C,A] \
     [--emit ir|asm|summary] [--run] [--trace] [--trace-json PATH] \
     [--trace-chrome PATH] [--jobs N] [--cache-dir DIR] [--profile-out PATH] [--profile-in PATH] \
     [--inline] [--inline-budget N] \
     [--verify-mc | --no-verify-mc] [--remote SOCKET [--ping | --shutdown]] \
     (<file.mini> | --workload <name>)"
}

fn parse_args_from(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut opts = AllocOptions::o3();
    let mut target = Target::mips_like();
    let mut emit = None;
    let mut run = false;
    let mut trace = false;
    let mut trace_json = None;
    let mut trace_chrome = None;
    let mut profile_out = None;
    let mut profile_in = None;
    // The static verifier is cheap relative to a compile, so debug builds
    // run it by default; release builds opt in with --verify-mc.
    let mut verify_mc = cfg!(debug_assertions);
    let mut remote = None;
    let mut ping = false;
    let mut shutdown = false;
    let mut limit = None;
    let mut target_name = None;
    let mut input = None;
    // `-O2`/`-O3` replace the whole option set, so `--no-shrink-wrap`,
    // `--jobs` and `--cache-dir` are remembered separately and applied
    // after the flag loop — otherwise `--no-shrink-wrap -O3` would
    // silently re-enable shrink-wrapping (and likewise reset the job
    // count or drop the cache directory).
    let mut no_shrink_wrap = false;
    let mut jobs = None;
    let mut cache_dir = None;
    let mut inline = false;
    let mut inline_budget = None;

    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "-O0" => opts = AllocOptions::no_alloc(),
            "-O2" => opts = AllocOptions::o2_shrink_wrap(),
            "-O3" => opts = AllocOptions::o3(),
            "--no-shrink-wrap" => no_shrink_wrap = true,
            "--limit" => {
                let v = args.next().ok_or("--limit needs NC,NE")?;
                let (nc, ne) = v.split_once(',').ok_or("--limit needs NC,NE")?;
                let nc: usize = nc.trim().parse().map_err(|_| "bad NC")?;
                let ne: usize = ne.trim().parse().map_err(|_| "bad NE")?;
                if nc > 11 || ne > 9 {
                    return Err("--limit is at most 11,9 for the mips family".into());
                }
                target = Target::with_class_limits(nc, ne);
                limit = Some((nc, ne));
            }
            "--target" => {
                let v = args.next().ok_or("--target needs a name")?;
                target = Target::parse(&v)?;
                target_name = Some(v);
            }
            "--emit" => emit = Some(args.next().ok_or("--emit needs a kind")?),
            "--run" => run = true,
            "--trace" => trace = true,
            "--trace-json" => trace_json = Some(args.next().ok_or("--trace-json needs a path")?),
            "--trace-chrome" => {
                trace_chrome = Some(args.next().ok_or("--trace-chrome needs a path")?)
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs needs a count")?;
                jobs = Some(v.trim().parse::<usize>().map_err(|_| "bad --jobs count")?);
            }
            "--cache-dir" => cache_dir = Some(args.next().ok_or("--cache-dir needs a directory")?),
            "--verify-mc" => verify_mc = true,
            "--no-verify-mc" => verify_mc = false,
            "--profile-out" => profile_out = Some(args.next().ok_or("--profile-out needs a path")?),
            "--profile-in" => profile_in = Some(args.next().ok_or("--profile-in needs a path")?),
            "--inline" => inline = true,
            "--inline-budget" => {
                let v = args.next().ok_or("--inline-budget needs a count")?;
                inline_budget = Some(
                    v.trim()
                        .parse::<u32>()
                        .map_err(|_| "bad --inline-budget count")?,
                );
            }
            "--workload" => {
                input = Some(Input::Workload(
                    args.next().ok_or("--workload needs a name")?,
                ))
            }
            "--remote" => remote = Some(args.next().ok_or("--remote needs a socket path")?),
            "--ping" => ping = true,
            "--shutdown" => shutdown = true,
            "-h" | "--help" => return Err(usage().to_string()),
            other if !other.starts_with('-') => input = Some(Input::File(other.to_string())),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if no_shrink_wrap {
        opts.shrink_wrap = false;
    }
    if let Some(j) = jobs {
        opts.jobs = j;
    }
    if let Some(d) = cache_dir {
        opts.cache_dir = Some(std::path::PathBuf::from(d));
    }
    if inline {
        opts.inline = true;
    }
    if let Some(b) = inline_budget {
        opts.inline_budget = b;
    }
    if limit.is_some() && target_name.is_some() {
        return Err("--limit and --target are mutually exclusive".to_string());
    }
    if (ping || shutdown) && remote.is_none() {
        return Err("--ping/--shutdown require --remote".to_string());
    }
    // Daemon-management commands and `--emit metrics` need no input file;
    // everything else does.
    let daemon_cmd = remote.is_some() && (ping || shutdown || emit.as_deref() == Some("metrics"));
    if input.is_none() && !daemon_cmd {
        return Err(usage().to_string());
    }
    Ok(Args {
        opts,
        target,
        limit,
        target_name,
        emit,
        run,
        trace,
        trace_json,
        trace_chrome,
        profile_out,
        profile_in,
        verify_mc,
        remote,
        ping,
        shutdown,
        input,
    })
}

/// Client mode: forward the compile (or a management command) to a
/// running `mini-ccd` over its Unix socket. Options are forwarded field
/// for field, so the daemon's output is byte-identical to a local
/// compile under the same flags.
fn remote_main(socket: &str, args: &Args) -> Result<(), String> {
    use ipra_driver::service::{roundtrip, CompileRequest, RequestSource};
    use ipra_obs::json::Json;

    let mut stream =
        std::os::unix::net::UnixStream::connect(socket).map_err(|e| format!("{socket}: {e}"))?;
    let ask = |stream: &mut std::os::unix::net::UnixStream, req: &Json| {
        roundtrip(stream, req).map_err(|e| format!("{socket}: {e}"))
    };

    if args.shutdown {
        let resp = ask(
            &mut stream,
            &Json::obj(vec![("cmd", Json::Str("shutdown".into()))]),
        )?;
        if resp.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("shutdown refused: {}", resp.render()));
        }
        eprintln!("[mini-ccd] shutting down");
        return Ok(());
    }
    if args.ping {
        let resp = ask(
            &mut stream,
            &Json::obj(vec![("cmd", Json::Str("ping".into()))]),
        )?;
        if resp.get("pong") != Some(&Json::Bool(true)) {
            return Err(format!("unexpected ping response: {}", resp.render()));
        }
        println!("pong");
        return Ok(());
    }
    if args.emit.as_deref() == Some("metrics") {
        let resp = ask(
            &mut stream,
            &Json::obj(vec![("cmd", Json::Str("metrics".into()))]),
        )?;
        let m = resp
            .get("metrics")
            .ok_or_else(|| format!("no metrics in response: {}", resp.render()))?;
        println!("{}", m.render_pretty());
        return Ok(());
    }

    if args.profile_out.is_some() || args.profile_in.is_some() {
        return Err("profile feedback is not supported with --remote".to_string());
    }
    if args.trace || args.trace_chrome.is_some() {
        return Err(
            "with --remote, use --trace-json (the daemon returns the trace document)".to_string(),
        );
    }
    match args.emit.as_deref() {
        None | Some("asm") => {}
        Some(other) => return Err(format!("--emit {other} is not supported with --remote")),
    }

    // The client reads files itself and ships the source inline, so the
    // daemon never depends on the client's filesystem layout.
    let source = match args.input.as_ref().expect("validated in parse") {
        Input::File(path) => RequestSource::Source(
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        ),
        Input::Workload(name) => RequestSource::Workload(name.clone()),
    };
    let mut req = CompileRequest::new(1, source);
    req.opt = match args.opts.mode {
        AllocMode::NoAlloc => "O0".into(),
        AllocMode::Intra => "O2".into(),
        AllocMode::Inter => "O3".into(),
    };
    req.shrink_wrap = Some(args.opts.shrink_wrap);
    req.jobs = args.opts.jobs;
    req.limit = args.limit;
    req.target = args.target_name.clone();
    req.cache_dir = args
        .opts
        .cache_dir
        .as_ref()
        .map(|p| p.display().to_string());
    if args.opts.inline {
        req.inline = Some(true);
        req.inline_budget = Some(args.opts.inline_budget);
    }
    req.run = args.run || args.emit.is_none();
    req.trace = args.trace_json.is_some();

    let resp = ask(&mut stream, &req.to_json())?;
    match resp.get("status").and_then(Json::as_str) {
        Some("ok") => {}
        Some("busy") => {
            return Err(format!(
                "daemon busy: {}",
                resp.get("error").and_then(Json::as_str).unwrap_or("")
            ))
        }
        _ => {
            return Err(resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("malformed daemon response")
                .to_string())
        }
    }
    let cache = resp
        .get("cache")
        .filter(|c| c.get("enabled") == Some(&Json::Bool(true)));
    if let Some(c) = cache {
        eprintln!(
            "[cache] hits: {}  misses: {}  cutoffs: {}",
            c.get("hits").and_then(Json::as_i64).unwrap_or(0),
            c.get("misses").and_then(Json::as_i64).unwrap_or(0),
            c.get("cutoffs").and_then(Json::as_i64).unwrap_or(0)
        );
    }
    if resp.get("warm") == Some(&Json::Bool(true)) {
        let from = if cache.is_some() {
            "the cache"
        } else {
            "the daemon's analysis memo"
        };
        eprintln!("[remote] warm: replayed from {from}");
    }
    if args.emit.as_deref() == Some("asm") {
        if let Some(asm) = resp.get("asm").and_then(Json::as_str) {
            print!("{asm}");
        }
    }
    if let Some(out) = resp.get("output").and_then(Json::as_arr) {
        for v in out {
            if let Some(v) = v.as_i64() {
                println!("{v}");
            }
        }
    }
    if let Some(stats) = resp.get("stats") {
        let g = |k: &str| stats.get(k).and_then(Json::as_i64).unwrap_or(0);
        let calls = g("calls");
        let cpc = if calls > 0 {
            g("cycles") as f64 / calls as f64
        } else {
            0.0
        };
        eprintln!(
            "[{}] cycles: {}  insts: {}  calls: {}  loads: {}  stores: {}  scalar l/s: {}  cycles/call: {:.1}",
            resp.get("config").and_then(Json::as_str).unwrap_or("?"),
            g("cycles"),
            g("insts"),
            calls,
            g("loads"),
            g("stores"),
            g("scalar_mem"),
            cpc
        );
    }
    if let Some(path) = &args.trace_json {
        let trace = resp
            .get("trace")
            .ok_or("daemon response carries no trace document")?;
        std::fs::write(path, trace.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn real_main() -> Result<(), String> {
    let args = parse_args_from(std::env::args().skip(1))?;
    if let Some(socket) = args.remote.clone() {
        return remote_main(&socket, &args);
    }
    let source = match args.input.as_ref().ok_or_else(|| usage().to_string())? {
        Input::File(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        Input::Workload(name) => ipra_workloads::by_name(name)
            .ok_or_else(|| {
                let names: Vec<_> = ipra_workloads::all()
                    .iter()
                    .map(|w| w.name.to_string())
                    .collect();
                format!("unknown workload `{name}`; available: {}", names.join(", "))
            })?
            .source
            .to_string(),
    };

    let module = ipra_frontend::compile(&source).map_err(|e| format!("compile error: {e}"))?;
    let loaded_profile = match &args.profile_in {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = ipra_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Some(profile_from_json(&doc, &module).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let config = Config {
        name: match args.opts.mode {
            AllocMode::NoAlloc => "-O0".into(),
            AllocMode::Intra => "-O2".into(),
            AllocMode::Inter => "-O3".into(),
        },
        target: args.target,
        opts: args.opts,
    };

    // Compile once (with tracing when requested) and reuse the result for
    // every emit kind and the run.
    let tracing = args.trace || args.trace_json.is_some() || args.trace_chrome.is_some();
    if tracing {
        ipra_obs::enable();
    }
    let compiled = ipra_core::ipra::compile_module_with_profile(
        &module,
        &config.target,
        &config.opts,
        loaded_profile.as_deref(),
    );
    let raw_trace = if tracing {
        Some(ipra_obs::disable())
    } else {
        None
    };
    if compiled.cache.enabled {
        eprintln!(
            "[cache] hits: {}  misses: {}  cutoffs: {}",
            compiled.cache.hits, compiled.cache.misses, compiled.cache.cutoffs
        );
    }

    if args.verify_mc {
        let violations =
            ipra_verify::verify_module(&compiled.mmodule, &config.target.regs, &compiled.summaries);
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("verify-mc: {v}");
            }
            return Err(format!(
                "verify-mc: {} register-contract violation(s)",
                violations.len()
            ));
        }
    }

    match args.emit.as_deref() {
        Some("ir") => println!("{module}"),
        Some("asm") => {
            for (_, f) in compiled.mmodule.funcs.iter() {
                println!("{}", f.display_in(&config.target.regs, &compiled.mmodule));
            }
        }
        Some("summary") => {
            for (report, summary) in compiled.reports.iter().zip(&compiled.summaries) {
                println!(
                    "{:<16} open={:<5} used={:?} saved={:?} clobbers={:?} sw-iters={} \
                     vregs={} mem={} split={}",
                    report.name,
                    !report.open_reasons.is_empty() || report.forced_open,
                    report.used,
                    report.locally_saved,
                    summary.clobbers,
                    report.shrink_iterations,
                    report.candidate_vregs,
                    report.memory_vregs,
                    report.split_vregs,
                );
            }
            println!(
                "globals promoted: {} ({} accesses rewritten)",
                compiled.promotion.promoted, compiled.promotion.accesses_rewritten
            );
        }
        Some(other) => return Err(format!("unknown --emit kind `{other}`")),
        None => {}
    }

    let mut stats = None;
    // `--profile-out` implies a run: the profile is the run's block counts.
    if args.run || args.profile_out.is_some() || args.emit.is_none() {
        let (run_stats, output) = if let Some(path) = &args.profile_out {
            let sim_opts = ipra_sim::SimOptions::for_target(&config.target.regs)
                .check_preservation(compiled.clobber_masks.clone())
                .with_block_profile();
            let r = ipra_sim::run(&compiled.mmodule, &config.target.regs, &sim_opts)
                .map_err(|t| format!("runtime trap: {t}"))?;
            let profile = r.block_profile.expect("profile requested");
            std::fs::write(path, profile_to_json(&module, &profile).render_pretty())
                .map_err(|e| format!("{path}: {e}"))?;
            (r.stats, r.output)
        } else {
            let m = run_compiled(&compiled, &config).map_err(|t| format!("runtime trap: {t}"))?;
            (m.stats, m.output)
        };
        for v in &output {
            println!("{v}");
        }
        eprintln!(
            "[{}] cycles: {}  insts: {}  calls: {}  loads: {}  stores: {}  scalar l/s: {}  cycles/call: {:.1}",
            config.name,
            run_stats.cycles,
            run_stats.insts,
            run_stats.calls,
            run_stats.total_loads(),
            run_stats.total_stores(),
            run_stats.scalar_mem(),
            run_stats.cycles_per_call()
        );
        stats = Some(run_stats);
    }

    if let Some(raw) = raw_trace {
        // Chrome export works on the raw spans (it needs lanes and real
        // timestamps), the structured trace on the digested view.
        if let Some(path) = &args.trace_chrome {
            let doc = ipra_obs::chrome::export(&raw, &config.name);
            std::fs::write(path, doc.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
        }
        let trace = CompileTrace::build(&config.name, &raw, &compiled, stats.as_ref());
        if args.trace {
            eprint!("{}", trace.render_text());
        }
        if let Some(path) = &args.trace_json {
            std::fs::write(path, trace.to_json().render_pretty())
                .map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        parse_args_from(words.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn no_shrink_wrap_survives_later_opt_level() {
        // The footgun: `-O3` replaces the whole option set, which used to
        // silently re-enable shrink-wrapping requested off earlier.
        let a = parse(&["--no-shrink-wrap", "-O3", "x.mini"]);
        assert!(!a.opts.shrink_wrap);
        let b = parse(&["--no-shrink-wrap", "-O2", "x.mini"]);
        assert!(!b.opts.shrink_wrap);
        let c = parse(&["-O3", "--no-shrink-wrap", "x.mini"]);
        assert!(!c.opts.shrink_wrap);
    }

    #[test]
    fn shrink_wrap_on_by_default_at_o3() {
        let a = parse(&["-O3", "x.mini"]);
        assert!(a.opts.shrink_wrap);
    }

    #[test]
    fn jobs_flag_parses_and_survives_opt_level() {
        let a = parse(&["--jobs", "4", "-O3", "x.mini"]);
        assert_eq!(a.opts.jobs, 4);
        let b = parse(&["-O2", "--jobs", "1", "x.mini"]);
        assert_eq!(b.opts.jobs, 1);
        let c = parse(&["x.mini"]);
        assert_eq!(c.opts.jobs, 0, "default: auto");
    }

    #[test]
    fn cache_dir_flag_survives_opt_level() {
        let a = parse(&["--cache-dir", "/tmp/c", "-O3", "x.mini"]);
        assert_eq!(a.opts.cache_dir.as_deref(), Some("/tmp/c".as_ref()));
        let b = parse(&["-O2", "--cache-dir", "/tmp/c", "x.mini"]);
        assert_eq!(b.opts.cache_dir.as_deref(), Some("/tmp/c".as_ref()));
        let c = parse(&["x.mini"]);
        assert_eq!(c.opts.cache_dir, None, "default: no cache");
    }

    #[test]
    fn profile_flags_parse() {
        let a = parse(&["--profile-out", "p.json", "x.mini"]);
        assert_eq!(a.profile_out.as_deref(), Some("p.json"));
        assert!(a.profile_in.is_none());
        let b = parse(&["--profile-in", "p.json", "--run", "x.mini"]);
        assert_eq!(b.profile_in.as_deref(), Some("p.json"));
        assert!(b.run);
    }

    #[test]
    fn inline_flags_parse_and_survive_opt_level() {
        let a = parse(&["--inline", "-O3", "x.mini"]);
        assert!(a.opts.inline);
        assert_eq!(a.opts.inline_budget, ipra_core::DEFAULT_INLINE_BUDGET);
        let b = parse(&["-O2", "--inline", "--inline-budget", "96", "x.mini"]);
        assert!(b.opts.inline);
        assert_eq!(b.opts.inline_budget, 96);
        // Budget order doesn't matter relative to the opt level either.
        let c = parse(&["--inline-budget", "7", "--inline", "-O3", "x.mini"]);
        assert_eq!(c.opts.inline_budget, 7);
        let d = parse(&["x.mini"]);
        assert!(!d.opts.inline, "default: inliner off");
        assert!(parse_args_from(
            ["--inline-budget", "many", "x.mini"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }

    #[test]
    fn verify_mc_flags_parse() {
        let a = parse(&["--verify-mc", "x.mini"]);
        assert!(a.verify_mc);
        let b = parse(&["--no-verify-mc", "x.mini"]);
        assert!(!b.verify_mc);
        // Last flag wins, in either order.
        let c = parse(&["--verify-mc", "--no-verify-mc", "x.mini"]);
        assert!(!c.verify_mc);
        let d = parse(&["--no-verify-mc", "--verify-mc", "x.mini"]);
        assert!(d.verify_mc);
        // Default tracks the build profile.
        let e = parse(&["x.mini"]);
        assert_eq!(e.verify_mc, cfg!(debug_assertions));
    }

    #[test]
    fn remote_flags_parse() {
        let a = parse(&["--remote", "/tmp/ccd.sock", "x.mini"]);
        assert_eq!(a.remote.as_deref(), Some("/tmp/ccd.sock"));
        assert!(!a.ping && !a.shutdown);
        // Management commands need no input file.
        let b = parse(&["--remote", "/tmp/ccd.sock", "--shutdown"]);
        assert!(b.shutdown && b.input.is_none());
        let c = parse(&["--remote", "/tmp/ccd.sock", "--ping"]);
        assert!(c.ping);
        let d = parse(&["--remote", "/tmp/ccd.sock", "--emit", "metrics"]);
        assert_eq!(d.emit.as_deref(), Some("metrics"));
        // But a remote compile still does, and --ping alone is invalid.
        assert!(
            parse_args_from(["--remote", "/tmp/ccd.sock"].iter().map(|s| s.to_string())).is_err()
        );
        assert!(parse_args_from(["--ping"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn limit_is_remembered_for_forwarding() {
        let a = parse(&["--limit", "7,0", "x.mini"]);
        assert_eq!(a.limit, Some((7, 0)));
        assert_eq!(parse(&["x.mini"]).limit, None);
    }

    #[test]
    fn target_flag_parses_names_and_conv_triples() {
        let a = parse(&["--target", "embedded8", "x.mini"]);
        assert_eq!(a.target_name.as_deref(), Some("embedded8"));
        assert_eq!(a.target.regs.allocatable().len(), 8);
        let b = parse(&["--target", "conv:8,6,2", "x.mini"]);
        assert_eq!(
            b.target.regs.fingerprint(),
            a.target.regs.fingerprint(),
            "conv:8,6,2 is embedded8's spec"
        );
        // The target survives a later opt-level flag.
        let c = parse(&["--target", "searched", "-O2", "x.mini"]);
        assert_eq!(
            c.target.regs.fingerprint(),
            ipra_machine::Target::by_name("searched")
                .unwrap()
                .regs
                .fingerprint()
        );
        assert_eq!(parse(&["x.mini"]).target_name, None);
    }

    #[test]
    fn target_flag_rejects_bad_values_and_limit_combos() {
        let err = |words: &[&str]| {
            parse_args_from(words.iter().map(|s| s.to_string()))
                .err()
                .unwrap()
        };
        assert!(err(&["--target", "nonesuch", "x.mini"]).contains("unknown target"));
        assert!(err(&["--target", "conv:4,9,1", "x.mini"]).contains("caller"));
        assert!(err(&["--target", "embedded8", "--limit", "7,0", "x.mini"])
            .contains("mutually exclusive"));
        assert!(
            err(&["--limit", "7,0", "--target", "embedded8", "x.mini"])
                .contains("mutually exclusive"),
            "order must not matter"
        );
        assert!(err(&["--limit", "12,0", "x.mini"]).contains("at most"));
    }

    #[test]
    fn trace_flags_parse() {
        let a = parse(&["--trace", "--trace-json", "t.json", "--run", "x.mini"]);
        assert!(a.trace && a.run);
        assert_eq!(a.trace_json.as_deref(), Some("t.json"));
        let b = parse(&["x.mini"]);
        assert!(!b.trace && b.trace_json.is_none() && b.trace_chrome.is_none());
        let c = parse(&["--trace-chrome", "c.json", "x.mini"]);
        assert_eq!(c.trace_chrome.as_deref(), Some("c.json"));
    }
}
