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
//!   --jobs <n>             wave-scheduler worker threads (0 = auto);
//!                          waves too small to pay for a hand-off run on
//!                          the calling thread
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
//!                          (default 48)
//!   --workload <name>      compile a bundled benchmark instead of a file
//!   --remote <socket>      send the compile to a running mini-ccd instead
//!                          of compiling locally (same options, same output)
//!   --ping                 with --remote: check the daemon is alive
//!   --shutdown             with --remote: ask the daemon to shut down
//! ```
//!
//! The compile flags (level, shrink-wrap, limit, target, jobs, cache,
//! inliner, `--run`) are parsed into one
//! `ipra_driver::service::CompileRequest`, which the local compile and
//! `--remote` resolve the same way; flag order does not matter. With
//! `--remote`, `--emit metrics` fetches the daemon's metrics registry as
//! JSON (readable by `trace-tool top`).

use std::process::ExitCode;

use ipra_driver::service::{CompileRequest, RequestSource};
use ipra_driver::{profile_from_json, profile_to_json, run_compiled, CompileTrace, Config};

struct Args {
    /// The compile flags. Its `source` is a placeholder: the input is
    /// attached where the request is used.
    spec: CompileRequest,
    /// `spec` resolved, so a bad option fails before any work, local or
    /// remote.
    config: Config,
    emit: Option<String>,
    trace: bool,
    trace_json: Option<String>,
    trace_chrome: Option<String>,
    profile_out: Option<String>,
    profile_in: Option<String>,
    verify_mc: bool,
    remote: Option<String>,
    ping: bool,
    shutdown: bool,
    input: Option<RequestSource>,
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
    let mut spec = CompileRequest::new(1, RequestSource::Source(String::new()));
    let mut emit = None;
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
    let mut input = None;

    let mut args = args;
    while let Some(a) = args.next() {
        if spec.parse_flag(&a, &mut args)? {
            continue;
        }
        match a.as_str() {
            "--emit" => emit = Some(args.next().ok_or("--emit needs a kind")?),
            "--trace" => trace = true,
            "--trace-json" => trace_json = Some(args.next().ok_or("--trace-json needs a path")?),
            "--trace-chrome" => {
                trace_chrome = Some(args.next().ok_or("--trace-chrome needs a path")?)
            }
            "--verify-mc" => verify_mc = true,
            "--no-verify-mc" => verify_mc = false,
            "--profile-out" => profile_out = Some(args.next().ok_or("--profile-out needs a path")?),
            "--profile-in" => profile_in = Some(args.next().ok_or("--profile-in needs a path")?),
            "--workload" => {
                input = Some(RequestSource::Workload(
                    args.next().ok_or("--workload needs a name")?,
                ))
            }
            "--remote" => remote = Some(args.next().ok_or("--remote needs a socket path")?),
            "--ping" => ping = true,
            "--shutdown" => shutdown = true,
            "-h" | "--help" => return Err(usage().to_string()),
            other if !other.starts_with('-') => {
                input = Some(RequestSource::Path(other.to_string()))
            }
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    let config = spec.config()?;
    // Without `--emit` the program runs; `--profile-out` needs the run's
    // block counts.
    spec.run |= emit.is_none() || profile_out.is_some();
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
        spec,
        config,
        emit,
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
/// running `mini-ccd` over its Unix socket. The daemon resolves the same
/// compile spec the local path would, so its output is byte-identical to
/// a local compile under the same flags.
fn remote_main(socket: &str, args: &Args) -> Result<(), String> {
    use ipra_driver::service::roundtrip;
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
    let mut req = args.spec.clone();
    req.source = match args.input.clone().expect("validated in parse") {
        path @ RequestSource::Path(_) => RequestSource::Source(path.text()?),
        other => other,
    };
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
    let source = args
        .input
        .as_ref()
        .ok_or_else(|| usage().to_string())?
        .text()?;

    let module = ipra_frontend::compile(&source).map_err(|e| format!("compile error: {e}"))?;
    let loaded_profile = match &args.profile_in {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let doc = ipra_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Some(profile_from_json(&doc, &module).map_err(|e| format!("{path}: {e}"))?)
        }
        None => None,
    };
    let config = args.config;

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
        Some("asm") => print!("{}", compiled.mmodule.asm(&config.target.regs)),
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
    if args.spec.run {
        let (run_stats, output) = if let Some(path) = &args.profile_out {
            let sim_opts = ipra_sim::SimOptions::for_target(&config.target.regs)
                .check_preservation(compiled.clobber_masks())
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
        assert!(!a.config.opts.shrink_wrap);
        let b = parse(&["--no-shrink-wrap", "-O2", "x.mini"]);
        assert!(!b.config.opts.shrink_wrap);
        let c = parse(&["-O3", "--no-shrink-wrap", "x.mini"]);
        assert!(!c.config.opts.shrink_wrap);
    }

    #[test]
    fn shrink_wrap_on_by_default_at_o3() {
        let a = parse(&["-O3", "x.mini"]);
        assert!(a.config.opts.shrink_wrap);
    }

    #[test]
    fn jobs_flag_parses_and_survives_opt_level() {
        let a = parse(&["--jobs", "4", "-O3", "x.mini"]);
        assert_eq!(a.config.opts.jobs, 4);
        let b = parse(&["-O2", "--jobs", "1", "x.mini"]);
        assert_eq!(b.config.opts.jobs, 1);
        let c = parse(&["x.mini"]);
        assert_eq!(c.config.opts.jobs, 0, "default: auto");
    }

    #[test]
    fn cache_dir_flag_survives_opt_level() {
        let a = parse(&["--cache-dir", "/tmp/c", "-O3", "x.mini"]);
        assert_eq!(a.config.opts.cache_dir.as_deref(), Some("/tmp/c".as_ref()));
        let b = parse(&["-O2", "--cache-dir", "/tmp/c", "x.mini"]);
        assert_eq!(b.config.opts.cache_dir.as_deref(), Some("/tmp/c".as_ref()));
        let c = parse(&["x.mini"]);
        assert_eq!(c.config.opts.cache_dir, None, "default: no cache");
    }

    #[test]
    fn profile_flags_parse() {
        let a = parse(&["--profile-out", "p.json", "x.mini"]);
        assert_eq!(a.profile_out.as_deref(), Some("p.json"));
        assert!(a.profile_in.is_none());
        let b = parse(&["--profile-in", "p.json", "--run", "x.mini"]);
        assert_eq!(b.profile_in.as_deref(), Some("p.json"));
        assert!(b.spec.run);
    }

    #[test]
    fn inline_flags_parse_and_survive_opt_level() {
        let a = parse(&["--inline", "-O3", "x.mini"]);
        assert!(a.config.opts.inline);
        assert_eq!(
            a.config.opts.inline_budget,
            ipra_core::DEFAULT_INLINE_BUDGET
        );
        let b = parse(&["-O2", "--inline", "--inline-budget", "96", "x.mini"]);
        assert!(b.config.opts.inline);
        assert_eq!(b.config.opts.inline_budget, 96);
        // Budget order doesn't matter relative to the opt level either.
        let c = parse(&["--inline-budget", "7", "--inline", "-O3", "x.mini"]);
        assert_eq!(c.config.opts.inline_budget, 7);
        let d = parse(&["x.mini"]);
        assert!(!d.config.opts.inline, "default: inliner off");
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
        assert_eq!(a.spec.limit, Some((7, 0)));
        assert_eq!(parse(&["x.mini"]).spec.limit, None);
    }

    #[test]
    fn target_flag_parses_names_and_conv_triples() {
        let a = parse(&["--target", "embedded8", "x.mini"]);
        assert_eq!(a.spec.target.as_deref(), Some("embedded8"));
        assert_eq!(a.config.target.regs.allocatable().len(), 8);
        let b = parse(&["--target", "conv:8,6,2", "x.mini"]);
        assert_eq!(
            b.config.target.regs.fingerprint(),
            a.config.target.regs.fingerprint(),
            "conv:8,6,2 is embedded8's spec"
        );
        // The target survives a later opt-level flag.
        let c = parse(&["--target", "searched", "-O2", "x.mini"]);
        assert_eq!(
            c.config.target.regs.fingerprint(),
            ipra_machine::Target::by_name("searched")
                .unwrap()
                .regs
                .fingerprint()
        );
        assert_eq!(parse(&["x.mini"]).spec.target, None);
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
        assert!(a.trace && a.spec.run);
        assert_eq!(a.trace_json.as_deref(), Some("t.json"));
        let b = parse(&["x.mini"]);
        assert!(!b.trace && b.trace_json.is_none() && b.trace_chrome.is_none());
        let c = parse(&["--trace-chrome", "c.json", "x.mini"]);
        assert_eq!(c.trace_chrome.as_deref(), Some("c.json"));
    }
}
