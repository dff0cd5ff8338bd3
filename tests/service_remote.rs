//! Golden round-trip test: a compile answered by the service must be
//! byte-identical to a local `compile_module` of the same source under
//! the same options — across the whole bundled workload corpus, cold
//! and warm, and under register-class limits. A real `mini-ccd` process
//! on a Unix socket must answer `mini-cc --remote` exactly as a local
//! `mini-cc` compiles, and shut down cleanly.

use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use ipra_driver::service::{roundtrip, CompileRequest, RequestSource, Service};
use ipra_driver::Config;
use ipra_obs::json::Json;

fn local_asm(source: &str, config: &Config) -> String {
    let module = ipra_frontend::compile(source).unwrap();
    ipra_core::compile_module(&module, &config.target, &config.opts)
        .mmodule
        .asm(&config.target.regs)
}

fn remote_asm(service: &Service, req: &CompileRequest) -> (String, bool) {
    let (mut client, server) = UnixStream::pair().unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(move || service.serve_session(&server, &server).unwrap());
        let resp = roundtrip(&mut client, &req.to_json()).unwrap();
        drop(client);
        srv.join().unwrap();
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("ok"),
            "remote compile failed: {resp:?}"
        );
        (
            resp.get("asm").and_then(Json::as_str).unwrap().to_string(),
            resp.get("warm") == Some(&Json::Bool(true)),
        )
    })
}

#[test]
fn remote_compiles_match_local_compiles_across_the_corpus() {
    let service = Service::with_defaults();
    for w in ipra_workloads::all() {
        let want = local_asm(w.source, &Config::o3());
        let req = CompileRequest::new(1, RequestSource::Workload(w.name.into()));
        let (cold, cold_warm) = remote_asm(&service, &req);
        assert_eq!(
            cold, want,
            "[{}] daemon vs local asm diverged (cold)",
            w.name
        );
        assert!(!cold_warm, "[{}] first compile cannot be warm", w.name);
        // Same request again: answered from the hot pipeline, still
        // byte-identical.
        let (warm, warm_warm) = remote_asm(&service, &req);
        assert_eq!(
            warm, want,
            "[{}] daemon vs local asm diverged (warm)",
            w.name
        );
        assert!(warm_warm, "[{}] repeat compile should be warm", w.name);
    }
}

/// Warm replay with the inliner on: repeating an `inline` request must
/// be answered entirely from the hot pipeline (warm-hit ratio 1.00
/// across the corpus) and stay byte-identical to a local
/// `Config::inline_c()` compile — the inliner's transform must be
/// memoized, not recomputed into a different module each time.
#[test]
fn inline_requests_stay_warm_on_replay_across_the_corpus() {
    let service = Service::with_defaults();
    let mut replays = 0u64;
    let mut warm_hits = 0u64;
    for w in ipra_workloads::all() {
        let want = local_asm(w.source, &Config::inline_c());
        let mut req = CompileRequest::new(1, RequestSource::Workload(w.name.into()));
        req.inline = true;
        let (cold, cold_warm) = remote_asm(&service, &req);
        assert_eq!(cold, want, "[{}] daemon vs local inline asm (cold)", w.name);
        assert!(
            !cold_warm,
            "[{}] first inline compile cannot be warm",
            w.name
        );
        let (warm, warm_warm) = remote_asm(&service, &req);
        assert_eq!(warm, want, "[{}] daemon vs local inline asm (warm)", w.name);
        replays += 1;
        warm_hits += u64::from(warm_warm);
    }
    assert_eq!(
        warm_hits, replays,
        "inline replays must keep the daemon's warm-hit ratio at 1.00"
    );
}

#[test]
fn remote_option_surface_matches_local_configs() {
    let service = Service::with_defaults();
    let w = ipra_workloads::by_name("stanford").unwrap();

    // -O2, class limits, and shrink-wrap off each change codegen; the
    // remote option surface must land on exactly the local config.
    let mut o2 = CompileRequest::new(1, RequestSource::Workload(w.name.into()));
    o2.opt = "O2".into();
    assert_eq!(
        remote_asm(&service, &o2).0,
        local_asm(w.source, &Config::a())
    );

    let mut d = CompileRequest::new(2, RequestSource::Workload(w.name.into()));
    d.limit = Some((7, 0));
    assert_eq!(
        remote_asm(&service, &d).0,
        local_asm(w.source, &Config::d())
    );

    let mut b = CompileRequest::new(3, RequestSource::Workload(w.name.into()));
    b.shrink_wrap = false;
    assert_eq!(
        remote_asm(&service, &b).0,
        local_asm(w.source, &Config::b())
    );

    let mut o0 = CompileRequest::new(4, RequestSource::Workload(w.name.into()));
    o0.opt = "O0".into();
    assert_eq!(
        remote_asm(&service, &o0).0,
        local_asm(w.source, &Config::no_alloc())
    );
}

#[test]
fn remote_run_reproduces_local_output_and_stats() {
    let service = Service::with_defaults();
    let w = ipra_workloads::by_name("calcc").unwrap();
    let module = ipra_frontend::compile(w.source).unwrap();
    let local = ipra_driver::compile_and_run(&module, &Config::o3()).unwrap();

    let mut req = CompileRequest::new(1, RequestSource::Workload(w.name.into()));
    req.run = true;
    let (mut client, server) = UnixStream::pair().unwrap();
    std::thread::scope(|s| {
        let srv = s.spawn(|| service.serve_session(&server, &server).unwrap());
        let resp = roundtrip(&mut client, &req.to_json()).unwrap();
        drop(client);
        srv.join().unwrap();
        let out: Vec<i64> = resp
            .get("output")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|v| v.as_i64().unwrap())
            .collect();
        assert_eq!(out, local.output, "simulated output diverged");
        let stats = resp.get("stats").unwrap();
        assert_eq!(
            stats.get("cycles").and_then(Json::as_i64),
            Some(local.stats.cycles as i64)
        );
        assert_eq!(
            stats.get("scalar_mem").and_then(Json::as_i64),
            Some(local.stats.scalar_mem() as i64)
        );
    });
}

#[test]
fn remote_trace_document_is_served() {
    let source = "fn f(x: int) -> int { return x + 1; } fn main() { print(f(1)); }";
    let service = Service::with_defaults();
    let mut req = CompileRequest::new(1, RequestSource::Source(source.into()));
    req.run = true;
    req.trace = true;
    let (mut client, server) = UnixStream::pair().unwrap();
    let resp = std::thread::scope(|s| {
        let srv = s.spawn(|| service.serve_session(&server, &server).unwrap());
        let resp = roundtrip(&mut client, &req.to_json()).unwrap();
        drop(client);
        srv.join().unwrap();
        resp
    });
    let trace = resp.get("trace").expect("trace requested");

    // It is the document `mini-cc --trace-json` writes: trace-tool loads
    // it, and it lists the functions a local compile lists.
    let served = ipra_driver::tracetool::load(trace).expect("trace-tool loads the served trace");
    let module = ipra_frontend::compile(source).unwrap();
    let local = ipra_driver::compile_and_run_traced(&module, &req.config().unwrap())
        .unwrap()
        .trace
        .unwrap();
    let names = |doc: &ipra_driver::tracetool::TraceDoc| -> Vec<String> {
        doc.funcs.iter().map(|f| f.name.clone()).collect()
    };
    let local = ipra_driver::tracetool::load(&local.to_json()).unwrap();
    assert_eq!(names(&served), names(&local), "served vs local functions");
    assert_eq!(names(&served), ["f", "main"]);

    // Every count lives in `metrics`, the schema the daemon's own
    // `metrics` document uses.
    fn counters_paths(j: &Json, path: &str, out: &mut Vec<String>) {
        match j {
            Json::Obj(members) => {
                for (k, v) in members {
                    let p = format!("{path}/{k}");
                    if k == "counters" {
                        out.push(p.clone());
                    }
                    counters_paths(v, &p, out);
                }
            }
            Json::Arr(items) => items.iter().for_each(|v| counters_paths(v, path, out)),
            _ => {}
        }
    }
    let mut paths = Vec::new();
    counters_paths(trace, "", &mut paths);
    assert_eq!(paths, ["/metrics/counters"], "`counters` outside `metrics`");
}

/// A `mini-ccd` child process serving a Unix socket. Dropping it kills the
/// daemon, so a failing test never leaves one running.
struct Daemon {
    child: Child,
    sock: PathBuf,
}

impl Daemon {
    /// Starts `mini-ccd --socket` with `env` set and waits until it
    /// accepts connections.
    fn start(tag: &str, env: &[(&str, &str)]) -> Daemon {
        let sock = std::env::temp_dir().join(format!("ipra-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        let child = Command::new(env!("CARGO_BIN_EXE_mini-ccd"))
            .arg("--socket")
            .arg(&sock)
            .envs(env.iter().copied())
            .stderr(Stdio::null())
            .spawn()
            .unwrap();
        let daemon = Daemon { child, sock };
        daemon.connect();
        daemon
    }

    /// Opens a session, retrying for up to 30 s while the daemon starts.
    fn connect(&self) -> UnixStream {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match UnixStream::connect(&self.sock) {
                Ok(s) => return s,
                Err(e) if Instant::now() > deadline => panic!("daemon is not listening: {e}"),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Waits up to 30 s for the daemon to exit after a shutdown request.
    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit after shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the built `mini-cc` and returns its stdout and stderr, failing
/// the test on a non-zero exit.
fn mini_cc(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mini-cc"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "mini-cc {args:?} failed: {stderr}");
    (String::from_utf8(out.stdout).unwrap(), stderr)
}

/// A real `mini-ccd`, driven by `mini-cc --remote`, answers like local
/// `mini-cc` compiles: two passes over the workload suite are
/// byte-identical to local asm, and only the second pass reports
/// `warm`; five option sets cross the wire on nim and stanford. The
/// daemon's metrics document renders with `trace-tool top`, and
/// `--shutdown` exits 0 and removes the socket.
#[test]
fn a_real_daemon_answers_mini_cc_remote_like_local_compiles() {
    let mut daemon = Daemon::start("remote", &[]);
    let sock = daemon.sock.to_str().unwrap().to_string();
    let remote = |args: &[&str]| mini_cc(&[&["--remote", sock.as_str()], args].concat());
    assert_eq!(remote(&["--ping"]).0, "pong\n");

    for pass in ["cold", "warm"] {
        for w in ipra_workloads::all() {
            let args = ["--workload", w.name, "--emit", "asm"];
            let (asm, stderr) = remote(&args);
            assert!(
                asm == mini_cc(&args).0,
                "[{}] remote vs local asm ({pass} pass)",
                w.name
            );
            assert_eq!(
                stderr.contains("warm"),
                pass == "warm",
                "[{}] {pass} pass: {stderr}",
                w.name
            );
        }
    }
    let option_sets: [&[&str]; 5] = [
        &["-O2", "--no-shrink-wrap"],
        &["--limit", "7,0"],
        &["--target", "embedded8"],
        &["--inline", "--inline-budget", "8"],
        &["-O0"],
    ];
    for opts in option_sets {
        for w in ["nim", "stanford"] {
            let args = [opts, &["--workload", w, "--emit", "asm"]].concat();
            assert!(
                remote(&args).0 == mini_cc(&args).0,
                "[{w}] remote vs local asm under {opts:?}"
            );
        }
    }

    let metrics = daemon.sock.with_extension("metrics.json");
    std::fs::write(&metrics, remote(&["--emit", "metrics"]).0).unwrap();
    let top = Command::new(env!("CARGO_BIN_EXE_trace-tool"))
        .arg("top")
        .arg(&metrics)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&metrics);
    let rendered = String::from_utf8_lossy(&top.stdout);
    assert!(top.status.success(), "trace-tool top: {top:?}");
    assert!(rendered.contains("service.warm_hits"), "{rendered}");

    remote(&["--shutdown"]);
    let status = daemon.wait_exit();
    assert!(status.success(), "daemon exit status {status}");
    assert!(
        !daemon.sock.exists(),
        "the socket file is removed on shutdown"
    );
}

/// The daemon holds a thread only for each live session. Finished
/// session threads used to be joined only at shutdown, so each one kept
/// its stack mapped: about 2 MB of address space per session, over 600 MB
/// for the 300 sessions below. `shutdown` still exits cleanly and removes
/// the socket.
#[cfg(target_os = "linux")]
#[test]
fn daemon_reaps_finished_sessions() {
    // One malloc arena: glibc gives a thread that starts while another is
    // still running a fresh 64 MB arena, which would show in VmSize next
    // to the thread stacks this test measures.
    let mut daemon = Daemon::start("reap", &[("MALLOC_ARENA_MAX", "1")]);
    let pid = daemon.child.id();
    let vm_size_kb = || -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmSize:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("VmSize line in /proc/<pid>/status")
    };
    let session = |cmd: &str| -> Json {
        let req = Json::obj(vec![("id", Json::Int(1)), ("cmd", Json::Str(cmd.into()))]);
        roundtrip(&mut daemon.connect(), &req).unwrap()
    };

    for _ in 0..20 {
        assert_eq!(session("ping").get("pong"), Some(&Json::Bool(true)));
    }
    let before = vm_size_kb();
    for _ in 0..300 {
        assert_eq!(session("ping").get("pong"), Some(&Json::Bool(true)));
    }
    let grown = vm_size_kb().saturating_sub(before);
    assert!(
        grown < 64 * 1024,
        "300 finished sessions grew the daemon's VmSize by {grown} kB"
    );

    let bye = session("shutdown");
    assert_eq!(bye.get("shutting_down"), Some(&Json::Bool(true)));
    let status = daemon.wait_exit();
    assert!(status.success(), "daemon exit status {status}");
    assert!(
        !daemon.sock.exists(),
        "the socket file is removed on shutdown"
    );
}

/// With a `cache_dir`, "warm" means the cache answered every function. A
/// request that misses an empty cache directory is cold even when the
/// shared component memo already holds every function compiled without
/// one, and a fresh daemon replaying a populated cache directory is warm
/// although its component memo starts empty.
#[test]
fn warm_flag_follows_the_cache_when_one_is_configured() {
    let dir = std::env::temp_dir().join(format!("ipra-remote-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = ipra_workloads::by_name("nim").unwrap();
    let want = local_asm(w.source, &Config::o3());
    let plain = CompileRequest::new(1, RequestSource::Workload(w.name.into()));
    let mut cached = plain.clone();
    cached.cache_dir = Some(dir.to_string_lossy().into_owned());

    let expect = |service: &Service, req: &CompileRequest, warm: bool, why: &str| {
        let (asm, got) = remote_asm(service, req);
        assert!(asm == want, "{why}: daemon vs local asm diverged");
        assert_eq!(got, warm, "{why}: warm flag");
    };

    let service = Service::with_defaults();
    expect(&service, &plain, false, "first compile");
    expect(&service, &plain, true, "component-memo replay");
    expect(&service, &cached, false, "every function missed the cache");

    let fresh = Service::with_defaults();
    expect(&fresh, &cached, true, "every function replayed from disk");
    expect(&fresh, &cached, true, "every function replayed from memory");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The argv spelling of a spec's options, as `mini-cc` takes them.
fn argv_of(s: &CompileRequest) -> Vec<String> {
    let mut argv = vec![format!("-{}", s.opt)];
    if !s.shrink_wrap {
        argv.push("--no-shrink-wrap".into());
    }
    if let Some((nc, ne)) = s.limit {
        argv.extend(["--limit".into(), format!("{nc},{ne}")]);
    }
    if let Some(t) = &s.target {
        argv.extend(["--target".into(), t.clone()]);
    }
    if let Some(d) = &s.cache_dir {
        argv.extend(["--cache-dir".into(), d.clone()]);
    }
    if s.inline {
        argv.push("--inline".into());
    }
    if let Some(b) = s.inline_budget {
        argv.extend(["--inline-budget".into(), b.to_string()]);
    }
    if s.run {
        argv.push("--run".into());
    }
    argv
}

/// Every combination of option values the spec can carry: level ×
/// shrink-wrap × (limit | target | neither) × inliner × budget × cache
/// directory, with `run` and the source kind alternating.
fn spec_grid(cache_dir: &str) -> Vec<CompileRequest> {
    let mut grid = Vec::new();
    for opt in ["O0", "O2", "O3"] {
        for shrink_wrap in [true, false] {
            for placement in 0..3 {
                for inline in [false, true] {
                    for inline_budget in [None, Some(8)] {
                        for cache in [None, Some(cache_dir.to_string())] {
                            let i = grid.len();
                            let source = match i % 3 {
                                0 => RequestSource::Workload("nim".into()),
                                1 => RequestSource::Path("prog.mini".into()),
                                _ => RequestSource::Source("fn main() { print(1); }".into()),
                            };
                            let mut s = CompileRequest::new(i as i64, source);
                            s.opt = opt.into();
                            s.shrink_wrap = shrink_wrap;
                            s.limit = (placement == 1).then_some((7, 0));
                            s.target = (placement == 2).then(|| "embedded8".to_string());
                            s.inline = inline;
                            s.inline_budget = inline_budget;
                            s.cache_dir = cache;
                            s.run = i % 2 == 1;
                            grid.push(s);
                        }
                    }
                }
            }
        }
    }
    grid
}

#[test]
fn compile_spec_round_trips_through_json_and_argv() {
    let grid = spec_grid("/tmp/ipra-spec-cache");
    assert_eq!(grid.len(), 3 * 2 * 3 * 2 * 2 * 2);
    for s in &grid {
        let wire = s.to_json();
        assert_eq!(
            CompileRequest::from_json(&wire).as_ref(),
            Ok(s),
            "JSON round trip of {}",
            wire.render()
        );
        let argv = argv_of(s);
        let mut parsed = CompileRequest::new(s.id, s.source.clone());
        let mut words = argv.iter().cloned();
        while let Some(w) = words.next() {
            assert_eq!(
                parsed.parse_flag(&w, &mut words),
                Ok(true),
                "{w} in {argv:?}"
            );
        }
        assert_eq!(&parsed, s, "argv round trip of {argv:?}");
        assert!(s.config().is_ok(), "every grid point is valid: {argv:?}");
    }
}

#[test]
fn daemon_compiles_match_local_spec_configs_across_the_grid() {
    let dir = std::env::temp_dir().join(format!("ipra-spec-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = ipra_workloads::by_name("stanford").unwrap();
    let service = Service::with_defaults();
    // Five points that between them take every value of every axis.
    let grid = spec_grid(&dir.to_string_lossy());
    for s in grid.iter().step_by(29) {
        let mut s = s.clone();
        s.source = RequestSource::Workload(w.name.into());
        s.run = false;
        let want = local_asm(w.source, &s.config().unwrap());
        assert_eq!(
            remote_asm(&service, &s).0,
            want,
            "daemon vs local asm for {}",
            s.to_json().render()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The compiler reads no environment: the `IPRA_INLINE` and `IPRA_CACHE`
/// variables that once switched the inliner and the cache on from inside
/// the library change nothing.
#[test]
fn the_core_ignores_the_environment() {
    let dir = std::env::temp_dir().join(format!("ipra-env-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |with_env: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mini-cc"));
        cmd.args(["--workload", "nim", "--emit", "asm"]);
        for v in ["IPRA_INLINE", "IPRA_CACHE", "IPRA_JOBS"] {
            cmd.env_remove(v);
        }
        if with_env {
            cmd.env("IPRA_INLINE", "1").env("IPRA_CACHE", &dir);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{out:?}");
        out
    };
    let plain = run(false);
    let with_env = run(true);
    assert!(!plain.stdout.is_empty());
    assert!(
        with_env.stdout == plain.stdout,
        "IPRA_INLINE/IPRA_CACHE changed the asm"
    );
    let stderr = String::from_utf8_lossy(&with_env.stderr);
    assert!(!stderr.contains("[cache]"), "a cache was used: {stderr}");
    let entries = std::fs::read_dir(&dir).unwrap().count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(entries, 0, "IPRA_CACHE's directory was written");
}
