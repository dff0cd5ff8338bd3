//! `daemon-edit`: a closed loop of two client sessions over socketpairs
//! against one in-process compile `Service` (default `ServiceConfig`,
//! every request at `jobs: 1`). Each client waits for its reply before
//! sending the next request, as `mini-cc --remote` does. Client 0 sends a
//! `cache_dir` and client 1 does not, so warm `Pipeline` compiles are
//! measured with and without the on-disk cache. Each client's seeded
//! schedule is a shuffle of three kinds of request:
//!
//! - replays of unchanged corpus programs (memo and cache reads);
//! - single-function edits of corpus programs (cache writes, cutoffs);
//! - unique shaped programs, client 1 only (misses everywhere).
//!
//! The schedule is served in passes. Each pass starts a fresh `Service`
//! and a fresh cache directory, primes both with the corpus outside the
//! timed region, and then times the two clients, so every pass does the
//! same work and the unique programs miss in every pass.

use std::collections::HashSet;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ipra_bench::alloc_meter;
use ipra_core::CompiledModule;
use ipra_driver::service::{roundtrip, CompileRequest, RequestSource, Service, ServiceConfig};
use ipra_driver::{compile_only, run_compiled, Config};
use ipra_obs::frame::{read_frame, write_frame, FrameError};
use ipra_obs::json::Json;
use ipra_workloads::synth::{ShapeClass, XorShift64Star};

use crate::ledger::Ledger;
use crate::programs;
use crate::report::{mean, quantile, ratio, timed, us, EndToEnd, Quality, Report, Round};
use crate::stage::{self, Layers};

/// Replays and edits per client per pass (three per corpus program).
const PER_KIND: usize = 39;

/// Client 1 sends one unique program per this many replays. Client 0
/// sends none: a unique program writes a cache entry per function, and
/// the shared disk's latency, which swings from run to run, would then
/// set the pass time.
const FRESH_EVERY: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Replay,
    Edit,
    Fresh,
}

/// One distinct program the daemon serves, with its one-shot reference.
struct Source {
    name: String,
    text: String,
    kind: Kind,
    asm: String,
    /// `(name, transformed body hash)` of every function.
    functions: Vec<(String, u64)>,
    compiled: CompiledModule,
}

/// Set-up state: the distinct sources, their reference assembly, and each
/// client's request schedule.
pub struct Daemon {
    config: Config,
    /// This run's scratch directory; `cache_dir` lives inside it.
    root: PathBuf,
    cache_dir: PathBuf,
    sources: Vec<Source>,
    /// Priming requests: the cached client's corpus programs with the
    /// cache directory, every corpus program without it.
    prime: Vec<Json>,
    /// Per client: `(source index, request)` in send order.
    requests: [Vec<(usize, Json)>; 2],
}

/// Where every daemon run keeps its cache directories: inside the
/// working directory, removed when the run ends.
const TMP: &str = ".perfbench_tmp";

/// A scratch directory no other run, in this process or another, uses.
fn fresh_root() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(TMP).join(format!("{}-{n}", std::process::id()))
}

fn request(id: usize, text: &str, cache_dir: Option<&PathBuf>) -> Json {
    let mut r = CompileRequest::new(id as i64, RequestSource::Source(text.to_string()));
    r.jobs = 1;
    r.cache_dir = cache_dir.map(|d| d.display().to_string());
    r.to_json()
}

/// Parses and compiles sources once through a one-shot `compile_only`
/// for their reference assembly.
struct Sources<'a> {
    config: &'a Config,
    list: Vec<Source>,
}

impl Sources<'_> {
    fn add(&mut self, name: String, text: String, kind: Kind) -> Result<usize, String> {
        let module = ipra_frontend::compile(&text).map_err(|e| format!("{name}: {e}"))?;
        let prepared = stage::prepare(&module, &self.config.opts);
        let functions = prepared
            .module
            .funcs
            .iter()
            .map(|(id, f)| (f.name.clone(), prepared.hashes[id.index()]))
            .collect();
        let compiled = compile_only(&module, self.config);
        self.list.push(Source {
            asm: stage::render_asm(&compiled.mmodule, &self.config.target),
            name,
            text,
            kind,
            functions,
            compiled,
        });
        Ok(self.list.len() - 1)
    }
}

/// Admits `s` into the cached client's program set when none of its
/// functions matches one already admitted from another program. The
/// pipeline's decoded cache-entry memo is keyed by function names and
/// bodies, and replays an entry's machine code with the global and
/// function numbering of the module that stored it, so two programs
/// sharing a function (the corpus has eight copies of `rand`) would get
/// each other's code.
fn admit(taken: &mut HashSet<(String, u64)>, s: &Source) -> bool {
    if s.functions.iter().any(|f| taken.contains(f)) {
        return false;
    }
    taken.extend(s.functions.iter().cloned());
    true
}

/// Builds the seeded schedule and compiles every distinct source once
/// through a one-shot `compile_only` for the reference assembly.
///
/// # Errors
///
/// A source the front end rejects.
pub fn setup(seed: u64) -> Result<Daemon, String> {
    let mut config = Config::c();
    config.opts.jobs = 1;
    let root = fresh_root();
    let cache_dir = root.join("cache");
    let mut rng = XorShift64Star::new(seed ^ 0xDAE3_0ED1);
    let mut src = Sources {
        config: &config,
        list: Vec::new(),
    };
    let corpus = programs::corpus()
        .into_iter()
        .map(|(name, text)| src.add(name, text, Kind::Replay))
        .collect::<Result<Vec<usize>, String>>()?;
    let mut taken = HashSet::new();
    let cached: Vec<usize> = corpus
        .iter()
        .copied()
        .filter(|&i| admit(&mut taken, &src.list[i]))
        .collect();

    let mut schedule: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
    for (client, list) in schedule.iter_mut().enumerate() {
        let family = if client == 0 { &cached } else { &corpus };
        for k in 0..PER_KIND {
            let base = family[k % family.len()];
            let tag = (client * PER_KIND + k) as u64;
            let edited = programs::edit(&src.list[base].text, &mut rng, tag);
            let name = format!("{}+edit{tag}", src.list[base].name);
            list.push(base);
            list.push(src.add(name, edited, Kind::Edit)?);
            if client == 0 || k % FRESH_EVERY != 0 {
                continue;
            }
            let class = ShapeClass::ALL[k / FRESH_EVERY % ShapeClass::ALL.len()];
            let text = programs::bounded_shaped(&mut rng, class);
            list.push(src.add(format!("fresh/{class}/{tag}"), text, Kind::Fresh)?);
        }
        for i in (1..list.len()).rev() {
            list.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    let sources = src.list;
    let prime = cached
        .iter()
        .map(|&i| request(i, &sources[i].text, Some(&cache_dir)))
        .chain(corpus.iter().map(|&i| request(i, &sources[i].text, None)))
        .collect();
    let requests = [0, 1].map(|c: usize| {
        schedule[c]
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                (
                    s,
                    request(i, &sources[s].text, (c == 0).then_some(&cache_dir)),
                )
            })
            .collect()
    });
    Ok(Daemon {
        config,
        root,
        cache_dir,
        sources,
        prime,
        requests,
    })
}

impl Daemon {
    /// The resolved wave-scheduler worker count of every request.
    pub fn jobs(&self) -> usize {
        self.config.opts.effective_jobs()
    }
}

/// What one client saw in one pass.
#[derive(Default)]
struct ClientOut {
    /// `(source index, round trip us, dispatch us)` per request; dispatch
    /// is 0 in an untraced pass.
    samples: Vec<(usize, f64, f64)>,
    failures: Vec<String>,
    cache: [u64; 3],
    analysis: [u64; 2],
    replays: u64,
    warm_replays: u64,
    response_bytes: u64,
}

/// One pass over both clients' schedules.
#[derive(Default)]
struct PassOut {
    wall_s: f64,
    /// Host-speed scale measured right before the timed pass.
    scale: f64,
    peak_bytes: u64,
    clients: Vec<ClientOut>,
}

/// Serves one session like `Service::serve_session`, timing each
/// `Service::dispatch` call. Returns the dispatch times in order.
fn timed_session(service: &Service, stream: UnixStream) -> Result<Vec<f64>, FrameError> {
    let mut times = Vec::new();
    loop {
        let req = match read_frame(&mut &stream) {
            Ok(r) => r,
            Err(FrameError::Closed) => return Ok(times),
            Err(e) => return Err(e),
        };
        let ((resp, _), t) = timed(|| service.dispatch(&req));
        times.push(t);
        write_frame(&mut &stream, &resp).map_err(FrameError::Io)?;
    }
}

fn int(j: &Json, obj: &str, key: &str) -> u64 {
    j.get(obj)
        .and_then(|o| o.get(key))
        .and_then(Json::as_i64)
        .unwrap_or(0) as u64
}

/// Client `c`'s closed loop: send, wait for the reply, check it, repeat.
fn client(service: &Service, d: &Daemon, c: usize, tracing: bool) -> ClientOut {
    let mut out = ClientOut::default();
    let (mut stream, server) = match UnixStream::pair() {
        Ok(p) => p,
        Err(e) => {
            out.failures.push(format!("socketpair: {e}"));
            return out;
        }
    };
    let dispatch = std::thread::scope(|s| {
        let session = s.spawn(move || {
            if tracing {
                timed_session(service, server)
            } else {
                service.serve_session(&server, &server).map(|_| Vec::new())
            }
        });
        for (src, req) in &d.requests[c] {
            let t = Instant::now();
            let resp = roundtrip(&mut stream, req);
            let rt = us(t.elapsed());
            out.samples.push((*src, rt, 0.0));
            let source = &d.sources[*src];
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    out.failures
                        .push(format!("{}: transport: {e}", source.name));
                    break;
                }
            };
            let ok = resp.get("status").and_then(Json::as_str) == Some("ok")
                && resp.get("asm").and_then(Json::as_str) == Some(source.asm.as_str());
            if !ok {
                out.failures.push(format!(
                    "client {c}: {}: response differs from one-shot compile",
                    source.name
                ));
            }
            let cache = [
                int(&resp, "cache", "hits"),
                int(&resp, "cache", "misses"),
                int(&resp, "cache", "cutoffs"),
            ];
            let analysis = [
                int(&resp, "analysis", "hits"),
                int(&resp, "analysis", "misses"),
            ];
            for (total, v) in out.cache.iter_mut().zip(cache) {
                *total += v;
            }
            out.analysis[0] += analysis[0];
            out.analysis[1] += analysis[1];
            // The response's `warm` flag is not used: it reads the
            // analysis memo only, so a request fully served by the cache
            // reports cold. A replay is warm when nothing was recompiled:
            // no cache miss with a cache, no analysis miss without one.
            if source.kind == Kind::Replay {
                out.replays += 1;
                let recompiled = if c == 0 { cache[1] } else { analysis[1] };
                if recompiled == 0 {
                    out.warm_replays += 1;
                }
            }
            if tracing {
                out.response_bytes += resp.render().len() as u64;
            }
        }
        drop(stream);
        session.join().expect("session thread")
    });
    match dispatch {
        Ok(times) => {
            for (s, t) in out.samples.iter_mut().zip(times) {
                s.2 = t;
            }
        }
        Err(e) => out.failures.push(format!("client {c}: session: {e}")),
    }
    out
}

/// One pass: fresh service and cache directory, untimed priming, then
/// both clients' schedules concurrently.
fn pass(d: &Daemon, tracing: bool, rep: &mut Report) -> PassOut {
    let _ = std::fs::remove_dir_all(&d.cache_dir);
    if let Err(e) = std::fs::create_dir_all(&d.cache_dir) {
        rep.fail(format!("{}: {e}", d.cache_dir.display()));
    }
    let service = Service::new(ServiceConfig::default());
    let (mut stream, server) = UnixStream::pair().expect("socketpair");
    std::thread::scope(|s| {
        let session = s.spawn(|| service.serve_session(&server, &server));
        for req in &d.prime {
            let ok = roundtrip(&mut stream, req)
                .is_ok_and(|r| r.get("status").and_then(Json::as_str) == Some("ok"));
            rep.check(ok, || "priming request failed".into());
        }
        drop(stream);
        if let Err(e) = session.join().expect("priming session") {
            rep.fail(format!("priming session: {e}"));
        }
    });

    let scale = crate::host::scale();
    let t = Instant::now();
    let (clients, mem) = alloc_meter::measure(|| {
        std::thread::scope(|s| {
            let service = &service;
            let handles: Vec<_> = (0..2)
                .map(|c| s.spawn(move || client(service, d, c, tracing)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect::<Vec<_>>()
        })
    });
    let wall_s = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&d.cache_dir);
    for c in &clients {
        rep.attempted += c.samples.len() as u64;
        for f in &c.failures {
            rep.fail(f.clone());
        }
    }
    PassOut {
        wall_s,
        scale,
        peak_bytes: mem.peak_bytes,
        clients,
    }
}

/// Measures passes for `seconds`. With `trace`, traced passes alternate
/// with untraced ones and only the ledger is reported.
pub fn measure(d: &Daemon, setup_s: f64, seconds: f64, trace: bool, rep: &mut Report) {
    let mut plain: Vec<PassOut> = Vec::new();
    let mut traced: Vec<PassOut> = Vec::new();
    let start = Instant::now();
    while plain.is_empty()
        || (trace && traced.is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let tracing = trace && plain.len() > traced.len();
        let p = pass(d, tracing, rep);
        let cache = p.clients[0].cache;
        if let Some(first) = plain.first().or(traced.first()) {
            if first.clients[0].cache != cache {
                rep.fail(format!(
                    "cache hits/misses/cutoffs changed between passes: {:?} vs {cache:?}",
                    first.clients[0].cache
                ));
            }
        }
        if tracing {
            traced.push(p)
        } else {
            plain.push(p)
        }
    }
    let _ = std::fs::remove_dir_all(&d.root);
    let _ = std::fs::remove_dir(TMP);

    let all = || plain.iter().chain(&traced).flat_map(|p| &p.clients);
    let replays: u64 = all().map(|c| c.replays).sum();
    let warm: u64 = all().map(|c| c.warm_replays).sum();
    let warm_hit_ratio = ratio(warm as f64, replays as f64);
    rep.notes.push(format!(
        "warm_hit_ratio {warm_hit_ratio:.3} ({warm}/{replays} replays recompiled nothing)"
    ));

    if trace {
        ledger(d, &plain, &traced, warm_hit_ratio, rep).emit(rep);
        return;
    }
    let quality = quality(d, rep);
    let rounds = plain
        .iter()
        .map(|p| {
            let samples = p.clients.iter().flat_map(|c| c.samples.iter());
            let op_us: Vec<f64> = samples
                .clone()
                .filter(|s| d.sources[s.0].kind != Kind::Fresh)
                .map(|s| s.1 * p.scale)
                .collect();
            Round {
                wall_s: p.wall_s * p.scale,
                ops: samples.count(),
                op_us,
            }
        })
        .collect();
    let peaks: Vec<f64> = plain.iter().map(|p| p.peak_bytes as f64).collect();
    EndToEnd {
        setup_s,
        rounds,
        peak_bytes: quantile(&peaks, 0.5) as u64,
        quality,
    }
    .emit(rep);
}

/// Code-quality counts of the corpus programs the daemon served (the
/// same for every seed); each must also simulate without a trap.
fn quality(d: &Daemon, rep: &mut Report) -> Quality {
    let mut q = Quality::default();
    for s in d.sources.iter().filter(|s| s.kind == Kind::Replay) {
        q.code_insts += stage::code_insts(&s.compiled.mmodule);
        let run = run_compiled(&s.compiled, &d.config);
        if let Ok(m) = &run {
            q.add_run(m);
        }
        rep.check(run.is_ok(), || format!("{}: simulator trapped", s.name));
    }
    q
}

/// The traced passes' ledger. Every distinct source is replayed layer by
/// layer once and checked byte for byte against the daemon's assembly;
/// its front-end and assembly-rendering times are then charged to every
/// request for it. Compile-layer times are those of the unique programs,
/// the requests on which every layer runs.
fn ledger(
    d: &Daemon,
    plain: &[PassOut],
    traced: &[PassOut],
    warm_hit_ratio: f64,
    rep: &mut Report,
) -> Ledger {
    let mut fe = Vec::with_capacity(d.sources.len());
    let mut render = Vec::with_capacity(d.sources.len());
    let mut fresh = Layers::default();
    let mut fresh_layer_us = vec![0.0; d.sources.len()];
    for (i, s) in d.sources.iter().enumerate() {
        let mut l = Layers::default();
        let replay = stage::frontend(&s.text, &mut l)
            .map(|m| stage::compile(&m, &d.config.target, &d.config.opts, &mut l));
        let (asm, t) = match &replay {
            Ok(mm) => timed(|| stage::render_asm(mm, &d.config.target)),
            Err(_) => (String::new(), 0.0),
        };
        rep.check(asm == s.asm, || {
            format!("{}: staged replay differs", s.name)
        });
        fe.push(l.frontend_us);
        render.push(t);
        if s.kind == Kind::Fresh {
            stage::count_reports(&s.compiled, &mut l);
            fresh_layer_us[i] = l.compile_us();
            fresh.add(&l);
        }
    }

    let samples: Vec<(usize, f64, f64)> = traced
        .iter()
        .flat_map(|p| &p.clients)
        .flat_map(|c| c.samples.iter().copied())
        .collect();
    let over = |kind: Option<Kind>, f: &dyn Fn(usize, f64, f64) -> f64| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| kind.is_none_or(|k| d.sources[s.0].kind == k))
            .map(|&(src, rt, disp)| f(src, rt, disp))
            .collect();
        mean(&v)
    };
    let pipeline = |src: usize, _: f64, disp: f64| disp - fe[src] - render[src];
    let src_bytes: f64 = samples
        .iter()
        .map(|s| d.sources[s.0].text.len() as f64)
        .sum();
    let fe_total: f64 = samples.iter().map(|s| fe[s.0]).sum();

    let mut l = Ledger {
        jobs: d.jobs() as f64,
        ..Ledger::default()
    };
    l.set_compile_layers(&fresh, 1);
    l.frontend_us = over(None, &|src, _, _| fe[src]);
    l.frontend_src_kb_per_s = ratio(src_bytes / 1000.0, fe_total / 1e6);
    l.driver_unattributed_us = over(Some(Kind::Fresh), &|src, rt, disp| {
        pipeline(src, rt, disp) - fresh_layer_us[src]
    });
    let clients = || traced.iter().flat_map(|p| &p.clients);
    let cache = &traced[0].clients[0].cache;
    l.cache_hits = cache[0] as f64;
    l.cache_misses = cache[1] as f64;
    l.cache_cutoffs = cache[2] as f64;
    let hits: u64 = clients().map(|c| c.analysis[0]).sum();
    let misses: u64 = clients().map(|c| c.analysis[1]).sum();
    l.analysis_memo_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
    l.pipeline_warm_compile_us = over(Some(Kind::Replay), &pipeline);
    l.pipeline_cold_compile_us = over(Some(Kind::Fresh), &pipeline);
    l.service_dispatch_us = over(None, &|_, _, disp| disp);
    l.service_frame_us = over(None, &|_, rt, disp| rt - disp);
    l.service_asm_render_us = over(None, &|src, _, _| render[src]);
    let bytes: u64 = clients().map(|c| c.response_bytes).sum();
    l.service_response_kb = ratio(bytes as f64 / 1000.0, samples.len() as f64);
    l.service_warm_hit_ratio = warm_hit_ratio;
    let per_req = |ps: &[PassOut]| {
        let reqs: usize = ps
            .iter()
            .flat_map(|p| &p.clients)
            .map(|c| c.samples.len())
            .sum();
        ratio(ps.iter().map(|p| p.wall_s).sum::<f64>() * 1e6, reqs as f64)
    };
    l.trace_overhead_us = per_req(traced) - per_req(plain);
    l.trace_replays = d.sources.len() as f64;
    l
}
