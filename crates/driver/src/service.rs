//! The compile service behind `mini-ccd` — a long-lived, concurrent,
//! cache-hot compilation daemon.
//!
//! One [`Service`] owns a shared [`Pipeline`] (analysis memo, scratch
//! pool, decoded-cache image, prepared-module memo) and serves any number
//! of client sessions concurrently, each on its own thread via
//! [`Service::serve_session`]. Sessions speak the length-prefixed JSON
//! protocol of [`ipra_obs::frame`]: every request is one frame, every
//! response is one frame, and a session processes its own requests in
//! order while other sessions proceed in parallel.
//!
//! # Admission control
//!
//! Compiles are the expensive part, so they pass through an admission
//! gate: at most `max_active` compiles run at once, at most `max_queue`
//! wait behind them, and anything beyond that is answered immediately
//! with a structured `busy` response instead of being buffered without
//! bound. Cheap commands (`ping`, `metrics`, `shutdown`) bypass the gate.
//! Each admitted compile's wave-scheduler job count is clamped to
//! `jobs_cap` so concurrent sessions cannot multiply threads.
//!
//! # Determinism
//!
//! A daemon compile must be byte-identical to a fresh `mini-cc` compile
//! of the same source under the same options — cold or warm, whatever
//! other sessions are doing. The shared pipeline guarantees this by
//! construction (its memos only short-circuit recomputation of values
//! that are pure functions of their keys) and the differential oracle's
//! service check enforces it on every fuzz seed.
//!
//! # Wire protocol
//!
//! Requests are JSON objects with a `cmd` field:
//!
//! ```json
//! {"cmd": "compile", "id": 1,
//!  "source": "fn main() { print(1); }",
//!  "options": {"opt": "O3", "shrink_wrap": true, "jobs": 0,
//!              "limit": [7, 0], "cache_dir": "/tmp/c",
//!              "inline": true, "inline_budget": 48},
//!  "run": true, "trace": false}
//! ```
//!
//! `source` may be replaced by `path` (read server-side) or `workload`
//! (a bundled benchmark name). Every `options` field is optional and
//! defaults to the `mini-cc` defaults (`-O3`, shrink-wrap on, auto
//! jobs, full register file, no cache, inliner off). Responses carry `id` back,
//! `status` (`ok` | `error` | `busy`), and on success the rendered
//! `asm`, a `warm` flag (the whole compile was answered from the cache
//! when a `cache_dir` is set, else from the analysis memo),
//! `cache`/`analysis` statistics, plus `output` and
//! `stats` when `run` was set and a `trace` document when `trace` was.
//! The other commands are `{"cmd": "ping"}`, `{"cmd": "metrics"}` and
//! `{"cmd": "shutdown"}`.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use ipra_core::config::{AllocMode, AllocOptions};
use ipra_core::Pipeline;
use ipra_machine::Target;
use ipra_obs::frame::{read_frame, read_frame_with_limit, write_frame, FrameError, MAX_FRAME_LEN};
use ipra_obs::json::Json;
use ipra_obs::metrics::Metrics;
use ipra_sim::Stats;

use crate::{run_compiled, CompileTrace, Config};

/// Tuning knobs of one [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Compiles allowed to run concurrently.
    pub max_active: usize,
    /// Compiles allowed to wait for a slot before `busy` is returned.
    pub max_queue: usize,
    /// Upper bound on any single compile's wave-scheduler jobs.
    pub jobs_cap: usize,
    /// Per-frame payload cap enforced before buffering.
    pub max_frame_len: u32,
    /// FIFO bound on the pipeline's prepared-module memo.
    pub prepared_cap: usize,
    /// FIFO bound on the pipeline's decoded-cache-entry memo.
    pub entries_cap: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_active: 4,
            max_queue: 64,
            jobs_cap: 4,
            max_frame_len: MAX_FRAME_LEN,
            prepared_cap: 256,
            entries_cap: 4096,
        }
    }
}

/// Counting gate in front of the compile path: `active` slots, a bounded
/// queue behind them, and an immediate `false` (→ `busy` response) once
/// the queue is full. Fairness comes from the condvar's wake order being
/// good enough here — a woken waiter re-checks and either takes the slot
/// or waits again.
#[derive(Debug)]
struct Admission {
    /// `(active, queued)`.
    state: Mutex<(usize, usize)>,
    cv: Condvar,
    max_active: usize,
    max_queue: usize,
}

impl Admission {
    fn new(max_active: usize, max_queue: usize) -> Admission {
        Admission {
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            max_active: max_active.max(1),
            max_queue,
        }
    }

    /// Blocks until a slot is free, or returns `false` when the queue is
    /// already full (the caller answers `busy`).
    fn acquire(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.0 < self.max_active {
            st.0 += 1;
            return true;
        }
        if st.1 >= self.max_queue {
            return false;
        }
        st.1 += 1;
        while st.0 >= self.max_active {
            st = self.cv.wait(st).unwrap();
        }
        st.1 -= 1;
        st.0 += 1;
        true
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 -= 1;
        self.cv.notify_one();
    }

    /// `(active, queued)` right now.
    fn depth(&self) -> (usize, usize) {
        *self.state.lock().unwrap()
    }
}

/// The compile daemon's state: shared pipeline, admission gate, metrics
/// registry and shutdown flag. `Service` is `Sync`; the daemon binary
/// wraps one in an `Arc` and hands a clone to each session thread.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    pipeline: Pipeline,
    admission: Admission,
    metrics: Mutex<Metrics>,
    shutdown: AtomicBool,
}

fn as_bool(j: &Json) -> Option<bool> {
    match j {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn error_response(id: &Json, msg: &str) -> Json {
    Json::obj(vec![
        ("id", id.clone()),
        ("status", Json::Str("error".into())),
        ("error", Json::Str(msg.to_string())),
    ])
}

fn stats_json(s: &Stats) -> Json {
    Json::obj(vec![
        ("cycles", Json::Int(s.cycles as i64)),
        ("insts", Json::Int(s.insts as i64)),
        ("calls", Json::Int(s.calls as i64)),
        ("loads", Json::Int(s.total_loads() as i64)),
        ("stores", Json::Int(s.total_stores() as i64)),
        ("scalar_mem", Json::Int(s.scalar_mem() as i64)),
    ])
}

impl Service {
    /// A service with the given knobs and a memo-bounded pipeline.
    pub fn new(config: ServiceConfig) -> Service {
        let admission = Admission::new(config.max_active, config.max_queue);
        let pipeline = Pipeline::with_memo_caps(config.prepared_cap, config.entries_cap);
        Service {
            config,
            pipeline,
            admission,
            metrics: Mutex::new(Metrics::default()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// A service with [`ServiceConfig::default`] knobs.
    pub fn with_defaults() -> Service {
        Service::new(ServiceConfig::default())
    }

    /// The shared pipeline (memo sizes, analysis stats).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// True once a `shutdown` command was accepted (or
    /// [`Service::request_shutdown`] was called). The accept loop polls
    /// this; in-flight sessions finish normally.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Marks the service as shutting down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    fn metric_counter(&self, name: &'static str, labels: &[(&str, &str)], v: u64) {
        self.metrics.lock().unwrap().add_counter(name, labels, v);
    }

    fn refresh_gauges(&self) {
        let (active, queued) = self.admission.depth();
        let (prepared, entries) = self.pipeline.memo_sizes();
        let mut m = self.metrics.lock().unwrap();
        m.set_gauge("service.active", &[], active as i64);
        m.set_gauge("service.queue_depth", &[], queued as i64);
        m.set_gauge("service.memo_prepared", &[], prepared as i64);
        m.set_gauge("service.memo_entries", &[], entries as i64);
    }

    /// A point-in-time copy of the daemon metrics, gauges refreshed.
    pub fn metrics_snapshot(&self) -> Metrics {
        self.refresh_gauges();
        self.metrics.lock().unwrap().clone()
    }

    /// Serves one client session to completion: reads request frames,
    /// writes response frames, returns the number of requests served.
    ///
    /// A clean close by the peer ends the session with `Ok`. Protocol
    /// violations that leave the stream framed (unparseable payload) are
    /// answered with a structured `error` response and the session
    /// continues; an oversized frame is answered and then the session
    /// closes (its payload was never read, so the stream cannot be
    /// resynchronized).
    ///
    /// # Errors
    ///
    /// A peer vanishing mid-frame or a transport error tears the session
    /// down with the underlying [`FrameError`]; the daemon logs it and
    /// other sessions are unaffected. This function never panics on
    /// malformed input.
    pub fn serve_session(&self, mut r: impl Read, mut w: impl Write) -> Result<u64, FrameError> {
        self.metric_counter("service.sessions", &[], 1);
        let mut served = 0u64;
        loop {
            let req = match read_frame_with_limit(&mut r, self.config.max_frame_len) {
                Ok(v) => v,
                Err(FrameError::Closed) => return Ok(served),
                Err(e @ FrameError::TooLarge { .. }) => {
                    self.metric_counter("service.protocol_errors", &[("kind", "too_large")], 1);
                    let _ = write_frame(&mut w, &error_response(&Json::Null, &e.to_string()));
                    return Ok(served);
                }
                Err(FrameError::Parse(msg)) => {
                    self.metric_counter("service.protocol_errors", &[("kind", "parse")], 1);
                    write_frame(
                        &mut w,
                        &error_response(&Json::Null, &format!("bad request: {msg}")),
                    )
                    .map_err(FrameError::Io)?;
                    continue;
                }
                Err(e) => {
                    let kind = match &e {
                        FrameError::Truncated => "truncated",
                        _ => "transport",
                    };
                    self.metric_counter("service.protocol_errors", &[("kind", kind)], 1);
                    return Err(e);
                }
            };
            let (resp, end_session) = self.dispatch(&req);
            served += 1;
            write_frame(&mut w, &resp).map_err(FrameError::Io)?;
            if end_session {
                return Ok(served);
            }
        }
    }

    /// Handles one request document; returns the response and whether the
    /// session should end (after a `shutdown`).
    pub fn dispatch(&self, req: &Json) -> (Json, bool) {
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let cmd = req
            .get("cmd")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let start = Instant::now();
        let (resp, end) = match cmd.as_str() {
            "ping" => (
                Json::obj(vec![
                    ("id", id.clone()),
                    ("status", Json::Str("ok".into())),
                    ("pong", Json::Bool(true)),
                ]),
                false,
            ),
            "metrics" => (
                Json::obj(vec![
                    ("id", id.clone()),
                    ("status", Json::Str("ok".into())),
                    ("metrics", self.metrics_snapshot().to_json()),
                ]),
                false,
            ),
            "shutdown" => {
                self.request_shutdown();
                (
                    Json::obj(vec![
                        ("id", id.clone()),
                        ("status", Json::Str("ok".into())),
                        ("shutting_down", Json::Bool(true)),
                    ]),
                    true,
                )
            }
            "compile" => (self.handle_compile(req, &id), false),
            other => (
                error_response(&id, &format!("unknown cmd `{other}`")),
                false,
            ),
        };
        let status = resp.get("status").and_then(Json::as_str).unwrap_or("error");
        let micros = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        {
            let mut m = self.metrics.lock().unwrap();
            m.add_counter("service.requests", &[("cmd", &cmd), ("status", status)], 1);
            m.observe("service.request_micros", &[("cmd", &cmd)], micros);
        }
        (resp, end)
    }

    fn handle_compile(&self, req: &Json, id: &Json) -> Json {
        let source = if let Some(s) = req.get("source").and_then(Json::as_str) {
            s.to_string()
        } else if let Some(p) = req.get("path").and_then(Json::as_str) {
            match std::fs::read_to_string(p) {
                Ok(s) => s,
                Err(e) => return error_response(id, &format!("{p}: {e}")),
            }
        } else if let Some(n) = req.get("workload").and_then(Json::as_str) {
            match ipra_workloads::by_name(n) {
                Some(w) => w.source.to_string(),
                None => return error_response(id, &format!("unknown workload `{n}`")),
            }
        } else {
            return error_response(id, "compile needs `source`, `path` or `workload`");
        };
        let (config, run, trace) = match self.request_config(req) {
            Ok(x) => x,
            Err(e) => return error_response(id, &e),
        };

        if !self.admission.acquire() {
            self.metric_counter("service.busy_rejections", &[], 1);
            return Json::obj(vec![
                ("id", id.clone()),
                ("status", Json::Str("busy".into())),
                (
                    "error",
                    Json::Str(format!(
                        "server at capacity ({} active, {} queued); retry later",
                        self.config.max_active, self.config.max_queue
                    )),
                ),
            ]);
        }
        self.refresh_gauges();
        let resp = self.compile_admitted(&source, &config, run, trace, id);
        self.admission.release();
        self.refresh_gauges();
        resp
    }

    /// Rebuilds the `mini-cc` configuration surface from the request's
    /// `options` object, with the daemon's jobs clamp applied.
    fn request_config(&self, req: &Json) -> Result<(Config, bool, bool), String> {
        let run = req.get("run").and_then(as_bool).unwrap_or(false);
        let trace = req.get("trace").and_then(as_bool).unwrap_or(false);
        let o = req.get("options");
        let field = |k: &str| o.and_then(|o| o.get(k));

        let level = field("opt").and_then(Json::as_str).unwrap_or("O3");
        let mut opts = match level {
            "O0" => AllocOptions::no_alloc(),
            "O2" => AllocOptions::o2_shrink_wrap(),
            "O3" => AllocOptions::o3(),
            other => return Err(format!("unknown opt level `{other}`")),
        };
        if let Some(b) = field("shrink_wrap").and_then(as_bool) {
            opts.shrink_wrap = b;
        }
        let requested = field("jobs").and_then(Json::as_i64).unwrap_or(0);
        if requested < 0 {
            return Err("jobs must be non-negative".into());
        }
        // Per-request clamp: auto (0) resolves to the cap, explicit
        // requests are honored up to it. Output is jobs-independent, so
        // the clamp is invisible to clients.
        opts.jobs = if requested == 0 {
            self.config.jobs_cap
        } else {
            (requested as usize).min(self.config.jobs_cap)
        };
        if let Some(d) = field("cache_dir").and_then(Json::as_str) {
            opts.cache_dir = Some(std::path::PathBuf::from(d));
        }
        if let Some(b) = field("inline").and_then(as_bool) {
            opts.inline = b;
        }
        match field("inline_budget") {
            None | Some(Json::Null) => {}
            Some(v) => match v.as_i64() {
                // Bounds-checked like `limit`: a malformed request must
                // never panic a session thread or smuggle in a budget the
                // CLI's u32 flag could not express.
                Some(b) if (0..=i64::from(u32::MAX)).contains(&b) => {
                    opts.inline_budget = b as u32;
                }
                _ => return Err("inline_budget must be a non-negative integer".into()),
            },
        }
        let named = match field("target") {
            None | Some(Json::Null) => None,
            Some(Json::Str(name)) => Some(Target::parse(name)?),
            Some(_) => return Err("target must be a string".into()),
        };
        let target = match field("limit") {
            None | Some(Json::Null) => named.unwrap_or_else(Target::mips_like),
            Some(_) if named.is_some() => {
                return Err("limit and target are mutually exclusive".into())
            }
            Some(Json::Arr(a)) if a.len() == 2 => {
                let nc = a[0].as_i64().filter(|v| *v >= 0);
                let ne = a[1].as_i64().filter(|v| *v >= 0);
                match (nc, ne) {
                    // Bounds-checked here rather than panicking inside
                    // `with_class_limits`: a malformed request must never
                    // take a session thread down.
                    (Some(nc), Some(ne)) if nc <= 11 && ne <= 9 => {
                        Target::with_class_limits(nc as usize, ne as usize)
                    }
                    (Some(_), Some(_)) => {
                        return Err("limit is at most [11, 9] for the mips family".into())
                    }
                    _ => return Err("limit must be [nc, ne] with non-negative counts".into()),
                }
            }
            Some(_) => return Err("limit must be [nc, ne]".into()),
        };
        let name = match opts.mode {
            AllocMode::NoAlloc => "-O0",
            AllocMode::Intra => "-O2",
            AllocMode::Inter => "-O3",
        };
        Ok((
            Config {
                name: name.into(),
                target,
                opts,
            },
            run,
            trace,
        ))
    }

    fn compile_admitted(
        &self,
        source: &str,
        config: &Config,
        run: bool,
        trace: bool,
        id: &Json,
    ) -> Json {
        let module = match ipra_frontend::compile(source) {
            Ok(m) => m,
            Err(e) => return error_response(id, &format!("compile error: {e}")),
        };
        if trace {
            ipra_obs::enable();
        }
        let compiled = self.pipeline.compile(&module, &config.target, &config.opts);
        let raw = if trace {
            Some(ipra_obs::disable())
        } else {
            None
        };

        let mut asm = String::new();
        for (_, f) in compiled.mmodule.funcs.iter() {
            asm.push_str(
                &f.display_in(&config.target.regs, &compiled.mmodule)
                    .to_string(),
            );
            asm.push('\n');
        }
        // "Warm" means nothing had to be recomputed from source: with a
        // cache directory, the cache answered every function; without
        // one, the analysis memo did.
        let warm = if compiled.cache.enabled {
            compiled.cache.misses == 0 && compiled.cache.hits > 0
        } else {
            compiled.analysis.misses == 0 && compiled.analysis.hits > 0
        };
        if warm {
            self.metric_counter("service.warm_hits", &[], 1);
        }

        let mut fields = vec![
            ("id", id.clone()),
            ("status", Json::Str("ok".into())),
            ("config", Json::Str(config.name.clone())),
            ("asm", Json::Str(asm)),
            ("warm", Json::Bool(warm)),
            (
                "cache",
                Json::obj(vec![
                    ("enabled", Json::Bool(compiled.cache.enabled)),
                    ("hits", Json::Int(compiled.cache.hits as i64)),
                    ("misses", Json::Int(compiled.cache.misses as i64)),
                    ("cutoffs", Json::Int(compiled.cache.cutoffs as i64)),
                ]),
            ),
            (
                "analysis",
                Json::obj(vec![
                    ("hits", Json::Int(compiled.analysis.hits as i64)),
                    ("misses", Json::Int(compiled.analysis.misses as i64)),
                ]),
            ),
        ];

        let mut stats = None;
        if run {
            match run_compiled(&compiled, config) {
                Ok(m) => {
                    fields.push((
                        "output",
                        Json::Arr(m.output.iter().map(|v| Json::Int(*v)).collect()),
                    ));
                    fields.push(("stats", stats_json(&m.stats)));
                    stats = Some(m.stats);
                }
                Err(t) => return error_response(id, &format!("runtime trap: {t}")),
            }
        }
        if let Some(raw) = raw {
            let t = CompileTrace::build(&config.name, &raw, &compiled, stats.as_ref());
            fields.push(("trace", t.to_json()));
        }
        Json::obj(fields)
    }
}

/// Where a [`CompileRequest`] takes its program text from.
#[derive(Clone, Debug)]
pub enum RequestSource {
    /// Inline Mini source.
    Source(String),
    /// A path the *server* reads.
    Path(String),
    /// A bundled benchmark name.
    Workload(String),
}

/// Client-side builder for `compile` requests, mirroring the `mini-cc`
/// option surface field for field so a remote compile is specified
/// exactly like a local one.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// Echoed back in the response.
    pub id: i64,
    /// Program text source.
    pub source: RequestSource,
    /// `"O0"` | `"O2"` | `"O3"`.
    pub opt: String,
    /// Override shrink-wrapping (default: the level's default).
    pub shrink_wrap: Option<bool>,
    /// Wave-scheduler jobs (0 = server default; clamped server-side).
    pub jobs: usize,
    /// Register class limits, as in `--limit NC,NE`.
    pub limit: Option<(usize, usize)>,
    /// Named target or `conv:POOL,CALLER,ARGS`, as in `--target NAME`.
    /// Mutually exclusive with `limit`.
    pub target: Option<String>,
    /// Server-side incremental-cache directory.
    pub cache_dir: Option<String>,
    /// Override the profile-guided inliner (default: the level's
    /// default, which is off), as in `--inline`.
    pub inline: Option<bool>,
    /// Inliner growth budget, as in `--inline-budget N`.
    pub inline_budget: Option<u32>,
    /// Simulate after compiling.
    pub run: bool,
    /// Return a `CompileTrace` document.
    pub trace: bool,
}

impl CompileRequest {
    /// A request with `mini-cc` defaults (`-O3`, no run, no trace).
    pub fn new(id: i64, source: RequestSource) -> CompileRequest {
        CompileRequest {
            id,
            source,
            opt: "O3".into(),
            shrink_wrap: None,
            jobs: 0,
            limit: None,
            target: None,
            cache_dir: None,
            inline: None,
            inline_budget: None,
            run: false,
            trace: false,
        }
    }

    /// The wire form [`Service::dispatch`] consumes.
    pub fn to_json(&self) -> Json {
        let (src_key, src_val) = match &self.source {
            RequestSource::Source(s) => ("source", s.clone()),
            RequestSource::Path(p) => ("path", p.clone()),
            RequestSource::Workload(w) => ("workload", w.clone()),
        };
        let mut options = vec![
            ("opt", Json::Str(self.opt.clone())),
            ("jobs", Json::Int(self.jobs as i64)),
        ];
        if let Some(b) = self.shrink_wrap {
            options.push(("shrink_wrap", Json::Bool(b)));
        }
        if let Some((nc, ne)) = self.limit {
            options.push((
                "limit",
                Json::Arr(vec![Json::Int(nc as i64), Json::Int(ne as i64)]),
            ));
        }
        if let Some(t) = &self.target {
            options.push(("target", Json::Str(t.clone())));
        }
        if let Some(d) = &self.cache_dir {
            options.push(("cache_dir", Json::Str(d.clone())));
        }
        if let Some(b) = self.inline {
            options.push(("inline", Json::Bool(b)));
        }
        if let Some(b) = self.inline_budget {
            options.push(("inline_budget", Json::Int(i64::from(b))));
        }
        Json::obj(vec![
            ("cmd", Json::Str("compile".into())),
            ("id", Json::Int(self.id)),
            (src_key, Json::Str(src_val)),
            ("options", Json::obj(options)),
            ("run", Json::Bool(self.run)),
            ("trace", Json::Bool(self.trace)),
        ])
    }
}

/// Client side of one exchange: writes `req` as a frame and reads the
/// response frame.
///
/// # Errors
///
/// Propagates framing and transport errors; [`FrameError::Closed`] means
/// the daemon hung up before answering.
pub fn roundtrip(stream: &mut (impl Read + Write), req: &Json) -> Result<Json, FrameError> {
    write_frame(stream, req).map_err(FrameError::Io)?;
    read_frame(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn serve(service: &Service, requests: &[Json]) -> Vec<Json> {
        let mut input = Vec::new();
        for r in requests {
            write_frame(&mut input, r).unwrap();
        }
        let mut output = Vec::new();
        service
            .serve_session(Cursor::new(input), &mut output)
            .unwrap();
        let mut c = Cursor::new(output);
        let mut responses = Vec::new();
        loop {
            match read_frame(&mut c) {
                Ok(v) => responses.push(v),
                Err(FrameError::Closed) => return responses,
                Err(e) => panic!("bad response stream: {e}"),
            }
        }
    }

    const DEMO: &str = "fn sq(x: int) -> int { return x * x; } fn main() { print(sq(9)); }";

    #[test]
    fn compile_request_round_trips_and_warms_up() {
        let service = Service::with_defaults();
        let mut req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
        req.run = true;
        let mut again = req.clone();
        again.id = 2;
        let responses = serve(&service, &[req.to_json(), again.to_json()]);
        assert_eq!(responses.len(), 2);
        let (cold, warmr) = (&responses[0], &responses[1]);
        assert_eq!(cold.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(cold.get("id").and_then(Json::as_i64), Some(1));
        assert_eq!(cold.get("warm"), Some(&Json::Bool(false)));
        assert_eq!(
            cold.get("output").and_then(Json::as_arr),
            Some(&[Json::Int(81)][..])
        );
        assert_eq!(warmr.get("warm"), Some(&Json::Bool(true)));
        // Bit-identical asm, cold and warm, and vs a one-shot compile.
        assert_eq!(cold.get("asm"), warmr.get("asm"));
        let module = ipra_frontend::compile(DEMO).unwrap();
        let config = Config::o3();
        let oneshot = ipra_core::compile_module(&module, &config.target, &config.opts);
        let mut want = String::new();
        for (_, f) in oneshot.mmodule.funcs.iter() {
            want.push_str(
                &f.display_in(&config.target.regs, &oneshot.mmodule)
                    .to_string(),
            );
            want.push('\n');
        }
        assert_eq!(cold.get("asm").and_then(Json::as_str), Some(want.as_str()));
    }

    #[test]
    fn ping_metrics_and_unknown_cmd() {
        let service = Service::with_defaults();
        let responses = serve(
            &service,
            &[
                Json::obj(vec![
                    ("cmd", Json::Str("ping".into())),
                    ("id", Json::Int(9)),
                ]),
                Json::obj(vec![("cmd", Json::Str("metrics".into()))]),
                Json::obj(vec![("cmd", Json::Str("frobnicate".into()))]),
            ],
        );
        assert_eq!(responses[0].get("pong"), Some(&Json::Bool(true)));
        assert_eq!(responses[0].get("id").and_then(Json::as_i64), Some(9));
        let m = responses[1].get("metrics").expect("metrics document");
        assert!(m.get("counters").and_then(Json::as_arr).is_some());
        assert_eq!(
            responses[2].get("status").and_then(Json::as_str),
            Some("error")
        );
    }

    #[test]
    fn shutdown_ends_the_session_and_sets_the_flag() {
        let service = Service::with_defaults();
        let responses = serve(
            &service,
            &[
                Json::obj(vec![("cmd", Json::Str("shutdown".into()))]),
                // Never reached: the session ends after the response.
                Json::obj(vec![("cmd", Json::Str("ping".into()))]),
            ],
        );
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].get("shutting_down"), Some(&Json::Bool(true)));
        assert!(service.shutdown_requested());
    }

    #[test]
    fn frontend_and_option_errors_are_structured() {
        let service = Service::with_defaults();
        let mut bad_src = CompileRequest::new(1, RequestSource::Source("fn fn fn".into()));
        bad_src.run = true;
        let mut bad_opt = CompileRequest::new(2, RequestSource::Source(DEMO.into()));
        bad_opt.opt = "O7".into();
        let no_input = Json::obj(vec![
            ("cmd", Json::Str("compile".into())),
            ("id", Json::Int(3)),
        ]);
        let bad_workload = {
            let r = CompileRequest::new(4, RequestSource::Workload("no-such".into()));
            r.to_json()
        };
        let responses = serve(
            &service,
            &[bad_src.to_json(), bad_opt.to_json(), no_input, bad_workload],
        );
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(
                r.get("status").and_then(Json::as_str),
                Some("error"),
                "request {i}: {r:?}"
            );
            assert_eq!(r.get("id").and_then(Json::as_i64), Some(i as i64 + 1));
        }
    }

    #[test]
    fn options_shape_matches_local_configs() {
        // --limit 7,0 at O3 is Config::d(); shrink_wrap=false at O3 is B.
        let service = Service::with_defaults();
        let mut req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
        req.limit = Some((7, 0));
        let resp = &serve(&service, &[req.to_json()])[0];
        let module = ipra_frontend::compile(DEMO).unwrap();
        let d = Config::d();
        let local = ipra_core::compile_module(&module, &d.target, &d.opts);
        let mut want = String::new();
        for (_, f) in local.mmodule.funcs.iter() {
            want.push_str(&f.display_in(&d.target.regs, &local.mmodule).to_string());
            want.push('\n');
        }
        assert_eq!(resp.get("asm").and_then(Json::as_str), Some(want.as_str()));
    }

    #[test]
    fn inline_options_match_local_config_and_are_bounds_checked() {
        // inline=true at O3 must match a local Config::inline_c() compile.
        let service = Service::with_defaults();
        let mut req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
        req.inline = Some(true);
        let resp = &serve(&service, &[req.to_json()])[0];
        let module = ipra_frontend::compile(DEMO).unwrap();
        let ic = Config::inline_c();
        let local = ipra_core::compile_module(&module, &ic.target, &ic.opts);
        let mut want = String::new();
        for (_, f) in local.mmodule.funcs.iter() {
            want.push_str(&f.display_in(&ic.target.regs, &local.mmodule).to_string());
            want.push('\n');
        }
        assert_eq!(resp.get("asm").and_then(Json::as_str), Some(want.as_str()));

        // Malformed budgets are structured errors, not panics.
        for bad in [Json::Int(-1), Json::Str("many".into())] {
            let req = Json::obj(vec![
                ("cmd", Json::Str("compile".into())),
                ("id", Json::Int(2)),
                ("source", Json::Str(DEMO.into())),
                (
                    "options",
                    Json::obj(vec![("inline", Json::Bool(true)), ("inline_budget", bad)]),
                ),
            ]);
            let (resp, _) = service.dispatch(&req);
            assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        }
    }

    #[test]
    fn busy_when_queue_is_zero_and_slot_taken() {
        let cfg = ServiceConfig {
            max_active: 1,
            max_queue: 0,
            ..ServiceConfig::default()
        };
        let service = Service::new(cfg);
        // Take the only slot by hand, then ask for a compile.
        assert!(service.admission.acquire());
        let req = CompileRequest::new(5, RequestSource::Source(DEMO.into()));
        let (resp, _) = service.dispatch(&req.to_json());
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("busy"));
        service.admission.release();
        let (resp, _) = service.dispatch(&req.to_json());
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let m = service.metrics_snapshot();
        assert_eq!(m.counter_sum("service.busy_rejections"), 1);
    }
}
