//! The compile service behind `mini-ccd` — a long-lived, concurrent,
//! cache-hot compilation daemon.
//!
//! One [`Service`] owns a shared [`Pipeline`] (prepared-module memo,
//! component memo, scratch pool) and serves any number
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
//! Each admitted compile runs on its session's thread, so `max_active`
//! bounds the compile threads too.
//!
//! # Determinism
//!
//! A daemon compile must be byte-identical to a fresh `mini-cc` compile
//! of the same source under the same options — cold or warm, whatever
//! other sessions are doing. The shared pipeline guarantees this by
//! construction (its memos only short-circuit recomputation of values
//! that are pure functions of their keys) and the differential oracle's
//! service check enforces it on every fuzz seed. Every request compiles
//! through [`Pipeline::compile_source`], so a text the pipeline prepared
//! before under the same options skips the front end.
//!
//! # Wire protocol
//!
//! Requests are JSON objects with a `cmd` field:
//!
//! ```json
//! {"cmd": "compile", "id": 1,
//!  "source": "fn main() { print(1); }",
//!  "options": {"opt": "O3", "shrink_wrap": false,
//!              "limit": [7, 0], "cache_dir": "/tmp/c",
//!              "inline": true, "inline_budget": 48},
//!  "run": true, "trace": false}
//! ```
//!
//! `source` may be replaced by `path` (read server-side) or `workload`
//! (a bundled benchmark name); exactly one of the three is required.
//! Every `options` field is optional and defaults to the `mini-cc`
//! defaults (`-O3`, shrink-wrap on, full register file, no cache,
//! inliner off); `jobs`, a count, is accepted and ignored. The request is
//! the wire form of
//! [`CompileRequest`], the one compile spec `mini-cc` also uses.
//! Decoding is strict: a field of the wrong type (`"opt": 2`,
//! `"run": "yes"`), an unknown top-level field or an unknown `options`
//! key (`"limt"`) is answered with a structured `error` naming the field;
//! only `null` counts as absent. `"shrink_wrap": false` turns
//! shrink-wrapping off; `true` keeps the level's setting. Responses carry
//! `id` back as sent (any JSON value),
//! `status` (`ok` | `error` | `busy`), and on success the rendered
//! `asm`, a `warm` flag (the compile allocated no function and replayed
//! at least one, from the component memo or the `cache_dir`),
//! `cache`/`analysis` statistics, plus `output` and
//! `stats` when `run` was set and a `trace` document when `trace` was.
//! A run gets a budget of 10⁸ cycles; a program that exhausts it is
//! answered with an `error` ("runtime trap: cycle budget exhausted") and
//! counted in the `service.out_of_fuel` metric.
//! The other commands are `{"cmd": "ping"}`, `{"cmd": "metrics"}` and
//! `{"cmd": "shutdown"}`.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

use ipra_core::config::AllocOptions;
use ipra_core::Pipeline;
use ipra_machine::Target;
use ipra_obs::frame::{read_frame, read_frame_with_limit, write_frame, FrameError, MAX_FRAME_LEN};
use ipra_obs::json::Json;
use ipra_obs::metrics::Metrics;
use ipra_sim::{SimTrap, Stats};

use crate::{run_compiled_within, CompileTrace, Config};

/// Tuning knobs of one [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Compiles allowed to run concurrently.
    pub max_active: usize,
    /// Compiles allowed to wait for a slot before `busy` is returned.
    pub max_queue: usize,
    /// Per-frame payload cap enforced before buffering.
    pub max_frame_len: u32,
}

/// FIFO bound on the shared pipeline's prepared-module memo.
const PREPARED_CAP: usize = 256;

/// FIFO bound on the shared pipeline's component memo.
const ENTRIES_CAP: usize = 4096;

/// Cycle budget of a `run: true` request's simulation, about 6.4 times
/// the largest corpus run (`map` under `base`, 15,517,100 cycles). A
/// program that runs longer, an infinite loop say, gets an `error`
/// response and frees its admission slot.
const RUN_FUEL: u64 = 100_000_000;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_active: 4,
            max_queue: 64,
            max_frame_len: MAX_FRAME_LEN,
        }
    }
}

/// Counting gate in front of the compile path: `active` slots, a bounded
/// queue behind them, and an immediate `None` (→ `busy` response) once
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

    /// Blocks until a slot is free, or returns `None` when the queue is
    /// already full (the caller answers `busy`). The slot is released
    /// when the returned guard drops, also while unwinding from a panic.
    fn acquire(&self) -> Option<Slot<'_>> {
        let mut st = self.state.lock().unwrap();
        if st.0 < self.max_active {
            st.0 += 1;
            return Some(Slot(self));
        }
        if st.1 >= self.max_queue {
            return None;
        }
        st.1 += 1;
        while st.0 >= self.max_active {
            st = self.cv.wait(st).unwrap();
        }
        st.1 -= 1;
        st.0 += 1;
        Some(Slot(self))
    }

    /// `(active, queued)` right now.
    fn depth(&self) -> (usize, usize) {
        *self.state.lock().unwrap()
    }
}

/// One admitted compile's slot; dropping it frees the slot.
struct Slot<'a>(&'a Admission);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // Each update of the counts is a single step, so a poisoned lock
        // still guards valid counts; a panic here would abort an unwind.
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.0 -= 1;
        self.0.cv.notify_one();
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
        let pipeline = Pipeline::with_memo_caps(PREPARED_CAP, ENTRIES_CAP);
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

    /// The shared pipeline (memo sizes).
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

    fn count(&self, name: &'static str, labels: &[(&str, &str)], v: u64) {
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
        self.count("service.sessions", &[], 1);
        let mut served = 0u64;
        loop {
            let req = match read_frame_with_limit(&mut r, self.config.max_frame_len) {
                Ok(v) => v,
                Err(FrameError::Closed) => return Ok(served),
                Err(e @ FrameError::TooLarge { .. }) => {
                    self.count("service.protocol_errors", &[("kind", "too_large")], 1);
                    let _ = write_frame(&mut w, &error_response(&Json::Null, &e.to_string()));
                    return Ok(served);
                }
                Err(FrameError::Parse(msg)) => {
                    self.count("service.protocol_errors", &[("kind", "parse")], 1);
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
                    self.count("service.protocol_errors", &[("kind", kind)], 1);
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
        let resolved = CompileRequest::from_json(req)
            .and_then(|spec| Ok((spec.source.text()?, spec.config()?, spec.run, spec.trace)));
        let (source, config, run, trace) = match resolved {
            Ok(resolved) => resolved,
            Err(e) => return error_response(id, &e),
        };

        let Some(slot) = self.admission.acquire() else {
            self.count("service.busy_rejections", &[], 1);
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
        };
        self.refresh_gauges();
        let resp = self.compile_admitted(&source, &config, run, trace, id);
        drop(slot);
        self.refresh_gauges();
        resp
    }

    fn compile_admitted(
        &self,
        source: &str,
        config: &Config,
        run: bool,
        trace: bool,
        id: &Json,
    ) -> Json {
        // The trace starts before the front end, which a text the
        // pipeline prepared before skips; the front end records nothing,
        // so the trace is the same either way.
        if trace {
            ipra_obs::enable();
        }
        let compiled = self.pipeline.compile_source(
            source,
            ipra_frontend::compile,
            &config.target,
            &config.opts,
        );
        let raw = trace.then(ipra_obs::disable);
        let compiled = match compiled {
            Ok(compiled) => compiled,
            Err(e) => return error_response(id, &format!("compile error: {e}")),
        };

        let asm = compiled.mmodule.asm(&config.target.regs);
        // "Warm" means the compile allocated no function and replayed at
        // least one, from the component memo or the cache directory.
        let warm = compiled.cache.misses == 0 && compiled.cache.hits > 0;
        if warm {
            self.count("service.warm_hits", &[], 1);
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
            match run_compiled_within(&compiled, config, Some(RUN_FUEL)) {
                Ok(m) => {
                    fields.push((
                        "output",
                        Json::Arr(m.output.iter().map(|v| Json::Int(*v)).collect()),
                    ));
                    fields.push(("stats", stats_json(&m.stats)));
                    stats = Some(m.stats);
                }
                Err(t) => {
                    if t == SimTrap::OutOfFuel {
                        self.count("service.out_of_fuel", &[], 1);
                    }
                    return error_response(id, &format!("runtime trap: {t}"));
                }
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
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RequestSource {
    /// Inline Mini source.
    Source(String),
    /// A path, read by whichever side compiles.
    Path(String),
    /// A bundled benchmark name.
    Workload(String),
}

impl RequestSource {
    /// The program text: inline source as is, a path read from this
    /// process's filesystem, or a bundled benchmark by name.
    ///
    /// # Errors
    ///
    /// An unreadable path, or an unknown workload (the message lists the
    /// bundled names).
    pub fn text(&self) -> Result<String, String> {
        match self {
            RequestSource::Source(s) => Ok(s.clone()),
            RequestSource::Path(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")),
            RequestSource::Workload(name) => ipra_workloads::by_name(name)
                .map(|w| w.source.to_string())
                .ok_or_else(|| {
                    let names: Vec<_> = ipra_workloads::all().iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; available: {}", names.join(", "))
                }),
        }
    }
}

/// One compile, fully specified: the program, every option of the
/// `mini-cc` surface, and what to send back. This is the single compile
/// spec. `mini-cc` builds one from argv ([`CompileRequest::parse_flag`]),
/// `mini-cc --remote` sends it ([`CompileRequest::to_json`]), the daemon
/// decodes it ([`CompileRequest::from_json`]), and every side resolves it
/// with [`CompileRequest::config`], so a remote compile equals the local
/// one by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileRequest {
    /// Echoed back in the response.
    pub id: i64,
    /// Program text source.
    pub source: RequestSource,
    /// Optimization level, `"O0"` | `"O2"` | `"O3"` (`-O3`; the default).
    pub opt: String,
    /// `false` turns shrink-wrapping off (`--no-shrink-wrap`); `true`, the
    /// default, keeps the level's setting.
    pub shrink_wrap: bool,
    /// Unread: every compile runs on its calling thread. perfbench still
    /// sends it, so it and its `options.jobs` wire key stay until the
    /// benchmark change that deletes them together with those sends.
    pub jobs: usize,
    /// Register class limits (`--limit NC,NE`).
    pub limit: Option<(usize, usize)>,
    /// Named target or `conv:POOL,CALLER,ARGS` (`--target NAME`).
    /// Mutually exclusive with `limit`.
    pub target: Option<String>,
    /// Incremental-cache directory on the compiling side (`--cache-dir`).
    pub cache_dir: Option<String>,
    /// Run the profile-guided inliner (`--inline`).
    pub inline: bool,
    /// Inliner growth budget (`--inline-budget N`; default
    /// [`ipra_core::DEFAULT_INLINE_BUDGET`]).
    pub inline_budget: Option<usize>,
    /// Simulate after compiling (`--run`).
    pub run: bool,
    /// Return a `CompileTrace` document.
    pub trace: bool,
}

/// The members of a decoded object that are not `null` (a `null` member
/// counts as absent).
fn present(pairs: &[(String, Json)]) -> impl Iterator<Item = (&str, &Json)> {
    pairs
        .iter()
        .filter(|(_, v)| *v != Json::Null)
        .map(|(k, v)| (k.as_str(), v))
}

/// `v` as a string, or an error naming `field`.
fn string_field(field: &str, v: &Json) -> Result<String, String> {
    v.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{field}` must be a string"))
}

/// `v` as a boolean, or an error naming `field`.
fn bool_field(field: &str, v: &Json) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{field}` must be true or false")),
    }
}

/// `v` as a non-negative integer, or an error naming `field`.
fn count_field(field: &str, v: &Json) -> Result<usize, String> {
    v.as_i64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| format!("`{field}` must be a non-negative integer"))
}

/// A count on the wire, saturating at `i64::MAX` rather than wrapping
/// negative.
fn count_json(n: usize) -> Json {
    Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
}

impl CompileRequest {
    /// A request with `mini-cc` defaults (`-O3`, no run, no trace).
    pub fn new(id: i64, source: RequestSource) -> CompileRequest {
        CompileRequest {
            id,
            source,
            opt: "O3".into(),
            shrink_wrap: true,
            jobs: 0,
            limit: None,
            target: None,
            cache_dir: None,
            inline: false,
            inline_budget: None,
            run: false,
            trace: false,
        }
    }

    /// Applies one `mini-cc` compile flag, taking its value (if it has
    /// one) from `rest`. Returns `Ok(false)`, consuming nothing, when
    /// `flag` is not a compile flag, so the caller can handle it.
    ///
    /// # Errors
    ///
    /// A missing or non-numeric flag value. Values are only checked
    /// against their ranges by [`CompileRequest::config`].
    pub fn parse_flag(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |what: &str| rest.next().ok_or_else(|| format!("{flag} needs {what}"));
        let count = |v: &str, bad: &str| v.trim().parse::<usize>().map_err(|_| bad.to_string());
        match flag {
            level if level.starts_with("-O") => self.opt = level[1..].to_string(),
            "--no-shrink-wrap" => self.shrink_wrap = false,
            "--limit" => {
                let v = value("NC,NE")?;
                let (nc, ne) = v.split_once(',').ok_or("--limit needs NC,NE")?;
                self.limit = Some((count(nc, "bad NC")?, count(ne, "bad NE")?));
            }
            "--target" => self.target = Some(value("a name")?),
            "--cache-dir" => self.cache_dir = Some(value("a directory")?),
            "--inline" => self.inline = true,
            "--inline-budget" => {
                self.inline_budget = Some(count(&value("a count")?, "bad --inline-budget count")?)
            }
            "--run" => self.run = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Decodes a `compile` request document, the inverse of
    /// [`CompileRequest::to_json`]. Decoding is strict: a field of the
    /// wrong type, an unknown field or `options` key, or anything but
    /// exactly one of `source`/`path`/`workload` is an error naming the
    /// field, never a silent default. A `null` field counts as absent.
    ///
    /// # Errors
    ///
    /// The first offending field, as a one-line message.
    pub fn from_json(req: &Json) -> Result<CompileRequest, String> {
        let fields = req.as_obj().ok_or("a request must be a JSON object")?;
        let mut id = 0;
        let mut sources = Vec::new();
        let mut options: &[(String, Json)] = &[];
        let (mut run, mut trace) = (false, false);
        for (key, v) in present(fields) {
            match key {
                "cmd" if v.as_str() == Some("compile") => {}
                "cmd" => return Err("`cmd` must be \"compile\"".into()),
                // Any `id` is echoed back as sent; the spec keeps an integer one.
                "id" => id = v.as_i64().unwrap_or(0),
                "source" => sources.push(RequestSource::Source(string_field(key, v)?)),
                "path" => sources.push(RequestSource::Path(string_field(key, v)?)),
                "workload" => sources.push(RequestSource::Workload(string_field(key, v)?)),
                "options" => options = v.as_obj().ok_or("`options` must be an object")?,
                "run" => run = bool_field(key, v)?,
                "trace" => trace = bool_field(key, v)?,
                other => return Err(format!("unknown request field `{other}`")),
            }
        }
        let [source]: [RequestSource; 1] = sources
            .try_into()
            .map_err(|_| "compile needs exactly one of `source`, `path` or `workload`")?;
        let mut r = CompileRequest {
            run,
            trace,
            ..CompileRequest::new(id, source)
        };
        for (key, v) in present(options) {
            let field = format!("options.{key}");
            match key {
                "opt" => r.opt = string_field(&field, v)?,
                "shrink_wrap" => r.shrink_wrap = bool_field(&field, v)?,
                "jobs" => r.jobs = count_field(&field, v)?,
                "limit" => match v.as_arr() {
                    Some([nc, ne]) => {
                        r.limit = Some((count_field(&field, nc)?, count_field(&field, ne)?))
                    }
                    _ => return Err(format!("`{field}` must be [nc, ne]")),
                },
                "target" => r.target = Some(string_field(&field, v)?),
                "cache_dir" => r.cache_dir = Some(string_field(&field, v)?),
                "inline" => r.inline = bool_field(&field, v)?,
                "inline_budget" => r.inline_budget = Some(count_field(&field, v)?),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(r)
    }

    /// The wire form [`CompileRequest::from_json`] decodes.
    pub fn to_json(&self) -> Json {
        let (src_key, src_val) = match &self.source {
            RequestSource::Source(s) => ("source", s.clone()),
            RequestSource::Path(p) => ("path", p.clone()),
            RequestSource::Workload(w) => ("workload", w.clone()),
        };
        let mut options = vec![
            ("opt", Json::Str(self.opt.clone())),
            ("jobs", count_json(self.jobs)),
        ];
        if !self.shrink_wrap {
            options.push(("shrink_wrap", Json::Bool(false)));
        }
        if let Some((nc, ne)) = self.limit {
            options.push(("limit", Json::Arr(vec![count_json(nc), count_json(ne)])));
        }
        if let Some(t) = &self.target {
            options.push(("target", Json::Str(t.clone())));
        }
        if let Some(d) = &self.cache_dir {
            options.push(("cache_dir", Json::Str(d.clone())));
        }
        if self.inline {
            options.push(("inline", Json::Bool(true)));
        }
        if let Some(b) = self.inline_budget {
            options.push(("inline_budget", count_json(b)));
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

    /// Resolves the options to a compile configuration named after the
    /// level (`-O0`/`-O2`/`-O3`). The only place that maps levels to
    /// allocator presets and checks option values.
    ///
    /// # Errors
    ///
    /// An unknown level or target, a `limit` beyond `11,9`, `limit`
    /// together with `target`, or an inline budget beyond `u32`.
    pub fn config(&self) -> Result<Config, String> {
        let mut opts = match self.opt.as_str() {
            "O0" => AllocOptions::no_alloc(),
            "O2" => AllocOptions::o2_shrink_wrap(),
            "O3" => AllocOptions::o3(),
            other => return Err(format!("unknown opt level `{other}`")),
        };
        if !self.shrink_wrap {
            opts.shrink_wrap = false;
        }
        opts.cache_dir = self.cache_dir.as_ref().map(std::path::PathBuf::from);
        opts.inline = self.inline;
        if let Some(b) = self.inline_budget {
            opts.inline_budget =
                u32::try_from(b).map_err(|_| format!("inline_budget is at most {}", u32::MAX))?;
        }
        let target = match (self.limit, &self.target) {
            (Some(_), Some(_)) => return Err("limit and target are mutually exclusive".into()),
            (Some((nc, ne)), None) if nc <= 11 && ne <= 9 => Target::with_class_limits(nc, ne),
            (Some(_), None) => return Err("limit is at most 11,9 for the mips family".into()),
            (None, Some(name)) => Target::parse(name)?,
            (None, None) => Target::mips_like(),
        };
        Ok(Config {
            name: format!("-{}", self.opt),
            target,
            opts,
        })
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
        let want = oneshot.mmodule.asm(&config.target.regs);
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
        let want = local.mmodule.asm(&d.target.regs);
        assert_eq!(resp.get("asm").and_then(Json::as_str), Some(want.as_str()));
    }

    #[test]
    fn inline_options_match_local_config_and_are_bounds_checked() {
        // inline=true at O3 must match a local Config::inline_c() compile.
        let service = Service::with_defaults();
        let mut req = CompileRequest::new(1, RequestSource::Source(DEMO.into()));
        req.inline = true;
        let resp = &serve(&service, &[req.to_json()])[0];
        let module = ipra_frontend::compile(DEMO).unwrap();
        let ic = Config::inline_c();
        let local = ipra_core::compile_module(&module, &ic.target, &ic.opts);
        let want = local.mmodule.asm(&ic.target.regs);
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
        let slot = service.admission.acquire().expect("a free slot");
        let req = CompileRequest::new(5, RequestSource::Source(DEMO.into()));
        let (resp, _) = service.dispatch(&req.to_json());
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("busy"));
        drop(slot);
        let (resp, _) = service.dispatch(&req.to_json());
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let m = service.metrics_snapshot();
        assert_eq!(m.counter_sum("service.busy_rejections"), 1);
    }

    #[test]
    fn a_runaway_run_exhausts_its_cycle_budget_and_the_session_keeps_serving() {
        // x alternates between 1 and 1,000,000 forever; each turn divides,
        // which costs 30 cycles, so the budget runs out after about three
        // million turns.
        let spin = "fn main() { var x: int = 1; while x != 0 { x = 1000000 / x; } print(x); }";
        let service = Service::with_defaults();
        let mut runaway = CompileRequest::new(1, RequestSource::Source(spin.into()));
        runaway.run = true;
        let mut healthy = CompileRequest::new(2, RequestSource::Source(DEMO.into()));
        healthy.run = true;
        let responses = serve(&service, &[runaway.to_json(), healthy.to_json()]);
        assert_eq!(
            responses[0].get("error").and_then(Json::as_str),
            Some("runtime trap: cycle budget exhausted")
        );
        assert_eq!(
            responses[1].get("output").and_then(Json::as_arr),
            Some(&[Json::Int(81)][..])
        );
        assert_eq!(service.admission.depth(), (0, 0));
        assert_eq!(
            service
                .metrics_snapshot()
                .counter_sum("service.out_of_fuel"),
            1
        );
    }

    #[test]
    fn a_panic_while_admitted_frees_the_slot() {
        let service = Service::new(ServiceConfig {
            max_active: 1,
            max_queue: 0,
            ..ServiceConfig::default()
        });
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _slot = service.admission.acquire().expect("a free slot");
            panic!("compile failed while admitted");
        }));
        assert!(unwound.is_err());
        assert_eq!(service.admission.depth(), (0, 0));
        let req = CompileRequest::new(6, RequestSource::Source(DEMO.into()));
        let (resp, _) = service.dispatch(&req.to_json());
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    }
}
