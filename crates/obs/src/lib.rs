//! Zero-dependency observability for the ipra compilation pipeline.
//!
//! The crate provides three kinds of record:
//!
//! - [`span`] — a monotonic wall-clock timer recorded when the returned
//!   [`Span`] guard drops;
//! - [`event`] — a structured event whose fields are built lazily by a
//!   closure, so the disabled path allocates nothing;
//! - the registry instruments [`counter`], [`gauge`] and [`observe`] —
//!   labeled counts aggregated per `(name, labels)` in the trace's
//!   [`metrics::Metrics`], the only place a count is kept.
//!
//! Spans and events carry the current *scope* (typically a function
//! name), pushed with [`scope`] and popped when the returned
//! [`ScopeGuard`] drops. The registry does not read the scope: a count
//! that belongs to one function says so with a `func` label.
//!
//! # Cost model
//!
//! Tracing is off by default. The disabled fast path is a single relaxed
//! atomic load (`ACTIVE_SINKS == 0`) — no allocation, no thread-local
//! access, no clock read. Collection is enabled per thread with
//! [`enable`] and drained with [`disable`], which returns the recorded
//! [`Trace`]. Per-thread sinks keep parallel test threads from polluting
//! each other's traces; the global counter only short-circuits the case
//! where *no* thread is tracing.
//!
//! # Example
//!
//! ```
//! ipra_obs::enable();
//! {
//!     let _fn = ipra_obs::scope("main");
//!     let _t = ipra_obs::span("color");
//!     ipra_obs::counter("colored_vregs", &[("func", "main")], 7);
//! }
//! let trace = ipra_obs::disable();
//! assert_eq!(trace.spans[0].scope, "main");
//! assert_eq!(trace.metrics.counter_value("colored_vregs", &[("func", "main")]), 7);
//! ```

#![warn(missing_docs)]

pub mod chrome;
pub mod frame;
pub mod json;
pub mod metrics;

use metrics::Metrics;

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Number of threads that currently have a sink installed. The hot path
/// checks this with one relaxed load before touching anything else.
static ACTIVE_SINKS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SINK: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// A value attached to an [`EventRec`] field.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceValue {
    /// An integer field.
    Int(i64),
    /// A floating-point field.
    Float(f64),
    /// A string field.
    Str(String),
}

impl TraceValue {
    /// Converts to a [`json::Json`] value.
    pub fn to_json(&self) -> json::Json {
        match self {
            TraceValue::Int(i) => json::Json::Int(*i),
            TraceValue::Float(f) => json::Json::Float(*f),
            TraceValue::Str(s) => json::Json::Str(s.clone()),
        }
    }

    /// The integer value, if any.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            TraceValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            TraceValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A completed timed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Scope stack at the time the span started, joined with `/`
    /// (empty for module-level spans).
    pub scope: String,
    /// Span name, e.g. `"color"`.
    pub name: &'static str,
    /// Span id, unique within one [`Trace`] (ids are assigned in span
    /// *start* order; records appear in completion order).
    pub id: u64,
    /// Id of the enclosing span that was open when this one started, or
    /// `None` for a top-level span. Lets sub-phase spans (e.g. shrink-wrap
    /// ANT/AV sweeps) be costed under their parent phase.
    pub parent_id: Option<u64>,
    /// Start time in nanoseconds relative to [`enable`] on this thread.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Logical task lane. Spans recorded directly on a sink are lane 0;
    /// [`absorb`] moves each absorbed shard onto a fresh lane, numbered in
    /// absorption order. Because shards are absorbed in a deterministic
    /// order (and times sit on a serial virtual clock), lanes identify
    /// *logical* units of parallel work — e.g. one per function in a wave —
    /// not physical worker threads. The Chrome exporter renders lanes as
    /// threads.
    pub lane: u32,
}

/// A structured event.
#[derive(Clone, Debug, PartialEq)]
pub struct EventRec {
    /// Scope stack at the time of the event (empty for module level).
    pub scope: String,
    /// Event name, e.g. `"alloc.decision"`.
    pub name: &'static str,
    /// Event fields in emission order.
    pub fields: Vec<(&'static str, TraceValue)>,
}

/// Everything recorded on one thread between [`enable`] and [`disable`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Completed spans in completion order.
    pub spans: Vec<SpanRec>,
    /// Structured events in emission order.
    pub events: Vec<EventRec>,
    /// Counts recorded via [`counter`], [`gauge`] and [`observe`],
    /// aggregated per `(name, labels)`.
    pub metrics: Metrics,
}

impl Trace {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty() && self.metrics.is_empty()
    }
}

struct Collector {
    epoch: Instant,
    scopes: Vec<String>,
    /// Next span id to hand out.
    next_span_id: u64,
    /// Ids of the spans currently open on this thread, innermost last.
    open_spans: Vec<u64>,
    /// Next lane for an absorbed shard (lane 0 is this thread's own).
    next_lane: u32,
    trace: Trace,
}

impl Collector {
    fn current_scope(&self) -> String {
        self.scopes.join("/")
    }
}

/// Installs a fresh sink on the current thread, discarding any trace
/// already being collected there.
pub fn enable() {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        if s.is_none() {
            ACTIVE_SINKS.fetch_add(1, Ordering::Relaxed);
        }
        *s = Some(Collector {
            epoch: Instant::now(),
            scopes: Vec::new(),
            next_span_id: 0,
            open_spans: Vec::new(),
            next_lane: 1,
            trace: Trace::default(),
        });
    });
}

/// Removes the current thread's sink and returns what it recorded.
/// Returns an empty [`Trace`] when tracing was not enabled.
pub fn disable() -> Trace {
    SINK.with(|s| {
        let taken = s.borrow_mut().take();
        match taken {
            Some(c) => {
                ACTIVE_SINKS.fetch_sub(1, Ordering::Relaxed);
                c.trace
            }
            None => Trace::default(),
        }
    })
}

/// True when the current thread is collecting a trace.
pub fn is_enabled() -> bool {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return false;
    }
    SINK.with(|s| s.borrow().is_some())
}

/// Pushes a named scope (e.g. the function being compiled) for the
/// lifetime of the returned guard. No-op when tracing is disabled.
#[must_use = "the scope pops when the guard drops"]
pub fn scope(name: &str) -> ScopeGuard {
    if !is_enabled() {
        return ScopeGuard { pushed: false };
    }
    SINK.with(|s| {
        if let Some(c) = s.borrow_mut().as_mut() {
            c.scopes.push(name.to_string());
        }
    });
    ScopeGuard { pushed: true }
}

/// Pops the scope pushed by [`scope`] on drop.
pub struct ScopeGuard {
    pushed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if self.pushed {
            SINK.with(|s| {
                if let Some(c) = s.borrow_mut().as_mut() {
                    c.scopes.pop();
                }
            });
        }
    }
}

/// Starts a timed span that records itself when dropped. No-op (and
/// allocation-free) when tracing is disabled.
#[must_use = "the span records its duration when the guard drops"]
pub fn span(name: &'static str) -> Span {
    if !is_enabled() {
        return Span {
            name,
            start: None,
            id: 0,
            parent_id: None,
        };
    }
    let (id, parent_id) = SINK.with(|s| {
        let mut s = s.borrow_mut();
        let c = s.as_mut().expect("is_enabled checked");
        let id = c.next_span_id;
        c.next_span_id += 1;
        let parent = c.open_spans.last().copied();
        c.open_spans.push(id);
        (id, parent)
    });
    Span {
        name,
        start: Some(Instant::now()),
        id,
        parent_id,
    }
}

/// Guard returned by [`span`]; records a [`SpanRec`] on drop.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    id: u64,
    parent_id: Option<u64>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = start.elapsed().as_nanos() as u64;
        SINK.with(|s| {
            if let Some(c) = s.borrow_mut().as_mut() {
                // Spans are scoped guards, so the top of the open stack is
                // this span; be robust to out-of-order drops anyway.
                match c.open_spans.last() {
                    Some(&top) if top == self.id => {
                        c.open_spans.pop();
                    }
                    _ => c.open_spans.retain(|&i| i != self.id),
                }
                let start_ns = start.duration_since(c.epoch).as_nanos() as u64;
                let scope = c.current_scope();
                c.trace.spans.push(SpanRec {
                    scope,
                    name: self.name,
                    id: self.id,
                    parent_id: self.parent_id,
                    start_ns,
                    dur_ns,
                    lane: 0,
                });
            }
        });
    }
}

/// Merges a [`Trace`] recorded on another thread (a *shard*) into the
/// current thread's sink. No-op when tracing is disabled here.
///
/// Worker threads of a parallel compilation each collect their own trace
/// with [`enable`]/[`disable`]; the driver absorbs the shards in a
/// deterministic order so the merged trace is independent of scheduling.
/// Span ids are remapped past the sink's counter (parent links preserved),
/// and shard times are rebased to start after everything already recorded,
/// keeping per-shard span order meaningful under a single virtual clock.
/// Each shard's spans land on fresh lanes (numbered in absorption order,
/// preserving the shard's own lane structure), so the Chrome exporter can
/// render logical parallel work side by side. Registry instances merge
/// one by one: counters add, gauges take the shard's value, histograms
/// merge bucket-wise.
pub fn absorb(shard: Trace) {
    if shard.is_empty() || !is_enabled() {
        return;
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        let Some(c) = s.as_mut() else { return };
        let time_base = c
            .trace
            .spans
            .iter()
            .map(|sp| sp.start_ns + sp.dur_ns)
            .max()
            .unwrap_or(0);
        let id_base = c.next_span_id;
        let lane_base = c.next_lane;
        let mut max_id = None::<u64>;
        let mut max_lane = None::<u32>;
        for sp in shard.spans {
            max_id = Some(max_id.map_or(sp.id, |m| m.max(sp.id)));
            max_lane = Some(max_lane.map_or(sp.lane, |m| m.max(sp.lane)));
            c.trace.spans.push(SpanRec {
                id: id_base + sp.id,
                parent_id: sp.parent_id.map(|p| id_base + p),
                start_ns: time_base + sp.start_ns,
                lane: lane_base + sp.lane,
                ..sp
            });
        }
        if let Some(m) = max_id {
            c.next_span_id = id_base + m + 1;
        }
        if let Some(m) = max_lane {
            c.next_lane = lane_base + m + 1;
        }
        c.trace.events.extend(shard.events);
        c.trace.metrics.merge(&shard.metrics);
    });
}

/// Records a structured event. The field list is built by the closure
/// only when tracing is enabled, so the disabled path does no work.
pub fn event(name: &'static str, fields: impl FnOnce() -> Vec<(&'static str, TraceValue)>) {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return;
    }
    SINK.with(|s| {
        if let Some(c) = s.borrow_mut().as_mut() {
            let scope = c.current_scope();
            c.trace.events.push(EventRec {
                scope,
                name,
                fields: fields(),
            });
        }
    });
}

/// Adds `v` to the counter instance `(name, labels)`; an empty label set
/// is a module-level count. Counters merge additively across shards.
/// No-op when tracing is disabled; labels are only copied on first use
/// of an instance.
pub fn counter(name: &'static str, labels: &[(&str, &str)], v: u64) {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return;
    }
    SINK.with(|s| {
        if let Some(c) = s.borrow_mut().as_mut() {
            c.trace.metrics.add_counter(name, labels, v);
        }
    });
}

/// Sets the gauge instance `(name, labels)` to `v` (last write wins, also
/// across [`absorb`]). No-op when tracing is disabled.
pub fn gauge(name: &'static str, labels: &[(&str, &str)], v: i64) {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return;
    }
    SINK.with(|s| {
        if let Some(c) = s.borrow_mut().as_mut() {
            c.trace.metrics.set_gauge(name, labels, v);
        }
    });
}

/// Records one sample into the log₂-bucket histogram instance
/// `(name, labels)`. No-op when tracing is disabled.
pub fn observe(name: &'static str, labels: &[(&str, &str)], v: u64) {
    if ACTIVE_SINKS.load(Ordering::Relaxed) == 0 {
        return;
    }
    SINK.with(|s| {
        if let Some(c) = s.borrow_mut().as_mut() {
            c.trace.metrics.observe(name, labels, v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        // No enable() on this thread: everything must be a no-op.
        let _g = scope("f");
        let _t = span("phase");
        counter("n", &[], 3);
        gauge("g", &[], 1);
        observe("h", &[], 2);
        event("ev", || panic!("field closure must not run when disabled"));
        assert!(!is_enabled());
        assert!(disable().is_empty());
    }

    #[test]
    fn records_spans_counters_events_with_scopes() {
        enable();
        counter("module_level", &[], 1);
        {
            let _f = scope("main");
            {
                let _t = span("color");
                counter("colored", &[("func", "main")], 2);
                counter("colored", &[("func", "main")], 3);
            }
            event("decision", || {
                vec![
                    ("vreg", TraceValue::Int(4)),
                    ("kind", TraceValue::Str("split".into())),
                ]
            });
            {
                let _inner = scope("loop0");
                event("nested", Vec::new);
            }
        }
        let trace = disable();

        // The registry ignores the scope: instances are keyed by labels.
        let m = &trace.metrics;
        assert_eq!(m.counter_value("module_level", &[]), 1);
        assert_eq!(m.counter_value("colored", &[("func", "main")]), 5);
        assert_eq!(m.counter_value("colored", &[]), 0);

        assert_eq!(trace.spans.len(), 1);
        let sp = &trace.spans[0];
        assert_eq!((sp.scope.as_str(), sp.name), ("main", "color"));
        assert!(sp.start_ns <= sp.start_ns + sp.dur_ns);

        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.events[0].scope, "main");
        assert_eq!(trace.events[0].fields[1].1.as_str(), Some("split"));
        assert_eq!(trace.events[1].scope, "main/loop0");

        // Sink is gone now.
        assert!(!is_enabled());
        counter("late", &[], 9);
        assert!(disable().is_empty());
    }

    #[test]
    fn enable_resets_previous_trace() {
        enable();
        counter("a", &[], 1);
        enable();
        counter("b", &[], 2);
        let trace = disable();
        assert_eq!(trace.metrics.counters.len(), 1);
        assert_eq!(trace.metrics.counters[0].name, "b");
    }

    #[test]
    fn span_parent_ids_follow_nesting() {
        enable();
        {
            let _outer = span("phase");
            {
                let _inner = span("round");
                let _leaf = span("sweep");
            }
            let _sibling = span("round");
        }
        let _top = span("other_phase");
        drop(_top);
        let trace = disable();

        let find = |name: &'static str| trace.spans.iter().filter(move |s| s.name == name);
        let phase = find("phase").next().unwrap();
        assert_eq!(phase.parent_id, None);
        for round in find("round") {
            assert_eq!(round.parent_id, Some(phase.id));
        }
        let sweep = find("sweep").next().unwrap();
        let inner_round = trace
            .spans
            .iter()
            .find(|s| s.name == "round" && Some(s.id) == sweep.parent_id)
            .expect("sweep nests under a round");
        assert_eq!(inner_round.parent_id, Some(phase.id));
        let other = find("other_phase").next().unwrap();
        assert_eq!(other.parent_id, None, "closed spans do not parent");

        // Ids are unique.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), trace.spans.len());
    }

    #[test]
    fn absorb_merges_shard_with_remapped_ids_and_rebased_times() {
        // Record a shard on a worker thread.
        let shard = std::thread::spawn(|| {
            enable();
            let _f = scope("worker_fn");
            {
                let _p = span("phase");
                let _c = span("child");
                counter("n", &[("func", "worker_fn")], 2);
            }
            event("ev", || vec![("x", TraceValue::Int(1))]);
            disable()
        })
        .join()
        .unwrap();

        enable();
        {
            let _m = scope("main_fn");
            let _t = span("phase");
        }
        absorb(shard);
        let trace = disable();

        assert_eq!(trace.spans.len(), 3);
        let main_phase = trace.spans.iter().find(|s| s.scope == "main_fn").unwrap();
        let w_phase = trace
            .spans
            .iter()
            .find(|s| s.scope == "worker_fn" && s.name == "phase")
            .unwrap();
        let w_child = trace
            .spans
            .iter()
            .find(|s| s.scope == "worker_fn" && s.name == "child")
            .unwrap();
        // Remapped ids stay unique and parent links survive.
        assert_ne!(w_phase.id, main_phase.id);
        assert_eq!(w_child.parent_id, Some(w_phase.id));
        // Shard times land after everything already recorded.
        assert!(w_phase.start_ns >= main_phase.start_ns + main_phase.dur_ns);
        // Counts and events come along.
        assert_eq!(
            trace.metrics.counter_value("n", &[("func", "worker_fn")]),
            2
        );
        assert_eq!(trace.events.len(), 1);

        // Absorbing into a disabled sink is a no-op.
        absorb(Trace::default());
        assert!(!is_enabled());
    }

    #[test]
    fn absorbed_shards_land_on_fresh_lanes() {
        let make_shard = |fname: &'static str| {
            std::thread::spawn(move || {
                enable();
                let _f = scope(fname);
                let _p = span("phase");
                drop(_p);
                disable()
            })
            .join()
            .unwrap()
        };
        let a = make_shard("fa");
        let b = make_shard("fb");

        enable();
        {
            let _t = span("driver");
        }
        absorb(a);
        absorb(b);
        let trace = disable();

        let lane_of = |scope: &str| {
            trace
                .spans
                .iter()
                .find(|s| s.scope == scope || (scope.is_empty() && s.name == "driver"))
                .unwrap()
                .lane
        };
        assert_eq!(lane_of(""), 0, "driver spans stay on lane 0");
        assert_eq!(lane_of("fa"), 1, "first shard gets lane 1");
        assert_eq!(lane_of("fb"), 2, "second shard gets lane 2");
    }

    #[test]
    fn nested_absorbs_keep_lanes_disjoint() {
        // A "driver" shard that itself absorbed two worker shards has
        // lanes 0..=2; absorbing it must shift all three past our own.
        let nested = std::thread::spawn(|| {
            let w = std::thread::spawn(|| {
                enable();
                let _s = span("w0");
                drop(_s);
                disable()
            })
            .join()
            .unwrap();
            enable();
            let _d = span("mid");
            drop(_d);
            absorb(w);
            disable()
        })
        .join()
        .unwrap();
        assert_eq!(nested.spans.iter().map(|s| s.lane).max(), Some(1));

        enable();
        let _own = span("own");
        drop(_own);
        absorb(nested);
        let trace = disable();
        let lanes: Vec<(u32, &str)> = trace.spans.iter().map(|s| (s.lane, s.name)).collect();
        assert!(lanes.contains(&(0, "own")));
        assert!(lanes.contains(&(1, "mid")));
        assert!(lanes.contains(&(2, "w0")));
    }

    #[test]
    fn metrics_record_through_the_sink_and_absorb() {
        // Disabled path records nothing.
        counter("c", &[("k", "v")], 1);
        assert!(disable().metrics.is_empty());

        let shard = std::thread::spawn(|| {
            enable();
            counter("penalty", &[("edge", "a")], 2);
            observe("wave.width", &[], 4);
            disable()
        })
        .join()
        .unwrap();

        enable();
        counter("penalty", &[("edge", "a")], 1);
        counter("penalty", &[("edge", "b")], 1);
        gauge("jobs", &[], 4);
        observe("wave.width", &[], 2);
        absorb(shard);
        let trace = disable();

        let m = &trace.metrics;
        assert_eq!(m.counter_value("penalty", &[("edge", "a")]), 3);
        assert_eq!(m.counter_value("penalty", &[("edge", "b")]), 1);
        assert_eq!(m.histogram("wave.width", &[]).unwrap().count, 2);
        assert_eq!(m.gauges[0].value, 4);
    }

    #[test]
    fn sinks_are_per_thread() {
        enable();
        counter("mine", &[], 1);
        std::thread::spawn(|| {
            // Tracing is active on the main thread, but this thread has
            // no sink, so nothing may be recorded or observed here.
            assert!(!is_enabled());
            counter("other", &[], 7);
            event("ev", || vec![("x", TraceValue::Int(1))]);
        })
        .join()
        .unwrap();
        let trace = disable();
        assert_eq!(trace.metrics.counters.len(), 1);
        assert_eq!(trace.metrics.counters[0].name, "mine");
        assert!(trace.events.is_empty());
    }
}
