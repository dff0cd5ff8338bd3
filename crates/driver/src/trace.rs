//! Aggregation of raw observability records into a per-compilation report.
//!
//! [`CompileTrace`] groups the spans and decision events emitted by the
//! pipeline (see `ipra-obs`) by function, pairs them with the simulator's
//! per-function attribution, carries the registry's counts as they are,
//! and renders either a human-readable report or a JSON document
//! (hand-rolled — the workspace carries no serde).

use ipra_core::cache::CacheStats;
use ipra_core::ipra::CompiledModule;
use ipra_obs::json::Json;
use ipra_obs::metrics::{Log2Histogram, Metrics};
use ipra_obs::Trace;
use ipra_sim::stats::ROOT_CALLER;
use ipra_sim::Stats;

/// Wall-clock time of one pipeline phase of one function. Phases nest:
/// sub-phase spans (e.g. `shrink_wrap.round` and its `shrink_wrap.antav`
/// sweeps) appear under their enclosing phase via the span parent ids, so
/// per-function `phases` lists only top-level pipeline phases.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseTime {
    /// Phase name: `ranges`, `priority`, `color`, `shrink_wrap` or `lower`
    /// at the top level; sub-phase names below.
    pub name: String,
    /// Start in nanoseconds relative to trace start.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Sub-phase spans nested under this phase, in completion order.
    pub children: Vec<PhaseTime>,
}

/// One per-vreg allocation decision (from the coloring pass).
#[derive(Clone, Debug, PartialEq)]
pub struct AllocDecision {
    /// Virtual-register index.
    pub vreg: u32,
    /// `caller_saved`, `callee_saved`, `split` or `mem`.
    pub kind: String,
    /// The register taken, for whole-range register assignments.
    pub reg: Option<String>,
    /// The priority density that decided it (`-inf` when the range never
    /// had a viable register to price; rendered as JSON `null`).
    pub priority: f64,
}

/// Simulator attribution for one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncSimTrace {
    /// Cycles charged while the function was executing.
    pub cycles: u64,
    /// Instructions it executed.
    pub insts: u64,
    /// Call instructions it executed.
    pub calls: u64,
    /// Loads it executed (all classes).
    pub loads: u64,
    /// Stores it executed (all classes).
    pub stores: u64,
    /// Its save/restore loads + stores — the paper's register-usage
    /// penalty, attributed to the function that pays it.
    pub save_restore_mem: u64,
}

/// Everything recorded about one function.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncTrace {
    /// Function name.
    pub name: String,
    /// Pipeline phase timings, in completion order.
    pub phases: Vec<PhaseTime>,
    /// Per-vreg allocation decisions, in decision order.
    pub decisions: Vec<AllocDecision>,
    /// Simulator attribution (present when the program ran).
    pub sim: Option<FuncSimTrace>,
}

/// One dynamic call edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling function.
    pub caller: String,
    /// Called function.
    pub callee: String,
    /// Times the edge was taken.
    pub count: u64,
}

/// Register-usage penalty attributed to one caller→callee edge — the
/// per-edge ledger combining the simulator's dynamic accounting (every
/// save/restore and spill memory operation charged to the edge that
/// created the executing activation) with the allocator's static plan
/// (caller-side saves around call sites on this edge).
///
/// Field-wise sums of the dynamic columns over all edges reconcile
/// *exactly* with the aggregate [`SimTrace`] save/restore and spill
/// totals; the synthetic `<entry>` caller carries `main`'s own prologue
/// traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PenaltyEdge {
    /// Calling function, or `"<entry>"` for the program-entry edge.
    pub caller: String,
    /// Called function.
    pub callee: String,
    /// Times the edge was taken (0 for the entry edge and for edges the
    /// run never executed).
    pub calls: u64,
    /// Save/restore loads executed by activations this edge created.
    pub sr_loads: u64,
    /// Save/restore stores executed by activations this edge created.
    pub sr_stores: u64,
    /// Spill loads executed by activations this edge created.
    pub spill_loads: u64,
    /// Spill stores executed by activations this edge created.
    pub spill_stores: u64,
    /// Cycles spent on the save/restore traffic above (the edge's share of
    /// the paper's Eq 3.5/3.6 penalty under the run's cost model).
    pub penalty_cycles: u64,
    /// Registers the allocator planned to save around this edge's call
    /// sites (static; 0 when the caller replayed from the incremental
    /// cache and recorded no allocation metrics).
    pub static_save_regs: u64,
}

/// Whole-program simulator summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimTrace {
    /// Total cycles.
    pub cycles: u64,
    /// Total instructions.
    pub insts: u64,
    /// Total calls.
    pub calls: u64,
    /// Deepest call stack observed.
    pub max_depth: usize,
    /// Save/restore loads (aggregate).
    pub save_restore_loads: u64,
    /// Save/restore stores (aggregate).
    pub save_restore_stores: u64,
    /// Spill loads (aggregate).
    pub spill_loads: u64,
    /// Spill stores (aggregate).
    pub spill_stores: u64,
    /// Total cycles spent on save/restore traffic — the aggregate penalty
    /// the per-edge ledger decomposes.
    pub penalty_cycles: u64,
    /// Activations entered, bucketed by stack depth (log₂ buckets; exact
    /// count and max).
    pub depth_hist: Log2Histogram,
    /// Dynamic call-edge counts, sorted by caller then callee id.
    pub call_edges: Vec<CallEdge>,
}

/// A compilation (and optionally execution) trace, aggregated per function.
#[derive(Clone, Debug, PartialEq)]
pub struct CompileTrace {
    /// Configuration label the module was compiled under.
    pub config: String,
    /// Per-function traces, in function-id order.
    pub funcs: Vec<FuncTrace>,
    /// Simulator summary, when the program was run.
    pub sim: Option<SimTrace>,
    /// Incremental-cache outcome, when a cache directory was configured.
    pub cache: Option<CacheStats>,
    /// Per-call-edge penalty ledger: executed edges first (in function-id
    /// order, the `<entry>` edge last), then statically-planned edges the
    /// run never took, in name order.
    pub penalty_by_edge: Vec<PenaltyEdge>,
    /// Every count recorded during the compile (registry snapshot;
    /// serialized sorted by `(name, labels)`): module-level counters are
    /// unlabeled, per-function ones carry a `func` label.
    pub metrics: Metrics,
}

/// Nests one function's spans into phase trees via the span parent ids.
/// A span whose parent is missing from the function's own span set (or
/// `None`) is top-level; children keep completion order. Raw span ids
/// are resolved here and never surface in the output.
fn phase_tree(raw: &Trace, func: &str) -> Vec<PhaseTime> {
    let spans: Vec<&ipra_obs::SpanRec> = raw.spans.iter().filter(|s| s.scope == func).collect();
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    // Determinism: `by_parent` is only ever read by keyed lookup (`get`);
    // output order comes from the `spans`/`top` Vecs, never from map
    // iteration, so the HashMap's randomized order cannot leak out.
    let mut by_parent: std::collections::HashMap<u64, Vec<&ipra_obs::SpanRec>> =
        std::collections::HashMap::new();
    let mut top: Vec<&ipra_obs::SpanRec> = Vec::new();
    for s in &spans {
        match s.parent_id {
            Some(p) if ids.contains(&p) => by_parent.entry(p).or_default().push(s),
            _ => top.push(s),
        }
    }
    fn build(
        s: &ipra_obs::SpanRec,
        by_parent: &std::collections::HashMap<u64, Vec<&ipra_obs::SpanRec>>,
    ) -> PhaseTime {
        PhaseTime {
            name: s.name.to_string(),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            children: by_parent
                .get(&s.id)
                .map(|cs| cs.iter().map(|c| build(c, by_parent)).collect())
                .unwrap_or_default(),
        }
    }
    top.into_iter().map(|s| build(s, &by_parent)).collect()
}

impl CompileTrace {
    /// Builds the aggregated trace from the raw records of one compilation,
    /// the compiled module (for the function list) and, optionally, the
    /// simulator statistics of a run.
    pub fn build(
        config: &str,
        raw: &Trace,
        compiled: &CompiledModule,
        stats: Option<&Stats>,
    ) -> CompileTrace {
        let funcs = compiled
            .reports
            .iter()
            .enumerate()
            .map(|(fi, report)| {
                let name = report.name.clone();
                let phases = phase_tree(raw, &name);
                let decisions = raw
                    .events
                    .iter()
                    .filter(|e| e.scope == name && e.name == "alloc.decision")
                    .map(|e| {
                        let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k);
                        AllocDecision {
                            vreg: field("vreg").and_then(|(_, v)| v.as_i64()).unwrap_or(-1) as u32,
                            kind: field("kind")
                                .and_then(|(_, v)| v.as_str())
                                .unwrap_or("?")
                                .to_string(),
                            reg: field("reg")
                                .and_then(|(_, v)| v.as_str())
                                .map(str::to_string),
                            priority: field("priority")
                                .map(|(_, v)| match v {
                                    ipra_obs::TraceValue::Float(f) => *f,
                                    ipra_obs::TraceValue::Int(i) => *i as f64,
                                    _ => f64::NEG_INFINITY,
                                })
                                .unwrap_or(f64::NEG_INFINITY),
                        }
                    })
                    .collect();
                let sim = stats
                    .and_then(|s| s.per_func.get(fi))
                    .map(|f| FuncSimTrace {
                        cycles: f.cycles,
                        insts: f.insts,
                        calls: f.calls,
                        loads: f.loads_by_class.iter().sum(),
                        stores: f.stores_by_class.iter().sum(),
                        save_restore_mem: f.save_restore_mem(),
                    });
                FuncTrace {
                    name,
                    phases,
                    decisions,
                    sim,
                }
            })
            .collect();

        let fname = |i: u32| {
            if i == ROOT_CALLER {
                return "<entry>".to_string();
            }
            compiled
                .reports
                .get(i as usize)
                .map_or_else(|| format!("#{i}"), |r| r.name.clone())
        };

        let sim = stats.map(|s| SimTrace {
            cycles: s.cycles,
            insts: s.insts,
            calls: s.calls,
            max_depth: s.max_depth(),
            save_restore_loads: s.loads(ipra_machine::MemClass::SaveRestore),
            save_restore_stores: s.stores(ipra_machine::MemClass::SaveRestore),
            spill_loads: s.loads(ipra_machine::MemClass::Spill),
            spill_stores: s.stores(ipra_machine::MemClass::Spill),
            penalty_cycles: s.edge_penalty.iter().map(|e| e.penalty_cycles).sum(),
            depth_hist: s.depth_hist.clone(),
            call_edges: s
                .call_edges
                .iter()
                .map(|&(a, b, n)| CallEdge {
                    caller: fname(a),
                    callee: fname(b),
                    count: n,
                })
                .collect(),
        });

        // Penalty ledger: dynamic edges from the simulator, static
        // caller-side save plans from the allocator's labeled metrics,
        // joined by (caller, callee) name.
        let mut penalty_by_edge: Vec<PenaltyEdge> = stats
            .map(|s| {
                s.edge_penalty
                    .iter()
                    .map(|e| PenaltyEdge {
                        caller: fname(e.caller),
                        callee: fname(e.callee),
                        calls: e.calls,
                        sr_loads: e.sr_loads,
                        sr_stores: e.sr_stores,
                        spill_loads: e.spill_loads,
                        spill_stores: e.spill_stores,
                        penalty_cycles: e.penalty_cycles,
                        static_save_regs: 0,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let mut static_edges: Vec<(String, String, u64)> = raw
            .metrics
            .counters_named("penalty.callsite.saved_regs")
            .map(|m| {
                let label = |k: &str| {
                    m.labels
                        .iter()
                        .find(|(n, _)| n == k)
                        .map_or("?", |(_, v)| v.as_str())
                };
                (
                    label("caller").to_string(),
                    label("callee").to_string(),
                    m.value,
                )
            })
            .collect();
        static_edges.sort();
        for (caller, callee, regs) in static_edges {
            match penalty_by_edge
                .iter_mut()
                .find(|e| e.caller == caller && e.callee == callee)
            {
                Some(e) => e.static_save_regs += regs,
                None => penalty_by_edge.push(PenaltyEdge {
                    caller,
                    callee,
                    calls: 0,
                    sr_loads: 0,
                    sr_stores: 0,
                    spill_loads: 0,
                    spill_stores: 0,
                    penalty_cycles: 0,
                    static_save_regs: regs,
                }),
            }
        }

        CompileTrace {
            config: config.to_string(),
            funcs,
            sim,
            cache: compiled.cache.enabled.then(|| compiled.cache.clone()),
            penalty_by_edge,
            metrics: raw.metrics.clone(),
        }
    }

    /// Renders the human-readable report (`mini-cc --trace`).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== compile trace [{}] ==", self.config);
        for c in self.metrics.counters_labeled(&[]) {
            let _ = writeln!(out, "  {}: {}", c.name, c.value);
        }
        if let Some(c) = &self.cache {
            let _ = writeln!(
                out,
                "  cache: {} hits, {} misses, {} cutoffs",
                c.hits, c.misses, c.cutoffs
            );
        }
        fn write_phase(out: &mut String, p: &PhaseTime, depth: usize) {
            use std::fmt::Write as _;
            let indent = "  ".repeat(depth + 1);
            let _ = writeln!(out, "{indent}phase {:<12} {:>9} ns", p.name, p.dur_ns);
            for c in &p.children {
                write_phase(out, c, depth + 1);
            }
        }
        for f in &self.funcs {
            let _ = writeln!(out, "fn {}:", f.name);
            for p in &f.phases {
                write_phase(&mut out, p, 0);
            }
            for c in self.metrics.counters_labeled(&[("func", &f.name)]) {
                let _ = writeln!(out, "  {}: {}", c.name, c.value);
            }
            let regs = f.decisions.iter().filter(|d| d.reg.is_some()).count();
            let split = f.decisions.iter().filter(|d| d.kind == "split").count();
            let mem = f.decisions.iter().filter(|d| d.kind == "mem").count();
            let _ = writeln!(
                out,
                "  decisions: {} vregs -> {regs} reg, {split} split, {mem} mem",
                f.decisions.len()
            );
            if let Some(s) = &f.sim {
                let _ = writeln!(
                    out,
                    "  sim: {} cycles, {} insts, {} calls, {} save/restore mem ops",
                    s.cycles, s.insts, s.calls, s.save_restore_mem
                );
            }
        }
        if let Some(s) = &self.sim {
            let _ = writeln!(
                out,
                "sim total: {} cycles, {} insts, {} calls, max depth {}",
                s.cycles, s.insts, s.calls, s.max_depth
            );
            let _ = writeln!(
                out,
                "  penalty: {} cycles ({} sr loads, {} sr stores, {} spill ops)",
                s.penalty_cycles,
                s.save_restore_loads,
                s.save_restore_stores,
                s.spill_loads + s.spill_stores
            );
            let _ = writeln!(out, "  depth histogram: {}", s.depth_hist);
            for e in &s.call_edges {
                let _ = writeln!(out, "  call {} -> {}: {}", e.caller, e.callee, e.count);
            }
        }
        if !self.penalty_by_edge.is_empty() {
            let _ = writeln!(out, "penalty by edge:");
            for e in &self.penalty_by_edge {
                let _ = writeln!(
                    out,
                    "  {} -> {}: {} cycles ({} sr ops, {} spill ops, {} calls, {} planned save regs)",
                    e.caller,
                    e.callee,
                    e.penalty_cycles,
                    e.sr_loads + e.sr_stores,
                    e.spill_loads + e.spill_stores,
                    e.calls,
                    e.static_save_regs
                );
            }
        }
        out
    }

    /// Serializes to the JSON schema documented in `DESIGN.md`
    /// ("Observability").
    pub fn to_json(&self) -> Json {
        let funcs = self
            .funcs
            .iter()
            .map(|f| {
                fn phase_json(p: &PhaseTime) -> Json {
                    Json::obj(vec![
                        ("name", Json::Str(p.name.clone())),
                        ("start_ns", Json::Int(p.start_ns as i64)),
                        ("dur_ns", Json::Int(p.dur_ns as i64)),
                        (
                            "children",
                            Json::Arr(p.children.iter().map(phase_json).collect()),
                        ),
                    ])
                }
                let phases = f.phases.iter().map(phase_json).collect();
                let decisions = f
                    .decisions
                    .iter()
                    .map(|d| {
                        Json::obj(vec![
                            ("vreg", Json::Int(d.vreg as i64)),
                            ("kind", Json::Str(d.kind.clone())),
                            ("reg", d.reg.clone().map_or(Json::Null, Json::Str)),
                            ("priority", Json::Float(d.priority)),
                        ])
                    })
                    .collect();
                let mut fields = vec![
                    ("name", Json::Str(f.name.clone())),
                    ("phases", Json::Arr(phases)),
                    ("decisions", Json::Arr(decisions)),
                ];
                if let Some(s) = &f.sim {
                    fields.push((
                        "sim",
                        Json::obj(vec![
                            ("cycles", Json::Int(s.cycles as i64)),
                            ("insts", Json::Int(s.insts as i64)),
                            ("calls", Json::Int(s.calls as i64)),
                            ("loads", Json::Int(s.loads as i64)),
                            ("stores", Json::Int(s.stores as i64)),
                            ("save_restore_mem", Json::Int(s.save_restore_mem as i64)),
                        ]),
                    ));
                }
                Json::obj(fields)
            })
            .collect();

        let mut root = vec![
            ("config", Json::Str(self.config.clone())),
            ("functions", Json::Arr(funcs)),
        ];
        if let Some(c) = &self.cache {
            root.push((
                "cache",
                Json::obj(vec![
                    ("hits", Json::Int(c.hits as i64)),
                    ("misses", Json::Int(c.misses as i64)),
                    ("cutoffs", Json::Int(c.cutoffs as i64)),
                    (
                        "recompiled",
                        Json::Arr(c.recompiled.iter().map(|n| Json::Str(n.clone())).collect()),
                    ),
                ]),
            ));
        }
        if let Some(s) = &self.sim {
            root.push((
                "sim",
                Json::obj(vec![
                    ("cycles", Json::Int(s.cycles as i64)),
                    ("insts", Json::Int(s.insts as i64)),
                    ("calls", Json::Int(s.calls as i64)),
                    ("max_depth", Json::Int(s.max_depth as i64)),
                    ("save_restore_loads", Json::Int(s.save_restore_loads as i64)),
                    (
                        "save_restore_stores",
                        Json::Int(s.save_restore_stores as i64),
                    ),
                    ("spill_loads", Json::Int(s.spill_loads as i64)),
                    ("spill_stores", Json::Int(s.spill_stores as i64)),
                    ("penalty_cycles", Json::Int(s.penalty_cycles as i64)),
                    ("depth_hist", s.depth_hist.to_json()),
                    (
                        "call_edges",
                        Json::Arr(
                            s.call_edges
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("caller", Json::Str(e.caller.clone())),
                                        ("callee", Json::Str(e.callee.clone())),
                                        ("count", Json::Int(e.count as i64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        root.push((
            "penalty_by_edge",
            Json::Arr(
                self.penalty_by_edge
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("caller", Json::Str(e.caller.clone())),
                            ("callee", Json::Str(e.callee.clone())),
                            ("calls", Json::Int(e.calls as i64)),
                            ("sr_loads", Json::Int(e.sr_loads as i64)),
                            ("sr_stores", Json::Int(e.sr_stores as i64)),
                            ("spill_loads", Json::Int(e.spill_loads as i64)),
                            ("spill_stores", Json::Int(e.spill_stores as i64)),
                            ("penalty_cycles", Json::Int(e.penalty_cycles as i64)),
                            ("static_save_regs", Json::Int(e.static_save_regs as i64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        root.push(("metrics", self.metrics.to_json()));
        Json::Obj(root.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}
