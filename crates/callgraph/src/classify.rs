//! Open/closed procedure classification (paper §3).
//!
//! A procedure is *open* when the inter-procedural scheme cannot propagate
//! its register-usage information to all callers: some caller is processed
//! before it (cycles in the call graph) or is unknown (external visibility,
//! address-taken / indirect call targets, or the operating system in the
//! case of `main`). Open procedures use the default linkage convention.

use ipra_ir::{FuncId, Module};

use crate::graph::CallGraph;
use crate::scc::SccInfo;

/// Why a procedure was classified open. A procedure may be open for several
/// reasons; all are recorded for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpenReason {
    /// The program entry point — always called externally by the OS.
    Main,
    /// Marked externally visible (separate compilation).
    ExternalVisible,
    /// Address taken, so it may be called indirectly.
    AddressTaken,
    /// Sits on a call-graph cycle (direct or mutual recursion).
    Recursive,
}

impl std::fmt::Display for OpenReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OpenReason::Main => "program entry",
            OpenReason::ExternalVisible => "externally visible",
            OpenReason::AddressTaken => "address taken",
            OpenReason::Recursive => "recursive",
        };
        f.write_str(s)
    }
}

/// Open/closed classification for every function of a module.
#[derive(Clone, Debug)]
pub struct Openness {
    reasons: Vec<Vec<OpenReason>>,
}

impl Openness {
    /// Classifies all functions.
    pub fn compute(module: &Module, cg: &CallGraph, scc: &SccInfo) -> Self {
        let n = module.funcs.len();
        let mut reasons: Vec<Vec<OpenReason>> = vec![Vec::new(); n];
        for (id, f) in module.funcs.iter() {
            let i = id.index();
            if module.main == Some(id) {
                reasons[i].push(OpenReason::Main);
            }
            if f.attrs.external_visible {
                reasons[i].push(OpenReason::ExternalVisible);
            }
            if cg.address_taken[i] {
                reasons[i].push(OpenReason::AddressTaken);
            }
            if scc.on_cycle[i] {
                reasons[i].push(OpenReason::Recursive);
            }
        }
        Openness { reasons }
    }

    /// Reports the open/closed split to the observability sink.
    pub fn record_stats(&self) {
        ipra_obs::counter("callgraph.open_funcs", &[], self.num_open() as u64);
        ipra_obs::counter(
            "callgraph.closed_funcs",
            &[],
            self.reasons.iter().filter(|r| r.is_empty()).count() as u64,
        );
    }

    /// Whether `f` is open.
    pub fn is_open(&self, f: FuncId) -> bool {
        !self.reasons[f.index()].is_empty()
    }

    /// Whether `f` is closed (its summary is visible to every caller).
    pub fn is_closed(&self, f: FuncId) -> bool {
        !self.is_open(f)
    }

    /// The reasons `f` is open (empty for closed procedures).
    pub fn reasons(&self, f: FuncId) -> &[OpenReason] {
        &self.reasons[f.index()]
    }

    /// Number of open procedures.
    pub fn num_open(&self) -> usize {
        self.reasons.iter().filter(|r| !r.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;

    #[test]
    fn classification_covers_all_reasons() {
        let mut m = Module::new();
        let rec = m.declare_func("rec");
        let closed = m.declare_func("closed");
        let ext = m.declare_func("ext");
        let taken = m.declare_func("taken");
        {
            let mut b = FunctionBuilder::new("rec");
            b.call_void(rec, vec![]);
            b.ret(None);
            m.define_func(rec, b.build());
        }
        {
            let mut b = FunctionBuilder::new("closed");
            b.ret(None);
            m.define_func(closed, b.build());
        }
        {
            let mut b = FunctionBuilder::new("ext");
            b.set_external_visible();
            b.ret(None);
            m.define_func(ext, b.build());
        }
        {
            let mut b = FunctionBuilder::new("taken");
            b.ret(None);
            m.define_func(taken, b.build());
        }
        let mut b = FunctionBuilder::new("main");
        b.call_void(rec, vec![]);
        b.call_void(closed, vec![]);
        let p = b.func_addr(taken);
        let _ = b.call_indirect(p, vec![]);
        b.ret(None);
        let main = m.add_func(b.build());
        m.main = Some(main);

        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let open = Openness::compute(&m, &cg, &scc);

        assert!(open.is_open(main));
        assert_eq!(open.reasons(main), &[OpenReason::Main]);
        assert!(open.is_open(rec));
        assert_eq!(open.reasons(rec), &[OpenReason::Recursive]);
        assert!(open.is_open(ext));
        assert_eq!(open.reasons(ext), &[OpenReason::ExternalVisible]);
        assert!(open.is_open(taken));
        assert_eq!(open.reasons(taken), &[OpenReason::AddressTaken]);
        assert!(open.is_closed(closed), "plain callee stays closed");
        assert_eq!(open.num_open(), 4);
    }

    #[test]
    fn mutual_recursion_opens_both() {
        let mut m = Module::new();
        let a = m.declare_func("a");
        let b_id = m.declare_func("b");
        {
            let mut b = FunctionBuilder::new("a");
            b.call_void(b_id, vec![]);
            b.ret(None);
            m.define_func(a, b.build());
        }
        {
            let mut b = FunctionBuilder::new("b");
            b.call_void(a, vec![]);
            b.ret(None);
            m.define_func(b_id, b.build());
        }
        let cg = CallGraph::build(&m);
        let scc = SccInfo::compute(&cg);
        let open = Openness::compute(&m, &cg, &scc);
        assert!(open.is_open(a) && open.is_open(b_id));
    }
}
