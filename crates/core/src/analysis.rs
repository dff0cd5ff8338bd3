//! Per-function analyses, computed once per use and optionally memoized.
//!
//! Every allocator phase reads the same four analyses — CFG, dominators,
//! loop nesting, liveness. [`FuncAnalyses`] bundles them into one
//! immutable value computed once, and [`AnalysisCache`] memoizes that
//! value for as long as the cache lives, keyed by the function's
//! structural body hash ([`ipra_ir::hash_function`]): a second lookup of
//! an unedited function costs one hash lookup and an `Arc` clone instead
//! of four dataflow solves. The compiler itself uses a one-shot cache,
//! which keeps nothing and ignores the key: across compiles a
//! [`crate::Pipeline`] replays whole compiled components, so an unchanged
//! function needs no analyses at all. Only a caller that allocates the
//! same body more than once, such as a staged replay of the pipeline's
//! phases, fills the memo.
//!
//! The hash is exactly the invalidation rule. It covers the function name,
//! attributes, parameters, vreg table and every block, so any edit that
//! could change an analysis changes the key; the stale entry is simply
//! never looked up again. Entries are shared (`Arc`), so concurrent
//! compiles reading the same function's analyses never copy them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ipra_cfg::{Cfg, Dominators, Liveness, LoopInfo};
use ipra_ir::Function;

/// The per-function analyses the allocator pipeline consumes.
#[derive(Clone, Debug)]
pub struct FuncAnalyses {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: Dominators,
    /// Loop nesting.
    pub loops: LoopInfo,
    /// Per-block liveness.
    pub liveness: Liveness,
}

impl FuncAnalyses {
    /// Computes all four analyses for `func`. This is the single compute
    /// path: every phase (allocation, shrink-wrapping, lowering, tests)
    /// reads the bundle instead of re-deriving its own copies.
    pub fn compute(func: &Function) -> FuncAnalyses {
        let cfg = Cfg::new(func);
        let dom = Dominators::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let liveness = Liveness::compute(func, &cfg);
        FuncAnalyses {
            cfg,
            dom,
            loops,
            liveness,
        }
    }
}

/// Memo of [`FuncAnalyses`] keyed by structural body hash.
///
/// Thread-safe, so one memo may serve concurrent compiles. Within one
/// compile each function is looked up at most once and function names
/// are part of the hash, so distinct functions never share a key.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    map: Mutex<HashMap<u64, Arc<FuncAnalyses>>>,
    /// Computes without looking up or storing, so the key is ignored:
    /// the compiler's own memo, since a compile allocates each body at
    /// most once.
    one_shot: bool,
}

impl AnalysisCache {
    /// The memo the compiler allocates through: every lookup computes,
    /// nothing is kept, and the key is never read.
    pub(crate) fn one_shot() -> AnalysisCache {
        AnalysisCache {
            one_shot: true,
            ..AnalysisCache::default()
        }
    }

    /// Returns the memoized analyses for `body_hash`, computing (and
    /// remembering) them from `func` on a miss.
    pub fn get_or_compute(&self, body_hash: u64, func: &Function) -> Arc<FuncAnalyses> {
        if self.one_shot {
            return Arc::new(FuncAnalyses::compute(func));
        }
        if let Some(a) = self.map.lock().unwrap().get(&body_hash) {
            return Arc::clone(a);
        }
        // Compute outside the lock so a large function never stalls
        // other threads' lookups.
        let a = Arc::new(FuncAnalyses::compute(func));
        self.map
            .lock()
            .unwrap()
            .entry(body_hash)
            .or_insert_with(|| Arc::clone(&a));
        a
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{hash_function, BinOp, Module};

    fn demo() -> Module {
        let mut m = Module::new();
        let f = m.declare_func("f");
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x");
        let y = b.bin(BinOp::Add, x, 1);
        b.ret(Some(y.into()));
        m.define_func(f, b.build());
        m.main = Some(f);
        m
    }

    #[test]
    fn memo_hits_on_same_hash_and_misses_after_edit() {
        let m = demo();
        let fid = ipra_ir::FuncId(0);
        let cache = AnalysisCache::default();
        let h = hash_function(&m, fid);

        let a1 = cache.get_or_compute(h, &m.funcs[fid]);
        let a2 = cache.get_or_compute(h, &m.funcs[fid]);
        assert!(Arc::ptr_eq(&a1, &a2), "hit shares the same analyses");
        assert_eq!(cache.len(), 1);

        // An edit changes the hash, so the memo recomputes.
        let mut m2 = demo();
        m2.funcs[fid].new_named_vreg("__edited");
        let h2 = hash_function(&m2, fid);
        assert_ne!(h, h2);
        let a3 = cache.get_or_compute(h2, &m2.funcs[fid]);
        assert!(!Arc::ptr_eq(&a1, &a3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn compute_matches_direct_analyses() {
        let m = demo();
        let f = &m.funcs[ipra_ir::FuncId(0)];
        let an = FuncAnalyses::compute(f);
        let cfg = Cfg::new(f);
        assert_eq!(an.cfg.rpo, cfg.rpo);
        let live = Liveness::compute(f, &cfg);
        assert_eq!(an.liveness.live_in, live.live_in);
        assert_eq!(an.liveness.live_out, live.live_out);
    }
}
