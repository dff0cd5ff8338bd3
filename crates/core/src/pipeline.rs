//! A reusable compilation pipeline.
//!
//! [`crate::compile_module`] builds all of its working state from scratch
//! and drops it on return — fine for one-shot batch compiles, wasteful
//! for the recompile loops the incremental cache exists for (daemons,
//! convention sweeps, watch modes). [`Pipeline`] is the long-lived
//! counterpart: it owns the memoized per-function analyses
//! ([`AnalysisCache`]), the per-worker scratch buffers ([`ScratchPool`]),
//! and an in-memory image of decoded incremental-cache entries, all of
//! which survive from one [`Pipeline::compile`] call to the next.
//!
//! On a warm recompile a cache hit is then answered from the in-memory
//! entry (no file read, no JSON parse, no machine-code re-decode), an
//! unchanged function's analyses come back as a shared `Arc`, and the
//! allocator phases run inside recycled scratch — which is what drives
//! the heap-allocation reduction the `recompile_allocs` test pins.
//!
//! Output is bit-identical to the one-shot entry points for every
//! jobs/cache/scratch combination; the differential oracle compiles the
//! same seed through a reused pipeline and a fresh one and compares the
//! rendered machine code byte for byte.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_ir::{hash_module, Fnv64, Module};
use ipra_machine::Target;

use crate::analysis::{AnalysisCache, AnalysisStats};
use crate::cache::CachedFunc;
use crate::config::AllocOptions;
use crate::inline::InlineStats;
use crate::ipra::{compile_module_impl, prepare_module, CompiledModule};
use crate::promote::PromotionStats;
use crate::scratch::ScratchPool;

/// The module-level front half of a compile, memoized whole: the cloned
/// and transformed (entry-normalized, global-promoted) module together
/// with everything derived from it that every compile of the same input
/// recomputes verbatim — per-function body hashes, the call graph, its
/// SCC condensation and the openness classification.
#[derive(Debug)]
pub(crate) struct PreparedModule {
    /// What the module was prepared from, kept only when the pipeline
    /// memoizes it (see [`Pipeline::prepared`]).
    pub(crate) from: Option<PreparedFrom>,
    /// The transformed module all downstream passes read.
    pub(crate) module: Module,
    /// What global promotion did (zeros when the pass is off).
    pub(crate) promotion: PromotionStats,
    /// What the inliner did (default when the pass is off).
    pub(crate) inline: InlineStats,
    /// Structural hash of each transformed function body, by `FuncId`.
    pub(crate) body_hashes: Vec<u64>,
    /// Call graph of the transformed module.
    pub(crate) cg: CallGraph,
    /// SCC condensation of the call graph.
    pub(crate) scc: SccInfo,
    /// Open/closed classification (paper §3).
    pub(crate) openness: Openness,
}

/// What a memoized [`PreparedModule`] was prepared from: the exact input
/// module and every option that changes the transform. Stored in the memo
/// entry, it guards the memo against hash collisions with an equality
/// check.
#[derive(Debug)]
pub(crate) struct PreparedFrom {
    module: Module,
    /// Whether global promotion ran (it changes the transformed body).
    promote: bool,
    /// The inliner's budget and the profile it ranked sites with, or
    /// `None` when inlining was off. A different profile can pick
    /// different sites for the same input module.
    inline: Option<(u32, Option<Vec<Vec<u64>>>)>,
}

impl PreparedFrom {
    fn new(module: &Module, opts: &AllocOptions, profile: Option<&[Vec<u64>]>) -> PreparedFrom {
        PreparedFrom {
            module: module.clone(),
            promote: opts.promote_globals,
            inline: opts
                .inline
                .then(|| (opts.inline_budget, profile.map(<[_]>::to_vec))),
        }
    }

    fn matches(&self, module: &Module, opts: &AllocOptions, profile: Option<&[Vec<u64>]>) -> bool {
        let inline = match &self.inline {
            None => !opts.inline,
            Some((budget, p)) => {
                opts.inline && *budget == opts.inline_budget && p.as_deref() == profile
            }
        };
        self.promote == opts.promote_globals && inline && self.module == *module
    }
}

/// A FIFO-bounded memo: a map plus an insertion-order queue, evicting the
/// oldest entries once `cap` is exceeded. [`Pipeline::new`] leaves its
/// memos unbounded; a long-lived daemon caps both so serving an unbounded
/// stream of distinct modules cannot grow memory without bound. A
/// one-shot compile's pipeline stores nothing in them at all
/// ([`Pipeline::one_shot`]).
#[derive(Debug)]
pub(crate) struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Eq + Hash + Clone, V> BoundedMemo<K, V> {
    fn new(cap: usize) -> Self {
        BoundedMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
        }
        while self.map.len() > self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// Fingerprint of a module's function and global names in id order.
///
/// A component key names callees and globals by name, so it is the same
/// in every module that contains the component; a decoded entry's machine
/// code refers to them by id, in the numbering of the module it was
/// decoded for. The decoded-entry memo is keyed by both, so an entry is
/// replayed only into a module numbered the same way; any other module
/// decodes it again, by name.
pub(crate) fn numbering_key(module: &Module) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(module.funcs.len());
    for f in module.funcs.values() {
        h.write_str(&f.name);
    }
    h.write_usize(module.globals.len());
    for g in module.globals.values() {
        h.write_str(&g.name);
    }
    h.finish()
}

/// Key of the decoded-entry memo: the component key and the
/// [`numbering_key`] of the module the entry was decoded for.
type EntryKey = (u64, u64);

/// Long-lived compilation state: analysis memo, scratch pool, and the
/// in-memory incremental-cache image. Create one per daemon/JIT/bench
/// process and push every compile through it.
///
/// A `Pipeline` is `Send + Sync`: wave workers already share it within a
/// compile, and a compile daemon shares one across concurrent client
/// sessions — every memo sits behind its own lock, and compiles are
/// bit-identical no matter how the memos interleave.
#[derive(Debug)]
pub struct Pipeline {
    /// Per-function analyses memoized across compiles by body hash.
    pub(crate) analyses: AnalysisCache,
    /// Recycled per-worker scratch buffers.
    pub(crate) scratch: ScratchPool,
    /// Decoded incremental-cache entries by component key and
    /// [`numbering_key`], so a warm recompile never touches the cache
    /// directory again.
    pub(crate) entries: Mutex<BoundedMemo<EntryKey, Arc<Vec<CachedFunc>>>>,
    /// Prepared (transformed + module-level-analyzed) modules by
    /// whole-module hash plus inline configuration, so a warm recompile
    /// of an unchanged module skips the clone, the normalization /
    /// promotion / inlining passes and the call-graph work entirely —
    /// while an inline-config or profile change can never replay a stale
    /// transform.
    prepared: Mutex<BoundedMemo<(u64, bool, u64), Arc<PreparedModule>>>,
    /// Whether this pipeline serves a single compile and so stores
    /// nothing in its memos ([`Pipeline::one_shot`]).
    one_shot: bool,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new()
    }
}

// Compile-time proof that a Pipeline may be shared across daemon session
// threads (the field types make this true; this pins it against drift).
const _: fn() = || {
    fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Pipeline>();
};

impl Pipeline {
    /// An unbounded pipeline (tests, benches).
    pub fn new() -> Pipeline {
        Pipeline::with_memo_caps(usize::MAX, usize::MAX)
    }

    /// The pipeline of one [`crate::compile_module`] call. It dies with
    /// the compile, so nothing it memoized could ever be read again: it
    /// prepares the module without the memo or its guard copy, keeps no
    /// analyses and mirrors no cache entry. Only its scratch pool, which
    /// the compile's own functions reuse, does any work.
    pub(crate) fn one_shot() -> Pipeline {
        Pipeline {
            analyses: AnalysisCache::one_shot(),
            one_shot: true,
            ..Pipeline::new()
        }
    }

    /// A pipeline whose prepared-module and decoded-entry memos are
    /// FIFO-bounded to `prepared_cap` / `entries_cap` entries — the
    /// daemon configuration. The analysis memo needs no cap of its own:
    /// its entries are only reachable through prepared modules, so
    /// bounding those bounds its useful size, and stale analyses are
    /// never looked up again.
    pub fn with_memo_caps(prepared_cap: usize, entries_cap: usize) -> Pipeline {
        Pipeline {
            analyses: AnalysisCache::default(),
            scratch: ScratchPool::default(),
            entries: Mutex::new(BoundedMemo::new(entries_cap.max(1))),
            prepared: Mutex::new(BoundedMemo::new(prepared_cap.max(1))),
            one_shot: false,
        }
    }

    /// Current sizes of the (prepared-module, decoded-entry) memos, for
    /// daemon metrics gauges.
    pub fn memo_sizes(&self) -> (usize, usize) {
        (
            self.prepared.lock().unwrap().len(),
            self.entries.lock().unwrap().len(),
        )
    }

    /// Compiles a module, reusing any state earlier compiles left behind.
    pub fn compile(&self, module: &Module, target: &Target, opts: &AllocOptions) -> CompiledModule {
        compile_module_impl(module, target, opts, None, self)
    }

    /// The inline-configuration component of the prepared-module memo
    /// key: `0` when inlining is off (so profiles keep sharing one
    /// prepared module, as before), otherwise a hash of the budget and
    /// the full profile the inliner would consume.
    fn inline_key(opts: &AllocOptions, profile: Option<&[Vec<u64>]>) -> u64 {
        if !opts.inline {
            return 0;
        }
        let mut h = Fnv64::new();
        h.write_u8(1);
        h.write_u32(opts.inline_budget);
        match profile {
            Some(p) => {
                h.write_u8(1);
                h.write_usize(p.len());
                for counts in p {
                    h.write_usize(counts.len());
                    for &c in counts {
                        h.write_u64(c);
                    }
                }
            }
            None => h.write_u8(0),
        }
        h.finish()
    }

    /// Lifetime hit/miss totals of the analysis memo (each
    /// [`CompiledModule::analysis`] carries the per-compile window).
    pub fn analysis_stats(&self) -> AnalysisStats {
        self.analyses.stats()
    }

    /// The prepared form of `module` under `opts` (and, when inlining is
    /// on, `profile`), from the memo when the exact same input was
    /// prepared before. A colliding hash is caught by the stored
    /// [`PreparedFrom`] guard — covering the inline configuration and the
    /// exact profile — and recomputed (last write wins).
    pub(crate) fn prepared(
        &self,
        module: &Module,
        opts: &AllocOptions,
        profile: Option<&[Vec<u64>]>,
    ) -> Arc<PreparedModule> {
        if self.one_shot {
            return Arc::new(prepare_module(module, opts, profile));
        }
        let key = (
            hash_module(module),
            opts.promote_globals,
            Self::inline_key(opts, profile),
        );
        if let Some(p) = self.prepared.lock().unwrap().get(&key) {
            if p.from
                .as_ref()
                .is_some_and(|f| f.matches(module, opts, profile))
            {
                return Arc::clone(p);
            }
        }
        let mut p = prepare_module(module, opts, profile);
        p.from = Some(PreparedFrom::new(module, opts, profile));
        let p = Arc::new(p);
        self.prepared.lock().unwrap().insert(key, Arc::clone(&p));
        p
    }

    /// Mirrors a decoded or freshly compiled cache entry into the entry
    /// memo, so the next compile through this pipeline replays it from
    /// memory. A one-shot pipeline keeps none.
    pub(crate) fn remember_entry(&self, key: EntryKey, entry: Arc<Vec<CachedFunc>>) {
        if !self.one_shot {
            self.entries.lock().unwrap().insert(key, entry);
        }
    }
}
