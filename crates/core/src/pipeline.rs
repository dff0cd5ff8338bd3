//! A reusable compilation pipeline.
//!
//! [`crate::compile_module`] builds all of its working state from scratch
//! and drops it on return — fine for one-shot batch compiles, wasteful
//! for the recompile loops the incremental cache exists for (daemons,
//! convention sweeps, watch modes). [`Pipeline`] is the long-lived
//! counterpart: it owns the prepared-module memo, the component memo
//! (every component it compiled or decoded, whatever cache directory the
//! compile named, if any) and the per-worker scratch buffers
//! ([`ScratchPool`]), all of which survive from one [`Pipeline::compile`]
//! call to the next.
//!
//! On a warm recompile an unchanged module's preparation comes back
//! whole, every component whose key is unchanged replays from memory
//! (no allocation, no file read, no JSON parse, no machine-code
//! re-decode), and the components that do change are allocated inside
//! recycled scratch — which is what drives the heap-allocation reduction
//! the `recompile_allocs` test pins. Analyses are not memoized: each
//! compile computes those of the functions it allocates and drops them.
//! Both memos are FIFO-bounded in a daemon, so its memory is too.
//!
//! Output is bit-identical to the one-shot entry points for every
//! jobs/cache/scratch combination; the differential oracle compiles the
//! same seed through a reused pipeline and a fresh one and compares the
//! rendered machine code byte for byte.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::path::Path;
use std::sync::{Arc, Mutex};

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_ir::{hash_module, Fnv64, Module};
use ipra_machine::Target;

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
/// in every module that contains the component; a memoized entry's
/// machine code refers to them by id, in the numbering of the module it
/// was compiled or decoded for. The component memo is keyed by both, so
/// an entry is replayed only into a module numbered the same way; any
/// other module allocates the component again, or decodes it by name
/// from the cache directory.
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

/// Fingerprint of the cache directory a compile names, or of none.
///
/// Part of the component memo's key, so an entry answers only compiles
/// naming the directory it was compiled or decoded for. A compile naming
/// another directory misses the memo and reads and writes its own
/// directory, so every directory ends up holding what its compiles
/// produced. A collision could only skip a directory's disk tier, never
/// change the code.
pub(crate) fn directory_key(dir: Option<&Path>) -> u64 {
    let mut h = Fnv64::new();
    match dir {
        Some(d) => {
            h.write_u8(1);
            h.write_bytes(d.as_os_str().as_encoded_bytes());
        }
        None => h.write_u8(0),
    }
    h.finish()
}

/// Key of the component memo: the component key, the [`numbering_key`]
/// of the module the entry belongs to, and the [`directory_key`] of the
/// compile that produced it.
type EntryKey = (u64, u64, u64);

/// Long-lived compilation state: prepared-module memo, component memo
/// and scratch pool. Create one per daemon/JIT/bench process and push
/// every compile through it.
///
/// A `Pipeline` is `Send + Sync`: wave workers already share it within a
/// compile, and a compile daemon shares one across concurrent client
/// sessions — every memo sits behind its own lock, and compiles are
/// bit-identical no matter how the memos interleave.
#[derive(Debug)]
pub struct Pipeline {
    /// Recycled per-worker scratch buffers.
    pub(crate) scratch: ScratchPool,
    /// Every component this pipeline compiled, or decoded from a cache
    /// directory, by [`EntryKey`]: the first tier of the incremental
    /// cache, in front of the directory, so a warm recompile neither
    /// allocates nor touches the directory again.
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
    pub(crate) one_shot: bool,
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
    /// prepares the module without the memo or its guard copy and keeps
    /// no component. Only its scratch pool, which the compile's own
    /// functions reuse, does any work.
    pub(crate) fn one_shot() -> Pipeline {
        Pipeline {
            one_shot: true,
            ..Pipeline::new()
        }
    }

    /// A pipeline whose prepared-module and component memos are
    /// FIFO-bounded to `prepared_cap` / `entries_cap` entries — the
    /// daemon configuration. Nothing else it keeps grows with the number
    /// of modules served, so these two caps bound its memory.
    pub fn with_memo_caps(prepared_cap: usize, entries_cap: usize) -> Pipeline {
        Pipeline {
            scratch: ScratchPool::default(),
            entries: Mutex::new(BoundedMemo::new(entries_cap.max(1))),
            prepared: Mutex::new(BoundedMemo::new(prepared_cap.max(1))),
            one_shot: false,
        }
    }

    /// Current sizes of the (prepared-module, component) memos, for
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

    /// The shared entry of a component's records, compiled or decoded.
    /// One this pipeline will keep holds its machine code at exact
    /// capacity, so the memo pays for no slack left by lowering or
    /// decoding.
    pub(crate) fn shared_entry(&self, mut funcs: Vec<CachedFunc>) -> Arc<Vec<CachedFunc>> {
        if !self.one_shot {
            for cf in &mut funcs {
                cf.code.shrink_to_fit();
            }
        }
        Arc::new(funcs)
    }

    /// Keeps a decoded or freshly compiled component entry, so the next
    /// compile of it through this pipeline replays it from memory. A
    /// one-shot pipeline keeps none.
    pub(crate) fn remember_entry(&self, key: EntryKey, entry: Arc<Vec<CachedFunc>>) {
        if !self.one_shot {
            self.entries.lock().unwrap().insert(key, entry);
        }
    }
}
