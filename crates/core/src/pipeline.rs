//! A reusable compilation pipeline.
//!
//! [`crate::compile_module`] builds all of its working state from scratch
//! and drops it on return — fine for one-shot batch compiles, wasteful
//! for the recompile loops the incremental cache exists for (daemons,
//! convention sweeps, watch modes). [`Pipeline`] is the long-lived
//! counterpart: it owns the prepared-module memo (keyed by the source
//! text a compile starts from), the component memo (every component it
//! compiled or decoded, whatever cache directory the compile named, if
//! any) and the per-compile scratch buffers ([`ScratchPool`]), all of
//! which survive from one compile to the next.
//!
//! On a warm recompile through [`Pipeline::compile_source`] unchanged
//! text skips the front end and its preparation comes back whole, every
//! component whose key is unchanged replays from memory (no allocation,
//! no file read, no JSON parse, no machine-code re-decode), and the
//! components that do change are allocated inside recycled scratch —
//! which is what drives the heap-allocation reduction the
//! `recompile_allocs` test pins. [`Pipeline::compile`], for callers that
//! hold only a module, prepares it afresh and then takes the same
//! component lookups. Analyses are not memoized: each compile computes
//! those of the functions it allocates and drops them. Both memos are
//! FIFO-bounded in a daemon, so its memory is too. All three caches
//! survive a compile that panicked while holding one: a lock poisoned by
//! the panic empties its cache, and later compiles refill it.
//!
//! Output is bit-identical to the one-shot entry points for every
//! cache/scratch combination; the differential oracle compiles the
//! same seed through a reused pipeline and a fresh one and compares the
//! rendered machine code byte for byte.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use ipra_callgraph::{CallGraph, Openness, SccInfo};
use ipra_ir::{Fnv64, Module};
use ipra_machine::Target;

use crate::cache::CachedFunc;
use crate::config::AllocOptions;
use crate::inline::InlineStats;
use crate::ipra::{compile_prepared, prepare_module, CompiledModule};
use crate::promote::PromotionStats;
use crate::scratch::ScratchPool;

/// The module-level front half of a compile, memoized whole: the
/// transformed (entry-normalized, global-promoted, inlined) module
/// together with everything derived from it that every compile of the
/// same input recomputes verbatim — per-function body hashes, the call
/// graph, its SCC condensation and the openness classification.
#[derive(Debug)]
pub(crate) struct PreparedModule {
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

/// What a memoized [`PreparedModule`] was prepared from: the exact source
/// text and every option that changes the transform. Stored beside it in
/// the memo entry, it guards the memo against hash collisions with an
/// equality check. The text is the whole guard for the input, so an
/// entry holds no copy of the module.
#[derive(Debug)]
struct PreparedFrom {
    text: Box<str>,
    /// Whether global promotion ran (it changes the transformed body).
    promote: bool,
    /// The inliner's budget and the names forced open, or `None` when
    /// inlining was off. The inliner never inlines a forced-open callee,
    /// so another set can splice other sites into the same text.
    inline: Option<(u32, HashSet<String>)>,
}

impl PreparedFrom {
    fn new(text: &str, opts: &AllocOptions) -> PreparedFrom {
        PreparedFrom {
            text: text.into(),
            promote: opts.promote_globals,
            inline: opts
                .inline
                .then(|| (opts.inline_budget, opts.forced_open.clone())),
        }
    }

    fn matches(&self, text: &str, opts: &AllocOptions) -> bool {
        let inline = match &self.inline {
            None => !opts.inline,
            Some((budget, forced)) => {
                opts.inline && *budget == opts.inline_budget && *forced == opts.forced_open
            }
        };
        self.promote == opts.promote_globals && inline && *self.text == *text
    }
}

/// Key of the prepared-module memo: a hash of the source text, whether
/// global promotion runs, and the [`inline_key`].
type SourceKey = (u64, bool, u64);

/// The hash of a compile's source text, the first part of its
/// [`SourceKey`].
fn text_key(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(text);
    h.finish()
}

/// The inline part of the prepared-module memo's key: `0` when inlining
/// is off, since then no option but promotion changes the transform;
/// otherwise a hash of the budget and the names forced open, sorted so
/// the key does not depend on the set's iteration order.
fn inline_key(opts: &AllocOptions) -> u64 {
    if !opts.inline {
        return 0;
    }
    let mut forced: Vec<&String> = opts.forced_open.iter().collect();
    forced.sort_unstable();
    let mut h = Fnv64::new();
    h.write_u8(1);
    h.write_u32(opts.inline_budget);
    h.write_usize(forced.len());
    for name in forced {
        h.write_str(name);
    }
    h.finish()
}

/// Locks one of a [`Pipeline`]'s caches: the prepared-module memo, the
/// component memo or the scratch pool. A thread that panicked while
/// holding the lock may have left the cache half-written, so a poisoned
/// cache is emptied with `clear`, its lock's poison is cleared, and the
/// caller goes on. A cache only ever saves work, so emptying one costs
/// recomputation, never a wrong answer.
pub(crate) fn lock_cache<T>(cache: &Mutex<T>, clear: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    cache.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        clear(&mut guard);
        cache.clear_poison();
        guard
    })
}

/// A FIFO-bounded memo: a map plus an insertion-order queue, evicting the
/// oldest entries once `cap` is exceeded. [`Pipeline::new`] leaves its
/// memos unbounded; a long-lived daemon caps both so serving an unbounded
/// stream of distinct modules cannot grow memory without bound. A
/// one-shot compile's pipeline stores nothing in them at all
/// ([`Pipeline::one_shot`]).
#[derive(Debug)]
struct BoundedMemo<K, V> {
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

    /// Locks `memo`, emptying it first if it was poisoned ([`lock_cache`]).
    fn lock(memo: &Mutex<Self>) -> MutexGuard<'_, Self> {
        lock_cache(memo, Self::clear)
    }

    fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    fn insert(&mut self, key: K, value: V) {
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

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
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
/// every compile through it, from source text where there is one
/// ([`Pipeline::compile_source`]).
///
/// A `Pipeline` is `Send + Sync`: a compile daemon shares one across
/// concurrent client sessions — every memo sits behind its own lock, and
/// compiles are bit-identical no matter how the memos interleave.
#[derive(Debug)]
pub struct Pipeline {
    /// Recycled per-compile scratch buffers.
    pub(crate) scratch: ScratchPool,
    /// Every component this pipeline compiled, or decoded from a cache
    /// directory, by [`EntryKey`]: the first tier of the incremental
    /// cache, in front of the directory, so a warm recompile neither
    /// allocates nor touches the directory again.
    entries: Mutex<BoundedMemo<EntryKey, Arc<Vec<CachedFunc>>>>,
    /// Prepared (transformed + module-level-analyzed) modules by
    /// [`SourceKey`], each beside the exact text and options it was
    /// prepared from. A warm compile of unchanged text skips the front
    /// end, the normalization / promotion / inlining passes and the
    /// call-graph work entirely, while a promotion, inline-budget or
    /// forced-open change can never replay a stale transform. Only
    /// [`Pipeline::compile_source`] reads or fills it.
    prepared: Mutex<BoundedMemo<SourceKey, (PreparedFrom, Arc<PreparedModule>)>>,
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
    /// keeps no component, and the compile prepares its module without
    /// the prepared-module memo. Only its scratch pool, which the
    /// compile's own functions reuse, does any work.
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
            BoundedMemo::lock(&self.prepared).len(),
            BoundedMemo::lock(&self.entries).len(),
        )
    }

    /// Compiles the module `front_end` makes of `text`, reusing any state
    /// earlier compiles left behind.
    ///
    /// The prepared-module memo is keyed by the text itself, so a text
    /// this pipeline prepared before under the same promotion and inline
    /// options calls no front end and goes straight to the component
    /// lookups. On a miss, the front end's module moves into preparation:
    /// no copy of it is made or kept, and the entry's collision guard is
    /// the text. `front_end` must be a pure function of the text, such as
    /// `ipra_frontend::compile`; it is passed in so this crate does not
    /// depend on a front end.
    ///
    /// # Errors
    ///
    /// Whatever `front_end` returns for `text`. A rejected text is not
    /// memoized, so a later compile of it calls `front_end` again.
    pub fn compile_source<E>(
        &self,
        text: &str,
        front_end: impl FnOnce(&str) -> Result<Module, E>,
        target: &Target,
        opts: &AllocOptions,
    ) -> Result<CompiledModule, E> {
        let key = (text_key(text), opts.promote_globals, inline_key(opts));
        let hit = BoundedMemo::lock(&self.prepared)
            .get(&key)
            .filter(|(from, _)| from.matches(text, opts))
            .map(|(_, prep)| Arc::clone(prep));
        let prep = match hit {
            Some(prep) => prep,
            None => {
                let mut prep = prepare_module(front_end(text)?, opts, None);
                // The memo keeps the front end's own module, transformed,
                // so it drops the slack that building it left.
                prep.module.shrink_to_fit();
                let prep = Arc::new(prep);
                let from = PreparedFrom::new(text, opts);
                BoundedMemo::lock(&self.prepared).insert(key, (from, Arc::clone(&prep)));
                prep
            }
        };
        Ok(compile_prepared(&prep, target, opts, None, self))
    }

    /// Compiles a module that has no source text. It is prepared afresh,
    /// from a copy, without the prepared-module memo; its components are
    /// looked up in and kept in the component memo as in
    /// [`Pipeline::compile_source`].
    pub fn compile(&self, module: &Module, target: &Target, opts: &AllocOptions) -> CompiledModule {
        let prep = prepare_module(module.clone(), opts, None);
        compile_prepared(&prep, target, opts, None, self)
    }

    /// The component memo's entry under `key`, if it holds one.
    pub(crate) fn memo_entry(&self, key: &EntryKey) -> Option<Arc<Vec<CachedFunc>>> {
        BoundedMemo::lock(&self.entries).get(key).cloned()
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
            BoundedMemo::lock(&self.entries).insert(key, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::Mutex;
    use std::thread;

    use ipra_machine::Target;

    use super::Pipeline;
    use crate::config::AllocOptions;
    use crate::ipra::compile_module;

    /// Poisons `lock` by panicking in a thread that holds it.
    fn poison<T: Send>(lock: &Mutex<T>) {
        thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = lock.lock();
                panic!("poisoning a pipeline cache on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(lock.is_poisoned());
    }

    #[test]
    fn a_poisoned_cache_is_emptied_and_refilled() {
        let source = ipra_workloads::by_name("nim").unwrap().source;
        let target = Target::mips_like();
        let opts = AllocOptions::o3();
        let module = ipra_frontend::compile(source).unwrap();
        let want = compile_module(&module, &target, &opts)
            .mmodule
            .asm(&target.regs);
        let calls = Cell::new(0);
        // Compiles `source` through `pipe` and returns (front-end calls,
        // allocated functions).
        let compile = |pipe: &Pipeline| {
            calls.set(0);
            let front_end = |text: &str| {
                calls.set(calls.get() + 1);
                ipra_frontend::compile(text)
            };
            let got = pipe
                .compile_source(source, front_end, &target, &opts)
                .unwrap();
            assert!(
                got.mmodule.asm(&target.regs) == want,
                "asm differs from a one-shot compile"
            );
            (calls.get(), got.cache.misses)
        };
        let funcs = module.funcs.len() as u64;
        for (cache, refill) in [
            ("prepared", (1, 0)),
            ("entries", (0, funcs)),
            ("scratch", (0, 0)),
        ] {
            let pipe = Pipeline::new();
            assert_eq!(compile(&pipe), (1, funcs));
            let full = pipe.memo_sizes();
            match cache {
                "prepared" => poison(&pipe.prepared),
                "entries" => poison(&pipe.entries),
                _ => poison(&pipe.scratch.free),
            }
            assert_eq!(
                compile(&pipe),
                refill,
                "{cache}: work redone after the poisoning"
            );
            assert_eq!(pipe.memo_sizes(), full, "{cache}: memos refilled");
            assert_eq!(
                pipe.scratch.free.lock().unwrap().len(),
                1,
                "{cache}: scratch pooled"
            );
            assert!(!pipe.prepared.is_poisoned() && !pipe.entries.is_poisoned());
            assert_eq!(compile(&pipe), (0, 0), "{cache}: the next compile replays");
        }
    }
}
