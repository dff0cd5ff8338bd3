//! The one-pass inter-procedural driver (paper §2, §7).
//!
//! Processes the procedures of a module in a depth-first (bottom-up)
//! traversal of the call graph, so every closed procedure's register-usage
//! summary is available at its call sites when the callers are allocated.
//! Open procedures (paper §3) fall back to the default convention. The same
//! driver also runs the intra-procedural and no-allocation configurations,
//! which simply never consult summaries.
//!
//! # Wave scheduling
//!
//! The bottom-up invariant only orders a function after its callees;
//! functions whose callees are all summarized are mutually independent.
//! The driver therefore partitions the SCC condensation into levels
//! ([`SccInfo::levels`]) and runs each level as one wave of tasks. A
//! compile keeps one worker crew for its whole length: a single thread
//! scope whose `min(jobs, widest wave) − 1` helper threads, with `jobs`
//! resolved from [`AllocOptions::jobs`], are spawned at the first wave
//! with two or more tasks and live until the compile ends. Each wide wave
//! goes once to the helpers, and the driver thread draws tasks from the
//! same counter as they do. With one worker, or in a wave with fewer than
//! two tasks, the driver runs the tasks itself: no spawn, no channel.
//! Every compile takes this one path. The unit of work is the
//! *component*, not the function: members of a multi-node SCC see each
//! other's whole-tree usage in their processing order, so a task replays
//! that order against a private copy of the environment.
//!
//! Tasks only read the summary environment, behind a lock; the driver
//! writes it between waves, when no task runs.
//!
//! A task allocates and then lowers each member, so a function leaves
//! its task as one [`CachedFunc`] record: the same record an
//! incremental-cache hit replays. Its ranges, interference rows and call
//! plans die inside the task. Fresh and replayed records then take one
//! path: the driver publishes them to the summary environment, absorbs
//! the helpers' observability shards and builds the reports in `FuncId`
//! order, making output, reports, and traces independent of thread
//! scheduling and of the worker count.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::thread::Scope;

use ipra_callgraph::{CallGraph, OpenReason, Openness, SccInfo};
use ipra_ir::{hash_all_functions, EntityVec, FuncId, Module};
use ipra_machine::{MFunction, MModule, RegMask, Target};

use crate::alloc::{allocate_function_with, SummaryEnv};
use crate::analysis::{AnalysisCache, AnalysisStats};
use crate::cache::{component_key, config_fingerprint, AllocCache, CacheStats, CachedFunc};
use crate::config::{AllocMode, AllocOptions};
use crate::inline::{inline_hot_calls, InlineStats};
use crate::lower::lower_function_with;
use crate::normalize::normalize_entries;
use crate::pipeline::{numbering_key, Pipeline, PreparedModule};
use crate::promote::{promote_globals, PromotionStats};
use crate::scratch::{CompileScratch, ScratchPool};
use crate::summary::FuncSummary;

/// Per-function diagnostics of one compilation.
#[derive(Clone, Debug)]
pub struct FuncReport {
    /// Function name.
    pub name: String,
    /// Whether the function was treated as open, and why.
    pub open_reasons: Vec<OpenReason>,
    /// Whether forced open by [`AllocOptions::forced_open`].
    pub forced_open: bool,
    /// Registers the assignment uses.
    pub used: RegMask,
    /// Callee-saved registers saved locally.
    pub locally_saved: RegMask,
    /// Shrink-wrap range-extension iterations.
    pub shrink_iterations: u32,
    /// Virtual registers left fully in memory (referenced ones only).
    pub memory_vregs: usize,
    /// Virtual registers split between registers and memory.
    pub split_vregs: usize,
    /// Total referenced virtual registers.
    pub candidate_vregs: usize,
}

/// A fully compiled module, assembled from one [`CachedFunc`] record per
/// function, whether compiled in this run or replayed from the cache.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// Executable machine code.
    pub mmodule: MModule,
    /// Final summaries (default summaries for open procedures).
    pub summaries: Vec<FuncSummary>,
    /// Per-function diagnostics.
    pub reports: Vec<FuncReport>,
    /// Global-promotion statistics (zero when the pass is off).
    pub promotion: PromotionStats,
    /// What the profile-guided inliner did (default when the pass is off).
    pub inline: InlineStats,
    /// Incremental-cache outcome (default when no cache was configured).
    pub cache: CacheStats,
    /// Analysis-memo hits/misses within this compile (all misses for a
    /// one-shot compile; mostly hits on a warm [`Pipeline`] recompile).
    /// Summed from this compile's own lookups, so concurrent compiles
    /// sharing the pipeline never pollute each other's window.
    pub analysis: AnalysisStats,
}

impl CompiledModule {
    /// Per-function clobber masks for the simulator's convention checker:
    /// each summary's clobbers, which for an open procedure are the
    /// default convention's.
    pub fn clobber_masks(&self) -> Vec<RegMask> {
        self.summaries.iter().map(|s| s.clobbers).collect()
    }
}

/// One function's record, owned or shared with a cache entry. Without a
/// cache a fresh record is owned, so its code moves into the module; a
/// hit, and a fresh record the cache also stores, points into the shared
/// component entry (`Arc` + member index), so neither replay nor store
/// clones the entry per function.
enum FuncRecord {
    Owned(CachedFunc),
    Shared(Arc<Vec<CachedFunc>>, usize),
}

impl FuncRecord {
    fn get(&self) -> &CachedFunc {
        match self {
            FuncRecord::Owned(cf) => cf,
            FuncRecord::Shared(entry, m) => &entry[*m],
        }
    }

    fn into_code(self) -> MFunction {
        match self {
            FuncRecord::Owned(cf) => cf.code,
            FuncRecord::Shared(entry, m) => entry[m].code.clone(),
        }
    }
}

/// What a wave task adds to each fresh record: whether the analyses came
/// from the memo, and the function's trace shard.
type FreshExtras = (bool, ipra_obs::Trace);

/// Compiles a module under the given options.
pub fn compile_module(module: &Module, target: &Target, opts: &AllocOptions) -> CompiledModule {
    compile_module_with_profile(module, target, opts, None)
}

/// Compiles with measured per-`[function][block]` execution counts feeding
/// the priority function's weights — the profile feedback the paper lists
/// as future work ("knowledge of such profile data can enable the register
/// allocator to distribute saves/restores more optimally").
pub fn compile_module_with_profile(
    module: &Module,
    target: &Target,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
) -> CompiledModule {
    compile_module_impl(module, target, opts, profile, &Pipeline::one_shot())
}

/// The module-level front half of one compile: clone and transform the
/// input (entry normalization, optional global promotion, optional
/// profile-guided inlining), hash the transformed bodies, and build the
/// call graph, its SCC condensation and the openness classification.
/// Deterministic in the input (including the profile, which steers the
/// inliner when that pass is on), so [`Pipeline`] memoizes the whole
/// bundle by module hash plus inline configuration.
pub(crate) fn prepare_module(
    module: &Module,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
) -> PreparedModule {
    let mut module = module.clone();
    // Prologue code must run once per invocation, so entries may not be
    // branch targets (front ends guarantee this; generated IR may not).
    normalize_entries(&mut module);
    let promotion = if opts.promote_globals {
        promote_globals(&mut module)
    } else {
        PromotionStats::default()
    };
    // Inlining runs before the hashes and the call-graph phases below, so
    // the incremental cache, the analysis memo, the SCC condensation and
    // the openness classification all see the transformed bodies —
    // summary/body-hash invalidation falls out of the key derivation.
    let inline = if opts.inline {
        inline_hot_calls(&mut module, opts.inline_budget, &opts.forced_open, profile)
    } else {
        InlineStats::default()
    };

    // Structural hashes of the *transformed* bodies: both the incremental
    // cache and the analysis memo key on what the allocator actually sees.
    let body_hashes = hash_all_functions(&module);

    let cg = CallGraph::build(&module);
    let scc = SccInfo::compute(&cg);
    let openness = Openness::compute(&module, &cg, &scc);
    PreparedModule {
        from: None,
        module,
        promotion,
        inline,
        body_hashes,
        cg,
        scc,
        openness,
    }
}

/// The driver body behind both the one-shot entry points above and
/// [`Pipeline::compile`]. All memoized state (prepared module, analysis
/// memo, scratch pool, decoded cache entries) lives in `pipe`, so its
/// lifetime decides what a recompile can reuse.
pub(crate) fn compile_module_impl(
    module: &Module,
    target: &Target,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
    pipe: &Pipeline,
) -> CompiledModule {
    let prep = pipe.prepared(module, opts, profile);
    let module = &prep.module;
    let promotion = prep.promotion;
    let body_hashes = &prep.body_hashes;
    let (cg, scc, openness) = (&prep.cg, &prep.scc, &prep.openness);

    // Observability is re-emitted per compile even when the preparation
    // replayed from the memo, so traces stay identical across pipeline
    // temperature.
    ipra_obs::counter("promote.promoted", &[], promotion.promoted as u64);
    ipra_obs::counter(
        "promote.accesses_rewritten",
        &[],
        promotion.accesses_rewritten as u64,
    );
    if opts.inline {
        ipra_obs::counter("inline.sites_considered", &[], prep.inline.sites_considered);
        ipra_obs::counter("inline.inlined", &[], prep.inline.inlined);
        ipra_obs::counter("inline.budget_stops", &[], prep.inline.budget_stops);
    }
    scc.record_stats();
    openness.record_stats();

    // Flight-recorder shape of the traversal. Recorded from the SCC
    // structure itself (not from the scheduler) so every worker count
    // produces identical metrics.
    let waves = scc.levels(cg);
    if ipra_obs::is_enabled() {
        for comp in &scc.components {
            ipra_obs::observe("callgraph.scc_size", &[], comp.len() as u64);
        }
        for wave in &waves {
            ipra_obs::observe("wave.width", &[], wave.len() as u64);
        }
    }

    let inter = opts.mode == AllocMode::Inter;
    // The open/closed decision (paper §3) the cache key and the
    // allocator both read.
    let treated_open = |fid: FuncId| {
        !inter || opts.forced_open.contains(&module.funcs[fid].name) || openness.is_open(fid)
    };
    let n = module.funcs.len();
    // Tasks only read the environment; the driver publishes into it
    // between waves, when no task runs.
    let env = RwLock::new(SummaryEnv::default());

    // Incremental cache (see `crate::cache`). The per-wave lookup below
    // runs against the environment frozen at wave boundaries, so output
    // is bit-identical for any hit/miss pattern.
    let mut cache = opts.cache_dir.as_deref().map(AllocCache::load);
    let (fingerprint, numbering) = if cache.is_some() {
        (config_fingerprint(target, opts), numbering_key(module))
    } else {
        (0, 0)
    };
    let mut cache_stats = CacheStats {
        enabled: cache.is_some(),
        ..CacheStats::default()
    };
    let mut recompiled = vec![false; n];
    let mut stores: Vec<(u64, Arc<Vec<CachedFunc>>)> = Vec::new();
    let mut records: Vec<Option<FuncRecord>> = (0..n).map(|_| None).collect();
    // This compile's own analysis-memo window, summed from the per-
    // function hit flags. Diffing the shared memo counters would fold in
    // whatever concurrent compiles through the same pipeline did.
    let mut analysis = AnalysisStats::default();

    // One wave task: compile a component against the frozen environment.
    // The read guard is released before the result is reported.
    let tracing = ipra_obs::is_enabled();
    let task = |scratch: &mut CompileScratch, &(_, comp): &(usize, &[FuncId])| {
        let env = env.read().expect("no task runs while the driver publishes");
        compile_component(
            module,
            comp,
            target,
            opts,
            treated_open,
            &env,
            profile,
            tracing,
            &pipe.analyses,
            body_hashes,
            scratch,
        )
    };
    let widest = waves.iter().map(Vec::len).max().unwrap_or(0);
    let workers = opts.effective_jobs().min(widest);

    // Wave scheduler: every component of a level has all its callees
    // summarized, so a whole level runs at once. The environment is
    // frozen while a wave runs and updated between waves in FuncId
    // order, so results are independent of the worker count.
    std::thread::scope(|s| {
        let mut crew = Crew::new(s, workers, &pipe.scratch, &task);
        for wave in &waves {
            let comps: Vec<&[FuncId]> = wave
                .iter()
                .map(|&ci| scc.components[ci].as_slice())
                .collect();

            // Cache lookup, serial and deterministic, against the frozen
            // environment (every external callee lives in a lower wave).
            // The pipeline's in-memory entry image is consulted first; a
            // disk hit is decoded once and promoted into it, so a warm
            // recompile through a persistent [`Pipeline`] never rereads
            // or reparses the cache directory.
            let mut comp_keys = vec![0u64; comps.len()];
            let mut hits: Vec<Option<Arc<Vec<CachedFunc>>>> =
                (0..comps.len()).map(|_| None).collect();
            if let Some(c) = &cache {
                let env = env.read().expect("no task runs during the lookup");
                for (i, comp) in comps.iter().enumerate() {
                    let key = component_key(
                        module,
                        body_hashes,
                        comp,
                        treated_open,
                        fingerprint,
                        inter,
                        &env,
                        profile,
                    );
                    comp_keys[i] = key;
                    // The names guard against FNV collisions and stale
                    // entries; a mismatch is just a miss.
                    let matches = |funcs: &[CachedFunc]| {
                        funcs.len() == comp.len()
                            && funcs
                                .iter()
                                .zip(comp.iter())
                                .all(|(cf, &fid)| cf.name == module.funcs[fid].name)
                    };
                    let memo = pipe.entries.lock().unwrap().get(&(key, numbering)).cloned();
                    if let Some(funcs) = memo {
                        if matches(&funcs) {
                            hits[i] = Some(funcs);
                            continue;
                        }
                    }
                    if let Some(funcs) = c.lookup(key, module) {
                        if matches(&funcs) {
                            let funcs = Arc::new(funcs);
                            pipe.remember_entry((key, numbering), Arc::clone(&funcs));
                            hits[i] = Some(funcs);
                        }
                    }
                }
            }

            // The crew returns the misses in wave order; the queued
            // stores fix the entry memo's FIFO eviction order.
            let misses: Vec<(usize, &[FuncId])> = (0..comps.len())
                .filter(|&i| hits[i].is_none())
                .map(|i| (i, comps[i]))
                .collect();
            let fresh = crew.run(&misses);

            // One list per wave. With a cache, a fresh component becomes
            // the very entry a later compile replays, queued under its
            // lookup-time key; without one, its records stay owned.
            let mut merged: Vec<(FuncId, FuncRecord, Option<FreshExtras>)> =
                Vec::with_capacity(comps.iter().map(|c| c.len()).sum());
            for (i, entry) in hits.into_iter().enumerate() {
                if let Some(entry) = entry {
                    for (m, &fid) in comps[i].iter().enumerate() {
                        merged.push((fid, FuncRecord::Shared(Arc::clone(&entry), m), None));
                    }
                }
            }
            for (&(i, _), (funcs, extras)) in misses.iter().zip(fresh) {
                let members = comps[i].iter().copied().zip(extras);
                if cache.is_some() {
                    let entry = Arc::new(funcs);
                    for (m, (fid, x)) in members.enumerate() {
                        merged.push((fid, FuncRecord::Shared(Arc::clone(&entry), m), Some(x)));
                    }
                    stores.push((comp_keys[i], entry));
                } else {
                    for ((fid, x), cf) in members.zip(funcs) {
                        merged.push((fid, FuncRecord::Owned(cf), Some(x)));
                    }
                }
            }

            // Deterministic merge in FuncId order, so the environment,
            // observability records and counters come out independent of
            // thread scheduling.
            merged.sort_by_key(|(fid, _, _)| fid.index());
            let mut env = env.write().expect("no task runs between waves");
            for (fid, record, fresh) in merged {
                let cf = record.get();
                env.publish(fid, &cf.summary, cf.tree_used);
                if let Some((analysis_hit, shard)) = fresh {
                    ipra_obs::absorb(shard);
                    if analysis_hit {
                        analysis.hits += 1;
                    } else {
                        analysis.misses += 1;
                    }
                    recompiled[fid.index()] = true;
                    if cache.is_some() {
                        cache_stats.misses += 1;
                        cache_stats.recompiled.push(cf.name.clone());
                    }
                } else {
                    cache_stats.hits += 1;
                    // A hit whose direct callee was recompiled is an early
                    // cutoff: the callee changed but its summary bytes did
                    // not, so invalidation stopped here.
                    if cg.callees(fid).iter().any(|c| recompiled[c.index()]) {
                        cache_stats.cutoffs += 1;
                    }
                    // The replay shows as a `cache.hit` phase of the
                    // function's trace.
                    let _obs = ipra_obs::scope(&cf.name);
                    let _t = ipra_obs::span("cache.hit");
                }
                records[fid.index()] = Some(record);
            }
        }
        crew.finish();
    });

    // Store every miss, and mirror the store into the pipeline's entry
    // image so the next recompile through the same pipeline hits in memory.
    if let Some(cache) = &mut cache {
        for (key, entry) in stores {
            cache.insert(key, &entry, module);
            pipe.remember_entry((key, numbering), entry);
        }
        cache.save();
    }

    let mut funcs = EntityVec::new();
    let mut summaries = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for (fid, record) in module.funcs.ids().zip(records) {
        let record = record.expect("every function compiled");
        let cf = record.get();
        summaries.push(cf.summary.clone());
        reports.push(FuncReport {
            name: cf.name.clone(),
            open_reasons: openness.reasons(fid).to_vec(),
            forced_open: opts.forced_open.contains(&cf.name),
            used: cf.used,
            locally_saved: cf.locally_saved,
            shrink_iterations: cf.shrink_iterations,
            memory_vregs: cf.memory_vregs,
            split_vregs: cf.split_vregs,
            candidate_vregs: cf.candidate_vregs,
        });
        funcs.push(record.into_code());
    }

    CompiledModule {
        mmodule: MModule {
            funcs,
            globals: module.globals.clone(),
            main: module.main,
        },
        summaries,
        reports,
        promotion,
        inline: prep.inline.clone(),
        cache: cache_stats,
        analysis,
    }
}

/// One wide wave as the crew shares it: the task list and the counter
/// every worker draws its next task from.
struct Wave<I> {
    tasks: Vec<I>,
    /// Next task index. Only hands out tickets: the tasks reach the
    /// helpers through their channels, and results come back the same way.
    next: AtomicUsize,
}

impl<I> Wave<I> {
    /// Runs tasks until the counter passes the end, tagging each result
    /// with its task index.
    fn drain<T>(
        &self,
        work: &impl Fn(&mut CompileScratch, &I) -> T,
        scratch: &mut CompileScratch,
    ) -> Vec<(usize, T)> {
        let mut out = Vec::new();
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = self.tasks.get(t) else {
                return out;
            };
            out.push((t, work(scratch, task)));
        }
    }
}

/// What a helper reports for one wave: its results, or the payload of the
/// panic one of its tasks raised.
type Share<T> = std::thread::Result<Vec<(usize, T)>>;

/// The helpers of a running crew: one wave channel each, and the channel
/// they all report on.
struct Helpers<I, T> {
    waves: Vec<Sender<Arc<Wave<I>>>>,
    done: Receiver<Share<T>>,
}

/// One compile's workers: the driver thread and, from the first wave with
/// two or more tasks on, `workers − 1` helper threads in the compile's
/// thread scope. Dropping the crew closes the helpers' wave channels, so
/// they exit and the scope joins them — also when the driver unwinds.
struct Crew<'scope, 'env, I, T, F> {
    scope: &'scope Scope<'scope, 'env>,
    workers: usize,
    pool: &'scope ScratchPool,
    work: &'scope F,
    /// The driver's scratch, held for the whole compile.
    scratch: CompileScratch,
    helpers: Option<Helpers<I, T>>,
}

impl<'scope, 'env, I, T, F> Crew<'scope, 'env, I, T, F>
where
    I: Clone + Send + Sync + 'scope,
    T: Send + 'scope,
    F: Fn(&mut CompileScratch, &I) -> T + Sync,
{
    fn new(
        scope: &'scope Scope<'scope, 'env>,
        workers: usize,
        pool: &'scope ScratchPool,
        work: &'scope F,
    ) -> Self {
        Crew {
            scope,
            workers,
            pool,
            work,
            scratch: pool.acquire(),
            helpers: None,
        }
    }

    /// Runs one wave's tasks and returns their results in task order.
    /// With one worker, or fewer than two tasks, the driver runs them in
    /// order. Otherwise the wave goes once to each helper that can get a
    /// task, the driver drains it alongside them, and then takes exactly
    /// one report from each of those helpers; a helper's panic is resumed
    /// here.
    fn run(&mut self, tasks: &[I]) -> Vec<T> {
        if self.workers < 2 || tasks.len() < 2 {
            return tasks
                .iter()
                .map(|t| (self.work)(&mut self.scratch, t))
                .collect();
        }
        let (scope, workers, pool, work) = (self.scope, self.workers, self.pool, self.work);
        let helpers = self
            .helpers
            .get_or_insert_with(|| spawn_helpers(scope, workers - 1, pool, work));
        let wave = Arc::new(Wave {
            tasks: tasks.to_vec(),
            next: AtomicUsize::new(0),
        });
        let sent = helpers.waves.len().min(wave.tasks.len() - 1);
        for tx in &helpers.waves[..sent] {
            tx.send(Arc::clone(&wave))
                .expect("a helper serves until the crew drops");
        }
        let mut out = wave.drain(work, &mut self.scratch);
        for _ in 0..sent {
            match helpers
                .done
                .recv()
                .expect("a helper reports every wave it gets")
            {
                Ok(part) => out.extend(part),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        out.sort_by_key(|&(t, _)| t);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Returns the driver's scratch to the pool; each helper returns its
    /// own as it exits.
    fn finish(self) {
        self.pool.release(self.scratch);
    }
}

/// Spawns `count` helpers that each hold one scratch from `pool` and run
/// every wave they are sent until their channel closes. A helper catches
/// a task's panic, reports its payload and exits without pooling the
/// scratch the task may have left half-used.
fn spawn_helpers<'scope, I, T, F>(
    scope: &'scope Scope<'scope, '_>,
    count: usize,
    pool: &'scope ScratchPool,
    work: &'scope F,
) -> Helpers<I, T>
where
    I: Send + Sync + 'scope,
    T: Send + 'scope,
    F: Fn(&mut CompileScratch, &I) -> T + Sync,
{
    let (report, done) = mpsc::channel();
    let waves = (0..count)
        .map(|_| {
            let (tx, rx) = mpsc::channel::<Arc<Wave<I>>>();
            let report = report.clone();
            scope.spawn(move || {
                let mut scratch = pool.acquire();
                for wave in rx {
                    match panic::catch_unwind(AssertUnwindSafe(|| wave.drain(work, &mut scratch))) {
                        Ok(part) => {
                            // A closed report channel means the driver
                            // unwound: nothing more will be asked.
                            if report.send(Ok(part)).is_err() {
                                break;
                            }
                        }
                        Err(payload) => {
                            let _ = report.send(Err(payload));
                            return;
                        }
                    }
                }
                pool.release(scratch);
            });
            tx
        })
        .collect();
    Helpers { waves, done }
}

/// Compiles one SCC as a wave task: allocates each member, lowers it at
/// once, and returns the members' records with their fresh extras.
/// Members of a multi-node SCC observe each other's whole-tree register
/// usage in serial order, so the component replays that order against a
/// private copy of the environment (multi-node SCCs are rare; singletons
/// use the shared snapshot directly). Each member's observability records
/// are collected into a per-function shard for deterministic merging by
/// the driver.
#[allow(clippy::too_many_arguments)]
fn compile_component(
    module: &Module,
    comp: &[FuncId],
    target: &Target,
    opts: &AllocOptions,
    treated_open: impl Fn(FuncId) -> bool,
    env: &SummaryEnv,
    profile: Option<&[Vec<u64>]>,
    tracing: bool,
    analyses: &AnalysisCache,
    body_hashes: &[u64],
    scratch: &mut CompileScratch,
) -> (Vec<CachedFunc>, Vec<FreshExtras>) {
    let mut overlay = (comp.len() > 1).then(|| env.clone());
    let mut funcs = Vec::with_capacity(comp.len());
    let mut extras = Vec::with_capacity(comp.len());
    for &fid in comp {
        let func = &module.funcs[fid];
        // On a helper thread there is no sink: install one and return
        // its records as a shard. When the driver thread runs the task
        // (its share of a wide wave, or every task of a narrow one), the
        // driver's own sink is already installed and records flow into it
        // directly — enabling here would wipe it.
        let capture = tracing && !ipra_obs::is_enabled();
        if capture {
            ipra_obs::enable();
        }
        let (cf, analysis_hit) = {
            let _obs = ipra_obs::scope(&func.name);
            let art = allocate_function_with(
                module,
                fid,
                target,
                opts,
                treated_open(fid),
                overlay.as_ref().unwrap_or(env),
                profile.map(|p| p[fid.index()].as_slice()),
                analyses,
                body_hashes[fid.index()],
                scratch,
            );
            let code = {
                let _t = ipra_obs::span("lower");
                lower_function_with(module, func, target, &art, scratch)
            };
            (
                CachedFunc::new(func.name.clone(), &art, code),
                art.analysis_hit,
            )
        };
        let shard = if capture {
            ipra_obs::disable()
        } else {
            ipra_obs::Trace::default()
        };
        if let Some(ov) = overlay.as_mut() {
            ov.publish(fid, &cf.summary, cf.tree_used);
        }
        funcs.push(cf);
        extras.push((analysis_hit, shard));
    }
    (funcs, extras)
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex};
    use std::thread;

    use super::Crew;
    use crate::scratch::{CompileScratch, ScratchPool};

    /// Runs one wave of `n` tasks per entry of `waves` through a single
    /// crew of `workers`, as one compile does, and returns each wave's
    /// results.
    fn run_waves(
        workers: usize,
        waves: &[usize],
        work: impl Fn(&mut CompileScratch, &usize) -> usize + Sync,
    ) -> Vec<Vec<usize>> {
        let pool = ScratchPool::default();
        thread::scope(|s| {
            let mut crew = Crew::new(s, workers, &pool, &work);
            let out = waves
                .iter()
                .map(|&n| crew.run(&(0..n).collect::<Vec<_>>()))
                .collect();
            crew.finish();
            out
        })
    }

    #[test]
    fn crew_returns_every_task_exactly_once_in_task_order() {
        let counts = [0, 1, 2, 7];
        for workers in [1, 2, 4] {
            let got = run_waves(workers, &counts, |_, &t| t);
            for (&n, wave) in counts.iter().zip(&got) {
                assert_eq!(
                    *wave,
                    (0..n).collect::<Vec<_>>(),
                    "{workers} workers, {n} tasks"
                );
            }
        }
    }

    /// A latch that forces a task onto each side of the crew: one side
    /// waits in its first task until the other side opens it.
    #[derive(Default)]
    struct Gate(Mutex<bool>, Condvar);

    impl Gate {
        fn open(&self) {
            *self.0.lock().unwrap() = true;
            self.1.notify_all();
        }

        fn wait(&self) {
            let mut open = self.0.lock().unwrap();
            while !*open {
                open = self.1.wait(open).unwrap();
            }
        }
    }

    /// Runs one seven-task wave whose tasks call `on_driver` on the
    /// driver thread and `on_helper` on a helper, and reports whether the
    /// call panicked.
    fn wave_panics(
        workers: usize,
        on_driver: impl Fn(&Gate) + Sync,
        on_helper: impl Fn(&Gate) + Sync,
    ) -> bool {
        let driver = thread::current().id();
        let gate = Gate::default();
        let run = || {
            run_waves(workers, &[7], |_, &t| {
                if thread::current().id() == driver {
                    on_driver(&gate);
                } else {
                    on_helper(&gate);
                }
                t
            })
        };
        panic::catch_unwind(AssertUnwindSafe(run)).is_err()
    }

    #[test]
    fn a_panic_on_a_helper_surfaces_from_the_call() {
        for workers in [2, 4] {
            let panicked = wave_panics(workers, Gate::wait, |gate| {
                gate.open();
                panic!("helper task");
            });
            assert!(panicked, "{workers} workers");
        }
    }

    #[test]
    fn a_panic_in_the_drivers_share_surfaces_from_the_call() {
        for workers in [2, 4] {
            let panicked = wave_panics(
                workers,
                |gate| {
                    gate.open();
                    panic!("driver task");
                },
                Gate::wait,
            );
            assert!(panicked, "{workers} workers");
        }
    }
}
