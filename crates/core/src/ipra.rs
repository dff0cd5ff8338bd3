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
//! ([`SccInfo::levels`]) and runs each level as one wave of tasks. A wave
//! is handed off only when its *spare work* reaches `HANDOFF_MIN_WORK`:
//! the weight of its tasks (each member's instructions plus block
//! terminators) minus its heaviest task, which bounds what other workers
//! can take off the driver. Such a wave opens its own thread scope with
//! `min(jobs, tasks) − 1` helper threads, `jobs` resolved from
//! [`AllocOptions::jobs`], and the driver thread draws tasks from the
//! same counter as they do, then joins them. With one worker, or in a
//! wave below the gate, the driver runs the tasks itself and opens no
//! scope. The gate reads only the prepared module, so every worker count
//! still produces the same bytes. Every compile takes this one path. The
//! unit of work is the *component*, not the function: members of a
//! multi-node SCC see each other's whole-tree usage in their processing
//! order, so a task replays that order against a private copy of the
//! environment.
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

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

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
use crate::pipeline::{directory_key, numbering_key, Pipeline, PreparedModule};
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
    /// Incremental-cache outcome: the component memo's and the cache
    /// directory's (default for a one-shot compile without a directory).
    pub cache: CacheStats,
    /// This compile's analysis lookups: analyses are not memoized across
    /// compiles, so every function it allocated is one miss and a
    /// replayed function is none. Counted by this compile's own memo, so
    /// concurrent compiles sharing a pipeline never pollute each other's
    /// window.
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

/// One function's record, owned or shared with a component entry. A
/// compile that looks no component up (a one-shot compile without a
/// cache directory) owns its fresh records, so their code moves into the
/// module; a hit, and a fresh record the memo or the cache also keeps,
/// points into the shared component entry (`Arc` + member index), so
/// neither replay nor store clones the entry per function.
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

/// Least spare work, in weight units (see [`component_weight`]), a wave
/// must have before the driver hands it to helpers.
///
/// Derived from costs measured on a 2-core KVM guest (medians of 2,000,
/// quartiles in brackets). A handed-off wave opens a fresh thread scope
/// and spawns and joins its helpers; for one helper that costs J = 47.7
/// [45.8, 50.0] µs back to back (44.2 [40.1, 51.0] in a second run), as
/// much as a spawn plus join inside an already open scope, and up to
/// 80.2 [72.3, 90.2] µs when 200 µs of driver work separate the samples.
/// The serial compile cost per weight unit of the wave tasks is c =
/// 1.22–1.96 µs across the corpus under C at `jobs = 1`. Timed the same
/// way at `jobs = 2`, the driver's tasks cost 1.24–2.15 µs per unit and
/// the helper's 1.32–5.28, so two workers finish 1.29–1.91 times the
/// serial rate, and handing off a wave of similar tasks saves
/// `1 − 1/rate` of its serial time. A wave pays for its hand-off when
/// `spare · c · (1 − 1/rate) ≥ J`: 79 units with every cost at its
/// median, 186 with J at its back-to-back upper quartile, the cheapest c
/// and the lowest rate, and 329 with J at 90.2 µs. Between these and the
/// constant lie the largest corpus and seeded `cold-compile` waves
/// (324–423 units, under inline/C); a lower constant would hand those
/// off, and their timing at two workers has not been measured.
const HANDOFF_MIN_WORK: usize = 512;

/// A component's weight: the instructions plus block terminators of its
/// members' prepared bodies.
fn component_weight(module: &Module, comp: &[FuncId]) -> usize {
    comp.iter()
        .map(|&fid| module.funcs[fid].num_insts() + module.funcs[fid].num_blocks())
        .sum()
}

/// Whether a wave whose tasks weigh `weights` pays for handing it to the
/// helpers: its spare work, the total weight minus the heaviest task,
/// reaches [`HANDOFF_MIN_WORK`]. A one-task wave has no spare work.
fn pays_for_handoff(weights: impl IntoIterator<Item = usize>) -> bool {
    let (total, heaviest) = weights
        .into_iter()
        .fold((0, 0), |(total, heaviest), w| (total + w, heaviest.max(w)));
    total - heaviest >= HANDOFF_MIN_WORK
}

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
    let prep = prepare_module(module.clone(), opts, profile);
    compile_prepared(&prep, target, opts, profile, &Pipeline::one_shot())
}

/// The module-level front half of one compile: transform the module
/// (entry normalization, optional global promotion, optional
/// profile-guided inlining) in place, hash the transformed bodies, and
/// build the call graph, its SCC condensation and the openness
/// classification. Deterministic in the input (including the profile,
/// which steers the inliner when that pass is on), so
/// [`Pipeline::compile_source`] memoizes the whole bundle by source text
/// plus promotion and inline configuration.
pub(crate) fn prepare_module(
    mut module: Module,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
) -> PreparedModule {
    // Prologue code must run once per invocation, so entries may not be
    // branch targets (front ends guarantee this; generated IR may not).
    normalize_entries(&mut module);
    let promotion = if opts.promote_globals {
        promote_globals(&mut module)
    } else {
        PromotionStats::default()
    };
    // Inlining runs before the hashes and the call-graph phases below, so
    // the incremental cache, the SCC condensation and the openness
    // classification all see the transformed bodies — summary/body-hash
    // invalidation falls out of the key derivation.
    let inline = if opts.inline {
        inline_hot_calls(&mut module, opts.inline_budget, &opts.forced_open, profile)
    } else {
        InlineStats::default()
    };

    // Structural hashes of the *transformed* bodies: the incremental
    // cache keys on what the allocator actually sees.
    let body_hashes = hash_all_functions(&module);

    let cg = CallGraph::build(&module);
    let scc = SccInfo::compute(&cg);
    let openness = Openness::compute(&module, &cg, &scc);
    PreparedModule {
        module,
        promotion,
        inline,
        body_hashes,
        cg,
        scc,
        openness,
    }
}

/// The driver body behind the one-shot entry points above,
/// [`Pipeline::compile`] and [`Pipeline::compile_source`]: everything
/// after preparation, so a prepared module replayed from the memo goes
/// straight to the component lookups. The compiled components and the
/// scratch pool live in `pipe`, so its lifetime decides what a recompile
/// can reuse.
pub(crate) fn compile_prepared(
    prep: &PreparedModule,
    target: &Target,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
    pipe: &Pipeline,
) -> CompiledModule {
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

    // Incremental cache (see `crate::cache`): the pipeline's component
    // memo, then the cache directory. Components are looked up whenever
    // either tier could answer. The per-wave lookup below runs against
    // the environment frozen at wave boundaries, so output is
    // bit-identical for any hit/miss pattern.
    let mut cache = opts.cache_dir.as_deref().map(AllocCache::load);
    let keyed = !pipe.one_shot || cache.is_some();
    let (fingerprint, numbering, directory) = if keyed {
        (
            config_fingerprint(target, opts),
            numbering_key(module),
            directory_key(opts.cache_dir.as_deref()),
        )
    } else {
        (0, 0, 0)
    };
    let mut cache_stats = CacheStats {
        enabled: cache.is_some(),
        ..CacheStats::default()
    };
    let mut recompiled = vec![false; n];
    let mut stores: Vec<(u64, Arc<Vec<CachedFunc>>)> = Vec::new();
    let mut records: Vec<Option<FuncRecord>> = (0..n).map(|_| None).collect();
    // This compile's own analyses: a replayed component needs none, and
    // none outlive the compile.
    let analyses = AnalysisCache::one_shot();

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
            &analyses,
            body_hashes,
            scratch,
        )
    };
    let workers = opts.effective_jobs();
    // The driver's scratch, held for the whole compile.
    let mut scratch = pipe.scratch.acquire();

    // Wave scheduler: every component of a level has all its callees
    // summarized, so a whole level runs at once. The environment is
    // frozen while a wave runs and updated between waves in FuncId
    // order, so results are independent of the worker count.
    for wave in &waves {
        let comps: Vec<&[FuncId]> = wave
            .iter()
            .map(|&ci| scc.components[ci].as_slice())
            .collect();

        // Component lookup, serial and deterministic, against the frozen
        // environment (every external callee lives in a lower wave). The
        // pipeline's component memo answers first; a disk hit is decoded
        // once and kept in it, so a warm recompile through a persistent
        // [`Pipeline`] neither allocates nor rereads the cache directory.
        let mut comp_keys = vec![0u64; comps.len()];
        let mut hits: Vec<Option<Arc<Vec<CachedFunc>>>> = (0..comps.len()).map(|_| None).collect();
        if keyed {
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
                let memo_key = (key, numbering, directory);
                if let Some(funcs) = pipe.memo_entry(&memo_key) {
                    if matches(&funcs) {
                        hits[i] = Some(funcs);
                        continue;
                    }
                }
                if let Some(funcs) = cache.as_ref().and_then(|c| c.lookup(key, module)) {
                    if matches(&funcs) {
                        let funcs = pipe.shared_entry(funcs);
                        pipe.remember_entry(memo_key, Arc::clone(&funcs));
                        hits[i] = Some(funcs);
                    }
                }
            }
        }

        // The misses come back in wave order; the queued stores fix
        // the component memo's FIFO eviction order. Only the misses'
        // weights decide whether the wave is handed off.
        let misses: Vec<(usize, &[FuncId])> = (0..comps.len())
            .filter(|&i| hits[i].is_none())
            .map(|i| (i, comps[i]))
            .collect();
        let fresh = run_wave(
            &misses,
            workers,
            |&(_, comp)| component_weight(module, comp),
            &task,
            &pipe.scratch,
            &mut scratch,
        );

        // One list per wave. When components are looked up, a fresh one
        // becomes the very entry a later compile replays, queued under
        // its lookup-time key; otherwise its records stay owned.
        let mut merged: Vec<(FuncId, FuncRecord, Option<ipra_obs::Trace>)> =
            Vec::with_capacity(comps.iter().map(|c| c.len()).sum());
        for (i, entry) in hits.into_iter().enumerate() {
            if let Some(entry) = entry {
                for (m, &fid) in comps[i].iter().enumerate() {
                    merged.push((fid, FuncRecord::Shared(Arc::clone(&entry), m), None));
                }
            }
        }
        for (&(i, _), (funcs, shards)) in misses.iter().zip(fresh) {
            let members = comps[i].iter().copied().zip(shards);
            if keyed {
                let entry = pipe.shared_entry(funcs);
                for (m, (fid, shard)) in members.enumerate() {
                    merged.push((fid, FuncRecord::Shared(Arc::clone(&entry), m), Some(shard)));
                }
                stores.push((comp_keys[i], entry));
            } else {
                for ((fid, shard), cf) in members.zip(funcs) {
                    merged.push((fid, FuncRecord::Owned(cf), Some(shard)));
                }
            }
        }

        // Deterministic merge in FuncId order, so the environment,
        // observability records and counters come out independent of
        // thread scheduling.
        merged.sort_by_key(|(fid, _, _)| fid.index());
        let mut env = env.write().expect("no task runs between waves");
        for (fid, record, shard) in merged {
            let cf = record.get();
            env.publish(fid, &cf.summary, cf.tree_used);
            if let Some(shard) = shard {
                ipra_obs::absorb(shard);
                recompiled[fid.index()] = true;
                if keyed {
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
    pipe.scratch.release(scratch);

    // Keep every miss in the component memo, so the next recompile
    // through the same pipeline replays it from memory, and store it in
    // the cache directory, if one was named.
    for (key, entry) in stores {
        if let Some(cache) = &mut cache {
            cache.insert(key, &entry, module);
        }
        pipe.remember_entry((key, numbering, directory), entry);
    }
    if let Some(cache) = &cache {
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
        analysis: analyses.stats(),
    }
}

/// Runs one wave's tasks and returns their results in task order. With
/// one worker, or when the tasks' weights do not pay for a hand-off
/// ([`pays_for_handoff`]), the driver runs them in order on `scratch`;
/// `weight` is not called with one worker. Otherwise the wave opens its
/// own thread scope: `min(workers, tasks) − 1` helpers, each with a
/// scratch from `pool`, draw tasks from one counter alongside the driver,
/// which then joins them and resumes a helper's panic with its payload.
/// A helper that panics drops its scratch rather than pool one a task
/// may have left half-used.
fn run_wave<I: Sync, T: Send>(
    tasks: &[I],
    workers: usize,
    weight: impl Fn(&I) -> usize,
    work: &(impl Fn(&mut CompileScratch, &I) -> T + Sync),
    pool: &ScratchPool,
    scratch: &mut CompileScratch,
) -> Vec<T> {
    if workers < 2 || !pays_for_handoff(tasks.iter().map(weight)) {
        return tasks.iter().map(|t| work(scratch, t)).collect();
    }
    // Only hands out task indices; results come back through the joins.
    let next = AtomicUsize::new(0);
    let drain = |scratch: &mut CompileScratch| {
        let mut out = Vec::new();
        loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            let Some(task) = tasks.get(t) else {
                return out;
            };
            out.push((t, work(scratch, task)));
        }
    };
    let mut out = std::thread::scope(|s| {
        // A lone task has no spare work, so a wave past the gate has two
        // or more and the driver keeps at least one.
        let helpers: Vec<_> = (1..workers.min(tasks.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut scratch = pool.acquire();
                    let part = drain(&mut scratch);
                    pool.release(scratch);
                    part
                })
            })
            .collect();
        let mut out = drain(scratch);
        for helper in helpers {
            match helper.join() {
                Ok(part) => out.extend(part),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        out
    });
    out.sort_by_key(|&(t, _)| t);
    out.into_iter().map(|(_, r)| r).collect()
}

/// Compiles one SCC as a wave task: allocates each member, lowers it at
/// once, and returns the members' records with their trace shards. Runs
/// on one of its wave's helpers only when the wave passed the hand-off
/// gate, otherwise on the driver thread; either way its records are the
/// same.
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
) -> (Vec<CachedFunc>, Vec<ipra_obs::Trace>) {
    let mut overlay = (comp.len() > 1).then(|| env.clone());
    let mut funcs = Vec::with_capacity(comp.len());
    let mut shards = Vec::with_capacity(comp.len());
    for &fid in comp {
        let func = &module.funcs[fid];
        // On a helper thread there is no sink: install one and return
        // its records as a shard. When the driver thread runs the task
        // (its share of a handed-off wave, or every task of any other),
        // the driver's own sink is already installed and records flow into
        // it directly — enabling here would wipe it.
        let capture = tracing && !ipra_obs::is_enabled();
        if capture {
            ipra_obs::enable();
        }
        let cf = {
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
            CachedFunc::new(func.name.clone(), &art, code)
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
        shards.push(shard);
    }
    (funcs, shards)
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::{Condvar, Mutex};
    use std::thread;

    use ipra_ir::Module;
    use ipra_workloads::synth;

    use super::{component_weight, pays_for_handoff, prepare_module, run_wave, HANDOFF_MIN_WORK};
    use crate::config::AllocOptions;
    use crate::scratch::{CompileScratch, ScratchPool};

    /// Task weights for the wave tests: any wave of two or more `HEAVY`
    /// tasks passes the hand-off gate, and a wave of `LIGHT` tasks passes
    /// only with more than `HANDOFF_MIN_WORK` of them.
    const HEAVY: usize = HANDOFF_MIN_WORK;
    const LIGHT: usize = 1;

    /// Runs one wave of `n` tasks of weight `w` per `(n, w)` entry of
    /// `waves` with `workers`, on one pool and one driver scratch, as one
    /// compile does, and returns each wave's results.
    fn run_waves<T: Send>(
        workers: usize,
        waves: &[(usize, usize)],
        work: impl Fn(&mut CompileScratch, &usize) -> T + Sync,
    ) -> Vec<Vec<T>> {
        let pool = ScratchPool::default();
        let mut scratch = pool.acquire();
        waves
            .iter()
            .map(|&(n, w)| {
                let tasks: Vec<usize> = (0..n).collect();
                run_wave(&tasks, workers, |_| w, &work, &pool, &mut scratch)
            })
            .collect()
    }

    #[test]
    fn crew_returns_every_task_exactly_once_in_task_order() {
        let driver = thread::current().id();
        let heavy = [(0, HEAVY), (1, HEAVY), (2, HEAVY), (7, HEAVY)];
        let light = [(2, LIGHT), (7, LIGHT), (HANDOFF_MIN_WORK, LIGHT)];
        let mixed = [
            (2, LIGHT),
            (0, HEAVY),
            (7, LIGHT),
            (1, HEAVY),
            (2, HEAVY),
            (HANDOFF_MIN_WORK, LIGHT),
            (7, HEAVY),
        ];
        for workers in [1, 2, 4] {
            for (waves, all_light) in [(&heavy[..], false), (&light, true), (&mixed, false)] {
                let got = run_waves(workers, waves, |_, &t| {
                    (t, thread::current().id() == driver)
                });
                for (&(n, w), wave) in waves.iter().zip(&got) {
                    let order: Vec<usize> = wave.iter().map(|&(t, _)| t).collect();
                    assert_eq!(
                        order,
                        (0..n).collect::<Vec<_>>(),
                        "{workers} workers, {n} tasks of weight {w}"
                    );
                }
                if all_light {
                    let on_driver = got.iter().flatten().all(|&(_, d)| d);
                    assert!(on_driver, "{workers} workers: a light task left the driver");
                }
            }
        }
    }

    /// Whether each wave of `module`, prepared under `opts`, pays for a
    /// hand-off, with the wave's width.
    fn wave_gates(module: &Module, opts: &AllocOptions) -> Vec<(usize, bool)> {
        let prep = prepare_module(module.clone(), opts, None);
        prep.scc
            .levels(&prep.cg)
            .iter()
            .map(|wave| {
                let weights = wave
                    .iter()
                    .map(|&ci| component_weight(&prep.module, &prep.scc.components[ci]));
                (wave.len(), pays_for_handoff(weights))
            })
            .collect()
    }

    #[test]
    fn no_corpus_wave_pays_for_a_handoff() {
        let configs = [
            ("base", AllocOptions::o2_base()),
            ("A", AllocOptions::o2_shrink_wrap()),
            ("B", AllocOptions::o3_no_shrink_wrap()),
            ("C", AllocOptions::o3()),
            ("inline/C", AllocOptions::o3().with_inline(true)),
        ];
        for w in ipra_workloads::all() {
            let module = ipra_workloads::compile_workload(w).expect("workload compiles");
            for (config, opts) in &configs {
                for (width, pays) in wave_gates(&module, opts) {
                    assert!(!pays, "{}/{config}: a {width}-wide wave passed", w.name);
                }
            }
        }
    }

    #[test]
    fn the_widest_waves_of_a_call_tree_pay_for_a_handoff() {
        let tree = synth::call_tree_program(7, 2, 8, 1);
        let gates = wave_gates(&tree, &AllocOptions::o3());
        let widths: Vec<usize> = gates.iter().map(|&(width, _)| width).collect();
        assert_eq!(widths, [128, 64, 32, 16, 8, 4, 2, 1, 1]);
        let passing: Vec<usize> = gates
            .iter()
            .filter(|&&(_, pays)| pays)
            .map(|&(width, _)| width)
            .collect();
        assert_eq!(passing, [128, 64, 32]);
    }

    /// A latch that forces a task onto each side of a wave: one side
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

    /// Runs one seven-task heavy wave whose tasks call `on_driver` on the
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
            run_waves(workers, &[(7, HEAVY)], |_, &t| {
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
