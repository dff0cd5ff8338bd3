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
//! ([`SccInfo::levels`]) and fans each level out across scoped worker
//! threads when [`AllocOptions::jobs`] resolves to more than one; with one
//! worker, or a one-component level, the level runs inline on the driver
//! thread. Every compile takes this one path. The unit of work is the
//! *component*, not the function: members of a multi-node SCC see each
//! other's whole-tree usage in their processing order, so a worker
//! replays that order against a private copy of the environment. Workers
//! collect their own observability shards; the driver merges summaries
//! and shards in `FuncId` order, making output, reports, and traces
//! independent of thread scheduling and of the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ipra_callgraph::{CallGraph, OpenReason, Openness, SccInfo};
use ipra_ir::{hash_all_functions, EntityVec, FuncId, Module};
use ipra_machine::{MFunction, MModule, RegMask, Target};

use crate::alloc::{allocate_function_with, FuncArtifacts, SummaryEnv};
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

/// A fully compiled module.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// Executable machine code.
    pub mmodule: MModule,
    /// Final summaries (default summaries for open procedures).
    pub summaries: Vec<FuncSummary>,
    /// Per-function clobber masks for the simulator's convention checker.
    pub clobber_masks: Vec<RegMask>,
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

/// How one function's result was obtained: allocated in this compile, or
/// replayed from the incremental cache. Cached results point into a
/// shared component entry (`Arc` + member index) so replay never clones
/// the decoded entry per function.
enum FuncResult {
    Fresh(Box<FuncArtifacts>),
    Cached(Arc<Vec<CachedFunc>>, usize),
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
    // One-shot compile: a throwaway pipeline (empty memo, empty pools).
    compile_module_impl(module, target, opts, profile, &Pipeline::new())
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
    let input = module.clone();
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
    let inline_on = opts.inline;
    let inline = if inline_on {
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
        input,
        promote: opts.promote_globals,
        inline_on,
        inline_budget: opts.inline_budget,
        inline_profile: if inline_on {
            profile.map(|p| p.to_vec())
        } else {
            None
        },
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
    ipra_obs::counter("promote.promoted", promotion.promoted as u64);
    ipra_obs::counter(
        "promote.accesses_rewritten",
        promotion.accesses_rewritten as u64,
    );
    if prep.inline_on {
        ipra_obs::counter("inline.sites_considered", prep.inline.sites_considered);
        ipra_obs::counter("inline.inlined", prep.inline.inlined);
        ipra_obs::counter("inline.budget_stops", prep.inline.budget_stops);
    }
    scc.record_stats();
    openness.record_stats();

    // Flight-recorder shape of the traversal. Recorded from the SCC
    // structure itself (not from the scheduler) so every worker count
    // produces identical metrics.
    if ipra_obs::is_enabled() {
        for comp in &scc.components {
            ipra_obs::metric_observe("callgraph.scc_size", &[], comp.len() as u64);
        }
        for wave in scc.levels(cg) {
            ipra_obs::metric_observe("wave.width", &[], wave.len() as u64);
        }
    }

    let inter = opts.mode == AllocMode::Inter;
    let n = module.funcs.len();
    let jobs = opts.effective_jobs();
    let mut env = SummaryEnv::default();

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
    let mut miss_records: Vec<(u64, Vec<FuncId>)> = Vec::new();

    let mut results: Vec<Option<FuncResult>> = (0..n).map(|_| None).collect();

    // Wave scheduler: every component of a level has all its callees
    // summarized, so a whole level fans out at once. `env` is frozen
    // (shared read-only) while a wave runs and updated between waves in
    // FuncId order, so results are independent of the worker count.
    let tracing = ipra_obs::is_enabled();
    for wave in scc.levels(cg) {
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
        let mut hits: Vec<Option<Arc<Vec<CachedFunc>>>> = (0..comps.len()).map(|_| None).collect();
        if let Some(c) = &cache {
            for (i, comp) in comps.iter().enumerate() {
                let key = component_key(
                    module,
                    body_hashes,
                    comp,
                    |fid| {
                        let forced = opts.forced_open.contains(&module.funcs[fid].name);
                        !inter || forced || openness.is_open(fid)
                    },
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
                        pipe.entries
                            .lock()
                            .unwrap()
                            .insert((key, numbering), Arc::clone(&funcs));
                        hits[i] = Some(funcs);
                    }
                }
            }
        }

        // Fan the misses out across the workers.
        let miss_idx: Vec<usize> = (0..comps.len()).filter(|&i| hits[i].is_none()).collect();
        let mut fresh = run_tasks(jobs, miss_idx.len(), &pipe.scratch, |out, scratch, t| {
            alloc_component(
                module,
                comps[miss_idx[t]],
                target,
                opts,
                inter,
                openness,
                &env,
                profile,
                tracing,
                &pipe.analyses,
                body_hashes,
                scratch,
                out,
            );
        });
        fresh.sort_by_key(|(fid, _, _)| fid.index());
        if cache.is_some() {
            for &i in &miss_idx {
                miss_records.push((comp_keys[i], comps[i].to_vec()));
            }
        }

        // Deterministic merge: interleave the hit and miss streams in
        // FuncId order so the environment, observability records and
        // counters come out independent of thread scheduling.
        let mut hit_funcs: Vec<(FuncId, Arc<Vec<CachedFunc>>, usize)> = Vec::new();
        for (i, h) in hits.into_iter().enumerate() {
            if let Some(funcs) = h {
                for (m, &fid) in comps[i].iter().enumerate() {
                    hit_funcs.push((fid, Arc::clone(&funcs), m));
                }
            }
        }
        hit_funcs.sort_by_key(|(fid, _, _)| fid.index());
        let mut fresh_it = fresh.into_iter().peekable();
        let mut hit_it = hit_funcs.into_iter().peekable();
        loop {
            let take_fresh = match (fresh_it.peek(), hit_it.peek()) {
                (Some((f, _, _)), Some((h, _, _))) => f.index() < h.index(),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_fresh {
                let (fid, art, shard) = fresh_it.next().expect("peeked");
                if inter && !art.alloc.is_open {
                    env.summaries.insert(fid, art.alloc.summary.clone());
                }
                env.tree_used.insert(fid, art.alloc.tree_used);
                ipra_obs::absorb(shard);
                recompiled[fid.index()] = true;
                if cache.is_some() {
                    cache_stats.misses += 1;
                    cache_stats.recompiled.push(module.funcs[fid].name.clone());
                    let _obs = ipra_obs::scope(&module.funcs[fid].name);
                    ipra_obs::counter("cache.miss", 1);
                    ipra_obs::metric_counter("cache.lookup", &[("result", "miss")], 1);
                }
                results[fid.index()] = Some(FuncResult::Fresh(Box::new(art)));
            } else {
                let (fid, entry, idx) = hit_it.next().expect("peeked");
                let cf = &entry[idx];
                if inter && !cf.is_open {
                    env.summaries.insert(fid, cf.summary.clone());
                }
                env.tree_used.insert(fid, cf.tree_used);
                cache_stats.hits += 1;
                // A hit whose direct callee was recompiled is an early
                // cutoff: the callee changed but its summary bytes did
                // not, so invalidation stopped here.
                let cutoff = cg.callees(fid).iter().any(|c| recompiled[c.index()]);
                {
                    let _obs = ipra_obs::scope(&module.funcs[fid].name);
                    let _t = ipra_obs::span("cache.hit");
                    ipra_obs::counter("cache.hit", 1);
                    ipra_obs::metric_counter("cache.lookup", &[("result", "hit")], 1);
                    if cutoff {
                        cache_stats.cutoffs += 1;
                        ipra_obs::counter("cache.cutoff", 1);
                        ipra_obs::metric_counter("cache.lookup", &[("result", "cutoff")], 1);
                    }
                }
                results[fid.index()] = Some(FuncResult::Cached(entry, idx));
            }
        }
    }

    // Lowering is embarrassingly parallel: the artifacts are frozen now.
    // Cache hits already carry their lowered code and skip this entirely.
    let fresh_ids: Vec<usize> = (0..n)
        .filter(|&i| matches!(results[i], Some(FuncResult::Fresh(_))))
        .collect();
    let mut lowered_parts = run_tasks(jobs, fresh_ids.len(), &pipe.scratch, |out, scratch, t| {
        let fi = fresh_ids[t];
        let fid = FuncId(fi as u32);
        let func = &module.funcs[fid];
        let Some(FuncResult::Fresh(art)) = &results[fi] else {
            unreachable!("fresh_ids only lists fresh results");
        };
        // Shard capture only on sink-less worker threads; inline
        // execution records straight into the driver's sink (see
        // `alloc_component`).
        let capture = tracing && !ipra_obs::is_enabled();
        if capture {
            ipra_obs::enable();
        }
        let mf = {
            let _obs = ipra_obs::scope(&func.name);
            let _t = ipra_obs::span("lower");
            lower_function_with(module, func, target, art, scratch)
        };
        let shard = if capture {
            ipra_obs::disable()
        } else {
            ipra_obs::Trace::default()
        };
        out.push((fi, mf, shard));
    });
    lowered_parts.sort_by_key(|(i, _, _)| *i);
    let mut lowered: Vec<Option<MFunction>> = (0..n).map(|_| None).collect();
    for (i, mf, shard) in lowered_parts {
        ipra_obs::absorb(shard);
        lowered[i] = Some(mf);
    }

    let mut funcs = EntityVec::new();
    let mut summaries = Vec::with_capacity(n);
    let mut clobber_masks = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    // This compile's own analysis-memo window, summed from the per-
    // function hit flags. Diffing the shared memo counters would fold in
    // whatever concurrent compiles through the same pipeline did.
    let mut analysis = AnalysisStats::default();
    for (fid, func) in module.funcs.iter() {
        match results[fid.index()]
            .as_ref()
            .expect("every function compiled")
        {
            FuncResult::Fresh(art) => {
                if art.analysis_hit {
                    analysis.hits += 1;
                } else {
                    analysis.misses += 1;
                }
                funcs.push(lowered[fid.index()].take().expect("fresh function lowered"));
                let a = &art.alloc;
                summaries.push(a.summary.clone());
                clobber_masks.push(if inter && !a.is_open {
                    a.summary.clobbers
                } else {
                    target.regs.default_clobbers()
                });
                let mut memory_vregs = 0;
                let mut split_vregs = 0;
                let mut candidates = 0;
                for lr in &art.ranges.ranges {
                    if !lr.is_candidate() {
                        continue;
                    }
                    candidates += 1;
                    if a.assignment.is_split(lr.vreg) {
                        split_vregs += 1;
                    } else if a.assignment.whole[lr.vreg.index()] == crate::color::VregLoc::Mem {
                        memory_vregs += 1;
                    }
                }
                reports.push(FuncReport {
                    name: func.name.clone(),
                    open_reasons: openness.reasons(fid).to_vec(),
                    forced_open: opts.forced_open.contains(&func.name),
                    used: a.assignment.used,
                    locally_saved: a.locally_saved,
                    shrink_iterations: a.shrink_iterations,
                    memory_vregs,
                    split_vregs,
                    candidate_vregs: candidates,
                });
            }
            FuncResult::Cached(entry, idx) => {
                let c = &entry[*idx];
                funcs.push(c.code.clone());
                summaries.push(c.summary.clone());
                clobber_masks.push(if inter && !c.is_open {
                    c.summary.clobbers
                } else {
                    target.regs.default_clobbers()
                });
                reports.push(FuncReport {
                    name: func.name.clone(),
                    open_reasons: openness.reasons(fid).to_vec(),
                    forced_open: opts.forced_open.contains(&func.name),
                    used: c.used,
                    locally_saved: c.locally_saved,
                    shrink_iterations: c.shrink_iterations,
                    memory_vregs: c.memory_vregs,
                    split_vregs: c.split_vregs,
                    candidate_vregs: c.candidate_vregs,
                });
            }
        }
    }

    // Store every miss back into the cache, keyed by the lookup-time key.
    if let Some(cache) = &mut cache {
        for (key, comp) in &miss_records {
            let entry: Vec<CachedFunc> = comp
                .iter()
                .map(|&fid| {
                    let i = fid.index();
                    let Some(FuncResult::Fresh(art)) = &results[i] else {
                        unreachable!("misses were compiled fresh");
                    };
                    CachedFunc {
                        name: module.funcs[fid].name.clone(),
                        code: funcs[fid].clone(),
                        summary: summaries[i].clone(),
                        tree_used: art.alloc.tree_used,
                        is_open: art.alloc.is_open,
                        used: reports[i].used,
                        locally_saved: reports[i].locally_saved,
                        shrink_iterations: reports[i].shrink_iterations,
                        memory_vregs: reports[i].memory_vregs,
                        split_vregs: reports[i].split_vregs,
                        candidate_vregs: reports[i].candidate_vregs,
                    }
                })
                .collect();
            cache.insert(*key, &entry, module);
            // Mirror the store into the pipeline's entry image so the
            // next recompile through the same pipeline hits in memory.
            pipe.entries
                .lock()
                .unwrap()
                .insert((*key, numbering), Arc::new(entry));
        }
        if !miss_records.is_empty() {
            cache.save();
        }
    }

    CompiledModule {
        mmodule: MModule {
            funcs,
            globals: module.globals.clone(),
            main: module.main,
        },
        summaries,
        clobber_masks,
        reports,
        promotion,
        inline: prep.inline.clone(),
        cache: cache_stats,
        analysis,
    }
}

/// Fans `tasks` indices out across at most `jobs` scoped worker threads.
/// Workers pull indices from a shared counter and append results into
/// their own vector; the concatenation is returned in arbitrary order
/// (callers sort by `FuncId` before consuming). Each worker checks one
/// [`CompileScratch`] out of the pool for its whole run, so per-task
/// buffers are recycled instead of reallocated.
fn run_tasks<T: Send>(
    jobs: usize,
    tasks: usize,
    pool: &ScratchPool,
    work: impl Fn(&mut Vec<T>, &mut CompileScratch, usize) + Sync,
) -> Vec<T> {
    let workers = jobs.min(tasks).max(1);
    if workers == 1 {
        // Narrow wave (or one worker): run inline, no thread overhead.
        let mut out = Vec::new();
        let mut scratch = pool.acquire();
        for t in 0..tasks {
            work(&mut out, &mut scratch, t);
        }
        pool.release(scratch);
        return out;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    let mut scratch = pool.acquire();
                    loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= tasks {
                            break;
                        }
                        work(&mut out, &mut scratch, t);
                    }
                    pool.release(scratch);
                    out
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            match h.join() {
                Ok(part) => all.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    })
}

/// Allocates one SCC on a worker thread. Members of a multi-node SCC
/// observe each other's whole-tree register usage in serial order, so the
/// component replays that order against a private copy of the environment
/// (multi-node SCCs are rare; singletons use the shared snapshot
/// directly). Each member's observability records are collected into a
/// per-function shard for deterministic merging by the driver.
#[allow(clippy::too_many_arguments)]
fn alloc_component(
    module: &Module,
    comp: &[FuncId],
    target: &Target,
    opts: &AllocOptions,
    inter: bool,
    openness: &Openness,
    env: &SummaryEnv,
    profile: Option<&[Vec<u64>]>,
    tracing: bool,
    analyses: &AnalysisCache,
    body_hashes: &[u64],
    scratch: &mut CompileScratch,
    out: &mut Vec<(FuncId, FuncArtifacts, ipra_obs::Trace)>,
) {
    let mut overlay: Option<SummaryEnv> = if comp.len() > 1 {
        Some(env.clone())
    } else {
        None
    };
    for &fid in comp {
        // On a spawned worker the thread has no sink: install one and
        // return its records as a shard. When the task runs inline on the
        // driver thread (narrow wave), the driver's own sink is already
        // installed and records flow into it directly — enabling here
        // would wipe it.
        let capture = tracing && !ipra_obs::is_enabled();
        if capture {
            ipra_obs::enable();
        }
        let art = {
            let _obs = ipra_obs::scope(&module.funcs[fid].name);
            let forced = opts.forced_open.contains(&module.funcs[fid].name);
            let is_open = !inter || forced || openness.is_open(fid);
            allocate_function_with(
                module,
                fid,
                target,
                opts,
                is_open,
                overlay.as_ref().unwrap_or(env),
                profile.map(|p| p[fid.index()].as_slice()),
                analyses,
                body_hashes[fid.index()],
                scratch,
            )
        };
        let shard = if capture {
            ipra_obs::disable()
        } else {
            ipra_obs::Trace::default()
        };
        if let Some(ov) = overlay.as_mut() {
            if inter && !art.alloc.is_open {
                ov.summaries.insert(fid, art.alloc.summary.clone());
            }
            ov.tree_used.insert(fid, art.alloc.tree_used);
        }
        out.push((fid, art, shard));
    }
}

/// Convenience: which functions ended up open under `opts`.
pub fn open_functions(module: &Module, opts: &AllocOptions) -> Vec<FuncId> {
    let cg = CallGraph::build(module);
    let scc = SccInfo::compute(&cg);
    let openness = Openness::compute(module, &cg, &scc);
    module
        .funcs
        .iter()
        .filter(|(id, f)| {
            opts.mode != AllocMode::Inter
                || opts.forced_open.contains(&f.name)
                || openness.is_open(*id)
        })
        .map(|(id, _)| id)
        .collect()
}
