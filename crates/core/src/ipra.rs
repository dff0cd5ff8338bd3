//! The one-pass inter-procedural driver (paper §2, §7).
//!
//! Processes the procedures of a module in a depth-first (bottom-up)
//! traversal of the call graph, so every closed procedure's register-usage
//! summary is available at its call sites when the callers are allocated.
//! Open procedures (paper §3) fall back to the default convention. The same
//! driver also runs the intra-procedural and no-allocation configurations,
//! which simply never consult summaries.
//!
//! # Bottom-up order
//!
//! The driver walks the SCC components in index order
//! ([`SccInfo::components`]), which is bottom-up: every callee outside a
//! component has a smaller index. It looks each component up in the
//! incremental cache and either replays it or compiles it on the calling
//! thread, then publishes its members to the environment at once, so a
//! caller's key and allocation see every callee's summary. The unit of
//! work is the *component*, not the function: members of a multi-node
//! SCC see each other's whole-tree usage in their processing order, so a
//! component replays that order against a private copy of the
//! environment.
//!
//! A component allocates and then lowers each member, so a function
//! leaves it as one [`CachedFunc`] record: the same record an
//! incremental-cache hit replays. Its ranges, interference rows and call
//! plans die inside the component. Fresh and replayed records then take
//! one path into the machine code, the summaries and the reports.

use std::sync::Arc;

use ipra_callgraph::{CallGraph, OpenReason, Openness, SccInfo};
use ipra_ir::{hash_all_functions, EntityVec, FuncId, Module};
use ipra_machine::{MModule, RegMask, Target};

use crate::alloc::{allocate_function_with, SummaryEnv};
use crate::analysis::AnalysisCache;
use crate::cache::{component_key, config_fingerprint, AllocCache, CacheStats, CachedFunc};
use crate::config::{AllocMode, AllocOptions};
use crate::inline::{inline_hot_calls, InlineStats};
use crate::lower::lower_function_with;
use crate::normalize::normalize_entries;
use crate::pipeline::{directory_key, numbering_key, Pipeline, PreparedModule};
use crate::promote::{promote_globals, PromotionStats};
use crate::scratch::CompileScratch;
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
}

impl CompiledModule {
    /// Per-function clobber masks for the simulator's convention checker:
    /// each summary's clobbers, which for an open procedure are the
    /// default convention's.
    pub fn clobber_masks(&self) -> Vec<RegMask> {
        self.summaries.iter().map(|s| s.clobbers).collect()
    }
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
    let pipe = Pipeline::one_shot();
    let prep = prepare_module(module.clone(), opts, profile, &pipe);
    compile_prepared(&prep, target, opts, profile, &pipe)
}

/// The module-level front half of one compile: transform the module
/// (entry normalization, optional global promotion, optional
/// profile-guided inlining) in place, hash the transformed bodies when a
/// compile through `pipe` looks components up (the hashes key nothing
/// else), and build the call graph, its SCC condensation and the
/// openness classification.
/// Deterministic in the input (including the profile, which steers the
/// inliner when that pass is on), so
/// [`Pipeline::compile_source`] memoizes the whole bundle by source text
/// plus promotion and inline configuration.
pub(crate) fn prepare_module(
    mut module: Module,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
    pipe: &Pipeline,
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
    let body_hashes = if pipe.looks_up_components(opts) {
        hash_all_functions(&module)
    } else {
        Vec::new()
    };

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

    // Flight-recorder shape of the traversal, recorded from the SCC
    // structure itself.
    if ipra_obs::is_enabled() {
        for comp in &scc.components {
            ipra_obs::observe("callgraph.scc_size", &[], comp.len() as u64);
        }
    }

    let inter = opts.mode == AllocMode::Inter;
    // The open/closed decision (paper §3) the cache key and the
    // allocator both read.
    let treated_open = |fid: FuncId| {
        !inter || opts.forced_open.contains(&module.funcs[fid].name) || openness.is_open(fid)
    };
    let n = module.funcs.len();
    let mut env = SummaryEnv::default();

    // Incremental cache (see `crate::cache`): the pipeline's component
    // memo, then the cache directory. Components are looked up whenever
    // either tier could answer.
    let mut cache = opts.cache_dir.as_deref().map(AllocCache::load);
    let keyed = pipe.looks_up_components(opts);
    debug_assert!(!keyed || body_hashes.len() == n, "unhashed module");
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
    let mut records: Vec<Option<CachedFunc>> = (0..n).map(|_| None).collect();
    let mut scratch = pipe.scratch.acquire();

    // Components are in bottom-up order: every callee outside a component
    // has a smaller index, so it has been published before the component
    // is keyed, replayed or compiled.
    for comp in &scc.components {
        let key = keyed.then(|| {
            component_key(
                module,
                body_hashes,
                comp,
                treated_open,
                fingerprint,
                inter,
                &env,
                profile,
            )
        });
        let hit = key.and_then(|key| {
            let memo_key = (key, numbering, directory);
            lookup_component(pipe, cache.as_ref(), memo_key, module, comp)
        });
        let fresh = hit.is_none();
        let entry = match hit {
            Some(entry) => entry,
            None => {
                let funcs = compile_component(
                    module,
                    comp,
                    target,
                    opts,
                    treated_open,
                    &env,
                    profile,
                    &mut scratch,
                );
                // Nothing keeps a component that is not looked up, so its
                // records move into the module.
                let Some(key) = key else {
                    for (&fid, cf) in comp.iter().zip(funcs) {
                        recompiled[fid.index()] = true;
                        env.publish(fid, &cf.summary, cf.tree_used);
                        records[fid.index()] = Some(cf);
                    }
                    continue;
                };
                // Otherwise the fresh component becomes the very entry a
                // later compile replays. It waits in `stores` under its
                // lookup-time key until the walk ends, so no memo
                // insertion evicts an entry a later component looks up.
                let entry = pipe.shared_entry(funcs);
                stores.push((key, Arc::clone(&entry)));
                entry
            }
        };
        for (&fid, cf) in comp.iter().zip(entry.iter()) {
            if fresh {
                recompiled[fid.index()] = true;
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
            env.publish(fid, &cf.summary, cf.tree_used);
            records[fid.index()] = Some(cf.clone());
        }
    }
    pipe.scratch.release(scratch);
    for (func, &fresh) in module.funcs.values().zip(&recompiled) {
        if keyed && fresh {
            cache_stats.recompiled.push(func.name.clone());
        }
    }
    cache_stats.misses = cache_stats.recompiled.len() as u64;

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
        let cf = record.expect("every function compiled");
        reports.push(FuncReport {
            open_reasons: openness.reasons(fid).to_vec(),
            forced_open: opts.forced_open.contains(&cf.name),
            name: cf.name,
            used: cf.used,
            locally_saved: cf.locally_saved,
            shrink_iterations: cf.shrink_iterations,
            memory_vregs: cf.memory_vregs,
            split_vregs: cf.split_vregs,
            candidate_vregs: cf.candidate_vregs,
        });
        summaries.push(cf.summary);
        funcs.push(cf.code);
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
    }
}

/// Looks a component up under `memo_key` (component key, numbering key,
/// directory key): the pipeline's component memo answers first; a disk
/// hit is decoded once and kept in it, so a warm recompile through a
/// persistent [`Pipeline`] neither allocates nor rereads the cache
/// directory. The members' names guard against FNV collisions and stale
/// entries; a mismatch is just a miss.
fn lookup_component(
    pipe: &Pipeline,
    cache: Option<&AllocCache>,
    memo_key: (u64, u64, u64),
    module: &Module,
    comp: &[FuncId],
) -> Option<Arc<Vec<CachedFunc>>> {
    let matches = |funcs: &[CachedFunc]| {
        funcs.len() == comp.len()
            && funcs
                .iter()
                .zip(comp)
                .all(|(cf, &fid)| cf.name == module.funcs[fid].name)
    };
    if let Some(funcs) = pipe.memo_entry(&memo_key).filter(|f| matches(f)) {
        return Some(funcs);
    }
    let funcs = cache?.lookup(memo_key.0, module).filter(|f| matches(f))?;
    let funcs = pipe.shared_entry(funcs);
    pipe.remember_entry(memo_key, Arc::clone(&funcs));
    Some(funcs)
}

/// Compiles one SCC: allocates each member, lowers it at once, and
/// returns the members' records. Members of a multi-node SCC observe
/// each other's whole-tree register usage in serial order, so the
/// component replays that order against a private copy of the
/// environment (multi-node SCCs are rare; singletons read `env`
/// directly).
#[allow(clippy::too_many_arguments)]
fn compile_component(
    module: &Module,
    comp: &[FuncId],
    target: &Target,
    opts: &AllocOptions,
    treated_open: impl Fn(FuncId) -> bool,
    env: &SummaryEnv,
    profile: Option<&[Vec<u64>]>,
    scratch: &mut CompileScratch,
) -> Vec<CachedFunc> {
    let mut overlay = (comp.len() > 1).then(|| env.clone());
    let mut funcs = Vec::with_capacity(comp.len());
    for &fid in comp {
        let func = &module.funcs[fid];
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
                // A replayed component needs no analyses, so a compile
                // memoizes none; a one-shot memo ignores the key.
                &AnalysisCache::one_shot(),
                0,
                scratch,
            );
            let code = {
                let _t = ipra_obs::span("lower");
                lower_function_with(module, func, target, &art, scratch)
            };
            CachedFunc::new(func.name.clone(), &art, code)
        };
        if let Some(ov) = overlay.as_mut() {
            ov.publish(fid, &cf.summary, cf.tree_used);
        }
        funcs.push(cf);
    }
    funcs
}
