//! Per-function register allocation: coloring + save/restore planning +
//! call-site planning + summary construction.
//!
//! This is where the paper's pieces meet: the priority coloring of §2, the
//! open/closed summary protocol of §3, parameter binding of §4, shrink-wrap
//! placement of §5 and the propagation rule of §6.

use std::collections::HashMap;
use std::sync::Arc;

use ipra_cfg::{Cfg, Liveness, LoopInfo};
use ipra_ir::{FuncId, InstLoc, Module, Operand};
use ipra_machine::{PReg, RegMask, Target};

use crate::analysis::{AnalysisCache, FuncAnalyses};
use crate::color::{color_with, Assignment, VregLoc};
use crate::config::{AllocMode, AllocOptions};
use crate::priority::{PriorityCtx, PriorityStats};
use crate::ranges::{BlockWeights, RangeData};
use crate::scratch::{CompileScratch, MaskPool};
use crate::shrinkwrap::{shrink_wrap_with, SavePlan};
use crate::summary::{FuncSummary, ParamLoc};

/// What the caller must do at one call site.
#[derive(Clone, Debug)]
pub struct CallPlan {
    /// Location of the call instruction.
    pub loc: InstLoc,
    /// Registers holding values live across the call that the callee (or
    /// the argument setup) clobbers: saved before, restored after.
    pub save_around: RegMask,
    /// Where each outgoing argument goes (the callee's convention).
    pub arg_locs: Vec<ParamLoc>,
    /// Number of stack-passed arguments.
    pub num_stack_args: u32,
    /// Registers the call sequence may destroy: the callee's clobber mask,
    /// the argument-target registers and the return register.
    pub danger: RegMask,
}

/// Complete allocation decision for one function.
#[derive(Clone, Debug)]
pub struct FuncAllocation {
    /// Register/memory assignment per vreg (split-aware).
    pub assignment: Assignment,
    /// Callee-saved registers this function saves/restores locally.
    pub locally_saved: RegMask,
    /// Placement of the local saves/restores.
    pub save_plan: SavePlan,
    /// One plan per call site (aligned with
    /// [`RangeData::call_sites`]).
    pub call_plans: Vec<CallPlan>,
    /// How this function's own parameters arrive.
    pub param_locs: Vec<ParamLoc>,
    /// The summary published to callers (meaningful for closed procedures).
    pub summary: FuncSummary,
    /// Registers used anywhere in this function's call tree (for the Fig. 1
    /// tie-break in ancestors).
    pub tree_used: RegMask,
}

/// Allocation plus the analyses lowering needs.
#[derive(Clone, Debug)]
pub struct FuncArtifacts {
    /// The function's analyses (shared with the [`AnalysisCache`], so
    /// cloning artifacts never copies them).
    pub analyses: Arc<FuncAnalyses>,
    /// Ranges and call sites.
    pub ranges: RangeData,
    /// The allocation.
    pub alloc: FuncAllocation,
}

impl FuncArtifacts {
    /// Control-flow graph.
    pub fn cfg(&self) -> &Cfg {
        &self.analyses.cfg
    }

    /// Loop nesting.
    pub fn loops(&self) -> &LoopInfo {
        &self.analyses.loops
    }

    /// Per-block liveness.
    pub fn liveness(&self) -> &Liveness {
        &self.analyses.liveness
    }
}

/// Per-callee information the allocator consumes: summaries of processed
/// closed procedures, plus their whole-tree register usage.
#[derive(Clone, Debug, Default)]
pub struct SummaryEnv {
    /// Summaries of processed *closed* functions.
    pub summaries: HashMap<FuncId, FuncSummary>,
    /// Whole-call-tree register usage of processed functions (closed or
    /// open), for the tie-break preference.
    pub tree_used: HashMap<FuncId, RegMask>,
}

impl SummaryEnv {
    /// Publishes a processed function to its callers: its whole-tree usage
    /// always, its summary only when it is not the default one. A default
    /// summary marks a function treated as open (or compiled outside
    /// inter-procedural mode), whose callers must assume the convention.
    pub(crate) fn publish(&mut self, fid: FuncId, summary: &FuncSummary, tree_used: RegMask) {
        if !summary.is_default {
            self.summaries.insert(fid, summary.clone());
        }
        self.tree_used.insert(fid, tree_used);
    }
}

/// Allocates registers for one function. `profile` optionally supplies
/// measured per-block execution counts (profile feedback, the paper's §8
/// future work); otherwise static loop-based weights are used.
pub fn allocate_function(
    module: &Module,
    fid: FuncId,
    target: &Target,
    opts: &AllocOptions,
    is_open: bool,
    env: &SummaryEnv,
    profile: Option<&[u64]>,
) -> FuncArtifacts {
    allocate_function_with(
        module,
        fid,
        target,
        opts,
        is_open,
        env,
        profile,
        // A one-shot memo ignores the key, so the body is not hashed.
        &AnalysisCache::one_shot(),
        0,
        &mut CompileScratch::default(),
    )
}

/// [`allocate_function`] drawing the function's analyses from an
/// [`AnalysisCache`] (keyed by `body_hash`, see
/// [`ipra_ir::hash_function`]) and its transient buffers from the
/// caller's [`CompileScratch`]. The pipeline driver passes a one-shot
/// cache, which ignores the key, and a pooled scratch; the plain entry
/// point above passes a one-shot cache and a fresh scratch.
#[allow(clippy::too_many_arguments)]
pub fn allocate_function_with(
    module: &Module,
    fid: FuncId,
    target: &Target,
    opts: &AllocOptions,
    is_open: bool,
    env: &SummaryEnv,
    profile: Option<&[u64]>,
    analyses: &AnalysisCache,
    body_hash: u64,
    scratch: &mut CompileScratch,
) -> FuncArtifacts {
    let func = &module.funcs[fid];
    let ranges_span = ipra_obs::span("ranges");
    let analyses = analyses.get_or_compute(body_hash, func);
    let cfg = &analyses.cfg;
    let loops = &analyses.loops;
    let liveness = &analyses.liveness;
    let weights = match profile {
        Some(counts) => BlockWeights::from_profile(cfg, loops, counts),
        None => BlockWeights::from_loops(cfg, loops),
    };
    let ranges = RangeData::build_with(func, cfg, liveness, &weights, scratch);
    drop(ranges_span);

    let inter = opts.mode == AllocMode::Inter;

    let priority_span = ipra_obs::span("priority");

    // Resolve each call site: clobber mask + callee argument convention.
    let mut site_clobbers: Vec<RegMask> = Vec::with_capacity(ranges.call_sites.len());
    let mut site_args: Vec<Vec<ParamLoc>> = Vec::with_capacity(ranges.call_sites.len());
    for site in &ranges.call_sites {
        let summary = site
            .callee
            .filter(|_| inter)
            .and_then(|callee| env.summaries.get(&callee));
        match summary {
            Some(s) => {
                site_clobbers.push(s.clobbers);
                site_args.push(s.param_locs.clone());
            }
            None => {
                let nargs = match func.inst(site.loc) {
                    ipra_ir::Inst::Call { args, .. } => args.len(),
                    _ => unreachable!("call site points at a call"),
                };
                let d = FuncSummary::default_for(&target.regs, nargs);
                site_clobbers.push(d.clobbers);
                site_args.push(d.param_locs);
            }
        }
    }

    // Register preference from the call tree below (Fig. 1: minimize the
    // tree's register footprint).
    let mut subtree_used = RegMask::EMPTY;
    for site in &ranges.call_sites {
        if let Some(c) = site.callee {
            if let Some(&m) = env.tree_used.get(&c) {
                subtree_used |= m;
            }
        }
    }

    // Whether this function's parameters use the default convention.
    let custom_params = inter && !is_open && opts.custom_param_regs;

    // Hints: parameter homes and §4 outgoing-argument bindings.
    let mut hints: Vec<Vec<(PReg, f64)>> = vec![Vec::new(); func.num_vregs()];
    let entry_weight = weights.weight(func.entry).max(1e-6);
    if !custom_params {
        for (i, &p) in func.params.iter().enumerate() {
            if let Some(&r) = target.regs.param_regs().get(i) {
                if target.regs.allocatable().contains(&r) {
                    hints[p.index()].push((r, entry_weight * target.cost.alu as f64));
                }
            }
        }
    }
    for (si, site) in ranges.call_sites.iter().enumerate() {
        let ipra_ir::Inst::Call { args, .. } = func.inst(site.loc) else {
            continue;
        };
        for (j, arg) in args.iter().enumerate() {
            let (Operand::Reg(v), Some(ParamLoc::Reg(r))) = (arg, site_args[si].get(j)) else {
                continue;
            };
            if target.regs.allocatable().contains(r) {
                hints[v.index()].push((*r, site.weight * target.cost.alu as f64));
            }
        }
    }

    drop(priority_span);

    // Color.
    let color_span = ipra_obs::span("color");
    let (assignment, priority) = if opts.mode == AllocMode::NoAlloc {
        // Every candidate is trivially a memory decision under -O0.
        for lr in ranges.ranges.iter().filter(|lr| lr.is_candidate()) {
            ipra_obs::event("alloc.decision", || {
                vec![
                    ("vreg", ipra_obs::TraceValue::Int(lr.vreg.index() as i64)),
                    ("kind", ipra_obs::TraceValue::Str("mem".into())),
                    ("priority", ipra_obs::TraceValue::Float(0.0)),
                ]
            });
        }
        let assignment = Assignment {
            whole: vec![VregLoc::Mem; func.num_vregs()],
            split: vec![None; func.num_vregs()],
            used: RegMask::EMPTY,
        };
        (assignment, PriorityStats::default())
    } else {
        let ctx = PriorityCtx {
            target,
            ranges: &ranges,
            site_clobbers: &site_clobbers,
            charge_callee_saved_entry: !inter || is_open,
            entry_weight,
            subtree_used,
            hints: &hints,
            weights: &weights,
        };
        color_with(&ctx, cfg, liveness, opts.split_ranges, scratch)
    };
    drop(color_span);
    let func_label = [("func", func.name.as_str())];
    ipra_obs::counter("priority.rows", &func_label, priority.rows);
    ipra_obs::counter("priority.parts", &func_label, priority.parts);
    ipra_obs::counter("priority.scans", &func_label, priority.scans);

    // My own parameter arrival convention.
    let mut param_locs = Vec::with_capacity(func.params.len());
    if custom_params {
        let mut next_stack = 0u32;
        for &p in &func.params {
            // A parameter whose incoming value is dead on arrival (never
            // read before being overwritten) needs no transport at all —
            // and must not claim a register, since dead-on-arrival
            // parameters do not interfere with each other.
            if !liveness.is_live_in(func.entry, p) {
                param_locs.push(ParamLoc::Ignored);
                continue;
            }
            match assignment.loc(p, func.entry) {
                VregLoc::Reg(r) => param_locs.push(ParamLoc::Reg(r)),
                VregLoc::Mem => {
                    param_locs.push(ParamLoc::Stack(next_stack));
                    next_stack += 1;
                }
            }
        }
    } else {
        let d = FuncSummary::default_for(&target.regs, func.params.len());
        param_locs = d.param_locs;
    }
    let mut param_target_regs = RegMask::EMPTY;
    for l in &param_locs {
        if let ParamLoc::Reg(r) = l {
            param_target_regs.insert(*r);
        }
    }

    // Local save set and placement.
    let cs = target.regs.callee_saved_mask();
    let used = assignment.used;
    let clobber_union = site_clobbers.iter().fold(RegMask::EMPTY, |a, &m| a | m);

    // APP: block-level appearance of each register (assignment occupancy
    // plus, per register, the calls whose callee clobbers it — the local
    // save region must span those calls to actually protect the original
    // value).
    let nb = func.num_blocks();
    let mut occupancy = scratch.masks.take(nb, RegMask::EMPTY);
    for lr in &ranges.ranges {
        match &assignment.split[lr.vreg.index()] {
            Some(map) => {
                // Determinism: the per-vreg split map is a HashMap, but the
                // loop body is a commutative mask insert, so its randomized
                // iteration order cannot affect the resulting occupancy.
                for (&b, &r) in map {
                    occupancy[b].insert(r);
                }
            }
            None => {
                if let VregLoc::Reg(r) = assignment.whole[lr.vreg.index()] {
                    for b in ranges.blocks(lr.vreg) {
                        occupancy[b.index()].insert(r);
                    }
                }
            }
        }
    }

    let app_for = |regs: RegMask, masks: &mut MaskPool| -> Vec<RegMask> {
        let mut app = masks.take(occupancy.len(), RegMask::EMPTY);
        for (a, m) in app.iter_mut().zip(occupancy.iter()) {
            *a = m.intersect(regs);
        }
        for (si, site) in ranges.call_sites.iter().enumerate() {
            let m = site_clobbers[si].intersect(regs);
            app[site.loc.block.index()] |= m;
        }
        app
    };

    let shrink_span = ipra_obs::span("shrink_wrap");
    let (locally_saved, save_plan);
    // Registers whose local save landed at the entry and was therefore
    // propagated up the call graph instead (§6) — fed to the penalty
    // ledger below.
    let mut propagated = RegMask::EMPTY;
    if opts.mode == AllocMode::NoAlloc {
        locally_saved = RegMask::EMPTY;
        save_plan = SavePlan::at_entry_exits(cfg, RegMask::EMPTY);
    } else if !inter || is_open {
        // Intra-procedural or open: every callee-saved register used here —
        // or clobbered below a call — must be protected locally (§3: "when
        // a callee-saved register is used by the parent or any of its
        // children, the parent must save it on entry and restore it on
        // exit").
        let candidates = RegMask(cs.0 & (used | clobber_union).0 & !param_target_regs.0);
        if opts.shrink_wrap {
            let app = app_for(candidates, &mut scratch.masks);
            let plan = shrink_wrap_with(cfg, loops, &app, &mut scratch.masks);
            scratch.masks.give(app);
            save_plan = plan;
        } else {
            save_plan = SavePlan::at_entry_exits(cfg, candidates);
        }
        locally_saved = candidates;
    } else if !opts.shrink_wrap {
        // Closed, inter-procedural, no shrink-wrap (configuration B): every
        // save propagates to the ancestors (§3).
        locally_saved = RegMask::EMPTY;
        save_plan = SavePlan::at_entry_exits(cfg, RegMask::EMPTY);
    } else {
        // Closed + shrink-wrap: the §6 rule. Consider locally protecting
        // each callee-saved register used here; keep the protection only if
        // its save does NOT land at the entry, otherwise propagate up.
        let consider = RegMask(cs.0 & used.0 & !param_target_regs.0);
        let app = app_for(consider, &mut scratch.masks);
        let plan = shrink_wrap_with(cfg, loops, &app, &mut scratch.masks);
        scratch.masks.give(app);
        propagated = RegMask(consider.0 & plan.entry_spanning.0);
        let keep = RegMask(consider.0 & !plan.entry_spanning.0);
        // The analysis is bitwise-independent per register, so dropping the
        // propagated registers from every mask yields the plan for `keep`.
        let strip =
            |v: &[RegMask]| -> Vec<RegMask> { v.iter().map(|m| m.intersect(keep)).collect() };
        save_plan = SavePlan {
            save_at: strip(&plan.save_at),
            restore_at: strip(&plan.restore_at),
            entry_spanning: RegMask::EMPTY,
            iterations: plan.iterations,
            antav_sweeps: plan.antav_sweeps,
        };
        locally_saved = keep;
    }
    drop(shrink_span);
    scratch.masks.give(occupancy);
    ipra_obs::counter(
        "shrink_wrap.iterations",
        &func_label,
        u64::from(save_plan.iterations),
    );
    ipra_obs::counter(
        "shrink_wrap.antav.sweeps",
        &func_label,
        u64::from(save_plan.antav_sweeps),
    );

    // Summary.
    let summary = if inter && !is_open && opts.mode != AllocMode::NoAlloc {
        let mut clobbers = RegMask((used | clobber_union).0 & !locally_saved.0);
        clobbers.insert(target.regs.ret_reg());
        clobbers |= param_target_regs;
        FuncSummary {
            clobbers,
            param_locs: param_locs.clone(),
            is_default: false,
        }
    } else {
        FuncSummary::default_for(&target.regs, func.params.len())
    };

    let tree_used = {
        let mut m = used | subtree_used | locally_saved;
        for (si, site) in ranges.call_sites.iter().enumerate() {
            if site.callee.is_none_or(|c| !env.tree_used.contains_key(&c)) {
                m |= site_clobbers[si];
            }
        }
        m
    };

    // Call plans.
    let mut call_plans: Vec<CallPlan> = ranges
        .call_sites
        .iter()
        .enumerate()
        .map(|(si, site)| {
            let mut arg_targets = RegMask::EMPTY;
            for l in &site_args[si] {
                if let ParamLoc::Reg(r) = l {
                    arg_targets.insert(*r);
                }
            }
            let danger = site_clobbers[si] | arg_targets | RegMask::single(target.regs.ret_reg());
            CallPlan {
                loc: site.loc,
                save_around: RegMask::EMPTY,
                arg_locs: site_args[si].clone(),
                num_stack_args: site_args[si]
                    .iter()
                    .map(|l| match l {
                        ParamLoc::Stack(i) => i + 1,
                        ParamLoc::Reg(_) | ParamLoc::Ignored => 0,
                    })
                    .max()
                    .unwrap_or(0),
                danger,
            }
        })
        .collect();

    // Fill save_around: registers of values live across each call that the
    // call may destroy.
    for lr in &ranges.ranges {
        for &site in ranges.spans_calls(lr.vreg) {
            let site = site as usize;
            let block = ranges.call_sites[site].loc.block;
            if let VregLoc::Reg(r) = assignment.loc(lr.vreg, block) {
                if call_plans[site].danger.contains(r) {
                    call_plans[site].save_around.insert(r);
                }
            }
        }
    }

    // Static side of the per-edge penalty ledger: what this compile
    // *planned* to pay at each call edge (caller-side saves around call
    // sites) and at this function's own boundary (prologue saves, §6
    // shrink-wrap placement). The labeled counters add up, so multiple
    // sites calling the same callee accumulate into one (caller, callee)
    // instance. Cache-replayed functions skip
    // allocation entirely and record nothing — the ledger describes work
    // performed by *this* compile.
    if ipra_obs::is_enabled() {
        for (si, site) in ranges.call_sites.iter().enumerate() {
            let saved = call_plans[si].save_around.count() as u64;
            if saved > 0 {
                let callee = site
                    .callee
                    .map_or("<indirect>", |c| module.funcs[c].name.as_str());
                ipra_obs::counter(
                    "penalty.callsite.saved_regs",
                    &[("caller", &func.name), ("callee", callee)],
                    saved,
                );
            }
        }
        if locally_saved.count() > 0 {
            ipra_obs::counter(
                "penalty.prologue.saved_regs",
                &func_label,
                locally_saved.count() as u64,
            );
            let off_entry = RegMask(locally_saved.0 & !save_plan.save_at[cfg.entry.index()].0);
            if off_entry.count() > 0 {
                ipra_obs::counter(
                    "shrink_wrap.off_entry_regs",
                    &func_label,
                    off_entry.count() as u64,
                );
            }
        }
        if propagated.count() > 0 {
            ipra_obs::counter(
                "shrink_wrap.propagated_regs",
                &func_label,
                propagated.count() as u64,
            );
        }
    }

    FuncArtifacts {
        analyses: Arc::clone(&analyses),
        ranges,
        alloc: FuncAllocation {
            assignment,
            locally_saved,
            save_plan,
            call_plans,
            param_locs,
            summary,
            tree_used,
        },
    }
}
