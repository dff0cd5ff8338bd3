//! Shrink-wrapping of callee-saved register saves/restores (paper §5).
//!
//! Implements the paper's bit-vector equations (3.1)–(3.6): anticipability
//! (`ANT`) and availability (`AV`) of register *appearances* (`APP`)
//! determine the earliest correct save points and latest correct restore
//! points. Two refinements from the paper are included:
//!
//! * **loop constraint** — a register used anywhere in a loop has its `APP`
//!   extended to the whole loop, so a shrink-wrapped region never sits
//!   inside a loop (which would multiply the save/restore per iteration);
//! * **range extension** — instead of splitting control-flow edges, `APP`
//!   is iteratively propagated to blocks whose control-flow shape would
//!   otherwise cause double saves, unprotected uses, missing restores or
//!   saved-at-exit paths (the Fig. 2 situation). The iteration count is
//!   reported; the paper observes one to two iterations in practice.
//!
//! All registers are processed at once as bits of a [`RegMask`].

use ipra_cfg::{Cfg, LoopInfo};
use ipra_ir::BlockId;
use ipra_machine::RegMask;

use crate::scratch::MaskPool;

/// Save/restore placement for one function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SavePlan {
    /// Registers to save at the *entry* of each block.
    pub save_at: Vec<RegMask>,
    /// Registers to restore at the *exit* of each block (before the
    /// terminator).
    pub restore_at: Vec<RegMask>,
    /// Registers whose save landed at the function entry block — the §6
    /// condition for propagating the save up the call graph instead.
    pub entry_spanning: RegMask,
    /// Range-extension iterations used (paper: "from one to two").
    pub iterations: u32,
    /// ANT/AV fixpoint sweeps, summed over every placement solve of the
    /// plan (0 for a plan not computed by shrink-wrapping).
    pub antav_sweeps: u32,
}

impl SavePlan {
    /// Number of `(block, register)` save placements in the plan.
    pub fn save_points(&self) -> u32 {
        self.save_at.iter().map(|m| m.count()).sum()
    }

    /// Number of `(block, register)` restore placements in the plan.
    pub fn restore_points(&self) -> u32 {
        self.restore_at.iter().map(|m| m.count()).sum()
    }
}

impl SavePlan {
    /// A plan that saves everything at entry and restores at every exit —
    /// the classic convention, used when shrink-wrapping is disabled.
    pub fn at_entry_exits(cfg: &Cfg, regs: RegMask) -> SavePlan {
        let nb = cfg.num_blocks();
        let mut save_at = vec![RegMask::EMPTY; nb];
        let mut restore_at = vec![RegMask::EMPTY; nb];
        save_at[cfg.entry.index()] = regs;
        for &e in &cfg.exits {
            restore_at[e.index()] = regs;
        }
        SavePlan {
            save_at,
            restore_at,
            entry_spanning: regs,
            iterations: 0,
            antav_sweeps: 0,
        }
    }
}

/// Computes shrink-wrapped save/restore placement.
///
/// `app` gives, per block, the registers that appear in that block (already
/// restricted to the registers needing placement). Returns the placement
/// plan; [`verify_plan`] holds on the result by construction (checked in
/// debug builds).
/// # Panics
///
/// Panics if the entry block has predecessors (run
/// [`normalize_entries`](crate::normalize::normalize_entries) first): entry
/// saves must execute exactly once per invocation.
pub fn shrink_wrap(cfg: &Cfg, loops: &LoopInfo, app: &[RegMask]) -> SavePlan {
    shrink_wrap_with(cfg, loops, app, &mut MaskPool::default())
}

/// [`shrink_wrap`] running its dataflow vectors (extended `APP` copies,
/// `ANT`/`AV`, saved-state) out of the caller's [`MaskPool`]. Only the
/// returned plan's own `save_at`/`restore_at` vectors are freshly
/// allocated; every intermediate is recycled.
pub fn shrink_wrap_with(
    cfg: &Cfg,
    loops: &LoopInfo,
    app: &[RegMask],
    masks: &mut MaskPool,
) -> SavePlan {
    let plan = shrink_wrap_inner(cfg, loops, app, masks);
    // Flight-recorder distributions of plan shape: placement points per
    // solve and range-extension rounds. Histograms merge bucket-wise
    // across wave shards, so the module-level picture is scheduling-
    // independent.
    if ipra_obs::is_enabled() {
        ipra_obs::observe(
            "shrink_wrap.save_points",
            &[],
            u64::from(plan.save_points()),
        );
        ipra_obs::observe(
            "shrink_wrap.restore_points",
            &[],
            u64::from(plan.restore_points()),
        );
        ipra_obs::observe("shrink_wrap.rounds", &[], u64::from(plan.iterations));
    }
    plan
}

fn shrink_wrap_inner(
    cfg: &Cfg,
    loops: &LoopInfo,
    app_in: &[RegMask],
    masks: &mut MaskPool,
) -> SavePlan {
    let nb = cfg.num_blocks();
    assert_eq!(app_in.len(), nb);
    assert!(
        cfg.preds(cfg.entry).is_empty(),
        "entry block must not be a branch target (normalize_entries)"
    );
    let mut app = masks.take(nb, RegMask::EMPTY);
    app.copy_from_slice(app_in);
    let mut app_orig = masks.take(nb, RegMask::EMPTY);
    app_orig.copy_from_slice(app_in);

    // Loop constraint: propagate APP over entire loops.
    apply_loop_constraint(loops, &mut app);

    let mut iterations = 0u32;
    let mut antav_sweeps = 0u32;
    let plan = loop {
        // One span per range-extension round, nested under the phase span,
        // so rounds can be costed individually in the trace.
        let _round = ipra_obs::span("shrink_wrap.round");
        iterations += 1;
        let sol = solve_placement(cfg, &app, masks);
        antav_sweeps += sol.plan.antav_sweeps;
        let problems = find_problems(cfg, &app_orig, &sol);
        if problems.is_empty() {
            debug_assert_eq!(verify_plan(cfg, &app_orig, &sol.plan), Ok(()));
            break retire(sol, masks);
        }
        let mut changed = false;
        for (block, mask) in problems {
            let b = block.index();
            let new = app[b] | mask;
            if new != app[b] {
                app[b] = new;
                changed = true;
            }
        }
        retire_all(sol, masks);
        if !changed || iterations > (nb as u32 + 2) {
            // Escape hatch: place the still-problematic registers with the
            // classic convention. In practice extension converges in one or
            // two iterations (§5); this bound only protects termination.
            let sol = solve_placement(cfg, &app, masks);
            antav_sweeps += sol.plan.antav_sweeps;
            let mut bad = RegMask::EMPTY;
            for (_, mask) in find_problems(cfg, &app_orig, &sol) {
                bad |= mask;
            }
            if bad.is_empty() {
                break retire(sol, masks);
            }
            retire_all(sol, masks);
            let mut reachable_app = masks.take(nb, RegMask::EMPTY);
            for (i, r) in reachable_app.iter_mut().enumerate() {
                *r = if cfg.is_reachable(BlockId(i as u32)) {
                    RegMask(app[i].0 | bad.0)
                } else {
                    app[i]
                };
            }
            let sol = solve_placement(cfg, &reachable_app, masks);
            antav_sweeps += sol.plan.antav_sweeps;
            masks.give(reachable_app);
            debug_assert_eq!(verify_plan(cfg, &app_orig, &sol.plan), Ok(()));
            break retire(sol, masks);
        }
        apply_loop_constraint(loops, &mut app);
    };
    masks.give(app);
    masks.give(app_orig);
    SavePlan {
        iterations,
        antav_sweeps,
        ..plan
    }
}

/// Hands a solution's pooled saved-state vectors back and surfaces the
/// plan (whose `save_at`/`restore_at` escape to the caller).
fn retire(sol: Solution, masks: &mut MaskPool) -> SavePlan {
    masks.give(sol.must_in);
    masks.give(sol.may_in);
    masks.give(sol.must_out);
    masks.give(sol.may_out);
    sol.plan
}

/// [`retire`] for a solution being discarded: the plan's vectors are
/// recycled too instead of dropped.
fn retire_all(sol: Solution, masks: &mut MaskPool) {
    let plan = retire(sol, masks);
    masks.give(plan.save_at);
    masks.give(plan.restore_at);
}

fn apply_loop_constraint(loops: &LoopInfo, app: &mut [RegMask]) {
    // Nested loops share blocks, so iterate to a fixpoint.
    let mut changed = true;
    while changed {
        changed = false;
        for l in &loops.loops {
            let mut u = RegMask::EMPTY;
            for b in l.blocks.iter() {
                u |= app[b];
            }
            for b in l.blocks.iter() {
                if app[b] != u {
                    app[b] = u;
                    changed = true;
                }
            }
        }
    }
}

struct Solution {
    plan: SavePlan,
    /// Must-saved at block entry (all paths).
    must_in: Vec<RegMask>,
    /// May-saved at block entry (some path).
    may_in: Vec<RegMask>,
    /// Must/may-saved at block exit.
    must_out: Vec<RegMask>,
    may_out: Vec<RegMask>,
}

/// One round of the paper's equations: ANT/AV (intersection problems), then
/// SAVE (3.5) and RESTORE (3.6), then the saved-state data flow used by the
/// problem detector.
fn solve_placement(cfg: &Cfg, app: &[RegMask], masks: &mut MaskPool) -> Solution {
    let nb = cfg.num_blocks();
    let full = {
        let mut m = RegMask::EMPTY;
        for a in app {
            m |= *a;
        }
        m
    };

    // Backward: ANTOUT = ∏ succ ANTIN (false at exits); ANTIN = APP + ANTOUT.
    let mut antin = masks.take(nb, RegMask::EMPTY);
    let mut antout = masks.take(nb, RegMask::EMPTY);
    // Forward: AVIN = ∏ pred AVOUT (false at entry); AVOUT = APP + AVIN.
    let mut avin = masks.take(nb, RegMask::EMPTY);
    let mut avout = masks.take(nb, RegMask::EMPTY);
    // Initialize interior to ⊤ for the intersections.
    for &b in &cfg.rpo {
        let i = b.index();
        antin[i] = full;
        antout[i] = full;
        avin[i] = full;
        avout[i] = full;
    }

    // Timed separately so the sweeps counter can be costed under its own
    // sub-span of the shrink_wrap phase.
    let antav_span = ipra_obs::span("shrink_wrap.antav");
    let mut sweeps = 0u32;
    let mut changed = true;
    while changed {
        changed = false;
        sweeps += 1;
        // ANT: post-order sweep.
        for &b in cfg.rpo.iter().rev() {
            let i = b.index();
            let out = if cfg.succs(b).is_empty() {
                RegMask::EMPTY
            } else {
                cfg.succs(b)
                    .iter()
                    .fold(full, |m, s| m.intersect(antin[s.index()]))
            };
            let inn = app[i] | out;
            if out != antout[i] || inn != antin[i] {
                antout[i] = out;
                antin[i] = inn;
                changed = true;
            }
        }
        // AV: RPO sweep.
        for &b in &cfg.rpo {
            let i = b.index();
            let inn = if b == cfg.entry || cfg.preds(b).is_empty() {
                RegMask::EMPTY
            } else {
                cfg.preds(b)
                    .iter()
                    .fold(full, |m, p| m.intersect(avout[p.index()]))
            };
            let out = app[i] | inn;
            if inn != avin[i] || out != avout[i] {
                avin[i] = inn;
                avout[i] = out;
                changed = true;
            }
        }
    }

    drop(antav_span);

    // SAVE_i = ANTIN_i · ¬AVIN_i · ∏_{j∈pred} ¬ANTIN_j            (3.5)
    // RESTORE_i = AVOUT_i · ¬ANTOUT_i · ∏_{j∈succ} ¬AVOUT_j       (3.6)
    let mut save_at = masks.take(nb, RegMask::EMPTY);
    let mut restore_at = masks.take(nb, RegMask::EMPTY);
    for &b in &cfg.rpo {
        let i = b.index();
        let mut s = antin[i].intersect(RegMask(!avin[i].0));
        for p in cfg.preds(b) {
            s = s.intersect(RegMask(!antin[p.index()].0));
        }
        save_at[i] = s.intersect(full);

        let mut r = avout[i].intersect(RegMask(!antout[i].0));
        for su in cfg.succs(b) {
            r = r.intersect(RegMask(!avout[su.index()].0));
        }
        restore_at[i] = r.intersect(full);
    }

    let entry_spanning = save_at[cfg.entry.index()];

    masks.give(antin);
    masks.give(antout);
    masks.give(avin);
    masks.give(avout);

    // Saved-state data flow for the problem detector.
    let (must_in, may_in, must_out, may_out) =
        saved_state_with(cfg, &save_at, &restore_at, full, masks);

    Solution {
        plan: SavePlan {
            save_at,
            restore_at,
            entry_spanning,
            iterations: 0,
            antav_sweeps: sweeps,
        },
        must_in,
        may_in,
        must_out,
        may_out,
    }
}

/// Forward data flow of the "is the original value saved right now" state:
/// `MUST` (all paths) and `MAY` (some path).
fn saved_state(
    cfg: &Cfg,
    save_at: &[RegMask],
    restore_at: &[RegMask],
    full: RegMask,
) -> (Vec<RegMask>, Vec<RegMask>, Vec<RegMask>, Vec<RegMask>) {
    saved_state_with(cfg, save_at, restore_at, full, &mut MaskPool::default())
}

fn saved_state_with(
    cfg: &Cfg,
    save_at: &[RegMask],
    restore_at: &[RegMask],
    full: RegMask,
    masks: &mut MaskPool,
) -> (Vec<RegMask>, Vec<RegMask>, Vec<RegMask>, Vec<RegMask>) {
    let nb = cfg.num_blocks();
    let mut must_in = masks.take(nb, full);
    let mut may_in = masks.take(nb, RegMask::EMPTY);
    let mut must_out = masks.take(nb, full);
    let mut may_out = masks.take(nb, RegMask::EMPTY);
    must_in[cfg.entry.index()] = RegMask::EMPTY;

    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let i = b.index();
            let (mi, yi) = if b == cfg.entry || cfg.preds(b).is_empty() {
                (RegMask::EMPTY, RegMask::EMPTY)
            } else {
                let m = cfg
                    .preds(b)
                    .iter()
                    .fold(full, |m, p| m.intersect(must_out[p.index()]));
                let y = cfg
                    .preds(b)
                    .iter()
                    .fold(RegMask::EMPTY, |m, p| m | may_out[p.index()]);
                (m, y)
            };
            let mo = RegMask((mi | save_at[i]).0 & !restore_at[i].0);
            let yo = RegMask((yi | save_at[i]).0 & !restore_at[i].0);
            if mi != must_in[i] || yi != may_in[i] || mo != must_out[i] || yo != may_out[i] {
                must_in[i] = mi;
                may_in[i] = yi;
                must_out[i] = mo;
                may_out[i] = yo;
                changed = true;
            }
        }
    }
    (must_in, may_in, must_out, may_out)
}

/// Detects the placement problems that require range extension, returning
/// `(block, registers)` pairs whose `APP` must be extended.
fn find_problems(cfg: &Cfg, app_orig: &[RegMask], sol: &Solution) -> Vec<(BlockId, RegMask)> {
    let mut out: Vec<(BlockId, RegMask)> = Vec::new();
    let mut push = |b: BlockId, m: RegMask| {
        if !m.is_empty() {
            out.push((b, m));
        }
    };

    for &b in &cfg.rpo {
        let i = b.index();
        let save = sol.plan.save_at[i];
        let restore = sol.plan.restore_at[i];

        // Double save: saving when some path already saved (Fig. 2).
        // Extend APP into the predecessors carrying the partial save.
        let double = save.intersect(sol.may_in[i]);
        if !double.is_empty() {
            for &p in cfg.preds(b) {
                push(p, double.intersect(sol.may_out[p.index()]));
            }
        }

        // Unprotected use: an original appearance reachable unsaved.
        // Extend APP into the predecessors of the unsaved paths.
        let unprotected = RegMask(app_orig[i].0 & !(sol.must_in[i] | save).0);
        if !unprotected.is_empty() {
            for &p in cfg.preds(b) {
                push(p, RegMask(unprotected.0 & !sol.must_out[p.index()].0));
            }
            if cfg.preds(b).is_empty() {
                // Entry block: saving here is always possible next round.
                push(b, unprotected);
            }
        }

        // Restore of a register not saved on all paths.
        let bad_restore = RegMask(restore.0 & !(sol.must_in[i] | save).0);
        if !bad_restore.is_empty() {
            for &p in cfg.preds(b) {
                push(p, RegMask(bad_restore.0 & !sol.must_out[p.index()].0));
            }
        }

        // Exit while (possibly) still saved: extend APP into the exit block
        // so a restore is forced there.
        if cfg.succs(b).is_empty() {
            push(b, sol.may_out[i]);
        }
    }
    out
}

/// Checks that a placement is correct with respect to the original
/// appearances: along every path, each register is saved exactly once
/// before its first appearance, restored after its last, never
/// double-saved, never restored unsaved, and never left saved at an exit.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn verify_plan(cfg: &Cfg, app_orig: &[RegMask], plan: &SavePlan) -> Result<(), String> {
    let full = {
        let mut m = RegMask::EMPTY;
        for a in app_orig {
            m |= *a;
        }
        for s in &plan.save_at {
            m |= *s;
        }
        m
    };
    let (must_in, may_in, _must_out, may_out) =
        saved_state(cfg, &plan.save_at, &plan.restore_at, full);

    for &b in &cfg.rpo {
        let i = b.index();
        // Consistency: saved-status must be path-independent.
        if must_in[i] != may_in[i] {
            return Err(format!(
                "inconsistent saved state at {b}: must {:?} vs may {:?}",
                must_in[i], may_in[i]
            ));
        }
        let double = plan.save_at[i].intersect(may_in[i]);
        if !double.is_empty() {
            return Err(format!("double save at {b}: {double:?}"));
        }
        let unprotected = RegMask(app_orig[i].0 & !(must_in[i] | plan.save_at[i]).0);
        if !unprotected.is_empty() {
            return Err(format!("unprotected appearance at {b}: {unprotected:?}"));
        }
        let bad_restore = RegMask(plan.restore_at[i].0 & !(must_in[i] | plan.save_at[i]).0);
        if !bad_restore.is_empty() {
            return Err(format!("restore without save at {b}: {bad_restore:?}"));
        }
        if cfg.succs(b).is_empty() && !may_out[i].is_empty() {
            return Err(format!(
                "exit {b} reached with unrestored registers: {:?}",
                may_out[i]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::Function;

    fn analyses(f: &Function) -> (Cfg, LoopInfo) {
        let an = FuncAnalyses::compute(f);
        (an.cfg, an.loops)
    }

    /// entry(0) -> then(1) | else(2) -> join(3, ret)
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let c = b.copy(1);
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.ret(None);
        b.build()
    }

    const R: RegMask = RegMask(0b1);

    fn mask_at(v: &[RegMask], b: usize) -> RegMask {
        v[b]
    }

    #[test]
    fn use_on_one_branch_is_wrapped_there() {
        let f = diamond();
        let (cfg, loops) = analyses(&f);
        let mut app = vec![RegMask::EMPTY; 4];
        app[1] = R; // appears only on the then path
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(mask_at(&plan.save_at, 1), R, "save at the branch block");
        assert_eq!(mask_at(&plan.restore_at, 1), R, "restore at its exit");
        assert_eq!(mask_at(&plan.save_at, 0), RegMask::EMPTY);
        assert!(plan.entry_spanning.is_empty());
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    }

    #[test]
    fn whole_function_use_saves_at_entry() {
        let f = diamond();
        let (cfg, loops) = analyses(&f);
        let app = vec![R; 4];
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(mask_at(&plan.save_at, 0), R);
        assert_eq!(mask_at(&plan.restore_at, 3), R);
        assert_eq!(plan.entry_spanning, R, "§6 condition detected");
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    }

    #[test]
    fn branch_and_join_use_handled_by_anticipability() {
        // APP in then(1) and join(3): anticipability flows through the else
        // path, so the save correctly lands at the entry in one round.
        let f = diamond();
        let (cfg, loops) = analyses(&f);
        let mut app = vec![RegMask::EMPTY; 4];
        app[1] = R;
        app[3] = R;
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
        assert_eq!(plan.iterations, 1);
        assert_eq!(mask_at(&plan.save_at, 0), R, "save hoisted to entry");
        assert_eq!(mask_at(&plan.restore_at, 3), R);
    }

    #[test]
    fn fig2_shape_requires_range_extension() {
        // The paper's Fig. 2(a): 0 -> {1, 2}; 1 -> {3, 4}; 2 -> 4; 3 exits;
        // the register appears in 2 and 4. Naive placement saves at 2 but
        // cannot save at 4 (its predecessor 2 anticipates the use), leaving
        // the 0->1->4 path unprotected. Range extension propagates APP to
        // block 1 and the save merges at the entry.
        let mut b = FunctionBuilder::new("fig2");
        let n1 = b.new_block();
        let n2 = b.new_block();
        let n3 = b.new_block();
        let n4 = b.new_block();
        let c = b.copy(1);
        b.cond_br(c, n1, n2);
        b.switch_to(n1);
        let c2 = b.copy(1);
        b.cond_br(c2, n3, n4);
        b.switch_to(n2);
        b.br(n4);
        b.ret(None); // n4
        b.switch_to(n3);
        b.ret(None);
        let f = b.build();
        let (cfg, loops) = analyses(&f);
        let mut app = vec![RegMask::EMPTY; 5];
        app[2] = R;
        app[4] = R;
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
        assert!(
            plan.iterations >= 2,
            "extension required, took {}",
            plan.iterations
        );
        assert!(
            plan.iterations <= 3,
            "paper reports 1-2 extension rounds; took {}",
            plan.iterations
        );
    }

    #[test]
    fn loop_constraint_keeps_save_outside_loop() {
        // 0 -> 1(header) -> 2(body, uses r) -> 1 ; 1 -> 3(ret)
        let mut b = FunctionBuilder::new("l");
        let h = b.new_block();
        let body = b.new_block();
        let out = b.new_block();
        b.br(h);
        let c = b.copy(1);
        b.cond_br(c, body, out);
        b.switch_to(body);
        b.br(h);
        b.switch_to(out);
        b.ret(None);
        let f = b.build();
        let (cfg, loops) = analyses(&f);
        let mut app = vec![RegMask::EMPTY; 4];
        app[2] = R;
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
        assert!(
            plan.save_at[2].is_empty() && plan.restore_at[2].is_empty(),
            "save/restore must not sit inside the loop body"
        );
        // The loop constraint extends APP over blocks 1 and 2; the save must
        // land before the loop is entered.
        assert_eq!(mask_at(&plan.save_at, 0), R);
    }

    #[test]
    fn no_appearance_no_plan() {
        let f = diamond();
        let (cfg, loops) = analyses(&f);
        let app = vec![RegMask::EMPTY; 4];
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert!(plan.save_at.iter().all(|m| m.is_empty()));
        assert!(plan.restore_at.iter().all(|m| m.is_empty()));
        assert_eq!(plan.iterations, 1);
    }

    #[test]
    fn multiple_registers_processed_at_once() {
        let f = diamond();
        let (cfg, loops) = analyses(&f);
        let r0 = RegMask(0b01);
        let r1 = RegMask(0b10);
        let mut app = vec![RegMask::EMPTY; 4];
        app[1] = r0; // r0 only on then path
        app[0] = r1; // r1 everywhere
        app[3] = r1;
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
        assert!(plan.save_at[1].contains(ipra_machine::PReg(0)));
        assert!(plan.save_at[0].contains(ipra_machine::PReg(1)));
        assert_eq!(plan.entry_spanning, r1);
    }

    #[test]
    fn rounds_and_antav_nest_under_phase_span() {
        let f = diamond();
        let (cfg, loops) = analyses(&f);
        let mut app = vec![RegMask::EMPTY; 4];
        app[1] = R;
        ipra_obs::enable();
        {
            let _phase = ipra_obs::span("shrink_wrap");
            let _ = shrink_wrap(&cfg, &loops, &app);
        }
        let trace = ipra_obs::disable();
        let phase = trace
            .spans
            .iter()
            .find(|s| s.name == "shrink_wrap")
            .unwrap();
        let rounds: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.name == "shrink_wrap.round")
            .collect();
        assert!(!rounds.is_empty());
        for r in &rounds {
            assert_eq!(r.parent_id, Some(phase.id), "round nests under phase");
        }
        for a in trace.spans.iter().filter(|s| s.name == "shrink_wrap.antav") {
            assert!(
                rounds.iter().any(|r| Some(r.id) == a.parent_id),
                "antav nests under a round"
            );
        }
    }

    #[test]
    fn classic_placement_fallback() {
        let f = diamond();
        let (cfg, _) = analyses(&f);
        let plan = SavePlan::at_entry_exits(&cfg, R);
        let app = vec![R; 4];
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
        assert_eq!(plan.save_at[0], R);
        assert_eq!(plan.restore_at[3], R);
        assert_eq!(plan.entry_spanning, R);
    }

    #[test]
    fn fig3_diamond_pair_saves_only_on_use_side() {
        // Fig. 3 shape: two consecutive diamonds; the register is used only
        // in the first diamond's left arm. Shrink-wrap must confine the
        // save/restore to that arm so the other three paths pay nothing.
        let mut b = FunctionBuilder::new("fig3");
        let l1 = b.new_block();
        let r1 = b.new_block();
        let m = b.new_block();
        let l2 = b.new_block();
        let r2 = b.new_block();
        let end = b.new_block();
        let c = b.copy(1);
        b.cond_br(c, l1, r1);
        b.switch_to(l1);
        b.br(m);
        b.switch_to(r1);
        b.br(m);
        let c2 = b.copy(1);
        b.cond_br(c2, l2, r2);
        b.switch_to(l2);
        b.br(end);
        b.switch_to(r2);
        b.br(end);
        b.ret(None);
        let f = b.build();
        let (cfg, loops) = analyses(&f);
        let mut app = vec![RegMask::EMPTY; 7];
        app[1] = R; // left arm of first diamond only
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
        assert_eq!(plan.save_at[1], R);
        assert_eq!(plan.restore_at[1], R);
        for i in [0usize, 2, 3, 4, 5, 6] {
            assert!(plan.save_at[i].is_empty(), "no save in block {i}");
            assert!(plan.restore_at[i].is_empty(), "no restore in block {i}");
        }
    }
}
