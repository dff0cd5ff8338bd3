//! The priority function (Chow–Hennessy, extended per the paper's §2).
//!
//! Under intra-procedural allocation the cost of a register depends only on
//! its *class*: a callee-saved register pays one save/restore at entry/exit
//! (only on its first use in the function), a caller-saved register pays a
//! save/restore around every call the live range spans. Under
//! inter-procedural allocation the cost is computed *per register*: a call
//! site only charges for registers its callee's summary actually clobbers,
//! so priorities exist per (variable, register) pair.

use ipra_machine::{PReg, RegClass, RegMask, Target};

use crate::ranges::{BlockWeights, LiveRange, RangeData};

/// Everything needed to evaluate priorities in one function.
#[derive(Debug)]
pub struct PriorityCtx<'a> {
    /// Target machine.
    pub target: &'a Target,
    /// Ranges and call sites.
    pub ranges: &'a RangeData,
    /// Clobber mask per call site (resolved from callee summaries, or the
    /// default mask for open/unknown callees).
    pub site_clobbers: &'a [RegMask],
    /// Whether a callee-saved register's first use in this function pays a
    /// local entry/exit save/restore. True for intra-procedural allocation
    /// and for open procedures; false for closed procedures under
    /// inter-procedural allocation, where the save propagates to ancestors
    /// (§3).
    pub charge_callee_saved_entry: bool,
    /// Loop weight of the entry block (the save/restore at entry/exit
    /// executes once per invocation).
    pub entry_weight: f64,
    /// Registers already used somewhere in the current call tree —
    /// preferred on ties to minimize the tree's register footprint (§2,
    /// Fig. 1 discussion).
    pub subtree_used: RegMask,
    /// Per-vreg register affinities: `(reg, bonus)` pairs. Used for §4
    /// parameter-register binding and default-convention parameter homes.
    pub hints: &'a [Vec<(PReg, f64)>],
    /// Execution-frequency weight per block (static loop-based or measured
    /// profile); the splitter prices boundary transfers with these.
    pub weights: &'a BlockWeights,
}

impl PriorityCtx<'_> {
    /// Memory operations avoided by keeping the range in a register,
    /// weighted by loop depth: each use avoids a load, each def a store.
    pub fn benefit(&self, lr: &LiveRange) -> f64 {
        let c = &self.target.cost;
        lr.weighted_uses * c.load as f64 + lr.weighted_defs * c.store as f64
    }

    /// Cost of holding `lr` in register `r`:
    /// save/restore around every spanned call whose callee clobbers `r`,
    /// plus (when this function must protect callee-saved registers
    /// locally) one entry/exit save/restore on the first use of `r`.
    pub fn reg_cost(&self, lr: &LiveRange, r: PReg, used_in_func: RegMask) -> f64 {
        let c = &self.target.cost;
        let save_restore = (c.load + c.store) as f64;
        let mut cost = 0.0;
        for &site in self.ranges.spans_calls(lr.vreg) {
            if self.site_clobbers[site as usize].contains(r) {
                cost += self.ranges.call_sites[site as usize].weight * save_restore;
            }
        }
        if self.charge_callee_saved_entry
            && self.target.regs.class(r) == Some(RegClass::CalleeSaved)
            && !used_in_func.contains(r)
        {
            cost += self.entry_weight * save_restore;
        }
        cost
    }

    /// Affinity bonus of `(lr, r)` from hints.
    pub fn hint_bonus(&self, lr: &LiveRange, r: PReg) -> f64 {
        self.hints[lr.vreg.index()]
            .iter()
            .filter(|(hr, _)| *hr == r)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Net priority of assigning `r` to `lr`.
    pub fn net(&self, lr: &LiveRange, r: PReg, used_in_func: RegMask) -> f64 {
        self.benefit(lr) - self.reg_cost(lr, r, used_in_func) + self.hint_bonus(lr, r)
    }

    /// The best allowed register for `lr`, with its priority *density*
    /// (net priority normalized by live-range size, the paper's ordering
    /// criterion). Ties prefer registers already used in the call tree,
    /// then already used in this function, then lower index.
    pub fn best(
        &self,
        lr: &LiveRange,
        forbidden: RegMask,
        used_in_func: RegMask,
    ) -> Option<(PReg, f64)> {
        let size = self.ranges.blocks(lr.vreg).len().max(1) as f64;
        let mut best: Option<(PReg, f64, (bool, bool))> = None;
        for &r in self.target.regs.allocatable() {
            if forbidden.contains(r) {
                continue;
            }
            let density = self.net(lr, r, used_in_func) / size;
            let pref = (self.subtree_used.contains(r), used_in_func.contains(r));
            let better = match best {
                None => true,
                Some((_, bd, bp)) => {
                    density > bd + 1e-9 || (density > bd - 1e-9 && pref_rank(pref) > pref_rank(bp))
                }
            };
            if better {
                best = Some((r, density, pref));
            }
        }
        best.map(|(r, d, _)| (r, d))
    }
}

fn pref_rank(p: (bool, bool)) -> u8 {
    // Already used in this function beats only-in-subtree beats fresh.
    match p {
        (_, true) => 2,
        (true, false) => 1,
        (false, false) => 0,
    }
}

/// Memoized static priority terms for the coloring loop.
///
/// `benefit`, the per-call cost sum, and the hint bonus of a
/// `(variable, register)` pair never change while coloring runs (site
/// clobbers and hints are fixed per function), yet [`PriorityCtx::best`]
/// re-derives them on every heap revalidation. The cache gives a range,
/// on its first lookup, one row of `(call cost, hint)` terms over the
/// allocatable registers, filled by one pass over the range's spanned
/// calls that adds each register's costs in call order, as
/// [`PriorityCtx::reg_cost`] does. Only the callee-saved entry charge
/// depends on evolving state (`used_in_func`), so it is added at lookup
/// time in the same order, which keeps every floating-point result
/// bit-identical to the uncached path.
pub struct PriorityCache {
    /// Per vreg: its row, or `u32::MAX` before its first lookup.
    row_of: Vec<u32>,
    /// Per row: the range's benefit.
    benefit: Vec<f64>,
    /// Per row, per allocatable register: `(call_cost, hint_bonus)`.
    terms: Vec<(f64, f64)>,
}

impl PriorityCache {
    /// An empty cache sized for `ctx`: a row for each candidate range.
    pub fn new(ctx: &PriorityCtx<'_>) -> Self {
        let ranges = &ctx.ranges.ranges;
        let rows = ranges.iter().filter(|lr| lr.is_candidate()).count();
        PriorityCache {
            row_of: vec![u32::MAX; ranges.len()],
            benefit: Vec::with_capacity(rows),
            terms: Vec::with_capacity(rows * ctx.target.regs.allocatable().len()),
        }
    }

    /// `lr`'s row of terms, filled on first use.
    fn row(&mut self, ctx: &PriorityCtx<'_>, lr: &LiveRange) -> usize {
        let vi = lr.vreg.index();
        if self.row_of[vi] == u32::MAX {
            self.row_of[vi] = self.benefit.len() as u32;
            self.benefit.push(ctx.benefit(lr));
            let allocatable = ctx.target.regs.allocatable();
            let base = self.terms.len();
            self.terms
                .extend(allocatable.iter().map(|&r| (0.0, ctx.hint_bonus(lr, r))));
            let c = &ctx.target.cost;
            let save_restore = (c.load + c.store) as f64;
            for &site in ctx.ranges.spans_calls(lr.vreg) {
                let clobbers = ctx.site_clobbers[site as usize];
                let cost = ctx.ranges.call_sites[site as usize].weight * save_restore;
                for (j, &r) in allocatable.iter().enumerate() {
                    if clobbers.contains(r) {
                        self.terms[base + j].0 += cost;
                    }
                }
            }
        }
        self.row_of[vi] as usize
    }

    /// The net priority of the `j`-th allocatable register `r` for the
    /// range in `row`.
    fn net_at(
        &self,
        ctx: &PriorityCtx<'_>,
        row: usize,
        j: usize,
        r: PReg,
        used_in_func: RegMask,
    ) -> f64 {
        let width = ctx.target.regs.allocatable().len();
        let (call_cost, hint) = self.terms[row * width + j];
        let mut cost = call_cost;
        if ctx.charge_callee_saved_entry
            && ctx.target.regs.class(r) == Some(RegClass::CalleeSaved)
            && !used_in_func.contains(r)
        {
            let c = &ctx.target.cost;
            cost += ctx.entry_weight * (c.load + c.store) as f64;
        }
        self.benefit[row] - cost + hint
    }

    /// Cached equivalent of [`PriorityCtx::net`].
    ///
    /// # Panics
    ///
    /// Panics when `r` is not allocatable.
    pub fn net(
        &mut self,
        ctx: &PriorityCtx<'_>,
        lr: &LiveRange,
        r: PReg,
        used_in_func: RegMask,
    ) -> f64 {
        let row = self.row(ctx, lr);
        let j = ctx
            .target
            .regs
            .allocatable()
            .iter()
            .position(|&a| a == r)
            .expect("priority of an allocatable register");
        self.net_at(ctx, row, j, r, used_in_func)
    }

    /// Cached equivalent of [`PriorityCtx::best`]: same selection, same
    /// tie-breaks, same result — the per-pair terms just come from the
    /// range's row.
    pub fn best(
        &mut self,
        ctx: &PriorityCtx<'_>,
        lr: &LiveRange,
        forbidden: RegMask,
        used_in_func: RegMask,
    ) -> Option<(PReg, f64)> {
        let row = self.row(ctx, lr);
        let size = ctx.ranges.blocks(lr.vreg).len().max(1) as f64;
        let mut best: Option<(PReg, f64, (bool, bool))> = None;
        for (j, &r) in ctx.target.regs.allocatable().iter().enumerate() {
            if forbidden.contains(r) {
                continue;
            }
            let density = self.net_at(ctx, row, j, r, used_in_func) / size;
            let pref = (ctx.subtree_used.contains(r), used_in_func.contains(r));
            let better = match best {
                None => true,
                Some((_, bd, bp)) => {
                    density > bd + 1e-9 || (density > bd - 1e-9 && pref_rank(pref) > pref_rank(bp))
                }
            };
            if better {
                best = Some((r, density, pref));
            }
        }
        best.map(|(r, d, _)| (r, d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{BinOp, Function, Module};

    fn range_data(f: &Function) -> (RangeData, BlockWeights) {
        let an = FuncAnalyses::compute(f);
        let weights = BlockWeights::from_loops(&an.cfg, &an.loops);
        (
            RangeData::build(f, &an.cfg, &an.liveness, &weights),
            weights,
        )
    }

    /// x is live across one call; t is a short temp.
    fn func_with_call() -> (Function, ipra_ir::Vreg, ipra_ir::Vreg) {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(5);
        b.call_void(callee, vec![]);
        let t = b.bin(BinOp::Add, x, 1);
        b.print(t);
        b.ret(None);
        (b.build(), x, t)
    }

    #[test]
    fn call_spanning_range_prefers_callee_saved_intra() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![target.regs.default_clobbers()];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let lr = &rd.ranges[x.index()];
        let caller = target
            .regs
            .allocatable_of(RegClass::CallerSaved)
            .next()
            .unwrap();
        let callee_saved = target
            .regs
            .allocatable_of(RegClass::CalleeSaved)
            .next()
            .unwrap();
        // Both classes cost one save/restore here (around the call vs at
        // entry/exit), so they tie for a single call...
        assert_eq!(
            ctx.reg_cost(lr, caller, RegMask::EMPTY),
            ctx.reg_cost(lr, callee_saved, RegMask::EMPTY)
        );
        // ...but with the callee-saved register already used, it is free.
        let used = RegMask::single(callee_saved);
        assert_eq!(ctx.reg_cost(lr, callee_saved, used), 0.0);
        assert!(ctx.reg_cost(lr, caller, used) > 0.0);
        let (best, _) = ctx.best(lr, RegMask::EMPTY, used).unwrap();
        assert_eq!(best, callee_saved);
    }

    #[test]
    fn short_temp_prefers_caller_saved() {
        let (f, _, t) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![target.regs.default_clobbers()];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let lr = &rd.ranges[t.index()];
        let (best, density) = ctx.best(lr, RegMask::EMPTY, RegMask::EMPTY).unwrap();
        assert_eq!(
            target.regs.class(best),
            Some(RegClass::CallerSaved),
            "temp not spanning calls must take a free caller-saved register"
        );
        assert!(density > 0.0);
    }

    #[test]
    fn interprocedural_cost_depends_on_callee_summary() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        // The callee's summary says it clobbers only one specific register.
        let hot = target.regs.allocatable()[5];
        let clobbers = vec![RegMask::single(hot)];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: false,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let lr = &rd.ranges[x.index()];
        assert!(
            ctx.reg_cost(lr, hot, RegMask::EMPTY) > 0.0,
            "clobbered register costs"
        );
        let other = target.regs.allocatable()[6];
        assert_eq!(
            ctx.reg_cost(lr, other, RegMask::EMPTY),
            0.0,
            "unclobbered register is free"
        );
        let (best, _) = ctx.best(lr, RegMask::EMPTY, RegMask::EMPTY).unwrap();
        assert_ne!(best, hot);
    }

    #[test]
    fn hints_steer_selection() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![RegMask::EMPTY];
        let fav = target.regs.allocatable()[9];
        let mut hints = vec![Vec::new(); f.num_vregs()];
        hints[x.index()].push((fav, 50.0));
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: false,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &hints,
            weights: &weights,
        };
        let (best, _) = ctx
            .best(&rd.ranges[x.index()], RegMask::EMPTY, RegMask::EMPTY)
            .unwrap();
        assert_eq!(best, fav);
    }

    #[test]
    fn cache_matches_uncached_bit_for_bit() {
        let (f, _, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![target.regs.default_clobbers()];
        let fav = target.regs.allocatable()[2];
        let mut hints = vec![Vec::new(); f.num_vregs()];
        hints[0].push((fav, 7.5));
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::single(fav),
            hints: &hints,
            weights: &weights,
        };
        let mut cache = PriorityCache::new(&ctx);
        for lr in rd.ranges.iter().filter(|l| l.is_candidate()) {
            for &r in target.regs.allocatable() {
                for used in [RegMask::EMPTY, RegMask::single(r)] {
                    // Ask twice: the first call fills the memo, the second
                    // reads it; both must equal the uncached value exactly.
                    for _ in 0..2 {
                        assert_eq!(
                            cache.net(&ctx, lr, r, used).to_bits(),
                            ctx.net(lr, r, used).to_bits(),
                        );
                    }
                }
            }
            let uncached = ctx.best(lr, RegMask::EMPTY, RegMask::EMPTY);
            let cached = cache.best(&ctx, lr, RegMask::EMPTY, RegMask::EMPTY);
            match (uncached, cached) {
                (None, None) => {}
                (Some((ur, ud)), Some((cr, cd))) => {
                    assert_eq!(ur, cr);
                    assert_eq!(ud.to_bits(), cd.to_bits());
                }
                other => panic!("cache diverged: {other:?}"),
            }
        }
    }

    #[test]
    fn subtree_preference_breaks_ties() {
        let (f, x, _) = func_with_call();
        let target = Target::mips_like();
        let (rd, weights) = range_data(&f);
        let clobbers = vec![RegMask::EMPTY];
        let ctx_no_pref = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: false,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        let preferred = target.regs.allocatable()[7];
        let (b1, _) = ctx_no_pref
            .best(&rd.ranges[x.index()], RegMask::EMPTY, RegMask::EMPTY)
            .unwrap();
        let ctx_pref = PriorityCtx {
            subtree_used: RegMask::single(preferred),
            ..ctx_no_pref
        };
        let (b2, _) = ctx_pref
            .best(&rd.ranges[x.index()], RegMask::EMPTY, RegMask::EMPTY)
            .unwrap();
        assert_eq!(
            b1,
            target.regs.allocatable()[0],
            "no preference: first register"
        );
        assert_eq!(b2, preferred, "tie broken toward the call tree's register");
    }
}
