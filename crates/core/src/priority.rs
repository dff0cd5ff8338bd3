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

/// Work counts of one function's [`PriorityCache`]: the §2 cost of
/// per-register priorities, counted rather than timed.
#[derive(Clone, Copy, Debug, Default)]
pub struct PriorityStats {
    /// Candidate ranges priced (one row each).
    pub rows: u64,
    /// Parts over all rows: distinct clobber behaviours of the
    /// allocatable registers across each range's spanned calls.
    pub parts: u64,
    /// Lookups answered by the per-register scan ([`PriorityCtx::best`])
    /// because two register classes priced within the 1e-9 tie window.
    pub scans: u64,
}

/// One candidate range's static priority terms.
#[derive(Clone, Copy)]
struct Row {
    benefit: f64,
    /// The range's parts: `parts[parts_at..parts_end]`.
    parts_at: u32,
    parts_end: u32,
    /// The range's hinted allocatable registers:
    /// `hinted[hinted_at..hinted_end]`, and their mask.
    hinted_at: u32,
    hinted_end: u32,
    hinted_mask: RegMask,
}

/// Memoized static priority terms for the coloring loop.
///
/// `benefit`, the per-call cost sum and the hint bonus of a
/// `(variable, register)` pair never change while coloring runs (site
/// clobbers and hints are fixed per function), yet [`PriorityCtx::best`]
/// re-derives them on every heap revalidation. Registers that the range's
/// spanned calls clobber alike add the same terms in the same call order,
/// so they share one cost sum. The cache gives a range, on its first
/// lookup, a *row*: the allocatable registers partitioned into such parts,
/// refined site by site in call order (so each part's sum is bit-identical
/// to [`PriorityCtx::reg_cost`]'s per-register sum), plus the bonus of
/// each hinted register.
///
/// [`PriorityCache::best`] then prices one density per *class*: a part
/// crossed with the callee-saved entry charge (the only term that depends
/// on evolving state, `used_in_func`), with each allowed hinted register a
/// class of its own. When every other class lies outside the scan's 1e-9
/// tie window around the highest density, the scan's pick is the first
/// register of the highest preference rank with that density; otherwise
/// the lookup runs the scan itself. Either way the result is bit-identical
/// to [`PriorityCtx::best`].
pub struct PriorityCache {
    /// Per vreg: its row, or `u32::MAX` before its first lookup.
    row_of: Vec<u32>,
    rows: Vec<Row>,
    /// Every row's parts, back to back: `(registers, call cost)`.
    parts: Vec<(RegMask, f64)>,
    /// Every row's hinted registers, back to back: `(register, bonus)`.
    hinted: Vec<(PReg, f64)>,
    /// One lookup's classes: `(allowed registers, density)`.
    classes: Vec<(RegMask, f64)>,
    /// The allocatable registers, and the callee-saved ones among them.
    allocatable: RegMask,
    callee_saved: RegMask,
    scans: u64,
}

impl PriorityCache {
    /// An empty cache sized for `ctx`: a row for each candidate range.
    pub fn new(ctx: &PriorityCtx<'_>) -> Self {
        let ranges = &ctx.ranges.ranges;
        let rows = ranges.iter().filter(|lr| lr.is_candidate()).count();
        let allocatable = ctx.target.regs.allocatable();
        // The class pick takes a mask's lowest register as the scan's
        // first: the allocatable order is ascending.
        debug_assert!(allocatable.windows(2).all(|w| w[0] < w[1]));
        PriorityCache {
            row_of: vec![u32::MAX; ranges.len()],
            rows: Vec::with_capacity(rows),
            parts: Vec::with_capacity(rows),
            hinted: Vec::new(),
            classes: Vec::new(),
            allocatable: allocatable.iter().copied().collect(),
            callee_saved: ctx
                .target
                .regs
                .allocatable_of(RegClass::CalleeSaved)
                .collect(),
            scans: 0,
        }
    }

    /// What this cache has done so far.
    pub fn stats(&self) -> PriorityStats {
        PriorityStats {
            rows: self.rows.len() as u64,
            parts: self.parts.len() as u64,
            scans: self.scans,
        }
    }

    /// `lr`'s row, filled on first use.
    fn row(&mut self, ctx: &PriorityCtx<'_>, lr: &LiveRange) -> Row {
        let vi = lr.vreg.index();
        if self.row_of[vi] == u32::MAX {
            self.row_of[vi] = self.rows.len() as u32;
            let parts_at = self.parts.len();
            self.parts.push((self.allocatable, 0.0));
            let c = &ctx.target.cost;
            let save_restore = (c.load + c.store) as f64;
            for &site in ctx.ranges.spans_calls(lr.vreg) {
                let clobbers = ctx.site_clobbers[site as usize];
                let cost = ctx.ranges.call_sites[site as usize].weight * save_restore;
                for k in parts_at..self.parts.len() {
                    let (regs, sum) = self.parts[k];
                    let hit = regs.intersect(clobbers);
                    if hit.is_empty() {
                        continue;
                    }
                    let miss = RegMask(regs.0 & !clobbers.0);
                    if miss.is_empty() {
                        self.parts[k].1 = sum + cost;
                    } else {
                        self.parts[k].0 = miss;
                        self.parts.push((hit, sum + cost));
                    }
                }
            }
            let hinted_at = self.hinted.len();
            let mut hinted_mask = RegMask::EMPTY;
            for &(r, _) in &ctx.hints[vi] {
                if self.allocatable.contains(r) && !hinted_mask.contains(r) {
                    hinted_mask.insert(r);
                    self.hinted.push((r, ctx.hint_bonus(lr, r)));
                }
            }
            self.rows.push(Row {
                benefit: ctx.benefit(lr),
                parts_at: parts_at as u32,
                parts_end: self.parts.len() as u32,
                hinted_at: hinted_at as u32,
                hinted_end: self.hinted.len() as u32,
                hinted_mask,
            });
        }
        self.rows[self.row_of[vi] as usize]
    }

    /// Cached equivalent of [`PriorityCtx::best`]: same selection, same
    /// tie-breaks, same result, priced per class instead of per register.
    pub fn best(
        &mut self,
        ctx: &PriorityCtx<'_>,
        lr: &LiveRange,
        forbidden: RegMask,
        used_in_func: RegMask,
    ) -> Option<(PReg, f64)> {
        let row = self.row(ctx, lr);
        let allowed = RegMask(self.allocatable.0 & !forbidden.0);
        if allowed.is_empty() {
            return None;
        }
        let size = ctx.ranges.blocks(lr.vreg).len().max(1) as f64;
        let charged = if ctx.charge_callee_saved_entry {
            RegMask(self.callee_saved.0 & !used_in_func.0)
        } else {
            RegMask::EMPTY
        };
        let c = &ctx.target.cost;
        let entry = ctx.entry_weight * (c.load + c.store) as f64;
        // Each density is the scan's expression for any register of its
        // class, term for term.
        let density = |call_cost: f64, charge: bool, hint: f64| {
            let mut cost = call_cost;
            if charge {
                cost += entry;
            }
            (row.benefit - cost + hint) / size
        };
        // An unhinted register's bonus is the scan's empty sum (-0.0).
        let no_hint: f64 = std::iter::empty::<f64>().sum();
        let unhinted = RegMask(allowed.0 & !row.hinted_mask.0);
        self.classes.clear();
        for &(regs, call_cost) in &self.parts[row.parts_at as usize..row.parts_end as usize] {
            let regs = regs.intersect(unhinted);
            let free = RegMask(regs.0 & !charged.0);
            if !free.is_empty() {
                self.classes
                    .push((free, density(call_cost, false, no_hint)));
            }
            let paying = regs.intersect(charged);
            if !paying.is_empty() {
                self.classes
                    .push((paying, density(call_cost, true, no_hint)));
            }
        }
        for &(r, hint) in &self.hinted[row.hinted_at as usize..row.hinted_end as usize] {
            if !allowed.contains(r) {
                continue;
            }
            let parts = &self.parts[row.parts_at as usize..row.parts_end as usize];
            let &(_, call_cost) = parts
                .iter()
                .find(|(regs, _)| regs.contains(r))
                .expect("every allocatable register is in one part");
            self.classes.push((
                RegMask::single(r),
                density(call_cost, charged.contains(r), hint),
            ));
        }

        // The highest density; a NaN anywhere fails the window checks
        // below and takes the scan.
        let mut top = self.classes[0].1;
        for &(_, d) in &self.classes[1..] {
            if d > top {
                top = d;
            }
        }
        // Registers at `top` must break ties by preference rank, and every
        // other class must lose to `top` and never tie with it, whatever
        // the scan order.
        let mut at_top = RegMask::EMPTY;
        let mut clear = top > top - 1e-9;
        for &(regs, d) in &self.classes {
            if d.to_bits() == top.to_bits() {
                at_top |= regs;
            } else {
                clear &= top > d + 1e-9 && d <= top - 1e-9;
            }
        }
        if !clear {
            self.scans += 1;
            return ctx.best(lr, forbidden, used_in_func);
        }
        // Already used in this function beats only-in-subtree beats fresh;
        // within a rank the scan keeps the first register.
        let in_func = at_top.intersect(used_in_func);
        let in_subtree = at_top.intersect(ctx.subtree_used);
        let pick = [in_func, in_subtree, at_top]
            .into_iter()
            .find(|m| !m.is_empty())
            .expect("the top class has a register");
        Some((PReg(pick.0.trailing_zeros() as u8), top))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{BinOp, Function, Module};
    use ipra_workloads::synth::XorShift64Star;

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

    /// Asserts that the cache's pick equals the scan's, register and
    /// density bits alike.
    fn assert_same_pick(
        cache: &mut PriorityCache,
        ctx: &PriorityCtx<'_>,
        lr: &LiveRange,
        forbidden: RegMask,
        used: RegMask,
        case: &str,
    ) {
        let scan = ctx.best(lr, forbidden, used);
        let cached = cache.best(ctx, lr, forbidden, used);
        assert_eq!(
            scan.map(|(r, d)| (r, d.to_bits())),
            cached.map(|(r, d)| (r, d.to_bits())),
            "{case}: v{} forbidden {forbidden:?} used {used:?}",
            lr.vreg.index()
        );
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
                    // The first lookup fills the row, the second reads it.
                    for forbidden in [RegMask::EMPTY, RegMask::single(r)] {
                        assert_same_pick(&mut cache, &ctx, lr, forbidden, used, "one call");
                    }
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.rows, 2, "x and t");
        assert_eq!(stats.parts, 3, "x splits at its call, t spans none");
    }

    /// A function whose values span different runs of calls: values
    /// defined at entry, then a chain of blocks of one to three calls
    /// each, every value printed after the calls of a random block.
    fn spanning_function(rng: &mut XorShift64Star) -> Function {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("f");
        let values: Vec<_> = (0..2 + rng.below(6)).map(|i| b.copy(i as i64)).collect();
        let chain = 1 + rng.below(5);
        let last: Vec<u64> = values.iter().map(|_| rng.below(chain)).collect();
        for k in 0..chain {
            for _ in 0..1 + rng.below(3) {
                b.call_void(callee, vec![]);
            }
            for (&v, &l) in values.iter().zip(&last) {
                if l == k {
                    b.print(v);
                }
            }
            let next = b.new_block();
            b.br(next);
            b.switch_to(next);
        }
        b.ret(None);
        b.build()
    }

    /// A random mask: empty, full, or each register of `of` with
    /// probability one half.
    fn random_mask(rng: &mut XorShift64Star, of: RegMask) -> RegMask {
        match rng.below(4) {
            0 => RegMask::EMPTY,
            1 => of,
            _ => of.iter().filter(|_| rng.coin()).collect(),
        }
    }

    /// The class-based `best` equals the per-register scan on the register
    /// and on the density bits. Cases vary the spanned calls' clobber
    /// layouts and weights, the hint lists, the forbidden, used and
    /// subtree masks and the entry charge, and place hinted and charged
    /// densities within and just outside the scan's 1e-9 tie window of
    /// other classes, so both the class pick and the fallback scan run.
    #[test]
    fn class_pricing_matches_the_scan_bit_for_bit() {
        let mut lookups = 0u64;
        let mut scans = 0u64;
        for seed in 0..300 {
            let rng = &mut XorShift64Star::new(seed);
            let f = spanning_function(rng);
            let target = match rng.below(3) {
                0 => Target::mips_like(),
                1 => Target::with_class_limits(4, 3),
                _ => Target::convention(8, 5, 2),
            };
            let an = FuncAnalyses::compute(&f);
            // Profiled weights make the calls' costs differ (or repeat).
            let counts: Vec<u64> = (0..an.cfg.num_blocks())
                .map(|b| {
                    if b == 0 {
                        2
                    } else {
                        [2, 4, 6, 8][rng.below(4) as usize]
                    }
                })
                .collect();
            let weights = BlockWeights::from_profile(&an.cfg, &an.loops, &counts);
            let rd = RangeData::build(&f, &an.cfg, &an.liveness, &weights);
            let allocatable: RegMask = target.regs.allocatable().iter().copied().collect();
            let layouts = [
                target.regs.default_clobbers(),
                random_mask(rng, allocatable),
                random_mask(rng, allocatable),
            ];
            let clobbers: Vec<RegMask> = rd
                .call_sites
                .iter()
                .map(|_| layouts[rng.below(3) as usize])
                .collect();
            let c = &target.cost;
            let save_restore = (c.load + c.store) as f64;
            let entry_weight = [1.0, 0.5, 3.0][rng.below(3) as usize];
            // Bonuses near the differences the other terms make: a call's
            // cost, the entry charge, or nothing, nudged by multiples of
            // 0.4e-9 density.
            let mut hints = vec![Vec::new(); f.num_vregs()];
            for lr in rd.ranges.iter().filter(|l| l.is_candidate()) {
                let size = rd.blocks(lr.vreg).len().max(1) as f64;
                for _ in 0..rng.below(4) {
                    let r =
                        target.regs.allocatable()[rng.below(allocatable.count() as u64) as usize];
                    let base = match rng.below(3) {
                        0 => 0.0,
                        1 => entry_weight * save_restore,
                        _ => {
                            rd.call_sites[rng.below(rd.call_sites.len() as u64) as usize].weight
                                * save_restore
                        }
                    };
                    let nudge = rng.range_i64(-4, 5) as f64 * 0.4e-9 * size;
                    hints[lr.vreg.index()].push((r, base + nudge));
                }
            }
            let ctx = PriorityCtx {
                target: &target,
                ranges: &rd,
                site_clobbers: &clobbers,
                charge_callee_saved_entry: rng.coin(),
                entry_weight,
                subtree_used: random_mask(rng, allocatable),
                hints: &hints,
                weights: &weights,
            };
            let mut cache = PriorityCache::new(&ctx);
            for _ in 0..6 {
                for lr in rd.ranges.iter().filter(|l| l.is_candidate()) {
                    let forbidden = match rng.below(3) {
                        0 => RegMask::EMPTY,
                        _ => random_mask(rng, allocatable),
                    };
                    let used = random_mask(rng, allocatable);
                    assert_same_pick(
                        &mut cache,
                        &ctx,
                        lr,
                        forbidden,
                        used,
                        &format!("seed {seed}"),
                    );
                    lookups += 1;
                }
            }
            scans += cache.stats().scans;
        }
        // Both paths ran: most lookups priced classes, some fell back.
        assert!(scans > 0, "no lookup fell back to the scan");
        assert!(
            scans * 4 < lookups,
            "{scans} of {lookups} lookups fell back"
        );
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
