//! Priority-based coloring with live-range splitting.
//!
//! Live ranges are processed in order of decreasing priority density; each
//! takes the register with the best net priority among those its
//! interference neighbours have not taken. A range that cannot be colored
//! (or whose whole-range priority is negative) is either *split* — a
//! connected, profitable sub-region of its blocks gets a register, the rest
//! stays in memory — or left in its home memory slot.

use std::collections::HashMap;

use ipra_cfg::{BitSet, Cfg, Liveness};
use ipra_ir::{BlockId, Vreg};
use ipra_machine::{PReg, RegClass, RegMask};

use crate::priority::{PriorityCache, PriorityCtx, PriorityStats};
use crate::scratch::CompileScratch;

/// Where a virtual register lives (over its whole range, or per block for
/// split ranges).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VregLoc {
    /// In a physical register.
    Reg(PReg),
    /// In its home stack slot.
    Mem,
}

/// The result of coloring one function.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Whole-range location per vreg (the fallback for split ranges).
    pub whole: Vec<VregLoc>,
    /// Per-block overrides for split ranges.
    pub split: Vec<Option<HashMap<usize, PReg>>>,
    /// All registers the assignment uses.
    pub used: RegMask,
}

impl Assignment {
    /// Location of `v` inside `block`.
    pub fn loc(&self, v: Vreg, block: BlockId) -> VregLoc {
        if let Some(map) = &self.split[v.index()] {
            return match map.get(&block.index()) {
                Some(&r) => VregLoc::Reg(r),
                None => VregLoc::Mem,
            };
        }
        self.whole[v.index()]
    }

    /// Whether `v` was split.
    pub fn is_split(&self, v: Vreg) -> bool {
        self.split[v.index()].is_some()
    }

    /// Whether `v` touches memory anywhere (home slot needed).
    pub fn needs_home(&self, v: Vreg) -> bool {
        match (&self.split[v.index()], self.whole[v.index()]) {
            (Some(_), _) => true,
            (None, VregLoc::Mem) => true,
            (None, VregLoc::Reg(_)) => false,
        }
    }
}

/// Runs the coloring algorithm.
///
/// `liveness` is needed for split boundary-cost estimation; `split_enabled`
/// turns live-range splitting on.
pub fn color(
    ctx: &PriorityCtx<'_>,
    cfg: &Cfg,
    liveness: &Liveness,
    split_enabled: bool,
) -> Assignment {
    color_with(
        ctx,
        cfg,
        liveness,
        split_enabled,
        &mut CompileScratch::default(),
    )
    .0
}

/// The splitter's tables, built when the first range of a function
/// reaches [`try_split`] (a range of two or more blocks that gets no
/// register for its whole extent) from the whole-range assignments made
/// so far, and kept up to date after it. No corpus function reaches it
/// under the base, A, B, C or inline/C configuration, so most colorings
/// build none.
struct SplitTables {
    /// Block-granular occupancy: registers taken in a block by whole-range
    /// assignments / by split regions.
    occ_whole: Vec<RegMask>,
    occ_split: Vec<RegMask>,
    /// Per-range forbid masks from split occupancy. A split touches a
    /// handful of blocks; only ranges containing those blocks can be
    /// affected, so the block -> candidate-ranges index lets a split
    /// update exactly those masks instead of every heap pop re-ORing
    /// `occ_split` over its whole range. Before the tables exist no
    /// split has been made, so no range has a split-forbidden register.
    ranges_in_block: Vec<Vec<u32>>,
    forbid: Vec<RegMask>,
}

impl SplitTables {
    fn build(
        ctx: &PriorityCtx<'_>,
        nb: usize,
        whole: &[VregLoc],
        scratch: &mut CompileScratch,
    ) -> SplitTables {
        let mut occ_whole = scratch.masks.take(nb, RegMask::EMPTY);
        let mut ranges_in_block = scratch.take_index_rows(nb);
        for lr in &ctx.ranges.ranges {
            if !lr.is_candidate() {
                continue;
            }
            let loc = whole[lr.vreg.index()];
            for b in ctx.ranges.blocks(lr.vreg) {
                if let VregLoc::Reg(r) = loc {
                    occ_whole[b.index()].insert(r);
                }
                ranges_in_block[b.index()].push(lr.vreg.index() as u32);
            }
        }
        SplitTables {
            occ_whole,
            occ_split: scratch.masks.take(nb, RegMask::EMPTY),
            ranges_in_block,
            forbid: scratch.masks.take(ctx.ranges.ranges.len(), RegMask::EMPTY),
        }
    }

    fn give(self, scratch: &mut CompileScratch) {
        scratch.masks.give(self.occ_whole);
        scratch.masks.give(self.occ_split);
        scratch.masks.give(self.forbid);
        scratch.give_index_rows(self.ranges_in_block);
    }
}

/// [`color`] running its transient tables (forbid masks, occupancy,
/// block-index rows, done flags) out of the caller's [`CompileScratch`].
/// The returned [`Assignment`] owns only what escapes; everything pooled
/// is handed back before returning. Also returns what the priority cache
/// did.
pub fn color_with(
    ctx: &PriorityCtx<'_>,
    cfg: &Cfg,
    liveness: &Liveness,
    split_enabled: bool,
    scratch: &mut CompileScratch,
) -> (Assignment, PriorityStats) {
    let nv = ctx.ranges.ranges.len();
    let nb = cfg.num_blocks();
    let mut whole = vec![VregLoc::Mem; nv];
    let mut split: Vec<Option<HashMap<usize, PReg>>> = vec![None; nv];
    let mut used = RegMask::EMPTY;
    // Precise interference forbiddance for whole-range assignments.
    let mut forbidden = scratch.masks.take(nv, RegMask::EMPTY);
    // The splitter's occupancy and forbid tables, once a range reaches it.
    let mut tables: Option<SplitTables> = None;
    let forbid_of = |tables: &Option<SplitTables>, forbidden: &[RegMask], vi: usize| {
        forbidden[vi] | tables.as_ref().map_or(RegMask::EMPTY, |t| t.forbid[vi])
    };

    // Memoized static priority terms (see `PriorityCache`).
    let mut cache = PriorityCache::new(ctx);

    // Max-heap of (density, vreg); keys may go stale, so they are
    // re-validated on pop.
    let mut heap: std::collections::BinaryHeap<(Score, usize)> =
        std::collections::BinaryHeap::new();
    for lr in &ctx.ranges.ranges {
        if !lr.is_candidate() {
            continue;
        }
        let forbid = forbid_of(&tables, &forbidden, lr.vreg.index());
        if let Some((_, d)) = cache.best(ctx, lr, forbid, used) {
            heap.push((Score(d), lr.vreg.index()));
        }
    }

    let mut done = std::mem::take(&mut scratch.flags);
    done.clear();
    done.resize(nv, false);
    while let Some((Score(d), vi)) = heap.pop() {
        if done[vi] {
            continue;
        }
        let lr = &ctx.ranges.ranges[vi];
        let forbid = forbid_of(&tables, &forbidden, vi);
        let (reg, d) = match cache.best(ctx, lr, forbid, used) {
            Some((_, d2)) if d2 < d - 1e-9 => {
                // Stale key (a neighbour took our best register); re-queue
                // with the current value.
                heap.push((Score(d2), vi));
                continue;
            }
            // Strictly unprofitable as a whole range (a zero-net range
            // costs nothing in a register, and its register — once saved —
            // is free for every later range); maybe a sub-region still
            // pays.
            Some((_, d2)) if d2 < -1e-9 => (None, d2),
            Some((r, d2)) => (Some(r), d2),
            // Every register is forbidden over the whole range.
            None => (None, d),
        };
        done[vi] = true;
        if let Some(r) = reg {
            whole[vi] = VregLoc::Reg(r);
            used.insert(r);
            for n in ctx.ranges.neighbors(lr.vreg) {
                forbidden[n.index()].insert(r);
            }
            if let Some(t) = &mut tables {
                for b in ctx.ranges.blocks(lr.vreg) {
                    t.occ_whole[b.index()].insert(r);
                }
            }
        } else if split_enabled && ctx.ranges.blocks(lr.vreg).len() >= 2 {
            let t = tables.get_or_insert_with(|| SplitTables::build(ctx, nb, &whole, scratch));
            try_split(ctx, cfg, liveness, vi, &mut split, &mut used, t);
        }
        emit_decision(ctx, vi, &split, reg, d);
    }

    // Candidates that never reached the heap (no register was ever
    // available, or the initial density had no viable register) still get a
    // decision record, so every candidate vreg appears exactly once.
    for lr in &ctx.ranges.ranges {
        if lr.is_candidate() && !done[lr.vreg.index()] {
            emit_decision(ctx, lr.vreg.index(), &split, None, f64::NEG_INFINITY);
        }
    }

    scratch.flags = done;
    scratch.masks.give(forbidden);
    if let Some(t) = tables {
        t.give(scratch);
    }

    (Assignment { whole, split, used }, cache.stats())
}

/// Records one `alloc.decision` event: the final location class of a
/// candidate vreg and the priority density that decided it. `priority` is
/// `-inf` (rendered as JSON `null`) when the range never had a viable
/// register to price.
fn emit_decision(
    ctx: &PriorityCtx<'_>,
    vi: usize,
    split: &[Option<HashMap<usize, PReg>>],
    reg: Option<PReg>,
    priority: f64,
) {
    ipra_obs::event("alloc.decision", || {
        use ipra_obs::TraceValue as V;
        let kind = match (reg, &split[vi]) {
            (Some(r), _) => match ctx.target.regs.class(r) {
                Some(RegClass::CalleeSaved) => "callee_saved",
                _ => "caller_saved",
            },
            (None, Some(_)) => "split",
            (None, None) => "mem",
        };
        let mut fields = vec![
            ("vreg", V::Int(vi as i64)),
            ("kind", V::Str(kind.into())),
            ("priority", V::Float(priority)),
        ];
        if let Some(r) = reg {
            fields.push(("reg", V::Str(ctx.target.regs.name(r).to_string())));
        }
        fields
    });
}

/// Attempts to give connected, profitable sub-regions of `vi`'s live range,
/// which spans two or more blocks, a register each; leaves the rest in
/// memory.
fn try_split(
    ctx: &PriorityCtx<'_>,
    cfg: &Cfg,
    liveness: &Liveness,
    vi: usize,
    split: &mut [Option<HashMap<usize, PReg>>],
    used: &mut RegMask,
    tables: &mut SplitTables,
) {
    let v = Vreg(vi as u32);
    let blocks = ctx.ranges.blocks(v);
    let c = &ctx.target.cost;
    let save_restore = (c.load + c.store) as f64;

    // Weighted memory-traffic gain of `v` in block `b`: loads avoided for
    // uses, stores avoided for defs.
    let refs = ctx.ranges.block_refs(v);
    let gain_of = |b: usize| match blocks.binary_search(&BlockId(b as u32)) {
        Ok(k) => refs[k].0 * c.load as f64 + refs[k].1 * c.store as f64,
        Err(_) => 0.0,
    };

    // Calls spanned by the range, by block.
    let mut call_cost_in_block: HashMap<usize, Vec<(usize, f64)>> = HashMap::new();
    for &site in ctx.ranges.spans_calls(v) {
        let s = &ctx.ranges.call_sites[site as usize];
        call_cost_in_block
            .entry(s.loc.block.index())
            .or_default()
            .push((site as usize, s.weight));
    }

    let mut remaining = BitSet::new(cfg.num_blocks());
    for b in blocks {
        remaining.insert(b.index());
    }
    let mut map: HashMap<usize, PReg> = HashMap::new();

    loop {
        let mut best: Option<(PReg, Vec<usize>, f64)> = None;
        for &r in ctx.target.regs.allocatable() {
            // Blocks where r is free, within the remaining range.
            let mut free = Vec::new();
            for b in remaining.iter() {
                if !tables.occ_whole[b].contains(r) && !tables.occ_split[b].contains(r) {
                    free.push(b);
                }
            }
            // Seed at the highest-gain referenced free block.
            let Some(&seed) = free
                .iter()
                .filter(|&&b| gain_of(b) > 0.0)
                .max_by(|&&a, &&b| gain_of(a).total_cmp(&gain_of(b)))
            else {
                continue;
            };
            // Grow a connected region inside the free set.
            let free_set: std::collections::HashSet<usize> = free.iter().copied().collect();
            let mut region = vec![seed];
            let mut in_region: std::collections::HashSet<usize> = [seed].into();
            let mut work = vec![seed];
            while let Some(b) = work.pop() {
                let bid = BlockId(b as u32);
                for &n in cfg.succs(bid).iter().chain(cfg.preds(bid)) {
                    let ni = n.index();
                    if free_set.contains(&ni) && in_region.insert(ni) {
                        region.push(ni);
                        work.push(ni);
                    }
                }
            }

            // Estimate the region's net value.
            let mut net = 0.0;
            for &b in &region {
                net += gain_of(b);
                if let Some(calls) = call_cost_in_block.get(&b) {
                    for &(site, w) in calls {
                        if ctx.site_clobbers[site].contains(r) {
                            net -= w * save_restore;
                        }
                    }
                }
            }
            // Boundary transfers: loads entering, stores leaving, priced at
            // the block's real execution weight (a transfer on a loop-edge
            // block executes per iteration).
            for &b in &region {
                let bid = BlockId(b as u32);
                let w = ctx.weights.weight(bid).max(1.0);
                if liveness.live_in.contains(b, vi)
                    && cfg
                        .preds(bid)
                        .iter()
                        .any(|p| !in_region.contains(&p.index()))
                {
                    net -= w * c.load as f64;
                }
                if cfg.succs(bid).iter().any(|s| {
                    liveness.live_in.contains(s.index(), vi) && !in_region.contains(&s.index())
                }) {
                    net -= w * c.store as f64;
                }
            }
            if ctx.charge_callee_saved_entry
                && ctx.target.regs.class(r) == Some(RegClass::CalleeSaved)
                && !used.contains(r)
            {
                net -= ctx.entry_weight * save_restore;
            }

            if net > 1e-9 && best.as_ref().is_none_or(|(_, _, bn)| net > *bn) {
                best = Some((r, region, net));
            }
        }

        let Some((r, region, _)) = best else { break };
        for &b in &region {
            map.insert(b, r);
            tables.occ_split[b].insert(r);
            remaining.remove(b);
            // Invalidate only the ranges this split actually touches.
            for &v in &tables.ranges_in_block[b] {
                tables.forbid[v as usize].insert(r);
            }
        }
        used.insert(r);
        if remaining.is_empty() {
            break;
        }
    }

    if !map.is_empty() {
        split[vi] = Some(map);
    }
}

/// Max-heap key over f64 (total order).
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct Score(pub f64);

impl Eq for Score {}

impl PartialOrd for Score {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Score {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use crate::ranges::{BlockWeights, RangeData};
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::BinOp;
    use ipra_machine::Target;
    use ipra_obs::TraceValue;

    /// The splitter's tables are built at the first range that reaches
    /// the splitter, after whole-range assignments, yet a range colored
    /// after that range splits must still be denied the split's register
    /// in the split's blocks. Two registers: hot temporaries in `b1` and
    /// `b2` take both, so `b`, live from `b0` to `b3`, can only split;
    /// `c`, live in `b2` and `b3`, is colored after it.
    #[test]
    fn ranges_colored_after_the_first_split_see_its_registers() {
        let mut fb = FunctionBuilder::new("f");
        let b = fb.copy(1);
        let t = fb.bin(BinOp::Add, b, b);
        fb.print(t);
        let b1 = fb.new_block();
        fb.br(b1);
        fb.switch_to(b1);
        let a = fb.copy(2);
        let a1 = fb.bin(BinOp::Add, a, a);
        let a2 = fb.bin(BinOp::Add, a1, a);
        fb.print(a2);
        let b2 = fb.new_block();
        fb.br(b2);
        fb.switch_to(b2);
        let h = fb.copy(3);
        let h1 = fb.bin(BinOp::Add, h, h);
        let h2 = fb.bin(BinOp::Add, h1, h);
        fb.print(h2);
        let c = fb.copy(4);
        let b3 = fb.new_block();
        fb.br(b3);
        fb.switch_to(b3);
        let u = fb.bin(BinOp::Add, b, b);
        fb.print(u);
        fb.print(c);
        fb.ret(None);
        let f = fb.build();

        let an = FuncAnalyses::compute(&f);
        let weights = BlockWeights::from_loops(&an.cfg, &an.loops);
        let rd = RangeData::build(&f, &an.cfg, &an.liveness, &weights);
        let target = Target::convention(2, 2, 0);
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &[],
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &vec![Vec::new(); f.num_vregs()],
            weights: &weights,
        };
        ipra_obs::enable();
        let asg = color(&ctx, &an.cfg, &an.liveness, true);
        let trace = ipra_obs::disable();
        let kinds: Vec<(i64, String)> = trace
            .events
            .iter()
            .map(|e| {
                let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k).map(|(_, v)| v);
                match (field("vreg"), field("kind")) {
                    (Some(TraceValue::Int(v)), Some(TraceValue::Str(k))) => (*v, k.clone()),
                    other => panic!("decision fields {other:?}"),
                }
            })
            .collect();
        // Whole-range assignments come first, then `b` splits, then `c`
        // is decided.
        let at = |v: ipra_ir::Vreg| kinds.iter().position(|(i, _)| *i == v.index() as i64);
        let first_split = kinds
            .iter()
            .position(|(_, k)| k == "split")
            .expect("a split");
        assert_eq!(at(b), Some(first_split), "{kinds:?}");
        assert!(
            first_split > 0
                && kinds[..first_split]
                    .iter()
                    .all(|(_, k)| k == "caller_saved")
        );
        assert!(at(c) > Some(first_split), "{kinds:?}");
        // `c`'s neighbour `u` holds one register over `c`'s whole range and
        // `b`'s split holds the other in `b3`, so `c` stays in memory.
        let in_b3 = asg.split[b.index()].as_ref().expect("b split")[&b3.index()];
        assert!(matches!(asg.whole[u.index()], VregLoc::Reg(r) if r != in_b3));
        assert_eq!(asg.loc(c, b3), VregLoc::Mem);
        // No range holds a split region's register in that region's blocks.
        for (v, map) in asg.split.iter().enumerate() {
            for (&blk, &r) in map.iter().flatten() {
                for w in (0..f.num_vregs()).filter(|&w| w != v) {
                    let w = ipra_ir::Vreg(w as u32);
                    if rd.blocks(w).contains(&BlockId(blk as u32)) {
                        assert_ne!(
                            asg.loc(w, BlockId(blk as u32)),
                            VregLoc::Reg(r),
                            "v{v} and {w:?} in block {blk}"
                        );
                    }
                }
            }
        }
    }
}
