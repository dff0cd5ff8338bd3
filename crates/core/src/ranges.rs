//! Live ranges and the interference graph.
//!
//! Priority-based coloring allocates *live ranges* (Chow–Hennessy): the set
//! of basic blocks where a variable is live, together with its weighted
//! reference counts. Interference is computed precisely, per program point,
//! by a backward scan of every block. The same scan records, for every call
//! site, which ranges are live *across* the call — the quantity that drives
//! the per-(variable, register) cost terms of the inter-procedural
//! allocator.

use ipra_cfg::{Cfg, Csr, Liveness, LoopInfo};
use ipra_ir::{BlockId, Callee, FuncId, Function, Inst, InstLoc, Vreg};

use crate::scratch::CompileScratch;

/// Execution-frequency weight per block, from static loop nesting or from a
/// measured profile (the paper's planned profile feedback).
#[derive(Clone, Debug)]
pub struct BlockWeights(Vec<f64>);

impl BlockWeights {
    /// Static estimate: `10^loop_depth` per block (the classic Uopt rule).
    pub fn from_loops(cfg: &Cfg, loops: &LoopInfo) -> Self {
        BlockWeights(
            (0..cfg.num_blocks())
                .map(|b| loops.weight(BlockId(b as u32)))
                .collect(),
        )
    }

    /// Measured profile: per-block execution counts normalized so the entry
    /// block weighs 1 per invocation. Falls back to the static estimate for
    /// functions that never ran — and for functions whose block count no
    /// longer matches the profile's (the inliner splices blocks in after a
    /// training run, making the stale counts meaningless for this body).
    pub fn from_profile(cfg: &Cfg, loops: &LoopInfo, counts: &[u64]) -> Self {
        if counts.len() != cfg.num_blocks() {
            return Self::from_loops(cfg, loops);
        }
        let invocations = counts[cfg.entry.index()];
        if invocations == 0 {
            return Self::from_loops(cfg, loops);
        }
        BlockWeights(
            counts
                .iter()
                .map(|&c| c as f64 / invocations as f64)
                .collect(),
        )
    }

    /// Weight of one block.
    pub fn weight(&self, b: BlockId) -> f64 {
        self.0[b.index()]
    }
}

/// A call site, with the loop weight of its block.
#[derive(Clone, Debug)]
pub struct CallSiteInfo {
    /// Location of the call instruction.
    pub loc: InstLoc,
    /// Static target; `None` for indirect calls.
    pub callee: Option<FuncId>,
    /// Execution-frequency weight of the containing block.
    pub weight: f64,
}

/// The scalar facts of one virtual register's live range. Its blocks,
/// spanned calls and interference neighbours are rows of the
/// [`RangeData`] tables.
#[derive(Clone, Debug)]
pub struct LiveRange {
    /// The register this range belongs to.
    pub vreg: Vreg,
    /// Loop-weighted count of uses (reads).
    pub weighted_uses: f64,
    /// Loop-weighted count of definitions (writes).
    pub weighted_defs: f64,
    /// Static reference count (uses + defs).
    pub num_refs: u32,
}

impl LiveRange {
    /// Whether this range is ever referenced (unreferenced ranges are not
    /// allocation candidates).
    pub fn is_candidate(&self) -> bool {
        self.num_refs > 0
    }
}

/// Live ranges, interference and call sites for one function.
///
/// Each per-range table is compressed sparse rows ([`Csr`]), a row per
/// virtual register: storage follows the number of (range, block) pairs,
/// spanned calls and interference edges, not vregs × blocks or vregs².
#[derive(Clone, Debug)]
pub struct RangeData {
    /// One live range per virtual register.
    pub ranges: Vec<LiveRange>,
    /// All call sites, in block order.
    pub call_sites: Vec<CallSiteInfo>,
    /// Blocks in each range (live or referenced), ascending.
    blocks: Csr<BlockId>,
    /// Loop-weighted `(uses, defs)` per (range, block), parallel to
    /// `blocks`' items.
    block_refs: Vec<(f64, f64)>,
    /// Indices into `call_sites` of the calls each range is live across,
    /// in the backward scan's order.
    spans_calls: Csr<u32>,
    /// Interference neighbours of each range, ascending and distinct.
    adj: Csr<Vreg>,
}

impl RangeData {
    /// Builds ranges and interference for `func`.
    pub fn build(func: &Function, cfg: &Cfg, live: &Liveness, weights: &BlockWeights) -> Self {
        Self::build_with(func, cfg, live, weights, &mut CompileScratch::default())
    }

    /// [`RangeData::build`] running its backward scan out of the caller's
    /// [`CompileScratch`]: the working liveness set and the scan's
    /// (definition, live value) and (value, call) pair lists are
    /// transient; the tables escape into the result.
    pub fn build_with(
        func: &Function,
        cfg: &Cfg,
        live: &Liveness,
        weights: &BlockWeights,
        scratch: &mut CompileScratch,
    ) -> Self {
        let nv = func.num_vregs();

        let mut ranges: Vec<LiveRange> = (0..nv)
            .map(|i| LiveRange {
                vreg: Vreg(i as u32),
                weighted_uses: 0.0,
                weighted_defs: 0.0,
                num_refs: 0,
            })
            .collect();

        // Call sites in forward block order; the backward scan walks each
        // block's sites from its last one down.
        let mut call_sites = Vec::new();
        for (id, b) in func.blocks.iter() {
            if !cfg.is_reachable(id) {
                continue;
            }
            let w = weights.weight(id);
            for (i, inst) in b.insts.iter().enumerate() {
                if let Inst::Call { callee, .. } = inst {
                    call_sites.push(CallSiteInfo {
                        loc: InstLoc { block: id, inst: i },
                        callee: match callee {
                            Callee::Direct(f) => Some(*f),
                            Callee::Indirect(_) => None,
                        },
                        weight: w,
                    });
                }
            }
        }

        // Range membership: every reachable block where the register is
        // live or referenced, visited in ascending block order.
        let stride = nv.div_ceil(64);
        let blocks = Csr::build(nv, func.entry, |emit| {
            for (id, _) in func.blocks.iter() {
                if !cfg.is_reachable(id) {
                    continue;
                }
                let bi = id.index();
                let rows = [
                    live.live_in.row(bi),
                    live.live_out.row(bi),
                    live.uevar.row(bi),
                    live.defs.row(bi),
                ];
                for w in 0..stride {
                    let mut word = rows.iter().fold(0, |acc, row| acc | row[w]);
                    while word != 0 {
                        emit(w * 64 + word.trailing_zeros() as usize, id);
                        word &= word - 1;
                    }
                }
            }
        });
        let mut block_refs = vec![(0.0, 0.0); blocks.len()];
        let ref_at = |v: usize, b: BlockId| -> usize {
            let k = blocks
                .row(v)
                .binary_search(&b)
                .expect("a referenced block is in its range");
            blocks.offset(v) + k
        };

        // Backward scan: precise interference, weighted counts, live-across
        // calls. Each definition pairs with every value live just after
        // it, and each call with every value live across it; the pairs
        // become rows once the scan is done.
        let def_live = &mut scratch.def_live;
        let live_across = &mut scratch.live_across;
        def_live.clear();
        live_across.clear();
        let mut next_site = 0;
        for (id, b) in func.blocks.iter() {
            if !cfg.is_reachable(id) {
                continue;
            }
            let bi = id.index();
            let w = weights.weight(id);
            let first_site = next_site;
            while call_sites.get(next_site).is_some_and(|s| s.loc.block == id) {
                next_site += 1;
            }
            let mut site = next_site;
            scratch
                .live_now
                .copy_from_row(live.live_out.cols(), live.live_out.row(bi));
            let live_now = &mut scratch.live_now;

            b.term.for_each_use(|v| {
                let r = &mut ranges[v.index()];
                r.weighted_uses += w;
                r.num_refs += 1;
                block_refs[ref_at(v.index(), id)].0 += w;
                live_now.insert(v.index());
            });

            for inst in b.insts.iter().rev() {
                if inst.is_call() {
                    site -= 1;
                    let dst = inst.def().map(|d| d.index());
                    for v in live_now.iter().filter(|&v| Some(v) != dst) {
                        live_across.push((Vreg(v as u32), site as u32));
                    }
                }
                if let Some(d) = inst.def() {
                    let di = d.index();
                    for v in live_now.iter().filter(|&v| v != di) {
                        def_live.push((d, Vreg(v as u32)));
                    }
                    live_now.remove(di);
                    ranges[di].weighted_defs += w;
                    ranges[di].num_refs += 1;
                    block_refs[ref_at(di, id)].1 += w;
                }
                inst.for_each_use(|v| {
                    let r = &mut ranges[v.index()];
                    r.weighted_uses += w;
                    r.num_refs += 1;
                    block_refs[ref_at(v.index(), id)].0 += w;
                    live_now.insert(v.index());
                });
            }
            debug_assert_eq!(site, first_site, "every call site of the block visited");
        }

        // Parameters are all defined simultaneously at entry; any pair live
        // at entry interferes (the instruction scan never sees their defs).
        for (i, &p) in func.params.iter().enumerate() {
            if !live.is_live_in(func.entry, p) {
                continue;
            }
            // A parameter's arrival counts as its (free) definition, but its
            // home-store cost is real when it ends up in memory.
            let ew = weights.weight(func.entry);
            ranges[p.index()].weighted_defs += ew;
            block_refs[ref_at(p.index(), func.entry)].1 += ew;
            for &q in func.params.iter().skip(i + 1) {
                if live.is_live_in(func.entry, q) && p != q {
                    def_live.push((p, q));
                }
            }
        }

        // Each range's spanned calls keep the scan's order: the priority
        // function sums their costs in it.
        let spans_calls = Csr::build(nv, 0, |emit| {
            for &(v, site) in live_across.iter() {
                emit(v.index(), site);
            }
        });
        let mut adj = Csr::build(nv, Vreg(0), |emit| {
            for &(d, v) in def_live.iter() {
                emit(d.index(), v);
                emit(v.index(), d);
            }
        });
        adj.sort_dedup_rows();
        ipra_obs::counter(
            "ranges.interference_edges",
            &[("func", &func.name)],
            (adj.len() / 2) as u64,
        );

        RangeData {
            ranges,
            call_sites,
            blocks,
            block_refs,
            spans_calls,
            adj,
        }
    }

    /// Blocks in `v`'s range (live or referenced), ascending.
    pub fn blocks(&self, v: Vreg) -> &[BlockId] {
        self.blocks.row(v.index())
    }

    /// Loop-weighted `(uses, defs)` of `v` in each block of
    /// [`RangeData::blocks`], in the same order: the per-block detail the
    /// splitter needs to seed and value sub-regions.
    pub fn block_refs(&self, v: Vreg) -> &[(f64, f64)] {
        let i = v.index();
        &self.block_refs[self.blocks.offset(i)..self.blocks.offset(i + 1)]
    }

    /// Indices into [`RangeData::call_sites`] of the calls `v` is live
    /// across.
    pub fn spans_calls(&self, v: Vreg) -> &[u32] {
        self.spans_calls.row(v.index())
    }

    /// Every vreg whose value is live simultaneously with `v` at some
    /// program point, ascending.
    pub fn neighbors(&self, v: Vreg) -> &[Vreg] {
        self.adj.row(v.index())
    }

    /// Whether `a` and `b` interfere: a binary search of the shorter
    /// neighbour row.
    pub fn interferes(&self, a: Vreg, b: Vreg) -> bool {
        let (na, nb) = (self.neighbors(a), self.neighbors(b));
        if na.len() <= nb.len() {
            na.binary_search(&b).is_ok()
        } else {
            nb.binary_search(&a).is_ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FuncAnalyses;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{BinOp, Module};

    fn analyze(func: &Function) -> (Cfg, RangeData) {
        let FuncAnalyses {
            cfg,
            loops,
            liveness,
            ..
        } = FuncAnalyses::compute(func);
        let weights = BlockWeights::from_loops(&cfg, &loops);
        let rd = RangeData::build(func, &cfg, &liveness, &weights);
        (cfg, rd)
    }

    #[test]
    fn sequential_temps_do_not_interfere() {
        let mut b = FunctionBuilder::new("f");
        let t1 = b.bin(BinOp::Add, 1, 2);
        b.print(t1);
        let t2 = b.bin(BinOp::Add, 3, 4);
        b.print(t2);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(!rd.interferes(t1, t2), "t1 dead before t2 defined");
        assert_eq!(rd.ranges[t1.index()].num_refs, 2);
    }

    #[test]
    fn overlapping_values_interfere() {
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(1);
        let y = b.copy(2);
        let s = b.bin(BinOp::Add, x, y);
        b.print(s);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(rd.interferes(x, y));
        assert!(!rd.interferes(x, s), "x dies where s is defined");
        assert!(!rd.interferes(y, s), "y dies where s is defined");
    }

    #[test]
    fn interference_is_symmetric_and_irreflexive() {
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(1);
        let y = b.copy(2);
        let z = b.bin(BinOp::Add, x, y);
        let w = b.bin(BinOp::Add, z, x);
        b.print(w);
        b.print(y);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        for a in 0..f.num_vregs() {
            let a = Vreg(a as u32);
            assert!(!rd.interferes(a, a), "no self interference");
            for &bb in rd.neighbors(a) {
                assert!(rd.neighbors(bb).contains(&a), "symmetry {a} vs {bb}");
            }
        }
    }

    #[test]
    fn live_across_call_recorded() {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("caller");
        let x = b.copy(5);
        let r = b.call(callee, vec![]);
        let s = b.bin(BinOp::Add, x, r);
        b.print(s);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert_eq!(rd.call_sites.len(), 1);
        assert_eq!(rd.call_sites[0].callee, Some(callee));
        assert_eq!(rd.spans_calls(x), &[0], "x survives the call");
        assert!(
            rd.spans_calls(r).is_empty(),
            "call result is not live across"
        );
    }

    #[test]
    fn call_argument_not_live_across() {
        let mut m = Module::new();
        let callee = m.declare_func("callee");
        let mut b = FunctionBuilder::new("caller");
        let x = b.copy(5);
        b.call_void(callee, vec![x.into()]);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(
            rd.spans_calls(x).is_empty(),
            "argument dies at the call; no save needed"
        );
    }

    #[test]
    fn loop_weights_scale_reference_counts() {
        let mut b = FunctionBuilder::new("f");
        let i = b.var("i");
        let h = b.new_block();
        let body = b.new_block();
        let out = b.new_block();
        b.copy_to(i, 0);
        b.br(h);
        let c = b.bin(BinOp::Lt, i, 10);
        b.cond_br(c, body, out);
        b.switch_to(body);
        let ni = b.bin(BinOp::Add, i, 1);
        b.copy_to(i, ni);
        b.br(h);
        b.switch_to(out);
        b.print(i);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        let r = &rd.ranges[i.index()];
        // i: def w=1 (entry) + def w=10 (body copy), uses w=10 (header cmp) +
        // w=10 (body add) + w=1 (print).
        assert_eq!(r.weighted_defs, 11.0);
        assert_eq!(r.weighted_uses, 21.0);
        assert_eq!(rd.blocks(i).len(), 4);
        // Per block: entry def w=1, header use w=10, body use and def
        // w=10, exit use w=1.
        assert_eq!(
            rd.block_refs(i),
            &[(0.0, 1.0), (10.0, 0.0), (10.0, 10.0), (1.0, 0.0)]
        );
    }

    #[test]
    fn parameters_interfere_with_each_other() {
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x");
        let y = b.param("y");
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s.into()));
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(rd.interferes(x, y), "both params live at entry");
    }

    #[test]
    fn dead_def_still_interferes_with_live_values() {
        let mut b = FunctionBuilder::new("f");
        let x = b.copy(1);
        let dead = b.copy(2); // never used
        let y = b.bin(BinOp::Add, x, 3);
        b.print(y);
        b.ret(None);
        let f = b.build();
        let (_, rd) = analyze(&f);
        assert!(
            rd.interferes(dead, x),
            "dead def overlaps x's live range at its def point"
        );
    }
}
