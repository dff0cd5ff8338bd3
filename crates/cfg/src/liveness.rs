//! Per-block liveness of virtual registers.

use ipra_ir::{BlockId, Function, Vreg};

use crate::bitset::{BitMatrix, BitSet};
use crate::graph::Cfg;

/// Live-in/live-out sets over virtual registers for every block: each
/// table is one `blocks × vregs` [`BitMatrix`], a row per block.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: BitMatrix,
    /// Registers live at block exit.
    pub live_out: BitMatrix,
    /// Upward-exposed uses per block (used before any redefinition).
    pub uevar: BitMatrix,
    /// Registers defined in each block.
    pub defs: BitMatrix,
    /// Block visits the solver made until the fixpoint (recorded as
    /// `dataflow.liveness.iterations`).
    pub iterations: usize,
}

impl Liveness {
    /// Computes liveness for `func`.
    ///
    /// A backward worklist solves `live_out(b) = ∪ live_in(s)` over the
    /// successors and `live_in(b) = uevar(b) ∪ (live_out(b) − defs(b))`
    /// in place, word by word. It sweeps the reachable blocks in
    /// postorder and visits a block only when it is dirty: initially
    /// every block, and afterwards a block whose successor's `live_in`
    /// changed. Unreachable blocks keep empty `live_in`/`live_out`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let nb = func.num_blocks();
        let nv = func.num_vregs();
        let mut uevar = BitMatrix::new(nb, nv);
        let mut defs = BitMatrix::new(nb, nv);

        for (id, b) in func.blocks.iter() {
            let bi = id.index();
            for inst in &b.insts {
                inst.for_each_use(|v| {
                    if !defs.contains(bi, v.index()) {
                        uevar.insert(bi, v.index());
                    }
                });
                if let Some(d) = inst.def() {
                    defs.insert(bi, d.index());
                }
            }
            b.term.for_each_use(|v| {
                if !defs.contains(bi, v.index()) {
                    uevar.insert(bi, v.index());
                }
            });
        }

        let mut live_in = BitMatrix::new(nb, nv);
        let mut live_out = BitMatrix::new(nb, nv);
        let mut dirty = BitSet::new(nb);
        for &b in &cfg.rpo {
            dirty.insert(b.index());
        }
        let stride = nv.div_ceil(64);
        let mut iterations = 0;
        let mut any = true;
        while any {
            any = false;
            for &b in cfg.rpo.iter().rev() {
                let bi = b.index();
                if !dirty.remove(bi) {
                    continue;
                }
                any = true;
                iterations += 1;
                let mut changed = false;
                for w in 0..stride {
                    // Word `w` of a row depends only on word `w` of the
                    // rows it reads, so a self-loop reads its old value.
                    let mut out = 0;
                    for s in cfg.succs(b) {
                        out |= live_in.row(s.index())[w];
                    }
                    live_out.row_mut(bi)[w] = out;
                    let new_in = uevar.row(bi)[w] | (out & !defs.row(bi)[w]);
                    let cell = &mut live_in.row_mut(bi)[w];
                    changed |= *cell != new_in;
                    *cell = new_in;
                }
                // Only a changed `live_in` is visible to the predecessors,
                // whose `live_out` reads it.
                if changed {
                    for p in cfg.preds(b) {
                        dirty.insert(p.index());
                    }
                }
            }
        }
        ipra_obs::counter(
            "dataflow.liveness.iterations",
            &[("func", &func.name)],
            iterations as u64,
        );

        Liveness {
            live_in,
            live_out,
            uevar,
            defs,
            iterations,
        }
    }

    /// Whether `v` is live at the entry of `b`.
    pub fn is_live_in(&self, b: BlockId, v: Vreg) -> bool {
        self.live_in.contains(b.index(), v.index())
    }

    /// Whether `v` is live at the exit of `b`.
    pub fn is_live_out(&self, b: BlockId, v: Vreg) -> bool {
        self.live_out.contains(b.index(), v.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::instr::BinOp;

    #[test]
    fn param_live_through_loop() {
        // x is used inside the loop body, so it is live around the loop.
        let mut b = FunctionBuilder::new("f");
        let x = b.param("x");
        let h = b.new_block();
        let body = b.new_block();
        let out = b.new_block();
        let i = b.var("i");
        b.copy_to(i, 0);
        b.br(h);
        let c = b.bin(BinOp::Lt, i, 10);
        b.cond_br(c, body, out);
        b.switch_to(body);
        let ni = b.bin(BinOp::Add, i, x);
        b.copy_to(i, ni);
        b.br(h);
        b.switch_to(out);
        b.ret(Some(i.into()));
        let f = b.build();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(lv.is_live_in(BlockId(0), x));
        assert!(lv.is_live_out(BlockId(1), x) || lv.is_live_in(BlockId(2), x));
        assert!(lv.is_live_in(BlockId(1), i), "i live around loop header");
        assert!(!lv.is_live_out(BlockId(3), i), "nothing live after return");
    }

    #[test]
    fn dead_def_not_live() {
        let mut b = FunctionBuilder::new("f");
        let d = b.copy(5);
        let u = b.copy(7);
        b.print(u);
        b.ret(None);
        let f = b.build();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(!lv.is_live_in(BlockId(0), d), "dead def is not live-in");
        assert!(!lv.is_live_out(BlockId(0), d));
        assert!(lv.defs.contains(0, d.index()));
        assert!(lv.defs.contains(0, u.index()));
    }

    #[test]
    fn use_before_def_in_same_block_is_upward_exposed() {
        let mut b = FunctionBuilder::new("f");
        let v = b.var("v");
        let h = b.new_block();
        b.copy_to(v, 1);
        b.br(h);
        // h: u = v + 1; v = u; loop or exit
        let out = b.new_block();
        let u = b.bin(BinOp::Add, v, 1);
        b.copy_to(v, u);
        let c = b.bin(BinOp::Lt, u, 10);
        b.cond_br(c, h, out);
        b.switch_to(out);
        b.ret(Some(v.into()));
        let f = b.build();
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        assert!(
            lv.uevar.contains(1, v.index()),
            "v read before its redefinition"
        );
        assert!(lv.is_live_in(BlockId(1), v));
        assert!(
            lv.is_live_out(BlockId(1), v),
            "loop keeps v live at exit of h"
        );
    }

    /// entry -> (then | else) -> join, where the join prints `x`, defined
    /// at the entry.
    fn diamond_using_x_at_join() -> (ipra_ir::Function, Vreg) {
        let mut b = FunctionBuilder::new("d");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let x = b.copy(1);
        let c = b.copy(1);
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.print(x);
        b.ret(None);
        (b.build(), x)
    }

    #[test]
    fn use_at_join_is_live_on_both_paths() {
        let (f, x) = diamond_using_x_at_join();
        let lv = Liveness::compute(&f, &Cfg::new(&f));
        assert!(lv.is_live_out(BlockId(0), x));
        assert!(lv.is_live_in(BlockId(1), x) && lv.is_live_in(BlockId(2), x));
        assert!(!lv.is_live_in(BlockId(0), x), "defined at the entry");
        assert!(
            !lv.is_live_out(BlockId(3), x),
            "nothing live after the exit"
        );
    }

    #[test]
    fn acyclic_cfg_visits_each_block_once() {
        // In postorder over a DAG every successor is final before its
        // block is visited, so the worklist never revisits anything.
        let (f, _) = diamond_using_x_at_join();
        let lv = Liveness::compute(&f, &Cfg::new(&f));
        assert_eq!(lv.iterations, 4, "one visit per block on a DAG");
    }

    #[test]
    fn loop_converges() {
        let mut b = FunctionBuilder::new("l");
        let x = b.param("x");
        let h = b.new_block();
        let body = b.new_block();
        let out = b.new_block();
        b.br(h);
        let c = b.copy(1);
        b.cond_br(c, body, out);
        b.switch_to(body);
        b.print(x);
        b.br(h);
        b.switch_to(out);
        b.ret(None);
        let f = b.build();
        let lv = Liveness::compute(&f, &Cfg::new(&f));
        assert!(lv.is_live_in(BlockId(1), x), "the back edge carries x");
        // 4 blocks, one back edge: every block is visited once, then only
        // the loop blocks whose successor changed are revisited — below
        // the 3 full sweeps (12 visits) round-robin iteration needs.
        assert!(
            (4..=8).contains(&lv.iterations),
            "worklist converges quickly, took {} visits",
            lv.iterations
        );
    }
}
