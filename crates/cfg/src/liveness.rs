//! Per-block liveness of virtual registers.

use ipra_ir::{BlockId, Function, Vreg};

use crate::bitset::BitSet;
use crate::dataflow::{solve, Direction, GenKill, Meet};
use crate::graph::Cfg;

/// Live-in/live-out sets over virtual registers for every block.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// Registers live at block entry.
    pub live_in: Vec<BitSet>,
    /// Registers live at block exit.
    pub live_out: Vec<BitSet>,
    /// Upward-exposed uses per block (used before any redefinition).
    pub uevar: Vec<BitSet>,
    /// Registers defined in each block.
    pub defs: Vec<BitSet>,
}

impl Liveness {
    /// Computes liveness for `func`.
    pub fn compute(func: &Function, cfg: &Cfg) -> Self {
        let nb = func.num_blocks();
        let nv = func.num_vregs();
        let mut uevar: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nv)).collect();
        let mut defs: Vec<BitSet> = (0..nb).map(|_| BitSet::new(nv)).collect();

        for (id, b) in func.blocks.iter() {
            let bi = id.index();
            for inst in &b.insts {
                inst.for_each_use(|v| {
                    if !defs[bi].contains(v.index()) {
                        uevar[bi].insert(v.index());
                    }
                });
                if let Some(d) = inst.def() {
                    defs[bi].insert(d.index());
                }
            }
            b.term.for_each_use(|v| {
                if !defs[bi].contains(v.index()) {
                    uevar[bi].insert(v.index());
                }
            });
        }

        let transfer: Vec<GenKill> = (0..nb)
            .map(|i| GenKill {
                gen: uevar[i].clone(),
                kill: defs[i].clone(),
            })
            .collect();
        let r = solve(
            cfg,
            Direction::Backward,
            Meet::Union,
            &BitSet::new(nv),
            &transfer,
        );
        ipra_obs::counter(
            "dataflow.liveness.iterations",
            &[("func", &func.name)],
            r.iterations as u64,
        );

        Liveness {
            live_in: r.entry,
            live_out: r.exit,
            uevar,
            defs,
        }
    }

    /// Whether `v` is live at the entry of `b`.
    pub fn is_live_in(&self, b: BlockId, v: Vreg) -> bool {
        self.live_in[b.index()].contains(v.index())
    }

    /// Whether `v` is live at the exit of `b`.
    pub fn is_live_out(&self, b: BlockId, v: Vreg) -> bool {
        self.live_out[b.index()].contains(v.index())
    }

    /// Whether `v` is referenced or live anywhere in `b` — i.e. whether `b`
    /// belongs to `v`'s live range at block granularity (the allocation unit
    /// of priority-based coloring).
    pub fn in_live_range(&self, b: BlockId, v: Vreg) -> bool {
        let bi = b.index();
        let vi = v.index();
        self.live_in[bi].contains(vi)
            || self.live_out[bi].contains(vi)
            || self.uevar[bi].contains(vi)
            || self.defs[bi].contains(vi)
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
        assert!(lv.in_live_range(BlockId(2), x));
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
        assert!(lv.defs[0].contains(d.index()));
        assert!(lv.defs[0].contains(u.index()));
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
            lv.uevar[1].contains(v.index()),
            "v read before its redefinition"
        );
        assert!(lv.is_live_in(BlockId(1), v));
        assert!(
            lv.is_live_out(BlockId(1), v),
            "loop keeps v live at exit of h"
        );
    }
}
