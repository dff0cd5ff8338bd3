//! Control-flow graph extraction and block orderings.

use ipra_ir::{BlockId, Function};

use crate::csr::Csr;

/// Predecessor/successor structure of a function, plus reachability and
/// depth-first orderings.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Entry block.
    pub entry: BlockId,
    /// Successors of each block (a row per block).
    succs: Csr<BlockId>,
    /// Reachable predecessors of each block (a row per block).
    preds: Csr<BlockId>,
    /// Blocks terminated by `ret`, in block order (reachable only).
    pub exits: Vec<BlockId>,
    /// Reverse postorder over reachable blocks (entry first).
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` when unreachable).
    pub rpo_pos: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `func`.
    pub fn new(func: &Function) -> Self {
        let succs = Csr::build(func.num_blocks(), func.entry, |emit| {
            for (id, b) in func.blocks.iter() {
                b.term.for_each_succ(|s| emit(id.index(), s));
            }
        });
        Self::from_succs(func.entry, succs, |b| func.blocks[b].term.is_ret())
    }

    /// Builds a CFG from explicit edges: a successor row per block plus
    /// which blocks end in `ret`. This is how machine-level consumers (the
    /// static verifier) analyze an `MFunction`, whose block structure
    /// lives in `MTerminator`s rather than in an IR `Function`. Only
    /// reachable `ret` blocks become `exits`, as in [`Cfg::new`].
    pub fn from_succs(
        entry: BlockId,
        succs: Csr<BlockId>,
        is_ret: impl Fn(BlockId) -> bool,
    ) -> Self {
        let n = succs.rows();
        // Iterative DFS computing postorder over reachable blocks; a
        // visited block's `rpo_pos` leaves `usize::MAX` until it gets its
        // position below.
        let mut rpo_pos = vec![usize::MAX; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        // Stack holds (block, next successor index to visit).
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        rpo_pos[entry.index()] = 0;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = succs.row(b.index()).get(*i) {
                *i += 1;
                if rpo_pos[s.index()] == usize::MAX {
                    rpo_pos[s.index()] = 0;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let mut rpo = post;
        rpo.reverse();
        for (i, b) in rpo.iter().enumerate() {
            rpo_pos[b.index()] = i;
        }

        let preds = Csr::build(n, entry, |emit| {
            for &b in &rpo {
                for &s in succs.row(b.index()) {
                    emit(s.index(), b);
                }
            }
        });

        let exits = (0..n as u32)
            .map(BlockId)
            .filter(|&b| rpo_pos[b.index()] != usize::MAX && is_ret(b))
            .collect();

        Cfg {
            entry,
            succs,
            preds,
            exits,
            rpo,
            rpo_pos,
        }
    }

    /// Number of blocks in the underlying function (reachable or not).
    pub fn num_blocks(&self) -> usize {
        self.succs.rows()
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.index()] != usize::MAX
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b.index())
    }

    /// Reachable predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::instr::BinOp;

    /// entry -> (then | else) -> join -> ret, plus an unreachable block.
    fn diamond() -> Function {
        let mut b = FunctionBuilder::new("d");
        let x = b.param("x");
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        let dead = b.new_block();
        let c = b.bin(BinOp::Lt, x, 0);
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.ret(None);
        b.switch_to(dead);
        b.ret(None);
        b.build()
    }

    #[test]
    fn diamond_structure() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        assert_eq!(cfg.num_blocks(), 5);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)).len(), 2);
        assert_eq!(cfg.exits, vec![BlockId(3)]);
        assert!(cfg.is_reachable(BlockId(3)));
        assert!(!cfg.is_reachable(BlockId(4)), "dead block is unreachable");
        assert_eq!(cfg.rpo.len(), 4);
        assert_eq!(cfg.rpo[0], BlockId(0), "rpo starts at entry");
    }

    #[test]
    fn rpo_respects_edges_in_acyclic_graph() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        for &b in &cfg.rpo {
            for &s in cfg.succs(b) {
                assert!(
                    cfg.rpo_pos[b.index()] < cfg.rpo_pos[s.index()],
                    "acyclic edge {b}->{s} must go forward in rpo"
                );
            }
        }
    }

    #[test]
    fn self_loop_function() {
        let mut b = FunctionBuilder::new("lp");
        let l = b.new_block();
        b.br(l);
        // l: loop back to itself conditionally, else return.
        let out = b.new_block();
        let c = b.copy(0);
        b.cond_br(c, l, out);
        b.switch_to(out);
        b.ret(None);
        let f = b.build();
        let cfg = Cfg::new(&f);
        assert!(
            cfg.preds(BlockId(1)).contains(&BlockId(1)),
            "self edge recorded"
        );
        assert_eq!(cfg.exits, vec![BlockId(2)]);
    }
}
