//! Natural-loop detection and nesting depth.
//!
//! Loops matter to the paper twice: block execution-frequency weights in the
//! priority function scale with loop depth, and shrink-wrap regions must not
//! penetrate loop boundaries (§5: "whenever a register is used inside a
//! loop, we propagate its APP attribute throughout the entire region of the
//! loop").

use ipra_ir::BlockId;

use crate::bitset::BitSet;
use crate::dominators::Dominators;
use crate::graph::Cfg;

/// One natural loop: all back edges sharing a header are merged.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// Loop header (dominates every block of the loop).
    pub header: BlockId,
    /// Blocks in the loop, including the header.
    pub blocks: BitSet,
}

/// All natural loops of a function plus per-block nesting depth.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// Detected loops (unordered).
    pub loops: Vec<NaturalLoop>,
    /// `depth[b]` = number of loops containing block `b` (0 outside loops).
    pub depth: Vec<u32>,
}

impl LoopInfo {
    /// Detects natural loops from back edges (`u -> h` where `h` dominates
    /// `u`). Irreducible cycles produce no loop entry, which is conservative
    /// for weights and for the shrink-wrap loop constraint.
    pub fn compute(cfg: &Cfg, dom: &Dominators) -> Self {
        let n = cfg.num_blocks();
        let mut by_header: std::collections::HashMap<BlockId, BitSet> =
            std::collections::HashMap::new();

        for &u in &cfg.rpo {
            for &h in cfg.succs(u) {
                if dom.dominates(h, u) {
                    // Back edge u -> h: collect the natural loop.
                    let body = by_header.entry(h).or_insert_with(|| {
                        let mut s = BitSet::new(n);
                        s.insert(h.index());
                        s
                    });
                    let mut work = vec![u];
                    while let Some(b) = work.pop() {
                        if body.insert(b.index()) {
                            for &p in cfg.preds(b) {
                                work.push(p);
                            }
                        }
                    }
                }
            }
        }

        let loops: Vec<NaturalLoop> = by_header
            .into_iter()
            .map(|(header, blocks)| NaturalLoop { header, blocks })
            .collect();

        let mut depth = vec![0u32; n];
        for l in &loops {
            for b in l.blocks.iter() {
                depth[b] += 1;
            }
        }
        LoopInfo { loops, depth }
    }

    /// Loop nesting depth of `b`.
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Execution-frequency weight used by the priority function:
    /// `base^depth`, capped to avoid overflow. The paper's Uopt used static
    /// loop-based frequency estimates; we use the conventional base of 10.
    pub fn weight(&self, b: BlockId) -> f64 {
        const BASE: f64 = 10.0;
        BASE.powi(self.depth(b).min(8) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::Function;

    /// Nested loops:
    /// bb0 -> bb1(h1) -> bb2(h2) -> bb3 -> bb2 ; bb2 -> bb1 ; bb1 -> bb4 ret
    fn nested() -> Function {
        let mut b = FunctionBuilder::new("n");
        let h1 = b.new_block();
        let h2 = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.br(h1);
        let c1 = b.copy(1);
        b.cond_br(c1, h2, exit);
        b.switch_to(h2);
        let c2 = b.copy(1);
        b.cond_br(c2, body, h1);
        b.switch_to(body);
        b.br(h2);
        b.switch_to(exit);
        b.ret(None);
        b.build()
    }

    #[test]
    fn nested_loop_depths() {
        let f = nested();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let li = LoopInfo::compute(&cfg, &dom);
        assert_eq!(li.loops.len(), 2);
        assert_eq!(li.depth(BlockId(0)), 0);
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 2);
        assert_eq!(li.depth(BlockId(3)), 2);
        assert_eq!(li.depth(BlockId(4)), 0);
        assert!(li.weight(BlockId(2)) > li.weight(BlockId(1)));
        assert_eq!(li.weight(BlockId(4)), 1.0);
    }

    #[test]
    fn straightline_has_no_loops() {
        let mut b = FunctionBuilder::new("s");
        b.ret(None);
        let f = b.build();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let li = LoopInfo::compute(&cfg, &dom);
        assert!(li.loops.is_empty());
        assert_eq!(li.depth(BlockId(0)), 0);
    }

    #[test]
    fn self_loop_detected() {
        let mut b = FunctionBuilder::new("sl");
        let l = b.new_block();
        let out = b.new_block();
        b.br(l);
        let c = b.copy(1);
        b.cond_br(c, l, out);
        b.switch_to(out);
        b.ret(None);
        let f = b.build();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let li = LoopInfo::compute(&cfg, &dom);
        assert_eq!(li.loops.len(), 1);
        assert_eq!(li.loops[0].header, BlockId(1));
        assert_eq!(li.loops[0].blocks.iter().count(), 1);
        assert_eq!(li.depth(BlockId(1)), 1);
    }

    #[test]
    fn two_back_edges_same_header_merge() {
        // h has two latches.
        let mut b = FunctionBuilder::new("m");
        let h = b.new_block();
        let l1 = b.new_block();
        let l2 = b.new_block();
        let out = b.new_block();
        b.br(h);
        let c = b.copy(1);
        b.cond_br(c, l1, l2);
        b.switch_to(l1);
        let c1 = b.copy(1);
        b.cond_br(c1, h, out);
        b.switch_to(l2);
        b.br(h);
        b.switch_to(out);
        b.ret(None);
        let f = b.build();
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let li = LoopInfo::compute(&cfg, &dom);
        assert_eq!(
            li.loops.len(),
            1,
            "back edges with one header form one loop"
        );
        assert_eq!(li.loops[0].blocks.iter().count(), 3);
    }
}
