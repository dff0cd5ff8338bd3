//! A generic iterative bit-vector data-flow solver.
//!
//! Handles the classic four combinations of direction and meet. Liveness
//! is an instance. The shrink-wrap analysis of the paper (ANT/AV,
//! Eqs. 3.1–3.4) is not: it runs its own `RegMask` sweeps, one bit per
//! register, in `ipra-core`'s `shrinkwrap` module.

use crate::bitset::BitSet;
use crate::graph::Cfg;

/// Propagation direction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Information flows along edges (predecessors to successors).
    Forward,
    /// Information flows against edges.
    Backward,
}

/// Confluence operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Meet {
    /// May/any-path analysis.
    Union,
    /// Must/all-paths analysis.
    Intersect,
}

/// Per-block transfer function `out = gen ∪ (in − kill)`.
#[derive(Clone, Debug)]
pub struct GenKill {
    /// Bits generated by the block.
    pub gen: BitSet,
    /// Bits killed by the block.
    pub kill: BitSet,
}

impl GenKill {
    /// An identity transfer function over `bits` bits.
    pub fn identity(bits: usize) -> Self {
        GenKill {
            gen: BitSet::new(bits),
            kill: BitSet::new(bits),
        }
    }

    fn apply(&self, input: &BitSet, output: &mut BitSet) -> bool {
        let mut new = input.clone();
        new.subtract(&self.kill);
        new.union_with(&self.gen);
        if new != *output {
            *output = new;
            true
        } else {
            false
        }
    }
}

/// Solution of a data-flow problem: the value at block entry and exit.
#[derive(Clone, Debug)]
pub struct DataflowResult {
    /// Value at block entries.
    pub entry: Vec<BitSet>,
    /// Value at block exits.
    pub exit: Vec<BitSet>,
    /// Number of transfer-function applications until the fixpoint (the
    /// work the worklist actually did; a full round-robin sweep would
    /// count `num_blocks` per round).
    pub iterations: usize,
}

/// Solves a gen/kill problem to fixpoint.
///
/// `boundary` is the value at the CFG boundary: the entry block's input for
/// forward problems, every exit block's output for backward problems.
/// Interior values start at ⊥ for [`Meet::Union`] (empty set) and ⊤ for
/// [`Meet::Intersect`] (full set), restricted to reachable blocks.
pub fn solve(
    cfg: &Cfg,
    dir: Direction,
    meet: Meet,
    boundary: &BitSet,
    transfer: &[GenKill],
) -> DataflowResult {
    let n = cfg.num_blocks();
    let bits = boundary.capacity();
    assert_eq!(transfer.len(), n, "one transfer function per block");

    let bottom = || match meet {
        Meet::Union => BitSet::new(bits),
        Meet::Intersect => BitSet::full(bits),
    };
    // `inputs[b]` is the meet-side value, `outputs[b]` the transferred side.
    let mut inputs: Vec<BitSet> = (0..n).map(|_| bottom()).collect();
    let mut outputs: Vec<BitSet> = (0..n).map(|_| bottom()).collect();

    // Visit in an order that converges fast: RPO for forward problems,
    // post-order for backward problems.
    let order: Vec<_> = match dir {
        Direction::Forward => cfg.rpo.clone(),
        Direction::Backward => cfg.rpo.iter().rev().copied().collect(),
    };

    // Worklist keyed by a dirty bitset: a block is (re)processed only when
    // one of its meet-side neighbours changed since its last visit. The
    // sweep order over dirty blocks is the fixed convergence order above,
    // so the application count — and the fixpoint, which is unique for
    // monotone gen/kill frameworks anyway — is deterministic.
    let mut dirty = BitSet::new(n);
    for &b in &order {
        dirty.insert(b.index());
    }

    let mut iterations = 0;
    let mut any = true;
    while any {
        any = false;
        for &b in &order {
            let bi = b.index();
            if !dirty.remove(bi) {
                continue;
            }
            any = true;
            iterations += 1;
            // Meet over the neighbours on the meet side.
            let neighbours: &[ipra_ir::BlockId] = match dir {
                Direction::Forward => cfg.preds(b),
                Direction::Backward => cfg.succs(b),
            };
            let is_boundary = match dir {
                Direction::Forward => b == cfg.entry,
                Direction::Backward => neighbours.is_empty(),
            };
            let met = if is_boundary {
                boundary.clone()
            } else if neighbours.is_empty() {
                bottom()
            } else {
                let first = neighbours[0].index();
                let mut acc = match dir {
                    Direction::Forward => outputs[first].clone(),
                    Direction::Backward => inputs[first].clone(),
                };
                for &p in &neighbours[1..] {
                    let v = match dir {
                        Direction::Forward => &outputs[p.index()],
                        Direction::Backward => &inputs[p.index()],
                    };
                    match meet {
                        Meet::Union => {
                            acc.union_with(v);
                        }
                        Meet::Intersect => {
                            acc.intersect_with(v);
                        }
                    }
                }
                acc
            };

            // Only a change on the *transferred* side is visible to the
            // dependents (the blocks whose meet reads this block), so only
            // that re-dirties them.
            let transferred_changed = match dir {
                Direction::Forward => {
                    inputs[bi] = met;
                    let (ins, outs) = (&inputs[bi], &mut outputs[bi]);
                    transfer[bi].apply(ins, outs)
                }
                Direction::Backward => {
                    outputs[bi] = met;
                    let (outs, ins) = (&outputs[bi], &mut inputs[bi]);
                    transfer[bi].apply(outs, ins)
                }
            };
            if transferred_changed {
                let dependents: &[ipra_ir::BlockId] = match dir {
                    Direction::Forward => cfg.succs(b),
                    Direction::Backward => cfg.preds(b),
                };
                for &d in dependents {
                    dirty.insert(d.index());
                }
            }
        }
    }

    DataflowResult {
        entry: inputs,
        exit: outputs,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;

    /// diamond: 0 -> 1|2 -> 3
    fn diamond_cfg() -> Cfg {
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
        Cfg::new(&b.build())
    }

    #[test]
    fn forward_union_reaches_join() {
        let cfg = diamond_cfg();
        let bits = 2;
        let mut transfer: Vec<GenKill> = (0..4).map(|_| GenKill::identity(bits)).collect();
        transfer[1].gen.insert(0); // "defined on the then path"
        transfer[2].gen.insert(1); // "defined on the else path"
        let r = solve(
            &cfg,
            Direction::Forward,
            Meet::Union,
            &BitSet::new(bits),
            &transfer,
        );
        assert_eq!(
            r.entry[3].iter().collect::<Vec<_>>(),
            vec![0, 1],
            "join sees both"
        );
        assert!(r.entry[1].is_empty());
    }

    #[test]
    fn forward_intersect_requires_all_paths() {
        let cfg = diamond_cfg();
        let bits = 2;
        let mut transfer: Vec<GenKill> = (0..4).map(|_| GenKill::identity(bits)).collect();
        transfer[1].gen.insert(0);
        transfer[2].gen.insert(0);
        transfer[2].gen.insert(1);
        let r = solve(
            &cfg,
            Direction::Forward,
            Meet::Intersect,
            &BitSet::new(bits),
            &transfer,
        );
        assert!(r.entry[3].contains(0), "bit 0 available on all paths");
        assert!(!r.entry[3].contains(1), "bit 1 only on one path");
    }

    #[test]
    fn backward_union_is_liveness_shaped() {
        let cfg = diamond_cfg();
        let bits = 1;
        let mut transfer: Vec<GenKill> = (0..4).map(|_| GenKill::identity(bits)).collect();
        transfer[3].gen.insert(0); // "used at the join"
        let r = solve(
            &cfg,
            Direction::Backward,
            Meet::Union,
            &BitSet::new(bits),
            &transfer,
        );
        assert!(r.exit[0].contains(0));
        assert!(r.entry[1].contains(0));
        assert!(r.exit[3].is_empty(), "nothing live after the exit block");
    }

    #[test]
    fn backward_intersect_anticipability() {
        // Bit anticipated only if used on *all* forward paths.
        let cfg = diamond_cfg();
        let bits = 1;
        let mut transfer: Vec<GenKill> = (0..4).map(|_| GenKill::identity(bits)).collect();
        transfer[1].gen.insert(0); // used on then path only
        let r = solve(
            &cfg,
            Direction::Backward,
            Meet::Intersect,
            &BitSet::new(bits),
            &transfer,
        );
        assert!(!r.exit[0].contains(0), "not anticipated at the branch");
        assert!(r.entry[1].contains(0));
    }

    #[test]
    fn loop_converges() {
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
        let cfg = Cfg::new(&b.build());
        let bits = 1;
        let mut transfer: Vec<GenKill> = (0..4).map(|_| GenKill::identity(bits)).collect();
        transfer[2].gen.insert(0);
        let r = solve(
            &cfg,
            Direction::Forward,
            Meet::Union,
            &BitSet::new(bits),
            &transfer,
        );
        assert!(r.entry[1].contains(0), "loop feeds back the generated bit");
        // 4 blocks, one back edge: every block applies once, then only the
        // loop header and its reachable tail re-apply — far below the
        // 3 full sweeps (12 applications) round-robin iteration needs.
        assert!(
            (4..=8).contains(&r.iterations),
            "worklist converges quickly, took {} applications",
            r.iterations
        );
    }

    #[test]
    fn acyclic_cfg_applies_each_block_once() {
        // In RPO over a DAG every meet input is final before its block is
        // processed, so the worklist never revisits anything.
        let cfg = diamond_cfg();
        let bits = 1;
        let mut transfer: Vec<GenKill> = (0..4).map(|_| GenKill::identity(bits)).collect();
        transfer[0].gen.insert(0);
        let r = solve(
            &cfg,
            Direction::Forward,
            Meet::Union,
            &BitSet::new(bits),
            &transfer,
        );
        assert!(r.entry[3].contains(0));
        assert_eq!(r.iterations, 4, "one application per block on a DAG");
    }
}
