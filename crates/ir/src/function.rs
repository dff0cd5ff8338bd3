//! Functions and basic blocks.

use crate::entity::EntityVec;
use crate::ids::{BlockId, InstLoc, SlotId, Vreg};
use crate::instr::{Inst, Terminator};

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl Block {
    /// Creates a block with the given terminator and no instructions.
    pub fn new(term: Terminator) -> Self {
        Block {
            insts: Vec::new(),
            term,
        }
    }
}

/// A local stack slot (used for local arrays).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SlotData {
    /// Number of 64-bit cells.
    pub size: u32,
    /// Debug name.
    pub name: String,
}

/// Linkage/visibility attributes that decide whether a procedure is *open*
/// (paper §3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FuncAttrs {
    /// The function is visible outside the current compilation unit, i.e. it
    /// may have callers the compiler never sees (separate compilation).
    pub external_visible: bool,
}

/// A function: parameters, virtual registers, blocks, slots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Function name (unique within a module).
    pub name: String,
    /// Parameter registers, in order. They are defined at function entry.
    pub params: Vec<Vreg>,
    /// Entry block.
    pub entry: BlockId,
    /// Basic blocks.
    pub blocks: EntityVec<BlockId, Block>,
    /// Local stack slots.
    pub slots: EntityVec<SlotId, SlotData>,
    /// Attributes affecting open/closed classification.
    pub attrs: FuncAttrs,
    /// Debug names for virtual registers (`None` for compiler temporaries).
    vreg_names: Vec<Option<String>>,
}

impl Function {
    /// Creates an empty function shell named `name`. Use
    /// [`FunctionBuilder`](crate::builder::FunctionBuilder) for convenient
    /// construction.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            params: Vec::new(),
            entry: BlockId(0),
            blocks: EntityVec::new(),
            slots: EntityVec::new(),
            attrs: FuncAttrs::default(),
            vreg_names: Vec::new(),
        }
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> Vreg {
        let v = Vreg(self.vreg_names.len() as u32);
        self.vreg_names.push(None);
        v
    }

    /// Allocates a fresh named virtual register.
    pub fn new_named_vreg(&mut self, name: impl Into<String>) -> Vreg {
        let v = Vreg(self.vreg_names.len() as u32);
        self.vreg_names.push(Some(name.into()));
        v
    }

    /// Number of virtual registers.
    pub fn num_vregs(&self) -> usize {
        self.vreg_names.len()
    }

    /// Debug name of a register, if it has one.
    pub fn vreg_name(&self, v: Vreg) -> Option<&str> {
        self.vreg_names.get(v.0 as usize).and_then(|n| n.as_deref())
    }

    /// Drops every buffer's spare capacity, so a function kept for long
    /// holds no slack left by the front end or the passes that grew it,
    /// as a clone would not.
    pub fn shrink_to_fit(&mut self) {
        self.name.shrink_to_fit();
        self.params.shrink_to_fit();
        for b in self.blocks.values_mut() {
            for inst in &mut b.insts {
                if let Inst::Call { args, .. } = inst {
                    args.shrink_to_fit();
                }
            }
            b.insts.shrink_to_fit();
        }
        self.blocks.shrink_to_fit();
        for s in self.slots.values_mut() {
            s.name.shrink_to_fit();
        }
        self.slots.shrink_to_fit();
        for name in self.vreg_names.iter_mut().flatten() {
            name.shrink_to_fit();
        }
        self.vreg_names.shrink_to_fit();
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the function contains no call instruction (a call-graph leaf).
    pub fn is_leaf(&self) -> bool {
        self.blocks
            .values()
            .all(|b| b.insts.iter().all(|i| !i.is_call()))
    }

    /// Iterates over all instruction locations together with the
    /// instructions, in block order.
    pub fn inst_locs(&self) -> impl Iterator<Item = (InstLoc, &Inst)> {
        self.blocks.iter().flat_map(|(block, b)| {
            b.insts
                .iter()
                .enumerate()
                .map(move |(inst, i)| (InstLoc { block, inst }, i))
        })
    }

    /// The instruction at `loc`.
    ///
    /// # Panics
    ///
    /// Panics when `loc` is out of range.
    pub fn inst(&self, loc: InstLoc) -> &Inst {
        &self.blocks[loc.block].insts[loc.inst]
    }

    /// Total number of instructions (excluding terminators).
    pub fn num_insts(&self) -> usize {
        self.blocks.values().map(|b| b.insts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Operand, Terminator};

    #[test]
    fn vreg_allocation_and_names() {
        let mut f = Function::new("f");
        let a = f.new_named_vreg("a");
        let t = f.new_vreg();
        assert_eq!(a, Vreg(0));
        assert_eq!(t, Vreg(1));
        assert_eq!(f.vreg_name(a), Some("a"));
        assert_eq!(f.vreg_name(t), None);
        assert_eq!(f.num_vregs(), 2);
    }

    #[test]
    fn leaf_detection() {
        let mut f = Function::new("leaf");
        f.blocks.push(Block::new(Terminator::Ret(None)));
        assert!(f.is_leaf());
        let mut g = Function::new("caller");
        let mut b = Block::new(Terminator::Ret(None));
        b.insts.push(Inst::Call {
            callee: crate::instr::Callee::Direct(crate::ids::FuncId(0)),
            args: vec![Operand::Imm(1)],
            dst: None,
        });
        g.blocks.push(b);
        assert!(!g.is_leaf());
    }

    #[test]
    fn inst_locs_enumerates_in_order() {
        let mut f = Function::new("f");
        let v = f.new_vreg();
        let mut b0 = Block::new(Terminator::Br(BlockId(1)));
        b0.insts.push(Inst::Copy {
            dst: v,
            src: Operand::Imm(1),
        });
        b0.insts.push(Inst::Print {
            arg: Operand::Reg(v),
        });
        f.blocks.push(b0);
        f.blocks.push(Block::new(Terminator::Ret(None)));
        let locs: Vec<_> = f.inst_locs().map(|(l, _)| (l.block.0, l.inst)).collect();
        assert_eq!(locs, vec![(0, 0), (0, 1)]);
        assert_eq!(f.num_insts(), 2);
    }
}
