//! Lowered machine code: physical registers, explicit frames, explicit
//! save/restore and spill traffic.

use ipra_ir::{entity_id, BinOp, BlockId, EntityVec, FuncId, GlobalData, GlobalId, UnOp};

use crate::regs::PReg;

entity_id!(
    /// A slot in a machine function's stack frame.
    pub struct FrameSlotId, "fs"
);

/// What a frame slot is for (used by the assembly printer and by tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotPurpose {
    /// Home location of a virtual register that lives in memory (or is
    /// transferred at split-range boundaries).
    Home,
    /// A local array from the IR.
    Array,
    /// Save area for a register (callee-saved, caller-saved around a call,
    /// or the link register).
    Save,
    /// Outgoing stack argument staging (beyond the register arguments).
    Outgoing,
}

/// A machine frame slot.
#[derive(Clone, Debug)]
pub struct FrameSlot {
    /// Number of 64-bit cells.
    pub size: u32,
    /// Why the slot exists.
    pub purpose: SlotPurpose,
    /// Debug label.
    pub label: String,
}

/// Accounting class of a memory access (Table 1 column II counts every
/// class except [`MemClass::Data`], since those are exactly the accesses a
/// perfect register allocator could remove).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemClass {
    /// Structural data: arrays, pointers. Not removable by allocation.
    Data,
    /// Scalar variable home-slot traffic (including global scalars and
    /// stack-passed parameters).
    ScalarHome,
    /// Transfer at split live-range boundaries.
    Spill,
    /// Register save/restore (callee-saved, caller-saved around calls, link
    /// register).
    SaveRestore,
}

impl MemClass {
    /// Whether this access counts as a *scalar* load/store in the paper's
    /// measurements.
    pub fn is_scalar(self) -> bool {
        !matches!(self, MemClass::Data)
    }
}

/// Machine operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MOperand {
    /// A physical register.
    Reg(PReg),
    /// An immediate.
    Imm(i64),
}

impl From<PReg> for MOperand {
    fn from(r: PReg) -> Self {
        MOperand::Reg(r)
    }
}

impl From<i64> for MOperand {
    fn from(i: i64) -> Self {
        MOperand::Imm(i)
    }
}

impl std::fmt::Display for MOperand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MOperand::Reg(r) => write!(f, "{r}"),
            MOperand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// Machine address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MAddress {
    /// `global[index]`.
    Global {
        /// Target global.
        global: GlobalId,
        /// Element index.
        index: MOperand,
    },
    /// `frame_slot[index]` in the current frame.
    Frame {
        /// Target slot.
        slot: FrameSlotId,
        /// Element index.
        index: MOperand,
    },
    /// Incoming stack argument `i` of the current frame.
    Incoming(u32),
    /// Outgoing stack argument `i` (becomes the callee's `Incoming(i)` at
    /// the next call). Models the caller's argument-build area at the top of
    /// its frame, exactly as the MIPS ABI does.
    Outgoing(u32),
}

impl MAddress {
    /// Frame-slot shorthand with constant index 0.
    pub fn slot(slot: FrameSlotId) -> Self {
        MAddress::Frame {
            slot,
            index: MOperand::Imm(0),
        }
    }
}

/// Call target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MCallee {
    /// Statically known function.
    Direct(FuncId),
    /// Function address in a register or immediate.
    Indirect(MOperand),
}

/// A machine instruction.
///
/// Calling convention is fully explicit by this point: argument values have
/// been moved into the agreed registers (or `stack_args`), and the return
/// value is read from the return register after the call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MInst {
    /// `dst = src`.
    Copy {
        /// Destination.
        dst: PReg,
        /// Source.
        src: MOperand,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination.
        dst: PReg,
        /// Left operand.
        lhs: MOperand,
        /// Right operand.
        rhs: MOperand,
    },
    /// `dst = op src`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination.
        dst: PReg,
        /// Source.
        src: MOperand,
    },
    /// `dst = mem[addr]`.
    Load {
        /// Destination.
        dst: PReg,
        /// Address.
        addr: MAddress,
        /// Accounting class.
        class: MemClass,
    },
    /// `mem[addr] = src`.
    Store {
        /// Source.
        src: MOperand,
        /// Address.
        addr: MAddress,
        /// Accounting class.
        class: MemClass,
    },
    /// Transfer control to `callee`. Register arguments are already in
    /// place; the first `num_stack_args` cells of the caller's outgoing area
    /// (written earlier through [`MAddress::Outgoing`]) become the callee's
    /// incoming stack arguments.
    Call {
        /// Target.
        callee: MCallee,
        /// Number of stack-passed arguments.
        num_stack_args: u32,
    },
    /// `dst = &func`.
    FuncAddr {
        /// Destination.
        dst: PReg,
        /// Function whose address is taken.
        func: FuncId,
    },
    /// Emit a value to the output stream.
    Print {
        /// Value to emit.
        arg: MOperand,
    },
}

/// Machine block terminator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MTerminator {
    /// Return to caller (the return value, if any, is already in the return
    /// register; restores have been emitted before this point).
    Ret,
    /// Unconditional branch.
    Br(BlockId),
    /// Conditional branch on `cond != 0`.
    CondBr {
        /// Condition.
        cond: MOperand,
        /// Target when non-zero.
        then_to: BlockId,
        /// Target when zero.
        else_to: BlockId,
    },
}

/// A machine basic block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MBlock {
    /// Straight-line instructions.
    pub insts: Vec<MInst>,
    /// Terminator.
    pub term: MTerminator,
}

/// A lowered function.
#[derive(Clone, Debug)]
pub struct MFunction {
    /// Name (copied from the IR function).
    pub name: String,
    /// Entry block.
    pub entry: BlockId,
    /// Blocks (same ids as the IR function they were lowered from).
    pub blocks: EntityVec<BlockId, MBlock>,
    /// Frame layout.
    pub frame: EntityVec<FrameSlotId, FrameSlot>,
    /// Number of register parameters the function expects (its first
    /// parameters, in the registers recorded by the allocator's summary).
    pub num_params: usize,
    /// Size of the outgoing-argument area (max stack args over all calls).
    pub max_outgoing: u32,
    /// Whether the function makes no calls.
    pub is_leaf: bool,
}

/// A lowered module, executable by `ipra-sim`.
#[derive(Clone, Debug)]
pub struct MModule {
    /// Lowered functions, same ids as the source module.
    pub funcs: EntityVec<FuncId, MFunction>,
    /// Globals, copied from the source module.
    pub globals: EntityVec<GlobalId, GlobalData>,
    /// Entry point.
    pub main: Option<FuncId>,
}

impl MFunction {
    /// Releases the spare capacity of the blocks, their instruction
    /// lists and the frame, for code kept long after lowering built it.
    pub fn shrink_to_fit(&mut self) {
        for b in self.blocks.values_mut() {
            b.insts.shrink_to_fit();
        }
        self.blocks.shrink_to_fit();
        self.frame.shrink_to_fit();
    }
}

impl MInst {
    /// Whether the instruction is a memory access of a scalar class.
    pub fn is_scalar_mem(&self) -> bool {
        match self {
            MInst::Load { class, .. } | MInst::Store { class, .. } => class.is_scalar(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_class_scalar_accounting() {
        assert!(!MemClass::Data.is_scalar());
        assert!(MemClass::ScalarHome.is_scalar());
        assert!(MemClass::Spill.is_scalar());
        assert!(MemClass::SaveRestore.is_scalar());
    }

    #[test]
    fn inst_scalar_mem_detection() {
        let l = MInst::Load {
            dst: PReg(4),
            addr: MAddress::slot(FrameSlotId(0)),
            class: MemClass::SaveRestore,
        };
        assert!(l.is_scalar_mem());
        let d = MInst::Store {
            src: MOperand::Imm(0),
            addr: MAddress::Global {
                global: GlobalId(0),
                index: MOperand::Imm(0),
            },
            class: MemClass::Data,
        };
        assert!(!d.is_scalar_mem());
        let c = MInst::Copy {
            dst: PReg(0),
            src: MOperand::Imm(1),
        };
        assert!(!c.is_scalar_mem());
    }
}
