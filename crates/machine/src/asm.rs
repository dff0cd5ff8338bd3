//! Textual "assembly" printer for lowered code.

use std::fmt;

use crate::code::{MAddress, MBlock, MCallee, MFunction, MInst, MModule, MOperand, MTerminator};
use crate::regs::RegFile;

/// Displays a lowered function with register names from a [`RegFile`].
pub struct AsmDisplay<'a> {
    func: &'a MFunction,
    regs: &'a RegFile,
    module: Option<&'a MModule>,
}

impl MFunction {
    /// Renders the function as pseudo-assembly.
    pub fn display<'a>(&'a self, regs: &'a RegFile) -> AsmDisplay<'a> {
        AsmDisplay {
            func: self,
            regs,
            module: None,
        }
    }

    /// Renders with callee names resolved through `module`.
    pub fn display_in<'a>(&'a self, regs: &'a RegFile, module: &'a MModule) -> AsmDisplay<'a> {
        AsmDisplay {
            func: self,
            regs,
            module: Some(module),
        }
    }
}

impl MModule {
    /// Renders every function in id order, each followed by a newline:
    /// the text `mini-cc --emit asm` prints and the compile daemon
    /// returns as `asm`, and the byte-identity witness of the
    /// determinism and cache checks.
    pub fn asm(&self, regs: &RegFile) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for (_, f) in self.funcs.iter() {
            writeln!(out, "{}", f.display_in(regs, self)).expect("writing to a String cannot fail");
        }
        out
    }
}

/// An operand with its register named, written straight into the
/// formatter.
struct Op<'a>(&'a RegFile, MOperand);

impl fmt::Display for Op<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            MOperand::Reg(r) => f.write_str(self.0.name(r)),
            MOperand::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// An address with its index operand named, written straight into the
/// formatter.
struct Addr<'a>(&'a RegFile, MAddress);

impl fmt::Display for Addr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.1 {
            MAddress::Global { global, index } => write!(f, "{global}[{}]", Op(self.0, index)),
            MAddress::Frame { slot, index } => write!(f, "{slot}[{}]", Op(self.0, index)),
            MAddress::Incoming(i) => write!(f, "incoming[{i}]"),
            MAddress::Outgoing(i) => write!(f, "outgoing[{i}]"),
        }
    }
}

impl AsmDisplay<'_> {
    fn op(&self, o: MOperand) -> Op<'_> {
        Op(self.regs, o)
    }

    fn addr(&self, a: MAddress) -> Addr<'_> {
        Addr(self.regs, a)
    }

    fn fmt_block(&self, f: &mut fmt::Formatter<'_>, b: &MBlock) -> fmt::Result {
        for inst in &b.insts {
            write!(f, "  ")?;
            match inst {
                MInst::Copy { dst, src } => {
                    writeln!(f, "move {}, {}", self.regs.name(*dst), self.op(*src))?
                }
                MInst::Bin { op, dst, lhs, rhs } => writeln!(
                    f,
                    "{} {}, {}, {}",
                    op.mnemonic(),
                    self.regs.name(*dst),
                    self.op(*lhs),
                    self.op(*rhs)
                )?,
                MInst::Un { op, dst, src } => writeln!(
                    f,
                    "{} {}, {}",
                    op.mnemonic(),
                    self.regs.name(*dst),
                    self.op(*src)
                )?,
                MInst::Load { dst, addr, class } => writeln!(
                    f,
                    "ld {}, {} ; {:?}",
                    self.regs.name(*dst),
                    self.addr(*addr),
                    class
                )?,
                MInst::Store { src, addr, class } => writeln!(
                    f,
                    "st {}, {} ; {:?}",
                    self.op(*src),
                    self.addr(*addr),
                    class
                )?,
                MInst::Call {
                    callee,
                    num_stack_args,
                } => {
                    match callee {
                        MCallee::Direct(id) => match self.module {
                            Some(m) => write!(f, "call @{}", m.funcs[*id].name)?,
                            None => write!(f, "call {id}")?,
                        },
                        MCallee::Indirect(t) => write!(f, "call_indirect {}", self.op(*t))?,
                    }
                    if *num_stack_args > 0 {
                        write!(f, " stack({num_stack_args})")?;
                    }
                    writeln!(f)?
                }
                MInst::FuncAddr { dst, func } => match self.module {
                    Some(m) => {
                        writeln!(f, "la {}, @{}", self.regs.name(*dst), m.funcs[*func].name)?
                    }
                    None => writeln!(f, "la {}, {func}", self.regs.name(*dst))?,
                },
                MInst::Print { arg } => writeln!(f, "print {}", self.op(*arg))?,
            }
        }
        match b.term {
            MTerminator::Ret => writeln!(f, "  jr ra"),
            MTerminator::Br(t) => writeln!(f, "  j {t}"),
            MTerminator::CondBr {
                cond,
                then_to,
                else_to,
            } => {
                writeln!(f, "  bnez {}, {then_to} ; else {else_to}", self.op(cond))
            }
        }
    }
}

impl fmt::Display for AsmDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: ; frame: {} slots, params: {}",
            self.func.name,
            self.func.frame.len(),
            self.func.num_params
        )?;
        for (id, slot) in self.func.frame.iter() {
            writeln!(
                f,
                "  .slot {id} {} [{}] ; {:?}",
                slot.label, slot.size, slot.purpose
            )?;
        }
        for (id, b) in self.func.blocks.iter() {
            let marker = if id == self.func.entry {
                " ; entry"
            } else {
                ""
            };
            writeln!(f, "{id}:{marker}")?;
            self.fmt_block(f, b)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{FrameSlot, MemClass, SlotPurpose};
    use crate::regs::PReg;
    use ipra_ir::{BlockId, EntityVec};

    #[test]
    fn prints_readable_assembly() {
        let rf = RegFile::mips_like();
        let mut blocks = EntityVec::new();
        let r = rf.allocatable()[0];
        blocks.push(MBlock {
            insts: vec![
                MInst::Copy {
                    dst: r,
                    src: MOperand::Imm(7),
                },
                MInst::Load {
                    dst: PReg(0),
                    addr: MAddress::slot(crate::code::FrameSlotId(0)),
                    class: MemClass::SaveRestore,
                },
                MInst::Print {
                    arg: MOperand::Reg(r),
                },
            ],
            term: MTerminator::Ret,
        });
        let mut frame = EntityVec::new();
        frame.push(FrameSlot {
            size: 1,
            purpose: SlotPurpose::Save,
            label: "save_s0".into(),
        });
        let f = MFunction {
            name: "demo".into(),
            entry: BlockId(0),
            blocks,
            frame,
            num_params: 0,
            max_outgoing: 0,
            is_leaf: true,
        };
        let s = f.display(&rf).to_string();
        assert!(s.contains("demo:"), "{s}");
        assert!(s.contains("move a0, 7"), "{s}");
        assert!(s.contains("ld at0, fs0[0] ; SaveRestore"), "{s}");
        assert!(s.contains("jr ra"), "{s}");
    }
}
