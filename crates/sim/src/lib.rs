//! # ipra-sim — machine-code simulator and traffic accounting
//!
//! Plays the role of the paper's `pixie` instruction tracer (§8): executes
//! lowered machine code against a single global register file, counts
//! cycles, and classifies every memory access as data traffic or scalar
//! traffic (variable homes, spills, register saves/restores). Optionally
//! verifies on every return that the procedure preserved all registers its
//! register-usage summary promises to preserve.
//!
//! # How a run works
//!
//! [`run`] decodes the module once, then executes it. Decoding flattens
//! every function into one array of ops. Operands become indices into one
//! value file, which holds the registers and then the run's immediates.
//! Addresses carry their object's arena offset and length, branches name
//! op indices, a function address becomes an immediate, and each binary
//! operator gets an op of its own. A compare whose result the block's
//! `CondBr` tests becomes one op that writes the result and branches, at
//! the compare's cost; the `CondBr` keeps its own op, so op `i` is still
//! the `i`-th instruction.
//!
//! Statistics are charged per *segment*, not per instruction. A segment is
//! a block's ops up to and including the next call, or up to and including
//! the terminator. Entering a segment charges its cycles against the fuel,
//! counts it once, and charges its save/restore and spill accesses to the
//! call edge of the current activation. Everything else in [`Stats`], the
//! per-function attribution and the block profile are derived from the
//! segment counts when the run ends, and the depth histogram from the
//! activations counted per depth.
//!
//! The convention checker compares only the registers an activation can
//! write. Decoding gives each function the registers its instructions
//! write, closed over its direct callees; a function that can reach an
//! indirect call may write whatever any function writes. A function whose
//! preserved registers miss that set takes no snapshot on entry and no
//! check on return. A register nothing in the call tree writes cannot
//! change, so the check reports exactly what comparing every preserved
//! register would.
//!
//! Every instruction is charged before it executes, so a trap is reported
//! only if the trapping instruction's own charge fits the fuel. When a
//! segment's cycles would cross the fuel, its ops are replayed one at a
//! time through the same per-kind helpers up to the crossing one, a fused
//! compare as its plain compare. A trap before it wins; otherwise the run
//! stops with [`SimTrap::OutOfFuel`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod stats;

pub use exec::{run, SimOptions, SimResult, SimTrap};
pub use stats::{percent_reduction, Stats};

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::{BinOp, BlockId, EntityVec, FuncId};
    use ipra_machine::{
        FrameSlot, FrameSlotId, MAddress, MBlock, MCallee, MFunction, MInst, MModule, MOperand,
        MTerminator, MemClass, RegFile, RegMask, SlotPurpose,
    };

    fn func(name: &str, blocks: Vec<MBlock>, is_leaf: bool) -> MFunction {
        MFunction {
            name: name.into(),
            entry: BlockId(0),
            blocks: blocks.into_iter().collect(),
            frame: EntityVec::new(),
            num_params: 0,
            max_outgoing: 0,
            is_leaf,
        }
    }

    /// main: rv = 2; call child; print rv   (child: rv = rv * 3)
    fn call_module(regs: &RegFile) -> MModule {
        let rv = regs.ret_reg();
        let child = func(
            "child",
            vec![MBlock {
                insts: vec![MInst::Bin {
                    op: BinOp::Mul,
                    dst: rv,
                    lhs: MOperand::Reg(rv),
                    rhs: MOperand::Imm(3),
                }],
                term: MTerminator::Ret,
            }],
            true,
        );
        let main = func(
            "main",
            vec![MBlock {
                insts: vec![
                    MInst::Copy {
                        dst: rv,
                        src: MOperand::Imm(2),
                    },
                    MInst::Call {
                        callee: MCallee::Direct(FuncId(0)),
                        num_stack_args: 0,
                    },
                    MInst::Print {
                        arg: MOperand::Reg(rv),
                    },
                ],
                term: MTerminator::Ret,
            }],
            false,
        );
        MModule {
            funcs: [child, main].into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(FuncId(1)),
        }
    }

    #[test]
    fn registers_are_global_across_calls() {
        let regs = RegFile::mips_like();
        let m = call_module(&regs);
        let r = run(&m, &regs, &SimOptions::for_target(&regs)).unwrap();
        assert_eq!(
            r.output,
            vec![6],
            "callee computed into the shared register"
        );
        assert_eq!(r.stats.calls, 1);
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn stack_args_reach_callee_and_are_counted() {
        let regs = RegFile::mips_like();
        let rv = regs.ret_reg();
        let child = func(
            "child",
            vec![MBlock {
                insts: vec![MInst::Load {
                    dst: rv,
                    addr: MAddress::Incoming(1),
                    class: MemClass::ScalarHome,
                }],
                term: MTerminator::Ret,
            }],
            true,
        );
        let mut main = func(
            "main",
            vec![MBlock {
                insts: vec![
                    MInst::Store {
                        src: MOperand::Imm(10),
                        addr: MAddress::Outgoing(0),
                        class: MemClass::ScalarHome,
                    },
                    MInst::Store {
                        src: MOperand::Imm(20),
                        addr: MAddress::Outgoing(1),
                        class: MemClass::ScalarHome,
                    },
                    MInst::Call {
                        callee: MCallee::Direct(FuncId(0)),
                        num_stack_args: 2,
                    },
                    MInst::Print {
                        arg: MOperand::Reg(rv),
                    },
                ],
                term: MTerminator::Ret,
            }],
            false,
        );
        main.max_outgoing = 2;
        let m = MModule {
            funcs: [child, main].into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(FuncId(1)),
        };
        let r = run(&m, &regs, &SimOptions::for_target(&regs)).unwrap();
        assert_eq!(r.output, vec![20]);
        assert_eq!(
            r.stats.stores(MemClass::ScalarHome),
            2,
            "two outgoing stack args"
        );
        assert_eq!(r.stats.loads(MemClass::ScalarHome), 1);
        assert_eq!(r.stats.scalar_mem(), 3);
    }

    #[test]
    fn convention_checker_catches_clobber() {
        let regs = RegFile::mips_like();
        let s0 = regs
            .allocatable_of(ipra_machine::RegClass::CalleeSaved)
            .next()
            .expect("has callee-saved regs");
        // child trashes s0 but its mask claims it preserves everything.
        let child = func(
            "bad_child",
            vec![MBlock {
                insts: vec![MInst::Copy {
                    dst: s0,
                    src: MOperand::Imm(99),
                }],
                term: MTerminator::Ret,
            }],
            true,
        );
        let main = func(
            "main",
            vec![MBlock {
                insts: vec![
                    MInst::Copy {
                        dst: s0,
                        src: MOperand::Imm(1),
                    },
                    MInst::Call {
                        callee: MCallee::Direct(FuncId(0)),
                        num_stack_args: 0,
                    },
                ],
                term: MTerminator::Ret,
            }],
            false,
        );
        let m = MModule {
            funcs: [child, main].into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(FuncId(1)),
        };
        let masks = vec![RegMask::EMPTY, RegMask::EMPTY];
        let opts = SimOptions::for_target(&regs).check_preservation(masks);
        match run(&m, &regs, &opts) {
            Err(SimTrap::ConventionViolation {
                func,
                reg,
                before,
                after,
            }) => {
                assert_eq!(func, "bad_child");
                assert_eq!(reg, s0);
                assert_eq!((before, after), (1, 99));
            }
            other => panic!("expected convention violation, got {other:?}"),
        }
        // With s0 declared clobbered, the same program passes.
        let masks = vec![RegMask::single(s0), RegMask::single(s0)];
        let opts = SimOptions::for_target(&regs).check_preservation(masks);
        assert!(run(&m, &regs, &opts).is_ok());
    }

    #[test]
    fn frame_slots_are_per_activation() {
        // rec(depth in a0): store depth to its own frame slot, recurse once,
        // then print the slot — each activation must keep its own value.
        let regs = RegFile::mips_like();
        let a0 = regs.param_regs()[0];
        let mut frame = EntityVec::new();
        frame.push(FrameSlot {
            size: 1,
            purpose: SlotPurpose::Home,
            label: "x".into(),
        });
        let t0 = regs.allocatable()[4];
        let rec = MFunction {
            name: "rec".into(),
            entry: BlockId(0),
            blocks: [
                MBlock {
                    insts: vec![
                        MInst::Store {
                            src: MOperand::Reg(a0),
                            addr: MAddress::slot(FrameSlotId(0)),
                            class: MemClass::ScalarHome,
                        },
                        MInst::Bin {
                            op: BinOp::Lt,
                            dst: t0,
                            lhs: MOperand::Reg(a0),
                            rhs: MOperand::Imm(2),
                        },
                    ],
                    term: MTerminator::CondBr {
                        cond: MOperand::Reg(t0),
                        then_to: BlockId(2),
                        else_to: BlockId(1),
                    },
                },
                MBlock {
                    insts: vec![
                        MInst::Bin {
                            op: BinOp::Sub,
                            dst: a0,
                            lhs: MOperand::Reg(a0),
                            rhs: MOperand::Imm(1),
                        },
                        MInst::Call {
                            callee: MCallee::Direct(FuncId(0)),
                            num_stack_args: 0,
                        },
                    ],
                    term: MTerminator::Br(BlockId(2)),
                },
                MBlock {
                    insts: vec![
                        MInst::Load {
                            dst: t0,
                            addr: MAddress::slot(FrameSlotId(0)),
                            class: MemClass::ScalarHome,
                        },
                        MInst::Print {
                            arg: MOperand::Reg(t0),
                        },
                    ],
                    term: MTerminator::Ret,
                },
            ]
            .into_iter()
            .collect(),
            frame,
            num_params: 1,
            max_outgoing: 0,
            is_leaf: false,
        };
        let main = func(
            "main",
            vec![MBlock {
                insts: vec![
                    MInst::Copy {
                        dst: a0,
                        src: MOperand::Imm(3),
                    },
                    MInst::Call {
                        callee: MCallee::Direct(FuncId(0)),
                        num_stack_args: 0,
                    },
                ],
                term: MTerminator::Ret,
            }],
            false,
        );
        let m = MModule {
            funcs: [rec, main].into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(FuncId(1)),
        };
        let r = run(&m, &regs, &SimOptions::for_target(&regs)).unwrap();
        assert_eq!(
            r.output,
            vec![1, 2, 3],
            "innermost prints first, frames independent"
        );
        assert_eq!(r.stats.max_depth(), 4);
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let regs = RegFile::mips_like();
        let main = func(
            "main",
            vec![MBlock {
                insts: vec![],
                term: MTerminator::Br(BlockId(0)),
            }],
            true,
        );
        let m = MModule {
            funcs: [main].into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(FuncId(0)),
        };
        let mut opts = SimOptions::for_target(&regs);
        opts.fuel = 100;
        assert_eq!(run(&m, &regs, &opts).unwrap_err(), SimTrap::OutOfFuel);
    }

    #[test]
    fn bad_indirect_target_traps() {
        let regs = RegFile::mips_like();
        let main = func(
            "main",
            vec![MBlock {
                insts: vec![MInst::Call {
                    callee: MCallee::Indirect(MOperand::Imm(99)),
                    num_stack_args: 0,
                }],
                term: MTerminator::Ret,
            }],
            false,
        );
        let m = MModule {
            funcs: [main].into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(FuncId(0)),
        };
        let opts = SimOptions::for_target(&regs);
        assert_eq!(
            run(&m, &regs, &opts).unwrap_err(),
            SimTrap::BadIndirectTarget(99)
        );
    }

    /// A single-block function that returns after `insts`.
    fn straight(name: &str, insts: Vec<MInst>) -> MFunction {
        func(
            name,
            vec![MBlock {
                insts,
                term: MTerminator::Ret,
            }],
            false,
        )
    }

    /// A frame with one slot of each given size.
    fn frame(sizes: &[u32]) -> EntityVec<FrameSlotId, FrameSlot> {
        let mut frame = EntityVec::new();
        for &size in sizes {
            frame.push(FrameSlot {
                size,
                purpose: SlotPurpose::Home,
                label: String::new(),
            });
        }
        frame
    }

    /// A module whose last function is `main`.
    fn module(funcs: Vec<MFunction>) -> MModule {
        let main = FuncId(funcs.len() as u32 - 1);
        MModule {
            funcs: funcs.into_iter().collect(),
            globals: EntityVec::new(),
            main: Some(main),
        }
    }

    /// Runs `funcs` (last is `main`) on the default target.
    fn simulate(funcs: Vec<MFunction>) -> Result<SimResult, SimTrap> {
        let regs = RegFile::mips_like();
        run(&module(funcs), &regs, &SimOptions::for_target(&regs))
    }

    fn out_of_bounds(what: &str, index: i64) -> SimTrap {
        SimTrap::OutOfBounds {
            what: what.into(),
            index,
        }
    }

    fn call(callee: u32, num_stack_args: u32) -> MInst {
        MInst::Call {
            callee: MCallee::Direct(FuncId(callee)),
            num_stack_args,
        }
    }

    fn store(value: i64, addr: MAddress, class: MemClass) -> MInst {
        MInst::Store {
            src: MOperand::Imm(value),
            addr,
            class,
        }
    }

    fn load(dst: ipra_machine::PReg, addr: MAddress, class: MemClass) -> MInst {
        MInst::Load { dst, addr, class }
    }

    fn elem(slot: u32, index: i64) -> MAddress {
        MAddress::Frame {
            slot: FrameSlotId(slot),
            index: MOperand::Imm(index),
        }
    }

    #[test]
    fn frame_slot_index_out_of_bounds_traps() {
        // Each index would land inside the *neighbouring* slot of the same
        // frame, so a bound checked against the frame would miss it.
        let rv = RegFile::mips_like().ret_reg();
        for (slot, index, what) in [(0, 2, "frame slot fs0"), (1, -1, "frame slot fs1")] {
            let mut main = straight(
                "main",
                vec![
                    store(1, elem(0, 1), MemClass::Data),
                    store(2, elem(1, 2), MemClass::Data),
                    load(rv, elem(slot, index), MemClass::Data),
                ],
            );
            main.frame = frame(&[2, 3]);
            assert_eq!(
                simulate(vec![main]).unwrap_err(),
                out_of_bounds(what, index)
            );
        }
    }

    #[test]
    fn global_index_out_of_bounds_traps() {
        // Globals sit next to each other in memory: `a[2]` and `b[-1]`
        // name cells of the other global and must still trap.
        let t0 = RegFile::mips_like().allocatable()[4];
        let global = |name: &str, init: Vec<i64>| ipra_ir::GlobalData {
            name: name.into(),
            size: 2,
            init,
        };
        let at = |g: u32, i: i64| MAddress::Global {
            global: ipra_ir::GlobalId(g),
            index: MOperand::Imm(i),
        };
        let print = MInst::Print {
            arg: MOperand::Reg(t0),
        };
        for (bad, what, index) in [(at(0, 2), "global `a`", 2), (at(1, -1), "global `b`", -1)] {
            let main = straight(
                "main",
                vec![
                    load(t0, at(0, 1), MemClass::Data),
                    print.clone(),
                    load(t0, at(1, 0), MemClass::Data),
                    print.clone(),
                    load(t0, bad, MemClass::Data),
                    print.clone(),
                ],
            );
            let mut m = module(vec![main]);
            m.globals.push(global("a", vec![1, 2]));
            m.globals.push(global("b", vec![3]));
            let regs = RegFile::mips_like();
            let opts = SimOptions::for_target(&regs);
            assert_eq!(
                run(&m, &regs, &opts).unwrap_err(),
                out_of_bounds(what, index)
            );
            // Without the bad access, the initial values are read back.
            m.funcs[FuncId(0)].blocks[BlockId(0)].insts.truncate(4);
            assert_eq!(run(&m, &regs, &opts).unwrap().output, vec![2, 3]);
        }
    }

    #[test]
    fn incoming_beyond_num_stack_args_traps() {
        // The caller stages three outgoing cells but passes only one: the
        // other two are not the callee's arguments.
        let rv = RegFile::mips_like().ret_reg();
        let child = straight(
            "child",
            vec![load(rv, MAddress::Incoming(1), MemClass::ScalarHome)],
        );
        let mut main = straight(
            "main",
            vec![
                store(10, MAddress::Outgoing(0), MemClass::ScalarHome),
                store(20, MAddress::Outgoing(1), MemClass::ScalarHome),
                store(30, MAddress::Outgoing(2), MemClass::ScalarHome),
                call(0, 1),
            ],
        );
        main.max_outgoing = 3;
        assert_eq!(
            simulate(vec![child, main]).unwrap_err(),
            out_of_bounds("incoming arguments", 1)
        );
    }

    #[test]
    fn writing_incoming_traps() {
        let child = straight(
            "child",
            vec![store(5, MAddress::Incoming(0), MemClass::ScalarHome)],
        );
        let mut main = straight(
            "main",
            vec![
                store(1, MAddress::Outgoing(0), MemClass::ScalarHome),
                call(0, 1),
            ],
        );
        main.max_outgoing = 1;
        assert_eq!(
            simulate(vec![child, main]).unwrap_err(),
            out_of_bounds("incoming arguments (write)", 0)
        );
    }

    #[test]
    fn outgoing_past_max_outgoing_traps() {
        let rv = RegFile::mips_like().ret_reg();
        for inst in [
            store(1, MAddress::Outgoing(2), MemClass::ScalarHome),
            load(rv, MAddress::Outgoing(2), MemClass::ScalarHome),
        ] {
            let mut main = straight("main", vec![inst]);
            main.max_outgoing = 2;
            main.frame = frame(&[4]);
            assert_eq!(
                simulate(vec![main]).unwrap_err(),
                out_of_bounds("outgoing arguments", 2)
            );
        }
    }

    #[test]
    fn call_with_more_stack_args_than_outgoing_area_traps() {
        let child = straight("child", vec![]);
        let mut main = straight("main", vec![call(0, 2)]);
        main.max_outgoing = 1;
        assert_eq!(
            simulate(vec![child, main]).unwrap_err(),
            out_of_bounds("outgoing-argument area", 1)
        );
    }

    #[test]
    fn stack_overflow_fires_at_exactly_max_depth() {
        // rec(a0): a0 -= 1; if a0 != 0 { rec() }. main calls it with 3, so
        // the deepest activation sits at depth 4 (main is depth 1).
        let regs = RegFile::mips_like();
        let a0 = regs.param_regs()[0];
        let rec = MFunction {
            blocks: [
                MBlock {
                    insts: vec![MInst::Bin {
                        op: BinOp::Sub,
                        dst: a0,
                        lhs: MOperand::Reg(a0),
                        rhs: MOperand::Imm(1),
                    }],
                    term: MTerminator::CondBr {
                        cond: MOperand::Reg(a0),
                        then_to: BlockId(1),
                        else_to: BlockId(2),
                    },
                },
                MBlock {
                    insts: vec![call(0, 0)],
                    term: MTerminator::Br(BlockId(2)),
                },
                MBlock {
                    insts: vec![],
                    term: MTerminator::Ret,
                },
            ]
            .into_iter()
            .collect(),
            ..func("rec", vec![], false)
        };
        let main = straight(
            "main",
            vec![
                MInst::Copy {
                    dst: a0,
                    src: MOperand::Imm(3),
                },
                call(0, 0),
            ],
        );
        let m = module(vec![rec, main]);
        let mut opts = SimOptions::for_target(&regs);
        opts.max_depth = 4;
        let r = run(&m, &regs, &opts).expect("depth 4 fits a limit of 4");
        assert_eq!(r.stats.max_depth(), 4);
        opts.max_depth = 3;
        assert_eq!(run(&m, &regs, &opts).unwrap_err(), SimTrap::StackOverflow);
    }

    #[test]
    fn divide_by_zero_traps() {
        let regs = RegFile::mips_like();
        let (rv, t0) = (regs.ret_reg(), regs.allocatable()[4]);
        for op in [BinOp::Div, BinOp::Rem] {
            let main = straight(
                "main",
                vec![
                    MInst::Copy {
                        dst: t0,
                        src: MOperand::Imm(0),
                    },
                    MInst::Bin {
                        op,
                        dst: rv,
                        lhs: MOperand::Imm(7),
                        rhs: MOperand::Reg(t0),
                    },
                ],
            );
            assert_eq!(simulate(vec![main]).unwrap_err(), SimTrap::DivideByZero);
        }
    }

    #[test]
    fn every_activation_starts_with_a_zeroed_frame() {
        // child prints its slot and its outgoing cell, then overwrites
        // both; called twice in a row, the second activation occupies the
        // memory the first one left behind and must still read zeros.
        let t0 = RegFile::mips_like().allocatable()[4];
        let print = MInst::Print {
            arg: MOperand::Reg(t0),
        };
        let mut child = straight(
            "child",
            vec![
                load(t0, elem(0, 0), MemClass::ScalarHome),
                print.clone(),
                load(t0, MAddress::Outgoing(0), MemClass::ScalarHome),
                print,
                store(42, elem(0, 0), MemClass::ScalarHome),
                store(43, MAddress::Outgoing(0), MemClass::ScalarHome),
            ],
        );
        child.frame = frame(&[1]);
        child.max_outgoing = 1;
        let main = straight("main", vec![call(0, 0), call(0, 0)]);
        let r = simulate(vec![child, main]).unwrap();
        assert_eq!(r.output, vec![0, 0, 0, 0]);
    }

    #[test]
    fn nested_activations_are_checked_against_their_own_entry_values() {
        // main sets s0 = 1 and calls mid, which calls leaf. leaf may
        // clobber s0 and sets it to 7; mid promises to preserve s0, so
        // mid's return must report the change against mid's entry value
        // even though leaf's check ran (and passed) in between.
        let regs = RegFile::mips_like();
        let mut callee_saved = regs.allocatable_of(ipra_machine::RegClass::CalleeSaved);
        let (s0, s1) = (callee_saved.next().unwrap(), callee_saved.next().unwrap());
        let copy = |dst, v| MInst::Copy {
            dst,
            src: MOperand::Imm(v),
        };
        let leaf = straight("leaf", vec![copy(s0, 7)]);
        let mid = straight("mid", vec![copy(s1, 5), call(0, 0)]);
        let main = straight("main", vec![copy(s0, 1), call(1, 0)]);
        let masks = vec![
            RegMask::single(s0).union(RegMask::single(s1)),
            RegMask::single(s1),
            RegMask::EMPTY,
        ];
        let opts = SimOptions::for_target(&regs).check_preservation(masks);
        assert_eq!(
            run(&module(vec![leaf, mid, main]), &regs, &opts).unwrap_err(),
            SimTrap::ConventionViolation {
                func: "mid".into(),
                reg: s0,
                before: 1,
                after: 7,
            }
        );
    }

    #[test]
    fn penalty_traffic_lands_on_the_creating_edge() {
        use crate::stats::{EdgePenalty, ROOT_CALLER};
        let t0 = RegFile::mips_like().allocatable()[4];
        let cost = ipra_machine::CostModel::default();
        let mut child = straight("child", vec![load(t0, elem(0, 0), MemClass::SaveRestore)]);
        child.frame = frame(&[1]);
        // Without save/restore or spill traffic in main there is no entry
        // edge at all.
        let plain = straight("main", vec![call(0, 0), call(0, 0)]);
        let r = simulate(vec![child.clone(), plain]).unwrap();
        let child_edge = EdgePenalty {
            caller: 1,
            callee: 0,
            calls: 2,
            sr_loads: 2,
            penalty_cycles: 2 * cost.load,
            ..EdgePenalty::default()
        };
        assert_eq!(r.stats.edge_penalty, vec![child_edge.clone()]);
        assert_eq!(r.stats.call_edges, vec![(1, 0, 2)]);
        // main's own traffic creates the entry edge, sorted last.
        let mut main = straight(
            "main",
            vec![
                store(1, elem(0, 0), MemClass::Spill),
                call(0, 0),
                store(2, elem(0, 0), MemClass::SaveRestore),
                call(0, 0),
            ],
        );
        main.frame = frame(&[1]);
        let r = simulate(vec![child, main]).unwrap();
        let entry = EdgePenalty {
            caller: ROOT_CALLER,
            callee: 1,
            sr_stores: 1,
            spill_stores: 1,
            penalty_cycles: cost.store,
            ..EdgePenalty::default()
        };
        assert_eq!(r.stats.edge_penalty, vec![child_edge, entry]);
        assert_eq!(r.stats.call_edges, vec![(1, 0, 2)]);
    }

    // Fuel and trap order. Every instruction is charged before it
    // executes, so a trap wins exactly when the trapping instruction's
    // own charge still fits the fuel. Default costs: alu, branch and
    // store 1, load, call and ret 2, div 30.

    /// Runs `m` with `fuel` cycles on the default target.
    fn run_fuel(m: &MModule, fuel: u64) -> Result<SimResult, SimTrap> {
        let regs = RegFile::mips_like();
        let mut opts = SimOptions::for_target(&regs);
        opts.fuel = fuel;
        run(m, &regs, &opts)
    }

    /// Asserts that `m` reports `trap` for every fuel of at least
    /// `through` (the cycle count up to and including the trapping
    /// instruction) and `OutOfFuel` for every smaller fuel.
    fn assert_trap_at(m: &MModule, trap: &SimTrap, through: u64) {
        for fuel in 0..through + 4 {
            let want = if fuel >= through {
                trap
            } else {
                &SimTrap::OutOfFuel
            };
            assert_eq!(&run_fuel(m, fuel).unwrap_err(), want, "fuel {fuel}");
        }
    }

    #[test]
    fn a_trap_before_the_fuel_crossing_wins_and_one_at_or_after_it_loses() {
        let regs = RegFile::mips_like();
        let (rv, t0) = (regs.ret_reg(), regs.allocatable()[4]);
        let copy = |dst, v| MInst::Copy {
            dst,
            src: MOperand::Imm(v),
        };
        let print = MInst::Print {
            arg: MOperand::Reg(rv),
        };
        // A division by zero in the entry block, at cycle 1 + 1 + 30.
        let div = straight(
            "main",
            vec![
                copy(t0, 0),
                copy(rv, 1),
                MInst::Bin {
                    op: BinOp::Div,
                    dst: rv,
                    lhs: MOperand::Imm(7),
                    rhs: MOperand::Reg(t0),
                },
                print.clone(),
            ],
        );
        assert_trap_at(&module(vec![div]), &SimTrap::DivideByZero, 32);

        // An out-of-bounds load behind a branch and a call: main's entry
        // block (copy 1, br 1), then call 2, child (copy 1, ret 2), then
        // store 1 and the load, which ends at cycle 10.
        let child = straight("child", vec![copy(t0, 5)]);
        let mut main = func(
            "main",
            vec![
                MBlock {
                    insts: vec![copy(t0, 0)],
                    term: MTerminator::Br(BlockId(1)),
                },
                MBlock {
                    insts: vec![
                        call(0, 0),
                        store(4, elem(0, 0), MemClass::Data),
                        load(rv, elem(0, 3), MemClass::Data),
                        print,
                    ],
                    term: MTerminator::Ret,
                },
            ],
            false,
        );
        main.frame = frame(&[2]);
        assert_trap_at(
            &module(vec![child, main]),
            &out_of_bounds("frame slot fs0", 3),
            10,
        );
    }

    #[test]
    fn a_call_whose_own_charge_crosses_runs_out_of_fuel_before_entering() {
        // Each call ends at cycle 1 + 2; what the callee would do never
        // matters below that.
        let regs = RegFile::mips_like();
        let t0 = regs.allocatable()[4];
        let copy = MInst::Copy {
            dst: t0,
            src: MOperand::Imm(1),
        };
        let leaf = || straight("leaf", vec![]);
        let bad_target = straight(
            "main",
            vec![
                copy.clone(),
                MInst::Call {
                    callee: MCallee::Indirect(MOperand::Imm(99)),
                    num_stack_args: 0,
                },
            ],
        );
        assert_trap_at(
            &module(vec![bad_target]),
            &SimTrap::BadIndirectTarget(99),
            3,
        );
        let too_many_args = straight("main", vec![copy.clone(), call(0, 2)]);
        assert_trap_at(
            &module(vec![leaf(), too_many_args]),
            &out_of_bounds("outgoing-argument area", 1),
            3,
        );
        let m = module(vec![leaf(), straight("main", vec![copy, call(0, 0)])]);
        let mut opts = SimOptions::for_target(&regs);
        opts.max_depth = 1;
        for fuel in 0..6 {
            opts.fuel = fuel;
            let want = if fuel >= 3 {
                SimTrap::StackOverflow
            } else {
                SimTrap::OutOfFuel
            };
            assert_eq!(run(&m, &regs, &opts).unwrap_err(), want, "fuel {fuel}");
        }
    }

    #[test]
    fn a_callee_trap_wins_when_only_the_callers_later_instructions_cross() {
        // call 2, then child's load 2 traps at cycle 4; main's copies and
        // return after the call would need 4 more.
        let regs = RegFile::mips_like();
        let (rv, t0) = (regs.ret_reg(), regs.allocatable()[4]);
        let child = straight(
            "child",
            vec![load(rv, MAddress::Incoming(0), MemClass::ScalarHome)],
        );
        let copy = |v| MInst::Copy {
            dst: t0,
            src: MOperand::Imm(v),
        };
        let main = straight("main", vec![call(0, 0), copy(1), copy(2)]);
        assert_trap_at(
            &module(vec![child, main]),
            &out_of_bounds("incoming arguments", 0),
            4,
        );
    }

    #[test]
    fn a_return_whose_charge_crosses_runs_out_of_fuel_despite_a_violation() {
        // main: s0 = 1 (1), call (2); child: s0 = 99 (1), ret (2) at
        // cycle 6, where the convention check would fail.
        let regs = RegFile::mips_like();
        let s0 = regs
            .allocatable_of(ipra_machine::RegClass::CalleeSaved)
            .next()
            .unwrap();
        let copy = |v| MInst::Copy {
            dst: s0,
            src: MOperand::Imm(v),
        };
        let m = module(vec![
            straight("child", vec![copy(99)]),
            straight("main", vec![copy(1), call(0, 0)]),
        ]);
        let violation = SimTrap::ConventionViolation {
            func: "child".into(),
            reg: s0,
            before: 1,
            after: 99,
        };
        let mut opts = SimOptions::for_target(&regs).check_preservation(vec![RegMask::EMPTY; 2]);
        for fuel in 0..10 {
            opts.fuel = fuel;
            let want = if fuel >= 6 {
                &violation
            } else {
                &SimTrap::OutOfFuel
            };
            assert_eq!(&run(&m, &regs, &opts).unwrap_err(), want, "fuel {fuel}");
        }
    }

    #[test]
    fn a_violation_names_the_lowest_changed_register() {
        // child overwrites the higher register first; the report still
        // names the lower one, with its own entry and return values.
        let regs = RegFile::mips_like();
        let mut saved: Vec<_> = regs
            .allocatable_of(ipra_machine::RegClass::CalleeSaved)
            .take(2)
            .collect();
        saved.sort_by_key(|r| r.index());
        let (lo, hi) = (saved[0], saved[1]);
        let copy = |dst, v| MInst::Copy {
            dst,
            src: MOperand::Imm(v),
        };
        let m = module(vec![
            straight("child", vec![copy(hi, 20), copy(lo, 10)]),
            straight("main", vec![copy(lo, 1), copy(hi, 2), call(0, 0)]),
        ]);
        let opts = SimOptions::for_target(&regs).check_preservation(vec![RegMask::EMPTY; 2]);
        assert_eq!(
            run(&m, &regs, &opts).unwrap_err(),
            SimTrap::ConventionViolation {
                func: "child".into(),
                reg: lo,
                before: 1,
                after: 10,
            }
        );
    }

    // The convention check compares only the registers an activation can
    // write: those its function's instructions write, closed over its
    // callees. These runs fail or pass exactly as a check of every
    // preserved register would.

    /// The first callee-saved register.
    fn s0(regs: &RegFile) -> ipra_machine::PReg {
        regs.allocatable_of(ipra_machine::RegClass::CalleeSaved)
            .next()
            .expect("has callee-saved regs")
    }

    /// `dst = v`.
    fn copy(dst: ipra_machine::PReg, v: i64) -> MInst {
        MInst::Copy {
            dst,
            src: MOperand::Imm(v),
        }
    }

    #[test]
    fn a_write_through_an_indirect_call_is_checked() {
        // main sets s0 = 1 and calls mid, which promises to preserve s0
        // and calls leaf through a function pointer; leaf sets s0 = 7.
        // mid writes only t0 itself, so only its indirect callee can
        // change s0.
        let regs = RegFile::mips_like();
        let (s0, t0) = (s0(&regs), regs.allocatable()[4]);
        let leaf = straight("leaf", vec![copy(s0, 7)]);
        let mid = straight(
            "mid",
            vec![
                MInst::FuncAddr {
                    dst: t0,
                    func: FuncId(0),
                },
                MInst::Call {
                    callee: MCallee::Indirect(MOperand::Reg(t0)),
                    num_stack_args: 0,
                },
            ],
        );
        let main = straight("main", vec![copy(s0, 1), call(1, 0)]);
        let both = RegMask::single(s0).union(RegMask::single(t0));
        let masks = vec![RegMask::single(s0), RegMask::single(t0), both];
        let opts = SimOptions::for_target(&regs).check_preservation(masks);
        assert_eq!(
            run(&module(vec![leaf, mid, main]), &regs, &opts).unwrap_err(),
            SimTrap::ConventionViolation {
                func: "mid".into(),
                reg: s0,
                before: 1,
                after: 7,
            }
        );
    }

    #[test]
    fn a_write_three_direct_calls_below_the_promise_is_checked() {
        // top promises to preserve s0 and calls a, which calls b, which
        // calls c; only c writes s0. Callers come before their callees,
        // so the closure over callees takes more than one pass.
        let regs = RegFile::mips_like();
        let s0 = s0(&regs);
        let m = module(vec![
            straight("top", vec![call(1, 0)]),
            straight("a", vec![call(2, 0)]),
            straight("b", vec![call(3, 0)]),
            straight("c", vec![copy(s0, 42)]),
            straight("main", vec![copy(s0, 3), call(0, 0)]),
        ]);
        let mut masks = vec![RegMask::single(s0); 5];
        masks[0] = RegMask::EMPTY;
        let opts = SimOptions::for_target(&regs).check_preservation(masks);
        assert_eq!(
            run(&m, &regs, &opts).unwrap_err(),
            SimTrap::ConventionViolation {
                func: "top".into(),
                reg: s0,
                before: 3,
                after: 42,
            }
        );
    }

    #[test]
    fn a_preserved_register_restored_before_return_passes() {
        // child saves s0 in its frame, overwrites it and reloads it before
        // returning. It writes s0, so its return is checked, and the check
        // passes; without the reload it fails.
        let regs = RegFile::mips_like();
        let s0 = s0(&regs);
        let print = MInst::Print {
            arg: MOperand::Reg(s0),
        };
        let mut child = straight(
            "child",
            vec![
                MInst::Store {
                    src: MOperand::Reg(s0),
                    addr: elem(0, 0),
                    class: MemClass::SaveRestore,
                },
                copy(s0, 99),
                print.clone(),
                load(s0, elem(0, 0), MemClass::SaveRestore),
            ],
        );
        child.frame = frame(&[1]);
        let main = straight("main", vec![copy(s0, 5), call(0, 0), print]);
        let mut m = module(vec![child, main]);
        let opts = SimOptions::for_target(&regs)
            .check_preservation(vec![RegMask::EMPTY, RegMask::single(s0)]);
        let r = run(&m, &regs, &opts).expect("child restores s0");
        assert_eq!(r.output, vec![99, 5]);
        m.funcs[FuncId(0)].blocks[BlockId(0)].insts.pop();
        assert_eq!(
            run(&m, &regs, &opts).unwrap_err(),
            SimTrap::ConventionViolation {
                func: "child".into(),
                reg: s0,
                before: 5,
                after: 99,
            }
        );
    }
}
