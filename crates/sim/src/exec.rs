//! The machine-code simulator.
//!
//! Executes an [`MModule`] against one *global* register file — essential
//! for this reproduction, because the entire subject of the paper is what
//! happens to shared registers at procedure boundaries. A register that a
//! callee clobbers without saving is really clobbered for the caller here.

use std::fmt;

use ipra_ir::{BlockId, FuncId};
use ipra_machine::{
    CostModel, MAddress, MBlock, MCallee, MFunction, MInst, MModule, MOperand, MTerminator,
    MemClass, PReg, RegFile, RegMask,
};

use crate::stats::{EdgePenalty, FuncStats, Stats, ROOT_CALLER};

/// Why simulation stopped abnormally.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SimTrap {
    /// Division (or remainder) by zero.
    DivideByZero,
    /// Out-of-bounds memory access.
    OutOfBounds {
        /// Description of the object.
        what: String,
        /// Offending index.
        index: i64,
    },
    /// Indirect call to a value that is not a function address.
    BadIndirectTarget(i64),
    /// Frame stack exceeded the limit.
    StackOverflow,
    /// Cycle budget exhausted.
    OutOfFuel,
    /// Module has no `main`.
    NoMain,
    /// A procedure modified a register its summary promises to preserve.
    ConventionViolation {
        /// Offending function.
        func: String,
        /// Register whose value changed.
        reg: PReg,
        /// Value at entry.
        before: i64,
        /// Value at return.
        after: i64,
    },
}

impl fmt::Display for SimTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimTrap::DivideByZero => write!(f, "division by zero"),
            SimTrap::OutOfBounds { what, index } => {
                write!(f, "index {index} out of bounds for {what}")
            }
            SimTrap::BadIndirectTarget(v) => {
                write!(f, "indirect call through non-function value {v}")
            }
            SimTrap::StackOverflow => write!(f, "frame stack overflow"),
            SimTrap::OutOfFuel => write!(f, "cycle budget exhausted"),
            SimTrap::NoMain => write!(f, "module has no main"),
            SimTrap::ConventionViolation {
                func,
                reg,
                before,
                after,
            } => write!(
                f,
                "`{func}` must preserve {reg} but changed it from {before} to {after}"
            ),
        }
    }
}

impl std::error::Error for SimTrap {}

/// Simulator configuration.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Cycle cost model.
    pub cost: CostModel,
    /// Cycle budget.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: usize,
    /// When set, the simulator checks on every return that the returning
    /// function preserved every register *not* in its clobber mask (the
    /// register-usage summary soundness check). Indexed by function.
    pub preserve_masks: Option<Vec<RegMask>>,
    /// Registers exempt from the preservation check (return value, scratch,
    /// link). Filled in by [`SimOptions::for_target`].
    pub exempt: RegMask,
    /// Collect per-block execution counts (the profile the paper's §8
    /// names as future feedback into the allocator).
    pub collect_block_profile: bool,
}

impl SimOptions {
    /// Default options for a target register file (no convention checking).
    pub fn for_target(regs: &RegFile) -> Self {
        let mut exempt = RegMask::single(regs.ret_reg());
        exempt.insert(regs.ra());
        for s in regs.scratch() {
            exempt.insert(s);
        }
        SimOptions {
            cost: CostModel::default(),
            fuel: 5_000_000_000,
            max_depth: 100_000,
            preserve_masks: None,
            exempt,
            collect_block_profile: false,
        }
    }

    /// Enables the convention checker with per-function clobber masks: every
    /// register outside `masks[f]` (and outside the exempt set) must be
    /// preserved by `f`.
    pub fn check_preservation(mut self, masks: Vec<RegMask>) -> Self {
        self.preserve_masks = Some(masks);
        self
    }

    /// Enables block-profile collection.
    pub fn with_block_profile(mut self) -> Self {
        self.collect_block_profile = true;
        self
    }
}

/// Result of a successful simulation.
#[derive(Clone, PartialEq, Debug)]
pub struct SimResult {
    /// Values printed, in order.
    pub output: Vec<i64>,
    /// Value left in the return register by `main`.
    pub return_value: i64,
    /// Dynamic counts.
    pub stats: Stats,
    /// Execution count per `[function][block]`, when requested.
    pub block_profile: Option<Vec<Vec<u64>>>,
}

/// Where one function keeps its state. Every activation of a function has
/// the same shape, so this is computed once per run.
struct Layout {
    /// `(offset, cells)` of each frame slot, relative to the frame base.
    slots: Vec<(usize, usize)>,
    /// Offset of the outgoing-argument area, which follows the slots.
    outgoing: usize,
    /// Cells in the outgoing-argument area (`max_outgoing`).
    outgoing_len: usize,
    /// Frame size in cells: slots plus outgoing area.
    size: usize,
    /// Registers the function must preserve, in register order (empty
    /// without convention checking).
    preserve: Vec<PReg>,
}

impl Layout {
    fn new(f: &MFunction, clobbers: Option<RegMask>, exempt: RegMask, num_regs: usize) -> Self {
        let mut size = 0;
        let slots = f
            .frame
            .values()
            .map(|s| {
                let at = size;
                size += s.size as usize;
                (at, s.size as usize)
            })
            .collect();
        let outgoing_len = f.max_outgoing as usize;
        let preserve = match clobbers {
            Some(c) => (0..num_regs as u8)
                .map(PReg)
                .filter(|r| !c.contains(*r) && !exempt.contains(*r))
                .collect(),
            None => Vec::new(),
        };
        Layout {
            slots,
            outgoing: size,
            outgoing_len,
            size: size + outgoing_len,
            preserve,
        }
    }
}

/// Ledger index of an activation whose edge has no entry yet: only `main`'s
/// root activation, whose entry edge is created when it is first charged.
const NO_EDGE: usize = usize::MAX;

/// One activation. Its frame occupies `mem[base..base + layout.size]`.
#[derive(Clone, Copy)]
struct Activation {
    func: FuncId,
    block: BlockId,
    ip: usize,
    /// First cell of the frame in the memory arena.
    base: usize,
    /// First cell of the incoming stack arguments: the start of the
    /// caller's outgoing area (the two coincide across the frame boundary
    /// on a real stack).
    args: usize,
    /// Incoming stack arguments: `num_stack_args` of the creating call.
    nargs: usize,
    /// Where this activation's entry values of its preserved registers
    /// start on the snapshot stack (convention checking only).
    snap: usize,
    /// Ledger index of the call edge `(caller, callee)` that created this
    /// activation; save/restore and spill traffic executed by the
    /// activation is charged to it.
    edge: usize,
}

/// Runs `main` of a lowered module.
///
/// All memory is one arena of cells: the globals at fixed offsets, then
/// the frame stack, which each call extends with a zero-filled frame and
/// each return truncates. Nothing is allocated or hashed per call or per
/// instruction once the arena, the stack and the ledger have grown.
///
/// # Errors
///
/// Returns the [`SimTrap`] that stopped execution.
pub fn run(module: &MModule, regs: &RegFile, opts: &SimOptions) -> Result<SimResult, SimTrap> {
    let main = module.main.ok_or(SimTrap::NoMain)?;

    let layouts: Vec<Layout> = module
        .funcs
        .iter()
        .map(|(fid, f)| {
            let clobbers = opts.preserve_masks.as_ref().map(|m| m[fid.index()]);
            Layout::new(f, clobbers, opts.exempt, regs.num_regs())
        })
        .collect();
    // The memory arena, and the offset and length of each global in it.
    let mut mem: Vec<i64> = Vec::new();
    let globals: Vec<(usize, usize)> = module
        .globals
        .values()
        .map(|g| {
            let (at, len) = (mem.len(), g.size as usize);
            mem.resize(at + len, 0);
            for (cell, init) in mem[at..].iter_mut().zip(&g.init) {
                *cell = *init;
            }
            (at, len)
        })
        .collect();

    let mut reg_file = vec![0i64; regs.num_regs()];
    let mut output = Vec::new();
    let mut stats = Stats {
        per_func: vec![FuncStats::default(); module.funcs.len()],
        ..Stats::default()
    };
    // One ledger entry per dynamic call edge: call counts and the
    // save/restore + spill traffic charged to activations the edge created.
    // `callees[f]` maps each callee `f` has called to its ledger index; a
    // function calls few distinct callees, so a scan finds it.
    let mut ledger: Vec<EdgePenalty> = Vec::new();
    let mut callees: Vec<Vec<(FuncId, usize)>> = vec![Vec::new(); module.funcs.len()];
    // Entry values of the preserved registers of every live activation.
    let mut snaps: Vec<i64> = Vec::new();
    let mut profile: Option<Vec<Vec<u64>>> = if opts.collect_block_profile {
        Some(
            module
                .funcs
                .values()
                .map(|f| vec![0u64; f.blocks.len()])
                .collect(),
        )
    } else {
        None
    };

    let mut stack: Vec<Activation> = Vec::new();
    // The current activation, its function, layout and block.
    let mut cur: Activation;
    let mut func: &MFunction;
    let mut lay: &Layout;
    let mut block: &MBlock;

    // Pushes a zeroed frame for `target` and makes it current.
    macro_rules! enter {
        ($target:expr, $args:expr, $nargs:expr, $edge:expr) => {{
            let target: FuncId = $target;
            func = &module.funcs[target];
            lay = &layouts[target.index()];
            let base = mem.len();
            mem.resize(base + lay.size, 0);
            let snap = snaps.len();
            snaps.extend(lay.preserve.iter().map(|r| reg_file[r.index()]));
            cur = Activation {
                func: target,
                block: func.entry,
                ip: 0,
                base,
                args: $args,
                nargs: $nargs,
                snap,
                edge: $edge,
            };
            block = &func.blocks[cur.block];
            stats.record_depth(stack.len() + 1);
            if let Some(p) = profile.as_mut() {
                p[target.index()][cur.block.index()] += 1;
            }
        }};
    }

    // Cycles are attributed to the currently-executing activation, so the
    // call cost lands on the caller and the return cost on the callee.
    macro_rules! charge {
        ($n:expr) => {{
            let n = $n;
            stats.cycles += n;
            stats.per_func[cur.func.index()].cycles += n;
            if stats.cycles > opts.fuel {
                return Err(SimTrap::OutOfFuel);
            }
        }};
    }

    // The ledger entry of the current activation's edge.
    macro_rules! edge {
        () => {{
            if cur.edge == NO_EDGE {
                cur.edge = ledger.len();
                ledger.push(EdgePenalty {
                    caller: ROOT_CALLER,
                    callee: cur.func.0,
                    ..EdgePenalty::default()
                });
            }
            &mut ledger[cur.edge]
        }};
    }

    enter!(main, 0, 0, NO_EDGE);
    loop {
        if let Some(inst) = block.insts.get(cur.ip) {
            cur.ip += 1;
            stats.insts += 1;
            stats.per_func[cur.func.index()].insts += 1;

            match inst {
                MInst::Copy { dst, src } => {
                    charge!(opts.cost.alu);
                    reg_file[dst.index()] = value(&reg_file, *src);
                }
                MInst::Bin { op, dst, lhs, rhs } => {
                    charge!(opts.cost.bin_op(*op));
                    let a = value(&reg_file, *lhs);
                    let b = value(&reg_file, *rhs);
                    reg_file[dst.index()] = op.eval(a, b).ok_or(SimTrap::DivideByZero)?;
                }
                MInst::Un { op, dst, src } => {
                    charge!(opts.cost.alu);
                    reg_file[dst.index()] = op.eval(value(&reg_file, *src));
                }
                MInst::Load { dst, addr, class } => {
                    charge!(opts.cost.load);
                    stats.count_load(*class);
                    stats.per_func[cur.func.index()].count_load(*class);
                    match class {
                        MemClass::SaveRestore => {
                            let e = edge!();
                            e.sr_loads += 1;
                            e.penalty_cycles += opts.cost.load;
                        }
                        MemClass::Spill => edge!().spill_loads += 1,
                        _ => {}
                    }
                    let at = resolve(module, &globals, lay, &cur, &reg_file, *addr, false)?;
                    reg_file[dst.index()] = mem[at];
                }
                MInst::Store { src, addr, class } => {
                    charge!(opts.cost.store);
                    stats.count_store(*class);
                    stats.per_func[cur.func.index()].count_store(*class);
                    match class {
                        MemClass::SaveRestore => {
                            let e = edge!();
                            e.sr_stores += 1;
                            e.penalty_cycles += opts.cost.store;
                        }
                        MemClass::Spill => edge!().spill_stores += 1,
                        _ => {}
                    }
                    let v = value(&reg_file, *src);
                    let at = resolve(module, &globals, lay, &cur, &reg_file, *addr, true)?;
                    mem[at] = v;
                }
                MInst::Call {
                    callee,
                    num_stack_args,
                } => {
                    charge!(opts.cost.call);
                    stats.calls += 1;
                    stats.per_func[cur.func.index()].calls += 1;
                    let target = match callee {
                        MCallee::Direct(id) => *id,
                        MCallee::Indirect(t) => {
                            let raw = value(&reg_file, *t);
                            if raw < 0 || raw as usize >= module.funcs.len() {
                                return Err(SimTrap::BadIndirectTarget(raw));
                            }
                            FuncId(raw as u32)
                        }
                    };
                    // The first cells of the caller's outgoing area are the
                    // callee's incoming stack arguments.
                    let nargs = *num_stack_args as usize;
                    if nargs > lay.outgoing_len {
                        return Err(SimTrap::OutOfBounds {
                            what: "outgoing-argument area".into(),
                            index: nargs as i64 - 1,
                        });
                    }
                    if stack.len() + 1 >= opts.max_depth {
                        return Err(SimTrap::StackOverflow);
                    }
                    let edge = edge_index(&mut callees, &mut ledger, cur.func, target);
                    ledger[edge].calls += 1;
                    let args = cur.base + lay.outgoing;
                    stack.push(cur);
                    enter!(target, args, nargs, edge);
                }
                MInst::FuncAddr { dst, func: f } => {
                    charge!(opts.cost.alu);
                    reg_file[dst.index()] = f.index() as i64;
                }
                MInst::Print { arg } => {
                    charge!(opts.cost.print);
                    output.push(value(&reg_file, *arg));
                }
            }
        } else {
            stats.insts += 1;
            stats.per_func[cur.func.index()].insts += 1;
            let target = match block.term {
                MTerminator::Br(t) => t,
                MTerminator::CondBr {
                    cond,
                    then_to,
                    else_to,
                } => {
                    if value(&reg_file, cond) != 0 {
                        then_to
                    } else {
                        else_to
                    }
                }
                MTerminator::Ret => {
                    charge!(opts.cost.ret);
                    for (&reg, &before) in lay.preserve.iter().zip(&snaps[cur.snap..]) {
                        let after = reg_file[reg.index()];
                        if after != before {
                            return Err(SimTrap::ConventionViolation {
                                func: func.name.clone(),
                                reg,
                                before,
                                after,
                            });
                        }
                    }
                    snaps.truncate(cur.snap);
                    mem.truncate(cur.base);
                    let Some(parent) = stack.pop() else {
                        break;
                    };
                    cur = parent;
                    func = &module.funcs[cur.func];
                    lay = &layouts[cur.func.index()];
                    block = &func.blocks[cur.block];
                    continue;
                }
            };
            charge!(opts.cost.branch);
            cur.block = target;
            cur.ip = 0;
            block = &func.blocks[target];
            if let Some(p) = profile.as_mut() {
                p[cur.func.index()][target.index()] += 1;
            }
        }
    }

    // ROOT_CALLER is u32::MAX, so plain (caller, callee) order puts the
    // entry edge last.
    ledger.sort_unstable_by_key(|e| (e.caller, e.callee));
    stats.call_edges = ledger
        .iter()
        .filter(|e| e.calls > 0)
        .map(|e| (e.caller, e.callee, e.calls))
        .collect();
    stats.edge_penalty = ledger;
    Ok(SimResult {
        output,
        return_value: reg_file[regs.ret_reg().index()],
        stats,
        block_profile: profile,
    })
}

fn value(regs: &[i64], o: MOperand) -> i64 {
    match o {
        MOperand::Reg(r) => regs[r.index()],
        MOperand::Imm(i) => i,
    }
}

/// Ledger index of the call edge `caller -> callee`, appending a fresh
/// entry the first time the edge is taken.
fn edge_index(
    callees: &mut [Vec<(FuncId, usize)>],
    ledger: &mut Vec<EdgePenalty>,
    caller: FuncId,
    callee: FuncId,
) -> usize {
    let known = &mut callees[caller.index()];
    if let Some(&(_, i)) = known.iter().find(|(f, _)| *f == callee) {
        return i;
    }
    let i = ledger.len();
    ledger.push(EdgePenalty {
        caller: caller.0,
        callee: callee.0,
        ..EdgePenalty::default()
    });
    known.push((callee, i));
    i
}

/// The arena cell `addr` names for the current activation, or the trap an
/// access outside its object raises.
fn resolve(
    module: &MModule,
    globals: &[(usize, usize)],
    lay: &Layout,
    cur: &Activation,
    regs: &[i64],
    addr: MAddress,
    write: bool,
) -> Result<usize, SimTrap> {
    match addr {
        MAddress::Global { global, index } => {
            let (at, len) = globals[global.index()];
            cell(at, len, value(regs, index), || {
                format!("global `{}`", module.globals[global].name)
            })
        }
        MAddress::Frame { slot, index } => {
            let (at, len) = lay.slots[slot.index()];
            cell(cur.base + at, len, value(regs, index), || {
                format!("frame slot {slot}")
            })
        }
        MAddress::Incoming(i) if write => Err(SimTrap::OutOfBounds {
            what: "incoming arguments (write)".into(),
            index: i.into(),
        }),
        MAddress::Incoming(i) => cell(cur.args, cur.nargs, i.into(), || {
            "incoming arguments".into()
        }),
        MAddress::Outgoing(i) => cell(cur.base + lay.outgoing, lay.outgoing_len, i.into(), || {
            "outgoing arguments".into()
        }),
    }
}

/// Cell `i` of the `len`-cell object at `at`, or an out-of-bounds trap
/// naming the object.
fn cell(at: usize, len: usize, i: i64, what: impl FnOnce() -> String) -> Result<usize, SimTrap> {
    if i < 0 || i as usize >= len {
        return Err(SimTrap::OutOfBounds {
            what: what(),
            index: i,
        });
    }
    Ok(at + i as usize)
}
