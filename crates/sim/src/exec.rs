//! The machine-code simulator.
//!
//! Executes an [`MModule`] against one *global* register file — essential
//! for this reproduction, because the entire subject of the paper is what
//! happens to shared registers at procedure boundaries. A register that a
//! callee clobbers without saving is really clobbered for the caller here.
//!
//! [`run`] first decodes the module into one flat array of ops, then
//! executes it. Decoding resolves everything that is the same on every
//! visit: operands become indices into one value file (the registers,
//! then the immediates), addresses carry their object's arena offset and
//! length, branches name op indices, a function address becomes an
//! immediate, and a compare whose result the block's `CondBr` tests
//! becomes one op that also branches. Statistics are charged per
//! *segment*, a block's ops up to and including the next call or the
//! terminator: entering a segment charges its cycles against the fuel,
//! counts it once, and charges its save/restore and spill traffic to the
//! activation's call edge. Everything else in [`Stats`] is derived from
//! the segment counts, and the depth histogram from the activations
//! counted per depth, when the run ends.
//!
//! The convention check compares only what an activation can change.
//! Decoding closes each function's written registers over its callees,
//! and a function that cannot write any register it must preserve takes
//! no snapshot on entry and no check on return.

use std::collections::HashMap;
use std::fmt;

use ipra_ir::{BinOp, BlockId, FuncId, GlobalId, UnOp};
use ipra_machine::{
    CostModel, FrameSlotId, MAddress, MCallee, MInst, MModule, MOperand, MTerminator, MemClass,
    PReg, RegFile, RegMask,
};

use crate::stats::{class_index, EdgePenalty, FuncStats, Stats, ROOT_CALLER};

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

/// Index into the value file: the registers, then the run's immediates.
type Val = u32;

/// Register slots at the start of the value file: as many as a
/// [`RegMask`] can name, whatever the target uses.
const NUM_REGS: usize = 32;

/// The register part of the value file.
type Regs = [i64; NUM_REGS];

/// The object an address selects an element of, and how a trap names it.
#[derive(Clone, Copy)]
enum Region {
    /// A global, at a fixed arena offset.
    Global(GlobalId),
    /// A frame slot, relative to the frame base.
    Slot(FrameSlotId),
    /// The outgoing-argument area, relative to the frame base.
    Outgoing,
}

/// A decoded address: element `vals[index]` of the `len`-cell object at
/// offset `at` from the region's base.
#[derive(Clone, Copy)]
struct Addr {
    region: Region,
    at: u32,
    len: u32,
    index: Val,
}

/// The operands of a binary op: `vals[dst] = vals[lhs] op vals[rhs]`.
#[derive(Clone, Copy)]
struct Bin {
    dst: Val,
    lhs: Val,
    rhs: Val,
}

/// A compare fused with the `CondBr` on its result that ends its block.
#[derive(Clone, Copy)]
struct CmpBr {
    cmp: Bin,
    then_to: u32,
    else_to: u32,
}

impl CmpBr {
    /// Computes the compare `op` into its destination and returns the op
    /// it branches to.
    #[inline(always)]
    fn run(self, op: BinOp, vals: &mut [i64]) -> usize {
        let Bin { dst, lhs, rhs } = self.cmp;
        let v = op
            .eval(vals[lhs as usize], vals[rhs as usize])
            .expect("a compare never traps");
        vals[dst as usize] = v;
        (if v != 0 { self.then_to } else { self.else_to }) as usize
    }
}

/// A decoded instruction or terminator. Every operator has a variant of
/// its own, so the run loop's one `match` also picks the operator.
#[derive(Clone, Copy)]
enum Op {
    /// `vals[dst] = vals[src]`; also a `FuncAddr`, whose function index
    /// is an immediate.
    Copy {
        dst: Val,
        src: Val,
    },
    Add(Bin),
    Sub(Bin),
    Mul(Bin),
    Div(Bin),
    Rem(Bin),
    And(Bin),
    Or(Bin),
    Xor(Bin),
    Shl(Bin),
    Shr(Bin),
    Eq(Bin),
    Ne(Bin),
    Lt(Bin),
    Le(Bin),
    Gt(Bin),
    Ge(Bin),
    /// A compare fused with the `CondBr` on its result that follows it:
    /// it writes the result and branches, at the compare's cost. The
    /// `CondBr` keeps its own op, which the run never reaches.
    EqBr(CmpBr),
    NeBr(CmpBr),
    LtBr(CmpBr),
    LeBr(CmpBr),
    GtBr(CmpBr),
    GeBr(CmpBr),
    Neg {
        dst: Val,
        src: Val,
    },
    Not {
        dst: Val,
        src: Val,
    },
    Load {
        dst: Val,
        addr: Addr,
    },
    Store {
        src: Val,
        addr: Addr,
    },
    /// `vals[dst] =` incoming stack argument `index`.
    LoadArg {
        dst: Val,
        index: u32,
    },
    /// A store to incoming stack argument `index`, which always traps.
    StoreArg {
        index: u32,
    },
    Print {
        arg: Val,
    },
    /// A direct call, over the ledger edge decoding assigned it.
    Call {
        func: u32,
        edge: u32,
        nargs: u32,
    },
    CallIndirect {
        target: Val,
        nargs: u32,
    },
    Br {
        to: u32,
    },
    CondBr {
        cond: Val,
        then_to: u32,
        else_to: u32,
    },
    Ret,
}

impl Op {
    /// The op computing `op` over `b`.
    fn bin(op: BinOp, b: Bin) -> Op {
        match op {
            BinOp::Add => Op::Add(b),
            BinOp::Sub => Op::Sub(b),
            BinOp::Mul => Op::Mul(b),
            BinOp::Div => Op::Div(b),
            BinOp::Rem => Op::Rem(b),
            BinOp::And => Op::And(b),
            BinOp::Or => Op::Or(b),
            BinOp::Xor => Op::Xor(b),
            BinOp::Shl => Op::Shl(b),
            BinOp::Shr => Op::Shr(b),
            BinOp::Eq => Op::Eq(b),
            BinOp::Ne => Op::Ne(b),
            BinOp::Lt => Op::Lt(b),
            BinOp::Le => Op::Le(b),
            BinOp::Gt => Op::Gt(b),
            BinOp::Ge => Op::Ge(b),
        }
    }

    /// The operator and operands of a binary op; a fused compare's are
    /// those of its compare.
    fn as_bin(self) -> Option<(BinOp, Bin)> {
        Some(match self {
            Op::Add(b) => (BinOp::Add, b),
            Op::Sub(b) => (BinOp::Sub, b),
            Op::Mul(b) => (BinOp::Mul, b),
            Op::Div(b) => (BinOp::Div, b),
            Op::Rem(b) => (BinOp::Rem, b),
            Op::And(b) => (BinOp::And, b),
            Op::Or(b) => (BinOp::Or, b),
            Op::Xor(b) => (BinOp::Xor, b),
            Op::Shl(b) => (BinOp::Shl, b),
            Op::Shr(b) => (BinOp::Shr, b),
            Op::Eq(b) | Op::EqBr(CmpBr { cmp: b, .. }) => (BinOp::Eq, b),
            Op::Ne(b) | Op::NeBr(CmpBr { cmp: b, .. }) => (BinOp::Ne, b),
            Op::Lt(b) | Op::LtBr(CmpBr { cmp: b, .. }) => (BinOp::Lt, b),
            Op::Le(b) | Op::LeBr(CmpBr { cmp: b, .. }) => (BinOp::Le, b),
            Op::Gt(b) | Op::GtBr(CmpBr { cmp: b, .. }) => (BinOp::Gt, b),
            Op::Ge(b) | Op::GeBr(CmpBr { cmp: b, .. }) => (BinOp::Ge, b),
            _ => return None,
        })
    }

    /// Fuses this op with a `CondBr` on `cond` to `then_to` or `else_to`
    /// when it is a compare whose result `cond` is.
    fn fuse(&mut self, cond: Val, then_to: u32, else_to: u32) {
        let Some((op, cmp)) = self.as_bin().filter(|(_, b)| b.dst == cond) else {
            return;
        };
        let c = CmpBr {
            cmp,
            then_to,
            else_to,
        };
        *self = match op {
            BinOp::Eq => Op::EqBr(c),
            BinOp::Ne => Op::NeBr(c),
            BinOp::Lt => Op::LtBr(c),
            BinOp::Le => Op::LeBr(c),
            BinOp::Gt => Op::GtBr(c),
            BinOp::Ge => Op::GeBr(c),
            _ => return,
        };
    }

    /// Cycles the op costs under `cost`.
    fn cost(self, cost: &CostModel) -> u64 {
        match self {
            Op::Copy { .. } | Op::Neg { .. } | Op::Not { .. } => cost.alu,
            Op::Load { .. } | Op::LoadArg { .. } => cost.load,
            Op::Store { .. } | Op::StoreArg { .. } => cost.store,
            Op::Print { .. } => cost.print,
            Op::Call { .. } | Op::CallIndirect { .. } => cost.call,
            Op::Br { .. } | Op::CondBr { .. } => cost.branch,
            Op::Ret => cost.ret,
            _ => cost.bin_op(self.as_bin().expect("the remaining ops are binary").0),
        }
    }
}

/// The register `inst` writes, if any.
fn written(inst: &MInst) -> Option<PReg> {
    match *inst {
        MInst::Copy { dst, .. }
        | MInst::Bin { dst, .. }
        | MInst::Un { dst, .. }
        | MInst::Load { dst, .. }
        | MInst::FuncAddr { dst, .. } => Some(dst),
        MInst::Store { .. } | MInst::Call { .. } | MInst::Print { .. } => None,
    }
}

/// Save/restore and spill accesses, as the edge ledger counts them.
#[derive(Clone, Copy, Default)]
struct Traffic {
    sr_loads: u32,
    sr_stores: u32,
    spill_loads: u32,
    spill_stores: u32,
}

impl Traffic {
    /// Counts `inst` if it is a save/restore or spill access.
    fn count(&mut self, inst: &MInst) {
        match *inst {
            MInst::Load {
                class: MemClass::SaveRestore,
                ..
            } => self.sr_loads += 1,
            MInst::Store {
                class: MemClass::SaveRestore,
                ..
            } => self.sr_stores += 1,
            MInst::Load {
                class: MemClass::Spill,
                ..
            } => self.spill_loads += 1,
            MInst::Store {
                class: MemClass::Spill,
                ..
            } => self.spill_stores += 1,
            _ => {}
        }
    }

    fn is_empty(self) -> bool {
        self.sr_loads | self.sr_stores | self.spill_loads | self.spill_stores == 0
    }
}

/// What entering a segment charges.
#[derive(Clone, Copy, Default)]
struct Seg {
    cycles: u64,
    /// Charged to the current activation's call edge.
    traffic: Traffic,
}

impl Seg {
    /// Enters the segment: charges its cycles against `fuel`, counts the
    /// entry in `count` and charges its traffic to ledger edge `edge`.
    /// Returns false, charging nothing, when the cycles would cross the
    /// fuel.
    #[inline(always)]
    fn charge(
        self,
        fuel: &mut u64,
        count: &mut u64,
        ledger: &mut [EdgePenalty],
        edge: usize,
    ) -> bool {
        if self.cycles > *fuel {
            return false;
        }
        *fuel -= self.cycles;
        *count += 1;
        if !self.traffic.is_empty() {
            let e = &mut ledger[edge];
            e.sr_loads += u64::from(self.traffic.sr_loads);
            e.sr_stores += u64::from(self.traffic.sr_stores);
            e.spill_loads += u64::from(self.traffic.spill_loads);
            e.spill_stores += u64::from(self.traffic.spill_stores);
        }
        true
    }
}

/// Where one function's code and state live. Every activation of a
/// function has the same shape, so this is computed once per run.
struct Func {
    /// Op index of the entry block.
    entry: usize,
    /// Frame size in cells: slots plus outgoing area.
    size: usize,
    /// Offset of the outgoing-argument area, which follows the slots.
    outgoing: usize,
    /// Cells in the outgoing-argument area (`max_outgoing`).
    outgoing_len: usize,
    /// The registers the convention check compares at return: those the
    /// function must preserve that its activations can write (empty
    /// without convention checking). With none, an activation takes no
    /// snapshot.
    check: RegMask,
}

/// One activation. Its frame occupies `mem[base..base + size]`.
#[derive(Clone, Copy)]
struct Frame {
    func: usize,
    /// Op at which this activation resumes once its callee returns.
    ret: usize,
    /// First cell of the frame in the memory arena.
    base: usize,
    /// First cell of the incoming stack arguments: the start of the
    /// caller's outgoing area (the two coincide across the frame boundary
    /// on a real stack).
    args: usize,
    /// Incoming stack arguments: `num_stack_args` of the creating call.
    nargs: usize,
    /// Where this activation's entry register values sit on the snapshot
    /// stack (only when its function's return is checked).
    snap: usize,
    /// Ledger index of the call edge `(caller, callee)` that created this
    /// activation; save/restore and spill traffic executed by the
    /// activation is charged to it.
    edge: usize,
}

impl Frame {
    /// The arena cell `a` names for this activation, or the trap an
    /// access outside its object raises.
    #[inline(always)]
    fn resolve(&self, a: Addr, vals: &[i64], module: &MModule) -> Result<usize, SimTrap> {
        let base = match a.region {
            Region::Global(_) => 0,
            Region::Slot(_) | Region::Outgoing => self.base,
        };
        let i = vals[a.index as usize];
        if i as u64 >= u64::from(a.len) {
            return Err(out_of_bounds(module, a.region, i));
        }
        Ok(base + a.at as usize + i as usize)
    }

    /// The arena cell of incoming stack argument `index`.
    #[inline(always)]
    fn incoming(&self, index: u32) -> Result<usize, SimTrap> {
        let i = index as usize;
        if i >= self.nargs {
            return Err(SimTrap::OutOfBounds {
                what: "incoming arguments".into(),
                index: index.into(),
            });
        }
        Ok(self.args + i)
    }
}

/// Ledger index of the program-entry edge `<entry> -> main`.
const ROOT_EDGE: usize = 0;

/// The memory arena and the call stack.
struct Stack {
    /// The memory arena: the globals, then the frame stack, which each
    /// call extends with a zero-filled frame and each return truncates.
    mem: Vec<i64>,
    /// The suspended activations; the current one is kept apart.
    frames: Vec<Frame>,
    /// The registers at entry of every live activation whose return is
    /// checked, `NUM_REGS` cells each.
    snaps: Vec<i64>,
    /// Indexed by depth: activations entered there (`main` enters at
    /// depth 1). Folded into the depth histogram when the run ends.
    depths: Vec<u64>,
    /// The deepest stack allowed.
    max_depth: usize,
}

impl Stack {
    /// A fresh activation of `funcs[func]` over ledger edge `edge`, whose
    /// `nargs` incoming stack arguments start at arena cell `args`: a
    /// zeroed frame at the end of the arena, a snapshot of `regs` when its
    /// return is checked, and one more activation at its depth.
    #[inline(always)]
    fn enter(
        &mut self,
        funcs: &[Func],
        regs: &Regs,
        func: usize,
        args: usize,
        nargs: usize,
        edge: usize,
    ) -> Frame {
        let f = &funcs[func];
        let base = self.mem.len();
        self.mem.resize(base + f.size, 0);
        let snap = self.snaps.len();
        if !f.check.is_empty() {
            self.snaps.extend_from_slice(regs);
        }
        // Each call goes one deeper than the deepest counted so far at
        // most, so a new depth is always the next slot.
        let depth = self.frames.len() + 1;
        match self.depths.get_mut(depth) {
            Some(n) => *n += 1,
            None => self.depths.push(1),
        }
        Frame {
            func,
            ret: 0,
            base,
            args,
            nargs,
            snap,
            edge,
        }
    }

    /// Calls `funcs[func]` from `cur` over ledger edge `edge` with `nargs`
    /// stack arguments: `cur`, which already names its return op, is
    /// suspended and becomes the callee's fresh activation. Returns the
    /// callee's entry op.
    #[inline(always)]
    fn call(
        &mut self,
        cur: &mut Frame,
        funcs: &[Func],
        regs: &Regs,
        func: usize,
        edge: usize,
        nargs: u32,
    ) -> Result<usize, SimTrap> {
        // The first cells of the caller's outgoing area are the callee's
        // incoming stack arguments.
        let caller = &funcs[cur.func];
        let nargs = nargs as usize;
        if nargs > caller.outgoing_len {
            return Err(SimTrap::OutOfBounds {
                what: "outgoing-argument area".into(),
                index: nargs as i64 - 1,
            });
        }
        if self.frames.len() + 1 >= self.max_depth {
            return Err(SimTrap::StackOverflow);
        }
        let args = cur.base + caller.outgoing;
        self.frames.push(*cur);
        *cur = self.enter(funcs, regs, func, args, nargs, edge);
        Ok(funcs[func].entry)
    }

    /// Returns from `cur`, whose return checks the registers in `check`:
    /// each must still hold its entry value. The whole register file is
    /// compared at once; the lowest changed register in `check` is the
    /// error. Otherwise pops `cur`'s frame and returns the activation to
    /// resume, none after `main`.
    #[inline(always)]
    fn leave(&mut self, cur: &Frame, check: RegMask, regs: &Regs) -> Result<Option<Frame>, PReg> {
        if !check.is_empty() {
            let entry: &Regs = self.snaps[cur.snap..cur.snap + NUM_REGS]
                .try_into()
                .expect("a snapshot holds every register");
            let mut changed = 0u32;
            for (r, (before, after)) in entry.iter().zip(regs).enumerate() {
                changed |= u32::from(before != after) << r;
            }
            if changed & check.0 != 0 {
                return Err(PReg((changed & check.0).trailing_zeros() as u8));
            }
            self.snaps.truncate(cur.snap);
        }
        self.mem.truncate(cur.base);
        Ok(self.frames.pop())
    }

    #[cold]
    fn violation(&self, module: &MModule, cur: Frame, reg: PReg, regs: &Regs) -> SimTrap {
        SimTrap::ConventionViolation {
            func: module.funcs[FuncId(cur.func as u32)].name.clone(),
            reg,
            before: self.snaps[cur.snap + reg.index()],
            after: regs[reg.index()],
        }
    }
}

/// A decoded module and the state of one run over it.
struct Machine<'a> {
    module: &'a MModule,
    opts: &'a SimOptions,
    ops: Vec<Op>,
    /// Indexed by op: the charge of the segment starting there.
    segs: Vec<Seg>,
    funcs: Vec<Func>,
    /// The value file: registers, then immediates.
    vals: Vec<i64>,
    stack: Stack,
    /// One entry per call edge: call counts and the traffic charged to
    /// activations the edge created. Entry 0 is the program-entry edge.
    ledger: Vec<EdgePenalty>,
    /// `callees[f]` maps each callee `f` calls to its ledger index; a
    /// function calls few distinct callees, so a scan finds it.
    callees: Vec<Vec<(usize, usize)>>,
    /// Indexed by op: times the segment starting there was entered.
    counts: Vec<u64>,
    /// Cycles left before the fuel runs out.
    left: u64,
    output: Vec<i64>,
}

/// Runs `main` of a lowered module.
///
/// Nothing is allocated or hashed per call or per instruction once the
/// module is decoded and the arena, the stacks and the ledger have grown.
///
/// # Errors
///
/// Returns the [`SimTrap`] that stopped execution.
pub fn run(module: &MModule, regs: &RegFile, opts: &SimOptions) -> Result<SimResult, SimTrap> {
    let main = module.main.ok_or(SimTrap::NoMain)?;
    let mut m = Machine::decode(module, main, regs, opts);
    m.execute(main)?;
    Ok(m.finish(regs))
}

/// Hands out value-file indices for immediates, one per distinct value.
struct Imms<'v> {
    vals: &'v mut Vec<i64>,
    seen: HashMap<i64, Val>,
}

impl Imms<'_> {
    fn imm(&mut self, v: i64) -> Val {
        *self.seen.entry(v).or_insert_with(|| {
            self.vals.push(v);
            index32(self.vals.len() - 1)
        })
    }

    fn operand(&mut self, o: MOperand) -> Val {
        match o {
            MOperand::Reg(r) => reg(r),
            MOperand::Imm(v) => self.imm(v),
        }
    }
}

/// The value-file index of register `r`.
fn reg(r: PReg) -> Val {
    r.index() as Val
}

/// The register part of the value file.
#[inline(always)]
fn regs(vals: &[i64]) -> &Regs {
    vals[..NUM_REGS]
        .try_into()
        .expect("the value file starts with the registers")
}

/// `n` as a decoded op index, value-file index, arena offset or size.
fn index32(n: usize) -> u32 {
    u32::try_from(n).expect("a module's ops, values and memory fit 32-bit indices")
}

/// The registers an activation of each function can write: the
/// function's own destinations, closed over its direct callees in
/// `callees`. A function that can reach an indirect call can write
/// whatever any function writes.
fn may_write(
    writes: &[RegMask],
    indirect: &[bool],
    callees: &[Vec<(usize, usize)>],
) -> Vec<RegMask> {
    let any = writes.iter().fold(RegMask::EMPTY, |a, &w| a.union(w));
    let mut may: Vec<RegMask> = writes
        .iter()
        .zip(indirect)
        .map(|(&w, &ind)| if ind { any } else { w })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (f, known) in callees.iter().enumerate() {
            let m = known.iter().fold(may[f], |m, &(g, _)| m.union(may[g]));
            changed |= m != may[f];
            may[f] = m;
        }
    }
    may
}

impl<'a> Machine<'a> {
    /// Decodes `module` and lays out its globals, ready to run. Op `i` is
    /// the `i`-th instruction in function, block and instruction order,
    /// with each block's terminator after its instructions.
    fn decode(module: &'a MModule, main: FuncId, regs: &RegFile, opts: &'a SimOptions) -> Self {
        let mut mem = Vec::new();
        let globals: Vec<(u32, u32)> = module
            .globals
            .values()
            .map(|g| {
                let (at, len) = (mem.len(), g.size as usize);
                mem.resize(at + len, 0);
                for (cell, init) in mem[at..].iter_mut().zip(&g.init) {
                    *cell = *init;
                }
                (index32(at), g.size)
            })
            .collect();

        let mut len = 0;
        let starts: Vec<Vec<u32>> = module
            .funcs
            .values()
            .map(|f| {
                f.blocks
                    .values()
                    .map(|b| {
                        let at = index32(len);
                        len += b.insts.len() + 1;
                        at
                    })
                    .collect()
            })
            .collect();

        assert!(regs.num_regs() <= NUM_REGS, "a RegMask names 32 registers");
        let all = RegMask((u64::MAX >> (64 - regs.num_regs())) as u32);
        let mut vals = vec![0; NUM_REGS];
        let mut imms = Imms {
            vals: &mut vals,
            seen: HashMap::new(),
        };
        let mut ops = Vec::with_capacity(len);
        let mut segs = vec![Seg::default(); len];
        let mut funcs = Vec::with_capacity(module.funcs.len());
        let mut ledger = vec![EdgePenalty {
            caller: ROOT_CALLER,
            callee: main.0,
            ..EdgePenalty::default()
        }];
        let mut callees = vec![Vec::new(); module.funcs.len()];
        let mut writes = vec![RegMask::EMPTY; module.funcs.len()];
        let mut indirect = vec![false; module.funcs.len()];
        for (fid, f) in module.funcs.iter() {
            let mut size = 0;
            let slots: Vec<(u32, u32)> = f
                .frame
                .values()
                .map(|s| {
                    let at = index32(size);
                    size += s.size as usize;
                    (at, s.size)
                })
                .collect();
            let (outgoing, outgoing_len) = (index32(size), f.max_outgoing);
            funcs.push(Func {
                entry: starts[fid.index()][f.entry.index()] as usize,
                size: size + outgoing_len as usize,
                outgoing: size,
                outgoing_len: outgoing_len as usize,
                // The registers to preserve; narrowed below to those the
                // activations can write.
                check: match &opts.preserve_masks {
                    Some(masks) => RegMask(all.0 & !masks[fid.index()].0 & !opts.exempt.0),
                    None => RegMask::EMPTY,
                },
            });

            let addr = |a: MAddress, imms: &mut Imms| {
                let (region, (at, len), index) = match a {
                    MAddress::Global { global, index } => {
                        (Region::Global(global), globals[global.index()], index)
                    }
                    MAddress::Frame { slot, index } => {
                        (Region::Slot(slot), slots[slot.index()], index)
                    }
                    MAddress::Outgoing(i) => (
                        Region::Outgoing,
                        (outgoing, outgoing_len),
                        MOperand::Imm(i.into()),
                    ),
                    MAddress::Incoming(_) => unreachable!("decoded as LoadArg or StoreArg"),
                };
                let index = imms.operand(index);
                Addr {
                    region,
                    at,
                    len,
                    index,
                }
            };
            let block = |b: BlockId| starts[fid.index()][b.index()];
            for b in f.blocks.values() {
                let start = ops.len();
                let mut seg = start;
                for inst in &b.insts {
                    if let Some(r) = written(inst) {
                        writes[fid.index()].insert(r);
                    }
                    let op = match *inst {
                        MInst::Copy { dst, src } => Op::Copy {
                            dst: reg(dst),
                            src: imms.operand(src),
                        },
                        MInst::Bin { op, dst, lhs, rhs } => Op::bin(
                            op,
                            Bin {
                                dst: reg(dst),
                                lhs: imms.operand(lhs),
                                rhs: imms.operand(rhs),
                            },
                        ),
                        MInst::Un { op, dst, src } => {
                            let (dst, src) = (reg(dst), imms.operand(src));
                            match op {
                                UnOp::Neg => Op::Neg { dst, src },
                                UnOp::Not => Op::Not { dst, src },
                            }
                        }
                        MInst::Load {
                            dst,
                            addr: MAddress::Incoming(index),
                            ..
                        } => Op::LoadArg {
                            dst: reg(dst),
                            index,
                        },
                        MInst::Load { dst, addr: a, .. } => Op::Load {
                            dst: reg(dst),
                            addr: addr(a, &mut imms),
                        },
                        MInst::Store {
                            addr: MAddress::Incoming(index),
                            ..
                        } => Op::StoreArg { index },
                        MInst::Store { src, addr: a, .. } => Op::Store {
                            src: imms.operand(src),
                            addr: addr(a, &mut imms),
                        },
                        MInst::Call {
                            callee: MCallee::Direct(g),
                            num_stack_args: nargs,
                        } => Op::Call {
                            func: g.0,
                            edge: index32(edge_index(
                                &mut callees,
                                &mut ledger,
                                fid.index(),
                                g.index(),
                            )),
                            nargs,
                        },
                        MInst::Call {
                            callee: MCallee::Indirect(t),
                            num_stack_args: nargs,
                        } => {
                            indirect[fid.index()] = true;
                            Op::CallIndirect {
                                target: imms.operand(t),
                                nargs,
                            }
                        }
                        MInst::FuncAddr { dst, func } => Op::Copy {
                            dst: reg(dst),
                            src: imms.imm(func.index() as i64),
                        },
                        MInst::Print { arg } => Op::Print {
                            arg: imms.operand(arg),
                        },
                    };
                    segs[seg].cycles += op.cost(&opts.cost);
                    segs[seg].traffic.count(inst);
                    ops.push(op);
                    if let MInst::Call { .. } = inst {
                        seg = ops.len();
                    }
                }
                let op = match b.term {
                    MTerminator::Ret => Op::Ret,
                    MTerminator::Br(t) => Op::Br { to: block(t) },
                    MTerminator::CondBr {
                        cond,
                        then_to,
                        else_to,
                    } => {
                        let (cond, then_to, else_to) =
                            (imms.operand(cond), block(then_to), block(else_to));
                        if let Some(last) = ops[start..].last_mut() {
                            last.fuse(cond, then_to, else_to);
                        }
                        Op::CondBr {
                            cond,
                            then_to,
                            else_to,
                        }
                    }
                };
                segs[seg].cycles += op.cost(&opts.cost);
                ops.push(op);
            }
        }
        for (f, may) in funcs
            .iter_mut()
            .zip(may_write(&writes, &indirect, &callees))
        {
            f.check = f.check.intersect(may);
        }

        Machine {
            module,
            opts,
            counts: vec![0; ops.len()],
            ops,
            segs,
            funcs,
            vals,
            stack: Stack {
                mem,
                frames: Vec::new(),
                snaps: Vec::new(),
                depths: vec![0],
                max_depth: opts.max_depth,
            },
            ledger,
            callees,
            left: opts.fuel,
            output: Vec::new(),
        }
    }

    /// Runs `main` to its return. The arms only execute: statistics are
    /// charged where control enters a segment. The loop runs on local
    /// bindings of the machine's vectors, so a store into the value file
    /// forces no reload of the others.
    fn execute(&mut self, main: FuncId) -> Result<(), SimTrap> {
        let Machine {
            module,
            ops,
            segs,
            funcs,
            vals,
            stack,
            ledger,
            callees,
            counts,
            left,
            output,
            ..
        } = self;
        let (ops, segs, funcs) = (ops.as_slice(), segs.as_slice(), funcs.as_slice());
        let (vals, counts) = (vals.as_mut_slice(), counts.as_mut_slice());
        let module: &MModule = module;
        let mut fuel = *left;
        let mut cur = stack.enter(funcs, regs(vals), main.index(), 0, 0, ROOT_EDGE);
        let mut pc = funcs[cur.func].entry;
        // Each pass enters the segment at `pc` and runs its ops; the call
        // or terminator that ends it breaks out with the next one.
        while segs[pc].charge(&mut fuel, &mut counts[pc], ledger, cur.edge) {
            pc = loop {
                match ops[pc] {
                    Op::Copy { dst, src } => vals[dst as usize] = vals[src as usize],
                    Op::Add(b) => bin(vals, BinOp::Add, b)?,
                    Op::Sub(b) => bin(vals, BinOp::Sub, b)?,
                    Op::Mul(b) => bin(vals, BinOp::Mul, b)?,
                    Op::Div(b) => bin(vals, BinOp::Div, b)?,
                    Op::Rem(b) => bin(vals, BinOp::Rem, b)?,
                    Op::And(b) => bin(vals, BinOp::And, b)?,
                    Op::Or(b) => bin(vals, BinOp::Or, b)?,
                    Op::Xor(b) => bin(vals, BinOp::Xor, b)?,
                    Op::Shl(b) => bin(vals, BinOp::Shl, b)?,
                    Op::Shr(b) => bin(vals, BinOp::Shr, b)?,
                    Op::Eq(b) => bin(vals, BinOp::Eq, b)?,
                    Op::Ne(b) => bin(vals, BinOp::Ne, b)?,
                    Op::Lt(b) => bin(vals, BinOp::Lt, b)?,
                    Op::Le(b) => bin(vals, BinOp::Le, b)?,
                    Op::Gt(b) => bin(vals, BinOp::Gt, b)?,
                    Op::Ge(b) => bin(vals, BinOp::Ge, b)?,
                    Op::Neg { dst, src } => vals[dst as usize] = UnOp::Neg.eval(vals[src as usize]),
                    Op::Not { dst, src } => vals[dst as usize] = UnOp::Not.eval(vals[src as usize]),
                    Op::Load { dst, addr } => {
                        vals[dst as usize] = stack.mem[cur.resolve(addr, vals, module)?];
                    }
                    Op::Store { src, addr } => {
                        stack.mem[cur.resolve(addr, vals, module)?] = vals[src as usize];
                    }
                    Op::LoadArg { dst, index } => {
                        vals[dst as usize] = stack.mem[cur.incoming(index)?];
                    }
                    Op::StoreArg { index } => return Err(store_arg(index)),
                    Op::Print { arg } => output.push(vals[arg as usize]),
                    Op::Call { func, edge, nargs } => {
                        ledger[edge as usize].calls += 1;
                        cur.ret = pc + 1;
                        let (func, edge) = (func as usize, edge as usize);
                        break stack.call(&mut cur, funcs, regs(vals), func, edge, nargs)?;
                    }
                    Op::CallIndirect { target, nargs } => {
                        let raw = vals[target as usize];
                        if raw < 0 || raw as usize >= funcs.len() {
                            return Err(SimTrap::BadIndirectTarget(raw));
                        }
                        let func = raw as usize;
                        let edge = edge_index(callees, ledger, cur.func, func);
                        ledger[edge].calls += 1;
                        cur.ret = pc + 1;
                        break stack.call(&mut cur, funcs, regs(vals), func, edge, nargs)?;
                    }
                    Op::Br { to } => break to as usize,
                    Op::CondBr {
                        cond,
                        then_to,
                        else_to,
                    } => {
                        break (if vals[cond as usize] != 0 {
                            then_to
                        } else {
                            else_to
                        }) as usize
                    }
                    Op::EqBr(c) => break c.run(BinOp::Eq, vals),
                    Op::NeBr(c) => break c.run(BinOp::Ne, vals),
                    Op::LtBr(c) => break c.run(BinOp::Lt, vals),
                    Op::LeBr(c) => break c.run(BinOp::Le, vals),
                    Op::GtBr(c) => break c.run(BinOp::Gt, vals),
                    Op::GeBr(c) => break c.run(BinOp::Ge, vals),
                    Op::Ret => match stack.leave(&cur, funcs[cur.func].check, regs(vals)) {
                        Ok(Some(parent)) => {
                            cur = parent;
                            break cur.ret;
                        }
                        Ok(None) => {
                            *left = fuel;
                            return Ok(());
                        }
                        Err(reg) => return Err(stack.violation(module, cur, reg, regs(vals))),
                    },
                }
                pc += 1;
            };
        }
        *left = fuel;
        self.replay(pc, cur)
    }

    /// Executes the segment at `pc` one op at a time, charging each op
    /// before it runs, up to the first trap: one an op raises, or
    /// `OutOfFuel` at the op whose charge crosses the fuel. The segment's
    /// total crosses, so that op is at the latest its call or terminator,
    /// and no control op ever executes here; a fused compare runs as its
    /// plain compare. Never returns `Ok`.
    ///
    /// Like [`Stack::violation`], it takes the activation by value: a
    /// reference would let the run loop's current frame escape, and the
    /// loop would then keep that frame in memory instead of in registers.
    #[cold]
    #[inline(never)]
    fn replay(&mut self, mut pc: usize, cur: Frame) -> Result<(), SimTrap> {
        let (vals, mem) = (&mut self.vals, &mut self.stack.mem);
        loop {
            let op = self.ops[pc];
            let cost = op.cost(&self.opts.cost);
            if cost > self.left {
                return Err(SimTrap::OutOfFuel);
            }
            self.left -= cost;
            match op {
                Op::Copy { dst, src } => vals[dst as usize] = vals[src as usize],
                Op::Neg { dst, src } => vals[dst as usize] = UnOp::Neg.eval(vals[src as usize]),
                Op::Not { dst, src } => vals[dst as usize] = UnOp::Not.eval(vals[src as usize]),
                Op::Load { dst, addr } => {
                    vals[dst as usize] = mem[cur.resolve(addr, vals, self.module)?];
                }
                Op::Store { src, addr } => {
                    mem[cur.resolve(addr, vals, self.module)?] = vals[src as usize];
                }
                Op::LoadArg { dst, index } => vals[dst as usize] = mem[cur.incoming(index)?],
                Op::StoreArg { index } => return Err(store_arg(index)),
                Op::Print { arg } => self.output.push(vals[arg as usize]),
                Op::Call { .. }
                | Op::CallIndirect { .. }
                | Op::Br { .. }
                | Op::CondBr { .. }
                | Op::Ret => unreachable!("the segment's total did not cross the fuel"),
                _ => {
                    let (op, b) = op.as_bin().expect("the remaining ops are binary");
                    bin(vals, op, b)?
                }
            }
            pc += 1;
        }
    }

    /// Derives the statistics and the block profile from the segment
    /// counts, walking the module in decoding order.
    fn finish(self, regs: &RegFile) -> SimResult {
        let cost = &self.opts.cost;
        let mut per_func = vec![FuncStats::default(); self.module.funcs.len()];
        let mut profile: Option<Vec<Vec<u64>>> = self.opts.collect_block_profile.then(|| {
            self.module
                .funcs
                .values()
                .map(|f| vec![0; f.blocks.len()])
                .collect()
        });
        let mut pc = 0;
        for (fid, f) in self.module.funcs.iter() {
            let fs = &mut per_func[fid.index()];
            for (bid, b) in f.blocks.iter() {
                // Times the segment holding op `pc` ran.
                let mut n = self.counts[pc];
                if let Some(p) = profile.as_mut() {
                    p[fid.index()][bid.index()] = n;
                }
                for inst in &b.insts {
                    fs.insts += n;
                    fs.cycles += n * self.ops[pc].cost(cost);
                    pc += 1;
                    match *inst {
                        MInst::Load { class, .. } => fs.loads_by_class[class_index(class)] += n,
                        MInst::Store { class, .. } => fs.stores_by_class[class_index(class)] += n,
                        MInst::Call { .. } => {
                            fs.calls += n;
                            n = self.counts[pc];
                        }
                        _ => {}
                    }
                }
                fs.insts += n;
                fs.cycles += n * self.ops[pc].cost(cost);
                pc += 1;
            }
        }

        let mut stats = Stats::default();
        for (depth, &n) in self.stack.depths.iter().enumerate() {
            stats.depth_hist.observe_n(depth as u64, n);
        }
        for f in &per_func {
            stats.cycles += f.cycles;
            stats.insts += f.insts;
            stats.calls += f.calls;
            for c in 0..4 {
                stats.loads_by_class[c] += f.loads_by_class[c];
                stats.stores_by_class[c] += f.stores_by_class[c];
            }
        }
        debug_assert_eq!(stats.cycles, self.opts.fuel - self.left);
        stats.per_func = per_func;

        // Edges decoding assigned but the run never took carry nothing;
        // the entry edge stays only if `main` itself moved traffic.
        let mut ledger = self.ledger;
        ledger.retain(|e| e.calls > 0 || e.save_restore_mem() + e.spill_mem() > 0);
        for e in &mut ledger {
            e.penalty_cycles = e.sr_loads * cost.load + e.sr_stores * cost.store;
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
        SimResult {
            output: self.output,
            return_value: self.vals[regs.ret_reg().index()],
            stats,
            block_profile: profile,
        }
    }
}

#[inline(always)]
fn bin(vals: &mut [i64], op: BinOp, Bin { dst, lhs, rhs }: Bin) -> Result<(), SimTrap> {
    let (a, b) = (vals[lhs as usize], vals[rhs as usize]);
    vals[dst as usize] = op.eval(a, b).ok_or(SimTrap::DivideByZero)?;
    Ok(())
}

#[cold]
fn out_of_bounds(module: &MModule, region: Region, index: i64) -> SimTrap {
    let what = match region {
        Region::Global(g) => format!("global `{}`", module.globals[g].name),
        Region::Slot(s) => format!("frame slot {s}"),
        Region::Outgoing => "outgoing arguments".into(),
    };
    SimTrap::OutOfBounds { what, index }
}

/// The trap a store to incoming stack argument `index` raises.
#[cold]
fn store_arg(index: u32) -> SimTrap {
    SimTrap::OutOfBounds {
        what: "incoming arguments (write)".into(),
        index: index.into(),
    }
}

/// Ledger index of the call edge `caller -> callee`, appending a fresh
/// entry the first time the edge is seen.
fn edge_index(
    callees: &mut [Vec<(usize, usize)>],
    ledger: &mut Vec<EdgePenalty>,
    caller: usize,
    callee: usize,
) -> usize {
    let known = &mut callees[caller];
    if let Some(&(_, i)) = known.iter().find(|(f, _)| *f == callee) {
        return i;
    }
    let i = ledger.len();
    ledger.push(EdgePenalty {
        caller: caller as u32,
        callee: callee as u32,
        ..EdgePenalty::default()
    });
    known.push((callee, i));
    i
}
