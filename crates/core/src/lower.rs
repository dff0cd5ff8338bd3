//! Lowering: IR + allocation → machine code.
//!
//! Makes every cost of the paper explicit as instructions: home-slot loads
//! and stores for memory-resident variables, callee-saved saves/restores at
//! their planned positions, caller-saved saves/restores around calls,
//! parameter moves (through a parallel-move resolver), stack-argument
//! traffic, split-range boundary transfers and the link-register protocol.

use std::collections::HashMap;

use ipra_ir::{
    Address, BlockId, Callee, EntityVec, Function, Inst, InstLoc, Module, Operand, SlotId,
    Terminator, Vreg,
};
use ipra_machine::{
    FrameSlot, FrameSlotId, MAddress, MBlock, MCallee, MFunction, MInst, MOperand, MTerminator,
    MemClass, PReg, SlotPurpose, Target,
};

use crate::alloc::FuncArtifacts;
use crate::color::VregLoc;
use crate::parmove::{resolve_parallel_moves_into, MoveSrc};
use crate::scratch::{CompileScratch, MoveScratch};
use crate::summary::ParamLoc;

struct Lowerer<'a> {
    module: &'a Module,
    func: &'a Function,
    target: &'a Target,
    art: &'a FuncArtifacts,
    frame: EntityVec<FrameSlotId, FrameSlot>,
    home: Vec<Option<FrameSlotId>>,
    array_slots: HashMap<SlotId, FrameSlotId>,
    local_save_slots: HashMap<PReg, FrameSlotId>,
    call_save_slots: HashMap<PReg, FrameSlotId>,
    ra_slot: Option<FrameSlotId>,
    call_plan_at: HashMap<InstLoc, usize>,
    is_leaf: bool,
    /// Split boundary ops per block.
    boundary_loads: Vec<Vec<(Vreg, PReg)>>,
    boundary_stores: Vec<Vec<(Vreg, PReg)>>,
}

/// Lowers one function, resolving its parallel moves out of the caller's
/// [`CompileScratch`] worklists.
pub fn lower_function_with(
    module: &Module,
    func: &Function,
    target: &Target,
    art: &FuncArtifacts,
    scratch: &mut CompileScratch,
) -> MFunction {
    let mut lw = Lowerer::new(module, func, target, art);
    lw.plan_boundaries();
    lw.run(&mut scratch.moves)
}

impl<'a> Lowerer<'a> {
    fn new(
        module: &'a Module,
        func: &'a Function,
        target: &'a Target,
        art: &'a FuncArtifacts,
    ) -> Self {
        let mut frame = EntityVec::new();
        let nv = func.num_vregs();

        // Home slots for memory-resident (or split) vregs.
        let mut home = vec![None; nv];
        for (v, slot) in home.iter_mut().enumerate() {
            let vr = Vreg(v as u32);
            if art.alloc.assignment.needs_home(vr) && art.ranges.ranges[v].num_refs > 0 {
                *slot = Some(
                    frame.push(FrameSlot {
                        size: 1,
                        purpose: SlotPurpose::Home,
                        label: func
                            .vreg_name(vr)
                            .map(|n| format!("home_{n}"))
                            .unwrap_or_else(|| format!("home_{vr}")),
                    }),
                );
            }
        }

        // Local arrays.
        //
        // Determinism: the slot maps below are HashMaps, but they are
        // populated from deterministic sources (entity-id order, RegMask
        // iteration, call-plan order) and only ever read by keyed lookup —
        // frame-slot numbering comes from the insertion loops, never from
        // map iteration.
        let mut array_slots = HashMap::new();
        for (id, s) in func.slots.iter() {
            array_slots.insert(
                id,
                frame.push(FrameSlot {
                    size: s.size,
                    purpose: SlotPurpose::Array,
                    label: s.name.clone(),
                }),
            );
        }

        // Save areas.
        let mut local_save_slots = HashMap::new();
        for r in art.alloc.locally_saved.iter() {
            local_save_slots.insert(
                r,
                frame.push(FrameSlot {
                    size: 1,
                    purpose: SlotPurpose::Save,
                    label: format!("save_{}", target.regs.name(r)),
                }),
            );
        }
        let mut call_save_slots = HashMap::new();
        for p in &art.alloc.call_plans {
            for r in p.save_around.iter() {
                call_save_slots.entry(r).or_insert_with(|| {
                    frame.push(FrameSlot {
                        size: 1,
                        purpose: SlotPurpose::Save,
                        label: format!("csave_{}", target.regs.name(r)),
                    })
                });
            }
        }

        let is_leaf = func.is_leaf();
        let ra_slot = if is_leaf {
            None
        } else {
            Some(frame.push(FrameSlot {
                size: 1,
                purpose: SlotPurpose::Save,
                label: "save_ra".into(),
            }))
        };

        let call_plan_at = art
            .alloc
            .call_plans
            .iter()
            .enumerate()
            .map(|(i, p)| (p.loc, i))
            .collect();

        let nb = func.num_blocks();
        Lowerer {
            module,
            func,
            target,
            art,
            frame,
            home,
            array_slots,
            local_save_slots,
            call_save_slots,
            ra_slot,
            call_plan_at,
            is_leaf,
            boundary_loads: vec![Vec::new(); nb],
            boundary_stores: vec![Vec::new(); nb],
        }
    }

    fn loc(&self, v: Vreg, b: BlockId) -> VregLoc {
        self.art.alloc.assignment.loc(v, b)
    }

    fn home_addr(&self, v: Vreg) -> MAddress {
        MAddress::slot(self.home[v.index()].expect("memory vreg has a home slot"))
    }

    /// Split-range boundary transfers (see `color`): a register block loads
    /// the home slot at entry when some predecessor holds the value
    /// elsewhere; it stores at exit when a successor will read the home
    /// slot (directly or through its own boundary load).
    fn plan_boundaries(&mut self) {
        let cfg = self.art.cfg();
        let live = self.art.liveness();
        for v in 0..self.func.num_vregs() {
            let vr = Vreg(v as u32);
            if !self.art.alloc.assignment.is_split(vr) {
                continue;
            }
            // Pass 1: loads.
            let mut loads = vec![false; cfg.num_blocks()];
            for &b in &cfg.rpo {
                let bi = b.index();
                if let VregLoc::Reg(r) = self.loc(vr, b) {
                    if live.live_in.contains(bi, v)
                        && cfg
                            .preds(b)
                            .iter()
                            .any(|&p| self.loc(vr, p) != VregLoc::Reg(r))
                    {
                        loads[bi] = true;
                        self.boundary_loads[bi].push((vr, r));
                    }
                }
            }
            // Pass 2: stores.
            for &b in &cfg.rpo {
                let bi = b.index();
                if let VregLoc::Reg(r) = self.loc(vr, b) {
                    let must_store = cfg.succs(b).iter().any(|&s| {
                        live.live_in.contains(s.index(), v)
                            && (self.loc(vr, s) == VregLoc::Mem || loads[s.index()])
                    });
                    if must_store {
                        self.boundary_stores[bi].push((vr, r));
                    }
                }
            }
        }
    }

    /// Materializes an operand for reading inside `b`; memory values load
    /// into `scratch`.
    fn operand(&self, o: Operand, b: BlockId, scratch: PReg, out: &mut Vec<MInst>) -> MOperand {
        match o {
            Operand::Imm(i) => MOperand::Imm(i),
            Operand::Reg(v) => match self.loc(v, b) {
                VregLoc::Reg(r) => MOperand::Reg(r),
                VregLoc::Mem => {
                    out.push(MInst::Load {
                        dst: scratch,
                        addr: self.home_addr(v),
                        class: MemClass::ScalarHome,
                    });
                    MOperand::Reg(scratch)
                }
            },
        }
    }

    /// Address lowering; the index, when memory-resident, loads into
    /// `scratch`.
    fn addr(
        &self,
        a: Address,
        b: BlockId,
        scratch: PReg,
        out: &mut Vec<MInst>,
    ) -> (MAddress, MemClass) {
        match a {
            Address::Global { global, index } => {
                let idx = self.operand(index, b, scratch, out);
                let class = if self.module.globals[global].is_scalar() {
                    MemClass::ScalarHome
                } else {
                    MemClass::Data
                };
                (MAddress::Global { global, index: idx }, class)
            }
            Address::Stack { slot, index } => {
                let idx = self.operand(index, b, scratch, out);
                (
                    MAddress::Frame {
                        slot: self.array_slots[&slot],
                        index: idx,
                    },
                    MemClass::Data,
                )
            }
        }
    }

    /// Where a definition should be computed, plus the store to emit
    /// afterwards for memory-resident destinations.
    fn def_target(&self, v: Vreg, b: BlockId, scratch: PReg) -> (PReg, Option<MInst>) {
        match self.loc(v, b) {
            VregLoc::Reg(r) => (r, None),
            VregLoc::Mem => (
                scratch,
                Some(MInst::Store {
                    src: MOperand::Reg(scratch),
                    addr: self.home_addr(v),
                    class: MemClass::ScalarHome,
                }),
            ),
        }
    }

    fn prologue(&self, out: &mut Vec<MInst>, ms: &mut MoveScratch) {
        let [s0, _s1] = self.target.regs.scratch();
        let entry = self.func.entry;
        // 1. Planned saves at the entry block are emitted by the caller of
        //    this function (uniform per-block save handling); here we add
        //    the link register and parameter placement.
        if let Some(slot) = self.ra_slot {
            out.push(MInst::Store {
                src: MOperand::Reg(self.target.regs.ra()),
                addr: MAddress::slot(slot),
                class: MemClass::SaveRestore,
            });
        }
        // 2. Parameters going to memory: store their arrival register.
        let mut reg_moves: Vec<(PReg, MoveSrc)> = Vec::new();
        let mut incoming_loads: Vec<MInst> = Vec::new();
        let mut split_fixups: Vec<MInst> = Vec::new();
        for (i, &p) in self.func.params.iter().enumerate() {
            // Dead-on-arrival parameters (unreferenced, or overwritten
            // before any read) need no placement under any convention.
            if self.art.ranges.ranges[p.index()].num_refs == 0
                || !self.art.liveness().is_live_in(entry, p)
            {
                continue;
            }
            let arrival = self.art.alloc.param_locs[i];
            let target_loc = self.loc(p, entry);
            match (arrival, target_loc) {
                (ParamLoc::Reg(ar), VregLoc::Reg(r)) => {
                    if ar != r {
                        reg_moves.push((r, MoveSrc::Reg(ar)));
                    }
                }
                (ParamLoc::Reg(ar), VregLoc::Mem) => {
                    out.push(MInst::Store {
                        src: MOperand::Reg(ar),
                        addr: self.home_addr(p),
                        class: MemClass::ScalarHome,
                    });
                }
                (ParamLoc::Stack(k), VregLoc::Reg(r)) => {
                    incoming_loads.push(MInst::Load {
                        dst: r,
                        addr: MAddress::Incoming(k),
                        class: MemClass::ScalarHome,
                    });
                }
                (ParamLoc::Stack(k), VregLoc::Mem) => {
                    incoming_loads.push(MInst::Load {
                        dst: s0,
                        addr: MAddress::Incoming(k),
                        class: MemClass::ScalarHome,
                    });
                    incoming_loads.push(MInst::Store {
                        src: MOperand::Reg(s0),
                        addr: self.home_addr(p),
                        class: MemClass::ScalarHome,
                    });
                }
                (ParamLoc::Ignored, _) => {}
            }
            // Split parameters must have a current home slot from the start
            // (their register region may be re-entered through a back edge).
            if self.art.alloc.assignment.is_split(p) {
                if let VregLoc::Reg(r) = target_loc {
                    split_fixups.push(MInst::Store {
                        src: MOperand::Reg(r),
                        addr: self.home_addr(p),
                        class: MemClass::Spill,
                    });
                }
            }
        }
        resolve_parallel_moves_into(&reg_moves, s0, ms, out);
        out.extend(incoming_loads);
        out.extend(split_fixups);
    }

    fn lower_call(
        &self,
        loc: InstLoc,
        callee: &Callee,
        args: &[Operand],
        dst: Option<Vreg>,
        out: &mut Vec<MInst>,
        ms: &mut MoveScratch,
    ) {
        let [s0, s1] = self.target.regs.scratch();
        let b = loc.block;
        let plan = &self.art.alloc.call_plans[self.call_plan_at[&loc]];

        // 1. Save live values the call sequence may destroy.
        for r in plan.save_around.iter() {
            out.push(MInst::Store {
                src: MOperand::Reg(r),
                addr: MAddress::slot(self.call_save_slots[&r]),
                class: MemClass::SaveRestore,
            });
        }

        // 2. Stack arguments into the outgoing area.
        for (j, arg) in args.iter().enumerate() {
            if let Some(ParamLoc::Stack(k)) = plan.arg_locs.get(j) {
                let val = self.operand(*arg, b, s0, out);
                out.push(MInst::Store {
                    src: val,
                    addr: MAddress::Outgoing(*k),
                    class: MemClass::ScalarHome,
                });
            }
        }

        // 3. Capture an indirect target in s1 so argument moves cannot
        //    clobber it.
        let m_callee = match callee {
            Callee::Direct(f) => MCallee::Direct(*f),
            Callee::Indirect(t) => {
                let val = self.operand(*t, b, s1, out);
                match val {
                    MOperand::Reg(r) if r != s1 => {
                        out.push(MInst::Copy { dst: s1, src: val });
                        MCallee::Indirect(MOperand::Reg(s1))
                    }
                    other => MCallee::Indirect(other),
                }
            }
        };

        // 4. Register arguments as one parallel move.
        let mut moves: Vec<(PReg, MoveSrc)> = Vec::new();
        for (j, arg) in args.iter().enumerate() {
            if let Some(ParamLoc::Reg(r)) = plan.arg_locs.get(j) {
                let src = match arg {
                    Operand::Imm(i) => MoveSrc::Imm(*i),
                    Operand::Reg(v) => match self.loc(*v, b) {
                        VregLoc::Reg(vr) => MoveSrc::Reg(vr),
                        VregLoc::Mem => MoveSrc::Mem(self.home_addr(*v), MemClass::ScalarHome),
                    },
                };
                moves.push((*r, src));
            }
        }
        resolve_parallel_moves_into(&moves, s0, ms, out);

        // 5. The call itself.
        out.push(MInst::Call {
            callee: m_callee,
            num_stack_args: plan.num_stack_args,
        });

        // 6. Return value.
        if let Some(d) = dst {
            let rv = self.target.regs.ret_reg();
            match self.loc(d, b) {
                VregLoc::Reg(r) => {
                    debug_assert!(
                        !plan.save_around.contains(r),
                        "call result register cannot be a saved-around register"
                    );
                    out.push(MInst::Copy {
                        dst: r,
                        src: MOperand::Reg(rv),
                    });
                }
                VregLoc::Mem => out.push(MInst::Store {
                    src: MOperand::Reg(rv),
                    addr: self.home_addr(d),
                    class: MemClass::ScalarHome,
                }),
            }
        }

        // 7. Restore saved-around values.
        for r in plan.save_around.iter() {
            out.push(MInst::Load {
                dst: r,
                addr: MAddress::slot(self.call_save_slots[&r]),
                class: MemClass::SaveRestore,
            });
        }
    }

    fn lower_inst(&self, loc: InstLoc, inst: &Inst, out: &mut Vec<MInst>, ms: &mut MoveScratch) {
        let [s0, s1] = self.target.regs.scratch();
        let b = loc.block;
        match inst {
            Inst::Copy { dst, src } => {
                let val = self.operand(*src, b, s0, out);
                match self.loc(*dst, b) {
                    VregLoc::Reg(r) => out.push(MInst::Copy { dst: r, src: val }),
                    VregLoc::Mem => out.push(MInst::Store {
                        src: val,
                        addr: self.home_addr(*dst),
                        class: MemClass::ScalarHome,
                    }),
                }
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let l = self.operand(*lhs, b, s0, out);
                let r = self.operand(*rhs, b, s1, out);
                let (t, post) = self.def_target(*dst, b, s0);
                out.push(MInst::Bin {
                    op: *op,
                    dst: t,
                    lhs: l,
                    rhs: r,
                });
                out.extend(post);
            }
            Inst::Un { op, dst, src } => {
                let s = self.operand(*src, b, s1, out);
                let (t, post) = self.def_target(*dst, b, s0);
                out.push(MInst::Un {
                    op: *op,
                    dst: t,
                    src: s,
                });
                out.extend(post);
            }
            Inst::Load { dst, addr } => {
                let (a, class) = self.addr(*addr, b, s1, out);
                let (t, post) = self.def_target(*dst, b, s0);
                out.push(MInst::Load {
                    dst: t,
                    addr: a,
                    class,
                });
                out.extend(post);
            }
            Inst::Store { src, addr } => {
                let val = self.operand(*src, b, s0, out);
                let (a, class) = self.addr(*addr, b, s1, out);
                out.push(MInst::Store {
                    src: val,
                    addr: a,
                    class,
                });
            }
            Inst::Call { callee, args, dst } => self.lower_call(loc, callee, args, *dst, out, ms),
            Inst::FuncAddr { dst, func } => {
                let (t, post) = self.def_target(*dst, b, s0);
                out.push(MInst::FuncAddr {
                    dst: t,
                    func: *func,
                });
                out.extend(post);
            }
            Inst::Print { arg } => {
                let val = self.operand(*arg, b, s0, out);
                out.push(MInst::Print { arg: val });
            }
        }
    }

    fn run(self, ms: &mut MoveScratch) -> MFunction {
        let [s0, _s1] = self.target.regs.scratch();
        let rv = self.target.regs.ret_reg();
        let nb = self.func.num_blocks();
        let mut blocks: Vec<MBlock> = Vec::with_capacity(nb);

        for (bid, block) in self.func.blocks.iter() {
            let bi = bid.index();
            let mut out: Vec<MInst> = Vec::new();

            // Planned callee-saved saves at block entry.
            for r in self.art.alloc.save_plan.save_at[bi].iter() {
                out.push(MInst::Store {
                    src: MOperand::Reg(r),
                    addr: MAddress::slot(self.local_save_slots[&r]),
                    class: MemClass::SaveRestore,
                });
            }
            if bid == self.func.entry {
                self.prologue(&mut out, ms);
            }
            // Split boundary loads.
            for &(v, r) in &self.boundary_loads[bi] {
                out.push(MInst::Load {
                    dst: r,
                    addr: self.home_addr(v),
                    class: MemClass::Spill,
                });
            }

            for (i, inst) in block.insts.iter().enumerate() {
                self.lower_inst(
                    InstLoc {
                        block: bid,
                        inst: i,
                    },
                    inst,
                    &mut out,
                    ms,
                );
            }

            // Split boundary stores.
            for &(v, r) in &self.boundary_stores[bi] {
                out.push(MInst::Store {
                    src: MOperand::Reg(r),
                    addr: self.home_addr(v),
                    class: MemClass::Spill,
                });
            }

            // Return value (before restores clobber registers).
            let restores = self.art.alloc.save_plan.restore_at[bi];
            let term = match &block.term {
                Terminator::Ret(val) => {
                    if let Some(v) = val {
                        let op = self.operand(*v, bid, rv, &mut out);
                        if op != MOperand::Reg(rv) {
                            out.push(MInst::Copy { dst: rv, src: op });
                        }
                    }
                    MTerminator::Ret
                }
                Terminator::Br(t) => MTerminator::Br(*t),
                Terminator::CondBr {
                    cond,
                    then_to,
                    else_to,
                } => {
                    let mut op = self.operand(*cond, bid, s0, &mut out);
                    // A restore below may clobber the condition register.
                    if let MOperand::Reg(r) = op {
                        if restores.contains(r) {
                            out.push(MInst::Copy { dst: s0, src: op });
                            op = MOperand::Reg(s0);
                        }
                    }
                    MTerminator::CondBr {
                        cond: op,
                        then_to: *then_to,
                        else_to: *else_to,
                    }
                }
            };

            // Planned restores at block exit.
            for r in restores.iter() {
                out.push(MInst::Load {
                    dst: r,
                    addr: MAddress::slot(self.local_save_slots[&r]),
                    class: MemClass::SaveRestore,
                });
            }
            // Link register restore at returns.
            if matches!(term, MTerminator::Ret) {
                if let Some(slot) = self.ra_slot {
                    out.push(MInst::Load {
                        dst: self.target.regs.ra(),
                        addr: MAddress::slot(slot),
                        class: MemClass::SaveRestore,
                    });
                }
            }
            blocks.push(MBlock { insts: out, term });
        }

        let max_outgoing = self
            .art
            .alloc
            .call_plans
            .iter()
            .map(|p| p.num_stack_args)
            .max()
            .unwrap_or(0);

        MFunction {
            name: self.func.name.clone(),
            entry: self.func.entry,
            blocks: blocks.into_iter().collect(),
            frame: self.frame,
            num_params: self.func.params.len(),
            max_outgoing,
            is_leaf: self.is_leaf,
        }
    }
}
