//! The per-function verification passes.
//!
//! Everything is derived from the lowered code plus the published
//! summaries — the verifier deliberately does *not* look at the
//! allocator's internal plans, so a bug anywhere between planning and
//! emission is still caught.
//!
//! Pass structure:
//!
//! 1. **Value fixpoint** — a forward symbolic abstract interpretation.
//!    The domain tracks, per physical register and per single-cell
//!    `Save`-purpose frame slot, whether it still holds the entry value of
//!    some register ([`Abs::Entry`]) or something unknown; plus two
//!    must-sets: definitely-initialized registers and definitely-written
//!    outgoing stack cells.
//! 2. **Scan** — with the fixpoint states fixed, each block is walked
//!    once to (a) classify save/restore *events* (a store of a register's
//!    entry value to a save slot, a load of one back), (b) check §4
//!    argument bindings at direct calls, and (c) check preservation at
//!    every `ret`.
//! 3. **Discipline fixpoint** — a must/may "is the entry value currently
//!    saved" dataflow over the classified events, flagging the Fig. 2
//!    path properties (double save, restore without save, write before
//!    save, exit while saved) and the §5 loop constraint.
//! 4. **Liveness** — a backward physical-register liveness fixpoint; at
//!    every call, no register both live across the call and inside the
//!    callee's clobber mask (or the reserved set) may exist.

use std::collections::VecDeque;

use ipra_cfg::{Cfg, Csr, Dominators, LoopInfo};
use ipra_ir::{BlockId, FuncId};
use ipra_machine::{
    FuncSummary, MAddress, MCallee, MFunction, MInst, MModule, MOperand, MTerminator, PReg,
    ParamLoc, RegFile, RegMask, SlotPurpose,
};

use crate::diag::{CheckKind, Violation};

/// Symbolic value: the entry value of register `r`, or anything else.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Abs {
    Entry(PReg),
    Unknown,
}

/// Forward value state at a program point.
#[derive(Clone, PartialEq)]
struct VState {
    /// Per physical register.
    regs: Vec<Abs>,
    /// Per frame slot (only `Save`-purpose single-cell slots are tracked;
    /// the rest stay `Unknown`).
    slots: Vec<Abs>,
    /// Registers definitely written on every path from entry (minus those
    /// deinitialized by an intervening call's clobbers).
    init: RegMask,
    /// Outgoing stack-argument cells definitely written on every path.
    out_init: u64,
}

impl VState {
    /// Pointwise join (toward `Unknown` / set intersection); returns
    /// whether `self` changed.
    fn join_from(&mut self, other: &VState) -> bool {
        let mut changed = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            if *a != *b && *a != Abs::Unknown {
                *a = Abs::Unknown;
                changed = true;
            }
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            if *a != *b && *a != Abs::Unknown {
                *a = Abs::Unknown;
                changed = true;
            }
        }
        let init = self.init.intersect(other.init);
        if init != self.init {
            self.init = init;
            changed = true;
        }
        let oi = self.out_init & other.out_init;
        if oi != self.out_init {
            self.out_init = oi;
            changed = true;
        }
        changed
    }
}

fn eval(st: &VState, op: MOperand) -> Abs {
    match op {
        MOperand::Reg(r) => st.regs[r.index()],
        MOperand::Imm(_) => Abs::Unknown,
    }
}

/// A save/restore-discipline event, classified from the value states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Event {
    /// Store of `r`'s entry value into a save slot.
    Save(PReg),
    /// Load of `r`'s entry value back from a save slot.
    Restore(PReg),
    /// A write (or call clobber) of a watched register.
    Write(PReg),
}

pub(crate) fn verify_function(
    module: &MModule,
    fid: FuncId,
    regs: &RegFile,
    summaries: &[FuncSummary],
) -> Vec<Violation> {
    let f = &module.funcs[fid];
    let cfg = machine_cfg(f);
    let dom = Dominators::compute(&cfg);
    let loops = LoopInfo::compute(&cfg, &dom);

    // The simulator's exempt set: return value, link register, scratch.
    let mut exempt = RegMask::single(regs.ret_reg());
    exempt.insert(regs.ra());
    for s in regs.scratch() {
        exempt.insert(s);
    }

    // Everything the published clobber mask does not allow us to destroy.
    let clobbers = summaries[fid.index()].clobbers;
    let mut preserved = RegMask::EMPTY;
    for i in 0..regs.num_regs() {
        let r = PReg(i as u8);
        if !clobbers.contains(r) && !exempt.contains(r) {
            preserved.insert(r);
        }
    }
    let watched = preserved | RegMask::single(regs.ra());

    let tracked_slot: Vec<bool> = f
        .frame
        .iter()
        .map(|(_, s)| s.purpose == SlotPurpose::Save && s.size == 1)
        .collect();

    let mut ck = Checker {
        module,
        f,
        fid,
        regs,
        summaries,
        cfg,
        loops,
        exempt,
        watched,
        tracked_slot,
        out: Vec::new(),
    };
    ck.run();
    ck.out
}

/// Rebuilds block structure from the machine terminators.
fn machine_cfg(f: &MFunction) -> Cfg {
    let succs = Csr::build(f.blocks.len(), f.entry, |emit| {
        for (b, blk) in f.blocks.iter() {
            match blk.term {
                MTerminator::Ret => {}
                MTerminator::Br(t) => emit(b.index(), t),
                MTerminator::CondBr {
                    then_to, else_to, ..
                } => {
                    emit(b.index(), then_to);
                    emit(b.index(), else_to);
                }
            }
        }
    });
    Cfg::from_succs(f.entry, succs, |b| {
        matches!(f.blocks[b].term, MTerminator::Ret)
    })
}

struct Checker<'a> {
    module: &'a MModule,
    f: &'a MFunction,
    fid: FuncId,
    regs: &'a RegFile,
    summaries: &'a [FuncSummary],
    cfg: Cfg,
    loops: LoopInfo,
    exempt: RegMask,
    watched: RegMask,
    tracked_slot: Vec<bool>,
    out: Vec<Violation>,
}

impl<'a> Checker<'a> {
    fn run(&mut self) {
        let f = self.f;
        let own = &self.summaries[self.fid.index()];
        if f.num_params != own.param_locs.len() {
            self.violate(
                f.entry,
                None,
                None,
                CheckKind::Contract,
                format!(
                    "function takes {} parameters but its summary binds {}",
                    f.num_params,
                    own.param_locs.len()
                ),
            );
        }
        let states = self.value_fixpoint();
        let events = self.scan(&states);
        self.discipline(&events);
        self.liveness_check();
    }

    fn violate(
        &mut self,
        block: BlockId,
        inst: Option<usize>,
        reg: Option<PReg>,
        kind: CheckKind,
        what: String,
    ) {
        let path = self.path_to(block);
        self.out.push(Violation {
            func: self.f.name.clone(),
            block,
            inst,
            reg,
            kind,
            what,
            path,
        });
    }

    /// Shortest entry → `target` path (the reachability witness).
    fn path_to(&self, target: BlockId) -> Vec<BlockId> {
        let n = self.cfg.num_blocks();
        let mut parent: Vec<Option<BlockId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[self.cfg.entry.index()] = true;
        q.push_back(self.cfg.entry);
        while let Some(b) = q.pop_front() {
            if b == target {
                break;
            }
            for &s in self.cfg.succs(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    parent[s.index()] = Some(b);
                    q.push_back(s);
                }
            }
        }
        let mut path = vec![target];
        let mut cur = target;
        while let Some(p) = parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// What a call to `callee` may destroy, per the published contract.
    fn callee_clobbers(&self, callee: &MCallee) -> RegMask {
        match callee {
            MCallee::Direct(g) => self.summaries[g.index()].clobbers,
            MCallee::Indirect(_) => self.regs.default_clobbers(),
        }
    }

    fn callee_label(&self, callee: &MCallee) -> String {
        match callee {
            MCallee::Direct(g) => format!("`{}`", self.module.funcs[*g].name),
            MCallee::Indirect(_) => "an indirect (default-convention) callee".into(),
        }
    }

    // ---- pass 1: forward value fixpoint -------------------------------

    fn entry_state(&self) -> VState {
        let regs = (0..self.regs.num_regs())
            .map(|i| Abs::Entry(PReg(i as u8)))
            .collect();
        // Only this function's own parameter registers hold meaningful
        // (caller-provided) values at entry.
        let mut init = RegMask::EMPTY;
        for l in &self.summaries[self.fid.index()].param_locs {
            if let ParamLoc::Reg(r) = l {
                init.insert(*r);
            }
        }
        VState {
            regs,
            slots: vec![Abs::Unknown; self.f.frame.len()],
            init,
            out_init: 0,
        }
    }

    fn step(&self, st: &mut VState, inst: &MInst) {
        let set = |st: &mut VState, r: PReg, v: Abs| {
            st.regs[r.index()] = v;
            st.init.insert(r);
        };
        match inst {
            MInst::Copy { dst, src } => {
                let v = eval(st, *src);
                set(st, *dst, v);
            }
            MInst::Bin { dst, .. } | MInst::Un { dst, .. } | MInst::FuncAddr { dst, .. } => {
                set(st, *dst, Abs::Unknown)
            }
            MInst::Load { dst, addr, .. } => {
                let v = match addr {
                    MAddress::Frame {
                        slot,
                        index: MOperand::Imm(0),
                    } if self.tracked_slot[slot.index()] => st.slots[slot.index()],
                    _ => Abs::Unknown,
                };
                set(st, *dst, v);
            }
            MInst::Store { src, addr, .. } => match addr {
                MAddress::Frame { slot, index } if self.tracked_slot[slot.index()] => {
                    st.slots[slot.index()] = if *index == MOperand::Imm(0) {
                        eval(st, *src)
                    } else {
                        Abs::Unknown
                    };
                }
                MAddress::Outgoing(k) if (*k as usize) < 64 => st.out_init |= 1u64 << k,
                _ => {}
            },
            MInst::Call { callee, .. } => {
                let killed = self.callee_clobbers(callee) | self.exempt;
                for r in killed.iter() {
                    st.regs[r.index()] = Abs::Unknown;
                    st.init.remove(r);
                }
                // The call produces the return value.
                st.init.insert(self.regs.ret_reg());
            }
            MInst::Print { .. } => {}
        }
    }

    fn value_fixpoint(&self) -> Vec<Option<VState>> {
        let f = self.f;
        let n = f.blocks.len();
        let mut inn: Vec<Option<VState>> = vec![None; n];
        inn[self.cfg.entry.index()] = Some(self.entry_state());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &self.cfg.rpo {
                let Some(mut st) = inn[b.index()].clone() else {
                    continue;
                };
                for inst in &f.blocks[b].insts {
                    self.step(&mut st, inst);
                }
                for &s in self.cfg.succs(b) {
                    match &mut inn[s.index()] {
                        Some(cur) => {
                            if cur.join_from(&st) {
                                changed = true;
                            }
                        }
                        slot @ None => {
                            *slot = Some(st.clone());
                            changed = true;
                        }
                    }
                }
            }
        }
        inn
    }

    // ---- pass 2: scan (events, arg bindings, ret preservation) --------

    /// Save/restore classification from the symbolic state: a store of
    /// `r`'s still-intact entry value into a save slot is a SAVE of `r`;
    /// a load of a slot holding `r`'s entry value back into `r` is a
    /// RESTORE. Caller-save traffic around calls never qualifies (the
    /// stored value is a live local, not an entry value), so only the
    /// shrink-wrap plan's saves and the link-register protocol classify.
    fn classify(&self, st: &VState, inst: &MInst) -> Option<Event> {
        match inst {
            MInst::Store {
                src: MOperand::Reg(r),
                addr:
                    MAddress::Frame {
                        slot,
                        index: MOperand::Imm(0),
                    },
                ..
            } if self.tracked_slot[slot.index()]
                && self.watched.contains(*r)
                && st.regs[r.index()] == Abs::Entry(*r) =>
            {
                Some(Event::Save(*r))
            }
            MInst::Load {
                dst,
                addr:
                    MAddress::Frame {
                        slot,
                        index: MOperand::Imm(0),
                    },
                ..
            } if self.tracked_slot[slot.index()]
                && self.watched.contains(*dst)
                && st.slots[slot.index()] == Abs::Entry(*dst) =>
            {
                Some(Event::Restore(*dst))
            }
            _ => None,
        }
    }

    fn events_for(&self, st: &VState, inst: &MInst) -> Vec<Event> {
        if let Some(e) = self.classify(st, inst) {
            return vec![e];
        }
        match inst {
            MInst::Copy { dst, .. }
            | MInst::Bin { dst, .. }
            | MInst::Un { dst, .. }
            | MInst::Load { dst, .. }
            | MInst::FuncAddr { dst, .. } => {
                if self.watched.contains(*dst) {
                    vec![Event::Write(*dst)]
                } else {
                    Vec::new()
                }
            }
            MInst::Call { callee, .. } => {
                // A call destroys the link register and everything in the
                // callee's clobber mask.
                let w = (self.callee_clobbers(callee) | RegMask::single(self.regs.ra()))
                    .intersect(self.watched);
                w.iter().map(Event::Write).collect()
            }
            _ => Vec::new(),
        }
    }

    fn scan(&mut self, states: &[Option<VState>]) -> Vec<Vec<(usize, Event)>> {
        let f = self.f;
        let regs = self.regs;
        let n = f.blocks.len();
        let mut events: Vec<Vec<(usize, Event)>> = vec![Vec::new(); n];
        let rpo = self.cfg.rpo.clone();
        for &b in &rpo {
            let Some(mut st) = states[b.index()].clone() else {
                continue;
            };
            for (i, inst) in f.blocks[b].insts.iter().enumerate() {
                for e in self.events_for(&st, inst) {
                    events[b.index()].push((i, e));
                }
                if let MInst::Call {
                    callee: MCallee::Direct(callee),
                    num_stack_args,
                } = inst
                {
                    self.check_args(b, i, *callee, *num_stack_args, &st);
                }
                self.step(&mut st, inst);
            }
            if matches!(f.blocks[b].term, MTerminator::Ret) {
                for r in self.watched.iter() {
                    if st.regs[r.index()] != Abs::Entry(r) {
                        let role = if r == regs.ra() {
                            "the link register"
                        } else {
                            "preserved by the published clobber mask"
                        };
                        self.violate(
                            b,
                            None,
                            Some(r),
                            CheckKind::Preservation,
                            format!(
                                "{} ({role}) may not hold its entry value at return",
                                regs.name(r)
                            ),
                        );
                    }
                }
            }
        }
        events
    }

    /// §4: every register the callee's convention expects an argument in
    /// must be definitely initialized at the call; every stack cell must
    /// be written; the staged stack-argument count must agree.
    fn check_args(&mut self, b: BlockId, i: usize, callee: FuncId, nstack: u32, st: &VState) {
        let summaries = self.summaries;
        let regs = self.regs;
        let name = self.module.funcs[callee].name.clone();
        let s = &summaries[callee.index()];
        if nstack != s.num_stack_args() {
            self.violate(
                b,
                Some(i),
                None,
                CheckKind::ArgBinding,
                format!(
                    "call to `{name}` stages {nstack} stack arguments but its summary expects {}",
                    s.num_stack_args()
                ),
            );
        }
        for (j, l) in s.param_locs.iter().enumerate() {
            match l {
                ParamLoc::Reg(r) => {
                    if !st.init.contains(*r) {
                        self.violate(
                            b,
                            Some(i),
                            Some(*r),
                            CheckKind::ArgBinding,
                            format!(
                                "argument {j} of call to `{name}` travels in {}, which is not \
                                 definitely initialized at the call",
                                regs.name(*r)
                            ),
                        );
                    }
                }
                ParamLoc::Stack(k) => {
                    if (*k as usize) >= 64 || st.out_init & (1u64 << *k) == 0 {
                        self.violate(
                            b,
                            Some(i),
                            None,
                            CheckKind::ArgBinding,
                            format!(
                                "argument {j} of call to `{name}` travels in outgoing stack \
                                 cell {k}, which is not definitely written at the call"
                            ),
                        );
                    }
                }
                ParamLoc::Ignored => {}
            }
        }
    }

    // ---- pass 3: save/restore discipline ------------------------------

    fn discipline(&mut self, events: &[Vec<(usize, Event)>]) {
        let f = self.f;
        let regs = self.regs;
        let rpo = self.cfg.rpo.clone();
        let n = events.len();
        let full = RegMask(u32::MAX);

        let apply = |mut must: RegMask, mut may: RegMask, evs: &[(usize, Event)]| {
            for (_, e) in evs {
                match e {
                    Event::Save(r) => {
                        must.insert(*r);
                        may.insert(*r);
                    }
                    Event::Restore(r) => {
                        must.remove(*r);
                        may.remove(*r);
                    }
                    Event::Write(_) => {}
                }
            }
            (must, may)
        };

        let mut must_in = vec![full; n];
        let mut may_in = vec![RegMask::EMPTY; n];
        must_in[self.cfg.entry.index()] = RegMask::EMPTY;
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let bi = b.index();
                let (mi, yi) = if b == self.cfg.entry {
                    (RegMask::EMPTY, RegMask::EMPTY)
                } else {
                    let mut mi = full;
                    let mut yi = RegMask::EMPTY;
                    for &p in self.cfg.preds(b) {
                        let (mo, yo) =
                            apply(must_in[p.index()], may_in[p.index()], &events[p.index()]);
                        mi = mi.intersect(mo);
                        yi |= yo;
                    }
                    (mi, yi)
                };
                if mi != must_in[bi] || yi != may_in[bi] {
                    must_in[bi] = mi;
                    may_in[bi] = yi;
                    changed = true;
                }
            }
        }

        for &b in &rpo {
            let bi = b.index();
            let in_loop = self.loops.depth(b) > 0;
            let mut must = must_in[bi];
            let mut may = may_in[bi];
            for &(i, e) in &events[bi] {
                match e {
                    Event::Save(r) => {
                        if may.contains(r) {
                            self.violate(
                                b,
                                Some(i),
                                Some(r),
                                CheckKind::SaveDiscipline,
                                format!(
                                    "double save: {} is already saved on some path reaching \
                                     this save (Fig. 2)",
                                    regs.name(r)
                                ),
                            );
                        }
                        if in_loop {
                            self.violate(
                                b,
                                Some(i),
                                Some(r),
                                CheckKind::LoopPlacement,
                                format!("save of {} placed inside a loop (§5)", regs.name(r)),
                            );
                        }
                        must.insert(r);
                        may.insert(r);
                    }
                    Event::Restore(r) => {
                        if !must.contains(r) {
                            self.violate(
                                b,
                                Some(i),
                                Some(r),
                                CheckKind::SaveDiscipline,
                                format!(
                                    "restore of {} without a save on every path to it",
                                    regs.name(r)
                                ),
                            );
                        }
                        if in_loop {
                            self.violate(
                                b,
                                Some(i),
                                Some(r),
                                CheckKind::LoopPlacement,
                                format!("restore of {} placed inside a loop (§5)", regs.name(r)),
                            );
                        }
                        must.remove(r);
                        may.remove(r);
                    }
                    Event::Write(r) => {
                        if !must.contains(r) {
                            self.violate(
                                b,
                                Some(i),
                                Some(r),
                                CheckKind::SaveDiscipline,
                                format!(
                                    "{} is written (or clobbered by a call) without being \
                                     saved on every path first",
                                    regs.name(r)
                                ),
                            );
                        }
                    }
                }
            }
            if matches!(f.blocks[b].term, MTerminator::Ret) {
                for r in may.iter() {
                    self.violate(
                        b,
                        None,
                        Some(r),
                        CheckKind::SaveDiscipline,
                        format!(
                            "function may exit while {} is still saved (missing restore)",
                            regs.name(r)
                        ),
                    );
                }
            }
        }
    }

    // ---- pass 4: live-across-call safety ------------------------------

    fn inst_reads(&self, inst: &MInst) -> RegMask {
        let mut m = RegMask::EMPTY;
        fn op(m: &mut RegMask, o: &MOperand) {
            if let MOperand::Reg(r) = o {
                m.insert(*r);
            }
        }
        fn addr(m: &mut RegMask, a: &MAddress) {
            match a {
                MAddress::Global { index, .. } | MAddress::Frame { index, .. } => op(m, index),
                MAddress::Incoming(_) | MAddress::Outgoing(_) => {}
            }
        }
        match inst {
            MInst::Copy { src, .. } => op(&mut m, src),
            MInst::Bin { lhs, rhs, .. } => {
                op(&mut m, lhs);
                op(&mut m, rhs);
            }
            MInst::Un { src, .. } => op(&mut m, src),
            MInst::Load { addr: a, .. } => addr(&mut m, a),
            MInst::Store { src, addr: a, .. } => {
                op(&mut m, src);
                addr(&mut m, a);
            }
            MInst::Call { callee, .. } => match callee {
                // A call reads exactly the argument registers of the
                // convention in force at the site.
                MCallee::Direct(g) => {
                    for l in &self.summaries[g.index()].param_locs {
                        if let ParamLoc::Reg(r) = l {
                            m.insert(*r);
                        }
                    }
                }
                MCallee::Indirect(t) => op(&mut m, t),
            },
            MInst::FuncAddr { .. } => {}
            MInst::Print { arg } => op(&mut m, arg),
        }
        m
    }

    fn inst_defs(&self, inst: &MInst) -> RegMask {
        match inst {
            MInst::Copy { dst, .. }
            | MInst::Bin { dst, .. }
            | MInst::Un { dst, .. }
            | MInst::Load { dst, .. }
            | MInst::FuncAddr { dst, .. } => RegMask::single(*dst),
            MInst::Store { .. } | MInst::Print { .. } => RegMask::EMPTY,
            MInst::Call { callee, .. } => self.callee_clobbers(callee) | self.exempt,
        }
    }

    fn term_reads(term: &MTerminator) -> RegMask {
        match term {
            MTerminator::CondBr {
                cond: MOperand::Reg(r),
                ..
            } => RegMask::single(*r),
            _ => RegMask::EMPTY,
        }
    }

    fn block_live_out(&self, b: BlockId, live_in: &[RegMask]) -> RegMask {
        let mut live = RegMask::EMPTY;
        for &s in self.cfg.succs(b) {
            live |= live_in[s.index()];
        }
        live | Self::term_reads(&self.f.blocks[b].term)
    }

    fn liveness_check(&mut self) {
        let f = self.f;
        let regs = self.regs;
        let rpo = self.cfg.rpo.clone();
        let n = f.blocks.len();
        let mut live_in = vec![RegMask::EMPTY; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().rev() {
                let mut live = self.block_live_out(b, &live_in);
                for inst in f.blocks[b].insts.iter().rev() {
                    live = RegMask(live.0 & !self.inst_defs(inst).0) | self.inst_reads(inst);
                }
                if live != live_in[b.index()] {
                    live_in[b.index()] = live;
                    changed = true;
                }
            }
        }

        let rv = self.regs.ret_reg();
        for &b in &rpo {
            let mut live = self.block_live_out(b, &live_in);
            for (i, inst) in f.blocks[b].insts.iter().enumerate().rev() {
                if let MInst::Call { callee, .. } = inst {
                    // Live-across values: live after the call, minus the
                    // value the call itself produces. None may sit in a
                    // register the contract lets the call destroy.
                    let across = RegMask(live.0 & !RegMask::single(rv).0);
                    let bad = across.intersect(self.callee_clobbers(callee) | self.exempt);
                    for r in bad.iter() {
                        let label = self.callee_label(callee);
                        self.violate(
                            b,
                            Some(i),
                            Some(r),
                            CheckKind::LiveAcrossCall,
                            format!(
                                "value live across call to {label} in {}, which the call may \
                                 clobber",
                                regs.name(r)
                            ),
                        );
                    }
                }
                live = RegMask(live.0 & !self.inst_defs(inst).0) | self.inst_reads(inst);
            }
        }
    }
}
