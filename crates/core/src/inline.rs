//! Profile-guided inlining of hot call sites.
//!
//! Chow's framework minimizes the save/restore penalty *given* a call
//! graph (Eqs 3.1–3.6); the strongest lever on a call edge's penalty is
//! deleting the edge entirely. This pass runs between global promotion
//! and the call-graph/SCC phases of [`crate::ipra::compile_module`]: it
//! ranks direct call sites by dynamic execution count (from `--profile-in`
//! feedback, when available) times a static estimate of the edge's
//! save/restore penalty — the quantity the per-edge penalty ledger
//! measures dynamically — and splices the hottest callee bodies into
//! their callers under a per-caller size budget.
//!
//! Exclusions mirror the paper's open/closed classification (§3): open
//! callees — the program entry, externally visible or address-taken
//! functions, members of recursive cycles — and names forced open by
//! [`AllocOptions::forced_open`](crate::config::AllocOptions::forced_open)
//! keep their out-of-line identity and are never inlined. Because callers
//! are processed in bottom-up call-graph order, chains collapse
//! transitively (a callee spliced into `mid` travels along when `top`
//! inlines `mid`); [`RECURSION_FUEL`] bounds how deep such chains may
//! stack so repeated transitive inlining cannot run away.
//!
//! Correctness obligations of the splice:
//! * **vreg renaming** — every callee virtual register maps to a fresh
//!   caller vreg (injective, disjoint from the caller's existing ones),
//!   so callee locals can never capture caller state;
//! * **slot renaming + fresh-activation zeroing** — callee stack slots
//!   become new caller slots, explicitly zeroed at the splice point,
//!   because the interpreter and the lowered frame both guarantee
//!   zero-initialized slots per activation and an inlined body in a loop
//!   would otherwise observe the previous iteration's values;
//! * **parameter binding** — arguments are copied into the renamed
//!   parameter vregs before control enters the cloned entry block;
//! * **return wiring** — every cloned `Ret` becomes a branch to the
//!   continuation block (the split-off tail of the call's block), with
//!   the returned operand copied into the call's destination first.
//!
//! Downstream invalidation is free by construction: the pass runs before
//! [`ipra_ir::hash_all_functions`], so body hashes, the incremental-cache
//! component keys and the callee-summary environment all see the
//! transformed bodies.

use std::collections::HashSet;

use ipra_callgraph::{CallGraph, OpenReason, Openness, SccInfo};
use ipra_ir::{
    Address, Block, BlockId, Callee, FuncId, Function, Inst, InstLoc, Module, Operand, SlotData,
    Terminator, Vreg,
};

/// Default per-caller growth budget (instruction count), the value behind
/// `--inline` without `--inline-budget`.
pub const DEFAULT_INLINE_BUDGET: u32 = 48;

/// Maximum inline-chain depth: a callee that already stacks this many
/// levels of spliced bodies is not inlined again. Bounds transitive
/// growth along bottom-up chains.
pub const RECURSION_FUEL: u32 = 3;

/// What the pass did, in deterministic order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InlineStats {
    /// Direct call sites examined.
    pub sites_considered: u64,
    /// Sites actually inlined.
    pub inlined: u64,
    /// Eligible sites skipped only because the caller's budget ran out.
    pub budget_stops: u64,
    /// `(caller, callee)` name pairs for every applied splice, in
    /// application order (bottom-up over callers, reverse document order
    /// within one caller).
    pub edges: Vec<(String, String)>,
}

/// Planted-bug switch for the mutation tests (`tests/inline_mutants.rs`).
/// Production callers always pass [`InlineMutation::None`]; each other
/// variant re-introduces one historical inliner bug class so the tests
/// can prove the verifier / differential oracle rejects it.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InlineMutation {
    /// The healthy pass.
    None,
    /// Splice without renaming vregs: callee locals capture caller state.
    SkipRenaming,
    /// Treat an address-taken callee as private: inline it and stub the
    /// out-of-line body, breaking calls through its taken address.
    TreatAddressTakenAsPrivate,
    /// Admit one more instruction than the configured budget allows.
    BudgetOffByOne,
}

/// Inlines hot direct call sites under `budget` instructions of growth
/// per caller. `profile` is indexed `[function][block]` over the module
/// *as given* (post-normalization, pre-inline block order — the order
/// `--profile-out` records); missing entries weigh as zero. `forced_open`
/// names are never inlined, matching their forced-open allocation.
pub fn inline_hot_calls(
    module: &mut Module,
    budget: u32,
    forced_open: &HashSet<String>,
    profile: Option<&[Vec<u64>]>,
) -> InlineStats {
    inline_with_mutation(module, budget, forced_open, profile, InlineMutation::None)
}

/// [`inline_hot_calls`] with a planted bug. Test-only; see
/// [`InlineMutation`].
#[doc(hidden)]
pub fn inline_with_mutation(
    module: &mut Module,
    budget: u32,
    forced_open: &HashSet<String>,
    profile: Option<&[Vec<u64>]>,
    mutation: InlineMutation,
) -> InlineStats {
    let cg = CallGraph::build(module);
    let scc = SccInfo::compute(&cg);
    let openness = Openness::compute(module, &cg, &scc);
    let mut stats = InlineStats::default();
    // Inline-chain depth per function: 0 until something is spliced in,
    // then 1 + the deepest spliced callee. Deterministic because callers
    // are visited in the (deterministic) bottom-up order.
    let mut depth = vec![0u32; module.funcs.len()];
    let mut stubbed: Vec<FuncId> = Vec::new();

    for caller in scc.bottom_up_order() {
        let cands = collect_candidates(
            module,
            caller,
            &openness,
            forced_open,
            &depth,
            profile,
            &mut stats,
            mutation,
        );
        if cands.is_empty() {
            continue;
        }

        // Greedy budget pass in score order. The admission test is
        // deliberately on the *pre-splice* cost so hit/miss decisions are
        // independent of application order.
        let effective_budget = match mutation {
            InlineMutation::BudgetOffByOne => u64::from(budget) + 1,
            _ => u64::from(budget),
        };
        let mut grown = 0u64;
        let mut chosen: Vec<Candidate> = Vec::new();
        for c in cands {
            if grown + c.cost <= effective_budget {
                grown += c.cost;
                chosen.push(c);
            } else {
                stats.budget_stops += 1;
            }
        }
        if chosen.is_empty() {
            continue;
        }

        // Apply in reverse document order so pending `InstLoc`s stay
        // valid: splicing at (b, i) only moves instructions *after* i out
        // of block b and appends fresh blocks.
        chosen.sort_by_key(|c| std::cmp::Reverse((c.loc.block.index(), c.loc.inst)));
        let mut max_callee_depth = 0u32;
        for c in chosen {
            let callee_fn = module.funcs[c.callee].clone();
            splice(
                &mut module.funcs[caller],
                c.loc,
                &callee_fn,
                mutation != InlineMutation::SkipRenaming,
            );
            max_callee_depth = max_callee_depth.max(depth[c.callee.index()]);
            stats.inlined += 1;
            stats
                .edges
                .push((module.funcs[caller].name.clone(), callee_fn.name.clone()));
            if mutation == InlineMutation::TreatAddressTakenAsPrivate
                && cg.address_taken[c.callee.index()]
                && !stubbed.contains(&c.callee)
            {
                stubbed.push(c.callee);
            }
        }
        depth[caller.index()] = depth[caller.index()].max(max_callee_depth + 1);
    }

    // The planted "inlined away, so delete it" bug: replace each inlined
    // address-taken callee's body with a stub. Calls through its taken
    // address now return 0 — exactly what the differential oracle exists
    // to catch.
    for fid in stubbed {
        let f = &mut module.funcs[fid];
        let mut blocks = ipra_ir::EntityVec::new();
        let entry = blocks.push(Block::new(Terminator::Ret(Some(Operand::Imm(0)))));
        f.blocks = blocks;
        f.entry = entry;
    }

    stats
}

/// One inlinable call site, scored.
struct Candidate {
    loc: InstLoc,
    callee: FuncId,
    /// Instructions the splice adds: callee body + parameter copies +
    /// slot-zeroing stores.
    cost: u64,
    score: u64,
}

/// Static proxy for the save/restore penalty of one call edge: two memory
/// operations (a save and a restore) per register the callee plausibly
/// occupies, plus the call/return overhead itself. The paper's Eq 3.4
/// charges exactly these moves; the dynamic ledger (`penalty_by_edge`)
/// measures them, this estimates them before allocation has run.
fn penalty_estimate(callee: &Function) -> u64 {
    2 * (callee.num_vregs().min(8) as u64 + 1)
}

#[allow(clippy::too_many_arguments)]
fn collect_candidates(
    module: &Module,
    caller: FuncId,
    openness: &Openness,
    forced_open: &HashSet<String>,
    depth: &[u32],
    profile: Option<&[Vec<u64>]>,
    stats: &mut InlineStats,
    mutation: InlineMutation,
) -> Vec<Candidate> {
    let f = &module.funcs[caller];
    let mut cands = Vec::new();
    for (bid, block) in f.blocks.iter() {
        for (i, inst) in block.insts.iter().enumerate() {
            let Inst::Call {
                callee: Callee::Direct(g),
                args,
                dst,
            } = inst
            else {
                continue;
            };
            stats.sites_considered += 1;
            let g = *g;
            if g == caller {
                continue;
            }
            let inlineable_openness = openness.is_closed(g)
                || (mutation == InlineMutation::TreatAddressTakenAsPrivate
                    && openness.reasons(g) == [OpenReason::AddressTaken]);
            if !inlineable_openness || forced_open.contains(&module.funcs[g].name) {
                continue;
            }
            if depth[g.index()] >= RECURSION_FUEL {
                continue;
            }
            let callee = &module.funcs[g];
            if args.len() != callee.params.len() {
                continue;
            }
            // A value-consuming call needs a value on every return path.
            if dst.is_some()
                && callee
                    .blocks
                    .values()
                    .any(|b| matches!(b.term, Terminator::Ret(None)))
            {
                continue;
            }
            let slot_cells: u64 = callee.slots.values().map(|s| u64::from(s.size)).sum();
            let cost = callee.num_insts() as u64 + callee.params.len() as u64 + slot_cells;
            let count = profile
                .and_then(|p| p.get(caller.index()))
                .and_then(|blocks| blocks.get(bid.index()))
                .copied()
                .unwrap_or(0);
            cands.push(Candidate {
                loc: InstLoc {
                    block: bid,
                    inst: i,
                },
                callee: g,
                cost,
                score: (count + 1) * penalty_estimate(callee),
            });
        }
    }
    // Hottest first; document order breaks ties so the ranking is total.
    cands.sort_by_key(|c| (std::cmp::Reverse(c.score), c.loc.block.index(), c.loc.inst));
    cands
}

/// Fresh, injective renaming of every callee vreg into `caller`. Named
/// callee vregs keep a `callee.name`-qualified debug name; temporaries
/// stay anonymous. Public (hidden) so the renamer property tests can
/// check injectivity and freshness directly.
#[doc(hidden)]
pub fn rename_vregs(caller: &mut Function, callee: &Function) -> Vec<Vreg> {
    (0..callee.num_vregs())
        .map(|i| {
            let v = Vreg(i as u32);
            match callee.vreg_name(v) {
                Some(n) => caller.new_named_vreg(format!("{}.{}", callee.name, n)),
                None => caller.new_vreg(),
            }
        })
        .collect()
}

/// Splices `callee`'s body into `caller` at the direct call `loc`.
/// `rename` is `false` only under [`InlineMutation::SkipRenaming`].
fn splice(caller: &mut Function, loc: InstLoc, callee: &Function, rename: bool) {
    let Inst::Call { args, dst, .. } = caller.blocks[loc.block].insts[loc.inst].clone() else {
        unreachable!("candidate location no longer holds a call");
    };
    let vmap: Vec<Vreg> = if rename {
        rename_vregs(caller, callee)
    } else {
        (0..callee.num_vregs()).map(|i| Vreg(i as u32)).collect()
    };
    let smap: Vec<ipra_ir::SlotId> = callee
        .slots
        .values()
        .map(|s| {
            caller.slots.push(SlotData {
                size: s.size,
                name: format!("{}.{}", callee.name, s.name),
            })
        })
        .collect();

    let base = caller.blocks.len();
    let shift = |b: BlockId| BlockId((base + b.index()) as u32);
    let cont = BlockId((base + callee.blocks.len()) as u32);

    // Split the call's block: everything after the call becomes the
    // continuation block's body; the call itself disappears.
    let tail: Vec<Inst> = caller.blocks[loc.block].insts.split_off(loc.inst + 1);
    caller.blocks[loc.block].insts.pop();

    // Fresh-activation semantics for the adopted slots: each call of the
    // out-of-line body saw zeroed slots, so each pass through the splice
    // must too (the caller may reach it in a loop).
    for (si, s) in smap.iter().zip(callee.slots.values()) {
        for cell in 0..s.size {
            caller.blocks[loc.block].insts.push(Inst::Store {
                src: Operand::Imm(0),
                addr: Address::Stack {
                    slot: *si,
                    index: Operand::Imm(i64::from(cell)),
                },
            });
        }
    }
    for (p, a) in callee.params.iter().zip(args.iter()) {
        caller.blocks[loc.block].insts.push(Inst::Copy {
            dst: vmap[p.index()],
            src: *a,
        });
    }
    let entry_clone = shift(callee.entry);
    let old_term = std::mem::replace(
        &mut caller.blocks[loc.block].term,
        Terminator::Br(entry_clone),
    );

    let remap_op = |o: Operand| match o {
        Operand::Reg(v) => Operand::Reg(vmap[v.index()]),
        imm => imm,
    };
    for b in callee.blocks.values() {
        let mut insts: Vec<Inst> = b
            .insts
            .iter()
            .map(|inst| remap_inst(inst, &vmap, &smap))
            .collect();
        let term = match &b.term {
            Terminator::Ret(op) => {
                if let (Some(d), Some(o)) = (dst, op) {
                    insts.push(Inst::Copy {
                        dst: d,
                        src: remap_op(*o),
                    });
                }
                Terminator::Br(cont)
            }
            Terminator::Br(to) => Terminator::Br(shift(*to)),
            Terminator::CondBr {
                cond,
                then_to,
                else_to,
            } => Terminator::CondBr {
                cond: remap_op(*cond),
                then_to: shift(*then_to),
                else_to: shift(*else_to),
            },
        };
        caller.blocks.push(Block { insts, term });
    }
    caller.blocks.push(Block {
        insts: tail,
        term: old_term,
    });
}

/// Rewrites one callee instruction into the caller's namespace.
fn remap_inst(inst: &Inst, vmap: &[Vreg], smap: &[ipra_ir::SlotId]) -> Inst {
    let v = |r: Vreg| vmap[r.index()];
    let op = |o: Operand| match o {
        Operand::Reg(r) => Operand::Reg(vmap[r.index()]),
        imm => imm,
    };
    let addr = |a: Address| match a {
        Address::Global { global, index } => Address::Global {
            global,
            index: op(index),
        },
        Address::Stack { slot, index } => Address::Stack {
            slot: smap[slot.index()],
            index: op(index),
        },
    };
    match inst {
        Inst::Copy { dst, src } => Inst::Copy {
            dst: v(*dst),
            src: op(*src),
        },
        Inst::Bin {
            op: bop,
            dst,
            lhs,
            rhs,
        } => Inst::Bin {
            op: *bop,
            dst: v(*dst),
            lhs: op(*lhs),
            rhs: op(*rhs),
        },
        Inst::Un { op: uop, dst, src } => Inst::Un {
            op: *uop,
            dst: v(*dst),
            src: op(*src),
        },
        Inst::Load { dst, addr: a } => Inst::Load {
            dst: v(*dst),
            addr: addr(*a),
        },
        Inst::Store { src, addr: a } => Inst::Store {
            src: op(*src),
            addr: addr(*a),
        },
        Inst::Call { callee, args, dst } => Inst::Call {
            callee: match callee {
                Callee::Direct(f) => Callee::Direct(*f),
                Callee::Indirect(t) => Callee::Indirect(op(*t)),
            },
            args: args.iter().map(|a| op(*a)).collect(),
            dst: dst.map(v),
        },
        Inst::FuncAddr { dst, func } => Inst::FuncAddr {
            dst: v(*dst),
            func: *func,
        },
        Inst::Print { arg } => Inst::Print { arg: op(*arg) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipra_ir::builder::FunctionBuilder;
    use ipra_ir::{interp, BinOp};

    fn no_forced() -> HashSet<String> {
        HashSet::new()
    }

    /// leaf/mid/main chain with arithmetic that would expose any renaming
    /// or parameter-binding slip.
    fn chain_module() -> Module {
        let mut m = Module::new();
        let leaf = m.declare_func("leaf");
        let mid = m.declare_func("mid");
        let main = m.declare_func("main");
        {
            let mut b = FunctionBuilder::new("leaf");
            let a = b.param("a");
            let c = b.param("c");
            let t = b.bin(BinOp::Mul, a, Operand::Imm(3));
            let u = b.bin(BinOp::Add, t, c);
            b.ret(Some(u.into()));
            m.define_func(leaf, b.build());
        }
        {
            let mut b = FunctionBuilder::new("mid");
            let x = b.param("x");
            let r = b.call(leaf, vec![x.into(), Operand::Imm(7)]);
            let s = b.call(leaf, vec![r.into(), x.into()]);
            let t = b.bin(BinOp::Sub, s, r);
            b.ret(Some(t.into()));
            m.define_func(mid, b.build());
        }
        {
            let mut b = FunctionBuilder::new("main");
            let r = b.call(mid, vec![Operand::Imm(5)]);
            b.print(r);
            let s = b.call(mid, vec![Operand::Imm(9)]);
            b.print(s);
            b.ret(None);
            m.define_func(main, b.build());
        }
        m.main = Some(main);
        m
    }

    fn outputs(m: &Module) -> Vec<i64> {
        interp::run_module(m).expect("runs").output
    }

    #[test]
    fn chain_inlines_and_preserves_behavior() {
        let mut m = chain_module();
        let want = outputs(&m);
        let stats = inline_hot_calls(&mut m, 64, &no_forced(), None);
        assert!(stats.inlined >= 2, "{stats:?}");
        assert!(ipra_ir::verify::verify_module(&m).is_ok());
        assert_eq!(outputs(&m), want);
        // Bottom-up chains collapse: main's spliced `mid` body carries the
        // already-inlined `leaf`.
        assert!(stats
            .edges
            .iter()
            .any(|(caller, callee)| caller == "mid" && callee == "leaf"));
        assert!(stats
            .edges
            .iter()
            .any(|(caller, callee)| caller == "main" && callee == "mid"));
    }

    #[test]
    fn zero_budget_inlines_nothing() {
        let mut m = chain_module();
        let before = m.clone();
        let stats = inline_hot_calls(&mut m, 0, &no_forced(), None);
        assert_eq!(stats.inlined, 0);
        assert!(stats.budget_stops > 0);
        assert_eq!(m, before);
    }

    #[test]
    fn forced_open_callee_is_excluded() {
        let mut m = chain_module();
        let mut forced = HashSet::new();
        forced.insert("leaf".to_string());
        let stats = inline_hot_calls(&mut m, 64, &forced, None);
        assert!(stats.edges.iter().all(|(_, callee)| callee != "leaf"));
        assert_eq!(outputs(&m), outputs(&chain_module()));
    }

    #[test]
    fn address_taken_callee_is_excluded() {
        let mut m = Module::new();
        let leaf = m.declare_func("leaf");
        let main = m.declare_func("main");
        {
            let mut b = FunctionBuilder::new("leaf");
            let a = b.param("a");
            let t = b.bin(BinOp::Add, a, Operand::Imm(1));
            b.ret(Some(t.into()));
            m.define_func(leaf, b.build());
        }
        {
            let mut b = FunctionBuilder::new("main");
            let r = b.call(leaf, vec![Operand::Imm(4)]);
            b.print(r);
            let fp = b.func_addr(leaf);
            let s = b.call_indirect(fp, vec![Operand::Imm(10)]);
            b.print(s);
            b.ret(None);
            m.define_func(main, b.build());
        }
        m.main = Some(main);
        let want = outputs(&m);
        let stats = inline_hot_calls(&mut m, 64, &no_forced(), None);
        assert_eq!(stats.inlined, 0, "{stats:?}");
        assert_eq!(outputs(&m), want);
    }

    #[test]
    fn recursive_callee_is_excluded() {
        let mut m = Module::new();
        let fac = m.declare_func("fac");
        let main = m.declare_func("main");
        {
            let mut b = FunctionBuilder::new("fac");
            let n = b.param("n");
            let done = b.new_block();
            let rec = b.new_block();
            let cond = b.bin(BinOp::Le, n, Operand::Imm(1));
            b.cond_br(cond, done, rec);
            b.switch_to(done);
            b.ret(Some(Operand::Imm(1)));
            b.switch_to(rec);
            let n1 = b.bin(BinOp::Sub, n, Operand::Imm(1));
            let r = b.call(fac, vec![n1.into()]);
            let t = b.bin(BinOp::Mul, n, r);
            b.ret(Some(t.into()));
            m.define_func(fac, b.build());
        }
        {
            let mut b = FunctionBuilder::new("main");
            let r = b.call(fac, vec![Operand::Imm(6)]);
            b.print(r);
            b.ret(None);
            m.define_func(main, b.build());
        }
        m.main = Some(main);
        let want = outputs(&m);
        let stats = inline_hot_calls(&mut m, 1_000, &no_forced(), None);
        assert_eq!(stats.inlined, 0, "{stats:?}");
        assert_eq!(outputs(&m), want);
    }

    #[test]
    fn inlined_slots_are_zeroed_per_pass() {
        // `acc` accumulates into a local slot cell and returns it; called
        // twice from a loop body, the second call must still see a zeroed
        // slot after inlining.
        let mut m = Module::new();
        let acc = m.declare_func("acc");
        let main = m.declare_func("main");
        {
            let mut b = FunctionBuilder::new("acc");
            let x = b.param("x");
            let s = b.slot("buf", 2);
            let old = b.load(Address::Stack {
                slot: s,
                index: Operand::Imm(1),
            });
            let t = b.bin(BinOp::Add, old, x);
            b.store(
                t,
                Address::Stack {
                    slot: s,
                    index: Operand::Imm(1),
                },
            );
            let out = b.load(Address::Stack {
                slot: s,
                index: Operand::Imm(1),
            });
            b.ret(Some(out.into()));
            m.define_func(acc, b.build());
        }
        {
            let mut b = FunctionBuilder::new("main");
            let i = b.var("i");
            b.copy_to(i, Operand::Imm(0));
            let head = b.new_block();
            let body = b.new_block();
            let exit = b.new_block();
            b.br(head);
            b.switch_to(head);
            let c = b.bin(BinOp::Lt, i, Operand::Imm(3));
            b.cond_br(c, body, exit);
            b.switch_to(body);
            let r = b.call(acc, vec![i.into()]);
            b.print(r);
            let ni = b.bin(BinOp::Add, i, Operand::Imm(1));
            b.copy_to(i, ni);
            b.br(head);
            b.switch_to(exit);
            b.ret(None);
            m.define_func(main, b.build());
        }
        m.main = Some(main);
        let want = outputs(&m);
        let stats = inline_hot_calls(&mut m, 64, &no_forced(), None);
        assert_eq!(stats.inlined, 1, "{stats:?}");
        assert!(ipra_ir::verify::verify_module(&m).is_ok());
        assert_eq!(outputs(&m), want);
    }

    #[test]
    fn profile_steers_the_budget_to_the_hot_site() {
        // Two callees of equal size; budget fits exactly one. The profile
        // makes the *second* site hot, so it must win the budget.
        let mut m = Module::new();
        let f1 = m.declare_func("one");
        let f2 = m.declare_func("two");
        let main = m.declare_func("main");
        for (fid, k) in [(f1, 1i64), (f2, 2i64)] {
            let name = if k == 1 { "one" } else { "two" };
            let mut b = FunctionBuilder::new(name);
            let a = b.param("a");
            let t = b.bin(BinOp::Add, a, Operand::Imm(k));
            b.ret(Some(t.into()));
            m.define_func(fid, b.build());
        }
        {
            let mut b = FunctionBuilder::new("main");
            let cold = b.new_block();
            let hot = b.new_block();
            let exit = b.new_block();
            b.cond_br(Operand::Imm(1), hot, cold);
            b.switch_to(cold);
            let r = b.call(f1, vec![Operand::Imm(10)]);
            b.print(r);
            b.br(exit);
            b.switch_to(hot);
            let s = b.call(f2, vec![Operand::Imm(20)]);
            b.print(s);
            b.br(exit);
            b.switch_to(exit);
            b.ret(None);
            m.define_func(main, b.build());
        }
        m.main = Some(main);
        let want = outputs(&m);
        // Block counts for main: entry, cold, hot, exit. `hot` runs 1000x.
        let mi = main.index();
        let mut profile: Vec<Vec<u64>> = vec![Vec::new(); m.funcs.len()];
        profile[mi] = vec![1, 0, 1000, 1];
        let cost_one = 3u32; // 2 insts + 1 param
        let stats = inline_hot_calls(&mut m, cost_one, &no_forced(), Some(&profile));
        assert_eq!(stats.inlined, 1, "{stats:?}");
        assert_eq!(stats.edges[0].1, "two", "{stats:?}");
        assert_eq!(stats.budget_stops, 1, "{stats:?}");
        assert_eq!(outputs(&m), want);
    }

    #[test]
    fn renamer_is_injective_and_fresh() {
        let m = chain_module();
        let callee = &m.funcs[ipra_ir::FuncId(0)];
        let mut caller = m.funcs[ipra_ir::FuncId(2)].clone();
        let before = caller.num_vregs();
        let map = rename_vregs(&mut caller, callee);
        let mut seen = HashSet::new();
        for v in &map {
            assert!(v.index() >= before, "{v:?} not fresh");
            assert!(seen.insert(*v), "{v:?} mapped twice");
        }
        assert_eq!(caller.num_vregs(), before + callee.num_vregs());
    }

    #[test]
    fn mutated_budget_admits_one_extra_instruction() {
        // `leaf` costs exactly 4 (2 insts + 2 params); with budget 3 the
        // healthy pass refuses every site, the off-by-one mutant admits
        // the boundary one.
        let mut m = chain_module();
        let healthy = {
            let mut c = m.clone();
            inline_hot_calls(&mut c, 3, &no_forced(), None)
        };
        let mutated = inline_with_mutation(
            &mut m,
            3,
            &no_forced(),
            None,
            InlineMutation::BudgetOffByOne,
        );
        assert!(
            mutated.inlined > healthy.inlined,
            "healthy {healthy:?} vs mutated {mutated:?}"
        );
    }
}
