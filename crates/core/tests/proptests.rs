//! Property tests of the allocator's internal invariants: shrink-wrap
//! placement correctness on arbitrary CFGs, exact interference,
//! interference-respecting coloring, and parallel-move semantics. Each property runs over `CASES`
//! seeds of the workspace PRNG; a failure names its seed, and
//! `XorShift64Star::new(seed)` replays that case.

use std::collections::BTreeSet;

use ipra_cfg::{Cfg, Dominators, Liveness, LoopInfo};
use ipra_core::color::{color, VregLoc};
use ipra_core::normalize::normalize_entries;
use ipra_core::parmove::{resolve_parallel_moves, MoveSrc};
use ipra_core::priority::PriorityCtx;
use ipra_core::promote_globals;
use ipra_core::ranges::{BlockWeights, RangeData};
use ipra_core::shrinkwrap::{shrink_wrap, verify_plan};
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{BinOp, BlockId, Function, Module, Operand, Vreg};
use ipra_machine::{MInst, MOperand, PReg, RegMask, Target};
use ipra_workloads::synth::{shaped_source, ShapeClass, ShapeConfig, XorShift64Star};

const CASES: u64 = 200;

/// `lo..hi` (half-open) draws of `gen`.
fn vec_of<T>(
    rng: &mut XorShift64Star,
    lo: i64,
    hi: i64,
    mut gen: impl FnMut(&mut XorShift64Star) -> T,
) -> Vec<T> {
    let len = rng.range_i64(lo, hi);
    (0..len).map(|_| gen(rng)).collect()
}

/// An `n`-block function whose first `edges.len()` blocks end in the given
/// branch and the rest return, after the driver's entry normalization.
/// Blocks may be unreachable and the graph irreducible.
fn cfg_function(n: usize, edges: &[(usize, Option<usize>)]) -> Function {
    let mut b = FunctionBuilder::new("f");
    let rest: Vec<_> = (0..n - 1).map(|_| b.new_block()).collect();
    let all: Vec<_> = std::iter::once(b.current_block()).chain(rest).collect();
    for (i, &block) in all.iter().enumerate() {
        b.switch_to(block);
        match edges.get(i) {
            Some(&(t1, Some(t2))) if t1 != t2 => {
                let c = b.copy(1);
                b.cond_br(c, all[t1], all[t2]);
            }
            Some(&(t1, _)) => b.br(all[t1]),
            None => b.ret(None),
        }
    }
    let mut m = Module::new();
    let id = m.add_func(b.build());
    normalize_entries(&mut m);
    m.funcs[id].clone()
}

/// A shrink-wrap input: the function plus an APP mask per block, the
/// `i`-th of `app_bits` landing on block `i % num_blocks`.
fn shrink_wrap_case(
    n: usize,
    edges: &[(usize, Option<usize>)],
    app_bits: &[u32],
) -> (Function, Vec<RegMask>) {
    let f = cfg_function(n, edges);
    let mut app = vec![RegMask::EMPTY; f.num_blocks()];
    for (i, &bits) in app_bits.iter().enumerate() {
        app[i % f.num_blocks()] = RegMask(bits);
    }
    (f, app)
}

/// The shrink-wrap properties' inputs: the case the external `proptest`
/// crate once shrank a failure to, then one random case per seed.
fn shrink_wrap_cases() -> impl Iterator<Item = (String, Function, Vec<RegMask>)> {
    let (f, app) = shrink_wrap_case(2, &[(1, Some(0))], &[0, 1]);
    let recorded = ("recorded case".to_string(), f, app);
    let seeded = (0..CASES).map(|seed| {
        let rng = &mut XorShift64Star::new(seed);
        let n = rng.range_i64(2, 10) as usize;
        let edges = vec_of(rng, 0, n as i64, |r| {
            let t1 = r.below(n as u64) as usize;
            (t1, r.coin().then(|| r.below(n as u64) as usize))
        });
        let app_bits = vec_of(rng, 2, 10, |r| r.below(16) as u32);
        let (f, app) = shrink_wrap_case(n, &edges, &app_bits);
        (format!("seed {seed}"), f, app)
    });
    std::iter::once(recorded).chain(seeded)
}

/// Shrink-wrap placement is correct on arbitrary (even irreducible)
/// CFGs with arbitrary APP masks: every path saves before first use,
/// restores by exit, never double-saves.
#[test]
fn shrink_wrap_placement_always_verifies() {
    for (case, f, app) in shrink_wrap_cases() {
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let plan = shrink_wrap(&cfg, &loops, &app);
        assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()), "{case}");
    }
}

/// Loop constraint: no save or restore may sit inside a loop unless the
/// loop contains the function entry.
#[test]
fn shrink_wrap_never_places_inside_loops() {
    for (case, f, app) in shrink_wrap_cases() {
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let plan = shrink_wrap(&cfg, &loops, &app);
        for l in &loops.loops {
            if l.blocks.contains(cfg.entry.index()) {
                continue;
            }
            for bi in l.blocks.iter() {
                assert!(
                    plan.save_at[bi].is_empty() && plan.restore_at[bi].is_empty(),
                    "{case}: save/restore inside loop at block {bi}"
                );
            }
        }
    }
}

/// Parallel moves: whatever permutation/duplication of sources is
/// requested, applying the emitted sequence equals the parallel
/// semantics.
#[test]
fn parallel_moves_have_parallel_semantics() {
    // Destinations must be unique; dedupe by destination. Scratch is 15.
    let scratch = PReg(15);
    for seed in 0..CASES {
        let rng = &mut XorShift64Star::new(seed);
        let moves = vec_of(rng, 0, 12, |r| (r.below(12) as u8, r.below(12) as u8));
        let imms = vec_of(rng, 0, 4, |r| r.next_u64() as i16);
        let mut seen = std::collections::HashSet::new();
        let mut ms: Vec<(PReg, MoveSrc)> = Vec::new();
        for (d, s) in moves {
            if seen.insert(d) {
                ms.push((PReg(d), MoveSrc::Reg(PReg(s))));
            }
        }
        for (k, i) in imms.iter().enumerate() {
            let d = (12 + k) as u8;
            if seen.insert(d) {
                ms.push((PReg(d), MoveSrc::Imm(*i as i64)));
            }
        }
        // Parallel semantics: read all sources first.
        let init: Vec<i64> = (0..16).map(|i| 100 + i as i64).collect();
        let mut expected = init.clone();
        for (d, s) in &ms {
            expected[d.index()] = match s {
                MoveSrc::Reg(r) => init[r.index()],
                MoveSrc::Imm(i) => *i,
                MoveSrc::Mem(..) => unreachable!(),
            };
        }
        // Sequential execution of the emitted program.
        let mut regs = init.clone();
        for inst in resolve_parallel_moves(&ms, scratch) {
            match inst {
                MInst::Copy { dst, src } => {
                    regs[dst.index()] = match src {
                        MOperand::Reg(r) => regs[r.index()],
                        MOperand::Imm(i) => i,
                    };
                }
                other => panic!("seed {seed}: unexpected inst {other:?}"),
            }
        }
        for i in 0..16 {
            if i != scratch.index() {
                assert_eq!(regs[i], expected[i], "seed {seed}: register {i}");
            }
        }
    }
}

/// Shaped programs per class the interference check covers.
const SHAPED_SEEDS: u64 = 8;

/// Scans `block` backward from the values live at its exit, calling
/// `on_def(d, live)` at each definition `d` with the values live just
/// after it; returns the values live at its entry.
fn scan_block(
    block: &ipra_ir::Block,
    mut live: BTreeSet<usize>,
    mut on_def: impl FnMut(usize, &BTreeSet<usize>),
) -> BTreeSet<usize> {
    block.term.for_each_use(|v| {
        live.insert(v.index());
    });
    for inst in block.insts.iter().rev() {
        if let Some(d) = inst.def() {
            on_def(d.index(), &live);
            live.remove(&d.index());
        }
        inst.for_each_use(|v| {
            live.insert(v.index());
        });
    }
    live
}

/// Interference by definition, from per-instruction live sets solved
/// here by round-robin iteration over the reachable blocks: each
/// definition interferes with every other value live just after it, and
/// the parameters live at entry interfere pairwise.
fn reference_interference(f: &Function, cfg: &Cfg) -> Vec<BTreeSet<usize>> {
    let mut live_in = vec![BTreeSet::new(); f.num_blocks()];
    let live_out = |live_in: &[BTreeSet<usize>], b: BlockId| -> BTreeSet<usize> {
        cfg.succs(b)
            .iter()
            .flat_map(|s| live_in[s.index()].iter().copied())
            .collect()
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &cfg.rpo {
            let inn = scan_block(&f.blocks[b], live_out(&live_in, b), |_, _| {});
            changed |= inn != live_in[b.index()];
            live_in[b.index()] = inn;
        }
    }
    let mut adj = vec![BTreeSet::new(); f.num_vregs()];
    let mut add = |a: usize, b: usize| {
        if a != b {
            adj[a].insert(b);
            adj[b].insert(a);
        }
    };
    for &b in &cfg.rpo {
        scan_block(&f.blocks[b], live_out(&live_in, b), |d, live| {
            for &v in live {
                add(d, v);
            }
        });
    }
    let at_entry: Vec<usize> = f
        .params
        .iter()
        .map(|p| p.index())
        .filter(|p| live_in[f.entry.index()].contains(p))
        .collect();
    for &p in &at_entry {
        for &q in &at_entry {
            add(p, q);
        }
    }
    adj
}

/// Every function of the corpus and of seeded shaped programs, after the
/// driver's entry normalization and global promotion, named for failure
/// messages.
fn interference_cases() -> Vec<(String, Module)> {
    let mut cases = Vec::new();
    for w in ipra_workloads::all() {
        let m = ipra_workloads::compile_workload(w).expect("corpus compiles");
        cases.push((format!("workload {}", w.name), m));
    }
    for class in ShapeClass::ALL {
        for seed in 0..SHAPED_SEEDS {
            let src = shaped_source(seed, &ShapeConfig::new(class));
            let m = ipra_frontend::compile(&src).expect("shaped programs compile");
            cases.push((format!("{} seed {seed}", class.name()), m));
        }
    }
    for (_, m) in &mut cases {
        normalize_entries(m);
        promote_globals(m);
    }
    cases
}

/// The interference rows are exact: equal to a dense reference built
/// from per-instruction live sets, ascending, duplicate-free, symmetric
/// and irreflexive, and `interferes` agrees with them both ways.
#[test]
fn interference_is_exact() {
    for (case, m) in interference_cases() {
        for (_, f) in m.funcs.iter() {
            let case = format!("{case}, fn {}", f.name);
            let cfg = Cfg::new(f);
            let dom = Dominators::compute(&cfg);
            let loops = LoopInfo::compute(&cfg, &dom);
            let live = Liveness::compute(f, &cfg);
            let weights = BlockWeights::from_loops(&cfg, &loops);
            let rd = RangeData::build(f, &cfg, &live, &weights);
            let reference = reference_interference(f, &cfg);
            for (v, want) in reference.iter().enumerate() {
                let vr = Vreg(v as u32);
                let row: Vec<usize> = rd.neighbors(vr).iter().map(|n| n.index()).collect();
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "{case}: row of v{v} is not ascending and duplicate-free: {row:?}"
                );
                assert!(!row.contains(&v), "{case}: v{v} interferes with itself");
                assert!(
                    row.iter().eq(want.iter()),
                    "{case}: neighbours of v{v} are {row:?}, per-instruction liveness gives {want:?}"
                );
                for &n in &row {
                    assert!(
                        rd.neighbors(Vreg(n as u32)).contains(&vr),
                        "{case}: v{v} - v{n} is not symmetric"
                    );
                }
                for u in 0..f.num_vregs() {
                    let ur = Vreg(u as u32);
                    let expect = want.contains(&u);
                    assert_eq!(
                        (rd.interferes(vr, ur), rd.interferes(ur, vr)),
                        (expect, expect),
                        "{case}: interferes(v{v}, v{u})"
                    );
                }
            }
        }
    }
}

/// Coloring respects interference: no two interfering candidate ranges
/// share a register; split regions never collide block-wise.
#[test]
fn coloring_respects_interference() {
    for seed in 0..CASES {
        let module = random_straightline_module(&mut XorShift64Star::new(seed));
        let f = &module.funcs[module.main.unwrap()];
        let cfg = Cfg::new(f);
        let dom = Dominators::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let live = Liveness::compute(f, &cfg);
        let weights = BlockWeights::from_loops(&cfg, &loops);
        let rd = RangeData::build(f, &cfg, &live, &weights);
        let target = Target::with_class_limits(3, 2); // heavy pressure
        let clobbers = vec![target.regs.default_clobbers(); rd.call_sites.len()];
        let hints = vec![Vec::new(); f.num_vregs()];
        let ctx = PriorityCtx {
            target: &target,
            ranges: &rd,
            site_clobbers: &clobbers,
            charge_callee_saved_entry: true,
            entry_weight: 1.0,
            subtree_used: RegMask::EMPTY,
            hints: &hints,
            weights: &weights,
        };
        let a = color(&ctx, &cfg, &live, true);
        for v in 0..f.num_vregs() {
            for w in rd.neighbors(Vreg(v as u32)) {
                let w = w.index();
                if v >= w {
                    continue;
                }
                // Whole-range vs whole-range interference.
                if let (VregLoc::Reg(rv), VregLoc::Reg(rw)) = (a.whole[v], a.whole[w]) {
                    if !a.is_split(ipra_ir::Vreg(v as u32)) && !a.is_split(ipra_ir::Vreg(w as u32))
                    {
                        assert_ne!(rv, rw, "seed {seed}: v{v} and v{w} interfere");
                    }
                }
            }
        }
        // Block-granular: no two ranges (split or not) may hold the same
        // register in the same block while both are live there.
        for b in 0..f.num_blocks() {
            let mut taken: std::collections::HashMap<PReg, usize> = Default::default();
            for v in 0..f.num_vregs() {
                if !rd.blocks(Vreg(v as u32)).contains(&BlockId(b as u32)) {
                    continue;
                }
                if let VregLoc::Reg(r) = a.loc(ipra_ir::Vreg(v as u32), ipra_ir::BlockId(b as u32))
                {
                    if let Some(&other) = taken.get(&r) {
                        // Permitted only if the two never interfere at all
                        // (they can time-share within the block).
                        assert!(
                            !rd.interferes(Vreg(v as u32), Vreg(other as u32)),
                            "seed {seed}: block {b}: {v} and {other} both in {r:?} and interfering"
                        );
                    } else {
                        taken.insert(r, v);
                    }
                }
            }
        }
    }
}

/// A pseudo-random straight-line module: constants, sums and calls to a
/// one-line callee in `main`, with a random subset live to the end.
fn random_straightline_module(rng: &mut XorShift64Star) -> Module {
    let mut module = Module::new();
    let callee = module.declare_func("callee");
    {
        let mut b = FunctionBuilder::new("callee");
        let x = b.param("x");
        let r = b.bin(BinOp::Add, x, 1);
        b.ret(Some(r.into()));
        module.define_func(callee, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let mut vals: Vec<ipra_ir::Vreg> = Vec::new();
    for i in 0..(4 + rng.below(12)) {
        let v = b.copy(i as i64);
        vals.push(v);
    }
    for _ in 0..rng.below(6) {
        let x = vals[rng.below(vals.len() as u64) as usize];
        let y = vals[rng.below(vals.len() as u64) as usize];
        let s = b.bin(BinOp::Add, x, y);
        vals.push(s);
        if rng.below(3) == 0 {
            let r = b.call(callee, vec![Operand::Reg(s)]);
            vals.push(r);
        }
    }
    // Keep a random subset live to the end.
    let mut acc = b.copy(0);
    for v in &vals {
        if rng.coin() {
            acc = b.bin(BinOp::Add, acc, *v);
        }
    }
    b.print(acc);
    b.ret(None);
    let main = module.add_func(b.build());
    module.main = Some(main);
    module
}
