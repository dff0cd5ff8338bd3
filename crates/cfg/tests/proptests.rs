//! Property tests of the analysis substrate: dominator laws, loop facts
//! and liveness fixpoint properties on random graphs.
//! Each property runs over `CASES` seeds of the workspace PRNG; a failure
//! names its seed, and `XorShift64Star::new(seed)` replays that case.

use std::collections::BTreeSet;

use ipra_cfg::{Cfg, Dominators, Liveness, LoopInfo};
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{BinOp, Function, Vreg};
use ipra_workloads::synth::XorShift64Star;

const CASES: u64 = 256;

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

/// Random function shape: 2–8 blocks; the first `edges.len()` blocks end
/// in a branch, the rest return. Blocks may be unreachable and the graph
/// irreducible. `body` fills each block before its terminator.
fn random_cfg_function(
    rng: &mut XorShift64Star,
    mut body: impl FnMut(&mut XorShift64Star, &mut FunctionBuilder),
) -> Function {
    let n = rng.range_i64(2, 9) as usize;
    let edges = vec_of(rng, 0, n as i64, |r| {
        let t1 = r.below(n as u64) as usize;
        (t1, r.coin().then(|| r.below(n as u64) as usize))
    });
    let mut b = FunctionBuilder::new("f");
    let rest: Vec<_> = (0..n - 1).map(|_| b.new_block()).collect();
    let all: Vec<_> = std::iter::once(b.current_block()).chain(rest).collect();
    for (i, &block) in all.iter().enumerate() {
        b.switch_to(block);
        body(rng, &mut b);
        match edges.get(i) {
            Some(&(t1, Some(t2))) if t1 != t2 => {
                let c = b.copy(1);
                b.cond_br(c, all[t1], all[t2]);
            }
            Some(&(t1, _)) => b.br(all[t1]),
            None => b.ret(None),
        }
    }
    b.build()
}

/// A random CFG whose blocks each define and print one fresh temporary,
/// so liveness has something to chew on.
fn random_function(rng: &mut XorShift64Star) -> Function {
    random_cfg_function(rng, |_, b| {
        let v = b.bin(BinOp::Add, 1, 2);
        b.print(v);
    })
}

/// The entry dominates every reachable block; idom is a strict
/// dominator; only the entry lacks an idom.
#[test]
fn dominator_laws() {
    for seed in 0..CASES {
        let f = random_function(&mut XorShift64Star::new(seed));
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        for &b in &cfg.rpo {
            assert!(
                dom.dominates(cfg.entry, b),
                "seed {seed}: entry dominates {b}"
            );
            match dom.idom(b) {
                Some(d) => assert!(
                    d != b && dom.dominates(d, b),
                    "seed {seed}: idom({b}) = {d} is not a strict dominator"
                ),
                None => assert_eq!(b, cfg.entry, "seed {seed}: {b} has no idom"),
            }
        }
    }
}

/// Every natural loop's header dominates all loop blocks, and depth is
/// consistent with membership counts.
#[test]
fn loop_facts() {
    for seed in 0..CASES {
        let f = random_function(&mut XorShift64Star::new(seed));
        let cfg = Cfg::new(&f);
        let dom = Dominators::compute(&cfg);
        let li = LoopInfo::compute(&cfg, &dom);
        for l in &li.loops {
            assert!(
                l.blocks.contains(l.header.index()),
                "seed {seed}: loop at {} lacks its header",
                l.header
            );
            for b in l.blocks.iter() {
                assert!(
                    dom.dominates(l.header, ipra_ir::BlockId(b as u32)),
                    "seed {seed}: header {} does not dominate block {b}",
                    l.header
                );
            }
        }
        for b in 0..cfg.num_blocks() {
            let member_of = li.loops.iter().filter(|l| l.blocks.contains(b)).count();
            assert_eq!(
                li.depth[b] as usize, member_of,
                "seed {seed}: depth of block {b}"
            );
        }
    }
}

/// Liveness is a fixpoint: live_out = ∪ succ live_in, and
/// live_in = uevar ∪ (live_out − defs), for every reachable block.
#[test]
fn liveness_is_a_fixpoint() {
    for seed in 0..CASES {
        let f = random_function(&mut XorShift64Star::new(seed));
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);
        for &b in &cfg.rpo {
            let bi = b.index();
            let out: BTreeSet<usize> = cfg
                .succs(b)
                .iter()
                .flat_map(|s| lv.live_in.iter_row(s.index()))
                .collect();
            let live_out: BTreeSet<usize> = lv.live_out.iter_row(bi).collect();
            assert_eq!(out, live_out, "seed {seed}: live_out at {b}");
            let defs: BTreeSet<usize> = lv.defs.iter_row(bi).collect();
            let inn: BTreeSet<usize> = lv
                .uevar
                .iter_row(bi)
                .chain(live_out.difference(&defs).copied())
                .collect();
            let live_in: BTreeSet<usize> = lv.live_in.iter_row(bi).collect();
            assert_eq!(inn, live_in, "seed {seed}: live_in at {b}");
        }
    }
}

/// The worklist liveness solver agrees with naive round-robin iteration
/// of the liveness equations, on random CFGs whose blocks read and write
/// a small pool of variables at random.
#[test]
fn dataflow_solver_matches_chaotic_iteration() {
    for seed in 0..CASES {
        let rng = &mut XorShift64Star::new(seed);
        let mut vars: Vec<Vreg> = Vec::new();
        let f = random_cfg_function(rng, |r, b| {
            if vars.is_empty() {
                vars = (0..6).map(|i| b.var(format!("x{i}"))).collect();
            }
            for _ in 0..r.range_i64(0, 4) {
                let pick = |r: &mut XorShift64Star| vars[r.below(vars.len() as u64) as usize];
                let (x, y, z) = (pick(r), pick(r), pick(r));
                match r.below(3) {
                    0 => b.copy_to(x, 7),
                    1 => {
                        let s = b.bin(BinOp::Add, y, z);
                        b.copy_to(x, s);
                    }
                    _ => b.print(x),
                }
            }
        });
        let cfg = Cfg::new(&f);
        let lv = Liveness::compute(&f, &cfg);

        // Upward-exposed uses and definitions, one instruction at a time.
        let nb = f.num_blocks();
        let mut uevar = vec![BTreeSet::new(); nb];
        let mut defs = vec![BTreeSet::new(); nb];
        for (id, block) in f.blocks.iter() {
            let bi = id.index();
            for inst in &block.insts {
                inst.for_each_use(|v| {
                    if !defs[bi].contains(&v.index()) {
                        uevar[bi].insert(v.index());
                    }
                });
                if let Some(d) = inst.def() {
                    defs[bi].insert(d.index());
                }
            }
            block.term.for_each_use(|v| {
                if !defs[bi].contains(&v.index()) {
                    uevar[bi].insert(v.index());
                }
            });
        }
        // Round-robin sweeps over the reachable blocks until nothing moves.
        let mut live_in: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nb];
        let mut live_out: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.rpo {
                let bi = b.index();
                let out: BTreeSet<usize> = cfg
                    .succs(b)
                    .iter()
                    .flat_map(|s| live_in[s.index()].iter().copied())
                    .collect();
                let inn: BTreeSet<usize> = uevar[bi]
                    .iter()
                    .chain(out.difference(&defs[bi]))
                    .copied()
                    .collect();
                changed |= inn != live_in[bi];
                live_in[bi] = inn;
                live_out[bi] = out;
            }
        }
        for b in 0..nb {
            let row = |m: &ipra_cfg::BitMatrix| m.iter_row(b).collect::<BTreeSet<usize>>();
            assert_eq!(row(&lv.uevar), uevar[b], "seed {seed}: uevar at bb{b}");
            assert_eq!(row(&lv.defs), defs[b], "seed {seed}: defs at bb{b}");
            assert_eq!(
                row(&lv.live_in),
                live_in[b],
                "seed {seed}: live_in at bb{b}"
            );
            assert_eq!(
                row(&lv.live_out),
                live_out[b],
                "seed {seed}: live_out at bb{b}"
            );
        }
    }
}
