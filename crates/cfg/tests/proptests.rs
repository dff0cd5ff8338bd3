//! Property tests of the analysis substrate: bitset algebra, dominator
//! laws, loop facts and data-flow fixpoint properties on random graphs.
//! Each property runs over `CASES` seeds of the workspace PRNG; a failure
//! names its seed, and `XorShift64Star::new(seed)` replays that case.

use std::collections::BTreeSet;

use ipra_cfg::{solve, BitSet, Cfg, Direction, Dominators, GenKill, Liveness, LoopInfo, Meet};
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{BinOp, Function};
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
/// irreducible.
fn random_function(rng: &mut XorShift64Star) -> Function {
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
        // A use and a def so liveness has something to chew on.
        let v = b.bin(BinOp::Add, 1, 2);
        b.print(v);
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

/// Bitset union/intersection/difference behave like sets.
#[test]
fn bitset_algebra() {
    for seed in 0..CASES {
        let rng = &mut XorShift64Star::new(seed);
        let mut set = || -> BTreeSet<usize> {
            vec_of(rng, 0, 40, |r| r.below(200) as usize)
                .into_iter()
                .collect()
        };
        let (sa, sb) = (set(), set());
        let bits = |s: &BTreeSet<usize>| {
            let mut b = BitSet::new(200);
            for &x in s {
                b.insert(x);
            }
            b
        };
        let (a, b) = (bits(&sa), bits(&sb));

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(
            u.iter().collect::<BTreeSet<_>>(),
            sa.union(&sb).copied().collect(),
            "seed {seed}: union"
        );
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(
            i.iter().collect::<BTreeSet<_>>(),
            sa.intersection(&sb).copied().collect(),
            "seed {seed}: intersection"
        );
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(
            d.iter().collect::<BTreeSet<_>>(),
            sa.difference(&sb).copied().collect(),
            "seed {seed}: difference"
        );
        assert_eq!(
            a.intersects(&b),
            !sa.is_disjoint(&sb),
            "seed {seed}: intersects"
        );
        assert_eq!(a.count(), sa.len(), "seed {seed}: count");
    }
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
            let mut out = BitSet::new(f.num_vregs());
            for s in cfg.succs(b) {
                out.union_with(&lv.live_in[s.index()]);
            }
            assert_eq!(out, lv.live_out[bi], "seed {seed}: live_out at {b}");
            let mut inn = lv.live_out[bi].clone();
            inn.subtract(&lv.defs[bi]);
            inn.union_with(&lv.uevar[bi]);
            assert_eq!(inn, lv.live_in[bi], "seed {seed}: live_in at {b}");
        }
    }
}

/// The generic solver agrees with a naive chaotic iteration on random
/// gen/kill problems, in all four direction/meet combinations.
#[test]
fn dataflow_solver_matches_chaotic_iteration() {
    for seed in 0..CASES {
        let rng = &mut XorShift64Star::new(seed);
        let f = random_function(rng);
        let gens = vec_of(rng, 1, 12, |r| r.below(256) as u32);
        let kills = vec_of(rng, 1, 12, |r| r.below(256) as u32);
        let forward = rng.coin();
        let union = rng.coin();

        let cfg = Cfg::new(&f);
        let nb = cfg.num_blocks();
        let bits = 8;
        let set = |mask: u32| {
            let mut s = BitSet::new(bits);
            for t in (0..bits).filter(|t| mask & (1 << t) != 0) {
                s.insert(t);
            }
            s
        };
        let transfer: Vec<GenKill> = (0..nb)
            .map(|i| GenKill {
                gen: set(gens[i % gens.len()]),
                kill: set(kills[i % kills.len()]),
            })
            .collect();
        let dir = if forward {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let meet = if union { Meet::Union } else { Meet::Intersect };
        let boundary = BitSet::new(bits);
        let r = solve(&cfg, dir, meet, &boundary, &transfer);

        // Chaotic iteration from the same initial values.
        let bottom = || {
            if union {
                BitSet::new(bits)
            } else {
                BitSet::full(bits)
            }
        };
        let mut inp: Vec<BitSet> = (0..nb).map(|_| bottom()).collect();
        let mut out: Vec<BitSet> = (0..nb).map(|_| bottom()).collect();
        for _ in 0..(nb * 10 + 10) {
            for &b in &cfg.rpo {
                let bi = b.index();
                let neigh: Vec<usize> = if forward {
                    cfg.preds(b).iter().map(|p| p.index()).collect()
                } else {
                    cfg.succs(b).iter().map(|s| s.index()).collect()
                };
                let is_boundary = if forward {
                    b == cfg.entry
                } else {
                    neigh.is_empty()
                };
                let met = if is_boundary {
                    boundary.clone()
                } else if neigh.is_empty() {
                    bottom()
                } else {
                    let side = if forward { &out } else { &inp };
                    let mut acc = side[neigh[0]].clone();
                    for &x in &neigh[1..] {
                        if union {
                            acc.union_with(&side[x]);
                        } else {
                            acc.intersect_with(&side[x]);
                        }
                    }
                    acc
                };
                let mut xfer = met.clone();
                xfer.subtract(&transfer[bi].kill);
                xfer.union_with(&transfer[bi].gen);
                if forward {
                    inp[bi] = met;
                    out[bi] = xfer;
                } else {
                    out[bi] = met;
                    inp[bi] = xfer;
                }
            }
        }
        for &b in &cfg.rpo {
            let bi = b.index();
            assert_eq!(r.entry[bi], inp[bi], "seed {seed}: entry value at {b}");
            assert_eq!(r.exit[bi], out[bi], "seed {seed}: exit value at {b}");
        }
    }
}
