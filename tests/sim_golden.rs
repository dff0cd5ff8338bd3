//! Golden pins for everything the simulator reports.
//!
//! `tests/table2_regression.rs` pins aggregate counts on two programs;
//! this file pins the *whole* [`SimResult`] — output, return value and
//! every [`ipra_sim::Stats`] field, including the per-function
//! attribution, the dynamic call edges, the per-edge penalty ledger and
//! the depth-histogram buckets — plus the block profile, for the 13
//! corpus programs under the seven `table-sweep` configurations (`base`,
//! `A`–`E`, `inline/C`, all at `jobs = 1`). Each pair is rendered to a
//! stable text form and pinned by its FNV-1a digest, so any change to the
//! simulator's internals that moves a single counter fails here.
//!
//! There is one test per configuration. On a mismatch it prints that
//! configuration's observed rows in the same form as [`PINS`].

use ipra_driver::{compile_only, Config};
use ipra_ir::Fnv64;
use ipra_sim::{SimOptions, SimResult};

/// `(workload, config, cycles, digest of the SimResult, digest of the
/// block profile)`.
#[rustfmt::skip]
const PINS: &[(&str, &str, u64, u64, u64)] = &[
    ("nim", "base", 2329750, 0xe3ac0a69716f526b, 0xf150169096b49595),
    ("nim", "A", 2320633, 0x3c6a834c94448a2f, 0xf150169096b49595),
    ("nim", "B", 1960990, 0x6aa7579b1af75599, 0xf150169096b49595),
    ("nim", "C", 1951873, 0x2bca7e51fbb587ec, 0xf150169096b49595),
    ("nim", "D", 2203369, 0xba5b5045c3adc05e, 0xf150169096b49595),
    ("nim", "E", 2221701, 0xb789028f3816d635, 0xf150169096b49595),
    ("nim", "inline/C", 1654500, 0x2336b1f2b653b2cf, 0xd37862e60c6b8ce7),
    ("map", "base", 15517100, 0xd874442212114501, 0x9bc7c2897b27eeda),
    ("map", "A", 15486425, 0xaa00fc8e8fbbb2a1, 0x9bc7c2897b27eeda),
    ("map", "B", 14873251, 0x2a41bcc67cf73254, 0x9bc7c2897b27eeda),
    ("map", "C", 14842576, 0xd15273f609a70e82, 0x9bc7c2897b27eeda),
    ("map", "D", 14976717, 0x174c28e804f24916, 0x9bc7c2897b27eeda),
    ("map", "E", 15242462, 0xdf77d11db7c2bb35, 0x9bc7c2897b27eeda),
    ("map", "inline/C", 13352479, 0x48e0c102ecea008e, 0x540664bbc0ab2a43),
    ("calcc", "base", 275283, 0x1ff21a588c9ba9db, 0xdcb26e15b13cf363),
    ("calcc", "A", 275283, 0x1ff21a588c9ba9db, 0xdcb26e15b13cf363),
    ("calcc", "B", 262224, 0x59e1eed1e473c5b5, 0xdcb26e15b13cf363),
    ("calcc", "C", 262224, 0x59e1eed1e473c5b5, 0xdcb26e15b13cf363),
    ("calcc", "D", 267848, 0xbdee257ec1a528d2, 0xdcb26e15b13cf363),
    ("calcc", "E", 267869, 0xcc5aa99cf633ea37, 0xdcb26e15b13cf363),
    ("calcc", "inline/C", 236687, 0x4a21b78c6cb883e8, 0x2a635ad7d36c6898),
    ("diff", "base", 472299, 0xa0f52d3e36b9feed, 0x8ae6b3a6a2c0e4d8),
    ("diff", "A", 472299, 0xa0f52d3e36b9feed, 0x8ae6b3a6a2c0e4d8),
    ("diff", "B", 463423, 0x13ffef482f5aaeed, 0x8ae6b3a6a2c0e4d8),
    ("diff", "C", 463423, 0x13ffef482f5aaeed, 0x8ae6b3a6a2c0e4d8),
    ("diff", "D", 463572, 0x9c31f83b73e7b0a6, 0x8ae6b3a6a2c0e4d8),
    ("diff", "E", 463593, 0x4918c0eb31e6097b, 0x8ae6b3a6a2c0e4d8),
    ("diff", "inline/C", 426021, 0xa45a9043836cb1ba, 0xbd224075f064e97e),
    ("dhrystone", "base", 466212, 0x590594cef40ecf77, 0x30e0f304587add84),
    ("dhrystone", "A", 466212, 0x590594cef40ecf77, 0x30e0f304587add84),
    ("dhrystone", "B", 461995, 0x9de1c31b4271d66a, 0x30e0f304587add84),
    ("dhrystone", "C", 461995, 0x9de1c31b4271d66a, 0x30e0f304587add84),
    ("dhrystone", "D", 463677, 0x02206de07e7a777d, 0x30e0f304587add84),
    ("dhrystone", "E", 463698, 0x2e8a0e1beee58a90, 0x30e0f304587add84),
    ("dhrystone", "inline/C", 457547, 0x22b063c292eca928, 0x04142b613f262411),
    ("stanford", "base", 1223735, 0xf40c1daf1a6c5f01, 0x7c3624e289df9c10),
    ("stanford", "A", 1208339, 0xd229851505236c8e, 0x7c3624e289df9c10),
    ("stanford", "B", 1223424, 0x6551acdcb23e49b1, 0x7c3624e289df9c10),
    ("stanford", "C", 1208028, 0x861741952c96a1b1, 0x7c3624e289df9c10),
    ("stanford", "D", 1243353, 0xbc32a6621bddd703, 0x7c3624e289df9c10),
    ("stanford", "E", 1361475, 0xac2940b59ffd1882, 0x7c3624e289df9c10),
    ("stanford", "inline/C", 1196367, 0x6e16a605ced0edef, 0x33860a2cca44f833),
    ("pf", "base", 65091, 0xcc780ffb084ff3b2, 0x322a89442e501f23),
    ("pf", "A", 65091, 0xcc780ffb084ff3b2, 0x322a89442e501f23),
    ("pf", "B", 62945, 0xdf79b8ca177d5002, 0x322a89442e501f23),
    ("pf", "C", 62945, 0xdf79b8ca177d5002, 0x322a89442e501f23),
    ("pf", "D", 64770, 0x7826be11796a6a45, 0x322a89442e501f23),
    ("pf", "E", 67096, 0xa24cec863c5f8a18, 0x322a89442e501f23),
    ("pf", "inline/C", 60906, 0x4eb8b8e5a0392bb9, 0x7bf430eea8c6c43e),
    ("awk", "base", 1127829, 0x0c25131feaf800c7, 0x4c3bdba0b95bf4e6),
    ("awk", "A", 1127829, 0x0c25131feaf800c7, 0x4c3bdba0b95bf4e6),
    ("awk", "B", 1120029, 0x4d5de33b3943103e, 0x4c3bdba0b95bf4e6),
    ("awk", "C", 1120029, 0x4d5de33b3943103e, 0x4c3bdba0b95bf4e6),
    ("awk", "D", 1209588, 0xcae8b595f19f6c64, 0x4c3bdba0b95bf4e6),
    ("awk", "E", 1248156, 0x28b72188a9421b99, 0x4c3bdba0b95bf4e6),
    ("awk", "inline/C", 1103613, 0x76c9afd93467600b, 0x839b193fb0a432b6),
    ("tex", "base", 4319189, 0xff5acd9b3afbaaee, 0x03a341c7d1e808b8),
    ("tex", "A", 4319189, 0xff5acd9b3afbaaee, 0x03a341c7d1e808b8),
    ("tex", "B", 4088615, 0xfcc0d37487285f15, 0x03a341c7d1e808b8),
    ("tex", "C", 4088615, 0xfcc0d37487285f15, 0x03a341c7d1e808b8),
    ("tex", "D", 4386598, 0xd8a3fa21fd04fff4, 0x03a341c7d1e808b8),
    ("tex", "E", 4386619, 0x5b9ea50e9f417dd6, 0x03a341c7d1e808b8),
    ("tex", "inline/C", 3966006, 0x72567d0c8bcf3e24, 0xfcb473c000d6a542),
    ("ccom", "base", 1142376, 0x2d18e5dcdffcaf0d, 0xd790d44abd0fdb1a),
    ("ccom", "A", 1141440, 0x076b13df675c62cc, 0xd790d44abd0fdb1a),
    ("ccom", "B", 1146976, 0x3b5de4bad5ddd6bd, 0xd790d44abd0fdb1a),
    ("ccom", "C", 1137841, 0x3c82465c97b272de, 0xd790d44abd0fdb1a),
    ("ccom", "D", 1138511, 0x02b63313aa4afa5a, 0xd790d44abd0fdb1a),
    ("ccom", "E", 1159873, 0x73d32581541b9338, 0xd790d44abd0fdb1a),
    ("ccom", "inline/C", 1122742, 0x9206e513715fc3de, 0x7f1711f8cce844f1),
    ("as1", "base", 294595, 0x549fbdd5356362f7, 0x03bb930b2adf4eb7),
    ("as1", "A", 294595, 0x549fbdd5356362f7, 0x03bb930b2adf4eb7),
    ("as1", "B", 291518, 0xaba369905c17049b, 0x03bb930b2adf4eb7),
    ("as1", "C", 291518, 0xaba369905c17049b, 0x03bb930b2adf4eb7),
    ("as1", "D", 293840, 0xedb53a9fd78815b5, 0x03bb930b2adf4eb7),
    ("as1", "E", 293861, 0x9b5fb7b76beb431e, 0x03bb930b2adf4eb7),
    ("as1", "inline/C", 290628, 0x5f21e722f84e0e1d, 0xbe41be4c7a0b670e),
    ("upas", "base", 99530, 0xc1c57f8dc5df3fa4, 0xee8e150041975a1f),
    ("upas", "A", 99323, 0x6fcc10ef9b50d61d, 0xee8e150041975a1f),
    ("upas", "B", 98215, 0xd5377c3a6ca04f0e, 0xee8e150041975a1f),
    ("upas", "C", 98215, 0xd5377c3a6ca04f0e, 0xee8e150041975a1f),
    ("upas", "D", 98580, 0xca7d18653d87aa76, 0xee8e150041975a1f),
    ("upas", "E", 100893, 0x8f8cff0e2d3102e7, 0xee8e150041975a1f),
    ("upas", "inline/C", 95435, 0x27a963f3c703e610, 0xbb6075e4d95535d0),
    ("uopt", "base", 1647584, 0x43bdca927a93c697, 0x62a0a9be8a89e240),
    ("uopt", "A", 1647584, 0x43bdca927a93c697, 0x62a0a9be8a89e240),
    ("uopt", "B", 1646675, 0xfd5ca59b80c35f62, 0x62a0a9be8a89e240),
    ("uopt", "C", 1646675, 0xfd5ca59b80c35f62, 0x62a0a9be8a89e240),
    ("uopt", "D", 1648937, 0x4f37052eb43c329f, 0x62a0a9be8a89e240),
    ("uopt", "E", 1656533, 0xd3764a923696545e, 0x62a0a9be8a89e240),
    ("uopt", "inline/C", 1630391, 0x642f1de95f7398d1, 0x693fae160dc17bc3),
];

/// One line per field, every collection spelled out element by element.
fn render(r: &SimResult) -> String {
    use std::fmt::Write;
    let s = &r.stats;
    let mut out = String::new();
    let _ = writeln!(out, "output {:?}", r.output);
    let _ = writeln!(out, "return_value {}", r.return_value);
    let _ = writeln!(
        out,
        "cycles {} insts {} calls {}",
        s.cycles, s.insts, s.calls
    );
    let _ = writeln!(
        out,
        "loads {:?} stores {:?}",
        s.loads_by_class, s.stores_by_class
    );
    let h = &s.depth_hist;
    let _ = writeln!(out, "depth count {} sum {} max {}", h.count, h.sum, h.max);
    for (lo, hi, n) in h.buckets() {
        let _ = writeln!(out, "depth [{lo}, {hi}) {n}");
    }
    for (i, f) in s.per_func.iter().enumerate() {
        let _ = writeln!(
            out,
            "func {i} cycles {} insts {} calls {} loads {:?} stores {:?}",
            f.cycles, f.insts, f.calls, f.loads_by_class, f.stores_by_class
        );
    }
    for (a, b, n) in &s.call_edges {
        let _ = writeln!(out, "call {a} -> {b} x{n}");
    }
    for e in &s.edge_penalty {
        let _ = writeln!(
            out,
            "edge {} -> {} calls {} sr {}/{} spill {}/{} penalty {}",
            e.caller,
            e.callee,
            e.calls,
            e.sr_loads,
            e.sr_stores,
            e.spill_loads,
            e.spill_stores,
            e.penalty_cycles
        );
    }
    let _ = writeln!(out, "profile {}", r.block_profile.is_some());
    out
}

fn render_profile(profile: &[Vec<u64>]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (i, counts) in profile.iter().enumerate() {
        let _ = writeln!(out, "func {i} {counts:?}");
    }
    out
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(text);
    h.finish()
}

/// Simulates every corpus program under `config` at `jobs = 1`, plain
/// and with block profiling, and compares both against the pins.
fn check(mut config: Config) {
    config.opts.jobs = 1;
    let regs = &config.target.regs;
    let mut observed = Vec::new();
    for w in ipra_workloads::all() {
        let module = ipra_workloads::compile_workload(w).unwrap();
        let compiled = compile_only(&module, &config);
        let opts = SimOptions::for_target(regs).check_preservation(compiled.clobber_masks());
        let tag = format!("{}/{}", w.name, config.name);
        let plain = ipra_sim::run(&compiled.mmodule, regs, &opts)
            .unwrap_or_else(|t| panic!("[{tag}] trapped: {t}"));
        let profiled = ipra_sim::run(&compiled.mmodule, regs, &opts.with_block_profile())
            .unwrap_or_else(|t| panic!("[{tag}] trapped with profiling: {t}"));
        assert_eq!(
            profiled.stats, plain.stats,
            "[{tag}] profiling changed the statistics"
        );
        assert_eq!(profiled.output, plain.output, "[{tag}] output");
        let profile = profiled.block_profile.expect("profile requested");
        observed.push((
            w.name,
            plain.stats.cycles,
            digest(&render(&plain)),
            digest(&render_profile(&profile)),
        ));
    }
    let pinned: Vec<_> = PINS
        .iter()
        .filter(|pin| pin.1 == config.name)
        .map(|&(w, _, cycles, d, p)| (w, cycles, d, p))
        .collect();
    let table: String = observed
        .iter()
        .map(|(w, cycles, d, p)| {
            let c = &config.name;
            format!("    (\"{w}\", \"{c}\", {cycles}, {d:#018x}, {p:#018x}),\n")
        })
        .collect();
    assert!(
        observed == pinned,
        "simulator results moved under {}; observed:\n{table}",
        config.name
    );
}

#[test]
fn base_matches_pins() {
    check(Config::o2_base());
}

#[test]
fn a_matches_pins() {
    check(Config::a());
}

#[test]
fn b_matches_pins() {
    check(Config::b());
}

#[test]
fn c_matches_pins() {
    check(Config::c());
}

#[test]
fn d_matches_pins() {
    check(Config::d());
}

#[test]
fn e_matches_pins() {
    check(Config::e());
}

#[test]
fn inline_c_matches_pins() {
    check(Config::inline_c());
}

/// The fuel bound is exact on real programs: a budget of exactly the
/// pinned cycle count finishes with the pinned result, and one cycle
/// less runs out of fuel.
#[test]
fn fuel_of_exactly_the_pinned_cycles_suffices_and_one_less_does_not() {
    let mut config = Config::c();
    config.opts.jobs = 1;
    let regs = &config.target.regs;
    for name in ["pf", "upas", "calcc"] {
        let &(_, _, cycles, pinned, _) = PINS
            .iter()
            .find(|pin| pin.0 == name && pin.1 == "C")
            .expect("pinned under C");
        let w = ipra_workloads::by_name(name).expect("corpus workload");
        let module = ipra_workloads::compile_workload(w).unwrap();
        let compiled = compile_only(&module, &config);
        let mut opts = SimOptions::for_target(regs).check_preservation(compiled.clobber_masks());
        opts.fuel = cycles;
        let r = ipra_sim::run(&compiled.mmodule, regs, &opts)
            .unwrap_or_else(|t| panic!("[{name}] trapped with fuel {cycles}: {t}"));
        assert_eq!(r.stats.cycles, cycles, "[{name}] cycles");
        assert_eq!(digest(&render(&r)), pinned, "[{name}] result");
        opts.fuel = cycles - 1;
        assert_eq!(
            ipra_sim::run(&compiled.mmodule, regs, &opts).unwrap_err(),
            ipra_sim::SimTrap::OutOfFuel,
            "[{name}] fuel {}",
            cycles - 1
        );
    }
}
