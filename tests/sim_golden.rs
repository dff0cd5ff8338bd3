//! Golden pins for everything the simulator reports.
//!
//! `tests/table2_regression.rs` pins aggregate counts on two programs;
//! this file pins the *whole* [`SimResult`] — output, return value and
//! every [`ipra_sim::Stats`] field, including the per-function
//! attribution, the dynamic call edges, the per-edge penalty ledger and
//! the depth-histogram buckets — plus the block profile and the assembly
//! text (`MModule::asm`, what `mini-cc --emit asm` prints and the daemon
//! returns), for the 13 corpus programs under the seven `table-sweep`
//! configurations (`base`, `A`–`E`, `inline/C`). Each is rendered to a
//! stable text form and pinned by its FNV-1a digest, so any change to the
//! simulator's internals that moves a single counter, or to the printer
//! that moves a single byte, fails here.
//!
//! There is one test per configuration. On a mismatch it prints that
//! configuration's observed rows in the same form as [`PINS`].

use ipra_driver::{compile_only, Config};
use ipra_ir::Fnv64;
use ipra_sim::{SimOptions, SimResult};

/// `(workload, config, cycles, digest of the SimResult, digest of the
/// block profile, digest of the assembly text)`.
#[rustfmt::skip]
const PINS: &[(&str, &str, u64, u64, u64, u64)] = &[
    ("nim", "base", 2329750, 0xe3ac0a69716f526b, 0xf150169096b49595, 0x5087e9620177752a),
    ("nim", "A", 2320633, 0x3c6a834c94448a2f, 0xf150169096b49595, 0x87af98154baeedb0),
    ("nim", "B", 1960990, 0x6aa7579b1af75599, 0xf150169096b49595, 0x4fa4782505ba2eef),
    ("nim", "C", 1951873, 0x2bca7e51fbb587ec, 0xf150169096b49595, 0x759d27e0ddaf23ed),
    ("nim", "D", 2203369, 0xba5b5045c3adc05e, 0xf150169096b49595, 0xf3f1d1b1f24e2bd3),
    ("nim", "E", 2221701, 0xb789028f3816d635, 0xf150169096b49595, 0x55ce1a4a2e0af1a2),
    ("nim", "inline/C", 1654500, 0x2336b1f2b653b2cf, 0xd37862e60c6b8ce7, 0x0033480932b032e3),
    ("map", "base", 15517100, 0xd874442212114501, 0x9bc7c2897b27eeda, 0xd0ee041080075788),
    ("map", "A", 15486425, 0xaa00fc8e8fbbb2a1, 0x9bc7c2897b27eeda, 0xb3cfe8b4d9ac4e40),
    ("map", "B", 14873251, 0x2a41bcc67cf73254, 0x9bc7c2897b27eeda, 0x18ae672631ece011),
    ("map", "C", 14842576, 0xd15273f609a70e82, 0x9bc7c2897b27eeda, 0x7b658a0026dae164),
    ("map", "D", 14976717, 0x174c28e804f24916, 0x9bc7c2897b27eeda, 0xff69ad0660cbf502),
    ("map", "E", 15242462, 0xdf77d11db7c2bb35, 0x9bc7c2897b27eeda, 0x30219b4bd1f01cd8),
    ("map", "inline/C", 13352479, 0x48e0c102ecea008e, 0x540664bbc0ab2a43, 0x024decce1e426bf0),
    ("calcc", "base", 275283, 0x1ff21a588c9ba9db, 0xdcb26e15b13cf363, 0x57f12edc70d377f1),
    ("calcc", "A", 275283, 0x1ff21a588c9ba9db, 0xdcb26e15b13cf363, 0x57f12edc70d377f1),
    ("calcc", "B", 262224, 0x59e1eed1e473c5b5, 0xdcb26e15b13cf363, 0x57b18b0485694656),
    ("calcc", "C", 262224, 0x59e1eed1e473c5b5, 0xdcb26e15b13cf363, 0x57b18b0485694656),
    ("calcc", "D", 267848, 0xbdee257ec1a528d2, 0xdcb26e15b13cf363, 0x54786932158d6261),
    ("calcc", "E", 267869, 0xcc5aa99cf633ea37, 0xdcb26e15b13cf363, 0x1b78cc19e0350c6e),
    ("calcc", "inline/C", 236687, 0x4a21b78c6cb883e8, 0x2a635ad7d36c6898, 0x62775d640d853c7d),
    ("diff", "base", 472299, 0xa0f52d3e36b9feed, 0x8ae6b3a6a2c0e4d8, 0xb02fc36afa0c6068),
    ("diff", "A", 472299, 0xa0f52d3e36b9feed, 0x8ae6b3a6a2c0e4d8, 0xb02fc36afa0c6068),
    ("diff", "B", 463423, 0x13ffef482f5aaeed, 0x8ae6b3a6a2c0e4d8, 0x18bbf4fc4afb43e2),
    ("diff", "C", 463423, 0x13ffef482f5aaeed, 0x8ae6b3a6a2c0e4d8, 0x18bbf4fc4afb43e2),
    ("diff", "D", 463572, 0x9c31f83b73e7b0a6, 0x8ae6b3a6a2c0e4d8, 0xcc521240511f6551),
    ("diff", "E", 463593, 0x4918c0eb31e6097b, 0x8ae6b3a6a2c0e4d8, 0x4b729d69412f90eb),
    ("diff", "inline/C", 426021, 0xa45a9043836cb1ba, 0xbd224075f064e97e, 0x19153fa4800842e6),
    ("dhrystone", "base", 466212, 0x590594cef40ecf77, 0x30e0f304587add84, 0x6b9bae8c830849cd),
    ("dhrystone", "A", 466212, 0x590594cef40ecf77, 0x30e0f304587add84, 0x6b9bae8c830849cd),
    ("dhrystone", "B", 461995, 0x9de1c31b4271d66a, 0x30e0f304587add84, 0x221ce92f7f0a26b5),
    ("dhrystone", "C", 461995, 0x9de1c31b4271d66a, 0x30e0f304587add84, 0x221ce92f7f0a26b5),
    ("dhrystone", "D", 463677, 0x02206de07e7a777d, 0x30e0f304587add84, 0xbe46ae5d08f5fb70),
    ("dhrystone", "E", 463698, 0x2e8a0e1beee58a90, 0x30e0f304587add84, 0xd2a981e2f41b4af2),
    ("dhrystone", "inline/C", 457547, 0x22b063c292eca928, 0x04142b613f262411, 0xf6c7c406ee795cc6),
    ("stanford", "base", 1223735, 0xf40c1daf1a6c5f01, 0x7c3624e289df9c10, 0x23ef68fcb94360e8),
    ("stanford", "A", 1208339, 0xd229851505236c8e, 0x7c3624e289df9c10, 0x37d8519be17027b2),
    ("stanford", "B", 1223424, 0x6551acdcb23e49b1, 0x7c3624e289df9c10, 0x0d7ad0d9301adfb9),
    ("stanford", "C", 1208028, 0x861741952c96a1b1, 0x7c3624e289df9c10, 0x0522c11b4c0da74f),
    ("stanford", "D", 1243353, 0xbc32a6621bddd703, 0x7c3624e289df9c10, 0x8d3bf3e0107fbdf6),
    ("stanford", "E", 1361475, 0xac2940b59ffd1882, 0x7c3624e289df9c10, 0x745f86a92b48e424),
    ("stanford", "inline/C", 1196367, 0x6e16a605ced0edef, 0x33860a2cca44f833, 0x07376804f7452bb9),
    ("pf", "base", 65091, 0xcc780ffb084ff3b2, 0x322a89442e501f23, 0xda9e227bb92eddf5),
    ("pf", "A", 65091, 0xcc780ffb084ff3b2, 0x322a89442e501f23, 0xda9e227bb92eddf5),
    ("pf", "B", 62945, 0xdf79b8ca177d5002, 0x322a89442e501f23, 0x5055c3fc94379348),
    ("pf", "C", 62945, 0xdf79b8ca177d5002, 0x322a89442e501f23, 0x5055c3fc94379348),
    ("pf", "D", 64770, 0x7826be11796a6a45, 0x322a89442e501f23, 0x58b289a9e6b6edd6),
    ("pf", "E", 67096, 0xa24cec863c5f8a18, 0x322a89442e501f23, 0x5d20086120b93f09),
    ("pf", "inline/C", 60906, 0x4eb8b8e5a0392bb9, 0x7bf430eea8c6c43e, 0x7c2c54091f783d45),
    ("awk", "base", 1127829, 0x0c25131feaf800c7, 0x4c3bdba0b95bf4e6, 0xb6c8dba131ac45a6),
    ("awk", "A", 1127829, 0x0c25131feaf800c7, 0x4c3bdba0b95bf4e6, 0xb6c8dba131ac45a6),
    ("awk", "B", 1120029, 0x4d5de33b3943103e, 0x4c3bdba0b95bf4e6, 0xface46a59d87d908),
    ("awk", "C", 1120029, 0x4d5de33b3943103e, 0x4c3bdba0b95bf4e6, 0xface46a59d87d908),
    ("awk", "D", 1209588, 0xcae8b595f19f6c64, 0x4c3bdba0b95bf4e6, 0x414ceda936a4878f),
    ("awk", "E", 1248156, 0x28b72188a9421b99, 0x4c3bdba0b95bf4e6, 0xf3bc07b6fb34eeef),
    ("awk", "inline/C", 1103613, 0x76c9afd93467600b, 0x839b193fb0a432b6, 0x8086a5106570ee18),
    ("tex", "base", 4319189, 0xff5acd9b3afbaaee, 0x03a341c7d1e808b8, 0x0e3fd28fbf344a6e),
    ("tex", "A", 4319189, 0xff5acd9b3afbaaee, 0x03a341c7d1e808b8, 0x0e3fd28fbf344a6e),
    ("tex", "B", 4088615, 0xfcc0d37487285f15, 0x03a341c7d1e808b8, 0x1f1ebcdc5f57645d),
    ("tex", "C", 4088615, 0xfcc0d37487285f15, 0x03a341c7d1e808b8, 0x1f1ebcdc5f57645d),
    ("tex", "D", 4386598, 0xd8a3fa21fd04fff4, 0x03a341c7d1e808b8, 0xa0f86cc813607292),
    ("tex", "E", 4386619, 0x5b9ea50e9f417dd6, 0x03a341c7d1e808b8, 0xaccf79f18e0e20e4),
    ("tex", "inline/C", 3966006, 0x72567d0c8bcf3e24, 0xfcb473c000d6a542, 0x2fc9d7450e341b5c),
    ("ccom", "base", 1142376, 0x2d18e5dcdffcaf0d, 0xd790d44abd0fdb1a, 0x0143f6b31e79c38d),
    ("ccom", "A", 1141440, 0x076b13df675c62cc, 0xd790d44abd0fdb1a, 0x9f2d25be94d464b3),
    ("ccom", "B", 1146976, 0x3b5de4bad5ddd6bd, 0xd790d44abd0fdb1a, 0x484cfde625a5317e),
    ("ccom", "C", 1137841, 0x3c82465c97b272de, 0xd790d44abd0fdb1a, 0x8a67ca33b5d4f79e),
    ("ccom", "D", 1138511, 0x02b63313aa4afa5a, 0xd790d44abd0fdb1a, 0x266632e469566096),
    ("ccom", "E", 1159873, 0x73d32581541b9338, 0xd790d44abd0fdb1a, 0xfc559ad8523c726e),
    ("ccom", "inline/C", 1122742, 0x9206e513715fc3de, 0x7f1711f8cce844f1, 0x2e9e2e956c7bd5b9),
    ("as1", "base", 294595, 0x549fbdd5356362f7, 0x03bb930b2adf4eb7, 0x610f28212d8aefba),
    ("as1", "A", 294595, 0x549fbdd5356362f7, 0x03bb930b2adf4eb7, 0x610f28212d8aefba),
    ("as1", "B", 291518, 0xaba369905c17049b, 0x03bb930b2adf4eb7, 0x07b39609b02faf0e),
    ("as1", "C", 291518, 0xaba369905c17049b, 0x03bb930b2adf4eb7, 0x07b39609b02faf0e),
    ("as1", "D", 293840, 0xedb53a9fd78815b5, 0x03bb930b2adf4eb7, 0x8e0500582b9b9837),
    ("as1", "E", 293861, 0x9b5fb7b76beb431e, 0x03bb930b2adf4eb7, 0x390e590d60ff30da),
    ("as1", "inline/C", 290628, 0x5f21e722f84e0e1d, 0xbe41be4c7a0b670e, 0xb9cc3aac1177b748),
    ("upas", "base", 99530, 0xc1c57f8dc5df3fa4, 0xee8e150041975a1f, 0x279fd1b03f1f632c),
    ("upas", "A", 99323, 0x6fcc10ef9b50d61d, 0xee8e150041975a1f, 0xfdf4f391ab17f996),
    ("upas", "B", 98215, 0xd5377c3a6ca04f0e, 0xee8e150041975a1f, 0x1a48b19054709716),
    ("upas", "C", 98215, 0xd5377c3a6ca04f0e, 0xee8e150041975a1f, 0x1a48b19054709716),
    ("upas", "D", 98580, 0xca7d18653d87aa76, 0xee8e150041975a1f, 0xa47ad0b02dd623d9),
    ("upas", "E", 100893, 0x8f8cff0e2d3102e7, 0xee8e150041975a1f, 0x9d8b440edea83e2a),
    ("upas", "inline/C", 95435, 0x27a963f3c703e610, 0xbb6075e4d95535d0, 0xf143fd84f06465cf),
    ("uopt", "base", 1647584, 0x43bdca927a93c697, 0x62a0a9be8a89e240, 0x83c59dc0288bac9b),
    ("uopt", "A", 1647584, 0x43bdca927a93c697, 0x62a0a9be8a89e240, 0x83c59dc0288bac9b),
    ("uopt", "B", 1646675, 0xfd5ca59b80c35f62, 0x62a0a9be8a89e240, 0x491db43be2b354ac),
    ("uopt", "C", 1646675, 0xfd5ca59b80c35f62, 0x62a0a9be8a89e240, 0x491db43be2b354ac),
    ("uopt", "D", 1648937, 0x4f37052eb43c329f, 0x62a0a9be8a89e240, 0x420e1e6da6adfcf3),
    ("uopt", "E", 1656533, 0xd3764a923696545e, 0x62a0a9be8a89e240, 0x2d7aad3093a692f8),
    ("uopt", "inline/C", 1630391, 0x642f1de95f7398d1, 0x693fae160dc17bc3, 0xfa1d7ef71b27228e),
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

/// Simulates every corpus program under `config`, plain and with block
/// profiling, renders its assembly, and compares all three against the
/// pins.
fn check(config: Config) {
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
            digest(&compiled.mmodule.asm(regs)),
        ));
    }
    let pinned: Vec<_> = PINS
        .iter()
        .filter(|pin| pin.1 == config.name)
        .map(|&(w, _, cycles, d, p, a)| (w, cycles, d, p, a))
        .collect();
    let table: String = observed
        .iter()
        .map(|(w, cycles, d, p, a)| {
            let c = &config.name;
            format!("    (\"{w}\", \"{c}\", {cycles}, {d:#018x}, {p:#018x}, {a:#018x}),\n")
        })
        .collect();
    assert!(
        observed == pinned,
        "simulator results or assembly moved under {}; observed:\n{table}",
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
    let config = Config::c();
    let regs = &config.target.regs;
    for name in ["pf", "upas", "calcc"] {
        let &(_, _, cycles, pinned, _, _) = PINS
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
