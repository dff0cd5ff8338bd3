//! Pins the reproduction of the paper's Figures 1, 3 and 4, the §5
//! iteration claim, the design ablations and the §8 profile-feedback study
//! to exact simulated counts, and checks EXPERIMENTS.md's Table 1 and
//! Table 2 rows against `table_row`. EXPERIMENTS.md quotes the pinned
//! counts; a change that moves one updates both.

use ipra_driver::{compile_and_run, compile_only, profile_guided, table_row, Config};
use ipra_ir::Module;
use ipra_machine::{MemClass, PReg, RegMask, Target};

fn compile(src: &str) -> Module {
    ipra_frontend::compile(src).expect("figure module compiles")
}

fn workload(name: &str) -> Module {
    ipra_workloads::compile_workload(ipra_workloads::by_name(name).expect("bundled workload"))
        .expect("workload compiles")
}

/// Dynamic save/restore memory operations of one simulated run.
fn save_restore_ops(module: &Module, config: &Config) -> u64 {
    let m = compile_and_run(module, config).expect("runs");
    m.stats.loads(MemClass::SaveRestore) + m.stats.stores(MemClass::SaveRestore)
}

/// Figure 1: p's `a` dies at the call to q, and neither q's `c` nor p's
/// later `b` overlaps it.
const FIG1: &str = r#"
    fn q(x: int) -> int {
        var c: int = x * 2;
        return c + 1;
    }
    fn p(x: int) -> int {
        var a: int = x + 3;
        var r: int = q(a);
        var b: int = r * 5;
        return b - 1;
    }
    fn main() {
        var i: int = 0;
        var acc: int = 0;
        while i < 100 {
            acc = acc + p(i);
            i = i + 1;
        }
        print(acc);
    }
"#;

/// One register serves all three variables although p and q are active at
/// the same time, and no variable register is ever saved.
#[test]
fn fig1_one_register_serves_simultaneously_active_procedures() {
    let module = compile(FIG1);
    let compiled = compile_only(&module, &Config::c());
    let r4: RegMask = [PReg(4)].into_iter().collect();
    for name in ["p", "q"] {
        let r = compiled.reports.iter().find(|r| r.name == name).unwrap();
        assert_eq!((r.used, r.locally_saved), (r4, RegMask::EMPTY), "{name}");
    }
    // The link register of main (1 activation) and p (100 activations),
    // one save and one restore each.
    assert_eq!(save_restore_ops(&module, &Config::c()), 202);
}

/// Figure 3: two consecutive diamonds run 50 times; callee-saved state is
/// needed only in the first diamond's left arm, taken when `f1 == 1`.
fn fig3_module(f1: i64, f2: i64) -> Module {
    compile(&format!(
        r#"
        fn helper(x: int) -> int {{ return x + 1; }}
        fn work(f1: int, f2: int) -> int {{
            var r: int = 0;
            if f1 == 1 {{
                var k1: int = 10;
                var k2: int = 20;
                var c1: int = helper(k1);
                var c2: int = helper(k2);
                r = c1 + c2 + k1 + k2;
            }} else {{
                r = 1;
            }}
            if f2 == 1 {{
                r = r * 2;
            }} else {{
                r = r + 5;
            }}
            return r;
        }}
        fn main() {{
            var i: int = 0;
            var acc: int = 0;
            while i < 50 {{
                acc = acc + work({f1}, {f2});
                i = i + 1;
            }}
            print(acc);
        }}
        "#
    ))
}

/// Shrink-wrapping helps the two paths that skip the left arm and leaves
/// the two through it unchanged. No path loses: range extension never adds the
/// branches that edge splitting would.
#[test]
fn fig3_shrink_wrap_effect_depends_on_the_path() {
    // (f1, f2), save/restore ops under base (no shrink-wrap) and A.
    const FIG3: [((i64, i64), u64, u64); 4] = [
        ((1, 1), 506, 506),
        ((1, 0), 506, 506),
        ((0, 1), 406, 306),
        ((0, 0), 406, 306),
    ];
    for ((f1, f2), no_sw, sw) in FIG3 {
        let module = fig3_module(f1, f2);
        let path = format!("path ({f1},{f2})");
        assert_eq!(
            save_restore_ops(&module, &Config::o2_base()),
            no_sw,
            "{path} base"
        );
        assert_eq!(save_restore_ops(&module, &Config::a()), sw, "{path} A");
    }
}

/// Figure 4: p keeps `keep` live across `nq` calls to the cheap q and `nr`
/// calls to the register-hungry r; main calls p 25 times.
fn fig4_module(nq: i64, nr: i64) -> Module {
    compile(&format!(
        r#"
        fn q(x: int) -> int {{ return x + 1; }}
        fn r(x: int) -> int {{
            var b0: int = x + 1;  var b1: int = x * 3;  var b2: int = x - 7;
            var b3: int = x * 5;  var b4: int = b0 + b1; var b5: int = b2 + b3;
            var b6: int = b4 * b5 % 1009; var b7: int = b0 + b5;
            var b8: int = b1 + b6; var b9: int = b7 + b8;
            var b10: int = b9 + b2; var b11: int = b10 * 3;
            var b12: int = b11 + b4; var b13: int = b12 - b6;
            var b14: int = b13 + b7; var b15: int = b14 * 7 % 2003;
            var b16: int = b15 + b8; var b17: int = b16 + b9;
            return b0 + b3 + b6 + b9 + b12 + b15 + b17;
        }}
        fn p(x: int) -> int {{
            var keep: int = x * 11 + 3;
            var acc: int = 0;
            var i: int = 0;
            while i < {nq} {{
                acc = acc + q(keep + i);
                i = i + 1;
            }}
            var j: int = 0;
            while j < {nr} {{
                acc = acc + r(keep + j);
                j = j + 1;
            }}
            return acc + keep;
        }}
        fn main() {{
            var t: int = 0;
            var k: int = 0;
            while k < 25 {{
                t = t + p(k);
                k = k + 1;
            }}
            print(t);
        }}
        "#
    ))
}

/// C cuts save/restore traffic from 206 to 52 operations at every call
/// ratio; its cycle gain over base falls from 1.14% (q-heavy) to 0.14%
/// (r-heavy) and is never negative.
#[test]
fn fig4_save_placement_tracks_call_frequency() {
    // (q calls, r calls) per p activation, cycles under base and C.
    const FIG4: [((i64, i64), u64, u64); 5] = [
        ((40, 1), 20_242, 20_011),
        ((20, 5), 28_842, 28_611),
        ((10, 10), 45_217, 44_986),
        ((5, 20), 83_592, 83_361),
        ((1, 40), 162_592, 162_361),
    ];
    for ((nq, nr), base_cycles, c_cycles) in FIG4 {
        let module = fig4_module(nq, nr);
        for (config, cycles, saves) in [
            (Config::o2_base(), base_cycles, 206),
            (Config::c(), c_cycles, 52),
        ] {
            let m = compile_and_run(&module, &config).expect("runs");
            let tag = format!("({nq}, {nr}) {}", config.name);
            assert_eq!(m.cycles(), cycles, "{tag} cycles");
            let sr = m.stats.loads(MemClass::SaveRestore) + m.stats.stores(MemClass::SaveRestore);
            assert_eq!(sr, saves, "{tag} save/restore ops");
        }
    }
}

/// §5: range extension "requires from one to two iterations". Under C it
/// converges in one on every workload; the synthetic Fig. 2 shape needs
/// two (`tests/shrinkwrap_units.rs`).
#[test]
fn section5_range_extension_takes_one_iteration_per_workload() {
    for w in ipra_workloads::all() {
        let compiled = compile_only(&workload(w.name), &Config::c());
        let max = compiled.reports.iter().map(|r| r.shrink_iterations).max();
        assert_eq!(max, Some(1), "{}", w.name);
    }
}

/// Scalar loads/stores per workload under C; C without live-range
/// splitting, without §4 parameter binding, without global promotion; B
/// (C without shrink-wrap and the §6 rule); then C and C without splitting
/// on a starved file of 4 caller-saved + 3 callee-saved registers. §4
/// binding carries nim; promotion carries diff, tex, ccom and uopt;
/// dropping shrink-wrap and §6 hurts nim, map, stanford and ccom.
/// Splitting is neutral with the full file and, when starved, helps calcc
/// and as1 but costs nim 1.0%.
#[test]
fn ablations_pin_scalar_traffic() {
    let without = |f: fn(&mut Config)| {
        let mut c = Config::c();
        f(&mut c);
        c
    };
    let no_split = |c: &mut Config| c.opts.split_ranges = false;
    let starved = |mut c: Config| {
        c.target = Target::with_class_limits(4, 3);
        c
    };
    let configs = [
        Config::c(),
        without(no_split),
        without(|c| c.opts.custom_param_regs = false),
        without(|c| c.opts.promote_globals = false),
        Config::b(),
        starved(Config::c()),
        starved(without(no_split)),
    ];
    #[rustfmt::skip]
    const ABLATION: [(&str, [u64; 7]); 13] = [
        ("nim",       [84_649, 84_649, 166_569, 85_655, 90_727, 303_020, 300_036]),
        ("map",       [313_044, 313_044, 313_044, 313_042, 333_494, 496_962, 496_962]),
        ("calcc",     [3_368, 3_368, 3_608, 3_788, 3_368, 7_779, 8_580]),
        ("diff",      [383, 383, 383, 5_636, 383, 464, 464]),
        ("dhrystone", [2_765, 2_765, 2_765, 2_765, 2_765, 3_973, 3_973]),
        ("stanford",  [123_796, 123_796, 123_796, 124_166, 134_060, 130_038, 130_038]),
        ("pf",        [7_344, 7_344, 7_344, 8_604, 7_344, 8_896, 8_896]),
        ("awk",       [51_488, 51_488, 51_488, 56_373, 51_488, 65_380, 65_385]),
        ("tex",       [124_558, 124_558, 124_558, 170_896, 124_558, 340_765, 340_790]),
        ("ccom",      [25_580, 25_580, 25_580, 101_409, 31_670, 26_833, 26_833]),
        ("as1",       [6_697, 6_697, 6_697, 10_531, 6_697, 8_494, 9_172]),
        ("upas",      [5_487, 5_487, 5_487, 6_696, 5_487, 5_489, 5_489]),
        ("uopt",      [30_568, 30_568, 30_568, 46_186, 30_568, 30_593, 30_593]),
    ];
    for (name, pinned) in ABLATION {
        let module = workload(name);
        let mut output = None;
        for (col, config) in configs.iter().enumerate() {
            let m = compile_and_run(&module, config).expect("runs");
            assert_eq!(m.scalar_mem(), pinned[col], "{name} column {col}");
            assert_eq!(
                output.get_or_insert_with(|| m.output.clone()),
                &m.output,
                "{name} column {col} output"
            );
        }
    }
}

/// §8 future work: a static weight would favour the loop, which never
/// runs, over the hot values that span calls.
const PROFILE_CASE: &str = r#"
    fn callee(x: int) -> int { return x + 1; }
    fn work(n: int) -> int {
        var h1: int = n * 3;
        var h2: int = n * 5;
        var h3: int = n * 7;
        var a: int = callee(h1);
        var b: int = callee(h2);
        var c: int = callee(h3);
        var hot: int = a + b + c + h1 + h2 + h3;
        var acc: int = 0;
        if n < 0 {
            var i: int = 0;
            while i < 100 {
                var l1: int = i * 2;
                var l2: int = i * 3;
                var l3: int = callee(l1);
                acc = acc + l2 + l3;
                i = i + 1;
            }
        }
        return hot + acc;
    }
    fn main() {
        var t: int = 0;
        var k: int = 0;
        while k < 300 {
            t = t + work(k);
            k = k + 1;
        }
        print(t);
    }
"#;

/// Profile-guided weights win 600 scalar loads/stores and 600 cycles on
/// the constructed case, with 3 caller-saved + 2 callee-saved registers
/// so the allocator must choose. On the workloads static weights are
/// already accurate to within 0.2% of cycles.
#[test]
fn profile_feedback_pins_cycles_and_scalar_traffic() {
    // Configuration, then (cycles, scalar l/s) with static weights and
    // with profile-guided weights.
    let case: [(Config, [u64; 4]); 2] = [
        (Config::o2_base(), [33_317, 5_406, 32_717, 4_806]),
        (Config::c(), [30_317, 4_206, 29_717, 3_606]),
    ];
    let module = compile(PROFILE_CASE);
    for (mut config, pinned) in case {
        config.target = Target::with_class_limits(3, 2);
        let s = compile_and_run(&module, &config).expect("runs");
        let p = profile_guided(&module, &config).expect("runs");
        assert_eq!(s.output, p.output, "{}", config.name);
        let measured = [s.cycles(), s.scalar_mem(), p.cycles(), p.scalar_mem()];
        assert_eq!(measured, pinned, "{}", config.name);
    }
    // C cycles, static vs profile-guided weights.
    const WORKLOADS: [(&str, [u64; 2]); 4] = [
        ("nim", [1_951_873, 1_948_045]),
        ("ccom", [1_137_841, 1_136_133]),
        ("dhrystone", [461_995, 461_875]),
        ("uopt", [1_646_675, 1_647_533]),
    ];
    for (name, pinned) in WORKLOADS {
        let module = workload(name);
        let s = compile_and_run(&module, &Config::c()).expect("runs");
        let p = profile_guided(&module, &Config::c()).expect("runs");
        assert_eq!(s.output, p.output, "{name}");
        assert_eq!([s.cycles(), p.cycles()], pinned, "{name}");
    }
}

/// Renders each workload's `table_row` in EXPERIMENTS.md's markdown
/// format and asserts that the row starts a line of the file, `**`
/// emphasis dropped. Table 2's winner column follows the rendered prefix.
fn assert_rows_documented(configs: &[Config], cycles_per_call: bool) {
    let doc: Vec<String> = include_str!("../EXPERIMENTS.md")
        .lines()
        .map(|l| l.replace("**", ""))
        .collect();
    for w in ipra_workloads::all() {
        let row = table_row(w.name, &workload(w.name), &Config::o2_base(), configs);
        let mut cells = vec![row.workload.clone()];
        if cycles_per_call {
            cells.push(format!("{:.0}", row.cycles_per_call));
        }
        cells.extend(row.columns.iter().map(|c| format!("{:.1}", c.1)));
        cells.extend(row.columns.iter().map(|c| format!("{:.1}", c.2)));
        let md = format!("| {} |", cells.join(" | "));
        assert!(
            doc.iter().any(|l| l.starts_with(&md)),
            "EXPERIMENTS.md lacks the row {md}"
        );
    }
}

#[test]
fn table1_rows_match_experiments_md() {
    assert_rows_documented(&[Config::a(), Config::b(), Config::c()], true);
}

#[test]
fn table2_rows_match_experiments_md() {
    assert_rows_documented(&[Config::d(), Config::e()], false);
}
