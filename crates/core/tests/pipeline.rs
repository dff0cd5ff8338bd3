//! End-to-end differential tests: every optimization configuration must
//! produce machine code whose simulated output matches the IR reference
//! interpreter, with the convention checker enabled.

use ipra_core::config::AllocOptions;
use ipra_core::ipra::compile_module;
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{interp, Address, BinOp, GlobalData, Module, Operand, UnOp};
use ipra_machine::Target;
use ipra_sim::{run, SimOptions};

fn configs() -> Vec<(&'static str, Target, AllocOptions)> {
    vec![
        ("noalloc", Target::mips_like(), AllocOptions::no_alloc()),
        ("o2-base", Target::mips_like(), AllocOptions::o2_base()),
        (
            "o2-sw (A)",
            Target::mips_like(),
            AllocOptions::o2_shrink_wrap(),
        ),
        (
            "o3-nosw (B)",
            Target::mips_like(),
            AllocOptions::o3_no_shrink_wrap(),
        ),
        ("o3 (C)", Target::mips_like(), AllocOptions::o3()),
        (
            "o3-7caller (D)",
            Target::with_class_limits(7, 0),
            AllocOptions::o3(),
        ),
        (
            "o3-7callee (E)",
            Target::with_class_limits(0, 7),
            AllocOptions::o3(),
        ),
        ("o3-nosplit", Target::mips_like(), {
            let mut o = AllocOptions::o3();
            o.split_ranges = false;
            o
        }),
        ("o3-noparams", Target::mips_like(), {
            let mut o = AllocOptions::o3();
            o.custom_param_regs = false;
            o
        }),
        ("o3-nopromote", Target::mips_like(), {
            let mut o = AllocOptions::o3();
            o.promote_globals = false;
            o
        }),
    ]
}

/// Compiles and runs `module` under every configuration and checks the
/// output against the reference interpreter.
fn check_all_configs(module: &Module) {
    ipra_ir::verify::verify_module(module).expect("input module verifies");
    let expected = interp::run_module(module).expect("reference execution succeeds");

    for (name, target, opts) in configs() {
        let compiled = compile_module(module, &target, &opts);
        let sim_opts =
            SimOptions::for_target(&target.regs).check_preservation(compiled.clobber_masks());
        let result = run(&compiled.mmodule, &target.regs, &sim_opts)
            .unwrap_or_else(|t| panic!("[{name}] simulation trapped: {t}"));
        assert_eq!(
            result.output, expected.output,
            "[{name}] output mismatch (expected from interpreter)"
        );
    }
}

#[test]
fn straightline_arithmetic() {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("main");
    let x = b.copy(21);
    let y = b.bin(BinOp::Mul, x, 2);
    let z = b.bin(BinOp::Sub, y, 7);
    let w = b.un(UnOp::Neg, z);
    b.print(y);
    b.print(z);
    b.print(w);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn recursive_fib() {
    let mut m = Module::new();
    let fib = m.declare_func("fib");
    {
        let mut b = FunctionBuilder::new("fib");
        let n = b.param("n");
        let rec = b.new_block();
        let done = b.new_block();
        let c = b.bin(BinOp::Lt, n, 2);
        b.cond_br(c, done, rec);
        b.switch_to(rec);
        let n1 = b.bin(BinOp::Sub, n, 1);
        let f1 = b.call(fib, vec![n1.into()]);
        let n2 = b.bin(BinOp::Sub, n, 2);
        let f2 = b.call(fib, vec![n2.into()]);
        let s = b.bin(BinOp::Add, f1, f2);
        b.ret(Some(s.into()));
        b.switch_to(done);
        b.ret(Some(n.into()));
        m.define_func(fib, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let r = b.call(fib, vec![Operand::Imm(12)]);
    b.print(r);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn closed_call_chain_with_params() {
    // main -> mid -> leaf: both callees closed; exercises summaries and the
    // custom parameter convention.
    let mut m = Module::new();
    let leaf = m.declare_func("leaf");
    let mid = m.declare_func("mid");
    {
        let mut b = FunctionBuilder::new("leaf");
        let a = b.param("a");
        let c = b.param("c");
        let r = b.bin(BinOp::Mul, a, c);
        let r2 = b.bin(BinOp::Add, r, 1);
        b.ret(Some(r2.into()));
        m.define_func(leaf, b.build());
    }
    {
        let mut b = FunctionBuilder::new("mid");
        let x = b.param("x");
        let r1 = b.call(leaf, vec![x.into(), Operand::Imm(3)]);
        let r2 = b.call(leaf, vec![r1.into(), x.into()]);
        let s = b.bin(BinOp::Add, r1, r2);
        b.ret(Some(s.into()));
        m.define_func(mid, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let t = b.call(mid, vec![Operand::Imm(5)]);
    let u = b.call(mid, vec![t.into()]);
    b.print(t);
    b.print(u);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn loops_globals_and_arrays() {
    let mut m = Module::new();
    let acc = m.add_global(GlobalData::scalar("acc"));
    let table = m.add_global(GlobalData::array("table", 16));
    let step = m.declare_func("step");
    {
        // step(i): table[i] = i*i; acc += table[i]
        let mut b = FunctionBuilder::new("step");
        let i = b.param("i");
        let sq = b.bin(BinOp::Mul, i, i);
        b.store(
            sq,
            Address::Global {
                global: table,
                index: i.into(),
            },
        );
        let cur = b.load(Address::global_scalar(acc));
        let v = b.load(Address::Global {
            global: table,
            index: i.into(),
        });
        let n = b.bin(BinOp::Add, cur, v);
        b.store(n, Address::global_scalar(acc));
        b.ret(None);
        m.define_func(step, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let i = b.var("i");
    let h = b.new_block();
    let body = b.new_block();
    let out = b.new_block();
    b.copy_to(i, 0);
    b.br(h);
    let c = b.bin(BinOp::Lt, i, 16);
    b.cond_br(c, body, out);
    b.switch_to(body);
    b.call_void(step, vec![i.into()]);
    let ni = b.bin(BinOp::Add, i, 1);
    b.copy_to(i, ni);
    b.br(h);
    b.switch_to(out);
    let total = b.load(Address::global_scalar(acc));
    b.print(total);
    let sample = b.load(Address::Global {
        global: table,
        index: Operand::Imm(7),
    });
    b.print(sample);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn indirect_calls_through_table() {
    let mut m = Module::new();
    let double = m.declare_func("double");
    let square = m.declare_func("square");
    {
        let mut b = FunctionBuilder::new("double");
        let x = b.param("x");
        let r = b.bin(BinOp::Add, x, x);
        b.ret(Some(r.into()));
        m.define_func(double, b.build());
    }
    {
        let mut b = FunctionBuilder::new("square");
        let x = b.param("x");
        let r = b.bin(BinOp::Mul, x, x);
        b.ret(Some(r.into()));
        m.define_func(square, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let fd = b.func_addr(double);
    let fs = b.func_addr(square);
    let r1 = b.call_indirect(fd, vec![Operand::Imm(9)]);
    let r2 = b.call_indirect(fs, vec![Operand::Imm(9)]);
    b.print(r1);
    b.print(r2);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn register_pressure_forces_memory_or_split() {
    // 30 simultaneously live values exceed 24 allocatable registers.
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("main");
    let vals: Vec<_> = (0..30).map(|i| b.copy(i * 3 + 1)).collect();
    // Keep them all live: sum them afterwards.
    let mut sum = b.copy(0);
    for v in &vals {
        sum = b.bin(BinOp::Add, sum, *v);
    }
    // Reuse originals again so everything stays live until here.
    let mut prod = b.copy(1);
    for v in vals.iter().take(6) {
        prod = b.bin(BinOp::Mul, prod, *v);
    }
    b.print(sum);
    b.print(prod);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn many_params_use_stack() {
    let mut m = Module::new();
    let sum6 = m.declare_func("sum6");
    {
        let mut b = FunctionBuilder::new("sum6");
        let ps: Vec<_> = (0..6).map(|i| b.param(format!("p{i}"))).collect();
        let mut acc = b.copy(0);
        for p in ps {
            acc = b.bin(BinOp::Add, acc, p);
        }
        b.ret(Some(acc.into()));
        m.define_func(sum6, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let args: Vec<Operand> = (1..=6).map(Operand::Imm).collect();
    let r = b.call(sum6, args);
    b.print(r);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn mutual_recursion_is_open_and_correct() {
    // is_even/is_odd mutual recursion: both open (on a cycle).
    let mut m = Module::new();
    let is_even = m.declare_func("is_even");
    let is_odd = m.declare_func("is_odd");
    {
        let mut b = FunctionBuilder::new("is_even");
        let n = b.param("n");
        let rec = b.new_block();
        let done = b.new_block();
        let c = b.bin(BinOp::Eq, n, 0);
        b.cond_br(c, done, rec);
        b.switch_to(rec);
        let n1 = b.bin(BinOp::Sub, n, 1);
        let r = b.call(is_odd, vec![n1.into()]);
        b.ret(Some(r.into()));
        b.switch_to(done);
        b.ret(Some(Operand::Imm(1)));
        m.define_func(is_even, b.build());
    }
    {
        let mut b = FunctionBuilder::new("is_odd");
        let n = b.param("n");
        let rec = b.new_block();
        let done = b.new_block();
        let c = b.bin(BinOp::Eq, n, 0);
        b.cond_br(c, done, rec);
        b.switch_to(rec);
        let n1 = b.bin(BinOp::Sub, n, 1);
        let r = b.call(is_even, vec![n1.into()]);
        b.ret(Some(r.into()));
        b.switch_to(done);
        b.ret(Some(Operand::Imm(0)));
        m.define_func(is_odd, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let r1 = b.call(is_even, vec![Operand::Imm(10)]);
    let r2 = b.call(is_odd, vec![Operand::Imm(7)]);
    b.print(r1);
    b.print(r2);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn values_live_across_many_calls() {
    // A variable that spans many calls must survive them (caller- or
    // callee-saved protection, locally or via summaries).
    let mut m = Module::new();
    let bump = m.declare_func("bump");
    {
        let mut b = FunctionBuilder::new("bump");
        let x = b.param("x");
        let r = b.bin(BinOp::Add, x, 1);
        b.ret(Some(r.into()));
        m.define_func(bump, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let keep1 = b.copy(100);
    let keep2 = b.copy(200);
    let mut acc = b.copy(0);
    for i in 0..8 {
        let r = b.call(bump, vec![Operand::Imm(i)]);
        acc = b.bin(BinOp::Add, acc, r);
    }
    let s1 = b.bin(BinOp::Add, keep1, acc);
    let s2 = b.bin(BinOp::Add, keep2, s1);
    b.print(s1);
    b.print(s2);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}

#[test]
fn forced_open_simulates_separate_compilation() {
    let mut m = Module::new();
    let lib = m.declare_func("libfn");
    {
        let mut b = FunctionBuilder::new("libfn");
        let x = b.param("x");
        let r = b.bin(BinOp::Mul, x, 7);
        b.ret(Some(r.into()));
        m.define_func(lib, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let r = b.call(lib, vec![Operand::Imm(6)]);
    b.print(r);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);

    ipra_ir::verify::verify_module(&m).unwrap();
    let expected = interp::run_module(&m).unwrap();
    let target = Target::mips_like();
    let opts = AllocOptions::o3().force_open("libfn");
    let compiled = compile_module(&m, &target, &opts);
    assert!(compiled.reports[lib.index()].forced_open);
    let sim_opts =
        SimOptions::for_target(&target.regs).check_preservation(compiled.clobber_masks());
    let result = run(&compiled.mmodule, &target.regs, &sim_opts).unwrap();
    assert_eq!(result.output, expected.output);
}

#[test]
fn diamond_control_flow_with_calls() {
    let mut m = Module::new();
    let f = m.declare_func("helper");
    {
        let mut b = FunctionBuilder::new("helper");
        let x = b.param("x");
        let r = b.bin(BinOp::Add, x, 10);
        b.ret(Some(r.into()));
        m.define_func(f, b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let x = b.copy(3);
    let then_b = b.new_block();
    let else_b = b.new_block();
    let join = b.new_block();
    let r = b.var("r");
    let c = b.bin(BinOp::Gt, x, 0);
    b.cond_br(c, then_b, else_b);
    b.switch_to(then_b);
    let t = b.call(f, vec![x.into()]);
    b.copy_to(r, t);
    b.br(join);
    b.switch_to(else_b);
    b.copy_to(r, 0);
    b.br(join);
    b.print(r);
    let t2 = b.call(f, vec![r.into()]);
    b.print(t2);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    check_all_configs(&m);
}
