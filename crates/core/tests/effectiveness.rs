//! The optimizations must *move the needle*, not merely preserve
//! semantics: these tests assert the qualitative claims of the paper on
//! small constructed programs.

use ipra_core::config::AllocOptions;
use ipra_core::ipra::compile_module;
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::{BinOp, Module, Operand};
use ipra_machine::Target;
use ipra_sim::{run, SimOptions, Stats};

fn measure(module: &Module, target: &Target, opts: &AllocOptions) -> Stats {
    let compiled = compile_module(module, target, opts);
    let sim_opts =
        SimOptions::for_target(&target.regs).check_preservation(compiled.clobber_masks());
    run(&compiled.mmodule, &target.regs, &sim_opts)
        .expect("runs")
        .stats
}

/// Call-intensive program: deep chain of closed procedures, each using a
/// few values across calls.
fn call_chain_module(depth: usize) -> Module {
    let mut m = Module::new();
    let ids: Vec<_> = (0..depth)
        .map(|i| m.declare_func(format!("f{i}")))
        .collect();
    for i in 0..depth {
        let mut b = FunctionBuilder::new(format!("f{i}"));
        let x = b.param("x");
        if i + 1 < depth {
            let keep = b.bin(BinOp::Mul, x, 3);
            let r1 = b.call(ids[i + 1], vec![x.into()]);
            let r2 = b.call(ids[i + 1], vec![r1.into()]);
            let s = b.bin(BinOp::Add, keep, r2);
            b.ret(Some(s.into()));
        } else {
            let r = b.bin(BinOp::Add, x, 1);
            b.ret(Some(r.into()));
        }
        m.define_func(ids[i], b.build());
    }
    let mut b = FunctionBuilder::new("main");
    let r = b.call(ids[0], vec![Operand::Imm(2)]);
    b.print(r);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);
    m
}

#[test]
fn ipra_reduces_scalar_memory_traffic() {
    let m = call_chain_module(8);
    let t = Target::mips_like();
    let base = measure(&m, &t, &AllocOptions::o2_base());
    let o3 = measure(&m, &t, &AllocOptions::o3());
    assert!(
        o3.scalar_mem() < base.scalar_mem(),
        "IPRA must cut scalar loads/stores: O2 {} vs O3 {}",
        base.scalar_mem(),
        o3.scalar_mem()
    );
    assert!(
        o3.cycles < base.cycles,
        "and cycles: O2 {} vs O3 {}",
        base.cycles,
        o3.cycles
    );
}

#[test]
fn regalloc_beats_no_alloc_massively() {
    let m = call_chain_module(6);
    let t = Target::mips_like();
    let noalloc = measure(&m, &t, &AllocOptions::no_alloc());
    let o2 = measure(&m, &t, &AllocOptions::o2_base());
    assert!(
        o2.scalar_mem() * 2 < noalloc.scalar_mem(),
        "coloring removes most scalar traffic: {} vs {}",
        o2.scalar_mem(),
        noalloc.scalar_mem()
    );
}

#[test]
fn shrink_wrap_reduces_saves_on_untaken_paths() {
    // A function that uses many callee-saved-worthy values only on a cold
    // path; the hot path is call-free and value-free.
    let mut m = Module::new();
    let helper = m.declare_func("helper");
    {
        let mut b = FunctionBuilder::new("helper");
        let x = b.param("x");
        b.ret(Some(x.into()));
        m.define_func(helper, b.build());
    }
    let work = m.declare_func("work");
    {
        // work(flag): if flag { heavy: values across calls } else { cheap }
        let mut b = FunctionBuilder::new("work");
        let flag = b.param("flag");
        let heavy = b.new_block();
        let cheap = b.new_block();
        let join = b.new_block();
        let r = b.var("r");
        b.cond_br(flag, heavy, cheap);
        b.switch_to(heavy);
        let k1 = b.copy(11);
        let k2 = b.copy(22);
        let c1 = b.call(helper, vec![k1.into()]);
        let c2 = b.call(helper, vec![k2.into()]);
        let s1 = b.bin(BinOp::Add, c1, k1);
        let s2 = b.bin(BinOp::Add, c2, k2);
        let s = b.bin(BinOp::Add, s1, s2);
        b.copy_to(r, s);
        b.br(join);
        b.switch_to(cheap);
        b.copy_to(r, 1);
        b.br(join);
        b.ret(Some(r.into()));
        m.define_func(work, b.build());
    }
    // main calls work(0) many times: the cold path never runs.
    let mut b = FunctionBuilder::new("main");
    let mut acc = b.copy(0);
    for _ in 0..20 {
        let r = b.call(work, vec![Operand::Imm(0)]);
        acc = b.bin(BinOp::Add, acc, r);
    }
    b.print(acc);
    b.ret(None);
    let main = m.add_func(b.build());
    m.main = Some(main);

    let t = Target::mips_like();
    let plain = measure(&m, &t, &AllocOptions::o2_base());
    let sw = measure(&m, &t, &AllocOptions::o2_shrink_wrap());
    assert!(
        sw.save_restore_mem() < plain.save_restore_mem(),
        "shrink-wrap must skip saves on the untaken path: {} vs {}",
        sw.save_restore_mem(),
        plain.save_restore_mem()
    );
    assert!(sw.cycles <= plain.cycles);
}

#[test]
fn custom_param_binding_cuts_moves() {
    let m = call_chain_module(6);
    let t = Target::mips_like();
    let with = measure(&m, &t, &AllocOptions::o3());
    let without = measure(&m, &t, &{
        let mut o = AllocOptions::o3();
        o.custom_param_regs = false;
        o
    });
    assert!(
        with.cycles <= without.cycles,
        "§4 binding should not cost cycles: {} vs {}",
        with.cycles,
        without.cycles
    );
}

#[test]
fn table2_restricted_registers_run_slower_than_full_set() {
    let m = call_chain_module(8);
    let full = measure(&m, &Target::mips_like(), &AllocOptions::o3());
    let d = measure(&m, &Target::with_class_limits(7, 0), &AllocOptions::o3());
    let e = measure(&m, &Target::with_class_limits(0, 7), &AllocOptions::o3());
    assert!(d.scalar_mem() >= full.scalar_mem());
    assert!(e.scalar_mem() >= full.scalar_mem());
}
