//! Block-by-block unit tests for the shrink-wrap dataflow equations
//! (paper Eqs. 3.1–3.6) on hand-built CFGs. Where the in-crate tests
//! exercise the solver through allocation, these pin the *placement* of
//! every save and restore for the canonical shapes: straight-line code,
//! a diamond, the paper's Fig. 2 double-save shape, and a loop whose
//! body forces saves out to the entry (§5 constraint).

use ipra_cfg::{Cfg, Dominators, LoopInfo};
use ipra_core::{shrink_wrap, verify_plan, SavePlan};
use ipra_ir::builder::FunctionBuilder;
use ipra_ir::Function;
use ipra_machine::RegMask;

fn analyses(f: &Function) -> (Cfg, LoopInfo) {
    let cfg = Cfg::new(f);
    let dom = Dominators::compute(&cfg);
    let loops = LoopInfo::compute(&cfg, &dom);
    (cfg, loops)
}

const R: RegMask = RegMask(0b01);
const S: RegMask = RegMask(0b10);

/// Asserts the full save/restore placement, block by block.
fn assert_placement(plan: &SavePlan, save_at: &[RegMask], restore_at: &[RegMask]) {
    assert_eq!(plan.save_at, save_at, "save placement");
    assert_eq!(plan.restore_at, restore_at, "restore placement");
}

/// entry(0) -> mid(1) -> exit(2, ret)
fn straight_line() -> Function {
    let mut b = FunctionBuilder::new("line");
    let m = b.new_block();
    let x = b.new_block();
    b.br(m);
    b.switch_to(m);
    b.br(x);
    b.switch_to(x);
    b.ret(None);
    b.build()
}

/// entry(0) -> then(1) | else(2) -> join(3, ret)
fn diamond() -> Function {
    let mut b = FunctionBuilder::new("d");
    let t = b.new_block();
    let e = b.new_block();
    let j = b.new_block();
    let c = b.copy(1);
    b.cond_br(c, t, e);
    b.switch_to(t);
    b.br(j);
    b.switch_to(e);
    b.br(j);
    b.ret(None);
    b.build()
}

#[test]
fn straight_line_degenerates_to_entry_exit_convention() {
    let f = straight_line();
    let (cfg, loops) = analyses(&f);
    // The register appears only in the middle block, but with no branch
    // avoiding it, anticipability (Eq. 3.1) is true from the entry down:
    // shrink-wrapping buys nothing on straight-line code and the placement
    // collapses to the classic save-at-entry / restore-at-exit protocol.
    let app = vec![RegMask::EMPTY, R, RegMask::EMPTY];
    let plan = shrink_wrap(&cfg, &loops, &app);
    assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    assert_placement(
        &plan,
        &[R, RegMask::EMPTY, RegMask::EMPTY],
        &[RegMask::EMPTY, RegMask::EMPTY, R],
    );
    assert_eq!(
        plan.entry_spanning, R,
        "entry-spanning save is the §6 candidate"
    );
    assert_eq!(
        plan.iterations, 1,
        "no range extension on straight-line code"
    );
}

#[test]
fn diamond_two_registers_wrap_independently() {
    let f = diamond();
    let (cfg, loops) = analyses(&f);
    // R appears only on the then branch; S on both branches. Each register
    // gets its own placement from the same bit-vector solve: R stays
    // confined to block 1, S merges at the entry and the join.
    let mut app = vec![RegMask::EMPTY; 4];
    app[1] = R | S;
    app[2] = S;
    let plan = shrink_wrap(&cfg, &loops, &app);
    assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    assert_placement(
        &plan,
        &[S, R, RegMask::EMPTY, RegMask::EMPTY],
        &[RegMask::EMPTY, R, RegMask::EMPTY, S],
    );
    assert_eq!(plan.entry_spanning, S, "only S spans the entry");
}

#[test]
fn diamond_use_on_one_branch_stays_on_that_branch() {
    let f = diamond();
    let (cfg, loops) = analyses(&f);
    let mut app = vec![RegMask::EMPTY; 4];
    app[1] = R;
    let plan = shrink_wrap(&cfg, &loops, &app);
    assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    // The else path (0 -> 2 -> 3) must execute no save and no restore.
    assert_placement(
        &plan,
        &[RegMask::EMPTY, R, RegMask::EMPTY, RegMask::EMPTY],
        &[RegMask::EMPTY, R, RegMask::EMPTY, RegMask::EMPTY],
    );
}

#[test]
fn diamond_use_on_both_branches_merges_at_entry_and_join() {
    let f = diamond();
    let (cfg, loops) = analyses(&f);
    let mut app = vec![RegMask::EMPTY; 4];
    app[1] = R;
    app[2] = R;
    // Anticipated on every path out of the entry (Eq. 3.1), available at
    // the join (Eq. 3.3): one save at entry, one restore at the exit —
    // never one per branch, which would double-execute on neither but cost
    // two static copies of the protocol.
    let plan = shrink_wrap(&cfg, &loops, &app);
    assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    assert_placement(
        &plan,
        &[R, RegMask::EMPTY, RegMask::EMPTY, RegMask::EMPTY],
        &[RegMask::EMPTY, RegMask::EMPTY, RegMask::EMPTY, R],
    );
    assert_eq!(plan.entry_spanning, R);
}

/// The paper's Fig. 2(a): 0 -> {1, 2}; 1 -> {3, 4}; 2 -> 4; 3 and 4 exit.
/// APP in 2 and 4 only.
fn fig2() -> Function {
    let mut b = FunctionBuilder::new("fig2");
    let n1 = b.new_block();
    let n2 = b.new_block();
    let n3 = b.new_block();
    let n4 = b.new_block();
    let c = b.copy(1);
    b.cond_br(c, n1, n2);
    b.switch_to(n1);
    let c2 = b.copy(1);
    b.cond_br(c2, n3, n4);
    b.switch_to(n2);
    b.br(n4);
    b.ret(None); // n4
    b.switch_to(n3);
    b.ret(None);
    b.build()
}

#[test]
fn fig2_double_save_shape_extends_range_instead() {
    let f = fig2();
    let (cfg, loops) = analyses(&f);
    let mut app = vec![RegMask::EMPTY; 5];
    app[2] = R;
    app[4] = R;
    // Naive placement (Eq. 3.5 alone) would save at 2 and again at 4,
    // double-saving on the 0->2->4 path — the Fig. 2 situation. Range
    // extension widens APP until the save merges above the branch.
    let plan = shrink_wrap(&cfg, &loops, &app);
    assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    assert_eq!(plan.iterations, 2, "paper: one to two iterations");
    assert_placement(
        &plan,
        &[
            R,
            RegMask::EMPTY,
            RegMask::EMPTY,
            RegMask::EMPTY,
            RegMask::EMPTY,
        ],
        &[RegMask::EMPTY, RegMask::EMPTY, RegMask::EMPTY, R, R],
    );
    // Every path saves exactly once at the entry; each exit restores once,
    // including the 0->1->3 path that never touches the register — the
    // price of avoiding the double save.
    assert_eq!(plan.entry_spanning, R);
}

/// entry(0) -> header(1) <-> body(2); header -> exit(3, ret).
fn loop_shape() -> Function {
    let mut b = FunctionBuilder::new("lp");
    let h = b.new_block();
    let body = b.new_block();
    let x = b.new_block();
    b.br(h);
    b.switch_to(h);
    let c = b.copy(1);
    b.cond_br(c, body, x);
    b.switch_to(body);
    b.br(h);
    b.switch_to(x);
    b.ret(None);
    b.build()
}

#[test]
fn loop_body_use_forces_save_outside_the_loop() {
    let f = loop_shape();
    let (cfg, loops) = analyses(&f);
    let mut app = vec![RegMask::EMPTY; 4];
    app[2] = R; // appears only inside the loop body
                // §5: placing the save/restore at the body would execute them once per
                // iteration. The loop constraint extends APP over the whole loop
                // {header, body}; anticipability then hoists the save to the entry
                // (the header's other predecessor is the back edge) and the restore
                // sinks to the loop exit.
    let plan = shrink_wrap(&cfg, &loops, &app);
    assert_eq!(verify_plan(&cfg, &app, &plan), Ok(()));
    assert_placement(
        &plan,
        &[R, RegMask::EMPTY, RegMask::EMPTY, RegMask::EMPTY],
        &[RegMask::EMPTY, RegMask::EMPTY, RegMask::EMPTY, R],
    );
    for (b, save) in plan.save_at.iter().enumerate() {
        let inside = !save.is_empty() || !plan.restore_at[b].is_empty();
        assert!(
            !(inside && loops.depth(ipra_ir::BlockId(b as u32)) > 0),
            "save/restore placed inside the loop at block {b}"
        );
    }
}
