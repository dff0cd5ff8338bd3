//! Peak heap of one compile as a function grows, counted by a global
//! allocator. The program is a `main` of n statements on one
//! accumulator, every eighth of which calls a one-line leaf: only a
//! handful of values are live at any point, so the allocator's tables
//! must grow with n, not with n² as one dense interference row per
//! virtual register would. Heap counts do not vary between runs or build
//! profiles, so the bound is exact. This file holds a single test: the
//! counters are process-global.

use ipra_bench::alloc_meter::{measure, CountingAlloc};
use ipra_core::ipra::compile_module;
use ipra_driver::Config;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `leaf` plus a `main` of `n` statements on one accumulator: statement
/// `i` is `acc = leaf(acc);` when `i % 8 == 7` and otherwise
/// `acc = acc * 3 + c;` with the literal `c = i % 97`.
fn chain_source(n: usize) -> String {
    let mut src = String::from(
        "fn leaf(x: int) -> int { return x + 1; }\nfn main() {\n  var acc: int = 1;\n",
    );
    for i in 0..n {
        if i % 8 == 7 {
            src.push_str("  acc = leaf(acc);\n");
        } else {
            src.push_str(&format!("  acc = acc * 3 + {};\n", i % 97));
        }
    }
    src.push_str("  print(acc);\n}\n");
    src
}

/// Peak live heap bytes of compiling the `n`-statement chain under C.
fn compile_peak(n: usize) -> u64 {
    let module = ipra_frontend::compile(&chain_source(n)).expect("the chain compiles");
    let cfg = Config::c();
    let (_, d) = measure(|| compile_module(&module, &cfg.target, &cfg.opts));
    d.peak_bytes
}

#[test]
fn doubling_a_function_at_most_doubles_and_a_quarter_its_peak_heap() {
    let (small, large) = (compile_peak(4_000), compile_peak(8_000));
    let ratio = large as f64 / small.max(1) as f64;
    eprintln!(
        "chain peak heap: 4,000 statements {small} B, 8,000 statements {large} B, ratio {ratio:.3}"
    );
    assert!(
        ratio <= 2.25,
        "doubling the chain from 4,000 to 8,000 statements grew the compile's peak heap {ratio:.2}× ({small} → {large} bytes); the bound is 2.25×"
    );
}
