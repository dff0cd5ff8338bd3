//! Heap allocations of the request path's text layers, counted by a
//! global allocator: the front end must allocate fewer times than the
//! source has tokens, and the assembly printer only to grow its output.
//! Both counts repeat exactly between runs. A debug build counts a few
//! more front-end allocations per function, because `compile` then also
//! runs the IR verifier as a debug assertion. This file holds a single
//! test: the counters are process-global.

use ipra_bench::alloc_meter::{measure, CountingAlloc};
use ipra_driver::{compile_only, Config};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The most allocations one `MModule::asm` call may make: enough for its
/// output `String` to double its way up to a corpus module's text.
const ASM_ALLOCS_MAX: u64 = 16;

#[test]
fn front_end_and_asm_printer_allocate_less_than_once_per_token() {
    let config = Config::c();
    let regs = &config.target.regs;
    let mut failures = Vec::new();
    eprintln!("workload  tokens  front-end allocs  insts  asm allocs");
    for w in ipra_workloads::all() {
        let tokens = ipra_frontend::lexer::lex(w.source)
            .expect("corpus sources lex")
            .len() as u64;
        let (module, front) = measure(|| ipra_frontend::compile(w.source));
        let module = module.expect("corpus sources compile");
        let compiled = compile_only(&module, &config);
        // Machine instructions, terminators included.
        let insts: usize = compiled
            .mmodule
            .funcs
            .iter()
            .flat_map(|(_, f)| f.blocks.iter())
            .map(|(_, b)| b.insts.len() + 1)
            .sum();
        let (text, asm) = measure(|| compiled.mmodule.asm(regs));
        assert!(!text.is_empty());
        eprintln!(
            "{:<9} {tokens:>6}  {:>16}  {insts:>5}  {:>10}",
            w.name, front.allocs, asm.allocs
        );
        if front.allocs >= tokens {
            failures.push(format!(
                "{}: ipra_frontend::compile allocated {} times for {tokens} tokens",
                w.name, front.allocs
            ));
        }
        if asm.allocs > ASM_ALLOCS_MAX {
            failures.push(format!(
                "{}: MModule::asm under C allocated {} times (at most {ASM_ALLOCS_MAX})",
                w.name, asm.allocs
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
