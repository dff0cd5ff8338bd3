//! Live heap of a memo-capped pipeline serving a stream of distinct
//! source texts, counted by a global allocator. A daemon's pipeline
//! compiles every request through its source entry point and keeps
//! prepared modules, keyed by their text, and compiled components in two
//! FIFO memos. Nothing else it keeps grows with the number of modules
//! served, so once both caps are full, serving twice as many modules must
//! leave the live heap where it was. Heap counts do not vary between runs
//! or build profiles. This file holds a single test: the counters are
//! process-global.

use ipra_bench::alloc_meter::{live_bytes, CountingAlloc};
use ipra_core::Pipeline;
use ipra_driver::Config;
use ipra_workloads::synth::{random_source, SourceConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Prepared-module memo cap: full after four modules.
const PREPARED_CAP: usize = 4;

/// Component memo cap: full after about ten seven-function modules.
const ENTRIES_CAP: usize = 64;

/// Modules served before the first reading, and again before the second.
const N: u64 = 100;

/// The second reading may exceed the first by at most an eighth of it:
/// the memos then hold other modules' entries, and the scratch buffers
/// may have grown to a larger function. A memo that kept something per
/// module would add over half.
const MARGIN_DIVISOR: u64 = 8;

#[test]
fn a_memo_capped_pipeline_stops_growing_once_both_caps_fill() {
    let cfg = Config::c();
    let pipe = Pipeline::with_memo_caps(PREPARED_CAP, ENTRIES_CAP);
    let serve = |seeds: std::ops::Range<u64>| {
        for seed in seeds {
            let source = random_source(seed, &SourceConfig::default());
            pipe.compile_source(&source, ipra_frontend::compile, &cfg.target, &cfg.opts)
                .expect("generated programs compile");
        }
    };

    let base = live_bytes();
    serve(0..N);
    assert_eq!(
        pipe.memo_sizes(),
        (PREPARED_CAP, ENTRIES_CAP),
        "both memos are full after {N} modules"
    );
    let at_n = live_bytes() - base;
    serve(N..2 * N);
    let at_2n = live_bytes() - base;
    assert!(
        at_2n <= at_n + at_n / MARGIN_DIVISOR,
        "live heap grew from {at_n} bytes after {N} modules to {at_2n} after {}",
        2 * N
    );
}
