//! Host-speed reference. The shared host this benchmark runs on changes
//! speed by tens of percent over tens of seconds, which no run length
//! averages away. A fixed workload of the benchmark's own, independent
//! of the compiler, is timed right before every round and set-up, and
//! every end-to-end time is reported at the nominal host speed: scaled
//! by [`NOMINAL_REF_US`] over the reference time next to it. The scaled
//! times keep the unit of the raw ones; on a host where the reference
//! takes [`NOMINAL_REF_US`], they are equal. A change to
//! the compiler cannot move the reference, so it moves the scaled
//! times exactly as it moves the raw ones.

use std::collections::BTreeMap;

use ipra_workloads::synth::XorShift64Star;

use crate::report::{quantile, timed};

/// The reference time the scaled metrics assume, in microseconds.
pub const NOMINAL_REF_US: f64 = 1000.0;

/// The median of three timings of the reference workload (allocation,
/// pointer chasing and sorting, like a compiler pass), in microseconds.
pub fn reference_us() -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            timed(|| {
                let mut rng = XorShift64Star::new(42);
                let mut map = BTreeMap::new();
                for i in 0..6_000u64 {
                    map.insert(rng.next_u64() % 15_000, i);
                }
                let mut v: Vec<u64> = map.into_keys().collect();
                v.sort_unstable_by_key(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                std::hint::black_box(v.iter().fold(0u64, |a, b| a.wrapping_add(*b)))
            })
            .1
        })
        .collect();
    quantile(&times, 0.5)
}

/// The factor that turns a time measured now into nominal time.
pub fn scale() -> f64 {
    NOMINAL_REF_US / reference_us()
}
