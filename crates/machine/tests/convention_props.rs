//! Property tests for [`ConventionSpec`]/[`RegFile`] invariants, over both
//! an exhaustive small-spec enumeration and a deterministic random sweep
//! (each random case seeds the workspace PRNG; a failure names its seed
//! and `XorShift64Star::new(seed)` replays it).
//!
//! Invariants checked for every register file:
//! - caller-saved, callee-saved and unclassed (reserved) registers
//!   partition the file: disjoint and exhaustive;
//! - argument registers are caller-saved and are a prefix of the file;
//! - reserved registers (assembler scratches, `rv`, `ra`) are never
//!   allocatable and never classed;
//! - the allocatable set has no duplicates and stays within the file;
//! - `default_clobbers`/`callee_saved_mask` agree with the classes;
//! - the spec round-trips through the file, and the fingerprint separates
//!   any two files with different specs while staying stable for equal
//!   ones.

use std::collections::HashSet;

use ipra_machine::{ConventionSpec, PReg, RegClass, RegFile};
use ipra_workloads::synth::XorShift64Star;

/// Uniform value in `0..n`.
fn below(rng: &mut XorShift64Star, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// Every structural invariant a [`RegFile`] must satisfy, checked against
/// the spec it was built from. `case` prefixes every failure message.
fn check_file(spec: ConventionSpec, case: &str) {
    let file = RegFile::from_spec(spec);

    // The spec round-trips.
    assert_eq!(file.spec(), spec, "{case}: spec does not round-trip");
    assert_eq!(file.num_regs(), spec.num_regs(), "{case}: register count");
    assert_eq!(
        file.allocatable().len(),
        spec.num_allocatable(),
        "{case}: allocatable count"
    );

    // Classes partition the file: each register is exactly one of
    // caller-saved, callee-saved, or reserved (unclassed).
    let mut caller = Vec::new();
    let mut callee = Vec::new();
    let mut reserved = Vec::new();
    for i in 0..file.num_regs() {
        let r = PReg(i as u8);
        match file.class(r) {
            Some(RegClass::CallerSaved) => caller.push(r),
            Some(RegClass::CalleeSaved) => callee.push(r),
            None => reserved.push(r),
        }
    }
    assert_eq!(
        caller.len() + callee.len() + reserved.len(),
        file.num_regs(),
        "{case}: classes must be exhaustive"
    );
    assert_eq!(
        caller.len(),
        spec.arg_regs + spec.caller_regs,
        "{case}: caller-saved count"
    );
    assert_eq!(callee.len(), spec.callee_regs, "{case}: callee-saved count");
    assert_eq!(reserved.len(), 4, "{case}: two scratches, rv and ra");

    // Reserved registers are exactly the scratches, rv and ra, and are
    // never allocatable.
    let reserved_set: HashSet<u8> = reserved.iter().map(|r| r.0).collect();
    for s in file.scratch() {
        assert!(
            reserved_set.contains(&s.0),
            "{case}: scratch must be reserved"
        );
    }
    assert!(
        reserved_set.contains(&file.ret_reg().0),
        "{case}: rv is reserved"
    );
    assert!(
        reserved_set.contains(&file.ra().0),
        "{case}: ra is reserved"
    );
    for r in file.allocatable() {
        assert!(
            !reserved_set.contains(&r.0),
            "{case}: reserved register {} is allocatable",
            file.name(*r)
        );
    }

    // The allocatable set has no duplicates and stays in bounds.
    let alloc_set: HashSet<u8> = file.allocatable().iter().map(|r| r.0).collect();
    assert_eq!(
        alloc_set.len(),
        file.allocatable().len(),
        "{case}: duplicate"
    );
    for r in file.allocatable() {
        assert!(
            (r.0 as usize) < file.num_regs(),
            "{case}: allocatable register out of bounds"
        );
    }

    // Argument registers are caller-saved, distinct, and within bounds.
    assert_eq!(
        file.param_regs().len(),
        spec.arg_regs,
        "{case}: argument register count"
    );
    let param_set: HashSet<u8> = file.param_regs().iter().map(|r| r.0).collect();
    assert_eq!(
        param_set.len(),
        spec.arg_regs,
        "{case}: duplicate param reg"
    );
    for r in file.param_regs() {
        assert_eq!(
            file.class(*r),
            Some(RegClass::CallerSaved),
            "{case}: argument registers are caller-saved by convention"
        );
    }

    // Masks agree with the classes.
    let clobbers = file.default_clobbers();
    let preserved = file.callee_saved_mask();
    assert!(
        clobbers.intersect(preserved).is_empty(),
        "{case}: clobbered and preserved overlap"
    );
    for r in &caller {
        if alloc_set.contains(&r.0) {
            assert!(
                clobbers.contains(*r),
                "{case}: allocatable caller-saved clobbers"
            );
        }
        assert!(
            !preserved.contains(*r),
            "{case}: caller-saved is not preserved"
        );
    }
    for r in &callee {
        assert!(preserved.contains(*r), "{case}: callee-saved is preserved");
        assert!(
            !clobbers.contains(*r),
            "{case}: callee-saved is not clobbered"
        );
    }

    // The fingerprint is stable across rebuilds of the same spec.
    assert_eq!(
        file.fingerprint(),
        RegFile::from_spec(spec).fingerprint(),
        "{case}: fingerprint must be deterministic"
    );
}

/// Specs with distinct field values must hash to distinct fingerprints
/// (the cache-key separation the incremental cache depends on).
fn check_separation((ca, a): (&str, ConventionSpec), (cb, b): (&str, ConventionSpec)) {
    let fa = RegFile::from_spec(a).fingerprint();
    let fb = RegFile::from_spec(b).fingerprint();
    if a == b {
        assert_eq!(fa, fb, "{ca} and {cb}: equal specs, different fingerprints");
    } else {
        assert_ne!(fa, fb, "{ca} and {cb}: {a:?} and {b:?} collide");
    }
}

#[test]
fn exhaustive_small_convention_points() {
    // Every (pool, caller, args) with pool <= 10 — 506 register files.
    let mut n = 0;
    for pool in 0..=10 {
        for caller in 0..=pool {
            for args in 0..=caller.min(4) {
                let spec = ConventionSpec::convention(pool, caller, args);
                assert!(spec.validate().is_ok(), "{spec:?}");
                check_file(spec, &format!("{spec:?}"));
                n += 1;
            }
        }
    }
    assert!(n > 200, "enumeration shrank: {n}");
}

#[test]
fn exhaustive_mips_family_class_limits() {
    for caller in 0..=11 {
        for callee in 0..=9 {
            let spec = ConventionSpec::mips_family(caller, callee);
            assert!(spec.validate().is_ok(), "{spec:?}");
            check_file(spec, &format!("{spec:?}"));
        }
    }
}

#[test]
fn random_specs_either_validate_and_hold_or_are_rejected() {
    let mut accepted = 0;
    let mut rejected = 0;
    for seed in 0..2000 {
        let rng = &mut XorShift64Star::new(seed);
        let spec = ConventionSpec {
            arg_regs: below(rng, 8),
            args_allocatable: rng.coin(),
            caller_regs: below(rng, 16),
            caller_alloc: below(rng, 16),
            callee_regs: below(rng, 16),
            callee_alloc: below(rng, 16),
        };
        match spec.validate() {
            Ok(()) => {
                check_file(spec, &format!("seed {seed}"));
                accepted += 1;
            }
            Err(e) => {
                // Rejection must cite a real constraint violation.
                assert!(
                    spec.caller_alloc > spec.caller_regs
                        || spec.callee_alloc > spec.callee_regs
                        || spec.num_regs() > 32,
                    "seed {seed}: spurious rejection of {spec:?}: {e}"
                );
                rejected += 1;
            }
        }
    }
    // The generator must actually exercise both outcomes.
    assert!(accepted > 100, "only {accepted} specs accepted");
    assert!(rejected > 100, "only {rejected} specs rejected");
}

#[test]
fn fingerprints_separate_random_spec_pairs() {
    let mut specs = Vec::new();
    for seed in 0..60 {
        let rng = &mut XorShift64Star::new(seed);
        let pool = below(rng, 25);
        let caller = below(rng, pool + 1);
        let args = below(rng, caller.min(4) + 1);
        let spec = ConventionSpec::convention(pool, caller, args);
        specs.push((format!("seed {seed}"), spec));
    }
    // Add mips-family points too, so cross-family collisions are covered.
    for (c, e) in [(11, 9), (7, 0), (0, 7), (3, 3)] {
        specs.push((
            format!("mips_family({c}, {e})"),
            ConventionSpec::mips_family(c, e),
        ));
    }
    for (ca, a) in &specs {
        for (cb, b) in &specs {
            check_separation((ca, *a), (cb, *b));
        }
    }
}
