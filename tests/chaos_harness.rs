//! Umbrella determinism test for the chaos harness: the same seed must
//! replay the same run — identical fault-hit tables, breaker-transition
//! totals, outcome counts and fingerprint — because every fault decision
//! draws from per-site seeded streams and every fire is request-driven.
//!
//! This is the in-tree version of CI's `chaos-smoke` double-run; it lives
//! in its own test binary because the failpoint registry is process-global
//! and the harness arms/disarms it around each run.

use cote_chaos::{run, ChaosConfig, Scenario};

#[test]
fn same_seed_replays_identically() {
    let cfg = ChaosConfig::new(42, Scenario::ResetStorm);
    let first = run(&cfg).expect("chaos harness");
    let second = run(&cfg).expect("chaos harness");

    assert!(first.passed(), "run 1 violations: {:?}", first.violations);
    assert!(second.passed(), "run 2 violations: {:?}", second.violations);

    assert_eq!(first.fingerprint, second.fingerprint, "fingerprint drifted");
    assert_eq!(
        first.fault_stats, second.fault_stats,
        "fault-hit table drifted"
    );
    assert_eq!(
        (first.ok, first.busy, first.err),
        (second.ok, second.busy, second.err),
        "outcome counts drifted"
    );
    assert_eq!(
        (
            first.breaker_opened,
            first.breaker_half_open,
            first.breaker_closed
        ),
        (
            second.breaker_opened,
            second.breaker_half_open,
            second.breaker_closed
        ),
        "breaker-transition totals drifted"
    );

    // Reset-storm must exercise the full breaker lifecycle and end healed.
    assert!(first.breaker_opened >= 1, "no breaker ever opened");
    assert!(first.breaker_half_open >= 1, "no half-open trial");
    assert_eq!(
        first.breaker_opened, first.breaker_closed,
        "breaker left open"
    );
    assert_eq!(first.breakers_open_now, 0);

    // A different seed is allowed to change scheduling internals but must
    // still pass every invariant.
    let other = run(&ChaosConfig::new(7, Scenario::ResetStorm)).expect("chaos harness");
    assert!(other.passed(), "seed 7 violations: {:?}", other.violations);
}
