//! `cote-chaos`: a deterministic chaos harness for the serving tier.
//!
//! Chaos testing usually trades rigor for realism: random faults, flaky
//! assertions, bugs that vanish when you try to reproduce them. This
//! harness keeps the realism (real sockets, a real gateway failing over
//! across real backends) and removes the irreproducibility: every fault
//! decision is drawn from the in-repo seeded RNG through the
//! [`cote_common::failpoint`] registry, so a run is a pure function of
//! `(seed, scenario)` and any failure replays from the seed printed in its
//! report.
//!
//! ```text
//!  harness client ──▶ gateway (scope "gateway")
//!       │ serial,          │ ring + breakers + retry budget
//!       │ paced            ▼
//!       │            cote serve × 2 (scope "backend")
//!       │                  │ injected resets / corruption / delays / BUSY
//!       ▼                  ▼
//!   oracle diff      failpoint registry (seeded, counted)
//! ```
//!
//! A run builds the cluster, records a fault-free **oracle** pass, arms the
//! registry, replays the same request schedule under the scenario's fault
//! plan (phase A), disables the faults, lets the tier heal, and replays a
//! recovery tail (phase B). It then checks four invariants:
//!
//! 1. **No hung requests**: every request completes within the harness
//!    deadline — injected stalls are bounded by the gateway's retry budget
//!    and per-operation client deadlines, never amplified into a hang.
//! 2. **Queues drain**: both backends' queue-depth gauges return to zero
//!    once the schedule completes.
//! 3. **No cross-request corruption**: every answer the *client* sees is
//!    byte-identical to the oracle's (modulo the `elapsed_us` timing field)
//!    or an explicit `BUSY`/`ERR` — injected corruption and truncation are
//!    absorbed by the gateway's failover, never leaked or misdelivered.
//! 4. **Breakers cycle**: transition counts match the scenario (fault
//!    scenarios must open ≥1 breaker; clean ones must open none), every
//!    opened breaker closes again, and the tier ends fully healed.
//!
//! Determinism is engineered, not hoped for: requests are issued serially
//! on an absolute pace grid, fault plans use counter-driven
//! [`FireMode::FirstN`]/[`FireMode::Every`] schedules scoped per tier,
//! health-check traffic is exempt from injection (see
//! [`cote_net::chaos::exempt`]), connection pooling is disabled so fault
//! hits don't depend on pool state, and the report's fingerprint hashes
//! only request-driven counters — two runs with one seed print identical
//! fingerprints on any machine.
//!
//! [`FireMode::FirstN`]: cote_common::failpoint::FireMode::FirstN
//! [`FireMode::Every`]: cote_common::failpoint::FireMode::Every

pub mod harness;
pub mod scenario;

pub use harness::{run, ChaosConfig, ChaosReport};
pub use scenario::Scenario;
