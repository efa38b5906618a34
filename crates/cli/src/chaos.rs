//! `cote chaos`: run one deterministic fault-injection scenario against an
//! in-process gateway + 2-backend cluster and report the invariant verdict.
//!
//! Every fault decision is seeded, so a failing run replays from the seed
//! in its report: `cote chaos --seed N --scenario <name>` prints the same
//! fault-hit counts, breaker transitions and fingerprint every time.

use cote_chaos::{run as run_scenario, ChaosConfig, Scenario};
use cote_common::{CoteError, Result};
use std::time::Duration;

fn bad(reason: String) -> CoteError {
    CoteError::InvalidQuery { reason }
}

fn scenario_list() -> String {
    Scenario::ALL
        .iter()
        .map(|s| format!("  {:<16}{}", s.name(), s.describe()))
        .collect::<Vec<_>>()
        .join("\n")
}

fn parse_args(args: &[String]) -> Result<ChaosConfig> {
    let mut seed = 42u64;
    let mut scenario = None;
    let mut requests = None;
    let mut recovery = None;
    let mut pace_ms = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String> {
            it.next()
                .ok_or_else(|| bad(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| bad("--seed needs an integer".into()))?
            }
            "--scenario" => {
                let name = value("--scenario")?;
                scenario = Some(Scenario::parse(name).ok_or_else(|| {
                    bad(format!(
                        "unknown scenario '{name}'; one of:\n{}",
                        scenario_list()
                    ))
                })?);
            }
            "--requests" => {
                requests = Some(
                    value("--requests")?
                        .parse::<usize>()
                        .map_err(|_| bad("--requests needs an integer".into()))?,
                )
            }
            "--recovery" => {
                recovery = Some(
                    value("--recovery")?
                        .parse::<usize>()
                        .map_err(|_| bad("--recovery needs an integer".into()))?,
                )
            }
            "--pace-ms" => {
                pace_ms = Some(
                    value("--pace-ms")?
                        .parse::<u64>()
                        .map_err(|_| bad("--pace-ms needs milliseconds".into()))?,
                )
            }
            other => return Err(bad(format!("unknown flag '{other}'"))),
        }
    }
    let scenario = scenario.ok_or_else(|| {
        bad(format!(
            "need --scenario <name>; one of:\n{}",
            scenario_list()
        ))
    })?;
    let mut cfg = ChaosConfig::new(seed, scenario);
    if let Some(n) = requests {
        cfg.requests = n.max(1);
    }
    if let Some(n) = recovery {
        cfg.recovery_requests = n;
    }
    if let Some(ms) = pace_ms {
        cfg.pace = Duration::from_millis(ms);
    }
    Ok(cfg)
}

/// `cote chaos --seed N --scenario <name>` — nonzero exit on any invariant
/// violation.
pub fn run(args: &[String]) -> Result<()> {
    let cfg = parse_args(args)?;
    let report = run_scenario(&cfg).map_err(|e| bad(format!("chaos harness: {e}")))?;
    print!("{}", report.summary());
    if report.passed() {
        Ok(())
    } else {
        Err(bad(format!(
            "{} invariant violation(s); replay with --seed {} --scenario {}",
            report.violations.len(),
            report.seed,
            report.scenario
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_requires_a_known_scenario() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--scenario", "nope"])).is_err());
        let cfg = parse_args(&args(&[
            "--seed",
            "7",
            "--scenario",
            "reset-storm",
            "--requests",
            "20",
            "--recovery",
            "6",
            "--pace-ms",
            "2",
        ]))
        .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.scenario, Scenario::ResetStorm);
        assert_eq!(cfg.requests, 20);
        assert_eq!(cfg.recovery_requests, 6);
        assert_eq!(cfg.pace, Duration::from_millis(2));
    }
}
