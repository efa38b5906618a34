//! The in-process side: statement sets compiled with
//! `Optimizer::optimize_query` and estimated with `Cote::estimate`, a fixed
//! number of times each.

use crate::json::Json;
use crate::reference::Reference;
use crate::stats::{geomean, steady_low};
use crate::trace::{Tracer, NONE};
use cote::{Cote, TimeModel};
use cote_catalog::Catalog;
use cote_optimizer::{CompileStats, Mode, Optimizer, OptimizerConfig};
use cote_query::Query;

/// Per-set `plans_generated` totals of the in-tree statement sets.
const PLAN_TOTALS: &str = include_str!("../expected/plan_totals.json");

/// Repeat counts are written for a run of this many seconds and scale with
/// `--seconds`; they never adapt to measured time, so two commits compile
/// the same input.
pub const BASE_SECONDS: f64 = 15.0;

/// (set, repeats at [`BASE_SECONDS`]): each set contributes 1–3 s.
pub const SERIAL_SETS: [(&str, usize); 7] = [
    ("real2-s", 3),
    ("linear-s", 1),
    ("star-s", 3),
    ("cycle-s", 9),
    ("random-s", 9),
    ("tpch-s", 18),
    ("real1-s", 36),
];

/// `real2-p` is left out on purpose: 178 s and 13.9 GB on the baseline box.
pub const PARALLEL_SETS: [(&str, usize); 6] = [
    ("linear-p", 1),
    ("star-p", 3),
    ("cycle-p", 6),
    ("random-p", 9),
    ("tpch-p", 18),
    ("real1-p", 36),
];

/// ≈12 s and ≈960 MB on the baseline box: compiled once whatever its set's
/// repeat count.
const ONCE: &str = "real2_q09";

pub struct Set {
    pub name: String,
    pub catalog: Catalog,
    pub queries: Vec<Query>,
    pub repeats: usize,
    /// The statements are the in-tree ones, so `plan_totals.json` applies.
    pub in_tree: bool,
}

pub fn scaled(repeats: usize, seconds: f64) -> usize {
    ((repeats as f64 * seconds / BASE_SECONDS).round() as usize).max(1)
}

/// Load `name`; a `random-*` set is regenerated from `seed` (42 is the
/// in-tree set).
pub fn load_set(name: &str, repeats: usize, seed: u64) -> Result<Set, String> {
    let mut w = cote_workloads::by_name(name).map_err(|e| e.to_string())?;
    let seeded = name.starts_with("random-");
    if seeded {
        w = cote_workloads::random::random(w.mode, seed);
    }
    Ok(Set {
        name: name.to_string(),
        catalog: w.catalog,
        queries: w.queries,
        repeats,
        in_tree: !seeded || seed == 42,
    })
}

/// Fit the time model the way `cote serve` does, on a wider training set:
/// the first six statements of `linear` and `star` and all of `real1`.
pub fn calibrate(mode: Mode) -> Result<TimeModel, String> {
    let suffix = if mode == Mode::Serial { "s" } else { "p" };
    let mut sets = Vec::new();
    for (base, take) in [("linear", 6), ("star", 6), ("real1", 8)] {
        let mut w =
            cote_workloads::by_name(&format!("{base}-{suffix}")).map_err(|e| e.to_string())?;
        w.queries.truncate(take);
        sets.push(w);
    }
    let refs: Vec<(&Catalog, &[Query])> =
        sets.iter().map(|w| (&w.catalog, &w.queries[..])).collect();
    cote::calibrate_per_phase(&refs, &OptimizerConfig::high(mode), 1)
        .map(|c| c.model)
        .map_err(|e| e.to_string())
}

#[derive(Default)]
pub struct StmtOut {
    /// `optimize_query` wall of each repeat, reference seconds.
    pub compile_s: Vec<f64>,
    /// `Cote::estimate` wall of each pass, reference seconds.
    pub estimate_s: Vec<f64>,
    pub generated: u64,
    pub estimated: u64,
    /// Compile seconds the fitted model predicts from the estimated counts.
    pub predicted_s: f64,
}

pub struct SetOut {
    pub name: String,
    pub in_tree: bool,
    pub stmts: Vec<StmtOut>,
    /// `CompileStats` of one pass over the set.
    pub stats: CompileStats,
}

impl SetOut {
    pub fn plans(&self) -> u64 {
        self.stmts.iter().map(|s| s.generated).sum()
    }

    /// Steady time of one pass: the sum of each statement's steady time.
    pub fn compile_s(&self) -> f64 {
        self.stmts.iter().map(|s| steady_low(&s.compile_s)).sum()
    }

    pub fn estimate_s(&self) -> f64 {
        self.stmts.iter().map(|s| steady_low(&s.estimate_s)).sum()
    }
}

pub struct Out {
    pub sets: Vec<SetOut>,
    pub attempted: u64,
    pub failed: u64,
    /// Σ `optimize_query` wall as timed here over every repeat, reference
    /// seconds, and Σ of the phases `CompileStats` reports for them.
    pub compile_wall_s: f64,
    pub phase_s: [(&'static str, f64); 6],
    /// Σ plans generated over every repeat.
    pub all_plans: u64,
    pub problems: Vec<String>,
}

impl Out {
    pub fn stmts(&self) -> impl Iterator<Item = &StmtOut> {
        self.sets.iter().flat_map(|s| &s.stmts)
    }

    /// Geometric mean over the sets of plans per steady second: every
    /// statement family counts once, however long its slowest statement.
    pub fn compile_plans_per_s(&self) -> f64 {
        geomean(
            &self
                .sets
                .iter()
                .map(|s| s.plans() as f64 / s.compile_s())
                .collect::<Vec<_>>(),
        )
    }

    pub fn estimate_stmts_per_s(&self) -> f64 {
        self.stmts().count() as f64 / self.sets.iter().map(SetOut::estimate_s).sum::<f64>()
    }
}

/// |estimated − generated| / generated per statement, in percent.
pub fn plan_count_errors<'a>(stmts: impl Iterator<Item = &'a StmtOut>) -> Vec<f64> {
    stmts
        .map(|s| 100.0 * (s.estimated as f64 - s.generated as f64).abs() / s.generated as f64)
        .collect()
}

/// Compile every set `repeats` times, the repeats spread evenly over the
/// rounds so that a noisy stretch of the box touches every set alike, then
/// estimate every statement `estimate_passes` times.
pub fn run(
    sets: &[Set],
    mode: Mode,
    model: &TimeModel,
    estimate_passes: usize,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Out {
    let config = OptimizerConfig::high(mode);
    let optimizer = Optimizer::new(config.clone());
    let cote = Cote::new(config, model.clone());
    let mut out = Out {
        sets: sets
            .iter()
            .map(|s| SetOut {
                name: s.name.clone(),
                in_tree: s.in_tree,
                stmts: s.queries.iter().map(|_| StmtOut::default()).collect(),
                stats: CompileStats::default(),
            })
            .collect(),
        attempted: 0,
        failed: 0,
        compile_wall_s: 0.0,
        phase_s: ["enumeration", "nljn", "mgjn", "hsjn", "saving", "other"].map(|p| (p, 0.0)),
        all_plans: 0,
        problems: Vec::new(),
    };
    let rounds = sets.iter().map(|s| s.repeats).max().unwrap_or(0);
    for round in 0..rounds {
        for (set, so) in sets.iter().zip(&mut out.sets) {
            // Round r runs the set's next repeat when r·repeats/rounds moves on.
            let due =
                round == 0 || round * set.repeats / rounds != (round - 1) * set.repeats / rounds;
            if !due {
                continue;
            }
            for (i, (q, st)) in set.queries.iter().zip(&mut so.stmts).enumerate() {
                if q.name == ONCE && !st.compile_s.is_empty() {
                    continue;
                }
                out.attempted += 1;
                let (seconds, speed, result) = reference.price(|| {
                    tracer.span("optimizer.optimize_query", NONE, i as u64, || {
                        optimizer.optimize_query(&set.catalog, q)
                    })
                });
                let stats = match result {
                    Ok(r) => r.stats,
                    Err(e) => {
                        out.failed += 1;
                        out.problems
                            .push(format!("{}: optimize_query failed: {e}", q.name));
                        // Keep a sample: the statistics take no empty list.
                        st.compile_s.push(seconds);
                        continue;
                    }
                };
                let plans = stats.plans_generated.total();
                if st.compile_s.is_empty() {
                    st.generated = plans;
                    so.stats.add(&stats);
                } else if plans != st.generated {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{}: {plans} plans, {} on the first compile",
                        q.name, st.generated
                    ));
                }
                st.compile_s.push(seconds);
                out.compile_wall_s += seconds;
                let p = &stats.time;
                for (sum, d) in out.phase_s.iter_mut().zip([
                    p.enumeration,
                    p.nljn,
                    p.mgjn,
                    p.hsjn,
                    p.saving,
                    p.other,
                ]) {
                    sum.1 += d.as_secs_f64() * speed;
                }
                out.all_plans += plans;
            }
        }
    }
    for pass in 0..estimate_passes {
        for (set, so) in sets.iter().zip(&mut out.sets) {
            for (i, (q, st)) in set.queries.iter().zip(&mut so.stmts).enumerate() {
                out.attempted += 1;
                let (seconds, _, result) = reference.price(|| {
                    tracer.span("core.estimate", NONE, i as u64, || {
                        cote.estimate(&set.catalog, q)
                    })
                });
                match result {
                    Ok(e) if pass == 0 => {
                        st.estimated = e.counts.total();
                        st.predicted_s = e.seconds;
                    }
                    Ok(e) if e.counts.total() != st.estimated => {
                        out.failed += 1;
                        out.problems
                            .push(format!("{}: estimate changed between passes", q.name));
                    }
                    Ok(_) => {}
                    Err(e) => {
                        out.failed += 1;
                        out.problems
                            .push(format!("{}: estimate failed: {e}", q.name));
                    }
                }
                st.estimate_s.push(seconds);
            }
        }
    }
    check_totals(&mut out);
    out
}

/// In-tree sets must generate exactly the committed plan totals.
fn check_totals(out: &mut Out) {
    let expected = Json::parse(PLAN_TOTALS).expect("plan_totals.json is valid JSON");
    for s in out.sets.iter().filter(|s| s.in_tree) {
        match expected.get(&s.name).and_then(Json::num) {
            Some(want) if want == s.plans() as f64 => {}
            Some(want) => out.problems.push(format!(
                "{}: {} plans generated, {want} expected",
                s.name,
                s.plans()
            )),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeats_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(scaled(9, 15.0), 9);
        assert_eq!(scaled(9, 30.0), 18);
        assert_eq!(scaled(1, 1.0), 1);
    }

    #[test]
    fn small_set_runs_its_repeats_and_matches_the_committed_total() {
        let set = load_set("real1-s", 3, 42).unwrap();
        let model = TimeModel::from_coefficients(&[1e-6, 1e-6, 1e-6, 0.0]);
        let out = run(
            &[set],
            Mode::Serial,
            &model,
            2,
            &mut Reference::new(),
            &mut Tracer::new(false),
        );
        assert!(out.problems.is_empty(), "{:?}", out.problems);
        assert!(out
            .stmts()
            .all(|s| s.compile_s.len() == 3 && s.estimate_s.len() == 2));
        assert_eq!(out.attempted, 8 * 5);
    }
}
