//! Calibration: fit the §3.5 `C_t` coefficients on a training workload.
//!
//! Per the paper (§3.5): "collect the real counts of generated join plans
//! together with the actual compilation time for a set of training queries,
//! and then calculate `C_t` by running regression on our model", re-running
//! per release/machine.
//!
//! Every fit here can take the join column `J` (enumerated orientations)
//! beside the plan counts ([`Columns`]): the optimizer prices a join's
//! histogram walk once per orientation, so `T = c_J·J + Σ C_t·P_t` is the
//! model that matches it. [`training_points`] compiles once; [`fit_total`]
//! and [`fit_per_phase`] refit the same points either way, which is what
//! `table_ct_regression` compares.

use crate::regression::nonnegative_least_squares;
use crate::time_model::TimeModel;
use cote_catalog::Catalog;
use cote_common::{CoteError, Result};
use cote_optimizer::{JoinMethod, Optimizer, OptimizerConfig, PerMethod, PhaseTimes};
use cote_query::Query;

/// One calibration observation.
#[derive(Debug, Clone)]
pub struct TrainingPoint {
    /// Query name.
    pub name: String,
    /// Actual generated join-plan counts.
    pub counts: PerMethod,
    /// Actual enumerated join orientations.
    pub joins: u64,
    /// Actual compilation seconds.
    pub seconds: f64,
    /// The same compilation's per-phase clock.
    pub time: PhaseTimes,
}

/// A fitted model plus the raw observations behind it.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// The fitted model.
    pub model: TimeModel,
    /// The observations used.
    pub training: Vec<TrainingPoint>,
}

impl Calibration {
    /// Training-set mean absolute percentage error of the fit.
    pub fn training_error(&self) -> f64 {
        training_error(&self.model, &self.training)
    }
}

/// Mean absolute percentage error of `model` on `points`.
pub fn training_error(model: &TimeModel, points: &[TrainingPoint]) -> f64 {
    let predicted: Vec<f64> = points
        .iter()
        .map(|p| model.predict(&p.counts, p.joins))
        .collect();
    let actual: Vec<f64> = points.iter().map(|p| p.seconds).collect();
    crate::regression::mean_abs_pct_error(&predicted, &actual)
}

/// The regressors a fit uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Columns {
    /// The paper's plan counts only: `c_join` stays zero.
    Plans,
    /// Plan counts and the join column `J`.
    PlansAndJoins,
}

/// Compile every training query with the real optimizer, fit nonnegative
/// coefficients on total time ([`fit_total`]), plans and joins.
///
/// `repeats` re-runs each compilation and keeps the *minimum* wall clock per
/// query, damping scheduler noise on small queries.
pub fn calibrate(
    catalog: &Catalog,
    queries: &[Query],
    config: &OptimizerConfig,
    repeats: usize,
) -> Result<Calibration> {
    calibrate_multi(&[(catalog, queries)], config, repeats)
}

/// [`calibrate`] over several schemas at once.
///
/// Training across heterogeneous catalogs (synthetic chains/stars plus a
/// warehouse schema) de-correlates the per-method plan counts, which keeps
/// the nonnegative fit from collapsing a coefficient to zero.
pub fn calibrate_multi(
    sets: &[(&Catalog, &[Query])],
    config: &OptimizerConfig,
    repeats: usize,
) -> Result<Calibration> {
    let training = training_points(sets, config, repeats)?;
    Ok(Calibration {
        model: fit_total(&training, Columns::PlansAndJoins)?,
        training,
    })
}

/// Per-phase calibration ([`fit_per_phase`]), plans and joins.
pub fn calibrate_per_phase(
    sets: &[(&Catalog, &[Query])],
    config: &OptimizerConfig,
    repeats: usize,
) -> Result<Calibration> {
    let training = training_points(sets, config, repeats)?;
    Ok(Calibration {
        model: fit_per_phase(&training, Columns::PlansAndJoins)?,
        training,
    })
}

/// Compile every query of `sets` `repeats` times and keep, per query, the
/// compilation with the least wall clock.
pub fn training_points(
    sets: &[(&Catalog, &[Query])],
    config: &OptimizerConfig,
    repeats: usize,
) -> Result<Vec<TrainingPoint>> {
    let optimizer = Optimizer::new(config.clone());
    let mut training = Vec::new();
    for (catalog, queries) in sets {
        for q in *queries {
            let mut best: Option<cote_optimizer::CompileStats> = None;
            for _ in 0..repeats.max(1) {
                let r = optimizer.optimize_query(catalog, q)?;
                if best.as_ref().is_none_or(|b| r.stats.elapsed < b.elapsed) {
                    best = Some(r.stats);
                }
            }
            let stats = best.expect("repeats >= 1");
            training.push(TrainingPoint {
                name: q.name.clone(),
                counts: stats.plans_generated,
                joins: stats.joins_enumerated,
                seconds: stats.elapsed.as_secs_f64(),
                time: stats.time,
            });
        }
    }
    Ok(training)
}

/// The paper's fit: nonnegative least squares of total compile seconds on
/// the plan counts (and `J`), plus an intercept.
///
/// Weighted (relative) least squares: each observation is divided by its
/// target so every query contributes its *percentage* error. Plain least
/// squares would be dominated by the handful of largest compilations and
/// leave small queries with huge relative errors — and the estimates are
/// judged in percent (Fig. 6).
pub fn fit_total(points: &[TrainingPoint], columns: Columns) -> Result<TimeModel> {
    let xs: Vec<Vec<f64>> = points
        .iter()
        .map(|p| {
            let y = p.seconds.max(1e-9);
            let mut x = vec![
                p.counts.nljn as f64 / y,
                p.counts.mgjn as f64 / y,
                p.counts.hsjn as f64 / y,
                1.0 / y,
            ];
            if columns == Columns::PlansAndJoins {
                x.push(p.joins as f64 / y);
            }
            x
        })
        .collect();
    let beta = nonnegative_least_squares(&xs, &vec![1.0; points.len()])?;
    Ok(TimeModel::from_coefficients(&beta))
}

/// Fit from the per-phase clock: each method's measured plan-generation
/// time is attributed to its own plans (and, with the join column, to the
/// joins it ran at); the rest (enumeration, saving, scans, finalization)
/// tracks plan volume far better than query count, so it is spread
/// proportionally over the coefficients rather than parked in a flat
/// per-query intercept.
///
/// Plans only, `C_t` is method `t`'s time summed over the training set
/// divided by its plans. With the join column, `(C_t, c_J,t)` is the
/// nonnegative least-squares fit of method `t`'s time per query on
/// `(P_t, J)`, and `c_J = Σ_t c_J,t`; a method timed on fewer queries than
/// that fit needs falls back to the plans-only attribution. Both weigh a
/// query by its time, not by its share of error as [`fit_total`] does: a
/// tiny query's phase times are a few microseconds, and one interrupt
/// there would otherwise move every coefficient.
///
/// The paper fits by regression on total time (§3.5) because DB2 lacked
/// per-method timers; with them, this direct attribution sidesteps the
/// multicollinearity that can make the regression's *individual*
/// coefficients wander (its predictions are unaffected).
pub fn fit_per_phase(points: &[TrainingPoint], columns: Columns) -> Result<TimeModel> {
    let mut time = [0.0f64; 3];
    let mut count = [0u64; 3];
    let mut rest = 0.0f64;
    for p in points {
        for (i, m) in JoinMethod::ALL.into_iter().enumerate() {
            count[i] += p.counts.get(m);
            time[i] += p.time.method(m).as_secs_f64();
        }
        rest += (p.time.enumeration + p.time.saving + p.time.other).as_secs_f64();
    }
    if points.is_empty() || count.contains(&0) {
        return Err(CoteError::Calibration {
            reason: "per-phase calibration needs every join method exercised".into(),
        });
    }
    let method_total: f64 = time.iter().sum();
    let scale = 1.0 + rest / method_total.max(f64::MIN_POSITIVE);
    let mut beta = [0.0f64; 5];
    for (i, m) in JoinMethod::ALL.into_iter().enumerate() {
        if columns == Columns::Plans {
            beta[i] = scale * time[i] / count[i] as f64;
            continue;
        }
        let rows: Vec<Vec<f64>> = points
            .iter()
            .map(|p| vec![p.counts.get(m) as f64, p.joins as f64])
            .collect();
        let ys: Vec<f64> = points
            .iter()
            .map(|p| p.time.method(m).as_secs_f64())
            .collect();
        // Too few queries to tell per-join from per-plan time: all to plans.
        let b = nonnegative_least_squares(&rows, &ys)
            .unwrap_or_else(|_| vec![time[i] / count[i] as f64, 0.0]);
        beta[i] = scale * b[0];
        beta[4] += scale * b[1];
    }
    Ok(TimeModel::from_coefficients(&beta))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_catalog::{ColumnDef, IndexDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::Mode;
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            let t = b.add_table(TableDef::new(
                format!("t{i}"),
                3000.0,
                vec![
                    ColumnDef::uniform("c0", 3000.0, 300.0),
                    ColumnDef::uniform("c1", 3000.0, 60.0),
                ],
            ));
            b.add_index(IndexDef::new(t, vec![0]).clustered());
        }
        b.build().unwrap()
    }

    fn chain_query(cat: &Catalog, n: usize, orderby: bool, name: &str) -> Query {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 0..n - 1 {
            b.join(
                ColRef::new(TableRef(i as u8), 0),
                ColRef::new(TableRef(i as u8 + 1), 0),
            );
        }
        if orderby {
            b.order_by(vec![ColRef::new(TableRef(0), 1)]);
        }
        Query::new(name, b.build(cat).unwrap())
    }

    #[test]
    fn calibration_produces_nonnegative_predictive_model() {
        let cat = catalog(7);
        let queries: Vec<Query> = (3..=7)
            .flat_map(|n| {
                [
                    chain_query(&cat, n, false, &format!("q{n}")),
                    chain_query(&cat, n, true, &format!("q{n}o")),
                ]
            })
            .collect();
        let cfg = OptimizerConfig::high(Mode::Serial);
        let cal = calibrate(&cat, &queries, &cfg, 2).unwrap();
        assert!(cal.model.c_nljn >= 0.0 && cal.model.c_mgjn >= 0.0 && cal.model.c_hsjn >= 0.0);
        assert!(
            cal.model.c_nljn + cal.model.c_mgjn + cal.model.c_hsjn > 0.0,
            "some join work was attributed"
        );
        assert_eq!(cal.training.len(), 10);
        // In-sample predictions should be in the right ballpark. Debug-build
        // timing is noisy; this is a smoke bound, the benches measure
        // properly in release mode.
        assert!(cal.training_error() < 2.0, "error {}", cal.training_error());
    }

    /// The per-phase fit reads `stats.time`, which must be real seconds: a
    /// method bucket left at zero fits `C_t = 0`, and every statement is
    /// then predicted to take 0 ms.
    #[test]
    fn per_phase_fit_attributes_time_to_every_method() {
        let cat = catalog(5);
        let queries = [chain_query(&cat, 5, true, "chain5")];
        let cfg = OptimizerConfig::high(Mode::Serial);
        let cal = calibrate_per_phase(&[(&cat, &queries[..])], &cfg, 1).unwrap();
        let m = cal.model;
        assert!(
            m.c_nljn > 0.0 && m.c_mgjn > 0.0 && m.c_hsjn > 0.0,
            "a method was timed at zero: {m:?}"
        );
    }

    #[test]
    fn join_column_fits_recover_a_per_join_term() {
        // Synthetic compiles: each method's time is 1 µs per plan plus 4 µs
        // per join, and nothing else.
        let points: Vec<TrainingPoint> = (0..8u64)
            .map(|i| {
                let counts = PerMethod {
                    nljn: 40 + 25 * (i % 3),
                    mgjn: 10 + 15 * (i % 4),
                    hsjn: 20 + 5 * i,
                };
                let joins = 6 + 3 * (i % 5);
                let t = |plans: u64| std::time::Duration::from_nanos(1000 * plans + 4000 * joins);
                let time = PhaseTimes {
                    nljn: t(counts.nljn),
                    mgjn: t(counts.mgjn),
                    hsjn: t(counts.hsjn),
                    ..Default::default()
                };
                TrainingPoint {
                    name: format!("q{i}"),
                    counts,
                    joins,
                    seconds: time.total().as_secs_f64(),
                    time,
                }
            })
            .collect();
        let close = |a: f64, b: f64| ((a - b) / b).abs() < 1e-3;
        let m = fit_per_phase(&points, Columns::PlansAndJoins).unwrap();
        assert!(close(m.c_join, 12e-6) && close(m.c_nljn, 1e-6), "{m:?}");
        assert!(training_error(&m, &points) < 1e-4);
        let plans_only = fit_per_phase(&points, Columns::Plans).unwrap();
        assert_eq!(plans_only.c_join, 0.0);
        assert!(training_error(&plans_only, &points) > 0.01);
        let total = fit_total(&points, Columns::PlansAndJoins).unwrap();
        assert!(training_error(&total, &points) < 1e-4, "{total:?}");
        assert_eq!(fit_total(&points, Columns::Plans).unwrap().c_join, 0.0);
    }

    #[test]
    fn calibration_needs_enough_queries() {
        let cat = catalog(3);
        let queries = vec![chain_query(&cat, 3, false, "only")];
        let cfg = OptimizerConfig::high(Mode::Serial);
        assert!(
            calibrate(&cat, &queries, &cfg, 1).is_err(),
            "underdetermined fit"
        );
    }
}
