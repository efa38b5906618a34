//! Calibration: fit the §3.5 `C_t` coefficients on a training workload.
//!
//! Per the paper (§3.5): "collect the real counts of generated join plans
//! together with the actual compilation time for a set of training queries,
//! and then calculate `C_t` by running regression on our model", re-running
//! per release/machine.

use crate::regression::nonnegative_least_squares;
use crate::time_model::TimeModel;
use cote_catalog::Catalog;
use cote_common::{CoteError, Result};
use cote_optimizer::{Optimizer, OptimizerConfig, PerMethod};
use cote_query::Query;

/// One calibration observation.
#[derive(Debug, Clone)]
pub struct TrainingPoint {
    /// Query name.
    pub name: String,
    /// Actual generated join-plan counts.
    pub counts: PerMethod,
    /// Actual compilation seconds.
    pub seconds: f64,
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
        let predicted: Vec<f64> = self
            .training
            .iter()
            .map(|p| self.model.predict_seconds(&p.counts))
            .collect();
        let actual: Vec<f64> = self.training.iter().map(|p| p.seconds).collect();
        crate::regression::mean_abs_pct_error(&predicted, &actual)
    }
}

/// Compile every training query with the real optimizer, collect
/// (counts, seconds) pairs, and fit nonnegative coefficients.
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
    let optimizer = Optimizer::new(config.clone());
    let mut training = Vec::new();
    for (catalog, queries) in sets {
        for q in *queries {
            let mut best_secs = f64::INFINITY;
            let mut counts = PerMethod::default();
            for _ in 0..repeats.max(1) {
                let r = optimizer.optimize_query(catalog, q)?;
                let secs = r.stats.elapsed.as_secs_f64();
                if secs < best_secs {
                    best_secs = secs;
                    counts = r.stats.plans_generated;
                }
            }
            training.push(TrainingPoint {
                name: q.name.clone(),
                counts,
                seconds: best_secs,
            });
        }
    }

    // Weighted (relative) least squares: divide each observation by its
    // target so every query contributes its *percentage* error. Plain least
    // squares would be dominated by the handful of largest compilations and
    // leave small queries with huge relative errors — and the estimates are
    // judged in percent (Fig. 6).
    let xs: Vec<Vec<f64>> = training
        .iter()
        .map(|p| {
            let y = p.seconds.max(1e-9);
            vec![
                p.counts.nljn as f64 / y,
                p.counts.mgjn as f64 / y,
                p.counts.hsjn as f64 / y,
                1.0 / y,
            ]
        })
        .collect();
    let ys: Vec<f64> = vec![1.0; training.len()];
    let beta = nonnegative_least_squares(&xs, &ys)?;
    Ok(Calibration {
        model: TimeModel::from_coefficients(&beta),
        training,
    })
}

/// Alternative calibration from per-phase instrumentation: each `C_t` is
/// the measured plan-generation time of method `t` divided by the plans it
/// generated, summed over the training set; the intercept absorbs the rest
/// (enumeration, saving, scans, finalization).
///
/// The paper fits by regression on total time (§3.5) because DB2 lacked
/// per-method timers; with them, this direct attribution sidesteps the
/// multicollinearity that can make the regression's *individual*
/// coefficients wander (its predictions are unaffected). Reported alongside
/// the regression fit by the `table_ct_regression` harness.
pub fn calibrate_per_phase(
    sets: &[(&Catalog, &[Query])],
    config: &OptimizerConfig,
    repeats: usize,
) -> Result<Calibration> {
    use cote_optimizer::JoinMethod;
    let optimizer = Optimizer::new(config.clone());
    let mut training = Vec::new();
    let mut time = [0.0f64; 3];
    let mut count = [0u64; 3];
    let mut rest = 0.0f64;
    let mut queries_n = 0u64;
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
            for (i, m) in JoinMethod::ALL.into_iter().enumerate() {
                count[i] += stats.plans_generated.get(m);
            }
            time[0] += stats.time.nljn.as_secs_f64();
            time[1] += stats.time.mgjn.as_secs_f64();
            time[2] += stats.time.hsjn.as_secs_f64();
            rest += (stats.time.enumeration + stats.time.saving + stats.time.other).as_secs_f64();
            queries_n += 1;
            training.push(TrainingPoint {
                name: q.name.clone(),
                counts: stats.plans_generated,
                seconds: stats.elapsed.as_secs_f64(),
            });
        }
    }
    if queries_n == 0 || count.contains(&0) {
        return Err(CoteError::Calibration {
            reason: "per-phase calibration needs every join method exercised".into(),
        });
    }
    // The non-plan-generation remainder (enumeration, saving, scans) tracks
    // plan volume far better than query count, so it is distributed
    // proportionally over the coefficients rather than parked in a flat
    // per-query intercept.
    let method_total: f64 = time.iter().sum();
    let scale = 1.0 + rest / method_total.max(f64::MIN_POSITIVE);
    let model = TimeModel {
        c_nljn: scale * time[0] / count[0] as f64,
        c_mgjn: scale * time[1] / count[1] as f64,
        c_hsjn: scale * time[2] / count[2] as f64,
        intercept: 0.0,
    };
    Ok(Calibration { model, training })
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

    /// The per-phase fit reads `stats.time`, which must be real seconds in
    /// every build shape: filled from span self-times it was all zeros under
    /// `obs-off`, and every statement was predicted to take 0 ms. CI runs
    /// this crate's tests with `--features obs-off` for this test's sake.
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
