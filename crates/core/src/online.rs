//! Online recalibration of the §3.5 time model.
//!
//! The paper fits `T = T_inst · Σ C_t·P_t` once, offline. A deployed
//! estimator drifts away from that fit — the machine changes (`T_inst`), a
//! release changes per-plan work (`C_t`), background load skews timings.
//! [`OnlineRegressor`] closes the loop: every completed optimization reports
//! its `(plan counts, join count, actual seconds)` observation and the
//! coefficients (the join term `c_J` among them) are
//! updated in place by recursive least squares with exponential (EWMA)
//! forgetting, so recent traffic dominates the fit.
//!
//! Consistency with the offline fit is kept on two axes:
//!
//! * **Relative weighting.** Observations are scaled by their target
//!   (`x/y → 1`), exactly like [`calibrate`](crate::calibrate::calibrate)'s
//!   weighted least squares, so every query contributes its *percentage*
//!   error and the handful of largest compilations cannot capture the fit.
//! * **Nonnegativity.** After each update the coefficient vector is
//!   projected onto the nonnegative orthant (a join plan cannot take
//!   negative time), matching the offline NNLS solution set.

use crate::time_model::TimeModel;
use cote_optimizer::PerMethod;

/// Coefficients tracked: NLJN, MGJN, HSJN, intercept, join.
const K: usize = 5;

/// Tuning for [`OnlineRegressor`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// EWMA forgetting factor λ in `(0, 1]`: the weight of an observation
    /// decays as `λ^age`. `1.0` never forgets (plain RLS); `0.97` gives an
    /// effective window of ~33 observations.
    pub forgetting: f64,
    /// Initial covariance scale δ (`P₀ = δ·I`): how far the first
    /// observations may pull the seed coefficients. Larger adapts faster.
    pub initial_variance: f64,
    /// Observations required before [`OnlineRegressor::model`] departs from
    /// the seed model (guards against a half-warm fit advising nonsense).
    pub warmup: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            forgetting: 0.97,
            initial_variance: 50.0,
            warmup: 8,
        }
    }
}

/// Recursive-least-squares estimator of the time-model coefficients with
/// EWMA forgetting and nonnegativity projection.
///
/// ```
/// use cote::online::{OnlineConfig, OnlineRegressor};
/// use cote::TimeModel;
/// use cote_optimizer::PerMethod;
///
/// let seed = TimeModel { c_nljn: 1e-6, c_mgjn: 1e-6, c_hsjn: 1e-6, c_join: 5e-6, intercept: 0.0 };
/// let mut reg = OnlineRegressor::new(&seed, OnlineConfig::default());
/// let (counts, joins) = (PerMethod { nljn: 500, mgjn: 200, hsjn: 300 }, 40);
/// // The deployed machine is 2x slower than the calibration machine:
/// for _ in 0..40 {
///     reg.observe(&counts, joins, 2.0 * seed.predict(&counts, joins));
/// }
/// let adapted = reg.model().predict(&counts, joins);
/// let seeded = seed.predict(&counts, joins);
/// assert!((adapted - 2.0 * seeded).abs() / (2.0 * seeded) < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct OnlineRegressor {
    seed: TimeModel,
    cfg: OnlineConfig,
    /// Coefficients `[c_nljn, c_mgjn, c_hsjn, intercept, c_join]`.
    theta: [f64; K],
    /// Inverse-covariance estimate `P`.
    p: [[f64; K]; K],
    observations: u64,
}

impl OnlineRegressor {
    /// A regressor seeded with the offline fit.
    pub fn new(seed: &TimeModel, cfg: OnlineConfig) -> Self {
        let theta = [
            seed.c_nljn,
            seed.c_mgjn,
            seed.c_hsjn,
            seed.intercept,
            seed.c_join,
        ];
        let mut p = [[0.0; K]; K];
        for (i, row) in p.iter_mut().enumerate() {
            row[i] = cfg.initial_variance.max(f64::MIN_POSITIVE);
        }
        Self {
            seed: seed.clone(),
            cfg,
            theta,
            p,
            observations: 0,
        }
    }

    /// Observations absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Still returning the seed model (fewer than `warmup` observations)?
    pub fn warming_up(&self) -> bool {
        self.observations < self.cfg.warmup
    }

    /// The current model: the seed until `warmup` observations have been
    /// absorbed, the live RLS fit afterwards.
    pub fn model(&self) -> TimeModel {
        if self.warming_up() {
            return self.seed.clone();
        }
        TimeModel::from_coefficients(&self.theta)
    }

    /// The seed (offline) model the regressor started from.
    pub fn seed_model(&self) -> &TimeModel {
        &self.seed
    }

    /// Absorb one `(counts, joins, actual seconds)` observation and return
    /// the model's *prior* prediction for it (the prequential estimate,
    /// useful for residual tracking: predicted before the update saw the
    /// truth).
    pub fn observe(&mut self, counts: &PerMethod, joins: u64, actual_seconds: f64) -> f64 {
        let predicted = self.model().predict(counts, joins);
        if !actual_seconds.is_finite() || actual_seconds <= 0.0 {
            return predicted; // a non-timing (failed/poisoned) report
        }
        // Relative weighting, as in the offline fit: x/y → 1.
        let y = actual_seconds.max(1e-9);
        let x = [
            counts.nljn as f64 / y,
            counts.mgjn as f64 / y,
            counts.hsjn as f64 / y,
            1.0 / y,
            joins as f64 / y,
        ];
        let lambda = self.cfg.forgetting.clamp(1e-3, 1.0);

        // RLS update: k = P·x / (λ + xᵀP·x); θ += k·(1 − xᵀθ);
        // P = (P − k·xᵀP)/λ. P stays symmetric, so xᵀP = (P·x)ᵀ.
        let mut px = [0.0; K];
        for (pxi, row) in px.iter_mut().zip(&self.p) {
            *pxi = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        }
        let denom = lambda + x.iter().zip(&px).map(|(a, b)| a * b).sum::<f64>();
        if denom <= 0.0 || !denom.is_finite() {
            return predicted;
        }
        let gain: Vec<f64> = px.iter().map(|v| v / denom).collect();
        let err = 1.0 - x.iter().zip(&self.theta).map(|(a, b)| a * b).sum::<f64>();
        for (t, g) in self.theta.iter_mut().zip(&gain) {
            *t += g * err;
        }
        for (row, g) in self.p.iter_mut().zip(&gain) {
            for (pij, pxj) in row.iter_mut().zip(&px) {
                *pij = (*pij - g * pxj) / lambda;
            }
        }
        // Projection onto the nonnegative orthant: stay consistent with the
        // offline NNLS fit (and keep predictions physically meaningful).
        for t in self.theta.iter_mut() {
            if !t.is_finite() || *t < 0.0 {
                *t = 0.0;
            }
        }
        self.observations += 1;
        predicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_stream() -> Vec<(PerMethod, u64)> {
        // Varying mixes so all five coefficients are identified.
        (0..12)
            .map(|i| {
                let counts = PerMethod {
                    nljn: 100 + 90 * (i % 5),
                    mgjn: 40 + 60 * (i % 3),
                    hsjn: 60 + 30 * (i % 4),
                };
                (counts, 20 + 15 * (i % 7))
            })
            .collect()
    }

    fn seed() -> TimeModel {
        TimeModel {
            c_nljn: 2e-6,
            c_mgjn: 5e-6,
            c_hsjn: 4e-6,
            c_join: 1e-5,
            intercept: 1e-4,
        }
    }

    #[test]
    fn warmup_returns_the_seed() {
        let mut reg = OnlineRegressor::new(&seed(), OnlineConfig::default());
        assert!(reg.warming_up());
        assert_eq!(reg.model(), seed());
        for (c, j) in counts_stream().iter().take(7) {
            reg.observe(c, *j, seed().predict(c, *j));
        }
        assert!(reg.warming_up(), "7 < warmup of 8");
        assert_eq!(reg.model(), seed());
    }

    #[test]
    fn converges_to_a_scaled_machine() {
        // The deployed machine runs 1.7x slower: every actual is 1.7x the
        // seed prediction. The regressor should converge to ~1.7x the seed.
        let mut reg = OnlineRegressor::new(&seed(), OnlineConfig::default());
        let stream = counts_stream();
        for round in 0..6 {
            for (c, j) in &stream {
                let _ = round;
                reg.observe(c, *j, 1.7 * seed().predict(c, *j));
            }
        }
        let m = reg.model();
        for (c, j) in &stream {
            let want = 1.7 * seed().predict(c, *j);
            let got = m.predict(c, *j);
            assert!(((got - want) / want).abs() < 0.05, "want {want}, got {got}");
        }
        assert!(!reg.warming_up());
        assert_eq!(reg.observations(), 72);
    }

    #[test]
    fn forgetting_tracks_a_step_change() {
        let mut reg = OnlineRegressor::new(&seed(), OnlineConfig::default());
        let stream = counts_stream();
        // Phase 1: truth == seed. Phase 2: truth jumps to 3x.
        for _ in 0..3 {
            for (c, j) in &stream {
                reg.observe(c, *j, seed().predict(c, *j));
            }
        }
        let before = reg.model().predict(&stream[0].0, stream[0].1);
        for _ in 0..20 {
            for (c, j) in &stream {
                reg.observe(c, *j, 3.0 * seed().predict(c, *j));
            }
        }
        let after = reg.model().predict(&stream[0].0, stream[0].1);
        let want = 3.0 * seed().predict(&stream[0].0, stream[0].1);
        assert!(
            ((after - want) / want).abs() < 0.10,
            "before {before}, after {after}, want {want}"
        );
    }

    #[test]
    fn coefficients_stay_nonnegative() {
        let mut reg = OnlineRegressor::new(&seed(), OnlineConfig::default());
        // Adversarial stream: tiny actuals that plain RLS would chase below
        // zero on some coefficients.
        for (i, (c, j)) in counts_stream().iter().cycle().take(60).enumerate() {
            let scale = if i % 2 == 0 { 0.05 } else { 2.5 };
            reg.observe(c, *j, scale * seed().predict(c, *j));
        }
        let m = reg.model();
        assert!(
            m.c_nljn >= 0.0
                && m.c_mgjn >= 0.0
                && m.c_hsjn >= 0.0
                && m.c_join >= 0.0
                && m.intercept >= 0.0
        );
    }

    #[test]
    fn rejects_nonpositive_and_nonfinite_actuals() {
        let mut reg = OnlineRegressor::new(&seed(), OnlineConfig::default());
        let (c, j) = counts_stream()[0];
        reg.observe(&c, j, 0.0);
        reg.observe(&c, j, -1.0);
        reg.observe(&c, j, f64::NAN);
        reg.observe(&c, j, f64::INFINITY);
        assert_eq!(reg.observations(), 0, "bad reports are dropped");
        assert_eq!(reg.model(), seed());
    }

    #[test]
    fn observe_returns_the_prior_prediction() {
        let mut reg = OnlineRegressor::new(
            &seed(),
            OnlineConfig {
                warmup: 0,
                ..Default::default()
            },
        );
        let (c, j) = counts_stream()[0];
        let before = reg.model().predict(&c, j);
        let reported = reg.observe(&c, j, 10.0 * before);
        assert_eq!(reported, before, "prequential: predicted before update");
        assert!(reg.model().predict(&c, j) > before, "model moved");
    }
}
