//! The §3.5 time model with a per-join term: `T = c_J·J + Σ_t C_t·P_t`.
//!
//! Coefficients are stored in seconds-per-plan (absorbing the
//! machine-dependent `T_inst`), one per join method, plus an intercept for
//! the per-query fixed work (parsing, access paths, finalization — the
//! "other" slice of Fig. 2). The paper reports the fitted DB2 ratios
//! `C_m : C_n : C_h` of 5:2:4 (serial) and 6:1:2 (parallel); ours are re-fit
//! per build, as §3.5 prescribes for "new releases of a database system".
//!
//! The paper's model is plans only. Ours adds `c_J` seconds per enumerated
//! join orientation `J`: the optimizer walks a join's input histograms once
//! per orientation and input-stats pair, not once per plan (`cost.rs`), so
//! the first plan of a join costs more than the rest. A plans-only model
//! (`c_join = 0`) predicts exactly what the paper's does.

use cote_optimizer::{JoinMethod, PerMethod};

/// Fitted compilation-time model.
///
/// ```
/// use cote::TimeModel;
/// use cote_optimizer::PerMethod;
/// let m = TimeModel { c_nljn: 2e-6, c_mgjn: 5e-6, c_hsjn: 4e-6, c_join: 1e-5, intercept: 0.0 };
/// let counts = PerMethod { nljn: 1000, mgjn: 400, hsjn: 500 };
/// assert!((m.predict_seconds(&counts) - 6e-3).abs() < 1e-9);
/// // 100 enumerated orientations add 1 ms of per-join work:
/// assert!((m.predict(&counts, 100) - 7e-3).abs() < 1e-9);
/// // The paper's §4 ratio notation, normalized to the smallest coefficient:
/// let (cm, cn, ch) = m.ratio_mnh();
/// assert!((cm - 2.5).abs() < 1e-9 && cn == 1.0 && (ch - 2.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeModel {
    /// Seconds per generated NLJN plan.
    pub c_nljn: f64,
    /// Seconds per generated MGJN plan.
    pub c_mgjn: f64,
    /// Seconds per generated HSJN plan.
    pub c_hsjn: f64,
    /// Seconds per enumerated join orientation (the per-join work).
    pub c_join: f64,
    /// Fixed seconds per query (non-join work).
    pub intercept: f64,
}

impl TimeModel {
    /// Model from raw coefficients `[nljn, mgjn, hsjn, intercept, join]`;
    /// a missing intercept or join coefficient is zero.
    pub fn from_coefficients(beta: &[f64]) -> Self {
        Self {
            c_nljn: beta[0],
            c_mgjn: beta[1],
            c_hsjn: beta[2],
            c_join: beta.get(4).copied().unwrap_or(0.0),
            intercept: beta.get(3).copied().unwrap_or(0.0),
        }
    }

    /// Coefficient for one method.
    pub fn coefficient(&self, m: JoinMethod) -> f64 {
        match m {
            JoinMethod::Nljn => self.c_nljn,
            JoinMethod::Mgjn => self.c_mgjn,
            JoinMethod::Hsjn => self.c_hsjn,
        }
    }

    /// Predicted compilation seconds for `counts` plans over `joins`
    /// enumerated orientations: `c_J·J + Σ C_t·P_t + intercept`.
    pub fn predict(&self, counts: &PerMethod, joins: u64) -> f64 {
        self.c_join * joins as f64 + self.predict_seconds(counts)
    }

    /// The plans-only part of [`predict`](Self::predict):
    /// `Σ C_t·P_t + intercept`, the paper's §3.5 model. Equal to `predict`
    /// when `c_join` is zero.
    pub fn predict_seconds(&self, counts: &PerMethod) -> f64 {
        self.c_nljn * counts.nljn as f64
            + self.c_mgjn * counts.mgjn as f64
            + self.c_hsjn * counts.hsjn as f64
            + self.intercept
    }

    /// The `C_m : C_n : C_h` ratio string the paper reports (§4),
    /// normalized so the smallest nonzero coefficient is 1.
    pub fn ratio_mnh(&self) -> (f64, f64, f64) {
        let base = [self.c_mgjn, self.c_nljn, self.c_hsjn]
            .into_iter()
            .filter(|&c| c > 0.0)
            .fold(f64::INFINITY, f64::min);
        if !base.is_finite() || base <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (self.c_mgjn / base, self.c_nljn / base, self.c_hsjn / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_is_linear() {
        let m = TimeModel {
            c_nljn: 2e-6,
            c_mgjn: 5e-6,
            c_hsjn: 4e-6,
            c_join: 0.0,
            intercept: 1e-3,
        };
        let counts = PerMethod {
            nljn: 1000,
            mgjn: 500,
            hsjn: 250,
        };
        let t = m.predict_seconds(&counts);
        assert!((t - (2e-3 + 2.5e-3 + 1e-3 + 1e-3)).abs() < 1e-12);
        assert_eq!(m.coefficient(JoinMethod::Mgjn), 5e-6);
        assert_eq!(m.predict(&counts, 0), t, "no join term without c_join");
        let with_joins = TimeModel { c_join: 1e-4, ..m };
        assert!((with_joins.predict(&counts, 20) - (t + 2e-3)).abs() < 1e-12);
        assert_eq!(with_joins.predict_seconds(&counts), t);
    }

    #[test]
    fn ratios_normalize_to_smallest() {
        // The paper's serial DB2 ratio C_m:C_n:C_h = 5:2:4.
        let m = TimeModel {
            c_nljn: 2e-6,
            c_mgjn: 5e-6,
            c_hsjn: 4e-6,
            c_join: 0.0,
            intercept: 0.0,
        };
        let (cm, cn, ch) = m.ratio_mnh();
        assert!((cm - 2.5).abs() < 1e-9);
        assert!((cn - 1.0).abs() < 1e-9);
        assert!((ch - 2.0).abs() < 1e-9);
        let zero = TimeModel {
            c_nljn: 0.0,
            c_mgjn: 0.0,
            c_hsjn: 0.0,
            c_join: 0.0,
            intercept: 0.0,
        };
        assert_eq!(zero.ratio_mnh(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn from_coefficients_handles_missing_intercept() {
        let m = TimeModel::from_coefficients(&[1.0, 2.0, 3.0]);
        assert_eq!((m.intercept, m.c_join), (0.0, 0.0));
        let m = TimeModel::from_coefficients(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((m.intercept, m.c_join), (4.0, 0.0));
        let m = TimeModel::from_coefficients(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((m.intercept, m.c_join), (4.0, 5.0));
    }
}
