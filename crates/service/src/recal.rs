//! The service's online-recalibration loop.
//!
//! [`Recalibrator`] ties the pieces together on the serving path:
//!
//! * a [`cote::OnlineRegressor`] (RLS + EWMA forgetting, seeded from the
//!   static calibration) absorbing `(plan counts, joins, observed seconds)`
//!   completion reports,
//! * a [`cote_obs::ResidualTracker`] recording observed-vs-predicted
//!   residuals and raising the drift alarm,
//! * the error-bar policy: the advisor's budget-fit margin grows with the
//!   drift score ([`RecalConfig::margin_at`]), so a drifting model makes
//!   *cautious* admission decisions instead of confidently wrong ones.
//!
//! Prediction is prequential: each report is scored against the model as
//! it stood *before* absorbing that report, so the residual stream
//! measures real forecasting error, not in-sample fit.

use crate::config::RecalConfig;
use cote::{OnlineRegressor, TimeModel};
use cote_obs::{Counter, Gauge, Registry, ResidualTracker};
use cote_optimizer::PerMethod;
use std::sync::{Arc, Mutex};

/// Seconds-per-plan coefficients exported in picoseconds so integer gauges
/// keep ~6 significant digits of a typical ~1 µs/plan coefficient.
const PICOS: f64 = 1e12;

/// Online regressor + residual telemetry + error-bar policy.
pub struct Recalibrator {
    cfg: RecalConfig,
    static_model: TimeModel,
    regressor: Mutex<OnlineRegressor>,
    tracker: ResidualTracker,
    observations: Arc<Counter>,
    error_margin_milli: Arc<Gauge>,
    online_active: Arc<Gauge>,
    coeff_gauges: [Arc<Gauge>; 5],
}

impl Recalibrator {
    /// A recalibrator seeded with the static calibration, exporting
    /// `cote_service_*` instruments into `registry`.
    pub fn new(static_model: TimeModel, cfg: RecalConfig, registry: &Registry) -> Self {
        let tracker = ResidualTracker::new(registry, "cote_service", cfg.residual.clone());
        let observations = registry.counter_with_help(
            "cote_service_recal_observations_total",
            "Completed-optimization outcomes fed to the online regressor.",
        );
        let error_margin_milli = registry.gauge_with_help(
            "cote_service_advice_error_margin_milli",
            "Advisor budget-fit error margin, thousandths; widens with drift.",
        );
        let online_active = registry.gauge_with_help(
            "cote_service_online_model_active",
            "1 once the online model (not the static seed) prices advice.",
        );
        let coeff_gauges = [
            registry.gauge_with_help(
                "cote_service_online_c_nljn_picoseconds",
                "Online model: seconds per nested-loop join plan, in ps.",
            ),
            registry.gauge_with_help(
                "cote_service_online_c_mgjn_picoseconds",
                "Online model: seconds per merge join plan, in ps.",
            ),
            registry.gauge_with_help(
                "cote_service_online_c_hsjn_picoseconds",
                "Online model: seconds per hash join plan, in ps.",
            ),
            registry.gauge_with_help(
                "cote_service_online_intercept_picoseconds",
                "Online model: fixed per-statement overhead, in ps.",
            ),
            registry.gauge_with_help(
                "cote_service_online_c_join_picoseconds",
                "Online model: seconds per enumerated join orientation, in ps.",
            ),
        ];
        let recal = Self {
            regressor: Mutex::new(OnlineRegressor::new(&static_model, cfg.online.clone())),
            cfg,
            static_model,
            tracker,
            observations,
            error_margin_milli,
            online_active,
            coeff_gauges,
        };
        recal.publish(&recal.static_model, false);
        recal
    }

    fn publish(&self, model: &TimeModel, online: bool) {
        self.online_active.set(online as i64);
        self.coeff_gauges[0].set((model.c_nljn * PICOS) as i64);
        self.coeff_gauges[1].set((model.c_mgjn * PICOS) as i64);
        self.coeff_gauges[2].set((model.c_hsjn * PICOS) as i64);
        self.coeff_gauges[3].set((model.intercept * PICOS) as i64);
        self.coeff_gauges[4].set((model.c_join * PICOS) as i64);
        self.error_margin_milli
            .set((self.error_margin() * 1000.0) as i64);
    }

    /// Is the feedback loop on?
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The model the advisor should price with right now: the static
    /// calibration when disabled or still warming up, the live RLS fit
    /// otherwise.
    pub fn model(&self) -> TimeModel {
        if !self.cfg.enabled {
            return self.static_model.clone();
        }
        self.regressor.lock().unwrap().model()
    }

    /// The static calibration the loop was seeded with.
    pub fn static_model(&self) -> &TimeModel {
        &self.static_model
    }

    /// The advisor error margin right now: 0 when disabled, else
    /// `base + per_drift · drift_score`, clamped to the ceiling.
    pub fn error_margin(&self) -> f64 {
        if !self.cfg.enabled {
            return 0.0;
        }
        self.cfg.margin_at(self.tracker.drift_score())
    }

    /// Current drift score in units of the alarm threshold.
    pub fn drift_score(&self) -> f64 {
        self.tracker.drift_score()
    }

    /// Is the drift alarm raised?
    pub fn drift_active(&self) -> bool {
        self.tracker.drift_active()
    }

    /// Outcomes absorbed so far.
    pub fn observations(&self) -> u64 {
        self.observations.get()
    }

    /// Absorb one completed optimization: `counts` and `joins` estimated
    /// for the statement, `observed_seconds` its real compile self-time.
    /// Updates the regressor, the residual telemetry, and the published
    /// gauges.
    pub fn observe(&self, counts: &PerMethod, joins: u64, observed_seconds: f64) {
        if !self.cfg.enabled || !observed_seconds.is_finite() || observed_seconds <= 0.0 {
            return;
        }
        let (predicted, model, online) = {
            let mut reg = self.regressor.lock().unwrap();
            let predicted = reg.observe(counts, joins, observed_seconds);
            (predicted, reg.model(), !reg.warming_up())
        };
        self.tracker.observe(predicted, observed_seconds);
        self.observations.inc();
        self.publish(&model, online);
    }

    /// Clear detector state and zero the drift/margin gauges (counters and
    /// the learned model survive). Called on shutdown so a final scrape or
    /// dump never reports stale drift.
    pub fn reset_drift(&self) {
        self.tracker.reset();
        self.error_margin_milli
            .set((self.error_margin() * 1000.0) as i64);
    }

    /// One-line status for text reports.
    pub fn report_line(&self) -> String {
        let m = self.model();
        format!(
            "recal: {} obs, model {}, drift {:.2}{}, margin {:.0}%\n",
            self.observations(),
            if self.cfg.enabled && !self.regressor.lock().unwrap().warming_up() {
                "online"
            } else {
                "static"
            },
            self.drift_score(),
            if self.drift_active() { " (ALARM)" } else { "" },
            self.error_margin() * 100.0,
        ) + &format!(
            "       c_nljn {:.3e} c_mgjn {:.3e} c_hsjn {:.3e} c_join {:.3e} intercept {:.3e}\n",
            m.c_nljn, m.c_mgjn, m.c_hsjn, m.c_join, m.intercept
        )
    }
}

impl std::fmt::Debug for Recalibrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recalibrator")
            .field("enabled", &self.cfg.enabled)
            .field("observations", &self.observations.get())
            .field("drift_score", &self.drift_score())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TimeModel {
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            c_join: 2e-6,
            intercept: 0.0,
        }
    }

    /// Join orientations paired with [`counts`].
    const JOINS: u64 = 50;

    fn counts() -> PerMethod {
        PerMethod {
            nljn: 400,
            mgjn: 300,
            hsjn: 300,
        }
    }

    #[test]
    fn disabled_loop_is_inert() {
        let r = Registry::new();
        let cfg = RecalConfig {
            enabled: false,
            ..Default::default()
        };
        let recal = Recalibrator::new(model(), cfg, &r);
        for _ in 0..50 {
            recal.observe(&counts(), JOINS, 5.0);
        }
        assert_eq!(recal.observations(), 0);
        assert_eq!(recal.model(), model());
        assert_eq!(recal.error_margin(), 0.0);
    }

    #[test]
    fn healthy_traffic_keeps_the_base_margin() {
        let r = Registry::new();
        let recal = Recalibrator::new(model(), RecalConfig::default(), &r);
        let truth = model().predict(&counts(), JOINS);
        for _ in 0..50 {
            recal.observe(&counts(), JOINS, truth);
        }
        assert_eq!(recal.observations(), 50);
        assert!(!recal.drift_active());
        let base = RecalConfig::default().base_margin;
        assert!((recal.error_margin() - base).abs() < 0.05);
        assert_eq!(r.gauge("cote_service_online_model_active").get(), 1);
    }

    #[test]
    fn drift_widens_margins_then_adaptation_recovers() {
        let r = Registry::new();
        let recal = Recalibrator::new(model(), RecalConfig::default(), &r);
        let truth = model().predict(&counts(), JOINS);
        for _ in 0..20 {
            recal.observe(&counts(), JOINS, truth);
        }
        let healthy_margin = recal.error_margin();
        // Step change: the machine is suddenly 3x slower.
        for _ in 0..12 {
            recal.observe(&counts(), JOINS, 3.0 * truth);
        }
        assert!(recal.drift_active(), "score {}", recal.drift_score());
        assert!(
            recal.error_margin() > healthy_margin + 0.1,
            "{} vs {healthy_margin}",
            recal.error_margin()
        );
        assert!(r.gauge("cote_service_drift_active").get() == 1);
        // The regressor adapts to the new truth; residuals shrink; the
        // detector fades back; margins recover.
        for _ in 0..400 {
            recal.observe(&counts(), JOINS, 3.0 * truth);
        }
        assert!(!recal.drift_active(), "score {}", recal.drift_score());
        assert!(recal.error_margin() < healthy_margin + 0.05);
        // And the model now predicts the drifted truth, not the seed.
        let got = recal.model().predict(&counts(), JOINS);
        assert!(((got - 3.0 * truth) / (3.0 * truth)).abs() < 0.05, "{got}");
    }

    #[test]
    fn reset_drift_zeroes_the_gauges() {
        let r = Registry::new();
        let recal = Recalibrator::new(model(), RecalConfig::default(), &r);
        let truth = model().predict(&counts(), JOINS);
        for _ in 0..30 {
            recal.observe(&counts(), JOINS, 4.0 * truth);
        }
        assert!(recal.drift_score() > 0.0);
        recal.reset_drift();
        assert_eq!(r.gauge("cote_service_drift_score_milli").get(), 0);
        assert_eq!(r.gauge("cote_service_drift_active").get(), 0);
        let report = recal.report_line();
        assert!(report.contains("drift 0.00"), "{report}");
    }

    #[test]
    fn coefficient_gauges_track_the_model() {
        let r = Registry::new();
        let recal = Recalibrator::new(model(), RecalConfig::default(), &r);
        // Seeded gauges reflect the static model (1 µs = 1e6 ps).
        assert_eq!(
            r.gauge("cote_service_online_c_nljn_picoseconds").get(),
            1_000_000
        );
        assert_eq!(
            r.gauge("cote_service_online_c_join_picoseconds").get(),
            2_000_000
        );
        assert_eq!(r.gauge("cote_service_online_model_active").get(), 0);
        let truth = model().predict(&counts(), JOINS);
        for _ in 0..100 {
            recal.observe(&counts(), JOINS, 2.0 * truth);
        }
        let c = r.gauge("cote_service_online_c_nljn_picoseconds").get();
        assert!(c > 1_200_000, "adapted upward: {c}");
    }
}
