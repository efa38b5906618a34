//! Drifted prequential replay: static vs. online recalibration (PR 7).
//!
//! The §3.5 fit is a snapshot: `C_t` and `T_inst` are measured once, on one
//! machine, at one moment. The online regressor (`cote::OnlineRegressor`)
//! exists to absorb drift — a slower machine, a changed costing code path —
//! without a full refit. This module stages that scenario deterministically
//! so `cote calibrate --online` (and the CI `calib-smoke` job) can prove the
//! loop closes:
//!
//! 1. estimate per-query plan and join counts once with the calibrated
//!    [`Cote`];
//! 2. replay the workload for `rounds` rounds; at the midpoint the ground
//!    truth switches from the static model to a drifted one (all
//!    coefficients scaled by `tinst_scale`, each `C_t` additionally
//!    perturbed per method);
//! 3. score the frozen static model and the online regressor
//!    *prequentially* — each observation is predicted before it is learned
//!    from — and feed the online residuals to a [`ResidualTracker`] so the
//!    drift detector and error-bar gauges move exactly as they would in the
//!    service.
//!
//! The report separates pre- and post-onset MAPE. Post-onset the online
//! model must beat the static one (it adapts within a round or two); the
//! caller turns that inequality into an exit code.

use cote::{Cote, OnlineConfig, OnlineRegressor, TimeModel};
use cote_common::{Result, Xoshiro256pp};
use cote_obs::ResidualTracker;
use cote_optimizer::PerMethod;
use cote_workloads::Workload;

/// Shape of the injected drift.
#[derive(Debug, Clone)]
pub struct DriftSpec {
    /// Machine-speed factor applied to every coefficient at onset
    /// (`T_inst` scaling: 3.0 ≈ "moved to a machine 3× slower").
    pub tinst_scale: f64,
    /// Additional per-method `C_t` perturbation `[nljn, mgjn, hsjn]`
    /// applied on top of `tinst_scale` (costing-path drift).
    pub ct_perturb: [f64; 3],
    /// Relative measurement noise: observed = truth · (1 + noise·U(-1,1)).
    pub noise: f64,
    /// RNG seed for the noise stream (replays are deterministic).
    pub seed: u64,
    /// Rounds of the query stream; drift onset is at `rounds / 2`.
    pub rounds: usize,
}

impl Default for DriftSpec {
    fn default() -> Self {
        Self {
            tinst_scale: 3.0,
            ct_perturb: [1.25, 0.8, 1.1],
            noise: 0.05,
            seed: 7,
            rounds: 12,
        }
    }
}

impl DriftSpec {
    /// The ground-truth model after onset: `base` with every coefficient
    /// scaled by `tinst_scale` and each `C_t` perturbed per method.
    pub fn drifted_model(&self, base: &TimeModel) -> TimeModel {
        TimeModel {
            c_nljn: base.c_nljn * self.tinst_scale * self.ct_perturb[0],
            c_mgjn: base.c_mgjn * self.tinst_scale * self.ct_perturb[1],
            c_hsjn: base.c_hsjn * self.tinst_scale * self.ct_perturb[2],
            c_join: base.c_join * self.tinst_scale,
            intercept: base.intercept * self.tinst_scale,
        }
    }
}

/// MAPE of both models over one phase of the stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseAccuracy {
    /// Mean |relative error| of the frozen static model, percent.
    pub static_mape: f64,
    /// Mean |relative error| of the online model (prequential), percent.
    pub online_mape: f64,
    /// Observations scored in this phase.
    pub observations: usize,
}

/// Outcome of one drifted replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Accuracy before the drift onset.
    pub pre: PhaseAccuracy,
    /// Accuracy after the drift onset.
    pub post: PhaseAccuracy,
    /// Accuracy over the final round only — how far the online model has
    /// re-converged by the end of the replay.
    pub last_round: PhaseAccuracy,
    /// Drift-alarm onsets counted by the tracker.
    pub alarms: u64,
    /// Highest drift score seen during the replay.
    pub max_drift_score: f64,
    /// Drift score when the replay ended.
    pub final_drift_score: f64,
    /// Online model at the end of the replay.
    pub final_model: TimeModel,
}

impl ReplayReport {
    /// Did online recalibration beat the frozen fit after the onset?
    pub fn online_wins_post_drift(&self) -> bool {
        self.post.online_mape < self.post.static_mape
    }

    /// The greppable one-line verdict (`calib-smoke` asserts on it).
    pub fn summary_line(&self) -> String {
        format!(
            "post-drift MAPE: static {:.1}% online {:.1}%",
            self.post.static_mape, self.post.online_mape
        )
    }
}

struct PhaseTally {
    static_abs: f64,
    online_abs: f64,
    n: usize,
}

impl PhaseTally {
    fn new() -> Self {
        Self {
            static_abs: 0.0,
            online_abs: 0.0,
            n: 0,
        }
    }

    fn score(&mut self, static_pred: f64, online_pred: f64, truth: f64) {
        self.static_abs += ((static_pred - truth) / truth).abs();
        self.online_abs += ((online_pred - truth) / truth).abs();
        self.n += 1;
    }

    fn accuracy(&self) -> PhaseAccuracy {
        let n = self.n.max(1) as f64;
        PhaseAccuracy {
            static_mape: 100.0 * self.static_abs / n,
            online_mape: 100.0 * self.online_abs / n,
            observations: self.n,
        }
    }
}

/// Run the drifted replay. The caller owns `tracker` (and its registry) so
/// it can scrape the gauges afterwards and verify [`ResidualTracker::reset`]
/// zeroes them on shutdown.
pub fn replay_online_drift(
    w: &Workload,
    cote: &Cote,
    spec: &DriftSpec,
    tracker: &ResidualTracker,
) -> Result<ReplayReport> {
    let static_model = cote.model().clone();
    let drifted = spec.drifted_model(&static_model);
    let counts: Vec<(PerMethod, u64)> = w
        .queries
        .iter()
        .map(|q| {
            let e = cote.estimate(&w.catalog, q)?;
            Ok((e.counts, e.detail.totals.joins))
        })
        .collect::<Result<_>>()?;

    let mut regressor = OnlineRegressor::new(&static_model, OnlineConfig::default());
    let mut rng = Xoshiro256pp::new(spec.seed);
    let onset = spec.rounds.max(2) / 2;
    let (mut pre, mut post) = (PhaseTally::new(), PhaseTally::new());
    let mut last_round = PhaseTally::new();
    let mut max_score: f64 = 0.0;

    for round in 0..spec.rounds.max(2) {
        let truth_model = if round < onset {
            &static_model
        } else {
            &drifted
        };
        last_round = PhaseTally::new();
        for &(c, j) in &counts {
            let truth = truth_model.predict(&c, j);
            let observed = truth * (1.0 + spec.noise * rng.range_f64(-1.0, 1.0));
            if !(observed.is_finite() && observed > 0.0) {
                continue;
            }
            let static_pred = static_model.predict(&c, j);
            // Prequential: observe() returns the prediction the online
            // model made *before* folding this observation in.
            let online_pred = regressor.observe(&c, j, observed);
            tracker.observe(online_pred, observed);
            max_score = max_score.max(tracker.drift_score());
            let tally = if round < onset { &mut pre } else { &mut post };
            tally.score(static_pred, online_pred, truth);
            last_round.score(static_pred, online_pred, truth);
        }
    }

    Ok(ReplayReport {
        pre: pre.accuracy(),
        post: post.accuracy(),
        last_round: last_round.accuracy(),
        alarms: tracker.alarms(),
        max_drift_score: max_score,
        final_drift_score: tracker.drift_score(),
        final_model: regressor.model(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_obs::{Registry, ResidualConfig};
    use cote_optimizer::{Mode, OptimizerConfig};

    fn toy_cote() -> Cote {
        Cote::new(
            OptimizerConfig::high(Mode::Serial),
            TimeModel {
                c_nljn: 4e-7,
                c_mgjn: 2e-7,
                c_hsjn: 3e-7,
                c_join: 5e-7,
                intercept: 2e-4,
            },
        )
    }

    #[test]
    fn online_beats_static_after_the_onset() {
        let w = cote_workloads::by_name("star-s").unwrap();
        let cote = toy_cote();
        let registry = Registry::new();
        let tracker = ResidualTracker::new(&registry, "replay_test", ResidualConfig::default());
        let report = replay_online_drift(&w, &cote, &DriftSpec::default(), &tracker).unwrap();

        assert!(report.pre.observations > 0 && report.post.observations > 0);
        // Pre-onset both models track the truth to within the noise band.
        assert!(report.pre.static_mape < 10.0, "{:?}", report.pre);
        // Post-onset the frozen fit is off by roughly the T_inst scale
        // while the online model closes most of the gap.
        assert!(
            report.online_wins_post_drift(),
            "static {:.1}% vs online {:.1}%",
            report.post.static_mape,
            report.post.online_mape
        );
        assert!(report.post.static_mape > 50.0, "{:?}", report.post);
        assert!(report.alarms >= 1, "drift detector must trip");
        assert!(report.max_drift_score >= 1.0);
    }

    #[test]
    fn replay_is_deterministic() {
        let w = cote_workloads::by_name("real1-s").unwrap();
        let cote = toy_cote();
        let run = |prefix: &str| {
            let registry = Registry::new();
            let tracker = ResidualTracker::new(&registry, prefix, ResidualConfig::default());
            replay_online_drift(&w, &cote, &DriftSpec::default(), &tracker).unwrap()
        };
        let (a, b) = (run("replay_a"), run("replay_b"));
        assert_eq!(a.pre.static_mape, b.pre.static_mape);
        assert_eq!(a.post.online_mape, b.post.online_mape);
        assert_eq!(a.final_model, b.final_model);
    }

    #[test]
    fn drifted_model_scales_every_coefficient() {
        let base = TimeModel {
            c_nljn: 1.0,
            c_mgjn: 1.0,
            c_hsjn: 1.0,
            c_join: 1.0,
            intercept: 1.0,
        };
        let spec = DriftSpec {
            tinst_scale: 2.0,
            ct_perturb: [1.5, 0.5, 1.0],
            ..Default::default()
        };
        let d = spec.drifted_model(&base);
        assert_eq!(d.c_nljn, 3.0);
        assert_eq!(d.c_mgjn, 1.0);
        assert_eq!(d.c_hsjn, 2.0);
        assert_eq!(d.c_join, 2.0);
        assert_eq!(d.intercept, 2.0);
    }
}
