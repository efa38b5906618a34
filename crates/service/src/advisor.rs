//! The optimization-level advisor.
//!
//! The paper's §1 motivates COTE with exactly this loop: given per-level
//! compile-time estimates (one estimator pass, §6.2), pick the *highest*
//! optimization level whose estimated compilation time fits the requester's
//! budget; when even the lowest DP level busts the budget — or when the
//! meta-optimizer's `E < C` rule (Figure 1) says the greedy plan would
//! finish executing before DP compilation finished — fall back to the
//! polynomial greedy optimizer.

use crate::config::ServiceConfig;
use crate::request::QueryClass;
use cote::{Cote, EstimateOptions, MopChoice, TimeModel};
use cote_catalog::Catalog;
use cote_common::Result;
use cote_optimizer::{GreedyOptimizer, PerMethod};
use cote_query::Query;

/// What the advisor picked for one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum LevelChoice {
    /// Compile with full dynamic programming at this composite-inner limit.
    Dp {
        /// The advised level (composite-inner limit).
        composite_inner_limit: usize,
        /// Estimated compilation seconds at that level.
        est_compile_seconds: f64,
    },
    /// Use the polynomial greedy optimizer (level 0).
    Greedy {
        /// True when Figure 1's `E < C` rule forced the choice; false when
        /// no DP level fit the budget (or the service was degraded).
        by_mop: bool,
    },
}

impl LevelChoice {
    /// Short display label (`dp@4`, `greedy`, `greedy(mop)`).
    pub fn label(&self) -> String {
        match self {
            LevelChoice::Dp {
                composite_inner_limit,
                ..
            } => format!("dp@{composite_inner_limit}"),
            LevelChoice::Greedy { by_mop: true } => "greedy(mop)".into(),
            LevelChoice::Greedy { by_mop: false } => "greedy".into(),
        }
    }
}

/// The advisor's output — also the statement-cache value, so one estimator
/// pass serves every later structurally identical statement.
#[derive(Debug, Clone)]
pub struct Advice {
    /// The level decision.
    pub choice: LevelChoice,
    /// Per-level `(composite_inner_limit, estimated_seconds)` pairs from the
    /// single-pass multi-level estimator, highest level first. Empty in
    /// degraded mode.
    pub levels: Vec<(usize, f64)>,
    /// Estimated plan counts at the configured (highest) level — the
    /// model-free half of the estimate, kept so a completion hook can pair
    /// them with the observed compile time and feed the online regressor.
    /// Zero in degraded mode (no estimator ran).
    pub counts: PerMethod,
    /// Estimated join orientations at the configured level, the join column
    /// paired with `counts`. Zero in degraded mode.
    pub joins: u64,
    /// Error margin the budget fit used: a level fit only if
    /// `estimate · (1 + error_margin) ≤ budget`. Widens with drift.
    pub error_margin: f64,
    /// True when produced on the degraded (no-estimator) path.
    pub degraded: bool,
}

/// Budget-driven level selection around one [`Cote`].
pub struct LevelAdvisor {
    cote: Cote,
    greedy: GreedyOptimizer,
    budgets: [f64; 3],
    mop_seconds_per_cost_unit: Option<f64>,
}

impl LevelAdvisor {
    /// Build an advisor: `cote` must be calibrated for the *configured*
    /// (highest) level; `cfg.advisor_levels` lists the lower composite-inner
    /// limits it may fall back to.
    pub fn new(cote: Cote, cfg: &ServiceConfig) -> Self {
        let mut options = EstimateOptions {
            levels: cfg.advisor_levels.clone(),
            ..Default::default()
        };
        options.levels.sort_unstable();
        options.levels.dedup();
        let config = cote.config().clone();
        Self {
            cote: cote.with_options(options),
            greedy: GreedyOptimizer::new(config),
            budgets: [
                cfg.budget_interactive,
                cfg.budget_reporting,
                cfg.budget_batch,
            ],
            mop_seconds_per_cost_unit: cfg.mop_seconds_per_cost_unit,
        }
    }

    /// The compile-time budget for `class`.
    pub fn budget(&self, class: QueryClass) -> f64 {
        match class {
            QueryClass::Interactive => self.budgets[0],
            QueryClass::Reporting => self.budgets[1],
            QueryClass::Batch => self.budgets[2],
        }
    }

    /// The underlying estimator.
    pub fn cote(&self) -> &Cote {
        &self.cote
    }

    /// Degraded path: skip the estimator entirely, advise greedy. Costs one
    /// polynomial greedy enumeration (needed anyway to compile the plan).
    pub fn advise_degraded(&self) -> Advice {
        Advice {
            choice: LevelChoice::Greedy { by_mop: false },
            levels: Vec::new(),
            counts: PerMethod::default(),
            joins: 0,
            error_margin: 0.0,
            degraded: true,
        }
    }

    /// Full path: one multi-level estimator pass, budget fit, optional MOP
    /// check — priced with the advisor's own (static) model, no margin.
    pub fn advise(&self, catalog: &Catalog, query: &Query, class: QueryClass) -> Result<Advice> {
        self.advise_with(catalog, query, class, self.cote.model(), 0.0)
    }

    /// Like [`advise`](Self::advise), but pricing the (model-free) per-level
    /// plan and join counts with a caller-supplied `model` — typically the
    /// online-recalibrated one — and fitting levels into the budget with an
    /// `error_margin`: a level fits only if `estimate · (1 + margin) ≤
    /// budget`. A drifting model gets wide error bars, so admission
    /// decisions step down early instead of confidently overshooting.
    pub fn advise_with(
        &self,
        catalog: &Catalog,
        query: &Query,
        class: QueryClass,
        model: &TimeModel,
        error_margin: f64,
    ) -> Result<Advice> {
        let mut by_level = self.cote.estimate_level_counts(catalog, query)?;
        // Highest limit first for reporting; estimate_level_counts puts the
        // configured level first already, lower limits after.
        by_level.sort_by_key(|&(limit, ..)| std::cmp::Reverse(limit));
        let (counts, joins) = by_level
            .first()
            .map(|&(_, c, j)| (c, j))
            .unwrap_or_default();
        let levels: Vec<(usize, f64)> = by_level
            .into_iter()
            .map(|(limit, c, j)| (limit, model.predict(&c, j)))
            .collect();
        let budget = self.budget(class);
        let margin = error_margin.max(0.0);

        // Highest level that fits the budget, error bars included.
        let fitting = levels
            .iter()
            .copied()
            .filter(|&(_, secs)| secs * (1.0 + margin) <= budget)
            .max_by_key(|&(limit, _)| limit);

        let choice = match fitting {
            Some((composite_inner_limit, est_compile_seconds)) => {
                // Figure 1: if even the greedy plan's estimated *execution*
                // time undercuts the advised level's *compilation* time,
                // further optimization cannot pay off — keep greedy.
                if let Some(spcu) = self.mop_seconds_per_cost_unit {
                    let low = self.greedy.optimize_query(catalog, query)?;
                    let e_low_seconds = low.cost * spcu;
                    if matches!(
                        mop_rule(e_low_seconds, est_compile_seconds),
                        MopChoice::LowPlan
                    ) {
                        return Ok(Advice {
                            choice: LevelChoice::Greedy { by_mop: true },
                            levels,
                            counts,
                            joins,
                            error_margin: margin,
                            degraded: false,
                        });
                    }
                }
                LevelChoice::Dp {
                    composite_inner_limit,
                    est_compile_seconds,
                }
            }
            // Not even the cheapest DP level fits: degrade to greedy.
            None => LevelChoice::Greedy { by_mop: false },
        };
        Ok(Advice {
            choice,
            levels,
            counts,
            joins,
            error_margin: margin,
            degraded: false,
        })
    }
}

/// The MOP decision rule (Figure 1), shared with [`cote::MetaOptimizer`]:
/// keep the low plan iff its execution estimate undercuts the high level's
/// compilation estimate.
pub fn mop_rule(e_low_seconds: f64, c_high_seconds: f64) -> MopChoice {
    if e_low_seconds < c_high_seconds {
        MopChoice::LowPlan
    } else {
        MopChoice::HighPlan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote::TimeModel;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::{Mode, OptimizerConfig};
    use cote_query::QueryBlockBuilder;

    fn setup() -> (Catalog, Query) {
        let mut b = Catalog::builder();
        for i in 0..5 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                2000.0,
                vec![
                    ColumnDef::uniform("c0", 2000.0, 2000.0),
                    ColumnDef::uniform("c1", 2000.0, 20.0),
                ],
            ));
        }
        let cat = b.build().unwrap();
        let mut qb = QueryBlockBuilder::new();
        for i in 0..5 {
            qb.add_table(TableId(i));
        }
        for i in 0..4u8 {
            qb.join(ColRef::new(TableRef(i), 0), ColRef::new(TableRef(i + 1), 0));
        }
        let q = Query::new("adv", qb.build(&cat).unwrap());
        (cat, q)
    }

    fn unit_cote() -> Cote {
        // 1 µs per plan: a 5-table chain costs ~1ms at the top level.
        let model = TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            c_join: 0.0,
            intercept: 0.0,
        };
        Cote::new(OptimizerConfig::high(Mode::Serial), model)
    }

    fn cfg() -> ServiceConfig {
        ServiceConfig {
            advisor_levels: vec![1, 2],
            ..Default::default()
        }
    }

    #[test]
    fn generous_budget_picks_top_level() {
        let (cat, q) = setup();
        let advisor = LevelAdvisor::new(unit_cote(), &cfg());
        let a = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        match a.choice {
            LevelChoice::Dp {
                composite_inner_limit,
                est_compile_seconds,
            } => {
                assert_eq!(composite_inner_limit, 10, "full level fits 5s budget");
                assert!(est_compile_seconds <= advisor.budget(QueryClass::Batch));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(a.levels.len(), 3);
        assert!(a.levels[0].0 > a.levels[1].0 && a.levels[1].0 > a.levels[2].0);
        // Monotone: lower level never costs more.
        assert!(a.levels[2].1 <= a.levels[0].1);
    }

    #[test]
    fn tight_budget_steps_down_then_greedy() {
        let (cat, q) = setup();
        let mut c = cfg();
        // Budget between level-1 and full-level cost: advisor steps down.
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let full = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        let (top, mid, low) = (full.levels[0].1, full.levels[1].1, full.levels[2].1);
        assert!(low <= mid && mid <= top);

        c.budget_reporting = (low + mid) / 2.0; // only the lowest level fits
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let a = advisor.advise(&cat, &q, QueryClass::Reporting).unwrap();
        match a.choice {
            LevelChoice::Dp {
                composite_inner_limit,
                ..
            } => assert_eq!(composite_inner_limit, 1),
            other => panic!("{other:?}"),
        }

        c.budget_interactive = low / 1e6; // nothing fits
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let a = advisor.advise(&cat, &q, QueryClass::Interactive).unwrap();
        assert_eq!(a.choice, LevelChoice::Greedy { by_mop: false });
        assert_eq!(a.choice.label(), "greedy");
    }

    #[test]
    fn mop_rule_short_circuits_cheap_executions() {
        let (cat, q) = setup();
        let mut c = cfg();
        // Execution is essentially free: E < C for any C, keep greedy.
        c.mop_seconds_per_cost_unit = Some(1e-18);
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let a = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        assert_eq!(a.choice, LevelChoice::Greedy { by_mop: true });
        assert_eq!(a.choice.label(), "greedy(mop)");
        // Execution is enormous: E ≥ C, the DP advice stands.
        c.mop_seconds_per_cost_unit = Some(1e6);
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let a = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        assert!(matches!(a.choice, LevelChoice::Dp { .. }));
        assert_eq!(mop_rule(1.0, 2.0), MopChoice::LowPlan);
        assert_eq!(mop_rule(2.0, 1.0), MopChoice::HighPlan);
    }

    #[test]
    fn advice_carries_configured_level_counts() {
        let (cat, q) = setup();
        let advisor = LevelAdvisor::new(unit_cote(), &cfg());
        let a = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        // 1 µs/plan, zero intercept: top-level seconds == counts · 1e-6.
        assert!((a.counts.total() as f64 * 1e-6 - a.levels[0].1).abs() < 1e-12);
        assert!(a.counts.total() > 0);
        assert_eq!(a.error_margin, 0.0);
    }

    #[test]
    fn error_margin_steps_the_advice_down() {
        let (cat, q) = setup();
        let mut c = cfg();
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let full = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        let (top, mid) = (full.levels[0].1, full.levels[1].1);
        // Budget that fits the top level with 10% headroom, no more.
        c.budget_reporting = top * 1.1;
        let advisor = LevelAdvisor::new(unit_cote(), &c);
        let model = advisor.cote().model().clone();
        let a = advisor
            .advise_with(&cat, &q, QueryClass::Reporting, &model, 0.05)
            .unwrap();
        assert!(
            matches!(a.choice, LevelChoice::Dp { composite_inner_limit, .. } if composite_inner_limit == 10),
            "5% margin still fits: {:?}",
            a.choice
        );
        let a = advisor
            .advise_with(&cat, &q, QueryClass::Reporting, &model, 0.5)
            .unwrap();
        match a.choice {
            LevelChoice::Dp {
                composite_inner_limit,
                ..
            } => assert!(composite_inner_limit < 10, "wide bars step down"),
            LevelChoice::Greedy { .. } => {}
        }
        assert_eq!(a.error_margin, 0.5);
        let _ = mid;
    }

    #[test]
    fn advise_with_prices_under_the_supplied_model() {
        let (cat, q) = setup();
        let advisor = LevelAdvisor::new(unit_cote(), &cfg());
        let double = TimeModel {
            c_nljn: 2e-6,
            c_mgjn: 2e-6,
            c_hsjn: 2e-6,
            c_join: 0.0,
            intercept: 0.0,
        };
        let base = advisor.advise(&cat, &q, QueryClass::Batch).unwrap();
        let scaled = advisor
            .advise_with(&cat, &q, QueryClass::Batch, &double, 0.0)
            .unwrap();
        for (b, s) in base.levels.iter().zip(&scaled.levels) {
            assert_eq!(b.0, s.0);
            assert!((s.1 - 2.0 * b.1).abs() < 1e-12, "2x model, 2x estimate");
        }
        assert_eq!(base.counts, scaled.counts, "counts are model-free");
    }

    #[test]
    fn each_level_is_priced_with_its_own_join_count() {
        let (cat, q) = setup();
        let advisor = LevelAdvisor::new(unit_cote(), &cfg());
        let joins_only = TimeModel {
            c_nljn: 0.0,
            c_mgjn: 0.0,
            c_hsjn: 0.0,
            c_join: 1e-6,
            intercept: 0.0,
        };
        let a = advisor
            .advise_with(&cat, &q, QueryClass::Batch, &joins_only, 0.0)
            .unwrap();
        assert!(a.joins > 0);
        assert!((a.levels[0].1 - a.joins as f64 * 1e-6).abs() < 1e-15);
        // A lower limit admits fewer orientations, so it prices lower.
        for pair in a.levels.windows(2) {
            assert!(pair[1].1 < pair[0].1, "{:?}", a.levels);
        }
    }

    #[test]
    fn degraded_path_is_estimator_free() {
        let advisor = LevelAdvisor::new(unit_cote(), &cfg());
        let a = advisor.advise_degraded();
        assert!(a.degraded);
        assert!(a.levels.is_empty());
        assert_eq!(a.choice, LevelChoice::Greedy { by_mop: false });
    }
}
