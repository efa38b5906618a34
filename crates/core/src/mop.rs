//! The meta-optimizer (MOP) of Figure 1.
//!
//! Compile at the low level, estimate the best plan's execution time `E`;
//! ask COTE for the high level's compilation time `C`; if `E < C`, further
//! optimization cannot pay off before the query would already have finished
//! — keep the low plan. Otherwise recompile at the high level.

use crate::cote::Cote;
use cote_catalog::Catalog;
use cote_common::Result;
use cote_optimizer::{GreedyOptimizer, OptimizeResult, Optimizer, OptimizerConfig};
use cote_query::Query;

/// Which plan the MOP chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MopChoice {
    /// The low-level (greedy) plan was kept: `E < C`.
    LowPlan,
    /// The query was recompiled at the high level.
    HighPlan,
}

/// Outcome of one MOP decision.
pub struct MopOutcome {
    /// The decision taken.
    pub choice: MopChoice,
    /// Estimated execution seconds of the low-level plan (`E`).
    pub e_low_seconds: f64,
    /// Estimated high-level compilation seconds (`C`).
    pub c_high_seconds: f64,
    /// The high-level result when recompilation happened.
    pub high_result: Option<OptimizeResult>,
    /// Total compilation seconds actually spent by the MOP itself
    /// (low-level compile + estimation + optional high-level compile).
    pub compile_seconds_spent: f64,
}

/// The meta-optimizer.
pub struct MetaOptimizer {
    low: GreedyOptimizer,
    high: Optimizer,
    cote: Cote,
    /// Seconds of execution per abstract cost unit (converts the cost
    /// model's output into the time domain `E` lives in).
    pub seconds_per_cost_unit: f64,
}

impl MetaOptimizer {
    /// Build a MOP: greedy low level, `high_config` high level, COTE with a
    /// calibrated model for the high level.
    pub fn new(high_config: OptimizerConfig, cote: Cote, seconds_per_cost_unit: f64) -> Self {
        Self {
            low: GreedyOptimizer::new(high_config.clone()),
            high: Optimizer::new(high_config),
            cote,
            seconds_per_cost_unit,
        }
    }

    /// Run the Figure 1 control loop for one query.
    pub fn choose(&self, catalog: &Catalog, query: &Query) -> Result<MopOutcome> {
        // Low-level compile: cheap, always done.
        let low = self.low.optimize_query(catalog, query)?;
        let e_low_seconds = low.cost * self.seconds_per_cost_unit;

        // COTE: high-level compile-time estimate.
        let est = self.cote.estimate(catalog, query)?;
        let c_high_seconds = est.seconds;
        let mut spent = low.elapsed.as_secs_f64() + est.detail.elapsed.as_secs_f64();

        if e_low_seconds < c_high_seconds {
            // The query finishes before high-level optimization would.
            return Ok(MopOutcome {
                choice: MopChoice::LowPlan,
                e_low_seconds,
                c_high_seconds,
                high_result: None,
                compile_seconds_spent: spent,
            });
        }
        let high = self.high.optimize_query(catalog, query)?;
        spent += high.stats.elapsed.as_secs_f64();
        Ok(MopOutcome {
            choice: MopChoice::HighPlan,
            e_low_seconds,
            c_high_seconds,
            high_result: Some(high),
            compile_seconds_spent: spent,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time_model::TimeModel;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::Mode;
    use cote_query::QueryBlockBuilder;

    fn setup() -> (Catalog, Query) {
        let mut b = Catalog::builder();
        for i in 0..4 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                5000.0,
                vec![
                    ColumnDef::uniform("c0", 5000.0, 500.0),
                    ColumnDef::uniform("c1", 5000.0, 50.0),
                ],
            ));
        }
        let cat = b.build().unwrap();
        let mut qb = QueryBlockBuilder::new();
        for i in 0..4 {
            qb.add_table(TableId(i));
        }
        for i in 0..3u8 {
            qb.join(ColRef::new(TableRef(i), 0), ColRef::new(TableRef(i + 1), 0));
        }
        let block = qb.build(&cat).unwrap();
        (cat, Query::new("mop", block))
    }

    fn model() -> TimeModel {
        // Deliberately large coefficients so C is big: 1ms per plan.
        TimeModel {
            c_nljn: 1e-3,
            c_mgjn: 1e-3,
            c_hsjn: 1e-3,
            c_join: 0.0,
            intercept: 0.0,
        }
    }

    #[test]
    fn selective_query_keeps_low_plan() {
        let (cat, q) = setup();
        let cfg = OptimizerConfig::high(Mode::Serial);
        // Tiny seconds-per-cost-unit: execution looks instant, so E < C.
        let mop = MetaOptimizer::new(cfg.clone(), Cote::new(cfg, model()), 1e-12);
        let out = mop.choose(&cat, &q).unwrap();
        assert_eq!(out.choice, MopChoice::LowPlan);
        assert!(out.high_result.is_none());
        assert!(out.e_low_seconds < out.c_high_seconds);
    }

    #[test]
    fn expensive_query_reoptimizes() {
        let (cat, q) = setup();
        let cfg = OptimizerConfig::high(Mode::Serial);
        // Huge seconds-per-cost-unit: execution dominates, E ≥ C.
        let mop = MetaOptimizer::new(cfg.clone(), Cote::new(cfg, model()), 1e3);
        let out = mop.choose(&cat, &q).unwrap();
        assert_eq!(out.choice, MopChoice::HighPlan);
        let high = out.high_result.expect("recompiled");
        assert!(high.best_cost() > 0.0);
        assert!(out.compile_seconds_spent > 0.0);
    }
}
