//! Mid-query reoptimization support (paper §1.1).
//!
//! "A COTE is useful in evaluating the need for mid-query reoptimization, in
//! which an optimizer tries to generate a new plan in the middle of
//! execution if a significant cardinality discrepancy is discovered. Since
//! reoptimization itself takes time, the decision on whether to reoptimize
//! or not is better made by comparing the execution cost of the remaining
//! work with the estimated time to recompile."

use crate::cote::Cote;
use cote_catalog::Catalog;
use cote_common::Result;
use cote_query::Query;

/// A running query's observed state at a potential reoptimization point.
#[derive(Debug, Clone, Copy)]
pub struct ExecutionCheckpoint {
    /// Optimizer-estimated cost units of the *remaining* work under the
    /// current plan.
    pub remaining_cost_units: f64,
    /// Observed-over-estimated cardinality ratio at the checkpoint (1.0 = on
    /// target; 10.0 = ten times more rows than planned for).
    pub cardinality_discrepancy: f64,
    /// Seconds of execution per cost unit on this system.
    pub seconds_per_cost_unit: f64,
}

impl ExecutionCheckpoint {
    /// Projected seconds to finish under the current plan: the remaining
    /// cost, inflated by the observed discrepancy (more rows ⇒
    /// proportionally more remaining work).
    pub fn projected_remaining_seconds(&self) -> f64 {
        self.remaining_cost_units
            * self.cardinality_discrepancy.max(0.0)
            * self.seconds_per_cost_unit
    }
}

/// The verdict on a checkpoint.
#[derive(Debug, Clone)]
pub struct ReoptDecision {
    /// Reoptimize now?
    pub reoptimize: bool,
    /// Projected seconds to finish under the current plan.
    pub remaining_seconds: f64,
    /// COTE's estimate of the recompilation seconds.
    pub recompile_seconds: f64,
    /// The margin applied (recompilation must be at most
    /// `remaining / margin` to pay off).
    pub margin: f64,
}

/// Decide whether to reoptimize, per the paper's comparison: recompile only
/// when the estimated recompilation time is small against the projected
/// remaining execution (by `margin`, since a recompile only *maybe* finds a
/// better plan).
pub fn should_reoptimize(
    cote: &Cote,
    catalog: &Catalog,
    query: &Query,
    checkpoint: &ExecutionCheckpoint,
    margin: f64,
) -> Result<ReoptDecision> {
    let recompile_seconds = cote.estimate(catalog, query)?.seconds;
    let remaining_seconds = checkpoint.projected_remaining_seconds();
    let margin = margin.max(1.0);
    Ok(ReoptDecision {
        reoptimize: recompile_seconds * margin < remaining_seconds,
        remaining_seconds,
        recompile_seconds,
        margin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time_model::TimeModel;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::{Mode, OptimizerConfig};
    use cote_query::QueryBlockBuilder;

    fn fixture() -> (Catalog, Query, Cote) {
        let mut b = Catalog::builder();
        for i in 0..3 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                10_000.0,
                vec![ColumnDef::uniform("c0", 10_000.0, 1_000.0)],
            ));
        }
        let cat = b.build().unwrap();
        let mut qb = QueryBlockBuilder::new();
        for i in 0..3 {
            qb.add_table(TableId(i));
        }
        qb.join(ColRef::new(TableRef(0), 0), ColRef::new(TableRef(1), 0));
        qb.join(ColRef::new(TableRef(1), 0), ColRef::new(TableRef(2), 0));
        let q = Query::new("running", qb.build(&cat).unwrap());
        let model = TimeModel {
            c_nljn: 1e-4,
            c_mgjn: 1e-4,
            c_hsjn: 1e-4,
            c_join: 0.0,
            intercept: 0.0,
        };
        let cote = Cote::new(OptimizerConfig::high(Mode::Serial), model);
        (cat, q, cote)
    }

    #[test]
    fn small_remaining_work_keeps_the_plan() {
        let (cat, q, cote) = fixture();
        let cp = ExecutionCheckpoint {
            remaining_cost_units: 1.0,
            cardinality_discrepancy: 1.0,
            seconds_per_cost_unit: 1e-6,
        };
        let d = should_reoptimize(&cote, &cat, &q, &cp, 2.0).unwrap();
        assert!(!d.reoptimize, "finishing is faster than recompiling");
        assert!(d.recompile_seconds > 0.0);
    }

    #[test]
    fn large_discrepancy_triggers_reoptimization() {
        let (cat, q, cote) = fixture();
        let base = ExecutionCheckpoint {
            remaining_cost_units: 1_000.0,
            cardinality_discrepancy: 1.0,
            seconds_per_cost_unit: 1e-4,
        };
        let calm = should_reoptimize(&cote, &cat, &q, &base, 2.0).unwrap();
        let blown = should_reoptimize(
            &cote,
            &cat,
            &q,
            &ExecutionCheckpoint {
                cardinality_discrepancy: 1_000.0,
                ..base
            },
            2.0,
        )
        .unwrap();
        assert!(blown.remaining_seconds > calm.remaining_seconds);
        assert!(blown.reoptimize, "a 1000× blow-up justifies recompiling");
    }

    #[test]
    fn margin_raises_the_bar() {
        let (cat, q, cote) = fixture();
        let cp = ExecutionCheckpoint {
            remaining_cost_units: 100.0,
            cardinality_discrepancy: 2.0,
            seconds_per_cost_unit: 1e-4,
        };
        // Find the decision flip as margin grows.
        let loose = should_reoptimize(&cote, &cat, &q, &cp, 1.0).unwrap();
        let strict = should_reoptimize(&cote, &cat, &q, &cp, 1e9).unwrap();
        assert!(!strict.reoptimize, "an absurd margin never reoptimizes");
        assert!(loose.margin >= 1.0);
        // Sub-1 margins clamp to 1.
        let clamped = should_reoptimize(&cote, &cat, &q, &cp, 0.1).unwrap();
        assert_eq!(clamped.margin, 1.0);
    }
}
