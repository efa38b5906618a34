//! Optimizer memory-consumption estimation (paper §6.2).
//!
//! "Assuming that each plan takes roughly the same amount of space, the
//! total amount of memory needed in a MEMO structure can be estimated by
//! summing the length of the interesting property lists of all MEMO entries
//! and multiplying that by the space required per plan. Note that this is a
//! lower bound" — useful to refuse an optimization level that would not fit
//! in memory before starting it.

use crate::estimator::BlockEstimate;
use cote_optimizer::CompileStats;

/// Assumed bytes per kept plan (the paper: "typically in the order of
/// hundreds of bytes").
pub const PLAN_BYTES: u64 = 256;

/// Bytes per stored interesting property value (the paper: "typically 4
/// bytes").
pub const PROPERTY_BYTES: u64 = 4;

/// A MEMO memory estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Estimated plans the MEMO will retain (property values + one DC plan
    /// per entry).
    pub estimated_plans: u64,
    /// Estimated MEMO bytes (lower bound).
    pub estimated_bytes: u64,
    /// Bytes the estimator itself needed for its property lists.
    pub estimator_bytes: u64,
}

/// Estimate MEMO memory from a plan estimate.
pub fn estimate_memory(est: &BlockEstimate) -> MemoryEstimate {
    let estimated_plans = est.property_values + est.memo_entries;
    MemoryEstimate {
        estimated_plans,
        estimated_bytes: estimated_plans * PLAN_BYTES,
        estimator_bytes: est.property_values * PROPERTY_BYTES,
    }
}

/// Actual MEMO bytes, from compilation statistics (kept plans × plan size).
pub fn actual_memory_bytes(stats: &CompileStats) -> u64 {
    stats.plans_kept * PLAN_BYTES
}

/// Measured plan-arena bytes: every node the optimizer stored (kept plans,
/// plans kept for a while and then evicted, the wrappers under either) at
/// the node's in-memory size — the number [`estimate_memory`] is a lower
/// bound of. Heap spill of long order/partition values is not included.
pub fn arena_bytes(stats: &CompileStats) -> u64 {
    stats.plan_nodes * std::mem::size_of::<cote_optimizer::plan::PlanNode>() as u64
}

/// §6.2's gating decision: pick the highest optimization level (largest
/// composite-inner limit among `limits`) whose estimated MEMO memory fits
/// `budget_bytes` — "if it is already larger than the currently available
/// memory, there is no point in starting optimization at that level".
///
/// Returns `None` when even the most restricted level exceeds the budget.
pub fn highest_level_within_budget(
    catalog: &cote_catalog::Catalog,
    query: &cote_query::Query,
    base_config: &cote_optimizer::OptimizerConfig,
    limits: &[usize],
    budget_bytes: u64,
) -> cote_common::Result<Option<usize>> {
    let opts = crate::options::EstimateOptions::default();
    let mut best: Option<usize> = None;
    for &limit in limits {
        let config = base_config.clone().with_composite_inner_limit(limit);
        let mut bytes = 0u64;
        for block in query.blocks() {
            let est = crate::estimator::estimate_block(catalog, block, &config, &opts)?;
            bytes += estimate_memory(&est).estimated_bytes;
        }
        if bytes <= budget_bytes && best.is_none_or(|b| limit > b) {
            best = Some(limit);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::estimate_block;
    use crate::options::EstimateOptions;
    use cote_catalog::{Catalog, ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::{Mode, Optimizer, OptimizerConfig};
    use cote_query::QueryBlockBuilder;

    fn fixture() -> (Catalog, cote_query::QueryBlock) {
        let mut b = Catalog::builder();
        for i in 0..5 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                2000.0,
                vec![
                    ColumnDef::uniform("c0", 2000.0, 200.0),
                    ColumnDef::uniform("c1", 2000.0, 40.0),
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
        qb.order_by(vec![ColRef::new(TableRef(0), 1)]);
        let block = qb.build(&cat).unwrap();
        (cat, block)
    }

    #[test]
    fn estimate_is_proportional_to_property_values() {
        let (cat, block) = fixture();
        let cfg = OptimizerConfig::high(Mode::Serial);
        let est = estimate_block(&cat, &block, &cfg, &EstimateOptions::default()).unwrap();
        let mem = estimate_memory(&est);
        assert_eq!(mem.estimated_plans, est.property_values + est.memo_entries);
        assert_eq!(mem.estimated_bytes, mem.estimated_plans * PLAN_BYTES);
        assert!(
            mem.estimator_bytes < mem.estimated_bytes / 10,
            "property lists are far smaller than plans"
        );
    }

    #[test]
    fn budget_gates_optimization_levels() {
        let (cat, block) = fixture();
        let q = cote_query::Query::new("gate", block);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let limits = [1usize, 2, 10];
        // A generous budget admits the bushiest level.
        let high = highest_level_within_budget(&cat, &q, &cfg, &limits, u64::MAX).unwrap();
        assert_eq!(high, Some(10));
        // An exactly-sufficient budget still admits it…
        let need_full = {
            let c = cfg.clone().with_composite_inner_limit(10);
            let est = estimate_block(&cat, &q.root, &c, &EstimateOptions::default()).unwrap();
            estimate_memory(&est).estimated_bytes
        };
        assert_eq!(
            highest_level_within_budget(&cat, &q, &cfg, &limits, need_full).unwrap(),
            Some(10)
        );
        // …and an impossible budget refuses every level. (Composite-inner
        // limits share the MEMO entry set on connected graphs, so their
        // memory needs coincide; the gate's fallback bites between
        // qualitatively different levels — e.g. DP vs a MEMO-less greedy.)
        assert_eq!(
            highest_level_within_budget(&cat, &q, &cfg, &limits, 0).unwrap(),
            None
        );
    }

    #[test]
    fn estimate_tracks_actual_memo_size() {
        let (cat, block) = fixture();
        let cfg = OptimizerConfig::high(Mode::Serial);
        let est = estimate_block(&cat, &block, &cfg, &EstimateOptions::default()).unwrap();
        let mem = estimate_memory(&est);
        let real = Optimizer::new(cfg).optimize_block(&cat, &block).unwrap();
        let actual = actual_memory_bytes(&real.stats);
        // §6.2 calls the estimate a lower bound of what the optimizer needs;
        // with plan sharing the kept-plan count can dip slightly below it,
        // so assert same order of magnitude and no gross overshoot.
        let ratio = mem.estimated_bytes as f64 / actual as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "ratio {ratio}: est {} act {actual}",
            mem.estimated_bytes
        );
    }
}
