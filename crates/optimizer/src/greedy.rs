//! The polynomial "low"-level optimizer (paper §1.1): greedy join ordering.
//!
//! The meta-optimizer's low level and the §6.1 pilot pass both need a cheap,
//! always-fast plan. This is a classic minimum-cardinality greedy: keep a
//! forest of joined components, repeatedly merge the linked pair whose
//! result is smallest, costing each merge as a hash join.

use crate::cardinality::{CardinalityModel, FullCardinality};
use crate::config::OptimizerConfig;
use crate::context::OptContext;
use crate::cost::{hsjn_cost, table_scan, Cost, JoinCostInput, StreamStats};
use cote_catalog::Catalog;
use cote_common::{CoteError, InlineVec, Result, TableSet};
use cote_query::{Query, QueryBlock};
use std::time::{Duration, Instant};

/// Result of a greedy optimization.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Estimated execution cost of the greedy plan (the MOP's `E`).
    pub cost: f64,
    /// Join order chosen, as merged table sets in merge order.
    pub join_order: Vec<TableSet>,
    /// Compilation wall clock (polynomial — the "low level" is cheap).
    pub elapsed: Duration,
}

/// The greedy optimizer.
pub struct GreedyOptimizer {
    config: OptimizerConfig,
}

struct Component {
    set: TableSet,
    card: f64,
    cost: Cost,
    stats: StreamStats,
}

impl GreedyOptimizer {
    /// Create a greedy optimizer (the config supplies buffer sizes and the
    /// Cartesian policy; join-method knobs are ignored — greedy always
    /// hash-joins).
    pub fn new(config: OptimizerConfig) -> Self {
        Self { config }
    }

    /// Optimize a whole query (sums block costs).
    pub fn optimize_query(&self, catalog: &Catalog, query: &Query) -> Result<GreedyResult> {
        let started = Instant::now();
        let mut cost = 0.0;
        let mut join_order = Vec::new();
        for block in query.blocks() {
            let r = self.optimize_block(catalog, block)?;
            cost += r.cost;
            join_order.extend(r.join_order);
        }
        Ok(GreedyResult {
            cost,
            join_order,
            elapsed: started.elapsed(),
        })
    }

    /// Optimize one block greedily.
    pub fn optimize_block(&self, catalog: &Catalog, block: &QueryBlock) -> Result<GreedyResult> {
        let started = Instant::now();
        let ctx = OptContext::new(catalog, block, &self.config);
        let model = FullCardinality;

        let mut components: Vec<Component> = block
            .table_refs()
            .map(|t| {
                let table = ctx.catalog.table(block.table(t));
                let card = model.base(&ctx, t);
                let (scan, _) = table_scan(table);
                // Charge local-predicate evaluation as the DP generator does,
                // so the pilot-pass bound derived from this plan is sound.
                let filter_cpu =
                    block.local_preds_of(t).count() as f64 * table.row_count * crate::cost::CPU_CMP;
                let cost = scan.plus(&Cost {
                    io: 0.0,
                    cpu: filter_cpu,
                    comm: 0.0,
                });
                Component {
                    set: TableSet::singleton(t),
                    card,
                    cost,
                    stats: StreamStats::of(card, table.avg_row_bytes()),
                }
            })
            .collect();

        let mut join_order = Vec::new();
        while components.len() > 1 {
            // Find the linked pair with the smallest result cardinality;
            // fall back to the smallest Cartesian product if none linked.
            let mut best: Option<(usize, usize, f64, InlineVec<usize, 4>)> = None;
            for i in 0..components.len() {
                for j in i + 1..components.len() {
                    let preds = block.preds_between(components[i].set, components[j].set);
                    if preds.is_empty() && best.as_ref().is_some_and(|(_, _, _, p)| !p.is_empty()) {
                        continue; // prefer linked pairs over Cartesian ones
                    }
                    let card = model.join(&ctx, components[i].card, components[j].card, &preds);
                    let better = match &best {
                        None => true,
                        Some((_, _, c, p)) => {
                            (p.is_empty() && !preds.is_empty())
                                || (preds.is_empty() == p.is_empty() && card < *c)
                        }
                    };
                    if better {
                        best = Some((i, j, card, preds));
                    }
                }
            }
            let (i, j, card, preds) = best.ok_or_else(|| CoteError::NoPlanFound {
                reason: "greedy stuck".into(),
            })?;
            let (a, b) = (i.min(j), i.max(j));
            let right = components.swap_remove(b);
            let left = components.swap_remove(a);
            // Probe with the smaller side as build input (inner).
            let (outer, inner) = if left.card >= right.card {
                (&left, &right)
            } else {
                (&right, &left)
            };
            let hists = crate::plangen::join_histograms(&ctx, &preds, outer.set, inner.set);
            let row_bytes = outer.stats.row_bytes + inner.stats.row_bytes;
            let out_stats = StreamStats::of(card, row_bytes);
            let cost = hsjn_cost(&JoinCostInput {
                outer: outer.stats,
                inner: inner.stats,
                outer_cost: outer.cost,
                inner_cost: inner.cost,
                outer_hist: hists.0,
                inner_hist: hists.1,
                buffer_pages: self.config.buffer_pages,
                out_rows: card,
            });
            let set = left.set.union(right.set);
            join_order.push(set);
            components.push(Component {
                set,
                card,
                cost,
                stats: out_stats,
            });
        }

        let total = components[0].cost.total();
        Ok(GreedyResult {
            cost: total,
            join_order,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            b.add_table(TableDef::new(
                format!("t{i}"),
                1000.0 * (i as f64 + 1.0),
                vec![
                    ColumnDef::uniform("c0", 1000.0 * (i as f64 + 1.0), 200.0),
                    ColumnDef::uniform("c1", 1000.0 * (i as f64 + 1.0), 50.0),
                ],
            ));
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    #[test]
    fn greedy_joins_everything() {
        let cat = catalog(6);
        let mut b = QueryBlockBuilder::new();
        for i in 0..6 {
            b.add_table(TableId(i));
        }
        for i in 0..5 {
            b.join(col(i, 0), col(i + 1, 0));
        }
        let q = Query::new("g", b.build(&cat).unwrap());
        let g = GreedyOptimizer::new(OptimizerConfig::high(Mode::Serial));
        let r = g.optimize_query(&cat, &q).unwrap();
        assert!(r.cost > 0.0);
        assert_eq!(r.join_order.len(), 5, "n-1 merges");
        assert_eq!(
            r.join_order.last().unwrap().len(),
            6,
            "last merge covers all"
        );
    }

    #[test]
    fn greedy_handles_cartesian_products() {
        let cat = catalog(2);
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        b.add_table(TableId(1));
        let q = Query::new("x", b.build(&cat).unwrap());
        let g = GreedyOptimizer::new(OptimizerConfig::high(Mode::Serial));
        let r = g.optimize_query(&cat, &q).unwrap();
        assert_eq!(r.join_order.len(), 1);
    }

    #[test]
    fn greedy_is_fast_relative_to_exponential_spaces() {
        // Structural check only: 12 tables finish instantly.
        let cat = catalog(12);
        let mut b = QueryBlockBuilder::new();
        for i in 0..12 {
            b.add_table(TableId(i));
        }
        for i in 0..11 {
            b.join(col(i, 0), col(i + 1, 0));
        }
        let q = Query::new("wide", b.build(&cat).unwrap());
        let g = GreedyOptimizer::new(OptimizerConfig::high(Mode::Serial));
        let r = g.optimize_query(&cat, &q).unwrap();
        assert_eq!(r.join_order.len(), 11);
    }
}
