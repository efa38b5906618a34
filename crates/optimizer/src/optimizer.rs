//! The optimizer facade: full dynamic-programming compilation of a query.

use crate::cardinality::FullCardinality;
use crate::config::OptimizerConfig;
use crate::context::OptContext;
use crate::cost::{group_cost, sort_cost, Cost};
use crate::enumerator::enumerate;
use crate::greedy::GreedyOptimizer;
use crate::instrument::{self, CompileStats};
use crate::memo::Memo;
use crate::par::enumerate_par;
use crate::plan::{PlanArena, PlanId, PlanKind, PlanProps};
use crate::plangen::{PlanList, RealPlanGen};
use crate::properties::order::Ordering;
use cote_catalog::Catalog;
use cote_common::Result;
use cote_obs::{phase, Span};
use cote_query::{Query, QueryBlock};
use std::time::Instant;

/// Result of optimizing one query block.
pub struct BlockResult {
    /// The plan arena (owns every node of `best`).
    pub arena: PlanArena,
    /// The chosen root plan (final operators applied).
    pub best: PlanId,
    /// Estimated execution cost of `best`.
    pub best_cost: f64,
    /// Compilation statistics for this block.
    pub stats: CompileStats,
    /// The filled MEMO (kept for inspection: memory estimation, Fig. 3
    /// walk-throughs).
    pub memo: Memo<PlanList>,
}

/// Result of optimizing a whole query (all blocks).
pub struct OptimizeResult {
    /// Per-block results, root block first.
    pub blocks: Vec<BlockResult>,
    /// Aggregated compilation statistics (the paper's per-query actuals).
    pub stats: CompileStats,
}

impl OptimizeResult {
    /// Estimated execution cost of the root block's best plan.
    pub fn best_cost(&self) -> f64 {
        self.blocks[0].best_cost
    }

    /// Rendered plan of the root block.
    pub fn explain(&self) -> String {
        self.blocks[0].arena.explain(self.blocks[0].best)
    }
}

/// The full (high-level) optimizer.
pub struct Optimizer {
    config: OptimizerConfig,
}

impl Optimizer {
    /// Create an optimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Compile a query: every block is optimized independently and the
    /// statistics summed (paper §3.3: block-at-a-time extension).
    pub fn optimize_query(&self, catalog: &Catalog, query: &Query) -> Result<OptimizeResult> {
        let mut blocks = Vec::new();
        let mut stats = CompileStats::default();
        for block in query.blocks() {
            let r = self.optimize_block(catalog, block)?;
            stats.add(&r.stats);
            blocks.push(r);
        }
        Ok(OptimizeResult { blocks, stats })
    }

    /// Compile one query block.
    pub fn optimize_block(&self, catalog: &Catalog, block: &QueryBlock) -> Result<BlockResult> {
        let m = self.config.join_methods;
        if block.n_tables() > 1 && !(m.nljn || m.mgjn || m.hsjn) {
            return Err(cote_common::CoteError::NoPlanFound {
                reason: "every join method is disabled".into(),
            });
        }
        // `elapsed` and the phase buckets feed the calibrated time model; the
        // root span only carries the block's counts into a trace.
        let wall = Instant::now();
        let mut root_span = Span::enter(phase::COMPILE);
        let ctx = OptContext::new(catalog, block, &self.config);

        // Pilot pass (§6.1): a quickly precomputed full plan bounds DP plan
        // costs. DB2's pilot plan is a crude first feasible plan; our greedy
        // is near-optimal, so a slack factor stands in for that crudeness —
        // without it the bound would prune far more than the paper's <10%.
        const PILOT_SLACK: f64 = 3.0;
        let pilot_bound = if self.config.pilot_pass {
            let greedy =
                GreedyOptimizer::new(self.config.clone()).optimize_block(catalog, block)?;
            Some(greedy.cost * PILOT_SLACK)
        } else {
            None
        };

        let mut gen = RealPlanGen::new(pilot_bound);
        let enum_clock = Instant::now();
        let outcome = if self.config.enum_threads > 1 {
            enumerate_par(&ctx, &FullCardinality, &mut gen, self.config.enum_threads)?
        } else {
            enumerate(&ctx, &FullCardinality, &mut gen)?
        };
        // Enumeration skeleton = the walk's wall time the plangen buckets
        // (nljn/mgjn/hsjn/saving/other) did not absorb. With worker threads
        // those buckets sum thread time, so the remainder saturates at zero.
        gen.stats.time.enumeration = enum_clock.elapsed().saturating_sub(gen.stats.time.total());

        // Finalization ("other"): apply GROUP BY / ORDER BY on the root.
        let fin_clock = Instant::now();
        let root_plans = outcome.memo.entry(outcome.root).payload.plans.clone();
        let (best, best_cost) = finalize_block(&ctx, &mut gen, &root_plans);
        gen.stats.time.other += fin_clock.elapsed();

        let mut stats = gen.stats;
        stats.pairs_enumerated = outcome.pairs;
        stats.joins_enumerated = outcome.joins;
        stats.memo_entries = outcome.memo.len() as u64;
        stats.plans_kept = outcome
            .memo
            .iter()
            .map(|(_, e)| e.payload.plans.len() as u64)
            .sum();
        stats.plan_nodes = gen.arena.len() as u64;
        stats.elapsed = wall.elapsed();
        root_span.record("plans_generated", stats.plans_generated.total());
        root_span.record("plans_kept", stats.plans_kept);
        root_span.record("memo_entries", stats.memo_entries);
        root_span.record("pairs", stats.pairs_enumerated);
        root_span.close();
        instrument::publish(&stats);

        Ok(BlockResult {
            arena: gen.arena,
            best,
            best_cost,
            stats,
            memo: outcome.memo,
        })
    }
}

/// Apply the block's final GROUP BY / ORDER BY operators on the root plan
/// list and return the chosen plan.
///
/// GROUP BY follows the paper's §3 shape: exactly **two** group plans are
/// generated per aggregation — a hash aggregate on the cheapest input and a
/// streaming aggregate on the cheapest suitably ordered input (sorting the
/// cheapest input if the order must be enforced).
fn finalize_block(
    ctx: &OptContext<'_>,
    gen: &mut RealPlanGen,
    root_plans: &[PlanId],
) -> (PlanId, f64) {
    let cheapest_of = |arena: &PlanArena, plans: &[PlanId]| -> PlanId {
        *plans
            .iter()
            .min_by(|&&a, &&b| arena.node(a).total.total_cmp(&arena.node(b).total))
            .expect("root entry always keeps a plan")
    };

    // Residual expensive predicates (Table 1): plans that deferred UDFs
    // evaluate them here, at the block root (the scan-or-root policy).
    let full_mask = ctx.block.expensive_bits_in(ctx.block.all_tables());
    let root_plans: Vec<PlanId> = if full_mask == 0 {
        root_plans.to_vec()
    } else {
        root_plans
            .iter()
            .map(|&p| {
                let n = gen.arena.node(p);
                let remaining = full_mask & !n.props.applied_expensive;
                if remaining == 0 {
                    return p;
                }
                let cpu: f64 = ctx
                    .block
                    .expensive_preds()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| remaining >> i & 1 == 1)
                    .map(|(_, pr)| pr.cpu_per_row)
                    .sum();
                let sel = ctx.block.expensive_selectivity(remaining);
                let cost = n.cost.plus(&Cost {
                    io: 0.0,
                    cpu: n.stats.rows * cpu,
                    comm: 0.0,
                });
                let stats = crate::cost::StreamStats::of(n.stats.rows * sel, n.stats.row_bytes);
                let props = PlanProps {
                    order: n.props.order.clone(),
                    partition: n.props.partition.clone(),
                    pipelinable: n.props.pipelinable,
                    applied_expensive: full_mask,
                    site: n.props.site,
                };
                gen.arena.add(
                    PlanKind::Filter {
                        input: p,
                        mask: remaining,
                    },
                    props,
                    cost,
                    stats,
                )
            })
            .collect()
    };
    // The result must arrive at the local engine: ship any plan still
    // executing at a remote source (Garlic's final SHIP).
    let root_plans: Vec<PlanId> = root_plans
        .iter()
        .map(|&p| {
            let n = gen.arena.node(p);
            if n.props.site == 0 {
                return p;
            }
            let from_source = n.props.site;
            let cost = n.cost.plus(&crate::cost::ship_cost(&n.stats));
            let stats = n.stats;
            let mut props = n.props.clone();
            props.site = 0;
            gen.arena.add(
                PlanKind::Ship {
                    input: p,
                    from_source,
                },
                props,
                cost,
                stats,
            )
        })
        .collect();
    let root_plans = &root_plans[..];
    let arena = &mut gen.arena;

    let mut candidates: Vec<PlanId>;
    if let Some(gb) = &ctx.targets.groupby {
        let cheapest = cheapest_of(arena, root_plans);
        // Hash aggregate on the cheapest input.
        let hash_plan = {
            let n = arena.node(cheapest);
            let c = n.cost.plus(&group_cost(&n.stats, false));
            let props = PlanProps {
                order: Ordering::dc(),
                partition: n.props.partition.clone(),
                pipelinable: false,
                applied_expensive: n.props.applied_expensive,
                site: n.props.site,
            };
            let stats = n.stats;
            gen.stats.group_plans += 1;
            arena.add(
                PlanKind::Group {
                    input: cheapest,
                    hash: true,
                },
                props,
                c,
                stats,
            )
        };
        // Streaming aggregate on a suitably ordered input.
        let stream_input = root_plans
            .iter()
            .copied()
            .filter(|&p| arena.node(p).props.order.satisfies(gb))
            .min_by(|&a, &b| arena.node(a).total.total_cmp(&arena.node(b).total))
            .unwrap_or_else(|| {
                // Enforce the grouping order on the cheapest input.
                let n = arena.node(cheapest);
                let c = n.cost.plus(&sort_cost(&n.stats, ctx.config.sort_pages));
                let props = PlanProps {
                    order: gb.clone(),
                    partition: n.props.partition.clone(),
                    pipelinable: false,
                    applied_expensive: n.props.applied_expensive,
                    site: n.props.site,
                };
                let stats = n.stats;
                gen.stats.sort_plans += 1;
                arena.add(PlanKind::Sort { input: cheapest }, props, c, stats)
            });
        let stream_plan = {
            let n = arena.node(stream_input);
            let c = n.cost.plus(&group_cost(&n.stats, true));
            let props = PlanProps {
                order: n.props.order.clone(),
                partition: n.props.partition.clone(),
                pipelinable: n.props.pipelinable,
                applied_expensive: n.props.applied_expensive,
                site: n.props.site,
            };
            let stats = n.stats;
            gen.stats.group_plans += 1;
            arena.add(
                PlanKind::Group {
                    input: stream_input,
                    hash: false,
                },
                props,
                c,
                stats,
            )
        };
        candidates = vec![hash_plan, stream_plan];
    } else {
        candidates = root_plans.to_vec();
    }

    // ORDER BY: wrap non-satisfying candidates in a final sort, then choose.
    if let Some(ob) = &ctx.targets.orderby {
        candidates = candidates
            .iter()
            .map(|&p| {
                if arena.node(p).props.order.satisfies(ob) {
                    p
                } else {
                    let n = arena.node(p);
                    let c = n.cost.plus(&sort_cost(&n.stats, ctx.config.sort_pages));
                    let props = PlanProps {
                        order: ob.clone(),
                        partition: n.props.partition.clone(),
                        pipelinable: false,
                        applied_expensive: n.props.applied_expensive,
                        site: n.props.site,
                    };
                    let stats = n.stats;
                    arena.add(PlanKind::Sort { input: p }, props, c, stats)
                }
            })
            .collect();
    }

    let best = cheapest_of(arena, &candidates);
    (best, arena.node(best).total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use cote_catalog::{ColumnDef, IndexDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            let t = b.add_table(TableDef::new(
                format!("t{i}"),
                2000.0,
                vec![
                    ColumnDef::uniform("c0", 2000.0, 400.0),
                    ColumnDef::uniform("c1", 2000.0, 50.0),
                ],
            ));
            b.add_index(IndexDef::new(t, vec![0]).clustered());
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    fn query(cat: &Catalog, n: usize, orderby: bool, groupby: bool) -> Query {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 0..n - 1 {
            b.join(col(i as u8, 0), col(i as u8 + 1, 0));
        }
        if orderby {
            b.order_by(vec![col(0, 1)]);
        }
        if groupby {
            b.group_by(vec![col(1, 1)]);
        }
        Query::new("q", b.build(cat).unwrap())
    }

    #[test]
    fn optimizes_a_chain_end_to_end() {
        let cat = catalog(4);
        let q = query(&cat, 4, true, true);
        let opt = Optimizer::new(OptimizerConfig::high(Mode::Serial));
        let r = opt.optimize_query(&cat, &q).unwrap();
        assert!(r.best_cost() > 0.0);
        assert!(r.stats.plans_generated.total() > 0);
        assert!(r.stats.plans_kept > 0);
        let plan = r.explain();
        assert!(
            plan.contains("Sort") || plan.contains("order"),
            "ORDER BY honoured:\n{plan}"
        );
        assert!(plan.contains("Group"), "GROUP BY applied:\n{plan}");
    }

    #[test]
    fn dp_finds_cost_no_worse_than_left_deep() {
        let cat = catalog(5);
        let q = query(&cat, 5, false, false);
        let bushy = Optimizer::new(OptimizerConfig::high(Mode::Serial))
            .optimize_query(&cat, &q)
            .unwrap();
        let left = Optimizer::new(OptimizerConfig::left_deep(Mode::Serial))
            .optimize_query(&cat, &q)
            .unwrap();
        assert!(
            bushy.best_cost() <= left.best_cost() * 1.0001,
            "bushy search space subsumes left-deep: {} vs {}",
            bushy.best_cost(),
            left.best_cost()
        );
        assert!(bushy.stats.joins_enumerated >= left.stats.joins_enumerated);
    }

    #[test]
    fn multi_block_queries_sum_statistics() {
        let cat = catalog(4);
        let mut inner = QueryBlockBuilder::new();
        inner.add_table(TableId(2));
        inner.add_table(TableId(3));
        inner.join(col(0, 0), col(1, 0));
        let inner = inner.build(&cat).unwrap();
        let mut outer = QueryBlockBuilder::new();
        outer.add_table(TableId(0));
        outer.add_table(TableId(1));
        outer.join(col(0, 0), col(1, 0));
        outer.child(inner);
        let q = Query::new("sub", outer.build(&cat).unwrap());

        let opt = Optimizer::new(OptimizerConfig::high(Mode::Serial));
        let r = opt.optimize_query(&cat, &q).unwrap();
        assert_eq!(r.blocks.len(), 2);
        assert_eq!(r.stats.pairs_enumerated, 2, "one join pair per block");
    }

    #[test]
    fn all_methods_disabled_is_an_error_not_a_panic() {
        let cat = catalog(2);
        let q = query(&cat, 2, false, false);
        let mut cfg = OptimizerConfig::high(Mode::Serial);
        cfg.join_methods = crate::config::JoinMethods {
            nljn: false,
            mgjn: false,
            hsjn: false,
        };
        let r = Optimizer::new(cfg.clone()).optimize_query(&cat, &q);
        assert!(matches!(r, Err(cote_common::CoteError::NoPlanFound { .. })));
        // Single-table blocks need no join method at all.
        let mut qb = QueryBlockBuilder::new();
        qb.add_table(TableId(0));
        let single = Query::new("one", qb.build(&cat).unwrap());
        assert!(Optimizer::new(cfg).optimize_query(&cat, &single).is_ok());
    }

    #[test]
    fn phase_times_account_for_elapsed() {
        let cat = catalog(5);
        let q = query(&cat, 5, true, false);
        let opt = Optimizer::new(OptimizerConfig::high(Mode::Serial));
        let r = opt.optimize_query(&cat, &q).unwrap();
        let t = &r.stats.time;
        let sum = t.total();
        assert!(
            sum <= r.stats.elapsed + std::time::Duration::from_millis(5),
            "buckets within elapsed"
        );
    }
}
