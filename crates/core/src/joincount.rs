//! The join-count baseline estimator (Ono & Lohman, VLDB'90) — the prior
//! work the paper improves on (§2.2, §5.3).
//!
//! It models compilation time as proportional to the number of *joins*
//! enumerated, assuming "the cost of optimizing each join is approximately
//! the same" — the assumption Fig. 5/6 demolish: queries in the same star
//! batch share a join count yet differ widely in generated plans. The
//! closed formulas below exist only for special shapes; for general graphs
//! the baseline, too, must count by enumerating (counting joins on cyclic
//! graphs is #P-complete, §2.2).

use crate::regression::least_squares;
use cote_catalog::Catalog;
use cote_common::{Result, TableRef};
use cote_optimizer::cardinality::SimpleCardinality;
use cote_optimizer::context::OptContext;
use cote_optimizer::enumerator::{enumerate, JoinSite, JoinVisitor};
use cote_optimizer::memo::{EntryId, MemoEntry, MemoStore};
use cote_optimizer::OptimizerConfig;
use cote_query::Query;

/// Closed formula: unordered joins of a linear (chain) query of `n` tables
/// under full bushy DP without Cartesian products: `(n³ − n) / 6`.
///
/// ```
/// // Figure 3's query: 3 tables in a chain ⇒ 4 joins.
/// assert_eq!(cote::linear_join_count(3), 4);
/// assert_eq!(cote::star_join_count(5), 32);
/// ```
pub fn linear_join_count(n: usize) -> u64 {
    let n = n as u64;
    (n * n * n - n) / 6
}

/// Closed formula: unordered joins of a star query of `n` tables (one
/// center): `(n − 1) · 2^(n−2)`.
pub fn star_join_count(n: usize) -> u64 {
    assert!(n >= 2);
    ((n - 1) as u64) * (1u64 << (n - 2))
}

/// No-op visitor: enumerate joins, generate nothing.
#[derive(Default)]
struct CountOnly;

impl JoinVisitor for CountOnly {
    type Payload = ();
    fn base_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>, _: TableRef) {}
    fn join_payload(&mut self, _: &OptContext<'_>, _: &MemoEntry<()>) {}
    fn on_join<M: MemoStore<()>>(&mut self, _: &OptContext<'_>, _: &mut M, _: &JoinSite) {}
    fn finish_entry<M: MemoStore<()>>(&mut self, _: &OptContext<'_>, _: &mut M, _: EntryId) {}
}

/// Count joins for a query by enumerating (works on any graph shape,
/// honouring every knob — the paper's argument for enumerator reuse).
pub fn count_joins(catalog: &Catalog, query: &Query, config: &OptimizerConfig) -> Result<u64> {
    let mut pairs = 0;
    for block in query.blocks() {
        let ctx = OptContext::new(catalog, block, config);
        pairs += enumerate(&ctx, &SimpleCardinality, &mut CountOnly)?.pairs;
    }
    Ok(pairs)
}

/// The baseline time model: seconds = `c_join · joins + c0`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCountModel {
    /// Seconds per enumerated join.
    pub c_join: f64,
    /// Fixed seconds per query.
    pub intercept: f64,
}

impl JoinCountModel {
    /// Predict compilation seconds from a join count.
    pub fn predict_seconds(&self, joins: u64) -> f64 {
        self.c_join * joins as f64 + self.intercept
    }

    /// Fit from `(joins, seconds)` training pairs by least squares.
    pub fn fit(points: &[(u64, f64)]) -> Result<Self> {
        let xs: Vec<Vec<f64>> = points.iter().map(|&(j, _)| vec![j as f64, 1.0]).collect();
        let ys: Vec<f64> = points.iter().map(|&(_, s)| s).collect();
        let beta = least_squares(&xs, &ys)?;
        Ok(Self {
            c_join: beta[0].max(0.0),
            intercept: beta[1].max(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId};
    use cote_optimizer::Mode;
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            b.add_table(TableDef::new(
                format!("t{i}"),
                1000.0,
                vec![ColumnDef::uniform("c0", 1000.0, 100.0)],
            ));
        }
        b.build().unwrap()
    }

    fn no_cartesian_unbounded() -> OptimizerConfig {
        let mut c = OptimizerConfig::high(Mode::Serial).with_composite_inner_limit(usize::MAX);
        c.cartesian_card_one = false;
        c
    }

    #[test]
    fn closed_formulas_match_enumeration() {
        for n in 2..=9usize {
            let cat = catalog(n);
            // Chain.
            let mut b = QueryBlockBuilder::new();
            for i in 0..n {
                b.add_table(TableId(i as u32));
            }
            for i in 0..n - 1 {
                b.join(
                    ColRef::new(TableRef(i as u8), 0),
                    ColRef::new(TableRef(i as u8 + 1), 0),
                );
            }
            let q = Query::new("chain", b.build(&cat).unwrap());
            let cfg = no_cartesian_unbounded();
            assert_eq!(count_joins(&cat, &q, &cfg).unwrap(), linear_join_count(n));
            // Star.
            if n >= 3 {
                let mut b = QueryBlockBuilder::new();
                for i in 0..n {
                    b.add_table(TableId(i as u32));
                }
                for i in 1..n {
                    b.join(
                        ColRef::new(TableRef(0), 0),
                        ColRef::new(TableRef(i as u8), 0),
                    );
                }
                let q = Query::new("star", b.build(&cat).unwrap());
                assert_eq!(count_joins(&cat, &q, &cfg).unwrap(), star_join_count(n));
            }
        }
    }

    #[test]
    fn formulas_match_paper_examples() {
        // Figure 3's query: 3 tables, 4 joins.
        assert_eq!(linear_join_count(3), 4);
        assert_eq!(star_join_count(3), 4);
        assert_eq!(linear_join_count(2), 1);
    }

    #[test]
    fn baseline_model_fit_and_predict() {
        let points: Vec<(u64, f64)> = (1..10u64)
            .map(|j| (j * 10, 0.002 * (j * 10) as f64 + 0.01))
            .collect();
        let m = JoinCountModel::fit(&points).unwrap();
        assert!((m.c_join - 0.002).abs() < 1e-9);
        assert!((m.intercept - 0.01).abs() < 1e-9);
        assert!((m.predict_seconds(100) - 0.21).abs() < 1e-9);
    }
}
