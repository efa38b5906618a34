//! The COTE facade: plan counts in, seconds out.

use crate::estimator::{estimate_query, QueryEstimate};
use crate::options::EstimateOptions;
use crate::time_model::TimeModel;
use cote_catalog::Catalog;
use cote_common::Result;
use cote_optimizer::{OptimizerConfig, PerMethod};
use cote_query::Query;

/// A compilation-time estimate for one query.
#[derive(Debug, Clone)]
pub struct CompileTimeEstimate {
    /// Predicted compilation seconds at the configured optimization level.
    pub seconds: f64,
    /// Estimated generated join plans per method.
    pub counts: PerMethod,
    /// Full estimator output (per-level counts, MEMO statistics, and the
    /// estimator's own elapsed time — the Fig. 4 overhead).
    pub detail: QueryEstimate,
}

/// The COmpilation Time Estimator.
///
/// Binds an optimizer configuration (the level whose time is being
/// estimated), estimator options, and a calibrated [`TimeModel`].
#[derive(Debug, Clone)]
pub struct Cote {
    config: OptimizerConfig,
    options: EstimateOptions,
    model: TimeModel,
}

impl Cote {
    /// COTE for `config` with a calibrated model and default options.
    pub fn new(config: OptimizerConfig, model: TimeModel) -> Self {
        Self {
            config,
            options: EstimateOptions::default(),
            model,
        }
    }

    /// Override the estimator options.
    #[must_use]
    pub fn with_options(mut self, options: EstimateOptions) -> Self {
        self.options = options;
        self
    }

    /// The bound time model.
    pub fn model(&self) -> &TimeModel {
        &self.model
    }

    /// The optimizer configuration whose compile time is estimated.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Estimate the compilation time of `query`.
    pub fn estimate(&self, catalog: &Catalog, query: &Query) -> Result<CompileTimeEstimate> {
        let detail = estimate_query(catalog, query, &self.config, &self.options)?;
        let counts = detail.totals.counts;
        Ok(CompileTimeEstimate {
            seconds: self.model.predict(&counts, detail.totals.joins),
            counts,
            detail,
        })
    }

    /// Estimate compilation seconds for every level requested through
    /// [`EstimateOptions::levels`] in a single pass (§6.2): returns
    /// `(composite_inner_limit, seconds)` pairs, configured level first.
    pub fn estimate_levels(&self, catalog: &Catalog, query: &Query) -> Result<Vec<(usize, f64)>> {
        Ok(self
            .estimate_level_counts(catalog, query)?
            .into_iter()
            .map(|(l, c, j)| (l, self.model.predict(&c, j)))
            .collect())
    }

    /// Per-level `(limit, plan counts, join count)` for every level
    /// requested through [`EstimateOptions::levels`], configured level
    /// first. The counts are model-free, so a caller holding a fresher
    /// [`TimeModel`] (e.g. an online-recalibrated one) can price them
    /// itself.
    pub fn estimate_level_counts(
        &self,
        catalog: &Catalog,
        query: &Query,
    ) -> Result<Vec<(usize, PerMethod, u64)>> {
        let detail = estimate_query(catalog, query, &self.config, &self.options)?;
        let mut limits = vec![self.config.composite_inner_limit];
        limits.extend(
            self.options
                .levels
                .iter()
                .copied()
                .filter(|&l| l < self.config.composite_inner_limit),
        );
        let totals = &detail.totals;
        Ok(limits
            .into_iter()
            .zip(totals.level_counts.iter().zip(&totals.level_joins))
            .map(|(l, (c, &j))| (l, *c, j))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::Mode;
    use cote_query::QueryBlockBuilder;

    fn setup() -> (Catalog, Query) {
        let mut b = Catalog::builder();
        for i in 0..4 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                2000.0,
                vec![
                    ColumnDef::uniform("c0", 2000.0, 200.0),
                    ColumnDef::uniform("c1", 2000.0, 20.0),
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
        let q = Query::new("q", qb.build(&cat).unwrap());
        (cat, q)
    }

    fn unit_model() -> TimeModel {
        TimeModel {
            c_nljn: 1.0,
            c_mgjn: 1.0,
            c_hsjn: 1.0,
            c_join: 0.0,
            intercept: 0.0,
        }
    }

    #[test]
    fn estimate_converts_counts_to_seconds() {
        let (cat, q) = setup();
        let cote = Cote::new(OptimizerConfig::high(Mode::Serial), unit_model());
        let e = cote.estimate(&cat, &q).unwrap();
        assert!(e.seconds > 0.0);
        assert_eq!(e.seconds, e.counts.total() as f64, "unit model sums counts");
        assert!(e.detail.elapsed.as_nanos() > 0);
        let per_join = TimeModel {
            c_join: 0.5,
            ..unit_model()
        };
        let e = Cote::new(OptimizerConfig::high(Mode::Serial), per_join)
            .estimate(&cat, &q)
            .unwrap();
        let joins = e.detail.totals.joins;
        assert!(joins > 0);
        assert_eq!(e.seconds, 0.5 * joins as f64 + e.counts.total() as f64);
    }

    #[test]
    fn level_estimates_are_monotone_in_limit() {
        let (cat, q) = setup();
        let cote = Cote::new(OptimizerConfig::high(Mode::Serial), unit_model()).with_options(
            EstimateOptions {
                levels: vec![1, 2],
                ..Default::default()
            },
        );
        let levels = cote.estimate_levels(&cat, &q).unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0].0, 10, "configured level first");
        assert!(levels[1].1 <= levels[0].1);
        assert!(levels[1].1 <= levels[2].1, "limit 1 ⊆ limit 2");
    }
}
