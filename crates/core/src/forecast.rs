//! Workload-compilation forecasting (paper §1.1): "a COTE can be used to
//! forecast how long such a [workload analysis] tool will take to finish and
//! possibly to show the progress of the tool as well."

use crate::cote::Cote;
use cote_catalog::Catalog;
use cote_common::Result;
use cote_query::Query;

/// Forecast for compiling an entire workload.
#[derive(Debug, Clone)]
pub struct WorkloadForecast {
    /// Predicted seconds per query, in workload order.
    pub per_query_seconds: Vec<f64>,
    /// Total predicted seconds.
    pub total_seconds: f64,
}

impl WorkloadForecast {
    /// Progress fraction in `[0, 1]` after finishing `done` queries —
    /// weighted by predicted time, not query count, so long compilations
    /// advance the bar proportionally.
    pub fn progress_after(&self, done: usize) -> f64 {
        if self.total_seconds <= 0.0 {
            return 1.0;
        }
        let done_secs: f64 = self.per_query_seconds.iter().take(done).sum();
        (done_secs / self.total_seconds).clamp(0.0, 1.0)
    }

    /// Predicted seconds remaining after `done` queries.
    pub fn remaining_after(&self, done: usize) -> f64 {
        self.per_query_seconds.iter().skip(done).sum()
    }
}

/// Forecast the compilation time of a whole workload with one COTE pass per
/// query.
pub fn forecast_workload(
    cote: &Cote,
    catalog: &Catalog,
    workload: &[Query],
) -> Result<WorkloadForecast> {
    let mut per_query_seconds = Vec::with_capacity(workload.len());
    for q in workload {
        per_query_seconds.push(cote.estimate(catalog, q)?.seconds);
    }
    let total_seconds = per_query_seconds.iter().sum();
    Ok(WorkloadForecast {
        per_query_seconds,
        total_seconds,
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

    fn setup() -> (Catalog, Vec<Query>) {
        let mut b = Catalog::builder();
        for i in 0..5 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                1000.0,
                vec![ColumnDef::uniform("c0", 1000.0, 100.0)],
            ));
        }
        let cat = b.build().unwrap();
        let mut queries = Vec::new();
        for n in 2..=5usize {
            let mut qb = QueryBlockBuilder::new();
            for i in 0..n {
                qb.add_table(TableId(i as u32));
            }
            for i in 0..n - 1 {
                qb.join(
                    ColRef::new(TableRef(i as u8), 0),
                    ColRef::new(TableRef(i as u8 + 1), 0),
                );
            }
            queries.push(Query::new(format!("q{n}"), qb.build(&cat).unwrap()));
        }
        (cat, queries)
    }

    #[test]
    fn forecast_sums_and_tracks_progress() {
        let (cat, queries) = setup();
        let model = TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            c_join: 0.0,
            intercept: 1e-4,
        };
        let cote = Cote::new(OptimizerConfig::high(Mode::Serial), model);
        let f = forecast_workload(&cote, &cat, &queries).unwrap();
        assert_eq!(f.per_query_seconds.len(), 4);
        assert!(f.total_seconds > 0.0);
        // Bigger queries take longer.
        assert!(f.per_query_seconds[3] > f.per_query_seconds[0]);
        assert_eq!(f.progress_after(0), 0.0);
        assert_eq!(f.progress_after(4), 1.0);
        let half = f.progress_after(2);
        assert!(half > 0.0 && half < 1.0);
        assert!((f.remaining_after(2) - (f.total_seconds * (1.0 - half))).abs() < 1e-12);
    }
}
