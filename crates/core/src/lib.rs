#![warn(missing_docs)]

//! `cote` — a COmpilation Time Estimator for a query optimizer.
//!
//! Reproduction of *Estimating Compilation Time of a Query Optimizer*
//! (Ilyas, Rao, Lohman, Gao, Lin — SIGMOD 2003) on the from-scratch
//! [`cote_optimizer`] substrate.
//!
//! The estimator predicts how long the optimizer will take to compile a
//! query *without compiling it*: it reuses the optimizer's join enumerator
//! (bypassing plan generation), maintains per-MEMO-entry lists of
//! interesting physical property values to count the plans each join would
//! generate, and converts counts to seconds through a regression-calibrated
//! linear model `T = Σ_t C_t · P_t`.
//!
//! ```
//! use cote::{calibrate, Cote};
//! use cote_catalog::{Catalog, ColumnDef, TableDef};
//! use cote_common::{ColRef, TableRef};
//! use cote_optimizer::{Mode, Optimizer, OptimizerConfig};
//! use cote_query::{Query, QueryBlockBuilder};
//!
//! // A two-table catalog and a one-join query.
//! let mut b = Catalog::builder();
//! let t0 = b.add_table(TableDef::new("orders", 10_000.0,
//!     vec![ColumnDef::uniform("id", 10_000.0, 10_000.0)]));
//! let t1 = b.add_table(TableDef::new("lines", 50_000.0,
//!     vec![ColumnDef::uniform("order_id", 50_000.0, 10_000.0)]));
//! let catalog = b.build().unwrap();
//! let mut qb = QueryBlockBuilder::new();
//! let o = qb.add_table(t0);
//! let l = qb.add_table(t1);
//! qb.join(ColRef::new(o, 0), ColRef::new(l, 0));
//! let query = Query::new("q1", qb.build(&catalog).unwrap());
//!
//! // Calibrate C_t on a (here: trivial) training set, then estimate.
//! let config = OptimizerConfig::high(Mode::Serial);
//! let training: Vec<Query> = (0..6).map(|i| {
//!     let mut qb = QueryBlockBuilder::new();
//!     let o = qb.add_table(t0);
//!     let l = qb.add_table(t1);
//!     qb.join(ColRef::new(o, 0), ColRef::new(l, 0));
//!     if i % 2 == 0 { qb.order_by(vec![ColRef::new(TableRef(0), 0)]); }
//!     Query::new(format!("t{i}"), qb.build(&catalog).unwrap())
//! }).collect();
//! let cal = calibrate(&catalog, &training, &config, 2).unwrap();
//! let cote = Cote::new(config.clone(), cal.model);
//! let estimate = cote.estimate(&catalog, &query).unwrap();
//! assert!(estimate.seconds >= 0.0);
//!
//! // Compare against actually compiling it.
//! let actual = Optimizer::new(config).optimize_query(&catalog, &query).unwrap();
//! assert!(estimate.counts.hsjn == actual.stats.plans_generated.hsjn);
//! ```

pub mod calibrate;
pub mod cote;
pub mod estimator;
pub mod fingerprint;
pub mod forecast;
pub mod joincount;
pub mod memory;
pub mod mop;
pub mod online;
pub mod options;
pub mod regression;
pub mod reopt;
pub mod statement_cache;
pub mod time_model;

pub use calibrate::{calibrate, calibrate_multi, calibrate_per_phase, Calibration, TrainingPoint};
pub use cote::{CompileTimeEstimate, Cote};
pub use estimator::{estimate_block, estimate_query, property_lists, BlockEstimate, QueryEstimate};
pub use fingerprint::{fingerprint, StructuralHasher};
pub use forecast::{forecast_workload, WorkloadForecast};
pub use joincount::{count_joins, linear_join_count, star_join_count, JoinCountModel};
pub use memory::{
    actual_memory_bytes, arena_bytes, estimate_memory, highest_level_within_budget, MemoryEstimate,
};
pub use mop::{MetaOptimizer, MopChoice, MopOutcome};
pub use online::{OnlineConfig, OnlineRegressor};
pub use options::EstimateOptions;
pub use regression::{least_squares, mean_abs_pct_error, nonnegative_least_squares};
pub use reopt::{should_reoptimize, ExecutionCheckpoint, ReoptDecision};
pub use statement_cache::StatementCache;
pub use time_model::TimeModel;
