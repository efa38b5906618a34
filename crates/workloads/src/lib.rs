#![warn(missing_docs)]

//! `cote-workloads` — the paper's evaluation workloads (§5), rebuilt.
//!
//! * [`linear`] / [`star`] — the synthetic workloads: three batches of five
//!   queries joining 6, 8 and 10 tables, varying the join-predicate count
//!   from 1 to 5 within a batch (plus ORDER BY / GROUP BY variety);
//! * [`random`] — a seeded generator that "creates increasingly complex
//!   queries by merging simpler queries … using either subqueries or joins",
//!   preferring foreign-key→primary-key edges;
//! * [`tpch`] — the TPC-H schema and the seven longest-compiling queries;
//! * [`customer`] — `real1` (8 queries) and `real2` (17 queries), synthetic
//!   data-warehouse stand-ins for the paper's customer workloads (see
//!   DESIGN.md §2 for the substitution argument);
//! * [`generators`] — proptest strategies and seeded corpora of random
//!   catalog + join-graph pairs (chain/star/cycle/clique, optional ORDER
//!   BY/GROUP BY, partitioned tables), shared by the differential and
//!   oracle test suites;
//! * [`sql`] — renders generated specs to SQL text (the JOB-like corpus for
//!   the `cote-sql` front-end's differential oracle).
//!
//! Every constructor takes a [`cote_optimizer::Mode`]: `Serial` builds a
//! single-node catalog, `Parallel` a 4-logical-node shared-nothing catalog
//! (the paper's setup), matching the `_s`/`_p` workload suffixes.

pub mod customer;
pub mod cycle;
pub mod generators;
pub mod linear;
pub mod random;
pub mod sql;
pub mod star;
pub mod synth;
pub mod tpch;

use cote_catalog::Catalog;
use cote_common::{CoteError, Result};
use cote_optimizer::Mode;
use cote_query::Query;

/// A named workload: a catalog plus its queries.
pub struct Workload {
    /// Workload name (paper spelling: `linear_s`, `real1_p`, …).
    pub name: String,
    /// The catalog the queries run against.
    pub catalog: Catalog,
    /// The queries, in paper order.
    pub queries: Vec<Query>,
    /// Execution mode the catalog was built for.
    pub mode: Mode,
}

impl Workload {
    pub(crate) fn suffix(mode: Mode) -> &'static str {
        match mode {
            Mode::Serial => "s",
            Mode::Parallel => "p",
        }
    }
}

/// Look a workload up by its paper-style name: `linear-s`, `star-p`,
/// `random-p`, `tpch-p`, `real1-s`, `real2-p`, … (underscores also accepted).
pub fn by_name(name: &str) -> Result<Workload> {
    let canon = name.to_ascii_lowercase().replace('_', "-");
    let (base, mode) = canon
        .rsplit_once('-')
        .ok_or_else(|| CoteError::UnknownObject {
            what: format!("workload '{name}'"),
        })?;
    let mode = match mode {
        "s" => Mode::Serial,
        "p" => Mode::Parallel,
        _ => {
            return Err(CoteError::UnknownObject {
                what: format!("workload mode '{mode}'"),
            })
        }
    };
    match base {
        "linear" => Ok(linear::linear(mode)),
        "cycle" => Ok(cycle::cycle(mode)),
        "star" => Ok(star::star(mode)),
        "random" => Ok(random::random(mode, 42)),
        "tpch" => Ok(tpch::tpch(mode)),
        "real1" => Ok(customer::real1(mode)),
        "real2" => Ok(customer::real2(mode)),
        other => Err(CoteError::UnknownObject {
            what: format!("workload '{other}'"),
        }),
    }
}

/// All workload names understood by [`by_name`].
pub const ALL_WORKLOADS: [&str; 14] = [
    "linear-s", "linear-p", "star-s", "star-p", "cycle-s", "cycle-p", "random-s", "random-p",
    "tpch-s", "tpch-p", "real1-s", "real1-p", "real2-s", "real2-p",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_every_name() {
        for name in ALL_WORKLOADS {
            let w = by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!w.queries.is_empty(), "{name} has queries");
            assert!(w.catalog.table_count() > 0);
        }
        assert!(by_name("nope-s").is_err());
        assert!(by_name("linear-x").is_err());
        assert!(by_name("linear").is_err());
        // Underscore spelling accepted.
        assert!(by_name("real1_p").is_ok());
    }
}
