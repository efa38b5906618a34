//! Integration tests for the serving layer: fingerprint stability across
//! rebuilds, single-pass multi-level estimate monotonicity, and — the
//! correctness claim behind the sharded cache — N threads hammering the
//! daemon produce exactly the estimates serial execution produces.

use cote::{fingerprint, Cote, EstimateOptions, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::{ColRef, TableId, TableRef};
use cote_optimizer::{Mode, OptimizerConfig};
use cote_query::{PredOp, Query, QueryBlockBuilder};
use cote_service::{CoteService, Decision, QueryClass, ServiceConfig};
use std::collections::HashMap;
use std::time::Duration;

fn catalog(tables: u32) -> Catalog {
    let mut b = Catalog::builder();
    for i in 0..tables {
        b.add_table(TableDef::new(
            format!("t{i}"),
            1_000.0 + 250.0 * i as f64,
            vec![
                ColumnDef::uniform("c0", 1_000.0, 1_000.0),
                ColumnDef::uniform("c1", 1_000.0, 50.0),
            ],
        ));
    }
    b.build().unwrap()
}

/// A chain query over `n` tables with an optional opaque local predicate.
fn chain(cat: &Catalog, n: u32, opaque: bool) -> Query {
    let mut b = QueryBlockBuilder::new();
    for i in 0..n {
        b.add_table(TableId(i));
    }
    for i in 0..n - 1 {
        b.join(
            ColRef::new(TableRef(i as u8), 0),
            ColRef::new(TableRef(i as u8 + 1), 0),
        );
    }
    if opaque {
        b.local(ColRef::new(TableRef(0), 1), PredOp::Opaque(0.25));
    }
    Query::new(format!("chain{n}"), b.build(cat).unwrap())
}

/// An outer block with a nested subquery over one extra table.
fn nested(cat: &Catalog, literal: f64) -> Query {
    let mut sub = QueryBlockBuilder::new();
    sub.add_table(TableId(3));
    sub.local(ColRef::new(TableRef(0), 1), PredOp::Eq(literal));
    let sub = sub.build(cat).unwrap();
    let mut outer = QueryBlockBuilder::new();
    outer.add_table(TableId(0));
    outer.add_table(TableId(1));
    outer.join(ColRef::new(TableRef(0), 0), ColRef::new(TableRef(1), 0));
    outer.child(sub);
    Query::new("nested", outer.build(cat).unwrap())
}

#[test]
fn fingerprint_is_stable_across_rebuilds() {
    let cat = catalog(6);
    // The same structure built twice is the same statement.
    assert_eq!(
        fingerprint(&chain(&cat, 4, false)),
        fingerprint(&chain(&cat, 4, false))
    );
    assert_eq!(
        fingerprint(&chain(&cat, 4, true)),
        fingerprint(&chain(&cat, 4, true)),
        "opaque predicates hash stably"
    );
    assert_ne!(
        fingerprint(&chain(&cat, 4, false)),
        fingerprint(&chain(&cat, 4, true)),
        "an opaque predicate is structural"
    );
    // Nested subqueries: stable, literal-insensitive, structure-sensitive.
    assert_eq!(
        fingerprint(&nested(&cat, 1.0)),
        fingerprint(&nested(&cat, 1.0))
    );
    assert_eq!(
        fingerprint(&nested(&cat, 1.0)),
        fingerprint(&nested(&cat, 42.0)),
        "subquery literals are parameters"
    );
    assert_ne!(
        fingerprint(&nested(&cat, 1.0)),
        fingerprint(&chain(&cat, 2, false)),
        "the subquery child is part of the identity"
    );
}

#[test]
fn estimate_levels_is_monotone_in_the_limit() {
    let cat = catalog(8);
    let q = chain(&cat, 8, false);
    let cote = Cote::new(
        OptimizerConfig::high(Mode::Serial),
        TimeModel {
            c_nljn: 1e-6,
            c_mgjn: 1e-6,
            c_hsjn: 1e-6,
            intercept: 0.0,
        },
    )
    .with_options(EstimateOptions {
        levels: vec![1, 2, 3, 4, 6],
        ..Default::default()
    });
    let mut levels = cote.estimate_levels(&cat, &q).unwrap();
    assert_eq!(levels.len(), 6, "configured level + 5 extras");
    levels.sort_by_key(|&(limit, _)| limit);
    for w in levels.windows(2) {
        assert!(w[0].0 < w[1].0);
        assert!(
            w[0].1 <= w[1].1,
            "raising the composite-inner limit from {} to {} lowered the \
             estimate: {} -> {}",
            w[0].0,
            w[1].0,
            w[0].1,
            w[1].1
        );
    }
    assert!(levels[0].1 > 0.0, "even level 1 does work");
}

#[test]
fn concurrent_submissions_match_serial_estimates() {
    let cat = catalog(8);
    let queries: Vec<Query> = (2..=8)
        .flat_map(|n| [chain(&cat, n, false), chain(&cat, n, true)])
        .collect();
    let model = TimeModel {
        c_nljn: 1e-6,
        c_mgjn: 1e-6,
        c_hsjn: 1e-6,
        intercept: 0.0,
    };
    let mk_cote = || Cote::new(OptimizerConfig::high(Mode::Serial), model.clone());
    let cfg = ServiceConfig {
        workers: 4,
        shards: 8,
        cache_capacity: 1024,
        max_inflight: 0,
        deadline: Duration::from_secs(30),
        ..Default::default()
    };

    // Serial ground truth: one advisor pass per distinct statement.
    let serial: HashMap<u64, Vec<(usize, f64)>> = {
        let advisor = cote_service::LevelAdvisor::new(mk_cote(), &cfg);
        queries
            .iter()
            .map(|q| {
                let a = advisor.advise(&cat, q, QueryClass::Batch).unwrap();
                (fingerprint(q), a.levels)
            })
            .collect()
    };

    // 8 threads × 6 rounds over all 14 statements, hitting the daemon's
    // sharded cache from every shard.
    let svc = CoteService::start(cat, mk_cote(), cfg);
    std::thread::scope(|scope| {
        for t in 0..8 {
            let (svc, queries, serial) = (&svc, &queries, &serial);
            scope.spawn(move || {
                for round in 0..6 {
                    for i in 0..queries.len() {
                        // Stagger starting points so threads collide on
                        // different statements.
                        let q = &queries[(i + t * 3 + round) % queries.len()];
                        let resp = svc.submit(q, QueryClass::Batch);
                        match resp.decision {
                            Decision::Admitted { advice, .. } => {
                                assert_eq!(
                                    &advice.levels,
                                    &serial[&fingerprint(q)],
                                    "{} diverged from serial",
                                    q.name
                                );
                            }
                            other => panic!("{}: {other:?}", q.name),
                        }
                    }
                }
            });
        }
    });
    assert!(svc.drain(Duration::from_secs(10)), "service quiesces");
    let m = svc.metrics();
    assert_eq!(m.requests.get(), 8 * 6 * 14);
    assert_eq!(m.errors.get(), 0);
    assert_eq!(m.shed_total(), 0);
    assert_eq!(
        m.cache_misses.get() + m.cache_hits.get(),
        m.requests.get(),
        "every request either hit or missed"
    );
    assert!(
        m.cache_misses.get() >= 14,
        "at least one miss per distinct statement"
    );
    assert_eq!(m.queue_depth.get(), 0, "queue-depth gauge returns to zero");
    assert_eq!(svc.inflight(), 0, "every admission released");
    assert_eq!(svc.cache().len(), 14, "one entry per distinct statement");
}
