//! End-to-end online-recalibration loop: a synthetic outcome stream with a
//! step change must trip the drift gauge and widen advised budgets (error
//! bars), and re-convergence must clear the alarm and recover the margins.

use cote::{Cote, TimeModel};
use cote_catalog::{Catalog, ColumnDef, TableDef};
use cote_common::{ColRef, TableId, TableRef};
use cote_optimizer::{Mode, OptimizerConfig};
use cote_query::{Query, QueryBlockBuilder};
use cote_service::{CoteService, Decision, LevelChoice, QueryClass, ServiceConfig};
use std::time::Duration;

fn catalog() -> Catalog {
    let mut b = Catalog::builder();
    for i in 0..8 {
        b.add_table(TableDef::new(
            format!("t{i}"),
            1000.0 + 50.0 * i as f64,
            vec![
                ColumnDef::uniform("c0", 1000.0, 1000.0),
                ColumnDef::uniform("c1", 1000.0, 25.0),
            ],
        ));
    }
    b.build().unwrap()
}

/// A 5-table chain starting at table `first` — distinct `first` gives a
/// structurally distinct statement (different base tables), so each query
/// misses the cache and gets fresh advice.
fn chain(cat: &Catalog, first: u32) -> Query {
    let mut qb = QueryBlockBuilder::new();
    for i in 0..5 {
        qb.add_table(TableId(first + i));
    }
    for i in 0..4u8 {
        qb.join(ColRef::new(TableRef(i), 0), ColRef::new(TableRef(i + 1), 0));
    }
    Query::new(format!("chain5_{first}"), qb.build(cat).unwrap())
}

fn model() -> TimeModel {
    TimeModel {
        c_nljn: 1e-6,
        c_mgjn: 1e-6,
        c_hsjn: 1e-6,
        c_join: 0.0,
        intercept: 0.0,
    }
}

fn advised_limit(d: &Decision) -> Option<usize> {
    match d {
        Decision::Admitted { advice, .. } => match advice.choice {
            LevelChoice::Dp {
                composite_inner_limit,
                ..
            } => Some(composite_inner_limit),
            LevelChoice::Greedy { .. } => None,
        },
        _ => panic!("{d:?}"),
    }
}

fn margin_of(d: &Decision) -> f64 {
    match d {
        Decision::Admitted { advice, .. } => advice.error_margin,
        _ => panic!("{d:?}"),
    }
}

#[test]
fn drift_widens_budgets_then_recovers() {
    let cat = catalog();
    let cote = Cote::new(OptimizerConfig::high(Mode::Serial), model());

    // Find the top-level estimate for a 5-chain so the budget can be cut
    // just above it: fits with the base margin, busts with a drifted one.
    let probe = cote.estimate(&cat, &chain(&cat, 0)).unwrap();
    let base_margin = ServiceConfig::default().recal.base_margin;
    let budget = probe.seconds * (1.0 + base_margin) * 1.05;

    let cfg = ServiceConfig {
        workers: 1,
        budget_reporting: budget,
        deadline: Duration::from_secs(10),
        advisor_levels: vec![1, 2],
        ..Default::default()
    };
    let svc = CoteService::start(cat.clone(), cote, cfg);
    let registry_gauge = |name: &str| svc.metrics().registry().gauge(name).get();

    // Phase 1 — healthy: advice at the full level, outcomes match the
    // model, no drift.
    let q0 = chain(&cat, 0);
    let r = svc.submit(&q0, QueryClass::Reporting);
    assert_eq!(advised_limit(&r.decision), Some(10), "{:?}", r.decision);
    assert!((margin_of(&r.decision) - base_margin).abs() < 1e-9);
    let truth = probe.seconds;
    for _ in 0..20 {
        assert!(svc.report_outcome(&q0, truth));
    }
    assert!(!svc.recalibrator().drift_active());
    assert_eq!(registry_gauge("cote_service_drift_active"), 0);

    // Phase 2 — step change: the machine is suddenly 3x slower. The drift
    // gauge trips and a *fresh* statement gets wider error bars and a
    // stepped-down level.
    for _ in 0..12 {
        assert!(svc.report_outcome(&q0, 3.0 * truth));
    }
    assert!(
        svc.recalibrator().drift_active(),
        "score {}",
        svc.recalibrator().drift_score()
    );
    assert_eq!(registry_gauge("cote_service_drift_active"), 1);
    assert!(registry_gauge("cote_service_drift_score_milli") >= 1000);

    let q1 = chain(&cat, 1);
    let r = svc.submit(&q1, QueryClass::Reporting);
    let drifted_margin = margin_of(&r.decision);
    assert!(
        drifted_margin > base_margin + 0.05,
        "error bars widened: {drifted_margin} vs {base_margin}"
    );
    // None here means degraded all the way to greedy: even more cautious.
    if let Some(limit) = advised_limit(&r.decision) {
        assert!(limit < 10, "budget no longer fits the top level");
    }

    // Phase 3 — re-convergence: the regressor adapts to the new truth, the
    // faded detector decays, the alarm clears, margins recover.
    let q1_advice = match &r.decision {
        Decision::Admitted { advice, .. } => advice,
        other => panic!("{other:?}"),
    };
    let q1_truth = 3.0
        * svc
            .recalibrator()
            .static_model()
            .predict(&q1_advice.counts, q1_advice.joins);
    for _ in 0..400 {
        svc.report_outcome(&q0, 3.0 * truth);
        svc.report_outcome(&q1, q1_truth);
    }
    assert!(
        !svc.recalibrator().drift_active(),
        "score {}",
        svc.recalibrator().drift_score()
    );
    assert_eq!(registry_gauge("cote_service_drift_active"), 0);
    let recovered = svc.recalibrator().error_margin();
    assert!(
        recovered < base_margin + 0.05,
        "margins recovered: {recovered}"
    );
    // One alarm onset over the whole episode (hysteresis, no flapping).
    assert_eq!(
        svc.metrics()
            .registry()
            .counter("cote_service_drift_alarms_total")
            .get(),
        1
    );
    // The online model now predicts the drifted reality.
    let adapted = svc
        .recalibrator()
        .model()
        .predict(&probe.counts, probe.detail.totals.joins);
    assert!(
        ((adapted - 3.0 * truth) / (3.0 * truth)).abs() < 0.10,
        "adapted {adapted}, want {}",
        3.0 * truth
    );

    // Shutdown hygiene: resetting drift zeroes the gauges so a final dump
    // never reports stale drift.
    svc.recalibrator().reset_drift();
    assert_eq!(registry_gauge("cote_service_drift_score_milli"), 0);
    assert_eq!(registry_gauge("cote_service_drift_active"), 0);
}
