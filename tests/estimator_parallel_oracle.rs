//! Estimator-vs-optimizer oracle, serial and parallel.
//!
//! On a corpus with no interesting-order sources (no indexes, ORDER BY or
//! GROUP BY — [`QuerySpec::plain`]) and the Cartesian-card-1 heuristic off
//! (so the simple and full cardinality models enumerate identical join
//! sites), the COTE prediction is not an approximation: every orientation
//! generates exactly one NLJN, zero MGJN and one HSJN plan, and the
//! estimator's counting walk must agree with the real plan generator *to
//! the plan*. The oracle holds for the (serial) counting walk against both
//! the serial and the parallel optimizer.

use cote::{estimate_block, EstimateOptions, TimeModel};
use cote_optimizer::{Mode, Optimizer, OptimizerConfig};
use cote_workloads::generators::{corpus, QuerySpec};

mod common;
use common::Json;

fn plain_specs() -> Vec<QuerySpec> {
    corpus(12, 2, 9, 0x04AC)
        .into_iter()
        .map(|mut s| {
            s.partitioned = false; // serial catalogs: no partition-term drift
            s.plain()
        })
        .collect()
}

fn exact_config() -> OptimizerConfig {
    let mut cfg = OptimizerConfig::high(Mode::Serial);
    // With the heuristic on, the estimator's simple cardinality model can
    // admit different Cartesian pairs than the full model — the deliberate
    // drift of Fig. 5(d–f). Exactness needs it off.
    cfg.cartesian_card_one = false;
    cfg
}

#[test]
fn estimated_counts_equal_actuals_serial_and_parallel() {
    for spec in plain_specs() {
        let (cat, q) = spec.build();
        let block = &q.root;
        let cfg = exact_config();
        let real = Optimizer::new(cfg.clone())
            .optimize_block(&cat, block)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        let est = estimate_block(&cat, block, &cfg, &EstimateOptions::default())
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert_eq!(
            est.counts, real.stats.plans_generated,
            "{spec:?}: plan counts per method"
        );
        assert_eq!(est.pairs, real.stats.pairs_enumerated, "{spec:?}");
        assert_eq!(est.joins, real.stats.joins_enumerated, "{spec:?}");
        assert_eq!(est.memo_entries, real.memo.len() as u64, "{spec:?}");
    }
}

#[test]
fn estimated_counts_equal_parallel_optimizer_actuals() {
    // The *parallel* optimizer's actuals equal the serial estimator's
    // predictions too.
    for spec in plain_specs().into_iter().take(6) {
        let (cat, q) = spec.build();
        let block = &q.root;
        let cfg = exact_config().with_enum_threads(4);
        let real = Optimizer::new(cfg.clone())
            .optimize_block(&cat, block)
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        let est = estimate_block(&cat, block, &cfg, &EstimateOptions::default()).unwrap();
        assert_eq!(est.counts, real.stats.plans_generated, "{spec:?}");
        assert_eq!(est.pairs, real.stats.pairs_enumerated, "{spec:?}");
    }
}

/// Layout-differential oracle for the estimator walk: predicted per-method
/// counts, memory quantities and predicted compilation seconds (under a
/// fixed paper-ratio time model, so the prediction is deterministic) must
/// stay bit-identical to the goldens captured from the pre-refactor layout.
#[test]
fn estimator_layout_matches_pre_refactor_goldens() {
    // The paper's serial DB2 ratio C_m:C_n:C_h = 5:2:4, plus an intercept:
    // fixed coefficients make predicted seconds a pure function of counts.
    let model = TimeModel {
        c_nljn: 2e-6,
        c_mgjn: 5e-6,
        c_hsjn: 4e-6,
        intercept: 1e-3,
    };
    let rows: Vec<Json> = plain_specs()
        .iter()
        .map(|spec| {
            let (cat, q) = spec.build();
            let block = &q.root;
            let cfg = exact_config();
            let est = estimate_block(&cat, block, &cfg, &EstimateOptions::default())
                .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            let counts = est.counts;
            Json::Obj(vec![
                (
                    "spec".into(),
                    Json::Str(format!(
                        "{:?}-{}t-seed{:x}",
                        spec.shape, spec.tables, spec.seed
                    )),
                ),
                ("nljn".into(), Json::u64(counts.nljn)),
                ("mgjn".into(), Json::u64(counts.mgjn)),
                ("hsjn".into(), Json::u64(counts.hsjn)),
                ("pairs".into(), Json::u64(est.pairs)),
                ("joins".into(), Json::u64(est.joins)),
                ("memo_entries".into(), Json::u64(est.memo_entries)),
                ("property_values".into(), Json::u64(est.property_values)),
                ("scan_plans".into(), Json::u64(est.scan_plans)),
                ("sort_plans".into(), Json::u64(est.sort_plans)),
                ("group_plans".into(), Json::u64(est.group_plans)),
                (
                    "predicted_seconds_bits".into(),
                    Json::f64_bits(model.predict_seconds(&counts)),
                ),
            ])
        })
        .collect();
    common::check_fixture(
        "tests/fixtures/memo_layout_estimator.json",
        &Json::Obj(vec![
            ("suite".into(), Json::Str("memo-layout-estimator".into())),
            ("threads".into(), Json::Arr(vec![Json::u64(1)])),
            ("specs".into(), Json::Arr(rows)),
        ]),
    );
}
