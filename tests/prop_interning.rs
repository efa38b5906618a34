//! Regression guard for the interned interesting-property lists.
//!
//! The pre-interning estimator payload stored owned `Vec<Ordering>` /
//! `Vec<PartitionVal>` lists and every insert re-compared the candidate
//! *structurally* against the whole retained list — a latent O(n²) deep
//! comparisons per MEMO entry. The interned layout replaces each of those
//! scans with one hash probe (at most one deep comparison) plus a `u32`
//! id scan. `BlockEstimate` now reports both sides of that ledger
//! (`prop_compares` vs `prop_naive_compares`, also published as the
//! `cote_opt_prop_{probes,compares,naive_compares}_total` counters), so
//! this test pins the drop on the Fig. 4 overhead workload and fails if a
//! future change quietly reintroduces deep per-insert scans.

use cote::{estimate_query, EstimateOptions};
use cote_optimizer::OptimizerConfig;
use cote_workloads::by_name;

/// Sum the property-comparison telemetry over a whole workload.
fn totals(workload: &str, opts: &EstimateOptions) -> (u64, u64, u64) {
    let w = by_name(workload).unwrap();
    let cfg = OptimizerConfig::high(w.mode);
    let (mut probes, mut compares, mut naive) = (0u64, 0u64, 0u64);
    for q in &w.queries {
        let est = estimate_query(&w.catalog, q, &cfg, opts).unwrap();
        probes += est.totals.prop_probes;
        compares += est.totals.prop_compares;
        naive += est.totals.prop_naive_compares;
    }
    (probes, compares, naive)
}

#[test]
fn interned_lists_cut_deep_compares_on_fig4_workload() {
    // The linear batch is the Fig. 4 estimation-overhead workload: chains
    // up to 15 tables whose ORDER BY keeps order lists populated, so
    // propagation repeatedly re-checks values against grown lists.
    let (probes, compares, naive) = totals("linear-s", &EstimateOptions::default());
    assert!(probes > 0, "estimator maintained property lists");
    assert_eq!(
        compares, probes,
        "interned layout does at most one deep comparison per probe"
    );
    assert!(
        naive >= 2 * compares,
        "interning must cut deep comparisons at least in half: \
         naive {naive} vs interned {compares}"
    );
}

#[test]
fn full_propagation_widens_the_gap() {
    // Without the §4 first-join-only shortcut every orientation propagates,
    // lists are touched far more often, and the avoided quadratic grows:
    // the naive/interned ratio must not shrink when work increases.
    let fast = totals("linear-s", &EstimateOptions::default());
    let full = totals(
        "linear-s",
        &EstimateOptions {
            first_join_only: false,
            ..Default::default()
        },
    );
    assert!(
        full.2 > fast.2,
        "full propagation performs more naive compares ({} vs {})",
        full.2,
        fast.2
    );
    let ratio = |(_, c, n): (u64, u64, u64)| n as f64 / c.max(1) as f64;
    assert!(
        ratio(full) >= ratio(fast),
        "savings ratio grows with list pressure: full {:.2} vs fast {:.2}",
        ratio(full),
        ratio(fast)
    );
}
