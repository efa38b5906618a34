//! Integration test: the paper's §1.1 applications end to end — the
//! meta-optimizer (Fig. 1), workload forecasting, and §6.2 memory
//! estimation, driven through real workloads.

use cote::{
    calibrate_multi, estimate_block, estimate_memory, forecast_workload, Cote, EstimateOptions,
    MetaOptimizer, MopChoice, TimeModel,
};
use cote_optimizer::{Mode, Optimizer, OptimizerConfig};
use cote_workloads::{by_name, random::random};

fn trained_cote(mode: Mode) -> Cote {
    // Calibrate on seed-7 random queries, disjoint from every test workload.
    let dw = random(mode, 7);
    let cfg = OptimizerConfig::high(mode);
    let cal = calibrate_multi(&[(&dw.catalog, &dw.queries[..])], &cfg, 1).expect("calibrates");
    Cote::new(cfg, cal.model)
}

#[test]
fn mop_extremes_pick_the_expected_levels() {
    let w = by_name("real1-s").unwrap();
    let cfg = OptimizerConfig::high(Mode::Serial);
    let cote = trained_cote(Mode::Serial);
    // Execution essentially free → E < C → keep the low plan everywhere.
    let low = MetaOptimizer::new(cfg.clone(), cote.clone(), 1e-15);
    // Execution astronomically slow → E ≥ C → always reoptimize.
    let high = MetaOptimizer::new(cfg, cote, 1e6);
    for q in &w.queries {
        assert_eq!(
            low.choose(&w.catalog, q).unwrap().choice,
            MopChoice::LowPlan,
            "{}",
            q.name
        );
        let out = high.choose(&w.catalog, q).unwrap();
        assert_eq!(out.choice, MopChoice::HighPlan, "{}", q.name);
        assert!(out.high_result.is_some());
    }
}

#[test]
fn mop_is_consistent_with_its_inputs() {
    let w = by_name("real1-s").unwrap();
    let cfg = OptimizerConfig::high(Mode::Serial);
    let cote = trained_cote(Mode::Serial);
    let mop = MetaOptimizer::new(cfg, cote, 1e-4);
    for q in &w.queries {
        let out = mop.choose(&w.catalog, q).unwrap();
        match out.choice {
            MopChoice::LowPlan => assert!(out.e_low_seconds < out.c_high_seconds),
            MopChoice::HighPlan => assert!(out.e_low_seconds >= out.c_high_seconds),
        }
        assert!(out.compile_seconds_spent > 0.0);
    }
}

#[test]
fn forecast_total_is_the_sum_and_progress_is_monotone() {
    let w = by_name("tpch-s").unwrap();
    let cote = trained_cote(Mode::Serial);
    let f = forecast_workload(&cote, &w.catalog, &w.queries).unwrap();
    assert_eq!(f.per_query_seconds.len(), w.queries.len());
    let sum: f64 = f.per_query_seconds.iter().sum();
    assert!((sum - f.total_seconds).abs() < 1e-12);
    let mut last = -1.0;
    for i in 0..=w.queries.len() {
        let p = f.progress_after(i);
        assert!(p >= last, "monotone progress");
        assert!((0.0..=1.0).contains(&p));
        last = p;
    }
    assert!((f.remaining_after(0) - f.total_seconds).abs() < 1e-12);
    assert_eq!(f.remaining_after(w.queries.len()), 0.0);
}

#[test]
fn forecast_orders_workloads_by_size() {
    // A trained COTE must rank a heavier workload above a lighter one.
    let cote = trained_cote(Mode::Serial);
    let light = by_name("real1-s").unwrap();
    let heavy = by_name("star-s").unwrap();
    let f_light = forecast_workload(&cote, &light.catalog, &light.queries).unwrap();
    let f_heavy = forecast_workload(&cote, &heavy.catalog, &heavy.queries).unwrap();
    assert!(
        f_heavy.total_seconds > f_light.total_seconds,
        "star batches dwarf real1: {} vs {}",
        f_heavy.total_seconds,
        f_light.total_seconds
    );
}

/// §6.2 over one workload: (estimated MEMO bytes, modelled actual = kept
/// plans × plan size, measured arena bytes), each summed over its queries.
fn memory_sums(workload: &str) -> (u64, u64, u64) {
    let w = by_name(workload).unwrap();
    let cfg = OptimizerConfig::high(w.mode);
    let opt = Optimizer::new(cfg.clone());
    let (mut est, mut actual, mut arena) = (0u64, 0u64, 0u64);
    for q in &w.queries {
        for block in q.blocks() {
            let e = estimate_block(&w.catalog, block, &cfg, &EstimateOptions::default()).unwrap();
            est += estimate_memory(&e).estimated_bytes;
        }
        let r = opt.optimize_query(&w.catalog, q).unwrap();
        actual += cote::actual_memory_bytes(&r.stats);
        arena += cote::arena_bytes(&r.stats);
    }
    (est, actual, arena)
}

#[test]
fn memory_estimates_track_actuals_on_a_workload() {
    let (est_sum, act_sum, _) = memory_sums("real1-s");
    let ratio = est_sum as f64 / act_sum as f64;
    assert!(
        (0.4..=2.5).contains(&ratio),
        "memory estimate in range: ratio {ratio}"
    );
}

#[test]
fn memory_estimate_is_a_lower_bound_of_the_arena() {
    // §6.2: "Note that this is a lower bound" — of what the optimizer really
    // allocates: every stored node, not only the plans still kept at the end.
    let (est_sum, _, arena_sum) = memory_sums("star-s");
    assert!(
        est_sum <= arena_sum,
        "estimate {est_sum} B above the measured arena {arena_sum} B"
    );
}

/// Losers are never built: the arena holds the plans that were kept when
/// offered (some evicted later), their wrappers and a few enforcers — a
/// small multiple of `plans_kept`, not `plans_generated` (12–50× larger).
#[test]
fn arena_stays_within_four_nodes_per_kept_plan() {
    let mut sets = vec![
        "linear-s", "star-s", "cycle-s", "random-s", "tpch-s", "real1-s",
    ];
    // real2_q09 alone is minutes of unoptimized code; release runs (the CI
    // `oracles` job) cover it.
    if !cfg!(debug_assertions) {
        sets.push("real2-s");
    }
    for name in sets {
        let w = by_name(name).unwrap();
        let opt = Optimizer::new(OptimizerConfig::high(w.mode));
        let mut stats = cote_optimizer::CompileStats::default();
        for q in &w.queries {
            stats.add(&opt.optimize_query(&w.catalog, q).unwrap().stats);
        }
        assert!(
            stats.plan_nodes <= 4 * stats.plans_kept,
            "{name}: {} nodes for {} kept plans ({} generated)",
            stats.plan_nodes,
            stats.plans_kept,
            stats.plans_generated.total()
        );
    }
}

#[test]
fn cote_seconds_scale_with_counts() {
    // With a unit model, predicted seconds equal total counts; with a
    // doubled model they double — the §3.5 linearity.
    let w = by_name("real1-s").unwrap();
    let cfg = OptimizerConfig::high(w.mode);
    let unit = Cote::new(
        cfg.clone(),
        TimeModel {
            c_nljn: 1.0,
            c_mgjn: 1.0,
            c_hsjn: 1.0,
            c_join: 0.0,
            intercept: 0.0,
        },
    );
    let double = Cote::new(
        cfg,
        TimeModel {
            c_nljn: 2.0,
            c_mgjn: 2.0,
            c_hsjn: 2.0,
            c_join: 0.0,
            intercept: 0.0,
        },
    );
    for q in &w.queries {
        let a = unit.estimate(&w.catalog, q).unwrap();
        let b = double.estimate(&w.catalog, q).unwrap();
        assert_eq!(a.seconds, a.counts.total() as f64);
        assert!((b.seconds - 2.0 * a.seconds).abs() < 1e-9);
    }
}
