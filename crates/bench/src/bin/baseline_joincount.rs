//! §5.3 — the join-count baseline vs. plan-count estimation on `star_s`.
//!
//! Paper: "Had we estimated compilation time using the number of joins only,
//! we would have had errors of 20 times larger, no matter how we chose the
//! time per join, because such a metric cannot distinguish queries within
//! the same batch."
//!
//! Usage: `baseline_joincount [workload]` (default `star-s`).

use cote::{count_joins, mean_abs_pct_error, EstimateOptions, JoinCountModel};
use cote_bench::{
    calibrated_cote, compile_workload, estimate_workload, table::TextTable, training_set,
    workload_arg,
};
use cote_optimizer::{Optimizer, OptimizerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload_arg("star-s")?;
    let config = OptimizerConfig::high(w.mode);

    // Train both models on the same synthetic training set.
    eprintln!(
        "calibrating COTE and the join-count baseline ({:?})...",
        w.mode
    );
    let (cote, _) = calibrated_cote(w.mode, 2)?;
    let (tcat, tqueries) = training_set(w.mode);
    let topt = Optimizer::new(config.clone());
    let mut joins_points = Vec::new();
    for q in &tqueries {
        let joins = count_joins(&tcat, q, &config)?;
        let secs = topt.optimize_query(&tcat, q)?.stats.elapsed.as_secs_f64();
        joins_points.push((joins, secs));
    }
    let baseline = JoinCountModel::fit(&joins_points)?;

    eprintln!("compiling {} ({} queries)...", w.name, w.queries.len());
    let actual = compile_workload(&w, &config, 2)?;
    let est = estimate_workload(&w, &config, &EstimateOptions::default())?;

    println!(
        "\n§5.3 — join-count baseline vs plan-count COTE ({})",
        w.name
    );
    let mut t = TextTable::new(vec![
        "query",
        "actual (s)",
        "COTE (s)",
        "joins",
        "baseline (s)",
    ]);
    let (mut cote_pred, mut base_pred, mut act) = (Vec::new(), Vec::new(), Vec::new());
    for (a, (_, e)) in actual.iter().zip(&est) {
        let c = cote.model().predict(&e.totals.counts, e.totals.joins);
        let joins = e.totals.pairs;
        let b = baseline.predict_seconds(joins);
        cote_pred.push(c);
        base_pred.push(b);
        act.push(a.seconds);
        t.row(vec![
            a.name.clone(),
            format!("{:.4}", a.seconds),
            format!("{:.4}", c),
            joins.to_string(),
            format!("{:.4}", b),
        ]);
    }
    t.print();
    let cote_err = 100.0 * mean_abs_pct_error(&cote_pred, &act);
    let base_err = 100.0 * mean_abs_pct_error(&base_pred, &act);
    println!(
        "\nmean |error|: COTE {cote_err:.1}%  vs  join-count baseline {base_err:.1}%  \
         ({:.1}× larger; paper: ~20×)",
        base_err / cote_err.max(0.01)
    );
    println!(
        "the baseline cannot separate queries inside a batch: identical join \
         counts, different plans"
    );
    Ok(())
}
