//! Figure 6: accuracy of the end-to-end compilation-time estimate.
//!
//! The `C_t` model is calibrated on the synthetic training set (30 linear +
//! star queries, §3.5), then applied to the target workload. Paper: ≤30%
//! error on `star_s`, `real1_s`, `real2_s`, `tpch_p`, `random_p`; up to 66%
//! on `real1_p` (plan-generation time varies more in parallel mode).
//!
//! Usage: `fig6_time_accuracy [workload] [--per-phase]` (default `star-s`).
//! `--per-phase` swaps the §3.5 regression fit for the instrumented
//! per-phase attribution (see `table_ct_regression`).

use cote::{calibrate_per_phase, mean_abs_pct_error, Cote, EstimateOptions};
use cote_bench::{
    calibrated_cote, compile_workload, estimate_workload, has_flag, pct_err, table::TextTable,
    training_set, workload_arg,
};
use cote_optimizer::OptimizerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload_arg("star-s")?;
    let config = OptimizerConfig::high(w.mode);

    eprintln!(
        "calibrating C_t on the synthetic training set ({:?})...",
        w.mode
    );
    let (cote, model) = if has_flag("--per-phase") {
        let (catalog, queries) = training_set(w.mode);
        let dw = cote_workloads::random::random(w.mode, 99);
        let cal = calibrate_per_phase(
            &[(&catalog, &queries[..]), (&dw.catalog, &dw.queries[..])],
            &config,
            2,
        )?;
        let model = cal.model.clone();
        (Cote::new(config.clone(), cal.model), model)
    } else {
        calibrated_cote(w.mode, 2)?
    };
    let (cm, cn, ch) = model.ratio_mnh();
    eprintln!(
        "fitted C_m:C_n:C_h = {cm:.1}:{cn:.1}:{ch:.1} \
         (paper serial 5:2:4, parallel 6:1:2; machine-specific)"
    );

    eprintln!("compiling {} ({} queries)...", w.name, w.queries.len());
    let actual = compile_workload(&w, &config, 2)?;
    let est = estimate_workload(&w, &config, &EstimateOptions::default())?;

    println!("\nFigure 6 — compilation time estimation ({})", w.name);
    let mut t = TextTable::new(vec!["query", "actual (s)", "estimated (s)", "error"]);
    let (mut pred, mut act) = (Vec::new(), Vec::new());
    for (a, (_, e)) in actual.iter().zip(&est) {
        let predicted = cote.model().predict(&e.totals.counts, e.totals.joins);
        pred.push(predicted);
        act.push(a.seconds);
        t.row(vec![
            a.name.clone(),
            format!("{:.4}", a.seconds),
            format!("{:.4}", predicted),
            format!("{:+.1}%", pct_err(predicted, a.seconds)),
        ]);
    }
    t.print();
    println!(
        "\nmean |error| {:.1}% (paper: ≤30% serial; up to 66% on real1_p)",
        100.0 * mean_abs_pct_error(&pred, &act)
    );
    Ok(())
}
