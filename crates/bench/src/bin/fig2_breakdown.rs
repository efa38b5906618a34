//! Figure 2: compilation-time breakdown for a customer workload.
//!
//! Paper values (DB2, serial): MGJN 37%, NLJN 34%, HSJN 5%, plan saving 16%,
//! other 8% — "more than 90% of the time is either directly or indirectly
//! spent on generating and saving join plans".
//!
//! The breakdown sums `CompileStats::time` — the per-phase clock the §3.5
//! time model is calibrated from — and `CompileStats::elapsed` over the
//! workload, so the figure and the `C_t` fit read the same numbers.
//!
//! Usage: `fig2_breakdown [workload]` (default `real2-s`).

use cote_bench::{compile_workload, table::TextTable, workload_arg};
use cote_optimizer::{CompileStats, OptimizerConfig};
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload_arg("real2-s")?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("compiling {} ({} queries)...", w.name, w.queries.len());
    let runs = compile_workload(&w, &config, 1)?;
    let mut total = CompileStats::default();
    for r in &runs {
        total.add(&r.stats);
    }
    let (time, elapsed) = (total.time, total.elapsed);
    // The buckets are disjoint and, in serial mode, sum to at most
    // `elapsed`; what they leave over (the pilot pass, context setup) is
    // "other", so the rows partition the compile wall clock.
    let (mgjn, nljn, hsjn, saving) = (time.mgjn, time.nljn, time.hsjn, time.saving);
    let other = time.enumeration + time.other + elapsed.saturating_sub(time.total());
    let pct = |d: Duration| 100.0 * d.as_secs_f64() / elapsed.as_secs_f64();

    println!("\nFigure 2 — compilation time breakdown ({})", w.name);
    let mut t = TextTable::new(vec!["category", "ours %", "paper %"]);
    t.row(vec![
        "MGJN plan generation".to_string(),
        format!("{:.1}", pct(mgjn)),
        "37".into(),
    ]);
    t.row(vec![
        "NLJN plan generation".to_string(),
        format!("{:.1}", pct(nljn)),
        "34".into(),
    ]);
    t.row(vec![
        "HSJN plan generation".to_string(),
        format!("{:.1}", pct(hsjn)),
        "5".into(),
    ]);
    t.row(vec![
        "plan saving".to_string(),
        format!("{:.1}", pct(saving)),
        "16".into(),
    ]);
    t.row(vec![
        "other (enum, scans, enforcers)".to_string(),
        format!("{:.1}", pct(other)),
        "8".into(),
    ]);
    t.print();
    let join_related = pct(mgjn) + pct(nljn) + pct(hsjn) + pct(saving);
    println!(
        "\njoin-plan generation + saving: {join_related:.1}% (paper: >90%)\n\
         total compile time: {:.3}s over {} queries",
        elapsed.as_secs_f64(),
        runs.len()
    );
    Ok(())
}
