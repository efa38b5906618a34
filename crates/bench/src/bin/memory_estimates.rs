//! §6.2 — optimizer memory-consumption estimation.
//!
//! MEMO memory is estimated from the interesting-property list lengths
//! (× plan size) and compared with the memory the real MEMO retained, as
//! modelled (kept plans × plan size) and as measured (arena nodes × node
//! size: the estimate is a lower bound of that one).
//!
//! Usage: `memory_estimates [workload]` (default `star-s`).

use cote::{estimate_block, estimate_memory, EstimateOptions};
use cote_bench::{compile_workload, pct_err, table::TextTable, workload_arg};
use cote_optimizer::OptimizerConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload_arg("star-s")?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("compiling {} ({} queries)...", w.name, w.queries.len());
    let actual = compile_workload(&w, &config, 1)?;

    println!("\n§6.2 — MEMO memory estimation ({})", w.name);
    let mut t = TextTable::new(vec![
        "query",
        "actual KiB",
        "arena KiB",
        "estimated KiB",
        "error",
        "estimator KiB",
    ]);
    for (a, q) in actual.iter().zip(&w.queries) {
        let mut est_bytes = 0u64;
        let mut estor_bytes = 0u64;
        for block in q.blocks() {
            let e = estimate_block(&w.catalog, block, &config, &EstimateOptions::default())?;
            let m = estimate_memory(&e);
            est_bytes += m.estimated_bytes;
            estor_bytes += m.estimator_bytes;
        }
        let act_bytes = cote::actual_memory_bytes(&a.stats);
        t.row(vec![
            a.name.clone(),
            format!("{:.1}", act_bytes as f64 / 1024.0),
            format!("{:.1}", cote::arena_bytes(&a.stats) as f64 / 1024.0),
            format!("{:.1}", est_bytes as f64 / 1024.0),
            format!("{:+.1}%", pct_err(est_bytes as f64, act_bytes as f64)),
            format!("{:.1}", estor_bytes as f64 / 1024.0),
        ]);
    }
    t.print();
    println!(
        "\nthe estimator's own footprint (property lists, ~4B/value) is a tiny \
         fraction of the MEMO it predicts (paper §3.3)"
    );
    Ok(())
}
