//! CLI subcommand implementations.

use cote::{calibrate_per_phase, forecast_workload, Cote, MetaOptimizer, MopChoice};
use cote_common::{CoteError, Result};
use cote_optimizer::{JoinMethod, Optimizer, OptimizerConfig};
use cote_query::to_sql;
use cote_workloads::{by_name, Workload, ALL_WORKLOADS};

/// Help text.
pub const USAGE: &str = "\
cote — compilation-time estimation for a query optimizer (SIGMOD 2003 repro)

USAGE:
  cote workloads                      list workload names
  cote show <workload> [N]            pseudo-SQL of a workload('s Nth query)
  cote estimate <workload> [N]        COTE estimates (quick self-calibration)
  cote estimate [workload] --sql <SQL|-> | --sql-file PATH
                                      parse, bind and estimate one SQL
                                      statement against a workload's catalog
                                      (default tpch-s); '-' reads stdin
  cote memo <workload> N              estimator MEMO property lists
  cote compile <workload> [N]         compile for real; stats + chosen plan
  cote forecast <workload>            workload compilation forecast (§1.1)
  cote mop <workload> <secs-per-unit> Figure 1 meta-optimizer decisions
  cote calibrate [workload] [--online] [--rounds N] [--scale X]
                                      fit the §3.5 time model and print it;
                                      --online replays the workload with a
                                      mid-stream drift injection (X× slower
                                      at round N/2) and reports before/after
                                      MAPE for the frozen fit vs. the online
                                      RLS regressor (exit 1 unless online
                                      wins post-drift); default star-s
  cote metrics <workload> [N] [--json] [--trace FILE] [--trace-max-bytes B]
                                      estimate, then dump the global metrics
                                      registry (Prometheus text, or JSON);
                                      --trace writes span events as JSONL,
                                      capped at B bytes (0 = unlimited) with
                                      a final trace_truncated marker event
  cote serve <workload> [--listen ADDR] [--trace FILE [--trace-max-bytes B]]
             [--workers N] [--cache N] [--deadline-ms M]
             [--loops N] [--max-conns N] [--drain-ms M]
                                      estimation daemon driven by stdin
                                      ('metrics [json]' dumps the registry);
                                      --listen also serves the wire protocol
                                      (PING/ESTIMATE/ADMIT/METRICS) and HTTP
                                      (GET /metrics, /healthz, POST /estimate)
                                      on ADDR (port 0 = ephemeral, printed)
  cote gateway --backend ADDR [--backend ADDR ..] [--listen ADDR]
               [--vnodes N] [--probe-ms M]
               [--loops N] [--max-conns N] [--drain-ms M]
                                      consistent-hash sharding front: routes
                                      ESTIMATE/ADMIT by statement fingerprint
                                      across cote-serve backends (cache
                                      affinity survives sharding), probes
                                      health, fails BUSY/dead shards over to
                                      the next ring node; stdin 'quit' exits
  cote chaos --seed N --scenario <reset-storm|slow-backend|flaky-net|corrupt-frames>
             [--requests N] [--recovery N] [--pace-ms M]
                                      deterministic fault injection against an
                                      in-process gateway + 2 backends: replays
                                      a seeded fault plan, checks invariants
                                      (no hangs, queues drain, answers match a
                                      fault-free oracle, breakers cycle) and
                                      prints a replayable fingerprint;
                                      nonzero exit on any violation

Workloads: linear, star, cycle, random, tpch, real1, real2 — suffixed -s (serial)
or -p (parallel), e.g. `cote estimate star-s 3`.
";

fn parse(args: &[String]) -> Result<(Workload, Option<usize>)> {
    let name = args.first().ok_or_else(|| CoteError::InvalidQuery {
        reason: "missing workload name".into(),
    })?;
    let w = by_name(name)?;
    let idx = match args.get(1) {
        None => None,
        Some(s) => {
            let i: usize = s.parse().map_err(|_| CoteError::InvalidQuery {
                reason: format!("'{s}' is not a query index"),
            })?;
            if i == 0 || i > w.queries.len() {
                return Err(CoteError::InvalidQuery {
                    reason: format!("{} has queries 1..={}", w.name, w.queries.len()),
                });
            }
            Some(i - 1)
        }
    };
    Ok((w, idx))
}

fn selected(w: &Workload, idx: Option<usize>) -> Vec<usize> {
    match idx {
        Some(i) => vec![i],
        None => (0..w.queries.len()).collect(),
    }
}

/// A quick COTE, self-calibrated with the per-phase fit on the workload's
/// own catalog (1 repeat — good enough for interactive use).
pub(crate) fn quick_cote(w: &Workload, config: &OptimizerConfig) -> Result<Cote> {
    let train: Vec<cote_query::Query> = w.queries.iter().take(6).cloned().collect();
    let cal = calibrate_per_phase(&[(&w.catalog, &train[..])], config, 1)?;
    Ok(Cote::new(config.clone(), cal.model))
}

/// `cote workloads`
pub fn workloads() -> Result<()> {
    println!("{:<10} {:>7} {:>8}  mode", "name", "queries", "tables");
    for name in ALL_WORKLOADS {
        let w = by_name(name)?;
        println!(
            "{:<10} {:>7} {:>8}  {:?}",
            name,
            w.queries.len(),
            w.catalog.table_count(),
            w.mode
        );
    }
    Ok(())
}

/// `cote show <workload> [N]`
pub fn show(args: &[String]) -> Result<()> {
    let (w, idx) = parse(args)?;
    for i in selected(&w, idx) {
        println!("{}", to_sql(&w.queries[i], &w.catalog));
    }
    Ok(())
}

/// `cote estimate <workload> [N]`, or with `--sql <SQL|->` / `--sql-file
/// PATH`: run one SQL statement through the text front-end (parse, bind,
/// lower) and estimate it against a workload's catalog.
pub fn estimate(args: &[String]) -> Result<()> {
    let mut sql: Option<String> = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().ok_or_else(|| CoteError::InvalidQuery {
                reason: format!("{flag} needs a value"),
            })
        };
        match a.as_str() {
            "--sql" => {
                let v = val("--sql")?;
                sql = Some(if v == "-" { read_stdin()? } else { v });
            }
            "--sql-file" => {
                let path = val("--sql-file")?;
                sql =
                    Some(
                        std::fs::read_to_string(&path).map_err(|e| CoteError::InvalidQuery {
                            reason: format!("reading {path}: {e}"),
                        })?,
                    );
            }
            _ => rest.push(a.clone()),
        }
    }
    if let Some(sql) = sql {
        return estimate_sql(sql.trim(), &rest);
    }
    let (w, idx) = parse(&rest)?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(&w, &config)?;
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "query", "NLJN", "MGJN", "HSJN", "joins", "est time"
    );
    for i in selected(&w, idx) {
        let q = &w.queries[i];
        let e = cote.estimate(&w.catalog, q)?;
        println!(
            "{:<12} {:>8} {:>8} {:>8} {:>10} {:>10.3}ms",
            q.name,
            e.counts.nljn,
            e.counts.mgjn,
            e.counts.hsjn,
            e.detail.totals.pairs,
            e.seconds * 1e3
        );
    }
    Ok(())
}

fn read_stdin() -> Result<String> {
    use std::io::Read;
    let mut buf = String::new();
    std::io::stdin()
        .read_to_string(&mut buf)
        .map_err(|e| CoteError::InvalidQuery {
            reason: format!("reading stdin: {e}"),
        })?;
    Ok(buf)
}

/// The `--sql` path of `cote estimate`: the optional positional argument
/// names the workload whose catalog the statement binds against.
fn estimate_sql(sql: &str, rest: &[String]) -> Result<()> {
    let name = rest.first().map(String::as_str).unwrap_or("tpch-s");
    let w = by_name(name)?;
    let compiled = cote_sql::compile(sql, &w.catalog, "sql").map_err(|e| {
        // Multi-line caret rendering; the leading newline keeps the caret
        // aligned after main's `error:` prefix.
        CoteError::InvalidQuery {
            reason: format!("\n{}", e.render(sql)),
        }
    })?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(&w, &config)?;
    let e = cote.estimate(&w.catalog, &compiled.query)?;
    println!(
        "catalog:     {} ({} tables)",
        w.name,
        w.catalog.table_count()
    );
    println!("fingerprint: {:016x}", compiled.fingerprint);
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "query", "NLJN", "MGJN", "HSJN", "joins", "est time"
    );
    println!(
        "{:<12} {:>8} {:>8} {:>8} {:>10} {:>10.3}ms",
        compiled.query.name,
        e.counts.nljn,
        e.counts.mgjn,
        e.counts.hsjn,
        e.detail.totals.pairs,
        e.seconds * 1e3
    );
    Ok(())
}

/// `cote compile <workload> [N]`
pub fn compile(args: &[String]) -> Result<()> {
    let (w, idx) = parse(args)?;
    let config = OptimizerConfig::high(w.mode);
    let optimizer = Optimizer::new(config);
    for i in selected(&w, idx) {
        let q = &w.queries[i];
        let r = optimizer.optimize_query(&w.catalog, q)?;
        println!(
            "{}: {:.3}ms, {} plans generated ({} kept), {} joins",
            q.name,
            r.stats.elapsed.as_secs_f64() * 1e3,
            r.stats.plans_generated.total(),
            r.stats.plans_kept,
            r.stats.pairs_enumerated,
        );
        for m in JoinMethod::ALL {
            println!("  {}: {}", m.name(), r.stats.plans_generated.get(m));
        }
        if idx.is_some() {
            println!(
                "\nchosen plan (execution cost {:.1}):\n{}",
                r.best_cost(),
                r.explain()
            );
        }
    }
    Ok(())
}

/// `cote memo <workload> <N>` — the estimator's MEMO for one query block:
/// interesting property lists per entry (a Figure 3-style view).
pub fn memo(args: &[String]) -> Result<()> {
    let (w, idx) = parse(args)?;
    let idx = idx.ok_or_else(|| CoteError::InvalidQuery {
        reason: "memo needs a query index, e.g. `cote memo star-s 1`".into(),
    })?;
    let q = &w.queries[idx];
    let config = OptimizerConfig::high(w.mode);
    for (bi, block) in q.blocks().iter().enumerate() {
        println!("-- block {bi} of {} --", q.name);
        let lists = cote::property_lists(&w.catalog, block, &config, &Default::default())?;
        for (set, l) in lists {
            let orders: Vec<String> = l
                .orders
                .iter()
                .map(|o| {
                    let cols: Vec<String> = o
                        .cols()
                        .iter()
                        .map(|&id| {
                            let c = block.col_ref(id);
                            format!("t{}.c{}", c.table.0, c.column)
                        })
                        .collect();
                    format!("({})", cols.join(","))
                })
                .collect();
            let parts = if l.partitions.is_empty() {
                String::new()
            } else {
                format!("  partitions: {}", l.partitions.len())
            };
            println!("{set}  orders: [{}]{parts}", orders.join(" "));
        }
    }
    Ok(())
}

/// `cote forecast <workload>`
pub fn forecast(args: &[String]) -> Result<()> {
    let (w, _) = parse(args)?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(&w, &config)?;
    let f = forecast_workload(&cote, &w.catalog, &w.queries)?;
    for (q, secs) in w.queries.iter().zip(&f.per_query_seconds) {
        println!("{:<12} ≈{:>9.3}ms", q.name, secs * 1e3);
    }
    println!(
        "total        ≈{:>9.3}ms for {} queries",
        f.total_seconds * 1e3,
        w.queries.len()
    );
    Ok(())
}

/// `cote metrics <workload> [N] [--json] [--trace FILE] [--trace-max-bytes
/// B]` — run COTE estimates over the workload with tracing on, then expose
/// the process-wide registry (optimizer plan counters, estimator run
/// counters). `--trace FILE` additionally writes
/// the span events as JSONL through the size-capped writer.
pub fn metrics(args: &[String]) -> Result<()> {
    let mut json = false;
    let mut trace_path = None;
    let mut trace_max_bytes = 0u64;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().ok_or_else(|| CoteError::InvalidQuery {
                reason: format!("{flag} needs a value"),
            })
        };
        match a.as_str() {
            "--json" => json = true,
            "--trace" => trace_path = Some(val("--trace")?),
            "--trace-max-bytes" => {
                let v = val("--trace-max-bytes")?;
                trace_max_bytes = v.parse().map_err(|_| CoteError::InvalidQuery {
                    reason: format!("--trace-max-bytes: cannot parse '{v}'"),
                })?;
            }
            _ => rest.push(a.clone()),
        }
    }
    let (w, idx) = parse(&rest)?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(&w, &config)?;
    cote_obs::set_tracing(trace_path.is_some());
    for i in selected(&w, idx) {
        cote.estimate(&w.catalog, &w.queries[i])?;
    }
    if let Some(path) = trace_path {
        cote_obs::set_tracing(false);
        let events = cote_obs::take_events();
        let io_err = |e: std::io::Error| CoteError::InvalidQuery {
            reason: format!("writing {path}: {e}"),
        };
        let mut writer =
            cote_obs::BoundedTraceWriter::create(&path, trace_max_bytes).map_err(io_err)?;
        for e in &events {
            writer.write_event(e).map_err(io_err)?;
        }
        let summary = writer.finish().map_err(io_err)?;
        eprintln!(
            "wrote {} trace events to {path} ({} bytes, {} dropped by the cap)",
            summary.written, summary.bytes, summary.dropped
        );
    }
    if json {
        println!("{}", cote_obs::global().json());
    } else {
        print!("{}", cote_obs::global().prometheus_text());
    }
    Ok(())
}

/// `cote calibrate [workload] [--online] [--rounds N] [--scale X]` — fit
/// the §3.5 time model and print it. With `--online`, replay the workload
/// against a mid-stream drift injection (see `cote_bench::replay`) and
/// report before/after MAPE for the frozen static fit vs. the online RLS
/// regressor; fails unless the online model wins post-drift, so the CI
/// `calib-smoke` job is self-verifying.
pub fn calibrate(args: &[String]) -> Result<()> {
    use cote_bench::replay::{replay_online_drift, DriftSpec};

    let mut online = false;
    let mut spec = DriftSpec::default();
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().ok_or_else(|| CoteError::InvalidQuery {
                reason: format!("{flag} needs a value"),
            })
        };
        let bad = |flag: &str, v: &str| CoteError::InvalidQuery {
            reason: format!("{flag}: cannot parse '{v}'"),
        };
        match a.as_str() {
            "--online" => online = true,
            "--rounds" => {
                let v = val("--rounds")?;
                spec.rounds = v.parse().map_err(|_| bad("--rounds", &v))?;
            }
            "--scale" => {
                let v = val("--scale")?;
                spec.tinst_scale = v.parse().map_err(|_| bad("--scale", &v))?;
            }
            other if other.starts_with("--") => {
                return Err(CoteError::InvalidQuery {
                    reason: format!("calibrate: unknown flag '{other}'"),
                });
            }
            _ => rest.push(a.clone()),
        }
    }
    if rest.is_empty() {
        rest.push("star-s".to_string());
    }
    let (w, _) = parse(&rest)?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(&w, &config)?;
    let m = cote.model();
    let (cm, cn, ch) = m.ratio_mnh();
    println!(
        "fitted model: C_nljn {:.3e}s  C_mgjn {:.3e}s  C_hsjn {:.3e}s  intercept {:.3e}s",
        m.c_nljn, m.c_mgjn, m.c_hsjn, m.intercept
    );
    println!("C_m:C_n:C_h = {cm:.1}:{cn:.1}:{ch:.1} (paper serial 5:2:4, parallel 6:1:2)");
    if !online {
        return Ok(());
    }

    eprintln!(
        "replaying {} x{} rounds, {:.1}x drift at round {}...",
        w.name,
        spec.rounds,
        spec.tinst_scale,
        spec.rounds.max(2) / 2
    );
    let registry = cote_obs::Registry::new();
    let tracker = cote_obs::ResidualTracker::new(
        &registry,
        "cote_replay",
        cote_obs::ResidualConfig::default(),
    );
    let report = replay_online_drift(&w, &cote, &spec, &tracker)?;
    println!(
        "{:<11} {:>5} {:>13} {:>13}",
        "phase", "obs", "static MAPE", "online MAPE"
    );
    for (name, p) in [
        ("pre-drift", &report.pre),
        ("post-drift", &report.post),
        ("last round", &report.last_round),
    ] {
        println!(
            "{:<11} {:>5} {:>12.1}% {:>12.1}%",
            name, p.observations, p.static_mape, p.online_mape
        );
    }
    println!(
        "drift alarms {} | max score {:.2} | final score {:.2}",
        report.alarms, report.max_drift_score, report.final_drift_score
    );
    // The two lines the calib-smoke job greps for.
    println!("{}", report.summary_line());
    tracker.reset();
    if tracker.drift_score() == 0.0 && !tracker.drift_active() {
        println!("drift gauge reset to 0 on shutdown");
    }
    if !report.online_wins_post_drift() {
        return Err(CoteError::Calibration {
            reason: format!(
                "online recalibration did not beat the static fit post-drift \
                 (static {:.1}% vs online {:.1}%)",
                report.post.static_mape, report.post.online_mape
            ),
        });
    }
    Ok(())
}

/// `cote mop <workload> <secs-per-cost-unit>`
pub fn mop(args: &[String]) -> Result<()> {
    let (w, _) = parse(args)?;
    let unit: f64 =
        args.get(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CoteError::InvalidQuery {
                reason: "mop needs <secs-per-cost-unit>, e.g. 1e-6".into(),
            })?;
    let config = OptimizerConfig::high(w.mode);
    eprintln!("calibrating on {} (quick per-phase fit)...", w.name);
    let cote = quick_cote(&w, &config)?;
    let mop = MetaOptimizer::new(config, cote, unit);
    let mut high = 0;
    for q in &w.queries {
        let out = mop.choose(&w.catalog, q)?;
        let verdict = match out.choice {
            MopChoice::LowPlan => "keep greedy plan",
            MopChoice::HighPlan => {
                high += 1;
                "recompiled high"
            }
        };
        println!(
            "{:<12} E={:>10.4}s  C={:>9.4}s  → {verdict}",
            q.name, out.e_low_seconds, out.c_high_seconds
        );
    }
    println!(
        "{high}/{} queries reoptimized at the high level",
        w.queries.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_valid_and_rejects_invalid() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (w, idx) = parse(&args(&["real1-s"])).unwrap();
        assert_eq!(w.queries.len(), 8);
        assert!(idx.is_none());
        let (_, idx) = parse(&args(&["real1-s", "3"])).unwrap();
        assert_eq!(idx, Some(2));
        assert!(parse(&args(&[])).is_err());
        assert!(parse(&args(&["nope-s"])).is_err());
        assert!(parse(&args(&["real1-s", "0"])).is_err());
        assert!(parse(&args(&["real1-s", "9"])).is_err());
        assert!(parse(&args(&["real1-s", "x"])).is_err());
    }

    #[test]
    fn selected_expands_none_to_all() {
        let (w, _) = parse(&["real1-s".to_string()]).unwrap();
        assert_eq!(selected(&w, None).len(), 8);
        assert_eq!(selected(&w, Some(4)), vec![4]);
    }

    #[test]
    fn metrics_command_dumps_registry_and_trace() {
        let path = std::env::temp_dir().join("cote-cli-metrics-trace.jsonl");
        let args: Vec<String> = vec![
            "real1-s".into(),
            "1".into(),
            "--trace".into(),
            path.to_str().unwrap().into(),
        ];
        metrics(&args).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = cote_obs::parse_jsonl(&text).unwrap();
        assert!(
            events.iter().any(|e| e.phase == "estimate"),
            "expected an estimate span, got {events:?}"
        );
        let runs = cote_obs::global().counter("estimator_runs_total");
        assert!(runs.get() >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn estimate_sql_binds_against_tpch_and_rejects_bad_sql() {
        let args: Vec<String> = vec![
            "--sql".into(),
            "SELECT * FROM customer c, orders o WHERE c.custkey = o.custkey".into(),
        ];
        estimate(&args).unwrap();
        let bad: Vec<String> = vec!["--sql".into(), "SELECT * FROM nowhere".into()];
        let err = estimate(&bad).unwrap_err().to_string();
        assert!(err.contains("unknown table"), "{err}");
        assert!(err.contains('^'), "caret rendering: {err}");
        assert!(estimate(&["--sql".into()]).is_err());
        assert!(estimate(&["--sql-file".into(), "/no/such/file.sql".into()]).is_err());
    }

    #[test]
    fn quick_cote_calibrates() {
        let (w, _) = parse(&["real1-s".to_string()]).unwrap();
        let cfg = OptimizerConfig::high(cote_optimizer::Mode::Serial);
        let cote = quick_cote(&w, &cfg).unwrap();
        let e = cote.estimate(&w.catalog, &w.queries[0]).unwrap();
        assert!(e.seconds > 0.0);
    }
}
