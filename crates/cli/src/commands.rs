//! CLI subcommand implementations.

use cote::{calibrate_per_phase, forecast_workload, Cote, MetaOptimizer, MopChoice};
use cote_common::{CoteError, Result};
use cote_optimizer::{JoinMethod, Mode, Optimizer, OptimizerConfig};
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
  cote bench-par [--tables N] [--threads A,B,..] [--repeat R]
                                      intra-query parallel enumeration bench:
                                      optimize an N-table star (default 12)
                                      serially and at each thread count,
                                      verify identical plans/cost, report
                                      speedups
  cote bench-all [--json] [--repeat R] [--workloads A,B,..]
                 [--baseline FILE] [--gate-pct P]
                                      compile every workload (default: all
                                      serial ones) with the instrumented
                                      optimizer and report Fig 2/4-style
                                      per-phase times, plans/sec and the
                                      statement-cache hit-rate over a
                                      repeated statement stream; with
                                      --baseline, fail when any workload's
                                      plans/sec drops more than P percent
                                      (default 25) below the committed
                                      bench-all JSON

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
/// counters, statement-cache totals). `--trace FILE` additionally writes
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

/// `cote bench-par [--tables N] [--threads A,B,..] [--repeat R]` — optimize
/// one N-table star query serially and with intra-query parallel enumeration
/// at each requested thread count, check the results are identical, and
/// report wall-clock speedups. Honest numbers: on a single-core machine the
/// parallel runs will not be faster.
pub fn bench_par(args: &[String]) -> Result<()> {
    let mut tables = 12usize;
    let mut threads = vec![2usize, 4, 8];
    let mut repeat = 3usize;
    let mut it = args.iter();
    let bad = |flag: &str, v: &str| CoteError::InvalidQuery {
        reason: format!("{flag}: cannot parse '{v}'"),
    };
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().ok_or_else(|| CoteError::InvalidQuery {
                reason: format!("{flag} needs a value"),
            })
        };
        match a.as_str() {
            "--tables" => {
                let v = val("--tables")?;
                tables = v.parse().map_err(|_| bad("--tables", &v))?;
            }
            "--threads" => {
                let v = val("--threads")?;
                threads = v
                    .split(',')
                    .map(|s| s.trim().parse::<usize>().map_err(|_| bad("--threads", s)))
                    .collect::<Result<_>>()?;
            }
            "--repeat" => {
                let v = val("--repeat")?;
                repeat = v.parse::<usize>().map_err(|_| bad("--repeat", &v))?.max(1);
            }
            other => {
                return Err(CoteError::InvalidQuery {
                    reason: format!("bench-par: unknown flag '{other}'"),
                });
            }
        }
    }
    if tables < 2 {
        return Err(CoteError::InvalidQuery {
            reason: "--tables must be at least 2".into(),
        });
    }

    let (cat, q) = star_query(tables);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("bench-par: {tables}-table star, {repeat} repeats, {cores} cores available");

    let run = |nthreads: usize| -> Result<(f64, u64, u64, f64)> {
        let cfg = OptimizerConfig::high(Mode::Serial).with_enum_threads(nthreads);
        let optimizer = Optimizer::new(cfg);
        let mut best_secs = f64::INFINITY;
        let mut out = None;
        for _ in 0..repeat {
            let started = std::time::Instant::now();
            let r = optimizer.optimize_query(&cat, &q)?;
            best_secs = best_secs.min(started.elapsed().as_secs_f64());
            out = Some(r);
        }
        let r = out.expect("repeat >= 1");
        Ok((
            best_secs,
            r.stats.plans_generated.total(),
            r.stats.pairs_enumerated,
            r.best_cost(),
        ))
    };

    let (serial_secs, serial_plans, serial_pairs, serial_cost) = run(1)?;
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>9}",
        "threads", "time", "plans", "pairs", "speedup"
    );
    println!(
        "{:>7} {:>10.3}ms {:>12} {:>12} {:>9}",
        1,
        serial_secs * 1e3,
        serial_plans,
        serial_pairs,
        "1.00x"
    );
    for &t in &threads {
        let (secs, plans, pairs, cost) = run(t)?;
        if (plans, pairs) != (serial_plans, serial_pairs) || cost != serial_cost {
            return Err(CoteError::InvalidQuery {
                reason: format!(
                    "divergence at {t} threads: plans {plans} vs {serial_plans}, \
                     pairs {pairs} vs {serial_pairs}, cost {cost} vs {serial_cost}"
                ),
            });
        }
        println!(
            "{:>7} {:>10.3}ms {:>12} {:>12} {:>8.2}x",
            t,
            secs * 1e3,
            plans,
            pairs,
            serial_secs / secs
        );
    }
    println!("all thread counts produced identical plan counts and best cost");
    Ok(())
}

/// One workload's aggregated bench-all numbers.
struct WorkloadBench {
    name: String,
    queries: usize,
    /// Summed phase wall-clock, in the Figure 2/4 order: enumeration,
    /// NLJN, MGJN, HSJN, plan saving, other.
    phase_seconds: [f64; 6],
    elapsed_seconds: f64,
    plans_generated: u64,
    plans_kept: u64,
    pairs_enumerated: u64,
    memo_entries: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
}

/// Phase labels matching `WorkloadBench::phase_seconds`.
const PHASE_NAMES: [&str; 6] = ["enumeration", "nljn", "mgjn", "hsjn", "saving", "other"];

fn bench_workload(name: &str, repeat: usize) -> Result<WorkloadBench> {
    let w = by_name(name)?;
    let cfg = OptimizerConfig::high(w.mode);
    let runs = cote_bench::compile_workload(&w, &cfg, repeat)?;
    let mut b = WorkloadBench {
        name: name.to_string(),
        queries: w.queries.len(),
        phase_seconds: [0.0; 6],
        elapsed_seconds: 0.0,
        plans_generated: 0,
        plans_kept: 0,
        pairs_enumerated: 0,
        memo_entries: 0,
        cache_hits: 0,
        cache_misses: 0,
        cache_hit_rate: 0.0,
    };
    for r in &runs {
        let t = &r.stats.time;
        for (acc, d) in b.phase_seconds.iter_mut().zip([
            t.enumeration,
            t.nljn,
            t.mgjn,
            t.hsjn,
            t.saving,
            t.other,
        ]) {
            *acc += d.as_secs_f64();
        }
        b.elapsed_seconds += r.seconds;
        b.plans_generated += r.stats.plans_generated.total();
        b.plans_kept += r.stats.plans_kept;
        b.pairs_enumerated += r.stats.pairs_enumerated;
        b.memo_entries += r.stats.memo_entries;
    }
    // Statement-cache behavior over a stream that replays every statement
    // twice: first arrivals miss and are recorded, second arrivals should
    // all hit (structurally identical statements hit on the first pass).
    let mut cache = cote::StatementCache::new();
    for _ in 0..2 {
        for (q, r) in w.queries.iter().zip(&runs) {
            if cache.lookup(q).is_none() {
                cache.record(q, r.seconds);
            }
        }
    }
    let cs = cache.stats();
    b.cache_hits = cs.hits;
    b.cache_misses = cs.misses;
    b.cache_hit_rate = cache.hit_rate();
    Ok(b)
}

fn bench_all_json(rows: &[WorkloadBench], repeat: usize) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"bench-all\",\n");
    out.push_str(&format!("  \"repeat\": {repeat},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, b) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", b.name));
        out.push_str(&format!("      \"queries\": {},\n", b.queries));
        out.push_str(&format!(
            "      \"elapsed_seconds\": {:.6},\n",
            b.elapsed_seconds
        ));
        out.push_str("      \"phase_seconds\": {");
        for (j, (label, secs)) in PHASE_NAMES.iter().zip(b.phase_seconds).enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            out.push_str(&format!("{sep}\"{label}\": {secs:.6}"));
        }
        out.push_str("},\n");
        out.push_str(&format!(
            "      \"plans_generated\": {},\n",
            b.plans_generated
        ));
        out.push_str(&format!("      \"plans_kept\": {},\n", b.plans_kept));
        out.push_str(&format!(
            "      \"pairs_enumerated\": {},\n",
            b.pairs_enumerated
        ));
        out.push_str(&format!("      \"memo_entries\": {},\n", b.memo_entries));
        out.push_str(&format!(
            "      \"plans_per_second\": {:.1},\n",
            b.plans_generated as f64 / b.elapsed_seconds.max(1e-12)
        ));
        out.push_str(&format!(
            "      \"enumeration_plans_per_second\": {:.1},\n",
            b.plans_generated as f64 / b.phase_seconds[0].max(1e-12)
        ));
        out.push_str(&format!(
            "      \"cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}}\n",
            b.cache_hits, b.cache_misses, b.cache_hit_rate
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract `(workload name, plans_per_second)` pairs from a committed
/// bench-all JSON by line scanning — the fixed renderer layout (one field
/// per line) makes a full JSON parser unnecessary, and the CLI stays
/// dependency-free.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut name: Option<String> = None;
    for line in text.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            if let Some(end) = rest.find('"') {
                name = Some(rest[..end].to_string());
            }
        } else if let Some(rest) = t.strip_prefix("\"plans_per_second\": ") {
            if let (Some(n), Ok(v)) = (name.take(), rest.trim_end_matches(',').parse::<f64>()) {
                out.push((n, v));
            }
        }
    }
    out
}

/// The bench-all throughput regression gate: every measured workload that
/// also appears in the baseline must stay within `gate_pct` percent of the
/// baseline's `plans_per_second`. Workloads absent from the baseline pass
/// (new workloads don't block the gate).
fn gate_against_baseline(rows: &[WorkloadBench], baseline_path: &str, gate_pct: f64) -> Result<()> {
    let text = std::fs::read_to_string(baseline_path).map_err(|e| CoteError::InvalidQuery {
        reason: format!("--baseline {baseline_path}: {e}"),
    })?;
    let base = parse_baseline(&text);
    let mut failures = Vec::new();
    for b in rows {
        let Some(&(_, base_pps)) = base.iter().find(|(n, _)| *n == b.name) else {
            eprintln!("bench-all: gate skip {} (not in baseline)", b.name);
            continue;
        };
        let pps = b.plans_generated as f64 / b.elapsed_seconds.max(1e-12);
        let floor = base_pps * (1.0 - gate_pct / 100.0);
        if pps < floor {
            failures.push(format!(
                "{}: {pps:.0} plans/sec, more than {gate_pct}% below baseline {base_pps:.0}",
                b.name
            ));
        } else {
            eprintln!(
                "bench-all: gate ok {} ({pps:.0} plans/sec vs baseline {base_pps:.0})",
                b.name
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(CoteError::Calibration {
            reason: format!(
                "bench-all regression gate vs {baseline_path}: {}",
                failures.join("; ")
            ),
        })
    }
}

/// `cote bench-all [--json] [--repeat R] [--workloads A,B,..]
/// [--baseline FILE] [--gate-pct P]` — compile each workload with the
/// instrumented optimizer and aggregate the Figure 2/4 phase
/// decomposition, plan throughput, and the statement-cache hit-rate over a
/// stream replaying every statement twice. With `--baseline`, fail when
/// any workload's plans/sec regresses more than `--gate-pct` percent
/// (default 25) below the committed bench-all JSON.
pub fn bench_all(args: &[String]) -> Result<()> {
    let mut json = false;
    let mut repeat = 1usize;
    let mut baseline: Option<String> = None;
    let mut gate_pct = 25.0f64;
    let mut names: Vec<String> = ALL_WORKLOADS
        .iter()
        .filter(|n| n.ends_with("-s"))
        .map(|s| s.to_string())
        .collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next().cloned().ok_or_else(|| CoteError::InvalidQuery {
                reason: format!("{flag} needs a value"),
            })
        };
        match a.as_str() {
            "--json" => json = true,
            "--repeat" => {
                let v = val("--repeat")?;
                repeat = v
                    .parse::<usize>()
                    .map_err(|_| CoteError::InvalidQuery {
                        reason: format!("--repeat: cannot parse '{v}'"),
                    })?
                    .max(1);
            }
            "--workloads" => {
                names = val("--workloads")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            "--baseline" => baseline = Some(val("--baseline")?),
            "--gate-pct" => {
                let v = val("--gate-pct")?;
                gate_pct = v.parse::<f64>().map_err(|_| CoteError::InvalidQuery {
                    reason: format!("--gate-pct: cannot parse '{v}'"),
                })?;
            }
            other => {
                return Err(CoteError::InvalidQuery {
                    reason: format!("bench-all: unknown flag '{other}'"),
                });
            }
        }
    }
    let mut rows = Vec::with_capacity(names.len());
    for name in &names {
        eprintln!("bench-all: compiling {name} ({repeat} repeat(s))...");
        rows.push(bench_workload(name, repeat)?);
    }
    if json {
        print!("{}", bench_all_json(&rows, repeat));
        if let Some(path) = &baseline {
            gate_against_baseline(&rows, path, gate_pct)?;
        }
        return Ok(());
    }
    println!(
        "{:<10} {:>7} {:>11} {:>10} {:>12} {:>9}",
        "workload", "queries", "time", "plans", "plans/sec", "hit-rate"
    );
    for b in &rows {
        println!(
            "{:<10} {:>7} {:>9.3}ms {:>10} {:>12.1} {:>8.1}%",
            b.name,
            b.queries,
            b.elapsed_seconds * 1e3,
            b.plans_generated,
            b.plans_generated as f64 / b.elapsed_seconds.max(1e-12),
            100.0 * b.cache_hit_rate
        );
        let parts: Vec<String> = PHASE_NAMES
            .iter()
            .zip(b.phase_seconds)
            .map(|(l, s)| format!("{l} {:.3}ms", s * 1e3))
            .collect();
        println!("           {}", parts.join("  "));
    }
    if let Some(path) = &baseline {
        gate_against_baseline(&rows, path, gate_pct)?;
    }
    Ok(())
}

/// An n-table star: t0 is the hub, every satellite joins it on c0.
fn star_query(n: usize) -> (cote_catalog::Catalog, cote_query::Query) {
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    let mut b = cote_catalog::Catalog::builder();
    for i in 0..n {
        b.add_table(TableDef::new(
            format!("t{i}"),
            (1000 + 100 * i) as f64,
            vec![
                ColumnDef::uniform("c0", (1000 + 100 * i) as f64, 100.0),
                ColumnDef::uniform("c1", (1000 + 100 * i) as f64, 10.0),
            ],
        ));
    }
    let cat = b.build().expect("star catalog");
    let mut qb = cote_query::QueryBlockBuilder::new();
    for i in 0..n {
        qb.add_table(TableId(i as u32));
    }
    for i in 1..n {
        qb.join(
            ColRef::new(TableRef(0), 0),
            ColRef::new(TableRef(i as u8), 0),
        );
    }
    let block = qb.build(&cat).expect("star block");
    (cat, cote_query::Query::new("bench-par-star", block))
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
        // With spans compiled out the JSONL is empty but still parses.
        #[cfg(not(feature = "obs-off"))]
        assert!(
            events.iter().any(|e| e.phase == "estimate"),
            "expected an estimate span, got {events:?}"
        );
        let _ = events;
        let runs = cote_obs::global().counter("estimator_runs_total");
        assert!(runs.get() >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_par_small_star_agrees_across_thread_counts() {
        let args: Vec<String> = vec![
            "--tables".into(),
            "6".into(),
            "--threads".into(),
            "2,3".into(),
            "--repeat".into(),
            "1".into(),
        ];
        bench_par(&args).unwrap();
        assert!(bench_par(&["--tables".into(), "1".into()]).is_err());
        assert!(bench_par(&["--bogus".into()]).is_err());
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
    fn bench_all_aggregates_one_workload_into_json() {
        let rows = vec![bench_workload("real1-s", 1).unwrap()];
        let json = bench_all_json(&rows, 1);
        assert!(json.contains("\"name\": \"real1-s\""), "{json}");
        assert!(json.contains("\"plans_per_second\""), "{json}");
        assert!(json.contains("\"enumeration\""), "{json}");
        // The stream replays every statement twice: the second pass hits on
        // every lookup, so at least half the lookups are hits.
        assert!(rows[0].cache_hit_rate >= 0.5, "{}", rows[0].cache_hit_rate);
        assert!(rows[0].plans_generated > 0);
        assert!(rows[0].elapsed_seconds > 0.0);
        assert!(bench_all(&["--bogus".into()]).is_err());
        assert!(bench_all(&["--repeat".into(), "x".into()]).is_err());
        assert!(json.contains("\"enumeration_plans_per_second\""), "{json}");

        // The rendered JSON round-trips through the baseline scanner.
        let base = parse_baseline(&json);
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].0, "real1-s");
        assert!(base[0].1 > 0.0);

        // Gate: identical numbers pass, an inflated baseline fails, and a
        // workload missing from the baseline is skipped.
        let dir = std::env::temp_dir().join("cote_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let ok_path = dir.join("ok.json");
        std::fs::write(&ok_path, &json).unwrap();
        let ok_path = ok_path.to_string_lossy().into_owned();
        gate_against_baseline(&rows, &ok_path, 25.0).unwrap();
        let inflated = json.replace(
            &format!("\"plans_per_second\": {:.1}", {
                rows[0].plans_generated as f64 / rows[0].elapsed_seconds.max(1e-12)
            }),
            &format!("\"plans_per_second\": {:.1}", {
                100.0 * rows[0].plans_generated as f64 / rows[0].elapsed_seconds.max(1e-12)
            }),
        );
        let bad_path = dir.join("inflated.json");
        std::fs::write(&bad_path, inflated).unwrap();
        let err = gate_against_baseline(&rows, &bad_path.to_string_lossy(), 25.0)
            .unwrap_err()
            .to_string();
        assert!(err.contains("regression gate"), "{err}");
        let empty_path = dir.join("empty.json");
        std::fs::write(&empty_path, "{}\n").unwrap();
        gate_against_baseline(&rows, &empty_path.to_string_lossy(), 25.0).unwrap();
        assert!(gate_against_baseline(&rows, "/no/such/baseline.json", 25.0).is_err());
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
