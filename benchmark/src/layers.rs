//! Probes of single layers, run only with `--trace 1`: each calls a layer
//! through its public surface from inside a span, and the per-layer
//! metrics are read back from the spans.

use crate::compile::Set;
use crate::reference::Reference;
use crate::sqlgen::Stmt;
use crate::stats::{mean, median, steady_high, steady_low};
use crate::trace::{Tracer, NONE};
use crate::wire::{self, Client, Server};
use cote::{Cote, EstimateOptions, TimeModel};
use cote_catalog::Catalog;
use cote_optimizer::{Mode, OptimizerConfig};
use cote_query::Query;
use cote_service::{CoteService, Decision, QueryClass, ServiceConfig};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median duration of the spans called `name`, in reference µs; 0 when the workload
/// never entered that layer.
pub fn span_median_us(tracer: &Tracer, name: &str, reference: &Reference) -> f64 {
    let d = tracer.durations_us(name, reference);
    if d.is_empty() {
        0.0
    } else {
        median(&d)
    }
}

/// The request path `cote serve` runs for `ESTIMATE SQL`, replayed in
/// process on the wire statements with a span around every stage: parse →
/// bind → fingerprint → lower → `CoteService::submit`. As many threads as
/// the wire traffic has clients walk the statements the way the clients do,
/// because a lone submitter pays two idle-core wake-ups per miss that a
/// loaded server does not. Each thread sends `warm` requests without spans
/// (the wire warm-up's counterpart), then `n` with. After a miss the
/// estimator walk the worker just did is repeated under its own span,
/// `core.estimate_levels`, which the service hides from outside.
#[allow(clippy::too_many_arguments)]
pub fn replay_request_path(
    stmts: &[Stmt],
    catalog: &Catalog,
    mode: Mode,
    model: &TimeModel,
    threads: usize,
    warm: usize,
    n: usize,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let cfg = ServiceConfig::default();
    let config = OptimizerConfig::high(mode);
    let mut levels = cfg.advisor_levels.clone();
    levels.sort_unstable();
    levels.dedup();
    let walker = Cote::new(config.clone(), model.clone()).with_options(EstimateOptions {
        levels,
        ..Default::default()
    });
    let svc = CoteService::start(catalog.clone(), Cote::new(config, model.clone()), cfg);
    let (svc, walker) = (&svc, &walker);
    let walk = |thread: usize, tracer: &mut Tracer, clock: &mut Reference| -> Result<(), String> {
        let traced = tracer.on();
        for r in 0..warm + n {
            tracer.set_on(traced && r >= warm);
            clock.tick();
            let sql = &stmts[(thread + r * threads) % stmts.len()].sql;
            let id = (thread as u64) << 48 | r as u64;
            let root = tracer.start("request", NONE, id);
            let ast = tracer
                .span("sql.parse", root, id, || cote_sql::parse(sql))
                .map_err(|e| e.one_line(sql))?;
            let bound = tracer
                .span("sql.bind", root, id, || cote_sql::bind(&ast, catalog))
                .map_err(|e| e.one_line(sql))?;
            let fp = tracer.span("sql.fingerprint", root, id, || {
                cote_sql::ast_fingerprint(&bound)
            });
            let lowered = tracer
                .span("sql.lower", root, id, || {
                    cote_sql::lower(&bound, catalog, "sql")
                })
                .map_err(|e| e.one_line(sql))?;
            let query = Query::new(format!("sql-{fp:016x}"), lowered.root);
            let class = QueryClass::from_table_count(query.total_tables());
            let submit = tracer.start("service.submit", root, id);
            let response = svc.submit(&query, class);
            tracer.end(submit);
            tracer.end(root);
            match response.decision {
                Decision::Admitted { cached: true, .. } => {
                    tracer.rename(submit, "service.submit.hit")
                }
                Decision::Admitted { cached: false, .. } => {
                    tracer.rename(submit, "service.submit.miss");
                    tracer
                        .span("core.estimate_levels", NONE, id, || {
                            walker.estimate_levels(catalog, &query).map(black_box)
                        })
                        .map_err(|e| e.to_string())?;
                }
                other => {
                    return Err(format!(
                        "in-process submit of '{sql}' was not admitted: {other:?}"
                    ))
                }
            }
        }
        Ok(())
    };
    let results: Vec<(Result<(), String>, Tracer, Reference)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let mut fork = tracer.fork();
                s.spawn(move || {
                    let mut clock = Reference::new();
                    let result = walk(thread, &mut fork, &mut clock);
                    (result, fork, clock)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    for (result, fork, clock) in results {
        result?;
        tracer.absorb(fork);
        reference.absorb(clock);
    }
    Ok(())
}

/// Numbers of the estimator layer over the statements the compile side ran.
pub struct CoreProbe {
    pub fingerprint_us: f64,
    pub join_count_us: f64,
    pub time_model_ns: f64,
}

/// Three passes per statement, steady time of each, mean over statements.
pub fn probe_core(
    sets: &[Set],
    mode: Mode,
    model: &TimeModel,
    reference: &mut Reference,
    tracer: &mut Tracer,
) -> Result<CoreProbe, String> {
    const PASSES: usize = 3;
    const MODEL_CALLS: u32 = 1000;
    let config = OptimizerConfig::high(mode);
    let (mut fingerprint, mut join_count) = (Vec::new(), Vec::new());
    for set in sets {
        for (i, q) in set.queries.iter().enumerate() {
            let (mut f, mut j) = (Vec::new(), Vec::new());
            for _ in 0..PASSES {
                let (seconds, _, _) = reference.price(|| {
                    tracer.span("core.fingerprint", NONE, i as u64, || {
                        black_box(cote::fingerprint(black_box(q)))
                    })
                });
                f.push(seconds * 1e6);
                let (seconds, _, joins) = reference.price(|| {
                    tracer.span("core.count_joins", NONE, i as u64, || {
                        cote::count_joins(&set.catalog, q, &config)
                    })
                });
                joins.map_err(|e| format!("{}: count_joins: {e}", q.name))?;
                j.push(seconds * 1e6);
            }
            fingerprint.push(steady_low(&f));
            join_count.push(steady_low(&j));
        }
    }
    // One `predict_seconds` is a handful of multiplies: time a thousand.
    let counts = cote_optimizer::PerMethod {
        nljn: 1_000,
        mgjn: 2_000,
        hsjn: 500,
    };
    let (seconds, _, ()) = reference.price(|| {
        for _ in 0..MODEL_CALLS {
            black_box(model.predict_seconds(black_box(&counts)));
        }
    });
    let time_model_ns = seconds * 1e9 / MODEL_CALLS as f64;
    Ok(CoreProbe {
        fingerprint_us: mean(&fingerprint),
        join_count_us: mean(&join_count),
        time_model_ns,
    })
}

/// Hot traffic against one target: p50 round trip and rate, steady over the
/// target's turns.
#[derive(Default)]
pub struct TargetStats {
    rate: Vec<f64>,
    p50: Vec<f64>,
}

impl TargetStats {
    pub fn req_per_s(&self) -> f64 {
        steady_high(&self.rate)
    }

    pub fn rtt_p50_us(&self) -> f64 {
        steady_low(&self.p50)
    }
}

pub struct FrontEnds {
    pub threaded: TargetStats,
    pub event: TargetStats,
    pub gateway: TargetStats,
    pub connect_us: f64,
}

const TURNS: usize = 4;
const TURN: Duration = Duration::from_millis(500);

/// The same hot statements against the threaded front-end (the server
/// already running), a second `cote serve --event-loop`, and a `cote
/// gateway` in front of a third server, taking turns so that a noisy
/// stretch touches all three. The gateway gets a backend of its own because
/// a threaded server holds four connections at a time, and the gateway's
/// pooled connections and health probe would be the fifth and sixth.
pub fn probe_front_ends(
    cote_bin: &Path,
    serve: &str,
    threaded: &Server,
    hot: &[Stmt],
    clients: usize,
    reference: &mut Reference,
) -> Result<FrontEnds, String> {
    let began = Instant::now();
    let event = Server::spawn(
        cote_bin,
        &["serve", serve, "--listen", "127.0.0.1:0", "--event-loop"],
    )?;
    let backend = Server::spawn(cote_bin, &["serve", serve, "--listen", "127.0.0.1:0"])?;
    let gateway = Server::spawn(
        cote_bin,
        &[
            "gateway",
            "--backend",
            &backend.addr.to_string(),
            "--listen",
            "127.0.0.1:0",
        ],
    )?;
    let mut connect = Vec::new();
    let mut open = |addr| -> Result<(Vec<Client>, TargetStats), String> {
        let mut cs = wire::connect_all(addr, clients)?;
        connect.extend(cs.iter().map(|c| c.connect_us));
        let warm = wire::warm_up(&mut cs, hot, 2 * hot.len());
        if warm.failed > 0 {
            return Err(format!("warm-up against {addr}: {}", warm.failure_report()));
        }
        Ok((cs, TargetStats::default()))
    };
    let mut targets = [open(threaded.addr)?, open(event.addr)?, open(gateway.addr)?];
    let mut off = Tracer::new(false);
    for _ in 0..TURNS {
        for (cs, stats) in &mut targets {
            let t = wire::traffic(cs, hot, TURN, 1, reference, &mut off)?;
            if t.total.failed > 0 {
                return Err(format!("front-end probe: {}", t.total.failure_report()));
            }
            stats.rate.push(t.req_per_s);
            stats.p50.push(t.rtt_p50_us);
        }
    }
    // Further connects, for a steadier median than the first six.
    for _ in 0..14 {
        connect.push(Client::connect(threaded.addr, 0, 1)?.connect_us);
    }
    // Connections close here, before the children are asked to drain.
    let [threaded, event_stats, gateway_stats] = targets.map(|(_, stats)| stats);
    gateway.quit()?;
    backend.quit()?;
    event.quit()?;
    Ok(FrontEnds {
        threaded,
        event: event_stats,
        gateway: gateway_stats,
        connect_us: median(&connect) * reference.speed(began, Instant::now()),
    })
}
