//! The repo's one benchmark. `benchmark/run.sh` builds `cote` and this
//! binary and runs one workload; see `benchmark/README.md` for what each
//! workload and metric is for.
//!
//! Every run has the same shape, and the workload only sets the sizes: set
//! up (several times; the median is `setup_s`), closed-loop wire traffic
//! against a child `cote serve`, then statement sets compiled and estimated
//! in process. `compile_*` make the in-process part long and the traffic
//! short, `wire_*` the reverse, so that every end-to-end metric exists on
//! every workload.

mod compile;
mod json;
mod layers;
mod reference;
mod sqlgen;
mod stats;
mod trace;
mod wire;

use compile::Set;
use cote::TimeModel;
use cote_catalog::Catalog;
use cote_optimizer::Mode;
use json::Json;
use reference::Reference;
use sqlgen::{Sharing, Stmt};
use stats::{mean, median};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{Client, Server};

/// The metric lists: what this binary prints is checked against them.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Closed loop: a DBMS session waits for the estimate before it picks an
/// optimization level. One connection per client, no more clients than cores.
const CLIENTS: usize = 2;
const SETUP_REPEATS: usize = 3;
/// Long enough that ≥14 requests lie beyond a segment's p99: cold traffic
/// answers ~2,800 requests a second, hot traffic ~75,000.
const COLD_SEGMENT: Duration = Duration::from_millis(500);
const HOT_SEGMENT: Duration = Duration::from_millis(250);
/// Estimate passes at `compile::BASE_SECONDS`.
const ESTIMATE_PASSES: usize = 8;
/// The in-process side of `wire_*`: the 6- and 8-table statements of
/// `linear-s`, a fixed input whatever the seed.
const WIRE_SIDE_SET: (&str, usize, usize) = ("linear-s", 10, 3);
/// The traffic side of `compile_*`: this many segments of hot traffic.
const COMPILE_SIDE_SEGMENTS: usize = 32;

struct Spec {
    name: &'static str,
    mode: Mode,
    /// The long part is the in-process one.
    compile_heavy: bool,
    sharing: Sharing,
}

const SPECS: [Spec; 4] = [
    Spec {
        name: "compile_serial",
        mode: Mode::Serial,
        compile_heavy: true,
        sharing: Sharing::Hot,
    },
    Spec {
        name: "compile_parallel",
        mode: Mode::Parallel,
        compile_heavy: true,
        sharing: Sharing::Hot,
    },
    Spec {
        name: "wire_cold",
        mode: Mode::Serial,
        compile_heavy: false,
        sharing: Sharing::Cold,
    },
    Spec {
        name: "wire_hot",
        mode: Mode::Serial,
        compile_heavy: false,
        sharing: Sharing::Hot,
    },
];

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    cote_bin: PathBuf,
    results_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, compile::BASE_SECONDS, false);
    let (mut cote_bin, mut results_dir) = (
        PathBuf::from("target/release/cote"),
        PathBuf::from("benchmark/results"),
    );
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace`, `--trace 0`, `--trace 1`.
            trace = it
                .next_if(|v| v == "0" || v == "1")
                .is_none_or(|v| v == "1");
            continue;
        }
        if !flag.starts_with("--") && workload.is_none() {
            workload = Some(flag);
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "--seed needs a whole number")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds needs a number")?,
            "--cote-bin" => cote_bin = value.into(),
            "--results-dir" => results_dir = value.into(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    let workload = workload.ok_or_else(|| format!("missing --workload <{}>", names.join("|")))?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload '{workload}': one of {}", names.join(", ")))?;
    if seconds.is_nan() || seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
        cote_bin,
        results_dir,
    })
}

/// The inputs of a run.
struct Inputs {
    sets: Vec<Set>,
    model: TimeModel,
    /// The served workload, `linear-s` or `linear-p`, and its catalog.
    serve: String,
    catalog: Catalog,
    stmts: Vec<Stmt>,
}

/// Everything a run needs before it can time anything.
struct Setup {
    inputs: Inputs,
    server: Server,
    clients: Vec<Client>,
}

fn set_up(a: &Args) -> Result<Setup, String> {
    let spec = a.spec;
    let sets = if spec.compile_heavy {
        let plan: &[(&str, usize)] = if spec.mode == Mode::Serial {
            &compile::SERIAL_SETS
        } else {
            &compile::PARALLEL_SETS
        };
        plan.iter()
            .map(|&(n, r)| compile::load_set(n, compile::scaled(r, a.seconds), a.seed))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        let (name, head, repeats) = WIRE_SIDE_SET;
        let mut set = compile::load_set(name, compile::scaled(repeats, a.seconds), a.seed)?;
        set.queries.truncate(head);
        set.name = format!("{name}.head{head}");
        vec![set]
    };
    let model = compile::calibrate(spec.mode)?;
    let serve = if spec.mode == Mode::Serial {
        "linear-s"
    } else {
        "linear-p"
    }
    .to_string();
    let catalog = cote_workloads::by_name(&serve)
        .map_err(|e| e.to_string())?
        .catalog;
    let stmts = sqlgen::pool(spec.sharing, a.seed, &catalog, CLIENTS)?;
    let server = Server::spawn(&a.cote_bin, &["serve", &serve, "--listen", "127.0.0.1:0"])?;
    let mut clients = wire::connect_all(server.addr, CLIENTS)?;
    // Hot: every statement cached, four times over. Cold: the 4096-slot
    // cache filled, so that every measured insert also evicts.
    let per_client = match spec.sharing {
        Sharing::Hot => 4 * stmts.len() / CLIENTS,
        Sharing::Cold => 5120 / CLIENTS,
    };
    let warm = wire::warm_up(&mut clients, &stmts, per_client);
    if warm.failed > 0 {
        return Err(format!("warm-up: {}", warm.failure_report()));
    }
    let inputs = Inputs {
        sets,
        model,
        serve,
        catalog,
        stmts,
    };
    Ok(Setup {
        inputs,
        server,
        clients,
    })
}

/// Counters and one histogram of the server's `METRICS` dump.
struct ServerCounters {
    requests: f64,
    hits: f64,
    evictions: f64,
    shed: f64,
    errors: f64,
    queue_wait_ns: f64,
    queue_waits: f64,
}

fn server_counters(addr: std::net::SocketAddr) -> Result<ServerCounters, String> {
    let m = Client::connect(addr, 0, 1)?.metrics()?;
    let counter = |name: &str| {
        m.path(&["counters", name])
            .and_then(Json::num)
            .ok_or_else(|| format!("METRICS lacks {name}"))
    };
    let shed = ["queue_full", "inflight", "deadline", "expired"]
        .iter()
        .map(|k| counter(&format!("cote_service_shed_{k}_total")))
        .sum::<Result<f64, _>>()?;
    let wait = |k: &str| {
        m.path(&["histograms", "cote_service_queue_wait_seconds", k])
            .and_then(Json::num)
            .ok_or("METRICS lacks the queue-wait histogram")
    };
    Ok(ServerCounters {
        requests: counter("cote_service_requests_total")?,
        hits: counter("cote_service_cache_hits_total")?,
        evictions: counter("cote_service_cache_evictions_total")?,
        shed,
        errors: counter("cote_service_errors_total")?,
        queue_wait_ns: wait("sum_ns")?,
        queue_waits: wait("count")?,
    })
}

/// Name → value of everything measured; units come from `BENCHMARK.json`.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

struct Report {
    metrics: Metrics,
    /// How many samples stand behind the metrics, for the record.
    samples: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// What every part of a run writes to.
struct Run<'a> {
    a: &'a Args,
    m: Metrics,
    problems: Vec<String>,
    tracer: Tracer,
    reference: Reference,
}

fn run(a: &Args) -> Result<Report, String> {
    let spec = a.spec;
    let began = Instant::now();
    let mut r = Run {
        a,
        m: Metrics::default(),
        problems: Vec::new(),
        tracer: Tracer::new(a.trace),
        reference: Reference::new(),
    };

    // Set up several times and keep the last; `setup_s` is the median.
    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = setup.take() {
            drop(previous.clients);
            previous.server.quit()?;
        }
        let (seconds, _, made) = r.reference.price(|| set_up(a));
        setup = Some(made?);
        setup_s.push(seconds);
    }
    let Setup {
        inputs,
        server,
        mut clients,
    } = setup.expect("SETUP_REPEATS >= 1");
    r.m.put("setup_s", median(&setup_s));

    // Wire traffic, then the server is sent home.
    let hot = spec.sharing == Sharing::Hot;
    let segment = if hot { HOT_SEGMENT } else { COLD_SEGMENT };
    let segments = if spec.compile_heavy {
        COMPILE_SIDE_SEGMENTS
    } else {
        (a.seconds / segment.as_secs_f64()).round() as usize
    };
    let before = server_counters(server.addr)?;
    let traffic = wire::traffic(
        &mut clients,
        &inputs.stmts,
        segment,
        segments,
        &mut r.reference,
        &mut r.tracer,
    )?;
    let after = server_counters(server.addr)?;
    r.m.put("wire_req_per_s", traffic.req_per_s);
    r.m.put("wire_rtt_p50_us", traffic.rtt_p50_us);
    r.m.put("wire_rtt_p99_us", traffic.rtt_p99_us);
    if traffic.total.failed > 0 {
        r.problems.push(format!(
            "wire replies must be OK and name the in-process fingerprint: {}",
            traffic.total.failure_report()
        ));
    }
    let cached_pct = 100.0 * traffic.total.cached as f64 / traffic.total.ok.max(1) as f64;
    if hot && cached_pct < 99.9 {
        r.problems.push(format!(
            "hot traffic was {cached_pct:.3}% cached, below 99.9%"
        ));
    }
    if !hot && cached_pct > 2.0 {
        r.problems.push(format!(
            "cold traffic was {cached_pct:.3}% cached, above 2%"
        ));
    }
    if after.shed > before.shed || after.errors > before.errors {
        r.problems.push(format!(
            "server shed {} and failed {} requests",
            after.shed - before.shed,
            after.errors - before.errors
        ));
    }
    let mut trace_overhead = 0.0;
    if a.trace {
        if !spec.compile_heavy {
            trace_overhead = r.wire_trace_overhead(&mut clients, &inputs.stmts, segment)?;
        }
        // The threaded front-end serves four connections at a time: these
        // two make room for the probe's.
        clients.clear();
        r.wire_layers(&inputs, &server, &before, &after, &traffic)?;
    }
    let server_peak_mb = server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    drop(clients);
    if let Err(e) = server.quit() {
        r.problems.push(e);
    }

    // Statement sets compiled and estimated in process.
    let rss_before_mb = stats::proc_status_mb("self", "VmRSS:").unwrap_or(0.0);
    let (user0, sys0) = stats::cpu_seconds();
    let passes = compile::scaled(ESTIMATE_PASSES, a.seconds);
    let out = compile::run(
        &inputs.sets,
        spec.mode,
        &inputs.model,
        passes,
        &mut r.reference,
        &mut r.tracer,
    );
    let (user1, sys1) = stats::cpu_seconds();
    let self_peak_mb = stats::proc_status_mb("self", "VmHWM:").ok_or("cannot read VmHWM")?;
    r.problems.extend(out.problems.iter().cloned());
    r.m.put("compile_plans_per_s", out.compile_plans_per_s());
    r.m.put("estimate_stmts_per_s", out.estimate_stmts_per_s());
    let peak_mb = if spec.compile_heavy {
        self_peak_mb
    } else {
        server_peak_mb
    };
    r.m.put("peak_rss_mb", peak_mb);

    // Plan-count error is taken over in-tree statements only, so that it
    // does not move with the seed: a seeded `random-*` set is timed above,
    // and the in-tree one is compiled and estimated once here for its counts.
    let mut extra = None;
    if let Some(seeded) = out.sets.iter().find(|s| !s.in_tree) {
        let in_tree = compile::load_set(&seeded.name, 1, 42)?;
        let o = compile::run(
            &[in_tree],
            spec.mode,
            &inputs.model,
            1,
            &mut r.reference,
            &mut Tracer::new(false),
        );
        r.problems.extend(o.problems.iter().cloned());
        extra = Some(o);
    }
    let in_tree = out
        .sets
        .iter()
        .chain(extra.iter().flat_map(|o| &o.sets))
        .filter(|s| s.in_tree)
        .flat_map(|s| &s.stmts);
    let errors = compile::plan_count_errors(in_tree);
    r.m.put("plan_count_err_mean_pct", mean(&errors));
    let (extra_attempted, extra_failed) = extra.map_or((0, 0), |o| (o.attempted, o.failed));
    let attempted = out.attempted + extra_attempted + traffic.total.ok + traffic.total.failed;
    let failed = out.failed + extra_failed + traffic.total.failed;

    if a.trace {
        if spec.compile_heavy {
            trace_overhead = r.compile_trace_overhead(&inputs.sets, &inputs.model);
        }
        r.m.put("bench.trace_overhead_pct", trace_overhead);
        r.in_process_layers(&inputs, traffic.rtt_p50_us)?;
        compile_layers(
            &mut r.m,
            &out,
            &errors,
            (user1 - user0, sys1 - sys0),
            self_peak_mb - rss_before_mb,
        );
        r.m.put(
            "bench.reference_speed",
            r.reference.speed(began, Instant::now()),
        );
        let path = a.results_dir.join(format!("trace-{}.jsonl", spec.name));
        r.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("{} spans written to {}", r.tracer.len(), path.display());
    }
    let repeats: Vec<String> = inputs
        .sets
        .iter()
        .map(|s| format!("{}x{}", s.name, s.repeats))
        .collect();
    let samples = format!(
        "set-ups {SETUP_REPEATS}, segments {segments} of {segment:?} from {CLIENTS} clients, \
         estimate passes {passes}, compile repeats {}",
        repeats.join(" ")
    );
    Ok(Report {
        metrics: r.m,
        samples,
        attempted,
        failed,
        problems: r.problems,
    })
}

impl Run<'_> {
    /// `service.*`, `net.*` and `gateway.*`: the server's own counters over
    /// the measured traffic, then the front-end probe.
    fn wire_layers(
        &mut self,
        inputs: &Inputs,
        server: &Server,
        before: &ServerCounters,
        after: &ServerCounters,
        traffic: &wire::Traffic,
    ) -> Result<(), String> {
        let m = &mut self.m;
        let waits = (after.queue_waits - before.queue_waits).max(1.0);
        m.put(
            "service.queue_wait_us",
            (after.queue_wait_ns - before.queue_wait_ns) / waits / 1e3,
        );
        let requests = (after.requests - before.requests).max(1.0);
        m.put(
            "service.cache_hit_share",
            100.0 * (after.hits - before.hits) / requests,
        );
        m.put(
            "service.cache_evictions",
            after.evictions - before.evictions,
        );
        m.put("service.shed", after.shed - before.shed);
        m.put("service.failed", after.errors - before.errors);
        m.put("net.rtt_p999_us", traffic.rtt_p999_us);
        let fe = layers::probe_front_ends(
            &self.a.cote_bin,
            &inputs.serve,
            server,
            &inputs.stmts[..sqlgen::HOT_STATEMENTS],
            CLIENTS,
            &mut self.reference,
        )?;
        m.put("net.connect_us", fe.connect_us);
        m.put("net.threaded.rtt_p50_us", fe.threaded.rtt_p50_us());
        m.put("net.threaded.req_per_s", fe.threaded.req_per_s());
        m.put("net.event.rtt_p50_us", fe.event.rtt_p50_us());
        m.put("net.event.req_per_s", fe.event.req_per_s());
        m.put(
            "gateway.hop_p50_us",
            fe.gateway.rtt_p50_us() - fe.threaded.rtt_p50_us(),
        );
        m.put("gateway.req_per_s", fe.gateway.req_per_s());
        Ok(())
    }

    /// `sql.*`, `service.submit_*`, `net.wire_overhead_us` and the `core.*`
    /// probes: the request path and the estimator called in process.
    fn in_process_layers(&mut self, inputs: &Inputs, rtt_p50_us: f64) -> Result<(), String> {
        let spec = self.a.spec;
        // As many warm-up requests as the wire warm-up sent, then spans
        // around the next stretch.
        let (warm, n) = match spec.sharing {
            Sharing::Hot => (2 * inputs.stmts.len(), 4 * inputs.stmts.len()),
            Sharing::Cold => (0, 1024),
        };
        layers::replay_request_path(
            &inputs.stmts,
            &inputs.catalog,
            spec.mode,
            &inputs.model,
            CLIENTS,
            warm,
            n,
            &mut self.reference,
            &mut self.tracer,
        )?;
        let core = layers::probe_core(
            &inputs.sets,
            spec.mode,
            &inputs.model,
            &mut self.reference,
            &mut self.tracer,
        )?;
        let (m, tracer, reference) = (&mut self.m, &self.tracer, &self.reference);
        let mut sql_us = 0.0;
        for stage in ["parse", "bind", "fingerprint", "lower"] {
            let us = layers::span_median_us(tracer, &format!("sql.{stage}"), reference);
            m.put(format!("sql.{stage}_us"), us);
            sql_us += us;
        }
        let bytes: Vec<f64> = inputs.stmts.iter().map(|s| s.sql.len() as f64).collect();
        m.put("sql.stmt_bytes", mean(&bytes));
        let hit_us = layers::span_median_us(tracer, "service.submit.hit", reference);
        let miss_us = layers::span_median_us(tracer, "service.submit.miss", reference);
        m.put("service.submit_hit_us", hit_us);
        m.put("service.submit_miss_us", miss_us);
        // By construction: rtt_p50 = sql.* + submit + wire overhead.
        let submit_us = if spec.sharing == Sharing::Hot {
            hit_us
        } else {
            miss_us
        };
        m.put("net.wire_overhead_us", rtt_p50_us - sql_us - submit_us);
        m.put(
            "core.estimate_levels_us",
            layers::span_median_us(tracer, "core.estimate_levels", reference),
        );
        m.put("core.fingerprint_us", core.fingerprint_us);
        m.put("core.join_count_us", core.join_count_us);
        m.put("core.time_model_ns", core.time_model_ns);
        Ok(())
    }

    /// Traced against untraced rate of the same traffic, in turns.
    fn wire_trace_overhead(
        &mut self,
        clients: &mut [Client],
        stmts: &[Stmt],
        segment: Duration,
    ) -> Result<f64, String> {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for turn in 0..8 {
            let traced = turn % 2 == 0;
            let mut tracer = Tracer::new(traced);
            let t = wire::traffic(clients, stmts, segment, 1, &mut self.reference, &mut tracer)?;
            if traced { &mut on } else { &mut off }.push(t.req_per_s);
        }
        Ok(100.0 * (stats::steady_high(&off) / stats::steady_high(&on) - 1.0))
    }

    /// Traced against untraced wall of one pass over the smallest sets, in
    /// turns.
    fn compile_trace_overhead(&mut self, sets: &[Set], model: &TimeModel) -> f64 {
        let small: Vec<Set> = sets
            .iter()
            .filter(|s| s.repeats >= 6)
            .map(|s| Set {
                name: s.name.clone(),
                catalog: s.catalog.clone(),
                queries: s.queries.clone(),
                repeats: 1,
                in_tree: false,
            })
            .collect();
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for turn in 0..8 {
            let traced = turn % 2 == 0;
            let mut tracer = Tracer::new(traced);
            let out = compile::run(
                &small,
                self.a.spec.mode,
                model,
                1,
                &mut self.reference,
                &mut tracer,
            );
            if traced { &mut on } else { &mut off }.push(out.compile_wall_s);
        }
        100.0 * (stats::steady_low(&on) / stats::steady_low(&off) - 1.0)
    }
}

/// Optimizer and estimator rows read off the compile side's results.
fn compile_layers(
    m: &mut Metrics,
    out: &compile::Out,
    errors: &[f64],
    (user_s, sys_s): (f64, f64),
    rss_growth_mb: f64,
) {
    let n = out.stmts().count() as f64;
    let estimate_s: f64 = out.sets.iter().map(compile::SetOut::estimate_s).sum();
    let compile_s: f64 = out.sets.iter().map(compile::SetOut::compile_s).sum();
    let estimated: u64 = out.stmts().map(|s| s.estimated).sum();
    m.put("core.estimate_us", 1e6 * estimate_s / n);
    m.put("core.estimate_plans_per_s", estimated as f64 / estimate_s);
    m.put(
        "core.estimate_over_compile_pct",
        100.0 * estimate_s / compile_s,
    );
    let time_errors: Vec<f64> = out
        .stmts()
        .map(|s| {
            100.0 * (s.predicted_s - stats::steady_low(&s.compile_s)).abs()
                / stats::steady_low(&s.compile_s)
        })
        .collect();
    m.put("core.time_err_mean_pct", mean(&time_errors));
    m.put(
        "core.time_err_max_pct",
        time_errors.iter().fold(0.0, |a, &b| a.max(b)),
    );
    m.put(
        "core.plan_count_err_max_pct",
        errors.iter().fold(0.0, |a, &b| a.max(b)),
    );

    for name in compile::SERIAL_SETS
        .iter()
        .chain(&compile::PARALLEL_SETS)
        .map(|(n, _)| *n)
    {
        let set = out.sets.iter().find(|s| s.name == name);
        m.put(
            format!("optimizer.plans_per_s.{name}"),
            set.map_or(0.0, |s| s.plans() as f64 / s.compile_s()),
        );
        m.put(
            format!("optimizer.compile_s.{name}"),
            set.map_or(0.0, compile::SetOut::compile_s),
        );
    }
    for (phase, seconds) in out.phase_s {
        m.put(format!("optimizer.phase.{phase}_s"), seconds);
    }
    let phase_sum: f64 = out.phase_s.iter().map(|p| p.1).sum();
    m.put(
        "optimizer.phase.residual_pct",
        100.0 * (out.compile_wall_s - phase_sum) / out.compile_wall_s,
    );
    m.put(
        "optimizer.ns_per_plan",
        1e9 * out.compile_wall_s / out.all_plans as f64,
    );
    // Counts of one pass over the sets: they repeat exactly.
    let mut pass = cote_optimizer::CompileStats::default();
    for s in &out.sets {
        pass.add(&s.stats);
    }
    let generated = pass.plans_generated.total() as f64;
    m.put("optimizer.plans_generated", generated);
    m.put("optimizer.plans_kept", pass.plans_kept as f64);
    m.put(
        "optimizer.kept_share",
        100.0 * pass.plans_kept as f64 / generated,
    );
    m.put("optimizer.pairs_enumerated", pass.pairs_enumerated as f64);
    m.put("optimizer.memo_entries", pass.memo_entries as f64);
    let largest = out.stmts().map(|s| s.generated).max().unwrap_or(1) as f64;
    m.put(
        "optimizer.bytes_per_plan",
        rss_growth_mb.max(0.0) * 1024.0 * 1024.0 / largest,
    );
    m.put(
        "optimizer.sys_time_share",
        100.0 * sys_s / (user_s + sys_s).max(1e-9),
    );
}

/// The metrics `BENCHMARK.json` declares under `section`, with their units.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::str).unwrap_or_default().to_string();
    doc.get(section)
        .map_or(&[][..], Json::arr)
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cote-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cote-benchmark: {}: {e}", args.spec.name);
            return ExitCode::from(1);
        }
    };
    let mut problems = report.problems;
    println!(
        "workload {}  seed {}  seconds {}  trace {}",
        args.spec.name, args.seed, args.seconds, args.trace as u8
    );
    let units: BTreeMap<String, String> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .collect();
    for (name, value) in &report.metrics.0 {
        println!(
            "{name:<34} {value:>18.4} {}",
            units.get(name).map_or("", String::as_str)
        );
    }
    println!("samples: {}", report.samples);
    println!("attempted {}  failed {}", report.attempted, report.failed);
    // The last line: exactly the declared metrics of this mode.
    let mut fields = Vec::new();
    for (name, unit) in declared(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        match report.metrics.0.get(&name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )),
            Some(v) => problems.push(format!("metric {name} is {v}")),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &problems {
        eprintln!("cote-benchmark: {}: CHECK FAILED: {p}", args.spec.name);
    }
    let correct = problems.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
