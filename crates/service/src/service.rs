//! The daemon: cache → admission → queue → worker pool → advice.
//!
//! [`CoteService`] owns one catalog, one calibrated [`Cote`], a sharded
//! statement cache, and `N` estimator worker threads behind a bounded MPMC
//! queue. [`CoteService::submit`] is synchronous from the caller's view —
//! cache hits return without touching the queue; misses are admitted (or
//! shed), estimated on a worker, cached, and answered through a per-request
//! channel. Every stage records into the lock-free [`Metrics`] registry.

use crate::admission::{Admission, AdmissionController};
use crate::advisor::{LevelAdvisor, LevelChoice};
use crate::cache::ShardedCache;
use crate::config::ServiceConfig;
use crate::metrics::Metrics;
use crate::queue::{BoundedQueue, PushError};
use crate::recal::Recalibrator;
use crate::request::{Decision, QueryClass, ServiceResponse, ShedReason};
use cote::{fingerprint, Cote};
use cote_catalog::Catalog;
use cote_common::failpoint::{self, FaultAction};
use cote_obs::{phase, Span, TraceEvent, TraceSink};
use cote_query::Query;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of work handed to the pool.
struct Job {
    query: Query,
    fingerprint: u64,
    class: QueryClass,
    enqueued: Instant,
    deadline: Duration,
    degraded: bool,
    reply: mpsc::Sender<Decision>,
}

/// State shared between the front door and the workers.
struct Inner {
    catalog: Catalog,
    advisor: LevelAdvisor,
    cache: ShardedCache,
    queue: BoundedQueue<Job>,
    admission: AdmissionController,
    metrics: Metrics,
    recal: Recalibrator,
    degrade_queue_depth: usize,
    /// Advisor decisions by label (`dp@10`, `greedy`, …). One short-lived
    /// lock per cache miss — not on the hit path.
    decisions: Mutex<BTreeMap<String, u64>>,
    /// Trace events drained from worker thread-locals (spans record into a
    /// per-thread buffer; workers flush here after each job so a front-end
    /// `--trace` sink sees every worker's spans).
    trace: TraceSink,
}

impl Inner {
    fn record_decision(&self, choice: &LevelChoice) {
        *self
            .decisions
            .lock()
            .unwrap()
            .entry(choice.label())
            .or_insert(0) += 1;
    }
}

/// The estimation-and-admission daemon.
pub struct CoteService {
    inner: Arc<Inner>,
    deadline: Duration,
    workers: Vec<JoinHandle<()>>,
}

impl CoteService {
    /// Start the daemon: spawns `cfg.workers` estimator threads bound to
    /// `catalog`, advising with `cote` (calibrated for the configured
    /// optimization level).
    pub fn start(catalog: Catalog, cote: Cote, cfg: ServiceConfig) -> Self {
        let workers = cfg.workers.max(1);
        let metrics = Metrics::default();
        let recal = Recalibrator::new(cote.model().clone(), cfg.recal.clone(), metrics.registry());
        let inner = Arc::new(Inner {
            advisor: LevelAdvisor::new(cote, &cfg),
            catalog,
            cache: ShardedCache::new(cfg.shards, cfg.cache_capacity),
            queue: BoundedQueue::new(cfg.queue_capacity),
            admission: AdmissionController::new(cfg.max_inflight, cfg.degrade_queue_depth, workers),
            metrics,
            recal,
            degrade_queue_depth: cfg.degrade_queue_depth,
            decisions: Mutex::new(BTreeMap::new()),
            trace: TraceSink::default(),
        });
        // Failpoint scope: workers inherit the constructing thread's label
        // so scoped faults can single out this service's tier.
        let scope = failpoint::thread_scope();
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let scope = scope.clone();
                std::thread::Builder::new()
                    .name(format!("cote-worker-{i}"))
                    .spawn(move || {
                        failpoint::set_thread_scope(&scope);
                        worker_loop(&inner)
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self {
            inner,
            deadline: cfg.deadline,
            workers: handles,
        }
    }

    /// Submit one query; blocks until a decision (cached advice, fresh
    /// advice, or shed) is available.
    pub fn submit(&self, query: &Query, class: QueryClass) -> ServiceResponse {
        let start = Instant::now();
        let inner = &*self.inner;
        inner.metrics.requests.inc();
        let fp = fingerprint(query);

        // Fast path: the sharded statement cache.
        if let Some(advice) = inner.cache.get(fp) {
            inner.metrics.cache_hits.inc();
            // The slow-estimation failpoint fires on cached answers too: it
            // models "this backend serves estimates slowly", and a hot
            // statement cache must not mask that — cache-hot chaos traffic
            // would otherwise never observe the site.
            if let Some(FaultAction::Delay(d)) = failpoint::hit(CHAOS_ESTIMATE_DELAY) {
                std::thread::sleep(d);
            }
            inner.metrics.completed.inc();
            let decision = Decision::Admitted {
                advice,
                cached: true,
            };
            let elapsed = start.elapsed();
            inner.metrics.e2e_latency.record(elapsed);
            return ServiceResponse { decision, elapsed };
        }
        inner.metrics.cache_misses.inc();

        // Admission: concurrency cap and deadline projection.
        let depth = inner.queue.len();
        let degraded = match inner.admission.admit(depth, self.deadline) {
            Admission::Shed(reason) => {
                match reason {
                    ShedReason::InflightLimit => inner.metrics.shed_inflight.inc(),
                    ShedReason::DeadlineProjected => inner.metrics.shed_deadline.inc(),
                    _ => {}
                }
                return self.respond_shed(start, reason);
            }
            Admission::AdmitDegraded => true,
            Admission::Admit => false,
        };

        // Hand off to the pool.
        let (tx, rx) = mpsc::channel();
        let job = Job {
            query: query.clone(),
            fingerprint: fp,
            class,
            enqueued: Instant::now(),
            deadline: self.deadline,
            degraded,
            reply: tx,
        };
        // Gauge before push: a worker may pop (and decrement) the instant
        // the push lands, so incrementing afterwards could transiently read
        // negative. This ordering keeps the gauge ≥ true depth and always
        // back to zero once the queue empties.
        inner.metrics.queue_depth.add(1);
        if let Err((_, e)) = inner.queue.try_push(job) {
            inner.metrics.queue_depth.add(-1);
            inner.admission.release();
            let reason = match e {
                PushError::Full => {
                    inner.metrics.shed_queue_full.inc();
                    ShedReason::QueueFull
                }
                PushError::Closed => ShedReason::Shutdown,
            };
            return self.respond_shed(start, reason);
        }

        // Workers always answer each accepted job; the timeout is a
        // last-resort guard against a panicked worker.
        let guard = self.deadline.saturating_mul(20).max(Duration::from_secs(5));
        let decision = rx.recv_timeout(guard).unwrap_or(Decision::Failed {
            error: "worker did not respond (panicked?)".into(),
        });
        let elapsed = start.elapsed();
        inner.metrics.e2e_latency.record(elapsed);
        ServiceResponse { decision, elapsed }
    }

    fn respond_shed(&self, start: Instant, reason: ShedReason) -> ServiceResponse {
        let elapsed = start.elapsed();
        self.inner.metrics.e2e_latency.record(elapsed);
        ServiceResponse {
            decision: Decision::Shed { reason },
            elapsed,
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The online-recalibration loop (model, drift score, error margin).
    pub fn recalibrator(&self) -> &Recalibrator {
        &self.inner.recal
    }

    /// Completion hook: report the *observed* compile time of a previously
    /// advised statement (its optimization just finished; `actual_seconds`
    /// is the optimizer's real elapsed self-time). The outcome is paired
    /// with the advice's estimated plan counts and fed to the online
    /// regressor and residual telemetry. Returns `false` when the statement
    /// is unknown (advice evicted or never produced) or was advised on the
    /// degraded path (no counts to learn from), or the report is
    /// non-positive/non-finite.
    pub fn report_outcome(&self, query: &Query, actual_seconds: f64) -> bool {
        self.report_outcome_by_fingerprint(fingerprint(query), actual_seconds)
    }

    /// [`report_outcome`](Self::report_outcome) keyed by the statement
    /// fingerprint (front-ends that already hold it skip re-hashing).
    pub fn report_outcome_by_fingerprint(&self, fp: u64, actual_seconds: f64) -> bool {
        if !actual_seconds.is_finite() || actual_seconds <= 0.0 {
            return false;
        }
        let Some(advice) = self.inner.cache.get(fp) else {
            return false;
        };
        if advice.degraded {
            return false;
        }
        let before = self.inner.recal.observations();
        self.inner
            .recal
            .observe(&advice.counts, advice.joins, actual_seconds);
        self.inner.recal.observations() > before
    }

    /// Drain the trace events workers have flushed so far (plus any from
    /// the calling thread). Returns `(events, dropped)` where `dropped`
    /// counts events lost to the sink cap since the last drain.
    pub fn take_trace_events(&self) -> (Vec<TraceEvent>, u64) {
        self.inner.trace.flush_thread();
        self.inner.trace.take()
    }

    /// The catalog this service estimates against (front-ends that accept
    /// SQL text bind statements against it before submitting).
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// The statement cache (for size/occupancy inspection).
    pub fn cache(&self) -> &ShardedCache {
        &self.inner.cache
    }

    /// Advisor decision counts by label, sorted.
    pub fn decision_counts(&self) -> Vec<(String, u64)> {
        self.inner
            .decisions
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Worker threads serving the queue.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently sitting in the worker queue.
    pub fn queue_len(&self) -> usize {
        self.inner.queue.len()
    }

    /// Requests queued or being estimated right now.
    pub fn inflight(&self) -> usize {
        self.inner.admission.inflight()
    }

    /// Wait (polling) until every accepted request has been answered —
    /// queue empty and nothing in flight — or `deadline` passes. Returns
    /// `true` when fully drained. Front-ends call this before dropping the
    /// service so a shutdown dump reflects a quiesced system; dropping
    /// without draining is still safe (workers answer queued jobs).
    pub fn drain(&self, deadline: Duration) -> bool {
        let give_up = Instant::now() + deadline;
        loop {
            if self.queue_len() == 0 && self.inflight() == 0 {
                return true;
            }
            if Instant::now() >= give_up {
                return self.queue_len() == 0 && self.inflight() == 0;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Full text report: metrics plus advisor decisions.
    pub fn report(&self) -> String {
        let mut out = self.inner.metrics.report();
        out.push_str(&format!(
            "cached statements   {:>10}  ({} shards)\n",
            self.inner.cache.len(),
            self.inner.cache.shard_count()
        ));
        out.push_str(&self.inner.recal.report_line());
        out.push_str("advisor decisions:\n");
        let decisions = self.decision_counts();
        if decisions.is_empty() {
            out.push_str("  (none)\n");
        }
        for (label, n) in decisions {
            out.push_str(&format!("  {label:<12} {n:>10}\n"));
        }
        out
    }
}

impl Drop for CoteService {
    fn drop(&mut self) {
        // Close the queue; workers drain accepted jobs, answer them, exit.
        self.inner.queue.close();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Failpoint: stall a worker after dequeue (`FaultAction::Delay`) — models
/// a wedged worker; the queue backs up behind it.
pub const CHAOS_QUEUE_STALL: &str = "svc.queue.stall";
/// Failpoint: stall estimation itself (`FaultAction::Delay`) — models a
/// slow backend; deadline shedding and admission must absorb it. Evaluated
/// on both the worker estimate path and the statement-cache fast path, so
/// it slows every served answer, cached or not.
pub const CHAOS_ESTIMATE_DELAY: &str = "svc.estimate.delay";

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        if let Some(FaultAction::Delay(d)) = failpoint::hit(CHAOS_QUEUE_STALL) {
            std::thread::sleep(d);
        }
        inner.metrics.queue_depth.add(-1);
        let wait = job.enqueued.elapsed();
        inner.metrics.queue_wait.record(wait);

        // Deadline-based load shedding at dequeue: estimating a request
        // whose caller has given up only adds to the backlog.
        if wait > job.deadline {
            inner.metrics.shed_expired.inc();
            let _ = job.reply.send(Decision::Shed {
                reason: ShedReason::DeadlineExpired,
            });
            inner.admission.release();
            continue;
        }

        // Graceful degradation may also trigger here: the queue can have
        // backed up after this job was admitted.
        let degraded = job.degraded || inner.queue.len() >= inner.degrade_queue_depth;

        let mut span = Span::enter(phase::SERVICE_ESTIMATE);
        span.record("degraded", degraded as u64);
        if let Some(FaultAction::Delay(d)) = failpoint::hit(CHAOS_ESTIMATE_DELAY) {
            std::thread::sleep(d);
        }
        let t0 = Instant::now();
        let outcome = if degraded {
            Ok(inner.advisor.advise_degraded())
        } else {
            // Price with the recalibrated model and fit with error bars
            // widened by the current drift score.
            inner.advisor.advise_with(
                &inner.catalog,
                &job.query,
                job.class,
                &inner.recal.model(),
                inner.recal.error_margin(),
            )
        };
        let service_time = t0.elapsed();
        span.close();
        inner.trace.flush_thread();
        inner.metrics.estimation_latency.record(service_time);
        inner.admission.observe_service(service_time);

        let decision = match outcome {
            Ok(advice) => {
                if advice.degraded {
                    inner.metrics.degraded.inc();
                }
                inner.record_decision(&advice.choice);
                if inner.cache.insert(job.fingerprint, advice.clone()) {
                    inner.metrics.cache_evictions.inc();
                }
                inner.metrics.completed.inc();
                Decision::Admitted {
                    advice,
                    cached: false,
                }
            }
            Err(e) => {
                inner.metrics.errors.inc();
                Decision::Failed {
                    error: e.to_string(),
                }
            }
        };
        let _ = job.reply.send(decision);
        inner.admission.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote::TimeModel;
    use cote_catalog::{ColumnDef, TableDef};
    use cote_common::{ColRef, TableId, TableRef};
    use cote_optimizer::{Mode, OptimizerConfig};
    use cote_query::QueryBlockBuilder;

    fn setup() -> (Catalog, Vec<Query>) {
        let mut b = Catalog::builder();
        for i in 0..6 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                1000.0 + 100.0 * i as f64,
                vec![
                    ColumnDef::uniform("c0", 1000.0, 1000.0),
                    ColumnDef::uniform("c1", 1000.0, 25.0),
                ],
            ));
        }
        let cat = b.build().unwrap();
        // Chain queries of 2..=6 tables, distinct structures.
        let queries = (2..=6)
            .map(|n| {
                let mut qb = QueryBlockBuilder::new();
                for i in 0..n {
                    qb.add_table(TableId(i));
                }
                for i in 0..n - 1 {
                    qb.join(
                        ColRef::new(TableRef(i as u8), 0),
                        ColRef::new(TableRef(i as u8 + 1), 0),
                    );
                }
                Query::new(format!("chain{n}"), qb.build(&cat).unwrap())
            })
            .collect();
        (cat, queries)
    }

    fn cote() -> Cote {
        Cote::new(
            OptimizerConfig::high(Mode::Serial),
            TimeModel {
                c_nljn: 1e-6,
                c_mgjn: 1e-6,
                c_hsjn: 1e-6,
                c_join: 0.0,
                intercept: 0.0,
            },
        )
    }

    fn small_cfg() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            shards: 4,
            cache_capacity: 64,
            queue_capacity: 64,
            max_inflight: 0,
            degrade_queue_depth: 64,
            deadline: Duration::from_secs(5),
            ..Default::default()
        }
    }

    #[test]
    fn miss_then_hit_same_advice() {
        let (cat, queries) = setup();
        let svc = CoteService::start(cat, cote(), small_cfg());
        let q = &queries[2];
        let first = svc.submit(q, QueryClass::Batch);
        let second = svc.submit(q, QueryClass::Batch);
        let (a1, c1) = match first.decision {
            Decision::Admitted { advice, cached } => (advice, cached),
            other => panic!("{other:?}"),
        };
        let (a2, c2) = match second.decision {
            Decision::Admitted { advice, cached } => (advice, cached),
            other => panic!("{other:?}"),
        };
        assert!(!c1 && c2, "first misses, second hits");
        assert_eq!(a1.levels, a2.levels, "cache returns the same estimates");
        assert_eq!(svc.metrics().cache_hits.get(), 1);
        assert_eq!(svc.metrics().cache_misses.get(), 1);
        assert!(svc.metrics().hit_rate() > 0.49);
        let report = svc.report();
        assert!(report.contains("advisor decisions"), "{report}");
    }

    #[test]
    fn every_query_gets_a_decision_and_metrics_add_up() {
        let (cat, queries) = setup();
        let svc = CoteService::start(cat, cote(), small_cfg());
        for q in &queries {
            for _ in 0..3 {
                let r = svc.submit(q, QueryClass::Reporting);
                assert!(r.is_admitted(), "{:?}", r.decision);
            }
        }
        let m = svc.metrics();
        assert_eq!(m.requests.get(), 15);
        assert_eq!(m.cache_misses.get(), 5, "one miss per distinct structure");
        assert_eq!(m.cache_hits.get(), 10);
        assert_eq!(m.completed.get(), 15);
        assert_eq!(m.estimation_latency.count(), 5);
        assert_eq!(svc.cache().len(), 5);
        let decided: u64 = svc.decision_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(decided, 5);
    }

    #[test]
    fn zero_deadline_sheds_everything_queued() {
        let (cat, queries) = setup();
        let cfg = ServiceConfig {
            deadline: Duration::ZERO,
            ..small_cfg()
        };
        let svc = CoteService::start(cat, cote(), cfg);
        // Wait is always > 0s, so workers shed every job at dequeue.
        let r = svc.submit(&queries[0], QueryClass::Interactive);
        match r.decision {
            Decision::Shed {
                reason: ShedReason::DeadlineExpired,
            } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(svc.metrics().shed_expired.get(), 1);
        assert_eq!(svc.metrics().shed_total(), 1);
    }

    #[test]
    fn queue_depth_gauge_returns_to_zero_on_every_path() {
        let (cat, queries) = setup();
        // Zero deadline: every queued job is shed at dequeue; tiny queue so
        // the queue-full path also fires under concurrent submitters.
        let cfg = ServiceConfig {
            deadline: Duration::ZERO,
            queue_capacity: 2,
            ..small_cfg()
        };
        let svc = CoteService::start(cat, cote(), cfg);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for q in &queries {
                        let _ = svc.submit(q, QueryClass::Interactive);
                    }
                });
            }
        });
        assert!(svc.drain(Duration::from_secs(5)), "drains after load");
        assert_eq!(svc.metrics().queue_depth.get(), 0, "gauge leaks");
        assert_eq!(svc.inflight(), 0);
        assert_eq!(svc.queue_len(), 0);
    }

    #[test]
    fn completion_hook_feeds_the_recalibrator() {
        let (cat, queries) = setup();
        let svc = CoteService::start(cat, cote(), small_cfg());
        let q = &queries[3];
        assert!(
            !svc.report_outcome(q, 0.01),
            "unknown statement: nothing to pair the outcome with"
        );
        let r = svc.submit(q, QueryClass::Batch);
        assert!(r.is_admitted());
        assert!(!svc.report_outcome(q, 0.0), "non-positive time rejected");
        assert!(svc.report_outcome(q, 0.01));
        assert_eq!(svc.recalibrator().observations(), 1);
        assert_eq!(
            svc.metrics()
                .registry()
                .counter("cote_service_recal_observations_total")
                .get(),
            1
        );
        let report = svc.report();
        assert!(report.contains("recal: 1 obs"), "{report}");
    }

    #[test]
    fn degraded_advice_is_not_learned_from() {
        let (cat, queries) = setup();
        let cfg = ServiceConfig {
            degrade_queue_depth: 0, // every admission degrades
            ..small_cfg()
        };
        let svc = CoteService::start(cat, cote(), cfg);
        let q = &queries[1];
        let r = svc.submit(q, QueryClass::Batch);
        assert!(r.is_admitted());
        assert!(!svc.report_outcome(q, 0.01), "no counts on the greedy path");
        assert_eq!(svc.recalibrator().observations(), 0);
    }

    #[test]
    fn recal_instruments_appear_on_the_service_exposition() {
        let (cat, _) = setup();
        let svc = CoteService::start(cat, cote(), small_cfg());
        let text = svc.metrics().prometheus_text();
        for name in [
            "cote_service_drift_score_milli",
            "cote_service_drift_active",
            "cote_service_advice_error_margin_milli",
            "cote_service_online_model_active",
            "cote_service_recal_observations_total",
        ] {
            assert!(text.contains(&format!("# HELP {name} ")), "{name}");
        }
    }

    #[test]
    fn shutdown_answers_queued_work() {
        let (cat, queries) = setup();
        let svc = CoteService::start(cat, cote(), small_cfg());
        let r = svc.submit(&queries[4], QueryClass::Batch);
        assert!(r.is_admitted());
        drop(svc); // must not hang or drop queued responses
    }

    /// Pins the two service-tier failpoints: `svc.queue.stall` on the
    /// worker dequeue path (uncached submit) and `svc.estimate.delay` on
    /// both the worker path and the statement-cache fast path.
    #[test]
    fn service_failpoints_stall_queued_and_cached_paths() {
        use cote_common::failpoint::FaultSpec;
        // The failpoint registry is process-global; scope these sites so
        // other tests in this binary (whose threads carry no scope) can
        // never fire or count them.
        const SCOPE: &str = "svc-chaos-test";
        let stall = Duration::from_millis(40);
        failpoint::arm(7);
        failpoint::configure(
            CHAOS_QUEUE_STALL,
            FaultSpec::first_n(FaultAction::Delay(stall), 1).scoped(SCOPE),
        );
        failpoint::configure(
            CHAOS_ESTIMATE_DELAY,
            FaultSpec::first_n(FaultAction::Delay(stall), 2).scoped(SCOPE),
        );
        failpoint::set_thread_scope(SCOPE);
        let (cat, queries) = setup();
        // Workers inherit this thread's scope at spawn.
        let svc = CoteService::start(cat, cote(), small_cfg());
        let q = &queries[0];

        // Miss: dequeue path — queue stall + estimate delay both fire.
        let miss = svc.submit(q, QueryClass::Batch);
        assert!(miss.is_admitted(), "{:?}", miss.decision);
        assert!(
            miss.elapsed >= stall * 2,
            "worker stalled: {:?}",
            miss.elapsed
        );

        // Hit: cache fast path — the remaining estimate-delay fire lands
        // on the submitting thread, no worker involved.
        let hit = svc.submit(q, QueryClass::Batch);
        assert!(hit.is_admitted(), "{:?}", hit.decision);
        assert!(hit.elapsed >= stall, "fast path stalled: {:?}", hit.elapsed);
        assert_eq!(svc.metrics().cache_hits.get(), 1);

        let fires = |site: &str| {
            failpoint::snapshot()
                .into_iter()
                .find(|s| s.site == site)
                .map(|s| s.fires)
                .unwrap_or(0)
        };
        assert_eq!(fires(CHAOS_QUEUE_STALL), 1);
        assert_eq!(fires(CHAOS_ESTIMATE_DELAY), 2);
        failpoint::set_thread_scope("");
        failpoint::disarm();
    }
}
