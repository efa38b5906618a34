//! Compilation instrumentation: the "actual" series of every experiment.
//!
//! Counts generated plans per join method and buckets wall-clock time by
//! phase so the harness can print Fig. 2's breakdown and Fig. 4/5/6's
//! actuals. The buckets are filled from the never-compiled-out
//! [`Stopwatch`] ([`PhaseClock`] on the plangen paths) because they feed the
//! calibrated time model like `elapsed` does; the `cote-obs` spans beside
//! them only observe. Every finished block is [`publish`]ed to the global
//! metrics registry as `optimizer_*` counters.

use crate::properties::JoinMethod;
use cote_obs::{Counter, Stopwatch};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Per-join-method counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PerMethod {
    /// Nested-loops join plans.
    pub nljn: u64,
    /// Sort-merge join plans.
    pub mgjn: u64,
    /// Hash join plans.
    pub hsjn: u64,
}

impl PerMethod {
    /// Counter for one method.
    pub fn get(&self, m: JoinMethod) -> u64 {
        match m {
            JoinMethod::Nljn => self.nljn,
            JoinMethod::Mgjn => self.mgjn,
            JoinMethod::Hsjn => self.hsjn,
        }
    }

    /// Mutable counter for one method.
    pub fn get_mut(&mut self, m: JoinMethod) -> &mut u64 {
        match m {
            JoinMethod::Nljn => &mut self.nljn,
            JoinMethod::Mgjn => &mut self.mgjn,
            JoinMethod::Hsjn => &mut self.hsjn,
        }
    }

    /// Sum over methods.
    pub fn total(&self) -> u64 {
        self.nljn + self.mgjn + self.hsjn
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &PerMethod) {
        self.nljn += other.nljn;
        self.mgjn += other.mgjn;
        self.hsjn += other.hsjn;
    }
}

/// Wall-clock time per compilation phase (Fig. 2's categories).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    /// Join-enumeration skeleton (set algebra, entry bookkeeping).
    pub enumeration: Duration,
    /// Generating NLJN plans (costing included).
    pub nljn: Duration,
    /// Generating MGJN plans.
    pub mgjn: Duration,
    /// Generating HSJN plans.
    pub hsjn: Duration,
    /// Storing survivors ("plan saving"): allocating the node and the
    /// wrappers under it, evicting what it dominates, the list push. A
    /// loser is never stored; its dominance test is its method's time.
    pub saving: Duration,
    /// Access paths, enforcers, finalization ("other").
    pub other: Duration,
}

impl PhaseTimes {
    /// Per-method plan-generation bucket.
    pub fn method_mut(&mut self, m: JoinMethod) -> &mut Duration {
        match m {
            JoinMethod::Nljn => &mut self.nljn,
            JoinMethod::Mgjn => &mut self.mgjn,
            JoinMethod::Hsjn => &mut self.hsjn,
        }
    }

    /// Sum of all buckets.
    pub fn total(&self) -> Duration {
        self.enumeration + self.nljn + self.mgjn + self.hsjn + self.saving + self.other
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &PhaseTimes) {
        self.enumeration += other.enumeration;
        self.nljn += other.nljn;
        self.mgjn += other.mgjn;
        self.hsjn += other.hsjn;
        self.saving += other.saving;
        self.other += other.other;
    }
}

/// Functional clock over one stretch of work that belongs to a single
/// [`PhaseTimes`] bucket: the wall time since `start`, minus what the
/// survivor path charged to `saving` in between.
pub(crate) struct PhaseClock {
    started: Stopwatch,
    saving_at_start: Duration,
}

impl PhaseClock {
    pub(crate) fn start(stats: &CompileStats) -> Self {
        PhaseClock {
            started: Stopwatch::start(),
            saving_at_start: stats.time.saving,
        }
    }

    /// The stretch's own time; add it to its bucket.
    pub(crate) fn stop(self, stats: &CompileStats) -> Duration {
        self.started
            .elapsed()
            .saturating_sub(stats.time.saving - self.saving_at_start)
    }
}

/// Full statistics of one compilation (or one block).
#[derive(Debug, Default, Clone)]
pub struct CompileStats {
    /// Unordered join pairs enumerated (the Ono–Lohman join count).
    pub pairs_enumerated: u64,
    /// Ordered (outer, inner) orientations enumerated.
    pub joins_enumerated: u64,
    /// Join plans *generated* per method (the paper's central quantity).
    pub plans_generated: PerMethod,
    /// Access-path plans generated.
    pub scan_plans: u64,
    /// SORT enforcer plans generated.
    pub sort_plans: u64,
    /// Grouping plans generated (paper §3: "typically two group-by plans …
    /// for each aggregation").
    pub group_plans: u64,
    /// Exchange and ship wrappers priced (repartition/broadcast/ship); only
    /// those under a surviving join become nodes.
    pub move_plans: u64,
    /// Plans surviving in MEMO lists at the end.
    pub plans_kept: u64,
    /// Plan nodes stored in the arena at the end of the block (what §6.2's
    /// "actual" memory is made of; `plans_kept` is what it models).
    pub plan_nodes: u64,
    /// MEMO entries created.
    pub memo_entries: u64,
    /// Plans discarded by pilot-pass pruning (§6.1 ablation).
    pub pruned_by_pilot: u64,
    /// Phase time buckets.
    pub time: PhaseTimes,
    /// End-to-end wall clock of the compilation.
    pub elapsed: Duration,
}

impl CompileStats {
    /// Accumulate another block's stats (multi-block queries sum).
    pub fn add(&mut self, other: &CompileStats) {
        self.pairs_enumerated += other.pairs_enumerated;
        self.joins_enumerated += other.joins_enumerated;
        self.plans_generated.add(&other.plans_generated);
        self.scan_plans += other.scan_plans;
        self.sort_plans += other.sort_plans;
        self.group_plans += other.group_plans;
        self.move_plans += other.move_plans;
        self.plans_kept += other.plans_kept;
        self.plan_nodes += other.plan_nodes;
        self.memo_entries += other.memo_entries;
        self.pruned_by_pilot += other.pruned_by_pilot;
        self.time.add(&other.time);
        self.elapsed += other.elapsed;
    }

    /// Fraction of `elapsed` spent in a phase bucket (0 when too fast to
    /// measure).
    pub fn fraction(&self, bucket: Duration) -> f64 {
        let e = self.elapsed.as_secs_f64();
        if e <= 0.0 {
            0.0
        } else {
            bucket.as_secs_f64() / e
        }
    }
}

/// Global-registry handles for the per-block counter publication. Resolved
/// once; publishing is then a handful of relaxed atomic adds off the
/// enumerator hot path (one call per compiled block).
struct BlockCounters {
    blocks: Arc<Counter>,
    pairs: Arc<Counter>,
    joins: Arc<Counter>,
    plans_nljn: Arc<Counter>,
    plans_mgjn: Arc<Counter>,
    plans_hsjn: Arc<Counter>,
    scan_plans: Arc<Counter>,
    plans_kept: Arc<Counter>,
    plan_nodes: Arc<Counter>,
    memo_entries: Arc<Counter>,
    pruned_by_pilot: Arc<Counter>,
}

fn block_counters() -> &'static BlockCounters {
    static CELLS: OnceLock<BlockCounters> = OnceLock::new();
    CELLS.get_or_init(|| {
        let r = cote_obs::global();
        BlockCounters {
            blocks: r.counter_with_help("optimizer_blocks_total", "Query blocks compiled."),
            pairs: r.counter_with_help(
                "optimizer_pairs_enumerated_total",
                "MEMO entry pairs visited by the join enumerator.",
            ),
            joins: r.counter_with_help(
                "optimizer_joins_enumerated_total",
                "Feasible joins enumerated.",
            ),
            plans_nljn: r.counter_with_help(
                "optimizer_plans_nljn_total",
                "Nested-loop join plans generated.",
            ),
            plans_mgjn: r
                .counter_with_help("optimizer_plans_mgjn_total", "Merge join plans generated."),
            plans_hsjn: r
                .counter_with_help("optimizer_plans_hsjn_total", "Hash join plans generated."),
            scan_plans: r.counter_with_help(
                "optimizer_scan_plans_total",
                "Base-table scan plans generated.",
            ),
            plans_kept: r.counter_with_help(
                "optimizer_plans_kept_total",
                "Plans surviving dominance pruning into the MEMO.",
            ),
            plan_nodes: r.counter_with_help(
                "optimizer_plan_nodes_total",
                "Plan nodes stored in the arena (survivors, their wrappers, final operators).",
            ),
            memo_entries: r
                .counter_with_help("optimizer_memo_entries_total", "MEMO entries created."),
            pruned_by_pilot: r.counter_with_help(
                "optimizer_pruned_by_pilot_total",
                "Plans pruned by the pilot cost bound.",
            ),
        }
    })
}

/// Publish one finished block's counters to the global metrics registry
/// (surfaced by `cote metrics` and the Prometheus exposition).
pub fn publish(stats: &CompileStats) {
    let c = block_counters();
    c.blocks.inc();
    c.pairs.add(stats.pairs_enumerated);
    c.joins.add(stats.joins_enumerated);
    c.plans_nljn.add(stats.plans_generated.nljn);
    c.plans_mgjn.add(stats.plans_generated.mgjn);
    c.plans_hsjn.add(stats.plans_generated.hsjn);
    c.scan_plans.add(stats.scan_plans);
    c.plans_kept.add(stats.plans_kept);
    c.plan_nodes.add(stats.plan_nodes);
    c.memo_entries.add(stats.memo_entries);
    c.pruned_by_pilot.add(stats.pruned_by_pilot);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_accumulates_into_the_global_registry() {
        let pairs = cote_obs::global().counter("optimizer_pairs_enumerated_total");
        let before = pairs.get();
        publish(&CompileStats {
            pairs_enumerated: 3,
            ..Default::default()
        });
        // Other tests publish concurrently: assert at-least, never exact.
        assert!(pairs.get() >= before + 3);
    }

    #[test]
    fn per_method_accessors() {
        let mut p = PerMethod::default();
        *p.get_mut(JoinMethod::Mgjn) += 3;
        *p.get_mut(JoinMethod::Nljn) += 2;
        assert_eq!(p.get(JoinMethod::Mgjn), 3);
        assert_eq!(p.total(), 5);
        let mut q = PerMethod {
            nljn: 1,
            mgjn: 1,
            hsjn: 1,
        };
        q.add(&p);
        assert_eq!(q.total(), 8);
    }

    #[test]
    fn phase_times_accumulate() {
        let mut t = PhaseTimes::default();
        *t.method_mut(JoinMethod::Hsjn) += Duration::from_millis(5);
        t.saving += Duration::from_millis(2);
        assert_eq!(t.total(), Duration::from_millis(7));
        let mut u = PhaseTimes::default();
        u.add(&t);
        assert_eq!(u.hsjn, Duration::from_millis(5));
    }

    #[test]
    fn stats_add_and_fraction() {
        let mut a = CompileStats {
            pairs_enumerated: 2,
            elapsed: Duration::from_millis(10),
            ..Default::default()
        };
        let b = CompileStats {
            pairs_enumerated: 3,
            elapsed: Duration::from_millis(30),
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.pairs_enumerated, 5);
        assert_eq!(a.elapsed, Duration::from_millis(40));
        assert!((a.fraction(Duration::from_millis(10)) - 0.25).abs() < 1e-9);
        assert_eq!(
            CompileStats::default().fraction(Duration::from_millis(1)),
            0.0
        );
    }
}
