//! Real plan generation: the mode COTE bypasses.
//!
//! For every join the enumerator produces, this visitor prices one plan per
//! (input plan, partition alternative) combination per join method with the
//! full histogram-walking cost model, and stores in the MEMO those that
//! survive property-aware pruning. The paper's key empirical facts live here:
//!
//! * each plan in an input list carries a distinct property value, so the
//!   number of NLJN plans per orientation tracks the input list length —
//!   what Table 3 estimates as `|list| + 1`;
//! * pruning keeps a cheaper *more general* plan and drops the subsumed one
//!   ("plan sharing", §5.2), which is why MGJN actuals undershoot estimates;
//! * retired partitions stay on plans (they are physical), which is why the
//!   estimator's separate retained lists undershoot in parallel mode (§3.4).
//!
//! Module invariants:
//!
//! 1. A plan is *priced* before it is built. Every insert site goes through
//!    [`RealPlanGen::offer`]: pilot check, then one dominance scan, on a
//!    borrowed [`Candidate`]; only a survivor gets a node and a `PlanProps`.
//! 2. Counters count plans priced (`plans_generated`, `scan_plans`,
//!    `sort_plans`, `move_plans`); the arena holds plans *stored* — survivors,
//!    the exchange/ship wrappers under them, eager MGJN-inner SORTs.
//! 3. A plan list is in insertion order of its survivors; ties in `cheapest`
//!    and `*_reps` go to the earlier plan. Plan ids carry no meaning.
//! 4. Cost arithmetic order is frozen: a deferred wrapper is priced and
//!    later built by the same [`moved`], input cost first (`a.plus(&b)`).
//! 5. `fork_level`/`absorb_level` keep worker order, so merged ids and list
//!    contents are identical at any thread count.
//! 6. Phase buckets come from `Stopwatch`, never from a span's return value.

use crate::cardinality::column_histogram;
use crate::context::OptContext;
use crate::cost::{
    self, broadcast_cost, hsjn_cost, index_scan, mgjn_cost, nljn_cost, repartition_cost, sort_cost,
    table_scan, Cost, JoinCostInput, StreamStats,
};
use crate::enumerator::{JoinSite, JoinVisitor};
use crate::instrument::{CompileStats, PhaseClock};
use crate::memo::{EntryId, MemoEntry, MemoStore};
use crate::par::ParallelJoinVisitor;
use crate::plan::{Candidate, PartStrategy, PlanArena, PlanId, PlanKind, PlanProps};
use crate::properties::order::{is_interesting, Ordering};
use crate::properties::partition::PartitionVal;
use crate::properties::JoinMethod;
use cote_catalog::EquiDepthHistogram;
use cote_common::{ColRef, TableRef, TableSet};
use cote_obs::{phase, Span, Stopwatch};
use cote_query::EqClasses;
use std::sync::Arc;

/// Per-entry payload of the real optimizer: the plan list.
#[derive(Debug, Default)]
pub struct PlanList {
    /// Non-dominated plans, each carrying a distinct useful property
    /// combination.
    pub plans: Vec<PlanId>,
    /// Concatenated row width of the entry's tables.
    pub row_bytes: f64,
}

/// The real plan-generating visitor.
pub struct RealPlanGen {
    /// Plan arena for this optimization run.
    pub arena: PlanArena,
    /// Instrumentation counters and timers.
    pub stats: CompileStats,
    /// Pilot-pass cost bound (§6.1), if enabled.
    pub pilot_bound: Option<f64>,
    /// While a parallel level runs: the frozen main arena the workers fork.
    level_base: Option<Arc<PlanArena>>,
    /// After a level merge: first provisional id of the workers' fork tails.
    level_fork_base: u32,
    /// After a level merge: per-worker id delta (see `PlanArena::absorb_locals`).
    level_deltas: Vec<u32>,
}

/// Everything extracted from the three MEMO entries of one oriented join
/// before any arena mutation (keeps borrows single-phase).
struct OrientedJoin {
    o_set: TableSet,
    i_set: TableSet,
    outer_plans: Vec<PlanId>,
    inner_plans: Vec<PlanId>,
    join_classes: Vec<u16>,
    /// `(outer requirement, inner requirement)` per distinct spanning class,
    /// in each input's own equivalences.
    mgjn_reqs: Vec<(Ordering, Ordering)>,
    j_eq: EqClasses,
    j_boundary: Vec<u16>,
    out_stats: StreamStats,
}

/// Data movement a join input can sit under.
#[derive(Debug, Clone, Copy)]
enum Move {
    Repartition,
    Broadcast,
    Ship,
}

/// A join input as priced: a stored plan and the movement it would sit
/// under — an exchange (chosen by `wire`), then a ship to the local engine
/// (the pushdown rule) — which exist only as `cost` until the join above
/// them survives ([`RealPlanGen::materialize`]).
#[derive(Debug, Clone, Copy)]
struct Input {
    plan: PlanId,
    exchange: Option<Move>,
    ship: bool,
    /// Cumulative cost, priced movement included.
    cost: Cost,
}

/// Cost of a stream after `mv`: the one copy of the wrappers' arithmetic.
fn moved(ctx: &OptContext<'_>, cost: &Cost, stats: &StreamStats, mv: Move) -> Cost {
    cost.plus(&match mv {
        Move::Repartition => repartition_cost(stats, ctx.nodes),
        Move::Broadcast => broadcast_cost(stats, ctx.nodes),
        Move::Ship => cost::ship_cost(stats),
    })
}

impl RealPlanGen {
    /// Fresh generator; `pilot_bound` enables §6.1 pruning.
    pub fn new(pilot_bound: Option<f64>) -> Self {
        Self {
            arena: PlanArena::new(),
            stats: CompileStats::default(),
            pilot_bound,
            level_base: None,
            level_fork_base: 0,
            level_deltas: Vec::new(),
        }
    }

    /// A worker clone plan-generating into `arena` (a fork of the level's
    /// frozen main arena).
    fn worker(&self, arena: PlanArena) -> Self {
        Self {
            arena,
            ..Self::new(self.pilot_bound)
        }
    }

    /// Offer a priced candidate to a plan list: pilot check (§6.1), then
    /// property-aware pruning ([`Candidate::dominates`]). Only a survivor is
    /// stored — `build` allocates its node (and whatever sits under it) —
    /// and pushed, evicting the plans it dominates. Returns true if kept.
    ///
    /// A list's first plan is exempt from pilot pruning — the bound is a
    /// heuristic and must never leave an entry (and hence possibly the
    /// root) without any plan.
    fn offer(
        &mut self,
        list: &mut Vec<PlanId>,
        cand: Candidate<'_>,
        build: impl FnOnce(&mut Self, PlanProps) -> PlanId,
    ) -> bool {
        debug_assert!(cand.total.is_finite(), "priced a non-finite plan");
        if !list.is_empty() && self.pilot_pruned(cand.total) {
            return false;
        }
        let arena = &self.arena;
        if list
            .iter()
            .any(|&q| Candidate::of(arena.node(q)).dominates(&cand))
        {
            return false;
        }
        let clock = Stopwatch::start();
        let span = Span::enter(phase::SAVE);
        list.retain(|&q| !cand.dominates(&Candidate::of(arena.node(q))));
        let id = build(self, cand.to_props());
        list.push(id);
        span.close();
        self.stats.time.saving += clock.elapsed();
        true
    }

    /// Discard plans above the pilot bound (§6.1). Returns true if pruned.
    fn pilot_pruned(&mut self, total: f64) -> bool {
        match self.pilot_bound {
            Some(bound) if total > bound => {
                self.stats.pruned_by_pilot += 1;
                true
            }
            _ => false,
        }
    }

    /// Cheapest plan of a non-empty list.
    fn cheapest(&self, list: &[PlanId]) -> PlanId {
        *list
            .iter()
            .min_by(|&&a, &&b| {
                self.arena
                    .node(a)
                    .total
                    .total_cmp(&self.arena.node(b).total)
            })
            .expect("plan lists are never empty")
    }

    /// One representative (cheapest) plan per distinct order value in a
    /// list, DC included.
    ///
    /// In parallel mode a plan list holds (order × partition) combinations;
    /// plan generation iterates order representatives and multiplies by the
    /// partition alternatives — the structure Table 3 models as
    /// `|order list| × |partition list|`.
    fn order_reps(&self, list: &[PlanId]) -> Vec<PlanId> {
        let mut reps: Vec<PlanId> = Vec::new();
        for &p in list {
            let np = self.arena.node(p);
            let key = (&np.props.order, np.props.applied_expensive);
            match reps.iter_mut().find(|r| {
                let nr = self.arena.node(**r);
                (&nr.props.order, nr.props.applied_expensive) == key
            }) {
                Some(r) => {
                    if self.arena.node(p).total < self.arena.node(*r).total {
                        *r = p;
                    }
                }
                None => reps.push(p),
            }
        }
        reps
    }

    /// One representative (cheapest) plan per distinct applied-expensive
    /// mask in a list (the inner-side counterpart of [`Self::order_reps`]).
    /// With no expensive predicates this is just the cheapest plan.
    fn mask_reps(&self, list: &[PlanId]) -> Vec<PlanId> {
        let mut reps: Vec<PlanId> = Vec::new();
        for &p in list {
            let mask = self.arena.node(p).props.applied_expensive;
            match reps
                .iter_mut()
                .find(|r| self.arena.node(**r).props.applied_expensive == mask)
            {
                Some(r) => {
                    if self.arena.node(p).total < self.arena.node(*r).total {
                        *r = p;
                    }
                }
                None => reps.push(p),
            }
        }
        reps
    }

    /// Cheapest plan satisfying an order requirement, if any.
    fn cheapest_satisfying(&self, list: &[PlanId], req: &Ordering) -> Option<PlanId> {
        list.iter()
            .copied()
            .filter(|&p| self.arena.node(p).props.order.satisfies(req))
            .min_by(|&a, &b| {
                self.arena
                    .node(a)
                    .total
                    .total_cmp(&self.arena.node(b).total)
            })
    }

    /// Price a SORT over `plan`.
    fn sort_priced(&mut self, ctx: &OptContext<'_>, plan: PlanId) -> Cost {
        let node = self.arena.node(plan);
        self.stats.sort_plans += 1;
        node.cost
            .plus(&sort_cost(&node.stats, ctx.config.sort_pages))
    }

    /// Wrap `plan` in a SORT producing `order` (stored at once: the MGJN
    /// inner it feeds is shared by every merge join of the orientation).
    fn sorted(&mut self, ctx: &OptContext<'_>, plan: PlanId, order: Ordering) -> PlanId {
        let cost = self.sort_priced(ctx, plan);
        let node = self.arena.node(plan);
        let props = PlanProps {
            order,
            partition: node.props.partition.clone(),
            pipelinable: false,
            applied_expensive: node.props.applied_expensive,
            site: node.props.site,
        };
        let stats = node.stats;
        self.arena
            .add(PlanKind::Sort { input: plan }, props, cost, stats)
    }

    /// Price `plan` as a join input under `exchange` (order-preserving merge
    /// receive: order, pipelining and mask pass through every movement).
    fn priced(&mut self, ctx: &OptContext<'_>, plan: PlanId, exchange: Option<Move>) -> Input {
        let node = self.arena.node(plan);
        let cost = match exchange {
            Some(mv) => {
                self.stats.move_plans += 1;
                moved(ctx, &node.cost, &node.stats, mv)
            }
            None => node.cost,
        };
        Input {
            plan,
            exchange,
            ship: false,
            cost,
        }
    }

    /// Store the movement nodes a surviving join's input was priced with —
    /// exchange to placement `pv`, then ship to the local engine (site 0) —
    /// and return the input's top node.
    fn materialize(
        &mut self,
        ctx: &OptContext<'_>,
        input: Input,
        pv: &Option<PartitionVal>,
    ) -> PlanId {
        let mut id = input.plan;
        let ship = input.ship.then_some(Move::Ship);
        for mv in input.exchange.into_iter().chain(ship) {
            let node = self.arena.node(id);
            let cost = moved(ctx, &node.cost, &node.stats, mv);
            let stats = node.stats;
            let mut props = node.props.clone();
            let kind = match mv {
                Move::Repartition => {
                    props.partition = pv.clone();
                    PlanKind::Repartition { input: id }
                }
                Move::Broadcast => {
                    props.partition = Some(PartitionVal::Replicated);
                    PlanKind::Broadcast { input: id }
                }
                Move::Ship => {
                    let from_source = props.site;
                    props.site = 0;
                    PlanKind::Ship {
                        input: id,
                        from_source,
                    }
                }
            };
            id = self.arena.add(kind, props, cost, stats);
        }
        debug_assert_eq!(
            self.arena.node(id).total.to_bits(),
            input.cost.total().to_bits(),
            "a wrapper was built at another cost than it was priced at"
        );
        id
    }

    /// Arrange data movement so the join executes under placement `pv`.
    /// Returns the priced outer and inner plus the strategy.
    fn wire(
        &mut self,
        ctx: &OptContext<'_>,
        outer_plan: PlanId,
        inner_plan: PlanId,
        pv: &Option<PartitionVal>,
        repart_both: bool,
        join_classes: &[u16],
    ) -> (Input, Input, PartStrategy) {
        let Some(pv) = pv else {
            let o = self.priced(ctx, outer_plan, None);
            let i = self.priced(ctx, inner_plan, None);
            return (o, i, PartStrategy::Colocated);
        };
        if repart_both {
            let o = self.priced(ctx, outer_plan, Some(Move::Repartition));
            let i = self.priced(ctx, inner_plan, Some(Move::Repartition));
            return (o, i, PartStrategy::RepartitionBoth);
        }
        // A mismatched outer synthesizes the (order, partition) combination
        // by exchanging.
        let outer_matches = self.arena.node(outer_plan).props.partition.as_ref() == Some(pv);
        let o = self.priced(
            ctx,
            outer_plan,
            (!outer_matches).then_some(Move::Repartition),
        );
        let inner_part = &self.arena.node(inner_plan).props.partition;
        let inner_matches =
            inner_part.as_ref() == Some(pv) || matches!(inner_part, Some(PartitionVal::Replicated));
        let (exchange, strategy) = if inner_matches {
            (None, PartStrategy::Colocated)
        } else if pv
            .key_cols()
            .is_some_and(|cols| cols.iter().all(|c| join_classes.contains(c)))
        {
            (Some(Move::Repartition), PartStrategy::RepartitionInner)
        } else {
            (Some(Move::Broadcast), PartStrategy::BroadcastInner)
        };
        (o, self.priced(ctx, inner_plan, exchange), strategy)
    }

    /// Wire, price and count one join plan of `oj` under the partition
    /// alternative `alt`, and offer it to the joined entry.
    #[allow(clippy::too_many_arguments)]
    fn emit_join<M: MemoStore<PlanList>>(
        &mut self,
        ctx: &OptContext<'_>,
        memo: &mut M,
        joined: EntryId,
        oj: &OrientedJoin,
        hists: (&EquiDepthHistogram, &EquiDepthHistogram),
        method: JoinMethod,
        outer_plan: PlanId,
        inner_plan: PlanId,
        order: Ordering,
        (pv, repart_both): &(Option<PartitionVal>, bool),
    ) {
        let (mut outer, mut inner, strategy) = self.wire(
            ctx,
            outer_plan,
            inner_plan,
            pv,
            *repart_both,
            &oj.join_classes,
        );
        let side = |n: &crate::plan::PlanNode| {
            (
                n.props.pipelinable,
                n.props.applied_expensive,
                n.props.site,
                n.stats,
            )
        };
        let (o_pipe, o_mask, o_site, o_stats) = side(self.arena.node(outer.plan));
        let (i_pipe, i_mask, i_site, i_stats) = side(self.arena.node(inner.plan));
        let mask = o_mask | i_mask;
        // Data-source pushdown (Table 1): a join of two subplans at the same
        // remote source executes there; differing sites ship to the local
        // engine first (a no-op for a side that is already local).
        let site = if o_site == i_site {
            o_site
        } else {
            for (input, from, stats) in [
                (&mut outer, o_site, &o_stats),
                (&mut inner, i_site, &i_stats),
            ] {
                if from != 0 {
                    self.stats.move_plans += 1;
                    input.ship = true;
                    input.cost = moved(ctx, &input.cost, stats, Move::Ship);
                }
            }
            0
        };
        // Applied expensive predicates shrink this plan's output relative to
        // the (mask-free) MEMO cardinality.
        let out_stats = if mask == 0 {
            oj.out_stats
        } else {
            StreamStats::of(
                oj.out_stats.rows * ctx.block.expensive_selectivity(mask),
                oj.out_stats.row_bytes,
            )
        };
        let input = JoinCostInput {
            outer: o_stats,
            inner: i_stats,
            outer_cost: outer.cost,
            inner_cost: inner.cost,
            outer_hist: hists.0,
            inner_hist: hists.1,
            buffer_pages: ctx.config.buffer_pages,
            out_rows: out_stats.rows,
        };
        let (c, pipelinable) = match method {
            JoinMethod::Nljn => (nljn_cost(&input), o_pipe),
            JoinMethod::Mgjn => (mgjn_cost(&input), o_pipe && i_pipe),
            JoinMethod::Hsjn => (hsjn_cost(&input), false),
        };
        *self.stats.plans_generated.get_mut(method) += 1;
        let cand = Candidate {
            total: c.total(),
            order: &order,
            partition: pv.as_ref(),
            pipelinable,
            applied_expensive: mask,
            site,
        };
        self.offer(&mut memo.payload_mut(joined).plans, cand, |gen, props| {
            let outer = gen.materialize(ctx, outer, pv);
            let inner = gen.materialize(ctx, inner, pv);
            let kind = PlanKind::Join {
                method,
                outer,
                inner,
                strategy,
            };
            gen.arena.add(kind, props, c, out_stats)
        });
    }

    /// Extract all inputs of one oriented join from the MEMO.
    fn extract<M: MemoStore<PlanList>>(
        &self,
        ctx: &OptContext<'_>,
        memo: &M,
        o_id: EntryId,
        i_id: EntryId,
        joined: EntryId,
        preds: &[usize],
    ) -> OrientedJoin {
        let o_entry = memo.entry(o_id);
        let i_entry = memo.entry(i_id);
        let j_entry = memo.entry(joined);
        let mut join_classes: Vec<u16> = Vec::new();
        for &pi in preds {
            let p = &ctx.block.join_preds()[pi];
            let c = j_entry.eq.find(ctx.block.col_id(p.left).expect("interned"));
            if !join_classes.contains(&c) {
                join_classes.push(c);
            }
        }
        let mut mgjn_reqs: Vec<(Ordering, Ordering)> = Vec::new();
        for &pi in preds {
            let p = &ctx.block.join_preds()[pi];
            if let Some((oc, ic)) = p.split(o_entry.set, i_entry.set) {
                let o_req = Ordering::seq(vec![o_entry
                    .eq
                    .find(ctx.block.col_id(oc).expect("interned"))]);
                let i_req = Ordering::seq(vec![i_entry
                    .eq
                    .find(ctx.block.col_id(ic).expect("interned"))]);
                if !mgjn_reqs.iter().any(|(o, _)| *o == o_req) {
                    mgjn_reqs.push((o_req, i_req));
                }
            }
        }
        OrientedJoin {
            o_set: o_entry.set,
            i_set: i_entry.set,
            outer_plans: o_entry.payload.plans.clone(),
            inner_plans: i_entry.payload.plans.clone(),
            join_classes,
            mgjn_reqs,
            j_eq: j_entry.eq.clone(),
            j_boundary: j_entry.boundary.to_vec(),
            out_stats: StreamStats::of(j_entry.cardinality, j_entry.payload.row_bytes),
        }
    }
}

/// Indexes of `t`'s table that are *applicable* to the block: their leading
/// key column carries a local predicate. Returns `(index, selectivity)`
/// pairs (selectivity of that predicate under the full model's histogram).
pub fn applicable_indexes(ctx: &OptContext<'_>, t: TableRef) -> Vec<(cote_common::IndexId, f64)> {
    let table_id = ctx.block.table(t);
    let table = ctx.catalog.table(table_id);
    let mut out = Vec::new();
    for (ix_id, ix) in ctx.catalog.indexes_on(table_id) {
        let Some(&lead) = ix.key_columns.first() else {
            continue;
        };
        let sel = ctx
            .block
            .local_preds_of(t)
            .filter(|p| p.column.column == lead)
            .map(|p| {
                let hist = &table.columns[lead as usize].histogram;
                match p.op {
                    cote_query::PredOp::Eq(v) => hist.selectivity_eq(v),
                    cote_query::PredOp::Le(v) => hist.selectivity_range(hist.min(), v),
                    cote_query::PredOp::Ge(v) => hist.selectivity_range(v, hist.max()),
                    cote_query::PredOp::Between(lo, hi) => hist.selectivity_range(lo, hi),
                    cote_query::PredOp::Opaque(s) => s,
                }
            })
            .fold(None::<f64>, |acc, s| Some(acc.map_or(s, |a| a * s)));
        if let Some(sel) = sel {
            out.push((ix_id, sel.clamp(0.0, 1.0)));
        }
    }
    out
}

/// Histograms backing a join's cost profile: the first spanning predicate's
/// columns, or the first column of each side's first table for Cartesian
/// products.
pub fn join_histograms<'c>(
    ctx: &'c OptContext<'_>,
    site_preds: &[usize],
    o_set: TableSet,
    i_set: TableSet,
) -> (&'c EquiDepthHistogram, &'c EquiDepthHistogram) {
    if let Some(&pi) = site_preds.first() {
        let p = &ctx.block.join_preds()[pi];
        if let Some((oc, ic)) = p.split(o_set, i_set) {
            return (column_histogram(ctx, oc), column_histogram(ctx, ic));
        }
    }
    let first_col = |s: TableSet| {
        let t = s.first().expect("nonempty side");
        column_histogram(ctx, ColRef::new(t, 0))
    };
    (first_col(o_set), first_col(i_set))
}

/// Effective order of a propagated stream in the joined entry:
/// re-canonicalized under the joined equivalences; retired orders collapse
/// to DC.
fn effective_order(
    ctx: &OptContext<'_>,
    order: &Ordering,
    j_eq: &EqClasses,
    j_boundary: &[u16],
) -> Ordering {
    let o = order.canon(j_eq);
    if is_interesting(&o, j_eq, j_boundary, &ctx.targets) {
        o
    } else {
        Ordering::dc()
    }
}

/// Partition alternatives for one orientation: the outer's distinct
/// canonical placements plus — when no input placement uses a join column
/// (the §4 heuristic test) — a new hash partition on the join columns.
/// The flag marks the heuristic value (repartition **both** sides).
fn partition_alternatives(
    arena: &PlanArena,
    outer_plans: &[PlanId],
    inner_plans: &[PlanId],
    joined_eq: &EqClasses,
    join_classes: &[u16],
) -> Vec<(Option<PartitionVal>, bool)> {
    let mut any_on_join_col = false;
    for &p in outer_plans.iter().chain(inner_plans.iter()) {
        if let Some(pv) = &arena.node(p).props.partition {
            let pv = pv.canon(joined_eq);
            if pv
                .key_cols()
                .is_some_and(|cols| cols.iter().any(|c| join_classes.contains(c)))
            {
                any_on_join_col = true;
            }
        }
    }
    let mut out: Vec<(Option<PartitionVal>, bool)> = Vec::new();
    for &p in outer_plans {
        if let Some(pv) = &arena.node(p).props.partition {
            let pv = pv.canon(joined_eq);
            if !out.iter().any(|(q, _)| q.as_ref() == Some(&pv)) {
                out.push((Some(pv), false));
            }
        }
    }
    if !any_on_join_col && !join_classes.is_empty() {
        let heuristic = PartitionVal::hash(join_classes.to_vec());
        if !out.iter().any(|(q, _)| q.as_ref() == Some(&heuristic)) {
            out.push((Some(heuristic), true));
        }
    }
    if out.is_empty() {
        out.push((None, false));
    }
    out
}

impl JoinVisitor for RealPlanGen {
    type Payload = PlanList;

    fn base_payload(
        &mut self,
        ctx: &OptContext<'_>,
        core: &MemoEntry<()>,
        t: TableRef,
    ) -> PlanList {
        let clock = PhaseClock::start(&self.stats);
        let span = Span::enter(phase::SCAN);
        let table = ctx.catalog.table(ctx.block.table(t));
        let row_bytes = table.avg_row_bytes();
        let out_stats = StreamStats::of(core.cardinality, row_bytes);
        let pipeline = ctx.tracks_pipeline();
        let natural_part = ctx.natural_parts[t.index()].clone();
        let site = ctx.catalog.source_of(ctx.block.table(t));

        let mut candidates = Vec::new();
        let mut list = PlanList {
            plans: Vec::new(),
            row_bytes,
        };

        // Heap scan: full I/O, DC order.
        let (scan_cost, _) = table_scan(table);
        let filter_cpu =
            ctx.block.local_preds_of(t).count() as f64 * table.row_count * cost::CPU_CMP;
        candidates.push((
            PlanKind::TableScan { table: t },
            Ordering::dc(),
            scan_cost.plus(&Cost {
                io: 0.0,
                cpu: filter_cpu,
                comm: 0.0,
            }),
        ));

        // Index scans: natural orders over the interned prefix of key columns.
        for (ix_id, ix) in ctx.catalog.indexes_on(ctx.block.table(t)) {
            let mut cols = Vec::new();
            for &k in &ix.key_columns {
                match ctx.block.col_id(ColRef::new(t, k)) {
                    Some(id) => cols.push(id),
                    None => break,
                }
            }
            let order = Ordering::seq(cols);
            let c = index_scan(table, core.cardinality, ix.clustered);
            candidates.push((
                PlanKind::IndexScan {
                    table: t,
                    index: ix_id,
                },
                order,
                c,
            ));
        }

        // Index ANDing (paper §3): when several indexes are *applicable*
        // (their leading key column carries a local predicate), one
        // RID-intersection plan is considered.
        let applicable = applicable_indexes(ctx, t);
        if applicable.len() >= 2 {
            let sels: Vec<f64> = applicable.iter().map(|&(_, s)| s).collect();
            let c = cost::index_and_cost(table, &sels, core.cardinality);
            candidates.push((
                PlanKind::IndexAnd {
                    table: t,
                    indexes: applicable.into_iter().map(|(id, _)| id).collect(),
                },
                Ordering::dc(),
                c,
            ));
        }

        // Expensive-predicate masks (Table 1's last row): each access path
        // is generated once with the table's expensive predicates applied at
        // the scan and once deferring them all — the two reachable per-table
        // mask choices under the scan-or-root policy.
        let exp_bits = ctx.block.expensive_bits_of(t);
        let masks: &[u16] = if exp_bits == 0 { &[0] } else { &[0, exp_bits] };
        let exp_sel = ctx.block.expensive_selectivity(exp_bits);
        let exp_cpu: f64 = ctx
            .block
            .expensive_preds()
            .iter()
            .filter(|p| p.column.table == t)
            .map(|p| p.cpu_per_row)
            .sum();

        for (kind, order, c) in candidates {
            let order = order.canon(&core.eq);
            let order = if is_interesting(&order, &core.eq, &core.boundary, &ctx.targets) {
                order
            } else {
                Ordering::dc()
            };
            for &mask in masks {
                let (c, stats) = if mask == 0 {
                    (c, out_stats)
                } else {
                    // Evaluate the UDFs on every scanned row, shrink output.
                    let applied = c.plus(&Cost {
                        io: 0.0,
                        cpu: core.cardinality * exp_cpu,
                        comm: 0.0,
                    });
                    (
                        applied,
                        StreamStats::of(core.cardinality * exp_sel, row_bytes),
                    )
                };
                let cand = Candidate {
                    total: c.total(),
                    order: &order,
                    partition: natural_part.as_ref(),
                    pipelinable: pipeline,
                    applied_expensive: mask,
                    site,
                };
                self.stats.scan_plans += 1;
                self.offer(&mut list.plans, cand, |gen, props| {
                    gen.arena.add(kind.clone(), props, c, stats)
                });
            }
        }
        span.close();
        self.stats.time.other += clock.stop(&self.stats);
        list
    }

    fn join_payload(&mut self, ctx: &OptContext<'_>, core: &MemoEntry<()>) -> PlanList {
        let row_bytes: f64 = core
            .set
            .iter()
            .map(|t| ctx.catalog.table(ctx.block.table(t)).avg_row_bytes())
            .sum();
        PlanList {
            plans: Vec::new(),
            row_bytes,
        }
    }

    fn on_join<M: MemoStore<PlanList>>(
        &mut self,
        ctx: &OptContext<'_>,
        memo: &mut M,
        site: &JoinSite,
    ) {
        let parallel = ctx.config.parallel();
        let methods = ctx.config.join_methods;

        for (o_id, i_id, ok) in [
            (site.a, site.b, site.a_outer_ok),
            (site.b, site.a, site.b_outer_ok),
        ] {
            if !ok {
                continue;
            }
            let oj = self.extract(ctx, memo, o_id, i_id, site.joined, &site.preds);
            if oj.outer_plans.is_empty() || oj.inner_plans.is_empty() {
                continue; // pilot pruning may have emptied an input
            }
            let hists = join_histograms(ctx, &site.preds, oj.o_set, oj.i_set);
            let pvs = if parallel {
                partition_alternatives(
                    &self.arena,
                    &oj.outer_plans,
                    &oj.inner_plans,
                    &oj.j_eq,
                    &oj.join_classes,
                )
            } else {
                vec![(None, false)]
            };
            let inner_cheapest = self.cheapest(&oj.inner_plans);
            let outer_reps = self.order_reps(&oj.outer_plans);
            let outer_mask_reps = self.mask_reps(&oj.outer_plans);
            let inner_mask_reps = self.mask_reps(&oj.inner_plans);

            // ---------------- NLJN ----------------
            if methods.nljn {
                let clock = PhaseClock::start(&self.stats);
                let mut span = Span::enter(phase::NLJN);
                let before = self.stats.plans_generated.nljn;
                // The DB2 oversight (§5.2): extra plans for subsumed orders.
                let redundant: Vec<(PlanId, Ordering)> = if ctx.config.redundant_nljn {
                    let mut extras = Vec::new();
                    for &p1 in &outer_reps {
                        for &p2 in &outer_reps {
                            if p1 == p2 {
                                continue;
                            }
                            let o1 = self.arena.node(p1).props.order.clone();
                            let o2 = self.arena.node(p2).props.order.clone();
                            if !o2.is_dc() && o2.subsumed_by(&o1) {
                                extras.push((p1, o2));
                            }
                        }
                    }
                    extras
                } else {
                    Vec::new()
                };
                for alt in &pvs {
                    for &outer_plan in &outer_reps {
                        for &inner_plan in &inner_mask_reps {
                            let raw = self.arena.node(outer_plan).props.order.clone();
                            let order = effective_order(ctx, &raw, &oj.j_eq, &oj.j_boundary);
                            self.emit_join(
                                ctx,
                                memo,
                                site.joined,
                                &oj,
                                hists,
                                JoinMethod::Nljn,
                                outer_plan,
                                inner_plan,
                                order,
                                alt,
                            );
                        }
                    }
                    for (p1, o2) in &redundant {
                        let order = effective_order(ctx, o2, &oj.j_eq, &oj.j_boundary);
                        self.emit_join(
                            ctx,
                            memo,
                            site.joined,
                            &oj,
                            hists,
                            JoinMethod::Nljn,
                            *p1,
                            inner_cheapest,
                            order,
                            alt,
                        );
                    }
                }
                span.record("plans", self.stats.plans_generated.nljn - before);
                span.close();
                self.stats.time.nljn += clock.stop(&self.stats);
            }

            // ---------------- MGJN ----------------
            if methods.mgjn && !oj.mgjn_reqs.is_empty() {
                let clock = PhaseClock::start(&self.stats);
                let mut span = Span::enter(phase::MGJN);
                let before = self.stats.plans_generated.mgjn;
                for (o_req, i_req) in &oj.mgjn_reqs {
                    // One suitably sorted inner per applied-expensive mask.
                    let inner_sorted: Vec<PlanId> = inner_mask_reps
                        .iter()
                        .map(|&rep| {
                            let rep_mask = self.arena.node(rep).props.applied_expensive;
                            let same_mask: Vec<PlanId> = oj
                                .inner_plans
                                .iter()
                                .copied()
                                .filter(|&p| self.arena.node(p).props.applied_expensive == rep_mask)
                                .collect();
                            match self.cheapest_satisfying(&same_mask, i_req) {
                                Some(p) => p,
                                None => self.sorted(ctx, rep, i_req.clone()),
                            }
                        })
                        .collect();
                    let satisfying: Vec<PlanId> = outer_reps
                        .iter()
                        .copied()
                        .filter(|&p| self.arena.node(p).props.order.satisfies(o_req))
                        .collect();
                    for alt in &pvs {
                        for &outer_plan in &satisfying {
                            for &inner_plan in &inner_sorted {
                                let raw = self.arena.node(outer_plan).props.order.clone();
                                let order = effective_order(ctx, &raw, &oj.j_eq, &oj.j_boundary);
                                self.emit_join(
                                    ctx,
                                    memo,
                                    site.joined,
                                    &oj,
                                    hists,
                                    JoinMethod::Mgjn,
                                    outer_plan,
                                    inner_plan,
                                    order,
                                    alt,
                                );
                            }
                        }
                    }
                }
                span.record("plans", self.stats.plans_generated.mgjn - before);
                span.close();
                self.stats.time.mgjn += clock.stop(&self.stats);
            }

            // ---------------- HSJN ----------------
            if methods.hsjn {
                let clock = PhaseClock::start(&self.stats);
                let mut span = Span::enter(phase::HSJN);
                let before = self.stats.plans_generated.hsjn;
                for alt in &pvs {
                    for &outer_plan in &outer_mask_reps {
                        for &inner_plan in &inner_mask_reps {
                            self.emit_join(
                                ctx,
                                memo,
                                site.joined,
                                &oj,
                                hists,
                                JoinMethod::Hsjn,
                                outer_plan,
                                inner_plan,
                                Ordering::dc(),
                                alt,
                            );
                        }
                    }
                }
                span.record("plans", self.stats.plans_generated.hsjn - before);
                span.close();
                self.stats.time.hsjn += clock.stop(&self.stats);
            }
        }
    }

    fn finish_entry<M: MemoStore<PlanList>>(
        &mut self,
        ctx: &OptContext<'_>,
        memo: &mut M,
        id: EntryId,
    ) {
        if !ctx.config.eager_orders {
            return;
        }
        let clock = PhaseClock::start(&self.stats);
        let span = Span::enter(phase::FINALIZE);
        // Eager enforcement (§4 item 1): force each applicable interesting
        // order that no kept plan provides.
        let set = memo.entry(id).set;
        let targets: Vec<Ordering> = if set.len() == 1 {
            let t = set.first().expect("nonempty");
            ctx.targets.table_targets(t).to_vec()
        } else {
            ctx.targets
                .multi_table
                .iter()
                .filter(|(tables, _)| tables.is_subset_of(set))
                .map(|(_, o)| o.clone())
                .collect()
        };
        for target in targets {
            let (target, satisfied, empty) = {
                let entry = memo.entry(id);
                let target = target.canon(entry.eq);
                if !is_interesting(&target, entry.eq, entry.boundary, &ctx.targets) {
                    continue;
                }
                let satisfied = entry
                    .payload
                    .plans
                    .iter()
                    .any(|&p| self.arena.node(p).props.order.satisfies(&target));
                (target, satisfied, entry.payload.plans.is_empty())
            };
            if satisfied || empty {
                continue;
            }
            let cheapest = self.cheapest(&memo.entry(id).payload.plans);
            let cost = self.sort_priced(ctx, cheapest);
            let node = self.arena.node(cheapest);
            let (partition, stats) = (node.props.partition.clone(), node.stats);
            let cand = Candidate {
                total: cost.total(),
                order: &target,
                partition: partition.as_ref(),
                pipelinable: false,
                applied_expensive: node.props.applied_expensive,
                site: node.props.site,
            };
            self.offer(&mut memo.payload_mut(id).plans, cand, |gen, props| {
                gen.arena
                    .add(PlanKind::Sort { input: cheapest }, props, cost, stats)
            });
        }
        span.close();
        self.stats.time.other += clock.stop(&self.stats);
    }
}

impl ParallelJoinVisitor for RealPlanGen {
    type Worker = RealPlanGen;

    fn fork_level(&mut self, workers: usize) -> Vec<RealPlanGen> {
        // Freeze the main arena for the duration of the level; every worker
        // forks it and allocates plan nodes above the shared prefix.
        let base = Arc::new(std::mem::take(&mut self.arena));
        let forks = (0..workers)
            .map(|_| self.worker(PlanArena::fork(&base)))
            .collect();
        self.level_base = Some(base);
        forks
    }

    fn absorb_level(&mut self, workers: Vec<RealPlanGen>) {
        let mut locals = Vec::with_capacity(workers.len());
        for w in workers {
            self.stats.add(&w.stats);
            locals.push(w.arena.into_local_nodes());
        }
        // All fork handles are dropped now; reclaim the frozen base.
        self.arena = Arc::try_unwrap(self.level_base.take().expect("level was forked"))
            .expect("workers dropped their arena handles");
        self.level_fork_base = self.arena.len() as u32;
        self.level_deltas = self.arena.absorb_locals(locals);
    }

    fn remap_payload(&mut self, worker: usize, payload: &mut PlanList) {
        let delta = self.level_deltas[worker];
        for p in &mut payload.plans {
            *p = p.remapped(self.level_fork_base, delta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::FullCardinality;
    use crate::config::{Mode, OptimizerConfig};
    use crate::enumerator::enumerate;
    use cote_catalog::{Catalog, ColumnDef, IndexDef, TableDef};
    use cote_common::TableId;
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            let t = b.add_table(TableDef::new(
                format!("t{i}"),
                1000.0 * (i as f64 + 1.0),
                vec![
                    ColumnDef::uniform("c0", 1000.0 * (i as f64 + 1.0), 500.0),
                    ColumnDef::uniform("c1", 1000.0 * (i as f64 + 1.0), 100.0),
                ],
            ));
            b.add_index(IndexDef::new(t, vec![0]).clustered());
        }
        b.build().unwrap()
    }

    /// Hash-partitioned tables on four nodes, no indexes.
    fn parallel_catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder_parallel(cote_catalog::NodeGroup::new(4));
        for i in 0..n {
            b.add_table(TableDef::new(
                format!("t{i}"),
                5000.0,
                vec![
                    ColumnDef::uniform("c0", 5000.0, 500.0),
                    ColumnDef::uniform("c1", 5000.0, 100.0),
                ],
            ));
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    fn chain(cat: &Catalog, n: usize, orderby: bool) -> cote_query::QueryBlock {
        let mut b = QueryBlockBuilder::new();
        for i in 0..n {
            b.add_table(TableId(i as u32));
        }
        for i in 0..n - 1 {
            b.join(col(i as u8, 0), col(i as u8 + 1, 0));
        }
        if orderby {
            b.order_by(vec![col(0, 1)]);
        }
        b.build(cat).unwrap()
    }

    fn optimize(
        cat: &Catalog,
        block: &cote_query::QueryBlock,
        cfg: &OptimizerConfig,
    ) -> (RealPlanGen, crate::enumerator::EnumOutcome<PlanList>) {
        let ctx = OptContext::new(cat, block, cfg);
        let mut gen = RealPlanGen::new(None);
        let out = enumerate(&ctx, &FullCardinality, &mut gen).expect("optimizes");
        (gen, out)
    }

    #[test]
    fn serial_hsjn_plans_equal_orientations() {
        // Fig. 5(c): HSJN propagates no order, so exactly one HSJN plan per
        // enumerated orientation in serial mode.
        let cat = catalog(4);
        let block = chain(&cat, 4, false);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let (gen, out) = optimize(&cat, &block, &cfg);
        assert_eq!(gen.stats.plans_generated.hsjn, out.joins);
        assert!(out.joins > 0);
    }

    #[test]
    fn every_entry_keeps_at_least_one_plan() {
        let cat = catalog(4);
        let block = chain(&cat, 4, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let (_gen, out) = optimize(&cat, &block, &cfg);
        for (_, e) in out.memo.iter() {
            assert!(!e.payload.plans.is_empty(), "entry {} has plans", e.set);
        }
    }

    #[test]
    fn orderby_increases_generated_plans() {
        // Figure 3's point: same join graph, more interesting orders ⇒ more
        // plans generated (12 → 15 in the paper's illustration).
        let cat = catalog(3);
        let plain = chain(&cat, 3, false);
        let ordered = chain(&cat, 3, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let (g1, o1) = optimize(&cat, &plain, &cfg);
        let (g2, o2) = optimize(&cat, &ordered, &cfg);
        assert_eq!(o1.pairs, o2.pairs, "same join graph, same joins");
        assert!(
            g2.stats.plans_generated.total() > g1.stats.plans_generated.total(),
            "ORDER BY must increase generated plans: {} vs {}",
            g2.stats.plans_generated.total(),
            g1.stats.plans_generated.total()
        );
    }

    #[test]
    fn pruning_keeps_lists_non_dominated() {
        let cat = catalog(4);
        let block = chain(&cat, 4, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let (gen, out) = optimize(&cat, &block, &cfg);
        for (_, e) in out.memo.iter() {
            let plans = &e.payload.plans;
            for (i, &p) in plans.iter().enumerate() {
                for (j, &q) in plans.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let (np, nq) = (gen.arena.node(p), gen.arena.node(q));
                    let dominates = nq.total <= np.total
                        && nq.props.order.satisfies(&np.props.order)
                        && nq.props.partition == np.props.partition
                        && (nq.props.pipelinable || !np.props.pipelinable);
                    assert!(!dominates, "list holds a dominated plan");
                }
            }
        }
    }

    #[test]
    fn eager_enforcers_materialize_interesting_orders() {
        let cat = catalog(3);
        let block = chain(&cat, 3, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let (gen, out) = optimize(&cat, &block, &cfg);
        // The single-table entry for t0 must offer its join-column order
        // (either an index scan or an enforcer).
        let e0 = out
            .memo
            .entry(out.memo.id_of(TableSet::singleton(TableRef(0))).unwrap());
        let jc = block.col_id(col(0, 0)).unwrap();
        let req = Ordering::seq(vec![jc]);
        assert!(
            e0.payload
                .plans
                .iter()
                .any(|&p| gen.arena.node(p).props.order.satisfies(&req)),
            "t0 offers an order on its join column"
        );
    }

    #[test]
    fn lazy_policy_generates_fewer_plans() {
        // §5.4 ablation precondition: the eager policy's enforcers feed
        // extra ordered plans into every join.
        let cat = catalog(4);
        let block = chain(&cat, 4, true);
        let eager = OptimizerConfig::high(Mode::Serial);
        let lazy = eager.clone().with_eager_orders(false);
        let (ge, _) = optimize(&cat, &block, &eager);
        let (gl, _) = optimize(&cat, &block, &lazy);
        assert!(
            ge.stats.plans_generated.total() >= gl.stats.plans_generated.total(),
            "eager ≥ lazy: {} vs {}",
            ge.stats.plans_generated.total(),
            gl.stats.plans_generated.total()
        );
    }

    #[test]
    fn parallel_mode_generates_more_plans_than_serial() {
        let pcat = parallel_catalog(3);
        let block = chain(&pcat, 3, false);
        let (gp, _) = optimize(&pcat, &block, &OptimizerConfig::high(Mode::Parallel));
        let (gs, _) = optimize(&pcat, &block, &OptimizerConfig::high(Mode::Serial));
        assert!(
            gp.stats.plans_generated.total() >= gs.stats.plans_generated.total(),
            "partition property multiplies plans: parallel={} serial={}",
            gp.stats.plans_generated.total(),
            gs.stats.plans_generated.total()
        );
        assert!(gp.stats.move_plans > 0, "exchanges were wired");
    }

    /// Compile a two-table chain, then replay its one join site under pilot
    /// bound `bound`: every replayed candidate is pruned, equals an incumbent
    /// (a cost tie: the incumbent stays) or loses to one, so nothing may be
    /// stored. Returns the stats before and after the replay.
    fn replay_root_join(
        cat: &Catalog,
        mode: Mode,
        bound: Option<f64>,
    ) -> (CompileStats, CompileStats) {
        let block = chain(cat, 2, true);
        let cfg = OptimizerConfig::high(mode);
        let ctx = OptContext::new(cat, &block, &cfg);
        let mut gen = RealPlanGen::new(None);
        let mut out = enumerate(&ctx, &FullCardinality, &mut gen).expect("optimizes");
        let entry = |t| out.memo.id_of(TableSet::singleton(TableRef(t))).unwrap();
        let site = JoinSite {
            a: entry(0),
            b: entry(1),
            joined: out.root,
            preds: [0].into_iter().collect(),
            a_outer_ok: true,
            b_outer_ok: true,
        };
        let (nodes, before) = (gen.arena.len(), gen.stats.clone());
        let kept = out.memo.entry(out.root).payload.plans.clone();
        gen.pilot_bound = bound;
        gen.on_join(&ctx, &mut out.memo, &site);
        // Only the MGJN inner's eager SORTs may be new nodes.
        assert_eq!(
            (gen.arena.len() - nodes) as u64,
            gen.stats.sort_plans - before.sort_plans,
            "{mode:?}: a loser, or an exchange priced under one, was allocated"
        );
        let root = out.memo.entry(out.root);
        assert_eq!(root.payload.plans, kept, "{mode:?}: an incumbent moved");
        (before, gen.stats)
    }

    #[test]
    fn a_losing_candidate_is_counted_but_never_stored() {
        for (cat, mode) in [
            (catalog(2), Mode::Serial),
            (parallel_catalog(2), Mode::Parallel),
        ] {
            let (before, after) = replay_root_join(&cat, mode, None);
            assert!(after.plans_generated.total() > before.plans_generated.total());
            assert_eq!(after.pruned_by_pilot, 0);
            if mode == Mode::Parallel {
                assert!(after.move_plans > before.move_plans, "exchanges priced");
            }
        }
    }

    #[test]
    fn a_pilot_pruned_candidate_allocates_nothing() {
        // A bound below every join plan: the root list is non-empty, so every
        // replayed candidate is pruned before its dominance test.
        let (before, after) = replay_root_join(&catalog(2), Mode::Serial, Some(0.0));
        let replayed = after.plans_generated.total() - before.plans_generated.total();
        assert!(replayed > 0);
        assert_eq!(after.pruned_by_pilot, replayed);
    }

    #[test]
    fn redundant_nljn_knob_generates_extras() {
        let cat = catalog(3);
        let block = chain(&cat, 3, true);
        let base = OptimizerConfig::high(Mode::Serial);
        let buggy = base.clone().with_redundant_nljn(true);
        let (g1, _) = optimize(&cat, &block, &base);
        let (g2, _) = optimize(&cat, &block, &buggy);
        assert!(
            g2.stats.plans_generated.nljn >= g1.stats.plans_generated.nljn,
            "the emulated oversight can only add plans"
        );
    }

    #[test]
    fn pilot_pass_prunes_but_preserves_the_optimum() {
        let cat = catalog(4);
        let block = chain(&cat, 4, false);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let ctx = OptContext::new(&cat, &block, &cfg);
        let mut free = RealPlanGen::new(None);
        let out = enumerate(&ctx, &FullCardinality, &mut free).unwrap();
        let best = out
            .memo
            .entry(out.root)
            .payload
            .plans
            .iter()
            .map(|&p| free.arena.node(p).total)
            .fold(f64::INFINITY, f64::min);
        let mut bounded = RealPlanGen::new(Some(best));
        let out2 = enumerate(&ctx, &FullCardinality, &mut bounded).unwrap();
        let best2 = out2
            .memo
            .entry(out2.root)
            .payload
            .plans
            .iter()
            .map(|&p| bounded.arena.node(p).total)
            .fold(f64::INFINITY, f64::min);
        assert!(bounded.stats.pruned_by_pilot > 0);
        assert!(
            (best2 - best).abs() <= best.abs() * 1e-9,
            "optimal plan survives the bound"
        );
    }
}
