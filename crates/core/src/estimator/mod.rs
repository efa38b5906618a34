//! The plan estimator: Table 3's `initialize` / `accumulate_plans`,
//! implemented as a [`JoinVisitor`] over the *real* enumerator.
//!
//! Per enumerated orientation `(O outer, I inner)` the estimator charges
//! (paper §3.3, adjusted per §4 item 3 to outer-enabled inputs only):
//!
//! * NLJN (full propagation): `(|O.orders| + 1) × parts` — one plan per
//!   interesting order of the outer plus the DC plan;
//! * MGJN (partial): `Σ_c |{o ∈ O.orders : o satisfies [c]}| × parts` over
//!   the distinct spanning join-column classes `c` — the satisfying set *is*
//!   `listp ∪ listc` of Table 3 (orders leading with `c` subsume the bare
//!   `[c]` request: the coverage list);
//! * HSJN (none): `1 × parts`;
//!
//! where `parts` is the number of partition alternatives: the outer's
//! retained interesting partition values plus the §4 repartition heuristic
//! (a new hash partition on the join columns when no input value uses one),
//! floored at 1. In serial mode `parts = 1`.

pub mod lists;

use crate::options::EstimateOptions;
use cote_catalog::Catalog;
use cote_common::{ColRef, FxHashSet, Interner, PropSetId, Result, TableRef};
use cote_obs::{phase, Counter, Span};
use cote_optimizer::cardinality::SimpleCardinality;
use cote_optimizer::context::OptContext;
use cote_optimizer::enumerator::{enumerate, EnumOutcome, JoinSite, JoinVisitor};
use cote_optimizer::memo::{EntryId, MemoEntry, MemoStore};
use cote_optimizer::properties::order::{is_interesting, Ordering};
use cote_optimizer::properties::partition::{is_interesting_partition, PartitionVal};
use cote_optimizer::{OptimizerConfig, PerMethod};
use cote_query::{Query, QueryBlock};
use lists::{InternedLists, PropLists};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Estimated plan counts (and friends) for one query block.
#[derive(Debug, Clone, Default)]
pub struct BlockEstimate {
    /// Estimated generated join plans per method at the configured level.
    pub counts: PerMethod,
    /// Per-level counts when [`EstimateOptions::levels`] requested the
    /// single-pass multi-level estimate (§6.2); parallel to `levels`.
    pub level_counts: Vec<PerMethod>,
    /// Enumerated orientations each level admits, parallel to
    /// `level_counts`: the `J` that prices a level.
    pub level_joins: Vec<u64>,
    /// Counts produced by the compound-property alternative (§3.4), when
    /// enabled.
    pub compound_counts: Option<PerMethod>,
    /// Unordered join pairs enumerated.
    pub pairs: u64,
    /// Ordered orientations enumerated.
    pub joins: u64,
    /// MEMO entries created.
    pub memo_entries: u64,
    /// Total interesting property values stored (memory estimation, §6.2).
    pub property_values: u64,
    /// Estimated access-path (scan) plans — paper §3: "the number of index
    /// plans can be estimated by counting the set of applicable indexes".
    pub scan_plans: u64,
    /// Estimated SORT enforcer plans (eager policy).
    pub sort_plans: u64,
    /// Estimated grouping plans — "typically two group-by plans … for each
    /// aggregation".
    pub group_plans: u64,
    /// Interner hash probes issued while maintaining property lists.
    pub prop_probes: u64,
    /// Deep property comparisons actually performed (≤ one per probe —
    /// the interned-id layout's whole point).
    pub prop_compares: u64,
    /// Deep comparisons the pre-interning layout would have performed:
    /// every list insert re-compared the value against the retained list
    /// structurally, a latent O(n²) per MEMO entry.
    pub prop_naive_compares: u64,
}

impl BlockEstimate {
    fn add(&mut self, other: &BlockEstimate) {
        self.counts.add(&other.counts);
        if self.level_counts.len() < other.level_counts.len() {
            self.level_counts
                .resize(other.level_counts.len(), PerMethod::default());
        }
        for (a, b) in self.level_counts.iter_mut().zip(&other.level_counts) {
            a.add(b);
        }
        if self.level_joins.len() < other.level_joins.len() {
            self.level_joins.resize(other.level_joins.len(), 0);
        }
        for (a, b) in self.level_joins.iter_mut().zip(&other.level_joins) {
            *a += b;
        }
        if let Some(oc) = &other.compound_counts {
            self.compound_counts
                .get_or_insert_with(PerMethod::default)
                .add(oc);
        }
        self.pairs += other.pairs;
        self.joins += other.joins;
        self.memo_entries += other.memo_entries;
        self.property_values += other.property_values;
        self.scan_plans += other.scan_plans;
        self.sort_plans += other.sort_plans;
        self.group_plans += other.group_plans;
        self.prop_probes += other.prop_probes;
        self.prop_compares += other.prop_compares;
        self.prop_naive_compares += other.prop_naive_compares;
    }
}

/// Estimated plan counts for a whole query, plus the estimator's own cost.
#[derive(Debug, Clone, Default)]
pub struct QueryEstimate {
    /// Aggregate over all blocks.
    pub totals: BlockEstimate,
    /// Wall clock the estimation itself took (the Fig. 4 overhead).
    pub elapsed: Duration,
}

/// The Table 3 visitor.
struct PlanEstimator<'o> {
    opts: &'o EstimateOptions,
    /// Composite-inner limits to account, descending order not required;
    /// `levels[0]` is the configured level.
    levels: Vec<usize>,
    level_counts: Vec<PerMethod>,
    level_joins: Vec<u64>,
    compound_counts: PerMethod,
    propagated: FxHashSet<u32>,
    scan_est: u64,
    sort_est: u64,
    /// Hash-consing table for interesting order values: payload lists store
    /// [`PropSetId`]s resolved through here.
    orders_tab: Interner<Ordering>,
    /// Hash-consing table for interesting partition values.
    parts_tab: Interner<PartitionVal>,
    prop_probes: u64,
    prop_compares: u64,
    prop_naive_compares: u64,
}

impl<'o> PlanEstimator<'o> {
    fn new(opts: &'o EstimateOptions, config_limit: usize) -> Self {
        let mut levels = vec![config_limit];
        levels.extend(opts.levels.iter().copied().filter(|&l| l < config_limit));
        let n = levels.len();
        Self {
            opts,
            levels,
            level_counts: vec![PerMethod::default(); n],
            level_joins: vec![0; n],
            compound_counts: PerMethod::default(),
            propagated: FxHashSet::default(),
            scan_est: 0,
            sort_est: 0,
            orders_tab: Interner::new(),
            parts_tab: Interner::new(),
            prop_probes: 0,
            prop_compares: 0,
            prop_naive_compares: 0,
        }
    }

    /// Close the estimate `span` over a finished enumeration and fold the
    /// accumulated counts into the block's estimate.
    fn finish(
        self,
        mut span: Span,
        outcome: EnumOutcome<InternedLists>,
        block: &QueryBlock,
    ) -> BlockEstimate {
        let property_values: u64 = outcome
            .memo
            .iter()
            .map(|(_, e)| e.payload.value_count() as u64)
            .sum();
        // Per-level estimate markers (§6.2 piggyback), nested in the estimate
        // span; then the block-level plan/MEMO counts as span fields.
        for (&limit, counts) in self.levels.iter().zip(&self.level_counts) {
            let mut level = Span::enter(phase::ESTIMATE_LEVEL);
            level.record("limit", limit as u64);
            level.record("plans", counts.total());
            level.close();
        }
        span.record("pairs", outcome.pairs);
        span.record("joins", outcome.joins);
        span.record("memo_entries", outcome.memo.len() as u64);
        span.record("plans", self.level_counts[0].total());
        span.record("property_values", property_values);
        span.close();
        BlockEstimate {
            counts: self.level_counts[0],
            level_counts: self.level_counts,
            level_joins: self.level_joins,
            compound_counts: self
                .opts
                .compound_properties
                .then_some(self.compound_counts),
            pairs: outcome.pairs,
            joins: outcome.joins,
            memo_entries: outcome.memo.len() as u64,
            property_values,
            scan_plans: self.scan_est,
            sort_plans: self.sort_est,
            // §3: one sort-based + one hash-based grouping plan per aggregation.
            group_plans: if block.group_by().is_empty() { 0 } else { 2 },
            prop_probes: self.prop_probes,
            prop_compares: self.prop_compares,
            prop_naive_compares: self.prop_naive_compares,
        }
    }

    /// Charge `amount` plans of a method for an orientation whose inner has
    /// `inner_len` tables, to every level whose limit admits it (§6.2
    /// piggyback: the top level's search space subsumes the lower ones').
    fn charge(&mut self, method: cote_optimizer::JoinMethod, amount: u64, inner_len: usize) {
        for (i, &limit) in self.levels.iter().enumerate() {
            if inner_len <= limit {
                *self.level_counts[i].get_mut(method) += amount;
            }
        }
    }

    /// Charge one orientation whose inner has `inner_len` tables to every
    /// level whose limit admits it, like [`charge`](Self::charge).
    fn charge_join(&mut self, inner_len: usize) {
        for (joins, &limit) in self.level_joins.iter_mut().zip(&self.levels) {
            if inner_len <= limit {
                *joins += 1;
            }
        }
    }

    /// Intern an order value, accounting the probe (one hash lookup, at
    /// most one deep comparison).
    fn intern_order(&mut self, o: Ordering) -> PropSetId {
        self.prop_probes += 1;
        self.prop_compares += 1;
        self.orders_tab.intern_owned(o)
    }

    /// Intern a partition value, accounting the probe.
    fn intern_part(&mut self, p: PartitionVal) -> PropSetId {
        self.prop_probes += 1;
        self.prop_compares += 1;
        self.parts_tab.intern_owned(p)
    }

    /// Add an order to `lists` unless equivalent (DC never stored).
    /// Returns true if added.
    fn push_order(&mut self, lists: &mut InternedLists, o: Ordering) -> bool {
        if o.is_dc() {
            return false;
        }
        let id = self.intern_order(o);
        let (added, scanned) = lists.add_order_id(id);
        self.prop_naive_compares += scanned as u64;
        added
    }

    /// Add a partition value to `lists` unless present.
    fn push_partition(&mut self, lists: &mut InternedLists, p: PartitionVal) -> bool {
        let id = self.intern_part(p);
        let (added, scanned) = lists.add_partition_id(id);
        self.prop_naive_compares += scanned as u64;
        added
    }

    /// Add a compound (order, partition) value to `lists` unless present.
    fn push_compound(
        &mut self,
        lists: &mut InternedLists,
        o: Ordering,
        p: Option<PartitionVal>,
    ) -> bool {
        let oid = self.intern_order(o);
        let pid = p.map(|p| self.intern_part(p));
        self.push_compound_ids(lists, (oid, pid))
    }

    /// Add an already-interned compound pair unless present.
    fn push_compound_ids(
        &mut self,
        lists: &mut InternedLists,
        c: (PropSetId, Option<PropSetId>),
    ) -> bool {
        let (added, scanned) = lists.add_compound_id(c);
        self.prop_naive_compares += scanned as u64;
        added
    }

    /// Resolve an interned payload back into value-carrying lists.
    fn resolve_lists(&self, l: &InternedLists) -> PropLists {
        PropLists {
            orders: l
                .orders
                .iter()
                .map(|&id| self.orders_tab.resolve(id).clone())
                .collect(),
            partitions: l
                .partitions
                .iter()
                .map(|&id| self.parts_tab.resolve(id).clone())
                .collect(),
            compound: l
                .compound
                .iter()
                .map(|&(o, p)| {
                    (
                        self.orders_tab.resolve(o).clone(),
                        p.map(|p| self.parts_tab.resolve(p).clone()),
                    )
                })
                .collect(),
        }
    }
}

/// The partition term for one orientation (see module docs). Returns the
/// term and the heuristic value to propagate, if the §4 test fired.
fn partition_term(
    outer: &InternedLists,
    inner: &InternedLists,
    parts_tab: &Interner<PartitionVal>,
    j_eq: &cote_query::EqClasses,
    join_classes: &[u16],
    parallel: bool,
) -> (u64, Option<PartitionVal>) {
    if !parallel {
        return (1, None);
    }
    let mut distinct: Vec<PartitionVal> = Vec::new();
    for &pid in &outer.partitions {
        let pv = parts_tab.resolve(pid).canon(j_eq);
        if !distinct.contains(&pv) {
            distinct.push(pv);
        }
    }
    let any_on_join_col = outer
        .partitions
        .iter()
        .chain(inner.partitions.iter())
        .any(|&pid| {
            parts_tab
                .resolve(pid)
                .canon(j_eq)
                .key_cols()
                .is_some_and(|cols| cols.iter().any(|c| join_classes.contains(c)))
        });
    let mut heuristic = None;
    let mut term = distinct.len() as u64;
    if !any_on_join_col && !join_classes.is_empty() {
        let h = PartitionVal::hash(join_classes.to_vec());
        if !distinct.contains(&h) {
            term += 1;
            heuristic = Some(h);
        }
    }
    (term.max(1), heuristic)
}

impl JoinVisitor for PlanEstimator<'_> {
    type Payload = InternedLists;

    fn base_payload(
        &mut self,
        ctx: &OptContext<'_>,
        core: &MemoEntry<()>,
        t: TableRef,
    ) -> InternedLists {
        let mut lists = InternedLists::default();
        // Non-join access paths (paper §3): heap scan + one plan per index
        // + an index-ANDing plan when ≥2 indexes are applicable.
        let n_indexes = ctx.catalog.indexes_on(ctx.block.table(t)).count() as u64;
        let anding = u64::from(cote_optimizer::plangen::applicable_indexes(ctx, t).len() >= 2);
        // Each access path doubles when the table has expensive predicates
        // (apply-at-scan vs defer variants).
        let exp_variants = if ctx.block.expensive_bits_of(t) == 0 {
            1
        } else {
            2
        };
        self.scan_est += (1 + n_indexes + anding) * exp_variants;
        // Natural index orders, for predicting which eager targets need an
        // enforcer SORT.
        let mut natural: Vec<Ordering> = Vec::new();
        for (_, ix) in ctx.catalog.indexes_on(ctx.block.table(t)) {
            let mut cols = Vec::new();
            for &k in &ix.key_columns {
                match ctx.block.col_id(ColRef::new(t, k)) {
                    Some(id) => cols.push(id),
                    None => break,
                }
            }
            natural.push(Ordering::seq(cols).canon(&core.eq));
        }
        // Order init (Table 3 `initialize`): eager policy reuses the
        // pushed-down interesting orders (§4 item 1); lazy policy collects
        // natural orders from the physical design.
        if ctx.config.eager_orders {
            for target in ctx.targets.table_targets(t) {
                let o = target.canon(&core.eq);
                if is_interesting(&o, &core.eq, &core.boundary, &ctx.targets) {
                    if !natural.iter().any(|n| n.satisfies(&o)) {
                        self.sort_est += 1;
                    }
                    self.push_order(&mut lists, o);
                }
            }
        } else {
            for o in &natural {
                if is_interesting(o, &core.eq, &core.boundary, &ctx.targets) {
                    let o = o.clone();
                    self.push_order(&mut lists, o);
                }
            }
        }
        // Partition init: lazy — the physical placement, unconditionally
        // (it is reality; retirement applies to propagated values).
        if let Some(pv) = &ctx.natural_parts[t.index()] {
            let pv = pv.canon(&core.eq);
            self.push_partition(&mut lists, pv);
        }
        if self.opts.compound_properties {
            let pv = lists.partitions.first().copied();
            for oid in lists.orders.clone() {
                self.push_compound_ids(&mut lists, (oid, pv));
            }
            let dc = self.intern_order(Ordering::dc());
            self.push_compound_ids(&mut lists, (dc, pv));
        }
        lists
    }

    fn join_payload(&mut self, _ctx: &OptContext<'_>, _core: &MemoEntry<()>) -> InternedLists {
        InternedLists::default()
    }

    fn on_join<M: MemoStore<InternedLists>>(
        &mut self,
        ctx: &OptContext<'_>,
        memo: &mut M,
        site: &JoinSite,
    ) {
        use cote_optimizer::JoinMethod::{Hsjn, Mgjn, Nljn};
        let parallel = ctx.config.parallel();
        let methods = ctx.config.join_methods;
        let first_join = self.propagated.insert(site.joined.0);
        let do_propagate = first_join || !self.opts.first_join_only;

        for (o_id, i_id, ok) in [
            (site.a, site.b, site.a_outer_ok),
            (site.b, site.a, site.b_outer_ok),
        ] {
            if !ok {
                continue;
            }
            let (o_entry, i_entry, j_entry) = memo.join_view(o_id, i_id, site.joined);
            let o_lists = o_entry.payload;
            let i_lists = i_entry.payload;
            let inner_len = i_entry.set.len();
            // The joined entry's view already splits the borrows: logical
            // core read-only, payload mutable.
            let j_eq = j_entry.eq;
            let j_boundary = j_entry.boundary;
            let j_set = j_entry.set;
            let j_payload = j_entry.payload;

            // Join-column classes in the joined (for partitions) and outer
            // (for MGJN satisfaction) equivalences.
            let mut join_classes_j: Vec<u16> = Vec::new();
            let mut span_classes_o: Vec<u16> = Vec::new();
            for &pi in &site.preds {
                let p = &ctx.block.join_preds()[pi];
                let l = ctx.block.col_id(p.left).expect("interned");
                let cj = j_eq.find(l);
                if !join_classes_j.contains(&cj) {
                    join_classes_j.push(cj);
                }
                if let Some((oc, _)) = p.split(o_entry.set, i_entry.set) {
                    let co = o_entry.eq.find(ctx.block.col_id(oc).expect("interned"));
                    if !span_classes_o.contains(&co) {
                        span_classes_o.push(co);
                    }
                }
            }

            let (parts, heuristic_pv) = partition_term(
                o_lists,
                i_lists,
                &self.parts_tab,
                j_eq,
                &join_classes_j,
                parallel,
            );

            // Expensive-predicate factor (Table 1's last row): under the
            // scan-or-root policy each input side carries one plan variant
            // per per-table apply/defer choice, so counts multiply by
            // 2^(expensive tables in outer) · 2^(expensive tables in inner).
            let exp_tables = |s: cote_common::TableSet| {
                s.iter()
                    .filter(|&t| ctx.block.expensive_bits_of(t) != 0)
                    .count() as u32
            };
            let exp_factor = 1u64 << (exp_tables(o_entry.set) + exp_tables(i_entry.set)).min(32);

            // ---- accumulate_plans (Table 3) ----
            self.charge_join(inner_len);
            if methods.nljn {
                self.charge(
                    Nljn,
                    (o_lists.orders.len() as u64 + 1) * parts * exp_factor,
                    inner_len,
                );
            }
            if methods.mgjn {
                let mut covered = 0u64;
                for &c in &span_classes_o {
                    let req = Ordering::seq(vec![c]);
                    covered += o_lists
                        .orders
                        .iter()
                        .filter(|&&id| self.orders_tab.resolve(id).satisfies(&req))
                        .count() as u64;
                }
                self.charge(Mgjn, covered * parts * exp_factor, inner_len);
            }
            if methods.hsjn {
                self.charge(Hsjn, parts * exp_factor, inner_len);
            }
            if self.opts.compound_properties {
                let n = o_lists.compound.len().max(1) as u64;
                if methods.nljn {
                    self.compound_counts.nljn += n + 1;
                }
                if methods.mgjn {
                    let mut covered = 0u64;
                    for &c in &span_classes_o {
                        let req = Ordering::seq(vec![c]);
                        covered += o_lists
                            .compound
                            .iter()
                            .filter(|&&(o, _)| self.orders_tab.resolve(o).satisfies(&req))
                            .count() as u64;
                    }
                    self.compound_counts.mgjn += covered;
                }
                if methods.hsjn {
                    self.compound_counts.hsjn += n.min(parts.max(1));
                }
            }

            // ---- propagation into the joined entry's lists ----
            if !do_propagate {
                continue;
            }
            for &oid in &o_lists.orders {
                let o = self.orders_tab.resolve(oid).canon(j_eq);
                if is_interesting(&o, j_eq, j_boundary, &ctx.targets) {
                    self.push_order(j_payload, o);
                }
            }
            // Multi-table targets become enforceable once covered (the real
            // generator's finish_entry enforcers mirror this). An insertion
            // that propagation did not already supply predicts one SORT
            // enforcer.
            if ctx.config.eager_orders {
                for (tables, target) in &ctx.targets.multi_table {
                    if tables.is_subset_of(j_set) {
                        let o = target.canon(j_eq);
                        if is_interesting(&o, j_eq, j_boundary, &ctx.targets)
                            && self.push_order(j_payload, o)
                        {
                            self.sort_est += 1;
                        }
                    }
                }
            }
            for &pid in &o_lists.partitions {
                let pv = self.parts_tab.resolve(pid).canon(j_eq);
                if is_interesting_partition(&pv, j_eq, j_boundary, &ctx.targets) {
                    self.push_partition(j_payload, pv);
                }
            }
            if let Some(h) = &heuristic_pv {
                if is_interesting_partition(h, j_eq, j_boundary, &ctx.targets) {
                    self.push_partition(j_payload, h.clone());
                }
            }
            if self.opts.compound_properties {
                for &(oid, pid) in &o_lists.compound {
                    let o = self.orders_tab.resolve(oid).canon(j_eq);
                    let o_alive = is_interesting(&o, j_eq, j_boundary, &ctx.targets);
                    let p = pid.map(|pid| self.parts_tab.resolve(pid).canon(j_eq));
                    let p_alive = p.as_ref().is_some_and(|p| {
                        is_interesting_partition(p, j_eq, j_boundary, &ctx.targets)
                    });
                    // A compound value retires only when *all* components
                    // retire (§3.4).
                    if o_alive || p_alive {
                        let o = if o_alive { o } else { Ordering::dc() };
                        self.push_compound(j_payload, o, p);
                    }
                }
            }
        }
    }

    fn finish_entry<M: MemoStore<InternedLists>>(
        &mut self,
        _ctx: &OptContext<'_>,
        _memo: &mut M,
        _id: EntryId,
    ) {
    }
}

/// Estimate the generated plan counts for one block by reusing the join
/// enumerator with the simple cardinality model (§4 item 5, §5.2).
pub fn estimate_block(
    catalog: &Catalog,
    block: &QueryBlock,
    config: &OptimizerConfig,
    opts: &EstimateOptions,
) -> Result<BlockEstimate> {
    let ctx = OptContext::new(catalog, block, config);
    let mut visitor = PlanEstimator::new(opts, config.composite_inner_limit);
    let span = Span::enter(phase::ESTIMATE);
    let outcome = enumerate(&ctx, &SimpleCardinality, &mut visitor)?;
    Ok(visitor.finish(span, outcome, block))
}

/// Run the estimator on one block and return each MEMO entry's interesting
/// property value lists (Figure 3 walk-throughs, memory inspection, tests).
pub fn property_lists(
    catalog: &Catalog,
    block: &QueryBlock,
    config: &OptimizerConfig,
    opts: &EstimateOptions,
) -> Result<Vec<(cote_common::TableSet, PropLists)>> {
    let ctx = OptContext::new(catalog, block, config);
    let mut visitor = PlanEstimator::new(opts, config.composite_inner_limit);
    let outcome = enumerate(&ctx, &SimpleCardinality, &mut visitor)?;
    Ok(outcome
        .memo
        .iter()
        .map(|(_, e)| (e.set, visitor.resolve_lists(e.payload)))
        .collect())
}

/// Estimate a whole query (blocks summed), timing the estimator itself.
pub fn estimate_query(
    catalog: &Catalog,
    query: &Query,
    config: &OptimizerConfig,
    opts: &EstimateOptions,
) -> Result<QueryEstimate> {
    let c = run_counters();
    // Tag this thread's spans with a fresh run id and the query id, so the
    // JSONL trace can be grouped per estimator run.
    cote_obs::set_context(c.runs.inc_and_get(), &query.name);
    let wall = Instant::now();
    let mut totals = BlockEstimate::default();
    for block in query.blocks() {
        let b = estimate_block(catalog, block, config, opts)?;
        totals.add(&b);
    }
    c.estimated_plans.add(totals.counts.total());
    c.estimated_pairs.add(totals.pairs);
    c.prop_probes.add(totals.prop_probes);
    c.prop_compares.add(totals.prop_compares);
    c.prop_naive_compares.add(totals.prop_naive_compares);
    Ok(QueryEstimate {
        totals,
        elapsed: wall.elapsed(),
    })
}

/// Global-registry counters published per estimator run.
struct RunCounters {
    runs: Arc<Counter>,
    estimated_plans: Arc<Counter>,
    estimated_pairs: Arc<Counter>,
    prop_probes: Arc<Counter>,
    prop_compares: Arc<Counter>,
    prop_naive_compares: Arc<Counter>,
}

fn run_counters() -> &'static RunCounters {
    static CELLS: OnceLock<RunCounters> = OnceLock::new();
    CELLS.get_or_init(|| {
        let r = cote_obs::global();
        RunCounters {
            runs: r.counter_with_help("estimator_runs_total", "COTE estimator executions."),
            estimated_plans: r.counter_with_help(
                "estimator_estimated_plans_total",
                "Join plans the estimator predicted would be generated.",
            ),
            estimated_pairs: r.counter_with_help(
                "estimator_estimated_pairs_total",
                "MEMO entry pairs the counting pass visited.",
            ),
            prop_probes: r.counter_with_help(
                "cote_opt_prop_probes_total",
                "Interner hash probes while maintaining property lists.",
            ),
            prop_compares: r.counter_with_help(
                "cote_opt_prop_compares_total",
                "Deep property comparisons performed by the interned layout.",
            ),
            prop_naive_compares: r.counter_with_help(
                "cote_opt_prop_naive_compares_total",
                "Deep comparisons the pre-interning list scans would have \
                 performed (the avoided O(n²)).",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_catalog::{ColumnDef, IndexDef, TableDef};
    use cote_common::TableId;
    use cote_optimizer::{FullCardinality, Mode, Optimizer, RealPlanGen};
    use cote_query::QueryBlockBuilder;

    fn catalog(n: usize) -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..n {
            let t = b.add_table(TableDef::new(
                format!("t{i}"),
                2000.0,
                vec![
                    ColumnDef::uniform("c0", 2000.0, 400.0),
                    ColumnDef::uniform("c1", 2000.0, 50.0),
                ],
            ));
            b.add_index(IndexDef::new(t, vec![0]).clustered());
        }
        b.build().unwrap()
    }

    fn col(t: u8, c: u16) -> ColRef {
        ColRef::new(TableRef(t), c)
    }

    fn chain(cat: &Catalog, n: usize, orderby: bool) -> QueryBlock {
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

    #[test]
    fn hsjn_estimate_is_exact_in_serial_mode() {
        // Fig. 5(c): HSJN estimates equal actuals exactly in serial mode.
        let cat = catalog(5);
        let block = chain(&cat, 5, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let est = estimate_block(&cat, &block, &cfg, &EstimateOptions::default()).unwrap();
        let opt = Optimizer::new(cfg);
        let real = opt.optimize_block(&cat, &block).unwrap();
        assert_eq!(est.counts.hsjn, real.stats.plans_generated.hsjn);
        assert_eq!(est.joins, real.stats.joins_enumerated);
        assert_eq!(est.pairs, real.stats.pairs_enumerated);
    }

    #[test]
    fn estimates_track_actuals_within_thirty_percent_serial() {
        // The paper's headline accuracy bound on the synthetic workloads.
        let cat = catalog(6);
        for orderby in [false, true] {
            let block = chain(&cat, 6, orderby);
            let cfg = OptimizerConfig::high(Mode::Serial);
            let est = estimate_block(&cat, &block, &cfg, &EstimateOptions::default()).unwrap();
            let real = Optimizer::new(cfg).optimize_block(&cat, &block).unwrap();
            for m in cote_optimizer::JoinMethod::ALL {
                let (e, a) = (
                    est.counts.get(m) as f64,
                    real.stats.plans_generated.get(m) as f64,
                );
                assert!(a > 0.0, "{} actuals nonzero", m.name());
                let err = (e - a).abs() / a;
                assert!(
                    err <= 0.30,
                    "{} estimate {e} vs actual {a} (err {err:.2}) orderby={orderby}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn orderby_raises_estimated_plans_same_joins() {
        // Figure 3: same join count, more plans with ORDER BY.
        let cat = catalog(3);
        let plain = chain(&cat, 3, false);
        let ordered = chain(&cat, 3, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let e1 = estimate_block(&cat, &plain, &cfg, &EstimateOptions::default()).unwrap();
        let e2 = estimate_block(&cat, &ordered, &cfg, &EstimateOptions::default()).unwrap();
        assert_eq!(e1.pairs, e2.pairs);
        assert!(e2.counts.total() > e1.counts.total());
    }

    #[test]
    fn multilevel_piggyback_is_monotone() {
        let cat = catalog(6);
        let block = chain(&cat, 6, false);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let opts = EstimateOptions {
            levels: vec![1, 2],
            ..Default::default()
        };
        let est = estimate_block(&cat, &block, &cfg, &opts).unwrap();
        assert_eq!(est.level_counts.len(), 3, "config level + two restricted");
        let top = est.level_counts[0].total();
        let l1 = est.level_counts[1].total();
        let l2 = est.level_counts[2].total();
        assert!(
            l1 <= l2 && l2 <= top,
            "restricted levels are subsumed: {l1} {l2} {top}"
        );
        assert!(l1 > 0);
        // Direct estimation at the restricted level matches the piggyback
        // at least in plan counts driven by join shape for left-deep.
        let cfg1 = OptimizerConfig::high(Mode::Serial).with_composite_inner_limit(1);
        let direct = estimate_block(&cat, &block, &cfg1, &EstimateOptions::default()).unwrap();
        assert!(
            direct.counts.total() <= l1,
            "piggyback ≥ direct (shared top-level lists)"
        );
    }

    #[test]
    fn level_joins_count_each_levels_orientations() {
        let cat = catalog(6);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let opts = EstimateOptions {
            levels: vec![1, 2],
            ..Default::default()
        };
        for orderby in [false, true] {
            let est = estimate_block(&cat, &chain(&cat, 6, orderby), &cfg, &opts).unwrap();
            assert_eq!(est.level_joins.len(), est.level_counts.len());
            assert_eq!(est.level_joins[0], est.joins);
            // Serial mode, no expensive predicates: one HSJN plan per
            // orientation, so each level's HSJN count is its join count.
            for (counts, &joins) in est.level_counts.iter().zip(&est.level_joins) {
                assert_eq!(counts.hsjn, joins);
            }
            assert!(est.level_joins[1] < est.level_joins[2]);
            assert!(est.level_joins[2] < est.level_joins[0]);
        }
    }

    #[test]
    fn estimator_runs_much_faster_than_optimizer() {
        // Fig. 4's qualitative claim (the quantitative version is a bench).
        let cat = catalog(7);
        let block = chain(&cat, 7, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let q = Query::new("t", block);
        let started = std::time::Instant::now();
        let _ = estimate_query(&cat, &q, &cfg, &EstimateOptions::default()).unwrap();
        let est_time = started.elapsed();
        let started = std::time::Instant::now();
        let ctx_block = &q.root;
        let mut gen = RealPlanGen::new(None);
        let ctx = OptContext::new(&cat, ctx_block, &cfg);
        let _ = enumerate(&ctx, &FullCardinality, &mut gen).unwrap();
        let opt_time = started.elapsed();
        assert!(
            est_time < opt_time,
            "estimation ({est_time:?}) must undercut optimization ({opt_time:?})"
        );
    }

    #[test]
    fn compound_mode_counts_and_lists() {
        let mut b = Catalog::builder_parallel(cote_catalog::NodeGroup::new(4));
        for i in 0..3 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                3000.0,
                vec![
                    ColumnDef::uniform("c0", 3000.0, 300.0),
                    ColumnDef::uniform("c1", 3000.0, 30.0),
                ],
            ));
        }
        let cat = b.build().unwrap();
        let block = chain(&cat, 3, true);
        let cfg = OptimizerConfig::high(Mode::Parallel);
        let opts = EstimateOptions {
            compound_properties: true,
            ..Default::default()
        };
        let est = estimate_block(&cat, &block, &cfg, &opts).unwrap();
        let compound = est.compound_counts.expect("compound counts present");
        assert!(compound.total() > 0);
        assert!(est.property_values > 0);
    }

    #[test]
    fn top_down_estimation_is_identical_to_bottom_up() {
        // §6.2: the estimator is enumeration-order independent (full
        // memoization, no early stopping).
        let cat = catalog(6);
        for orderby in [false, true] {
            let block = chain(&cat, 6, orderby);
            let cfg = OptimizerConfig::high(Mode::Serial);
            let opts = EstimateOptions::default();
            let up = estimate_block(&cat, &block, &cfg, &opts).unwrap();
            let ctx = OptContext::new(&cat, &block, &cfg);
            let mut visitor = PlanEstimator::new(&opts, cfg.composite_inner_limit);
            let span = Span::enter(phase::ESTIMATE);
            let outcome =
                cote_optimizer::enumerate_topdown(&ctx, &SimpleCardinality, &mut visitor).unwrap();
            let down = visitor.finish(span, outcome, &block);
            assert_eq!(up.counts, down.counts, "orderby={orderby}");
            assert_eq!(up.pairs, down.pairs);
            assert_eq!(up.joins, down.joins);
            assert_eq!(up.property_values, down.property_values);
            assert_eq!(up.sort_plans, down.sort_plans);
        }
    }

    #[test]
    fn first_join_only_shortcut_changes_little() {
        // §4 item 4: propagating on the first join only "cuts down
        // estimation overhead without losing too much precision".
        let cat = catalog(6);
        let block = chain(&cat, 6, true);
        let cfg = OptimizerConfig::high(Mode::Serial);
        let fast = estimate_block(&cat, &block, &cfg, &EstimateOptions::default()).unwrap();
        let slow = estimate_block(
            &cat,
            &block,
            &cfg,
            &EstimateOptions {
                first_join_only: false,
                ..Default::default()
            },
        )
        .unwrap();
        let (f, s) = (fast.counts.total() as f64, slow.counts.total() as f64);
        assert!((f - s).abs() / s < 0.10, "shortcut error small: {f} vs {s}");
    }
}
