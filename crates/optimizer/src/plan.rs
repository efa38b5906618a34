//! Physical plan nodes and the per-optimization plan arena.

use crate::cost::{Cost, StreamStats};
use crate::properties::order::Ordering;
use crate::properties::partition::PartitionVal;
use crate::properties::JoinMethod;
use cote_common::{IndexId, InlineVec, TableRef};
use std::fmt::Write as _;
use std::sync::Arc;

/// Index of a plan node in a [`PlanArena`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(pub u32);

/// How a parallel join arranges its inputs across nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartStrategy {
    /// Inputs already co-located.
    Colocated,
    /// Inner repartitioned to the outer's placement.
    RepartitionInner,
    /// Both sides repartitioned onto the join columns (the §4 heuristic).
    RepartitionBoth,
    /// Inner replicated to every node.
    BroadcastInner,
}

/// Plan operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// Heap scan of a base table (local predicates applied on the fly).
    TableScan {
        /// Scanned table reference.
        table: TableRef,
    },
    /// B-tree index scan.
    IndexScan {
        /// Scanned table reference.
        table: TableRef,
        /// The index used.
        index: IndexId,
    },
    /// Index ANDing: RID-intersection of several index scans (paper §3:
    /// "commercial systems typically consider only a limited number of
    /// combinations of index plans (index ANDing and ORing)").
    IndexAnd {
        /// Scanned table reference.
        table: TableRef,
        /// The intersected indexes (≥ 2, inline up to 4 — ANDing more
        /// than four indexes is outside the §3 search space anyway).
        indexes: InlineVec<IndexId, 4>,
    },
    /// SORT enforcer.
    Sort {
        /// Input plan.
        input: PlanId,
    },
    /// Binary join.
    Join {
        /// Join method.
        method: JoinMethod,
        /// Outer input.
        outer: PlanId,
        /// Inner input.
        inner: PlanId,
        /// Data movement arrangement.
        strategy: PartStrategy,
    },
    /// Hash repartition exchange.
    Repartition {
        /// Input plan.
        input: PlanId,
    },
    /// Broadcast exchange.
    Broadcast {
        /// Input plan.
        input: PlanId,
    },
    /// Ship a remote subplan's rows from its data source to the local
    /// engine (Garlic-style federation, Table 1's data-source row).
    Ship {
        /// Input plan (executing at a remote source).
        input: PlanId,
        /// The source shipped from.
        from_source: u16,
    },
    /// Residual expensive-predicate evaluation (deferred UDFs applied here).
    Filter {
        /// Input plan.
        input: PlanId,
        /// Mask of expensive predicates applied by this operator.
        mask: u16,
    },
    /// Grouping/aggregation.
    Group {
        /// Input plan.
        input: PlanId,
        /// Hash-based (vs. sort-based streaming).
        hash: bool,
    },
}

impl PlanId {
    /// Shift a fork-provisional id by `delta` if it lies at or above
    /// `fork_base` (ids below are frozen base nodes and keep their value).
    pub fn remapped(self, fork_base: u32, delta: u32) -> PlanId {
        if self.0 >= fork_base {
            PlanId(self.0 + delta)
        } else {
            self
        }
    }
}

impl PlanKind {
    /// Remap the input plan ids of this operator after a fork merge (see
    /// [`PlanArena::absorb_locals`]).
    pub fn remap_inputs(&mut self, fork_base: u32, delta: u32) {
        match self {
            PlanKind::Sort { input }
            | PlanKind::Repartition { input }
            | PlanKind::Broadcast { input }
            | PlanKind::Ship { input, .. }
            | PlanKind::Filter { input, .. }
            | PlanKind::Group { input, .. } => *input = input.remapped(fork_base, delta),
            PlanKind::Join { outer, inner, .. } => {
                *outer = outer.remapped(fork_base, delta);
                *inner = inner.remapped(fork_base, delta);
            }
            PlanKind::TableScan { .. } | PlanKind::IndexScan { .. } | PlanKind::IndexAnd { .. } => {
            }
        }
    }
}

/// Physical properties carried by a plan (paper §3.2). The stored `order` is
/// the *effective* value: a retired order is recorded as DC at insertion.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProps {
    /// Effective order property (DC when none/retired).
    pub order: Ordering,
    /// Partition property (`None` in serial mode). Unlike orders, a retired
    /// partition stays recorded — it is physical reality the execution
    /// engine must respect, which is exactly why the estimator's separate
    /// retained lists slightly underestimate in parallel mode (§3.4).
    pub partition: Option<PartitionVal>,
    /// Pipelinable (no full materialization below).
    pub pipelinable: bool,
    /// Bitmask of the block's expensive predicates already applied
    /// (Table 1: "any subset of the expensive predicates" is interesting;
    /// plans with different masks are incomparable).
    pub applied_expensive: u16,
    /// Execution site (Table 1's data-source property): `0` = the local
    /// engine; `s > 0` = pushed down to remote source `s`. Deterministic
    /// under the pushdown policy — a join executes at its inputs' common
    /// source, else locally after SHIPs.
    pub site: u16,
}

impl PlanProps {
    /// Serial DC properties.
    pub fn dc() -> Self {
        PlanProps {
            order: Ordering::dc(),
            partition: None,
            pipelinable: false,
            applied_expensive: 0,
            site: 0,
        }
    }
}

/// What pruning reads of a plan, borrowed: from a stored node
/// ([`Candidate::of`]) or from values still on the stack, so a candidate can
/// be pilot-checked and tested for dominance before any node — or the heap
/// `Ordering`/`PartitionVal` of a [`PlanProps`] — exists for it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Candidate<'a> {
    /// `cost.total()` of the plan.
    pub total: f64,
    /// Effective order property.
    pub order: &'a Ordering,
    /// Partition property (`None` in serial mode).
    pub partition: Option<&'a PartitionVal>,
    /// See [`PlanProps::pipelinable`].
    pub pipelinable: bool,
    /// See [`PlanProps::applied_expensive`].
    pub applied_expensive: u16,
    /// See [`PlanProps::site`].
    pub site: u16,
}

impl<'a> Candidate<'a> {
    /// The pruning view of a stored node.
    pub(crate) fn of(node: &'a PlanNode) -> Self {
        Candidate {
            total: node.total,
            order: &node.props.order,
            partition: node.props.partition.as_ref(),
            pipelinable: node.props.pipelinable,
            applied_expensive: node.props.applied_expensive,
            site: node.props.site,
        }
    }

    /// `self` makes `other` redundant: it costs no more (a tie counts, so
    /// of two equal plans the incumbent stays), its order satisfies
    /// `other`'s (equal or more general), partition, applied-expensive mask
    /// and site are identical, and it is at least as pipelinable.
    pub(crate) fn dominates(&self, other: &Candidate<'_>) -> bool {
        self.total <= other.total
            && self.order.satisfies(other.order)
            && self.partition == other.partition
            && self.applied_expensive == other.applied_expensive
            && self.site == other.site
            && (self.pipelinable || !other.pipelinable)
    }

    /// Owned properties for a candidate that is to be stored.
    pub(crate) fn to_props(self) -> PlanProps {
        PlanProps {
            order: self.order.clone(),
            partition: self.partition.cloned(),
            pipelinable: self.pipelinable,
            applied_expensive: self.applied_expensive,
            site: self.site,
        }
    }
}

/// One physical plan node.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Operator.
    pub kind: PlanKind,
    /// Physical properties of the output stream.
    pub props: PlanProps,
    /// Cumulative cost.
    pub cost: Cost,
    /// Cached `cost.total()`.
    pub total: f64,
    /// Output stream statistics.
    pub stats: StreamStats,
}

/// Nodes per arena chunk (power of two so id → chunk is a shift/mask).
const CHUNK: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK.trailing_zeros();

/// Append-only bump arena of plan nodes for one optimization run.
///
/// Nodes live in fixed-capacity chunks of [`CHUNK`] entries. Each chunk is
/// allocated once with its full capacity and never reallocates, so pushing a
/// node never moves previously allocated nodes — the bump-allocation
/// property plan generation relies on for cheap, cache-friendly growth
/// (one amortized pointer bump per node, no O(n) copy spikes at Vec
/// doubling boundaries). Lookup is two predictable indexed loads:
/// `chunks[i >> CHUNK_SHIFT][i & (CHUNK - 1)]`.
///
/// For intra-level parallel enumeration an arena can be *forked*: a fork
/// shares the (frozen) parent arena as a read-only base and allocates its own
/// nodes above `base_len`, so per-worker plan generation needs no locking.
/// [`PlanArena::absorb_locals`] merges fork tails back in worker order,
/// remapping their provisional ids.
#[derive(Debug, Default)]
pub struct PlanArena {
    chunks: Vec<Vec<PlanNode>>,
    /// Nodes allocated locally (excluding the shared base of a fork).
    local_len: u32,
    base: Option<Arc<PlanArena>>,
    base_len: u32,
}

impl PlanArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fork sharing `base` read-only; new nodes are numbered from
    /// `base.len()` upward.
    pub fn fork(base: &Arc<PlanArena>) -> Self {
        Self {
            chunks: Vec::new(),
            local_len: 0,
            base: Some(Arc::clone(base)),
            base_len: base.len() as u32,
        }
    }

    /// Number of nodes *stored* — plans that survived pruning when they were
    /// offered, the wrappers under them, eager SORTs and the root's final
    /// operators; not plans generated — including the shared base of a fork.
    pub fn len(&self) -> usize {
        self.base_len as usize + self.local_len as usize
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume a fork, returning the nodes it allocated above the base.
    /// Drops the fork's `Arc` handle on the base.
    pub fn into_local_nodes(self) -> Vec<PlanNode> {
        self.chunks.into_iter().flatten().collect()
    }

    /// Bump-allocate one slot, opening a fresh full-capacity chunk at each
    /// [`CHUNK`] boundary.
    fn push_node(&mut self, node: PlanNode) {
        if self.local_len as usize & (CHUNK - 1) == 0 {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        self.chunks
            .last_mut()
            .expect("chunk opened above")
            .push(node);
        self.local_len += 1;
    }

    /// Allocate a node.
    pub fn add(
        &mut self,
        kind: PlanKind,
        props: PlanProps,
        cost: Cost,
        stats: StreamStats,
    ) -> PlanId {
        let id = PlanId(self.base_len + self.local_len);
        self.push_node(PlanNode {
            kind,
            props,
            total: cost.total(),
            cost,
            stats,
        });
        id
    }

    /// Node by id.
    pub fn node(&self, id: PlanId) -> &PlanNode {
        if id.0 < self.base_len {
            self.base
                .as_ref()
                .expect("base id on an unforked arena")
                .node(id)
        } else {
            let i = (id.0 - self.base_len) as usize;
            &self.chunks[i >> CHUNK_SHIFT][i & (CHUNK - 1)]
        }
    }

    /// Append the local node tails of forks of this arena (taken in worker
    /// order via [`PlanArena::into_local_nodes`]), remapping each tail's
    /// provisional ids — which all start at `fork_base = self.len()` — to
    /// their merged positions. Returns the per-fork id delta: a fork-local
    /// `PlanId(x)` with `x >= fork_base` becomes `PlanId(x + delta[w])`.
    pub fn absorb_locals(&mut self, locals: Vec<Vec<PlanNode>>) -> Vec<u32> {
        assert!(self.base.is_none(), "absorb into the reclaimed base arena");
        let fork_base = self.local_len;
        let mut deltas = Vec::with_capacity(locals.len());
        let mut appended = 0u32;
        for tail in locals {
            let delta = appended;
            deltas.push(delta);
            appended += tail.len() as u32;
            for mut node in tail {
                node.kind.remap_inputs(fork_base, delta);
                self.push_node(node);
            }
        }
        deltas
    }

    /// Render an indented operator tree (for examples and debugging).
    pub fn explain(&self, id: PlanId) -> String {
        let mut out = String::new();
        self.explain_into(id, 0, &mut out);
        out
    }

    fn explain_into(&self, id: PlanId, depth: usize, out: &mut String) {
        let n = self.node(id);
        for _ in 0..depth {
            out.push_str("  ");
        }
        let label = match &n.kind {
            PlanKind::TableScan { table } => format!("TableScan({table})"),
            PlanKind::IndexScan { table, index } => format!("IndexScan({table}, {index})"),
            PlanKind::IndexAnd { table, indexes } => {
                format!("IndexAnd({table}, {} indexes)", indexes.len())
            }
            PlanKind::Sort { .. } => "Sort".to_string(),
            PlanKind::Join {
                method, strategy, ..
            } => {
                format!("{}[{strategy:?}]", method.name())
            }
            PlanKind::Repartition { .. } => "Repartition".to_string(),
            PlanKind::Broadcast { .. } => "Broadcast".to_string(),
            PlanKind::Ship { from_source, .. } => format!("Ship(from source {from_source})"),
            PlanKind::Filter { mask, .. } => format!("Filter(expensive mask {mask:#b})"),
            PlanKind::Group { hash, .. } => {
                if *hash {
                    "HashGroup".to_string()
                } else {
                    "StreamGroup".to_string()
                }
            }
        };
        let _ = writeln!(
            out,
            "{label}  rows={:.0} cost={:.1}{}",
            n.stats.rows,
            n.total,
            if n.props.order.is_dc() {
                String::new()
            } else {
                format!(" order={:?}", n.props.order.cols())
            }
        );
        match &n.kind {
            PlanKind::Sort { input }
            | PlanKind::Repartition { input }
            | PlanKind::Broadcast { input }
            | PlanKind::Ship { input, .. }
            | PlanKind::Filter { input, .. }
            | PlanKind::Group { input, .. } => self.explain_into(*input, depth + 1, out),
            PlanKind::Join { outer, inner, .. } => {
                self.explain_into(*outer, depth + 1, out);
                self.explain_into(*inner, depth + 1, out);
            }
            PlanKind::TableScan { .. } | PlanKind::IndexScan { .. } | PlanKind::IndexAnd { .. } => {
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(arena: &mut PlanArena, t: u8, cost: f64) -> PlanId {
        arena.add(
            PlanKind::TableScan { table: TableRef(t) },
            PlanProps::dc(),
            Cost {
                io: cost,
                cpu: 0.0,
                comm: 0.0,
            },
            StreamStats::of(100.0, 64.0),
        )
    }

    #[test]
    fn arena_allocates_and_reads() {
        let mut a = PlanArena::new();
        assert!(a.is_empty());
        let p = leaf(&mut a, 0, 5.0);
        assert_eq!(a.len(), 1);
        assert_eq!(a.node(p).total, 5.0 * crate::cost::IO_WEIGHT);
    }

    #[test]
    fn dominates_checks_each_of_its_six_clauses() {
        let (ab, a, dc) = (
            Ordering::seq(vec![1, 2]),
            Ordering::seq(vec![1]),
            Ordering::dc(),
        );
        let (h1, h2) = (PartitionVal::hash(vec![1]), PartitionVal::hash(vec![2]));
        let base = Candidate {
            total: 10.0,
            order: &a,
            partition: Some(&h1),
            pipelinable: false,
            applied_expensive: 0b01,
            site: 0,
        };
        // (clause, the other plan, base dominates it, it dominates base)
        let table = [
            (
                "identical: a cost tie keeps the incumbent",
                base,
                true,
                true,
            ),
            ("cost", Candidate { total: 9.0, ..base }, false, true),
            (
                "order: more general wins",
                Candidate { order: &ab, ..base },
                false,
                true,
            ),
            (
                "order: DC is satisfied by all",
                Candidate { order: &dc, ..base },
                true,
                false,
            ),
            (
                "partition differs",
                Candidate {
                    partition: Some(&h2),
                    ..base
                },
                false,
                false,
            ),
            (
                "partition absent",
                Candidate {
                    partition: None,
                    ..base
                },
                false,
                false,
            ),
            (
                "expensive mask differs",
                Candidate {
                    applied_expensive: 0b11,
                    ..base
                },
                false,
                false,
            ),
            ("site differs", Candidate { site: 2, ..base }, false, false),
            (
                "pipelinable",
                Candidate {
                    pipelinable: true,
                    ..base
                },
                false,
                true,
            ),
        ];
        for (clause, other, forward, backward) in table {
            assert_eq!(base.dominates(&other), forward, "{clause}: base over other");
            assert_eq!(
                other.dominates(&base),
                backward,
                "{clause}: other over base"
            );
        }
        // Cheaper does not excuse a missing order.
        let cheap_dc = Candidate {
            total: 1.0,
            order: &dc,
            ..base
        };
        assert!(!cheap_dc.dominates(&base));
    }

    #[test]
    fn forked_arenas_merge_with_remapped_ids() {
        let mut main = PlanArena::new();
        let l0 = leaf(&mut main, 0, 1.0);
        let l1 = leaf(&mut main, 1, 2.0);
        let base = Arc::new(main);

        // Two forks each join the shared leaves; their provisional ids
        // collide (both start at base.len()).
        let mut forks = Vec::new();
        for _ in 0..2 {
            let mut f = PlanArena::fork(&base);
            assert_eq!(f.len(), 2);
            assert_eq!(f.node(l0).total, base.node(l0).total, "base visible");
            let j = f.add(
                PlanKind::Join {
                    method: JoinMethod::Hsjn,
                    outer: l0,
                    inner: l1,
                    strategy: PartStrategy::Colocated,
                },
                PlanProps::dc(),
                Cost::ZERO,
                StreamStats::of(10.0, 128.0),
            );
            assert_eq!(j, PlanId(2), "provisional id continues the base");
            let s = f.add(
                PlanKind::Sort { input: j },
                PlanProps::dc(),
                Cost::ZERO,
                StreamStats::of(10.0, 128.0),
            );
            assert_eq!(s, PlanId(3));
            forks.push(f);
        }

        let locals: Vec<_> = forks.into_iter().map(PlanArena::into_local_nodes).collect();
        let mut main = Arc::try_unwrap(base).expect("forks dropped their handles");
        let deltas = main.absorb_locals(locals);
        assert_eq!(deltas, vec![0, 2]);
        assert_eq!(main.len(), 6);
        // Fork 1's Sort(3) landed at 5 and now points at its Join at 4.
        match main.node(PlanId(5)).kind {
            PlanKind::Sort { input } => assert_eq!(input, PlanId(4)),
            ref k => panic!("expected Sort, got {k:?}"),
        }
        // Join inputs still point at the frozen base leaves.
        match main.node(PlanId(4)).kind {
            PlanKind::Join { outer, inner, .. } => {
                assert_eq!(outer, l0);
                assert_eq!(inner, l1);
            }
            ref k => panic!("expected Join, got {k:?}"),
        }
    }

    #[test]
    fn explain_renders_every_operator() {
        let mut a = PlanArena::new();
        let scan = leaf(&mut a, 0, 1.0);
        let anding = a.add(
            PlanKind::IndexAnd {
                table: TableRef(0),
                indexes: [cote_common::IndexId(0), cote_common::IndexId(1)]
                    .into_iter()
                    .collect(),
            },
            PlanProps::dc(),
            Cost::ZERO,
            StreamStats::of(10.0, 64.0),
        );
        let sort = a.add(
            PlanKind::Sort { input: scan },
            PlanProps {
                order: Ordering::seq(vec![3]),
                partition: None,
                pipelinable: false,
                applied_expensive: 0,
                site: 0,
            },
            Cost::ZERO,
            StreamStats::of(100.0, 64.0),
        );
        let repart = a.add(
            PlanKind::Repartition { input: sort },
            PlanProps::dc(),
            Cost::ZERO,
            StreamStats::of(100.0, 64.0),
        );
        let bcast = a.add(
            PlanKind::Broadcast { input: anding },
            PlanProps::dc(),
            Cost::ZERO,
            StreamStats::of(10.0, 64.0),
        );
        let join = a.add(
            PlanKind::Join {
                method: JoinMethod::Mgjn,
                outer: repart,
                inner: bcast,
                strategy: PartStrategy::RepartitionBoth,
            },
            PlanProps::dc(),
            Cost::ZERO,
            StreamStats::of(50.0, 128.0),
        );
        let group = a.add(
            PlanKind::Group {
                input: join,
                hash: false,
            },
            PlanProps::dc(),
            Cost::ZERO,
            StreamStats::of(5.0, 128.0),
        );
        let s = a.explain(group);
        for needle in [
            "StreamGroup",
            "MGJN[RepartitionBoth]",
            "Repartition",
            "Broadcast",
            "Sort",
            "order=[3]",
            "IndexAnd(t0, 2 indexes)",
            "TableScan(t0)",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn explain_renders_tree() {
        let mut a = PlanArena::new();
        let l = leaf(&mut a, 0, 1.0);
        let r = leaf(&mut a, 1, 2.0);
        let j = a.add(
            PlanKind::Join {
                method: JoinMethod::Hsjn,
                outer: l,
                inner: r,
                strategy: PartStrategy::Colocated,
            },
            PlanProps::dc(),
            Cost {
                io: 3.0,
                cpu: 1.0,
                comm: 0.0,
            },
            StreamStats::of(1000.0, 128.0),
        );
        let s = a.explain(j);
        assert!(s.contains("HSJN"));
        assert!(s.lines().count() == 3);
        assert!(s.contains("TableScan(t1)"));
    }
}
