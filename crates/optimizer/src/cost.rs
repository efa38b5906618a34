//! The execution cost model.
//!
//! Paper §3.1: "a large amount of time in generating a plan is spent on
//! estimating the execution cost … commercial systems build sophisticated
//! execution cost models". This module is deliberately the *expensive* part
//! of plan generation: a join's cost re-derives the join-value distribution
//! bucket-by-bucket from the input histograms (buffer locality via Yao's
//! formula, merge run skew, hash bucket fill), so that bypassing plan
//! generation — what COTE does — removes the dominant cost, exactly as in
//! DB2 (Fig. 2, Fig. 4).
//!
//! The walk is per join site, not per plan. Its results ([`JoinProfile`],
//! MGJN's run and rewind terms) depend only on the two histograms and the
//! two input [`StreamStats`], so [`JoinTermCache`] computes them once per
//! oriented join and input-stats pair; each plan then prices only its own
//! arithmetic (`*_from`: input costs, output rows, buffer). Splitting a
//! cost into "terms" and "cost from terms" keeps every expression as it
//! was, so a cached price is bit-identical to a fresh `*_cost`.
//!
//! Absolute numbers are abstract "cost units"; only relative comparisons
//! matter to pruning.

use crate::properties::JoinMethod;
use cote_catalog::{EquiDepthHistogram, TableDef};

/// Weight of one page I/O in cost units.
pub const IO_WEIGHT: f64 = 4.0;
/// Weight of one transmitted byte in cost units.
pub const COMM_WEIGHT: f64 = 0.002;
/// CPU cost to produce/copy one row.
pub const CPU_ROW: f64 = 0.01;
/// CPU cost of one comparison.
pub const CPU_CMP: f64 = 0.004;
/// CPU cost to hash one row.
pub const CPU_HASH: f64 = 0.012;
/// CPU cost to probe a hash table once.
pub const CPU_PROBE: f64 = 0.008;

/// A plan cost broken into components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Page I/Os.
    pub io: f64,
    /// CPU units.
    pub cpu: f64,
    /// Transmitted bytes (parallel mode).
    pub comm: f64,
}

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost {
        io: 0.0,
        cpu: 0.0,
        comm: 0.0,
    };

    /// Weighted scalar used for all pruning comparisons.
    #[inline]
    pub fn total(&self) -> f64 {
        self.io * IO_WEIGHT + self.cpu + self.comm * COMM_WEIGHT
    }

    /// Component-wise sum.
    #[inline]
    #[must_use]
    pub fn plus(&self, other: &Cost) -> Cost {
        Cost {
            io: self.io + other.io,
            cpu: self.cpu + other.cpu,
            comm: self.comm + other.comm,
        }
    }
}

/// Physical statistics of a data stream (global, across all nodes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Row count.
    pub rows: f64,
    /// Page count.
    pub pages: f64,
    /// Average row width in bytes.
    pub row_bytes: f64,
}

impl StreamStats {
    /// Derive stats for `rows` rows of `row_bytes` width.
    pub fn of(rows: f64, row_bytes: f64) -> Self {
        let rows = rows.max(0.0);
        let row_bytes = row_bytes.max(1.0);
        StreamStats {
            rows,
            pages: (rows * row_bytes / cote_catalog::table::PAGE_BYTES).max(1.0),
            row_bytes,
        }
    }

    /// Total bytes.
    pub fn bytes(&self) -> f64 {
        self.rows * self.row_bytes
    }
}

/// Yao's formula: expected pages touched when `accesses` random probes hit a
/// file of `pages` pages.
#[inline]
pub fn yao_pages(pages: f64, accesses: f64) -> f64 {
    if pages <= 1.0 || accesses <= 0.0 {
        return pages.min(accesses.max(0.0)).max(0.0);
    }
    pages * (1.0 - (1.0 - 1.0 / pages).powf(accesses))
}

/// Per-join bucket-aligned join profile: the deliberately expensive walk.
///
/// Streams are modeled as the base histograms scaled to the current input
/// cardinalities (`scale_o`, `scale_i`); for each aligned bucket pair we
/// compute match counts and locality (one `powf` per bucket — the Yao term).
#[derive(Debug, Clone, Copy)]
pub struct JoinProfile {
    /// Expected matching row pairs.
    pub matches: f64,
    /// Largest per-bucket match mass (skew indicator).
    pub max_bucket_matches: f64,
    /// Expected inner pages touched per full outer pass.
    pub inner_pages_touched: f64,
}

/// Walk two histograms bucket-by-bucket (two-pointer alignment) computing a
/// [`JoinProfile`].
pub fn bucket_join_profile(
    ho: &EquiDepthHistogram,
    hi: &EquiDepthHistogram,
    scale_o: f64,
    scale_i: f64,
    inner_pages: f64,
) -> JoinProfile {
    let (a, b) = (ho.buckets(), hi.buckets());
    let mut matches = 0.0;
    let mut max_bucket = 0.0f64;
    let mut pages_touched = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ba, bb) = (&a[i], &b[j]);
        let lo = ba.lo.max(bb.lo);
        let hi_v = ba.hi.min(bb.hi);
        if hi_v >= lo {
            let wa = (ba.hi - ba.lo).max(f64::EPSILON);
            let wb = (bb.hi - bb.lo).max(f64::EPSILON);
            let fa = ((hi_v - lo) / wa).clamp(0.0, 1.0);
            let fb = ((hi_v - lo) / wb).clamp(0.0, 1.0);
            let ro = ba.rows * fa * scale_o;
            let ri = bb.rows * fb * scale_i;
            let d = (ba.ndv * fa).max(bb.ndv * fb).max(1.0);
            let m = ro * ri / d;
            matches += m;
            max_bucket = max_bucket.max(m);
            // Locality of this bucket's probes against the inner pages that
            // hold the bucket (Yao).
            let bucket_pages = (inner_pages * (ri / (hi.total_rows() * scale_i).max(1.0))).max(1.0);
            pages_touched += yao_pages(bucket_pages, ro);
        }
        if ba.hi <= bb.hi {
            i += 1;
        } else {
            j += 1;
        }
    }
    JoinProfile {
        matches,
        max_bucket_matches: max_bucket,
        inner_pages_touched: pages_touched,
    }
}

/// Cost + stats of a full table scan.
pub fn table_scan(table: &TableDef) -> (Cost, StreamStats) {
    let stats = StreamStats {
        rows: table.row_count,
        pages: table.page_count,
        row_bytes: table.avg_row_bytes(),
    };
    let cost = Cost {
        io: table.page_count,
        cpu: table.row_count * CPU_ROW,
        comm: 0.0,
    };
    (cost, stats)
}

/// Cost of an index scan returning `out_rows` of `table` (B-tree descent +
/// leaf walk + data-page fetches; clustered indexes fetch sequentially).
pub fn index_scan(table: &TableDef, out_rows: f64, clustered: bool) -> Cost {
    let sel = (out_rows / table.row_count.max(1.0)).clamp(0.0, 1.0);
    let leaf_pages = (table.row_count / 300.0).max(1.0); // ~300 keys per leaf
    let data_io = if clustered {
        table.page_count * sel
    } else {
        yao_pages(table.page_count, out_rows)
    };
    Cost {
        io: 2.0 + leaf_pages * sel + data_io,
        cpu: out_rows * CPU_ROW,
        comm: 0.0,
    }
}

/// Cost of an index-ANDing access: probe each applicable index, intersect
/// the RID lists, fetch the surviving rows (Yao).
///
/// `sels` holds the selectivity each index contributes.
pub fn index_and_cost(table: &TableDef, sels: &[f64], out_rows: f64) -> Cost {
    let leaf_pages = (table.row_count / 300.0).max(1.0);
    let mut io = 0.0;
    let mut cpu = 0.0;
    for &s in sels {
        let s = s.clamp(0.0, 1.0);
        io += 2.0 + leaf_pages * s; // descent + leaf walk
        cpu += table.row_count * s * CPU_CMP; // RID list build + merge step
    }
    io += yao_pages(table.page_count, out_rows);
    cpu += out_rows * CPU_ROW;
    Cost { io, cpu, comm: 0.0 }
}

/// Cost of sorting a stream (quicksort CPU + external merge passes when the
/// input exceeds `sort_pages`).
pub fn sort_cost(input: &StreamStats, sort_pages: f64) -> Cost {
    let n = input.rows.max(1.0);
    let cpu = n * n.log2().max(1.0) * CPU_CMP;
    let io = if input.pages > sort_pages {
        let passes = ((input.pages / sort_pages).log2() / (sort_pages - 1.0).max(2.0).log2())
            .ceil()
            .max(1.0);
        2.0 * input.pages * passes
    } else {
        0.0
    };
    Cost { io, cpu, comm: 0.0 }
}

/// Inputs to a join cost computation.
pub struct JoinCostInput<'h> {
    /// Outer stream stats.
    pub outer: StreamStats,
    /// Inner stream stats.
    pub inner: StreamStats,
    /// Cost already charged to produce the outer.
    pub outer_cost: Cost,
    /// Cost already charged to produce the inner.
    pub inner_cost: Cost,
    /// Join-column histogram of the outer (base-table distribution).
    pub outer_hist: &'h EquiDepthHistogram,
    /// Join-column histogram of the inner.
    pub inner_hist: &'h EquiDepthHistogram,
    /// Buffer-pool pages.
    pub buffer_pages: f64,
    /// Estimated output rows (from the MEMO entry).
    pub out_rows: f64,
}

impl JoinCostInput<'_> {
    fn scales(&self) -> (f64, f64) {
        (
            self.outer.rows / self.outer_hist.total_rows().max(1.0),
            self.inner.rows / self.inner_hist.total_rows().max(1.0),
        )
    }

    /// The match profile of this join's inputs: one histogram walk.
    fn profile(&self) -> JoinProfile {
        let (so, si) = self.scales();
        bucket_join_profile(self.outer_hist, self.inner_hist, so, si, self.inner.pages)
    }

    /// MGJN's plan-independent terms `(rerun_io, rewind_cpu)`: one more walk
    /// per side for duplicate runs, and a third aligned walk for rewinds.
    fn mgjn_terms(&self) -> (f64, f64) {
        let (so, si) = self.scales();
        // Duplicate-run modeling: expected run length per bucket and the chance
        // a run crosses a page boundary, forcing the merge to re-pin pages.
        let mut rerun_io = 0.0;
        for (hist, stats, scale) in [
            (self.outer_hist, &self.outer, so),
            (self.inner_hist, &self.inner, si),
        ] {
            let rows_per_page = (stats.rows / stats.pages.max(1.0)).max(1.0);
            for bkt in hist.buckets() {
                let rows = bkt.rows * scale;
                if rows <= 0.0 {
                    continue;
                }
                let run = (rows / (bkt.ndv * scale.min(1.0)).max(1.0)).max(1.0);
                // P(run spans a page boundary) = 1 - (1 - run/rows_per_page)^+,
                // smoothed through the same exponential family as Yao.
                let span_p = 1.0 - (1.0 - (run / rows_per_page).min(1.0)).powf(rows / run);
                rerun_io += span_p * (rows / rows_per_page) * 0.01;
            }
        }
        rerun_io = rerun_io.min(self.inner.pages + self.outer.pages);
        // Merge rewind modeling: when the outer has duplicate join keys, the
        // merge backs up over the inner's matching group; expected rewind CPU is
        // derived per aligned bucket pair (a third histogram pass).
        let mut rewind_cpu = 0.0;
        let (a, b) = (self.outer_hist.buckets(), self.inner_hist.buckets());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ba, bb) = (&a[i], &b[j]);
            let lo = ba.lo.max(bb.lo);
            let hi = ba.hi.min(bb.hi);
            if hi >= lo {
                let ro = ba.rows * so;
                let ri = bb.rows * si;
                let dup_o = (ro / (ba.ndv * so.min(1.0)).max(1.0)).max(1.0);
                let group_i = (ri / (bb.ndv * si.min(1.0)).max(1.0)).max(1.0);
                // P(≥2 duplicates trigger a rewind) per group.
                let p_rewind = 1.0 - (1.0 / dup_o).powf(dup_o - 1.0);
                rewind_cpu += p_rewind * group_i * (bb.ndv * si.min(1.0)).max(1.0) * CPU_CMP;
            }
            if ba.hi <= bb.hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        (rerun_io, rewind_cpu)
    }
}

/// Nested-loops join: outer once; inner probed per outer row with
/// buffer-locality credit from the bucket profile.
pub fn nljn_cost(input: &JoinCostInput<'_>) -> Cost {
    nljn_from(input, &input.profile())
}

/// [`nljn_cost`] from an already-walked profile.
fn nljn_from(input: &JoinCostInput<'_>, profile: &JoinProfile) -> Cost {
    // Pages of the inner actually faulted per outer pass, bounded by buffer.
    let hot = input.inner.pages.min(input.buffer_pages);
    let cold_fraction = ((input.inner.pages - hot) / input.inner.pages.max(1.0)).max(0.0);
    let io = profile.inner_pages_touched * cold_fraction + input.inner.pages.min(hot);
    let cpu = input.outer.rows * CPU_PROBE + profile.matches * CPU_ROW + input.out_rows * CPU_ROW;
    input
        .outer_cost
        .plus(&input.inner_cost)
        .plus(&Cost { io, cpu, comm: 0.0 })
}

/// Sort-merge join: both inputs already ordered (enforcers are costed
/// separately); merge CPU plus duplicate-group cross products plus run
/// modeling.
///
/// MGJN costing is deliberately the heaviest computation: beyond the match
/// profile it walks both histograms again to model duplicate-run lengths
/// and the probability of a run spanning page boundaries (one `powf` per
/// bucket per side, `JoinCostInput::mgjn_terms`). This mirrors DB2, where
/// generating an MGJN plan costs the most of the three methods (the paper's
/// fitted serial ratio is `C_m : C_n : C_h = 5 : 2 : 4`, §4) — and is what
/// makes Fig. 2's MGJN slice the largest.
pub fn mgjn_cost(input: &JoinCostInput<'_>) -> Cost {
    mgjn_from(input, &input.profile(), input.mgjn_terms())
}

/// [`mgjn_cost`] from an already-walked profile and MGJN terms.
fn mgjn_from(
    input: &JoinCostInput<'_>,
    profile: &JoinProfile,
    (rerun_io, rewind_cpu): (f64, f64),
) -> Cost {
    let cpu = (input.outer.rows + input.inner.rows) * CPU_CMP
        + profile.matches * CPU_ROW
        + input.out_rows * CPU_ROW;
    input.outer_cost.plus(&input.inner_cost).plus(&Cost {
        io: rerun_io,
        cpu: cpu + rewind_cpu,
        comm: 0.0,
    })
}

/// Hash join: build the inner, probe with the outer; grace partitioning I/O
/// when the build side exceeds the buffer, with bucket-skew overflow.
pub fn hsjn_cost(input: &JoinCostInput<'_>) -> Cost {
    hsjn_from(input, &input.profile())
}

/// [`hsjn_cost`] from an already-walked profile.
fn hsjn_from(input: &JoinCostInput<'_>, profile: &JoinProfile) -> Cost {
    let cpu = input.inner.rows * CPU_HASH
        + input.outer.rows * CPU_PROBE
        + profile.matches * CPU_ROW
        + input.out_rows * CPU_ROW;
    let io = if input.inner.pages > input.buffer_pages {
        // Grace hash: spill and re-read both sides once, plus skew overflow.
        let skew = (profile.max_bucket_matches / profile.matches.max(1.0)).min(1.0);
        2.0 * (input.inner.pages + input.outer.pages) * (1.0 + skew)
    } else {
        0.0
    };
    input
        .outer_cost
        .plus(&input.inner_cost)
        .plus(&Cost { io, cpu, comm: 0.0 })
}

/// A join plan's cost by `method`, walking the histograms afresh.
pub fn join_cost(method: JoinMethod, input: &JoinCostInput<'_>) -> Cost {
    match method {
        JoinMethod::Nljn => nljn_cost(input),
        JoinMethod::Mgjn => mgjn_cost(input),
        JoinMethod::Hsjn => hsjn_cost(input),
    }
}

/// The plan-independent terms of one oriented join, keyed by the raw bits
/// of its `(outer, inner)` input stats.
///
/// Scope one cache to one orientation ([`clear`](Self::clear) between
/// them): the histograms are not part of the key. An orientation's plans
/// mostly share one stats pair; applied expensive predicates shrink an
/// input's rows and a shipped input is priced at its remote site's stats,
/// so each of those is a key of its own.
#[derive(Debug, Default)]
pub struct JoinTermCache {
    entries: Vec<JoinTerms>,
}

/// One input-stats pair's terms: the profile, and MGJN's once asked for.
#[derive(Debug)]
struct JoinTerms {
    key: [u64; 6],
    profile: JoinProfile,
    mgjn: Option<(f64, f64)>,
}

impl JoinTermCache {
    /// Forget every entry (a new orientation begins).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// A join plan's cost by `method`, walking the histograms only for an
    /// input-stats pair (and, for MGJN, a term) not seen before. Equal in
    /// every bit to [`join_cost`].
    pub fn cost(&mut self, method: JoinMethod, input: &JoinCostInput<'_>) -> Cost {
        let (o, i) = (&input.outer, &input.inner);
        let key = [o.rows, o.pages, o.row_bytes, i.rows, i.pages, i.row_bytes].map(f64::to_bits);
        let at = match self.entries.iter().position(|e| e.key == key) {
            Some(at) => at,
            None => {
                self.entries.push(JoinTerms {
                    key,
                    profile: input.profile(),
                    mgjn: None,
                });
                self.entries.len() - 1
            }
        };
        let JoinTerms { profile, mgjn, .. } = &mut self.entries[at];
        match method {
            JoinMethod::Nljn => nljn_from(input, profile),
            JoinMethod::Mgjn => mgjn_from(
                input,
                profile,
                *mgjn.get_or_insert_with(|| input.mgjn_terms()),
            ),
            JoinMethod::Hsjn => hsjn_from(input, profile),
        }
    }
}

/// Cost of hash-repartitioning a stream across `nodes` nodes (each row moves
/// with probability `(nodes-1)/nodes`).
pub fn repartition_cost(stats: &StreamStats, nodes: u16) -> Cost {
    let n = nodes.max(1) as f64;
    Cost {
        io: 0.0,
        cpu: stats.rows * (CPU_HASH + CPU_ROW),
        comm: stats.bytes() * (n - 1.0) / n,
    }
}

/// Cost of broadcasting a stream to all `nodes` nodes.
pub fn broadcast_cost(stats: &StreamStats, nodes: u16) -> Cost {
    let n = nodes.max(1) as f64;
    Cost {
        io: 0.0,
        cpu: stats.rows * CPU_ROW,
        comm: stats.bytes() * (n - 1.0),
    }
}

/// Cost of shipping a remote subplan's rows to the local engine (one
/// federated connection: per-byte transfer plus per-row marshalling).
pub fn ship_cost(stats: &StreamStats) -> Cost {
    Cost {
        io: 0.0,
        cpu: stats.rows * CPU_ROW,
        comm: stats.bytes(),
    }
}

/// Cost of a grouping operator; `sorted_input` selects the cheap streaming
/// variant, otherwise a hash aggregate is costed.
pub fn group_cost(input: &StreamStats, sorted_input: bool) -> Cost {
    if sorted_input {
        Cost {
            io: 0.0,
            cpu: input.rows * CPU_CMP,
            comm: 0.0,
        }
    } else {
        Cost {
            io: 0.0,
            cpu: input.rows * (CPU_HASH + CPU_PROBE),
            comm: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cote_catalog::ColumnDef;

    fn hist(rows: f64, ndv: f64) -> EquiDepthHistogram {
        EquiDepthHistogram::uniform(0.0, ndv, rows, ndv, 32)
    }

    fn input<'h>(
        ho: &'h EquiDepthHistogram,
        hi: &'h EquiDepthHistogram,
        ro: f64,
        ri: f64,
    ) -> JoinCostInput<'h> {
        JoinCostInput {
            outer: StreamStats::of(ro, 64.0),
            inner: StreamStats::of(ri, 64.0),
            outer_cost: Cost::ZERO,
            inner_cost: Cost::ZERO,
            outer_hist: ho,
            inner_hist: hi,
            buffer_pages: 100.0,
            out_rows: ro.max(ri),
        }
    }

    #[test]
    fn total_weights_components() {
        let c = Cost {
            io: 10.0,
            cpu: 5.0,
            comm: 1000.0,
        };
        assert!((c.total() - (40.0 + 5.0 + 2.0)).abs() < 1e-9);
        let s = c.plus(&Cost {
            io: 1.0,
            cpu: 1.0,
            comm: 0.0,
        });
        assert_eq!(s.io, 11.0);
    }

    #[test]
    fn yao_formula_limits() {
        assert_eq!(yao_pages(100.0, 0.0), 0.0);
        // Many accesses touch every page.
        assert!((yao_pages(100.0, 100_000.0) - 100.0).abs() < 1e-6);
        // Few accesses touch about that many pages.
        let y = yao_pages(10_000.0, 10.0);
        assert!(y > 9.9 && y <= 10.0, "{y}");
        // Monotone in accesses.
        assert!(yao_pages(100.0, 50.0) < yao_pages(100.0, 200.0));
    }

    #[test]
    fn stream_stats_floor() {
        let s = StreamStats::of(0.0, 0.0);
        assert_eq!(s.rows, 0.0);
        assert_eq!(s.pages, 1.0);
        assert!(s.row_bytes >= 1.0);
    }

    #[test]
    fn profile_matches_containment() {
        let ho = hist(1000.0, 100.0);
        let hi = hist(5000.0, 100.0);
        let p = bucket_join_profile(&ho, &hi, 1.0, 1.0, 50.0);
        let textbook = 1000.0 * 5000.0 / 100.0;
        assert!(
            (p.matches - textbook).abs() < textbook * 0.05,
            "{}",
            p.matches
        );
        assert!(p.max_bucket_matches > 0.0);
        assert!(p.inner_pages_touched > 0.0);
    }

    #[test]
    fn join_costs_scale_with_input_size() {
        let ho = hist(1000.0, 100.0);
        let hi = hist(5000.0, 100.0);
        let small = input(&ho, &hi, 100.0, 500.0);
        let large = input(&ho, &hi, 1000.0, 5000.0);
        for f in [nljn_cost, mgjn_cost, hsjn_cost] {
            let (cs, cl) = (f(&small).total(), f(&large).total());
            assert!(cl > cs, "cost must grow with inputs: {cs} vs {cl}");
            assert!(cs > 0.0);
        }
    }

    #[test]
    fn hash_join_spills_above_buffer() {
        let ho = hist(1_000.0, 100.0);
        let hi = hist(1_000_000.0, 100.0);
        let mut big = input(&ho, &hi, 1_000.0, 1_000_000.0);
        big.buffer_pages = 10.0;
        let spilled = hsjn_cost(&big);
        let mut roomy = input(&ho, &hi, 1_000.0, 1_000_000.0);
        roomy.buffer_pages = 1e9;
        let in_memory = hsjn_cost(&roomy);
        assert!(spilled.io > in_memory.io, "grace partitioning I/O appears");
    }

    #[test]
    fn sort_cost_external_merge() {
        let small = sort_cost(&StreamStats::of(1_000.0, 64.0), 256.0);
        assert_eq!(small.io, 0.0, "fits in sort memory");
        let big = sort_cost(&StreamStats::of(10_000_000.0, 64.0), 256.0);
        assert!(big.io > 0.0, "external merge I/O");
        assert!(big.cpu > small.cpu);
    }

    #[test]
    fn movement_costs() {
        let s = StreamStats::of(1_000.0, 100.0);
        let r = repartition_cost(&s, 4);
        let b = broadcast_cost(&s, 4);
        assert!(b.comm > r.comm, "broadcast ships (n-1) copies");
        assert_eq!(repartition_cost(&s, 1).comm, 0.0);
    }

    #[test]
    fn scan_costs_reflect_table() {
        let t = TableDef::new(
            "t",
            100_000.0,
            vec![ColumnDef::uniform("a", 100_000.0, 1000.0).with_width(100.0)],
        );
        let (c, s) = table_scan(&t);
        assert_eq!(s.rows, 100_000.0);
        assert!(c.io > 1000.0);
        let ix_few = index_scan(&t, 10.0, false);
        let ix_many = index_scan(&t, 50_000.0, false);
        assert!(ix_few.total() < ix_many.total());
        let clustered = index_scan(&t, 50_000.0, true);
        assert!(clustered.io < ix_many.io, "clustered fetch is sequential");
        // A selective index scan beats a full scan.
        assert!(ix_few.total() < c.total());
    }

    #[test]
    fn grouping_prefers_sorted_input() {
        let s = StreamStats::of(10_000.0, 64.0);
        assert!(group_cost(&s, true).total() < group_cost(&s, false).total());
    }

    #[test]
    fn index_anding_pays_per_index_but_narrows_the_fetch() {
        let t = TableDef::new(
            "t",
            1_000_000.0,
            vec![ColumnDef::uniform("a", 1_000_000.0, 1000.0).with_width(64.0)],
        );
        // Two selective indexes beat one weak one on the final fetch.
        let two = index_and_cost(&t, &[0.01, 0.01], 1_000_000.0 * 0.0001);
        let one_weak = index_scan(&t, 1_000_000.0 * 0.01, false);
        assert!(
            two.total() < one_weak.total(),
            "{} vs {}",
            two.total(),
            one_weak.total()
        );
        // More indexes cost more probes at the same output.
        let three = index_and_cost(&t, &[0.01, 0.01, 0.5], 100.0);
        let two_same_out = index_and_cost(&t, &[0.01, 0.01], 100.0);
        assert!(three.total() > two_same_out.total());
    }

    #[test]
    fn mgjn_rewind_responds_to_duplicates() {
        // Duplicate-heavy join columns (low NDV) raise the merge's rewind
        // term relative to a duplicate-free join of the same volume.
        let dup = EquiDepthHistogram::uniform(0.0, 100.0, 1_000_000.0, 100.0, 32);
        let uniq = EquiDepthHistogram::uniform(0.0, 1_000_000.0, 1_000_000.0, 1_000_000.0, 32);
        fn input(ho: &EquiDepthHistogram) -> JoinCostInput<'_> {
            JoinCostInput {
                outer: StreamStats::of(1_000_000.0, 64.0),
                inner: StreamStats::of(1_000_000.0, 64.0),
                outer_cost: Cost::ZERO,
                inner_cost: Cost::ZERO,
                outer_hist: ho,
                inner_hist: ho,
                buffer_pages: 1000.0,
                out_rows: 1_000_000.0,
            }
        }
        let c_dup = mgjn_cost(&input(&dup));
        let c_uniq = mgjn_cost(&input(&uniq));
        assert!(
            c_dup.cpu > c_uniq.cpu,
            "duplicates make merging dearer: {} vs {}",
            c_dup.cpu,
            c_uniq.cpu
        );
    }

    #[test]
    fn cached_terms_price_every_plan_bit_identically() {
        let (ho, hi) = (hist(50_000.0, 500.0), hist(20_000.0, 800.0));
        let mut cache = JoinTermCache::default();
        // Two stats pairs in one orientation (say, a masked outer), each
        // asked for twice and for every method in turn.
        for _ in 0..2 {
            for (ro, out) in [(50_000.0, 20_000.0), (5_000.0, 2_000.0)] {
                let mut plan = input(&ho, &hi, ro, 20_000.0);
                plan.out_rows = out;
                plan.outer_cost = Cost {
                    io: ro / 100.0,
                    cpu: 3.0,
                    comm: 0.0,
                };
                for m in JoinMethod::ALL {
                    let fresh = join_cost(m, &plan);
                    assert_eq!(cache.cost(m, &plan), fresh, "{m:?}");
                }
            }
        }
        assert_eq!(cache.entries.len(), 2, "one walk per stats pair");
        cache.clear();
        assert!(cache.entries.is_empty());
    }
}
