//! Differential test oracle for intra-query parallel enumeration.
//!
//! The contract under test (DESIGN.md § Parallel enumeration): for any
//! query and any worker-thread count, the parallel enumerator produces the
//! *same optimization result* as the serial walk — same best-plan cost,
//! same per-method generated-plan counts, same MEMO entries level by
//! level. The oracle is the serial enumerator itself; a random corpus of
//! chain/star/cycle/clique queries (with ORDER BY, GROUP BY and
//! partitioned-table variety) drives both sides.

use cote_optimizer::{Mode, Optimizer, OptimizerConfig};
use cote_workloads::generators::{corpus, query_spec, GraphShape, QuerySpec};
use proptest::prelude::*;

mod common;
use common::Json;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn config_for(spec: &QuerySpec) -> OptimizerConfig {
    let mode = if spec.partitioned {
        Mode::Parallel
    } else {
        Mode::Serial
    };
    OptimizerConfig::high(mode)
}

/// Per-level MEMO entry counts: `counts[k]` = entries covering `k+1` tables.
fn level_histogram(memo: &cote_optimizer::Memo<cote_optimizer::PlanList>) -> Vec<usize> {
    let mut hist = Vec::new();
    for (_, e) in memo.iter() {
        let level = e.set.len();
        if hist.len() < level {
            hist.resize(level, 0);
        }
        hist[level - 1] += 1;
    }
    hist
}

/// Optimize one spec at `threads` workers and return the comparable facts.
#[allow(clippy::type_complexity)]
fn facts(spec: &QuerySpec, threads: usize) -> (f64, u64, u64, u64, Vec<usize>, Vec<(u64, usize)>) {
    let (cat, q) = spec.build();
    let cfg = config_for(spec).with_enum_threads(threads);
    let r = Optimizer::new(cfg)
        .optimize_query(&cat, &q)
        .unwrap_or_else(|e| panic!("{spec:?} @ {threads} threads: {e}"));
    let block = &r.blocks[0];
    // Entry identity: (set bits, plan-list length) in MEMO id order — the
    // merge contract says ids and list shapes are serial-identical.
    let entries: Vec<(u64, usize)> = block
        .memo
        .iter()
        .map(|(_, e)| (e.set.bits(), e.payload.plans.len()))
        .collect();
    (
        block.best_cost,
        r.stats.plans_generated.total(),
        r.stats.pairs_enumerated,
        r.stats.joins_enumerated,
        level_histogram(&block.memo),
        entries,
    )
}

fn assert_identical(spec: &QuerySpec) {
    let serial = facts(spec, 1);
    for t in THREADS {
        let par = facts(spec, t);
        assert_eq!(
            serial.0, par.0,
            "{spec:?}: best cost diverged at {t} threads"
        );
        assert_eq!(
            serial.1, par.1,
            "{spec:?}: plan count diverged at {t} threads"
        );
        assert_eq!(serial.2, par.2, "{spec:?}: pairs diverged at {t} threads");
        assert_eq!(serial.3, par.3, "{spec:?}: joins diverged at {t} threads");
        assert_eq!(
            serial.4, par.4,
            "{spec:?}: per-level MEMO histogram diverged at {t} threads"
        );
        assert_eq!(
            serial.5, par.5,
            "{spec:?}: MEMO entry order/shape diverged at {t} threads"
        );
    }
}

#[test]
fn fixed_corpus_parallel_matches_serial() {
    // A deterministic 20-query corpus across all four shapes; every thread
    // count must reproduce the serial result exactly.
    for spec in corpus(20, 2, 10, 0xD1FF) {
        assert_identical(&spec);
    }
}

/// The corner cases mask striping must get right: tiny queries (levels with
/// fewer masks than workers) and the densest/biggest graphs.
fn extreme_specs() -> Vec<QuerySpec> {
    [
        (GraphShape::Chain, 2),
        (GraphShape::Chain, 3),
        (GraphShape::Star, 12),
        (GraphShape::Cycle, 9),
        (GraphShape::Clique, 7),
    ]
    .into_iter()
    .map(|(shape, tables)| QuerySpec {
        shape,
        tables,
        order_by: true,
        group_by: shape == GraphShape::Cycle,
        partitioned: shape == GraphShape::Star,
        indexes: true,
        seed: 0xBEEF ^ tables as u64,
    })
    .collect()
}

#[test]
fn shape_extremes_parallel_matches_serial() {
    for spec in extreme_specs() {
        assert_identical(&spec);
    }
}

/// Layout-differential oracle: the seeded corpus plus the shape extremes,
/// at every thread count, against goldens captured from the pre-refactor
/// (array-of-structs) MEMO layout. Best cost is compared on exact f64 bits;
/// any divergence means a layout refactor changed optimizer output.
#[test]
fn layout_matches_pre_refactor_goldens() {
    let mut specs = corpus(20, 2, 10, 0xD1FF);
    specs.extend(extreme_specs());
    let rows: Vec<Json> = specs
        .iter()
        .map(|spec| {
            let serial = facts(spec, 1);
            for t in &THREADS[1..] {
                assert_eq!(serial, facts(spec, *t), "{spec:?} diverged at {t} threads");
            }
            let (best_cost, plans, pairs, joins, hist, entries) = serial;
            Json::Obj(vec![
                (
                    "spec".into(),
                    Json::Str(format!(
                        "{:?}-{}t-seed{:x}",
                        spec.shape, spec.tables, spec.seed
                    )),
                ),
                ("best_cost_bits".into(), Json::f64_bits(best_cost)),
                ("plans_generated".into(), Json::u64(plans)),
                ("pairs".into(), Json::u64(pairs)),
                ("joins".into(), Json::u64(joins)),
                (
                    "level_histogram".into(),
                    Json::Arr(hist.iter().map(|&c| Json::u64(c as u64)).collect()),
                ),
                (
                    "entries".into(),
                    Json::Arr(
                        entries
                            .iter()
                            .map(|&(bits, plans)| {
                                Json::Arr(vec![Json::u64(bits), Json::u64(plans as u64)])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    common::check_fixture(
        "tests/fixtures/memo_layout_optimizer.json",
        &Json::Obj(vec![
            ("suite".into(), Json::Str("memo-layout-optimizer".into())),
            (
                "threads".into(),
                Json::Arr(THREADS.iter().map(|&t| Json::u64(t as u64)).collect()),
            ),
            ("specs".into(), Json::Arr(rows)),
        ]),
    );
}

/// Exchange and ship wrappers are priced for every candidate but stored only
/// under a surviving join: on the parallel-mode sets, at every thread count,
/// the priced counts equal the eager-allocation era's (constants read off
/// the commit before wrappers were deferred), no stored wrapper is an orphan,
/// and the arena holds the same number of nodes whatever the thread count.
#[test]
fn deferred_wrappers_keep_their_counts_and_leave_no_orphans() {
    use cote_optimizer::PlanKind;
    for (name, move_plans, sort_plans) in [("tpch-p", 45_801, 38), ("random-p", 119_126, 70)] {
        let w = cote_workloads::by_name(name).unwrap();
        let mut nodes_at_1 = None;
        for t in THREADS {
            let opt = Optimizer::new(OptimizerConfig::high(w.mode).with_enum_threads(t));
            let mut stats = cote_optimizer::CompileStats::default();
            for q in &w.queries {
                let r = opt.optimize_query(&w.catalog, q).unwrap();
                stats.add(&r.stats);
                for b in &r.blocks {
                    assert_eq!(b.stats.plan_nodes, b.arena.len() as u64);
                    let ids = || (0..b.arena.len() as u32).map(cote_optimizer::PlanId);
                    // A join's inputs, and the exchange a ship sits on.
                    let mut under_a_join = vec![false; b.arena.len()];
                    for id in ids() {
                        if let PlanKind::Join { outer, inner, .. } = b.arena.node(id).kind {
                            for side in [outer, inner] {
                                under_a_join[side.0 as usize] = true;
                                if let PlanKind::Ship { input, .. } = b.arena.node(side).kind {
                                    under_a_join[input.0 as usize] = true;
                                }
                            }
                        }
                    }
                    for id in ids() {
                        let wrapper = matches!(
                            b.arena.node(id).kind,
                            PlanKind::Repartition { .. }
                                | PlanKind::Broadcast { .. }
                                | PlanKind::Ship { .. }
                        );
                        assert!(
                            !wrapper || under_a_join[id.0 as usize],
                            "{}: orphan wrapper {id:?} at {t} threads",
                            q.name
                        );
                    }
                }
            }
            assert_eq!(stats.move_plans, move_plans, "{name} at {t} threads");
            assert_eq!(stats.sort_plans, sort_plans, "{name} at {t} threads");
            assert_eq!(
                *nodes_at_1.get_or_insert(stats.plan_nodes),
                stats.plan_nodes,
                "{name}: plan_nodes at {t} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_specs_parallel_matches_serial(spec in query_spec(2, 9)) {
        assert_identical(&spec);
    }
}
