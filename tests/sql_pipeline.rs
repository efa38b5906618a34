//! Integration test: the SQL text front-end against the rest of the
//! pipeline.
//!
//! The load-bearing property is the *differential oracle*: a statement
//! arriving as SQL text must be indistinguishable, to the estimator and the
//! statement cache, from the same query built programmatically. The corpus
//! renderer (`cote_workloads::sql`) emits text whose parse/bind/lower output
//! is bit-for-bit the query `QuerySpec::build` constructs, so we can assert
//! equality of fingerprints, block shape, plan counts and predicted seconds
//! across the two entry paths — no tolerance, no "close enough".

use cote::{Cote, TimeModel};
use cote_optimizer::{Mode, OptimizerConfig};
use cote_service::{Advice, LevelChoice, ShardedCache};
use cote_workloads::generators::{query_spec, GraphShape, QuerySpec};
use cote_workloads::sql::{spec_to_sql, sql_corpus};
use proptest::prelude::*;

fn fixed_model() -> TimeModel {
    TimeModel::from_coefficients(&[2.5e-6, 3.0e-6, 1.5e-6, 1e-4])
}

/// Every corpus statement estimates identically whether it enters as SQL
/// text or as a hand-built query spec: same fingerprint, same block shape,
/// same per-method plan counts, same predicted seconds.
#[test]
fn sql_corpus_satisfies_the_differential_oracle() {
    for (spec, sql) in sql_corpus(24, 2, 9, 0xC0FE) {
        let (cat, hand) = spec.build();
        let compiled = cote_sql::compile(&sql, &cat, &hand.name)
            .unwrap_or_else(|e| panic!("{sql}: {}", e.one_line(&sql)));

        assert_eq!(compiled.fingerprint, cote::fingerprint(&hand), "{spec:?}");
        assert_eq!(
            compiled.fingerprint,
            cote::fingerprint(&compiled.query),
            "{spec:?}"
        );
        let (a, b) = (&compiled.query.root, &hand.root);
        assert_eq!(a.n_tables(), b.n_tables(), "{spec:?}");
        assert_eq!(a.join_preds().len(), b.join_preds().len(), "{spec:?}");
        assert_eq!(a.group_by().len(), b.group_by().len(), "{spec:?}");
        assert_eq!(a.order_by().len(), b.order_by().len(), "{spec:?}");

        let mode = if spec.partitioned {
            Mode::Parallel
        } else {
            Mode::Serial
        };
        let cote = Cote::new(OptimizerConfig::high(mode), fixed_model());
        let ea = cote.estimate(&cat, &compiled.query).expect("text path");
        let eb = cote.estimate(&cat, &hand).expect("built path");
        assert_eq!(ea.counts.nljn, eb.counts.nljn, "{spec:?}");
        assert_eq!(ea.counts.mgjn, eb.counts.mgjn, "{spec:?}");
        assert_eq!(ea.counts.hsjn, eb.counts.hsjn, "{spec:?}");
        assert_eq!(ea.detail.totals.pairs, eb.detail.totals.pairs, "{spec:?}");
        assert_eq!(ea.seconds, eb.seconds, "{spec:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// AST → SQL → AST round trip: rendering a parsed statement and parsing
    /// it again reproduces the same AST (positions excluded by design — the
    /// `Pos` newtype compares vacuously).
    #[test]
    fn render_parse_round_trip(spec in query_spec(2, 12)) {
        let sql = spec_to_sql(&spec);
        let ast = cote_sql::parse(&sql).expect("corpus SQL parses");
        let rendered = cote_sql::render(&ast);
        let again = cote_sql::parse(&rendered).expect("rendered SQL parses");
        prop_assert_eq!(&ast, &again, "{} !~ {}", sql, rendered);
        // Rendering is a fixpoint after one normalization.
        prop_assert_eq!(cote_sql::render(&again), rendered);
    }
}

fn chain3_catalog() -> cote_catalog::Catalog {
    QuerySpec {
        shape: GraphShape::Chain,
        tables: 3,
        order_by: false,
        group_by: false,
        partitioned: false,
        indexes: false,
        seed: 11,
    }
    .build()
    .0
}

/// Literal variants of one statement land on the same entry in both cache
/// layers — the core LRU statement cache and the service's sharded advice
/// cache — while an operator change does not.
#[test]
fn literal_variants_share_cache_entries_across_both_layers() {
    let cat = chain3_catalog();
    let compile = |sql: &str| cote_sql::compile(sql, &cat, "q").expect(sql);
    let a = compile("SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c1 = 1");
    let b = compile("SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c1 = 250.5");
    let c = compile("SELECT * FROM t0, t1 WHERE t0.c0 = t1.c0 AND t0.c1 <= 1");
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_ne!(a.fingerprint, c.fingerprint);

    let mut sc = cote::StatementCache::new();
    assert!(sc.lookup(&a.query).is_none());
    sc.record(&a.query, 0.042);
    assert_eq!(sc.lookup(&b.query), Some(0.042), "literal variant hits");
    assert!(sc.lookup(&c.query).is_none(), "operator change misses");

    let shard = ShardedCache::new(4, 64);
    let advice = Advice {
        choice: LevelChoice::Greedy { by_mop: false },
        levels: vec![],
        counts: Default::default(),
        error_margin: 0.0,
        degraded: false,
    };
    shard.insert(a.fingerprint, advice);
    assert!(shard.get(b.fingerprint).is_some(), "literal variant hits");
    assert!(shard.get(c.fingerprint).is_none(), "operator change misses");
}

/// Malformed or unresolvable statements fail with positioned errors at the
/// pipeline entry point — never panics, never a stack overflow.
#[test]
fn front_end_errors_are_positioned_and_bounded() {
    let cat = chain3_catalog();
    for (sql, needle) in [
        ("SELECT * FROM", "expected"),
        ("SELECT * FROM nowhere", "unknown table 'nowhere'"),
        (
            "SELECT * FROM t0 WHERE t0.nope = 1",
            "unknown column 'nope'",
        ),
        ("SELECT * FROM t0 AS where", "reserved word 'where'"),
        (
            "SELECT * FROM t0 WHERE ghost.c0 = t0.c0",
            "unknown table or alias 'ghost'",
        ),
    ] {
        let e = cote_sql::compile(sql, &cat, "q").unwrap_err();
        assert!(e.message.contains(needle), "{sql}: {}", e.message);
        assert!(
            e.one_line(sql).starts_with("error at 1:"),
            "{sql}: {}",
            e.one_line(sql)
        );
    }

    // Subquery nesting past the cap degrades into a clean error.
    let depth = 40;
    let mut deep = String::new();
    for _ in 0..depth {
        deep.push_str("SELECT * FROM t0 WHERE t0.c0 IN (");
    }
    deep.push_str("SELECT * FROM t1");
    deep.push_str(&")".repeat(depth));
    let e = cote_sql::compile(&deep, &cat, "q").unwrap_err();
    assert!(e.message.contains("nesting exceeds"), "{}", e.message);

    // A FROM list past the 64-quantifier cap is rejected before lowering.
    let from: Vec<String> = (0..70).map(|i| format!("t0 a{i}")).collect();
    let wide = format!("SELECT * FROM {}", from.join(", "));
    let e = cote_sql::compile(&wide, &cat, "q").unwrap_err();
    assert!(
        e.message.contains("exceeds 64 table references"),
        "{}",
        e.message
    );
}
