//! Seeded SQL statement generator for the wire workloads, with the
//! self-check that runs before anything is timed.
//!
//! Statements join a permutation of 3–10 of the synthetic tables `t0..t9`
//! (eight columns `c0..c7` each, the `linear-*`/`star-*`/`cycle-*` catalog)
//! as a chain, a star or a cycle, with 1–3 equality predicates per edge and
//! an optional `GROUP BY` / `ORDER BY`.

use cote_catalog::Catalog;
use std::collections::HashSet;

/// SplitMix64: the benchmark's own generator, so the statement stream does
/// not move when the repo's RNG does.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`. The modulo bias is below 2^-50 for the `n` here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const TABLES: usize = 10;
const COLUMNS: usize = 8;
pub const MIN_TABLES: usize = 3;

/// One statement's text.
fn statement(rng: &mut Rng, n: usize) -> String {
    let mut ids: Vec<usize> = (0..TABLES).collect();
    for i in 0..n {
        let j = i + rng.below(TABLES - i);
        ids.swap(i, j);
    }
    let t = &ids[..n];
    let shape = rng.below(3);
    let mut edges: Vec<(usize, usize)> = match shape {
        1 => (1..n).map(|i| (t[0], t[i])).collect(),
        _ => (0..n - 1).map(|i| (t[i], t[i + 1])).collect(),
    };
    if shape == 2 {
        edges.push((t[n - 1], t[0]));
    }
    let mut conds = Vec::new();
    for &(a, b) in &edges {
        let preds = 1 + rng.below(3);
        let (ca, cb) = (rng.below(COLUMNS), rng.below(COLUMNS));
        for k in 0..preds {
            conds.push(format!(
                "t{a}.c{} = t{b}.c{}",
                (ca + k) % COLUMNS,
                (cb + k) % COLUMNS
            ));
        }
    }
    let from: Vec<String> = t.iter().map(|i| format!("t{i}")).collect();
    let mut sql = format!(
        "SELECT * FROM {} WHERE {}",
        from.join(", "),
        conds.join(" AND ")
    );
    if rng.below(3) == 0 {
        sql.push_str(&format!(
            " GROUP BY t{}.c{}",
            t[rng.below(n)],
            rng.below(COLUMNS)
        ));
    }
    if rng.below(3) == 0 {
        sql.push_str(&format!(
            " ORDER BY t{}.c{}",
            t[rng.below(n)],
            rng.below(COLUMNS)
        ));
    }
    sql
}

/// A generated statement taken through the SQL front-end in process.
pub struct Stmt {
    pub sql: String,
    /// The request frame, rendered once: `ESTIMATE SQL <sql>\n`.
    pub frame: Vec<u8>,
    /// `cote_sql::ast_fingerprint`, checked equal to `cote::fingerprint`.
    pub fingerprint: u64,
}

/// Parse → bind → lower one statement, checking both fingerprints agree.
fn front_end(sql: String, catalog: &Catalog) -> Result<Stmt, String> {
    let ast = cote_sql::parse(&sql).map_err(|e| format!("parse: {} in {sql}", e.one_line(&sql)))?;
    let bound = cote_sql::bind(&ast, catalog)
        .map_err(|e| format!("bind: {} in {sql}", e.one_line(&sql)))?;
    let fingerprint = cote_sql::ast_fingerprint(&bound);
    let query = cote_sql::lower(&bound, catalog, "sql")
        .map_err(|e| format!("lower: {} in {sql}", e.one_line(&sql)))?;
    if cote::fingerprint(&query) != fingerprint {
        return Err(format!(
            "ast fingerprint differs from the lowered query's: {sql}"
        ));
    }
    let frame = format!("ESTIMATE SQL {sql}\n").into_bytes();
    Ok(Stmt {
        sql,
        frame,
        fingerprint,
    })
}

/// What the wire traffic shares between requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sharing {
    /// 64 statements cycled: after warm-up every request hits the cache.
    Hot,
    /// Many times the cache's 4096 slots, all distinct: every request misses.
    Cold,
}

pub const HOT_STATEMENTS: usize = 64;
/// Four times the statement cache, so a statement has long been evicted
/// when the cycle comes round to it again.
pub const COLD_STATEMENTS: usize = 16_384;

fn texts(sharing: Sharing, seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0xc07e);
    match sharing {
        // Stratified by table count (eight of each, 3..=10): statement size
        // drives parse time, and 64 unstratified draws would move the hot
        // round trip by a few percent from seed to seed.
        Sharing::Hot => (0..HOT_STATEMENTS)
            .map(|i| statement(&mut rng, MIN_TABLES + i % 8))
            .collect(),
        Sharing::Cold => (0..COLD_STATEMENTS)
            .map(|_| {
                let n = MIN_TABLES + rng.below(8);
                statement(&mut rng, n)
            })
            .collect(),
    }
}

/// Generate the statement pool for `sharing` and check it: the same seed
/// gives byte-identical text, every statement passes the front-end against
/// `catalog` with matching fingerprints, and the distinct-fingerprint share
/// is exactly 64 of 64 (hot) or at least 99% (cold).
pub fn pool(
    sharing: Sharing,
    seed: u64,
    catalog: &Catalog,
    threads: usize,
) -> Result<Vec<Stmt>, String> {
    let mut sqls = texts(sharing, seed);
    if sqls != texts(sharing, seed) {
        return Err("generator is not deterministic for a seed".into());
    }
    if sharing == Sharing::Hot {
        // Replace structural duplicates, deterministically, until 64 differ.
        let mut rng = Rng::new(seed ^ 0xd0d0);
        let mut seen = HashSet::new();
        for (i, sql) in sqls.iter_mut().enumerate() {
            while !seen.insert(front_end(sql.clone(), catalog)?.fingerprint) {
                *sql = statement(&mut rng, MIN_TABLES + i % 8);
            }
        }
    }
    let chunk = sqls.len().div_ceil(threads.max(1));
    let mut parts: Vec<Result<Vec<Stmt>, String>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = sqls
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    c.iter()
                        .map(|sql| front_end(sql.clone(), catalog))
                        .collect()
                })
            })
            .collect();
        for h in handles {
            parts.push(
                h.join()
                    .unwrap_or_else(|_| Err("front-end thread panicked".into())),
            );
        }
    });
    let mut stmts = Vec::with_capacity(sqls.len());
    for p in parts {
        stmts.extend(p?);
    }
    let distinct = stmts
        .iter()
        .map(|s| s.fingerprint)
        .collect::<HashSet<_>>()
        .len();
    let enough = match sharing {
        Sharing::Hot => distinct == HOT_STATEMENTS,
        Sharing::Cold => distinct * 100 >= stmts.len() * 99,
    };
    if !enough {
        return Err(format!(
            "{sharing:?} pool has {distinct} distinct fingerprints of {}",
            stmts.len()
        ));
    }
    Ok(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_pass_their_self_check_and_differ_by_seed() {
        let catalog = cote_workloads::by_name("linear-s").unwrap().catalog;
        let a = pool(Sharing::Hot, 1, &catalog, 2).unwrap();
        let b = pool(Sharing::Hot, 2, &catalog, 2).unwrap();
        assert_eq!(a.len(), HOT_STATEMENTS);
        assert_ne!(a[0].sql, b[0].sql);
        for (i, s) in a.iter().enumerate() {
            let from = s.sql.split(" WHERE ").next().unwrap();
            assert_eq!(
                from.matches(", ").count() + 1,
                MIN_TABLES + i % 8,
                "{}",
                s.sql
            );
        }
    }
}
