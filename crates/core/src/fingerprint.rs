//! Structural statement fingerprints: the cache key shared by the §1.2
//! statement-cache baseline, `cote-sql` and the service's sharded cache.

use cote_common::{ColRef, TableId, TableRef};
use cote_query::{PredOp, Query, QueryBlock};
use std::hash::{Hash, Hasher};

/// The literal-normalizing structural hasher every fingerprint path shares.
///
/// Both the built-[`QueryBlock`] fingerprint below and `cote-sql`'s
/// AST-level fingerprint feed the *same canonical event sequence* through
/// this hasher, so a statement parsed from SQL text and the equivalent
/// hand-built spec produce bit-identical fingerprints — the statement cache
/// can be consulted from either entry point. Literal constants never enter
/// the hash (only operator *kinds* do): `WHERE a = 1` and `WHERE a = 2` are
/// one statement with a parameter slot.
///
/// Canonical event order per block: [`Self::begin_block`], every join
/// predicate in declaration order, every local predicate in declaration
/// order, every expensive predicate's column, then [`Self::block_shape`],
/// then each child block recursively in order.
#[derive(Default)]
pub struct StructuralHasher {
    h: cote_common::fxhash::FxHasher,
}

impl StructuralHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a block: its FROM list as catalog table ids, in FROM order.
    pub fn begin_block<I: ExactSizeIterator<Item = TableId>>(&mut self, tables: I) {
        tables.len().hash(&mut self.h);
        for t in tables {
            t.hash(&mut self.h);
        }
    }

    /// One join predicate (orientation is significant — lowering preserves
    /// the written order, so both paths see the same columns).
    pub fn join_pred(&mut self, left: ColRef, right: ColRef, implied: bool, outer: Option<u16>) {
        (left, right, implied, outer).hash(&mut self.h);
    }

    /// One local predicate: column plus operator kind. The literal operand
    /// is a parameter slot and is *not* hashed.
    pub fn local_pred(&mut self, column: ColRef, op: &PredOp) {
        column.hash(&mut self.h);
        let kind: u8 = match op {
            PredOp::Eq(_) => 0,
            PredOp::Le(_) => 1,
            PredOp::Ge(_) => 2,
            PredOp::Between(_, _) => 3,
            // Opaque predicates differ structurally per selectivity class.
            PredOp::Opaque(_) => 4,
        };
        kind.hash(&mut self.h);
    }

    /// One expensive (deferrable) predicate's column. Selectivity and cost
    /// are statistics, not structure.
    pub fn expensive_pred(&mut self, column: ColRef) {
        column.hash(&mut self.h);
    }

    /// Close a block: GROUP BY / ORDER BY shapes, FETCH FIRST presence, and
    /// the child-block count (children are then hashed recursively).
    pub fn block_shape(
        &mut self,
        group_by: &[ColRef],
        order_by: &[ColRef],
        has_first_n: bool,
        children: usize,
    ) {
        group_by.hash(&mut self.h);
        order_by.hash(&mut self.h);
        has_first_n.hash(&mut self.h);
        children.hash(&mut self.h);
    }

    /// The finished fingerprint.
    pub fn finish(self) -> u64 {
        self.h.finish()
    }
}

fn hash_block(block: &QueryBlock, sh: &mut StructuralHasher) {
    sh.begin_block((0..block.n_tables()).map(|i| block.table(TableRef(i as u8))));
    for p in block.join_preds() {
        sh.join_pred(p.left, p.right, p.implied, p.outer_join);
    }
    for p in block.local_preds() {
        sh.local_pred(p.column, &p.op);
    }
    for p in block.expensive_preds() {
        sh.expensive_pred(p.column);
    }
    sh.block_shape(
        block.group_by(),
        block.order_by(),
        block.first_n().is_some(),
        block.children().len(),
    );
    for c in block.children() {
        hash_block(c, sh);
    }
}

/// Structural fingerprint of a query.
pub fn fingerprint(query: &Query) -> u64 {
    let mut sh = StructuralHasher::new();
    hash_block(&query.root, &mut sh);
    sh.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cote_catalog::{Catalog, ColumnDef, TableDef};
    use cote_query::QueryBlockBuilder;

    pub(crate) fn catalog() -> Catalog {
        let mut b = Catalog::builder();
        for i in 0..3 {
            b.add_table(TableDef::new(
                format!("t{i}"),
                100.0,
                vec![
                    ColumnDef::uniform("c0", 100.0, 10.0),
                    ColumnDef::uniform("c1", 100.0, 10.0),
                ],
            ));
        }
        b.build().unwrap()
    }

    pub(crate) fn query(cat: &Catalog, constant: f64, orderby: bool) -> Query {
        let mut b = QueryBlockBuilder::new();
        b.add_table(TableId(0));
        b.add_table(TableId(1));
        b.join(ColRef::new(TableRef(0), 0), ColRef::new(TableRef(1), 0));
        b.local(ColRef::new(TableRef(0), 1), PredOp::Eq(constant));
        if orderby {
            b.order_by(vec![ColRef::new(TableRef(1), 1)]);
        }
        Query::new("q", b.build(cat).unwrap())
    }

    #[test]
    fn constants_are_parameters_structure_is_identity() {
        let cat = catalog();
        let a = query(&cat, 1.0, false);
        let b = query(&cat, 99.0, false);
        let c = query(&cat, 1.0, true);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "literals don't change the statement"
        );
        assert_ne!(fingerprint(&a), fingerprint(&c), "ORDER BY does");
    }

    #[test]
    fn subquery_structure_matters() {
        let cat = catalog();
        let mut outer_plain = QueryBlockBuilder::new();
        outer_plain.add_table(TableId(0));
        let plain = Query::new("p", outer_plain.build(&cat).unwrap());

        let mut sub = QueryBlockBuilder::new();
        sub.add_table(TableId(1));
        let sub = sub.build(&cat).unwrap();
        let mut outer = QueryBlockBuilder::new();
        outer.add_table(TableId(0));
        outer.child(sub);
        let nested = Query::new("n", outer.build(&cat).unwrap());
        assert_ne!(fingerprint(&plain), fingerprint(&nested));
    }
}
