//! Name resolution: AST → optimizable [`Query`] against a catalog.

use std::collections::HashMap;

use sdp_catalog::{Catalog, ColId, RelId};
use sdp_query::{ColRef, JoinEdge, JoinGraph, PredOp, Predicate, Query, RelSet};

use crate::ast::{Comparison, Condition, QualifiedColumn, SelectStatement};
use crate::SqlError;

fn bind_err<T>(message: impl Into<String>) -> Result<T, SqlError> {
    Err(SqlError::Bind {
        message: message.into(),
    })
}

/// Bind a parsed statement against the catalog.
pub fn bind(catalog: &Catalog, stmt: &SelectStatement) -> Result<Query, SqlError> {
    if stmt.from.is_empty() {
        return bind_err("empty FROM list");
    }
    // `JoinGraph::new` asserts this; a statement is outside input.
    if stmt.from.len() > RelSet::MAX_RELATIONS {
        return bind_err(format!(
            "at most {} relations per statement, got {}",
            RelSet::MAX_RELATIONS,
            stmt.from.len()
        ));
    }

    // Resolve tables (by case-insensitive name) and aliases.
    let mut by_name: HashMap<String, RelId> = HashMap::new();
    for rel in catalog.relations() {
        by_name.insert(rel.name.to_ascii_lowercase(), rel.id);
    }
    let mut aliases: HashMap<String, usize> = HashMap::new();
    let mut bindings: Vec<RelId> = Vec::with_capacity(stmt.from.len());
    for (node, tref) in stmt.from.iter().enumerate() {
        let Some(&rel) = by_name.get(&tref.table.to_ascii_lowercase()) else {
            return bind_err(format!("unknown table `{}`", tref.table));
        };
        if aliases
            .insert(tref.alias.to_ascii_lowercase(), node)
            .is_some()
        {
            return bind_err(format!("duplicate alias `{}`", tref.alias));
        }
        bindings.push(rel);
    }

    let resolve = |qc: &QualifiedColumn| -> Result<ColRef, SqlError> {
        let Some(&node) = aliases.get(&qc.qualifier.to_ascii_lowercase()) else {
            return bind_err(format!("unknown table alias `{}`", qc.qualifier));
        };
        let relation = catalog
            .relation(bindings[node])
            .expect("binding is valid by construction");
        let col = relation
            .columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(&qc.column))
            .map(|c| c.id);
        match col {
            Some(col) => Ok(ColRef { node, col }),
            None => bind_err(format!(
                "relation `{}` (alias `{}`) has no column `{}`",
                relation.name, qc.qualifier, qc.column
            )),
        }
    };

    let mut edges: Vec<JoinEdge> = Vec::new();
    let mut filters: Vec<Predicate> = Vec::new();
    for cond in &stmt.conditions {
        match cond {
            Condition::Join { left, right } => {
                let l = resolve(left)?;
                let r = resolve(right)?;
                if l.node == r.node {
                    return bind_err(format!(
                        "join condition `{}.{} = {}.{}` references one table",
                        left.qualifier, left.column, right.qualifier, right.column
                    ));
                }
                edges.push(JoinEdge::new(l, r));
            }
            Condition::Filter { column, op, value } => {
                let c = resolve(column)?;
                let op = match op {
                    Comparison::Eq => PredOp::Eq,
                    Comparison::Lt => PredOp::Lt,
                    Comparison::Le => PredOp::Le,
                    Comparison::Gt => PredOp::Gt,
                    Comparison::Ge => PredOp::Ge,
                };
                filters.push(Predicate::new(c, op, *value));
            }
        }
    }

    let group_column = stmt
        .group_by
        .as_ref()
        .map(|gb| resolve(&gb.column))
        .transpose()?;
    let order_column = stmt
        .order_by
        .as_ref()
        .map(|ob| resolve(&ob.column))
        .transpose()?;

    // `resolve` (and its borrow of `bindings`) is no longer used past
    // this point; shadow it away so `bindings` can move.
    let mut graph = JoinGraph::new(bindings, edges);
    for f in filters {
        graph.add_filter(f);
    }
    let mut query = Query::new(graph);
    if let Some(col) = group_column {
        query = query.with_group_by(col);
    }
    if let Some(col) = order_column {
        query = query.with_order_by(col);
    }
    Ok(query)
}

/// Look up a column id by name on a relation (helper shared with the
/// renderer's tests).
pub(crate) fn column_name(catalog: &Catalog, rel: RelId, col: ColId) -> String {
    catalog
        .relation(rel)
        .ok()
        .and_then(|r| r.column(col).map(|c| c.name.clone()))
        .unwrap_or_else(|| format!("c{}", col.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    #[test]
    fn binds_tables_aliases_and_columns() {
        let catalog = Catalog::paper();
        let q = parse_query(
            &catalog,
            "SELECT * FROM R5 a, R6 b, R7 WHERE a.c0 = b.c1 AND b.c2 = R7.c3",
        )
        .unwrap();
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.graph.relation(0), RelId(5));
        assert_eq!(q.graph.relation(2), RelId(7));
        assert_eq!(q.graph.edges().len(), 2);
    }

    /// `SELECT * FROM R1 t0, …, R1 t{n-1}` chained on `c0`.
    fn chain_statement(n: usize) -> String {
        let from: Vec<String> = (0..n).map(|i| format!("R1 t{i}")).collect();
        let on: Vec<String> = (1..n).map(|i| format!("t{}.c0 = t{i}.c0", i - 1)).collect();
        format!(
            "SELECT * FROM {} WHERE {}",
            from.join(", "),
            on.join(" AND ")
        )
    }

    #[test]
    fn more_relations_than_a_relset_holds_is_a_bind_error() {
        // `JoinGraph::new` asserts the bound; a statement must never
        // reach it (this one used to panic the calling thread).
        let catalog = Catalog::paper();
        let widest = parse_query(&catalog, &chain_statement(RelSet::MAX_RELATIONS)).unwrap();
        assert_eq!(widest.num_relations(), RelSet::MAX_RELATIONS);
        let err = parse_query(&catalog, &chain_statement(RelSet::MAX_RELATIONS + 1)).unwrap_err();
        match err {
            SqlError::Bind { message } => {
                assert!(message.contains("at most 64 relations"), "{message}")
            }
            other => panic!("expected a bind error, got {other}"),
        }
    }

    #[test]
    fn same_table_twice_needs_aliases() {
        let catalog = Catalog::paper();
        // Self-join via two aliases works…
        let q = parse_query(&catalog, "SELECT * FROM R5 a, R5 b WHERE a.c0 = b.c0").unwrap();
        assert_eq!(q.graph.relation(0), q.graph.relation(1));
        // …duplicate aliases do not.
        let err = parse_query(&catalog, "SELECT * FROM R5 a, R6 a WHERE a.c0 = a.c1").unwrap_err();
        assert!(err.to_string().contains("duplicate alias"));
    }

    #[test]
    fn filters_and_order_by_bind() {
        let catalog = Catalog::paper();
        let q = parse_query(
            &catalog,
            "SELECT * FROM R3 a, R4 b WHERE a.c0 = b.c0 AND a.c5 >= 100 ORDER BY b.c0",
        )
        .unwrap();
        assert_eq!(q.graph.filters().len(), 1);
        assert_eq!(q.graph.filters()[0].op, PredOp::Ge);
        assert!(q.order_on_join_column());
    }

    #[test]
    fn group_by_binds_as_interesting_order() {
        let catalog = Catalog::paper();
        let q = parse_query(
            &catalog,
            "SELECT * FROM R3 a, R4 b WHERE a.c0 = b.c0 GROUP BY b.c0",
        )
        .unwrap();
        assert!(q.order_by.is_none());
        assert!(q.group_by.is_some());
        assert!(q.order_on_join_column());
    }

    #[test]
    fn group_by_and_order_by_both_bind() {
        let catalog = Catalog::paper();
        let q = parse_query(
            &catalog,
            "SELECT * FROM R3 a, R4 b WHERE a.c0 = b.c0 GROUP BY a.c0 ORDER BY b.c0",
        )
        .unwrap();
        assert!(q.group_by.is_some());
        assert!(q.order_by.is_some());
        // ORDER BY wins as the optimizer's order target.
        assert_eq!(
            q.interesting_order().unwrap().column,
            q.order_by.unwrap().column
        );
    }

    #[test]
    fn helpful_bind_errors() {
        let catalog = Catalog::paper();
        for (sql, needle) in [
            ("SELECT * FROM Nope n", "unknown table"),
            ("SELECT * FROM R1 a WHERE b.c0 = 1", "unknown table alias"),
            ("SELECT * FROM R1 a WHERE a.zz = 1", "no column"),
            (
                "SELECT * FROM R1 a, R2 b WHERE a.c0 = a.c1",
                "references one table",
            ),
            // Unbound order/group columns are rejected, not ignored.
            ("SELECT * FROM R1 a ORDER BY b.c0", "unknown table alias"),
            ("SELECT * FROM R1 a ORDER BY a.zz", "no column"),
            ("SELECT * FROM R1 a GROUP BY b.c0", "unknown table alias"),
            ("SELECT * FROM R1 a GROUP BY a.zz", "no column"),
        ] {
            let err = parse_query(&catalog, sql).unwrap_err();
            assert!(err.to_string().contains(needle), "{sql}: {err}");
        }
    }

    #[test]
    fn bound_query_optimizes() {
        use sdp_core::{Algorithm, Optimizer, SdpConfig};
        let catalog = Catalog::paper();
        let q = parse_query(
            &catalog,
            "SELECT * FROM R24 f, R3 a, R7 b, R9 c \
             WHERE f.c0 = a.c2 AND f.c1 = b.c5 AND f.c2 = c.c1 AND a.c4 < 50",
        )
        .unwrap();
        let plan = Optimizer::new(&catalog)
            .optimize(&q, Algorithm::Sdp(SdpConfig::paper()))
            .unwrap();
        assert_eq!(plan.root.set, q.graph.all_nodes());
    }
}
