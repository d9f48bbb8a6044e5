//! Error types for catalog construction and lookup.

use std::fmt;

/// Errors raised while building or querying a [`crate::Catalog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// A relation id referred to a relation that does not exist.
    UnknownRelation(usize),
    /// A column id referred to a column that does not exist on the
    /// named relation.
    UnknownColumn {
        /// Relation the lookup was performed on.
        relation: usize,
        /// Offending column index.
        column: usize,
    },
    /// A schema specification was internally inconsistent (for example
    /// zero relations or zero columns per relation).
    InvalidSpec(String),
    /// Replacement statistics do not fit the schema: `found` entries of
    /// `what` where it has `expected` — `AnalyzedRelation`s for the
    /// catalog (`relation: None`), or one relation's column statistics
    /// or histograms.
    StatsShape {
        /// The relation whose statistics are misshapen, if not the list.
        relation: Option<usize>,
        /// What was counted.
        what: &'static str,
        /// What the schema calls for.
        expected: usize,
        /// What was supplied.
        found: usize,
    },
    /// A replacement statistic no estimate can be made from: a NaN,
    /// infinite or negative count, or a null fraction outside `[0, 1]`.
    StatsValue {
        /// The relation it describes.
        relation: usize,
        /// Its column, for a column statistic.
        column: Option<usize>,
        /// The `RelationStats` or `ColumnStats` field that holds it.
        field: &'static str,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownRelation(id) => write!(f, "unknown relation id {id}"),
            CatalogError::UnknownColumn { relation, column } => {
                write!(f, "unknown column {column} on relation {relation}")
            }
            CatalogError::InvalidSpec(msg) => write!(f, "invalid schema specification: {msg}"),
            CatalogError::StatsShape {
                relation,
                what,
                expected,
                found,
            } => {
                write!(f, "statistics do not fit the schema: {found} {what}")?;
                if let Some(relation) = relation {
                    write!(f, " for relation {relation}")?;
                }
                write!(f, ", expected {expected}")
            }
            CatalogError::StatsValue {
                relation,
                column,
                field,
            } => {
                write!(f, "statistic {field} out of range for relation {relation}")?;
                if let Some(column) = column {
                    write!(f, ", column {column}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CatalogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CatalogError::UnknownRelation(7);
        assert!(e.to_string().contains('7'));
        let e = CatalogError::UnknownColumn {
            relation: 3,
            column: 9,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('9'));
        let e = CatalogError::InvalidSpec("no relations".into());
        assert!(e.to_string().contains("no relations"));
        let e = CatalogError::StatsShape {
            relation: Some(4),
            what: "histograms",
            expected: 24,
            found: 23,
        };
        assert_eq!(
            e.to_string(),
            "statistics do not fit the schema: 23 histograms for relation 4, expected 24"
        );
        let e = CatalogError::StatsValue {
            relation: 2,
            column: Some(5),
            field: "null_frac",
        };
        assert_eq!(
            e.to_string(),
            "statistic null_frac out of range for relation 2, column 5"
        );
    }
}
