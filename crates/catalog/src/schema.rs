//! Catalog construction: the paper's 25-relation benchmark schema and
//! its extended variant for the maximum-scale-up experiment.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::column::{ColId, Column, Distribution};
use crate::error::CatalogError;
use crate::relation::{RelId, Relation};
use crate::statistics::{AnalyzedRelation, RelationStats};

/// Parameters describing a synthetic schema in the paper's style.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaSpec {
    /// Number of base relations (paper: 25; extended schema for the
    /// Table 3.3 scale-up uses more).
    pub relations: usize,
    /// Number of columns per relation (paper: 24).
    pub columns_per_relation: usize,
    /// Smallest relational cardinality (paper: 100).
    pub min_cardinality: u64,
    /// Largest relational cardinality (paper: 2.5 million).
    pub max_cardinality: u64,
    /// Geometric progression parameter for cardinalities (paper: 1.5).
    pub geometric_ratio: f64,
    /// Smallest column domain size (paper: 100).
    pub min_domain: u64,
    /// Largest column domain size (paper: 2.5 million).
    pub max_domain: u64,
    /// Fraction of columns carrying a skewed (exponential)
    /// distribution; 0 reproduces the paper's uniform datasets, > 0
    /// its skewed datasets.
    pub skewed_fraction: f64,
    /// Rate parameter used for exponential columns.
    pub exponential_rate: f64,
    /// RNG seed controlling index placement, domain assignment and
    /// skew placement.
    pub seed: u64,
}

impl SchemaSpec {
    /// The paper's 25-relation benchmark schema with uniform data.
    pub fn paper() -> Self {
        SchemaSpec {
            relations: 25,
            columns_per_relation: 24,
            min_cardinality: 100,
            max_cardinality: 2_500_000,
            geometric_ratio: 1.5,
            min_domain: 100,
            max_domain: 2_500_000,
            skewed_fraction: 0.0,
            exponential_rate: 20.0,
            seed: 0x5d9_2007,
        }
    }

    /// The paper's schema with skewed (exponential) value
    /// distributions on half of the columns.
    pub fn paper_skewed() -> Self {
        SchemaSpec {
            skewed_fraction: 0.5,
            ..SchemaSpec::paper()
        }
    }

    /// The extended schema used for the maximum scale-up experiment
    /// (Table 3.3), carrying enough relations for star joins of up to
    /// `relations` spokes. The column count is raised to 64 so that a
    /// large star's hub can give every spoke a distinct join column —
    /// with only 24 columns, hubs of 25+ spokes would be forced to
    /// share join columns, and the rewriter's transitive closure would
    /// turn the "pure star" into a dense multi-hub graph (the paper's
    /// scale-up speaks only of "an extended database schema").
    pub fn extended(relations: usize) -> Self {
        SchemaSpec {
            relations,
            columns_per_relation: 64,
            ..SchemaSpec::paper()
        }
    }
}

/// A fully constructed schema: relations plus their derived
/// (`ANALYZE`-equivalent) statistics.
///
/// Both slices are shared: a clone is a snapshot that costs two
/// reference counts, not a copy of every column and histogram, and
/// [`Catalog::replace_stats`] swaps in a new statistics slice without
/// touching the one other snapshots still read.
#[derive(Debug, Clone)]
pub struct Catalog {
    spec: SchemaSpec,
    relations: Arc<[Relation]>,
    analyzed: Arc<[AnalyzedRelation]>,
    /// Statistics epoch: incremented whenever the derived statistics
    /// change ([`Catalog::replace_stats`], [`Catalog::bump_stats_epoch`]).
    /// Long-running services key cached plans on this so a statistics
    /// refresh atomically invalidates every plan optimized under the
    /// old estimates.
    stats_epoch: u64,
}

impl Catalog {
    /// Build the paper's default 25-relation schema.
    pub fn paper() -> Self {
        SchemaBuilder::new(SchemaSpec::paper())
            .build()
            .expect("paper spec is valid")
    }

    /// Build the paper's schema with skewed column distributions.
    pub fn paper_skewed() -> Self {
        SchemaBuilder::new(SchemaSpec::paper_skewed())
            .build()
            .expect("paper skewed spec is valid")
    }

    /// Build the extended scale-up schema with `n` relations.
    pub fn extended(n: usize) -> Self {
        SchemaBuilder::new(SchemaSpec::extended(n))
            .build()
            .expect("extended spec is valid")
    }

    /// The specification this catalog was built from.
    pub fn spec(&self) -> &SchemaSpec {
        &self.spec
    }

    /// Number of relations in the catalog.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Whether the catalog is empty (never true for valid specs).
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// All relations, ordered by id.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Look up one relation.
    pub fn relation(&self, id: RelId) -> Result<&Relation, CatalogError> {
        self.relations
            .get(id.0 as usize)
            .ok_or(CatalogError::UnknownRelation(id.0 as usize))
    }

    /// Derived statistics for one relation.
    pub fn stats(&self, id: RelId) -> Result<&AnalyzedRelation, CatalogError> {
        self.analyzed
            .get(id.0 as usize)
            .ok_or(CatalogError::UnknownRelation(id.0 as usize))
    }

    /// Id of the relation with the largest cardinality (the paper
    /// places the star hub on the largest relation, "as is usually the
    /// case in data warehousing applications").
    pub fn largest_relation(&self) -> RelId {
        self.relations
            .iter()
            .max_by_key(|r| r.cardinality)
            .map(|r| r.id)
            .expect("catalog is never empty")
    }

    /// Whether `analyzed` has the shape [`Catalog::replace_stats`] needs
    /// and the estimator reads — one `AnalyzedRelation` per relation,
    /// each with one `ColumnStats` and one histogram per schema column —
    /// and values it can estimate from: finite, non-negative counts,
    /// widths and skew factors, and null fractions in `[0, 1]`. A NaN
    /// there would reach every cost computed from it.
    pub fn check_stats(&self, analyzed: &[AnalyzedRelation]) -> Result<(), CatalogError> {
        let shape = |relation, what, expected, found| {
            (expected == found)
                .then_some(())
                .ok_or(CatalogError::StatsShape {
                    relation,
                    what,
                    expected,
                    found,
                })
        };
        shape(None, "relation statistics", self.len(), analyzed.len())?;
        for (r, (rel, stats)) in self.relations.iter().zip(analyzed).enumerate() {
            let columns = rel.columns.len();
            shape(Some(r), "column statistics", columns, stats.columns.len())?;
            shape(Some(r), "histograms", columns, stats.histograms.len())?;
            let value = |column, field, value: f64, max: f64| {
                (0.0..=max)
                    .contains(&value)
                    .then_some(())
                    .ok_or(CatalogError::StatsValue {
                        relation: r,
                        column,
                        field,
                    })
            };
            let RelationStats {
                tuples,
                pages,
                tuple_width,
            } = stats.relation;
            value(None, "tuples", tuples, f64::MAX)?;
            value(None, "pages", pages, f64::MAX)?;
            value(None, "tuple_width", tuple_width, f64::MAX)?;
            for (c, column) in stats.columns.iter().enumerate() {
                value(Some(c), "n_distinct", column.n_distinct, f64::MAX)?;
                value(Some(c), "skew_factor", column.skew_factor, f64::MAX)?;
                value(Some(c), "null_frac", column.null_frac, 1.0)?;
            }
        }
        Ok(())
    }

    /// Replace the derived statistics with externally computed ones —
    /// e.g. `sdp-engine`'s sampled re-analysis of materialized data.
    /// Bumps the [statistics epoch](Catalog::stats_epoch).
    ///
    /// # Panics
    /// Panics unless exactly one `AnalyzedRelation` per relation is
    /// supplied (in relation-id order); [`Catalog::check_stats`] checks
    /// that and the rest of the shape without panicking.
    pub fn replace_stats(&mut self, analyzed: Vec<AnalyzedRelation>) {
        assert_eq!(
            analyzed.len(),
            self.relations.len(),
            "one AnalyzedRelation per relation required"
        );
        self.analyzed = analyzed.into();
        self.stats_epoch += 1;
    }

    /// The current statistics epoch. Starts at 0 for a freshly built
    /// catalog and increases monotonically on every statistics change;
    /// two equal epochs on the same catalog instance guarantee the
    /// optimizer would see identical estimates.
    pub fn stats_epoch(&self) -> u64 {
        self.stats_epoch
    }

    /// Advance the statistics epoch without changing the statistics —
    /// for forcing downstream caches to re-optimize (e.g. after
    /// tweaking cost parameters that live outside the catalog).
    pub fn bump_stats_epoch(&mut self) {
        self.stats_epoch += 1;
    }

    /// Total size of the database in bytes (heap pages only), for
    /// comparison against the paper's "approximately 1.5 GB".
    pub fn database_bytes(&self) -> u64 {
        self.analyzed
            .iter()
            .map(|a| (a.relation.pages * crate::statistics::PAGE_SIZE_BYTES as f64) as u64)
            .sum()
    }
}

/// Builder producing a [`Catalog`] from a [`SchemaSpec`].
#[derive(Debug)]
pub struct SchemaBuilder {
    spec: SchemaSpec,
}

impl SchemaBuilder {
    /// Start building from a specification.
    pub fn new(spec: SchemaSpec) -> Self {
        SchemaBuilder { spec }
    }

    /// Validate the specification and construct the catalog.
    pub fn build(self) -> Result<Catalog, CatalogError> {
        let spec = self.spec;
        if spec.relations == 0 {
            return Err(CatalogError::InvalidSpec("zero relations".into()));
        }
        if spec.columns_per_relation == 0 {
            return Err(CatalogError::InvalidSpec(
                "zero columns per relation".into(),
            ));
        }
        if spec.geometric_ratio <= 1.0 {
            return Err(CatalogError::InvalidSpec(
                "geometric ratio must exceed 1".into(),
            ));
        }
        if spec.min_cardinality == 0 || spec.max_cardinality < spec.min_cardinality {
            return Err(CatalogError::InvalidSpec(
                "cardinality range is empty".into(),
            ));
        }
        if !(0.0..=1.0).contains(&spec.skewed_fraction) {
            return Err(CatalogError::InvalidSpec(
                "skewed fraction outside [0, 1]".into(),
            ));
        }

        let mut rng = StdRng::seed_from_u64(spec.seed);
        let cardinalities = geometric_series(
            spec.min_cardinality,
            spec.max_cardinality,
            spec.geometric_ratio,
            spec.relations,
        );
        let domains = geometric_series(
            spec.min_domain,
            spec.max_domain,
            spec.geometric_ratio,
            spec.columns_per_relation.max(2),
        );

        let mut relations = Vec::with_capacity(spec.relations);
        for (i, &cardinality) in cardinalities.iter().enumerate() {
            let mut columns = Vec::with_capacity(spec.columns_per_relation);
            for c in 0..spec.columns_per_relation {
                // Spread the geometric domain progression across the
                // columns in a rotated order so relation i does not
                // always pair the same column index with the same
                // domain size.
                let domain = domains[(c + i) % domains.len()];
                let distribution = if rng.gen::<f64>() < spec.skewed_fraction {
                    Distribution::Exponential {
                        rate: spec.exponential_rate,
                    }
                } else {
                    Distribution::Uniform
                };
                columns.push(Column::new(ColId(c as u16), domain, distribution));
            }
            let indexed_column = ColId(rng.gen_range(0..spec.columns_per_relation) as u16);
            relations.push(Relation {
                id: RelId(i as u32),
                name: format!("R{i}"),
                cardinality,
                columns,
                indexed_column,
            });
        }

        let analyzed = relations.iter().map(AnalyzedRelation::analyze).collect();
        Ok(Catalog {
            spec,
            relations: relations.into(),
            analyzed,
            stats_epoch: 0,
        })
    }
}

/// A geometric progression of `count` values spanning exactly
/// `min ..= max`.
///
/// The paper quotes "a geometric distribution (parameter 1.5) of the
/// relational cardinalities, ranging from 100 to 2.5 million rows",
/// which is slightly over-determined: 100 · 1.5²⁴ ≈ 1.68 M, not 2.5 M.
/// We honour the endpoints (they drive the feasibility results) and
/// derive the effective ratio from them — ≈ 1.525 for 25 relations,
/// within rounding of the quoted 1.5. The `ratio` field of the spec is
/// retained as the nominal parameter and validated, but the endpoints
/// win.
fn geometric_series(min: u64, max: u64, _nominal_ratio: f64, count: usize) -> Vec<u64> {
    if count == 1 {
        return vec![min];
    }
    let ratio = (max as f64 / min as f64).powf(1.0 / (count as f64 - 1.0));
    let mut out = Vec::with_capacity(count);
    let mut v = min as f64;
    for _ in 0..count {
        out.push((v.round() as u64).clamp(min, max));
        v *= ratio;
    }
    // Guard against floating-point undershoot on the final term.
    *out.last_mut().expect("count >= 1") = max;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_stats_names_the_first_misfit() {
        let c = Catalog::paper();
        let mut analyzed: Vec<AnalyzedRelation> = c
            .relations()
            .iter()
            .map(AnalyzedRelation::analyze)
            .collect();
        assert_eq!(c.check_stats(&analyzed), Ok(()));
        let misfit = |relation, what, expected, found| {
            Err(CatalogError::StatsShape {
                relation,
                what,
                expected,
                found,
            })
        };
        assert_eq!(
            c.check_stats(&[]),
            misfit(None, "relation statistics", 25, 0)
        );
        analyzed[3].histograms.pop();
        assert_eq!(
            c.check_stats(&analyzed),
            misfit(Some(3), "histograms", 24, 23)
        );
        analyzed[1].columns.truncate(2);
        let columns = misfit(Some(1), "column statistics", 24, 2);
        assert_eq!(c.check_stats(&analyzed), columns);
    }

    #[test]
    fn check_stats_refuses_values_no_estimate_can_use() {
        let c = Catalog::paper();
        let analyzed: Vec<AnalyzedRelation> = c
            .relations()
            .iter()
            .map(AnalyzedRelation::analyze)
            .collect();
        let out_of_range = |relation, column, field| {
            Err(CatalogError::StatsValue {
                relation,
                column,
                field,
            })
        };
        type Poison = fn(&mut AnalyzedRelation);
        let cases: [(Poison, Option<usize>, &str); 9] = [
            (|a| a.relation.tuples = f64::NAN, None, "tuples"),
            (|a| a.relation.pages = -1.0, None, "pages"),
            (
                |a| a.relation.tuple_width = f64::INFINITY,
                None,
                "tuple_width",
            ),
            (
                |a| a.columns[7].n_distinct = f64::NAN,
                Some(7),
                "n_distinct",
            ),
            (|a| a.columns[0].skew_factor = -0.5, Some(0), "skew_factor"),
            (|a| a.columns[3].null_frac = 1.5, Some(3), "null_frac"),
            (|a| a.columns[3].null_frac = -1e-9, Some(3), "null_frac"),
            (|a| a.columns[3].null_frac = f64::NAN, Some(3), "null_frac"),
            (|a| a.relation.tuples = f64::NEG_INFINITY, None, "tuples"),
        ];
        for (poison, column, field) in cases {
            let mut stats = analyzed.clone();
            poison(&mut stats[4]);
            assert_eq!(c.check_stats(&stats), out_of_range(4, column, field));
        }
        // Zero is a count; a null fraction of one is a fraction.
        let mut edge = analyzed.clone();
        edge[4].relation.tuples = 0.0;
        edge[4].columns[3].null_frac = 1.0;
        assert_eq!(c.check_stats(&edge), Ok(()));
    }

    #[test]
    fn paper_schema_matches_parameters() {
        let c = Catalog::paper();
        assert_eq!(c.len(), 25);
        for r in c.relations() {
            assert_eq!(r.columns.len(), 24);
            assert!(r.cardinality >= 100 && r.cardinality <= 2_500_000);
        }
        assert_eq!(c.relations()[0].cardinality, 100);
        assert_eq!(c.relations()[24].cardinality, 2_500_000);
    }

    #[test]
    fn cardinalities_follow_geometric_progression() {
        let c = Catalog::paper();
        // Effective ratio derived from the endpoints: 25000^(1/24).
        let expected = 25_000f64.powf(1.0 / 24.0);
        for w in c.relations().windows(2) {
            let ratio = w[1].cardinality as f64 / w[0].cardinality as f64;
            assert!((ratio - expected).abs() < 0.02, "ratio {ratio}");
        }
        assert!((expected - 1.5).abs() < 0.1, "close to the paper's 1.5");
    }

    #[test]
    fn largest_relation_is_the_hub_candidate() {
        let c = Catalog::paper();
        let hub = c.largest_relation();
        let max = c.relations().iter().map(|r| r.cardinality).max().unwrap();
        assert_eq!(c.relation(hub).unwrap().cardinality, max);
    }

    #[test]
    fn database_size_is_gigabyte_scale() {
        let c = Catalog::paper();
        let gb = c.database_bytes() as f64 / (1024.0 * 1024.0 * 1024.0);
        // Paper reports ~1.5 GB; with 24 8-byte columns we land in the
        // same order of magnitude.
        assert!(gb > 0.5 && gb < 5.0, "database is {gb:.2} GB");
    }

    #[test]
    fn skewed_schema_contains_skewed_columns() {
        let c = Catalog::paper_skewed();
        let skewed: usize = c
            .relations()
            .iter()
            .flat_map(|r| &r.columns)
            .filter(|col| col.distribution.is_skewed())
            .count();
        let total = 25 * 24;
        let frac = skewed as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.1, "skewed fraction {frac}");
    }

    #[test]
    fn extended_schema_scales_relation_count() {
        let c = Catalog::extended(50);
        assert_eq!(c.len(), 50);
        // Saturates at the max cardinality once the progression tops out.
        assert_eq!(c.relations()[49].cardinality, 2_500_000);
    }

    #[test]
    fn build_rejects_invalid_specs() {
        let mut s = SchemaSpec::paper();
        s.relations = 0;
        assert!(SchemaBuilder::new(s).build().is_err());

        let mut s = SchemaSpec::paper();
        s.columns_per_relation = 0;
        assert!(SchemaBuilder::new(s).build().is_err());

        let mut s = SchemaSpec::paper();
        s.geometric_ratio = 0.9;
        assert!(SchemaBuilder::new(s).build().is_err());

        let mut s = SchemaSpec::paper();
        s.max_cardinality = 10;
        assert!(SchemaBuilder::new(s).build().is_err());

        let mut s = SchemaSpec::paper();
        s.skewed_fraction = 1.5;
        assert!(SchemaBuilder::new(s).build().is_err());
    }

    #[test]
    fn unknown_relation_lookup_errors() {
        let c = Catalog::paper();
        assert!(c.relation(RelId(99)).is_err());
        assert!(c.stats(RelId(99)).is_err());
    }

    #[test]
    fn schema_generation_is_deterministic() {
        let a = Catalog::paper();
        let b = Catalog::paper();
        for (ra, rb) in a.relations().iter().zip(b.relations()) {
            assert_eq!(ra.indexed_column, rb.indexed_column);
            assert_eq!(ra.cardinality, rb.cardinality);
        }
    }

    #[test]
    fn stats_epoch_tracks_statistics_changes() {
        let mut c = Catalog::paper();
        assert_eq!(c.stats_epoch(), 0);
        c.bump_stats_epoch();
        assert_eq!(c.stats_epoch(), 1);
        let analyzed = c
            .relations()
            .iter()
            .map(AnalyzedRelation::analyze)
            .collect();
        c.replace_stats(analyzed);
        assert_eq!(c.stats_epoch(), 2);
        // Fresh builds always start at epoch 0.
        assert_eq!(Catalog::paper().stats_epoch(), 0);
    }

    #[test]
    fn a_clone_shares_both_slices_until_its_stats_change() {
        let original = Catalog::paper();
        let mut snapshot = original.clone();
        assert!(std::ptr::eq(original.relations(), snapshot.relations()));
        let stats = |c: &Catalog| c.stats(RelId(0)).unwrap() as *const AnalyzedRelation;
        assert_eq!(stats(&original), stats(&snapshot));

        snapshot.bump_stats_epoch();
        assert_eq!((original.stats_epoch(), snapshot.stats_epoch()), (0, 1));
        assert_eq!(stats(&original), stats(&snapshot), "no new statistics");

        let mut analyzed: Vec<AnalyzedRelation> = original
            .relations()
            .iter()
            .map(AnalyzedRelation::analyze)
            .collect();
        analyzed[0].relation.tuples = 7.0;
        snapshot.replace_stats(analyzed);
        assert_eq!((original.stats_epoch(), snapshot.stats_epoch()), (0, 2));
        assert_ne!(stats(&original), stats(&snapshot));
        assert_eq!(snapshot.stats(RelId(0)).unwrap().relation.tuples, 7.0);
        assert_eq!(original.stats(RelId(0)).unwrap().relation.tuples, 100.0);
        assert!(
            std::ptr::eq(original.relations(), snapshot.relations()),
            "statistics never change the schema"
        );
    }

    #[test]
    fn geometric_series_saturates_at_max() {
        let s = geometric_series(100, 1000, 2.0, 8);
        assert_eq!(s[0], 100);
        assert!(s.iter().all(|&v| v <= 1000));
        assert_eq!(*s.last().unwrap(), 1000);
    }
}
