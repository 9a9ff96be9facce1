#![warn(missing_docs)]

//! # phe-datasets — seeded synthetic graph generators
//!
//! The paper evaluates on four datasets (its Table 3):
//!
//! | Dataset        | labels | vertices | edges   | real? |
//! |----------------|--------|----------|---------|-------|
//! | Moreno Health  | 6      | 2 539    | 12 969  | yes   |
//! | DBpedia (sub)  | 8      | 37 374   | 209 068 | yes   |
//! | SNAP-ER        | 6      | 12 333   | 147 996 | no    |
//! | SNAP-FF        | 8      | 50 000   | 132 673 | no    |
//!
//! The two synthetic ones used SNAP's generators; we implement the same
//! models (Erdős–Rényi, Forest Fire) in-tree. The two real ones cannot be
//! redistributed or re-extracted exactly, so [`facsimile`] builds seeded
//! synthetic graphs that match the table's sizes *exactly* and reproduce
//! the structural properties the paper's discussion relies on —
//! skewed per-label cardinalities and correlated consecutive labels.
//! Those two properties are what separate the orderings in the paper's
//! accuracy results, so a facsimile that keeps them (and the sizes)
//! keeps the comparison; the `table3_datasets` bench prints both
//! diagnostics.
//!
//! All generators are deterministic given a seed.
//!
//! ```
//! use phe_datasets::{erdos_renyi, LabelDistribution};
//!
//! let g = erdos_renyi(100, 400, 4, LabelDistribution::Uniform, 42);
//! assert_eq!(g.vertex_count(), 100);
//! assert_eq!(g.edge_count(), 400);
//! assert_eq!(g.label_count(), 4);
//! ```

pub mod distributions;
pub mod er;
pub mod facsimile;
pub mod forest_fire;
pub mod preferential;
pub mod schema;

pub use distributions::{LabelDistribution, ZipfSampler};
pub use er::erdos_renyi;
pub use facsimile::{
    dbpedia_like, dbpedia_like_scaled, moreno_health_like, moreno_health_like_scaled,
    paper_datasets, snap_er, snap_er_scaled, snap_ff, snap_ff_scaled, Dataset,
};
pub use forest_fire::{forest_fire, ForestFireParams};
pub use preferential::barabasi_albert;
pub use schema::{
    chained_schema, narrow_chained_schema, schema_graph, Community, DegreeModel, LabelSchema,
};
