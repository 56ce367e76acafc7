//! # oocts-sparse — sparse-matrix multifrontal substrate
//!
//! The paper's TREES dataset consists of elimination trees of sparse matrices
//! from the University of Florida collection, weighted by the data sizes of
//! the multifrontal factorization. That collection cannot be redistributed
//! here, so this crate rebuilds the *pipeline* that produces such trees from
//! scratch, and feeds it with synthetic — but structurally realistic —
//! symmetric sparse matrices:
//!
//! 1. [`pattern`] — symmetric sparsity patterns (adjacency structure of the
//!    matrix graph);
//! 2. [`generators`] — 2-D/3-D grid Laplacians and random sparse symmetric
//!    patterns, the standard model problems of sparse direct solvers;
//! 3. [`ordering`] — fill-reducing orderings: reverse Cuthill–McKee, exact
//!    minimum degree (run on a quotient graph, in O(nnz(A) + n) memory, with
//!    indistinguishable variables merged into supervariables that share one
//!    degree recount; the order stays the one the elimination graph gives),
//!    and nested dissection for grids;
//! 4. [`etree`] — the elimination tree of a (permuted) pattern, via Liu's
//!    algorithm;
//! 5. [`symbolic`] — symbolic factorization: the column counts of the
//!    Cholesky factor;
//! 6. [`assembly`] — the multifrontal assembly tree: one task per node (or
//!    per supernode after amalgamation) whose output datum is the
//!    contribution block passed to its parent, i.e. exactly the task trees
//!    scheduled by `oocts-core`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod assembly;
pub mod etree;
pub mod generators;
pub mod ordering;
pub mod pattern;
pub mod symbolic;

pub use assembly::{assembly_tree, AssemblyOptions};
pub use etree::elimination_tree;
pub use generators::{grid_laplacian_2d, grid_laplacian_3d, random_symmetric};
pub use ordering::{
    minimum_degree, minimum_degree_with_stats, nested_dissection_2d, reverse_cuthill_mckee,
    MinimumDegreeStats, Ordering,
};
pub use pattern::SymmetricPattern;
pub use symbolic::column_counts;
