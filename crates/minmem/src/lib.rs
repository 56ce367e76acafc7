//! # oocts-minmem — peak-memory minimizing tree traversals
//!
//! This crate implements the two classical algorithms the paper builds upon
//! (Section 3.3):
//!
//! * [`opt_min_mem`] — **OptMinMem**, Liu's optimal algorithm for the MinMem
//!   problem (J. W. H. Liu, *An application of generalized tree pebbling to
//!   sparse matrix factorization*, SIAM J. Algebraic Discrete Methods, 1987):
//!   computes a traversal of minimum peak memory, without the postorder
//!   restriction, via hill–valley segment merging;
//! * [`post_order_min_mem`] — **PostOrderMinMem**, Liu's best *postorder*
//!   traversal for peak memory (Liu, ACM TOMS 1986): children are processed
//!   by non-increasing `P_j − w_j`, where `P_j` is the postorder peak of the
//!   subtree rooted at `j`.
//!
//! A brute-force scheduler (`brute_force_min_peak`, behind the
//! `brute-force` feature) over all topological orders is provided as a test
//! oracle for small trees.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

#[cfg(feature = "brute-force")]
pub mod bruteforce;
pub mod liu;
pub mod postorder;
pub mod segments;

#[cfg(feature = "brute-force")]
pub use bruteforce::brute_force_min_peak;
pub use liu::{opt_min_mem, opt_min_mem_peak, opt_min_mem_subtree, PeakCache};
pub use postorder::{post_order_min_mem, post_order_min_mem_subtree};
pub use segments::Segment;
