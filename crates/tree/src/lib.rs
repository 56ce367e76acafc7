//! # oocts-tree — task-tree substrate
//!
//! This crate provides the data structures and simulators shared by every
//! algorithm in the OOCTS workspace, which reproduces
//! *Minimizing I/Os in Out-of-Core Task Tree Scheduling*
//! (Marchal, McCauley, Simon, Vivien — INRIA RR-9025, 2017).
//!
//! The model (paper, Section 3.1):
//!
//! * a workload is a rooted **in-tree**: every node `i` is a task producing a
//!   single output datum of size `w_i`, consumed by its unique parent;
//! * to execute `i`, the outputs of all its children must be **entirely** in
//!   main memory, and at completion its own output must be in memory, so the
//!   task needs `w̄_i = max(w_i, Σ_{j child of i} w_j)` units on top of any
//!   other *active* data (produced but not yet consumed);
//! * main memory is bounded by `M`; disk is unbounded; any number of units of
//!   an active datum may be written to disk (one I/O per unit written, reads
//!   are free since every write is read back exactly once).
//!
//! The crate offers:
//!
//! * [`Tree`] / [`NodeId`] — arena-based rooted in-trees with integer weights;
//! * [`Schedule`] — a topological execution order of (a subtree of) the nodes;
//! * [`simulate`] — the in-core peak-memory profiler and the
//!   Furthest-in-the-Future (FiF) out-of-core simulator that turns a schedule
//!   into an I/O volume (optimal per Theorem 1 of the paper);
//! * [`expand`] — the node-expansion transformation (paper, Figure 3) on which
//!   Theorem 2 and the `RecExpand` heuristics are built;
//! * [`dot`] — Graphviz export for debugging and documentation;
//! * [`claim`] — the claim loop that runs independent jobs on scoped
//!   threads, shared by the dataset build and the experiment engine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod claim;
pub mod dot;
pub mod error;
pub mod expand;
pub mod schedule;
pub mod simulate;
pub mod tree;

pub use claim::claim_in_order;
pub use error::TreeError;
pub use expand::ExpandedTree;
pub use schedule::Schedule;
pub use simulate::{
    check_traversal, fif_io, fif_io_with, memory_profile, peak_memory, FifScratch, IoResult,
    MemoryProfile,
};
pub use tree::{NodeId, Tree, TreeBuilder, NO_PARENT};
