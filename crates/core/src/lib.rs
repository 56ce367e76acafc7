//! # oocts-core — I/O-minimizing out-of-core task-tree scheduling
//!
//! The primary contribution of *Minimizing I/Os in Out-of-Core Task Tree
//! Scheduling* (Marchal, McCauley, Simon, Vivien — INRIA RR-9025 / IPPS
//! 2017), implemented on top of the [`oocts_tree`] substrate and the
//! peak-memory algorithms of [`oocts_minmem`].
//!
//! The **MinIO** problem: given a task tree and a main-memory bound `M`,
//! find a traversal `(σ, τ)` — an execution order plus an amount of every
//! node's output to write to disk — that minimizes the total I/O volume
//! `Σ_i τ(i)`.
//!
//! Every algorithm in this crate produces only a schedule `σ`; the I/O charged
//! to it is the volume produced by the Furthest-in-the-Future policy
//! ([`oocts_tree::fif_io`]), which is optimal for a fixed `σ` (Theorem 1).
//!
//! Every strategy implements the open [`scheduler::Scheduler`] trait
//! (`name()` + `schedule()`, with a provided `solve()` that performs the FiF
//! accounting); strategies are addressed by name — including parameterized
//! specs such as `"RecExpand(max_rounds=5)"` — through
//! [`registry::SchedulerRegistry`], which also accepts user-defined
//! implementations.
//!
//! Provided algorithms:
//!
//! * [`postorder::post_order_min_io`] — the best postorder traversal for
//!   I/O volume (Section 4.1, due to Agullo); optimal on homogeneous trees
//!   (Theorem 4) but not competitive in general (Section 4.3);
//! * [`scheduler::OptMinMem`] — Liu's peak-memory-optimal
//!   traversal used as a MinIO heuristic (Section 4.4): not competitive
//!   either;
//! * [`recexpand::full_rec_expand`] and [`recexpand::rec_expand`] — the
//!   paper's new heuristics (Section 5), which iteratively materialize the
//!   I/O chosen by the FiF policy into the tree through *node expansion*
//!   and re-run OptMinMem;
//! * [`theorem2::schedule_for_io_function`] — the constructive proof of
//!   Theorem 2 (from an I/O function to a schedule);
//! * [`homogeneous`] — the `l`/`c`/`w`/`W` labelling of Section 4.2 and the
//!   matching lower bound (Lemma 5);
//! * `bruteforce` (behind the `brute-force` feature) — exact MinIO by
//!   exhaustive search (test oracle).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

#[cfg(feature = "brute-force")]
pub mod bruteforce;
pub mod homogeneous;
pub mod postorder;
pub mod recexpand;
pub mod registry;
pub mod scheduler;
pub mod serialize;
pub mod theorem2;

#[cfg(feature = "brute-force")]
pub use bruteforce::brute_force_min_io;
pub use postorder::{post_order_min_io, PostorderIoAnalysis};
pub use recexpand::{full_rec_expand, rec_expand, RecExpandOutcome};
pub use registry::{SchedulerError, SchedulerRegistry, SchedulerSpec};
pub use scheduler::{ExpansionStats, Scheduler, SolveReport};
pub use theorem2::schedule_for_io_function;
