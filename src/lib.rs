//! # OOCTS — Out-Of-core Task-Tree Scheduling
//!
//! Umbrella crate re-exporting the whole OOCTS workspace, a reproduction of
//! *Minimizing I/Os in Out-of-Core Task Tree Scheduling*
//! (L. Marchal, S. McCauley, B. Simon, F. Vivien — INRIA RR-9025 / IPPS 2017).
//!
//! The workspace implements:
//!
//! * the task-tree model, schedules, and the Furthest-in-the-Future (FiF)
//!   out-of-core simulator ([`tree`]);
//! * peak-memory minimizing traversals — Liu's optimal algorithm and the best
//!   postorder ([`minmem`]);
//! * the paper's I/O-minimizing strategies — `PostOrderMinIO`,
//!   `OptMinMem`+FiF, `RecExpand` and `FullRecExpand` — behind the open
//!   [`core::scheduler::Scheduler`] trait and its name-based
//!   [`core::registry::SchedulerRegistry`], plus the homogeneous tree theory
//!   and brute-force oracles ([`core`]);
//! * a sparse-matrix multifrontal substrate producing realistic elimination /
//!   assembly trees ([`sparse`]);
//! * tree generators and the paper's datasets ([`gen`]);
//! * the evaluation harness: performance metric, Dolan–Moré performance
//!   profiles and a parallel experiment runner driving any `dyn Scheduler`
//!   ([`profile`]).
//!
//! ## Quickstart
//!
//! ```
//! use oocts::prelude::*;
//!
//! // Build a small task tree: the root consumes two subtrees.
//! let mut b = TreeBuilder::new();
//! let root = b.add_root(4);
//! let a = b.add_child(root, 8);
//! b.add_child(a, 2);
//! b.add_child(root, 10);
//! let tree = b.build().unwrap();
//!
//! // How much memory would an in-core execution need?
//! let (schedule, peak) = opt_min_mem(&tree);
//! assert!(peak >= tree.min_feasible_memory());
//!
//! // Execute out-of-core with less memory and count the I/O volume.
//! let m = tree.min_feasible_memory();
//! let io = fif_io(&tree, &schedule, m).unwrap();
//! assert!(io.total_io <= tree.total_weight());
//!
//! // Every strategy implements the `Scheduler` trait; `solve` charges the
//! // FiF I/O and reports it together with peak memory and wall-time. The
//! // paper's heuristics usually do better than OptMinMem + FiF:
//! let report = RecExpand::default().solve(&tree, m).unwrap();
//! assert!(report.io_volume <= io.total_io);
//!
//! // Strategies — parameterized ones included — also resolve by name:
//! let registry = SchedulerRegistry::with_builtins();
//! let tuned = registry.get("RecExpand(max_rounds=4)").unwrap();
//! assert!(tuned.solve(&tree, m).unwrap().io_volume <= io.total_io);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use oocts_core as core;
pub use oocts_gen as gen;
pub use oocts_minmem as minmem;
pub use oocts_profile as profile;
pub use oocts_sparse as sparse;
pub use oocts_tree as tree;

/// Convenient glob-import of the most used items of the workspace.
pub mod prelude {
    pub use oocts_core::homogeneous;
    pub use oocts_core::postorder::post_order_min_io;
    pub use oocts_core::recexpand::{full_rec_expand, rec_expand};
    pub use oocts_core::registry::{SchedulerError, SchedulerRegistry, SchedulerSpec};
    pub use oocts_core::scheduler::{
        builtin_schedulers, synth_schedulers, trees_schedulers, ExpansionStats, FullRecExpand,
        OptMinMem, PostOrderMinIo, PostOrderMinMem, RandomPostOrder, RecExpand, Scheduler,
        SolveReport,
    };
    pub use oocts_minmem::{opt_min_mem, post_order_min_mem};
    pub use oocts_profile::bounds::MemoryBounds;
    pub use oocts_profile::engine::EngineStats;
    pub use oocts_profile::profile::PerformanceProfile;
    pub use oocts_profile::runner::{
        csv_header, run_experiment, ExperimentConfig, ExperimentError, ExperimentResults,
        InstanceResult,
    };
    pub use oocts_tree::{fif_io, peak_memory, NodeId, Schedule, Tree, TreeBuilder};
}
