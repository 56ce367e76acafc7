//! The OOCTS repository benchmark.
//!
//! Drives each workload through the library's public API only: the dataset
//! builders for set-up, `run_experiment` for the solve, and a solve pass of
//! its own (`Tree::from_parents`, `MemoryBounds::of`, `Scheduler::solve`,
//! the FiF, peak and validation probes) that checks every cell. The
//! untraced run reports the end-to-end metrics; the traced run records a
//! span around every call into a layer and reports per-layer self times.
//! See `README.md` for the workloads and the metric table.

pub mod check;
pub mod host;
pub mod run;
pub mod trace;
pub mod workload;
