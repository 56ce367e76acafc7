//! The execution engine: the experiment grid in two phases on scoped
//! threads.
//!
//! Every **(instance × scheduler)** pair of the paper's grid, a *cell*, is
//! an independent, sequential solve. Each phase is one [`claim_in_order`]
//! over a precomputed order:
//!
//! 1. **Preps**, largest instance first: each instance's [`MemoryBounds`]
//!    and the interestingness filter.
//! 2. **Cells** of the kept instances, longest processing time first (LPT):
//!    by node count descending, ties by instance, then by scheduler column,
//!    with no per-scheduler cost model. A straggler's cells thus start
//!    first, one worker each, while the small instances fill the others.
//!
//! Each cell writes its own [`OnceLock`] slot; after the join the caller's
//! thread assembles the rows in instance order, so the results do not
//! depend on the thread count.
//!
//! * **Failures.** Cells are numbered in grid order, instance by instance
//!   and column by column. A failing cell `k` lowers a shared failure index
//!   to `k` with `fetch_min`, and workers skip only the cells above it.
//!   Every cell below it still runs, so after the join the index is the
//!   grid's lowest failing cell at any thread count, and its error is the
//!   one reported. A panicking cell lowers the index to 0, and its panic
//!   reaches the caller once every thread has stopped.
//! * **Layout.** Before the preps, the caller's thread copies every
//!   instance of at least [`RENUMBER_MIN_NODES`] nodes that is not already
//!   numbered in postorder into [`Tree::renumbered_in_postorder`] order,
//!   and the instance's prep and cells run on the copy. On a large tree in
//!   generator order every kernel is bound by memory latency; on the copy
//!   every subtree is a contiguous id range, so the same work reads its
//!   arrays front to back. Results carry no node ids and every built-in
//!   breaks ties only between siblings, whose order the copy keeps, so the
//!   results are identical. The nodes a failing cell's
//!   [`TreeError`](oocts_tree::TreeError) names are mapped back to the
//!   original's ids.
//!
//! [`run_experiment`](crate::runner::run_experiment) runs on this engine;
//! its counters surface as [`EngineStats`] on
//! [`ExperimentResults`](crate::runner::ExperimentResults).

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use oocts_tree::{claim_in_order, Tree};

use crate::bounds::MemoryBounds;
use crate::metric::performance;
use crate::runner::{ExperimentConfig, ExperimentError, InstanceResult};

/// Execution statistics of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker threads of the run, the caller's included: the larger of the
    /// two phases' counts.
    pub threads: usize,
    /// Instances prepared (memory bounds and filter).
    pub preps: u64,
    /// Scheduler cells executed.
    pub cells: u64,
    /// Wall-clock of the whole run, copies and join included. Machine
    /// dependent, like `copy` and the per-cell wall-times.
    pub elapsed: Duration,
    /// Wall-clock the caller's thread spent making the postorder-numbered
    /// copies before the preps started (part of `elapsed`); zero when no
    /// instance was copied.
    pub copy: Duration,
}

impl EngineStats {
    /// Tasks executed: preps plus cells.
    pub fn total_executed(&self) -> u64 {
        self.preps + self.cells
    }

    /// Always 0, as no worker steals; kept for perfbench's `profile.stolen`.
    pub fn total_stolen(&self) -> u64 {
        0
    }

    /// Always 0, as no queue is shared; kept for perfbench's `profile.injected`.
    pub fn total_injected(&self) -> u64 {
        0
    }
}

/// The deterministic measurements of one finished cell.
struct CellDone {
    io_volume: u64,
    peak_memory: u64,
    /// `SolveReport::wall_time`: scheduling only.
    schedule_wall: Duration,
    /// Engine-measured wall-clock of the whole cell (scheduling + FiF
    /// replay + validation).
    cell_wall: Duration,
}

/// Instances of at least this many nodes run on a postorder-numbered copy.
/// On SYNTH trees, the copy made prep plus the three linear-time cells
/// 1.07× faster at 3,000 nodes, 1.28× at 30k, 1.62× at 65k and 3.46× at
/// 262k (one thread of a 2-vCPU Xeon VM; EXPERIMENTS.md has the sweep).
/// Below the gate the copy, 44 bytes per node for the whole run, would buy
/// next to no time.
pub const RENUMBER_MIN_NODES: usize = 1 << 15;

/// The postorder-numbered copy [`run`] solves `tree` on, or `None` if
/// `tree` is below [`RENUMBER_MIN_NODES`], already numbered in postorder,
/// or has a node whose child ids do not ascend in child order (only
/// [`Tree::splice_above`] makes one). The built-ins break ties between
/// siblings by id, which follows child order on the copy, so on such a
/// tree the copy could pick the other sibling.
fn postorder_copy(tree: &Tree) -> Option<Tree> {
    let eligible = tree.len() >= RENUMBER_MIN_NODES
        && tree
            .postorder()
            .iter()
            .enumerate()
            .any(|(p, n)| n.index() != p)
        && tree
            .node_ids()
            .all(|n| tree.children(n).windows(2).all(|w| w[0] < w[1]));
    eligible.then(|| tree.renumbered_in_postorder())
}

/// The worker threads, the caller's included, of a phase of `tasks` tasks
/// when `threads` were asked for: 0 asks for one per core, counted by
/// `cores` only then (it reads the cgroup's CPU quota files). A phase gets
/// at most one worker per task, and at least one.
fn phase_threads(threads: usize, tasks: usize, cores: impl FnOnce() -> usize) -> usize {
    let asked = if threads == 0 { cores() } else { threads };
    asked.min(tasks).max(1)
}

/// Lowers the failure index to 0 if its cell unwinds, so that the other
/// workers skip the cells they have not started.
struct FailOnPanic<'a>(&'a AtomicUsize);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Runs the experiment grid and returns the kept rows, in instance order,
/// plus the engine counters.
///
/// # Errors
/// The error of the grid's lowest failing cell.
///
/// # Panics
/// Re-raises the panic of a cell once every thread has stopped.
pub(crate) fn run(
    instances: &[(String, Tree)],
    config: &ExperimentConfig,
) -> Result<(Vec<InstanceResult>, EngineStats), ExperimentError> {
    let started = Instant::now();
    let cores = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let algs = config.schedulers.len();
    // Copied here, on the caller's thread before the workers start: a copy
    // made by the prep on a worker raised imbal-t2's peak RSS from 75 to
    // 96 MiB.
    let copy_started = Instant::now();
    let copies: Vec<Option<Tree>> = instances.iter().map(|(_, t)| postorder_copy(t)).collect();
    let copy = if copies.iter().any(Option::is_some) {
        copy_started.elapsed()
    } else {
        Duration::ZERO
    };
    let tree = |i: usize| copies[i].as_ref().unwrap_or(&instances[i].1);

    // Phase 1: the preps, largest instance first (the sort is stable, so
    // ties stay in instance order).
    let mut preps_order: Vec<usize> = (0..instances.len()).collect();
    preps_order.sort_by_key(|&i| Reverse(instances[i].1.len()));
    let prep_threads = phase_threads(config.threads, preps_order.len(), cores);
    let preps: Vec<OnceLock<Option<(MemoryBounds, u64)>>> =
        instances.iter().map(|_| OnceLock::new()).collect();
    claim_in_order(&preps_order, prep_threads, |i| {
        let bounds = MemoryBounds::of(tree(i));
        let kept = !config.filter_interesting || bounds.is_interesting();
        let _ = preps[i].set(kept.then(|| (bounds, bounds.memory(config.bound))));
    });
    let preps: Vec<Option<(MemoryBounds, u64)>> = preps
        .into_iter()
        .map(|p| p.into_inner().flatten())
        .collect();

    // Phase 2: the kept instances' cells, numbered `instance * algs +
    // column`, in LPT order; ties stay in cell order.
    let mut cells_order: Vec<usize> = (0..instances.len() * algs)
        .filter(|&c| preps[c / algs].is_some())
        .collect();
    cells_order.sort_by_key(|&c| Reverse(instances[c / algs].1.len()));
    let cell_threads = phase_threads(config.threads, cells_order.len(), cores);
    let slots: Vec<OnceLock<Result<CellDone, ExperimentError>>> = (0..instances.len() * algs)
        .map(|_| OnceLock::new())
        .collect();
    // The lowest failing cell so far, `usize::MAX` while none has failed.
    // It only tells workers what to skip, and the joins order every update
    // before the read below (`Relaxed`).
    let failed = AtomicUsize::new(usize::MAX);
    claim_in_order(&cells_order, cell_threads, |c| {
        let (i, scheduler) = (c / algs, &config.schedulers[c % algs]);
        let Some((_, memory)) = preps[i] else { return };
        if c > failed.load(Ordering::Relaxed) {
            return;
        }
        let _unwinding = FailOnPanic(&failed);
        let cell_started = Instant::now();
        let result = match scheduler.solve(tree(i), memory) {
            Ok(report) => Ok(CellDone {
                io_volume: report.io_volume,
                peak_memory: report.peak_memory,
                schedule_wall: report.wall_time,
                cell_wall: cell_started.elapsed(),
            }),
            Err(source) => {
                failed.fetch_min(c, Ordering::Relaxed);
                let (name, original) = &instances[i];
                // Node `p` of the copy is `original.postorder()[p]`; ids past
                // the original's (a strategy's own expansion nodes) stay.
                let source = match copies[i] {
                    Some(_) => source
                        .map_nodes(|n| original.postorder().get(n.index()).copied().unwrap_or(n)),
                    None => source,
                };
                Err(ExperimentError {
                    instance: name.clone(),
                    scheduler: scheduler.name(),
                    source,
                })
            }
        };
        let _ = slots[c].set(result);
    });

    if let Some(Err(e)) = slots.get(failed.into_inner()).and_then(OnceLock::get) {
        return Err(e.clone());
    }
    let rows = preps
        .iter()
        .enumerate()
        .filter_map(|(i, prep)| {
            let (bounds, memory) = (*prep)?;
            // With no failure every kept instance's cells are filled; `?`
            // (dropping the row) is the benign way out should that break.
            let done = slots[i * algs..(i + 1) * algs]
                .iter()
                .map(|slot| slot.get()?.as_ref().ok())
                .collect::<Option<Vec<&CellDone>>>()?;
            let (name, tree) = &instances[i];
            Some(InstanceResult {
                name: name.clone(),
                nodes: tree.len(),
                bounds,
                memory,
                io_volumes: done.iter().map(|d| d.io_volume).collect(),
                performances: done
                    .iter()
                    .map(|d| performance(memory, d.io_volume))
                    .collect(),
                peak_memories: done.iter().map(|d| d.peak_memory).collect(),
                wall_times: done.iter().map(|d| d.schedule_wall).collect(),
                cell_times: done.iter().map(|d| d.cell_wall).collect(),
            })
        })
        .collect();
    let stats = EngineStats {
        threads: prep_threads.max(cell_threads),
        preps: instances.len() as u64,
        cells: cells_order.len() as u64,
        elapsed: started.elapsed(),
        copy,
    };
    Ok((rows, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::NodeId;

    /// A complete binary tree numbered breadth-first (not a postorder).
    fn breadth_first_tree(n: usize) -> Tree {
        let weights: Vec<u64> = (0..n as u64).map(|i| 1 + i % 7).collect();
        let parents: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(1).map(|p| p / 2)).collect();
        Tree::from_parents(&weights, &parents).unwrap()
    }

    #[test]
    fn only_large_trees_out_of_postorder_are_copied() {
        assert!(postorder_copy(&breadth_first_tree(RENUMBER_MIN_NODES - 1)).is_none());
        let large = breadth_first_tree(RENUMBER_MIN_NODES);
        let copy = postorder_copy(&large).expect("large and breadth-first");
        assert_eq!(copy, large.renumbered_in_postorder());
        assert!(postorder_copy(&copy).is_none(), "already in postorder");
        // Splicing above node 1 puts the new, highest id first among the
        // root's children: the copy would turn that sibling order around.
        let mut spliced = large;
        spliced.splice_above(NodeId(1), 1);
        assert!(postorder_copy(&spliced).is_none());
    }

    #[test]
    fn a_phase_gets_between_one_worker_and_one_per_task() {
        assert_eq!(phase_threads(0, 100, || 8), 8, "0 asks for every core");
        assert_eq!(phase_threads(0, 3, || 8), 3);
        assert_eq!(
            phase_threads(2, 100, || unreachable!("cores are counted only for 0")),
            2
        );
        assert_eq!(phase_threads(4, 100, || 2), 4, "beyond the cores if asked");
        assert_eq!(phase_threads(usize::MAX, 192, || 2), 192);
        assert_eq!(phase_threads(1024, 64, || 2), 64);
        assert_eq!(
            phase_threads(3, 0, || 2),
            1,
            "an empty phase runs on the caller"
        );
        assert_eq!(phase_threads(0, 0, || 1), 1);
    }
}
