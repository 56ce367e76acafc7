//! Cell-granularity work-stealing execution engine.
//!
//! The experimental grid of the paper is embarrassingly parallel: every
//! **(instance × scheduler)** pair — a *cell* — is an independent solve.
//! This module executes that grid on a pool of workers with per-worker
//! work-stealing deques ([`crossbeam::deque`]):
//!
//! * **Decomposition.** Each instance contributes one *prep* task (memory
//!   bounds + the interestingness filter) which, once executed, fans out
//!   into one *solve* task per scheduler. Prep runs on whichever worker
//!   claims it; the solve cells land on that worker's own deque, where its
//!   LIFO pop keeps them cache-hot — and where any idle worker can steal
//!   them. A one-instance straggler therefore occupies at most
//!   `schedulers.len()` workers instead of pinning a single one, which is
//!   what kills the load imbalance of instance-granularity sharding.
//! * **Seeding order.** Initial work is ordered largest-subtree-first: the
//!   biggest instance of the grid starts *first*, so its cells overlap with
//!   all the small ones instead of starting last and dragging the tail.
//!   Each worker is seeded with one of the largest instances directly; the
//!   remainder waits in the global [`Injector`] (FIFO, so workers drain it
//!   in descending size order).
//! * **Results.** Every finished cell is written into a pre-sized slot
//!   array (one [`OnceLock`] per cell) — no global results mutex anywhere
//!   on the hot path. The worker that completes the *last* cell of an
//!   instance sends the assembled row through a **bounded** channel; the
//!   caller's thread re-orders the (at most `threads`-deep out-of-order
//!   window of) arrivals and hands rows to the streaming sink in
//!   deterministic instance order while the grid is still running.
//! * **Cancellation.** The first failing cell stores its error in its slot
//!   and raises a single [`AtomicBool`]; every worker checks the flag
//!   between cells — mid-instance, not merely at the next instance
//!   boundary — and drains out. A worker that prepared an instance (its
//!   seeded one included) still runs that instance's first cell, so a
//!   worker that starts late cannot lose its instance's error to the flag.
//!   After the join, the lowest-indexed recorded error is reported,
//!   independent of thread scheduling. A worker that panics raises the
//!   same flag as it unwinds, and the caller re-raises the panic after the
//!   join: a run never returns rows it does not have.
//! * **Layout.** Before the workers start, the caller's thread copies every
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
//! [`run_experiment`](crate::runner::run_experiment) runs entirely on this
//! engine; per-worker steal/execute counters, the wall-clock of the run and
//! the time spent on the copies surface as [`EngineStats`] on
//! [`ExperimentResults`](crate::runner::ExperimentResults).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crossbeam::channel;
use crossbeam::deque::{Injector, Steal, Stealer, Worker};

use oocts_tree::Tree;

use crate::bounds::MemoryBounds;
use crate::metric::performance;
use crate::runner::{ExperimentConfig, ExperimentError, InstanceResult};

/// How the engine decomposes an experiment into work items.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Granularity {
    /// One work item per **(instance × scheduler)** cell (the default):
    /// a large instance is solved by up to `schedulers.len()` workers
    /// concurrently.
    #[default]
    Cell,
    /// One work item per instance, every scheduler running sequentially on
    /// the claiming worker — the pre-engine sharding, kept for regression
    /// comparisons (`BENCH_pr10_before`) and as a baseline in tests. Output
    /// is byte-identical to [`Granularity::Cell`].
    Instance,
}

/// Counters of one worker thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed (solve cells plus prep tasks).
    pub executed: u64,
    /// Tasks acquired by stealing from another worker's deque.
    pub stolen: u64,
    /// Tasks acquired from the global injector queue.
    pub injected: u64,
}

/// Execution statistics of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// The decomposition that was used.
    pub granularity: Granularity,
    /// Number of worker threads of the run.
    pub threads: usize,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Scheduler cells executed (prep tasks excluded).
    pub cells: u64,
    /// Wall-clock of the whole run, seeding and join included. Machine
    /// dependent, like `copy` and the per-cell wall-times.
    pub elapsed: Duration,
    /// Wall-clock the caller's thread spent making the postorder-numbered
    /// copies before the workers started (part of `elapsed`); zero when no
    /// instance was copied.
    pub copy: Duration,
}

impl EngineStats {
    /// Total tasks executed across all workers.
    pub fn total_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.executed).sum()
    }

    /// Total tasks acquired by stealing from a peer's deque.
    pub fn total_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Total tasks acquired from the global injector.
    pub fn total_injected(&self) -> u64 {
        self.workers.iter().map(|w| w.injected).sum()
    }
}

/// One work item. `Prep` computes an instance's bounds and fans out its
/// solve cells; `Solve` runs one scheduler on one prepared instance (the
/// memory value travels in the task, so solving never has to look the prep
/// result back up); `Whole` is the instance-granularity fallback (prep +
/// every scheduler, inline).
#[derive(Debug, Clone, Copy)]
enum Task {
    Prep(usize),
    Solve {
        instance: usize,
        alg: usize,
        memory: u64,
    },
    Whole(usize),
}

/// Where a worker got its current task from.
enum Source {
    Local,
    Injected,
    Stolen,
}

/// The deterministic measurements of one finished cell.
struct CellDone {
    io_volume: u64,
    performance: f64,
    peak_memory: u64,
    /// `SolveReport::wall_time`: scheduling only.
    schedule_wall: Duration,
    /// Engine-measured wall-clock of the whole cell (scheduling + FiF
    /// replay + validation).
    cell_wall: Duration,
}

type CellSlot = OnceLock<Result<CellDone, ExperimentError>>;

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

/// Everything the workers share. All hot-path state is atomic or
/// write-once; nothing here is behind a mutex.
struct Shared<'a> {
    instances: &'a [(String, Tree)],
    /// Per-instance postorder-numbered copy ([`postorder_copy`]) that the
    /// prep and cells run on instead of the original.
    copies: Vec<Option<Tree>>,
    config: &'a ExperimentConfig,
    /// Number of scheduler columns.
    algs: usize,
    /// Per-instance prep outcome: `None` once prep ran and the instance was
    /// filtered out, `Some((bounds, memory))` otherwise.
    prep: Vec<OnceLock<Option<(MemoryBounds, u64)>>>,
    /// Pre-sized cell slots, indexed `instance * algs + scheduler`.
    cells: Vec<CellSlot>,
    /// Per-instance outstanding task count; the worker that drops it to
    /// zero assembles and emits the row.
    remaining: Vec<AtomicUsize>,
    /// Globally outstanding tasks; workers exit when it reaches zero.
    pending: AtomicUsize,
    /// Raised by the first failing cell; checked between cells.
    cancelled: AtomicBool,
    /// Solve cells executed (for [`EngineStats::cells`]).
    cells_run: AtomicUsize,
    /// Overflow seed work, drained in descending instance size.
    injector: Injector<Task>,
}

impl Shared<'_> {
    /// The tree instance `i` is solved on: its copy if it has one.
    fn tree(&self, i: usize) -> &Tree {
        self.copies[i].as_ref().unwrap_or(&self.instances[i].1)
    }
}

/// Raises the cancellation flag if its worker unwinds, so that the other
/// workers drain out instead of waiting for the panicked task forever.
struct CancelOnPanic<'a>(&'a AtomicBool);

impl Drop for CancelOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Runs the experiment grid and returns the ordered kept rows plus the
/// engine counters. `on_row` observes every row, in instance order, as soon
/// as its instance completes — typically long before the grid finishes.
///
/// # Panics
/// Re-raises the panic of a worker (a panicking scheduler, say) once every
/// worker has stopped.
pub(crate) fn run(
    instances: &[(String, Tree)],
    config: &ExperimentConfig,
    mut on_row: impl FnMut(&InstanceResult),
) -> Result<(Vec<InstanceResult>, EngineStats), ExperimentError> {
    let started = Instant::now();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        config.threads
    }
    .max(1);

    let n = instances.len();
    let algs = config.schedulers.len();
    // Copied here, on the caller's thread before the workers start: a copy
    // made by the prep task on a worker raised imbal-t2's peak RSS from 75
    // to 96 MiB.
    let copy_started = Instant::now();
    let copies: Vec<Option<Tree>> = instances.iter().map(|(_, t)| postorder_copy(t)).collect();
    let copy = if copies.iter().any(Option::is_some) {
        copy_started.elapsed()
    } else {
        Duration::ZERO
    };
    let shared = Shared {
        instances,
        copies,
        config,
        algs,
        prep: (0..n).map(|_| OnceLock::new()).collect(),
        cells: (0..n * algs).map(|_| OnceLock::new()).collect(),
        remaining: (0..n).map(|_| AtomicUsize::new(1)).collect(),
        pending: AtomicUsize::new(n),
        cancelled: AtomicBool::new(false),
        cells_run: AtomicUsize::new(0),
        injector: Injector::new(),
    };

    // Initial work, largest subtree first: the straggler candidates start
    // before anything else. Ties break on instance index, so seeding is
    // deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(instances[i].1.len()), i));

    let locals: Vec<Worker<Task>> = (0..threads).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<Task>> = locals.iter().map(Worker::stealer).collect();
    for (rank, &i) in order.iter().enumerate() {
        let task = match config.granularity {
            Granularity::Cell => Task::Prep(i),
            Granularity::Instance => Task::Whole(i),
        };
        // One seed per worker deque; the rest queues in the injector in
        // descending size order.
        if rank < threads {
            locals[rank].push(task);
        } else {
            shared.injector.push(task);
        }
    }

    // The streaming channel: bounded, so workers slow down rather than run
    // away from a slow consumer.
    let (tx, rx) = channel::bounded::<(usize, Option<InstanceResult>)>(2 * threads);

    let mut results = Vec::with_capacity(n);
    let worker_stats: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = locals
            .into_iter()
            .enumerate()
            .map(|(id, local)| {
                let shared = &shared;
                let stealers = &stealers;
                let tx = tx.clone();
                scope.spawn(move || worker_loop(id, local, stealers, shared, &tx))
            })
            .collect();
        drop(tx);

        // Consume rows as instances complete. Workers may finish instances
        // slightly out of order (the window is at most one in-flight
        // instance per worker); a small reorder buffer restores the
        // deterministic instance order for the sink.
        let mut next = 0usize;
        let mut buffer: BTreeMap<usize, Option<InstanceResult>> = BTreeMap::new();
        while let Ok((i, row)) = rx.recv() {
            buffer.insert(i, row);
            while let Some(row) = buffer.remove(&next) {
                if let Some(r) = row {
                    on_row(&r);
                    results.push(r);
                }
                next += 1;
            }
        }

        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    if shared.cancelled.load(Ordering::Acquire) {
        // The lowest-indexed recorded error wins, whatever the thread
        // interleaving was.
        for slot in shared.cells {
            if let Some(Err(e)) = slot.into_inner() {
                return Err(e);
            }
        }
    }
    let stats = EngineStats {
        granularity: config.granularity,
        threads,
        workers: worker_stats,
        cells: shared.cells_run.load(Ordering::Acquire) as u64,
        elapsed: started.elapsed(),
        copy,
    };
    Ok((results, stats))
}

/// One worker: pop local work, fall back to the injector, then steal from
/// peers; park briefly when everything is dry. Exits when the grid is done
/// or a cell failed.
fn worker_loop(
    id: usize,
    local: Worker<Task>,
    stealers: &[Stealer<Task>],
    shared: &Shared<'_>,
    tx: &channel::Sender<(usize, Option<InstanceResult>)>,
) -> WorkerStats {
    let _cancel_on_panic = CancelOnPanic(&shared.cancelled);
    let mut stats = WorkerStats::default();
    let mut dry_polls = 0u32;
    loop {
        if shared.pending.load(Ordering::Acquire) == 0 {
            break;
        }
        // The cancellation flag is checked between cells, not before a
        // worker's first task or between a prep and the first cell it
        // pushed: the worker's own instance always gets its first cell.
        let task = match local.pop() {
            Some(task) => Some((task, Source::Local)),
            None if shared.cancelled.load(Ordering::Acquire) => break,
            None => acquire_task(id, &local, stealers, shared),
        };
        match task {
            Some((task, source)) => {
                dry_polls = 0;
                stats.executed += 1;
                match source {
                    Source::Local => {}
                    Source::Injected => stats.injected += 1,
                    Source::Stolen => stats.stolen += 1,
                }
                let cell = !matches!(task, Task::Prep(_));
                execute(task, &local, shared, tx);
                if cell && shared.cancelled.load(Ordering::Acquire) {
                    break;
                }
            }
            None => {
                // Nothing anywhere: another worker is still producing (or
                // the run is about to end). Yield first, then back off to a
                // short sleep so an idle pool does not spin at 100% while a
                // straggler finishes.
                dry_polls += 1;
                if dry_polls < 32 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }
    stats
}

/// Acquires work for an empty worker: global injector first (descending
/// instance size), then peers round-robin starting after `id`. Bounded
/// retries on [`Steal::Retry`] keep the attempt non-blocking.
// lint: no_alloc
fn acquire_task(
    id: usize,
    local: &Worker<Task>,
    stealers: &[Stealer<Task>],
    shared: &Shared<'_>,
) -> Option<(Task, Source)> {
    for _ in 0..8 {
        match shared.injector.steal() {
            Steal::Success(task) => return Some((task, Source::Injected)),
            Steal::Empty => break,
            Steal::Retry => continue,
        }
    }
    let n = stealers.len();
    for d in 1..n {
        let victim = &stealers[(id + d) % n];
        for _ in 0..4 {
            match victim.steal_batch_and_pop(local) {
                Steal::Success(task) => return Some((task, Source::Stolen)),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
    }
    None
}

fn execute(
    task: Task,
    local: &Worker<Task>,
    shared: &Shared<'_>,
    tx: &channel::Sender<(usize, Option<InstanceResult>)>,
) {
    match task {
        Task::Prep(i) => {
            if let Some(memory) = prep_instance(i, shared) {
                shared.remaining[i].fetch_add(shared.algs, Ordering::AcqRel);
                shared.pending.fetch_add(shared.algs, Ordering::AcqRel);
                // Pushed in reverse so the owner's LIFO pop runs the cells
                // in scheduler order; thieves steal from the other end.
                for alg in (0..shared.algs).rev() {
                    local.push(Task::Solve {
                        instance: i,
                        alg,
                        memory,
                    });
                }
            }
            finish_task(i, shared, tx);
        }
        Task::Solve {
            instance,
            alg,
            memory,
        } => {
            if solve_cell(instance, alg, memory, shared) {
                finish_task(instance, shared, tx);
            }
        }
        Task::Whole(i) => {
            if let Some(memory) = prep_instance(i, shared) {
                for a in 0..shared.algs {
                    // The cancellation contract holds at instance
                    // granularity too: check between scheduler cells.
                    if shared.cancelled.load(Ordering::Acquire) {
                        return;
                    }
                    if !solve_cell(i, a, memory, shared) {
                        return;
                    }
                }
            }
            finish_task(i, shared, tx);
        }
    }
}

/// Computes one instance's bounds and memory, recording them in the prep
/// slot; returns the memory value, or `None` if the interestingness filter
/// drops the instance.
fn prep_instance(i: usize, shared: &Shared<'_>) -> Option<u64> {
    let bounds = MemoryBounds::of(shared.tree(i));
    let kept = !shared.config.filter_interesting || bounds.is_interesting();
    let memory = bounds.memory(shared.config.bound);
    let _ = shared.prep[i].set(kept.then_some((bounds, memory)));
    kept.then_some(memory)
}

/// Runs one scheduler cell and records it in its slot. Returns `false` on
/// error, after raising the cancellation flag.
fn solve_cell(i: usize, a: usize, memory: u64, shared: &Shared<'_>) -> bool {
    let cell_started = Instant::now();
    let scheduler = &shared.config.schedulers[a];
    match scheduler.solve(shared.tree(i), memory) {
        Ok(report) => {
            let done = CellDone {
                io_volume: report.io_volume,
                performance: performance(memory, report.io_volume),
                peak_memory: report.peak_memory,
                schedule_wall: report.wall_time,
                cell_wall: cell_started.elapsed(),
            };
            let _ = shared.cells[i * shared.algs + a].set(Ok(done));
            shared.cells_run.fetch_add(1, Ordering::AcqRel);
            true
        }
        Err(source) => {
            let (name, original) = &shared.instances[i];
            let source = match &shared.copies[i] {
                // Node `p` of the copy is `original.postorder()[p]`; ids past
                // the original's (a strategy's own expansion nodes) stay.
                Some(_) => {
                    source.map_nodes(|n| original.postorder().get(n.index()).copied().unwrap_or(n))
                }
                None => source,
            };
            let _ = shared.cells[i * shared.algs + a].set(Err(ExperimentError {
                instance: name.clone(),
                scheduler: scheduler.name(),
                source,
            }));
            shared.cancelled.store(true, Ordering::Release);
            false
        }
    }
}

/// Marks one task of instance `i` finished. The worker that finishes the
/// instance's *last* task assembles its row from the cell slots and streams
/// it out; every path then decrements the global pending count.
fn finish_task(
    i: usize,
    shared: &Shared<'_>,
    tx: &channel::Sender<(usize, Option<InstanceResult>)>,
) {
    if shared.remaining[i].fetch_sub(1, Ordering::AcqRel) == 1 {
        let row = assemble_row(i, shared);
        // Send failure means the consumer is gone, which only happens on
        // teardown; the run result no longer matters then.
        let _ = tx.send((i, row));
    }
    shared.pending.fetch_sub(1, Ordering::AcqRel);
}

/// Builds the [`InstanceResult`] of a completed instance (`None` if the
/// filter dropped it). Only called once per instance, by the worker that
/// finished its last cell.
fn assemble_row(i: usize, shared: &Shared<'_>) -> Option<InstanceResult> {
    let (bounds, memory) = shared.prep[i].get().copied().flatten()?;
    let (name, tree) = &shared.instances[i];
    let mut io_volumes = Vec::with_capacity(shared.algs);
    let mut performances = Vec::with_capacity(shared.algs);
    let mut peak_memories = Vec::with_capacity(shared.algs);
    let mut wall_times = Vec::with_capacity(shared.algs);
    let mut cell_times = Vec::with_capacity(shared.algs);
    for a in 0..shared.algs {
        // An instance only completes once every cell succeeded, so each
        // slot is filled; `?` (dropping the row) is the benign way out
        // should that invariant ever break.
        let done = shared.cells[i * shared.algs + a].get()?.as_ref().ok()?;
        io_volumes.push(done.io_volume);
        performances.push(done.performance);
        peak_memories.push(done.peak_memory);
        wall_times.push(done.schedule_wall);
        cell_times.push(done.cell_wall);
    }
    Some(InstanceResult {
        name: name.clone(),
        nodes: tree.len(),
        bounds,
        memory,
        io_volumes,
        performances,
        peak_memories,
        wall_times,
        cell_times,
    })
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
}
