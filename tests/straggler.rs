//! Straggler suite for the execution engine.
//!
//! The grid is one huge instance (a complete binary tree) plus tiny ones,
//! the shape that punishes an engine that hands out whole instances: the
//! huge instance's scheduler row would serialize on one worker. The engine
//! claims cells longest first, so the huge instance's cells start first,
//! each on a worker of its own, while the tiny ones fill the other
//! workers. These checks hold on any host, single-core included: the
//! overlap check does not wait for thread timing, because the huge
//! instance's cells hold their worker until a second worker is inside one.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use oocts::gen::random::uniform_attachment_tree;
use oocts::prelude::*;
use oocts::profile::bounds::MemoryBound;
use oocts::tree::TreeError;

mod common;

/// The comparable-cost scheduler row (`IMBAL_SCHEDULERS` of the bench
/// matrix): `RecExpand` is excluded because its superlinear cost on the
/// huge instance would make the row a single-cell critical path that no
/// cell-level balancing can split.
const ROW: &str = "PostOrderMinIO,OptMinMem,PostOrderMinMem";

/// One huge complete binary tree plus `tiny_count` small random trees.
fn straggler_instances(huge_height: usize, tiny_count: usize) -> Vec<(String, Tree)> {
    let huge = common::depth_weighted_kary(2, huge_height);
    let mut instances = vec![("straggler-huge".to_string(), huge)];
    for k in 0..tiny_count as u64 {
        instances.push((
            format!("straggler-tiny-{k:02}"),
            uniform_attachment_tree(120, 1..=9, 0x57A6 + k),
        ));
    }
    instances
}

/// Runs the grid once on `threads` workers and returns the engine's stats
/// with the results.
fn run_row(
    instances: &[(String, Tree)],
    row: Vec<Arc<dyn Scheduler>>,
    threads: usize,
) -> (EngineStats, ExperimentResults) {
    let mut config = ExperimentConfig::new(row, MemoryBound::Middle);
    config.threads = threads;
    let results = run_experiment(instances, &config).expect("Middle bound is feasible");
    let stats = results.engine.clone().expect("the engine reports stats");
    (stats, results)
}

/// How long a huge cell waits for a second worker before the test gives up
/// on it.
const PEER_TIMEOUT: Duration = Duration::from_secs(30);

/// The workers inside the huge instance's cells.
#[derive(Default)]
struct OverlapGate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Workers inside a huge cell right now.
    inside: usize,
    /// Two workers were inside at once.
    overlapped: bool,
    /// A cell stopped waiting for a second worker.
    timed_out: bool,
}

impl OverlapGate {
    /// Enters a huge cell and waits until another worker is inside one
    /// too, or until [`PEER_TIMEOUT`].
    fn enter(&self) {
        let mut state = self.state.lock().unwrap();
        state.inside += 1;
        if state.inside >= 2 {
            state.overlapped = true;
            self.changed.notify_all();
        }
        let (mut state, wait) = self
            .changed
            .wait_timeout_while(state, PEER_TIMEOUT, |s| !s.overlapped && !s.timed_out)
            .unwrap();
        if wait.timed_out() {
            state.timed_out = true;
        }
    }

    fn leave(&self) {
        self.state.lock().unwrap().inside -= 1;
    }

    fn overlapped(&self) -> bool {
        self.state.lock().unwrap().overlapped
    }
}

/// One of the row's schedulers whose cells on the huge instance (the only
/// tree of `huge_len` nodes) pass through `gate`: a worker inside one waits
/// for a second worker to enter another.
struct WaitForPeer {
    inner: Arc<dyn Scheduler>,
    huge_len: usize,
    gate: Arc<OverlapGate>,
}

impl Scheduler for WaitForPeer {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn schedule(&self, tree: &Tree, memory: u64) -> Result<Schedule, TreeError> {
        self.inner.schedule(tree, memory)
    }

    fn solve(&self, tree: &Tree, memory: u64) -> Result<SolveReport, TreeError> {
        if tree.len() != self.huge_len {
            return self.inner.solve(tree, memory);
        }
        self.gate.enter();
        let report = self.inner.solve(tree, memory);
        self.gate.leave();
        report
    }
}

/// The huge instance's cells come first in the claim order, so the first
/// worker to claim one waits in it, and the next worker claims the next
/// huge cell: two workers are inside the straggler's cells at once.
#[test]
fn workers_overlap_inside_the_straggler_cells() {
    let instances = straggler_instances(10, 15); // 2^11 - 1 huge nodes
    let gate = Arc::new(OverlapGate::default());
    let registry = SchedulerRegistry::with_builtins();
    let row = registry.get_list(ROW).unwrap().into_iter().map(|inner| {
        Arc::new(WaitForPeer {
            inner,
            huge_len: instances[0].1.len(),
            gate: Arc::clone(&gate),
        }) as Arc<dyn Scheduler>
    });
    let (stats, results) = run_row(&instances, row.collect(), 4);

    assert!(
        gate.overlapped(),
        "no second worker entered the huge instance's cells within {PEER_TIMEOUT:?}"
    );
    assert_eq!(stats.threads, 4);
    assert_eq!(stats.cells, 16 * 3, "16 instances x 3 scheduler cells");
    assert_eq!(
        stats.total_executed(),
        16 * 4,
        "one prep plus three solve cells per instance"
    );
    assert_eq!(results.results.len(), 16);
    // Per-cell wall-times are recorded for every scheduler column.
    for a in 0..3 {
        assert!(results.total_cell_time(a) > Duration::ZERO);
    }
}

/// The thread count must never change the numbers: runs of the same
/// straggler grid on one and on four workers produce byte-identical CSV.
#[test]
fn sharding_is_invisible_in_the_results() {
    let instances = straggler_instances(8, 9); // 2^9 - 1 huge nodes
    let row = || SchedulerRegistry::with_builtins().get_list(ROW).unwrap();
    let (parallel_stats, parallel) = run_row(&instances, row(), 4);
    let (serial_stats, serial) = run_row(&instances, row(), 1);
    assert_eq!((serial_stats.threads, parallel_stats.threads), (1, 4));
    assert_eq!(serial.to_csv(), parallel.to_csv());
}
