//! Multi-threaded experiment runner.
//!
//! Evaluates a set of [`Scheduler`]s over a dataset of instances, one memory
//! bound at a time, and collects per-instance I/O volumes and performances.
//! Execution is delegated to [`crate::engine`], which runs the
//! (instance × scheduler) cells of the grid on scoped threads and assembles
//! the rows in instance order — see its module docs for the two phases and
//! the failure rule. Each cell stays sequential inside, exactly like the
//! paper's simulations.
//!
//! The runner is generic over the strategy set: anything implementing
//! [`Scheduler`] — built-in or user-defined, typically obtained from
//! [`oocts_core::registry::SchedulerRegistry`] — flows through
//! [`run_experiment`], the Dolan–Moré profiles and the CSV export under its
//! registered name.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use oocts_core::scheduler::{synth_schedulers, trees_schedulers, Scheduler};
use oocts_tree::{Tree, TreeError};

use crate::bounds::{MemoryBound, MemoryBounds};
use crate::engine::{self, EngineStats};
use crate::profile::PerformanceProfile;

/// Configuration of one experiment (one dataset × one memory bound).
#[derive(Clone)]
pub struct ExperimentConfig {
    /// The scheduling strategies to compare.
    pub schedulers: Vec<Arc<dyn Scheduler>>,
    /// Which of the paper's memory bounds to use.
    pub bound: MemoryBound,
    /// Number of worker threads (0 = one per available CPU); each phase of
    /// the engine runs at most one per task.
    pub threads: usize,
    /// Skip instances whose optimal in-core peak equals the structural lower
    /// bound (no I/O is ever needed on them); the paper filters the TREES
    /// dataset this way.
    pub filter_interesting: bool,
}

impl ExperimentConfig {
    /// A configuration comparing the given strategies at the given bound.
    pub fn new(schedulers: Vec<Arc<dyn Scheduler>>, bound: MemoryBound) -> Self {
        ExperimentConfig {
            schedulers,
            bound,
            threads: 0,
            filter_interesting: false,
        }
    }

    /// The paper's SYNTH configuration (four strategies) at the given bound.
    pub fn synth(bound: MemoryBound) -> Self {
        ExperimentConfig::new(synth_schedulers(), bound)
    }

    /// The paper's TREES configuration (three strategies, filtered) at the
    /// given bound.
    pub fn trees(bound: MemoryBound) -> Self {
        ExperimentConfig {
            filter_interesting: true,
            ..ExperimentConfig::new(trees_schedulers(), bound)
        }
    }

    /// The names of the configured strategies, in column order.
    pub fn scheduler_names(&self) -> Vec<String> {
        self.schedulers.iter().map(|s| s.name()).collect()
    }
}

impl std::fmt::Debug for ExperimentConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentConfig")
            .field("schedulers", &self.scheduler_names())
            .field("bound", &self.bound)
            .field("threads", &self.threads)
            .field("filter_interesting", &self.filter_interesting)
            .finish()
    }
}

/// Results of one strategy set on one instance.
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// Instance name.
    pub name: String,
    /// Number of tasks of the instance.
    pub nodes: usize,
    /// The instance's memory bounds.
    pub bounds: MemoryBounds,
    /// The concrete memory value used.
    pub memory: u64,
    /// I/O volume of every strategy, in the order of the configuration.
    pub io_volumes: Vec<u64>,
    /// Performance `(M + IO)/M` of every strategy.
    pub performances: Vec<f64>,
    /// In-core peak of every strategy's schedule.
    pub peak_memories: Vec<u64>,
    /// Scheduling wall-time of every strategy on this instance (the
    /// [`oocts_core::scheduler::SolveReport::wall_time`] of each cell).
    /// Non-deterministic; the CSV export and all regression comparisons
    /// deliberately exclude it.
    pub wall_times: Vec<Duration>,
    /// Engine-measured wall-time of every *cell* — scheduling plus schedule
    /// replay and validation, everything the worker spent on the
    /// (instance × scheduler) pair. Non-deterministic, excluded from the
    /// CSV export like [`wall_times`](Self::wall_times).
    pub cell_times: Vec<Duration>,
}

impl InstanceResult {
    /// `true` if at least two strategies obtained different I/O volumes — the
    /// restriction used in the right-hand plot of Figure 5.
    pub fn algorithms_differ(&self) -> bool {
        self.io_volumes.windows(2).any(|w| w[0] != w[1])
    }

    /// This instance's CSV row (RFC-4180-quoted, newline-terminated) — one
    /// line of [`ExperimentResults::to_csv`].
    pub fn csv_row(&self) -> String {
        let mut out = String::with_capacity(self.name.len() + 8 * 12 + self.io_volumes.len() * 12);
        push_csv_cell(&mut out, &self.name);
        let _ = write!(
            out,
            ",{},{},{},{}",
            self.nodes, self.bounds.lower_bound, self.bounds.peak_incore, self.memory
        );
        for io in &self.io_volumes {
            let _ = write!(out, ",{io}");
        }
        out.push('\n');
        out
    }
}

/// The CSV header line (newline-terminated) for the given scheduler-name
/// columns, RFC-4180-quoted like the rows of
/// [`InstanceResult::csv_row`].
pub fn csv_header(scheduler_names: &[String]) -> String {
    let mut out =
        String::with_capacity(32 + scheduler_names.iter().map(|n| n.len() + 4).sum::<usize>());
    out.push_str("instance,nodes,lb,peak,memory");
    for name in scheduler_names {
        out.push(',');
        // Quote the whole `io_<name>` cell: a quote opening after the
        // `io_` prefix would be literal per RFC 4180.
        push_csv_cell(&mut out, &format!("io_{name}"));
    }
    out.push('\n');
    out
}

/// A failure inside [`run_experiment`], pinned to the cell that produced it.
///
/// The runner skips the cells after a failing one that have not started;
/// this type records *which* (instance, scheduler) cell failed so a failure
/// deep in a thousand-instance matrix is diagnosable without a re-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentError {
    /// Name of the instance whose evaluation failed.
    pub instance: String,
    /// Name of the scheduler that failed on it.
    pub scheduler: String,
    /// The underlying failure.
    pub source: TreeError,
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "scheduler {} failed on instance {:?}: {}",
            self.scheduler, self.instance, self.source
        )
    }
}

impl std::error::Error for ExperimentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// The collected results of an experiment.
#[derive(Clone)]
pub struct ExperimentResults {
    /// The strategies compared (column order of the per-instance vectors).
    pub schedulers: Vec<Arc<dyn Scheduler>>,
    /// The memory bound used.
    pub bound: MemoryBound,
    /// One entry per (kept) instance.
    pub results: Vec<InstanceResult>,
    /// Execution statistics of the engine run that produced these results
    /// (threads, prep and cell counts, wall-clock). `None` on results
    /// assembled outside the engine.
    pub engine: Option<EngineStats>,
}

impl std::fmt::Debug for ExperimentResults {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentResults")
            .field("schedulers", &self.scheduler_names())
            .field("bound", &self.bound)
            .field("results", &self.results)
            .field("engine", &self.engine)
            .finish()
    }
}

/// Quotes one CSV cell per RFC 4180: cells containing a comma, a double
/// quote, or a line break are wrapped in double quotes, with inner quotes
/// doubled. Plain cells are appended as-is.
fn push_csv_cell(out: &mut String, cell: &str) {
    if cell.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for c in cell.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(cell);
    }
}

impl ExperimentResults {
    /// The names of the compared strategies, in column order.
    pub fn scheduler_names(&self) -> Vec<String> {
        self.schedulers.iter().map(|s| s.name()).collect()
    }

    /// Builds the Dolan–Moré performance profile of these results.
    pub fn profile(&self) -> PerformanceProfile {
        let names = self.scheduler_names();
        let mut perfs = vec![Vec::with_capacity(self.results.len()); self.schedulers.len()];
        for r in &self.results {
            for (a, &p) in r.performances.iter().enumerate() {
                perfs[a].push(p);
            }
        }
        PerformanceProfile::from_performances(names, perfs)
    }

    /// The subset of instances on which the strategies do not all obtain the
    /// same I/O volume (right-hand plots of Figures 5, 9, 11). Column order
    /// is preserved.
    pub fn restricted_to_differing(&self) -> ExperimentResults {
        ExperimentResults {
            schedulers: self.schedulers.clone(),
            bound: self.bound,
            results: self
                .results
                .iter()
                .filter(|r| r.algorithms_differ())
                .cloned()
                .collect(),
            engine: self.engine.clone(),
        }
    }

    /// Total I/O volume of strategy column `a` over all kept instances.
    pub fn total_io(&self, a: usize) -> u64 {
        self.results.iter().map(|r| r.io_volumes[a]).sum()
    }

    /// Mean performance of strategy column `a` over all kept instances
    /// (`NaN` on an empty result set).
    pub fn mean_performance(&self, a: usize) -> f64 {
        let sum: f64 = self.results.iter().map(|r| r.performances[a]).sum();
        sum / self.results.len() as f64
    }

    /// Largest in-core peak reported by strategy column `a`.
    pub fn max_peak(&self, a: usize) -> u64 {
        self.results
            .iter()
            .map(|r| r.peak_memories[a])
            .max()
            .unwrap_or(0)
    }

    /// Total scheduling wall-time of strategy column `a` (sum of the
    /// per-instance [`oocts_core::scheduler::SolveReport::wall_time`]s).
    pub fn total_schedule_time(&self, a: usize) -> Duration {
        self.results.iter().map(|r| r.wall_times[a]).sum()
    }

    /// Total engine-measured cell wall-time of strategy column `a` (sum of
    /// the per-instance [`InstanceResult::cell_times`] — the full
    /// schedule-and-replay cost, not just the scheduling part).
    pub fn total_cell_time(&self, a: usize) -> Duration {
        self.results.iter().map(|r| r.cell_times[a]).sum()
    }

    /// Per-instance CSV (one row per instance, one I/O column per strategy),
    /// RFC-4180-quoted where needed: [`csv_header`], then
    /// [`InstanceResult::csv_row`] per row.
    pub fn to_csv(&self) -> String {
        let mut out = csv_header(&self.scheduler_names());
        for r in &self.results {
            out.push_str(&r.csv_row());
        }
        out
    }
}

/// Runs every strategy of the configuration on every instance and collects
/// the results. Instance order is preserved.
///
/// # Errors
/// Returns the error of the grid's lowest failing cell, in (instance,
/// scheduler column) order, at every thread count: once a cell fails,
/// workers skip the cells after it that have not started, and the cells
/// before it still run. The
/// paper's memory bounds are feasible by construction, so an error
/// indicates a misconfigured instance or a buggy strategy.
///
/// # Panics
/// If a strategy panics, the panic reaches the caller once every worker has
/// stopped; the run never returns `Ok` without the rows it lost.
pub fn run_experiment(
    instances: &[(String, Tree)],
    config: &ExperimentConfig,
) -> Result<ExperimentResults, ExperimentError> {
    let (results, stats) = engine::run(instances, config)?;
    Ok(ExperimentResults {
        schedulers: config.schedulers.clone(),
        bound: config.bound,
        results,
        engine: Some(stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_core::scheduler::PostOrderMinIo;
    use oocts_tree::{Schedule, TreeBuilder, TreeError};
    use std::sync::Mutex;

    fn instance(seed: u64) -> (String, Tree) {
        // Small deterministic trees with varying weights.
        let mut b = TreeBuilder::new();
        let r = b.add_root(1 + seed % 3);
        let a = b.add_child(r, 2 + seed % 5);
        b.add_child(a, 6 + seed % 4);
        let c = b.add_child(r, 2);
        b.add_child(c, 5 + seed % 7);
        (format!("inst-{seed}"), b.build().unwrap())
    }

    #[test]
    fn runner_covers_all_instances_in_order() {
        let instances: Vec<_> = (0..16).map(instance).collect();
        let config = ExperimentConfig {
            threads: 4,
            ..ExperimentConfig::new(trees_schedulers(), MemoryBound::Middle)
        };
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        assert_eq!(res.results.len(), 16);
        for (i, r) in res.results.iter().enumerate() {
            assert_eq!(r.name, format!("inst-{i}"));
            assert_eq!(r.io_volumes.len(), 3);
        }
        // Deterministic across runs (and thread counts).
        let res1 = run_experiment(
            &instances,
            &ExperimentConfig {
                threads: 1,
                ..config.clone()
            },
        )
        .expect("feasible bounds");
        for (a, b) in res.results.iter().zip(&res1.results) {
            assert_eq!(a.io_volumes, b.io_volumes);
        }
    }

    #[test]
    fn filtering_drops_uninteresting_instances() {
        // A chain has peak == LB: always filtered.
        let mut b = TreeBuilder::new();
        let r = b.add_root(3);
        let x = b.add_child(r, 4);
        b.add_child(x, 5);
        let chain = ("chain".to_string(), b.build().unwrap());
        let interesting = instance(1);
        let config = ExperimentConfig {
            threads: 1,
            filter_interesting: true,
            ..ExperimentConfig::new(vec![Arc::new(PostOrderMinIo)], MemoryBound::Middle)
        };
        let res = run_experiment(&[chain, interesting], &config).expect("feasible bounds");
        assert_eq!(res.results.len(), 1);
        assert_eq!(res.results[0].name, "inst-1");
    }

    #[test]
    fn profile_and_csv_are_consistent() {
        let instances: Vec<_> = (0..8).map(instance).collect();
        let config = ExperimentConfig::synth(MemoryBound::Middle);
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        let profile = res.profile();
        assert_eq!(profile.instances(), res.results.len());
        assert_eq!(profile.algorithms().len(), 4);
        let csv = res.to_csv();
        assert_eq!(csv.lines().count(), res.results.len() + 1);
        // The restriction keeps only instances where algorithms differ.
        let diff = res.restricted_to_differing();
        for r in &diff.results {
            assert!(r.algorithms_differ());
        }
    }

    #[test]
    fn csv_quotes_instance_names_per_rfc4180() {
        let (_, tree) = instance(3);
        let instances = vec![
            ("plain".to_string(), tree.clone()),
            ("with,comma".to_string(), tree.clone()),
            ("with \"quotes\"".to_string(), tree.clone()),
            ("both,\"of\",them".to_string(), tree),
        ];
        let config = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::new(vec![Arc::new(PostOrderMinIo)], MemoryBound::Middle)
        };
        let csv = run_experiment(&instances, &config)
            .expect("feasible bounds")
            .to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].starts_with("plain,"));
        assert!(lines[2].starts_with("\"with,comma\","));
        assert!(lines[3].starts_with("\"with \"\"quotes\"\"\","));
        assert!(lines[4].starts_with("\"both,\"\"of\"\",them\","));
        // Every row still has the same number of (parsed) columns: a quoted
        // cell counts as one even though it contains commas.
        for line in &lines[1..] {
            let mut cols = 0;
            let mut in_quotes = false;
            for c in line.chars() {
                match c {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => cols += 1,
                    _ => {}
                }
            }
            assert_eq!(cols, 5, "bad column count in {line:?}");
        }
    }

    /// A scheduler that always fails, to exercise error propagation.
    #[derive(Debug)]
    struct AlwaysFails;

    impl Scheduler for AlwaysFails {
        fn name(&self) -> String {
            "AlwaysFails".to_string()
        }

        fn schedule(&self, _tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            Err(TreeError::Empty)
        }
    }

    #[test]
    fn scheduler_errors_propagate_out_of_the_runner() {
        let instances: Vec<_> = (0..4).map(instance).collect();
        for threads in [1, 4] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::new(vec![Arc::new(AlwaysFails)], MemoryBound::Middle)
            };
            let err = run_experiment(&instances, &config).unwrap_err();
            assert_eq!(err.source, TreeError::Empty);
            assert_eq!(err.scheduler, "AlwaysFails");
            // The lowest-indexed failing instance wins, whatever the thread
            // interleaving.
            assert_eq!(err.instance, "inst-0");
        }
    }

    /// A scheduler that fails on exactly one instance (by node count), to
    /// inject an error in the middle of a concurrent matrix.
    #[derive(Debug)]
    struct FailsOn {
        nodes: usize,
    }

    impl Scheduler for FailsOn {
        fn name(&self) -> String {
            format!("FailsOn(nodes={})", self.nodes)
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            if tree.len() == self.nodes {
                Err(TreeError::NotTopological(tree.root()))
            } else {
                Ok(Schedule::postorder(tree))
            }
        }
    }

    #[test]
    fn concurrent_error_names_the_failing_instance() {
        // 32 healthy instances, one poisoned mid-matrix: only inst-poison
        // has 6 nodes. Every worker thread races past it; the error must
        // still name that exact (instance, scheduler) cell.
        let mut instances: Vec<_> = (0..32).map(instance).collect();
        let mut b = TreeBuilder::new();
        let r = b.add_root(2);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        let c = b.add_child(r, 1);
        let d = b.add_child(c, 5);
        b.add_child(d, 2);
        instances.insert(17, ("inst-poison".to_string(), b.build().unwrap()));

        for threads in [2, 8] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::new(
                    vec![Arc::new(PostOrderMinIo), Arc::new(FailsOn { nodes: 6 })],
                    MemoryBound::Middle,
                )
            };
            let err = run_experiment(&instances, &config).unwrap_err();
            assert_eq!(err.instance, "inst-poison", "threads = {threads}");
            assert_eq!(err.scheduler, "FailsOn(nodes=6)");
            assert!(matches!(err.source, TreeError::NotTopological(_)));
            let rendered = err.to_string();
            assert!(rendered.contains("inst-poison"), "{rendered}");
            assert!(rendered.contains("FailsOn"), "{rendered}");
        }
    }

    /// A chain of `len` nodes named `name`.
    fn chain(name: &str, len: u64) -> (String, Tree) {
        let mut b = TreeBuilder::new();
        let mut prev = b.add_root(1);
        for w in 2..=len {
            prev = b.add_child(prev, w);
        }
        (name.to_string(), b.build().unwrap())
    }

    #[test]
    fn the_lowest_failing_cell_is_reported_at_every_thread_count() {
        // Every cell fails, and the cells of the larger, later instances
        // are claimed first: the report must still be the lowest cell.
        let instances: Vec<_> = (0..8u64)
            .map(|k| chain(&format!("inst-{k}"), 3 + k))
            .collect();
        for threads in [1, 2, 4] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::new(vec![Arc::new(AlwaysFails)], MemoryBound::Middle)
            };
            let err = run_experiment(&instances, &config).unwrap_err();
            assert_eq!(err.instance, "inst-0", "threads = {threads}");
        }
    }

    /// Logs every call, by its name and the tree's node count, and fails on
    /// trees of `fails_on` nodes.
    #[derive(Debug)]
    struct Logged {
        name: &'static str,
        fails_on: usize,
        log: Arc<Mutex<Vec<(&'static str, usize)>>>,
    }

    impl Scheduler for Logged {
        fn name(&self) -> String {
            self.name.to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            self.log.lock().unwrap().push((self.name, tree.len()));
            if tree.len() == self.fails_on {
                Err(TreeError::Empty)
            } else {
                Ok(Schedule::postorder(tree))
            }
        }
    }

    #[test]
    fn cancellation_aborts_mid_instance_between_scheduler_cells() {
        // Instance 0 is the largest, so on one thread its first cell, which
        // fails, is claimed first. Every other cell comes after it in the
        // grid, so none may start: neither the second scheduler on
        // instance 0 nor any cell of instance 1.
        let big = chain("big", 9);
        let small = instance(0);
        assert_eq!(small.1.len(), 5);
        let log = Arc::new(Mutex::new(Vec::new()));
        let logged = |name, fails_on| {
            Arc::new(Logged {
                name,
                fails_on,
                log: Arc::clone(&log),
            }) as Arc<dyn Scheduler>
        };
        let config = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::new(
                vec![logged("FailsOnBig", 9), logged("Second", 0)],
                MemoryBound::Middle,
            )
        };
        let err = run_experiment(&[big, small], &config).unwrap_err();
        assert_eq!(err.instance, "big");
        assert_eq!(err.scheduler, "FailsOnBig");
        assert_eq!(
            *log.lock().unwrap(),
            [("FailsOnBig", 9)],
            "a cell after the failing one started"
        );
    }

    #[test]
    fn zero_memory_bound_is_an_error_not_a_lost_row() {
        // All weights zero: every bound, so the memory value, is zero.
        let zero = Tree::from_parents(&[0, 0, 0], &[None, Some(0), Some(0)]).unwrap();
        let healthy = Tree::from_parents(&[1, 2, 3], &[None, Some(0), Some(0)]).unwrap();
        let instances = vec![("zero".to_string(), zero), ("healthy".to_string(), healthy)];
        for threads in [1, 2] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::synth(MemoryBound::Middle)
            };
            let err = run_experiment(&instances, &config).unwrap_err();
            assert_eq!(err.instance, "zero", "threads = {threads}");
            assert_eq!(err.source, TreeError::ZeroMemory);
        }
    }

    /// A scheduler that panics on instances of one size.
    #[derive(Debug)]
    struct PanicsOn {
        nodes: usize,
    }

    impl Scheduler for PanicsOn {
        fn name(&self) -> String {
            "PanicsOn".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            assert_ne!(tree.len(), self.nodes, "deliberate scheduler panic");
            Ok(Schedule::postorder(tree))
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        // Instance 3 (6 nodes) panics; the others are healthy.
        let mut instances: Vec<_> = (0..8).map(instance).collect();
        let mut b = TreeBuilder::new();
        let r = b.add_root(2);
        let mut prev = r;
        for w in [3, 4, 1, 5, 2] {
            prev = b.add_child(prev, w);
        }
        instances.insert(3, ("inst-panic".to_string(), b.build().unwrap()));
        for threads in [1, 2] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::new(
                    vec![Arc::new(PostOrderMinIo), Arc::new(PanicsOn { nodes: 6 })],
                    MemoryBound::Middle,
                )
            };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_experiment(&instances, &config)
            }));
            let payload = outcome.expect_err("the scheduler panic must not turn into Ok");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains("deliberate scheduler panic"),
                "threads = {threads}: {message:?}"
            );
        }
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let instances: Vec<_> = (0..24).map(instance).collect();
        let config = ExperimentConfig::synth(MemoryBound::Middle);
        let run = |threads: usize| {
            run_experiment(
                &instances,
                &ExperimentConfig {
                    threads,
                    ..config.clone()
                },
            )
            .expect("feasible bounds")
        };
        let single = run(1);
        let parallel = run(8);
        assert_eq!(single.results.len(), parallel.results.len());
        for (a, b) in single.results.iter().zip(&parallel.results) {
            // Everything except wall-clock time is identical, order included.
            assert_eq!(a.name, b.name);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.bounds, b.bounds);
            assert_eq!(a.memory, b.memory);
            assert_eq!(a.io_volumes, b.io_volumes);
            assert_eq!(a.performances, b.performances);
            assert_eq!(a.peak_memories, b.peak_memories);
        }
        // And the CSV export is byte-identical.
        assert_eq!(single.to_csv(), parallel.to_csv());
    }

    #[test]
    fn per_cell_measurements_are_plumbed_through() {
        let instances: Vec<_> = (0..6).map(instance).collect();
        let config = ExperimentConfig {
            threads: 2,
            ..ExperimentConfig::new(trees_schedulers(), MemoryBound::Middle)
        };
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        for r in &res.results {
            assert_eq!(r.peak_memories.len(), 3);
            assert_eq!(r.wall_times.len(), 3);
            // A schedule can never run below the structural lower bound.
            for &peak in &r.peak_memories {
                assert!(peak >= r.bounds.lower_bound);
            }
        }
        for a in 0..3 {
            assert_eq!(
                res.total_io(a),
                res.results.iter().map(|r| r.io_volumes[a]).sum::<u64>()
            );
            assert!(res.mean_performance(a) >= 1.0);
            assert!(res.max_peak(a) >= res.results[0].bounds.lower_bound);
            // Summed wall-time is finite and consistent with the cells.
            let total = res.total_schedule_time(a);
            assert_eq!(
                total,
                res.results
                    .iter()
                    .map(|r| r.wall_times[a])
                    .sum::<std::time::Duration>()
            );
        }
    }

    /// A user-defined scheduler: plain postorder, defined outside oocts-core.
    #[derive(Debug)]
    struct PlainPostorder;

    impl Scheduler for PlainPostorder {
        fn name(&self) -> String {
            "PlainPostorder".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            Ok(Schedule::postorder(tree))
        }
    }

    /// A scheduler whose name needs quoting (any two-parameter spec renders
    /// a `", "` in its canonical name).
    #[derive(Debug)]
    struct CommaName;

    impl Scheduler for CommaName {
        fn name(&self) -> String {
            "Tuned(a=1, b=2)".to_string()
        }

        fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
            Ok(Schedule::postorder(tree))
        }
    }

    #[test]
    fn csv_quotes_whole_header_cells_for_comma_names() {
        let instances = vec![instance(2)];
        let config = ExperimentConfig {
            threads: 1,
            ..ExperimentConfig::new(vec![Arc::new(CommaName)], MemoryBound::Middle)
        };
        let csv = run_experiment(&instances, &config)
            .expect("feasible bounds")
            .to_csv();
        let header = csv.lines().next().unwrap();
        // The quote must open at the start of the cell, prefix included.
        assert!(
            header.ends_with(",\"io_Tuned(a=1, b=2)\""),
            "bad header: {header}"
        );
    }

    #[test]
    fn custom_scheduler_flows_through_runner_profile_and_csv() {
        let instances: Vec<_> = (0..6).map(instance).collect();
        let mut config = ExperimentConfig::synth(MemoryBound::Middle);
        config.schedulers.push(Arc::new(PlainPostorder));
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        assert_eq!(res.scheduler_names().last().unwrap(), "PlainPostorder");
        for r in &res.results {
            assert_eq!(r.io_volumes.len(), 5);
        }
        let profile = res.profile();
        assert!(profile.algorithms().contains(&"PlainPostorder".to_string()));
        let csv = res.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",io_PlainPostorder"));
    }

    #[test]
    fn restricted_to_differing_preserves_column_order() {
        let instances: Vec<_> = (0..12).map(instance).collect();
        let config = ExperimentConfig::synth(MemoryBound::LowerBound);
        let res = run_experiment(&instances, &config).expect("feasible bounds");
        let names = res.scheduler_names();
        let diff = res.restricted_to_differing();
        assert_eq!(diff.scheduler_names(), names, "column order must survive");
        // Per-instance columns still line up with the (unchanged) headers.
        for r in &diff.results {
            let original = res.results.iter().find(|o| o.name == r.name).unwrap();
            assert_eq!(r.io_volumes, original.io_volumes);
            assert_eq!(r.performances, original.performances);
        }
    }
}
