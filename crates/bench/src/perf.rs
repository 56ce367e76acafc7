//! Perf-trajectory benchmark matrix and the `BENCH_*.json` snapshot schema.
//!
//! The `bench` binary runs a fixed matrix of **(instance family × size ×
//! scheduler × thread count)** cells through
//! [`oocts_profile::runner::run_experiment`] and snapshots what came out of
//! every [`SolveReport`](oocts_core::scheduler::SolveReport): scheduling
//! wall-time, FiF I/O volume, the paper's performance metric and the
//! in-core peak. Snapshots are plain JSON files (`BENCH_<label>.json` at the
//! repository root) meant to be diffed across commits — the *perf
//! trajectory* of the codebase.
//!
//! # The `oocts-bench/v1` schema
//!
//! ```json
//! {
//!   "schema": "oocts-bench/v1",
//!   "label": "ci",
//!   "quick": true,
//!   "seed": 24301,
//!   "threads": [1, 4],
//!   "cells": [
//!     {
//!       "family": "SYNTH",
//!       "size": 250,
//!       "instances": 6,
//!       "scheduler": "RecExpand",
//!       "threads": 4,
//!       "memory_bound": "Middle",
//!       "total_io": 1234,
//!       "mean_performance": 1.25,
//!       "max_peak": 560,
//!       "wall_ms": 12.5
//!     }
//!   ]
//! }
//! ```
//!
//! Field semantics (one cell per scheduler of each run):
//!
//! * `family` — `"SYNTH"` (random binary trees) or `"TREES"` (multifrontal
//!   assembly trees); `size` is the node count per SYNTH tree or the TREES
//!   scale factor; `instances` the number of instances of the run.
//! * `total_io` / `max_peak` — [`ExperimentResults::total_io`] and
//!   [`ExperimentResults::max_peak`]: summed FiF I/O volume and worst
//!   in-core peak over the run's instances. Deterministic.
//! * `mean_performance` — [`ExperimentResults::mean_performance`], the mean
//!   of the paper's `(M + IO)/M` metric. Deterministic.
//! * `wall_ms` — [`ExperimentResults::total_schedule_time`] in milliseconds:
//!   the summed scheduling wall-time of the scheduler over all instances.
//!   Machine-dependent; compare trends, not digits.
//! * `engine` *(optional, schema-compatible addition)* — execution-engine
//!   statistics of the run that produced the cell, identical across the
//!   cells of one run:
//!
//!   ```json
//!   "engine": {
//!     "granularity": "Cell",
//!     "threads": 8,
//!     "elapsed_ms": 41.7,
//!     "cells": 256,
//!     "executed": 320,
//!     "stolen": 12,
//!     "injected": 58,
//!     "cell_wall_ms": 33.1,
//!     "csv_fnv64": "0x9b1a3f6c2d4e5a70"
//!   }
//!   ```
//!
//!   `granularity` is the engine decomposition (`"Cell"` or `"Instance"`);
//!   `elapsed_ms` the parallel wall-clock of the whole run (the number the
//!   `BENCH_pr10_before`/`BENCH_pr10` pair compares); `cells` the scheduler
//!   cells executed; `executed`/`stolen`/`injected` the summed per-worker
//!   task counters; `cell_wall_ms` the total engine-measured wall-time of
//!   *this scheduler's* cells; `csv_fnv64` the FNV-1a digest of the run's
//!   streamed per-instance CSV — deterministic, so identical digests across
//!   snapshots prove bit-identical CSV bytes. All `*_ms` fields are
//!   machine-dependent; everything else in `engine` except the counters is
//!   deterministic.
//!
//! Families are `"SYNTH"`, `"TREES"`, and `"IMBAL"` (the deliberately
//! imbalanced grid of `bench --imbalanced`: one huge instance plus many
//! tiny ones, built to measure load-balancing of the execution engine;
//! it runs the comparable-cost [`IMBAL_SCHEDULERS`] so the huge row can
//! actually be split across workers).
//!
//! [`validate_bench`] checks this shape and is what the CI gate (and the
//! `bench --validate` flag) runs against freshly emitted snapshots.
//!
//! [`ExperimentResults::total_io`]: oocts_profile::runner::ExperimentResults::total_io
//! [`ExperimentResults::max_peak`]: oocts_profile::runner::ExperimentResults::max_peak
//! [`ExperimentResults::mean_performance`]: oocts_profile::runner::ExperimentResults::mean_performance
//! [`ExperimentResults::total_schedule_time`]: oocts_profile::runner::ExperimentResults::total_schedule_time

use std::sync::Arc;

use oocts_core::registry::SchedulerRegistry;
use oocts_core::scheduler::{builtin_schedulers, Scheduler};
use oocts_gen::corpus::GoldenRecord;
use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig, Instance};
use oocts_profile::bounds::MemoryBound;
use oocts_profile::engine::Granularity;
use oocts_profile::runner::{
    csv_header, run_experiment, run_experiment_streaming, ExperimentConfig, ExperimentError,
};
use oocts_tree::Tree;
use serde::value::Value;

/// Schema identifier written to (and required in) every snapshot.
pub const BENCH_SCHEMA_VERSION: &str = "oocts-bench/v1";

/// The scheduler specs of the benchmark matrix. `FullRecExpand` is excluded:
/// its exponential worst case would dominate the wall-time columns and the
/// trajectory should track the practical strategies.
pub const BENCH_SCHEDULERS: &str = "PostOrderMinIO,OptMinMem,RecExpand,PostOrderMinMem";

/// The scheduler specs of the imbalanced grid (`bench --imbalanced`).
/// `RecExpand` is additionally excluded here: its superlinear cost on the
/// huge instance would make that row a *single-cell* critical path, which no
/// cell-granularity balancing can split — the grid is built to measure load
/// balancing, so its per-cell costs must be comparable.
pub const IMBAL_SCHEDULERS: &str = "PostOrderMinIO,OptMinMem,PostOrderMinMem";

/// Configuration of one benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchConfig {
    /// Snapshot label: the output file is `BENCH_<label>.json`.
    pub label: String,
    /// Reduced matrix (CI-sized); recorded in the snapshot.
    pub quick: bool,
    /// Base random seed of the generated datasets.
    pub seed: u64,
    /// Thread counts of the matrix (each run is repeated per count).
    pub threads: Vec<usize>,
    /// Replace the matrix with the load-imbalance grid (`IMBAL` family):
    /// one huge instance plus many tiny ones, the worst case for
    /// instance-granularity sharding.
    pub imbalanced: bool,
    /// Execution-engine decomposition (`bench --sharding instance|cell`);
    /// output is byte-identical either way, only wall-clock differs.
    pub granularity: Granularity,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            label: "local".to_string(),
            quick: false,
            seed: 0x5eed,
            threads: vec![1, 4],
            imbalanced: false,
            granularity: Granularity::Cell,
        }
    }
}

impl BenchConfig {
    /// The CI-sized configuration (`bench --quick`).
    pub fn quick() -> Self {
        BenchConfig {
            quick: true,
            ..BenchConfig::default()
        }
    }

    /// The snapshot file name, `BENCH_<label>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.label)
    }
}

/// One (family × size) axis point of the matrix.
struct MatrixRun {
    family: &'static str,
    /// Nodes per tree for SYNTH, scale factor for TREES.
    size: usize,
    instances: Vec<(String, Tree)>,
}

fn matrix_runs(config: &BenchConfig) -> Vec<MatrixRun> {
    let synth_sizes: &[(usize, usize)] = if config.quick {
        &[(120, 6), (250, 6)]
    } else {
        &[(500, 24), (1500, 24)]
    };
    let trees_scales: &[usize] = if config.quick { &[1] } else { &[1, 2] };

    let mut runs = Vec::new();
    for &(nodes, count) in synth_sizes {
        let ds = synth_dataset(&DatasetConfig {
            synth_instances: count,
            synth_nodes: nodes,
            trees_scale: 1,
            seed: config.seed,
        });
        runs.push(MatrixRun {
            family: "SYNTH",
            size: nodes,
            instances: ds.into_iter().map(|i| (i.name, i.tree)).collect(),
        });
    }
    for &scale in trees_scales {
        let ds = trees_dataset(&DatasetConfig {
            synth_instances: 0,
            synth_nodes: 0,
            trees_scale: scale,
            seed: config.seed,
        });
        runs.push(MatrixRun {
            family: "TREES",
            size: scale,
            instances: ds.into_iter().map(|i| (i.name, i.tree)).collect(),
        });
    }
    runs
}

/// The deliberately imbalanced grid (`bench --imbalanced`): one huge SYNTH
/// instance plus 63 tiny ones. Under instance-granularity sharding the huge
/// instance pins a single worker for all schedulers in a row; the cell
/// engine spreads its scheduler cells over the pool. Deterministic in
/// `seed`, like the regular matrix.
fn imbalanced_run(config: &BenchConfig) -> MatrixRun {
    let (huge_nodes, tiny_nodes) = if config.quick {
        (6_000, 150)
    } else {
        (1 << 18, 250)
    };
    let mut huge = synth_dataset(&DatasetConfig {
        synth_instances: 1,
        synth_nodes: huge_nodes,
        trees_scale: 1,
        seed: config.seed,
    });
    let tiny = synth_dataset(&DatasetConfig {
        synth_instances: 63,
        synth_nodes: tiny_nodes,
        trees_scale: 1,
        seed: config.seed.wrapping_add(1),
    });
    huge[0].name = "imbal-huge".to_string();
    let mut instances: Vec<(String, Tree)> = huge.into_iter().map(|i| (i.name, i.tree)).collect();
    instances.extend(
        tiny.into_iter()
            .map(|i| (format!("imbal-{}", i.name), i.tree)),
    );
    MatrixRun {
        family: "IMBAL",
        size: huge_nodes,
        instances,
    }
}

/// Streaming FNV-1a 64-bit digest, rendered `0x`-hex — the checksum behind
/// the `csv_fnv64` snapshot field. Fed row by row as the engine streams
/// results, so it also proves the streamed CSV equals the batch export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// A fresh digest at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest rendered as `0x`-prefixed lowercase hex.
    pub fn render(self) -> String {
        format!("{:#018x}", self.0)
    }
}

/// Runs the benchmark matrix and returns the snapshot as a JSON [`Value`]
/// (validate with [`validate_bench`], write with
/// [`Value::render_pretty`]).
///
/// # Errors
/// Propagates the first [`ExperimentError`] of any run — the paper's memory
/// bounds are feasible by construction, so an error here is a regression.
pub fn run_bench(config: &BenchConfig) -> Result<Value, ExperimentError> {
    let registry = SchedulerRegistry::with_builtins();
    let spec = if config.imbalanced {
        IMBAL_SCHEDULERS
    } else {
        BENCH_SCHEDULERS
    };
    let schedulers: Vec<Arc<dyn Scheduler>> = registry
        .get_list(spec)
        .expect("the built-in benchmark specs parse");

    let runs = if config.imbalanced {
        vec![imbalanced_run(config)]
    } else {
        matrix_runs(config)
    };
    let mut cells = Vec::new();
    for run in runs {
        for &threads in &config.threads {
            let mut exp = ExperimentConfig::new(schedulers.clone(), MemoryBound::Middle);
            exp.threads = threads;
            exp.granularity = config.granularity;
            // The per-instance CSV is digested as the engine streams rows
            // out, not from the assembled results: identical `csv_fnv64`
            // values across snapshots certify bit-identical CSV bytes AND
            // that the streamed rows equal the batch export.
            let mut digest = Fnv64::new();
            digest.update(csv_header(&exp.scheduler_names()).as_bytes());
            let results = run_experiment_streaming(&run.instances, &exp, |row| {
                digest.update(row.csv_row().as_bytes());
            })?;
            let engine = results.engine.as_ref();
            for (a, name) in results.scheduler_names().iter().enumerate() {
                let mut cell = Value::object()
                    .with("family", Value::Str(run.family.to_string()))
                    .with("size", Value::U64(run.size as u64))
                    .with("instances", Value::U64(results.results.len() as u64))
                    .with("scheduler", Value::Str(name.clone()))
                    .with("threads", Value::U64(threads as u64))
                    .with("memory_bound", Value::Str(format!("{:?}", results.bound)))
                    .with("total_io", Value::U64(results.total_io(a)))
                    .with("mean_performance", Value::F64(results.mean_performance(a)))
                    .with("max_peak", Value::U64(results.max_peak(a)))
                    .with(
                        "wall_ms",
                        Value::F64(results.total_schedule_time(a).as_secs_f64() * 1e3),
                    );
                if let Some(stats) = engine {
                    cell = cell.with(
                        "engine",
                        Value::object()
                            .with(
                                "granularity",
                                Value::Str(format!("{:?}", stats.granularity)),
                            )
                            .with("threads", Value::U64(stats.threads as u64))
                            .with("elapsed_ms", Value::F64(stats.elapsed.as_secs_f64() * 1e3))
                            .with("cells", Value::U64(stats.cells))
                            .with("executed", Value::U64(stats.total_executed()))
                            .with("stolen", Value::U64(stats.total_stolen()))
                            .with("injected", Value::U64(stats.total_injected()))
                            .with(
                                "cell_wall_ms",
                                Value::F64(results.total_cell_time(a).as_secs_f64() * 1e3),
                            )
                            .with("csv_fnv64", Value::Str(digest.render())),
                    );
                }
                cells.push(cell);
            }
        }
    }

    Ok(Value::object()
        .with("schema", Value::Str(BENCH_SCHEMA_VERSION.to_string()))
        .with("label", Value::Str(config.label.clone()))
        .with("quick", Value::Bool(config.quick))
        .with("seed", Value::U64(config.seed))
        .with(
            "threads",
            Value::Array(
                config
                    .threads
                    .iter()
                    .map(|&t| Value::U64(t as u64))
                    .collect(),
            ),
        )
        .with("cells", Value::Array(cells)))
}

/// Validates a snapshot against the `oocts-bench/v1` schema documented on
/// this module (shape, types and value ranges).
///
/// # Errors
/// A human-readable path to the first violation, e.g.
/// `cells[3].total_io: expected a non-negative integer`.
pub fn validate_bench(snapshot: &Value) -> Result<(), String> {
    let top = |key: &str| {
        snapshot
            .get(key)
            .ok_or_else(|| format!("missing top-level key {key:?}"))
    };

    let schema = top("schema")?.as_str().ok_or("schema: expected a string")?;
    if schema != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "schema: expected {BENCH_SCHEMA_VERSION:?}, found {schema:?}"
        ));
    }
    let label = top("label")?.as_str().ok_or("label: expected a string")?;
    if label.is_empty() {
        return Err("label: must not be empty".to_string());
    }
    top("quick")?.as_bool().ok_or("quick: expected a boolean")?;
    top("seed")?.as_u64().ok_or("seed: expected an integer")?;
    let threads = top("threads")?
        .as_array()
        .ok_or("threads: expected an array")?;
    if threads.is_empty() || threads.iter().any(|t| t.as_u64().is_none()) {
        return Err("threads: expected a non-empty array of integers".to_string());
    }

    let cells = top("cells")?.as_array().ok_or("cells: expected an array")?;
    if cells.is_empty() {
        return Err("cells: must not be empty".to_string());
    }
    for (i, cell) in cells.iter().enumerate() {
        validate_cell(cell).map_err(|e| format!("cells[{i}].{e}"))?;
    }
    Ok(())
}

fn validate_cell(cell: &Value) -> Result<(), String> {
    let field = |key: &str| cell.get(key).ok_or_else(|| format!("{key}: missing"));

    let family = field("family")?
        .as_str()
        .ok_or("family: expected a string")?;
    if family != "SYNTH" && family != "TREES" && family != "IMBAL" {
        return Err(format!(
            "family: expected SYNTH, TREES or IMBAL, found {family:?}"
        ));
    }
    let size = field("size")?.as_u64().ok_or("size: expected an integer")?;
    if size == 0 {
        return Err("size: must be positive".to_string());
    }
    let instances = field("instances")?
        .as_u64()
        .ok_or("instances: expected an integer")?;
    if instances == 0 {
        return Err("instances: must be positive".to_string());
    }
    let scheduler = field("scheduler")?
        .as_str()
        .ok_or("scheduler: expected a string")?;
    if scheduler.is_empty() {
        return Err("scheduler: must not be empty".to_string());
    }
    field("threads")?
        .as_u64()
        .ok_or("threads: expected an integer")?;
    field("memory_bound")?
        .as_str()
        .ok_or("memory_bound: expected a string")?;
    field("total_io")?
        .as_u64()
        .ok_or("total_io: expected a non-negative integer")?;
    let perf = field("mean_performance")?
        .as_f64()
        .ok_or("mean_performance: expected a number")?;
    if !perf.is_finite() || perf < 1.0 {
        return Err(format!(
            "mean_performance: the (M + IO)/M metric is >= 1, found {perf}"
        ));
    }
    field("max_peak")?
        .as_u64()
        .ok_or("max_peak: expected a non-negative integer")?;
    let wall = field("wall_ms")?
        .as_f64()
        .ok_or("wall_ms: expected a number")?;
    if !wall.is_finite() || wall < 0.0 {
        return Err(format!(
            "wall_ms: expected a non-negative number, found {wall}"
        ));
    }
    // `engine` is an optional, schema-compatible addition: absent in
    // pre-engine snapshots, validated when present.
    if let Some(engine) = cell.get("engine") {
        validate_engine(engine).map_err(|e| format!("engine.{e}"))?;
    }
    Ok(())
}

fn validate_engine(engine: &Value) -> Result<(), String> {
    let field = |key: &str| engine.get(key).ok_or_else(|| format!("{key}: missing"));

    let granularity = field("granularity")?
        .as_str()
        .ok_or("granularity: expected a string")?;
    if granularity != "Cell" && granularity != "Instance" {
        return Err(format!(
            "granularity: expected Cell or Instance, found {granularity:?}"
        ));
    }
    let threads = field("threads")?
        .as_u64()
        .ok_or("threads: expected an integer")?;
    if threads == 0 {
        return Err("threads: must be positive".to_string());
    }
    for key in ["cells", "executed", "stolen", "injected"] {
        field(key)?
            .as_u64()
            .ok_or_else(|| format!("{key}: expected a non-negative integer"))?;
    }
    for key in ["elapsed_ms", "cell_wall_ms"] {
        let ms = field(key)?
            .as_f64()
            .ok_or_else(|| format!("{key}: expected a number"))?;
        if !ms.is_finite() || ms < 0.0 {
            return Err(format!("{key}: expected a non-negative number, found {ms}"));
        }
    }
    let digest = field("csv_fnv64")?
        .as_str()
        .ok_or("csv_fnv64: expected a string")?;
    if digest.len() != 18
        || !digest.starts_with("0x")
        || !digest[2..].bytes().all(|b| b.is_ascii_hexdigit())
    {
        return Err(format!(
            "csv_fnv64: expected an 0x-prefixed 16-digit hex string, found {digest:?}"
        ));
    }
    Ok(())
}

/// The instances snapshotted into the golden corpus (`tests/corpus/`):
/// a handful of small SYNTH trees plus the smallest TREES assembly trees,
/// all deterministic in `seed`.
///
/// Small on purpose — the golden suite replays every instance under every
/// built-in scheduler (`FullRecExpand` included) in debug builds.
pub fn corpus_instances(seed: u64) -> Vec<Instance> {
    let mut instances = synth_dataset(&DatasetConfig {
        synth_instances: 5,
        synth_nodes: 220,
        trees_scale: 1,
        seed,
    });
    for inst in &mut instances {
        inst.name = format!("corpus-{}", inst.name);
    }
    let mut trees = trees_dataset(&DatasetConfig {
        synth_instances: 0,
        synth_nodes: 0,
        trees_scale: 1,
        seed,
    });
    trees.sort_by_key(|i| i.tree.len());
    for mut inst in trees.into_iter().take(3) {
        inst.name = format!("corpus-{}", inst.name);
        instances.push(inst);
    }
    instances
}

/// Computes the golden expectations of a corpus: every instance solved by
/// every built-in scheduler at the `Middle` memory bound, through the same
/// [`run_experiment`] path the golden suite replays.
///
/// # Errors
/// Propagates the first [`ExperimentError`]; the corpus instances are
/// feasible under the paper's bounds by construction.
pub fn corpus_golden(instances: &[Instance]) -> Result<Vec<GoldenRecord>, ExperimentError> {
    let named: Vec<(String, Tree)> = instances
        .iter()
        .map(|i| (i.name.clone(), i.tree.clone()))
        .collect();
    let config = ExperimentConfig::new(builtin_schedulers(), MemoryBound::Middle);
    let results = run_experiment(&named, &config)?;
    let names = results.scheduler_names();
    let mut records = Vec::with_capacity(results.results.len() * names.len());
    for res in &results.results {
        for (a, scheduler) in names.iter().enumerate() {
            records.push(GoldenRecord {
                instance: res.name.clone(),
                scheduler: scheduler.clone(),
                memory: res.memory,
                io_volume: res.io_volumes[a],
                peak_memory: res.peak_memories[a],
            });
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_bench_snapshot_passes_schema_validation() {
        let mut config = BenchConfig::quick();
        config.label = "unit".to_string();
        config.threads = vec![1, 2];
        let snapshot = run_bench(&config).expect("paper bounds are feasible");
        validate_bench(&snapshot).expect("freshly emitted snapshots are schema-valid");

        // The matrix shape: (2 SYNTH sizes + 1 TREES scale) × 2 thread
        // counts × 4 schedulers.
        let cells = snapshot.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells.len(), 3 * 2 * 4);
        assert_eq!(config.file_name(), "BENCH_unit.json");

        // The snapshot survives a serialization round-trip intact.
        let reparsed = Value::parse(&snapshot.render_pretty()).unwrap();
        assert_eq!(reparsed, snapshot);
        validate_bench(&reparsed).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_snapshots() {
        let mut config = BenchConfig::quick();
        config.threads = vec![1];
        let good = run_bench(&config).unwrap();

        let mut wrong_schema = good.clone();
        wrong_schema.set("schema", Value::Str("oocts-bench/v0".to_string()));
        assert!(validate_bench(&wrong_schema)
            .unwrap_err()
            .contains("schema"));

        let mut no_cells = good.clone();
        no_cells.set("cells", Value::Array(Vec::new()));
        assert!(validate_bench(&no_cells).unwrap_err().contains("cells"));

        let mut bad_cell = good.clone();
        let mut cells = match bad_cell.get("cells") {
            Some(Value::Array(c)) => c.clone(),
            _ => unreachable!(),
        };
        cells[0].set("total_io", Value::Str("lots".to_string()));
        bad_cell.set("cells", Value::Array(cells));
        let err = validate_bench(&bad_cell).unwrap_err();
        assert!(err.contains("cells[0].total_io"), "{err}");

        assert!(validate_bench(&Value::Null).is_err());
    }

    #[test]
    fn snapshot_cells_carry_a_valid_engine_object() {
        let mut config = BenchConfig::quick();
        config.label = "engine-unit".to_string();
        config.threads = vec![2];
        let snapshot = run_bench(&config).expect("paper bounds are feasible");
        validate_bench(&snapshot).expect("schema-valid with engine objects");
        let cells = snapshot.get("cells").unwrap().as_array().unwrap();
        for cell in cells {
            let engine = cell.get("engine").expect("engine runs attach stats");
            assert_eq!(engine.get("granularity").unwrap().as_str(), Some("Cell"));
            assert_eq!(engine.get("threads").unwrap().as_u64(), Some(2));
            // Every cell of the matrix was executed by some worker.
            let cells_run = engine.get("cells").unwrap().as_u64().unwrap();
            let instances = cell.get("instances").unwrap().as_u64().unwrap();
            assert_eq!(cells_run, instances * 4);
            let executed = engine.get("executed").unwrap().as_u64().unwrap();
            assert_eq!(executed, instances * 5, "4 solve cells + 1 prep each");
        }
    }

    #[test]
    fn imbalanced_grid_is_deterministic_across_shardings() {
        let base = {
            let mut c = BenchConfig::quick();
            c.imbalanced = true;
            c.threads = vec![4];
            c
        };
        let cell = run_bench(&base).expect("feasible");
        let instance = {
            let mut c = base.clone();
            c.granularity = Granularity::Instance;
            run_bench(&c).expect("feasible")
        };
        for snap in [&cell, &instance] {
            validate_bench(snap).expect("IMBAL snapshots are schema-valid");
        }
        let cells_of = |snap: &Value| match snap.get("cells") {
            Some(Value::Array(c)) => c.clone(),
            _ => unreachable!(),
        };
        let (a, b) = (cells_of(&cell), cells_of(&instance));
        assert_eq!(a.len(), 3, "one IMBAL run x 3 IMBAL_SCHEDULERS");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.get("family").unwrap().as_str(), Some("IMBAL"));
            // Deterministic fields are sharding-independent...
            assert_eq!(x.get("total_io"), y.get("total_io"));
            assert_eq!(x.get("max_peak"), y.get("max_peak"));
            assert_eq!(x.get("instances"), y.get("instances"));
            // ...and so is the streamed CSV, byte for byte.
            assert_eq!(
                x.get("engine").unwrap().get("csv_fnv64"),
                y.get("engine").unwrap().get("csv_fnv64")
            );
            assert_eq!(
                y.get("engine")
                    .unwrap()
                    .get("granularity")
                    .unwrap()
                    .as_str(),
                Some("Instance")
            );
        }
    }

    #[test]
    fn streamed_csv_digest_matches_the_batch_export() {
        let run = imbalanced_run(&BenchConfig::quick());
        let registry = SchedulerRegistry::with_builtins();
        let mut exp = ExperimentConfig::new(
            registry.get_list(BENCH_SCHEDULERS).unwrap(),
            MemoryBound::Middle,
        );
        exp.threads = 3;
        let mut digest = Fnv64::new();
        digest.update(csv_header(&exp.scheduler_names()).as_bytes());
        let results = run_experiment_streaming(&run.instances, &exp, |row| {
            digest.update(row.csv_row().as_bytes());
        })
        .expect("feasible");
        let mut batch = Fnv64::new();
        batch.update(results.to_csv().as_bytes());
        assert_eq!(digest.render(), batch.render());
        assert!(digest.render().starts_with("0x"));
        assert_eq!(digest.render().len(), 18);
    }

    #[test]
    fn validator_rejects_malformed_engine_objects() {
        let mut config = BenchConfig::quick();
        config.threads = vec![1];
        config.imbalanced = true;
        let good = run_bench(&config).unwrap();

        let mut bad = good.clone();
        let mut cells = match bad.get("cells") {
            Some(Value::Array(c)) => c.clone(),
            _ => unreachable!(),
        };
        let mut engine = cells[0].get("engine").unwrap().clone();
        engine.set("csv_fnv64", Value::Str("not-hex".to_string()));
        cells[0].set("engine", engine);
        bad.set("cells", Value::Array(cells));
        let err = validate_bench(&bad).unwrap_err();
        assert!(err.contains("cells[0].engine.csv_fnv64"), "{err}");

        let mut bad_gran = good.clone();
        let mut cells = match bad_gran.get("cells") {
            Some(Value::Array(c)) => c.clone(),
            _ => unreachable!(),
        };
        let mut engine = cells[1].get("engine").unwrap().clone();
        engine.set("granularity", Value::Str("Sideways".to_string()));
        cells[1].set("engine", engine);
        bad_gran.set("cells", Value::Array(cells));
        let err = validate_bench(&bad_gran).unwrap_err();
        assert!(err.contains("engine.granularity"), "{err}");

        // A cell with no engine object at all stays valid (pre-engine
        // snapshots must keep validating).
        let mut no_engine = good.clone();
        let mut cells = match no_engine.get("cells") {
            Some(Value::Array(c)) => c.clone(),
            _ => unreachable!(),
        };
        for cell in &mut cells {
            if let Value::Object(entries) = cell {
                entries.retain(|(k, _)| k != "engine");
            }
        }
        no_engine.set("cells", Value::Array(cells));
        validate_bench(&no_engine).expect("engine is optional");
    }

    #[test]
    fn corpus_is_deterministic_and_golden_covers_every_cell() {
        let a = corpus_instances(7);
        let b = corpus_instances(7);
        assert_eq!(a.len(), 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.tree, y.tree);
        }
        let golden = corpus_golden(&a).expect("corpus instances are feasible");
        assert_eq!(golden.len(), a.len() * builtin_schedulers().len());
        assert!(golden.iter().any(|r| r.scheduler == "FullRecExpand"));
        assert!(golden
            .iter()
            .all(|r| r.peak_memory >= 1 && r.instance.starts_with("corpus-")));
    }

    #[test]
    fn generators_reproduce_the_committed_corpus() {
        use oocts_gen::corpus::{format_golden, format_instance};
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let read = |name: &str| {
            let path = dir.join(name);
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        };
        // The seed `bench --emit-corpus` uses by default.
        let instances = corpus_instances(BenchConfig::default().seed);
        let mut committed: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|entry| entry.unwrap().file_name().into_string().ok())
            .filter(|name| name.ends_with(".tree"))
            .collect();
        committed.sort();
        let mut emitted: Vec<String> = instances
            .iter()
            .map(|i| format!("{}.tree", i.name))
            .collect();
        emitted.sort();
        assert_eq!(emitted, committed);
        for inst in &instances {
            let text = format_instance(&inst.name, &inst.tree).unwrap();
            assert!(
                text == read(&format!("{}.tree", inst.name)),
                "{} differs",
                inst.name
            );
        }
        let golden = corpus_golden(&instances).expect("corpus instances are feasible");
        assert!(
            format_golden(&golden) == read("golden.tsv"),
            "golden.tsv differs"
        );
    }

    #[test]
    fn pretty_rendering_parses_back_identically() {
        let value = Value::object()
            .with("scheduler", Value::Str("RecExpand".to_string()))
            .with("io_volume", Value::U64(12))
            .with("performance", Value::F64(1.0))
            .with(
                "expansion",
                Value::object()
                    .with("expansions", Value::U64(2))
                    .with("hit_iteration_cap", Value::Bool(false)),
            )
            .with("schedule", Value::Array(vec![Value::U64(3), Value::U64(1)]));
        let pretty = value.render_pretty();
        assert!(pretty.ends_with('\n'));
        assert_eq!(Value::parse(&pretty).unwrap(), value);
    }

    #[test]
    fn json_strings_with_special_characters_round_trip() {
        for name in ["a,b", "q\"uo\"te", "line\nbreak", "tab\tand\rcr", "ünïcode"] {
            let value = Value::Str(name.to_string());
            let parsed = Value::parse(&value.render()).unwrap();
            assert_eq!(parsed.as_str(), Some(name));
        }
    }

    #[test]
    fn deep_nesting_is_a_located_error_not_a_stack_overflow() {
        use serde::value::MAX_DEPTH;
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&deepest).is_ok());
        // The first bracket past the limit is the offending offset.
        let err = Value::parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        let err = Value::parse(&r#"{"k":"#.repeat(200_000)).unwrap_err();
        assert_eq!(err.offset, 5 * MAX_DEPTH);
    }
}
