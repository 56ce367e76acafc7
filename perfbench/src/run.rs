//! The untraced run (end-to-end metrics) and the traced run (per-layer
//! metrics) of one workload, and the solve pass both use to check every
//! cell.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use oocts_core::scheduler::ExpansionStats;
use oocts_profile::{
    run_experiment, ExperimentError, ExperimentResults, InstanceResult, MemoryBounds,
};
use oocts_tree::{fif_io_with, peak_memory, FifScratch, Tree};
use serde::value::Value;

use crate::check::{self, Checks};
use crate::host;
use crate::trace::Tracer;
use crate::workload::{Source, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one run: per-cell checks, metrics, and a record of
/// everything needed to interpret them.
#[derive(Debug)]
pub struct Outcome {
    /// Which cells passed every check.
    pub checks: Checks,
    /// The metrics of the run, in report order.
    pub metrics: Vec<Metric>,
    /// The output digest (absent when the engine failed).
    pub digest: Option<String>,
    /// Host block, workload parameters, digest, samples and failures.
    pub record: Value,
    /// The Chrome trace of a traced run.
    pub trace: Option<Value>,
}

impl Outcome {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result(&self) -> Value {
        let mut metrics = Value::object();
        for m in &self.metrics {
            metrics.set(
                m.name,
                Value::object()
                    .with("value", Value::F64(m.value))
                    .with("unit", Value::Str(m.unit.to_string())),
            );
        }
        Value::object()
            .with("correct", Value::Bool(self.checks.failed() == 0))
            .with("attempted", Value::U64(self.checks.attempted()))
            .with("failed", Value::U64(self.checks.failed()))
            .with("metrics", metrics)
    }
}

/// The benchmark's own solve of every cell of a workload.
struct Pass {
    /// One row per instance, shaped like `run_experiment`'s.
    rows: Vec<InstanceResult>,
    /// `ExpansionStats` of every cell, instance-major.
    expansions: Vec<ExpansionStats>,
    checks: Checks,
    build_nodes: u64,
    fif_evictions: u64,
    fif_io: u64,
}

/// The span name of a scheduler's own work (the `wall_time` part of its
/// `solve`).
fn scheduling_layer(scheduler: &str) -> &'static str {
    match scheduler {
        "PostOrderMinIO" => "core.post_order_min_io",
        "OptMinMem" => "minmem.opt_min_mem",
        "PostOrderMinMem" => "minmem.post_order_min_mem",
        "RecExpand" => "core.rec_expand",
        "FullRecExpand" => "core.full_rec_expand",
        _ => "core.schedule_other",
    }
}

/// Rebuilds every instance with `Tree::from_parents`, computes its bounds,
/// solves every cell with `Scheduler::solve` and probes the schedule, each
/// inside a span of `t`; checks every cell on the way.
fn solve_pass(w: &Workload, instances: &[(String, Tree)], t: &mut Tracer) -> Pass {
    let schedulers = w.scheduler_list();
    let names: Vec<String> = schedulers.iter().map(|s| s.name()).collect();
    let mut pass = Pass {
        rows: Vec::with_capacity(instances.len()),
        expansions: Vec::with_capacity(instances.len() * schedulers.len()),
        checks: Checks::new(instances.len(), schedulers.len()),
        build_nodes: 0,
        fif_evictions: 0,
        fif_io: 0,
    };
    let mut scratch = FifScratch::new();
    for (i, (name, tree)) in instances.iter().enumerate() {
        let weights: Vec<u64> = tree.node_ids().map(|n| tree.weight(n)).collect();
        let parents: Vec<Option<usize>> = tree
            .node_ids()
            .map(|n| tree.parent(n).map(|p| p.index()))
            .collect();
        let rebuilt = t.span("tree.build", Some(i), None, |_| {
            Tree::from_parents(&weights, &parents)
        });
        if rebuilt.as_ref() != Ok(tree) {
            pass.checks
                .fail_instance(i, format!("{name}: Tree::from_parents does not rebuild it"));
        }
        drop(rebuilt);
        pass.build_nodes += tree.len() as u64;

        let bounds = t.span("profile.prep", Some(i), None, |_| MemoryBounds::of(tree));
        let memory = bounds.memory(w.bound);
        let total_weight = check::total_weight(tree);
        let mut row = InstanceResult {
            name: name.clone(),
            nodes: tree.len(),
            bounds,
            memory,
            io_volumes: Vec::new(),
            performances: Vec::new(),
            peak_memories: Vec::new(),
            wall_times: Vec::new(),
            cell_times: Vec::new(),
        };
        for (a, scheduler) in schedulers.iter().enumerate() {
            let cell_started = Instant::now();
            let layer = scheduling_layer(&names[a]);
            let solved = t.span("core.solve_replay", Some(i), Some(a), |t| {
                let start = t.now();
                let solved = scheduler.solve(tree, memory);
                if let Ok(report) = &solved {
                    t.record(layer, start, report.wall_time, Some(i), Some(a));
                }
                solved
            });
            row.cell_times.push(cell_started.elapsed());
            let report = match solved {
                Ok(report) => report,
                Err(e) => {
                    pass.checks.fail_cell(
                        i,
                        a,
                        format!("{name} / {}: solve failed: {e}", names[a]),
                    );
                    row.io_volumes.push(0);
                    row.performances.push(0.0);
                    row.peak_memories.push(0);
                    row.wall_times.push(Duration::ZERO);
                    pass.expansions.push(ExpansionStats::default());
                    continue;
                }
            };

            let mut problems = Vec::new();
            if let Err(e) = t.span("core.report_validate", Some(i), Some(a), |_| {
                report.validate(tree)
            }) {
                problems.push(format!("SolveReport::validate: {e}"));
            }
            match t.span("tree.fif", Some(i), Some(a), |_| {
                fif_io_with(tree, &report.schedule, memory, &mut scratch)
            }) {
                Ok(io) => {
                    if (io.total_io, io.peak_in_core) != (report.io_volume, report.peak_memory) {
                        problems.push(format!(
                            "FiF replay gives I/O {} and peak {}, the report {} and {}",
                            io.total_io, io.peak_in_core, report.io_volume, report.peak_memory
                        ));
                    }
                    pass.fif_evictions += io.tau.iter().filter(|&&x| x > 0).count() as u64;
                    pass.fif_io += io.total_io;
                    scratch.recycle(io.tau);
                }
                Err(e) => problems.push(format!("FiF replay failed: {e}")),
            }
            let peak = t.span("tree.peak", Some(i), Some(a), |_| {
                peak_memory(tree, &report.schedule)
            });
            if peak != Ok(report.peak_memory) {
                problems.push(format!(
                    "peak_memory gives {peak:?}, the report {}",
                    report.peak_memory
                ));
            }
            if let Err(e) = t.span("tree.schedule_validate", Some(i), Some(a), |_| {
                report.schedule.validate(tree)
            }) {
                problems.push(format!("Schedule::validate: {e}"));
            }
            if let Err(e) = check::check_cell(
                bounds,
                memory,
                total_weight,
                report.io_volume,
                report.peak_memory,
                report.performance,
            ) {
                problems.push(e);
            }
            if !problems.is_empty() {
                pass.checks.fail_cell(
                    i,
                    a,
                    format!("{name} / {}: {}", names[a], problems.join("; ")),
                );
            }
            row.io_volumes.push(report.io_volume);
            row.performances.push(report.performance);
            row.peak_memories.push(report.peak_memory);
            row.wall_times.push(report.wall_time);
            pass.expansions.push(report.expansion);
        }
        pass.rows.push(row);
    }
    pass
}

/// Fewest repetitions of a timed phase (one when asked for zero seconds).
fn min_reps(seconds: f64) -> usize {
    if seconds > 0.0 {
        3
    } else {
        1
    }
}

fn median(samples: &[Duration]) -> f64 {
    let mut s: Vec<f64> = samples.iter().map(Duration::as_secs_f64).collect();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn samples(times: &[Duration]) -> Value {
    Value::Array(times.iter().map(|d| Value::F64(d.as_secs_f64())).collect())
}

/// The checks shared by both runs, once the engine has run: the engine's
/// rows against the benchmark's own, and the digest against the one
/// recorded for this workload and seed. Returns the digest.
fn finish_checks(
    w: &Workload,
    seed: u64,
    pass: &mut Pass,
    engine: &Result<ExperimentResults, ExperimentError>,
) -> Option<String> {
    let results = match engine {
        Ok(results) => results,
        Err(e) => {
            pass.checks.fail_all(format!("run_experiment failed: {e}"));
            return None;
        }
    };
    check::compare_rows(&mut pass.checks, &pass.rows, &results.results);
    let digest = check::digest(&results.to_csv(), &pass.expansions);
    if let Some(recorded) = check::recorded_digest(w.name, seed) {
        if recorded != digest {
            pass.checks.fail_all(format!(
                "digest {digest} differs from the recorded {recorded} for seed {seed}"
            ));
        }
    }
    Some(digest)
}

fn base_record(
    w: &Workload,
    seed: u64,
    threads: usize,
    traced: bool,
    pass: &Pass,
    digest: &Option<String>,
) -> Value {
    let recorded = check::recorded_digest(w.name, seed);
    Value::object()
        .with("host", host::host_block())
        .with("params", w.params(seed, threads))
        .with("traced", Value::Bool(traced))
        .with(
            "digest",
            Value::object()
                .with("value", digest.clone().map_or(Value::Null, Value::Str))
                .with(
                    "recorded",
                    recorded.map_or(Value::Null, |d| Value::Str(d.into())),
                ),
        )
        .with("instances", Value::U64(pass.rows.len() as u64))
        .with("nodes", Value::U64(pass.build_nodes))
        .with("cells", Value::U64(pass.checks.attempted()))
        .with("cells_failed", Value::U64(pass.checks.failed()))
        .with(
            "failures",
            Value::Array(
                pass.checks
                    .notes()
                    .iter()
                    .map(|n| Value::Str(n.clone()))
                    .collect(),
            ),
        )
}

/// The untraced run: builds the workload several times (`setup_s`), runs
/// `run_experiment` over it repeatedly for `seconds` (`solve_s`), then
/// checks every cell with the solve pass outside the timed phases.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64, threads: usize) -> Outcome {
    let reps = min_reps(seconds);

    let mut setup_times = Vec::new();
    let mut instances = Vec::new();
    let budget = Duration::from_secs_f64(seconds / 4.0);
    let started = Instant::now();
    while setup_times.len() < reps || started.elapsed() < budget {
        drop(std::mem::take(&mut instances));
        let t0 = Instant::now();
        instances = black_box(w.setup(seed));
        setup_times.push(t0.elapsed());
    }

    let config = w.config(threads);
    let mut solve_times = Vec::new();
    let mut engine: Option<Result<ExperimentResults, ExperimentError>> = None;
    let mut first_csv = String::new();
    let mut unstable = false;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    while solve_times.len() < reps || started.elapsed() < budget {
        let t0 = Instant::now();
        let results = run_experiment(black_box(&instances), &config);
        solve_times.push(t0.elapsed());
        match (&results, &engine) {
            (Err(_), _) => {
                engine = Some(results);
                break;
            }
            (Ok(r), None) => {
                first_csv = r.to_csv();
                engine = Some(results);
            }
            (Ok(r), Some(_)) => unstable |= r.to_csv() != first_csv,
        }
    }
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    let engine = engine.expect("the solve loop runs at least once");

    let mut pass = solve_pass(w, &instances, &mut Tracer::disabled());
    if unstable {
        pass.checks
            .fail_all("run_experiment results differ between repetitions".into());
    }
    let digest = finish_checks(w, seed, &mut pass, &engine);
    let rows = engine.as_ref().map_or(&pass.rows, |r| &r.results);
    let io_volume: u64 = rows.iter().flat_map(|r| &r.io_volumes).sum();

    let metrics = vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: median(&setup_times),
        },
        Metric {
            name: "solve_s",
            unit: "s",
            value: median(&solve_times),
        },
        Metric {
            name: "peak_rss_mib",
            unit: "MiB",
            value: peak_rss,
        },
        Metric {
            name: "io_volume",
            unit: "units",
            value: io_volume as f64,
        },
    ];
    let record = base_record(w, seed, threads, false, &pass, &digest)
        .with("setup_samples_s", samples(&setup_times))
        .with("solve_samples_s", samples(&solve_times));
    Outcome {
        checks: pass.checks,
        metrics,
        digest,
        record,
        trace: None,
    }
}

/// The traced run: single-threaded spans around the set-up stages and every
/// call of the solve pass, then — outside the traced window — the sparse
/// stage parity check and two untraced `run_experiment` runs (at 1 and 2
/// threads) for the engine statistics, the tracing overhead and the
/// thread-count stability of the output.
///
/// # Errors
/// A workload the traced set-up cannot build.
pub fn run_traced(w: &Workload, seed: u64, threads: usize) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let (instances, mut pass) = t.span("trace", None, None, |t| -> Result<_, String> {
        let instances = w.setup_traced(seed, t)?;
        let pass = solve_pass(w, &instances, t);
        Ok((instances, pass))
    })?;

    if let Source::Trees { .. } = w.source {
        let reference = w.setup(seed);
        if reference != instances {
            let at = reference
                .iter()
                .zip(&instances)
                .position(|(a, b)| a != b)
                .unwrap_or(reference.len().min(instances.len()));
            pass.checks.fail_all(format!(
                "the sparse stages build {} trees, trees_dataset {}; first difference at {at}",
                instances.len(),
                reference.len()
            ));
        }
    }

    let timed = |threads: usize| {
        let t0 = Instant::now();
        let results = run_experiment(&instances, &w.config(threads));
        (results, t0.elapsed())
    };
    let (engine, engine_time) = timed(threads);
    let other_threads = if threads == 1 { 2 } else { 1 };
    let (other, other_time) = timed(other_threads);
    let single_thread_time = if threads == 1 {
        engine_time
    } else {
        other_time
    };
    if let (Ok(a), Ok(b)) = (&engine, &other) {
        if a.to_csv() != b.to_csv() {
            pass.checks.fail_all(format!(
                "results differ between {threads} and {other_threads} engine threads"
            ));
        }
    }
    if let Err(e) = &other {
        pass.checks.fail_all(format!(
            "run_experiment at {other_threads} threads failed: {e}"
        ));
    }
    let digest = finish_checks(w, seed, &mut pass, &engine);

    let own = t.self_times();
    let total = t.total_times();
    let counts = t.counts();
    let secs = |map: &BTreeMap<&str, Duration>, name: &str| {
        map.get(name).map_or(0.0, Duration::as_secs_f64)
    };
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let wall = secs(&total, "trace");
    let unaccounted = secs(&own, "trace");
    let solve_path = secs(&total, "profile.prep") + secs(&total, "core.solve_replay");

    let mut metrics = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, value: f64| {
        metrics.push(Metric { name, unit, value })
    };
    for layer in LAYER_TIMES {
        push(layer.0, "s", secs(&own, layer.1));
    }
    push("sparse.matrices", "count", count("sparse.assembly"));
    push("tree.build_nodes", "count", pass.build_nodes as f64);
    push(
        "core.expansions",
        "count",
        pass.expansions.iter().map(|e| e.expansions as f64).sum(),
    );
    push(
        "core.forced_io",
        "units",
        pass.expansions.iter().map(|e| e.forced_io as f64).sum(),
    );
    push("tree.fif_calls", "count", count("tree.fif"));
    push("tree.fif_evictions", "count", pass.fif_evictions as f64);
    push("tree.fif_io", "units", pass.fif_io as f64);

    // Ratios read 0 when their base is 0, which only a failed engine run gives.
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (cell_times, stats): (Vec<f64>, _) = match &engine {
        Ok(r) => (
            r.results
                .iter()
                .flat_map(|row| row.cell_times.iter().map(Duration::as_secs_f64))
                .collect(),
            r.engine.clone(),
        ),
        Err(_) => (Vec::new(), None),
    };
    let elapsed = stats.as_ref().map_or(0.0, |s| s.elapsed.as_secs_f64());
    let workers = stats.as_ref().map_or(1, |s| s.threads) as f64;
    let (executed, stolen, injected) = stats.as_ref().map_or((0, 0, 0), |s| {
        (s.total_executed(), s.total_stolen(), s.total_injected())
    });
    let cell_sum: f64 = cell_times.iter().sum();
    let max_cell = cell_times.iter().copied().fold(0.0, f64::max);
    push("profile.elapsed_s", "s", elapsed);
    push("profile.max_cell_s", "s", max_cell);
    push(
        "profile.busy_ratio",
        "ratio",
        ratio(cell_sum, workers * elapsed),
    );
    push(
        "profile.makespan_ratio",
        "ratio",
        ratio(elapsed, (cell_sum / workers).max(max_cell)),
    );
    push("profile.executed", "count", executed as f64);
    push("profile.stolen", "count", stolen as f64);
    push("profile.injected", "count", injected as f64);
    push("trace.wall_s", "s", wall);
    push("trace.unaccounted_s", "s", unaccounted);
    push(
        "trace.accounted_ratio",
        "ratio",
        ratio(wall - unaccounted, wall),
    );
    push(
        "trace.overhead_ratio",
        "ratio",
        ratio(solve_path, single_thread_time.as_secs_f64()),
    );

    let names: Vec<String> = instances.iter().map(|(n, _)| n.clone()).collect();
    let trace = t.chrome_json(&names, &w.config(threads).scheduler_names());
    let record = base_record(w, seed, threads, true, &pass, &digest)
        .with("spans", Value::U64(t.spans().len() as u64))
        .with(
            "engine_s",
            Value::object()
                .with(
                    &format!("threads_{threads}"),
                    Value::F64(engine_time.as_secs_f64()),
                )
                .with(
                    &format!("threads_{other_threads}"),
                    Value::F64(other_time.as_secs_f64()),
                ),
        );
    Ok(Outcome {
        checks: pass.checks,
        metrics,
        digest,
        record,
        trace: Some(trace),
    })
}

/// Per-layer time metrics and the span whose summed self time each reports.
const LAYER_TIMES: [(&str, &str); 18] = [
    ("sparse.generate_s", "sparse.generate"),
    ("sparse.minimum_degree_s", "sparse.minimum_degree"),
    ("sparse.ordering_other_s", "sparse.ordering_other"),
    ("sparse.permute_s", "sparse.permute"),
    ("sparse.assembly_s", "sparse.assembly"),
    ("gen.synth_s", "gen.synth"),
    ("tree.build_s", "tree.build"),
    ("profile.prep_s", "profile.prep"),
    ("core.post_order_min_io_s", "core.post_order_min_io"),
    ("minmem.opt_min_mem_s", "minmem.opt_min_mem"),
    ("minmem.post_order_min_mem_s", "minmem.post_order_min_mem"),
    ("core.rec_expand_s", "core.rec_expand"),
    ("core.full_rec_expand_s", "core.full_rec_expand"),
    ("core.solve_replay_s", "core.solve_replay"),
    ("core.report_validate_s", "core.report_validate"),
    ("tree.fif_s", "tree.fif"),
    ("tree.peak_s", "tree.peak"),
    ("tree.schedule_validate_s", "tree.schedule_validate"),
];
