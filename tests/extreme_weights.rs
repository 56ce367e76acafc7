//! Weights near `u64::MAX / n` through every built-in scheduler and the
//! experiment engine, in a debug build where arithmetic overflow panics.
//!
//! Chain, binary (Rémy) and bushy (uniform attachment) trees of `n` nodes
//! get weights just below `u64::MAX / n`, so that Σw still fits in a `u64`
//! and every memory value the solvers form is within a few weights of it.
//! Every built-in runs at LB, Mmid and Peak − 1: each solve must return a
//! report that passes `SolveReport::validate`, or a typed `TreeError`, and
//! `run_experiment` at 1 and 2 threads must return the same cells or an
//! `ExperimentError`. None may panic.

use std::panic::{self, AssertUnwindSafe};

use oocts::prelude::*;
use oocts_gen::random::{chain, random_binary_tree, uniform_attachment_tree};
use oocts_profile::bounds::{MemoryBound, MemoryBounds};
use oocts_profile::runner::{run_experiment, ExperimentConfig};

/// The trees: for each size, a chain, a Rémy tree and a uniform-attachment
/// tree, with weights drawn from the top `n`-th of the `u64` range.
fn heavy_trees() -> Vec<(String, Tree)> {
    let mut trees = Vec::new();
    for (n, seed) in [(1, 1), (2, 2), (3, 3), (7, 4), (40, 5), (150, 6)] {
        let top = u64::MAX / n as u64;
        let low = top - top / 8;
        let weights: Vec<u64> = (0..n as u64)
            .map(|i| top - (i * 7919) % (top - low + 1))
            .collect();
        trees.push((format!("chain-{n}"), chain(&weights)));
        trees.push((
            format!("binary-{n}"),
            random_binary_tree(n, low..=top, seed),
        ));
        trees.push((
            format!("bushy-{n}"),
            uniform_attachment_tree(n, low..=top, seed),
        ));
        // Every weight equal: ties in every comparison the solvers make.
        trees.push((format!("flat-{n}"), random_binary_tree(n, top..=top, seed)));
    }
    for (name, tree) in &trees {
        let total = tree
            .node_ids()
            .try_fold(0u64, |sum, v| sum.checked_add(tree.weight(v)));
        assert!(total.is_some(), "{name}: Σw must fit in a u64");
    }
    trees
}

const BOUNDS: [MemoryBound; 3] = [
    MemoryBound::LowerBound,
    MemoryBound::Middle,
    MemoryBound::BelowPeak,
];

#[test]
fn every_builtin_solves_or_returns_a_typed_error() {
    let registry = SchedulerRegistry::with_builtins();
    let schedulers: Vec<_> = registry
        .names()
        .into_iter()
        .map(|name| registry.get(name).unwrap())
        .collect();
    assert_eq!(schedulers.len(), 6, "every built-in");
    let mut solved = 0;
    for (name, tree) in heavy_trees() {
        let bounds = MemoryBounds::of(&tree);
        assert!(bounds.lower_bound <= bounds.peak_incore);
        for bound in BOUNDS {
            let memory = bounds.memory(bound);
            for scheduler in &schedulers {
                let what = format!("{} on {name} at {bound}", scheduler.name());
                let outcome =
                    panic::catch_unwind(AssertUnwindSafe(|| scheduler.solve(&tree, memory)))
                        .unwrap_or_else(|_| panic!("{what} panicked"));
                if let Ok(report) = outcome {
                    report
                        .validate(&tree)
                        .unwrap_or_else(|e| panic!("{what}: invalid report: {e}"));
                    assert!(report.peak_memory >= bounds.peak_incore, "{what}");
                    solved += 1;
                }
            }
        }
    }
    assert!(solved > 300, "only {solved} solves returned a report");
}

#[test]
fn run_experiment_returns_cells_or_an_error() {
    let trees = heavy_trees();
    let registry = SchedulerRegistry::with_builtins();
    let schedulers = registry
        .get_list(
            "PostOrderMinIO,OptMinMem,RecExpand,FullRecExpand,PostOrderMinMem,RandomPostOrder",
        )
        .unwrap();
    for bound in BOUNDS {
        let mut previous: Option<Vec<(Vec<u64>, Vec<u64>)>> = None;
        for threads in [1, 2] {
            let config = ExperimentConfig {
                threads,
                ..ExperimentConfig::new(schedulers.clone(), bound)
            };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_experiment(&trees, &config)))
                .unwrap_or_else(|_| {
                    panic!("run_experiment at {bound}, {threads} threads panicked")
                });
            let Ok(results) = outcome else {
                continue;
            };
            let cells: Vec<_> = results
                .results
                .iter()
                .map(|row| (row.io_volumes.clone(), row.peak_memories.clone()))
                .collect();
            assert_eq!(cells.len(), trees.len());
            if let Some(previous) = &previous {
                assert_eq!(&cells, previous, "{bound}: 1 and 2 threads differ");
            }
            previous = Some(cells);
        }
    }
}
