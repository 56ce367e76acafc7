//! Defining a scheduling strategy outside the workspace and running it
//! through the whole evaluation pipeline.
//!
//! The `Scheduler` trait is the extension point of OOCTS: implement `name()`
//! and `schedule()`, register the strategy, and the experiment runner, the
//! Dolan–Moré profiles and the CSV export treat it exactly like the paper's
//! built-ins.
//!
//! The strategy implemented here — `DeepestFirst` — always recurses into the
//! child with the tallest subtree first. Not a good idea (the paper's
//! `PostOrderMinIO` orders children by an exact analysis instead), but that
//! is the point: the harness makes it easy to measure *how* bad an idea is.
//! Like every strategy, it looks only at the tree's shape and child order
//! (its sort is stable), never at node ids, so it gives the same schedule
//! on the postorder-numbered copy the runner makes of a large instance.
//!
//! Run with: `cargo run --release --example custom_scheduler`

use std::sync::Arc;

use oocts::prelude::*;
use oocts_gen::dataset::{synth_dataset, DatasetConfig};
use oocts_profile::bounds::MemoryBound;
use oocts_tree::TreeError;

/// A postorder that visits the child with the deepest subtree first.
#[derive(Debug, Clone, Copy)]
struct DeepestFirst;

impl Scheduler for DeepestFirst {
    fn name(&self) -> String {
        "DeepestFirst".to_string()
    }

    fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
        fn height(tree: &Tree, node: NodeId) -> usize {
            tree.children(node)
                .iter()
                .map(|&c| 1 + height(tree, c))
                .max()
                .unwrap_or(0)
        }
        fn emit(tree: &Tree, node: NodeId, order: &mut Vec<NodeId>) {
            let mut children = tree.children(node).to_vec();
            children.sort_by_key(|&c| std::cmp::Reverse(height(tree, c)));
            for c in children {
                emit(tree, c, order);
            }
            order.push(node);
        }
        let mut order = Vec::with_capacity(tree.len());
        emit(tree, tree.root(), &mut order);
        Ok(Schedule::new(order))
    }
}

fn main() {
    // Registration makes the strategy addressable by name — from `--algos`
    // flags, config files, or anything else that stores a string.
    let mut registry = SchedulerRegistry::with_builtins();
    registry
        .register(Arc::new(DeepestFirst))
        .expect("name is free");
    println!("registered schedulers: {}\n", registry.names().join(", "));

    // A small SYNTH sample, compared against two built-ins picked by name.
    let instances: Vec<(String, Tree)> = synth_dataset(&DatasetConfig {
        synth_instances: 20,
        synth_nodes: 500,
        trees_scale: 1,
        seed: 7,
    })
    .into_iter()
    .map(|i| (i.name, i.tree))
    .collect();

    let schedulers: Vec<Arc<dyn Scheduler>> = ["PostOrderMinIO", "RecExpand", "DeepestFirst"]
        .iter()
        .map(|name| registry.get(name).expect("registered"))
        .collect();
    let config = ExperimentConfig::new(schedulers, MemoryBound::Middle);
    let results = run_experiment(&instances, &config).expect("feasible bounds");

    let profile = results.profile();
    println!(
        "{}",
        profile.to_ascii(&[0.0, 0.01, 0.05, 0.10, 0.25, 0.50, 1.00])
    );
    for (i, name) in results.scheduler_names().iter().enumerate() {
        println!(
            "{name:<16} win-rate {:>5.1}%   mean overhead {:>7.2}%",
            profile.win_rate(i) * 100.0,
            profile.mean_overhead(i) * 100.0
        );
    }
    println!("\nCSV head:");
    for line in results.to_csv().lines().take(4) {
        println!("{line}");
    }
}
