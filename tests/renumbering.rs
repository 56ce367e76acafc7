//! Every built-in scheduler ignores the node numbering.
//!
//! The experiment runner solves large instances on a copy renumbered in
//! postorder ([`Tree::renumbered_in_postorder`]). That is only sound if a
//! strategy depends on the tree's shape, its weights and each node's child
//! order, never on the ids themselves. These tests solve generated trees of
//! every shape family at the paper's three bounds with every built-in
//! scheduler, once on the original and once on the copy, and require the
//! same I/O, peak, expansion statistics and (mapped back) schedule. Then
//! they run the experiment runner on an instance large enough to be copied,
//! and check that the engine reports the copy's time only when it makes one.

use std::sync::Arc;
use std::time::Duration;

use oocts::prelude::*;
use oocts_gen::random::{
    caterpillar, chain, complete_kary, random_binary_tree, uniform_attachment_tree,
};
use oocts_profile::bounds::MemoryBound;
use oocts_profile::engine::RENUMBER_MIN_NODES;
use oocts_tree::TreeError;

mod common;

/// Every scheduler of the built-in registry, plus a non-default RecExpand
/// and two RandomPostOrder seeds.
fn schedulers() -> Vec<Arc<dyn Scheduler>> {
    let registry = SchedulerRegistry::with_builtins();
    let extra = [
        "RecExpand(max_rounds=5)",
        "RandomPostOrder(seed=1)",
        "RandomPostOrder(seed=2)",
    ];
    registry
        .names()
        .into_iter()
        .chain(extra)
        .map(|spec| registry.get(spec).unwrap())
        .collect()
}

/// Rémy trees, uniform-attachment trees, a chain, complete k-ary trees and
/// caterpillars. Narrow weight ranges and constant weights make ties, which
/// is where a numbering could leak into a result.
fn shapes() -> Vec<(&'static str, Tree)> {
    let chain_weights: Vec<u64> = (0..150u64).map(|i| 1 + (i * 7) % 13).collect();
    vec![
        ("remy-wide-weights", random_binary_tree(3000, 1..=100, 1)),
        ("remy-narrow-weights", random_binary_tree(3000, 1..=3, 2)),
        (
            "uniform-attachment",
            uniform_attachment_tree(2000, 1..=20, 3),
        ),
        (
            "uniform-attachment-ties",
            uniform_attachment_tree(400, 2..=2, 4),
        ),
        ("chain", chain(&chain_weights)),
        ("complete-3ary", common::depth_weighted_kary(3, 5)),
        ("complete-2ary-constant", complete_kary(2, 7, 4)),
        ("caterpillar", caterpillar(60, 4, 3, 5)),
    ]
}

fn assert_renumbering_is_structural(name: &str, tree: &Tree, copy: &Tree) {
    let weights: Vec<u64> = copy.node_ids().map(|n| copy.weight(n)).collect();
    let parents: Vec<Option<usize>> = copy
        .node_ids()
        .map(|n| copy.parent(n).map(NodeId::index))
        .collect();
    assert_eq!(
        &Tree::from_parents(&weights, &parents).unwrap(),
        copy,
        "{name}"
    );
    for (p, node) in copy.node_ids().enumerate() {
        assert_eq!(copy.postorder()[p], node, "{name}: postorder");
        let original = tree.postorder()[p];
        assert_eq!(copy.weight(node), tree.weight(original), "{name}");
    }
    assert_eq!(copy.root(), NodeId::from_index(copy.len() - 1), "{name}");
    assert_eq!(&copy.renumbered_in_postorder(), copy, "{name}");
}

#[test]
fn every_builtin_gives_the_same_results_on_the_postorder_copy() {
    let schedulers = schedulers();
    for (name, tree) in shapes() {
        let copy = tree.renumbered_in_postorder();
        assert_renumbering_is_structural(name, &tree, &copy);
        let bounds = MemoryBounds::of(&tree);
        assert_eq!(MemoryBounds::of(&copy), bounds, "{name}");
        for bound in [
            MemoryBound::LowerBound,
            MemoryBound::Middle,
            MemoryBound::BelowPeak,
        ] {
            let memory = bounds.memory(bound);
            for scheduler in &schedulers {
                let cell = format!("{name} at {bound} with {}", scheduler.name());
                let on_tree = scheduler.solve(&tree, memory).unwrap();
                let on_copy = scheduler.solve(&copy, memory).unwrap();
                assert_eq!(on_copy.io_volume, on_tree.io_volume, "{cell}");
                assert_eq!(on_copy.peak_memory, on_tree.peak_memory, "{cell}");
                assert_eq!(on_copy.expansion, on_tree.expansion, "{cell}");
                let mapped: Vec<NodeId> = on_copy
                    .schedule
                    .iter()
                    .map(|p| tree.postorder()[p.index()])
                    .collect();
                assert_eq!(mapped, on_tree.schedule.order(), "{cell}");
            }
        }
    }
}

/// Fails every instance, naming its root.
#[derive(Debug)]
struct RootFails;

impl Scheduler for RootFails {
    fn name(&self) -> String {
        "RootFails".to_string()
    }

    fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
        Err(TreeError::NotTopological(tree.root()))
    }
}

#[test]
fn runner_reports_large_instances_in_their_own_numbering() {
    let big = random_binary_tree(RENUMBER_MIN_NODES, 1..=100, 7);
    // The runner copies this tree: Rémy's ids are not a postorder.
    let renumbered = big.renumbered_in_postorder();
    assert_ne!(big.root(), renumbered.root());
    let small = |seed| uniform_attachment_tree(200, 1..=20, seed);
    let grid = |big: &Tree| {
        vec![
            ("big".to_string(), big.clone()),
            ("small-1".to_string(), small(1)),
            ("small-2".to_string(), small(2)),
        ]
    };
    let registry = SchedulerRegistry::with_builtins();
    for threads in [1, 2] {
        let mut config = ExperimentConfig::new(
            registry
                .get_list("PostOrderMinIO,OptMinMem,PostOrderMinMem")
                .unwrap(),
            MemoryBound::Middle,
        );
        config.threads = threads;
        // Handing the runner the copy itself changes nothing.
        let csv = run_experiment(&grid(&big), &config).unwrap().to_csv();
        let csv_of_copy = run_experiment(&grid(&renumbered), &config)
            .unwrap()
            .to_csv();
        assert_eq!(csv, csv_of_copy, "threads = {threads}");

        // A failure is reported in the ids of the tree handed in.
        config.schedulers.push(Arc::new(RootFails));
        let err = run_experiment(&grid(&big)[..1], &config).unwrap_err();
        assert_eq!(err.instance, "big");
        assert_eq!(err.source, TreeError::NotTopological(big.root()));
    }
}

#[test]
fn engine_times_the_copy_only_when_it_makes_one() {
    let registry = SchedulerRegistry::with_builtins();
    let config = ExperimentConfig::new(
        registry
            .get_list("PostOrderMinIO,OptMinMem,PostOrderMinMem")
            .unwrap(),
        MemoryBound::Middle,
    );
    let copy_time = |instances: &[(String, Tree)]| {
        run_experiment(instances, &config)
            .unwrap()
            .engine
            .expect("engine runs carry stats")
            .copy
    };
    let small = |seed| ("small".to_string(), random_binary_tree(300, 1..=100, seed));
    // One Rémy tree at the gate is copied: its ids are not a postorder.
    let big = (
        "big".to_string(),
        random_binary_tree(RENUMBER_MIN_NODES, 1..=100, 7),
    );
    assert!(copy_time(&[big, small(1)]) > Duration::ZERO);
    assert_eq!(copy_time(&[small(1), small(2)]), Duration::ZERO);
}
