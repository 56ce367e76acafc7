//! Differential tests of the FiF simulator against the lazy-heap version it
//! replaced.
//!
//! The reference keeps every produced node in a `BinaryHeap` and discards
//! entries that went stale (consumed, fully evicted, or a child of the
//! running node) when they surface. The library keeps an indexed heap of
//! the evictable nodes only. Both must pick the same victim at every step,
//! so `τ`, the total I/O and the in-core peak must agree on every schedule:
//! random topological orders (not only postorders) of whole trees and of
//! subtrees, at memory bounds from the largest `w̄_i` to the peak.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use oocts_tree::{fif_io, fif_io_with, FifScratch, IoResult, NodeId, Schedule, Tree, TreeError};
use proptest::test_runner::TestRng;

/// The FiF replay as written before the indexed heap: a lazily invalidated
/// max-heap of `(parent position, Reverse(id))` holding every produced node.
fn reference_fif(tree: &Tree, schedule: &Schedule, memory: u64) -> Result<IoResult, TreeError> {
    schedule.validate(tree)?;
    let positions = schedule.positions(tree);
    let parent_position = |node: NodeId| {
        tree.parent(node)
            .map_or(usize::MAX, |p| positions[p.index()])
    };
    let mut in_mem = vec![0u64; tree.len()];
    let mut active = vec![false; tree.len()];
    let mut tau = vec![0u64; tree.len()];
    let (mut total_io, mut resident, mut peak_in_core, mut in_core_resident) =
        (0u64, 0u64, 0u64, 0u64);
    let mut heap: BinaryHeap<(usize, Reverse<u32>)> = BinaryHeap::new();
    for node in schedule.iter() {
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let wbar = w.max(cw);
        if wbar > memory {
            return Err(TreeError::InsufficientMemory {
                node,
                required: wbar,
                available: memory,
            });
        }
        peak_in_core = peak_in_core.max(in_core_resident + w.saturating_sub(cw));
        in_core_resident = in_core_resident - cw + w;
        let children_in_mem: u64 = tree.children(node).iter().map(|&c| in_mem[c.index()]).sum();
        let mut to_evict = (resident - children_in_mem + wbar).saturating_sub(memory);
        while to_evict > 0 {
            let (par_pos, Reverse(raw)) = heap
                .pop()
                .expect("eviction needed but no active data to evict");
            let victim = NodeId(raw);
            let stale = !active[victim.index()]
                || in_mem[victim.index()] == 0
                || tree.parent(victim) == Some(node)
                || par_pos != parent_position(victim);
            if stale {
                continue;
            }
            let amount = in_mem[victim.index()].min(to_evict);
            in_mem[victim.index()] -= amount;
            resident -= amount;
            tau[victim.index()] += amount;
            total_io += amount;
            to_evict -= amount;
            if in_mem[victim.index()] > 0 {
                heap.push((par_pos, Reverse(victim.0)));
            }
        }
        for &c in tree.children(node) {
            resident -= in_mem[c.index()];
            in_mem[c.index()] = 0;
            active[c.index()] = false;
        }
        active[node.index()] = true;
        in_mem[node.index()] = w;
        resident += w;
        heap.push((parent_position(node), Reverse(node.0)));
    }
    Ok(IoResult {
        total_io,
        tau,
        peak_in_core,
    })
}

/// A random tree of `n` nodes: `shape` 0 attaches every node to a uniformly
/// random earlier one (bushy), 1 to its predecessor (a chain), 2 to one of
/// the first three nodes (high arity), 3 to one of the last four (long and
/// thin with short side branches). Weights are uniform in `weights`.
fn random_tree(rng: &mut TestRng, n: usize, shape: u64, weights: (u64, u64)) -> Tree {
    let parents: Vec<Option<usize>> = (0..n)
        .map(|i| match (i, shape) {
            (0, _) => None,
            (_, 0) => Some(rng.below(i as u64) as usize),
            (_, 1) => Some(i - 1),
            (_, 2) => Some(rng.below(i.min(3) as u64) as usize),
            _ => Some(i - 1 - rng.below(i.min(4) as u64) as usize),
        })
        .collect();
    let (lo, hi) = weights;
    let w: Vec<u64> = (0..n).map(|_| lo + rng.below(hi - lo + 1)).collect();
    Tree::from_parents(&w, &parents).expect("valid random tree")
}

/// A uniformly random ready node at every step: a random topological order
/// of the subtree rooted at `root`.
fn random_topological_order(rng: &mut TestRng, tree: &Tree, root: NodeId) -> Schedule {
    let nodes = tree.subtree_postorder(root);
    let mut pending: Vec<usize> = vec![0; tree.len()];
    for &v in nodes {
        pending[v.index()] = tree.children(v).len();
    }
    let mut ready: Vec<NodeId> = nodes.iter().copied().filter(|&v| tree.is_leaf(v)).collect();
    let mut order = Vec::with_capacity(nodes.len());
    while !ready.is_empty() {
        let v = ready.swap_remove(rng.below(ready.len() as u64) as usize);
        order.push(v);
        if v != root {
            let p = tree.parent(v).expect("non-root node has a parent");
            pending[p.index()] -= 1;
            if pending[p.index()] == 0 {
                ready.push(p);
            }
        }
    }
    Schedule::new(order)
}

/// Replays `schedule` with both simulators at memory bounds from the largest
/// `w̄_i` of the scheduled nodes up to the schedule's in-core peak (every
/// bound when there are at most 64, else 64 evenly spread ones including
/// both ends), through one shared scratch, and returns the number of
/// replays.
fn compare_all_bounds(tree: &Tree, schedule: &Schedule, scratch: &mut FifScratch) -> usize {
    let lb = schedule
        .iter()
        .map(|v| tree.execution_weight(v))
        .max()
        .unwrap_or(0);
    let peak = reference_fif(tree, schedule, u64::MAX)
        .unwrap()
        .peak_in_core;
    let mut replays = 0;
    let span = peak.saturating_sub(lb);
    let bounds = span.min(63);
    for i in 0..=bounds {
        let memory = lb + (span * i).checked_div(bounds).unwrap_or(0);
        let want = reference_fif(tree, schedule, memory).unwrap();
        let got = fif_io_with(tree, schedule, memory, scratch).unwrap();
        assert_eq!(got, want, "M = {memory}, schedule {:?}", schedule.order());
        scratch.recycle(got.tau);
        replays += 1;
    }
    // Below the largest w̄_i both refuse the schedule with the same node.
    if lb > 0 {
        assert_eq!(
            fif_io(tree, schedule, lb - 1).err(),
            reference_fif(tree, schedule, lb - 1).err()
        );
    }
    replays
}

#[test]
fn fif_matches_the_lazy_heap_on_random_topological_orders() {
    let mut rng = TestRng::from_seed(0xf1f0);
    let mut scratch = FifScratch::new();
    let mut replays = 0;
    for case in 0..600u64 {
        let n = 1 + rng.below(40) as usize;
        let weights = [(1, 2), (1, 3), (0, 2), (1, 10), (1, 1000)][(case % 5) as usize];
        let tree = random_tree(&mut rng, n, case / 5 % 4, weights);
        // The whole tree, then a random subtree (its root's parent lies
        // outside the schedule, as in RecExpand's replays).
        let sub = NodeId::from_index(rng.below(n as u64) as usize);
        for root in [tree.root(), sub] {
            let schedule = random_topological_order(&mut rng, &tree, root);
            replays += compare_all_bounds(&tree, &schedule, &mut scratch);
        }
        let postorder = Schedule::postorder(&tree);
        replays += compare_all_bounds(&tree, &postorder, &mut scratch);
    }
    assert!(replays > 10_000, "only {replays} replays");
}

/// Tight memory on a wide tree keeps many siblings active at once and
/// evicts some of them partially, more than once: the heap's removal paths
/// (sift-down after a swap-remove, re-keyed partial victims) all run.
#[test]
fn fif_matches_the_lazy_heap_on_wide_trees_under_pressure() {
    let mut rng = TestRng::from_seed(0xbeef);
    let mut scratch = FifScratch::new();
    for _ in 0..40 {
        let n = 200 + rng.below(200) as usize;
        let tree = random_tree(&mut rng, n, 2, (1, 50));
        let schedule = random_topological_order(&mut rng, &tree, tree.root());
        let lb = tree.min_feasible_memory();
        let peak = reference_fif(&tree, &schedule, u64::MAX)
            .unwrap()
            .peak_in_core;
        for step in 0..=8 {
            let memory = lb + (peak.saturating_sub(lb)) * step / 8;
            let want = reference_fif(&tree, &schedule, memory).unwrap();
            let got = fif_io_with(&tree, &schedule, memory, &mut scratch).unwrap();
            assert_eq!(got, want, "M = {memory}");
            scratch.recycle(got.tau);
        }
    }
}
