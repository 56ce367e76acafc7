//! Random task-tree generators.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oocts_tree::{NodeId, Tree, NO_PARENT};

/// Generates a uniformly random binary tree with `n` nodes (each node has 0,
/// 1 or 2 children) using Rémy's algorithm, and assigns every node a
/// weight drawn uniformly from `weights`.
///
/// Rémy's algorithm grows a uniformly random *full* binary tree with `n`
/// internal nodes and `n + 1` external leaves; dropping the external leaves
/// yields a uniformly random binary tree on the `n` internal nodes — the same
/// distribution the paper samples through half-Catalan numbers.
///
/// The full tree lives in one array over its `2n + 1` slots, holding the
/// task id of each slot's parent. Step `t` draws an existing slot `x` (and
/// a side); the new internal node, slot `2t + 1`, is task `t`: it takes x's
/// parent, and both x and the new external leaf, slot `2t + 2`, take task
/// `t` as theirs. Every parent is internal, so task `t`'s parent in the
/// task tree is the entry of slot `2t + 1`: every other entry from slot 1
/// on is the task tree's parent array, which goes to
/// [`Tree::from_parent_ids`] as it is. Children are listed in id order, as
/// that constructor lists them. The side, which would only order a node's
/// children, is drawn to keep the random stream (and so the weights and
/// every tree) as it was, but not kept.
///
/// # Panics
/// If `n` is 0 (a tree needs at least one node) or above `u32::MAX` (the
/// range of [`NodeId`]).
pub fn random_binary_tree(n: usize, weights: std::ops::RangeInclusive<u64>, seed: u64) -> Tree {
    assert!(n >= 1, "a tree needs at least one node");
    assert!(
        u32::try_from(n).is_ok(),
        "a tree has at most u32::MAX nodes, not {n}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parent = vec![NO_PARENT; 2 * n + 1];
    // Slot 0 is the first external leaf; slots 0..2t + 1 exist at step t.
    for (t, task) in (0..n).zip(0u32..) {
        let internal = 2 * t + 1;
        let x = rng.random_range(0..internal);
        let _side = rng.random_range(0..2usize);
        parent[internal] = parent[x];
        parent[x] = task;
        parent[internal + 1] = task;
    }
    let parents: Vec<u32> = parent[1..].iter().step_by(2).copied().collect();
    drop(parent);
    let w = random_weights(n, weights, &mut rng);
    // lint: allow(L001, Rémy's slots hold one parentless task and links to tasks created earlier)
    Tree::from_parent_ids(w, parents).expect("Rémy construction always yields a tree")
}

/// Draws `n` weights uniformly from the inclusive range.
pub fn random_weights(
    n: usize,
    range: std::ops::RangeInclusive<u64>,
    rng: &mut StdRng,
) -> Vec<u64> {
    (0..n).map(|_| rng.random_range(range.clone())).collect()
}

/// A random tree where the parent of node `i` is chosen uniformly among the
/// nodes `0..i` ("uniform attachment"): bushier than uniform binary trees,
/// useful for stress tests and ablations.
///
/// # Panics
/// If `n` is 0 or above `u32::MAX`, as [`random_binary_tree`].
pub fn uniform_attachment_tree(
    n: usize,
    weights: std::ops::RangeInclusive<u64>,
    seed: u64,
) -> Tree {
    assert!(n >= 1 && u32::try_from(n).is_ok(), "no tree has {n} nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parents = vec![NO_PARENT; n];
    for (parent, i) in parents.iter_mut().zip(0u32..).skip(1) {
        *parent = rng.random_range(0..i);
    }
    let w = random_weights(n, weights, &mut rng);
    // lint: allow(L001, node 0 is the only root and every other node links to a lower id)
    Tree::from_parent_ids(w, parents).expect("uniform attachment always yields a tree")
}

/// A chain (path) of `n` nodes with the given weights, leaf first in the
/// slice, root last. Useful for tests and micro-benchmarks.
pub fn chain(weights_leaf_to_root: &[u64]) -> Tree {
    let n = weights_leaf_to_root.len();
    assert!(n >= 1);
    // Node 0 = root (last of the slice), node i's parent = i − 1.
    let w = weights_leaf_to_root.iter().rev().copied().collect();
    let parents = std::iter::once(NO_PARENT)
        .chain((1..n).map(|i| NodeId::from_index(i - 1).0))
        .collect();
    // lint: allow(L001, node 0 is the only root and every other node links to the one before)
    Tree::from_parent_ids(w, parents).expect("chain is a tree")
}

/// A complete `k`-ary tree of the given height with constant node weight.
pub fn complete_kary(arity: usize, height: usize, weight: u64) -> Tree {
    assert!(arity >= 1);
    let mut parents = vec![NO_PARENT];
    let mut frontier = vec![0u32];
    for _ in 0..height {
        let mut next = Vec::new();
        for &p in &frontier {
            for _ in 0..arity {
                next.push(NodeId::from_index(parents.len()).0);
                parents.push(p);
            }
        }
        frontier = next;
    }
    let weights = vec![weight; parents.len()];
    // lint: allow(L001, node 0 is the only root and every other node links to a lower id)
    Tree::from_parent_ids(weights, parents).expect("complete k-ary tree")
}

/// A caterpillar: a spine of `spine` nodes, each carrying `legs` leaf
/// children of weight `leaf_weight`; spine nodes have weight `spine_weight`.
pub fn caterpillar(spine: usize, legs: usize, spine_weight: u64, leaf_weight: u64) -> Tree {
    assert!(spine >= 1);
    let mut weights = Vec::new();
    let mut parents = Vec::new();
    let mut prev = NO_PARENT;
    for _ in 0..spine {
        let id = NodeId::from_index(weights.len()).0;
        weights.push(spine_weight);
        parents.push(prev);
        for _ in 0..legs {
            weights.push(leaf_weight);
            parents.push(id);
        }
        prev = id;
    }
    // `prev` chain built root-first: node 0 is the root.
    // lint: allow(L001, node 0 is the only root and every other node links to a lower id)
    Tree::from_parent_ids(weights, parents).expect("caterpillar is a tree")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_binary_tree_shape() {
        let t = random_binary_tree(501, 1..=100, 42);
        assert_eq!(t.len(), 501);
        t.validate().unwrap();
        // Binary: no node has more than 2 children.
        assert!(t.node_ids().all(|n| t.children(n).len() <= 2));
        // Weights within range.
        assert!(t.node_ids().all(|n| (1..=100).contains(&t.weight(n))));
        // Same seed reproduces the tree, different seed differs.
        let t2 = random_binary_tree(501, 1..=100, 42);
        assert_eq!(t, t2);
        let t3 = random_binary_tree(501, 1..=100, 43);
        assert_ne!(t, t3);
    }

    #[test]
    fn random_binary_tree_is_not_degenerate() {
        // A uniform binary tree of n nodes has expected height Θ(√n):
        // far from a chain, far from a balanced tree. Accept a wide margin.
        let t = random_binary_tree(1000, 1..=1, 7);
        let h = t.height();
        assert!(h > 10, "height {h} suspiciously small");
        assert!(h < 500, "height {h} suspiciously large");
        // Both leaves and binary nodes are plentiful.
        let arity = |a: usize| t.node_ids().filter(|&n| t.children(n).len() == a).count();
        assert!(arity(0) > 100);
        assert!(arity(2) > 100);
    }

    #[test]
    fn uniform_attachment_tree_is_valid() {
        let t = uniform_attachment_tree(300, 5..=10, 3);
        assert_eq!(t.len(), 300);
        t.validate().unwrap();
        assert!(t.node_ids().all(|n| (5..=10).contains(&t.weight(n))));
    }

    #[test]
    fn chain_and_kary_and_caterpillar() {
        let leaves = |t: &Tree| t.node_ids().filter(|&v| t.is_leaf(v)).count();
        let c = chain(&[4, 3, 2, 1]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.weight(c.root()), 1);
        assert_eq!(c.height(), 3);
        assert_eq!(leaves(&c), 1);

        let k = complete_kary(3, 2, 5);
        assert_eq!(k.len(), 1 + 3 + 9);
        assert_eq!(leaves(&k), 9);

        let cat = caterpillar(4, 2, 1, 7);
        assert_eq!(cat.len(), 4 * 3);
        assert_eq!(leaves(&cat), 2 * 4);
        cat.validate().unwrap();
    }
}
