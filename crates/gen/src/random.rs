//! Random task-tree generators.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oocts_tree::Tree;

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
/// task tree is the entry of slot `2t + 1`. Children are listed in id
/// order, as [`Tree::from_parents`] lists them. The side, which would only
/// order a node's children, is drawn to keep the random stream (and so the
/// weights and every tree) as it was, but not kept.
///
/// # Panics
/// If `n` is 0 (a tree needs at least one node) or above `u32::MAX` (the
/// range of [`NodeId`](oocts_tree::NodeId)).
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
    let parents: Vec<Option<usize>> = parent[1..]
        .iter()
        .step_by(2)
        .map(|&p| (p != NO_PARENT).then_some(p as usize))
        .collect();
    let w = random_weights(n, weights, &mut rng);
    from_parents_infallible(&w, &parents, "Rémy construction always yields a tree")
}

/// Marks a parentless slot in [`random_binary_tree`].
const NO_PARENT: u32 = u32::MAX;

/// Finalizes a generator's parent array into a [`Tree`].
///
/// Every generator in this module builds `parents` with node 0 (or the
/// tracked root) as the single parentless node and links that only point at
/// already-created nodes, so the conversion cannot fail.
fn from_parents_infallible(weights: &[u64], parents: &[Option<usize>], what: &str) -> Tree {
    // lint: allow(L001, generators build a single-rooted acyclic parent array by construction)
    Tree::from_parents(weights, parents).expect(what)
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
pub fn uniform_attachment_tree(
    n: usize,
    weights: std::ops::RangeInclusive<u64>,
    seed: u64,
) -> Tree {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for (i, parent) in parents.iter_mut().enumerate().skip(1) {
        *parent = Some(rng.random_range(0..i));
    }
    let w = random_weights(n, weights, &mut rng);
    from_parents_infallible(&w, &parents, "uniform attachment always yields a tree")
}

/// A chain (path) of `n` nodes with the given weights, leaf first in the
/// slice, root last. Useful for tests and micro-benchmarks.
pub fn chain(weights_leaf_to_root: &[u64]) -> Tree {
    let n = weights_leaf_to_root.len();
    assert!(n >= 1);
    let mut w = Vec::with_capacity(n);
    let mut parents = Vec::with_capacity(n);
    // Node 0 = root (last of the slice), node i's parent = i − 1.
    for (i, &weight) in weights_leaf_to_root.iter().rev().enumerate() {
        w.push(weight);
        parents.push(if i == 0 { None } else { Some(i - 1) });
    }
    from_parents_infallible(&w, &parents, "chain is a tree")
}

/// A complete `k`-ary tree of the given height with constant node weight.
pub fn complete_kary(arity: usize, height: usize, weight: u64) -> Tree {
    assert!(arity >= 1);
    let mut weights = vec![weight];
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut frontier = vec![0usize];
    for _ in 0..height {
        let mut next = Vec::new();
        for &p in &frontier {
            for _ in 0..arity {
                let id = weights.len();
                weights.push(weight);
                parents.push(Some(p));
                next.push(id);
            }
        }
        frontier = next;
    }
    from_parents_infallible(&weights, &parents, "complete k-ary tree")
}

/// A caterpillar: a spine of `spine` nodes, each carrying `legs` leaf
/// children of weight `leaf_weight`; spine nodes have weight `spine_weight`.
pub fn caterpillar(spine: usize, legs: usize, spine_weight: u64, leaf_weight: u64) -> Tree {
    assert!(spine >= 1);
    let mut weights = Vec::new();
    let mut parents: Vec<Option<usize>> = Vec::new();
    let mut prev: Option<usize> = None;
    for _ in 0..spine {
        let id = weights.len();
        weights.push(spine_weight);
        parents.push(prev);
        for _ in 0..legs {
            weights.push(leaf_weight);
            parents.push(Some(id));
        }
        prev = Some(id);
    }
    // `prev` chain built root-first: node 0 is the root.
    from_parents_infallible(&weights, &parents, "caterpillar is a tree")
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
        let c = chain(&[4, 3, 2, 1]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.weight(c.root()), 1);
        assert_eq!(c.height(), 3);
        assert_eq!(c.leaves().len(), 1);

        let k = complete_kary(3, 2, 5);
        assert_eq!(k.len(), 1 + 3 + 9);
        assert_eq!(k.leaves().len(), 9);

        let cat = caterpillar(4, 2, 1, 7);
        assert_eq!(cat.len(), 4 * 3);
        assert_eq!(cat.leaves().len(), 2 * 4);
        cat.validate().unwrap();
    }
}
