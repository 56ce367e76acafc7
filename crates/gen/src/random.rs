//! Random task-tree generators.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oocts_tree::{NodeId, Tree};

/// Generates a uniformly random binary tree with `n` nodes (each node has 0,
/// 1 or 2 ordered children) using Rémy's algorithm, and assigns every node a
/// weight drawn uniformly from `weights`.
///
/// Rémy's algorithm grows a uniformly random *full* binary tree with `n`
/// internal nodes and `n + 1` external leaves; dropping the external leaves
/// yields a uniformly random binary tree on the `n` internal nodes — the same
/// distribution the paper samples through half-Catalan numbers.
///
/// # Panics
/// If `n` is 0: a tree needs at least one node.
pub fn random_binary_tree(n: usize, weights: std::ops::RangeInclusive<u64>, seed: u64) -> Tree {
    assert!(n >= 1, "a tree needs at least one node");
    let mut rng = StdRng::seed_from_u64(seed);

    // Rémy's algorithm on an array representation of a full binary tree.
    // Nodes: 0..2n+1 ; node 0 starts as the only (external) node.
    // `children[v]` is None for external nodes and Some([left, right]) for
    // internal ones; `parent[v]` tracks the parent to allow grafting.
    let total = 2 * n + 1;
    let mut children: Vec<Option<[usize; 2]>> = vec![None; total];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; total]; // (parent, side)
    let mut root = 0usize;
    let mut used = 1usize; // node 0 exists

    for _ in 0..n {
        // Pick a uniformly random existing node and a side.
        let x = rng.random_range(0..used);
        let side = rng.random_range(0..2usize);
        let internal = used;
        let leaf = used + 1;
        used += 2;
        // The new internal node takes x's place; x and the new leaf become
        // its children (x on `side`).
        let mut kids = [leaf, leaf];
        kids[side] = x;
        kids[1 - side] = leaf;
        children[internal] = Some(kids);
        match parent[x] {
            Some((p, s)) => {
                // lint: allow(L001, x has a recorded parent slot, so that parent is internal)
                children[p].as_mut().expect("parent is internal")[s] = internal;
                parent[internal] = Some((p, s));
            }
            None => {
                root = internal;
                parent[internal] = None;
            }
        }
        parent[x] = Some((internal, side));
        parent[leaf] = Some((internal, 1 - side));
    }

    // Contract external leaves: the task tree consists of the n internal
    // nodes; the parent of an internal node is its closest internal ancestor.
    let mut task_id = vec![usize::MAX; total];
    let mut next = 0usize;
    for v in 0..used {
        if children[v].is_some() {
            task_id[v] = next;
            next += 1;
        }
    }
    debug_assert_eq!(next, n);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for v in 0..used {
        if children[v].is_some() {
            let mut p = parent[v].map(|(p, _)| p);
            // All ancestors are internal nodes by construction.
            if let Some(pp) = p.take() {
                parents[task_id[v]] = Some(task_id[pp]);
            }
        }
    }
    let _ = root;
    let w = random_weights(n, weights, &mut rng);
    from_parents_infallible(&w, &parents, "Rémy construction always yields a tree")
}

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

/// Returns the number of children of every node — handy for shape statistics
/// in tests and reports.
pub fn arity_histogram(tree: &Tree) -> Vec<usize> {
    let mut hist = vec![0usize; 3.max(tree.len())];
    for n in tree.node_ids() {
        let a = tree.children(n).len();
        if a >= hist.len() {
            hist.resize(a + 1, 0);
        }
        hist[a] += 1;
    }
    hist
}

/// Maximum number of children over all nodes.
pub fn max_arity(tree: &Tree) -> usize {
    tree.node_ids()
        .map(|n| tree.children(n).len())
        .max()
        .unwrap_or(0)
}

/// Convenience: node id of the deepest leaf (ties broken arbitrarily).
pub fn deepest_leaf(tree: &Tree) -> NodeId {
    tree.leaves()
        .into_iter()
        .max_by_key(|&l| tree.depth(l))
        // lint: allow(L001, a Tree is non-empty by construction and so has a leaf)
        .expect("every tree has a leaf")
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
        assert!(max_arity(&t) <= 2);
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
        let hist = arity_histogram(&t);
        assert!(hist[0] > 100);
        assert!(hist[2] > 100);
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

    #[test]
    fn deepest_leaf_is_a_leaf() {
        let t = random_binary_tree(100, 1..=10, 1);
        let l = deepest_leaf(&t);
        assert!(t.is_leaf(l));
    }
}
