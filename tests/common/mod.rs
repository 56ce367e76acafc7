//! Trees shared by several integration tests.

use oocts::gen::random::complete_kary;
use oocts::prelude::*;

/// A complete `arity`-ary tree of the given height whose weights grow with
/// depth (`1 + 3·depth + id mod 5`): heavier towards the leaves, as in
/// elimination trees, so postorder and optimal traversals differ.
pub fn depth_weighted_kary(arity: usize, height: usize) -> Tree {
    let shape = complete_kary(arity, height, 1);
    let weights: Vec<u64> = shape
        .node_ids()
        .map(|n| 1 + shape.depth(n) as u64 * 3 + n.index() as u64 % 5)
        .collect();
    let parents: Vec<Option<usize>> = shape
        .node_ids()
        .map(|n| shape.parent(n).map(NodeId::index))
        .collect();
    Tree::from_parents(&weights, &parents).unwrap()
}
