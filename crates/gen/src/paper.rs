//! The hand-crafted instances of the paper.
//!
//! * Figure 2(a): postorder traversals are not competitive — the optimal
//!   traversal needs 1 I/O while any postorder needs `Ω(n·M)`.
//! * Figure 2(b)/(c): OptMinMem is not competitive — the peak-memory-optimal
//!   traversal pays `Θ(k²)` I/Os where `2k` suffice.
//! * Figures 6 and 7 (Appendix A): worked examples separating FullRecExpand,
//!   OptMinMem and PostOrderMinIO.
//!
//! Each constructor returns the tree; the counterexample families also return
//! the reference schedule described in the paper (the near-optimal traversal
//! the adversarial argument compares against).

use oocts_tree::{NodeId, Schedule, Tree, TreeBuilder};

/// Finalizes a statically-constructed example tree.
///
/// The figure builders above are straight-line `add_root`/`add_child`
/// sequences producing a fixed shape; `build()` cannot fail on them.
fn finish(b: TreeBuilder, what: &str) -> Tree {
    // lint: allow(L001, straight-line TreeBuilder construction always forms a tree)
    b.build().expect(what)
}

/// The memory bound used by the Figure 6 example.
pub const FIG6_MEMORY: u64 = 10;
/// The memory bound used by the Figure 7 example.
pub const FIG7_MEMORY: u64 = 7;

/// Figure 2(a) instance (15 nodes) for an even memory bound `m ≥ 4`:
/// the exact tree drawn in the paper, which is [`fig2a_family`] with two
/// extra levels. Returns the tree and the paper's 1-I/O reference schedule.
pub fn fig2a(m: u64) -> (Tree, Schedule) {
    fig2a_family(2, m)
}

/// The Figure 2(a) *family*: a bottom gadget with two leaves of size `m`
/// plus `extra_levels` additional levels, each contributing one leaf of size
/// `m − 1`. Any postorder traversal pays at least `(m/2 − 1)` I/Os per leaf
/// except one, while the returned reference schedule pays exactly 1.
///
/// `m` must be even and at least 4.
pub fn fig2a_family(extra_levels: usize, m: u64) -> (Tree, Schedule) {
    assert!(
        m >= 4 && m.is_multiple_of(2),
        "memory bound must be even and ≥ 4"
    );
    let half = m / 2;
    let mut b = TreeBuilder::new();
    let mut order: Vec<NodeId> = Vec::new();

    // The builder requires the root first; the root is the topmost spine
    // node. Build top-down: spine nodes from the root towards the bottom
    // gadget, then fill in the per-level chains.
    // level 0 = root; levels 1..=extra_levels are spine nodes of weight 1;
    // the bottom gadget hangs below the last spine node.
    let mut spine = Vec::with_capacity(extra_levels + 1);
    spine.push(b.add_root(1));
    for i in 0..extra_levels {
        // Each level: the current spine node has two children of weight m/2;
        // the "leaf side" child caps a leaf of weight m − 1, the "spine side"
        // child caps the next spine node.
        let parent = spine[i];
        let leaf_cap = b.add_child(parent, half);
        let leaf = b.add_child(leaf_cap, m - 1);
        let spine_cap = b.add_child(parent, half);
        let next_spine = b.add_child(spine_cap, 1);
        spine.push(next_spine);
        // Remember for the reference schedule (constructed below).
        let _ = (leaf, leaf_cap, spine_cap);
    }
    // Bottom gadget below the last spine node: two children of weight m/2,
    // each over a weight-1 node over a leaf of weight m.
    let bottom = spine[spine.len() - 1];
    let cap_a = b.add_child(bottom, half);
    let one_a = b.add_child(cap_a, 1);
    let leaf_a = b.add_child(one_a, m);
    let cap_b = b.add_child(bottom, half);
    let one_b = b.add_child(cap_b, 1);
    let leaf_b = b.add_child(one_b, m);
    let tree = finish(b, "figure 2(a) construction is a tree");

    // Reference schedule (the labels of the figure): process the two bottom
    // leaves first (1 I/O when the second one is produced), close the bottom
    // gadget, then for each level going up: leaf, leaf cap, spine cap, spine
    // node.
    order.push(leaf_a);
    order.push(one_a);
    order.push(leaf_b);
    order.push(one_b);
    order.push(cap_a);
    order.push(cap_b);
    order.push(bottom);
    for i in (0..extra_levels).rev() {
        let parent = spine[i];
        // Children of `parent` were created in the order
        // [leaf_cap, spine_cap]; recover them from the tree.
        let kids = tree.children(parent);
        let leaf_cap = kids[0];
        let spine_cap = kids[1];
        let leaf = tree.children(leaf_cap)[0];
        order.push(leaf);
        order.push(leaf_cap);
        order.push(spine_cap);
        order.push(parent);
    }
    let schedule = Schedule::new(order);
    debug_assert!(schedule.validate(&tree).is_ok());
    (tree, schedule)
}

/// Figure 2(b): the 9-node instance showing that a peak-memory-optimal
/// traversal can be forced to perform more I/O than a memory-hungrier one
/// (`M = 6`): the best postorder has peak 9 and 3 I/Os, OptMinMem has peak 8
/// but 4 I/Os.
pub fn fig2b() -> Tree {
    let mut b = TreeBuilder::new();
    let root = b.add_root(1);
    for _ in 0..2 {
        let mut parent = root;
        for &w in &[3u64, 5, 2, 6] {
            parent = b.add_child(parent, w);
        }
    }
    finish(b, "figure 2(b) is a tree")
}

/// The memory bound of the Figure 2(b) example.
pub const FIG2B_MEMORY: u64 = 6;

/// Figure 2(c) family: two identical chains of length `2k + 2` under a
/// common root, with weights (from the root towards the leaf) interleaving
/// `{2k, 2k−1, …, k}` and `{3k, 3k+1, …, 4k}`; the memory bound is `4k`.
///
/// Returns the tree and the reference schedule that processes one chain
/// entirely before the other (peak `6k`, exactly `2k` I/Os), against which
/// OptMinMem pays `k(k+1)` I/Os.
pub fn fig2c_family(k: u64) -> (Tree, Schedule, u64) {
    assert!(k >= 1, "k must be at least 1");
    let memory = 4 * k;
    let mut weights = Vec::with_capacity((2 * k + 2) as usize);
    // Interleave {2k, 2k−1, …, k} and {3k, 3k+1, …, 4k}, starting from 2k.
    for i in 0..=k {
        weights.push(2 * k - i);
        weights.push(3 * k + i);
    }
    debug_assert_eq!(weights.len() as u64, 2 * k + 2);

    let mut b = TreeBuilder::new();
    let root = b.add_root(1);
    let mut chain_nodes: Vec<Vec<NodeId>> = Vec::new();
    for _ in 0..2 {
        let mut nodes = Vec::new();
        let mut parent = root;
        for &w in &weights {
            parent = b.add_child(parent, w);
            nodes.push(parent);
        }
        chain_nodes.push(nodes);
    }
    let tree = finish(b, "figure 2(c) is a tree");

    // Reference schedule: first chain bottom-up, then second chain, then root.
    let mut order = Vec::with_capacity(tree.len());
    for nodes in &chain_nodes {
        for &n in nodes.iter().rev() {
            order.push(n);
        }
    }
    order.push(root);
    let schedule = Schedule::new(order);
    debug_assert!(schedule.validate(&tree).is_ok());
    (tree, schedule, memory)
}

/// Figure 6 (Appendix A): FullRecExpand is optimal (3 I/Os at `M = 10`)
/// while OptMinMem pays 4 and the best postorder more.
pub fn fig6() -> Tree {
    let mut b = TreeBuilder::new();
    let root = b.add_root(1);
    let l1 = b.add_child(root, 4);
    let l2 = b.add_child(l1, 8);
    let l3 = b.add_child(l2, 2);
    b.add_child(l3, 9);
    let r1 = b.add_child(root, 6);
    let r2 = b.add_child(r1, 4);
    b.add_child(r2, 10);
    finish(b, "figure 6 is a tree")
}

/// Figure 7 (Appendix A): PostOrderMinIO is optimal (3 I/Os at `M = 7`)
/// while OptMinMem and FullRecExpand pay 4.
pub fn fig7() -> Tree {
    let mut b = TreeBuilder::new();
    let root = b.add_root(1);
    let c = b.add_child(root, 3);
    let a = b.add_child(c, 2);
    b.add_child(a, 7);
    b.add_child(c, 3);
    let bn = b.add_child(root, 4);
    b.add_child(bn, 7);
    finish(b, "figure 7 is a tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::fif_io;

    #[test]
    fn fig2a_reference_schedule_pays_one_io() {
        for m in [8u64, 16, 64] {
            for levels in [0usize, 1, 2, 5] {
                let (tree, reference) = fig2a_family(levels, m);
                reference.validate(&tree).unwrap();
                assert_eq!(reference.len(), tree.len());
                let io = fif_io(&tree, &reference, m).unwrap().total_io;
                assert_eq!(io, 1, "reference schedule must pay exactly 1 I/O");
            }
        }
    }

    #[test]
    fn fig2a_exact_instance_has_15_nodes() {
        let (tree, _) = fig2a(8);
        assert_eq!(tree.len(), 15);
        assert_eq!(tree.node_ids().filter(|&v| tree.is_leaf(v)).count(), 4);
    }

    #[test]
    fn fig2b_claims() {
        let t = fig2b();
        assert_eq!(t.len(), 9);
        // Postorder (one chain after the other): peak 9, and 3 I/Os at M = 6.
        let po = Schedule::postorder(&t);
        assert_eq!(oocts_tree::peak_memory(&t, &po).unwrap(), 9);
        assert_eq!(fif_io(&t, &po, FIG2B_MEMORY).unwrap().total_io, 3);
    }

    #[test]
    fn fig2c_reference_schedule_pays_2k_ios() {
        for k in [1u64, 2, 3, 5, 10] {
            let (tree, reference, m) = fig2c_family(k);
            assert_eq!(m, 4 * k);
            assert_eq!(tree.len() as u64, 2 * (2 * k + 2) + 1);
            reference.validate(&tree).unwrap();
            let io = fif_io(&tree, &reference, m).unwrap().total_io;
            assert_eq!(io, 2 * k, "one-chain-after-the-other pays 2k I/Os");
            let peak = oocts_tree::peak_memory(&tree, &reference).unwrap();
            assert_eq!(peak, 6 * k, "its in-core peak is 6k");
        }
    }

    #[test]
    fn fig6_and_fig7_shapes() {
        let t6 = fig6();
        assert_eq!(t6.len(), 8);
        assert_eq!(t6.min_feasible_memory(), 10);
        let t7 = fig7();
        assert_eq!(t7.len(), 7);
        assert_eq!(t7.min_feasible_memory(), 7);
    }
}
