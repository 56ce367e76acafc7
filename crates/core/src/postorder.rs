//! PostOrderMinIO — the best postorder traversal for the MinIO problem
//! (paper Section 4.1, Algorithm 1, adapted from E. Agullo's PhD thesis).
//!
//! For a node `i` whose children are processed in the order chosen by the
//! algorithm, define recursively
//!
//! ```text
//! S_i = max( w_i , max_{j ∈ Chil(i)} ( S_j + Σ_{k before j} w_k ) )   storage requirement
//! A_i = min(M, S_i)                                                    memory actually used
//! V_i = max( 0 , max_j ( A_j + Σ_{k before j} w_k ) − M ) + Σ_j V_j    FiF I/O volume
//! ```
//!
//! By the rearrangement result (Theorem 3), `V_i` is minimized by processing
//! the children by non-increasing `A_j − w_j`; this is the order produced
//! here. On homogeneous trees (all `w_i = 1`) this postorder performs the
//! minimum possible number of I/Os over *all* traversals (Theorem 4), a fact
//! exercised by the property tests of this crate.

use oocts_tree::{NodeId, Schedule, Tree};

/// Per-node quantities computed by [`post_order_min_io`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostorderIoAnalysis {
    /// `S_i`: peak memory of the subtree rooted at `i` under the chosen
    /// postorder, ignoring the memory bound.
    pub storage: Vec<u64>,
    /// `A_i = min(M, S_i)`: main memory used by the out-of-core execution of
    /// the subtree rooted at `i`.
    pub in_core: Vec<u64>,
    /// `V_i`: I/O volume incurred by the chosen postorder on the subtree
    /// rooted at `i` when I/O follows the FiF policy.
    pub io_volume: Vec<u64>,
    /// The memory bound `M` used for the analysis.
    pub memory: u64,
}

impl PostorderIoAnalysis {
    /// The predicted I/O volume of the whole traversal (`V_root`).
    pub fn total_io(&self, tree: &Tree) -> u64 {
        self.io_volume[tree.root().index()]
    }
}

/// Computes the best postorder traversal for I/O minimization under memory
/// bound `memory`, together with its per-node analysis.
pub fn post_order_min_io(tree: &Tree, memory: u64) -> (Schedule, PostorderIoAnalysis) {
    post_order_min_io_subtree(tree, tree.root(), memory)
}

/// Subtree variant of [`post_order_min_io`]: the schedule covers exactly the
/// subtree rooted at `root`, treated as an independent tree.
pub fn post_order_min_io_subtree(
    tree: &Tree,
    root: NodeId,
    memory: u64,
) -> (Schedule, PostorderIoAnalysis) {
    let order = tree.subtree_postorder(root);
    let n = tree.len();
    let mut storage = vec![0u64; n];
    let mut in_core = vec![0u64; n];
    let mut io_volume = vec![0u64; n];
    // Chosen processing order of the children of each node: one flat copy of
    // the CSR child arena, each node's range re-sorted in place (no per-node
    // vector allocations).
    let mut sorted_children = tree.children_flat().to_vec();
    // (key, original slot, child) triples for the current node; an unstable
    // sort with the slot as tie-break reproduces a stable sort without its
    // temp-buffer allocation.
    let mut keyed: Vec<(i128, u32, NodeId)> = Vec::new();

    for &node in order {
        let children = tree.children(node);
        let w = tree.weight(node);
        if children.is_empty() {
            storage[node.index()] = w;
            in_core[node.index()] = memory.min(w);
            io_volume[node.index()] = 0;
            continue;
        }
        // Children by non-increasing A_j − w_j (Theorem 3).
        keyed.clear();
        for (slot, &c) in children.iter().enumerate() {
            let key = in_core[c.index()] as i128 - tree.weight(c) as i128;
            keyed.push((key, slot as u32, c));
        }
        keyed.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let range = tree.child_range(node);
        let mut prefix = 0u64;
        let mut s = w;
        let mut excess_peak = 0u64; // max_j (A_j + Σ_before w_k)
        let mut children_io = 0u64;
        for (i, &(_, _, c)) in keyed.iter().enumerate() {
            sorted_children[range.start + i] = c;
            s = s.max(storage[c.index()] + prefix);
            excess_peak = excess_peak.max(in_core[c.index()] + prefix);
            children_io += io_volume[c.index()];
            prefix += tree.weight(c);
        }
        storage[node.index()] = s;
        in_core[node.index()] = memory.min(s);
        io_volume[node.index()] = excess_peak.saturating_sub(memory) + children_io;
    }

    // Emit the postorder following the chosen child orders.
    // A frame is (node, next child slot); a child count fits a `u32` as a
    // node id does, and 8-byte frames keep deep trees' stacks small.
    let mut schedule = Vec::with_capacity(order.len());
    let mut stack: Vec<(NodeId, u32)> = vec![(root, 0)];
    while let Some((node, idx)) = stack.pop() {
        let kids = &sorted_children[tree.child_range(node)];
        if let Some(&kid) = kids.get(idx as usize) {
            stack.push((node, idx + 1));
            stack.push((kid, 0));
        } else {
            schedule.push(node);
        }
    }

    (
        Schedule::new(schedule),
        PostorderIoAnalysis {
            storage,
            in_core,
            io_volume,
            memory,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::{fif_io, peak_memory, TreeBuilder};

    /// root(1) with two chains a(2) <- la(6) and b(2) <- lb(6).
    fn two_chains() -> Tree {
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(1);
        let a = bld.add_child(r, 2);
        bld.add_child(a, 6);
        let b = bld.add_child(r, 2);
        bld.add_child(b, 6);
        bld.build().unwrap()
    }

    #[test]
    fn analysis_matches_simulation_when_memory_ample() {
        let t = two_chains();
        let (s, an) = post_order_min_io(&t, 100);
        s.validate(&t).unwrap();
        assert!(s.is_postorder(&t));
        assert_eq!(an.total_io(&t), 0);
        assert_eq!(fif_io(&t, &s, 100).unwrap().total_io, 0);
        // With no memory pressure A_i = S_i and S_root is the postorder peak.
        assert_eq!(an.storage[t.root().index()], peak_memory(&t, &s).unwrap());
    }

    #[test]
    fn analysis_matches_simulation_under_pressure() {
        let t = two_chains();
        for m in [7u64, 8, 9, 10] {
            let (s, an) = post_order_min_io(&t, m);
            let sim = fif_io(&t, &s, m).unwrap();
            assert_eq!(
                an.total_io(&t),
                sim.total_io,
                "analysis and FiF simulation disagree for M = {m}"
            );
        }
    }

    #[test]
    fn children_sorted_by_a_minus_w() {
        // Child A: chain with a big leaf (S = 9, w = 1); child B: single leaf
        // (S = w = 5). With M = 20, A − w is 8 vs 0 → A first. With M = 6,
        // A − w is 5 vs 1 → A still first, but the analysis now reports I/O.
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(1);
        let a = bld.add_child(r, 1);
        bld.add_child(a, 9);
        bld.add_child(r, 5);
        let t = bld.build().unwrap();
        let (s, _) = post_order_min_io(&t, 20);
        assert_eq!(s.order()[0], NodeId(2), "big subtree processed first");
        let (s6, an6) = post_order_min_io(&t, 6);
        assert_eq!(s6.order()[0], NodeId(2));
        // Under M = 6: subtree A alone fits (peak 9 > 6 → needs 3 I/Os of its
        // own? its peak is 9: executing leaf(9) alone already exceeds... but
        // w̄ = 9 > 6 means infeasible; pick a feasible bound instead.
        let _ = an6;
        let (s7, an7) = post_order_min_io(&t, 9);
        let sim = fif_io(&t, &s7, 9).unwrap();
        assert_eq!(an7.total_io(&t), sim.total_io);
    }

    #[test]
    fn postorder_io_on_figure2a_core_is_large() {
        // The innermost gadget of Figure 2(a) (Section 4.3) with M = 8:
        // root(1) whose two children of weight M/2 each cap a chain
        // "weight-1 node over a leaf of weight M". Any postorder pays at
        // least M/2 − 1 = 3 I/Os (the second leaf does not fit next to the
        // first branch's M/2 residue), while the optimal traversal pays 1.
        let m = 8u64;
        let mut b = TreeBuilder::new();
        let root = b.add_root(1);
        for _ in 0..2 {
            let half = b.add_child(root, m / 2);
            let one = b.add_child(half, 1);
            b.add_child(one, m);
        }
        let t = b.build().unwrap();
        let (s, an) = post_order_min_io(&t, m);
        assert!(s.is_postorder(&t));
        let sim = fif_io(&t, &s, m).unwrap();
        assert_eq!(an.total_io(&t), sim.total_io);
        assert_eq!(sim.total_io, m / 2, "best postorder pays M/2 here");
        // A hand-built non-postorder traversal pays a single I/O: process
        // both leaves (and their weight-1 parents) before the M/2 nodes.
        let order = Schedule::new(vec![
            NodeId(3), // leaf of branch 1
            NodeId(2), // its weight-1 parent
            NodeId(6), // leaf of branch 2 (evicts the 1 unit resident)
            NodeId(5),
            NodeId(1), // M/2 node of branch 1
            NodeId(4), // M/2 node of branch 2 (reads the unit back)
            NodeId(0),
        ]);
        order.validate(&t).unwrap();
        assert_eq!(fif_io(&t, &order, m).unwrap().total_io, 1);
    }
}
