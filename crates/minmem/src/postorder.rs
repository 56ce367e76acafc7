//! PostOrderMinMem: the best postorder traversal for peak memory (Liu 1986).
//!
//! In a postorder traversal each subtree is processed entirely before any
//! other node outside of it. The peak memory of the subtree rooted at `i`
//! under the best postorder is
//!
//! ```text
//! P_i = max( w̄_i , max_j ( P_j + Σ_{k processed before j} w_k ) )
//! ```
//!
//! and, by the rearrangement result (Theorem 3 in the paper, Lemma 3.1 in
//! Liu 1986), the inner maximum is minimized by processing the children by
//! non-increasing `P_j − w_j`.

use oocts_tree::{NodeId, Schedule, Tree};

/// Computes the best postorder traversal of the whole tree for peak memory.
///
/// Returns the schedule and its peak memory.
pub fn post_order_min_mem(tree: &Tree) -> (Schedule, u64) {
    post_order_min_mem_subtree(tree, tree.root())
}

/// Computes the best postorder traversal of the subtree rooted at `root`
/// (as an independent tree). Returns the schedule and its peak memory.
pub fn post_order_min_mem_subtree(tree: &Tree, root: NodeId) -> (Schedule, u64) {
    let order = tree.subtree_postorder(root);
    let mut peak = vec![0u64; tree.len()];
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
        if children.is_empty() {
            peak[node.index()] = tree.weight(node);
            continue;
        }
        // Non-increasing P_j − w_j; compare without subtraction to avoid any
        // issue with unsigned underflow (P_j ≥ w_j always, but stay safe).
        keyed.clear();
        for (slot, &c) in children.iter().enumerate() {
            let key = peak[c.index()] as i128 - tree.weight(c) as i128;
            keyed.push((key, slot as u32, c));
        }
        keyed.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let range = tree.child_range(node);
        let mut resident = 0u64;
        let mut p = tree.execution_weight(node);
        for (i, &(_, _, c)) in keyed.iter().enumerate() {
            sorted_children[range.start + i] = c;
            p = p.max(resident + peak[c.index()]);
            resident += tree.weight(c);
        }
        peak[node.index()] = p;
    }

    // Emit the postorder that follows the chosen child orders, iteratively.
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
    (Schedule::new(schedule), peak[root.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liu::opt_min_mem;
    use oocts_tree::{peak_memory, TreeBuilder};

    #[test]
    fn postorder_schedule_is_postorder_and_peak_matches() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(2);
        let a = b.add_child(r, 3);
        b.add_child(a, 7);
        b.add_child(a, 1);
        let c = b.add_child(r, 5);
        b.add_child(c, 2);
        let t = b.build().unwrap();
        let (s, peak) = post_order_min_mem(&t);
        s.validate(&t).unwrap();
        assert!(s.is_postorder(&t));
        assert_eq!(peak_memory(&t, &s).unwrap(), peak);
    }

    #[test]
    fn best_postorder_orders_children_by_peak_minus_weight() {
        // Node with two children: child A has subtree peak 10 and output 1,
        // child B has subtree peak 4 and output 4. Processing A first gives
        // max(10, 1 + 4) = 10; B first gives max(4, 4 + 10) = 14.
        let mut b = TreeBuilder::new();
        let r = b.add_root(1);
        let a = b.add_child(r, 1);
        b.add_child(a, 10);
        b.add_child(r, 4);
        let t = b.build().unwrap();
        let (s, peak) = post_order_min_mem(&t);
        assert_eq!(peak, 10);
        // A's subtree (leaf then a) must come before B.
        let order = s.order();
        assert_eq!(order[0], NodeId(2));
        assert_eq!(order[1], NodeId(1));
        assert_eq!(order[2], NodeId(3));
    }

    #[test]
    fn postorder_peak_at_least_optimal_peak() {
        let t = {
            let mut b = TreeBuilder::new();
            let root = b.add_root(1);
            for _ in 0..2 {
                let mut parent = root;
                for &w in &[3u64, 5, 2, 6] {
                    parent = b.add_child(parent, w);
                }
            }
            b.build().unwrap()
        };
        let (_, p_post) = post_order_min_mem(&t);
        let (_, p_opt) = opt_min_mem(&t);
        assert!(p_post >= p_opt);
        // On the Figure 2(b) instance the best postorder reaches 9 while the
        // optimal traversal reaches 8.
        assert_eq!(p_post, 9);
        assert_eq!(p_opt, 8);
    }
}
