//! Homogeneous trees (all output data of size 1): the labelling of
//! Section 4.2 and the exact optimality results around it.
//!
//! For homogeneous trees the paper proves (Theorem 4) that the best postorder
//! (`PostOrderMinIO`, or equivalently the `POSTORDER` schedule that processes
//! children by non-increasing `l`-label) performs the minimum possible number
//! of I/Os over all traversals. The proof machinery — the labels `l(v)`,
//! `c(v)`, `m(v)`, `w(v)` and the total `W(T)` — doubles as an *exact lower
//! bound* usable in tests and experiments.

use oocts_tree::{NodeId, Schedule, Tree};

/// Error returned when a homogeneous-tree routine is called on a tree that
/// has a node of weight different from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotHomogeneous {
    /// A node whose weight is not 1.
    pub node: NodeId,
    /// Its weight.
    pub weight: u64,
}

impl std::fmt::Display for NotHomogeneous {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tree is not homogeneous: node {:?} has weight {}",
            self.node, self.weight
        )
    }
}

impl std::error::Error for NotHomogeneous {}

/// The labelling of Section 4.2 for a homogeneous tree and a memory bound.
#[derive(Debug, Clone)]
pub struct HomogeneousLabels {
    /// `l(v)`: minimum memory (in unit slots) needed to execute the subtree
    /// rooted at `v` without any I/O.
    pub l: Vec<u64>,
    /// `c(v)`: 1 if, under the `POSTORDER` schedule, the output of `v` is
    /// written to disk while one of its later siblings' subtrees executes.
    pub c: Vec<u8>,
    /// `w(v)`: number of children of `v` written to disk by `POSTORDER`.
    pub w: Vec<u64>,
    /// The order in which each node's children are processed (non-increasing
    /// `l`-labels).
    pub child_order: Vec<Vec<NodeId>>,
    /// The memory bound used to compute `c` and `w`.
    pub memory: u64,
}

impl HomogeneousLabels {
    /// `W(T)`: the total I/O volume of `POSTORDER`, which is also a lower
    /// bound on the I/O volume of *any* traversal (Lemmas 3 and 5).
    pub fn total_io(&self) -> u64 {
        self.w.iter().sum()
    }
}

fn check_homogeneous(tree: &Tree) -> Result<(), NotHomogeneous> {
    for node in tree.node_ids() {
        let w = tree.weight(node);
        if w != 1 {
            return Err(NotHomogeneous { node, weight: w });
        }
    }
    Ok(())
}

/// Computes the `l`, `c`, `w` labels of Section 4.2 for a homogeneous tree
/// under memory bound `memory`.
pub fn labels(tree: &Tree, memory: u64) -> Result<HomogeneousLabels, NotHomogeneous> {
    check_homogeneous(tree)?;
    let n = tree.len();
    let mut l = vec![0u64; n];
    let mut child_order: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for &node in tree.postorder() {
        let children = tree.children(node);
        if children.is_empty() {
            l[node.index()] = 1;
            continue;
        }
        let mut sorted: Vec<NodeId> = children.to_vec();
        sorted.sort_by(|&a, &b| l[b.index()].cmp(&l[a.index()]));
        let mut label = 0u64;
        for (i, &c) in sorted.iter().enumerate() {
            label = label.max(l[c.index()] + i as u64);
        }
        l[node.index()] = label;
        child_order[node.index()] = sorted;
    }

    // c labels: children processed in POSTORDER order.
    let mut c = vec![0u8; n];
    let mut w = vec![0u64; n];
    for &node in tree.postorder() {
        if tree.is_leaf(node) {
            continue;
        }
        let order = &child_order[node.index()];
        let mut in_memory = 0u64; // m(v_i) = number of earlier children kept in memory
        for (i, &child) in order.iter().enumerate() {
            let keep = if i == 0 {
                true
            } else {
                l[child.index()] + in_memory <= memory
            };
            if keep {
                c[child.index()] = 0;
                in_memory += 1;
            } else {
                c[child.index()] = 1;
            }
            w[node.index()] += u64::from(c[child.index()]);
        }
    }
    // c(root) = 0 by definition (already 0).

    Ok(HomogeneousLabels {
        l,
        c,
        w,
        child_order,
        memory,
    })
}

/// The `POSTORDER` schedule of Section 4.2: a postorder that processes every
/// node's children by non-increasing `l`-label.
pub fn postorder_schedule(tree: &Tree) -> Result<Schedule, NotHomogeneous> {
    let lbl = labels(tree, u64::MAX)?;
    let mut schedule = Vec::with_capacity(tree.len());
    let mut stack: Vec<(NodeId, usize)> = vec![(tree.root(), 0)];
    while let Some((node, idx)) = stack.pop() {
        let kids: &[NodeId] = if tree.children(node).is_empty() {
            &[]
        } else {
            &lbl.child_order[node.index()]
        };
        if idx < kids.len() {
            stack.push((node, idx + 1));
            stack.push((kids[idx], 0));
        } else {
            schedule.push(node);
        }
    }
    Ok(Schedule::new(schedule))
}

/// The exact minimum I/O volume of a homogeneous tree under memory bound
/// `memory`: `W(T)` (Theorem 4 — both an upper bound achieved by `POSTORDER`
/// and a lower bound for every traversal).
pub fn min_io(tree: &Tree, memory: u64) -> Result<u64, NotHomogeneous> {
    Ok(labels(tree, memory)?.total_io())
}

/// Lower bound on the I/O volume of *any* traversal of an arbitrary tree:
/// for homogeneous trees this is the exact `W(T)`; for heterogeneous trees it
/// falls back to the trivial bound `max(0, minimal peak − M)` computed from
/// Liu's optimal peak, which any traversal must pay at its peak instant...
/// (the data exceeding `M` at the tightest instant must have been written).
///
/// This helper is primarily used by tests and by the experiment reports.
pub fn io_lower_bound(tree: &Tree, memory: u64, optimal_peak: u64) -> u64 {
    if tree.is_homogeneous() {
        min_io(tree, memory).unwrap_or(0)
    } else {
        optimal_peak.saturating_sub(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::{fif_io, TreeBuilder};

    /// A complete binary tree of the given height with unit weights.
    fn complete_binary(height: u32) -> Tree {
        let mut b = TreeBuilder::new();
        let root = b.add_root(1);
        let mut frontier = vec![root];
        for _ in 0..height {
            let mut next = Vec::new();
            for node in frontier {
                next.push(b.add_child(node, 1));
                next.push(b.add_child(node, 1));
            }
            frontier = next;
        }
        b.build().unwrap()
    }

    #[test]
    fn l_labels_of_small_trees() {
        // A leaf has l = 1.
        let t = Tree::from_parents(&[1], &[None]).unwrap();
        let lbl = labels(&t, 10).unwrap();
        assert_eq!(lbl.l[0], 1);

        // A node with two leaf children: l = max(1 + 0, 1 + 1) = 2.
        let mut b = TreeBuilder::new();
        let r = b.add_root(1);
        b.add_child(r, 1);
        b.add_child(r, 1);
        let t = b.build().unwrap();
        let lbl = labels(&t, 10).unwrap();
        assert_eq!(lbl.l[r.index()], 2);

        // Complete binary tree of height 2: the classical Sethi–Ullman number
        // is height + 1 = 3.
        let t = complete_binary(2);
        let lbl = labels(&t, 10).unwrap();
        assert_eq!(lbl.l[t.root().index()], 3);
    }

    #[test]
    fn rejects_non_homogeneous_trees() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(1);
        b.add_child(r, 2);
        let t = b.build().unwrap();
        assert!(labels(&t, 10).is_err());
        assert!(postorder_schedule(&t).is_err());
        assert!(min_io(&t, 10).is_err());
    }

    #[test]
    fn postorder_schedule_needs_l_root_slots() {
        // Lemma 1: POSTORDER uses exactly l(root) slots when memory is ample.
        let t = complete_binary(3);
        let lbl = labels(&t, u64::MAX).unwrap();
        let s = postorder_schedule(&t).unwrap();
        let peak = oocts_tree::peak_memory(&t, &s).unwrap();
        assert_eq!(peak, lbl.l[t.root().index()]);
    }

    #[test]
    fn w_t_matches_fif_simulation_of_postorder() {
        // Lemma 3 (upper bound): POSTORDER performs at most W(T) I/Os; in
        // fact exactly W(T) on these instances.
        let t = complete_binary(4); // l(root) = 5
        for m in [2u64, 3, 4] {
            let lbl = labels(&t, m).unwrap();
            let s = postorder_schedule(&t).unwrap();
            let sim = fif_io(&t, &s, m).unwrap();
            assert_eq!(
                sim.total_io,
                lbl.total_io(),
                "W(T) and the FiF simulation disagree for M = {m}"
            );
        }
    }

    #[test]
    fn no_io_needed_when_memory_reaches_l_root() {
        let t = complete_binary(3); // l(root) = 4
        let m = 4;
        assert_eq!(min_io(&t, m).unwrap(), 0);
        let s = postorder_schedule(&t).unwrap();
        assert_eq!(fif_io(&t, &s, m).unwrap().total_io, 0);
    }

    #[test]
    fn io_lower_bound_heterogeneous_fallback() {
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        b.add_child(r, 3);
        b.add_child(r, 4);
        let t = b.build().unwrap();
        // Optimal peak is 7 (both children resident for the root).
        assert_eq!(io_lower_bound(&t, 7, 7), 0);
        assert_eq!(io_lower_bound(&t, 6, 7), 1);
    }
}
