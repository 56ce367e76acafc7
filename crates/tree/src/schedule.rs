//! Execution schedules (the `σ` part of a traversal).

use crate::error::TreeError;
use crate::tree::{NodeId, Tree};

/// A sequential execution order of a set of tasks.
///
/// A schedule may cover the whole tree or only a subtree: the only structural
/// requirement (checked by [`Schedule::validate`]) is that whenever a node is
/// scheduled, all of its children are scheduled before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    order: Vec<NodeId>,
}

impl Schedule {
    /// Wraps an execution order without validating it.
    pub fn new(order: Vec<NodeId>) -> Self {
        Schedule { order }
    }

    /// The postorder schedule of the whole tree (children in their stored
    /// order). Always valid.
    pub fn postorder(tree: &Tree) -> Self {
        Schedule {
            order: tree.postorder().to_vec(),
        }
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if the schedule contains no task.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The scheduled tasks, in execution order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Consumes the schedule and returns the underlying order.
    pub fn into_order(self) -> Vec<NodeId> {
        self.order
    }

    /// Iterator over the scheduled tasks in execution order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().copied()
    }

    /// Execution step of each node, indexed by node id.
    ///
    /// Nodes that are not part of the schedule get `usize::MAX`, which sorts
    /// *after* every scheduled node — convenient for Furthest-in-the-Future
    /// comparisons where "parent outside the schedule" means "needed last".
    /// Scheduled ids that are not nodes of `tree` are skipped
    /// ([`Schedule::validate`] reports them).
    pub fn positions(&self, tree: &Tree) -> Vec<usize> {
        let mut pos = Vec::new();
        self.positions_into(tree, &mut pos);
        pos
    }

    /// Buffer-reusing variant of [`Schedule::positions`]: fills `pos` in
    /// place. The FiF scratch path calls this with a buffer that already
    /// has capacity, so the steady state is allocation-free.
    // lint: no_alloc
    pub fn positions_into(&self, tree: &Tree, pos: &mut Vec<usize>) {
        pos.clear();
        pos.resize(tree.len(), usize::MAX);
        for (step, node) in self.order.iter().enumerate() {
            if let Some(slot) = pos.get_mut(node.index()) {
                *slot = step;
            }
        }
    }

    /// Checks that the schedule is a valid (partial) traversal order of
    /// `tree`: no duplicates, children scheduled before their parents, and for
    /// every scheduled non-leaf node all its children are scheduled.
    pub fn validate(&self, tree: &Tree) -> Result<(), TreeError> {
        self.validate_into(tree, &mut Vec::new())
    }

    /// [`Schedule::validate`] that leaves the schedule's positions in `pos`:
    /// on success `pos` holds exactly what [`Schedule::positions_into`]
    /// writes, so a caller that needs both (the FiF replay) fills one array
    /// once. The errors, and their order, are [`Schedule::validate`]'s: the
    /// first unknown or repeated id in schedule order, then the first
    /// missing or late child in schedule order.
    // lint: no_alloc
    pub fn validate_into(&self, tree: &Tree, pos: &mut Vec<usize>) -> Result<(), TreeError> {
        pos.clear();
        pos.resize(tree.len(), usize::MAX);
        for (step, &node) in self.order.iter().enumerate() {
            match pos.get_mut(node.index()) {
                None => return Err(TreeError::UnknownNode(node)),
                Some(slot) if *slot != usize::MAX => return Err(TreeError::DuplicateNode(node)),
                Some(slot) => *slot = step,
            }
        }
        for (step, &node) in self.order.iter().enumerate() {
            for &child in tree.children(node) {
                let at = pos[child.index()];
                if at == usize::MAX {
                    return Err(TreeError::MissingChild { node, child });
                }
                if at >= step {
                    return Err(TreeError::NotTopological(node));
                }
            }
        }
        Ok(())
    }

    /// `true` if the schedule is a postorder traversal of `tree`
    /// (paper, Section 3.1): for every node `i`, the nodes of the subtree
    /// rooted at `i` occupy a contiguous range of steps.
    pub fn is_postorder(&self, tree: &Tree) -> bool {
        let mut pos = Vec::new();
        if self.validate_into(tree, &mut pos).is_err() {
            return false;
        }
        // Compute for every scheduled node the minimum position in its
        // subtree; the traversal is a postorder iff for every node the span
        // [min position, own position] has exactly subtree-size many steps.
        let mut min_pos = vec![usize::MAX; tree.len()];
        let mut size = vec![0usize; tree.len()];
        for &node in &self.order {
            // order is topological, so children processed before parents when
            // iterating in schedule order.
            let mut mp = pos[node.index()];
            let mut sz = 1usize;
            for &c in tree.children(node) {
                mp = mp.min(min_pos[c.index()]);
                sz += size[c.index()];
            }
            min_pos[node.index()] = mp;
            size[node.index()] = sz;
            if pos[node.index()] + 1 - mp != sz {
                return false;
            }
        }
        true
    }
}

impl IntoIterator for Schedule {
    type Item = NodeId;
    type IntoIter = std::vec::IntoIter<NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.order.into_iter()
    }
}

impl<'a> IntoIterator for &'a Schedule {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.order.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        b.add_child(r, 2);
        b.build().unwrap()
    }

    #[test]
    fn postorder_schedule_is_valid_and_postorder() {
        let t = sample();
        let s = Schedule::postorder(&t);
        s.validate(&t).unwrap();
        assert!(s.is_postorder(&t));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn non_postorder_topological_order_detected() {
        let t = sample();
        // c(2), b(3), a(1), root(0): valid topological order...
        let s = Schedule::new(vec![NodeId(2), NodeId(3), NodeId(1), NodeId(0)]);
        s.validate(&t).unwrap();
        // ... but not a postorder: subtree of node 1 = {1, 2} is interrupted
        // by node 3.
        assert!(!s.is_postorder(&t));
    }

    #[test]
    fn invalid_orders_are_rejected() {
        let t = sample();
        let not_topo = Schedule::new(vec![NodeId(1), NodeId(2), NodeId(3), NodeId(0)]);
        assert!(matches!(
            not_topo.validate(&t),
            Err(TreeError::NotTopological(_))
        ));
        let dup = Schedule::new(vec![NodeId(2), NodeId(2)]);
        assert!(matches!(dup.validate(&t), Err(TreeError::DuplicateNode(_))));
        let missing_child = Schedule::new(vec![NodeId(1), NodeId(0)]);
        assert!(matches!(
            missing_child.validate(&t),
            Err(TreeError::MissingChild { .. })
        ));
    }

    #[test]
    fn subtree_schedule_is_valid() {
        let t = sample();
        let s = Schedule::new(vec![NodeId(2), NodeId(1)]);
        s.validate(&t).unwrap();
        assert!(s.is_postorder(&t));
    }

    #[test]
    fn unknown_node_is_an_error_not_a_panic() {
        let t = sample();
        let s = Schedule::new(vec![NodeId(2), NodeId(7), NodeId(1)]);
        assert_eq!(s.validate(&t), Err(TreeError::UnknownNode(NodeId(7))));
        assert!(!s.is_postorder(&t));
        assert_eq!(s.positions(&t), vec![usize::MAX, 2, 0, usize::MAX]);
    }

    #[test]
    fn positions_mark_unscheduled_nodes() {
        let t = sample();
        let s = Schedule::new(vec![NodeId(2), NodeId(1)]);
        let pos = s.positions(&t);
        assert_eq!(pos[2], 0);
        assert_eq!(pos[1], 1);
        assert_eq!(pos[0], usize::MAX);
    }
}
