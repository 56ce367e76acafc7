//! Node expansion (paper, Figure 3).
//!
//! Expanding a node `i` by an amount `τ(i)` replaces it with a chain of three
//! nodes of weights `w_i`, `w_i − τ(i)` and `w_i`:
//!
//! ```text
//!        parent                    parent
//!          │                         │
//!         (i)  w_i      ⟹        (top)  w_i
//!        ╱   ╲                       │
//!   children                      (mid)  w_i − τ(i)
//!                                    │
//!                                   (i)  w_i
//!                                  ╱   ╲
//!                             children
//! ```
//!
//! The chain mimics an I/O of `τ(i)` units on the output of `i`: the data
//! occupies `w_i` units when produced, only `w_i − τ(i)` units while part of
//! it sits on disk, and `w_i` units again once read back just before the
//! parent executes. This transformation is the engine behind Theorem 2
//! (computing a schedule from an I/O function) and behind the `RecExpand` /
//! `FullRecExpand` heuristics of Section 5.

use crate::schedule::Schedule;
use crate::tree::{NodeId, Tree};

/// A tree derived from an original tree by a sequence of node expansions,
/// together with the bookkeeping needed to map schedules back to the original
/// tree.
#[derive(Debug, Clone)]
pub struct ExpandedTree {
    tree: Tree,
    /// For every node of the expanded tree, the original node it descends
    /// from (originals map to themselves).
    origin: Vec<NodeId>,
    /// `true` for the unique node of each original node's chain that carries
    /// the *execution* of the original task (the bottom of the chain, which
    /// kept the original children).
    is_exec: Vec<bool>,
    /// Total amount of I/O forced by expansions, per original node.
    forced_io: Vec<u64>,
    original_len: usize,
}

impl ExpandedTree {
    /// Starts from an unexpanded copy of `tree`.
    pub fn new(tree: &Tree) -> Self {
        let n = tree.len();
        ExpandedTree {
            tree: tree.clone(),
            origin: (0..n).map(NodeId::from_index).collect(),
            is_exec: vec![true; n],
            forced_io: vec![0; n],
            original_len: n,
        }
    }

    /// The current (expanded) tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Total amount of I/O forced by all expansions performed so far
    /// (the paper charges exactly this volume to `FullRecExpand`).
    pub fn total_forced_io(&self) -> u64 {
        self.forced_io.iter().sum()
    }

    /// Number of expansions performed so far.
    pub fn expansions(&self) -> usize {
        (self.tree.len() - self.original_len) / 2
    }

    /// Expands `node` (a node of the *expanded* tree) by `amount` units,
    /// i.e. forces `amount` units of its data to be written to disk right
    /// after the node completes and read back right before its parent starts.
    ///
    /// Returns the ids of the inserted (middle, top) nodes.
    ///
    /// # Panics
    /// Panics if `amount` is zero or exceeds the node's weight.
    pub fn expand(&mut self, node: NodeId, amount: u64) -> (NodeId, NodeId) {
        let w = self.tree.weight(node);
        assert!(amount > 0, "expansion amount must be positive");
        assert!(
            amount <= w,
            "cannot expand node of weight {w} by {amount} units"
        );
        let orig = self.origin[node.index()];
        let mid = self.tree.splice_above(node, w - amount);
        let top = self.tree.splice_above(mid, w);
        self.origin.push(orig); // mid
        self.origin.push(orig); // top
        self.is_exec.push(false);
        self.is_exec.push(false);
        self.forced_io[orig.index()] += amount;
        (mid, top)
    }

    /// Translates a schedule of the expanded tree into a schedule of the
    /// original tree: the original task executes at the step where the
    /// execution node of its chain executes; chain helper nodes are dropped.
    pub fn to_original_schedule(&self, schedule: &Schedule) -> Schedule {
        let order = schedule
            .iter()
            .filter(|n| self.is_exec[n.index()])
            .map(|n| self.origin[n.index()])
            .collect();
        Schedule::new(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate::{fif_io, peak_memory};
    use crate::tree::TreeBuilder;

    /// root(4) <- a(8) <- leaf(2), root <- b(10)  — loosely Figure 6 shaped.
    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(4);
        let a = b.add_child(r, 8);
        b.add_child(a, 2);
        b.add_child(r, 10);
        b.build().unwrap()
    }

    #[test]
    fn expansion_inserts_chain() {
        let t = sample();
        let mut ex = ExpandedTree::new(&t);
        let a = NodeId(1);
        let (mid, top) = ex.expand(a, 3);
        let et = ex.tree();
        et.validate().unwrap();
        assert_eq!(et.len(), t.len() + 2);
        assert_eq!(et.weight(a), 8);
        assert_eq!(et.weight(mid), 5);
        assert_eq!(et.weight(top), 8);
        assert_eq!(et.parent(a), Some(mid));
        assert_eq!(et.parent(mid), Some(top));
        assert_eq!(et.parent(top), Some(NodeId(0)));
        assert_eq!(ex.origin[mid.index()], a);
        assert_eq!(ex.origin[top.index()], a);
        assert_eq!(ex.total_forced_io(), 3);
        assert_eq!(ex.expansions(), 1);
        assert_eq!(ex.forced_io[a.index()], 3);
    }

    #[test]
    fn repeated_expansion_accumulates() {
        let t = sample();
        let mut ex = ExpandedTree::new(&t);
        let a = NodeId(1);
        let (mid, _top) = ex.expand(a, 3);
        // A further expansion of the reduced middle node mimics writing more
        // of the same datum to disk.
        ex.expand(mid, 2);
        assert_eq!(ex.total_forced_io(), 5);
        assert_eq!(ex.forced_io[a.index()], 5);
        assert_eq!(ex.expansions(), 2);
        ex.tree().validate().unwrap();
    }

    #[test]
    fn schedule_maps_back_to_original() {
        let t = sample();
        let mut ex = ExpandedTree::new(&t);
        ex.expand(NodeId(1), 3);
        let s_exp = Schedule::postorder(ex.tree());
        let s_orig = ex.to_original_schedule(&s_exp);
        s_orig.validate(&t).unwrap();
        assert_eq!(s_orig.len(), t.len());
    }

    #[test]
    fn expansion_lowers_in_core_peak() {
        // A chain with a heavy middle node: the expanded tree can be
        // traversed with a smaller peak because the heavy datum shrinks
        // between production and use.
        let mut b = TreeBuilder::new();
        let r = b.add_root(2);
        let a = b.add_child(r, 8);
        b.add_child(a, 2);
        b.add_child(r, 6);
        let t = b.build().unwrap();
        // Best possible in-core peak is at least w̄_root = 14.
        let s = Schedule::postorder(&t);
        let peak_before = peak_memory(&t, &s).unwrap();
        assert!(peak_before >= 14);

        let mut ex = ExpandedTree::new(&t);
        ex.expand(NodeId(1), 8); // allow node a to shrink to 0 while b runs
        let s_exp = Schedule::postorder(ex.tree());
        // The expanded-tree postorder keeps the same peak (postorder does not
        // exploit the chain), but a hand-written order that executes the
        // middle node early does.
        let et = ex.tree();
        let mid = NodeId(4);
        let top = NodeId(5);
        let order = Schedule::new(vec![NodeId(2), NodeId(1), mid, NodeId(3), top, NodeId(0)]);
        order.validate(et).unwrap();
        let peak_after = peak_memory(et, &order).unwrap();
        assert_eq!(peak_after, 14);
        assert!(peak_after <= peak_memory(et, &s_exp).unwrap());

        // Mapping the clever order back gives a valid original schedule whose
        // FiF I/O under M = 14 is zero... the original schedule under M = 14:
        let s_back = ex.to_original_schedule(&order);
        s_back.validate(&t).unwrap();
        let io = fif_io(&t, &s_back, 14).unwrap();
        assert_eq!(io.total_io, 0);
    }

    #[test]
    #[should_panic(expected = "expansion amount must be positive")]
    fn zero_expansion_panics() {
        let t = sample();
        let mut ex = ExpandedTree::new(&t);
        ex.expand(NodeId(1), 0);
    }

    #[test]
    #[should_panic(expected = "cannot expand node")]
    fn oversized_expansion_panics() {
        let t = sample();
        let mut ex = ExpandedTree::new(&t);
        ex.expand(NodeId(1), 100);
    }
}
