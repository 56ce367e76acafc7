//! Rooted in-trees of tasks with weighted output data, stored as a flat
//! arena.
//!
//! # Arena layout
//!
//! The tree is a struct-of-arrays indexed by [`NodeId`]:
//!
//! ```text
//! weights        [w_0, w_1, …, w_{n-1}]          one u64 per node (SoA)
//! parent         [p_0, p_1, …, p_{n-1}]          u32; NO_PARENT for the root
//! child_start    [s_0, s_1, …, s_n]              CSR offsets (n + 1 entries)
//! children_flat  [c …]                           all child lists, concatenated
//! ```
//!
//! `children(i)` is the contiguous slice
//! `children_flat[child_start[i] .. child_start[i+1]]` — no per-node `Vec`,
//! no pointer chasing. On top of the structure the constructor precomputes
//! the derived arrays every scheduler needs:
//!
//! ```text
//! children_weight  Σ_{j child of i} w_j           O(1) lookups in simulators
//! postorder        DFS postorder of the whole tree (children in stored order)
//! postorder_pos    position of each node in `postorder`
//! subtree_size     nodes in the subtree rooted at i (including i)
//! ```
//!
//! Because the postorder visits every subtree contiguously (ending at its
//! root), [`Tree::subtree_postorder`] is a **slice** of the precomputed
//! order: traversals allocate nothing. Structural mutation is confined to
//! [`Tree::splice_above`] (the node-expansion primitive), which patches
//! every array in place instead of rebuilding them:
//!
//! * CSR: the new node's single-child list is appended at the tail and the
//!   parent's child slot is overwritten;
//! * the new node enters the postorder right after the node it sits above,
//!   and the later positions shift by one;
//! * the ancestors' subtree sizes grow by one;
//! * two children-weight entries change: the new node's and its parent's.
//!
//! The patched tree is `==` to rebuilding its derived arrays from scratch.

use crate::error::TreeError;

/// Identifier of a node (task) inside a [`Tree`].
///
/// Node identifiers are dense indices (`0..tree.len()`); they are stable under
/// the structural mutations used by the node-expansion machinery (expansion
/// only *adds* nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The root's entry in the parent array that [`Tree::from_parent_ids`]
/// takes and the arena keeps: `u32::MAX`, above every node id of a tree of
/// at most `u32::MAX` nodes.
pub const NO_PARENT: u32 = u32::MAX;

impl NodeId {
    /// The node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a node id from a `usize` index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        // lint: allow(L001, documented panic: the u32-width node id is a deliberate API contract)
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId::from_index(value)
    }
}

/// A rooted in-tree of tasks, stored as a flat arena (see the module docs
/// for the layout).
///
/// Every node `i` produces one output datum of `weight(i)` memory units that
/// is consumed by its unique parent. Dependencies are directed towards the
/// root: a node can only execute after all of its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// Output datum size per node (SoA weight array).
    weights: Vec<u64>,
    /// Parent index per node; `NO_PARENT` marks the root.
    parent: Vec<u32>,
    /// CSR offsets into `children_flat`; `len() + 1` entries.
    child_start: Vec<u32>,
    /// All child lists, concatenated in node-index order.
    children_flat: Vec<NodeId>,
    /// Precomputed `Σ_{j child of i} w_j`.
    children_weight: Vec<u64>,
    /// Precomputed DFS postorder of the whole tree (children in stored
    /// order, every subtree contiguous and ending at its root).
    postorder: Vec<NodeId>,
    /// Position of each node in `postorder`.
    postorder_pos: Vec<u32>,
    /// Number of nodes in the subtree rooted at each node (including it).
    subtree_size: Vec<u32>,
    root: NodeId,
}

impl Tree {
    /// Builds a tree from a parent array in the arena's own format, moving
    /// both arrays into the arena.
    ///
    /// `parents[i]` is the id of node `i`'s parent, [`NO_PARENT`] for the
    /// root; `weights[i]` is the size of node `i`'s output datum. The first
    /// fault found is the error, checked in this order:
    /// [`TreeError::LengthMismatch`], [`TreeError::Empty`], then in index
    /// order [`TreeError::UnknownNode`] (a parent id at or past `len()`) and
    /// [`TreeError::MultipleRoots`], then [`TreeError::NoRoot`];
    /// [`TreeError::WeightOverflow`] naming the lowest node whose children
    /// weights overflow `u64`, then the lowest node at which the running
    /// total of `weights` does; [`TreeError::Cycle`] naming the lowest node
    /// that does not reach the root.
    ///
    /// O(n), and every node-sized array it allocates is part of the arena:
    /// one counting sort by parent lists the children in id order and sums
    /// their weights, and one DFS derives the postorder, positions and
    /// subtree sizes.
    pub fn from_parent_ids(weights: Vec<u64>, parents: Vec<u32>) -> Result<Self, TreeError> {
        Tree::build(weights, parents, None)
    }

    /// Builds a tree from borrowed arrays with `None` for the root's
    /// parent, through [`Tree::from_parent_ids`] and with its errors. A
    /// parent index of `u32::MAX` or more, which no node id can be, is
    /// [`TreeError::ParentOutOfRange`] naming the node, in its place in
    /// index order.
    pub fn from_parents(weights: &[u64], parents: &[Option<usize>]) -> Result<Self, TreeError> {
        let mut stray = None;
        let mut ids = Vec::with_capacity(parents.len());
        for (i, p) in parents.iter().enumerate() {
            ids.push(match p.map(u32::try_from) {
                None => NO_PARENT,
                Some(Ok(id)) if id != NO_PARENT => id,
                Some(_) => {
                    stray = stray.or(Some(i));
                    NO_PARENT
                }
            });
        }
        Tree::build(weights.to_vec(), ids, stray)
    }

    /// [`Tree::from_parent_ids`], where node `stray`, if any, has a parent
    /// that no id can name (its entry does not count): the parent checks
    /// stop there with [`TreeError::ParentOutOfRange`].
    fn build(
        mut weights: Vec<u64>,
        mut parents: Vec<u32>,
        stray: Option<usize>,
    ) -> Result<Self, TreeError> {
        if weights.len() != parents.len() {
            return Err(TreeError::LengthMismatch {
                weights: weights.len(),
                parents: parents.len(),
            });
        }
        if weights.is_empty() {
            return Err(TreeError::Empty);
        }
        let n = weights.len();
        let root = find_root(&parents[..stray.unwrap_or(n)], n)?;
        if let Some(node) = stray {
            return Err(TreeError::ParentOutOfRange(NodeId::from_index(node)));
        }
        let root = root.ok_or(TreeError::NoRoot)?;
        let (child_start, children_flat, children_weight, overflow) =
            child_lists(&parents, &weights);
        debug_assert_eq!(children_flat.len(), n - 1, "every non-root node is a child");
        if overflow != NO_PARENT {
            return Err(TreeError::WeightOverflow(NodeId(overflow)));
        }
        let mut total = 0u64;
        for (i, &w) in weights.iter().enumerate() {
            total = total
                .checked_add(w)
                .ok_or(TreeError::WeightOverflow(NodeId::from_index(i)))?;
        }
        // A builder that grew its arrays by `push` hands over spare
        // capacity; the arena keeps one entry per node.
        weights.shrink_to_fit();
        parents.shrink_to_fit();
        let mut tree = Tree {
            weights,
            parent: parents,
            child_start,
            children_flat,
            children_weight,
            postorder: Vec::new(),
            postorder_pos: Vec::new(),
            subtree_size: Vec::new(),
            root,
        };
        tree.recompute_derived()?;
        Ok(tree)
    }

    /// The same tree with its nodes renumbered in postorder: node `p` of the
    /// copy is `self.postorder()[p]`, so mapping a node id of the copy
    /// through `self.postorder()` gives back the original node.
    ///
    /// Every child list keeps its order, the copy's postorder and postorder
    /// positions are the identity, and its root is `len() − 1`. Every
    /// subtree occupies a contiguous id range that ends at its root, so
    /// bottom-up passes and simulations read the arrays front to back
    /// instead of in the scattered order of, say, a generator's insertion
    /// ids. The copy is `==` to [`Tree::from_parent_ids`] of its own
    /// arrays, and renumbering a tree already numbered in postorder returns
    /// an equal tree.
    ///
    /// One pass over the old ids scatters each weight and mapped parent to
    /// the new id; no DFS, no gather. Siblings get ascending ids in child
    /// order, so the counting sort by parent keeps every child list, and it
    /// sums the children weights. Every child precedes its parent, so one
    /// front-to-back pass sums the subtree sizes.
    pub fn renumbered_in_postorder(&self) -> Tree {
        let n = self.len();
        // Old id → new id is the postorder position.
        let new_id = &self.postorder_pos;
        let mut weights = vec![0u64; n];
        let mut parent = vec![NO_PARENT; n];
        for (i, &v) in new_id.iter().enumerate() {
            let v = v as usize;
            weights[v] = self.weights[i];
            parent[v] = match self.parent[i] {
                NO_PARENT => NO_PARENT,
                p => new_id[p as usize],
            };
        }
        // The original holds every children sum, so none overflows.
        let (child_start, children_flat, children_weight, _) = child_lists(&parent, &weights);
        let mut subtree_size = vec![1u32; n];
        for v in 0..n {
            let p = parent[v];
            if p != NO_PARENT {
                subtree_size[p as usize] += subtree_size[v];
            }
        }
        Tree {
            weights,
            parent,
            child_start,
            children_flat,
            children_weight,
            postorder: (0..n).map(NodeId::from_index).collect(),
            postorder_pos: (0..n as u32).collect(),
            subtree_size,
            root: NodeId(new_id[self.root.index()]),
        }
    }

    /// Rebuilds the traversal arrays (postorder, positions, subtree sizes)
    /// from the child lists in O(n).
    ///
    /// Doubles as the acyclicity check: a parent structure with a cycle
    /// leaves the cycle's nodes unreachable from the root, so the DFS
    /// postorder comes up short and the lowest-index unreached node is
    /// reported — the same node the old walk-to-root check blamed.
    ///
    /// One DFS derives every array as it leaves each node: its position is
    /// the postorder's length, and its subtree size that length minus the
    /// length on entry, plus one.
    fn recompute_derived(&mut self) -> Result<(), TreeError> {
        let n = self.len();
        // Iterative DFS from the root, children in stored order. A frame
        // holds its node, the next child to visit and the postorder's length
        // when the DFS entered the node.
        let mut postorder = Vec::with_capacity(n);
        let mut postorder_pos = vec![0u32; n];
        let mut subtree_size = vec![0u32; n];
        let mut stack: Vec<(NodeId, u32, u32)> = Vec::with_capacity(64);
        stack.push((self.root, 0, 0));
        while let Some((node, child_idx, entry)) = stack.pop() {
            let kids = self.children(node);
            let len = postorder.len() as u32;
            if (child_idx as usize) < kids.len() {
                let child = kids[child_idx as usize];
                stack.push((node, child_idx + 1, entry));
                stack.push((child, 0, len));
            } else {
                let i = node.index();
                postorder_pos[i] = len;
                subtree_size[i] = len - entry + 1;
                postorder.push(node);
            }
        }
        if postorder.len() != n {
            // Some node never reaches the root by parent pointers.
            let mut reached = vec![false; n];
            for &node in &postorder {
                reached[node.index()] = true;
            }
            let lowest = (0..n)
                .find(|&i| !reached[i])
                .map(NodeId::from_index)
                .unwrap_or(self.root);
            return Err(TreeError::Cycle(lowest));
        }
        self.postorder = postorder;
        self.postorder_pos = postorder_pos;
        self.subtree_size = subtree_size;
        Ok(())
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if the tree has no nodes (never the case for a built tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The size `w_i` of node `i`'s output datum.
    // lint: no_alloc
    #[inline]
    pub fn weight(&self, node: NodeId) -> u64 {
        self.weights[node.index()]
    }

    /// The parent of `node`, or `None` for the root.
    // lint: no_alloc
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let raw = self.parent[node.index()];
        if raw == NO_PARENT {
            None
        } else {
            Some(NodeId(raw))
        }
    }

    /// The children of `node`: a contiguous slice of the CSR child arena.
    // lint: no_alloc
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children_flat[self.child_range(node)]
    }

    /// The range of `node`'s children inside [`Tree::children_flat`].
    // lint: no_alloc
    #[inline]
    pub fn child_range(&self, node: NodeId) -> std::ops::Range<usize> {
        let i = node.index();
        self.child_start[i] as usize..self.child_start[i + 1] as usize
    }

    /// The concatenated child lists of all nodes (CSR payload); index it
    /// with [`Tree::child_range`]. Useful for schedulers that reorder
    /// children in a flat scratch copy instead of per-node `Vec`s.
    // lint: no_alloc
    #[inline]
    pub fn children_flat(&self) -> &[NodeId] {
        &self.children_flat
    }

    /// `true` if `node` has no children.
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        let i = node.index();
        self.child_start[i] == self.child_start[i + 1]
    }

    /// Iterator over all node ids, in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::from_index)
    }

    /// Sum of the children output sizes of `node` (precomputed: O(1)).
    // lint: no_alloc
    #[inline]
    pub fn children_weight(&self, node: NodeId) -> u64 {
        self.children_weight[node.index()]
    }

    /// Memory needed to execute `node` in isolation:
    /// `w̄_i = max(w_i, Σ_{j child of i} w_j)` (paper, Section 3.1).
    // lint: no_alloc
    #[inline]
    pub fn execution_weight(&self, node: NodeId) -> u64 {
        self.weight(node).max(self.children_weight(node))
    }

    /// The minimum memory bound for which the tree can be executed at all
    /// (with unlimited I/O): `LB = max_i w̄_i` (paper, Section 6.1).
    pub fn min_feasible_memory(&self) -> u64 {
        self.node_ids()
            .map(|n| self.execution_weight(n))
            .max()
            .unwrap_or(0)
    }

    /// Sum of all node weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Number of nodes in the subtree rooted at `node` (including `node`);
    /// precomputed, O(1).
    // lint: no_alloc
    #[inline]
    pub fn subtree_size(&self, node: NodeId) -> usize {
        self.subtree_size[node.index()] as usize
    }

    /// The nodes of the subtree rooted at `node`, in postorder: every node
    /// appears after all of its children.
    ///
    /// A slice of the precomputed whole-tree postorder (subtrees are
    /// contiguous in it, ending at their root) — no allocation, no
    /// traversal.
    // lint: no_alloc
    #[inline]
    pub fn subtree_postorder(&self, node: NodeId) -> &[NodeId] {
        let end = self.postorder_pos[node.index()] as usize + 1;
        let start = end - self.subtree_size[node.index()] as usize;
        &self.postorder[start..end]
    }

    /// Postorder over the whole tree (children before parents); precomputed,
    /// returned as a slice of the arena.
    // lint: no_alloc
    #[inline]
    pub fn postorder(&self) -> &[NodeId] {
        &self.postorder
    }

    /// Position of `node` in the precomputed whole-tree [`Tree::postorder`].
    // lint: no_alloc
    #[inline]
    pub fn postorder_position(&self, node: NodeId) -> usize {
        self.postorder_pos[node.index()] as usize
    }

    /// Depth of `node` (the root has depth 0): a walk up the parents,
    /// O(depth). A caller that reads many depths computes them in one pass
    /// over the postorder instead, parents before children.
    // lint: no_alloc
    pub fn depth(&self, node: NodeId) -> usize {
        let mut depth = 0;
        let mut v = self.parent[node.index()];
        while v != NO_PARENT {
            depth += 1;
            v = self.parent[v as usize];
        }
        depth
    }

    /// Height of the tree: the maximum depth over all nodes, in one pass
    /// over the postorder from the root down, O(n).
    pub fn height(&self) -> usize {
        let mut depth = vec![0u32; self.len()];
        let mut height = 0;
        for &v in self.postorder.iter().rev() {
            let p = self.parent[v.index()];
            if p != NO_PARENT {
                let d = depth[p as usize] + 1;
                depth[v.index()] = d;
                height = height.max(d);
            }
        }
        height as usize
    }

    /// `true` iff all nodes have output size exactly 1 (a *homogeneous* tree
    /// in the sense of Section 4.2 of the paper).
    pub fn is_homogeneous(&self) -> bool {
        self.weights.iter().all(|&w| w == 1)
    }

    /// Adds a new node above `node`: the new node takes `node`'s place as a
    /// child of `node`'s parent (or becomes the root), and `node` becomes its
    /// only child. Returns the new node's id.
    ///
    /// This is the structural primitive behind node expansion
    /// (see [`crate::expand`]). Every array is patched in place (see the
    /// module docs): O(n − p) to shift the postorder positions after
    /// `node`'s position `p`, plus O(depth) of `node`.
    ///
    /// # Panics
    /// Panics if the parent's children weight overflows `u64`, which needs
    /// `weight` to exceed `node`'s weight (node expansion never does that).
    pub fn splice_above(&mut self, node: NodeId, weight: u64) -> NodeId {
        let new = NodeId::from_index(self.len());
        let i = node.index();
        let old_parent = self.parent[i];
        self.weights.push(weight);
        self.parent.push(old_parent);
        self.parent[i] = new.0;
        // The new node's child list is [node], appended at the arena tail.
        self.children_flat.push(node);
        self.child_start.push(
            u32::try_from(self.children_flat.len())
                // lint: allow(L001, children_flat holds at most one entry per u32-indexed node)
                .expect("child arena exceeds u32 offsets"),
        );
        self.children_weight.push(self.weights[i]);
        if old_parent == NO_PARENT {
            self.root = new;
        } else {
            let p = old_parent as usize;
            let range = self.child_range(NodeId(old_parent));
            let slot = self.children_flat[range.clone()]
                .iter()
                .position(|&c| c == node)
                // lint: allow(L001, parent/child links are a Tree construction invariant)
                .expect("parent/child links out of sync");
            self.children_flat[range.start + slot] = new;
            self.children_weight[p] = (self.children_weight[p] - self.weights[i])
                .checked_add(weight)
                // lint: allow(L001, documented panic: only a heavier replacement can overflow)
                .expect("children weight overflows u64");
        }

        // `node`'s subtree is contiguous and ends at `node`; the new node
        // closes the enlarged subtree right after it.
        let new_pos = self.postorder_pos[i] + 1;
        let end = new_pos as usize;
        self.postorder.insert(end, new);
        for &later in &self.postorder[end + 1..] {
            self.postorder_pos[later.index()] += 1;
        }
        self.postorder_pos.push(new_pos);

        // Every ancestor gains one node; the new node's subtree is `node`'s
        // plus itself.
        self.subtree_size.push(self.subtree_size[i] + 1);
        let mut ancestor = old_parent;
        while ancestor != NO_PARENT {
            self.subtree_size[ancestor as usize] += 1;
            ancestor = self.parent[ancestor as usize];
        }
        new
    }

    /// Validates the internal consistency of the tree (used in tests and by
    /// deserialization call sites), in O(n).
    pub fn validate(&self) -> Result<(), TreeError> {
        if self.is_empty() {
            return Err(TreeError::Empty);
        }
        let n = self.len();
        debug_assert_eq!(self.parent.len(), n);
        debug_assert_eq!(self.child_start.len(), n + 1);
        // listed[c]: c's parent lists it among its children. One pass over
        // the child lists, so no list is searched once per child.
        let mut listed = vec![false; n];
        for node in self.node_ids() {
            for &c in self.children(node) {
                if c.index() < n && self.parent(c) == Some(node) {
                    listed[c.index()] = true;
                }
            }
        }
        let mut seen_as_child = vec![false; n];
        for node in self.node_ids() {
            if let Some(p) = self.parent(node) {
                if p.index() >= n {
                    return Err(TreeError::UnknownNode(p));
                }
                if !listed[node.index()] {
                    return Err(TreeError::UnknownNode(node));
                }
            }
            for &c in self.children(node) {
                if c.index() >= n {
                    return Err(TreeError::UnknownNode(c));
                }
                if self.parent(c) != Some(node) {
                    return Err(TreeError::UnknownNode(c));
                }
                // A node listed twice (under one parent or several) would be
                // consumed twice by the simulator.
                if seen_as_child[c.index()] {
                    return Err(TreeError::DuplicateNode(c));
                }
                seen_as_child[c.index()] = true;
            }
        }
        if self.parent(self.root).is_some() {
            return Err(TreeError::NoRoot);
        }
        self.check_acyclic()
    }

    /// Every node must reach the root by following parent pointers: walk the
    /// children from the root and require full coverage (O(n), iterative).
    fn check_acyclic(&self) -> Result<(), TreeError> {
        let n = self.len();
        let mut reached = vec![false; n];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(node) = stack.pop() {
            if reached[node.index()] {
                continue;
            }
            reached[node.index()] = true;
            count += 1;
            stack.extend(self.children(node).iter().copied());
        }
        if count == n {
            Ok(())
        } else {
            let lowest = (0..n)
                .find(|&i| !reached[i])
                .map(NodeId::from_index)
                .unwrap_or(self.root);
            Err(TreeError::Cycle(lowest))
        }
    }
}

/// The root of a parent array over `n` nodes, checked in index order: the
/// first parent id at or past `n` is [`TreeError::UnknownNode`] and a
/// second root [`TreeError::MultipleRoots`]. `None` if no node is a root.
fn find_root(parents: &[u32], n: usize) -> Result<Option<NodeId>, TreeError> {
    let mut root = None;
    for (i, &p) in parents.iter().enumerate() {
        if p == NO_PARENT {
            match root {
                None => root = Some(NodeId::from_index(i)),
                Some(r) => return Err(TreeError::MultipleRoots(r, NodeId::from_index(i))),
            }
        } else if p as usize >= n {
            return Err(TreeError::UnknownNode(NodeId(p)));
        }
    }
    Ok(root)
}

/// The CSR child lists of a parent array (`NO_PARENT` marks the root) and
/// every node's children weight, by one counting sort on the parent: every
/// list holds its children in id order.
///
/// The fill meets the parents in child-id order, not in parent order, so it
/// does not stop at the first children sum that overflows `u64`: the last
/// value is the lowest parent whose sum overflows (whose entry then falls
/// short), or `NO_PARENT`.
fn child_lists(parent: &[u32], weights: &[u64]) -> (Vec<u32>, Vec<NodeId>, Vec<u64>, u32) {
    // Node p's child count goes to `child_start[p + 1]`. The prefix pass
    // turns it into p's first slot, the sort's cursor, which the fill
    // leaves at p's end: node p + 1's start.
    let mut child_start = vec![0u32; parent.len() + 1];
    for &p in parent {
        if p != NO_PARENT {
            child_start[p as usize + 1] += 1;
        }
    }
    let mut start = 0u32;
    for slot in &mut child_start[1..] {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut children_flat = vec![NodeId(0); start as usize];
    let mut children_weight = vec![0u64; parent.len()];
    let mut overflow = NO_PARENT;
    for (i, (&p, &w)) in parent.iter().zip(weights).enumerate() {
        if p != NO_PARENT {
            let cursor = &mut child_start[p as usize + 1];
            children_flat[*cursor as usize] = NodeId::from_index(i);
            *cursor += 1;
            let sum = &mut children_weight[p as usize];
            match sum.checked_add(w) {
                Some(s) => *sum = s,
                None => overflow = overflow.min(p),
            }
        }
    }
    (child_start, children_flat, children_weight, overflow)
}

/// Incremental builder for [`Tree`] values, over [`Tree::from_parent_ids`]
/// (which [`TreeBuilder::build`] hands its arrays to).
///
/// ```
/// use oocts_tree::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let root = b.add_root(4);
/// let left = b.add_child(root, 2);
/// let _leaf = b.add_child(left, 7);
/// let _right = b.add_child(root, 3);
/// let tree = b.build().unwrap();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.weight(root), 4);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TreeBuilder {
    weights: Vec<u64>,
    parents: Vec<u32>,
    /// The first node added under `NodeId(NO_PARENT)`, which names no node.
    stray: Option<usize>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the root node. Must be called exactly once.
    pub fn add_root(&mut self, weight: u64) -> NodeId {
        self.push(weight, NO_PARENT)
    }

    /// Adds a child of `parent` with the given output size.
    pub fn add_child(&mut self, parent: NodeId, weight: u64) -> NodeId {
        if parent.0 == NO_PARENT {
            self.stray = self.stray.or(Some(self.len()));
        }
        self.push(weight, parent.0)
    }

    fn push(&mut self, weight: u64, parent: u32) -> NodeId {
        let id = NodeId::from_index(self.weights.len());
        self.weights.push(weight);
        self.parents.push(parent);
        id
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// `true` if no node has been added yet.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Finalizes the frozen arena tree, with the errors of
    /// [`Tree::from_parents`].
    pub fn build(self) -> Result<Tree, TreeError> {
        Tree::build(self.weights, self.parents, self.stray)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        // root(5) with children a(3) and b(2); a has leaf c(4).
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        b.add_child(r, 2);
        b.build().unwrap()
    }

    /// `validate` marks the listed children in one pass: on a star it used
    /// to search the root's child list once per leaf, O(n²).
    #[test]
    fn validate_is_linear_on_a_wide_star() {
        let n = (1 << 17) + 1;
        let parents: Vec<Option<usize>> = (0..n).map(|i| (i > 0).then_some(0)).collect();
        let star = Tree::from_parents(&vec![1; n], &parents).unwrap();
        assert_eq!(star.children(star.root()).len(), n - 1);
        assert_eq!(star.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_corrupted_trees() {
        // The public constructors refuse these shapes, so corrupt the
        // private arena fields directly: validate() is the last line of
        // defense for future in-place mutation code.
        // sample(): children_flat = [1, 3, 2] with child_start = [0,2,3,3,3].

        // A two-cycle in the parent/children links: 0 <-> 1 (and node 2's
        // slot in 1's children overwritten by 0).
        let mut t = sample();
        t.parent[0] = 1;
        t.children_flat[2] = NodeId(0);
        assert!(matches!(
            t.validate(),
            Err(TreeError::NoRoot | TreeError::Cycle(_) | TreeError::UnknownNode(_))
        ));

        // The same node listed as a child twice (node 3's slot under the
        // root overwritten by a second 1).
        let mut t = sample();
        t.children_flat[1] = NodeId(1);
        assert!(matches!(
            t.validate(),
            Err(TreeError::DuplicateNode(NodeId(1)) | TreeError::UnknownNode(_))
        ));

        // A children list referencing a node outside the tree.
        let mut t = sample();
        t.children_flat[1] = NodeId(99);
        assert!(matches!(t.validate(), Err(TreeError::UnknownNode(_))));

        // A child whose parent link points elsewhere.
        let mut t = sample();
        t.parent[3] = 1;
        assert!(t.validate().is_err());

        // An empty tree.
        let t = Tree {
            weights: Vec::new(),
            parent: Vec::new(),
            child_start: vec![0],
            children_flat: Vec::new(),
            children_weight: Vec::new(),
            postorder: Vec::new(),
            postorder_pos: Vec::new(),
            subtree_size: Vec::new(),
            root: NodeId(0),
        };
        assert_eq!(t.validate(), Err(TreeError::Empty));
    }

    #[test]
    fn builder_and_accessors() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.weight(NodeId(0)), 5);
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(3)]);
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert!(t.is_leaf(NodeId(2)));
        assert!(!t.is_leaf(NodeId(0)));
        let leaves: Vec<NodeId> = t.node_ids().filter(|&v| t.is_leaf(v)).collect();
        assert_eq!(leaves, [NodeId(2), NodeId(3)]);
        assert_eq!(t.total_weight(), 14);
        assert_eq!(t.height(), 2);
        assert_eq!(t.depth(NodeId(2)), 2);
        t.validate().unwrap();
    }

    #[test]
    fn csr_layout_is_contiguous_and_consistent() {
        let t = sample();
        // children_flat concatenates the child lists in node-index order.
        assert_eq!(t.children_flat(), &[NodeId(1), NodeId(3), NodeId(2)]);
        assert_eq!(t.child_range(NodeId(0)), 0..2);
        assert_eq!(t.child_range(NodeId(1)), 2..3);
        assert_eq!(t.child_range(NodeId(2)), 3..3);
        // children() is exactly the child_range slice of children_flat.
        for n in t.node_ids() {
            assert_eq!(t.children(n), &t.children_flat()[t.child_range(n)]);
        }
        // Precomputed children weights match a recomputation.
        for n in t.node_ids() {
            let direct: u64 = t.children(n).iter().map(|&c| t.weight(c)).sum();
            assert_eq!(t.children_weight(n), direct);
        }
    }

    #[test]
    fn execution_weights() {
        let t = sample();
        // root: max(5, 3 + 2) = 5 ; a: max(3, 4) = 4 ; leaf c: 4 ; leaf b: 2.
        assert_eq!(t.execution_weight(NodeId(0)), 5);
        assert_eq!(t.execution_weight(NodeId(1)), 4);
        assert_eq!(t.execution_weight(NodeId(2)), 4);
        assert_eq!(t.execution_weight(NodeId(3)), 2);
        assert_eq!(t.min_feasible_memory(), 5);
    }

    #[test]
    fn postorder_is_topological() {
        let t = sample();
        let po = t.postorder();
        assert_eq!(po.len(), t.len());
        let pos: std::collections::HashMap<_, _> =
            po.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        for n in t.node_ids() {
            assert_eq!(pos[&n], t.postorder_position(n));
            if let Some(p) = t.parent(n) {
                assert!(pos[&n] < pos[&p]);
            }
        }
    }

    #[test]
    fn from_parents_detects_errors() {
        assert_eq!(Tree::from_parents(&[], &[]), Err(TreeError::Empty));
        assert!(matches!(
            Tree::from_parents(&[1, 1], &[None, None]),
            Err(TreeError::MultipleRoots(_, _))
        ));
        assert!(matches!(
            Tree::from_parents(&[1, 1], &[Some(1), Some(0)]),
            Err(TreeError::NoRoot) | Err(TreeError::Cycle(_))
        ));
        assert!(matches!(
            Tree::from_parents(&[1], &[Some(5)]),
            Err(TreeError::UnknownNode(_))
        ));
        // A cycle hanging off a valid rooted part: nodes 1 <-> 2 never reach
        // the root; the lowest-index cycle node is blamed.
        assert_eq!(
            Tree::from_parents(&[1, 1, 1], &[None, Some(2), Some(1)]),
            Err(TreeError::Cycle(NodeId(1)))
        );
    }

    #[test]
    fn from_parents_rejects_mismatched_lengths() {
        assert_eq!(
            Tree::from_parents(&[1, 2], &[None]),
            Err(TreeError::LengthMismatch {
                weights: 2,
                parents: 1,
            })
        );
        assert_eq!(
            Tree::from_parents(&[], &[None]),
            Err(TreeError::LengthMismatch {
                weights: 0,
                parents: 1,
            })
        );
    }

    /// A splitmix64 draw below `bound`.
    fn draw(state: &mut u64, bound: usize) -> usize {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }

    /// A generator's tree rebuilt as this crate's `Tree`. In unit tests the
    /// generators return the library build's `Tree`, a type that cannot be
    /// named here, hence a macro.
    macro_rules! local {
        ($tree:expr) => {{
            let t = $tree;
            let weights: Vec<u64> = t.node_ids().map(|v| t.weight(v)).collect();
            let parents: Vec<u32> = t
                .node_ids()
                .map(|v| t.parent(v).map_or(NO_PARENT, |p| p.0))
                .collect();
            Tree::from_parent_ids(weights, parents).unwrap()
        }};
    }

    /// Every node's depth, in one pass over the postorder from the root
    /// down (`Tree::depth` walks up the parents, O(depth) per call).
    fn depths(t: &Tree) -> Vec<usize> {
        let mut depth = vec![0; t.len()];
        for &v in t.postorder().iter().rev() {
            if let Some(p) = t.parent(v) {
                depth[v.index()] = depth[p.index()] + 1;
            }
        }
        depth
    }

    /// Checks the postorder copy of `t` node by node through the map from
    /// the copy's ids to `t`'s, and against `from_parent_ids` of its arrays.
    fn assert_renumbering_keeps(t: &Tree) {
        let copy = t.renumbered_in_postorder();
        let n = t.len();
        let (copy_depth, depth) = (depths(&copy), depths(t));
        // Node p of the copy is t.postorder()[p], children in order.
        let old = |p: NodeId| t.postorder()[p.index()];
        for p in copy.node_ids() {
            let o = old(p);
            assert_eq!(copy.weight(p), t.weight(o));
            assert_eq!(copy.parent(p).map(old), t.parent(o));
            assert_eq!(copy.children_weight(p), t.children_weight(o));
            assert_eq!(copy.subtree_size(p), t.subtree_size(o));
            assert_eq!(copy_depth[p.index()], depth[o.index()]);
            let kids: Vec<NodeId> = copy.children(p).iter().map(|&c| old(c)).collect();
            assert_eq!(kids, t.children(o));
        }
        assert!(copy
            .postorder()
            .iter()
            .enumerate()
            .all(|(p, n)| n.index() == p));
        assert_eq!(copy.root(), NodeId::from_index(n - 1));
        assert_eq!(copy.height(), t.height());
        assert_eq!(t.height(), depth.into_iter().max().unwrap());
        let rebuilt = Tree::from_parent_ids(copy.weights.clone(), copy.parent.clone());
        assert_eq!(rebuilt.unwrap(), copy);
        assert_eq!(copy.renumbered_in_postorder(), copy);
        copy.validate().unwrap();
    }

    #[test]
    fn renumbering_in_postorder_keeps_the_tree() {
        let mut spliced = sample();
        spliced.splice_above(NodeId(3), 1);
        spliced.splice_above(spliced.root(), 2);
        assert_renumbering_keeps(&sample());
        assert_renumbering_keeps(&spliced);

        // A star with 2^12 leaves, a chain of 10^5 nodes (root 0, so its
        // postorder reverses the ids) and a Rémy tree at the engine's copy
        // gate.
        let star = (0..=1 << 12)
            .map(|i| (i > 0).then_some(0))
            .collect::<Vec<_>>();
        assert_renumbering_keeps(&Tree::from_parents(&vec![3; star.len()], &star).unwrap());
        let chain = (0..100_000)
            .map(|i: usize| i.checked_sub(1))
            .collect::<Vec<_>>();
        let weights: Vec<u64> = (0..chain.len() as u64).map(|i| 1 + i % 5).collect();
        assert_renumbering_keeps(&Tree::from_parents(&weights, &chain).unwrap());
        assert_renumbering_keeps(&local!(oocts_gen::random_binary_tree(1 << 15, 1..=100, 7)));

        // Random splices on Rémy and uniform-attachment trees. A splice puts
        // the new, highest id in its node's child slot, so child lists leave
        // id order; the copy must keep their stored order.
        let mut state = 0x0c0f_fee5_u64;
        let mut out_of_order = 0;
        for round in 0..40u64 {
            let n = 1 + draw(&mut state, 400);
            let mut t = if round % 2 == 0 {
                local!(oocts_gen::random_binary_tree(n, 1..=9, round))
            } else {
                local!(oocts_gen::uniform_attachment_tree(n, 1..=9, round))
            };
            for _ in 0..draw(&mut state, 60) {
                let target = NodeId::from_index(draw(&mut state, t.len()));
                let weight = t.weight(target) - draw(&mut state, t.weight(target) as usize) as u64;
                t.splice_above(target, weight);
            }
            if t.node_ids()
                .any(|v| t.children(v).windows(2).any(|w| w[0] > w[1]))
            {
                out_of_order += 1;
            }
            assert_renumbering_keeps(&t);
        }
        assert!(out_of_order >= 10, "{out_of_order} rounds out of id order");
    }

    #[test]
    fn splice_above_keeps_structure() {
        let mut t = sample();
        let a = NodeId(1);
        let new = t.splice_above(a, 99);
        t.validate().unwrap();
        assert_eq!(t.weight(new), 99);
        assert_eq!(t.parent(a), Some(new));
        assert_eq!(t.parent(new), Some(NodeId(0)));
        assert!(t.children(NodeId(0)).contains(&new));
        assert!(!t.children(NodeId(0)).contains(&a));
        // The new node keeps a's old slot, so sibling order is preserved.
        assert_eq!(t.children(NodeId(0)), &[new, NodeId(3)]);
        // Derived arrays were patched: the subtree below `new` grew by one.
        assert_eq!(t.subtree_size(new), 3);
        assert_eq!(t.depth(NodeId(2)), 3);
        assert_eq!(t.height(), 3);
        assert_eq!(t.children_weight(NodeId(0)), 99 + 2);
    }

    #[test]
    fn splice_above_root_changes_root() {
        let mut t = sample();
        let old_root = t.root();
        let new = t.splice_above(old_root, 1);
        t.validate().unwrap();
        assert_eq!(t.root(), new);
        assert_eq!(t.parent(old_root), Some(new));
        assert_eq!(t.postorder().last(), Some(&new));
    }

    /// Splices above random nodes — the root, nodes inserted just before,
    /// anything — and checks after every splice that the in-place patch
    /// equals a from-scratch rebuild of the derived arrays.
    #[test]
    fn random_splices_match_a_full_rebuild() {
        let mut state = 0x5eed_u64;
        let mut next = |bound: usize| draw(&mut state, bound);
        for round in 0..40 {
            let n = 1 + next(30);
            let weights: Vec<u64> = (0..n).map(|_| 1 + next(9) as u64).collect();
            let parents: Vec<Option<usize>> = (0..n)
                .map(|i| if i == 0 { None } else { Some(next(i)) })
                .collect();
            let mut t = Tree::from_parents(&weights, &parents).unwrap();
            let mut last = t.root();
            for _ in 0..25 {
                let target = match next(3) {
                    0 => t.root(),
                    1 => last,
                    _ => NodeId::from_index(next(t.len())),
                };
                let weight = t.weight(target) - next(t.weight(target) as usize + 1) as u64;
                last = t.splice_above(target, weight);
                // A splice leaves child lists out of id order, so the
                // children weights are recounted from the spliced lists
                // rather than by the constructor's counting sort.
                let mut rebuilt = t.clone();
                rebuilt.children_weight = rebuilt
                    .node_ids()
                    .map(|v| rebuilt.children(v).iter().map(|&c| rebuilt.weight(c)).sum())
                    .collect();
                rebuilt.recompute_derived().unwrap();
                assert_eq!(t, rebuilt, "round {round}: splice above {target:?}");
                t.validate().unwrap();
            }
        }
    }

    #[test]
    fn overflowing_children_weights_are_rejected() {
        // A root with two children of weight 2^63: their sum is 2^64.
        let big = 1u64 << 63;
        assert_eq!(
            Tree::from_parents(&[1, big, big], &[None, Some(0), Some(0)]),
            Err(TreeError::WeightOverflow(NodeId(0)))
        );
        let mut b = TreeBuilder::new();
        let r = b.add_root(1);
        let a = b.add_child(r, 5);
        b.add_child(a, u64::MAX);
        b.add_child(a, 1);
        assert_eq!(b.build(), Err(TreeError::WeightOverflow(a)));
    }

    #[test]
    fn overflowing_total_weight_is_rejected() {
        // Every children sum fits, but Σw reaches 2^64 at node 1.
        let big = 1u64 << 63;
        assert_eq!(
            Tree::from_parents(&[big, big, 1], &[None, Some(0), Some(1)]),
            Err(TreeError::WeightOverflow(NodeId(1)))
        );
        // The largest summable tree still builds.
        let t = Tree::from_parents(&[big, big - 1], &[None, Some(0)]).unwrap();
        assert_eq!(t.total_weight(), u64::MAX);
    }

    /// The counting sort meets the parents in child-id order: node 2's
    /// children (ids 3 and 4) overflow before node 1's (ids 5 and 6), and
    /// node 1, the lower parent, is the one reported.
    #[test]
    fn the_lowest_overflowing_parent_is_reported() {
        let big = 1u64 << 63;
        let weights = [1, 1, 1, big, big, big, big];
        let parents = [None, Some(0), Some(0), Some(2), Some(2), Some(1), Some(1)];
        let expected = Err(TreeError::WeightOverflow(NodeId(1)));
        assert_eq!(Tree::from_parents(&weights, &parents), expected);
        let ids = vec![NO_PARENT, 0, 0, 2, 2, 1, 1];
        assert_eq!(Tree::from_parent_ids(weights.to_vec(), ids), expected);
    }

    /// Unknown parents and second roots are reported in index order,
    /// whichever comes first, also for parents no `u32` id can hold.
    #[test]
    fn unknown_parents_and_second_roots_are_reported_in_index_order() {
        let far = 1usize << 32;
        for bad in [5, u32::MAX as usize, far, usize::MAX] {
            assert_eq!(
                Tree::from_parents(&[1, 1, 1], &[None, None, Some(bad)]),
                Err(TreeError::MultipleRoots(NodeId(0), NodeId(1))),
                "second root before parent {bad}"
            );
            // A length mismatch comes before every parent check.
            assert_eq!(
                Tree::from_parents(&[1, 1], &[None, Some(bad), None]),
                Err(TreeError::LengthMismatch {
                    weights: 2,
                    parents: 3,
                })
            );
        }
        let reversed = |bad: usize| Tree::from_parents(&[1, 1, 1], &[None, Some(bad), None]);
        assert_eq!(reversed(5), Err(TreeError::UnknownNode(NodeId(5))));
        for bad in [u32::MAX as usize, far] {
            assert_eq!(reversed(bad), Err(TreeError::ParentOutOfRange(NodeId(1))));
        }
        assert_eq!(
            Tree::from_parent_ids(vec![1, 1, 1], vec![NO_PARENT, NO_PARENT, 5]),
            Err(TreeError::MultipleRoots(NodeId(0), NodeId(1)))
        );
        assert_eq!(
            Tree::from_parent_ids(vec![1, 1, 1], vec![NO_PARENT, 5, NO_PARENT]),
            Err(TreeError::UnknownNode(NodeId(5)))
        );
    }

    /// A parent index of 2^32 or more used to panic while its
    /// `UnknownNode` error was built.
    #[test]
    fn a_parent_index_past_the_node_id_range_is_an_error() {
        for parent in [u32::MAX as usize, 1 << 32, usize::MAX] {
            assert_eq!(
                Tree::from_parents(&[1, 1], &[None, Some(parent)]),
                Err(TreeError::ParentOutOfRange(NodeId(1)))
            );
        }
        // The builder's parent array cannot hold `NodeId(NO_PARENT)`
        // either; it is reported after the faults of lower nodes.
        let mut b = TreeBuilder::new();
        b.add_child(NodeId(NO_PARENT), 1);
        b.add_root(1);
        assert_eq!(b.build(), Err(TreeError::ParentOutOfRange(NodeId(0))));
        let mut b = TreeBuilder::new();
        b.add_root(1);
        b.add_root(1);
        b.add_child(NodeId(NO_PARENT), 1);
        assert_eq!(
            b.build(),
            Err(TreeError::MultipleRoots(NodeId(0), NodeId(1)))
        );
    }

    /// `from_parents` and the owning constructor agree, trees and errors,
    /// on every fault above and on random small arrays that mix them.
    #[test]
    fn the_owning_constructor_returns_what_from_parents_returns() {
        let ids = |parents: &[Option<usize>]| -> Vec<u32> {
            parents
                .iter()
                .map(|p| p.map_or(NO_PARENT, |p| u32::try_from(p).unwrap()))
                .collect()
        };
        let big = 1u64 << 63;
        let cases: [(&[u64], &[Option<usize>]); 10] = [
            (&[], &[]),
            (&[1, 2], &[None]),
            (&[1, 1], &[None, None]),
            (&[1, 1], &[Some(1), Some(0)]),
            (&[1], &[Some(5)]),
            (&[1, 1, 1], &[None, Some(2), Some(1)]),
            (&[1, big, big], &[None, Some(0), Some(0)]),
            (&[big, big, 1], &[None, Some(0), Some(1)]),
            (&[5, 3, 4, 2], &[None, Some(0), Some(1), Some(0)]),
            (&[1, 2, 3], &[Some(2), Some(2), None]),
        ];
        for (weights, parents) in cases {
            assert_eq!(
                Tree::from_parent_ids(weights.to_vec(), ids(parents)),
                Tree::from_parents(weights, parents),
                "{weights:?} {parents:?}"
            );
        }
        let mut state = 0xfa17_u64;
        let mut faults = 0;
        for _ in 0..2000 {
            let n = draw(&mut state, 8);
            let weights: Vec<u64> = (0..n)
                .map(|_| match draw(&mut state, 4) {
                    0 => big + draw(&mut state, 3) as u64,
                    _ => 1 + draw(&mut state, 9) as u64,
                })
                .collect();
            let parents: Vec<Option<usize>> = (0..n)
                .map(|_| match draw(&mut state, n + 3) {
                    0 => None,
                    p => Some(p - 1),
                })
                .collect();
            let built = Tree::from_parents(&weights, &parents);
            faults += usize::from(built.is_err());
            assert_eq!(
                Tree::from_parent_ids(weights.clone(), ids(&parents)),
                built,
                "{weights:?} {parents:?}"
            );
        }
        assert!(faults > 1000 && faults < 2000, "{faults} faults");
    }

    #[test]
    fn homogeneous_detection() {
        let t = sample();
        assert!(!t.is_homogeneous());
        let h = Tree::from_parents(&[1, 1, 1], &[None, Some(0), Some(0)]).unwrap();
        assert!(h.is_homogeneous());
    }

    #[test]
    fn subtree_queries() {
        let t = sample();
        assert_eq!(t.subtree_size(NodeId(1)), 2);
        assert_eq!(t.subtree_size(t.root()), 4);
        let po = t.subtree_postorder(NodeId(1));
        assert_eq!(po, &[NodeId(2), NodeId(1)]);
        // The whole-tree postorder is itself the root's subtree slice.
        assert_eq!(t.subtree_postorder(t.root()), t.postorder());
    }

    #[test]
    fn deep_chain_builds_without_quadratic_blowup() {
        // A 200k-deep chain: O(n) construction, and the old walk-to-root
        // acyclicity check would take O(n^2) here.
        let n = 200_000usize;
        let weights = vec![1u64; n];
        let parents: Vec<Option<usize>> = (0..n)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        let t = Tree::from_parents(&weights, &parents).unwrap();
        assert_eq!(t.height(), n - 1);
        assert_eq!(t.depth(NodeId::from_index(n - 1)), n - 1);
        assert_eq!(t.subtree_size(t.root()), n);
        assert_eq!(t.postorder().first(), Some(&NodeId::from_index(n - 1)));
        t.validate().unwrap();
    }
}
