//! OptMinMem: Liu's optimal algorithm for peak-memory minimization.
//!
//! The algorithm processes the tree bottom-up. The optimal traversal of each
//! subtree is kept in its canonical hill–valley form (see
//! [`crate::segments`]); at an inner node the children's segment sequences
//! are merged in non-increasing `hill − valley` order (Liu's composition
//! theorem, restated as Theorem 3 in the paper), the node itself is executed
//! last, and the combined profile is re-decomposed.
//!
//! [`PeakCache`] keeps the same per-node sequences without their task lists,
//! so a caller that changes a tree locally can re-derive the optimal peak of
//! every affected subtree from the unaffected children's sequences.
//!
//! Correctness is property-tested against an exhaustive search over all
//! topological orders for small random trees (see `tests/` and the
//! `bruteforce` module).

use oocts_tree::{NodeId, Schedule, Tree};

use crate::segments::{compose_into, join_tasks, Atom, Segment};

/// Reusable working buffers for OptMinMem.
///
/// One Liu run builds and tears down a segment list per node; callers that
/// solve repeatedly (the RecExpand expansion loop re-solves a subtree before
/// every node expansion) keep a single `ScratchSpace` so every `Vec` —
/// per-node results, the composition staging areas, and the pools of
/// emptied segment/task vectors — is recycled across runs.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    /// Canonical segment sequence per node, indexed by node id. Child slots
    /// are drained (`mem::take`) when their parent combines them.
    results: Vec<Vec<Segment>>,
    /// The children's sequences detached for merging at the current node.
    child_bufs: Vec<Vec<Segment>>,
    /// Absolute memory profile of the current node before re-decomposition.
    atoms: Vec<Atom>,
    /// Emptied segment vectors awaiting reuse.
    seg_pool: Vec<Vec<Segment>>,
    /// Emptied task vectors awaiting reuse.
    task_pool: Vec<Vec<NodeId>>,
}

impl ScratchSpace {
    /// Creates an empty scratch space; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes a peak-memory-optimal traversal of the whole tree.
///
/// Returns the schedule and its peak memory.
pub fn opt_min_mem(tree: &Tree) -> (Schedule, u64) {
    opt_min_mem_subtree(tree, tree.root())
}

/// Computes a peak-memory-optimal traversal of the subtree rooted at `root`,
/// as if it were an independent tree (no other data resident).
///
/// Returns the schedule (covering exactly the subtree) and its peak memory.
pub fn opt_min_mem_subtree(tree: &Tree, root: NodeId) -> (Schedule, u64) {
    let mut scratch = ScratchSpace::new();
    opt_min_mem_subtree_with(tree, root, &mut scratch)
}

/// Scratch-reusing variant of [`opt_min_mem_subtree`]: repeated solves
/// recycle all internal buffers through `scratch`.
pub fn opt_min_mem_subtree_with(
    tree: &Tree,
    root: NodeId,
    scratch: &mut ScratchSpace,
) -> (Schedule, u64) {
    let mut segments = optimal_segments_with(tree, root, scratch);
    let peak = segments.iter().map(|s| s.hill).max().unwrap_or(0);
    // The global peak is attained in the first segment (hills are
    // non-increasing and the first segment starts from an empty memory).
    debug_assert_eq!(peak, segments.first().map(|s| s.hill).unwrap_or(0));
    let mut order = Vec::with_capacity(tree.subtree_size(root));
    for seg in segments.iter_mut() {
        let mut tasks = std::mem::take(&mut seg.tasks);
        order.append(&mut tasks);
        scratch.task_pool.push(tasks);
    }
    segments.clear();
    scratch.seg_pool.push(segments);
    (Schedule::new(order), peak)
}

/// Convenience wrapper returning only the optimal peak memory
/// (`Peak_incore` in the paper's Section 6.1).
pub fn opt_min_mem_peak(tree: &Tree) -> u64 {
    opt_min_mem(tree).1
}

/// Computes the canonical hill–valley representation of an optimal traversal
/// of the subtree rooted at `root`.
pub fn optimal_segments(tree: &Tree, root: NodeId) -> Vec<Segment> {
    let mut scratch = ScratchSpace::new();
    optimal_segments_with(tree, root, &mut scratch)
}

/// Scratch-reusing variant of [`optimal_segments`]: the bottom-up inner loop
/// of Liu's algorithm, allocation-free once `scratch` has warmed up.
// lint: no_alloc
pub fn optimal_segments_with(
    tree: &Tree,
    root: NodeId,
    scratch: &mut ScratchSpace,
) -> Vec<Segment> {
    // Bottom-up over the precomputed postorder slice so arbitrarily deep
    // trees do not overflow the call stack.
    let order = tree.subtree_postorder(root);
    // The postorder guarantees children are processed before their parent;
    // taking a child's slot leaves an empty Vec behind, which is never read
    // again, so no Option wrapper is needed.
    // lint: allow(L003, one-time scratch growth to the tree size: amortized across runs)
    scratch.results.resize_with(tree.len(), Vec::new);
    for &node in order {
        // Detach the children's canonical sequences for the composition.
        scratch.child_bufs.clear();
        for &c in tree.children(node) {
            let child_segs = std::mem::take(&mut scratch.results[c.index()]);
            scratch.child_bufs.push(child_segs); // lint: allow(L003, staging area reuses its capacity across nodes: amortized)
        }
        let mut tasks = scratch.task_pool.pop().unwrap_or_default();
        tasks.push(node); // lint: allow(L003, single push into a pooled task vector: amortized)
        let mut segs = scratch.seg_pool.pop().unwrap_or_default();
        let task_pool = &mut scratch.task_pool;
        compose_into(
            &mut scratch.child_bufs,
            tree.weight(node),
            tree.children_weight(node),
            tasks,
            &mut scratch.atoms,
            &mut segs,
            |segment| join_tasks(segment, task_pool),
        );
        for buf in scratch.child_bufs.drain(..) {
            debug_assert!(buf.is_empty());
            scratch.seg_pool.push(buf); // lint: allow(L003, recycling an emptied vector into the pool: amortized)
        }
        scratch.results[node.index()] = segs;
    }
    std::mem::take(&mut scratch.results[root.index()])
}

/// Liu's canonical hill–valley sequence of every subtree, kept without task
/// lists so that it can be maintained node by node.
///
/// [`PeakCache::update`] recomposes one node from its children's cached
/// sequences with the same composition step as [`optimal_segments_with`]
/// and returns the node's optimal peak. Updating every node bottom-up costs
/// one Liu pass and yields the optimal peak of every subtree; after a local
/// change to the tree (a node expansion), only the changed nodes and their
/// ancestors need updating, children first.
///
/// The sequences sit back to back in one arena, so a pass allocates nothing
/// per node.
#[derive(Debug, Default)]
pub struct PeakCache {
    /// Every node's canonical (hill, valley) sequence, back to back.
    arena: Vec<Segment<()>>,
    /// Start and length of each node's sequence in `arena`, by node id.
    spans: Vec<(usize, usize)>,
    /// Arena entries that no span covers any more.
    dead: usize,
    /// Copies of the current node's children's sequences, drained by the
    /// composition.
    child_bufs: Vec<Vec<Segment<()>>>,
    /// Absolute memory profile of the current node.
    atoms: Vec<Atom<()>>,
    /// The current node's new sequence.
    out: Vec<Segment<()>>,
}

impl PeakCache {
    /// Creates an empty cache; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomposes `node`'s sequence from its children's cached sequences,
    /// which must be up to date, and returns the optimal peak of the
    /// subtree rooted at `node`.
    // lint: no_alloc
    pub fn update(&mut self, tree: &Tree, node: NodeId) -> u64 {
        // lint: allow(L003, grows with the tree, once per inserted node: amortized)
        self.spans.resize(tree.len(), (0, 0));
        let children = tree.children(node);
        if self.child_bufs.len() < children.len() {
            // lint: allow(L003, staging area grows to the largest arity once: amortized)
            self.child_bufs.resize_with(children.len(), Vec::new);
        }
        for (buf, &c) in self.child_bufs.iter_mut().zip(children) {
            let (start, len) = self.spans[c.index()];
            buf.clear();
            buf.extend_from_slice(&self.arena[start..start + len]);
        }
        compose_into(
            &mut self.child_bufs[..children.len()],
            tree.weight(node),
            tree.children_weight(node),
            (),
            &mut self.atoms,
            &mut self.out,
            |_| (),
        );
        self.store(node);
        self.peak(node)
    }

    /// Makes the freshly composed sequence `node`'s, appended at the end of
    /// the arena; its old span dies. The arena is compacted whenever dead
    /// entries make up more than half of it.
    // lint: no_alloc
    fn store(&mut self, node: NodeId) {
        self.dead += self.spans[node.index()].1;
        self.spans[node.index()] = (self.arena.len(), self.out.len());
        self.arena.extend_from_slice(&self.out);
        if self.dead > self.arena.len() / 2 {
            let mut live = Vec::with_capacity(self.arena.len() - self.dead); // lint: allow(L003, compaction after half the arena died: amortized)
            for span in &mut self.spans {
                let (start, len) = *span;
                *span = (live.len(), len);
                live.extend_from_slice(&self.arena[start..start + len]);
            }
            self.arena = live;
            self.dead = 0;
        }
    }

    /// The optimal peak of the subtree rooted at `node` as of its last
    /// [`PeakCache::update`] (0 if it was never updated): the first hill of
    /// its canonical sequence.
    // lint: no_alloc
    pub fn peak(&self, node: NodeId) -> u64 {
        match self.spans.get(node.index()) {
            Some(&(start, len)) if len > 0 => self.arena[start].hill,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::{peak_memory, TreeBuilder};

    #[test]
    fn singleton_tree() {
        let t = Tree::singleton(7);
        let (s, peak) = opt_min_mem(&t);
        assert_eq!(peak, 7);
        assert_eq!(s.len(), 1);
        assert_eq!(peak_memory(&t, &s).unwrap(), 7);
    }

    #[test]
    fn chain_peak_is_max_edge() {
        // Chain root(1) <- a(5) <- b(3) <- c(4): peak = max over nodes of
        // max(w_i, w_child) = 5 (executing a with b... let's check: execute
        // c: 4; b: max(3,4)=4; a: max(5,3)=5; root: max(1,5)=5.
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(1);
        let a = bld.add_child(r, 5);
        let b = bld.add_child(a, 3);
        bld.add_child(b, 4);
        let t = bld.build().unwrap();
        let (s, peak) = opt_min_mem(&t);
        assert_eq!(peak, 5);
        assert_eq!(peak_memory(&t, &s).unwrap(), 5);
        s.validate(&t).unwrap();
    }

    #[test]
    fn reported_peak_matches_simulation() {
        // Figure 6's tree from the paper (left diagram).
        let t = fig6_tree();
        let (s, peak) = opt_min_mem(&t);
        s.validate(&t).unwrap();
        assert_eq!(peak_memory(&t, &s).unwrap(), peak);
    }

    /// The tree of Appendix A, Figure 6: the optimal peak memory is 12.
    fn fig6_tree() -> Tree {
        // Left branch: root <- 4 <- 8 <- 2(a) <- 9 ; right branch:
        // root <- 6 <- 4(b) <- 10. Node "root" has weight... the figure
        // shows root at top; weights along left chain (top to bottom):
        // 4, 8, 2, 9 and right chain: 6, 4, 10. Root weight is not shown;
        // use 1.
        let mut b = TreeBuilder::new();
        let root = b.add_root(1);
        let l1 = b.add_child(root, 4);
        let l2 = b.add_child(l1, 8);
        let l3 = b.add_child(l2, 2);
        b.add_child(l3, 9);
        let r1 = b.add_child(root, 6);
        let r2 = b.add_child(r1, 4);
        b.add_child(r2, 10);
        b.build().unwrap()
    }

    #[test]
    fn fig6_opt_min_mem_peak_is_12() {
        // The paper (Appendix A) states that OptMinMem reaches a peak of 12
        // on this instance by interleaving the two branches.
        let t = fig6_tree();
        let (_, peak) = opt_min_mem(&t);
        assert_eq!(peak, 12);
    }

    #[test]
    fn subtree_optimum_is_local() {
        let t = fig6_tree();
        // Subtree rooted at the left-branch node of weight 8 (id 2): chain
        // 8 <- 2 <- 9 → peak = max(9, max(2,9), max(8,2)) = 9.
        let (s, peak) = opt_min_mem_subtree(&t, NodeId(2));
        assert_eq!(peak, 9);
        assert_eq!(s.len(), 3);
        s.validate(&t).unwrap();
    }

    #[test]
    fn peak_cache_matches_every_subtree_solve() {
        for t in [fig6_tree(), fig2b_tree()] {
            let mut cache = PeakCache::new();
            for &v in t.postorder() {
                let peak = cache.update(&t, v);
                assert_eq!(peak, opt_min_mem_subtree(&t, v).1);
            }
            for v in t.node_ids() {
                assert_eq!(cache.peak(v), opt_min_mem_subtree(&t, v).1);
            }
        }
    }

    /// Re-weights random nodes of a chain with long canonical sequences and
    /// updates each one's ancestors: the re-stored sequences force
    /// compactions, and every cached peak stays that of a fresh solve.
    #[test]
    fn peak_cache_follows_local_changes() {
        // From the leaf up, heavy weights decrease and light ones increase:
        // every heavy/light pair is one segment.
        let n = 40usize;
        let weights: Vec<u64> = (0..n)
            .map(|i| {
                let j = (n - 1 - i) as u64;
                if j.is_multiple_of(2) {
                    200 - j
                } else {
                    1 + j
                }
            })
            .collect();
        let parents: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(1)).collect();
        let mut t = Tree::from_parents(&weights, &parents).unwrap();
        let mut cache = PeakCache::new();
        for &v in t.postorder() {
            cache.update(&t, v);
        }
        assert!(cache.arena.len() > n, "the chain's sequences are long");
        let mut state = 7u64;
        let mut compacted = false;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let node = NodeId::from_index((state >> 33) as usize % n);
            t.set_weight(node, 1 + (state >> 13) % 200);
            let before = cache.arena.len();
            let mut v = Some(node);
            while let Some(u) = v {
                cache.update(&t, u);
                v = t.parent(u);
            }
            compacted |= cache.arena.len() < before;
            let live: usize = cache.spans.iter().map(|&(_, len)| len).sum();
            assert_eq!(
                cache.arena.len(),
                live + cache.dead,
                "dead entries counted exactly"
            );
            assert!(cache.dead <= cache.arena.len() / 2);
            for u in t.node_ids() {
                assert_eq!(cache.peak(u), opt_min_mem_subtree(&t, u).1);
            }
        }
        assert!(compacted, "some update compacted the arena");
    }

    #[test]
    fn interleaving_beats_postorder_when_useful() {
        // Classic example where any postorder is worse than the optimal
        // traversal: two "heavy leaf, light residue" branches.
        // root(1) with two identical chains: x(1) <- y(10).
        // Postorder peak: process one chain (peak 10, residue 1), then the
        // other (10 + 1 = 11). Optimal cannot do better here (11 vs 11)...
        // Use the paper's Figure 2(b) instead, where OptMinMem reaches 8
        // while the best postorder reaches 9.
        let t = fig2b_tree();
        let (s, peak) = opt_min_mem(&t);
        s.validate(&t).unwrap();
        assert_eq!(peak, 8);
        assert_eq!(peak_memory(&t, &s).unwrap(), 8);
    }

    /// Figure 2(b): root with two chains of weights (from root down)
    /// 3, 5, 2, 6 and 3, 5, 2, 6 — wait, the figure labels are
    /// (3,5,2,6) on the left chain and (3,5,2,6) on the right; node labels
    /// inside give weights 3,5,2,6 / 3,5,2,6. See `oocts-gen` for the exact
    /// instance; here we rebuild it locally to keep the crate dependency-free.
    fn fig2b_tree() -> Tree {
        // Weights inside nodes, left chain top→bottom: 3, 5, 2, 6;
        // right chain: 3, 5, 2, 6. Root weight from figure: root node shown
        // without weight label is the sink; we follow the oocts-gen
        // construction: root(1) with two chains [3,5,2,6].
        let mut b = TreeBuilder::new();
        let root = b.add_root(1);
        for _ in 0..2 {
            let mut parent = root;
            for &w in &[3u64, 5, 2, 6] {
                parent = b.add_child(parent, w);
            }
        }
        b.build().unwrap()
    }
}
