//! OptMinMem: Liu's optimal algorithm for peak-memory minimization.
//!
//! The algorithm processes the tree bottom-up. The optimal traversal of each
//! subtree is kept in its canonical hill–valley form (see
//! [`crate::segments`]); at an inner node the children's segment sequences
//! are merged in non-increasing `hill − valley` order (Liu's composition
//! theorem, restated as Theorem 3 in the paper), the node itself is executed
//! last, and the combined profile is cut canonically again.
//!
//! [`PeakCache`] is the one implementation: it keeps every node's sequence,
//! with the tasks of each segment linked through one per-node `next` array.
//! OptMinMem is one cache pass over the subtree (each sequence stored over
//! its children's, which nothing reads again) plus a walk of the root's
//! lists; a caller that changes a tree locally re-derives the optimal peak
//! and traversal of every affected subtree from the unaffected children's
//! sequences.
//!
//! Correctness is property-tested against an exhaustive search over all
//! topological orders for small random trees (see `tests/` and the
//! `bruteforce` module), and against the task-list composition this cache
//! replaced.

use oocts_tree::{NodeId, Schedule, Tree};

use crate::segments::{cut, pick_next, Segment};

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
    let cache = PeakCache::solved(tree, root);
    let mut order = Vec::with_capacity(tree.subtree_size(root));
    cache.schedule_into(tree, root, &mut order);
    (Schedule::new(order), cache.peak(root))
}

/// Convenience wrapper returning only the optimal peak memory
/// (`Peak_incore` in the paper's Section 6.1): the cache pass alone.
pub fn opt_min_mem_peak(tree: &Tree) -> u64 {
    PeakCache::solved(tree, tree.root()).peak(tree.root())
}

/// Liu's canonical hill–valley sequence of every subtree, maintained node by
/// node, with the optimal traversal of each subtree readable from it.
///
/// [`PeakCache::update`] recomposes one node from its children's cached
/// sequences and returns the node's optimal peak; [`PeakCache::schedule_into`]
/// lists the node's optimal traversal. Updating every node bottom-up costs
/// one Liu pass and yields every subtree's optimum; after a local change to
/// the tree (a node expansion), only the changed nodes and their ancestors
/// need updating, children first.
///
/// The sequences sit back to back in one arena, so a pass allocates nothing
/// per node; a re-stored sequence is appended and the arena is compacted
/// once half of it is dead. A segment names only the first and last task of
/// its run, the rest being linked through `next`. Joining two runs rewrites
/// `next` of the first run's tail, and a tail of a node's segment is a tail
/// in every sequence below it down to its own node (the node runs last in
/// its own sequence). So a composition only rewrites links that are no
/// sequence's interior below it, and every sequence whose subtree did not
/// change since it was stored keeps valid lists. Memory is the total length
/// of all sequences: one segment per node at least, and at most the sum of
/// the subtree sizes. (The one-shot [`opt_min_mem`] keeps only the
/// sequences still waiting for their parent.)
#[derive(Debug, Default)]
pub struct PeakCache {
    /// Every node's canonical sequence (relative hills and valleys), back to
    /// back.
    arena: Vec<Segment>,
    /// Start and length of each node's sequence in `arena`, by node id.
    spans: Vec<(usize, usize)>,
    /// Arena entries that no span covers any more.
    dead: usize,
    /// The task after each node within its segment's run.
    next: Vec<NodeId>,
    /// The unread range of each child's sequence during a merge.
    cursors: Vec<(usize, usize)>,
    /// The one-shot pass's copy of the children's sequences of the node it
    /// composes, whose sequence overwrites them.
    staging: Vec<Segment>,
}

impl PeakCache {
    /// Creates an empty cache; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache composed at every node of `root`'s subtree, bottom-up, for
    /// reading `root` only: nothing reads a child's sequence once its parent
    /// is composed, so each node's sequence is composed over its children's,
    /// which in postorder are the last ones stored. The arena then holds the
    /// pending sequences only, not every node's. The other nodes' spans are
    /// left dangling; the task links stay valid.
    fn solved(tree: &Tree, root: NodeId) -> Self {
        let mut cache = PeakCache {
            spans: vec![(0, 0); tree.len()],
            next: vec![root; tree.len()],
            ..PeakCache::default()
        };
        for &node in tree.subtree_postorder(root) {
            let floor = match tree.children(node).first() {
                Some(c) => cache.spans[c.index()].0,
                None => cache.arena.len(),
            };
            cache.compose(tree, node, floor);
            cache.spans[node.index()] = (floor, cache.arena.len() - floor);
        }
        cache
    }

    /// Recomposes `node`'s sequence from its children's cached sequences,
    /// which must be up to date, and returns the optimal peak of the
    /// subtree rooted at `node`. The new sequence is appended to the arena.
    // lint: no_alloc
    pub fn update(&mut self, tree: &Tree, node: NodeId) -> u64 {
        // lint: allow(L003, grows with the tree, once per inserted node: amortized)
        self.spans.resize(tree.len(), (0, 0));
        // lint: allow(L003, grows with the tree, once per inserted node: amortized)
        self.next.resize(tree.len(), node);
        let floor = self.arena.len();
        self.compose(tree, node, floor);
        self.dead += self.spans[node.index()].1;
        self.spans[node.index()] = (floor, self.arena.len() - floor);
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
        self.peak(node)
    }

    /// Writes `node`'s canonical sequence at `arena[floor..]`: the
    /// children's segments merged in Liu's order and cut canonically on the
    /// arena as they come, the node's own run last. Above `floor` the arena
    /// holds either nothing ([`PeakCache::update`], which reads the
    /// children at their spans) or exactly the children's sequences, in
    /// child order (the one-shot pass, whose result overwrites them).
    ///
    /// A single child's sequence is the merge as it stands: `update` copies
    /// it up, and the one-shot pass cuts the node's run onto it where it
    /// lies. Several children are merged from their spans in `update`, and
    /// in the one-shot pass from a copy in `staging`.
    // lint: no_alloc
    fn compose(&mut self, tree: &Tree, node: NodeId, floor: usize) {
        let in_place = self.arena.len() > floor;
        // Resident memory (absolute within the subtree) after the segments
        // cut so far: the absolute valley of the arena's top.
        let mut top = 0u64;
        match tree.children(node) {
            [] => {}
            &[child] => {
                if !in_place {
                    let (start, len) = self.spans[child.index()];
                    // lint: allow(L003, the arena's capacity is reused across updates: amortized)
                    self.arena.extend_from_within(start..start + len);
                }
                top = tree.weight(child);
            }
            children => {
                self.cursors.clear();
                // In place, the children's sequences move to `staging`, and
                // each cursor is its span's offset above `floor`.
                let offset = if in_place {
                    self.staging.clear();
                    // lint: allow(L003, staging area grows to the largest set of siblings' sequences once: amortized)
                    self.staging.extend_from_slice(&self.arena[floor..]);
                    self.arena.truncate(floor);
                    floor
                } else {
                    0
                };
                for &c in children {
                    let (start, len) = self.spans[c.index()];
                    // lint: allow(L003, staging area grows to the largest arity once: amortized)
                    self.cursors.push((start - offset, start - offset + len));
                }
                loop {
                    let source = if in_place { &self.staging } else { &self.arena };
                    let Some(at) = pick_next(source, &mut self.cursors) else {
                        break;
                    };
                    let seg = source[at];
                    let run = Segment {
                        hill: top + seg.hill,
                        valley: top + seg.valley,
                        ..seg
                    };
                    cut(&mut self.arena, floor, top, &mut self.next, run);
                    top = run.valley;
                }
            }
        }
        debug_assert_eq!(
            top,
            tree.children_weight(node),
            "children valleys must sum to their weights"
        );
        // Executing the node: all children outputs (and nothing else from
        // this subtree) are resident, so the absolute peak is exactly w̄ and
        // the resident data afterwards is the node's own output.
        let weight = tree.weight(node);
        let own = Segment {
            hill: weight.max(top),
            valley: weight,
            head: node,
            tail: node,
        };
        cut(&mut self.arena, floor, top, &mut self.next, own);
    }

    /// `node`'s canonical sequence as of its last [`PeakCache::update`]
    /// (empty if it was never updated).
    // lint: no_alloc
    pub fn segments(&self, node: NodeId) -> &[Segment] {
        match self.spans.get(node.index()) {
            Some(&(start, len)) => &self.arena[start..start + len],
            None => &[],
        }
    }

    /// The optimal peak of the subtree rooted at `node` as of its last
    /// [`PeakCache::update`] (0 if it was never updated): the first hill of
    /// its canonical sequence.
    // lint: no_alloc
    pub fn peak(&self, node: NodeId) -> u64 {
        self.segments(node).first().map_or(0, |s| s.hill)
    }

    /// Writes into `order` (cleared first) the optimal traversal of the
    /// subtree rooted at `node` as of its last [`PeakCache::update`]: every
    /// segment's run, in sequence order. Reading changes nothing, so any
    /// node's traversal can be read at any time; it is that of the current
    /// tree as long as `node` was updated after every change in its subtree.
    // lint: no_alloc
    pub fn schedule_into(&self, tree: &Tree, node: NodeId, order: &mut Vec<NodeId>) {
        order.clear();
        for seg in self.segments(node) {
            let mut task = seg.head;
            // lint: allow(L003, caller-owned buffer reused across reads: amortized)
            order.push(task);
            // The length bound only guards against a corrupted cache.
            while task != seg.tail && order.len() < tree.len() {
                task = self.next[task.index()];
                // lint: allow(L003, caller-owned buffer reused across reads: amortized)
                order.push(task);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::{peak_memory, TreeBuilder};

    #[test]
    fn singleton_tree() {
        let t = Tree::from_parents(&[7], &[None]).unwrap();
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

    /// The cache read at `v` agrees with a fresh solve of `v`'s subtree.
    fn assert_matches_fresh_solve(cache: &PeakCache, t: &Tree, v: NodeId) {
        let (schedule, peak) = opt_min_mem_subtree(t, v);
        assert_eq!(cache.peak(v), peak, "peak of {v:?}");
        let mut order = Vec::new();
        cache.schedule_into(t, v, &mut order);
        assert_eq!(order, schedule.order(), "traversal of {v:?}");
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
                assert_matches_fresh_solve(&cache, &t, v);
            }
        }
    }

    /// Re-weights random nodes of a chain with long canonical sequences and
    /// updates each one's ancestors: the re-stored sequences force
    /// compactions, and every cached peak and traversal stays that of a
    /// fresh solve.
    #[test]
    fn peak_cache_follows_local_changes() {
        // From the leaf up, heavy weights decrease and light ones increase:
        // every heavy/light pair is one segment.
        let n = 40usize;
        let mut weights: Vec<u64> = (0..n)
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
            weights[node.index()] = 1 + (state >> 13) % 200;
            t = Tree::from_parents(&weights, &parents).unwrap();
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
                assert_matches_fresh_solve(&cache, &t, u);
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
