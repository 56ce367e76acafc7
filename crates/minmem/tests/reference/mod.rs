//! Liu's OptMinMem as the library computed it before the hill–valley cache,
//! kept as the reference of differential tests: every node's segments carry
//! their tasks as a `Vec<NodeId>`; a composition merges the children's
//! sequences (each reversed once so its next segment pops from the back),
//! executes the node last, and cuts the absolute profile by re-scanning
//! the rest of it for each segment. Every subtree is solved from scratch.
//!
//! Shared by the differential tests of `oocts-minmem` and `oocts-core`.

use oocts_tree::{NodeId, Tree};

/// A segment with its relative hill and valley and its task list.
#[derive(Debug, Clone)]
pub struct Segment {
    pub hill: u64,
    pub valley: u64,
    pub tasks: Vec<NodeId>,
}

/// The canonical hill–valley sequence of an optimal traversal of `root`'s
/// subtree.
pub fn optimal_segments(tree: &Tree, root: NodeId) -> Vec<Segment> {
    let mut results: Vec<Vec<Segment>> = vec![Vec::new(); tree.len()];
    for &node in tree.subtree_postorder(root) {
        let mut children: Vec<Vec<Segment>> = tree
            .children(node)
            .iter()
            .map(|c| std::mem::take(&mut results[c.index()]))
            .collect();
        for child in &mut children {
            child.reverse();
        }
        // Absolute (peak, resident, tasks) of every merged segment, then of
        // the node itself.
        let mut atoms: Vec<(u64, u64, Vec<NodeId>)> = Vec::new();
        let mut base = 0u64;
        loop {
            // The largest key; on ties the lowest child (strict `>`).
            let mut best: Option<(usize, u64)> = None;
            for (i, child) in children.iter().enumerate() {
                if let Some(seg) = child.last() {
                    let key = seg.hill - seg.valley;
                    if best.is_none_or(|(_, bk)| key > bk) {
                        best = Some((i, key));
                    }
                }
            }
            let Some((i, _)) = best else { break };
            let seg = children[i].pop().expect("the chosen child has a segment");
            atoms.push((base + seg.hill, base + seg.valley, seg.tasks));
            base += seg.valley;
        }
        let (w, cw) = (tree.weight(node), tree.children_weight(node));
        atoms.push((w.max(cw), w, vec![node]));
        results[node.index()] = decompose(atoms);
    }
    std::mem::take(&mut results[root.index()])
}

/// Cuts an absolute profile at the last minimum resident after the first
/// maximum peak, then again in the rest, and so on.
fn decompose(atoms: Vec<(u64, u64, Vec<NodeId>)>) -> Vec<Segment> {
    let mut out = Vec::new();
    let mut rest = &atoms[..];
    let mut before = 0u64;
    while !rest.is_empty() {
        let mut hill = 0;
        for i in 1..rest.len() {
            if rest[i].0 > rest[hill].0 {
                hill = i;
            }
        }
        let mut valley = hill;
        for i in hill..rest.len() {
            if rest[i].1 <= rest[valley].1 {
                valley = i;
            }
        }
        out.push(Segment {
            hill: rest[hill].0 - before,
            valley: rest[valley].1 - before,
            tasks: rest[..=valley]
                .iter()
                .flat_map(|a| a.2.iter().copied())
                .collect(),
        });
        before = rest[valley].1;
        rest = &rest[valley + 1..];
    }
    out
}

/// A peak-memory-optimal traversal of `root`'s subtree and its peak.
pub fn opt_min_mem_subtree(tree: &Tree, root: NodeId) -> (Vec<NodeId>, u64) {
    let segments = optimal_segments(tree, root);
    let peak = segments.first().map_or(0, |s| s.hill);
    (segments.into_iter().flat_map(|s| s.tasks).collect(), peak)
}
