//! Hill–valley segments: the compact representation of (partial) traversals
//! used by Liu's optimal MinMem algorithm.
//!
//! A traversal of a subtree is summarised by a sequence of *segments*. Each
//! segment covers a contiguous run of the traversal and records, **relative
//! to the memory resident when the segment starts**:
//!
//! * its `hill` — the maximum memory in use at any point of the segment, and
//! * its `valley` — the memory still resident when the segment ends.
//!
//! The canonical decomposition (Liu 1987) cuts the traversal at the global
//! minimum of the memory profile following each global maximum, which yields
//! segments whose `hill − valley` values are non-increasing. Liu's
//! composition theorem states that an optimal traversal of a node is obtained
//! by merging the segments of its children's optimal traversals in
//! non-increasing `hill − valley` order and executing the node last.
//!
//! A segment carries its tasks as the first and last node of a run linked
//! through a per-node `next` array (owned by [`crate::PeakCache`]): joining
//! two runs writes one link, so a composition never copies a task list.
//! This module holds the two steps of a composition: the merge order
//! (`pick_next`) and the canonical cut in one left-to-right pass over the
//! relative segments as stored (`cut`).

use oocts_tree::NodeId;

/// A contiguous piece of a traversal: its hill and valley (both relative to
/// the memory resident when the segment starts) and the first and last task
/// of its run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Maximum memory used during the segment (relative to its start).
    pub hill: u64,
    /// Memory still resident at the end of the segment (relative to its
    /// start). Always `≤ hill`.
    pub valley: u64,
    /// The first task of the segment.
    pub head: NodeId,
    /// The last task of the segment.
    pub tail: NodeId,
}

impl Segment {
    /// The sort key of Liu's composition theorem: segments are merged in
    /// non-increasing `hill − valley` order.
    #[inline]
    pub fn key(&self) -> u64 {
        self.hill - self.valley
    }
}

/// The merge order of Liu's composition theorem: among the children's
/// remaining segments, `cursors[i]` being child `i`'s unread range of
/// `segments`, returns the index of the next segment to execute and advances
/// its cursor. That is the head segment of largest key; on ties the lowest
/// child wins, so one child's segments never reorder. `None` once every
/// cursor is exhausted.
// lint: no_alloc
pub(crate) fn pick_next(segments: &[Segment], cursors: &mut [(usize, usize)]) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for (i, &(at, end)) in cursors.iter().enumerate() {
        if at < end {
            let key = segments[at].key();
            if best.is_none_or(|(_, bk)| key > bk) {
                best = Some((i, key));
            }
        }
    }
    let (i, _) = best?;
    let at = cursors[i].0;
    cursors[i].0 = at + 1;
    Some(at)
}

/// One step of the canonical cut, in a single left-to-right pass over
/// relative segments: `stack[floor..]` holds the canonical segments of the
/// profile so far, relative as stored, `top` is the absolute valley of the
/// last one (0 when there is none), and `run` is the next run of the
/// profile, with its hill and valley *absolute*.
///
/// A segment whose hill is below `run`'s, or whose valley is not below
/// `run`'s, cannot end a canonical segment once `run` follows it, so it is
/// popped and joined in front of `run` (`next[seg.tail] = run.head`) until
/// the top has both a hill at least `run`'s and a lower valley. Each popped
/// segment's absolute hill and valley are rebuilt from `top` on the way
/// down; then `run` is pushed relative to what is left, so every segment is
/// written once. The run's valley is the new `top`.
///
/// The stack thus keeps non-increasing absolute hills and strictly
/// increasing absolute valleys. Its segments are exactly Liu's canonical
/// ones: cut the whole profile at the last minimum after its first maximum,
/// then do the same in the rest.
// lint: no_alloc
pub(crate) fn cut(
    stack: &mut Vec<Segment>,
    floor: usize,
    mut top: u64,
    next: &mut [NodeId],
    mut run: Segment,
) {
    while stack.len() > floor {
        let seg = stack[stack.len() - 1];
        // Absolute: the segment starts where the one below it ends.
        let start = top - seg.valley;
        let hill = start + seg.hill;
        if hill >= run.hill && top < run.valley {
            break;
        }
        next[seg.tail.index()] = run.head;
        run.head = seg.head;
        run.hill = run.hill.max(hill);
        top = start;
        stack.pop();
    }
    // Either the loop stopped below `run`'s valley or the stack is empty
    // (`top` 0), and a hill is never below its valley: neither subtraction
    // wraps.
    // lint: allow(L003, the stack is the cache's arena, whose capacity is reused across updates: amortized)
    stack.push(Segment {
        hill: run.hill - top,
        valley: run.valley - top,
        ..run
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cuts a profile of single-task atoms `(peak, resident)` (absolute,
    /// atom `i` being task `i`) and lists each segment's relative hill and
    /// valley, as stored, and its tasks.
    fn decompose(atoms: &[(u64, u64)]) -> Vec<(u64, u64, Vec<u32>)> {
        let mut next = vec![NodeId(u32::MAX); atoms.len()];
        let (mut stack, mut top) = (Vec::new(), 0);
        for (i, &(peak, resident)) in atoms.iter().enumerate() {
            let id = NodeId::from_index(i);
            let atom = Segment {
                hill: peak,
                valley: resident,
                head: id,
                tail: id,
            };
            cut(&mut stack, 0, top, &mut next, atom);
            top = resident;
        }
        stack
            .iter()
            .map(|s| {
                let mut tasks = vec![s.head.0];
                let mut v = s.head;
                while v != s.tail {
                    v = next[v.index()];
                    tasks.push(v.0);
                }
                (s.hill, s.valley, tasks)
            })
            .collect()
    }

    fn keys(segments: &[(u64, u64, Vec<u32>)]) -> Vec<u64> {
        segments.iter().map(|(h, v, _)| h - v).collect()
    }

    fn seg(hill: u64, valley: u64, id: u32) -> Segment {
        Segment {
            hill,
            valley,
            head: NodeId(id),
            tail: NodeId(id),
        }
    }

    #[test]
    fn decompose_single_atom() {
        assert_eq!(decompose(&[(5, 3)]), vec![(5, 3, vec![0])]);
    }

    #[test]
    fn decompose_monotone_profile() {
        // Peaks decreasing, residents increasing: every atom is its own
        // segment, each relative to the previous valley.
        let segs = decompose(&[(10, 2), (6, 4), (5, 5)]);
        assert_eq!(
            segs,
            vec![(10, 2, vec![0]), (4, 2, vec![1]), (1, 1, vec![2])]
        );
        assert!(keys(&segs).windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn decompose_groups_atoms_before_the_peak() {
        // The global peak is in the middle: everything before it joins its
        // segment.
        let segs = decompose(&[(3, 1), (9, 4), (5, 5)]);
        assert_eq!(segs, vec![(9, 4, vec![0, 1]), (1, 1, vec![2])]);
    }

    #[test]
    fn decompose_takes_minimum_after_the_peak() {
        // Resident dips after the peak: the boundary is at the dip; on equal
        // peaks the first one opens the segment, on equal residents the last
        // one closes it.
        let segs = decompose(&[(9, 6), (7, 2), (6, 5)]);
        assert_eq!(segs, vec![(9, 2, vec![0, 1]), (4, 3, vec![2])]);
        assert!(keys(&segs).windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(
            decompose(&[(9, 2), (9, 3)]),
            vec![(9, 2, vec![0]), (7, 1, vec![1])]
        );
        assert_eq!(decompose(&[(9, 5), (9, 2)]), vec![(9, 2, vec![0, 1])]);
        assert_eq!(decompose(&[(9, 3), (8, 3)]), vec![(9, 3, vec![0, 1])]);
    }

    /// The cut reads and pops nothing below `floor`: atoms cut above another
    /// sequence give the segments they give on an empty stack.
    #[test]
    fn cut_stays_above_the_floor() {
        let atoms = [(9, 6), (7, 2), (6, 5), (3, 1)];
        let below = seg(1, 0, 9);
        let mut next = vec![NodeId(u32::MAX); 10];
        let (mut stack, mut top) = (vec![below], 0);
        for (i, &(peak, resident)) in atoms.iter().enumerate() {
            cut(&mut stack, 1, top, &mut next, seg(peak, resident, i as u32));
            top = resident;
        }
        assert_eq!(stack[0], below);
        let got: Vec<(u64, u64)> = stack[1..].iter().map(|s| (s.hill, s.valley)).collect();
        let want: Vec<(u64, u64)> = decompose(&atoms).iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(got, want);
        assert_eq!(want, [(9, 1)]);
    }

    #[test]
    fn merge_orders_by_key_and_preserves_child_order() {
        // Child 0: keys 9 then 2; child 1: key 5.
        let segments = [seg(10, 1, 0), seg(4, 2, 1), seg(8, 3, 2)];
        let mut cursors = [(0, 2), (2, 3)];
        let order: Vec<usize> = std::iter::from_fn(|| pick_next(&segments, &mut cursors)).collect();
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(cursors, [(2, 2), (3, 3)]);
    }

    #[test]
    fn merge_with_equal_keys_does_not_reorder_same_child() {
        // Equal keys everywhere: child 0's segments come first, in order.
        let segments = [seg(5, 1, 0), seg(4, 0, 1), seg(6, 2, 2)];
        let mut cursors = [(0, 2), (2, 3)];
        let order: Vec<usize> = std::iter::from_fn(|| pick_next(&segments, &mut cursors)).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn composition_ignores_the_payload() {
        // Two children with (hill, valley) sequences [(9, 2), (4, 3)] and
        // [(8, 1)] under a node of weight 3 (children weight 6): the cut
        // depends on the profile only, whatever tasks the segments carry.
        let profile = |ids: [u32; 4]| {
            let children = [seg(9, 2, ids[0]), seg(4, 3, ids[1]), seg(8, 1, ids[2])];
            let mut cursors = [(0, 2), (2, 3)];
            let mut next = vec![NodeId(u32::MAX); 8];
            let (mut stack, mut top) = (Vec::new(), 0);
            while let Some(at) = pick_next(&children, &mut cursors) {
                let s = children[at];
                let atom = Segment {
                    hill: top + s.hill,
                    valley: top + s.valley,
                    ..s
                };
                cut(&mut stack, 0, top, &mut next, atom);
                top = atom.valley;
            }
            cut(&mut stack, 0, top, &mut next, seg(6, 3, ids[3]));
            let mut order = Vec::new();
            for s in &stack {
                let mut v = s.head;
                order.push(v.0);
                while v != s.tail {
                    v = next[v.index()];
                    order.push(v.0);
                }
            }
            let hv: Vec<(u64, u64)> = stack.iter().map(|s| (s.hill, s.valley)).collect();
            (hv, order)
        };
        let (hv, order) = profile([0, 1, 2, 3]);
        let (hv_other, order_other) = profile([7, 5, 6, 4]);
        assert_eq!(hv, hv_other);
        // Keys 7, 7, 1: child 0's first segment wins the tie, and the node
        // runs last. The optimal peak is the first hill.
        assert_eq!(order, vec![0, 2, 1, 3]);
        assert_eq!(order_other, vec![7, 6, 5, 4]);
        assert_eq!(hv, [(10, 3)]);
    }
}
