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
//! That composition step, [`compose_into`], is written once over a generic
//! segment payload: the task lists of OptMinMem's schedule
//! (`Segment<Vec<NodeId>>`, the default), or nothing at all
//! (`Segment<()>`) when only the peaks are wanted, as in
//! [`crate::PeakCache`].

use oocts_tree::NodeId;

/// A contiguous piece of a traversal, summarised by its hill and valley
/// (both relative to the memory resident when the segment starts), plus a
/// payload: the tasks it executes, or `()` when only the profile matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<T = Vec<NodeId>> {
    /// Maximum memory used during the segment (relative to its start).
    pub hill: u64,
    /// Memory still resident at the end of the segment (relative to its
    /// start). Always `≤ hill`.
    pub valley: u64,
    /// The tasks executed by this segment, in order.
    pub tasks: T,
}

impl<T> Segment<T> {
    /// The sort key of Liu's composition theorem: segments are merged in
    /// non-increasing `hill − valley` order.
    #[inline]
    pub fn key(&self) -> u64 {
        self.hill - self.valley
    }
}

/// One step of an absolute memory profile used while re-decomposing a merged
/// traversal: the peak reached while the step runs and the memory resident
/// after it, both *absolute* within the subtree being combined.
#[derive(Debug, Clone)]
pub struct Atom<T = Vec<NodeId>> {
    /// Peak memory while the atom runs (absolute).
    pub peak: u64,
    /// Memory resident after the atom (absolute).
    pub resident: u64,
    /// The tasks of this atom.
    pub tasks: T,
}

/// Canonical hill–valley decomposition of a sequence of atoms.
///
/// Boundaries are placed at the (last occurrence of the) minimum resident
/// value following each (first occurrence of the) maximum peak, which
/// guarantees non-increasing hills, non-decreasing valleys and therefore
/// non-increasing `hill − valley` keys.
pub fn decompose(atoms: Vec<Atom>) -> Vec<Segment> {
    let mut atoms = atoms;
    let mut out = Vec::new();
    let mut task_pool = Vec::new();
    decompose_into(&mut atoms, &mut out, |segment| {
        join_tasks(segment, &mut task_pool)
    });
    out
}

/// Buffer-reusing variant of [`decompose`] over any payload: drains `atoms`
/// into canonical segments appended to `out` (cleared first). `join` turns
/// the (non-empty) run of atoms forming one segment into that segment's
/// payload.
// lint: no_alloc
pub fn decompose_into<T>(
    atoms: &mut Vec<Atom<T>>,
    out: &mut Vec<Segment<T>>,
    mut join: impl FnMut(&mut [Atom<T>]) -> T,
) {
    out.clear();
    let mut rest = &mut atoms[..];
    let mut resident_before = 0u64;
    while !rest.is_empty() {
        // First index with the maximum peak.
        let mut hill_idx = 0usize;
        for i in 1..rest.len() {
            if rest[i].peak > rest[hill_idx].peak {
                hill_idx = i;
            }
        }
        // Last index at or after it with the minimum resident.
        let mut valley_idx = hill_idx;
        for i in hill_idx..rest.len() {
            if rest[i].resident <= rest[valley_idx].resident {
                valley_idx = i;
            }
        }
        let hill_abs = rest[hill_idx].peak;
        let valley_abs = rest[valley_idx].resident;
        // Both values are at least the previous valley: the previous valley
        // was the minimum resident over a suffix containing this one.
        debug_assert!(hill_abs >= resident_before);
        debug_assert!(valley_abs >= resident_before);
        let (segment, tail) = std::mem::take(&mut rest).split_at_mut(valley_idx + 1);
        // lint: allow(L003, segment output buffer is pooled by the caller: amortized)
        out.push(Segment {
            hill: hill_abs - resident_before,
            valley: valley_abs - resident_before,
            tasks: join(segment),
        });
        resident_before = valley_abs;
        rest = tail;
    }
    atoms.clear();
    debug_assert!(is_canonical(out));
}

/// The [`decompose_into`] payload join of task-carrying segments: the first
/// atom donates its task vector, the others drain into it (append moves
/// elements) and go back to `task_pool` empty, so a caller cycling through
/// many nodes reuses all task storage.
// lint: no_alloc
pub(crate) fn join_tasks(atoms: &mut [Atom], task_pool: &mut Vec<Vec<NodeId>>) -> Vec<NodeId> {
    let mut tasks = std::mem::take(&mut atoms[0].tasks);
    for atom in &mut atoms[1..] {
        tasks.append(&mut atom.tasks);
        task_pool.push(std::mem::take(&mut atom.tasks)); // lint: allow(L003, recycling an emptied vector into the pool: amortized)
    }
    tasks
}

/// `true` if the segment keys are non-increasing (the invariant required by
/// the composition merge).
pub fn is_canonical<T>(segments: &[Segment<T>]) -> bool {
    segments.windows(2).all(|w| w[0].key() >= w[1].key())
}

/// Merges several canonical segment sequences into a single sequence ordered
/// by non-increasing `hill − valley`, preserving the internal order of each
/// input sequence (ties never reorder segments of the same child).
pub fn merge<T>(children: Vec<Vec<Segment<T>>>) -> Vec<Segment<T>> {
    let mut children = children;
    let mut out = Vec::new();
    merge_with(&mut children, |seg| out.push(seg));
    out
}

/// The merge order of Liu's composition theorem, implemented once: hands
/// every segment of `children` to `emit` in non-increasing key order. On
/// ties the lowest child wins, so one child's segments never reorder.
///
/// Each child is reversed once so its next segment pops from the back in
/// O(1); segments are moved, never cloned, and the children end up empty.
// lint: no_alloc
fn merge_with<T>(children: &mut [Vec<Segment<T>>], mut emit: impl FnMut(Segment<T>)) {
    for child in children.iter_mut() {
        child.reverse();
    }
    loop {
        // Pick the child whose head segment has the largest key; on ties the
        // lowest index wins, so a strict `>` preserves child order.
        let mut best: Option<(usize, u64)> = None;
        for (i, child) in children.iter().enumerate() {
            if let Some(seg) = child.last() {
                let key = seg.key();
                if best.is_none_or(|(_, bk)| key > bk) {
                    best = Some((i, key));
                }
            }
        }
        let Some((i, _)) = best else { break };
        if let Some(seg) = children[i].pop() {
            emit(seg);
        }
    }
}

/// Liu's composition at one node (his composition theorem, restated as
/// Theorem 3 of the paper): merges the children's canonical sequences
/// (drained) in non-increasing `hill − valley` order, executes the node
/// last, and cuts the resulting absolute profile canonically into `out`.
///
/// `weight` and `children_weight` are the node's `w_i` and `Σ w_j`; `tasks`
/// is the node's own payload and `join` the payload join handed to
/// [`decompose_into`]. `atoms` is a staging buffer (cleared first).
// lint: no_alloc
pub fn compose_into<T>(
    children: &mut [Vec<Segment<T>>],
    weight: u64,
    children_weight: u64,
    tasks: T,
    atoms: &mut Vec<Atom<T>>,
    out: &mut Vec<Segment<T>>,
    join: impl FnMut(&mut [Atom<T>]) -> T,
) {
    atoms.clear();
    let mut base = 0u64;
    merge_with(children, |seg| {
        let peak = base + seg.hill;
        base += seg.valley;
        // lint: allow(L003, staging area reuses its capacity across nodes: amortized)
        atoms.push(Atom {
            peak,
            resident: base,
            tasks: seg.tasks,
        });
    });
    debug_assert_eq!(
        base, children_weight,
        "children valleys must sum to their weights"
    );
    // Executing the node: all children outputs (and nothing else from this
    // subtree) are resident, so the absolute peak is exactly w̄ and the
    // resident data afterwards is the node's own output.
    // lint: allow(L003, staging area reuses its capacity across nodes: amortized)
    atoms.push(Atom {
        peak: weight.max(children_weight),
        resident: weight,
        tasks,
    });
    decompose_into(atoms, out, join);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(peak: u64, resident: u64, id: u32) -> Atom {
        Atom {
            peak,
            resident,
            tasks: vec![NodeId(id)],
        }
    }

    #[test]
    fn decompose_single_atom() {
        let segs = decompose(vec![atom(5, 3, 0)]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].hill, 5);
        assert_eq!(segs[0].valley, 3);
        assert_eq!(segs[0].tasks, vec![NodeId(0)]);
    }

    #[test]
    fn decompose_monotone_profile() {
        // Peaks decreasing, residents increasing: each atom is its own
        // segment only if the hills strictly dominate; here the global max is
        // the first atom and the minimum resident afterwards is at the first
        // atom itself.
        let segs = decompose(vec![atom(10, 2, 0), atom(6, 4, 1), atom(5, 5, 2)]);
        assert_eq!(segs.len(), 3);
        assert_eq!((segs[0].hill, segs[0].valley), (10, 2));
        // Segment 2 is relative to resident 2, segment 3 to resident 4.
        assert_eq!((segs[1].hill, segs[1].valley), (4, 2));
        assert_eq!((segs[2].hill, segs[2].valley), (1, 1));
        assert!(is_canonical(&segs));
    }

    #[test]
    fn decompose_groups_atoms_before_the_peak() {
        // The global peak is in the middle: everything before it joins its
        // segment.
        let segs = decompose(vec![atom(3, 1, 0), atom(9, 4, 1), atom(5, 5, 2)]);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].hill, segs[0].valley), (9, 4));
        assert_eq!(segs[0].tasks, vec![NodeId(0), NodeId(1)]);
        assert_eq!((segs[1].hill, segs[1].valley), (1, 1));
    }

    #[test]
    fn decompose_takes_minimum_after_the_peak() {
        // Resident dips after the peak: the boundary is at the dip.
        let segs = decompose(vec![atom(9, 6, 0), atom(7, 2, 1), atom(6, 5, 2)]);
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].hill, segs[0].valley), (9, 2));
        assert_eq!(segs[0].tasks, vec![NodeId(0), NodeId(1)]);
        assert_eq!((segs[1].hill, segs[1].valley), (4, 3));
        assert!(is_canonical(&segs));
    }

    #[test]
    fn merge_orders_by_key_and_preserves_child_order() {
        let a = vec![
            Segment {
                hill: 10,
                valley: 1,
                tasks: vec![NodeId(0)],
            },
            Segment {
                hill: 4,
                valley: 2,
                tasks: vec![NodeId(1)],
            },
        ];
        let b = vec![Segment {
            hill: 8,
            valley: 3,
            tasks: vec![NodeId(2)],
        }];
        let merged = merge(vec![a, b]);
        let keys: Vec<u64> = merged.iter().map(Segment::key).collect();
        assert_eq!(keys, vec![9, 5, 2]);
        // Child a's two segments keep their relative order.
        let pos0 = merged
            .iter()
            .position(|s| s.tasks.contains(&NodeId(0)))
            .unwrap();
        let pos1 = merged
            .iter()
            .position(|s| s.tasks.contains(&NodeId(1)))
            .unwrap();
        assert!(pos0 < pos1);
    }

    #[test]
    fn merge_with_equal_keys_does_not_reorder_same_child() {
        let a = vec![
            Segment {
                hill: 5,
                valley: 1,
                tasks: vec![NodeId(0)],
            },
            Segment {
                hill: 4,
                valley: 0,
                tasks: vec![NodeId(1)],
            },
        ];
        let merged = merge(vec![a.clone()]);
        assert_eq!(merged, a);
    }

    #[test]
    fn composition_ignores_the_payload() {
        // Two children with (hill, valley) sequences [(9, 2), (4, 3)] and
        // [(8, 1)], under a node of weight 3: the payload-free composition
        // cuts exactly where the task-carrying one does.
        let hv = |hill, valley, id| Segment {
            hill,
            valley,
            tasks: vec![NodeId(id)],
        };
        let mut with_tasks = vec![vec![hv(9, 2, 0), hv(4, 3, 1)], vec![hv(8, 1, 2)]];
        let mut bare: Vec<Vec<Segment<()>>> = with_tasks
            .iter()
            .map(|c| {
                c.iter()
                    .map(|s| Segment {
                        hill: s.hill,
                        valley: s.valley,
                        tasks: (),
                    })
                    .collect()
            })
            .collect();
        let (mut atoms, mut out, mut pool) = (Vec::new(), Vec::new(), Vec::new());
        compose_into(
            &mut with_tasks,
            3,
            6,
            vec![NodeId(3)],
            &mut atoms,
            &mut out,
            |s| join_tasks(s, &mut pool),
        );
        let (mut bare_atoms, mut bare_out) = (Vec::new(), Vec::new());
        compose_into(&mut bare, 3, 6, (), &mut bare_atoms, &mut bare_out, |_| ());
        let profile: Vec<(u64, u64)> = out.iter().map(|s| (s.hill, s.valley)).collect();
        let bare_profile: Vec<(u64, u64)> = bare_out.iter().map(|s| (s.hill, s.valley)).collect();
        assert_eq!(profile, bare_profile);
        // Keys 7, 7, 1: child 0's first segment wins the tie, and the node
        // runs last.
        let order: Vec<NodeId> = out.iter().flat_map(|s| s.tasks.clone()).collect();
        assert_eq!(order, vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)]);
        assert_eq!(profile[0].0, 10, "the optimal peak is the first hill");
    }
}
