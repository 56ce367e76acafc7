//! Memory and I/O simulation of schedules.
//!
//! Two simulators are provided:
//!
//! * [`peak_memory`] / [`memory_profile`] — the *in-core* profiler: how much
//!   main memory a schedule needs when no I/O is allowed;
//! * [`fif_io`] — the *out-of-core* simulator: given a memory bound `M`, run
//!   the schedule and perform I/O with the **Furthest-in-the-Future** (FiF)
//!   eviction policy, which by Theorem 1 of the paper produces an I/O function
//!   `τ` of minimum total volume for that schedule.
//!
//! Every scheduling algorithm in the workspace returns only a schedule `σ`;
//! the I/O volume charged to it is always the volume reported by [`fif_io`],
//! which keeps comparisons between heuristics fair and matches the paper's
//! methodology.
//!
//! FiF evicts from the resident output whose consumer (its parent) runs
//! furthest in the future, the smaller id first between outputs of one
//! consumer step, and an output whose consumer is outside the schedule
//! counts as consumed after the end. The choice depends on an output's
//! consumer step and id only, so the replay runs FiF on *buckets* keyed by
//! that step, in two passes:
//!
//! 1. `alive[s]` holds the resident units of the outputs consumed at step
//!    `s`, with index `len` for the outputs whose consumer is unscheduled.
//!    A 64-ary bitset over the buckets gives the latest non-empty one. Step
//!    `s` reads and empties its own bucket (its children's resident units)
//!    in O(1), leaving its bit set (every live bucket is later, so it never
//!    wins), drains the latest buckets until the node fits, then adds its
//!    output to its consumer's bucket. Every drain is logged as
//!    `(bucket, step, units)`.
//! 2. The split charges each drained bucket's units to its members as the
//!    sibling tie-break does: smallest id first, among the members produced
//!    *before* the drain's step, each until its output is fully evicted.
//!    One min-id heap per drained bucket admits the members in production
//!    order.
//!
//! This is exact. FiF takes from a later bucket before an earlier one, so
//! the first pass drains the units a per-node replay would from each
//! bucket at each step. The units a bucket holds at a drain are those of
//! its members produced before that step, less what its earlier drains
//! took, and the split hands them out as the tie-break does. It is also
//! linear in the schedule up to logarithms. A full drain empties a bucket,
//! which only a production refills, and each step makes at most one
//! partial drain, so `L` steps make at most `2L` drains (grouped by bucket
//! with one sort). The split costs O(Σ d log d) over the drained buckets
//! only, for their member counts `d`, and never rescans a bucket's members
//! per drain.
//!
//! The replay starts at the *first overflow*: the first step whose in-core
//! need, `(resident − Σ children) + w̄_i` with every output still resident,
//! exceeds `M`. FiF's resident data never exceeds the in-core data, so no
//! earlier step evicts anything, and at that step every output still waiting
//! for its parent is fully resident. A light scan over the in-core
//! accounting finds the step; the buckets are seeded with exactly those
//! outputs and FiF runs from there to the end: `τ`, the I/O volume and the
//! peak are those of the replay from step 0. Most replays of subtree
//! traversals inside RecExpand and of TREES cells spend most of their steps
//! before the first overflow (EXPERIMENTS.md).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::TreeError;
use crate::schedule::Schedule;
use crate::tree::{NodeId, Tree};

/// Memory usage of one scheduled step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileStep {
    /// The executed node.
    pub node: NodeId,
    /// Memory in use while the node executes (other active data + `w̄_i`).
    pub peak_during: u64,
    /// Memory in use right after the node completes (active data only).
    pub resident_after: u64,
}

/// The in-core memory profile of a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryProfile {
    steps: Vec<ProfileStep>,
}

impl MemoryProfile {
    /// Per-step memory usage, in schedule order.
    pub fn steps(&self) -> &[ProfileStep] {
        &self.steps
    }

    /// The peak memory of the schedule: the maximum over all steps of the
    /// memory in use during execution.
    pub fn peak(&self) -> u64 {
        self.steps.iter().map(|s| s.peak_during).max().unwrap_or(0)
    }

    /// Memory resident after the last scheduled step (the output of the last
    /// node plus any still-active data).
    pub fn final_resident(&self) -> u64 {
        self.steps.last().map(|s| s.resident_after).unwrap_or(0)
    }
}

/// Computes the in-core memory profile of `schedule` on `tree`.
///
/// Fails if the schedule is not a valid (partial) traversal of the tree.
pub fn memory_profile(tree: &Tree, schedule: &Schedule) -> Result<MemoryProfile, TreeError> {
    schedule.validate(tree)?;
    let mut resident = 0u64;
    let mut steps = Vec::with_capacity(schedule.len());
    for node in schedule.iter() {
        let cw = tree.children_weight(node);
        let w = tree.weight(node);
        let peak_during = resident + w.saturating_sub(cw);
        resident = resident - cw + w;
        steps.push(ProfileStep {
            node,
            peak_during,
            resident_after: resident,
        });
    }
    Ok(MemoryProfile { steps })
}

/// The in-core peak memory of `schedule` on `tree` (paper: the MinMem
/// objective evaluated on one schedule).
pub fn peak_memory(tree: &Tree, schedule: &Schedule) -> Result<u64, TreeError> {
    Ok(memory_profile(tree, schedule)?.peak())
}

/// Result of an out-of-core (FiF) simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoResult {
    /// Total volume of I/O (units written to disk): `Σ_i τ(i)`.
    pub total_io: u64,
    /// The induced I/O function `τ`, indexed by node id. `τ(i) = 0` for nodes
    /// that are not part of the schedule.
    pub tau: Vec<u64>,
    /// Peak in-core memory the schedule would need with an unlimited memory
    /// (useful to decide whether any I/O was unavoidable).
    pub peak_in_core: u64,
}

impl IoResult {
    /// The paper's performance metric for an out-of-core execution:
    /// `(M + IO) / M` (Section 6.2). A schedule without I/O scores 1.0.
    pub fn performance(&self, memory: u64) -> f64 {
        assert!(memory > 0, "memory bound must be positive");
        (memory + self.total_io) as f64 / memory as f64
    }
}

/// Reusable buffers for [`fif_io_with`].
///
/// The FiF simulator needs the schedule's positions, one bucket per step
/// with a bitset over them, a log of the drained buckets and a heap to
/// split them (see the module docs); callers that replay many schedules
/// (the RecExpand expansion loop, benchmarks, the golden corpus) allocate
/// one `FifScratch` and amortize every buffer across runs. The buckets are
/// indexed by step, so a replay of a subtree's traversal touches only as
/// many as it has steps. Returned `τ` vectors can be handed back via
/// [`FifScratch::recycle`] so even the output buffer rotates through a pool,
/// and the step of every node in the last replayed schedule stays readable
/// through [`FifScratch::positions`].
#[derive(Debug, Default)]
pub struct FifScratch {
    positions: Vec<usize>,
    /// `alive[s]`: resident units of the outputs consumed at step `s`;
    /// `alive[len]` those of the outputs whose consumer is unscheduled.
    alive: Vec<u64>,
    /// The non-empty buckets of `alive`, and consumed ones.
    live: StepSet,
    /// Every drain of the replay, in step order until the split sorts it.
    drains: Vec<Drain>,
    /// The members of the bucket being split, `(step produced, id)`.
    members: Vec<(usize, u32)>,
    /// The admitted members of that bucket, smallest id on top.
    split: BinaryHeap<Reverse<u32>>,
    tau_pool: Vec<Vec<u64>>,
}

/// `units` evicted from bucket `bucket` at step `step`.
#[derive(Debug, Clone, Copy)]
struct Drain {
    bucket: usize,
    step: usize,
    units: u64,
}

impl FifScratch {
    /// Creates an empty scratch space; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a `τ` buffer (from a previous [`IoResult`]) to the pool so
    /// the next simulation reuses its capacity.
    pub fn recycle(&mut self, mut tau: Vec<u64>) {
        tau.clear();
        self.tau_pool.push(tau);
    }

    /// The step of each node in the schedule [`fif_io_with`] last replayed,
    /// indexed by node id, with `usize::MAX` for unscheduled nodes: what
    /// [`Schedule::positions`] returns for that schedule. Empty before the
    /// first replay.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }
}

/// Runs `schedule` on `tree` under memory bound `memory`, performing I/O with
/// the Furthest-in-the-Future policy, and returns the I/O volume and the
/// induced I/O function `τ`.
///
/// By Theorem 1 of the paper this is an I/O-optimal `τ` for the given
/// schedule, so the returned volume is "the" I/O cost of the schedule.
/// Validation fills the replay's own positions array, and the replay starts
/// at the first step that overflows `memory`: no earlier step can evict (see
/// the module docs), so the result is the replay's from step 0.
///
/// Fails if the schedule is invalid or if some node needs more than `memory`
/// units on its own (`w̄_i > M`), in which case no traversal exists; an
/// invalid schedule is reported first.
pub fn fif_io(tree: &Tree, schedule: &Schedule, memory: u64) -> Result<IoResult, TreeError> {
    let mut scratch = FifScratch::new();
    schedule.validate_into(tree, &mut scratch.positions)?;
    replay(tree, schedule, memory, &mut scratch)
}

/// Scratch-reusing variant of [`fif_io`]: the inner loop of the simulator,
/// allocation-free once `scratch` has warmed up. Like [`fif_io`], it
/// replays from the first overflow on.
///
/// The caller must pass a schedule that is valid for `tree` (checked only as
/// a debug assertion here); [`fif_io`] is the validating wrapper.
// lint: no_alloc
pub fn fif_io_with(
    tree: &Tree,
    schedule: &Schedule,
    memory: u64,
    scratch: &mut FifScratch,
) -> Result<IoResult, TreeError> {
    debug_assert!(
        schedule.validate(tree).is_ok(), // lint: allow(L006, debug-only validation, compiled out of release hot paths)
        "fif_io_with needs a valid schedule"
    );
    schedule.positions_into(tree, &mut scratch.positions);
    // lint: allow(L006, replay allocates only in its debug-only invariant checks)
    replay(tree, schedule, memory, scratch)
}

/// The FiF replay of a valid `schedule` whose positions `scratch` already
/// holds.
// lint: no_alloc
fn replay(
    tree: &Tree,
    schedule: &Schedule,
    memory: u64,
    scratch: &mut FifScratch,
) -> Result<IoResult, TreeError> {
    let order = schedule.order();
    let len = order.len();
    let positions = &scratch.positions;
    let mut tau = scratch.tau_pool.pop().unwrap_or_default();
    tau.resize(tree.len(), 0);
    let mut total_io = 0u64;
    let mut peak_in_core = 0u64;
    let mut in_core_resident = 0u64; // resident if no I/O were ever done

    // The first overflow: the first step whose in-core need,
    // `in_core_resident − cw + w̄`, exceeds M (`w̄ > M` included). Before it
    // FiF evicts nothing, so only the in-core accounting runs.
    let mut first = len;
    for (step, &node) in order.iter().enumerate() {
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let peak_during = in_core_resident + w.saturating_sub(cw);
        if peak_during > memory {
            first = step;
            break;
        }
        peak_in_core = peak_in_core.max(peak_during);
        in_core_resident = in_core_resident - cw + w;
    }

    // The bucket of an output: its consumer's step, or `len` if the
    // consumer is outside the schedule.
    let bucket = |node| parent_position(tree, positions, node).min(len);
    let alive = &mut scratch.alive;
    let live = &mut scratch.live;
    let drains = &mut scratch.drains;
    drains.clear();
    let mut resident = 0u64; // Σ alive
    if first < len {
        alive.clear();
        alive.resize(len + 1, 0);
        live.reset(len + 1);
        // At the first overflow, the outputs still waiting for their parent
        // are active and fully resident: seed them as FiF leaves them.
        for &node in &order[..first] {
            let b = bucket(node);
            if b >= first {
                let w = tree.weight(node);
                resident = resident.saturating_add(w);
                fill(alive, live, b, w);
            }
        }
        debug_assert_eq!(
            resident, in_core_resident,
            "the seeded outputs must be the in-core resident data"
        );
    }

    for (step, &node) in order.iter().enumerate().skip(first) {
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let wbar = w.max(cw);
        if wbar > memory {
            return Err(TreeError::InsufficientMemory {
                node,
                required: wbar,
                available: memory,
            });
        }

        // In-core accounting (for `peak_in_core`).
        peak_in_core = peak_in_core.max(in_core_resident + w.saturating_sub(cw));
        in_core_resident = in_core_resident - cw + w;

        // This step's bucket holds its children's resident units. They are
        // read back and consumed by this step, so they stop being eviction
        // candidates before anything is evicted; their evicted units must be
        // read back before the node can execute (reads are not counted as
        // I/O, but the space they occupy is part of w̄_i). The bucket's bit
        // stays set: every live bucket's step is later, so it never wins.
        let children_in_mem = std::mem::take(&mut alive[step]);

        // Evict non-children active data, furthest-in-the-future first, until
        // the node fits. Every bucket up to this step's is empty.
        let mut to_evict = (resident - children_in_mem + wbar).saturating_sub(memory);
        while to_evict > 0 {
            let b = live
                .last()
                // lint: allow(L001, to_evict > 0 implies some non-child active data is resident, so some bucket is live)
                .expect("eviction needed but no active data to evict");
            debug_assert!(
                b > step,
                "the latest live bucket {b} is not after step {step}"
            );
            let units = alive[b].min(to_evict);
            alive[b] -= units;
            if alive[b] == 0 {
                live.remove(b);
            }
            resident -= units;
            total_io = total_io.saturating_add(units);
            to_evict -= units;
            // lint: allow(L003, push into the scratch drain log: capacity amortized across runs)
            drains.push(Drain {
                bucket: b,
                step,
                units,
            });
        }

        // Read children back (no I/O counted), consume them, produce the
        // node's output fully in memory.
        resident = (resident - children_in_mem).saturating_add(w);
        fill(alive, live, bucket(node), w);

        debug_assert!(
            resident <= memory || resident - w <= memory.saturating_sub(wbar),
            "resident data exceeds the memory bound after step {step}"
        );
    }

    if !drains.is_empty() {
        split_drains(
            tree,
            order,
            positions,
            drains,
            &mut scratch.members,
            &mut scratch.split,
            &mut tau,
        );
    }

    // Invariant layer: every test that reaches the simulator doubles as an
    // invariant test in debug builds.
    // lint: allow(L006, debug-only validation, compiled out of release hot paths)
    debug_assert!(tree.validate().is_ok(), "fif_io ran on a malformed tree");
    debug_assert_eq!(
        total_io,
        tau.iter().sum::<u64>(),
        "total I/O must equal the sum of the induced τ"
    );
    Ok(IoResult {
        total_io,
        tau,
        peak_in_core,
    })
}

/// Adds `w` resident units to bucket `b`.
// lint: no_alloc
#[inline]
fn fill(alive: &mut [u64], live: &mut StepSet, b: usize, w: u64) {
    if w > 0 {
        live.insert(b);
        alive[b] = alive[b].saturating_add(w);
    }
}

/// The second pass: charges every drain to the outputs FiF evicts in it.
/// Within a bucket, FiF evicts the smallest id first among the members
/// produced before the drain's step, each until its output is gone, so the
/// drains of one bucket, in step order, walk its members in that order.
// lint: no_alloc
fn split_drains(
    tree: &Tree,
    order: &[NodeId],
    positions: &[usize],
    drains: &mut [Drain],
    members: &mut Vec<(usize, u32)>,
    split: &mut BinaryHeap<Reverse<u32>>,
    tau: &mut [u64],
) {
    // A bucket drains at most once per step, so this is each bucket's
    // drains in step order.
    drains.sort_unstable_by_key(|d| (d.bucket, d.step));
    for group in drains.chunk_by(|a, b| a.bucket == b.bucket) {
        let b = group[0].bucket;
        members.clear();
        if let Some(&consumer) = order.get(b) {
            let children = tree.children(consumer).iter();
            // lint: allow(L003, extend the scratch member list: capacity amortized across runs)
            members.extend(children.map(|&c| (positions[c.index()], c.0)));
            members.sort_unstable();
        } else {
            // The outputs whose consumer is outside the schedule, already in
            // production order.
            let produced = order.iter().enumerate();
            let waiting =
                produced.filter(|&(_, &v)| parent_position(tree, positions, v) == usize::MAX);
            // lint: allow(L003, extend the scratch member list: capacity amortized across runs)
            members.extend(waiting.map(|(step, &v)| (step, v.0)));
        }
        split.clear();
        let mut admitted = 0;
        for drain in group {
            // Admit the members produced before this step, not at it: the
            // node that runs at the drain's step is produced after it evicts.
            while let Some(&(_, id)) = members.get(admitted).filter(|m| m.0 < drain.step) {
                // lint: allow(L003, push into the scratch split heap: capacity amortized across runs)
                split.push(Reverse(id));
                admitted += 1;
            }
            let mut units = drain.units;
            while units > 0 {
                let &Reverse(id) = split
                    .peek()
                    // lint: allow(L001, a drain takes at most the units of the members produced before it)
                    .expect("a bucket drained past its members");
                let v = NodeId(id);
                let left = tree.weight(v) - tau[v.index()];
                let evicted = left.min(units);
                // lint: allow(L009, τ(v) ≤ w_v: `evicted` is at most what is left of v's output)
                tau[v.index()] += evicted;
                units -= evicted;
                if evicted == left {
                    split.pop();
                }
            }
        }
    }
}

// lint: no_alloc
#[inline]
fn parent_position(tree: &Tree, positions: &[usize], node: NodeId) -> usize {
    match tree.parent(node) {
        Some(p) => positions[p.index()],
        // The subtree root's output is needed "after the end" of the
        // schedule: furthest in the future of all.
        None => usize::MAX,
    }
}

/// Enough levels of 64 for any `usize` universe (64^11 > 2^64).
const MAX_LEVELS: usize = 11;

/// A set of steps `0..n` with insertion, removal and maximum in
/// O(log₆₄ n): one bit per step, and above that level one bit per
/// nonzero word of the level below, up to a single word. FiF's latest
/// non-empty bucket is the maximum: the replay leaves a consumed bucket's
/// bit set, but its step is below every live bucket's.
#[derive(Debug, Default)]
struct StepSet {
    /// The levels back to back: the bit per step first, the top word last.
    words: Vec<u64>,
    /// Where each of the first `levels` levels starts in `words`.
    starts: [usize; MAX_LEVELS],
    levels: usize,
}

impl StepSet {
    /// Empties the set for steps `0..n`.
    // lint: no_alloc
    fn reset(&mut self, n: usize) {
        let mut size = n.div_ceil(64).max(1);
        let mut start = 0;
        self.levels = 0;
        loop {
            self.starts[self.levels] = start;
            self.levels += 1;
            start += size;
            if size == 1 {
                break;
            }
            size = size.div_ceil(64);
        }
        self.words.clear();
        // lint: allow(L003, scratch bitset grows to the schedule length once: amortized across runs)
        self.words.resize(start, 0);
    }

    /// Adds `step`; the levels above change only where a word was empty.
    // lint: no_alloc
    fn insert(&mut self, mut step: usize) {
        for &start in &self.starts[..self.levels] {
            let word = &mut self.words[start + step / 64];
            let was_empty = *word == 0;
            *word |= 1 << (step % 64);
            if !was_empty {
                break;
            }
            step /= 64;
        }
    }

    /// Removes `step`; the levels above change only where a word empties.
    // lint: no_alloc
    fn remove(&mut self, mut step: usize) {
        for &start in &self.starts[..self.levels] {
            let word = &mut self.words[start + step / 64];
            *word &= !(1 << (step % 64));
            if *word != 0 {
                break;
            }
            step /= 64;
        }
    }

    /// The largest step in the set.
    // lint: no_alloc
    fn last(&self) -> Option<usize> {
        let (top, below) = self.starts[..self.levels].split_last()?;
        let mut step = self.words[*top].checked_ilog2()? as usize;
        for &start in below.iter().rev() {
            step = step * 64 + self.words[start + step].ilog2() as usize;
        }
        Some(step)
    }
}

/// Checks that `(schedule, tau)` is a *valid traversal* of `tree` under
/// memory bound `memory`, following the three conditions of Section 3.1, and
/// returns its total I/O volume.
pub fn check_traversal(
    tree: &Tree,
    schedule: &Schedule,
    tau: &[u64],
    memory: u64,
) -> Result<u64, TreeError> {
    schedule.validate(tree)?;
    if tau.len() != tree.len() {
        return Err(TreeError::ReportMismatch {
            field: "τ length",
            reported: tau.len() as u64,
            actual: tree.len() as u64,
        });
    }
    for node in tree.node_ids() {
        if tau[node.index()] > tree.weight(node) {
            return Err(TreeError::IoExceedsWeight {
                node,
                io: tau[node.index()],
                weight: tree.weight(node),
            });
        }
    }
    // resident = Σ over active nodes of (w_k − τ(k)); active means produced
    // and not yet consumed by the parent.
    let mut resident = 0u64;
    let mut active = vec![false; tree.len()];
    for node in schedule.iter() {
        let w = tree.weight(node);
        let cw = tree.children_weight(node);
        let wbar = w.max(cw);
        // Children contribute w_k − τ(k) to the resident set right now, but
        // during the execution of `node` they must be entirely in memory, so
        // the memory in use is (resident − Σ_children (w_k − τ(k))) + w̄_i.
        let children_resident: u64 = tree
            .children(node)
            .iter()
            .map(|&c| tree.weight(c) - tau[c.index()])
            .sum();
        let used = resident - children_resident + wbar;
        if used > memory {
            return Err(TreeError::MemoryExceeded {
                node,
                used,
                available: memory,
            });
        }
        for &c in tree.children(node) {
            debug_assert!(active[c.index()]);
            active[c.index()] = false;
        }
        resident -= children_resident;
        active[node.index()] = true;
        resident += w - tau[node.index()];
    }
    Ok(tau.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// root(5) <- a(3) <- c(4) ; root <- b(2)
    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        b.add_child(r, 2);
        b.build().unwrap()
    }

    #[test]
    fn profile_of_postorder() {
        let t = sample();
        let s = Schedule::postorder(&t);
        // postorder = [c, a, b, root]
        let p = memory_profile(&t, &s).unwrap();
        let peaks: Vec<u64> = p.steps().iter().map(|s| s.peak_during).collect();
        // c: 4 ; a: 4 (c's 4 in memory, output 3 <= 4) ; b: 3 + 2 = 5 ;
        // root: max(5, 3+2) = 5.
        assert_eq!(peaks, vec![4, 4, 5, 5]);
        assert_eq!(p.peak(), 5);
        assert_eq!(p.final_resident(), 5);
        assert_eq!(peak_memory(&t, &s).unwrap(), 5);
    }

    #[test]
    fn fif_no_io_when_memory_large() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let r = fif_io(&t, &s, 100).unwrap();
        assert_eq!(r.total_io, 0);
        assert_eq!(r.peak_in_core, 5);
        assert!((r.performance(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fif_exact_memory_no_io() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let r = fif_io(&t, &s, 5).unwrap();
        assert_eq!(r.total_io, 0);
    }

    #[test]
    fn fif_io_counted_when_memory_tight() {
        let t = sample();
        let s = Schedule::postorder(&t);
        // M = 4: executing b (w=2) with a's output (3) resident needs 5 > 4,
        // so 1 unit of a is written; executing root needs a and b entirely in
        // memory: 5 > 4 is infeasible? No: w̄_root = 5 > M = 4, infeasible.
        assert!(matches!(
            fif_io(&t, &s, 4),
            Err(TreeError::InsufficientMemory { .. })
        ));
    }

    #[test]
    fn fif_evicts_furthest_in_future() {
        // root(3) <- mid(2) <- leaf(4), and root <- leaf2(1).
        // postorder: leaf(4), mid(2), leaf2(1), root(3).
        let mut b = TreeBuilder::new();
        let r = b.add_root(3);
        let mid = b.add_child(r, 2);
        let leaf = b.add_child(mid, 4);
        b.add_child(r, 1);
        let t = b.build().unwrap();
        let s = Schedule::postorder(&t);
        // With M = 4: executing mid holds leaf's 4 units (w̄ = 4, fits with
        // nothing else active). Executing leaf2 (w = 1) with mid's 2 units
        // resident fits (3 ≤ 4). The root needs mid + leaf2 = 3 ≤ 4. No I/O.
        let res = fif_io(&t, &s, 4).unwrap();
        assert_eq!(res.total_io, 0);
        // With M = 3: executing mid still needs w̄ = 4 > 3 → infeasible.
        assert!(fif_io(&t, &s, 3).is_err());
        // Sanity: leaf weight irrelevant to eviction order here, but tau must
        // stay all-zero in the feasible run.
        assert!(res.tau.iter().all(|&x| x == 0));
        assert_eq!(tree_leaf_check(&t, leaf), 4);
    }

    fn tree_leaf_check(t: &Tree, leaf: NodeId) -> u64 {
        t.weight(leaf)
    }

    #[test]
    fn fif_partial_eviction_and_tau() {
        // root(2) <- a(3), root <- b(3); chain under a: a <- a1(4).
        // postorder [a1, a, b, root], M = 6.
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(2);
        let a = bld.add_child(r, 3);
        bld.add_child(a, 4);
        bld.add_child(r, 3);
        let t = bld.build().unwrap();
        let s = Schedule::postorder(&t);
        assert_eq!(peak_memory(&t, &s).unwrap(), 6);
        let res = fif_io(&t, &s, 6).unwrap();
        assert_eq!(res.total_io, 0);

        // M = 5: executing b (w=3) with a (3) resident → evict 1 unit of a;
        // then the root needs a and b entirely in memory: w̄_root = 6 > 5
        // → infeasible.
        assert!(fif_io(&t, &s, 5).is_err());
    }

    #[test]
    fn fif_counts_sibling_eviction() {
        // root(1) with two chains: a(2) <- la(6) and b(2) <- lb(6).
        // Postorder [la, a, lb, b, root].
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(1);
        let a = bld.add_child(r, 2);
        bld.add_child(a, 6);
        let b = bld.add_child(r, 2);
        bld.add_child(b, 6);
        let t = bld.build().unwrap();
        let s = Schedule::postorder(&t);
        // Peak of the postorder is 8 (producing lb while a's 2 units are
        // active), so M = 8 needs no I/O.
        assert_eq!(peak_memory(&t, &s).unwrap(), 8);
        let res = fif_io(&t, &s, 8).unwrap();
        assert_eq!(res.total_io, 0);
        // M = 7: producing lb (6 units) with a's 2 units active exceeds the
        // bound by 1, so exactly one unit of a is written out (and read back
        // for the root). All other steps fit.
        let res7 = fif_io(&t, &s, 7).unwrap();
        assert_eq!(res7.total_io, 1);
        assert_eq!(res7.tau[a.index()], 1);
        assert_eq!(res7.tau.iter().sum::<u64>(), 1);
        // The traversal (σ, FiF τ) must be valid under M = 7.
        assert_eq!(check_traversal(&t, &s, &res7.tau, 7).unwrap(), 1);
        // And invalid if we pretend no I/O happened.
        assert!(check_traversal(&t, &s, &vec![0; t.len()], 7).is_err());
    }

    #[test]
    fn check_traversal_rejects_overcommitted_tau() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let mut tau = vec![0u64; t.len()];
        tau[2] = 100; // exceeds w = 4
        assert!(matches!(
            check_traversal(&t, &s, &tau, 10),
            Err(TreeError::IoExceedsWeight { .. })
        ));
    }

    #[test]
    fn check_traversal_detects_memory_violation() {
        let t = sample();
        let s = Schedule::postorder(&t);
        let tau = vec![0u64; t.len()];
        assert!(matches!(
            check_traversal(&t, &s, &tau, 4),
            Err(TreeError::MemoryExceeded { .. })
        ));
        assert_eq!(check_traversal(&t, &s, &tau, 5).unwrap(), 0);
    }

    #[test]
    fn check_traversal_rejects_a_short_tau() {
        let t = sample();
        let s = Schedule::postorder(&t);
        assert_eq!(
            check_traversal(&t, &s, &[0; 3], 10),
            Err(TreeError::ReportMismatch {
                field: "τ length",
                reported: 3,
                actual: 4,
            })
        );
    }

    /// Every simulator validates before indexing, so a schedule naming a
    /// node the tree does not have is an error, not an out-of-bounds panic.
    #[test]
    fn unknown_node_is_an_error_in_every_simulator() {
        let t = sample();
        let s = Schedule::new(vec![NodeId(2), NodeId(7)]);
        let unknown = Some(TreeError::UnknownNode(NodeId(7)));
        assert_eq!(fif_io(&t, &s, 10).err(), unknown);
        assert_eq!(peak_memory(&t, &s).err(), unknown);
        assert_eq!(memory_profile(&t, &s).err(), unknown);
        assert_eq!(check_traversal(&t, &s, &[0; 4], 10).err(), unknown);
    }

    /// `StepSet` against a `BTreeSet` through inserts, removals and maxima
    /// at universe sizes of one to four levels, reset between sizes.
    #[test]
    fn step_set_tracks_the_largest_step() {
        let mut set = StepSet::default();
        assert_eq!(set.last(), None);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for n in [1, 63, 64, 65, 4096, 4097, 300_000] {
            set.reset(n);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..2_000 {
                let step = if model.is_empty() || next(3) > 0 {
                    next(n)
                } else {
                    *model.iter().nth(next(model.len())).unwrap()
                };
                if model.insert(step) {
                    set.insert(step);
                } else {
                    model.remove(&step);
                    set.remove(step);
                }
                assert_eq!(set.last(), model.last().copied(), "n = {n}");
            }
        }
    }

    #[test]
    fn subtree_schedule_simulation() {
        let t = sample();
        let s = Schedule::new(vec![NodeId(2), NodeId(1)]);
        let p = memory_profile(&t, &s).unwrap();
        assert_eq!(p.peak(), 4);
        let r = fif_io(&t, &s, 4).unwrap();
        assert_eq!(r.total_io, 0);
    }
}
