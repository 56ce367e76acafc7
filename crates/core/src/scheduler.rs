//! The open scheduling interface: the [`Scheduler`] trait and the built-in
//! strategy adapters.
//!
//! Every scheduling strategy — the paper's as well as user-defined ones —
//! implements [`Scheduler`]: map `(tree, M)` to an execution order. The
//! charged I/O volume is always the one produced by the Furthest-in-the-Future
//! simulator on that order ([`oocts_tree::fif_io`]), which Theorem 1 makes the
//! fairest possible accounting; the provided [`Scheduler::solve`] method
//! performs that simulation and packages the outcome as a [`SolveReport`].
//!
//! The five built-in strategies are zero-cost adapter types
//! ([`PostOrderMinIo`], [`OptMinMem`], [`RecExpand`], [`FullRecExpand`],
//! [`PostOrderMinMem`]), plus a seeded tie-breaking baseline
//! ([`RandomPostOrder`]) demonstrating parameterized schedulers. Name-based
//! lookup and registration of custom strategies live in
//! [`crate::registry`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use oocts_tree::{fif_io, peak_memory, Schedule, Tree, TreeError};

use crate::postorder::post_order_min_io;
use crate::recexpand::rec_expand_with_limit;

/// A scheduling strategy for the MinIO problem.
///
/// Implementors only choose an execution order; I/O accounting is uniform
/// across all strategies (the FiF simulator, via [`Scheduler::solve`]). The
/// trait is object-safe: the experiment runner, the figure binaries and the
/// registry all work with `Arc<dyn Scheduler>`.
///
/// A strategy must depend only on the tree's shape, its weights and each
/// node's child order, never on the numeric node ids: the experiment runner
/// may hand it a copy of a large instance renumbered in postorder
/// ([`Tree::renumbered_in_postorder`]), in which sibling order is kept but
/// every id changes. Every built-in meets this: where one breaks a tie on
/// ids, the tie is between siblings, whose ids ascend in child order in
/// both numberings.
pub trait Scheduler: Send + Sync {
    /// The strategy's display name, also its registry key. Parameterized
    /// schedulers should render their parameters in the canonical spec
    /// syntax, e.g. `"RecExpand(max_rounds=3)"`, so that the name resolves
    /// back to an equivalent scheduler through
    /// [`crate::registry::SchedulerRegistry::get`].
    fn name(&self) -> String;

    /// Computes the execution order for `tree` under memory bound `memory`.
    fn schedule(&self, tree: &Tree, memory: u64) -> Result<Schedule, TreeError>;

    /// Like [`Scheduler::schedule`], additionally reporting node-expansion
    /// statistics. Strategies that do not expand nodes keep the default
    /// (empty stats).
    fn schedule_with_stats(
        &self,
        tree: &Tree,
        memory: u64,
    ) -> Result<(Schedule, ExpansionStats), TreeError> {
        Ok((self.schedule(tree, memory)?, ExpansionStats::default()))
    }

    /// Runs the strategy and measures it: FiF I/O volume, the paper's
    /// performance metric, the schedule's in-core peak, expansion statistics
    /// and scheduling wall-time.
    ///
    /// # Errors
    /// [`TreeError::ZeroMemory`] if `memory` is zero (the performance
    /// `(M + IO)/M` is undefined there), otherwise any error of the
    /// strategy or of the FiF replay.
    fn solve(&self, tree: &Tree, memory: u64) -> Result<SolveReport, TreeError> {
        if memory == 0 {
            return Err(TreeError::ZeroMemory);
        }
        let started = Instant::now();
        let (schedule, expansion) = self.schedule_with_stats(tree, memory)?;
        let wall_time = started.elapsed();
        // One simulation: the FiF replay also tracks the in-core peak.
        let io = fif_io(tree, &schedule, memory)?;
        let report = SolveReport {
            scheduler: self.name(),
            io_volume: io.total_io,
            performance: io.performance(memory),
            peak_memory: io.peak_in_core,
            expansion,
            wall_time,
            schedule,
        };
        // Invariant layer: in debug builds, every solve re-checks its own
        // report (full coverage, valid schedule, and the peak recomputed from
        // the schedule's memory profile).
        debug_assert!(
            report.validate(tree).is_ok(),
            "scheduler {} produced an inconsistent report: {:?}",
            report.scheduler,
            report.validate(tree)
        );
        Ok(report)
    }
}

/// Node-expansion statistics of one scheduling run (all zeros for strategies
/// that never expand nodes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpansionStats {
    /// Number of node expansions performed.
    pub expansions: usize,
    /// Total I/O forced through the expansions.
    pub forced_io: u64,
    /// `true` if the safety cap on expansion iterations was reached.
    pub hit_iteration_cap: bool,
}

/// The outcome of running one [`Scheduler`] on one instance.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// [`Scheduler::name`] of the strategy that produced this report.
    pub scheduler: String,
    /// Total I/O volume of the schedule under the FiF policy.
    pub io_volume: u64,
    /// The paper's performance metric `(M + IO)/M`.
    pub performance: f64,
    /// In-core peak memory of the schedule (what the order would need to run
    /// without any I/O).
    pub peak_memory: u64,
    /// Node-expansion statistics (zero for non-expanding strategies).
    pub expansion: ExpansionStats,
    /// Wall-clock time spent computing the schedule (excludes simulation).
    pub wall_time: Duration,
    /// The schedule itself.
    pub schedule: Schedule,
}

impl SolveReport {
    /// Checks this report against the instance it was produced for: the
    /// tree is well-formed, the schedule is a valid order that executes
    /// *every* node exactly once, and the reported in-core peak matches a
    /// recomputation from the schedule.
    ///
    /// [`Scheduler::solve`] runs this via `debug_assert!` on every call, so
    /// each existing test doubles as an invariant test; call it directly to
    /// check reports crossing a trust boundary in release builds too.
    pub fn validate(&self, tree: &Tree) -> Result<(), TreeError> {
        tree.validate()?;
        // `peak_memory` validates the schedule first, so its errors still
        // come before the node count's.
        let peak = peak_memory(tree, &self.schedule)?;
        if self.schedule.len() != tree.len() {
            return Err(TreeError::ReportMismatch {
                field: "scheduled node count",
                reported: self.schedule.len() as u64,
                actual: tree.len() as u64,
            });
        }
        if peak != self.peak_memory {
            return Err(TreeError::ReportMismatch {
                field: "in-core peak memory",
                reported: self.peak_memory,
                actual: peak,
            });
        }
        Ok(())
    }
}

/// Best postorder for I/O volume (Section 4.1; Agullo).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostOrderMinIo;

impl Scheduler for PostOrderMinIo {
    fn name(&self) -> String {
        "PostOrderMinIO".to_string()
    }

    fn schedule(&self, tree: &Tree, memory: u64) -> Result<Schedule, TreeError> {
        Ok(post_order_min_io(tree, memory).0)
    }
}

/// Liu's optimal peak-memory traversal, run out-of-core with FiF
/// (Section 4.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptMinMem;

impl Scheduler for OptMinMem {
    fn name(&self) -> String {
        "OptMinMem".to_string()
    }

    fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
        Ok(oocts_minmem::opt_min_mem(tree).0)
    }
}

/// Best postorder for peak memory (Liu 1986), as an extra baseline not
/// plotted in the paper but useful for ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostOrderMinMem;

impl Scheduler for PostOrderMinMem {
    fn name(&self) -> String {
        "PostOrderMinMem".to_string()
    }

    fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
        Ok(oocts_minmem::post_order_min_mem(tree).0)
    }
}

/// The paper's cheap heuristic (Section 5): at most [`RecExpand::max_rounds`]
/// expansion rounds per node. The paper fixes the limit to 2; other limits
/// are exposed for ablations (`RecExpand { max_rounds: 5 }` or, through the
/// registry, `"RecExpand(max_rounds=5)"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecExpand {
    /// Maximum number of expansion iterations per node.
    pub max_rounds: usize,
}

impl Default for RecExpand {
    fn default() -> Self {
        RecExpand {
            max_rounds: Self::PAPER_ROUNDS,
        }
    }
}

impl RecExpand {
    /// The per-node iteration limit used throughout the paper.
    pub const PAPER_ROUNDS: usize = 2;

    /// The paper's configuration (`max_rounds = 2`), as a `const` for
    /// contexts where `Default::default()` is unavailable.
    pub const PAPER: RecExpand = RecExpand {
        max_rounds: Self::PAPER_ROUNDS,
    };
}

impl Scheduler for RecExpand {
    fn name(&self) -> String {
        if self.max_rounds == Self::PAPER_ROUNDS {
            "RecExpand".to_string()
        } else {
            format!("RecExpand(max_rounds={})", self.max_rounds)
        }
    }

    fn schedule(&self, tree: &Tree, memory: u64) -> Result<Schedule, TreeError> {
        Ok(self.schedule_with_stats(tree, memory)?.0)
    }

    fn schedule_with_stats(
        &self,
        tree: &Tree,
        memory: u64,
    ) -> Result<(Schedule, ExpansionStats), TreeError> {
        let out = rec_expand_with_limit(tree, memory, Some(self.max_rounds))?;
        let stats = ExpansionStats {
            expansions: out.expansions,
            forced_io: out.forced_io,
            hit_iteration_cap: out.hit_iteration_cap,
        };
        Ok((out.schedule, stats))
    }
}

/// The paper's full heuristic (Section 5): expansion rounds until the subtree
/// fits. Expensive; the paper only runs it on the SYNTH dataset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullRecExpand;

impl Scheduler for FullRecExpand {
    fn name(&self) -> String {
        "FullRecExpand".to_string()
    }

    fn schedule(&self, tree: &Tree, memory: u64) -> Result<Schedule, TreeError> {
        Ok(self.schedule_with_stats(tree, memory)?.0)
    }

    fn schedule_with_stats(
        &self,
        tree: &Tree,
        memory: u64,
    ) -> Result<(Schedule, ExpansionStats), TreeError> {
        let out = rec_expand_with_limit(tree, memory, None)?;
        let stats = ExpansionStats {
            expansions: out.expansions,
            forced_io: out.forced_io,
            hit_iteration_cap: out.hit_iteration_cap,
        };
        Ok((out.schedule, stats))
    }
}

/// A seeded random postorder: children are visited in an order shuffled by a
/// per-node splitmix64 stream. A deliberately weak baseline that shows how
/// parameterized (here: seeded) schedulers flow through the registry; also
/// handy to estimate how much of `PostOrderMinIO`'s quality comes from its
/// child ordering rather than from postorder structure itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomPostOrder {
    /// Seed of the shuffling stream; equal seeds give equal schedules.
    pub seed: u64,
}

impl Scheduler for RandomPostOrder {
    fn name(&self) -> String {
        format!("RandomPostOrder(seed={})", self.seed)
    }

    fn schedule(&self, tree: &Tree, _memory: u64) -> Result<Schedule, TreeError> {
        let mut order = Vec::with_capacity(tree.len());
        let mut state = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        // Explicit stack (chain-shaped TREES instances would overflow the
        // call stack): `true` marks a node whose children are already done.
        let mut stack = vec![(tree.root(), false)];
        while let Some((node, children_done)) = stack.pop() {
            if children_done {
                order.push(node);
                continue;
            }
            stack.push((node, true));
            let mut children = tree.children(node).to_vec();
            // Fisher–Yates with the splitmix64 stream.
            for i in (1..children.len()).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                children.swap(i, j);
            }
            // Reversed, so the first shuffled child is popped (visited) first.
            for &child in children.iter().rev() {
                stack.push((child, false));
            }
        }
        Ok(Schedule::new(order))
    }
}

/// splitmix64 step: the simplest high-quality deterministic stream, avoiding
/// a dependency of `oocts-core` on an RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The four strategies compared on the SYNTH dataset (paper, Figure 4).
pub fn synth_schedulers() -> Vec<Arc<dyn Scheduler>> {
    vec![
        Arc::new(PostOrderMinIo),
        Arc::new(OptMinMem),
        Arc::new(RecExpand::default()),
        Arc::new(FullRecExpand),
    ]
}

/// The three strategies compared on the TREES dataset (paper, Figure 5):
/// `FullRecExpand` is excluded because of its computational cost.
pub fn trees_schedulers() -> Vec<Arc<dyn Scheduler>> {
    vec![
        Arc::new(PostOrderMinIo),
        Arc::new(OptMinMem),
        Arc::new(RecExpand::default()),
    ]
}

/// Every built-in strategy, in a fixed column order (the seeded baseline
/// last).
pub fn builtin_schedulers() -> Vec<Arc<dyn Scheduler>> {
    vec![
        Arc::new(PostOrderMinIo),
        Arc::new(OptMinMem),
        Arc::new(RecExpand::default()),
        Arc::new(FullRecExpand),
        Arc::new(PostOrderMinMem),
        Arc::new(RandomPostOrder::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::{NodeId, TreeBuilder};

    fn fig6_tree() -> Tree {
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
    fn every_builtin_produces_a_valid_full_schedule() {
        let t = fig6_tree();
        for s in builtin_schedulers() {
            let report = s.solve(&t, 10).unwrap();
            report.schedule.validate(&t).unwrap();
            assert_eq!(
                report.schedule.len(),
                t.len(),
                "{} must cover the tree",
                s.name()
            );
            assert!(report.performance >= 1.0);
            assert_eq!(report.scheduler, s.name());
        }
    }

    #[test]
    fn solve_reports_are_rich_and_consistent() {
        let t = fig6_tree();
        let report = RecExpand::default().solve(&t, 10).unwrap();
        let expected = (10 + report.io_volume) as f64 / 10.0;
        assert!((report.performance - expected).abs() < 1e-12);
        assert!(report.peak_memory >= t.min_feasible_memory());
        assert!(
            report.expansion.expansions >= 1,
            "fig6 at M=10 forces expansions"
        );
        assert!(!report.expansion.hit_iteration_cap);
        // Non-expanding strategies report empty stats.
        let po = PostOrderMinIo.solve(&t, 10).unwrap();
        assert_eq!(po.expansion, ExpansionStats::default());
    }

    /// A report crossing a trust boundary may name nodes the tree does not
    /// have: validating it is an error, not an out-of-bounds panic.
    #[test]
    fn report_naming_an_unknown_node_fails_validation() {
        let mut b = TreeBuilder::new();
        let root = b.add_root(1);
        b.add_child(root, 2);
        b.add_child(root, 3);
        let t = b.build().unwrap();
        let mut report = OptMinMem.solve(&t, 5).unwrap();
        report.validate(&t).unwrap();
        let full = report.schedule.into_order();
        let mut order = full.clone();
        order[0] = NodeId(7);
        report.schedule = Schedule::new(order);
        assert_eq!(report.validate(&t), Err(TreeError::UnknownNode(NodeId(7))));
        // A schedule that omits a node: without the root it is a valid
        // partial schedule and fails on the node count, before its (smaller)
        // peak is compared; without a leaf it is invalid, and the schedule
        // error comes first.
        report.schedule = Schedule::new(full[..2].to_vec());
        assert_eq!(
            report.validate(&t),
            Err(TreeError::ReportMismatch {
                field: "scheduled node count",
                reported: 2,
                actual: 3,
            })
        );
        report.schedule = Schedule::new(full[1..].to_vec());
        assert_eq!(
            report.validate(&t),
            Err(TreeError::MissingChild {
                node: root,
                child: full[0],
            })
        );
        // The full schedule with a wrong peak fails on the peak.
        report.schedule = Schedule::new(full);
        report.peak_memory += 1;
        assert!(matches!(
            report.validate(&t),
            Err(TreeError::ReportMismatch {
                field: "in-core peak memory",
                ..
            })
        ));
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            builtin_schedulers().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), builtin_schedulers().len());
    }

    #[test]
    fn parameterized_names_render_their_parameters() {
        assert_eq!(RecExpand::default().name(), "RecExpand");
        assert_eq!(
            RecExpand { max_rounds: 5 }.name(),
            "RecExpand(max_rounds=5)"
        );
        assert_eq!(
            RandomPostOrder { seed: 7 }.name(),
            "RandomPostOrder(seed=7)"
        );
    }

    #[test]
    fn postorder_schedulers_return_postorders() {
        let t = fig6_tree();
        let pos: [Arc<dyn Scheduler>; 3] = [
            Arc::new(PostOrderMinIo),
            Arc::new(PostOrderMinMem),
            Arc::new(RandomPostOrder { seed: 3 }),
        ];
        for s in pos {
            let sched = s.schedule(&t, 10).unwrap();
            assert!(
                sched.is_postorder(&t),
                "{} must return a postorder",
                s.name()
            );
        }
    }

    #[test]
    fn random_postorder_is_deterministic_per_seed() {
        let t = fig6_tree();
        let a = RandomPostOrder { seed: 1 }.schedule(&t, 10).unwrap();
        let b = RandomPostOrder { seed: 1 }.schedule(&t, 10).unwrap();
        assert_eq!(a.order(), b.order());
        // Some seed must differ from seed 1 on this 8-node tree.
        let mut differs = false;
        for seed in 2..20 {
            let c = RandomPostOrder { seed }.schedule(&t, 10).unwrap();
            c.validate(&t).unwrap();
            differs |= c.order() != a.order();
        }
        assert!(differs, "shuffling must actually depend on the seed");
    }

    #[test]
    fn random_postorder_handles_deep_chains_without_recursion() {
        // Chain-shaped assembly trees (RCM orderings) reach tens of
        // thousands of levels; the traversal must not use the call stack.
        let mut b = TreeBuilder::new();
        let mut node = b.add_root(1);
        for _ in 0..200_000 {
            node = b.add_child(node, 1);
        }
        let t = b.build().unwrap();
        let s = RandomPostOrder { seed: 5 }.schedule(&t, 10).unwrap();
        assert_eq!(s.len(), t.len());
        assert!(s.is_postorder(&t));
    }

    #[test]
    fn rec_expand_rounds_match_the_ablation_api() {
        let t = fig6_tree();
        for rounds in [1usize, 2, 3] {
            let via_trait = RecExpand { max_rounds: rounds }.schedule(&t, 10).unwrap();
            let direct = rec_expand_with_limit(&t, 10, Some(rounds))
                .unwrap()
                .schedule;
            assert_eq!(via_trait.order(), direct.order());
        }
    }
}
