//! Property tests for the MinIO algorithms: optimality relations, exactness
//! of the analytic formulas, and the homogeneous-tree theory, all validated
//! against brute force on random small trees.

use oocts_core::bruteforce::brute_force_min_io;
use oocts_core::homogeneous;
use oocts_core::postorder::post_order_min_io;
use oocts_core::recexpand::{full_rec_expand, rec_expand, rec_expand_with_limit, RecExpandOutcome};
use oocts_core::scheduler::{
    builtin_schedulers, FullRecExpand, OptMinMem, PostOrderMinIo, RecExpand, Scheduler,
};
use oocts_core::theorem2::schedule_for_io_function;
use oocts_minmem::{opt_min_mem, PeakCache};
use oocts_tree::{
    check_traversal, fif_io, fif_io_with, ExpandedTree, FifScratch, NodeId, Schedule, Tree,
};
use proptest::prelude::*;

/// The task-list OptMinMem the hill–valley cache replaced, shared with the
/// differential tests of `oocts-minmem`.
#[path = "../../minmem/tests/reference/mod.rs"]
mod reference;

/// Random trees with `n ∈ [1, max_nodes]` nodes and weights in `[1, max_weight]`.
fn random_tree(max_nodes: usize, max_weight: u64) -> impl Strategy<Value = Tree> {
    (1..=max_nodes)
        .prop_flat_map(move |n| {
            let weights = proptest::collection::vec(1..=max_weight, n);
            let parents: Vec<BoxedStrategy<usize>> = (0..n)
                .map(|i| {
                    if i == 0 {
                        Just(0usize).boxed()
                    } else {
                        (0..i).boxed()
                    }
                })
                .collect();
            (weights, parents)
        })
        .prop_map(|(weights, parents)| {
            let opts: Vec<Option<usize>> = parents
                .iter()
                .enumerate()
                .map(|(i, &p)| if i == 0 { None } else { Some(p) })
                .collect();
            Tree::from_parents(&weights, &opts).expect("valid random tree")
        })
}

/// Random binary trees: [`random_tree`]'s, with node `i` moved under node
/// `i − 1` whenever its parent already has two children. [`random_tree`]'s
/// bushy roots make `w̄_root` the optimal peak of most instances, so
/// RecExpand rarely expands on them; like the paper's SYNTH trees, these
/// mostly need I/O below their in-core peak, often several expansions.
fn binary_tree(max_nodes: usize, max_weight: u64) -> impl Strategy<Value = Tree> {
    random_tree(max_nodes, max_weight).prop_map(|tree| {
        let mut arity = vec![0u8; tree.len()];
        let mut parents = vec![None; tree.len()];
        for v in tree.node_ids().skip(1) {
            let p = tree.parent(v).expect("only node 0 is a root").index();
            // Node i − 1 has no child yet: children have larger indices.
            let p = if arity[p] < 2 { p } else { v.index() - 1 };
            arity[p] += 1;
            parents[v.index()] = Some(p);
        }
        let weights: Vec<u64> = tree.node_ids().map(|v| tree.weight(v)).collect();
        Tree::from_parents(&weights, &parents).expect("valid random tree")
    })
}

/// A feasible memory bound drawn between the structural lower bound and the
/// optimal in-core peak (the interesting range of the paper).
fn feasible_memory(tree: &Tree, fraction: f64) -> u64 {
    let lb = tree.min_feasible_memory();
    let peak = oocts_minmem::opt_min_mem_peak(tree);
    let span = peak.saturating_sub(lb);
    lb + (span as f64 * fraction).round() as u64
}

/// The paper's three memory bounds: LB, Mmid = (LB + Peak − 1) / 2 and
/// Peak − 1, each clamped to at least LB.
fn paper_bounds(tree: &Tree) -> [u64; 3] {
    let lb = tree.min_feasible_memory();
    let below_peak = oocts_minmem::opt_min_mem_peak(tree).saturating_sub(1);
    [lb, ((lb + below_peak) / 2).max(lb), below_peak.max(lb)]
}

/// Reference RecExpand: Algorithm 2 as written, re-solving OptMinMem from
/// scratch (with the reference composition, not the cache) on the whole
/// subtree of `r` before every peak test, scanning every node for the
/// victim, and solving the final expanded tree from scratch too. The
/// production loop must match it exactly.
///
/// Alongside, it maintains a [`PeakCache`] the way the production loop
/// does (each node of the walk, then the new chain and its ancestors up to
/// `r` after an expansion) and checks, after every expansion, that the
/// cached peak and traversal of every node reached so far equal a fresh
/// solve — and at the end, that every node's do.
fn reference_rec_expand(tree: &Tree, memory: u64, limit: Option<usize>) -> RecExpandOutcome {
    let mut expanded = ExpandedTree::new(tree);
    let cap = 64 * tree.len().max(16);
    let mut hit_cap = false;
    let mut peaks = PeakCache::new();
    let mut fif = FifScratch::new();
    let mut order = Vec::new();
    let mut check = |peaks: &PeakCache, tree: &Tree, v: NodeId, when: &str| {
        let (schedule, peak) = reference::opt_min_mem_subtree(tree, v);
        assert_eq!(peaks.peak(v), peak, "{when} cached peak of {v:?}");
        peaks.schedule_into(tree, v, &mut order);
        assert_eq!(order, schedule, "{when} cached traversal of {v:?}");
    };
    'outer: for &r in tree.postorder() {
        peaks.update(expanded.tree(), r);
        if tree.is_leaf(r) {
            continue;
        }
        let mut iterations = 0usize;
        loop {
            let (schedule, peak) = reference::opt_min_mem_subtree(expanded.tree(), r);
            let schedule = Schedule::new(schedule);
            check(&peaks, expanded.tree(), r, "current");
            if peak <= memory || limit.is_some_and(|l| iterations >= l) {
                break;
            }
            if expanded.expansions() >= cap {
                hit_cap = true;
                break 'outer;
            }
            iterations += 1;
            let io = fif_io_with(expanded.tree(), &schedule, memory, &mut fif).unwrap();
            let positions = schedule.positions(expanded.tree());
            let victim = expanded
                .tree()
                .node_ids()
                .filter(|v| io.tau[v.index()] > 0)
                .max_by_key(|&v| {
                    let parent_pos = expanded
                        .tree()
                        .parent(v)
                        .map_or(usize::MAX, |p| positions[p.index()]);
                    (parent_pos, std::cmp::Reverse(v))
                })
                .expect("peak exceeds M, so FiF performs I/O");
            let (mid, _) = expanded.expand(victim, io.tau[victim.index()]);
            let mut node = mid;
            loop {
                peaks.update(expanded.tree(), node);
                if node == r {
                    break;
                }
                node = expanded
                    .tree()
                    .parent(node)
                    .expect("r is an ancestor of the chain");
            }
            // Every node the walk has reached: the original nodes up to `r`
            // in postorder, and every inserted chain node.
            let reached = |v: NodeId| {
                v.index() >= tree.len() || tree.postorder_position(v) <= tree.postorder_position(r)
            };
            for v in expanded.tree().node_ids().filter(|&v| reached(v)) {
                check(&peaks, expanded.tree(), v, "after an expansion,");
            }
        }
    }
    if !hit_cap {
        for v in expanded.tree().node_ids() {
            check(&peaks, expanded.tree(), v, "final");
        }
    }
    let root = expanded.tree().root();
    let (schedule, _) = reference::opt_min_mem_subtree(expanded.tree(), root);
    RecExpandOutcome {
        schedule: expanded.to_original_schedule(&Schedule::new(schedule)),
        forced_io: expanded.total_forced_io(),
        expansions: expanded.expansions(),
        hit_iteration_cap: hit_cap,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The peak-cache RecExpand loop is the full-re-solve loop, exactly:
    /// same schedule, expansions, forced I/O and cap flag, for every
    /// iteration limit at the paper's three memory bounds.
    #[test]
    fn rec_expand_matches_the_full_resolve_reference(tree in binary_tree(60, 10)) {
        for memory in paper_bounds(&tree) {
            for limit in [Some(1), Some(2), Some(5), None] {
                let got = rec_expand_with_limit(&tree, memory, limit).unwrap();
                let want = reference_rec_expand(&tree, memory, limit);
                prop_assert_eq!(got.schedule.order(), want.schedule.order(), "M = {}, limit {:?}", memory, limit);
                prop_assert_eq!(got.expansions, want.expansions);
                prop_assert_eq!(got.forced_io, want.forced_io);
                prop_assert_eq!(got.hit_iteration_cap, want.hit_iteration_cap);
            }
        }
    }

    /// Every heuristic is at least as expensive as the brute-force optimum and
    /// the generic lower bound `OptPeak − M`.
    #[test]
    fn heuristics_dominate_the_optimum(tree in random_tree(8, 9), frac in 0.0f64..=1.0) {
        let m = feasible_memory(&tree, frac);
        let (_, best) = brute_force_min_io(&tree, m).unwrap();
        let opt_peak = oocts_minmem::opt_min_mem_peak(&tree);
        prop_assert!(best >= opt_peak.saturating_sub(m));
        for scheduler in builtin_schedulers() {
            let report = scheduler.solve(&tree, m).unwrap();
            prop_assert!(
                report.io_volume >= best,
                "{} reported {} I/Os, below the optimum {best}",
                scheduler.name(),
                report.io_volume
            );
        }
    }

    /// The analytic `V_root` of PostOrderMinIO equals the FiF simulation of
    /// the schedule it returns.
    #[test]
    fn postorder_analysis_matches_simulation(tree in random_tree(16, 12), frac in 0.0f64..=1.0) {
        let m = feasible_memory(&tree, frac);
        let (schedule, analysis) = post_order_min_io(&tree, m);
        let sim = fif_io(&tree, &schedule, m).unwrap();
        prop_assert_eq!(analysis.total_io(&tree), sim.total_io);
    }

    /// On homogeneous trees: W(T) is simultaneously the I/O of PostOrderMinIO,
    /// the brute-force optimum, and a lower bound on every other heuristic.
    #[test]
    fn homogeneous_postorder_is_optimal(tree in random_tree(8, 1), m in 1u64..=4) {
        let lb = tree.min_feasible_memory();
        let m = m.max(lb);
        let w_t = homogeneous::min_io(&tree, m).unwrap();
        let (_, best) = brute_force_min_io(&tree, m).unwrap();
        prop_assert_eq!(w_t, best, "W(T) must equal the optimum");
        let po = PostOrderMinIo.solve(&tree, m).unwrap();
        prop_assert_eq!(po.io_volume, best, "PostOrderMinIO must be optimal (Theorem 4)");
        for scheduler in builtin_schedulers() {
            let report = scheduler.solve(&tree, m).unwrap();
            prop_assert!(report.io_volume >= w_t);
        }
    }

    /// Theorem 2 round-trip: the FiF I/O function of any heuristic schedule is
    /// feasible, and the schedule reconstructed from it is a valid traversal
    /// with that same I/O function.
    #[test]
    fn theorem2_roundtrip(tree in random_tree(10, 9), frac in 0.0f64..=1.0) {
        let m = feasible_memory(&tree, frac);
        let (schedule, _) = opt_min_mem(&tree);
        let sim = fif_io(&tree, &schedule, m).unwrap();
        let rebuilt = schedule_for_io_function(&tree, &sim.tau, m).unwrap();
        let total = check_traversal(&tree, &rebuilt, &sim.tau, m).unwrap();
        prop_assert_eq!(total, sim.total_io);
    }

    /// RecExpand and FullRecExpand always produce valid full schedules, never
    /// hit the safety cap on these sizes, and FullRecExpand's forced I/O is an
    /// upper bound on the measured I/O of its schedule.
    #[test]
    fn recexpand_invariants(tree in random_tree(10, 9), frac in 0.0f64..=1.0) {
        let m = feasible_memory(&tree, frac);
        for limited in [true, false] {
            let out = if limited { rec_expand(&tree, m) } else { full_rec_expand(&tree, m) }.unwrap();
            out.schedule.validate(&tree).unwrap();
            prop_assert_eq!(out.schedule.len(), tree.len());
            prop_assert!(!out.hit_iteration_cap);
            let measured = fif_io(&tree, &out.schedule, m).unwrap().total_io;
            if !limited {
                // FullRecExpand expands until the tree fits, so the forced
                // I/O pays for everything the schedule needs.
                prop_assert!(measured <= out.forced_io,
                    "measured {measured} > forced {}", out.forced_io);
            }
        }
    }

    /// The FiF I/O of any algorithm is zero as soon as the memory bound
    /// reaches the optimal in-core peak.
    #[test]
    fn no_io_at_incore_peak(tree in random_tree(12, 9)) {
        let peak = oocts_minmem::opt_min_mem_peak(&tree);
        let schedulers: [&dyn Scheduler; 3] = [&OptMinMem, &RecExpand::PAPER, &FullRecExpand];
        for scheduler in schedulers {
            let report = scheduler.solve(&tree, peak).unwrap();
            prop_assert_eq!(report.io_volume, 0, "{} should need no I/O at M = peak", scheduler.name());
        }
    }
}
