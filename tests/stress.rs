//! Million-node stress test for the arena and the scratch-space hot paths.
//!
//! Ignored by default (it is a wall-time benchmark as much as a test); CI
//! runs it explicitly in release mode:
//!
//! ```text
//! cargo test --release --test stress -- --ignored --nocapture
//! ```
//!
//! The instance is a TREES-style complete binary tree of 2^20 − 1 nodes
//! with depth-dependent weights (heavier towards the leaves, as in the
//! paper's elimination-tree datasets, where the large fronts sit deep).
//! The RecExpand test adds a 100,000-node chain, the extreme of the deep
//! elimination trees that Reverse Cuthill–McKee orderings produce.

use std::time::Instant;

use oocts::core::recexpand::rec_expand_with_limit;
use oocts::minmem::{opt_min_mem_peak, post_order_min_mem};
use oocts::prelude::*;

mod common;

/// 2^20 − 1 = 1 048 575 nodes.
const HEIGHT: usize = 19;

/// Length of the deep chain.
const CHAIN: usize = 100_000;

fn million_node_tree() -> Tree {
    // Heavier leaves, so the merge paths see large segments.
    common::depth_weighted_kary(2, HEIGHT)
}

/// A chain of `CHAIN` nodes with weights cycling through 1..=7, so the
/// hill–valley sequences are not trivial.
fn long_chain() -> Tree {
    let weights: Vec<u64> = (0..CHAIN).map(|i| 1 + (i as u64 * 5) % 7).collect();
    let parents: Vec<Option<usize>> = (0..CHAIN).map(|i| i.checked_sub(1)).collect();
    Tree::from_parents(&weights, &parents).unwrap()
}

/// At `M = Peak_incore` every subtree fits, so RecExpand and FullRecExpand
/// expand nothing and return OptMinMem's schedule. Re-solving every inner
/// node's subtree would cost Σ subtree sizes ≈ 5·10^9 node visits on the
/// chain; the peak cache makes it one Liu pass plus the final solve.
#[test]
#[ignore = "million-node stress: run explicitly in release (CI does)"]
fn rec_expand_at_the_incore_peak_expands_nothing() {
    for (name, tree) in [("chain", long_chain()), ("binary", million_node_tree())] {
        let (s_opt, peak) = opt_min_mem(&tree);
        for (variant, limit) in [("RecExpand", Some(2)), ("FullRecExpand", None)] {
            let t = Instant::now();
            let out = rec_expand_with_limit(&tree, peak, limit).unwrap();
            println!(
                "{variant} on the {name} ({} nodes) at M = {peak}: {:.3}s",
                tree.len(),
                t.elapsed().as_secs_f64()
            );
            assert_eq!(out.expansions, 0, "{variant} expanded at M = Peak_incore");
            assert_eq!(out.forced_io, 0);
            assert!(!out.hit_iteration_cap);
            assert_eq!(out.schedule.order(), s_opt.order());
        }
    }
}

#[test]
#[ignore = "million-node stress: run explicitly in release (CI does)"]
fn million_node_tree_through_liu_and_postorder() {
    let started = Instant::now();
    let tree = million_node_tree();
    println!(
        "build: {} nodes, height {}, {:.3}s",
        tree.len(),
        tree.height(),
        started.elapsed().as_secs_f64()
    );
    assert_eq!(tree.len(), (1 << (HEIGHT + 1)) - 1);
    assert_eq!(tree.height(), HEIGHT);
    assert_eq!(tree.postorder().len(), tree.len());

    // Liu's OptMinMem over the full arena.
    let t = Instant::now();
    let (s_opt, peak_opt) = opt_min_mem(&tree);
    println!(
        "OptMinMem: peak {peak_opt}, {:.3}s",
        t.elapsed().as_secs_f64()
    );
    assert_eq!(s_opt.len(), tree.len());
    assert_eq!(opt_min_mem_peak(&tree), peak_opt);

    // Best postorder for peak memory.
    let t = Instant::now();
    let (s_post, peak_post) = post_order_min_mem(&tree);
    println!(
        "PostOrderMinMem: peak {peak_post}, {:.3}s",
        t.elapsed().as_secs_f64()
    );
    assert_eq!(s_post.len(), tree.len());
    assert!(s_post.is_postorder(&tree));

    // Peak-memory monotonicity: LB ≤ optimal ≤ best postorder ≤ Σ w.
    let lb = tree.min_feasible_memory();
    let total = tree.total_weight();
    assert!(lb <= peak_opt, "optimal peak below the feasibility bound");
    assert!(
        peak_opt <= peak_post,
        "a postorder beat the optimal traversal: {peak_post} < {peak_opt}"
    );
    assert!(peak_post <= total, "peak above the total weight");

    // Replay the optimal traversal out-of-core at the Middle bound and
    // check the simulated in-core peak agrees with the solver's claim.
    let m = (lb + peak_opt) / 2;
    let t = Instant::now();
    let io = fif_io(&tree, &s_opt, m).unwrap();
    println!(
        "FiF at Mmid={m}: io {}, {:.3}s",
        io.total_io,
        t.elapsed().as_secs_f64()
    );
    assert!(io.total_io > 0, "Mmid is below the peak, I/O must occur");
    assert_eq!(io.peak_in_core, peak_memory(&tree, &s_opt).unwrap());
    assert_eq!(io.peak_in_core, peak_opt);

    println!("total: {:.3}s", started.elapsed().as_secs_f64());
}

/// The best-postorder I/O analysis also completes at this scale and its
/// prediction matches the FiF simulation exactly.
#[test]
#[ignore = "million-node stress: run explicitly in release (CI does)"]
fn million_node_postorder_io_analysis_matches_simulation() {
    let tree = million_node_tree();
    let lb = tree.min_feasible_memory();
    let m = lb + (opt_min_mem_peak(&tree) - lb) / 4;

    let t = Instant::now();
    let (schedule, analysis) = post_order_min_io(&tree, m);
    println!(
        "PostOrderMinIO: predicted io {}, {:.3}s",
        analysis.total_io(&tree),
        t.elapsed().as_secs_f64()
    );
    let sim = fif_io(&tree, &schedule, m).unwrap();
    assert_eq!(
        analysis.total_io(&tree),
        sim.total_io,
        "analysis and FiF simulation disagree at the million-node scale"
    );
}
