//! Multifrontal workflow: from a sparse matrix to an out-of-core factorization
//! schedule.
//!
//! This is the scenario that motivates the paper: the elimination tree of a
//! sparse Cholesky factorization manipulates contribution blocks that are too
//! large to keep in memory all at once, and the traversal order decides how
//! much of them must be written to disk.
//!
//! Run with: `cargo run --release --example multifrontal [grid_side]`

use oocts::prelude::*;
use oocts_profile::bounds::{MemoryBound, MemoryBounds};
use oocts_sparse::ordering::{compute_ordering, Ordering};
use oocts_sparse::{assembly_tree, grid_laplacian_2d, AssemblyOptions};

fn main() {
    let side: usize = std::env::args_os()
        .nth(1)
        .map(|raw| {
            raw.into_string().unwrap_or_else(|raw| {
                eprintln!(
                    "multifrontal: argument {:?} is not valid UTF-8",
                    raw.to_string_lossy()
                );
                std::process::exit(2);
            })
        })
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);

    println!("== multifrontal factorization of a {side}x{side} grid Laplacian ==");
    let pattern = grid_laplacian_2d(side, side, false);
    println!(
        "matrix: n = {}, {} off-diagonal nonzeros",
        pattern.order(),
        pattern.nnz_off_diagonal()
    );

    for ordering in [
        Ordering::NestedDissection,
        Ordering::ReverseCuthillMcKee,
        Ordering::MinimumDegree,
    ] {
        let grid = (ordering == Ordering::NestedDissection).then_some((side, side));
        let perm = compute_ordering(&pattern, ordering, grid);
        let permuted = pattern.permute(&perm);
        let tree = assembly_tree(&permuted, AssemblyOptions::default()).expect("assembly tree");
        let bounds = MemoryBounds::of(&tree);
        println!(
            "\n-- ordering {:?}: assembly tree with {} tasks, height {}, LB {}, peak {} --",
            ordering,
            tree.len(),
            tree.height(),
            bounds.lower_bound,
            bounds.peak_incore
        );
        if !bounds.is_interesting() {
            println!("   (peak == LB: no memory bound forces I/O, skipping)");
            continue;
        }
        let memory = bounds.memory(MemoryBound::Middle);
        println!("   out-of-core execution with M = {memory}:");
        for scheduler in trees_schedulers() {
            let report = scheduler.solve(&tree, memory).expect("feasible");
            println!(
                "   {:<18} {:>10} units of I/O   performance {:.4}",
                report.scheduler, report.io_volume, report.performance
            );
        }
    }
}
