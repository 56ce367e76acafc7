//! Memory sweep: how the I/O volume of each strategy degrades as the memory
//! bound shrinks from the in-core peak down to the structural lower bound, on
//! one random binary tree of the SYNTH family.
//!
//! Run with: `cargo run --release --example memory_sweep [nodes] [seed]`

use oocts::prelude::*;
use oocts_gen::random_binary_tree;
use oocts_profile::bounds::MemoryBounds;

/// Command-line argument `i`, if given; exits with a usage error (code 2)
/// on one that is not valid UTF-8.
fn arg(i: usize) -> Option<String> {
    let raw = std::env::args_os().nth(i)?;
    Some(raw.into_string().unwrap_or_else(|raw| {
        eprintln!(
            "memory_sweep: argument {:?} is not valid UTF-8",
            raw.to_string_lossy()
        );
        std::process::exit(2);
    }))
}

fn main() {
    let nodes: usize = arg(1).and_then(|s| s.parse().ok()).unwrap_or(1000);
    let seed: u64 = arg(2).and_then(|s| s.parse().ok()).unwrap_or(42);

    let tree = random_binary_tree(nodes, 1..=100, seed);
    let bounds = MemoryBounds::of(&tree);
    println!(
        "random binary tree: {} nodes, LB = {}, Peak_incore = {}",
        tree.len(),
        bounds.lower_bound,
        bounds.peak_incore
    );

    let schedulers = trees_schedulers();
    print!("{:>10} ", "M");
    for s in &schedulers {
        print!("{:>16}", s.name());
    }
    println!();

    // Ten evenly spaced memory bounds across the interesting range.
    let lb = bounds.lower_bound;
    let peak = bounds.peak_incore;
    for step in 0..=10u64 {
        let memory = lb + (peak - lb) * step / 10;
        print!("{memory:>10} ");
        for s in &schedulers {
            let report = s.solve(&tree, memory).expect("feasible");
            print!("{:>16}", report.io_volume);
        }
        println!();
    }
    println!("\n(I/O volumes in memory units; 0 on the last line: M = Peak_incore.)");
}
