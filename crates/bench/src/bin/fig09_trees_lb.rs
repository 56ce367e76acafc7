//! Regenerates Figure 9 of the paper (trees dataset, LowerBound memory bound).
use oocts_bench::{trees_figure, Cli};
use oocts_profile::bounds::MemoryBound;

fn main() {
    let cli = Cli::parse_or_exit(std::env::args_os().skip(1));
    let report = trees_figure(&cli, MemoryBound::LowerBound, "Figure 9");
    println!("{report}");
}
