//! Regenerates Figure 8 of the paper (synth dataset, LowerBound memory bound).
use oocts_bench::{synth_figure, Cli};
use oocts_profile::bounds::MemoryBound;

fn main() {
    let cli = Cli::parse_or_exit(std::env::args_os().skip(1));
    let report = synth_figure(&cli, MemoryBound::LowerBound, "Figure 8");
    println!("{report}");
}
