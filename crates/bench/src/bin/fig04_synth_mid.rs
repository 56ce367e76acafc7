//! Regenerates Figure 4 of the paper (synth dataset, Middle memory bound).
use oocts_bench::{synth_figure, Cli};
use oocts_profile::bounds::MemoryBound;

fn main() {
    let cli = Cli::parse_or_exit(std::env::args_os().skip(1));
    let report = synth_figure(&cli, MemoryBound::Middle, "Figure 4");
    println!("{report}");
}
