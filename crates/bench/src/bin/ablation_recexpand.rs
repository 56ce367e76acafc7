//! Ablation (not a paper figure): sensitivity of `RecExpand` to the number of
//! expansion iterations allowed per node — the design choice DESIGN.md calls
//! out (the paper uses 2; `FullRecExpand` is the unbounded limit).
use oocts_bench::{recexpand_ablation_report, Cli};

fn main() {
    let cli = Cli::parse_or_exit(std::env::args_os().skip(1));
    println!("{}", recexpand_ablation_report(&cli));
}
