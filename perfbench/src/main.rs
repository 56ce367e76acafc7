//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <trees-mid|synth-lb|imbal-t2> [--seed N] [--seconds S] \
//!     [--trace 0|1]
//! ```
//!
//! Prints the run's record (host, parameters, digest, samples, failures) as
//! JSON, then, as the last line, the result object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The record, and the Chrome trace of a
//! traced run, are also written under `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;

use oocts_perfbench::run::{run_traced, run_untraced};
use oocts_perfbench::workload::{Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::named(&name).ok_or(format!(
                    "unknown workload {name:?}; expected one of {}",
                    WORKLOADS.join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let outcome = if args.trace {
        match run_traced(&w, args.seed, w.threads) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_untraced(&w, args.seed, args.seconds, w.threads)
    };

    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let result = outcome.result();
    let saved = outcome.record.clone().with("result", result.clone());
    let mut files = vec![(out.join(format!("{stem}.json")), saved.render_pretty())];
    if let Some(trace) = &outcome.trace {
        files.push((out.join(format!("{stem}.chrome.json")), trace.render()));
    }
    let written = std::fs::create_dir_all(&out).and_then(|()| {
        files
            .iter()
            .try_for_each(|(path, body)| std::fs::write(path, body))
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }

    print!("{}", outcome.record.render_pretty());
    println!("{}", result.render());
    ExitCode::SUCCESS
}
