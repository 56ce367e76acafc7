//! Perf-trajectory benchmark harness.
//!
//! Runs the fixed (family × size × scheduler × threads) matrix of
//! [`oocts_bench::perf`] and writes a schema-versioned snapshot next to the
//! current directory:
//!
//! ```text
//! cargo run --release -p oocts-bench --bin bench -- --quick --label ci
//! # -> BENCH_ci.json
//! ```
//!
//! Modes:
//!
//! * default — run the matrix, validate the snapshot in-process, write
//!   `BENCH_<label>.json` (options: `--quick`, `--label L`, `--seed X`,
//!   `--threads a,b,c` with each count at most 1024, `--imbalanced`);
//! * `--validate FILE` — parse and schema-check an existing snapshot, exit
//!   non-zero on violation (the CI gate);
//! * `--emit-corpus DIR` — regenerate the golden regression corpus
//!   (`*.tree` snapshots + `golden.tsv`) into `DIR`; the committed copy
//!   lives in `tests/corpus/`.
//!
//! Usage errors, an argument that is not valid UTF-8 among them, exit with
//! code 2.

use std::ffi::OsString;
use std::path::Path;
use std::process::ExitCode;

use oocts_bench::perf::{corpus_golden, corpus_instances, run_bench, validate_bench, BenchConfig};
use oocts_bench::{utf8_arg, MAX_THREADS};
use oocts_gen::corpus::{format_golden, format_instance};
use serde::value::Value;

const USAGE: &str = "usage: bench [--quick] [--label L] [--seed X] [--threads a,b,c] \
                     [--imbalanced]\n\
                     \x20      bench --validate BENCH_x.json\n\
                     \x20      bench --emit-corpus tests/corpus";

/// What the command line asked for.
enum Mode {
    Run(BenchConfig),
    Validate(String),
    EmitCorpus(String, BenchConfig),
    Help,
}

/// Parses the bench command line; a `String` error is a usage error.
fn parse_args(args: impl IntoIterator<Item = impl Into<OsString>>) -> Result<Mode, String> {
    let mut config = BenchConfig::default();
    let mut args = args
        .into_iter()
        .map(|arg| utf8_arg(arg).map_err(|e| e.to_string()));
    while let Some(arg) = args.next() {
        let arg = arg?;
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| Err(format!("missing value for {name}")))
        };
        match arg.as_str() {
            "--quick" => config.quick = true,
            "--imbalanced" => config.imbalanced = true,
            "--label" => config.label = value("--label")?,
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed wants a number".to_string())?;
            }
            "--threads" => {
                config.threads = value("--threads")?
                    .split(',')
                    .map(|t| t.trim().parse().map_err(|_| "--threads wants numbers"))
                    .collect::<Result<_, _>>()?;
                if config.threads.is_empty() {
                    return Err("--threads wants numbers".to_string());
                }
                if let Some(t) = config.threads.iter().find(|&&t| t > MAX_THREADS) {
                    return Err(format!(
                        "--threads: {t} is out of range (expected 0 to {MAX_THREADS})"
                    ));
                }
            }
            "--validate" => return Ok(Mode::Validate(value("--validate")?)),
            "--emit-corpus" => return Ok(Mode::EmitCorpus(value("--emit-corpus")?, config)),
            "--help" | "-h" => return Ok(Mode::Help),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Mode::Run(config))
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args_os().skip(1)) {
        Ok(Mode::Run(config)) => config,
        Ok(Mode::Validate(path)) => return validate_file(Path::new(&path)),
        Ok(Mode::EmitCorpus(dir, config)) => return emit_corpus(Path::new(&dir), &config),
        Ok(Mode::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("bench: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let snapshot = match run_bench(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_bench(&snapshot) {
        eprintln!("bench: emitted snapshot violates the schema: {e}");
        return ExitCode::FAILURE;
    }
    let path = config.file_name();
    if let Err(e) = std::fs::write(&path, snapshot.render_pretty()) {
        eprintln!("bench: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    let cells = snapshot
        .get("cells")
        .and_then(Value::as_array)
        .map_or(0, <[Value]>::len);
    println!("bench: wrote {path} ({cells} cells)");
    ExitCode::SUCCESS
}

/// `--validate FILE`: parse + schema-check an existing snapshot.
fn validate_file(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let snapshot = match Value::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench: {} is not JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match validate_bench(&snapshot) {
        Ok(()) => {
            println!("bench: {} is a valid oocts-bench snapshot", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {} violates the schema: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// `--emit-corpus DIR`: regenerate the golden regression corpus.
fn emit_corpus(dir: &Path, config: &BenchConfig) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("bench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let instances = corpus_instances(config.seed);
    let golden = match corpus_golden(&instances) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for inst in &instances {
        let text = match format_instance(&inst.name, &inst.tree) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let path = dir.join(format!("{}.tree", inst.name));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("bench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let golden_path = dir.join("golden.tsv");
    if let Err(e) = std::fs::write(&golden_path, format_golden(&golden)) {
        eprintln!("bench: cannot write {}: {e}", golden_path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "bench: wrote {} instances and {} golden records to {}",
        instances.len(),
        golden.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn threads(list: &str) -> Result<Vec<usize>, String> {
        match parse_args(["--threads", list])? {
            Mode::Run(config) => Ok(config.threads),
            _ => unreachable!("--threads alone runs the matrix"),
        }
    }

    #[test]
    fn thread_counts_are_bounded() {
        assert_eq!(threads("0,1,1024"), Ok(vec![0, 1, 1024]));
        for (list, huge) in [("1025", 1025), ("1,100000", 100_000)] {
            assert_eq!(
                threads(list).unwrap_err(),
                format!("--threads: {huge} is out of range (expected 0 to 1024)")
            );
        }
        assert_eq!(threads("1,x").unwrap_err(), "--threads wants numbers");
    }

    #[cfg(unix)]
    #[test]
    fn arguments_that_are_not_utf8_are_usage_errors() {
        use std::os::unix::ffi::OsStringExt;
        let bad = || OsString::from_vec(b"\xff".to_vec());
        for args in [vec![bad()], vec!["--label".into(), bad()]] {
            let err = parse_args(args).err().expect("a usage error");
            assert_eq!(err, "\u{fffd}: not valid UTF-8");
        }
    }
}
