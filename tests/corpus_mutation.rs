//! Mutation test of the corpus readers. Every committed `tests/corpus/*.tree`
//! snapshot, mutated at random, must either parse into a tree that passes
//! `Tree::validate` and formats back to the very same bytes, or fail with a
//! `CorpusError`. Every mutant of `tests/corpus/golden.tsv` must either parse
//! into records, each of whose scheduler specs the registry resolves or
//! refuses with a `SchedulerError`, or fail with a `CorpusError`. No mutant
//! may panic.
//!
//! A case applies one to three mutations to one file: a byte flip, a
//! truncation, a duplicated line, or a number token inflated to 2^32 − 1,
//! 2^32, 2^63, 2^64 − 1 or 2^64, or replaced by `0` or `-`. The cases come
//! from the vendored xoshiro `StdRng` with a fixed seed, so every run checks
//! the same ones. Run the tests in a debug build, where arithmetic overflow
//! panics too. The default tests run a few thousand cases each; the ignored
//! long sweeps run 50,000:
//!
//! ```text
//! cargo test --test corpus_mutation -- --ignored
//! ```

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oocts::core::registry::SchedulerRegistry;
use oocts::gen::corpus::{format_instance, parse_golden, parse_instance, CorpusError};

/// What an inflated number token becomes.
const INFLATED: [&str; 7] = [
    "4294967295",
    "4294967296",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "0",
    "-",
];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// The committed snapshots, sorted by file name.
fn snapshots() -> Vec<String> {
    let dir = corpus_dir();
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tree"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no snapshots in {}", dir.display());
    paths
        .iter()
        .map(|path| std::fs::read_to_string(path).unwrap())
        .collect()
}

/// One random mutation of `text`.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    match rng.random_range(0..4u32) {
        0 => {
            let i = rng.random_range(0..bytes.len());
            bytes[i] ^= rng.random_range(1..256u32) as u8;
        }
        1 => bytes.truncate(rng.random_range(0..bytes.len())),
        2 => {
            let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
            let i = rng.random_range(0..lines.len());
            lines.insert(i, lines[i]);
            return lines.concat();
        }
        _ => {
            // Tokens that are numbers or `-`, separated by whitespace or,
            // inside a scheduler spec such as `RandomPostOrder(seed=0)`, by
            // its punctuation.
            let mut tokens = Vec::new();
            let mut start = 0;
            for (i, &b) in bytes.iter().chain(b"\n").enumerate() {
                if matches!(b, b' ' | b'\n' | b'\t' | b'(' | b'=' | b',' | b')') {
                    let token = &bytes[start..i];
                    if token == b"-" || (!token.is_empty() && token.iter().all(u8::is_ascii_digit))
                    {
                        tokens.push(start..i);
                    }
                    start = i + 1;
                }
            }
            if tokens.is_empty() {
                return text.to_string();
            }
            let range = tokens[rng.random_range(0..tokens.len())].clone();
            let value = INFLATED[rng.random_range(0..INFLATED.len())];
            bytes.splice(range, value.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Applies one to three random mutations to `text`.
fn mutant(text: &str, rng: &mut StdRng) -> String {
    let mut text = text.to_string();
    for _ in 0..=rng.random_range(0..3u32) {
        text = mutate(&text, rng);
    }
    text
}

/// Runs `cases` snapshot mutants drawn from `seed` and returns how many
/// parsed, how many were parse errors and how many were tree errors.
fn run(cases: usize, seed: u64) -> [usize; 3] {
    let snapshots = snapshots();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = [0; 3];
    for case in 0..cases {
        let text = mutant(&snapshots[case % snapshots.len()], &mut rng);
        let outcome = panic::catch_unwind(|| match parse_instance(&text) {
            Ok(instance) => {
                instance.tree.validate().map_err(|e| e.to_string())?;
                match format_instance(&instance.name, &instance.tree) {
                    Ok(formatted) if formatted == text => Ok(0),
                    Ok(formatted) => Err(format!("it formats back as\n{formatted}")),
                    Err(e) => Err(format!("it does not format back: {e}")),
                }
            }
            Err(CorpusError::Tree(_)) => Ok(2),
            Err(_) => Ok(1),
        });
        match outcome {
            Ok(Ok(kind)) => outcomes[kind] += 1,
            Ok(Err(e)) => panic!("case {case}: a mutant parsed, but {e}\nThe mutant:\n{text}"),
            Err(_) => panic!("case {case} panicked on this input:\n{text}"),
        }
    }
    outcomes
}

/// Runs `cases` mutants of `golden.tsv` drawn from `seed` and returns how
/// many parsed into records whose specs all resolve, how many were parse
/// errors, and how many parsed into some record whose spec the registry
/// refuses.
fn run_golden(cases: usize, seed: u64) -> [usize; 3] {
    let golden = std::fs::read_to_string(corpus_dir().join("golden.tsv")).unwrap();
    let registry = SchedulerRegistry::with_builtins();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = [0; 3];
    for case in 0..cases {
        let text = mutant(&golden, &mut rng);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| match parse_golden(&text) {
            Ok(records) => {
                let resolved = records.iter().all(|r| registry.get(&r.scheduler).is_ok());
                Ok(if resolved { 0 } else { 2 })
            }
            Err(CorpusError::Parse { .. }) => Ok(1),
            Err(e) => Err(e),
        }));
        match outcome {
            Ok(Ok(kind)) => outcomes[kind] += 1,
            Ok(Err(e)) => panic!("case {case}: not a parse error: {e}\n{text}"),
            Err(_) => panic!("case {case} panicked on this input:\n{text}"),
        }
    }
    outcomes
}

#[test]
fn corpus_mutants_parse_or_return_a_corpus_error() {
    let [parsed, parse_errors, tree_errors] = run(5_000, 0x5eed_c0de);
    // Most mutants break the format, but enough reach the tree checks or
    // build a tree (75 and 189 of these 5,000).
    assert!(parsed >= 100, "{parsed} mutants parsed");
    assert!(parse_errors >= 1_000, "{parse_errors} parse errors");
    assert!(tree_errors >= 40, "{tree_errors} tree errors");
}

/// The long sweep, on other cases than the default test.
#[test]
#[ignore = "50,000 cases; CI runs it in a debug build of its own step"]
fn corpus_mutants_parse_or_return_a_corpus_error_long_sweep() {
    let [parsed, parse_errors, tree_errors] = run(50_000, 0x0c0a_5eed);
    assert!(parsed > 0 && parse_errors > 0 && tree_errors > 0);
}

#[test]
fn golden_mutants_give_records_or_a_typed_error() {
    let [resolved, parse_errors, refused] = run_golden(5_000, 0x901d_e115);
    // 1,852, 2,781 and 367 of these 5,000.
    assert!(resolved >= 100, "{resolved} mutants resolved");
    assert!(parse_errors >= 100, "{parse_errors} parse errors");
    assert!(refused >= 100, "{refused} mutants name a refused spec");
}

/// The long sweep, on other cases than the default test.
#[test]
#[ignore = "50,000 cases; CI runs it in a debug build of its own step"]
fn golden_mutants_give_records_or_a_typed_error_long_sweep() {
    let [resolved, parse_errors, refused] = run_golden(50_000, 0x0901_d5ee);
    assert!(resolved > 0 && parse_errors > 0 && refused > 0);
}
