//! Mutation test of the corpus reader: every committed `tests/corpus/*.tree`
//! snapshot, mutated at random, must either parse into a tree that passes
//! `Tree::validate` or fail with a `CorpusError`. No mutant may panic.
//!
//! A case applies one to three mutations to one snapshot: a byte flip, a
//! truncation, a duplicated line, or a number token inflated to 2^32 − 1,
//! 2^32, 2^63, 2^64 − 1 or 2^64, or replaced by `0` or `-`. The cases come
//! from the vendored xoshiro `StdRng` with a fixed seed, so every run checks
//! the same ones. Run the tests in a debug build, where arithmetic overflow
//! panics too. The default test runs a few thousand cases; the ignored long
//! sweep runs 50,000:
//!
//! ```text
//! cargo test --test corpus_mutation -- --ignored
//! ```

use std::panic;
use std::path::Path;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oocts::gen::corpus::{parse_instance, CorpusError};

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

/// The committed snapshots, sorted by file name.
fn snapshots() -> Vec<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
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
            // Whitespace-separated tokens that are numbers or `-`.
            let mut tokens = Vec::new();
            let mut start = 0;
            for (i, &b) in bytes.iter().chain(b"\n").enumerate() {
                if b == b' ' || b == b'\n' {
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

/// Runs `cases` mutants drawn from `seed` and returns how many parsed, how
/// many were parse errors and how many were tree errors.
fn run(cases: usize, seed: u64) -> [usize; 3] {
    let snapshots = snapshots();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut outcomes = [0; 3];
    for case in 0..cases {
        let mut text = snapshots[case % snapshots.len()].clone();
        for _ in 0..=rng.random_range(0..3u32) {
            text = mutate(&text, &mut rng);
        }
        let outcome = panic::catch_unwind(|| match parse_instance(&text) {
            Ok(instance) => instance.tree.validate().map(|()| 0),
            Err(CorpusError::Tree(_)) => Ok(2),
            Err(_) => Ok(1),
        });
        match outcome {
            Ok(Ok(kind)) => outcomes[kind] += 1,
            Ok(Err(e)) => panic!("case {case}: the parsed tree fails validation: {e}\n{text}"),
            Err(_) => panic!("case {case} panicked on this input:\n{text}"),
        }
    }
    outcomes
}

#[test]
fn corpus_mutants_parse_or_return_a_corpus_error() {
    let [parsed, parse_errors, tree_errors] = run(5_000, 0x5eed_c0de);
    // Most mutants break the format, but enough reach the tree checks or
    // build a tree (195 and 75 of these 5,000).
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
