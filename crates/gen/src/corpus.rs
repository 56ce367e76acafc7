//! Persisted instance corpus: a plain-text snapshot format for task trees
//! plus golden per-scheduler expectations, and loaders for both.
//!
//! Datasets are *generated* deterministically ([`crate::dataset`]), but
//! regression tests must not depend on the generators staying bit-stable:
//! the golden suite replays instances **snapshotted to disk** instead. Two
//! file kinds make up a corpus directory (`tests/corpus/` at the workspace
//! root):
//!
//! * `<name>.tree` — one instance in the `oocts-corpus v1` format below;
//! * `golden.tsv` — tab-separated golden measurements, one line per
//!   (instance, scheduler) cell.
//!
//! # The `oocts-corpus v1` tree format
//!
//! ```text
//! oocts-corpus v1
//! name synth-c00
//! nodes 3
//! - 5
//! 0 3
//! 0 2
//! ```
//!
//! Line 1 is the magic header; `name` is the instance name; `nodes` the node
//! count `n`. Then exactly `n` lines follow, the `i`-th (0-based) holding
//! node `i`'s parent index (`-` for the root) and its output weight,
//! space-separated. Numbers are decimal, with no sign and no leading zero,
//! and every line, the last one included, ends with a bare `\n`. The format
//! is canonical: [`format_instance`] emits exactly one representation per
//! instance and [`parse_instance`] accepts nothing else, so snapshots
//! round-trip **byte-identically** — the golden suite asserts
//! `format(parse(file)) == file` for every committed file.
//!
//! # The golden TSV
//!
//! `golden.tsv` lines are `instance<TAB>scheduler<TAB>memory<TAB>io_volume
//! <TAB>peak_memory`; `#`-prefixed lines and blank lines are comments.
//! Scheduler names are registry specs (`oocts_core::registry` syntax, e.g.
//! `RandomPostOrder(seed=0)`), so the replay suite resolves them by name.

use std::fmt;
use std::path::Path;

use oocts_tree::{Tree, TreeError, NO_PARENT};

use crate::dataset::Instance;

/// The magic first line of every `.tree` snapshot.
pub const CORPUS_MAGIC: &str = "oocts-corpus v1";

/// Errors of corpus parsing, formatting and loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// A snapshot file does not follow the format.
    Parse {
        /// 1-based line of the failure.
        line: usize,
        /// What was expected.
        message: String,
    },
    /// The snapshotted structure is not a valid tree.
    Tree(TreeError),
    /// An instance name cannot be represented in the line-oriented format.
    BadName(String),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, message } => {
                write!(f, "corpus I/O error on {path}: {message}")
            }
            CorpusError::Parse { line, message } => {
                write!(f, "corpus parse error at line {line}: {message}")
            }
            CorpusError::Tree(e) => write!(f, "corpus holds an invalid tree: {e}"),
            CorpusError::BadName(name) => {
                write!(f, "instance name {name:?} cannot be snapshotted")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl From<TreeError> for CorpusError {
    fn from(e: TreeError) -> Self {
        CorpusError::Tree(e)
    }
}

/// Renders one instance in the canonical `oocts-corpus v1` format.
///
/// # Errors
/// [`CorpusError::BadName`] if the name is empty or contains control
/// characters (the format is line-oriented).
pub fn format_instance(name: &str, tree: &Tree) -> Result<String, CorpusError> {
    if name.is_empty() || name.chars().any(char::is_control) {
        return Err(CorpusError::BadName(name.to_string()));
    }
    let mut out = String::with_capacity(32 + name.len() + tree.len() * 8);
    out.push_str(CORPUS_MAGIC);
    out.push('\n');
    out.push_str("name ");
    out.push_str(name);
    out.push('\n');
    out.push_str(&format!("nodes {}\n", tree.len()));
    for node in tree.node_ids() {
        match tree.parent(node) {
            Some(p) => out.push_str(&format!("{} {}\n", p.index(), tree.weight(node))),
            None => out.push_str(&format!("- {}\n", tree.weight(node))),
        }
    }
    Ok(out)
}

/// Parses a canonical `oocts-corpus v1` snapshot back into an instance.
///
/// Strict by design: anything [`format_instance`] would not emit (extra
/// blank lines, trailing garbage, a node-count mismatch, a number with a
/// sign or a leading zero, a `\r\n` line end, a missing final newline, a
/// name with a control character) is an error naming its line, which is
/// what makes round-trips byte-identical.
/// A parent index of `u32::MAX` or more, which no node id can be, is a
/// parse error too.
pub fn parse_instance(text: &str) -> Result<Instance, CorpusError> {
    let total = text.split_terminator('\n').count();
    let mut lines = text.split_terminator('\n').enumerate();
    let mut expect = |what: &str| {
        let (idx, l) = lines.next().ok_or_else(|| CorpusError::Parse {
            line: total + 1,
            message: format!("missing {what}"),
        })?;
        let bad = |message: &str| CorpusError::Parse {
            line: idx + 1,
            message: message.to_string(),
        };
        if l.contains('\r') {
            return Err(bad("carriage return (lines end with a bare `\\n`)"));
        }
        if idx + 1 == total && !text.ends_with('\n') {
            return Err(bad("no newline at the end of the last line"));
        }
        Ok((idx + 1, l))
    };

    let (line, magic) = expect("magic header")?;
    if magic != CORPUS_MAGIC {
        return Err(CorpusError::Parse {
            line,
            message: format!("expected `{CORPUS_MAGIC}`, found {magic:?}"),
        });
    }
    let (line, name_line) = expect("`name <instance>`")?;
    let name = name_line
        .strip_prefix("name ")
        .ok_or_else(|| CorpusError::Parse {
            line,
            message: "expected `name <instance>`".to_string(),
        })?
        .to_string();
    if name.is_empty() {
        return Err(CorpusError::Parse {
            line,
            message: "empty instance name".to_string(),
        });
    }
    if name.chars().any(char::is_control) {
        return Err(CorpusError::Parse {
            line,
            message: "control character in the instance name".to_string(),
        });
    }
    let (line, nodes_line) = expect("`nodes <count>`")?;
    let n: usize = nodes_line
        .strip_prefix("nodes ")
        .and_then(canonical)
        .ok_or_else(|| CorpusError::Parse {
            line,
            message: "expected `nodes <count>`".to_string(),
        })?;

    // The header is not trusted with the allocation: every node needs a
    // line of its own, so no more than the remaining lines are reserved.
    let room = n.min(total.saturating_sub(3));
    let mut weights = Vec::with_capacity(room);
    let mut parents = Vec::with_capacity(room);
    for _ in 0..n {
        let (line, node_line) = expect("a `<parent|-> <weight>` node line")?;
        let bad = |message: &str| CorpusError::Parse {
            line,
            message: message.to_string(),
        };
        let (parent, weight) = node_line
            .split_once(' ')
            .ok_or_else(|| bad("expected `<parent|-> <weight>`"))?;
        let parent = match parent {
            "-" => NO_PARENT,
            p => canonical::<u32>(p)
                .filter(|&p| p != NO_PARENT)
                .ok_or_else(|| bad("parent is not a node index"))?,
        };
        let weight: u64 = canonical(weight).ok_or_else(|| bad("weight is not a number"))?;
        parents.push(parent);
        weights.push(weight);
    }
    if let Some((idx, extra)) = lines.next() {
        return Err(CorpusError::Parse {
            line: idx + 1,
            message: format!("trailing content {extra:?} after the last node"),
        });
    }
    let tree = Tree::from_parent_ids(weights, parents)?;
    tree.validate()?;
    Ok(Instance { name, tree })
}

/// `text` as a number spelled the way [`format_instance`] spells one:
/// decimal digits only (`str::parse` also takes a leading `+`), and no
/// leading zero unless the number is 0.
fn canonical<T: std::str::FromStr>(text: &str) -> Option<T> {
    let digits = !text.is_empty() && text.bytes().all(|b| b.is_ascii_digit());
    if digits && (text == "0" || !text.starts_with('0')) {
        text.parse().ok()
    } else {
        None
    }
}

/// Loads every `*.tree` snapshot of a corpus directory, sorted by file name.
pub fn load_dir(dir: &Path) -> Result<Vec<Instance>, CorpusError> {
    let io_err = |e: &dyn fmt::Display| CorpusError::Io {
        path: dir.display().to_string(),
        message: e.to_string(),
    };
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| io_err(&e))? {
        let path = entry.map_err(|e| io_err(&e))?.path();
        if path.extension().is_some_and(|ext| ext == "tree") {
            paths.push(path);
        }
    }
    paths.sort();
    let mut instances = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path).map_err(|e| CorpusError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        instances.push(parse_instance(&text)?);
    }
    Ok(instances)
}

/// One golden measurement: what a scheduler must report on an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenRecord {
    /// Instance name (matching the `.tree` snapshot).
    pub instance: String,
    /// Scheduler registry spec (e.g. `RecExpand`,
    /// `RandomPostOrder(seed=0)`).
    pub scheduler: String,
    /// The memory bound the cell was solved under.
    pub memory: u64,
    /// Expected FiF I/O volume.
    pub io_volume: u64,
    /// Expected in-core peak of the produced schedule.
    pub peak_memory: u64,
}

/// Renders golden records as the canonical `golden.tsv` payload (header
/// comment included).
pub fn format_golden(records: &[GoldenRecord]) -> String {
    let mut out = String::from("# instance\tscheduler\tmemory\tio_volume\tpeak_memory\n");
    for r in records {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            r.instance, r.scheduler, r.memory, r.io_volume, r.peak_memory
        ));
    }
    out
}

/// Parses a `golden.tsv` payload. `#`-prefixed lines and blank lines are
/// skipped.
pub fn parse_golden(text: &str) -> Result<Vec<GoldenRecord>, CorpusError> {
    let mut records = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |message: String| CorpusError::Parse {
            line: idx + 1,
            message,
        };
        let fields: Vec<&str> = line.split('\t').collect();
        let [instance, scheduler, memory, io_volume, peak_memory] = fields[..] else {
            return Err(bad(format!(
                "expected 5 tab-separated fields, found {}",
                fields.len()
            )));
        };
        let number = |what: &str, v: &str| {
            v.parse::<u64>()
                .map_err(|_| bad(format!("{what} is not a number: {v:?}")))
        };
        records.push(GoldenRecord {
            instance: instance.to_string(),
            scheduler: scheduler.to_string(),
            memory: number("memory", memory)?,
            io_volume: number("io_volume", io_volume)?,
            peak_memory: number("peak_memory", peak_memory)?,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::{NodeId, TreeBuilder};

    fn sample() -> Tree {
        let mut b = TreeBuilder::new();
        let r = b.add_root(5);
        let a = b.add_child(r, 3);
        b.add_child(a, 4);
        b.add_child(r, 2);
        b.build().unwrap()
    }

    #[test]
    fn instances_round_trip_byte_identically() {
        let tree = sample();
        let text = format_instance("sample-tree", &tree).unwrap();
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.name, "sample-tree");
        assert_eq!(parsed.tree, tree);
        assert_eq!(format_instance(&parsed.name, &parsed.tree).unwrap(), text);
    }

    #[test]
    fn generated_instances_round_trip() {
        let tree = crate::random_binary_tree(200, 1..=100, 7);
        let text = format_instance("synth", &tree).unwrap();
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.tree, tree);
        assert_eq!(format_instance("synth", &parsed.tree).unwrap(), text);
    }

    #[test]
    fn oversized_node_count_is_a_located_error() {
        // The input cannot hold the promised nodes: the result is the error
        // for the first missing node line, not an allocation of that size.
        let huge = "oocts-corpus v1\nname big\nnodes 3000000000\n- 1\n";
        match parse_instance(huge) {
            Err(CorpusError::Parse { line: 5, message }) => {
                assert!(message.contains("missing"), "{message}");
            }
            other => panic!("expected a parse error at line 5, got {other:?}"),
        }
    }

    /// A parent index of 2^32 or more used to panic while the tree's
    /// `UnknownNode` error was built.
    #[test]
    fn a_parent_past_the_node_id_range_is_a_located_error() {
        for parent in ["4294967295", "4294967296", "18446744073709551615"] {
            let text = format!("oocts-corpus v1\nname p\nnodes 2\n- 1\n{parent} 1\n");
            match parse_instance(&text) {
                Err(CorpusError::Parse { line: 5, message }) => {
                    assert!(message.contains("parent"), "{message}");
                }
                other => panic!("{parent}: expected a parse error at line 5, got {other:?}"),
            }
        }
        // A parent id past the last node is still the tree's error.
        let text = "oocts-corpus v1\nname p\nnodes 2\n- 1\n4294967294 1\n";
        assert!(matches!(
            parse_instance(text),
            Err(CorpusError::Tree(TreeError::UnknownNode(NodeId(
                4294967294
            ))))
        ));
    }

    #[test]
    fn parser_rejects_malformed_snapshots() {
        let good = format_instance("x", &sample()).unwrap();
        // Wrong magic.
        assert!(matches!(
            parse_instance(&good.replace("v1", "v9")),
            Err(CorpusError::Parse { line: 1, .. })
        ));
        // Truncated node list.
        let truncated: String = good.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert!(matches!(
            parse_instance(&truncated),
            Err(CorpusError::Parse { .. })
        ));
        // Trailing garbage.
        assert!(matches!(
            parse_instance(&format!("{good}stray\n")),
            Err(CorpusError::Parse { .. })
        ));
        // Structurally invalid tree (two roots).
        let two_roots = "oocts-corpus v1\nname y\nnodes 2\n- 1\n- 1\n";
        assert!(matches!(
            parse_instance(two_roots),
            Err(CorpusError::Tree(TreeError::MultipleRoots(_, _)))
        ));
        // Two children of weight 2^63: their sum overflows at the root.
        let overflow =
            "oocts-corpus v1\nname z\nnodes 3\n- 1\n0 9223372036854775808\n0 9223372036854775808\n";
        assert!(matches!(
            parse_instance(overflow),
            Err(CorpusError::Tree(TreeError::WeightOverflow(NodeId(0))))
        ));
        // Unrepresentable names.
        assert!(matches!(
            format_instance("two\nlines", &sample()),
            Err(CorpusError::BadName(_))
        ));
        assert!(matches!(
            format_instance("", &sample()),
            Err(CorpusError::BadName(_))
        ));
    }

    /// `str::parse` takes a leading `+` and leading zeros, and `str::lines`
    /// takes `\r\n` and a last line without its newline: each of these
    /// parsed to the tree of a different text, so the round trip was not
    /// byte-identical.
    #[test]
    fn non_canonical_spellings_are_located_errors() {
        let good = format_instance("x", &sample()).unwrap();
        assert_eq!(
            good,
            "oocts-corpus v1\nname x\nnodes 4\n- 5\n0 3\n1 4\n0 2\n"
        );
        let cases: [(&str, &str, usize); 10] = [
            ("nodes 4\n", "nodes +4\n", 3),
            ("nodes 4\n", "nodes 04\n", 3),
            ("- 5\n", "- +5\n", 4),
            ("- 5\n", "- 005\n", 4),
            ("0 3\n", "+0 3\n", 5),
            ("0 3\n", "00 3\n", 5),
            ("1 4\n", "01 4\n", 6),
            ("name x\n", "name x\r\n", 2),
            ("0 2\n", "0 2\r\n", 7),
            ("name x\n", "name \u{1}x\n", 2),
        ];
        for (from, to, line) in cases {
            let text = good.replacen(from, to, 1);
            match parse_instance(&text) {
                Err(CorpusError::Parse { line: at, .. }) if at == line => {}
                other => panic!("{to:?}: expected a parse error at line {line}, got {other:?}"),
            }
        }
        let crlf = good.replace('\n', "\r\n");
        assert!(matches!(
            parse_instance(&crlf),
            Err(CorpusError::Parse { line: 1, .. })
        ));
        let unterminated = good.strip_suffix('\n').unwrap();
        assert!(matches!(
            parse_instance(unterminated),
            Err(CorpusError::Parse { line: 7, .. })
        ));
        // Zero itself is canonical.
        let zero = "oocts-corpus v1\nname z\nnodes 2\n- 0\n0 0\n";
        let parsed = parse_instance(zero).unwrap();
        assert_eq!(format_instance(&parsed.name, &parsed.tree).unwrap(), zero);
    }

    #[test]
    fn golden_records_round_trip() {
        let records = vec![
            GoldenRecord {
                instance: "synth-c00".to_string(),
                scheduler: "RecExpand".to_string(),
                memory: 120,
                io_volume: 17,
                peak_memory: 140,
            },
            GoldenRecord {
                instance: "grid-a".to_string(),
                scheduler: "RandomPostOrder(seed=0)".to_string(),
                memory: 64,
                io_volume: 0,
                peak_memory: 64,
            },
        ];
        let text = format_golden(&records);
        assert_eq!(parse_golden(&text).unwrap(), records);
        // Comments and blank lines are tolerated on load.
        let annotated = format!("\n# extra comment\n{text}\n");
        assert_eq!(parse_golden(&annotated).unwrap(), records);
    }

    #[test]
    fn golden_parser_rejects_bad_rows() {
        assert!(matches!(
            parse_golden("a\tb\tc\n"),
            Err(CorpusError::Parse { line: 1, .. })
        ));
        assert!(matches!(
            parse_golden("a\tb\tten\t0\t0\n"),
            Err(CorpusError::Parse { .. })
        ));
    }

    #[test]
    fn load_dir_reads_sorted_snapshots() {
        let dir = std::env::temp_dir().join(format!(
            "oocts-corpus-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let a = crate::random_binary_tree(40, 1..=9, 1);
        let b = crate::random_binary_tree(40, 1..=9, 2);
        std::fs::write(
            dir.join("b-second.tree"),
            format_instance("b-second", &b).unwrap(),
        )
        .unwrap();
        std::fs::write(
            dir.join("a-first.tree"),
            format_instance("a-first", &a).unwrap(),
        )
        .unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a snapshot").unwrap();
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].name, "a-first");
        assert_eq!(loaded[0].tree, a);
        assert_eq!(loaded[1].name, "b-second");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
