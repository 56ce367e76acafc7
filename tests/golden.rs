//! Golden regression suite: replays the persisted corpus of `tests/corpus/`
//! and checks the schedulers still report exactly the committed numbers.
//!
//! Three layers of byte-level strictness:
//!
//! 1. every committed `*.tree` snapshot round-trips **byte-identically**
//!    through the `oocts-corpus v1` parser/formatter;
//! 2. replaying every (instance, scheduler) cell of `golden.tsv` through
//!    [`run_experiment`] — i.e. through the execution engine — reproduces
//!    the committed file byte-identically, at 1 thread *and* at 4 threads;
//! 3. the CSV export of the replay is byte-identical at 1, 2 and 4
//!    threads.
//!
//! Regenerate the corpus (only when a behavioural change is intended) with
//! `cargo run --release -p oocts-bench --bin bench -- --emit-corpus
//! tests/corpus` and review the diff.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use oocts::gen::corpus::{
    format_golden, format_instance, load_dir, parse_golden, parse_instance, GoldenRecord,
};
use oocts::prelude::*;
use oocts::profile::bounds::MemoryBound;

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

#[test]
fn tree_snapshots_round_trip_byte_identically() {
    let dir = corpus_dir();
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|ext| ext != "tree") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let instance = parse_instance(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        // The instance name matches the file stem, so `load_dir` order is
        // reproducible from names alone.
        assert_eq!(
            Some(instance.name.as_str()),
            path.file_stem().and_then(|s| s.to_str()),
            "name/file mismatch for {}",
            path.display()
        );
        instance.tree.validate().unwrap();
        let reformatted = format_instance(&instance.name, &instance.tree).unwrap();
        assert_eq!(
            reformatted,
            text,
            "{} is not in canonical form",
            path.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 8,
        "expected the committed corpus, found {checked}"
    );
}

/// Replays the whole corpus through `run_experiment` with the given thread
/// count, and returns the results plus the replayed golden records keyed
/// by (instance, scheduler).
fn replay(threads: usize) -> (ExperimentResults, HashMap<(String, String), GoldenRecord>) {
    let instances = load_dir(&corpus_dir()).expect("corpus loads");
    assert!(!instances.is_empty());
    let named: Vec<(String, Tree)> = instances.into_iter().map(|i| (i.name, i.tree)).collect();

    let registry = SchedulerRegistry::with_builtins();
    let schedulers = registry
        .get_list("PostOrderMinIO,OptMinMem,RecExpand,FullRecExpand,PostOrderMinMem,RandomPostOrder(seed=0)")
        .unwrap();
    let mut config = ExperimentConfig::new(schedulers, MemoryBound::Middle);
    config.threads = threads;
    let results = run_experiment(&named, &config).expect("the corpus is feasible at Middle");

    // The run went through the execution engine with the requested threads.
    let stats = results.engine.as_ref().expect("the engine reports stats");
    assert_eq!(stats.threads, threads);

    let names = results.scheduler_names();
    let mut cells = HashMap::new();
    for res in &results.results {
        for (a, scheduler) in names.iter().enumerate() {
            cells.insert(
                (res.name.clone(), scheduler.clone()),
                GoldenRecord {
                    instance: res.name.clone(),
                    scheduler: scheduler.clone(),
                    memory: res.memory,
                    io_volume: res.io_volumes[a],
                    peak_memory: res.peak_memories[a],
                },
            );
        }
    }
    (results, cells)
}

#[test]
fn golden_replay_is_byte_identical_at_one_and_four_threads() {
    let committed = std::fs::read_to_string(corpus_dir().join("golden.tsv")).unwrap();
    let expected = parse_golden(&committed).unwrap();
    assert!(!expected.is_empty());

    let (single, single_cells) = replay(1);
    let (parallel, parallel_cells) = replay(4);

    for cells in [&single_cells, &parallel_cells] {
        // Every committed cell was replayed, and nothing extra: the corpus
        // and the scheduler set line up exactly.
        assert_eq!(cells.len(), expected.len());
        // Rebuilding golden.tsv in the committed order reproduces the
        // committed bytes exactly.
        let replayed: Vec<GoldenRecord> = expected
            .iter()
            .map(|r| {
                cells
                    .get(&(r.instance.clone(), r.scheduler.clone()))
                    .unwrap_or_else(|| panic!("{}/{} was not replayed", r.instance, r.scheduler))
                    .clone()
            })
            .collect();
        assert_eq!(
            format_golden(&replayed),
            committed,
            "replay diverges from the committed golden.tsv"
        );
    }

    // And the two replays agree with each other down to the CSV bytes.
    assert_eq!(single.to_csv(), parallel.to_csv());

    // So does a third thread count.
    let (two, _) = replay(2);
    assert_eq!(two.to_csv(), parallel.to_csv());
}

/// Replays the corpus through the *direct* solver entry points — Liu's
/// OptMinMem, PostOrderMinIO and RecExpand/FullRecExpand on the arena tree,
/// bypassing the registry and the parallel runner entirely — and checks each
/// cell bit-for-bit against `golden.tsv`. This pins the arena refactor: the
/// flat CSR layout and the scratch-space hot paths must reproduce the exact
/// committed I/O volumes and peaks.
#[test]
fn direct_solvers_reproduce_golden_cells_on_the_arena() {
    use oocts::minmem::post_order_min_mem;

    let committed = std::fs::read_to_string(corpus_dir().join("golden.tsv")).unwrap();
    let expected = parse_golden(&committed).unwrap();
    let cells: HashMap<(String, String), &GoldenRecord> = expected
        .iter()
        .map(|r| ((r.instance.clone(), r.scheduler.clone()), r))
        .collect();

    let check = |tree: &Tree, name: &str, instance: &str, schedule: &Schedule, m: u64| {
        let io = fif_io(tree, schedule, m).unwrap().total_io;
        let peak = peak_memory(tree, schedule).unwrap();
        let golden = cells
            .get(&(instance.to_string(), name.to_string()))
            .unwrap_or_else(|| panic!("{instance}/{name} missing from golden.tsv"));
        assert_eq!(
            (io, peak),
            (golden.io_volume, golden.peak_memory),
            "{instance}/{name} diverges from golden.tsv"
        );
    };

    let mut checked = 0;
    for inst in load_dir(&corpus_dir()).unwrap() {
        // The memory bound is part of the committed record; every scheduler
        // of one instance ran under the same bound.
        let m = expected
            .iter()
            .find(|r| r.instance == inst.name)
            .map(|r| r.memory)
            .unwrap_or_else(|| panic!("{} missing from golden.tsv", inst.name));

        let (s, _) = opt_min_mem(&inst.tree);
        check(&inst.tree, "OptMinMem", &inst.name, &s, m);
        let (s, _) = post_order_min_io(&inst.tree, m);
        check(&inst.tree, "PostOrderMinIO", &inst.name, &s, m);
        let (s, _) = post_order_min_mem(&inst.tree);
        check(&inst.tree, "PostOrderMinMem", &inst.name, &s, m);
        let out = rec_expand(&inst.tree, m).unwrap();
        check(&inst.tree, "RecExpand", &inst.name, &out.schedule, m);
        let out = full_rec_expand(&inst.tree, m).unwrap();
        check(&inst.tree, "FullRecExpand", &inst.name, &out.schedule, m);
        checked += 1;
    }
    assert!(
        checked >= 8,
        "expected the committed corpus, found {checked}"
    );
}

/// Brute-force-gated equivalence on small random trees: the exhaustive
/// oracles bound every heuristic, and Liu's algorithm is *exactly* optimal
/// for peak memory. Small sizes keep the factorial oracles tractable.
#[test]
fn solvers_agree_with_brute_force_on_small_trees() {
    use oocts::gen::random::uniform_attachment_tree;
    use oocts::minmem::brute_force_min_peak;
    use oocts_core::brute_force_min_io;

    for seed in 0..24u64 {
        let n = 2 + (seed % 7) as usize; // 2..=8 nodes
        let tree = uniform_attachment_tree(n, 1..=9, 0xA11CE + seed);
        let (s_opt, peak_opt) = opt_min_mem(&tree);
        let (_, peak_best) = brute_force_min_peak(&tree);
        assert_eq!(peak_opt, peak_best, "Liu must be optimal (seed {seed})");

        // Middle bound, as in the golden corpus: (LB + Peak) / 2, clamped
        // to feasibility.
        let m = tree
            .min_feasible_memory()
            .max((tree.min_feasible_memory() + peak_opt) / 2);
        let (_, io_best) = brute_force_min_io(&tree, m).unwrap();

        let heuristics: Vec<(&str, Schedule)> = vec![
            ("OptMinMem", s_opt),
            ("PostOrderMinIO", post_order_min_io(&tree, m).0),
            ("RecExpand", rec_expand(&tree, m).unwrap().schedule),
            ("FullRecExpand", full_rec_expand(&tree, m).unwrap().schedule),
        ];
        for (name, schedule) in &heuristics {
            schedule.validate(&tree).unwrap();
            let io = fif_io(&tree, schedule, m).unwrap().total_io;
            assert!(
                io >= io_best,
                "{name} beat the exhaustive optimum on seed {seed}: {io} < {io_best}"
            );
        }
    }
}
