//! Differential tests of [`random_binary_tree`] against a reference copy of
//! Rémy's algorithm as the generator first implemented it: a full binary
//! tree with explicit child and parent links per slot, whose external
//! leaves are contracted at the end.
//!
//! The library keeps one array of parent task ids over the slots instead
//! (see its docs). Both must draw the same random stream and give the same
//! tree, weights included, for every `(n, weights, seed)`.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use oocts_gen::{random_binary_tree, random_weights};
use oocts_tree::Tree;

/// Rémy's algorithm with `children` and `parent` links per slot of the
/// full binary tree, then the contraction of its external leaves through a
/// slot → task id map.
fn reference_random_binary_tree(
    n: usize,
    weights: std::ops::RangeInclusive<u64>,
    seed: u64,
) -> Tree {
    assert!(n >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let total = 2 * n + 1;
    // `children[v]` is None for external slots and Some([left, right]) for
    // internal ones; `parent[v]` is (parent slot, side).
    let mut children: Vec<Option<[usize; 2]>> = vec![None; total];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; total];
    let mut used = 1usize;
    for _ in 0..n {
        let x = rng.random_range(0..used);
        let side = rng.random_range(0..2usize);
        let internal = used;
        let leaf = used + 1;
        used += 2;
        // The new internal node takes x's place; x and the new leaf become
        // its children (x on `side`).
        let mut kids = [leaf, leaf];
        kids[side] = x;
        children[internal] = Some(kids);
        if let Some((p, s)) = parent[x] {
            children[p].as_mut().expect("parent is internal")[s] = internal;
        }
        parent[internal] = parent[x];
        parent[x] = Some((internal, side));
        parent[leaf] = Some((internal, 1 - side));
    }
    // Internal slots become tasks in slot order; a task's parent is its
    // slot's parent, which is internal by construction.
    let mut task_id = vec![usize::MAX; total];
    let mut next = 0usize;
    for v in 0..used {
        if children[v].is_some() {
            task_id[v] = next;
            next += 1;
        }
    }
    assert_eq!(next, n);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for v in 0..used {
        if children[v].is_some() {
            parents[task_id[v]] = parent[v].map(|(p, _)| task_id[p]);
        }
    }
    let w = random_weights(n, weights, &mut rng);
    Tree::from_parents(&w, &parents).expect("Rémy construction always yields a tree")
}

#[test]
fn generator_matches_the_reference() {
    for n in [1, 2, 3, 4, 5, 17, 100, 3000] {
        for range in [1..=1, 1..=3, 1..=100, 5..=6] {
            for seed in 0..64 {
                assert_eq!(
                    random_binary_tree(n, range.clone(), seed),
                    reference_random_binary_tree(n, range.clone(), seed),
                    "n {n}, weights {range:?}, seed {seed}"
                );
            }
        }
    }
}

/// The 2^18-node tree of the imbal-t2 benchmark workload at every seed the
/// benchmark records a digest for (`perfbench/digests.tsv`). A few seconds
/// in release; `cargo test --release -p oocts-gen -- --ignored`.
#[test]
#[ignore = "2^18-node trees: run in release"]
fn generator_matches_the_reference_at_the_benchmark_size() {
    for seed in (0..32).chain([24301]) {
        assert_eq!(
            random_binary_tree(1 << 18, 1..=100, seed),
            reference_random_binary_tree(1 << 18, 1..=100, seed),
            "seed {seed}"
        );
    }
}
