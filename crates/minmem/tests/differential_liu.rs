//! Differential tests of the hill–valley cache against the task-list
//! composition it replaced (`reference`): the same canonical sequence,
//! traversal and peak at every subtree root of random trees — chains, bushy,
//! binary and high-arity shapes, with weights from narrow ranges where ties
//! are common — and after random `splice_above` sequences updated the way
//! RecExpand updates the cache.

mod reference;

use oocts_minmem::{opt_min_mem, opt_min_mem_peak, opt_min_mem_subtree, PeakCache};
use oocts_tree::{NodeId, Tree};
use proptest::test_runner::TestRng;

/// A random tree of `n` nodes. Node `i > 0` hangs under: a uniformly random
/// earlier node (shape 0, bushy), its predecessor (1, a chain), one of the
/// first three nodes (2, high arity), one of the last four (3, long with
/// short branches), or its predecessor's parent or its predecessor (4,
/// binary-ish caterpillars). Weights are uniform in `weights`.
fn random_tree(rng: &mut TestRng, n: usize, shape: u64, weights: (u64, u64)) -> Tree {
    let mut parents: Vec<Option<usize>> = vec![None; n];
    for i in 1..n {
        parents[i] = Some(match shape {
            0 => rng.below(i as u64) as usize,
            1 => i - 1,
            2 => rng.below(i.min(3) as u64) as usize,
            3 => i - 1 - rng.below(i.min(4) as u64) as usize,
            _ => match parents[i - 1] {
                Some(p) if rng.below(2) == 0 => p,
                _ => i - 1,
            },
        });
    }
    let (lo, hi) = weights;
    let w: Vec<u64> = (0..n).map(|_| lo + rng.below(hi - lo + 1)).collect();
    Tree::from_parents(&w, &parents).expect("valid random tree")
}

const WEIGHTS: [(u64, u64); 6] = [(1, 2), (1, 3), (0, 2), (1, 10), (1, 1000), (5, 6)];

/// Asserts that the cache's sequence, traversal and peak at `v` are the
/// reference's, solved from scratch on the current tree.
fn assert_matches_reference(cache: &PeakCache, tree: &Tree, v: NodeId, order: &mut Vec<NodeId>) {
    let want = reference::optimal_segments(tree, v);
    let got: Vec<(u64, u64)> = cache
        .segments(v)
        .iter()
        .map(|s| (s.hill, s.valley))
        .collect();
    let want_hv: Vec<(u64, u64)> = want.iter().map(|s| (s.hill, s.valley)).collect();
    assert_eq!(got, want_hv, "canonical sequence of {v:?}");
    cache.schedule_into(tree, v, order);
    let want_order: Vec<NodeId> = want.iter().flat_map(|s| s.tasks.iter().copied()).collect();
    assert_eq!(*order, want_order, "traversal of {v:?}");
    // Each segment's run is exactly the reference segment's task list.
    let mut at = 0;
    for (seg, reference) in cache.segments(v).iter().zip(&want) {
        assert_eq!(seg.head, reference.tasks[0]);
        at += reference.tasks.len();
        assert_eq!(seg.tail, order[at - 1]);
    }
    assert_eq!(cache.peak(v), want.first().map_or(0, |s| s.hill));
}

#[test]
fn cache_matches_the_reference_at_every_subtree_root() {
    let mut rng = TestRng::from_seed(0x11d0);
    let mut order = Vec::new();
    let mut solves = 0;
    for case in 0..1500u64 {
        let n = 1 + rng.below(48) as usize;
        let weights = WEIGHTS[(case % 6) as usize];
        let tree = random_tree(&mut rng, n, case / 6 % 5, weights);
        let mut cache = PeakCache::new();
        for &v in tree.postorder() {
            let peak = cache.update(&tree, v);
            assert_eq!(peak, cache.peak(v));
        }
        for v in tree.node_ids() {
            assert_matches_reference(&cache, &tree, v, &mut order);
            solves += 1;
        }
        // The one-shot entry points are the same pass.
        let (schedule, peak) = opt_min_mem(&tree);
        let (want, want_peak) = reference::opt_min_mem_subtree(&tree, tree.root());
        assert_eq!((schedule.order(), peak), (&want[..], want_peak));
        assert_eq!(opt_min_mem_peak(&tree), want_peak);
        let v = NodeId::from_index(rng.below(n as u64) as usize);
        let (schedule, peak) = opt_min_mem_subtree(&tree, v);
        assert_eq!(
            (schedule.into_order(), peak),
            reference::opt_min_mem_subtree(&tree, v)
        );
    }
    assert!(solves > 30_000, "only {solves} subtree solves");
}

/// Splices random nodes in above random nodes, singly or as RecExpand's
/// two-node chains, and updates the new nodes and their ancestors children
/// first — first up to a random ancestor only, as RecExpand stops at the
/// node it is expanding, then up to the root. Every node that is not a stale
/// ancestor must match a fresh reference solve of the spliced tree.
#[test]
fn cache_follows_random_splices() {
    let mut rng = TestRng::from_seed(0x5b1c);
    let mut order = Vec::new();
    for case in 0..300u64 {
        let n = 1 + rng.below(30) as usize;
        let weights = WEIGHTS[(case % 6) as usize];
        let mut tree = random_tree(&mut rng, n, case / 6 % 5, weights);
        let mut cache = PeakCache::new();
        for &v in tree.postorder() {
            cache.update(&tree, v);
        }
        for _ in 0..12 {
            let x = NodeId::from_index(rng.below(tree.len() as u64) as usize);
            let w = tree.weight(x);
            let mut top = tree.splice_above(x, rng.below(w + 1));
            cache.update(&tree, top);
            if rng.below(2) == 0 {
                top = tree.splice_above(top, w);
                cache.update(&tree, top);
            }
            // Stop at a random ancestor: everything above it is stale.
            let mut path = Vec::new();
            let mut a = tree.parent(top);
            while let Some(u) = a {
                path.push(u);
                a = tree.parent(u);
            }
            let stop = rng.below(path.len() as u64 + 1) as usize;
            for &u in &path[..stop] {
                cache.update(&tree, u);
            }
            let stale = &path[stop..];
            for v in tree.node_ids().filter(|v| !stale.contains(v)) {
                assert_matches_reference(&cache, &tree, v, &mut order);
            }
            for &u in stale {
                cache.update(&tree, u);
            }
            for v in tree.node_ids() {
                assert_matches_reference(&cache, &tree, v, &mut order);
            }
        }
    }
}

/// The one-shot pass (`opt_min_mem`, `opt_min_mem_peak`) against an update
/// walk over every node of `tree`: the same traversal and peak at the root,
/// and at every tenth node of the postorder the same subtree solve. Returns
/// the root's traversal and peak.
fn assert_one_shot_matches_update_walk(tree: &Tree) -> (Vec<NodeId>, u64) {
    let mut cache = PeakCache::new();
    for &v in tree.postorder() {
        cache.update(tree, v);
    }
    let root = tree.root();
    let mut order = Vec::new();
    cache.schedule_into(tree, root, &mut order);
    let (schedule, peak) = opt_min_mem(tree);
    assert_eq!(peak, cache.peak(root), "peak");
    assert_eq!(schedule.order(), &order[..], "traversal");
    assert_eq!(opt_min_mem_peak(tree), peak, "peak-only pass");
    for &v in tree.postorder().iter().step_by(10) {
        let (schedule, peak) = opt_min_mem_subtree(tree, v);
        assert_eq!(peak, cache.peak(v), "peak of {v:?}");
        cache.schedule_into(tree, v, &mut order);
        assert_eq!(schedule.order(), &order[..], "traversal of {v:?}");
    }
    cache.schedule_into(tree, root, &mut order);
    (order, peak)
}

/// Both Liu passes on large trees, in release: a 2^18-node Rémy tree and
/// its postorder-numbered copy (the engine's, whose traversal mapped back
/// through the copy must be the original's), every TREES scale-2 instance,
/// and 40 SYNTH trees of 3,000 nodes, which the task-list reference checks
/// too.
#[test]
#[ignore = "large trees: run in release, `cargo test --release -p oocts-minmem -- --ignored`"]
fn one_shot_and_update_walk_agree_on_large_trees() {
    use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig};

    let tree = oocts_gen::random_binary_tree(1 << 18, 1..=100, 24_301);
    let copy = tree.renumbered_in_postorder();
    let (order, peak) = assert_one_shot_matches_update_walk(&tree);
    let (copy_order, copy_peak) = assert_one_shot_matches_update_walk(&copy);
    let mapped: Vec<NodeId> = copy_order
        .iter()
        .map(|p| tree.postorder()[p.index()])
        .collect();
    assert_eq!((mapped, copy_peak), (order, peak), "the copy's traversal");

    let trees = trees_dataset(&DatasetConfig {
        trees_scale: 2,
        ..DatasetConfig::default()
    });
    assert!(trees.len() > 50, "{} TREES instances", trees.len());
    for instance in &trees {
        assert_one_shot_matches_update_walk(&instance.tree);
    }

    let synth = synth_dataset(&DatasetConfig {
        synth_instances: 40,
        synth_nodes: 3000,
        ..DatasetConfig::default()
    });
    for instance in &synth {
        let tree = &instance.tree;
        let got = assert_one_shot_matches_update_walk(tree);
        assert_eq!(
            got,
            reference::opt_min_mem_subtree(tree, tree.root()),
            "{}",
            instance.name
        );
    }
}
