//! Differential property tests for the flat arena `Tree`.
//!
//! The arena stores everything as flat arrays (SoA weights, CSR children,
//! precomputed postorder/size). These tests rebuild every derived
//! quantity with a deliberately naive reference model straight from the
//! `(weights, parents)` arrays and assert the arena, built by either
//! constructor, agrees on trees of up to
//! 10 000 nodes across strongly skewed shapes (chains, stars, power-law
//! attachment), plus byte-identical round-trips through the corpus text
//! format. The shapes are drawn with every parent below its child in id
//! order, and again with the ids relabeled by a random permutation, so
//! that parents can follow their children, as Rémy's generator numbers
//! them.

use oocts_gen::corpus::{format_instance, parse_instance};
use oocts_tree::{NodeId, Tree, TreeBuilder, NO_PARENT};
use proptest::prelude::*;

/// Splitmix-style generator: cheap, deterministic, good enough to produce
/// adversarial shapes from a proptest-sampled seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Parent arrays with node 0 as root and `parent(i) < i`, drawn from one of
/// four arity regimes so CSR ranges see both very long and very wide rows:
///
/// * `0` — uniform attachment (random recursive tree, arity ~ log n);
/// * `1` — chain-biased: 7 out of 8 nodes extend the previous node;
/// * `2` — star-biased: the parent index is squared towards 0, producing a
///   few nodes of huge arity;
/// * `3` — bounded fan-out: parent drawn from the last 4 nodes only.
fn parents_for(n: usize, mode: u64, seed: u64) -> Vec<Option<usize>> {
    let mut state = seed ^ (n as u64).rotate_left(17) ^ mode.rotate_left(43);
    let mut parents = vec![None; n];
    for (i, slot) in parents.iter_mut().enumerate().skip(1) {
        let r = next(&mut state);
        let p = match mode {
            0 => (r % i as u64) as usize,
            1 => {
                if r.is_multiple_of(8) {
                    (next(&mut state) % i as u64) as usize
                } else {
                    i - 1
                }
            }
            2 => {
                let u = (r % i as u64) as f64 / i as f64;
                ((u * u * i as f64) as usize).min(i - 1)
            }
            _ => i - 1 - (r % 4.min(i as u64)) as usize,
        };
        *slot = Some(p);
    }
    parents
}

/// Strategy: `(weights, parents)` raw arrays for trees of `1..=max_nodes`
/// nodes. Returning the arrays (not the `Tree`) lets each property rebuild
/// both the arena and the reference model from identical inputs.
fn raw_tree(max_nodes: usize) -> impl Strategy<Value = (Vec<u64>, Vec<Option<usize>>)> {
    (1..=max_nodes, 0u64..4, 0u64..1 << 32).prop_map(|(n, mode, seed)| {
        let mut state = seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ mode;
        let weights: Vec<u64> = (0..n).map(|_| 1 + next(&mut state) % 50).collect();
        (weights, parents_for(n, mode, seed))
    })
}

/// [`raw_tree`] with the node ids relabeled by a random permutation: the
/// root is no longer node 0, and parents may follow their children.
fn relabeled_tree(max_nodes: usize) -> impl Strategy<Value = (Vec<u64>, Vec<Option<usize>>)> {
    (raw_tree(max_nodes), 0u64..1 << 32).prop_map(|((weights, parents), seed)| {
        let n = weights.len();
        // Fisher–Yates: node i becomes node label[i].
        let mut state = seed;
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        let mut relabeled_weights = vec![0; n];
        let mut relabeled_parents = vec![None; n];
        for i in 0..n {
            relabeled_weights[label[i]] = weights[i];
            relabeled_parents[label[i]] = parents[i].map(|p| label[p]);
        }
        (relabeled_weights, relabeled_parents)
    })
}

/// Naive reference model: every derived quantity recomputed with the most
/// obvious algorithm, independent of the arena's CSR/postorder machinery.
struct RefModel {
    weights: Vec<u64>,
    parents: Vec<Option<usize>>,
    root: usize,
    children: Vec<Vec<usize>>,
    depth: Vec<usize>,
    subtree_size: Vec<usize>,
    postorder: Vec<usize>,
}

impl RefModel {
    fn new(weights: &[u64], parents: &[Option<usize>]) -> Self {
        let n = weights.len();
        let mut children = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(i);
            }
        }
        // Walk from every node up to the root: the steps are its depth, and
        // every node passed counts it in its subtree. No id order assumed.
        let mut depth = vec![0usize; n];
        let mut subtree_size = vec![1usize; n];
        for (i, d) in depth.iter_mut().enumerate() {
            let mut v = i;
            while let Some(p) = parents[v] {
                *d += 1;
                subtree_size[p] += 1;
                v = p;
            }
        }
        let root = parents.iter().position(Option::is_none).unwrap();
        let mut model = RefModel {
            weights: weights.to_vec(),
            parents: parents.to_vec(),
            root,
            children,
            depth,
            subtree_size,
            postorder: Vec::with_capacity(n),
        };
        model.collect_postorder(root);
        model
    }

    /// Recursive DFS postorder visiting children in insertion order — the
    /// textbook definition the arena's iterative traversal must reproduce.
    fn collect_postorder(&mut self, node: usize) {
        for c in 0..self.children[node].len() {
            self.collect_postorder(self.children[node][c]);
        }
        self.postorder.push(node);
    }

    fn children_weight(&self, node: usize) -> u64 {
        self.children[node].iter().map(|&c| self.weights[c]).sum()
    }

    fn subtree_postorder(&self, root: usize) -> Vec<usize> {
        // Membership via an explicit DFS over the children lists, then a
        // filter of the global postorder — O(n) per query, no reliance on
        // the arena's contiguity claim being tested.
        let mut in_subtree = vec![false; self.weights.len()];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            in_subtree[v] = true;
            stack.extend(self.children[v].iter().copied());
        }
        self.postorder
            .iter()
            .copied()
            .filter(|&v| in_subtree[v])
            .collect()
    }
}

/// Asserts every arena accessor against the reference model.
fn assert_matches(tree: &Tree, model: &RefModel) {
    let n = model.weights.len();
    assert_eq!(tree.len(), n);
    assert_eq!(tree.root().index(), model.root);
    tree.validate().unwrap();

    // Whole-tree postorder: identical sequence, and `postorder_position` is
    // its inverse permutation.
    let arena_post: Vec<usize> = tree.postorder().iter().map(|id| id.index()).collect();
    assert_eq!(arena_post, model.postorder);
    for (pos, &id) in tree.postorder().iter().enumerate() {
        assert_eq!(tree.postorder_position(id), pos);
    }

    let mut max_depth = 0;
    for i in 0..n {
        let id = NodeId(u32::try_from(i).unwrap());
        assert_eq!(tree.weight(id), model.weights[i]);
        assert_eq!(tree.parent(id).map(|p| p.index()), model.parents[i]);
        let kids: Vec<usize> = tree.children(id).iter().map(|c| c.index()).collect();
        assert_eq!(kids, model.children[i], "children of node {i}");
        assert_eq!(tree.children_weight(id), model.children_weight(i));
        assert_eq!(
            tree.execution_weight(id),
            model.weights[i].max(model.children_weight(i))
        );
        assert_eq!(tree.subtree_size(id), model.subtree_size[i]);
        assert_eq!(tree.depth(id), model.depth[i]);
        max_depth = max_depth.max(model.depth[i]);
    }
    assert_eq!(tree.height(), max_depth);

    // Subtree postorders are contiguous slices of the global postorder;
    // cross-check a handful of nodes (root, a leaf, a stride sample) against
    // the O(n·h) reference filter.
    let stride = (n / 7).max(1);
    for i in (0..n).step_by(stride).chain([0, n - 1]) {
        let id = NodeId(u32::try_from(i).unwrap());
        let arena_sub: Vec<usize> = tree
            .subtree_postorder(id)
            .iter()
            .map(|c| c.index())
            .collect();
        assert_eq!(arena_sub, model.subtree_postorder(i), "subtree of node {i}");
    }
}

/// Builds the arena from the raw arrays with both constructors, the
/// borrowing `from_parents` and the owning `from_parent_ids`, and checks
/// each against the reference model.
fn assert_both_constructors_match(weights: &[u64], parents: &[Option<usize>]) {
    let model = RefModel::new(weights, parents);
    assert_matches(&Tree::from_parents(weights, parents).unwrap(), &model);
    let ids: Vec<u32> = parents
        .iter()
        .map(|p| p.map_or(NO_PARENT, |p| u32::try_from(p).unwrap()))
        .collect();
    assert_matches(
        &Tree::from_parent_ids(weights.to_vec(), ids).unwrap(),
        &model,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Small trees, exhaustively cross-checked: every accessor of every node
    /// against the naive model.
    #[test]
    fn arena_matches_reference_model_small(raw in raw_tree(64)) {
        let (weights, parents) = raw;
        assert_both_constructors_match(&weights, &parents);
    }

    /// The same on relabeled ids: the arena's one DFS must not rely on
    /// parents preceding their children.
    #[test]
    fn arena_matches_reference_model_relabeled_small(raw in relabeled_tree(64)) {
        let (weights, parents) = raw;
        assert_both_constructors_match(&weights, &parents);
    }

    /// The corpus text format round-trips byte-identically: format → parse →
    /// re-format reproduces the exact bytes, and the parsed arena equals the
    /// one built by `TreeBuilder` from the same raw arrays.
    #[test]
    fn corpus_text_round_trip_is_byte_identical(raw in raw_tree(200)) {
        let (weights, parents) = raw;
        let mut builder = TreeBuilder::new();
        for (i, &w) in weights.iter().enumerate() {
            match parents[i] {
                None => builder.add_root(w),
                Some(p) => builder.add_child(NodeId(u32::try_from(p).unwrap()), w),
            };
        }
        let tree = builder.build().unwrap();

        let text = format_instance("prop-arena", &tree).unwrap();
        let parsed = parse_instance(&text).unwrap();
        assert_eq!(parsed.name, "prop-arena");
        assert_eq!(parsed.tree, tree, "parsing must rebuild the identical arena");
        let reformatted = format_instance(&parsed.name, &parsed.tree).unwrap();
        assert_eq!(reformatted, text, "round-trip must be byte-identical");
    }
}

proptest! {
    // Fewer cases for the large trees: each one walks up to 10k nodes.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Large skewed trees (up to 10k nodes): chains drive the depth walks
    /// and the iterative postorder, stars drive wide CSR rows.
    #[test]
    fn arena_matches_reference_model_large(raw in raw_tree(10_000)) {
        let (weights, parents) = raw;
        assert_both_constructors_match(&weights, &parents);
    }

    /// Large skewed trees on relabeled ids.
    #[test]
    fn arena_matches_reference_model_relabeled_large(raw in relabeled_tree(10_000)) {
        let (weights, parents) = raw;
        assert_both_constructors_match(&weights, &parents);
    }
}
