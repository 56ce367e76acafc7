//! Symbolic factorization: column counts of the Cholesky factor.
//!
//! The number of nonzeros of every column of `L` determines the sizes of the
//! frontal matrices and contribution blocks of the multifrontal method — the
//! node weights of the assembly tree. Row `k` of `L` is the *row subtree* of
//! `k`: the elimination-tree paths from the below-diagonal nonzeros of row `k`
//! of `A` up to `k`. Walking every row subtree counts the columns in
//! O(nnz(L)); Gilbert, Ng and Peyton ("An efficient algorithm to compute row
//! and column counts for sparse Cholesky factorization", SIMAX 15(4), 1994)
//! count them in O(nnz(A)·α(nnz(A), n)) from the subtrees' leaves and the
//! least common ancestors of consecutive leaves.

use crate::pattern::SymmetricPattern;

/// Computes `cc[j]` = number of nonzeros of column `j` of the Cholesky factor
/// `L` (including the diagonal), given the pattern and its elimination tree.
///
/// The counts are Gilbert, Ng and Peyton's, as CSparse's `cs_counts` computes
/// them for `LL' = A` (T. A. Davis, *Direct Methods for Sparse Linear
/// Systems*, SIAM 2006, § 4.5). Each leaf of the tree gets +1, and each
/// column −1 at its parent. Then, for each row `i > j` of `A(:, j)` of which
/// `j` is a leaf of row `i`'s subtree (the columns are visited in
/// postorder), `j` gets +1 and, from the row's second leaf on, the least
/// common ancestor of `j` and the row's previous leaf gets −1. A column's
/// count is the sum over its subtree.
///
/// # Panics
/// If `parent` does not have one entry per column, or if some column's
/// parent is not above it (`parent[j] > j` holds in every elimination tree,
/// and keeps the ancestor search from looping); the message names the first
/// such column. Also if a count would come out below 1, which shows that
/// `parent` is not the pattern's elimination tree.
pub fn column_counts(pattern: &SymmetricPattern, parent: &[Option<usize>]) -> Vec<u64> {
    const NONE: usize = usize::MAX;
    let n = pattern.order();
    assert_eq!(
        parent.len(),
        n,
        "elimination tree does not match the pattern"
    );
    for (j, p) in parent.iter().enumerate() {
        assert!(
            !p.is_some_and(|p| p <= j),
            "elimination tree: the parent of column {j} is not above it"
        );
    }
    // Postorder the tree without a stack: children come before their parents
    // in index order, so subtree sizes add up in one pass, and each subtree's
    // range of positions is carved out of its parent's in a pass down.
    // `first[j]` is the position of the first node of j's subtree.
    let mut size = vec![1usize; n];
    for j in 0..n {
        if let Some(p) = parent[j] {
            size[p] += size[j];
        }
    }
    let mut delta = vec![0i64; n];
    let mut first = vec![0usize; n];
    let mut post = vec![0usize; n];
    let mut roots_end = 0;
    for j in (0..n).rev() {
        let len = size[j];
        // Once p is placed, `size[p]` holds the next free position in p's
        // range.
        let free = match parent[j] {
            Some(p) => &mut size[p],
            None => &mut roots_end,
        };
        let start = *free;
        *free += len;
        first[j] = start;
        post[start + len - 1] = j;
        size[j] = start;
        if len == 1 {
            delta[j] = 1; // a leaf
        }
    }

    // The largest `first` among the columns of row i seen so far, and the
    // last leaf of row i's subtree.
    let mut maxfirst: Vec<Option<usize>> = vec![None; n];
    let mut prevleaf = vec![NONE; n];
    // Disjoint sets of the visited columns, each named by its highest node.
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in &post {
        if let Some(p) = parent[j] {
            delta[p] -= 1;
        }
        for &i in pattern.neighbors(j) {
            // j is a leaf of row i's subtree unless a column of row i was
            // already seen in j's subtree. A non-leaf would change no count
            // (the row's previous leaf is then below j, their common
            // ancestor is j, and the +1 and −1 cancel); the test saves the
            // ancestor search.
            if i <= j || Some(first[j]) <= maxfirst[i] {
                continue;
            }
            maxfirst[i] = Some(first[j]);
            delta[j] += 1;
            let jprev = std::mem::replace(&mut prevleaf[i], j);
            if jprev == NONE {
                continue;
            }
            // The least common ancestor of jprev and j, compressing the path.
            let mut q = jprev;
            while ancestor[q] != q {
                q = ancestor[q];
            }
            let mut s = jprev;
            while s != q {
                s = std::mem::replace(&mut ancestor[s], q);
            }
            delta[q] -= 1;
        }
        if let Some(p) = parent[j] {
            ancestor[j] = p;
        }
    }
    // Index order visits every child before its parent, as postorder does.
    for j in 0..n {
        if let Some(p) = parent[j] {
            delta[p] += delta[j];
        }
    }
    delta
        .into_iter()
        .enumerate()
        .map(|(j, d)| {
            // Every column holds its diagonal, so a count below 1 shows that
            // `parent` is not the pattern's elimination tree.
            assert!(
                d >= 1,
                "elimination tree: column {j} would count {d} nonzeros; the tree is not the pattern's"
            );
            d as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::elimination_tree;
    use crate::generators::{grid_laplacian_2d, grid_laplacian_3d, random_symmetric};
    use crate::ordering::{minimum_degree, natural, nested_dissection_2d, reverse_cuthill_mckee};
    use crate::testing::row_subtree_counts;

    fn counts_of(pattern: &SymmetricPattern) -> Vec<u64> {
        column_counts(pattern, &elimination_tree(pattern))
    }

    /// `column_counts` against the row-subtree walk on `pattern` as it is
    /// numbered.
    fn assert_matches_reference(pattern: &SymmetricPattern, what: &str) {
        let parent = elimination_tree(pattern);
        assert_eq!(
            column_counts(pattern, &parent),
            row_subtree_counts(pattern, &parent),
            "{what}"
        );
    }

    /// The pattern under the natural, RCM and minimum-degree orderings (and
    /// nested dissection on an `(nx, ny)` grid).
    fn assert_matches_reference_under_every_ordering(
        pattern: &SymmetricPattern,
        grid: Option<(usize, usize)>,
        what: &str,
    ) {
        let n = pattern.order();
        let mut perms = vec![
            ("natural", natural(n)),
            ("rcm", reverse_cuthill_mckee(pattern)),
            ("minimum degree", minimum_degree(pattern)),
        ];
        if let Some((nx, ny)) = grid {
            perms.push(("nested dissection", nested_dissection_2d(nx, ny)));
        }
        for (name, perm) in perms {
            assert_matches_reference(&pattern.permute(&perm), &format!("{what}, {name}"));
        }
    }

    #[test]
    fn tridiagonal_matrix_has_no_fill() {
        let p = SymmetricPattern::from_edges(6, (0..5).map(|i| (i, i + 1)));
        // Column j has the diagonal and one sub-diagonal entry, except the
        // last column.
        assert_eq!(counts_of(&p), vec![2, 2, 2, 2, 2, 1]);
    }

    #[test]
    fn dense_matrix_counts() {
        let n = 5;
        let edges = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        let p = SymmetricPattern::from_edges(n, edges);
        assert_eq!(counts_of(&p), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn star_matrix_has_no_fill() {
        // Arrow/star with centre last: no fill at all.
        let n = 6;
        let p = SymmetricPattern::from_edges(n, (0..n - 1).map(|i| (i, n - 1)));
        assert_eq!(counts_of(&p), vec![2, 2, 2, 2, 2, 1]);
        // Star with centre FIRST: eliminating the centre fills everything.
        let p2 = SymmetricPattern::from_edges(n, (1..n).map(|i| (0, i)));
        let cc2 = counts_of(&p2);
        assert_eq!(cc2[0], n as u64);
        assert_eq!(cc2.iter().sum::<u64>(), (n * (n + 1) / 2) as u64);
    }

    #[test]
    fn fill_reducing_orderings_reduce_fill_on_grids() {
        let (nx, ny) = (15, 15);
        let g = grid_laplacian_2d(nx, ny, false);
        let fill = |perm: &[usize]| counts_of(&g.permute(perm)).iter().sum::<u64>();
        let natural_fill = fill(&natural(nx * ny));
        let nd_fill = fill(&nested_dissection_2d(nx, ny));
        let rcm_fill = fill(&reverse_cuthill_mckee(&g));
        assert!(
            nd_fill < natural_fill,
            "nested dissection ({nd_fill}) should beat the natural ordering ({natural_fill})"
        );
        // RCM keeps the band structure: never catastrophically worse than
        // natural on a grid.
        assert!(rcm_fill <= natural_fill * 2);
    }

    #[test]
    fn counts_match_the_row_subtree_walk_on_small_shapes() {
        for n in [0, 1] {
            assert_eq!(counts_of(&SymmetricPattern::new(n)), vec![1; n]);
        }
        for n in [2, 3, 17] {
            let edgeless = SymmetricPattern::new(n);
            assert_matches_reference(&edgeless, &format!("edgeless n={n}"));
            assert_eq!(counts_of(&edgeless), vec![1; n]);
        }
        for n in 2..=40 {
            let chain = SymmetricPattern::from_edges(n, (1..n).map(|i| (i - 1, i)));
            assert_matches_reference_under_every_ordering(&chain, None, &format!("chain n={n}"));
            for centre in [0, n - 1] {
                let edges = (0..n).filter(|&i| i != centre).map(|i| (centre, i));
                let star = SymmetricPattern::from_edges(n, edges);
                let what = format!("star n={n} centre={centre}");
                assert_matches_reference_under_every_ordering(&star, None, &what);
            }
            let edges = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
            let clique = SymmetricPattern::from_edges(n, edges);
            assert_matches_reference_under_every_ordering(&clique, None, &format!("K_{n}"));
        }
    }

    #[test]
    fn counts_match_the_row_subtree_walk_on_forests_with_isolated_vertices() {
        // Random components over every third index, isolated vertices in
        // between, and a trailing run of isolated vertices.
        for seed in 0..20u64 {
            let r = random_symmetric(90, 3.0, seed);
            let edges = (0..90)
                .flat_map(|i| r.neighbors(i).iter().map(move |&j| (i, j)))
                .filter(|&(i, j)| i % 3 == j % 3 && i % 3 != 2);
            let p = SymmetricPattern::from_edges(97, edges);
            let what = format!("forest, seed={seed}");
            assert_matches_reference_under_every_ordering(&p, None, &what);
        }
    }

    #[test]
    fn counts_match_the_row_subtree_walk_on_grids_and_random_patterns() {
        for (nx, ny) in [(1, 9), (7, 5), (12, 12), (30, 4)] {
            for nine_point in [false, true] {
                let g = grid_laplacian_2d(nx, ny, nine_point);
                let what = format!("{nx}x{ny} nine_point={nine_point}");
                assert_matches_reference_under_every_ordering(&g, Some((nx, ny)), &what);
            }
        }
        let g = grid_laplacian_3d(5, 4, 3);
        assert_matches_reference_under_every_ordering(&g, None, "5x4x3");
        for seed in 0..40u64 {
            let n = 2 + (seed as usize * 53) % 300;
            let density = 1.0 + (seed % 6) as f64;
            let p = random_symmetric(n, density, seed);
            let what = format!("n={n} density={density} seed={seed}");
            assert_matches_reference_under_every_ordering(&p, None, &what);
        }
    }

    #[test]
    #[should_panic(expected = "elimination tree does not match the pattern")]
    fn a_parent_array_of_the_wrong_length_is_rejected() {
        column_counts(&SymmetricPattern::new(3), &[None, None]);
    }

    #[test]
    #[should_panic(expected = "the parent of column 2 is not above it")]
    fn a_parent_cycle_is_rejected() {
        // 1 → 2 → 1: the ancestor search would loop forever.
        let p = SymmetricPattern::from_edges(4, [(1, 2), (2, 3)]);
        column_counts(&p, &[None, Some(2), Some(1), None]);
    }

    #[test]
    #[should_panic(expected = "the parent of column 3 is not above it")]
    fn a_parent_below_its_child_is_rejected() {
        let p = SymmetricPattern::from_edges(5, [(0, 4), (1, 3)]);
        column_counts(&p, &[Some(4), Some(3), None, Some(1), None]);
    }

    #[test]
    #[should_panic(expected = "column 1 would count 0 nonzeros")]
    fn a_tree_that_is_not_the_patterns_is_rejected() {
        // No edges, yet a chain: the counts would come out 1, 0 and −1.
        column_counts(&SymmetricPattern::new(3), &[Some(1), Some(2), None]);
    }
}
