//! Elimination trees (Liu's algorithm).
//!
//! The elimination tree of a symmetric pattern records, for every column `j`
//! of the Cholesky factor, the row index of its first sub-diagonal nonzero.
//! It is the dependency structure of the numerical factorization: column `j`
//! must be eliminated before its parent. Computed with Liu's nearly-linear
//! algorithm (path compression over a virtual forest).

use crate::pattern::SymmetricPattern;

/// Computes the elimination tree of `pattern` (in its current ordering).
///
/// Returns `parent`, where `parent[j]` is the parent column of `j`, or `None`
/// if `j` is a root (the last column of each connected component).
pub fn elimination_tree(pattern: &SymmetricPattern) -> Vec<Option<usize>> {
    let n = pattern.order();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut ancestor: Vec<Option<usize>> = vec![None; n];
    for k in 0..n {
        for &i in pattern.neighbors(k) {
            if i >= k {
                continue;
            }
            // Walk from i up the (compressed) ancestor pointers to the root
            // of its current virtual tree, then attach that root to k.
            let mut j = i;
            loop {
                match ancestor[j] {
                    Some(a) if a == k => break,
                    Some(a) => {
                        ancestor[j] = Some(k);
                        j = a;
                    }
                    None => {
                        ancestor[j] = Some(k);
                        parent[j] = Some(k);
                        break;
                    }
                }
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_laplacian_2d, random_symmetric};
    use crate::ordering::{nested_dissection_2d, reverse_cuthill_mckee};

    fn roots(parent: &[Option<usize>]) -> usize {
        parent.iter().filter(|p| p.is_none()).count()
    }

    #[test]
    fn etree_of_a_tridiagonal_matrix_is_a_chain() {
        // Path graph 0-1-2-3-4: parent[i] = i + 1.
        let p = SymmetricPattern::from_edges(5, (0..4).map(|i| (i, i + 1)));
        let parent = elimination_tree(&p);
        assert_eq!(parent, vec![Some(1), Some(2), Some(3), Some(4), None]);
    }

    #[test]
    fn etree_of_an_arrow_matrix_is_a_star() {
        // Star centred at the last vertex: every column's first nonzero below
        // the diagonal is the last row.
        let n = 6;
        let p = SymmetricPattern::from_edges(n, (0..n - 1).map(|i| (i, n - 1)));
        let parent = elimination_tree(&p);
        for par in &parent[..n - 1] {
            assert_eq!(*par, Some(n - 1));
        }
        assert_eq!(parent[n - 1], None);
    }

    #[test]
    fn disconnected_pattern_gives_a_forest() {
        let p = SymmetricPattern::from_edges(4, [(0, 1), (2, 3)]);
        let parent = elimination_tree(&p);
        assert_eq!(roots(&parent), 2);
    }

    #[test]
    fn connected_patterns_give_single_root_under_any_ordering() {
        let g = grid_laplacian_2d(6, 5, false);
        for perm in [reverse_cuthill_mckee(&g), nested_dissection_2d(6, 5)] {
            let q = g.permute(&perm);
            let parent = elimination_tree(&q);
            assert_eq!(roots(&parent), 1);
            // The root is always the last column for a connected matrix.
            assert_eq!(parent[q.order() - 1], None);
        }
        let r = random_symmetric(40, 3.0, 11);
        let parent = elimination_tree(&r);
        assert_eq!(roots(&parent), 1);
    }

    #[test]
    fn parents_always_point_to_larger_indices() {
        let g = random_symmetric(80, 4.0, 5);
        let parent = elimination_tree(&g);
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert!(*p > i, "parent of {i} is {p}");
            }
        }
    }
}
