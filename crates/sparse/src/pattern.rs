//! Symmetric sparsity patterns.
//!
//! A pattern is the adjacency structure of the undirected graph of a
//! structurally symmetric matrix: for the purposes of symbolic factorization
//! only the positions of the nonzeros matter, not their values.

/// The sparsity pattern of a symmetric matrix of order `n`.
///
/// Only the strictly-lower/upper adjacency is stored, as sorted neighbour
/// lists; the diagonal is implicitly assumed nonzero (as is standard for
/// factorization of SPD-like matrices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricPattern {
    n: usize,
    adjacency: Vec<Vec<usize>>,
}

impl SymmetricPattern {
    /// Creates an empty pattern (diagonal only) of order `n`.
    pub fn new(n: usize) -> Self {
        SymmetricPattern {
            n,
            adjacency: vec![Vec::new(); n],
        }
    }

    /// Builds a pattern from a list of off-diagonal entries `(i, j)`.
    /// Symmetric counterparts and duplicates are handled automatically;
    /// diagonal entries are ignored.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut p = SymmetricPattern::new(n);
        for (i, j) in edges {
            p.add_edge(i, j);
        }
        p.sort_dedup();
        p
    }

    /// Adds the off-diagonal entry `(i, j)` (and its symmetric counterpart).
    /// Diagonal entries are ignored. Call [`Self::sort_dedup`] once after a
    /// batch of insertions.
    pub fn add_edge(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return;
        }
        self.adjacency[i].push(j);
        self.adjacency[j].push(i);
    }

    /// Sorts the neighbour lists and removes duplicate entries.
    pub fn sort_dedup(&mut self) {
        for list in &mut self.adjacency {
            list.sort_unstable();
            list.dedup();
        }
    }

    /// The order of the matrix.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of off-diagonal nonzeros (counting both triangles).
    pub fn nnz_off_diagonal(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Neighbours of `i` (row/column pattern without the diagonal), sorted.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adjacency[i]
    }

    /// Degree of vertex `i` (number of off-diagonal nonzeros in its row).
    pub fn degree(&self, i: usize) -> usize {
        self.adjacency[i].len()
    }

    /// Applies a permutation: vertex `i` of the new pattern is vertex
    /// `perm[i]` of the old one (`perm` is the new-to-old ordering, as
    /// returned by the ordering heuristics). New row `i` is old row `perm[i]`
    /// relabelled, then sorted and deduplicated, as `sort_dedup` would.
    ///
    /// # Panics
    /// If `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[usize]) -> SymmetricPattern {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut inverse = vec![usize::MAX; self.n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(
                inverse[old] == usize::MAX,
                "permutation contains a duplicate"
            );
            inverse[old] = new;
        }
        let adjacency = perm
            .iter()
            .map(|&old| {
                let mut row: Vec<usize> =
                    self.adjacency[old].iter().map(|&nb| inverse[nb]).collect();
                row.sort_unstable();
                row.dedup();
                row
            })
            .collect();
        SymmetricPattern {
            n: self.n,
            adjacency,
        }
    }

    /// `true` if the underlying graph is connected (useful for sanity checks:
    /// disconnected matrices give forests rather than trees).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &nb in self.neighbors(v) {
                if !seen[nb] {
                    seen[nb] = true;
                    count += 1;
                    stack.push(nb);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::permute_by_edges;

    #[test]
    fn from_edges_symmetrizes_and_dedups() {
        let p = SymmetricPattern::from_edges(4, [(0, 1), (1, 0), (1, 2), (2, 2), (3, 1)]);
        assert_eq!(p.order(), 4);
        assert_eq!(p.neighbors(1), &[0, 2, 3]);
        assert_eq!(p.neighbors(2), &[1]);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.nnz_off_diagonal(), 6);
    }

    #[test]
    fn permutation_relabels_edges() {
        let p = SymmetricPattern::from_edges(3, [(0, 1), (1, 2)]);
        // New order: [2, 1, 0] — new vertex 0 is old 2.
        let q = p.permute(&[2, 1, 0]);
        assert_eq!(q.neighbors(0), &[1]);
        assert_eq!(q.neighbors(1), &[0, 2]);
        assert_eq!(q.neighbors(2), &[1]);
    }

    #[test]
    #[should_panic(expected = "permutation contains a duplicate")]
    fn invalid_permutation_is_rejected() {
        let p = SymmetricPattern::from_edges(3, [(0, 1)]);
        p.permute(&[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "permutation length mismatch")]
    fn a_permutation_of_the_wrong_length_is_rejected() {
        let p = SymmetricPattern::from_edges(3, [(0, 1)]);
        p.permute(&[0, 1]);
    }

    /// A permutation of `0..n` from a xorshift generator.
    fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            perm.swap(i, (*state % (i as u64 + 1)) as usize);
        }
        perm
    }

    #[test]
    fn permute_matches_the_edge_by_edge_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for seed in 0..40u64 {
            let n = (seed as usize * 37) % 200;
            let p = crate::generators::random_symmetric(n.max(1), 1.0 + (seed % 5) as f64, seed);
            for _ in 0..3 {
                let perm = shuffled(p.order(), &mut state);
                assert_eq!(p.permute(&perm), permute_by_edges(&p, &perm), "seed {seed}");
            }
        }
        for n in [0, 1] {
            let p = SymmetricPattern::new(n);
            assert_eq!(p.permute(&shuffled(n, &mut state)), p);
        }
    }

    #[test]
    fn permute_sorts_and_dedups_rows_left_unsorted() {
        // Repeated `add_edge` calls and no `sort_dedup`: rows hold
        // duplicates, out of order.
        let edges = [
            (5, 0),
            (0, 5),
            (2, 4),
            (3, 1),
            (4, 2),
            (0, 3),
            (3, 0),
            (1, 1),
        ];
        let mut p = SymmetricPattern::new(6);
        for (i, j) in edges {
            p.add_edge(i, j);
        }
        assert_eq!(p.neighbors(0), &[5, 5, 3, 3]);
        let mut state = 7u64;
        for _ in 0..20 {
            let perm = shuffled(6, &mut state);
            let q = p.permute(&perm);
            assert_eq!(q, permute_by_edges(&p, &perm));
            let mut sorted = p.clone();
            sorted.sort_dedup();
            assert_eq!(q, sorted.permute(&perm));
        }
    }

    #[test]
    fn connectivity() {
        let connected = SymmetricPattern::from_edges(3, [(0, 1), (1, 2)]);
        assert!(connected.is_connected());
        let disconnected = SymmetricPattern::from_edges(3, [(0, 1)]);
        assert!(!disconnected.is_connected());
    }
}
