//! Fill-reducing orderings.
//!
//! Sparse direct solvers permute the matrix before factorizing it to limit
//! fill-in; the choice of ordering also shapes the elimination tree (deep and
//! narrow for band-preserving orderings, shallow and bushy for nested
//! dissection). Three classical heuristics are provided, plus the natural
//! ordering, so the assembly-tree generator can produce the variety of tree
//! shapes found in the University of Florida collection.
//!
//! All functions return a *new-to-old* permutation `perm`: vertex `i` of the
//! permuted matrix is vertex `perm[i]` of the original one
//! (see [`crate::pattern::SymmetricPattern::permute`]).

use crate::pattern::SymmetricPattern;

/// The ordering strategies available to the assembly-tree pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ordering {
    /// Keep the natural (identity) ordering.
    Natural,
    /// Reverse Cuthill–McKee: bandwidth-reducing, gives deep and narrow
    /// elimination trees.
    ReverseCuthillMcKee,
    /// Minimum degree on the elimination graph: the classical fill-reducing
    /// heuristic, gives irregular trees.
    MinimumDegree,
    /// Nested dissection (grids only): gives shallow, balanced trees.
    NestedDissection,
}

/// Identity permutation.
pub fn natural(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Reverse Cuthill–McKee ordering, started from a pseudo-peripheral vertex of
/// each connected component.
pub fn reverse_cuthill_mckee(pattern: &SymmetricPattern) -> Vec<usize> {
    let n = pattern.order();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if visited[start] {
            continue;
        }
        let root = pseudo_peripheral(pattern, start);
        // BFS from root, visiting neighbours by increasing degree.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        visited[root] = true;
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbs: Vec<usize> = pattern
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| !visited[u])
                .collect();
            nbs.sort_by_key(|&u| pattern.degree(u));
            for u in nbs {
                if !visited[u] {
                    visited[u] = true;
                    queue.push_back(u);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Finds a pseudo-peripheral vertex by repeated BFS (George–Liu heuristic).
fn pseudo_peripheral(pattern: &SymmetricPattern, start: usize) -> usize {
    let mut current = start;
    let mut current_ecc = 0usize;
    for _ in 0..4 {
        let (farthest, ecc) = bfs_farthest(pattern, current);
        if ecc > current_ecc {
            current_ecc = ecc;
            current = farthest;
        } else {
            break;
        }
    }
    current
}

fn bfs_farthest(pattern: &SymmetricPattern, start: usize) -> (usize, usize) {
    let n = pattern.order();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    let mut far = (start, 0usize);
    while let Some(v) = queue.pop_front() {
        for &u in pattern.neighbors(v) {
            if dist[u] == usize::MAX {
                dist[u] = dist[v] + 1;
                if dist[u] > far.1
                    || (dist[u] == far.1 && pattern.degree(u) < pattern.degree(far.0))
                {
                    far = (u, dist[u]);
                }
                queue.push_back(u);
            }
        }
    }
    far
}

/// Minimum-degree ordering: repeatedly eliminates a vertex of minimum degree
/// in the current elimination graph, ties broken by the lowest index.
///
/// The elimination graph is never formed. The work happens on George and
/// Liu's quotient graph ("The evolution of the minimum degree ordering
/// algorithm", SIAM Review 31(1), 1989): each remaining vertex keeps its
/// remaining variable neighbours and the *elements* (eliminated vertices) it
/// is adjacent to. Eliminating `v` turns it into an element whose variable
/// list `L_v` is v's neighbourhood in the elimination graph: its variable
/// neighbours plus the variables of its own elements, which it absorbs. Each
/// `u` in `L_v` then swaps the absorbed elements for `v` and drops the
/// members of `L_v` from its variable list, since `v` implies those edges.
/// Storage never outgrows the input pattern: O(nnz(A) + n).
///
/// The degrees are exact, not approximate (as in AMD) or deferred (as in
/// multiple elimination): `u`'s degree is recomputed as |L_v| − 1 plus every
/// vertex outside `L_v` that `u` reaches through its other elements or its
/// variable list, each counted once. The elimination order is therefore the
/// one the explicit elimination graph would give.
pub fn minimum_degree(pattern: &SymmetricPattern) -> Vec<usize> {
    use std::cmp::Reverse;
    let n = pattern.order();
    // Remaining variable neighbours of each vertex.
    let mut vars: Vec<Vec<usize>> = (0..n).map(|i| pattern.neighbors(i).to_vec()).collect();
    // Elements adjacent to each vertex.
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Variable list of each element; emptied when the element is absorbed
    // (a live element is never empty, as it holds whoever refers to it).
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut degree: Vec<usize> = (0..n).map(|i| pattern.degree(i)).collect();
    let mut eliminated = vec![false; n];
    // `mark[w] == stamp` tags w as seen in the current pass.
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut order = Vec::with_capacity(n);
    // Binary heap of (degree, vertex) with lazy invalidation: a vertex is
    // pushed again only when its degree changes.
    let mut heap: std::collections::BinaryHeap<Reverse<(usize, usize)>> =
        (0..n).map(|i| Reverse((degree[i], i))).collect();

    while let Some(Reverse((deg, v))) = heap.pop() {
        if eliminated[v] || degree[v] != deg {
            continue; // stale entry
        }
        eliminated[v] = true;
        order.push(v);
        // Form L_v, tagged with `in_lv` (v too, so lists drop it below).
        stamp += 1;
        let in_lv = stamp;
        mark[v] = in_lv;
        let mut lv = std::mem::take(&mut vars[v]);
        for &u in &lv {
            mark[u] = in_lv;
        }
        for e in std::mem::take(&mut elems[v]) {
            for u in std::mem::take(&mut members[e]) {
                if mark[u] != in_lv {
                    mark[u] = in_lv;
                    lv.push(u);
                }
            }
        }
        for &u in &lv {
            vars[u].retain(|&w| mark[w] != in_lv);
            elems[u].retain(|&e| !members[e].is_empty());
            stamp += 1;
            let mut new_deg = lv.len() - 1;
            let reach = elems[u].iter().map(|&e| &members[e]);
            for list in reach.chain([&vars[u]]) {
                for &w in list {
                    if mark[w] != in_lv && mark[w] != stamp {
                        mark[w] = stamp;
                        new_deg += 1;
                    }
                }
            }
            elems[u].push(v);
            if new_deg != degree[u] {
                degree[u] = new_deg;
                heap.push(Reverse((new_deg, u)));
            }
        }
        members[v] = lv;
    }
    order
}

/// Nested dissection for a 2-D grid of `nx × ny` vertices numbered row-major
/// (as produced by [`crate::generators::grid_laplacian_2d`]).
///
/// The grid is recursively split along its longer dimension; separator
/// vertices are numbered last, which yields the classical shallow and
/// balanced elimination trees.
pub fn nested_dissection_2d(nx: usize, ny: usize) -> Vec<usize> {
    let mut perm = Vec::with_capacity(nx * ny);
    // Recursion on sub-rectangles [x0, x1) × [y0, y1).
    fn recurse(nx: usize, x0: usize, x1: usize, y0: usize, y1: usize, perm: &mut Vec<usize>) {
        let w = x1 - x0;
        let h = y1 - y0;
        if w == 0 || h == 0 {
            return;
        }
        if w <= 2 && h <= 2 {
            for y in y0..y1 {
                for x in x0..x1 {
                    perm.push(y * nx + x);
                }
            }
            return;
        }
        if w >= h {
            // Vertical separator at mid column.
            let mid = x0 + w / 2;
            recurse(nx, x0, mid, y0, y1, perm);
            recurse(nx, mid + 1, x1, y0, y1, perm);
            for y in y0..y1 {
                perm.push(y * nx + mid);
            }
        } else {
            let mid = y0 + h / 2;
            recurse(nx, x0, x1, y0, mid, perm);
            recurse(nx, x0, x1, mid + 1, y1, perm);
            for x in x0..x1 {
                perm.push(mid * nx + x);
            }
        }
    }
    recurse(nx, 0, nx, 0, ny, &mut perm);
    perm
}

/// Applies the requested ordering to a pattern, returning the permutation.
///
/// `grid` must be provided (as `(nx, ny)`) for [`Ordering::NestedDissection`].
pub fn compute_ordering(
    pattern: &SymmetricPattern,
    ordering: Ordering,
    grid: Option<(usize, usize)>,
) -> Vec<usize> {
    match ordering {
        Ordering::Natural => natural(pattern.order()),
        Ordering::ReverseCuthillMcKee => reverse_cuthill_mckee(pattern),
        Ordering::MinimumDegree => minimum_degree(pattern),
        Ordering::NestedDissection => {
            // lint: allow(L001, documented precondition: callers pass the grid for NestedDissection)
            let (nx, ny) = grid.expect("nested dissection needs the grid dimensions");
            assert_eq!(nx * ny, pattern.order(), "grid does not match the pattern");
            nested_dissection_2d(nx, ny)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_laplacian_2d, grid_laplacian_3d, random_symmetric};

    /// The reference: minimum degree on the explicitly updated elimination
    /// graph, re-sorting each neighbour's list after every pivot. Same
    /// selection rule (minimum degree, lowest index first) as the
    /// quotient-graph version, at O(Σ d² log d) time and O(nnz(L)) memory.
    fn explicit_minimum_degree(pattern: &SymmetricPattern) -> Vec<usize> {
        let n = pattern.order();
        // Working adjacency as sorted vectors; eliminated vertices are emptied.
        let mut adj: Vec<Vec<usize>> = (0..n).map(|i| pattern.neighbors(i).to_vec()).collect();
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        // Simple binary-heap of (degree, vertex) with lazy invalidation.
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<Reverse<(usize, usize)>> =
            (0..n).map(|i| Reverse((adj[i].len(), i))).collect();

        while let Some(Reverse((deg, v))) = heap.pop() {
            if eliminated[v] || adj[v].len() != deg {
                continue; // stale entry
            }
            eliminated[v] = true;
            order.push(v);
            // Form the clique of v's remaining neighbours.
            let nbs: Vec<usize> = adj[v].iter().copied().filter(|&u| !eliminated[u]).collect();
            for (idx, &u) in nbs.iter().enumerate() {
                // Remove v from u's list and add the other clique members.
                let mut list = std::mem::take(&mut adj[u]);
                list.retain(|&x| x != v && !eliminated[x]);
                for &w in &nbs[idx + 1..] {
                    list.push(w);
                }
                for &w in &nbs[..idx] {
                    list.push(w);
                }
                list.sort_unstable();
                list.dedup();
                let new_deg = list.len();
                adj[u] = list;
                heap.push(Reverse((new_deg, u)));
            }
            adj[v].clear();
        }
        order
    }

    fn assert_same_order(pattern: &SymmetricPattern, what: &str) {
        assert_eq!(
            minimum_degree(pattern),
            explicit_minimum_degree(pattern),
            "{what}"
        );
    }

    fn is_permutation(perm: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        if perm.len() != n {
            return false;
        }
        for &p in perm {
            if p >= n || seen[p] {
                return false;
            }
            seen[p] = true;
        }
        true
    }

    #[test]
    fn all_orderings_are_permutations() {
        let p = grid_laplacian_2d(7, 5, false);
        assert!(is_permutation(&natural(p.order()), p.order()));
        assert!(is_permutation(&reverse_cuthill_mckee(&p), p.order()));
        assert!(is_permutation(&minimum_degree(&p), p.order()));
        assert!(is_permutation(&nested_dissection_2d(7, 5), 35));
        let r = random_symmetric(60, 4.0, 3);
        assert!(is_permutation(&reverse_cuthill_mckee(&r), 60));
        assert!(is_permutation(&minimum_degree(&r), 60));
    }

    #[test]
    fn rcm_reduces_bandwidth_on_grids() {
        // The natural ordering of an nx × ny grid has bandwidth nx; RCM should
        // not make it worse (up to a small constant).
        let (nx, ny) = (20, 4);
        let p = grid_laplacian_2d(nx, ny, false);
        let perm = reverse_cuthill_mckee(&p);
        let q = p.permute(&perm);
        let bandwidth = |pat: &SymmetricPattern| {
            (0..pat.order())
                .flat_map(|i| pat.neighbors(i).iter().map(move |&j| i.abs_diff(j)))
                .max()
                .unwrap_or(0)
        };
        assert!(bandwidth(&q) <= ny + 1, "RCM bandwidth {}", bandwidth(&q));
    }

    #[test]
    fn nested_dissection_numbers_separator_last() {
        let perm = nested_dissection_2d(5, 5);
        // The top-level separator is the middle column (x = 2); its vertices
        // must be the last 5 of the permutation.
        let last: Vec<usize> = perm[20..].to_vec();
        for &v in &last {
            assert_eq!(v % 5, 2, "vertex {v} is not on the middle column");
        }
    }

    #[test]
    fn minimum_degree_starts_with_a_minimum_degree_vertex() {
        let p = grid_laplacian_2d(6, 6, false);
        let perm = minimum_degree(&p);
        // Corners have degree 2, the global minimum on a grid.
        assert_eq!(p.degree(perm[0]), 2);
    }

    #[test]
    fn minimum_degree_matches_the_explicit_graph_on_2d_grids() {
        for nine_point in [false, true] {
            for nx in 1..=12 {
                for ny in 1..=12 {
                    let p = grid_laplacian_2d(nx, ny, nine_point);
                    assert_same_order(&p, &format!("{nx}x{ny} nine_point={nine_point}"));
                }
            }
            for (nx, ny) in [(1, 300), (300, 1), (2, 150), (150, 2), (150, 12), (12, 150)] {
                let p = grid_laplacian_2d(nx, ny, nine_point);
                assert_same_order(&p, &format!("{nx}x{ny} nine_point={nine_point}"));
            }
        }
    }

    #[test]
    fn minimum_degree_matches_the_explicit_graph_on_3d_grids() {
        for nx in 1..=5 {
            for ny in 1..=5 {
                for nz in 1..=5 {
                    let p = grid_laplacian_3d(nx, ny, nz);
                    assert_same_order(&p, &format!("{nx}x{ny}x{nz}"));
                }
            }
        }
        for (nx, ny, nz) in [(8, 8, 8), (12, 6, 4), (2, 3, 40)] {
            let p = grid_laplacian_3d(nx, ny, nz);
            assert_same_order(&p, &format!("{nx}x{ny}x{nz}"));
        }
    }

    #[test]
    fn minimum_degree_matches_the_explicit_graph_on_random_patterns() {
        // (density, largest order): denser patterns fill in more, and the
        // reference is slow in debug builds.
        let shapes = [
            (1.5, 600),
            (2.0, 600),
            (3.0, 400),
            (4.0, 300),
            (5.0, 250),
            (6.0, 200),
        ];
        for seed in 0..60u64 {
            let (density, max_n) = shapes[seed as usize % shapes.len()];
            let n = 2 + (seed as usize * 97) % (max_n - 1);
            let p = random_symmetric(n, density, seed);
            assert_same_order(&p, &format!("n={n} density={density} seed={seed}"));
        }
    }

    #[test]
    fn minimum_degree_matches_the_explicit_graph_on_disconnected_patterns() {
        // Two grids side by side plus isolated vertices between them.
        let a = grid_laplacian_2d(7, 5, true);
        let b = grid_laplacian_3d(3, 4, 2);
        let gap = 6;
        let offset = a.order() + gap;
        let edges = (0..a.order())
            .flat_map(|i| a.neighbors(i).iter().map(move |&j| (i, j)))
            .chain((0..b.order()).flat_map(|i| {
                b.neighbors(i)
                    .iter()
                    .map(move |&j| (i + offset, j + offset))
            }));
        let p = SymmetricPattern::from_edges(offset + b.order() + gap, edges);
        assert!(!p.is_connected());
        assert_same_order(&p, "two grids and isolated vertices");

        // Random components interleaved over the index range.
        for seed in 0..20u64 {
            let r = random_symmetric(80, 3.0, seed);
            let edges = (0..80)
                .flat_map(|i| r.neighbors(i).iter().map(move |&j| (i, j)))
                .filter(|&(i, j)| i % 3 == j % 3);
            let p = SymmetricPattern::from_edges(80, edges);
            assert_same_order(&p, &format!("interleaved components, seed={seed}"));
        }

        // No edges at all.
        let p = SymmetricPattern::new(17);
        assert_eq!(minimum_degree(&p), natural(17));
        assert_same_order(&p, "edgeless");
    }

    #[test]
    fn minimum_degree_of_trivial_patterns() {
        assert!(minimum_degree(&SymmetricPattern::new(0)).is_empty());
        assert_eq!(minimum_degree(&SymmetricPattern::new(1)), vec![0]);
        assert_same_order(&SymmetricPattern::new(0), "n = 0");
        assert_same_order(&SymmetricPattern::new(1), "n = 1");
    }
}
