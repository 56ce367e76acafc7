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

/// Work done by one [`minimum_degree_with_stats`] call. The counts depend
/// only on the pattern, so they repeat exactly from call to call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinimumDegreeStats {
    /// Eliminations, one per vertex.
    pub pivots: usize,
    /// Exact degree recounts: one per supervariable of each new element.
    pub recounts: usize,
    /// List entries the recounts visited.
    pub entries: usize,
    /// Supervariables merged into an indistinguishable one.
    pub merges: usize,
}

/// Minimum-degree ordering: repeatedly eliminates a vertex of minimum degree
/// in the current elimination graph, ties broken by the lowest index.
///
/// The elimination graph is never formed. The work happens on George and
/// Liu's quotient graph ("The evolution of the minimum degree ordering
/// algorithm", SIAM Review 31(1), 1989): each remaining variable keeps its
/// remaining variable neighbours and the *elements* (eliminated vertices) it
/// is adjacent to. Eliminating `v` turns it into an element whose variable
/// list `L_v` is v's neighbourhood in the elimination graph: its variable
/// neighbours plus the variables of its own elements, which it absorbs. Each
/// `u` in `L_v` then swaps the absorbed elements for `v` and drops the
/// members of `L_v` from its variable list, since `v` implies those edges.
/// Storage never outgrows the input pattern: O(nnz(A) + n).
///
/// Variables with equal closed neighbourhoods are *indistinguishable*: they
/// share one degree, and stay indistinguishable until one of them is
/// eliminated (George and Liu, as above). After every pivot, each variable
/// of `L_v` is hashed by its (element list, variable list), as in Amestoy,
/// Davis and Duff's AMD (SIMAX 17(4), 1996); equal hashes are compared
/// exactly, and equal lists merge into one *supervariable*. Its *principal*,
/// the group's highest index, stands for it in every list and carries the
/// group's size as a weight. A degree is the weight of everything the
/// variable reaches plus the rest of its own group, and one recount serves
/// the whole group.
///
/// The degrees stay exact: true degrees, not approximate (AMD) or external
/// (multiple minimum degree) ones. Each pop eliminates one vertex: not an
/// independent set of them (multiple elimination), nor a whole group (mass
/// elimination, which could step over a twin that list equality missed and
/// whose index falls inside the group). An indexed heap holds each live
/// principal once, keyed (degree, lowest member); a pop eliminates that
/// member, and the principal goes last. The members of different groups are
/// disjoint, so no two keys tie, and the elimination order is the one the
/// explicit elimination graph would give.
pub fn minimum_degree(pattern: &SymmetricPattern) -> Vec<usize> {
    minimum_degree_with_stats(pattern).0
}

/// [`minimum_degree`], also returning the work it did.
pub fn minimum_degree_with_stats(pattern: &SymmetricPattern) -> (Vec<usize>, MinimumDegreeStats) {
    let n = pattern.order();
    let mut stats = MinimumDegreeStats::default();
    // Remaining variable neighbours of each principal.
    let mut vars: Vec<Vec<usize>> = (0..n).map(|i| pattern.neighbors(i).to_vec()).collect();
    // Elements adjacent to each principal.
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    // Variable list of each element; emptied when the element is absorbed
    // (a live element is never empty, as it holds whoever refers to it).
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    // The size of each principal's group, 0 for every other vertex: lists
    // may keep a merged variable until they are next pruned, at no weight.
    let mut nv = vec![1usize; n];
    // A group's members ascend from `first[p]` along `next` to p itself.
    let mut first: Vec<usize> = (0..n).collect();
    let mut next = vec![NONE; n];
    let mut degree: Vec<usize> = (0..n).map(|i| pattern.degree(i)).collect();
    // `mark[w] == stamp` tags w as seen in the current pass.
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut order = Vec::with_capacity(n);
    // Each live principal p once, keyed (degree[p], first[p]).
    let mut heap = IndexedHeap::new(degree.iter().copied().zip(0..n));
    // Detection scratch: (hash, principal) pairs.
    let mut hashed: Vec<(usize, usize)> = Vec::new();

    while let Some(((deg, v), p)) = heap.pop() {
        debug_assert!(nv[p] > 0 && first[p] == v && degree[p] == deg);
        stats.pivots += 1;
        order.push(v);
        // Form L_v from p's lists, tagged with `in_lv` (p too, so lists drop
        // it below). If v is not p, p stays in L_v for the rest of the group.
        stamp += 1;
        let in_lv = stamp;
        mark[p] = in_lv;
        let mut lv = std::mem::take(&mut vars[p]);
        lv.retain(|&w| nv[w] > 0);
        for &u in &lv {
            mark[u] = in_lv;
        }
        if v == p {
            nv[p] = 0;
        } else {
            first[p] = next[v];
            nv[p] -= 1;
            lv.push(p);
        }
        for e in std::mem::take(&mut elems[p]) {
            for u in std::mem::take(&mut members[e]) {
                if nv[u] > 0 && mark[u] != in_lv {
                    mark[u] = in_lv;
                    lv.push(u);
                }
            }
        }
        let weight: usize = lv.iter().map(|&u| nv[u]).sum();
        for &u in &lv {
            vars[u].retain(|&w| mark[w] != in_lv && nv[w] > 0);
            elems[u].retain(|&e| !members[e].is_empty());
            stamp += 1;
            let mut new_deg = weight - 1;
            let reach = elems[u].iter().map(|&e| &members[e]);
            for list in reach.chain([&vars[u]]) {
                stats.entries += list.len();
                for &w in list {
                    if mark[w] != in_lv && mark[w] != stamp {
                        mark[w] = stamp;
                        new_deg += nv[w];
                    }
                }
            }
            elems[u].push(v);
            // If v is not p, p left the heap with the pop and goes back in
            // with its new lowest member.
            degree[u] = new_deg;
            heap.set(u, (new_deg, first[u]));
        }
        stats.recounts += lv.len();

        // Variables of L_v with equal lists are indistinguishable: merge
        // each class into its highest principal, visited first.
        hashed.clear();
        hashed.extend(lv.iter().map(|&u| {
            let lists = elems[u].iter().chain(&vars[u]);
            (lists.fold(0usize, |h, &x| h.wrapping_add(x)), u)
        }));
        hashed.sort_unstable();
        for run in hashed.chunk_by(|a, b| a.0 == b.0) {
            for (k, &(_, i)) in run.iter().enumerate().rev() {
                if nv[i] == 0 {
                    continue;
                }
                // One stamp tags both lists: they were just pruned, so the
                // variables are live and no id is also an element.
                stamp += 1;
                for &x in elems[i].iter().chain(&vars[i]) {
                    mark[x] = stamp;
                }
                let old_first = first[i];
                for &(_, a) in run[..k].iter().rev() {
                    let equal = nv[a] > 0
                        && elems[a].len() == elems[i].len()
                        && vars[a].len() == vars[i].len()
                        && elems[a].iter().chain(&vars[a]).all(|&x| mark[x] == stamp);
                    if !equal {
                        continue;
                    }
                    // Splice a's members, all below i, into i's.
                    let (mut x, mut prev, mut y) = (first[a], NONE, first[i]);
                    loop {
                        while y < x {
                            prev = y;
                            y = next[y];
                        }
                        let after = next[x];
                        next[x] = y;
                        if prev == NONE {
                            first[i] = x;
                        } else {
                            next[prev] = x;
                        }
                        prev = x;
                        if x == a {
                            break;
                        }
                        x = after;
                    }
                    nv[i] += nv[a];
                    nv[a] = 0;
                    heap.remove(a);
                    vars[a] = Vec::new();
                    elems[a] = Vec::new();
                    stats.merges += 1;
                }
                if first[i] != old_first {
                    heap.set(i, (degree[i], first[i]));
                }
            }
        }
        lv.retain(|&u| nv[u] > 0);
        members[v] = lv;
    }
    (order, stats)
}

/// "No such vertex" in the minimum-degree lists and heap.
const NONE: usize = usize::MAX;

/// A binary min-heap of vertices, each present at most once, with the keys
/// stored in the heap array and each vertex's slot in `pos`, so a key can be
/// changed or a vertex removed in place.
struct IndexedHeap {
    /// (key, vertex) in heap order.
    slots: Vec<((usize, usize), usize)>,
    /// The slot of each vertex, [`NONE`] if it is not in the heap.
    pos: Vec<usize>,
}

impl IndexedHeap {
    /// Vertex `i` keyed by the `i`-th key; builds the heap in O(n).
    fn new(keys: impl ExactSizeIterator<Item = (usize, usize)>) -> Self {
        let n = keys.len();
        let mut heap = IndexedHeap {
            slots: keys.zip(0..n).collect(),
            pos: (0..n).collect(),
        };
        for i in (0..n / 2).rev() {
            heap.sift_down(i);
        }
        heap
    }

    /// Sets `v`'s key, inserting `v` if it is not in the heap.
    fn set(&mut self, v: usize, key: (usize, usize)) {
        let i = self.pos[v];
        if i == NONE {
            self.slots.push((key, v));
            self.sift_up(self.slots.len() - 1);
        } else {
            self.slots[i].0 = key;
            self.sift_up(i);
            self.sift_down(self.pos[v]);
        }
    }

    /// Takes `v` out of the heap, if it is there.
    fn remove(&mut self, v: usize) {
        let i = self.pos[v];
        if i == NONE {
            return;
        }
        self.pos[v] = NONE;
        let Some(last) = self.slots.pop() else {
            return;
        };
        if i < self.slots.len() {
            self.slots[i] = last;
            self.sift_up(i);
            self.sift_down(self.pos[last.1]);
        }
    }

    /// Removes and returns the vertex of smallest key, with its key.
    fn pop(&mut self) -> Option<((usize, usize), usize)> {
        let top = *self.slots.first()?;
        self.remove(top.1);
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.slots[i];
        while i > 0 {
            let up = (i - 1) / 2;
            if self.slots[up].0 < item.0 {
                break;
            }
            self.slots[i] = self.slots[up];
            self.pos[self.slots[i].1] = i;
            i = up;
        }
        self.slots[i] = item;
        self.pos[item.1] = i;
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.slots[i];
        let len = self.slots.len();
        loop {
            let mut down = 2 * i + 1;
            if down >= len {
                break;
            }
            if down + 1 < len && self.slots[down + 1].0 < self.slots[down].0 {
                down += 1;
            }
            if item.0 < self.slots[down].0 {
                break;
            }
            self.slots[i] = self.slots[down];
            self.pos[self.slots[i].1] = i;
            i = down;
        }
        self.slots[i] = item;
        self.pos[item.1] = i;
    }
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
    use crate::testing::trees_patterns;

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

    /// The complete k-partite graph on `0..n` whose parts are the residues
    /// `i mod k` (the clique K_n when k ≥ n).
    fn complete_multipartite(n: usize, k: usize) -> SymmetricPattern {
        let edges = (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j)));
        SymmetricPattern::from_edges(n, edges.filter(|&(i, j)| i % k != j % k))
    }

    #[test]
    fn minimum_degree_matches_the_explicit_graph_where_supervariables_form() {
        // Cliques and complete k-partite graphs: after the first pivot, each
        // part left whole is one group, and the groups interleave by index.
        for n in 1..=40 {
            assert_same_order(&complete_multipartite(n, n), &format!("K_{n}"));
            for k in 2..=6 {
                let p = complete_multipartite(n, k);
                assert_same_order(&p, &format!("n={n}, parts i mod {k}"));
            }
        }
        // Stars, centred low, in the middle and high: the leaves form one
        // group once the centre goes, or after the first leaf goes.
        for n in 2..=60 {
            for centre in [0, n / 2, n - 1] {
                let edges = (0..n).filter(|&i| i != centre).map(|i| (centre, i));
                let p = SymmetricPattern::from_edges(n, edges);
                assert_same_order(&p, &format!("star n={n} centre={centre}"));
            }
        }
        // Chains of cliques, consecutive cliques sharing one vertex, with the
        // ids shuffled by a stride coprime to n.
        for size in 2..=7 {
            for count in 1..=8 {
                let n = count * (size - 1) + 1;
                let cliques = (0..count).map(|c| c * (size - 1)..c * (size - 1) + size);
                let edges: Vec<(usize, usize)> = cliques
                    .flat_map(|r| {
                        r.clone()
                            .flat_map(move |i| (i + 1..r.end).map(move |j| (i, j)))
                    })
                    .collect();
                // 1 or a prime: coprime to n unless it divides n.
                for stride in [1, 3, 7, 11] {
                    if stride > 1 && n % stride == 0 {
                        continue;
                    }
                    let id = |i: usize| i * stride % n;
                    let p =
                        SymmetricPattern::from_edges(n, edges.iter().map(|&(i, j)| (id(i), id(j))));
                    let what = format!("{count} cliques of {size}, stride {stride}");
                    assert_same_order(&p, &what);
                }
            }
        }
    }

    #[test]
    fn minimum_degree_matches_the_explicit_graph_on_dense_random_patterns() {
        // Average degree 10 to 40: fill makes groups form early.
        for seed in 0..20u64 {
            let n = 40 + (seed as usize * 37) % 111;
            let density = 10.0 + (seed % 7) as f64 * 5.0;
            let p = random_symmetric(n, density, seed);
            assert_same_order(&p, &format!("n={n} density={density} seed={seed}"));
        }
    }

    /// The minimum-degree patterns of the scale-2 TREES dataset (the
    /// benchmark's trees-mid workload): 5- and 9-point 2-D grids, and
    /// random patterns at two dataset seeds.
    #[test]
    #[ignore = "the reference takes seconds per seed in release; run with --release -- --ignored"]
    fn minimum_degree_matches_the_explicit_graph_on_the_scale_2_trees_patterns() {
        for dataset_seed in [0u64, 0x5eed] {
            for p in trees_patterns(2, dataset_seed) {
                // The grids do not depend on the seed: check them once.
                let again = p.grid.is_some() && dataset_seed != 0;
                if p.orderings.contains(&Ordering::MinimumDegree) && !again {
                    assert_same_order(&p.pattern, &p.name);
                }
            }
        }
    }

    /// The work on trees-mid's 34 minimum-degree patterns (scale 2, the
    /// dataset's default seed) is the same as before the indexed heap.
    #[test]
    fn minimum_degree_work_on_the_trees_mid_patterns_is_pinned() {
        let mut total = MinimumDegreeStats::default();
        for p in trees_patterns(2, 0x5eed) {
            if p.orderings.contains(&Ordering::MinimumDegree) {
                let stats = minimum_degree_with_stats(&p.pattern).1;
                total.pivots += stats.pivots;
                total.recounts += stats.recounts;
                total.entries += stats.entries;
                total.merges += stats.merges;
            }
        }
        let pinned = MinimumDegreeStats {
            pivots: 50_950,
            recounts: 380_496,
            entries: 13_586_433,
            merges: 15_006,
        };
        assert_eq!(total, pinned);
    }

    /// Checks the heap order and that `pos` finds every vertex in its slot.
    fn assert_heap_is_consistent(heap: &IndexedHeap) {
        for (i, &(key, v)) in heap.slots.iter().enumerate() {
            assert_eq!(heap.pos[v], i, "slot of {v}");
            if i > 0 {
                assert!(heap.slots[(i - 1) / 2].0 < key, "heap order at {i}");
            }
        }
        let present = heap.pos.iter().filter(|&&i| i != NONE).count();
        assert_eq!(present, heap.slots.len());
    }

    #[test]
    fn indexed_heap_tracks_a_model_set() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for n in [1, 2, 3, 10, 100, 1000] {
            // Keys are unique, as minimum degree's are: the second part
            // encodes the vertex.
            let key =
                |v: usize, next: &mut dyn FnMut(usize) -> usize| (next(8), next(1 << 16) * n + v);
            let initial: Vec<(usize, usize)> = (0..n).map(|v| key(v, &mut next)).collect();
            let mut heap = IndexedHeap::new(initial.iter().copied());
            let mut model: std::collections::BTreeSet<((usize, usize), usize)> =
                initial.iter().copied().zip(0..n).collect();
            let mut keys: Vec<Option<(usize, usize)>> = initial.into_iter().map(Some).collect();
            assert_heap_is_consistent(&heap);
            for _ in 0..4_000 {
                let v = next(n);
                match next(4) {
                    0 | 1 => {
                        let k = key(v, &mut next);
                        if let Some(old) = keys[v].replace(k) {
                            model.remove(&(old, v));
                        }
                        model.insert((k, v));
                        heap.set(v, k);
                    }
                    2 => {
                        if let Some(old) = keys[v].take() {
                            model.remove(&(old, v));
                        }
                        heap.remove(v);
                    }
                    _ => {
                        let top = model.pop_first();
                        if let Some((_, u)) = top {
                            keys[u] = None;
                        }
                        assert_eq!(heap.pop(), top, "n = {n}");
                    }
                }
                assert_heap_is_consistent(&heap);
            }
            while let Some(top) = model.pop_first() {
                assert_eq!(heap.pop(), Some(top), "n = {n}");
            }
            assert_eq!(heap.pop(), None);
        }
    }

    #[test]
    fn minimum_degree_stats_count_the_work() {
        let p = random_symmetric(300, 6.0, 11);
        let stats = minimum_degree_with_stats(&p).1;
        assert_eq!(stats.pivots, 300);
        assert!(stats.recounts > 0 && stats.entries > 0);
        assert_eq!(minimum_degree_with_stats(&p).1, stats, "counts repeat");

        // K_n: the first pivot recounts the other n − 1 vertices and merges
        // them into one group; each later pivot recounts only its principal.
        for n in [2, 10, 200] {
            let (perm, stats) = minimum_degree_with_stats(&complete_multipartite(n, n));
            assert_eq!(perm, natural(n));
            assert_eq!(stats.pivots, n);
            assert_eq!(stats.merges, n - 2);
            assert!(stats.recounts <= 2 * n, "K_{n}: {stats:?}");
        }
    }
}
