//! Helpers shared by this crate's unit tests: the kernels that faster ones
//! replaced, kept as references, and the patterns of the TREES dataset.

use crate::generators::{grid_laplacian_2d, grid_laplacian_3d, random_symmetric};
use crate::ordering::{compute_ordering, Ordering};
use crate::pattern::SymmetricPattern;

/// Column counts by walking every row subtree up the elimination tree,
/// counting each newly visited column: O(nnz(L)).
pub(crate) fn row_subtree_counts(pattern: &SymmetricPattern, parent: &[Option<usize>]) -> Vec<u64> {
    let n = pattern.order();
    let mut counts = vec![1u64; n]; // the diagonal entry
    let mut mark = vec![usize::MAX; n];
    for k in 0..n {
        mark[k] = k;
        for &i in pattern.neighbors(k) {
            if i >= k {
                continue;
            }
            let mut j = i;
            while mark[j] != k {
                counts[j] += 1;
                mark[j] = k;
                match parent[j] {
                    Some(p) => j = p,
                    None => break,
                }
            }
        }
    }
    counts
}

/// [`SymmetricPattern::permute`] edge by edge: each edge is pushed into both
/// new rows, then every row is sorted and deduplicated.
pub(crate) fn permute_by_edges(pattern: &SymmetricPattern, perm: &[usize]) -> SymmetricPattern {
    let mut inverse = vec![usize::MAX; pattern.order()];
    for (new, &old) in perm.iter().enumerate() {
        inverse[old] = new;
    }
    let mut out = SymmetricPattern::new(pattern.order());
    for (new, &old) in perm.iter().enumerate() {
        for &nb in pattern.neighbors(old) {
            let nb_new = inverse[nb];
            if nb_new > new {
                out.add_edge(new, nb_new);
            }
        }
    }
    out.sort_dedup();
    out
}

/// One generated pattern of the TREES dataset and its orderings.
pub(crate) struct TreesPattern {
    pub name: String,
    pub pattern: SymmetricPattern,
    /// The grid's shape, which nested dissection reads.
    pub grid: Option<(usize, usize)>,
    pub orderings: &'static [Ordering],
}

impl TreesPattern {
    /// The permutation of each of the pattern's orderings.
    pub fn permutations(&self) -> impl Iterator<Item = (Ordering, Vec<usize>)> + '_ {
        self.orderings
            .iter()
            .map(|&o| (o, compute_ordering(&self.pattern, o, self.grid)))
    }
}

/// The patterns `oocts_gen::dataset::trees_dataset` generates at `scale`
/// (1–4) and dataset `seed`, in its order. `oocts-gen` builds on this crate,
/// which therefore repeats its size lists here.
pub(crate) fn trees_patterns(scale: usize, seed: u64) -> Vec<TreesPattern> {
    let grids2d: &[(usize, usize)] = match scale {
        1 => &[(20, 20), (30, 20), (40, 25), (60, 10)],
        2 => &[
            (20, 20),
            (30, 30),
            (40, 40),
            (60, 40),
            (70, 70),
            (100, 20),
            (150, 12),
            (45, 35),
        ],
        3 => &[
            (30, 30),
            (50, 50),
            (70, 70),
            (90, 90),
            (110, 100),
            (200, 25),
            (160, 40),
        ],
        _ => &[
            (40, 40),
            (70, 70),
            (100, 100),
            (130, 130),
            (160, 150),
            (300, 30),
        ],
    };
    let grids3d: &[(usize, usize, usize)] = match scale {
        1 => &[(6, 6, 6), (8, 8, 6)],
        2 => &[(8, 8, 8), (10, 10, 8), (12, 12, 10)],
        3 => &[(10, 10, 10), (14, 14, 12), (16, 16, 16)],
        _ => &[(12, 12, 12), (16, 16, 16), (20, 20, 18)],
    };
    let random: &[(usize, f64)] = match scale {
        1 => &[(300, 3.0), (500, 4.0), (400, 2.5)],
        2 => &[
            (500, 3.0),
            (800, 4.0),
            (1200, 5.0),
            (2000, 3.5),
            (600, 2.5),
            (1500, 3.0),
        ],
        3 => &[
            (1000, 3.0),
            (2000, 4.0),
            (4000, 4.0),
            (6000, 3.5),
            (3000, 2.5),
        ],
        _ => &[(2000, 3.0), (4000, 4.0), (8000, 4.0), (12000, 3.5)],
    };
    let seeds_per_size = if scale == 2 { 3 } else { 2 };

    let mut out = Vec::new();
    for &(nx, ny) in grids2d {
        for nine_point in [false, true] {
            out.push(TreesPattern {
                name: format!("grid2d-{nx}x{ny} nine_point={nine_point}"),
                pattern: grid_laplacian_2d(nx, ny, nine_point),
                grid: Some((nx, ny)),
                orderings: &[
                    Ordering::NestedDissection,
                    Ordering::ReverseCuthillMcKee,
                    Ordering::MinimumDegree,
                ],
            });
        }
    }
    for &(nx, ny, nz) in grids3d {
        out.push(TreesPattern {
            name: format!("grid3d-{nx}x{ny}x{nz}"),
            pattern: grid_laplacian_3d(nx, ny, nz),
            grid: None,
            orderings: &[Ordering::Natural, Ordering::ReverseCuthillMcKee],
        });
    }
    for (i, &(n, density)) in random.iter().enumerate() {
        for rep in 0..seeds_per_size {
            let seed = seed.wrapping_add((i * 97 + rep * 7919) as u64);
            out.push(TreesPattern {
                name: format!("rand-{n}-deg{density} seed={seed}"),
                pattern: random_symmetric(n, density, seed),
                grid: None,
                orderings: &[Ordering::MinimumDegree, Ordering::ReverseCuthillMcKee],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etree::elimination_tree;
    use crate::symbolic::column_counts;

    /// The dataset's default seed, which perfbench's TREES workload uses too.
    const SEED: u64 = 0x5eed;

    #[test]
    #[ignore = "builds every TREES pattern of scales 1-4; run with --release -- --ignored"]
    fn counts_and_permute_match_their_references_at_every_trees_scale() {
        for scale in 1..=4 {
            for p in trees_patterns(scale, SEED) {
                for (ordering, perm) in p.permutations() {
                    let what = format!("scale {scale}, {} {ordering:?}", p.name);
                    let permuted = p.pattern.permute(&perm);
                    assert_eq!(permuted, permute_by_edges(&p.pattern, &perm), "{what}");
                    let parent = elimination_tree(&permuted);
                    assert_eq!(
                        column_counts(&permuted, &parent),
                        row_subtree_counts(&permuted, &parent),
                        "{what}"
                    );
                }
            }
        }
    }
}
