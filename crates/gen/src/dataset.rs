//! The two evaluation datasets of the paper (Section 6.1).
//!
//! * **SYNTH** — 330 synthetic binary trees of 3000 nodes, generated
//!   uniformly at random among all binary trees, with node weights drawn
//!   uniformly from `[1, 100]`.
//! * **TREES** — elimination/assembly trees of actual sparse matrices. The
//!   University of Florida collection used by the paper is not available
//!   offline, so the dataset is *substituted* by assembly trees produced by
//!   the [`oocts_sparse`] multifrontal pipeline on synthetic matrices (grid
//!   Laplacians under several orderings and random sparse symmetric
//!   matrices), which span the same range of shapes — deep and narrow,
//!   shallow and bushy, regular and irregular — and the same kind of weight
//!   growth towards the root. See DESIGN.md for the substitution rationale.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

use oocts_sparse::ordering::{compute_ordering, Ordering};
use oocts_sparse::{
    assembly_tree, grid_laplacian_2d, grid_laplacian_3d, random_symmetric, AssemblyOptions,
    SymmetricPattern,
};
use oocts_tree::{claim_in_order, Tree};

use crate::random::random_binary_tree;

/// A named instance of a dataset.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Human-readable name (used in reports).
    pub name: String,
    /// The task tree.
    pub tree: Tree,
}

/// Configuration of the dataset builders, so the paper-scale and quick runs
/// are both reproducible from the same code path.
#[derive(Debug, Clone, Copy)]
pub struct DatasetConfig {
    /// Number of SYNTH instances (paper: 330).
    pub synth_instances: usize,
    /// Number of nodes of each SYNTH tree (paper: 3000).
    pub synth_nodes: usize,
    /// Scale factor of the TREES dataset in `[1, 4]`: larger values produce
    /// more and larger matrices (1 ≈ laptop-quick, 3 ≈ paper-sized shapes).
    pub trees_scale: usize,
    /// Base random seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            synth_instances: 330,
            synth_nodes: 3000,
            trees_scale: 2,
            seed: 0x5eed,
        }
    }
}

impl DatasetConfig {
    /// A reduced configuration for tests and quick experiments.
    pub fn quick() -> Self {
        DatasetConfig {
            synth_instances: 20,
            synth_nodes: 300,
            trees_scale: 1,
            seed: 0x5eed,
        }
    }
}

/// Builds the SYNTH dataset: uniformly random binary trees with weights in
/// `[1, 100]`.
pub fn synth_dataset(config: &DatasetConfig) -> Vec<Instance> {
    (0..config.synth_instances)
        .map(|i| Instance {
            name: format!("synth-{i:03}"),
            tree: random_binary_tree(config.synth_nodes, 1..=100, config.seed ^ (i as u64)),
        })
        .collect()
}

/// Builds the TREES dataset: multifrontal assembly trees of synthetic sparse
/// matrices under several fill-reducing orderings.
///
/// Each generated pattern is one job: the pattern, then for each of its
/// orderings the permutation and the assembly tree. The jobs run on one
/// scoped thread per available core, the caller's among them. The result
/// depends on neither the core count nor the interleaving: the instances
/// come in job order, each pattern's orderings in turn.
///
/// # Panics
/// Re-raises the panic of a job, once every worker has stopped, rather
/// than return part of the dataset.
pub fn trees_dataset(config: &DatasetConfig) -> Vec<Instance> {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    run_jobs(&trees_jobs(config), threads, Job::cost, Job::instances)
        .into_iter()
        .flatten()
        .collect()
}

/// One generated pattern of the TREES dataset and its orderings.
struct Job {
    /// Instances are named `{name}-{ordering:?}`.
    name: String,
    unknowns: usize,
    pattern: Box<dyn Fn() -> SymmetricPattern + Sync>,
    orderings: &'static [Ordering],
    /// The grid's shape, which nested dissection reads.
    grid: Option<(usize, usize)>,
}

impl Job {
    /// Unknowns times orderings: workers claim the largest estimate first.
    fn cost(&self) -> usize {
        self.unknowns * self.orderings.len()
    }

    /// One instance per ordering whose assembly tree builds.
    fn instances(&self) -> Vec<Instance> {
        let pattern = (self.pattern)();
        self.orderings
            .iter()
            .filter_map(|&ordering| {
                let perm = compute_ordering(&pattern, ordering, self.grid);
                let tree =
                    assembly_tree(&pattern.permute(&perm), AssemblyOptions::default()).ok()?;
                Some(Instance {
                    name: format!("{}-{ordering:?}", self.name),
                    tree,
                })
            })
            .collect()
    }
}

/// The jobs of the TREES dataset at the configured scale, in dataset order.
fn trees_jobs(config: &DatasetConfig) -> Vec<Job> {
    let s = config.trees_scale.clamp(1, 4);
    let mut jobs = Vec::new();

    // 2-D grid Laplacians (5- and 9-point) under three orderings, including
    // elongated grids whose elimination trees are deep and unbalanced.
    let grid_sizes: &[(usize, usize)] = match s {
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
    for &(nx, ny) in grid_sizes {
        for nine in [false, true] {
            jobs.push(Job {
                name: format!("grid2d-{nx}x{ny}{}", if nine { "-9pt" } else { "" }),
                unknowns: nx * ny,
                pattern: Box::new(move || grid_laplacian_2d(nx, ny, nine)),
                orderings: &[
                    Ordering::NestedDissection,
                    Ordering::ReverseCuthillMcKee,
                    Ordering::MinimumDegree,
                ],
                grid: Some((nx, ny)),
            });
        }
    }

    // 3-D grid Laplacians (natural + RCM orderings).
    let grid3d: &[(usize, usize, usize)] = match s {
        1 => &[(6, 6, 6), (8, 8, 6)],
        2 => &[(8, 8, 8), (10, 10, 8), (12, 12, 10)],
        3 => &[(10, 10, 10), (14, 14, 12), (16, 16, 16)],
        _ => &[(12, 12, 12), (16, 16, 16), (20, 20, 18)],
    };
    for &(nx, ny, nz) in grid3d {
        jobs.push(Job {
            name: format!("grid3d-{nx}x{ny}x{nz}"),
            unknowns: nx * ny * nz,
            pattern: Box::new(move || grid_laplacian_3d(nx, ny, nz)),
            orderings: &[Ordering::Natural, Ordering::ReverseCuthillMcKee],
            grid: None,
        });
    }

    // Random sparse symmetric matrices under minimum degree and RCM; several
    // seeds per size so the dataset covers many irregular shapes.
    let random_sizes: &[(usize, f64)] = match s {
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
    let seeds_per_size = match s {
        1 => 2,
        2 => 3,
        _ => 2,
    };
    for (i, &(n, deg)) in random_sizes.iter().enumerate() {
        for rep in 0..seeds_per_size {
            let seed = config.seed.wrapping_add((i * 97 + rep * 7919) as u64);
            jobs.push(Job {
                name: format!("rand-{n}-deg{deg}-s{rep}"),
                unknowns: n,
                pattern: Box::new(move || random_symmetric(n, deg, seed)),
                orderings: &[Ordering::MinimumDegree, Ordering::ReverseCuthillMcKee],
                grid: None,
            });
        }
    }

    jobs
}

/// Runs `run` on every job, on up to `threads` scoped threads counting the
/// caller's, and returns the outputs in job order. Workers claim jobs in
/// descending `cost` (ties in job order) through [`claim_in_order`].
///
/// # Panics
/// Re-raises the panic of a job once every worker has stopped.
fn run_jobs<J: Sync, T: Send + Sync>(
    jobs: &[J],
    threads: usize,
    cost: impl Fn(&J) -> usize,
    run: impl Fn(&J) -> T + Sync,
) -> Vec<T> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| Reverse(cost(&jobs[j])));
    let slots: Vec<OnceLock<T>> = jobs.iter().map(|_| OnceLock::new()).collect();
    claim_in_order(&order, threads, |j| {
        // Each index is claimed once, so the slot is empty.
        let _ = slots[j].set(run(&jobs[j]));
    });
    slots.into_iter().filter_map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::Barrier;

    /// The instances of `jobs` built one after another on this thread.
    fn serial(jobs: &[Job]) -> Vec<Instance> {
        jobs.iter().flat_map(Job::instances).collect()
    }

    fn assert_same(expected: &[Instance], actual: &[Instance], what: &str) {
        let names = |ds: &[Instance]| ds.iter().map(|i| i.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(expected), names(actual), "{what}");
        for (e, a) in expected.iter().zip(actual) {
            assert!(e.tree == a.tree, "{what}: {} differs", e.name);
        }
    }

    #[test]
    fn job_runner_returns_every_output_once_in_job_order() {
        // Costs that put the claim order far from the job order.
        let jobs: Vec<usize> = (0..40).map(|j| (j * 17) % 40).collect();
        for threads in [1, 2, 3, 8] {
            let calls = AtomicUsize::new(0);
            let out = run_jobs(
                &jobs,
                threads,
                |&c| c,
                |&c| {
                    calls.fetch_add(1, AtomicOrdering::Relaxed);
                    c * 10
                },
            );
            assert_eq!(out, jobs.iter().map(|c| c * 10).collect::<Vec<_>>());
            assert_eq!(calls.into_inner(), jobs.len(), "{threads} threads");
        }
        assert!(run_jobs(&[] as &[usize], 4, |&c| c, |&c| c).is_empty());

        let trees = trees_jobs(&DatasetConfig::quick());
        let expected = serial(&trees);
        for threads in [1, 2, 3, 8] {
            let built: Vec<Instance> = run_jobs(&trees, threads, Job::cost, Job::instances)
                .into_iter()
                .flatten()
                .collect();
            assert_same(&expected, &built, &format!("{threads} threads"));
        }
    }

    #[test]
    fn trees_dataset_matches_the_serial_loop() {
        for scale in [1, 2] {
            let config = DatasetConfig {
                trees_scale: scale,
                ..DatasetConfig::quick()
            };
            let expected = serial(&trees_jobs(&config));
            assert_same(
                &expected,
                &trees_dataset(&config),
                &format!("scale {scale}"),
            );
        }
    }

    #[test]
    fn a_panicking_job_re_raises_instead_of_shortening_the_output() {
        let jobs: Vec<usize> = (0..20).collect();
        for threads in [1, 2, 3, 8] {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_jobs(
                    &jobs,
                    threads,
                    |&j| j,
                    |&j| {
                        assert_ne!(j, 5, "job 5 fails");
                        j
                    },
                )
            }));
            assert!(outcome.is_err(), "{threads} threads returned {outcome:?}");
        }
        // Two jobs that wait for each other run on both threads at once;
        // either thread's panic reaches the caller with its payload.
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let barrier = Barrier::new(2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_jobs(
                    &[0, 1],
                    2,
                    |&j| j,
                    |_| {
                        barrier.wait();
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("worker failed");
                        }
                    },
                )
            }));
            let payload = outcome.expect_err("the panic is re-raised");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker failed"));
        }
    }

    #[test]
    fn synth_dataset_matches_configuration() {
        let cfg = DatasetConfig {
            synth_instances: 5,
            synth_nodes: 120,
            trees_scale: 1,
            seed: 3,
        };
        let ds = synth_dataset(&cfg);
        assert_eq!(ds.len(), 5);
        for inst in &ds {
            assert_eq!(inst.tree.len(), 120);
            inst.tree.validate().unwrap();
        }
        // Deterministic.
        let ds2 = synth_dataset(&cfg);
        assert_eq!(ds[0].tree, ds2[0].tree);
        // Distinct instances.
        assert_ne!(ds[0].tree, ds[1].tree);
    }

    #[test]
    fn trees_dataset_quick_is_nonempty_and_valid() {
        let ds = trees_dataset(&DatasetConfig::quick());
        assert!(ds.len() >= 10, "expected a reasonable number of instances");
        for inst in &ds {
            inst.tree.validate().unwrap();
            assert!(inst.tree.len() > 20, "{} is too small", inst.name);
        }
        // A variety of shapes: at least one deep tree and one shallow tree.
        let heights: Vec<usize> = ds.iter().map(|i| i.tree.height()).collect();
        let min_h = *heights.iter().min().unwrap();
        let max_h = *heights.iter().max().unwrap();
        assert!(max_h > 3 * min_h, "heights {min_h}..{max_h} lack variety");
    }
}
