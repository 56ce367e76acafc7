//! The benchmark's workloads: which trees each one builds, under which
//! memory bound, with which schedulers and how many engine threads.
//!
//! Why each workload exists is recorded in `README.md` next to this package.

use std::sync::Arc;

use oocts_core::registry::SchedulerRegistry;
use oocts_core::scheduler::Scheduler;
use oocts_gen::dataset::{synth_dataset, trees_dataset, DatasetConfig, Instance};
use oocts_profile::{ExperimentConfig, MemoryBound};
use oocts_sparse::ordering::{compute_ordering, Ordering};
use oocts_sparse::{
    assembly_tree, grid_laplacian_2d, grid_laplacian_3d, random_symmetric, AssemblyOptions,
    SymmetricPattern,
};
use oocts_tree::Tree;
use serde::value::Value;

use crate::trace::Tracer;

/// The names of the workloads, in the order the benchmark defines them.
pub const WORKLOADS: [&str; 3] = ["trees-mid", "synth-lb", "imbal-t2"];

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Where a workload's trees come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// The TREES dataset (multifrontal assembly trees) at a scale factor.
    Trees { scale: usize },
    /// SYNTH random binary trees with weights in `[1, 100]`.
    Synth { instances: usize, nodes: usize },
    /// One huge SYNTH tree followed by many tiny ones.
    Imbal {
        huge_nodes: usize,
        tiny: usize,
        tiny_nodes: usize,
    },
}

/// One workload: its trees, memory bound, schedulers and thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// The trees it solves.
    pub source: Source,
    /// The paper's memory bound it uses.
    pub bound: MemoryBound,
    /// Scheduler spec list, resolved through the built-in registry.
    pub schedulers: &'static str,
    /// Engine worker threads of the untraced run.
    pub threads: usize,
}

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn named(name: &str) -> Option<Workload> {
        let w = match name {
            "trees-mid" => Workload {
                name: "trees-mid",
                source: Source::Trees { scale: 2 },
                bound: MemoryBound::Middle,
                schedulers: "PostOrderMinIO,OptMinMem,RecExpand,PostOrderMinMem",
                threads: 1,
            },
            "synth-lb" => Workload {
                name: "synth-lb",
                source: Source::Synth {
                    instances: 40,
                    nodes: 3000,
                },
                bound: MemoryBound::LowerBound,
                schedulers: "PostOrderMinIO,OptMinMem,RecExpand,FullRecExpand",
                threads: 1,
            },
            "imbal-t2" => Workload {
                name: "imbal-t2",
                source: Source::Imbal {
                    huge_nodes: 1 << 18,
                    tiny: 63,
                    tiny_nodes: 250,
                },
                bound: MemoryBound::Middle,
                schedulers: "PostOrderMinIO,OptMinMem,PostOrderMinMem",
                threads: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The same workload on far smaller trees, for the package's tests. It
    /// has a name of its own, so no recorded digest applies to it.
    pub fn miniature(self) -> Workload {
        let (name, source) = match self.source {
            Source::Trees { .. } => ("mini-trees", Source::Trees { scale: 1 }),
            Source::Synth { .. } => (
                "mini-synth",
                Source::Synth {
                    instances: 4,
                    nodes: 200,
                },
            ),
            Source::Imbal { .. } => (
                "mini-imbal",
                Source::Imbal {
                    huge_nodes: 3000,
                    tiny: 7,
                    tiny_nodes: 100,
                },
            ),
        };
        Workload {
            name,
            source,
            ..self
        }
    }

    /// The schedulers of the workload, in column order.
    pub fn scheduler_list(&self) -> Vec<Arc<dyn Scheduler>> {
        SchedulerRegistry::with_builtins()
            .get_list(self.schedulers)
            .expect("the workload scheduler specs name built-in schedulers")
    }

    /// The experiment configuration at `threads` engine workers.
    pub fn config(&self, threads: usize) -> ExperimentConfig {
        ExperimentConfig {
            threads,
            ..ExperimentConfig::new(self.scheduler_list(), self.bound)
        }
    }

    /// The workload's parameters, for the record of every result.
    pub fn params(&self, seed: u64, threads: usize) -> Value {
        let source = match self.source {
            Source::Trees { scale } => Value::object()
                .with("dataset", Value::Str("TREES".into()))
                .with("scale", Value::U64(scale as u64)),
            Source::Synth { instances, nodes } => Value::object()
                .with("dataset", Value::Str("SYNTH".into()))
                .with("instances", Value::U64(instances as u64))
                .with("nodes", Value::U64(nodes as u64)),
            Source::Imbal {
                huge_nodes,
                tiny,
                tiny_nodes,
            } => Value::object()
                .with("dataset", Value::Str("IMBAL".into()))
                .with("huge_nodes", Value::U64(huge_nodes as u64))
                .with("tiny", Value::U64(tiny as u64))
                .with("tiny_nodes", Value::U64(tiny_nodes as u64)),
        };
        Value::object()
            .with("workload", Value::Str(self.name.into()))
            .with("seed", Value::U64(seed))
            .with("source", source)
            .with("bound", Value::Str(self.bound.name().into()))
            .with("schedulers", Value::Str(self.schedulers.into()))
            .with("threads", Value::U64(threads as u64))
            .with("filter_interesting", Value::Bool(false))
    }

    /// Builds the workload's trees with the public dataset builders; this is
    /// what `setup_s` times.
    pub fn setup(&self, seed: u64) -> Vec<(String, Tree)> {
        match self.source {
            Source::Trees { scale } => named(trees_dataset(&DatasetConfig {
                synth_instances: 0,
                synth_nodes: 0,
                trees_scale: scale,
                seed,
            })),
            _ => self.synthetic(seed, synth_dataset),
        }
    }

    /// Builds the same trees inside spans: the sparse pipeline stage by
    /// stage for TREES (checked against [`Workload::setup`] by the caller),
    /// each `synth_dataset` call otherwise.
    ///
    /// # Errors
    /// A TREES scale whose stage list the benchmark does not know.
    pub fn setup_traced(&self, seed: u64, t: &mut Tracer) -> Result<Vec<(String, Tree)>, String> {
        match self.source {
            Source::Trees { scale } => trees_staged(scale, seed, t),
            _ => Ok(self.synthetic(seed, |config| {
                t.span("gen.synth", None, None, |_| synth_dataset(config))
            })),
        }
    }

    /// SYNTH and IMBAL trees, with `generate` standing for `synth_dataset`.
    fn synthetic(
        &self,
        seed: u64,
        mut generate: impl FnMut(&DatasetConfig) -> Vec<Instance>,
    ) -> Vec<(String, Tree)> {
        let synth = |instances: usize, nodes: usize, seed: u64| DatasetConfig {
            synth_instances: instances,
            synth_nodes: nodes,
            trees_scale: 1,
            seed,
        };
        match self.source {
            Source::Synth { instances, nodes } => named(generate(&synth(instances, nodes, seed))),
            // The composition of `bench --imbalanced`: the huge tree first,
            // the tiny ones from the next seed.
            Source::Imbal {
                huge_nodes,
                tiny,
                tiny_nodes,
            } => {
                let huge = generate(&synth(1, huge_nodes, seed));
                let small = generate(&synth(tiny, tiny_nodes, seed.wrapping_add(1)));
                huge.into_iter()
                    .map(|i| ("imbal-huge".to_string(), i.tree))
                    .chain(
                        small
                            .into_iter()
                            .map(|i| (format!("imbal-{}", i.name), i.tree)),
                    )
                    .collect()
            }
            Source::Trees { .. } => unreachable!("TREES workloads are not synthetic"),
        }
    }
}

fn named(instances: Vec<Instance>) -> Vec<(String, Tree)> {
    instances.into_iter().map(|i| (i.name, i.tree)).collect()
}

/// The matrices `trees_dataset` builds at one scale. It must list them in
/// the generator's order; the traced run checks the trees it builds from
/// this plan against `trees_dataset`, so a drift fails the run.
struct TreesPlan {
    grids2d: &'static [(usize, usize)],
    grids3d: &'static [(usize, usize, usize)],
    random: &'static [(usize, f64)],
    seeds_per_size: usize,
}

fn trees_plan(scale: usize) -> Option<TreesPlan> {
    match scale {
        1 => Some(TreesPlan {
            grids2d: &[(20, 20), (30, 20), (40, 25), (60, 10)],
            grids3d: &[(6, 6, 6), (8, 8, 6)],
            random: &[(300, 3.0), (500, 4.0), (400, 2.5)],
            seeds_per_size: 2,
        }),
        2 => Some(TreesPlan {
            grids2d: &[
                (20, 20),
                (30, 30),
                (40, 40),
                (60, 40),
                (70, 70),
                (100, 20),
                (150, 12),
                (45, 35),
            ],
            grids3d: &[(8, 8, 8), (10, 10, 8), (12, 12, 10)],
            random: &[
                (500, 3.0),
                (800, 4.0),
                (1200, 5.0),
                (2000, 3.5),
                (600, 2.5),
                (1500, 3.0),
            ],
            seeds_per_size: 3,
        }),
        _ => None,
    }
}

/// The TREES dataset built one sparse stage at a time: generator, ordering
/// (minimum degree apart from the others), permutation, assembly tree.
fn trees_staged(scale: usize, seed: u64, t: &mut Tracer) -> Result<Vec<(String, Tree)>, String> {
    let plan =
        trees_plan(scale).ok_or_else(|| format!("no sparse stage list for TREES scale {scale}"))?;
    let mut out = Vec::new();
    for &(nx, ny) in plan.grids2d {
        for nine in [false, true] {
            let pattern = t.span("sparse.generate", None, None, |_| {
                grid_laplacian_2d(nx, ny, nine)
            });
            for ordering in [
                Ordering::NestedDissection,
                Ordering::ReverseCuthillMcKee,
                Ordering::MinimumDegree,
            ] {
                let grid = (ordering == Ordering::NestedDissection).then_some((nx, ny));
                if let Some(tree) = sparse_stages(t, &pattern, ordering, grid) {
                    let nine = if nine { "-9pt" } else { "" };
                    out.push((format!("grid2d-{nx}x{ny}{nine}-{ordering:?}"), tree));
                }
            }
        }
    }
    for &(nx, ny, nz) in plan.grids3d {
        let pattern = t.span("sparse.generate", None, None, |_| {
            grid_laplacian_3d(nx, ny, nz)
        });
        for ordering in [Ordering::Natural, Ordering::ReverseCuthillMcKee] {
            if let Some(tree) = sparse_stages(t, &pattern, ordering, None) {
                out.push((format!("grid3d-{nx}x{ny}x{nz}-{ordering:?}"), tree));
            }
        }
    }
    for (i, &(n, deg)) in plan.random.iter().enumerate() {
        for rep in 0..plan.seeds_per_size {
            let seed = seed.wrapping_add((i * 97 + rep * 7919) as u64);
            let pattern = t.span("sparse.generate", None, None, |_| {
                random_symmetric(n, deg, seed)
            });
            for ordering in [Ordering::MinimumDegree, Ordering::ReverseCuthillMcKee] {
                if let Some(tree) = sparse_stages(t, &pattern, ordering, None) {
                    out.push((format!("rand-{n}-deg{deg}-s{rep}-{ordering:?}"), tree));
                }
            }
        }
    }
    Ok(out)
}

fn sparse_stages(
    t: &mut Tracer,
    pattern: &SymmetricPattern,
    ordering: Ordering,
    grid: Option<(usize, usize)>,
) -> Option<Tree> {
    let layer = if ordering == Ordering::MinimumDegree {
        "sparse.minimum_degree"
    } else {
        "sparse.ordering_other"
    };
    let perm = t.span(layer, None, None, |_| {
        compute_ordering(pattern, ordering, grid)
    });
    let permuted = t.span("sparse.permute", None, None, |_| pattern.permute(&perm));
    t.span("sparse.assembly", None, None, |_| {
        assembly_tree(&permuted, AssemblyOptions::default())
    })
    .ok()
}
