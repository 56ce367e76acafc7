//! Correctness checks on every (instance × scheduler) cell, and the output
//! digest that pins the results of a workload and seed.
//!
//! A check that fails marks cells as failed; the benchmark reports the
//! failed share next to the attempted cells and is `correct` only when no
//! cell failed.

use oocts_core::scheduler::ExpansionStats;
use oocts_profile::{InstanceResult, MemoryBounds};
use oocts_tree::Tree;

/// How many failure messages a result keeps.
const MAX_NOTES: usize = 20;

/// Per-cell pass/fail state of one run.
#[derive(Debug, Clone)]
pub struct Checks {
    schedulers: usize,
    failed: Vec<bool>,
    notes: Vec<String>,
}

impl Checks {
    /// Every cell of an `instances × schedulers` grid, none failed yet.
    pub fn new(instances: usize, schedulers: usize) -> Checks {
        Checks {
            schedulers,
            failed: vec![false; instances * schedulers],
            notes: Vec::new(),
        }
    }

    fn note(&mut self, msg: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(msg);
        }
    }

    /// Fails one cell.
    pub fn fail_cell(&mut self, instance: usize, scheduler: usize, msg: String) {
        if let Some(cell) = self.failed.get_mut(instance * self.schedulers + scheduler) {
            *cell = true;
        }
        self.note(msg);
    }

    /// Fails every cell of one instance.
    pub fn fail_instance(&mut self, instance: usize, msg: String) {
        let start = instance * self.schedulers;
        let end = (start + self.schedulers).min(self.failed.len());
        if let Some(cells) = self.failed.get_mut(start..end) {
            cells.fill(true);
        }
        self.note(msg);
    }

    /// Fails every cell of the run.
    pub fn fail_all(&mut self, msg: String) {
        self.failed.fill(true);
        self.note(msg);
    }

    /// Cells checked.
    pub fn attempted(&self) -> u64 {
        self.failed.len() as u64
    }

    /// Cells that failed a check.
    pub fn failed(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    /// The first failure messages.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Σw of a tree, `None` on overflow (`Tree::total_weight` wraps).
pub fn total_weight(tree: &Tree) -> Option<u64> {
    tree.node_ids()
        .try_fold(0u64, |acc, n| acc.checked_add(tree.weight(n)))
}

/// The relations every cell must satisfy:
/// `LB ≤ Peak_incore ≤ peak ≤ Σw`, `IO = 0` exactly when `peak ≤ M`, and
/// `performance = (M + IO)/M`.
pub fn check_cell(
    bounds: MemoryBounds,
    memory: u64,
    total_weight: Option<u64>,
    io: u64,
    peak: u64,
    performance: f64,
) -> Result<(), String> {
    let total = total_weight.ok_or("the tree's total weight overflows u64")?;
    if !(bounds.lower_bound <= bounds.peak_incore && bounds.peak_incore <= peak && peak <= total) {
        return Err(format!(
            "bounds violated: LB {} <= Peak_incore {} <= peak {} <= total weight {}",
            bounds.lower_bound, bounds.peak_incore, peak, total
        ));
    }
    if (io == 0) != (peak <= memory) {
        return Err(format!(
            "I/O {io} at peak {peak} and memory {memory}: I/O must be 0 exactly when peak <= M"
        ));
    }
    let expected = memory.checked_add(io).ok_or("M + IO overflows u64")? as f64 / memory as f64;
    if memory == 0 || performance.to_bits() != expected.to_bits() {
        return Err(format!(
            "performance {performance} is not (M + IO)/M = {expected} (M {memory}, IO {io})"
        ));
    }
    Ok(())
}

/// Compares the rows the benchmark assembled from its own solves with the
/// rows `run_experiment` returned, cell by cell.
pub fn compare_rows(checks: &mut Checks, ours: &[InstanceResult], engine: &[InstanceResult]) {
    if ours.len() != engine.len() {
        checks.fail_all(format!(
            "run_experiment returned {} rows for {} instances",
            engine.len(),
            ours.len()
        ));
        return;
    }
    for (i, (a, b)) in ours.iter().zip(engine).enumerate() {
        if (&a.name, a.nodes, a.bounds, a.memory) != (&b.name, b.nodes, b.bounds, b.memory)
            || a.io_volumes.len() != b.io_volumes.len()
        {
            checks.fail_instance(
                i,
                format!("{}: row header differs from run_experiment", a.name),
            );
            continue;
        }
        for s in 0..a.io_volumes.len() {
            let same = a.io_volumes[s] == b.io_volumes[s]
                && a.peak_memories.get(s) == b.peak_memories.get(s)
                && a.performances.get(s).map(|p| p.to_bits())
                    == b.performances.get(s).map(|p| p.to_bits());
            if !same {
                checks.fail_cell(
                    i,
                    s,
                    format!("{} column {s}: differs from run_experiment", a.name),
                );
            }
        }
    }
}

/// FNV-1a 64 over the results CSV and every cell's `(expansions,
/// forced_io)`, rendered `0x`-hex.
pub fn digest(csv: &str, expansions: &[ExpansionStats]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    feed(csv.as_bytes());
    for e in expansions {
        feed(format!("{},{}\n", e.expansions, e.forced_io).as_bytes());
    }
    format!("{h:#018x}")
}

/// The digests recorded with the benchmark, one `workload seed digest`
/// line each (see `digests.tsv`).
const RECORDED: &str = include_str!("../digests.tsv");

/// The recorded digest of `workload` at `seed`, if one was recorded.
pub fn recorded_digest(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut cols = l.split_whitespace();
            Some((
                cols.next()?,
                cols.next()?.parse::<u64>().ok()?,
                cols.next()?,
            ))
        })
        .find(|&(w, s, _)| w == workload && s == seed)
        .map(|(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> MemoryBounds {
        MemoryBounds {
            lower_bound: 6,
            peak_incore: 8,
        }
    }

    #[test]
    fn cell_relations_accept_consistent_and_reject_tampered_numbers() {
        assert!(check_cell(bounds(), 7, Some(17), 1, 8, 8.0 / 7.0).is_ok());
        assert!(check_cell(bounds(), 8, Some(17), 0, 8, 1.0).is_ok());
        // I/O where the schedule fits, and none where it does not.
        assert!(check_cell(bounds(), 8, Some(17), 1, 8, 9.0 / 8.0).is_err());
        assert!(check_cell(bounds(), 7, Some(17), 0, 8, 1.0).is_err());
        // A peak below the optimal one, or above the total weight.
        assert!(check_cell(bounds(), 7, Some(17), 1, 7, 8.0 / 7.0).is_err());
        assert!(check_cell(bounds(), 7, Some(7), 1, 8, 8.0 / 7.0).is_err());
        // A wrong performance, and an overflowing total weight.
        assert!(check_cell(bounds(), 7, Some(17), 1, 8, 1.0).is_err());
        assert!(check_cell(bounds(), 7, None, 1, 8, 8.0 / 7.0).is_err());
    }

    #[test]
    fn checks_count_failed_cells() {
        let mut c = Checks::new(3, 2);
        assert_eq!((c.attempted(), c.failed()), (6, 0));
        c.fail_cell(1, 1, "x".into());
        c.fail_cell(1, 1, "again".into());
        assert_eq!(c.failed(), 1);
        c.fail_instance(2, "y".into());
        assert_eq!(c.failed(), 3);
        c.fail_all("z".into());
        assert_eq!(c.failed(), 6);
        assert_eq!(c.notes().len(), 4);
    }

    #[test]
    fn digest_covers_expansion_counts() {
        let none = ExpansionStats::default();
        let one = ExpansionStats {
            expansions: 1,
            ..none
        };
        assert_eq!(digest("a,b\n", &[none]), digest("a,b\n", &[none]));
        assert_ne!(digest("a,b\n", &[none]), digest("a,b\n", &[one]));
        assert_ne!(digest("a,b\n", &[none]), digest("a,c\n", &[none]));
        assert_eq!(digest("", &[]), "0xcbf29ce484222325");
    }
}
