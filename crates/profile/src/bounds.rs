//! Per-instance memory bounds (paper, Section 6.1 and Appendix B).

use oocts_minmem::opt_min_mem_peak;
use oocts_tree::Tree;

/// The three memory bounds the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryBound {
    /// `M1 = LB`: the minimum memory for which the tree can be executed at
    /// all (Appendix B, Figures 8 and 9).
    LowerBound,
    /// `M = (LB + Peak_incore − 1) / 2`: the middle of the interesting range
    /// (Section 6, Figures 4 and 5).
    Middle,
    /// `M2 = Peak_incore − 1`: the largest memory for which some I/O is still
    /// required (Appendix B, Figures 10 and 11).
    BelowPeak,
}

impl MemoryBound {
    /// All three bounds, in the paper's order of presentation.
    pub const ALL: [MemoryBound; 3] = [
        MemoryBound::Middle,
        MemoryBound::LowerBound,
        MemoryBound::BelowPeak,
    ];

    /// Short name used in reports and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            MemoryBound::LowerBound => "M1=LB",
            MemoryBound::Middle => "Mmid",
            MemoryBound::BelowPeak => "M2=Peak-1",
        }
    }
}

impl std::fmt::Display for MemoryBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The memory bounds of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryBounds {
    /// `LB = max_i w̄_i`: minimal memory to process every single task.
    pub lower_bound: u64,
    /// `Peak_incore`: the optimal in-core peak memory (OptMinMem).
    pub peak_incore: u64,
}

impl MemoryBounds {
    /// Computes both bounds for a tree.
    pub fn of(tree: &Tree) -> Self {
        MemoryBounds {
            lower_bound: tree.min_feasible_memory(),
            peak_incore: opt_min_mem_peak(tree),
        }
    }

    /// `true` if some I/O is unavoidable for at least one memory bound, i.e.
    /// `Peak_incore > LB`. The paper keeps only such instances in the TREES
    /// dataset (133 of 329 trees).
    pub fn is_interesting(&self) -> bool {
        self.peak_incore > self.lower_bound
    }

    /// The concrete memory value of one of the paper's bounds.
    ///
    /// All three collapse to `LB` when `Peak_incore = LB` (then no I/O is
    /// ever needed — such instances are filtered out of the experiments).
    pub fn memory(&self, bound: MemoryBound) -> u64 {
        match bound {
            MemoryBound::LowerBound => self.lower_bound,
            MemoryBound::Middle => {
                // M = (LB + Peak − 1) / 2, clamped to the feasible range,
                // computed as LB + (Peak − 1 − LB) / 2 so that it cannot
                // overflow.
                let lb = self.lower_bound;
                lb + self.peak_incore.saturating_sub(1).saturating_sub(lb) / 2
            }
            MemoryBound::BelowPeak => self.peak_incore.saturating_sub(1).max(self.lower_bound),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oocts_tree::TreeBuilder;

    fn sample() -> Tree {
        // root(1) with two chains a(2) <- la(6) and b(2) <- lb(6):
        // LB = 6 (the leaves), Peak_incore = 8.
        let mut bld = TreeBuilder::new();
        let r = bld.add_root(1);
        let a = bld.add_child(r, 2);
        bld.add_child(a, 6);
        let b = bld.add_child(r, 2);
        bld.add_child(b, 6);
        bld.build().unwrap()
    }

    #[test]
    fn bounds_of_sample() {
        let b = MemoryBounds::of(&sample());
        assert_eq!(b.lower_bound, 6);
        assert_eq!(b.peak_incore, 8);
        assert!(b.is_interesting());
        assert_eq!(b.memory(MemoryBound::LowerBound), 6);
        assert_eq!(b.memory(MemoryBound::Middle), 6); // (6 + 7) / 2 = 6
        assert_eq!(b.memory(MemoryBound::BelowPeak), 7);
    }

    #[test]
    fn uninteresting_instance_collapses() {
        let t = Tree::from_parents(&[5], &[None]).unwrap();
        let b = MemoryBounds::of(&t);
        assert_eq!(b.lower_bound, 5);
        assert_eq!(b.peak_incore, 5);
        assert!(!b.is_interesting());
        for bound in MemoryBound::ALL {
            assert_eq!(b.memory(bound), 5);
        }
    }

    #[test]
    fn middle_bound_does_not_overflow_near_the_weight_limit() {
        // Σw fits in u64, but LB + Peak − 1 does not.
        let heavy = u64::MAX / 3;
        let t = Tree::from_parents(&[1, heavy, heavy], &[None, Some(0), Some(0)]).unwrap();
        let b = MemoryBounds::of(&t);
        assert_eq!((b.lower_bound, b.peak_incore), (2 * heavy, 2 * heavy));
        assert_eq!(b.memory(MemoryBound::Middle), b.lower_bound);

        // Against (LB + Peak − 1) / 2 clamped to LB, in u128.
        let reference = |lb: u64, peak: u64| {
            let mid = (u128::from(lb) + u128::from(peak.saturating_sub(1))) / 2;
            u64::try_from(mid.max(u128::from(lb))).unwrap()
        };
        let near_max = [
            u64::MAX,
            u64::MAX - 1,
            u64::MAX - 2,
            u64::MAX / 2,
            u64::MAX / 2 + 1,
        ];
        let values: Vec<u64> = (0..12).chain(near_max).collect();
        for &lower_bound in &values {
            for &peak_incore in &values {
                let b = MemoryBounds {
                    lower_bound,
                    peak_incore,
                };
                let got = b.memory(MemoryBound::Middle);
                assert_eq!(got, reference(lower_bound, peak_incore), "{b:?}");
            }
        }
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(MemoryBound::Middle.name(), "Mmid");
        assert_eq!(format!("{}", MemoryBound::LowerBound), "M1=LB");
    }
}
