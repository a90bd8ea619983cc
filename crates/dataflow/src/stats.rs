//! Cost counters for dataflow solving.

use std::fmt;
use std::ops::AddAssign;

/// Counters accumulated while solving a dataflow problem.
///
/// `word_ops` counts 64-bit word operations performed on bit vectors during
/// confluence and transfer — the classical cost measure for bit-vector
/// dataflow, used by the complexity experiment (C1) to compare Lazy Code
/// Motion's four unidirectional passes against the bidirectional
/// Morel–Renvoise system. `node_revisits` and `allocations` measure the two
/// real-machine costs the asymptotic story hides: how often the iteration
/// order forces a block to be re-evaluated, and how many heap allocations
/// the solver state itself required (near zero when a
/// [`SolverScratch`](crate::SolverScratch) is reused across solves).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SolveStats {
    /// Full sweeps over the block order (round-robin solver); `0` for the
    /// SCC-priority schedule, which has no sweeps.
    pub iterations: usize,
    /// Individual block evaluations (confluence + transfer applications).
    pub node_visits: usize,
    /// Block evaluations beyond the first per block — the re-visits a
    /// better iteration order (SCC-condensed priority) avoids.
    pub node_revisits: usize,
    /// 64-bit word operations on bit vectors.
    pub word_ops: u64,
    /// Heap allocations (backing-store growths plus solution exports)
    /// performed for solver state during this solve.
    pub allocations: u64,
}

impl SolveStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AddAssign for SolveStats {
    fn add_assign(&mut self, rhs: SolveStats) {
        self.iterations += rhs.iterations;
        self.node_visits += rhs.node_visits;
        self.node_revisits += rhs.node_revisits;
        self.word_ops += rhs.word_ops;
        self.allocations += rhs.allocations;
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} iterations, {} node visits ({} revisits), {} word ops, {} allocations",
            self.iterations, self.node_visits, self.node_revisits, self.word_ops, self.allocations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates() {
        let mut a = SolveStats {
            iterations: 1,
            node_visits: 2,
            node_revisits: 1,
            word_ops: 3,
            allocations: 4,
        };
        a += SolveStats {
            iterations: 10,
            node_visits: 20,
            node_revisits: 5,
            word_ops: 30,
            allocations: 40,
        };
        assert_eq!(a.iterations, 11);
        assert_eq!(a.node_visits, 22);
        assert_eq!(a.node_revisits, 6);
        assert_eq!(a.word_ops, 33);
        assert_eq!(a.allocations, 44);
        assert!(a.to_string().contains("11 iterations"));
        assert!(a.to_string().contains("6 revisits"));
        assert!(a.to_string().contains("44 allocations"));
    }
}
