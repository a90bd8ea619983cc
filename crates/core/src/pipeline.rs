//! The fused LCM pipeline: one CFG view, shared local predicates, and the
//! SCC-priority worklist solver for all analyses.
//!
//! The paper's complexity claim is that lazy code motion costs no more than
//! a constant number of *unidirectional bit-vector* analyses. Running each
//! analysis as an isolated [`Problem`](lcm_dataflow::Problem) solve leaves
//! easy savings on the table: every solve re-derives the depth-first
//! orderings and adjacency tables, and the round-robin strategy revisits
//! every block each sweep whether or not anything changed. [`lcm_with`] fuses
//! the pipeline instead:
//!
//! 1. a [`CfgView`] (reverse postorder, postorder, predecessors,
//!    successors) is computed **once** and shared by every solve;
//! 2. the local predicates (`TRANSP`, `COMP`, `ANTLOC`) are computed for
//!    the whole expression universe in a single packed-word sweep per block
//!    and reused by every analysis;
//! 3. each analysis runs on the SCC-condensed priority worklist solver
//!    ([`Problem::solve_with`](lcm_dataflow::Problem::solve_with)), which
//!    drains each strongly connected component to fixpoint before advancing
//!    and only re-enqueues the neighbors of blocks whose output actually
//!    changed (word-granular dirty detection), against one reused
//!    [`SolverScratch`](lcm_dataflow::SolverScratch) arena;
//! 4. the per-analysis [`SolveStats`] are collected into a
//!    [`PipelineStats`] so the cost is observable from the CLI
//!    (`lcmopt --emit stats`) and the experiment harness.
//!
//! The fixpoints — and therefore the insert/delete sets — are identical to
//! the per-analysis round-robin path ([`GlobalAnalyses::compute`] +
//! [`lazy_edge_plan`](crate::lazy_edge_plan)); the equivalence is asserted
//! over the whole generator corpus in `tests/solver_equivalence.rs`.

use std::fmt;

use lcm_dataflow::{CfgView, Solution, SolveStats, SolveStrategy, SolverDiverged, SolverScratch};
use lcm_ir::Function;

use crate::analyses::GlobalAnalyses;
use crate::lcm_edge::{derive_placement, later_problem, LazyEdgeResult};
use crate::predicates::LocalPredicates;
use crate::universe::ExprUniverse;

/// Per-analysis solver statistics for one [`lcm_with`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PipelineStats {
    /// Availability (up-safety) solve.
    pub avail: SolveStats,
    /// Anticipability (down-safety) solve.
    pub antic: SolveStats,
    /// Delay (LATER/LATERIN) solve.
    pub later: SolveStats,
}

impl PipelineStats {
    /// The sum over all analyses.
    pub fn total(&self) -> SolveStats {
        let mut t = self.avail;
        t += self.antic;
        t += self.later;
        t
    }
}

/// Merging, for aggregating many functions' solves (the batch driver).
impl std::ops::AddAssign for PipelineStats {
    fn add_assign(&mut self, rhs: PipelineStats) {
        self.avail += rhs.avail;
        self.antic += rhs.antic;
        self.later += rhs.later;
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "avail: {}; antic: {}; later: {}",
            self.avail, self.antic, self.later
        )
    }
}

/// Everything the fused pipeline computes for one function.
#[derive(Clone, Debug)]
pub struct LcmPipeline {
    /// The candidate expression universe.
    pub universe: ExprUniverse,
    /// The per-block local predicates, computed once and shared.
    pub local: LocalPredicates,
    /// Availability, anticipability and earliestness.
    pub analyses: GlobalAnalyses,
    /// The delay analysis and the final insert/delete placement.
    pub lazy: LazyEdgeResult,
    /// Per-analysis solver statistics.
    pub stats: PipelineStats,
}

/// Runs the full fused LCM analysis pipeline over `f` (see the module
/// documentation) with an explicit [`SolveStrategy`] and a caller-owned
/// [`SolverScratch`]. All three solves (availability, anticipability,
/// LATER) share `scratch` and one [`CfgView`]; every strategy reaches the
/// same fixpoints. Held across functions, the scratch amortizes all
/// per-solve state to O(1) heap allocations per function (two `Solution`
/// export clones per solve). This is the path
/// [`optimize`](crate::optimize) takes for
/// [`PreAlgorithm::LazyEdge`](crate::PreAlgorithm::LazyEdge) and
/// [`PreAlgorithm::Speculative`](crate::PreAlgorithm::Speculative).
///
/// # Errors
///
/// Returns [`SolverDiverged`] if any of the three analyses exceeds its
/// derived sweep bound — impossible for well-formed transfer functions,
/// and exactly the symptom of corrupted ones.
pub fn lcm_with(
    f: &Function,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<LcmPipeline, SolverDiverged> {
    solve(f, strategy, scratch, false).map(|(p, _)| p)
}

/// The fused solve itself, written once for every caller: universe →
/// local predicates → availability and anticipability → LATER → placement.
/// With `keep_later`, a copy of the LATER [`Solution`] is returned too —
/// the derived placement consumes the original, and
/// [`IncrementalState`](crate::IncrementalState) retains the copy to seed
/// the next revision's delta solve.
pub(crate) fn solve(
    f: &Function,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
    keep_later: bool,
) -> Result<(LcmPipeline, Option<Solution>), SolverDiverged> {
    let universe = ExprUniverse::of(f);
    let local = LocalPredicates::compute(f, &universe);
    let view = CfgView::new(f);
    let analyses = GlobalAnalyses::compute_with(f, &universe, &local, &view, strategy, scratch)?;
    let later =
        later_problem(f, &universe, &local, &analyses).try_solve_with(strategy, &view, scratch)?;
    let kept = keep_later.then(|| later.clone());
    let lazy = derive_placement(f, &universe, &local, &analyses, later);
    let stats = PipelineStats {
        avail: analyses.avail.stats,
        antic: analyses.antic.stats,
        later: lazy.stats,
    };
    let pipeline = LcmPipeline {
        universe,
        local,
        analyses,
        lazy,
        stats,
    };
    Ok((pipeline, kept))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcm_edge::lazy_edge_plan;
    use lcm_ir::parse_function;

    fn fused(f: &Function) -> LcmPipeline {
        lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new()).unwrap()
    }

    const DIAMOND: &str = "fn d {
        entry:
          br c, l, r
        l:
          x = a + b
          jmp join
        r:
          jmp join
        join:
          y = a + b
          obs y
          ret
        }";

    #[test]
    fn fused_matches_seed_path() {
        let f = parse_function(DIAMOND).unwrap();
        let p = fused(&f);
        let ga = GlobalAnalyses::compute(&f, &p.universe, &p.local).unwrap();
        let lazy = lazy_edge_plan(&f, &p.universe, &p.local, &ga).unwrap();
        assert_eq!(p.analyses.avail.ins, ga.avail.ins);
        assert_eq!(p.analyses.antic.ins, ga.antic.ins);
        assert_eq!(p.analyses.earliest, ga.earliest);
        assert_eq!(p.lazy.laterin, lazy.laterin);
        assert_eq!(p.lazy.plan.edge_inserts, lazy.plan.edge_inserts);
        assert_eq!(p.lazy.delete, lazy.delete);
    }

    #[test]
    fn stats_cover_all_three_analyses() {
        let f = parse_function(DIAMOND).unwrap();
        let p = fused(&f);
        // SCC-priority solves leave `iterations` at zero but always visit
        // nodes.
        for s in [p.stats.avail, p.stats.antic, p.stats.later] {
            assert_eq!(s.iterations, 0);
            assert!(s.node_visits > 0);
            assert!(s.word_ops > 0);
        }
        let total = p.stats.total();
        assert_eq!(
            total.node_visits,
            p.stats.avail.node_visits + p.stats.antic.node_visits + p.stats.later.node_visits
        );
        assert_eq!(
            total.word_ops,
            p.stats.avail.word_ops + p.stats.antic.word_ops + p.stats.later.word_ops
        );
    }
}
