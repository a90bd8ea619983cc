//! # lcm-core — Lazy Code Motion
//!
//! A complete implementation of **Lazy Code Motion** (Knoop, Rüthing &
//! Steffen, PLDI 1992): partial redundancy elimination that is
//!
//! 1. **admissible** — it only inserts computations at safe (down-safe or
//!    up-safe) program points, so no path ever evaluates an expression it
//!    did not evaluate before;
//! 2. **computationally optimal** — no admissible transformation achieves
//!    fewer evaluations on any path; and
//! 3. **lifetime optimal** — among the computationally optimal
//!    transformations, the live ranges of the introduced temporaries are
//!    minimal.
//!
//! The crate provides the paper's algorithm in both published forms
//! ([`lazy_edge_plan`] — edge insertions; [`lazy_node_plan`] — the original
//! node-insertion cascade DELAY/LATEST/ISOLATED after critical-edge
//! splitting), the busy-code-motion strawman ([`busy_plan`]), the
//! bidirectional Morel–Renvoise baseline ([`morel_renvoise_plan`]), a
//! shared rewriting engine ([`transform`]), safety oracles ([`safety`]),
//! optimality metrics ([`metrics`]) and the supporting scalar passes
//! ([`passes`]).
//!
//! # Quickstart
//!
//! ```
//! use lcm_core::{optimize, PreAlgorithm};
//! use lcm_ir::parse_function;
//!
//! let f = parse_function(
//!     "fn demo {
//!      entry:
//!        br c, left, right
//!      left:
//!        x = a + b
//!        jmp join
//!      right:
//!        jmp join
//!      join:
//!        y = a + b
//!        obs y
//!        ret
//!      }",
//! )?;
//! let lazy = optimize(&f, PreAlgorithm::LazyEdge)?;
//! // One insertion (on the right arm), one deletion (at the join).
//! assert_eq!(lazy.transform.stats.insertions, 1);
//! assert_eq!(lazy.transform.stats.deletions, 1);
//! lcm_ir::verify(&lazy.function)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Entry points
//!
//! * [`optimize`] — one algorithm, no validation, default solver: the
//!   quickstart above.
//! * [`optimize_checked`] — the one checked PRE call every driver uses:
//!   any algorithm (with an optional edge profile for
//!   [`PreAlgorithm::Speculative`]) under [`Options`], validated, under an
//!   [`OptimizeBudget`]; a [`Session`] that retains state turns it into
//!   the edit-stream pair of a fresh solve and later delta solves.
//! * [`optimize_pipeline`] — LCSE, then [`optimize`], then the
//!   [`passes::cleanup`] tail.
//! * [`lcm_with`] — the fused analysis pipeline alone (universe, local
//!   predicates, availability, anticipability, LATER, placement), for
//!   callers that want the fixpoints rather than the rewritten function.
//! * [`optimize_speculative_checked_with`] and
//!   [`optimize_incremental_checked_with`] — the call on a caller's scratch
//!   arena, kept for the benchmark's recomposed pipeline.

mod analyses;
mod bcm;
mod budget;
mod checked;
mod incremental;
mod lcm_edge;
mod lcm_node;
mod morel_renvoise;
mod pipeline;
mod predicates;
mod universe;

pub mod mincut;
pub mod speculate;

pub mod figures;
pub mod metrics;
pub mod passes;
pub mod report;
pub mod safety;
pub mod strength;
pub mod transform;
pub mod validate;

pub use analyses::{
    anticipability, anticipability_problem, availability, availability_problem,
    partial_anticipability, partial_availability, GlobalAnalyses,
};
pub use bcm::busy_plan;
pub use budget::{CancelReason, Cancelled, OptimizeBudget};
pub use checked::{
    optimize_checked, optimize_incremental_checked_with, optimize_speculative_checked_with,
    Options, Session,
};
pub use incremental::{IncrementalOutcome, IncrementalState, IncrementalStats, PhaseNanos};
pub use lcm_edge::{later_problem, lazy_edge_plan, lazy_edge_plan_with, LazyEdgeResult};
pub use lcm_node::{lazy_node_plan, LazyNodeResult};
pub use morel_renvoise::{morel_renvoise_plan, MorelRenvoiseResult};
pub use pipeline::{lcm_with, LcmPipeline, PipelineStats};
pub use predicates::LocalPredicates;
pub use speculate::{speculative_plan, weights_or_unit, EdgeWeights, SpecResult, SpecStats};
pub use transform::{apply_plan, PlacementPlan, TransformResult};
pub use universe::ExprUniverse;
pub use validate::{check_memory_kills, ValidationError, ValidationLevel, ValidationReport};

use std::borrow::Cow;
use std::error::Error;
use std::fmt;

use lcm_dataflow::{SolveStrategy, SolverDiverged, SolverScratch};
use lcm_ir::Function;

/// Why a PRE pass could not produce (or could not stand behind) a result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PipelineError {
    /// An analysis exceeded its derived sweep bound — the symptom of
    /// corrupted transfer functions or a non-monotone lattice.
    Solver(SolverDiverged),
    /// The pass produced a result, but it violates a paper invariant.
    Validation(ValidationError),
    /// A budgeted run exceeded its [`OptimizeBudget`] (deadline, fuel, or
    /// external cancel flag) and was abandoned at a stage boundary.
    Cancelled(Cancelled),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Solver(e) => e.fmt(f),
            PipelineError::Validation(e) => e.fmt(f),
            PipelineError::Cancelled(e) => e.fmt(f),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Solver(e) => Some(e),
            PipelineError::Validation(e) => Some(e),
            PipelineError::Cancelled(e) => Some(e),
        }
    }
}

impl From<Cancelled> for PipelineError {
    fn from(e: Cancelled) -> Self {
        PipelineError::Cancelled(e)
    }
}

impl From<SolverDiverged> for PipelineError {
    fn from(e: SolverDiverged) -> Self {
        PipelineError::Solver(e)
    }
}

impl From<ValidationError> for PipelineError {
    fn from(e: ValidationError) -> Self {
        PipelineError::Validation(e)
    }
}

/// The PRE algorithms this crate implements.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PreAlgorithm {
    /// Busy code motion: earliest (safe) placement. Computationally
    /// optimal; maximal temporary lifetimes.
    Busy,
    /// Lazy code motion, edge-insertion formulation (the production form).
    LazyEdge,
    /// Lazy code motion, node-insertion formulation (the paper's original
    /// DELAY/LATEST/ISOLATED cascade after critical-edge splitting).
    LazyNode,
    /// Lazy code motion without the isolation pruning — the paper's "ALCM"
    /// ablation. Computationally optimal but introduces useless temps
    /// (which the rewriter's liveness pruning then refuses to materialise;
    /// the placement difference is still observable in the plan).
    AlmostLazyNode,
    /// Morel–Renvoise (1979): the bidirectional baseline.
    MorelRenvoise,
    /// Classic global common-subexpression elimination: deletes only
    /// **fully** redundant occurrences (available on every path), inserts
    /// nothing. The weakest baseline — everything PRE adds over GCSE is
    /// partial redundancy.
    Gcse,
    /// Profile-guided speculative PRE ([`speculate`]): lazy code motion's
    /// placement, improved per side-effect-free expression by a minimum
    /// cut over the profile-weighted unavailability network. Not part of
    /// [`PreAlgorithm::ALL`] because it is not admissible in the paper's
    /// sense (it may add evaluations to cold paths) and needs a profile to
    /// be meaningful — [`optimize`] runs it with unit weights; pass real
    /// weights via [`optimize_checked`].
    Speculative,
}

impl PreAlgorithm {
    /// All algorithms, for sweep-style experiments.
    pub const ALL: [PreAlgorithm; 6] = [
        PreAlgorithm::Busy,
        PreAlgorithm::LazyEdge,
        PreAlgorithm::LazyNode,
        PreAlgorithm::AlmostLazyNode,
        PreAlgorithm::MorelRenvoise,
        PreAlgorithm::Gcse,
    ];

    /// A short stable name (used in reports and benchmark ids).
    pub fn name(self) -> &'static str {
        match self {
            PreAlgorithm::Busy => "bcm",
            PreAlgorithm::LazyEdge => "lcm-edge",
            PreAlgorithm::LazyNode => "lcm-node",
            PreAlgorithm::AlmostLazyNode => "alcm-node",
            PreAlgorithm::MorelRenvoise => "morel-renvoise",
            PreAlgorithm::Gcse => "gcse",
            PreAlgorithm::Speculative => "spec",
        }
    }
}

/// Everything `optimize` produces.
#[derive(Clone, Debug)]
pub struct Optimized {
    /// The transformed function.
    pub function: Function,
    /// The rewriting outcome (insertion/deletion counters, temps).
    pub transform: TransformResult,
    /// The placement plan the rewriting realised, for post-hoc auditing
    /// ([`validate::validate_optimized`] checks it against the paper's
    /// admissibility criterion).
    pub plan: PlacementPlan,
    /// The input the plan was computed for — the original function, except
    /// for the node algorithms where it is the critical-edge-split copy.
    pub input: Function,
    /// Which algorithm ran.
    pub algorithm: PreAlgorithm,
    /// Per-analysis solver statistics, when the algorithm ran the fused
    /// edge pipeline ([`PreAlgorithm::LazyEdge`] and
    /// [`PreAlgorithm::Speculative`]); `None` for the other algorithms,
    /// whose solves are not fused into one pipeline.
    pub pipeline_stats: Option<PipelineStats>,
    /// The speculative planner's decisions ([`PreAlgorithm::Speculative`]
    /// only; `None` for every other algorithm).
    pub spec: Option<SpecStats>,
}

/// Runs one PRE algorithm end to end: analyses → placement plan →
/// rewriting. No clean-up passes are run; compose with
/// [`passes::cleanup`] for a full pipeline (or use [`optimize_pipeline`]).
/// [`PreAlgorithm::Speculative`] runs on unit edge weights here; pass a
/// real profile through [`optimize_checked`].
///
/// # Errors
///
/// Returns [`PipelineError::Solver`] if any analysis exceeds its derived
/// sweep bound (possible only with corrupted transfer functions).
pub fn optimize(f: &Function, algorithm: PreAlgorithm) -> Result<Optimized, PipelineError> {
    run_pre(
        f,
        algorithm,
        None,
        SolveStrategy::default(),
        &mut SolverScratch::new(),
    )
}

/// Plans and rewrites: the one body behind [`optimize`] and the one-shot
/// solve of [`optimize_checked`].
pub(crate) fn run_pre(
    f: &Function,
    algorithm: PreAlgorithm,
    weights: Option<&EdgeWeights>,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<Optimized, PipelineError> {
    let (input, uni, local, plan, pipeline_stats, spec) = match algorithm {
        PreAlgorithm::LazyNode | PreAlgorithm::AlmostLazyNode => {
            let res = lazy_node_plan(f, algorithm == PreAlgorithm::LazyNode)?;
            let input = Cow::Owned(res.function);
            (input, res.universe, res.local, res.plan, None, None)
        }
        PreAlgorithm::LazyEdge | PreAlgorithm::Speculative => {
            let p = lcm_with(f, strategy, scratch)?;
            let (plan, spec) = if algorithm == PreAlgorithm::Speculative {
                let w = weights.map_or_else(|| Cow::Owned(EdgeWeights::unit(f)), Cow::Borrowed);
                let s = speculative_plan(f, &p.universe, &p.local, &p.analyses, &p.lazy, &w);
                (s.plan, Some(s.stats))
            } else {
                (p.lazy.plan, None)
            };
            (
                Cow::Borrowed(f),
                p.universe,
                p.local,
                plan,
                Some(p.stats),
                spec,
            )
        }
        PreAlgorithm::Busy | PreAlgorithm::MorelRenvoise | PreAlgorithm::Gcse => {
            let uni = ExprUniverse::of(f);
            let local = LocalPredicates::compute(f, &uni);
            let plan = match algorithm {
                PreAlgorithm::Busy => {
                    let ga = GlobalAnalyses::compute(f, &uni, &local)?;
                    busy_plan(f, &uni, &local, &ga)
                }
                PreAlgorithm::MorelRenvoise => morel_renvoise_plan(f, &uni, &local)?.plan,
                // GCSE's "plan" is the empty plan: the shared transform
                // machinery then deletes exactly the occurrences whose
                // value is available from existing computations on all
                // paths.
                _ => PlacementPlan::empty("gcse", f, &uni),
            };
            (Cow::Borrowed(f), uni, local, plan, None, None)
        }
    };
    Ok(Optimized::realise(
        input,
        &uni,
        &local,
        plan,
        algorithm,
        pipeline_stats,
        spec,
    ))
}

impl Optimized {
    /// Rewrites `input` under `plan` and records how it got there.
    pub(crate) fn realise(
        input: Cow<'_, Function>,
        uni: &ExprUniverse,
        local: &LocalPredicates,
        plan: PlacementPlan,
        algorithm: PreAlgorithm,
        pipeline_stats: Option<PipelineStats>,
        spec: Option<SpecStats>,
    ) -> Optimized {
        let transform = apply_plan(&input, uni, local, &plan);
        Optimized {
            function: transform.function.clone(),
            transform,
            plan,
            input: input.into_owned(),
            algorithm,
            pipeline_stats,
            spec,
        }
    }
}

/// The full pipeline a compiler would run: LCSE, the chosen PRE algorithm,
/// then the [`passes::cleanup`] tail. Returns the final function.
///
/// # Errors
///
/// Propagates [`optimize`]'s solver errors.
pub fn optimize_pipeline(f: &Function, algorithm: PreAlgorithm) -> Result<Function, PipelineError> {
    let mut pre = f.clone();
    passes::lcse(&mut pre);
    let mut optimized = optimize(&pre, algorithm)?.function;
    passes::cleanup(&mut optimized);
    Ok(optimized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_ir::parse_function;

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
    fn every_algorithm_produces_a_valid_function() {
        let f = parse_function(DIAMOND).unwrap();
        for alg in PreAlgorithm::ALL {
            let o = optimize(&f, alg).unwrap();
            lcm_ir::verify(&o.function).unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert_eq!(o.algorithm, alg);
        }
    }

    #[test]
    fn pipeline_output_is_clean_and_equivalent() {
        let f = parse_function(DIAMOND).unwrap();
        let g = optimize_pipeline(&f, PreAlgorithm::LazyEdge).unwrap();
        lcm_ir::verify(&g).unwrap();
        for c in [0, 1] {
            let inputs = lcm_interp::Inputs::new()
                .set("a", 3)
                .set("b", 4)
                .set("c", c);
            assert!(lcm_interp::observationally_equivalent(
                &f, &g, &inputs, 10_000
            ));
        }
        // The join no longer computes a + b.
        let join = g.block_by_name("join").unwrap();
        assert!(g.block(join).exprs().next().is_none());
    }

    #[test]
    fn algorithm_names_are_stable() {
        assert_eq!(PreAlgorithm::Busy.name(), "bcm");
        assert_eq!(PreAlgorithm::ALL.len(), 6);
    }
}
