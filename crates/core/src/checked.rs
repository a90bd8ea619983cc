//! The one checked PRE call, [`optimize_checked`], and its [`Session`].

use std::time::Instant;

use lcm_dataflow::{SolveStrategy, SolverScratch};
use lcm_ir::Function;

use crate::incremental::{
    self, IncrementalOutcome, IncrementalState, IncrementalStats, PhaseNanos,
};
use crate::validate::{validate_optimized, ValidationLevel, ValidationReport};
use crate::{run_pre, EdgeWeights, OptimizeBudget, Optimized, PipelineError, PreAlgorithm};

/// The settings of one checked PRE call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Options {
    /// The PRE algorithm. [`PreAlgorithm::Speculative`] with no edge
    /// weights runs plain lazy code motion: there is no frequency
    /// information to speculate on.
    pub placement: PreAlgorithm,
    /// The validation tier; a call that retains state validates at
    /// [`ValidationLevel::Fast`] at least.
    pub validate: ValidationLevel,
    /// Seed for the validator's differential execution.
    pub seed: u64,
    /// The fused pipeline's solver. Every strategy reaches the same
    /// fixpoints (`tests/solver_equivalence.rs`).
    pub solver: SolveStrategy,
}

/// What [`optimize_checked`] keeps between calls: the solver scratch arena,
/// warm across any number of units, and — while it retains state — one
/// unit's fixpoints.
#[derive(Debug, Default)]
pub struct Session {
    scratch: SolverScratch,
    retaining: bool,
    /// The previous state going into a call; the new one coming out, with
    /// what its solve did.
    state: Option<(IncrementalState, IncrementalStats)>,
    phases: PhaseNanos,
}

impl Session {
    /// A session that retains nothing: each call is one-shot.
    pub fn new() -> Self {
        Session::default()
    }

    /// Makes the following calls retain state, starting from `prev` — the
    /// unit's previous state, `None` on first sight.
    pub fn retain(&mut self, prev: Option<IncrementalState>) {
        self.retaining = true;
        self.state = prev.map(|state| (state, IncrementalStats::default()));
    }

    /// Stops retaining and hands back the state the last call retained,
    /// with what its solve did; `None` when it retained nothing.
    pub fn release(&mut self) -> Option<(IncrementalState, IncrementalStats)> {
        self.retaining = false;
        self.state.take()
    }

    /// The last call's split: `solve_ns` through the rewritten function,
    /// `tail_ns` for validation.
    pub fn phases(&self) -> PhaseNanos {
        self.phases
    }

    /// The solver scratch arena, for fault injection.
    pub fn scratch_mut(&mut self) -> &mut SolverScratch {
        &mut self.scratch
    }
}

/// The checked PRE call: plans and rewrites `f` under `opts` (the
/// untrusted part), then validates the result, under `budget`. The call
/// alone decides what it solves:
///
/// * one-shot, when `session` retains nothing, or the placement is not
///   plain edge LCM (a speculative plan with `weights` included);
/// * fresh, keeping its fixpoints, when the session retains state but
///   holds none — the delta path's no-state case;
/// * a delta against the state the session holds, falling back to a fresh
///   solve for an edit the delta cannot map.
///
/// A call that retains state consumes the session's state and, on
/// success, leaves the new one; it validates at [`ValidationLevel::Fast`]
/// at least, because the delta path's soundness argument is the
/// validator. `weights` is the edge profile
/// [`PreAlgorithm::Speculative`] plans against; the validator gives
/// speculative plans its speculation-aware admissibility rule and skips
/// the eval-count non-regression they trade away on cold paths.
/// `budget`'s deadline and cancel flag are checked before solving, after
/// solving and after validation on every path, and its fuel against the
/// fused pipeline's node visits once the solves finish.
///
/// # Errors
///
/// [`PipelineError::Solver`] if an analysis diverges,
/// [`PipelineError::Validation`] if the result violates a paper invariant,
/// [`PipelineError::Cancelled`] when the budget is exceeded.
pub fn optimize_checked(
    f: &Function,
    weights: Option<&EdgeWeights>,
    opts: &Options,
    budget: &OptimizeBudget,
    session: &mut Session,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    let prev = session.state.take().map(|(state, _)| state);
    let retains = session.retaining
        && weights.is_none()
        && matches!(
            opts.placement,
            PreAlgorithm::LazyEdge | PreAlgorithm::Speculative
        );
    budget.check("solve")?;
    let start = Instant::now();
    let scratch = &mut session.scratch;
    let (optimized, retained) = if retains {
        let (optimized, state, stats) = incremental::solve(prev.as_ref(), f, opts.solver, scratch)?;
        (optimized, Some((state, stats)))
    } else {
        let algorithm = match (opts.placement, weights) {
            (PreAlgorithm::Speculative, None) => PreAlgorithm::LazyEdge,
            (algorithm, _) => algorithm,
        };
        (run_pre(f, algorithm, weights, opts.solver, scratch)?, None)
    };
    let solve_ns = start.elapsed().as_nanos() as u64;
    let visits = optimized
        .pipeline_stats
        .map_or(0, |s| s.total().node_visits as u64);
    budget.check_fuel("validate", visits)?;
    let level = match (retains, opts.validate) {
        (true, ValidationLevel::Off) => ValidationLevel::Fast,
        (_, level) => level,
    };
    let report = validate_optimized(f, &optimized, level, opts.seed)?;
    budget.check("finish")?;
    let tail_ns = (start.elapsed().as_nanos() as u64).saturating_sub(solve_ns);
    session.phases = PhaseNanos { solve_ns, tail_ns };
    session.state = retained;
    Ok((optimized, report))
}

/// [`optimize_checked`]'s one-shot speculative solve under the edge
/// weights `w`, unbudgeted, on the caller's scratch arena, with its
/// errors. Kept for the benchmark's recomposed pipeline until ROADMAP
/// item 2.
pub fn optimize_speculative_checked_with(
    f: &Function,
    w: &EdgeWeights,
    level: ValidationLevel,
    seed: u64,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    let opts = Options {
        placement: PreAlgorithm::Speculative,
        validate: level,
        seed,
        solver: strategy,
    };
    on_scratch(scratch, |session| {
        optimize_checked(f, Some(w), &opts, &OptimizeBudget::unlimited(), session)
    })
}

/// [`optimize_checked`]'s delta solve of `f` against a copy of `prev`,
/// unbudgeted, on the caller's scratch arena, with its errors. Kept for
/// the benchmark's recomposed pipeline until ROADMAP item 2.
pub fn optimize_incremental_checked_with(
    prev: &IncrementalState,
    f: &Function,
    level: ValidationLevel,
    seed: u64,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<IncrementalOutcome, PipelineError> {
    let opts = Options {
        placement: PreAlgorithm::LazyEdge,
        validate: level,
        seed,
        solver: strategy,
    };
    on_scratch(scratch, |session| {
        session.retain(Some(prev.clone()));
        let (optimized, report) =
            optimize_checked(f, None, &opts, &OptimizeBudget::unlimited(), session)?;
        let (state, stats) = session.release().expect("a retaining call retains");
        let phases = session.phases;
        Ok(IncrementalOutcome {
            optimized,
            report,
            state,
            stats,
            phases,
        })
    })
}

/// Runs `call` on a session that owns `scratch` for the duration.
fn on_scratch<R>(scratch: &mut SolverScratch, call: impl FnOnce(&mut Session) -> R) -> R {
    let mut session = Session {
        scratch: std::mem::take(scratch),
        ..Session::default()
    };
    let out = call(&mut session);
    *scratch = session.scratch;
    out
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

    fn off(placement: PreAlgorithm) -> Options {
        Options {
            placement,
            validate: ValidationLevel::Off,
            seed: 0,
            solver: SolveStrategy::default(),
        }
    }

    /// The validation floor's one home: at [`ValidationLevel::Off`], a call
    /// that retains state still validates — fresh and delta alike — and a
    /// one-shot call does not.
    #[test]
    fn a_retaining_session_validates_at_the_fast_tier_at_least() {
        let f = parse_function(DIAMOND).unwrap();
        let (opts, budget) = (off(PreAlgorithm::LazyEdge), OptimizeBudget::unlimited());
        let mut session = Session::new();
        let (_, one_shot) = optimize_checked(&f, None, &opts, &budget, &mut session).unwrap();
        assert_eq!(one_shot.checks_run, 0);
        assert!(
            session.release().is_none(),
            "a one-shot call retains nothing"
        );

        session.retain(None);
        let (_, fresh) = optimize_checked(&f, None, &opts, &budget, &mut session).unwrap();
        assert_eq!(fresh.level, ValidationLevel::Fast);
        assert!(fresh.checks_run > 0);
        let (_, delta) = optimize_checked(&f, None, &opts, &budget, &mut session).unwrap();
        assert_eq!(delta.level, ValidationLevel::Fast);
        assert!(delta.checks_run > 0);
        let (_, stats) = session.release().expect("the delta retained state");
        assert!(!stats.full_fallback);
        assert_eq!(stats.dirty_blocks, 0);
    }

    /// A retaining session solves other placements, and weighted
    /// speculative plans, one-shot: no floor, nothing retained.
    #[test]
    fn only_plain_edge_lcm_is_retained() {
        let f = parse_function(DIAMOND).unwrap();
        let budget = OptimizeBudget::unlimited();
        let unit = EdgeWeights::unit(&f);
        let cases = [
            (PreAlgorithm::Busy, None),
            (PreAlgorithm::Speculative, Some(&unit)),
        ];
        for (placement, weights) in cases {
            let mut session = Session::new();
            session.retain(None);
            let (opt, report) =
                optimize_checked(&f, weights, &off(placement), &budget, &mut session).unwrap();
            assert_eq!(opt.algorithm, placement);
            assert_eq!(report.checks_run, 0, "{}", placement.name());
            assert!(session.release().is_none(), "{}", placement.name());
        }
    }

    /// Speculative placement with no weights is plain LCM, retained or not.
    #[test]
    fn unweighted_speculation_is_plain_lcm() {
        let f = parse_function(DIAMOND).unwrap();
        let budget = OptimizeBudget::unlimited();
        let opts = off(PreAlgorithm::Speculative);
        let (opt, _) = optimize_checked(&f, None, &opts, &budget, &mut Session::new()).unwrap();
        assert_eq!(opt.algorithm, PreAlgorithm::LazyEdge);
        assert!(opt.spec.is_none());
    }
}
