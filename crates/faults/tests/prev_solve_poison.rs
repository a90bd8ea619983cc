//! PrevSolve-poisoning mutations: the daemon's incremental hot path
//! retains AVAIL/ANTIC/LATER fixpoints per function and delta-solves the
//! next revision against them, so the failure mode to fear is corrupted
//! retained state flowing straight into a placement. These tests poison
//! the state with [`lcm_faults::poison_prev_solve`] and pin the contract
//! of `optimize_incremental_checked_with`'s unconditional fast-tier validation:
//!
//! 1. a pinned (subject, seed) pair where the poisoned fixpoints produce
//!    an invalid placement and the validator **refuses** it;
//! 2. across a corpus × seeds × (unedited and edited next revisions),
//!    every poisoned run is either caught (typed error) or produces a
//!    program that survives **full**-tier validation against its input —
//!    structural re-verification plus seeded differential execution — so
//!    a scramble can cost precision (a conservative placement) but never
//!    correctness; and at least some runs in the sweep are caught, so the
//!    mutation is known to be live, not vacuously harmless.

use lcm_cfggen::{corpus, mutate_function, seeded, GenOptions};
use lcm_core::validate::{validate_optimized, ValidationLevel};
use lcm_core::{
    optimize_incremental_checked_with, IncrementalOutcome, IncrementalState, PipelineError,
};
use lcm_dataflow::{SolveStrategy, SolverScratch};
use lcm_faults::poison_prev_solve;
use lcm_ir::{parse_function, Function};

/// A fresh solve that retains its fixpoints, on the default solver.
fn fresh_state(f: &Function) -> IncrementalState {
    let scratch = &mut SolverScratch::new();
    IncrementalState::fresh_with(f, SolveStrategy::default(), scratch)
        .unwrap()
        .1
}

/// A delta solve against `prev` at the fast validation tier.
fn delta_solve(
    prev: &IncrementalState,
    f: &Function,
    seed: u64,
) -> Result<IncrementalOutcome, PipelineError> {
    let (level, strategy) = (ValidationLevel::Fast, SolveStrategy::default());
    optimize_incremental_checked_with(prev, f, level, seed, strategy, &mut SolverScratch::new())
}

/// `a + b` is computed on one arm only and `a` is redefined there, so most
/// scrambles of the fixpoints claim placements the analyses never justify.
const KILLS: &str = "fn p {
    entry:
      br c, l, r
    l:
      a = 1
      x = a + b
      jmp j
    r:
      x = a + b
      jmp j
    j:
      obs x
      ret
    }";

#[test]
fn pinned_poison_is_refused_by_the_validator() {
    let f = parse_function(KILLS).unwrap();
    let mut state = fresh_state(&f);
    poison_prev_solve(&mut state, 3);
    let err = delta_solve(&state, &f, 0).unwrap_err();
    // The poison surfaces as a typed failure — a validation rejection or a
    // solver divergence — never as an Ok carrying a wrong program.
    let msg = err.to_string();
    assert!(!msg.is_empty(), "typed error expected, got {err:?}");
}

#[test]
fn poisoned_prev_solve_is_caught_or_harmless_never_silently_wrong() {
    let mut caught = 0usize;
    let mut harmless = 0usize;
    for (i, f) in corpus(0x0901_50ED, 12, &GenOptions::default())
        .iter()
        .enumerate()
    {
        // The daemon scenario: the retained state is poisoned, then the
        // function comes back either unedited or with a content edit.
        let mut edited = f.clone();
        let mut rng = seeded(0xFA17 ^ i as u64);
        mutate_function(&mut edited, &mut rng, 0.0);
        for next in [f, &edited] {
            for seed in 0..4u64 {
                let mut state = fresh_state(f);
                poison_prev_solve(&mut state, seed);
                match delta_solve(&state, next, 7) {
                    Ok(out) => {
                        validate_optimized(next, &out.optimized, ValidationLevel::Full, seed)
                            .unwrap_or_else(|e| {
                                panic!("fn {i} seed {seed}: poisoned state escaped silently: {e}")
                            });
                        harmless += 1;
                    }
                    Err(_) => caught += 1,
                }
            }
        }
    }
    assert!(
        caught > 0,
        "no poisoned run was ever caught ({harmless} harmless) — the mutation is dead"
    );
}
