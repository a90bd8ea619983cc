//! Scratch-isolation mutations: the batch driver hands every worker one
//! reused solver scratch arena (in its one-shot `Session`), so the failure mode to fear is state
//! bleeding from one solve into the next. These tests poison the arena
//! the way a broken `prepare()` would and pin down all three outcomes:
//!
//! 1. poison reaching the placement (LATER) solve produces an invalid
//!    program that the **fast** validation tier refuses (pinned seed);
//! 2. poison planted at the *function* boundary — landing on the next
//!    availability solve — is conservative-or-caught, never a silently
//!    wrong program, and the scratch recovers on the following solve;
//! 3. the non-poisoned reuse path (what batch mode actually runs) is
//!    bit-identical to fresh-scratch optimization across a corpus.

use lcm_cfggen::{corpus, GenOptions};
use lcm_core::validate::{validate_optimized, ValidationError, ValidationLevel};
use lcm_core::{
    optimize, optimize_checked, OptimizeBudget, Optimized, Options, PipelineError, PreAlgorithm,
    Session,
};
use lcm_dataflow::SolveStrategy;
use lcm_faults::optimize_with_poisoned_scratch;
use lcm_ir::{parse_function, Function};

/// `alg` through the checked call on a caller-owned (one-shot) session,
/// so its scratch arena is reused, unvalidated.
fn optimize_on(
    f: &Function,
    alg: PreAlgorithm,
    strategy: SolveStrategy,
    session: &mut Session,
) -> Result<Optimized, PipelineError> {
    let opts = Options {
        placement: alg,
        validate: ValidationLevel::Off,
        seed: 0,
        solver: strategy,
    };
    optimize_checked(f, None, &opts, &OptimizeBudget::unlimited(), session).map(|(opt, _)| opt)
}

/// `a + b` is only computed on the loop path, `a * b` only on the exit
/// path, so neither is anticipable at the loop header: any insertion
/// hoisted to the `entry -> head` edge is provably unsafe.
const LOOP: &str = "fn l {
    entry:
      jmp head
    head:
      br c, body, exit
    body:
      x = a + b
      obs x
      jmp head
    exit:
      y = a * b
      obs y
      ret
    }";

#[test]
fn poisoned_scratch_placement_is_caught_by_fast_validation() {
    let f = parse_function(LOOP).unwrap();
    let mut session = Session::new();
    // Pinned seed: the scrambled LATER fixpoint claims a placement on the
    // entry edge that the analyses never justified.
    let opt = optimize_with_poisoned_scratch(&f, 1, session.scratch_mut()).unwrap();
    let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
    assert!(
        matches!(
            err,
            ValidationError::UnsafeInsertion(_) | ValidationError::InsertionNotInLater { .. }
        ),
        "unexpected {err}"
    );

    // The poison was a one-shot skip flag: the very next solve on the same
    // scratch reinitialises and produces the clean result again.
    let clean = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
    let recovered = optimize_on(
        &f,
        PreAlgorithm::LazyEdge,
        SolveStrategy::default(),
        &mut session,
    )
    .unwrap();
    assert_eq!(recovered.plan.edge_inserts, clean.plan.edge_inserts);
    assert_eq!(recovered.plan.entry_insert, clean.plan.entry_insert);
    validate_optimized(&f, &recovered, ValidationLevel::Fast, 0).unwrap();
}

#[test]
fn function_boundary_poison_is_conservative_or_caught_and_recovers() {
    // Poison planted *between functions* lands on the next availability
    // solve. A must-problem restarted from garbage settles at or below its
    // true fixpoint, and under-approximated availability only makes LCM
    // more conservative — so the output is either still a valid program
    // (which fast validation accepts) or the solve diverges loudly. What
    // can never happen is a silently wrong program.
    let strategy = SolveStrategy::default();
    for (i, f) in corpus(0xB1EED, 24, &GenOptions::default())
        .iter()
        .enumerate()
    {
        let clean = optimize(f, PreAlgorithm::LazyEdge).unwrap();
        for seed in 0..3u64 {
            let mut session = Session::new();
            optimize_on(f, PreAlgorithm::LazyEdge, strategy, &mut session).unwrap();
            session.scratch_mut().poison_for_fault_injection(seed);
            // A divergence (`Err`) is the loud failure mode; an `Ok` must
            // validate.
            if let Ok(opt) = optimize_on(f, PreAlgorithm::LazyEdge, strategy, &mut session) {
                validate_optimized(f, &opt, ValidationLevel::Fast, 0).unwrap_or_else(|e| {
                    panic!("fn {i} seed {seed}: invalid program slipped through: {e}")
                });
            }
            // Either way the arena is clean again afterwards.
            let recovered = optimize_on(f, PreAlgorithm::LazyEdge, strategy, &mut session).unwrap();
            assert_eq!(recovered.plan.edge_inserts, clean.plan.edge_inserts);
            assert_eq!(recovered.plan.entry_insert, clean.plan.entry_insert);
        }
    }
}

#[test]
fn unpoisoned_scratch_reuse_never_bleeds_across_functions() {
    // The actual batch-mode path: one scratch across many differently
    // shaped functions must reproduce fresh-scratch results bit for bit.
    let mut session = Session::new();
    let mut fns = corpus(0x000C_1EA4, 30, &GenOptions::default());
    fns.extend(corpus(0x000C_1EA5, 6, &GenOptions::sized(90)));
    for f in &fns {
        let fresh = optimize(f, PreAlgorithm::LazyEdge).unwrap();
        let reused = optimize_on(
            f,
            PreAlgorithm::LazyEdge,
            SolveStrategy::default(),
            &mut session,
        )
        .unwrap();
        assert_eq!(reused.plan.edge_inserts, fresh.plan.edge_inserts);
        assert_eq!(reused.plan.entry_insert, fresh.plan.entry_insert);
        for b in fresh.function.block_ids() {
            assert_eq!(reused.function.block(b), fresh.function.block(b));
        }
    }
}
