//! The differential harness pinning profile-guided speculative PRE.
//!
//! Three guarantees over a 300-function seeded weighted corpus:
//!
//! 1. every speculative placement passes the **full** validation tier
//!    (observational equivalence plus the relaxed speculative safety rule);
//! 2. on a profile *measured* from an actual interpreter run, the
//!    speculative output never evaluates more candidate expressions than
//!    LCM's on that same run — the min-cut objective is the dynamic
//!    evaluation count, so this is the cost model meeting reality;
//! 3. with a degenerate all-zero profile no speculation is profitable and
//!    the output is bit-identical to plain LCM (the oracle that `spec`
//!    degrades to `lcm`, never past it).
//!
//! A fourth test pins batch determinism: a weighted module optimized under
//! `--placement spec` renders byte-identically at every thread count.

use lcm::cfggen::{corpus, synthetic_profile, GenOptions};
use lcm::core::validate::{sample_inputs, validate_optimized};
use lcm::core::{
    optimize, optimize_speculative_checked_with, EdgeWeights, Optimized, PipelineError,
    PreAlgorithm, ValidationLevel,
};
use lcm::dataflow::{SolveStrategy, SolverScratch};
use lcm::driver::{report, BatchEngine, BatchOptions, BatchUnit};
use lcm::interp::run;
use lcm::ir::{Function, Module, Profile};

/// The speculative placement under `w`, unvalidated.
fn speculate(f: &Function, w: &EdgeWeights) -> Result<Optimized, PipelineError> {
    let (level, strategy) = (ValidationLevel::Off, SolveStrategy::default());
    optimize_speculative_checked_with(f, w, level, 0, strategy, &mut SolverScratch::new())
        .map(|(opt, _)| opt)
}

const CORPUS_SEED: u64 = 0x5EC_0001;
const CORPUS_SIZE: usize = 300;
const VALIDATION_SEED: u64 = 0x1c3a_57ed;
const FUEL: u64 = 200_000;

#[test]
fn speculative_placements_validate_at_the_full_tier() {
    let fns = corpus(CORPUS_SEED, CORPUS_SIZE, &GenOptions::default());
    let (mut candidates, mut speculated) = (0usize, 0usize);
    for (i, f) in fns.iter().enumerate() {
        let profile = synthetic_profile(f, CORPUS_SEED ^ i as u64);
        let w = EdgeWeights::from_profile(f, &profile)
            .expect("synthetic profiles are flow-conserving by construction");
        let opt = speculate(f, &w).expect("speculative pipeline");
        let stats = opt.spec.expect("speculative runs record SpecStats");
        candidates += stats.candidates;
        speculated += stats.speculated;
        validate_optimized(f, &opt, ValidationLevel::Full, VALIDATION_SEED)
            .unwrap_or_else(|e| panic!("function #{i} failed full validation: {e}"));
    }
    // The corpus must actually exercise speculation, not vacuously pass.
    assert!(candidates > 0, "no speculation candidates in the corpus");
    assert!(speculated > 0, "no function speculated in the corpus");
}

#[test]
fn measured_profiles_never_increase_dynamic_evaluations() {
    let fns = corpus(CORPUS_SEED, CORPUS_SIZE, &GenOptions::default());
    let mut state = CORPUS_SEED;
    let mut measured = 0usize;
    let mut strict_wins = 0usize;
    for (i, f) in fns.iter().enumerate() {
        let inputs = sample_inputs(f, &mut state);
        let base = run(f, &inputs, FUEL);
        if !base.completed() {
            continue;
        }
        // A completed run's edge counts conserve flow, so they feed back
        // as an exact profile of this very input.
        let profile = Profile::from_weights(f, &base.edge_visits);
        let w = EdgeWeights::from_profile(f, &profile)
            .unwrap_or_else(|e| panic!("measured profile of #{i} must resolve: {e}"));
        let spec = speculate(f, &w).expect("speculative pipeline");
        let lcm = optimize(f, PreAlgorithm::LazyEdge).expect("lcm pipeline");
        let spec_run = run(&spec.function, &inputs, FUEL);
        let lcm_run = run(&lcm.function, &inputs, FUEL);
        assert!(spec_run.completed() && lcm_run.completed(), "function #{i}");
        assert_eq!(
            base.trace, spec_run.trace,
            "function #{i} changed behaviour"
        );
        assert_eq!(base.trace, lcm_run.trace, "function #{i} changed behaviour");
        // The min-cut objective *is* the dynamic evaluation count on the
        // profiled input, and keeping LCM's placement is always a feasible
        // cut — so speculation can only tie or win here.
        assert!(
            spec_run.total_evals() <= lcm_run.total_evals(),
            "function #{i}: spec evaluated {} > lcm {}",
            spec_run.total_evals(),
            lcm_run.total_evals()
        );
        if spec_run.total_evals() < lcm_run.total_evals() {
            strict_wins += 1;
        }
        measured += 1;
    }
    // Fuel exhaustion may skip a few corpus functions; the suite is only
    // meaningful if the overwhelming majority participates and some of
    // them genuinely improve.
    assert!(measured >= 250, "only {measured} of {CORPUS_SIZE} measured");
    assert!(
        strict_wins > 0,
        "no function improved under its own profile"
    );
}

#[test]
fn a_degenerate_profile_reproduces_lcm_bit_for_bit() {
    let fns = corpus(CORPUS_SEED, CORPUS_SIZE, &GenOptions::default());
    for (i, f) in fns.iter().enumerate() {
        let zero = Profile::from_weights(f, &vec![0; lcm::ir::EdgeList::new(f).len()]);
        let w = EdgeWeights::from_profile(f, &zero).expect("all-zero weights conserve flow");
        let spec = speculate(f, &w).expect("speculative pipeline");
        let lcm = optimize(f, PreAlgorithm::LazyEdge).expect("lcm pipeline");
        assert_eq!(
            spec.function.to_string(),
            lcm.function.to_string(),
            "function #{i}: zero profile must not change the placement"
        );
        assert_eq!(spec.spec.expect("stats").speculated, 0);
    }
}

/// A weighted module: every function carries a synthetic profile.
fn weighted_module(count: usize) -> Module {
    let mut m = Module::default();
    for (i, mut f) in corpus(CORPUS_SEED, count, &GenOptions::default())
        .into_iter()
        .enumerate()
    {
        f.name = format!("w{i}");
        let p = synthetic_profile(&f, CORPUS_SEED ^ i as u64);
        let p = Profile {
            function: f.name.clone(),
            entries: p.entries,
        };
        m.push(f).expect("unique names");
        m.push_profile(p).expect("one profile per function");
    }
    m
}

#[test]
fn weighted_batches_are_deterministic_across_thread_counts() {
    let m = weighted_module(48);
    let run_at = |jobs: usize| {
        let mut engine = BatchEngine::new(BatchOptions {
            jobs,
            placement: PreAlgorithm::Speculative,
            ..BatchOptions::default()
        });
        let result = engine.run_module(&m);
        (
            report::render_text(&result),
            report::render_stats(&result),
            result.totals,
        )
    };
    let (text1, stats1, totals1) = run_at(1);
    let (text4, stats4, totals4) = run_at(4);
    assert_eq!(text1, text4, "text report differs across --jobs");
    assert_eq!(stats1, stats4, "stats report differs across --jobs");
    assert_eq!(totals1, totals4);
    assert_eq!(totals1.failed, 0);
    assert!(totals1.spec.speculated > 0, "batch never speculated");
}

#[test]
fn profiles_split_cache_entries_and_their_absence_does_not() {
    let f = corpus(CORPUS_SEED, 1, &GenOptions::default()).remove(0);
    let profiled = BatchUnit {
        file: None,
        profile: Some(synthetic_profile(&f, 7)),
        function: f.clone(),
    };
    let bare = BatchUnit {
        file: None,
        profile: None,
        function: f.clone(),
    };
    let mut engine = BatchEngine::new(BatchOptions {
        placement: PreAlgorithm::Speculative,
        ..BatchOptions::default()
    });
    // Same body, one with weights and one without: two distinct cache
    // entries (different placements), so both compute.
    let first = engine.run(vec![profiled.clone(), bare.clone()]);
    assert_eq!(first.totals.computed, 2, "contexts must not collide");
    // Replaying the same units hits both entries.
    let second = engine.run(vec![profiled, bare]);
    assert_eq!(second.totals.computed, 0);
    assert_eq!(second.totals.ok, 2);
}
