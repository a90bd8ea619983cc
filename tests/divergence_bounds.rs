//! Solver-divergence bounds on pathological CFGs.
//!
//! Every fixpoint loop in the workspace now carries a derived sweep bound
//! and reports [`SolverDiverged`] instead of spinning. These tests pin
//! both directions: well-formed inputs — including the ladder CFGs whose
//! retreating edges maximise round-robin sweep counts — always converge
//! inside their bounds, and an artificially strangled bound actually
//! produces the typed error rather than a hang or a panic.

use lcm::cfggen::shapes;
use lcm::core::{
    availability_problem, lcm_with, morel_renvoise_plan, optimize, ExprUniverse, LocalPredicates,
    PreAlgorithm,
};
use lcm::dataflow::{SolveStrategy, SolverDiverged, SolverScratch};

#[test]
fn ladders_converge_within_bounds_for_every_algorithm() {
    for n in [1, 2, 5, 13, 34] {
        let f = shapes::ladder(n);
        for alg in PreAlgorithm::ALL {
            optimize(&f, alg)
                .unwrap_or_else(|e| panic!("{} diverged on ladder({n}): {e}", alg.name()));
        }
        lcm_with(&f, SolveStrategy::default(), &mut SolverScratch::new())
            .unwrap_or_else(|e| panic!("fused pipeline diverged on ladder({n}): {e}"));
    }
}

#[test]
fn morel_renvoise_sweeps_stay_linear_on_ladders() {
    // The derived bound is 2·n·|universe| + 2; actual bidirectional
    // sweeps on ladders are far below it (a small constant in practice).
    for n in [5, 13, 34] {
        let f = shapes::ladder(n);
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let mr = morel_renvoise_plan(&f, &uni, &local).unwrap();
        let bound = 2 * f.num_blocks() * uni.len() + 2;
        assert!(
            (mr.stats.iterations as usize) < bound,
            "ladder({n}): {} sweeps at bound {bound}",
            mr.stats.iterations
        );
    }
}

#[test]
fn strangled_sweep_bound_reports_divergence() {
    let f = shapes::ladder(8);
    let uni = ExprUniverse::of(&f);
    let local = LocalPredicates::compute(&f, &uni);
    // One sweep cannot reach the availability fixpoint on a ladder this
    // deep, so a bound of 1 must trip the divergence check.
    let err = availability_problem(&f, &uni, &local)
        .with_sweep_bound(1)
        .try_solve()
        .unwrap_err();
    let SolverDiverged { analysis, sweeps } = err;
    assert_eq!(sweeps, 1);
    assert!(!analysis.is_empty());
    assert!(err.to_string().contains("did not converge"), "{err}");
}
