//! Strategy-equivalence property suite: the round-robin and SCC-priority
//! solvers reach **bit-identical** `Solution`s for every
//! analysis — and therefore identical insert/delete placements — across a
//! seeded corpus of 500+ random control-flow graphs: structured reducible
//! programs (loopy and loop-free), free-form possibly-irreducible CFGs,
//! and DAGs.
//!
//! The LCM dataflow framework is monotone over a finite lattice, so each
//! problem has one fixpoint; scheduling is a pure cost decision. This suite
//! is the empirical pin for that theorem across solver strategies, the way
//! `tests/solver_equivalence.rs` pins the fused pipeline against the seed
//! path.

use lcm::cfggen::{arbitrary, corpus, random_dag, GenOptions};
use lcm::core::{
    anticipability_problem, availability_problem, later_problem, lcm_with, ExprUniverse,
    GlobalAnalyses, LocalPredicates,
};
use lcm::dataflow::{CfgView, SolveStrategy, SolverScratch};
use lcm::ir::Function;

/// 500+ functions: reducible structured programs (small and mid-sized,
/// which the generator gives plenty of loops), irreducible-capable
/// arbitrary CFGs, and acyclic DAGs.
fn big_corpus() -> Vec<Function> {
    let mut fns = corpus(0x5717_A7E6, 260, &GenOptions::default());
    fns.extend(corpus(0x5717_A7E7, 40, &GenOptions::sized(80)));
    fns.extend((0..120).map(|s| arbitrary(s ^ 0xABCD, &GenOptions::sized(16))));
    fns.extend((0..80).map(|s| random_dag(s ^ 0xD146, &GenOptions::sized(12))));
    assert!(fns.len() >= 500, "corpus shrank to {}", fns.len());
    fns
}

#[test]
fn every_strategy_produces_bit_identical_solutions() {
    let mut scratch = SolverScratch::new();
    for f in big_corpus() {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let view = CfgView::new(&f);
        for (name, p) in [
            ("availability", availability_problem(&f, &uni, &local)),
            ("anticipability", anticipability_problem(&f, &uni, &local)),
            ("later", later_problem(&f, &uni, &local, &ga)),
        ] {
            let baseline = p.solve_with(SolveStrategy::RoundRobin, &view, &mut scratch);
            let scc = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
            assert_eq!(baseline.ins, scc.ins, "{name} ins: scc vs rr on {}", f.name);
            assert_eq!(
                baseline.outs, scc.outs,
                "{name} outs: scc vs rr on {}",
                f.name
            );
        }
    }
}

#[test]
fn every_strategy_produces_identical_placements() {
    let mut scratch = SolverScratch::new();
    for f in big_corpus().into_iter().step_by(3) {
        let baseline = lcm_with(&f, SolveStrategy::RoundRobin, &mut scratch).unwrap();
        let scc = lcm_with(&f, SolveStrategy::SccPriority, &mut scratch).unwrap();
        assert_eq!(
            baseline.lazy.laterin, scc.lazy.laterin,
            "laterin on {}",
            f.name
        );
        assert_eq!(
            baseline.lazy.plan.edge_inserts, scc.lazy.plan.edge_inserts,
            "edge inserts on {}",
            f.name
        );
        assert_eq!(
            baseline.lazy.plan.entry_insert, scc.lazy.plan.entry_insert,
            "entry insert on {}",
            f.name
        );
        assert_eq!(
            baseline.lazy.delete, scc.lazy.delete,
            "delete on {}",
            f.name
        );
    }
}

#[test]
fn scc_priority_beats_round_robin_revisits_on_the_loopy_corpus() {
    // On the loopy part of the corpus round-robin re-sweeps every block
    // until nothing changes, while the SCC drain revisits only inside the
    // loops: it must reduce scheduling waste per function, and never lose.
    let mut scratch = SolverScratch::new();
    let mut rr_revisits = 0usize;
    let mut scc_revisits = 0usize;
    for f in big_corpus() {
        let view = CfgView::new(&f);
        if view.retreating_edges() == 0 {
            continue;
        }
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let p = availability_problem(&f, &uni, &local);
        let rr = p
            .solve_with(SolveStrategy::RoundRobin, &view, &mut scratch)
            .stats
            .node_revisits;
        let scc = p
            .solve_with(SolveStrategy::SccPriority, &view, &mut scratch)
            .stats
            .node_revisits;
        assert!(scc <= rr, "{}: scc {scc} revisits > rr {rr}", f.name);
        rr_revisits += rr;
        scc_revisits += scc;
    }
    assert!(
        scc_revisits < rr_revisits,
        "SCC-priority revisits {scc_revisits} not below round-robin {rr_revisits}"
    );
}
