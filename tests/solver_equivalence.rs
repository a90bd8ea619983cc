//! Solver equivalence: the round-robin solver, the SCC-priority solver,
//! and the fused pipeline (shared `CfgView` + SCC priority) reach bit-identical
//! fixpoints for every analysis, on every function of the generator
//! corpus — and therefore identical insert/delete placements.
//!
//! This is the safety net under the fused `lcm_with` path: the SCC
//! schedule and the shared orderings are pure cost optimisations, never
//! allowed to change an answer.

use lcm::cfggen::{arbitrary, corpus, random_dag, shapes, GenOptions};
use lcm::core::{
    anticipability_problem, availability_problem, later_problem, lazy_edge_plan, lcm_with,
    ExprUniverse, GlobalAnalyses, LcmPipeline, LocalPredicates,
};
use lcm::dataflow::{CfgView, SolveStrategy, SolverDiverged, SolverScratch};
use lcm::ir::Function;

/// The fused pipeline on the default solver.
fn fused(f: &Function) -> Result<LcmPipeline, SolverDiverged> {
    lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new())
}

/// Structured programs, arbitrary (possibly irreducible) CFGs, DAGs and
/// loop-nest shapes — every generator family in one corpus.
fn test_corpus() -> Vec<Function> {
    let mut fns = corpus(0x50EB, 40, &GenOptions::default());
    fns.extend(corpus(0x50EC, 6, &GenOptions::sized(200)));
    fns.extend((0..20).map(|s| arbitrary(s, &GenOptions::sized(18))));
    fns.extend((0..20).map(|s| random_dag(s, &GenOptions::sized(14))));
    fns.push(shapes::loop_invariant(4, 8));
    fns.push(shapes::diamond_chain(32));
    fns.push(shapes::pressure_chain(16));
    fns.push(shapes::ladder(32));
    fns.push(shapes::one_armed_chain(16));
    fns
}

#[test]
fn all_solvers_reach_the_same_fixpoint_for_every_analysis() {
    // One scratch held across every solve, as the fused pipeline does.
    let mut scratch = SolverScratch::new();
    for f in test_corpus() {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let view = CfgView::new(&f);
        for (name, p) in [
            ("availability", availability_problem(&f, &uni, &local)),
            ("anticipability", anticipability_problem(&f, &uni, &local)),
            ("later", later_problem(&f, &uni, &local, &ga)),
        ] {
            let rr = p.solve();
            let scc = p.solve_with(
                SolveStrategy::SccPriority,
                &CfgView::new(&f),
                &mut SolverScratch::new(),
            );
            let fused = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
            assert_eq!(rr.ins, scc.ins, "{name} ins differ on {}", f.name);
            assert_eq!(rr.outs, scc.outs, "{name} outs differ on {}", f.name);
            assert_eq!(rr.ins, fused.ins, "{name} fused ins differ on {}", f.name);
            assert_eq!(
                rr.outs, fused.outs,
                "{name} fused outs differ on {}",
                f.name
            );
        }
    }
}

#[test]
fn fused_pipeline_placement_is_bit_identical_to_the_seed_path() {
    for f in test_corpus() {
        // Seed path: independent round-robin solves.
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
        // Fused path: shared view, SCC-priority solver.
        let p = fused(&f).unwrap();
        assert_eq!(p.analyses.avail.ins, ga.avail.ins, "{}", f.name);
        assert_eq!(p.analyses.avail.outs, ga.avail.outs, "{}", f.name);
        assert_eq!(p.analyses.antic.ins, ga.antic.ins, "{}", f.name);
        assert_eq!(p.analyses.antic.outs, ga.antic.outs, "{}", f.name);
        assert_eq!(p.analyses.earliest, ga.earliest, "{}", f.name);
        assert_eq!(p.analyses.earliest_entry, ga.earliest_entry, "{}", f.name);
        assert_eq!(p.lazy.laterin, lazy.laterin, "{}", f.name);
        assert_eq!(p.lazy.later, lazy.later, "{}", f.name);
        assert_eq!(
            p.lazy.plan.edge_inserts, lazy.plan.edge_inserts,
            "insert sets differ on {}",
            f.name
        );
        assert_eq!(
            p.lazy.plan.entry_insert, lazy.plan.entry_insert,
            "entry inserts differ on {}",
            f.name
        );
        assert_eq!(
            p.lazy.delete, lazy.delete,
            "delete sets differ on {}",
            f.name
        );
    }
}

#[test]
fn a_shared_view_matches_the_functions_graph() {
    for f in test_corpus().into_iter().take(20) {
        let view = CfgView::new(&f);
        assert_eq!(view.num_blocks(), f.num_blocks());
        assert_eq!(view.rpo().len(), view.postorder().len());
        let preds = f.preds();
        for b in f.block_ids() {
            assert_eq!(view.preds(b), preds[b.index()].as_slice());
            assert_eq!(
                view.succs(b),
                f.succs(b).collect::<Vec<_>>().as_slice(),
                "{}",
                f.name
            );
        }
    }
}
