//! Invariants of the solver cost counters ([`SolveStats`]): the SCC-priority
//! worklist never visits more nodes than the round-robin solver, the fused
//! pipeline's counters are non-trivial, and the report's total row is the
//! exact sum of the per-analysis rows.

use lcm::cfggen::{arbitrary, corpus, GenOptions};
use lcm::core::{
    anticipability_problem, availability_problem, later_problem, lcm_with, report, ExprUniverse,
    GlobalAnalyses, LcmPipeline, LocalPredicates,
};
use lcm::dataflow::{CfgView, SolveStrategy, SolverDiverged, SolverScratch};
use lcm::ir::Function;

/// The fused pipeline on the default solver.
fn fused(f: &Function) -> Result<LcmPipeline, SolverDiverged> {
    lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new())
}

fn test_corpus() -> Vec<Function> {
    let mut fns = corpus(0x57A7, 40, &GenOptions::default());
    fns.extend(corpus(0x57A8, 5, &GenOptions::sized(250)));
    fns.extend((0..15).map(|s| arbitrary(s, &GenOptions::sized(20))));
    fns
}

#[test]
fn worklist_never_visits_more_nodes_than_round_robin() {
    for f in test_corpus() {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
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
            assert!(
                scc.stats.node_visits <= rr.stats.node_visits,
                "{name} on {}: scc {} visits > round-robin {}",
                f.name,
                scc.stats.node_visits,
                rr.stats.node_visits
            );
            // Round-robin always needs a final no-change sweep; the
            // SCC schedule reports pops instead of sweeps.
            assert!(rr.stats.iterations >= 1, "{name} on {}", f.name);
            assert_eq!(scc.stats.iterations, 0, "{name} on {}", f.name);
            // Both visit at least every reachable block once.
            assert!(
                scc.stats.node_visits >= f.num_blocks(),
                "{name} on {}",
                f.name
            );
        }
    }
}

#[test]
fn pipeline_totals_are_the_sum_of_the_analyses() {
    for f in test_corpus().into_iter().take(20) {
        let p = fused(&f).unwrap();
        let total = p.stats.total();
        assert_eq!(
            total.node_visits,
            p.stats.avail.node_visits + p.stats.antic.node_visits + p.stats.later.node_visits,
            "{}",
            f.name
        );
        assert_eq!(
            total.word_ops,
            p.stats.avail.word_ops + p.stats.antic.word_ops + p.stats.later.word_ops,
            "{}",
            f.name
        );
        assert_eq!(
            total.iterations,
            p.stats.avail.iterations + p.stats.antic.iterations + p.stats.later.iterations,
            "{}",
            f.name
        );
        assert_eq!(
            total.node_revisits,
            p.stats.avail.node_revisits + p.stats.antic.node_revisits + p.stats.later.node_revisits,
            "{}",
            f.name
        );
        assert_eq!(
            total.allocations,
            p.stats.avail.allocations + p.stats.antic.allocations + p.stats.later.allocations,
            "{}",
            f.name
        );
        // The rendered table carries the same totals.
        let table = report::stats_table(&p.stats);
        let total_row = table
            .lines()
            .find(|l| l.starts_with("total"))
            .unwrap_or_else(|| panic!("no total row in:\n{table}"));
        let cells: Vec<&str> = total_row.split('|').map(str::trim).collect();
        assert_eq!(cells[1], total.iterations.to_string(), "{table}");
        assert_eq!(cells[2], total.node_visits.to_string(), "{table}");
        assert_eq!(cells[3], total.node_revisits.to_string(), "{table}");
        assert_eq!(cells[4], total.word_ops.to_string(), "{table}");
        assert_eq!(cells[5], total.allocations.to_string(), "{table}");
    }
}

#[test]
fn fused_pipeline_is_cheaper_than_the_seed_path_in_aggregate() {
    // Per-function the SCC schedule can tie the round-robin cost on tiny
    // graphs, but over a corpus the change-driven strategy must win on
    // both counters.
    let mut rr_visits = 0usize;
    let mut fused_visits = 0usize;
    let mut rr_words = 0u64;
    let mut fused_words = 0u64;
    for f in test_corpus() {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let lazy = lcm::core::lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
        rr_visits += ga.stats.node_visits + lazy.stats.node_visits;
        rr_words += ga.stats.word_ops + lazy.stats.word_ops;
        let p = fused(&f).unwrap();
        fused_visits += p.stats.total().node_visits;
        fused_words += p.stats.total().word_ops;
    }
    assert!(
        fused_visits < rr_visits,
        "fused {fused_visits} visits vs round-robin {rr_visits}"
    );
    assert!(
        fused_words < rr_words,
        "fused {fused_words} word ops vs round-robin {rr_words}"
    );
}
