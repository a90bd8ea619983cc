//! Shared workloads and measurement helpers for the benchmark suite and
//! the `experiments` binary (see EXPERIMENTS.md for the experiment index).

use lcm_cfggen::{corpus, shapes, GenOptions};
use lcm_core::{
    lazy_edge_plan, lcm_with, morel_renvoise_plan, optimize, passes, ExprUniverse, GlobalAnalyses,
    LocalPredicates, PipelineStats, PreAlgorithm,
};
use lcm_dataflow::{SolveStats, SolveStrategy, SolverScratch};
use lcm_ir::Function;

/// The deterministic workload suite used by benches and experiments.
pub fn workloads() -> Vec<(&'static str, Function)> {
    vec![
        ("diamond_chain_64", shapes::diamond_chain(64)),
        ("pressure_chain_64", shapes::pressure_chain(64)),
        ("loop_invariant_4x8", shapes::loop_invariant(4, 8)),
        ("ladder_64", shapes::ladder(64)),
        ("soup_256", shapes::wide_expression_soup(256)),
        ("gen_medium", {
            let mut f = lcm_cfggen::structured(0x5EED, &GenOptions::sized(300));
            passes::lcse(&mut f);
            f
        }),
        ("gen_large", {
            let mut f = lcm_cfggen::structured(0x5EED + 1, &GenOptions::sized(1500));
            passes::lcse(&mut f);
            f
        }),
    ]
}

/// Generated programs of a given size (for scaling sweeps), LCSE-normalised.
pub fn sized_corpus(size: usize, count: usize) -> Vec<Function> {
    corpus(0xBE9C_0000 + size as u64, count, &GenOptions::sized(size))
        .into_iter()
        .map(|mut f| {
            passes::lcse(&mut f);
            f
        })
        .collect()
}

/// Cost of the full LCM analysis stack (availability, anticipability,
/// LATER) in solver statistics, on the seed round-robin path.
pub fn lcm_analysis_cost(f: &Function) -> SolveStats {
    let uni = ExprUniverse::of(f);
    let local = LocalPredicates::compute(f, &uni);
    let ga = GlobalAnalyses::compute(f, &uni, &local).expect("benchmark analyses converge");
    let lazy = lazy_edge_plan(f, &uni, &local, &ga).expect("benchmark analyses converge");
    let mut stats = ga.stats;
    stats += lazy.stats;
    stats
}

/// Cost of the same analysis stack on the fused pipeline (shared
/// [`CfgView`](lcm_dataflow::CfgView), SCC-priority solver),
/// broken out per analysis.
pub fn fused_analysis_cost(f: &Function) -> PipelineStats {
    lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new())
        .expect("benchmark analyses converge")
        .stats
}

/// Cost of the Morel–Renvoise system (availability, partial availability,
/// bidirectional PPIN/PPOUT) in solver statistics.
pub fn mr_analysis_cost(f: &Function) -> SolveStats {
    let uni = ExprUniverse::of(f);
    let local = LocalPredicates::compute(f, &uni);
    morel_renvoise_plan(f, &uni, &local)
        .expect("benchmark analyses converge")
        .stats
}

/// One row of the algorithm-comparison table.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Static insertions.
    pub insertions: usize,
    /// Static deletions (occurrences replaced by temp reads).
    pub deletions: usize,
    /// Temporaries introduced.
    pub temps: usize,
    /// Live points of the temporaries (static register-pressure measure).
    pub live_points: u64,
}

/// Runs every algorithm on `f` and tabulates the static outcomes.
pub fn compare_algorithms(f: &Function) -> Vec<ComparisonRow> {
    PreAlgorithm::ALL
        .into_iter()
        .map(|alg| {
            let o = optimize(f, alg).expect("benchmark optimization succeeds");
            ComparisonRow {
                algorithm: alg.name(),
                insertions: o.transform.stats.insertions,
                deletions: o.transform.stats.deletions,
                temps: o.transform.stats.temps,
                live_points: lcm_core::metrics::live_points(&o.function, &o.transform.temp_vars()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_wellformed() {
        for (name, f) in workloads() {
            lcm_ir::verify(&f).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn cost_helpers_return_nonzero_work() {
        let f = shapes::diamond_chain(8);
        let lcm = lcm_analysis_cost(&f);
        let mr = mr_analysis_cost(&f);
        assert!(lcm.word_ops > 0);
        assert!(mr.word_ops > 0);
    }

    #[test]
    fn comparison_covers_all_algorithms() {
        let rows = compare_algorithms(&shapes::diamond_chain(4));
        assert_eq!(rows.len(), PreAlgorithm::ALL.len());
        assert!(rows.iter().any(|r| r.algorithm == "lcm-edge"));
    }
}
