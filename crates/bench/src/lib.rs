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
/// [`CfgView`](lcm_dataflow::CfgView), change-driven worklist solver),
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

/// The resolved comparison target for the newest file of a `BENCH_PR*`
/// baseline series — see [`series_predecessor`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SeriesPredecessor {
    /// The newest PR number in the series.
    pub newest: u64,
    /// The PR number the newest baseline should be compared against: the
    /// highest *committed* number below it, which is not necessarily
    /// `newest - 1`.
    pub predecessor: u64,
    /// PR numbers strictly between `predecessor` and `newest` with no
    /// committed baseline (re-anchor or perf-neutral PRs), in order.
    pub gaps: Vec<u64>,
}

/// Resolves which committed baseline the newest `BENCH_PR<n>.json` should
/// be compared against. The series is allowed to have holes — a re-anchor
/// PR or a perf-neutral PR commits no baseline — and the comparison must
/// name the *actual* predecessor and call out the hole explicitly, rather
/// than implying the files are consecutive.
///
/// Returns `None` when the series has fewer than two distinct entries
/// (nothing to compare against).
pub fn series_predecessor(prs: &[u64]) -> Option<SeriesPredecessor> {
    let mut sorted: Vec<u64> = prs.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let [.., predecessor, newest] = sorted[..] else {
        return None;
    };
    Some(SeriesPredecessor {
        newest,
        predecessor,
        gaps: (predecessor + 1..newest).collect(),
    })
}

/// Extracts the number following `"key":` in `text`, if any. The baseline
/// files are flat enough (schema `lcm-bench-v1`, unique key names) that a
/// textual scan is exact — no JSON parser in the dependency tree.
pub fn num_after(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One metric of the newest baseline that regressed past the gate
/// threshold relative to its committed predecessor.
#[derive(Clone, PartialEq, Debug)]
pub struct GateViolation {
    /// The metric key in the `lcm-bench-v1` schema.
    pub key: &'static str,
    /// The predecessor baseline's value.
    pub previous: f64,
    /// The newest baseline's value.
    pub current: f64,
    /// Signed percentage change, oriented so that positive is *worse*
    /// (more nanoseconds, fewer functions per second).
    pub worse_pct: f64,
}

/// The headline metrics the regression gate watches, with their
/// direction: `true` means lower is better (latency-like), `false` means
/// higher is better (throughput-like).
const GATED_KEYS: [(&str, bool); 4] = [
    ("scc", true),
    ("reused_scratch", true),
    ("functions_per_second", false),
    // The canonical jobs=1 throughput lives in `batch_sweep.j1`; baselines
    // up to PR 9 also carried a duplicate `jobs1_functions_per_second`
    // measurement in the batch row, retired in PR 10.
    ("j1", false),
];

/// Compares the newest baseline's headline metrics against its
/// predecessor and returns every metric that got worse by more than
/// `pct` percent. Metrics missing from either file are skipped — older
/// baselines legitimately predate some sections — so the gate never
/// fails on schema evolution, only on measured regressions.
///
/// This is opt-in tooling (`experiments bench --check --gate <pct>`):
/// the numbers are wall-clock medians from whatever machines produced
/// the two files, so the caller decides when a same-machine comparison
/// makes the gate meaningful.
pub fn gate_regressions(newest: &str, predecessor: &str, pct: f64) -> Vec<GateViolation> {
    let mut violations = Vec::new();
    for (key, lower_is_better) in GATED_KEYS {
        let (Some(prev), Some(cur)) = (num_after(predecessor, key), num_after(newest, key)) else {
            continue;
        };
        if prev <= 0.0 {
            continue;
        }
        let worse_pct = if lower_is_better {
            (cur / prev - 1.0) * 100.0
        } else {
            (prev / cur - 1.0) * 100.0
        };
        if worse_pct > pct {
            violations.push(GateViolation {
                key,
                previous: prev,
                current: cur,
                worse_pct,
            });
        }
    }
    violations
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
    fn series_predecessor_reports_gaps() {
        // The PR4 -> PR6 situation: PR5 was a re-anchor and committed no
        // baseline, so the newest file's predecessor is PR4 and the gap
        // must be named.
        let p = series_predecessor(&[4, 6]).unwrap();
        assert_eq!(p.newest, 6);
        assert_eq!(p.predecessor, 4);
        assert_eq!(p.gaps, vec![5]);

        // Consecutive series: no gap.
        let p = series_predecessor(&[4, 5, 6]).unwrap();
        assert_eq!((p.predecessor, p.newest), (5, 6));
        assert!(p.gaps.is_empty());

        // Wide hole, unsorted input, duplicates.
        let p = series_predecessor(&[9, 2, 2, 9, 4]).unwrap();
        assert_eq!((p.predecessor, p.newest), (4, 9));
        assert_eq!(p.gaps, vec![5, 6, 7, 8]);

        // Fewer than two distinct entries: nothing to compare.
        assert_eq!(series_predecessor(&[]), None);
        assert_eq!(series_predecessor(&[6]), None);
        assert_eq!(series_predecessor(&[6, 6]), None);
    }

    #[test]
    fn gate_flags_only_metrics_past_the_threshold() {
        let prev = r#"{ "solve_ns_per_op": { "scc": 100.0 },
            "pipeline_ns_per_function": { "reused_scratch": 200.0 },
            "batch": { "functions_per_second": 1000.0 },
            "batch_sweep": { "j1": 400.0 } }"#;
        // scc regressed 20% (latency up), batch throughput regressed 25%
        // (fps down); reused_scratch improved; jobs=1 within noise.
        let newest = r#"{ "solve_ns_per_op": { "scc": 120.0 },
            "pipeline_ns_per_function": { "reused_scratch": 150.0 },
            "batch": { "functions_per_second": 800.0 },
            "batch_sweep": { "j1": 396.0 } }"#;

        let v = gate_regressions(newest, prev, 10.0);
        let keys: Vec<&str> = v.iter().map(|g| g.key).collect();
        assert_eq!(keys, vec!["scc", "functions_per_second"]);
        assert!((v[0].worse_pct - 20.0).abs() < 1e-9, "{:?}", v[0]);
        assert!((v[1].worse_pct - 25.0).abs() < 1e-9, "{:?}", v[1]);

        // A looser gate passes everything.
        assert!(gate_regressions(newest, prev, 30.0).is_empty());
        // A tighter gate also catches the 1% jobs1 drift.
        let tight = gate_regressions(newest, prev, 0.5);
        assert_eq!(tight.len(), 3);

        // Keys missing on either side are skipped, not violations.
        let sparse = r#"{ "solve_ns_per_op": { "scc": 500.0 } }"#;
        assert_eq!(gate_regressions(sparse, prev, 10.0).len(), 1);
        assert!(gate_regressions(prev, sparse, 10.0).is_empty());
    }

    #[test]
    fn num_after_scans_flat_json() {
        let text = r#"{ "a": 1.5, "b": -2, "nested": { "c": 33 } }"#;
        assert_eq!(num_after(text, "a"), Some(1.5));
        assert_eq!(num_after(text, "b"), Some(-2.0));
        assert_eq!(num_after(text, "c"), Some(33.0));
        assert_eq!(num_after(text, "missing"), None);
    }

    #[test]
    fn comparison_covers_all_algorithms() {
        let rows = compare_algorithms(&shapes::diamond_chain(4));
        assert_eq!(rows.len(), PreAlgorithm::ALL.len());
        assert!(rows.iter().any(|r| r.algorithm == "lcm-edge"));
    }
}
