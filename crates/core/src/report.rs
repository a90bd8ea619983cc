//! Human-readable reports of analysis results: the predicate tables the
//! paper presents as figures, as plain-text strings.
//!
//! Used by the `experiments` binary and the examples; exposed publicly so
//! downstream users can inspect what the analyses concluded about their
//! functions.
//!
//! ```
//! use lcm_core::{report, ExprUniverse, GlobalAnalyses, LocalPredicates};
//! use lcm_ir::parse_function;
//!
//! let f = parse_function("fn r {\nentry:\n  x = a + b\n  ret\n}")?;
//! let uni = ExprUniverse::of(&f);
//! let local = LocalPredicates::compute(&f, &uni);
//! let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
//! let table = report::safety_table(&f, &uni, &local, &ga);
//! assert!(table.contains("ANTLOC"));
//! assert!(table.contains("a + b"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt::Write as _;

use lcm_ir::Function;

use crate::analyses::GlobalAnalyses;
use crate::lcm_node::LazyNodeResult;
use crate::pipeline::PipelineStats;
use crate::predicates::LocalPredicates;
use crate::transform::PlacementPlan;
use crate::universe::ExprUniverse;

/// Renders the local-predicate and safety-analysis table (the paper's
/// availability/anticipability figure): one row per block with
/// `ANTLOC / COMP / TRANSP`, `AVIN / AVOUT` and `ANTIN / ANTOUT`.
pub fn safety_table(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} | {:<44} | {:<28} | {:<28}",
        "block", "ANTLOC / COMP / TRANSP", "AVIN / AVOUT", "ANTIN / ANTOUT"
    );
    for b in f.block_ids() {
        let i = b.index();
        let _ = writeln!(
            out,
            "{:<12} | {:<44} | {:<28} | {:<28}",
            f.block(b).name,
            format!(
                "{} / {} / {}",
                uni.display_set(f, &local.antloc[i]),
                uni.display_set(f, &local.comp[i]),
                uni.display_set(f, &local.transp[i])
            ),
            format!(
                "{} / {}",
                uni.display_set(f, &ga.avail.ins.row_set(i)),
                uni.display_set(f, &ga.avail.outs.row_set(i))
            ),
            format!(
                "{} / {}",
                uni.display_set(f, &ga.antic.ins.row_set(i)),
                uni.display_set(f, &ga.antic.outs.row_set(i))
            ),
        );
    }
    out
}

/// Renders the non-empty EARLIEST sets, one line per edge (plus the
/// virtual entry edge).
pub fn earliest_report(f: &Function, uni: &ExprUniverse, ga: &GlobalAnalyses) -> String {
    let mut out = String::new();
    if !ga.earliest_entry.is_empty() {
        let _ = writeln!(
            out,
            "EARLIEST(virtual entry edge) = {}",
            uni.display_set(f, &ga.earliest_entry)
        );
    }
    for (eid, edge) in ga.edges.iter() {
        let s = &ga.earliest[eid.index()];
        if !s.is_empty() {
            let _ = writeln!(
                out,
                "EARLIEST({} -> {}) = {}",
                f.block(edge.from).name,
                f.block(edge.to).name,
                uni.display_set(f, s)
            );
        }
    }
    out
}

/// Renders the node-formulation cascade table (`N/X` pairs of DELAY,
/// LATEST and ISOLATED per block) — the paper's lazy-analysis figure.
pub fn node_cascade_table(res: &LazyNodeResult) -> String {
    let g = &res.function;
    let uni = &res.universe;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} | {:<34} | {:<34} | {:<34}",
        "block", "N-DELAY / X-DELAY", "N-LATEST / X-LATEST", "N-ISOLATED / X-ISOLATED"
    );
    for b in g.block_ids() {
        let i = b.index();
        let _ = writeln!(
            out,
            "{:<12} | {:<34} | {:<34} | {:<34}",
            g.block(b).name,
            format!(
                "{} / {}",
                uni.display_set(g, &res.delay[i].0),
                uni.display_set(g, &res.delay[i].1)
            ),
            format!(
                "{} / {}",
                uni.display_set(g, &res.latest[i].0),
                uni.display_set(g, &res.latest[i].1)
            ),
            format!(
                "{} / {}",
                uni.display_set(g, &res.isolated[i].0),
                uni.display_set(g, &res.isolated[i].1)
            ),
        );
    }
    out
}

/// Renders a placement plan's non-empty insertion sets, one line per
/// location.
pub fn plan_report(f: &Function, uni: &ExprUniverse, plan: &PlacementPlan) -> String {
    let mut out = String::new();
    if !plan.entry_insert.is_empty() {
        let _ = writeln!(
            out,
            "INSERT at entry: {}",
            uni.display_set(f, &plan.entry_insert)
        );
    }
    for (eid, edge) in plan.edges.iter() {
        let s = &plan.edge_inserts[eid.index()];
        if !s.is_empty() {
            let _ = writeln!(
                out,
                "INSERT on {} -> {}: {}",
                f.block(edge.from).name,
                f.block(edge.to).name,
                uni.display_set(f, s)
            );
        }
    }
    for b in f.block_ids() {
        let bi = b.index();
        if !plan.block_top_inserts[bi].is_empty() {
            let _ = writeln!(
                out,
                "INSERT at top of {}: {}",
                f.block(b).name,
                uni.display_set(f, &plan.block_top_inserts[bi])
            );
        }
        if !plan.block_bottom_inserts[bi].is_empty() {
            let _ = writeln!(
                out,
                "INSERT at bottom of {}: {}",
                f.block(b).name,
                uni.display_set(f, &plan.block_bottom_inserts[bi])
            );
        }
    }
    out
}

/// Renders the per-analysis solver cost of a fused [`lcm_with`](crate::lcm_with)
/// run, one row per analysis plus their total. SCC-priority solves report `0`
/// iterations (the column is only meaningful for round-robin sweeps).
pub fn stats_table(stats: &PipelineStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>10} | {:>11} | {:>8} | {:>10} | {:>6}",
        "analysis", "iterations", "node visits", "revisits", "word ops", "allocs"
    );
    for (name, s) in [
        ("avail", stats.avail),
        ("antic", stats.antic),
        ("later", stats.later),
        ("total", stats.total()),
    ] {
        let _ = writeln!(
            out,
            "{:<10} | {:>10} | {:>11} | {:>8} | {:>10} | {:>6}",
            name, s.iterations, s.node_visits, s.node_revisits, s.word_ops, s.allocations
        );
    }
    out
}

/// Renders a [`ValidationReport`](crate::ValidationReport) as one compact
/// table row set: which tier ran, how many checks, and where the time
/// went. Appended to `lcmopt --emit stats` when validation is on.
pub fn validation_table(report: &crate::ValidationReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} | {:>6} | {:>12} | {:>12} | {:>7}",
        "validate", "checks", "static us", "diff us", "inputs"
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>6} | {:>12} | {:>12} | {:>7}",
        report.level.name(),
        report.checks_run,
        report.static_nanos / 1_000,
        report.differential_nanos / 1_000,
        report.inputs_sampled
    );
    out
}

/// Renders deletion sets, one line per affected block.
pub fn delete_report(f: &Function, uni: &ExprUniverse, delete: &[lcm_dataflow::BitSet]) -> String {
    let mut out = String::new();
    for b in f.block_ids() {
        let d = &delete[b.index()];
        if !d.is_empty() {
            let _ = writeln!(
                out,
                "DELETE in {}: {}",
                f.block(b).name,
                uni.display_set(f, d)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lazy_edge_plan, lazy_node_plan};
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

    #[test]
    fn reports_cover_the_diamond() {
        let f = parse_function(DIAMOND).unwrap();
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();

        let table = safety_table(&f, &uni, &local, &ga);
        assert!(table.contains("join"));
        assert!(table.contains("{a + b}"));

        let plan = plan_report(&f, &uni, &lazy.plan);
        assert!(plan.contains("INSERT on r -> join: {a + b}"), "{plan}");

        let del = delete_report(&f, &uni, &lazy.delete);
        assert!(del.contains("DELETE in join: {a + b}"), "{del}");

        // Earliest on the diamond is the virtual entry edge.
        let e = earliest_report(&f, &uni, &ga);
        assert!(e.contains("virtual entry edge"), "{e}");
    }

    #[test]
    fn node_cascade_table_prints_all_pairs() {
        let f = parse_function(DIAMOND).unwrap();
        let res = lazy_node_plan(&f, true).unwrap();
        let table = node_cascade_table(&res);
        assert!(table.contains("N-DELAY / X-DELAY"));
        assert!(table.contains("N-ISOLATED"));
        for b in res.function.block_ids() {
            assert!(table.contains(&res.function.block(b).name));
        }
    }

    #[test]
    fn stats_table_totals_sum_the_analyses() {
        let f = parse_function(DIAMOND).unwrap();
        let scratch = &mut lcm_dataflow::SolverScratch::new();
        let p = crate::lcm_with(&f, Default::default(), scratch).unwrap();
        let table = stats_table(&p.stats);
        assert!(table.contains("avail"), "{table}");
        assert!(table.contains("total"), "{table}");
        let total = p.stats.total();
        assert!(
            table.contains(&total.word_ops.to_string()),
            "total word ops missing: {table}"
        );
        assert_eq!(
            total.node_visits,
            p.stats.avail.node_visits + p.stats.antic.node_visits + p.stats.later.node_visits
        );
    }

    #[test]
    fn empty_sets_produce_no_lines() {
        let f = parse_function("fn e {\nentry:\n  obs x\n  ret\n}").unwrap();
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        assert!(earliest_report(&f, &uni, &ga).is_empty());
        let plan = crate::PlacementPlan::empty("test", &f, &uni);
        assert!(plan_report(&f, &uni, &plan).is_empty());
    }
}
