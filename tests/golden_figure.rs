//! Golden regression test for the paper's running-example figure
//! (`lcm_core::figures::running_example`): the local predicates, the
//! safety analyses, EARLIEST, the node-formulation LATEST, and the final
//! INSERT/DELETE placement are pinned block by block.
//!
//! Any change to the analyses that alters one of these sets — however
//! plausible — must update this file consciously.

use lcm::core::figures::running_example;
use lcm::core::{
    lazy_edge_plan, lazy_node_plan, lcm_with, ExprUniverse, GlobalAnalyses, LcmPipeline,
    LocalPredicates,
};
use lcm::dataflow::{BitSet, SolveStrategy, SolverDiverged, SolverScratch};
use lcm::ir::Function;

/// The fused pipeline on the default solver.
fn fused(f: &Function) -> Result<LcmPipeline, SolverDiverged> {
    lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new())
}

// Universe positions, in first-occurrence order.
const AB: usize = 0; // a + b
const DEC: usize = 1; // i - 1
const INC: usize = 2; // a + 1
const OR: usize = 3; // c | d
const FULL: &[usize] = &[AB, DEC, INC, OR];

fn set(uni: &ExprUniverse, bits: &[usize]) -> BitSet {
    let mut s = uni.empty_set();
    for &b in bits {
        s.insert(b);
    }
    s
}

fn block(f: &Function, name: &str) -> usize {
    f.block_by_name(name)
        .unwrap_or_else(|| panic!("no block {name}"))
        .index()
}

#[test]
fn safety_analyses_match_the_figure() {
    let f = running_example();
    let uni = ExprUniverse::of(&f);
    assert_eq!(uni.len(), 4);
    assert_eq!(f.display_expr(uni.expr(AB)), "a + b");
    assert_eq!(f.display_expr(uni.expr(DEC)), "i - 1");
    assert_eq!(f.display_expr(uni.expr(INC)), "a + 1");
    assert_eq!(f.display_expr(uni.expr(OR)), "c | d");
    let local = LocalPredicates::compute(&f, &uni);
    let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();

    // One row per block: ANTLOC, COMP, TRANSP, AVIN, AVOUT, ANTIN, ANTOUT.
    type Row = (&'static str, Set, Set, Set, Set, Set, Set, Set);
    type Set = &'static [usize];
    #[rustfmt::skip]
    let golden: &[Row] = &[
        ("entry",   &[],         &[],        FULL,            &[],       &[],        FULL,       FULL),
        ("exit",    &[],         &[],        FULL,            &[AB, OR], &[AB, OR],  &[],        &[]),
        ("cond",    &[],         &[],        FULL,            &[],       &[],        FULL,       FULL),
        ("compute", &[AB],       &[AB],      FULL,            &[],       &[AB],      FULL,       FULL),
        ("skip",    &[],         &[],        FULL,            &[],       &[],        FULL,       FULL),
        ("preloop", &[],         &[],        FULL,            &[],       &[],        FULL,       FULL),
        ("loop",    &[AB, DEC],  &[AB],      &[AB, INC, OR],  &[],       &[AB],      FULL,       &[INC, OR]),
        ("tail",    &[INC, OR],  &[AB, OR],  &[DEC, OR],      &[AB],     &[AB, OR],  &[INC, OR], &[]),
    ];
    for &(name, antloc, comp, transp, avin, avout, antin, antout) in golden {
        let i = block(&f, name);
        assert_eq!(local.antloc[i], set(&uni, antloc), "ANTLOC[{name}]");
        assert_eq!(local.comp[i], set(&uni, comp), "COMP[{name}]");
        assert_eq!(local.transp[i], set(&uni, transp), "TRANSP[{name}]");
        assert_eq!(ga.avail.ins.row_set(i), set(&uni, avin), "AVIN[{name}]");
        assert_eq!(ga.avail.outs.row_set(i), set(&uni, avout), "AVOUT[{name}]");
        assert_eq!(ga.antic.ins.row_set(i), set(&uni, antin), "ANTIN[{name}]");
        assert_eq!(
            ga.antic.outs.row_set(i),
            set(&uni, antout),
            "ANTOUT[{name}]"
        );
    }
}

#[test]
fn earliest_matches_the_figure() {
    let f = running_example();
    let uni = ExprUniverse::of(&f);
    let local = LocalPredicates::compute(&f, &uni);
    let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();

    // Everything is earliest on the virtual entry edge; the only other
    // non-empty set is the loop's self-killed decrement on the back edge.
    assert_eq!(ga.earliest_entry, set(&uni, FULL));
    let lop = f.block_by_name("loop").unwrap();
    for (eid, edge) in ga.edges.iter() {
        let expected = if edge.from == lop && edge.to == lop {
            set(&uni, &[DEC])
        } else {
            uni.empty_set()
        };
        assert_eq!(
            ga.earliest[eid.index()],
            expected,
            "EARLIEST({} -> {})",
            f.block(edge.from).name,
            f.block(edge.to).name
        );
    }
}

#[test]
fn node_latest_matches_the_figure() {
    let f = running_example();
    let res = lazy_node_plan(&f, true).unwrap();
    let g = &res.function;
    let uni = &res.universe;

    // N-LATEST: the use sites that delay cannot pass. X-LATEST: only the
    // skip arm's exit (the lazy insertion point for a + b).
    #[rustfmt::skip]
    let golden: &[(&str, &[usize], &[usize])] = &[
        ("entry",           &[],          &[]),
        ("exit",            &[],          &[]),
        ("cond",            &[],          &[]),
        ("compute",         &[AB],        &[]),
        ("skip",            &[],          &[AB]),
        ("preloop",         &[],          &[]),
        ("loop",            &[DEC],       &[]),
        ("tail",            &[INC, OR],   &[]),
        ("loop_loop.split", &[],          &[]),
    ];
    assert_eq!(golden.len(), g.num_blocks(), "a block appeared or vanished");
    for &(name, n_latest, x_latest) in golden {
        let i = block(g, name);
        assert_eq!(res.latest[i].0, set(uni, n_latest), "N-LATEST[{name}]");
        assert_eq!(res.latest[i].1, set(uni, x_latest), "X-LATEST[{name}]");
    }
    // The final node plan inserts a + b at skip's exit and in front of
    // compute's upward-exposed occurrence (the retained-definition pattern:
    // the rewriter fuses that one with the existing computation).
    let skip = block(g, "skip");
    let compute = block(g, "compute");
    assert_eq!(res.plan.num_insertions(), 2);
    assert_eq!(res.plan.block_bottom_inserts[skip], set(uni, &[AB]));
    assert_eq!(res.plan.block_top_inserts[compute], set(uni, &[AB]));
}

#[test]
fn edge_insert_and_delete_match_the_figure() {
    let f = running_example();
    let uni = ExprUniverse::of(&f);
    let local = LocalPredicates::compute(&f, &uni);
    let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
    let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();

    // INSERT: exactly {a + b} on skip -> preloop.
    assert!(lazy.plan.entry_insert.is_empty());
    let skip = f.block_by_name("skip").unwrap();
    let preloop = f.block_by_name("preloop").unwrap();
    for (eid, edge) in lazy.plan.edges.iter() {
        let expected = if edge.from == skip && edge.to == preloop {
            set(&uni, &[AB])
        } else {
            uni.empty_set()
        };
        assert_eq!(
            lazy.plan.edge_inserts[eid.index()],
            expected,
            "INSERT({} -> {})",
            f.block(edge.from).name,
            f.block(edge.to).name
        );
    }

    // DELETE: exactly {a + b} in the loop.
    for b in f.block_ids() {
        let name = &f.block(b).name;
        let expected = if name == "loop" {
            set(&uni, &[AB])
        } else {
            uni.empty_set()
        };
        assert_eq!(lazy.delete[b.index()], expected, "DELETE[{name}]");
    }

    // The fused pipeline pins the same placement.
    let p = fused(&f).unwrap();
    assert_eq!(p.lazy.plan.edge_inserts, lazy.plan.edge_inserts);
    assert_eq!(p.lazy.delete, lazy.delete);
}

#[test]
fn every_solver_strategy_pins_the_same_figure_placement() {
    use lcm::dataflow::{SolveStrategy, SolverScratch};

    let f = running_example();
    let mut scratch = SolverScratch::new();
    let baseline = lcm::core::lcm_with(&f, SolveStrategy::RoundRobin, &mut scratch).unwrap();
    let p = lcm::core::lcm_with(&f, SolveStrategy::SccPriority, &mut scratch).unwrap();
    assert_eq!(p.lazy.laterin, baseline.lazy.laterin);
    assert_eq!(p.lazy.plan.edge_inserts, baseline.lazy.plan.edge_inserts);
    assert_eq!(p.lazy.plan.entry_insert, baseline.lazy.plan.entry_insert);
    assert_eq!(p.lazy.delete, baseline.lazy.delete);
}
