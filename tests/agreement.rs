//! Cross-checks between independent formulations of the same concepts —
//! each pair below computes one quantity in two unrelated ways, so
//! agreement is strong evidence of correctness.

use lcm::cfggen::{arbitrary, corpus, GenOptions};
use lcm::core::{
    lazy_edge_plan, lazy_node_plan, morel_renvoise_plan, optimize, passes, transform, ExprUniverse,
    GlobalAnalyses, LocalPredicates, PreAlgorithm,
};
use lcm::interp::{run, Inputs};
use lcm::ir::Function;

/// The paper's closed-form deletion set (`ANTLOC ∩ ¬LATERIN`) must equal
/// the transform layer's availability-derived one on every program.
#[test]
fn lazy_delete_formulations_agree_on_corpora() {
    let opts = GenOptions::default();
    for f in corpus(0xA11, 80, &opts) {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
        let tav = transform::temp_availability(&f, &uni, &local, &lazy.plan);
        let from_tav = transform::deletions(&f, &uni, &local, &lazy.plan, &tav);
        assert_eq!(from_tav, lazy.delete, "{}", f.name);
    }
    for seed in 0..40 {
        let f = arbitrary(seed, &GenOptions::sized(15));
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
        let tav = transform::temp_availability(&f, &uni, &local, &lazy.plan);
        let from_tav = transform::deletions(&f, &uni, &local, &lazy.plan, &tav);
        assert_eq!(from_tav, lazy.delete, "{}", f.name);
    }
}

/// Morel–Renvoise's promised deletions must also match what availability
/// actually licenses under its insertions.
#[test]
fn mr_delete_formulations_agree_on_corpora() {
    let opts = GenOptions::default();
    for f in corpus(0xB22, 80, &opts) {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let mr = morel_renvoise_plan(&f, &uni, &local).unwrap();
        let tav = transform::temp_availability(&f, &uni, &local, &mr.plan);
        let from_tav = transform::deletions(&f, &uni, &local, &mr.plan, &tav);
        assert_eq!(from_tav, mr.delete, "{}", f.name);
    }
}

/// After LCSE, blocks are canonical: per expression at most one
/// evaluation between consecutive kills.
#[test]
fn lcse_leaves_blocks_canonical() {
    let opts = GenOptions::default();
    for mut f in corpus(0xC33, 60, &opts) {
        passes::lcse(&mut f);
        for b in f.block_ids() {
            let mut since_kill: Vec<lcm::ir::Expr> = Vec::new();
            for instr in &f.block(b).instrs {
                if let lcm::ir::Instr::Assign { dst, rv } = instr {
                    if let lcm::ir::Rvalue::Expr(e) = rv {
                        assert!(
                            !since_kill.contains(e),
                            "{}: duplicate evaluation of {} in {}",
                            f.name,
                            f.display_expr(*e),
                            f.block(b).name
                        );
                        since_kill.push(*e);
                    }
                    since_kill.retain(|e| !e.mentions(*dst));
                }
            }
        }
    }
}

/// ALCM (no isolation) plus clean-up passes must coincide with full LCM in
/// what actually matters: identical dynamic evaluation counts, and after
/// DCE no dangling temp definitions.
#[test]
fn alcm_plus_cleanup_matches_lcm_counts() {
    let opts = GenOptions::default();
    let inputs = Inputs::new()
        .set("a", 4)
        .set("b", -2)
        .set("c", 1)
        .set("d", 8);
    for mut f in corpus(0xD44, 50, &opts) {
        // Canonicalise first: the optimality statements assume LCSE ran.
        passes::lcse(&mut f);
        let exprs = f.expr_universe();
        let mut lcm_out = optimize(&f, PreAlgorithm::LazyNode).unwrap().function;
        let mut alcm_out = optimize(&f, PreAlgorithm::AlmostLazyNode).unwrap().function;
        // DCE only: copy propagation would rename operands and change the
        // structural identity the counters are keyed on.
        for g in [&mut lcm_out, &mut alcm_out] {
            passes::dce(g);
        }
        let a = run(&alcm_out, &inputs, 2_000_000);
        let l = run(&lcm_out, &inputs, 2_000_000);
        assert!(a.completed() && l.completed());
        assert_eq!(
            a.total_evals_of(&exprs),
            l.total_evals_of(&exprs),
            "{}",
            f.name
        );
    }
}

/// The two solver strategies of the dataflow crate agree on the real
/// analyses over real (generated) programs, not just toy fixtures.
#[test]
fn solver_strategies_agree_on_real_analyses() {
    use lcm::dataflow::{
        CfgView, Confluence, Direction, Problem, SolveStrategy, SolverScratch, Transfer,
    };
    let opts = GenOptions::sized(40);
    for f in corpus(0xE55, 20, &opts) {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        for (dir, gen) in [
            (Direction::Forward, &local.comp),
            (Direction::Backward, &local.antloc),
        ] {
            for conf in [Confluence::Must, Confluence::May] {
                let transfer: Vec<Transfer> = gen
                    .iter()
                    .zip(&local.kill)
                    .map(|(g, k)| Transfer {
                        gen: g.clone(),
                        kill: k.clone(),
                    })
                    .collect();
                let p = Problem::new(&f, uni.len(), dir, conf, transfer);
                let a = p.solve();
                let b = p.solve_with(
                    SolveStrategy::SccPriority,
                    &CfgView::new(&f),
                    &mut SolverScratch::new(),
                );
                assert_eq!(a.ins, b.ins, "{} {dir:?} {conf:?}", f.name);
                assert_eq!(a.outs, b.outs, "{} {dir:?} {conf:?}", f.name);
            }
        }
    }
}

/// Splitting critical edges is semantically invisible.
#[test]
fn critical_edge_splitting_preserves_behaviour() {
    let opts = GenOptions::default();
    for f in corpus(0xF66, 40, &opts) {
        let mut split: Function = f.clone();
        lcm::ir::graph::split_critical_edges(&mut split);
        lcm::ir::verify(&split).unwrap();
        for inputs in [
            Inputs::new(),
            Inputs::new().set("a", 1).set("b", 2).set("c", 3),
        ] {
            assert!(lcm::interp::observationally_equivalent(
                &f, &split, &inputs, 1_000_000
            ));
        }
    }
}

/// The textual format round-trips every generated program.
#[test]
fn print_parse_roundtrip_on_corpora() {
    let opts = GenOptions::default();
    for f in corpus(0x9A, 40, &opts) {
        let reparsed = lcm::ir::parse_function(&f.to_string()).unwrap();
        assert_eq!(f.to_string(), reparsed.to_string(), "{}", f.name);
        assert_eq!(f.num_blocks(), reparsed.num_blocks());
        assert_eq!(f.num_instrs(), reparsed.num_instrs());
    }
    for seed in 0..20 {
        let f = arbitrary(seed, &GenOptions::sized(20));
        let reparsed = lcm::ir::parse_function(&f.to_string()).unwrap();
        assert_eq!(f.to_string(), reparsed.to_string());
    }
}

/// Node-formulation plans never leave a critical edge unsplit and never
/// insert into the (empty) synthetic blocks unnecessarily when isolation
/// is on: every insertion must be justified by a later deletion somewhere.
#[test]
fn lcm_node_insertions_are_justified() {
    let opts = GenOptions::default();
    for f in corpus(0x77, 40, &opts) {
        let res = lazy_node_plan(&f, true).unwrap();
        if res.plan.num_insertions() == 0 {
            continue;
        }
        let result = lcm::core::apply_plan(&res.function, &res.universe, &res.local, &res.plan);
        assert!(
            result.stats.deletions > 0,
            "{}: {} insertions but no deletions",
            f.name,
            res.plan.num_insertions()
        );
    }
}
