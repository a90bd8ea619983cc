//! Lazy Code Motion, edge-insertion formulation.
//!
//! This is the block-granularity restatement of the paper's algorithm (the
//! form given in the authors' TOPLAS'94 companion paper and adopted by
//! production compilers): after availability and anticipability, a *third*
//! unidirectional analysis delays the earliest insertion points along the
//! control flow as far as possible:
//!
//! ```text
//! LATERIN[j]  = ∩ over incoming edges (i,j) of LATER(i,j)
//!               (boundary: LATERIN[entry] = EARLIEST of the virtual
//!                entry edge = ANTIN[entry])
//! LATER(i,j)  = EARLIEST(i,j) ∪ (LATERIN[i] ∩ ¬ANTLOC[i])
//! ```
//!
//! `LATERIN[b]` reads "the insertion is still pending at b's entry": it can
//! be postponed to `b` or beyond. Delay stops at uses (`ANTLOC`) and at
//! merges where some other path needs the value earlier. The final
//! placement falls out directly:
//!
//! ```text
//! INSERT(i,j) = LATER(i,j) ∩ ¬LATERIN[j]   (cannot be delayed into j)
//! DELETE[b]   = ANTLOC[b] ∩ ¬LATERIN[b]    (a real insertion covers b)
//! ```
//!
//! Deletion and the isolation-aware rewriting are then carried out by the
//! shared [`transform`](crate::transform) machinery, which recomputes
//! `DELETE` from first principles (temp availability); the equality of the
//! two formulations is asserted in tests and validated on random corpora.

use lcm_dataflow::{
    BitMatrix, BitSet, CfgView, Confluence, Direction, Problem, Solution, SolveStats,
    SolveStrategy, SolverDiverged, SolverScratch, Transfer,
};
use lcm_ir::Function;

use crate::analyses::GlobalAnalyses;
use crate::predicates::LocalPredicates;
use crate::transform::PlacementPlan;
use crate::universe::ExprUniverse;

/// The LATER/LATERIN fixpoint plus the derived insertion/deletion sets.
#[derive(Clone, Debug)]
pub struct LazyEdgeResult {
    /// `LATERIN[b]` per block (one matrix row per block).
    pub laterin: BitMatrix,
    /// `LATER(i,j)` per edge (same numbering as the analyses' edge list).
    pub later: Vec<BitSet>,
    /// The placement plan (edge insertions only).
    pub plan: PlacementPlan,
    /// `DELETE[b] = ANTLOC[b] ∩ ¬LATERIN[b]` — the paper's deletion set,
    /// exposed for comparison with the transform layer's availability-based
    /// deletion (they must agree).
    pub delete: Vec<BitSet>,
    /// Solver statistics for the LATER pass.
    pub stats: SolveStats,
}

/// The LATER/LATERIN dataflow problem — a forward must-problem with
/// per-edge gen = EARLIEST and block transfer `in − ANTLOC` (gen = ∅,
/// kill = ANTLOC) — for callers that pick their own solver.
pub fn later_problem<'f>(
    f: &'f Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
) -> Problem<'f> {
    let transfer: Vec<Transfer> = local
        .antloc
        .iter()
        .map(|antloc| Transfer {
            gen: uni.empty_set(),
            kill: antloc.clone(),
        })
        .collect();
    Problem::new(f, uni.len(), Direction::Forward, Confluence::Must, transfer)
        .with_name("later")
        .with_boundary(ga.earliest_entry.clone())
        .with_edge_gen(ga.edges.clone(), ga.earliest.clone())
}

/// Runs the delay analysis and derives the lazy placement.
pub fn lazy_edge_plan(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
) -> Result<LazyEdgeResult, SolverDiverged> {
    let solution = later_problem(f, uni, local, ga).try_solve()?;
    Ok(derive_placement(f, uni, local, ga, solution))
}

/// The fused-pipeline variant of [`lazy_edge_plan`]: the delay analysis
/// runs under an explicit [`SolveStrategy`] against a shared [`CfgView`]
/// and a caller-owned [`SolverScratch`] (normally the one the availability
/// and anticipability solves just used). Same fixpoint, typically cheaper.
///
/// # Errors
///
/// Returns [`SolverDiverged`] if the fixpoint iteration exceeds its budget.
pub fn lazy_edge_plan_with(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
    view: &CfgView,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<LazyEdgeResult, SolverDiverged> {
    let solution = later_problem(f, uni, local, ga).try_solve_with(strategy, view, scratch)?;
    Ok(derive_placement(f, uni, local, ga, solution))
}

pub(crate) fn derive_placement(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
    solution: Solution,
) -> LazyEdgeResult {
    let laterin = solution.ins;

    // LATER(i,j) = EARLIEST(i,j) ∪ (LATERIN[i] ∩ ¬ANTLOC[i]); note the
    // solver's `outs` are exactly LATERIN[i] ∩ ¬ANTLOC[i].
    let mut later = Vec::with_capacity(ga.edges.len());
    let mut plan = PlacementPlan::empty("lcm-edge", f, uni);
    for (eid, edge) in ga.edges.iter() {
        let mut l = solution.outs.row_set(edge.from.index());
        l.union_with(&ga.earliest[eid.index()]);
        // INSERT = LATER − LATERIN[target]
        let mut ins = l.clone();
        ins.difference_with_row(laterin.row(edge.to.index()));
        plan.edge_inserts[eid.index()] = ins;
        later.push(l);
    }
    // Virtual entry edge: LATER(⊥,entry) = EARLIEST(⊥,entry) = LATERIN[entry],
    // so INSERT(⊥,entry) = LATERIN[entry] − LATERIN[entry] = ∅ — laziness
    // provably never inserts above the entry's first instruction.

    let delete = f
        .block_ids()
        .map(|b| {
            let mut d = laterin.row_set(b.index());
            d.complement();
            d.intersect_with(&local.antloc[b.index()]);
            d
        })
        .collect();

    LazyEdgeResult {
        laterin,
        later,
        plan,
        delete,
        stats: solution.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{apply_plan, deletions, temp_availability};
    use lcm_ir::parse_function;

    fn run(
        text: &str,
    ) -> (
        Function,
        ExprUniverse,
        LocalPredicates,
        GlobalAnalyses,
        LazyEdgeResult,
    ) {
        let f = parse_function(text).unwrap();
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
        let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
        (f, uni, local, ga, lazy)
    }

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
    fn lazy_inserts_on_the_empty_arm_not_at_entry() {
        let (f, _uni, local, _ga, lazy) = run(DIAMOND);
        let r = f.block_by_name("r").unwrap();
        let join = f.block_by_name("join").unwrap();
        // Exactly one insertion: on r→join (delayed from the entry).
        assert_eq!(lazy.plan.num_insertions(), 1);
        let (eid, edge) = lazy
            .plan
            .edges
            .iter()
            .find(|(id, _)| !lazy.plan.edge_inserts[id.index()].is_empty())
            .unwrap();
        assert_eq!((edge.from, edge.to), (r, join));
        assert!(lazy.plan.edge_inserts[eid.index()].contains(0));
        assert!(lazy.plan.entry_insert.is_empty());
        // join's occurrence is deleted; l's is not.
        assert!(lazy.delete[join.index()].contains(0));
        let l = f.block_by_name("l").unwrap();
        assert!(!lazy.delete[l.index()].contains(0));
        let _ = local;
    }

    #[test]
    fn paper_delete_matches_availability_based_delete() {
        for text in [
            DIAMOND,
            "fn loopy {
             entry:
               i = 9
               jmp head
             head:
               br i, body, done
             body:
               x = a + b
               obs x
               i = i - 1
               jmp head
             done:
               y = a + b
               obs y
               ret
             }",
            "fn kills {
             entry:
               x = a + b
               a = x
               br c, l, r
             l:
               y = a + b
               jmp join
             r:
               jmp join
             join:
               z = a + b
               obs z
               ret
             }",
        ] {
            let (f, uni, local, _ga, lazy) = run(text);
            let tav = temp_availability(&f, &uni, &local, &lazy.plan);
            let from_tav = deletions(&f, &uni, &local, &lazy.plan, &tav);
            assert_eq!(from_tav, lazy.delete, "mismatch for {}", f.name);
        }
    }

    #[test]
    fn loop_invariant_is_hoisted_before_a_dowhile_loop() {
        // Classic LCM hoists a loop invariant exactly when it is
        // anticipated at the loop entry — a do-while body qualifies (a
        // zero-trip while loop would not: hoisting there would be unsafe).
        let (f, uni, local, _ga, lazy) = run("fn loopy {
             entry:
               i = 9
               jmp body
             body:
               x = a + b
               obs x
               i = i - 1
               br i, body, done
             done:
               obs x
               ret
             }");
        let idx = uni
            .iter()
            .find(|(_, e)| f.display_expr(*e) == "a + b")
            .map(|(i, _)| i)
            .unwrap();
        // Insertion on entry→body (before the loop), not inside it.
        let body = f.block_by_name("body").unwrap();
        let inserted: Vec<_> = lazy
            .plan
            .edges
            .iter()
            .filter(|(id, _)| lazy.plan.edge_inserts[id.index()].contains(idx))
            .map(|(_, e)| e)
            .collect();
        assert_eq!(inserted.len(), 1);
        assert_eq!((inserted[0].from, inserted[0].to), (f.entry(), body));
        assert!(lazy.delete[body.index()].contains(idx));

        let result = apply_plan(&f, &uni, &local, &lazy.plan);
        lcm_ir::verify(&result.function).unwrap();
        // The loop body no longer computes a + b.
        let g = &result.function;
        let gbody = g.block_by_name("body").unwrap();
        assert!(g.block(gbody).exprs().all(|e| g.display_expr(e) != "a + b"));
    }

    #[test]
    fn fully_redundant_expression_needs_no_insertion() {
        // The second block's occurrence is fully redundant; LCM deletes it
        // with zero insertions (the first occurrence feeds the temp).
        // (A repeat *within* one block is LCSE's job, not LCM's — the paper
        // assumes local common-subexpression elimination has already run.)
        let (f, uni, local, _ga, lazy) = run("fn s {
             entry:
               x = a + b
               jmp next
             next:
               y = a + b
               obs y
               ret
             }");
        assert_eq!(lazy.plan.num_insertions(), 0);
        let result = apply_plan(&f, &uni, &local, &lazy.plan);
        let g = &result.function;
        assert_eq!(g.expr_occurrences().count(), 1);
        assert_eq!(result.stats.retained_defs, 1);
        assert_eq!(result.stats.deletions, 1);
    }

    #[test]
    fn isolated_computation_left_untouched() {
        // A single occurrence with no redundancy anywhere: the lazy plan
        // inserts nothing, deletes nothing, and the rewriter leaves the
        // instruction exactly as written (no pointless temp).
        let (f, uni, local, _ga, lazy) = run("fn iso {
             entry:
               x = a + b
               obs x
               ret
             }");
        assert_eq!(lazy.plan.num_insertions(), 0);
        let result = apply_plan(&f, &uni, &local, &lazy.plan);
        assert_eq!(result.stats.retained_defs, 0);
        assert_eq!(result.stats.deletions, 0);
        assert_eq!(result.function.to_string(), f.to_string());
    }
}
