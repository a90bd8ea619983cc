//! Lazy Code Motion, node-insertion formulation — the original PLDI'92
//! presentation, lifted from statement nodes to basic blocks.
//!
//! The paper inserts initialisations *before nodes* of a flow graph without
//! critical edges. Lifting statement nodes to basic blocks means every
//! block has **two** insertion points — its entry (`N`) and its exit (`X`)
//! — so each predicate of the paper's cascade comes in an entry/exit pair
//! (this is the block form the authors give in the companion TOPLAS'94
//! paper, and the shape of the Drechsler–Stadel variation):
//!
//! ```text
//! N-EARLIEST[b] = ANTIN[b]  ∩ (b = entry ∪ ⋃_p (¬AVOUT[p] ∩ ¬ANTOUT[p]))
//! X-EARLIEST[b] = ANTOUT[b] ∩ ¬AVOUT[b] ∩ (¬TRANSP[b] ∪ ¬ANTIN[b])
//!
//! N-DELAY[b] = N-EARLIEST[b] ∪ (b ≠ entry ∩ ⋂_p X-DELAY[p])
//! X-DELAY[b] = X-EARLIEST[b] ∪ (N-DELAY[b] − ANTLOC[b])
//!
//! N-LATEST[b] = N-DELAY[b] ∩ ANTLOC[b]
//! X-LATEST[b] = X-DELAY[b] ∩ ¬⋂_{s∈succ} N-DELAY[s]
//!
//! X-ISOLATED[b] = ⋂_{s∈succ} ( N-LATEST[s]
//!                   ∪ (¬ANTLOC[s] ∩ (¬TRANSP[s] ∪ X-LATEST[s] ∪ X-ISOLATED[s])) )
//! N-ISOLATED[b] = ¬TRANSP[b] ∪ X-LATEST[b] ∪ X-ISOLATED[b]
//!
//! N-INSERT[b] = N-LATEST[b] ∩ ¬N-ISOLATED[b]
//! X-INSERT[b] = X-LATEST[b] ∩ ¬X-ISOLATED[b]
//! ```
//!
//! Reading guide: *earliest* marks the safe points a busy transformation
//! would use; *delay* postpones them down every path until a use
//! (`ANTLOC`) or a merge that is not pending on all other inflows; *latest*
//! is where postponement must stop; *isolated* prunes insertions whose
//! value could only feed the single occurrence directly at them (or
//! nothing) — motion that gains no computation and only lengthens a live
//! range. Inserting `t := e` directly before a block whose occurrence of
//! `e` is upward-exposed does not recompute anything: the shared rewriter
//! turns the pair into the retained-definition form `t := e; v := t`.
//!
//! The node and edge formulations eliminate exactly the same dynamic
//! computations (property-tested); the placements differ only in
//! representation (block entry/exit vs. edge).

use lcm_dataflow::{BitSet, CfgView, SolveStats, SolveStrategy, SolverDiverged, SolverScratch};
use lcm_ir::{graph, Function};

use crate::analyses::GlobalAnalyses;
use crate::predicates::LocalPredicates;
use crate::transform::PlacementPlan;
use crate::universe::ExprUniverse;

/// All node-formulation predicate tables (exposed for the paper's figures)
/// plus the resulting placement plan.
#[derive(Clone, Debug)]
pub struct LazyNodeResult {
    /// The function the plan applies to: `f` with critical edges split.
    pub function: Function,
    /// Universe of the (unchanged) candidate expressions.
    pub universe: ExprUniverse,
    /// Local predicates of the split function.
    pub local: LocalPredicates,
    /// `N-EARLIEST[b]` / `X-EARLIEST[b]`.
    pub earliest: Vec<(BitSet, BitSet)>,
    /// `N-DELAY[b]` / `X-DELAY[b]`.
    pub delay: Vec<(BitSet, BitSet)>,
    /// `N-LATEST[b]` / `X-LATEST[b]`.
    pub latest: Vec<(BitSet, BitSet)>,
    /// `N-ISOLATED[b]` / `X-ISOLATED[b]`.
    pub isolated: Vec<(BitSet, BitSet)>,
    /// The final placement (block-top and block-bottom insertions).
    pub plan: PlacementPlan,
    /// Number of critical edges that were split.
    pub edges_split: usize,
    /// Cost counters of the DELAY fixpoint sweep, in the same currency as
    /// the framework solver's [`SolveStats`].
    pub delay_stats: SolveStats,
    /// Cost counters of the ISOLATED fixpoint sweep.
    pub isolated_stats: SolveStats,
}

/// Runs the node-insertion LCM cascade on (a critical-edge-split clone of)
/// `f`. With `with_isolation` false the ISOLATED pruning is skipped — the
/// paper's "ALCM" ablation, still computationally optimal but littering
/// count-neutral insertions.
///
/// The hand-rolled DELAY and ISOLATED greatest fixpoints strictly shrink
/// their tracked bit tables on every accepted sweep, so a lattice-height
/// sweep bound (`bits + 2`) detects corrupted, non-converging predicate
/// tables as [`SolverDiverged`] instead of spinning.
pub fn lazy_node_plan(
    f: &Function,
    with_isolation: bool,
) -> Result<LazyNodeResult, SolverDiverged> {
    let mut split = f.clone();
    let outcome = graph::split_critical_edges(&mut split);
    let universe = ExprUniverse::of(&split);
    let local = LocalPredicates::compute(&split, &universe);
    // One shared view: orderings and adjacency for the framework solves
    // (inside `compute_with`) and for the hand-rolled DELAY/ISOLATED sweeps.
    let view = CfgView::new(&split);
    let ga = GlobalAnalyses::compute_with(
        &split,
        &universe,
        &local,
        &view,
        SolveStrategy::SccPriority,
        &mut SolverScratch::new(),
    )?;
    let n = split.num_blocks();
    let entry = split.entry();
    let words = universe.len().div_ceil(64) as u64;

    // EARLIEST.
    let mut earliest: Vec<(BitSet, BitSet)> = Vec::with_capacity(n);
    for b in split.block_ids() {
        let bi = b.index();
        let n_e = {
            let mut cond = universe.empty_set();
            if b == entry {
                cond = universe.full_set();
            } else {
                for &p in view.preds(b) {
                    // ¬AVOUT[p] ∩ ¬ANTOUT[p]
                    let pi = p.index();
                    let mut c = ga.avail.outs.row_set(pi);
                    c.union_with_row(ga.antic.outs.row(pi));
                    c.complement();
                    cond.union_with(&c);
                }
            }
            let mut e = ga.antic.ins.row_set(bi);
            e.intersect_with(&cond);
            e
        };
        let x_e = {
            // ANTOUT ∩ ¬AVOUT ∩ ¬(TRANSP ∩ ANTIN)
            let mut blockable = local.transp[bi].clone();
            blockable.intersect_with_row(ga.antic.ins.row(bi));
            blockable.union_with_row(ga.avail.outs.row(bi));
            blockable.complement();
            let mut e = ga.antic.outs.row_set(bi);
            e.intersect_with(&blockable);
            e
        };
        earliest.push((n_e, x_e));
    }

    // DELAY (mutual N/X fixpoint, greatest solution, forward sweeps).
    let delay_bound = 2 * n * universe.len() + 2;
    let mut delay_stats = SolveStats::new();
    let mut delay: Vec<(BitSet, BitSet)> = vec![(universe.full_set(), universe.full_set()); n];
    delay[entry.index()].0 = earliest[entry.index()].0.clone();
    loop {
        if delay_stats.iterations >= delay_bound {
            return Err(SolverDiverged {
                analysis: "lcm-node-delay",
                sweeps: delay_bound,
            });
        }
        delay_stats.iterations += 1;
        let mut changed = false;
        for &b in view.rpo() {
            delay_stats.node_visits += 1;
            let bi = b.index();
            if b != entry {
                let mut acc = universe.full_set();
                for &p in view.preds(b) {
                    acc.intersect_with(&delay[p.index()].1);
                    delay_stats.word_ops += words;
                }
                acc.union_with(&earliest[bi].0);
                delay_stats.word_ops += 2 * words; // union + compare
                if acc != delay[bi].0 {
                    delay[bi].0 = acc;
                    changed = true;
                }
            }
            let mut x = delay[bi].0.clone();
            x.difference_with(&local.antloc[bi]);
            x.union_with(&earliest[bi].1);
            delay_stats.word_ops += 3 * words; // difference + union + compare
            if x != delay[bi].1 {
                delay[bi].1 = x;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // LATEST.
    let mut latest: Vec<(BitSet, BitSet)> = Vec::with_capacity(n);
    for b in split.block_ids() {
        let bi = b.index();
        let mut n_l = delay[bi].0.clone();
        n_l.intersect_with(&local.antloc[bi]);
        let mut all_succs = universe.full_set();
        for &s in view.succs(b) {
            all_succs.intersect_with(&delay[s.index()].0);
        }
        all_succs.complement();
        let mut x_l = delay[bi].1.clone();
        x_l.intersect_with(&all_succs);
        latest.push((n_l, x_l));
    }

    // ISOLATED (backward greatest fixpoint for the X side; N side derived).
    let isolated_bound = n * universe.len() + 2;
    let mut isolated_stats = SolveStats::new();
    let mut x_iso = vec![universe.full_set(); n];
    loop {
        if isolated_stats.iterations >= isolated_bound {
            return Err(SolverDiverged {
                analysis: "lcm-node-isolated",
                sweeps: isolated_bound,
            });
        }
        isolated_stats.iterations += 1;
        let mut changed = false;
        for &b in view.postorder() {
            isolated_stats.node_visits += 1;
            let bi = b.index();
            let mut acc = universe.full_set();
            for &s in view.succs(b) {
                let si = s.index();
                // ¬ANTLOC[s] ∩ (¬TRANSP[s] ∪ X-LATEST[s] ∪ X-ISO[s])
                let mut through = local.transp[si].clone();
                through.complement();
                through.union_with(&latest[si].1);
                through.union_with(&x_iso[si]);
                through.difference_with(&local.antloc[si]);
                // ∪ N-LATEST[s]
                through.union_with(&latest[si].0);
                acc.intersect_with(&through);
                isolated_stats.word_ops += 6 * words;
            }
            isolated_stats.word_ops += words; // compare
            if acc != x_iso[bi] {
                x_iso[bi] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let isolated: Vec<(BitSet, BitSet)> = split
        .block_ids()
        .map(|b| {
            let bi = b.index();
            // N-ISOLATED = ¬TRANSP ∪ X-LATEST ∪ X-ISOLATED
            let mut n_iso = local.transp[bi].clone();
            n_iso.complement();
            n_iso.union_with(&latest[bi].1);
            n_iso.union_with(&x_iso[bi]);
            (n_iso, x_iso[bi].clone())
        })
        .collect();

    // INSERT.
    let algorithm = if with_isolation {
        "lcm-node"
    } else {
        "alcm-node"
    };
    let mut plan = PlacementPlan::empty(algorithm, &split, &universe);
    for b in split.block_ids() {
        let bi = b.index();
        let mut top = latest[bi].0.clone();
        let mut bottom = latest[bi].1.clone();
        if with_isolation {
            let mut keep_n = isolated[bi].0.clone();
            keep_n.complement();
            top.intersect_with(&keep_n);
            let mut keep_x = isolated[bi].1.clone();
            keep_x.complement();
            bottom.intersect_with(&keep_x);
        }
        plan.block_top_inserts[bi] = top;
        plan.block_bottom_inserts[bi] = bottom;
    }

    Ok(LazyNodeResult {
        function: split,
        universe,
        local,
        earliest,
        delay,
        latest,
        isolated,
        plan,
        edges_split: outcome.len(),
        delay_stats,
        isolated_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::apply_plan;
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
    fn node_lcm_covers_both_arms() {
        let f = parse_function(DIAMOND).unwrap();
        let res = lazy_node_plan(&f, true).unwrap();
        let g = &res.function;
        let l = g.block_by_name("l").unwrap();
        let r = g.block_by_name("r").unwrap();
        let join = g.block_by_name("join").unwrap();
        // Delay floods both arms from the entry; it stops at l's use (entry
        // side) and at the r→join boundary (exit side).
        assert!(res.latest[l.index()].0.contains(0));
        assert!(res.latest[r.index()].1.contains(0));
        assert!(!res.latest[join.index()].0.contains(0));
        assert!(res.plan.block_top_inserts[l.index()].contains(0));
        assert!(res.plan.block_bottom_inserts[r.index()].contains(0));
        // Rewriting yields one computation per path and none at the join.
        let result = apply_plan(g, &res.universe, &res.local, &res.plan);
        lcm_ir::verify(&result.function).unwrap();
        let t = &result.function;
        let count = |name: &str| {
            let b = t.block_by_name(name).unwrap();
            t.block(b)
                .exprs()
                .filter(|e| t.display_expr(*e) == "a + b")
                .count()
        };
        assert_eq!(count("l"), 1);
        assert_eq!(count("r"), 1);
        assert_eq!(count("join"), 0);
    }

    #[test]
    fn exit_insertion_lands_after_an_in_block_kill() {
        // p kills c and a redundant use follows in m; the only optimal
        // placement is at p's *exit* — unreachable for a top-only
        // formulation, which is why the block form needs X-insertions.
        let f = parse_function(
            "fn x {
             entry:
               d = a < c
               br e, m, p
             p:
               c = a < c
               obs c
               jmp m
             m:
               f = a < c
               obs f
               ret
             }",
        )
        .unwrap();
        let res = lazy_node_plan(&f, true).unwrap();
        let g = &res.function;
        let idx = res
            .universe
            .iter()
            .find(|(_, e)| g.display_expr(*e) == "a < c")
            .map(|(i, _)| i)
            .unwrap();
        let p = g.block_by_name("p").unwrap();
        let m = g.block_by_name("m").unwrap();
        assert!(res.earliest[p.index()].1.contains(idx), "X-EARLIEST at p");
        assert!(res.plan.block_bottom_inserts[p.index()].contains(idx));
        assert!(!res.plan.block_top_inserts[m.index()].contains(idx));
        let result = apply_plan(g, &res.universe, &res.local, &res.plan);
        lcm_ir::verify(&result.function).unwrap();
        // m no longer computes a < c.
        let t = &result.function;
        let tm = t.block_by_name("m").unwrap();
        assert!(t.block(tm).exprs().all(|e| t.display_expr(e) != "a < c"));
    }

    #[test]
    fn isolation_prunes_useless_insertions() {
        // A lone computation with no redundancy: ALCM still inserts in
        // front of it (useless motion); isolation suppresses that.
        let f = parse_function(
            "fn iso {
             entry:
               jmp work
             work:
               x = a + b
               obs x
               ret
             }",
        )
        .unwrap();
        let with = lazy_node_plan(&f, true).unwrap();
        assert_eq!(with.plan.num_insertions(), 0);
        let without = lazy_node_plan(&f, false).unwrap();
        assert_eq!(without.plan.num_insertions(), 1, "ALCM inserts blindly");
        // Even under ALCM the rewriter produces a correct program.
        let r = apply_plan(
            &without.function,
            &without.universe,
            &without.local,
            &without.plan,
        );
        lcm_ir::verify(&r.function).unwrap();
    }

    #[test]
    fn splits_critical_edges_first() {
        let f = parse_function(
            "fn l {
             entry:
               jmp head
             head:
               br c, body, done
             body:
               x = a + b
               br d, head, done
             done:
               obs x
               ret
             }",
        )
        .unwrap();
        let res = lazy_node_plan(&f, true).unwrap();
        assert!(res.edges_split > 0);
        assert!(lcm_ir::graph::critical_edges(&res.function).is_empty());
        lcm_ir::verify(&res.function).unwrap();
    }

    #[test]
    fn isolation_suppresses_insertion_into_a_killing_block() {
        // Both arms empty, so delay reaches the join, whose occurrence is
        // followed by a kill and a later recomputation: the insertion in
        // front of the join would feed exactly one occurrence —
        // count-neutral motion the isolation pruning rejects.
        let f = parse_function(
            "fn k2 {
             entry:
               br c, l, r
             l:
               jmp join
             r:
               jmp join
             join:
               y = a + b
               a = 1
               jmp after
             after:
               z = a + b
               obs z
               ret
             }",
        )
        .unwrap();
        let res = lazy_node_plan(&f, true).unwrap();
        let g = &res.function;
        let join = g.block_by_name("join").unwrap();
        let idx = res
            .universe
            .iter()
            .find(|(_, e)| g.display_expr(*e) == "a + b")
            .map(|(i, _)| i)
            .unwrap();
        assert!(res.latest[join.index()].0.contains(idx));
        assert!(res.isolated[join.index()].0.contains(idx));
        assert!(!res.plan.block_top_inserts[join.index()].contains(idx));
        // ALCM (no isolation) would insert there.
        let alcm = lazy_node_plan(&f, false).unwrap();
        let ajoin = alcm.function.block_by_name("join").unwrap();
        assert!(alcm.plan.block_top_inserts[ajoin.index()].contains(idx));
    }
}
