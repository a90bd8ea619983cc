//! Profile-guided **speculative** PRE as a minimum cut.
//!
//! Lazy code motion is the best transformation that never adds an
//! evaluation to *any* path. With an edge profile in hand, a compiler can
//! do better: insert a side-effect-free expression on cheap (cold) points
//! even when some path through them never needed the value, as long as the
//! inserted evaluations cost less execution frequency than the redundant
//! evaluations they remove. This module implements that trade as a minimum
//! s–t cut, per expression, over the *unavailability network* of the CFG:
//!
//! * unavailability **originates** at the function entry (`s → in(entry)`)
//!   and below every block that kills the expression without recomputing
//!   it (`s → out(b)`, capacity = the block's execution count);
//! * it **propagates** through transparent blocks that do not compute the
//!   expression (`in(b) → out(b)`, infinite capacity) and along CFG edges
//!   (`out(i) → in(j)`, capacity = the edge's profile weight);
//! * it is **absorbed** by blocks with a downward-exposed computation (no
//!   out-edge at all — the existing occurrence re-establishes the value);
//! * every upward-exposed use is a **demand** (`in(b) → t`, capacity = the
//!   block's execution count).
//!
//! A finite-capacity edge crossing the min cut is a placement decision:
//! `s → in(entry)` cut means "insert at the virtual entry edge",
//! `s → out(b)` means "insert at the bottom of `b`", `out(i) → in(j)`
//! means "insert on the CFG edge", and a cut `in(b) → t` edge means "leave
//! that use computing in place". By max-flow/min-cut the chosen placement
//! has the least possible weighted evaluation count, and by construction
//! every use on the sink side of the cut is covered by insertions on all
//! incoming paths — exactly the must-availability the shared rewriter
//! ([`apply_plan`](crate::transform::apply_plan)) recomputes when it
//! derives deletions, so the cost model and the transformation agree.
//!
//! Safety is restored by a side condition instead of down-safety: only
//! expressions that are [`side_effect_free`](lcm_ir::Expr::side_effect_free)
//! may be speculated (divisions can fault on a real target and are
//! excluded), and the plan for each expression is adopted only when its
//! cut is **strictly** cheaper than lazy code motion's weighted cost —
//! ties keep the LCM placement bit-for-bit, so a degenerate (all-zero)
//! profile reproduces LCM exactly.

use lcm_ir::{EdgeId, EdgeList, Function, Profile, ProfileError};

use crate::analyses::GlobalAnalyses;
use crate::lcm_edge::LazyEdgeResult;
use crate::mincut::{FlowNetwork, INF};
use crate::predicates::LocalPredicates;
use crate::universe::ExprUniverse;

/// An edge profile resolved against a function's dense edge numbering.
///
/// `edges[i]` is the execution count of edge `EdgeId(i)` (the order of
/// [`EdgeList::new`]); `entry` is the invocation count of the function —
/// how often the virtual entry edge fires.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EdgeWeights {
    /// Execution count per CFG edge, indexed by dense [`EdgeId`].
    pub edges: Vec<u64>,
    /// Function invocation count (executions of the virtual entry edge).
    pub entry: u64,
}

impl EdgeWeights {
    /// Resolves `p` against `f`. The invocation count is recovered from
    /// flow conservation: the entry block has no predecessors, so its
    /// outgoing flow *is* the invocation count (1 for an edgeless,
    /// single-block function).
    ///
    /// # Errors
    ///
    /// Propagates [`Profile::resolve`]'s structural errors.
    pub fn from_profile(f: &Function, p: &Profile) -> Result<EdgeWeights, ProfileError> {
        let weights = p.resolve(f)?;
        let edges = EdgeList::new(f);
        let out = edges.outgoing(f.entry());
        let entry = if out.is_empty() {
            1
        } else {
            out.iter()
                .fold(0u64, |a, id| a.saturating_add(weights[id.index()]))
        };
        Ok(EdgeWeights {
            edges: weights,
            entry,
        })
    }

    /// Unit weights: every edge (and the entry) counts 1. The profile-free
    /// default; it values all paths equally, so speculation only fires
    /// where it is a pure static win.
    pub fn unit(f: &Function) -> EdgeWeights {
        EdgeWeights {
            edges: vec![1; EdgeList::new(f).len()],
            entry: 1,
        }
    }

    /// Execution count of every block implied by the edge weights:
    /// incoming flow (plus the invocation count at the entry block), maxed
    /// with outgoing flow so non-conserving (corrupted) weights still give
    /// a usable upper bound rather than undercounting a block.
    pub fn block_weights(&self, f: &Function, edges: &EdgeList) -> Vec<u64> {
        assert_eq!(
            self.edges.len(),
            edges.len(),
            "edge weights are stale for this function"
        );
        let sum = |ids: &[EdgeId]| {
            ids.iter()
                .fold(0u64, |a, id| a.saturating_add(self.edges[id.index()]))
        };
        f.block_ids()
            .map(|b| {
                let mut inc = sum(edges.incoming(b));
                if b == f.entry() {
                    inc = inc.saturating_add(self.entry);
                }
                inc.max(sum(edges.outgoing(b)))
            })
            .collect()
    }
}

/// What the speculative planner decided, summed over all expressions.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SpecStats {
    /// Side-effect-free expressions with a nonzero LCM weighted cost — the
    /// ones for which a network was built and solved.
    pub candidates: usize,
    /// Candidates whose cut was strictly cheaper than LCM and whose
    /// placement was therefore replaced.
    pub speculated: usize,
    /// Summed weighted evaluation cost of the LCM placement over the
    /// candidates (insertion weights plus uncovered-use weights).
    pub lcm_weighted_cost: u64,
    /// Ditto for the adopted placement (the cut where speculated, the LCM
    /// cost where kept). Never exceeds `lcm_weighted_cost`.
    pub spec_weighted_cost: u64,
}

/// Merging, for aggregating many functions' decisions (the batch driver).
impl std::ops::AddAssign for SpecStats {
    fn add_assign(&mut self, rhs: SpecStats) {
        self.candidates += rhs.candidates;
        self.speculated += rhs.speculated;
        self.lcm_weighted_cost = self.lcm_weighted_cost.saturating_add(rhs.lcm_weighted_cost);
        self.spec_weighted_cost = self
            .spec_weighted_cost
            .saturating_add(rhs.spec_weighted_cost);
    }
}

/// The speculative placement: a [`PlacementPlan`](crate::PlacementPlan)
/// tagged `"spec"` plus the planner's accounting.
#[derive(Clone, Debug)]
pub struct SpecResult {
    /// The adopted plan. For non-speculated expressions it is bit-for-bit
    /// the LCM plan it was derived from.
    pub plan: crate::transform::PlacementPlan,
    /// Decision counters and weighted costs.
    pub stats: SpecStats,
}

/// Computes the speculative placement for `f`, starting from the LCM
/// result `lazy` and the profile `w`.
///
/// Every expression keeps its LCM placement unless it is side-effect-free
/// *and* the minimum cut of its unavailability network is strictly cheaper
/// under `w` — so the result under an all-zero profile equals the LCM plan
/// exactly, and under an exact profile its weighted evaluation count never
/// exceeds LCM's.
pub fn speculative_plan(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
    lazy: &LazyEdgeResult,
    w: &EdgeWeights,
) -> SpecResult {
    let edges = &ga.edges;
    let wblock = w.block_weights(f, edges);
    let nb = f.num_blocks();

    let mut plan = lazy.plan.clone();
    plan.algorithm = "spec";
    let mut stats = SpecStats::default();

    for (idx, expr) in uni.iter() {
        if !expr.side_effect_free() {
            continue;
        }
        // Weighted evaluation cost of the LCM placement for this
        // expression: its insertions, plus every upward-exposed use it
        // does not delete.
        let mut lcm_cost = 0u64;
        for (eid, _) in edges.iter() {
            if lazy.plan.edge_inserts[eid.index()].contains(idx) {
                lcm_cost = lcm_cost.saturating_add(w.edges[eid.index()]);
            }
        }
        if lazy.plan.entry_insert.contains(idx) {
            lcm_cost = lcm_cost.saturating_add(w.entry);
        }
        for b in f.block_ids() {
            let bi = b.index();
            if local.antloc[bi].contains(idx) && !lazy.delete[bi].contains(idx) {
                lcm_cost = lcm_cost.saturating_add(wblock[bi]);
            }
        }
        if lcm_cost == 0 {
            // No insertions and every use already covered: a cut (≥ 0)
            // cannot strictly improve on it.
            continue;
        }
        stats.candidates += 1;
        stats.lcm_weighted_cost = stats.lcm_weighted_cost.saturating_add(lcm_cost);

        // Unavailability network (module docs): node 2b = block entry,
        // node 2b+1 = block exit.
        let (s, t) = (2 * nb, 2 * nb + 1);
        let mut net = FlowNetwork::new(2 * nb + 2);
        let entry_edge = net.add_edge(s, 2 * f.entry().index(), wblock[f.entry().index()]);
        let mut origin = vec![usize::MAX; nb];
        for b in f.block_ids() {
            let bi = b.index();
            let transp = local.transp[bi].contains(idx);
            let comp = local.comp[bi].contains(idx);
            if local.antloc[bi].contains(idx) {
                net.add_edge(2 * bi, t, wblock[bi]);
            }
            if comp {
                // Downward-exposed computation: the exit is covered by the
                // existing occurrence, nothing flows out of this block.
            } else if transp {
                net.add_edge(2 * bi, 2 * bi + 1, INF);
            } else {
                origin[bi] = net.add_edge(s, 2 * bi + 1, wblock[bi]);
            }
        }
        let mut cfg_edge = vec![usize::MAX; edges.len()];
        for (eid, edge) in edges.iter() {
            cfg_edge[eid.index()] = net.add_edge(
                2 * edge.from.index() + 1,
                2 * edge.to.index(),
                w.edges[eid.index()],
            );
        }

        let cut_value = net.max_flow(s, t);
        if cut_value >= lcm_cost {
            // Ties keep LCM: its placement needs no speculation-safety
            // argument and is lifetime optimal.
            stats.spec_weighted_cost = stats.spec_weighted_cost.saturating_add(lcm_cost);
            continue;
        }
        stats.speculated += 1;
        stats.spec_weighted_cost = stats.spec_weighted_cost.saturating_add(cut_value);

        // Replace this expression's LCM placement with the cut.
        let reach = net.min_cut(s);
        plan.entry_insert.remove(idx);
        for set in plan
            .edge_inserts
            .iter_mut()
            .chain(plan.block_bottom_inserts.iter_mut())
        {
            set.remove(idx);
        }
        if net.in_cut(entry_edge, &reach) {
            plan.entry_insert.insert(idx);
        }
        for (bi, &e) in origin.iter().enumerate() {
            if e != usize::MAX && net.in_cut(e, &reach) {
                plan.block_bottom_inserts[bi].insert(idx);
            }
        }
        for (ei, &e) in cfg_edge.iter().enumerate() {
            if net.in_cut(e, &reach) {
                plan.edge_inserts[ei].insert(idx);
            }
        }
    }

    SpecResult { plan, stats }
}

/// Convenience: [`EdgeWeights`] from an optional profile, falling back to
/// [`EdgeWeights::unit`] when absent or structurally invalid for `f`.
pub fn weights_or_unit(f: &Function, profile: Option<&Profile>) -> EdgeWeights {
    profile
        .and_then(|p| EdgeWeights::from_profile(f, p).ok())
        .unwrap_or_else(|| EdgeWeights::unit(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcm_with;
    use lcm_dataflow::{SolveStrategy, SolverScratch};
    use lcm_ir::parse_function;

    /// A loop whose body computes `a + b` only under a guard: the
    /// expression is not down-safe anywhere above the guard, so LCM must
    /// leave it in place, re-evaluating every hot iteration. Speculation
    /// hoists it to the (cold) entry.
    const GUARDED: &str = "fn g {
        entry:
          jmp head
        head:
          br p, body, done
        body:
          br q, compute, skip
        compute:
          x = a + b
          obs x
          jmp latch
        skip:
          jmp latch
        latch:
          jmp head
        done:
          ret
        }";

    /// One invocation, nine iterations, guard taken six times. Dense edge
    /// order: entry→head, head→body, head→done, body→compute, body→skip,
    /// compute→latch, skip→latch, latch→head.
    const GUARDED_WEIGHTS: [u64; 8] = [1, 9, 1, 6, 3, 6, 3, 9];

    fn pipeline(f: &lcm_ir::Function) -> crate::LcmPipeline {
        lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new()).unwrap()
    }

    #[test]
    fn hot_guarded_use_is_hoisted_to_the_cold_entry() {
        let f = parse_function(GUARDED).unwrap();
        let p = pipeline(&f);
        let profile = Profile::from_weights(&f, &GUARDED_WEIGHTS);
        let w = EdgeWeights::from_profile(&f, &profile).unwrap();
        assert_eq!(w.entry, 1);

        // `a + b` is the only candidate expression.
        assert_eq!(p.universe.len(), 1);
        let idx = 0;
        // LCM leaves the use alone (no insertions anywhere).
        assert_eq!(p.lazy.plan.num_insertions(), 0);

        let spec = speculative_plan(&f, &p.universe, &p.local, &p.analyses, &p.lazy, &w);
        assert_eq!(spec.plan.algorithm, "spec");
        assert_eq!(spec.stats.candidates, 1);
        assert_eq!(spec.stats.speculated, 1);
        // LCM pays the use every guarded iteration; the cut pays one
        // entry insertion.
        assert_eq!(spec.stats.lcm_weighted_cost, 6);
        assert_eq!(spec.stats.spec_weighted_cost, 1);
        assert!(spec.plan.entry_insert.contains(idx));
        assert!(spec.plan.edge_inserts.iter().all(|s| !s.contains(idx)));
        assert!(spec
            .plan
            .block_bottom_inserts
            .iter()
            .all(|s| !s.contains(idx)));
    }

    #[test]
    fn zero_profile_reproduces_lcm_bit_for_bit() {
        let f = parse_function(GUARDED).unwrap();
        let p = pipeline(&f);
        let w = EdgeWeights::from_profile(&f, &Profile::from_weights(&f, &[0; 8])).unwrap();
        let spec = speculative_plan(&f, &p.universe, &p.local, &p.analyses, &p.lazy, &w);
        assert_eq!(spec.stats.speculated, 0);
        assert_eq!(spec.plan.entry_insert, p.lazy.plan.entry_insert);
        assert_eq!(spec.plan.edge_inserts, p.lazy.plan.edge_inserts);
        assert_eq!(
            spec.plan.block_bottom_inserts,
            p.lazy.plan.block_bottom_inserts
        );
    }

    #[test]
    fn faultable_expressions_are_never_speculated() {
        let src = GUARDED.replace("a + b", "a / b");
        let f = parse_function(&src).unwrap();
        let p = pipeline(&f);
        let profile = Profile::from_weights(&f, &GUARDED_WEIGHTS);
        let w = EdgeWeights::from_profile(&f, &profile).unwrap();
        let spec = speculative_plan(&f, &p.universe, &p.local, &p.analyses, &p.lazy, &w);
        // `a / b` may fault on a real target: not even a candidate.
        assert_eq!(spec.stats.candidates, 0);
        assert_eq!(spec.stats.speculated, 0);
        assert_eq!(spec.plan.entry_insert, p.lazy.plan.entry_insert);
        assert_eq!(spec.plan.edge_inserts, p.lazy.plan.edge_inserts);
    }

    #[test]
    fn kills_reoriginate_unavailability_below_the_killing_block() {
        // The loop body redefines `a`, so an entry insertion cannot cover
        // the use: the only valid cheap cut is below the kill.
        let f = parse_function(
            "fn k {
             entry:
               jmp head
             head:
               br p, body, done
             body:
               a = a + 1
               x = a * b
               obs x
               jmp head
             done:
               ret
             }",
        )
        .unwrap();
        let p = pipeline(&f);
        // entry→head: 1, head→body: 9, head→done: 1, body→head: 9.
        let profile = Profile::from_weights(&f, &[1, 9, 1, 9]);
        let w = EdgeWeights::from_profile(&f, &profile).unwrap();
        let spec = speculative_plan(&f, &p.universe, &p.local, &p.analyses, &p.lazy, &w);
        let (idx, _) = p
            .universe
            .iter()
            .find(|(_, e)| matches!(e, lcm_ir::Expr::Bin(lcm_ir::BinOp::Mul, _, _)))
            .unwrap();
        // `a * b` is killed and recomputed in the same block every
        // iteration: no placement can beat evaluating at the use, and the
        // use itself costs exactly what LCM pays. Nothing is adopted.
        assert_eq!(spec.stats.speculated, 0);
        assert!(!spec.plan.entry_insert.contains(idx));
    }

    #[test]
    fn unit_weights_are_a_safe_default() {
        let f = parse_function(GUARDED).unwrap();
        let w = EdgeWeights::unit(&f);
        assert_eq!(w.entry, 1);
        assert_eq!(w.edges, vec![1; 8]);
        assert_eq!(weights_or_unit(&f, None), w);
        // An inconsistent profile also falls back to unit.
        let bad = Profile::from_weights(&f, &[5, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(weights_or_unit(&f, Some(&bad)), w);
        let good = Profile::from_weights(&f, &GUARDED_WEIGHTS);
        assert_ne!(weights_or_unit(&f, Some(&good)), w);
    }
}
