//! Cached CFG orderings and adjacency, shared across analyses.

use lcm_ir::{graph, BlockId, Function};

/// Precomputed traversal orders and adjacency for one function's CFG.
///
/// Every dataflow solve needs a depth-first ordering and the predecessor /
/// successor lists; the four analyses of lazy code motion run over the
/// *same* CFG, so recomputing them per solve (as
/// [`Problem::solve`](crate::Problem::solve) does when called standalone) is
/// pure waste. Build a `CfgView` once per function and pass it to
/// [`Problem::solve_with`](crate::Problem::solve_with).
///
/// The view is a snapshot: it must not be used after the function's CFG is
/// mutated (block count and edges are what matter; instruction edits within
/// blocks are fine).
///
/// ```
/// use lcm_dataflow::CfgView;
/// use lcm_ir::parse_function;
///
/// let f = parse_function(
///     "fn g {
///      entry:
///        jmp b
///      b:
///        ret
///      }",
/// )?;
/// let view = CfgView::new(&f);
/// assert_eq!(view.rpo().first(), Some(&f.entry()));
/// assert_eq!(view.preds(f.exit()), &[f.entry()]);
/// assert_eq!(view.succs(f.entry()), &[f.exit()]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CfgView {
    rpo: Vec<BlockId>,
    postorder: Vec<BlockId>,
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    num_blocks: usize,
    num_edges: usize,
    retreating_edges: usize,
    /// Topological SCC id per block (`u32::MAX` for unreachable blocks).
    scc_of: Vec<u32>,
    /// Reachable blocks grouped by SCC in topological order of the
    /// condensation; within each SCC, blocks are in RPO. `scc_starts[s]..
    /// scc_starts[s + 1]` indexes `scc_blocks` for SCC `s`.
    scc_blocks: Vec<BlockId>,
    scc_starts: Vec<u32>,
}

impl CfgView {
    /// Computes the orderings, adjacency tables and SCC condensation
    /// for `f`.
    pub fn new(f: &Function) -> Self {
        let postorder = graph::postorder(f);
        let mut rpo = postorder.clone();
        rpo.reverse();
        let succs: Vec<Vec<BlockId>> = f.block_ids().map(|b| f.succs(b).collect()).collect();
        let mut pos = vec![usize::MAX; f.num_blocks()];
        for (i, &b) in rpo.iter().enumerate() {
            pos[b.index()] = i;
        }
        let mut num_edges = 0;
        let mut retreating_edges = 0;
        for &b in &rpo {
            for s in &succs[b.index()] {
                num_edges += 1;
                if pos[s.index()] <= pos[b.index()] {
                    retreating_edges += 1;
                }
            }
        }
        let (scc_of, scc_blocks, scc_starts) = condense_sccs(&rpo, &succs, f.num_blocks());
        CfgView {
            rpo,
            postorder,
            preds: f.preds(),
            succs,
            num_blocks: f.num_blocks(),
            num_edges,
            retreating_edges,
            scc_of,
            scc_blocks,
            scc_starts,
        }
    }

    /// Reverse postorder (the iteration order for forward problems).
    /// Unreachable blocks are absent.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Postorder (the iteration order for backward problems). Unreachable
    /// blocks are absent.
    pub fn postorder(&self) -> &[BlockId] {
        &self.postorder
    }

    /// The predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// The successors of `b` (with duplicates if both branch arms target
    /// the same block, mirroring [`Function::succs`]).
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// The number of blocks in the snapshotted function.
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// The number of CFG edges leaving reachable blocks.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The number of *retreating* edges — edges `u → v` with
    /// `rpo(v) ≤ rpo(u)` (back edges and self loops; for reducible graphs
    /// exactly the back edges). This upper-bounds the CFG's
    /// loop-connectedness `d`, so `d + 2` order-respecting sweeps — the
    /// Kam–Ullman convergence bound for rapid frameworks, which underlies
    /// the paper's "as cheap as unidirectional analyses" claim — is itself
    /// bounded by `retreating_edges() + 2`. The solvers use this to derive
    /// the sweep budget behind
    /// [`SolverDiverged`](crate::SolverDiverged).
    pub fn retreating_edges(&self) -> usize {
        self.retreating_edges
    }

    /// The number of strongly connected components among *reachable*
    /// blocks (the condensation's node count).
    pub fn num_sccs(&self) -> usize {
        self.scc_starts.len().saturating_sub(1)
    }

    /// The blocks of SCC `s` in RPO. SCC ids are topological: every edge
    /// of the condensation goes from a lower id to a strictly higher one,
    /// which is the loop-aware priority order the SCC worklist solver
    /// drains — each component reaches its local fixpoint before any
    /// component downstream of it is touched.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_sccs()`.
    pub fn scc_blocks(&self, s: usize) -> &[BlockId] {
        let lo = self.scc_starts[s] as usize;
        let hi = self.scc_starts[s + 1] as usize;
        &self.scc_blocks[lo..hi]
    }

    /// The topological SCC id of `b`, or `None` if `b` is unreachable.
    pub fn scc_of(&self, b: BlockId) -> Option<usize> {
        match self.scc_of[b.index()] {
            u32::MAX => None,
            s => Some(s as usize),
        }
    }

    /// Whether SCC `s` is a loop: more than one block, or a single block
    /// with a self edge.
    pub fn scc_is_loop(&self, s: usize) -> bool {
        let blocks = self.scc_blocks(s);
        match blocks {
            [b] => self.succs(*b).contains(b),
            _ => blocks.len() > 1,
        }
    }
}

/// One-shot iterative Tarjan over the reachable blocks, with component ids
/// remapped so they are *topological* (an edge `u → v` across components
/// has `scc_of(u) < scc_of(v)`). Tarjan completes components in reverse
/// topological order, so the remap is just `n_sccs - 1 - completion_rank`.
fn condense_sccs(
    rpo: &[BlockId],
    succs: &[Vec<BlockId>],
    num_blocks: usize,
) -> (Vec<u32>, Vec<BlockId>, Vec<u32>) {
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; num_blocks];
    let mut low = vec![0u32; num_blocks];
    let mut on_stack = vec![false; num_blocks];
    let mut scc_of = vec![UNSEEN; num_blocks];
    let mut stack: Vec<usize> = Vec::new();
    // Explicit call stack of (block index, next successor position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut completed = 0u32;

    for &root in rpo {
        if index[root.index()] != UNSEEN {
            continue;
        }
        frames.push((root.index(), 0));
        while let Some(&mut (v, ref mut next_succ)) = frames.last_mut() {
            if *next_succ == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(w) = succs[v].get(*next_succ).map(|b| b.index()) {
                *next_succ += 1;
                if index[w] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("Tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = completed;
                        if w == v {
                            break;
                        }
                    }
                    completed += 1;
                }
            }
        }
    }

    // Remap completion ranks (reverse topological) to topological ids and
    // bucket the blocks, visiting in RPO so each bucket ends up RPO-sorted.
    let n_sccs = completed as usize;
    for s in scc_of.iter_mut().filter(|s| **s != UNSEEN) {
        *s = completed - 1 - *s;
    }
    let mut counts = vec![0u32; n_sccs + 1];
    for &b in rpo {
        counts[scc_of[b.index()] as usize + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    let scc_starts = counts.clone();
    let mut scc_blocks = vec![rpo.first().copied().unwrap_or(BlockId::from_index(0)); rpo.len()];
    let mut fill = counts;
    for &b in rpo {
        let s = scc_of[b.index()] as usize;
        scc_blocks[fill[s] as usize] = b;
        fill[s] += 1;
    }
    (scc_of, scc_blocks, scc_starts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_ir::parse_function;

    #[test]
    fn matches_fresh_graph_computations() {
        let f = parse_function(
            "fn m {
             entry:
               br c, a, b
             a:
               br d, a, j
             b:
               jmp j
             j:
               ret
             }",
        )
        .unwrap();
        let view = CfgView::new(&f);
        assert_eq!(view.rpo(), graph::reverse_postorder(&f).as_slice());
        assert_eq!(view.postorder(), graph::postorder(&f).as_slice());
        let preds = f.preds();
        for b in f.block_ids() {
            assert_eq!(view.preds(b), preds[b.index()].as_slice());
            assert_eq!(view.succs(b), f.succs(b).collect::<Vec<_>>().as_slice());
        }
        assert_eq!(view.num_blocks(), f.num_blocks());
        // entry→a, entry→b, a→a, a→j, b→j; only the self loop retreats.
        assert_eq!(view.num_edges(), 5);
        assert_eq!(view.retreating_edges(), 1);
    }

    #[test]
    fn scc_condensation_is_topological() {
        // entry → {a ⇄ b} → {c self-loop} → exit, plus a DAG bypass.
        let f = parse_function(
            "fn s {
             entry:
               br p, a, c
             a:
               br q, b, c
             b:
               jmp a
             c:
               br r, c, done
             done:
               ret
             }",
        )
        .unwrap();
        let view = CfgView::new(&f);
        let id = |n: &str| view.scc_of(f.block_by_name(n).unwrap()).unwrap();
        // {a, b} is one component, c its own looping component.
        assert_eq!(id("a"), id("b"));
        assert_ne!(id("a"), id("c"));
        assert_eq!(view.num_sccs(), 4); // entry, {a,b}, {c}, done
                                        // Every CFG edge respects topological component order.
        for b in f.block_ids() {
            for s in view.succs(b) {
                assert!(
                    view.scc_of(b).unwrap() <= view.scc_of(*s).unwrap(),
                    "edge {b:?}→{s:?} violates topo order"
                );
            }
        }
        // Loop detection: {a,b} and {c} loop, entry and done do not.
        assert!(view.scc_is_loop(id("a")));
        assert!(view.scc_is_loop(id("c")));
        assert!(!view.scc_is_loop(id("entry")));
        assert!(!view.scc_is_loop(id("done")));
        // Members are reported in RPO and cover all reachable blocks once.
        let mut seen = Vec::new();
        for s in 0..view.num_sccs() {
            seen.extend_from_slice(view.scc_blocks(s));
        }
        let mut sorted = seen.clone();
        sorted.sort_by_key(|b| b.index());
        sorted.dedup();
        assert_eq!(sorted.len(), f.num_blocks());
    }

    #[test]
    fn scc_of_unreachable_is_none() {
        let mut f = parse_function(
            "fn u {
             entry:
               ret
             }",
        )
        .unwrap();
        // An unreachable block appended after parsing.
        let orphan = f.add_block(lcm_ir::BlockData::new("orphan"));
        let view = CfgView::new(&f);
        assert_eq!(view.scc_of(orphan), None);
        assert_eq!(view.num_sccs(), 1);
        assert!(view.scc_of(f.entry()).is_some());
    }

    #[test]
    fn acyclic_graph_has_no_retreating_edges() {
        let f = parse_function(
            "fn d {
             entry:
               br c, l, r
             l:
               jmp j
             r:
               jmp j
             j:
               ret
             }",
        )
        .unwrap();
        let view = CfgView::new(&f);
        assert_eq!(view.retreating_edges(), 0);
        assert_eq!(view.num_edges(), 4);
    }
}
