//! Dataflow problem description.

use lcm_ir::{EdgeList, Function};

use crate::bitmatrix::BitMatrix;
use crate::bitset::BitSet;
use crate::stats::SolveStats;

/// The direction information flows in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// From entry towards exit (availability, delay, …).
    Forward,
    /// From exit towards entry (anticipability, liveness, …).
    Backward,
}

/// How values meeting at a block are combined.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Confluence {
    /// Intersection: a fact holds only if it holds on **all** paths
    /// ("all-paths" problems like availability and anticipability).
    /// Interior values are initialised to the full set.
    Must,
    /// Union: a fact holds if it holds on **some** path (liveness, partial
    /// availability). Interior values are initialised to the empty set.
    May,
}

/// A block's gen/kill transfer function: `out = gen ∪ (in − kill)` (or the
/// entry/exit mirrored version for backward problems).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Transfer {
    /// Facts generated by the block.
    pub gen: BitSet,
    /// Facts destroyed by the block.
    pub kill: BitSet,
}

impl Transfer {
    /// The identity transfer (`gen = kill = ∅`) over `nbits` facts.
    pub fn identity(nbits: usize) -> Self {
        Transfer {
            gen: BitSet::new(nbits),
            kill: BitSet::new(nbits),
        }
    }

    /// Applies the transfer to `value` in place, counting word operations.
    pub(crate) fn apply(&self, value: &mut BitSet, stats: &mut SolveStats) {
        value.difference_with(&self.kill);
        value.union_with(&self.gen);
        stats.word_ops += 2 * value.num_words() as u64;
    }
}

/// A unidirectional bit-vector dataflow problem over a function's CFG.
///
/// For a [`Direction::Forward`] problem the fixpoint satisfies
///
/// ```text
/// in[b]  = meet over pred edges e=(p,b) of ( transfer_p(in[p]) ∪ edge_gen[e] )
/// out[b] = transfer_b(in[b])
/// in[entry] = boundary
/// ```
///
/// and symmetrically (successor edges, `out[exit] = boundary`) for
/// [`Direction::Backward`]. The optional `edge_gen` term is exactly what the
/// LATER analysis of lazy code motion needs (`LATER(i,j) = EARLIEST(i,j) ∪
/// (LATERIN(i) ∩ ¬ANTLOC(i))`); plain gen/kill problems leave it unset.
#[derive(Clone, Debug)]
pub struct Problem<'f> {
    pub(crate) fun: &'f Function,
    pub(crate) nbits: usize,
    pub(crate) direction: Direction,
    pub(crate) confluence: Confluence,
    pub(crate) transfer: Vec<Transfer>,
    pub(crate) boundary: BitSet,
    pub(crate) edge_gen: Option<(EdgeList, Vec<BitSet>)>,
    pub(crate) name: &'static str,
    pub(crate) sweep_bound: Option<usize>,
}

impl<'f> Problem<'f> {
    /// Creates a problem with an empty boundary value and no edge gens.
    ///
    /// # Panics
    ///
    /// Panics if `transfer.len() != fun.num_blocks()` or any transfer set has
    /// a capacity other than `nbits`.
    pub fn new(
        fun: &'f Function,
        nbits: usize,
        direction: Direction,
        confluence: Confluence,
        transfer: Vec<Transfer>,
    ) -> Self {
        shape_check(
            "one transfer function per block",
            fun.num_blocks(),
            transfer.len(),
        );
        for t in &transfer {
            shape_check("gen capacity", nbits, t.gen.capacity());
            shape_check("kill capacity", nbits, t.kill.capacity());
        }
        Problem {
            fun,
            nbits,
            direction,
            confluence,
            transfer,
            boundary: BitSet::new(nbits),
            edge_gen: None,
            name: "dataflow",
            sweep_bound: None,
        }
    }

    /// Names the analysis; reported by
    /// [`SolverDiverged`](crate::SolverDiverged) and diagnostics.
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Overrides the solver's sweep budget (normally derived from the CFG's
    /// retreating-edge count, see
    /// [`CfgView::retreating_edges`](crate::CfgView::retreating_edges)).
    /// Mostly useful for testing divergence reporting with an artificially
    /// tight bound.
    pub fn with_sweep_bound(mut self, sweeps: usize) -> Self {
        self.sweep_bound = Some(sweeps);
        self
    }

    /// Sets the boundary value (`in[entry]` / `out[exit]`).
    ///
    /// # Panics
    ///
    /// Panics if the capacity differs from the problem's bit width.
    pub fn with_boundary(mut self, boundary: BitSet) -> Self {
        shape_check("boundary capacity", self.nbits, boundary.capacity());
        self.boundary = boundary;
        self
    }

    /// Attaches per-edge gen sets (indexed by the `EdgeList`'s
    /// [`EdgeId`](lcm_ir::EdgeId)s).
    ///
    /// # Panics
    ///
    /// Panics if `gens.len()` differs from the edge count or any capacity
    /// differs from the problem's bit width.
    pub fn with_edge_gen(mut self, edges: EdgeList, gens: Vec<BitSet>) -> Self {
        shape_check("one gen set per edge", edges.len(), gens.len());
        for g in &gens {
            shape_check("edge gen capacity", self.nbits, g.capacity());
        }
        self.edge_gen = Some((edges, gens));
        self
    }

    /// The function this problem is defined over.
    pub fn function(&self) -> &'f Function {
        self.fun
    }

    /// The number of facts (bits) tracked.
    pub fn num_bits(&self) -> usize {
        self.nbits
    }

    /// The analysis name ([`with_name`](Self::with_name); `"dataflow"` by
    /// default).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Panics with `"{context} required: expected {expected}, found {found}"`
/// unless the two sizes agree. Active in release builds.
fn shape_check(context: &str, expected: usize, found: usize) {
    assert!(
        expected == found,
        "{context} required: expected {expected}, found {found}"
    );
}

/// The fixpoint of a [`Problem`]: per-block entry and exit values plus the
/// cost counters accumulated while solving.
///
/// Each side is a flat [`BitMatrix`] (one allocation, one row per block)
/// rather than a `Vec<BitSet>`; use [`BitMatrix::contains`] /
/// [`BitMatrix::row_iter`] for point queries and
/// [`BitMatrix::row_set`] where an owned [`BitSet`] is genuinely needed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Solution {
    /// Value at each block's entry; row index = block index.
    pub ins: BitMatrix,
    /// Value at each block's exit; row index = block index.
    pub outs: BitMatrix,
    /// Solver cost counters.
    pub stats: SolveStats,
}

impl Solution {
    /// The value flowing along edge `(from, to)` *before* confluence at the
    /// receiving block: the source's `out` for forward problems, the
    /// target's `in` for backward ones — plus the edge gen if one was given.
    /// Exposed for completeness; the LCM analyses compute their edge
    /// predicates directly.
    pub fn edge_value(&self, problem: &Problem<'_>, edge: lcm_ir::Edge) -> BitSet {
        let mut v = match problem.direction {
            Direction::Forward => self.outs.row_set(edge.from.index()),
            Direction::Backward => self.ins.row_set(edge.to.index()),
        };
        if let Some((edges, gens)) = &problem.edge_gen {
            if let Some((id, _)) = edges.iter().find(|(_, e)| *e == edge) {
                v.union_with(&gens[id.index()]);
            }
        }
        v
    }
}
