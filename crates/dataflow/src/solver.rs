//! Fixpoint solvers: round-robin over a depth-first ordering and an
//! SCC-condensed priority worklist, both running over one reusable
//! [`SolverScratch`] arena.
//!
//! The monotone gen/kill framework has a unique fixpoint, so every
//! strategy produces bit-identical [`Solution`]s; they differ only in
//! their cost counters ([`SolveStats`]). The scratch arena holds the
//! IN/OUT state as two flat [`BitMatrix`] values plus the worklist
//! machinery, and is reinitialised — *not* reallocated — per solve, so a
//! caller that keeps one scratch alive across many solves (the fused LCM
//! pipeline, the batch driver's pool workers) performs O(1) amortized
//! heap allocations per solve instead of O(blocks).

use std::collections::VecDeque;
use std::str::FromStr;

use lcm_ir::BlockId;

use crate::bitmatrix::BitMatrix;
use crate::bitset::{copy_row_changed, BitSet};
use crate::error::SolverDiverged;
use crate::problem::{Confluence, Direction, Problem, Solution};
use crate::stats::SolveStats;
use crate::view::CfgView;

/// Which fixpoint iteration schedule to run. Both reach the same unique
/// fixpoint; they differ in node revisits and sweep structure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolveStrategy {
    /// Whole sweeps over reverse postorder (forward) / postorder
    /// (backward) until a sweep changes nothing.
    RoundRobin,
    /// SCC-condensed priority worklist: drain each strongly connected
    /// component of the CFG to its local fixpoint before touching any
    /// component downstream of it. Because the condensation is acyclic,
    /// one topological pass reaches the global fixpoint — loopy regions
    /// never force revisits of the blocks around them.
    #[default]
    SccPriority,
}

impl SolveStrategy {
    /// All strategies, for equivalence sweeps.
    pub const ALL: [SolveStrategy; 2] = [SolveStrategy::RoundRobin, SolveStrategy::SccPriority];

    /// The CLI / report name: `"rr"` or `"scc"`.
    pub fn name(&self) -> &'static str {
        match self {
            SolveStrategy::RoundRobin => "rr",
            SolveStrategy::SccPriority => "scc",
        }
    }
}

impl FromStr for SolveStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rr" | "round-robin" => Ok(SolveStrategy::RoundRobin),
            "scc" | "scc-priority" => Ok(SolveStrategy::SccPriority),
            other => Err(format!(
                "unknown solver strategy `{other}` (expected rr or scc)"
            )),
        }
    }
}

/// A reusable arena holding everything a solve needs to mutate: the
/// IN/OUT bit matrices, the meet/transfer accumulators, the worklist
/// deque, the in-queue bitmap and the per-block change flags.
///
/// Create one (cheap, allocation-free) and pass it to
/// [`Problem::solve_with`] repeatedly; backing stores grow to the largest
/// problem seen and are then reused verbatim, so a long-running worker
/// performs O(1) amortized allocations per solve. Every solve fully
/// reinitialises the values, so no state leaks between solves (the
/// fault-injection hook
/// [`poison_for_fault_injection`](Self::poison_for_fault_injection) exists precisely to prove the
/// downstream validators would catch such a leak).
#[derive(Debug, Default)]
pub struct SolverScratch {
    ins: BitMatrix,
    outs: BitMatrix,
    /// Meet accumulator, doubling as the transfer buffer — values flow
    /// meet → dirty-check → transfer → output without intermediate clones.
    acc: BitSet,
    /// Scratch for edge-gen augmented meets.
    tmp: BitSet,
    /// Whether block `b`'s transfer has been applied at least once this
    /// solve. Until it has, an unchanged meet must not short-circuit the
    /// update (the initial in/out values predate any transfer).
    applied: Vec<bool>,
    queue: VecDeque<BlockId>,
    queued: Vec<bool>,
    /// When set, the next [`prepare`](Self::prepare) skips value
    /// reinitialisation once — the fault-injection path that simulates a
    /// worker reusing stale solver state across functions.
    skip_reset_once: bool,
}

impl SolverScratch {
    /// An empty scratch; backing stores are allocated lazily by the first
    /// solve and grown only when a larger problem arrives.
    pub fn new() -> Self {
        Self::default()
    }

    /// The structural half of [`prepare`](Self::prepare): resizes every
    /// backing store for `p` (growing only when needed) without touching
    /// the IN/OUT values. Returns the growth count and whether the
    /// matrices already had the right shape (so their old values are still
    /// in place).
    fn prepare_structures(&mut self, p: &Problem<'_>, view: &CfgView) -> (u64, bool) {
        let n = p.fun.num_blocks();
        assert_eq!(
            view.num_blocks(),
            n,
            "CfgView built for a different function"
        );
        let mut grew = 0u64;
        let same_shape = self.ins.n_rows() == n && self.ins.nbits() == p.nbits;
        if !same_shape {
            grew += self.ins.reset(n, p.nbits) as u64;
            grew += self.outs.reset(n, p.nbits) as u64;
        }
        grew += self.acc.reset(p.nbits) as u64;
        grew += self.tmp.reset(p.nbits) as u64;
        if self.applied.capacity() < n {
            grew += 1;
        }
        self.applied.clear();
        self.applied.resize(n, false);
        if self.queued.capacity() < n {
            grew += 1;
        }
        self.queued.clear();
        self.queued.resize(n, false);
        self.queue.clear();
        if self.queue.capacity() < n {
            grew += 1;
            self.queue.reserve(n - self.queue.capacity());
        }
        (grew, same_shape)
    }

    /// Resizes the backing stores for `p` (growing only when needed) and
    /// reinitialises all values. Returns the number of backing-store
    /// growth events, i.e. actual heap allocations.
    fn prepare(&mut self, p: &Problem<'_>, view: &CfgView) -> u64 {
        let (grew, same_shape) = self.prepare_structures(p, view);
        let n = p.fun.num_blocks();

        if std::mem::take(&mut self.skip_reset_once) && same_shape {
            // Fault-injection path: leave whatever values are in the
            // matrices (poison) in place, exactly as a buggy reuse of a
            // worker's scratch across functions would.
            return grew;
        }
        for r in 0..n {
            match p.confluence {
                Confluence::Must => {
                    self.ins.fill_row(r);
                    self.outs.fill_row(r);
                }
                Confluence::May => {
                    self.ins.clear_row(r);
                    self.outs.clear_row(r);
                }
            }
        }
        match p.direction {
            Direction::Forward => self.ins.set_row(p.fun.entry().index(), &p.boundary),
            Direction::Backward => self.outs.set_row(p.fun.exit().index(), &p.boundary),
        }
        grew
    }

    /// Like [`prepare`](Self::prepare), but seeds the IN/OUT matrices from
    /// a previous fixpoint instead of the lattice initial values — the
    /// starting state of a delta solve. Rows the delta re-solves are
    /// reinitialised afterwards by the caller; every other row keeps its
    /// (already final) previous value.
    ///
    /// `prev` may carry *fewer* columns than `p` (a universe that grew
    /// between revisions): retained rows are widened in place and the new
    /// expression bits start absent — ⊥ for the zero-extension, which
    /// DESIGN.md §13 proves is the exact fixpoint value outside the dirty
    /// closure for every must-problem in the cascade.
    ///
    /// # Panics
    ///
    /// Panics if `prev` has a different row count or *more* columns than
    /// `p` (the delta entry point checks this and falls back to a full
    /// solve instead).
    fn prepare_delta(&mut self, p: &Problem<'_>, view: &CfgView, prev: &Solution) -> u64 {
        let (grew, _) = self.prepare_structures(p, view);
        self.ins.copy_from_widened(&prev.ins);
        self.outs.copy_from_widened(&prev.outs);
        grew
    }

    /// Scribbles deterministic pseudo-random garbage over the IN/OUT
    /// matrices (trailing-bit hygiene preserved) and arms
    /// `skip_reset_once`, so the *next* solve runs on stale, corrupted
    /// state — the realistic failure mode of a worker arena that is
    /// reused without reinitialisation. Used by the `lcm-faults` mutation
    /// suite to prove the fast validation tier catches cross-function
    /// state bleed; never called on any production path.
    pub fn poison_for_fault_injection(&mut self, seed: u64) {
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for m in [&mut self.ins, &mut self.outs] {
            let nbits = m.nbits();
            let used = nbits % 64;
            for r in 0..m.n_rows() {
                let row = m.row_mut(r);
                for w in row.iter_mut() {
                    *w ^= next();
                }
                if used != 0 {
                    if let Some(last) = row.last_mut() {
                        *last &= (1u64 << used) - 1;
                    }
                }
            }
        }
        self.skip_reset_once = true;
    }

    /// Whether the scratch is armed to skip its next value
    /// reinitialisation (only ever true between
    /// [`poison_for_fault_injection`](Self::poison_for_fault_injection)
    /// and the next solve).
    pub fn is_poisoned(&self) -> bool {
        self.skip_reset_once
    }
}

/// Outcome metadata of a [`Problem::try_delta_solve_with`] call: whether
/// the delta path applied at all, and how much of the CFG it re-solved.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DeltaSolveInfo {
    /// The previous fixpoint was shaped for a different CFG or bit width,
    /// so a full solve ran instead of a delta.
    pub full_fallback: bool,
    /// Strongly connected components re-drained by this solve.
    pub components_resolved: usize,
    /// Blocks whose values were re-solved (members of those components).
    pub blocks_resolved: usize,
    /// The previous fixpoint carried fewer columns than the problem and
    /// retained rows were zero-extended in place (universe growth).
    pub widened: bool,
}

impl Problem<'_> {
    /// The round-robin sweep budget: the CFG's retreating-edge count (an
    /// upper bound on its loop-connectedness `d`) plus a margin over the
    /// classical `d + 2` convergence bound for rapid frameworks, unless
    /// overridden by [`with_sweep_bound`](Self::with_sweep_bound). A honest
    /// monotone gen/kill problem always converges within this budget; only
    /// corrupted or non-monotone systems exhaust it.
    fn round_robin_bound(&self, view: &CfgView) -> usize {
        self.sweep_bound
            .unwrap_or_else(|| view.retreating_edges() + 4)
    }

    /// The SCC schedule's pop budget. It has no sweep structure, so the
    /// budget comes from the lattice-height argument instead: under a
    /// monotone transfer each block's output side changes at most
    /// `nbits + 1` times (once per bit plus the first application), and
    /// every change re-enqueues at most its dependents — so total pops are
    /// bounded by `n + (nbits + 2)·(E + 1)` with room to spare. An explicit
    /// [`with_sweep_bound`](Self::with_sweep_bound) of `s` is interpreted as
    /// `s` whole sweeps, i.e. `s · n` pops.
    fn pop_bound(&self, view: &CfgView) -> usize {
        match self.sweep_bound {
            Some(s) => s * view.num_blocks().max(1),
            None => view.num_blocks() + (self.nbits + 2) * (view.num_edges() + 1) + 8,
        }
    }

    /// Solves with the given strategy over a shared [`CfgView`], reusing
    /// `scratch` for all mutable state. This is the zero-allocation entry
    /// point: with a warm scratch the only allocations are the two matrix
    /// clones exported in the returned [`Solution`] (counted in
    /// [`SolveStats::allocations`]).
    ///
    /// # Panics
    ///
    /// Panics if `view` was built for a different-shaped function, or if
    /// the iteration budget is exhausted (impossible for a monotone
    /// problem); [`try_solve_with`](Self::try_solve_with) reports the
    /// latter as a [`SolverDiverged`] instead.
    pub fn solve_with(
        &self,
        strategy: SolveStrategy,
        view: &CfgView,
        scratch: &mut SolverScratch,
    ) -> Solution {
        self.try_solve_with(strategy, view, scratch)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`solve_with`](Self::solve_with).
    ///
    /// # Errors
    ///
    /// Returns [`SolverDiverged`] if the fixpoint iteration exceeds its
    /// budget (see [`with_sweep_bound`](Self::with_sweep_bound)).
    ///
    /// # Panics
    ///
    /// Panics if `view` was built for a different-shaped function (that is
    /// a structural misuse of the API, not a data-dependent failure).
    pub fn try_solve_with(
        &self,
        strategy: SolveStrategy,
        view: &CfgView,
        scratch: &mut SolverScratch,
    ) -> Result<Solution, SolverDiverged> {
        let mut stats = SolveStats::new();
        stats.allocations = scratch.prepare(self, view);
        match strategy {
            SolveStrategy::RoundRobin => self.run_round_robin(view, scratch, &mut stats)?,
            SolveStrategy::SccPriority => self.run_scc(view, scratch, &mut stats)?,
        }
        // Exporting the Solution clones the two matrices — the only
        // allocations a warm-scratch solve performs.
        stats.allocations += 2;
        Ok(Solution {
            ins: scratch.ins.clone(),
            outs: scratch.outs.clone(),
            stats,
        })
    }

    /// Re-solves after an edit, seeded from `prev` (the fixpoint of the
    /// *unedited* problem) and a set of blocks whose transfer functions,
    /// incoming edge gens or boundary participation may have changed.
    ///
    /// Only the strongly connected components that can observe the change
    /// are re-drained: the changed blocks' own components plus everything
    /// downstream in the condensation for a forward problem (values flow
    /// towards the exit), upstream for a backward one. Every other block's
    /// previous value is provably final — its meet inputs and transfer are
    /// unchanged and the framework's fixpoint is unique — and is carried
    /// over verbatim, so the result is bit-identical to a full solve at a
    /// cost proportional to the affected region.
    ///
    /// `prev` may be *narrower* than the problem (fewer columns): retained
    /// rows are widened in place with the new bits starting ⊥, which is the
    /// exact fixpoint for new expression columns outside the dirty closure
    /// of a must-problem (DESIGN.md §13 has the per-direction argument).
    /// The caller remains responsible for listing every block whose local
    /// predicates gained a new-column bit as `changed`.
    ///
    /// Falls back to a full [`SolveStrategy::SccPriority`] solve (reported
    /// via [`DeltaSolveInfo::full_fallback`]) whenever `prev` is shaped for
    /// a different CFG or is *wider* than the problem — the shape-change
    /// contract: callers that added or removed blocks or edges must not
    /// pretend otherwise (column shrink is handled upstream by remapping).
    ///
    /// The caller owns the completeness of `changed`: a block whose
    /// transfer, incoming edge gen (for
    /// [`with_edge_gen`](Self::with_edge_gen) problems) or boundary row differs from the
    /// problem `prev` was solved under must be listed, or stale values
    /// survive. The LCM pipeline derives this set from its block diff.
    ///
    /// # Errors
    ///
    /// Returns [`SolverDiverged`] if the fixpoint iteration exceeds its
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `view` was built for a different-shaped function.
    pub fn try_delta_solve_with(
        &self,
        view: &CfgView,
        scratch: &mut SolverScratch,
        prev: &Solution,
        changed: &[BlockId],
    ) -> Result<(Solution, DeltaSolveInfo), SolverDiverged> {
        let n = self.fun.num_blocks();
        let shape_ok = prev.ins.n_rows() == n
            && prev.outs.n_rows() == n
            && prev.ins.nbits() <= self.nbits
            && prev.outs.nbits() == prev.ins.nbits()
            && changed.iter().all(|b| b.index() < n);
        if !shape_ok {
            let solution = self.try_solve_with(SolveStrategy::SccPriority, view, scratch)?;
            let info = DeltaSolveInfo {
                full_fallback: true,
                components_resolved: view.num_sccs(),
                blocks_resolved: n,
                widened: false,
            };
            return Ok((solution, info));
        }
        let widened = prev.ins.nbits() < self.nbits;

        // Mark the affected components. Component ids are topological
        // (every cross-component edge goes low → high), so one ordered
        // sweep — ascending for forward problems, descending for backward
        // — computes the full downstream/upstream closure.
        let n_sccs = view.num_sccs();
        let mut affected = vec![false; n_sccs];
        for &b in changed {
            if let Some(s) = view.scc_of(b) {
                affected[s] = true;
            }
        }
        match self.direction {
            Direction::Forward => {
                for s in 0..n_sccs {
                    if !affected[s] {
                        continue;
                    }
                    for &b in view.scc_blocks(s) {
                        for &d in view.succs(b) {
                            if let Some(t) = view.scc_of(d) {
                                affected[t] = true;
                            }
                        }
                    }
                }
            }
            Direction::Backward => {
                for s in (0..n_sccs).rev() {
                    if !affected[s] {
                        continue;
                    }
                    for &b in view.scc_blocks(s) {
                        for &d in view.preds(b) {
                            if let Some(t) = view.scc_of(d) {
                                affected[t] = true;
                            }
                        }
                    }
                }
            }
        }

        let mut stats = SolveStats::new();
        stats.allocations = scratch.prepare_delta(self, view, prev);
        // Rows the delta re-solves restart from the lattice initial value
        // (and the boundary, when the boundary block is affected), exactly
        // as a full solve would initialise them; untouched rows keep the
        // previous fixpoint.
        let mut components_resolved = 0usize;
        let mut blocks_resolved = 0usize;
        for (s, _) in affected.iter().enumerate().filter(|(_, &a)| a) {
            components_resolved += 1;
            for &b in view.scc_blocks(s) {
                blocks_resolved += 1;
                let r = b.index();
                match self.confluence {
                    Confluence::Must => {
                        scratch.ins.fill_row(r);
                        scratch.outs.fill_row(r);
                    }
                    Confluence::May => {
                        scratch.ins.clear_row(r);
                        scratch.outs.clear_row(r);
                    }
                }
            }
        }
        match self.direction {
            Direction::Forward => {
                let e = self.fun.entry();
                if view.scc_of(e).is_some_and(|s| affected[s]) {
                    scratch.ins.set_row(e.index(), &self.boundary);
                }
            }
            Direction::Backward => {
                let x = self.fun.exit();
                if view.scc_of(x).is_some_and(|s| affected[s]) {
                    scratch.outs.set_row(x.index(), &self.boundary);
                }
            }
        }
        self.run_scc_filtered(view, scratch, &mut stats, |s| affected[s])?;
        stats.allocations += 2;
        Ok((
            Solution {
                ins: scratch.ins.clone(),
                outs: scratch.outs.clone(),
                stats,
            },
            DeltaSolveInfo {
                full_fallback: false,
                components_resolved,
                blocks_resolved,
                widened,
            },
        ))
    }

    /// Solves by round-robin iteration over reverse postorder (forward
    /// problems) or postorder (backward problems) until a full sweep changes
    /// nothing. `stats.iterations` counts the sweeps.
    ///
    /// Computes a fresh [`CfgView`] and scratch for the function; when
    /// running several analyses over one CFG, build both once and use
    /// [`solve_with`](Self::solve_with).
    ///
    /// # Panics
    ///
    /// Panics if the iteration exceeds its sweep budget (impossible for a
    /// monotone problem); [`try_solve`](Self::try_solve) reports that as a
    /// [`SolverDiverged`] instead.
    pub fn solve(&self) -> Solution {
        self.try_solve().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Checked [`solve`](Self::solve): returns [`SolverDiverged`] instead of
    /// panicking when the sweep budget is exhausted.
    ///
    /// For rapid gen/kill frameworks like the ones here this converges in
    /// `d + 2` sweeps where `d` is the loop-connectedness of the CFG — the
    /// classical result underlying the paper's "as cheap as unidirectional
    /// analyses" complexity claim.
    ///
    /// # Errors
    ///
    /// Returns [`SolverDiverged`] if the fixpoint iteration exceeds the
    /// sweep budget (see [`with_sweep_bound`](Self::with_sweep_bound)).
    pub fn try_solve(&self) -> Result<Solution, SolverDiverged> {
        let view = CfgView::new(self.fun);
        self.try_solve_with(SolveStrategy::RoundRobin, &view, &mut SolverScratch::new())
    }

    fn run_round_robin(
        &self,
        view: &CfgView,
        scratch: &mut SolverScratch,
        stats: &mut SolveStats,
    ) -> Result<(), SolverDiverged> {
        let order = match self.direction {
            Direction::Forward => view.rpo(),
            Direction::Backward => view.postorder(),
        };
        let bound = self.round_robin_bound(view);
        loop {
            if stats.iterations >= bound {
                return Err(SolverDiverged {
                    analysis: self.name,
                    sweeps: bound,
                });
            }
            stats.iterations += 1;
            let mut changed = false;
            for &b in order {
                changed |= self.update(view, scratch, stats, b);
            }
            if !changed {
                break;
            }
        }
        Ok(())
    }

    /// The SCC-condensed priority schedule: components are visited in
    /// topological order of the condensation (reverse for backward
    /// problems), and each is drained to its local fixpoint with a FIFO
    /// restricted to its members before the next component is seeded.
    /// Cross-component dependents need no re-enqueueing — they have not
    /// been seeded yet and will read final values when their turn comes —
    /// so one pass over the components reaches the global fixpoint.
    fn run_scc(
        &self,
        view: &CfgView,
        scratch: &mut SolverScratch,
        stats: &mut SolveStats,
    ) -> Result<(), SolverDiverged> {
        self.run_scc_filtered(view, scratch, stats, |_| true)
    }

    /// [`run_scc`](Self::run_scc) restricted to the components `keep`
    /// selects — the delta solve's drain, where the unselected components
    /// already hold final values from a previous fixpoint.
    fn run_scc_filtered(
        &self,
        view: &CfgView,
        scratch: &mut SolverScratch,
        stats: &mut SolveStats,
        keep: impl Fn(usize) -> bool,
    ) -> Result<(), SolverDiverged> {
        let bound = self.pop_bound(view);
        let mut pops = 0usize;
        let n_sccs = view.num_sccs();
        let mut component = |s: usize| -> Result<(), SolverDiverged> {
            if !keep(s) {
                return Ok(());
            }
            let members = view.scc_blocks(s);
            match self.direction {
                Direction::Forward => {
                    for &b in members {
                        scratch.queued[b.index()] = true;
                        scratch.queue.push_back(b);
                    }
                }
                Direction::Backward => {
                    for &b in members.iter().rev() {
                        scratch.queued[b.index()] = true;
                        scratch.queue.push_back(b);
                    }
                }
            }
            while let Some(b) = scratch.queue.pop_front() {
                pops += 1;
                if pops > bound {
                    return Err(SolverDiverged {
                        analysis: self.name,
                        sweeps: bound / self.fun.num_blocks().max(1),
                    });
                }
                scratch.queued[b.index()] = false;
                if self.update(view, scratch, stats, b) {
                    let dependents: &[BlockId] = match self.direction {
                        Direction::Forward => view.succs(b),
                        Direction::Backward => view.preds(b),
                    };
                    for &d in dependents {
                        if view.scc_of(d) == Some(s) && !scratch.queued[d.index()] {
                            scratch.queued[d.index()] = true;
                            scratch.queue.push_back(d);
                        }
                    }
                }
            }
            Ok(())
        };
        match self.direction {
            Direction::Forward => (0..n_sccs).try_for_each(&mut component)?,
            Direction::Backward => (0..n_sccs).rev().try_for_each(&mut component)?,
        }
        Ok(())
    }

    /// Recomputes block `b`'s values; returns `true` if its *output side*
    /// (the side other blocks read) changed. The meet lands in the `acc`
    /// buffer; if it left the block's input side unchanged (word-granular
    /// check) and the transfer has already been applied, the transfer and
    /// output comparison are skipped entirely.
    ///
    /// Both directions share one body: `inp` is the block's meet destination
    /// (`ins` forward, `outs` backward) and `outp` the side its neighbors
    /// read — which is also the matrix the meet sources come from.
    fn update(
        &self,
        view: &CfgView,
        scratch: &mut SolverScratch,
        stats: &mut SolveStats,
        b: BlockId,
    ) -> bool {
        stats.node_visits += 1;
        let i = b.index();
        if scratch.applied[i] {
            stats.node_revisits += 1;
        }
        let words = scratch.acc.num_words() as u64;
        let (inp, outp) = match self.direction {
            Direction::Forward => (&mut scratch.ins, &mut scratch.outs),
            Direction::Backward => (&mut scratch.outs, &mut scratch.ins),
        };
        let acc = &mut scratch.acc;
        let boundary = match self.direction {
            Direction::Forward => b == self.fun.entry(),
            Direction::Backward => b == self.fun.exit(),
        };
        let dirty = if boundary {
            // The boundary value never changes, so the transfer needs to
            // run exactly once.
            acc.copy_from_row(inp.row(i));
            !scratch.applied[i]
        } else {
            match self.confluence {
                Confluence::Must => acc.insert_all(),
                Confluence::May => acc.clear(),
            }
            if let Some((edges, gens)) = &self.edge_gen {
                let eids = match self.direction {
                    Direction::Forward => edges.incoming(b),
                    Direction::Backward => edges.outgoing(b),
                };
                for &eid in eids {
                    let e = edges.edge(eid);
                    let nb = match self.direction {
                        Direction::Forward => e.from,
                        Direction::Backward => e.to,
                    };
                    scratch.tmp.copy_from_row(outp.row(nb.index()));
                    scratch.tmp.union_with(&gens[eid.index()]);
                    meet_into(acc, &scratch.tmp, self.confluence);
                    stats.word_ops += 3 * words;
                }
            } else {
                let neighbors = match self.direction {
                    Direction::Forward => view.preds(b),
                    Direction::Backward => view.succs(b),
                };
                for &nb in neighbors {
                    meet_into_row(acc, outp.row(nb.index()), self.confluence);
                    stats.word_ops += words;
                }
            }
            let meet_changed = copy_row_changed(inp.row_mut(i), acc.words());
            stats.word_ops += words;
            meet_changed || !scratch.applied[i]
        };
        if !dirty {
            return false;
        }
        self.transfer[i].apply(acc, stats);
        scratch.applied[i] = true;
        let changed = copy_row_changed(outp.row_mut(i), acc.words());
        stats.word_ops += words;
        changed
    }
}

fn meet_into(acc: &mut BitSet, value: &BitSet, confluence: Confluence) {
    match confluence {
        Confluence::Must => acc.intersect_with(value),
        Confluence::May => acc.union_with(value),
    };
}

fn meet_into_row(acc: &mut BitSet, row: &[u64], confluence: Confluence) {
    match confluence {
        Confluence::Must => acc.intersect_with_row(row),
        Confluence::May => acc.union_with_row(row),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Transfer;
    use lcm_ir::{parse_function, EdgeList};

    fn loop_fn() -> lcm_ir::Function {
        parse_function(
            "fn l {
             entry:
               jmp head
             head:
               br c, body, done
             body:
               jmp head
             done:
               ret
             }",
        )
        .unwrap()
    }

    #[test]
    fn forward_may_reaches_through_loop() {
        let f = loop_fn();
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(2); f.num_blocks()];
        transfer[body.index()].gen.insert(0);
        let p = Problem::new(&f, 2, Direction::Forward, Confluence::May, transfer);
        let s = p.solve();
        let head = f.block_by_name("head").unwrap();
        assert!(s.ins.contains(head.index(), 0)); // around the back edge
        assert!(!s.ins.contains(head.index(), 1));
        assert!(s.ins.contains(f.exit().index(), 0));
        assert!(!s.ins.contains(body.index(), 1));
        assert!(s.stats.iterations >= 2);
        assert!(s.stats.word_ops > 0);
    }

    #[test]
    fn forward_must_availability_shape() {
        // Fact available only if generated on all paths.
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
        let l = f.block_by_name("l").unwrap();
        let r = f.block_by_name("r").unwrap();
        let j = f.block_by_name("j").unwrap();
        // Bit 0 gen'd in both arms; bit 1 only in l.
        let mut transfer = vec![Transfer::identity(2); f.num_blocks()];
        transfer[l.index()].gen.insert(0);
        transfer[l.index()].gen.insert(1);
        transfer[r.index()].gen.insert(0);
        let p = Problem::new(&f, 2, Direction::Forward, Confluence::Must, transfer);
        let s = p.solve();
        assert!(s.ins.contains(j.index(), 0));
        assert!(!s.ins.contains(j.index(), 1));
        assert!(!s.ins.contains(l.index(), 0)); // entry boundary is empty
    }

    #[test]
    fn backward_must_anticipability_shape() {
        // Bit anticipated at entry iff computed on every path to exit.
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
        let l = f.block_by_name("l").unwrap();
        let j = f.block_by_name("j").unwrap();
        let mut transfer = vec![Transfer::identity(2); f.num_blocks()];
        transfer[l.index()].gen.insert(0); // computed only on one arm
        transfer[j.index()].gen.insert(1); // computed at the join
        let p = Problem::new(&f, 2, Direction::Backward, Confluence::Must, transfer);
        let s = p.solve();
        assert!(!s.ins.contains(f.entry().index(), 0));
        assert!(s.ins.contains(f.entry().index(), 1));
        assert!(s.outs.row_is_empty(f.exit().index())); // boundary
    }

    #[test]
    fn kill_blocks_propagation() {
        let f = loop_fn();
        let head = f.block_by_name("head").unwrap();
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(1); f.num_blocks()];
        transfer[body.index()].gen.insert(0);
        transfer[head.index()].kill.insert(0);
        let p = Problem::new(&f, 1, Direction::Forward, Confluence::May, transfer);
        let s = p.solve();
        assert!(s.ins.contains(head.index(), 0));
        assert!(!s.outs.contains(head.index(), 0));
        assert!(!s.ins.contains(f.exit().index(), 0));
    }

    #[test]
    fn all_strategies_match_round_robin() {
        let f = parse_function(
            "fn m {
             entry:
               br c, a, b
             a:
               br d, inner, join
             inner:
               br e, inner, a
             b:
               jmp join
             join:
               br g, entry2, done
             entry2:
               jmp join
             done:
               ret
             }",
        )
        .unwrap();
        let view = CfgView::new(&f);
        let mut scratch = SolverScratch::new();
        for direction in [Direction::Forward, Direction::Backward] {
            for confluence in [Confluence::Must, Confluence::May] {
                let mut transfer = vec![Transfer::identity(8); f.num_blocks()];
                for (i, t) in transfer.iter_mut().enumerate() {
                    t.gen.insert(i % 8);
                    t.kill.insert((i + 3) % 8);
                }
                let p = Problem::new(&f, 8, direction, confluence, transfer);
                let a = p.solve();
                for strategy in SolveStrategy::ALL {
                    let b = p.solve_with(strategy, &view, &mut scratch);
                    assert_eq!(a.ins, b.ins, "{strategy:?} {direction:?} {confluence:?}");
                    assert_eq!(a.outs, b.outs, "{strategy:?} {direction:?} {confluence:?}");
                }
            }
        }
    }

    #[test]
    fn edge_gen_feeds_only_that_edge() {
        // Diamond; edge gen on the entry→l edge only. Must-confluence at j
        // then requires the fact from both edges, so it must NOT reach j,
        // but it must be in l's IN.
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
        let l = f.block_by_name("l").unwrap();
        let j = f.block_by_name("j").unwrap();
        let edges = EdgeList::new(&f);
        let mut gens = vec![BitSet::new(1); edges.len()];
        let (to_l, _) = edges
            .iter()
            .find(|(_, e)| e.from == f.entry() && e.to == l)
            .unwrap();
        gens[to_l.index()].insert(0);
        let transfer = vec![Transfer::identity(1); f.num_blocks()];
        let p = Problem::new(&f, 1, Direction::Forward, Confluence::Must, transfer)
            .with_edge_gen(edges, gens);
        let s = p.solve();
        assert!(s.ins.contains(l.index(), 0));
        assert!(!s.ins.contains(j.index(), 0));
        let view = CfgView::new(&f);
        let s3 = p.solve_with(SolveStrategy::SccPriority, &view, &mut SolverScratch::new());
        assert_eq!(s.ins, s3.ins);
    }

    #[test]
    fn boundary_is_respected() {
        let f = loop_fn();
        let transfer = vec![Transfer::identity(3); f.num_blocks()];
        let mut boundary = BitSet::new(3);
        boundary.insert(2);
        let p = Problem::new(&f, 3, Direction::Forward, Confluence::Must, transfer)
            .with_boundary(boundary);
        let s = p.solve();
        assert!(s.ins.contains(f.exit().index(), 2));
        assert_eq!(
            s.ins.row_iter(f.entry().index()).collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    #[should_panic(expected = "one transfer function per block")]
    fn wrong_transfer_count_panics() {
        let f = loop_fn();
        let _ = Problem::new(&f, 1, Direction::Forward, Confluence::May, vec![]);
    }

    #[test]
    fn shared_view_matches_fresh_view() {
        let f = loop_fn();
        let view = CfgView::new(&f);
        let body = f.block_by_name("body").unwrap();
        for direction in [Direction::Forward, Direction::Backward] {
            for confluence in [Confluence::Must, Confluence::May] {
                let mut transfer = vec![Transfer::identity(4); f.num_blocks()];
                transfer[body.index()].gen.insert(1);
                transfer[body.index()].kill.insert(2);
                let p = Problem::new(&f, 4, direction, confluence, transfer);
                let fresh = p.solve();
                let shared =
                    p.solve_with(SolveStrategy::RoundRobin, &view, &mut SolverScratch::new());
                assert_eq!(fresh.ins, shared.ins);
                assert_eq!(fresh.outs, shared.outs);
                let scc =
                    p.solve_with(SolveStrategy::SccPriority, &view, &mut SolverScratch::new());
                assert_eq!(fresh.ins, scc.ins);
                assert_eq!(fresh.outs, scc.outs);
            }
        }
    }

    #[test]
    fn scc_priority_skips_unchanged_blocks() {
        // A long chain: the round-robin solver revisits every block each
        // sweep, while the change-driven SCC schedule visits each block only
        // as its input actually changes — strictly fewer (or equal) visits.
        let mut text = String::from("fn chain {\n entry:\n jmp b0\n");
        for i in 0..20 {
            text.push_str(&format!(" b{i}:\n jmp b{}\n", i + 1));
        }
        text.push_str(" b20:\n ret\n }");
        let f = parse_function(&text).unwrap();
        let mut transfer = vec![Transfer::identity(2); f.num_blocks()];
        transfer[f.entry().index()].gen.insert(0);
        let p = Problem::new(&f, 2, Direction::Forward, Confluence::May, transfer);
        let rr = p.solve();
        let scc = p.solve_with(
            SolveStrategy::SccPriority,
            &CfgView::new(&f),
            &mut SolverScratch::new(),
        );
        assert_eq!(rr.ins, scc.ins);
        assert!(
            scc.stats.node_visits <= rr.stats.node_visits,
            "scc {} vs round-robin {}",
            scc.stats.node_visits,
            rr.stats.node_visits
        );
        assert!(scc.stats.word_ops <= rr.stats.word_ops);
    }

    #[test]
    fn scc_priority_cuts_revisits_on_loops() {
        // A tight loop feeding a long chain. Round-robin re-sweeps the
        // whole chain until the loop settles, so the chain is revisited;
        // the SCC schedule drains the loop to fixpoint first and then
        // sweeps the chain exactly once.
        let mut text = String::from(
            "fn lc {\n entry:\n jmp head\n head:\n br c, body, b0\n body:\n jmp head\n",
        );
        for i in 0..12 {
            text.push_str(&format!(" b{i}:\n jmp b{}\n", i + 1));
        }
        text.push_str(" b12:\n ret\n }");
        let f = parse_function(&text).unwrap();
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(4); f.num_blocks()];
        transfer[body.index()].gen.insert(0);
        transfer[f.entry().index()].gen.insert(1);
        let p = Problem::new(&f, 4, Direction::Forward, Confluence::May, transfer);
        let view = CfgView::new(&f);
        let mut scratch = SolverScratch::new();
        let rr = p.solve_with(SolveStrategy::RoundRobin, &view, &mut scratch);
        let scc = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        assert_eq!(rr.ins, scc.ins);
        assert_eq!(rr.outs, scc.outs);
        assert!(
            scc.stats.node_revisits < rr.stats.node_revisits,
            "scc {} vs round-robin {} revisits",
            scc.stats.node_revisits,
            rr.stats.node_revisits
        );
    }

    #[test]
    fn scc_priority_never_revisits_on_dags() {
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
        let mut transfer = vec![Transfer::identity(3); f.num_blocks()];
        transfer[f.entry().index()].gen.insert(0);
        let p = Problem::new(&f, 3, Direction::Forward, Confluence::Must, transfer);
        let view = CfgView::new(&f);
        let s = p.solve_with(SolveStrategy::SccPriority, &view, &mut SolverScratch::new());
        assert_eq!(s.stats.node_revisits, 0);
        assert_eq!(s.stats.node_visits, f.num_blocks());
    }

    #[test]
    fn warm_scratch_solves_with_two_allocations() {
        let f = loop_fn();
        let view = CfgView::new(&f);
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(64); f.num_blocks()];
        transfer[body.index()].gen.insert(7);
        let p = Problem::new(&f, 64, Direction::Forward, Confluence::May, transfer);
        let mut scratch = SolverScratch::new();
        let cold = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        assert!(cold.stats.allocations > 2, "cold solve must grow the arena");
        for _ in 0..3 {
            let warm = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
            // Only the two matrix clones exported in the Solution.
            assert_eq!(warm.stats.allocations, 2);
            assert_eq!(warm.ins, cold.ins);
        }
        // A *smaller* problem also reuses the arena…
        let g = parse_function("fn tiny {\n entry:\n ret\n }").unwrap();
        let gview = CfgView::new(&g);
        let q = Problem::new(
            &g,
            8,
            Direction::Forward,
            Confluence::May,
            vec![Transfer::identity(8); g.num_blocks()],
        );
        let small = q.solve_with(SolveStrategy::SccPriority, &gview, &mut scratch);
        assert_eq!(small.stats.allocations, 2);
        // …while returning to the larger shape is likewise allocation-free
        // (the matrices shrank in place, capacity was retained).
        let back = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        assert_eq!(back.stats.allocations, 2);
        assert_eq!(back.ins, cold.ins);
    }

    #[test]
    fn poisoned_scratch_corrupts_then_recovers() {
        let f = loop_fn();
        let view = CfgView::new(&f);
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(9); f.num_blocks()];
        transfer[body.index()].gen.insert(3);
        let p = Problem::new(&f, 9, Direction::Forward, Confluence::Must, transfer);
        let mut scratch = SolverScratch::new();
        let clean = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        scratch.poison_for_fault_injection(0xdead_beef);
        assert!(scratch.is_poisoned());
        let dirty = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        assert!(!scratch.is_poisoned());
        assert_ne!(
            clean.ins, dirty.ins,
            "poisoned stale state must leak into the fixpoint"
        );
        // The next prepare() fully reinitialises: the poison is gone.
        let recovered = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        assert_eq!(clean.ins, recovered.ins);
        assert_eq!(clean.outs, recovered.outs);
    }

    /// A multi-component CFG with two loops feeding a shared tail — the
    /// delta tests' workhorse.
    fn multi_scc_fn() -> lcm_ir::Function {
        parse_function(
            "fn m {
             entry:
               br c, a, b
             a:
               br d, inner, join
             inner:
               br e, inner, a
             b:
               jmp join
             join:
               br g, entry2, done
             entry2:
               jmp join
             done:
               ret
             }",
        )
        .unwrap()
    }

    fn seeded_transfers(n: usize, nbits: usize, salt: usize) -> Vec<Transfer> {
        let mut transfer = vec![Transfer::identity(nbits); n];
        for (i, t) in transfer.iter_mut().enumerate() {
            t.gen.insert((i + salt) % nbits);
            t.kill.insert((i + salt + 3) % nbits);
        }
        transfer
    }

    #[test]
    fn delta_solve_matches_full_solve_in_all_directions() {
        let f = multi_scc_fn();
        let view = CfgView::new(&f);
        let mut scratch = SolverScratch::new();
        let edited = f.block_by_name("a").unwrap();
        for direction in [Direction::Forward, Direction::Backward] {
            for confluence in [Confluence::Must, Confluence::May] {
                let p = Problem::new(
                    &f,
                    8,
                    direction,
                    confluence,
                    seeded_transfers(f.num_blocks(), 8, 0),
                );
                let prev = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
                // Edit block `a`'s transfer and re-solve both ways.
                let mut transfer = seeded_transfers(f.num_blocks(), 8, 0);
                transfer[edited.index()].gen.insert(5);
                transfer[edited.index()].kill.insert(1);
                let q = Problem::new(&f, 8, direction, confluence, transfer);
                let fresh = q.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
                let (delta, info) = q
                    .try_delta_solve_with(&view, &mut scratch, &prev, &[edited])
                    .unwrap();
                assert!(!info.full_fallback);
                assert!(info.blocks_resolved <= f.num_blocks());
                assert_eq!(fresh.ins, delta.ins, "{direction:?} {confluence:?}");
                assert_eq!(fresh.outs, delta.outs, "{direction:?} {confluence:?}");
                assert!(delta.stats.node_visits <= fresh.stats.node_visits);
            }
        }
    }

    #[test]
    fn delta_solve_scopes_to_downstream_components_only() {
        // A long chain edited near the end: a forward delta re-solves only
        // the suffix, a backward delta only the prefix.
        let mut text = String::from("fn chain {\n entry:\n jmp b0\n");
        for i in 0..20 {
            text.push_str(&format!(" b{i}:\n jmp b{}\n", i + 1));
        }
        text.push_str(" b20:\n ret\n }");
        let f = parse_function(&text).unwrap();
        let view = CfgView::new(&f);
        let mut scratch = SolverScratch::new();
        let edited = f.block_by_name("b18").unwrap();
        for (direction, expect_resolved) in [(Direction::Forward, 3), (Direction::Backward, 20)] {
            let p = Problem::new(
                &f,
                4,
                direction,
                Confluence::May,
                seeded_transfers(f.num_blocks(), 4, 1),
            );
            let prev = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
            let mut transfer = seeded_transfers(f.num_blocks(), 4, 1);
            transfer[edited.index()].gen.insert(2);
            let q = Problem::new(&f, 4, direction, Confluence::May, transfer);
            let fresh = q.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
            let (delta, info) = q
                .try_delta_solve_with(&view, &mut scratch, &prev, &[edited])
                .unwrap();
            assert_eq!(fresh.ins, delta.ins);
            assert_eq!(fresh.outs, delta.outs);
            assert_eq!(info.blocks_resolved, expect_resolved, "{direction:?}");
            assert!(
                delta.stats.node_visits < fresh.stats.node_visits,
                "{direction:?}: delta {} vs fresh {}",
                delta.stats.node_visits,
                fresh.stats.node_visits
            );
        }
    }

    #[test]
    fn delta_solve_shape_mismatch_falls_back_to_full_solve() {
        let f = multi_scc_fn();
        let g = loop_fn(); // different shape
        let view = CfgView::new(&f);
        let gview = CfgView::new(&g);
        let mut scratch = SolverScratch::new();
        let p_old = Problem::new(
            &g,
            8,
            Direction::Forward,
            Confluence::Must,
            seeded_transfers(g.num_blocks(), 8, 0),
        );
        let prev = p_old.solve_with(SolveStrategy::SccPriority, &gview, &mut scratch);
        let q = Problem::new(
            &f,
            8,
            Direction::Forward,
            Confluence::Must,
            seeded_transfers(f.num_blocks(), 8, 0),
        );
        let fresh = q.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        let (delta, info) = q
            .try_delta_solve_with(&view, &mut scratch, &prev, &[f.entry()])
            .unwrap();
        assert!(info.full_fallback);
        assert_eq!(info.blocks_resolved, f.num_blocks());
        assert_eq!(fresh.ins, delta.ins);
        assert_eq!(fresh.outs, delta.outs);

        // A *narrower* previous fixpoint no longer falls back: retained
        // rows widen in place. The seeded transfers gain arbitrary bits in
        // the new columns at every block, so every block is changed — the
        // caller's completeness contract — and the result still matches a
        // fresh wide solve bit for bit.
        let wide = Problem::new(
            &f,
            16,
            Direction::Forward,
            Confluence::Must,
            seeded_transfers(f.num_blocks(), 16, 0),
        );
        let all: Vec<BlockId> = (0..f.num_blocks()).map(BlockId::from_index).collect();
        let (w, info) = wide
            .try_delta_solve_with(&view, &mut scratch, &fresh, &all)
            .unwrap();
        assert!(!info.full_fallback);
        assert!(info.widened);
        assert_eq!(
            w.ins,
            wide.solve_with(SolveStrategy::SccPriority, &view, &mut scratch)
                .ins
        );

        // A *wider* previous fixpoint still falls back: columns cannot be
        // dropped in place, shrink is the caller's remapping job.
        let narrow = Problem::new(
            &f,
            8,
            Direction::Forward,
            Confluence::Must,
            seeded_transfers(f.num_blocks(), 8, 0),
        );
        let (nw, info) = narrow
            .try_delta_solve_with(&view, &mut scratch, &w, &[f.entry()])
            .unwrap();
        assert!(info.full_fallback);
        assert!(!info.widened);
        assert_eq!(nw.ins, fresh.ins);
    }

    #[test]
    fn delta_solve_with_empty_change_set_reproduces_prev() {
        let f = multi_scc_fn();
        let view = CfgView::new(&f);
        let mut scratch = SolverScratch::new();
        let p = Problem::new(
            &f,
            8,
            Direction::Backward,
            Confluence::Must,
            seeded_transfers(f.num_blocks(), 8, 2),
        );
        let prev = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        let (delta, info) = p
            .try_delta_solve_with(&view, &mut scratch, &prev, &[])
            .unwrap();
        assert!(!info.full_fallback);
        assert_eq!(info.blocks_resolved, 0);
        assert_eq!(info.components_resolved, 0);
        assert_eq!(delta.stats.node_visits, 0);
        assert_eq!(prev.ins, delta.ins);
        assert_eq!(prev.outs, delta.outs);
    }

    #[test]
    fn delta_solve_handles_boundary_and_edge_gen_changes() {
        // Diamond with edge gens: change one edge's gen and list its target
        // as changed; the delta must match a fresh solve.
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
        let l = f.block_by_name("l").unwrap();
        let view = CfgView::new(&f);
        let mut scratch = SolverScratch::new();
        let edges = EdgeList::new(&f);
        let gens = vec![BitSet::new(2); edges.len()];
        let transfer = vec![Transfer::identity(2); f.num_blocks()];
        let p = Problem::new(
            &f,
            2,
            Direction::Forward,
            Confluence::Must,
            transfer.clone(),
        )
        .with_edge_gen(edges.clone(), gens.clone());
        let prev = p.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);

        let (to_l, _) = edges
            .iter()
            .find(|(_, e)| e.from == f.entry() && e.to == l)
            .unwrap();
        let mut gens2 = gens;
        gens2[to_l.index()].insert(0);
        let q = Problem::new(&f, 2, Direction::Forward, Confluence::Must, transfer)
            .with_edge_gen(edges, gens2);
        let fresh = q.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        let (delta, info) = q
            .try_delta_solve_with(&view, &mut scratch, &prev, &[l])
            .unwrap();
        assert!(!info.full_fallback);
        assert_eq!(fresh.ins, delta.ins);
        assert_eq!(fresh.outs, delta.outs);

        // Changing the boundary with the entry block listed as changed.
        let mut boundary = BitSet::new(2);
        boundary.insert(1);
        let transfer = vec![Transfer::identity(2); f.num_blocks()];
        let b = Problem::new(&f, 2, Direction::Forward, Confluence::Must, transfer)
            .with_boundary(boundary);
        let fresh_b = b.solve_with(SolveStrategy::SccPriority, &view, &mut scratch);
        let (delta_b, info) = b
            .try_delta_solve_with(&view, &mut scratch, &prev, &[f.entry()])
            .unwrap();
        assert!(!info.full_fallback);
        assert_eq!(fresh_b.ins, delta_b.ins);
        assert_eq!(fresh_b.outs, delta_b.outs);
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in SolveStrategy::ALL {
            assert_eq!(s.name().parse::<SolveStrategy>().unwrap(), s);
        }
        assert_eq!(
            "round-robin".parse::<SolveStrategy>().unwrap(),
            SolveStrategy::RoundRobin
        );
        assert!("bogus".parse::<SolveStrategy>().is_err());
        assert_eq!(SolveStrategy::default(), SolveStrategy::SccPriority);
    }

    #[test]
    fn tight_sweep_bound_reports_divergence() {
        let f = loop_fn();
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(2); f.num_blocks()];
        transfer[body.index()].gen.insert(0);
        let p = Problem::new(&f, 2, Direction::Forward, Confluence::May, transfer)
            .with_name("tight")
            .with_sweep_bound(1);
        let err = p.try_solve().unwrap_err();
        assert_eq!(err.analysis, "tight");
        assert_eq!(err.sweeps, 1);
        assert!(err.to_string().contains("tight"));
        let view = CfgView::new(&f);
        let err = p
            .try_solve_with(SolveStrategy::SccPriority, &view, &mut SolverScratch::new())
            .unwrap_err();
        assert_eq!(err.analysis, "tight");
        // The SCC schedule's budget is `s` sweeps' worth of pops, reported
        // back in sweeps.
        assert_eq!(err.sweeps, 1);
    }

    #[test]
    fn derived_bound_is_generous_enough() {
        // The default budget must never fire on an honest monotone problem,
        // even around loops; and the solution must match the SCC schedule's.
        let f = loop_fn();
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(2); f.num_blocks()];
        transfer[body.index()].gen.insert(0);
        let p = Problem::new(&f, 2, Direction::Forward, Confluence::May, transfer);
        let rr = p.try_solve().unwrap();
        let view = CfgView::new(&f);
        let scc = p
            .try_solve_with(SolveStrategy::SccPriority, &view, &mut SolverScratch::new())
            .unwrap();
        assert_eq!(rr.ins, scc.ins);
        assert!((rr.stats.iterations as usize) <= view.retreating_edges() + 4);
    }

    #[test]
    #[should_panic(expected = "did not converge")]
    fn panicking_solver_reports_divergence_message() {
        let f = loop_fn();
        let body = f.block_by_name("body").unwrap();
        let mut transfer = vec![Transfer::identity(1); f.num_blocks()];
        transfer[body.index()].gen.insert(0);
        let p =
            Problem::new(&f, 1, Direction::Forward, Confluence::May, transfer).with_sweep_bound(1);
        let _ = p.solve();
    }

    #[test]
    #[should_panic(expected = "different function")]
    fn mismatched_view_panics() {
        let f = loop_fn();
        let g = parse_function("fn tiny {\n entry:\n ret\n }").unwrap();
        let transfer = vec![Transfer::identity(1); f.num_blocks()];
        let p = Problem::new(&f, 1, Direction::Forward, Confluence::May, transfer);
        let view = CfgView::new(&g);
        let _ = p.solve_with(SolveStrategy::RoundRobin, &view, &mut SolverScratch::new());
    }
}
