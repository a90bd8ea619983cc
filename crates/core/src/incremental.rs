//! Incremental re-optimization: delta-scoped LCM for edit streams.
//!
//! The full pipeline charges four passes per function per edit. This module
//! keeps the previous fixpoints alive in an [`IncrementalState`] and
//! re-solves only what an edit can actually perturb:
//!
//! 1. **classify** — the edit is mapped onto the retained state. The CFG
//!    shape may be identical, or differ by one recognized cheap edit (a
//!    single block split or a single inserted straight-line block), which
//!    yields an old→new block-index map to permute the retained rows
//!    through. The expression universe may be identical, *appended to*
//!    (retained columns keep their indices; the solver widens rows in
//!    place, new bits starting ⊥ — DESIGN.md §13 proves that exact per
//!    problem direction), or generally re-indexed (retained columns are
//!    rebuilt through an old→new index map). Anything more complex keeps
//!    the strict full-solve fallback contract;
//! 2. **diff + repair** — blocks whose instructions or terminator changed
//!    under the block map are *dirty* and get their local predicates
//!    rescanned ([`LocalPredicates::recompute_block`]); everything else
//!    keeps its rows (remapped when the universe moved, with added
//!    columns' transparency patched by a kill-mask scan);
//! 3. **delta solve** — availability and anticipability re-drain just the
//!    SCC components downstream (forward) or upstream (backward) of the
//!    dirty blocks ([`Problem::try_delta_solve_with`]); EARLIEST is then
//!    re-derived (linear in edges) and LATER re-solved with a changed set
//!    of dirty blocks ∪ targets of edges whose EARLIEST moved relative to
//!    the remapped baseline ∪ the entry block when the virtual-entry
//!    EARLIEST moved;
//! 4. **verify** — the result goes through the fast-tier validator
//!    *unconditionally* (the floor of the checked call,
//!    [`optimize_checked`](crate::optimize_checked)), so an unsound delta
//!    can never escape.
//!
//! Correctness rests on the framework's monotone-unique-fixpoint property:
//! components not in the directional closure of the change provably keep
//! their old values, so seeding them from the previous solution is exact,
//! not heuristic — and block/column remapping preserves that argument
//! because fixpoints of a gen/kill system are equivariant under relabeling
//! blocks and columns. The seeded edit corpus in `tests/incremental.rs`
//! pins the incremental and fresh pipelines bit-identical across hundreds
//! of content, universe and shape edits.
//!
//! [`Problem::try_delta_solve_with`]: lcm_dataflow::Problem::try_delta_solve_with

use std::borrow::Cow;

use lcm_dataflow::{
    BitMatrix, BitSet, CfgView, Solution, SolveStats, SolveStrategy, SolverScratch,
};
use lcm_ir::{BlockId, Function, Terminator};

use crate::analyses::{anticipability_problem, availability_problem, GlobalAnalyses};
use crate::lcm_edge::{derive_placement, later_problem};
use crate::pipeline::{self, PipelineStats};
use crate::predicates::LocalPredicates;
use crate::universe::ExprUniverse;
use crate::validate::ValidationReport;
use crate::{Optimized, PipelineError, PreAlgorithm};

/// The previous revision's analyses, kept warm between edits: everything
/// a delta solve needs to charge only for what changed. A retaining
/// [`Session`](crate::Session) holds one between calls.
#[derive(Clone, Debug)]
pub struct IncrementalState {
    /// The function the fixpoints below were computed for.
    function: Function,
    /// Its expression universe (delta solving requires it unchanged).
    universe: ExprUniverse,
    /// Local predicates per block.
    local: LocalPredicates,
    /// Availability + anticipability fixpoints and the derived EARLIEST.
    ga: GlobalAnalyses,
    /// The LATER/LATERIN fixpoint (the full solution, not just LATERIN —
    /// the delta solver seeds both matrices).
    later: Solution,
}

/// What the incremental path did for one edit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IncrementalStats {
    /// The edit was too complex to map onto the retained state (an edge
    /// retarget, a multi-block reshape, a block removal …), so the whole
    /// pipeline re-ran from scratch (the delta counters below stay zero).
    pub full_fallback: bool,
    /// Blocks whose instructions or terminator differed from the previous
    /// revision (under the block map, when the shape edit was mapped).
    pub dirty_blocks: usize,
    /// Blocks re-solved across the three delta solves (availability +
    /// anticipability + LATER) — the "what you paid for" number.
    pub delta_blocks_resolved: usize,
    /// The expression universe gained at least one expression; retained
    /// rows were widened in place (or column-remapped) instead of falling
    /// back.
    pub universe_grew: bool,
    /// The expression universe lost at least one expression; retained
    /// rows were column-remapped instead of falling back.
    pub universe_shrunk: bool,
    /// The CFG shape changed by one recognized cheap edit (single block
    /// split or single inserted straight-line block); retained rows were
    /// permuted through the old→new block map instead of falling back.
    pub shape_mapped: bool,
}

/// Wall-clock phase split of one checked call: the solve (diff, predicate
/// repair, remapping, the fixpoint solves, placement and rewrite) versus
/// the tail (validation). Timings are measurement metadata and
/// deliberately live outside [`IncrementalStats`], which is `Eq` and
/// participates in determinism comparisons.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseNanos {
    /// Nanoseconds from the start of the solve through the rewritten
    /// function.
    pub solve_ns: u64,
    /// Nanoseconds for everything after it: validation in the call, and
    /// whatever else a driver charges to the unit's tail.
    pub tail_ns: u64,
}

/// Everything [`optimize_incremental_checked_with`](crate::optimize_incremental_checked_with)
/// returns: the optimized result, the validator's report, the refreshed
/// state for the next edit, and the delta accounting.
#[derive(Clone, Debug)]
pub struct IncrementalOutcome {
    /// The optimization result, identical to what [`crate::optimize`]
    /// would produce for the same input.
    pub optimized: Optimized,
    /// The validation report (fast tier at minimum, unconditionally).
    pub report: ValidationReport,
    /// State to pass as `prev` on the next edit of this function.
    pub state: IncrementalState,
    /// Delta accounting for this edit.
    pub stats: IncrementalStats,
    /// Wall-clock phase split (solve vs tail) of this call.
    pub phases: PhaseNanos,
}

impl IncrementalState {
    /// Runs the full lazy-code-motion pipeline on `f` with an explicit
    /// [`SolveStrategy`] and a caller-owned [`SolverScratch`], and captures
    /// every fixpoint for later delta solves. The [`Optimized`] result is
    /// identical to [`crate::optimize`] with [`PreAlgorithm::LazyEdge`].
    /// Unvalidated: the checked call's fresh solve validates it.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Solver`] if any analysis exceeds its
    /// derived sweep bound.
    pub fn fresh_with(
        f: &Function,
        strategy: SolveStrategy,
        scratch: &mut SolverScratch,
    ) -> Result<(Optimized, IncrementalState), PipelineError> {
        let (p, later) = pipeline::solve(f, strategy, scratch, true)?;
        let optimized = Optimized::realise(
            Cow::Borrowed(f),
            &p.universe,
            &p.local,
            p.lazy.plan,
            PreAlgorithm::LazyEdge,
            Some(p.stats),
            None,
        );
        let state = IncrementalState {
            function: f.clone(),
            universe: p.universe,
            local: p.local,
            ga: p.analyses,
            later: later.expect("the fused solve keeps LATER when asked"),
        };
        Ok((optimized, state))
    }

    /// The function this state's fixpoints belong to.
    pub fn function(&self) -> &Function {
        &self.function
    }

    /// Scrambles the stored fixpoints with seeded noise while keeping
    /// their shape intact, so the next delta solve against this state
    /// seeds from garbage. Exists for fault-injection harnesses
    /// (`lcm-faults`): the unconditional fast validation must catch any
    /// resulting unsound plan — never silently wrong.
    pub fn poison_solutions(&mut self, seed: u64) {
        let mut state = seed | 1;
        scramble_matrix(&mut self.ga.avail.ins, &mut state);
        scramble_matrix(&mut self.ga.avail.outs, &mut state);
        scramble_matrix(&mut self.ga.antic.ins, &mut state);
        scramble_matrix(&mut self.ga.antic.outs, &mut state);
        scramble_matrix(&mut self.later.ins, &mut state);
        scramble_matrix(&mut self.later.outs, &mut state);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn scramble_matrix(m: &mut BitMatrix, state: &mut u64) {
    for r in 0..m.n_rows() {
        let mut row = BitSet::new(m.nbits());
        for i in 0..m.nbits() {
            if splitmix64(state) & 1 == 1 {
                row.insert(i);
            }
        }
        m.set_row(r, &row);
    }
}

/// True iff `f` has the same CFG shape as `prev`: block count, entry/exit,
/// and every block's successor list (order-sensitive — edge numbering must
/// survive). Block *contents* and labels are free to differ.
fn same_shape(prev: &Function, f: &Function) -> bool {
    prev.num_blocks() == f.num_blocks()
        && prev.entry() == f.entry()
        && prev.exit() == f.exit()
        && f.block_ids().all(|b| {
            prev.block(b)
                .term
                .successors()
                .eq(f.block(b).term.successors())
        })
}

/// How the new expression universe relates to the retained one.
enum UniverseDelta {
    /// Bit-identical: retained rows and predicates are column-correct.
    Same,
    /// The old universe is a prefix of the new one: retained rows keep
    /// their column layout and the solver widens them in place.
    Append,
    /// General re-indexing: old column `i` lives at `old_to_new[i]` in the
    /// new universe (or left it); retained rows are rebuilt column by
    /// column.
    Remap { old_to_new: Vec<Option<usize>> },
}

/// Classifies the universe edit and reports `(delta, grew, shrunk)`.
fn universe_delta(old: &ExprUniverse, new: &ExprUniverse) -> (UniverseDelta, bool, bool) {
    if old == new {
        return (UniverseDelta::Same, false, false);
    }
    let old_to_new: Vec<Option<usize>> = old.exprs().iter().map(|&e| new.index_of(e)).collect();
    let mapped = old_to_new.iter().filter(|m| m.is_some()).count();
    let grew = new.len() > mapped;
    let shrunk = mapped < old.len();
    if !shrunk && old_to_new.iter().enumerate().all(|(i, m)| *m == Some(i)) {
        (UniverseDelta::Append, grew, false)
    } else {
        (UniverseDelta::Remap { old_to_new }, grew, shrunk)
    }
}

/// The mask of new-universe columns with no old counterpart — the
/// expressions whose bits must start ⊥ in retained rows and whose
/// transparency needs the kill patch below.
fn added_columns(delta: &UniverseDelta, old_len: usize, new: &ExprUniverse) -> BitSet {
    let mut added = new.empty_set();
    match delta {
        UniverseDelta::Same => {}
        UniverseDelta::Append => {
            for i in old_len..new.len() {
                added.insert(i);
            }
        }
        UniverseDelta::Remap { old_to_new } => {
            added.insert_all();
            for &m in old_to_new.iter().flatten() {
                added.remove(m);
            }
        }
    }
    added
}

/// Carries a retained bit set into the new universe's column layout.
fn remap_set(old: &BitSet, delta: &UniverseDelta, new_len: usize) -> BitSet {
    match delta {
        UniverseDelta::Same => old.clone(),
        UniverseDelta::Append => {
            let mut s = BitSet::new(new_len);
            for b in old.iter() {
                s.insert(b);
            }
            s
        }
        UniverseDelta::Remap { old_to_new } => {
            let mut s = BitSet::new(new_len);
            for b in old.iter() {
                if let Some(nb) = old_to_new[b] {
                    s.insert(nb);
                }
            }
            s
        }
    }
}

/// The old→new block map of a recognized single-block shape edit, plus
/// the one new block with no old counterpart.
struct ShapeMap {
    old_to_new: Vec<BlockId>,
    new_block: BlockId,
}

/// Structural terminator equality under a block relabeling: same variant,
/// same condition operand, successors equal after mapping.
fn term_matches_mapped(old: &Terminator, new: &Terminator, m: &[BlockId]) -> bool {
    match (old, new) {
        (Terminator::Jump(a), Terminator::Jump(b)) => m[a.index()] == *b,
        (
            Terminator::Branch {
                cond: c1,
                then_to: t1,
                else_to: e1,
            },
            Terminator::Branch {
                cond: c2,
                then_to: t2,
                else_to: e2,
            },
        ) => c1 == c2 && m[t1.index()] == *t2 && m[e1.index()] == *e2,
        (Terminator::Exit, Terminator::Exit) => true,
        _ => false,
    }
}

/// Recognizes the two cheap one-block CFG edits by diffing successor
/// structure: a **single block split** (the anchor's tail moved into a new
/// block carrying its old terminator) and a **single inserted
/// straight-line block** on one edge (the anchor redirects exactly one
/// successor to a new block that jumps straight on to the old target).
/// Both leave every other block's terminator structurally intact under
/// the insertion map `m(i) = i` for `i < p`, `i + 1` otherwise.
///
/// Returns `None` for anything else — block removal, multi-block edits,
/// edge retargets, a new entry/exit — which keeps the full-solve fallback.
/// Any consistent map is sound (fixpoints are equivariant under the
/// relabeling and the dirty set re-checks content at mapped indices), so
/// the first insertion position that validates wins.
fn map_shape_edit(prev: &Function, f: &Function) -> Option<ShapeMap> {
    let n_old = prev.num_blocks();
    if f.num_blocks() != n_old + 1 {
        return None;
    }
    'position: for p in 0..f.num_blocks() {
        let m: Vec<BlockId> = (0..n_old)
            .map(|i| BlockId::from_index(if i < p { i } else { i + 1 }))
            .collect();
        let nb = BlockId::from_index(p);
        // Entry and exit must have old counterparts (a new entry or exit
        // block changes the boundary rows in ways the map cannot carry).
        if m[prev.entry().index()] != f.entry() || m[prev.exit().index()] != f.exit() {
            continue;
        }
        // At most one old block — the anchor — may have a structurally
        // different terminator under the map.
        let mut anchor = None;
        for i in 0..n_old {
            let ob = BlockId::from_index(i);
            if !term_matches_mapped(&prev.block(ob).term, &f.block(m[i]).term, &m)
                && anchor.replace(i).is_some()
            {
                continue 'position;
            }
        }
        // No anchor would leave the new block unreachable — not a valid
        // verified function, so this position cannot be the edit.
        let Some(a) = anchor else { continue };
        let old_term = &prev.block(BlockId::from_index(a)).term;
        let new_term = &f.block(m[a]).term;
        // Pattern 1 — block split: the anchor now jumps to the new block,
        // which carries the anchor's original terminator.
        if *new_term == Terminator::Jump(nb) && term_matches_mapped(old_term, &f.block(nb).term, &m)
        {
            return Some(ShapeMap {
                old_to_new: m,
                new_block: nb,
            });
        }
        // Pattern 2 — inserted straight-line block: same terminator with
        // exactly one successor redirected to the new block, which jumps
        // straight on to that successor's old target.
        let cond_ok = match (old_term, new_term) {
            (Terminator::Jump(_), Terminator::Jump(_)) => true,
            (Terminator::Branch { cond: c1, .. }, Terminator::Branch { cond: c2, .. }) => c1 == c2,
            _ => false,
        };
        if cond_ok {
            let old_s: Vec<BlockId> = old_term.successors().map(|s| m[s.index()]).collect();
            let new_s: Vec<BlockId> = new_term.successors().collect();
            if old_s.len() == new_s.len() {
                let diffs: Vec<usize> =
                    (0..old_s.len()).filter(|&k| old_s[k] != new_s[k]).collect();
                if let [k] = diffs[..] {
                    if new_s[k] == nb && f.block(nb).term == Terminator::Jump(old_s[k]) {
                        return Some(ShapeMap {
                            old_to_new: m,
                            new_block: nb,
                        });
                    }
                }
            }
        }
    }
    None
}

/// Rebuilds a retained solution matrix in the new layout: rows permuted
/// through the block map, columns carried by the universe delta. With
/// `Same`/`Append` columns the old layout survives verbatim (word copy;
/// `Append` stays at the old width and rides the solver's in-place
/// widening); `Remap` rebuilds bit by bit. The unmapped new block's row
/// stays zero — it is always dirty, so the solver reinitialises it.
fn remap_matrix(
    src: &BitMatrix,
    map_row: impl Fn(usize) -> usize,
    n_new: usize,
    udelta: &UniverseDelta,
    new_len: usize,
) -> BitMatrix {
    match udelta {
        UniverseDelta::Same | UniverseDelta::Append => {
            let mut m = BitMatrix::new(n_new, src.nbits());
            for r in 0..src.n_rows() {
                m.row_mut(map_row(r)).copy_from_slice(src.row(r));
            }
            m
        }
        UniverseDelta::Remap { old_to_new } => {
            let mut m = BitMatrix::new(n_new, new_len);
            for r in 0..src.n_rows() {
                let nr = map_row(r);
                for bit in src.row_iter(r) {
                    if let Some(nb) = old_to_new[bit] {
                        m.set(nr, nb);
                    }
                }
            }
            m
        }
    }
}

/// The checked call's retained solve, unvalidated: a delta against `prev`,
/// or [`IncrementalState::fresh_with`] when there is none or the edit
/// cannot be mapped onto it (a [`IncrementalStats::full_fallback`]).
pub(crate) fn solve(
    prev: Option<&IncrementalState>,
    f: &Function,
    strategy: SolveStrategy,
    scratch: &mut SolverScratch,
) -> Result<(Optimized, IncrementalState, IncrementalStats), PipelineError> {
    if let Some(prev) = prev {
        if let Some(delta) = delta(prev, f, scratch)? {
            return Ok(delta);
        }
    }
    let (optimized, state) = IncrementalState::fresh_with(f, strategy, scratch)?;
    let stats = IncrementalStats {
        full_fallback: prev.is_some(),
        ..IncrementalStats::default()
    };
    Ok((optimized, state, stats))
}

/// Re-solves an edited revision of `prev`'s function, paying only for the
/// blocks the edit can influence (see the module documentation); `None`
/// for an edit too complex to map — the strict full-solve fallback.
fn delta(
    prev: &IncrementalState,
    f: &Function,
    scratch: &mut SolverScratch,
) -> Result<Option<(Optimized, IncrementalState, IncrementalStats)>, PipelineError> {
    // Classify the shape edit: identity, one recognized cheap edit (block
    // map), or too complex.
    let shape_map: Option<ShapeMap> = if same_shape(&prev.function, f) {
        None
    } else {
        let Some(sm) = map_shape_edit(&prev.function, f) else {
            return Ok(None);
        };
        Some(sm)
    };
    let uni = ExprUniverse::of(f);
    let shape_mapped = shape_map.is_some();
    let (udelta, universe_grew, universe_shrunk) = universe_delta(&prev.universe, &uni);
    let map_block = |i: usize| shape_map.as_ref().map_or(i, |sm| sm.old_to_new[i].index());
    let n_old = prev.function.num_blocks();
    let n_new = f.num_blocks();

    // Diff block contents under the block map. Instruction equality is
    // variable-index equality, which is exactly the granularity the
    // analyses see — an index-identical block has index-identical transfer
    // functions, and any renumbering shows up as an inequality (dirty is
    // conservative, never unsound). The new block of a mapped shape edit
    // has no old counterpart and is always dirty.
    let mut is_dirty = vec![false; n_new];
    for i in 0..n_old {
        let ob = BlockId::from_index(i);
        let nb = BlockId::from_index(map_block(i));
        let term_same = match &shape_map {
            None => prev.function.block(ob).term == f.block(nb).term,
            Some(sm) => term_matches_mapped(
                &prev.function.block(ob).term,
                &f.block(nb).term,
                &sm.old_to_new,
            ),
        };
        if prev.function.block(ob).instrs != f.block(nb).instrs || !term_same {
            is_dirty[nb.index()] = true;
        }
    }
    if let Some(sm) = &shape_map {
        is_dirty[sm.new_block.index()] = true;
    }
    let dirty: Vec<BlockId> = f.block_ids().filter(|b| is_dirty[b.index()]).collect();

    // Local predicates: verbatim clone in the common case, otherwise carried
    // through both maps. Added columns are antloc/comp-zero at every
    // non-dirty block — a new expression can only enter through an
    // index-changed (hence dirty) block — but default transparent, so each
    // retained block's kills are re-scanned restricted to the added mask.
    let mut local = match (&shape_map, &udelta) {
        (None, UniverseDelta::Same) => prev.local.clone(),
        _ => {
            let added = added_columns(&udelta, prev.universe.len(), &uni);
            let mut lp = LocalPredicates {
                antloc: vec![uni.empty_set(); n_new],
                comp: vec![uni.empty_set(); n_new],
                transp: vec![uni.full_set(); n_new],
                kill: vec![uni.empty_set(); n_new],
            };
            let mut killed = uni.empty_set();
            for i in 0..n_old {
                let j = map_block(i);
                if is_dirty[j] {
                    continue; // recomputed below
                }
                lp.antloc[j] = remap_set(&prev.local.antloc[i], &udelta, uni.len());
                lp.comp[j] = remap_set(&prev.local.comp[i], &udelta, uni.len());
                let mut t = remap_set(&prev.local.transp[i], &udelta, uni.len());
                if !added.is_empty() {
                    t.union_with(&added);
                    killed.clear();
                    for instr in &f.block(BlockId::from_index(j)).instrs {
                        if let Some(dst) = instr.def() {
                            if let Some(mask) = uni.kill_mask(dst) {
                                killed.union_with(mask);
                            }
                        }
                        if instr.kills_memory() {
                            killed.union_with(uni.mem_mask());
                        }
                    }
                    killed.intersect_with(&added);
                    t.difference_with(&killed);
                }
                let mut k = t.clone();
                k.complement();
                lp.transp[j] = t;
                lp.kill[j] = k;
            }
            lp
        }
    };
    for &b in &dirty {
        local.recompute_block(f, &uni, b);
    }

    // Retained solutions: borrowed verbatim when the layout survives
    // (identity shape × Same/Append columns — Append rides the solver's
    // in-place row widening), otherwise rebuilt through both maps.
    let needs_matrix_remap = shape_mapped || matches!(udelta, UniverseDelta::Remap { .. });
    let remapped: Option<(Solution, Solution, Solution)> = if needs_matrix_remap {
        let remap_solution = |s: &Solution| Solution {
            ins: remap_matrix(&s.ins, map_block, n_new, &udelta, uni.len()),
            outs: remap_matrix(&s.outs, map_block, n_new, &udelta, uni.len()),
            stats: SolveStats::new(),
        };
        Some((
            remap_solution(&prev.ga.avail),
            remap_solution(&prev.ga.antic),
            remap_solution(&prev.later),
        ))
    } else {
        None
    };
    let (prev_avail, prev_antic, prev_later) = match &remapped {
        Some((a, n, l)) => (a, n, l),
        None => (&prev.ga.avail, &prev.ga.antic, &prev.later),
    };

    let view = CfgView::new(f);
    let (avail, avail_info) = availability_problem(f, &uni, &local)
        .try_delta_solve_with(&view, scratch, prev_avail, &dirty)?;
    let (antic, antic_info) = anticipability_problem(f, &uni, &local)
        .try_delta_solve_with(&view, scratch, prev_antic, &dirty)?;

    // EARLIEST is a per-edge derivation, linear and allocation-light —
    // recompute it wholesale and *diff* it against the previous revision
    // (carried through both maps) to scope the LATER delta: an edge whose
    // gen set moved invalidates its target, a moved virtual-entry EARLIEST
    // invalidates the LATER boundary at the entry block, and an edge with
    // no old counterpart (the new block's edges, the anchor's edges)
    // invalidates its target unconditionally.
    let ga = GlobalAnalyses::derive(f, &uni, &local, avail, antic);
    let mut later_dirty = vec![false; n_new];
    for &b in &dirty {
        later_dirty[b.index()] = true;
    }
    if !shape_mapped && matches!(udelta, UniverseDelta::Same) {
        for (eid, edge) in ga.edges.iter() {
            if ga.earliest[eid.index()] != prev.ga.earliest[eid.index()] {
                later_dirty[edge.to.index()] = true;
            }
        }
        if ga.earliest_entry != prev.ga.earliest_entry {
            later_dirty[f.entry().index()] = true;
        }
    } else {
        let mut pre_of_new: Vec<Option<BlockId>> = vec![None; n_new];
        for i in 0..n_old {
            pre_of_new[map_block(i)] = Some(BlockId::from_index(i));
        }
        for (eid, edge) in ga.edges.iter() {
            let mapped_old = pre_of_new[edge.from.index()].and_then(|o| {
                let term_ok = match &shape_map {
                    None => prev.function.block(o).term == f.block(edge.from).term,
                    Some(sm) => term_matches_mapped(
                        &prev.function.block(o).term,
                        &f.block(edge.from).term,
                        &sm.old_to_new,
                    ),
                };
                if !term_ok {
                    return None; // the anchor's edges count as changed
                }
                prev.ga
                    .edges
                    .outgoing(o)
                    .get(edge.succ_index as usize)
                    .copied()
            });
            let changed = match mapped_old {
                None => true,
                Some(old_eid) => {
                    ga.earliest[eid.index()]
                        != remap_set(&prev.ga.earliest[old_eid.index()], &udelta, uni.len())
                }
            };
            if changed {
                later_dirty[edge.to.index()] = true;
            }
        }
        if ga.earliest_entry != remap_set(&prev.ga.earliest_entry, &udelta, uni.len()) {
            later_dirty[f.entry().index()] = true;
        }
    }
    let later_changed: Vec<BlockId> = f.block_ids().filter(|b| later_dirty[b.index()]).collect();

    let (later, later_info) = later_problem(f, &uni, &local, &ga).try_delta_solve_with(
        &view,
        scratch,
        prev_later,
        &later_changed,
    )?;
    let lazy = derive_placement(f, &uni, &local, &ga, later.clone());
    let pipeline_stats = PipelineStats {
        avail: ga.avail.stats,
        antic: ga.antic.stats,
        later: lazy.stats,
    };
    let optimized = Optimized::realise(
        Cow::Borrowed(f),
        &uni,
        &local,
        lazy.plan,
        PreAlgorithm::LazyEdge,
        Some(pipeline_stats),
        None,
    );
    let stats = IncrementalStats {
        full_fallback: avail_info.full_fallback
            || antic_info.full_fallback
            || later_info.full_fallback,
        dirty_blocks: dirty.len(),
        delta_blocks_resolved: avail_info.blocks_resolved
            + antic_info.blocks_resolved
            + later_info.blocks_resolved,
        universe_grew,
        universe_shrunk,
        shape_mapped,
    };
    let state = IncrementalState {
        function: f.clone(),
        universe: uni,
        local,
        ga,
        later,
    };
    Ok(Some((optimized, state, stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::ValidationLevel;
    use crate::{optimize, optimize_incremental_checked_with};
    use lcm_ir::parse_function;

    fn fresh(f: &Function) -> (Optimized, IncrementalState) {
        IncrementalState::fresh_with(f, SolveStrategy::default(), &mut SolverScratch::new())
            .unwrap()
    }

    fn delta_solve(
        prev: &IncrementalState,
        f: &Function,
        level: ValidationLevel,
    ) -> Result<IncrementalOutcome, PipelineError> {
        let strategy = SolveStrategy::default();
        optimize_incremental_checked_with(prev, f, level, 7, strategy, &mut SolverScratch::new())
    }

    fn chain_text(mid: &str) -> String {
        format!(
            "fn chain {{
             entry:
               x = a + b
               jmp b0
             b0:
               t0 = a + b
               jmp b1
             b1:
               {mid}
               jmp b2
             b2:
               t2 = a + b
               jmp end
             end:
               y = a + b
               obs y
               ret
             }}"
        )
    }

    fn assert_same_result(out: &IncrementalOutcome, f2: &Function) {
        let fresh = optimize(f2, PreAlgorithm::LazyEdge).unwrap();
        assert_eq!(
            out.optimized.function.to_string(),
            fresh.function.to_string()
        );
        assert_eq!(
            out.optimized.plan.num_insertions(),
            fresh.plan.num_insertions()
        );
    }

    #[test]
    fn content_edit_matches_fresh_and_visits_fewer_nodes() {
        let f1 = parse_function(&chain_text("t1 = a + b")).unwrap();
        // `t1 = a` keeps the variable interning order (so only b1 is
        // index-unequal) but drops b1's occurrence of a + b.
        let f2 = parse_function(&chain_text("t1 = a")).unwrap();
        let (_, state) = fresh(&f1);
        let out = delta_solve(&state, &f2, ValidationLevel::Fast).unwrap();
        assert!(!out.stats.full_fallback);
        assert_eq!(out.stats.dirty_blocks, 1);
        assert!(out.stats.delta_blocks_resolved > 0);
        assert_same_result(&out, &f2);
        let fresh = optimize(&f2, PreAlgorithm::LazyEdge).unwrap();
        let delta_visits = out.optimized.pipeline_stats.unwrap().total().node_visits;
        let fresh_visits = fresh.pipeline_stats.unwrap().total().node_visits;
        assert!(
            delta_visits < fresh_visits,
            "delta visited {delta_visits}, fresh {fresh_visits}"
        );
    }

    #[test]
    fn identical_revision_is_free_and_identical() {
        let f = parse_function(&chain_text("t1 = a + b")).unwrap();
        let (first, state) = fresh(&f);
        let out = delta_solve(&state, &f, ValidationLevel::Fast).unwrap();
        assert_eq!(out.stats.dirty_blocks, 0);
        assert_eq!(out.stats.delta_blocks_resolved, 0);
        assert!(!out.stats.full_fallback);
        assert_eq!(
            out.optimized.function.to_string(),
            first.function.to_string()
        );
    }

    #[test]
    fn shape_edit_falls_back_to_full_solve() {
        let f1 = parse_function(&chain_text("t1 = a + b")).unwrap();
        // b1 now branches back to b0: one extra edge, same block count.
        let f2 = parse_function(
            "fn chain {
             entry:
               x = a + b
               jmp b0
             b0:
               t0 = a + b
               jmp b1
             b1:
               t1 = a + b
               br t0, b2, b0
             b2:
               t2 = a + b
               jmp end
             end:
               y = a + b
               obs y
               ret
             }",
        )
        .unwrap();
        let (_, state) = fresh(&f1);
        let out = delta_solve(&state, &f2, ValidationLevel::Fast).unwrap();
        assert!(out.stats.full_fallback);
        assert_eq!(out.stats.delta_blocks_resolved, 0);
        assert_same_result(&out, &f2);
    }

    #[test]
    fn universe_growth_stays_on_the_delta_path() {
        let f1 = parse_function(&chain_text("t1 = a + b")).unwrap();
        // `a * b` appends one expression to the universe: retained rows
        // widen in place instead of falling back.
        let f2 = parse_function(&chain_text("t1 = a * b")).unwrap();
        let (_, state) = fresh(&f1);
        let out = delta_solve(&state, &f2, ValidationLevel::Fast).unwrap();
        assert!(!out.stats.full_fallback);
        assert!(out.stats.universe_grew);
        assert!(!out.stats.universe_shrunk && !out.stats.shape_mapped);
        assert_eq!(out.stats.dirty_blocks, 1);
        assert_same_result(&out, &f2);
    }

    #[test]
    fn universe_shrink_remaps_and_stays_on_the_delta_path() {
        let f1 = parse_function(&chain_text("t1 = a * b")).unwrap();
        // Dropping the only `a * b` occurrence shrinks the universe; the
        // retained columns are remapped (here: a prefix) rather than
        // forcing a full solve.
        let f2 = parse_function(&chain_text("t1 = a")).unwrap();
        let (_, state) = fresh(&f1);
        let out = delta_solve(&state, &f2, ValidationLevel::Fast).unwrap();
        assert!(!out.stats.full_fallback);
        assert!(out.stats.universe_shrunk);
        assert!(!out.stats.universe_grew);
        assert_same_result(&out, &f2);
    }

    #[test]
    fn inserted_block_is_mapped_and_stays_on_the_delta_path() {
        let f1 = parse_function(&chain_text("t1 = a + b")).unwrap();
        // A straight-line block inserted on the b1 → b2 edge: recognized
        // by the shape mapper, rows permuted, no fallback.
        let f2 = parse_function(
            "fn chain {
             entry:
               x = a + b
               jmp b0
             b0:
               t0 = a + b
               jmp b1
             b1:
               t1 = a + b
               jmp hop
             hop:
               jmp b2
             b2:
               t2 = a + b
               jmp end
             end:
               y = a + b
               obs y
               ret
             }",
        )
        .unwrap();
        let (_, state) = fresh(&f1);
        let out = delta_solve(&state, &f2, ValidationLevel::Fast).unwrap();
        assert!(!out.stats.full_fallback);
        assert!(out.stats.shape_mapped);
        assert_same_result(&out, &f2);
    }

    #[test]
    fn validation_level_off_is_promoted_to_fast() {
        let f = parse_function(&chain_text("t1 = a + b")).unwrap();
        let (_, state) = fresh(&f);
        let out = delta_solve(&state, &f, ValidationLevel::Off).unwrap();
        assert_eq!(out.report.level, ValidationLevel::Fast);
    }

    #[test]
    fn poisoned_state_never_escapes_silently() {
        let f1 = parse_function(&chain_text("t1 = a + b")).unwrap();
        let f2 = parse_function(&chain_text("a = 1")).unwrap();
        for seed in 0..8 {
            let (_, mut state) = fresh(&f1);
            state.poison_solutions(0xdead_beef ^ seed);
            match delta_solve(&state, &f2, ValidationLevel::Fast) {
                Err(PipelineError::Validation(_)) | Err(PipelineError::Solver(_)) => {}
                Err(other) => panic!("unexpected error class: {other}"),
                Ok(out) => {
                    // The scramble happened to leave a sound plan: the
                    // output must then be exactly the fresh result.
                    assert_same_result(&out, &f2);
                }
            }
        }
    }
}
