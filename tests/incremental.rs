//! The incremental re-optimization proof: across a seeded edit corpus
//! (content edits and shape edits, hundreds of mutate steps), the delta
//! path of `optimize_incremental_checked_with` produces **bit-identical** output to a
//! from-scratch solve — including universe growth/shrink (column
//! widening/remapping), mapped one-block shape edits (row permutation),
//! and the full-solve fallback on everything more complex — and every
//! result carries a fast-tier validation report.
//!
//! The corpus is the centerpiece evidence for the delta solver's
//! correctness argument: monotone gen/kill systems have a unique fixpoint,
//! so components outside the directional closure of an edit provably keep
//! their values — and fixpoints are equivariant under block/column
//! relabeling, so remapped seeds inherit the same argument; these tests
//! pin that theorem empirically, the way `tests/strategy_corpus.rs` pins
//! strategy equivalence.

use lcm::cfggen::{mutate_function, seeded, structured, GenOptions, MutationKind};
use lcm::core::{
    optimize, optimize_incremental_checked_with, IncrementalOutcome, IncrementalState, Optimized,
    PipelineError, PreAlgorithm, ValidationLevel,
};
use lcm::dataflow::{SolveStrategy, SolverScratch};
use lcm::ir::{parse_function, Function};

/// A fresh solve that retains its fixpoints, on the default solver.
fn fresh_state(f: &Function) -> IncrementalState {
    let scratch = &mut SolverScratch::new();
    IncrementalState::fresh_with(f, SolveStrategy::default(), scratch)
        .unwrap()
        .1
}

/// A delta solve against `prev` at the fast validation tier.
fn delta_solve(
    prev: &IncrementalState,
    f: &Function,
    seed: u64,
) -> Result<IncrementalOutcome, PipelineError> {
    let (level, strategy) = (ValidationLevel::Fast, SolveStrategy::default());
    optimize_incremental_checked_with(prev, f, level, seed, strategy, &mut SolverScratch::new())
}

fn assert_bit_identical(out: &IncrementalOutcome, fresh: &Optimized, tag: &str) {
    assert_eq!(
        out.optimized.function.to_string(),
        fresh.function.to_string(),
        "output text diverged: {tag}"
    );
    assert_eq!(
        out.optimized.plan.num_insertions(),
        fresh.plan.num_insertions(),
        "insertion count diverged: {tag}"
    );
    assert_eq!(
        out.optimized.transform.stats, fresh.transform.stats,
        "transform stats diverged: {tag}"
    );
    assert!(
        out.report.level != ValidationLevel::Off,
        "missing fast validation: {tag}"
    );
}

/// ≥200 seeded mutate steps over evolving functions: every step's
/// incremental result is bit-identical to a fresh solve, content edits
/// (including the ones that grow or shrink the expression universe)
/// *never* fall back, mapped shape edits stay on the delta path, and
/// non-fallback delta solves never visit more nodes than fresh ones
/// (strictly fewer on most).
#[test]
fn edit_corpus_is_bit_identical_to_fresh_solves() {
    let mut steps = 0usize;
    let mut content_steps = 0usize;
    let mut shape_steps = 0usize;
    let mut shape_mapped_steps = 0usize;
    let mut fallback_steps = 0usize;
    let mut universe_grow_steps = 0usize;
    let mut universe_shrink_steps = 0usize;
    let mut delta_steps = 0usize;
    let mut strictly_fewer = 0usize;

    for seed in 0..10u64 {
        let mut f = structured(seed, &GenOptions::default());
        let mut state = fresh_state(&f);
        let mut rng = seeded(seed ^ 0xED17_C0DE);
        for step in 0..24 {
            let mut next = f.clone();
            let kind = mutate_function(&mut next, &mut rng, 0.2);
            let tag = format!("seed {seed} step {step} ({kind:?})");

            let out = delta_solve(&state, &next, 42).unwrap();
            let fresh = optimize(&next, PreAlgorithm::LazyEdge).unwrap();
            assert_bit_identical(&out, &fresh, &tag);

            match kind {
                MutationKind::Shape => {
                    shape_steps += 1;
                    if out.stats.full_fallback {
                        fallback_steps += 1;
                    } else {
                        assert!(
                            out.stats.shape_mapped,
                            "unmapped shape edit on the delta path: {tag}"
                        );
                        shape_mapped_steps += 1;
                    }
                }
                MutationKind::Content => {
                    // The whole point of the universe delta: a content
                    // edit can never force a full solve anymore.
                    assert!(!out.stats.full_fallback, "content edit fell back: {tag}");
                    content_steps += 1;
                    if out.stats.universe_grew {
                        universe_grow_steps += 1;
                    }
                    if out.stats.universe_shrunk {
                        universe_shrink_steps += 1;
                    }
                }
            }
            if !out.stats.full_fallback {
                delta_steps += 1;
                let delta = out.optimized.pipeline_stats.unwrap().total().node_visits;
                let full = fresh.pipeline_stats.unwrap().total().node_visits;
                assert!(delta <= full, "delta visited more than fresh: {tag}");
                if delta < full {
                    strictly_fewer += 1;
                }
            }

            state = out.state;
            f = next;
            steps += 1;
        }
    }

    assert!(steps >= 200, "corpus shrank to {steps} steps");
    assert!(shape_steps >= 10, "only {shape_steps} shape edits");
    assert!(
        shape_mapped_steps >= 5,
        "only {shape_mapped_steps} mapped shape edits"
    );
    assert!(content_steps >= 100, "only {content_steps} content edits");
    assert!(
        universe_grow_steps >= 3,
        "only {universe_grow_steps} universe-growing edits"
    );
    assert!(
        universe_shrink_steps >= 1,
        "only {universe_shrink_steps} universe-shrinking edits"
    );
    assert!(
        fallback_steps < shape_steps,
        "every shape edit fell back ({fallback_steps}/{shape_steps})"
    );
    assert!(delta_steps >= 50, "only {delta_steps} delta-path steps");
    assert!(
        strictly_fewer * 2 >= delta_steps,
        "delta solves rarely cheaper: {strictly_fewer}/{delta_steps}"
    );
}

fn run_pair(t1: &str, t2: &str) -> (IncrementalOutcome, Optimized, Function) {
    let f1 = parse_function(t1).unwrap();
    let f2 = parse_function(t2).unwrap();
    let state = fresh_state(&f1);
    let out = delta_solve(&state, &f2, 7).unwrap();
    let fresh = optimize(&f2, PreAlgorithm::LazyEdge).unwrap();
    (out, fresh, f2)
}

const BASE: &str = "fn g {
    entry:
      x = a + b
      br c, mid, side
    mid:
      t = c + d
      jmp join
    side:
      u = c + d
      jmp join
    join:
      y = a + b
      z = c + d
      obs y
      obs z
      ret
    }";

/// An edit that only changes a block's kill set (no occurrence added or
/// removed): appending `a = 1` to `mid` kills `a + b` through that arm.
#[test]
fn kill_set_only_edit_stays_on_the_delta_path() {
    let edited = BASE.replace("t = c + d", "t = c + d\n      a = 1");
    let (out, fresh, _) = run_pair(BASE, &edited);
    assert!(!out.stats.full_fallback);
    assert_eq!(out.stats.dirty_blocks, 1);
    assert_bit_identical(&out, &fresh, "kill-set-only edit");
}

/// An edit that empties a block entirely. The expressions it computed
/// still occur elsewhere, so the universe (and the delta path) survive.
#[test]
fn emptied_block_stays_on_the_delta_path() {
    let edited = BASE.replace("t = c + d\n      jmp join", "jmp join");
    let (out, fresh, _) = run_pair(BASE, &edited);
    assert!(!out.stats.full_fallback);
    assert_bit_identical(&out, &fresh, "emptied block");
}

/// An edit touching the entry block — the boundary row of the forward
/// problems and the virtual-entry EARLIEST both sit there. (`a = 1` kills
/// `a + b` out of the entry without disturbing variable interning.)
#[test]
fn entry_block_edit_stays_on_the_delta_path() {
    let edited = BASE.replace("x = a + b\n      br", "x = a + b\n      a = 1\n      br");
    let (out, fresh, _) = run_pair(BASE, &edited);
    assert!(!out.stats.full_fallback);
    assert_bit_identical(&out, &fresh, "entry-block edit");
}

/// A content edit introducing a brand-new expression: the universe grows
/// by one column, retained rows widen in place (new bits ⊥), and only the
/// edited block goes dirty. New variables intern *after* all existing
/// ones, so the rest of the function stays index-identical.
#[test]
fn universe_growing_edit_widens_in_place() {
    let edited = BASE.replace("obs y", "w = c + e\n      obs y");
    let (out, fresh, _) = run_pair(BASE, &edited);
    assert!(!out.stats.full_fallback, "universe growth fell back");
    assert!(out.stats.universe_grew && !out.stats.universe_shrunk);
    assert!(!out.stats.shape_mapped);
    assert_eq!(out.stats.dirty_blocks, 1);
    assert_bit_identical(&out, &fresh, "universe-growing edit");
}

/// The reverse edit: the only occurrence of an expression disappears, the
/// universe shrinks, and the retained columns are remapped (a prefix
/// here) instead of forcing a full solve.
#[test]
fn universe_shrinking_edit_remaps_columns() {
    let grown = BASE.replace("obs y", "w = c + e\n      obs y");
    let (out, fresh, _) = run_pair(&grown, BASE);
    assert!(!out.stats.full_fallback, "universe shrink fell back");
    assert!(out.stats.universe_shrunk && !out.stats.universe_grew);
    assert_bit_identical(&out, &fresh, "universe-shrinking edit");
}

/// A single block split — `mid`'s tail moves into a new block carrying
/// its old terminator — is recognized by the shape mapper: rows permute
/// through the old→new block map, no fallback.
#[test]
fn block_split_is_mapped_onto_the_delta_path() {
    let two_instr = BASE.replace("t = c + d", "t = c + d\n      v = a + b");
    let split = two_instr.replace(
        "v = a + b\n      jmp join",
        "jmp cont\n    cont:\n      v = a + b\n      jmp join",
    );
    let (out, fresh, _) = run_pair(&two_instr, &split);
    assert!(!out.stats.full_fallback, "block split fell back");
    assert!(out.stats.shape_mapped);
    assert_bit_identical(&out, &fresh, "block split");
}

/// A straight-line block inserted on one edge is the other recognized
/// shape edit: the anchor redirects a single successor into the new
/// block, which jumps straight on.
#[test]
fn inserted_block_is_mapped_and_still_matches() {
    let edited = BASE.replace(
        "side:\n      u = c + d",
        "side:\n      u = c + d\n      jmp hop\n    hop:",
    );
    let (out, fresh, _) = run_pair(BASE, &edited);
    assert!(!out.stats.full_fallback, "inserted block fell back");
    assert!(out.stats.shape_mapped);
    assert_bit_identical(&out, &fresh, "inserted block");
}

/// An edge retarget (same block count, different successor) is *not* one
/// of the mapped shapes: the strict fallback contract still applies — and
/// still matches a fresh solve bit for bit.
#[test]
fn edge_retarget_takes_the_fallback_and_still_matches() {
    let edited = BASE.replace("u = c + d\n      jmp join", "u = c + d\n      jmp mid");
    let (out, fresh, _) = run_pair(BASE, &edited);
    assert!(out.stats.full_fallback);
    assert_eq!(out.stats.delta_blocks_resolved, 0);
    assert!(!out.stats.shape_mapped);
    assert_bit_identical(&out, &fresh, "edge retarget");
}
