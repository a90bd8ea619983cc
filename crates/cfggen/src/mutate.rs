//! Seeded single-step mutations of existing functions — the edit-stream
//! generator behind the incremental re-optimization corpus.
//!
//! A *content* edit changes what a block computes (replace an assignment's
//! right-hand side, insert or delete an instruction, append a kill) while
//! leaving the CFG shape — block count and successor lists — untouched, so
//! the delta solve of the checked call (`lcm_core::optimize_checked` on a
//! retaining session) stays applicable. A *shape* edit adds a block (an
//! edge split, one of the one-block edits the delta maps onto its retained
//! rows) or an edge (a jump rewritten as a two-way branch with coinciding
//! targets, which exercises the full-solve fallback contract). Every edit
//! keeps the function well-formed ([`lcm_ir::verify`]-clean) and is
//! deterministic in the RNG stream.

use lcm_ir::{BinOp, BlockId, Expr, Function, Instr, Operand, Rvalue, Terminator, Var};

use crate::rng::Rng;

/// What a [`mutate_function`] step did to the CFG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Block contents changed; the shape (blocks + successor lists) is
    /// identical, so delta re-solving applies.
    Content,
    /// A block or edge was added; incremental callers must fall back to a
    /// full solve.
    Shape,
}

/// Applies one random edit to `f`, drawing from the rng stream; with
/// probability `shape_prob` the edit changes the CFG shape. Returns what
/// kind of edit was made.
pub fn mutate_function(f: &mut Function, rng: &mut Rng, shape_prob: f64) -> MutationKind {
    if rng.gen_bool(shape_prob) {
        shape_edit(f, rng)
    } else {
        content_edit(f, rng)
    }
}

/// Every variable the function currently mentions, in first-seen order.
fn pool_vars(f: &Function) -> Vec<Var> {
    let mut vars = Vec::new();
    let seen = |vars: &mut Vec<Var>, v: Var| {
        if !vars.contains(&v) {
            vars.push(v);
        }
    };
    for b in f.block_ids() {
        for instr in &f.block(b).instrs {
            if let Some(d) = instr.def() {
                seen(&mut vars, d);
            }
            for u in instr.uses() {
                seen(&mut vars, u);
            }
        }
        if let Some(u) = f.block(b).term.use_var() {
            seen(&mut vars, u);
        }
    }
    vars
}

fn content_edit(f: &mut Function, rng: &mut Rng) -> MutationKind {
    let vars = pool_vars(f);
    let exprs = f.expr_universe();
    let blocks: Vec<BlockId> = f.block_ids().collect();
    for _ in 0..16 {
        let b = blocks[rng.gen_range(0..blocks.len())];
        let n = f.block(b).instrs.len();
        match rng.gen_range(0..5usize) {
            // Insert `v = <existing expr>` at a random position.
            0 if !exprs.is_empty() && !vars.is_empty() => {
                let e = exprs[rng.gen_range(0..exprs.len())];
                let dst = vars[rng.gen_range(0..vars.len())];
                let at = rng.gen_range(0..=n);
                f.block_mut(b).instrs.insert(
                    at,
                    Instr::Assign {
                        dst,
                        rv: Rvalue::Expr(e),
                    },
                );
                return MutationKind::Content;
            }
            // Delete a random instruction.
            1 if n > 0 => {
                let at = rng.gen_range(0..n);
                f.block_mut(b).instrs.remove(at);
                return MutationKind::Content;
            }
            // Append a kill: `v = const`.
            2 if !vars.is_empty() => {
                let dst = vars[rng.gen_range(0..vars.len())];
                let c = rng.gen_range(-8..=8);
                f.block_mut(b).instrs.push(Instr::Assign {
                    dst,
                    rv: Rvalue::Operand(Operand::Const(c)),
                });
                return MutationKind::Content;
            }
            // Compose `v = x <op> y` from pooled variables with a random
            // operator — often a *brand-new* expression, growing the
            // universe and exercising the incremental widening path. No
            // new variables, so existing interning indices are stable.
            3 if vars.len() >= 2 => {
                let op = BinOp::ALL[rng.gen_range(0..BinOp::ALL.len())];
                let x = vars[rng.gen_range(0..vars.len())];
                let y = vars[rng.gen_range(0..vars.len())];
                let dst = vars[rng.gen_range(0..vars.len())];
                let at = rng.gen_range(0..=n);
                f.block_mut(b).instrs.insert(
                    at,
                    Instr::Assign {
                        dst,
                        rv: Rvalue::Expr(Expr::Bin(op, Operand::Var(x), Operand::Var(y))),
                    },
                );
                return MutationKind::Content;
            }
            // Replace a random assignment's right-hand side.
            _ if n > 0 && !exprs.is_empty() => {
                let at = rng.gen_range(0..n);
                if let Instr::Assign { dst, .. } = f.block(b).instrs[at] {
                    let e = exprs[rng.gen_range(0..exprs.len())];
                    f.block_mut(b).instrs[at] = Instr::Assign {
                        dst,
                        rv: Rvalue::Expr(e),
                    };
                    return MutationKind::Content;
                }
            }
            _ => {}
        }
    }
    // Pathological function (no instructions, no expressions): append a
    // constant assignment to the entry block so the step still edits.
    let dst = f.var("mutant");
    let entry = f.entry();
    f.block_mut(entry).instrs.push(Instr::Assign {
        dst,
        rv: Rvalue::Operand(Operand::Const(1)),
    });
    MutationKind::Content
}

fn shape_edit(f: &mut Function, rng: &mut Rng) -> MutationKind {
    // Every (block, successor-slot) pair is a splittable edge.
    let mut edges: Vec<(BlockId, u8)> = Vec::new();
    let mut jumps: Vec<BlockId> = Vec::new();
    for b in f.block_ids() {
        let term = f.block(b).term;
        for i in 0..term.successors().count() {
            edges.push((b, i as u8));
        }
        if matches!(term, Terminator::Jump(_)) {
            jumps.push(b);
        }
    }
    if edges.is_empty() {
        // Single-block function: no edge to split, no jump to widen.
        return content_edit(f, rng);
    }
    if !jumps.is_empty() && rng.gen_bool(0.3) {
        // Jump → branch with coinciding targets: semantics preserved (the
        // condition is a constant), but the CFG gains a parallel edge.
        let b = jumps[rng.gen_range(0..jumps.len())];
        if let Terminator::Jump(t) = f.block(b).term {
            f.block_mut(b).term = Terminator::Branch {
                cond: Operand::Const(1),
                then_to: t,
                else_to: t,
            };
            return MutationKind::Shape;
        }
    }
    let (from, i) = edges[rng.gen_range(0..edges.len())];
    f.split_edge(from, i);
    MutationKind::Shape
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{structured, GenOptions};

    #[test]
    fn mutations_keep_functions_wellformed_and_deterministic() {
        let opts = GenOptions::default();
        for seed in 0..10u64 {
            let mut f = structured(seed, &opts);
            let mut g = f.clone();
            let mut r1 = Rng::seed_from_u64(seed ^ 0x5eed);
            let mut r2 = Rng::seed_from_u64(seed ^ 0x5eed);
            for _ in 0..25 {
                let k1 = mutate_function(&mut f, &mut r1, 0.25);
                let k2 = mutate_function(&mut g, &mut r2, 0.25);
                assert_eq!(k1, k2);
                assert_eq!(f.to_string(), g.to_string());
                lcm_ir::verify(&f).unwrap();
            }
        }
    }

    #[test]
    fn content_edits_preserve_cfg_shape() {
        let opts = GenOptions::default();
        for seed in 0..10u64 {
            let mut f = structured(seed, &opts);
            let mut rng = Rng::seed_from_u64(seed);
            for _ in 0..20 {
                let before: Vec<Vec<_>> = f
                    .block_ids()
                    .map(|b| f.block(b).term.successors().collect())
                    .collect();
                let kind = mutate_function(&mut f, &mut rng, 0.0);
                assert_eq!(kind, MutationKind::Content);
                let after: Vec<Vec<_>> = f
                    .block_ids()
                    .map(|b| f.block(b).term.successors().collect())
                    .collect();
                assert_eq!(before, after, "content edit moved an edge");
            }
        }
    }

    #[test]
    fn shape_edits_change_the_shape() {
        let opts = GenOptions::default();
        let mut f = structured(3, &opts);
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..10 {
            let blocks = f.num_blocks();
            let edges: usize = f.block_ids().map(|b| f.succs(b).count()).sum();
            let kind = mutate_function(&mut f, &mut rng, 1.0);
            assert_eq!(kind, MutationKind::Shape);
            let blocks2 = f.num_blocks();
            let edges2: usize = f.block_ids().map(|b| f.succs(b).count()).sum();
            assert!(
                blocks2 > blocks || edges2 > edges,
                "shape edit changed nothing"
            );
            lcm_ir::verify(&f).unwrap();
        }
    }
}
