//! Structural verification of [`Function`]s.

use std::error::Error;
use std::fmt;

use crate::function::{BlockId, Function};
use crate::graph;
use crate::instr::Terminator;

/// A structural invariant violation found by [`verify`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// A terminator names a block id outside the block table.
    DanglingTarget {
        /// Block whose terminator is broken.
        from: BlockId,
        /// The out-of-range target.
        target: BlockId,
    },
    /// The entry block has predecessors.
    EntryHasPredecessors(BlockId),
    /// A block other than the exit is terminated by `ret`.
    StrayExit(BlockId),
    /// The designated exit block is not terminated by `ret`.
    ExitNotRet(BlockId),
    /// A block is not reachable from the entry.
    Unreachable(BlockId),
    /// A block cannot reach the exit.
    CannotReachExit(BlockId),
    /// An instruction mentions a variable missing from the symbol table.
    UnknownVar(BlockId),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::DanglingTarget { from, target } => {
                write!(f, "block {from} jumps to non-existent block {target}")
            }
            VerifyError::EntryHasPredecessors(b) => {
                write!(f, "entry block {b} has predecessors")
            }
            VerifyError::StrayExit(b) => write!(f, "non-exit block {b} is terminated by ret"),
            VerifyError::ExitNotRet(b) => write!(f, "exit block {b} is not terminated by ret"),
            VerifyError::Unreachable(b) => write!(f, "block {b} is unreachable from entry"),
            VerifyError::CannotReachExit(b) => write!(f, "block {b} cannot reach the exit"),
            VerifyError::UnknownVar(b) => {
                write!(
                    f,
                    "block {b} mentions a variable missing from the symbol table"
                )
            }
        }
    }
}

impl Error for VerifyError {}

/// Checks the structural invariants the rest of the workspace relies on:
///
/// 1. every terminator target is a valid block id,
/// 2. the entry block has no predecessors,
/// 3. exactly the designated exit block is terminated by `ret`,
/// 4. every block is reachable from the entry, and
/// 5. every block can reach the exit (the paper's flow graphs have every
///    node on a path from `s` to `e`),
/// 6. every mentioned variable is interned.
///
/// # Errors
///
/// Returns the first violation found, in the order above.
pub fn verify(f: &Function) -> Result<(), VerifyError> {
    let n = f.num_blocks();
    for b in f.block_ids() {
        for t in f.succs(b) {
            if t.index() >= n {
                return Err(VerifyError::DanglingTarget { from: b, target: t });
            }
        }
    }

    // Built once, after the target check made every successor valid.
    let preds = graph::FlatPreds::new(f);
    if !preds.of(f.entry()).is_empty() {
        return Err(VerifyError::EntryHasPredecessors(f.entry()));
    }

    for b in f.block_ids() {
        let is_ret = matches!(f.block(b).term, Terminator::Exit);
        if is_ret && b != f.exit() {
            return Err(VerifyError::StrayExit(b));
        }
        if !is_ret && b == f.exit() {
            return Err(VerifyError::ExitNotRet(b));
        }
    }

    let reachable = graph::reachable_from_entry(f);
    if let Some(b) = f.block_ids().find(|b| !reachable[b.index()]) {
        return Err(VerifyError::Unreachable(b));
    }
    let reaches_exit = graph::reaches_exit_via(f, &preds);
    if let Some(b) = f.block_ids().find(|b| !reaches_exit[b.index()]) {
        return Err(VerifyError::CannotReachExit(b));
    }

    let nvars = f.symbols.len();
    for b in f.block_ids() {
        let data = f.block(b);
        let bad_var = data
            .instrs
            .iter()
            .flat_map(|i| i.def().into_iter().chain(i.uses()))
            .chain(data.term.use_var())
            .any(|v| v.index() >= nvars);
        if bad_var {
            return Err(VerifyError::UnknownVar(b));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::BlockData;
    use crate::Operand;

    #[test]
    fn accepts_minimal_function() {
        let f = Function::new("ok");
        verify(&f).unwrap();
    }

    #[test]
    fn rejects_unreachable_block() {
        let mut f = Function::new("u");
        f.add_block(BlockData::new("island")); // Exit-terminated, unreachable.
        match verify(&f) {
            // The island is also a stray exit; either error is acceptable,
            // but stray-exit is checked first.
            Err(VerifyError::StrayExit(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_block_that_cannot_reach_exit() {
        let mut f = Function::new("t");
        let spin = f.add_block(BlockData::new("spin"));
        f.block_mut(spin).term = crate::Terminator::Jump(spin);
        let c = f.var("c");
        let exit = f.exit();
        let entry = f.entry();
        f.block_mut(entry).term = crate::Terminator::Branch {
            cond: Operand::Var(c),
            then_to: spin,
            else_to: exit,
        };
        assert_eq!(verify(&f), Err(VerifyError::CannotReachExit(spin)));
    }

    #[test]
    fn rejects_entry_with_predecessors() {
        let mut f = Function::new("e");
        let entry = f.entry();
        let mid = f.add_block(BlockData::new("mid"));
        let exit = f.exit();
        let c = f.var("c");
        f.block_mut(entry).term = crate::Terminator::Jump(mid);
        f.block_mut(mid).term = crate::Terminator::Branch {
            cond: Operand::Var(c),
            then_to: entry,
            else_to: exit,
        };
        assert_eq!(verify(&f), Err(VerifyError::EntryHasPredecessors(entry)));
    }

    #[test]
    fn rejects_dangling_target() {
        let mut f = Function::new("d");
        let entry = f.entry();
        f.block_mut(entry).term = crate::Terminator::Jump(crate::BlockId(99));
        assert!(matches!(
            verify(&f),
            Err(VerifyError::DanglingTarget { .. })
        ));
    }

    #[test]
    fn rejects_unknown_variable() {
        let mut f = Function::new("v");
        let entry = f.entry();
        f.push_observe(entry, Operand::Var(crate::Var(42)));
        assert_eq!(verify(&f), Err(VerifyError::UnknownVar(entry)));
    }
}
