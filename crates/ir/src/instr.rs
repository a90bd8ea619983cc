//! Instructions and block terminators.

use crate::expr::{Operand, Rvalue, Var};
use crate::function::BlockId;

/// A straight-line instruction inside a basic block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    /// An assignment `dst = rv`.
    ///
    /// The right-hand side is evaluated first, then the destination is
    /// written, so `a = a + b` computes `a + b` with the *old* value of `a`
    /// (and kills `a + b` afterwards) — exactly the paper's statement
    /// semantics.
    Assign {
        /// Destination variable.
        dst: Var,
        /// Right-hand side.
        rv: Rvalue,
    },
    /// An observation `obs x`: appends the operand's current value to the
    /// program's observation trace.
    ///
    /// Observations and heap writes are the IR's only side effects; two
    /// programs are semantically equivalent iff they produce the same trace
    /// on every input. They are opaque to the optimizer (never moved or
    /// removed).
    Observe(Operand),
    /// A memory write `store addr, val` into the flat addressable heap.
    ///
    /// Under the base- and field-insensitive alias model a store may alias
    /// *every* load, so it kills all `Mem` expressions (see
    /// [`Instr::kills_memory`]). Stores are never moved or removed.
    Store {
        /// Heap address written (the value of the operand is the address).
        addr: Operand,
        /// Value stored.
        val: Operand,
    },
    /// An intrinsic call `dst = call f(a, b)` (or `call f(a, b)` when the
    /// result is discarded).
    ///
    /// The callee is one of a fixed table of binary intrinsics
    /// ([`Callee`]); impure callees write the heap and therefore kill every
    /// `Mem` expression. Calls are never moved or removed by PRE — only
    /// their *result uses* participate via ordinary variables.
    Call {
        /// Destination for the call's result, if captured.
        dst: Option<Var>,
        /// The intrinsic being invoked.
        callee: Callee,
        /// The two argument operands (every intrinsic is binary).
        args: [Operand; 2],
    },
}

impl Instr {
    /// Returns the variable this instruction writes, if any.
    #[inline]
    pub fn def(self) -> Option<Var> {
        match self {
            Instr::Assign { dst, .. } => Some(dst),
            Instr::Call { dst, .. } => dst,
            Instr::Observe(_) | Instr::Store { .. } => None,
        }
    }

    /// Iterates over the variables this instruction reads.
    pub fn uses(self) -> impl Iterator<Item = Var> {
        let (a, b) = match self {
            Instr::Assign { rv, .. } => rv.var_pair(),
            Instr::Observe(a) => (a.as_var(), None),
            Instr::Store { addr: a, val: b } | Instr::Call { args: [a, b], .. } => {
                (a.as_var(), b.as_var())
            }
        };
        a.into_iter().chain(b)
    }

    /// Returns `true` if this instruction may write the heap, i.e. kills
    /// every `Mem` expression under the base- and field-insensitive alias
    /// model: any `store`, and any call to a non-pure intrinsic.
    #[inline]
    pub fn kills_memory(self) -> bool {
        match self {
            Instr::Store { .. } => true,
            Instr::Call { callee, .. } => !callee.is_pure(),
            Instr::Assign { .. } | Instr::Observe(_) => false,
        }
    }
}

/// The fixed table of call targets.
///
/// Keeping the callee set closed (and every intrinsic binary) keeps
/// [`Instr`] `Copy` and the interpreter total; the distinction that matters
/// to the optimizer is only [`Callee::is_pure`] — impure intrinsics write
/// the heap and kill every `Mem` expression.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Callee {
    /// `min(a, b)` — pure.
    Min,
    /// `max(a, b)` — pure.
    Max,
    /// `poke(addr, val)` — writes `val` to `heap[addr]`, returns the value
    /// previously stored there. Impure.
    Poke,
    /// `bump(addr, delta)` — adds `delta` to `heap[addr]` (wrapping),
    /// returns the new value. Impure.
    Bump,
}

impl Callee {
    /// All intrinsics, in display order.
    pub const ALL: [Callee; 4] = [Callee::Min, Callee::Max, Callee::Poke, Callee::Bump];

    /// The intrinsic's textual name (as used by the parser and printer).
    pub fn name(self) -> &'static str {
        match self {
            Callee::Min => "min",
            Callee::Max => "max",
            Callee::Poke => "poke",
            Callee::Bump => "bump",
        }
    }

    /// Looks an intrinsic up by its textual name.
    pub fn by_name(name: &str) -> Option<Callee> {
        Callee::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Returns `true` if the intrinsic never touches the heap.
    pub fn is_pure(self) -> bool {
        matches!(self, Callee::Min | Callee::Max)
    }
}

impl std::fmt::Display for Callee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The control transfer ending a basic block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch: to `then_to` if `cond != 0`, else to
    /// `else_to`. The two targets may coincide (two parallel CFG edges).
    Branch {
        /// Branch condition (non-zero means taken).
        cond: Operand,
        /// Target when the condition is non-zero.
        then_to: BlockId,
        /// Target when the condition is zero.
        else_to: BlockId,
    },
    /// Function exit. Exactly one block (the exit block) carries this.
    Exit,
}

impl Terminator {
    /// Returns the successor blocks in branch order (then before else).
    pub fn successors(self) -> impl Iterator<Item = BlockId> {
        let (a, b) = match self {
            Terminator::Jump(t) => (Some(t), None),
            Terminator::Branch {
                then_to, else_to, ..
            } => (Some(then_to), Some(else_to)),
            Terminator::Exit => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Returns the branch condition variable, if this terminator reads one.
    pub fn use_var(self) -> Option<Var> {
        match self {
            Terminator::Branch { cond, .. } => cond.as_var(),
            Terminator::Jump(_) | Terminator::Exit => None,
        }
    }

    /// Rewrites every successor equal to `from` into `to`.
    pub fn retarget(&mut self, from: BlockId, to: BlockId) {
        match self {
            Terminator::Jump(t) => {
                if *t == from {
                    *t = to;
                }
            }
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                if *then_to == from {
                    *then_to = to;
                }
                if *else_to == from {
                    *else_to = to;
                }
            }
            Terminator::Exit => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};

    #[test]
    fn defs_and_uses() {
        let i = Instr::Assign {
            dst: Var(0),
            rv: Rvalue::Expr(Expr::Bin(
                BinOp::Add,
                Operand::Var(Var(1)),
                Operand::Var(Var(2)),
            )),
        };
        assert_eq!(i.def(), Some(Var(0)));
        assert_eq!(i.uses().collect::<Vec<_>>(), vec![Var(1), Var(2)]);

        let o = Instr::Observe(Operand::Var(Var(5)));
        assert_eq!(o.def(), None);
        assert_eq!(o.uses().collect::<Vec<_>>(), vec![Var(5)]);
    }

    #[test]
    fn memory_defs_uses_and_kills() {
        let st = Instr::Store {
            addr: Operand::Var(Var(1)),
            val: Operand::Var(Var(2)),
        };
        assert_eq!(st.def(), None);
        assert_eq!(st.uses().collect::<Vec<_>>(), vec![Var(1), Var(2)]);
        assert!(st.kills_memory());

        let pure = Instr::Call {
            dst: Some(Var(0)),
            callee: Callee::Min,
            args: [Operand::Var(Var(1)), Operand::Const(3)],
        };
        assert_eq!(pure.def(), Some(Var(0)));
        assert_eq!(pure.uses().collect::<Vec<_>>(), vec![Var(1)]);
        assert!(!pure.kills_memory());

        let impure = Instr::Call {
            dst: None,
            callee: Callee::Poke,
            args: [Operand::Var(Var(1)), Operand::Var(Var(2))],
        };
        assert_eq!(impure.def(), None);
        assert!(impure.kills_memory());

        let load = Instr::Assign {
            dst: Var(0),
            rv: Rvalue::Expr(Expr::Mem(Operand::Var(Var(1)))),
        };
        assert!(!load.kills_memory());
        assert_eq!(load.uses().collect::<Vec<_>>(), vec![Var(1)]);
    }

    #[test]
    fn callee_table_round_trips() {
        for c in Callee::ALL {
            assert_eq!(Callee::by_name(c.name()), Some(c));
        }
        assert_eq!(Callee::by_name("sqrt"), None);
        assert!(Callee::Min.is_pure());
        assert!(!Callee::Bump.is_pure());
    }

    #[test]
    fn terminator_successors_and_retarget() {
        let mut t = Terminator::Branch {
            cond: Operand::Var(Var(0)),
            then_to: BlockId(1),
            else_to: BlockId(2),
        };
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(2)]
        );
        t.retarget(BlockId(2), BlockId(3));
        assert_eq!(
            t.successors().collect::<Vec<_>>(),
            vec![BlockId(1), BlockId(3)]
        );
        assert_eq!(t.use_var(), Some(Var(0)));
        assert_eq!(Terminator::Exit.successors().count(), 0);
    }
}
