//! An ergonomic builder for [`Function`]s.

use crate::expr::{BinOp, Expr, Operand, Rvalue, UnOp};
use crate::function::{BlockData, BlockId, Function};
use crate::instr::{Callee, Instr, Terminator};

/// Builds a [`Function`] imperatively, one block at a time.
///
/// The builder starts positioned at the entry block. Terminators are set
/// explicitly with [`jump`](Self::jump)/[`branch`](Self::branch)/
/// [`jump_exit`](Self::jump_exit); [`finish`](Self::finish) returns the
/// function.
///
/// ```
/// use lcm_ir::FunctionBuilder;
///
/// let mut b = FunctionBuilder::new("f");
/// let body = b.create_block("body");
/// b.jump(body);
/// b.switch_to(body);
/// let x = b.assign_bin("x", "+", "a", "b")?;
/// b.observe(x);
/// b.jump_exit();
/// let f = b.finish();
/// assert_eq!(f.num_blocks(), 3);
/// lcm_ir::verify(&f)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    f: Function,
    current: BlockId,
}

/// Anything that can be turned into an [`Operand`] by the builder: an
/// existing operand, a variable name (`&str`, interned on the fly) or an
/// `i64` constant.
pub trait IntoOperand {
    /// Resolves to an operand, interning names as needed.
    fn into_operand(self, f: &mut Function) -> Operand;
}

impl IntoOperand for Operand {
    fn into_operand(self, _f: &mut Function) -> Operand {
        self
    }
}

impl IntoOperand for crate::Var {
    fn into_operand(self, _f: &mut Function) -> Operand {
        Operand::Var(self)
    }
}

impl IntoOperand for &str {
    fn into_operand(self, f: &mut Function) -> Operand {
        Operand::Var(f.var(self))
    }
}

impl IntoOperand for i64 {
    fn into_operand(self, _f: &mut Function) -> Operand {
        Operand::Const(self)
    }
}

impl FunctionBuilder {
    /// Creates a builder for a fresh function, positioned at its entry.
    pub fn new(name: impl Into<String>) -> Self {
        let f = Function::new(name);
        let current = f.entry();
        FunctionBuilder { f, current }
    }

    /// Adds a new (empty, unterminated) block with the given label.
    pub fn create_block(&mut self, name: impl Into<String>) -> BlockId {
        self.f.add_block(BlockData::new(name))
    }

    /// Moves the insertion point to `b`.
    pub fn switch_to(&mut self, b: BlockId) -> &mut Self {
        self.current = b;
        self
    }

    /// The block currently being appended to.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Interns (or resolves) a variable name.
    pub fn var(&mut self, name: impl AsRef<str>) -> crate::Var {
        self.f.var(name)
    }

    /// Appends `dst = op` (a copy or constant load).
    pub fn assign(&mut self, dst: impl AsRef<str>, src: impl IntoOperand) -> crate::Var {
        let src = src.into_operand(&mut self.f);
        let dst = self.f.var(dst);
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Operand(src),
        });
        dst
    }

    /// Appends `dst = a <op> b`, parsing the operator symbol.
    ///
    /// # Errors
    ///
    /// Returns an error string if `op` is not a known binary operator.
    pub fn assign_bin(
        &mut self,
        dst: impl AsRef<str>,
        op: &str,
        a: impl IntoOperand,
        b: impl IntoOperand,
    ) -> Result<crate::Var, String> {
        let op = BinOp::ALL
            .into_iter()
            .find(|o| o.symbol() == op)
            .ok_or_else(|| format!("unknown binary operator `{op}`"))?;
        Ok(self.bin(dst, op, a, b))
    }

    /// Appends `dst = a <op> b`.
    pub fn bin(
        &mut self,
        dst: impl AsRef<str>,
        op: BinOp,
        a: impl IntoOperand,
        b: impl IntoOperand,
    ) -> crate::Var {
        let a = a.into_operand(&mut self.f);
        let b = b.into_operand(&mut self.f);
        let dst = self.f.var(dst);
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Expr(Expr::Bin(op, a, b)),
        });
        dst
    }

    /// Appends `dst = <op> a`.
    pub fn un(&mut self, dst: impl AsRef<str>, op: UnOp, a: impl IntoOperand) -> crate::Var {
        let a = a.into_operand(&mut self.f);
        let dst = self.f.var(dst);
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Expr(Expr::Un(op, a)),
        });
        dst
    }

    /// Appends `dst = load addr` (a heap read; a PRE candidate).
    pub fn load(&mut self, dst: impl AsRef<str>, addr: impl IntoOperand) -> crate::Var {
        let addr = addr.into_operand(&mut self.f);
        let dst = self.f.var(dst);
        self.push(Instr::Assign {
            dst,
            rv: Rvalue::Expr(Expr::Mem(addr)),
        });
        dst
    }

    /// Appends `store addr, val` (a heap write; kills every load).
    pub fn store(&mut self, addr: impl IntoOperand, val: impl IntoOperand) -> &mut Self {
        let addr = addr.into_operand(&mut self.f);
        let val = val.into_operand(&mut self.f);
        self.push(Instr::Store { addr, val })
    }

    /// Appends `dst = call callee(a, b)`; pass `""` as `dst` to discard the
    /// result (`call callee(a, b)`).
    pub fn call(
        &mut self,
        dst: impl AsRef<str>,
        callee: Callee,
        a: impl IntoOperand,
        b: impl IntoOperand,
    ) -> Option<crate::Var> {
        let a = a.into_operand(&mut self.f);
        let b = b.into_operand(&mut self.f);
        let dst = match dst.as_ref() {
            "" => None,
            name => Some(self.f.var(name)),
        };
        self.push(Instr::Call {
            dst,
            callee,
            args: [a, b],
        });
        dst
    }

    /// Appends `obs op`.
    pub fn observe(&mut self, op: impl IntoOperand) -> &mut Self {
        let op = op.into_operand(&mut self.f);
        self.push(Instr::Observe(op));
        self
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, instr: Instr) -> &mut Self {
        self.f.block_mut(self.current).instrs.push(instr);
        self
    }

    /// Terminates the current block with `jmp target`.
    pub fn jump(&mut self, target: BlockId) -> &mut Self {
        self.f.block_mut(self.current).term = Terminator::Jump(target);
        self
    }

    /// Terminates the current block with a jump to the exit block.
    pub fn jump_exit(&mut self) -> &mut Self {
        let exit = self.f.exit();
        self.jump(exit)
    }

    /// Terminates the current block with `br cond, then_to, else_to`.
    pub fn branch(
        &mut self,
        cond: impl IntoOperand,
        then_to: BlockId,
        else_to: BlockId,
    ) -> &mut Self {
        let cond = cond.into_operand(&mut self.f);
        self.f.block_mut(self.current).term = Terminator::Branch {
            cond,
            then_to,
            else_to,
        };
        self
    }

    /// Read access to the function under construction.
    pub fn func(&self) -> &Function {
        &self.f
    }

    /// Consumes the builder and returns the function.
    pub fn finish(self) -> Function {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_loop() {
        let mut b = FunctionBuilder::new("loopy");
        let head = b.create_block("head");
        let body = b.create_block("body");
        b.assign("i", 10);
        b.jump(head);

        b.switch_to(head);
        b.branch("i", body, b.func().exit());

        b.switch_to(body);
        let x = b.assign_bin("x", "+", "a", "b").unwrap();
        b.observe(x);
        b.assign_bin("i", "-", "i", 1).unwrap();
        b.jump(head);

        let f = b.finish();
        crate::verify(&f).unwrap();
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.expr_universe().len(), 2); // a+b and i-1
    }

    #[test]
    fn unknown_operator_is_an_error() {
        let mut b = FunctionBuilder::new("f");
        assert!(b.assign_bin("x", "**", "a", "b").is_err());
    }

    #[test]
    fn builds_memory_instructions() {
        let mut b = FunctionBuilder::new("m");
        b.load("x", "p");
        b.store("p", "x");
        b.call("y", Callee::Min, "x", 3);
        assert_eq!(b.call("", Callee::Poke, "p", "y"), None);
        b.observe("y");
        b.jump_exit();
        let f = b.finish();
        crate::verify(&f).unwrap();
        assert_eq!(
            f.block(f.entry())
                .instrs
                .iter()
                .filter(|i| i.kills_memory())
                .count(),
            2
        );
        // Round-trips through print + parse.
        let reparsed = crate::parse_function(&f.to_string()).unwrap();
        assert_eq!(f.to_string(), reparsed.to_string());
    }

    #[test]
    fn unary_and_mixed_operands() {
        let mut b = FunctionBuilder::new("f");
        let a = b.var("a");
        b.un("n", UnOp::Neg, a);
        b.bin("m", BinOp::Add, a, 5);
        b.jump_exit();
        let f = b.finish();
        assert_eq!(f.expr_universe().len(), 2);
    }
}
