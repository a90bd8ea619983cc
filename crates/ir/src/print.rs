//! Textual rendering of the IR ([`Display`] impls).
//!
//! The output round-trips through [`parse_function`](crate::parse_function):
//! for every function `f`, `parse_function(&f.to_string())` succeeds and
//! yields a structurally equal function (block order, labels, instructions
//! and variable names are all preserved).

use std::fmt::{self, Write};

use crate::expr::{Expr, Operand, Rvalue};
use crate::function::Function;
use crate::instr::{Instr, Terminator};

impl Function {
    /// Writes the function under `name` (its own name is ignored) straight
    /// into `out`: the text [`Display`](fmt::Display) prints, with no
    /// intermediate string per line. Printing under a placeholder name is
    /// how the driver fingerprints a body without cloning the function.
    pub fn write_named<W: Write + ?Sized>(&self, name: &str, out: &mut W) -> fmt::Result {
        out.write_str("fn ")?;
        out.write_str(name)?;
        out.write_str(" {\n")?;
        for b in self.block_ids() {
            let data = self.block(b);
            out.write_str(&data.name)?;
            out.write_str(":\n")?;
            for &instr in &data.instrs {
                out.write_str("  ")?;
                self.write_instr(instr, out)?;
                out.write_char('\n')?;
            }
            out.write_str("  ")?;
            self.write_term(data.term, out)?;
            out.write_char('\n')?;
        }
        out.write_char('}')
    }

    fn write_operand<W: Write + ?Sized>(&self, op: Operand, out: &mut W) -> fmt::Result {
        match op {
            Operand::Var(v) => out.write_str(self.var_name(v)),
            Operand::Const(c) => write!(out, "{c}"),
        }
    }

    fn write_expr<W: Write + ?Sized>(&self, e: Expr, out: &mut W) -> fmt::Result {
        match e {
            Expr::Un(op, a) => {
                out.write_str(op.symbol())?;
                self.write_operand(a, out)
            }
            Expr::Bin(op, a, b) => {
                self.write_operand(a, out)?;
                out.write_char(' ')?;
                out.write_str(op.symbol())?;
                out.write_char(' ')?;
                self.write_operand(b, out)
            }
            Expr::Mem(a) => {
                out.write_str("load ")?;
                self.write_operand(a, out)
            }
        }
    }

    fn write_instr<W: Write + ?Sized>(&self, instr: Instr, out: &mut W) -> fmt::Result {
        match instr {
            Instr::Assign { dst, rv } => {
                out.write_str(self.var_name(dst))?;
                out.write_str(" = ")?;
                match rv {
                    Rvalue::Operand(o) => self.write_operand(o, out),
                    Rvalue::Expr(e) => self.write_expr(e, out),
                }
            }
            Instr::Observe(op) => {
                out.write_str("obs ")?;
                self.write_operand(op, out)
            }
            Instr::Store { addr, val } => {
                out.write_str("store ")?;
                self.write_operand(addr, out)?;
                out.write_str(", ")?;
                self.write_operand(val, out)
            }
            Instr::Call { dst, callee, args } => {
                if let Some(d) = dst {
                    out.write_str(self.var_name(d))?;
                    out.write_str(" = ")?;
                }
                out.write_str("call ")?;
                out.write_str(callee.name())?;
                out.write_char('(')?;
                self.write_operand(args[0], out)?;
                out.write_str(", ")?;
                self.write_operand(args[1], out)?;
                out.write_char(')')
            }
        }
    }

    fn write_term<W: Write + ?Sized>(&self, term: Terminator, out: &mut W) -> fmt::Result {
        match term {
            Terminator::Jump(t) => {
                out.write_str("jmp ")?;
                out.write_str(&self.block(t).name)
            }
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                out.write_str("br ")?;
                self.write_operand(cond, out)?;
                out.write_str(", ")?;
                out.write_str(&self.block(then_to).name)?;
                out.write_str(", ")?;
                out.write_str(&self.block(else_to).name)
            }
            Terminator::Exit => out.write_str("ret"),
        }
    }

    /// Renders a single instruction using this function's variable names.
    pub fn display_instr(&self, instr: Instr) -> String {
        let mut s = String::new();
        self.write_instr(instr, &mut s)
            .expect("writing to a String never fails");
        s
    }

    /// Renders an expression (e.g. `a + b`) using this function's variable
    /// names.
    pub fn display_expr(&self, e: Expr) -> String {
        let mut s = String::new();
        self.write_expr(e, &mut s)
            .expect("writing to a String never fails");
        s
    }

    /// Renders a terminator using this function's block labels.
    pub fn display_term(&self, term: Terminator) -> String {
        let mut s = String::new();
        self.write_term(term, &mut s)
            .expect("writing to a String never fails");
        s
    }
}

impl fmt::Display for Function {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_named(&self.name, out)
    }
}

#[cfg(test)]
mod tests {
    use crate::FunctionBuilder;

    #[test]
    fn prints_expected_shape() {
        let mut b = FunctionBuilder::new("demo");
        b.assign_bin("x", "+", "a", "b").unwrap();
        b.observe("x");
        b.jump_exit();
        let f = b.finish();
        let text = f.to_string();
        assert!(text.contains("fn demo {"));
        assert!(text.contains("entry:"));
        assert!(text.contains("  x = a + b"));
        assert!(text.contains("  obs x"));
        assert!(text.contains("  jmp exit"));
        assert!(text.contains("  ret"));
    }

    #[test]
    fn roundtrips_through_parser() {
        let mut b = FunctionBuilder::new("rt");
        let l = b.create_block("l");
        let r = b.create_block("r");
        b.branch("c", l, r);
        b.switch_to(l);
        b.assign_bin("x", "<<", "a", 3).unwrap();
        b.jump_exit();
        b.switch_to(r);
        b.un("y", crate::UnOp::Not, "a");
        b.observe("y");
        b.jump_exit();
        let f = b.finish();
        let reparsed = crate::parse_function(&f.to_string()).unwrap();
        assert_eq!(f.to_string(), reparsed.to_string());
        assert_eq!(f.num_blocks(), reparsed.num_blocks());
    }
}
