//! Expressions, operands and variables.
//!
//! Following the paper, every candidate expression has a *single operator*:
//! either a unary operator applied to one operand or a binary operator
//! applied to two. Operands are variables or integer constants. Larger
//! expression trees are represented in the IR as sequences of single-operator
//! assignments to temporaries (exactly the shape the paper assumes).

use std::fmt;

/// An interned variable.
///
/// Variables are function-local and interned in the function's
/// [`SymbolTable`](crate::SymbolTable); the `u32` payload is the dense
/// symbol index. Use [`Function::var_name`](crate::Function::var_name) or
/// the symbol table to recover the textual name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Returns the dense symbol-table index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An operand: a variable or an integer constant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Operand {
    /// A variable reference.
    Var(Var),
    /// An integer constant.
    Const(i64),
}

impl Operand {
    /// Returns the variable if this operand is one.
    #[inline]
    pub fn as_var(self) -> Option<Var> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }

    /// Returns `true` if this operand mentions `v`.
    #[inline]
    pub fn mentions(self, v: Var) -> bool {
        self.as_var() == Some(v)
    }
}

impl From<Var> for Operand {
    fn from(v: Var) -> Self {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(c: i64) -> Self {
        Operand::Const(c)
    }
}

/// A binary operator.
///
/// The concrete operator set is irrelevant to the code-motion theory (any
/// pure operator works); this set is rich enough for realistic workloads and
/// for the random program generators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition `+`.
    Add,
    /// Wrapping subtraction `-`.
    Sub,
    /// Wrapping multiplication `*`.
    Mul,
    /// Division `/` (total: division by zero yields `0`).
    Div,
    /// Remainder `%` (total: remainder by zero yields `0`).
    Rem,
    /// Bitwise and `&`.
    And,
    /// Bitwise or `|`.
    Or,
    /// Bitwise xor `^`.
    Xor,
    /// Left shift `<<` (shift amount taken modulo 64).
    Shl,
    /// Arithmetic right shift `>>` (shift amount taken modulo 64).
    Shr,
    /// Equality `==` (yields `0` or `1`).
    Eq,
    /// Inequality `!=` (yields `0` or `1`).
    Ne,
    /// Less-than `<` (yields `0` or `1`).
    Lt,
    /// Less-or-equal `<=` (yields `0` or `1`).
    Le,
    /// Greater-than `>` (yields `0` or `1`).
    Gt,
    /// Greater-or-equal `>=` (yields `0` or `1`).
    Ge,
}

impl BinOp {
    /// All binary operators, in display order.
    pub const ALL: [BinOp; 16] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Rem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ];

    /// The operator's textual spelling (as used by the parser and printer).
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
        }
    }

    /// Returns `true` if the operator would fault on some inputs under
    /// conventional (non-total) machine semantics.
    ///
    /// The interpreter's semantics are total — division and remainder by
    /// zero yield `0` — so nothing in this IR can actually trap. But the
    /// speculative placer models a real backend, where hoisting a `/` or
    /// `%` above the guard that excludes a zero divisor introduces a fault
    /// on a path that never computed it. These two operators are therefore
    /// excluded from speculation (see [`Expr::side_effect_free`]); every
    /// other operator wraps or saturates and is speculable.
    pub fn may_fault(self) -> bool {
        matches!(self, BinOp::Div | BinOp::Rem)
    }

    /// Evaluates the operator on concrete values with total semantics.
    ///
    /// Division and remainder by zero yield `0`; shifts use the low six bits
    /// of the shift amount; arithmetic wraps. Making every operator total
    /// keeps hoisted computations trap-free, matching the paper's model of
    /// pure expressions.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
            BinOp::Eq => i64::from(a == b),
            BinOp::Ne => i64::from(a != b),
            BinOp::Lt => i64::from(a < b),
            BinOp::Le => i64::from(a <= b),
            BinOp::Gt => i64::from(a > b),
            BinOp::Ge => i64::from(a >= b),
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A unary operator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum UnOp {
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    Not,
}

impl UnOp {
    /// The operator's textual spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "~",
        }
    }

    /// Evaluates the operator on a concrete value (wrapping).
    pub fn eval(self, a: i64) -> i64 {
        match self {
            UnOp::Neg => a.wrapping_neg(),
            UnOp::Not => !a,
        }
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A single-operator expression — the unit of partial redundancy
/// elimination.
///
/// Two occurrences of the *same* `Expr` value (structural equality) are
/// occurrences of the same expression in the sense of the paper, e.g. every
/// `a + b` in a function denotes the same candidate. `Expr` is small and
/// `Copy`; the analyses build a dense *universe* of the distinct expressions
/// occurring in a function.
///
/// ```
/// use lcm_ir::{BinOp, Expr, Operand, Var};
///
/// let a = Operand::Var(Var(0));
/// let b = Operand::Var(Var(1));
/// let e = Expr::Bin(BinOp::Add, a, b);
/// assert!(e.mentions(Var(0)));
/// assert_eq!(e, Expr::Bin(BinOp::Add, a, b));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Expr {
    /// A unary application `op a`.
    Un(UnOp, Operand),
    /// A binary application `a op b`.
    Bin(BinOp, Operand, Operand),
    /// A memory read `load a` from the flat addressable heap.
    ///
    /// Loads join the expression universe so PRE applies to them, but
    /// transparency must additionally account for memory kills: with the
    /// base- and field-insensitive alias model, *every* `store` and every
    /// non-pure `call` may alias *every* load, so any such instruction
    /// makes the containing block non-transparent for all `Mem`
    /// expressions (see `lcm-core`'s `ExprUniverse::mem_mask`).
    Mem(Operand),
}

impl Expr {
    /// Returns `true` if `v` is an operand of this expression.
    ///
    /// An instruction assigning to any mentioned variable *kills* the
    /// expression (makes the containing block non-transparent).
    pub fn mentions(self, v: Var) -> bool {
        match self {
            Expr::Un(_, a) | Expr::Mem(a) => a.mentions(v),
            Expr::Bin(_, a, b) => a.mentions(v) || b.mentions(v),
        }
    }

    /// Iterates over the variable operands of this expression.
    pub fn vars(self) -> impl Iterator<Item = Var> {
        let (a, b) = match self {
            Expr::Un(_, a) | Expr::Mem(a) => (a.as_var(), None),
            Expr::Bin(_, a, b) => (a.as_var(), b.as_var()),
        };
        a.into_iter().chain(b)
    }

    /// Returns `true` if evaluating this expression can be moved to a path
    /// that never executed it originally — the safety class speculative PRE
    /// is restricted to.
    ///
    /// Unary operators and faultless binary operators qualify; `/` and `%`
    /// do not (see [`BinOp::may_fault`]), and neither do loads — on a real
    /// target a speculated load can fault on an address the original
    /// program never dereferenced.
    pub fn side_effect_free(self) -> bool {
        match self {
            Expr::Un(..) => true,
            Expr::Bin(op, ..) => !op.may_fault(),
            Expr::Mem(_) => false,
        }
    }

    /// Iterates over the operands of this expression.
    pub fn operands(self) -> impl Iterator<Item = Operand> {
        let (a, b) = match self {
            Expr::Un(_, a) | Expr::Mem(a) => (a, None),
            Expr::Bin(_, a, b) => (a, Some(b)),
        };
        std::iter::once(a).chain(b)
    }
}

/// The right-hand side of an assignment.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rvalue {
    /// A plain copy or constant load: `v = x` / `v = 7`.
    ///
    /// Copies are not PRE candidates (there is nothing to recompute).
    Operand(Operand),
    /// A single-operator expression: the PRE candidates.
    Expr(Expr),
}

impl Rvalue {
    /// Returns the candidate expression, if this right-hand side is one.
    #[inline]
    pub fn as_expr(self) -> Option<Expr> {
        match self {
            Rvalue::Expr(e) => Some(e),
            Rvalue::Operand(_) => None,
        }
    }

    /// Iterates over the variables read by this right-hand side.
    pub fn vars(self) -> impl Iterator<Item = Var> {
        let (a, b) = self.var_pair();
        a.into_iter().chain(b)
    }

    /// The variables read by this right-hand side, as its first and
    /// second operand slots.
    pub(crate) fn var_pair(self) -> (Option<Var>, Option<Var>) {
        match self {
            Rvalue::Operand(a) => (a.as_var(), None),
            Rvalue::Expr(Expr::Un(_, a)) | Rvalue::Expr(Expr::Mem(a)) => (a.as_var(), None),
            Rvalue::Expr(Expr::Bin(_, a, b)) => (a.as_var(), b.as_var()),
        }
    }
}

impl From<Expr> for Rvalue {
    fn from(e: Expr) -> Self {
        Rvalue::Expr(e)
    }
}

impl From<Operand> for Rvalue {
    fn from(o: Operand) -> Self {
        Rvalue::Operand(o)
    }
}

impl From<Var> for Rvalue {
    fn from(v: Var) -> Self {
        Rvalue::Operand(Operand::Var(v))
    }
}

impl From<i64> for Rvalue {
    fn from(c: i64) -> Self {
        Rvalue::Operand(Operand::Const(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_equality_is_structural() {
        let a = Operand::Var(Var(0));
        let b = Operand::Var(Var(1));
        assert_eq!(Expr::Bin(BinOp::Add, a, b), Expr::Bin(BinOp::Add, a, b));
        assert_ne!(Expr::Bin(BinOp::Add, a, b), Expr::Bin(BinOp::Add, b, a));
        assert_ne!(Expr::Bin(BinOp::Add, a, b), Expr::Bin(BinOp::Sub, a, b));
    }

    #[test]
    fn mentions_and_vars() {
        let e = Expr::Bin(BinOp::Mul, Operand::Var(Var(3)), Operand::Const(4));
        assert!(e.mentions(Var(3)));
        assert!(!e.mentions(Var(4)));
        assert_eq!(e.vars().collect::<Vec<_>>(), vec![Var(3)]);
        assert_eq!(e.operands().count(), 2);
    }

    #[test]
    fn total_eval_semantics() {
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Shl.eval(1, 64), 1); // shift count mod 64
        assert_eq!(BinOp::Lt.eval(1, 2), 1);
        assert_eq!(UnOp::Neg.eval(i64::MIN), i64::MIN);
        assert_eq!(UnOp::Not.eval(0), -1);
    }

    #[test]
    fn mem_expr_shape() {
        let e = Expr::Mem(Operand::Var(Var(2)));
        assert!(e.mentions(Var(2)));
        assert!(!e.mentions(Var(0)));
        assert!(!e.side_effect_free());
        assert_eq!(e.vars().collect::<Vec<_>>(), vec![Var(2)]);
        assert_eq!(e.operands().count(), 1);
        let rv: Rvalue = e.into();
        assert_eq!(rv.vars().collect::<Vec<_>>(), vec![Var(2)]);
        // Loads from constant addresses mention no variable at all.
        assert_eq!(Expr::Mem(Operand::Const(8)).vars().count(), 0);
    }

    #[test]
    fn operand_conversions() {
        let v: Operand = Var(1).into();
        assert_eq!(v.as_var(), Some(Var(1)));
        let c: Operand = 42i64.into();
        assert_eq!(c.as_var(), None);
        let rv: Rvalue = Expr::Un(UnOp::Neg, c).into();
        assert!(rv.as_expr().is_some());
    }
}
