//! A parser for the textual IR format.
//!
//! The grammar (line-oriented; `#` starts a comment):
//!
//! ```text
//! module    := (function | profile)+
//! function  := "fn" NAME "{" block+ "}"
//! profile   := "profile" NAME "{" pentry* "}"
//! pentry    := LABEL "->" LABEL ":" INT
//! block     := LABEL ":" instr* terminator
//! instr     := "obs" operand
//!            | "store" operand "," operand
//!            | call
//!            | IDENT "=" call
//!            | IDENT "=" rhs
//! call      := "call" NAME "(" operand "," operand ")"
//! rhs       := operand
//!            | unop operand
//!            | operand binop operand
//!            | "load" operand
//! terminator:= "jmp" LABEL
//!            | "br" operand "," LABEL "," LABEL
//!            | "ret"
//! operand   := IDENT | INT
//! unop      := "-" | "~"
//! binop     := "+" "-" "*" "/" "%" "&" "|" "^" "<<" ">>"
//!              "==" "!=" "<" "<=" ">" ">="
//! ```
//!
//! The first block is the entry; the unique block terminated by `ret` is the
//! exit. Labels and variable names are identifiers (letters, digits, `_`,
//! `.`, not starting with a digit). The instruction keywords (`obs`, `jmp`,
//! `br`, `ret`, `store`, `call`, `load`) are effectively reserved: a line
//! starting with one of them is parsed as that instruction. The callee NAME
//! of a `call` must be one of the fixed intrinsics
//! ([`Callee`](crate::Callee)).
//!
//! A `profile` section attaches edge-frequency weights to a function that
//! appeared *earlier* in the module (see [`Profile`](crate::Profile)). It
//! must list every CFG edge of that function exactly once, and the weights
//! must conserve flow — at each block other than entry and exit, incoming
//! weights sum to outgoing weights — or parsing fails with a spanned error.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use crate::expr::{BinOp, Expr, Operand, Rvalue, UnOp};
use crate::function::{BlockData, BlockId, Function, SymbolTable};
use crate::instr::{Callee, Instr, Terminator};

/// An error produced by [`parse_function`], with a 1-based line and column.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line on which the error occurred.
    pub line: usize,
    /// 1-based column of the offending token; whole-line structural
    /// problems (e.g. a missing terminator) anchor at the line's first
    /// token, or column 1 when no token is at hand.
    pub col: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error on line {}, column {}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for ParseError {}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Tok {
    Ident(String),
    Int(i64),
    Sym(&'static str),
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Sym(s) => write!(f, "`{s}`"),
        }
    }
}

// Longest-match-first within a shared prefix: `->` before `-`, `<<`/`<=`
// before `<`, and so on.
const SYMBOLS: [&str; 25] = [
    "<<", ">>", "==", "!=", "<=", ">=", "->", "+", "-", "*", "/", "%", "&", "|", "^", "<", ">",
    "=", ",", ":", "{", "}", "~", "(", ")",
];

fn tokenize(line: &str, lineno: usize) -> Result<(Vec<Tok>, Vec<usize>), ParseError> {
    let mut toks = Vec::new();
    let mut cols = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    'outer: while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '#' {
            break;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                    i += 1;
                } else {
                    break;
                }
            }
            toks.push(Tok::Ident(line[start..i].to_string()));
            cols.push(start + 1);
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                i += 1;
            }
            let text = &line[start..i];
            let value = text.parse::<i64>().map_err(|_| ParseError {
                line: lineno,
                col: start + 1,
                message: format!("integer literal `{text}` out of range"),
            })?;
            toks.push(Tok::Int(value));
            cols.push(start + 1);
            continue;
        }
        for sym in SYMBOLS {
            if line[i..].starts_with(sym) {
                toks.push(Tok::Sym(sym));
                cols.push(i + 1);
                i += sym.len();
                continue 'outer;
            }
        }
        return Err(ParseError {
            line: lineno,
            col: i + 1,
            message: format!("unexpected character `{c}`"),
        });
    }
    Ok((toks, cols))
}

/// The source position of one tokenized line: its 1-based line number plus
/// the 1-based starting column of each token, so errors can point at the
/// offending token rather than just the line.
#[derive(Clone, Copy)]
struct Span<'a> {
    line: usize,
    cols: &'a [usize],
}

impl Span<'_> {
    /// The column of token `at`, or just past the last token for
    /// end-of-line errors.
    fn col(&self, at: usize) -> usize {
        self.cols
            .get(at)
            .copied()
            .unwrap_or_else(|| self.cols.last().map_or(1, |c| c + 1))
    }

    fn err(&self, at: usize, message: String) -> ParseError {
        ParseError {
            line: self.line,
            col: self.col(at),
            message,
        }
    }
}

struct Ctx {
    symbols: SymbolTable,
    labels: HashMap<String, BlockId>,
}

impl Ctx {
    fn operand(
        &mut self,
        toks: &[Tok],
        at: &mut usize,
        sp: Span<'_>,
    ) -> Result<Operand, ParseError> {
        match toks.get(*at) {
            Some(Tok::Ident(name)) => {
                *at += 1;
                Ok(Operand::Var(self.symbols.intern(name)))
            }
            Some(Tok::Int(i)) => {
                *at += 1;
                Ok(Operand::Const(*i))
            }
            Some(Tok::Sym("-")) => match toks.get(*at + 1) {
                Some(Tok::Int(i)) => {
                    *at += 2;
                    Ok(Operand::Const(i.wrapping_neg()))
                }
                _ => Err(sp.err(*at, "expected integer after unary `-`".into())),
            },
            other => Err(sp.err(
                *at,
                format!(
                    "expected operand, found {}",
                    other.map_or("end of line".to_string(), |t| t.to_string())
                ),
            )),
        }
    }

    fn label(&self, toks: &[Tok], at: &mut usize, sp: Span<'_>) -> Result<BlockId, ParseError> {
        match toks.get(*at) {
            Some(Tok::Ident(name)) => {
                let found = self
                    .labels
                    .get(name)
                    .copied()
                    .ok_or_else(|| sp.err(*at, format!("unknown label `{name}`")));
                *at += 1;
                found
            }
            other => Err(sp.err(
                *at,
                format!(
                    "expected label, found {}",
                    other.map_or("end of line".to_string(), |t| t.to_string())
                ),
            )),
        }
    }
}

fn binop_from_sym(sym: &str) -> Option<BinOp> {
    BinOp::ALL.into_iter().find(|o| o.symbol() == sym)
}

/// One non-empty source line, tokenized, carrying its absolute 1-based line
/// number so multi-function inputs keep file-relative error positions.
struct Line {
    no: usize,
    toks: Vec<Tok>,
    cols: Vec<usize>,
}

/// Tokenizes `text` into its non-empty lines.
fn tokenize_text(text: &str) -> Result<Vec<Line>, ParseError> {
    let mut lines = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let (toks, cols) = tokenize(raw, idx + 1)?;
        if !toks.is_empty() {
            lines.push(Line {
                no: idx + 1,
                toks,
                cols,
            });
        }
    }
    Ok(lines)
}

fn err_at_col1(line: usize, message: String) -> ParseError {
    ParseError {
        line,
        col: 1,
        message,
    }
}

/// Parses the textual IR format into a [`Function`].
///
/// See the module documentation for the grammar. The parser does not
/// run the [verifier](crate::verify); call it separately if the input is
/// untrusted. The input must contain exactly one function; use
/// [`parse_module`] for multi-function sources.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line and column on malformed input,
/// unknown labels, a missing/duplicate `ret` block, or instructions after a
/// terminator.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let lines = tokenize_text(text)?;
    if lines.is_empty() {
        return Err(err_at_col1(1, "empty input".into()));
    }
    let (f, rest) = parse_one(&lines)?;
    if let Some(extra) = rest.first() {
        return Err(ParseError {
            line: extra.no,
            col: extra.cols.first().copied().unwrap_or(1),
            message: "content after closing `}`".into(),
        });
    }
    Ok(f)
}

/// Parses a module: one or more functions back to back, optionally followed
/// (or interleaved) with `profile` sections for functions already parsed.
///
/// Errors carry positions relative to the whole input, and function names
/// must be unique within the module. Profile sections are checked
/// structurally against their function — every edge present exactly once,
/// flow conserved at internal blocks — so a module that parses never carries
/// an inconsistent profile. Like [`parse_function`], the verifier is not
/// run; the batch driver verifies each function before optimizing it.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, an empty module, a duplicate
/// function name, or an inconsistent profile section.
pub fn parse_module(text: &str) -> Result<crate::Module, ParseError> {
    let lines = tokenize_text(text)?;
    if lines.is_empty() {
        return Err(err_at_col1(1, "empty input".into()));
    }
    let mut module = crate::Module::default();
    let mut rest = lines.as_slice();
    while let Some(header) = rest.first() {
        let header_pos = (header.no, header.cols.first().copied().unwrap_or(1));
        if matches!(header.toks.as_slice(),
            [Tok::Ident(kw), Tok::Ident(_), Tok::Sym("{")] if kw == "profile")
        {
            rest = parse_profile_section(rest, &mut module)?;
            continue;
        }
        let (f, remaining) = parse_one(rest)?;
        if let Err(f) = module.push(f) {
            return Err(ParseError {
                line: header_pos.0,
                col: header_pos.1,
                message: format!("duplicate function `{}` in module", f.name),
            });
        }
        rest = remaining;
    }
    Ok(module)
}

/// Parses one `profile NAME { ... }` section from the front of `lines`,
/// validates it against the named (already-parsed) function, and attaches it
/// to `module`. Returns the lines after the closing `}`.
fn parse_profile_section<'a>(
    lines: &'a [Line],
    module: &mut crate::Module,
) -> Result<&'a [Line], ParseError> {
    let header = &lines[0];
    let header_err = |message: String| ParseError {
        line: header.no,
        col: header.cols.first().copied().unwrap_or(1),
        message,
    };
    let name = match header.toks.as_slice() {
        [Tok::Ident(kw), Tok::Ident(name), Tok::Sym("{")] if kw == "profile" => name.clone(),
        _ => unreachable!("caller matched the profile header"),
    };
    let close = lines[1..]
        .iter()
        .position(|l| matches!(l.toks.as_slice(), [Tok::Sym("}")]))
        .map(|i| i + 1)
        .ok_or_else(|| {
            err_at_col1(
                lines.last().map_or(1, |l| l.no),
                "missing closing `}`".into(),
            )
        })?;

    let mut entries = Vec::new();
    // Per-entry source anchors: (line, from col, to col).
    let mut anchors: Vec<(usize, usize, usize)> = Vec::new();
    for line in &lines[1..close] {
        let sp = Span {
            line: line.no,
            cols: &line.cols,
        };
        match line.toks.as_slice() {
            [Tok::Ident(from), Tok::Sym("->"), Tok::Ident(to), Tok::Sym(":"), Tok::Int(w)] => {
                // The tokenizer has no signs, so `w` is already >= 0.
                entries.push(crate::ProfileEntry {
                    from: from.clone(),
                    to: to.clone(),
                    weight: *w as u64,
                });
                anchors.push((line.no, sp.col(0), sp.col(2)));
            }
            [_, _, _, _, Tok::Sym("-"), ..] => {
                return Err(sp.err(4, "profile weight must be a non-negative integer".into()));
            }
            _ => {
                return Err(sp.err(0, "expected `FROM -> TO : WEIGHT` profile entry".into()));
            }
        }
    }

    let profile = crate::Profile {
        function: name.clone(),
        entries,
    };
    let Some(f) = module.get(&name) else {
        return Err(header_err(format!(
            "profile for unknown function `{name}` (the function must precede its profile)"
        )));
    };
    if let Err(e) = profile.resolve(f) {
        use crate::ProfileError as PE;
        let message = e.to_string();
        return Err(match e {
            PE::UnknownBlock { label, entry } => {
                let (line, from_col, to_col) = anchors[entry];
                let col = if profile.entries[entry].from == label {
                    from_col
                } else {
                    to_col
                };
                ParseError { line, col, message }
            }
            PE::NoSuchEdge { entry, .. } | PE::NotConserving { entry, .. } => {
                let (line, from_col, _) = anchors[entry];
                ParseError {
                    line,
                    col: from_col,
                    message,
                }
            }
            PE::MissingEdge { .. } => header_err(message),
        });
    }
    if module.push_profile(profile).is_err() {
        return Err(header_err(format!(
            "duplicate profile for function `{name}`"
        )));
    }
    Ok(&lines[close + 1..])
}

/// Parses one function from the front of `lines`; returns it together with
/// the lines that follow its closing `}`.
fn parse_one(lines: &[Line]) -> Result<(Function, &[Line]), ParseError> {
    let header = &lines[0];
    let first_line = header.no;
    let name = match header.toks.as_slice() {
        [Tok::Ident(kw), Tok::Ident(name), Tok::Sym("{")] if kw == "fn" => name.clone(),
        _ => {
            return Err(err_at_col1(
                first_line,
                "expected `fn NAME {` header".into(),
            ))
        }
    };

    // The body runs to the first `}` line; everything after it belongs to
    // the next function (if any).
    let close = lines[1..]
        .iter()
        .position(|l| matches!(l.toks.as_slice(), [Tok::Sym("}")]))
        .map(|i| i + 1)
        .ok_or_else(|| {
            err_at_col1(
                lines.last().map_or(1, |l| l.no),
                "missing closing `}`".into(),
            )
        })?;
    let body = &lines[1..close];

    // Pass 1: collect block labels in order.
    let mut ctx = Ctx {
        symbols: SymbolTable::new(),
        labels: HashMap::new(),
    };
    let mut blocks: Vec<BlockData> = Vec::new();
    for line in body {
        if let [Tok::Ident(label), Tok::Sym(":")] = line.toks.as_slice() {
            if ctx.labels.contains_key(label) {
                return Err(ParseError {
                    line: line.no,
                    col: line.cols.first().copied().unwrap_or(1),
                    message: format!("duplicate label `{label}`"),
                });
            }
            ctx.labels
                .insert(label.clone(), BlockId::from_index(blocks.len()));
            blocks.push(BlockData::new(label.clone()));
        }
    }
    if blocks.is_empty() {
        return Err(err_at_col1(first_line, "function has no blocks".into()));
    }

    // Pass 2: fill in instructions and terminators.
    let mut current: Option<usize> = None;
    let mut terminated = vec![false; blocks.len()];
    let mut exit: Option<BlockId> = None;
    for line in body {
        let lineno = line.no;
        let toks = &line.toks;
        let sp = Span {
            line: lineno,
            cols: &line.cols,
        };
        if let [Tok::Ident(label), Tok::Sym(":")] = toks.as_slice() {
            if let Some(cur) = current {
                if !terminated[cur] {
                    return Err(sp.err(
                        0,
                        format!("block `{}` lacks a terminator", blocks[cur].name),
                    ));
                }
            }
            current = Some(ctx.labels[label].index());
            continue;
        }
        let cur = current.ok_or_else(|| sp.err(0, "instruction before first label".into()))?;
        if terminated[cur] {
            return Err(sp.err(
                0,
                format!(
                    "instruction after terminator in block `{}`",
                    blocks[cur].name
                ),
            ));
        }
        let mut at = 0;
        match toks.first() {
            Some(Tok::Ident(kw)) if kw == "obs" => {
                at += 1;
                let op = ctx.operand(toks, &mut at, sp)?;
                expect_end(toks, at, sp)?;
                blocks[cur].instrs.push(Instr::Observe(op));
            }
            Some(Tok::Ident(kw)) if kw == "store" => {
                at += 1;
                let addr = ctx.operand(toks, &mut at, sp)?;
                expect_sym(toks, &mut at, ",", sp)?;
                let val = ctx.operand(toks, &mut at, sp)?;
                expect_end(toks, at, sp)?;
                blocks[cur].instrs.push(Instr::Store { addr, val });
            }
            Some(Tok::Ident(kw)) if kw == "call" => {
                let (callee, args) = parse_call(&mut ctx, toks, &mut at, sp)?;
                expect_end(toks, at, sp)?;
                blocks[cur].instrs.push(Instr::Call {
                    dst: None,
                    callee,
                    args,
                });
            }
            Some(Tok::Ident(kw)) if kw == "jmp" => {
                at += 1;
                let target = ctx.label(toks, &mut at, sp)?;
                expect_end(toks, at, sp)?;
                blocks[cur].term = Terminator::Jump(target);
                terminated[cur] = true;
            }
            Some(Tok::Ident(kw)) if kw == "br" => {
                at += 1;
                let cond = ctx.operand(toks, &mut at, sp)?;
                expect_sym(toks, &mut at, ",", sp)?;
                let then_to = ctx.label(toks, &mut at, sp)?;
                expect_sym(toks, &mut at, ",", sp)?;
                let else_to = ctx.label(toks, &mut at, sp)?;
                expect_end(toks, at, sp)?;
                blocks[cur].term = Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                };
                terminated[cur] = true;
            }
            Some(Tok::Ident(kw)) if kw == "ret" && toks.len() == 1 => {
                blocks[cur].term = Terminator::Exit;
                terminated[cur] = true;
                let this = BlockId::from_index(cur);
                if let Some(prev) = exit {
                    return Err(sp.err(
                        0,
                        format!(
                            "multiple `ret` blocks: `{}` and `{}`",
                            blocks[prev.index()].name,
                            blocks[this.index()].name
                        ),
                    ));
                }
                exit = Some(this);
            }
            Some(Tok::Ident(dst)) if matches!(toks.get(1), Some(Tok::Sym("="))) => {
                let dst = ctx.symbols.intern(dst);
                at = 2;
                if matches!(toks.get(at), Some(Tok::Ident(kw)) if kw == "call") {
                    let (callee, args) = parse_call(&mut ctx, toks, &mut at, sp)?;
                    expect_end(toks, at, sp)?;
                    blocks[cur].instrs.push(Instr::Call {
                        dst: Some(dst),
                        callee,
                        args,
                    });
                } else {
                    let rv = parse_rhs(&mut ctx, toks, &mut at, sp)?;
                    expect_end(toks, at, sp)?;
                    blocks[cur].instrs.push(Instr::Assign { dst, rv });
                }
            }
            _ => {
                return Err(sp.err(0, "expected instruction or terminator".into()));
            }
        }
    }
    if let Some(cur) = current {
        if !terminated[cur] {
            return Err(err_at_col1(
                lines[close].no,
                format!("block `{}` lacks a terminator", blocks[cur].name),
            ));
        }
    }
    let exit = exit.ok_or_else(|| err_at_col1(first_line, "no `ret` block".into()))?;

    let f = Function {
        name,
        blocks,
        entry: BlockId(0),
        exit,
        symbols: ctx.symbols,
    };
    Ok((f, &lines[close + 1..]))
}

/// Parses `call NAME(a, b)` starting at the `call` keyword; leaves `at`
/// just past the closing `)`.
fn parse_call(
    ctx: &mut Ctx,
    toks: &[Tok],
    at: &mut usize,
    sp: Span<'_>,
) -> Result<(Callee, [Operand; 2]), ParseError> {
    *at += 1; // the `call` keyword
    let callee = match toks.get(*at) {
        Some(Tok::Ident(name)) => Callee::by_name(name)
            .ok_or_else(|| sp.err(*at, format!("unknown intrinsic `{name}`")))?,
        other => {
            return Err(sp.err(
                *at,
                format!(
                    "expected intrinsic name, found {}",
                    other.map_or("end of line".to_string(), |t| t.to_string())
                ),
            ))
        }
    };
    *at += 1;
    expect_sym(toks, at, "(", sp)?;
    let a = ctx.operand(toks, at, sp)?;
    expect_sym(toks, at, ",", sp)?;
    let b = ctx.operand(toks, at, sp)?;
    expect_sym(toks, at, ")", sp)?;
    Ok((callee, [a, b]))
}

fn parse_rhs(
    ctx: &mut Ctx,
    toks: &[Tok],
    at: &mut usize,
    sp: Span<'_>,
) -> Result<Rvalue, ParseError> {
    // A memory read: `load p`.
    if matches!(toks.get(*at), Some(Tok::Ident(kw)) if kw == "load") {
        *at += 1;
        let a = ctx.operand(toks, at, sp)?;
        return Ok(Rvalue::Expr(Expr::Mem(a)));
    }
    // Unary: `-a`, `~a`, `~5` (but `-5` is the constant).
    match (toks.get(*at), toks.get(*at + 1)) {
        (Some(Tok::Sym("-")), Some(Tok::Ident(_))) => {
            *at += 1;
            let a = ctx.operand(toks, at, sp)?;
            return Ok(Rvalue::Expr(Expr::Un(UnOp::Neg, a)));
        }
        (Some(Tok::Sym("~")), _) => {
            *at += 1;
            let a = ctx.operand(toks, at, sp)?;
            return Ok(Rvalue::Expr(Expr::Un(UnOp::Not, a)));
        }
        _ => {}
    }
    let a = ctx.operand(toks, at, sp)?;
    match toks.get(*at) {
        None => Ok(Rvalue::Operand(a)),
        Some(Tok::Sym(sym)) => {
            let op = binop_from_sym(sym)
                .ok_or_else(|| sp.err(*at, format!("unknown binary operator `{sym}`")))?;
            *at += 1;
            let b = ctx.operand(toks, at, sp)?;
            Ok(Rvalue::Expr(Expr::Bin(op, a, b)))
        }
        Some(other) => Err(sp.err(
            *at,
            format!("expected operator or end of line, found {other}"),
        )),
    }
}

fn expect_sym(toks: &[Tok], at: &mut usize, sym: &str, sp: Span<'_>) -> Result<(), ParseError> {
    match toks.get(*at) {
        Some(Tok::Sym(s)) if *s == sym => {
            *at += 1;
            Ok(())
        }
        other => Err(sp.err(
            *at,
            format!(
                "expected `{sym}`, found {}",
                other.map_or("end of line".to_string(), |t| t.to_string())
            ),
        )),
    }
}

fn expect_end(toks: &[Tok], at: usize, sp: Span<'_>) -> Result<(), ParseError> {
    if at == toks.len() {
        Ok(())
    } else {
        Err(sp.err(at, format!("trailing tokens starting at {}", toks[at])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_diamond() {
        let f = parse_function(
            "fn d {
             entry:
               br c, l, r   # branch on input
             l:
               x = a + b
               jmp join
             r:
               x = a - -3
               jmp join
             join:
               obs x
               ret
             }",
        )
        .unwrap();
        assert_eq!(f.name, "d");
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.block(f.entry()).name, "entry");
        assert_eq!(f.block(f.exit()).name, "join");
        crate::verify(&f).unwrap();
        // `a - -3` parses as binary sub with constant -3.
        let l = f.block_by_name("l").unwrap();
        let r = f.block_by_name("r").unwrap();
        assert_eq!(f.block(l).instrs.len(), 1);
        match f.block(r).instrs[0] {
            Instr::Assign {
                rv: Rvalue::Expr(Expr::Bin(BinOp::Sub, _, Operand::Const(-3))),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_unary() {
        let f = parse_function("fn u {\nentry:\n  x = -a\n  y = ~x\n  ret\n}").unwrap();
        assert_eq!(f.expr_universe().len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_function("fn b {\nentry:\n  x = a +\n  ret\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("line 3"));

        let e = parse_function("fn b {\nentry:\n  jmp nowhere\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("unknown label"));
    }

    #[test]
    fn errors_carry_columns() {
        // `x = a +` — the error is the missing operand after the `+` at
        // column 9, so the reported column is just past it.
        let e = parse_function("fn b {\nentry:\n  x = a +\n  ret\n}").unwrap_err();
        assert_eq!((e.line, e.col), (3, 10));
        assert!(e.to_string().contains("column 10"), "{e}");

        // The unknown label itself starts at column 7.
        let e = parse_function("fn b {\nentry:\n  jmp nowhere\n}").unwrap_err();
        assert_eq!((e.line, e.col), (3, 7));

        // Lexer errors point at the bad character.
        let e = parse_function("fn b {\nentry:\n  x = a ? b\n  ret\n}").unwrap_err();
        assert_eq!((e.line, e.col), (3, 9));
        assert!(e.message.contains("unexpected character"));

        // Structural whole-line problems anchor at the line's first token.
        let e = parse_function("fn b {\nentry:\n  ret\n  x = 1\n}").unwrap_err();
        assert_eq!((e.line, e.col), (4, 3));
    }

    #[test]
    fn rejects_structural_problems() {
        // No ret block.
        assert!(parse_function("fn b {\nentry:\n  jmp entry\n}").is_err());
        // Two ret blocks.
        assert!(parse_function("fn b {\nentry:\n  ret\nother:\n  ret\n}").is_err());
        // Instruction after terminator.
        assert!(parse_function("fn b {\nentry:\n  ret\n  x = 1\n}").is_err());
        // Missing terminator.
        assert!(parse_function("fn b {\nentry:\n  x = 1\n}").is_err());
        // Duplicate label.
        assert!(parse_function("fn b {\nentry:\n  ret\nentry:\n  ret\n}").is_err());
        // Missing closing brace.
        assert!(parse_function("fn b {\nentry:\n  ret\n").is_err());
    }

    const LOOPY: &str = "fn w {
entry:
  x = a * b
  jmp head
head:
  br x, body, done
body:
  jmp head
done:
  ret
}";

    #[test]
    fn parses_a_profile_section() {
        let text = format!(
            "{LOOPY}\n\nprofile w {{
  entry -> head : 1
  head -> body : 99
  head -> done : 1
  body -> head : 99
}}"
        );
        let m = parse_module(&text).unwrap();
        let p = m.profile("w").unwrap();
        assert_eq!(p.entries.len(), 4);
        let f = m.get("w").unwrap();
        assert_eq!(p.resolve(f).unwrap(), vec![1, 99, 1, 99]);
        // Round-trips with the profile attached.
        let again = parse_module(&m.to_string()).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn profile_flow_conservation_errors_are_spanned() {
        // `head` is entered 100 times but left 99+2 times.
        let text = format!(
            "{LOOPY}\n\nprofile w {{
  entry -> head : 1
  head -> body : 99
  head -> done : 2
  body -> head : 99
}}"
        );
        let e = parse_module(&text).unwrap_err();
        assert!(
            e.message.contains("flow not conserved at block `head`"),
            "{e}"
        );
        assert!(e.message.contains("100 in, 101 out"), "{e}");
        // Anchored at head's first outgoing entry: line 15, column 3.
        assert_eq!((e.line, e.col), (15, 3));
    }

    #[test]
    fn profile_reference_errors_are_spanned() {
        // Unknown function (or profile before its function).
        let e = parse_module("profile w {\n}\n\nfn w {\nentry:\n  ret\n}").unwrap_err();
        assert!(e.message.contains("must precede"), "{e}");
        assert_eq!((e.line, e.col), (1, 1));

        // Unknown target label points at the label token.
        let text = format!("{LOOPY}\n\nprofile w {{\n  entry -> nowhere : 1\n}}");
        let e = parse_module(&text).unwrap_err();
        assert!(e.message.contains("unknown block `nowhere`"), "{e}");
        assert_eq!((e.line, e.col), (14, 12));

        // Nonexistent edge.
        let text = format!("{LOOPY}\n\nprofile w {{\n  entry -> done : 1\n}}");
        let e = parse_module(&text).unwrap_err();
        assert!(e.message.contains("nonexistent edge"), "{e}");

        // Missing edge anchors at the header.
        let text = format!("{LOOPY}\n\nprofile w {{\n  entry -> head : 1\n}}");
        let e = parse_module(&text).unwrap_err();
        assert!(e.message.contains("missing edge"), "{e}");
        assert_eq!((e.line, e.col), (13, 1));

        // Duplicate profile.
        let section = "profile w {\n  entry -> head : 0\n  head -> body : 0\n  head -> done : 0\n  body -> head : 0\n}";
        let text = format!("{LOOPY}\n\n{section}\n\n{section}");
        let e = parse_module(&text).unwrap_err();
        assert!(e.message.contains("duplicate profile"), "{e}");

        // Malformed entries.
        let text = format!("{LOOPY}\n\nprofile w {{\n  entry head : 1\n}}");
        let e = parse_module(&text).unwrap_err();
        assert!(e.message.contains("expected `FROM -> TO : WEIGHT`"), "{e}");
    }

    #[test]
    fn parse_function_still_rejects_trailing_sections() {
        let text = format!("{LOOPY}\n\nprofile w {{\n}}");
        let e = parse_function(&text).unwrap_err();
        assert!(e.message.contains("content after closing"), "{e}");
    }

    #[test]
    fn arrow_is_not_an_expression_operator() {
        let e = parse_function("fn b {\nentry:\n  x = a -> b\n  ret\n}").unwrap_err();
        assert!(e.message.contains("unknown binary operator `->`"), "{e}");
        // `a - -3` and `a - 3` still tokenize as before.
        assert!(parse_function("fn b {\nentry:\n  x = a - -3\n  ret\n}").is_ok());
        assert!(parse_function("fn b {\nentry:\n  x = a - 3\n  ret\n}").is_ok());
    }

    #[test]
    fn parses_memory_instructions() {
        let f = parse_function(
            "fn m {
             entry:
               x = load p
               store p, x
               y = call min(x, 3)
               call poke(p, y)
               z = call bump(p, 1)
               obs z
               ret
             }",
        )
        .unwrap();
        crate::verify(&f).unwrap();
        let instrs = &f.block(f.entry()).instrs;
        assert!(matches!(
            instrs[0],
            Instr::Assign {
                rv: Rvalue::Expr(Expr::Mem(_)),
                ..
            }
        ));
        assert!(matches!(instrs[1], Instr::Store { .. }));
        assert!(matches!(
            instrs[2],
            Instr::Call {
                dst: Some(_),
                callee: Callee::Min,
                ..
            }
        ));
        assert!(matches!(
            instrs[3],
            Instr::Call {
                dst: None,
                callee: Callee::Poke,
                ..
            }
        ));
        // Loads join the expression universe; `min` results do not.
        assert!(f.expr_universe().iter().any(|e| matches!(e, Expr::Mem(_))));
        // Round-trips through the printer.
        let reparsed = parse_function(&f.to_string()).unwrap();
        assert_eq!(f.to_string(), reparsed.to_string());
    }

    #[test]
    fn memory_parse_errors_are_spanned() {
        // Unknown intrinsic.
        let e = parse_function("fn m {\nentry:\n  x = call sqrt(a, b)\n  ret\n}").unwrap_err();
        assert!(e.message.contains("unknown intrinsic `sqrt`"), "{e}");
        assert_eq!((e.line, e.col), (3, 12));

        // Missing load address.
        let e = parse_function("fn m {\nentry:\n  x = load\n  ret\n}").unwrap_err();
        assert!(e.message.contains("expected operand"), "{e}");
        assert_eq!(e.line, 3);

        // Store needs two operands.
        let e = parse_function("fn m {\nentry:\n  store p\n  ret\n}").unwrap_err();
        assert!(e.message.contains("expected `,`"), "{e}");

        // Call without parentheses.
        let e = parse_function("fn m {\nentry:\n  call poke p, 1\n  ret\n}").unwrap_err();
        assert!(e.message.contains("expected `(`"), "{e}");
    }

    #[test]
    fn parses_every_operator() {
        for op in BinOp::ALL {
            let text = format!("fn o {{\nentry:\n  x = a {} b\n  ret\n}}", op.symbol());
            let f = parse_function(&text).unwrap();
            match f.block(f.entry()).instrs[0] {
                Instr::Assign {
                    rv: Rvalue::Expr(Expr::Bin(parsed, _, _)),
                    ..
                } => assert_eq!(parsed, op),
                ref other => panic!("unexpected {other:?}"),
            }
        }
    }
}
