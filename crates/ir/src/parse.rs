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
//!
//! Parsing streams: one *section* at a time — a `fn` or `profile` header
//! through the first line that is exactly `}` — is lexed into one reusable
//! buffer of tokens that borrow from the input. Nothing is allocated per
//! token or per line, and working memory is bounded by the largest
//! section, not the module. A lexer error anywhere in the input still wins
//! over every parse error, as if the whole input were lexed first.

use std::collections::hash_map::{Entry, HashMap};
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

/// A token. Identifiers borrow from the input text.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Sym(&'static str),
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(i) => write!(f, "`{i}`"),
            Tok::Sym(s) => write!(f, "`{s}`"),
        }
    }
}

/// The symbol starting at `bytes[i]`, longest match first: `->` before
/// `-`, `<<`/`<=` before `<`, and so on.
fn symbol(bytes: &[u8], i: usize) -> Option<&'static str> {
    Some(match (bytes[i], bytes.get(i + 1).copied()) {
        (b'<', Some(b'<')) => "<<",
        (b'<', Some(b'=')) => "<=",
        (b'<', _) => "<",
        (b'>', Some(b'>')) => ">>",
        (b'>', Some(b'=')) => ">=",
        (b'>', _) => ">",
        (b'=', Some(b'=')) => "==",
        (b'=', _) => "=",
        (b'!', Some(b'=')) => "!=",
        (b'-', Some(b'>')) => "->",
        (b'-', _) => "-",
        (b'+', _) => "+",
        (b'*', _) => "*",
        (b'/', _) => "/",
        (b'%', _) => "%",
        (b'&', _) => "&",
        (b'|', _) => "|",
        (b'^', _) => "^",
        (b',', _) => ",",
        (b':', _) => ":",
        (b'{', _) => "{",
        (b'}', _) => "}",
        (b'~', _) => "~",
        (b'(', _) => "(",
        (b')', _) => ")",
        _ => return None,
    })
}

/// Lexes the line of `text` that starts at byte `from` onto the end of
/// `toks`, recording each token's 1-based byte column in `cols`
/// (saturating at `u32::MAX`). Returns the offset just past the line's
/// `\n`, or the end of `text`. Lines split at `\n` only; a `\r` before it
/// is whitespace, so `\r\n` input lexes like `\n` input.
fn lex_line<'a>(
    text: &'a str,
    from: usize,
    lineno: usize,
    toks: &mut Vec<Tok<'a>>,
    cols: &mut Vec<u32>,
) -> Result<usize, ParseError> {
    let bytes = text.as_bytes();
    let mut i = from;
    while let Some(&b) = bytes.get(i) {
        let start = i;
        let tok = match b {
            b'\n' => return Ok(i + 1),
            b'#' => break,
            // The ASCII characters `char::is_whitespace` accepts.
            b' ' | b'\t' | b'\x0b' | b'\x0c' | b'\r' => {
                i += 1;
                continue;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                i += 1;
                while bytes
                    .get(i)
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == b'_' || c == b'.')
                {
                    i += 1;
                }
                Tok::Ident(&text[start..i])
            }
            b'0'..=b'9' => {
                while bytes.get(i).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                }
                let digits = &text[start..i];
                Tok::Int(digits.parse().map_err(|_| ParseError {
                    line: lineno,
                    col: start - from + 1,
                    message: format!("integer literal `{digits}` out of range"),
                })?)
            }
            _ => match symbol(bytes, i) {
                Some(sym) => {
                    i += sym.len();
                    Tok::Sym(sym)
                }
                None => {
                    // Report the character itself, not its first UTF-8
                    // byte; the column stays a byte column.
                    let c = text[i..].chars().next().unwrap_or('\u{fffd}');
                    return Err(ParseError {
                        line: lineno,
                        col: i - from + 1,
                        message: format!("unexpected character `{c}`"),
                    });
                }
            },
        };
        toks.push(tok);
        cols.push(u32::try_from(start - from + 1).unwrap_or(u32::MAX));
    }
    // A comment, or the end of the input: skip to the next line.
    Ok(bytes[i..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(bytes.len(), |n| i + n + 1))
}

/// One non-empty, lexed source line: its absolute 1-based line number (so
/// multi-function inputs keep file-relative error positions), its tokens
/// and each token's starting column, so errors can point at the offending
/// token rather than just the line.
#[derive(Clone, Copy)]
struct Line<'s, 'a> {
    no: usize,
    toks: &'s [Tok<'a>],
    cols: &'s [u32],
}

impl Line<'_, '_> {
    /// The column of token `at`, or just past the last token for
    /// end-of-line errors.
    fn col(&self, at: usize) -> usize {
        match self.cols.get(at) {
            Some(&c) => c as usize,
            None => self.cols.last().map_or(1, |&c| c as usize + 1),
        }
    }

    fn err(&self, at: usize, message: String) -> ParseError {
        ParseError {
            line: self.no,
            col: self.col(at),
            message,
        }
    }
}

/// Where one line's tokens sit in a [`Section`]'s buffers.
#[derive(Clone, Copy)]
struct LineRef {
    no: usize,
    start: usize,
    end: usize,
}

/// The reusable token buffer: one section at a time — a header line and
/// the lines after it up to the first line that is exactly `}` — so
/// working memory is bounded by the largest function, not the module.
#[derive(Default)]
struct Section<'a> {
    toks: Vec<Tok<'a>>,
    cols: Vec<u32>,
    lines: Vec<LineRef>,
    /// Whether the section ends at a `}` line (else the input ran out).
    closed: bool,
}

impl<'a> Section<'a> {
    fn line(&self, i: usize) -> Line<'_, 'a> {
        let r = self.lines[i];
        Line {
            no: r.no,
            toks: &self.toks[r.start..r.end],
            cols: &self.cols[r.start..r.end],
        }
    }

    /// The `fn`/`profile` header.
    fn header(&self) -> Line<'_, 'a> {
        self.line(0)
    }

    /// The lines between the header and the closing `}`, or the
    /// "missing closing `}`" error, anchored at the input's last non-empty
    /// line.
    fn body(&self) -> Result<impl Iterator<Item = Line<'_, 'a>> + Clone, ParseError> {
        let last = self.lines.len() - 1;
        if !self.closed {
            return Err(err_at_col1(
                self.lines[last].no,
                "missing closing `}`".into(),
            ));
        }
        Ok((1..last).map(|i| self.line(i)))
    }

    /// The closing `}` line's number.
    fn close_no(&self) -> usize {
        self.lines[self.lines.len() - 1].no
    }
}

/// Streams the input's lines into a [`Section`], one section at a time.
struct Reader<'a> {
    text: &'a str,
    /// Byte offset of the first unread line.
    pos: usize,
    /// 1-based number of the first unread line.
    line: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            line: 1,
        }
    }

    /// Lexes the next line onto the end of `toks`/`cols` and returns its
    /// number, or `None` at the end of the input.
    fn lex_next(
        &mut self,
        toks: &mut Vec<Tok<'a>>,
        cols: &mut Vec<u32>,
    ) -> Result<Option<usize>, ParseError> {
        if self.pos >= self.text.len() {
            return Ok(None);
        }
        let no = self.line;
        self.pos = lex_line(self.text, self.pos, no, toks, cols)?;
        self.line += 1;
        Ok(Some(no))
    }

    /// Lexes the next section into `sec`, replacing its contents. Returns
    /// `false` when no non-empty line is left.
    fn next_section(&mut self, sec: &mut Section<'a>) -> Result<bool, ParseError> {
        sec.toks.clear();
        sec.cols.clear();
        sec.lines.clear();
        sec.closed = false;
        loop {
            let start = sec.toks.len();
            let Some(no) = self.lex_next(&mut sec.toks, &mut sec.cols)? else {
                break;
            };
            let end = sec.toks.len();
            if start == end {
                continue;
            }
            sec.lines.push(LineRef { no, start, end });
            if sec.lines.len() > 1 && matches!(sec.toks[start..], [Tok::Sym("}")]) {
                sec.closed = true;
                break;
            }
        }
        Ok(!sec.lines.is_empty())
    }

    /// Lexes the rest of the input one line at a time (reusing `sec`'s
    /// buffers): its first lexer error, or else the position of its first
    /// token, if any.
    fn rest(&mut self, sec: &mut Section<'a>) -> Result<Option<(usize, usize)>, ParseError> {
        let mut first = None;
        loop {
            sec.toks.clear();
            sec.cols.clear();
            let Some(no) = self.lex_next(&mut sec.toks, &mut sec.cols)? else {
                return Ok(first);
            };
            if let (None, Some(&col)) = (first, sec.cols.first()) {
                first = Some((no, col as usize));
            }
        }
    }

    /// The error to report for parse error `e`: a lexer error anywhere in
    /// the input outranks every parse error (the whole input is one token
    /// stream), so the lines not yet lexed are lexed now, on the error
    /// path only.
    fn or_lex_error(&mut self, sec: &mut Section<'a>, e: ParseError) -> ParseError {
        self.rest(sec).err().unwrap_or(e)
    }
}

/// One function's parse state: its variables and its block labels.
struct Ctx<'l, 'a> {
    symbols: SymbolTable,
    labels: &'l HashMap<&'a str, BlockId>,
}

/// `` `tok` `` or "end of line", for "expected …, found …" messages.
fn found(tok: Option<&Tok<'_>>) -> String {
    tok.map_or("end of line".to_string(), Tok::to_string)
}

impl Ctx<'_, '_> {
    fn operand(&mut self, l: Line<'_, '_>, at: &mut usize) -> Result<Operand, ParseError> {
        match l.toks.get(*at) {
            Some(Tok::Ident(name)) => {
                *at += 1;
                Ok(Operand::Var(self.symbols.intern(name)))
            }
            Some(Tok::Int(i)) => {
                *at += 1;
                Ok(Operand::Const(*i))
            }
            Some(Tok::Sym("-")) => match l.toks.get(*at + 1) {
                Some(Tok::Int(i)) => {
                    *at += 2;
                    Ok(Operand::Const(i.wrapping_neg()))
                }
                _ => Err(l.err(*at, "expected integer after unary `-`".into())),
            },
            other => Err(l.err(*at, format!("expected operand, found {}", found(other)))),
        }
    }

    fn label(&self, l: Line<'_, '_>, at: &mut usize) -> Result<BlockId, ParseError> {
        match l.toks.get(*at) {
            Some(Tok::Ident(name)) => {
                let found = self
                    .labels
                    .get(name)
                    .copied()
                    .ok_or_else(|| l.err(*at, format!("unknown label `{name}`")));
                *at += 1;
                found
            }
            other => Err(l.err(*at, format!("expected label, found {}", found(other)))),
        }
    }
}

fn binop_from_sym(sym: &str) -> Option<BinOp> {
    BinOp::ALL.into_iter().find(|o| o.symbol() == sym)
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
    let mut reader = Reader::new(text);
    let mut sec = Section::default();
    if !reader.next_section(&mut sec)? {
        return Err(err_at_col1(1, "empty input".into()));
    }
    let f = match parse_one(&sec, &mut HashMap::new()) {
        Ok(f) => f,
        Err(e) => return Err(reader.or_lex_error(&mut sec, e)),
    };
    match reader.rest(&mut sec)? {
        Some((line, col)) => Err(ParseError {
            line,
            col,
            message: "content after closing `}`".into(),
        }),
        None => Ok(f),
    }
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
    let mut reader = Reader::new(text);
    let mut sec = Section::default();
    let mut labels = HashMap::new();
    let mut module = crate::Module::default();
    if !reader.next_section(&mut sec)? {
        return Err(err_at_col1(1, "empty input".into()));
    }
    loop {
        let header = sec.header();
        let step = match header.toks {
            [Tok::Ident("profile"), Tok::Ident(name), Tok::Sym("{")] => {
                parse_profile_section(&sec, name, &mut module)
            }
            _ => parse_one(&sec, &mut labels).and_then(|f| {
                module.push(f).map_err(|f| {
                    header.err(0, format!("duplicate function `{}` in module", f.name))
                })
            }),
        };
        if let Err(e) = step {
            return Err(reader.or_lex_error(&mut sec, e));
        }
        if !reader.next_section(&mut sec)? {
            return Ok(module);
        }
    }
}

/// Parses one `profile NAME { ... }` section, validates it against the
/// named (already-parsed) function, and attaches it to `module`.
fn parse_profile_section(
    sec: &Section<'_>,
    name: &str,
    module: &mut crate::Module,
) -> Result<(), ParseError> {
    let header = sec.header();
    let mut entries = Vec::new();
    // Per-entry source anchors: (line, from col, to col).
    let mut anchors: Vec<(usize, usize, usize)> = Vec::new();
    for line in sec.body()? {
        match line.toks {
            [Tok::Ident(from), Tok::Sym("->"), Tok::Ident(to), Tok::Sym(":"), Tok::Int(w)] => {
                // The tokenizer has no signs, so `w` is already >= 0.
                entries.push(crate::ProfileEntry {
                    from: from.to_string(),
                    to: to.to_string(),
                    weight: *w as u64,
                });
                anchors.push((line.no, line.col(0), line.col(2)));
            }
            [_, _, _, _, Tok::Sym("-"), ..] => {
                return Err(line.err(4, "profile weight must be a non-negative integer".into()));
            }
            _ => {
                return Err(line.err(0, "expected `FROM -> TO : WEIGHT` profile entry".into()));
            }
        }
    }

    let profile = crate::Profile {
        function: name.to_string(),
        entries,
    };
    let Some(f) = module.get(name) else {
        return Err(header.err(
            0,
            format!(
                "profile for unknown function `{name}` (the function must precede its profile)"
            ),
        ));
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
            PE::MissingEdge { .. } => header.err(0, message),
        });
    }
    if module.push_profile(profile).is_err() {
        return Err(header.err(0, format!("duplicate profile for function `{name}`")));
    }
    Ok(())
}

/// Parses the function in `sec`. `labels` is scratch space, reused across
/// the sections of a module.
fn parse_one<'a>(
    sec: &Section<'a>,
    labels: &mut HashMap<&'a str, BlockId>,
) -> Result<Function, ParseError> {
    let header = sec.header();
    let first_line = header.no;
    let name = match header.toks {
        [Tok::Ident("fn"), Tok::Ident(name), Tok::Sym("{")] => *name,
        _ => {
            return Err(err_at_col1(
                first_line,
                "expected `fn NAME {` header".into(),
            ))
        }
    };
    let body = sec.body()?;

    // Pass 1: collect block labels in order.
    labels.clear();
    let mut blocks: Vec<BlockData> = Vec::new();
    for line in body.clone() {
        if let [Tok::Ident(label), Tok::Sym(":")] = line.toks {
            match labels.entry(label) {
                Entry::Occupied(_) => {
                    return Err(line.err(0, format!("duplicate label `{label}`")));
                }
                Entry::Vacant(slot) => {
                    slot.insert(BlockId::from_index(blocks.len()));
                }
            }
            blocks.push(BlockData::new(*label));
        }
    }
    if blocks.is_empty() {
        return Err(err_at_col1(first_line, "function has no blocks".into()));
    }

    // Pass 2: fill in instructions and terminators.
    let mut ctx = Ctx {
        symbols: SymbolTable::new(),
        labels,
    };
    // Label lines come in block order, so the k-th one opens block k; only
    // the open block can still be unterminated.
    let mut current: Option<usize> = None;
    let mut terminated = false;
    let mut exit: Option<BlockId> = None;
    for l in body {
        if let [Tok::Ident(_), Tok::Sym(":")] = l.toks {
            if let Some(cur) = current {
                if !terminated {
                    return Err(l.err(
                        0,
                        format!("block `{}` lacks a terminator", blocks[cur].name),
                    ));
                }
            }
            current = Some(current.map_or(0, |cur| cur + 1));
            terminated = false;
            continue;
        }
        let cur = current.ok_or_else(|| l.err(0, "instruction before first label".into()))?;
        if terminated {
            return Err(l.err(
                0,
                format!(
                    "instruction after terminator in block `{}`",
                    blocks[cur].name
                ),
            ));
        }
        let mut at = 1;
        match l.toks {
            [Tok::Ident("obs"), ..] => {
                let op = ctx.operand(l, &mut at)?;
                expect_end(l, at)?;
                blocks[cur].instrs.push(Instr::Observe(op));
            }
            [Tok::Ident("store"), ..] => {
                let addr = ctx.operand(l, &mut at)?;
                expect_sym(l, &mut at, ",")?;
                let val = ctx.operand(l, &mut at)?;
                expect_end(l, at)?;
                blocks[cur].instrs.push(Instr::Store { addr, val });
            }
            [Tok::Ident("call"), ..] => {
                let (callee, args) = parse_call(&mut ctx, l, &mut at)?;
                expect_end(l, at)?;
                blocks[cur].instrs.push(Instr::Call {
                    dst: None,
                    callee,
                    args,
                });
            }
            [Tok::Ident("jmp"), ..] => {
                let target = ctx.label(l, &mut at)?;
                expect_end(l, at)?;
                blocks[cur].term = Terminator::Jump(target);
                terminated = true;
            }
            [Tok::Ident("br"), ..] => {
                let cond = ctx.operand(l, &mut at)?;
                expect_sym(l, &mut at, ",")?;
                let then_to = ctx.label(l, &mut at)?;
                expect_sym(l, &mut at, ",")?;
                let else_to = ctx.label(l, &mut at)?;
                expect_end(l, at)?;
                blocks[cur].term = Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                };
                terminated = true;
            }
            [Tok::Ident("ret")] => {
                blocks[cur].term = Terminator::Exit;
                terminated = true;
                let this = BlockId::from_index(cur);
                if let Some(prev) = exit {
                    return Err(l.err(
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
            [Tok::Ident(dst), Tok::Sym("="), rest @ ..] => {
                let dst = ctx.symbols.intern(dst);
                let instr = if let [Tok::Ident("call"), ..] = rest {
                    at = 3;
                    let (callee, args) = parse_call(&mut ctx, l, &mut at)?;
                    Instr::Call {
                        dst: Some(dst),
                        callee,
                        args,
                    }
                } else {
                    at = 2;
                    let rv = parse_rhs(&mut ctx, l, &mut at)?;
                    Instr::Assign { dst, rv }
                };
                expect_end(l, at)?;
                blocks[cur].instrs.push(instr);
            }
            _ => {
                return Err(l.err(0, "expected instruction or terminator".into()));
            }
        }
    }
    if let Some(cur) = current {
        if !terminated {
            return Err(err_at_col1(
                sec.close_no(),
                format!("block `{}` lacks a terminator", blocks[cur].name),
            ));
        }
    }
    let exit = exit.ok_or_else(|| err_at_col1(first_line, "no `ret` block".into()))?;

    Ok(Function {
        name: name.to_string(),
        blocks,
        entry: BlockId(0),
        exit,
        symbols: ctx.symbols,
    })
}

/// Parses the `NAME(a, b)` of a call with `at` just past the `call`
/// keyword; leaves `at` just past the closing `)`.
fn parse_call(
    ctx: &mut Ctx<'_, '_>,
    l: Line<'_, '_>,
    at: &mut usize,
) -> Result<(Callee, [Operand; 2]), ParseError> {
    let callee = match l.toks.get(*at) {
        Some(Tok::Ident(name)) => Callee::by_name(name)
            .ok_or_else(|| l.err(*at, format!("unknown intrinsic `{name}`")))?,
        other => {
            return Err(l.err(
                *at,
                format!("expected intrinsic name, found {}", found(other)),
            ))
        }
    };
    *at += 1;
    expect_sym(l, at, "(")?;
    let a = ctx.operand(l, at)?;
    expect_sym(l, at, ",")?;
    let b = ctx.operand(l, at)?;
    expect_sym(l, at, ")")?;
    Ok((callee, [a, b]))
}

fn parse_rhs(ctx: &mut Ctx<'_, '_>, l: Line<'_, '_>, at: &mut usize) -> Result<Rvalue, ParseError> {
    let toks = l.toks;
    // A memory read: `load p`.
    if let Some(Tok::Ident("load")) = toks.get(*at) {
        *at += 1;
        let a = ctx.operand(l, at)?;
        return Ok(Rvalue::Expr(Expr::Mem(a)));
    }
    // Unary: `-a`, `~a`, `~5` (but `-5` is the constant).
    match (toks.get(*at), toks.get(*at + 1)) {
        (Some(Tok::Sym("-")), Some(Tok::Ident(_))) => {
            *at += 1;
            let a = ctx.operand(l, at)?;
            return Ok(Rvalue::Expr(Expr::Un(UnOp::Neg, a)));
        }
        (Some(Tok::Sym("~")), _) => {
            *at += 1;
            let a = ctx.operand(l, at)?;
            return Ok(Rvalue::Expr(Expr::Un(UnOp::Not, a)));
        }
        _ => {}
    }
    let a = ctx.operand(l, at)?;
    match toks.get(*at) {
        None => Ok(Rvalue::Operand(a)),
        Some(Tok::Sym(sym)) => {
            let op = binop_from_sym(sym)
                .ok_or_else(|| l.err(*at, format!("unknown binary operator `{sym}`")))?;
            *at += 1;
            let b = ctx.operand(l, at)?;
            Ok(Rvalue::Expr(Expr::Bin(op, a, b)))
        }
        Some(other) => Err(l.err(
            *at,
            format!("expected operator or end of line, found {other}"),
        )),
    }
}

fn expect_sym(l: Line<'_, '_>, at: &mut usize, sym: &str) -> Result<(), ParseError> {
    match l.toks.get(*at) {
        Some(Tok::Sym(s)) if *s == sym => {
            *at += 1;
            Ok(())
        }
        other => Err(l.err(*at, format!("expected `{sym}`, found {}", found(other)))),
    }
}

fn expect_end(l: Line<'_, '_>, at: usize) -> Result<(), ParseError> {
    match l.toks.get(at) {
        None => Ok(()),
        Some(t) => Err(l.err(at, format!("trailing tokens starting at {t}"))),
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
