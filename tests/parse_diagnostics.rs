//! Golden pin of the textual front end's observable behaviour.
//!
//! Seeded `cfggen` modules and single functions are garbled — lines
//! deleted, duplicated and swapped, bytes flipped, stray `}` lines and
//! over-long integers inserted — and every input is fed to both
//! [`parse_module`] and [`parse_function`]. For an error the golden file
//! records `(line, col, message)`; for a parse it records a hash of the
//! printed result and of every function's variable names in numbering
//! order, so a parse that changed the text *or* the variable numbering
//! shows up as a diff. A few hand-written edge cases (empty input, comment
//! only, CRLF, non-ASCII characters) ride along.
//!
//! The generated inputs are ASCII; messages are written with non-ASCII
//! characters escaped as `\u{..}` so the golden file stays ASCII too.
//!
//! Regenerate after a deliberate change with
//! `LCM_BLESS=1 cargo test --test parse_diagnostics` and review the diff.

use std::fmt::Write as _;

use lcm::cfggen::{seeded, structured, synthetic_profile, GenOptions, Rng};
use lcm::ir::{parse_function, parse_module, Function, Module, ParseError};

const GOLDEN: &str = "tests/golden/parse_diagnostics.txt";
const CASES: u64 = 1500;
const SEED: u64 = 0x5eed_0d1a_6005;

/// Bytes a flip may write: identifier and digit characters, every symbol
/// the lexer knows, comment and whitespace bytes (including `\r` and the
/// vertical tab), and characters the lexer rejects.
const FLIP_ALPHABET: &[u8] = b"aqxz_.09 #=+-*/%&|^<>!,:{}()~\t\r\x0b?@$;'\"`[]\\";

/// Integer spellings around the `i64` boundary.
const LONG_INTS: [&str; 4] = [
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775808",
    "123456789012345678901234567890",
];

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A generated function renamed to `f{index}` so module names are unique.
fn generated(rng: &mut Rng, index: usize) -> Function {
    let mut opts = GenOptions::sized(rng.gen_range(4usize..=18));
    if rng.gen_bool(0.4) {
        opts.mem_prob = 0.3;
    }
    let mut f = structured(rng.next_u64(), &opts);
    f.name = format!("f{index}");
    f
}

/// The ungarbled text of one case: a lone function or a small module,
/// sometimes with a profile section.
fn base_text(rng: &mut Rng) -> String {
    if rng.gen_bool(0.4) {
        return generated(rng, 0).to_string();
    }
    let mut m = Module::default();
    for i in 0..rng.gen_range(2usize..=4) {
        m.push(generated(rng, i)).expect("names are unique");
    }
    if rng.gen_bool(0.4) {
        let f = m.iter().next().expect("non-empty module");
        let p = synthetic_profile(f, rng.next_u64());
        m.push_profile(p).expect("one profile");
    }
    m.to_string()
}

/// Applies up to three seeded garblings to `text` (none in about one case
/// in eight, so clean round trips are pinned too).
fn garble(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let rounds = if rng.gen_bool(0.125) {
        0
    } else {
        rng.gen_range(1usize..=3)
    };
    for _ in 0..rounds {
        if lines.is_empty() {
            lines.push(String::new());
        }
        let n = lines.len();
        let at = rng.gen_range(0..n);
        match rng.gen_range(0usize..6) {
            0 => {
                lines.remove(at);
            }
            1 => {
                let copy = lines[at].clone();
                lines.insert(at, copy);
            }
            2 => lines.swap(at, rng.gen_range(0..n)),
            3 => {
                let mut bytes = std::mem::take(&mut lines[at]).into_bytes();
                let b = FLIP_ALPHABET[rng.gen_range(0..FLIP_ALPHABET.len())];
                if bytes.is_empty() {
                    bytes.push(b);
                } else {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = b;
                }
                lines[at] = String::from_utf8(bytes).expect("ASCII stays UTF-8");
            }
            4 => lines.insert(at, "}".to_string()),
            _ => {
                let long = LONG_INTS[rng.gen_range(0..LONG_INTS.len())];
                let line = &mut lines[at];
                // Replace the line's last integer if it has one; otherwise
                // splice the literal in at a random byte.
                match line.rfind(|c: char| c.is_ascii_digit()) {
                    Some(end) => {
                        let start = line[..end]
                            .rfind(|c: char| !c.is_ascii_digit())
                            .map_or(0, |i| i + 1);
                        line.replace_range(start..=end, long);
                    }
                    None => {
                        let i = rng.gen_range(0..=line.len());
                        line.insert_str(i, long);
                    }
                }
            }
        }
    }
    let mut out = lines.join("\n");
    if rng.gen_bool(0.5) {
        out.push('\n');
    }
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii() && !c.is_ascii_control() {
            out.push(c);
        } else {
            write!(out, "\\u{{{:x}}}", c as u32).unwrap();
        }
    }
    out
}

fn err_line(e: &ParseError) -> String {
    format!("err {}:{} {}", e.line, e.col, escape(&e.message))
}

/// Hashes of the printed functions and of each function's variable names
/// in numbering order.
fn ok_line<'a>(text: String, fns: impl Iterator<Item = &'a Function>) -> String {
    let mut vars = String::new();
    let mut count = 0;
    for f in fns {
        count += 1;
        for (_, name) in f.symbols.iter() {
            vars.push_str(name);
            vars.push(' ');
        }
        vars.push('\n');
    }
    format!(
        "ok fns={count} text={:016x} vars={:016x}",
        fnv64(text.as_bytes()),
        fnv64(vars.as_bytes())
    )
}

fn record(out: &mut String, id: &str, text: &str) {
    let module = match parse_module(text) {
        Ok(m) => ok_line(m.to_string(), m.iter()),
        Err(e) => err_line(&e),
    };
    let function = match parse_function(text) {
        Ok(f) => ok_line(f.to_string(), std::iter::once(&f)),
        Err(e) => err_line(&e),
    };
    writeln!(out, "{id} module {module}").unwrap();
    writeln!(out, "{id} function {function}").unwrap();
}

/// Hand-written inputs at the edges of the grammar.
const EDGE_CASES: &[(&str, &str)] = &[
    ("empty", ""),
    ("blank", "\n  \n\t\n"),
    ("comment-only", "# nothing here\n   # still nothing"),
    (
        "crlf",
        "fn c {\r\nentry:\r\n  x = a + b\r\n  obs x\r\n  ret\r\n}\r\n",
    ),
    ("lone-brace", "}"),
    ("header-only", "fn h {"),
    ("glued", "fn g{\nentry:\n  x=a+b\n  obs x\n  ret\n}"),
    (
        "min-int",
        "fn m {\nentry:\n  x = a - -9223372036854775808\n  ret\n}",
    ),
    (
        "trailing-comment",
        "fn t {\nentry: # the entry\n  ret # done\n} # end",
    ),
    // Non-ASCII input reports the character itself, at its byte column.
    (
        "non-ascii-letter",
        "fn u {\nentry:\n  x = \u{c5} + b\n  ret\n}",
    ),
    (
        "no-break-space",
        "fn u {\nentry:\n  x =\u{a0}a + b\n  ret\n}",
    ),
];

fn generate() -> String {
    let mut out = String::new();
    for (id, text) in EDGE_CASES {
        record(&mut out, id, text);
    }
    for case in 0..CASES {
        let mut rng = seeded(SEED ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let base = base_text(&mut rng);
        let text = garble(&mut rng, &base);
        assert!(text.is_ascii());
        record(&mut out, &format!("{case:04}"), &text);
    }
    out
}

#[test]
fn parse_diagnostics_match_the_golden_file() {
    let got = generate();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("LCM_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap();
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN}:{} differs", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{GOLDEN} length");
}

#[test]
fn generated_inputs_exercise_both_outcomes() {
    let got = generate();
    let oks = got.lines().filter(|l| l.contains(" ok ")).count();
    let errs = got.lines().filter(|l| l.contains(" err ")).count();
    assert!(oks > 300 && errs > 2000, "{oks} parses, {errs} errors");
    for needle in [
        "unexpected character",
        "out of range",
        "content after closing",
        "missing closing",
        "unknown label",
        "lacks a terminator",
        "duplicate",
        "profile",
    ] {
        assert!(got.contains(needle), "no case reports `{needle}`");
    }
}
