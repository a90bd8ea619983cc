//! Deterministic renderings of a [`crate::BatchResult`].
//!
//! Everything emitted here is a pure function of the batch result, which
//! is itself independent of the thread count — so `lcmopt batch` output
//! can be diffed across `--jobs` values (ci.sh does exactly that). No
//! wall-clock numbers appear in any of these formats; timing goes to
//! stderr, where nondeterminism belongs.

use std::fmt::Write as _;

use crate::{BatchResult, IncrementalUnit, UnitOutcome};

/// One unit's part of a module text.
#[derive(Clone, Copy, Debug)]
pub enum UnitText<'a> {
    /// The printed optimized function.
    Ok(&'a str),
    /// A failed unit, reported as a `#`-comment line.
    Failed {
        /// The function's name.
        name: &'a str,
        /// The failure kind's stable name ([`crate::FailureKind::name`]).
        kind: &'a str,
        /// What went wrong; control characters print as spaces.
        message: &'a str,
    },
}

/// The module text of `units` in order: each printed function, each
/// failure as one `# fn NAME: FAILED (kind): message` line, separated by
/// blank lines. The result is a valid module again whenever every unit
/// succeeded (and no two units share a name). `lcmopt request` renders
/// the daemon's streamed units through it, so its output equals batch's.
pub fn render_units<'a>(units: impl IntoIterator<Item = UnitText<'a>>) -> String {
    let mut out = String::new();
    for (i, unit) in units.into_iter().enumerate() {
        if i > 0 {
            out.push_str("\n\n");
        }
        match unit {
            UnitText::Ok(s) => out.push_str(s),
            UnitText::Failed {
                name,
                kind,
                message,
            } => {
                let _ = write!(out, "# fn {name}: FAILED ({kind}): ");
                out.extend(
                    message
                        .chars()
                        .map(|c| if c.is_control() { ' ' } else { c }),
                );
            }
        }
    }
    out.push('\n');
    out
}

/// The optimized module text of a batch ([`render_units`]).
pub fn render_text(result: &BatchResult) -> String {
    render_units(result.units.iter().map(|unit| match &unit.outcome {
        UnitOutcome::Ok(s) => UnitText::Ok(&s.output),
        UnitOutcome::Failed(e) => UnitText::Failed {
            name: &unit.name,
            kind: e.kind.name(),
            message: &e.message,
        },
    }))
}

/// [`render_text`] for the incremental runner's outcomes
/// ([`BatchEngine::run_module_incremental`](crate::BatchEngine::run_module_incremental)):
/// the same shape byte for byte, so `lcmopt watch` output diffs cleanly
/// against a one-shot `lcmopt batch` on the same module.
pub fn render_incremental_text(units: &[IncrementalUnit]) -> String {
    render_units(units.iter().map(|unit| match &unit.outcome {
        Ok(s) => UnitText::Ok(s),
        Err(e) => UnitText::Failed {
            name: &unit.name,
            kind: e.kind.name(),
            message: &e.message,
        },
    }))
}

/// The aggregate tables: batch counts, the merged solver statistics (same
/// table as `lcmopt --emit stats`), rewrite counters, validator counters
/// and cache counters.
pub fn render_stats(result: &BatchResult) -> String {
    let t = &result.totals;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "batch: {} functions ({} ok, {} failed), {} computed",
        t.functions, t.ok, t.failed, t.computed
    );
    out.push_str(&lcm_core::report::stats_table(&t.pipeline));
    let _ = writeln!(
        out,
        "transform: {} insertions, {} deletions, {} retained defs, {} edges split, {} temps",
        t.transform.insertions,
        t.transform.deletions,
        t.transform.retained_defs,
        t.transform.edges_split,
        t.transform.temps
    );
    if t.spec.candidates > 0 {
        let _ = writeln!(
            out,
            "speculative: {} candidates, {} speculated, weighted cost {} -> {}",
            t.spec.candidates,
            t.spec.speculated,
            t.spec.lcm_weighted_cost,
            t.spec.spec_weighted_cost
        );
    }
    let _ = writeln!(
        out,
        "validation: {} checks, {} inputs sampled",
        t.validation_checks, t.inputs_sampled
    );
    let _ = writeln!(out, "cache: {}, {} entries", t.cache, t.cache_entries);
    if let Some(l) = t.lifetime {
        let _ = writeln!(out, "lifetime: {l}");
    }
    out
}

/// A machine-readable rendering: one object per unit plus the totals.
/// Hand-rolled (the workspace is dependency-free); keys are emitted in a
/// fixed order so the output is byte-stable.
pub fn render_json(result: &BatchResult) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"functions\": [\n");
    for (i, unit) in result.units.iter().enumerate() {
        out.push_str("    {");
        let _ = write!(out, "\"name\": \"{}\"", esc(&unit.name));
        match &unit.file {
            Some(file) => {
                let _ = write!(out, ", \"file\": \"{}\"", esc(file));
            }
            None => out.push_str(", \"file\": null"),
        }
        let _ = write!(out, ", \"cache\": \"{}\"", unit.cache.name());
        match &unit.outcome {
            UnitOutcome::Ok(s) => {
                let total = s.pipeline.total();
                let _ = write!(
                    out,
                    ", \"status\": \"ok\", \"insertions\": {}, \"deletions\": {}, \
                     \"retained_defs\": {}, \"edges_split\": {}, \"temps\": {}, \
                     \"node_visits\": {}, \"word_ops\": {}, \"validation_checks\": {}, \
                     \"inputs_sampled\": {}",
                    s.transform.insertions,
                    s.transform.deletions,
                    s.transform.retained_defs,
                    s.transform.edges_split,
                    s.transform.temps,
                    total.node_visits,
                    total.word_ops,
                    s.validation_checks,
                    s.inputs_sampled
                );
            }
            UnitOutcome::Failed(e) => {
                let _ = write!(
                    out,
                    ", \"status\": \"failed\", \"kind\": \"{}\", \"error\": \"{}\"",
                    e.kind.name(),
                    esc(&e.message)
                );
            }
        }
        out.push('}');
        if i + 1 < result.units.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let t = &result.totals;
    let total = t.pipeline.total();
    out.push_str("  ],\n  \"totals\": {\n");
    let _ = writeln!(
        out,
        "    \"functions\": {}, \"ok\": {}, \"failed\": {}, \"computed\": {},",
        t.functions, t.ok, t.failed, t.computed
    );
    let _ = writeln!(
        out,
        "    \"solver\": {{\"node_visits\": {}, \"word_ops\": {}}},",
        total.node_visits, total.word_ops
    );
    let _ = writeln!(
        out,
        "    \"transform\": {{\"insertions\": {}, \"deletions\": {}, \"retained_defs\": {}, \
         \"edges_split\": {}, \"temps\": {}}},",
        t.transform.insertions,
        t.transform.deletions,
        t.transform.retained_defs,
        t.transform.edges_split,
        t.transform.temps
    );
    let _ = writeln!(
        out,
        "    \"validation\": {{\"checks\": {}, \"inputs_sampled\": {}}},",
        t.validation_checks, t.inputs_sampled
    );
    let _ = writeln!(
        out,
        "    \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"entries\": {}}}",
        t.cache.hits, t.cache.misses, t.cache.evictions, t.cache_entries
    );
    out.push_str("  }\n}\n");
    out
}

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_print_as_one_comment_line() {
        let text = render_units([
            UnitText::Ok("fn a {\nentry:\n  ret\n}"),
            UnitText::Failed {
                name: "b",
                kind: "pipeline",
                message: "two\nlines\tand a tab",
            },
        ]);
        assert_eq!(
            text,
            "fn a {\nentry:\n  ret\n}\n\n# fn b: FAILED (pipeline): two lines and a tab\n"
        );
        assert_eq!(render_units([]), "\n");
    }
}
