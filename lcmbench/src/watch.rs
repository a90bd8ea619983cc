//! `watch-edit`: one editor over one large module, closed loop. After a
//! cold first optimization, each revision applies one or two seeded edits
//! and is timed from text through `parse_module` →
//! `run_module_incremental` → rendered output — the `lcmopt watch` path,
//! where the zero-dirty memo, fingerprinting, parsing and delta solves
//! dominate. The set-up time is that cold first optimization, repeated on
//! fresh engines every [`SETUP_EVERY`] revisions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use lcm_driver::report::render_incremental_text;
use lcm_driver::{BatchEngine, BatchOptions, BatchUnit, IncrementalUnit, PlanCache};
use lcm_ir::{parse_module, Module};

use crate::oracle::{OneShot, Oracle};
use crate::pipeline::{render, Hot};
use crate::stats::{mean, median, quantile, quietest_block};
use crate::trace::Tracer;
use crate::{gen, layers, Outcome, Run};

/// Revisions between two timed cold set-ups.
const SETUP_EVERY: usize = 25;

fn options() -> BatchOptions {
    // `lcmopt watch`'s engine configuration.
    BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    }
}

/// One revision through the watch engine.
fn revision(
    engine: &mut BatchEngine,
    text: &str,
) -> Result<(Module, Vec<IncrementalUnit>, String), String> {
    let m = parse_module(text).map_err(|e| e.to_string())?;
    let units = engine.run_module_incremental(&m);
    let rendered = render_incremental_text(&units);
    Ok((m, units, rendered))
}

/// The checks on each revision's outputs.
struct Checker {
    oracle: Oracle,
    oneshot: OneShot,
    /// Each function's output in the last checked revision, by position.
    previous: Vec<String>,
}

impl Checker {
    fn new(seed: u64, opts: BatchOptions) -> Self {
        Checker {
            oracle: Oracle::new(seed),
            oneshot: OneShot::new(opts),
            previous: Vec::new(),
        }
    }

    /// Checks one revision: every unit succeeded; an edited function's
    /// output (every function's, when `edited` is `None`) is byte-identical
    /// to a one-shot batch run of it and passes the oracle; an unedited
    /// function's output is the one already checked for the same input.
    fn check(&mut self, m: &Module, units: &[IncrementalUnit], edited: Option<&[usize]>) -> bool {
        self.previous.resize(m.len(), String::new());
        let mut ok = true;
        for (i, (f, unit)) in m.iter().zip(units).enumerate() {
            let verdict = match &unit.outcome {
                Err(e) => Err(format!("fn {}: unit failed: {}", f.name, e.message)),
                Ok(text) if edited.is_some_and(|e| !e.contains(&i)) => {
                    if *text == self.previous[i] {
                        Ok(true)
                    } else {
                        Err(format!("fn {}: output changed, its input did not", f.name))
                    }
                }
                Ok(text) => {
                    let unit = BatchUnit {
                        file: None,
                        function: f.clone(),
                        profile: None,
                    };
                    let verdict = self
                        .oneshot
                        .check(unit, text)
                        .map(|()| self.oracle.check(f, text));
                    self.previous[i].clone_from(text);
                    verdict
                }
            };
            match verdict {
                Ok(true) => {}
                Ok(false) => ok = false,
                Err(why) => {
                    self.oracle.fail(why);
                    ok = false;
                }
            }
        }
        ok
    }
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let (m0, sizes) = gen::watch_module(r.seed);
    let text0 = m0.to_string();
    let mut shape = gen::Shape::default();
    shape.add(&text0, &m0, &sizes);
    let opts = options();
    let mut checker = Checker::new(r.seed, opts);
    let mut editor = gen::Editor::new(r.seed, &m0);

    let mut out = Outcome::default();
    // The session starts with the cold first optimization, checked in full.
    let mut engine = BatchEngine::new(opts);
    let (m, units, _) = revision(&mut engine, &text0)?;
    if !checker.check(&m, &units, None) {
        return Err("the initial module failed its checks".into());
    }

    let budget = Duration::from_secs_f64(r.seconds);
    if r.trace {
        traced(
            r,
            &mut out,
            &mut engine,
            &mut editor,
            &text0,
            budget,
            &mut checker,
        )?;
    } else {
        let mut times = Vec::new();
        let mut setup: Vec<(usize, f64)> = Vec::new();
        let (mut busy, mut functions) = (Duration::ZERO, 0usize);
        let mut modes: BTreeMap<&str, usize> = BTreeMap::new();
        let mut rss = 0.0;
        while crate::keep_going(busy, budget, times.len()) {
            let i = times.len();
            if i.is_multiple_of(SETUP_EVERY) {
                let t = Instant::now();
                black_box(revision(&mut BatchEngine::new(opts), &text0)?);
                setup.push((i, t.elapsed().as_secs_f64()));
            }
            let (text, edited) = editor.next_revision();
            let t = Instant::now();
            let (m, units, rendered) = revision(&mut engine, &text)?;
            let d = t.elapsed();
            black_box(rendered);
            busy += d;
            times.push(d.as_secs_f64() * 1e3);
            functions += m.len();
            for u in &units {
                *modes.entry(u.mode.name()).or_insert(0) += 1;
            }
            checker.oracle.collect_quality = i < crate::MIN_OPS;
            out.attempted += 1;
            if !checker.check(&m, &units, Some(&edited)) {
                out.failed += 1;
            }
            if times.len() == crate::MIN_OPS {
                rss = crate::peak_rss_mb();
            }
        }
        let q = checker.oracle.quality;
        let quiet = quietest_block(&times);
        let quiet_setup: Vec<f64> = setup
            .iter()
            .filter(|(i, _)| quiet.contains(i))
            .map(|&(_, s)| s)
            .collect();
        let quiet_ms: f64 = times[quiet.clone()].iter().sum();
        out.metric("setup_s", median(&quiet_setup), "s");
        out.metric(
            "fn_per_s",
            (m0.len() * quiet.len()) as f64 / (quiet_ms / 1e3),
            "fn/s",
        );
        out.metric("op_ms_p50", median(&times[quiet.clone()]), "ms");
        out.metric("op_ms_p99", quantile(&times, 0.99), "ms");
        // Sampled after MIN_OPS revisions: the session's plan cache grows
        // with every edit, so a later sample would grow with run length.
        if times.len() < crate::MIN_OPS {
            rss = crate::peak_rss_mb();
        }
        out.metric("peak_rss_mb", rss, "MB");
        out.metric("dyn_evals_ratio", q.dyn_evals_ratio(), "ratio");
        out.metric("code_size_ratio", q.code_size_ratio(), "ratio");
        out.metric("temp_live_points", q.temp_live_points(), "points/instr");
        out.notes.push(format!(
            "{} revisions of {} functions ({} bytes), {} functions answered in {:.3} s; \
             {} ops beyond p99; quietest block: revisions {}..{} with {} set-ups; \
             whole-run p50 {:.4} ms; unit modes {:?}; edit classes: {}",
            times.len(),
            m0.len(),
            text0.len(),
            functions,
            busy.as_secs_f64(),
            times.len() / 100,
            quiet.start,
            quiet.end,
            quiet_setup.len(),
            median(&times),
            modes,
            engine.edit_classes()
        ));
        out.notes.push(format!("inputs: {shape}"));
    }
    out.failures = std::mem::take(&mut checker.oracle.failures);
    Ok(out)
}

fn traced(
    r: &Run,
    out: &mut Outcome,
    engine: &mut BatchEngine,
    editor: &mut gen::Editor,
    text0: &str,
    budget: Duration,
    checker: &mut Checker,
) -> Result<(), String> {
    let opts = options();
    let mut tr = Tracer::new();
    // The recomposed watch cycle starts from the same state as the engine.
    let mut hot = Hot::new(opts, PlanCache::new(opts.cache_capacity));
    let m0 = parse_module(text0).map_err(|e| e.to_string())?;
    for f in m0.iter() {
        hot.watch_unit(&mut tr, f)?;
    }
    let mut untraced_ms = Vec::new();
    let mut busy = Duration::ZERO;
    let mut i = 0usize;
    while busy < budget {
        let (text, edited) = editor.next_revision();
        let (m, units, expected) = revision(engine, &text)?;
        out.attempted += 1;
        if !checker.check(&m, &units, Some(&edited)) {
            out.failed += 1;
        }
        tr.set_on(i.is_multiple_of(2));
        let t = Instant::now();
        let got = tr.op(|tr| {
            let m = tr
                .span("ir.parse", |_| parse_module(&text))
                .map_err(|e| e.to_string())?;
            let outputs = m
                .iter()
                .map(|f| hot.watch_unit(tr, f))
                .collect::<Result<Vec<_>, _>>()?;
            Ok::<_, String>(tr.span("ir.print", |_| render(&outputs)))
        })?;
        let d = t.elapsed();
        busy += d;
        if !tr.is_on() {
            untraced_ms.push(d.as_secs_f64() * 1e3);
        }
        if got != expected {
            return Err(format!(
                "revision {i}: the traced watch cycle diverged from run_module_incremental"
            ));
        }
        i += 1;
    }
    tr.set_on(false);
    layers::report(out, &tr, mean(&untraced_ms), &[]);
    tr.write_tsv(&r.work.join("trace-watch-edit.tsv"))
        .map_err(|e| e.to_string())
}
