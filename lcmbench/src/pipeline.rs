//! The driver's per-unit pipelines, recomposed from public calls so the
//! traced run can put a span around each layer. Each recomposition must
//! produce byte-identical output to the driver entry point it mirrors; the
//! workloads compare every unit and abort on a difference, because a trace
//! of a different program would measure the wrong thing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use lcm_core::validate::{validate_optimized, ValidationLevel};
use lcm_core::{
    apply_plan, lazy_edge_plan_with, optimize_incremental_checked_with, passes, ExprUniverse,
    GlobalAnalyses, IncrementalState, IncrementalStats, LocalPredicates, Optimized, PipelineStats,
    PreAlgorithm,
};
use lcm_dataflow::{CfgView, SolveStats, SolverScratch};
use lcm_driver::{
    fingerprint_with_context, options_tag, BatchOptions, CacheEntry, ComputedOrigin, PlanCache,
    PrevSolve, CANONICAL_NAME,
};
use lcm_ir::{simplify_cfg, verify, Function, Module};

use crate::trace::Tracer;

/// Renames a canonical output (`fn __fn {`) back to `name`.
pub fn with_name(canonical: &str, name: &str) -> String {
    let header = format!("fn {CANONICAL_NAME} {{");
    let rest = canonical
        .strip_prefix(header.as_str())
        .expect("canonical output starts with the canonical header");
    format!("fn {name} {{{rest}")
}

/// A module's optimized text as `lcmopt batch --emit text` renders it when
/// every unit succeeds.
pub fn render(outputs: &[String]) -> String {
    let mut out = outputs.join("\n\n");
    out.push('\n');
    out
}

fn count_solves(tr: &mut Tracer, stats: &PipelineStats) {
    let mut total = SolveStats::default();
    total += stats.avail;
    total += stats.antic;
    total += stats.later;
    tr.count("dataflow.node_visits", total.node_visits as f64);
    tr.count("dataflow.node_revisits", total.node_revisits as f64);
    tr.count("dataflow.word_ops", total.word_ops as f64);
    tr.count("dataflow.allocations", total.allocations as f64);
}

fn count_unit(tr: &mut Tracer, opt: &Optimized, checks: usize) {
    tr.count("units", 1.0);
    tr.count("core.insertions", opt.transform.stats.insertions as f64);
    tr.count("core.deletions", opt.transform.stats.deletions as f64);
    tr.count("core.temps", opt.transform.stats.temps as f64);
    tr.count("core.validate_checks", checks as f64);
    if let Some(s) = &opt.pipeline_stats {
        count_solves(tr, s);
    }
}

/// The driver's cleanup tail: copy propagation, DCE, CFG simplification,
/// output verification, printing. Returns the canonical output text.
fn finish(tr: &mut Tracer, opt: &Optimized) -> Result<String, String> {
    let mut out = opt.function.clone();
    tr.span("core.cleanup", |_| {
        passes::copy_propagation(&mut out);
        passes::dce(&mut out);
        simplify_cfg(&mut out);
    });
    tr.span("ir.verify", |_| verify(&out))
        .map_err(|e| e.to_string())?;
    Ok(tr.span("ir.print", |_| out.to_string()))
}

/// Allocation counts measure which scratch arena a unit landed on, so the
/// driver scrubs them from recorded statistics; so does this.
fn scrubbed(stats: Option<PipelineStats>) -> PipelineStats {
    let mut p = stats.unwrap_or_default();
    p.avail.allocations = 0;
    p.antic.allocations = 0;
    p.later.allocations = 0;
    p
}

/// The driver's one-shot unit pipeline for lazy code motion (LCSE →
/// checked PRE → copy propagation → DCE → CFG simplification → verify →
/// print), one span per layer.
pub fn compute_unit(
    tr: &mut Tracer,
    f: &Function,
    opts: &BatchOptions,
    scratch: &mut SolverScratch,
) -> Result<CacheEntry, String> {
    let (level, seed, strategy) = (opts.validate, opts.seed, opts.strategy);
    let mut g = f.clone();
    g.name = CANONICAL_NAME.to_string();
    let canonical_input = tr.span("ir.print", |_| g.to_string());
    tr.span("core.lcse", |_| passes::lcse(&mut g));
    let uni = tr.span("core.universe", |_| ExprUniverse::of(&g));
    // Rows are one bit per candidate expression.
    if uni.len().div_ceil(64) >= lcm_dataflow::bitset::WIDE_ROW_WORDS {
        tr.count("dataflow.wide_row_fns", 1.0);
    }
    let local = tr.span("core.predicates", |_| LocalPredicates::compute(&g, &uni));
    let (view, ga) = tr
        .span("dataflow.avail_antic", |_| {
            let view = CfgView::new(&g);
            GlobalAnalyses::compute_with(&g, &uni, &local, &view, strategy, scratch)
                .map(|ga| (view, ga))
        })
        .map_err(|e| e.to_string())?;
    let lazy = tr
        .span("dataflow.later", |_| {
            lazy_edge_plan_with(&g, &uni, &local, &ga, &view, strategy, scratch)
        })
        .map_err(|e| e.to_string())?;
    let pipeline_stats = Some(PipelineStats {
        avail: ga.avail.stats,
        antic: ga.antic.stats,
        later: lazy.stats,
    });
    let transform = tr.span("core.rewrite", |_| apply_plan(&g, &uni, &local, &lazy.plan));
    let opt = Optimized {
        function: transform.function.clone(),
        transform,
        plan: lazy.plan,
        input: g.clone(),
        algorithm: PreAlgorithm::LazyEdge,
        pipeline_stats,
        spec: None,
    };
    let report = tr
        .span("core.validate", |_| {
            validate_optimized(&g, &opt, level, seed)
        })
        .map_err(|e| e.to_string())?;
    count_unit(tr, &opt, report.checks_run);
    let output_text = finish(tr, &opt)?;
    Ok(CacheEntry {
        canonical_input,
        pipeline: scrubbed(opt.pipeline_stats),
        transform: opt.transform.stats,
        output_text,
        origin: Some(Box::new(ComputedOrigin { pre_input: g, opt })),
        validation_checks: report.checks_run,
        inputs_sampled: report.inputs_sampled,
    })
}

/// The driver's incremental unit pipeline: the one-shot pipeline with the
/// PRE step delta-solved against `prev` (or solved fresh, keeping its
/// fixpoints). Returns the cache entry, the state to retain and the delta
/// accounting.
pub fn compute_unit_incremental(
    tr: &mut Tracer,
    f: &Function,
    opts: &BatchOptions,
    prev: Option<&IncrementalState>,
    scratch: &mut SolverScratch,
) -> Result<(CacheEntry, IncrementalState, IncrementalStats), String> {
    let (level, seed, strategy) = (opts.validate, opts.seed, opts.strategy);
    let mut g = f.clone();
    g.name = CANONICAL_NAME.to_string();
    let canonical_input = tr.span("ir.print", |_| g.to_string());
    tr.span("core.lcse", |_| passes::lcse(&mut g));
    let (opt, report, state, stats) = match prev {
        Some(prev) => {
            let out = tr
                .span("core.incremental", |_| {
                    optimize_incremental_checked_with(prev, &g, level, seed, strategy, scratch)
                })
                .map_err(|e| e.to_string())?;
            (out.optimized, out.report, out.state, out.stats)
        }
        None => {
            let (opt, state) = tr
                .span("core.incremental", |_| {
                    IncrementalState::fresh_with(&g, strategy, scratch)
                })
                .map_err(|e| e.to_string())?;
            let effective = if level == ValidationLevel::Off {
                ValidationLevel::Fast
            } else {
                level
            };
            let report = tr
                .span("core.validate", |_| {
                    validate_optimized(&g, &opt, effective, seed)
                })
                .map_err(|e| e.to_string())?;
            (opt, report, state, IncrementalStats::default())
        }
    };
    if prev.is_some() {
        let full = 3 * g.num_blocks();
        let solved = if stats.full_fallback {
            full
        } else {
            stats.delta_blocks_resolved
        };
        tr.count("core.incremental_edits", 1.0);
        tr.count(
            "core.incremental_fallbacks",
            f64::from(u8::from(stats.full_fallback)),
        );
        tr.count("core.incremental_rows", solved as f64);
        tr.count("core.incremental_full_rows", full as f64);
    }
    count_unit(tr, &opt, report.checks_run);
    let output_text = finish(tr, &opt)?;
    Ok((
        CacheEntry {
            canonical_input,
            pipeline: scrubbed(opt.pipeline_stats),
            transform: opt.transform.stats,
            output_text,
            origin: Some(Box::new(ComputedOrigin { pre_input: g, opt })),
            validation_checks: report.checks_run,
            inputs_sampled: report.inputs_sampled,
        },
        state,
        stats,
    ))
}

/// One `lcmopt batch` call on a parsed module, recomposed: plan (verify,
/// fingerprint, intra-batch dedup), compute every leader, assemble in
/// input order, render. Units run sequentially so each layer's span is its
/// own time. Returns the rendered text.
pub fn batch_module(
    tr: &mut Tracer,
    m: &Module,
    opts: &BatchOptions,
    scratch: &mut SolverScratch,
) -> Result<String, String> {
    let mut cache = PlanCache::new(opts.cache_capacity);
    // Canonical output of each body's first occurrence (its leader).
    let mut leaders: HashMap<u128, String> = HashMap::new();
    let mut outputs: Vec<String> = Vec::with_capacity(m.len());
    for f in m.iter() {
        tr.span("ir.verify", |_| verify(f))
            .map_err(|e| e.to_string())?;
        let (key, _) = tr.span("driver.fingerprint", |_| fingerprint_with_context(f, ""));
        tr.count("driver.fingerprint_calls", 1.0);
        if let Entry::Vacant(slot) = leaders.entry(key) {
            let entry = compute_unit(tr, f, opts, scratch)?;
            slot.insert(entry.output_text.clone());
            cache.insert(key, entry);
        }
        outputs.push(with_name(&leaders[&key], &f.name));
    }
    Ok(tr.span("ir.print", |_| render(&outputs)))
}

/// The retained state of the watch hot path: per-name fixpoints with their
/// zero-dirty memo, plus the plan cache.
pub struct Hot {
    pub opts: BatchOptions,
    pub prev: HashMap<String, PrevSolve>,
    pub cache: PlanCache,
    pub scratch: SolverScratch,
}

impl Hot {
    pub fn new(opts: BatchOptions, cache: PlanCache) -> Self {
        Hot {
            opts,
            prev: HashMap::new(),
            cache,
            scratch: SolverScratch::new(),
        }
    }

    /// The watch cycle for one function (`run_module_incremental`'s unit):
    /// verify → fingerprint → take → zero-dirty memo or incremental
    /// pipeline → put. Returns the named output text.
    pub fn watch_unit(&mut self, tr: &mut Tracer, f: &Function) -> Result<String, String> {
        tr.span("ir.verify", |_| verify(f))
            .map_err(|e| e.to_string())?;
        let (key, _) = tr.span("driver.fingerprint", |_| fingerprint_with_context(f, ""));
        tr.count("driver.fingerprint_calls", 1.0);
        if let Some(out) = self.memo(tr, f, key) {
            return Ok(out);
        }
        self.incremental(tr, f, key)
    }

    /// The zero-dirty memo: an identical revision under identical options
    /// replays the retained output.
    fn memo(&mut self, tr: &mut Tracer, f: &Function, key: u128) -> Option<String> {
        tr.count("driver.memo_lookups", 1.0);
        let p = self.prev.get(&f.name)?;
        if p.key == key && p.opts_tag == options_tag(&self.opts) {
            tr.count("driver.memo_hits", 1.0);
            return Some(with_name(&p.output_text, &f.name));
        }
        None
    }

    fn incremental(&mut self, tr: &mut Tracer, f: &Function, key: u128) -> Result<String, String> {
        let prev = self.prev.remove(&f.name);
        let (entry, state, _) = compute_unit_incremental(
            tr,
            f,
            &self.opts,
            prev.as_ref().map(|p| &p.state),
            &mut self.scratch,
        )?;
        let output = with_name(&entry.output_text, &f.name);
        self.prev.insert(
            f.name.clone(),
            PrevSolve {
                key,
                state,
                output_text: entry.output_text.clone(),
                opts_tag: options_tag(&self.opts),
            },
        );
        if self.opts.use_cache {
            self.cache.insert(key, entry);
        }
        Ok(output)
    }
}
