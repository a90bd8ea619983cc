//! `batch-cold`: a stream of never-repeating module files, each optimized
//! like one `lcmopt batch` call — parse, a fresh `BatchEngine::run` at `nproc` jobs
//! with default placement and fast validation, render. Nothing survives
//! from one call to the next, so the memo, incremental and serve layers
//! are bypassed and every unit runs the whole pipeline.
//!
//! The traced run also measures, outside its op tree and in-process, the
//! layers only a long-lived engine reaches: speculative placement on
//! profiled units, cache eviction, cache-file save and load, and the
//! re-validation of thin entries after a reload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lcm_cfggen::synthetic_profile;
use lcm_core::{optimize_speculative_checked_with, passes, EdgeWeights};
use lcm_dataflow::SolverScratch;
use lcm_driver::report::render_text;
use lcm_driver::{
    load_cache, save_cache, BatchEngine, BatchOptions, BatchResult, BatchUnit, LoadStatus,
    UnitOutcome,
};
use lcm_ir::{parse_module, Module};

use crate::oracle::Oracle;
use crate::stats::{median, quantile, quietest_block, ratio};
use crate::trace::Tracer;
use crate::{gen, layers, pipeline, Outcome, Run};

/// Engine constructions per timed set-up sample (one is far below the
/// clock's resolution). One sample is taken after each op and the median
/// over the run is reported: a construction takes tens of nanoseconds, so
/// unlike the ops it is not read from the quietest block, whose few
/// hundred samples fall in one stretch of the run.
const SETUP_BATCH: u32 = 1000;
/// Modules timed at each job count for the pool-scaling ratio.
const SCALING_MODULES: usize = 48;
/// Profiled units replayed through the speculative placement.
pub const SPEC_UNITS: usize = 96;
/// Plan-cache capacity of the persistence measurement: below the distinct
/// bodies of [`PERSIST_MODULES`] modules, so entries are evicted.
pub const PERSIST_CACHE_CAP: usize = 64;
/// Modules run through the persisted engine.
const PERSIST_MODULES: usize = 24;
/// The last modules of those, whose bodies all survive eviction; they are
/// re-run against the reloaded cache.
const WARM_MODULES: usize = 6;
/// Timed repetitions of each save, load and warm re-run.
const PERSIST_REPEATS: usize = 5;

fn units(m: &Module) -> Vec<BatchUnit> {
    m.iter()
        .map(|f| BatchUnit {
            file: None,
            profile: m.profile(&f.name).cloned(),
            function: f.clone(),
        })
        .collect()
}

/// One `lcmopt batch` call on module text.
fn batch_call(text: &str, opts: BatchOptions) -> Result<(Module, BatchResult, String), String> {
    let m = parse_module(text).map_err(|e| e.to_string())?;
    let result = BatchEngine::new(opts).run(units(&m));
    let rendered = render_text(&result);
    Ok((m, result, rendered))
}

/// Checks every unit of one call with the oracle; returns whether all
/// passed.
fn check(oracle: &mut Oracle, m: &Module, result: &BatchResult) -> bool {
    let mut ok = true;
    for (f, unit) in m.iter().zip(&result.units) {
        ok &= match &unit.outcome {
            UnitOutcome::Ok(s) => oracle.check(f, &s.output),
            UnitOutcome::Failed(e) => {
                oracle.fail(format!("fn {}: unit failed: {}", f.name, e.message));
                false
            }
        };
    }
    ok
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let opts = BatchOptions {
        jobs: r.nproc,
        ..BatchOptions::default()
    };
    let mut oracle = Oracle::new(r.seed);
    let mut out = if r.trace {
        traced(r, opts, &mut oracle)?
    } else {
        untraced(r, opts, &mut oracle)?
    };
    out.failures = oracle.failures;
    Ok(out)
}

/// Seconds per engine construction, over one batch of them.
fn setup_sample(opts: BatchOptions) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BATCH {
        black_box(BatchEngine::new(black_box(opts)));
    }
    t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH)
}

fn untraced(r: &Run, opts: BatchOptions, oracle: &mut Oracle) -> Result<Outcome, String> {
    // Warm-up: one call, untimed, so lazy process set-up is not charged to
    // the first op.
    black_box(batch_call(&gen::batch_module(r.seed, 0), opts)?);

    let mut out = Outcome::default();
    let mut times: Vec<f64> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let mut op_functions: Vec<usize> = Vec::new();
    let mut shape = gen::Shape::default();
    let (mut busy, mut functions) = (Duration::ZERO, 0usize);
    let mut rss = 0.0;
    let budget = Duration::from_secs_f64(r.seconds);
    while crate::keep_going(busy, budget, times.len()) {
        let i = times.len();
        let (generated, sizes) = gen::batch_module_sized(r.seed, i);
        let text = generated.to_string();
        let t = Instant::now();
        let (m, result, rendered) = batch_call(&text, opts)?;
        let d = t.elapsed();
        black_box(rendered);
        busy += d;
        times.push(d.as_secs_f64() * 1e3);
        functions += m.len();
        op_functions.push(m.len());
        oracle.collect_quality = i < crate::MIN_OPS;
        out.attempted += 1;
        if !check(oracle, &m, &result) {
            out.failed += 1;
        }
        setup.push(setup_sample(opts));
        if i < crate::MIN_OPS {
            shape.add(&text, &generated, &sizes);
        }
        if times.len() == crate::MIN_OPS {
            rss = crate::peak_rss_mb();
        }
    }
    let q = oracle.quality;
    let quiet = quietest_block(&times);
    let quiet_ms: f64 = times[quiet.clone()].iter().sum();
    let quiet_functions: usize = op_functions[quiet.clone()].iter().sum();
    out.metric("setup_s", median(&setup), "s");
    out.metric(
        "fn_per_s",
        quiet_functions as f64 / (quiet_ms / 1e3),
        "fn/s",
    );
    out.metric("op_ms_p50", median(&times[quiet.clone()]), "ms");
    out.metric("op_ms_p99", quantile(&times, 0.99), "ms");
    // Sampled after MIN_OPS ops, so the figure does not grow with run length.
    if times.len() < crate::MIN_OPS {
        rss = crate::peak_rss_mb();
    }
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("dyn_evals_ratio", q.dyn_evals_ratio(), "ratio");
    out.metric("code_size_ratio", q.code_size_ratio(), "ratio");
    out.metric("temp_live_points", q.temp_live_points(), "points/instr");
    out.notes.push(format!(
        "{} ops, {} functions answered in {:.3} s; {} ops beyond p99; quietest block: \
         ops {}..{}; whole-run p50 {:.4} ms; quality over {} functions",
        times.len(),
        functions,
        busy.as_secs_f64(),
        times.len() / 100,
        quiet.start,
        quiet.end,
        median(&times),
        q.functions
    ));
    out.notes.push(format!("inputs of the first ops: {shape}"));
    Ok(out)
}

fn traced(r: &Run, opts: BatchOptions, oracle: &mut Oracle) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new();
    let mut scratch = SolverScratch::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let (mut hits, mut lookups) = (0usize, 0usize);
    let budget = Duration::from_secs_f64(r.seconds);
    let mut busy = Duration::ZERO;
    let mut i = 0usize;
    while busy < budget {
        let text = gen::batch_module(r.seed, i);
        // The reference: the real engine, untimed.
        let (m, result, expected) = batch_call(&text, opts)?;
        out.attempted += 1;
        if !check(oracle, &m, &result) {
            out.failed += 1;
        }
        hits += result.totals.cache.hits;
        lookups += result.totals.cache.hits + result.totals.cache.misses;
        // The recomposition, traced on every other op so the tracing
        // overhead is measured on the same stream. The parity flips every
        // `LARGE_EVERY` modules, so modules with a large function fall on
        // both sides.
        tr.set_on((i + i / gen::LARGE_EVERY).is_multiple_of(2));
        let t = Instant::now();
        let got = tr.op(|tr| {
            let m = tr
                .span("ir.parse", |_| parse_module(&text))
                .map_err(|e| e.to_string())?;
            pipeline::batch_module(tr, &m, &opts, &mut scratch)
        })?;
        let d = t.elapsed();
        busy += d;
        if !tr.is_on() {
            untraced_ms.push(d.as_secs_f64() * 1e3);
        }
        if got != expected {
            return Err(format!(
                "module {i}: the traced recomposition diverged from BatchEngine::run"
            ));
        }
        i += 1;
    }
    tr.set_on(false);

    let mut measured = vec![
        ("driver.cache_hit_ratio", ratio(hits as f64, lookups as f64)),
        ("driver.pool_scaling", pool_scaling(r, opts)?),
    ];
    measured.extend(speculate(r, opts, oracle)?);
    measured.extend(persist(r, opts)?);
    layers::report(&mut out, &tr, crate::stats::mean(&untraced_ms), &measured);
    tr.write_tsv(&r.work.join("trace-batch-cold.tsv"))
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// Functions per second at `nproc` jobs over functions per second at one
/// job, on the same modules, alternating the two settings.
fn pool_scaling(r: &Run, opts: BatchOptions) -> Result<f64, String> {
    let mut secs = [0.0f64; 2];
    for k in 0..SCALING_MODULES {
        let text = gen::batch_module(r.seed, k);
        for (slot, jobs) in [(0, 1), (1, opts.jobs)] {
            let t = Instant::now();
            black_box(batch_call(&text, BatchOptions { jobs, ..opts })?);
            secs[slot] += t.elapsed().as_secs_f64();
        }
    }
    Ok(ratio(secs[0], secs[1]))
}

/// The speculative placement on [`SPEC_UNITS`] functions of the stream,
/// each with a seeded synthetic edge profile, as the driver runs a
/// profiled unit under `--placement spec`: LCSE, then
/// `optimize_speculative_checked_with` (timed). Every output passes the
/// oracle. Returns the time per unit and speculated ÷ candidate
/// expressions.
fn speculate(
    r: &Run,
    opts: BatchOptions,
    oracle: &mut Oracle,
) -> Result<[(&'static str, f64); 2], String> {
    let mut scratch = SolverScratch::new();
    let (mut secs, mut candidates, mut speculated) = (0.0f64, 0usize, 0usize);
    oracle.collect_quality = false;
    let functions = (0..).flat_map(|k| gen::batch_module_sized(r.seed, k).0.functions().to_vec());
    for (slot, f) in functions.take(SPEC_UNITS).enumerate() {
        let profile = synthetic_profile(&f, r.seed ^ slot as u64);
        let w = EdgeWeights::from_profile(&f, &profile).map_err(|e| e.to_string())?;
        let mut g = f.clone();
        passes::lcse(&mut g);
        let t = Instant::now();
        let (opt, _) = optimize_speculative_checked_with(
            &g,
            &w,
            opts.validate,
            opts.seed,
            opts.strategy,
            &mut scratch,
        )
        .map_err(|e| format!("fn {}: speculative placement failed: {e}", f.name))?;
        secs += t.elapsed().as_secs_f64();
        let s = opt.spec.unwrap_or_default();
        candidates += s.candidates;
        speculated += s.speculated;
        if !oracle.check(&f, &opt.function.to_string()) {
            return Err(format!(
                "fn {}: speculative output failed its check",
                f.name
            ));
        }
    }
    Ok([
        ("core.speculate_ms", secs * 1e3 / SPEC_UNITS as f64),
        (
            "core.speculate_adopt_ratio",
            ratio(speculated as f64, candidates as f64),
        ),
    ])
}

/// The persisted cache, as a long-lived `lcmopt serve` keeps it: the first
/// [`PERSIST_MODULES`] modules of the stream through one engine backed by
/// a cache file of capacity [`PERSIST_CACHE_CAP`] (evictions per module),
/// `save_cache` and `load_cache` on that file (ms each, and its size), and
/// a warm engine re-opened on it re-running the last [`WARM_MODULES`]
/// modules, whose units are all thin hits re-validated from first
/// principles (ms per module, at one job). The warm outputs must be
/// byte-identical to the cold ones.
fn persist(r: &Run, opts: BatchOptions) -> Result<[(&'static str, f64); 5], String> {
    let path = r.work.join("batch-cold.lcmcache");
    // The work directory outlives a run; start from no file.
    let _ = std::fs::remove_file(&path);
    let opts = BatchOptions {
        cache_capacity: PERSIST_CACHE_CAP,
        ..opts
    };
    let mut engine = BatchEngine::with_cache_file(opts, &path);
    let mut cold = Vec::new();
    for k in 0..PERSIST_MODULES {
        let m = parse_module(&gen::batch_module(r.seed, k)).map_err(|e| e.to_string())?;
        cold.push((units(&m), render_text(&engine.run(units(&m)))));
    }
    let evictions = engine.cache().stats().evictions;
    let lifetime = engine
        .lifetime()
        .ok_or("a file-backed engine has lifetime counters")?;

    let io = |e: std::io::Error| e.to_string();
    let mut save = Vec::new();
    for _ in 0..PERSIST_REPEATS {
        let t = Instant::now();
        save_cache(&path, engine.cache(), lifetime).map_err(io)?;
        save.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = std::fs::metadata(&path).map_err(io)?.len();
    let mut load = Vec::new();
    for _ in 0..PERSIST_REPEATS {
        let t = Instant::now();
        let (cache, _) = load_cache(&path, PERSIST_CACHE_CAP).map_err(|e| e.to_string())?;
        load.push(t.elapsed().as_secs_f64() * 1e3);
        if cache.len() != engine.cache().len() {
            return Err("the reloaded cache lost entries".into());
        }
    }
    let warm_opts = BatchOptions { jobs: 1, ..opts };
    let mut warm = Vec::new();
    for _ in 0..PERSIST_REPEATS {
        let mut engine = BatchEngine::with_cache_file(warm_opts, &path);
        if !matches!(engine.load_status(), Some(LoadStatus::Loaded { .. })) {
            return Err(format!("{}: cache file did not load", path.display()));
        }
        for (units, expected) in &cold[PERSIST_MODULES - WARM_MODULES..] {
            let t = Instant::now();
            let result = engine.run(units.clone());
            let d = t.elapsed();
            if result.totals.cache.misses > 0 || render_text(&result) != *expected {
                return Err("a warm re-run missed the cache or changed its output".into());
            }
            warm.push(d.as_secs_f64() * 1e3);
        }
    }
    std::fs::remove_file(&path).map_err(io)?;
    Ok([
        (
            "driver.cache_evictions",
            evictions as f64 / PERSIST_MODULES as f64,
        ),
        ("driver.persist_save_ms", median(&save)),
        ("driver.persist_load_ms", median(&load)),
        ("driver.persist_bytes", bytes as f64),
        ("driver.revalidate_ms", crate::stats::mean(&warm)),
    ])
}
