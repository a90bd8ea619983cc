//! Batch-engine behaviour: determinism across thread counts, cache
//! semantics, and per-unit failure isolation.

use lcm_cfggen::GenOptions;
use lcm_core::validate::ValidationLevel;
use lcm_driver::{
    report, BatchEngine, BatchOptions, BatchUnit, CacheDisposition, FailureKind, UnitOutcome,
};
use lcm_ir::{parse_function, Module};

/// A generated many-function module, LCSE-normalised like the bench corpus.
fn corpus_module(count: usize, size: usize) -> Module {
    let mut m = Module::default();
    for (i, mut f) in lcm_cfggen::corpus(0xBE9C_0000 + size as u64, count, &GenOptions::sized(size))
        .into_iter()
        .enumerate()
    {
        lcm_core::passes::lcse(&mut f);
        f.name = format!("f{i}");
        m.push(f).unwrap();
    }
    m
}

fn options(jobs: usize, use_cache: bool) -> BatchOptions {
    BatchOptions {
        jobs,
        use_cache,
        ..BatchOptions::default()
    }
}

#[test]
fn output_is_byte_identical_for_every_thread_count() {
    let m = corpus_module(24, 120);
    for use_cache in [true, false] {
        let mut baseline: Option<(String, String, String)> = None;
        for jobs in [1, 4, 8] {
            let mut engine = BatchEngine::new(options(jobs, use_cache));
            let result = engine.run_module(&m);
            assert_eq!(result.totals.functions, 24);
            assert_eq!(result.totals.failed, 0);
            let rendered = (
                report::render_text(&result),
                report::render_stats(&result),
                report::render_json(&result),
            );
            match &baseline {
                None => baseline = Some(rendered),
                Some(b) => {
                    assert_eq!(
                        b.0, rendered.0,
                        "text differs at jobs={jobs} cache={use_cache}"
                    );
                    assert_eq!(
                        b.1, rendered.1,
                        "stats differ at jobs={jobs} cache={use_cache}"
                    );
                    assert_eq!(
                        b.2, rendered.2,
                        "json differs at jobs={jobs} cache={use_cache}"
                    );
                }
            }
        }
    }
}

#[test]
fn aggregated_totals_are_identical_for_every_thread_count() {
    let m = corpus_module(16, 200);
    let reference = BatchEngine::new(options(1, true)).run_module(&m).totals;
    for jobs in [2, 4, 8] {
        let totals = BatchEngine::new(options(jobs, true)).run_module(&m).totals;
        assert_eq!(totals, reference, "totals differ at jobs={jobs}");
    }
}

#[test]
fn cache_text_matches_uncached_text() {
    let m = corpus_module(12, 100);
    let cached = BatchEngine::new(options(4, true)).run_module(&m);
    let uncached = BatchEngine::new(options(4, false)).run_module(&m);
    assert_eq!(
        report::render_text(&cached),
        report::render_text(&uncached),
        "the cache must never change the output"
    );
}

#[test]
fn duplicate_bodies_are_optimized_once() {
    // Five copies of one body under different names: one leader computes,
    // the other four replay as hits, and each output keeps its own name.
    let body = "entry:\n  br c, l, r\nl:\n  x = a + b\n  jmp join\nr:\n  jmp join\njoin:\n  y = a + b\n  obs y\n  ret\n}";
    let mut m = Module::default();
    for name in ["v", "w", "x", "y", "z"] {
        m.push(parse_function(&format!("fn {name} {{\n{body}")).unwrap())
            .unwrap();
    }
    let mut engine = BatchEngine::new(options(4, true));
    let result = engine.run_module(&m);
    assert_eq!(result.totals.computed, 1);
    assert_eq!(result.totals.cache.hits, 4);
    assert_eq!(result.totals.cache.misses, 1);
    assert_eq!(result.units[0].cache, CacheDisposition::Computed);
    for unit in &result.units[1..] {
        assert_eq!(unit.cache, CacheDisposition::Hit);
    }
    for (unit, name) in result.units.iter().zip(["v", "w", "x", "y", "z"]) {
        let UnitOutcome::Ok(s) = &unit.outcome else {
            panic!("unit {name} failed");
        };
        assert!(
            s.output.starts_with(&format!("fn {name} {{")),
            "{}",
            s.output
        );
    }
}

#[test]
fn second_batch_is_served_from_cache_and_revalidated() {
    let m = corpus_module(6, 80);
    let mut engine = BatchEngine::new(options(2, true));
    let first = engine.run_module(&m);
    assert_eq!(first.totals.computed, 6);
    let second = engine.run_module(&m);
    assert_eq!(second.totals.computed, 0);
    assert_eq!(second.totals.cache.hits, 6);
    assert_eq!(report::render_text(&first), report::render_text(&second));
    // Hits re-validate at the fast tier, so checks were run.
    assert!(second.totals.validation_checks > 0);
}

#[test]
fn validation_off_still_revalidates_hits() {
    let m = corpus_module(4, 60);
    let mut engine = BatchEngine::new(BatchOptions {
        validate: ValidationLevel::Off,
        ..options(2, true)
    });
    let first = engine.run_module(&m);
    assert_eq!(first.totals.validation_checks, 0);
    // Off governs computed units only: every hit is re-validated at the
    // fast tier.
    let second = engine.run_module(&m);
    assert!(second.totals.validation_checks > 0);
    assert_eq!(second.totals.ok, 4);
    assert_eq!(report::render_text(&first), report::render_text(&second));
}

#[test]
fn a_bad_function_fails_its_unit_not_the_batch() {
    // `island` is unreachable: the parser accepts it, the verifier does
    // not — so the unit must fail with InvalidInput while its neighbours
    // complete.
    let good = parse_function("fn good {\nentry:\n  x = a + b\n  obs x\n  ret\n}").unwrap();
    let bad = parse_function("fn bad {\nentry:\n  ret\nisland:\n  jmp island\n}").unwrap();
    let also_good =
        parse_function("fn also_good {\nentry:\n  y = a * b\n  obs y\n  ret\n}").unwrap();
    let units = [good, bad, also_good]
        .into_iter()
        .map(|function| BatchUnit {
            file: None,
            profile: None,
            function,
        })
        .collect();
    let mut engine = BatchEngine::new(options(4, true));
    let result = engine.run(units);
    assert_eq!(result.totals.ok, 2);
    assert_eq!(result.totals.failed, 1);
    let UnitOutcome::Failed(e) = &result.units[1].outcome else {
        panic!("bad unit should fail");
    };
    assert_eq!(e.kind, FailureKind::InvalidInput);
    assert!(matches!(result.units[0].outcome, UnitOutcome::Ok(_)));
    assert!(matches!(result.units[2].outcome, UnitOutcome::Ok(_)));
    // The failure renders as a comment line, not as output text.
    let text = report::render_text(&result);
    assert!(text.contains("# fn bad: FAILED (invalid-input)"), "{text}");
}

#[test]
fn eviction_sequence_is_deterministic() {
    let fns: Vec<_> = (0..3)
        .map(|i| {
            parse_function(&format!(
                "fn f{i} {{\nentry:\n  x = a + {i}\n  obs x\n  ret\n}}"
            ))
            .unwrap()
        })
        .collect();
    let mut m = Module::default();
    for f in &fns {
        m.push(f.clone()).unwrap();
    }
    let run = |jobs: usize| {
        let mut engine = BatchEngine::new(BatchOptions {
            cache_capacity: 1,
            ..options(jobs, true)
        });
        let first = engine.run_module(&m).totals;
        let second = engine.run_module(&m).totals;
        (first, second)
    };
    let (f1, s1) = run(1);
    for jobs in [4, 8] {
        assert_eq!(
            run(jobs),
            (f1, s1),
            "eviction counters differ at jobs={jobs}"
        );
    }
    // Capacity 1 over 3 distinct functions: the first batch evicts twice
    // and leaves only the last entry, so the second batch hits exactly
    // once and recomputes the other two (evicting twice more).
    assert_eq!(f1.cache.evictions, 2);
    assert_eq!(s1.cache.hits, 1);
    assert_eq!(s1.computed, 2);
    assert_eq!(s1.cache.evictions, 4);
}

#[test]
fn run_and_run_module_agree() {
    let m = corpus_module(5, 90);
    let by_module = BatchEngine::new(options(2, true)).run_module(&m);
    let by_units = BatchEngine::new(options(2, true)).run(
        m.iter()
            .map(|f| BatchUnit {
                file: None,
                profile: None,
                function: f.clone(),
            })
            .collect(),
    );
    assert_eq!(
        report::render_text(&by_module),
        report::render_text(&by_units)
    );
    assert_eq!(by_module.totals, by_units.totals);
}

#[test]
fn reused_scratch_makes_pipeline_allocations_o1_amortized() {
    // Drives the worker loop the way the batch engine does — one
    // `SolverScratch` per worker, `lcm_with` per function — and counts real
    // allocation events. The batch report scrubs these counters (they
    // measure scratch temperature, not the function), so this is the test
    // that pins the O(1)-amortized guarantee itself.
    use lcm_core::lcm_with;
    use lcm_dataflow::{SolveStrategy, SolverScratch};

    let m = corpus_module(64, 24);
    let fns: Vec<_> = m.functions().iter().collect();
    let per_fn = lcm_driver::pool::run_indexed_with(1, fns.len(), SolverScratch::new, |s, i| {
        let p = lcm_with(fns[i], SolveStrategy::default(), s).unwrap();
        p.stats.total().allocations
    });

    // A warm same-shape solve allocates exactly twice (the two exported
    // Solution matrices): 6 per three-solve pipeline. Cold and growing
    // solves pay extra, but growth events are bounded by the corpus's
    // maximum shape, so the total stays O(1) amortized per function.
    let floor = 6 * fns.len() as u64;
    let total: u64 = per_fn.iter().sum();
    assert!(per_fn[0] > 6, "first function should pay the cold cost");
    assert!(
        total < floor + 64,
        "allocations not O(1) amortized: {total} for {} functions",
        fns.len()
    );
    // Once the scratch has seen the largest shape, same-or-smaller shapes
    // still trigger per-solve value re-initialisation but no growth.
    let warm_exact = per_fn.iter().filter(|&&a| a == 6).count();
    assert!(
        warm_exact * 2 >= fns.len(),
        "expected mostly warm solves, got {warm_exact}/{} at the 6-allocation floor",
        fns.len()
    );
}
