//! The `lcmopt watch` engine: [`BatchEngine::run_module_incremental`]
//! answers every revision of a module byte-identically to a one-shot
//! batch on the same revision, while its mode accounting tracks what
//! actually changed — fresh on first sight, an SCC-scoped delta on a
//! content edit (re-solving strictly fewer block rows than a full solve),
//! a *mapped* delta on a recognized one-block shape edit, and a zero-dirty
//! memo replay for functions whose `fn` section bytes the revision didn't
//! touch at all. The span memo is the only memo level: a parse-identical
//! edit, or a function built without section text, is a delta solve with
//! nothing dirty. The watch cycle never uses the plan cache, which belongs
//! to batch runs and the serve daemon.

use lcm::cfggen::{corpus, mutate_function, seeded, synthetic_profile, GenOptions};
use lcm::core::{PreAlgorithm, ValidationLevel};
use lcm::driver::{
    report, BatchEngine, BatchOptions, EditClassCounters, FailureKind, IncrementalMode,
    IncrementalUnit,
};
use lcm::ir::{parse_module, Module};

/// Revision 0: the classic diamond, plus a straight-line function that
/// never changes (its delta solves should be free).
const REV0: &str = "fn d {
entry:
  br c, l, r
l:
  x = a + b
  jmp join
r:
  jmp join
join:
  y = a + b
  obs y
  ret
}

fn straight {
entry:
  x = p * q
  obs x
  ret
}
";

/// A content edit in `join`: `a = 1` kills `a + b` downstream without
/// changing the CFG shape or the expression universe.
fn rev1() -> String {
    REV0.replace("y = a + b", "y = a + b\n  a = 1")
}

/// A shape edit: `r` now reaches `join` through a fresh straight-line
/// block — the inserted-block pattern the shape mapper recognizes, so the
/// delta path survives with permuted rows instead of falling back.
fn rev2() -> String {
    rev1().replace("r:\n  jmp join", "r:\n  jmp detour\ndetour:\n  jmp join")
}

/// A watch-shaped edit stream: a module of generated functions where each
/// revision applies one seeded content edit to one function, so the warm
/// engine delta-solves that function and replays the rest from its memo.
fn seeded_revisions() -> Vec<Module> {
    let mut fns = corpus(0x1BC8, 6, &GenOptions::sized(60));
    for (i, f) in fns.iter_mut().enumerate() {
        f.name = format!("f{i}");
    }
    let module_of = |fns: &[lcm::ir::Function]| {
        let mut m = Module::default();
        for f in fns {
            m.push(f.clone()).expect("unique names");
        }
        m
    };
    let mut rng = seeded(0x1BC9);
    let mut revisions = vec![module_of(&fns)];
    for r in 0..12 {
        mutate_function(&mut fns[r % 6], &mut rng, 0.0);
        revisions.push(module_of(&fns));
    }
    revisions
}

/// `m` printed and parsed back: the same text, profiles included, now
/// carrying the section bytes the span memo keys on.
fn reparsed(m: &Module) -> Module {
    let text = m.to_string();
    let again = parse_module(&text).expect("printed module parses");
    assert_eq!(again.to_string(), text);
    again
}

#[test]
fn watched_revisions_match_one_shot_batches_byte_for_byte() {
    let scripted = [REV0.to_string(), rev1(), rev2()]
        .iter()
        .map(|text| parse_module(text).expect("revision parses"))
        .collect::<Vec<_>>();
    let seeded_text = seeded_revisions().iter().map(reparsed).collect();
    for revisions in [scripted, seeded_revisions(), seeded_text] {
        check_against_one_shot(&revisions);
    }
}

/// Runs `revisions` through one warm watch engine and compares every
/// answer with a cold one-shot batch of the same revision.
fn check_against_one_shot(revisions: &[Module]) {
    let mut watch = BatchEngine::new(BatchOptions::default());
    for (i, m) in revisions.iter().enumerate() {
        let units = watch.run_module_incremental(m);
        // The reference engine is cold and cache-less every revision: the
        // purest one-shot answer there is.
        let mut fresh = BatchEngine::new(BatchOptions {
            use_cache: false,
            ..BatchOptions::default()
        });
        let want = report::render_text(&fresh.run_module(m));
        assert_eq!(
            report::render_incremental_text(&units),
            want,
            "revision {i} diverged from the one-shot answer"
        );
    }
}

#[test]
fn modes_and_delta_accounting_track_what_changed() {
    let mut watch = BatchEngine::new(BatchOptions::default());

    let m0 = parse_module(REV0).unwrap();
    let units = watch.run_module_incremental(&m0);
    assert!(
        units.iter().all(|u| u.mode == IncrementalMode::Fresh),
        "first sight must solve fresh"
    );
    assert_eq!(watch.incremental_session(), (0, 0));
    assert_eq!(watch.edit_classes(), EditClassCounters::default());

    // Content edit: `d` delta-solves strictly fewer rows than a full
    // solve would pay; byte-identical `straight` never reaches the solver
    // at all — its memoized output is replayed.
    let m1 = parse_module(&rev1()).unwrap();
    let units = watch.run_module_incremental(&m1);
    let d = &units[0];
    assert_eq!(d.mode, IncrementalMode::Delta);
    assert!(d.stats.dirty_blocks >= 1);
    assert!(
        d.stats.delta_blocks_resolved < 3 * d.blocks,
        "delta paid {} rows, a full solve pays {}",
        d.stats.delta_blocks_resolved,
        3 * d.blocks
    );
    let s = &units[1];
    assert_eq!(s.mode, IncrementalMode::ZeroDirty);
    assert_eq!(s.stats.dirty_blocks, 0);
    assert_eq!(s.stats.delta_blocks_resolved, 0);
    let (hits, _) = watch.incremental_session();
    assert_eq!(hits, 1, "a memo replay is not a delta solve");
    assert_eq!(watch.edit_classes().content, 1);
    assert_eq!(watch.edit_classes().zero_dirty, 1);

    // Shape edit: the inserted `detour` block is one of the two mapped
    // patterns, so the delta path survives (no fallback) and the edit
    // ledger records it; `straight` replays its memo again.
    let m2 = parse_module(&rev2()).unwrap();
    let units = watch.run_module_incremental(&m2);
    assert_eq!(units[0].mode, IncrementalMode::Delta);
    assert!(units[0].stats.shape_mapped);
    assert!(!units[0].stats.full_fallback);
    assert_eq!(units[1].mode, IncrementalMode::ZeroDirty);
    let (hits, _) = watch.incremental_session();
    assert_eq!(hits, 2, "the mapped shape edit is a delta hit");
    assert_eq!(watch.edit_classes().shape_mapped, 1);
    assert_eq!(watch.edit_classes().zero_dirty, 2);
    assert_eq!(watch.edit_classes().fallback, 0);
    // Watch never fills the plan cache.
    assert_eq!(watch.cache().len(), 0);
}

/// REV0, the speculative golden loop and a few generated functions; with
/// `profiled`, every other function carries a synthetic edge profile, so
/// speculative placement sends those units one-shot and the rest down the
/// incremental path.
fn parity_module(profiled: bool) -> Module {
    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/testdata/guarded_loop.lcm"
    ));
    let mut fns = parse_module(REV0).unwrap().functions().to_vec();
    fns.extend(parse_module(golden).unwrap().functions().iter().cloned());
    fns.extend(corpus(0x9A71_7E57, 4, &GenOptions::default()));
    let mut m = Module::new(fns);
    if profiled {
        let every_other: Vec<_> = m.functions().iter().step_by(2).cloned().collect();
        for (i, f) in every_other.iter().enumerate() {
            let profile = synthetic_profile(f, 0x9A71 ^ i as u64);
            assert!(m.push_profile(profile).is_ok());
        }
    }
    m
}

#[test]
fn every_placement_and_tier_matches_one_shot_batches() {
    let mut placements: Vec<(PreAlgorithm, bool)> =
        PreAlgorithm::ALL.iter().map(|&a| (a, false)).collect();
    placements.push((PreAlgorithm::Speculative, true));
    placements.push((PreAlgorithm::Speculative, false));
    for (placement, profiled) in placements {
        // Built through the API, and printed and parsed back: the span
        // memo answers the parsed module's second revision, a delta solve
        // with nothing dirty the API-built one's.
        let built = parity_module(profiled);
        let text = reparsed(&built);
        let tiers = [
            ValidationLevel::Off,
            ValidationLevel::Fast,
            ValidationLevel::Full,
        ];
        for (m, validate) in [&built, &text]
            .into_iter()
            .flat_map(|m| tiers.map(|v| (m, v)))
        {
            let from_text = m.source(0).is_some();
            let tag = format!(
                "{} (profiled: {profiled}, from text: {from_text}) at {validate:?}",
                placement.name()
            );
            let opts = BatchOptions {
                placement,
                validate,
                ..BatchOptions::default()
            };
            let result = BatchEngine::new(opts).run_module(m);
            assert_eq!(result.totals.failed, 0, "{tag}");
            let want = report::render_text(&result);
            let mut watch = BatchEngine::new(opts);
            let first = watch.run_module_incremental(m);
            assert_eq!(
                report::render_incremental_text(&first),
                want,
                "{tag}, first"
            );
            // The second revision is byte-identical: every incremental
            // unit replays its span memo (or, built without section text,
            // delta-solves with nothing dirty), every other unit reruns
            // one-shot.
            let second = watch.run_module_incremental(m);
            assert_eq!(
                report::render_incremental_text(&second),
                want,
                "{tag}, second"
            );
            for (a, b) in first.iter().zip(&second) {
                let want_mode = match a.mode {
                    IncrementalMode::OneShot => IncrementalMode::OneShot,
                    _ if from_text => IncrementalMode::ZeroDirty,
                    _ => IncrementalMode::Delta,
                };
                assert_eq!(b.mode, want_mode, "{tag}: fn {}", b.name);
                assert_eq!(b.stats.dirty_blocks, 0, "{tag}: fn {}", b.name);
                assert_eq!(b.stats.delta_blocks_resolved, 0, "{tag}: fn {}", b.name);
            }
            // Plain LCM is incremental; so are the speculative units with
            // no profile to speculate on.
            let incremental = matches!(
                placement,
                PreAlgorithm::LazyEdge | PreAlgorithm::Speculative
            );
            assert_eq!(
                second.iter().any(|u| u.mode != IncrementalMode::OneShot),
                incremental,
                "{tag}"
            );
        }
    }
}

/// Runs one revision through `watch` and checks it against a cold one-shot
/// batch of the same text; returns the per-unit modes.
fn revise(watch: &mut BatchEngine, text: &str) -> Vec<IncrementalMode> {
    revise_units(watch, text).iter().map(|u| u.mode).collect()
}

/// [`revise`], returning the units themselves.
fn revise_units(watch: &mut BatchEngine, text: &str) -> Vec<IncrementalUnit> {
    let m = parse_module(text).expect("revision parses");
    let units = watch.run_module_incremental(&m);
    let mut fresh = BatchEngine::new(BatchOptions {
        use_cache: false,
        ..*watch.options()
    });
    assert_eq!(
        report::render_incremental_text(&units),
        report::render_text(&fresh.run_module(&m)),
        "revision diverged from the one-shot answer:\n{text}"
    );
    units
}

#[test]
fn a_parse_identical_edit_is_a_delta_with_nothing_dirty() {
    use IncrementalMode::{Delta, Fresh, ZeroDirty};
    let mut watch = BatchEngine::new(BatchOptions::default());
    assert_eq!(revise(&mut watch, REV0), [Fresh, Fresh]);
    assert_eq!(revise(&mut watch, REV0), [ZeroDirty, ZeroDirty]);
    // Whitespace and a comment inside `d`: its bytes changed, so the span
    // memo misses and `d` is verified and solved. It parses to the same
    // function, so the delta finds nothing dirty and re-solves no row;
    // the span memo is re-keyed on the new bytes.
    let spaced = REV0.replace("  obs y\n", "  obs   y   # observed\n\n");
    let units = revise_units(&mut watch, &spaced);
    let modes: Vec<_> = units.iter().map(|u| u.mode).collect();
    assert_eq!(modes, [Delta, ZeroDirty]);
    assert_eq!(units[0].stats.dirty_blocks, 0);
    assert_eq!(units[0].stats.delta_blocks_resolved, 0);
    let (_, span) = watch.span_memo_mut("d").expect("d has a span memo");
    assert!(span.contains("# observed"), "{span}");
    assert_eq!(revise(&mut watch, &spaced), [ZeroDirty, ZeroDirty]);
    assert_eq!(watch.edit_classes().content, 1);
    assert_eq!(watch.edit_classes().zero_dirty, 5);
    assert_eq!(watch.edit_classes().total(), 6);
    // A content edit still reaches the solver.
    assert_eq!(
        revise(&mut watch, &spaced.replace("x = a + b", "x = a - b"))[0],
        Delta
    );
}

#[test]
fn a_renamed_header_is_not_replayed() {
    use IncrementalMode::{Fresh, ZeroDirty};
    let mut watch = BatchEngine::new(BatchOptions::default());
    revise(&mut watch, REV0);
    // The same body under a new name is a new function.
    let renamed = REV0.replace("fn straight {", "fn straighter {");
    assert_eq!(revise(&mut watch, &renamed), [ZeroDirty, Fresh]);
    // Swapped names: each header now opens the other function's body.
    let swapped = renamed
        .replace("fn d {", "fn TMP {")
        .replace("fn straighter {", "fn d {")
        .replace("fn TMP {", "fn straighter {");
    let modes = revise(&mut watch, &swapped);
    assert!(!modes.contains(&ZeroDirty), "{modes:?}");
}

#[test]
fn an_invalid_function_fails_on_every_revision() {
    // Parses, but `dead` is unreachable: verification refuses it.
    let invalid =
        format!("{REV0}\nfn bad {{\nentry:\n  jmp exit\ndead:\n  jmp exit\nexit:\n  ret\n}}\n");
    let m = parse_module(&invalid).unwrap();
    let mut watch = BatchEngine::new(BatchOptions::default());
    for revision in 0..2 {
        let units = watch.run_module_incremental(&m);
        let err = units[2].outcome.as_ref().unwrap_err();
        assert_eq!(err.kind, FailureKind::InvalidInput, "revision {revision}");
        assert!(units[..2].iter().all(|u| u.outcome.is_ok()));
    }
}

#[test]
fn spec_replays_only_under_the_same_profile() {
    use IncrementalMode::{Fresh, OneShot, ZeroDirty};
    let golden = include_str!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/testdata/guarded_loop.lcm"
    ));
    let bare = &golden[..golden.find("profile guarded").unwrap()];
    // Flow still conserves; the guard is now cold.
    let cold = golden
        .replace("body -> compute : 6", "body -> compute : 2")
        .replace("compute -> latch : 6", "compute -> latch : 2")
        .replace("body -> skip : 3", "body -> skip : 7")
        .replace("skip -> latch : 3", "skip -> latch : 7");
    let mut watch = BatchEngine::new(BatchOptions {
        placement: PreAlgorithm::Speculative,
        ..BatchOptions::default()
    });
    // No profile: the unit runs plain LCM incrementally.
    assert_eq!(revise(&mut watch, bare), [Fresh]);
    assert_eq!(revise(&mut watch, bare), [ZeroDirty]);
    // The same `fn` bytes with a profile added, then changed: the profile
    // decides the placement, so neither is replayed.
    assert_eq!(revise(&mut watch, golden), [OneShot]);
    assert_eq!(revise(&mut watch, &cold), [OneShot]);
    // Back to no profile: the retained answer is the right one again.
    assert_eq!(revise(&mut watch, bare), [ZeroDirty]);
}
