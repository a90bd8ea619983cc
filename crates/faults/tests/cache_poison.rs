//! Cache-poisoning mutation tests for the batch driver.
//!
//! The plan cache stores enough pipeline state to re-validate every hit,
//! so a corrupted entry must be caught by the same validator that guards
//! the live pipeline: poison an entry through
//! [`lcm_faults::poison_cached_plan`], request the same body again, and
//! the hit must fail with [`FailureKind::PoisonedCache`] instead of
//! serving the poisoned plan — at every validation tier, `off` included:
//! a hit is re-validated at the fast tier whatever the tier of computed
//! units.

use lcm_core::validate::ValidationLevel;
use lcm_driver::{
    BatchEngine, BatchOptions, BatchUnit, CacheDisposition, FailureKind, PlanCache, UnitOutcome,
};
use lcm_faults::{poison_cached_plan, Fault};
use lcm_ir::{parse_function, Function};

/// The diamond with a partially redundant `a + b`: LCM inserts on the
/// empty arm and deletes at the join, so the cached result has material
/// for every fault class used below.
fn diamond(name: &str) -> Function {
    parse_function(&format!(
        "fn {name} {{
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
         }}"
    ))
    .expect("valid fixture")
}

fn unit(f: &Function) -> BatchUnit {
    BatchUnit {
        file: None,
        profile: None,
        function: f.clone(),
    }
}

/// Fault classes the fast validation tier detects on the diamond (the
/// plan-bit flip needs a subject where the flipped point is unsafe, so it
/// is exercised in the main fault suite instead).
const CACHE_FAULTS: [Fault; 3] = [
    Fault::DropInsertion,
    Fault::DuplicateInsertion,
    Fault::CorruptTerminator,
];

#[test]
fn poisoned_entry_is_rejected_on_hit() {
    for fault in CACHE_FAULTS {
        let mut engine = BatchEngine::new(BatchOptions::default());
        let first_fn = diamond("first");
        let first = engine.run(vec![unit(&first_fn)]);
        assert_eq!(first.totals.ok, 1, "{}: priming run failed", fault.name());

        assert!(
            poison_cached_plan(engine.cache_mut(), &first_fn, fault, 5),
            "{}: fault did not land",
            fault.name()
        );

        // Same body under another name: a hit, which revalidation rejects.
        let second = engine.run(vec![unit(&diamond("second"))]);
        let report = &second.units[0];
        assert_eq!(report.cache, CacheDisposition::Hit);
        let UnitOutcome::Failed(e) = &report.outcome else {
            panic!("{}: poisoned hit was served", fault.name());
        };
        assert_eq!(e.kind, FailureKind::PoisonedCache, "{}", fault.name());
        assert_eq!(second.totals.failed, 1);
        assert_eq!(second.totals.ok, 0);
    }
}

#[test]
fn poisoned_entry_fails_only_the_hit_unit() {
    let mut engine = BatchEngine::new(BatchOptions::default());
    let first_fn = diamond("first");
    engine.run(vec![unit(&first_fn)]);
    assert!(poison_cached_plan(
        engine.cache_mut(),
        &first_fn,
        Fault::CorruptTerminator,
        7
    ));

    // A batch mixing the poisoned body with a fresh one: the fresh unit
    // must still complete.
    let fresh = parse_function("fn fresh {\nentry:\n  z = a * b\n  obs z\n  ret\n}").unwrap();
    let result = engine.run(vec![unit(&diamond("again")), unit(&fresh)]);
    assert_eq!(result.totals.failed, 1);
    assert_eq!(result.totals.ok, 1);
    assert!(matches!(result.units[1].outcome, UnitOutcome::Ok(_)));
}

#[test]
fn validation_off_still_rejects_a_poisoned_hit() {
    // Validation off governs computed units only: the hit is re-validated
    // at the fast tier all the same, so the poisoned entry is not served.
    let mut engine = BatchEngine::new(BatchOptions {
        validate: ValidationLevel::Off,
        ..BatchOptions::default()
    });
    let first_fn = diamond("first");
    engine.run(vec![unit(&first_fn)]);
    assert!(poison_cached_plan(
        engine.cache_mut(),
        &first_fn,
        Fault::DropInsertion,
        5
    ));
    let second = engine.run(vec![unit(&diamond("second"))]);
    assert_eq!(second.totals.ok, 0);
    assert_eq!(second.units[0].cache, CacheDisposition::Hit);
    let UnitOutcome::Failed(e) = &second.units[0].outcome else {
        panic!("poisoned hit was served under validation off");
    };
    assert_eq!(e.kind, FailureKind::PoisonedCache);
}

#[test]
fn poisoning_is_a_noop_without_a_matching_entry() {
    let mut cache = PlanCache::new(0);
    assert!(!poison_cached_plan(
        &mut cache,
        &diamond("absent"),
        Fault::CorruptTerminator,
        1
    ));
    assert!(cache.is_empty());
}
