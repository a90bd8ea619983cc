//! Memory-aware PRE: the golden hoist/no-hoist pair, alias conservatism
//! over seeded corpora, and full-tier differential validation of the
//! memory-op corpus under every placement algorithm.

use lcm::cfggen::{corpus, GenOptions};
use lcm::core::{
    check_memory_kills, optimize_checked, optimize_pipeline, EdgeWeights, ExprUniverse,
    LocalPredicates, OptimizeBudget, Optimized, Options, PipelineError, PreAlgorithm, Session,
    ValidationLevel, ValidationReport,
};
use lcm::dataflow::SolveStrategy;
use lcm::ir::{parse_function, Expr, Function, Instr};

/// `alg` through the checked call at the full validation tier;
/// speculative placement plans against unit edge weights.
fn checked_full(
    f: &Function,
    alg: PreAlgorithm,
) -> Result<(Optimized, ValidationReport), PipelineError> {
    let opts = Options {
        placement: alg,
        validate: ValidationLevel::Full,
        seed: 0x1c3a_57ed,
        solver: SolveStrategy::default(),
    };
    let unit = (alg == PreAlgorithm::Speculative).then(|| EdgeWeights::unit(f));
    let budget = OptimizeBudget::unlimited();
    optimize_checked(f, unit.as_ref(), &opts, &budget, &mut Session::new())
}

const MEMORY_LOOP: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/testdata/memory_loop.lcm"
));
const MEMORY_ALIAS: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/testdata/memory_alias.lcm"
));

/// Block text of `name` in the printed function (up to the next label).
fn block_text(printed: &str, name: &str) -> String {
    let after = printed
        .split(&format!("{name}:"))
        .nth(1)
        .unwrap_or_else(|| panic!("block `{name}` not printed:\n{printed}"));
    // A following label line ends the block; fall back to end-of-function.
    let end = after
        .lines()
        .scan(0usize, |pos, l| {
            let here = *pos;
            *pos += l.len() + 1;
            Some((here, l))
        })
        .find(|(_, l)| l.ends_with(':') && !l.starts_with(' '))
        .map(|(pos, _)| pos)
        .unwrap_or(after.len());
    after[..end].to_string()
}

/// The golden positive: a loop-invariant `load p` in a loop with no
/// intervening store is hoisted to the preheader.
#[test]
fn golden_loop_invariant_load_is_hoisted() {
    let f = parse_function(MEMORY_LOOP).unwrap();
    let g = optimize_pipeline(&f, PreAlgorithm::LazyEdge).unwrap();
    let printed = g.to_string();
    assert!(
        block_text(&printed, "entry").contains("load p"),
        "load not hoisted to entry:\n{printed}"
    );
    assert!(
        !block_text(&printed, "head").contains("load p"),
        "load still recomputed in the loop:\n{printed}"
    );
}

/// The golden negative: the same loop with a may-alias `store q` in the
/// body must NOT hoist the load — the store kills every `Mem` expression
/// under the base-insensitive model, so the pipeline is an exact no-op.
#[test]
fn golden_may_alias_store_blocks_the_hoist() {
    let f = parse_function(MEMORY_ALIAS).unwrap();
    let g = optimize_pipeline(&f, PreAlgorithm::LazyEdge).unwrap();
    assert_eq!(
        g.to_string(),
        f.to_string(),
        "may-alias store should make the pipeline a no-op"
    );
    let printed = g.to_string();
    assert!(
        block_text(&printed, "head").contains("load p"),
        "load must stay in the loop:\n{printed}"
    );
    assert!(
        !block_text(&printed, "entry").contains("load"),
        "no load may appear before the loop:\n{printed}"
    );
}

/// Alias conservatism as a structural property over the seeded memory
/// corpus: in every optimized function, a block that writes memory is
/// never recorded transparent for a load — checked by the validator's
/// independent re-derivation, and cross-checked against the honest local
/// predicates directly.
#[test]
fn corpus_predicates_never_drop_a_memory_kill() {
    let opts = GenOptions::with_memory(0.2);
    for f in corpus(0x4D454D, 60, &opts) {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        check_memory_kills(&f, &uni, &local)
            .unwrap_or_else(|e| panic!("memory kill dropped in {}: {e}", f.name));
    }
}

/// No load is ever materially hoisted across a may-alias store: after
/// optimization, every `Mem` computation (original or inserted temp
/// definition) sits in a block where no *earlier* instruction of that
/// block writes memory only if the predicates said so — enforced by
/// running the full validator, which re-derives TRANSP with the kill rule
/// and checks the plan against it, then differentially executes original
/// vs optimized on the flat heap.
#[test]
fn memory_corpus_validates_full_tier_under_all_placements() {
    let opts = GenOptions::with_memory(0.15);
    let fns = corpus(0x4D454D02, 300, &opts);
    assert!(fns.len() >= 300, "corpus shrank: {}", fns.len());
    let mut loads = 0usize;
    let mut writers = 0usize;
    for f in &fns {
        loads += f
            .block_ids()
            .flat_map(|b| f.block(b).instrs.iter())
            .filter(|i| {
                matches!(i, Instr::Assign { rv, .. }
                    if matches!(rv.as_expr(), Some(Expr::Mem(_))))
            })
            .count();
        writers += f
            .block_ids()
            .flat_map(|b| f.block(b).instrs.iter())
            .filter(|i| i.kills_memory())
            .count();
        for alg in [
            PreAlgorithm::Busy,
            PreAlgorithm::LazyEdge,
            PreAlgorithm::Speculative,
        ] {
            checked_full(f, alg).unwrap_or_else(|e| {
                panic!(
                    "{} failed full-tier validation on {}: {e}",
                    alg.name(),
                    f.name
                )
            });
        }
    }
    // The corpus must actually exercise the memory model, not vacuously
    // pass on arithmetic-only functions.
    assert!(loads > 100, "corpus too load-poor: {loads}");
    assert!(writers > 100, "corpus too store-poor: {writers}");
}

/// The golden pair also survives every algorithm under full validation —
/// the differential interpreter agrees on the heap-observing programs.
#[test]
fn golden_pair_validates_under_every_algorithm() {
    for text in [MEMORY_LOOP, MEMORY_ALIAS] {
        let f = parse_function(text).unwrap();
        for alg in PreAlgorithm::ALL {
            checked_full(&f, alg).unwrap_or_else(|e| {
                panic!("{} failed full validation on {}: {e}", alg.name(), f.name)
            });
        }
    }
}
