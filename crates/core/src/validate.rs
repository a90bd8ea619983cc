//! Paper-invariant validation of PRE transformations.
//!
//! Every algorithm in this crate claims the same three things about its
//! output: it is structurally well formed, it only inserted computations
//! at admissible (down-safe or up-safe) points, and it never made any
//! execution evaluate a candidate expression more often than before. This
//! module re-checks those claims *from the outside*, against the actual
//! plan and the actual rewritten function — so a corrupted fixpoint, a
//! dropped insertion or a mis-targeted edge split is caught at the pass
//! boundary instead of surfacing as silent miscompilation.
//!
//! Two tiers (selected by [`ValidationLevel`]):
//!
//! * **Fast** — purely static, a small constant number of extra bit-vector
//!   passes: structural [`lcm_ir::verify`] of the output, plan
//!   safety (`INSERT ⊆ ANTIN ∪ AVOUT` at every insertion point, the
//!   paper's admissibility criterion), definite assignment of every
//!   introduced temporary, insertion bookkeeping (the number of `t := e`
//!   definitions materialised in the output must equal what the rewriter
//!   reported), and for the edge formulation `INSERT ⊆ LATER` against a
//!   freshly recomputed delay fixpoint.
//! * **Full** — adds seeded differential execution: the original and
//!   transformed functions run on a deterministic sample of inputs and
//!   must produce identical observation traces, and the transformed run
//!   must never evaluate the candidate expressions more often (the
//!   computational-optimality direction that is checkable per input).
//!
//! The checks are deliberately redundant with the algorithms' own
//! derivations — that redundancy is the point; `crates/faults` mutation
//! tests assert that every seeded fault class trips at least one check.

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use lcm_interp::{observational_equivalence, run, Inputs};
use lcm_ir::{verify, Function, Instr, Rvalue, VerifyError};

use crate::analyses::GlobalAnalyses;
use crate::lcm_edge::later_problem;
use crate::predicates::LocalPredicates;
use crate::safety::{
    check_definite_assignment, check_plan_safety, check_speculative_plan_safety, SafetyError,
};
use crate::transform::PlacementPlan;
use crate::universe::ExprUniverse;
use crate::Optimized;

/// How much validation to run after a PRE pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ValidationLevel {
    /// No validation.
    Off,
    /// Static checks only: structural verify, plan safety, definite
    /// assignment, insertion bookkeeping, delay-invariant re-check.
    #[default]
    Fast,
    /// Fast plus seeded differential execution and per-input eval-count
    /// non-regression.
    Full,
}

impl ValidationLevel {
    /// Stable names, matching the CLI's `--validate=` values.
    pub fn name(self) -> &'static str {
        match self {
            ValidationLevel::Off => "off",
            ValidationLevel::Fast => "fast",
            ValidationLevel::Full => "full",
        }
    }
}

impl fmt::Display for ValidationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ValidationLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ValidationLevel::Off),
            "fast" => Ok(ValidationLevel::Fast),
            "full" => Ok(ValidationLevel::Full),
            other => Err(format!(
                "unknown validation level `{other}` (expected off, fast or full)"
            )),
        }
    }
}

/// A violation of a paper invariant found by [`validate_optimized`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// An analysis re-run by the validator itself failed to converge —
    /// its transfer functions are corrupted.
    AnalysisDiverged(lcm_dataflow::SolverDiverged),
    /// The transformed function fails structural verification.
    Structural {
        /// Which function failed: `"input"` or `"output"`.
        stage: &'static str,
        /// The underlying structural error.
        error: VerifyError,
    },
    /// An insertion sits at a point that is neither down-safe nor up-safe
    /// (inadmissible: some path would evaluate an expression it never
    /// evaluated before).
    UnsafeInsertion(SafetyError),
    /// An introduced temporary may be read before it is assigned on some
    /// path of the transformed function.
    MaybeUnassigned(SafetyError),
    /// The output contains a different number of temp-defining
    /// computations than the rewriter reported — an insertion was dropped
    /// or duplicated between planning and materialisation.
    InsertionBookkeeping {
        /// `stats.insertions + stats.retained_defs`.
        expected: usize,
        /// Temp-defining `t := e` instructions actually present.
        found: usize,
    },
    /// An edge-formulation insertion lies outside the recomputed `LATER`
    /// set — it is (at best) admissible but provably not lifetime-optimal,
    /// and in practice the signature of a corrupted delay fixpoint.
    InsertionNotInLater {
        /// Description of the insertion point.
        at: String,
        /// Universe index of the offending expression.
        expr: usize,
    },
    /// A block containing a memory write (`store` or non-pure `call`) is
    /// recorded as transparent for some load — the alias-aware kill was
    /// dropped, so a planner could hoist a load across a may-alias store.
    MemoryKillDropped {
        /// Label of the offending block.
        block: String,
        /// Universe index of the load expression that should be killed.
        expr: usize,
    },
    /// Differential execution found an input on which the original and
    /// transformed functions observe different traces.
    NotObservationallyEquivalent {
        /// Index of the offending sampled input (deterministic per seed).
        input_index: usize,
    },
    /// On some sampled input the transformed function evaluated the
    /// candidate expressions more often than the original — a violation
    /// of computational optimality (and of plain profitability).
    EvalRegression {
        /// Index of the offending sampled input.
        input_index: usize,
        /// Candidate evaluations in the original run.
        before: u64,
        /// Candidate evaluations in the transformed run.
        after: u64,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::AnalysisDiverged(e) => write!(f, "validator re-run: {e}"),
            ValidationError::Structural { stage, error } => {
                write!(f, "{stage} function is structurally invalid: {error}")
            }
            ValidationError::UnsafeInsertion(e) => write!(f, "inadmissible plan: {e}"),
            ValidationError::MaybeUnassigned(e) => {
                write!(f, "transformed function: {e}")
            }
            ValidationError::InsertionBookkeeping { expected, found } => write!(
                f,
                "insertion bookkeeping mismatch: rewriter reported {expected} \
                 temp-defining computations, output contains {found}"
            ),
            ValidationError::InsertionNotInLater { at, expr } => write!(
                f,
                "insertion of expression #{expr} at {at} lies outside the \
                 recomputed LATER set"
            ),
            ValidationError::MemoryKillDropped { block, expr } => write!(
                f,
                "memory kill dropped: block `{block}` writes memory but is \
                 recorded transparent for load expression #{expr}"
            ),
            ValidationError::NotObservationallyEquivalent { input_index } => write!(
                f,
                "observation traces differ on sampled input #{input_index}"
            ),
            ValidationError::EvalRegression {
                input_index,
                before,
                after,
            } => write!(
                f,
                "candidate evaluations regressed on sampled input \
                 #{input_index}: {before} before, {after} after"
            ),
        }
    }
}

impl Error for ValidationError {}

/// What [`validate_optimized`] checked and how long it took.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ValidationReport {
    /// The tier that ran.
    pub level: ValidationLevel,
    /// Individual checks executed.
    pub checks_run: usize,
    /// Wall-clock nanoseconds spent in the static (fast-tier) checks.
    pub static_nanos: u128,
    /// Wall-clock nanoseconds spent in differential execution (full tier;
    /// zero under fast).
    pub differential_nanos: u128,
    /// Sampled inputs executed differentially (full tier; zero under fast).
    pub inputs_sampled: usize,
}

/// Deterministic splitmix64 step — the validator's only source of
/// "randomness", so a failing seed reproduces exactly.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds one sampled input assignment for `f`'s symbols. Values are kept
/// small so branches flip and loop trip counts stay bounded. Public so
/// drivers can replay the validator's exact input distribution (e.g. the
/// dynamic-evaluation lines of `lcmopt --emit stats`).
pub fn sample_inputs(f: &Function, state: &mut u64) -> Inputs {
    f.symbols
        .iter()
        .map(|(_, name)| {
            let v = (splitmix64(state) % 17) as i64 - 8;
            (name.to_string(), v)
        })
        .collect()
}

/// Checks the edge formulation's placement against a freshly recomputed
/// delay fixpoint: every planned insertion must lie in `LATER` (edges) or
/// `ANTIN[entry]` (the virtual entry edge).
fn check_later_invariant(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
    ga: &GlobalAnalyses,
    plan: &PlacementPlan,
) -> Result<(), ValidationError> {
    let solution = later_problem(f, uni, local, ga)
        .try_solve()
        .map_err(ValidationError::AnalysisDiverged)?;
    for (eid, edge) in plan.edges.iter() {
        // LATER(i,j) = EARLIEST(i,j) ∪ solver out of i.
        let mut later = solution.outs.row_set(edge.from.index());
        later.union_with(&ga.earliest[eid.index()]);
        for e in plan.edge_inserts[eid.index()].iter() {
            if !later.contains(e) {
                return Err(ValidationError::InsertionNotInLater {
                    at: edge.to_string(),
                    expr: e,
                });
            }
        }
    }
    for e in plan.entry_insert.iter() {
        if !ga.antic.ins.contains(f.entry().index(), e) {
            return Err(ValidationError::InsertionNotInLater {
                at: "entry".to_string(),
                expr: e,
            });
        }
    }
    Ok(())
}

/// Independently re-derives the alias-aware memory-kill rule: every block
/// containing a `store` or a non-pure `call` must be opaque (`¬TRANSP`,
/// `KILL`) to every `Mem` expression of the universe.
///
/// Both sides are re-derived by *direct pattern match* — deliberately not
/// via [`Instr::kills_memory`] or [`ExprUniverse::mem_mask`] — so a bug in
/// that shared plumbing (or a corrupted predicate table) cannot hide from
/// its own reflection. The intrinsic purity table is duplicated here as an
/// exhaustive match for the same reason: adding a `Callee` forces this
/// check to take a position on it.
pub fn check_memory_kills(
    f: &Function,
    uni: &ExprUniverse,
    local: &LocalPredicates,
) -> Result<(), ValidationError> {
    let mem_indices: Vec<usize> = uni
        .iter()
        .filter(|(_, e)| matches!(e, lcm_ir::Expr::Mem(_)))
        .map(|(i, _)| i)
        .collect();
    if mem_indices.is_empty() {
        return Ok(());
    }
    for b in f.block_ids() {
        let writes_memory = f.block(b).instrs.iter().any(|i| match i {
            Instr::Store { .. } => true,
            Instr::Call { callee, .. } => match callee {
                lcm_ir::Callee::Min | lcm_ir::Callee::Max => false,
                lcm_ir::Callee::Poke | lcm_ir::Callee::Bump => true,
            },
            Instr::Assign { .. } | Instr::Observe(_) => false,
        });
        if !writes_memory {
            continue;
        }
        for &expr in &mem_indices {
            if local.transp[b.index()].contains(expr) || !local.kill[b.index()].contains(expr) {
                return Err(ValidationError::MemoryKillDropped {
                    block: f.block(b).name.clone(),
                    expr,
                });
            }
        }
    }
    Ok(())
}

/// Counts the `t := e` computations in the output that define one of the
/// rewriter's temporaries — must equal `insertions + retained_defs`.
fn count_temp_defs(out: &Function, temps: &[lcm_ir::Var]) -> usize {
    let mut is_temp = vec![false; out.symbols.len()];
    for &t in temps {
        is_temp[t.index()] = true;
    }
    out.block_ids()
        .flat_map(|b| out.block(b).instrs.iter())
        .filter(|i| matches!(i, Instr::Assign { dst, rv: Rvalue::Expr(_) } if is_temp[dst.index()]))
        .count()
}

/// Validates one [`Optimized`] result against the paper invariants (see
/// the module docs for the tiers). `orig` is the function the whole pass
/// was asked to optimize — for the node algorithms this differs from
/// `opt.input`, which is the critical-edge-split copy the plan targets.
///
/// The `seed` feeds the full tier's input sampling only; fast-tier checks
/// are deterministic regardless.
///
/// # Errors
///
/// Returns the first invariant violation found.
pub fn validate_optimized(
    orig: &Function,
    opt: &Optimized,
    level: ValidationLevel,
    seed: u64,
) -> Result<ValidationReport, ValidationError> {
    let mut report = ValidationReport {
        level,
        ..ValidationReport::default()
    };
    if level == ValidationLevel::Off {
        return Ok(report);
    }

    let start = Instant::now();

    // 1. Structural re-verification of both ends of the pass.
    verify(orig).map_err(|error| ValidationError::Structural {
        stage: "input",
        error,
    })?;
    verify(&opt.function).map_err(|error| ValidationError::Structural {
        stage: "output",
        error,
    })?;
    report.checks_run += 2;

    // 2. Admissibility: every insertion point of the plan is safe in the
    //    function the plan was computed for. Speculative plans get the
    //    relaxed rule: classically unsafe points are tolerated exactly
    //    when the inserted expression is provably side-effect-free.
    let speculative = opt.plan.algorithm == "spec";
    let uni = ExprUniverse::of(&opt.input);
    let local = LocalPredicates::compute(&opt.input, &uni);
    let ga = GlobalAnalyses::compute(&opt.input, &uni, &local)
        .map_err(ValidationError::AnalysisDiverged)?;
    if speculative {
        check_speculative_plan_safety(&opt.input, &uni, &local, &ga, &opt.plan)
            .map_err(ValidationError::UnsafeInsertion)?;
    } else {
        check_plan_safety(&opt.input, &uni, &local, &ga, &opt.plan)
            .map_err(ValidationError::UnsafeInsertion)?;
    }
    report.checks_run += 1;

    // 2b. Memory kills survived predicate computation: blocks that write
    //     memory are opaque to every load, re-derived independently of the
    //     mask plumbing the analyses share.
    check_memory_kills(&opt.input, &uni, &local)?;
    report.checks_run += 1;

    // 3. Lifetime-optimality direction for the edge formulation: the
    //    insertions must lie inside the recomputed LATER sets.
    if opt.plan.algorithm == "lcm-edge" {
        check_later_invariant(&opt.input, &uni, &local, &ga, &opt.plan)?;
        report.checks_run += 1;
    }

    // 4. No introduced temporary is ever read uninitialised.
    let temps = opt.transform.temp_vars();
    check_definite_assignment(&opt.function, &temps).map_err(ValidationError::MaybeUnassigned)?;
    report.checks_run += 1;

    // 5. Insertion bookkeeping: what the rewriter claims to have
    //    materialised is what the output actually contains.
    let expected = opt.transform.stats.insertions + opt.transform.stats.retained_defs;
    let found = count_temp_defs(&opt.function, &temps);
    if expected != found {
        return Err(ValidationError::InsertionBookkeeping { expected, found });
    }
    report.checks_run += 1;
    report.static_nanos = start.elapsed().as_nanos();

    if level != ValidationLevel::Full {
        return Ok(report);
    }

    // 6. Seeded differential execution + eval-count non-regression.
    let diff_start = Instant::now();
    let mut state = seed ^ 0xA076_1D64_78BD_642F;
    let fuel = 4_000 + 64 * orig.num_instrs() as u64;
    let candidates = uni.exprs();
    for input_index in 0..4 {
        let inputs = sample_inputs(orig, &mut state);
        report.inputs_sampled += 1;
        match observational_equivalence(orig, &opt.function, &inputs, fuel) {
            Ok(true) => {}
            Ok(false) => {
                return Err(ValidationError::NotObservationallyEquivalent { input_index });
            }
            // Both sides out of fuel with agreeing prefixes: indeterminate,
            // not a violation. A disagreeing prefix is a real divergence.
            Err(d) if d.prefix_agrees => {}
            Err(_) => {
                return Err(ValidationError::NotObservationallyEquivalent { input_index });
            }
        }
        // Per-input eval-count non-regression. Speculative placement is
        // exempt: it deliberately adds evaluations to paths the profile
        // says are cold, and an unweighted sampled input can land on one.
        // Its guarantee is *weighted* (profile-relative), checked by the
        // planner and the differential suite instead.
        if !speculative {
            let before_run = run(orig, &inputs, fuel);
            let after_run = run(&opt.function, &inputs, fuel);
            if before_run.completed() && after_run.completed() {
                let before = before_run.total_evals_of(candidates);
                let after = after_run.total_evals_of(candidates);
                if after > before {
                    return Err(ValidationError::EvalRegression {
                        input_index,
                        before,
                        after,
                    });
                }
            }
            report.checks_run += 1;
        }
        report.checks_run += 1;
    }
    report.differential_nanos = diff_start.elapsed().as_nanos();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, PreAlgorithm};
    use lcm_ir::parse_function;

    const DIAMOND: &str = "fn d {
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
        }";

    #[test]
    fn levels_parse_and_display_round_trip() {
        for level in [
            ValidationLevel::Off,
            ValidationLevel::Fast,
            ValidationLevel::Full,
        ] {
            assert_eq!(level.name().parse::<ValidationLevel>().unwrap(), level);
        }
        assert!("medium".parse::<ValidationLevel>().is_err());
        assert_eq!(ValidationLevel::default(), ValidationLevel::Fast);
    }

    #[test]
    fn every_algorithm_validates_clean_on_the_diamond() {
        let f = parse_function(DIAMOND).unwrap();
        for alg in PreAlgorithm::ALL {
            let opt = optimize(&f, alg).unwrap();
            let report = validate_optimized(&f, &opt, ValidationLevel::Full, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
            assert_eq!(report.level, ValidationLevel::Full);
            assert!(report.checks_run >= 6, "{}", alg.name());
            assert_eq!(report.inputs_sampled, 4);
        }
    }

    #[test]
    fn off_level_checks_nothing() {
        let f = parse_function(DIAMOND).unwrap();
        let opt = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
        let report = validate_optimized(&f, &opt, ValidationLevel::Off, 0).unwrap();
        assert_eq!(report.checks_run, 0);
    }

    #[test]
    fn dropped_insertion_is_caught_by_bookkeeping() {
        let f = parse_function(DIAMOND).unwrap();
        let mut opt = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
        // Surgically remove the inserted t := a + b from the output.
        let temps = opt.transform.temp_vars();
        for b in opt.function.block_ids().collect::<Vec<_>>() {
            let instrs = &mut opt.function.block_mut(b).instrs;
            instrs.retain(|i| {
                !matches!(i, Instr::Assign { dst, rv: Rvalue::Expr(_) }
                          if temps.contains(dst))
            });
        }
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        // Either the definite-assignment check or the bookkeeping count
        // fires first; both identify the dropped insertion.
        assert!(matches!(
            err,
            ValidationError::MaybeUnassigned(_) | ValidationError::InsertionBookkeeping { .. }
        ));
    }

    #[test]
    fn unsafe_plan_bit_is_caught_by_safety_check() {
        let f = parse_function(
            "fn p {
             entry:
               br c, l, r
             l:
               a = 1
               x = a + b
               jmp j
             r:
               jmp j
             j:
               obs x
               ret
             }",
        )
        .unwrap();
        let mut opt = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
        // Flip a plan bit toward the unsafe virtual entry edge.
        opt.plan.entry_insert.insert(0);
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(matches!(err, ValidationError::UnsafeInsertion(_)));
        assert!(err.to_string().contains("inadmissible"));
    }

    #[test]
    fn speculative_plans_validate_under_the_relaxed_rule() {
        use crate::{optimize_speculative_checked_with, EdgeWeights};
        use lcm_dataflow::{SolveStrategy, SolverScratch};
        // A guarded use inside a hot loop: speculation hoists `a + b` to
        // the entry, a classically unsafe point.
        let f = parse_function(
            "fn g {
             entry:
               jmp head
             head:
               br p, body, done
             body:
               br q, compute, skip
             compute:
               x = a + b
               obs x
               jmp latch
             skip:
               jmp latch
             latch:
               jmp head
             done:
               ret
             }",
        )
        .unwrap();
        let profile = lcm_ir::Profile::from_weights(&f, &[1, 9, 1, 6, 3, 6, 3, 9]);
        let w = EdgeWeights::from_profile(&f, &profile).unwrap();
        let strategy = SolveStrategy::default();
        let scratch = &mut SolverScratch::new();
        let level = ValidationLevel::Off;
        let (opt, _) =
            optimize_speculative_checked_with(&f, &w, level, 0, strategy, scratch).unwrap();
        assert_eq!(opt.spec.unwrap().speculated, 1);
        assert!(!opt.plan.entry_insert.is_empty());
        // The classical rule rejects this plan; the speculative tier
        // accepts it because `a + b` is side-effect-free.
        let report = validate_optimized(&f, &opt, ValidationLevel::Full, 5).unwrap();
        assert_eq!(report.inputs_sampled, 4);
    }

    #[test]
    fn side_effecting_speculation_is_rejected() {
        let f = parse_function(
            "fn g {
             entry:
               br q, compute, skip
             compute:
               x = a / b
               obs x
               jmp done
             skip:
               jmp done
             done:
               ret
             }",
        )
        .unwrap();
        let mut opt = optimize(&f, PreAlgorithm::Speculative).unwrap();
        // Forge what the planner refuses to produce: a speculative entry
        // insertion of the faultable `a / b`.
        opt.plan.entry_insert.insert(0);
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(matches!(err, ValidationError::UnsafeInsertion(_)));
        assert!(err.to_string().contains("side-effect-free"));
    }

    #[test]
    fn memory_kill_rule_fires_on_corrupted_predicates() {
        let f = parse_function(
            "fn m {
             entry:
               x = load p
               store q, 1
               y = load p
               obs x
               obs y
               ret
             }",
        )
        .unwrap();
        let uni = ExprUniverse::of(&f);
        let mut local = LocalPredicates::compute(&f, &uni);
        // Honest predicates pass.
        check_memory_kills(&f, &uni, &local).unwrap();
        // Re-insert the dropped transparency bit for the load (universe
        // index 0) in the storing block, as a broken mask sweep would.
        let b = f.entry().index();
        let load = uni
            .index_of(lcm_ir::Expr::Mem(lcm_ir::Operand::Var(
                f.symbols.get("p").unwrap(),
            )))
            .unwrap();
        local.transp[b].insert(load);
        local.kill[b].remove(load);
        let err = check_memory_kills(&f, &uni, &local).unwrap_err();
        assert!(
            matches!(err, ValidationError::MemoryKillDropped { ref block, expr }
                     if block == "entry" && expr == load)
        );
        assert!(err.to_string().contains("memory kill dropped"));
    }

    #[test]
    fn memory_functions_validate_clean_end_to_end() {
        let f = parse_function(
            "fn m {
             entry:
               i = 3
               jmp head
             head:
               x = load p
               obs x
               br i, body, done
             body:
               i = i - 1
               jmp head
             done:
               call poke(p, 9)
               y = load p
               obs y
               ret
             }",
        )
        .unwrap();
        for alg in PreAlgorithm::ALL {
            let opt = optimize(&f, alg).unwrap();
            validate_optimized(&f, &opt, ValidationLevel::Full, 11)
                .unwrap_or_else(|e| panic!("{}: {e}", alg.name()));
        }
    }

    #[test]
    fn trace_change_is_caught_by_differential_execution() {
        let f = parse_function(DIAMOND).unwrap();
        let mut opt = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
        // Corrupt the observed value in the output only: every static
        // check still passes, but the trace differs on every input.
        let join = opt.function.block_by_name("join").unwrap();
        for instr in &mut opt.function.block_mut(join).instrs {
            if matches!(instr, Instr::Observe(_)) {
                *instr = Instr::Observe(lcm_ir::Operand::Const(123_456_789));
            }
        }
        let err = validate_optimized(&f, &opt, ValidationLevel::Full, 3).unwrap_err();
        assert!(matches!(
            err,
            ValidationError::NotObservationallyEquivalent { .. }
        ));
    }
}
