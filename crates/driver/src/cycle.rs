//! The per-unit cycle every surface runs: batch ([`BatchEngine::run`]),
//! watch ([`BatchEngine::run_module_incremental`]) and the serve daemon.
//!
//! A unit passes through three steps:
//!
//! 1. **plan** ([`BatchEngine::plan`], sequential): the span memo, `verify`,
//!    the one profile → weights → context resolution, and then one choice —
//!    the retained state, for an incremental-eligible unbudgeted unit whose
//!    name has one; otherwise the plan cache, when the surface has one;
//!    otherwise a fresh or one-shot compute;
//! 2. **work** ([`Work::run`]), which borrows no engine state: the unit
//!    pipeline, or the re-validation of a cache hit. Watch runs it inline,
//!    the daemon with the engine lock released, batch on the pool;
//! 3. **finish** ([`BatchEngine::finish`], sequential): the ledger,
//!    retention, cache fill and quarantine.
//!
//! The plan cache has one hit rule, the one [`CacheEntry`] documents: every
//! hit is re-validated at the fast tier, whatever the validation tier.

use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;

use lcm_core::{
    EdgeWeights, IncrementalStats, OptimizeBudget, PhaseNanos, PreAlgorithm, SpecStats,
};
use lcm_dataflow::SolverScratch;
use lcm_ir::{verify, Function, Profile};

use crate::{
    cache, fingerprint_key, fingerprint_with_context, incremental_eligible, isolate, optimize_unit,
    revalidate_entry, BatchEngine, BatchOptions, BatchUnit, CacheDisposition, CacheEntry,
    FailureKind, IncrementalMode, IncrementalUnit, PrevSolve, Retained, SpanMemo, UnitError,
    UnitRun, UnitSuccess,
};

/// What a surface lets the plan step use for one unit.
#[derive(Clone, Copy)]
pub(crate) struct Surface<'a> {
    /// The engine's options tag when retained state and the span memo may
    /// answer the unit (watch, and the daemon's unbudgeted units); `None`
    /// for batch and for budgeted units.
    pub(crate) retained: Option<&'a str>,
    /// Whether the plan cache is consulted and filled.
    pub(crate) cache: bool,
}

/// One unit as the cycle sees it.
pub(crate) struct UnitIn<'a> {
    pub(crate) function: &'a Function,
    /// The unit's `fn` section text, when it came from module text.
    pub(crate) span: Option<Cow<'a, str>>,
    /// The unit's edge profile, if its module carried one.
    pub(crate) profile: Option<&'a Profile>,
}

impl<'a> From<&'a BatchUnit> for UnitIn<'a> {
    fn from(u: &'a BatchUnit) -> Self {
        UnitIn {
            function: &u.function,
            span: None,
            profile: u.profile.as_ref(),
        }
    }
}

/// What the plan step decided for one unit.
pub(crate) enum Plan {
    /// Answered by the plan step itself: a span-memo replay or an invalid
    /// input.
    Done(Finished),
    /// A batch duplicate of the unit at `leader`, which has the work.
    Replay { leader: usize },
    /// Work to run, then finish.
    Work(Work),
}

/// The PRE step a computed unit runs.
pub(crate) enum PreStep {
    /// The checked, budgeted one-shot solve of the configured placement;
    /// nothing is retained.
    OneShot,
    /// The incremental solve of an [`incremental_eligible`] unit: a delta
    /// against the retained state, or a fresh solve, whose fixpoints are
    /// retained. Validated at the fast tier at least, so a stale or
    /// corrupted state costs a typed unit failure, never wrong code.
    Incremental(Option<Box<PrevSolve>>),
}

/// One unit's work: everything it needs, owned, so it can run with the
/// engine unlocked or on another thread.
pub(crate) struct Work {
    weights: Option<EdgeWeights>,
    context: String,
    /// The unit's fingerprint, when the plan step took one.
    key: Option<u128>,
    /// The cache hit to re-validate, snapshotted at planning time; the
    /// step runs when there is none, or when a thin hit fails.
    hit: Option<Box<CacheEntry>>,
    step: PreStep,
}

/// What a work item produced.
pub(crate) enum WorkOut {
    /// The pipeline ran: there was no hit, or the hit was a thin entry
    /// that failed re-validation and is to be quarantined.
    Computed(Result<Box<UnitRun>, UnitError>),
    /// The hit was re-validated: its checks and sampled inputs, or the
    /// failure of an entry computed in this process.
    Served(Result<(usize, usize), UnitError>),
}

/// One unit's answer from the cycle, before a surface renders it.
pub(crate) struct Finished {
    /// How the plan cache took part.
    pub(crate) cache: CacheDisposition,
    /// The output under the unit's own name, or the typed failure.
    pub(crate) outcome: Result<UnitSuccess, UnitError>,
    /// The speculative-planner counters, when the pipeline ran for this
    /// unit.
    pub(crate) computed: Option<SpecStats>,
    mode: IncrementalMode,
    stats: IncrementalStats,
    phases: PhaseNanos,
}

impl Finished {
    /// A unit with no delta accounting and no phase split.
    fn plain(
        cache: CacheDisposition,
        outcome: Result<UnitSuccess, UnitError>,
        mode: IncrementalMode,
    ) -> Self {
        Finished {
            cache,
            outcome,
            computed: None,
            mode,
            stats: IncrementalStats::default(),
            phases: PhaseNanos::default(),
        }
    }

    /// The answer for a batch duplicate of this unit, named `name`: the
    /// same bytes, reported as a hit. A duplicate of a served hit keeps the
    /// hit's re-validation counts, a duplicate of a computed unit runs
    /// nothing.
    pub(crate) fn replay(&self, name: &str) -> Self {
        let keep = self.cache == CacheDisposition::Hit;
        let outcome = match &self.outcome {
            Ok(s) => Ok(UnitSuccess {
                output: cache::with_name(&s.output, name),
                validation_checks: if keep { s.validation_checks } else { 0 },
                inputs_sampled: if keep { s.inputs_sampled } else { 0 },
                ..*s
            }),
            Err(e) => Err(e.clone()),
        };
        Finished::plain(CacheDisposition::Hit, outcome, IncrementalMode::OneShot)
    }

    /// The watch surface's view of the unit.
    pub(crate) fn into_incremental(self, f: &Function) -> IncrementalUnit {
        IncrementalUnit {
            name: f.name.clone(),
            outcome: self.outcome.map(|s| s.output),
            mode: self.mode,
            stats: self.stats,
            blocks: f.num_blocks(),
            phases: self.phases,
        }
    }
}

/// The one profile → weights → context resolution: edge weights from the
/// unit's profile under speculative placement (`None` otherwise, and for a
/// profile that does not resolve — such a unit runs plain LCM), and the
/// placement context the unit is fingerprinted and cached under: empty for
/// plain LCM **and** for profile-less speculative units, which run exactly
/// the LCM pipeline and so share its entries; the full weight vector for
/// speculative units with weights (same body + same weights ⇒ same plan).
fn resolve(
    placement: PreAlgorithm,
    f: &Function,
    profile: Option<&Profile>,
) -> (Option<EdgeWeights>, String) {
    match placement {
        PreAlgorithm::Speculative => {
            match profile.and_then(|p| EdgeWeights::from_profile(f, p).ok()) {
                Some(w) => {
                    let mut context = format!("spec entry={}", w.entry);
                    for e in &w.edges {
                        context.push(',');
                        context.push_str(&e.to_string());
                    }
                    (Some(w), context)
                }
                None => (None, String::new()),
            }
        }
        PreAlgorithm::LazyEdge => (None, String::new()),
        other => (None, other.name().to_string()),
    }
}

impl Work {
    /// Runs the work under `budget`. Panics are contained: a panic becomes
    /// a [`FailureKind::Panic`] unit error.
    pub(crate) fn run(
        &self,
        f: &Function,
        opts: &BatchOptions,
        budget: &OptimizeBudget,
        scratch: &mut SolverScratch,
    ) -> WorkOut {
        if let Some(entry) = &self.hit {
            let checked = isolate(AssertUnwindSafe(|| revalidate_entry(entry, opts.seed)));
            if checked.is_ok() || entry.origin.is_some() {
                return WorkOut::Served(checked);
            }
        }
        let (weights, context) = (self.weights.as_ref(), &self.context);
        WorkOut::Computed(isolate(AssertUnwindSafe(|| {
            optimize_unit(f, opts, weights, context, &self.step, budget, scratch).map(Box::new)
        })))
    }
}

impl BatchEngine {
    /// The plan step. `dedupe` — a batch's unit index and its map from
    /// fingerprint to the first unit that has it — turns a later unit of
    /// the same fingerprint into a [`Plan::Replay`].
    pub(crate) fn plan(
        &mut self,
        unit: &UnitIn<'_>,
        surface: Surface<'_>,
        dedupe: Option<(usize, &mut HashMap<u128, usize>)>,
    ) -> Plan {
        let f = unit.function;
        if let (Some(tag), Some(span)) = (surface.retained, unit.span.as_deref()) {
            if let Some(done) = self.replay_span(f, span, unit.profile, tag) {
                return Plan::Done(done);
            }
        }
        if let Err(e) = verify(f) {
            let e = UnitError {
                kind: FailureKind::InvalidInput,
                message: e.to_string(),
            };
            let mode = IncrementalMode::OneShot;
            return Plan::Done(Finished::plain(CacheDisposition::Uncached, Err(e), mode));
        }
        let (weights, context) = resolve(self.opts.placement, f, unit.profile);
        let incremental = surface.retained.is_some()
            && incremental_eligible(self.opts.placement, weights.as_ref());
        // Retained state first: a name with retained state is always
        // answered by the incremental step. Taking it drops its span memo:
        // a span lives only beside the state it was minted with.
        let prev = incremental
            .then(|| self.retained.remove(&f.name))
            .flatten()
            .map(|r| Box::new(r.prev));
        let (mut key, mut hit) = (None, None);
        if prev.is_none() && surface.cache {
            let (k, text) = fingerprint_with_context(f, &context);
            if let Some((i, leaders)) = dedupe {
                if let Some(&leader) = leaders.get(&k) {
                    self.cache.note_hit();
                    return Plan::Replay { leader };
                }
                leaders.insert(k, i);
            }
            hit = self.cache.get(k, &text).cloned().map(Box::new);
            match hit {
                Some(_) => self.cache.note_hit(),
                None => self.cache.note_miss(),
            }
            key = Some(k);
        } else if incremental {
            key = Some(fingerprint_key(f, &context));
        }
        let step = if incremental {
            PreStep::Incremental(prev)
        } else {
            PreStep::OneShot
        };
        Plan::Work(Work {
            weights,
            context,
            key,
            hit,
            step,
        })
    }

    /// The span memo, before `verify` and the fingerprint: when `span`, the
    /// raw text of `f`'s `fn` section, is byte-identical to the section
    /// whose state is retained for `f`'s name, under the same options
    /// (`opts_tag`) and — under speculative placement — the same profile,
    /// the retained output is replayed and counted as a zero-dirty edit
    /// (DESIGN §13 says why that answer is the one a solve would give).
    fn replay_span(
        &mut self,
        f: &Function,
        span: &str,
        profile: Option<&Profile>,
        opts_tag: &str,
    ) -> Option<Finished> {
        let r = self.retained.get(&f.name)?;
        let memo = r.span.as_ref()?;
        let same_profile = match self.opts.placement {
            PreAlgorithm::LazyEdge => true,
            PreAlgorithm::Speculative => memo.profile.as_ref() == profile,
            _ => false,
        };
        if !same_profile || *memo.text != *span || r.prev.opts_tag != opts_tag {
            return None;
        }
        let output = UnitSuccess {
            output: cache::with_name(&r.prev.output_text, &f.name),
            ..UnitSuccess::default()
        };
        self.edit_classes.zero_dirty += 1;
        let mode = IncrementalMode::ZeroDirty;
        Some(Finished::plain(
            CacheDisposition::Uncached,
            Ok(output),
            mode,
        ))
    }

    /// The plan step, the work inline, and the finish step, back to back —
    /// for a surface that plans no replays.
    pub(crate) fn cycle(
        &mut self,
        unit: UnitIn<'_>,
        surface: Surface<'_>,
        budget: &OptimizeBudget,
        scratch: &mut SolverScratch,
    ) -> Finished {
        match self.plan(&unit, surface, None) {
            Plan::Done(done) => done,
            Plan::Work(work) => {
                let out = work.run(unit.function, &self.opts, budget, scratch);
                self.finish(unit, work, out, surface)
            }
            Plan::Replay { .. } => unreachable!("only a batch plans replays"),
        }
    }

    /// The finish step: quarantines a thin hit that failed re-validation
    /// (removed, counted, and its recompute served: disk corruption costs
    /// warmth, never correctness or availability); for an incremental
    /// step, classifies the unit, counts it in the delta and edit-class
    /// ledgers and the phase totals, and retains its fixpoints and output
    /// memo — with the unit's span memo, if it came from module text — for
    /// the next revision; and fills the plan cache.
    pub(crate) fn finish(
        &mut self,
        unit: UnitIn<'_>,
        work: Work,
        out: WorkOut,
        surface: Surface<'_>,
    ) -> Finished {
        let f = unit.function;
        let computed = match (out, work.hit) {
            (WorkOut::Served(checked), Some(entry)) => {
                let outcome = checked.map(|(validation_checks, inputs_sampled)| UnitSuccess {
                    validation_checks,
                    inputs_sampled,
                    ..UnitSuccess::of(&entry, &f.name)
                });
                let mode = IncrementalMode::OneShot;
                return Finished::plain(CacheDisposition::Hit, outcome, mode);
            }
            (WorkOut::Computed(computed), quarantined) => {
                if let (Some(_), Some(key)) = (quarantined, work.key) {
                    self.cache.remove(key);
                    if let Some(p) = &mut self.persisted {
                        p.base.quarantines += 1;
                    }
                }
                computed
            }
            (WorkOut::Served(..), None) => unreachable!("only a hit is served"),
        };
        let cache = if surface.cache {
            CacheDisposition::Computed
        } else {
            CacheDisposition::Uncached
        };
        let (mode, prev) = match work.step {
            PreStep::OneShot => (IncrementalMode::OneShot, None),
            PreStep::Incremental(prev) => (IncrementalMode::Fresh, prev),
        };
        let mut run = match computed {
            Ok(run) => *run,
            Err(e) => return Finished::plain(cache, Err(e), mode),
        };
        let spec = run.entry.origin.as_ref().and_then(|o| o.opt.spec);
        let mut done = Finished {
            computed: Some(spec.unwrap_or_default()),
            ..Finished::plain(cache, Ok(UnitSuccess::of(&run.entry, &f.name)), mode)
        };
        if let Some((state, stats)) = run.retained.take() {
            done.mode = match (prev.is_some(), stats.full_fallback) {
                (false, _) => IncrementalMode::Fresh,
                (true, true) => IncrementalMode::Fallback,
                (true, false) => IncrementalMode::Delta,
            };
            if done.mode == IncrementalMode::Delta {
                self.incremental_hits += 1;
                self.delta_blocks_resolved += stats.delta_blocks_resolved as u64;
            }
            if prev.is_some() {
                self.edit_classes.note(&stats);
            }
            self.phases.solve_ns += run.phases.solve_ns;
            self.phases.tail_ns += run.phases.tail_ns;
            (done.stats, done.phases) = (stats, run.phases);
            let prev = PrevSolve {
                key: work
                    .key
                    .expect("the plan step fingerprints incremental units"),
                state,
                output_text: run.entry.output_text.clone(),
                opts_tag: surface.retained.unwrap_or_default().to_string(),
            };
            let placement = self.opts.placement;
            let span = unit
                .span
                .map(|text| SpanMemo::new(placement, text.into_owned().into(), unit.profile));
            self.retained
                .insert(f.name.clone(), Retained { prev, span });
        }
        if let (true, Some(key)) = (surface.cache, work.key) {
            self.cache.insert(key, run.entry);
        }
        done
    }
}
