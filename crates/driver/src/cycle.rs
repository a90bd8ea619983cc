//! The per-unit cycle every surface runs: batch ([`BatchEngine::run`]),
//! watch ([`BatchEngine::run_module_incremental`]) and the serve daemon.
//!
//! A unit passes through three steps:
//!
//! 1. **plan** ([`BatchEngine::plan`], sequential): the span memo, `verify`,
//!    the one profile → weights → context resolution, and then one choice —
//!    the retained state, for an unweighted unit of a retaining surface
//!    whose name has one; otherwise the plan cache, when the surface has
//!    one; otherwise a compute;
//! 2. **work** ([`Work::run`]), which borrows no engine state: the unit
//!    pipeline around the one checked PRE call
//!    ([`lcm_core::optimize_checked`], which decides between a one-shot, a
//!    fresh and a delta solve), or the re-validation of a cache hit. Watch
//!    runs it inline, the daemon with the engine lock released, batch on
//!    the pool;
//! 3. **finish** ([`BatchEngine::finish`], sequential): the ledger,
//!    retention, cache fill and quarantine.
//!
//! The plan cache has one hit rule, the one [`CacheEntry`] documents: every
//! hit is re-validated at the fast tier, whatever the validation tier.

use std::borrow::Cow;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;

use lcm_core::{
    EdgeWeights, IncrementalState, IncrementalStats, OptimizeBudget, PreAlgorithm, Session,
    SpecStats,
};
use lcm_ir::{verify, Function, Profile};

use crate::{
    cache, fingerprint_with_context, isolate, optimize_unit, revalidate_entry, BatchEngine,
    BatchOptions, BatchUnit, CacheDisposition, CacheEntry, FailureKind, IncrementalMode,
    IncrementalUnit, Retained, SpanMemo, UnitError, UnitRun, UnitSuccess,
};

/// What a surface lets the plan step use for one unit.
#[derive(Clone, Copy)]
pub(crate) struct Surface {
    /// Whether retained state and the span memo may answer the unit
    /// (watch, and the daemon's unbudgeted units; not batch, not budgeted
    /// units).
    pub(crate) retain: bool,
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
    /// Work to run, with the unit's retained state to lend its session
    /// (always `None` in a batch), then finish.
    Work(Work, Option<Box<IncrementalState>>),
}

/// One unit's work: everything it needs, owned, so it can run with the
/// engine unlocked or on another thread.
pub(crate) struct Work {
    weights: Option<EdgeWeights>,
    context: String,
    /// The unit's fingerprint, when the plan step took one.
    key: Option<u128>,
    /// The cache hit to re-validate, snapshotted at planning time; the
    /// pipeline runs when there is none, or when a thin hit fails.
    hit: Option<Box<CacheEntry>>,
    /// What the plan step lends the call: a session that retains nothing
    /// (`OneShot`), or one that retains state, starting from none (`Fresh`)
    /// or from the unit's retained state (`Delta`).
    lent: IncrementalMode,
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
}

impl Finished {
    /// A unit with no delta accounting.
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
    /// Runs the work under `budget` on `session`, lent `prev` when the unit
    /// retains state; the session is one-shot again afterwards, whatever
    /// happened. A panic becomes a [`FailureKind::Panic`] unit error.
    pub(crate) fn run(
        &self,
        f: &Function,
        opts: &BatchOptions,
        budget: &OptimizeBudget,
        session: &mut Session,
        prev: Option<Box<IncrementalState>>,
    ) -> WorkOut {
        if let Some(entry) = &self.hit {
            let checked = isolate(AssertUnwindSafe(|| revalidate_entry(entry, opts.seed)));
            if checked.is_ok() || entry.origin.is_some() {
                return WorkOut::Served(checked);
            }
        }
        if self.lent != IncrementalMode::OneShot {
            session.retain(prev.map(|state| *state));
        }
        let (weights, context) = (self.weights.as_ref(), &self.context);
        let computed = isolate(AssertUnwindSafe(|| {
            optimize_unit(f, opts, weights, context, budget, session)
        }));
        let retained = session.release();
        WorkOut::Computed(computed.map(|run| Box::new(UnitRun { retained, ..run })))
    }
}

impl BatchEngine {
    /// The plan step. `dedupe` — a batch's unit index and its map from
    /// fingerprint to the first unit that has it — turns a later unit of
    /// the same fingerprint into a [`Plan::Replay`].
    pub(crate) fn plan(
        &mut self,
        unit: &UnitIn<'_>,
        surface: Surface,
        dedupe: Option<(usize, &mut HashMap<u128, usize>)>,
    ) -> Plan {
        let f = unit.function;
        if let (true, Some(span)) = (surface.retain, unit.span.as_deref()) {
            if let Some(done) = self.replay_span(f, span, unit.profile) {
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
        // Retained state first: a name with it is always answered by the
        // PRE call against it, except a weighted unit, solved one-shot, which
        // leaves the state for the next unweighted revision. Taking the
        // state drops its span memo: a span lives only beside its state.
        let retain = surface.retain && weights.is_none();
        let prev = retain
            .then(|| self.retained.remove(&f.name))
            .flatten()
            .map(|r| Box::new(r.state));
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
        }
        let lent = match (retain, &prev) {
            (false, _) => IncrementalMode::OneShot,
            (true, None) => IncrementalMode::Fresh,
            (true, Some(_)) => IncrementalMode::Delta,
        };
        let work = Work {
            weights,
            context,
            key,
            hit,
            lent,
        };
        Plan::Work(work, prev)
    }

    /// The span memo, before `verify` and the fingerprint: when `span`, the
    /// raw text of `f`'s `fn` section, is byte-identical to the section
    /// whose state is retained for `f`'s name and — under speculative
    /// placement — the profile is the same, the retained output is
    /// replayed and counted as a zero-dirty edit (DESIGN §13 says why that
    /// answer is the one a solve would give). An engine's options are
    /// fixed when it is built, so they cannot differ from the memo's.
    fn replay_span(
        &mut self,
        f: &Function,
        span: &str,
        profile: Option<&Profile>,
    ) -> Option<Finished> {
        let r = self.retained.get(&f.name)?;
        let memo = r.span.as_ref()?;
        let same_profile = match self.opts.placement {
            PreAlgorithm::LazyEdge => true,
            PreAlgorithm::Speculative => memo.profile.as_ref() == profile,
            _ => false,
        };
        if !same_profile || *memo.text != *span {
            return None;
        }
        let output = UnitSuccess {
            output: cache::with_name(&r.output_text, &f.name),
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

    /// The plan step, the work inline on `session`, and the finish step,
    /// back to back — for a surface that plans no replays.
    pub(crate) fn cycle(
        &mut self,
        unit: UnitIn<'_>,
        surface: Surface,
        budget: &OptimizeBudget,
        session: &mut Session,
    ) -> Finished {
        match self.plan(&unit, surface, None) {
            Plan::Done(done) => done,
            Plan::Work(work, prev) => {
                let out = work.run(unit.function, &self.opts, budget, session, prev);
                self.finish(unit, work, out, surface)
            }
            Plan::Replay { .. } => unreachable!("only a batch plans replays"),
        }
    }

    /// The finish step: quarantines a thin hit that failed re-validation
    /// (removed, counted, and its recompute served: disk corruption costs
    /// warmth, never correctness or availability); for a unit whose call
    /// retained state, classifies it, counts it in the delta and
    /// edit-class ledgers and the phase totals, and retains its fixpoints
    /// and output — with the unit's span memo, if it came from module
    /// text — for the next revision; and fills the plan cache.
    pub(crate) fn finish(
        &mut self,
        unit: UnitIn<'_>,
        work: Work,
        out: WorkOut,
        surface: Surface,
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
        let run = match computed {
            Ok(run) => *run,
            Err(e) => {
                let mode = match work.lent {
                    IncrementalMode::OneShot => IncrementalMode::OneShot,
                    _ => IncrementalMode::Fresh,
                };
                return Finished::plain(cache, Err(e), mode);
            }
        };
        let spec = run.entry.origin.as_ref().and_then(|o| o.opt.spec);
        let mode = IncrementalMode::OneShot;
        let mut done = Finished {
            computed: Some(spec.unwrap_or_default()),
            ..Finished::plain(cache, Ok(UnitSuccess::of(&run.entry, &f.name)), mode)
        };
        if let Some((state, stats)) = run.retained {
            done.mode = match (work.lent, stats.full_fallback) {
                (IncrementalMode::Delta, true) => IncrementalMode::Fallback,
                (lent, _) => lent,
            };
            if done.mode == IncrementalMode::Delta {
                self.incremental_hits += 1;
                self.delta_blocks_resolved += stats.delta_blocks_resolved as u64;
            }
            if work.lent == IncrementalMode::Delta {
                self.edit_classes.note(&stats);
            }
            self.phases.solve_ns += run.phases.solve_ns;
            self.phases.tail_ns += run.phases.tail_ns;
            done.stats = stats;
            let placement = self.opts.placement;
            let span = unit
                .span
                .map(|text| SpanMemo::new(placement, text.into_owned().into(), unit.profile));
            let retained = Retained {
                state,
                output_text: run.entry.output_text.clone(),
                span,
            };
            self.retained.insert(f.name.clone(), retained);
        }
        // A unit answered against retained state skipped the cache lookup,
        // so it has no key yet: hash the canonical input its pipeline
        // printed.
        if surface.cache {
            let key = work
                .key
                .unwrap_or_else(|| cache::key_of(&run.entry.canonical_input));
            self.cache.insert(key, run.entry);
        }
        done
    }
}
