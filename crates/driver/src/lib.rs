//! # lcm-driver — the parallel batch-optimization engine
//!
//! Every other entry point in the workspace handles one function at a time.
//! This crate drives a whole [`Module`] (or a directory of `.lcm` files)
//! through the checked LCM pipeline:
//!
//! * **Sharding** — functions are fanned out over a work-stealing pool of
//!   scoped `std::thread` workers ([`pool::run_indexed`]); results are
//!   collected by function index, never by completion order.
//! * **Isolation** — each function runs inside `catch_unwind` with its
//!   input verified first, so a malformed or pipeline-crashing function
//!   fails *its unit* and the rest of the batch completes.
//! * **Caching** — a content-addressed [`PlanCache`] keyed by the
//!   canonically-printed function body means duplicate functions across a
//!   corpus are optimized once; cached plans are **re-validated** on hit,
//!   so a corrupted cache degrades to a unit failure, not to wrong code.
//! * **Determinism** — cache lookups, cache insertions and report assembly
//!   are sequential in function order; only the pipeline runs themselves
//!   are parallel. The rendered output and aggregated statistics are
//!   byte-identical for every thread count (asserted in
//!   `tests/determinism.rs` and by `ci.sh`'s batch smoke stage).
//!
//! # Example
//!
//! ```
//! use lcm_driver::{BatchEngine, BatchOptions};
//!
//! let m = lcm_ir::parse_module(
//!     "fn a {\nentry:\n  x = p + q\n  obs x\n  ret\n}\n\n\
//!      fn b {\nentry:\n  x = p + q\n  obs x\n  ret\n}",
//! )?;
//! let mut engine = BatchEngine::new(BatchOptions::default());
//! let result = engine.run_module(&m);
//! assert_eq!(result.totals.ok, 2);
//! // `b` is `a` with different names — optimized once, served from cache.
//! assert_eq!(result.totals.cache.hits, 1);
//! # Ok::<(), lcm_ir::ParseError>(())
//! ```

pub mod pool;
pub mod report;

pub mod protocol;
pub mod serve;

mod cache;
mod load;
mod persist;

pub use cache::{
    canonical_text, fingerprint, fingerprint_key, fingerprint_with_context, CacheEntry, CacheStats,
    ComputedOrigin, PlanCache, CANONICAL_NAME,
};
pub use load::{load_units, text_from_bytes, LoadError};
pub use persist::{
    corrupt_sidecar, load_cache, load_or_quarantine, save_cache, tmp_path, CacheFileError,
    LifetimeCounters, LoadStatus, CACHE_FORMAT_VERSION, CACHE_MAGIC, STATS_MAGIC,
};

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lcm_core::transform::TransformStats;
use lcm_core::validate::{sample_inputs, validate_optimized, ValidationLevel};
use lcm_core::{
    optimize_checked, optimize_incremental_checked_with, passes, EdgeWeights, IncrementalState,
    IncrementalStats, OptimizeBudget, PhaseNanos, PipelineError, PipelineStats, PreAlgorithm,
    SpecStats,
};
use lcm_dataflow::{SolveStrategy, SolverScratch};
use lcm_ir::{parse_function, verify, Function, Module, Profile};

/// How a batch run is configured.
#[derive(Clone, Copy, Debug)]
pub struct BatchOptions {
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// The PRE placement each unit runs.
    /// [`PreAlgorithm::Speculative`] consumes the unit's edge profile;
    /// units without a (resolvable) profile fall back to
    /// [`PreAlgorithm::LazyEdge`] — there is no frequency information to
    /// speculate on — and share cache entries with plain LCM runs.
    pub placement: PreAlgorithm,
    /// Validation tier for computed units; cache hits are re-validated at
    /// the fast tier whenever this is not [`ValidationLevel::Off`].
    pub validate: ValidationLevel,
    /// Seed for the validator's differential execution.
    pub seed: u64,
    /// Whether the plan cache is consulted and filled.
    pub use_cache: bool,
    /// Plan-cache capacity in entries; `0` means unbounded.
    pub cache_capacity: usize,
    /// Which fixpoint solver the fused pipeline runs. Every strategy
    /// reaches the same fixpoints, so this never changes any output — only
    /// the solver cost counters.
    pub strategy: SolveStrategy,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 0,
            placement: PreAlgorithm::LazyEdge,
            validate: ValidationLevel::Fast,
            seed: 0x1c3a_57ed,
            use_cache: true,
            cache_capacity: 4096,
            strategy: SolveStrategy::default(),
        }
    }
}

/// One function to optimize, with its provenance for reporting.
#[derive(Clone, Debug)]
pub struct BatchUnit {
    /// The file the function came from, if any.
    pub file: Option<String>,
    /// The function itself.
    pub function: Function,
    /// The function's edge profile, if its module carried one. Consulted
    /// only under [`PreAlgorithm::Speculative`].
    pub profile: Option<Profile>,
}

/// Why a unit failed. The batch itself never fails; these are per-unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The input function failed structural verification.
    InvalidInput,
    /// The checked pipeline returned a typed [`lcm_core::PipelineError`].
    Pipeline,
    /// The cleanup passes produced IR that fails verification.
    InvalidOutput,
    /// The pipeline panicked; the panic was caught and contained.
    Panic,
    /// A cached plan failed re-validation on hit (cache corruption).
    PoisonedCache,
    /// The unit exceeded its [`OptimizeBudget`] (deadline/fuel/cancel flag)
    /// and was abandoned at a pipeline stage boundary.
    Cancelled,
}

impl FailureKind {
    /// A short stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::InvalidInput => "invalid-input",
            FailureKind::Pipeline => "pipeline",
            FailureKind::InvalidOutput => "invalid-output",
            FailureKind::Panic => "panic",
            FailureKind::PoisonedCache => "poisoned-cache",
            FailureKind::Cancelled => "cancelled",
        }
    }
}

/// A unit failure: what kind, and the underlying message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnitError {
    /// The failure class.
    pub kind: FailureKind,
    /// The underlying error or panic message.
    pub message: String,
}

/// A successfully optimized unit.
#[derive(Clone, Debug)]
pub struct UnitSuccess {
    /// The optimized function, printed under the unit's own name.
    pub output: String,
    /// Solver statistics of the fused pipeline run (cached runs report the
    /// statistics recorded when the entry was built).
    pub pipeline: PipelineStats,
    /// Rewrite counters.
    pub transform: TransformStats,
    /// Validator checks run **for this unit in this batch** — zero for a
    /// duplicate replayed from a leader computed moments earlier.
    pub validation_checks: usize,
    /// Differential inputs sampled for this unit in this batch.
    pub inputs_sampled: usize,
}

/// The outcome of one unit.
#[derive(Clone, Debug)]
pub enum UnitOutcome {
    /// Optimized (possibly from cache) and validated.
    Ok(UnitSuccess),
    /// Failed; the rest of the batch is unaffected.
    Failed(UnitError),
}

/// How the cache participated in a unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheDisposition {
    /// The cache was off.
    Uncached,
    /// A pipeline run produced (and cached) the result.
    Computed,
    /// Served from the cache — a prior batch's entry or an intra-batch
    /// duplicate's leader.
    Hit,
}

impl CacheDisposition {
    /// A short stable name, used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CacheDisposition::Uncached => "uncached",
            CacheDisposition::Computed => "computed",
            CacheDisposition::Hit => "hit",
        }
    }
}

/// Everything the driver has to say about one unit.
#[derive(Clone, Debug)]
pub struct UnitReport {
    /// The function's name.
    pub name: String,
    /// The file it came from, if any.
    pub file: Option<String>,
    /// How the cache participated.
    pub cache: CacheDisposition,
    /// What happened.
    pub outcome: UnitOutcome,
}

/// Deterministic aggregates over a batch.
///
/// Wall-clock numbers are deliberately absent: everything here is a pure
/// function of the input module and the cache state, so it is identical
/// for every `--jobs` value. Timing belongs on stderr.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct BatchTotals {
    /// Units in the batch.
    pub functions: usize,
    /// Units that optimized successfully.
    pub ok: usize,
    /// Units that failed.
    pub failed: usize,
    /// Units that ran the pipeline (as opposed to hitting the cache).
    pub computed: usize,
    /// Merged solver statistics over computed units.
    pub pipeline: PipelineStats,
    /// Merged rewrite counters over computed units.
    pub transform: TransformStats,
    /// Merged speculative-planner counters over computed units (all zero
    /// unless the batch ran [`PreAlgorithm::Speculative`]).
    pub spec: SpecStats,
    /// Validator checks run in this batch (computed units plus cache-hit
    /// re-validations).
    pub validation_checks: usize,
    /// Differential inputs sampled in this batch.
    pub inputs_sampled: usize,
    /// Cache counters — cumulative for the engine, so a second batch on
    /// the same engine sees the first batch's entries.
    pub cache: CacheStats,
    /// Live cache entries after the batch.
    pub cache_entries: usize,
    /// Lifetime cache counters (persisted footer + this process), present
    /// only when the engine is backed by a cache file.
    pub lifetime: Option<LifetimeCounters>,
}

/// The result of one batch run.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-unit reports, in input order.
    pub units: Vec<UnitReport>,
    /// Deterministic aggregates.
    pub totals: BatchTotals,
}

/// How phase 1 decided to handle a unit. Planning is sequential and in
/// input order, so the decisions — and every cache counter — are
/// independent of the thread count.
enum UnitPlan {
    /// Input verification failed.
    Invalid(UnitError),
    /// Run the pipeline; cache under `key` if the cache is on.
    Compute { key: Option<u128> },
    /// Intra-batch duplicate of the unit at `leader` (which computes).
    Replay { leader: usize },
    /// Already cached. The reporting fields are snapshotted at planning
    /// time so later insertions (and their evictions) cannot disturb them.
    Hit {
        key: u128,
        output_text: String,
        pipeline: PipelineStats,
        transform: TransformStats,
    },
}

/// One parallel job: run a unit's pipeline, or re-validate a cached entry.
enum Job {
    Compute(usize),
    Revalidate(u128),
}

/// What a parallel job produced. The computed entry is boxed: it is two
/// orders of magnitude bigger than the revalidation counters.
enum JobOut {
    Computed(usize, Result<Box<CacheEntry>, UnitError>),
    Revalidated(u128, Result<(usize, usize), UnitError>),
}

/// The durable-cache half of an engine: where the cache file lives, the
/// counters it carried when loaded, and how the load went.
#[derive(Debug)]
struct PersistState {
    path: std::path::PathBuf,
    base: LifetimeCounters,
    status: LoadStatus,
}

/// The retained fixpoint for one function name — what the incremental hot
/// path ([`BatchEngine::run_module_incremental`] and the serve daemon)
/// delta-solves against on the next edit of the same function, tagged
/// with the cache fingerprint of the input it was computed from so
/// staleness is detectable.
#[derive(Debug)]
pub struct PrevSolve {
    /// Fingerprint (with placement context) of the pre-LCSE input the
    /// state was computed from.
    pub key: u128,
    /// The retained universe, local predicates, and AVAIL/ANTIC/LATER
    /// fixpoints over the post-LCSE canonical function.
    pub state: IncrementalState,
    /// The canonical printed output the state produced — the zero-dirty
    /// memo. A revision whose fingerprint equals `key` under the same
    /// `opts_tag` replays this text verbatim, skipping plan, rewrite,
    /// validation, and printing entirely.
    pub output_text: String,
    /// Fingerprint of every output-affecting engine option
    /// ([`options_tag`]) at the time the memo was recorded. Any placement,
    /// validation, seed, or solver change invalidates the memo — the next
    /// revision recomputes even on identical input.
    pub opts_tag: String,
}

/// The output-affecting option fingerprint a [`PrevSolve`] memo is keyed
/// under. Deliberately includes the validation tier and seed even though
/// they cannot change the output text: a flag change must force a real
/// run, never a memo replay recorded under different settings.
pub fn options_tag(opts: &BatchOptions) -> String {
    format!(
        "{}|{:?}|{:#x}|{:?}",
        opts.placement.name(),
        opts.validate,
        opts.seed,
        opts.strategy
    )
}

/// Per-class counts of what the edits a daemon or watch session saw
/// actually were — the honest ledger behind any "delta path" speedup
/// claim. One class per revision-with-retained-state, by priority:
/// zero-dirty (memo replay), fallback, shape-mapped, universe-grow,
/// universe-shrink, plain content.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct EditClassCounters {
    /// Same-shape, same-universe content edits answered by a delta solve.
    pub content: u64,
    /// Edits that grew the expression universe (columns widened in place).
    pub universe_grow: u64,
    /// Edits that shrank the universe (columns remapped).
    pub universe_shrink: u64,
    /// One-block shape edits mapped onto the delta path (rows permuted).
    pub shape_mapped: u64,
    /// Edits beyond the mapped shapes: the full-solve fallback.
    pub fallback: u64,
    /// Identical revisions answered by the output memo with no solve at
    /// all.
    pub zero_dirty: u64,
}

impl EditClassCounters {
    /// Classifies one non-memo revision that had retained state.
    fn note(&mut self, stats: &IncrementalStats) {
        if stats.full_fallback {
            self.fallback += 1;
        } else if stats.shape_mapped {
            self.shape_mapped += 1;
        } else if stats.universe_grew {
            self.universe_grow += 1;
        } else if stats.universe_shrunk {
            self.universe_shrink += 1;
        } else {
            self.content += 1;
        }
    }

    /// Total classified revisions.
    pub fn total(&self) -> u64 {
        self.content
            + self.universe_grow
            + self.universe_shrink
            + self.shape_mapped
            + self.fallback
            + self.zero_dirty
    }
}

impl fmt::Display for EditClassCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} content, {} universe-grow, {} universe-shrink, \
             {} shape-mapped, {} fallback, {} zero-dirty",
            self.content,
            self.universe_grow,
            self.universe_shrink,
            self.shape_mapped,
            self.fallback,
            self.zero_dirty
        )
    }
}

/// Which path answered one unit of
/// [`BatchEngine::run_module_incremental`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IncrementalMode {
    /// First sight of this function name: solved fresh, fixpoints now
    /// retained for its next revision.
    Fresh,
    /// Delta-solved against the retained fixpoints — only the SCC
    /// components the edit can reach were re-solved.
    Delta,
    /// Retained state existed, but the CFG shape changed beyond the mapped
    /// edits, forcing the full-solve fallback (the state was refreshed
    /// either way).
    Fallback,
    /// The revision is byte-identical (same fingerprint, same options) to
    /// the one the retained state answered: the output memo was replayed
    /// with no solve, rewrite, validation, or printing work at all.
    ZeroDirty,
    /// The placement is not [`incremental_eligible`]; the unit ran the
    /// ordinary one-shot pipeline with no state retention.
    OneShot,
}

impl IncrementalMode {
    /// Short lowercase label for stats lines (`fresh`, `delta`, ...).
    pub fn name(self) -> &'static str {
        match self {
            IncrementalMode::Fresh => "fresh",
            IncrementalMode::Delta => "delta",
            IncrementalMode::Fallback => "fallback",
            IncrementalMode::ZeroDirty => "zero-dirty",
            IncrementalMode::OneShot => "one-shot",
        }
    }
}

/// One function's outcome from [`BatchEngine::run_module_incremental`],
/// in module order.
#[derive(Debug)]
pub struct IncrementalUnit {
    /// The function's name.
    pub name: String,
    /// The optimized function text (name restored, byte-identical to the
    /// batch pipeline's output), or the typed unit failure.
    pub outcome: Result<String, UnitError>,
    /// Which path answered it.
    pub mode: IncrementalMode,
    /// Delta accounting; all-default unless `mode` is
    /// [`IncrementalMode::Delta`] or [`IncrementalMode::Fallback`].
    pub stats: IncrementalStats,
    /// Block count of the input — the yardstick for
    /// `stats.delta_blocks_resolved` (a from-scratch solve pays one row
    /// per block in each of the three analyses, i.e. `3 * blocks`).
    pub blocks: usize,
    /// Wall-clock split of this unit's work into the solve phase (LCSE +
    /// fixpoints) and the tail (plan, rewrite, cleanup passes,
    /// validation, print). Both zero for a memo replay — that is the
    /// point.
    pub phases: PhaseNanos,
}

/// The batch engine: a [`BatchOptions`] plus a [`PlanCache`] that persists
/// across [`BatchEngine::run`] calls — and, when opened with
/// [`BatchEngine::with_cache_file`], across processes.
#[derive(Debug)]
pub struct BatchEngine {
    opts: BatchOptions,
    cache: PlanCache,
    persisted: Option<PersistState>,
    /// Per-function-name retained fixpoints for the incremental hot path.
    /// An entry is replaced on every re-optimization of its function and
    /// lives until the process exits; the map is bounded by the number of
    /// distinct function names a daemon serves.
    prev_solves: HashMap<String, PrevSolve>,
    /// Session increments of [`LifetimeCounters::incremental_hits`] and
    /// [`LifetimeCounters::delta_blocks_resolved`] (no [`CacheStats`] twin).
    incremental_hits: u64,
    delta_blocks_resolved: u64,
    /// Per-class edit ledger for this process's incremental revisions.
    edit_classes: EditClassCounters,
    /// Accumulated solve/tail wall-clock over this process's incremental
    /// units (memo replays contribute nothing — again, the point).
    phases: PhaseNanos,
}

impl BatchEngine {
    /// Creates an engine with an empty cache.
    pub fn new(opts: BatchOptions) -> Self {
        BatchEngine {
            cache: PlanCache::new(opts.cache_capacity),
            opts,
            persisted: None,
            prev_solves: HashMap::new(),
            incremental_hits: 0,
            delta_blocks_resolved: 0,
            edit_classes: EditClassCounters::default(),
            phases: PhaseNanos::default(),
        }
    }

    /// Creates an engine backed by the `lcm-cache-v1` file at `path`: a
    /// valid file starts the cache warm (with thin, re-validated-on-hit
    /// entries), a missing file starts it cold, and a corrupt file is
    /// quarantined to a `.corrupt` sidecar and the cache starts cold.
    /// Inspect [`BatchEngine::load_status`] for which happened. Nothing is
    /// written back until [`BatchEngine::flush_cache_file`].
    pub fn with_cache_file(opts: BatchOptions, path: &std::path::Path) -> Self {
        let (cache, base, status) = persist::load_or_quarantine(path, opts.cache_capacity);
        BatchEngine {
            cache,
            opts,
            persisted: Some(PersistState {
                path: path.to_path_buf(),
                base,
                status,
            }),
            prev_solves: HashMap::new(),
            incremental_hits: 0,
            delta_blocks_resolved: 0,
            edit_classes: EditClassCounters::default(),
            phases: PhaseNanos::default(),
        }
    }

    /// How the backing cache file loaded; `None` for an in-memory engine.
    pub fn load_status(&self) -> Option<&LoadStatus> {
        self.persisted.as_ref().map(|p| &p.status)
    }

    /// Lifetime cache counters — the persisted footer's totals plus this
    /// process's session; `None` for an in-memory engine.
    pub fn lifetime(&self) -> Option<LifetimeCounters> {
        self.persisted.as_ref().map(|p| self.session_totals(p.base))
    }

    /// `base` plus everything this process has counted so far.
    fn session_totals(&self, base: LifetimeCounters) -> LifetimeCounters {
        let mut l = base.plus_session(self.cache.stats());
        l.incremental_hits += self.incremental_hits;
        l.delta_blocks_resolved += self.delta_blocks_resolved;
        let e = &self.edit_classes;
        l.zero_dirty_hits += e.zero_dirty;
        l.content_edits += e.content;
        l.universe_grow_edits += e.universe_grow;
        l.universe_shrink_edits += e.universe_shrink;
        l.shape_mapped_edits += e.shape_mapped;
        l.fallback_edits += e.fallback;
        l
    }

    /// Removes and returns the retained fixpoint for `name`, if any. The
    /// take/put split (instead of borrowing in place) lets a daemon worker
    /// release the engine lock while it delta-solves; a concurrent unit of
    /// the same name simply finds no state and solves fresh.
    pub fn take_prev_solve(&mut self, name: &str) -> Option<PrevSolve> {
        self.prev_solves.remove(name)
    }

    /// Retains `prev` as the fixpoint to delta-solve `name`'s next
    /// revision against, replacing any earlier state for that name.
    pub fn put_prev_solve(&mut self, name: &str, prev: PrevSolve) {
        self.prev_solves.insert(name.to_string(), prev);
    }

    /// Retained fixpoint entries currently held.
    pub fn prev_solves_len(&self) -> usize {
        self.prev_solves.len()
    }

    /// This process's incremental counters so far:
    /// `(incremental_hits, delta_blocks_resolved)`.
    pub fn incremental_session(&self) -> (u64, u64) {
        (self.incremental_hits, self.delta_blocks_resolved)
    }

    /// This process's per-class edit ledger so far.
    pub fn edit_classes(&self) -> EditClassCounters {
        self.edit_classes
    }

    /// Accumulated solve/tail wall-clock over this process's incremental
    /// units.
    pub fn incremental_phases(&self) -> PhaseNanos {
        self.phases
    }

    /// Counts a quarantined *entry*: a persisted entry that failed
    /// hit-revalidation and was removed (the daemon's recovery path).
    /// No-op for an in-memory engine.
    pub fn note_entry_quarantine(&mut self) {
        if let Some(p) = &mut self.persisted {
            p.base.quarantines += 1;
        }
    }

    /// Durably writes the cache (and lifetime counters) back to the
    /// backing file — atomic temp-then-rename, see [`save_cache`]. No-op
    /// without a backing file.
    ///
    /// # Errors
    ///
    /// Any I/O error from [`save_cache`].
    pub fn flush_cache_file(&self) -> std::io::Result<()> {
        let Some(p) = &self.persisted else {
            return Ok(());
        };
        persist::save_cache(&p.path, &self.cache, self.session_totals(p.base))
    }

    /// The configuration.
    pub fn options(&self) -> &BatchOptions {
        &self.opts
    }

    /// The plan cache (counters, size).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Mutable access to the cache — for fault injection and tests; the
    /// normal driver path never needs it.
    pub fn cache_mut(&mut self) -> &mut PlanCache {
        &mut self.cache
    }

    /// Optimizes every function of `m` as one batch.
    pub fn run_module(&mut self, m: &Module) -> BatchResult {
        self.run(
            m.iter()
                .map(|f| BatchUnit {
                    file: None,
                    profile: m.profile(&f.name).cloned(),
                    function: f.clone(),
                })
                .collect(),
        )
    }

    /// Optimizes every function of `m` through the incremental hot path,
    /// sequentially and in module order. Each unit runs one incremental
    /// cycle: fingerprint, then either the zero-dirty memo replay or a
    /// solve against the retained fixpoints ([`PrevSolve`]) — a delta, a
    /// fresh solve on first sight, or the full fallback past the mapped
    /// shape edits — then the ledger, the retained state and the plan
    /// cache are updated. Functions whose placement is not
    /// [`incremental_eligible`] run the one-shot pipeline instead.
    ///
    /// Per-unit output text is byte-identical to [`BatchEngine::run_module`]
    /// for the same input and options, at every placement and validation
    /// tier (pinned by `tests/watch.rs`). This is the `lcmopt watch`
    /// engine; the serve daemon runs the same cycle through the same engine
    /// helpers, unlocking the engine while it solves, and keeps the same
    /// ledger (pinned by `tests/serve_determinism.rs`).
    pub fn run_module_incremental(&mut self, m: &Module) -> Vec<IncrementalUnit> {
        let mut scratch = SolverScratch::new();
        let opts_tag = options_tag(&self.opts);
        m.iter()
            .map(|f| self.incremental_unit(f, m.profile(&f.name), &opts_tag, &mut scratch))
            .collect()
    }

    fn incremental_unit(
        &mut self,
        f: &Function,
        profile: Option<&Profile>,
        opts_tag: &str,
        scratch: &mut SolverScratch,
    ) -> IncrementalUnit {
        if let Err(e) = verify(f) {
            let err = UnitError {
                kind: FailureKind::InvalidInput,
                message: e.to_string(),
            };
            return unaccounted_unit(f, Err(err), IncrementalMode::OneShot);
        }
        let weights = if self.opts.placement == PreAlgorithm::Speculative {
            profile.and_then(|p| EdgeWeights::from_profile(f, p).ok())
        } else {
            None
        };
        let context = unit_context(self.opts.placement, weights.as_ref());
        if !incremental_eligible(self.opts.placement, weights.as_ref()) {
            let budget = OptimizeBudget::unlimited();
            let step = PreStep::OneShot(&budget);
            let computed = isolate(AssertUnwindSafe(|| {
                optimize_unit(f, &self.opts, weights.as_ref(), &context, step, scratch)
            }));
            let outcome = computed.map(|run| cache::with_name(&run.entry.output_text, &f.name));
            return unaccounted_unit(f, outcome, IncrementalMode::OneShot);
        }
        let key = fingerprint_key(f, &context);
        if let Some(replayed) = self.replay_memo(f, key, opts_tag) {
            return replayed;
        }
        let prev = self.take_prev_solve(&f.name);
        let step = PreStep::Incremental(prev.as_ref().map(|p| &p.state));
        let computed = isolate(AssertUnwindSafe(|| {
            optimize_unit(f, &self.opts, None, &context, step, scratch)
        }));
        self.finish_incremental(f, key, opts_tag, prev.is_some(), computed)
    }

    /// The zero-dirty memo, the first step of the incremental cycle: when
    /// the state retained for `f`'s name answered exactly this revision
    /// (fingerprint `key`) under the current options (`opts_tag`, the
    /// engine's [`options_tag`]), its output is replayed with no solve,
    /// rewrite, validation, or printing at all, and the replay is counted
    /// in the edit ledger. A *dirty* function can never match — the
    /// fingerprint covers the whole canonical body — and an option change
    /// invalidates via the tag.
    fn replay_memo(&mut self, f: &Function, key: u128, opts_tag: &str) -> Option<IncrementalUnit> {
        let p = self.prev_solves.get(&f.name)?;
        if p.key != key || p.opts_tag != opts_tag {
            return None;
        }
        let output = cache::with_name(&p.output_text, &f.name);
        self.edit_classes.zero_dirty += 1;
        Some(unaccounted_unit(f, Ok(output), IncrementalMode::ZeroDirty))
    }

    /// The last step of the incremental cycle, after the solve (which a
    /// daemon runs with the engine unlocked): classifies the unit, counts
    /// it in the delta and edit-class ledgers and the phase totals,
    /// retains its fixpoints and output memo under `key` and `opts_tag` for
    /// the next revision, and fills the plan cache. `had_prev` says whether
    /// the solve ran against retained state.
    fn finish_incremental(
        &mut self,
        f: &Function,
        key: u128,
        opts_tag: &str,
        had_prev: bool,
        computed: Result<UnitRun, UnitError>,
    ) -> IncrementalUnit {
        let run = match computed {
            Ok(run) => run,
            Err(e) => return unaccounted_unit(f, Err(e), IncrementalMode::Fresh),
        };
        let (state, stats) = run
            .retained
            .expect("the incremental step retains its fixpoints");
        let mode = match (had_prev, stats.full_fallback) {
            (false, _) => IncrementalMode::Fresh,
            (true, true) => IncrementalMode::Fallback,
            (true, false) => IncrementalMode::Delta,
        };
        if mode == IncrementalMode::Delta {
            self.incremental_hits += 1;
            self.delta_blocks_resolved += stats.delta_blocks_resolved as u64;
        }
        if had_prev {
            self.edit_classes.note(&stats);
        }
        self.phases.solve_ns += run.phases.solve_ns;
        self.phases.tail_ns += run.phases.tail_ns;
        let output = cache::with_name(&run.entry.output_text, &f.name);
        let prev = PrevSolve {
            key,
            state,
            output_text: run.entry.output_text.clone(),
            opts_tag: opts_tag.to_string(),
        };
        self.put_prev_solve(&f.name, prev);
        if self.opts.use_cache {
            self.cache.insert(key, run.entry);
        }
        IncrementalUnit {
            name: f.name.clone(),
            outcome: Ok(output),
            mode,
            stats,
            blocks: f.num_blocks(),
            phases: run.phases,
        }
    }

    /// Optimizes `units` as one batch. See the crate docs for the phase
    /// structure; the short version is *plan sequentially, compute in
    /// parallel, assemble sequentially*.
    pub fn run(&mut self, units: Vec<BatchUnit>) -> BatchResult {
        let threads = resolve_jobs(self.opts.jobs);

        // Resolve profiles to edge weights up front (sequentially, so a
        // malformed profile degrades identically for every thread count).
        // `None` means "run plain LCM": either the batch isn't speculative,
        // or this unit has no resolvable profile to speculate on.
        let weights: Vec<Option<EdgeWeights>> = units
            .iter()
            .map(|u| {
                if self.opts.placement == PreAlgorithm::Speculative {
                    u.profile
                        .as_ref()
                        .and_then(|p| EdgeWeights::from_profile(&u.function, p).ok())
                } else {
                    None
                }
            })
            .collect();
        let contexts: Vec<String> = weights
            .iter()
            .map(|w| unit_context(self.opts.placement, w.as_ref()))
            .collect();

        // Phase 1 — sequential planning in input order: verify inputs,
        // consult the cache, pick one leader per distinct new fingerprint.
        let mut plans: Vec<UnitPlan> = Vec::with_capacity(units.len());
        let mut leader_of: HashMap<u128, usize> = HashMap::new();
        for (i, unit) in units.iter().enumerate() {
            if let Err(e) = verify(&unit.function) {
                plans.push(UnitPlan::Invalid(UnitError {
                    kind: FailureKind::InvalidInput,
                    message: e.to_string(),
                }));
                continue;
            }
            if !self.opts.use_cache {
                plans.push(UnitPlan::Compute { key: None });
                continue;
            }
            let (key, text) = fingerprint_with_context(&unit.function, &contexts[i]);
            if let Some(entry) = self.cache.get(key, &text) {
                let plan = UnitPlan::Hit {
                    key,
                    output_text: entry.output_text.clone(),
                    pipeline: entry.pipeline,
                    transform: entry.transform,
                };
                self.cache.note_hit();
                plans.push(plan);
            } else if let Some(&leader) = leader_of.get(&key) {
                self.cache.note_hit();
                plans.push(UnitPlan::Replay { leader });
            } else {
                self.cache.note_miss();
                leader_of.insert(key, i);
                plans.push(UnitPlan::Compute { key: Some(key) });
            }
        }

        // Phase 2 — the parallel part: pipeline runs for every planned
        // compute, plus one fast-tier re-validation per distinct cache hit.
        let mut jobs: Vec<Job> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if matches!(plan, UnitPlan::Compute { .. }) {
                jobs.push(Job::Compute(i));
            }
        }
        if self.opts.validate != ValidationLevel::Off {
            let mut seen: Vec<u128> = Vec::new();
            for plan in &plans {
                if let UnitPlan::Hit { key, .. } = plan {
                    if !seen.contains(key) {
                        seen.push(*key);
                        jobs.push(Job::Revalidate(*key));
                    }
                }
            }
        }

        let cache = &self.cache;
        let opts = self.opts;
        // One SolverScratch per worker, reused across every function that
        // worker computes: O(threads) solver arenas per batch instead of
        // O(functions × analyses × blocks) transient allocations.
        let outs: Vec<JobOut> = pool::run_indexed_with(
            threads,
            jobs.len(),
            SolverScratch::new,
            |scratch, j| match jobs[j] {
                Job::Compute(i) => JobOut::Computed(
                    i,
                    isolate(AssertUnwindSafe(|| {
                        let budget = OptimizeBudget::unlimited();
                        optimize_unit(
                            &units[i].function,
                            &opts,
                            weights[i].as_ref(),
                            &contexts[i],
                            PreStep::OneShot(&budget),
                            scratch,
                        )
                        .map(|run| Box::new(run.entry))
                    })),
                ),
                Job::Revalidate(key) => {
                    let entry = cache
                        .entry_ref(key)
                        .expect("planned hit entries outlive phase 2");
                    JobOut::Revalidated(
                        key,
                        isolate(AssertUnwindSafe(|| revalidate_entry(entry, opts.seed))),
                    )
                }
            },
        );

        let mut computed: HashMap<usize, Result<Box<CacheEntry>, UnitError>> = HashMap::new();
        let mut revalidated: HashMap<u128, Result<(usize, usize), UnitError>> = HashMap::new();
        for out in outs {
            match out {
                JobOut::Computed(i, r) => {
                    computed.insert(i, r);
                }
                JobOut::Revalidated(key, r) => {
                    revalidated.insert(key, r);
                }
            }
        }

        // Phase 3 — sequential assembly in input order. Cache insertions
        // happen here, in input order, so the eviction sequence is
        // deterministic too.
        let mut reports: Vec<UnitReport> = Vec::with_capacity(units.len());
        let mut totals = BatchTotals {
            functions: units.len(),
            ..BatchTotals::default()
        };
        for (i, (unit, plan)) in units.iter().zip(&plans).enumerate() {
            let name = unit.function.name.clone();
            let (disposition, outcome) = match plan {
                UnitPlan::Invalid(e) => {
                    (CacheDisposition::Uncached, UnitOutcome::Failed(e.clone()))
                }
                UnitPlan::Compute { key } => {
                    let disposition = if key.is_some() {
                        CacheDisposition::Computed
                    } else {
                        CacheDisposition::Uncached
                    };
                    match &computed[&i] {
                        Ok(entry) => {
                            totals.computed += 1;
                            totals.pipeline += entry.pipeline;
                            totals.transform += entry.transform;
                            totals.spec += entry
                                .origin
                                .as_ref()
                                .and_then(|o| o.opt.spec)
                                .unwrap_or_default();
                            totals.validation_checks += entry.validation_checks;
                            totals.inputs_sampled += entry.inputs_sampled;
                            let success = UnitSuccess {
                                output: cache::with_name(&entry.output_text, &name),
                                pipeline: entry.pipeline,
                                transform: entry.transform,
                                validation_checks: entry.validation_checks,
                                inputs_sampled: entry.inputs_sampled,
                            };
                            if let Some(key) = key {
                                self.cache.insert(*key, (**entry).clone());
                            }
                            (disposition, UnitOutcome::Ok(success))
                        }
                        Err(e) => (disposition, UnitOutcome::Failed(e.clone())),
                    }
                }
                UnitPlan::Replay { leader } => match &computed[leader] {
                    Ok(entry) => (
                        CacheDisposition::Hit,
                        UnitOutcome::Ok(UnitSuccess {
                            output: cache::with_name(&entry.output_text, &name),
                            pipeline: entry.pipeline,
                            transform: entry.transform,
                            validation_checks: 0,
                            inputs_sampled: 0,
                        }),
                    ),
                    Err(e) => (CacheDisposition::Hit, UnitOutcome::Failed(e.clone())),
                },
                UnitPlan::Hit {
                    key,
                    output_text,
                    pipeline,
                    transform,
                } => {
                    let checks = if self.opts.validate == ValidationLevel::Off {
                        Ok((0, 0))
                    } else {
                        revalidated[key].clone()
                    };
                    match checks {
                        Ok((validation_checks, inputs_sampled)) => {
                            totals.validation_checks += validation_checks;
                            totals.inputs_sampled += inputs_sampled;
                            (
                                CacheDisposition::Hit,
                                UnitOutcome::Ok(UnitSuccess {
                                    output: cache::with_name(output_text, &name),
                                    pipeline: *pipeline,
                                    transform: *transform,
                                    validation_checks,
                                    inputs_sampled,
                                }),
                            )
                        }
                        Err(e) => (CacheDisposition::Hit, UnitOutcome::Failed(e)),
                    }
                }
            };
            match &outcome {
                UnitOutcome::Ok(_) => totals.ok += 1,
                UnitOutcome::Failed(_) => totals.failed += 1,
            }
            reports.push(UnitReport {
                name,
                file: unit.file.clone(),
                cache: disposition,
                outcome,
            });
        }
        totals.cache = self.cache.stats();
        totals.cache_entries = self.cache.len();
        totals.lifetime = self.lifetime();

        BatchResult {
            units: reports,
            totals,
        }
    }
}

/// Resolves `jobs == 0` to the machine's available parallelism.
fn resolve_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Runs `work` with panics contained: a panic becomes a
/// [`FailureKind::Panic`] unit error instead of crossing the pool's thread
/// scope (which would abort the whole batch).
fn isolate<T>(
    work: AssertUnwindSafe<impl FnOnce() -> Result<T, UnitError>>,
) -> Result<T, UnitError> {
    match catch_unwind(work) {
        Ok(r) => r,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(UnitError {
                kind: FailureKind::Panic,
                message,
            })
        }
    }
}

/// The placement context a unit is fingerprinted (and cached) under.
/// Empty for plain LCM **and** for profile-less speculative units — the
/// latter run exactly the LCM pipeline, so sharing entries is both sound
/// and desirable. Speculative units with resolved weights spell the full
/// weight vector out: same body + same weights ⇒ same plan.
fn unit_context(placement: PreAlgorithm, weights: Option<&EdgeWeights>) -> String {
    match (placement, weights) {
        (PreAlgorithm::Speculative, Some(w)) => {
            let mut s = format!("spec entry={}", w.entry);
            for e in &w.edges {
                s.push(',');
                s.push_str(&e.to_string());
            }
            s
        }
        (PreAlgorithm::Speculative, None) | (PreAlgorithm::LazyEdge, _) => String::new(),
        (other, _) => other.name().to_string(),
    }
}

/// A unit with no delta accounting and no phase split: a one-shot run, a
/// memo replay, or a failure.
fn unaccounted_unit(
    f: &Function,
    outcome: Result<String, UnitError>,
    mode: IncrementalMode,
) -> IncrementalUnit {
    IncrementalUnit {
        name: f.name.clone(),
        outcome,
        mode,
        stats: IncrementalStats::default(),
        blocks: f.num_blocks(),
        phases: PhaseNanos::default(),
    }
}

/// Whether a unit may take the incremental hot path: the effective
/// placement must be the plain edge-formulation LCM pipeline — the one
/// [`IncrementalState`] retains fixpoints for. That is [`PreAlgorithm::LazyEdge`]
/// itself, or [`PreAlgorithm::Speculative`] with no resolved weights
/// (which runs LazyEdge anyway and shares its cache entries).
pub fn incremental_eligible(placement: PreAlgorithm, weights: Option<&EdgeWeights>) -> bool {
    matches!(
        (placement, weights),
        (PreAlgorithm::LazyEdge, _) | (PreAlgorithm::Speculative, None)
    )
}

/// The PRE step of [`optimize_unit`] — the one place the unit pipeline
/// branches.
enum PreStep<'a> {
    /// The checked, budgeted one-shot solve of the configured placement;
    /// nothing is retained.
    OneShot(&'a OptimizeBudget),
    /// The incremental solve (callers check [`incremental_eligible`]
    /// first): a delta against the retained fixpoints when there are any,
    /// a fresh solve otherwise — and either way the new fixpoints are
    /// retained. Validated at the fast tier at least, so a stale or
    /// corrupted state costs a typed unit failure, never wrong code.
    Incremental(Option<&'a IncrementalState>),
}

/// What [`optimize_unit`] produced.
struct UnitRun {
    /// The cache entry (canonical texts, statistics, plan for re-validation).
    entry: CacheEntry,
    /// The fixpoints to retain and what the delta path did
    /// ([`PreStep::Incremental`] only; the stats are all-default when
    /// there was no retained state to be incremental against).
    retained: Option<(IncrementalState, IncrementalStats)>,
    /// Wall-clock split into the solve phase (cloning, LCSE, fixpoints)
    /// and the tail (plan, rewrite, validation, cleanup, print).
    phases: PhaseNanos,
}

/// The per-function pipeline, mirroring `lcmopt`'s default pass order:
/// LCSE → checked PRE (the configured placement) → [`passes::cleanup`] →
/// output verification. Only the PRE step varies, by `step`.
///
/// `weights` and `context` must be the ones resolved for this unit: the
/// recorded `canonical_input` embeds the context so the cache's collision
/// guard keeps differently-weighted plans apart. LCSE never touches the
/// CFG, so edge weights resolved against the pre-LCSE function remain
/// valid for `g`.
fn optimize_unit(
    f: &Function,
    opts: &BatchOptions,
    weights: Option<&EdgeWeights>,
    context: &str,
    step: PreStep<'_>,
    scratch: &mut SolverScratch,
) -> Result<UnitRun, UnitError> {
    let (level, seed, strategy) = (opts.validate, opts.seed, opts.strategy);
    let t_start = Instant::now();
    let elapsed = || t_start.elapsed().as_nanos() as u64;
    let mut g = f.clone();
    g.name = CANONICAL_NAME.to_string();
    let canonical_input = cache::contextual_text(g.to_string(), context);
    passes::lcse(&mut g);
    let pipeline_err = |e: PipelineError| UnitError {
        kind: match e {
            PipelineError::Cancelled(_) => FailureKind::Cancelled,
            _ => FailureKind::Pipeline,
        },
        message: e.to_string(),
    };
    let (opt, report, retained, mut phases) = match step {
        PreStep::OneShot(budget) => {
            // Profile-less speculative units run plain LCM (see
            // `BatchOptions::placement`).
            let alg = match (opts.placement, weights) {
                (PreAlgorithm::Speculative, None) => PreAlgorithm::LazyEdge,
                (alg, _) => alg,
            };
            let (opt, report) =
                optimize_checked(&g, alg, weights, level, seed, strategy, scratch, budget)
                    .map_err(pipeline_err)?;
            let phases = PhaseNanos {
                solve_ns: elapsed(),
                tail_ns: 0,
            };
            (opt, report, None, phases)
        }
        PreStep::Incremental(Some(prev)) => {
            let out = optimize_incremental_checked_with(prev, &g, level, seed, strategy, scratch)
                .map_err(pipeline_err)?;
            let mut phases = out.phases;
            // Charge cloning + LCSE to the solve phase so the two phases
            // still sum to this function's whole wall-clock.
            phases.solve_ns = elapsed().saturating_sub(phases.tail_ns);
            (
                out.optimized,
                out.report,
                Some((out.state, out.stats)),
                phases,
            )
        }
        PreStep::Incremental(None) => {
            let (opt, state) =
                IncrementalState::fresh_with(&g, strategy, scratch).map_err(pipeline_err)?;
            let solve_ns = elapsed();
            let effective = if level == ValidationLevel::Off {
                ValidationLevel::Fast
            } else {
                level
            };
            let report = validate_optimized(&g, &opt, effective, seed)
                .map_err(|e| pipeline_err(e.into()))?;
            let phases = PhaseNanos {
                solve_ns,
                tail_ns: elapsed().saturating_sub(solve_ns),
            };
            let retained = Some((state, IncrementalStats::default()));
            (opt, report, retained, phases)
        }
    };
    let t_tail = Instant::now();
    let mut out = opt.function.clone();
    passes::cleanup(&mut out);
    verify(&out).map_err(|e| UnitError {
        kind: FailureKind::InvalidOutput,
        message: e.to_string(),
    })?;
    // Allocation counts measure scratch temperature — which worker's arena
    // the function happened to land on — not the function itself, so they
    // are scrubbed from the recorded stats to keep batch reports identical
    // for every thread count. `experiments bench` measures them directly.
    let mut pipeline = opt.pipeline_stats.unwrap_or_default();
    pipeline.avail.allocations = 0;
    pipeline.antic.allocations = 0;
    pipeline.later.allocations = 0;
    let output_text = out.to_string();
    // The driver's cleanup passes and printing are tail work too.
    phases.tail_ns += t_tail.elapsed().as_nanos() as u64;
    let entry = CacheEntry {
        canonical_input,
        pipeline,
        transform: opt.transform.stats,
        output_text,
        origin: Some(Box::new(ComputedOrigin { pre_input: g, opt })),
        validation_checks: report.checks_run,
        inputs_sampled: report.inputs_sampled,
    };
    Ok(UnitRun {
        entry,
        retained,
        phases,
    })
}

/// Differential inputs a thin-entry re-validation samples.
const THIN_REVALIDATE_INPUTS: usize = 3;

/// Interpreter fuel per differential run during thin-entry re-validation.
const THIN_REVALIDATE_FUEL: u64 = 100_000;

/// Re-validates a cached entry on a hit — cheap enough to run every time.
///
/// An entry computed in this process carries its [`ComputedOrigin`], and
/// the plan validator's fast tier re-checks the stored plan against the
/// paper's invariants. A **thin** entry (loaded from a persisted cache
/// file) has no plan to audit, so it is re-validated from first
/// principles: both stored texts must re-parse and re-verify, and the
/// output must be observationally equivalent to the input on seeded
/// differential runs. Either way, a corrupted entry degrades to a
/// [`FailureKind::PoisonedCache`] unit failure, never to wrong code.
///
/// Returns the (checks, inputs) counters on success.
fn revalidate_entry(entry: &CacheEntry, seed: u64) -> Result<(usize, usize), UnitError> {
    if let Some(origin) = &entry.origin {
        return match validate_optimized(&origin.pre_input, &origin.opt, ValidationLevel::Fast, seed)
        {
            Ok(report) => Ok((report.checks_run, report.inputs_sampled)),
            Err(e) => Err(UnitError {
                kind: FailureKind::PoisonedCache,
                message: e.to_string(),
            }),
        };
    }
    let poisoned = |message: String| UnitError {
        kind: FailureKind::PoisonedCache,
        message,
    };
    // The stored input embeds the placement context as a `;; ...` suffix,
    // which is not IR; strip it before re-parsing.
    let (input_text, _context) = cache::split_context(&entry.canonical_input);
    let f = parse_function(input_text)
        .map_err(|e| poisoned(format!("persisted entry input does not parse: {e}")))?;
    let g = parse_function(&entry.output_text)
        .map_err(|e| poisoned(format!("persisted entry output does not parse: {e}")))?;
    verify(&f).map_err(|e| poisoned(format!("persisted entry input does not verify: {e}")))?;
    verify(&g).map_err(|e| poisoned(format!("persisted entry output does not verify: {e}")))?;
    let mut state = seed;
    for i in 0..THIN_REVALIDATE_INPUTS {
        let inputs = sample_inputs(&f, &mut state);
        if !lcm_interp::observationally_equivalent(&f, &g, &inputs, THIN_REVALIDATE_FUEL) {
            return Err(poisoned(format!(
                "persisted entry output diverges from its input on sampled run {i}"
            )));
        }
    }
    // Two structural re-verifications plus the differential runs.
    Ok((2 + THIN_REVALIDATE_INPUTS, THIN_REVALIDATE_INPUTS))
}
