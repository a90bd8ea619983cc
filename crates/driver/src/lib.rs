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
//!   corpus are optimized once; every hit on a cached plan is
//!   **re-validated** at the fast tier, so a corrupted cache degrades to a
//!   unit failure (or, for an entry loaded from disk, to a recompute), not
//!   to wrong code.
//! * **One cycle** — batch, watch and the serve daemon run each unit
//!   through the same sequential plan, engine-free work and sequential
//!   finish steps.
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
mod cycle;
mod load;
mod persist;

pub use cache::{
    canonical_text, fingerprint, fingerprint_with_context, CacheEntry, CacheStats, ComputedOrigin,
    PlanCache, CANONICAL_NAME,
};
pub use load::{load_units, text_from_bytes, LoadError};
pub use persist::{
    corrupt_sidecar, load_cache, load_or_quarantine, save_cache, tmp_path, CacheFileError,
    LifetimeCounters, LoadStatus, CACHE_FORMAT_VERSION, CACHE_MAGIC, STATS_MAGIC,
};

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use lcm_core::transform::TransformStats;
use lcm_core::validate::{sample_inputs, validate_optimized, ValidationLevel};
use lcm_core::{
    optimize_checked, passes, EdgeWeights, IncrementalState, IncrementalStats, OptimizeBudget,
    PhaseNanos, PipelineError, PipelineStats, PreAlgorithm, Session, SpecStats,
};
use lcm_dataflow::SolveStrategy;
use lcm_ir::{parse_function, verify, Function, Module, Profile};

use cycle::{Finished, Plan, Surface, UnitIn};

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
    /// Validation tier for computed units. Cache hits do not follow it:
    /// every hit on an entry already in the cache is re-validated at the
    /// fast tier, even under [`ValidationLevel::Off`].
    pub validate: ValidationLevel,
    /// Seed for the validator's differential execution.
    pub seed: u64,
    /// Whether the plan cache is consulted and filled. Only batch runs and
    /// the serve daemon use the cache; the incremental cycle of
    /// [`BatchEngine::run_module_incremental`] neither reads nor fills it,
    /// and in the daemon a function name with retained state is answered
    /// by its incremental step, not by the cache.
    pub use_cache: bool,
    /// Plan-cache capacity in entries; `0` means unbounded. Like
    /// `use_cache`, it matters only to batch runs and the daemon.
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
#[derive(Clone, Debug, Default)]
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

impl UnitSuccess {
    /// The success `entry` reports for a unit named `name`.
    fn of(entry: &CacheEntry, name: &str) -> Self {
        UnitSuccess {
            output: cache::with_name(&entry.output_text, name),
            pipeline: entry.pipeline,
            transform: entry.transform,
            validation_checks: entry.validation_checks,
            inputs_sampled: entry.inputs_sampled,
        }
    }
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

/// The durable-cache half of an engine: where the cache file lives, the
/// counters it carried when loaded, and how the load went.
#[derive(Debug)]
struct PersistState {
    path: std::path::PathBuf,
    base: LifetimeCounters,
    status: LoadStatus,
}

/// One function name's retained solve as the benchmark's recomposed watch
/// cycle records it. No engine path builds or reads one; it goes when the
/// benchmark moves onto the checked call (ROADMAP item 2).
#[derive(Debug)]
pub struct PrevSolve {
    /// Fingerprint (with placement context) of the pre-LCSE input the
    /// state was computed from.
    pub key: u128,
    /// The retained universe, local predicates, and AVAIL/ANTIC/LATER
    /// fixpoints over the post-LCSE canonical function.
    pub state: IncrementalState,
    /// The canonical printed output the state produced.
    pub output_text: String,
    /// The [`options_tag`] the output was recorded under.
    pub opts_tag: String,
}

/// The one memo level, retained beside the state it was minted with: the
/// raw `fn` section text ([`Module::source`]) the retained state answered,
/// and — under [`PreAlgorithm::Speculative`] — the profile that came with
/// it. A revision whose section is byte-identical, under the same profile,
/// replays the retained output before `verify` or a fingerprint runs. Any
/// other revision is verified and solved.
#[derive(Debug)]
struct SpanMemo {
    text: Box<str>,
    profile: Option<Profile>,
}

impl SpanMemo {
    /// The span memo for section text `text` with `profile`: the profile
    /// is kept only under speculative placement, the one placement whose
    /// output it can change.
    fn new(placement: PreAlgorithm, text: Box<str>, profile: Option<&Profile>) -> Self {
        let profile = match placement {
            PreAlgorithm::Speculative => profile.cloned(),
            _ => None,
        };
        SpanMemo { text, profile }
    }
}

/// One function name's retained solve: the fixpoints the next edit
/// delta-solves against, the canonical output they produced, and the span
/// memo that replays it, when they were minted from module text.
#[derive(Debug)]
struct Retained {
    state: IncrementalState,
    output_text: String,
    span: Option<SpanMemo>,
}

/// The output-affecting option fingerprint the benchmark keys its
/// recorded [`PrevSolve`] under. The engine compares no tag: its options
/// are fixed when it is built.
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
    /// Revisions whose `fn` section bytes were identical, answered by the
    /// span memo with no verification, fingerprint or solve at all. A
    /// parse-identical edit (whitespace, a comment) is solved, and counts
    /// in its solved class.
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
    /// The revision's `fn` section bytes are identical (and, under
    /// speculative placement, so is the profile) to the section the
    /// retained state answered: the span memo replayed its
    /// output with no verification, solve, rewrite, validation, or printing
    /// work at all. A parse-identical edit, or a function built without
    /// section text, is solved instead — a [`IncrementalMode::Delta`] with
    /// zero dirty blocks.
    ZeroDirty,
    /// The unit ran a one-shot solve with no state retention: its
    /// placement is not plain edge LCM, or it is a speculative unit with
    /// edge weights.
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
}

/// The batch engine: a [`BatchOptions`] plus a [`PlanCache`] that persists
/// across [`BatchEngine::run`] calls — and, when opened with
/// [`BatchEngine::with_cache_file`], across processes.
#[derive(Debug)]
pub struct BatchEngine {
    opts: BatchOptions,
    cache: PlanCache,
    persisted: Option<PersistState>,
    /// Per-function-name retained fixpoints (and span memo) for the
    /// incremental hot path. An entry is replaced on every re-optimization
    /// of its function and lives until the process exits; the map is
    /// bounded by the number of distinct function names a daemon serves.
    /// An ordered map needs no per-map hasher state, which keeps engine
    /// construction — once per module in a cold batch — cheap.
    retained: BTreeMap<String, Retained>,
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
    // Inlined so a caller that builds one engine per module (a cold batch)
    // pays only for the fields it initialises.
    #[inline]
    pub fn new(opts: BatchOptions) -> Self {
        BatchEngine {
            cache: PlanCache::new(opts.cache_capacity),
            opts,
            persisted: None,
            retained: BTreeMap::new(),
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
        let path = path.to_path_buf();
        BatchEngine {
            cache,
            persisted: Some(PersistState { path, base, status }),
            ..BatchEngine::new(opts)
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

    /// Retained fixpoint entries currently held.
    pub fn prev_solves_len(&self) -> usize {
        self.retained.len()
    }

    /// Mutable access to the canonical output `name`'s span memo replays
    /// and the section text it matches — for fault injection and tests;
    /// the normal driver path never needs it. `None` unless the entry has
    /// a span memo.
    pub fn span_memo_mut(&mut self, name: &str) -> Option<(&mut String, &mut Box<str>)> {
        let r = self.retained.get_mut(name)?;
        let span = r.span.as_mut()?;
        Some((&mut r.output_text, &mut span.text))
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
    /// sequentially and in module order, one unit cycle each: when `m` came
    /// from [`parse_module`](lcm_ir::parse_module), a function whose
    /// section text ([`Module::source`]) is byte-identical to the one its
    /// retained state answered replays that output at once, with no
    /// verification and no fingerprint — the one memo level. Every other
    /// unit is verified and its PRE call solved against the retained
    /// fixpoints — a delta, a fresh solve on first sight, or the full
    /// fallback — then the ledger and the retained state are updated. The
    /// call solves other placements, and speculative units with edge
    /// weights, one-shot instead. The plan cache is neither read nor
    /// filled.
    ///
    /// Per-unit output text is byte-identical to [`BatchEngine::run_module`]
    /// for the same input and options, at every placement and validation
    /// tier (pinned by `tests/watch.rs`). This is the `lcmopt watch`
    /// engine; the serve daemon runs the same unit cycle, unlocking the
    /// engine while it solves, and keeps the same ledger (pinned by
    /// `tests/serve_determinism.rs`).
    pub fn run_module_incremental(&mut self, m: &Module) -> Vec<IncrementalUnit> {
        let mut session = Session::new();
        let surface = Surface {
            retain: true,
            cache: false,
        };
        let budget = OptimizeBudget::unlimited();
        m.iter()
            .enumerate()
            .map(|(i, f)| {
                let unit = UnitIn {
                    function: f,
                    span: m.source(i).map(Cow::Borrowed),
                    profile: m.profile(&f.name),
                };
                self.cycle(unit, surface, &budget, &mut session)
                    .into_incremental(f)
            })
            .collect()
    }

    /// Optimizes `units` as one batch: the unit cycle's plan step for every
    /// unit in input order, the work items on the pool, then the finish
    /// steps in input order. A later unit with the fingerprint of an
    /// earlier one replays its answer.
    pub fn run(&mut self, units: Vec<BatchUnit>) -> BatchResult {
        let threads = resolve_jobs(self.opts.jobs);
        let surface = Surface {
            retain: false,
            cache: self.opts.use_cache,
        };

        // Phase 1 — sequential planning in input order: verify inputs,
        // consult the cache, pick one leader per distinct fingerprint.
        let mut leaders: HashMap<u128, usize> = HashMap::new();
        let plans: Vec<Plan> = units
            .iter()
            .enumerate()
            .map(|(i, u)| self.plan(&UnitIn::from(u), surface, Some((i, &mut leaders))))
            .collect();

        // Phase 2 — the parallel part: the work items, a pipeline run or a
        // cache-hit re-validation per leader. One one-shot Session per
        // worker, its solver scratch reused across every function that
        // worker computes: O(threads) solver arenas per batch instead of
        // O(functions × analyses × blocks) transient allocations.
        let (opts, budget) = (self.opts, OptimizeBudget::unlimited());
        let work = |session: &mut Session, i: usize| match &plans[i] {
            Plan::Work(w, _) => Some(w.run(&units[i].function, &opts, &budget, session, None)),
            _ => None,
        };
        let outs = pool::run_indexed_with(threads, plans.len(), Session::new, work);

        // Phase 3 — sequential assembly in input order. Cache insertions
        // happen here, in input order, so the eviction sequence is
        // deterministic too.
        let mut finished: Vec<Finished> = Vec::with_capacity(units.len());
        for ((u, plan), out) in units.iter().zip(plans).zip(outs) {
            let done = match plan {
                Plan::Work(w, _) => {
                    let out = out.expect("every work item runs");
                    self.finish(UnitIn::from(u), w, out, surface)
                }
                Plan::Replay { leader } => finished[leader].replay(&u.function.name),
                Plan::Done(done) => done,
            };
            finished.push(done);
        }

        let mut totals = BatchTotals {
            functions: units.len(),
            ..BatchTotals::default()
        };
        let reports = units
            .into_iter()
            .zip(finished)
            .map(|(u, done)| {
                let outcome = match done.outcome {
                    Ok(s) => {
                        totals.ok += 1;
                        totals.validation_checks += s.validation_checks;
                        totals.inputs_sampled += s.inputs_sampled;
                        if let Some(spec) = done.computed {
                            totals.computed += 1;
                            totals.pipeline += s.pipeline;
                            totals.transform += s.transform;
                            totals.spec += spec;
                        }
                        UnitOutcome::Ok(s)
                    }
                    Err(e) => {
                        totals.failed += 1;
                        UnitOutcome::Failed(e)
                    }
                };
                UnitReport {
                    name: u.function.name,
                    file: u.file,
                    cache: done.cache,
                    outcome,
                }
            })
            .collect();
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

/// What [`optimize_unit`] produced.
pub(crate) struct UnitRun {
    /// The cache entry (canonical texts, statistics, plan for re-validation).
    entry: CacheEntry,
    /// The fixpoints to retain and what the delta path did, when the call
    /// retained state (filled in by the work step from its session).
    retained: Option<(IncrementalState, IncrementalStats)>,
    /// The call's solve phase, and the tail: everything else of the unit.
    phases: PhaseNanos,
}

/// The per-function pipeline, mirroring `lcmopt`'s default pass order:
/// LCSE → the checked PRE call ([`optimize_checked`], on `session`) →
/// [`passes::cleanup`] → output verification.
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
    budget: &OptimizeBudget,
    session: &mut Session,
) -> Result<UnitRun, UnitError> {
    let t_start = Instant::now();
    let mut g = f.clone();
    g.name = CANONICAL_NAME.to_string();
    let canonical_input = cache::contextual_text(g.to_string(), context);
    passes::lcse(&mut g);
    let pre = lcm_core::Options {
        placement: opts.placement,
        validate: opts.validate,
        seed: opts.seed,
        solver: opts.strategy,
    };
    let (opt, report) =
        optimize_checked(&g, weights, &pre, budget, session).map_err(|e| UnitError {
            kind: match e {
                PipelineError::Cancelled(_) => FailureKind::Cancelled,
                _ => FailureKind::Pipeline,
            },
            message: e.to_string(),
        })?;
    let mut out = opt.function.clone();
    passes::cleanup(&mut out);
    verify(&out).map_err(|e| UnitError {
        kind: FailureKind::InvalidOutput,
        message: e.to_string(),
    })?;
    // Allocation counts measure scratch temperature — which worker's arena
    // the function happened to land on — not the function itself, so they
    // are scrubbed from the recorded stats to keep batch reports identical
    // for every thread count. The benchmark reports them per unit as
    // `dataflow.allocations`.
    let mut pipeline = opt.pipeline_stats.unwrap_or_default();
    pipeline.avail.allocations = 0;
    pipeline.antic.allocations = 0;
    pipeline.later.allocations = 0;
    let output_text = out.to_string();
    let mut phases = session.phases();
    phases.tail_ns = (t_start.elapsed().as_nanos() as u64).saturating_sub(phases.solve_ns);
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
        retained: None,
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
    // The output is served by a header swap, so it must start with the
    // canonical header.
    if !entry
        .output_text
        .starts_with(&format!("fn {CANONICAL_NAME} {{"))
    {
        return Err(poisoned(
            "persisted entry output has no canonical header".into(),
        ));
    }
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
