//! Seeded fault injection for the LCM pipeline.
//!
//! The validator in [`lcm_core::validate`] exists to catch exactly the
//! failure modes a PRE implementation can develop: a corrupted fixpoint
//! bit, an insertion dropped or duplicated between planning and
//! materialisation, a mis-targeted edge split, a mangled terminator. This
//! crate makes those failure modes *injectable* — each [`Fault`] is a
//! deterministic corruptor over an [`Optimized`] result — and its test
//! suite is the mutation harness: for every fault class, inject it and
//! assert that [`validate_optimized`](lcm_core::validate::validate_optimized)
//! rejects the result with the error the class predicts.
//!
//! Corruptors are seeded, never random: the same `(fault, seed)` pair
//! produces the same corruption, so a failing run reproduces exactly.
//!
//! This crate is a test harness, not part of the optimizer: nothing in the
//! pipeline depends on it.

use lcm_core::{
    apply_plan, lazy_edge_plan_with, ExprUniverse, GlobalAnalyses, IncrementalState,
    LocalPredicates, Optimized, PipelineError, PreAlgorithm,
};
use lcm_dataflow::{CfgView, SolveStrategy, SolverScratch};
use lcm_driver::PlanCache;
use lcm_ir::{BlockData, BlockId, Expr, Function, Instr, Profile, Rvalue, Terminator, Var};

/// One class of seeded corruption, modelling a distinct implementation
/// bug in a PRE pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Flip a bit of the placement plan: claim an insertion on the
    /// virtual entry edge that the analyses never justified. Models a
    /// corrupted fixpoint word. Caught by the admissibility check
    /// (`INSERT ⊆ ANTIN ∪ AVOUT`) or, for the edge formulation, the
    /// `INSERT ⊆ LATER` re-check — provided the flipped point is in fact
    /// unsafe in the subject function.
    FlipPlanBit,
    /// Remove one materialised `t := e` insertion from the output while
    /// leaving the plan and the rewriter's statistics untouched. Models a
    /// lost insertion between planning and rewriting. Caught by definite
    /// assignment or the insertion bookkeeping count.
    DropInsertion,
    /// Duplicate one materialised `t := e` insertion in place. Models a
    /// double-applied plan entry. Caught by the insertion bookkeeping
    /// count (and by eval-count regression under full validation).
    DuplicateInsertion,
    /// Re-route the predecessor of a materialised edge-split block
    /// straight to the split's successor, orphaning the split block (and
    /// the insertion it hosts). Models a split whose predecessor
    /// retargeting was forgotten. Caught by structural re-verification
    /// (`Unreachable`).
    MistargetSplit,
    /// Overwrite one block's terminator with a jump to a block id outside
    /// the block table. Models plain CFG corruption. Caught by structural
    /// re-verification (`DanglingTarget`).
    CorruptTerminator,
}

impl Fault {
    /// Every fault class, for exhaustive mutation loops.
    pub const ALL: [Fault; 5] = [
        Fault::FlipPlanBit,
        Fault::DropInsertion,
        Fault::DuplicateInsertion,
        Fault::MistargetSplit,
        Fault::CorruptTerminator,
    ];

    /// Stable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Fault::FlipPlanBit => "flip-plan-bit",
            Fault::DropInsertion => "drop-insertion",
            Fault::DuplicateInsertion => "duplicate-insertion",
            Fault::MistargetSplit => "mistarget-split",
            Fault::CorruptTerminator => "corrupt-terminator",
        }
    }
}

/// Deterministic splitmix64 step — the harness's only entropy source.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Locations of the materialised temp-defining insertions in `opt`'s
/// output, in block order.
fn temp_def_sites(opt: &Optimized) -> Vec<(BlockId, usize)> {
    let temps: Vec<Var> = opt.transform.temp_vars();
    let mut sites = Vec::new();
    for b in opt.function.block_ids() {
        for (i, instr) in opt.function.block(b).instrs.iter().enumerate() {
            if matches!(instr, Instr::Assign { dst, rv: Rvalue::Expr(_) }
                        if temps.contains(dst))
            {
                sites.push((b, i));
            }
        }
    }
    sites
}

/// Replaces `old` with `new` in every arm of `term`, returning whether
/// anything changed.
fn retarget(term: &mut Terminator, old: BlockId, new: BlockId) -> bool {
    match term {
        Terminator::Jump(t) if *t == old => {
            *t = new;
            true
        }
        Terminator::Branch {
            then_to, else_to, ..
        } => {
            let mut hit = false;
            if *then_to == old {
                *then_to = new;
                hit = true;
            }
            if *else_to == old {
                *else_to = new;
                hit = true;
            }
            hit
        }
        _ => false,
    }
}

/// Applies one seeded corruption to `opt` in place.
///
/// Returns `false` when the fault class does not apply to this result
/// (e.g. dropping an insertion from a pass that inserted nothing) and
/// `opt` is left untouched; `true` when the corruption landed.
pub fn inject(opt: &mut Optimized, fault: Fault, seed: u64) -> bool {
    let mut state = seed ^ 0x5EED_FA17_u64;
    match fault {
        Fault::FlipPlanBit => {
            let uni_len = opt.plan.entry_insert.capacity();
            if uni_len == 0 {
                return false;
            }
            // Claim an entry insertion the analyses never produced.
            let start = (splitmix64(&mut state) % uni_len as u64) as usize;
            for off in 0..uni_len {
                let bit = (start + off) % uni_len;
                if !opt.plan.entry_insert.contains(bit) {
                    opt.plan.entry_insert.insert(bit);
                    return true;
                }
            }
            false
        }
        Fault::DropInsertion => {
            let sites = temp_def_sites(opt);
            if sites.is_empty() {
                return false;
            }
            let (b, i) = sites[(splitmix64(&mut state) % sites.len() as u64) as usize];
            opt.function.block_mut(b).instrs.remove(i);
            true
        }
        Fault::DuplicateInsertion => {
            let sites = temp_def_sites(opt);
            if sites.is_empty() {
                return false;
            }
            let (b, i) = sites[(splitmix64(&mut state) % sites.len() as u64) as usize];
            let dup = opt.function.block(b).instrs[i];
            opt.function.block_mut(b).instrs.insert(i, dup);
            true
        }
        Fault::MistargetSplit => {
            let splits: Vec<BlockId> = opt
                .function
                .block_ids()
                .filter(|&b| opt.function.block(b).name.contains(".split"))
                .collect();
            if splits.is_empty() {
                return false;
            }
            let split = splits[(splitmix64(&mut state) % splits.len() as u64) as usize];
            let Terminator::Jump(succ) = opt.function.block(split).term else {
                return false;
            };
            let mut hit = false;
            for b in opt.function.block_ids().collect::<Vec<_>>() {
                if b != split && retarget(&mut opt.function.block_mut(b).term, split, succ) {
                    hit = true;
                }
            }
            hit
        }
        Fault::CorruptTerminator => {
            let n = opt.function.num_blocks();
            let b = BlockId::from_index((splitmix64(&mut state) % n as u64) as usize);
            opt.function.block_mut(b).term = Terminator::Jump(BlockId::from_index(n + 7));
            true
        }
    }
}

/// Corrupts the cached optimization result for `f` in place, modelling a
/// poisoned (or bit-rotted) plan-cache entry in the batch driver.
///
/// The entry is addressed the same way the driver addresses it — by the
/// content [`fingerprint`](lcm_driver::fingerprint) of `f` — and the
/// corruption is applied by [`inject`] to the stored [`Optimized`] result,
/// which is exactly the state hit-revalidation re-checks. The entry's
/// rendered output text is left untouched: a poisoned entry *looks*
/// servable, and only the validator can tell it is not.
///
/// Returns `false` when the cache holds no entry for `f` or the fault
/// class does not apply to the cached result; the cache is then unchanged.
pub fn poison_cached_plan(cache: &mut PlanCache, f: &Function, fault: Fault, seed: u64) -> bool {
    let (key, _) = lcm_driver::fingerprint(f);
    let Some(entry) = cache.entry_mut(key) else {
        return false;
    };
    // Thin (disk-loaded) entries carry no plan to poison; their corruption
    // classes live in [`CacheFileFault`] instead.
    let Some(origin) = entry.origin.as_deref_mut() else {
        return false;
    };
    inject(&mut origin.opt, fault, seed)
}

/// One class of seeded corruption of an `lcm-cache-v1` *file* (see
/// [`lcm_driver::save_cache`]), modelling the ways a persisted plan cache
/// rots on disk: torn writes, bit flips, format drift, tampered counters,
/// and appended garbage. Every class must be refused by
/// [`lcm_driver::load_cache`] and quarantined by
/// [`lcm_driver::load_or_quarantine`]; the faults test suite proves it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheFileFault {
    /// Cut the file to a seeded strict prefix (possibly empty). Models a
    /// torn write — the failure the atomic temp-then-rename protocol
    /// exists to prevent, so finding one means the protocol was bypassed.
    Truncate,
    /// Flip one seeded bit past the magic and version words (which have
    /// their own classes below). Models media bit-rot. Always detected:
    /// a single-byte change cannot preserve an FNV-1a entry or footer
    /// checksum, and length-field damage runs the reader off the rails.
    FlipByte,
    /// Bump the format version word. Models reading a future (or mangled)
    /// format with today's code.
    VersionSkew,
    /// Overwrite the leading magic. Models pointing the daemon at a file
    /// that is not a cache at all.
    MagicSmash,
    /// Perturb one byte of the footer's lifetime counters without fixing
    /// the footer checksum. Models stats tampering or localised rot.
    CounterTamper,
    /// Append seeded junk after the footer checksum. Models a partial
    /// overwrite by a longer stale file.
    TrailingGarbage,
}

impl CacheFileFault {
    /// Every file-fault class, for exhaustive mutation loops.
    pub const ALL: [CacheFileFault; 6] = [
        CacheFileFault::Truncate,
        CacheFileFault::FlipByte,
        CacheFileFault::VersionSkew,
        CacheFileFault::MagicSmash,
        CacheFileFault::CounterTamper,
        CacheFileFault::TrailingGarbage,
    ];

    /// Stable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            CacheFileFault::Truncate => "truncate",
            CacheFileFault::FlipByte => "flip-byte",
            CacheFileFault::VersionSkew => "version-skew",
            CacheFileFault::MagicSmash => "magic-smash",
            CacheFileFault::CounterTamper => "counter-tamper",
            CacheFileFault::TrailingGarbage => "trailing-garbage",
        }
    }
}

/// Applies one seeded corruption to the cache file at `path` in place.
///
/// Returns `Ok(false)` (file untouched) when the class does not apply —
/// the file is too short to host that corruption; `Ok(true)` when it
/// landed. Same `(fault, seed)` over the same bytes produces the same
/// corrupted file.
///
/// # Errors
///
/// Any I/O error reading or rewriting the file.
pub fn corrupt_cache_file(
    path: &std::path::Path,
    fault: CacheFileFault,
    seed: u64,
) -> std::io::Result<bool> {
    let mut bytes = std::fs::read(path)?;
    let mut state = seed ^ 0x5EED_FA17_u64;
    let landed = match fault {
        CacheFileFault::Truncate => {
            if bytes.is_empty() {
                false
            } else {
                let keep = (splitmix64(&mut state) % bytes.len() as u64) as usize;
                bytes.truncate(keep);
                true
            }
        }
        CacheFileFault::FlipByte => {
            // Offsets 0..12 are the magic and version words; damage there
            // is modelled by MagicSmash and VersionSkew.
            if bytes.len() <= 12 {
                false
            } else {
                let i = 12 + (splitmix64(&mut state) % (bytes.len() - 12) as u64) as usize;
                bytes[i] ^= 1 << (splitmix64(&mut state) % 8);
                true
            }
        }
        CacheFileFault::VersionSkew => {
            if bytes.len() < 12 {
                false
            } else {
                let v = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
                bytes[8..12].copy_from_slice(&v.wrapping_add(1).to_le_bytes());
                true
            }
        }
        CacheFileFault::MagicSmash => {
            if bytes.len() < 8 {
                false
            } else {
                bytes[..8].copy_from_slice(b"NOTCACHE");
                true
            }
        }
        CacheFileFault::CounterTamper => {
            // The footer is the trailing 64 bytes: 8 magic + 48 counters +
            // 8 checksum. Perturb one counter byte, leave the checksum.
            if bytes.len() < 64 {
                false
            } else {
                let base = bytes.len() - 56;
                let i = base + (splitmix64(&mut state) % 48) as usize;
                bytes[i] = bytes[i].wrapping_add(1);
                true
            }
        }
        CacheFileFault::TrailingGarbage => {
            let n = 1 + (splitmix64(&mut state) % 64) as usize;
            for _ in 0..n {
                bytes.push(splitmix64(&mut state) as u8);
            }
            true
        }
    };
    if landed {
        std::fs::write(path, &bytes)?;
    }
    Ok(landed)
}

/// Runs the fused LCM pipeline on `f` with a [`SolverScratch`] that is
/// corrupted at a reuse boundary — the scratch-sharing bug the batch
/// driver's per-worker arenas could develop. The corruption is
/// [`SolverScratch::poison_for_fault_injection`]: XOR-scramble the state
/// matrices and arm the scratch to skip its next value reinitialisation,
/// which is exactly what a broken `prepare()` would do.
///
/// The poison is planted at the most *observable* reuse boundary, between
/// the global analyses and the LATER solve: a must-problem restarted from
/// scrambled state settles at (or below) a fixpoint **under** the true
/// one, so a corrupted LATERIN turns real deletions loose without the
/// insertions that justify them — an invalid output the fast validation
/// tier must refuse. (Planting it at the *function* boundary instead
/// lands on the availability solve, where an under-approximated fixpoint
/// only makes placement more conservative: the output is still a correct
/// program, and the only loud failure mode is solver divergence. The
/// faults suite pins that dichotomy separately.)
///
/// Returns the wrong-but-plausible result for the caller's validator to
/// refuse; `scratch` is left behind for recovery checks.
///
/// # Errors
///
/// Propagates [`PipelineError`] if the poisoned solve diverges outright —
/// the other legitimate way for the corruption to surface.
pub fn optimize_with_poisoned_scratch(
    f: &Function,
    seed: u64,
    scratch: &mut SolverScratch,
) -> Result<Optimized, PipelineError> {
    let strategy = SolveStrategy::default();
    let uni = ExprUniverse::of(f);
    let local = LocalPredicates::compute(f, &uni);
    let view = CfgView::new(f);
    let ga = GlobalAnalyses::compute_with(f, &uni, &local, &view, strategy, scratch)?;
    scratch.poison_for_fault_injection(seed);
    let lazy = lazy_edge_plan_with(f, &uni, &local, &ga, &view, strategy, scratch)?;
    let transform = apply_plan(f, &uni, &local, &lazy.plan);
    Ok(Optimized {
        function: transform.function.clone(),
        transform,
        plan: lazy.plan,
        input: f.clone(),
        algorithm: PreAlgorithm::LazyEdge,
        pipeline_stats: None,
        spec: None,
    })
}

/// The product of [`optimize_with_dropped_store_kill`]: the
/// wrong-but-plausible result plus the corrupted predicate table the plan
/// was derived from, so tests can aim
/// [`check_memory_kills`](lcm_core::check_memory_kills) at the exact state
/// a memory-kill-dropping implementation would present.
pub struct DroppedStoreKill {
    /// The optimization result planned over the corrupted predicates.
    pub opt: Optimized,
    /// The predicates with one killer block's memory kills dropped.
    pub corrupted: LocalPredicates,
}

/// Runs the edge-formulation pipeline on `f` with the alias-aware memory
/// kill *dropped* in one seeded killer block: the block's `TRANSP` gets
/// its `Mem` bits back (and its `KILL` loses them), exactly as if the
/// implementation forgot that a `store` or impure `call` may write any
/// heap cell. The planner then sees loads as loop-invariant across
/// may-alias stores and will happily hoist them — the memory bug this PR's
/// validator rule exists to catch.
///
/// Returns `Ok(None)` when the fault does not apply: `f` has no load
/// expressions or no memory-writing instructions.
///
/// # Errors
///
/// Propagates [`PipelineError`] if a solve over the corrupted predicates
/// diverges.
pub fn optimize_with_dropped_store_kill(
    f: &Function,
    seed: u64,
) -> Result<Option<DroppedStoreKill>, PipelineError> {
    let uni = ExprUniverse::of(f);
    let mem: Vec<usize> = uni
        .iter()
        .filter(|(_, e)| matches!(e, Expr::Mem(_)))
        .map(|(i, _)| i)
        .collect();
    if mem.is_empty() {
        return Ok(None);
    }
    let killers: Vec<usize> = f
        .block_ids()
        .filter(|&b| f.block(b).instrs.iter().any(|i| i.kills_memory()))
        .map(|b| b.index())
        .collect();
    if killers.is_empty() {
        return Ok(None);
    }
    let mut local = LocalPredicates::compute(f, &uni);
    let mut state = seed ^ 0x5EED_FA17_u64;
    let b = killers[(splitmix64(&mut state) % killers.len() as u64) as usize];
    for &e in &mem {
        local.transp[b].insert(e);
        local.kill[b].remove(e);
    }
    let strategy = SolveStrategy::default();
    let mut scratch = SolverScratch::new();
    let view = CfgView::new(f);
    let ga = GlobalAnalyses::compute_with(f, &uni, &local, &view, strategy, &mut scratch)?;
    let lazy = lazy_edge_plan_with(f, &uni, &local, &ga, &view, strategy, &mut scratch)?;
    let transform = apply_plan(f, &uni, &local, &lazy.plan);
    Ok(Some(DroppedStoreKill {
        opt: Optimized {
            function: transform.function.clone(),
            transform,
            plan: lazy.plan,
            input: f.clone(),
            algorithm: PreAlgorithm::LazyEdge,
            pipeline_stats: None,
            spec: None,
        },
        corrupted: local,
    }))
}

/// Scrambles the retained AVAIL/ANTIC/LATER fixpoints of an
/// [`IncrementalState`] in place — modelling a daemon's per-function
/// `PrevSolve` state rotting (or bleeding) between requests, the
/// incremental twin of scratch poisoning. The scramble is seeded and
/// always lands; shape invariants are preserved, so the poisoned state is
/// *plausible*: the delta solver will happily reuse it, and only the
/// unconditional fast-tier validation inside
/// `optimize_incremental_checked_with` (or a loud solver divergence)
/// stands between the garbage and the output. The
/// faults suite pins that dichotomy: every poisoned run is caught or
/// bit-identical to fresh, never silently wrong.
pub fn poison_prev_solve(state: &mut IncrementalState, seed: u64) {
    state.poison_solutions(seed);
}

/// Corrupts the span memo an engine retains for function `name` — seeded
/// garbage over the retained output text and, when `rot_span`, a rotted
/// section text, modelling a memo that outlived the revision it was
/// minted for. Reached through
/// [`BatchEngine::span_memo_mut`](lcm_driver::BatchEngine::span_memo_mut).
/// The driver's defense is *keying*, not re-validation: the span memo
/// replays only a byte-identical section under the same options, so an
/// edited function never meets the garbage, and a rotted span matches no
/// revision, which recomputes and re-memoizes the honest answer. The
/// faults suite pins both halves.
///
/// Returns `false` (nothing touched) when `name` has no span memo.
pub fn poison_span_memo(
    engine: &mut lcm_driver::BatchEngine,
    name: &str,
    seed: u64,
    rot_span: bool,
) -> bool {
    let Some((prev, span)) = engine.span_memo_mut(name) else {
        return false;
    };
    let mut state = seed ^ 0x5EED_FA17_u64;
    prev.output_text = format!("; poisoned memo {:016x}\n", splitmix64(&mut state));
    if rot_span {
        let mut state = seed ^ 0x5A4E_0F5E_u64;
        *span = format!("{span}\n# rot {:016x}", splitmix64(&mut state)).into();
    }
    true
}

/// Corrupts one weight of an edge profile in place — modelling bit-rot or
/// a buggy profiler writing the textual profile section the driver later
/// trusts. The perturbation is seeded and always *lands* (the chosen
/// weight provably changes); whether it is *detectable* depends on the
/// CFG — on a block with a single in- and out-edge the result may still
/// conserve flow and parse cleanly, which is exactly why the speculative
/// planner must stay safe under arbitrary weights, not merely reject
/// inconsistent ones. The faults suite pins both halves: inconsistent
/// corruptions are refused by [`Profile::resolve`], and consistent ones
/// still validate and pass differential execution.
///
/// Returns `false` (profile untouched) when there are no entries to
/// corrupt.
pub fn corrupt_profile_weights(profile: &mut Profile, seed: u64) -> bool {
    let n = profile.entries.len();
    if n == 0 {
        return false;
    }
    let mut state = seed ^ 0x5EED_FA17_u64;
    let i = (splitmix64(&mut state) % n as u64) as usize;
    let delta = 1 + splitmix64(&mut state) % 1000;
    let w = &mut profile.entries[i].weight;
    *w = if splitmix64(&mut state).is_multiple_of(2) {
        w.saturating_add(delta)
    } else {
        w.checked_sub(delta).unwrap_or(w.wrapping_add(delta))
    };
    true
}

/// Appends an orphan block that jumps to the exit — the residue of a
/// split whose predecessor was never retargeted, for subjects where no
/// real split block exists. Always applicable.
pub fn inject_orphan_block(opt: &mut Optimized) {
    let exit = opt.function.exit();
    let mut data = BlockData::new("orphan.split");
    data.term = Terminator::Jump(exit);
    opt.function.add_block(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_core::validate::{validate_optimized, ValidationError, ValidationLevel};
    use lcm_core::{optimize, PreAlgorithm};
    use lcm_ir::{parse_function, VerifyError};

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

    /// `a` is redefined on the left arm, so inserting `a + b` on the
    /// virtual entry edge is inadmissible: the entry is not down-safe.
    const KILLS: &str = "fn p {
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
        }";

    /// `entry -> join` is a critical edge, so the edge formulation must
    /// materialise a split block to host its insertion.
    const CRITICAL: &str = "fn crit {
        entry:
          br c, l, join
        l:
          x = a + b
          jmp join
        join:
          y = a + b
          obs y
          ret
        }";

    fn optimized(src: &str, alg: PreAlgorithm) -> (lcm_ir::Function, Optimized) {
        let f = parse_function(src).unwrap();
        let opt = optimize(&f, alg).unwrap();
        (f, opt)
    }

    #[test]
    fn flipped_plan_bit_is_rejected() {
        let (f, mut opt) = optimized(KILLS, PreAlgorithm::LazyEdge);
        assert!(inject(&mut opt, Fault::FlipPlanBit, 11));
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::UnsafeInsertion(_) | ValidationError::InsertionNotInLater { .. }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn dropped_insertion_is_rejected() {
        let (f, mut opt) = optimized(DIAMOND, PreAlgorithm::LazyEdge);
        assert!(inject(&mut opt, Fault::DropInsertion, 5));
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::MaybeUnassigned(_) | ValidationError::InsertionBookkeeping { .. }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn duplicated_insertion_is_rejected() {
        let (f, mut opt) = optimized(DIAMOND, PreAlgorithm::LazyEdge);
        assert!(inject(&mut opt, Fault::DuplicateInsertion, 5));
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(
            matches!(err, ValidationError::InsertionBookkeeping { .. }),
            "unexpected {err}"
        );
    }

    #[test]
    fn mistargeted_split_is_rejected() {
        let (f, mut opt) = optimized(CRITICAL, PreAlgorithm::LazyEdge);
        assert!(
            inject(&mut opt, Fault::MistargetSplit, 5),
            "expected a split block on the critical edge; blocks: {:?}",
            opt.function
                .block_ids()
                .map(|b| opt.function.block(b).name.clone())
                .collect::<Vec<_>>()
        );
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Structural {
                    stage: "output",
                    error: VerifyError::Unreachable(_),
                }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn corrupted_terminator_is_rejected() {
        let (f, mut opt) = optimized(DIAMOND, PreAlgorithm::LazyEdge);
        assert!(inject(&mut opt, Fault::CorruptTerminator, 5));
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Structural {
                    stage: "output",
                    error: VerifyError::DanglingTarget { .. },
                }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn every_fault_class_is_caught_across_seeds_and_algorithms() {
        // The exhaustive sweep: every applicable (fault, algorithm, seed)
        // combination must be rejected by the validator. The subject is
        // chosen per fault class so the corruption is always detectable.
        for fault in Fault::ALL {
            let src = match fault {
                Fault::FlipPlanBit => KILLS,
                Fault::MistargetSplit => CRITICAL,
                _ => DIAMOND,
            };
            for alg in [
                PreAlgorithm::Busy,
                PreAlgorithm::LazyEdge,
                PreAlgorithm::LazyNode,
            ] {
                for seed in 0..4u64 {
                    let (f, mut opt) = optimized(src, alg);
                    if !inject(&mut opt, fault, seed) {
                        continue; // fault class not applicable to this pass
                    }
                    let res = validate_optimized(&f, &opt, ValidationLevel::Full, seed);
                    assert!(
                        res.is_err(),
                        "{} survived {} (seed {seed})",
                        fault.name(),
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    fn orphan_block_is_rejected_even_without_real_splits() {
        let (f, mut opt) = optimized(DIAMOND, PreAlgorithm::LazyEdge);
        inject_orphan_block(&mut opt);
        let err = validate_optimized(&f, &opt, ValidationLevel::Fast, 0).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Structural {
                    stage: "output",
                    error: VerifyError::Unreachable(_),
                }
            ),
            "unexpected {err}"
        );
    }

    #[test]
    fn corrupt_profile_perturbs_exactly_one_weight_deterministically() {
        use lcm_cfggen::{structured, synthetic_profile, GenOptions};
        let f = structured(5, &GenOptions::default());
        let p0 = synthetic_profile(&f, 9);
        let mut a = p0.clone();
        let mut b = p0.clone();
        assert!(corrupt_profile_weights(&mut a, 42));
        assert!(corrupt_profile_weights(&mut b, 42));
        assert_eq!(a, b);
        assert_ne!(a, p0);
        let diffs = a
            .entries
            .iter()
            .zip(&p0.entries)
            .filter(|(x, y)| x != y)
            .count();
        assert_eq!(diffs, 1);

        // A profile with no entries (edgeless function) cannot be
        // corrupted.
        let one = parse_function("fn one {\n entry:\n ret\n }").unwrap();
        let mut empty = lcm_cfggen::synthetic_profile(&one, 0);
        assert!(!corrupt_profile_weights(&mut empty, 1));
    }

    #[test]
    fn corrupted_profiles_never_produce_unsafe_placements() {
        use lcm_cfggen::{corpus, synthetic_profile, GenOptions};
        use lcm_core::{optimize_speculative_checked_with, weights_or_unit, EdgeWeights};
        use lcm_dataflow::{SolveStrategy, SolverScratch};
        let mut refused = 0usize;
        let mut resolved = 0usize;
        for (i, f) in corpus(0xC0FF, 24, &GenOptions::default())
            .iter()
            .enumerate()
        {
            let mut p = synthetic_profile(f, 3);
            if !corrupt_profile_weights(&mut p, i as u64) {
                continue;
            }
            // Either the corruption breaks flow conservation and the
            // resolver refuses it (the driver falls back to unit weights),
            // or it happens to still conserve and resolves — in which case
            // the textual round trip accepts it too. Track both outcomes.
            match EdgeWeights::from_profile(f, &p) {
                Ok(_) => resolved += 1,
                Err(_) => refused += 1,
            }
            // In both cases the speculative pass must produce a fully
            // valid, observationally equivalent result: weights steer only
            // the cost model, never the safety argument.
            let w = weights_or_unit(f, Some(&p));
            let (level, strategy) = (ValidationLevel::Full, SolveStrategy::default());
            let scratch = &mut SolverScratch::new();
            optimize_speculative_checked_with(f, &w, level, i as u64, strategy, scratch)
                .unwrap_or_else(|e| panic!("corrupted profile broke function {i}: {e}"));
        }
        // The corpus is large enough to exercise both outcomes.
        assert!(refused > 0, "no corruption was refused by resolution");
        assert!(resolved + refused >= 20);
    }

    #[test]
    fn dropped_store_kill_is_caught() {
        // A loop-carried may-alias store in a separate block from the
        // load: with the memory kill dropped, the load looks loop-invariant
        // and the planner hoists it, leaving `obs x` reading a stale cell.
        let f = parse_function(
            "fn alias {
             entry:
               i = 3
               jmp head
             head:
               x = load p
               obs x
               jmp body
             body:
               store p, i
               i = i - 1
               br i, head, done
             done:
               ret
             }",
        )
        .unwrap();
        let injected = optimize_with_dropped_store_kill(&f, 7)
            .unwrap()
            .expect("function has loads and a store");
        // The new validator rule fires on the corrupted predicate table —
        // the exact state a kill-dropping implementation would present.
        let uni = lcm_core::ExprUniverse::of(&f);
        let err = lcm_core::check_memory_kills(&f, &uni, &injected.corrupted).unwrap_err();
        assert!(
            matches!(err, ValidationError::MemoryKillDropped { .. }),
            "unexpected {err}"
        );
        // End-to-end, the result planned over those predicates is rejected
        // (full tier: the hoisted load observably reads a stale value).
        let res = validate_optimized(&f, &injected.opt, ValidationLevel::Full, 7);
        assert!(res.is_err(), "dropped store kill survived validation");
        // Deterministic per seed.
        let again = optimize_with_dropped_store_kill(&f, 7).unwrap().unwrap();
        assert_eq!(
            injected.opt.function.to_string(),
            again.opt.function.to_string()
        );
        // Not applicable to memory-free subjects.
        let pure = parse_function(DIAMOND).unwrap();
        assert!(optimize_with_dropped_store_kill(&pure, 0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn poisoned_span_memo_is_never_replayed() {
        use lcm_driver::{BatchEngine, BatchOptions, IncrementalMode};
        use lcm_ir::parse_module;

        let edited = DIAMOND.replace("y = a + b", "y = a + b\n          a = 1");
        let m0 = parse_module(DIAMOND).unwrap();
        let m1 = parse_module(&edited).unwrap();
        let want = {
            let mut fresh = BatchEngine::new(BatchOptions::default());
            fresh.run_module_incremental(&m1)[0]
                .outcome
                .clone()
                .unwrap()
        };

        // An edited function against a poisoned span memo (span and key
        // intact): its section bytes differ, so the memo is bypassed, the
        // unit delta-solves, and the garbage text never surfaces.
        let mut engine = BatchEngine::new(BatchOptions::default());
        engine.run_module_incremental(&m0);
        assert!(poison_span_memo(&mut engine, "d", 5, false));
        let units = engine.run_module_incremental(&m1);
        assert_eq!(units[0].mode, IncrementalMode::Delta);
        assert_eq!(units[0].outcome.clone().unwrap(), want);

        // An *identical* revision against a memo whose span rotted: no
        // section matches the rotted bytes, so the unit is verified and
        // solved — a delta with nothing dirty — and the honest answer is
        // memoized again.
        let mut engine = BatchEngine::new(BatchOptions::default());
        let first = engine.run_module_incremental(&m0)[0]
            .outcome
            .clone()
            .unwrap();
        assert!(poison_span_memo(&mut engine, "d", 6, true));
        let units = engine.run_module_incremental(&m0);
        assert_eq!(units[0].mode, IncrementalMode::Delta);
        assert_eq!(units[0].stats.dirty_blocks, 0);
        assert_eq!(units[0].outcome.clone().unwrap(), first);
        let units = engine.run_module_incremental(&m0);
        assert_eq!(units[0].mode, IncrementalMode::ZeroDirty);
        assert_eq!(units[0].outcome.clone().unwrap(), first);
        assert!(engine.span_memo_mut("d").is_some());

        // Only a span memo minted from module text can be poisoned.
        let mut engine = BatchEngine::new(BatchOptions::default());
        engine.run_module_incremental(&lcm_ir::Module::new(m0.functions().to_vec()));
        assert!(!poison_span_memo(&mut engine, "d", 7, false));
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        for fault in Fault::ALL {
            let src = if fault == Fault::MistargetSplit {
                CRITICAL
            } else {
                DIAMOND
            };
            let (_, mut a) = optimized(src, PreAlgorithm::LazyEdge);
            let (_, mut b) = optimized(src, PreAlgorithm::LazyEdge);
            let ra = inject(&mut a, fault, 99);
            let rb = inject(&mut b, fault, 99);
            assert_eq!(ra, rb);
            for blk in a.function.block_ids() {
                assert_eq!(a.function.block(blk), b.function.block(blk));
            }
            assert_eq!(a.plan.entry_insert, b.plan.entry_insert);
        }
    }
}
