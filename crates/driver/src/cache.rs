//! The content-addressed plan cache.
//!
//! Entries are keyed by a 128-bit FNV-1a hash of the **canonically
//! printed** function: the function renamed to a fixed placeholder
//! ([`CANONICAL_NAME`]) and formatted by the IR printer. Renaming is sound
//! because a function's name influences nothing the optimizer computes, so
//! duplicate bodies under different names share one entry; canonical
//! printing means label columns, comments and whitespace don't split
//! entries either. Each entry also stores its canonical text, and lookups
//! compare it, so a hash collision degrades to a miss instead of serving
//! the wrong plan.
//!
//! Eviction is FIFO at a fixed capacity. The driver performs insertions in
//! function-index order, which keeps the eviction sequence — and therefore
//! the hit/miss/eviction counters — identical for every `--jobs` value.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use lcm_core::transform::TransformStats;
use lcm_core::{Optimized, PipelineStats};
use lcm_ir::Function;

/// The placeholder name functions are canonicalised to before hashing.
pub const CANONICAL_NAME: &str = "__fn";

/// The in-process provenance of a cache entry: the pipeline's intermediate
/// state from the run that built it, kept to **re-validate** the cached
/// plan on a hit with the same validator that guards the live pipeline
/// (see the `lcm-faults` cache-poisoning tests).
#[derive(Clone, Debug)]
pub struct ComputedOrigin {
    /// The post-LCSE function the plan was computed for.
    pub pre_input: Function,
    /// The PRE result (plan + rewritten function) for `pre_input`.
    pub opt: Optimized,
}

/// One cached optimization result, addressed by content.
///
/// Entries computed in this process carry their [`ComputedOrigin`] and are
/// re-validated on a hit via the plan validator. Entries loaded from a
/// persisted `lcm-cache-v1` file are **thin** (`origin` is `None`): the
/// plan and analysis state are not serialised, so a thin hit is instead
/// re-validated by re-parsing both texts, re-verifying the IR, and running
/// seeded differential execution of input against output — an answer is
/// never served on the checksum's word alone.
#[derive(Clone, Debug)]
pub struct CacheEntry {
    /// Canonical source text of the function (collision guard).
    pub canonical_input: String,
    /// Intermediate state of the run that built the entry; `None` for thin
    /// entries loaded from disk.
    pub origin: Option<Box<ComputedOrigin>>,
    /// The final cleaned-up output, printed under [`CANONICAL_NAME`].
    pub output_text: String,
    /// Solver statistics of the fused pipeline run that built the entry.
    pub pipeline: PipelineStats,
    /// Rewrite counters of the run that built the entry.
    pub transform: TransformStats,
    /// Validator checks run when the entry was built.
    pub validation_checks: usize,
    /// Differential inputs sampled when the entry was built.
    pub inputs_sampled: usize,
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct CacheStats {
    /// Lookups answered from the cache (including intra-batch duplicates
    /// replayed from a just-computed leader).
    pub hits: usize,
    /// Lookups that required a pipeline run.
    pub misses: usize,
    /// Entries evicted to stay within capacity.
    pub evictions: usize,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} evictions",
            self.hits, self.misses, self.evictions
        )
    }
}

/// A FIFO-bounded content-addressed map from function fingerprints to
/// optimization results.
#[derive(Debug, Default)]
pub struct PlanCache {
    capacity: usize,
    map: HashMap<u128, CacheEntry>,
    order: VecDeque<u128>,
    stats: CacheStats,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` entries; `0` means
    /// unbounded.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            ..PlanCache::default()
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up `key`, verifying the stored canonical text matches (so a
    /// 128-bit collision reads as a miss, never as a wrong plan). Does not
    /// touch the counters; the driver counts hits and misses when it plans
    /// a batch.
    pub fn get(&self, key: u128, canonical_input: &str) -> Option<&CacheEntry> {
        self.map
            .get(&key)
            .filter(|e| e.canonical_input == canonical_input)
    }

    /// Immutable access to an entry by key alone, without the collision
    /// guard — for re-validating hits that were already text-checked when
    /// the batch was planned.
    pub fn entry_ref(&self, key: u128) -> Option<&CacheEntry> {
        self.map.get(&key)
    }

    /// Mutable access to an entry, **bypassing** the collision guard.
    ///
    /// This exists for fault injection: the `lcm-faults` crate corrupts
    /// cached plans through it to prove hit-revalidation catches them. It
    /// is not part of the normal driver path.
    pub fn entry_mut(&mut self, key: u128) -> Option<&mut CacheEntry> {
        self.map.get_mut(&key)
    }

    /// Records a lookup answered from cached state.
    pub fn note_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Records a lookup that required a pipeline run.
    pub fn note_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Inserts `entry` under `key`, evicting the oldest entry if the cache
    /// is full. Re-inserting an existing key replaces the entry without
    /// changing its age.
    pub fn insert(&mut self, key: u128, entry: CacheEntry) {
        if self.map.insert(key, entry).is_some() {
            return;
        }
        self.order.push_back(key);
        if self.capacity > 0 && self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.stats.evictions += 1;
            }
        }
    }

    /// Inserts a loaded entry without touching any counter — the
    /// persistence loader's path, so re-hydrating a cache file is
    /// observationally silent. If the file holds more entries than
    /// `capacity`, the oldest are dropped exactly as FIFO eviction would
    /// have dropped them, but without counting evictions.
    pub(crate) fn insert_silent(&mut self, key: u128, entry: CacheEntry) {
        if self.map.insert(key, entry).is_some() {
            return;
        }
        self.order.push_back(key);
        if self.capacity > 0 && self.map.len() > self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
            }
        }
    }

    /// Removes the entry under `key`, if any — the daemon's quarantine path
    /// for a persisted entry that fails hit-revalidation. Not counted as an
    /// eviction (the entry was refused, not aged out).
    pub fn remove(&mut self, key: u128) -> Option<CacheEntry> {
        let removed = self.map.remove(&key);
        if removed.is_some() {
            self.order.retain(|k| *k != key);
        }
        removed
    }

    /// Iterates the live entries in insertion (FIFO) order — the
    /// persistence writer's deterministic serialisation order.
    pub fn iter_fifo(&self) -> impl Iterator<Item = (u128, &CacheEntry)> {
        self.order
            .iter()
            .filter_map(|k| self.map.get(k).map(|e| (*k, e)))
    }
}

/// Fingerprints `f` for cache addressing: returns the 128-bit FNV-1a hash
/// of its canonical text, together with that text.
pub fn fingerprint(f: &Function) -> (u128, String) {
    fingerprint_with_context(f, "")
}

/// Fingerprints `f` under a placement `context` — a short string naming
/// anything beyond the function body that shaped the plan (the placement
/// algorithm, the resolved profile weights). Plans computed under
/// different contexts must never share a cache entry; an empty context
/// hashes exactly like [`fingerprint`], so profile-less speculative runs
/// (which fall back to plain LCM) share entries with LCM batches.
pub fn fingerprint_with_context(f: &Function, context: &str) -> (u128, String) {
    let text = contextual_text(canonical_text(f), context);
    let mut h = Fnv1a128::default();
    h.bytes(text.as_bytes());
    (h.0, text)
}

/// The key half of [`fingerprint_with_context`], hashed while printing:
/// the same bytes go through the same FNV-1a, so the key is the same, but
/// no text is built. For callers that need the key and never the text
/// (the watch cycle's retained state).
pub fn fingerprint_key(f: &Function, context: &str) -> u128 {
    let mut h = Fnv1a128::default();
    f.write_named(CANONICAL_NAME, &mut h)
        .expect("the hashing sink never fails");
    if !context.is_empty() {
        h.bytes(CONTEXT_SEPARATOR.as_bytes());
        h.bytes(context.as_bytes());
    }
    h.0
}

/// What [`contextual_text`] puts between a canonical text and its
/// placement context: a trailing comment line.
const CONTEXT_SEPARATOR: &str = "\n;; ";

/// Appends `context` to a canonical text as a trailing comment line. The
/// suffix is part of the stored `canonical_input`, so the collision guard
/// in [`PlanCache::get`] separates contexts even on a 128-bit collision.
pub(crate) fn contextual_text(mut text: String, context: &str) -> String {
    if !context.is_empty() {
        text.push_str(CONTEXT_SEPARATOR);
        text.push_str(context);
    }
    text
}

/// Splits a stored `canonical_input` back into the printed function text
/// and its placement-context suffix — the inverse of [`contextual_text`].
/// The `;; context` line is *not* IR (the parser's comments start with
/// `#`), so thin-entry revalidation must strip it before re-parsing.
pub(crate) fn split_context(canonical_input: &str) -> (&str, &str) {
    match canonical_input.split_once(CONTEXT_SEPARATOR) {
        Some((text, context)) => (text, context),
        None => (canonical_input, ""),
    }
}

/// Prints `f` under [`CANONICAL_NAME`], so same-body functions print
/// identically regardless of their names.
pub fn canonical_text(f: &Function) -> String {
    let mut text = String::new();
    f.write_named(CANONICAL_NAME, &mut text)
        .expect("writing to a String never fails");
    text
}

/// Rewrites the canonical header of `output_text` back to `name` for
/// presentation. The canonical text always starts with `fn __fn {`, so a
/// prefix swap is exact.
pub(crate) fn with_name(output_text: &str, name: &str) -> String {
    let header = format!("fn {CANONICAL_NAME} {{");
    let rest = output_text
        .strip_prefix(header.as_str())
        .expect("cached output text must start with the canonical header");
    format!("fn {name} {{{rest}")
}

/// 128-bit FNV-1a, as a [`fmt::Write`] sink so a function can be hashed
/// while it is printed. Hand-rolled (hermetic workspace: no hashing
/// crates); the 128-bit width makes accidental collisions over a corpus
/// astronomically unlikely, and the stored-text comparison in
/// [`PlanCache::get`] removes even that case from the correctness argument.
struct Fnv1a128(u128);

impl Default for Fnv1a128 {
    fn default() -> Self {
        Fnv1a128(0x6c62_272e_07bb_0142_62b8_2175_6295_c58d)
    }
}

impl Fnv1a128 {
    fn bytes(&mut self, bytes: &[u8]) {
        const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
        for &b in bytes {
            self.0 ^= u128::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

impl fmt::Write for Fnv1a128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_ir::parse_function;

    fn entry_for(f: &Function) -> (u128, CacheEntry) {
        let (key, text) = fingerprint(f);
        let opt = lcm_core::optimize(f, lcm_core::PreAlgorithm::LazyEdge).unwrap();
        let entry = CacheEntry {
            canonical_input: text,
            output_text: canonical_text(&opt.function),
            pipeline: opt.pipeline_stats.unwrap_or_default(),
            transform: opt.transform.stats,
            origin: Some(Box::new(ComputedOrigin {
                pre_input: f.clone(),
                opt,
            })),
            validation_checks: 0,
            inputs_sampled: 0,
        };
        (key, entry)
    }

    #[test]
    fn remove_drops_the_entry_and_its_age_slot() {
        let f = parse_function("fn a {\nentry:\n  x = p + q\n  ret\n}").unwrap();
        let (key, entry) = entry_for(&f);
        let mut cache = PlanCache::new(2);
        cache.insert(key, entry);
        assert!(cache.remove(key).is_some());
        assert!(cache.is_empty());
        assert!(cache.remove(key).is_none());
        assert_eq!(cache.iter_fifo().count(), 0);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn split_context_inverts_contextual_text() {
        let text = "fn __fn {\nentry:\n  ret\n}";
        assert_eq!(split_context(text), (text, ""));
        let ctx = contextual_text(text.to_string(), "spec entry=4,1,3");
        assert_eq!(split_context(&ctx), (text, "spec entry=4,1,3"));
    }

    #[test]
    fn context_splits_fingerprints_and_empty_context_does_not() {
        let f = parse_function("fn a {\nentry:\n  x = p + q\n  ret\n}").unwrap();
        assert_eq!(fingerprint(&f), fingerprint_with_context(&f, ""));
        let (k1, t1) = fingerprint_with_context(&f, "spec entry=4,1,3");
        let (k2, t2) = fingerprint_with_context(&f, "spec entry=4,2,2");
        assert_ne!(fingerprint(&f).0, k1);
        assert_ne!(k1, k2);
        assert_ne!(t1, t2);
        assert!(t1.ends_with(";; spec entry=4,1,3"));
    }

    #[test]
    fn fingerprint_ignores_the_function_name() {
        let a = parse_function("fn a {\nentry:\n  x = p + q\n  ret\n}").unwrap();
        let b = parse_function("fn b {\nentry:\n  x = p + q\n  ret\n}").unwrap();
        let c = parse_function("fn c {\nentry:\n  x = p - q\n  ret\n}").unwrap();
        assert_eq!(fingerprint(&a).0, fingerprint(&b).0);
        assert_ne!(fingerprint(&a).0, fingerprint(&c).0);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let fns: Vec<Function> = (0..3)
            .map(|i| parse_function(&format!("fn f {{\nentry:\n  x = p + {i}\n  ret\n}}")).unwrap())
            .collect();
        let mut cache = PlanCache::new(2);
        for f in &fns {
            let (key, entry) = entry_for(f);
            cache.insert(key, entry);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The first insert is the one evicted.
        let (k0, t0) = fingerprint(&fns[0]);
        assert!(cache.get(k0, &t0).is_none());
        let (k2, t2) = fingerprint(&fns[2]);
        assert!(cache.get(k2, &t2).is_some());
    }

    #[test]
    fn collision_guard_rejects_mismatched_text() {
        let f = parse_function("fn a {\nentry:\n  x = p + q\n  ret\n}").unwrap();
        let (key, entry) = entry_for(&f);
        let mut cache = PlanCache::new(0);
        cache.insert(key, entry);
        assert!(cache.get(key, "fn __fn {\nsomething else\n}").is_none());
        assert!(cache.get(key, &canonical_text(&f)).is_some());
    }

    #[test]
    fn name_substitution_round_trips() {
        let f = parse_function("fn real_name {\nentry:\n  x = p + q\n  ret\n}").unwrap();
        let canon = canonical_text(&f);
        assert_eq!(with_name(&canon, "real_name"), f.to_string());
    }
}
