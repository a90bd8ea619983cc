//! The `lcm-cache-v1` on-disk plan-cache format.
//!
//! A persisted cache lets `lcmopt serve` (and `lcmopt batch --cache-file`)
//! restart warm: entries computed before a crash or redeploy are
//! re-hydrated as **thin** [`CacheEntry`]s and re-validated on every hit
//! (see `revalidate_entry` in the crate root), so the file is a
//! performance artifact, never a trust root. The format is designed for
//! hostile and half-written files:
//!
//! * **Versioned** — an 8-byte magic (`LCMCACHE`) plus a format version;
//!   anything else is refused before a single entry is parsed.
//! * **Checksummed** — every entry carries a 64-bit FNV-1a checksum over
//!   its serialised bytes, and the counter footer carries its own; a
//!   flipped bit anywhere is a load error, not a wrong answer.
//! * **Atomic** — [`save_cache`] writes to a `.tmp` sibling, fsyncs, then
//!   renames over the destination, so a `kill -9` mid-write leaves either
//!   the old file or the new one, never a torn hybrid.
//! * **Quarantined** — [`load_or_quarantine`] moves an unloadable file to
//!   a `.corrupt` sidecar (preserving the evidence) and hands back a cold
//!   cache, so a corrupt file costs warmth, not availability.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! "LCMCACHE"  8 bytes   magic
//! version     u32       format version (currently 3)
//! count       u64       number of entries
//! count × entry:
//!   key         u128    content fingerprint
//!   input_len   u32     byte length of the canonical input text
//!   output_len  u32     byte length of the canonical output text
//!   input       bytes   canonical input (context suffix included)
//!   output      bytes   canonical output
//!   stats       22×u64  pipeline (3×5), transform (5), checks, inputs
//!   checksum    u64     FNV-1a-64 over this entry's preceding bytes
//! "LCMSTATS"  8 bytes   footer magic
//! counters    12×u64    lifetime hits, misses, evictions, quarantines,
//!                       incremental hits, delta blocks resolved,
//!                       zero-dirty hits, and the five edit-class
//!                       counters (content, universe-grow,
//!                       universe-shrink, shape-mapped, fallback)
//! checksum    u64       FNV-1a-64 over footer magic + counters
//! <end of file — trailing bytes are an error>
//! ```

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use lcm_core::transform::TransformStats;
use lcm_core::PipelineStats;
use lcm_dataflow::SolveStats;

use crate::cache::{CacheEntry, CacheStats, PlanCache};

/// The file magic opening every `lcm-cache-v1` file.
pub const CACHE_MAGIC: &[u8; 8] = b"LCMCACHE";
/// The footer magic introducing the lifetime counters.
pub const STATS_MAGIC: &[u8; 8] = b"LCMSTATS";
/// The format version this build reads and writes. Version 2 widened the
/// counter footer from 4 to 6 u64s (incremental hits, delta blocks
/// resolved); version 3 widened it again to 12 (zero-dirty memo hits and
/// the per-class edit ledger). Older files are refused with
/// [`CacheFileError::VersionSkew`] and quarantined, costing warmth once,
/// never correctness.
pub const CACHE_FORMAT_VERSION: u32 = 3;

/// u64 stat fields per entry: 15 pipeline + 5 transform + 2 validation.
const STAT_FIELDS: usize = 22;

/// Cache counters that survive restarts, persisted in the file footer.
///
/// The in-memory [`CacheStats`] counts this process; these count the
/// cache file's whole life across every process that carried it. The
/// `quarantines` counter has no in-memory twin: it counts whole files
/// quarantined at load plus persisted entries evicted after failing
/// hit-revalidation.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LifetimeCounters {
    /// Lookups answered from cached state, lifetime.
    pub hits: u64,
    /// Lookups that required a pipeline run, lifetime.
    pub misses: u64,
    /// Entries evicted to stay within capacity, lifetime.
    pub evictions: u64,
    /// Corrupt cache files quarantined at load, plus persisted entries
    /// refused by hit-revalidation, lifetime.
    pub quarantines: u64,
    /// Units answered by the incremental hot path — a retained fixpoint
    /// delta-solved instead of a from-scratch pipeline run — lifetime.
    /// Like `quarantines`, this has no [`CacheStats`] twin: the engine
    /// accumulates it directly.
    pub incremental_hits: u64,
    /// Blocks actually re-solved across those incremental hits — the
    /// "charged only for what changed" bill, lifetime.
    pub delta_blocks_resolved: u64,
    /// Byte-identical `fn` sections answered by the span memo (no
    /// solve, rewrite, validation, or print work at all), lifetime.
    pub zero_dirty_hits: u64,
    /// Same-shape, same-universe content edits delta-solved, lifetime.
    pub content_edits: u64,
    /// Universe-growing edits answered by in-place column widening,
    /// lifetime.
    pub universe_grow_edits: u64,
    /// Universe-shrinking edits answered by column remapping, lifetime.
    pub universe_shrink_edits: u64,
    /// One-block shape edits mapped onto the delta path, lifetime.
    pub shape_mapped_edits: u64,
    /// Edits that forced the full-solve fallback, lifetime.
    pub fallback_edits: u64,
}

impl LifetimeCounters {
    /// These counters plus a process's [`CacheStats`] — the totals to
    /// persist (and report) after that process's session. The incremental
    /// counters have no `CacheStats` twin and pass through unchanged; the
    /// engine adds its session's increments itself.
    pub fn plus_session(mut self, session: CacheStats) -> Self {
        self.hits += session.hits as u64;
        self.misses += session.misses as u64;
        self.evictions += session.evictions as u64;
        self
    }
}

impl fmt::Display for LifetimeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} evictions, {} quarantines, \
             {} incremental hits, {} delta blocks, {} zero-dirty hits; \
             edits: {} content, {} universe-grow, {} universe-shrink, \
             {} shape-mapped, {} fallback",
            self.hits,
            self.misses,
            self.evictions,
            self.quarantines,
            self.incremental_hits,
            self.delta_blocks_resolved,
            self.zero_dirty_hits,
            self.content_edits,
            self.universe_grow_edits,
            self.universe_shrink_edits,
            self.shape_mapped_edits,
            self.fallback_edits
        )
    }
}

/// Why a cache file was refused. Every variant quarantines the whole
/// file: a cache that lies about one byte cannot be trusted about any.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CacheFileError {
    /// The file does not start with [`CACHE_MAGIC`].
    NotACache,
    /// The file's format version is not [`CACHE_FORMAT_VERSION`].
    VersionSkew {
        /// The version the file claims.
        found: u32,
    },
    /// The file ends before the structure it promises.
    Truncated {
        /// What was being read when the bytes ran out.
        reading: &'static str,
    },
    /// An entry's stored checksum does not match its bytes.
    EntryChecksum {
        /// Zero-based index of the offending entry.
        index: u64,
    },
    /// An entry's text is not valid UTF-8 (despite a matching checksum —
    /// only possible for a file we did not write).
    BadText {
        /// Zero-based index of the offending entry.
        index: u64,
    },
    /// The footer magic is wrong — entries ran into the counter block.
    BadFooter,
    /// The footer's stored checksum does not match its bytes.
    FooterChecksum,
    /// Bytes remain after the footer.
    TrailingGarbage {
        /// How many bytes too many.
        extra: usize,
    },
    /// The file could not be read at all.
    Io(String),
}

impl fmt::Display for CacheFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheFileError::NotACache => write!(f, "not an lcm-cache file (bad magic)"),
            CacheFileError::VersionSkew { found } => write!(
                f,
                "cache format version {found} (this build reads {CACHE_FORMAT_VERSION})"
            ),
            CacheFileError::Truncated { reading } => {
                write!(f, "file truncated while reading {reading}")
            }
            CacheFileError::EntryChecksum { index } => {
                write!(f, "entry {index} fails its checksum")
            }
            CacheFileError::BadText { index } => {
                write!(f, "entry {index} holds text that is not UTF-8")
            }
            CacheFileError::BadFooter => write!(f, "counter footer magic missing"),
            CacheFileError::FooterChecksum => write!(f, "counter footer fails its checksum"),
            CacheFileError::TrailingGarbage { extra } => {
                write!(f, "{extra} trailing bytes after the footer")
            }
            CacheFileError::Io(e) => write!(f, "reading cache file: {e}"),
        }
    }
}

impl std::error::Error for CacheFileError {}

/// How [`load_or_quarantine`] obtained its cache.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LoadStatus {
    /// No file existed; the cache starts cold.
    Fresh,
    /// The file loaded and verified; the cache starts warm.
    Loaded {
        /// Entries re-hydrated (after any capacity trimming).
        entries: usize,
    },
    /// The file was refused and moved aside; the cache starts cold.
    Quarantined {
        /// Why the file was refused.
        error: CacheFileError,
        /// Where the evidence went.
        sidecar: PathBuf,
    },
}

/// Atomically writes `cache` (plus the lifetime `counters`) to `path` in
/// the `lcm-cache-v1` format: serialise to `<path>.tmp`, fsync, rename.
/// Entries are written in FIFO order, so save → load preserves the
/// eviction order along with the contents.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the file.
pub fn save_cache(path: &Path, cache: &PlanCache, counters: LifetimeCounters) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(CACHE_MAGIC);
    buf.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(cache.len() as u64).to_le_bytes());
    for (key, entry) in cache.iter_fifo() {
        let start = buf.len();
        buf.extend_from_slice(&key.to_le_bytes());
        buf.extend_from_slice(&(entry.canonical_input.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(entry.output_text.len() as u32).to_le_bytes());
        buf.extend_from_slice(entry.canonical_input.as_bytes());
        buf.extend_from_slice(entry.output_text.as_bytes());
        for stat in entry_stats(entry) {
            buf.extend_from_slice(&stat.to_le_bytes());
        }
        let checksum = fnv1a_64(&buf[start..]);
        buf.extend_from_slice(&checksum.to_le_bytes());
    }
    let footer_start = buf.len();
    buf.extend_from_slice(STATS_MAGIC);
    for c in [
        counters.hits,
        counters.misses,
        counters.evictions,
        counters.quarantines,
        counters.incremental_hits,
        counters.delta_blocks_resolved,
        counters.zero_dirty_hits,
        counters.content_edits,
        counters.universe_grow_edits,
        counters.universe_shrink_edits,
        counters.shape_mapped_edits,
        counters.fallback_edits,
    ] {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    let checksum = fnv1a_64(&buf[footer_start..]);
    buf.extend_from_slice(&checksum.to_le_bytes());

    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows directory
    // fsync; the rename's atomicity does not depend on it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Loads a `lcm-cache-v1` file into a cache of `capacity` (0 = unbounded),
/// verifying magic, version, every entry checksum, and the footer. Loaded
/// entries are **thin** — they carry no plan and are re-validated from
/// first principles on every hit.
///
/// # Errors
///
/// A [`CacheFileError`] describing the first defect found; on error the
/// caller should treat the file as corrupt (see [`load_or_quarantine`]).
pub fn load_cache(
    path: &Path,
    capacity: usize,
) -> Result<(PlanCache, LifetimeCounters), CacheFileError> {
    let bytes = fs::read(path).map_err(|e| CacheFileError::Io(e.to_string()))?;
    let mut r = Reader {
        bytes: &bytes,
        pos: 0,
    };

    if r.take(8, "magic")? != CACHE_MAGIC {
        return Err(CacheFileError::NotACache);
    }
    let version = u32::from_le_bytes(r.take(4, "version")?.try_into().unwrap());
    if version != CACHE_FORMAT_VERSION {
        return Err(CacheFileError::VersionSkew { found: version });
    }
    let count = u64::from_le_bytes(r.take(8, "entry count")?.try_into().unwrap());

    let mut cache = PlanCache::new(capacity);
    for index in 0..count {
        let start = r.pos;
        let key = u128::from_le_bytes(r.take(16, "entry key")?.try_into().unwrap());
        let input_len = u32::from_le_bytes(r.take(4, "entry lengths")?.try_into().unwrap());
        let output_len = u32::from_le_bytes(r.take(4, "entry lengths")?.try_into().unwrap());
        let input = r.take(input_len as usize, "entry input text")?;
        let output = r.take(output_len as usize, "entry output text")?;
        let mut stats = [0u64; STAT_FIELDS];
        for s in &mut stats {
            *s = u64::from_le_bytes(r.take(8, "entry stats")?.try_into().unwrap());
        }
        let body_end = r.pos;
        let stored = u64::from_le_bytes(r.take(8, "entry checksum")?.try_into().unwrap());
        if fnv1a_64(&bytes[start..body_end]) != stored {
            return Err(CacheFileError::EntryChecksum { index });
        }
        let canonical_input =
            String::from_utf8(input.to_vec()).map_err(|_| CacheFileError::BadText { index })?;
        let output_text =
            String::from_utf8(output.to_vec()).map_err(|_| CacheFileError::BadText { index })?;
        cache.insert_silent(key, thin_entry(canonical_input, output_text, &stats));
    }

    if r.take(8, "footer magic")? != STATS_MAGIC {
        return Err(CacheFileError::BadFooter);
    }
    let footer_start = r.pos - 8;
    let mut counters = [0u64; 12];
    for c in &mut counters {
        *c = u64::from_le_bytes(r.take(8, "footer counters")?.try_into().unwrap());
    }
    let footer_end = r.pos;
    let stored = u64::from_le_bytes(r.take(8, "footer checksum")?.try_into().unwrap());
    if fnv1a_64(&bytes[footer_start..footer_end]) != stored {
        return Err(CacheFileError::FooterChecksum);
    }
    if r.pos != bytes.len() {
        return Err(CacheFileError::TrailingGarbage {
            extra: bytes.len() - r.pos,
        });
    }

    Ok((
        cache,
        LifetimeCounters {
            hits: counters[0],
            misses: counters[1],
            evictions: counters[2],
            quarantines: counters[3],
            incremental_hits: counters[4],
            delta_blocks_resolved: counters[5],
            zero_dirty_hits: counters[6],
            content_edits: counters[7],
            universe_grow_edits: counters[8],
            universe_shrink_edits: counters[9],
            shape_mapped_edits: counters[10],
            fallback_edits: counters[11],
        },
    ))
}

/// Loads `path` if it exists and verifies, quarantines it otherwise.
///
/// * Missing file → a cold cache, zero counters, [`LoadStatus::Fresh`].
/// * Valid file → the warm cache and its lifetime counters.
/// * Corrupt file → the file is renamed to `<path>.corrupt` (the
///   **sidecar**, preserving the evidence for forensics), and a cold
///   cache is returned with `quarantines = 1` — the corrupt file's own
///   counters are untrusted along with everything else in it.
///
/// This function never fails: even an unreadable or unmovable file
/// degrades to a cold cache (with the quarantine counted), because a
/// serving process must come up regardless of what it finds on disk.
pub fn load_or_quarantine(
    path: &Path,
    capacity: usize,
) -> (PlanCache, LifetimeCounters, LoadStatus) {
    if !path.exists() {
        return (
            PlanCache::new(capacity),
            LifetimeCounters::default(),
            LoadStatus::Fresh,
        );
    }
    match load_cache(path, capacity) {
        Ok((cache, counters)) => {
            let entries = cache.len();
            (cache, counters, LoadStatus::Loaded { entries })
        }
        Err(error) => {
            let sidecar = corrupt_sidecar(path);
            // Best-effort: if even the rename fails the file stays where it
            // was, but this process still refuses to load it.
            let _ = fs::rename(path, &sidecar);
            (
                PlanCache::new(capacity),
                LifetimeCounters {
                    quarantines: 1,
                    ..LifetimeCounters::default()
                },
                LoadStatus::Quarantined { error, sidecar },
            )
        }
    }
}

/// The `.tmp` sibling [`save_cache`] stages its write in.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// The `.corrupt` sidecar a refused file is quarantined to.
pub fn corrupt_sidecar(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".corrupt");
    PathBuf::from(os)
}

/// Flattens an entry's counters into the 22 persisted u64 fields.
fn entry_stats(entry: &CacheEntry) -> [u64; STAT_FIELDS] {
    let p = &entry.pipeline;
    let t = &entry.transform;
    let solve = |s: &SolveStats| {
        [
            s.iterations as u64,
            s.node_visits as u64,
            s.node_revisits as u64,
            s.word_ops,
            s.allocations,
        ]
    };
    let mut out = [0u64; STAT_FIELDS];
    out[0..5].copy_from_slice(&solve(&p.avail));
    out[5..10].copy_from_slice(&solve(&p.antic));
    out[10..15].copy_from_slice(&solve(&p.later));
    out[15..20].copy_from_slice(&[
        t.insertions as u64,
        t.deletions as u64,
        t.retained_defs as u64,
        t.edges_split as u64,
        t.temps as u64,
    ]);
    out[20] = entry.validation_checks as u64;
    out[21] = entry.inputs_sampled as u64;
    out
}

/// Rebuilds a thin [`CacheEntry`] from its persisted fields.
fn thin_entry(
    canonical_input: String,
    output_text: String,
    stats: &[u64; STAT_FIELDS],
) -> CacheEntry {
    let solve = |s: &[u64]| SolveStats {
        iterations: s[0] as usize,
        node_visits: s[1] as usize,
        node_revisits: s[2] as usize,
        word_ops: s[3],
        allocations: s[4],
    };
    CacheEntry {
        canonical_input,
        origin: None,
        output_text,
        pipeline: PipelineStats {
            avail: solve(&stats[0..5]),
            antic: solve(&stats[5..10]),
            later: solve(&stats[10..15]),
        },
        transform: TransformStats {
            insertions: stats[15] as usize,
            deletions: stats[16] as usize,
            retained_defs: stats[17] as usize,
            edges_split: stats[18] as usize,
            temps: stats[19] as usize,
        },
        validation_checks: stats[20] as usize,
        inputs_sampled: stats[21] as usize,
    }
}

/// 64-bit FNV-1a (hermetic workspace: no hashing crates). The cache key
/// hash stays 128-bit; 64 bits is ample for detecting accidental file
/// corruption, which is what this one guards.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Byte-slice cursor with typed truncation errors.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, reading: &'static str) -> Result<&'a [u8], CacheFileError> {
        if self.bytes.len() - self.pos < n {
            return Err(CacheFileError::Truncated { reading });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchEngine, BatchOptions};

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcm-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn warm_engine() -> BatchEngine {
        let m = lcm_ir::parse_module(
            "fn a {\nentry:\n  x = p + q\n  obs x\n  ret\n}\n\n\
             fn b {\nentry:\n  y = p * q\n  obs y\n  ret\n}",
        )
        .unwrap();
        let mut engine = BatchEngine::new(BatchOptions {
            jobs: 1,
            ..BatchOptions::default()
        });
        engine.run_module(&m);
        engine
    }

    #[test]
    fn save_load_round_trips_entries_counters_and_order() {
        let dir = tempdir("roundtrip");
        let path = dir.join("plans.lcmcache");
        let engine = warm_engine();
        let counters = LifetimeCounters {
            hits: 7,
            misses: 11,
            evictions: 2,
            quarantines: 1,
            incremental_hits: 5,
            delta_blocks_resolved: 42,
            zero_dirty_hits: 9,
            content_edits: 13,
            universe_grow_edits: 3,
            universe_shrink_edits: 2,
            shape_mapped_edits: 4,
            fallback_edits: 1,
        };
        save_cache(&path, engine.cache(), counters).unwrap();

        let (loaded, got) = load_cache(&path, 0).unwrap();
        assert_eq!(got, counters);
        assert_eq!(loaded.len(), engine.cache().len());
        for ((k1, e1), (k2, e2)) in engine.cache().iter_fifo().zip(loaded.iter_fifo()) {
            assert_eq!(k1, k2);
            assert_eq!(e1.canonical_input, e2.canonical_input);
            assert_eq!(e1.output_text, e2.output_text);
            assert_eq!(e1.pipeline, e2.pipeline);
            assert_eq!(e1.transform, e2.transform);
            assert_eq!(e1.validation_checks, e2.validation_checks);
            assert_eq!(e1.inputs_sampled, e2.inputs_sampled);
            assert!(e1.origin.is_some());
            assert!(e2.origin.is_none(), "loaded entries must be thin");
        }
        assert!(
            !tmp_path(&path).exists(),
            "staging file must be renamed away"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_trims_to_capacity_like_fifo_eviction_without_counting() {
        let dir = tempdir("capacity");
        let path = dir.join("plans.lcmcache");
        let engine = warm_engine();
        assert_eq!(engine.cache().len(), 2);
        save_cache(&path, engine.cache(), LifetimeCounters::default()).unwrap();
        let (loaded, _) = load_cache(&path, 1).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.stats().evictions, 0);
        // The survivor is the newest entry, as FIFO eviction would leave.
        let newest = engine.cache().iter_fifo().last().unwrap().0;
        assert!(loaded.entry_ref(newest).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_fresh_not_an_error() {
        let dir = tempdir("fresh");
        let (cache, counters, status) = load_or_quarantine(&dir.join("absent.lcmcache"), 0);
        assert!(cache.is_empty());
        assert_eq!(counters, LifetimeCounters::default());
        assert_eq!(status, LoadStatus::Fresh);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_moves_the_file_aside_and_degrades_cold() {
        let dir = tempdir("quarantine");
        let path = dir.join("plans.lcmcache");
        fs::write(&path, b"definitely not a cache").unwrap();
        let (cache, counters, status) = load_or_quarantine(&path, 0);
        assert!(cache.is_empty());
        assert_eq!(counters.quarantines, 1);
        let LoadStatus::Quarantined { error, sidecar } = status else {
            panic!("expected quarantine, got {status:?}");
        };
        assert_eq!(error, CacheFileError::NotACache);
        assert!(!path.exists(), "refused file must be moved away");
        assert!(sidecar.exists(), "sidecar must preserve the evidence");
        assert_eq!(fs::read(&sidecar).unwrap(), b"definitely not a cache");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_cache_round_trips() {
        let dir = tempdir("empty");
        let path = dir.join("plans.lcmcache");
        save_cache(&path, &PlanCache::new(0), LifetimeCounters::default()).unwrap();
        let (cache, counters, status) = load_or_quarantine(&path, 0);
        assert!(cache.is_empty());
        assert_eq!(counters, LifetimeCounters::default());
        assert_eq!(status, LoadStatus::Loaded { entries: 0 });
        fs::remove_dir_all(&dir).unwrap();
    }
}
