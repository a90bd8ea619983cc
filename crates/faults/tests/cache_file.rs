//! Mutation tests for the `lcm-cache-v1` corruption classes: every
//! [`CacheFileFault`] must be refused by `load_cache`, quarantined by
//! `load_or_quarantine` (cold cache, evidence preserved in the `.corrupt`
//! sidecar), and survived by the batch engine — a corrupt file costs
//! cache warmth, never correctness or availability. A *valid* file holding
//! one bad entry ([`poison_persisted_entry`]) is caught per entry instead:
//! the hit is re-validated at every tier, and the entry is quarantined and
//! recomputed.

use std::path::{Path, PathBuf};

use lcm_core::validate::ValidationLevel;
use lcm_driver::{
    corrupt_sidecar, load_cache, load_or_quarantine, report, save_cache, tmp_path, BatchEngine,
    BatchOptions, CacheFileError, LifetimeCounters, LoadStatus, PlanCache, CACHE_FORMAT_VERSION,
};
use lcm_faults::{corrupt_cache_file, poison_persisted_entry, CacheFileFault};
use lcm_ir::parse_function;
use lcm_ir::parse_module;

const MODULE: &str = "fn d {
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
    }

    fn straight {
    entry:
      x = a * b
      y = a * b
      obs y
      ret
    }";

/// A scratch directory unique to this test, cleaned up on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("lcm-cache-file-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the batch engine over [`MODULE`] against `path` and flushes,
/// leaving a genuine warm cache file behind. Returns the text output.
fn build_cache_file(path: &Path) -> String {
    let m = parse_module(MODULE).expect("module parses");
    let mut engine = BatchEngine::with_cache_file(BatchOptions::default(), path);
    assert!(matches!(engine.load_status(), Some(LoadStatus::Fresh)));
    let result = engine.run_module(&m);
    assert_eq!(result.totals.failed, 0);
    engine.flush_cache_file().expect("flush cache file");
    assert!(path.exists());
    report::render_text(&result)
}

#[test]
fn every_corruption_class_is_refused_across_seeds() {
    let dir = TempDir::new("refused");
    for fault in CacheFileFault::ALL {
        for seed in 0..4u64 {
            let path = dir.path(&format!("{}-{seed}.cache", fault.name()));
            build_cache_file(&path);
            assert!(
                corrupt_cache_file(&path, fault, seed).expect("corruptor io"),
                "{} did not land (seed {seed})",
                fault.name()
            );
            let err = match load_cache(&path, 0) {
                Err(e) => e,
                Ok(_) => panic!("{} (seed {seed}) was not refused", fault.name()),
            };
            // Classes with a deterministic signature pin it exactly; the
            // positional ones (truncate, flip-byte) may surface as any
            // defect, and being refused at all is the contract.
            match fault {
                CacheFileFault::MagicSmash => {
                    assert!(matches!(err, CacheFileError::NotACache), "got {err}");
                }
                CacheFileFault::VersionSkew => {
                    assert!(
                        matches!(err, CacheFileError::VersionSkew { found }
                                 if found == CACHE_FORMAT_VERSION + 1),
                        "got {err}"
                    );
                }
                CacheFileFault::CounterTamper => {
                    assert!(matches!(err, CacheFileError::FooterChecksum), "got {err}");
                }
                CacheFileFault::TrailingGarbage => {
                    assert!(
                        matches!(err, CacheFileError::TrailingGarbage { extra } if extra > 0),
                        "got {err}"
                    );
                }
                CacheFileFault::Truncate | CacheFileFault::FlipByte => {}
            }
        }
    }
}

#[test]
fn corruption_is_deterministic_per_seed() {
    let dir = TempDir::new("deterministic");
    for fault in CacheFileFault::ALL {
        let a = dir.path(&format!("{}-a.cache", fault.name()));
        let b = dir.path(&format!("{}-b.cache", fault.name()));
        build_cache_file(&a);
        build_cache_file(&b);
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert!(corrupt_cache_file(&a, fault, 7).unwrap());
        assert!(corrupt_cache_file(&b, fault, 7).unwrap());
        assert_eq!(
            std::fs::read(&a).unwrap(),
            std::fs::read(&b).unwrap(),
            "{} is not deterministic",
            fault.name()
        );
    }
}

#[test]
fn quarantine_preserves_evidence_and_restores_availability() {
    let dir = TempDir::new("quarantine");
    for fault in CacheFileFault::ALL {
        let path = dir.path(&format!("{}.cache", fault.name()));
        build_cache_file(&path);
        assert!(corrupt_cache_file(&path, fault, 1).unwrap());
        let corrupted = std::fs::read(&path).unwrap();

        let (cache, counters, status) = load_or_quarantine(&path, 0);
        assert_eq!(cache.len(), 0, "{}: cache must start cold", fault.name());
        assert_eq!(counters.quarantines, 1);
        assert!(
            matches!(status, LoadStatus::Quarantined { .. }),
            "{}: {status:?}",
            fault.name()
        );
        // The evidence moved to the sidecar byte-for-byte; the original
        // path is free again, so the next save simply works.
        let sidecar = corrupt_sidecar(&path);
        assert_eq!(std::fs::read(&sidecar).unwrap(), corrupted);
        assert!(!path.exists());
        save_cache(&path, &PlanCache::new(0), counters).unwrap();
        let (_, reloaded) = load_cache(&path, 0).unwrap();
        assert_eq!(reloaded.quarantines, 1);
    }
}

#[test]
fn batch_engine_survives_every_fault_with_identical_answers() {
    let dir = TempDir::new("survives");
    let m = parse_module(MODULE).expect("module parses");
    // The reference answer comes from a cold, file-less engine.
    let mut cold = BatchEngine::new(BatchOptions::default());
    let want = report::render_text(&cold.run_module(&m));
    for fault in CacheFileFault::ALL {
        let path = dir.path(&format!("{}.cache", fault.name()));
        let first = build_cache_file(&path);
        assert_eq!(first, want, "warm run answer drifted");
        assert!(corrupt_cache_file(&path, fault, 3).unwrap());

        let mut engine = BatchEngine::with_cache_file(BatchOptions::default(), &path);
        assert!(
            matches!(engine.load_status(), Some(LoadStatus::Quarantined { .. })),
            "{}: corrupt file was not quarantined",
            fault.name()
        );
        let result = engine.run_module(&m);
        assert_eq!(result.totals.failed, 0, "{}: units failed", fault.name());
        assert_eq!(
            report::render_text(&result),
            want,
            "{}: answers diverged after quarantine",
            fault.name()
        );
        // The recomputed cache flushes cleanly over the freed path and the
        // quarantine is remembered in the lifetime counters.
        engine.flush_cache_file().unwrap();
        let (reloaded, counters) = load_cache(&path, 0).unwrap();
        assert!(!reloaded.is_empty());
        assert_eq!(counters.quarantines, 1);
    }
}

#[test]
fn a_poisoned_persisted_entry_is_quarantined_at_every_tier() {
    let dir = TempDir::new("poisoned-entry");
    let m = parse_module(MODULE).expect("module parses");
    for validate in [ValidationLevel::Fast, ValidationLevel::Off] {
        let opts = BatchOptions {
            validate,
            ..BatchOptions::default()
        };
        let want = report::render_text(&BatchEngine::new(opts).run_module(&m));
        let path = dir.path(&format!("{validate:?}.cache"));
        let mut engine = BatchEngine::with_cache_file(opts, &path);
        engine.run_module(&m);
        engine.flush_cache_file().unwrap();
        let (honest, _) = load_cache(&path, 0).unwrap();

        let key = poison_persisted_entry(&path, 1).unwrap().expect("entries");
        // The file stays valid and the bad output still parses and
        // verifies: only re-validating the hit can tell.
        let (poisoned, _) = load_cache(&path, 0).expect("checksums still hold");
        let text = |c: &PlanCache| {
            let (_, e) = c.iter_fifo().find(|(k, _)| *k == key).expect("entry");
            e.output_text.clone()
        };
        let bad = parse_function(&text(&poisoned)).expect("still parses");
        lcm_ir::verify(&bad).expect("still verifies");
        assert_ne!(text(&poisoned), text(&honest));

        // Two runs: the first quarantines and recomputes, the second finds
        // the honest entry the first flushed back. Neither fails a unit or
        // serves the diverging text.
        for run in 0..2 {
            let mut engine = BatchEngine::with_cache_file(opts, &path);
            let result = engine.run_module(&m);
            assert_eq!(result.totals.failed, 0, "{validate:?} run {run}");
            assert_eq!(report::render_text(&result), want, "{validate:?} run {run}");
            let lifetime = engine.lifetime().expect("file-backed");
            assert_eq!(lifetime.quarantines, 1, "{validate:?} run {run}");
            engine.flush_cache_file().unwrap();
        }
        let (reloaded, _) = load_cache(&path, 0).unwrap();
        assert_eq!(text(&reloaded), text(&honest), "{validate:?}");
    }
}

#[test]
fn stray_tmp_file_never_shadows_the_cache() {
    // A crash between staging and rename leaves `<path>.tmp`; the load
    // path must ignore it entirely and the next save must replace it.
    let dir = TempDir::new("stray-tmp");
    let path = dir.path("plans.cache");
    build_cache_file(&path);
    let tmp = tmp_path(&path);
    std::fs::write(&tmp, b"half-written garbage").unwrap();
    let (cache, _, status) = load_or_quarantine(&path, 0);
    assert!(matches!(status, LoadStatus::Loaded { .. }), "{status:?}");
    assert!(!cache.is_empty());
    save_cache(&path, &cache, LifetimeCounters::default()).unwrap();
    assert!(!tmp.exists(), "save must consume the tmp staging file");
    load_cache(&path, 0).unwrap();
}
