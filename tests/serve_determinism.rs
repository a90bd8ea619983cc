//! Determinism and robustness-pillar tests for the `lcmopt serve` daemon:
//! daemon answers are byte-identical to `lcmopt batch` answers — cold,
//! from the span memo, from a delta on retained state, warm from a
//! persisted cache, after a whole-file quarantine, and after a poisoned
//! persisted entry is quarantined and recomputed — and the watchdog and
//! admission-control pillars produce their typed responses without
//! costing the connection — and a daemon fed an edit stream keeps the same
//! incremental ledger as `lcmopt watch` fed the same stream, because both
//! run the engine's one unit cycle: a name with retained state is answered
//! by its incremental step, never by the plan cache.

use std::path::PathBuf;

use lcm::core::validate::ValidationLevel;
use lcm::driver::protocol::{read_response, write_request, Request, Response};
use lcm::driver::serve::{ConnectionEnd, Daemon, ServeOptions};
use lcm::driver::{load_cache, report, BatchEngine, BatchOptions, LoadStatus};
use lcm::ir::parse_module;

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
}

fn third {
entry:
  z = p + q
  obs z
  ret
}
";

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("lcm-serve-det-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn roundtrip(daemon: &Daemon, input: &[u8]) -> (Vec<Response>, ConnectionEnd) {
    let mut reader = input;
    let mut out: Vec<u8> = Vec::new();
    let end = daemon.handle_connection(&mut reader, &mut out);
    let mut slice = &out[..];
    let mut responses = Vec::new();
    while let Ok(Some(r)) = read_response(&mut slice) {
        responses.push(r);
    }
    (responses, end)
}

fn optimize_request(module: &str, deadline_ms: u32, fuel: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(
        &mut buf,
        &Request::Optimize {
            deadline_ms,
            fuel,
            module: module.to_string(),
        },
    )
    .expect("encode request");
    buf
}

/// Reassembles streamed unit frames into the printed module, exactly as
/// `lcmopt request` does: sort by unit index, join with blank lines.
fn assemble(responses: &[Response]) -> String {
    let mut units: Vec<(u32, String)> = responses
        .iter()
        .filter_map(|r| match r {
            Response::UnitOk { index, output } => Some((*index, output.clone())),
            _ => None,
        })
        .collect();
    units.sort_by_key(|(i, _)| *i);
    let mut out = units
        .iter()
        .map(|(_, text)| text.as_str())
        .collect::<Vec<_>>()
        .join("\n\n");
    out.push('\n');
    out
}

/// The batch reference answer for [`MODULE`] under the same options.
fn batch_answer() -> String {
    let m = parse_module(MODULE).expect("module parses");
    let mut engine = BatchEngine::new(BatchOptions::default());
    report::render_text(&engine.run_module(&m))
}

#[test]
fn daemon_answers_match_batch_at_any_worker_count() {
    let want = batch_answer();
    for workers in [1, 4] {
        let d = Daemon::start(ServeOptions {
            workers,
            ..ServeOptions::default()
        });
        let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
        assert_eq!(
            responses.last(),
            Some(&Response::Done { ok: 3, failed: 0 }),
            "workers={workers}: {responses:?}"
        );
        assert_eq!(assemble(&responses), want, "workers={workers}");
        // Same connection, second request: the span memo answers, and the
        // bytes must not change.
        let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
        assert_eq!(assemble(&responses), want, "workers={workers} (cached)");
        // A comment inside `d`: its span memo misses, and its retained
        // state answers the parse-identical function with a delta — not
        // the plan cache — with the same bytes.
        let cache = "cache: 0 hits, 3 misses, 0 evictions, 3 entries";
        assert_eq!(stats_line(&d, "cache: "), cache, "workers={workers}");
        let commented = MODULE.replace("  y = a + b\n", "  y = a + b # recomputed\n");
        assert_ne!(commented, MODULE);
        let (responses, _) = roundtrip(&d, &optimize_request(&commented, 0, 0));
        assert_eq!(assemble(&responses), want, "workers={workers} (comment)");
        assert_eq!(stats_line(&d, "cache: "), cache, "workers={workers}");
        let classes = "edit classes: 1 content, 0 universe-grow, 0 universe-shrink, \
                       0 shape-mapped, 0 fallback, 5 zero-dirty";
        assert_eq!(
            stats_line(&d, "edit classes: "),
            classes,
            "workers={workers}"
        );
        assert_eq!(d.panics_contained(), 0);
        d.shutdown().unwrap();
    }
}

#[test]
fn warm_persisted_cache_preserves_answers_across_restart() {
    let dir = TempDir::new("warm");
    let cache_file = dir.0.join("plans.cache");
    let want = batch_answer();

    // First daemon lifetime: cold cache, compute, drain (flushes).
    let d = Daemon::start(ServeOptions {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(matches!(d.load_status(), Some(LoadStatus::Fresh)));
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), want);
    d.shutdown().unwrap();
    assert!(cache_file.exists(), "drain must leave the cache file");

    // Second lifetime: the persisted entries are revalidated and served,
    // and the answer is still byte-identical to the batch answer.
    let d = Daemon::start(ServeOptions {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(
        matches!(d.load_status(), Some(LoadStatus::Loaded { entries: 3 })),
        "{:?}",
        d.load_status()
    );
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), want);

    // The stats surface carries the lifetime totals: the first lifetime's
    // misses survived the restart, this lifetime added hits.
    let mut stats_req = Vec::new();
    write_request(&mut stats_req, &Request::Stats).unwrap();
    let (responses, _) = roundtrip(&d, &stats_req);
    let Some(Response::Stats { text }) = responses.first() else {
        panic!("{responses:?}");
    };
    let lifetime = text
        .lines()
        .find(|l| l.starts_with("lifetime: "))
        .unwrap_or_else(|| panic!("no lifetime line in:\n{text}"));
    assert!(lifetime.contains("3 hits"), "{lifetime}");
    assert!(lifetime.contains("3 misses"), "{lifetime}");
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn corrupt_cache_file_is_quarantined_and_answers_are_unchanged() {
    let dir = TempDir::new("quarantine");
    let cache_file = dir.0.join("plans.cache");
    std::fs::write(&cache_file, b"definitely not an lcm-cache-v1 file").unwrap();
    let d = Daemon::start(ServeOptions {
        workers: 2,
        cache_file: Some(cache_file.clone()),
        ..ServeOptions::default()
    });
    assert!(
        matches!(d.load_status(), Some(LoadStatus::Quarantined { .. })),
        "{:?}",
        d.load_status()
    );
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), batch_answer());
    d.shutdown().unwrap();
    // The recomputed cache replaced the quarantined file.
    assert!(cache_file.exists());
}

#[test]
fn fuel_watchdog_cancels_units_but_the_connection_lives() {
    let d = Daemon::start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    // fuel=1: every unit's solve exceeds one node visit, so each is
    // cancelled deterministically with the distinct `cancelled` code.
    let (responses, end) = roundtrip(&d, &optimize_request(MODULE, 0, 1));
    assert_eq!(end, ConnectionEnd::Closed);
    assert_eq!(responses.last(), Some(&Response::Done { ok: 0, failed: 3 }));
    for r in &responses[..responses.len() - 1] {
        match r {
            Response::UnitErr { code, message, .. } => {
                assert_eq!(*code, 6, "want the cancelled code: {r:?}");
                assert!(message.contains("fuel exhausted"), "{message}");
            }
            other => panic!("expected only cancelled units, got {other:?}"),
        }
    }
    // The watchdog must not have cost the daemon anything: the same
    // module with an unlimited budget now succeeds.
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(assemble(&responses), batch_answer());
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

#[test]
fn cancelled_units_never_poison_the_cache() {
    // A fuel-cancelled unit must not leave a half-baked plan behind: the
    // follow-up unlimited request recomputes and the answer matches batch.
    let d = Daemon::start(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let (_, _) = roundtrip(&d, &optimize_request(MODULE, 0, 1));
    let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(responses.last(), Some(&Response::Done { ok: 3, failed: 0 }));
    assert_eq!(assemble(&responses), batch_answer());
    d.shutdown().unwrap();
}

#[test]
fn overload_is_shed_whole_and_recovers() {
    let d = Daemon::start(ServeOptions {
        workers: 1,
        queue_capacity: 1,
        retry_after_ms: 25,
        ..ServeOptions::default()
    });
    // Three units against a one-unit bound: shed all-or-nothing, with the
    // configured retry hint.
    let (responses, end) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
    assert_eq!(end, ConnectionEnd::Closed);
    assert_eq!(responses, vec![Response::Overloaded { retry_after_ms: 25 }]);
    // A request that fits is admitted on the next connection.
    let one = "fn tiny {\nentry:\n  x = a + b\n  obs x\n  ret\n}\n";
    let (responses, _) = roundtrip(&d, &optimize_request(one, 0, 0));
    assert_eq!(responses.last(), Some(&Response::Done { ok: 1, failed: 0 }));
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

/// One revision per edit class, each applied to one function while the
/// other replays its memo: identical, content, universe-grow,
/// universe-shrink, shape-mapped, fallback; then a comment-only edit of
/// `d` (a delta with nothing dirty), a resend of that commented text (a
/// span-memo replay), and a revert of `d` to its first body, which the
/// daemon's plan cache holds — yet retained state answers it.
fn edit_stream() -> Vec<String> {
    let rev0 = "fn d {\nentry:\n  br c, l, r\nl:\n  x = a + b\n  jmp join\nr:\n  jmp join\n\
                join:\n  y = a + b\n  obs y\n  ret\n}\n\n\
                fn straight {\nentry:\n  x = p * q\n  obs x\n  ret\n}\n"
        .to_string();
    let content = rev0.replace("y = a + b", "y = a + b\n  a = 1");
    let grow = content.replace("obs x", "obs x\n  w = p + q\n  obs w");
    let shrink = grow.replace("x = p * q\n  obs x\n", "");
    let shape = shrink.replace("r:\n  jmp join", "r:\n  jmp detour\ndetour:\n  jmp join");
    let fallback = shape.replace("x = a + b\n  jmp join", "x = a + b\n  jmp detour");
    let commented = fallback.replace("  y = a + b\n", "  y = a + b # recomputed\n");
    assert_ne!(commented, fallback);
    let d0 = &rev0[..rev0.find("\n\nfn straight").expect("two functions")];
    let straight = &commented[commented.find("\n\nfn straight").expect("two functions")..];
    let revert = format!("{d0}{straight}");
    vec![
        rev0.clone(),
        rev0,
        content,
        grow,
        shrink,
        shape,
        fallback,
        commented.clone(),
        commented,
        revert,
    ]
}

#[test]
fn a_poisoned_persisted_entry_is_never_served_at_any_tier() {
    let dir = TempDir::new("poisoned-entry");
    for validate in [ValidationLevel::Fast, ValidationLevel::Off] {
        let batch = BatchOptions {
            validate,
            ..BatchOptions::default()
        };
        let m = parse_module(MODULE).expect("module parses");
        let want = report::render_text(&BatchEngine::new(batch).run_module(&m));
        let cache_file = dir.0.join(format!("{validate:?}.cache"));
        let opts = ServeOptions {
            batch,
            workers: 2,
            cache_file: Some(cache_file.clone()),
            ..ServeOptions::default()
        };
        let d = Daemon::start(opts.clone());
        roundtrip(&d, &optimize_request(MODULE, 0, 0));
        d.shutdown().unwrap();
        let (before, _) = load_cache(&cache_file, 0).unwrap();
        let key = lcm_faults::poison_persisted_entry(&cache_file, 9)
            .unwrap()
            .expect("the file has entries");

        // Two lifetimes: the first re-validates the hit, quarantines the
        // entry and recomputes it; the second loads the honest entry the
        // first flushed back.
        for lifetime in 0..2 {
            let d = Daemon::start(opts.clone());
            let (responses, _) = roundtrip(&d, &optimize_request(MODULE, 0, 0));
            assert_eq!(
                responses.last(),
                Some(&Response::Done { ok: 3, failed: 0 }),
                "{validate:?} lifetime {lifetime}"
            );
            assert_eq!(
                assemble(&responses),
                want,
                "{validate:?} lifetime {lifetime}"
            );
            let line = stats_line(&d, "lifetime: ");
            assert!(line.contains(" 1 quarantines"), "{validate:?}: {line}");
            d.shutdown().unwrap();
        }
        let (after, _) = load_cache(&cache_file, 0).unwrap();
        let text = |c: &lcm::driver::PlanCache| {
            let (_, e) = c.iter_fifo().find(|(k, _)| *k == key).expect("entry");
            e.output_text.clone()
        };
        assert_eq!(text(&after), text(&before), "{validate:?}");
    }
}

/// The daemon's STATS line starting with `prefix`.
fn stats_line(d: &Daemon, prefix: &str) -> String {
    let mut req = Vec::new();
    write_request(&mut req, &Request::Stats).unwrap();
    let (responses, _) = roundtrip(d, &req);
    let Some(Response::Stats { text }) = responses.first() else {
        panic!("{responses:?}");
    };
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{text}"))
        .to_string()
}

#[test]
fn daemon_and_watch_keep_the_same_incremental_ledger() {
    let d = Daemon::start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let mut watch = BatchEngine::new(BatchOptions::default());
    for (i, text) in edit_stream().iter().enumerate() {
        let units = watch.run_module_incremental(&parse_module(text).unwrap());
        let (responses, _) = roundtrip(&d, &optimize_request(text, 0, 0));
        assert_eq!(
            assemble(&responses),
            report::render_incremental_text(&units),
            "revision {i}"
        );
    }
    let classes = watch.edit_classes();
    for (class, n) in [
        ("content", classes.content),
        ("universe-grow", classes.universe_grow),
        ("universe-shrink", classes.universe_shrink),
        ("shape-mapped", classes.shape_mapped),
        ("fallback", classes.fallback),
        ("zero-dirty", classes.zero_dirty),
    ] {
        assert!(n > 0, "the stream never exercised {class}: {classes}");
    }
    assert_eq!(
        stats_line(&d, "edit classes: "),
        format!("edit classes: {classes}")
    );
    let (hits, rows) = watch.incremental_session();
    assert!(hits > 0 && rows > 0);
    assert_eq!(
        stats_line(&d, "incremental: "),
        format!(
            "incremental: {hits} hits, {rows} delta blocks resolved, {} states retained",
            watch.prev_solves_len()
        )
    );
    assert_eq!(d.panics_contained(), 0);
    d.shutdown().unwrap();
}

/// The Unix-socket front end: STATS, OPTIMIZE and SHUTDOWN, each on a fresh
/// connection, against `serve_unix` running in a thread. The answers equal
/// batch, `SHUTDOWN` ends the blocking accept loop, and the socket file is
/// gone afterwards.
#[cfg(unix)]
#[test]
fn unix_socket_daemon_answers_and_shuts_down() {
    use std::os::unix::net::UnixStream;
    use std::time::{Duration, Instant};

    let dir = TempDir::new("socket");
    let path = dir.0.join("lcm.sock");
    let daemon = Daemon::start(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let server = {
        let path = path.clone();
        std::thread::spawn(move || daemon.serve_unix(&path))
    };
    let connect = || {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&path) {
                Ok(stream) => return stream,
                Err(e) if start.elapsed() > Duration::from_secs(10) => {
                    panic!("daemon never listened: {e}")
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    };
    let exchange = |request: &Request| {
        let mut stream = connect();
        write_request(&mut stream, request).expect("send request");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut responses = Vec::new();
        while let Ok(Some(r)) = read_response(&mut stream) {
            responses.push(r);
        }
        responses
    };

    let stats = exchange(&Request::Stats);
    assert!(
        matches!(&stats[..], [Response::Stats { text }] if text.starts_with("daemon: 0 served")),
        "{stats:?}"
    );
    let optimized = exchange(&Request::Optimize {
        deadline_ms: 0,
        fuel: 0,
        module: MODULE.to_string(),
    });
    assert_eq!(
        optimized.last(),
        Some(&Response::Done { ok: 3, failed: 0 }),
        "{optimized:?}"
    );
    assert_eq!(assemble(&optimized), batch_answer());
    assert_eq!(exchange(&Request::Shutdown), [Response::Bye]);

    let start = Instant::now();
    while !server.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "serve_unix did not return after SHUTDOWN"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join().expect("no panic").expect("clean drain");
    assert!(!path.exists(), "the socket file is removed");
}
