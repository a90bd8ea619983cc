//! `lcmopt serve` — the long-running optimization daemon.
//!
//! A [`Daemon`] owns a pool of persistent worker threads, each keeping one
//! warm [`SolverScratch`] arena across requests (the whole point of
//! serving: the 2-allocation same-shape solve floor only pays off if the
//! process outlives a CLI invocation), a shared [`BatchEngine`]'s plan
//! cache — optionally backed by an `lcm-cache-v1` file (see
//! [`crate::save_cache`] and [`crate::load_or_quarantine`]) — and a
//! bounded admission queue.
//!
//! The robustness contract, each clause pinned by tests:
//!
//! * **No head-of-line blocking** — a request's units stream back as
//!   `UNIT_OK`/`UNIT_ERR` frames in completion order, each tagged with
//!   its unit index, terminated by one `DONE`.
//! * **Watchdogs** — every request carries a deadline/fuel budget
//!   ([`OptimizeBudget`]); a unit that exceeds it is answered with a
//!   distinct `cancelled` error frame while its siblings and the
//!   connection live on. A client that disconnects mid-request trips the
//!   request's cancel flag, so its remaining units stop consuming workers.
//! * **Admission control** — when the queued-unit count would exceed the
//!   bound, the request is shed with `OVERLOADED` plus a retry-after
//!   hint; nothing is partially admitted.
//! * **Graceful drain** — a `SHUTDOWN` frame (or EOF on stdio) stops
//!   admissions, finishes in-flight units, durably flushes the cache, and
//!   exits 0. The cache is also flushed after every request (write-behind),
//!   so even a `kill -9` loses at most the in-flight request's entries —
//!   and the atomic temp-then-rename write means it never leaves a torn
//!   file.
//! * **Panic backstop** — unit pipelines already run under
//!   `catch_unwind` (a panic is a typed per-unit failure); the worker
//!   loop carries a second, outer backstop that counts into
//!   [`Daemon::panics_contained`]. Tests assert the counter stays 0.
//!
//! Connection handling is generic over `Read + Write`, so the full
//! protocol surface is testable in-process with byte buffers; the Unix
//! socket and stdio fronts are thin wrappers.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lcm_core::{EdgeWeights, OptimizeBudget, PreAlgorithm};
use lcm_dataflow::SolverScratch;
use lcm_ir::{verify, Function, Profile};

use crate::protocol::{
    self, decode_request, read_frame, write_response, FrameError, Request, Response, ERR_BAD_FRAME,
    ERR_DRAINING, ERR_PARSE, ERR_TOO_LARGE,
};
use crate::{
    cache, fingerprint_with_context, incremental_eligible, isolate, optimize_unit, options_tag,
    resolve_jobs, unit_context, BatchEngine, BatchOptions, CacheEntry, FailureKind,
    IncrementalUnit, LoadStatus, PreStep, SpanMemo, UnitError,
};

use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a daemon is configured.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The per-unit pipeline configuration (placement, validation, seed,
    /// cache capacity…). `batch.jobs` is ignored; see `workers`.
    pub batch: BatchOptions,
    /// Worker threads; `0` means [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Admission bound: the maximum number of units queued (not yet
    /// finished) across all requests; `0` means unbounded. A request whose
    /// units would overflow the bound is shed whole.
    pub queue_capacity: usize,
    /// The back-off hint sent with `OVERLOADED` responses, in ms.
    pub retry_after_ms: u32,
    /// Back the plan cache with this `lcm-cache-v1` file.
    pub cache_file: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            batch: BatchOptions::default(),
            workers: 0,
            queue_capacity: 1024,
            retry_after_ms: 50,
            cache_file: None,
        }
    }
}

/// How a connection ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnectionEnd {
    /// The client closed (EOF between frames) or the transport tore; the
    /// daemon keeps serving other connections.
    Closed,
    /// The client sent `SHUTDOWN`: the daemon should drain and exit.
    Shutdown,
}

/// One admitted unit of work.
struct UnitJob {
    index: u32,
    name: String,
    function: Function,
    weights: Option<EdgeWeights>,
    context: String,
    /// The unit's span memo: its `fn` section text from the request.
    span: Option<SpanMemo>,
    deadline: Option<Instant>,
    fuel: u64,
    cancel: Arc<AtomicBool>,
    tx: mpsc::Sender<Response>,
}

/// The admission queue.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<UnitJob>,
    /// Units admitted but not yet finished (queued + in flight) — the
    /// quantity admission control bounds.
    outstanding: usize,
    /// Workers should exit once the queue is empty.
    stop: bool,
}

/// Shared daemon state.
struct Core {
    opts: ServeOptions,
    queue: Mutex<Queue>,
    work_ready: Condvar,
    engine: Mutex<BatchEngine>,
    /// No new admissions; accept loops should wind down.
    draining: AtomicBool,
    /// Requests answered (including failed units), shed, and the outer
    /// worker-loop panic backstop (expected to stay 0 forever).
    requests_served: AtomicU64,
    requests_shed: AtomicU64,
    panics: AtomicU64,
}

impl Core {
    /// Pops a job, blocking until one arrives or `stop` is set with the
    /// queue empty.
    fn next_job(&self) -> Option<UnitJob> {
        let mut q = self.queue.lock().expect("queue lock");
        loop {
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.stop {
                return None;
            }
            q = self.work_ready.wait(q).expect("queue lock");
        }
    }

    /// Marks one admitted unit finished.
    fn finish_unit(&self) {
        let mut q = self.queue.lock().expect("queue lock");
        q.outstanding = q.outstanding.saturating_sub(1);
    }

    /// Durably writes the cache back to its file, if one backs it.
    fn flush_cache(&self) {
        let engine = self.engine.lock().expect("engine lock");
        if let Err(e) = engine.flush_cache_file() {
            eprintln!("lcmopt serve: cache flush failed: {e}");
        }
    }

    fn stats_text(&self) -> String {
        let (q_outstanding, q_stop) = {
            let q = self.queue.lock().expect("queue lock");
            (q.outstanding, q.stop)
        };
        let engine = self.engine.lock().expect("engine lock");
        let s = engine.cache().stats();
        let mut out = format!(
            "daemon: {} served, {} shed, {} outstanding{}\n",
            self.requests_served.load(Ordering::Relaxed),
            self.requests_shed.load(Ordering::Relaxed),
            q_outstanding,
            if q_stop { " (stopping)" } else { "" },
        );
        out.push_str(&format!("cache: {s}, {} entries\n", engine.cache().len()));
        let (inc_hits, delta_blocks) = engine.incremental_session();
        out.push_str(&format!(
            "incremental: {inc_hits} hits, {delta_blocks} delta blocks resolved, {} states retained\n",
            engine.prev_solves_len()
        ));
        out.push_str(&format!("edit classes: {}\n", engine.edit_classes()));
        if let Some(l) = engine.lifetime() {
            out.push_str(&format!("lifetime: {l}\n"));
        }
        out.push_str(&format!(
            "panics-contained: {}\n",
            self.panics.load(Ordering::Relaxed)
        ));
        out
    }
}

/// The optimization daemon. See the module docs for the contract.
pub struct Daemon {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Starts the worker pool. When `opts.cache_file` is set, the file is
    /// loaded (or quarantined — see [`crate::load_or_quarantine`]) before
    /// the first worker spawns; check [`Daemon::load_status`].
    pub fn start(opts: ServeOptions) -> Daemon {
        let engine = match &opts.cache_file {
            Some(path) => BatchEngine::with_cache_file(opts.batch, path),
            None => BatchEngine::new(opts.batch),
        };
        let workers = resolve_jobs(opts.workers);
        let core = Arc::new(Core {
            opts,
            queue: Mutex::new(Queue::default()),
            work_ready: Condvar::new(),
            engine: Mutex::new(engine),
            draining: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            requests_shed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(&core))
            })
            .collect();
        Daemon {
            core,
            workers: handles,
        }
    }

    /// How the backing cache file loaded; `None` without a cache file.
    pub fn load_status(&self) -> Option<LoadStatus> {
        self.core
            .engine
            .lock()
            .expect("engine lock")
            .load_status()
            .cloned()
    }

    /// The outer worker-loop panic backstop counter. The per-unit
    /// `catch_unwind` isolation should make this impossible to increment;
    /// tests assert it stays 0 under protocol hostility.
    pub fn panics_contained(&self) -> u64 {
        self.core.panics.load(Ordering::Relaxed)
    }

    /// Serves one connection to completion. Generic over the transport so
    /// tests can drive the daemon with in-memory buffers.
    pub fn handle_connection(&self, r: &mut impl Read, w: &mut impl Write) -> ConnectionEnd {
        serve_connection(&self.core, r, w)
    }

    /// Serves a single connection over stdin/stdout, then drains: EOF (or
    /// `SHUTDOWN`) finishes in-flight units, flushes the cache durably,
    /// and returns.
    ///
    /// # Errors
    ///
    /// Propagates cache-flush I/O errors from the final drain.
    pub fn serve_stdio(self) -> io::Result<()> {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.handle_connection(&mut stdin.lock(), &mut stdout.lock());
        self.shutdown()
    }

    /// Binds `path` and serves connections (one thread each) until a
    /// client sends `SHUTDOWN`, then drains, flushes, and removes the
    /// socket file.
    ///
    /// # Errors
    ///
    /// Binding errors, and cache-flush I/O errors from the final drain.
    #[cfg(unix)]
    pub fn serve_unix(self, path: &Path) -> io::Result<()> {
        use std::os::unix::net::UnixListener;

        // A dead daemon's socket file would make rebinding fail forever.
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        while !self.core.draining.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let core = Arc::clone(&self.core);
                    conns.push(std::thread::spawn(move || {
                        let mut reader = match stream.try_clone() {
                            Ok(r) => r,
                            Err(_) => return,
                        };
                        let mut writer = stream;
                        serve_connection(&core, &mut reader, &mut writer);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => {
                    eprintln!("lcmopt serve: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
        let result = self.shutdown();
        let _ = std::fs::remove_file(path);
        result
    }

    /// Drains and stops the daemon: finishes every queued unit, joins the
    /// workers, and durably flushes the cache.
    ///
    /// # Errors
    ///
    /// The final cache flush's I/O error, if any.
    pub fn shutdown(self) -> io::Result<()> {
        self.core.draining.store(true, Ordering::Relaxed);
        {
            let mut q = self.core.queue.lock().expect("queue lock");
            q.stop = true;
        }
        self.core.work_ready.notify_all();
        for h in self.workers {
            let _ = h.join();
        }
        let engine = self.core.engine.lock().expect("engine lock");
        engine.flush_cache_file()
    }
}

/// The worker loop: one warm scratch arena, jobs until stop.
fn worker_loop(core: &Arc<Core>) {
    let mut scratch = SolverScratch::new();
    while let Some(job) = core.next_job() {
        // The unit pipeline has its own catch_unwind isolation; this outer
        // backstop only exists so a panic in the *loop* machinery can
        // never kill a worker silently. Tests pin it to 0.
        let index = job.index;
        let name = job.name.clone();
        let tx = job.tx.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| process_job(core, &mut scratch, job)));
        let response = outcome.unwrap_or_else(|_| {
            core.panics.fetch_add(1, Ordering::Relaxed);
            unit_err_response(
                index,
                &name,
                &UnitError {
                    kind: FailureKind::Panic,
                    message: "worker backstop: panic outside unit isolation".into(),
                },
            )
        });
        core.finish_unit();
        // A dead receiver means the connection is gone; nothing to do.
        let _ = tx.send(response);
    }
}

/// Optimizes one unit: budget check, span memo, cache lookup (with
/// re-validation), compute on miss, cache fill.
fn process_job(core: &Arc<Core>, scratch: &mut SolverScratch, job: UnitJob) -> Response {
    if job.cancel.load(Ordering::Relaxed) {
        return unit_err_response(
            job.index,
            &job.name,
            &UnitError {
                kind: FailureKind::Cancelled,
                message: "request abandoned before the unit started".into(),
            },
        );
    }
    let opts = core.opts.batch;
    let incremental = incremental_eligible(opts.placement, job.weights.as_ref())
        && job.deadline.is_none()
        && job.fuel == 0;
    let opts_tag = options_tag(&opts);
    // The span memo, before any other work: the same engine step as the
    // watch cycle's first.
    if let (true, Some(span)) = (incremental, &job.span) {
        let mut engine = core.engine.lock().expect("engine lock");
        let profile = span.profile.as_ref();
        if let Some(unit) = engine.replay_span(&job.function, &span.text, profile, &opts_tag) {
            return unit_response(job.index, unit);
        }
    }
    if let Err(e) = verify(&job.function) {
        return unit_err_response(
            job.index,
            &job.name,
            &UnitError {
                kind: FailureKind::InvalidInput,
                message: e.to_string(),
            },
        );
    }

    let mut budget = OptimizeBudget::unlimited().with_cancel_flag(Arc::clone(&job.cancel));
    if let Some(deadline) = job.deadline {
        budget = budget.with_deadline(deadline);
    }
    if job.fuel > 0 {
        budget = budget.with_fuel(job.fuel);
    }

    let (key, text) = fingerprint_with_context(&job.function, &job.context);

    let cached: Option<CacheEntry> = if opts.use_cache {
        let mut engine = core.engine.lock().expect("engine lock");
        let entry = engine.cache().get(key, &text).cloned();
        if entry.is_some() {
            engine.cache_mut().note_hit();
        } else {
            engine.cache_mut().note_miss();
        }
        entry
    } else {
        None
    };

    if let Some(entry) = &cached {
        let is_thin = entry.origin.is_none();
        match isolate(AssertUnwindSafe(|| {
            crate::revalidate_entry(entry, opts.seed)
        })) {
            Ok(_) => {
                return Response::UnitOk {
                    index: job.index,
                    output: cache::with_name(&entry.output_text, &job.name),
                };
            }
            Err(_) if is_thin => {
                // A persisted entry that fails re-validation is quarantined
                // (evicted + counted) and the unit recomputed from scratch:
                // disk corruption must cost warmth, not correctness — and
                // not availability either.
                let mut engine = core.engine.lock().expect("engine lock");
                engine.cache_mut().remove(key);
                engine.note_entry_quarantine();
            }
            Err(e) => {
                // An entry poisoned *in this process* is a real fault; the
                // batch engine reports it the same way.
                return unit_err_response(job.index, &job.name, &e);
            }
        }
    }

    // The incremental hot path: for un-budgeted plain-LCM units, reuse the
    // fixpoints retained from this function's previous revision and charge
    // only for the blocks the edit can reach, solving with the engine
    // unlocked. Budgeted units keep the budget-enforcing pipeline; output
    // text is bit-identical either way (pinned by `tests/incremental.rs`
    // and the serve smoke in ci.sh).
    if incremental {
        let prev = core
            .engine
            .lock()
            .expect("engine lock")
            .take_prev_solve(&job.name);
        let step = PreStep::Incremental(prev.as_ref().map(|p| &p.state));
        let computed = isolate(AssertUnwindSafe(|| {
            optimize_unit(&job.function, &opts, None, &job.context, step, scratch)
        }));
        let mut engine = core.engine.lock().expect("engine lock");
        let had_prev = prev.is_some();
        let (unit, entry) =
            engine.finish_incremental(&job.function, key, &opts_tag, had_prev, computed, job.span);
        if let (true, Some(entry)) = (opts.use_cache, entry) {
            engine.cache_mut().insert(key, entry);
        }
        return unit_response(job.index, unit);
    }

    let computed = isolate(AssertUnwindSafe(|| {
        optimize_unit(
            &job.function,
            &opts,
            job.weights.as_ref(),
            &job.context,
            PreStep::OneShot(&budget),
            scratch,
        )
    }));
    match computed {
        Ok(run) => {
            let output = cache::with_name(&run.entry.output_text, &job.name);
            if opts.use_cache {
                let mut engine = core.engine.lock().expect("engine lock");
                engine.cache_mut().insert(key, run.entry);
            }
            Response::UnitOk {
                index: job.index,
                output,
            }
        }
        Err(e) => unit_err_response(job.index, &job.name, &e),
    }
}

fn unit_response(index: u32, unit: IncrementalUnit) -> Response {
    match unit.outcome {
        Ok(output) => Response::UnitOk { index, output },
        Err(e) => unit_err_response(index, &unit.name, &e),
    }
}

fn unit_err_response(index: u32, name: &str, e: &UnitError) -> Response {
    Response::UnitErr {
        index,
        code: protocol::failure_code(e.kind),
        name: name.to_string(),
        message: e.message.clone(),
    }
}

/// Serves one connection: frames in, frames out, until EOF, `SHUTDOWN`,
/// or an unrecoverable transport fault. Decode-level hostility (unknown
/// tags, malformed payloads) is answered with a typed `ERROR` frame and
/// the connection lives on — framing is length-prefixed, so one bad frame
/// does not desynchronise the stream. Framing-level hostility (oversized
/// or zero length prefixes, torn frames) is answered with a best-effort
/// `ERROR` frame and a close, because the byte stream can no longer be
/// trusted.
fn serve_connection(core: &Arc<Core>, r: &mut impl Read, w: &mut impl Write) -> ConnectionEnd {
    loop {
        let (tag, payload) = match read_frame(r) {
            Ok(Some(frame)) => frame,
            Ok(None) => return ConnectionEnd::Closed,
            Err(e) => {
                let code = match e {
                    FrameError::TooLarge { .. } => ERR_TOO_LARGE,
                    _ => ERR_BAD_FRAME,
                };
                let _ = write_response(
                    w,
                    &Response::Error {
                        code,
                        message: e.to_string(),
                    },
                );
                return ConnectionEnd::Closed;
            }
        };
        let request = match decode_request(tag, &payload) {
            Ok(req) => req,
            Err(e) => {
                if write_response(
                    w,
                    &Response::Error {
                        code: ERR_BAD_FRAME,
                        message: e.to_string(),
                    },
                )
                .is_err()
                {
                    return ConnectionEnd::Closed;
                }
                continue;
            }
        };
        match request {
            Request::Stats => {
                if write_response(
                    w,
                    &Response::Stats {
                        text: core.stats_text(),
                    },
                )
                .is_err()
                {
                    return ConnectionEnd::Closed;
                }
            }
            Request::Shutdown => {
                core.draining.store(true, Ordering::Relaxed);
                let _ = write_response(w, &Response::Bye);
                return ConnectionEnd::Shutdown;
            }
            Request::Optimize {
                deadline_ms,
                fuel,
                module,
            } => {
                if handle_optimize(core, w, deadline_ms, fuel, &module).is_err() {
                    return ConnectionEnd::Closed;
                }
            }
        }
    }
}

/// Admits, runs, and streams one optimize request. `Err(())` means the
/// transport died and the connection should close.
fn handle_optimize(
    core: &Arc<Core>,
    w: &mut impl Write,
    deadline_ms: u32,
    fuel: u64,
    module: &str,
) -> Result<(), ()> {
    fn send(w: &mut impl Write, resp: &Response) -> Result<(), ()> {
        write_response(w, resp).map_err(|_| ())
    }

    if core.draining.load(Ordering::Relaxed) {
        return send(
            w,
            &Response::Error {
                code: ERR_DRAINING,
                message: "daemon is draining; no new work admitted".into(),
            },
        );
    }
    let parsed = match lcm_ir::parse_module(module) {
        Ok(m) => m,
        Err(e) => {
            return send(
                w,
                &Response::Error {
                    code: ERR_PARSE,
                    message: format!("<request>:{}:{}: {}", e.line, e.col, e.message),
                },
            );
        }
    };
    let n = parsed.len();
    let placement = core.opts.batch.placement;

    // Resolve profiles by name before the module is taken apart: edge
    // weights exactly as the batch engine resolves them, so a daemon
    // answer is the batch answer, and the profile a span memo keeps — only
    // under speculative placement, as `SpanMemo::new` keeps it.
    let resolved: Vec<(Option<EdgeWeights>, Option<Profile>)> = parsed
        .iter()
        .map(|f| {
            let profile = parsed.profile(&f.name);
            if placement == PreAlgorithm::Speculative {
                let weights = profile.and_then(|p| EdgeWeights::from_profile(f, p).ok());
                (weights, profile.cloned())
            } else {
                (None, None)
            }
        })
        .collect();

    // Admission: all units or none.
    let (tx, rx) = mpsc::channel::<Response>();
    let cancel = Arc::new(AtomicBool::new(false));
    let deadline =
        (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(u64::from(deadline_ms)));
    {
        let mut q = core.queue.lock().expect("queue lock");
        let cap = core.opts.queue_capacity;
        if cap > 0 && q.outstanding + n > cap {
            drop(q);
            core.requests_shed.fetch_add(1, Ordering::Relaxed);
            return send(
                w,
                &Response::Overloaded {
                    retry_after_ms: core.opts.retry_after_ms,
                },
            );
        }
        q.outstanding += n;
        for (i, ((f, source), (weights, profile))) in
            parsed.into_sections().zip(resolved).enumerate()
        {
            let context = unit_context(placement, weights.as_ref());
            let span = source.map(|text| SpanMemo { text, profile });
            q.jobs.push_back(UnitJob {
                index: i as u32,
                name: f.name.clone(),
                function: f,
                weights,
                context,
                span,
                deadline,
                fuel,
                cancel: Arc::clone(&cancel),
                tx: tx.clone(),
            });
        }
    }
    core.work_ready.notify_all();
    drop(tx);

    // Stream unit results in completion order. If the client hangs up,
    // cancel the request's remaining units and keep draining the channel
    // so the workers never block.
    let mut ok = 0u32;
    let mut failed = 0u32;
    let mut client_gone = false;
    for _ in 0..n {
        let Ok(resp) = rx.recv() else {
            break;
        };
        match &resp {
            Response::UnitOk { .. } => ok += 1,
            _ => failed += 1,
        }
        if !client_gone && send(w, &resp).is_err() {
            client_gone = true;
            cancel.store(true, Ordering::Relaxed);
        }
    }
    core.requests_served.fetch_add(1, Ordering::Relaxed);
    // Write-behind durability: every completed request leaves the cache
    // file current, so even SIGKILL loses only in-flight work.
    core.flush_cache();
    if client_gone {
        return Err(());
    }
    send(w, &Response::Done { ok, failed })
}
