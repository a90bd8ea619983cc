//! `lcmopt` — command-line driver for the lcm optimizer.
//!
//! ```text
//! lcmopt [OPTIONS] [FILE]
//! lcmopt batch [OPTIONS] <PATH|->
//! lcmopt lift [OPTIONS] <FILE|->
//! lcmopt serve [OPTIONS]
//! lcmopt request [OPTIONS] <PATH|->
//! lcmopt watch [OPTIONS] <FILE>
//!
//! Reads a function in the textual IR format from FILE (or stdin when FILE
//! is `-` or omitted) and processes it. The `batch` subcommand instead
//! drives a whole module (many `fn`s in one file, a directory of `.lcm`
//! files, or stdin) through the checked pipeline in parallel; see
//! `lcmopt batch --help`. The `lift` subcommand translates a flat
//! three-address listing (`goto INDEX` control) into module IR via a
//! leader scan; its output pipes into any other front, e.g.
//! `lcmopt lift prog.l3a | lcmopt batch -`. The `serve` subcommand runs
//! the long-lived optimization daemon (warm solver arenas, durable plan
//! cache, admission control); `request` is its client. See
//! `lcmopt serve --help` and `lcmopt request --help`. The `watch`
//! subcommand re-optimizes a module file whenever it changes on disk,
//! delta-solving each edit against the previous revision's retained
//! fixpoints; see `lcmopt watch --help`.
//!
//! OPTIONS:
//!   -p, --passes LIST    comma-separated pass pipeline (default:
//!                        lcse,lcm-edge,copyprop,dce,simplify). Passes:
//!                        lcse, copyprop, dce, simplify, strength, and the
//!                        PRE algorithms bcm, lcm-edge, lcm-node,
//!                        alcm-node, morel-renvoise, gcse.
//!   -e, --emit KIND      output: text (default), dot, stats, none
//!       --solver S       fixpoint solver for the fused LCM pipeline:
//!                        rr (round-robin) or scc (SCC-priority, default).
//!                        Same fixpoints either way; only the cost
//!                        counters differ.
//!       --validate[=L]   validation tier for PRE passes: off, fast
//!                        (default; static invariant checks) or full
//!                        (adds seeded differential execution)
//!       --run KEY=VAL    interpret before and after with the given inputs
//!                        (repeatable) and print both observation traces
//!       --fuel N         interpreter fuel (default 1000000)
//!       --compare        print a comparison table over all PRE algorithms
//!                        instead of running a pipeline
//!   -h, --help           this help
//!
//! EXIT CODES:
//!   0  success
//!   1  internal error (caught panic)
//!   2  usage error or unreadable input
//!   3  parse error (diagnostic: file:line:col: message)
//!   4  input function fails structural verification
//!   5  a pass failed: invalid output IR, solver divergence, a violated
//!      paper invariant, or differing traces under --run
//!   6  the daemon shed the request (overloaded; retry after the hint)
//! ```

use std::io::Read;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lcm::core::{
    metrics, optimize, optimize_checked, passes, report, EdgeWeights, OptimizeBudget, PreAlgorithm,
    Session, SpecStats, ValidationLevel, ValidationReport,
};
use lcm::dataflow::{SolveStrategy, SolverScratch};
use lcm::driver::protocol::{
    failure_code_name, read_response, write_request, Request, Response, ERR_PARSE,
};
use lcm::driver::serve::{Daemon, ServeOptions};
use lcm::driver::{
    report as batch_report, text_from_bytes, BatchEngine, BatchOptions, BatchUnit, IncrementalMode,
    LoadError, LoadStatus, UnitOutcome,
};
use lcm::interp::{run, Inputs};
use lcm::ir::{
    dot, lift_module, parse_function, parse_module, simplify_cfg, verify, Function, Module,
};

/// Internal error (caught panic).
const EXIT_PANIC: u8 = 1;
/// Usage error or unreadable input.
const EXIT_USAGE: u8 = 2;
/// Parse error.
const EXIT_PARSE: u8 = 3;
/// Input fails structural verification.
const EXIT_VERIFY: u8 = 4;
/// A pass failed (invalid output, divergence, validation, trace mismatch).
const EXIT_PASS: u8 = 5;
/// The daemon shed the request under load (retry after the hint).
const EXIT_OVERLOADED: u8 = 6;

struct Options {
    file: Option<String>,
    passes: Vec<String>,
    /// Whether `--passes` was given explicitly (it conflicts with
    /// `--placement`, which rewrites the default pipeline).
    passes_set: bool,
    placement: Option<PreAlgorithm>,
    emit: String,
    solver: SolveStrategy,
    validate: ValidationLevel,
    inputs: Vec<(String, i64)>,
    run: bool,
    fuel: u64,
    compare: bool,
}

/// A diagnostic plus the exit code it maps to.
struct Failure {
    code: u8,
    message: String,
}

impl Failure {
    fn new(code: u8, message: impl Into<String>) -> Self {
        Failure {
            code,
            message: message.into(),
        }
    }
}

fn usage() -> &'static str {
    "usage: lcmopt [-p|--passes LIST] [--placement lcm|bcm|spec] \
     [-e|--emit text|dot|stats|none] \
     [--solver rr|scc] [--validate[=off|fast|full]] [--run KEY=VAL]... \
     [--fuel N] [--compare] [FILE|-]\n\
     \x20      lcmopt batch [OPTIONS] <PATH|->   (see `lcmopt batch --help`)\n\
     \x20      lcmopt lift [OPTIONS] <FILE|->    (see `lcmopt lift --help`)\n\
     \x20      lcmopt watch [OPTIONS] <FILE>     (see `lcmopt watch --help`)\n\
     passes: lcse, copyprop, dce, simplify, strength, bcm, lcm-edge, \
     lcm-node, alcm-node, morel-renvoise, gcse\n\
     --placement swaps the PRE step of the default pipeline (mutually \
     exclusive with --passes); `spec` is profile-guided speculative PRE \
     and reads the input's `profile` section, falling back to lcm when \
     there is none\n\
     exit codes: 0 ok, 1 internal error, 2 usage, 3 parse, 4 verify, \
     5 pass/validation failure"
}

/// `Ok(None)` means help was requested (print usage, exit 0).
fn parse_args() -> Result<Option<Options>, Failure> {
    let mut opts = Options {
        file: None,
        passes: vec![
            "lcse".into(),
            "lcm-edge".into(),
            "copyprop".into(),
            "dce".into(),
            "simplify".into(),
        ],
        passes_set: false,
        placement: None,
        emit: "text".into(),
        solver: SolveStrategy::default(),
        validate: ValidationLevel::Fast,
        inputs: Vec::new(),
        run: false,
        fuel: 1_000_000,
        compare: false,
    };
    let usage_err = |msg: String| Failure::new(EXIT_USAGE, format!("{msg}\n{}", usage()));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "-p" | "--passes" => {
                let list = args
                    .next()
                    .ok_or_else(|| usage_err("--passes needs an argument".into()))?;
                opts.passes = list.split(',').map(|s| s.trim().to_string()).collect();
                opts.passes_set = true;
            }
            "--placement" => {
                let v = args
                    .next()
                    .ok_or_else(|| usage_err("--placement needs lcm|bcm|spec".into()))?;
                opts.placement = Some(parse_placement(&v).map_err(usage_err)?);
            }
            "-e" | "--emit" => {
                opts.emit = args
                    .next()
                    .ok_or_else(|| usage_err("--emit needs an argument".into()))?;
                if !["text", "dot", "stats", "none"].contains(&opts.emit.as_str()) {
                    return Err(usage_err(format!("unknown emit kind `{}`", opts.emit)));
                }
            }
            "--solver" => opts.solver = parse_solver(args.next()).map_err(usage_err)?,
            "--validate" => opts.validate = ValidationLevel::Fast,
            "--run" => {
                let kv = args
                    .next()
                    .ok_or_else(|| usage_err("--run needs KEY=VAL".into()))?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| usage_err("--run needs KEY=VAL".into()))?;
                let v: i64 = v
                    .parse()
                    .map_err(|_| usage_err(format!("bad value in `{kv}`")))?;
                opts.inputs.push((k.to_string(), v));
                opts.run = true;
            }
            "--fuel" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--fuel needs an argument".into()))?;
                opts.fuel = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad fuel `{n}`")))?;
            }
            "--compare" => opts.compare = true,
            other if other.starts_with("--validate=") => {
                let level = &other["--validate=".len()..];
                opts.validate = level.parse().map_err(usage_err)?;
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(usage_err(format!("unknown option `{other}`")));
            }
            file => {
                if opts.file.is_some() {
                    return Err(usage_err("more than one input file".into()));
                }
                opts.file = Some(file.to_string());
            }
        }
    }
    Ok(Some(opts))
}

/// Maps a `--placement` argument to the PRE algorithm it selects.
fn parse_placement(v: &str) -> Result<PreAlgorithm, String> {
    match v {
        "lcm" => Ok(PreAlgorithm::LazyEdge),
        "bcm" => Ok(PreAlgorithm::Busy),
        "spec" => Ok(PreAlgorithm::Speculative),
        other => Err(format!(
            "unknown placement `{other}` (want lcm, bcm or spec)"
        )),
    }
}

/// Maps a `--solver` argument (`None` when it is missing) to the fixpoint
/// schedule it selects.
fn parse_solver(v: Option<String>) -> Result<SolveStrategy, String> {
    v.ok_or_else(|| "--solver needs rr|scc".to_string())?
        .parse()
}

/// The most threads `batch --jobs` or `serve --workers` may ask for. Both
/// spawn their threads up front, so a typo such as `--workers 100000`
/// would exhaust the host's process ids instead of failing as a usage
/// error.
const MAX_THREADS: usize = 1024;

/// Parses a `--jobs` / `--workers` count (`what` names it in the
/// diagnostic): 0 means all available cores, anything above
/// [`MAX_THREADS`] is refused.
fn parse_thread_count(what: &str, n: &str) -> Result<usize, String> {
    match n.parse() {
        Ok(k) if k <= MAX_THREADS => Ok(k),
        Ok(_) => Err(format!(
            "{what} count `{n}` exceeds the limit of {MAX_THREADS} threads"
        )),
        Err(_) => Err(format!("bad {what} count `{n}`")),
    }
}

/// Options for `lcmopt batch`.
struct BatchCli {
    path: String,
    jobs: usize,
    placement: PreAlgorithm,
    solver: SolveStrategy,
    cache: bool,
    cache_capacity: usize,
    cache_file: Option<String>,
    emit: String,
    validate: ValidationLevel,
}

fn batch_usage() -> &'static str {
    "usage: lcmopt batch [-j|--jobs N] [--placement lcm|bcm|spec] \
     [--solver rr|scc] [--cache on|off] \
     [--cache-cap N] [--cache-file PATH] \
     [-e|--emit text|dot|stats|json|none] \
     [--validate[=off|fast|full]] <PATH|->\n\
     PATH is a module file (many `fn`s), a directory of .lcm files, or `-` \
     for a module on stdin.\n\
     --placement spec uses each function's `profile` section for \
     profile-guided speculative PRE; functions without one fall back to \
     lcm.\n\
     --jobs 0 (the default) uses all available cores. Output on stdout is \
     byte-identical for every --jobs value; timing goes to stderr.\n\
     --cache-file persists the plan cache across runs in the lcm-cache-v1 \
     format (corrupt files are quarantined to a .corrupt sidecar and the \
     run proceeds cold). Every cache hit is re-validated at the fast tier, \
     whatever --validate says; a persisted entry that fails is quarantined \
     (counted on the stats lifetime line), recomputed, and written back.\n\
     exit codes: 0 ok, 1 internal error, 2 usage, 3 parse, 5 any unit failed"
}

/// `Ok(None)` means help was requested (print batch usage, exit 0).
fn parse_batch_args(mut args: impl Iterator<Item = String>) -> Result<Option<BatchCli>, Failure> {
    let mut path: Option<String> = None;
    let mut opts = BatchCli {
        path: String::new(),
        jobs: 0,
        placement: PreAlgorithm::LazyEdge,
        solver: SolveStrategy::default(),
        cache: true,
        cache_capacity: 4096,
        cache_file: None,
        emit: "text".into(),
        validate: ValidationLevel::Fast,
    };
    let usage_err = |msg: String| Failure::new(EXIT_USAGE, format!("{msg}\n{}", batch_usage()));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "-j" | "--jobs" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--jobs needs an argument".into()))?;
                opts.jobs = parse_thread_count("job", &n).map_err(usage_err)?;
            }
            "--placement" => {
                let v = args
                    .next()
                    .ok_or_else(|| usage_err("--placement needs lcm|bcm|spec".into()))?;
                opts.placement = parse_placement(&v).map_err(usage_err)?;
            }
            "--solver" => opts.solver = parse_solver(args.next()).map_err(usage_err)?,
            "--cache" => {
                let v = args
                    .next()
                    .ok_or_else(|| usage_err("--cache needs on|off".into()))?;
                opts.cache = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(usage_err(format!("bad cache mode `{other}`"))),
                };
            }
            "--cache-cap" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--cache-cap needs an argument".into()))?;
                opts.cache_capacity = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad cache capacity `{n}`")))?;
            }
            "--cache-file" => {
                let p = args
                    .next()
                    .ok_or_else(|| usage_err("--cache-file needs a path".into()))?;
                opts.cache_file = Some(p);
            }
            "-e" | "--emit" => {
                opts.emit = args
                    .next()
                    .ok_or_else(|| usage_err("--emit needs an argument".into()))?;
                if !["text", "dot", "stats", "json", "none"].contains(&opts.emit.as_str()) {
                    return Err(usage_err(format!("unknown emit kind `{}`", opts.emit)));
                }
            }
            "--validate" => opts.validate = ValidationLevel::Fast,
            other if other.starts_with("--validate=") => {
                let level = &other["--validate=".len()..];
                opts.validate = level.parse().map_err(usage_err)?;
            }
            other if other.starts_with('-') && other != "-" => {
                return Err(usage_err(format!("unknown option `{other}`")));
            }
            p => {
                if path.is_some() {
                    return Err(usage_err("more than one input path".into()));
                }
                path = Some(p.to_string());
            }
        }
    }
    opts.path = path.ok_or_else(|| usage_err("batch needs an input PATH".into()))?;
    Ok(Some(opts))
}

fn load_batch_units(path: &str) -> Result<Vec<BatchUnit>, Failure> {
    if path == "-" {
        // Read raw bytes so an invalid UTF-8 stream gets the same spanned
        // `<stdin>:line:col` diagnostic (and exit code) as a parse error —
        // not an unlabeled usage error.
        let mut bytes = Vec::new();
        std::io::stdin()
            .read_to_end(&mut bytes)
            .map_err(|e| Failure::new(EXIT_USAGE, format!("reading stdin: {e}")))?;
        let text = text_from_bytes(bytes).map_err(|e| {
            Failure::new(
                EXIT_PARSE,
                format!("<stdin>:{}:{}: {}", e.line, e.col, e.message),
            )
        })?;
        let module = parse_module(&text).map_err(|e| {
            Failure::new(
                EXIT_PARSE,
                format!("<stdin>:{}:{}: {}", e.line, e.col, e.message),
            )
        })?;
        return Ok(module
            .iter()
            .map(|f| BatchUnit {
                file: None,
                profile: module.profile(&f.name).cloned(),
                function: f.clone(),
            })
            .collect());
    }
    lcm::driver::load_units(Path::new(path)).map_err(|e| match &e {
        LoadError::Parse { path, error } => Failure::new(
            EXIT_PARSE,
            format!("{path}:{}:{}: {}", error.line, error.col, error.message),
        ),
        _ => Failure::new(EXIT_USAGE, e.to_string()),
    })
}

fn run_batch(cli: BatchCli) -> Result<(), Failure> {
    let units = load_batch_units(&cli.path)?;
    let n = units.len();
    let start = std::time::Instant::now();
    let opts = BatchOptions {
        jobs: cli.jobs,
        placement: cli.placement,
        validate: cli.validate,
        seed: VALIDATION_SEED,
        use_cache: cli.cache,
        cache_capacity: cli.cache_capacity,
        strategy: cli.solver,
    };
    let mut engine = match &cli.cache_file {
        Some(path) => {
            let engine = BatchEngine::with_cache_file(opts, Path::new(path));
            note_load_status("batch", engine.load_status());
            engine
        }
        None => BatchEngine::new(opts),
    };
    let result = engine.run(units);
    if cli.cache_file.is_some() {
        engine
            .flush_cache_file()
            .map_err(|e| Failure::new(EXIT_USAGE, format!("writing cache file: {e}")))?;
    }
    // Wall-clock is the one nondeterministic quantity — it goes to stderr
    // so stdout stays byte-identical across --jobs values.
    eprintln!(
        "lcmopt: batch: {} functions, {} computed, {} cache hits, {:.3?}",
        n,
        result.totals.computed,
        result.totals.cache.hits,
        start.elapsed()
    );
    match cli.emit.as_str() {
        "text" => print!("{}", batch_report::render_text(&result)),
        "stats" => print!("{}", batch_report::render_stats(&result)),
        "json" => print!("{}", batch_report::render_json(&result)),
        "dot" => {
            // One digraph per successful unit. Names can repeat across a
            // directory batch; suffix repeats so every graph renders.
            let mut m = Module::default();
            for (i, unit) in result.units.iter().enumerate() {
                if let UnitOutcome::Ok(s) = &unit.outcome {
                    let mut f = parse_function(&s.output).expect("driver output round-trips");
                    if m.get(&f.name).is_some() {
                        f.name = format!("{}__{i}", f.name);
                    }
                    m.push(f).expect("suffixed name is unique");
                }
            }
            print!("{}", dot::render_module(&m));
        }
        "none" => {}
        _ => unreachable!("emit kind validated"),
    }
    if result.totals.failed > 0 {
        return Err(Failure::new(
            EXIT_PASS,
            format!("{} of {n} functions failed", result.totals.failed),
        ));
    }
    Ok(())
}

/// Options for `lcmopt lift`.
struct LiftCli {
    path: String,
    emit: String,
    stats: bool,
}

fn lift_usage() -> &'static str {
    "usage: lcmopt lift [-e|--emit text|dot] [--stats] <FILE|->\n\
     Lifts a flat three-address listing — one instruction per line, \
     control via `goto INDEX` / `if VAR goto INDEX` / `ret`, optional \
     `fn NAME` section headers — into block-structured module IR by a \
     leader scan, and prints the module on stdout.\n\
     The output composes with every other front: \
     `lcmopt lift prog.l3a | lcmopt batch -` lifts then optimizes.\n\
     --stats adds one summary line per function on stderr (instruction, \
     block and dropped-unreachable-block counts).\n\
     exit codes: 0 ok, 2 usage, 3 lift error (FILE:LINE: message, with \
     LINE relative to the input file)"
}

/// `Ok(None)` means help was requested (print lift usage, exit 0).
fn parse_lift_args(mut args: impl Iterator<Item = String>) -> Result<Option<LiftCli>, Failure> {
    let mut path: Option<String> = None;
    let mut opts = LiftCli {
        path: String::new(),
        emit: "text".into(),
        stats: false,
    };
    let usage_err = |msg: String| Failure::new(EXIT_USAGE, format!("{msg}\n{}", lift_usage()));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "-e" | "--emit" => {
                opts.emit = args
                    .next()
                    .ok_or_else(|| usage_err("--emit needs an argument".into()))?;
                if !["text", "dot"].contains(&opts.emit.as_str()) {
                    return Err(usage_err(format!("unknown emit kind `{}`", opts.emit)));
                }
            }
            "--stats" => opts.stats = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(usage_err(format!("unknown lift argument `{other}`")));
            }
            p => {
                if path.is_some() {
                    return Err(usage_err("more than one input file".into()));
                }
                path = Some(p.to_string());
            }
        }
    }
    opts.path = path.ok_or_else(|| usage_err("lift needs an input FILE".into()))?;
    Ok(Some(opts))
}

fn run_lift(cli: LiftCli) -> Result<(), Failure> {
    let file = Some(cli.path.clone());
    let text = read_input(&file)?;
    let lifted = lift_module(&text).map_err(|e| {
        Failure::new(
            EXIT_PARSE,
            format!("{}:{}: {}", input_name(&file), e.line, e.message),
        )
    })?;
    if cli.stats {
        for s in &lifted.functions {
            eprintln!(
                "lcmopt lift: fn {}: {} instrs -> {} blocks ({} unreachable dropped)",
                s.name, s.instrs, s.leaders, s.dropped
            );
        }
    }
    match cli.emit.as_str() {
        "text" => println!("{}", lifted.module),
        "dot" => print!("{}", dot::render_module(&lifted.module)),
        _ => unreachable!("emit kind validated"),
    }
    Ok(())
}

/// Options for `lcmopt serve`.
struct ServeCli {
    socket: Option<String>,
    cache_file: Option<String>,
    workers: usize,
    queue_cap: usize,
    retry_after_ms: u32,
    placement: PreAlgorithm,
    solver: SolveStrategy,
    cache: bool,
    cache_capacity: usize,
    validate: ValidationLevel,
}

fn serve_usage() -> &'static str {
    "usage: lcmopt serve [--socket PATH] [--cache-file PATH] [--workers N] \
     [--queue-cap N] [--retry-after-ms N] [--placement lcm|bcm|spec] \
     [--solver rr|scc] [--cache on|off] [--cache-cap N] \
     [--validate[=off|fast|full]]\n\
     Runs the optimization daemon: worker threads keep warm solver arenas \
     across requests and share one plan cache.\n\
     With --socket the daemon serves the framed protocol on a Unix socket \
     until a client sends SHUTDOWN; without it, one connection on \
     stdin/stdout until EOF. Either way it drains in-flight units, flushes \
     the cache durably, and exits 0.\n\
     --cache-file persists the plan cache (lcm-cache-v1; corrupt files are \
     quarantined to a .corrupt sidecar and the daemon starts cold). The \
     file is rewritten atomically after every request. Every cache hit is \
     re-validated at the fast tier, whatever --validate says; a persisted \
     entry that fails is quarantined (counted on the --stats lifetime \
     line) and recomputed.\n\
     --workers 0 (the default) uses all available cores. --queue-cap \
     bounds admitted-but-unfinished units (0 = unbounded); requests beyond \
     it are shed with OVERLOADED and the --retry-after-ms hint."
}

/// `Ok(None)` means help was requested (print serve usage, exit 0).
fn parse_serve_args(mut args: impl Iterator<Item = String>) -> Result<Option<ServeCli>, Failure> {
    let mut opts = ServeCli {
        socket: None,
        cache_file: None,
        workers: 0,
        queue_cap: 1024,
        retry_after_ms: 50,
        placement: PreAlgorithm::LazyEdge,
        solver: SolveStrategy::default(),
        cache: true,
        cache_capacity: 4096,
        validate: ValidationLevel::Fast,
    };
    let usage_err = |msg: String| Failure::new(EXIT_USAGE, format!("{msg}\n{}", serve_usage()));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--socket" => {
                let p = args
                    .next()
                    .ok_or_else(|| usage_err("--socket needs a path".into()))?;
                opts.socket = Some(p);
            }
            "--cache-file" => {
                let p = args
                    .next()
                    .ok_or_else(|| usage_err("--cache-file needs a path".into()))?;
                opts.cache_file = Some(p);
            }
            "--workers" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--workers needs an argument".into()))?;
                opts.workers = parse_thread_count("worker", &n).map_err(usage_err)?;
            }
            "--queue-cap" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--queue-cap needs an argument".into()))?;
                opts.queue_cap = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad queue capacity `{n}`")))?;
            }
            "--retry-after-ms" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--retry-after-ms needs an argument".into()))?;
                opts.retry_after_ms = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad retry hint `{n}`")))?;
            }
            "--placement" => {
                let v = args
                    .next()
                    .ok_or_else(|| usage_err("--placement needs lcm|bcm|spec".into()))?;
                opts.placement = parse_placement(&v).map_err(usage_err)?;
            }
            "--solver" => opts.solver = parse_solver(args.next()).map_err(usage_err)?,
            "--cache" => {
                let v = args
                    .next()
                    .ok_or_else(|| usage_err("--cache needs on|off".into()))?;
                opts.cache = match v.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(usage_err(format!("bad cache mode `{other}`"))),
                };
            }
            "--cache-cap" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--cache-cap needs an argument".into()))?;
                opts.cache_capacity = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad cache capacity `{n}`")))?;
            }
            "--validate" => opts.validate = ValidationLevel::Fast,
            other if other.starts_with("--validate=") => {
                let level = &other["--validate=".len()..];
                opts.validate = level.parse().map_err(usage_err)?;
            }
            other => return Err(usage_err(format!("unknown serve argument `{other}`"))),
        }
    }
    Ok(Some(opts))
}

fn run_serve(cli: ServeCli) -> Result<(), Failure> {
    let opts = ServeOptions {
        batch: BatchOptions {
            jobs: 0,
            placement: cli.placement,
            validate: cli.validate,
            seed: VALIDATION_SEED,
            use_cache: cli.cache,
            cache_capacity: cli.cache_capacity,
            strategy: cli.solver,
        },
        workers: cli.workers,
        queue_capacity: cli.queue_cap,
        retry_after_ms: cli.retry_after_ms,
        cache_file: cli.cache_file.as_deref().map(PathBuf::from),
    };
    let daemon = Daemon::start(opts);
    note_load_status("serve", daemon.load_status().as_ref());
    let result = match &cli.socket {
        #[cfg(unix)]
        Some(path) => {
            eprintln!("lcmopt serve: listening on {path}");
            daemon.serve_unix(Path::new(path))
        }
        #[cfg(not(unix))]
        Some(_) => {
            drop(daemon);
            return Err(Failure::new(
                EXIT_USAGE,
                "--socket requires a Unix platform; use stdio mode",
            ));
        }
        None => daemon.serve_stdio(),
    };
    result.map_err(|e| Failure::new(EXIT_USAGE, format!("serve: {e}")))
}

/// Options for `lcmopt request`.
struct RequestCli {
    socket: String,
    path: Option<String>,
    deadline_ms: u32,
    fuel: u64,
    stats: bool,
    shutdown: bool,
}

fn request_usage() -> &'static str {
    "usage: lcmopt request --socket PATH [--deadline-ms N] [--fuel N] \
     <PATH|->\n\
     \x20      lcmopt request --socket PATH --stats|--shutdown\n\
     Sends one module (a file, or `-` for stdin) to a running \
     `lcmopt serve --socket` daemon and prints the optimized module — \
     byte-identical to `lcmopt batch` output for the same input and \
     configuration.\n\
     --deadline-ms / --fuel bound each unit's work (0 = unlimited); a unit \
     over budget is reported as a `cancelled` failure.\n\
     --stats prints the daemon's counters; --shutdown asks it to drain, \
     flush its cache, and exit.\n\
     exit codes: 0 ok, 2 usage/transport, 3 the module failed to parse, \
     5 any unit failed, 6 the daemon shed the request (overloaded)"
}

/// `Ok(None)` means help was requested (print request usage, exit 0).
fn parse_request_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<RequestCli>, Failure> {
    let mut path: Option<String> = None;
    let mut opts = RequestCli {
        socket: String::new(),
        path: None,
        deadline_ms: 0,
        fuel: 0,
        stats: false,
        shutdown: false,
    };
    let mut socket: Option<String> = None;
    let usage_err = |msg: String| Failure::new(EXIT_USAGE, format!("{msg}\n{}", request_usage()));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--socket" => {
                let p = args
                    .next()
                    .ok_or_else(|| usage_err("--socket needs a path".into()))?;
                socket = Some(p);
            }
            "--deadline-ms" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--deadline-ms needs an argument".into()))?;
                opts.deadline_ms = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad deadline `{n}`")))?;
            }
            "--fuel" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--fuel needs an argument".into()))?;
                opts.fuel = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad fuel `{n}`")))?;
            }
            "--stats" => opts.stats = true,
            "--shutdown" => opts.shutdown = true,
            other if other.starts_with('-') && other != "-" => {
                return Err(usage_err(format!("unknown request argument `{other}`")));
            }
            p => {
                if path.is_some() {
                    return Err(usage_err("more than one input path".into()));
                }
                path = Some(p.to_string());
            }
        }
    }
    opts.socket = socket.ok_or_else(|| usage_err("request needs --socket PATH".into()))?;
    opts.path = path;
    match (&opts.path, opts.stats, opts.shutdown) {
        (Some(_), false, false) | (None, true, false) | (None, false, true) => Ok(Some(opts)),
        _ => Err(usage_err(
            "request needs exactly one of: an input PATH, --stats, --shutdown".into(),
        )),
    }
}

#[cfg(unix)]
fn run_request(cli: RequestCli) -> Result<(), Failure> {
    use std::os::unix::net::UnixStream;

    let transport_err =
        |what: &str| Failure::new(EXIT_USAGE, format!("request: connection {what}"));
    let mut stream = UnixStream::connect(&cli.socket)
        .map_err(|e| Failure::new(EXIT_USAGE, format!("connecting {}: {e}", cli.socket)))?;

    if cli.stats || cli.shutdown {
        let req = if cli.stats {
            Request::Stats
        } else {
            Request::Shutdown
        };
        write_request(&mut stream, &req).map_err(|e| transport_err(&format!("failed: {e}")))?;
        return match read_response(&mut stream) {
            Ok(Some(Response::Stats { text })) => {
                print!("{text}");
                Ok(())
            }
            Ok(Some(Response::Bye)) => Ok(()),
            Ok(Some(Response::Error { message, .. })) => {
                Err(Failure::new(EXIT_USAGE, format!("request: {message}")))
            }
            Ok(Some(_)) => Err(transport_err("answered with an unexpected frame")),
            Ok(None) => Err(transport_err("closed before answering")),
            Err(e) => Err(transport_err(&format!("failed: {e}"))),
        };
    }

    // Module mode: load (with the same spanned UTF-8 diagnostics as every
    // other front), send, and stream unit results back.
    let path = cli.path.as_deref().expect("validated by the parser");
    let module = read_input(&Some(path.to_string()))?;
    write_request(
        &mut stream,
        &Request::Optimize {
            deadline_ms: cli.deadline_ms,
            fuel: cli.fuel,
            module,
        },
    )
    .map_err(|e| transport_err(&format!("failed: {e}")))?;

    // Units stream back in completion order, tagged with their input
    // index; reassemble in input order so the printed module is
    // byte-identical to `lcmopt batch` output.
    enum Unit {
        Ok(String),
        Failed {
            code: u8,
            name: String,
            message: String,
        },
    }
    let mut units: Vec<(u32, Unit)> = Vec::new();
    let (ok, failed) = loop {
        match read_response(&mut stream) {
            Ok(Some(Response::UnitOk { index, output })) => units.push((index, Unit::Ok(output))),
            Ok(Some(Response::UnitErr {
                index,
                code,
                name,
                message,
            })) => units.push((
                index,
                Unit::Failed {
                    code,
                    name,
                    message,
                },
            )),
            Ok(Some(Response::Done { ok, failed })) => break (ok, failed),
            Ok(Some(Response::Error { code, message })) => {
                let exit = if code == ERR_PARSE {
                    EXIT_PARSE
                } else {
                    EXIT_USAGE
                };
                return Err(Failure::new(exit, format!("request: {message}")));
            }
            Ok(Some(Response::Overloaded { retry_after_ms })) => {
                return Err(Failure::new(
                    EXIT_OVERLOADED,
                    format!("request: daemon overloaded; retry after {retry_after_ms} ms"),
                ));
            }
            Ok(Some(_)) => return Err(transport_err("answered with an unexpected frame")),
            Ok(None) => return Err(transport_err("closed mid-request")),
            Err(e) => return Err(transport_err(&format!("failed: {e}"))),
        }
    };
    units.sort_by_key(|(index, _)| *index);
    let mut out = String::new();
    for (i, (_, unit)) in units.iter().enumerate() {
        if i > 0 {
            out.push_str("\n\n");
        }
        match unit {
            Unit::Ok(text) => out.push_str(text),
            Unit::Failed {
                code,
                name,
                message,
            } => {
                let one_line: String = message
                    .chars()
                    .map(|c| if c.is_control() { ' ' } else { c })
                    .collect();
                out.push_str(&format!(
                    "# fn {name}: FAILED ({}): {one_line}",
                    failure_code_name(*code)
                ));
            }
        }
    }
    out.push('\n');
    print!("{out}");
    if failed > 0 {
        let n = ok + failed;
        return Err(Failure::new(
            EXIT_PASS,
            format!("{failed} of {n} functions failed"),
        ));
    }
    Ok(())
}

#[cfg(not(unix))]
fn run_request(_cli: RequestCli) -> Result<(), Failure> {
    Err(Failure::new(
        EXIT_USAGE,
        "lcmopt request needs Unix sockets; unavailable on this platform",
    ))
}

/// Options for `lcmopt watch`.
struct WatchCli {
    file: String,
    interval_ms: u64,
    iterations: u64,
    output: Option<String>,
    placement: PreAlgorithm,
    solver: SolveStrategy,
    validate: ValidationLevel,
}

fn watch_usage() -> &'static str {
    "usage: lcmopt watch [--interval-ms N] [--iterations N] [-o|--output \
     PATH] [--placement lcm|bcm|spec] [--solver rr|scc] \
     [--validate[=off|fast|full]] <FILE>\n\
     Optimizes the module in FILE, then polls it and re-optimizes on every \
     change. Each function's AVAIL/ANTIC/LATER fixpoints are retained \
     between revisions, so an edit is answered by an SCC-scoped delta \
     solve that charges only for the blocks it can reach (a CFG-shape or \
     universe change falls back to a full solve). Output is byte-identical \
     to `lcmopt batch` on the same revision.\n\
     The optimized module goes to stdout after every run, or to PATH with \
     --output (rewritten in place). Per-iteration stats — fresh/delta/\
     fallback per function, dirty blocks, block rows re-solved — go to \
     stderr.\n\
     --iterations N exits after N re-optimizations beyond the initial one \
     (0, the default, watches until interrupted); a transiently unreadable \
     or unparseable save is reported and skipped, not fatal.\n\
     exit codes: 0 ok, 1 internal error, 2 usage, 3 the initial module \
     failed to parse, 5 any unit of the last completed run failed"
}

/// `Ok(None)` means help was requested (print watch usage, exit 0).
fn parse_watch_args(mut args: impl Iterator<Item = String>) -> Result<Option<WatchCli>, Failure> {
    let mut file: Option<String> = None;
    let mut opts = WatchCli {
        file: String::new(),
        interval_ms: 50,
        iterations: 0,
        output: None,
        placement: PreAlgorithm::LazyEdge,
        solver: SolveStrategy::default(),
        validate: ValidationLevel::Fast,
    };
    let usage_err = |msg: String| Failure::new(EXIT_USAGE, format!("{msg}\n{}", watch_usage()));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--interval-ms" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--interval-ms needs an argument".into()))?;
                opts.interval_ms = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad interval `{n}`")))?;
            }
            "--iterations" => {
                let n = args
                    .next()
                    .ok_or_else(|| usage_err("--iterations needs an argument".into()))?;
                opts.iterations = n
                    .parse()
                    .map_err(|_| usage_err(format!("bad iteration count `{n}`")))?;
            }
            "-o" | "--output" => {
                let p = args
                    .next()
                    .ok_or_else(|| usage_err("--output needs a path".into()))?;
                opts.output = Some(p);
            }
            "--placement" => {
                let v = args
                    .next()
                    .ok_or_else(|| usage_err("--placement needs lcm|bcm|spec".into()))?;
                opts.placement = parse_placement(&v).map_err(usage_err)?;
            }
            "--solver" => opts.solver = parse_solver(args.next()).map_err(usage_err)?,
            "--validate" => opts.validate = ValidationLevel::Fast,
            other if other.starts_with("--validate=") => {
                let level = &other["--validate=".len()..];
                opts.validate = level.parse().map_err(usage_err)?;
            }
            other if other.starts_with('-') => {
                return Err(usage_err(format!("unknown watch argument `{other}`")));
            }
            p => {
                if file.is_some() {
                    return Err(usage_err("more than one input file".into()));
                }
                file = Some(p.to_string());
            }
        }
    }
    opts.file = file.ok_or_else(|| usage_err("watch needs an input FILE".into()))?;
    Ok(Some(opts))
}

/// One watched re-optimization: runs the module through the engine's
/// incremental path, emits per-function stats on stderr and the optimized
/// module on stdout (or into `--output`). Returns how many units failed.
fn watch_once(
    engine: &mut BatchEngine,
    module: &Module,
    iteration: u64,
    output: &Option<String>,
) -> Result<usize, Failure> {
    let start = std::time::Instant::now();
    let units = engine.run_module_incremental(module);
    let mut failed = 0usize;
    for u in &units {
        match u.mode {
            IncrementalMode::Delta | IncrementalMode::Fallback => eprintln!(
                "lcmopt watch[{iteration}]: fn {}: {}, {} dirty, {} of {} block rows re-solved",
                u.name,
                u.mode.name(),
                u.stats.dirty_blocks,
                u.stats.delta_blocks_resolved,
                3 * u.blocks,
            ),
            IncrementalMode::ZeroDirty => eprintln!(
                "lcmopt watch[{iteration}]: fn {}: zero-dirty, 0 dirty, output memo replayed",
                u.name,
            ),
            IncrementalMode::Fresh | IncrementalMode::OneShot => {
                eprintln!(
                    "lcmopt watch[{iteration}]: fn {}: {}",
                    u.name,
                    u.mode.name()
                );
            }
        }
        if let Err(e) = &u.outcome {
            failed += 1;
            eprintln!(
                "lcmopt watch[{iteration}]: fn {}: FAILED ({}): {}",
                u.name,
                e.kind.name(),
                e.message
            );
        }
    }
    let (hits, delta_blocks) = engine.incremental_session();
    let phases = engine.incremental_phases();
    eprintln!(
        "lcmopt watch[{iteration}]: {} ok, {failed} failed; session: {hits} incremental hits, \
         {delta_blocks} delta block rows; edits: {}; solve {:.3?} / tail {:.3?}; {:.3?}",
        units.len() - failed,
        engine.edit_classes(),
        std::time::Duration::from_nanos(phases.solve_ns),
        std::time::Duration::from_nanos(phases.tail_ns),
        start.elapsed()
    );
    let text = batch_report::render_incremental_text(&units);
    match output {
        Some(path) => std::fs::write(path, &text)
            .map_err(|e| Failure::new(EXIT_USAGE, format!("writing {path}: {e}")))?,
        None => print!("{text}"),
    }
    Ok(failed)
}

fn run_watch(cli: WatchCli) -> Result<(), Failure> {
    let opts = BatchOptions {
        jobs: 1,
        placement: cli.placement,
        validate: cli.validate,
        seed: VALIDATION_SEED,
        strategy: cli.solver,
        ..BatchOptions::default()
    };
    let mut engine = BatchEngine::new(opts);
    // The initial revision must load: a watch on a missing or broken file
    // is a usage/parse error, not an empty vigil.
    let mut last = std::fs::read(&cli.file)
        .map_err(|e| Failure::new(EXIT_USAGE, format!("reading {}: {e}", cli.file)))?;
    let parse = |bytes: Vec<u8>, file: &str| -> Result<Module, Failure> {
        let text = text_from_bytes(bytes).map_err(|e| {
            Failure::new(
                EXIT_PARSE,
                format!("{file}:{}:{}: {}", e.line, e.col, e.message),
            )
        })?;
        parse_module(&text).map_err(|e| {
            Failure::new(
                EXIT_PARSE,
                format!("{file}:{}:{}: {}", e.line, e.col, e.message),
            )
        })
    };
    let module = parse(last.clone(), &cli.file)?;
    let mut failed = watch_once(&mut engine, &module, 0, &cli.output)?;
    let mut done = 0u64;
    while cli.iterations == 0 || done < cli.iterations {
        std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms));
        // Content comparison, not just mtime: editors and scripted smoke
        // tests can rewrite within the filesystem's mtime granularity.
        let bytes = match std::fs::read(&cli.file) {
            Ok(b) => b,
            Err(e) => {
                // A vanished file is usually an editor's save-by-rename
                // mid-flight; report and keep polling.
                eprintln!("lcmopt watch: reading {}: {e}", cli.file);
                continue;
            }
        };
        if bytes == last {
            continue;
        }
        last = bytes.clone();
        let module = match parse(bytes, &cli.file) {
            Ok(m) => m,
            Err(e) => {
                // Half-saved revisions happen; they cost a diagnostic, not
                // the watch.
                eprintln!("lcmopt watch: {}", e.message);
                continue;
            }
        };
        done += 1;
        failed = watch_once(&mut engine, &module, done, &cli.output)?;
    }
    if failed > 0 {
        return Err(Failure::new(
            EXIT_PASS,
            format!("{failed} functions failed in the last run"),
        ));
    }
    Ok(())
}

fn read_input(file: &Option<String>) -> Result<String, Failure> {
    let bytes = match file.as_deref() {
        None | Some("-") => {
            let mut buf = Vec::new();
            std::io::stdin()
                .read_to_end(&mut buf)
                .map_err(|e| Failure::new(EXIT_USAGE, format!("reading stdin: {e}")))?;
            buf
        }
        Some(path) => std::fs::read(path)
            .map_err(|e| Failure::new(EXIT_USAGE, format!("reading {path}: {e}")))?,
    };
    // Invalid UTF-8 is a malformed input, not an I/O accident: report it
    // with the same spanned diagnostic shape as a parse error.
    text_from_bytes(bytes).map_err(|e| {
        Failure::new(
            EXIT_PARSE,
            format!("{}:{}:{}: {}", input_name(file), e.line, e.col, e.message),
        )
    })
}

/// One stderr line describing how a `--cache-file` loaded (nothing for a
/// cold start).
fn note_load_status(who: &str, status: Option<&LoadStatus>) {
    match status {
        Some(LoadStatus::Loaded { entries }) => {
            eprintln!("lcmopt {who}: cache file loaded, {entries} entries");
        }
        Some(LoadStatus::Quarantined { error, sidecar }) => {
            eprintln!(
                "lcmopt {who}: cache file refused ({error}); quarantined to {}",
                sidecar.display()
            );
        }
        Some(LoadStatus::Fresh) | None => {}
    }
}

/// The name shown in diagnostics for the input stream.
fn input_name(file: &Option<String>) -> &str {
    match file.as_deref() {
        None | Some("-") => "<stdin>",
        Some(path) => path,
    }
}

/// The PRE algorithm a pass name selects; `spec` only with edge weights.
fn algorithm_by_name(name: &str, weighted: bool) -> Option<PreAlgorithm> {
    let spec = weighted.then_some(PreAlgorithm::Speculative);
    let mut all = PreAlgorithm::ALL.into_iter().chain(spec);
    all.find(|a| a.name() == name)
}

/// Seed for the full tier's differential input sampling: fixed, so runs
/// are reproducible; validation failures therefore always replay.
const VALIDATION_SEED: u64 = 0x1c3a_57ed;

/// Each PRE pass's validation report, by pass name.
type Reports = Vec<(String, ValidationReport)>;

/// Runs `pass_names` in order, every PRE pass through the checked call at
/// the fixed validation seed, unbudgeted; `weights` is the edge profile a
/// `spec` pass plans against. Returns the result, the reports, and the
/// speculative planner's decisions.
fn run_pipeline(
    f: &Function,
    pass_names: &[String],
    level: ValidationLevel,
    weights: Option<&EdgeWeights>,
) -> Result<(Function, Reports, Option<SpecStats>), Failure> {
    let mut g = f.clone();
    let mut reports = Vec::new();
    let mut spec = None;
    let (mut session, budget) = (Session::new(), OptimizeBudget::unlimited());
    for name in pass_names {
        match name.as_str() {
            "lcse" => {
                passes::lcse(&mut g);
            }
            "copyprop" => {
                passes::copy_propagation(&mut g);
            }
            "dce" => {
                passes::dce(&mut g);
            }
            "simplify" => {
                simplify_cfg(&mut g);
            }
            "strength" => {
                g = lcm::core::strength::strength_reduce(&g).function;
            }
            other => match algorithm_by_name(other, weights.is_some()) {
                Some(placement) => {
                    let opts = lcm::core::Options {
                        placement,
                        validate: level,
                        seed: VALIDATION_SEED,
                        solver: SolveStrategy::default(),
                    };
                    let failed = |e| Failure::new(EXIT_PASS, format!("pass `{name}` failed: {e}"));
                    let (opt, rep) = optimize_checked(&g, weights, &opts, &budget, &mut session)
                        .map_err(failed)?;
                    reports.push((name.clone(), rep));
                    spec = opt.spec.or(spec);
                    g = opt.function;
                }
                None => {
                    return Err(Failure::new(
                        EXIT_USAGE,
                        format!("unknown pass `{other}`\n{}", usage()),
                    ));
                }
            },
        }
        verify(&g).map_err(|e| {
            Failure::new(EXIT_PASS, format!("pass `{name}` produced invalid IR: {e}"))
        })?;
    }
    Ok((g, reports, spec))
}

/// The default pass pipeline with the PRE step swapped for `alg`.
fn placement_passes(alg: PreAlgorithm) -> Vec<String> {
    vec![
        "lcse".into(),
        alg.name().into(),
        "copyprop".into(),
        "dce".into(),
        "simplify".into(),
    ]
}

fn compare(f: &Function) -> Result<(), Failure> {
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>12} {:>8}",
        "algorithm", "inserts", "deletes", "temps", "live points", "instrs"
    );
    for alg in PreAlgorithm::ALL {
        let o = optimize(f, alg)
            .map_err(|e| Failure::new(EXIT_PASS, format!("{} failed: {e}", alg.name())))?;
        println!(
            "{:<16} {:>8} {:>8} {:>8} {:>12} {:>8}",
            alg.name(),
            o.transform.stats.insertions,
            o.transform.stats.deletions,
            o.transform.stats.temps,
            metrics::live_points(&o.function, &o.transform.temp_vars()),
            o.function.num_instrs(),
        );
    }
    Ok(())
}

/// Marker appended to a printed trace when the run exhausted its fuel.
fn completion_marker(completed: bool) -> &'static str {
    if completed {
        ""
    } else {
        " [incomplete: fuel exhausted]"
    }
}

fn real_main() -> Result<(), Failure> {
    match std::env::args().nth(1).as_deref() {
        Some("batch") => {
            return match parse_batch_args(std::env::args().skip(2))? {
                Some(cli) => run_batch(cli),
                None => {
                    println!("{}", batch_usage());
                    Ok(())
                }
            };
        }
        Some("lift") => {
            return match parse_lift_args(std::env::args().skip(2))? {
                Some(cli) => run_lift(cli),
                None => {
                    println!("{}", lift_usage());
                    Ok(())
                }
            };
        }
        Some("serve") => {
            return match parse_serve_args(std::env::args().skip(2))? {
                Some(cli) => run_serve(cli),
                None => {
                    println!("{}", serve_usage());
                    Ok(())
                }
            };
        }
        Some("request") => {
            return match parse_request_args(std::env::args().skip(2))? {
                Some(cli) => run_request(cli),
                None => {
                    println!("{}", request_usage());
                    Ok(())
                }
            };
        }
        Some("watch") => {
            return match parse_watch_args(std::env::args().skip(2))? {
                Some(cli) => run_watch(cli),
                None => {
                    println!("{}", watch_usage());
                    Ok(())
                }
            };
        }
        _ => {}
    }
    let opts = match parse_args()? {
        Some(o) => o,
        None => {
            println!("{}", usage());
            return Ok(());
        }
    };
    if opts.placement.is_some() && opts.passes_set {
        return Err(Failure::new(
            EXIT_USAGE,
            format!(
                "--placement and --passes are mutually exclusive\n{}",
                usage()
            ),
        ));
    }
    let text = read_input(&opts.file)?;
    // Parsed as a (single-function) module so a `profile` section is
    // picked up; parse-time profile validation (structure and flow
    // conservation) reports through the same spanned diagnostic.
    let module = parse_module(&text).map_err(|e| {
        Failure::new(
            EXIT_PARSE,
            format!(
                "{}:{}:{}: {}",
                input_name(&opts.file),
                e.line,
                e.col,
                e.message
            ),
        )
    })?;
    let functions: Vec<&Function> = module.iter().collect();
    let f = match functions.as_slice() {
        [f] => (*f).clone(),
        many => {
            return Err(Failure::new(
                EXIT_USAGE,
                format!(
                    "input has {} functions; use `lcmopt batch` for modules",
                    many.len()
                ),
            ));
        }
    };
    verify(&f).map_err(|e| Failure::new(EXIT_VERIFY, format!("input is not well-formed: {e}")))?;

    if opts.compare {
        return compare(&f);
    }

    let mut profile_note: Option<String> = None;
    let (g, reports, spec_stats) = match opts.placement {
        None => run_pipeline(&f, &opts.passes, opts.validate, None)?,
        Some(PreAlgorithm::Speculative) => {
            match module
                .profile(&f.name)
                .and_then(|p| EdgeWeights::from_profile(&f, p).ok())
            {
                Some(w) => {
                    profile_note = Some(format!(
                        "profile: {} weighted edges, entry count {}",
                        w.edges.len(),
                        w.entry
                    ));
                    let passes = placement_passes(PreAlgorithm::Speculative);
                    run_pipeline(&f, &passes, opts.validate, Some(&w))?
                }
                None => {
                    profile_note =
                        Some("profile: none — speculative placement fell back to lcm".to_string());
                    let passes = placement_passes(PreAlgorithm::LazyEdge);
                    run_pipeline(&f, &passes, opts.validate, None)?
                }
            }
        }
        Some(alg) => run_pipeline(&f, &placement_passes(alg), opts.validate, None)?,
    };

    match opts.emit.as_str() {
        "text" => println!("{g}"),
        "dot" => print!("{}", dot::render(&g, |_| None)),
        "stats" => {
            println!("blocks: {} -> {}", f.num_blocks(), g.num_blocks());
            println!("instructions: {} -> {}", f.num_instrs(), g.num_instrs());
            println!(
                "candidate evaluation sites: {} -> {}",
                f.expr_occurrences().count(),
                g.expr_occurrences().count()
            );
            // Solver cost of the fused LCM pipeline on the original input,
            // under the requested solver strategy (fresh scratch, so the
            // numbers are reproducible run to run).
            let p = lcm::core::lcm_with(&f, opts.solver, &mut SolverScratch::new())
                .map_err(|e| Failure::new(EXIT_PASS, format!("stats analysis failed: {e}")))?;
            println!();
            print!("{}", report::stats_table(&p.stats));
            for (pass, rep) in &reports {
                println!();
                println!("validation of pass `{pass}`:");
                print!("{}", report::validation_table(rep));
            }
            if let Some(note) = &profile_note {
                println!();
                println!("{note}");
            }
            if let Some(s) = &spec_stats {
                println!(
                    "speculative: {} candidates, {} speculated, weighted cost {} -> {}",
                    s.candidates, s.speculated, s.lcm_weighted_cost, s.spec_weighted_cost
                );
            }
            if opts.placement.is_some() {
                // Interpreter-measured evaluation counts over the
                // validator's input distribution, so `--placement spec`
                // and `--placement lcm` runs are directly comparable.
                let mut state = VALIDATION_SEED;
                let (mut before, mut after) = (0u64, 0u64);
                for _ in 0..4 {
                    let inputs = lcm::core::validate::sample_inputs(&f, &mut state);
                    before += run(&f, &inputs, opts.fuel).total_evals();
                    after += run(&g, &inputs, opts.fuel).total_evals();
                }
                println!("dynamic evaluations (4 seeded inputs): {before} -> {after}");
            }
        }
        "none" => {}
        _ => unreachable!("emit kind validated"),
    }

    if opts.run {
        let inputs: Inputs = opts.inputs.into_iter().collect();
        let before = run(&f, &inputs, opts.fuel);
        let after = run(&g, &inputs, opts.fuel);
        println!(
            "trace before: {:?}{}",
            before.trace,
            completion_marker(before.completed())
        );
        println!(
            "trace after:  {:?}{}",
            after.trace,
            completion_marker(after.completed())
        );
        println!(
            "evaluations:  {} -> {}",
            before.total_evals(),
            after.total_evals()
        );
        if before.trace != after.trace {
            return Err(Failure::new(EXIT_PASS, "BUG: traces differ!"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    // Malformed input must never escape as a panic: route any internal
    // panic through a diagnostic and a distinct exit code instead of an
    // abort with a backtrace.
    panic::set_hook(Box::new(|info| {
        eprintln!("lcmopt: internal error: {info}");
    }));
    match panic::catch_unwind(AssertUnwindSafe(real_main)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(failure)) => {
            eprintln!("lcmopt: {}", failure.message);
            ExitCode::from(failure.code)
        }
        Err(_) => ExitCode::from(EXIT_PANIC),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_above_the_ceiling_are_refused() {
        assert_eq!(parse_thread_count("job", "0"), Ok(0));
        assert_eq!(parse_thread_count("job", "4"), Ok(4));
        assert_eq!(parse_thread_count("worker", "1024"), Ok(MAX_THREADS));
        for n in ["1025", "100000", &usize::MAX.to_string()] {
            let e = parse_thread_count("worker", n).unwrap_err();
            assert!(e.contains("exceeds the limit of 1024"), "{e}");
        }
        assert_eq!(
            parse_thread_count("job", "-1"),
            Err("bad job count `-1`".to_string())
        );
        assert!(parse_thread_count("worker", "many").is_err());
    }

    #[test]
    fn excessive_thread_counts_are_usage_errors() {
        // The arguments are only parsed: nothing is spawned.
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let e = parse_batch_args(args(&["--jobs", "100000", "m.lcm"]).into_iter())
            .err()
            .unwrap();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.starts_with("job count `100000` exceeds"));
        let e = parse_serve_args(args(&["--workers", "5000"]).into_iter())
            .err()
            .unwrap();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.starts_with("worker count `5000` exceeds"));
    }
}
