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
//!
//! Every command reads its arguments through one flag table ([`parse`])
//! into one [`Cli`], whose library options start from
//! [`ServeOptions::default`], and reads every module input through one
//! loader ([`read`], [`load_text`], [`load_module`]).

use std::io::Read;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;

use lcm::core::{
    metrics, optimize, optimize_checked, passes, report, EdgeWeights, OptimizeBudget, PreAlgorithm,
    Session, SpecStats, ValidationLevel, ValidationReport,
};
use lcm::dataflow::SolverScratch;
use lcm::driver::protocol::{
    failure_code_name, read_response, write_request, Request, Response, ERR_PARSE,
};
use lcm::driver::report::{self as batch_report, UnitText};
use lcm::driver::serve::{Daemon, ServeOptions};
use lcm::driver::{
    text_from_bytes, BatchEngine, BatchOptions, BatchUnit, IncrementalMode, LoadError, LoadStatus,
    UnitOutcome,
};
use lcm::interp::{run, Inputs};
use lcm::ir::{
    dot, lift_module, parse_function, parse_module, simplify_cfg, verify, Function, Module,
    ParseError,
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

/// `lcmopt`'s commands; [`Command::File`] is `lcmopt [OPTIONS] [FILE]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Command {
    File,
    Batch,
    Lift,
    Serve,
    Request,
    Watch,
}

impl Command {
    /// The command a first argument names; anything else is `File`'s.
    fn named(arg: Option<&str>) -> Command {
        match arg {
            Some("batch") => Command::Batch,
            Some("lift") => Command::Lift,
            Some("serve") => Command::Serve,
            Some("request") => Command::Request,
            Some("watch") => Command::Watch,
            _ => Command::File,
        }
    }

    fn usage(self) -> &'static str {
        match self {
            Command::File => FILE_USAGE,
            Command::Batch => BATCH_USAGE,
            Command::Lift => LIFT_USAGE,
            Command::Serve => SERVE_USAGE,
            Command::Request => REQUEST_USAGE,
            Command::Watch => WATCH_USAGE,
        }
    }

    /// What the command's `--emit` accepts.
    fn emits(self) -> &'static [(&'static str, Emit)] {
        // Ordered so that each command's kinds are a prefix.
        const EMITS: [(&str, Emit); 5] = [
            ("text", Emit::Text),
            ("dot", Emit::Dot),
            ("stats", Emit::Stats),
            ("none", Emit::None),
            ("json", Emit::Json),
        ];
        match self {
            Command::File => &EMITS[..4],
            Command::Batch => &EMITS,
            Command::Lift => &EMITS[..2],
            Command::Serve | Command::Request | Command::Watch => &[],
        }
    }
}

const FILE_USAGE: &str = "usage: lcmopt [-p|--passes LIST] [--placement lcm|bcm|spec] \
     [-e|--emit text|dot|stats|none] \
     [--validate[=off|fast|full]] [--run KEY=VAL]... \
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
     5 pass/validation failure";

const BATCH_USAGE: &str = "usage: lcmopt batch [-j|--jobs N] [--placement lcm|bcm|spec] \
     [--cache on|off] \
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
     exit codes: 0 ok, 1 internal error, 2 usage, 3 parse, 5 any unit failed";

const LIFT_USAGE: &str = "usage: lcmopt lift [-e|--emit text|dot] [--stats] <FILE|->\n\
     Lifts a flat three-address listing — one instruction per line, \
     control via `goto INDEX` / `if VAR goto INDEX` / `ret`, optional \
     `fn NAME` section headers — into block-structured module IR by a \
     leader scan, and prints the module on stdout.\n\
     The output composes with every other front: \
     `lcmopt lift prog.l3a | lcmopt batch -` lifts then optimizes.\n\
     --stats adds one summary line per function on stderr (instruction, \
     block and dropped-unreachable-block counts).\n\
     exit codes: 0 ok, 2 usage, 3 lift error (FILE:LINE: message, with \
     LINE relative to the input file)";

const SERVE_USAGE: &str = "usage: lcmopt serve [--socket PATH] [--cache-file PATH] [--workers N] \
     [--queue-cap N] [--retry-after-ms N] [--placement lcm|bcm|spec] \
     [--cache on|off] [--cache-cap N] \
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
     it are shed with OVERLOADED and the --retry-after-ms hint.";

const REQUEST_USAGE: &str = "usage: lcmopt request --socket PATH [--deadline-ms N] [--fuel N] \
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
     5 any unit failed, 6 the daemon shed the request (overloaded)";

const WATCH_USAGE: &str = "usage: lcmopt watch [--interval-ms N] [--iterations N] [-o|--output \
     PATH] [--placement lcm|bcm|spec] \
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
     failed to parse, 5 any unit of the last completed run failed";

/// What `--emit` prints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Emit {
    Text,
    Dot,
    Stats,
    Json,
    None,
}

/// The placements `--placement` names.
const PLACEMENTS: &[(&str, PreAlgorithm)] = &[
    ("lcm", PreAlgorithm::LazyEdge),
    ("bcm", PreAlgorithm::Busy),
    ("spec", PreAlgorithm::Speculative),
];

/// Interpreter fuel for `lcmopt FILE` when `--fuel` does not set it.
const INTERP_FUEL: u64 = 1_000_000;

/// One command line, read by [`parse`]. The library's options start from
/// [`ServeOptions::default`]: `serve.batch` is what `batch`, `watch` and
/// `lcmopt FILE` optimize with, and `serve.cache_file` is `--cache-file`
/// for `batch` too. Each field is set only by the commands whose flags
/// name it.
struct Cli {
    /// The positional input: a file, a directory (`batch`), or `-` for
    /// stdin.
    input: Option<String>,
    serve: ServeOptions,
    emit: Emit,
    /// `lcmopt FILE`: an explicit pass list, or a placement that swaps the
    /// PRE step of the default one (mutually exclusive).
    passes: Option<Vec<String>>,
    placement: Option<PreAlgorithm>,
    /// `lcmopt FILE --run` inputs, in order.
    runs: Vec<(String, i64)>,
    /// `--fuel`: the interpreter's for `lcmopt FILE` (default
    /// [`INTERP_FUEL`]), each unit's for `request` (default 0, unlimited).
    fuel: Option<u64>,
    compare: bool,
    /// `lift --stats` and `request --stats`.
    stats: bool,
    socket: Option<String>,
    deadline_ms: u32,
    shutdown: bool,
    interval_ms: u64,
    iterations: u64,
    output: Option<String>,
}

impl Cli {
    /// The positional input; `-` (stdin) when none was given.
    fn input(&self) -> &str {
        self.input.as_deref().unwrap_or("-")
    }
}

/// Reads `cmd`'s arguments. Each flag is matched together with the
/// commands that take it; whatever no command takes is the one positional
/// input or a usage error. `Ok(None)` means `-h`/`--help` was given.
fn parse(cmd: Command, args: Vec<String>) -> Result<Option<Cli>, Failure> {
    use Command::*;
    let mut a = Args {
        rest: args.into_iter(),
        usage: cmd.usage(),
    };
    let mut cli = Cli {
        input: None,
        serve: ServeOptions::default(),
        emit: Emit::Text,
        passes: None,
        placement: None,
        runs: Vec::new(),
        fuel: None,
        compare: false,
        stats: false,
        socket: None,
        deadline_ms: 0,
        shutdown: false,
        interval_ms: 50,
        iterations: 0,
        output: None,
    };
    let opts = &mut cli.serve;
    while let Some(arg) = a.rest.next() {
        match (cmd, arg.as_str()) {
            (_, "-h" | "--help") => return Ok(None),
            (File, "-p" | "--passes") => {
                let list = a.value(&arg)?;
                cli.passes = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            (File, "--placement") => {
                cli.placement = Some(a.choice(&arg, "placement", PLACEMENTS)?);
            }
            (Batch | Serve | Watch, "--placement") => {
                opts.batch.placement = a.choice(&arg, "placement", PLACEMENTS)?;
            }
            (File | Batch | Serve | Watch, v)
                if v == "--validate" || v.starts_with("--validate=") =>
            {
                opts.batch.validate = a.validate(v)?;
            }
            (File | Batch | Lift, "-e" | "--emit") => {
                cli.emit = a.choice(&arg, "emit kind", cmd.emits())?;
            }
            (File, "--run") => {
                let kv = a.value(&arg)?;
                let run = kv
                    .split_once('=')
                    .and_then(|(k, v)| Some((k, v.parse().ok()?)));
                let (k, v) =
                    run.ok_or_else(|| a.error(format!("--run needs KEY=VAL, not `{kv}`")))?;
                cli.runs.push((k.to_string(), v));
            }
            (File | Request, "--fuel") => cli.fuel = Some(a.number(&arg)?),
            (File, "--compare") => cli.compare = true,
            (Batch, "-j" | "--jobs") => opts.batch.jobs = a.threads(&arg, "job")?,
            (Serve, "--workers") => opts.workers = a.threads(&arg, "worker")?,
            (Batch | Serve, "--cache") => {
                opts.batch.use_cache =
                    a.choice(&arg, "cache mode", &[("on", true), ("off", false)])?;
            }
            (Batch | Serve, "--cache-cap") => opts.batch.cache_capacity = a.number(&arg)?,
            (Batch | Serve, "--cache-file") => opts.cache_file = Some(a.value(&arg)?.into()),
            (Serve, "--queue-cap") => opts.queue_capacity = a.number(&arg)?,
            (Serve, "--retry-after-ms") => opts.retry_after_ms = a.number(&arg)?,
            (Serve | Request, "--socket") => cli.socket = Some(a.value(&arg)?),
            (Lift | Request, "--stats") => cli.stats = true,
            (Request, "--deadline-ms") => cli.deadline_ms = a.number(&arg)?,
            (Request, "--shutdown") => cli.shutdown = true,
            (Watch, "--interval-ms") => cli.interval_ms = a.number(&arg)?,
            (Watch, "--iterations") => cli.iterations = a.number(&arg)?,
            (Watch, "-o" | "--output") => cli.output = Some(a.value(&arg)?),
            // `serve` reads no input, and `watch` polls a file, not stdin.
            (Serve, _) | (Watch, "-") => return Err(a.unknown(&arg)),
            (_, v) if v.starts_with('-') && v != "-" => return Err(a.unknown(&arg)),
            _ if cli.input.is_some() => return Err(a.error("more than one input")),
            _ => cli.input = Some(arg),
        }
    }
    // `request` sends a module, asks for stats or asks for a shutdown.
    let modes =
        usize::from(cli.input.is_some()) + usize::from(cli.stats) + usize::from(cli.shutdown);
    let problem = match cmd {
        File if cli.passes.is_some() && cli.placement.is_some() => {
            Some("--placement and --passes are mutually exclusive")
        }
        Batch if cli.input.is_none() => Some("batch needs an input PATH"),
        Lift if cli.input.is_none() => Some("lift needs an input FILE"),
        Watch if cli.input.is_none() => Some("watch needs an input FILE"),
        Request if cli.socket.is_none() => Some("request needs --socket PATH"),
        Request if modes != 1 => {
            Some("request needs exactly one of: an input PATH, --stats, --shutdown")
        }
        _ => None,
    };
    match problem {
        Some(p) => Err(a.error(p)),
        None => Ok(Some(cli)),
    }
}

/// One command's arguments, read left to right. Every malformed one is a
/// usage error: exit 2, with the command's usage appended.
struct Args {
    rest: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Args {
    fn error(&self, message: impl std::fmt::Display) -> Failure {
        Failure::new(EXIT_USAGE, format!("{message}\n{}", self.usage))
    }

    fn unknown(&self, arg: &str) -> Failure {
        self.error(format!("unknown argument `{arg}`"))
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<String, Failure> {
        let v = self.rest.next();
        v.ok_or_else(|| self.error(format!("{flag} needs an argument")))
    }

    /// The number after `flag`.
    fn number<N: std::str::FromStr>(&mut self, flag: &str) -> Result<N, Failure> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| self.error(format!("{flag} needs a number, not `{v}`")))
    }

    /// The thread count after `flag` (see [`parse_thread_count`]).
    fn threads(&mut self, flag: &str, what: &str) -> Result<usize, Failure> {
        let v = self.value(flag)?;
        parse_thread_count(what, &v).map_err(|e| self.error(e))
    }

    /// The value after `flag`, which must name one of `choices`; `what`
    /// names the kind in the diagnostic.
    fn choice<T: Copy>(
        &mut self,
        flag: &str,
        what: &str,
        choices: &[(&str, T)],
    ) -> Result<T, Failure> {
        let v = self.value(flag)?;
        match choices.iter().find(|(name, _)| *name == v) {
            Some(&(_, chosen)) => Ok(chosen),
            None => {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                Err(self.error(format!("unknown {what} `{v}` (want {})", names.join(", "))))
            }
        }
    }

    /// `--validate` (the fast tier) or `--validate=LEVEL`.
    fn validate(&self, arg: &str) -> Result<ValidationLevel, Failure> {
        match arg.strip_prefix("--validate=") {
            Some(level) => level.parse().map_err(|e: String| self.error(e)),
            None => Ok(ValidationLevel::Fast),
        }
    }
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

/// The name shown in diagnostics for `input`.
fn input_name(input: &str) -> &str {
    match input {
        "-" => "<stdin>",
        path => path,
    }
}

/// The bytes of `input`: stdin for `-`, else the file. Unreadable input is
/// a usage error.
fn read(input: &str) -> Result<Vec<u8>, Failure> {
    if input == "-" {
        let mut buf = Vec::new();
        std::io::stdin()
            .read_to_end(&mut buf)
            .map_err(|e| Failure::new(EXIT_USAGE, format!("reading stdin: {e}")))?;
        return Ok(buf);
    }
    std::fs::read(input).map_err(|e| Failure::new(EXIT_USAGE, format!("reading {input}: {e}")))
}

/// A parse error in `input` as the spanned `NAME:line:col: message`
/// diagnostic.
fn spanned(input: &str, e: &ParseError) -> Failure {
    Failure::new(
        EXIT_PARSE,
        format!("{}:{}:{}: {}", input_name(input), e.line, e.col, e.message),
    )
}

/// The text of `input` from its bytes. Invalid UTF-8 is a malformed input,
/// not an I/O accident: it gets the spanned diagnostic of a parse error.
fn load_text(input: &str, bytes: Vec<u8>) -> Result<String, Failure> {
    text_from_bytes(bytes).map_err(|e| spanned(input, &e))
}

/// The module in `input`'s bytes: a file, stdin, or a watched revision.
fn load_module(input: &str, bytes: Vec<u8>) -> Result<Module, Failure> {
    let text = load_text(input, bytes)?;
    parse_module(&text).map_err(|e| spanned(input, &e))
}

/// A batch's units: the module on stdin for `-`, else every function of a
/// module file or of a directory's `.lcm` files.
fn batch_units(input: &str) -> Result<Vec<BatchUnit>, Failure> {
    if input == "-" {
        let module = load_module(input, read(input)?)?;
        return Ok(module
            .iter()
            .map(|f| BatchUnit {
                file: None,
                profile: module.profile(&f.name).cloned(),
                function: f.clone(),
            })
            .collect());
    }
    lcm::driver::load_units(Path::new(input)).map_err(|e| match &e {
        LoadError::Parse { path, error } => spanned(path, error),
        _ => Failure::new(EXIT_USAGE, e.to_string()),
    })
}

fn run_batch(cli: Cli) -> Result<(), Failure> {
    let units = batch_units(cli.input())?;
    let n = units.len();
    let start = std::time::Instant::now();
    let mut engine = match &cli.serve.cache_file {
        Some(path) => {
            let engine = BatchEngine::with_cache_file(cli.serve.batch, path);
            note_load_status("batch", engine.load_status());
            engine
        }
        None => BatchEngine::new(cli.serve.batch),
    };
    let result = engine.run(units);
    if cli.serve.cache_file.is_some() {
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
    match cli.emit {
        Emit::Text => print!("{}", batch_report::render_text(&result)),
        Emit::Stats => print!("{}", batch_report::render_stats(&result)),
        Emit::Json => print!("{}", batch_report::render_json(&result)),
        Emit::Dot => {
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
        Emit::None => {}
    }
    if result.totals.failed > 0 {
        return Err(Failure::new(
            EXIT_PASS,
            format!("{} of {n} functions failed", result.totals.failed),
        ));
    }
    Ok(())
}

fn run_lift(cli: Cli) -> Result<(), Failure> {
    let input = cli.input();
    let text = load_text(input, read(input)?)?;
    let lifted = lift_module(&text).map_err(|e| {
        Failure::new(
            EXIT_PARSE,
            format!("{}:{}: {}", input_name(input), e.line, e.message),
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
    match cli.emit {
        Emit::Text => println!("{}", lifted.module),
        Emit::Dot => print!("{}", dot::render_module(&lifted.module)),
        _ => unreachable!("emit kind validated"),
    }
    Ok(())
}

fn run_serve(cli: Cli) -> Result<(), Failure> {
    let daemon = Daemon::start(cli.serve);
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

/// A unit the daemon streamed back: its input index, and its output or
/// its failure's wire code, function name and message.
#[cfg(unix)]
type Streamed = (u32, Result<String, (u8, String, String)>);

#[cfg(unix)]
fn run_request(cli: Cli) -> Result<(), Failure> {
    use std::os::unix::net::UnixStream;

    let socket = cli.socket.as_deref().expect("checked by parse");
    let transport_err =
        |what: &str| Failure::new(EXIT_USAGE, format!("request: connection {what}"));
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| Failure::new(EXIT_USAGE, format!("connecting {socket}: {e}")))?;

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
    let input = cli.input();
    let module = load_text(input, read(input)?)?;
    write_request(
        &mut stream,
        &Request::Optimize {
            deadline_ms: cli.deadline_ms,
            fuel: cli.fuel.unwrap_or(0),
            module,
        },
    )
    .map_err(|e| transport_err(&format!("failed: {e}")))?;

    // Units stream back in completion order, tagged with their input
    // index; reassemble in input order so the printed module is
    // byte-identical to `lcmopt batch` output.
    let mut units: Vec<Streamed> = Vec::new();
    let (ok, failed) = loop {
        match read_response(&mut stream) {
            Ok(Some(Response::UnitOk { index, output })) => units.push((index, Ok(output))),
            Ok(Some(Response::UnitErr {
                index,
                code,
                name,
                message,
            })) => units.push((index, Err((code, name, message)))),
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
    print!(
        "{}",
        batch_report::render_units(units.iter().map(|(_, unit)| match unit {
            Ok(output) => UnitText::Ok(output),
            Err((code, name, message)) => UnitText::Failed {
                name,
                kind: failure_code_name(*code),
                message,
            },
        }))
    );
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
fn run_request(_cli: Cli) -> Result<(), Failure> {
    Err(Failure::new(
        EXIT_USAGE,
        "lcmopt request needs Unix sockets; unavailable on this platform",
    ))
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

fn run_watch(cli: Cli) -> Result<(), Failure> {
    let mut engine = BatchEngine::new(BatchOptions {
        jobs: 1,
        ..cli.serve.batch
    });
    let file = cli.input();
    // The initial revision must load: a watch on a missing or broken file
    // is a usage/parse error, not an empty vigil.
    let mut last = read(file)?;
    let module = load_module(file, last.clone())?;
    let mut failed = watch_once(&mut engine, &module, 0, &cli.output)?;
    let mut done = 0u64;
    while cli.iterations == 0 || done < cli.iterations {
        std::thread::sleep(std::time::Duration::from_millis(cli.interval_ms));
        // Content comparison, not just mtime: editors and scripted smoke
        // tests can rewrite within the filesystem's mtime granularity.
        let bytes = match std::fs::read(file) {
            Ok(b) => b,
            Err(e) => {
                // A vanished file is usually an editor's save-by-rename
                // mid-flight; report and keep polling.
                eprintln!("lcmopt watch: reading {file}: {e}");
                continue;
            }
        };
        if bytes == last {
            continue;
        }
        last = bytes.clone();
        let module = match load_module(file, bytes) {
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

/// The PRE algorithm a pass name selects; `spec` only with edge weights.
fn algorithm_by_name(name: &str, weighted: bool) -> Option<PreAlgorithm> {
    let spec = weighted.then_some(PreAlgorithm::Speculative);
    let mut all = PreAlgorithm::ALL.into_iter().chain(spec);
    all.find(|a| a.name() == name)
}

/// Each PRE pass's validation report, by pass name.
type Reports = Vec<(String, ValidationReport)>;

/// Runs `pass_names` in order, every PRE pass through the checked call
/// under `opts`' validation tier, seed and solver, unbudgeted; `weights` is
/// the edge profile a `spec` pass plans against. Returns the result, the
/// reports, and the speculative planner's decisions.
fn run_pipeline(
    f: &Function,
    pass_names: &[String],
    opts: &BatchOptions,
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
                        validate: opts.validate,
                        seed: opts.seed,
                        solver: opts.strategy,
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
                        format!("unknown pass `{other}`\n{FILE_USAGE}"),
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

fn run_file(cli: Cli) -> Result<(), Failure> {
    let opts = cli.serve.batch;
    let fuel = cli.fuel.unwrap_or(INTERP_FUEL);
    // Parsed as a (single-function) module so a `profile` section is
    // picked up; parse-time profile validation (structure and flow
    // conservation) reports through the same spanned diagnostic.
    let module = load_module(cli.input(), read(cli.input())?)?;
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

    if cli.compare {
        return compare(&f);
    }

    let mut profile_note: Option<String> = None;
    let (g, reports, spec_stats) = match cli.placement {
        None => {
            let default = placement_passes(PreAlgorithm::LazyEdge);
            run_pipeline(&f, cli.passes.as_ref().unwrap_or(&default), &opts, None)?
        }
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
                    run_pipeline(&f, &passes, &opts, Some(&w))?
                }
                None => {
                    profile_note =
                        Some("profile: none — speculative placement fell back to lcm".to_string());
                    let passes = placement_passes(PreAlgorithm::LazyEdge);
                    run_pipeline(&f, &passes, &opts, None)?
                }
            }
        }
        Some(alg) => run_pipeline(&f, &placement_passes(alg), &opts, None)?,
    };

    match cli.emit {
        Emit::Text => println!("{g}"),
        Emit::Dot => print!("{}", dot::render(&g, |_| None)),
        Emit::Stats => {
            println!("blocks: {} -> {}", f.num_blocks(), g.num_blocks());
            println!("instructions: {} -> {}", f.num_instrs(), g.num_instrs());
            println!(
                "candidate evaluation sites: {} -> {}",
                f.expr_occurrences().count(),
                g.expr_occurrences().count()
            );
            // Solver cost of the fused LCM pipeline on the original input
            // (fresh scratch, so the numbers are reproducible run to run).
            let p = lcm::core::lcm_with(&f, opts.strategy, &mut SolverScratch::new())
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
            if cli.placement.is_some() {
                // Interpreter-measured evaluation counts over the
                // validator's input distribution, so `--placement spec`
                // and `--placement lcm` runs are directly comparable.
                let mut state = opts.seed;
                let (mut before, mut after) = (0u64, 0u64);
                for _ in 0..4 {
                    let inputs = lcm::core::validate::sample_inputs(&f, &mut state);
                    before += run(&f, &inputs, fuel).total_evals();
                    after += run(&g, &inputs, fuel).total_evals();
                }
                println!("dynamic evaluations (4 seeded inputs): {before} -> {after}");
            }
        }
        Emit::None => {}
        Emit::Json => unreachable!("emit kind validated"),
    }

    if !cli.runs.is_empty() {
        let inputs: Inputs = cli.runs.into_iter().collect();
        let before = run(&f, &inputs, fuel);
        let after = run(&g, &inputs, fuel);
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

fn real_main() -> Result<(), Failure> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = Command::named(args.first().map(String::as_str));
    if cmd != Command::File {
        args.remove(0);
    }
    let Some(cli) = parse(cmd, args)? else {
        println!("{}", cmd.usage());
        return Ok(());
    };
    match cmd {
        Command::File => run_file(cli),
        Command::Batch => run_batch(cli),
        Command::Lift => run_lift(cli),
        Command::Serve => run_serve(cli),
        Command::Request => run_request(cli),
        Command::Watch => run_watch(cli),
    }
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
        let e = parse(Command::Batch, args(&["--jobs", "100000", "m.lcm"]))
            .err()
            .unwrap();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.starts_with("job count `100000` exceeds"));
        assert!(e.message.ends_with(BATCH_USAGE));
        let e = parse(Command::Serve, args(&["--workers", "5000"]))
            .err()
            .unwrap();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.starts_with("worker count `5000` exceeds"));
        assert!(e.message.ends_with(SERVE_USAGE));
    }
}
