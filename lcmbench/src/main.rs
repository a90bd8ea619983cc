//! `lcmbench` — the workspace's end-to-end and per-layer benchmark.
//!
//! ```sh
//! python3 lcmbench/run.py --workload batch-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `run.py` builds this binary and runs one workload: untraced
//! (`--trace 0`) it prints the end-to-end metrics, traced (`--trace 1`) the
//! per-layer split. Every output is checked by an oracle that does not
//! trust the optimizer. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is
//! non-zero when any check failed.

mod batch;
mod gen;
mod layers;
mod oracle;
mod pipeline;
mod stats;
mod trace;
mod watch;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Ops an untimed-out run makes at least, so its p99 has ten samples
/// beyond it.
pub const MIN_OPS: usize = 1000;

/// Whether a closed-loop run goes on: until it has been busy for the
/// budget and made [`MIN_OPS`] ops, but never busy for more than four
/// budgets.
pub fn keep_going(busy: std::time::Duration, budget: std::time::Duration, ops: usize) -> bool {
    (busy < budget || ops < MIN_OPS) && busy < budget * 4
}

/// Everything one run knows before it starts.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the span dump is written to.
    pub work: PathBuf,
    pub nproc: usize,
}

/// One reported metric; `None` is "does not apply to this workload".
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failure descriptions (the first few are printed).
    pub failures: Vec<String>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: Some(value),
            unit,
        });
    }

    pub fn na(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric {
            name,
            value: None,
            unit,
        });
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lcmbench --workload batch-cold|watch-edit --seed N --seconds S --trace 0|1 \
         --work DIR [--rustc V] [--rev R]"
    );
    std::process::exit(2)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work = None;
    let (mut rustc, mut rev) = ("unknown".to_string(), "unknown".to_string());
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok(),
            "--trace" => trace = Some(val() == "1"),
            "--work" => work = Some(PathBuf::from(val())),
            "--rustc" => rustc = val(),
            "--rev" => rev = val(),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(work)) =
        (workload, seed, seconds, trace, work)
    else {
        usage()
    };
    let work = match std::fs::create_dir_all(&work).and_then(|()| work.canonicalize()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("lcmbench: cannot create {}: {e}", work.display());
            return ExitCode::from(2);
        }
    };
    let run = Run {
        seed,
        seconds,
        trace,
        work,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };

    let env = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \
         \"cpu\": {}, \"rustc\": {}, \"git_rev\": {}, \"params\": {{{}}}}}",
        json_str(&workload),
        u8::from(trace),
        json_num(seconds),
        run.nproc,
        json_str(&cpu_model()),
        json_str(&rustc),
        json_str(&rev),
        [
            ("batch_fns", gen::BATCH_FNS as f64),
            ("large_every", gen::LARGE_EVERY as f64),
            ("dup_share", gen::DUP_SHARE),
            ("mem_share", gen::MEM_SHARE),
            ("watch_fns", gen::WATCH_FNS as f64),
            ("shape_prob", gen::SHAPE_PROB),
            ("spec_units", batch::SPEC_UNITS as f64),
            ("persist_cache_cap", batch::PERSIST_CACHE_CAP as f64),
        ]
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
        .collect::<Vec<_>>()
        .join(", ")
    );
    println!("# env {env}");

    let outcome = match workload.as_str() {
        "batch-cold" => batch::run(&run),
        "watch-edit" => watch::run(&run),
        _ => usage(),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lcmbench: {workload}: {e}");
            return ExitCode::from(1);
        }
    };

    for n in &outcome.notes {
        println!("# {n}");
    }
    let fail_ratio = stats::ratio(outcome.failed as f64, outcome.attempted as f64);
    println!(
        "# {workload}: {} ops attempted, {} failed, fail_ratio {fail_ratio}",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        match m.value {
            Some(v) => println!("#   {:<32} {:>16.6} {}", m.name, v, m.unit),
            None => println!("#   {:<32} {:>16} {}", m.name, "n/a", m.unit),
        }
    }
    for f in outcome.failures.iter().take(10) {
        eprintln!("lcmbench: check failed: {f}");
    }
    let correct = outcome.failed == 0 && outcome.failures.is_empty();
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value.unwrap_or(0.0)),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
