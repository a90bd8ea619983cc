//! The span recorder of the traced run. Spans are recorded by the
//! benchmark around each call into a public layer of the program (spans
//! inside the program are not this recorder's business). Each span keeps
//! its name, start, end, parent span and op id in memory; the whole list is
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder. When off, [`Tracer::span`] only calls its closure, so the
/// same code path runs traced and untraced.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

/// The root span name of one op.
pub const OP: &str = "op";

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` as one op: a root span named [`OP`] under a fresh op id.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        self.span(OP, f)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// Adds `by` to the counter `name`, when tracing is on. Counters are
    /// recorded at the same boundaries as the spans.
    pub fn count(&mut self, name: &'static str, by: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += by;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Self time per span name in nanoseconds: each span's duration minus
    /// the part its child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Summed duration of the spans named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Number of spans recorded.
    pub fn calls_total(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as a tab-separated line:
    /// `id op parent name start_ns end_ns` (`parent` is `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("id\top\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}
