//! Seeded workload generation. Every input the benchmark sends is a pure
//! function of the workload seed and the fixed parameters below; the
//! optimizer only ever sees the generated module text.
//!
//! The size mix does not depend on the seed: each function's statement
//! count, and whether it touches memory, come from a low-discrepancy
//! sequence over its slot, so every seed sends the same amount of work and
//! only the program structure varies. [`Shape`] measures what the
//! parameters produce, and every run prints it.

use std::fmt;

use lcm_cfggen::{mutate_function, structured, GenOptions, Rng};
use lcm_ir::{Function, Module};

/// Functions per `batch-cold` module (chosen: a small multi-function file,
/// so intra-batch dedup and the `nproc`-job pool both have work).
pub const BATCH_FNS: usize = 8;
/// Every `LARGE_EVERY`-th `batch-cold` module leads with a large function
/// (chosen: "a few have hundreds of blocks" — one function in 48).
pub const LARGE_EVERY: usize = 6;
/// Share of `batch-cold` slots that repeat an earlier body of their module
/// under a new name (chosen: "a few bodies repeat").
pub const DUP_SHARE: f64 = 0.15;
/// Share of functions that carry loads, stores and impure calls (chosen:
/// "some functions carry memory ops").
pub const MEM_SHARE: f64 = 0.25;
/// Functions in the `watch-edit` module: the 200-function module of the
/// probe that motivated the benchmark.
pub const WATCH_FNS: usize = 200;
/// `mutate_function`'s shape-edit probability per `watch-edit` edit, as
/// the workload definition gives it.
pub const SHAPE_PROB: f64 = 0.2;

/// Which size class a generated function falls in. Most functions are
/// small; a few have hundreds of blocks, so per-op latency is heavy-tailed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Small,
    Medium,
    Large,
}

impl Size {
    /// Statement counts of the class (chosen; the resulting block counts
    /// are measured by [`Shape`]).
    fn statements(self) -> (usize, usize) {
        match self {
            Size::Small => (6, 30),
            Size::Medium => (60, 140),
            Size::Large => (700, 1200),
        }
    }
}

/// The `slot`-th point of an additive-recurrence sequence in [0, 1):
/// successive slots spread evenly over the interval.
fn spread(slot: usize, step: f64) -> f64 {
    (slot as f64 * step).fract()
}

/// One seeded function of the given size class for slot `slot`, named
/// `name`. A [`MEM_SHARE`] of slots carries loads, stores and impure calls.
fn function(rng: &mut Rng, size: Size, slot: usize, name: String) -> Function {
    let (lo, hi) = size.statements();
    let statements = lo + (spread(slot, 0.618_033_988_749_895) * (hi - lo) as f64) as usize;
    let mut opts = GenOptions::sized(statements);
    // Bigger bodies draw from bigger variable pools and expression menus,
    // so their candidate universes grow with them.
    opts.num_vars = 6 + statements / 50;
    opts.menu = 5 + statements / 25;
    if spread(slot, 0.754_877_666_246_692_7) < MEM_SHARE {
        opts.mem_prob = 0.15;
    }
    let mut f = structured(rng.next_u64(), &opts);
    f.name = name;
    f
}

/// Module `k` of the `batch-cold` stream, with each function's size class
/// (`None` for a repeated body): [`BATCH_FNS`] functions, the first one
/// large in every [`LARGE_EVERY`]-th module, the next two medium, the rest
/// small. A [`DUP_SHARE`] of slots repeats an earlier body of the same
/// module under a new name, so intra-batch dedup happens.
pub fn batch_module_sized(seed: u64, k: usize) -> (Module, Vec<Option<Size>>) {
    let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k as u64);
    let mut fns: Vec<Function> = Vec::with_capacity(BATCH_FNS);
    let mut sizes = Vec::with_capacity(BATCH_FNS);
    for j in 0..BATCH_FNS {
        let slot = k * BATCH_FNS + j;
        let name = format!("m{k}_f{j}");
        if j > 0 && spread(slot, 0.569_840_290_998_053_3) < DUP_SHARE {
            let mut copy = fns[rng.gen_range(0..fns.len())].clone();
            copy.name = name;
            fns.push(copy);
            sizes.push(None);
            continue;
        }
        let size = if j == 0 && k.is_multiple_of(LARGE_EVERY) {
            Size::Large
        } else if j < 3 {
            Size::Medium
        } else {
            Size::Small
        };
        fns.push(function(&mut rng, size, slot, name));
        sizes.push(Some(size));
    }
    (Module::new(fns), sizes)
}

/// Module `k` of the `batch-cold` stream, as text.
pub fn batch_module(seed: u64, k: usize) -> String {
    batch_module_sized(seed, k).0.to_string()
}

/// The `watch-edit` module: [`WATCH_FNS`] functions in slot order, one in
/// four medium and the rest small, with the size classes. There are no
/// large functions (chosen: the workload asks for one large module, not
/// for large functions, and a few seeded structures of hundreds of blocks
/// moved revision cost by ±15% from seed to seed).
pub fn watch_module(seed: u64) -> (Module, Vec<Option<Size>>) {
    let mut rng = Rng::seed_from_u64(seed ^ 0x3a7c_4ed17);
    let sizes: Vec<Option<Size>> = (0..WATCH_FNS)
        .map(|i| {
            Some(if i.is_multiple_of(4) {
                Size::Medium
            } else {
                Size::Small
            })
        })
        .collect();
    let fns = sizes
        .iter()
        .enumerate()
        .map(|(i, s)| function(&mut rng, s.expect("no repeats"), i, format!("w{i}")))
        .collect();
    (Module::new(fns), sizes)
}

/// What the generated inputs turned out to be: block counts per size
/// class, the share of functions that write memory, the share of repeated
/// bodies, and the share of modules holding a large function.
#[derive(Default)]
pub struct Shape {
    modules: usize,
    modules_with_large: usize,
    functions: usize,
    repeats: usize,
    memory: usize,
    bytes: usize,
    /// Block counts per class: small, medium, large.
    blocks: [Vec<usize>; 3],
}

impl Shape {
    /// Adds one generated module, `text` being its printed form.
    pub fn add(&mut self, text: &str, m: &Module, sizes: &[Option<Size>]) {
        self.modules += 1;
        self.bytes += text.len();
        self.modules_with_large += usize::from(sizes.contains(&Some(Size::Large)));
        for (f, size) in m.iter().zip(sizes) {
            self.functions += 1;
            let writes = f
                .block_ids()
                .any(|b| f.block(b).instrs.iter().any(|i| i.kills_memory()));
            self.memory += usize::from(writes);
            match size {
                None => self.repeats += 1,
                Some(s) => self.blocks[*s as usize].push(f.num_blocks()),
            }
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let share = |n: usize, d: usize| crate::stats::ratio(n as f64, d as f64);
        write!(
            f,
            "{} modules, {:.0} bytes and {:.2} functions each; blocks min/median/max",
            self.modules,
            share(self.bytes, self.modules),
            share(self.functions, self.modules)
        )?;
        for (name, b) in ["small", "medium", "large"].iter().zip(&self.blocks) {
            let mut b = b.clone();
            b.sort_unstable();
            if let (Some(lo), Some(hi)) = (b.first(), b.last()) {
                write!(f, " {name} {lo}/{}/{hi} ({} fns)", b[b.len() / 2], b.len())?;
            }
        }
        write!(
            f,
            "; modules with a large fn {:.3}, repeated bodies {:.3}, \
             memory-writing fns {:.3}",
            share(self.modules_with_large, self.modules),
            share(self.repeats, self.functions),
            share(self.memory, self.functions)
        )
    }
}

/// An editor's revision stream over one module: each revision applies one
/// or two seeded `mutate_function` edits.
pub struct Editor {
    rng: Rng,
    functions: Vec<Function>,
}

impl Editor {
    pub fn new(seed: u64, m: &Module) -> Self {
        Editor {
            rng: Rng::seed_from_u64(seed ^ 0x0ed1_70a5),
            functions: m.functions().to_vec(),
        }
    }

    /// The next revision's module text, and the positions of the
    /// functions this revision edited.
    pub fn next_revision(&mut self) -> (String, Vec<usize>) {
        let mut edited = Vec::new();
        for _ in 0..self.rng.gen_range(1..=2usize) {
            let i = self.rng.gen_range(0..self.functions.len());
            mutate_function(&mut self.functions[i], &mut self.rng, SHAPE_PROB);
            edited.push(i);
        }
        (Module::new(self.functions.clone()).to_string(), edited)
    }
}
