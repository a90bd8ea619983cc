//! The correctness oracle. It does not trust the optimizer: every output is
//! re-parsed, re-verified and run against its input on seeded
//! `lcm_interp` inputs, and the two observation traces must agree. The
//! same runs measure the paper's optimality figures: dynamic evaluations
//! of candidate expressions, static size, and the live points of the
//! introduced temporaries.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use lcm_core::metrics::live_points;
use lcm_core::validate::sample_inputs;
use lcm_driver::{BatchEngine, BatchOptions, BatchUnit, UnitOutcome};
use lcm_interp::run;
use lcm_ir::{parse_function, verify, Function, Var};

/// Seeded inputs per checked function.
const INPUTS: usize = 3;
/// Interpreter fuel per run.
const FUEL: u64 = 200_000;

/// Sums of the optimality figures over the checked functions.
#[derive(Clone, Copy, Default)]
pub struct Quality {
    pub functions: u64,
    pub in_evals: u64,
    pub out_evals: u64,
    pub in_size: u64,
    pub out_size: u64,
    pub temp_live_points: u64,
}

impl Quality {
    pub fn dyn_evals_ratio(&self) -> f64 {
        crate::stats::ratio(self.out_evals as f64, self.in_evals as f64)
    }

    pub fn code_size_ratio(&self) -> f64 {
        crate::stats::ratio(self.out_size as f64, self.in_size as f64)
    }

    /// Live points of the introduced temporaries per static output
    /// instruction. Normalising by size rather than by function keeps the
    /// few largest functions from deciding the figure alone.
    pub fn temp_live_points(&self) -> f64 {
        crate::stats::ratio(self.temp_live_points as f64, self.out_size as f64)
    }
}

pub struct Oracle {
    seed: u64,
    /// Hash of an input function's text → hash of the output text already
    /// shown equivalent to it.
    verified: HashMap<u64, u64>,
    /// Optimality sums over the first distinct pairs checked while
    /// [`Oracle::collect_quality`] is set.
    pub quality: Quality,
    pub collect_quality: bool,
    /// One line per failed check.
    pub failures: Vec<String>,
}

fn hash(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// Static instructions, counting each block's terminator.
fn static_size(f: &Function) -> u64 {
    f.block_ids()
        .map(|b| f.block(b).instrs.len() as u64 + 1)
        .sum()
}

impl Oracle {
    pub fn new(seed: u64) -> Self {
        Oracle {
            seed,
            verified: HashMap::new(),
            quality: Quality::default(),
            collect_quality: true,
            failures: Vec::new(),
        }
    }

    /// Checks that `output` (one optimized function's text) is a valid
    /// function observationally equivalent to `input`. Returns whether it
    /// is; a failure is also recorded in [`Oracle::failures`].
    pub fn check(&mut self, input: &Function, output: &str) -> bool {
        let key = hash(&input.to_string());
        let out_key = hash(output);
        if self.verified.get(&key) == Some(&out_key) {
            return true;
        }
        match self.equivalent(input, output, key) {
            Ok(q) => {
                self.verified.insert(key, out_key);
                if self.collect_quality {
                    let s = &mut self.quality;
                    s.functions += 1;
                    s.in_evals += q.in_evals;
                    s.out_evals += q.out_evals;
                    s.in_size += q.in_size;
                    s.out_size += q.out_size;
                    s.temp_live_points += q.temp_live_points;
                }
                true
            }
            Err(why) => {
                self.fail(format!("fn {}: {why}", input.name));
                false
            }
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    fn equivalent(&self, f: &Function, output: &str, key: u64) -> Result<Quality, String> {
        let g = parse_function(output).map_err(|e| format!("output does not parse: {e}"))?;
        verify(&g).map_err(|e| format!("output does not verify: {e}"))?;
        if g.name != f.name {
            return Err(format!("output is named `{}`", g.name));
        }
        let mut q = Quality {
            functions: 1,
            in_size: static_size(f),
            out_size: static_size(&g),
            ..Quality::default()
        };
        let mut state = self.seed ^ key;
        for i in 0..INPUTS {
            let inputs = sample_inputs(f, &mut state);
            let a = run(f, &inputs, FUEL);
            let b = run(&g, &inputs, FUEL);
            let n = a.trace.len().min(b.trace.len());
            // A run that ran out of fuel is evidence only up to where it
            // stopped, so then only the common prefix is compared.
            let agrees = if a.completed() && b.completed() {
                a.trace == b.trace
            } else {
                a.trace[..n] == b.trace[..n]
            };
            if !agrees {
                return Err(format!("observations differ on seeded input {i}"));
            }
            if a.completed() && b.completed() {
                q.in_evals += a.total_evals();
                q.out_evals += b.total_evals();
            }
        }
        let temps: Vec<Var> = g
            .symbols
            .iter()
            .filter(|(_, name)| f.symbols.get(name).is_none())
            .map(|(v, _)| v)
            .collect();
        q.temp_live_points = live_points(&g, &temps);
        Ok(q)
    }
}

/// The byte-identity oracle: what a fresh one-shot `BatchEngine::run` of a
/// unit alone answers, memoized by the unit's text (the answer is a pure
/// function of it).
pub struct OneShot {
    opts: BatchOptions,
    /// Hash of a unit's function text → hash of the answer.
    memo: HashMap<u64, u64>,
}

impl OneShot {
    pub fn new(opts: BatchOptions) -> Self {
        OneShot {
            opts: BatchOptions { jobs: 1, ..opts },
            memo: HashMap::new(),
        }
    }

    fn answer(&self, unit: BatchUnit) -> Result<String, String> {
        let result = BatchEngine::new(self.opts).run(vec![unit]);
        match &result.units[0].outcome {
            UnitOutcome::Ok(s) => Ok(s.output.clone()),
            UnitOutcome::Failed(e) => Err(format!("one-shot batch failed: {}", e.message)),
        }
    }

    /// Checks that `got` is byte-identical to the one-shot answer for
    /// `unit`.
    pub fn check(&mut self, unit: BatchUnit, got: &str) -> Result<(), String> {
        let key = hash(&unit.function.to_string());
        let expected = match self.memo.get(&key) {
            Some(&h) => h,
            None => {
                let h = hash(&self.answer(unit.clone())?);
                self.memo.insert(key, h);
                h
            }
        };
        if hash(got) == expected {
            Ok(())
        } else {
            Err(format!(
                "fn {}: output differs from a one-shot batch run",
                unit.function.name
            ))
        }
    }
}
