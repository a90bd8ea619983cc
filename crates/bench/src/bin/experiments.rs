//! Regenerates every figure and theorem validation of the paper.
//!
//! ```sh
//! cargo run -p lcm-bench --bin experiments --release -- all
//! cargo run -p lcm-bench --bin experiments --release -- f1 f2 f3 f4 f5 t1 t2 t3 c1 c2 c3 e1 a1
//! cargo run -p lcm-bench --bin experiments --release -- bench [--quick] [--check [--gate <pct>]]
//! ```
//!
//! The experiment ids follow EXPERIMENTS.md / DESIGN.md §3. The `bench`
//! subcommand is the C4 perf baseline: it writes the current
//! [`BENCH_CURRENT`] file (schema `lcm-bench-v1`) with
//! solver/pipeline/batch/speculative/lift medians and allocation counts;
//! `--quick` shrinks it to CI-smoke size and `--check` validates the
//! whole committed `BENCH_PR*.json` series against the schema — and
//! prints the newest file against its predecessor — without external
//! tooling. `--gate <pct>` (only with `--check`, off by default) turns
//! the informational comparison into a hard failure when any headline
//! metric regressed past the threshold — opt-in because the committed
//! baselines are wall-clock numbers from potentially different machines.
//!
//! Everything printed is mirrored to `artifacts/experiments_output.txt`
//! (gitignored) so runs leave a reviewable record without checking build
//! output into the repository.

use std::fs::File;
use std::io::Write;
use std::sync::Mutex;

use lcm_bench::{
    compare_algorithms, fused_analysis_cost, lcm_analysis_cost, mr_analysis_cost, num_after,
    sized_corpus,
};
use lcm_cfggen::{corpus, random_dag, shapes, synthetic_profile, GenOptions};
use lcm_core::figures::running_example;
use lcm_core::{
    busy_plan, lazy_edge_plan, lazy_node_plan, metrics, optimize, passes, safety, ExprUniverse,
    GlobalAnalyses, LocalPredicates, PreAlgorithm,
};
use lcm_driver::{BatchEngine, BatchOptions, BatchUnit};
use lcm_interp::{dynamic_occupancy, observationally_equivalent, run, Inputs};

/// Mirror handle for `artifacts/experiments_output.txt`.
static TEE: Mutex<Option<File>> = Mutex::new(None);

/// Writes `s` to stdout and, when open, to the artifacts mirror.
fn tee(s: &str, newline: bool) {
    if newline {
        println!("{s}");
    } else {
        print!("{s}");
    }
    if let Some(f) = TEE.lock().unwrap().as_mut() {
        let r = if newline {
            writeln!(f, "{s}")
        } else {
            write!(f, "{s}")
        };
        r.expect("write to artifacts/experiments_output.txt");
    }
}

/// `print!` that also lands in the artifacts mirror.
macro_rules! o {
    ($($t:tt)*) => { crate::tee(&format!($($t)*), false) };
}

/// `println!` that also lands in the artifacts mirror.
macro_rules! oln {
    () => { crate::tee("", true) };
    ($($t:tt)*) => { crate::tee(&format!($($t)*), true) };
}

/// Opens the gitignored mirror file; on failure the run degrades to
/// stdout-only with a warning rather than aborting.
fn open_tee() {
    let dir = std::path::Path::new("artifacts");
    let open = std::fs::create_dir_all(dir)
        .and_then(|()| File::create(dir.join("experiments_output.txt")));
    match open {
        Ok(f) => *TEE.lock().unwrap() = Some(f),
        Err(e) => eprintln!(
            "experiments: cannot open artifacts/experiments_output.txt ({e}); stdout only"
        ),
    }
}

const IDS: &[&str] = &[
    "f1", "f2", "f3", "f4", "f5", "t1", "t2", "t3", "c1", "c2", "c3", "c5", "e1", "a1",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        let mut quick = false;
        let mut check = false;
        let mut gate: Option<f64> = None;
        let mut rest = args[1..].iter();
        while let Some(a) = rest.next() {
            match a.as_str() {
                "--quick" => quick = true,
                "--check" => check = true,
                "--gate" => {
                    let Some(pct) = rest.next().and_then(|v| v.parse::<f64>().ok()) else {
                        eprintln!("experiments bench: --gate needs a numeric percentage");
                        std::process::exit(2);
                    };
                    if !pct.is_finite() || pct < 0.0 {
                        eprintln!("experiments bench: --gate percentage must be >= 0");
                        std::process::exit(2);
                    }
                    gate = Some(pct);
                }
                other => {
                    eprintln!(
                        "experiments bench: unknown flag `{other}` \
                         (expected --quick, --check, --gate <pct>)"
                    );
                    std::process::exit(2);
                }
            }
        }
        if gate.is_some() && !check {
            eprintln!("experiments bench: --gate only makes sense with --check");
            std::process::exit(2);
        }
        if check {
            bench_check(gate);
        } else {
            bench(quick);
        }
        return;
    }
    for a in &args {
        if a != "all" && !IDS.contains(&a.as_str()) {
            eprintln!(
                "experiments: unknown id `{a}` (expected: all {})",
                IDS.join(" ")
            );
            std::process::exit(2);
        }
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |id: &str| run_all || args.iter().any(|a| a == id);
    open_tee();

    if want("f1") {
        f1();
    }
    if want("f2") {
        f2();
    }
    if want("f3") {
        f3();
    }
    if want("f4") {
        f4();
    }
    if want("f5") {
        f5();
    }
    if want("t1") {
        t1();
    }
    if want("t2") {
        t2();
    }
    if want("t3") {
        t3();
    }
    if want("c1") {
        c1();
    }
    if want("c2") {
        c2();
    }
    if want("c3") {
        c3();
    }
    if want("c5") {
        c5();
    }
    if want("e1") {
        e1();
    }
    if want("a1") {
        a1();
    }
}

fn header(id: &str, title: &str) {
    oln!("\n================================================================");
    oln!("{id}: {title}");
    oln!("================================================================");
}

/// F1 — the running example flow graph.
fn f1() {
    header(
        "F1",
        "running example (reconstruction of the paper's figure)",
    );
    oln!("{}", running_example());
}

/// F2 — busy code motion of the running example.
fn f2() {
    header("F2", "busy code motion of the running example");
    let f = running_example();
    let uni = ExprUniverse::of(&f);
    let local = LocalPredicates::compute(&f, &uni);
    let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
    let plan = busy_plan(&f, &uni, &local, &ga);
    o!("{}", lcm_core::report::plan_report(&f, &uni, &plan));
    oln!("\n{}", optimize(&f, PreAlgorithm::Busy).unwrap().function);
}

/// F3 — predicate tables: local properties, availability, anticipability,
/// earliestness.
fn f3() {
    header("F3", "safety analyses of the running example");
    let f = running_example();
    let uni = ExprUniverse::of(&f);
    let local = LocalPredicates::compute(&f, &uni);
    let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
    o!("{}", lcm_core::report::safety_table(&f, &uni, &local, &ga));
    oln!();
    o!("{}", lcm_core::report::earliest_report(&f, &uni, &ga));
}

/// F4 — the delay/latest cascade of the node formulation.
fn f4() {
    header("F4", "DELAY / LATEST / ISOLATED on the running example");
    let f = running_example();
    let node = lazy_node_plan(&f, true).unwrap();
    o!("{}", lcm_core::report::node_cascade_table(&node));
}

/// F5 — the final lazy transformation (edge and node results).
fn f5() {
    header("F5", "lazy code motion of the running example");
    let f = running_example();
    let uni = ExprUniverse::of(&f);
    let local = LocalPredicates::compute(&f, &uni);
    let ga = GlobalAnalyses::compute(&f, &uni, &local).unwrap();
    let lazy = lazy_edge_plan(&f, &uni, &local, &ga).unwrap();
    o!("{}", lcm_core::report::plan_report(&f, &uni, &lazy.plan));
    o!(
        "{}",
        lcm_core::report::delete_report(&f, &uni, &lazy.delete)
    );
    let out = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
    oln!("\n{}", out.function);
    let busy = optimize(&f, PreAlgorithm::Busy).unwrap();
    oln!(
        "temporary live points: busy = {}, lazy = {}",
        metrics::live_points(&busy.function, &busy.transform.temp_vars()),
        metrics::live_points(&out.function, &out.transform.temp_vars()),
    );
}

/// T1 — admissibility/correctness sweep.
fn t1() {
    header(
        "T1",
        "admissibility: observational equivalence + definite assignment + safe insertions",
    );
    let opts = GenOptions::default();
    let seeds = 0xC0DEu64;
    let programs = corpus(seeds, 500, &opts);
    let input_sets: Vec<Inputs> = (0..4)
        .map(|k| {
            Inputs::new()
                .set("a", 3 * k - 1)
                .set("b", 7 - k)
                .set("c", k % 2)
                .set("d", -k)
        })
        .collect();
    let mut checks = 0u64;
    for f in &programs {
        let uni = ExprUniverse::of(f);
        let local = LocalPredicates::compute(f, &uni);
        let ga = GlobalAnalyses::compute(f, &uni, &local).unwrap();
        let lazy = lazy_edge_plan(f, &uni, &local, &ga).unwrap();
        safety::check_plan_safety(f, &uni, &local, &ga, &lazy.plan).expect("safe insertions");
        for alg in PreAlgorithm::ALL {
            let o = optimize(f, alg).unwrap();
            safety::check_definite_assignment(&o.function, &o.transform.temp_vars())
                .expect("definite assignment");
            for inputs in &input_sets {
                assert!(observationally_equivalent(
                    f,
                    &o.function,
                    inputs,
                    1_000_000
                ));
                checks += 1;
            }
        }
    }
    oln!(
        "seed {seeds:#x}: {} programs x {} algorithms x {} inputs = {} equivalence checks, all passed",
        programs.len(),
        PreAlgorithm::ALL.len(),
        input_sets.len(),
        checks
    );
}

/// T2 — computational optimality.
fn t2() {
    header(
        "T2",
        "computational optimality: per-path and dynamic evaluation counts",
    );
    // Exhaustive per-path check on DAGs.
    let mut dags = 0;
    let mut paths = 0u64;
    for seed in 0..200u64 {
        let mut f = random_dag(seed, &GenOptions::sized(12));
        passes::lcse(&mut f);
        let exprs = f.expr_universe();
        let Some(orig) = metrics::path_eval_counts(&f, &exprs, 20_000) else {
            continue;
        };
        let busy = optimize(&f, PreAlgorithm::Busy).unwrap();
        let lazy = optimize(&f, PreAlgorithm::LazyEdge).unwrap();
        let b = metrics::path_eval_counts(&busy.function, &exprs, 20_000).unwrap();
        let l = metrics::path_eval_counts(&lazy.function, &exprs, 20_000).unwrap();
        assert_eq!(b, l, "busy == lazy, path by path");
        assert!(l.iter().zip(&orig).all(|(n, o)| n <= o));
        dags += 1;
        paths += l.len() as u64;
    }
    oln!("DAG sweep: {dags} programs, {paths} paths: lazy == busy <= original on every path");

    // Aggregate dynamic counts incl. the Morel–Renvoise gap.
    let inputs = Inputs::new()
        .set("a", 5)
        .set("b", -3)
        .set("c", 1)
        .set("d", 9);
    let mut o_total = 0u64;
    let mut l_total = 0u64;
    let mut m_total = 0u64;
    let mut mr_missed = 0usize;
    let programs = corpus(0xDA7A, 300, &GenOptions::default());
    for f in &programs {
        let mut f = f.clone();
        passes::lcse(&mut f);
        let exprs = f.expr_universe();
        let o = run(&f, &inputs, 2_000_000).total_evals_of(&exprs);
        let l = run(
            &optimize(&f, PreAlgorithm::LazyEdge).unwrap().function,
            &inputs,
            2_000_000,
        )
        .total_evals_of(&exprs);
        let m = run(
            &optimize(&f, PreAlgorithm::MorelRenvoise).unwrap().function,
            &inputs,
            2_000_000,
        )
        .total_evals_of(&exprs);
        assert!(l <= o && m >= l && m <= o);
        o_total += o;
        l_total += l;
        m_total += m;
        if m > l {
            mr_missed += 1;
        }
    }
    oln!(
        "dynamic sweep ({} programs): original {o_total} evals, morel-renvoise {m_total}, lazy {l_total}",
        programs.len()
    );
    oln!(
        "lazy removes {:.1}% of candidate evaluations; MR removes {:.1}%; MR strictly misses redundancies on {} / {} programs",
        100.0 * (o_total - l_total) as f64 / o_total as f64,
        100.0 * (o_total - m_total) as f64 / o_total as f64,
        mr_missed,
        programs.len()
    );

    // Static net effect (deletions − insertions) across the corpus. Raw
    // deletion counts are not comparable — MR sometimes inserts-and-deletes
    // where LCM retains the occurrence as the definition, which is
    // count-neutral — so we compare the net number of computations removed.
    let mut lazy_net = 0i64;
    let mut mr_net = 0i64;
    let mut lazy_wins = 0usize;
    let mut mr_wins = 0usize;
    for f in &programs {
        let mut f = f.clone();
        passes::lcse(&mut f);
        let l = optimize(&f, PreAlgorithm::LazyEdge)
            .unwrap()
            .transform
            .stats;
        let m = optimize(&f, PreAlgorithm::MorelRenvoise)
            .unwrap()
            .transform
            .stats;
        let ln = l.deletions as i64 - l.insertions as i64;
        let mn = m.deletions as i64 - m.insertions as i64;
        lazy_net += ln;
        mr_net += mn;
        if ln > mn {
            lazy_wins += 1;
        }
        if mn > ln {
            mr_wins += 1;
        }
    }
    oln!(
        "static net sites removed (deletions − insertions): lazy {lazy_net} vs MR {mr_net}          (lazy ahead on {lazy_wins}, MR on {mr_wins} programs — static counts are not the          optimality measure: an edge insertion appears once per edge while MR's block-end          insertion covers several paths with one site; the per-path counts above are the          theorem's metric)"
    );

    // The critical-edge chain: the shape MR cannot serve at all.
    oln!("\none_armed_chain (all redundancy behind critical edges):");
    oln!(
        "{:>6} {:>12} {:>12} {:>12}",
        "n",
        "orig evals",
        "lazy evals",
        "mr evals"
    );
    for n in [4usize, 16, 64] {
        let f = shapes::one_armed_chain(n);
        let exprs = f.expr_universe();
        let inputs = Inputs::new().set("a", 1).set("b", 2).set("c", 1);
        let o = run(&f, &inputs, 1_000_000).total_evals_of(&exprs);
        let l = run(
            &optimize(&f, PreAlgorithm::LazyEdge).unwrap().function,
            &inputs,
            1_000_000,
        )
        .total_evals_of(&exprs);
        let m = run(
            &optimize(&f, PreAlgorithm::MorelRenvoise).unwrap().function,
            &inputs,
            1_000_000,
        )
        .total_evals_of(&exprs);
        oln!("{n:>6} {o:>12} {l:>12} {m:>12}");
    }
}

/// T3 — lifetime optimality.
fn t3() {
    header(
        "T3",
        "lifetime optimality: temporary live ranges and occupancy",
    );
    oln!("pressure_chain sweep (live points of the introduced temporaries):");
    oln!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "n",
        "bcm",
        "alcm",
        "lcm-edge",
        "lcm-node"
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let f = shapes::pressure_chain(n);
        let mut row = Vec::new();
        for alg in [
            PreAlgorithm::Busy,
            PreAlgorithm::AlmostLazyNode,
            PreAlgorithm::LazyEdge,
            PreAlgorithm::LazyNode,
        ] {
            let o = optimize(&f, alg).unwrap();
            row.push(metrics::live_points(&o.function, &o.transform.temp_vars()));
        }
        oln!(
            "{:>6} {:>10} {:>10} {:>10} {:>10}",
            n,
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }

    let inputs = Inputs::new().set("a", 2).set("b", 3).set("c", 1);
    let programs = corpus(0x11FE, 300, &GenOptions::default());
    let (mut busy_pts, mut lazy_pts) = (0u64, 0u64);
    let (mut busy_occ, mut lazy_occ) = (0u64, 0u64);
    let mut strict = 0usize;
    for f in &programs {
        let busy = optimize(f, PreAlgorithm::Busy).unwrap();
        let lazy = optimize(f, PreAlgorithm::LazyEdge).unwrap();
        let bp = metrics::live_points(&busy.function, &busy.transform.temp_vars());
        let lp = metrics::live_points(&lazy.function, &lazy.transform.temp_vars());
        assert!(lp <= bp);
        if lp < bp {
            strict += 1;
        }
        busy_pts += bp;
        lazy_pts += lp;
        busy_occ += dynamic_occupancy(
            &busy.function,
            &inputs,
            1_000_000,
            &busy.transform.temp_vars(),
        );
        lazy_occ += dynamic_occupancy(
            &lazy.function,
            &inputs,
            1_000_000,
            &lazy.transform.temp_vars(),
        );
    }
    oln!(
        "\nrandom sweep ({} programs): static live points busy {busy_pts} vs lazy {lazy_pts} ({:.2}x)",
        programs.len(),
        busy_pts as f64 / lazy_pts.max(1) as f64,
    );
    oln!(
        "dynamic occupancy busy {busy_occ} vs lazy {lazy_occ} ({:.2}x); lazy strictly better on {strict} programs, never worse",
        busy_occ as f64 / lazy_occ.max(1) as f64,
    );
}

/// C1 — complexity: unidirectional LCM vs bidirectional Morel–Renvoise.
fn c1() {
    header(
        "C1",
        "analysis cost: LCM's unidirectional passes vs Morel-Renvoise's bidirectional system",
    );
    oln!(
        "{:>8} {:>9} | {:>10} {:>12} {:>12} | {:>10} {:>12} {:>12} | {:>8}",
        "blocks",
        "exprs",
        "lcm sweeps",
        "lcm visits",
        "lcm wordops",
        "mr sweeps",
        "mr visits",
        "mr wordops",
        "ratio"
    );
    for size in [20usize, 50, 100, 200, 400, 800] {
        let programs = sized_corpus(size, 10);
        let mut blocks = 0usize;
        let mut exprs = 0usize;
        let mut lcm_total = lcm_dataflow_zero();
        let mut mr_total = lcm_dataflow_zero();
        for f in &programs {
            blocks += f.num_blocks();
            exprs += ExprUniverse::of(f).len();
            lcm_total += lcm_analysis_cost(f);
            mr_total += mr_analysis_cost(f);
        }
        let n = programs.len();
        oln!(
            "{:>8} {:>9} | {:>10} {:>12} {:>12} | {:>10} {:>12} {:>12} | {:>8.2}",
            blocks / n,
            exprs / n,
            lcm_total.iterations / n,
            lcm_total.node_visits / n,
            lcm_total.word_ops / n as u64,
            mr_total.iterations / n,
            mr_total.node_visits / n,
            mr_total.word_ops / n as u64,
            mr_total.word_ops as f64 / lcm_total.word_ops.max(1) as f64,
        );
    }
    oln!(
        "\n(lcm sweeps aggregates availability + anticipability + LATER; mr sweeps\n\
         aggregates availability + partial availability + the bidirectional\n\
         PPIN/PPOUT iteration. `ratio` is MR word-ops / LCM word-ops.)"
    );

    oln!("\nper-workload static comparison:");
    for (name, f) in lcm_bench::workloads() {
        oln!("  {name} ({} blocks):", f.num_blocks());
        oln!(
            "    {:<16} {:>8} {:>8} {:>8} {:>12}",
            "algorithm",
            "inserts",
            "deletes",
            "temps",
            "live points"
        );
        for row in compare_algorithms(&f) {
            oln!(
                "    {:<16} {:>8} {:>8} {:>8} {:>12}",
                row.algorithm,
                row.insertions,
                row.deletions,
                row.temps,
                row.live_points
            );
        }
    }
}

fn lcm_dataflow_zero() -> lcm_dataflow::SolveStats {
    lcm_dataflow::SolveStats::new()
}

/// C2 — the fused pipeline (shared CfgView + change-driven worklist) vs
/// the seed per-analysis round-robin path, same three analyses.
fn c2() {
    header(
        "C2",
        "fused pipeline vs per-analysis round-robin (same fixpoints, fewer visits)",
    );
    oln!(
        "{:>8} {:>9} | {:>12} {:>12} | {:>12} {:>12} | {:>7} {:>7}",
        "blocks",
        "exprs",
        "rr visits",
        "rr wordops",
        "fu visits",
        "fu wordops",
        "v-ratio",
        "w-ratio"
    );
    for size in [20usize, 50, 100, 200, 400, 800] {
        let programs = sized_corpus(size, 10);
        let mut blocks = 0usize;
        let mut exprs = 0usize;
        let mut rr = lcm_dataflow_zero();
        let mut fused = lcm_dataflow_zero();
        for f in &programs {
            blocks += f.num_blocks();
            exprs += ExprUniverse::of(f).len();
            rr += lcm_analysis_cost(f);
            fused += fused_analysis_cost(f).total();
        }
        let n = programs.len();
        oln!(
            "{:>8} {:>9} | {:>12} {:>12} | {:>12} {:>12} | {:>7.2} {:>7.2}",
            blocks / n,
            exprs / n,
            rr.node_visits / n,
            rr.word_ops / n as u64,
            fused.node_visits / n,
            fused.word_ops / n as u64,
            rr.node_visits as f64 / fused.node_visits.max(1) as f64,
            rr.word_ops as f64 / fused.word_ops.max(1) as f64,
        );
    }
    oln!("\nscaling shapes (single functions):");
    oln!(
        "{:<20} {:>8} | {:>12} {:>12} | {:>12} {:>12}",
        "workload",
        "blocks",
        "rr visits",
        "rr wordops",
        "fu visits",
        "fu wordops"
    );
    for (name, f) in lcm_bench::workloads() {
        let rr = lcm_analysis_cost(&f);
        let fu = fused_analysis_cost(&f).total();
        assert!(
            fu.node_visits <= rr.node_visits,
            "{name}: worklist should never visit more nodes"
        );
        oln!(
            "{:<20} {:>8} | {:>12} {:>12} | {:>12} {:>12}",
            name,
            f.num_blocks(),
            rr.node_visits,
            rr.word_ops,
            fu.node_visits,
            fu.word_ops
        );
    }
    oln!(
        "\n(rr = seed path: three independent round-robin solves, orderings and\n\
         adjacency recomputed per solve. fu = fused: one CfgView, change-driven\n\
         worklist. Fixpoints are identical — asserted per function in the\n\
         solver-equivalence test suite.)"
    );
}

/// C3 — the parallel batch driver: thread-count sweep, byte-identical
/// output across thread counts, and plan-cache deduplication.
fn c3() {
    header(
        "C3",
        "batch driver: thread sweep, determinism, and plan-cache dedup",
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let make_units = |fns: Vec<lcm_ir::Function>, prefix: &str| -> Vec<BatchUnit> {
        fns.into_iter()
            .enumerate()
            .map(|(i, mut f)| {
                f.name = format!("{prefix}{i}");
                BatchUnit {
                    file: None,
                    profile: None,
                    function: f,
                }
            })
            .collect()
    };
    let run_once = |jobs: usize, use_cache: bool, units: &[BatchUnit]| {
        let mut engine = BatchEngine::new(BatchOptions {
            jobs,
            use_cache,
            ..BatchOptions::default()
        });
        let t0 = std::time::Instant::now();
        let result = engine.run(units.to_vec());
        (t0.elapsed(), result)
    };

    // Thread sweep: same corpus, cache off (pure compute), best of three.
    // stdout of `lcmopt batch` is byte-identical by construction; the
    // assert re-checks that here on the rendered report.
    let corpus = make_units(sized_corpus(300, 32), "f");
    oln!(
        "thread sweep over {} generated functions (~300 blocks each), cache off, best of 3",
        corpus.len()
    );
    oln!("machine: {cores} core(s) available");
    oln!(
        "{:>6} {:>12} {:>10} {:>12}",
        "jobs",
        "wall ms",
        "speedup",
        "output"
    );
    let mut baseline_text: Option<String> = None;
    let mut baseline_ms = 0.0f64;
    for jobs in [1usize, 2, 4, 8] {
        let mut best = std::time::Duration::MAX;
        let mut text = String::new();
        for _ in 0..3 {
            let (t, r) = run_once(jobs, false, &corpus);
            assert_eq!(r.totals.failed, 0);
            best = best.min(t);
            text = lcm_driver::report::render_text(&r);
        }
        let ms = best.as_secs_f64() * 1e3;
        let verdict = match &baseline_text {
            None => {
                baseline_text = Some(text);
                baseline_ms = ms;
                "baseline"
            }
            Some(b) => {
                assert_eq!(
                    b, &text,
                    "batch output must be byte-identical at jobs={jobs}"
                );
                "identical"
            }
        };
        oln!(
            "{jobs:>6} {ms:>12.1} {:>9.2}x {verdict:>12}",
            baseline_ms / ms
        );
    }
    oln!("(speedup is bounded by the cores available on this machine)");

    // Cache dedup: 8 distinct bodies replicated 4x under different names.
    // The content-addressed cache computes each body once and serves the
    // other 24 units as hits; a warm second batch computes nothing.
    let distinct = sized_corpus(300, 8);
    let mut dups = Vec::new();
    for rep in 0..4 {
        let named = make_units(distinct.clone(), &format!("g{rep}_"));
        dups.extend(named);
    }
    let (t_off, r_off) = run_once(cores, false, &dups);
    let mut engine = BatchEngine::new(BatchOptions {
        jobs: cores,
        ..BatchOptions::default()
    });
    let t0 = std::time::Instant::now();
    let r_on = engine.run(dups.clone());
    let t_on = t0.elapsed();
    let t1 = std::time::Instant::now();
    let r_warm = engine.run(dups);
    let t_warm = t1.elapsed();
    assert_eq!(
        lcm_driver::report::render_text(&r_off),
        lcm_driver::report::render_text(&r_on),
        "the cache must never change the output"
    );
    oln!(
        "\ncache dedup over {} units ({} distinct bodies x 4 names):",
        r_off.totals.functions,
        distinct.len()
    );
    oln!(
        "  cache off:  {} computed, {:>8.1} ms",
        r_off.totals.computed,
        t_off.as_secs_f64() * 1e3
    );
    oln!(
        "  cache on:   {} computed, {} hits, {:>8.1} ms (identical output)",
        r_on.totals.computed,
        r_on.totals.cache.hits,
        t_on.as_secs_f64() * 1e3
    );
    oln!(
        "  warm rerun: {} computed, {} hits, {:>8.1} ms (hits revalidated at the fast tier)",
        r_warm.totals.computed,
        r_warm.totals.cache.hits - r_on.totals.cache.hits,
        t_warm.as_secs_f64() * 1e3
    );
}

/// C5 — profile-guided speculative PRE (min-cut) against LCM and BCM on
/// weighted corpora. Profiles are *measured*: each function runs once on a
/// sampled "training" input and the interpreter's edge counts become its
/// profile, so the speculative planner optimizes a distribution that
/// actually occurred. A second, held-out input then shows the cross-input
/// cost of betting on that distribution.
fn c5() {
    use lcm_core::{
        optimize_speculative_checked_with, validate::sample_inputs, EdgeWeights, ValidationLevel,
    };
    use lcm_dataflow::{SolveStrategy, SolverScratch};
    use lcm_ir::Profile;
    use std::cmp::Ordering;

    header(
        "C5",
        "speculative PRE via min-cut: LCM vs BCM vs spec on weighted corpora",
    );
    const FUEL: u64 = 200_000;
    let fns = corpus(0xC5, 120, &GenOptions::default());
    let mut state = 0xC5u64;
    let (mut measured, mut skipped) = (0usize, 0usize);
    // Total dynamic candidate evaluations: [original, bcm, lcm, spec].
    let (mut profiled, mut heldout) = ([0u64; 4], [0u64; 4]);
    let (mut wins, mut ties, mut losses) = (0usize, 0usize, 0usize);
    let (mut candidates, mut speculated) = (0usize, 0usize);
    for f in &fns {
        let train = sample_inputs(f, &mut state);
        let test = sample_inputs(f, &mut state);
        let base_train = run(f, &train, FUEL);
        let base_test = run(f, &test, FUEL);
        if !base_train.completed() || !base_test.completed() {
            skipped += 1;
            continue;
        }
        // A completed run's edge counts conserve flow: an exact profile.
        let profile = Profile::from_weights(f, &base_train.edge_visits);
        let Ok(w) = EdgeWeights::from_profile(f, &profile) else {
            skipped += 1;
            continue;
        };
        let bcm = optimize(f, PreAlgorithm::Busy).expect("bcm");
        let lcm = optimize(f, PreAlgorithm::LazyEdge).expect("lcm");
        let (spec, _) = optimize_speculative_checked_with(
            f,
            &w,
            ValidationLevel::Off,
            0,
            SolveStrategy::default(),
            &mut SolverScratch::new(),
        )
        .expect("spec");
        let s = spec.spec.expect("speculative runs record stats");
        candidates += s.candidates;
        speculated += s.speculated;
        let on = |g: &lcm_ir::Function, inputs: &Inputs| run(g, inputs, FUEL).total_evals();
        profiled[0] += base_train.total_evals();
        profiled[1] += on(&bcm.function, &train);
        profiled[2] += on(&lcm.function, &train);
        profiled[3] += on(&spec.function, &train);
        let (ho_lcm, ho_spec) = (on(&lcm.function, &test), on(&spec.function, &test));
        heldout[0] += base_test.total_evals();
        heldout[1] += on(&bcm.function, &test);
        heldout[2] += ho_lcm;
        heldout[3] += ho_spec;
        match ho_spec.cmp(&ho_lcm) {
            Ordering::Less => wins += 1,
            Ordering::Equal => ties += 1,
            Ordering::Greater => losses += 1,
        }
        measured += 1;
    }
    oln!(
        "{measured} of {} functions measured ({skipped} skipped: incomplete run)",
        fns.len()
    );
    oln!("speculation: {candidates} candidates, {speculated} adopted");
    oln!();
    oln!("total dynamic candidate evaluations over the corpus:");
    oln!(
        "{:>22} {:>10} {:>10} {:>10} {:>10}",
        "input",
        "original",
        "bcm",
        "lcm",
        "spec"
    );
    oln!(
        "{:>22} {:>10} {:>10} {:>10} {:>10}",
        "profiled (training)",
        profiled[0],
        profiled[1],
        profiled[2],
        profiled[3]
    );
    oln!(
        "{:>22} {:>10} {:>10} {:>10} {:>10}",
        "held-out (fresh)",
        heldout[0],
        heldout[1],
        heldout[2],
        heldout[3]
    );
    oln!();
    oln!("held-out, per function vs lcm: {wins} better, {ties} equal, {losses} worse");
    oln!("speculation optimizes the *profiled* distribution; the held-out");
    oln!("row is the honest cross-input cost of betting on it.");
}

/// E1 — the lazy strength reduction extension.
fn e1() {
    use lcm_core::strength::{candidate_mults, strength_reduce};
    header(
        "E1",
        "lazy strength reduction (the authors' companion extension)",
    );
    // The canonical induction loop, swept over trip counts.
    oln!("induction loop `addr = i * 12` with n iterations:");
    oln!(
        "{:>8} {:>12} {:>12} {:>10}",
        "n",
        "mults before",
        "mults after",
        "updates"
    );
    for n in [4i64, 16, 64, 256] {
        let f = lcm_ir::parse_function(&format!(
            "fn addresses {{
             entry:
               i = 0
               n = {n}
               jmp body
             body:
               addr = i * 12
               obs addr
               i = i + 1
               c = i < n
               br c, body, done
             done:
               ret
             }}"
        ))
        .expect("valid fixture");
        let res = strength_reduce(&f);
        let before = run(&f, &Inputs::new(), 10_000_000);
        let after = run(&res.function, &Inputs::new(), 10_000_000);
        assert_eq!(before.trace, after.trace);
        oln!(
            "{:>8} {:>12} {:>12} {:>10}",
            n,
            candidate_mults(&before, &res.candidates),
            candidate_mults(&after, &res.candidates),
            res.stats.updates
        );
    }

    // Random corpus: aggregate dynamic multiplication counts.
    let inputs = Inputs::new().set("a", 7).set("b", -2).set("c", 1);
    let programs = corpus(0x57E6, 300, &GenOptions::default());
    let mut before_total = 0u64;
    let mut after_total = 0u64;
    let mut reduced_on = 0usize;
    for f in &programs {
        let res = strength_reduce(f);
        let b = candidate_mults(&run(f, &inputs, 1_000_000), &res.candidates);
        let a = candidate_mults(&run(&res.function, &inputs, 1_000_000), &res.candidates);
        assert!(a <= b);
        before_total += b;
        after_total += a;
        if a < b {
            reduced_on += 1;
        }
    }
    oln!(
        "\nrandom sweep ({} programs, seed 0x57e6): candidate multiplications {before_total} -> {after_total} ({:.1}% removed)",
        programs.len(),
        100.0 * (before_total - after_total) as f64 / before_total.max(1) as f64,
    );
    oln!("reduced on {reduced_on} programs, never increased on any");
}

/// A1 — ablations: isolation pruning and solver strategy.
fn a1() {
    header(
        "A1",
        "ablations: isolation pruning; worklist vs round-robin solver",
    );
    // Isolation: plan sizes and temporary live ranges with/without.
    let programs = corpus(0xAB1A, 200, &GenOptions::default());
    let mut with_ins = 0usize;
    let mut without_ins = 0usize;
    let mut with_points = 0u64;
    let mut without_points = 0u64;
    for f in &programs {
        let with = optimize(f, PreAlgorithm::LazyNode).unwrap();
        let without = optimize(f, PreAlgorithm::AlmostLazyNode).unwrap();
        with_ins += with.transform.stats.insertions;
        without_ins += without.transform.stats.insertions;
        with_points += metrics::live_points(&with.function, &with.transform.temp_vars());
        without_points += metrics::live_points(&without.function, &without.transform.temp_vars());
    }
    oln!(
        "isolation pruning over {} programs: insertions {} (with) vs {} (without, ALCM); temp live points {} vs {}",
        programs.len(),
        with_ins,
        without_ins,
        with_points,
        without_points
    );

    // Solver strategy: identical fixpoints, different visit counts.
    use lcm_dataflow::{Confluence, Direction, Problem, Transfer};
    let mut rr_visits = 0usize;
    let mut wl_visits = 0usize;
    for f in lcm_bench::sized_corpus(150, 10) {
        let uni = ExprUniverse::of(&f);
        let local = LocalPredicates::compute(&f, &uni);
        let transfer: Vec<Transfer> = local
            .antloc
            .iter()
            .zip(&local.kill)
            .map(|(g, k)| Transfer {
                gen: g.clone(),
                kill: k.clone(),
            })
            .collect();
        let p = Problem::new(
            &f,
            uni.len(),
            Direction::Backward,
            Confluence::Must,
            transfer,
        );
        let rr = p.solve();
        let wl = p.solve_worklist();
        assert_eq!(rr.ins, wl.ins);
        rr_visits += rr.stats.node_visits;
        wl_visits += wl.stats.node_visits;
    }
    oln!(
        "anticipability on 10 programs of ~150 blocks: round-robin {} node visits, worklist {} node visits (identical fixpoints)",
        rr_visits, wl_visits
    );
}

// ---------------------------------------------------------------------------
// `experiments bench` — the committed perf baseline series (BENCH_PR*.json)
// ---------------------------------------------------------------------------

/// Median of a sample (ns). Odd-length-agnostic: upper median.
fn median_ns(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Runs the dataflow/pipeline/batch benchmarks and writes the
/// machine-readable baseline to [`BENCH_CURRENT`] in the working directory.
///
/// `quick` shrinks the corpus and repetition counts to CI-smoke size; the
/// committed baseline is produced by a non-quick run. The numbers are
/// medians of repeated whole-corpus sweeps, divided down to per-operation
/// nanoseconds; allocation counts come straight from
/// [`lcm_dataflow::SolveStats::allocations`], which the solver increments
/// on every scratch growth event and result-export clone.
fn bench(quick: bool) {
    use lcm_core::{anticipability_problem, availability_problem, lcm_with};
    use lcm_dataflow::{CfgView, SolveStrategy, SolverScratch};
    use std::time::Instant;

    let (n_fns, reps, batch_reps) = if quick { (12, 3, 1) } else { (64, 11, 3) };
    let block_size = 30;
    let fns = sized_corpus(block_size, n_fns);
    oln!(
        "bench: {} functions of ~{} blocks, {} timing reps{}",
        fns.len(),
        block_size,
        reps,
        if quick { " (quick)" } else { "" }
    );

    // Prebuild everything outside the timed region: the solves are the op.
    let pre: Vec<_> = fns
        .iter()
        .map(|f| {
            let uni = ExprUniverse::of(f);
            let local = LocalPredicates::compute(f, &uni);
            (f, uni, local)
        })
        .collect();
    let probs: Vec<_> = pre
        .iter()
        .map(|(f, uni, local)| {
            (
                availability_problem(f, uni, local),
                anticipability_problem(f, uni, local),
                CfgView::new(f),
            )
        })
        .collect();

    // Per-strategy solve cost (one op = one analysis solve) and the
    // revisit counters that justify the SCC schedule.
    let mut scratch = SolverScratch::new();
    let mut solve_ns = Vec::new();
    let mut revisits = Vec::new();
    for strategy in SolveStrategy::ALL {
        let mut samples = Vec::new();
        let mut revs = 0u64;
        for rep in 0..reps {
            let t0 = Instant::now();
            let mut r = 0u64;
            for (avail, antic, view) in &probs {
                r += avail
                    .solve_with(strategy, view, &mut scratch)
                    .stats
                    .node_revisits as u64;
                r += antic
                    .solve_with(strategy, view, &mut scratch)
                    .stats
                    .node_revisits as u64;
            }
            samples.push(t0.elapsed().as_nanos() as f64 / (2 * probs.len()) as f64);
            if rep == 0 {
                revs = r;
            }
        }
        solve_ns.push((strategy.name(), median_ns(samples)));
        revisits.push((strategy.name(), revs));
    }

    // Fused pipeline: reused worker scratch vs a fresh scratch per call.
    let mut reused_samples = Vec::new();
    let mut fresh_samples = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        for f in &fns {
            lcm_with(f, SolveStrategy::default(), &mut scratch).unwrap();
        }
        reused_samples.push(t0.elapsed().as_nanos() as f64 / fns.len() as f64);
        let t0 = Instant::now();
        for f in &fns {
            lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new()).unwrap();
        }
        fresh_samples.push(t0.elapsed().as_nanos() as f64 / fns.len() as f64);
    }

    // Allocation counts: a cold scratch across the corpus pays growth on
    // the leading functions, then settles at the 6-per-function floor
    // (two export clones per solve, three solves); fresh scratches pay
    // full construction every time.
    let mut cold = SolverScratch::new();
    let per_fn: Vec<u64> = fns
        .iter()
        .map(|f| {
            let p = lcm_with(f, SolveStrategy::default(), &mut cold).unwrap();
            p.stats.total().allocations
        })
        .collect();
    let reused_total: u64 = per_fn.iter().sum();
    let fresh_total: u64 = fns
        .iter()
        .map(|f| {
            let p = lcm_with(f, SolveStrategy::default(), &mut SolverScratch::new()).unwrap();
            p.stats.total().allocations
        })
        .sum();
    let warm_floor = 6u64;

    // Batch throughput, cache off: all cores vs one.
    let units: Vec<BatchUnit> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut f = f.clone();
            f.name = format!("f{i}");
            BatchUnit {
                file: None,
                profile: None,
                function: f,
            }
        })
        .collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let throughput = |jobs: usize| -> f64 {
        let mut best = f64::MAX;
        for _ in 0..batch_reps {
            let mut engine = BatchEngine::new(BatchOptions {
                jobs,
                use_cache: false,
                ..BatchOptions::default()
            });
            let t0 = Instant::now();
            let r = engine.run(units.clone());
            assert_eq!(r.totals.failed, 0);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        units.len() as f64 / best
    };
    let batch_fps = throughput(cores);

    // The multi-thread sweep: same corpus, cache off, fixed job counts so
    // the committed series tracks the scaling *shape* across PRs even when
    // the machines differ. Its `j1` entry is the one canonical jobs=1
    // throughput — PR 9 measured (and committed) the same configuration
    // twice, once here and once as the batch row's
    // `jobs1_functions_per_second`; the duplicate is retired.
    let sweep: Vec<(usize, f64)> = [1usize, 2, 4, 8]
        .iter()
        .map(|&jobs| (jobs, throughput(jobs)))
        .collect();
    oln!("batch sweep (cache off, functions/second):");
    for (jobs, fps) in &sweep {
        oln!("  jobs {jobs}: {fps:>10.1}");
    }

    // Incremental vs fresh on a *watch-shaped* workload: a module of K
    // functions re-optimized across R revisions, each revision a seeded
    // content edit to exactly one function. That is the shape `lcmopt
    // watch` and the daemon actually see — one file changes, the rest of
    // the module rides along — so the warm engine answers K-1 units per
    // revision from the zero-dirty output memo and delta-solves the one
    // edited function (widening through universe growth instead of
    // falling back), while the cold baseline pays K fresh solves. The
    // corpus is larger-bodied than the batch one: solver cost is what the
    // delta path saves, and on small functions it vanishes under the
    // pipeline's fixed tail (validation, cleanup, printing) — which the
    // row now reports separately as solve vs tail nanoseconds.
    let (inc_block_size, inc_n_fns, inc_revs) = if quick { (120, 6, 6) } else { (240, 24, 24) };
    let inc_corpus = sized_corpus(inc_block_size, inc_n_fns);
    let inc_opts = BatchOptions {
        jobs: 1,
        use_cache: false,
        ..BatchOptions::default()
    };
    let mut cur: Vec<_> = inc_corpus
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut f = f.clone();
            f.name = format!("f{i}");
            f
        })
        .collect();
    let module_of = |fns: &[lcm_ir::Function]| {
        let mut m = lcm_ir::Module::default();
        for f in fns {
            m.push(f.clone()).expect("unique names");
        }
        m
    };
    let base_m = module_of(&cur);
    let mut rng = lcm_cfggen::seeded(0x1BC9);
    let revisions: Vec<lcm_ir::Module> = (0..inc_revs)
        .map(|r| {
            lcm_cfggen::mutate_function(&mut cur[r % inc_n_fns], &mut rng, 0.0);
            module_of(&cur)
        })
        .collect();
    let inc_units = inc_revs * inc_n_fns;
    let mut fresh_best = f64::MAX;
    let mut delta_best = f64::MAX;
    let (mut delta_hits, mut delta_rows) = (0u64, 0u64);
    let mut watch_classes = lcm_driver::EditClassCounters::default();
    let mut phases = lcm_core::PhaseNanos::default();
    for _ in 0..batch_reps.max(2) {
        let t0 = Instant::now();
        for m in &revisions {
            let mut engine = BatchEngine::new(inc_opts);
            let r = engine.run_module_incremental(m);
            assert!(r.iter().all(|u| u.outcome.is_ok()));
        }
        fresh_best = fresh_best.min(t0.elapsed().as_secs_f64());

        let mut engine = BatchEngine::new(inc_opts);
        engine.run_module_incremental(&base_m); // warm-up: retain fixpoints
        let t0 = Instant::now();
        for m in &revisions {
            let r = engine.run_module_incremental(m);
            assert!(r.iter().all(|u| u.outcome.is_ok()));
        }
        delta_best = delta_best.min(t0.elapsed().as_secs_f64());
        (delta_hits, delta_rows) = engine.incremental_session();
        watch_classes = engine.edit_classes();
        phases = engine.incremental_phases();
    }
    // The answers must agree, revision by revision, before the ratio
    // means anything.
    {
        let mut warm = BatchEngine::new(inc_opts);
        warm.run_module_incremental(&base_m);
        for (r, m) in revisions.iter().enumerate() {
            let mut cold = BatchEngine::new(inc_opts);
            assert_eq!(
                lcm_driver::report::render_incremental_text(&warm.run_module_incremental(m)),
                lcm_driver::report::render_incremental_text(&cold.run_module_incremental(m)),
                "delta re-optimization diverged from fresh at revision {r}"
            );
        }
    }
    let inc_fresh_fps = inc_units as f64 / fresh_best;
    let inc_delta_fps = inc_units as f64 / delta_best;
    let full_rows: u64 = inc_revs as u64
        * base_m
            .iter()
            .map(|f| 3 * f.num_blocks() as u64)
            .sum::<u64>();
    oln!(
        "incremental re-optimization (watch-shaped, {inc_n_fns} functions x {inc_revs} revisions): \
         fresh {inc_fresh_fps:.1} fn/s vs warm {inc_delta_fps:.1} fn/s ({:.2}x); \
         {delta_hits} delta hits, {delta_rows} of {full_rows} block rows re-solved; \
         warm split: solve {:.1} ms / tail {:.1} ms; edits: {watch_classes}",
        inc_delta_fps / inc_fresh_fps,
        phases.solve_ns as f64 / 1e6,
        phases.tail_ns as f64 / 1e6,
    );

    // The edit-class ledger: a seeded random-edit sweep over one-function
    // revisions with PR 9's edit mix (20% shape edits), classifying every
    // edit by the path that answered it. PR 9 forced a full solve on
    // every universe-shifting content edit *and* every shape edit (~25%
    // of random edits); now only the unmapped shape edits (parallel-edge
    // rewrites and multi-block changes) fall back, and the ledger is the
    // honest measurement of that residue.
    let sweep_fns = if quick { 8 } else { 16 };
    let sweep_steps = if quick { 48 } else { 192 };
    let mut sweep_engine = BatchEngine::new(inc_opts);
    let mut sweep_cur: Vec<_> = sized_corpus(30, sweep_fns)
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut f = f.clone();
            f.name = format!("s{i}");
            f
        })
        .collect();
    for f in &sweep_cur {
        sweep_engine.run_module_incremental(&module_of(std::slice::from_ref(f)));
    }
    let mut rng = lcm_cfggen::seeded(0x5EE0_C1A5);
    for step in 0..sweep_steps {
        let idx = step % sweep_fns;
        lcm_cfggen::mutate_function(&mut sweep_cur[idx], &mut rng, 0.2);
        let r =
            sweep_engine.run_module_incremental(&module_of(std::slice::from_ref(&sweep_cur[idx])));
        assert!(r.iter().all(|u| u.outcome.is_ok()));
    }
    let classes = sweep_engine.edit_classes();
    let edited = (classes.total() - classes.zero_dirty).max(1);
    let fallback_rate = classes.fallback as f64 / edited as f64;
    oln!(
        "edit-class ledger ({edited} random edits, 20% shape): {classes}; \
         fallback rate {:.1}% (PR 9 fell back on every universe shift and shape edit, ~25%)",
        fallback_rate * 100.0
    );

    // The row-kernel split: per-word cost of the fused union kernel below
    // and above the tiled-dispatch threshold. Narrow rows (the common
    // case) take the plain 4-word unroll; wide rows (>= 2048-bit
    // universes) take the tiled variant with per-lane change accumulators.
    let kernel_ns = |words: usize| -> f64 {
        let src: Vec<u64> = (0..words as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        let mut dst = vec![0u64; words];
        let kernel_reps = 4_000_000 / words.max(1);
        let mut samples = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let mut changed = 0u64;
            for _ in 0..kernel_reps {
                dst[0] = std::hint::black_box(0);
                changed += u64::from(lcm_dataflow::union_rows(&mut dst, &src));
            }
            std::hint::black_box(changed);
            samples.push(t0.elapsed().as_nanos() as f64 / (kernel_reps * words) as f64);
        }
        median_ns(samples)
    };
    let narrow_words = lcm_dataflow::WIDE_ROW_WORDS / 2;
    let wide_words = lcm_dataflow::WIDE_ROW_WORDS * 8;
    let kernel_narrow_ns = kernel_ns(narrow_words);
    let kernel_wide_ns = kernel_ns(wide_words);
    oln!(
        "row kernel (ns/word): unrolled ({narrow_words} words) {kernel_narrow_ns:.3}, \
         tiled ({wide_words} words) {kernel_wide_ns:.3}"
    );

    // The `--placement spec` row: the same corpus with synthetic profiles
    // attached, driven through the min-cut speculative planner. The adopt
    // counters are deterministic (seeded corpus, seeded profiles); only
    // the throughput is machine-dependent.
    let weighted: Vec<BatchUnit> = fns
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut f = f.clone();
            f.name = format!("w{i}");
            let profile = synthetic_profile(&f, i as u64);
            BatchUnit {
                file: None,
                profile: Some(profile),
                function: f,
            }
        })
        .collect();
    let (mut spec_candidates, mut spec_speculated) = (0usize, 0usize);
    let mut spec_best = f64::MAX;
    for _ in 0..batch_reps {
        let mut engine = BatchEngine::new(BatchOptions {
            jobs: cores,
            placement: lcm_core::PreAlgorithm::Speculative,
            use_cache: false,
            ..BatchOptions::default()
        });
        let t0 = Instant::now();
        let r = engine.run(weighted.clone());
        assert_eq!(r.totals.failed, 0);
        spec_candidates = r.totals.spec.candidates;
        spec_speculated = r.totals.spec.speculated;
        spec_best = spec_best.min(t0.elapsed().as_secs_f64());
    }
    let spec_fps = weighted.len() as f64 / spec_best;

    // Frontend throughput: lift a flat three-address listing into module
    // IR and run the full pipeline on every lifted function. The listing
    // is the memory-loop shape (a loop-invariant load), so the row also
    // keeps the memory-aware TRANSP machinery on the measured path.
    let lift_fns = fns.len();
    let mut listing = String::new();
    for i in 0..lift_fns {
        listing.push_str(&format!(
            "fn l{i}\ni = 3\ns = load p\nt = s + i\nobs t\ni = i - 1\nif i goto 1\nret\n"
        ));
    }
    let mut lift_samples = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let lifted = lcm_ir::lift_module(&listing).expect("benchmark listing lifts");
        for f in lifted.module.functions() {
            lcm_core::optimize_pipeline(f, lcm_core::PreAlgorithm::LazyEdge)
                .expect("benchmark lift corpus optimizes");
        }
        lift_samples.push(t0.elapsed().as_secs_f64() / lift_fns as f64);
    }
    lift_samples.sort_by(f64::total_cmp);
    let lift_fps = 1.0 / lift_samples[lift_samples.len() / 2];

    let mut j = String::new();
    j.push_str("{\n  \"schema\": \"lcm-bench-v1\",\n");
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!(
        "  \"corpus\": {{ \"functions\": {}, \"blocks_per_function\": {block_size}, \"timing_reps\": {reps} }},\n",
        fns.len()
    ));
    j.push_str("  \"solve_ns_per_op\": { ");
    for (i, (name, ns)) in solve_ns.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{name}\": {ns:.1}"));
    }
    j.push_str(" },\n  \"node_revisits\": { ");
    for (i, (name, r)) in revisits.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"{name}\": {r}"));
    }
    j.push_str(" },\n");
    j.push_str(&format!(
        "  \"pipeline_ns_per_function\": {{ \"reused_scratch\": {:.1}, \"fresh_scratch\": {:.1} }},\n",
        median_ns(reused_samples),
        median_ns(fresh_samples)
    ));
    j.push_str(&format!(
        "  \"allocations\": {{ \"warm_floor_per_function\": {warm_floor}, \"cold_first_function\": {}, \"reused_scratch_total\": {reused_total}, \"fresh_scratch_total\": {fresh_total} }},\n",
        per_fn[0]
    ));
    j.push_str(&format!(
        "  \"batch\": {{ \"jobs\": {cores}, \"functions_per_second\": {batch_fps:.1} }},\n"
    ));
    j.push_str("  \"batch_sweep\": { ");
    for (i, (jobs, fps)) in sweep.iter().enumerate() {
        if i > 0 {
            j.push_str(", ");
        }
        j.push_str(&format!("\"j{jobs}\": {fps:.1}"));
    }
    j.push_str(" },\n");
    j.push_str(&format!(
        "  \"incremental\": {{ \"functions\": {inc_n_fns}, \"revisions\": {inc_revs}, \"fresh_fps\": {inc_fresh_fps:.1}, \"delta_fps\": {inc_delta_fps:.1}, \"delta_speedup\": {:.2}, \"delta_hits\": {delta_hits}, \"delta_rows\": {delta_rows}, \"full_rows\": {full_rows}, \"solve_ns\": {}, \"tail_ns\": {}, \"zero_dirty\": {} }},\n",
        inc_delta_fps / inc_fresh_fps,
        phases.solve_ns,
        phases.tail_ns,
        watch_classes.zero_dirty
    ));
    j.push_str(&format!(
        "  \"edit_classes\": {{ \"edited\": {edited}, \"content\": {}, \"universe_grow\": {}, \"universe_shrink\": {}, \"shape_mapped\": {}, \"fallback\": {}, \"fallback_rate\": {fallback_rate:.3} }},\n",
        classes.content,
        classes.universe_grow,
        classes.universe_shrink,
        classes.shape_mapped,
        classes.fallback
    ));
    j.push_str(&format!(
        "  \"row_kernel\": {{ \"unrolled_words\": {narrow_words}, \"unrolled_ns_per_word\": {kernel_narrow_ns:.3}, \"tiled_words\": {wide_words}, \"tiled_ns_per_word\": {kernel_wide_ns:.3} }},\n"
    ));
    j.push_str(&format!(
        "  \"speculative\": {{ \"jobs\": {cores}, \"functions_per_second\": {spec_fps:.1}, \"candidates\": {spec_candidates}, \"speculated\": {spec_speculated} }},\n"
    ));
    j.push_str(&format!(
        "  \"lift\": {{ \"functions\": {lift_fns}, \"lift_optimize_functions_per_second\": {lift_fps:.1} }}\n}}\n"
    ));
    std::fs::write(BENCH_CURRENT, &j).unwrap_or_else(|e| panic!("write {BENCH_CURRENT}: {e}"));
    o!("{j}");
    oln!("bench: wrote {BENCH_CURRENT}");
}

/// The baseline file this tree's `bench` writes. Each perf-relevant PR
/// contributes its own `BENCH_PR<n>.json`; the committed files form a
/// series that `--check` validates as a whole. (PR 7 shipped no baseline
/// — the daemon PR was perf-neutral on these metrics — so the series
/// jumps PR 6 -> PR 8 and `--check` names the hole.)
const BENCH_CURRENT: &str = "BENCH_PR10.json";

/// The committed baseline series: every `BENCH_PR<n>.json` in the working
/// directory, sorted by PR number.
fn bench_series() -> Vec<(u64, String)> {
    let mut found = Vec::new();
    if let Ok(dir) = std::fs::read_dir(".") {
        for entry in dir.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(pr) = name
                .strip_prefix("BENCH_PR")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
            {
                found.push((pr, name));
            }
        }
    }
    found.sort();
    found
}

/// Schema-validates one baseline file: required keys present, metrics
/// positive, and the warm-scratch allocation floor at its designed value.
/// Sections that newer PRs introduced (`speculative` from PR 6, `lift`
/// from PR 8, `batch_sweep` and `incremental` from PR 9) are required
/// only of the newest file of the series — `newest` — since older
/// committed baselines legitimately predate them.
fn bench_check_file(name: &str, newest: bool) {
    let text = match std::fs::read_to_string(name) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench --check: cannot read {name}: {e}");
            std::process::exit(1);
        }
    };
    let fail = |msg: String| {
        eprintln!("bench --check: {name}: {msg}");
        std::process::exit(1);
    };
    if !text.contains("\"schema\": \"lcm-bench-v1\"") {
        fail("missing or wrong schema tag (want \"lcm-bench-v1\")".into());
    }
    for section in [
        "corpus",
        "solve_ns_per_op",
        "node_revisits",
        "pipeline_ns_per_function",
        "allocations",
        "batch",
    ] {
        if !text.contains(&format!("\"{section}\":")) {
            fail(format!("missing section \"{section}\""));
        }
    }
    for key in [
        "rr",
        "wl",
        "scc",
        "reused_scratch",
        "fresh_scratch",
        "functions_per_second",
        "reused_scratch_total",
        "fresh_scratch_total",
    ] {
        match num_after(&text, key) {
            Some(v) if v > 0.0 => {}
            Some(v) => fail(format!("\"{key}\" must be positive, found {v}")),
            None => fail(format!("missing numeric \"{key}\"")),
        }
    }
    // The canonical jobs=1 throughput: `batch_sweep.j1` since PR 10.
    // PR 9 carried it under both spellings; baselines before the sweep
    // carry only the batch row's `jobs1_functions_per_second`.
    match num_after(&text, "j1").or_else(|| num_after(&text, "jobs1_functions_per_second")) {
        Some(v) if v > 0.0 => {}
        other => fail(format!(
            "jobs=1 throughput (\"j1\" or \"jobs1_functions_per_second\") \
             must be positive, found {other:?}"
        )),
    }
    match num_after(&text, "warm_floor_per_function") {
        Some(v) if (v - 6.0).abs() < f64::EPSILON => {}
        other => fail(format!(
            "\"warm_floor_per_function\" must be 6 (2 export clones x 3 solves), found {other:?}"
        )),
    }
    if newest {
        if !text.contains("\"speculative\":") {
            fail("newest baseline must carry the \"speculative\" section".into());
        }
        match num_after(&text, "candidates") {
            Some(v) if v > 0.0 => {}
            other => fail(format!(
                "\"candidates\" must be positive in the speculative row, found {other:?}"
            )),
        }
        if num_after(&text, "speculated").is_none() {
            fail("missing numeric \"speculated\" in the speculative row".into());
        }
        if !text.contains("\"lift\":") {
            fail("newest baseline must carry the \"lift\" section".into());
        }
        match num_after(&text, "lift_optimize_functions_per_second") {
            Some(v) if v > 0.0 => {}
            other => fail(format!(
                "\"lift_optimize_functions_per_second\" must be positive, found {other:?}"
            )),
        }
        if !text.contains("\"batch_sweep\":") {
            fail("newest baseline must carry the \"batch_sweep\" section".into());
        }
        for key in ["j1", "j2", "j4", "j8"] {
            match num_after(&text, key) {
                Some(v) if v > 0.0 => {}
                other => fail(format!(
                    "\"{key}\" must be a positive throughput in the batch sweep, found {other:?}"
                )),
            }
        }
        if !text.contains("\"incremental\":") {
            fail("newest baseline must carry the \"incremental\" section".into());
        }
        for key in ["fresh_fps", "delta_fps"] {
            match num_after(&text, key) {
                Some(v) if v > 0.0 => {}
                other => fail(format!(
                    "\"{key}\" must be positive in the incremental row, found {other:?}"
                )),
            }
        }
        if num_after(&text, "delta_hits").is_none() {
            fail("missing numeric \"delta_hits\" in the incremental row".into());
        }
        match num_after(&text, "delta_speedup") {
            Some(v) if v > 0.0 => {}
            other => fail(format!(
                "\"delta_speedup\" must be positive in the incremental row, found {other:?}"
            )),
        }
        for key in ["solve_ns", "tail_ns"] {
            match num_after(&text, key) {
                Some(v) if v > 0.0 => {}
                other => fail(format!(
                    "\"{key}\" must be positive in the incremental row, found {other:?}"
                )),
            }
        }
        if !text.contains("\"edit_classes\":") {
            fail("newest baseline must carry the \"edit_classes\" ledger".into());
        }
        for key in ["edited", "fallback_rate"] {
            if num_after(&text, key).is_none() {
                fail(format!(
                    "missing numeric \"{key}\" in the edit-class ledger"
                ));
            }
        }
        if !text.contains("\"row_kernel\":") {
            fail("newest baseline must carry the \"row_kernel\" section".into());
        }
        for key in ["unrolled_ns_per_word", "tiled_ns_per_word"] {
            match num_after(&text, key) {
                Some(v) if v > 0.0 => {}
                other => fail(format!(
                    "\"{key}\" must be positive in the row-kernel section, found {other:?}"
                )),
            }
        }
    }
}

/// Validates the whole committed `BENCH_PR*.json` series against the
/// `lcm-bench-v1` schema, then prints the newest file's headline metrics
/// against its immediate predecessor. The comparison is informational —
/// these are wall-clock numbers from whatever machine produced each file
/// — but it keeps a landing baseline reviewed against the previous PR's
/// instead of silently replacing it. With `gate = Some(pct)` the
/// comparison becomes enforcing: any headline metric more than `pct`
/// percent worse than the predecessor fails the run. Exits non-zero on
/// the first schema violation, on a gate breach, or when no baseline
/// exists at all.
fn bench_check(gate: Option<f64>) {
    let series = bench_series();
    if series.is_empty() {
        eprintln!("bench --check: no BENCH_PR*.json found (run `experiments bench` first)");
        std::process::exit(1);
    }
    for (i, (_, name)) in series.iter().enumerate() {
        bench_check_file(name, i == series.len() - 1);
    }
    let (_, newest) = &series[series.len() - 1];
    let prs: Vec<u64> = series.iter().map(|(pr, _)| *pr).collect();
    if let Some(p) = lcm_bench::series_predecessor(&prs) {
        let (_, prev) = series
            .iter()
            .find(|(pr, _)| *pr == p.predecessor)
            .expect("predecessor comes from the series");
        let new_text = std::fs::read_to_string(newest).expect("validated above");
        let prev_text = std::fs::read_to_string(prev).expect("validated above");
        // The series may have holes (a re-anchor PR commits no baseline);
        // name the actual predecessor and the hole rather than implying
        // the files are consecutive.
        if p.gaps.is_empty() {
            println!(
                "bench --check: {newest} vs {prev} (immediate predecessor; \
                 informational; machines may differ):"
            );
        } else {
            let absent: Vec<String> = p.gaps.iter().map(|g| format!("PR{g}")).collect();
            println!(
                "bench --check: {newest} vs {prev} — predecessor = PR{} \
                 (series gap: {} absent, no baseline committed; \
                 informational; machines may differ):",
                p.predecessor,
                absent.join(", ")
            );
        }
        for key in ["scc", "reused_scratch", "functions_per_second"] {
            if let (Some(n), Some(p)) = (num_after(&new_text, key), num_after(&prev_text, key)) {
                println!("  {key}: {p} -> {n} ({:+.1}%)", (n / p - 1.0) * 100.0);
            }
        }
        // jobs=1 is compared through its canonical spelling on each side.
        let jobs1 =
            |t: &str| num_after(t, "j1").or_else(|| num_after(t, "jobs1_functions_per_second"));
        if let (Some(n), Some(p)) = (jobs1(&new_text), jobs1(&prev_text)) {
            println!("  jobs=1 (j1): {p} -> {n} ({:+.1}%)", (n / p - 1.0) * 100.0);
        }
        if let (Some(n), Some(p)) = (
            num_after(&new_text, "delta_speedup"),
            num_after(&prev_text, "delta_speedup"),
        ) {
            println!(
                "  delta_speedup: {p} -> {n} ({:+.1}%)",
                (n / p - 1.0) * 100.0
            );
        }
        if new_text.contains("\"edit_classes\":") {
            let g = |k: &str| num_after(&new_text, k).unwrap_or(0.0);
            println!(
                "  edit classes ({} edited): {} content, {} universe-grow, \
                 {} universe-shrink, {} shape-mapped, {} fallback \
                 ({:.1}% fallback rate)",
                g("edited"),
                g("content"),
                g("universe_grow"),
                g("universe_shrink"),
                g("shape_mapped"),
                g("fallback"),
                g("fallback_rate") * 100.0
            );
        }
        if let Some(pct) = gate {
            let violations = lcm_bench::gate_regressions(&new_text, &prev_text, pct);
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!(
                        "bench --check --gate {pct}: {} regressed {:.1}% \
                         ({} -> {}, threshold {pct}%)",
                        v.key, v.worse_pct, v.previous, v.current
                    );
                }
                std::process::exit(1);
            }
            println!("bench --check: gate {pct}% passed ({newest} vs {prev})");
        }
    } else if let Some(pct) = gate {
        println!("bench --check: gate {pct}% vacuously passed (single-entry series)");
    }
    println!(
        "bench --check: {} file(s) conform to lcm-bench-v1; newest is {newest}",
        series.len()
    );
}
