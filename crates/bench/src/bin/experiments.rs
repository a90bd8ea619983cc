//! Regenerates every figure and theorem validation of the paper.
//!
//! ```sh
//! cargo run -p lcm-bench --bin experiments --release -- all
//! cargo run -p lcm-bench --bin experiments --release -- f1 f2 f3 f4 f5 t1 t2 t3 c1 c2 c3 c5 e1 a1
//! ```
//!
//! The experiment ids follow EXPERIMENTS.md / DESIGN.md §3. Performance is
//! measured by the end-to-end benchmark in `lcmbench/`, not here.
//!
//! Everything printed is mirrored to `artifacts/experiments_output.txt`
//! (gitignored) so runs leave a reviewable record without checking build
//! output into the repository.

use std::fs::File;
use std::io::Write;
use std::sync::Mutex;

use lcm_bench::{
    compare_algorithms, fused_analysis_cost, lcm_analysis_cost, mr_analysis_cost, sized_corpus,
};
use lcm_cfggen::{corpus, random_dag, shapes, GenOptions};
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

/// C2 — the fused pipeline (shared CfgView + SCC-priority solver) vs the
/// seed per-analysis round-robin path, same three analyses.
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
            "{name}: the SCC schedule should never visit more nodes"
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
         adjacency recomputed per solve. fu = fused: one CfgView, SCC-priority\n\
         solver. Fixpoints are identical — asserted per function in the\n\
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
        optimize_checked, validate::sample_inputs, EdgeWeights, OptimizeBudget, Options, Session,
        ValidationLevel,
    };
    use lcm_dataflow::SolveStrategy;
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
        let opts = Options {
            placement: PreAlgorithm::Speculative,
            validate: ValidationLevel::Off,
            seed: 0,
            solver: SolveStrategy::default(),
        };
        let budget = OptimizeBudget::unlimited();
        let (spec, _) =
            optimize_checked(f, Some(&w), &opts, &budget, &mut Session::new()).expect("spec");
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
        "ablations: isolation pruning; SCC-priority vs round-robin solver",
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
    use lcm_dataflow::{CfgView, Confluence, Direction, Problem, SolveStrategy, Transfer};
    let mut rr_visits = 0usize;
    let mut scc_visits = 0usize;
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
        let scc = p.solve_with(
            SolveStrategy::SccPriority,
            &CfgView::new(&f),
            &mut lcm_dataflow::SolverScratch::new(),
        );
        assert_eq!(rr.ins, scc.ins);
        rr_visits += rr.stats.node_visits;
        scc_visits += scc.stats.node_visits;
    }
    oln!(
        "anticipability on 10 programs of ~150 blocks: round-robin {} node visits, SCC priority {} node visits (identical fixpoints)",
        rr_visits, scc_visits
    );
}
