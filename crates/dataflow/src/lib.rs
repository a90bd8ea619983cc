//! A dense bit-vector dataflow framework.
//!
//! Lazy Code Motion's defining property is that it needs only
//! **unidirectional bit-vector** analyses — the cheapest class of dataflow
//! problems. This crate provides exactly that machinery:
//!
//! * [`BitSet`] — a dense, word-packed bit set with the usual lattice
//!   operations, plus the raw `&[u64]` row kernels ([`union_rows`],
//!   [`intersect_rows`], [`copy_row_changed`], …) it shares with
//!   [`BitMatrix`];
//! * [`BitMatrix`] — a flat `n_blocks × nbits` bit matrix: one analysis
//!   state in one contiguous allocation, rows exposed as slice views;
//! * [`Problem`] — a gen/kill dataflow problem over a
//!   [`Function`](lcm_ir::Function)'s CFG, forward or backward, with
//!   intersection ([`Confluence::Must`]) or union ([`Confluence::May`])
//!   confluence, plus optional per-edge gen sets (needed by the LATER
//!   analysis of lazy code motion);
//! * two solver strategies ([`SolveStrategy`]) — round-robin sweeps and
//!   an SCC-condensed priority worklist that drains each strongly
//!   connected component to fixpoint before advancing — which produce
//!   identical fixpoints;
//! * [`SolverScratch`] — a reusable solver arena (state matrices, worklist
//!   deque, in-queue bitmap, change flags) passed to
//!   [`Problem::solve_with`], giving O(1) amortized heap allocations per
//!   solve when held across functions;
//! * [`CfgView`] — precomputed traversal orders, adjacency and the
//!   one-shot Tarjan SCC condensation, built once per function and shared
//!   across solves (how the fused LCM pipeline runs its four analyses);
//! * [`SolveStats`] — iteration / visit / revisit / word-operation /
//!   allocation counters used by the complexity experiments (LCM vs. the
//!   bidirectional Morel–Renvoise system) and the benchmark's
//!   per-layer counters;
//! * [`analyses`] — canned variable-level problems (liveness, definite
//!   assignment) shared across the workspace.
//!
//! # Example: reaching "taint" as a forward may-problem
//!
//! ```
//! use lcm_dataflow::{Confluence, Direction, Problem, Transfer};
//! use lcm_ir::parse_function;
//!
//! let f = parse_function(
//!     "fn g {
//!      entry:
//!        jmp mid
//!      mid:
//!        br c, mid, end
//!      end:
//!        ret
//!      }",
//! )?;
//! // One bit, generated in `mid`, never killed.
//! let mid = f.block_by_name("mid").unwrap();
//! let mut transfer = vec![Transfer::identity(1); f.num_blocks()];
//! transfer[mid.index()].gen.insert(0);
//! let problem = Problem::new(&f, 1, Direction::Forward, Confluence::May, transfer);
//! let solution = problem.solve();
//! assert!(solution.ins.contains(mid.index(), 0)); // reaches around the loop
//! assert!(!solution.ins.contains(f.entry().index(), 0));
//! assert!(solution.ins.contains(f.exit().index(), 0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod bitmatrix;
mod error;
mod problem;
mod solver;
mod stats;
mod view;

pub mod analyses;
pub mod bitset;

pub use bitmatrix::BitMatrix;
pub use bitset::{
    copy_row_changed, count_row, difference_rows, intersect_rows, row_contains, row_is_empty,
    union_rows, BitIter, BitSet, WIDE_ROW_WORDS,
};
pub use error::SolverDiverged;
pub use problem::{Confluence, Direction, Problem, Solution, Transfer};
pub use solver::{DeltaSolveInfo, SolveStrategy, SolverScratch};
pub use stats::SolveStats;
pub use view::CfgView;
