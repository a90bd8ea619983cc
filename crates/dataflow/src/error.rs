//! Typed errors for the dataflow layer.

use std::error::Error;
use std::fmt;

/// A fixpoint iteration exhausted its sweep bound without converging.
///
/// The bound is derived from the CFG's loop-connectedness (upper-bounded by
/// its retreating-edge count; see
/// [`CfgView::retreating_edges`](crate::CfgView::retreating_edges)), which for the rapid gen/kill
/// frameworks used here is a proven convergence bound — so this error never
/// fires on a well-formed monotone problem. It exists to turn a corrupted
/// transfer function or oscillating (non-monotone) system into a recoverable
/// diagnostic instead of an infinite loop.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SolverDiverged {
    /// The name of the analysis
    /// ([`Problem::with_name`](crate::Problem::with_name)); `"dataflow"`
    /// when unnamed.
    pub analysis: &'static str,
    /// The number of sweeps (round-robin) or sweep-equivalents (SCC priority)
    /// performed before giving up.
    pub sweeps: usize,
}

impl fmt::Display for SolverDiverged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "analysis `{}` did not converge within {} sweeps \
             (non-monotone or corrupted transfer functions?)",
            self.analysis, self.sweeps
        )
    }
}

impl Error for SolverDiverged {}
