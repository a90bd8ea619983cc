//! Order statistics over samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nanoseconds to milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Consecutive blocks a run's ops are cut into for [`quietest_block`].
pub const BLOCKS: usize = 16;

/// The ops of the quietest of [`BLOCKS`] equal consecutive blocks of a
/// run: the block with the lowest median op time. On a shared machine a
/// neighbour's burst slows every op it overlaps by up to half; the typical
/// op cost is read from the block no burst overlapped, as a best-of-repeats
/// timing does. A change to the program moves every block alike.
pub fn quietest_block(op_ms: &[f64]) -> std::ops::Range<usize> {
    let len = op_ms.len().div_ceil(BLOCKS).max(1);
    (0..op_ms.len())
        .step_by(len)
        .map(|start| start..(start + len).min(op_ms.len()))
        .min_by(|a, b| median(&op_ms[a.clone()]).total_cmp(&median(&op_ms[b.clone()])))
        .unwrap_or(0..0)
}
