//! Medians and the tail percentile a sample supports.

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for an even count).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A tail value with the percentile it stands for and its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile of `value`.
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Samples the tail was taken from.
    pub samples: usize,
}

/// The highest nearest-rank percentile, at most `cap`, that keeps at
/// least [`TAIL_BEYOND`] samples strictly beyond its rank. `None` when
/// the sample is too small to have one (fewer than 11 samples).
pub fn tail(values: &[f64], cap: f64) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let capped = ((cap / 100.0) * n as f64).ceil() as usize;
    let rank = capped.clamp(1, n - TAIL_BEYOND);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
    })
}
