//! Order statistics.

/// A percentile is only reported as resolved when at least this many
/// samples lie beyond it; fewer and one outlier would decide the value.
pub const MIN_BEYOND: usize = 10;

/// A percentile read from a sample, or the reason it could not be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Percentile {
    /// The nearest-rank value, with at least [`MIN_BEYOND`] samples above it.
    Resolved(f64),
    /// Too few samples beyond the requested rank; carries the nearest-rank
    /// value anyway so a report can still print it, flagged.
    Unresolved(f64),
    /// No samples at all.
    Empty,
}

impl Percentile {
    /// The value whether resolved or not (`0` for an empty sample).
    pub fn value(self) -> f64 {
        match self {
            Percentile::Resolved(v) | Percentile::Unresolved(v) => v,
            Percentile::Empty => 0.0,
        }
    }

    /// True when the value has at least [`MIN_BEYOND`] samples beyond it.
    pub fn is_resolved(self) -> bool {
        matches!(self, Percentile::Resolved(_))
    }
}

/// Nearest-rank index (0-based) of percentile `p` (0–100) in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps an exact product (99.9 % of 10 000) from rounding
    // up past itself.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    n - 1 - rank(n, p)
}

/// Percentile `p` of an ascending-sorted sample, resolved only when at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Percentile {
    if sorted.is_empty() {
        return Percentile::Empty;
    }
    let v = sorted[rank(sorted.len(), p)];
    if beyond(sorted.len(), p) >= MIN_BEYOND {
        Percentile::Resolved(v)
    } else {
        Percentile::Unresolved(v)
    }
}

/// The highest percentile on a fixed ladder that `n` samples resolve
/// (`None` when even the median has fewer than [`MIN_BEYOND`] beyond it).
pub fn highest_resolved(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    if n == 0 {
        return None;
    }
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Sort a sample ascending (NaN-free by construction: durations).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    values
}

/// Median of an unsorted sample (`0` when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0).value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        assert_eq!(percentile(&thousand, 99.0), Percentile::Resolved(990.0));
        assert_eq!(percentile(&thousand, 50.0), Percentile::Resolved(500.0));
        // 999 samples leave only 9 beyond p99.
        let short = &thousand[..999];
        assert!(!percentile(short, 99.0).is_resolved());
        assert_eq!(percentile(short, 99.0).value(), 990.0);
        assert_eq!(percentile(&[], 50.0), Percentile::Empty);
    }

    #[test]
    fn highest_resolved_percentile_follows_the_sample_count() {
        assert_eq!(highest_resolved(10_000), Some(99.9));
        assert_eq!(highest_resolved(1_000), Some(99.0));
        assert_eq!(highest_resolved(999), Some(95.0));
        assert_eq!(highest_resolved(200), Some(95.0));
        assert_eq!(highest_resolved(100), Some(90.0));
        assert_eq!(highest_resolved(20), Some(50.0));
        // Too few for even the median: unresolved.
        assert_eq!(highest_resolved(19), None);
        assert_eq!(highest_resolved(0), None);
    }
}
