//! Percentiles, medians and failure accounting shared by every workload.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. `q` is in `[0, 1]`.
///
/// # Panics
///
/// Panics on an empty sample or a `q` outside `[0, 1]`.
#[must_use]
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `samples` in place and returns its `q` percentile.
///
/// # Panics
///
/// As [`percentile_sorted`].
#[must_use]
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile_sorted(samples, q)
}

/// Median of a float sample (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median_f64(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and the ways they failed. Every failure counts
/// against `attempted`; none of them is a latency sample.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations the generator tried to send.
    pub attempted: u64,
    /// Refused at admission (`QueueFull` or `ShuttingDown`).
    pub rejected: u64,
    /// Admitted but completed as `ServiceReply::Shed`.
    pub shed: u64,
    /// Completed with an engine error (`Insert(Err)`).
    pub errors: u64,
}

impl Tally {
    /// Every failed operation, whatever the cause.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.rejected + self.shed + self.errors
    }

    /// Failed operations as a share of those attempted (0 when none were).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Adds another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.errors += other.errors;
    }
}

/// Nanoseconds as microseconds.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// A duration in whole nanoseconds (saturating at `u64::MAX`).
#[must_use]
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        // Ten samples: p99 is the largest, p50 the fifth.
        let mut w = vec![10, 9, 8, 7, 6, 5, 4, 3, 2, 1];
        assert_eq!(percentile(&mut w, 0.99), 10);
        assert_eq!(percentile(&mut w, 0.5), 5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_of_nothing_panics() {
        let _ = percentile_sorted(&[], 0.5);
    }

    #[test]
    fn medians() {
        assert!((median_f64(&[3.0, 1.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((median_f64(&[4.0, 1.0, 2.0, 3.0]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally {
            attempted: 200,
            rejected: 3,
            shed: 1,
            errors: 0,
        };
        assert_eq!(t.failed(), 4);
        assert!((t.failed_frac() - 0.02).abs() < 1e-12);
        t.merge(&Tally {
            attempted: 200,
            rejected: 0,
            shed: 0,
            errors: 4,
        });
        assert_eq!(t.failed(), 8);
        assert!((t.failed_frac() - 0.02).abs() < 1e-12);
        assert!(Tally::default().failed_frac().abs() < 1e-12);
    }
}
