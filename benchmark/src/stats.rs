//! Order statistics: percentiles over pooled samples, medians and better
//! deciles over repetitions, and the quartile spread the acceptance rule
//! uses.

use crate::report::Better;

/// Nearest-rank percentile of an ascending-sorted slice (`q` in 0..=1).
/// Returns 0 for an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples pooled over repetitions; percentiles are taken over the pool,
/// not averaged per repetition, so a tail percentile is backed by every
/// sample the run collected.
#[derive(Debug, Default, Clone)]
pub struct Pool {
    samples: Vec<u64>,
    sorted: bool,
}

impl From<Vec<u64>> for Pool {
    fn from(samples: Vec<u64>) -> Self {
        Pool {
            samples,
            sorted: false,
        }
    }
}

impl Pool {
    pub fn push(&mut self, v: u64) {
        self.samples.push(v);
        self.sorted = false;
    }

    pub fn absorb(&mut self, other: &Pool) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn percentile(&mut self, q: f64) -> u64 {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        percentile_sorted(&self.samples, q)
    }

    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Share of `attempted` whose sample is at most `limit`, in percent (so
    /// an op that never produced a sample counts as over the limit).
    pub fn share_within_pct(&self, limit: u64, attempted: u64) -> f64 {
        if attempted == 0 {
            return 0.0;
        }
        let within = self.samples.iter().filter(|&&v| v <= limit).count();
        100.0 * within as f64 / attempted as f64
    }
}

/// Median of a list of measurements (mean of the middle two when even).
/// Returns 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The decile of `values` on their better side (nearest rank): the value a
/// tenth of them reach or beat. What the host adds to a repetition it only
/// ever adds, so this is what a quiet host gives as long as a tenth of the
/// repetitions ran undisturbed; unlike a minimum it does not ride on one
/// lucky repetition. Returns 0 for an empty list.
pub fn better_decile(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    let rank = (v.len() as f64 * 0.10).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// acceptance rule compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
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
        assert_eq!(percentile_sorted(&[], 0.5), 0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
    }

    #[test]
    fn pooling_takes_percentiles_over_all_repetitions() {
        // Two repetitions: one fast, one with a slow tail. The pooled p99
        // sees the tail; the mean of per-repetition p99s would not be it.
        let mut a = Pool::default();
        let mut b = Pool::default();
        for _ in 0..100 {
            a.push(10);
        }
        for i in 0..100 {
            b.push(if i < 97 { 10 } else { 1000 });
        }
        let mut pooled = Pool::default();
        pooled.absorb(&a);
        pooled.absorb(&b);
        assert_eq!(pooled.len(), 200);
        assert_eq!(pooled.percentile(0.5), 10);
        assert_eq!(pooled.percentile(0.99), 1000);
        assert_eq!(pooled.percentile(0.98), 10);
        assert_eq!(pooled.max(), 1000);
    }

    #[test]
    fn missing_samples_count_as_over_the_limit() {
        let mut p = Pool::default();
        for v in [1, 2, 3, 100] {
            p.push(v);
        }
        // 5 attempted, 4 sampled, 3 within: the slow one and the lost one
        // both miss the limit.
        assert!((p.share_within_pct(10, 5) - 60.0).abs() < 1e-12);
        assert_eq!(p.share_within_pct(10, 0), 0.0);
    }

    #[test]
    fn better_deciles_sit_on_the_metrics_good_side() {
        let v: Vec<f64> = (1..=50).rev().map(f64::from).collect();
        assert_eq!(better_decile(&v, Better::Lower), 5.0);
        assert_eq!(better_decile(&v, Better::Higher), 46.0);
        // Eight disturbed repetitions of ten do not move it.
        let mut reps = vec![90.0; 8];
        reps.extend([10.0, 11.0]);
        assert_eq!(better_decile(&reps, Better::Lower), 10.0);
        assert_eq!(better_decile(&[3.0, 2.0], Better::Higher), 3.0);
        assert_eq!(better_decile(&[], Better::Lower), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
