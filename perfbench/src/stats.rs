//! Sample summaries and digests.

use std::collections::BTreeMap;

/// Tail percentiles the report may show, highest first.
const TAILS: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples a reported percentile must leave strictly above it.
const MIN_BEYOND: usize = 10;

/// The `q`-th percentile (0..=100) of `sorted`, interpolated linearly
/// between the closest ranks (Python's `statistics.quantiles`
/// "inclusive" method). `None` when there are no samples.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q / 100.0 * last as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples; `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// Mean of the `k` smallest samples (all of them when there are fewer);
/// `None` when empty or `k` is 0.
#[must_use]
pub fn best_of(samples: &[f64], k: usize) -> Option<f64> {
    let fastest = &sorted(samples)[..k.min(samples.len())];
    (!fastest.is_empty()).then(|| fastest.iter().sum::<f64>() / fastest.len() as f64)
}

/// A copy of `samples` in ascending order.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail percentile that may be reported: its rank, value, and how many
/// samples lie strictly above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub q: f64,
    pub value: f64,
    pub beyond: usize,
}

/// The highest of p99.9, p99 and p90 that leaves at least
/// [`MIN_BEYOND`] samples strictly above it, or `None` when even p90
/// does not.
#[must_use]
pub fn reportable_tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    TAILS.iter().find_map(|&q| {
        let value = percentile(&s, q)?;
        let beyond = s.iter().filter(|&&x| x > value).count();
        (beyond >= MIN_BEYOND).then_some(Tail { q, value, beyond })
    })
}

/// FNV-1a over `name=value` lines: a stable fingerprint of a stats
/// snapshot, for comparing runs of one input without storing them.
#[must_use]
pub fn digest(counters: &BTreeMap<String, u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in counters {
        for b in k
            .bytes()
            .chain([b'='])
            .chain(v.to_string().bytes())
            .chain([b'\n'])
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over raw bytes.
#[must_use]
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// splitmix64 step: derives independent sub-seeds from the workload seed.
#[must_use]
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn best_of_averages_the_smallest() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(best_of(&s, 2), Some(1.5));
        assert_eq!(best_of(&s, 9), Some(3.0));
        assert_eq!(best_of(&s, 0), None);
        assert_eq!(best_of(&[], 3), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = ramp(5);
        assert_eq!(percentile(&s, 50.0), Some(3.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(5.0));
        assert!((percentile(&s, 90.0).expect("p90") - 4.6).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 92 is the smallest sample count whose p90 leaves ten above it.
        assert_eq!(reportable_tail(&ramp(50)), None);
        assert_eq!(reportable_tail(&ramp(91)), None);
        let t = reportable_tail(&ramp(92)).expect("p90 of 92 samples");
        assert_eq!((t.q, t.beyond), (90.0, 10));
        assert!((t.value - 82.9).abs() < 1e-9);
        let t = reportable_tail(&ramp(101)).expect("p90 of 101 samples");
        assert_eq!((t.q, t.value, t.beyond), (90.0, 91.0, 10));
        // p99 needs about a thousand samples.
        let t = reportable_tail(&ramp(1_000)).expect("tail of 1000 samples");
        assert_eq!(t.q, 99.0);
        assert_eq!(t.beyond, 10);
        let t = reportable_tail(&ramp(10_001)).expect("tail of 10001 samples");
        assert_eq!((t.q, t.beyond), (99.9, 10));
    }

    #[test]
    fn tail_counts_ties_as_not_beyond() {
        // 200 equal samples: nothing lies strictly above any percentile.
        assert_eq!(reportable_tail(&[7.0; 200]), None);
        let mut v = vec![1.0; 100];
        v.extend([2.0; 9]);
        assert_eq!(reportable_tail(&v), None);
        v.push(2.0);
        let t = reportable_tail(&v).expect("ten samples above p90");
        assert_eq!((t.q, t.value, t.beyond), (90.0, 1.0, 10));
    }

    #[test]
    fn digests_see_every_counter() {
        let mut a = BTreeMap::new();
        a.insert("x".to_owned(), 1);
        let mut b = a.clone();
        assert_eq!(digest(&a), digest(&b));
        b.insert("y".to_owned(), 0);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(derive(1, 0), derive(1, 1));
        assert_ne!(derive(1, 0), derive(2, 0));
    }
}
