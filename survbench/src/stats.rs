//! Order statistics for the benchmark's timings.
//!
//! Every percentile the benchmark reports is a nearest-rank percentile,
//! and a percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it: a p99 read from 200 samples is decided by two
//! values and says nothing stable about the tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.75];

/// Nearest rank of percentile `q` in a sample of `n`: `ceil(q·n)`,
/// clamped to `1..=n`. Computed in integer per-mille so that `0.99·200`
/// is exactly rank 198 rather than a rounding artefact.
fn rank(n: usize, q: f64) -> usize {
    let permille = (q * 1000.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The nearest-rank `q` percentile of an ascending-sorted sample, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// The highest candidate percentile a sample of `n` supports.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

/// Median of an unsorted sample (mean of the middle pair for even
/// sizes); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Sorts ascending; timings are finite by construction.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
}

/// Label of a percentile, as in `p99` or `p99.9`.
pub fn label(q: f64) -> String {
    let pct = q * 100.0;
    if (pct - pct.round()).abs() < 1e-9 {
        format!("p{}", pct.round())
    } else {
        format!("p{pct:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ascending(1000);
        assert_eq!(percentile(&s, 0.5), Some(500.0));
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.95), Some(950.0));
        // 0.99 · 1001 = 990.99 → rank 991.
        assert_eq!(percentile(&ascending(1001), 0.99), Some(991.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 leaves exactly 10 beyond: reported.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(percentile(&ascending(1000), 0.99).is_some());
        // p99 of 999 leaves 9 beyond (rank 990): refused.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(percentile(&ascending(999), 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ascending(19), 0.5), None);
        assert_eq!(percentile(&ascending(20), 0.5), Some(10.0));
    }

    #[test]
    fn tail_quantile_is_the_highest_supported() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
    }

    #[test]
    fn median_handles_odd_and_even_sizes() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn labels() {
        assert_eq!(label(0.99), "p99");
        assert_eq!(label(0.999), "p99.9");
        assert_eq!(label(0.5), "p50");
    }
}
