//! Order statistics used by every workload.

/// Sorted copy of `xs` (NaN-free input; a NaN is a bug in a timer).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v
}

/// Nearest-rank percentile: the smallest sample such that at least `q` of
/// the samples are at or below it (`q` in `(0, 1]`). `None` when empty.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let rank = (q * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// Median, averaging the two middle samples of an even-length set.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Number of samples strictly above `threshold`.
pub fn count_above(xs: &[f64], threshold: f64) -> usize {
    xs.iter().filter(|&&x| x > threshold).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(5.0));
        assert_eq!(percentile(&xs, 0.9), Some(9.0));
        assert_eq!(percentile(&xs, 0.91), Some(10.0));
        assert_eq!(percentile(&xs, 1.0), Some(10.0));
        assert_eq!(percentile(&[7.5], 0.9), Some(7.5));
        assert_eq!(percentile(&[], 0.5), None);
        // 100 samples: p90 leaves exactly ten samples beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&hundred, 0.9).unwrap();
        assert_eq!(p90, 90.0);
        assert_eq!(count_above(&hundred, p90), 10);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
