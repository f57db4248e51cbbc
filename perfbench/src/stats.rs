//! Order statistics over host timings.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of a sample that still has at least ten
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (rank of the value, rounded down), or 100 when the
    /// sample is too small to leave ten beyond any value.
    pub percentile: u32,
    /// The sample value at that rank.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The tail of `values`: the value with exactly ten samples above it, or
/// the maximum when there are eleven samples or fewer.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 11 {
        return Tail {
            percentile: 100,
            value: v.last().copied().unwrap_or(0.0),
            samples: n,
        };
    }
    let k = n - 11;
    Tail {
        percentile: (100 * (k + 1) / n) as u32,
        value: v[k],
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        let small = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((small.percentile, small.value), (100, 5.0));
    }
}
