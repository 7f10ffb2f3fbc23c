//! Order statistics over timing samples.

/// The median of `values` (mean of the middle two for an even count;
/// zero for no values).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A probe's timing distribution: the median, the highest percentile
/// that still has at least ten samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub p50: f64,
    /// The sample at the tail percentile.
    pub tail: f64,
    /// Which percentile `tail` is, in percent.
    pub tail_pct: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Summarises `values`. With fewer than 21 samples no percentile above
/// the median keeps ten samples beyond it, so the tail is the median.
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    let n = sorted.len();
    let p50 = median(values);
    let (tail, tail_pct) = if n >= 21 {
        // Index n-11 has exactly ten samples above it.
        (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (p50, 50.0)
    };
    Summary {
        p50,
        tail,
        tail_pct,
        samples: n,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn few_samples_fall_back_to_the_median() {
        let s = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((s.p50, s.tail, s.tail_pct), (3.0, 3.0, 50.0));
    }
}
