//! Order statistics over raw per-operation samples.

/// Median (mean of the two middle values for an even count; 0 for none).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean (0 for none).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The tail of a sample set: the highest percentile of a fixed ladder
/// that still has at least ten samples beyond it, with the sample count.
/// The ladder stops at p90: with fewer than 100 samples p90 is reported
/// all the same, with fewer than ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// Percentile actually reported (e.g. 95.0).
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples it was taken from.
    pub samples: usize,
}

const LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    let rank = |p: f64| (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    let percentile = LADDER
        .into_iter()
        .find(|&p| n - rank(p) >= 10)
        .unwrap_or(90.0);
    Tail {
        percentile,
        value: s.get(rank(percentile) - 1).copied().unwrap_or(0.0),
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value, t.samples), (90.0, 90.0, 100));
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!((tail(&few).percentile, tail(&few).value), (90.0, 11.0));
        assert_eq!(tail(&[]).value, 0.0);
    }
}
