//! Numerical error metrics used by the paper's accuracy evaluation
//! (Table 6): element-wise average and maximum absolute error of a GPU
//! result against a serial CPU ground truth.

/// Average and maximum absolute error between two result vectors, following
/// the paper's definitions:
///
/// * `Average_Error = (1/n) * sum_i |result_gpu_i - result_cpu_i|`
/// * `Max_Error     = max_i  |result_gpu_i - result_cpu_i|`
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    /// Mean absolute element-wise error.
    pub avg: f64,
    /// Maximum absolute element-wise error.
    pub max: f64,
    /// Number of compared elements.
    pub n: usize,
}

impl ErrorStats {
    /// Compare `result` against `reference` element-wise.
    ///
    /// # Panics
    /// Panics if the slices have different lengths or are empty.
    pub fn compare(result: &[f64], reference: &[f64]) -> Self {
        assert_eq!(
            result.len(),
            reference.len(),
            "error comparison requires equal-length vectors"
        );
        assert!(!result.is_empty(), "cannot compare empty vectors");
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        for (&a, &b) in result.iter().zip(reference) {
            let d = (a - b).abs();
            sum += d;
            if d > max {
                max = d;
            }
        }
        Self {
            avg: sum / result.len() as f64,
            max,
            n: result.len(),
        }
    }

    /// Compare complex results by interleaving real and imaginary parts,
    /// matching how the paper reports FFT errors on scalar samples.
    pub fn compare_c64(result: &[crate::C64], reference: &[crate::C64]) -> Self {
        assert_eq!(result.len(), reference.len());
        assert!(!result.is_empty());
        let mut sum = 0.0f64;
        let mut max = 0.0f64;
        for (&a, &b) in result.iter().zip(reference) {
            for d in [(a.re - b.re).abs(), (a.im - b.im).abs()] {
                sum += d;
                if d > max {
                    max = d;
                }
            }
        }
        Self {
            avg: sum / (2 * result.len()) as f64,
            max,
            n: 2 * result.len(),
        }
    }

    /// Merge two error statistics as if their element sets were
    /// concatenated (used to pool errors across test cases).
    pub fn merge(self, other: Self) -> Self {
        if self.n == 0 {
            return other;
        }
        if other.n == 0 {
            return self;
        }
        let n = self.n + other.n;
        Self {
            avg: (self.avg * self.n as f64 + other.avg * other.n as f64) / n as f64,
            max: self.max.max(other.max),
            n,
        }
    }
}

/// A compensated (Kahan) accumulator, used by CPU ground-truth reductions
/// where the paper relies on a "naive CPU serial implementation"; we expose
/// both so tests can distinguish naive from compensated accumulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    c: f64,
}

impl KahanSum {
    /// Fresh accumulator at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one term with error compensation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let y = x - self.c;
        let t = self.sum + y;
        self.c = (t - self.sum) - y;
        self.sum = t;
    }

    /// The compensated total.
    pub fn value(&self) -> f64 {
        self.sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_identical_is_exact() {
        let v = vec![1.0, -2.5, 3.25];
        let e = ErrorStats::compare(&v, &v);
        assert_eq!(e.max, 0.0);
        assert_eq!(e.avg, 0.0);
        assert_eq!(e.n, 3);
    }

    #[test]
    fn compare_reports_avg_and_max() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![1.0, 2.5, 2.0];
        let e = ErrorStats::compare(&a, &b);
        assert!((e.avg - 0.5).abs() < 1e-15);
        assert_eq!(e.max, 1.0);
    }

    #[test]
    #[should_panic]
    fn compare_rejects_length_mismatch() {
        let _ = ErrorStats::compare(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn merge_pools_counts() {
        let a = ErrorStats {
            avg: 1.0,
            max: 2.0,
            n: 2,
        };
        let b = ErrorStats {
            avg: 4.0,
            max: 5.0,
            n: 4,
        };
        let m = a.merge(b);
        assert_eq!(m.n, 6);
        assert!((m.avg - 3.0).abs() < 1e-15);
        assert_eq!(m.max, 5.0);
    }

    #[test]
    fn kahan_beats_naive_on_hard_sum() {
        // 1 + 1e-16 repeated: naive accumulation loses the small terms.
        let mut k = KahanSum::new();
        let mut naive = 0.0f64;
        k.add(1.0);
        naive += 1.0;
        for _ in 0..1_000_000 {
            k.add(1e-16);
            naive += 1e-16;
        }
        let exact = 1.0 + 1_000_000.0 * 1e-16;
        assert!((k.value() - exact).abs() < (naive - exact).abs());
    }

    #[test]
    fn compare_c64_counts_components() {
        let a = vec![crate::C64::new(1.0, 0.0)];
        let b = vec![crate::C64::new(0.0, 1.0)];
        let e = ErrorStats::compare_c64(&a, &b);
        assert_eq!(e.n, 2);
        assert_eq!(e.max, 1.0);
        assert!((e.avg - 1.0).abs() < 1e-15);
    }
}
