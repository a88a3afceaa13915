//! Principal component analysis from scratch: feature standardization,
//! covariance computation, and a cyclic Jacobi eigensolver for the
//! symmetric covariance matrix. Matches the paper's methodology:
//! "the data is standardized, followed by applying PCA by computing the
//! covariance matrix and extracting the two top principal components".

/// A fitted PCA model.
#[derive(Debug, Clone, PartialEq)]
pub struct Pca {
    /// Feature means (standardization).
    pub means: Vec<f64>,
    /// Feature standard deviations (standardization; zero-variance
    /// features get σ = 1 so they standardize to zero).
    pub stds: Vec<f64>,
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Principal components (rows, orthonormal), same order.
    pub components: Vec<Vec<f64>>,
}

impl Pca {
    /// Fit a PCA on row-major samples (`n_samples × n_features`).
    ///
    /// # Panics
    /// Panics on fewer than two samples or inconsistent feature counts.
    pub fn fit(samples: &[Vec<f64>]) -> Self {
        let n = samples.len();
        assert!(n >= 2, "PCA needs at least two samples");
        let d = samples[0].len();
        assert!(samples.iter().all(|s| s.len() == d), "ragged samples");

        let mut means = vec![0.0f64; d];
        for s in samples {
            for (m, v) in means.iter_mut().zip(s) {
                *m += v;
            }
        }
        for m in means.iter_mut() {
            *m /= n as f64;
        }
        let mut stds = vec![0.0f64; d];
        for s in samples {
            for ((sd, v), m) in stds.iter_mut().zip(s).zip(&means) {
                *sd += (v - m) * (v - m);
            }
        }
        for sd in stds.iter_mut() {
            *sd = (*sd / (n - 1) as f64).sqrt();
            if *sd < 1e-12 {
                *sd = 1.0;
            }
        }

        // Covariance of the standardized data (= correlation matrix).
        let mut cov = vec![0.0f64; d * d];
        for s in samples {
            let z: Vec<f64> = s
                .iter()
                .zip(&means)
                .zip(&stds)
                .map(|((v, m), sd)| (v - m) / sd)
                .collect();
            for i in 0..d {
                for j in i..d {
                    cov[i * d + j] += z[i] * z[j];
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                cov[i * d + j] /= (n - 1) as f64;
                cov[j * d + i] = cov[i * d + j];
            }
        }

        let (eigenvalues, components) = jacobi_eigen(&cov, d);
        Self {
            means,
            stds,
            eigenvalues,
            components,
        }
    }

    /// Project one sample onto the top `k` components.
    pub fn project(&self, sample: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(sample.len(), self.means.len());
        let z: Vec<f64> = sample
            .iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((v, m), sd)| (v - m) / sd)
            .collect();
        self.components
            .iter()
            .take(k)
            .map(|c| c.iter().zip(&z).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Fraction of total variance explained by the top `k` components.
    pub fn explained_variance(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        self.eigenvalues.iter().take(k).sum::<f64>() / total
    }
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix; returns
/// (eigenvalues desc, orthonormal eigenvectors as rows).
fn jacobi_eigen(m: &[f64], d: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let mut a = m.to_vec();
    let mut v = vec![0.0f64; d * d];
    for i in 0..d {
        v[i * d + i] = 1.0;
    }
    for _sweep in 0..100 {
        let mut off = 0.0f64;
        for p in 0..d {
            for q in p + 1..d {
                off += a[p * d + q] * a[p * d + q];
            }
        }
        if off < 1e-22 {
            break;
        }
        for p in 0..d {
            for q in p + 1..d {
                let apq = a[p * d + q];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a[p * d + p];
                let aqq = a[q * d + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q.
                for k in 0..d {
                    let akp = a[k * d + p];
                    let akq = a[k * d + q];
                    a[k * d + p] = c * akp - s * akq;
                    a[k * d + q] = s * akp + c * akq;
                }
                for k in 0..d {
                    let apk = a[p * d + k];
                    let aqk = a[q * d + k];
                    a[p * d + k] = c * apk - s * aqk;
                    a[q * d + k] = s * apk + c * aqk;
                }
                for k in 0..d {
                    let vkp = v[k * d + p];
                    let vkq = v[k * d + q];
                    v[k * d + p] = c * vkp - s * vkq;
                    v[k * d + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let mut order: Vec<usize> = (0..d).collect();
    order.sort_by(|&i, &j| a[j * d + j].partial_cmp(&a[i * d + i]).unwrap());
    let eigenvalues: Vec<f64> = order.iter().map(|&i| a[i * d + i]).collect();
    let components: Vec<Vec<f64>> = order
        .iter()
        .map(|&i| (0..d).map(|k| v[k * d + i]).collect())
        .collect();
    (eigenvalues, components)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::SplitMix64;

    fn correlated_samples(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut g = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let t = g.next_unit() * 10.0;
                let noise = g.next_unit() - 0.5;
                // Strongly correlated pair plus an independent feature.
                vec![t, 2.0 * t + 0.1 * noise, g.next_unit()]
            })
            .collect()
    }

    #[test]
    fn first_component_captures_correlated_pair() {
        let s = correlated_samples(500, 1);
        let pca = Pca::fit(&s);
        // Two correlated features → ~2/3 of standardized variance on PC1.
        assert!(
            pca.explained_variance(1) > 0.6,
            "PC1 explains {}",
            pca.explained_variance(1)
        );
        assert!(pca.explained_variance(3) > 0.999);
    }

    #[test]
    fn components_are_orthonormal() {
        let s = correlated_samples(200, 2);
        let pca = Pca::fit(&s);
        let d = pca.components.len();
        for i in 0..d {
            for j in 0..d {
                let dot: f64 = pca.components[i]
                    .iter()
                    .zip(&pca.components[j])
                    .map(|(a, b)| a * b)
                    .sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "({i},{j}): {dot}");
            }
        }
    }

    #[test]
    fn eigenvalues_descend_and_sum_to_dimension() {
        let s = correlated_samples(300, 3);
        let pca = Pca::fit(&s);
        for w in pca.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        // Correlation matrix trace = d.
        let sum: f64 = pca.eigenvalues.iter().sum();
        assert!((sum - 3.0).abs() < 1e-9, "trace {sum}");
    }

    #[test]
    fn projection_centers_the_data() {
        let s = correlated_samples(100, 4);
        let pca = Pca::fit(&s);
        let proj: Vec<Vec<f64>> = s.iter().map(|x| pca.project(x, 2)).collect();
        let mean0: f64 = proj.iter().map(|p| p[0]).sum::<f64>() / proj.len() as f64;
        let mean1: f64 = proj.iter().map(|p| p[1]).sum::<f64>() / proj.len() as f64;
        assert!(mean0.abs() < 1e-9 && mean1.abs() < 1e-9);
    }

    #[test]
    fn constant_feature_does_not_break_fit() {
        let samples: Vec<Vec<f64>> = (0..50)
            .map(|i| vec![i as f64, 7.0, (i % 5) as f64])
            .collect();
        let pca = Pca::fit(&samples);
        assert!(pca.eigenvalues.iter().all(|v| v.is_finite()));
        let p = pca.project(&samples[0], 2);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn known_diagonal_case() {
        // Two independent features with very different variances: after
        // standardization both carry equal weight.
        let mut g = SplitMix64::new(9);
        let samples: Vec<Vec<f64>> = (0..400)
            .map(|_| vec![1000.0 * g.next_unit(), 0.001 * g.next_unit()])
            .collect();
        let pca = Pca::fit(&samples);
        assert!((pca.explained_variance(1) - 0.5).abs() < 0.1);
    }
}
