//! Pseudo-random number generation.
//!
//! The paper initializes floating-point inputs with "pseudo-random values
//! distributed within (-2, 2) using a linear congruential generator method,
//! following the LINPACK benchmark". [`LcgF64`] reproduces that generator.
//! [`SplitMix64`] is a fast general-purpose generator used where the paper
//! does not mandate a specific distribution (e.g. synthetic sparsity
//! patterns).

/// Lehmer / Park–Miller style linear congruential generator producing
/// `f64` values in `(-2, 2)`, after the LINPACK `matgen` convention used by
/// the paper for input initialization.
///
/// The recurrence is `x_{k+1} = (a * x_k) mod m` with the classic
/// "minimal standard" constants `a = 16807`, `m = 2^31 - 1`; the sample is
/// mapped linearly onto `(-2, 2)`.
#[derive(Debug, Clone)]
pub struct LcgF64 {
    state: u64,
}

const LCG_A: u64 = 16807;
const LCG_M: u64 = 0x7FFF_FFFF; // 2^31 - 1 (Mersenne prime)

impl LcgF64 {
    /// Create a generator from a seed. Seed 0 is remapped to 1 because 0 is
    /// a fixed point of the recurrence.
    pub fn new(seed: u64) -> Self {
        let s = seed % LCG_M;
        Self {
            state: if s == 0 { 1 } else { s },
        }
    }

    /// Next raw state in `[1, m)`.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        self.state = (self.state * LCG_A) % LCG_M;
        self.state
    }

    /// Next sample uniformly distributed in `(0, 1)`.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        self.next_raw() as f64 / LCG_M as f64
    }

    /// Next sample in `(-2, 2)` — the LINPACK-style input distribution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        4.0 * self.next_unit() - 2.0
    }

    /// Fill a slice with `(-2, 2)` samples.
    pub fn fill(&mut self, out: &mut [f64]) {
        for v in out.iter_mut() {
            *v = self.next_f64();
        }
    }

    /// Produce a vector of `n` samples in `(-2, 2)`.
    pub fn vec(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

/// SplitMix64: a tiny, high-quality 64-bit generator (public-domain
/// construction by Steele, Lea & Flood) for structural randomness such as
/// synthetic sparsity patterns and graph edges.
///
/// The state is a Weyl counter: every draw adds the constant γ, so draw
/// `k` depends only on `seed + k·γ`. [`SplitMix64::skip`] jumps there in
/// O(1), which lets a generator that takes a fixed number of draws per
/// item sample disjoint item ranges in parallel from one stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

/// The Weyl increment γ (the golden ratio in 64-bit fixed point).
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Create a generator from any 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The first `n` draws of `SplitMix64::new(seed)`: per-item seeds
    /// drawn up front, so items built in any order, on any worker, see
    /// the stream a serial loop would give them.
    pub fn seeds(seed: u64, n: usize) -> Vec<u64> {
        let mut g = SplitMix64::new(seed);
        (0..n).map(|_| g.next_u64()).collect()
    }

    /// Next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advance the stream by `k` draws without producing them: the
    /// generator then returns what it would after `k` calls of
    /// [`SplitMix64::next_u64`].
    #[inline]
    pub fn skip(&mut self, k: u64) {
        self.state = self.state.wrapping_add(k.wrapping_mul(SPLITMIX_GAMMA));
    }

    /// Uniform sample in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn next_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift range reduction (Lemire); bias is negligible for
        // the structural uses in this crate.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_range_is_open_interval() {
        let mut g = LcgF64::new(42);
        for _ in 0..10_000 {
            let v = g.next_f64();
            assert!(v > -2.0 && v < 2.0, "sample {v} out of (-2,2)");
        }
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = LcgF64::new(7);
        let mut b = LcgF64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn lcg_zero_seed_does_not_stick() {
        let mut g = LcgF64::new(0);
        let first = g.next_raw();
        let second = g.next_raw();
        assert_ne!(first, 0);
        assert_ne!(first, second);
    }

    #[test]
    fn lcg_mean_is_near_zero() {
        let mut g = LcgF64::new(123);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| g.next_f64()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
    }

    #[test]
    fn lcg_matches_lehmer_recurrence() {
        let mut g = LcgF64::new(1);
        assert_eq!(g.next_raw(), 16807);
        assert_eq!(g.next_raw(), 282_475_249);
    }

    #[test]
    fn splitmix_next_range_in_bounds() {
        let mut g = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = g.next_range(17);
            assert!(v < 17);
        }
    }

    #[test]
    fn splitmix_unit_in_bounds() {
        let mut g = SplitMix64::new(99);
        for _ in 0..10_000 {
            let v = g.next_unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn splitmix_skip_matches_repeated_draws() {
        // 0, 1, one R-MAT stream of m = 1000 edges at 12 levels
        // (2·levels draws per edge), and counts near the top of `u64`,
        // where `k·γ` wraps.
        let levels = 12u64;
        for k in [0u64, 1, 2 * levels * 1000] {
            let mut stepped = SplitMix64::new(0xC0FFEE);
            for _ in 0..k {
                stepped.next_u64();
            }
            let mut skipped = SplitMix64::new(0xC0FFEE);
            skipped.skip(k);
            assert_eq!(skipped.next_u64(), stepped.next_u64(), "k = {k}");
        }
        // Near `u64::MAX` stepping is impossible. Instead, `skip(MAX − j)`
        // then `j + 1` draws completes the 2^64-draw period of the Weyl
        // counter, so it must land back on the seed.
        for j in 0..4u64 {
            let mut g = SplitMix64::new(77);
            g.skip(u64::MAX - j);
            for _ in 0..=j {
                g.next_u64();
            }
            assert_eq!(g.state, 77, "j = {j}");
            assert_eq!(g.next_u64(), SplitMix64::new(77).next_u64());
        }
        // Skips compose: skip(a) then skip(b) equals skip(a + b).
        let mut a = SplitMix64::new(5);
        a.skip(u64::MAX / 3);
        a.skip(u64::MAX / 2);
        let mut b = SplitMix64::new(5);
        b.skip((u64::MAX / 3).wrapping_add(u64::MAX / 2));
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn splitmix_distinct_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
