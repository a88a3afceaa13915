//! Minimal double-precision complex arithmetic for the FFT workload.

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// The additive identity.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };

    /// Construct from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// `e^{i theta}` — a point on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude (Euclidean norm).
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Multiply-accumulate: `self + a * b` using real FMA-style grouping
    /// (four real multiplies, as the tensor-core complex-GEMM mapping
    /// performs them).
    #[inline]
    pub fn mul_add(self, a: C64, b: C64) -> Self {
        Self {
            re: self.re + a.re * b.re - a.im * b.im,
            im: self.im + a.re * b.im + a.im * b.re,
        }
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        C64::new(self.re * rhs, self.im * rhs)
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_matches_definition() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -4.0);
        let c = a * b;
        assert_eq!(c, C64::new(11.0, 2.0));
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..16 {
            let z = C64::cis(k as f64 * 0.3);
            assert!((z.abs() - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn mul_add_matches_composed_ops() {
        let c = C64::new(1.0, 1.0);
        let a = C64::new(2.0, -1.0);
        let b = C64::new(0.5, 3.0);
        let fused = c.mul_add(a, b);
        let composed = c + a * b;
        assert!((fused.re - composed.re).abs() < 1e-15);
        assert!((fused.im - composed.im).abs() < 1e-15);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = C64::new(1.25, -0.5);
        let b = C64::new(-2.0, 0.75);
        let r = (a + b) - b;
        assert!((r.re - a.re).abs() < 1e-15 && (r.im - a.im).abs() < 1e-15);
    }
}
