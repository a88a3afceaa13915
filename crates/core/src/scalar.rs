//! Mixed-precision scalar formats and bit-accurate rounding.
//!
//! Real tensor cores multiply reduced-precision operands (FP16 / BF16 /
//! TF32) and accumulate in FP32. Two microbenchmark studies cited in
//! PAPERS.md — "Accurate Models of NVIDIA Tensor Cores" (Khattak &
//! Mikaitis) and "An SMT Formalization of Mixed-Precision Matrix
//! Multiplication" — pin down the semantics bit-for-bit:
//!
//! * operand products are computed **exactly** (a product of two ≤ 11-bit
//!   significands needs ≤ 22 bits — no rounding before accumulation);
//! * Volta-generation units accumulate **serially**, truncating
//!   (round-toward-zero) after every addition and flushing subnormal step
//!   results to zero;
//! * Ampere-and-later units compute each `k = 4` slice as one **fused
//!   five-term dot product** (`c + a0·b0 + a1·b1 + a2·b2 + a3·b3`) with a
//!   single round-to-nearest-even at the end, subnormals supported;
//! * wider `k` (e.g. `m16n8k16`) chains those fused slices in ascending
//!   `k` order, rounding once per slice.
//!
//! This module provides the scalar formats ([`F16`], [`Bf16`], [`Tf32`]),
//! the rounding primitives ([`round_to_format`], [`exact_sum_round_f32`] —
//! a 768-bit fixed-point superaccumulator that makes the "single rounding"
//! above *exactly* single), and the per-generation accumulation step
//! ([`MmaGen::dot4_f32`]). [`Precision`] names the operand axis the sweep
//! engine exposes as `--filter precision=…`.

/// IEEE-754 rounding-direction attribute used by the MMA models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// Round to nearest, ties to even (`rn` in PTX).
    Nearest,
    /// Round toward zero / truncate (`rz` in PTX; Volta accumulators).
    Zero,
}

/// `2^e` as an exact `f64`, valid for `e` in `[-1074, 1023]`.
#[inline]
fn pow2(e: i32) -> f64 {
    debug_assert!((-1074..=1023).contains(&e));
    if e >= -1022 {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (e + 1074))
    }
}

/// `floor(log2(x))` for finite positive `x`, exact (reads the bits).
#[inline]
fn ilogb(x: f64) -> i32 {
    debug_assert!(x.is_finite() && x > 0.0);
    let bits = x.to_bits();
    let e = ((bits >> 52) & 0x7ff) as i32;
    if e == 0 {
        // Subnormal: value = frac · 2^-1074.
        let frac = bits & ((1u64 << 52) - 1);
        63 - frac.leading_zeros() as i32 - 1074
    } else {
        e - 1023
    }
}

/// Round an `f64` value to a binary floating-point format with `p`
/// significand bits, minimum normal exponent `emin` and maximum exponent
/// `emax`, in rounding direction `mode`. The result is returned as an
/// `f64` (every value of every format modeled here — including its
/// subnormals — is exactly representable in `f64`).
///
/// Overflow follows IEEE 754: round-to-nearest overflows to infinity,
/// round-toward-zero saturates at the format's largest finite value.
/// Signed zeros, infinities and NaN pass through.
pub fn round_to_format(v: f64, p: i32, emin: i32, emax: i32, mode: Round) -> f64 {
    if v.is_nan() || v.is_infinite() || v == 0.0 {
        return v;
    }
    let mag = v.abs();
    let e = ilogb(mag);
    // Exponent of the target format's ulp at this magnitude; the `emin`
    // clamp produces gradual underflow (subnormals) automatically.
    let quantum = (e - (p - 1)).max(emin - (p - 1));
    // Exact scaling (power of two, no overflow for the formats we model).
    let scaled = mag * pow2(-quantum);
    let rounded = match mode {
        Round::Nearest => scaled.round_ties_even(),
        Round::Zero => scaled.trunc(),
    };
    let result = rounded * pow2(quantum);
    let max_finite = (2.0 - pow2(1 - p)) * pow2(emax);
    let out = if result > max_finite {
        match mode {
            Round::Nearest => f64::INFINITY,
            Round::Zero => max_finite,
        }
    } else {
        result
    };
    if v < 0.0 {
        -out
    } else {
        out
    }
}

/// IEEE-754 binary16 (half precision): 1 sign, 5 exponent, 10 fraction
/// bits (`p = 11`, `emin = -14`, `emax = 15`). Stored as its bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F16(u16);

impl F16 {
    /// Significand bits (including the implicit bit).
    pub const P: i32 = 11;
    /// Minimum normal exponent.
    pub const EMIN: i32 = -14;
    /// Maximum exponent.
    pub const EMAX: i32 = 15;

    /// Convert from `f64` with round-to-nearest-even (the PTX `cvt.rn`
    /// default used when quantizing operands).
    pub fn from_f64_rn(v: f64) -> Self {
        Self::encode(round_to_format(
            v,
            Self::P,
            Self::EMIN,
            Self::EMAX,
            Round::Nearest,
        ))
    }

    /// Convert from `f64` with round-toward-zero (`cvt.rz`).
    pub fn from_f64_rz(v: f64) -> Self {
        Self::encode(round_to_format(
            v,
            Self::P,
            Self::EMIN,
            Self::EMAX,
            Round::Zero,
        ))
    }

    /// The raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Reconstruct from a raw bit pattern.
    pub const fn from_bits(bits: u16) -> Self {
        Self(bits)
    }

    /// The exactly-represented value as `f64`.
    pub fn to_f64(self) -> f64 {
        let sign = if self.0 >> 15 == 1 { -1.0 } else { 1.0 };
        let e = ((self.0 >> 10) & 0x1f) as i32;
        let frac = (self.0 & 0x3ff) as f64;
        match e {
            0 => sign * frac * pow2(Self::EMIN - (Self::P - 1)),
            0x1f => {
                if frac == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1024.0 + frac) * pow2(e - 15 - (Self::P - 1)),
        }
    }

    /// The exactly-represented value as `f32` (every f16 embeds exactly).
    pub fn to_f32(self) -> f32 {
        self.to_f64() as f32
    }

    /// Encode a value already representable in binary16 (or ±inf / NaN).
    fn encode(v: f64) -> Self {
        if v.is_nan() {
            return Self(0x7e00); // canonical quiet NaN
        }
        let sign = ((v.to_bits() >> 63) as u16) << 15;
        let mag = v.abs();
        if mag == 0.0 {
            return Self(sign);
        }
        if mag.is_infinite() {
            return Self(sign | 0x7c00);
        }
        let e = ilogb(mag);
        if e < Self::EMIN {
            // Subnormal: frac · 2^(EMIN - P + 1).
            let frac = (mag * pow2(-(Self::EMIN - (Self::P - 1)))) as u16;
            Self(sign | frac)
        } else {
            let m = (mag * pow2((Self::P - 1) - e)) as u64; // in [2^10, 2^11)
            Self(sign | (((e + 15) as u16) << 10) | ((m as u16) & 0x3ff))
        }
    }
}

/// bfloat16: 1 sign, 8 exponent, 7 fraction bits (`p = 8`, the `f32`
/// exponent range). Exactly the top 16 bits of an `f32` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bf16(u16);

impl Bf16 {
    /// Significand bits (including the implicit bit).
    pub const P: i32 = 8;
    /// Minimum normal exponent (same as `f32`).
    pub const EMIN: i32 = -126;
    /// Maximum exponent (same as `f32`).
    pub const EMAX: i32 = 127;

    /// Convert from `f64` with round-to-nearest-even.
    pub fn from_f64_rn(v: f64) -> Self {
        Self::encode(round_to_format(
            v,
            Self::P,
            Self::EMIN,
            Self::EMAX,
            Round::Nearest,
        ))
    }

    /// Convert from `f64` with round-toward-zero.
    pub fn from_f64_rz(v: f64) -> Self {
        Self::encode(round_to_format(
            v,
            Self::P,
            Self::EMIN,
            Self::EMAX,
            Round::Zero,
        ))
    }

    /// The raw bit pattern (the high half of the equivalent `f32`).
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Reconstruct from a raw bit pattern.
    pub const fn from_bits(bits: u16) -> Self {
        Self(bits)
    }

    /// The exactly-represented value as `f32`.
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// The exactly-represented value as `f64`.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    fn encode(v: f64) -> Self {
        if v.is_nan() {
            return Self(0x7fc0);
        }
        // `v` is already a bf16-representable value: its f32 pattern has
        // a zero low half.
        Self((((v as f32).to_bits()) >> 16) as u16)
    }
}

/// TF32: NVIDIA's tensor-float format — `f32` exponent range with an
/// 11-bit significand (`p = 11`). Stored as an `f32` bit pattern whose
/// low 13 fraction bits are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tf32(u32);

impl Tf32 {
    /// Significand bits (including the implicit bit).
    pub const P: i32 = 11;
    /// Minimum normal exponent (same as `f32`).
    pub const EMIN: i32 = -126;
    /// Maximum exponent (same as `f32`).
    pub const EMAX: i32 = 127;

    /// Convert from `f64` with round-to-nearest-even (the `cvt.rna` /
    /// `cvt.rn` conversion real TF32 pipelines apply to f32 operands).
    pub fn from_f64_rn(v: f64) -> Self {
        Self::encode(round_to_format(
            v,
            Self::P,
            Self::EMIN,
            Self::EMAX,
            Round::Nearest,
        ))
    }

    /// Convert from `f64` with round-toward-zero.
    pub fn from_f64_rz(v: f64) -> Self {
        Self::encode(round_to_format(
            v,
            Self::P,
            Self::EMIN,
            Self::EMAX,
            Round::Zero,
        ))
    }

    /// The raw `f32`-layout bit pattern (low 13 fraction bits zero).
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// Reconstruct from a raw bit pattern.
    pub const fn from_bits(bits: u32) -> Self {
        Self(bits)
    }

    /// The exactly-represented value as `f32`.
    pub const fn to_f32(self) -> f32 {
        f32::from_bits(self.0)
    }

    /// The exactly-represented value as `f64`.
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    fn encode(v: f64) -> Self {
        if v.is_nan() {
            return Self(0x7fc0_0000);
        }
        // An 11-bit-significand value's f32 pattern has zero low 13 bits.
        Self((v as f32).to_bits())
    }
}

/// The operand-precision axis of the MMA subsystem (and of `cubie sweep
/// --filter precision=…`). `F64` is the paper's native precision; the
/// reduced formats multiply in the named format and accumulate in `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// FP64 operands, FP64 accumulate (`m8n8k4`) — the paper's precision.
    F64,
    /// Binary16 operands, FP32 accumulate (`m16n8k16`).
    F16,
    /// bfloat16 operands, FP32 accumulate (`m16n8k16`).
    Bf16,
    /// TF32 operands, FP32 accumulate (`m16n8k8`).
    Tf32,
}

impl Precision {
    /// Every precision, sweep order.
    pub const ALL: [Precision; 4] = [
        Precision::F64,
        Precision::F16,
        Precision::Bf16,
        Precision::Tf32,
    ];

    /// Short lowercase label used in filters, sweep tables and artifacts.
    pub const fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F16 => "f16",
            Precision::Bf16 => "bf16",
            Precision::Tf32 => "tf32",
        }
    }

    /// Parse a filter token (accepts the common aliases).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "f64" | "fp64" | "double" => Some(Precision::F64),
            "f16" | "fp16" | "half" => Some(Precision::F16),
            "bf16" | "bfloat16" => Some(Precision::Bf16),
            "tf32" | "tensorfloat32" => Some(Precision::Tf32),
            _ => None,
        }
    }

    /// Bytes per stored operand element.
    pub const fn elem_bytes(self) -> u64 {
        match self {
            Precision::F64 => 8,
            Precision::F16 | Precision::Bf16 => 2,
            Precision::Tf32 => 4,
        }
    }

    /// Quantize an `f64` input to this operand format with
    /// round-to-nearest-even, returning the exactly-represented value.
    pub fn quantize(self, v: f64) -> f64 {
        match self {
            Precision::F64 => v,
            Precision::F16 => F16::from_f64_rn(v).to_f64(),
            Precision::Bf16 => Bf16::from_f64_rn(v).to_f64(),
            Precision::Tf32 => Tf32::from_f64_rn(v).to_f64(),
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Tensor-core generation, selecting the published accumulation semantics
/// ([module docs](self)). `cubie_device::Arch::mma_gen()` maps device
/// architectures onto this axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MmaGen {
    /// Volta-style: serial accumulation, round-toward-zero after every
    /// addition, subnormal step results flushed to zero.
    Volta,
    /// Ampere and later: fused five-term dot product per `k = 4` slice,
    /// one round-to-nearest-even per slice, subnormals preserved.
    Ampere,
}

impl MmaGen {
    /// One `k = 4` accumulation slice: fold the four exact products
    /// `prods` into the `f32` accumulator `c` with this generation's
    /// rounding/fusion semantics. Products must be exact `f64` values
    /// (guaranteed for all operand formats modeled here).
    pub fn dot4_f32(self, c: f32, prods: &[f64; 4]) -> f32 {
        match self {
            MmaGen::Volta => {
                let mut acc = c;
                for &p in prods {
                    acc = ftz_f32(exact_sum_round_f32(&[acc as f64, p], Round::Zero));
                }
                acc
            }
            MmaGen::Ampere => exact_sum_round_f32(
                &[c as f64, prods[0], prods[1], prods[2], prods[3]],
                Round::Nearest,
            ),
        }
    }
}

/// Flush an `f32` subnormal to (sign-preserving) zero — Volta accumulator
/// behavior per the tensor-core microbenchmark literature.
#[inline]
pub fn ftz_f32(v: f32) -> f32 {
    if v.is_subnormal() {
        if v.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        v
    }
}

// ---------------------------------------------------------------------
// Exact multi-term accumulation.
//
// A five-term dot product mixing an f32 accumulator (terms down to
// 2^-149) with exact operand products (bf16/tf32 products reach 2^256)
// spans far more than the 53 bits of an f64: summing in f64 and then
// rounding to f32 double-rounds. The superaccumulator below holds the sum
// in 768-bit two's-complement fixed point (bit 0 = 2^-448) so the final
// f32 rounding is the *only* rounding — exactly the single-rounding
// semantics the fused hardware dot product implements.
// ---------------------------------------------------------------------

const ACC_LIMBS: usize = 12;
const ACC_EXP_LO: i32 = -448;

/// 768-bit two's-complement fixed-point accumulator (little-endian
/// limbs, bit 0 weighs `2^-448`).
struct ExactAcc {
    limbs: [u64; ACC_LIMBS],
}

impl ExactAcc {
    fn new() -> Self {
        Self {
            limbs: [0; ACC_LIMBS],
        }
    }

    /// Add a finite `f64` term exactly.
    fn add(&mut self, t: f64) {
        if t == 0.0 {
            return;
        }
        let bits = t.to_bits();
        let neg = bits >> 63 == 1;
        let raw_e = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        let (man, e) = if raw_e == 0 {
            (frac, -1074)
        } else {
            (frac | (1 << 52), raw_e - 1075)
        };
        // The formats modeled keep every term comfortably inside the
        // accumulator's range (lowest mantissa bit ≥ 2^-350, magnitude
        // ≤ ~2^260 with sign-bit headroom to 2^319).
        debug_assert!(e >= ACC_EXP_LO, "term below accumulator range: {t}");
        debug_assert!(e + 53 < ACC_EXP_LO + (ACC_LIMBS as i32) * 64 - 8);
        let offset = (e - ACC_EXP_LO) as usize;
        let (limb, sh) = (offset / 64, offset % 64);
        let lo = man << sh;
        let hi = if sh == 0 { 0 } else { man >> (64 - sh) };
        if neg {
            self.sub_at(limb, lo, hi);
        } else {
            self.add_at(limb, lo, hi);
        }
    }

    fn add_at(&mut self, limb: usize, lo: u64, hi: u64) {
        let (s, mut carry) = self.limbs[limb].overflowing_add(lo);
        self.limbs[limb] = s;
        let mut extra = hi;
        let mut i = limb + 1;
        while i < ACC_LIMBS && (extra != 0 || carry) {
            let (s1, c1) = self.limbs[i].overflowing_add(extra);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            self.limbs[i] = s2;
            carry = c1 || c2;
            extra = 0;
            i += 1;
        }
    }

    fn sub_at(&mut self, limb: usize, lo: u64, hi: u64) {
        let (s, mut borrow) = self.limbs[limb].overflowing_sub(lo);
        self.limbs[limb] = s;
        let mut extra = hi;
        let mut i = limb + 1;
        while i < ACC_LIMBS && (extra != 0 || borrow) {
            let (s1, b1) = self.limbs[i].overflowing_sub(extra);
            let (s2, b2) = s1.overflowing_sub(borrow as u64);
            self.limbs[i] = s2;
            borrow = b1 || b2;
            extra = 0;
            i += 1;
        }
    }

    fn bit(mag: &[u64; ACC_LIMBS], i: usize) -> bool {
        (mag[i / 64] >> (i % 64)) & 1 == 1
    }

    fn any_bits_below(mag: &[u64; ACC_LIMBS], n: usize) -> bool {
        let (limb, sh) = (n / 64, n % 64);
        if mag[..limb].iter().any(|&l| l != 0) {
            return true;
        }
        sh != 0 && (mag[limb] & ((1u64 << sh) - 1)) != 0
    }

    /// Bits `lo..=hi` of the magnitude as an integer (`hi - lo < 63`).
    fn extract(mag: &[u64; ACC_LIMBS], lo: usize, hi: usize) -> u64 {
        let (limb, sh) = (lo / 64, lo % 64);
        let mut v = mag[limb] >> sh;
        if sh != 0 && limb + 1 < ACC_LIMBS {
            v |= mag[limb + 1] << (64 - sh);
        }
        v & ((1u64 << (hi - lo + 1)) - 1)
    }

    /// Round the exact sum to `f32` — the single rounding of the fused
    /// dot product. Overflow: RN → ±inf, RZ → ±`f32::MAX`.
    fn round(&self, mode: Round) -> f32 {
        let negative = self.limbs[ACC_LIMBS - 1] >> 63 == 1;
        let mut mag = self.limbs;
        if negative {
            let mut carry = true;
            for l in mag.iter_mut() {
                *l = !*l;
                if carry {
                    let (s, c) = l.overflowing_add(1);
                    *l = s;
                    carry = c;
                }
            }
        }
        let hb = match (0..ACC_LIMBS).rev().find(|&i| mag[i] != 0) {
            None => return 0.0,
            Some(i) => i * 64 + 63 - mag[i].leading_zeros() as usize,
        };
        let e = hb as i32 + ACC_EXP_LO;
        // f32 ulp exponent at this magnitude (gradual underflow below
        // 2^-126: quantum pinned at 2^-149).
        let quantum = (e - 23).max(-149);
        let shift = (quantum - ACC_EXP_LO) as usize; // always ≥ 299 > 0
        let mut mant = if hb >= shift {
            Self::extract(&mag, shift, hb)
        } else {
            0
        };
        let guard = Self::bit(&mag, shift - 1);
        let sticky = Self::any_bits_below(&mag, shift - 1);
        let mut quantum = quantum;
        if mode == Round::Nearest && guard && (sticky || mant & 1 == 1) {
            mant += 1;
        }
        if mant == 1 << 24 {
            mant >>= 1;
            quantum += 1;
        }
        let val = mant as f64 * pow2(quantum); // exact
        let r = if val > f32::MAX as f64 {
            match mode {
                Round::Nearest => f32::INFINITY,
                Round::Zero => f32::MAX,
            }
        } else {
            val as f32 // exact: val is an f32-representable value
        };
        if negative {
            -r
        } else {
            r
        }
    }
}

/// Sum `terms` exactly and round **once** to `f32` in direction `mode` —
/// the semantics of a hardware fused dot product. Terms must be exact
/// `f64` values (true for f32 accumulators and all operand products of
/// the formats modeled here). Special values follow IEEE addition: any
/// NaN → NaN, opposing infinities → NaN, an infinity dominates, and an
/// exactly-zero sum of zeros keeps the IEEE sign convention.
pub fn exact_sum_round_f32(terms: &[f64], mode: Round) -> f32 {
    if terms.iter().any(|t| t.is_nan()) {
        return f32::NAN;
    }
    let pos_inf = terms.contains(&f64::INFINITY);
    let neg_inf = terms.contains(&f64::NEG_INFINITY);
    match (pos_inf, neg_inf) {
        (true, true) => return f32::NAN,
        (true, false) => return f32::INFINITY,
        (false, true) => return f32::NEG_INFINITY,
        (false, false) => {}
    }
    if terms.iter().all(|&t| t == 0.0) {
        // Sum of signed zeros: -0 only when every addend is -0 (the
        // IEEE rule for RN and RZ alike); f64 addition reproduces it.
        let s: f64 = terms.iter().sum();
        return s as f32;
    }
    let mut acc = ExactAcc::new();
    for &t in terms {
        acc.add(t);
    }
    acc.round(mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_is_exact_at_boundaries() {
        assert_eq!(pow2(0), 1.0);
        assert_eq!(pow2(-1074), f64::from_bits(1));
        assert_eq!(pow2(1023), 2f64.powi(1023));
        assert_eq!(pow2(-149), 2f64.powi(-149));
    }

    #[test]
    fn ilogb_handles_subnormals() {
        assert_eq!(ilogb(1.0), 0);
        assert_eq!(ilogb(1.5), 0);
        assert_eq!(ilogb(2.0), 1);
        assert_eq!(ilogb(0.75), -1);
        assert_eq!(ilogb(f64::from_bits(1)), -1074);
        assert_eq!(ilogb(pow2(-1050)), -1050);
    }

    #[test]
    fn f16_known_encodings() {
        assert_eq!(F16::from_f64_rn(1.0).to_bits(), 0x3c00);
        assert_eq!(F16::from_f64_rn(-2.0).to_bits(), 0xc000);
        assert_eq!(F16::from_f64_rn(65504.0).to_bits(), 0x7bff);
        // 1 + 2^-10 is the smallest f16 above 1.
        assert_eq!(F16::from_f64_rn(1.0 + 2f64.powi(-10)).to_bits(), 0x3c01);
        // Smallest subnormal 2^-24.
        assert_eq!(F16::from_f64_rn(2f64.powi(-24)).to_bits(), 0x0001);
        // Half the smallest subnormal ties to even zero under RN and
        // truncates to zero under RZ.
        assert_eq!(F16::from_f64_rn(2f64.powi(-25)).to_bits(), 0x0000);
        assert_eq!(F16::from_f64_rz(2f64.powi(-25)).to_bits(), 0x0000);
        // Overflow: RN → inf, RZ → max finite.
        assert_eq!(F16::from_f64_rn(65520.0).to_bits(), 0x7c00);
        assert_eq!(F16::from_f64_rz(65520.0).to_bits(), 0x7bff);
        assert_eq!(F16::from_f64_rn(f64::NAN).to_bits(), 0x7e00);
        assert_eq!(F16::from_f64_rn(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn f16_roundtrips_every_bit_pattern() {
        for bits in 0..=u16::MAX {
            let v = F16::from_bits(bits).to_f64();
            if v.is_nan() {
                assert!(F16::from_f64_rn(v).to_f64().is_nan());
            } else {
                assert_eq!(
                    F16::from_f64_rn(v).to_bits(),
                    bits,
                    "f16 bits {bits:#06x} (value {v:e}) did not roundtrip"
                );
            }
        }
    }

    #[test]
    fn bf16_roundtrips_every_bit_pattern() {
        for bits in 0..=u16::MAX {
            let v = Bf16::from_bits(bits).to_f64();
            if v.is_nan() {
                assert!(Bf16::from_f64_rn(v).to_f64().is_nan());
            } else {
                assert_eq!(
                    Bf16::from_f64_rn(v).to_bits(),
                    bits,
                    "bf16 bits {bits:#06x} (value {v:e}) did not roundtrip"
                );
            }
        }
    }

    #[test]
    fn bf16_truncation_vs_nearest() {
        // 1 + 2^-7 is the bf16 ulp step at 1; 1 + 3·2^-9 is 0.75 ulp up.
        let v = 1.0 + 3.0 * 2f64.powi(-9);
        assert_eq!(Bf16::from_f64_rn(v).to_f64(), 1.0 + 2f64.powi(-7));
        assert_eq!(Bf16::from_f64_rz(v).to_f64(), 1.0);
    }

    #[test]
    fn tf32_keeps_eleven_significand_bits() {
        // 1 + 2^-10 survives; 1 + 2^-11 ties to even (1.0).
        assert_eq!(
            Tf32::from_f64_rn(1.0 + 2f64.powi(-10)).to_f64(),
            1.0 + 2f64.powi(-10)
        );
        assert_eq!(Tf32::from_f64_rn(1.0 + 2f64.powi(-11)).to_f64(), 1.0);
        assert_eq!(Tf32::from_f64_rz(1.0 + 2f64.powi(-11)).to_f64(), 1.0);
        // Low 13 fraction bits of the f32 pattern are always zero.
        let mut g = crate::rng::LcgF64::new(7);
        for _ in 0..1000 {
            let t = Tf32::from_f64_rn(g.next_f64());
            assert_eq!(t.to_bits() & 0x1fff, 0);
            // Idempotent: a tf32 value re-quantizes to itself.
            assert_eq!(Tf32::from_f64_rn(t.to_f64()).to_bits(), t.to_bits());
        }
    }

    #[test]
    fn precision_labels_parse() {
        for p in Precision::ALL {
            assert_eq!(Precision::parse(p.label()), Some(p));
        }
        assert_eq!(Precision::parse("fp16"), Some(Precision::F16));
        assert_eq!(Precision::parse("half"), Some(Precision::F16));
        assert_eq!(Precision::parse("nope"), None);
    }

    /// Independent oracle: for term sets whose exact sum is representable
    /// in f64 (small integer multiples of one quantum), f64 addition is
    /// exact and `round_to_format` to the f32 parameters gives the
    /// correctly-rounded answer through entirely separate code.
    #[test]
    fn superaccumulator_matches_independent_small_oracle() {
        let mut g = crate::rng::SplitMix64::new(0x5ca1ab1e);
        for _ in 0..2000 {
            let n = 2 + (g.next_u64() % 4) as usize;
            let terms: Vec<f64> = (0..n)
                .map(|_| {
                    let m = (g.next_u64() % 4096) as i64 - 2048; // |m| ≤ 2^11
                    let e = (g.next_u64() % 40) as i32 - 30;
                    m as f64 * pow2(e)
                })
                .collect();
            let exact: f64 = terms.iter().sum(); // ≤ 53 significant bits: exact
            for mode in [Round::Nearest, Round::Zero] {
                let want = round_to_format(exact, 24, -126, 127, mode) as f32;
                let got = exact_sum_round_f32(&terms, mode);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "terms {terms:?} mode {mode:?}: superacc {got:e} != oracle {want:e}"
                );
            }
        }
    }

    #[test]
    fn superaccumulator_survives_catastrophic_cancellation() {
        // f64-naive summation loses the small term; the exact path keeps it.
        let t = [2f64.powi(100), 2f64.powi(-100), -(2f64.powi(100))];
        assert_eq!(exact_sum_round_f32(&t, Round::Nearest), 2f32.powi(-100));
        assert_eq!(exact_sum_round_f32(&t, Round::Zero), 2f32.powi(-100));
        // Exact cancellation to zero is +0 under both modes.
        let z = exact_sum_round_f32(&[1.5, -1.5], Round::Zero);
        assert_eq!(z.to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn superaccumulator_subnormal_results_are_exact() {
        let v = 2f64.powi(-140); // f32 subnormal
        assert_eq!(exact_sum_round_f32(&[v], Round::Nearest), pow2(-140) as f32);
        // 2^-140 + 2^-160: RZ truncates the tail, RN rounds to nearest
        // multiple of 2^-149.
        let t = [2f64.powi(-140), 2f64.powi(-160)];
        assert_eq!(exact_sum_round_f32(&t, Round::Zero), pow2(-140) as f32);
        assert_eq!(exact_sum_round_f32(&t, Round::Nearest), pow2(-140) as f32);
        // Below half the smallest subnormal: rounds to zero.
        assert_eq!(exact_sum_round_f32(&[2f64.powi(-151)], Round::Nearest), 0.0);
        assert_eq!(
            exact_sum_round_f32(&[3.0 * 2f64.powi(-151)], Round::Nearest),
            pow2(-149) as f32
        );
        assert_eq!(
            exact_sum_round_f32(&[3.0 * 2f64.powi(-151)], Round::Zero),
            0.0
        );
    }

    #[test]
    fn superaccumulator_overflow_semantics() {
        let t = [3.0e38, 1.0e38];
        assert_eq!(exact_sum_round_f32(&t, Round::Nearest), f32::INFINITY);
        assert_eq!(exact_sum_round_f32(&t, Round::Zero), f32::MAX);
        let t = [-3.0e38, -1.0e38];
        assert_eq!(exact_sum_round_f32(&t, Round::Nearest), f32::NEG_INFINITY);
        assert_eq!(exact_sum_round_f32(&t, Round::Zero), -f32::MAX);
    }

    #[test]
    fn superaccumulator_special_values() {
        assert!(exact_sum_round_f32(&[f64::NAN, 1.0], Round::Nearest).is_nan());
        assert!(exact_sum_round_f32(&[f64::INFINITY, f64::NEG_INFINITY], Round::Nearest).is_nan());
        assert_eq!(
            exact_sum_round_f32(&[f64::INFINITY, -1e300], Round::Zero),
            f32::INFINITY
        );
        // Signed-zero rules.
        assert_eq!(
            exact_sum_round_f32(&[0.0, -0.0], Round::Zero).to_bits(),
            0.0f32.to_bits()
        );
        assert_eq!(
            exact_sum_round_f32(&[-0.0, -0.0], Round::Nearest).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn volta_step_truncates_where_ampere_rounds() {
        // c = 1, one product 5·2^-26 (5/8 of the f32 ulp at 1): RZ keeps
        // 1.0, the fused RN dot rounds up to 1 + 2^-23.
        let prods = [5.0 * 2f64.powi(-26), 0.0, 0.0, 0.0];
        assert_eq!(MmaGen::Volta.dot4_f32(1.0, &prods), 1.0);
        assert_eq!(MmaGen::Ampere.dot4_f32(1.0, &prods), 1.0 + 2f32.powi(-23));
    }

    #[test]
    fn volta_flushes_subnormal_steps_ampere_preserves() {
        let prods = [2f64.powi(-140), 0.0, 0.0, 0.0];
        assert_eq!(MmaGen::Volta.dot4_f32(0.0, &prods), 0.0);
        assert_eq!(MmaGen::Ampere.dot4_f32(0.0, &prods), pow2(-140) as f32);
    }

    #[test]
    fn ampere_fuses_ties_that_serial_rounding_loses() {
        // Exact sum 2^24 + 4 is representable; serial RN would stall at
        // 2^24 after the first tie (2^24 + 1 → 2^24).
        let prods = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(
            MmaGen::Ampere.dot4_f32(2f32.powi(24), &prods),
            2f32.powi(24) + 4.0
        );
        // Volta truncates every step: each +1 is dropped entirely.
        assert_eq!(MmaGen::Volta.dot4_f32(2f32.powi(24), &prods), 2f32.powi(24));
    }
}
