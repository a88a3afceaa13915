//! Shared vocabulary of the workload implementations.

/// The algorithmic variants of Section 5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Vendor-library-style vector-unit algorithm.
    Baseline,
    /// Tensor-core (MMU) algorithm.
    Tc,
    /// CUDA-core MMA replacement: same algorithm, MMAs swapped for
    /// equivalent CUDA-core instruction sequences.
    Cc,
    /// CUDA-core essential replacement: only the mathematically necessary
    /// operations.
    CcE,
}

impl Variant {
    /// All four variants in the paper's order.
    pub const ALL: [Variant; 4] = [Variant::Baseline, Variant::Tc, Variant::Cc, Variant::CcE];

    /// Display label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Baseline => "Baseline",
            Variant::Tc => "TC",
            Variant::Cc => "CC",
            Variant::CcE => "CC-E",
        }
    }

    /// Parse a variant from its CLI/filter spelling (case-insensitive;
    /// `cce` and `cc-e` both name [`Variant::CcE`]).
    pub fn parse(s: &str) -> Option<Variant> {
        match s.to_ascii_lowercase().as_str() {
            "baseline" | "base" => Some(Variant::Baseline),
            "tc" => Some(Variant::Tc),
            "cc" => Some(Variant::Cc),
            "cce" | "cc-e" | "cc_e" => Some(Variant::CcE),
            _ => None,
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The four MMU utilization quadrants of Figure 2, classified by input
/// and output matrix utilization (full ● / partial ○).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quadrant {
    /// Full input, full output (GEMM, PiC, FFT, Stencil).
    I,
    /// Partial input (constant matrices), full output (Scan).
    II,
    /// Partial input, partial output (Reduction).
    III,
    /// Full input, partial output — diagonals/bit flags (BFS, GEMV, SpMV,
    /// SpGEMM).
    IV,
}

impl Quadrant {
    /// Whether the MMA *input* matrices are fully utilized.
    pub fn full_input(&self) -> bool {
        matches!(self, Quadrant::I | Quadrant::IV)
    }

    /// Whether the MMA *output* matrix is fully utilized.
    pub fn full_output(&self) -> bool {
        matches!(self, Quadrant::I | Quadrant::II)
    }

    /// Roman-numeral label.
    pub fn label(&self) -> &'static str {
        match self {
            Quadrant::I => "I",
            Quadrant::II => "II",
            Quadrant::III => "III",
            Quadrant::IV => "IV",
        }
    }
}

impl std::fmt::Display for Quadrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Bytes of `n` FP64 values.
#[inline]
pub const fn bytes_f64(n: usize) -> u64 {
    (n * 8) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::Tc.label(), "TC");
        assert_eq!(Variant::CcE.to_string(), "CC-E");
        assert_eq!(Variant::ALL.len(), 4);
    }

    #[test]
    fn quadrant_utilization_matrix() {
        assert!(Quadrant::I.full_input() && Quadrant::I.full_output());
        assert!(!Quadrant::II.full_input() && Quadrant::II.full_output());
        assert!(!Quadrant::III.full_input() && !Quadrant::III.full_output());
        assert!(Quadrant::IV.full_input() && !Quadrant::IV.full_output());
    }

    #[test]
    fn byte_helpers() {
        assert_eq!(bytes_f64(4), 32);
    }
}
