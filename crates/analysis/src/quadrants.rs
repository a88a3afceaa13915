//! The MMU utilization categorization of Figure 2.
//!
//! Each workload's MMA usage is summarized by two fractions: how much of
//! the *input* operand matrices must actually be loaded (constant
//! operands don't count — Quadrants II/III), and how much of the 8×8
//! *output* matrix carries meaningful results (diagonals and half-tiles
//! — Quadrants III/IV).

use cubie_kernels::Workload;

/// Input/output operand utilization of one workload's MMA pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// The workload.
    pub workload: Workload,
    /// Fraction of input operand elements loaded from memory (1.0 =
    /// both `A` and `B` are data; 0.5 = one operand is a constant).
    pub input: f64,
    /// Fraction of the 8×8 output used.
    pub output: f64,
    /// Which operand is reused across MMAs, per Figure 2's Quadrant I
    /// discussion.
    pub reuse: &'static str,
}

/// The Figure 2 utilization data for all ten workloads.
pub fn utilizations() -> Vec<Utilization> {
    use Workload::*;
    vec![
        Utilization {
            workload: Gemm,
            input: 1.0,
            output: 1.0,
            reuse: "C accumulates across k (inputs re-loaded)",
        },
        Utilization {
            workload: Pic,
            input: 1.0,
            output: 1.0,
            reuse: "B (push matrix) reused across substeps",
        },
        Utilization {
            workload: Fft,
            input: 1.0,
            output: 1.0,
            reuse: "A (twiddled DFT matrix) loaded once, reused across the batch",
        },
        Utilization {
            workload: Stencil,
            input: 1.0,
            output: 1.0,
            reuse: "B (band factors) resident in constant memory",
        },
        Utilization {
            workload: Scan,
            input: 0.5,
            output: 1.0,
            reuse: "constant U/L/O operands never loaded",
        },
        Utilization {
            workload: Reduction,
            input: 0.5,
            output: 1.0 / 64.0,
            reuse: "constant one-row/one-column operands",
        },
        Utilization {
            workload: Bfs,
            input: 1.0,
            output: 8.0 / 64.0,
            reuse: "B (frontier segment) reused across a band's slices",
        },
        Utilization {
            workload: Gemv,
            input: 1.0,
            output: 8.0 / 64.0,
            reuse: "x broadcast reused; diagonal extracted",
        },
        Utilization {
            workload: Spmv,
            input: 1.0,
            output: 8.0 / 64.0,
            reuse: "C accumulates across a bundle's steps; diagonal extracted",
        },
        Utilization {
            workload: Spgemm,
            input: 1.0,
            output: 0.5,
            reuse: "A block pair reused; diagonal quadrants kept",
        },
    ]
}

/// Utilization record of one workload.
pub fn utilization_of(w: Workload) -> Utilization {
    utilizations()
        .into_iter()
        .find(|u| u.workload == w)
        .expect("every workload has a utilization record")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_consistent_with_quadrants() {
        for u in utilizations() {
            let q = u.workload.spec().quadrant;
            assert_eq!(
                q.full_input(),
                u.input >= 1.0,
                "{:?}: quadrant {q} vs input {}",
                u.workload,
                u.input
            );
            assert_eq!(
                q.full_output(),
                u.output >= 1.0,
                "{:?}: quadrant {q} vs output {}",
                u.workload,
                u.output
            );
        }
    }

    #[test]
    fn every_workload_is_covered() {
        assert_eq!(utilizations().len(), 10);
        for w in Workload::ALL {
            let _ = utilization_of(w);
        }
    }

    #[test]
    fn quadrant_iv_diagonal_kernels_use_eighth_of_output() {
        for w in [Workload::Gemv, Workload::Spmv, Workload::Bfs] {
            assert!((utilization_of(w).output - 0.125).abs() < 1e-12);
        }
        // SpGEMM keeps half the tile — the "slightly higher utilization"
        // of Section 4.
        assert!(utilization_of(Workload::Spgemm).output > 0.125);
    }

    #[test]
    fn reduction_uses_least_output() {
        let min = utilizations()
            .into_iter()
            .min_by(|a, b| a.output.partial_cmp(&b.output).unwrap())
            .unwrap();
        assert_eq!(min.workload, Workload::Reduction);
    }
}
