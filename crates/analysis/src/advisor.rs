//! MMU-suitability advisor — the paper's Section 4 closes by asking
//! "whether MMU accelerability can be inferred from the original
//! algorithm or a CUDA core implementation before such transformations…
//! Our categorization provides a first step toward the algorithm level
//! reasoning about MMU suitability." This module implements that step on
//! top of the timing model: given the operation trace of an *existing
//! CUDA-core implementation* plus a description of how its arithmetic
//! would map onto MMA tiles, it predicts the tensor-core variant's
//! speedup and names the reason.

use cubie_device::DeviceSpec;
use cubie_kernels::{Quadrant, Variant, Workload};
use cubie_sim::{time_workload, Limiter, WorkloadTrace};

/// How the kernel's arithmetic would map onto MMA tiles — the knobs a
/// parallel-algorithm designer can usually estimate *before* writing the
/// tensor-core kernel (Observation 1's transformation, quantified).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmaMapping {
    /// Fraction of the CUDA-core FP64 work expressible as matrix
    /// multiply-accumulate (1.0 for GEMM; below 1 when element-wise
    /// fix-ups remain).
    pub mappable_fraction: f64,
    /// FLOP inflation of the MMA shape: padded tiles, replicated
    /// operands, discarded outputs (e.g. 8× for GEMV's replicated
    /// columns, 2 / output-utilization in general). ≥ 1.
    pub redundancy: f64,
    /// Fraction of the input operands that are constants and never load
    /// (Quadrant II/III: 0.5; otherwise 0).
    pub constant_input_fraction: f64,
    /// Fraction of the 8×8 MMA output that carries meaning (Figure 2's
    /// output utilization).
    pub output_utilization: f64,
    /// Fraction of the strided/random traffic the reorganized data
    /// layout converts to coalesced streams (Observation 8's lever).
    pub regularization: f64,
}

impl MmaMapping {
    /// The utilization quadrant this mapping lands in (Figure 2).
    pub fn quadrant(&self) -> Quadrant {
        let full_input = self.constant_input_fraction < 0.25;
        let full_output = self.output_utilization >= 0.99;
        match (full_input, full_output) {
            (true, true) => Quadrant::I,
            (false, true) => Quadrant::II,
            (false, false) => Quadrant::III,
            (true, false) => Quadrant::IV,
        }
    }
}

/// The advisor's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recommendation {
    /// Clear compute-side win: port to the MMU.
    StrongBenefit,
    /// Some benefit, mostly from layout regularization.
    ModestBenefit,
    /// Memory-bound either way: port only for the layout, not the FLOPs.
    MemoryBound,
    /// The MMA redundancy eats the gain: stay on vector units.
    NotWorthIt,
}

/// A full prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// Predicted TC-over-CC speedup.
    pub predicted_speedup: f64,
    /// Limiting pipe of the existing CUDA-core implementation.
    pub cc_limiter: Limiter,
    /// Limiting pipe of the predicted tensor-core implementation.
    pub tc_limiter: Limiter,
    /// Figure 2 quadrant of the proposed mapping.
    pub quadrant: Quadrant,
    /// The verdict.
    pub recommendation: Recommendation,
}

/// Build the hypothetical tensor-core trace implied by `mapping`.
fn transform(trace: &WorkloadTrace, mapping: &MmaMapping) -> WorkloadTrace {
    let mut out = trace.clone();
    for k in out.kernels.iter_mut() {
        let ops = &mut k.ops;
        let mappable_flops = (ops.cc_flops() as f64 * mapping.mappable_fraction) as u64;
        // Remove the mapped CUDA-core work proportionally…
        let keep = 1.0 - mapping.mappable_fraction;
        ops.fma_f64 = (ops.fma_f64 as f64 * keep) as u64;
        ops.add_f64 = (ops.add_f64 as f64 * keep) as u64;
        ops.mul_f64 = (ops.mul_f64 as f64 * keep) as u64;
        // …and reissue it as MMAs, inflated by the mapping redundancy.
        let mma_flops = (mappable_flops as f64 * mapping.redundancy) as u64;
        ops.mma_f64 += mma_flops / cubie_core::counters::MMA_F64_FLOPS;
        // Constant operands never load.
        let saved = (ops.gmem_load.coalesced as f64 * mapping.constant_input_fraction) as u64;
        ops.gmem_load.coalesced -= saved.min(ops.gmem_load.coalesced);
        // Layout regularization converts irregular classes to coalesced.
        let conv_s = (ops.gmem_load.strided as f64 * mapping.regularization) as u64;
        let conv_r = (ops.gmem_load.random as f64 * mapping.regularization) as u64;
        ops.gmem_load.strided -= conv_s;
        ops.gmem_load.random -= conv_r;
        ops.gmem_load.coalesced += conv_s + conv_r;
        let sconv_s = (ops.gmem_store.strided as f64 * mapping.regularization) as u64;
        let sconv_r = (ops.gmem_store.random as f64 * mapping.regularization) as u64;
        ops.gmem_store.strided -= sconv_s;
        ops.gmem_store.random -= sconv_r;
        ops.gmem_store.coalesced += sconv_s + sconv_r;
        // The MMA path sheds the operand-shuffle integer traffic the
        // CUDA-core version pays.
        ops.int_ops = (ops.int_ops as f64 * keep.max(0.2)) as u64;
        // MMA chains shorten the dependent path roughly 4× (one MMA per
        // four FMA levels).
        k.critical_cycles *= 0.5;
    }
    out
}

/// Predict the tensor-core benefit of porting the kernel whose CUDA-core
/// trace is `cc_trace` under the proposed `mapping`, on `device`.
pub fn advise(device: &DeviceSpec, cc_trace: &WorkloadTrace, mapping: &MmaMapping) -> Advice {
    assert!(
        mapping.redundancy >= 1.0,
        "redundancy is an inflation factor"
    );
    assert!((0.0..=1.0).contains(&mapping.mappable_fraction));
    let cc = time_workload(device, cc_trace);
    let tc_trace = transform(cc_trace, mapping);
    let tc = time_workload(device, &tc_trace);
    let speedup = cc.total_s / tc.total_s;
    let cc_limiter = dominant_limiter(&cc);
    let tc_limiter = dominant_limiter(&tc);

    let memory_bound = matches!(cc_limiter, Limiter::Dram | Limiter::L2)
        && matches!(tc_limiter, Limiter::Dram | Limiter::L2);
    let recommendation = if speedup >= 1.5 {
        Recommendation::StrongBenefit
    } else if speedup >= 1.05 {
        if memory_bound {
            Recommendation::MemoryBound
        } else {
            Recommendation::ModestBenefit
        }
    } else if memory_bound && speedup >= 0.95 {
        Recommendation::MemoryBound
    } else {
        Recommendation::NotWorthIt
    };
    Advice {
        predicted_speedup: speedup,
        cc_limiter,
        tc_limiter,
        quadrant: mapping.quadrant(),
        recommendation,
    }
}

fn dominant_limiter(t: &cubie_sim::WorkloadTiming) -> Limiter {
    // The limiter of the launch contributing the most time.
    t.kernels
        .iter()
        .max_by(|a, b| a.time_s.partial_cmp(&b.time_s).unwrap())
        .map(|k| k.limiter)
        .unwrap_or(Limiter::Launch)
}

/// The CUDA-core variant whose trace the advisor reads for a suite
/// workload, at [`REPRESENTATIVE_CASE`](crate::metrics::REPRESENTATIVE_CASE)
/// and under its [`reference_mapping`]: the essential implementation
/// where it is distinct (Quadrants II–IV), otherwise CC. `cubie advise`,
/// `cubied`'s `advise` and the advisor-validation artifact all read
/// this one choice.
pub fn source_variant(w: Workload) -> Variant {
    if w.spec().distinct_cce {
        Variant::CcE
    } else {
        Variant::Cc
    }
}

/// Ready-made mappings for the suite's own kernels (used by tests and
/// the CLI to sanity-check the advisor against the measured variants).
pub fn reference_mapping(w: Workload) -> MmaMapping {
    use cubie_kernels::Workload::*;
    match w {
        Gemm | Pic | Fft | Stencil => MmaMapping {
            mappable_fraction: 1.0,
            redundancy: 1.0,
            constant_input_fraction: 0.0,
            output_utilization: 1.0,
            regularization: 0.5,
        },
        Scan => MmaMapping {
            mappable_fraction: 1.0,
            redundancy: 8.0, // constant-matrix products over useful adds
            constant_input_fraction: 0.5,
            output_utilization: 1.0,
            regularization: 0.0,
        },
        Reduction => MmaMapping {
            mappable_fraction: 1.0,
            redundancy: 8.0,
            constant_input_fraction: 0.5,
            output_utilization: 1.0 / 64.0,
            regularization: 0.0,
        },
        Bfs => MmaMapping {
            mappable_fraction: 1.0,
            redundancy: 8.0,
            constant_input_fraction: 0.0,
            output_utilization: 0.125,
            regularization: 0.8,
        },
        Gemv | Spmv => MmaMapping {
            mappable_fraction: 1.0,
            redundancy: 8.0, // replicated columns / diagonal extraction
            constant_input_fraction: 0.0,
            output_utilization: 0.125,
            regularization: 0.9,
        },
        Spgemm => MmaMapping {
            mappable_fraction: 1.0,
            redundancy: 2.0, // half the 8×8 tile is useful
            constant_input_fraction: 0.0,
            output_utilization: 0.5,
            regularization: 0.8,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_device::{b200, h200};
    use cubie_kernels::{gemm, gemv, spmv};

    #[test]
    fn gemm_mapping_is_quadrant_i_and_strong_on_h200() {
        let d = h200();
        let cc = gemm::trace(&gemm::GemmCase::square(2048), Variant::Cc);
        let m = reference_mapping(Workload::Gemm);
        let a = advise(&d, &cc, &m);
        assert_eq!(a.quadrant, Quadrant::I);
        assert!(
            a.predicted_speedup > 1.5,
            "GEMM should be a strong TC win: {a:?}"
        );
        assert_eq!(a.recommendation, Recommendation::StrongBenefit);
    }

    #[test]
    fn gemm_on_blackwell_is_not_worth_porting() {
        // FP64 TC peak == CC peak on B200 (Figure 12's regression): the
        // advisor must see through it.
        let d = b200();
        let cc = gemm::trace(&gemm::GemmCase::square(2048), Variant::Cc);
        let a = advise(&d, &cc, &reference_mapping(Workload::Gemm));
        assert!(
            a.predicted_speedup < 1.5,
            "equal peaks leave little compute headroom: {a:?}"
        );
    }

    #[test]
    fn spmv_is_recognized_as_memory_bound() {
        let d = h200();
        let m = cubie_sparse::generators::bcsstk39_like(8);
        let cc = spmv::trace(&m, Variant::CcE);
        let a = advise(&d, &cc, &reference_mapping(Workload::Spmv));
        assert_eq!(a.quadrant, Quadrant::IV);
        assert!(
            matches!(
                a.recommendation,
                Recommendation::MemoryBound | Recommendation::ModestBenefit
            ),
            "{a:?}"
        );
    }

    #[test]
    fn advisor_prediction_tracks_measured_gemv_direction() {
        let d = h200();
        let case = gemv::GemvCase { m: 40_960, n: 16 };
        let cc_e = gemv::trace(&case, Variant::CcE);
        let a = advise(&d, &cc_e, &reference_mapping(Workload::Gemv));
        // The measured TC variant is within ~2× of the prediction.
        let measured_tc = cubie_sim::time_workload(&d, &gemv::trace(&case, Variant::Tc)).total_s;
        let measured_cce = cubie_sim::time_workload(&d, &cc_e).total_s;
        let actual = measured_cce / measured_tc;
        let ratio = a.predicted_speedup / actual;
        assert!(
            (0.4..2.5).contains(&ratio),
            "predicted {:.2} vs actual {:.2}",
            a.predicted_speedup,
            actual
        );
    }

    #[test]
    fn quadrant_classification_follows_figure_2() {
        assert_eq!(reference_mapping(Workload::Gemm).quadrant(), Quadrant::I);
        assert_eq!(reference_mapping(Workload::Scan).quadrant(), Quadrant::II);
        assert_eq!(
            reference_mapping(Workload::Reduction).quadrant(),
            Quadrant::III
        );
        assert_eq!(reference_mapping(Workload::Spmv).quadrant(), Quadrant::IV);
    }

    #[test]
    #[should_panic]
    fn rejects_deflating_redundancy() {
        let d = h200();
        let cc = gemm::trace(&gemm::GemmCase::square(256), Variant::Cc);
        let mut m = reference_mapping(Workload::Gemm);
        m.redundancy = 0.5;
        let _ = advise(&d, &cc, &m);
    }
}
