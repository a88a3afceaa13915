//! Preset device specifications for the three GPUs of Table 5 and the
//! peak-evolution series of Figure 12.

use crate::spec::{Arch, DeviceSpec, MemEfficiency, PowerSpec};

/// NVIDIA A100 PCIe 40 GB (Ampere) — Table 5 row 1.
pub fn a100() -> DeviceSpec {
    DeviceSpec {
        name: "A100 (Ampere) PCIe 40GB".to_string(),
        arch: Arch::Ampere,
        sm_count: 108,
        clock_ghz: 1.41,
        tc_fp64_tflops: 19.5,
        cc_fp64_tflops: 9.7,
        tc_b1_tbitops: 2496.0 / 2.0, // dense INT1 TOPS
        tc_f16_tflops: 312.0,        // dense, f32 accumulate
        tc_bf16_tflops: 312.0,
        tc_tf32_tflops: 156.0,
        cc_fp32_tflops: 19.5,
        cc_int_tops: 19.5,
        special_ratio: 0.25,
        dram_bw_gbs: 1555.0,
        dram_gb: 40.0,
        l2_bw_gbs: 5000.0,
        // N_SM × N_LSU × W_access × f_clock = 108 × 32 × 16 B × 1.41 GHz
        l1_bw_gbs: 108.0 * 32.0 * 16.0 * 1.41,
        max_warps_per_sm: 64,
        max_blocks_per_sm: 32,
        smem_per_sm_kib: 164,
        launch_overhead_us: 3.5,
        mem_eff: MemEfficiency::default(),
        power: PowerSpec {
            idle_w: 55.0,
            tdp_w: 250.0,
            tc_pipe_w: 120.0,
            cc_pipe_w: 95.0,
            mem_w: 90.0,
            smoothing_tau_s: 0.25,
        },
    }
}

/// NVIDIA H200 SXM 96 GB inside the GH200 platform (Hopper) — Table 5
/// row 2. The paper quotes a 750 W thermal design power for this module.
pub fn h200() -> DeviceSpec {
    DeviceSpec {
        name: "H200 (Hopper) SXM 96GB".to_string(),
        arch: Arch::Hopper,
        sm_count: 132,
        clock_ghz: 1.98,
        tc_fp64_tflops: 66.9,
        cc_fp64_tflops: 33.5,
        tc_b1_tbitops: 3958.0 / 2.0,
        tc_f16_tflops: 989.5, // dense, f32 accumulate
        tc_bf16_tflops: 989.5,
        tc_tf32_tflops: 494.7,
        cc_fp32_tflops: 67.0,
        cc_int_tops: 33.5,
        special_ratio: 0.25,
        dram_bw_gbs: 4000.0,
        dram_gb: 96.0,
        l2_bw_gbs: 9000.0,
        l1_bw_gbs: 132.0 * 32.0 * 16.0 * 1.98,
        max_warps_per_sm: 64,
        max_blocks_per_sm: 32,
        smem_per_sm_kib: 228,
        launch_overhead_us: 3.0,
        mem_eff: MemEfficiency::default(),
        power: PowerSpec {
            idle_w: 90.0,
            tdp_w: 750.0,
            tc_pipe_w: 360.0,
            cc_pipe_w: 280.0,
            mem_w: 290.0,
            smoothing_tau_s: 0.25,
        },
    }
}

/// NVIDIA B200 SXM 180 GB (Blackwell) — Table 5 row 3. FP64 tensor-core
/// and CUDA-core peaks converge at 40 TFLOP/s; memory bandwidth doubles
/// to 8 TB/s (why Quadrant IV stays competitive there, Section 6.1).
pub fn b200() -> DeviceSpec {
    DeviceSpec {
        name: "B200 (Blackwell) SXM 180GB".to_string(),
        arch: Arch::Blackwell,
        sm_count: 148,
        clock_ghz: 1.67,
        tc_fp64_tflops: 40.0,
        cc_fp64_tflops: 40.0,
        tc_b1_tbitops: 4500.0 / 2.0,
        tc_f16_tflops: 1800.0, // dense, f32 accumulate
        tc_bf16_tflops: 1800.0,
        tc_tf32_tflops: 900.0,
        cc_fp32_tflops: 80.0,
        cc_int_tops: 40.0,
        special_ratio: 0.25,
        dram_bw_gbs: 8000.0,
        dram_gb: 180.0,
        l2_bw_gbs: 16000.0,
        l1_bw_gbs: 148.0 * 32.0 * 16.0 * 1.67,
        max_warps_per_sm: 64,
        max_blocks_per_sm: 32,
        smem_per_sm_kib: 228,
        launch_overhead_us: 3.0,
        mem_eff: MemEfficiency::default(),
        power: PowerSpec {
            idle_w: 110.0,
            tdp_w: 1000.0,
            tc_pipe_w: 430.0,
            cc_pipe_w: 360.0,
            mem_w: 400.0,
            smoothing_tau_s: 0.25,
        },
    }
}

/// All three evaluation devices in Table 5 order.
pub fn all_devices() -> Vec<DeviceSpec> {
    vec![a100(), h200(), b200()]
}

/// The one Table 5 device whose name contains `query`, ignoring case
/// (`h200`, `H200` and `hopper` all find the H200). A query that matches
/// no device, or more than one (`sxm`, `0`), is an error naming the
/// matches. Every user-facing device selector resolves names here:
/// `--device`, `--filter device=` and `cubied`'s `advise`.
pub fn find_device(query: &str) -> Result<DeviceSpec, String> {
    let lower = query.to_ascii_lowercase();
    let mut matches: Vec<DeviceSpec> = all_devices()
        .into_iter()
        .filter(|d| !lower.is_empty() && d.name.to_ascii_lowercase().contains(&lower))
        .collect();
    match matches.len() {
        0 => Err(format!("unknown device `{query}` (a100|h200|b200)")),
        1 => Ok(matches.remove(0)),
        _ => {
            let names: Vec<&str> = matches.iter().map(|d| d.name.as_str()).collect();
            Err(format!(
                "ambiguous device `{query}`: matches {} (a100|h200|b200)",
                names.join(", ")
            ))
        }
    }
}

/// One generation's peak-throughput entry for Figure 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationPeaks {
    /// Architecture label.
    pub arch: &'static str,
    /// FP16 tensor-core peak, TFLOP/s.
    pub fp16_tc: f64,
    /// FP16 CUDA-core peak, TFLOP/s.
    pub fp16_cc: f64,
    /// FP64 tensor-core peak, TFLOP/s.
    pub fp64_tc: f64,
    /// FP64 CUDA-core peak, TFLOP/s.
    pub fp64_cc: f64,
}

/// Figure 12 data: peak throughput across NVIDIA's three latest
/// generations, contrasting the continued FP16 tensor-core scaling with
/// the FP64 tensor-core regression on Blackwell.
pub const PEAK_EVOLUTION: [GenerationPeaks; 3] = [
    GenerationPeaks {
        arch: "Ampere",
        fp16_tc: 312.0,
        fp16_cc: 78.0,
        fp64_tc: 19.5,
        fp64_cc: 9.7,
    },
    GenerationPeaks {
        arch: "Hopper",
        fp16_tc: 989.5,
        fp16_cc: 133.8,
        fp64_tc: 67.0,
        fp64_cc: 33.5,
    },
    GenerationPeaks {
        arch: "Blackwell",
        fp16_tc: 1800.0,
        fp16_cc: 80.0,
        fp64_tc: 30.0,
        fp64_cc: 40.0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_fp16_tc_scales_monotonically() {
        assert!(PEAK_EVOLUTION[0].fp16_tc < PEAK_EVOLUTION[1].fp16_tc);
        assert!(PEAK_EVOLUTION[1].fp16_tc < PEAK_EVOLUTION[2].fp16_tc);
    }

    #[test]
    fn fig12_fp64_tc_regresses_on_blackwell() {
        assert!(PEAK_EVOLUTION[1].fp64_tc > PEAK_EVOLUTION[0].fp64_tc);
        assert!(
            PEAK_EVOLUTION[2].fp64_tc < PEAK_EVOLUTION[1].fp64_tc / 2.0,
            "paper: Blackwell FP64 TC is less than half of Hopper"
        );
    }

    #[test]
    fn find_device_matches_any_case_and_any_part_of_the_name() {
        for q in ["h200", "H200", "Hopper", "sxm 96"] {
            assert_eq!(find_device(q).unwrap().name, h200().name, "{q}");
        }
        assert_eq!(find_device("A100").unwrap().name, a100().name);
        assert_eq!(find_device("blackwell").unwrap().name, b200().name);
        for q in ["v100", ""] {
            let e = find_device(q).unwrap_err();
            assert!(e.contains(&format!("unknown device `{q}`")), "{e}");
        }
        for (q, names) in [
            ("x", vec![h200().name, b200().name]),
            ("sxm", vec![h200().name, b200().name]),
            ("0", vec![a100().name, h200().name, b200().name]),
        ] {
            let e = find_device(q).unwrap_err();
            assert!(e.contains(&format!("ambiguous device `{q}`")), "{e}");
            assert!(e.contains(&names.join(", ")), "{e}");
        }
    }

    #[test]
    fn presets_have_distinct_archs() {
        let devs = all_devices();
        assert_eq!(devs.len(), 3);
        assert_ne!(devs[0].arch, devs[1].arch);
        assert_ne!(devs[1].arch, devs[2].arch);
    }

    #[test]
    fn mixed_precision_peaks_match_fig12_series() {
        // The per-device FP16 TC peaks are the same published numbers the
        // Figure 12 evolution series plots — one source of truth per Table 5.
        for (d, g) in all_devices().iter().zip(PEAK_EVOLUTION) {
            assert_eq!(d.tc_f16_tflops, g.fp16_tc, "{}", d.name);
        }
    }

    #[test]
    fn mixed_precision_peak_ordering() {
        // FP16 ≥ BF16 > TF32 > FP64 TC on every evaluation device, and
        // every generation maps onto the fused-dot semantics.
        use cubie_core::scalar::MmaGen;
        for d in all_devices() {
            assert_eq!(d.tc_f16_tflops, d.tc_bf16_tflops, "{}", d.name);
            assert!(d.tc_bf16_tflops > d.tc_tf32_tflops, "{}", d.name);
            assert!(d.tc_tf32_tflops > d.tc_fp64_tflops, "{}", d.name);
            assert!(d.cc_fp32_tflops > 0.0, "{}", d.name);
            assert_eq!(d.mma_gen(), MmaGen::Ampere, "{}", d.name);
        }
        assert_eq!(Arch::Volta.mma_gen(), MmaGen::Volta);
    }

    #[test]
    fn bandwidth_doubles_each_generation() {
        let devs = all_devices();
        assert!(devs[1].dram_bw_gbs > 2.0 * devs[0].dram_bw_gbs);
        assert!(devs[2].dram_bw_gbs >= 2.0 * devs[1].dram_bw_gbs);
    }
}
