//! The device parameter set consumed by the timing and power models.

use cubie_core::scalar::MmaGen;

/// GPU architecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// NVIDIA Volta (V100) — pre-dates the paper's Table 5 devices but
    /// anchors the mixed-precision accumulation-semantics axis (serial
    /// RZ truncating accumulate, subnormal outputs flushed).
    Volta,
    /// NVIDIA Ampere (A100).
    Ampere,
    /// NVIDIA Hopper (H100/H200).
    Hopper,
    /// NVIDIA Blackwell (B200).
    Blackwell,
}

impl Arch {
    /// The mixed-precision MMA accumulation semantics this generation's
    /// tensor cores implement (per the microbenchmark literature: Volta
    /// truncates serially; Ampere and everything after use the fused
    /// five-term round-to-nearest dot product).
    pub fn mma_gen(self) -> MmaGen {
        match self {
            Arch::Volta => MmaGen::Volta,
            Arch::Ampere | Arch::Hopper | Arch::Blackwell => MmaGen::Ampere,
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Arch::Volta => "Volta",
            Arch::Ampere => "Ampere",
            Arch::Hopper => "Hopper",
            Arch::Blackwell => "Blackwell",
        };
        f.write_str(s)
    }
}

/// Effective fraction of peak DRAM bandwidth achieved by each coalescing
/// class of the memory model (Section 9's roofline observes baselines that
/// "do not approximate the bandwidth limit" while MMU-adapted layouts
/// "approach the bandwidth limit more closely" — these factors are where
/// that shows up).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemEfficiency {
    /// Unit-stride aligned streams (MMU-regularized layouts).
    pub coalesced: f64,
    /// Strided / partially coalesced streams.
    pub strided: f64,
    /// Random gather/scatter streams (e.g. CSR column gathers).
    pub random: f64,
}

impl Default for MemEfficiency {
    fn default() -> Self {
        Self {
            coalesced: 0.88,
            strided: 0.45,
            random: 0.14,
        }
    }
}

/// Power-model parameters: `P(t) = idle + Σ pipe_power × pipe_util`,
/// clamped to the thermal design power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSpec {
    /// Idle board power in watts.
    pub idle_w: f64,
    /// Thermal design power in watts.
    pub tdp_w: f64,
    /// Dynamic power of the tensor-core pipe at full utilization.
    pub tc_pipe_w: f64,
    /// Dynamic power of the CUDA-core FP64 pipe at full utilization.
    pub cc_pipe_w: f64,
    /// Dynamic power of the memory system at full DRAM utilization.
    pub mem_w: f64,
    /// Exponential-moving-average time constant (seconds) applied to power
    /// traces, modelling sensor/thermal smoothing of NVML readings.
    pub smoothing_tau_s: f64,
}

/// Full device specification.
///
/// Peak throughputs are stored directly (they are the published numbers of
/// Table 5); per-SM, per-cycle quantities are derived so the wave model can
/// reason about occupancy.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"A100 (Ampere) PCIe"`.
    pub name: String,
    /// Architecture generation.
    pub arch: Arch,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Sustained SM clock in GHz.
    pub clock_ghz: f64,
    /// Peak FP64 tensor-core throughput in TFLOP/s.
    pub tc_fp64_tflops: f64,
    /// Peak FP64 CUDA-core throughput in TFLOP/s.
    pub cc_fp64_tflops: f64,
    /// Peak single-bit tensor-core throughput in Tbitop/s (AND+POPC
    /// multiply-accumulates per second / 1e12).
    pub tc_b1_tbitops: f64,
    /// Peak FP16 (f32-accumulate) tensor-core throughput in TFLOP/s
    /// (dense, no sparsity).
    pub tc_f16_tflops: f64,
    /// Peak BF16 (f32-accumulate) tensor-core throughput in TFLOP/s.
    pub tc_bf16_tflops: f64,
    /// Peak TF32 tensor-core throughput in TFLOP/s.
    pub tc_tf32_tflops: f64,
    /// Peak FP32 CUDA-core throughput in TFLOP/s (services the CC
    /// replacements of the mixed-precision MMAs).
    pub cc_fp32_tflops: f64,
    /// Peak 32-bit integer/logic throughput in Top/s.
    pub cc_int_tops: f64,
    /// Special-function (divide/sqrt/trig) throughput as a fraction of the
    /// FP64 CUDA-core rate.
    pub special_ratio: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_bw_gbs: f64,
    /// DRAM capacity in GB.
    pub dram_gb: f64,
    /// L2 cache bandwidth in GB/s (services blocked operand re-streaming).
    pub l2_bw_gbs: f64,
    /// Aggregate L1/shared-memory bandwidth in GB/s
    /// (`N_SM × N_LSU × W_access × f_clock`, as the paper's Figure 9
    /// caption defines).
    pub l1_bw_gbs: f64,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM in KiB.
    pub smem_per_sm_kib: u32,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Coalescing-class bandwidth efficiencies.
    pub mem_eff: MemEfficiency,
    /// Power-model parameters.
    pub power: PowerSpec,
}

impl DeviceSpec {
    /// Peak FP64 tensor-core FLOP/s.
    pub fn tc_fp64_flops(&self) -> f64 {
        self.tc_fp64_tflops * 1e12
    }

    /// Peak FP64 CUDA-core FLOP/s.
    pub fn cc_fp64_flops(&self) -> f64 {
        self.cc_fp64_tflops * 1e12
    }

    /// Peak bit-MMA bit-operations per second.
    pub fn tc_b1_bitops(&self) -> f64 {
        self.tc_b1_tbitops * 1e12
    }

    /// Peak FP16 tensor-core FLOP/s.
    pub fn tc_f16_flops(&self) -> f64 {
        self.tc_f16_tflops * 1e12
    }

    /// Peak BF16 tensor-core FLOP/s.
    pub fn tc_bf16_flops(&self) -> f64 {
        self.tc_bf16_tflops * 1e12
    }

    /// Peak TF32 tensor-core FLOP/s.
    pub fn tc_tf32_flops(&self) -> f64 {
        self.tc_tf32_tflops * 1e12
    }

    /// Peak FP32 CUDA-core FLOP/s.
    pub fn cc_fp32_flops(&self) -> f64 {
        self.cc_fp32_tflops * 1e12
    }

    /// The MMA accumulation semantics of this device's generation.
    pub fn mma_gen(&self) -> MmaGen {
        self.arch.mma_gen()
    }

    /// Peak integer operations per second.
    pub fn cc_int_ops(&self) -> f64 {
        self.cc_int_tops * 1e12
    }

    /// Peak DRAM bytes per second.
    pub fn dram_bytes_per_s(&self) -> f64 {
        self.dram_bw_gbs * 1e9
    }

    /// Peak L2 bytes per second.
    pub fn l2_bytes_per_s(&self) -> f64 {
        self.l2_bw_gbs * 1e9
    }

    /// Aggregate L1 bytes per second.
    pub fn l1_bytes_per_s(&self) -> f64 {
        self.l1_bw_gbs * 1e9
    }

    /// FP64 tensor-core FLOPs per SM per cycle (for occupancy reasoning).
    pub fn tc_fp64_flops_per_sm_cycle(&self) -> f64 {
        self.tc_fp64_flops() / (self.sm_count as f64 * self.clock_ghz * 1e9)
    }

    /// Ratio of tensor-core to CUDA-core FP64 peaks — 2.0 on Ampere and
    /// Hopper, 1.0 on Blackwell (the divergence Figure 12 highlights).
    pub fn tc_cc_ratio(&self) -> f64 {
        self.tc_fp64_tflops / self.cc_fp64_tflops
    }

    /// Launch overhead in seconds.
    pub fn launch_overhead_s(&self) -> f64 {
        self.launch_overhead_us * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use crate::presets::*;

    #[test]
    fn table5_peaks() {
        let a = a100();
        assert_eq!(a.tc_fp64_tflops, 19.5);
        assert_eq!(a.cc_fp64_tflops, 9.7);
        assert_eq!(a.dram_bw_gbs, 1555.0);
        let h = h200();
        assert_eq!(h.tc_fp64_tflops, 66.9);
        assert_eq!(h.cc_fp64_tflops, 33.5);
        assert_eq!(h.dram_bw_gbs, 4000.0);
        let b = b200();
        assert_eq!(b.tc_fp64_tflops, 40.0);
        assert_eq!(b.cc_fp64_tflops, 40.0);
        assert_eq!(b.dram_bw_gbs, 8000.0);
    }

    #[test]
    fn tc_cc_ratio_matches_paper() {
        assert!((a100().tc_cc_ratio() - 2.0).abs() < 0.05);
        assert!((h200().tc_cc_ratio() - 2.0).abs() < 0.05);
        assert!((b200().tc_cc_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_sm_cycle_rates_are_sane() {
        for d in all_devices() {
            let tc = d.tc_fp64_flops_per_sm_cycle();
            assert!(tc > 16.0 && tc < 1024.0, "{}: {}", d.name, tc);
        }
    }

    #[test]
    fn power_budget_fits_tdp() {
        for d in all_devices() {
            let p = &d.power;
            assert!(p.idle_w < p.tdp_w);
            // full TC + memory should be around (not wildly above) TDP —
            // the model clamps, but the budget should be deliberate.
            let full = p.idle_w + p.tc_pipe_w + p.mem_w;
            assert!(
                full <= p.tdp_w * 1.25,
                "{}: unclamped full power {} vs tdp {}",
                d.name,
                full,
                p.tdp_w
            );
        }
    }

    #[test]
    fn bandwidth_hierarchy() {
        for d in all_devices() {
            assert!(d.l1_bw_gbs > d.l2_bw_gbs, "{}", d.name);
            assert!(d.l2_bw_gbs > d.dram_bw_gbs, "{}", d.name);
        }
    }

    #[test]
    fn mem_efficiency_ordering() {
        for d in all_devices() {
            assert!(d.mem_eff.coalesced > d.mem_eff.strided);
            assert!(d.mem_eff.strided > d.mem_eff.random);
            assert!(d.mem_eff.coalesced <= 1.0);
        }
    }
}
