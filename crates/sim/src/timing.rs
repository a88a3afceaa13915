//! The wave/roofline timing model.
//!
//! Each hardware pipe receives an aggregate service time for the whole
//! launch; pipes operate concurrently, so the execution time is the
//! maximum of the pipe times after degrading each pipe's throughput by a
//! latency-hiding factor derived from occupancy and grid fill. Launch
//! overhead is added per kernel.
//!
//! The pipes modelled:
//!
//! | pipe  | work                     | peak                       |
//! |-------|--------------------------|----------------------------|
//! | TC    | FP64 MMA FLOPs           | `tc_fp64_tflops`           |
//! | TC    | FP16/BF16/TF32 MMA FLOPs | `tc_{f16,bf16,tf32}_tflops`|
//! | CC    | FP64 CUDA-core FLOPs     | `cc_fp64_tflops`           |
//! | CC    | FP32 CUDA-core FLOPs     | `cc_fp32_tflops`           |
//! | INT   | integer/logic ops        | `cc_int_tops`              |
//! | B1    | bit-MMA bit operations   | `tc_b1_tbitops`            |
//! | LSU   | global+shared bytes      | `l1_bw_gbs`                |
//! | DRAM  | global bytes by class    | `dram_bw_gbs × class eff.` |
//!
//! Mixed-precision MMAs time-share the tensor-core pipe with FP64 MMAs
//! (their service times add), and their FP32-FMA CUDA-core replacements
//! share the CC pipe likewise; FP64-only traces are unaffected bit for
//! bit.

use cubie_core::OpCounters;
use cubie_device::DeviceSpec;

use crate::occupancy::Occupancy;
use crate::trace::{KernelTrace, WorkloadTrace};

/// Which pipe bounded a kernel's execution time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    /// FP64 tensor-core pipe.
    TensorCore,
    /// FP64 CUDA-core pipe.
    CudaCore,
    /// Integer/logic pipe.
    Int,
    /// Bit-MMA pipe.
    BitMma,
    /// L1 / shared-memory / load-store unit bandwidth.
    L1,
    /// L2 cache bandwidth.
    L2,
    /// DRAM bandwidth.
    Dram,
    /// Dependent-instruction latency chain (tiny kernels).
    Latency,
    /// Kernel-launch overhead (tiny kernels).
    Launch,
}

/// Per-pipe busy times for one launch, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipeTimes {
    /// FP64 tensor-core pipe time.
    pub tc: f64,
    /// FP64 CUDA-core pipe time.
    pub cc: f64,
    /// Integer pipe time.
    pub int: f64,
    /// Bit-MMA pipe time.
    pub b1: f64,
    /// Load/store (L1 + shared) time.
    pub lsu: f64,
    /// L2 re-streaming time.
    pub l2: f64,
    /// DRAM time.
    pub dram: f64,
}

impl PipeTimes {
    /// The busy time of the slowest pipe — the throughput bound on the
    /// launch's execution time.
    pub fn max(&self) -> f64 {
        self.tc
            .max(self.cc)
            .max(self.int)
            .max(self.b1)
            .max(self.lsu)
            .max(self.l2)
            .max(self.dram)
    }

    /// The busy time of the pipe `l` names (`Latency`/`Launch` have no
    /// pipe and return 0).
    pub fn of(&self, l: Limiter) -> f64 {
        match l {
            Limiter::TensorCore => self.tc,
            Limiter::CudaCore => self.cc,
            Limiter::Int => self.int,
            Limiter::BitMma => self.b1,
            Limiter::L1 => self.lsu,
            Limiter::L2 => self.l2,
            Limiter::Dram => self.dram,
            Limiter::Latency | Limiter::Launch => 0.0,
        }
    }

    /// Which pipe bounds this launch (ties resolved in pipe order).
    pub fn limiter(&self) -> Limiter {
        let m = self.max();
        if m == self.tc {
            Limiter::TensorCore
        } else if m == self.cc {
            Limiter::CudaCore
        } else if m == self.int {
            Limiter::Int
        } else if m == self.b1 {
            Limiter::BitMma
        } else if m == self.lsu {
            Limiter::L1
        } else if m == self.l2 {
            Limiter::L2
        } else {
            Limiter::Dram
        }
    }
}

/// Timing result for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// Total kernel time including launch overhead, seconds.
    pub time_s: f64,
    /// Execution (post-launch) time, seconds.
    pub exec_s: f64,
    /// Per-pipe busy times (occupancy-degraded; these bound `exec_s`).
    pub pipes: PipeTimes,
    /// Per-pipe *ideal* service times at full device peaks (no occupancy
    /// degradation) — the basis for device-wide utilization: a kernel
    /// keeping one SM busy for the whole execution utilizes 1/SMs of the
    /// device, not 100 % of it.
    pub ideal: PipeTimes,
    /// The limiting pipe.
    pub limiter: Limiter,
    /// Occupancy of the launch.
    pub occupancy: Occupancy,
}

impl KernelTiming {
    /// Device-wide utilization of the FP64 tensor-core pipe (work over
    /// peak capacity during execution).
    pub fn tc_util(&self) -> f64 {
        safe_div(self.ideal.tc, self.exec_s)
    }

    /// Device-wide utilization of the CUDA-core pipes (FP64 + integer;
    /// approximated by the larger of the two).
    pub fn cc_util(&self) -> f64 {
        safe_div(self.ideal.cc.max(self.ideal.int), self.exec_s)
    }

    /// Device-wide utilization of the bit-MMA pipe.
    pub fn b1_util(&self) -> f64 {
        safe_div(self.ideal.b1, self.exec_s)
    }

    /// Device-wide utilization of the DRAM interface.
    pub fn mem_util(&self) -> f64 {
        safe_div(self.ideal.dram, self.exec_s)
    }

    /// Device-wide utilization of the L1/LSU path.
    pub fn l1_util(&self) -> f64 {
        safe_div(self.ideal.lsu, self.exec_s)
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b <= 0.0 {
        0.0
    } else {
        (a / b).min(1.0)
    }
}

/// Time one kernel launch on `device`.
pub fn time_kernel(device: &DeviceSpec, trace: &KernelTrace) -> KernelTiming {
    let occ = Occupancy::of(device, trace);
    let eff = PipeEff {
        tc: occ.tc_efficiency(device).max(1e-4),
        cc: occ.cc_efficiency(device).max(1e-4),
        mem: occ.memory_efficiency(device).max(1e-4),
    };
    let pipes = pipe_times(device, &trace.ops, &eff);
    let ideal = pipe_times(
        device,
        &trace.ops,
        &PipeEff {
            tc: 1.0,
            cc: 1.0,
            mem: 1.0,
        },
    );
    // Latency floor: the longest dependent-instruction chain cannot be
    // hidden no matter the throughput (dominant for the single-block
    // Scan/Reduction cases of Quadrants II/III).
    let t_latency = trace.critical_cycles / (device.clock_ghz * 1e9);
    let exec = pipes.max().max(t_latency);
    let time = exec + device.launch_overhead_s();
    let limiter = if device.launch_overhead_s() > exec {
        Limiter::Launch
    } else if t_latency > pipes.max() {
        Limiter::Latency
    } else {
        pipes.limiter()
    };
    KernelTiming {
        time_s: time,
        exec_s: exec,
        pipes,
        ideal,
        limiter,
        occupancy: occ,
    }
}

/// Latency-hiding efficiencies per pipe family.
struct PipeEff {
    tc: f64,
    cc: f64,
    mem: f64,
}

fn pipe_times(device: &DeviceSpec, ops: &OpCounters, eff: &PipeEff) -> PipeTimes {
    let mut tc = ops.tc_flops() as f64 / (device.tc_fp64_flops() * eff.tc);
    // Mixed-precision MMAs share the tensor-core pipe but run at their own
    // per-format peaks. Each term is added only when its counter is live so
    // that FP64-only traces keep bit-identical pipe times (and a zero peak
    // on a hypothetical device cannot inject a 0/0 NaN).
    if ops.mma_f16 > 0 {
        tc += ops.tc_f16_flops() as f64 / (device.tc_f16_flops() * eff.tc);
    }
    if ops.mma_bf16 > 0 {
        tc += ops.tc_bf16_flops() as f64 / (device.tc_bf16_flops() * eff.tc);
    }
    if ops.mma_tf32 > 0 {
        tc += ops.tc_tf32_flops() as f64 / (device.tc_tf32_flops() * eff.tc);
    }
    let cc_flops =
        ops.cc_flops() as f64 + ops.special_f64 as f64 * (1.0 / device.special_ratio - 1.0);
    let mut cc = cc_flops / (device.cc_fp64_flops() * eff.cc);
    // FP32 FMAs (the CUDA-core replacements of mixed-precision MMAs) run
    // at the FP32 CUDA-core peak.
    if ops.fma_f32 > 0 {
        cc += ops.cc_f32_flops() as f64 / (device.cc_fp32_flops() * eff.cc);
    }
    let int = ops.int_ops as f64 / (device.cc_int_ops() * eff.cc);
    let b1 = (ops.mma_b1 * cubie_core::counters::MMA_B1_BITOPS) as f64
        / (device.tc_b1_bitops() * eff.tc);

    // LSU sees every global, L2 and shared byte once.
    let lsu_bytes = ops.gmem_bytes() + ops.l2_bytes + ops.smem_bytes;
    let lsu = lsu_bytes as f64 / (device.l1_bytes_per_s() * eff.cc);

    // L2 services blocked operand re-streaming.
    let l2 = ops.l2_bytes as f64 / (device.l2_bytes_per_s() * eff.mem);

    // DRAM time per coalescing class, with the memory latency-hiding
    // efficiency applied on top of the class efficiency.
    let e = device.mem_eff;
    let load = &ops.gmem_load;
    let store = &ops.gmem_store;
    let dram_bytes_eff = (load.coalesced + store.coalesced) as f64 / e.coalesced
        + (load.strided + store.strided) as f64 / e.strided
        + (load.random + store.random) as f64 / e.random;
    let dram = dram_bytes_eff / (device.dram_bytes_per_s() * eff.mem);

    PipeTimes {
        tc,
        cc,
        int,
        b1,
        lsu,
        l2,
        dram,
    }
}

/// Timing result for a whole workload (a sequence of launches).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTiming {
    /// Total time, seconds.
    pub total_s: f64,
    /// Per-launch timings.
    pub kernels: Vec<KernelTiming>,
    /// Sum of all operations.
    pub total_ops: OpCounters,
}

impl WorkloadTiming {
    /// Time-weighted average tensor-core utilization.
    pub fn tc_util(&self) -> f64 {
        self.weighted(|k| k.tc_util())
    }

    /// Time-weighted average CUDA-core utilization.
    pub fn cc_util(&self) -> f64 {
        self.weighted(|k| k.cc_util())
    }

    /// Time-weighted average bit-MMA utilization.
    pub fn b1_util(&self) -> f64 {
        self.weighted(|k| k.b1_util())
    }

    /// Time-weighted average DRAM utilization.
    pub fn mem_util(&self) -> f64 {
        self.weighted(|k| k.mem_util())
    }

    /// Time-weighted average L1 utilization.
    pub fn l1_util(&self) -> f64 {
        self.weighted(|k| k.l1_util())
    }

    /// Achieved FP64 GFLOP/s over the whole workload.
    pub fn gflops(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        self.total_ops.flops_f64() as f64 / self.total_s / 1e9
    }

    fn weighted(&self, f: impl Fn(&KernelTiming) -> f64) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        self.kernels
            .iter()
            .map(|k| f(k) * k.time_s / self.total_s)
            .sum()
    }
}

/// Time a workload: sequential launches, each paying launch overhead.
/// Simulation is profiled as the `time` phase, labelled
/// `workload/variant` (derived from the `workload-VARIANT-…` spelling of
/// the kernel labels).
pub fn time_workload(device: &DeviceSpec, trace: &WorkloadTrace) -> WorkloadTiming {
    let mut span = cubie_obs::span_with("time", || {
        let mut parts = trace
            .kernels
            .first()
            .map(|k| k.label.splitn(3, '-'))
            .into_iter()
            .flatten();
        match (parts.next(), parts.next()) {
            (Some(w), Some(v)) => format!("{w}/{v}"),
            _ => String::new(),
        }
    });
    span.add_items(trace.kernels.len() as u64);
    let kernels: Vec<KernelTiming> = trace
        .kernels
        .iter()
        .map(|k| time_kernel(device, k))
        .collect();
    let total_s = kernels.iter().map(|k| k.time_s).sum();
    WorkloadTiming {
        total_s,
        kernels,
        total_ops: trace.total_ops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::counters::MemTraffic;
    use cubie_device::{a100, b200, h200};

    /// A device-filling launch issuing `per_block` ops in each of 2^16
    /// blocks.
    fn big_launch(per_block: OpCounters) -> KernelTrace {
        let blocks = 1u64 << 16;
        KernelTrace::new("k", blocks, 256, 0, per_block.scaled(blocks), 0.0)
    }

    #[test]
    fn pure_mma_kernel_hits_tc_peak() {
        let d = h200();
        let t = big_launch(OpCounters {
            mma_f64: 1 << 14,
            ..Default::default()
        });
        let timing = time_kernel(&d, &t);
        assert_eq!(timing.limiter, Limiter::TensorCore);
        let flops = t.ops.tc_flops() as f64;
        let achieved = flops / timing.exec_s;
        assert!(
            (achieved / d.tc_fp64_flops() - 1.0).abs() < 0.01,
            "achieved {achieved:.3e} vs peak {:.3e}",
            d.tc_fp64_flops()
        );
    }

    #[test]
    fn cc_replacement_of_mma_takes_about_twice_as_long_on_h200() {
        let d = h200();
        let tc = big_launch(OpCounters {
            mma_f64: 4096,
            ..Default::default()
        });
        let cc = big_launch(OpCounters {
            fma_f64: 4096 * 256,
            ..Default::default()
        });
        let t_tc = time_kernel(&d, &tc).exec_s;
        let t_cc = time_kernel(&d, &cc).exec_s;
        let ratio = t_cc / t_tc;
        assert!(
            (ratio - d.tc_cc_ratio()).abs() < 0.05,
            "ratio {ratio} vs peak ratio {}",
            d.tc_cc_ratio()
        );
    }

    #[test]
    fn cc_equals_tc_on_b200() {
        let d = b200();
        let tc = big_launch(OpCounters {
            mma_f64: 4096,
            ..Default::default()
        });
        let cc = big_launch(OpCounters {
            fma_f64: 4096 * 256,
            ..Default::default()
        });
        let r = time_kernel(&d, &cc).exec_s / time_kernel(&d, &tc).exec_s;
        assert!((r - 1.0).abs() < 0.05);
    }

    #[test]
    fn memory_bound_kernel_scales_with_bandwidth() {
        let ops = OpCounters {
            fma_f64: 16,
            gmem_load: MemTraffic::coalesced(1 << 20),
            ..Default::default()
        };
        let t = big_launch(ops);
        let t_a = time_kernel(&a100(), &t);
        let t_b = time_kernel(&b200(), &t);
        assert_eq!(t_a.limiter, Limiter::Dram);
        // 8 TB/s vs 1.555 TB/s ⇒ ~5.1× faster execution.
        let r = t_a.exec_s / t_b.exec_s;
        assert!(r > 4.0 && r < 6.5, "ratio {r}");
    }

    #[test]
    fn random_access_is_slower_than_coalesced() {
        let d = h200();
        let co = big_launch(OpCounters {
            gmem_load: MemTraffic::coalesced(1 << 20),
            ..Default::default()
        });
        let ra = big_launch(OpCounters {
            gmem_load: MemTraffic::random(1 << 20),
            ..Default::default()
        });
        let r = time_kernel(&d, &ra).exec_s / time_kernel(&d, &co).exec_s;
        let expected = d.mem_eff.coalesced / d.mem_eff.random;
        assert!((r - expected).abs() / expected < 0.05, "ratio {r}");
    }

    #[test]
    fn tiny_kernel_is_launch_bound() {
        let d = h200();
        let t = KernelTrace::new(
            "tiny",
            1,
            32,
            0,
            OpCounters {
                mma_f64: 1,
                ..Default::default()
            },
            latency_chain(1),
        );
        let timing = time_kernel(&d, &t);
        assert_eq!(timing.limiter, Limiter::Launch);
        assert!(timing.time_s >= d.launch_overhead_s());
    }

    fn latency_chain(mmas: u64) -> f64 {
        mmas as f64 * crate::trace::latency::MMA_F64
    }

    #[test]
    fn latency_floor_binds_single_block_chains() {
        let d = h200();
        // A single block with a long dependent chain but little total
        // work: exec time must be the chain, not the pipe time.
        let t = KernelTrace::new(
            "chain",
            1,
            32,
            0,
            OpCounters {
                mma_f64: 10_000,
                ..Default::default()
            },
            latency_chain(10_000),
        );
        let timing = time_kernel(&d, &t);
        assert_eq!(timing.limiter, Limiter::Latency);
        let expected = 10_000.0 * crate::trace::latency::MMA_F64 / (d.clock_ghz * 1e9);
        assert!((timing.exec_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn more_work_never_reduces_time() {
        let d = a100();
        let mut last = 0.0;
        for k in [1u64, 2, 8, 64, 1024, 1 << 20] {
            let t = big_launch(OpCounters {
                mma_f64: k,
                gmem_load: MemTraffic::coalesced(k * 64),
                ..Default::default()
            });
            let s = time_kernel(&d, &t).time_s;
            assert!(s >= last, "time decreased: {s} < {last}");
            last = s;
        }
    }

    #[test]
    fn workload_sums_launches() {
        let d = h200();
        let k = big_launch(OpCounters {
            mma_f64: 1024,
            ..Default::default()
        });
        let w = WorkloadTrace {
            kernels: vec![k.clone(), k.clone(), k],
        };
        let wt = time_workload(&d, &w);
        assert_eq!(wt.kernels.len(), 3);
        let single = wt.kernels[0].time_s;
        assert!((wt.total_s - 3.0 * single).abs() < 1e-12);
    }

    #[test]
    fn utils_are_fractions() {
        let d = h200();
        let t = big_launch(OpCounters {
            mma_f64: 100,
            fma_f64: 100,
            int_ops: 100,
            gmem_load: MemTraffic::coalesced(1 << 16),
            smem_bytes: 1 << 14,
            ..Default::default()
        });
        let timing = time_kernel(&d, &t);
        for u in [
            timing.tc_util(),
            timing.cc_util(),
            timing.mem_util(),
            timing.l1_util(),
            timing.b1_util(),
        ] {
            assert!((0.0..=1.0).contains(&u), "util {u}");
        }
    }

    #[test]
    fn pure_f16_mma_kernel_hits_f16_peak() {
        let d = h200();
        let t = big_launch(OpCounters {
            mma_f16: 1 << 14,
            ..Default::default()
        });
        let timing = time_kernel(&d, &t);
        assert_eq!(timing.limiter, Limiter::TensorCore);
        let achieved = t.ops.tc_f16_flops() as f64 / timing.exec_s;
        assert!(
            (achieved / d.tc_f16_flops() - 1.0).abs() < 0.01,
            "achieved {achieved:.3e} vs peak {:.3e}",
            d.tc_f16_flops()
        );
    }

    #[test]
    fn f16_mma_outruns_fp64_mma_by_the_peak_ratio() {
        // Same MMA count, different format: the FP16 pipe on H200 is
        // 989.5/66.9 ≈ 14.8× the FP64 TC peak, but each FP16 m16n8k16
        // issues 4096 FLOPs vs 8192 for the FP64 16×16×16 — the time
        // ratio is (peak ratio) × (flop ratio).
        let d = h200();
        let f64_t = big_launch(OpCounters {
            mma_f64: 4096,
            ..Default::default()
        });
        let f16_t = big_launch(OpCounters {
            mma_f16: 4096,
            ..Default::default()
        });
        let r = time_kernel(&d, &f64_t).exec_s / time_kernel(&d, &f16_t).exec_s;
        let expected = (d.tc_f16_flops() / d.tc_fp64_flops())
            * (cubie_core::counters::MMA_F64_FLOPS as f64
                / cubie_core::counters::MMA_F16_FLOPS as f64);
        assert!((r - expected).abs() / expected < 0.01, "ratio {r}");
    }

    #[test]
    fn fp64_pipe_times_are_bit_identical_with_mixed_counters_zero() {
        // The mixed-precision terms must not perturb FP64-only timing
        // (this is what keeps every existing golden artifact stable).
        let d = a100();
        let t = big_launch(OpCounters {
            mma_f64: 977,
            fma_f64: 12345,
            int_ops: 999,
            gmem_load: MemTraffic::coalesced(1 << 18),
            smem_bytes: 1 << 12,
            ..Default::default()
        });
        let timing = time_kernel(&d, &t);
        assert_eq!(t.ops.mma_f16, 0);
        // Recompute the FP64 TC term exactly as the pre-mixed model did.
        let occ = crate::occupancy::Occupancy::of(&d, &t);
        let eff_tc = occ.tc_efficiency(&d).max(1e-4);
        let expected_tc = t.ops.tc_flops() as f64 / (d.tc_fp64_flops() * eff_tc);
        assert_eq!(timing.pipes.tc.to_bits(), expected_tc.to_bits());
    }

    #[test]
    fn mixed_mmas_add_onto_the_shared_tc_pipe() {
        let d = h200();
        let only_f64 = big_launch(OpCounters {
            mma_f64: 4096,
            ..Default::default()
        });
        let both = big_launch(OpCounters {
            mma_f64: 4096,
            mma_bf16: 4096,
            mma_tf32: 4096,
            ..Default::default()
        });
        let a = time_kernel(&d, &only_f64).pipes.tc;
        let b = time_kernel(&d, &both).pipes.tc;
        assert!(b > a, "shared pipe must accumulate: {b} vs {a}");
    }

    #[test]
    fn f32_fma_replacement_uses_fp32_peak() {
        let d = b200();
        let t = big_launch(OpCounters {
            fma_f32: 1 << 16,
            ..Default::default()
        });
        let timing = time_kernel(&d, &t);
        assert_eq!(timing.limiter, Limiter::CudaCore);
        let achieved = t.ops.cc_f32_flops() as f64 / timing.exec_s;
        assert!(
            (achieved / d.cc_fp32_flops() - 1.0).abs() < 0.01,
            "achieved {achieved:.3e} vs fp32 peak {:.3e}",
            d.cc_fp32_flops()
        );
    }

    #[test]
    fn special_functions_cost_more_than_fma() {
        let d = h200();
        let fma = big_launch(OpCounters {
            add_f64: 1 << 22,
            ..Default::default()
        });
        let sp = big_launch(OpCounters {
            special_f64: 1 << 22,
            ..Default::default()
        });
        assert!(time_kernel(&d, &sp).exec_s > 2.0 * time_kernel(&d, &fma).exec_s);
    }
}
