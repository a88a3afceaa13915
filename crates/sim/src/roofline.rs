//! The cache-aware roofline model of Figure 9.
//!
//! Ceilings: DRAM bandwidth, L1 bandwidth (`N_SM × N_LSU × W_access ×
//! f_clock`, as the figure caption defines), FP64 CUDA-core peak and FP64
//! tensor-core peak. Kernels are placed at
//! `(arithmetic intensity [FLOP/byte], achieved GFLOP/s)`.

use cubie_device::DeviceSpec;

use crate::timing::WorkloadTiming;

/// A kernel's placement in roofline space.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label, e.g. `"SpMV-TC"`.
    pub name: String,
    /// Arithmetic intensity, FLOPs per DRAM byte.
    pub ai: f64,
    /// Achieved performance, GFLOP/s.
    pub gflops: f64,
}

/// The roofline ceilings of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// Device name.
    pub device: String,
    /// DRAM bandwidth, GB/s.
    pub dram_bw_gbs: f64,
    /// L1 bandwidth, GB/s.
    pub l1_bw_gbs: f64,
    /// FP64 CUDA-core peak, GFLOP/s.
    pub cc_peak_gflops: f64,
    /// FP64 tensor-core peak, GFLOP/s.
    pub tc_peak_gflops: f64,
}

impl Roofline {
    /// Build the ceilings for `device`.
    pub fn of(device: &DeviceSpec) -> Self {
        Self {
            device: device.name.clone(),
            dram_bw_gbs: device.dram_bw_gbs,
            l1_bw_gbs: device.l1_bw_gbs,
            cc_peak_gflops: device.cc_fp64_tflops * 1e3,
            tc_peak_gflops: device.tc_fp64_tflops * 1e3,
        }
    }

    /// Attainable GFLOP/s at arithmetic intensity `ai` under the DRAM
    /// ceiling and the tensor-core compute ceiling.
    pub fn dram_bound(&self, ai: f64) -> f64 {
        (ai * self.dram_bw_gbs).min(self.tc_peak_gflops)
    }

    /// Place a measured workload in roofline space using the cache-aware
    /// intensity (FLOPs over total DRAM + L2 + shared traffic, as the
    /// paper's Figure 9 does). Returns `None` for workloads with no
    /// floating-point work or no traffic (BFS's bit kernels, which the
    /// paper also excludes).
    pub fn place(&self, name: impl Into<String>, timing: &WorkloadTiming) -> Option<RooflinePoint> {
        if timing.total_ops.flops_f64() == 0 {
            return None;
        }
        let ai = timing.total_ops.cache_aware_intensity()?;
        Some(RooflinePoint {
            name: name.into(),
            ai,
            gflops: timing.gflops(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::time_workload;
    use crate::trace::{KernelTrace, WorkloadTrace};
    use cubie_core::counters::MemTraffic;
    use cubie_core::OpCounters;
    use cubie_device::h200;

    #[test]
    fn ceilings_match_device() {
        let d = h200();
        let r = Roofline::of(&d);
        assert_eq!(r.tc_peak_gflops, 66_900.0);
        assert_eq!(r.cc_peak_gflops, 33_500.0);
        assert_eq!(r.dram_bw_gbs, 4000.0);
        assert!(r.l1_bw_gbs > r.dram_bw_gbs);
    }

    #[test]
    fn ridge_point_splits_regimes() {
        let r = Roofline::of(&h200());
        // Where the DRAM roof meets the tensor-core ceiling.
        let ridge = r.tc_peak_gflops / r.dram_bw_gbs;
        assert!(r.dram_bound(ridge * 0.5) < r.tc_peak_gflops);
        assert!((r.dram_bound(ridge * 2.0) - r.tc_peak_gflops).abs() < 1e-9);
    }

    #[test]
    fn measured_points_respect_the_roofline() {
        let d = h200();
        let r = Roofline::of(&d);
        for (mma, bytes) in [(1u64, 1u64 << 14), (64, 1 << 12), (1024, 1 << 10)] {
            let blocks = 1u64 << 16;
            let w = WorkloadTrace::single(KernelTrace::new(
                "k",
                blocks,
                256,
                0,
                OpCounters {
                    mma_f64: mma * blocks,
                    gmem_load: MemTraffic::coalesced(bytes * blocks),
                    ..Default::default()
                },
                0.0,
            ));
            let t = time_workload(&d, &w);
            let p = r.place("k", &t).unwrap();
            // Model can never beat the L1 roof or the compute ceiling.
            let l1_roof = (p.ai * r.l1_bw_gbs).min(r.tc_peak_gflops);
            assert!(p.gflops <= l1_roof * 1.001, "{p:?}");
        }
    }

    #[test]
    fn no_traffic_means_no_point() {
        let d = h200();
        let w = WorkloadTrace::single(KernelTrace::new(
            "bits",
            1024,
            256,
            0,
            OpCounters {
                mma_b1: 102_400,
                ..Default::default()
            },
            0.0,
        ));
        let t = time_workload(&d, &w);
        assert!(Roofline::of(&d).place("bits", &t).is_none());
    }
}
