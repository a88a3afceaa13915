//! SM occupancy: how many warps can be resident, and how well they hide
//! pipeline and memory latency.
//!
//! Efficiency is modelled per pipe: a pipe saturates once enough warps
//! are resident on an SM to cover its dependent-issue latency — tensor
//! cores need only a handful of warps (each MMA occupies the pipe for
//! several cycles), FP64 CUDA cores need more, and the memory system the
//! most. Grids smaller than the device additionally idle whole SMs.

use cubie_device::DeviceSpec;

use crate::trace::KernelTrace;

/// Warps per SM needed to saturate the FP64 tensor-core (and bit-MMA)
/// pipe: each MMA occupies the pipe for ~4 cycles, so ~6 dependent-chain
/// warps keep it busy.
pub const TC_SATURATION_WARPS: f64 = 6.0;
/// Warps per SM needed to saturate the CUDA-core FP64/int pipes
/// (latency ÷ issue interval heuristic; ~16 of 64 slots).
pub const CC_SATURATION_WARPS: f64 = 16.0;
/// Warps per SM needed to saturate the memory system (memory latency is
/// longer, but requests queue; ~24 of 64 slots).
pub const MEM_SATURATION_WARPS: f64 = 24.0;

/// Occupancy of one kernel launch on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM (bounded by block slots, warp slots and
    /// shared memory).
    pub blocks_per_sm: u32,
    /// Warps resident per SM when an SM is fully fed.
    pub warps_per_sm: u32,
    /// Fraction of the device's maximum resident warps.
    pub fraction: f64,
    /// SMs that actually receive work.
    pub active_sms: f64,
    /// Warps active per *active* SM.
    pub warps_per_active_sm: f64,
}

impl Occupancy {
    /// Compute occupancy of `trace` on `device`.
    pub fn of(device: &DeviceSpec, trace: &KernelTrace) -> Self {
        let warps_per_block = trace.warps_per_block().max(1);
        let by_warps = (device.max_warps_per_sm / warps_per_block).max(1);
        let by_blocks = device.max_blocks_per_sm;
        let by_smem = if trace.smem_per_block == 0 {
            u32::MAX
        } else {
            ((device.smem_per_sm_kib * 1024) / trace.smem_per_block.max(1)).max(1)
        };
        let blocks_per_sm = by_warps.min(by_blocks).min(by_smem);
        let warps_per_sm = (blocks_per_sm * warps_per_block).min(device.max_warps_per_sm);
        let fraction = warps_per_sm as f64 / device.max_warps_per_sm as f64;

        // The hardware scheduler spreads blocks across SMs round-robin
        // before stacking them, so a grid of B blocks keeps min(B, SMs)
        // SMs busy.
        let sm_count = device.sm_count as f64;
        let active_sms = (trace.blocks as f64).min(sm_count).max(1.0);
        let warps_per_active_sm =
            (trace.total_warps() as f64 / active_sms).min(warps_per_sm as f64);
        Self {
            blocks_per_sm,
            warps_per_sm,
            fraction,
            active_sms,
            warps_per_active_sm,
        }
    }

    /// Fraction of device-wide pipe throughput achieved given a pipe's
    /// saturation threshold (warps per SM needed to keep it busy).
    pub fn pipe_efficiency(&self, device: &DeviceSpec, saturation_warps: f64) -> f64 {
        let sm_fraction = self.active_sms / device.sm_count as f64;
        sm_fraction * (self.warps_per_active_sm / saturation_warps).min(1.0)
    }

    /// Tensor-core / bit-MMA pipe efficiency.
    pub fn tc_efficiency(&self, device: &DeviceSpec) -> f64 {
        self.pipe_efficiency(device, TC_SATURATION_WARPS)
    }

    /// CUDA-core (FP64 and integer) pipe efficiency.
    pub fn cc_efficiency(&self, device: &DeviceSpec) -> f64 {
        self.pipe_efficiency(device, CC_SATURATION_WARPS)
    }

    /// Memory-system efficiency.
    pub fn memory_efficiency(&self, device: &DeviceSpec) -> f64 {
        self.pipe_efficiency(device, MEM_SATURATION_WARPS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::OpCounters;
    use cubie_device::h200;

    fn trace(blocks: u64, threads: u32, smem: u32) -> KernelTrace {
        KernelTrace::new("t", blocks, threads, smem, OpCounters::default(), 0.0)
    }

    #[test]
    fn big_grid_fills_device() {
        let d = h200();
        let o = Occupancy::of(&d, &trace(1_000_000, 256, 0));
        assert_eq!(o.warps_per_sm, d.max_warps_per_sm);
        assert!((o.fraction - 1.0).abs() < 1e-12);
        assert_eq!(o.active_sms, d.sm_count as f64);
        assert!((o.tc_efficiency(&d) - 1.0).abs() < 1e-12);
        assert!((o.cc_efficiency(&d) - 1.0).abs() < 1e-12);
        assert!((o.memory_efficiency(&d) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_block_uses_one_sm() {
        let d = h200();
        let o = Occupancy::of(&d, &trace(1, 256, 0));
        assert_eq!(o.active_sms, 1.0);
        assert_eq!(o.warps_per_active_sm, 8.0);
        // 8 warps saturate the TC pipe of that one SM but the device is
        // 1/132 utilized.
        let tc = o.tc_efficiency(&d);
        assert!((tc - 1.0 / 132.0).abs() < 1e-9, "tc eff {tc}");
        // The FP64 pipe needs 16 warps: half saturated.
        let cc = o.cc_efficiency(&d);
        assert!((cc - 0.5 / 132.0).abs() < 1e-9, "cc eff {cc}");
    }

    #[test]
    fn tc_saturates_before_cc_before_memory() {
        let d = h200();
        let o = Occupancy::of(&d, &trace((d.sm_count * 2) as u64, 128, 0));
        assert!(o.tc_efficiency(&d) >= o.cc_efficiency(&d));
        assert!(o.cc_efficiency(&d) >= o.memory_efficiency(&d));
    }

    #[test]
    fn smem_limits_blocks() {
        let d = h200();
        // 100 KiB smem per block → at most 2 blocks on a 228 KiB SM.
        let o = Occupancy::of(&d, &trace(100_000, 128, 100 * 1024));
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.warps_per_sm, 8);
    }

    #[test]
    fn warp_slots_limit_blocks() {
        let d = h200();
        // 1024-thread blocks = 32 warps: only 2 fit in 64 warp slots.
        let o = Occupancy::of(&d, &trace(100_000, 1024, 0));
        assert_eq!(o.blocks_per_sm, 2);
        assert_eq!(o.warps_per_sm, 64);
    }

    #[test]
    fn efficiencies_are_fractions() {
        let d = h200();
        for blocks in [1u64, 7, 130, 1000, 1 << 20] {
            let o = Occupancy::of(&d, &trace(blocks, 96, 2048));
            for e in [
                o.tc_efficiency(&d),
                o.cc_efficiency(&d),
                o.memory_efficiency(&d),
            ] {
                assert!((0.0..=1.0).contains(&e), "blocks {blocks}: eff {e}");
            }
        }
    }
}
