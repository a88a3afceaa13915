//! Kernel and workload traces: the interface between the functional
//! kernels and the timing model.
//!
//! A [`KernelTrace`] records one launch: its geometry (blocks, threads,
//! shared memory — the occupancy inputs), the **total** operations the
//! launch issues, and the length of its longest dependent-instruction
//! chain. The latter matters for the paper's Scan/Reduction workloads
//! (Quadrants II/III), whose 64–1024-element cases run as a single thread
//! block and are latency-bound rather than throughput-bound.

use cubie_core::OpCounters;

/// Dependent-issue latencies, in cycles, used when kernels estimate their
/// critical path. Values follow published tensor-core microbenchmarks
/// (Sun et al., "Dissecting Tensor Cores via Microbenchmarks", cited by
/// the paper) and common CUDA latency tables.
pub mod latency {
    /// Back-to-back dependent FP64 `m8n8k4` MMA issue latency.
    pub const MMA_F64: f64 = 24.0;
    /// Dependent single-bit MMA latency.
    pub const MMA_B1: f64 = 16.0;
    /// Dependent FP64 FMA latency.
    pub const FMA_F64: f64 = 8.0;
    /// Warp shuffle latency (CUB-style scan/reduce rounds).
    pub const SHFL: f64 = 25.0;
    /// Shared-memory round trip.
    pub const SMEM_RT: f64 = 30.0;
    /// Global-memory round trip (L2 miss).
    pub const GMEM_RT: f64 = 450.0;
    /// Block-level barrier.
    pub const SYNC: f64 = 40.0;
}

/// One kernel launch: geometry plus total work plus critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Human-readable label (used in reports).
    pub label: String,
    /// Number of thread blocks.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Shared memory per block in bytes (occupancy limiter).
    pub smem_per_block: u32,
    /// Total operations issued by the launch.
    pub ops: OpCounters,
    /// Longest dependent-instruction chain, in cycles — the latency floor
    /// of the launch (dominant for tiny single-block kernels).
    pub critical_cycles: f64,
}

impl KernelTrace {
    /// Construct a trace.
    pub fn new(
        label: impl Into<String>,
        blocks: u64,
        threads_per_block: u32,
        smem_per_block: u32,
        ops: OpCounters,
        critical_cycles: f64,
    ) -> Self {
        Self {
            label: label.into(),
            blocks: blocks.max(1),
            threads_per_block,
            smem_per_block,
            ops,
            critical_cycles,
        }
    }

    /// Warps per block (threads rounded up to warp granularity).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block
            .div_ceil(cubie_core::WARP_SIZE as u32)
            .max(1)
    }

    /// Total warps in the launch.
    pub fn total_warps(&self) -> u64 {
        self.blocks * self.warps_per_block() as u64
    }
}

/// A complete workload execution: an ordered sequence of kernel launches
/// (BFS iterations, scan passes, …), each paying launch overhead.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadTrace {
    /// The launches, in execution order.
    pub kernels: Vec<KernelTrace>,
}

impl WorkloadTrace {
    /// A workload consisting of a single launch.
    pub fn single(kernel: KernelTrace) -> Self {
        Self {
            kernels: vec![kernel],
        }
    }

    /// Append a launch.
    pub fn push(&mut self, kernel: KernelTrace) {
        self.kernels.push(kernel);
    }

    /// Sum of all operations across all launches.
    pub fn total_ops(&self) -> OpCounters {
        self.kernels.iter().map(|k| k.ops).sum()
    }

    /// Number of launches.
    pub fn launches(&self) -> usize {
        self.kernels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::counters::MemTraffic;

    fn ops(mma: u64, bytes: u64) -> OpCounters {
        OpCounters {
            mma_f64: mma,
            gmem_load: MemTraffic::coalesced(bytes),
            ..Default::default()
        }
    }

    #[test]
    fn trace_geometry() {
        let t = KernelTrace::new("k", 10, 256, 0, ops(4, 128), 0.0);
        assert_eq!(t.warps_per_block(), 8);
        assert_eq!(t.total_warps(), 80);
        assert_eq!(t.ops.mma_f64, 4);
    }

    #[test]
    fn warps_round_up() {
        let t = KernelTrace::new("k", 1, 33, 0, OpCounters::default(), 0.0);
        assert_eq!(t.warps_per_block(), 2);
    }

    #[test]
    fn zero_blocks_clamped() {
        let t = KernelTrace::new("k", 0, 32, 0, OpCounters::default(), 0.0);
        assert_eq!(t.blocks, 1);
    }

    #[test]
    fn workload_accumulates_launches() {
        let mut w = WorkloadTrace::default();
        w.push(KernelTrace::new("a", 1, 32, 0, ops(1, 8), 0.0));
        w.push(KernelTrace::new("b", 1, 32, 0, ops(2, 8), 0.0));
        assert_eq!(w.launches(), 2);
        assert_eq!(w.total_ops().mma_f64, 3);
        assert_eq!(w.total_ops().gmem_bytes(), 16);
    }
}
