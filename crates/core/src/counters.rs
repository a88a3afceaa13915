//! Operation counters.
//!
//! Every Cubie kernel variant both *computes* its result and *counts* the
//! operations a GPU implementation would issue: tensor-core MMA
//! instructions, CUDA-core floating-point operations, and memory traffic by
//! coalescing class. The counters are the contract between the functional
//! kernels (`cubie-kernels`) and the timing/power/roofline models
//! (`cubie-sim`): a kernel's analytic `trace()` must produce exactly the
//! counters its functional `run()` records, which is enforced by
//! cross-crate tests.

use std::ops::{Add, AddAssign};

/// Global-memory traffic split by access regularity.
///
/// The coalescing class determines the effective fraction of DRAM bandwidth
/// an access stream achieves in the memory model: fully `coalesced` streams
/// approach peak bandwidth, `strided` streams waste part of each transaction
/// sector, and `random` (gather/scatter) streams pay close to one
/// transaction per element. Observation 8 of the paper — MMU-oriented data
/// layouts regularize memory access — shows up here as baseline kernels
/// recording `strided`/`random` bytes where TC kernels record `coalesced`
/// ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemTraffic {
    /// Bytes moved by fully coalesced (unit-stride, aligned) accesses.
    pub coalesced: u64,
    /// Bytes moved by strided or partially coalesced accesses.
    pub strided: u64,
    /// Bytes moved by random gather/scatter accesses.
    pub random: u64,
}

impl MemTraffic {
    /// A single fully coalesced stream of `bytes`.
    pub const fn coalesced(bytes: u64) -> Self {
        Self {
            coalesced: bytes,
            strided: 0,
            random: 0,
        }
    }

    /// A single strided stream of `bytes`.
    pub const fn strided(bytes: u64) -> Self {
        Self {
            coalesced: 0,
            strided: bytes,
            random: 0,
        }
    }

    /// A single random-access stream of `bytes`.
    pub const fn random(bytes: u64) -> Self {
        Self {
            coalesced: 0,
            strided: 0,
            random: bytes,
        }
    }

    /// Total bytes regardless of class.
    pub const fn total(&self) -> u64 {
        self.coalesced + self.strided + self.random
    }

    /// Scale all classes by an integer factor (used when expanding a
    /// per-block trace to a block group).
    pub const fn scaled(self, k: u64) -> Self {
        Self {
            coalesced: self.coalesced * k,
            strided: self.strided * k,
            random: self.random * k,
        }
    }
}

impl Add for MemTraffic {
    type Output = MemTraffic;
    fn add(self, rhs: Self) -> Self {
        Self {
            coalesced: self.coalesced + rhs.coalesced,
            strided: self.strided + rhs.strided,
            random: self.random + rhs.random,
        }
    }
}

impl AddAssign for MemTraffic {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// FLOPs performed by one FP64 `m8n8k4` MMA instruction
/// (8 × 8 × 4 fused multiply-adds, two FLOPs each).
pub const MMA_F64_FLOPS: u64 = 8 * 8 * 4 * 2;

/// Fused multiply-adds performed by one FP64 `m8n8k4` MMA instruction.
pub const MMA_F64_FMAS: u64 = 8 * 8 * 4;

/// Bit operations (AND + popcount-accumulate) represented by one single-bit
/// `m8n8k128` MMA instruction: 8 × 8 × 128 single-bit multiply-accumulates.
pub const MMA_B1_BITOPS: u64 = 8 * 8 * 128;

/// FLOPs performed by one FP16/BF16 `m16n8k16` MMA instruction
/// (16 × 8 × 16 fused multiply-adds, two FLOPs each).
pub const MMA_F16_FLOPS: u64 = 16 * 8 * 16 * 2;

/// Fused multiply-adds performed by one FP16/BF16 `m16n8k16` MMA.
pub const MMA_F16_FMAS: u64 = 16 * 8 * 16;

/// FLOPs performed by one TF32 `m16n8k8` MMA instruction
/// (16 × 8 × 8 fused multiply-adds, two FLOPs each).
pub const MMA_TF32_FLOPS: u64 = 16 * 8 * 8 * 2;

/// Fused multiply-adds performed by one TF32 `m16n8k8` MMA.
pub const MMA_TF32_FMAS: u64 = 16 * 8 * 8;

/// Counters for the operations a kernel issues.
///
/// All floating-point counts are in *operations* (an FMA counts as one
/// `fma_f64`, contributing two FLOPs); memory counts are in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// FP64 `m8n8k4` tensor-core MMA instructions issued (warp-wide).
    pub mma_f64: u64,
    /// Single-bit `m8n8k128` tensor-core MMA instructions issued.
    pub mma_b1: u64,
    /// FP16 `m16n8k16` tensor-core MMA instructions issued (f32
    /// accumulate).
    pub mma_f16: u64,
    /// BF16 `m16n8k16` tensor-core MMA instructions issued (f32
    /// accumulate).
    pub mma_bf16: u64,
    /// TF32 `m16n8k8` tensor-core MMA instructions issued (f32
    /// accumulate).
    pub mma_tf32: u64,
    /// CUDA-core FP64 fused multiply-adds.
    pub fma_f64: u64,
    /// CUDA-core FP32 fused multiply-adds (the CC replacements of the
    /// mixed-precision MMAs).
    pub fma_f32: u64,
    /// CUDA-core FP64 additions/subtractions.
    pub add_f64: u64,
    /// CUDA-core FP64 multiplications.
    pub mul_f64: u64,
    /// CUDA-core FP64 special-function operations (divide, sqrt, trig);
    /// modeled at reduced throughput.
    pub special_f64: u64,
    /// Integer / logic / predicate operations (BFS bitmap manipulation,
    /// index arithmetic that dominates a kernel, …).
    pub int_ops: u64,
    /// Global-memory load traffic by coalescing class.
    pub gmem_load: MemTraffic,
    /// Global-memory store traffic by coalescing class.
    pub gmem_store: MemTraffic,
    /// L2-serviced traffic in bytes: operand re-streaming with working
    /// sets that fit the last-level cache (blocked GEMM slab reloads,
    /// gathered vectors, reused sparse blocks).
    pub l2_bytes: u64,
    /// Shared-memory traffic in bytes (both directions).
    pub smem_bytes: u64,
    /// Constant-memory traffic in bytes (broadcast-cached; effectively
    /// free after first use — recorded for the utilization analysis).
    pub cmem_bytes: u64,
    /// Block-level barrier synchronizations.
    pub syncs: u64,
}

impl OpCounters {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// FP64 FLOPs executed on tensor cores.
    pub const fn tc_flops(&self) -> u64 {
        self.mma_f64 * MMA_F64_FLOPS
    }

    /// FP64 FLOPs executed on CUDA cores (FMA = 2 FLOPs).
    pub const fn cc_flops(&self) -> u64 {
        self.fma_f64 * 2 + self.add_f64 + self.mul_f64 + self.special_f64
    }

    /// FP16 (f32-accumulate) FLOPs executed on tensor cores.
    pub const fn tc_f16_flops(&self) -> u64 {
        self.mma_f16 * MMA_F16_FLOPS
    }

    /// BF16 (f32-accumulate) FLOPs executed on tensor cores.
    pub const fn tc_bf16_flops(&self) -> u64 {
        self.mma_bf16 * MMA_F16_FLOPS
    }

    /// TF32 (f32-accumulate) FLOPs executed on tensor cores.
    pub const fn tc_tf32_flops(&self) -> u64 {
        self.mma_tf32 * MMA_TF32_FLOPS
    }

    /// All mixed-precision tensor-core FLOPs (FP16 + BF16 + TF32).
    pub const fn tc_mixed_flops(&self) -> u64 {
        self.tc_f16_flops() + self.tc_bf16_flops() + self.tc_tf32_flops()
    }

    /// FP32 FLOPs executed on CUDA cores (FMA = 2 FLOPs) — the CC
    /// replacements of the mixed-precision MMAs.
    pub const fn cc_f32_flops(&self) -> u64 {
        self.fma_f32 * 2
    }

    /// Total FP64 FLOPs on either unit.
    pub const fn flops_f64(&self) -> u64 {
        self.tc_flops() + self.cc_flops()
    }

    /// Total global-memory bytes (loads + stores, all classes).
    pub const fn gmem_bytes(&self) -> u64 {
        self.gmem_load.total() + self.gmem_store.total()
    }

    /// Arithmetic intensity in FLOPs per global-memory byte. Returns
    /// `None` when no global traffic was recorded.
    pub fn arithmetic_intensity(&self) -> Option<f64> {
        let b = self.gmem_bytes();
        if b == 0 {
            None
        } else {
            Some(self.flops_f64() as f64 / b as f64)
        }
    }

    /// Cache-aware arithmetic intensity: FLOPs over the DRAM + L2 traffic
    /// (the memory-side levels of the paper's cache-aware roofline,
    /// Figure 9). Blocked kernels whose operand re-streaming is served by
    /// L2 land at their effective, not compulsory, intensity.
    pub fn cache_aware_intensity(&self) -> Option<f64> {
        let b = self.gmem_bytes() + self.l2_bytes;
        if b == 0 {
            None
        } else {
            Some(self.flops_f64() as f64 / b as f64)
        }
    }

    /// The FP64-era counters as an ordered `(name, value)` list, memory
    /// traffic flattened by coalescing class. This is the canonical
    /// export the golden-artifact layer serializes: **the 17-entry list
    /// and its order are frozen into the `cubie-golden/v1` schema** (the
    /// `trace_counters` snapshot's column set), so it must not change.
    /// Counters added later (the mixed-precision MMA axis) are exported
    /// separately via [`Self::mixed_named_counts`] and their own golden
    /// artifact.
    pub fn named_counts(&self) -> [(&'static str, u64); 17] {
        [
            ("mma_f64", self.mma_f64),
            ("mma_b1", self.mma_b1),
            ("fma_f64", self.fma_f64),
            ("add_f64", self.add_f64),
            ("mul_f64", self.mul_f64),
            ("special_f64", self.special_f64),
            ("int_ops", self.int_ops),
            ("gmem_load_coalesced", self.gmem_load.coalesced),
            ("gmem_load_strided", self.gmem_load.strided),
            ("gmem_load_random", self.gmem_load.random),
            ("gmem_store_coalesced", self.gmem_store.coalesced),
            ("gmem_store_strided", self.gmem_store.strided),
            ("gmem_store_random", self.gmem_store.random),
            ("l2_bytes", self.l2_bytes),
            ("smem_bytes", self.smem_bytes),
            ("cmem_bytes", self.cmem_bytes),
            ("syncs", self.syncs),
        ]
    }

    /// The mixed-precision counters as an ordered `(name, value)` list —
    /// the post-FP64 extension of [`Self::named_counts`], serialized by
    /// the `ext_precision_*` golden artifacts.
    pub fn mixed_named_counts(&self) -> [(&'static str, u64); 4] {
        [
            ("mma_f16", self.mma_f16),
            ("mma_bf16", self.mma_bf16),
            ("mma_tf32", self.mma_tf32),
            ("fma_f32", self.fma_f32),
        ]
    }

    /// Scale every counter by an integer factor.
    pub const fn scaled(self, k: u64) -> Self {
        Self {
            mma_f64: self.mma_f64 * k,
            mma_b1: self.mma_b1 * k,
            mma_f16: self.mma_f16 * k,
            mma_bf16: self.mma_bf16 * k,
            mma_tf32: self.mma_tf32 * k,
            fma_f64: self.fma_f64 * k,
            fma_f32: self.fma_f32 * k,
            add_f64: self.add_f64 * k,
            mul_f64: self.mul_f64 * k,
            special_f64: self.special_f64 * k,
            int_ops: self.int_ops * k,
            gmem_load: self.gmem_load.scaled(k),
            gmem_store: self.gmem_store.scaled(k),
            l2_bytes: self.l2_bytes * k,
            smem_bytes: self.smem_bytes * k,
            cmem_bytes: self.cmem_bytes * k,
            syncs: self.syncs * k,
        }
    }

    /// True when no operations were recorded.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

impl Add for OpCounters {
    type Output = OpCounters;
    fn add(self, rhs: Self) -> Self {
        Self {
            mma_f64: self.mma_f64 + rhs.mma_f64,
            mma_b1: self.mma_b1 + rhs.mma_b1,
            mma_f16: self.mma_f16 + rhs.mma_f16,
            mma_bf16: self.mma_bf16 + rhs.mma_bf16,
            mma_tf32: self.mma_tf32 + rhs.mma_tf32,
            fma_f64: self.fma_f64 + rhs.fma_f64,
            fma_f32: self.fma_f32 + rhs.fma_f32,
            add_f64: self.add_f64 + rhs.add_f64,
            mul_f64: self.mul_f64 + rhs.mul_f64,
            special_f64: self.special_f64 + rhs.special_f64,
            int_ops: self.int_ops + rhs.int_ops,
            gmem_load: self.gmem_load + rhs.gmem_load,
            gmem_store: self.gmem_store + rhs.gmem_store,
            l2_bytes: self.l2_bytes + rhs.l2_bytes,
            smem_bytes: self.smem_bytes + rhs.smem_bytes,
            cmem_bytes: self.cmem_bytes + rhs.cmem_bytes,
            syncs: self.syncs + rhs.syncs,
        }
    }
}

impl AddAssign for OpCounters {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for OpCounters {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mma_flop_constants() {
        assert_eq!(MMA_F64_FLOPS, 512);
        assert_eq!(MMA_F64_FMAS, 256);
        assert_eq!(MMA_B1_BITOPS, 8192);
        assert_eq!(MMA_F16_FLOPS, 4096);
        assert_eq!(MMA_F16_FMAS, 2048);
        assert_eq!(MMA_TF32_FLOPS, 2048);
        assert_eq!(MMA_TF32_FMAS, 1024);
    }

    #[test]
    fn mixed_flops_are_disjoint_from_fp64() {
        let c = OpCounters {
            mma_f64: 1,
            mma_f16: 2,
            mma_bf16: 3,
            mma_tf32: 4,
            fma_f32: 10,
            ..Default::default()
        };
        assert_eq!(c.tc_flops(), 512);
        assert_eq!(c.tc_f16_flops(), 8192);
        assert_eq!(c.tc_bf16_flops(), 12288);
        assert_eq!(c.tc_tf32_flops(), 8192);
        assert_eq!(c.tc_mixed_flops(), 28672);
        assert_eq!(c.cc_f32_flops(), 20);
        // FP64 totals are untouched by the mixed axis.
        assert_eq!(c.flops_f64(), 512);
    }

    #[test]
    fn named_counts_schema_is_frozen_and_mixed_extends_it() {
        // The 17-name list (and order) is part of cubie-golden/v1.
        let names: Vec<&str> = OpCounters::default()
            .named_counts()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(names.len(), 17);
        assert_eq!(names[0], "mma_f64");
        assert_eq!(names[16], "syncs");
        assert!(!names.contains(&"mma_f16"), "mixed counters must stay out");
        let mixed: Vec<&str> = OpCounters::default()
            .mixed_named_counts()
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(mixed, ["mma_f16", "mma_bf16", "mma_tf32", "fma_f32"]);
    }

    #[test]
    fn tc_and_cc_flops_are_disjoint() {
        let c = OpCounters {
            mma_f64: 2,
            fma_f64: 10,
            add_f64: 3,
            ..Default::default()
        };
        assert_eq!(c.tc_flops(), 1024);
        assert_eq!(c.cc_flops(), 23);
        assert_eq!(c.flops_f64(), 1047);
    }

    #[test]
    fn traffic_total_and_scale() {
        let t = MemTraffic {
            coalesced: 100,
            strided: 10,
            random: 1,
        };
        assert_eq!(t.total(), 111);
        assert_eq!(t.scaled(3).total(), 333);
    }

    #[test]
    fn counters_add_componentwise() {
        let a = OpCounters {
            mma_f64: 1,
            gmem_load: MemTraffic::coalesced(8),
            ..Default::default()
        };
        let b = OpCounters {
            mma_f64: 2,
            gmem_load: MemTraffic::random(4),
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.mma_f64, 3);
        assert_eq!(c.gmem_load.coalesced, 8);
        assert_eq!(c.gmem_load.random, 4);
        assert_eq!(c.gmem_bytes(), 12);
    }

    #[test]
    fn scaled_multiplies_everything() {
        let a = OpCounters {
            mma_f64: 2,
            fma_f64: 5,
            smem_bytes: 7,
            syncs: 1,
            ..Default::default()
        };
        let s = a.scaled(4);
        assert_eq!(s.mma_f64, 8);
        assert_eq!(s.fma_f64, 20);
        assert_eq!(s.smem_bytes, 28);
        assert_eq!(s.syncs, 4);
    }

    #[test]
    fn arithmetic_intensity() {
        let c = OpCounters {
            fma_f64: 8, // 16 flops
            gmem_load: MemTraffic::coalesced(32),
            ..Default::default()
        };
        assert_eq!(c.arithmetic_intensity(), Some(0.5));
        assert_eq!(OpCounters::default().arithmetic_intensity(), None);
    }

    #[test]
    fn sum_folds() {
        let total: OpCounters = (0..4)
            .map(|_| OpCounters {
                mma_b1: 1,
                ..Default::default()
            })
            .sum();
        assert_eq!(total.mma_b1, 4);
    }
}
