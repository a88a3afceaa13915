//! **Segmented scan and reduction** — the throughput-regime form of the
//! Quadrant II/III kernels.
//!
//! Dakkak et al.'s TCU primitives are *segmented*: a large array is
//! divided into equal segments (their evaluation sweeps segment sizes),
//! each scanned/reduced independently — thousands of blocks in flight
//! rather than the paper's single-block 64–1024-element cases. This
//! module provides that form: one block per group of segments, the same
//! constant-operand MMA tile kernels inside, and throughput-oriented
//! traces (no latency floor — the device is saturated).

use cubie_core::counters::MemTraffic;
use cubie_core::{par, OpCounters};
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::{bytes_f64, Variant};
use crate::scan;

/// One segmented case: `segments` independent segments of `seg_len`
/// elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentedCase {
    /// Elements per segment.
    pub seg_len: usize,
    /// Number of segments.
    pub segments: usize,
}

impl SegmentedCase {
    /// Total elements.
    pub fn total(&self) -> usize {
        self.seg_len * self.segments
    }

    /// A Dakkak-style sweep: segment sizes 64–1024 over a fixed ~16M
    /// element array.
    pub fn sweep() -> Vec<SegmentedCase> {
        [64usize, 128, 256, 512, 1024]
            .map(|seg_len| SegmentedCase {
                seg_len,
                segments: (1 << 24) / seg_len,
            })
            .to_vec()
    }

    /// Case label.
    pub fn label(&self) -> String {
        format!("seg{}x{}", self.seg_len, self.segments)
    }
}

/// Deterministic input.
pub fn input(case: &SegmentedCase) -> Vec<f64> {
    cubie_core::LcgF64::new(0x5E6 + case.seg_len as u64).vec(case.total())
}

/// Serial reference: independent running sums per segment.
pub fn reference_scan(case: &SegmentedCase, x: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(x.len());
    for seg in x.chunks(case.seg_len) {
        let mut acc = 0.0f64;
        out.extend(seg.iter().map(|v| {
            acc += v;
            acc
        }));
    }
    out
}

/// Serial reference: per-segment sums.
pub fn reference_reduce(case: &SegmentedCase, x: &[f64]) -> Vec<f64> {
    x.chunks(case.seg_len)
        .map(|seg| seg.iter().sum::<f64>())
        .collect()
}

/// Functional segmented scan (every segment through the chosen
/// variant's in-segment kernel, in parallel).
pub fn run_scan(case: &SegmentedCase, x: &[f64], variant: Variant) -> (Vec<f64>, WorkloadTrace) {
    assert_eq!(x.len(), case.total());
    let per_seg: Vec<Vec<f64>> = par::par_map(case.segments, |s| {
        let lo = s * case.seg_len;
        scan::run(&x[lo..lo + case.seg_len], variant).0
    });
    (per_seg.concat(), trace_scan(case, variant))
}

/// Functional segmented reduction.
pub fn run_reduce(case: &SegmentedCase, x: &[f64], variant: Variant) -> (Vec<f64>, WorkloadTrace) {
    assert_eq!(x.len(), case.total());
    let sums: Vec<f64> = par::par_map(case.segments, |s| {
        let lo = s * case.seg_len;
        crate::reduction::run(&x[lo..lo + case.seg_len], variant).0
    });
    (sums, trace_reduce(case, variant))
}

/// Throughput trace of the segmented scan: one block per 8 segments, all
/// data streamed from DRAM, no inner benchmark loop.
pub fn trace_scan(case: &SegmentedCase, variant: Variant) -> WorkloadTrace {
    let n = case.total() as u64;
    let tiles_per_seg = case.seg_len.div_ceil(scan::TILE) as u64;
    let tiles = tiles_per_seg * case.segments as u64;
    let mut ops = OpCounters {
        gmem_load: MemTraffic::coalesced(bytes_f64(case.total())),
        gmem_store: MemTraffic::coalesced(bytes_f64(case.total())),
        smem_bytes: 2 * bytes_f64(case.total()),
        ..Default::default()
    };
    match variant {
        Variant::Tc => {
            ops.mma_f64 = 6 * tiles
                + if tiles_per_seg > 1 {
                    6 * case.segments as u64
                } else {
                    0
                };
            ops.cmem_bytes = 3 * bytes_f64(scan::TILE);
            ops.add_f64 = n.saturating_sub(scan::TILE as u64 * case.segments as u64);
        }
        Variant::Cc => {
            ops.fma_f64 = (6 * tiles
                + if tiles_per_seg > 1 {
                    6 * case.segments as u64
                } else {
                    0
                })
                * 256;
            ops.int_ops = ops.fma_f64;
            ops.add_f64 = n.saturating_sub(scan::TILE as u64 * case.segments as u64);
        }
        Variant::CcE => {
            ops.add_f64 = 2 * n;
            ops.int_ops = n; // lane shuffles
        }
        Variant::Baseline => {
            ops.add_f64 = 2 * n + case.segments as u64 * 16;
            ops.int_ops = 2 * n;
            ops.smem_bytes += bytes_f64(case.total());
        }
    }
    WorkloadTrace::single(KernelTrace::new(
        format!("segscan-{}-{}", variant.label(), case.label()),
        (case.segments as u64).div_ceil(8),
        256,
        (8 * case.seg_len * 8).min(96 * 1024) as u32,
        ops,
        0.0,
    ))
}

/// Throughput trace of the segmented reduction.
pub fn trace_reduce(case: &SegmentedCase, variant: Variant) -> WorkloadTrace {
    let n = case.total() as u64;
    let tiles = (case.seg_len.div_ceil(64) * case.segments) as u64;
    let mut ops = OpCounters {
        gmem_load: MemTraffic::coalesced(bytes_f64(case.total())),
        gmem_store: MemTraffic::coalesced(bytes_f64(case.segments)),
        smem_bytes: bytes_f64(case.total()),
        ..Default::default()
    };
    match variant {
        Variant::Tc => {
            ops.mma_f64 = 4 * tiles;
            ops.cmem_bytes = 2 * bytes_f64(64);
        }
        Variant::Cc => {
            ops.fma_f64 = 4 * tiles * 256;
            ops.int_ops = ops.fma_f64;
        }
        Variant::CcE => {
            ops.add_f64 = n;
            ops.int_ops = n / 2;
        }
        Variant::Baseline => {
            ops.add_f64 = n + case.segments as u64 * 8;
            ops.int_ops = n;
        }
    }
    WorkloadTrace::single(KernelTrace::new(
        format!("segreduce-{}-{}", variant.label(), case.label()),
        (case.segments as u64).div_ceil(8),
        256,
        (8 * case.seg_len * 8).min(96 * 1024) as u32,
        ops,
        0.0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;
    use cubie_device::h200;
    use cubie_sim::time_workload;

    fn small() -> SegmentedCase {
        SegmentedCase {
            seg_len: 128,
            segments: 40,
        }
    }

    #[test]
    fn segmented_scan_matches_reference() {
        let case = small();
        let x = input(&case);
        let gold = reference_scan(&case, &x);
        for v in Variant::ALL {
            let (y, _) = run_scan(&case, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-11, "{v}: {}", e.max);
        }
    }

    #[test]
    fn segmented_reduce_matches_reference() {
        let case = small();
        let x = input(&case);
        let gold = reference_reduce(&case, &x);
        for v in Variant::ALL {
            let (y, _) = run_reduce(&case, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-10, "{v}: {}", e.max);
        }
    }

    #[test]
    fn segments_are_independent() {
        let case = small();
        let mut x = input(&case);
        let (a, _) = run_scan(&case, &x, Variant::Tc);
        // Perturbing segment 3 must not affect segment 7.
        x[3 * 128 + 5] += 1.0;
        let (b, _) = run_scan(&case, &x, Variant::Tc);
        assert_eq!(
            &a[7 * 128..8 * 128],
            &b[7 * 128..8 * 128],
            "cross-segment contamination"
        );
        assert_ne!(&a[3 * 128..4 * 128], &b[3 * 128..4 * 128]);
    }

    #[test]
    fn throughput_regime_is_memory_bound() {
        // With millions of elements in flight the segmented kernels are
        // DRAM-bound and every variant converges toward the bandwidth
        // limit — the reason the paper evaluates the *latency* regime to
        // differentiate the compute units.
        let d = h200();
        let case = SegmentedCase {
            seg_len: 256,
            segments: 1 << 16,
        };
        let tc = time_workload(&d, &trace_scan(&case, Variant::Tc));
        let base = time_workload(&d, &trace_scan(&case, Variant::Baseline));
        let ratio = base.total_s / tc.total_s;
        assert!(
            (0.8..1.6).contains(&ratio),
            "segmented scan TC/baseline ratio {ratio:.2} should be near 1"
        );
        assert!(tc.mem_util() > 0.5, "DRAM should be the limiter");
    }

    #[test]
    fn sweep_covers_paper_segment_sizes() {
        let sweep = SegmentedCase::sweep();
        assert_eq!(sweep.len(), 5);
        assert!(sweep.iter().all(|c| c.total() == 1 << 24));
    }
}
