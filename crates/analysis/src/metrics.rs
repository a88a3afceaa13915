//! NCU-style architectural metric extraction (Figure 11).
//!
//! The paper collects "memory efficiency, compute throughput, and
//! instruction pipeline usage for FMA and tensor operations" with Nsight
//! Compute. Here the same family of metrics is derived from the simulated
//! pipe utilizations and operation mixes of a workload trace.

use std::sync::Arc;

use cubie_device::DeviceSpec;
use cubie_kernels::Workload;
use cubie_sim::{time_workload, WorkloadTrace};

/// Names of the metric dimensions, in [`ArchMetrics::values`] order.
pub const METRIC_NAMES: [&str; 8] = [
    "dram_util",
    "l1_util",
    "tensor_pipe_util",
    "fma_pipe_util",
    "log_arith_intensity",
    "tensor_op_fraction",
    "latency_bound_fraction",
    "constant_operand_fraction",
];

/// One workload's architectural metric vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchMetrics {
    /// Workload label, e.g. `"Cubie-SpMV"`.
    pub name: String,
    /// Suite the workload belongs to.
    pub suite: &'static str,
    /// Metric values in [`METRIC_NAMES`] order.
    pub values: Vec<f64>,
}

/// Extract the metric vector of a workload trace on a device.
pub fn metrics_of(
    name: impl Into<String>,
    suite: &'static str,
    device: &DeviceSpec,
    trace: &WorkloadTrace,
) -> ArchMetrics {
    let t = time_workload(device, trace);
    let ops = &t.total_ops;
    let ai = ops.arithmetic_intensity().unwrap_or(1e-3).max(1e-3).log10();
    let tensor_work = ops.tc_flops() as f64 + (ops.mma_b1 * 8192) as f64;
    let scalar_work = ops.cc_flops() as f64 + ops.int_ops as f64;
    let tensor_fraction = if tensor_work + scalar_work > 0.0 {
        tensor_work / (tensor_work + scalar_work)
    } else {
        0.0
    };
    // Fraction of the workload's time spent latency- or launch-bound —
    // the regime the small Quadrant II/III kernels live in.
    let latency_time: f64 = t
        .kernels
        .iter()
        .filter(|k| {
            matches!(
                k.limiter,
                cubie_sim::Limiter::Latency | cubie_sim::Limiter::Launch
            )
        })
        .map(|k| k.time_s)
        .sum();
    let latency_fraction = if t.total_s > 0.0 {
        latency_time / t.total_s
    } else {
        0.0
    };
    // Constant-operand residency (Quadrant II/III's defining trait).
    let mem_total = (ops.gmem_bytes() + ops.l2_bytes + ops.smem_bytes + ops.cmem_bytes) as f64;
    let constant_fraction = if mem_total > 0.0 {
        ops.cmem_bytes as f64 / mem_total
    } else {
        0.0
    };
    ArchMetrics {
        name: name.into(),
        suite,
        values: vec![
            t.mem_util(),
            t.l1_util(),
            t.tc_util().max(t.b1_util()),
            t.cc_util(),
            ai,
            tensor_fraction,
            latency_fraction,
            constant_fraction,
        ],
    }
}

/// The middle Table 2 case, which stands for its workload wherever one
/// case is read: its TC trace in Figure 11, Figures 7–9, O6/O8, the
/// FP64 extension, the advisor's input and `cubie run`'s default.
pub const REPRESENTATIVE_CASE: usize = 2;

/// Metric vectors of the Cubie workloads on `device`, one per
/// `(workload, trace)`: the TC trace of the workload's
/// [`REPRESENTATIVE_CASE`].
pub fn cubie_metrics(
    device: &DeviceSpec,
    tc_traces: &[(Workload, Arc<WorkloadTrace>)],
) -> Vec<ArchMetrics> {
    tc_traces
        .iter()
        .map(|(w, trace)| metrics_of(format!("Cubie-{}", w.spec().name), "Cubie", device, trace))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cubie_device::h200;
    use cubie_kernels::{gemm, prepare_cases, scan, Variant};

    /// Each workload's representative TC trace at the given scales,
    /// prepared and traced directly.
    pub(crate) fn representative_tc_traces(
        sparse_scale: usize,
        graph_scale: usize,
    ) -> Vec<(Workload, Arc<WorkloadTrace>)> {
        Workload::ALL
            .iter()
            .map(|&w| {
                let cases = prepare_cases(w, sparse_scale, graph_scale);
                let trace = cases[REPRESENTATIVE_CASE].trace(Variant::Tc).unwrap();
                (w, Arc::new(trace))
            })
            .collect()
    }

    #[test]
    fn gemm_tc_is_tensor_heavy() {
        let d = h200();
        let t = gemm::trace(&gemm::GemmCase::square(2048), Variant::Tc);
        let m = metrics_of("gemm", "test", &d, &t);
        assert_eq!(m.values.len(), METRIC_NAMES.len());
        let tensor_fraction = m.values[5];
        assert!(tensor_fraction > 0.9, "got {tensor_fraction}");
        let tc_util = m.values[2];
        assert!(tc_util > 0.5, "got {tc_util}");
    }

    #[test]
    fn baseline_has_zero_tensor_usage() {
        let d = h200();
        let t = gemm::trace(&gemm::GemmCase::square(1024), Variant::Baseline);
        let m = metrics_of("gemm-base", "test", &d, &t);
        assert_eq!(m.values[2], 0.0);
        assert_eq!(m.values[5], 0.0);
    }

    #[test]
    fn scan_and_gemm_differ_substantially() {
        let d = h200();
        let a = metrics_of(
            "gemm",
            "t",
            &d,
            &gemm::trace(&gemm::GemmCase::square(2048), Variant::Tc),
        );
        let b = metrics_of(
            "scan",
            "t",
            &d,
            &scan::trace(&scan::ScanCase { n: 1024 }, Variant::Tc),
        );
        let dist: f64 = a
            .values
            .iter()
            .zip(&b.values)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.5, "distance {dist}");
    }

    #[test]
    fn cubie_metrics_cover_all_workloads() {
        let d = h200();
        let m = cubie_metrics(&d, &representative_tc_traces(64, 512));
        assert_eq!(m.len(), 10);
        for a in &m {
            assert!(a.values.iter().all(|v| v.is_finite()), "{}", a.name);
        }
    }
}
