//! The power and energy model (Figures 7 and 8).
//!
//! Power during kernel execution is modelled as idle power plus
//! per-pipe dynamic power weighted by pipe utilization, clamped at TDP:
//!
//! `P = idle + tc_w·util_tc + cc_w·util_cc + mem_w·util_mem  (≤ TDP)`
//!
//! The energy-delay product follows the paper's definition:
//! `EDP = average power × execution time²` (kernel-only window).

use cubie_device::DeviceSpec;

use crate::timing::WorkloadTiming;

/// Power/energy summary of one workload execution (or a loop thereof).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Average power over the kernel window, watts.
    pub avg_power_w: f64,
    /// Execution time of the measured window, seconds.
    pub time_s: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Energy-delay product, J·s (`avg power × time²`).
    pub edp: f64,
}

impl EnergyReport {
    /// The report as an ordered `(name, value)` list — the canonical
    /// export the golden-artifact layer serializes (Figure 7 columns).
    /// The order is part of the `cubie-golden/v1` schema; keep it stable.
    pub fn named_fields(&self) -> [(&'static str, f64); 4] {
        [
            ("avg_power_w", self.avg_power_w),
            ("time_s", self.time_s),
            ("energy_j", self.energy_j),
            ("edp", self.edp),
        ]
    }
}

/// Instantaneous steady-state power for a workload's utilization profile.
pub fn steady_power(device: &DeviceSpec, timing: &WorkloadTiming) -> f64 {
    let p = &device.power;
    let tc = timing.tc_util().max(timing.b1_util());
    let raw =
        p.idle_w + p.tc_pipe_w * tc + p.cc_pipe_w * timing.cc_util() + p.mem_w * timing.mem_util();
    raw.min(p.tdp_w)
}

/// Power/energy report for executing the workload `repeats` times
/// back-to-back (the paper executes each workload in a loop to capture
/// stable power, Figure 7's caption lists the per-workload repeat counts).
pub fn power_report(device: &DeviceSpec, timing: &WorkloadTiming, repeats: u64) -> EnergyReport {
    let time = timing.total_s * repeats as f64;
    let avg = steady_power(device, timing);
    EnergyReport {
        avg_power_w: avg,
        time_s: time,
        energy_j: avg * time,
        edp: avg * time * time,
    }
}

/// One sample of a power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Time since trace start, seconds.
    pub t_s: f64,
    /// Smoothed power reading, watts.
    pub power_w: f64,
}

/// Produce a power-versus-time trace for executing the workload in a loop
/// for `repeats` iterations, sampled every `dt_s` seconds, starting from
/// idle and smoothed with the device's EMA time constant — the shape of
/// the paper's Figure 8 curves (ramp from idle to a plateau, then decay).
///
/// The trace covers the kernel window plus one smoothing constant of
/// cool-down.
pub fn power_trace(
    device: &DeviceSpec,
    timing: &WorkloadTiming,
    repeats: u64,
    dt_s: f64,
) -> Vec<PowerSample> {
    assert!(dt_s > 0.0, "sample interval must be positive");
    let p = &device.power;
    let active = timing.total_s * repeats as f64;
    let tail = 3.0 * p.smoothing_tau_s;
    let total = active + tail;
    let target_active = steady_power(device, timing);
    let alpha = 1.0 - (-dt_s / p.smoothing_tau_s).exp();

    let n = (total / dt_s).ceil() as usize + 1;
    let mut out = Vec::with_capacity(n);
    let mut power = p.idle_w;
    for i in 0..n {
        let t = i as f64 * dt_s;
        let target = if t < active { target_active } else { p.idle_w };
        power += alpha * (target - power);
        out.push(PowerSample {
            t_s: t,
            power_w: power,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::time_workload;
    use crate::trace::{KernelTrace, WorkloadTrace};
    use cubie_core::counters::MemTraffic;
    use cubie_core::OpCounters;
    use cubie_device::h200;

    fn compute_workload(mma_per_block: u64) -> WorkloadTrace {
        let blocks = 1u64 << 16;
        WorkloadTrace::single(KernelTrace::new(
            "k",
            blocks,
            256,
            0,
            OpCounters {
                mma_f64: mma_per_block * blocks,
                ..Default::default()
            },
            0.0,
        ))
    }

    fn memory_workload() -> WorkloadTrace {
        let blocks = 1u64 << 16;
        WorkloadTrace::single(KernelTrace::new(
            "m",
            blocks,
            256,
            0,
            OpCounters {
                gmem_load: MemTraffic::coalesced(blocks << 16),
                ..Default::default()
            },
            0.0,
        ))
    }

    #[test]
    fn busy_tc_kernel_draws_high_power() {
        let d = h200();
        let t = time_workload(&d, &compute_workload(4096));
        let pw = steady_power(&d, &t);
        assert!(
            pw > 400.0,
            "Quadrant-I TC kernels should exceed 400 W on H200 (paper §7); got {pw}"
        );
        assert!(pw <= d.power.tdp_w);
    }

    #[test]
    fn idle_floor_is_respected() {
        let d = h200();
        let empty =
            WorkloadTrace::single(KernelTrace::new("e", 1, 32, 0, OpCounters::default(), 0.0));
        let t = time_workload(&d, &empty);
        let pw = steady_power(&d, &t);
        assert!(pw >= d.power.idle_w);
        assert!(pw < d.power.idle_w + 30.0);
    }

    #[test]
    fn edp_definition() {
        let d = h200();
        let t = time_workload(&d, &compute_workload(1024));
        let r = power_report(&d, &t, 10);
        assert!((r.edp - r.avg_power_w * r.time_s * r.time_s).abs() < 1e-9);
        assert!((r.energy_j - r.avg_power_w * r.time_s).abs() < 1e-9);
    }

    #[test]
    fn faster_same_power_means_lower_edp() {
        let d = h200();
        let fast = power_report(&d, &time_workload(&d, &compute_workload(1024)), 100);
        let slow = power_report(&d, &time_workload(&d, &compute_workload(4096)), 100);
        assert!(fast.time_s < slow.time_s);
        assert!(fast.edp < slow.edp);
    }

    #[test]
    fn trace_ramps_to_plateau_and_decays() {
        let d = h200();
        let t = time_workload(&d, &compute_workload(4096));
        // Enough repeats to reach the plateau.
        let repeats = (5.0 * d.power.smoothing_tau_s / t.total_s).ceil() as u64 + 1;
        let trace = power_trace(&d, &t, repeats, 0.05);
        let target = steady_power(&d, &t);
        let first = trace.first().unwrap().power_w;
        let peak = trace.iter().map(|s| s.power_w).fold(0.0, f64::max);
        let last = trace.last().unwrap().power_w;
        assert!(first < target * 0.6, "trace should start near idle");
        assert!(peak > target * 0.95, "trace should reach the plateau");
        assert!(last < target * 0.6, "trace should decay after the loop");
    }

    #[test]
    fn memory_bound_power_below_compute_bound_power() {
        let d = h200();
        let pm = steady_power(&d, &time_workload(&d, &memory_workload()));
        let pc = steady_power(&d, &time_workload(&d, &compute_workload(4096)));
        assert!(pm < pc, "memory-bound {pm} W vs compute-bound {pc} W");
    }
}
