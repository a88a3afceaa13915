//! Power and energy: the Figure 7/8 pipeline on one workload — run the
//! stencil's variants through the H200 power model, print an ASCII power
//! trace and the energy-delay products, and check Observation 6 on
//! them.
//!
//! ```sh
//! cargo run --release --example power_and_energy
//! ```

use cubie::device::h200;
use cubie::kernels::stencil::{trace, StencilCase};
use cubie::kernels::{Variant, Workload};
use cubie::sim::{power_report, power_trace, time_workload};

fn main() {
    let dev = h200();
    let case = StencilCase::star2d(10_240, 10_240);
    let repeats = 5_000;
    println!(
        "Stencil {} on {}, {} kernel repeats (Figure 7's setting)\n",
        case.label(),
        dev.name,
        repeats
    );

    let mut reports = Vec::new();
    for v in Workload::Stencil.variants() {
        let timing = time_workload(&dev, &trace(&case, v));
        let report = power_report(&dev, &timing, repeats);
        reports.push((v, report));
        println!(
            "{:9} {:8.2} ms/iter | avg {:5.0} W | energy {:8.1} J | EDP {:.3e} J·s",
            v.label(),
            timing.total_s * 1e3,
            report.avg_power_w,
            report.energy_j,
            report.edp
        );
    }

    // ASCII power trace of the TC variant (the Figure 8 curve shape:
    // idle → ramp → plateau → decay).
    let timing = time_workload(&dev, &trace(&case, Variant::Tc));
    let total = timing.total_s * repeats as f64;
    let samples = power_trace(&dev, &timing, repeats, total / 60.0);
    println!(
        "\nTC power trace ({} samples, {:.2} s active window):",
        samples.len(),
        total
    );
    let peak = samples.iter().map(|s| s.power_w).fold(0.0f64, f64::max);
    for s in samples.iter().step_by(2) {
        let bar = ((s.power_w / peak) * 60.0) as usize;
        println!("  {:6.2}s {:4.0}W |{}", s.t_s, s.power_w, "#".repeat(bar));
    }
    // Observation 6: TC draws more average power than the Baseline, yet
    // spends less energy and has a lower energy-delay product.
    let report_of = |v: Variant| reports.iter().find(|(u, _)| *u == v).unwrap().1;
    let (tc, base) = (report_of(Variant::Tc), report_of(Variant::Baseline));
    assert!(
        tc.avg_power_w > base.avg_power_w,
        "TC average power {:.0} W is not above the Baseline's {:.0} W",
        tc.avg_power_w,
        base.avg_power_w
    );
    assert!(
        tc.energy_j < base.energy_j,
        "TC energy {:.1} J is not below the Baseline's {:.1} J",
        tc.energy_j,
        base.energy_j
    );
    assert!(
        tc.edp < base.edp,
        "TC EDP {:.3e} J·s is not below the Baseline's {:.3e} J·s",
        tc.edp,
        base.edp
    );
    println!(
        "\nTC draws more instantaneous power than the baseline but finishes much sooner:\n\
         lower energy AND lower EDP — Observation 6."
    );
}
