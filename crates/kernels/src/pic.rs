//! **PiC** — particle-in-cell plasma push (Quadrant I).
//!
//! Follows PiCTC (Mehta) lifted to FP64 with the Boris push (Boris 1970):
//! the velocity rotation in the magnetic field plus the electric kick is
//! an *affine* map `v ← M·(v + ε) + ε`, where `M = I + C_s + C_s·C_t` is
//! built per cell from the rotation vectors `t = (q·dt/2m)·B` and
//! `s = 2t/(1+|t|²)`, and `ε = (q·dt/2m)·E`.
//!
//! * **TC** maps batches of 8 particles into the 8×4 `A` operand as
//!   homogeneous velocity rows `(vx, vy, vz, 1)`; the per-cell 4×8 `B`
//!   operand packs the affine velocity update (columns 0–2), the position
//!   increments `dt·v_new` (columns 3–5), a current-deposit diagnostic
//!   (column 6) and the homogeneous passthrough (column 7) — all eight
//!   output columns carry meaning (full input *and* output: Quadrant I).
//!   Particles stay in registers across `SUBSTEPS` sub-cycles per launch.
//! * **CC** issues the identical chains on CUDA cores (bit-identical);
//!   CC-E ≡ CC (Quadrant I).
//! * The paper evaluates no vendor baseline for PiC (Table 2: "-").

use cubie_core::counters::{MemTraffic, MMA_F64_FMAS};
use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::{par, LcgF64, OpCounters};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::Variant;

/// Sub-cycling steps per kernel launch (particles stay in registers).
pub const SUBSTEPS: usize = 32;
/// Field grid edge (cells per axis).
pub const GRID: usize = 16;
/// Domain edge length.
pub const DOMAIN: f64 = 1.0;
/// Time step per substep.
pub const DT: f64 = 1e-3;
/// Charge-to-mass ratio.
pub const QM: f64 = 1.0;

/// One PiC test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PicCase {
    /// Number of particles.
    pub n: usize,
}

impl PicCase {
    /// The five Table 2 test cases: 64K … 1M particles.
    pub fn cases() -> Vec<PicCase> {
        [64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20]
            .into_iter()
            .map(|n| PicCase { n })
            .collect()
    }

    /// Useful work: particle pushes (particles × substeps), ~23 essential
    /// FLOPs each (Boris push).
    pub fn useful_flops(&self) -> f64 {
        23.0 * (self.n * SUBSTEPS) as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        format!("{}K", self.n >> 10)
    }
}

/// Electric and magnetic field grids (uniform per cell).
#[derive(Debug, Clone, PartialEq)]
pub struct FieldGrid {
    /// Per-cell electric field.
    pub e: Vec<[f64; 3]>,
    /// Per-cell magnetic field.
    pub b: Vec<[f64; 3]>,
}

impl FieldGrid {
    /// Deterministic synthetic fields.
    pub fn synthetic(seed: u64) -> Self {
        let mut g = LcgF64::new(seed);
        let cells = GRID * GRID * GRID;
        let e = (0..cells)
            .map(|_| [0.1 * g.next_f64(), 0.1 * g.next_f64(), 0.1 * g.next_f64()])
            .collect();
        let b = (0..cells)
            .map(|_| [g.next_f64(), g.next_f64(), g.next_f64()])
            .collect();
        Self { e, b }
    }

    /// Cell index of a position (periodic domain).
    pub fn cell_of(pos: &[f64; 3]) -> usize {
        let idx = |x: f64| {
            let f = (x.rem_euclid(DOMAIN)) / DOMAIN * GRID as f64;
            (f as usize).min(GRID - 1)
        };
        (idx(pos[0]) * GRID + idx(pos[1])) * GRID + idx(pos[2])
    }
}

/// Particle phase-space state.
#[derive(Debug, Clone, PartialEq)]
pub struct Particles {
    /// Positions.
    pub pos: Vec<[f64; 3]>,
    /// Velocities.
    pub vel: Vec<[f64; 3]>,
}

/// Deterministic particle initialization, sorted by cell (PiCTC sorts
/// particles so each 8-particle batch shares its cell's push matrix).
pub fn input(case: &PicCase) -> (Particles, FieldGrid) {
    let mut g = LcgF64::new(0x91C + case.n as u64);
    let mut parts: Vec<([f64; 3], [f64; 3])> = (0..case.n)
        .map(|_| {
            let pos = [
                (g.next_f64() + 2.0) / 4.0,
                (g.next_f64() + 2.0) / 4.0,
                (g.next_f64() + 2.0) / 4.0,
            ];
            let vel = [0.1 * g.next_f64(), 0.1 * g.next_f64(), 0.1 * g.next_f64()];
            (pos, vel)
        })
        .collect();
    parts.sort_by_key(|(p, _)| FieldGrid::cell_of(p));
    let (pos, vel) = parts.into_iter().unzip();
    (Particles { pos, vel }, FieldGrid::synthetic(0xF1E1D))
}

/// The per-cell affine push operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PushMatrix {
    /// The 3×3 rotation+kick matrix `M`.
    pub m: [[f64; 3]; 3],
    /// The affine offset `M·ε + ε`.
    pub c: [f64; 3],
}

/// Build the Boris push operator for a cell's fields.
pub fn push_matrix(e: &[f64; 3], b: &[f64; 3]) -> PushMatrix {
    let h = QM * DT / 2.0;
    let t = [h * b[0], h * b[1], h * b[2]];
    let t2 = t[0] * t[0] + t[1] * t[1] + t[2] * t[2];
    let f = 2.0 / (1.0 + t2);
    let s = [f * t[0], f * t[1], f * t[2]];
    // Cross-product matrices: (C_t · v) = v × t.
    let ct = cross_matrix(&t);
    let cs = cross_matrix(&s);
    // M = I + C_s + C_s·C_t.
    let mut m = [[0.0f64; 3]; 3];
    for i in 0..3 {
        for j in 0..3 {
            let mut cc = 0.0;
            for k in 0..3 {
                cc += cs[i][k] * ct[k][j];
            }
            m[i][j] = if i == j { 1.0 } else { 0.0 } + cs[i][j] + cc;
        }
    }
    let eps = [h * e[0], h * e[1], h * e[2]];
    let mut c = [0.0f64; 3];
    for i in 0..3 {
        c[i] = eps[i];
        for k in 0..3 {
            c[i] += m[i][k] * eps[k];
        }
    }
    PushMatrix { m, c }
}

fn cross_matrix(t: &[f64; 3]) -> [[f64; 3]; 3] {
    // (C·v) = v × t.
    [[0.0, t[2], -t[1]], [-t[2], 0.0, t[0]], [t[1], -t[0], 0.0]]
}

/// Pack the push operator into the 4×8 MMA `B` operand (row-major 32):
/// columns 0–2 velocity update, 3–5 position increments, 6 diagnostic,
/// 7 homogeneous passthrough.
fn pack_b(p: &PushMatrix) -> [f64; 32] {
    let mut b = [0.0f64; 32];
    for k in 0..3 {
        for j in 0..3 {
            b[k * 8 + j] = p.m[j][k]; // Mᵀ for velocity columns
            b[k * 8 + 3 + j] = DT * p.m[j][k]; // dt·Mᵀ for position columns
        }
        // Diagnostic column: total velocity-component deposit.
        b[k * 8 + 6] = p.m[0][k] + p.m[1][k] + p.m[2][k];
    }
    for j in 0..3 {
        b[3 * 8 + j] = p.c[j];
        b[3 * 8 + 3 + j] = DT * p.c[j];
    }
    b[3 * 8 + 6] = p.c[0] + p.c[1] + p.c[2];
    b[3 * 8 + 7] = 1.0;
    b
}

/// Functional execution: push all particles for [`SUBSTEPS`] sub-cycles.
/// Returns the final state and the trace of one launch.
pub fn run(
    case: &PicCase,
    parts: &Particles,
    grid: &FieldGrid,
    variant: Variant,
) -> (Particles, WorkloadTrace) {
    assert_eq!(parts.pos.len(), case.n);
    let out = match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => run_mma(parts, grid),
        Variant::Baseline => run_serial_style(parts, grid),
    };
    (out, trace(case, variant))
}

/// Positions and velocities of one 8-particle batch — fixed-size stack
/// state (a batch is at most 8 particles), so the per-batch hot loop
/// allocates nothing.
type PosVelBatch = ([[f64; 3]; 8], [[f64; 3]; 8]);

/// TC/CC functional path: 8-particle batches through the MMA.
fn run_mma(parts: &Particles, grid: &FieldGrid) -> Particles {
    let n = parts.pos.len();
    let batches = n.div_ceil(8);
    let results: Vec<PosVelBatch> = par::par_map(batches, |bi| {
        let lo = bi * 8;
        let hi = (lo + 8).min(n);
        let g = hi - lo;
        let mut pos = [[0.0f64; 3]; 8];
        let mut vel = [[0.0f64; 3]; 8];
        pos[..g].copy_from_slice(&parts.pos[lo..hi]);
        vel[..g].copy_from_slice(&parts.vel[lo..hi]);
        // Batch cell: the cell of the batch's first (cell-sorted)
        // particle.
        let cell = FieldGrid::cell_of(&pos[0]);
        let pm = push_matrix(&grid.e[cell], &grid.b[cell]);
        let b = pack_b(&pm);
        let mut scratch = OpCounters::new();
        for _ in 0..SUBSTEPS {
            let mut a = [0.0f64; 32];
            for (p, v) in vel[..g].iter().enumerate() {
                a[p * 4] = v[0];
                a[p * 4 + 1] = v[1];
                a[p * 4 + 2] = v[2];
                a[p * 4 + 3] = 1.0;
            }
            let mut c = [0.0f64; 64];
            mma_f64_m8n8k4(&a, &b, &mut c, &mut scratch);
            for p in 0..g {
                vel[p] = [c[p * 8], c[p * 8 + 1], c[p * 8 + 2]];
                for d in 0..3 {
                    pos[p][d] += c[p * 8 + 3 + d];
                }
            }
        }
        (pos, vel)
    });
    let mut pos = Vec::with_capacity(n);
    let mut vel = Vec::with_capacity(n);
    for (bi, (p, v)) in results.iter().enumerate() {
        let g = 8.min(n - bi * 8);
        pos.extend_from_slice(&p[..g]);
        vel.extend_from_slice(&v[..g]);
    }
    Particles { pos, vel }
}

/// Serial-style CPU reference push: same batch-cell semantics and
/// operator, naive unfused arithmetic — the accuracy ground truth.
pub fn run_serial_style(parts: &Particles, grid: &FieldGrid) -> Particles {
    let n = parts.pos.len();
    let mut pos = parts.pos.clone();
    let mut vel = parts.vel.clone();
    for bi in 0..n.div_ceil(8) {
        let lo = bi * 8;
        let hi = (lo + 8).min(n);
        let cell = FieldGrid::cell_of(&parts.pos[lo]);
        let pm = push_matrix(&grid.e[cell], &grid.b[cell]);
        for p in lo..hi {
            for _ in 0..SUBSTEPS {
                let v = vel[p];
                let mut vn = [0.0f64; 3];
                for (i, vni) in vn.iter_mut().enumerate() {
                    *vni = pm.m[i][0] * v[0] + pm.m[i][1] * v[1] + pm.m[i][2] * v[2] + pm.c[i];
                }
                vel[p] = vn;
                for d in 0..3 {
                    pos[p][d] += DT * vn[d];
                }
            }
        }
    }
    Particles { pos, vel }
}

/// Analytic trace of one launch (one [`SUBSTEPS`] sub-cycle pass).
pub fn trace(case: &PicCase, variant: Variant) -> WorkloadTrace {
    let n = case.n as u64;
    let batches = n.div_ceil(8);
    let label = format!("pic-{}-{}", variant.label(), case.label());
    let mut ops = OpCounters::default();
    match variant {
        Variant::Tc => ops.mma_f64 = batches * SUBSTEPS as u64,
        Variant::Cc | Variant::CcE => {
            ops.fma_f64 = batches * SUBSTEPS as u64 * MMA_F64_FMAS;
            ops.int_ops = batches * SUBSTEPS as u64 * MMA_F64_FMAS;
        }
        Variant::Baseline => {
            // The paper evaluates no baseline for PiC; the serial-style
            // reference is exposed for accuracy only. Its trace models
            // the same push as plain vector FMAs.
            ops.fma_f64 = n * SUBSTEPS as u64 * 12;
        }
    }
    // Position updates stay on CUDA cores in every variant.
    ops.add_f64 += 3 * n * SUBSTEPS as u64;
    // Push-matrix construction per batch.
    ops.mul_f64 += batches * 40;
    ops.add_f64 += batches * 30;
    ops.special_f64 += batches;
    // Particle state in/out; field gather per batch.
    ops.gmem_load = MemTraffic::coalesced(n * 48) + MemTraffic::random(batches * 48);
    ops.gmem_store = MemTraffic::coalesced(n * 48);
    let critical = latency::GMEM_RT
        + SUBSTEPS as f64
            * match variant {
                Variant::Tc => latency::MMA_F64 + latency::FMA_F64,
                _ => 4.0 * latency::FMA_F64 + latency::FMA_F64,
            };
    WorkloadTrace::single(KernelTrace::new(
        label,
        batches.div_ceil(8),
        256,
        0,
        ops,
        critical,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;

    fn flat(p: &Particles) -> Vec<f64> {
        p.pos
            .iter()
            .chain(p.vel.iter())
            .flat_map(|v| v.iter().copied())
            .collect()
    }

    #[test]
    fn table2_cases() {
        let c = PicCase::cases();
        assert_eq!(c.len(), 5);
        assert_eq!(c[0].n, 65_536);
        assert_eq!(c[4].n, 1_048_576);
    }

    #[test]
    fn tc_matches_serial_reference() {
        let case = PicCase { n: 500 };
        let (parts, grid) = input(&case);
        let gold = run_serial_style(&parts, &grid);
        let (tc, _) = run(&case, &parts, &grid, Variant::Tc);
        let e = ErrorStats::compare(&flat(&tc), &flat(&gold));
        assert!(e.max < 1e-10, "max err {}", e.max);
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let case = PicCase { n: 256 };
        let (parts, grid) = input(&case);
        let (tc, _) = run(&case, &parts, &grid, Variant::Tc);
        let (cc, _) = run(&case, &parts, &grid, Variant::Cc);
        assert_eq!(flat(&tc), flat(&cc));
    }

    #[test]
    fn boris_rotation_preserves_speed_without_e_field() {
        // With E = 0 the Boris rotation is norm-preserving.
        let b = [0.3, -0.8, 0.5];
        let pm = push_matrix(&[0.0; 3], &b);
        let v = [0.4, 0.2, -0.1];
        let mut vn = [0.0f64; 3];
        for (i, vni) in vn.iter_mut().enumerate() {
            *vni = pm.m[i][0] * v[0] + pm.m[i][1] * v[1] + pm.m[i][2] * v[2] + pm.c[i];
        }
        let n0 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let n1 = vn.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((n0 - n1).abs() < 1e-12, "|v| {n0} → {n1}");
    }

    #[test]
    fn particles_drift_under_e_field_only() {
        let pm = push_matrix(&[1.0, 0.0, 0.0], &[0.0; 3]);
        let v = [0.0; 3];
        let mut vn = [0.0f64; 3];
        for (i, vni) in vn.iter_mut().enumerate() {
            *vni = pm.m[i][0] * v[0] + pm.m[i][1] * v[1] + pm.m[i][2] * v[2] + pm.c[i];
        }
        assert!((vn[0] - QM * DT).abs() < 1e-15, "full kick per step");
        assert_eq!(vn[1], 0.0);
    }

    #[test]
    fn particles_are_cell_sorted() {
        let case = PicCase { n: 1000 };
        let (parts, _) = input(&case);
        let cells: Vec<usize> = parts.pos.iter().map(FieldGrid::cell_of).collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn trace_counts() {
        let case = PicCase { n: 64 << 10 };
        let t = trace(&case, Variant::Tc).total_ops();
        assert_eq!(t.mma_f64, (65_536 / 8) * SUBSTEPS as u64);
        let cc = trace(&case, Variant::Cc).total_ops();
        assert_eq!(cc.fma_f64, t.mma_f64 * 256);
    }

    #[test]
    fn ragged_batch_handled() {
        let case = PicCase { n: 13 };
        let (parts, grid) = input(&case);
        let (tc, _) = run(&case, &parts, &grid, Variant::Tc);
        assert_eq!(tc.pos.len(), 13);
        let gold = run_serial_style(&parts, &grid);
        let e = ErrorStats::compare(&flat(&tc), &flat(&gold));
        assert!(e.max < 1e-10);
    }
}
