//! **Stencil** — structured-grid neighbour updates (Quadrant I).
//!
//! * **TC** follows LoRAStencil (SC '24) in FP64: the star stencil's
//!   weight matrix separates into per-axis banded factors, so each 8×8
//!   output tile is computed as `Out = V·X_v + X_h·H` — a vertical-pass
//!   matmul with the tridiagonal factor `V` (rows i−1…i+8 of the input)
//!   plus a horizontal-pass matmul with `H` (columns j−1…j+8). The factor
//!   matrices are constants kept in constant memory ("Stencil loads
//!   matrix B only once from constant memory", Section 4), and the second
//!   pass accumulates into the first pass's MMA `C` — full input and
//!   output utilization. 3-D star stencils add a depth contribution from
//!   the z±1 slabs via element-wise FMAs on slab-resident data.
//! * **CC** issues identical chains on CUDA cores (bit-identical);
//!   CC-E ≡ CC (Quadrant I).
//! * **Baseline** models DRStencil: a register/shared-memory tiled vector
//!   stencil whose halo exchange breaks perfect coalescing.
//!
//! Boundary convention: out-of-grid neighbours read as zero, and all
//! points (including borders) are produced.

use cubie_core::counters::{MemTraffic, MMA_F64_FMAS};
use cubie_core::mma::mma_f64_m8n8k4;
use cubie_core::simd::{self, StarTap};
use cubie_core::{par, OpCounters};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};

use crate::common::Variant;

/// Stencil shapes evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StencilKind {
    /// 5-point star, radius 1, 2-D.
    Star2D1R,
    /// 7-point star, radius 1, 3-D.
    Star3D1R,
}

/// Stencil coefficients: centre plus one weight per axis direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Centre weight.
    pub center: f64,
    /// North/south (y-axis) weight.
    pub axis_y: f64,
    /// East/west (x-axis) weight.
    pub axis_x: f64,
    /// Front/back (z-axis) weight (3-D only).
    pub axis_z: f64,
}

impl Coefficients {
    /// The classic diffusion star weights.
    pub fn diffusion(kind: StencilKind) -> Self {
        match kind {
            StencilKind::Star2D1R => Self {
                center: -4.0,
                axis_y: 1.0,
                axis_x: 1.0,
                axis_z: 0.0,
            },
            StencilKind::Star3D1R => Self {
                center: -6.0,
                axis_y: 1.0,
                axis_x: 1.0,
                axis_z: 1.0,
            },
        }
    }
}

/// One stencil test case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilCase {
    /// Stencil shape.
    pub kind: StencilKind,
    /// Grid extent in y (and z for 3-D: `dims = (z, y, x)`).
    pub dims: (usize, usize, usize),
}

impl StencilCase {
    /// A 2-D case (`z = 1`).
    pub fn star2d(ny: usize, nx: usize) -> Self {
        Self {
            kind: StencilKind::Star2D1R,
            dims: (1, ny, nx),
        }
    }

    /// A 3-D case.
    pub fn star3d(nz: usize, ny: usize, nx: usize) -> Self {
        Self {
            kind: StencilKind::Star3D1R,
            dims: (nz, ny, nx),
        }
    }

    /// The five Table 2 test cases: star2d1r at 1K², 5K², 10K² and
    /// star3d1r at 512³ and 1K³.
    pub fn cases() -> Vec<StencilCase> {
        vec![
            StencilCase::star2d(1024, 1024),
            StencilCase::star2d(5120, 5120),
            StencilCase::star2d(10_240, 10_240),
            StencilCase::star3d(512, 512, 512),
            StencilCase::star3d(1024, 1024, 1024),
        ]
    }

    /// Total grid points.
    pub fn points(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }

    /// Useful floating-point work: the essential star FLOPs per point
    /// (5-point: 5 FMA·2; 7-point: 7 FMA·2).
    pub fn useful_flops(&self) -> f64 {
        let taps = match self.kind {
            StencilKind::Star2D1R => 5.0,
            StencilKind::Star3D1R => 7.0,
        };
        2.0 * taps * self.points() as f64
    }

    /// Case label for reports.
    pub fn label(&self) -> String {
        match self.kind {
            StencilKind::Star2D1R => format!("star2d1r-{}x{}", self.dims.1, self.dims.2),
            StencilKind::Star3D1R => {
                format!("star3d1r-{}x{}x{}", self.dims.0, self.dims.1, self.dims.2)
            }
        }
    }
}

/// Deterministic grid input for a case.
pub fn input(case: &StencilCase) -> Vec<f64> {
    cubie_core::LcgF64::new(0x57 + case.points() as u64).vec(case.points())
}

/// Serial CPU ground truth: naive per-point star with unfused arithmetic
/// (zero boundary).
pub fn reference(case: &StencilCase, x: &[f64]) -> Vec<f64> {
    star_reference(case, x, &Coefficients::diffusion(case.kind))
}

/// [`reference`] with the star weights `co`.
fn star_reference(case: &StencilCase, x: &[f64], co: &Coefficients) -> Vec<f64> {
    let (nz, ny, nx) = case.dims;
    let at = |z: i64, y: i64, xx: i64| -> f64 {
        if z < 0 || y < 0 || xx < 0 || z >= nz as i64 || y >= ny as i64 || xx >= nx as i64 {
            0.0
        } else {
            x[(z as usize * ny + y as usize) * nx + xx as usize]
        }
    };
    let mut out = vec![0.0f64; x.len()];
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for xx in 0..nx as i64 {
                let mut v = co.center * at(z, y, xx);
                v += co.axis_y * (at(z, y - 1, xx) + at(z, y + 1, xx));
                v += co.axis_x * (at(z, y, xx - 1) + at(z, y, xx + 1));
                if case.kind == StencilKind::Star3D1R {
                    v += co.axis_z * (at(z - 1, y, xx) + at(z + 1, y, xx));
                }
                out[(z as usize * ny + y as usize) * nx + xx as usize] = v;
            }
        }
    }
    out
}

/// Functional execution of one variant.
pub fn run(case: &StencilCase, x: &[f64], variant: Variant) -> (Vec<f64>, WorkloadTrace) {
    assert_eq!(x.len(), case.points(), "grid size mismatch");
    let out = match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => {
            run_mma(case, x, &Coefficients::diffusion(case.kind))
        }
        Variant::Baseline => run_baseline(case, x),
    };
    (out, trace(case, variant))
}

/// One axis' band factor of the separated star, 96 entries row-major.
/// Output `i` of a tile draws on padded inputs `i`, `i + 1` and `i + 2`
/// with the axis taps `[w, center_share, w]` (the input slab starts one
/// row or column before the tile; 8 outputs + 2 halo fill 10 of the 12
/// positions that three chained `m8n8k4` MMAs cover). Entry `(i, i + d)`
/// sits at `i·row + (i + d)·col`: strides `(12, 1)` give the 8×12
/// vertical factor `V`, `(1, 8)` its 12×8 transpose, the horizontal
/// factor `H`.
fn band_factor(w: f64, center_share: f64, (row, col): (usize, usize)) -> [f64; 96] {
    let mut f = [0.0f64; 96];
    for i in 0..8 {
        for (d, tap) in [w, center_share, w].into_iter().enumerate() {
            f[i * row + (i + d) * col] = tap;
        }
    }
    f
}

/// TC/CC/CC-E functional path (identical numerics): per 8×8 tile, the
/// vertical-factor MMA chain followed by the horizontal-factor chain
/// accumulating into the same `C`, plus the z-axis FMA contribution in
/// 3-D.
fn run_mma(case: &StencilCase, x: &[f64], co: &Coefficients) -> Vec<f64> {
    let (nz, ny, nx) = case.dims;
    // The centre weight splits evenly between the two passes (the z
    // contribution carries no centre share).
    let v = band_factor(co.axis_y, co.center / 2.0, (12, 1));
    let h = band_factor(co.axis_x, co.center / 2.0, (1, 8));
    let tiles_y = ny.div_ceil(8);
    let tiles_x = nx.div_ceil(8);
    let mut out = vec![0.0f64; x.len()];

    let plane = ny * nx;
    par::par_chunks_mut(&mut out, plane, |z, out_plane| {
        let at = |y: i64, xx: i64| -> f64 {
            if y < 0 || xx < 0 || y >= ny as i64 || xx >= nx as i64 {
                0.0
            } else {
                x[z * plane + y as usize * nx + xx as usize]
            }
        };
        let mut scratch = OpCounters::new();
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let (y0, x0) = (ty as i64 * 8, tx as i64 * 8);
                let mut ct = [0.0f64; 64];
                // Vertical pass: A = V (8×12), B = input slab (12×8).
                let mut slab = [0.0f64; 96];
                for k in 0..12 {
                    for c in 0..8 {
                        slab[k * 8 + c] = at(y0 + k as i64 - 1, x0 + c as i64);
                    }
                }
                mma_chain_8x12x8(&v, &slab, &mut ct, &mut scratch);
                // Horizontal pass: A = input slab (8×12), B = H (12×8),
                // accumulated into the same C.
                let mut slab_h = [0.0f64; 96];
                for r in 0..8 {
                    for k in 0..12 {
                        slab_h[r * 12 + k] = at(y0 + r as i64, x0 + k as i64 - 1);
                    }
                }
                mma_chain_8x12x8(&slab_h, &h, &mut ct, &mut scratch);
                // Depth pass (3-D): z±1 contributions as element-wise
                // fused multiply-adds on slab-resident data.
                if case.kind == StencilKind::Star3D1R {
                    for r in 0..8usize {
                        for c in 0..8usize {
                            let (gy, gx) = (y0 as usize + r, x0 as usize + c);
                            if gy < ny && gx < nx {
                                let below = if z > 0 {
                                    x[(z - 1) * plane + gy * nx + gx]
                                } else {
                                    0.0
                                };
                                let above = if z + 1 < nz {
                                    x[(z + 1) * plane + gy * nx + gx]
                                } else {
                                    0.0
                                };
                                let i = r * 8 + c;
                                ct[i] = co.axis_z.mul_add(below, ct[i]);
                                ct[i] = co.axis_z.mul_add(above, ct[i]);
                            }
                        }
                    }
                }
                for r in 0..8usize {
                    for c in 0..8usize {
                        let (gy, gx) = (y0 as usize + r, x0 as usize + c);
                        if gy < ny && gx < nx {
                            out_plane[gy * nx + gx] = ct[r * 8 + c];
                        }
                    }
                }
            }
        }
    });
    out
}

/// `C (8×8) += A (8×12) · B (12×8)` as three chained `m8n8k4` MMAs. The
/// band factor is `A` in the vertical pass and `B` in the horizontal one.
fn mma_chain_8x12x8(a: &[f64; 96], b: &[f64; 96], c: &mut [f64; 64], ctr: &mut OpCounters) {
    let mut at = [0.0f64; 32];
    let mut bt = [0.0f64; 32];
    for step in 0..3 {
        let k0 = step * 4;
        for i in 0..8 {
            at[i * 4..i * 4 + 4].copy_from_slice(&a[i * 12 + k0..i * 12 + k0 + 4]);
        }
        for k in 0..4 {
            bt[k * 8..k * 8 + 8].copy_from_slice(&b[(k0 + k) * 8..(k0 + k) * 8 + 8]);
        }
        mma_f64_m8n8k4(&at, &bt, c, ctr);
    }
}

/// One grid row as a slice — or a shared all-zeros row for out-of-grid
/// neighbour coordinates, so every output row of the baseline stencil
/// vectorizes with the same tap structure (the zero row reproduces the
/// zero-padding boundary convention bit-exactly: `w·(0+0)` contributes
/// the same `+0.0` the scalar `at()` closure folds in).
#[allow(clippy::too_many_arguments)] // internal row-view helper on the hot path
fn grid_row<'a>(
    x: &'a [f64],
    zeros: &'a [f64],
    plane: usize,
    nx: usize,
    ny: usize,
    nz: usize,
    z: i64,
    y: i64,
) -> &'a [f64] {
    if z < 0 || y < 0 || z >= nz as i64 || y >= ny as i64 {
        zeros
    } else {
        &x[z as usize * plane + y as usize * nx..][..nx]
    }
}

/// Baseline functional path: per-point fused star (DRStencil's data-reuse
/// tiling changes traffic, not numerics). Interior columns of each row
/// run on the active `cubie_core::simd` path as one [`simd::star_row`]
/// per output row (independent output points in lanes, per-point op
/// order preserved → bit-identical to scalar); the two border columns
/// keep the scalar per-point loop.
fn run_baseline(case: &StencilCase, x: &[f64]) -> Vec<f64> {
    let (nz, ny, nx) = case.dims;
    let co = Coefficients::diffusion(case.kind);
    let plane = ny * nx;
    let zeros = vec![0.0f64; nx];
    // Degenerate-width grids (nx ≤ 2) have no interior: lo == hi makes
    // the border loop cover every column.
    let (lo, hi) = if nx > 2 { (1, nx - 1) } else { (0, 0) };
    let mut out = vec![0.0f64; x.len()];
    par::par_chunks_mut(&mut out, plane, |z, out_plane| {
        let row = |zz: i64, y: i64| grid_row(x, &zeros, plane, nx, ny, nz, zz, y);
        let at = |y: i64, xx: i64| -> f64 {
            if y < 0 || xx < 0 || y >= ny as i64 || xx >= nx as i64 {
                0.0
            } else {
                x[z * plane + y as usize * nx + xx as usize]
            }
        };
        let zi = z as i64;
        // One tap list per plane, cleared per row (the taps borrow rows
        // of `x`/`zeros`, which outlive the loop).
        let mut taps: Vec<StarTap> = Vec::with_capacity(3);
        for y in 0..ny {
            let yi = y as i64;
            if lo < hi {
                // Tap order = the scalar per-point op order below.
                let cr = row(zi, yi);
                taps.clear();
                taps.push(StarTap {
                    weight: co.axis_y,
                    a: &row(zi, yi - 1)[lo..hi],
                    b: &row(zi, yi + 1)[lo..hi],
                });
                taps.push(StarTap {
                    weight: co.axis_x,
                    a: &cr[lo - 1..hi - 1],
                    b: &cr[lo + 1..hi + 1],
                });
                if case.kind == StencilKind::Star3D1R {
                    taps.push(StarTap {
                        weight: co.axis_z,
                        a: &row(zi - 1, yi)[lo..hi],
                        b: &row(zi + 1, yi)[lo..hi],
                    });
                }
                simd::star_row(
                    co.center,
                    &cr[lo..hi],
                    &taps,
                    &mut out_plane[y * nx + lo..y * nx + hi],
                );
            }
            for xx in (0..lo).chain(hi..nx) {
                let xx = xx as i64;
                let mut v = co.center * at(yi, xx);
                v = co.axis_y.mul_add(at(yi - 1, xx) + at(yi + 1, xx), v);
                v = co.axis_x.mul_add(at(yi, xx - 1) + at(yi, xx + 1), v);
                if case.kind == StencilKind::Star3D1R {
                    let below = row(zi - 1, yi)[xx as usize];
                    let above = row(zi + 1, yi)[xx as usize];
                    v = co.axis_z.mul_add(below + above, v);
                }
                out_plane[y * nx + xx as usize] = v;
            }
        }
    });
    out
}

/// Analytic trace of one variant.
pub fn trace(case: &StencilCase, variant: Variant) -> WorkloadTrace {
    let (nz, ny, nx) = case.dims;
    let tiles = (nz * ny.div_ceil(8) * nx.div_ceil(8)) as u64;
    let points = case.points() as u64;
    let is_3d = case.kind == StencilKind::Star3D1R;
    let label = format!("stencil-{}-{}", variant.label(), case.label());
    let mut ops = OpCounters::default();
    let critical;
    match variant {
        Variant::Tc | Variant::Cc | Variant::CcE => {
            let mma = tiles * 6;
            match variant {
                Variant::Tc => ops.mma_f64 = mma,
                _ => {
                    ops.fma_f64 = mma * MMA_F64_FMAS;
                    ops.int_ops = mma * MMA_F64_FMAS; // operand shuffles
                }
            }
            if is_3d {
                ops.fma_f64 += 2 * points;
            }
            // The compulsory grid read streams coalesced from DRAM
            // (LoRAStencil's memory-efficient gathering); the 10×10-per-
            // tile halo overlap re-reads are served by L2, and in 3-D the
            // z±1 neighbours come from slabs kept resident in shared
            // memory; factors come from constant memory.
            ops.gmem_load = MemTraffic::coalesced(points * 8);
            ops.l2_bytes = (tiles * 100 * 8).saturating_sub(points * 8);
            if is_3d {
                ops.smem_bytes += 2 * points * 8;
            }
            ops.gmem_store = MemTraffic::coalesced(points * 8);
            ops.smem_bytes = tiles * (2 * 96 * 8 * 2);
            ops.cmem_bytes = tiles * 2 * 96 * 8 / 96; // broadcast factors
            ops.syncs = tiles;
            critical = latency::GMEM_RT
                + 6.0
                    * match variant {
                        Variant::Tc => latency::MMA_F64,
                        _ => 4.0 * latency::FMA_F64,
                    };
        }
        Variant::Baseline => {
            let taps = if is_3d { 7 } else { 5 };
            ops.fma_f64 = points * taps;
            // DRStencil loads tile + halo with unaligned row segments:
            // the access stream is partially coalesced, and each point is
            // re-read from shared memory by its neighbours.
            ops.gmem_load = MemTraffic {
                coalesced: 0,
                strided: points * 8,
                random: 0,
            };
            ops.l2_bytes = points * 8 / 4;
            ops.gmem_store = MemTraffic::coalesced(points * 8);
            ops.smem_bytes = points * 8 * taps;
            ops.syncs = points / (32 * 8);
            critical = latency::GMEM_RT + taps as f64 * latency::FMA_F64;
        }
    }
    let blocks = tiles.div_ceil(8).max(1);
    WorkloadTrace::single(KernelTrace::new(
        label,
        blocks,
        256,
        2 * 96 * 8,
        ops,
        critical,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubie_core::ErrorStats;

    #[test]
    fn table2_cases() {
        let c = StencilCase::cases();
        assert_eq!(c.len(), 5);
        assert_eq!(c[2].dims.1, 10_240);
        assert_eq!(c[3].kind, StencilKind::Star3D1R);
    }

    #[test]
    fn variants_match_reference_2d() {
        let case = StencilCase::star2d(40, 56);
        let x = input(&case);
        let gold = reference(&case, &x);
        for v in Variant::ALL {
            let (y, _) = run(&case, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-12, "{v}: max err {}", e.max);
        }
    }

    #[test]
    fn variants_match_reference_3d() {
        let case = StencilCase::star3d(6, 24, 16);
        let x = input(&case);
        let gold = reference(&case, &x);
        for v in Variant::ALL {
            let (y, _) = run(&case, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            assert!(e.max < 1e-12, "{v}: max err {}", e.max);
        }
    }

    /// The weights a linear stencil applies, read off by running it on
    /// unit impulses (nhls `extract_weights`): the response to an impulse
    /// at `p` holds, at each point `q`, the weight output `q` gives `p`.
    /// A zero reads as `+0.0`: the sign of an untouched zero is no weight.
    fn impulse_responses(
        case: &StencilCase,
        points: &[usize],
        apply: impl Fn(&[f64]) -> Vec<f64>,
    ) -> Vec<Vec<u64>> {
        points
            .iter()
            .map(|&p| {
                let mut x = vec![0.0; case.points()];
                x[p] = 1.0;
                apply(&x).iter().map(|w| (w + 0.0).to_bits()).collect()
            })
            .collect()
    }

    #[test]
    fn band_factors_apply_the_reference_star_weights() {
        let mut g = cubie_core::LcgF64::new(0x57E4);
        for case in [StencilCase::star2d(24, 24), StencilCase::star3d(5, 24, 24)] {
            let (nz, ny, nx) = case.dims;
            // Interior points mid-tile, in a tile corner and on both
            // sides of the tile seams at 8 and 16.
            let points: Vec<usize> = [(5, 5), (7, 8), (8, 7), (12, 12), (15, 16), (16, 15)]
                .into_iter()
                .map(|(y, x)| (nz / 2 * ny + y) * nx + x)
                .collect();
            let mut weights = vec![Coefficients::diffusion(case.kind)];
            weights.extend((0..20).map(|_| Coefficients {
                center: g.next_f64(),
                axis_y: g.next_f64(),
                axis_x: g.next_f64(),
                axis_z: g.next_f64(),
            }));
            for co in weights {
                assert_eq!(
                    impulse_responses(&case, &points, |x| run_mma(&case, x, &co)),
                    impulse_responses(&case, &points, |x| star_reference(&case, x, &co)),
                    "{case:?} {co:?}"
                );
            }
        }
    }

    #[test]
    fn tc_equals_cc_bitwise() {
        let case = StencilCase::star2d(32, 32);
        let x = input(&case);
        assert_eq!(run(&case, &x, Variant::Tc).0, run(&case, &x, Variant::Cc).0);
    }

    #[test]
    fn ragged_grid_handled() {
        let case = StencilCase::star2d(19, 23);
        let x = input(&case);
        let gold = reference(&case, &x);
        let (y, _) = run(&case, &x, Variant::Tc);
        let e = ErrorStats::compare(&y, &gold);
        assert!(e.max < 1e-12, "max err {}", e.max);
    }

    #[test]
    fn laplacian_of_constant_grid_is_zero_inside() {
        let case = StencilCase::star2d(16, 16);
        let x = vec![1.0; case.points()];
        let (y, _) = run(&case, &x, Variant::Tc);
        // Interior points: -4 + 4 = 0.
        assert_eq!(y[5 * 16 + 5], 0.0);
        // Corner: -4 + 2 = -2.
        assert_eq!(y[0], -2.0);
    }

    #[test]
    fn tc_trace_counts() {
        let case = StencilCase::star2d(1024, 1024);
        let t = trace(&case, Variant::Tc).total_ops();
        assert_eq!(t.mma_f64, (1024 / 8) * (1024 / 8) * 6);
        assert!(t.cmem_bytes > 0, "factors live in constant memory");
    }

    #[test]
    fn baseline_has_strided_halo_traffic() {
        let case = StencilCase::star2d(1024, 1024);
        let b = trace(&case, Variant::Baseline).total_ops();
        let t = trace(&case, Variant::Tc).total_ops();
        assert!(b.gmem_load.strided > 0);
        assert_eq!(t.gmem_load.strided, 0);
    }
}
