//! Cross-path SIMD differential suite: every compiled-and-supported
//! `cubie_core::simd` path must produce **bit-identical** outputs to the
//! scalar reference, for random shapes (aligned, ragged, empty-row CSR,
//! single-element stencil rows) and for every precision.
//!
//! Two tiers:
//!
//! 1. property tests drive the three vectorized primitives directly
//!    through their `_on(path, …)` entry points, comparing every
//!    supported path against [`SimdPath::Scalar`] in-process;
//! 2. a subprocess test re-runs a kernel-level digest (SpMV and stencil
//!    baselines in FP64, tiled MMAs in FP16/BF16/TF32, and all ten
//!    kernels' functional runs, whose ragged GEMM TC runs the FP64 MMA) under each forced `CUBIE_SIMD` value ×
//!    worker counts {1, 2, 8} — the dispatch decision is a per-process
//!    `OnceLock`, so forcing requires a fresh process — asserting one
//!    digest across the whole matrix *and* that the dispatch log line
//!    names the forced path (a silent scalar fallback fails the test,
//!    not just CI).
//!
//! Regression seeds live in `proptest-regressions/simd_differential.txt`
//! and replay before the random cases.

use cubie::core::mma::mma_tiled_mixed;
use cubie::core::simd::{self, SimdPath, StarTap};
use cubie::core::{par, DenseMatrix, LcgF64, MmaGen, OpCounters, Precision, C64};
use cubie::graph::CsrGraph;
use cubie::kernels::stencil::{self, StencilCase, StencilKind};
use cubie::kernels::{bfs, fft, gemm, gemv, pic, reduction, scan, spgemm, spmv, Variant};
use cubie::sparse::{Coo, Csr};
use proptest::prelude::*;

/// FNV-1a over the raw bits of a float slice: one digest pinning every
/// output bit (any single-bit divergence changes it).
fn digest_f64(vals: &[f64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01B3);
        }
    }
    h
}

/// [`digest_f64`] for the `f32` accumulators of the mixed-precision MMAs.
fn digest_f32(vals: &[f32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01B3);
        }
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Strided MMA core: random (possibly ragged) strides and offsets.
    /// Every supported path must reproduce the scalar bits of both the
    /// written 8×8 block and the untouched gap columns.
    #[test]
    fn mma_strided_core_is_bit_identical_across_paths(
        (a0, lda) in (0usize..8, 4usize..20),
        (b0, ldb) in (0usize..8, 8usize..24),
        (c0, ldc) in (0usize..8, 8usize..24),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = LcgF64::new(seed + 1);
        let a = rng.vec(a0 + 8 * lda);
        let b = rng.vec(b0 + 4 * ldb + 8);
        let c_init = rng.vec(c0 + 8 * ldc + 8);
        let run = |p: SimdPath| {
            let mut c = c_init.clone();
            simd::mma_f64_m8n8k4_strided_on(p, &a, a0, lda, &b, b0, ldb, &mut c, c0, ldc);
            c
        };
        let reference = run(SimdPath::Scalar);
        for p in simd::supported_paths() {
            let got = run(p);
            prop_assert_eq!(
                digest_f64(&got), digest_f64(&reference),
                "path {} diverged from scalar (lda {} ldb {} ldc {})",
                p.label(), lda, ldb, ldc
            );
        }
    }

    /// CSR SpMV row dot product: row lengths straddle the 32-lane block
    /// boundary (empty rows, single elements, exact multiples, ragged
    /// tails) with repeated and unordered column indices.
    #[test]
    fn spmv_rows_are_bit_identical_across_paths(
        nnz in prop_oneof![Just(0usize), Just(1), Just(31), Just(32), Just(64), 2usize..97],
        xlen in 1usize..300,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = LcgF64::new(seed + 1);
        let vals = rng.vec(nnz);
        let x = rng.vec(xlen);
        let cols: Vec<u32> = (0..nnz)
            .map(|i| ((i as u64 * 2654435761 + seed) % xlen as u64) as u32)
            .collect();
        let reference = simd::spmv_csr_row_on(SimdPath::Scalar, &vals, &cols, &x);
        for p in simd::supported_paths() {
            let got = simd::spmv_csr_row_on(p, &vals, &cols, &x);
            prop_assert_eq!(
                got.to_bits(), reference.to_bits(),
                "path {} diverged from scalar (nnz {} xlen {})",
                p.label(), nnz, xlen
            );
        }
    }

    /// Stencil star row: row widths from a single element through
    /// several vector blocks plus tails, with one to four taps (the 2-D,
    /// radius-2 and 3-D shapes).
    #[test]
    fn star_rows_are_bit_identical_across_paths(
        n in prop_oneof![Just(1usize), Just(2), Just(7), Just(8), 1usize..70],
        ntaps in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = LcgF64::new(seed + 1);
        let center = rng.vec(n);
        let cw = rng.vec(1)[0];
        let weights = rng.vec(ntaps);
        let rows: Vec<(Vec<f64>, Vec<f64>)> =
            (0..ntaps).map(|_| (rng.vec(n), rng.vec(n))).collect();
        let run = |p: SimdPath| {
            let taps: Vec<StarTap> = rows
                .iter()
                .zip(&weights)
                .map(|((a, b), &weight)| StarTap { weight, a, b })
                .collect();
            let mut out = vec![0.0f64; n];
            simd::star_row_on(p, cw, &center, &taps, &mut out);
            out
        };
        let reference = run(SimdPath::Scalar);
        for p in simd::supported_paths() {
            let got = run(p);
            prop_assert_eq!(
                digest_f64(&got), digest_f64(&reference),
                "path {} diverged from scalar (n {} taps {})",
                p.label(), n, ntaps
            );
        }
    }
}

// ---------------------------------------------------------------------
// Kernel-level forced-path digests. `active_path()` resolves once per
// process, so each forcing runs this same test binary in a subprocess
// against the `#[ignore]`d probe below.
// ---------------------------------------------------------------------

/// Worker counts the probe runs the digest under: serial fast path,
/// small pool, oversubscribed pool.
const PROBE_JOBS: [usize; 3] = [1, 2, 8];

fn fold(h: &mut u64, d: u64) {
    *h = h.rotate_left(11) ^ d;
}

/// A small deterministic CSR: row r holds r % 37 nonzeros, so rows 0
/// and 37+ are empty and row 36 spans a full 32-lane block plus a tail.
fn small_csr(rows: usize, cols: usize, seed: u64) -> Csr {
    let mut rng = LcgF64::new(seed);
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        for i in 0..(r % 37) {
            coo.push(r, (r * 7 + i * 11) % cols, rng.vec(1)[0]);
        }
    }
    Csr::from_coo(coo)
}

/// Digest the kernels that route through the dispatched (not `_on`)
/// SIMD entry points, plus every mixed precision: all ten kernels via
/// [`ten_kernel_digest`] (its SpMV baseline runs over a CSR with
/// empty/ragged/long rows), both stencil shapes (including a
/// degenerate-width grid with no vectorizable interior), and FP16/BF16/
/// TF32 tiled MMAs. The FP64 MMA's dispatched strided core runs in the
/// ten-kernel digest's ragged GEMM TC.
fn kernel_digest() -> u64 {
    let mut h = ten_kernel_digest(7);
    let mut rng = LcgF64::new(20_260_808);

    // Stencils: each shape once, plus a 2-wide grid whose rows are
    // entirely border (the scalar column loop covers everything).
    for case in [
        StencilCase {
            kind: StencilKind::Star2D1R,
            dims: (1, 13, 17),
        },
        StencilCase {
            kind: StencilKind::Star2D1R,
            dims: (1, 9, 2),
        },
        StencilCase {
            kind: StencilKind::Star3D1R,
            dims: (3, 7, 12),
        },
    ] {
        let (nz, ny, nx) = case.dims;
        let grid = rng.vec(nz * ny * nx);
        let (out, _) = stencil::run(&case, &grid, Variant::Baseline);
        fold(&mut h, digest_f64(&out));
    }

    // Tiled mixed-precision MMAs: they pin the mixed accumulation
    // chains under every forcing (they must not care which path is
    // active).
    let mut ctr = OpCounters::new();
    let (mm, nn, kk) = (24, 16, 20);
    let a = rng.vec(mm * kk);
    let b = rng.vec(kk * nn);
    for precision in [Precision::F16, Precision::Bf16, Precision::Tf32] {
        for gen in [MmaGen::Volta, MmaGen::Ampere] {
            let aq: Vec<f64> = a.iter().map(|&v| precision.quantize(v)).collect();
            let bq: Vec<f64> = b.iter().map(|&v| precision.quantize(v)).collect();
            let mut cq = vec![0.0f32; mm * nn];
            mma_tiled_mixed(
                precision, gen, &aq, &bq, &mut cq, mm, nn, kk, false, &mut ctr,
            );
            fold(&mut h, digest_f32(&cq));
        }
    }
    h
}

/// Functional execution of all ten kernels on small inputs, TC and
/// baseline variants, folded into one digest covering every output bit.
fn ten_kernel_digest(seed: u64) -> u64 {
    let mut rng = LcgF64::new(seed);
    let mut h: u64 = 0;
    let variants = [Variant::Tc, Variant::Baseline];

    // GEMM (ragged shape: the tiled MMA's bounds-guarded path).
    let a = DenseMatrix::random(24, 20, seed ^ 0xA0);
    let b = DenseMatrix::random(20, 16, seed ^ 0xB0);
    for v in variants {
        let (c, _) = gemm::run(&a, &b, v);
        fold(&mut h, digest_f64(c.as_slice()));
    }

    // GEMV (tall-skinny, banded MMA path).
    let am = DenseMatrix::random(120, 16, seed ^ 0xC0);
    let x = rng.vec(16);
    for v in variants {
        let (y, _) = gemv::run(&am, &x, v);
        fold(&mut h, digest_f64(&y));
    }

    // FFT (batched 2-D transforms through the flat ping-pong buffers).
    let case = fft::FftCase {
        h: 16,
        w: 32,
        batch: 3,
    };
    let grids: Vec<Vec<C64>> = (0..case.batch)
        .map(|_| {
            rng.vec(case.points())
                .into_iter()
                .map(|re| C64 { re, im: -re * 0.5 })
                .collect()
        })
        .collect();
    for v in variants {
        let (out, _) = fft::run(&case, &grids, v);
        for g in &out {
            let flat: Vec<f64> = g.iter().flat_map(|c| [c.re, c.im]).collect();
            fold(&mut h, digest_f64(&flat));
        }
    }

    // Stencil (2-D star, interior + border rows).
    let sc = StencilCase {
        kind: StencilKind::Star2D1R,
        dims: (1, 17, 23),
    };
    let grid = rng.vec(17 * 23);
    for v in variants {
        let (out, _) = stencil::run(&sc, &grid, v);
        fold(&mut h, digest_f64(&out));
    }

    // Scan and reduction (tile pipeline + Kogge-Stone offsets).
    let xs = rng.vec(1500);
    for v in variants {
        let (y, _) = scan::run(&xs, v);
        fold(&mut h, digest_f64(&y));
        let (r, _) = reduction::run(&xs, v);
        fold(&mut h, digest_f64(&[r]));
    }

    // PiC (batched Boris push, stack-array batches).
    let pc = pic::PicCase { n: 60 };
    let (parts, field) = pic::input(&pc);
    for v in variants {
        let (out, _) = pic::run(&pc, &parts, &field, v);
        for p in out.pos.iter().chain(out.vel.iter()) {
            fold(&mut h, digest_f64(p));
        }
    }

    // BFS (bitmap frontier ping-pong + push-pull baseline).
    let edges: Vec<(u32, u32)> = (0..400u32).map(|i| (i % 97, (i * 31 + 7) % 97)).collect();
    let g = CsrGraph::from_edges(97, &edges, true);
    for v in variants {
        let (levels, _) = bfs::run(&g, 0, v);
        let flat: Vec<f64> = levels.iter().map(|&l| l as f64).collect();
        fold(&mut h, digest_f64(&flat));
    }

    // SpMV (DASP bundle builder + CSR baseline).
    let m = small_csr(40, 50, seed ^ 0xD0);
    let xv = rng.vec(50);
    for v in variants {
        let (y, _) = spmv::run(&m, &xv, v);
        fold(&mut h, digest_f64(&y));
    }

    // SpGEMM (blocked accumulator + dense-row baseline).
    let sq = small_csr(32, 32, seed ^ 0xE0);
    for v in variants {
        let (c, _) = spgemm::run(&sq, v);
        fold(&mut h, digest_f64(&c.vals));
        let flat: Vec<f64> = c
            .row_ptr
            .iter()
            .map(|&p| p as f64)
            .chain(c.col_idx.iter().map(|&i| i as f64))
            .collect();
        fold(&mut h, digest_f64(&flat));
    }

    h
}

#[test]
#[ignore = "forced-path probe: run in a CUBIE_SIMD subprocess by the digest tests"]
fn forced_path_probe() {
    // stdout is captured by the harness unless the test fails; print the
    // digests through stderr, which also carries the dispatch log line.
    for jobs in PROBE_JOBS {
        let prev = par::set_max_workers(jobs);
        let d = kernel_digest();
        par::set_max_workers(prev);
        eprintln!("kernel digest at jobs {jobs}: {d:#018x}");
    }
    assert_eq!(simd::active_path().label(), {
        let forced = std::env::var("CUBIE_SIMD").expect("probe runs under CUBIE_SIMD");
        let parsed = SimdPath::parse(&forced).expect("probe forces a valid path");
        parsed.label()
    });
}

/// One probe subprocess's outcome: the forced path, its stderr, and its
/// digest per probe worker count (in [`PROBE_JOBS`] order).
struct ProbeRun {
    path: SimdPath,
    stderr: String,
    digests: Vec<String>,
}

/// Run the probe with `CUBIE_SIMD=path` and parse its digest lines.
fn run_probe(path: SimdPath) -> ProbeRun {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args([
            "--exact",
            "forced_path_probe",
            "--include-ignored",
            "--test-threads",
            "1",
            // Without this, libtest swallows the probe's stderr (digest
            // and dispatch lines) on success.
            "--nocapture",
        ])
        .env("CUBIE_SIMD", path.label())
        .output()
        .expect("spawn probe subprocess");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        out.status.success(),
        "probe failed under CUBIE_SIMD={}:\n{stderr}\n{}",
        path.label(),
        String::from_utf8_lossy(&out.stdout)
    );
    let digests = PROBE_JOBS
        .iter()
        .map(|jobs| {
            let prefix = format!("kernel digest at jobs {jobs}: ");
            stderr
                .lines()
                .find_map(|l| l.strip_prefix(&prefix))
                .unwrap_or_else(|| {
                    panic!(
                        "no jobs {jobs} digest line under CUBIE_SIMD={}:\n{stderr}",
                        path.label()
                    )
                })
                .to_string()
        })
        .collect();
    ProbeRun {
        path,
        stderr,
        digests,
    }
}

/// The probe over every supported path, run once per test process and
/// shared by the two digest tests below.
fn probe_runs() -> &'static [ProbeRun] {
    static RUNS: std::sync::OnceLock<Vec<ProbeRun>> = std::sync::OnceLock::new();
    RUNS.get_or_init(|| simd::supported_paths().into_iter().map(run_probe).collect())
}

/// Every supported path, forced end-to-end through the real kernels,
/// produces the same output bits at each probe worker count — and really
/// ran (the dispatch log line must name the forced path, so a silent
/// fallback cannot pass).
#[test]
fn forced_paths_produce_identical_kernel_digests() {
    let runs = probe_runs();
    for run in runs {
        let announce = format!(
            "cubie: simd path {} (forced via CUBIE_SIMD)",
            run.path.label()
        );
        assert!(
            run.stderr.contains(&announce),
            "probe under CUBIE_SIMD={} never announced `{announce}`:\n{}",
            run.path.label(),
            run.stderr
        );
    }
    let reference = &runs[0];
    for run in runs {
        for (i, jobs) in PROBE_JOBS.iter().enumerate() {
            assert_eq!(
                run.digests[i],
                reference.digests[i],
                "kernel digest at jobs {jobs} diverged on forced path {} vs {}",
                run.path.label(),
                reference.path.label()
            );
        }
    }
}

/// The whole `CUBIE_SIMD` path × worker count {1, 2, 8} matrix yields
/// one digest over all ten kernels: within each forced path the worker
/// count changes no output bit, and every path agrees.
#[test]
fn ten_kernels_are_bit_identical_across_forced_simd_paths_and_jobs() {
    let runs = probe_runs();
    let reference = &runs[0].digests[0];
    for run in runs {
        for (digest, jobs) in run.digests.iter().zip(PROBE_JOBS) {
            assert_eq!(
                digest,
                reference,
                "kernel digest diverged at jobs {jobs} under CUBIE_SIMD={}",
                run.path.label()
            );
        }
    }
}

/// Garbage `CUBIE_SIMD` values warn (PR 3 convention) and fall back to
/// detection instead of dying or silently going scalar.
#[test]
fn garbage_cubie_simd_warns_and_falls_back() {
    let exe = std::env::current_exe().expect("test binary path");
    let out = std::process::Command::new(&exe)
        .args([
            "--exact",
            "forced_path_probe",
            "--include-ignored",
            "--test-threads",
            "1",
            "--nocapture",
        ])
        .env("CUBIE_SIMD", "avx1024")
        .output()
        .expect("spawn probe subprocess");
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The probe itself fails (it asserts a *valid* forced path) but the
    // process must have warned and announced an auto-detected path first.
    assert!(
        stderr.contains("warning: ignoring CUBIE_SIMD=avx1024: not a valid value"),
        "missing warn-on-unparseable line:\n{stderr}"
    );
    assert!(
        stderr.contains("(auto-detected)"),
        "garbage override must fall back to detection:\n{stderr}"
    );
}
