//! SIMD-width inner kernels with runtime dispatch.
//!
//! The three dominant inner loops of the suite — the strided `m8n8k4`
//! MMA core ([`mma_f64_m8n8k4_strided`]), the CSR-vector SpMV row dot
//! product ([`spmv_csr_row`]) and the stencil star-row apply
//! ([`star_row`]) — vectorize across **independent output elements**:
//! distinct accumulation chains land in distinct SIMD lanes, and the
//! within-chain FMA order (the `k`-ascending chain real FP64 tensor
//! cores execute, see [`crate::mma`]) is never reassociated. Each lane
//! performs exactly the scalar instruction sequence — IEEE-754 FMA for
//! `f64::mul_add`, one rounding per operation — so every path is
//! **bit-identical** to the scalar fallback, and the paper's TC ≡ CC
//! invariant (Observation 7) extends to TC ≡ CC ≡ every SIMD path.
//! "Dissecting Tensor Cores via Microbenchmarks" confirms the hardware
//! performs the same lane-parallel accumulation.
//!
//! **Dispatch.** [`active_path`] resolves once per process (a
//! [`OnceLock`]) from CPU feature detection
//! (`is_x86_feature_detected!` / `is_aarch64_feature_detected!`),
//! overridable with `CUBIE_SIMD=scalar|avx2|neon`. An
//! unparseable value warns on stderr and falls back to detection (the
//! same convention as every other `CUBIE_*` knob); a parseable path the
//! host cannot run warns and falls back too. The resolution is
//! announced once on stderr —
//! `cubie: simd path avx2 (forced via CUBIE_SIMD)` — and the CI
//! forced-path matrix greps that line so a silent scalar fallback fails
//! the job instead of green-washing it.
//!
//! **Compile gating.** The target architecture alone decides what is
//! compiled: AVX2 on `x86_64` (it requires the `fma` feature alongside;
//! `avx2` alone does not imply FMA units), NEON on `aarch64`, and the
//! scalar path everywhere. [`compiled_paths`] lists what this binary
//! carries, [`supported_paths`] what the host can actually run — the
//! cross-path differential suite iterates the latter.

use std::sync::OnceLock;

/// One vectorization strategy for the inner kernels. Each architecture
/// compiles the scalar path and at most one vector path (see
/// [`compiled_paths`]); [`detected_path`] prefers the vector one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdPath {
    /// Portable scalar fallback — the reference all other paths must
    /// match bit-for-bit.
    Scalar,
    /// 256-bit AVX2 + FMA (4 × f64 lanes).
    Avx2,
    /// 128-bit aarch64 NEON (2 × f64 lanes).
    Neon,
}

impl SimdPath {
    /// Stable lower-case name (the `CUBIE_SIMD` vocabulary).
    pub const fn label(self) -> &'static str {
        match self {
            SimdPath::Scalar => "scalar",
            SimdPath::Avx2 => "avx2",
            SimdPath::Neon => "neon",
        }
    }

    /// Parse a `CUBIE_SIMD` value (case-insensitive). `None` for
    /// anything outside the three known names.
    pub fn parse(s: &str) -> Option<SimdPath> {
        match s.to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdPath::Scalar),
            "avx2" => Some(SimdPath::Avx2),
            "neon" => Some(SimdPath::Neon),
            _ => None,
        }
    }

    /// Whether this binary compiled the path **and** the host CPU can
    /// execute it.
    pub fn supported(self) -> bool {
        match self {
            SimdPath::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPath::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "aarch64")]
            SimdPath::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)] // which arms exist is cfg-dependent
            _ => false,
        }
    }
}

/// The paths compiled into this binary, narrowest first (always starts
/// with [`SimdPath::Scalar`]).
pub fn compiled_paths() -> &'static [SimdPath] {
    #[cfg(target_arch = "x86_64")]
    {
        &[SimdPath::Scalar, SimdPath::Avx2]
    }
    #[cfg(target_arch = "aarch64")]
    {
        &[SimdPath::Scalar, SimdPath::Neon]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        &[SimdPath::Scalar]
    }
}

/// The compiled paths this host can actually execute (what the
/// cross-path differential tests and benches iterate). Always contains
/// at least [`SimdPath::Scalar`].
pub fn supported_paths() -> Vec<SimdPath> {
    compiled_paths()
        .iter()
        .copied()
        .filter(|p| p.supported())
        .collect()
}

/// The widest supported path — what dispatch uses absent an override.
pub fn detected_path() -> SimdPath {
    compiled_paths()
        .iter()
        .rev()
        .copied()
        .find(|p| p.supported())
        .unwrap_or(SimdPath::Scalar)
}

/// How [`active_path`] arrived at its choice (the parenthetical of the
/// dispatch log line).
const FORCED: &str = "forced via CUBIE_SIMD";
/// See [`FORCED`].
const DETECTED: &str = "auto-detected";

/// Resolve the dispatch decision from an optional `CUBIE_SIMD` value:
/// `(path, how, warning)`. Pure, for unit tests; [`active_path`] feeds
/// it the process environment and prints.
fn resolve(env: Option<&str>) -> (SimdPath, &'static str, Option<String>) {
    match env {
        None => (detected_path(), DETECTED, None),
        Some(v) => match SimdPath::parse(v) {
            Some(p) if p.supported() => (p, FORCED, None),
            Some(p) => (
                detected_path(),
                DETECTED,
                Some(format!(
                    "CUBIE_SIMD={v}: the {} path is not available on this host \
                     (compiled: {}); using {}",
                    p.label(),
                    compiled_paths()
                        .iter()
                        .map(|p| p.label())
                        .collect::<Vec<_>>()
                        .join("/"),
                    detected_path().label()
                )),
            ),
            None => (
                detected_path(),
                DETECTED,
                Some(format!(
                    "ignoring CUBIE_SIMD={v}: not a valid value for this variable"
                )),
            ),
        },
    }
}

/// The resolved dispatch decision plus its announcement line, computed
/// once per process. The announcement goes through [`cubie_obs::log`]
/// rather than a raw `eprintln!`: the line still reaches stderr (obs
/// echoes by default, so the CI forced-path grep keeps its teeth), but a
/// consumer can turn the echo off, and a long-running `cubied` re-states
/// the line in its own per-startup banner via [`dispatch_line`].
fn resolution() -> &'static (SimdPath, String) {
    static ACTIVE: OnceLock<(SimdPath, String)> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let env = std::env::var("CUBIE_SIMD").ok();
        let (path, how, warning) = resolve(env.as_deref());
        if let Some(w) = warning {
            cubie_obs::log(format!("warning: {w}"));
        }
        let line = format!("cubie: simd path {} ({how})", path.label());
        cubie_obs::log(line.clone());
        (path, line)
    })
}

/// The SIMD path every dispatched kernel call uses, resolved once per
/// process and announced on stderr (`cubie: simd path <name> (<how>)`).
/// Override with `CUBIE_SIMD`; results are bit-identical either way, so
/// the override is a perf/test knob, never a correctness one.
pub fn active_path() -> SimdPath {
    resolution().0
}

/// The dispatch announcement line exactly as it was logged (resolving
/// the path first if nothing has yet). Long-running consumers re-emit
/// this per startup instead of once per process.
pub fn dispatch_line() -> &'static str {
    &resolution().1
}

/// One neighbour-pair term of a stencil star row: contributes
/// `weight × (a[i] + b[i])` to output element `i`, as a single FMA onto
/// the running accumulator (exactly the scalar op order of the
/// baseline stencil — the pair-sum rounds once, the FMA once).
pub struct StarTap<'a> {
    /// Coefficient shared by both neighbours (star stencils are
    /// symmetric per axis).
    pub weight: f64,
    /// First neighbour row, `out.len()` elements.
    pub a: &'a [f64],
    /// Second neighbour row, `out.len()` elements.
    pub b: &'a [f64],
}

/// One FP64 `m8n8k4` MMA on strided operands — the arithmetic core
/// every FP64 MMA entry point in [`crate::mma`] routes through — on the
/// process-wide [`active_path`]. `a` rows (8×4) at `a0 + i·lda`, `b`
/// rows (4×8) at `b0 + kk·ldb`, `c` rows (8×8) at `c0 + i·ldc`.
#[inline]
#[allow(clippy::too_many_arguments)] // nine scalars beat a one-use struct on this hot path
pub fn mma_f64_m8n8k4_strided(
    a: &[f64],
    a0: usize,
    lda: usize,
    b: &[f64],
    b0: usize,
    ldb: usize,
    c: &mut [f64],
    c0: usize,
    ldc: usize,
) {
    dispatch_mma(active_path(), a, a0, lda, b, b0, ldb, c, c0, ldc);
}

/// [`mma_f64_m8n8k4_strided`] on an explicit path — the entry point of
/// the cross-path differential tests and the simd-vs-scalar benches.
/// Panics if `path` is not supported on this host.
#[allow(clippy::too_many_arguments)] // mirrors the dispatched signature
pub fn mma_f64_m8n8k4_strided_on(
    path: SimdPath,
    a: &[f64],
    a0: usize,
    lda: usize,
    b: &[f64],
    b0: usize,
    ldb: usize,
    c: &mut [f64],
    c0: usize,
    ldc: usize,
) {
    assert_supported(path);
    dispatch_mma(path, a, a0, lda, b, b0, ldb, c, c0, ldc);
}

/// One CSR-vector SpMV row dot product on the process-wide
/// [`active_path`]: 32 lanes stride the row's nonzeros (`lane = i % 32`,
/// each lane a fused accumulation chain in nonzero order), combined by
/// the fixed shuffle-tree reduction — the cuSPARSE-style warp-per-row
/// kernel of the SpMV baseline.
#[inline]
pub fn spmv_csr_row(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    dispatch_spmv(active_path(), vals, cols, x)
}

/// [`spmv_csr_row`] on an explicit path (differential tests/benches).
/// Panics if `path` is not supported on this host.
pub fn spmv_csr_row_on(path: SimdPath, vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    assert_supported(path);
    dispatch_spmv(path, vals, cols, x)
}

/// One stencil star row on the process-wide [`active_path`]:
/// `out[i] = fma(t_n, …, fma(t_1, a_1[i]+b_1[i], center_weight·center[i]))`
/// — the per-point op order of the stencil baseline, across a whole row
/// of independent output points.
#[inline]
pub fn star_row(center_weight: f64, center: &[f64], taps: &[StarTap], out: &mut [f64]) {
    check_star(center, taps, out);
    dispatch_star(active_path(), center_weight, center, taps, out);
}

/// [`star_row`] on an explicit path (differential tests/benches).
/// Panics if `path` is not supported on this host.
pub fn star_row_on(
    path: SimdPath,
    center_weight: f64,
    center: &[f64],
    taps: &[StarTap],
    out: &mut [f64],
) {
    assert_supported(path);
    check_star(center, taps, out);
    dispatch_star(path, center_weight, center, taps, out);
}

/// Shape precondition of the star-row kernels (checked once up front so
/// the vector bodies can read rows unchecked).
fn check_star(center: &[f64], taps: &[StarTap], out: &mut [f64]) {
    assert!(center.len() >= out.len(), "center row shorter than output");
    for t in taps {
        assert!(
            t.a.len() >= out.len() && t.b.len() >= out.len(),
            "tap row shorter than output"
        );
    }
}

#[cold]
fn unsupported(path: SimdPath) -> ! {
    panic!(
        "SIMD path {} is not supported here (compiled: {}; host supports: {})",
        path.label(),
        compiled_paths()
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join("/"),
        supported_paths()
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join("/"),
    )
}

#[inline]
fn assert_supported(path: SimdPath) {
    if !path.supported() {
        unsupported(path);
    }
}

/// # Dispatch safety
///
/// Every `unsafe` block below calls a `#[target_feature]` function and
/// is sound because the matched `path` is either [`active_path`] (which
/// [`resolve`] only ever sets to a [`SimdPath::supported`] path) or was
/// checked by [`assert_supported`] in the `_on` wrapper.
#[inline]
#[allow(clippy::too_many_arguments)]
fn dispatch_mma(
    path: SimdPath,
    a: &[f64],
    a0: usize,
    lda: usize,
    b: &[f64],
    b0: usize,
    ldb: usize,
    c: &mut [f64],
    c0: usize,
    ldc: usize,
) {
    match path {
        SimdPath::Scalar => scalar::mma_strided(a, a0, lda, b, b0, ldb, c, c0, ldc),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => unsafe { avx2::mma_strided(a, a0, lda, b, b0, ldb, c, c0, ldc) },
        #[cfg(target_arch = "aarch64")]
        SimdPath::Neon => unsafe { neon::mma_strided(a, a0, lda, b, b0, ldb, c, c0, ldc) },
        #[allow(unreachable_patterns)] // which arms exist is cfg-dependent
        other => unsupported(other),
    }
}

/// See the dispatch-safety note on [`dispatch_mma`].
#[inline]
fn dispatch_spmv(path: SimdPath, vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
    match path {
        SimdPath::Scalar => scalar::spmv_row(vals, cols, x),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => unsafe { avx2::spmv_row(vals, cols, x) },
        #[cfg(target_arch = "aarch64")]
        SimdPath::Neon => unsafe { neon::spmv_row(vals, cols, x) },
        #[allow(unreachable_patterns)]
        other => unsupported(other),
    }
}

/// See the dispatch-safety note on [`dispatch_mma`].
#[inline]
fn dispatch_star(path: SimdPath, cw: f64, center: &[f64], taps: &[StarTap], out: &mut [f64]) {
    match path {
        SimdPath::Scalar => scalar::star_row(cw, center, taps, out),
        #[cfg(target_arch = "x86_64")]
        SimdPath::Avx2 => unsafe { avx2::star_row(cw, center, taps, out) },
        #[cfg(target_arch = "aarch64")]
        SimdPath::Neon => unsafe { neon::star_row(cw, center, taps, out) },
        #[allow(unreachable_patterns)]
        other => unsupported(other),
    }
}

/// The 32-lane shuffle-tree combine shared by every SpMV row path (the
/// lane partials are path-independent, so one scalar tree keeps the
/// reduction order trivially identical).
#[inline]
fn reduce_lanes(mut lanes: [f64; 32]) -> f64 {
    let mut width = 16;
    while width >= 1 {
        for l in 0..width {
            lanes[l] += lanes[l + width];
        }
        width /= 2;
    }
    lanes[0]
}

/// Portable scalar kernels — the bit-level reference. The MMA core is
/// verbatim the pre-SIMD `mma_f64_m8n8k4_strided_core` of
/// [`crate::mma`] (minus fault injection, which the wrapper applies);
/// the SpMV and star rows are verbatim the pre-SIMD kernel loops.
mod scalar {
    use super::StarTap;

    #[allow(clippy::too_many_arguments)]
    pub(super) fn mma_strided(
        a: &[f64],
        a0: usize,
        lda: usize,
        b: &[f64],
        b0: usize,
        ldb: usize,
        c: &mut [f64],
        c0: usize,
        ldc: usize,
    ) {
        // Fixed-size row views hoist every bounds check out of the FMA
        // loops (one check per row slice instead of three per FMA).
        let br: [&[f64; 8]; 4] =
            std::array::from_fn(|kk| b[b0 + kk * ldb..b0 + kk * ldb + 8].try_into().unwrap());
        for i in 0..8 {
            let ar: &[f64; 4] = a[a0 + i * lda..a0 + i * lda + 4].try_into().unwrap();
            let cr: &mut [f64; 8] = (&mut c[c0 + i * ldc..c0 + i * ldc + 8]).try_into().unwrap();
            for (j, out) in cr.iter_mut().enumerate() {
                let mut acc = *out;
                for (kk, &av) in ar.iter().enumerate() {
                    acc = av.mul_add(br[kk][j], acc);
                }
                *out = acc;
            }
        }
    }

    pub(super) fn spmv_row(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 32];
        for (i, (&c, &v)) in cols.iter().zip(vals).enumerate() {
            let l = i % 32;
            lanes[l] = v.mul_add(x[c as usize], lanes[l]);
        }
        super::reduce_lanes(lanes)
    }

    pub(super) fn star_row(cw: f64, center: &[f64], taps: &[StarTap], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let mut v = cw * center[i];
            for t in taps {
                v = t.weight.mul_add(t.a[i] + t.b[i], v);
            }
            *o = v;
        }
    }
}

/// AVX2 + FMA kernels: 4 × f64 lanes. Per lane, `_mm256_fmadd_pd` is
/// one IEEE-754 FMA and `_mm256_add_pd`/`_mm256_mul_pd` one rounding
/// each — exactly the scalar ops, so lanes are bit-identical by
/// construction.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::StarTap;
    use std::arch::x86_64::*;

    /// # Safety
    /// Caller must ensure the host supports `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn mma_strided(
        a: &[f64],
        a0: usize,
        lda: usize,
        b: &[f64],
        b0: usize,
        ldb: usize,
        c: &mut [f64],
        c0: usize,
        ldc: usize,
    ) {
        // Checked subslices establish bounds; the loads/stores then go
        // through their raw pointers (8-wide rows = two 4-lane halves).
        let mut blo = [_mm256_setzero_pd(); 4];
        let mut bhi = [_mm256_setzero_pd(); 4];
        for kk in 0..4 {
            let row = &b[b0 + kk * ldb..b0 + kk * ldb + 8];
            blo[kk] = _mm256_loadu_pd(row.as_ptr());
            bhi[kk] = _mm256_loadu_pd(row.as_ptr().add(4));
        }
        for i in 0..8 {
            let ar: &[f64; 4] = a[a0 + i * lda..a0 + i * lda + 4].try_into().unwrap();
            let cr = &mut c[c0 + i * ldc..c0 + i * ldc + 8];
            let mut lo = _mm256_loadu_pd(cr.as_ptr());
            let mut hi = _mm256_loadu_pd(cr.as_ptr().add(4));
            for (kk, &av) in ar.iter().enumerate() {
                let avv = _mm256_set1_pd(av);
                lo = _mm256_fmadd_pd(avv, blo[kk], lo);
                hi = _mm256_fmadd_pd(avv, bhi[kk], hi);
            }
            _mm256_storeu_pd(cr.as_mut_ptr(), lo);
            _mm256_storeu_pd(cr.as_mut_ptr().add(4), hi);
        }
    }

    /// # Safety
    /// Caller must ensure the host supports `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn spmv_row(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
        let n = vals.len().min(cols.len());
        let full = n & !31;
        let mut lanes = [0.0f64; 32];
        if full > 0 {
            // Lane l accumulates nonzeros l, l+32, l+64, … in index
            // order — the scalar chain per lane. The x gathers stay
            // bounds-checked scalar loads (matching the scalar path's
            // panic on a malformed column index).
            let mut acc = [_mm256_setzero_pd(); 8];
            let mut i = 0;
            while i < full {
                for (q, accq) in acc.iter_mut().enumerate() {
                    let o = i + 4 * q;
                    let v = _mm256_loadu_pd(vals.as_ptr().add(o));
                    let xg = _mm256_set_pd(
                        x[cols[o + 3] as usize],
                        x[cols[o + 2] as usize],
                        x[cols[o + 1] as usize],
                        x[cols[o] as usize],
                    );
                    *accq = _mm256_fmadd_pd(v, xg, *accq);
                }
                i += 32;
            }
            for (q, accq) in acc.iter().enumerate() {
                _mm256_storeu_pd(lanes.as_mut_ptr().add(4 * q), *accq);
            }
        }
        for j in full..n {
            let l = j - full;
            lanes[l] = vals[j].mul_add(x[cols[j] as usize], lanes[l]);
        }
        super::reduce_lanes(lanes)
    }

    /// # Safety
    /// Caller must ensure the host supports `avx2` and `fma`, and that
    /// `center` and every tap row hold at least `out.len()` elements
    /// (asserted by [`super::check_star`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn star_row(cw: f64, center: &[f64], taps: &[StarTap], out: &mut [f64]) {
        let n = out.len();
        let full = n & !3;
        let cwv = _mm256_set1_pd(cw);
        let mut i = 0;
        while i < full {
            let mut v = _mm256_mul_pd(cwv, _mm256_loadu_pd(center.as_ptr().add(i)));
            for t in taps {
                let s = _mm256_add_pd(
                    _mm256_loadu_pd(t.a.as_ptr().add(i)),
                    _mm256_loadu_pd(t.b.as_ptr().add(i)),
                );
                v = _mm256_fmadd_pd(_mm256_set1_pd(t.weight), s, v);
            }
            _mm256_storeu_pd(out.as_mut_ptr().add(i), v);
            i += 4;
        }
        for i in full..n {
            let mut v = cw * center[i];
            for t in taps {
                v = t.weight.mul_add(t.a[i] + t.b[i], v);
            }
            out[i] = v;
        }
    }
}

/// aarch64 NEON kernels: 2 × f64 lanes. `vfmaq_f64`/`vfmaq_n_f64` are
/// fused (one rounding), matching `f64::mul_add` per lane.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::StarTap;
    use std::arch::aarch64::*;

    /// # Safety
    /// Caller must ensure the host supports `neon`.
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn mma_strided(
        a: &[f64],
        a0: usize,
        lda: usize,
        b: &[f64],
        b0: usize,
        ldb: usize,
        c: &mut [f64],
        c0: usize,
        ldc: usize,
    ) {
        // 8-wide rows = four 2-lane quarters.
        let mut br = [[vdupq_n_f64(0.0); 4]; 4];
        for kk in 0..4 {
            let row = &b[b0 + kk * ldb..b0 + kk * ldb + 8];
            for q in 0..4 {
                br[kk][q] = vld1q_f64(row.as_ptr().add(2 * q));
            }
        }
        for i in 0..8 {
            let ar: &[f64; 4] = a[a0 + i * lda..a0 + i * lda + 4].try_into().unwrap();
            let cr = &mut c[c0 + i * ldc..c0 + i * ldc + 8];
            let mut acc = [
                vld1q_f64(cr.as_ptr()),
                vld1q_f64(cr.as_ptr().add(2)),
                vld1q_f64(cr.as_ptr().add(4)),
                vld1q_f64(cr.as_ptr().add(6)),
            ];
            for (kk, &av) in ar.iter().enumerate() {
                for (q, accq) in acc.iter_mut().enumerate() {
                    *accq = vfmaq_n_f64(*accq, br[kk][q], av);
                }
            }
            for (q, accq) in acc.iter().enumerate() {
                vst1q_f64(cr.as_mut_ptr().add(2 * q), *accq);
            }
        }
    }

    /// # Safety
    /// Caller must ensure the host supports `neon`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn spmv_row(vals: &[f64], cols: &[u32], x: &[f64]) -> f64 {
        let n = vals.len().min(cols.len());
        let full = n & !31;
        let mut lanes = [0.0f64; 32];
        if full > 0 {
            let mut acc = [vdupq_n_f64(0.0); 16];
            let mut i = 0;
            while i < full {
                for (q, accq) in acc.iter_mut().enumerate() {
                    let o = i + 2 * q;
                    let v = vld1q_f64(vals.as_ptr().add(o));
                    let xp = [x[cols[o] as usize], x[cols[o + 1] as usize]];
                    *accq = vfmaq_f64(*accq, v, vld1q_f64(xp.as_ptr()));
                }
                i += 32;
            }
            for (q, accq) in acc.iter().enumerate() {
                vst1q_f64(lanes.as_mut_ptr().add(2 * q), *accq);
            }
        }
        for j in full..n {
            let l = j - full;
            lanes[l] = vals[j].mul_add(x[cols[j] as usize], lanes[l]);
        }
        super::reduce_lanes(lanes)
    }

    /// # Safety
    /// Caller must ensure the host supports `neon`, and that `center`
    /// and every tap row hold at least `out.len()` elements (asserted
    /// by [`super::check_star`]).
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn star_row(cw: f64, center: &[f64], taps: &[StarTap], out: &mut [f64]) {
        let n = out.len();
        let full = n & !1;
        let mut i = 0;
        while i < full {
            let mut v = vmulq_n_f64(vld1q_f64(center.as_ptr().add(i)), cw);
            for t in taps {
                let s = vaddq_f64(
                    vld1q_f64(t.a.as_ptr().add(i)),
                    vld1q_f64(t.b.as_ptr().add(i)),
                );
                v = vfmaq_n_f64(v, s, t.weight);
            }
            vst1q_f64(out.as_mut_ptr().add(i), v);
            i += 2;
        }
        for i in full..n {
            let mut v = cw * center[i];
            for t in taps {
                v = t.weight.mul_add(t.a[i] + t.b[i], v);
            }
            out[i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::LcgF64;

    #[test]
    fn labels_round_trip_and_garbage_rejects() {
        for &p in &[SimdPath::Scalar, SimdPath::Avx2, SimdPath::Neon] {
            assert_eq!(SimdPath::parse(p.label()), Some(p));
            assert_eq!(SimdPath::parse(&p.label().to_uppercase()), Some(p));
        }
        assert_eq!(SimdPath::parse("sse9"), None);
        assert_eq!(SimdPath::parse(""), None);
    }

    #[test]
    fn compiled_paths_start_scalar_and_detection_is_supported() {
        assert_eq!(compiled_paths()[0], SimdPath::Scalar);
        assert!(detected_path().supported());
        assert!(supported_paths().contains(&SimdPath::Scalar));
        assert!(supported_paths().contains(&detected_path()));
    }

    #[test]
    fn resolve_honours_forced_supported_paths() {
        let (p, how, warn) = resolve(Some("scalar"));
        assert_eq!((p, how), (SimdPath::Scalar, FORCED));
        assert!(warn.is_none());
        let (p, how, warn) = resolve(None);
        assert_eq!((p, how), (detected_path(), DETECTED));
        assert!(warn.is_none());
    }

    #[test]
    fn resolve_warns_and_falls_back_on_garbage() {
        // A retired path name is no path of this crate: it takes the
        // garbage branch, not the host-lacks-it one.
        for v in ["avx1024", "avx512"] {
            let (p, how, warn) = resolve(Some(v));
            assert_eq!((p, how), (detected_path(), DETECTED));
            let warn = warn.expect("garbage must warn");
            assert!(
                warn.contains(&format!("ignoring CUBIE_SIMD={v}: not a valid value")),
                "{warn}"
            );
        }
    }

    #[test]
    fn resolve_warns_and_falls_back_on_unsupported_path() {
        // NEON is never supported on x86_64 hosts and vice versa, so one
        // of the two must exercise the unsupported-fallback arm.
        let foreign = if cfg!(target_arch = "aarch64") {
            "avx2"
        } else {
            "neon"
        };
        let (p, how, warn) = resolve(Some(foreign));
        assert_eq!((p, how), (detected_path(), DETECTED));
        let warn = warn.expect("unsupported path must warn");
        assert!(warn.contains("not available on this host"), "{warn}");
    }

    /// Every supported path must reproduce the scalar bits exactly on
    /// all three kernels (the full property suite lives in
    /// `tests/simd_differential.rs`; this is the in-crate tripwire).
    #[test]
    fn all_supported_paths_are_bit_identical_to_scalar() {
        let mut rng = LcgF64::new(7);
        let (lda, ldb, ldc) = (9, 11, 13);
        let a = rng.vec(8 * lda + 4);
        let b = rng.vec(4 * ldb + 8);
        let c0 = rng.vec(8 * ldc + 8);
        let nnz = 101; // ragged: three full 32-blocks + a 5-element tail
        let vals = rng.vec(nnz);
        let x = rng.vec(257);
        let cols: Vec<u32> = (0..nnz).map(|i| ((i * 89 + 3) % 257) as u32).collect();
        let n = 37;
        let center = rng.vec(n);
        let (ta, tb, tc, td) = (rng.vec(n), rng.vec(n), rng.vec(n), rng.vec(n));

        let run_mma = |p| {
            let mut c = c0.clone();
            mma_f64_m8n8k4_strided_on(p, &a, 2, lda, &b, 1, ldb, &mut c, 3, ldc);
            c
        };
        let star = |p| {
            let taps = [
                StarTap {
                    weight: 0.25,
                    a: &ta,
                    b: &tb,
                },
                StarTap {
                    weight: -1.5,
                    a: &tc,
                    b: &td,
                },
            ];
            let mut out = vec![0.0f64; n];
            star_row_on(p, -4.0, &center, &taps, &mut out);
            out
        };
        let c_ref = run_mma(SimdPath::Scalar);
        let y_ref = spmv_csr_row_on(SimdPath::Scalar, &vals, &cols, &x);
        let s_ref = star(SimdPath::Scalar);
        for p in supported_paths() {
            let c = run_mma(p);
            assert!(
                c.iter()
                    .zip(&c_ref)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "mma path {} diverged from scalar",
                p.label()
            );
            assert_eq!(
                spmv_csr_row_on(p, &vals, &cols, &x).to_bits(),
                y_ref.to_bits(),
                "spmv path {} diverged from scalar",
                p.label()
            );
            assert!(
                s_ref
                    .iter()
                    .zip(&star(p))
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "star path {} diverged from scalar",
                p.label()
            );
        }
    }

    #[test]
    fn empty_and_single_element_rows_agree() {
        let x = [1.5, -0.5, 2.0];
        for p in supported_paths() {
            assert_eq!(spmv_csr_row_on(p, &[], &[], &x).to_bits(), 0.0f64.to_bits());
            assert_eq!(
                spmv_csr_row_on(p, &[2.0], &[2], &x).to_bits(),
                4.0f64.to_bits()
            );
            let mut out = [0.0f64];
            star_row_on(
                p,
                3.0,
                &[2.0],
                &[StarTap {
                    weight: 0.5,
                    a: &[1.0],
                    b: &[7.0],
                }],
                &mut out,
            );
            assert_eq!(out[0].to_bits(), 0.5f64.mul_add(8.0, 6.0).to_bits());
        }
    }

    #[test]
    fn dispatched_wrappers_use_a_supported_path() {
        // Smoke the dispatched entry points (whatever CUBIE_SIMD says,
        // the resolved path must be runnable and bit-identical).
        let mut rng = LcgF64::new(3);
        let a = rng.vec(32);
        let b = rng.vec(32);
        let mut c = rng.vec(64);
        let c_ref = {
            let mut c2 = c.clone();
            mma_f64_m8n8k4_strided_on(SimdPath::Scalar, &a, 0, 4, &b, 0, 8, &mut c2, 0, 8);
            c2
        };
        mma_f64_m8n8k4_strided(&a, 0, 4, &b, 0, 8, &mut c, 0, 8);
        assert!(c
            .iter()
            .zip(&c_ref)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(active_path().supported());
    }
}
