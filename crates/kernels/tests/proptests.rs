//! Property-based tests of the workload implementations: every variant
//! must agree with its serial reference on arbitrary inputs, and TC must
//! be bit-identical to CC everywhere.

#[path = "../../graph/tests/support/bitmap.rs"]
mod bitmap;
#[path = "support/spgemm_oracle.rs"]
mod spgemm_oracle;

use bitmap::{mma_b1_m8n8k128_and_popc, reverse, BitmapGraph};
use cubie_core::counters::MemTraffic;
use cubie_core::{DenseMatrix, ErrorStats, OpCounters, C64};
use cubie_graph::bitmap::{BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::CsrGraph;
use cubie_kernels::spgemm::{self, SpgemmStats};
use cubie_kernels::{bfs, fft, gemm, gemv, reduction, scan, spmv, Variant};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};
use cubie_sparse::mbsr::{Mbsr, BLOCK};
use cubie_sparse::{Coo, Csr};
use proptest::prelude::*;

/// The bitmap pull BFS as it was before the traversal and the per-variant
/// accounting were split: one traversal per variant, and a full emulated
/// bit MMA per processed slice whose diagonal decides the row hits.
fn bitmap_bfs_with_mma(g: &CsrGraph, source: usize, variant: Variant) -> (Vec<i32>, WorkloadTrace) {
    let bm = BitmapGraph::from_graph(g);
    let n = g.n;
    let col_blocks = bm.col_blocks;
    let mut level = vec![-1i32; n];
    level[source] = 0;
    let mut frontier = vec![0u128; col_blocks];
    frontier[source / BLOCK_COLS] |= 1u128 << (source % BLOCK_COLS);
    let mut band_unsettled = vec![BLOCK_ROWS as u32; bm.row_blocks];
    if !n.is_multiple_of(BLOCK_ROWS) {
        band_unsettled[bm.row_blocks - 1] = (n % BLOCK_ROWS) as u32;
    }
    band_unsettled[source / BLOCK_ROWS] -= 1;

    let mut workload = WorkloadTrace::default();
    let mut depth = 0i32;
    let mut frontier_count = 1u64;
    while frontier_count > 0 {
        depth += 1;
        let mut next = vec![0u128; col_blocks];
        let mut ops = OpCounters::default();
        let mut scratch = OpCounters::default();
        let mut processed = 0u64;
        let mut next_count = 0u64;
        #[allow(clippy::needless_range_loop)]
        for rb in 0..bm.row_blocks {
            if band_unsettled[rb] == 0 {
                continue;
            }
            for slice in bm.band(rb) {
                let seg = frontier[slice.col_block as usize];
                if seg == 0 {
                    continue;
                }
                processed += 1;
                let mut c = [0u32; 64];
                mma_b1_m8n8k128_and_popc(&slice.rows, &[seg; 8], &mut c, &mut scratch);
                for r in 0..BLOCK_ROWS {
                    let v = rb * BLOCK_ROWS + r;
                    if v < n && level[v] < 0 && c[r * 8 + r] > 0 {
                        level[v] = depth;
                        next[v / BLOCK_COLS] |= 1u128 << (v % BLOCK_COLS);
                        band_unsettled[rb] -= 1;
                        next_count += 1;
                    }
                }
            }
        }
        match variant {
            Variant::Tc => ops.mma_b1 = processed,
            Variant::Cc => ops.int_ops = processed * 768 + processed * 8,
            Variant::CcE => ops.int_ops = processed * 12 * 8 / 2 + processed * 8,
            Variant::Baseline => unreachable!(),
        }
        if variant == Variant::Tc {
            ops.int_ops = processed * 8;
        }
        ops.gmem_load = MemTraffic::coalesced(processed * 132) + MemTraffic::random(processed * 16);
        ops.gmem_store = MemTraffic::coalesced(next_count * 4 + col_blocks as u64 * 16);
        ops.smem_bytes = processed * 16;
        workload.push(KernelTrace::new(
            format!("bfs-{}-level{}", variant.label(), depth),
            processed.div_ceil(8).max(1),
            256,
            4096,
            ops,
            latency::GMEM_RT + latency::MMA_B1 + latency::SMEM_RT,
        ));
        frontier = next;
        frontier_count = next_count;
    }
    (level, workload)
}

/// Direction-optimizing push/pull BFS (Gunrock-style baseline).
///
/// The Baseline trace as it was before it was counted from the shared
/// levels: it builds the reversed graph and runs its own traversal.
fn run_push_pull(g: &CsrGraph, source: usize) -> (Vec<i32>, WorkloadTrace) {
    g.assert_source(source);
    let rev = reverse(g);
    let n = g.n;
    let mut level = vec![-1i32; n];
    level[source] = 0;
    let mut frontier = vec![source as u32];
    let mut next = Vec::new();
    let mut unvisited = n as u64 - 1;
    let mut workload = WorkloadTrace::default();
    let mut depth = 0i32;
    while !frontier.is_empty() {
        depth += 1;
        let frontier_edges: u64 = frontier.iter().map(|&u| g.degree(u as usize) as u64).sum();
        let unvisited_edges = unvisited * (g.num_arcs() as u64 / n.max(1) as u64).max(1);
        let mut ops = OpCounters::default();
        next.clear();
        if frontier_edges > unvisited_edges / 14 && unvisited > 0 {
            // Pull: every unvisited vertex scans its in-neighbours until
            // it finds a frontier parent.
            let mut inspections = 0u64;
            for v in 0..n {
                if level[v] >= 0 {
                    continue;
                }
                for &u in rev.neighbors(v) {
                    inspections += 1;
                    if level[u as usize] == depth - 1 {
                        level[v] = depth;
                        next.push(v as u32);
                        break;
                    }
                }
            }
            ops.int_ops = inspections * 4;
            ops.gmem_load = MemTraffic::strided(inspections * 4)
                + MemTraffic::random(inspections * 4)
                + MemTraffic::coalesced((n as u64) * 8);
            ops.gmem_store = MemTraffic::coalesced(next.len() as u64 * 4);
        } else {
            // Push: expand the frontier queue.
            let mut inspections = 0u64;
            for &u in frontier.iter() {
                for &v in g.neighbors(u as usize) {
                    inspections += 1;
                    if level[v as usize] < 0 {
                        level[v as usize] = depth;
                        next.push(v);
                    }
                }
            }
            ops.int_ops = inspections * 4 + next.len() as u64 * 2;
            ops.gmem_load = MemTraffic::strided(inspections * 4)
                + MemTraffic::random(inspections * 4)
                + MemTraffic::coalesced(frontier.len() as u64 * 12);
            ops.gmem_store = MemTraffic::random(next.len() as u64 * 8);
        }
        unvisited -= next.len() as u64;
        workload.push(KernelTrace::new(
            format!("bfs-Baseline-level{depth}"),
            (frontier.len() as u64).div_ceil(256).max(1),
            256,
            0,
            ops,
            latency::GMEM_RT * 2.0,
        ));
        std::mem::swap(&mut frontier, &mut next);
    }
    (level, workload)
}

/// Count the multiplication structure without numeric work.
///
/// The SpGEMM statistics as they were before they were counted from the
/// CSR pattern: a full mBSR, values included, built per call.
fn stats(a: &Csr) -> SpgemmStats {
    let am = Mbsr::from_csr(a);
    let mut block_products = 0u64;
    let mut c_blocks = 0u64;
    let mut marker = vec![-1i32; am.block_cols];
    for br in 0..am.block_rows {
        let (acols, _) = am.block_row(br);
        for ac in acols {
            let (bcols, _) = am.block_row(*ac as usize);
            block_products += bcols.len() as u64;
            for bc in bcols {
                if marker[*bc as usize] != br as i32 {
                    marker[*bc as usize] = br as i32;
                    c_blocks += 1;
                }
            }
        }
    }
    let mut scalar_products = 0u64;
    for r in 0..a.rows {
        let (cols, _) = a.row(r);
        for c in cols {
            scalar_products += a.row_nnz(*c as usize) as u64;
        }
    }
    // C's nnz: estimated from block structure (exact value needs the
    // numeric phase; the 16× bound is what the memory trace uses).
    let c_nnz = c_blocks * (BLOCK * BLOCK) as u64;
    SpgemmStats {
        block_products,
        c_blocks,
        a_blocks: am.nnz_blocks() as u64,
        scalar_products,
        c_nnz,
        block_bytes: 4 + (16.0 * am.fill_ratio(a.nnz()) * 8.0).ceil() as u64,
    }
}

/// The Baseline's levels and trace, from `run` and from `trace`, equal
/// the push/pull oracle's launch by launch.
fn assert_baseline_matches_push_pull(g: &CsrGraph, source: usize) {
    let (want_levels, want) = run_push_pull(g, source);
    let (levels, ran) = bfs::run(g, source, Variant::Baseline);
    assert_eq!(levels, want_levels, "levels from {source}");
    // `KernelTrace` equality covers label, grid, block, shared memory,
    // every `OpCounters` field and the critical path.
    assert_eq!(ran, want, "trace from {source}");
    assert_eq!(bfs::trace(g, source, Variant::Baseline), want);
}

/// The SpGEMM statistics, every variant's trace and the useful work of
/// `a` match the mBSR oracle, on the memoised count and on a clone that
/// counts afresh.
fn assert_spgemm_matches_mbsr(a: &Csr) {
    let want = stats(a);
    for m in [a, &a.clone()] {
        assert_eq!(spgemm::stats(m), want);
        assert_eq!(
            spgemm::useful_flops(m).to_bits(),
            (2.0 * want.scalar_products as f64).to_bits()
        );
    }
    for v in Variant::ALL {
        assert_eq!(spgemm::trace(a, v), spgemm::trace(&a.clone(), v), "{v}");
    }
}

/// A square matrix from arbitrary triplets (out-of-range ones dropped).
fn square(n: usize, entries: Vec<(usize, usize, f64)>) -> Csr {
    let mut coo = Coo::new(n, n);
    for (r, c, v) in entries {
        if r < n && c < n {
            coo.push(r, c, v);
        }
    }
    Csr::from_coo(coo)
}

/// `got` equals `want` bit for bit: shape, `row_ptr`, `col_idx`, and
/// `vals` by `to_bits`.
fn assert_csr_bits(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(
        (got.rows, got.cols),
        (want.rows, want.cols),
        "{what}: shape"
    );
    assert_eq!(got.row_ptr, want.row_ptr, "{what}: row_ptr");
    assert_eq!(got.col_idx, want.col_idx, "{what}: col_idx");
    let bits = |m: &Csr| m.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: vals");
}

/// Every SpGEMM functional path of `a`, and the serial reference, equal
/// their oracles bit for bit.
fn assert_spgemm_matches_oracles(a: &Csr) {
    for v in Variant::ALL {
        let want = match v {
            Variant::Baseline => spgemm_oracle::run_baseline(a),
            _ => spgemm_oracle::run_mma(a, v == Variant::CcE),
        };
        assert_csr_bits(&spgemm::run(a, v).0, &want, v.label());
    }
    assert_csr_bits(
        &spgemm::reference(a),
        &spgemm_oracle::spgemm_naive(a, a),
        "reference",
    );
}

#[test]
fn spgemm_matches_the_oracles_on_spmsrts_at_one_and_three_workers() {
    let _guard = cubie_core::pool::cap_lock();
    for scale in [32, 8] {
        let a = cubie_sparse::generators::spmsrts_like(scale);
        for jobs in [1, 3] {
            let prev = cubie_core::par::set_max_workers(jobs);
            let result = std::panic::catch_unwind(|| assert_spgemm_matches_oracles(&a));
            cubie_core::par::set_max_workers(prev);
            if let Err(e) = result {
                eprintln!("spmsrts_like({scale}) at {jobs} workers");
                std::panic::resume_unwind(e);
            }
        }
    }
}

#[test]
fn baseline_matches_push_pull_on_a_path_deeper_than_64_levels() {
    let edges: Vec<(u32, u32)> = (0..199u32).map(|i| (i, i + 1)).collect();
    for sym in [false, true] {
        let g = CsrGraph::from_edges(200, &edges, sym);
        assert!(*g.bfs_serial(0).iter().max().unwrap() > 64);
        for source in [0, 70, 199] {
            assert_baseline_matches_push_pull(&g, source);
        }
    }
}

#[test]
fn baseline_matches_push_pull_with_unreached_vertices() {
    // Directed: arcs from unreached vertices into reached ones, a
    // self-loop on each side, and isolated vertices.
    let edges = [
        (0, 1),
        (1, 2),
        (2, 3),
        (5, 2),
        (6, 5),
        (5, 5),
        (1, 1),
        (7, 3),
        (3, 0),
    ];
    let g = CsrGraph::from_edges(10, &edges, false);
    let levels = g.bfs_serial(0);
    assert!(levels.contains(&-1));
    for source in 0..10 {
        assert_baseline_matches_push_pull(&g, source);
    }
    // A star that pulls at once, while the 128-column block 256..300
    // holds no reached vertex: its arcs, among its own vertices and into
    // the star, are in-arcs every pull inspects.
    let mut edges: Vec<(u32, u32)> = (1..=200).map(|v| (0, v)).collect();
    edges.extend((256..300).map(|u| (u, if u % 2 == 0 { u + 1 } else { u % 200 })));
    let g = CsrGraph::from_edges(300, &edges, false);
    let (_, t) = run_push_pull(&g, 0);
    assert!(
        t.kernels[0].ops.gmem_store.coalesced > 0,
        "the first launch pulls"
    );
    assert_baseline_matches_push_pull(&g, 0);
}

#[test]
fn baseline_matches_push_pull_on_a_star_that_pulls() {
    let n = 1 << 12;
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    edges.extend((1..200u32).map(|v| (v, v + 200)));
    let g = CsrGraph::from_edges(n, &edges, true);
    // A pull launch is the only kind whose store is coalesced.
    let (_, t) = run_push_pull(&g, 0);
    assert!(t.kernels.iter().any(|k| k.ops.gmem_store.coalesced > 0));
    assert_baseline_matches_push_pull(&g, 0);
    assert_baseline_matches_push_pull(&g, 5);
}

#[test]
fn table3_and_table4_inputs_match_the_oracles() {
    for (info, g) in cubie_graph::generators::table3_graphs(512) {
        let source = g.max_degree_vertex();
        let (want_levels, want) = run_push_pull(&g, source);
        let (levels, ran) = bfs::run(&g, source, Variant::Baseline);
        assert_eq!(levels, want_levels, "{}", info.name);
        assert_eq!(ran, want, "{}", info.name);
    }
    for (info, m) in cubie_sparse::generators::table4_matrices(64) {
        assert_eq!(spgemm::stats(&m), stats(&m), "{}", info.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scan: all variants agree with the running sum for arbitrary
    /// lengths and values.
    #[test]
    fn scan_all_variants(xs in proptest::collection::vec(-100.0..100.0f64, 1..1500)) {
        let gold = scan::reference(&xs);
        let scale = xs.iter().fold(1.0f64, |a, v| a.max(v.abs())) * xs.len() as f64;
        for v in Variant::ALL {
            let (y, _) = scan::run(&xs, v);
            let e = ErrorStats::compare(&y, &gold);
            prop_assert!(e.max <= 1e-12 * scale, "{v}: {}", e.max);
        }
        let (tc, _) = scan::run(&xs, Variant::Tc);
        let (cc, _) = scan::run(&xs, Variant::Cc);
        prop_assert_eq!(tc, cc);
    }

    /// Reduction: all variants agree with the serial sum.
    #[test]
    fn reduction_all_variants(xs in proptest::collection::vec(-100.0..100.0f64, 1..1500)) {
        let gold = reduction::reference(&xs);
        let scale = xs.iter().map(|v| v.abs()).sum::<f64>().max(1.0);
        for v in Variant::ALL {
            let (s, _) = reduction::run(&xs, v);
            prop_assert!((s - gold).abs() <= 1e-12 * scale, "{v}: {s} vs {gold}");
        }
    }

    /// GEMM's tiled MMA over arbitrary (ragged) shapes matches the naive
    /// matmul, one `m8n8k4` per started 8×8×4 tile.
    #[test]
    fn tiled_mma_matches_naive(
        m in 1usize..24,
        n in 1usize..24,
        k in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut g = cubie_core::LcgF64::new(seed + 1);
        let a = g.vec(m * k);
        let b = g.vec(k * n);
        let (c, t) = gemm::run(
            &DenseMatrix::from_fn(m, k, |i, j| a[i * k + j]),
            &DenseMatrix::from_fn(k, n, |i, j| b[i * n + j]),
            Variant::Tc,
        );
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                prop_assert!((c.as_slice()[i * n + j] - acc).abs() < 1e-10);
            }
        }
        let expected = (m.div_ceil(8) * n.div_ceil(8) * k.div_ceil(4)) as u64;
        prop_assert_eq!(t.total_ops().mma_f64, expected);
    }

    /// GEMV: all variants agree with the dense mat-vec for arbitrary
    /// tall-skinny shapes.
    #[test]
    fn gemv_all_variants(m in 1usize..200, n in 1usize..40, seed in 0u64..500) {
        let a = cubie_core::DenseMatrix::random(m, n, seed + 1);
        let x = cubie_core::LcgF64::new(seed + 7).vec(n);
        let gold = gemv::reference(&a, &x);
        for v in Variant::ALL {
            let (y, _) = gemv::run(&a, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            prop_assert!(e.max < 1e-11 * n as f64, "{v}: {}", e.max);
        }
    }

    /// SpMV: all variants agree with serial CSR on random sparse
    /// matrices, and the trace op counts match the built format.
    #[test]
    fn spmv_all_variants(
        rows in 1usize..120,
        cols in 1usize..120,
        entries in proptest::collection::vec((0usize..120, 0usize..120, -5.0..5.0f64), 0..400),
    ) {
        let mut coo = Coo::new(rows, cols);
        for (r, c, v) in entries {
            if r < rows && c < cols {
                coo.push(r, c, v);
            }
        }
        let m = Csr::from_coo(coo);
        let x = spmv::input_vector(&m);
        let gold = spmv::reference(&m, &x);
        for v in Variant::ALL {
            let (y, _) = spmv::run(&m, &x, v);
            let e = ErrorStats::compare(&y, &gold);
            prop_assert!(e.max < 1e-10, "{v}: {}", e.max);
        }
        let fmt = spmv::DaspFormat::from_csr(&m);
        let t = spmv::trace(&m, Variant::Tc);
        prop_assert_eq!(t.total_ops().mma_f64, fmt.total_steps());
    }

    /// FFT: the batched tensor-core transform matches the naive DFT for
    /// any power-of-two length and batch size.
    #[test]
    fn fft_matches_dft(log_n in 1u32..8, batch in 1usize..10, seed in 0u64..500) {
        let n = 1usize << log_n;
        let mut g = cubie_core::LcgF64::new(seed + 3);
        let xs: Vec<Vec<C64>> = (0..batch)
            .map(|_| (0..n).map(|_| C64::new(g.next_f64(), g.next_f64())).collect())
            .collect();
        for v in [Variant::Baseline, Variant::Tc] {
            let mut got = xs.clone();
            fft::fft1d_batch(&mut got, v);
            for (x, orig) in got.iter().zip(&xs) {
                let gold = fft::dft_naive(orig);
                let e = ErrorStats::compare_c64(x, &gold);
                prop_assert!(e.max < 1e-9 * n as f64, "{v} n={n}: {}", e.max);
            }
        }
    }

    /// BFS: every variant reproduces serial levels exactly on random
    /// graphs, and the trace issues one launch per level (+1 final).
    #[test]
    fn bfs_all_variants(
        n in 2usize..256,
        edges in proptest::collection::vec((0u32..256, 0u32..256), 0..800),
        sym in any::<bool>(),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|(u, v)| (*u as usize) < n && (*v as usize) < n)
            .collect();
        let g = cubie_graph::CsrGraph::from_edges(n, &edges, sym);
        let src = g.max_degree_vertex();
        let gold = bfs::reference(&g, src);
        let depth = *gold.iter().max().unwrap();
        for v in Variant::ALL {
            let (levels, trace) = bfs::run(&g, src, v);
            prop_assert_eq!(&levels, &gold, "{}", v);
            prop_assert_eq!(trace.launches(), depth.max(0) as usize + 1, "{}", v);
        }
    }

    /// BFS: every bitmap variant's levels and trace equal the full-MMA
    /// reference launch by launch: label, grid, block, shared memory,
    /// every op counter and the critical path.
    #[test]
    fn bfs_bitmap_traces_match_full_mma(
        n in 1usize..600,
        edges in proptest::collection::vec((0u32..600, 0u32..600), 0..1500),
        sym in any::<bool>(),
        src_pick in any::<prop::sample::Index>(),
        other_pick in any::<prop::sample::Index>(),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|(u, v)| (*u as usize) < n && (*v as usize) < n)
            .collect();
        let g = CsrGraph::from_edges(n, &edges, sym);
        let src = src_pick.index(n);
        for v in [Variant::Tc, Variant::Cc, Variant::CcE] {
            let (want_levels, want) = bitmap_bfs_with_mma(&g, src, v);
            let (levels, ran) = bfs::run(&g, src, v);
            prop_assert_eq!(&levels, &want_levels, "{}", v);
            // `KernelTrace` equality covers label, grid, block, shared
            // memory, every `OpCounters` field and the critical path.
            prop_assert_eq!(&ran, &want, "{}", v);
            prop_assert_eq!(&bfs::trace(&g, src, v), &want, "{}", v);
        }
        // A second source on the same graph misses the memo of the
        // first and must still match.
        if n > 1 {
            let other = (src + 1 + other_pick.index(n - 1)) % n;
            for v in [Variant::Tc, Variant::Cc, Variant::CcE] {
                let (want_levels, want) = bitmap_bfs_with_mma(&g, other, v);
                let (levels, ran) = bfs::run(&g, other, v);
                prop_assert_eq!(&levels, &want_levels, "{} from {}", v, other);
                prop_assert_eq!(&ran, &want, "{} from {}", v, other);
            }
        }
    }

    /// BFS Baseline: levels and every traced field equal the push/pull
    /// oracle on random graphs (directed or not, with self-loops), from
    /// any source.
    #[test]
    fn bfs_baseline_matches_push_pull(
        n in 1usize..600,
        edges in proptest::collection::vec((0u32..600, 0u32..600), 0..1500),
        loops in proptest::collection::vec(0u32..600, 0..20),
        sym in any::<bool>(),
        src_pick in any::<prop::sample::Index>(),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .chain(loops.into_iter().map(|v| (v, v)))
            .filter(|(u, v)| (*u as usize) < n && (*v as usize) < n)
            .collect();
        let g = CsrGraph::from_edges(n, &edges, sym);
        assert_baseline_matches_push_pull(&g, src_pick.index(n));
    }

    /// SpGEMM: the statistics behind every variant's trace, and the
    /// useful work, equal the mBSR oracle on random square matrices.
    #[test]
    fn spgemm_stats_match_mbsr(
        n in 1usize..120,
        entries in proptest::collection::vec((0usize..120, 0usize..120, -5.0..5.0f64), 0..600),
    ) {
        assert_spgemm_matches_mbsr(&square(n, entries));
    }

    /// SpGEMM: every functional path equals its oracle bit for bit on
    /// random square matrices whose size is not a multiple of 4, with
    /// empty rows (every row divisible by `empty_every`) and ±1 values,
    /// so that many entries of `C` cancel to exact zeros.
    #[test]
    fn spgemm_paths_match_the_oracles(
        blocks in 0usize..12,
        tail in 1usize..4,
        empty_every in 2usize..6,
        entries in proptest::collection::vec((0usize..48, 0usize..48, any::<bool>()), 0..300),
    ) {
        let entries = entries
            .into_iter()
            .filter(|(r, _, _)| r % empty_every != 0)
            .map(|(r, c, plus)| (r, c, if plus { 1.0 } else { -1.0 }))
            .collect();
        assert_spgemm_matches_oracles(&square(4 * blocks + tail, entries));
    }
}
