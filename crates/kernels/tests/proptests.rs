//! Property-based tests of the workload implementations: every variant
//! must agree with its serial reference on arbitrary inputs, and TC must
//! be bit-identical to CC everywhere.

use cubie_core::counters::MemTraffic;
use cubie_core::mma::mma_b1_m8n8k128_and_popc;
use cubie_core::{ErrorStats, OpCounters, C64};
use cubie_graph::bitmap::{BitmapGraph, BLOCK_COLS, BLOCK_ROWS};
use cubie_graph::CsrGraph;
use cubie_kernels::{bfs, fft, gemv, reduction, scan, spmv, Variant};
use cubie_sim::trace::latency;
use cubie_sim::{KernelTrace, WorkloadTrace};
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
}
