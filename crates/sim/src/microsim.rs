//! A cycle-level micro-simulator of a single SM executing one thread
//! block — the validation companion to the analytic model.
//!
//! The analytic trace model (`timing.rs`) collapses a kernel into
//! aggregate pipe times plus a hand-derived `critical_cycles` chain. For
//! the single-block latency-bound kernels (the paper's 64–1024-element
//! Scan/Reduction cases) that chain estimate is load-bearing, so this
//! module provides an independent check: express the per-warp
//! *instruction streams* explicitly and schedule them cycle by cycle
//! against the SM's issue ports and dependency latencies.
//!
//! The machine model: an SM with four schedulers (one instruction issued
//! per scheduler per cycle), per-pipe issue intervals (an FP64 MMA
//! occupies the tensor pipe for several cycles; FP64 FMA warps share the
//! 32-lane FP64 unit), and per-instruction result latencies. Each warp
//! issues in order; an instruction marked dependent stalls until the
//! previous result of that warp is ready.

/// One warp-wide instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// FP64 `m8n8k4` tensor-core MMA.
    MmaF64,
    /// Single-bit `m8n8k128` MMA.
    MmaB1,
    /// Warp-wide FP64 FMA/add/mul.
    FmaF64,
    /// Warp shuffle.
    Shfl,
    /// Shared-memory load (round trip to the result).
    SmemLd,
    /// Shared-memory store.
    SmemSt,
    /// Global-memory load (L2 hit assumed for the small kernels this
    /// model targets).
    GmemLd,
    /// Block-wide barrier.
    Sync,
}

/// One instruction with its dependency *chain*: a warp holds several
/// independent register chains (e.g. two interleaved tile computations);
/// a dependent instruction stalls until the last result of *its own*
/// chain is ready, and every instruction advances its chain's timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// The operation.
    pub op: MicroOp,
    /// Which of the warp's dependency chains this instruction belongs to.
    pub chain: u8,
    /// Whether this instruction consumes its chain's previous result.
    pub dependent: bool,
}

/// Dependency chains per warp.
pub const CHAINS: usize = 8;

impl Instr {
    /// A dependent instruction on chain 0.
    pub fn dep(op: MicroOp) -> Self {
        Self {
            op,
            chain: 0,
            dependent: true,
        }
    }

    /// An independent instruction on chain 0.
    pub fn indep(op: MicroOp) -> Self {
        Self {
            op,
            chain: 0,
            dependent: false,
        }
    }

    /// A dependent instruction on a specific chain.
    pub fn dep_on(op: MicroOp, chain: u8) -> Self {
        Self {
            op,
            chain: chain % CHAINS as u8,
            dependent: true,
        }
    }

    /// An independent instruction on a specific chain.
    pub fn indep_on(op: MicroOp, chain: u8) -> Self {
        Self {
            op,
            chain: chain % CHAINS as u8,
            dependent: false,
        }
    }
}

/// Machine parameters of the modelled SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmModel {
    /// Concurrent issue ports (warp schedulers).
    pub schedulers: u32,
    /// Cycles the tensor pipe is occupied per FP64 MMA.
    pub tc_issue_interval: u32,
    /// Cycles the FP64 unit is occupied per warp-wide FMA.
    pub fp64_issue_interval: u32,
    /// Cycles the LSU is occupied per memory/shuffle instruction.
    pub lsu_issue_interval: u32,
    /// Result latencies per op.
    pub lat_mma: u32,
    /// Result latency of the bit MMA.
    pub lat_mma_b1: u32,
    /// Result latency of FP64 FMA.
    pub lat_fma: u32,
    /// Result latency of a shuffle.
    pub lat_shfl: u32,
    /// Result latency of a shared-memory load.
    pub lat_smem: u32,
    /// Result latency of a global load (L2 hit).
    pub lat_gmem: u32,
}

impl Default for SmModel {
    fn default() -> Self {
        Self {
            schedulers: 4,
            tc_issue_interval: 4,
            fp64_issue_interval: 2,
            lsu_issue_interval: 2,
            lat_mma: crate::trace::latency::MMA_F64 as u32,
            lat_mma_b1: crate::trace::latency::MMA_B1 as u32,
            lat_fma: crate::trace::latency::FMA_F64 as u32,
            lat_shfl: crate::trace::latency::SHFL as u32,
            lat_smem: crate::trace::latency::SMEM_RT as u32,
            lat_gmem: 200,
        }
    }
}

impl SmModel {
    fn result_latency(&self, op: MicroOp) -> u32 {
        match op {
            MicroOp::MmaF64 => self.lat_mma,
            MicroOp::MmaB1 => self.lat_mma_b1,
            MicroOp::FmaF64 => self.lat_fma,
            MicroOp::Shfl => self.lat_shfl,
            MicroOp::SmemLd => self.lat_smem,
            MicroOp::SmemSt => 1,
            MicroOp::GmemLd => self.lat_gmem,
            MicroOp::Sync => 1,
        }
    }

    fn pipe(&self, op: MicroOp) -> Pipe {
        match op {
            MicroOp::MmaF64 | MicroOp::MmaB1 => Pipe::Tensor,
            MicroOp::FmaF64 => Pipe::Fp64,
            MicroOp::Shfl | MicroOp::SmemLd | MicroOp::SmemSt | MicroOp::GmemLd => Pipe::Lsu,
            MicroOp::Sync => Pipe::None,
        }
    }

    fn issue_interval(&self, op: MicroOp) -> u32 {
        match self.pipe(op) {
            Pipe::Tensor => self.tc_issue_interval,
            Pipe::Fp64 => self.fp64_issue_interval,
            Pipe::Lsu => self.lsu_issue_interval,
            Pipe::None => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pipe {
    Tensor,
    Fp64,
    Lsu,
    None,
}

/// Outcome of a block simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockRun {
    /// Cycles until the last warp retired its last instruction.
    pub cycles: u64,
    /// Instructions issued.
    pub instructions: u64,
    /// Cycles the tensor pipe was busy.
    pub tc_busy: u64,
    /// Cycles the FP64 pipe was busy.
    pub fp64_busy: u64,
    /// Cycles the LSU was busy.
    pub lsu_busy: u64,
}

/// Simulate one block: `warps[w]` is warp `w`'s instruction stream.
/// `Sync` acts as a block-wide barrier: a warp at a `Sync` does not
/// proceed until every warp has reached its own pending `Sync`.
pub fn simulate_block(model: &SmModel, warps: &[Vec<Instr>]) -> BlockRun {
    assert!(!warps.is_empty(), "need at least one warp");
    let n = warps.len();
    let mut pc = vec![0usize; n];
    // Per-warp, per-chain timestamps of the last result.
    let mut ready_at = vec![[0u64; CHAINS]; n];
    let mut at_sync = vec![false; n];
    let mut pipe_free = [0u64; 3]; // Tensor, Fp64, Lsu
    let mut cycle: u64 = 0;
    let mut instructions = 0u64;
    let mut busy = [0u64; 3];

    let done = |pc: &Vec<usize>| pc.iter().zip(warps).all(|(p, w)| *p >= w.len());
    // Guard against livelock in case of a malformed stream.
    let budget: u64 = 10_000_000;

    while !done(&pc) && cycle < budget {
        // Barrier release: if every unfinished warp is waiting at a sync,
        // release them all.
        let all_at_sync = pc
            .iter()
            .zip(warps)
            .enumerate()
            .all(|(w, (p, stream))| *p >= stream.len() || at_sync[w]);
        if all_at_sync {
            for (w, flag) in at_sync.iter_mut().enumerate() {
                if *flag {
                    pc[w] += 1; // retire the sync
                    *flag = false;
                }
            }
            cycle += 1;
            continue;
        }

        let mut issued = 0u32;
        // Round-robin fairness: rotate the scheduling origin.
        for i in 0..n {
            let w = (i + cycle as usize) % n;
            if issued >= model.schedulers {
                break;
            }
            if pc[w] >= warps[w].len() || at_sync[w] {
                continue;
            }
            let instr = warps[w][pc[w]];
            if instr.op == MicroOp::Sync {
                at_sync[w] = true;
                continue;
            }
            let ch = instr.chain as usize % CHAINS;
            if instr.dependent && ready_at[w][ch] > cycle {
                continue;
            }
            let p = model.pipe(instr.op);
            let pi = match p {
                Pipe::Tensor => 0,
                Pipe::Fp64 => 1,
                Pipe::Lsu => 2,
                Pipe::None => usize::MAX,
            };
            if pi != usize::MAX && pipe_free[pi] > cycle {
                continue;
            }
            // Issue.
            if pi != usize::MAX {
                let interval = model.issue_interval(instr.op) as u64;
                pipe_free[pi] = cycle + interval;
                busy[pi] += interval;
            }
            ready_at[w][ch] = cycle + model.result_latency(instr.op) as u64;
            pc[w] += 1;
            issued += 1;
            instructions += 1;
        }
        cycle += 1;
    }
    // Account the in-flight results of the final instructions.
    let tail = ready_at
        .iter()
        .flat_map(|r| r.iter().copied())
        .max()
        .unwrap_or(0);
    BlockRun {
        cycles: cycle.max(tail),
        instructions,
        tc_busy: busy[0],
        fp64_busy: busy[1],
        lsu_busy: busy[2],
    }
}

/// Instruction streams for the tensor-core scan of one `n`-element case
/// (Section 3's three-constant-MMA kernel): used by tests to validate
/// the analytic `critical_cycles` estimates.
pub fn scan_tc_streams(n: usize) -> Vec<Vec<Instr>> {
    let tiles = n.div_ceil(64).max(1);
    let warps = tiles.min(8);
    let mut streams = Vec::new();
    for w in 0..warps {
        let my_tiles = tiles / warps + usize::from(w < tiles % warps);
        let mut s = Vec::new();
        // One global load stages the warp's tiles into shared memory.
        s.push(Instr::dep(MicroOp::GmemLd));
        for t in 0..my_tiles.max(1) {
            // Independent tile computations interleave on separate
            // chains; within a tile: fragment load, T = X·O (two
            // m8n8k4), Z = L·T (dependent), W = X·U (independent
            // sub-chain folded in), final combine add.
            let ch = (t % 4) as u8;
            s.push(Instr::dep_on(MicroOp::SmemLd, ch));
            s.push(Instr::dep_on(MicroOp::MmaF64, ch));
            s.push(Instr::dep_on(MicroOp::MmaF64, ch));
            s.push(Instr::dep_on(MicroOp::MmaF64, ch));
            s.push(Instr::dep_on(MicroOp::MmaF64, ch));
            s.push(Instr::indep_on(MicroOp::MmaF64, ch));
            s.push(Instr::indep_on(MicroOp::MmaF64, ch));
            s.push(Instr::dep_on(MicroOp::FmaF64, ch));
        }
        if tiles > 1 {
            s.push(Instr::indep(MicroOp::SmemSt)); // tile total
            s.push(Instr::indep(MicroOp::Sync));
            if w == 0 {
                // One warp scans the tile totals.
                s.push(Instr::dep(MicroOp::SmemLd));
                for _ in 0..6 {
                    s.push(Instr::dep(MicroOp::MmaF64));
                }
                s.push(Instr::indep(MicroOp::SmemSt));
            }
            s.push(Instr::indep(MicroOp::Sync));
            s.push(Instr::dep(MicroOp::SmemLd)); // offset
            s.push(Instr::dep(MicroOp::FmaF64)); // uniform add
        }
        s.push(Instr::indep(MicroOp::SmemSt)); // result store
        streams.push(s);
    }
    streams
}

/// Instruction streams for the CUB-style baseline scan (per-thread serial
/// scan + raking warp scan + uniform add).
pub fn scan_baseline_streams(n: usize) -> Vec<Vec<Instr>> {
    let threads = 128.min(n.max(1));
    let warps = threads.div_ceil(32).max(1);
    let per_thread = n.div_ceil(threads).max(1);
    let mut streams = Vec::new();
    for w in 0..warps {
        let mut s = Vec::new();
        s.push(Instr::dep(MicroOp::GmemLd));
        // Thread-serial scan.
        for _ in 0..per_thread {
            s.push(Instr::dep(MicroOp::FmaF64));
        }
        s.push(Instr::indep(MicroOp::SmemSt));
        s.push(Instr::indep(MicroOp::Sync));
        if w == 0 {
            // Raking warp: serial rake + Kogge–Stone over 32 lanes.
            s.push(Instr::dep(MicroOp::SmemLd));
            for _ in 0..4 {
                s.push(Instr::dep(MicroOp::FmaF64));
            }
            for _ in 0..5 {
                s.push(Instr::dep(MicroOp::Shfl));
                s.push(Instr::dep(MicroOp::FmaF64));
            }
            s.push(Instr::indep(MicroOp::SmemSt));
        }
        s.push(Instr::indep(MicroOp::Sync));
        s.push(Instr::dep(MicroOp::SmemLd));
        // Uniform add of the exclusive offset.
        for _ in 0..per_thread {
            s.push(Instr::dep(MicroOp::FmaF64));
        }
        s.push(Instr::indep(MicroOp::SmemSt));
        streams.push(s);
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_dependent_chain_is_latency_bound() {
        let m = SmModel::default();
        let chain: Vec<Instr> = (0..10).map(|_| Instr::dep(MicroOp::MmaF64)).collect();
        let r = simulate_block(&m, &[chain]);
        // 10 dependent MMAs ≈ 10 × lat_mma.
        let expect = 10 * m.lat_mma as u64;
        assert!(
            r.cycles >= expect && r.cycles <= expect + 16,
            "cycles {} vs expected ~{}",
            r.cycles,
            expect
        );
    }

    #[test]
    fn independent_ops_pipeline() {
        let m = SmModel::default();
        let stream: Vec<Instr> = (0..32).map(|_| Instr::indep(MicroOp::MmaF64)).collect();
        let r = simulate_block(&m, &[stream]);
        // Issue-interval bound, not latency bound.
        let expect = 32 * m.tc_issue_interval as u64;
        assert!(
            r.cycles < expect + m.lat_mma as u64 + 8,
            "cycles {} should approach the issue bound {}",
            r.cycles,
            expect
        );
    }

    #[test]
    fn multiple_warps_share_pipes() {
        let m = SmModel::default();
        let per_warp: Vec<Instr> = (0..16).map(|_| Instr::dep(MicroOp::MmaF64)).collect();
        let one = simulate_block(&m, std::slice::from_ref(&per_warp)).cycles;
        let eight = simulate_block(&m, &vec![per_warp; 8]).cycles;
        // Eight dependent chains interleave: total MMA issues = 128 at
        // one per 4 cycles = 512 cycles > single-chain latency 384.
        assert!(eight > one, "eight warps {eight} vs one {one}");
        assert!(
            eight < 8 * one,
            "chains must overlap: {eight} vs serial {}",
            8 * one
        );
    }

    #[test]
    fn sync_is_a_barrier() {
        let m = SmModel::default();
        // Warp 0: long chain then sync; warp 1: sync then one op.
        let w0: Vec<Instr> = (0..20)
            .map(|_| Instr::dep(MicroOp::FmaF64))
            .chain([Instr::indep(MicroOp::Sync), Instr::dep(MicroOp::FmaF64)])
            .collect();
        let w1 = vec![Instr::indep(MicroOp::Sync), Instr::dep(MicroOp::FmaF64)];
        let r = simulate_block(&m, &[w0, w1]);
        // Warp 1 must wait for warp 0's 20-FMA chain.
        assert!(r.cycles > 20 * m.lat_fma as u64);
    }

    #[test]
    fn scan_microsim_brackets_the_analytic_shape() {
        // The cycle-level schedule confirms the small-case TC win and
        // bounds the large-case behaviour: with only an `m8n8k4`-wide
        // FP64 MMA (4-cycle issue interval), the 96+ MMAs of the 1024-
        // element scan keep one SM's tensor pipe busy long enough that
        // the TC advantage shrinks — an honest micro-level finding the
        // analytic model's calibrated latency table glosses over (see
        // EXPERIMENTS.md, deviations).
        let m = SmModel::default();
        let tc64 = simulate_block(&m, &scan_tc_streams(64)).cycles;
        let base64 = simulate_block(&m, &scan_baseline_streams(64)).cycles;
        assert!(
            tc64 < base64,
            "single-tile TC {tc64} must beat the shuffle baseline {base64}"
        );
        for n in [128usize, 256, 512, 1024] {
            let tc = simulate_block(&m, &scan_tc_streams(n)).cycles;
            let base = simulate_block(&m, &scan_baseline_streams(n)).cycles;
            let ratio = tc as f64 / base as f64;
            assert!(
                (0.3..2.0).contains(&ratio),
                "n={n}: TC {tc} vs baseline {base} outside the plausible band"
            );
        }
    }

    #[test]
    fn wider_tensor_pipe_restores_the_tc_win() {
        // With a Hopper-class FP64 MMA issue rate (2 cycles instead of
        // 4), the tensor pipe stops binding and TC wins every size —
        // matching the paper's observation that Hopper sustains the
        // scan speedup.
        let narrow = SmModel::default();
        let wide = SmModel {
            tc_issue_interval: 1,
            ..SmModel::default()
        };
        for n in [256usize, 512, 1024] {
            let tc_narrow = simulate_block(&narrow, &scan_tc_streams(n)).cycles;
            let tc_wide = simulate_block(&wide, &scan_tc_streams(n)).cycles;
            assert!(
                tc_wide < tc_narrow,
                "n={n}: widening the MMA pipe must help ({tc_wide} vs {tc_narrow})"
            );
        }
        // The baseline does not benefit from the tensor pipe at all.
        let b_narrow = simulate_block(&narrow, &scan_baseline_streams(1024)).cycles;
        let b_wide = simulate_block(&wide, &scan_baseline_streams(1024)).cycles;
        assert_eq!(b_narrow, b_wide);
    }

    #[test]
    fn microsim_agrees_with_analytic_latency_within_2x() {
        // The analytic `critical_cycles` of the scan traces should be
        // within a factor of two of the cycle-level simulation — the
        // validation the latency model rests on.
        let m = SmModel::default();
        for n in [64usize, 256, 1024] {
            let micro = simulate_block(&m, &scan_tc_streams(n)).cycles as f64;
            // Reconstruct the per-execution analytic estimate (the trace
            // multiplies by its benchmark repeat count).
            let hierarchical = n > 64;
            let level =
                2.0 * (2.0 * crate::trace::latency::MMA_F64) + crate::trace::latency::FMA_F64;
            let analytic = crate::trace::latency::SMEM_RT
                + level
                + if hierarchical {
                    crate::trace::latency::SMEM_RT + level + crate::trace::latency::FMA_F64
                } else {
                    0.0
                };
            let ratio = micro / analytic;
            assert!(
                (0.5..8.0).contains(&ratio),
                "n={n}: micro {micro} vs analytic {analytic} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn empty_streams_finish_immediately() {
        let m = SmModel::default();
        let r = simulate_block(&m, &[vec![]]);
        assert!(r.cycles <= 1);
        assert_eq!(r.instructions, 0);
    }
}
