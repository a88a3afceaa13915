//! Data-parallel helpers for the functional kernel executions, running
//! on the persistent worker pool in [`crate::pool`].
//!
//! The workloads model GPU thread *blocks*; functionally we execute
//! block ranges across CPU threads. Work is distributed dynamically
//! (atomic cursor), but every index is claimed exactly once and written
//! to its own output slot, so results are index-ordered and
//! bit-identical for any worker cap — `--jobs 1` and `--jobs 8` produce
//! the same bytes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker cap: 0 means "use all available cores". Set via
/// [`set_max_workers`] (the `--jobs N` flag of the sweep engine).
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Cap the number of worker threads every subsequent `par_*` call may
/// use (0 restores "all available cores"). Returns the previous cap.
///
/// Results of `par_map` are collected in index order, so changing the
/// cap never changes any result — only the wall-clock time.
/// The persistent pool resizes to the new cap: shrinking retires parked
/// workers, growing spawns lazily on the next parallel call.
pub fn set_max_workers(n: usize) -> usize {
    let prev = MAX_WORKERS.swap(n, Ordering::Relaxed);
    crate::pool::resize_to_cap();
    prev
}

/// The current worker cap (0 = uncapped).
pub fn max_workers() -> usize {
    MAX_WORKERS.load(Ordering::Relaxed)
}

/// The job count the pool actually runs with: the explicit cap when one
/// is set, otherwise one worker per available core. This is the single
/// source of truth for every "effective jobs" startup log line — the
/// sweep CLI reports this value, so what is printed is what
/// [`workers_for`] hands the pool.
pub fn effective_workers() -> usize {
    let cap = MAX_WORKERS.load(Ordering::Relaxed);
    if cap == 0 {
        // Uncapped: one worker per available core (resolved once per
        // process — see `pool::host_parallelism`).
        crate::pool::host_parallelism()
    } else {
        // An explicit cap is honoured verbatim — deliberately allowed to
        // exceed the core count so `--jobs N` exercises real multi-thread
        // schedules (and their equivalence tests) on small machines.
        cap
    }
}

/// Number of worker threads to use for `n` independent work items.
pub fn workers_for(n: usize) -> usize {
    if n <= 1 {
        return 1;
    }
    effective_workers().min(n)
}

/// Map `f` over `0..n` in parallel, collecting results in index order.
///
/// `f` is called exactly once per index. Work is distributed dynamically
/// (atomic counter) so irregular workloads — sparse rows, BFS frontiers —
/// balance across threads.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_chunked(n, |workers| (n / (workers * 8)).max(1), f)
}

/// [`par_map`] with the number of indices a worker claims at a time
/// chosen by `chunk(workers)`.
fn par_map_chunked<T, F>(n: usize, chunk: impl Fn(usize) -> usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers_for(n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<T> = Vec::with_capacity(n);
    let next = AtomicUsize::new(0);
    let chunk = chunk(workers);
    let slots = SendSlots(out.as_mut_ptr());
    crate::pool::run_batch(workers - 1, &|| {
        let mut span = cubie_obs::span("par", "map");
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            span.add_items((end - start) as u64);
            for i in start..end {
                // SAFETY: each index is claimed exactly once by the
                // atomic counter, so no two threads touch the same slot.
                unsafe {
                    slots.set(i, f(i));
                }
            }
        }
    });
    // SAFETY: the cursor handed out every index in 0..n and `run_batch`
    // returned normally, so all n slots are initialized. (If a worker
    // panicked, `run_batch` re-raised above and the still-empty Vec
    // leaks the written elements — safe, if wasteful.)
    unsafe { out.set_len(n) };
    out
}

/// Longest-processing-time-first dispatch order for `n` items with
/// per-item cost estimates: indices sorted by `cost` descending, ties
/// broken by index ascending (so the order is total and deterministic).
///
/// Dispatching the heaviest items first shrinks the makespan of a
/// bounded worker pool: a multi-second item started last would leave
/// every other worker idle behind it, while started first it overlaps
/// the long tail of cheap items. The permutation affects *schedule
/// only* — callers scatter results back to canonical positions, so
/// output stays bit-identical for any job count.
pub fn makespan_order(n: usize, cost: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        cost(b)
            .partial_cmp(&cost(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// [`par_map`] with LPT scheduling: items are *dispatched* in
/// [`makespan_order`], one per claim, so the heaviest items start on
/// different workers, but *collected* at their original indices, so the
/// result is element-for-element identical to `par_map(n, f)` — only the
/// wall-clock schedule differs (sort the keys, never the results).
pub fn par_map_lpt<T: Send>(
    n: usize,
    cost: impl Fn(usize) -> f64,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let order = makespan_order(n, cost);
    let permuted = par_map_chunked(n, |_| 1, |slot| f(order[slot]));
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (slot, item) in permuted.into_iter().enumerate() {
        out[order[slot]] = Some(item);
    }
    out.into_iter().map(|o| o.unwrap()).collect()
}

/// Apply `f` to equally sized chunks of `data` in parallel;
/// `f(chunk_index, chunk)` sees disjoint mutable sub-slices.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_size: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = data.len().div_ceil(chunk_size);
    let workers = workers_for(n_chunks);
    if workers == 1 {
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let base = data.as_mut_ptr() as usize;
    let len = data.len();
    crate::pool::run_batch(workers - 1, &|| {
        let mut span = cubie_obs::span("par", "chunks");
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            let start = i * chunk_size;
            let end = (start + chunk_size).min(len);
            // Items are *elements* processed (matching `par_map`), not
            // chunk count, so profile attribution is comparable.
            span.add_items((end - start) as u64);
            // SAFETY: chunk index `i` is claimed exactly once, and the
            // [start, end) ranges of distinct chunks are disjoint
            // within the original slice.
            let chunk =
                unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), end - start) };
            f(i, chunk);
        }
    });
}

/// Raw-pointer view of `par_map`'s uninitialized output buffer,
/// shareable across the pool workers.
struct SendSlots<T>(*mut T);
unsafe impl<T: Send> Sync for SendSlots<T> {}
impl<T> SendSlots<T> {
    /// # Safety
    /// Caller must guarantee exclusive access to index `i`, which must be
    /// in bounds of the buffer the slots were created from; the slot must
    /// be uninitialized (the write does not drop a previous value).
    unsafe fn set(&self, i: usize, value: T) {
        unsafe { self.0.add(i).write(value) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let v = par_map(1000, |i| i * 2);
        assert_eq!(v.len(), 1000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn par_map_empty() {
        let v: Vec<usize> = par_map(0, |i| i);
        assert!(v.is_empty());
    }

    #[test]
    fn par_map_single() {
        let v = par_map(1, |i| i + 41);
        assert_eq!(v, vec![41]);
    }

    #[test]
    fn par_map_nontrivial_drop_types() {
        let v = par_map(500, |i| vec![i; i % 7]);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(x.len(), i % 7);
        }
        drop(v); // every element must drop cleanly exactly once
    }

    #[test]
    fn par_chunks_mut_writes_disjointly() {
        let mut data = vec![0u64; 1003];
        par_chunks_mut(&mut data, 17, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci as u64 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / 17) as u64 + 1);
        }
    }

    #[test]
    fn par_chunks_mut_exact_division() {
        let mut data = vec![0u32; 64];
        par_chunks_mut(&mut data, 8, |ci, chunk| {
            assert_eq!(chunk.len(), 8);
            chunk[0] = ci as u32;
        });
        assert_eq!(data[56], 7);
    }

    #[test]
    fn workers_for_bounds() {
        assert_eq!(workers_for(0), 1);
        assert_eq!(workers_for(1), 1);
        assert!(workers_for(100) >= 1);
    }

    #[test]
    fn effective_workers_tracks_the_cap() {
        let _guard = crate::pool::cap_lock();
        let prev = set_max_workers(3);
        assert_eq!(effective_workers(), 3);
        assert_eq!(workers_for(100), 3);
        set_max_workers(0);
        // Uncapped: the pool's host-parallelism resolution, and
        // workers_for hands out exactly that (modulo the item count).
        assert_eq!(effective_workers(), crate::pool::host_parallelism());
        assert_eq!(workers_for(usize::MAX), effective_workers());
        set_max_workers(prev);
    }
}
