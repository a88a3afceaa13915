//! A persistent, lazily initialized worker pool behind the [`crate::par`]
//! helpers.
//!
//! The previous implementation spawned fresh OS threads with
//! `std::thread::scope` on **every** `par_map`/`par_chunks_mut` call —
//! thousands of spawns per sweep, each costing tens of microseconds of
//! kernel work before the first item executes. This module replaces that
//! with long-lived workers parked on a condvar:
//!
//! * **Jobs are cooperative batches.** A submitted job is one `Fn() +
//!   Sync` *worker loop* — the same `(AtomicUsize cursor, chunk)`
//!   claiming loop the scoped version ran — published with a ticket
//!   count. The submitting thread always runs the loop inline; parked
//!   workers claim the remaining tickets and run the identical loop.
//!   Because one execution of the loop drains the whole cursor, a job
//!   completes even if **no** worker ever picks up a ticket — helpers
//!   only add parallelism, never correctness. That property makes nested
//!   `par_*` calls (the sweep nests three deep: workloads → traces →
//!   kernel tiles) trivially deadlock-free: an inner submit parks no one
//!   and waits only for helpers that already started.
//! * **Results stay bit-identical.** Work distribution is dynamic, but
//!   every index is claimed exactly once and written to its own slot, so
//!   any schedule — zero helpers, all helpers, mid-job resizes — yields
//!   the same bytes.
//! * **The pool resizes with [`crate::par::set_max_workers`].** The
//!   target size tracks the worker cap (cap − 1 helpers; the submitter
//!   is the remaining worker); shrinking wakes excess threads so they
//!   exit, growing spawns lazily on the next submit. Threads are named
//!   `cubie-worker` and park when idle, so a quiescent pool costs zero
//!   CPU.
//!
//! Worker panics are caught, forwarded to the submitter, and re-raised
//! after the batch quiesces — the same observable behaviour as a scoped
//! spawn, without poisoning the pool.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Type-erased pointer to a borrowed `Fn() + Sync` worker loop. The
/// submitter guarantees (by waiting on the job's [`Latch`] before
/// returning) that the pointee outlives every execution.
struct WorkPtr(*const (dyn Fn() + Sync));
unsafe impl Send for WorkPtr {}

/// Completion tracking of one job: the number of claimed executions
/// still running, plus the first panic payload any of them raised.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    running: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new() -> Self {
        Latch {
            state: Mutex::new(LatchState {
                running: 0,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }
}

/// One published batch: claimable by up to `tickets` more workers.
struct Job {
    id: u64,
    work: WorkPtr,
    tickets: usize,
    latch: Arc<Latch>,
}

struct State {
    /// Open jobs in submission order; workers claim from the front.
    jobs: Vec<Job>,
    /// Worker threads currently alive (parked or running).
    threads: usize,
    /// Desired helper count: threads beyond this exit when idle.
    target: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Parked workers wait here for jobs (or a shrink notification).
    work: Condvar,
}

static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(0);

/// Whether the pool singleton has ever been touched; lets
/// [`resize_to_cap`] stay a true no-op before first use.
static STARTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            jobs: Vec::new(),
            threads: 0,
            target: desired_helpers(),
        }),
        work: Condvar::new(),
    })
}

/// The host's core count, resolved once per process (the
/// `available_parallelism` syscall is not free on the dispatch path).
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Helper-thread target under the current worker cap: the cap (or the
/// core count when uncapped) minus the submitting thread itself.
fn desired_helpers() -> usize {
    let cap = crate::par::max_workers();
    let limit = if cap == 0 { host_parallelism() } else { cap };
    limit.saturating_sub(1)
}

/// Re-align the pool's size target with the worker cap (called by
/// [`crate::par::set_max_workers`]): shrinking wakes parked excess
/// workers so they exit promptly; growth happens lazily on the next
/// submit. No-op if the pool was never used.
pub(crate) fn resize_to_cap() {
    if !STARTED.load(Ordering::Acquire) {
        return; // pool never initialized; nothing to resize
    }
    let p = pool();
    let mut st = p.state.lock().unwrap();
    st.target = desired_helpers();
    if st.threads > st.target {
        drop(st);
        p.work.notify_all();
    }
}

/// Worker threads currently alive in the pool (parked or running).
/// Exposed for the leak/reuse regression tests and `cubie profile`.
pub fn worker_count() -> usize {
    pool().state.lock().unwrap().threads
}

/// The pool-sizing announcement for the *current* cap, in the spelling
/// [`prewarm`] logs. Long-running consumers (`cubied`) re-emit this per
/// startup banner instead of relying on the once-per-process log.
pub fn announce_line() -> String {
    format!(
        "cubie: worker pool {} helper(s) + submitter ({} host core(s))",
        desired_helpers(),
        host_parallelism()
    )
}

/// Spawn workers up to the current target without submitting work, so
/// the first parallel region of a sweep does not pay thread creation.
/// The first prewarm of the process announces the pool sizing through
/// [`cubie_obs::log`]: on stderr unless the consumer disabled the echo.
/// `cubied` re-states it in its startup banner via [`announce_line`].
pub fn prewarm() {
    STARTED.store(true, Ordering::Release);
    let p = pool();
    let mut st = p.state.lock().unwrap();
    st.target = desired_helpers();
    let want = st.target;
    while st.threads < want {
        st.threads += 1;
        spawn_worker();
    }
    drop(st);
    static ANNOUNCED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    if !ANNOUNCED.swap(true, Ordering::Relaxed) {
        cubie_obs::log(announce_line());
    }
}

fn spawn_worker() {
    std::thread::Builder::new()
        .name("cubie-worker".into())
        .spawn(worker_loop)
        .expect("spawn cubie worker thread");
}

fn worker_loop() {
    let p = pool();
    loop {
        let (work, latch) = {
            let mut st = p.state.lock().unwrap();
            loop {
                if let Some(job) = st.jobs.first_mut() {
                    let work = WorkPtr(job.work.0);
                    let latch = Arc::clone(&job.latch);
                    // Count this execution as running *before* releasing
                    // the pool lock, so a submitter closing the job
                    // cannot observe an empty latch while we start.
                    latch.state.lock().unwrap().running += 1;
                    job.tickets -= 1;
                    if job.tickets == 0 {
                        st.jobs.remove(0);
                    }
                    break (work, latch);
                }
                if st.threads > st.target {
                    st.threads -= 1;
                    return; // pool shrank; retire this thread
                }
                st = p.work.wait(st).unwrap();
            }
        };
        // The worker loop is an `Fn` over Sync captures; unwind safety is
        // asserted because a panicking item leaves only unclaimed output
        // slots, which the submitter never reads (it re-raises first).
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*work.0)() }));
        let mut l = latch.state.lock().unwrap();
        l.running -= 1;
        if let Err(payload) = result {
            l.panic.get_or_insert(payload);
        }
        let quiesced = l.running == 0;
        drop(l);
        if quiesced {
            latch.done.notify_all();
        }
    }
}

/// Serialize tests that mutate the process-wide worker cap or assert on
/// the pool's size; the pool is a process singleton, so such tests would
/// otherwise race each other under the multi-threaded test harness.
/// `pub` (not `cfg(test)`) so downstream crates' test suites can take
/// the same lock — it guards a process singleton, not a crate one.
pub fn cap_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `work` on the calling thread plus up to `helpers` pool workers,
/// returning once every started execution has finished. `work` must be a
/// self-draining claiming loop: correctness may not depend on how many
/// helpers (zero included) actually run it.
///
/// Panics raised by any execution (inline or helper) are re-raised here
/// after the batch quiesces, so borrowed captures stay valid for the
/// full lifetime of every worker.
pub(crate) fn run_batch(helpers: usize, work: &(dyn Fn() + Sync)) {
    if helpers == 0 {
        work();
        return;
    }
    STARTED.store(true, Ordering::Release);
    let p = pool();
    let latch = Arc::new(Latch::new());
    let id = NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed);
    // SAFETY: the job is removed from the queue and its latch drained
    // before this function returns, so no worker dereferences `work`
    // after the borrow ends.
    let work_static: *const (dyn Fn() + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn() + Sync), *const (dyn Fn() + Sync)>(work) };
    {
        let mut st = p.state.lock().unwrap();
        st.target = desired_helpers();
        let want = helpers.min(st.target);
        while st.threads < want {
            st.threads += 1;
            spawn_worker();
        }
        st.jobs.push(Job {
            id,
            work: WorkPtr(work_static),
            tickets: helpers,
            latch: Arc::clone(&latch),
        });
    }
    p.work.notify_all();

    // The submitter is always worker 0: the batch completes even if every
    // pool thread is busy elsewhere.
    let inline = catch_unwind(AssertUnwindSafe(work));

    // Close the job (stale tickets are help that never arrived), then
    // wait for helpers that did claim.
    {
        let mut st = p.state.lock().unwrap();
        if let Some(pos) = st.jobs.iter().position(|j| j.id == id) {
            st.jobs.remove(pos);
        }
    }
    let mut l = latch.state.lock().unwrap();
    while l.running > 0 {
        l = latch.done.wait(l).unwrap();
    }
    let helper_panic = l.panic.take();
    drop(l);

    if let Err(payload) = inline {
        resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::{par_map, set_max_workers};
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Poll [`worker_count`] until it is at most `limit` or `budget` has
    /// passed; returns the last count seen.
    fn wait_for_workers_at_most(limit: usize, budget: Duration) -> usize {
        let deadline = Instant::now() + budget;
        let mut seen = worker_count();
        while seen > limit && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            seen = worker_count();
        }
        seen
    }

    /// Set the worker cap and wait for the pool to settle at or below
    /// `cap − 1` helpers. Helpers retire lazily, so a test that grew the
    /// pool (a cap of 8 leaves 7) can leave excess threads alive after it
    /// drops [`cap_lock`]; tests that assert on the pool's size start
    /// from here, under that lock. Returns the previous cap.
    fn set_cap_and_settle(cap: usize) -> usize {
        let prev = set_max_workers(cap);
        let limit = desired_helpers();
        let seen = wait_for_workers_at_most(limit, Duration::from_secs(10));
        assert!(
            seen <= limit,
            "pool did not settle at cap {cap}: {seen} helpers"
        );
        prev
    }

    #[test]
    fn batch_completes_with_zero_helpers_available() {
        // Saturate the claim path: even if no helper claims a ticket, the
        // inline execution drains the cursor.
        let n = 257;
        let next = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        run_batch(3, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let out = par_map(8, |i| par_map(8, move |j| i * 8 + j).iter().sum::<usize>());
        let total: usize = out.iter().sum();
        assert_eq!(total, (0..64).sum::<usize>());
    }

    #[test]
    fn worker_panic_propagates_to_submitter() {
        let result = std::panic::catch_unwind(|| {
            par_map(1000, |i| {
                if i == 517 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        assert!(result.is_err(), "panic must cross the pool boundary");
        // The pool must remain usable afterwards.
        let v = par_map(100, |i| i + 1);
        assert_eq!(v[99], 100);
    }

    #[test]
    fn pool_threads_are_reused_not_leaked() {
        let _guard = cap_lock();
        let prev = set_cap_and_settle(4);
        let _ = par_map(64, |i| i); // populate the pool
        let after_first = worker_count();
        for _ in 0..100 {
            let _ = par_map(64, |i| i * 2);
        }
        let after_hundred = worker_count();
        set_max_workers(prev);
        assert!(after_first <= 3, "cap 4 means at most 3 helpers");
        assert_eq!(
            after_first, after_hundred,
            "pool size must be stable across calls"
        );
    }

    #[test]
    fn shrink_retires_excess_workers() {
        let _guard = cap_lock();
        let prev = set_cap_and_settle(6);
        let _ = par_map(256, |i| i);
        assert!(worker_count() <= 5);
        set_max_workers(2);
        // Give retirees a beat to run: parked excess workers exit on
        // wake; poll briefly for the condvar round-trip.
        let _ = par_map(256, |i| i);
        let shrunk = wait_for_workers_at_most(1, Duration::from_millis(200));
        set_max_workers(prev);
        assert!(shrunk <= 1, "cap 2 leaves at most 1 helper, saw {shrunk}");
    }
}
