//! The `cubied` daemon: a threaded async request layer over the
//! persistent worker pool.
//!
//! One accept loop + one thread per connection; the expensive work
//! (sweep execution) is **batched and deduplicated** behind an in-flight
//! table keyed by the canonical request key — N clients asking for the
//! same cell trigger exactly one sweep execution, the other N−1 block on
//! the flight's condvar and receive the same payload (`"store":
//! "dedup"`, dedup counter == N−1). Completed executions persist to the
//! content-addressed [`Store`], so the next identical request — even
//! after a restart — is a pure store hit, bit-identical to the fresh
//! run by construction of the canonical golden writer.
//!
//! **Admission control** keeps one heavy spgemm sweep from starving
//! interactive traffic: at most [`ServeConfig::heavy_slots`] sweep or
//! profile executions run concurrently, at most
//! [`ServeConfig::queue_limit`] more may wait (beyond that the request
//! is rejected with a `server busy` backpressure error, never queued
//! unboundedly), per-request `jobs` are clamped to
//! [`ServeConfig::max_jobs`], and `advise`/`ping`/`stats` bypass the
//! heavy gate entirely. Every outcome increments one of the daemon's
//! own atomic counters (`hit`, `miss`, `dedup`, `rejected`, …), which
//! the `stats` response reports.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cubie_analysis::advisor::{advise, reference_mapping, source_variant};
use cubie_analysis::metrics::REPRESENTATIVE_CASE;
use cubie_bench::{SweepCache, SweepRunner};
use cubie_golden::{obj, Json};
use cubie_kernels::Workload;

use crate::proto::{
    error_response, ok_response, parse_request, AdviseSpec, Request, SweepSpec, PROTO_VERSION,
};
use crate::store::{Lookup, Store, StoreKey};

/// Daemon configuration: socket/store locations plus the admission
/// knobs (see README, "Running cubied").
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path. A stale socket file is replaced on startup.
    pub socket: PathBuf,
    /// Content-addressed store directory.
    pub store_dir: PathBuf,
    /// Per-request worker cap: client `jobs` values are clamped to this
    /// (0 = no cap, trust the client).
    pub max_jobs: usize,
    /// Concurrent heavy executions (sweep/profile). 1 serializes the
    /// pool, which also keeps `profile` span attribution clean.
    pub heavy_slots: usize,
    /// Heavy requests allowed to wait beyond the running ones; the next
    /// one is rejected with a backpressure error.
    pub queue_limit: usize,
    /// Test hook: artificial delay inside each execution (inside a
    /// profile's recording window too), widening the dedup and overlap
    /// windows deterministically. 0 in production.
    pub exec_delay_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("results/cubied.sock"),
            store_dir: PathBuf::from("results/store"),
            max_jobs: cubie_core::pool::host_parallelism(),
            heavy_slots: 1,
            queue_limit: 16,
            exec_delay_ms: 0,
        }
    }
}

/// Per-daemon request counters, read lock-free by `stats` responses.
/// Per daemon rather than process-global, so several daemons in one
/// process (tests, benchmarks) each report only their own traffic.
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    dedups: AtomicU64,
    executions: AtomicU64,
    invalidated: AtomicU64,
    rejected: AtomicU64,
    advises: AtomicU64,
    profiles: AtomicU64,
    errors: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The payload one execution publishes to its dedup waiters.
#[derive(Clone)]
struct FlightOut {
    address: String,
    cells: u64,
    artifact: Arc<Json>,
}

/// One in-flight execution: waiters block on the condvar until the
/// executor publishes a result (or an error).
struct Flight {
    slot: Mutex<Option<Result<FlightOut, String>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Arc<Flight> {
        Arc::new(Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn publish(&self, result: Result<FlightOut, String>) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<FlightOut, String> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[derive(Default)]
struct Gate {
    running: usize,
    queued: usize,
}

/// The daemon state shared by the accept loop and every connection
/// handler.
pub struct Daemon {
    cfg: ServeConfig,
    store: Store,
    stats: Stats,
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    stop: AtomicBool,
    active: AtomicUsize,
    started: Instant,
}

/// Held across each `profile`'s span-recorder bracket
/// (`cubie_obs::enable` … `drain`). The recorder is process-global, so
/// the lock is too: profiles run one at a time, across every daemon in
/// the process, and none clears or stops another's recording.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

/// A running daemon: join/shutdown handle returned by [`Daemon::start`].
pub struct Handle {
    daemon: Arc<Daemon>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Handle {
    /// The daemon's socket path.
    pub fn socket(&self) -> &std::path::Path {
        &self.daemon.cfg.socket
    }

    /// Ask the accept loop to stop and wait for every in-flight
    /// connection to drain. Idempotent.
    pub fn shutdown(&mut self) {
        self.daemon.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until the daemon exits (a client `shutdown` request, or
    /// [`Handle::shutdown`] from another thread).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Daemon {
    /// Open the store, bind the socket, log the startup banner, and
    /// spawn the accept loop. The returned [`Handle`] owns the daemon:
    /// dropping it shuts the daemon down.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Handle> {
        let (store, report) = Store::open(&cfg.store_dir)?;
        if cfg.socket.exists() {
            std::fs::remove_file(&cfg.socket)?;
        }
        if let Some(parent) = cfg.socket.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let listener = UnixListener::bind(&cfg.socket)?;
        listener.set_nonblocking(true)?;

        // Per-startup banner: protocol, SIMD dispatch, pool sizing,
        // store revalidation verdict, admission knobs — routed through
        // `cubie_obs::log`, so a long-running daemon re-states them on
        // every startup instead of once per process.
        cubie_obs::log(format!(
            "cubied: {PROTO_VERSION} listening on {}",
            cfg.socket.display()
        ));
        cubie_obs::log(cubie_core::simd::dispatch_line().to_string());
        cubie_obs::log(cubie_core::pool::announce_line());
        cubie_obs::log(format!(
            "cubied: store {} — {} entries kept, {} tmp swept, {} invalidated",
            cfg.store_dir.display(),
            report.kept,
            report.removed_tmp,
            report.removed_invalid
        ));
        cubie_obs::log(format!(
            "cubied: admission max_jobs={} heavy_slots={} queue_limit={}",
            cfg.max_jobs, cfg.heavy_slots, cfg.queue_limit
        ));

        // Prewarm the prepared-input store: revalidate every snapshot
        // (checksumming reads each byte, populating the page cache) and
        // sweep stale `.tmp` / invalid entries, so the first sweep a
        // client submits loads its inputs instead of regenerating them.
        let prep_cfg = cubie_prep::PrepConfig::from_env();
        if prep_cfg.enabled {
            let prep = cubie_prep::prewarm(&prep_cfg);
            cubie_obs::log(format!(
                "cubied: prep store {} — {} snapshots ({} bytes) prewarmed, {} tmp swept, {} invalidated",
                prep_cfg.dir.display(),
                prep.kept,
                prep.kept_bytes,
                prep.removed_tmp,
                prep.removed_invalid
            ));
        } else {
            cubie_obs::log("cubied: prep store disabled (CUBIE_PREP_CACHE=off)".to_string());
        }

        let daemon = Arc::new(Daemon {
            cfg,
            store,
            stats: Stats::default(),
            inflight: Mutex::new(HashMap::new()),
            gate: Mutex::new(Gate::default()),
            gate_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            started: Instant::now(),
        });

        let accept_daemon = Arc::clone(&daemon);
        let accept_thread = std::thread::Builder::new()
            .name("cubied-accept".into())
            .spawn(move || accept_loop(accept_daemon, listener))?;

        Ok(Handle {
            daemon,
            accept_thread: Some(accept_thread),
        })
    }

    /// Clamp a client's requested worker cap to the admission cap.
    fn clamp_jobs(&self, requested: Option<usize>) -> Option<usize> {
        match (requested, self.cfg.max_jobs) {
            (None, 0) => None,
            (None, cap) => Some(cap),
            (Some(r), 0) => Some(r.max(1)),
            (Some(r), cap) => Some(r.clamp(1, cap)),
        }
    }

    /// Take a heavy-execution slot, waiting in the bounded queue.
    /// Errors (instead of queueing) once the queue is full — the
    /// backpressure half of admission control.
    fn acquire_heavy(&self) -> Result<(), String> {
        let mut gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        if gate.running < self.cfg.heavy_slots {
            gate.running += 1;
            return Ok(());
        }
        if gate.queued >= self.cfg.queue_limit {
            bump(&self.stats.rejected);
            return Err(format!(
                "server busy: {} executing, {} queued (queue_limit {})",
                gate.running, gate.queued, self.cfg.queue_limit
            ));
        }
        gate.queued += 1;
        while gate.running >= self.cfg.heavy_slots {
            gate = self.gate_cv.wait(gate).unwrap_or_else(|e| e.into_inner());
        }
        gate.queued -= 1;
        gate.running += 1;
        Ok(())
    }

    fn release_heavy(&self) {
        let mut gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        gate.running = gate.running.saturating_sub(1);
        drop(gate);
        self.gate_cv.notify_all();
    }

    /// Execute a sweep (the only code path that touches the worker
    /// pool) under the heavy gate, with panics contained so one bad
    /// request cannot take the daemon down.
    fn execute_sweep(&self, spec: &SweepSpec) -> Result<(cubie_golden::Artifact, u64), String> {
        let mut cfg = spec.to_config()?;
        cfg.jobs = self.clamp_jobs(spec.jobs);
        self.acquire_heavy()?;
        if self.cfg.exec_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.exec_delay_ms));
        }
        bump(&self.stats.executions);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let sweep = SweepRunner::new(cfg).run();
            let cells = sweep.cells.len() as u64;
            (sweep.to_artifact(), cells)
        }));
        self.release_heavy();
        result.map_err(|panic| {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("sweep execution panicked");
            format!("sweep execution failed: {msg}")
        })
    }

    /// The full store-backed sweep path: store lookup → in-flight dedup
    /// → execute → persist → publish.
    fn handle_sweep(&self, spec: &SweepSpec) -> Json {
        let cfg = match spec.to_config() {
            Ok(c) => c,
            Err(e) => {
                bump(&self.stats.errors);
                return error_response(&e);
            }
        };
        let key = StoreKey::for_request(&cfg.cache_key());

        match self.store.load(&key) {
            Lookup::Hit(stored) => {
                if spec.verify {
                    return self.handle_verified_hit(spec, &key, stored);
                }
                bump(&self.stats.hits);
                let cells = stored.rows.len() as u64;
                return sweep_response("hit", &key.address(), cells, Arc::new(stored.to_json()));
            }
            Lookup::Invalidated(reason) => {
                bump(&self.stats.invalidated);
                cubie_obs::log(format!(
                    "cubied: store invalidated {}: {reason}",
                    key.address()
                ));
                // fall through to the miss path: recompute and re-store
            }
            Lookup::Miss => {}
        }

        // Dedup: exactly one request per canonical key executes; the
        // rest wait on the flight and serve its published payload.
        let (flight, is_executor) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match inflight.get(key.canonical()) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Flight::new();
                    inflight.insert(key.canonical().to_string(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if !is_executor {
            bump(&self.stats.dedups);
            return match flight.wait() {
                Ok(out) => sweep_response("dedup", &out.address, out.cells, out.artifact),
                Err(e) => {
                    bump(&self.stats.errors);
                    error_response(&e)
                }
            };
        }

        self.execute_claimed(spec, &key, &flight)
    }

    /// The executor's path once it owns `key`'s in-flight slot. It looks
    /// the store up again first: an executor that finished between this
    /// request's store miss and its in-flight check has saved the key and
    /// released its slot, and executing again would run the key twice.
    /// Otherwise it executes and persists. Either way it publishes to the
    /// flight's waiters and releases the slot. (A `verify` request always
    /// executes: it asked for a fresh run.)
    fn execute_claimed(&self, spec: &SweepSpec, key: &StoreKey, flight: &Flight) -> Json {
        let stored = match self.store.load(key) {
            Lookup::Hit(stored) if !spec.verify => Some(stored),
            _ => None,
        };
        let result = match stored {
            Some(stored) => Ok((
                "hit",
                FlightOut {
                    address: key.address(),
                    cells: stored.rows.len() as u64,
                    artifact: Arc::new(stored.to_json()),
                },
            )),
            None => self.execute_sweep(spec).map(|(artifact, cells)| {
                if let Err(e) = self.store.save(key, &artifact) {
                    // Serving beats persisting: log and move on.
                    cubie_obs::log(format!(
                        "cubied: store write failed for {}: {e}",
                        key.address()
                    ));
                }
                (
                    "miss",
                    FlightOut {
                        address: key.address(),
                        cells,
                        artifact: Arc::new(artifact.to_json()),
                    },
                )
            }),
        };
        flight.publish(result.clone().map(|(_, out)| out));
        self.inflight
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key.canonical());
        match result {
            Ok((outcome, out)) => {
                bump(if outcome == "hit" {
                    &self.stats.hits
                } else {
                    &self.stats.misses
                });
                sweep_response(outcome, &out.address, out.cells, out.artifact)
            }
            Err(e) => {
                bump(&self.stats.errors);
                error_response(&e)
            }
        }
    }

    /// `"verify": true` on a store hit: re-execute and require
    /// bit-identity via the golden differ — the cache-validation oracle
    /// on demand. A clean verify serves the stored entry; a failed one
    /// deletes it, stores the fresh result, and says so.
    fn handle_verified_hit(
        &self,
        spec: &SweepSpec,
        key: &StoreKey,
        stored: cubie_golden::Artifact,
    ) -> Json {
        let (fresh, cells) = match self.execute_sweep(spec) {
            Ok(r) => r,
            Err(e) => {
                bump(&self.stats.errors);
                return error_response(&e);
            }
        };
        match cubie_golden::verify_bit_identical(&stored, &fresh) {
            Ok(()) => {
                bump(&self.stats.hits);
                let mut resp =
                    sweep_response("hit", &key.address(), cells, Arc::new(stored.to_json()));
                push_field(&mut resp, "verified", true.into());
                resp
            }
            Err(report) => {
                cubie_obs::log(format!(
                    "cubied: verify FAILED for {} — store entry replaced:\n{report}",
                    key.address()
                ));
                let _ = std::fs::remove_file(self.store.path_for(key));
                if let Err(e) = self.store.save(key, &fresh) {
                    cubie_obs::log(format!("cubied: store rewrite failed: {e}"));
                }
                bump(&self.stats.misses);
                let mut resp =
                    sweep_response("miss", &key.address(), cells, Arc::new(fresh.to_json()));
                push_field(&mut resp, "verified", false.into());
                resp
            }
        }
    }

    /// `profile`: one sweep under the span recorder, hotspot rows back.
    /// Heavy-gated (it drives the pool) but never stored — wall-clock
    /// measurements are not deterministic content.
    fn handle_profile(&self, spec: &SweepSpec) -> Json {
        let mut cfg = match spec.to_config() {
            Ok(c) => c,
            Err(e) => {
                bump(&self.stats.errors);
                return error_response(&e);
            }
        };
        cfg.jobs = self.clamp_jobs(spec.jobs);
        if let Err(e) = self.acquire_heavy() {
            return error_response(&e);
        }
        bump(&self.stats.profiles);
        let recording = PROFILE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        cubie_obs::enable();
        if self.cfg.exec_delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(self.cfg.exec_delay_ms));
        }
        let result = catch_unwind(AssertUnwindSafe(|| SweepRunner::new(cfg).run()));
        cubie_obs::disable();
        let spans = cubie_obs::drain();
        drop(recording);
        self.release_heavy();
        let sweep = match result {
            Ok(s) => s,
            Err(_) => {
                bump(&self.stats.errors);
                return error_response("profile execution panicked");
            }
        };
        let rows: Vec<Json> = cubie_obs::aggregate(&spans)
            .into_iter()
            .map(|g| {
                obj(vec![
                    ("phase", g.phase.into()),
                    ("label", g.label.as_str().into()),
                    ("calls", g.calls.into()),
                    ("busy_ms", (g.busy_s * 1e3).into()),
                    ("wall_ms", (g.wall_s * 1e3).into()),
                    ("items", g.items.into()),
                ])
            })
            .collect();
        ok_response(
            "profile",
            vec![
                ("cells", (sweep.cells.len() as u64).into()),
                ("spans", (spans.len() as u64).into()),
                ("hotspots", Json::Array(rows)),
            ],
        )
    }

    /// `advise`: interactive lane — bypasses the heavy gate, leans on
    /// the process-wide sweep cache (O(lookup) after first touch).
    fn handle_advise(&self, spec: &AdviseSpec) -> Json {
        let Some(w) = Workload::parse(&spec.workload) else {
            bump(&self.stats.errors);
            return error_response(&format!("unknown workload `{}`", spec.workload));
        };
        let devices = match &spec.devices {
            None => Ok(cubie_device::all_devices()),
            Some(names) => names
                .iter()
                .map(|n| cubie_device::find_device(n))
                .collect::<Result<Vec<_>, _>>(),
        };
        let devices = match devices {
            Ok(devices) => devices,
            Err(e) => {
                bump(&self.stats.errors);
                return error_response(&e);
            }
        };
        let (ss, gs) = match spec.scales() {
            Ok(scales) => scales,
            Err(e) => {
                bump(&self.stats.errors);
                return error_response(&e);
            }
        };

        let advice = catch_unwind(AssertUnwindSafe(|| {
            let entry = SweepCache::global().ensure(w, ss, gs);
            let cc_variant = source_variant(w);
            let cc_trace = entry.trace(REPRESENTATIVE_CASE, cc_variant)?;
            let mapping = reference_mapping(w);
            let rows: Vec<Json> = devices
                .iter()
                .map(|dev| {
                    let a = advise(dev, cc_trace, &mapping);
                    obj(vec![
                        ("device", dev.name.as_str().into()),
                        ("predicted_speedup", a.predicted_speedup.into()),
                        ("cc_limiter", format!("{:?}", a.cc_limiter).into()),
                        ("tc_limiter", format!("{:?}", a.tc_limiter).into()),
                        ("quadrant", format!("Q{}", a.quadrant).into()),
                        ("recommendation", format!("{:?}", a.recommendation).into()),
                    ])
                })
                .collect();
            Some((entry.labels[REPRESENTATIVE_CASE].clone(), cc_variant, rows))
        }));
        match advice {
            Ok(Some((case_label, cc_variant, rows))) => {
                bump(&self.stats.advises);
                ok_response(
                    "advise",
                    vec![
                        ("workload", w.spec().name.into()),
                        ("case", case_label.as_str().into()),
                        ("from_variant", cc_variant.label().into()),
                        ("advice", Json::Array(rows)),
                    ],
                )
            }
            Ok(None) => {
                bump(&self.stats.errors);
                error_response(&format!("no CUDA-core trace for `{}`", spec.workload))
            }
            Err(_) => {
                bump(&self.stats.errors);
                error_response("advise execution panicked")
            }
        }
    }

    fn handle_stats(&self) -> Json {
        let gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        let (queued, running) = (gate.queued, gate.running);
        drop(gate);
        let s = &self.stats;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ok_response(
            "stats",
            vec![
                ("proto", PROTO_VERSION.into()),
                (
                    "counters",
                    obj(vec![
                        ("requests", get(&s.requests).into()),
                        ("hit", get(&s.hits).into()),
                        ("miss", get(&s.misses).into()),
                        ("dedup", get(&s.dedups).into()),
                        ("exec", get(&s.executions).into()),
                        ("invalidated", get(&s.invalidated).into()),
                        ("rejected", get(&s.rejected).into()),
                        ("advise", get(&s.advises).into()),
                        ("profile", get(&s.profiles).into()),
                        ("error", get(&s.errors).into()),
                    ]),
                ),
                ("queue_depth", (queued as u64).into()),
                ("running", (running as u64).into()),
                ("store_entries", (self.store.len() as u64).into()),
                ("workers", (cubie_core::pool::worker_count() as u64).into()),
                (
                    "uptime_ms",
                    (self.started.elapsed().as_millis() as u64).into(),
                ),
            ],
        )
    }

    /// Dispatch one parsed request to its handler.
    fn handle(&self, req: &Request) -> Json {
        bump(&self.stats.requests);
        match req {
            Request::Ping => ok_response("ping", vec![("proto", PROTO_VERSION.into())]),
            Request::Stats => self.handle_stats(),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                ok_response("shutdown", vec![])
            }
            Request::Sweep(spec) => self.handle_sweep(spec),
            Request::Profile(spec) => self.handle_profile(spec),
            Request::Advise(spec) => self.handle_advise(spec),
        }
    }
}

fn push_field(resp: &mut Json, key: &str, value: Json) {
    if let Json::Object(pairs) = resp {
        pairs.push((key.to_string(), value));
    }
}

fn sweep_response(store: &str, address: &str, cells: u64, artifact: Arc<Json>) -> Json {
    ok_response(
        "sweep",
        vec![
            ("store", store.into()),
            ("key", address.into()),
            ("cells", cells.into()),
            ("artifact", (*artifact).clone()),
        ],
    )
}

fn accept_loop(daemon: Arc<Daemon>, listener: UnixListener) {
    while !daemon.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_daemon = Arc::clone(&daemon);
                conn_daemon.active.fetch_add(1, Ordering::SeqCst);
                let spawned = std::thread::Builder::new()
                    .name("cubied-conn".into())
                    .spawn(move || {
                        handle_connection(&conn_daemon, stream);
                        conn_daemon.active.fetch_sub(1, Ordering::SeqCst);
                    });
                if let Err(e) = spawned {
                    daemon.active.fetch_sub(1, Ordering::SeqCst);
                    cubie_obs::log(format!("cubied: failed to spawn handler: {e}"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                cubie_obs::log(format!("cubied: accept failed: {e}"));
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    // Drain: wait for in-flight connections, then release the socket.
    while daemon.active.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = std::fs::remove_file(&daemon.cfg.socket);
    cubie_obs::log("cubied: shut down cleanly".to_string());
}

/// The longest request line the daemon reads, newline included. A
/// longer line gets an error response and the connection is closed, so
/// no client can make the daemon buffer without bound.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// One connection: line-delimited request/response until EOF. All
/// diagnostics in the request path go through `cubie_obs::log` (echoed
/// to the daemon's stderr, never the client stream), so responses stay
/// clean JSON — the only bytes written to the socket are response
/// lines.
fn handle_connection(daemon: &Daemon, stream: UnixStream) {
    // A bounded read timeout keeps idle clients from pinning the drain
    // phase of shutdown: on each timeout the handler re-checks the stop
    // flag. A partially read line survives timeouts (read_line appends),
    // so slow writers are never corrupted, only re-polled.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            cubie_obs::log(format!("cubied: connection clone failed: {e}"));
            return;
        }
    });
    let mut writer = stream;
    let mut line = String::new();
    loop {
        // Never read past one byte over the limit, however the line
        // arrives across timeouts.
        let budget = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match reader.by_ref().take(budget).read_line(&mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if daemon.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(e) => {
                cubie_obs::log(format!("cubied: read failed: {e}"));
                return;
            }
        }
        if line.len() > MAX_REQUEST_LINE {
            bump(&daemon.stats.errors);
            let mut payload = error_response(&format!(
                "request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"
            ))
            .to_canonical_string();
            payload.push('\n');
            let _ = writer.write_all(payload.as_bytes());
            return;
        }
        if !line.trim().is_empty() {
            let response = match parse_request(line.trim()) {
                Ok(req) => daemon.handle(&req),
                Err(e) => {
                    bump(&daemon.stats.errors);
                    error_response(&e)
                }
            };
            let mut payload = response.to_canonical_string();
            payload.push('\n');
            if writer.write_all(payload.as_bytes()).is_err() {
                return; // client went away mid-response
            }
            let _ = writer.flush();
        }
        line.clear();
    }
}

/// Client side: connect, send one request line, read one response line.
/// The building block of `cubie client` and the daemon tests.
pub fn client_request(socket: &std::path::Path, request: &Json) -> Result<Json, String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("connection clone failed: {e}"))?;
    let mut payload = request.to_canonical_string();
    payload.push('\n');
    writer
        .write_all(payload.as_bytes())
        .map_err(|e| format!("send failed: {e}"))?;
    writer.flush().map_err(|e| format!("send failed: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("no response: {e}"))?;
    if line.trim().is_empty() {
        return Err("connection closed without a response".into());
    }
    Json::parse(line.trim()).map_err(|e| format!("malformed response: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(tag: &str) -> ServeConfig {
        let base = std::env::temp_dir().join(format!("cubied_srv_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        ServeConfig {
            socket: base.join("sock"),
            store_dir: base.join("store"),
            max_jobs: 2,
            heavy_slots: 1,
            queue_limit: 0,
            exec_delay_ms: 0,
        }
    }

    #[test]
    fn ping_stats_shutdown_over_the_socket() {
        let mut handle = Daemon::start(test_cfg("ping")).unwrap();
        let pong = client_request(handle.socket(), &crate::proto::simple_request("ping")).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            pong.get("proto").and_then(Json::as_str),
            Some(PROTO_VERSION)
        );
        let stats =
            client_request(handle.socket(), &crate::proto::simple_request("stats")).unwrap();
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert!(stats.get("counters").is_some());
        let bye =
            client_request(handle.socket(), &crate::proto::simple_request("shutdown")).unwrap();
        assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
        handle.wait();
        assert!(!handle.socket().exists(), "socket removed on clean exit");
    }

    #[test]
    fn malformed_requests_get_error_responses_not_disconnects() {
        let mut handle = Daemon::start(test_cfg("malformed")).unwrap();
        let socket = handle.socket().to_path_buf();
        // Two bad requests then a good one, all on one connection.
        let stream = UnixStream::connect(&socket).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        for (req, expect_ok) in [
            ("this is not json", false),
            (r#"{"cmd":"warp"}"#, false),
            (r#"{"cmd":"ping"}"#, true),
        ] {
            writer.write_all(req.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let resp = Json::parse(line.trim()).unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(expect_ok)), "{req}");
            if !expect_ok {
                assert!(resp.get("error").is_some());
            }
        }
        drop(writer);
        drop(reader);
        handle.shutdown();
    }

    #[test]
    fn advise_with_an_ambiguous_device_gets_an_error_reply() {
        let mut handle = Daemon::start(test_cfg("ambiguous")).unwrap();
        let spec = AdviseSpec {
            workload: "spmv".into(),
            devices: Some(vec!["sxm".into()]),
            sparse_scale: Some(64),
            graph_scale: Some(512),
        };
        let resp = client_request(handle.socket(), &spec.to_json()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("ambiguous device `sxm`"), "{error}");
        assert_eq!(handle.daemon.stats.errors.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn profile_rows_carry_exactly_the_documented_keys() {
        let mut handle = Daemon::start(test_cfg("profile")).unwrap();
        let spec = crate::proto::SweepSpec {
            filters: vec!["workload=scan".into(), "device=h200".into()],
            sparse_scale: Some(64),
            graph_scale: Some(512),
            ..Default::default()
        };
        let resp = client_request(handle.socket(), &spec.to_json("profile")).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let rows = resp.get("hotspots").and_then(Json::as_array).unwrap();
        assert!(!rows.is_empty(), "no hotspot rows");
        for row in rows {
            let Json::Object(pairs) = row else {
                panic!("row is not an object: {row:?}");
            };
            let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            keys.sort_unstable();
            assert_eq!(
                keys,
                ["busy_ms", "calls", "items", "label", "phase", "wall_ms"],
                "{row:?}"
            );
        }
        handle.shutdown();
    }

    #[test]
    fn an_oversized_request_line_gets_an_error_and_the_connection_closes() {
        let mut handle = Daemon::start(test_cfg("oversized")).unwrap();
        let socket = handle.socket().to_path_buf();
        let stream = UnixStream::connect(&socket).unwrap();
        // A daemon that reads on, waiting for a newline, fails the test
        // instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        // The daemon stops reading at the limit, so the tail of the line
        // may meet a closed socket; the writer ignores that.
        let sender = std::thread::spawn(move || {
            let line = vec![b'['; MAX_REQUEST_LINE + 4096];
            let _ = writer.write_all(&line);
        });
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("request line longer than"), "{error}");
        // The daemon closes with the line's tail unread, so the socket
        // may report a reset rather than a clean end of stream.
        line.clear();
        let closed = match reader.read_line(&mut line) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "the connection must be closed, read {line:?}");
        sender.join().unwrap();
        let pong = client_request(&socket, &crate::proto::simple_request("ping")).unwrap();
        assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
        let errors = handle.daemon.stats.errors.load(Ordering::Relaxed);
        assert_eq!(errors, 1);
        handle.shutdown();
    }

    #[test]
    fn executor_serves_a_key_saved_after_its_store_miss_as_a_hit() {
        // The interleaving: this request missed the store, then another
        // executor saved the key and released its in-flight slot, so this
        // request claims the slot. It must serve the saved entry, not
        // execute the key a second time.
        let handle = Daemon::start(test_cfg("recheck")).unwrap();
        let daemon = &handle.daemon;
        let spec = SweepSpec {
            filters: vec![
                "workload=scan".into(),
                "case=2".into(),
                "device=h200".into(),
            ],
            sparse_scale: Some(64),
            graph_scale: Some(512),
            ..SweepSpec::default()
        };
        let key = StoreKey::for_request(&spec.to_config().unwrap().cache_key());
        let saved = SweepRunner::new(spec.to_config().unwrap())
            .run()
            .to_artifact();
        daemon.store.save(&key, &saved).unwrap();

        let flight = Flight::new();
        daemon
            .inflight
            .lock()
            .unwrap()
            .insert(key.canonical().to_string(), Arc::clone(&flight));
        let resp = daemon.execute_claimed(&spec, &key, &flight);

        assert_eq!(resp.get("store").and_then(Json::as_str), Some("hit"));
        assert_eq!(daemon.stats.executions.load(Ordering::Relaxed), 0);
        assert_eq!(daemon.stats.hits.load(Ordering::Relaxed), 1);
        assert_eq!(daemon.stats.misses.load(Ordering::Relaxed), 0);
        let served = resp.get("artifact").unwrap().to_canonical_string();
        assert_eq!(served, saved.to_json().to_canonical_string());
        // Waiters on the flight get the same bytes, and the slot is free.
        let published = flight.wait().ok().unwrap();
        assert_eq!(published.artifact.to_canonical_string(), served);
        assert!(daemon.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn backpressure_rejects_when_the_queue_is_full() {
        // heavy_slots=1, queue_limit=0: a second concurrent heavy
        // request must be rejected, not queued.
        let cfg = ServeConfig {
            exec_delay_ms: 600,
            ..test_cfg("busy")
        };
        let mut handle = Daemon::start(cfg).unwrap();
        let socket = handle.socket().to_path_buf();
        let slow = SweepSpec {
            filters: vec![
                "workload=scan".into(),
                "case=2".into(),
                "device=h200".into(),
                "variant=tc".into(),
            ],
            sparse_scale: Some(64),
            graph_scale: Some(512),
            ..SweepSpec::default()
        };
        let fast = SweepSpec {
            filters: vec![
                "workload=reduction".into(),
                "case=2".into(),
                "device=h200".into(),
                "variant=tc".into(),
            ],
            ..slow.clone()
        };
        let slow_socket = socket.clone();
        let slow_req = slow.to_json("sweep");
        let t = std::thread::spawn(move || client_request(&slow_socket, &slow_req).unwrap());
        // Give the slow request time to take the only slot.
        std::thread::sleep(Duration::from_millis(200));
        let resp = client_request(&socket, &fast.to_json("sweep")).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("busy"));
        let slow_resp = t.join().unwrap();
        assert_eq!(slow_resp.get("ok"), Some(&Json::Bool(true)));
        // The rejection is visible in stats.
        let stats = client_request(&socket, &crate::proto::simple_request("stats")).unwrap();
        let rejected = stats
            .get("counters")
            .and_then(|c| c.get("rejected"))
            .and_then(Json::as_int)
            .unwrap();
        assert!(rejected >= 1);
        handle.shutdown();
    }
}
