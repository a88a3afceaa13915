//! # cubie-obs
//!
//! Lightweight, always-compiled span/counter instrumentation for the
//! sweep engine, in the span/counter shape production training and
//! inference stacks use for phase attribution.
//!
//! The layer is **off by default and free when off**: [`span`] checks one
//! relaxed atomic and returns an inert guard, so instrumented hot paths
//! (case preparation, trace construction, timing, `par` worker loops) pay
//! a single branch. When enabled via [`enable`], each [`Span`] records a
//! phase name, a free-form label (the sweep uses `workload/variant`), the
//! recording thread, wall-clock start/duration against a process epoch,
//! an item counter and the thread's allocator traffic into a
//! mutex-buffered process-global
//! recorder — spans are coarse (milliseconds each), so one mutex push per
//! span is far below measurement noise.
//!
//! Consumers ([`cubie profile`]) [`drain`] the recorder,
//! [`aggregate`] the records into a per-`(phase, label)` hotspot table,
//! and serialize a Chrome trace-event document ([`chrome_trace`])
//! loadable in `chrome://tracing` or Perfetto. The document is written
//! through the `cubie_golden` canonical JSON writer and sorted by
//! `(start, thread, phase, label)`, so it is byte-deterministic modulo
//! the timestamps and thread schedule of the profiled run.

#![warn(missing_docs)]

pub mod alloc;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use cubie_golden::{obj, Json};

/// Whether spans are being recorded. Relaxed is enough: enabling mid-span
/// only affects which spans are captured, never memory safety.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic source of small per-thread identifiers (thread 0 = first
/// thread that records a span, usually main). The `cubie-core` worker
/// pool keeps its threads alive across `par_*` calls, so pool workers
/// hold one tid for the whole process — per-worker busy-ms attribution
/// (and Chrome-trace rows) stay stable across sweeps instead of
/// allocating a fresh lane per spawned thread.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (`"prepare"`, `"trace"`, `"time"`, `"par"`, …).
    pub phase: &'static str,
    /// Free-form label; the sweep layers use `workload/variant` spellings
    /// so hotspots aggregate by `workload × variant × phase`.
    pub label: String,
    /// Small per-thread identifier (first recording thread is 0).
    pub tid: u64,
    /// Start, nanoseconds since the process recorder epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Work items under this span (cases, kernels, indices — caller-defined).
    pub items: u64,
    /// Heap allocation events on the recording thread while the span was
    /// open (0 unless the binary installs [`alloc::CountingAlloc`]).
    pub alloc_count: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Start recording spans. Also clears any records from a previous
/// enable/disable cycle, so each profiled run starts from an empty buffer.
pub fn enable() {
    let _ = drain();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording spans (in-flight guards dropped after this still record;
/// they are cleared by the next [`enable`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether spans are currently recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take all recorded spans, sorted by `(start, tid, phase, label)`,
/// leaving the recorder empty.
pub fn drain() -> Vec<SpanRecord> {
    let mut spans = std::mem::take(&mut *recorder().spans.lock().unwrap());
    spans.sort_by(|a, b| {
        (a.start_ns, a.tid, a.phase, &a.label).cmp(&(b.start_ns, b.tid, b.phase, &b.label))
    });
    spans
}

/// An in-flight span; records itself on drop. Inert (a `None`) when the
/// recorder was disabled at construction.
#[must_use = "a span measures the scope it is alive in"]
pub struct Span(Option<SpanInner>);

struct SpanInner {
    phase: &'static str,
    label: String,
    start: Instant,
    items: u64,
    /// Thread allocation counters at open; the delta at drop is the
    /// span's attributed allocator traffic.
    alloc0: (u64, u64),
}

impl Span {
    /// Add to this span's item counter (no-op when inert).
    pub fn add_items(&mut self, n: u64) {
        if let Some(inner) = &mut self.0 {
            inner.items += n;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else {
            return;
        };
        let rec = recorder();
        let start_ns = inner.start.duration_since(rec.epoch).as_nanos() as u64;
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        // Diff the thread counters before this record itself allocates
        // (the push below may grow the recorder buffer).
        let (ac, ab) = alloc::thread_allocs();
        let record = SpanRecord {
            phase: inner.phase,
            label: inner.label,
            tid: TID.with(|t| *t),
            start_ns,
            dur_ns,
            items: inner.items,
            alloc_count: ac - inner.alloc0.0,
            alloc_bytes: ab - inner.alloc0.1,
        };
        rec.spans.lock().unwrap().push(record);
    }
}

/// Open a span over the enclosing scope. When recording is disabled this
/// is one relaxed load and no allocation.
#[inline]
pub fn span(phase: &'static str, label: &str) -> Span {
    if !enabled() {
        return Span(None);
    }
    // Snapshot after building the label so the span's own bookkeeping
    // allocation is not attributed to the phase.
    let label = label.to_string();
    let alloc0 = alloc::thread_allocs();
    Span(Some(SpanInner {
        phase,
        label,
        start: Instant::now(),
        items: 0,
        alloc0,
    }))
}

/// Open a span with a lazily built label: `label()` runs only when
/// recording is enabled, so instrumented hot paths pay no formatting or
/// allocation when the recorder is off.
#[inline]
pub fn span_with(phase: &'static str, label: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span(None);
    }
    let label = label();
    let alloc0 = alloc::thread_allocs();
    Span(Some(SpanInner {
        phase,
        label,
        start: Instant::now(),
        items: 0,
        alloc0,
    }))
}

// ---------------------------------------------------------------------------
// Named counters
// ---------------------------------------------------------------------------

/// Process-global named monotonic counters, separate from the span
/// recorder: always on (no [`enable`] gate), because consumers like the
/// `cubied` daemon export them continuously (`serve.hit`, `serve.miss`,
/// `serve.dedup`, `serve.queued`) rather than per profiled run. One
/// mutex-guarded map update per increment — counter sites are request- or
/// startup-frequency, never per-element hot paths.
fn counters_map() -> &'static Mutex<std::collections::BTreeMap<String, u64>> {
    static COUNTERS: OnceLock<Mutex<std::collections::BTreeMap<String, u64>>> = OnceLock::new();
    COUNTERS.get_or_init(|| Mutex::new(std::collections::BTreeMap::new()))
}

/// Add `delta` to the named monotonic counter, creating it at zero on
/// first use.
pub fn counter_add(name: &str, delta: u64) {
    let mut map = counters_map().lock().unwrap_or_else(|e| e.into_inner());
    *map.entry(name.to_string()).or_insert(0) += delta;
}

/// Current value of a named counter (0 if never incremented).
pub fn counter_get(name: &str) -> u64 {
    let map = counters_map().lock().unwrap_or_else(|e| e.into_inner());
    map.get(name).copied().unwrap_or(0)
}

/// Snapshot of every counter, sorted by name (byte-deterministic for a
/// deterministic increment set).
pub fn counters() -> Vec<(String, u64)> {
    let map = counters_map().lock().unwrap_or_else(|e| e.into_inner());
    map.iter().map(|(k, v)| (k.clone(), *v)).collect()
}

/// Reset every counter to an empty map. Test support — production
/// consumers treat counters as monotonic over the process lifetime.
pub fn reset_counters() {
    counters_map()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clear();
}

// ---------------------------------------------------------------------------
// Log records
// ---------------------------------------------------------------------------

/// One retained log line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// Monotonic sequence number (0 = first line of the process).
    pub seq: u64,
    /// Nanoseconds since the recorder epoch.
    pub at_ns: u64,
    /// The line itself.
    pub line: String,
}

struct LogState {
    echo: AtomicBool,
    records: Mutex<Vec<LogRecord>>,
    next_seq: AtomicU64,
}

fn log_state() -> &'static LogState {
    static LOGS: OnceLock<LogState> = OnceLock::new();
    LOGS.get_or_init(|| LogState {
        echo: AtomicBool::new(true),
        records: Mutex::new(Vec::new()),
        next_seq: AtomicU64::new(0),
    })
}

/// Record a diagnostic line. The line is retained in a process-global
/// buffer (so a long-running `cubied` can replay startup banners — SIMD
/// dispatch, pool sizing — per connection or in `stats` responses) and,
/// unless [`set_log_echo`]`(false)` was called, also echoed to stderr,
/// preserving the one-shot CLI behaviour the CI forced-path greps assert.
pub fn log(line: impl Into<String>) {
    let line = line.into();
    let state = log_state();
    if state.echo.load(Ordering::Relaxed) {
        eprintln!("{line}");
    }
    let at_ns = recorder().epoch.elapsed().as_nanos() as u64;
    let seq = state.next_seq.fetch_add(1, Ordering::Relaxed);
    state
        .records
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(LogRecord { seq, at_ns, line });
}

/// Turn stderr echoing of [`log`] lines on or off; returns the previous
/// setting. Retention is unaffected — the daemon disables echo per
/// request handler so client responses stay clean JSON, while the lines
/// remain queryable via [`logs`].
pub fn set_log_echo(on: bool) -> bool {
    log_state().echo.swap(on, Ordering::Relaxed)
}

/// All retained log lines, in emission order.
pub fn logs() -> Vec<LogRecord> {
    log_state()
        .records
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// One row of the hotspot table: all spans of a `(phase, label)` group.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAgg {
    /// Phase name.
    pub phase: &'static str,
    /// Label the spans carried.
    pub label: String,
    /// Number of spans in the group.
    pub calls: u64,
    /// Summed span duration across all threads — the CPU (busy) time of
    /// the group.
    pub busy_s: f64,
    /// Wall-clock extent of the group: last end minus first start. With
    /// one worker this equals `busy_s`; under parallelism it is the
    /// interval the group was live.
    pub wall_s: f64,
    /// Summed item counters.
    pub items: u64,
    /// Summed allocation events attributed to the group's spans.
    pub alloc_count: u64,
    /// Summed allocated bytes attributed to the group's spans.
    pub alloc_bytes: u64,
}

/// Aggregate spans into hotspot rows grouped by `(phase, label)`, sorted
/// by descending busy time (ties by phase then label, so the table is
/// deterministic for a deterministic span set).
pub fn aggregate(spans: &[SpanRecord]) -> Vec<PhaseAgg> {
    let mut groups: Vec<PhaseAgg> = Vec::new();
    let mut extent: Vec<(u64, u64)> = Vec::new(); // (min start, max end) per group
    for s in spans {
        let idx = groups
            .iter()
            .position(|g| g.phase == s.phase && g.label == s.label);
        let end = s.start_ns + s.dur_ns;
        match idx {
            Some(i) => {
                let g = &mut groups[i];
                g.calls += 1;
                g.busy_s += s.dur_ns as f64 * 1e-9;
                g.items += s.items;
                g.alloc_count += s.alloc_count;
                g.alloc_bytes += s.alloc_bytes;
                extent[i].0 = extent[i].0.min(s.start_ns);
                extent[i].1 = extent[i].1.max(end);
            }
            None => {
                groups.push(PhaseAgg {
                    phase: s.phase,
                    label: s.label.clone(),
                    calls: 1,
                    busy_s: s.dur_ns as f64 * 1e-9,
                    wall_s: 0.0,
                    items: s.items,
                    alloc_count: s.alloc_count,
                    alloc_bytes: s.alloc_bytes,
                });
                extent.push((s.start_ns, end));
            }
        }
    }
    for (g, (start, end)) in groups.iter_mut().zip(&extent) {
        g.wall_s = (end - start) as f64 * 1e-9;
    }
    groups.sort_by(|a, b| {
        b.busy_s
            .partial_cmp(&a.busy_s)
            .unwrap()
            .then_with(|| (a.phase, &a.label).cmp(&(b.phase, &b.label)))
    });
    groups
}

/// Summed busy time of the spans whose phase is in `phases` — the basis
/// of the `cubie profile --check` coverage gate.
pub fn busy_of(spans: &[SpanRecord], phases: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| phases.contains(&s.phase))
        .map(|s| s.dur_ns as f64 * 1e-9)
        .sum()
}

/// Serialize spans as a Chrome trace-event document (the `traceEvents`
/// JSON array format `chrome://tracing` and Perfetto load). Events are
/// complete (`"ph": "X"`) spans with microsecond timestamps; `cat` is the
/// phase, `name` the label, and the counters ride in `args`.
pub fn chrome_trace(spans: &[SpanRecord]) -> Json {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        (a.start_ns, a.tid, a.phase, &a.label).cmp(&(b.start_ns, b.tid, b.phase, &b.label))
    });
    let events: Vec<Json> = sorted
        .iter()
        .map(|s| {
            obj(vec![
                (
                    "name",
                    if s.label.is_empty() {
                        s.phase.into()
                    } else {
                        format!("{}:{}", s.phase, s.label).into()
                    },
                ),
                ("cat", s.phase.into()),
                ("ph", "X".into()),
                // Trace-event timestamps are microseconds; keep sub-µs
                // resolution as a fraction.
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.dur_ns as f64 / 1e3).into()),
                ("pid", 1u64.into()),
                ("tid", s.tid.into()),
                (
                    "args",
                    obj(vec![
                        ("items", s.items.into()),
                        ("alloc_count", s.alloc_count.into()),
                        ("alloc_bytes", s.alloc_bytes.into()),
                    ]),
                ),
            ])
        })
        .collect();
    obj(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", "ms".into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests share one process-global recorder, so they serialize on
    /// a lock rather than interleave enable/disable cycles.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = lock();
        disable();
        let _ = drain();
        {
            let mut s = span("prepare", "gemm");
            s.add_items(10);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn enabled_spans_record_counters_and_duration() {
        let _g = lock();
        enable();
        {
            let mut s = span("trace", "spmv/tc");
            s.add_items(5);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        disable();
        let spans = drain();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.phase, s.label.as_str()), ("trace", "spmv/tc"));
        assert_eq!(s.items, 5);
        assert!(s.dur_ns >= 2_000_000, "dur {} ns", s.dur_ns);
    }

    #[test]
    fn enable_clears_previous_records() {
        let _g = lock();
        enable();
        drop(span("time", "a"));
        enable();
        drop(span("time", "b"));
        disable();
        let spans = drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].label, "b");
    }

    #[test]
    fn spans_from_worker_threads_are_recorded() {
        let _g = lock();
        enable();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| drop(span("par", "worker")));
            }
        });
        disable();
        let spans = drain();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.phase == "par"));
    }

    fn rec(phase: &'static str, label: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            phase,
            label: label.to_string(),
            tid: 0,
            start_ns: start,
            dur_ns: dur,
            items: 1,
            alloc_count: 2,
            alloc_bytes: 64,
        }
    }

    #[test]
    fn aggregate_groups_and_sorts_by_busy_time() {
        let spans = vec![
            rec("trace", "spmv/tc", 0, 100),
            rec("trace", "spmv/tc", 200, 300),
            rec("prepare", "spmv", 0, 1000),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg.len(), 2);
        assert_eq!((agg[0].phase, agg[0].label.as_str()), ("prepare", "spmv"));
        assert_eq!(agg[0].alloc_bytes, 64);
        let t = &agg[1];
        assert_eq!(t.calls, 2);
        assert_eq!(t.items, 2);
        assert_eq!(t.alloc_bytes, 128);
        assert!((t.busy_s - 400e-9).abs() < 1e-15);
        assert!((t.wall_s - 500e-9).abs() < 1e-15);
    }

    #[test]
    fn busy_of_filters_phases() {
        let spans = vec![rec("prepare", "a", 0, 100), rec("par", "worker", 0, 900)];
        assert!((busy_of(&spans, &["prepare"]) - 100e-9).abs() < 1e-15);
        assert!((busy_of(&spans, &["prepare", "par"]) - 1000e-9).abs() < 1e-15);
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let _g = lock();
        reset_counters();
        counter_add("serve.miss", 1);
        counter_add("serve.hit", 2);
        counter_add("serve.hit", 3);
        assert_eq!(counter_get("serve.hit"), 5);
        assert_eq!(counter_get("serve.miss"), 1);
        assert_eq!(counter_get("serve.never"), 0);
        assert_eq!(
            counters(),
            vec![("serve.hit".into(), 5), ("serve.miss".into(), 1)]
        );
        reset_counters();
        assert_eq!(counter_get("serve.hit"), 0);
        assert!(counters().is_empty());
    }

    #[test]
    fn log_retains_lines_in_order_and_echo_toggles() {
        let _g = lock();
        let before = logs().len();
        let prev = set_log_echo(false);
        log("first line");
        log(format!("second {}", "line"));
        set_log_echo(prev);
        let all = logs();
        assert_eq!(all.len(), before + 2);
        let tail = &all[before..];
        assert_eq!(tail[0].line, "first line");
        assert_eq!(tail[1].line, "second line");
        assert!(tail[0].seq < tail[1].seq);
        assert!(tail[0].at_ns <= tail[1].at_ns);
    }

    #[test]
    fn chrome_trace_is_valid_and_deterministic() {
        let spans = vec![
            rec("trace", "spmv/tc", 2000, 500),
            rec("prepare", "spmv", 0, 1500),
        ];
        let doc = chrome_trace(&spans);
        let text = doc.to_pretty_string();
        let back = Json::parse(&text).unwrap();
        let events = back.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        // Sorted by start: prepare first even though given second.
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("prepare:spmv")
        );
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(2.0));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(0.5));
        // Byte determinism for a fixed span set.
        assert_eq!(text, chrome_trace(&spans).to_pretty_string());
    }
}
