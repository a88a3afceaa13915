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
// Log lines
// ---------------------------------------------------------------------------

/// Whether [`log`] echoes to stderr.
static LOG_ECHO: AtomicBool = AtomicBool::new(true);

/// Emit a diagnostic line on stderr, unless [`set_log_echo`]`(false)`
/// turned echoing off. The one-shot CLI's stderr lines (SIMD dispatch,
/// pool sizing, `prep:` loads) are what the CI forced-path greps assert.
pub fn log(line: impl Into<String>) {
    if LOG_ECHO.load(Ordering::Relaxed) {
        eprintln!("{}", line.into());
    }
}

/// Turn stderr echoing of [`log`] lines on or off; returns the previous
/// setting. Nothing is kept: a line logged with echo off is dropped.
pub fn set_log_echo(on: bool) -> bool {
    LOG_ECHO.swap(on, Ordering::Relaxed)
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
    fn log_echo_toggle_returns_the_previous_setting() {
        let _g = lock();
        let prev = set_log_echo(false);
        assert!(!set_log_echo(true));
        assert!(set_log_echo(prev));
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
