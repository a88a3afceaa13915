//! `cubied_mix`: a closed-loop request mix against an in-process
//! `cubied` started through `Daemon::start`, with a private socket and
//! store under the run's work directory.
//!
//! One client thread holds two connections, `main` and `twin`, and sends
//! its next request only after the previous reply (a closed loop). Its
//! sequence comes from the seed:
//!
//! * every [`DEDUP_EVERY`]-th slot, it writes the same new SpMV key at a
//!   sparse scale nothing has prepared yet on both connections, then
//!   reads both replies. The execution (generating and recording five
//!   matrices, then tracing them) is long enough for the twin to arrive
//!   while it is in flight;
//! * of the other slots, [`MISS_PCT`]% are never-seen sweep keys (misses,
//!   executed and stored with fsync), [`ADVISE_PCT`]% are `advise`
//!   requests, and the rest repeat one of the keys stored during set-up
//!   (hits), from one workload on one device (~1 KB) to the full sweep
//!   (~95 KB).
//!
//! The shares are a synthetic choice: no record of real `cubied` traffic
//! exists. They follow the shape "mostly hits, a trickle of misses, a
//! slice of advise, some dedup pairs", and each kind gets hundreds of
//! samples or more in a 25 s run. `perfbench/README.md` gives the reason
//! for each value.
//!
//! One client thread, not one per core: with several, the requests
//! queue behind each other's misses (`heavy_slots = 1`) and the latency
//! follows how the shared host schedules the threads more than the
//! daemon's own work.
//!
//! The oracle: every hit or dedup artifact must be byte-identical to the
//! miss that produced its key.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use cubie_core::rng::SplitMix64;
use cubie_golden::Json;
use cubie_kernels::Workload;
use cubie_serve::proto::simple_request;
use cubie_serve::{client_request, AdviseSpec, Daemon, Handle, ServeConfig, SweepSpec};

use crate::{median_setup, stats, Bench, Metric, Outcome, GRAPH_SCALE, SPARSE_SCALE};

/// Every `DEDUP_EVERY`-th slot sends a dedup pair. Rare, because a
/// dedup pair costs ~15 misses: at 1 in 256 it is about a quarter of
/// `mean_s`, and more often it would dominate.
pub const DEDUP_EVERY: u64 = 256;
/// Share of the other slots that request a never-seen key, in percent.
/// A minority, so that hits stay the bulk of the traffic.
pub const MISS_PCT: u64 = 12;
/// Share of the other slots that are `advise` requests, in percent.
pub const ADVISE_PCT: u64 = 8;
/// Sparse scale of the first dedup key; the `j`-th dedup key uses
/// `DEDUP_SCALE + j`, a scale no other request prepares.
pub const DEDUP_SCALE: usize = 1024;

/// What a reply turned out to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Served {
    Hit,
    Miss,
    Dedup,
    Advise,
}

impl Served {
    const ALL: [Served; 4] = [Served::Hit, Served::Miss, Served::Dedup, Served::Advise];

    fn name(self) -> &'static str {
        match self {
            Served::Hit => "hit",
            Served::Miss => "miss",
            Served::Dedup => "dedup",
            Served::Advise => "advise",
        }
    }
}

/// A sweep request at the benchmark's scales.
pub fn sweep_request(filters: Vec<String>) -> SweepSpec {
    SweepSpec {
        filters,
        jobs: None,
        sparse_scale: Some(SPARSE_SCALE),
        graph_scale: Some(GRAPH_SCALE),
        verify: false,
    }
}

/// The keys the mix repeats: the full sweep, each workload on all
/// devices, and each workload on H200 alone.
pub fn repeated_keys() -> Vec<SweepSpec> {
    let mut keys = vec![sweep_request(Vec::new())];
    for w in Workload::ALL {
        let wl = format!("workload={}", w.key());
        keys.push(sweep_request(vec![wl.clone()]));
        keys.push(sweep_request(vec![wl, "device=h200".into()]));
    }
    keys
}

/// A dedup key: all of SpMV at a sparse scale of its own.
pub fn dedup_key(sparse_scale: usize) -> SweepSpec {
    SweepSpec {
        sparse_scale: Some(sparse_scale),
        ..sweep_request(vec!["workload=spmv".into()])
    }
}

/// An `advise` request for `w` at the benchmark's scales.
pub fn advise_request(w: Workload) -> AdviseSpec {
    AdviseSpec {
        workload: w.key().into(),
        devices: None,
        sparse_scale: Some(SPARSE_SCALE),
        graph_scale: Some(GRAPH_SCALE),
    }
}

/// Draws distinct, never-requested sweep keys: one workload with a
/// random non-empty subset of its cases, devices and variants.
pub struct NewKeys {
    rng: SplitMix64,
    seen: HashSet<String>,
}

impl NewKeys {
    pub fn new(seed: u64, taken: &[SweepSpec]) -> NewKeys {
        NewKeys {
            rng: SplitMix64::new(seed),
            seen: taken.iter().map(cache_key).collect(),
        }
    }

    fn subset(&mut self, n: usize) -> Vec<usize> {
        let mask = 1 + self.rng.next_u64() % ((1 << n) - 1);
        (0..n).filter(|i| mask & (1 << i) != 0).collect()
    }

    pub fn next_key(&mut self) -> SweepSpec {
        loop {
            let w = Workload::ALL[(self.rng.next_u64() % 10) as usize];
            let variants = w.variants();
            let join = |parts: Vec<String>| parts.join(",");
            let cases = join(self.subset(5).iter().map(usize::to_string).collect());
            let devices = join(
                self.subset(3)
                    .iter()
                    .map(|&d| ["a100", "h200", "b200"][d].to_string())
                    .collect(),
            );
            let vars = join(
                self.subset(variants.len())
                    .iter()
                    .map(|&v| variants[v].label().to_ascii_lowercase())
                    .collect(),
            );
            let spec = sweep_request(vec![
                format!("workload={}", w.key()),
                format!("case={cases}"),
                format!("device={devices}"),
                format!("variant={vars}"),
            ]);
            if self.seen.insert(cache_key(&spec)) {
                return spec;
            }
        }
    }
}

fn cache_key(spec: &SweepSpec) -> String {
    spec.to_config()
        .expect("generated filters parse")
        .cache_key()
}

/// A request as one wire line.
fn line_of(request: &Json) -> String {
    let mut line = request.to_canonical_string();
    line.push('\n');
    line
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    reply: String,
}

impl Conn {
    pub fn open(socket: &Path) -> std::io::Result<Conn> {
        let writer = UnixStream::connect(socket)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            reply: String::new(),
        })
    }

    /// Send one request line and read the one-line reply.
    pub fn round_trip(&mut self, line: &str) -> std::io::Result<&str> {
        self.send(line)?;
        self.recv()
    }

    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }

    /// Read the next one-line reply.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }
}

/// A parsed reply. Sweep replies are canonical JSON with the artifact
/// last, so the artifact's exact bytes are a slice of the line.
pub enum Reply<'a> {
    Sweep {
        served: Served,
        address: &'a str,
        artifact: &'a str,
    },
    Advise,
    Failed,
}

pub fn parse_reply(line: &str) -> Reply<'_> {
    if line.starts_with(r#"{"ok":true,"cmd":"advise","#) {
        return Reply::Advise;
    }
    let parsed = (|| {
        let rest = line.strip_prefix(r#"{"ok":true,"cmd":"sweep","store":""#)?;
        let (store, rest) = rest.split_once('"')?;
        let rest = rest.strip_prefix(r#","key":""#)?;
        let (address, rest) = rest.split_once('"')?;
        let (_, rest) = rest.split_once(r#","artifact":"#)?;
        let served = match store {
            "hit" => Served::Hit,
            "miss" => Served::Miss,
            "dedup" => Served::Dedup,
            _ => return None,
        };
        Some(Reply::Sweep {
            served,
            address,
            artifact: rest.strip_suffix('}')?,
        })
    })();
    parsed.unwrap_or(Reply::Failed)
}

/// Nominal share of each latency bucket among the requests: per
/// [`DEDUP_EVERY`] slots, one dedup pair (two requests, one of which
/// executes) and `DEDUP_EVERY - 1` other requests, split by
/// [`MISS_PCT`] and [`ADVISE_PCT`].
pub fn nominal_shares() -> [(&'static str, f64); 5] {
    let others = (DEDUP_EVERY - 1) as f64;
    let requests = others + 2.0;
    let pct = |p: u64| others * p as f64 / 100.0 / requests;
    [
        ("hit", pct(100 - MISS_PCT - ADVISE_PCT)),
        ("miss", pct(MISS_PCT)),
        ("advise", pct(ADVISE_PCT)),
        ("dedup", 1.0 / requests),
        ("dedup_exec", 1.0 / requests),
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Repeat,
    New,
    Dedup,
    Advise,
}

/// What the client saw.
#[derive(Default)]
struct Log {
    attempted: u64,
    failed: u64,
    served: HashMap<Served, u64>,
    /// Latencies by bucket: the served kind, except that the miss which
    /// executes a dedup pair is kept apart as `dedup_exec`.
    latencies: HashMap<&'static str, Vec<f64>>,
    /// Store address → artifact bytes of the miss that produced it, for
    /// keys that can be requested again (repeated and dedup keys).
    produced: HashMap<String, String>,
    /// Dedup replies whose producing miss had not been seen yet.
    pending: Vec<(String, String)>,
}

impl Log {
    /// Check a hit or dedup artifact against its producing miss, or
    /// record a miss that later requests may repeat. `false` on a
    /// mismatch.
    fn check(&mut self, op: Op, served: Served, address: &str, artifact: &str) -> bool {
        match (served, self.produced.get(address)) {
            (Served::Miss, _) if op == Op::New => true,
            (Served::Miss, None) => {
                self.produced
                    .insert(address.to_string(), artifact.to_string());
                true
            }
            (_, Some(bytes)) => bytes == artifact,
            (Served::Dedup, None) => {
                self.pending
                    .push((address.to_string(), artifact.to_string()));
                true
            }
            _ => false,
        }
    }

    /// Count one request, check its reply and keep its latency.
    fn record(&mut self, op: Op, line: &str, reply: std::io::Result<String>, latency: Duration) {
        self.attempted += 1;
        let served = match reply.as_deref().map(parse_reply) {
            Ok(Reply::Advise) if op == Op::Advise => Some(Served::Advise),
            Ok(Reply::Sweep {
                served,
                address,
                artifact,
            }) if self.check(op, served, address, artifact) => Some(served),
            _ => None,
        };
        match served {
            Some(s) => {
                *self.served.entry(s).or_default() += 1;
                let bucket = match (s, op) {
                    (Served::Miss, Op::Dedup) => "dedup_exec",
                    _ => s.name(),
                };
                self.latencies
                    .entry(bucket)
                    .or_default()
                    .push(latency.as_secs_f64());
            }
            None => {
                self.failed += 1;
                eprintln!("perfbench: request failed its check: {}", line.trim_end());
            }
        }
    }
}

/// Send one line on `conn` and read its reply.
fn exchange(conn: &mut Conn, line: &str) -> (std::io::Result<String>, Duration) {
    let t0 = Instant::now();
    let reply = conn.round_trip(line).map(str::to_string);
    (reply, t0.elapsed())
}

/// The closed loop: requests until `deadline`, then check the dedup
/// replies that arrived before their producing miss.
fn drive(b: &Bench, main: &mut Conn, twin: &mut Conn, log: &mut Log, deadline: Instant) {
    let repeated = repeated_keys();
    let repeated_lines: Vec<String> = repeated
        .iter()
        .map(|k| line_of(&k.to_json("sweep")))
        .collect();
    let mut new_keys = NewKeys::new(b.seed, &repeated);
    let mut rng = SplitMix64::new(b.seed ^ 0x9E37_79B9_7F4A_7C15);
    for slot in 1u64.. {
        if Instant::now() >= deadline {
            break;
        }
        if slot % DEDUP_EVERY == 0 {
            let j = (slot / DEDUP_EVERY) as usize;
            let line = line_of(&dedup_key(DEDUP_SCALE + j).to_json("sweep"));
            let t0 = Instant::now();
            let sent = main.send(&line);
            let t1 = Instant::now();
            let twin_sent = twin.send(&line);
            let first = sent.and_then(|()| main.recv().map(str::to_string));
            let first_latency = t0.elapsed();
            let second = twin_sent.and_then(|()| twin.recv().map(str::to_string));
            let second_latency = t1.elapsed();
            log.record(Op::Dedup, &line, first, first_latency);
            log.record(Op::Dedup, &line, second, second_latency);
            continue;
        }
        let r = rng.next_u64() % 100;
        if r < MISS_PCT {
            let line = line_of(&new_keys.next_key().to_json("sweep"));
            let (reply, latency) = exchange(main, &line);
            log.record(Op::New, &line, reply, latency);
        } else if r < MISS_PCT + ADVISE_PCT {
            let w = Workload::ALL[(rng.next_u64() % 10) as usize];
            let line = line_of(&advise_request(w).to_json());
            let (reply, latency) = exchange(main, &line);
            log.record(Op::Advise, &line, reply, latency);
        } else {
            let line = &repeated_lines[(rng.next_u64() % repeated_lines.len() as u64) as usize];
            let (reply, latency) = exchange(main, line);
            log.record(Op::Repeat, line, reply, latency);
        }
    }
    for (address, artifact) in std::mem::take(&mut log.pending) {
        if log.produced.get(&address) != Some(&artifact) {
            log.failed += 1;
            eprintln!("perfbench: dedup reply for {address} differs from its miss");
        }
    }
}

/// A running daemon with its repeated keys stored.
struct Started {
    handle: Handle,
    produced: HashMap<String, String>,
}

/// Set-up: fill the prep store, start a daemon on a fresh store, and
/// store every repeated key once (each a miss).
fn start(b: &Bench, rep: usize) -> Started {
    b.fill_prep_store();
    let store_dir = b.work.join(format!("store-{rep}"));
    let _ = std::fs::remove_dir_all(&store_dir);
    let handle = Daemon::start(ServeConfig {
        socket: b.work.join(format!("cubied-{rep}.sock")),
        store_dir,
        max_jobs: b.jobs,
        heavy_slots: 1,
        queue_limit: 16,
        exec_delay_ms: 0,
    })
    .expect("daemon starts on a fresh socket and store");
    let mut conn = Conn::open(handle.socket()).expect("daemon accepts");
    let mut produced = HashMap::new();
    for key in repeated_keys() {
        let reply = conn
            .round_trip(&line_of(&key.to_json("sweep")))
            .expect("daemon replies");
        match parse_reply(reply) {
            Reply::Sweep {
                served: Served::Miss,
                address,
                artifact,
            } => {
                produced.insert(address.to_string(), artifact.to_string());
            }
            _ => panic!("storing a repeated key failed: {reply}"),
        }
    }
    Started { handle, produced }
}

/// Run `cubied_mix`.
pub fn run(b: &Bench) -> Outcome {
    let mut rep = 0;
    let (setup_s, started) = median_setup(|| {
        rep += 1;
        start(b, rep)
    });
    let Started {
        mut handle,
        produced,
    } = started;
    crate::reset_peak_rss();
    let socket = handle.socket().to_path_buf();
    let mut main = Conn::open(&socket).expect("daemon accepts");
    let mut twin = Conn::open(&socket).expect("daemon accepts");
    let mut log = Log {
        produced,
        ..Log::default()
    };
    let start = Instant::now();
    drive(
        b,
        &mut main,
        &mut twin,
        &mut log,
        start + Duration::from_secs_f64(b.seconds),
    );
    let measured_s = start.elapsed().as_secs_f64();
    drop((main, twin));
    let stats_reply = client_request(&socket, &simple_request("stats"));
    handle.shutdown();

    let mut out = Outcome {
        attempted: log.attempted,
        failed: log.failed,
        ..Outcome::default()
    };
    let mut by_bucket = log.latencies;
    // Each kind's median, weighted by its nominal share: a stall of the
    // shared host moves a mean over all requests far more than it moves
    // the medians, and the seed no longer changes the weights.
    let mean_s: f64 = nominal_shares()
        .iter()
        .map(|&(bucket, share)| share * stats::median(by_bucket.get(bucket).map_or(&[], |v| v)))
        .sum();
    let all: Vec<f64> = by_bucket.values().flatten().copied().collect();
    let peak = crate::peak_rss_mib("self").unwrap_or(0.0);
    out.end_to_end(mean_s, &all, setup_s, peak);

    let d = &mut out.details;
    d.push(Metric::new("request_mean_s", stats::mean(&all), "s"));
    d.push(Metric::new(
        "requests_per_s",
        out.attempted as f64 / measured_s,
        "1/s",
    ));
    for k in Served::ALL {
        let n = log.served.get(&k).copied().unwrap_or(0);
        let share = n as f64 / out.attempted.max(1) as f64;
        d.push(Metric::new(format!("{}_share", k.name()), share, "ratio"));
    }
    for bucket in ["hit", "miss", "dedup", "dedup_exec", "advise"] {
        let xs = by_bucket.remove(bucket).unwrap_or_default();
        d.push(Metric::new(
            format!("{bucket}_p50_s"),
            stats::median(&xs),
            "s",
        ));
        if matches!(bucket, "hit" | "miss") {
            d.push(Metric::new(
                format!("{bucket}_tail_s"),
                stats::tail(&xs).value,
                "s",
            ));
        }
        out.samples.push((format!("{bucket}_s"), xs));
    }
    match stats_reply {
        Ok(stats) => {
            for name in ["hit", "miss", "dedup", "exec", "rejected", "error"] {
                let v = stats
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_int)
                    .unwrap_or(0);
                d.push(Metric::new(format!("serve.{name}"), v as f64, "count"));
            }
        }
        Err(e) => eprintln!("perfbench: stats request failed: {e}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_shares_sum_to_one() {
        let total: f64 = nominal_shares().iter().map(|&(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
