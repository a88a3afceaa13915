//! The traced pass (`--trace 1`): the pipeline replayed serially, one
//! layer call at a time, each timed from outside the program.
//!
//! The pass never nests one timed call inside another, so every layer's
//! time is counted once. The sweep half checks the accounting: serial
//! `jobs = 1` sweeps give the traced wall (`sweep.serial_s`), and the
//! same work replayed after each as separate calls into `prep`,
//! `kernels`, `sim` and `Sweep::to_artifact` must add up to it
//! (`sweep.trace_coverage`, accepted within [`COVERAGE_BOUND`]).
//!
//! The prep store follows the workload: emptied before each sweep step
//! on `sweep_cold`, filled during set-up otherwise.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use cubie_bench::artifacts::GoldenConfig;
use cubie_bench::{SweepCache, SweepRunner};
use cubie_device::all_devices;
use cubie_golden::{Artifact, Json};
use cubie_graph::features::GraphFeatures;
use cubie_graph::generators as graph_gen;
use cubie_kernels::{prepare_cases, PreparedCase, Variant, Workload};
use cubie_prep::{LoadReport, PrepConfig};
use cubie_serve::proto::simple_request;
use cubie_serve::{client_request, Daemon, ServeConfig, Store, StoreKey};

use crate::mix::{self, Conn, NewKeys, Reply, Served};
use crate::{stats, sweeps, Bench, Kind, Metric, Outcome, GRAPH_SCALE, SPARSE_SCALE};

/// `sweep.trace_coverage` must lie within `1 ± COVERAGE_BOUND`.
pub const COVERAGE_BOUND: f64 = 0.2;
/// Scale and seed of the Figure 10 graph study inside
/// `cubie_bench::artifacts::fig10`, whose inputs the pass times on
/// their own.
const FIG10_REP_SCALE: usize = 64;
const FIG10_GRAPH_SEED: u64 = 0xF16A;
/// Parallel sweeps per pass, for `sweep.parallel_efficiency`.
const PARALLEL_SWEEPS: usize = 3;
/// Serial sweeps per pass, each followed by its layer-by-layer replay.
/// The host's speed drifts by ±20% between single serial sweeps;
/// interleaving several pairs lets the drift hit both sides of
/// `sweep.trace_coverage` alike.
const SERIAL_PAIRS: usize = 3;
/// Never-seen keys in the scripted serve sequence.
const SCRIPTED_NEW_KEYS: usize = 8;
/// Repetitions of each timed serve call (ping, store save, store load).
const SERVE_REPS: usize = 20;
/// Sparse scale of the pass's dedup key (pass `i` uses `+ i`).
const TRACE_DEDUP_SCALE: usize = 1024;

/// Per-layer values of one pass.
#[derive(Default)]
struct Pass {
    values: BTreeMap<String, f64>,
    failures: Vec<String>,
}

impl Pass {
    fn add(&mut self, key: impl Into<String>, v: f64) {
        *self.values.entry(key.into()).or_default() += v;
    }

    /// Time `f`, adding its wall seconds to `key`.
    fn timed<T>(&mut self, key: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(key, t0.elapsed().as_secs_f64());
        out
    }

    fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    fn report(&mut self, r: LoadReport) {
        self.add("prep.hits", r.hits as f64);
        self.add("prep.misses", r.misses as f64);
        self.add("prep.bytes_loaded", r.bytes_loaded as f64);
        self.add("prep.bytes_written", r.bytes_written as f64);
    }
}

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("prep.matrices_s".into(), "s"),
        ("prep.graphs_s".into(), "s"),
        ("prep.hits".into(), "count"),
        ("prep.misses".into(), "count"),
        ("prep.bytes_loaded".into(), "B"),
        ("prep.bytes_written".into(), "B"),
        ("sparse.generate_s".into(), "s"),
        ("graph.generate_s".into(), "s"),
        ("graph.rep_generate_s".into(), "s"),
        ("graph.corpus_generate_s".into(), "s"),
        ("graph.features_s".into(), "s"),
        ("kernels.prepare_s".into(), "s"),
    ];
    m.extend(
        Workload::ALL
            .iter()
            .map(|w| (format!("trace.{}_s", w.key()), "s")),
    );
    m.extend(Variant::ALL.iter().map(|v| (bfs_variant_key(*v), "s")));
    m.extend([
        ("trace.bfs_share".into(), "ratio"),
        ("time.total_s".into(), "s"),
        ("time.calls".into(), "count"),
        ("sweep.serial_s".into(), "s"),
        ("sweep.parallel_s".into(), "s"),
        ("sweep.parallel_efficiency".into(), "ratio"),
        ("sweep.trace_coverage".into(), "ratio"),
        ("golden.to_artifact_s".into(), "s"),
        ("golden.sweep_s".into(), "s"),
        ("golden.errors_s".into(), "s"),
        ("golden.build.fig10_corpus_pca_s".into(), "s"),
        ("golden.build.observations_s".into(), "s"),
        ("golden.build.other_s".into(), "s"),
        ("golden.read_s".into(), "s"),
        ("golden.diff_s".into(), "s"),
        ("serve.ping_p50_s".into(), "s"),
        ("serve.store_load_s".into(), "s"),
        ("serve.store_save_s".into(), "s"),
        ("serve.store_open_s".into(), "s"),
        ("serve.hits".into(), "count"),
        ("serve.misses".into(), "count"),
        ("serve.dedups".into(), "count"),
        ("serve.execs".into(), "count"),
        ("serve.rejected".into(), "count"),
        ("serve.errors".into(), "count"),
        ("serve.exec_per_new_key".into(), "ratio"),
        ("serve.hit_share".into(), "ratio"),
    ]);
    m
}

fn bfs_variant_key(v: Variant) -> String {
    format!(
        "trace.bfs.{}_s",
        v.label().replace('-', "").to_ascii_lowercase()
    )
}

/// Run the traced pass repeatedly for the run's seconds; every metric is
/// the median over passes.
pub fn run(b: &Bench) -> Outcome {
    cubie_core::par::set_max_workers(1);
    // Set-up: the prep store, the jobs=1 reference artifact, and the
    // process-global trace memo the daemon's executions read, so that
    // serve-layer misses time the serve layer rather than the kernels.
    let reference = sweeps::setup(b);
    SweepRunner::new(b.sweep_config(1)).run();

    let mut out = Outcome::default();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < b.seconds {
        let mut pass = Pass::default();
        let artifact = sweep_steps(b, &reference, &mut pass);
        generator_steps(&mut pass);
        golden_steps(b, &mut pass);
        serve_steps(b, passes.len(), &artifact, &mut pass);
        out.attempted += 1;
        if !pass.failures.is_empty() {
            out.failed += 1;
            for f in &pass.failures {
                eprintln!("perfbench: traced pass {}: {f}", passes.len());
            }
        }
        passes.push(pass);
    }

    let median_of =
        |key: &str| stats::median(&passes.iter().map(|p| p.get(key)).collect::<Vec<_>>());
    for (name, unit) in per_layer_metrics() {
        let value = match name.as_str() {
            "sweep.parallel_efficiency" => {
                median_of("sweep.serial_s") / (b.jobs as f64 * median_of("sweep.parallel_s"))
            }
            _ => median_of(&name),
        };
        out.metrics.push(Metric::new(name, value, unit));
    }
    let coverage = median_of("sweep.trace_coverage");
    if (coverage - 1.0).abs() > COVERAGE_BOUND {
        out.failed += 1;
        eprintln!(
            "perfbench: layer times cover {:.1}% of the serial sweep, outside 100 ± {:.0}%",
            coverage * 100.0,
            COVERAGE_BOUND * 100.0
        );
    }
    for key in ["sweep.serial_s", "sweep.parallel_s", "sweep.trace_coverage"] {
        out.samples
            .push((key.into(), passes.iter().map(|p| p.get(key)).collect()));
    }
    out
}

/// The sweep half: [`SERIAL_PAIRS`] times a serial reference sweep (the
/// traced wall) followed by the same work replayed layer by layer, then
/// parallel sweeps for the efficiency. The sweep metrics are the means
/// over the pairs. Returns the last serial sweep's artifact.
fn sweep_steps(b: &Bench, reference: &str, pass: &mut Pass) -> Artifact {
    let mut pairs = Pass::default();
    let mut artifact = None;
    for _ in 0..SERIAL_PAIRS {
        if b.kind == Kind::SweepCold {
            b.empty_prep_store();
        }
        let runner = SweepRunner::with_cache(b.sweep_config(1), Arc::new(SweepCache::default()));
        let t0 = Instant::now();
        let sweep = runner.run();
        let a = pairs.timed("golden.to_artifact_s", || sweep.to_artifact());
        pairs.add("sweep.serial_s", t0.elapsed().as_secs_f64());
        if a.to_json().to_canonical_string() != reference {
            pass.failures
                .push("serial sweep differs from the reference".into());
        }
        drop(sweep);
        artifact = Some(a);
        replay_layers(b, &mut pairs);
    }
    for (key, v) in pairs.values {
        pass.add(key, v / SERIAL_PAIRS as f64);
    }
    account(pass);
    parallel_sweeps(b, reference, pass);
    artifact.expect("SERIAL_PAIRS > 0")
}

/// The serial sweep's work as separate calls into each layer, in the
/// sweep's order; [`account`] compares their sum with the sweep's wall.
fn replay_layers(b: &Bench, pass: &mut Pass) {
    if b.kind == Kind::SweepCold {
        b.empty_prep_store();
    }
    let prep = PrepConfig::from_env();
    let devices = all_devices();
    for w in Workload::ALL {
        let cases: Vec<PreparedCase> = match w {
            Workload::Spmv | Workload::Spgemm => {
                let (m, r) = pass.timed("prep.matrices_s", || {
                    cubie_prep::table4_matrices_with(&prep, SPARSE_SCALE)
                });
                pass.report(r);
                m.into_iter()
                    .map(|(info, m)| match w {
                        Workload::Spmv => PreparedCase::Spmv {
                            info,
                            matrix: Box::new(m),
                        },
                        _ => PreparedCase::Spgemm {
                            info,
                            matrix: Box::new(m),
                        },
                    })
                    .collect()
            }
            Workload::Bfs => {
                let (g, r) = pass.timed("prep.graphs_s", || {
                    cubie_prep::table3_graphs_with(&prep, GRAPH_SCALE)
                });
                pass.report(r);
                pass.timed("kernels.prepare_s", || {
                    g.into_iter()
                        .map(|(info, g)| PreparedCase::Bfs {
                            info,
                            source: g.max_degree_vertex(),
                            graph: Box::new(g),
                        })
                        .collect()
                })
            }
            _ => pass.timed("kernels.prepare_s", || {
                prepare_cases(w, SPARSE_SCALE, GRAPH_SCALE)
            }),
        };
        // Like `SweepCache::ensure`: every case traces all four variants.
        let mut traces = Vec::new();
        for case in &cases {
            for v in Variant::ALL {
                let t0 = Instant::now();
                let trace = case.trace(v);
                let dt = t0.elapsed().as_secs_f64();
                pass.add(format!("trace.{}_s", w.key()), dt);
                if w == Workload::Bfs {
                    pass.add(bfs_variant_key(v), dt);
                }
                traces.push((v, trace));
            }
        }
        pass.timed("kernels.prepare_s", || drop(cases));
        let evaluated = w.variants();
        for (_, trace) in traces.iter().filter(|(v, _)| evaluated.contains(v)) {
            let Some(trace) = trace else { continue };
            for d in &devices {
                pass.timed("time.total_s", || cubie_sim::time_workload(d, trace));
                pass.add("time.calls", 1.0);
            }
        }
    }
}

/// `trace.bfs_share` and `sweep.trace_coverage`, from the replayed layer
/// times and the serial sweep's wall.
fn account(pass: &mut Pass) {
    let trace_sum: f64 = Workload::ALL
        .iter()
        .map(|w| pass.get(&format!("trace.{}_s", w.key())))
        .sum();
    pass.add("trace.bfs_share", pass.get("trace.bfs_s") / trace_sum);
    let layers: f64 = [
        "prep.matrices_s",
        "prep.graphs_s",
        "kernels.prepare_s",
        "time.total_s",
        "golden.to_artifact_s",
    ]
    .iter()
    .map(|k| pass.get(k))
    .sum::<f64>()
        + trace_sum;
    pass.add("sweep.trace_coverage", layers / pass.get("sweep.serial_s"));
}

/// `jobs = nproc` sweeps, for `sweep.parallel_efficiency`.
fn parallel_sweeps(b: &Bench, reference: &str, pass: &mut Pass) {
    for _ in 0..PARALLEL_SWEEPS {
        if b.kind == Kind::SweepCold {
            b.empty_prep_store();
        }
        let (wall, bytes) = sweeps::sweep_once(&b.sweep_config(b.jobs));
        pass.add("sweep.parallel_s", wall / PARALLEL_SWEEPS as f64);
        if bytes != reference {
            pass.failures
                .push("parallel sweep differs from the reference".into());
        }
    }
}

/// The generators on their own: the sweep's tables with the store
/// bypassed, and the Figure 10 graph study's inputs.
fn generator_steps(pass: &mut Pass) {
    let off = PrepConfig::disabled();
    pass.timed("sparse.generate_s", || {
        cubie_prep::table4_matrices_with(&off, SPARSE_SCALE)
    });
    pass.timed("graph.generate_s", || {
        cubie_prep::table3_graphs_with(&off, GRAPH_SCALE)
    });
    let reps = pass.timed("graph.rep_generate_s", || {
        graph_gen::table3_graphs(FIG10_REP_SCALE)
    });
    let corpus = pass.timed("graph.corpus_generate_s", || {
        graph_gen::diverse_graph_corpus(GoldenConfig::default().graph_corpus, FIG10_GRAPH_SEED)
    });
    pass.timed("graph.features_s", || {
        let reps = reps.iter().map(|(_, g)| g);
        corpus
            .iter()
            .map(|(_, g)| g)
            .chain(reps)
            .map(GraphFeatures::of)
            .count()
    });
}

/// The golden half: the check's steps timed in a fresh serial child
/// process (see `golden::traced_child`).
fn golden_steps(b: &Bench, pass: &mut Pass) {
    let cwd = b.work.join("golden");
    let result = std::fs::create_dir_all(&cwd)
        .and_then(|()| std::env::current_exe())
        .and_then(|exe| {
            Command::new(exe)
                .arg(crate::golden::CHILD_FLAG)
                .current_dir(&cwd)
                .stderr(Stdio::inherit())
                .output()
        });
    let doc = result.ok().filter(|o| o.status.success()).and_then(|o| {
        let text = String::from_utf8(o.stdout).ok()?;
        Json::parse(text.lines().last()?).ok()
    });
    match doc {
        Some(Json::Object(pairs)) => {
            for (k, v) in pairs {
                if k.starts_with("golden.") {
                    pass.add(k, v.as_f64().unwrap_or(0.0));
                }
            }
        }
        _ => pass.failures.push("the traced golden check failed".into()),
    }
}

/// The serve half: ping, the result store's three primitives, and a
/// small scripted request sequence whose `stats` counters are reported.
fn serve_steps(b: &Bench, index: usize, artifact: &Artifact, pass: &mut Pass) {
    let dir = b.work.join(format!("trace-serve-{index}"));
    let mut handle = Daemon::start(ServeConfig {
        socket: dir.join("sock"),
        store_dir: dir.join("store"),
        max_jobs: 1,
        heavy_slots: 1,
        queue_limit: 16,
        exec_delay_ms: 0,
    })
    .expect("daemon starts on a fresh socket and store");
    let socket = handle.socket().to_path_buf();

    // Ping over one held connection: the floor under the request mix,
    // whose clients hold theirs.
    let line = simple_request("ping").to_canonical_string() + "\n";
    let mut pings = Vec::new();
    let mut conn = Conn::open(&socket);
    for _ in 0..SERVE_REPS {
        let t0 = Instant::now();
        let ok = conn.as_mut().is_ok_and(|c| c.round_trip(&line).is_ok());
        pings.push(t0.elapsed().as_secs_f64());
        if !ok {
            pass.failures.push("ping failed".into());
        }
    }
    drop(conn);
    pass.add("serve.ping_p50_s", stats::median(&pings));

    store_steps(b, &dir.join("scratch-store"), artifact, pass);
    let new_keys = scripted_requests(b, index, &socket, pass);

    let t0 = Instant::now();
    let opened = Store::open(dir.join("store"));
    pass.add("serve.store_open_s", t0.elapsed().as_secs_f64());
    if opened.is_err() {
        pass.failures.push("store open failed".into());
    }

    match client_request(&socket, &simple_request("stats")) {
        Ok(stats) => {
            let counter = |name: &str| {
                stats
                    .get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(Json::as_int)
                    .unwrap_or(0) as f64
            };
            for (metric, name) in [
                ("serve.hits", "hit"),
                ("serve.misses", "miss"),
                ("serve.dedups", "dedup"),
                ("serve.execs", "exec"),
                ("serve.rejected", "rejected"),
                ("serve.errors", "error"),
            ] {
                pass.add(metric, counter(name));
            }
            let sweeps = counter("hit") + counter("miss") + counter("dedup");
            pass.add("serve.exec_per_new_key", counter("exec") / new_keys as f64);
            pass.add("serve.hit_share", counter("hit") / sweeps.max(1.0));
        }
        Err(e) => pass.failures.push(format!("stats failed: {e}")),
    }
    handle.shutdown();
}

/// Time `Store::save` and `Store::load` of the full-sweep artifact (the
/// largest the daemon stores) on a scratch store.
fn store_steps(b: &Bench, dir: &Path, artifact: &Artifact, pass: &mut Pass) {
    let key = StoreKey::for_request(&b.sweep_config(1).cache_key());
    let store = match Store::open(dir) {
        Ok((store, _)) => store,
        Err(e) => {
            pass.failures.push(format!("scratch store: {e}"));
            return;
        }
    };
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..SERVE_REPS {
        let t0 = Instant::now();
        let saved = store.save(&key, artifact).is_ok();
        saves.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let loaded = store.load(&key);
        loads.push(t0.elapsed().as_secs_f64());
        if !saved || !matches!(loaded, cubie_serve::Lookup::Hit(_)) {
            pass.failures
                .push("store save/load round trip failed".into());
        }
    }
    pass.add("serve.store_save_s", stats::median(&saves));
    pass.add("serve.store_load_s", stats::median(&loads));
}

/// A fixed-shape request sequence from the seed: every repeated key
/// twice (a miss, then a hit), [`SCRIPTED_NEW_KEYS`] never-seen keys, one `advise` per
/// workload, and one dedup pair from two connections. Returns the number
/// of distinct keys that had to execute.
fn scripted_requests(b: &Bench, index: usize, socket: &Path, pass: &mut Pass) -> usize {
    let mut conn = match Conn::open(socket) {
        Ok(c) => c,
        Err(e) => {
            pass.failures.push(format!("connect: {e}"));
            return 1;
        }
    };
    let repeated = mix::repeated_keys();
    let mut keygen = NewKeys::new(b.seed ^ index as u64, &repeated);
    let mut lines: Vec<String> = Vec::new();
    for key in &repeated {
        let line = key.to_json("sweep").to_canonical_string() + "\n";
        lines.push(line.clone());
        lines.push(line);
    }
    for _ in 0..SCRIPTED_NEW_KEYS {
        lines.push(keygen.next_key().to_json("sweep").to_canonical_string() + "\n");
    }
    for w in Workload::ALL {
        lines.push(mix::advise_request(w).to_json().to_canonical_string() + "\n");
    }
    let mut produced: BTreeMap<String, String> = BTreeMap::new();
    for line in &lines {
        match conn.round_trip(line).map(mix::parse_reply) {
            Ok(Reply::Advise) => {}
            Ok(Reply::Sweep {
                served,
                address,
                artifact,
            }) => match produced.get(address) {
                Some(bytes) if bytes != artifact => pass
                    .failures
                    .push(format!("{served:?} for {address} differs")),
                Some(_) => {}
                None => {
                    produced.insert(address.into(), artifact.into());
                }
            },
            _ => pass
                .failures
                .push(format!("request failed: {}", line.trim_end())),
        }
    }

    // The dedup pair: a key at a scale nothing has prepared, sent by two
    // connections released together.
    let dedup = mix::dedup_key(TRACE_DEDUP_SCALE + index)
        .to_json("sweep")
        .to_canonical_string()
        + "\n";
    let barrier = Barrier::new(2);
    let replies: Vec<Option<(Served, String)>> = std::thread::scope(|s| {
        let twins: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::open(socket).ok()?;
                    barrier.wait();
                    match mix::parse_reply(conn.round_trip(&dedup).ok()?) {
                        Reply::Sweep {
                            served, artifact, ..
                        } => Some((served, artifact.to_string())),
                        _ => None,
                    }
                })
            })
            .collect();
        twins
            .into_iter()
            .map(|t| t.join().expect("dedup twins do not panic"))
            .collect()
    });
    match (&replies[0], &replies[1]) {
        (Some((_, a)), Some((_, b))) if a == b => {}
        _ => pass.failures.push("dedup twins disagree or failed".into()),
    }
    repeated.len() + SCRIPTED_NEW_KEYS + 1
}
