//! The `cubied` wire protocol: line-delimited canonical JSON over a
//! unix socket.
//!
//! Every request is one JSON object on one line, every response one JSON
//! object on one line (compact [`Json::to_canonical_string`] spelling —
//! the canonical writer guarantees a store hit serializes to the same
//! bytes as the fresh run it caches). A connection may issue any number
//! of requests sequentially; the daemon answers in order.
//!
//! ```text
//! {"cmd":"ping"}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! {"cmd":"sweep","filters":["workload=scan","device=h200"],"jobs":2,
//!  "sparse_scale":64,"graph_scale":512,"verify":false}
//! {"cmd":"profile","filters":["workload=spmv"],"sparse_scale":64,"graph_scale":512}
//! {"cmd":"advise","workload":"spmv","devices":["h200"],"sparse_scale":64,"graph_scale":512}
//! ```
//!
//! Responses always carry `"ok"`; failures carry `"error"` and nothing
//! else, so a client can branch on one field. Successful `sweep`
//! responses carry `"store"` — `"miss"` (this request executed the
//! sweep), `"hit"` (served from the content-addressed store), or
//! `"dedup"` (this request piggybacked on a concurrent identical
//! execution) — plus the store `"key"` and the canonical `"artifact"`.

use cubie_bench::{check_scale, SweepConfig};
use cubie_golden::{obj, Json};

/// Protocol identifier, included in `ping`/`stats` responses.
pub const PROTO_VERSION: &str = "cubied/v1";

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Counter/queue/store snapshot.
    Stats,
    /// Graceful daemon shutdown (responds, then stops accepting).
    Shutdown,
    /// A sweep over the filtered cross-product (store-backed).
    Sweep(SweepSpec),
    /// A sweep under the span recorder; returns hotspot rows, never
    /// stored (wall-clock measurements are not deterministic content).
    Profile(SweepSpec),
    /// Advisor verdict for one workload (interactive lane — bypasses
    /// the heavy-request admission queue).
    Advise(AdviseSpec),
}

/// The sweep-shaped request body (`sweep` and `profile`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSpec {
    /// `key=value[,value…]` filter terms, the CLI `--filter` spelling.
    pub filters: Vec<String>,
    /// Requested worker cap; the daemon clamps it to its admission cap.
    pub jobs: Option<usize>,
    /// Sparse-matrix scale divisor (`None`: daemon default).
    pub sparse_scale: Option<usize>,
    /// Graph scale divisor (`None`: daemon default).
    pub graph_scale: Option<usize>,
    /// On a store hit, re-execute anyway and require bit-identity via
    /// [`cubie_golden::verify_bit_identical`] — the cache-validation
    /// oracle as an on-demand request flag.
    pub verify: bool,
}

/// The `advise` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct AdviseSpec {
    /// Workload name ([`cubie_kernels::Workload::parse`] spelling).
    pub workload: String,
    /// Device names to advise on (`None`: all Table 5 devices).
    pub devices: Option<Vec<String>>,
    /// Sparse-matrix scale divisor (`None`: daemon default).
    pub sparse_scale: Option<usize>,
    /// Graph scale divisor (`None`: daemon default).
    pub graph_scale: Option<usize>,
}

fn get_usize(doc: &Json, key: &str) -> Result<Option<usize>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => match v.as_int() {
            Some(i) if i >= 0 && i <= usize::MAX as i128 => Ok(Some(i as usize)),
            _ => Err(format!("`{key}` must be a non-negative integer")),
        },
    }
}

fn get_strings(doc: &Json, key: &str) -> Result<Option<Vec<String>>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let arr = v
                .as_array()
                .ok_or_else(|| format!("`{key}` must be an array of strings"))?;
            let mut out = Vec::with_capacity(arr.len());
            for item in arr {
                out.push(
                    item.as_str()
                        .ok_or_else(|| format!("`{key}` must be an array of strings"))?
                        .to_string(),
                );
            }
            Ok(Some(out))
        }
    }
}

fn sweep_spec(doc: &Json) -> Result<SweepSpec, String> {
    Ok(SweepSpec {
        filters: get_strings(doc, "filters")?.unwrap_or_default(),
        jobs: get_usize(doc, "jobs")?,
        sparse_scale: get_usize(doc, "sparse_scale")?,
        graph_scale: get_usize(doc, "graph_scale")?,
        verify: match doc.get("verify") {
            None | Some(Json::Null) => false,
            Some(v) => v.as_bool().ok_or("`verify` must be a boolean")?,
        },
    })
}

/// Parse one request line. Errors are client-facing strings — the
/// daemon wraps them in an `"ok": false` response rather than dropping
/// the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    if !matches!(doc, Json::Object(_)) {
        return Err("request must be a JSON object".into());
    }
    let cmd = doc
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("request needs a string `cmd` field")?;
    match cmd {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "sweep" => Ok(Request::Sweep(sweep_spec(&doc)?)),
        "profile" => Ok(Request::Profile(sweep_spec(&doc)?)),
        "advise" => Ok(Request::Advise(AdviseSpec {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("`advise` needs a string `workload` field")?
                .to_string(),
            devices: get_strings(&doc, "devices")?,
            sparse_scale: get_usize(&doc, "sparse_scale")?,
            graph_scale: get_usize(&doc, "graph_scale")?,
        })),
        other => Err(format!(
            "unknown cmd `{other}` (ping|stats|shutdown|sweep|profile|advise)"
        )),
    }
}

impl SweepSpec {
    /// Resolve into a [`SweepConfig`]: the defaults (environment and
    /// built-in scales), overridden by the request's scales and jobs,
    /// narrowed by its filters. The daemon replaces `jobs` with its
    /// admission-clamped value before it runs the sweep.
    pub fn to_config(&self) -> Result<SweepConfig, String> {
        let mut cfg = SweepConfig::default();
        if self.jobs.is_some() {
            cfg.jobs = self.jobs;
        }
        if let Some(ss) = self.sparse_scale {
            cfg.sparse_scale = check_scale("`sparse_scale`", ss)?;
        }
        if let Some(gs) = self.graph_scale {
            cfg.graph_scale = check_scale("`graph_scale`", gs)?;
        }
        for term in &self.filters {
            cfg.apply_filter(term)?;
        }
        Ok(cfg)
    }

    /// The request as a wire [`Json`] object (client side; `cmd` names
    /// `sweep` or `profile`).
    pub fn to_json(&self, cmd: &str) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![("cmd", cmd.into())];
        if !self.filters.is_empty() {
            pairs.push((
                "filters",
                Json::Array(self.filters.iter().map(|f| f.as_str().into()).collect()),
            ));
        }
        if let Some(j) = self.jobs {
            pairs.push(("jobs", (j as u64).into()));
        }
        if let Some(ss) = self.sparse_scale {
            pairs.push(("sparse_scale", (ss as u64).into()));
        }
        if let Some(gs) = self.graph_scale {
            pairs.push(("graph_scale", (gs as u64).into()));
        }
        if self.verify {
            pairs.push(("verify", true.into()));
        }
        obj(pairs)
    }
}

impl AdviseSpec {
    /// The `(sparse, graph)` scales to advise at: the request's, checked
    /// like a sweep's, or the daemon defaults.
    pub fn scales(&self) -> Result<(usize, usize), String> {
        let defaults = SweepConfig::default();
        Ok((
            match self.sparse_scale {
                Some(ss) => check_scale("`sparse_scale`", ss)?,
                None => defaults.sparse_scale,
            },
            match self.graph_scale {
                Some(gs) => check_scale("`graph_scale`", gs)?,
                None => defaults.graph_scale,
            },
        ))
    }

    /// The request as a wire [`Json`] object (client side).
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(&str, Json)> = vec![
            ("cmd", "advise".into()),
            ("workload", self.workload.as_str().into()),
        ];
        if let Some(devs) = &self.devices {
            pairs.push((
                "devices",
                Json::Array(devs.iter().map(|d| d.as_str().into()).collect()),
            ));
        }
        if let Some(ss) = self.sparse_scale {
            pairs.push(("sparse_scale", (ss as u64).into()));
        }
        if let Some(gs) = self.graph_scale {
            pairs.push(("graph_scale", (gs as u64).into()));
        }
        obj(pairs)
    }
}

/// A bare `{"cmd": …}` request (`ping`/`stats`/`shutdown`).
pub fn simple_request(cmd: &str) -> Json {
    obj(vec![("cmd", cmd.into())])
}

/// A failure response: `{"ok": false, "error": …}`.
pub fn error_response(msg: &str) -> Json {
    obj(vec![("ok", false.into()), ("error", msg.into())])
}

/// A success response: `{"ok": true, "cmd": …, …fields}`.
pub fn ok_response(cmd: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs: Vec<(&str, Json)> = vec![("ok", true.into()), ("cmd", cmd.into())];
    pairs.extend(fields);
    obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_commands() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(parse_request(r#"{"cmd":"stats"}"#), Ok(Request::Stats));
        assert_eq!(
            parse_request(r#"{"cmd":"shutdown"}"#),
            Ok(Request::Shutdown)
        );
    }

    #[test]
    fn parse_errors_name_the_problem() {
        assert!(parse_request("not json").unwrap_err().contains("not valid"));
        assert!(parse_request("[1,2]").unwrap_err().contains("JSON object"));
        assert!(parse_request("{}").unwrap_err().contains("`cmd`"));
        assert!(parse_request(r#"{"cmd":"fly"}"#)
            .unwrap_err()
            .contains("unknown cmd `fly`"));
        assert!(parse_request(r#"{"cmd":"sweep","jobs":-1}"#)
            .unwrap_err()
            .contains("`jobs`"));
        assert!(parse_request(r#"{"cmd":"sweep","filters":[1]}"#)
            .unwrap_err()
            .contains("`filters`"));
        assert!(parse_request(r#"{"cmd":"advise"}"#)
            .unwrap_err()
            .contains("`workload`"));
    }

    #[test]
    fn sweep_spec_round_trips_through_the_wire_shape() {
        let spec = SweepSpec {
            filters: vec!["workload=scan".into(), "device=h200".into()],
            jobs: Some(2),
            sparse_scale: Some(64),
            graph_scale: Some(512),
            verify: true,
        };
        let line = spec.to_json("sweep").to_canonical_string();
        match parse_request(&line) {
            Ok(Request::Sweep(back)) => assert_eq!(back, spec),
            other => panic!("expected sweep, got {other:?}"),
        }
        let advise = AdviseSpec {
            workload: "spmv".into(),
            devices: Some(vec!["h200".into()]),
            sparse_scale: None,
            graph_scale: None,
        };
        let line = advise.to_json().to_canonical_string();
        match parse_request(&line) {
            Ok(Request::Advise(back)) => assert_eq!(back, advise),
            other => panic!("expected advise, got {other:?}"),
        }
    }

    #[test]
    fn sweep_spec_resolves_to_a_filtered_config() {
        let spec = SweepSpec {
            filters: vec!["workload=scan".into(), "case=2".into()],
            jobs: Some(3),
            sparse_scale: Some(64),
            graph_scale: Some(512),
            ..SweepSpec::default()
        };
        let cfg = spec.to_config().unwrap();
        assert_eq!(cfg.workloads, vec![cubie_kernels::Workload::Scan]);
        assert_eq!(cfg.cases, Some(vec![2]));
        assert_eq!((cfg.sparse_scale, cfg.graph_scale), (64, 512));
        assert_eq!(cfg.jobs, Some(3), "the request's jobs, before any clamp");
        // Bad inputs surface as client errors, not panics.
        let bad = SweepSpec {
            filters: vec!["workload=warp9".into()],
            ..SweepSpec::default()
        };
        assert!(bad.to_config().unwrap_err().contains("warp9"));
        let zero = SweepSpec {
            sparse_scale: Some(0),
            ..SweepSpec::default()
        };
        assert!(zero.to_config().unwrap_err().contains("sparse_scale"));
    }

    #[test]
    fn advise_scales_reject_zero_like_a_sweep() {
        let spec = AdviseSpec {
            workload: "spmv".into(),
            devices: None,
            sparse_scale: Some(64),
            graph_scale: Some(512),
        };
        assert_eq!(spec.scales(), Ok((64, 512)));
        let zero = AdviseSpec {
            graph_scale: Some(0),
            ..spec
        };
        assert_eq!(
            zero.scales().unwrap_err(),
            "`graph_scale` must be at least 1"
        );
    }
}
