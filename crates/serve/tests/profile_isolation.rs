//! Concurrent `profile` requests each report only their own spans.
//!
//! The span recorder is process-global, so any sweep running in the same
//! process during a profile's recording window lands in its rows. This
//! test therefore has a test binary, and so a process, to itself.

use std::time::Duration;

use cubie_golden::Json;
use cubie_serve::{client_request, Daemon, ServeConfig, SweepSpec};

#[test]
fn concurrent_profiles_each_report_only_their_own_workload() {
    let base = std::env::temp_dir().join(format!("cubied_profiles_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    // Two heavy slots let both profiles execute at once; the delay holds
    // the first inside its recording window while the second arrives.
    let mut handle = Daemon::start(ServeConfig {
        socket: base.join("sock"),
        store_dir: base.join("store"),
        max_jobs: 2,
        heavy_slots: 2,
        queue_limit: 2,
        exec_delay_ms: 400,
    })
    .unwrap();
    let socket = handle.socket().to_path_buf();
    let request = |workload: &str| {
        SweepSpec {
            filters: vec![format!("workload={workload}"), "device=h200".into()],
            sparse_scale: Some(64),
            graph_scale: Some(512),
            ..SweepSpec::default()
        }
        .to_json("profile")
    };
    let (bfs_socket, bfs_req) = (socket.clone(), request("bfs"));
    let bfs = std::thread::spawn(move || client_request(&bfs_socket, &bfs_req).unwrap());
    std::thread::sleep(Duration::from_millis(150));
    let scan = client_request(&socket, &request("scan")).unwrap();
    let bfs = bfs.join().unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&base);
    for (resp, own, other) in [(&bfs, "bfs/", "scan/"), (&scan, "scan/", "bfs/")] {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{own}");
        let labels: Vec<&str> = resp
            .get("hotspots")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|row| row.get("label").and_then(Json::as_str))
            .collect();
        assert!(
            labels.iter().any(|l| l.starts_with(own)),
            "no {own} rows: {labels:?}"
        );
        assert!(
            !labels.iter().any(|l| l.starts_with(other)),
            "the {own} profile carries {other} rows: {labels:?}"
        );
    }
}
