//! End-to-end exercise of `diogenes serve`: the daemon must answer a
//! `POST /run` + `GET /report/<id>` with bytes identical to the offline
//! CLI export for the same config, concurrent identical submissions must
//! compute once, and `/stats`, `/metrics`, and `/shutdown` must behave
//! as documented. Under `--max-done`, the daemon's in-memory artifacts
//! must follow its job table.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use diogenes::{run_diogenes, DiogenesConfig, ServeConfig, Server};
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{report_to_json, Json};

/// One HTTP exchange against the daemon; returns (status, body).
fn request(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Vec<u8>) {
    let mut s = TcpStream::connect(addr).expect("connect");
    let head =
        format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n", body.len());
    s.write_all(head.as_bytes()).unwrap();
    s.write_all(body).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).unwrap();
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("response has a head");
    let head = std::str::from_utf8(&raw[..split]).expect("head is UTF-8");
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, raw[split + 4..].to_vec())
}

/// Poll a report until the job finishes (the jobs here take well under a
/// second; the bound is generous for loaded CI machines).
fn poll_done(addr: SocketAddr, location: &str) -> (u16, Vec<u8>) {
    for _ in 0..600 {
        let (status, body) = request(addr, "GET", location, b"");
        if status != 202 {
            return (status, body);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    panic!("job at {location} never finished");
}

#[test]
fn serve_dedupes_concurrent_runs_and_matches_the_offline_cli() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        executors: 2,
        cache_dir: None, // memory-only store: the test must not touch results/
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    // Two concurrent identical submissions...
    let submit = |addr: SocketAddr| {
        std::thread::spawn(move || request(addr, "POST", "/run", br#"{"app": "als"}"#))
    };
    let (a, b) = (submit(addr), submit(addr));
    let (status_a, body_a) = a.join().unwrap();
    let (status_b, body_b) = b.join().unwrap();
    assert_eq!(status_a, 200, "{}", String::from_utf8_lossy(&body_a));
    assert_eq!(status_b, 200, "{}", String::from_utf8_lossy(&body_b));
    let doc_a = Json::parse(std::str::from_utf8(&body_a).unwrap()).unwrap();
    let doc_b = Json::parse(std::str::from_utf8(&body_b).unwrap()).unwrap();
    let id = doc_a.get("id").and_then(Json::as_str).expect("submission returns an id");
    assert_eq!(
        doc_b.get("id").and_then(Json::as_str),
        Some(id),
        "identical submissions share one job id"
    );
    let location = doc_a.get("location").and_then(Json::as_str).unwrap().to_string();
    assert_eq!(location, format!("/report/{id}"));

    // ...produce one report whose bytes equal the offline CLI export.
    let (status, served) = poll_done(addr, &location);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
    let offline = {
        let result = run_diogenes(&CumfAls::new(AlsConfig::test_scale()), DiogenesConfig::new())
            .expect("offline run");
        let mut bytes = Vec::new();
        report_to_json(&result.report).write_pretty(&mut bytes).unwrap();
        bytes
    };
    assert_eq!(served, offline, "served report bytes != offline CLI bytes");

    // Fetching again returns the identical bytes (cached result path).
    let (_, again) = request(addr, "GET", &location, b"");
    assert_eq!(again, served);

    // /stats: both submissions counted, one computation, dedupe visible.
    let (status, stats) = request(addr, "GET", "/stats", b"");
    assert_eq!(status, 200);
    let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let jobs = stats.get("jobs").expect("stats carries a jobs block");
    assert_eq!(jobs.get("submitted").and_then(Json::as_i128), Some(2));
    assert_eq!(jobs.get("deduped").and_then(Json::as_i128), Some(1));
    assert_eq!(jobs.get("computed").and_then(Json::as_i128), Some(1));
    assert_eq!(jobs.get("failed").and_then(Json::as_i128), Some(0));
    assert!(stats.get("queue_depth").and_then(Json::as_i128).is_some());

    // /metrics: the daemon accounts for its own request traffic.
    let (status, metrics) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(metrics).unwrap();
    let run_count = metrics
        .lines()
        .find_map(|l| l.strip_prefix("diogenes_http_requests_total{route=\"POST /run\"} "))
        .expect("POST /run tracked");
    assert_eq!(run_count, "2");

    // Error surface: bad submissions and unknown ids are client errors.
    let (status, _) = request(addr, "POST", "/run", br#"{"app": "nonesuch"}"#);
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/report/ffffffffffffffffffffffffffffffff", b"");
    assert_eq!(status, 404);
    // A run id is not fetchable through the sweep endpoint.
    let (status, _) = request(addr, "GET", &format!("/sweep/{id}"), b"");
    assert_eq!(status, 404);

    // Graceful shutdown: drain and exit; late submissions are refused.
    let (status, body) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    daemon.join().expect("daemon thread exits after shutdown");
}

#[test]
fn serve_runs_sweeps_and_keys_them_separately() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        executors: 1,
        cache_dir: None,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    let body = br#"{"app": "als",
                    "axes": [{"field": "cost.free_base_ns", "values": [1000, 2000]}]}"#;
    let (status, resp) = request(addr, "POST", "/sweep", body);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    let doc = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    let location = doc.get("location").and_then(Json::as_str).unwrap().to_string();
    assert!(location.starts_with("/sweep/"), "{location}");

    let (status, served) = poll_done(addr, &location);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
    let matrix = Json::parse(std::str::from_utf8(&served).unwrap()).unwrap();
    assert_eq!(matrix.get("total_cells").and_then(Json::as_i128), Some(2));

    // An invalid grid fails at submission time, not in the job.
    let bad = br#"{"app": "als", "axes": [{"field": "no.such.field", "values": [1]}]}"#;
    let (status, _) = request(addr, "POST", "/sweep", bad);
    assert_eq!(status, 400);

    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().expect("daemon exits");
}

/// The daemon's memory follows its job table. With no disk cache and
/// `--max-done 2`, each finished sweep evicts the oldest completed one,
/// and the evicted job's stage artifacts leave the store's memory layer.
/// A 2-cell sweep over `cost.free_base_ns` re-keys all eight stages of
/// both cells, so no two of these sweeps share an artifact.
#[test]
fn serve_memory_follows_the_job_table() {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        executors: 1,
        cache_dir: None,
        max_done: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run().expect("serve runs"));

    const KEYS_PER_JOB: i128 = 2 * 8;
    let sweep = |i: u64| {
        format!(
            r#"{{"app": "gaussian",
                 "axes": [{{"field": "cost.free_base_ns", "values": [{}, {}]}}]}}"#,
            1_000 + 2 * i,
            1_001 + 2 * i
        )
    };
    for i in 0..12 {
        let (status, resp) = request(addr, "POST", "/sweep", sweep(i).as_bytes());
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
        let doc = Json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        let location = doc.get("location").and_then(Json::as_str).unwrap().to_string();
        let (status, served) = poll_done(addr, &location);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&served));
        let (_, stats) = request(addr, "GET", "/stats", b"");
        let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
        let entries = stats
            .get("cache")
            .and_then(|cache| cache.get("entries"))
            .and_then(Json::as_i128)
            .expect("/stats reports cache.entries");
        assert!(
            (KEYS_PER_JOB..=3 * KEYS_PER_JOB).contains(&entries),
            "after sweep {i}: {entries} artifacts in memory"
        );
    }

    // The newest sweep is still known, so resubmitting it dedupes.
    let (status, _) = request(addr, "POST", "/sweep", sweep(11).as_bytes());
    assert_eq!(status, 200);
    let (_, stats) = request(addr, "GET", "/stats", b"");
    let stats = Json::parse(std::str::from_utf8(&stats).unwrap()).unwrap();
    let jobs = stats.get("jobs").expect("stats carries a jobs block");
    assert_eq!(jobs.get("deduped").and_then(Json::as_i128), Some(1));
    assert_eq!(jobs.get("computed").and_then(Json::as_i128), Some(12));
    assert_eq!(jobs.get("evicted").and_then(Json::as_i128), Some(10));

    let (status, _) = request(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    daemon.join().expect("daemon exits");
}
