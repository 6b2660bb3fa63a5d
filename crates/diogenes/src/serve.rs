//! `diogenes serve` — the analysis-as-a-service daemon.
//!
//! A long-running, std-only HTTP/1.1 server (see [`crate::http`]) that
//! turns the one-shot CLI into a service: clients POST run or sweep
//! submissions, the daemon enqueues them on an internal job queue
//! drained by a small set of executor threads, and results are fetched
//! by content-derived job id. Each executor runs one job at a time, all
//! of it on its own thread (at `jobs = 1`, so it starts no fan-out
//! helper): every artifact a job builds stays in the daemon's store, and
//! building it on short-lived helper threads measurably fragments the
//! daemon's heap. The executors are the daemon's parallelism.
//!
//! ## Identity and dedupe
//!
//! A submission's id is a digest of its *normalized content* (app,
//! scale, axes — never `jobs`, because reports are byte-identical at
//! every worker count). Two identical submissions — concurrent or
//! repeated — therefore share one job: the second attaches to the
//! first's entry and no duplicate computation is enqueued. Below the
//! job layer, stage artifacts flow through the shared
//! [`ffm_core::ArtifactStore`], so even *different* submissions that
//! overlap upstream (same app, overlapping config) reuse stage outputs,
//! and a rival daemon pointed at the same cache directory reads what
//! this one wrote. Executors that miss the same stage at once each
//! compute it; the store's atomic rename keeps their writes whole.
//!
//! ## Byte identity
//!
//! A job's result bytes are exactly what the offline CLI writes for the
//! same config: `report_to_json(..)`/`sweep_to_json(..)` rendered
//! through `Json::write_pretty`. `GET /report/<id>` returns those bytes
//! verbatim, so `diogenes serve` and `diogenes <app> --json` can be
//! `cmp`'d against each other (the CI smoke test does).
//!
//! ## Streaming jobs
//!
//! `POST /run?stream=1` executes through the streaming pipeline
//! ([`ffm_core::run_ffm_streaming_with_store`]): the job publishes one
//! analysis snapshot per window of consumed stage 2 calls, readable
//! while the job still runs via `GET /report/<id>?epoch=<k>`. The final
//! report bytes are identical to the batch job's (the identity suite
//! pins it), but the *id* is distinct — epochs are part of what the job
//! computes, so `stream` and the window size join the digest. `/stats`
//! lists in-flight streaming jobs under `live`, and `/metrics` exposes
//! epoch counters. Clients that poll epochs are expected to reuse the
//! connection (`Connection: keep-alive`, see [`crate::http`]).
//!
//! ## Content negotiation
//!
//! `GET /report/<id>` and `GET /sweep/<id>` return JSON by default;
//! `Accept: application/x-diogenes-ffb` re-encodes the stored document
//! through the FFB codec (`ffm_core::encode_doc`); `ffm_core::decode_any_doc`
//! turns those bytes back into the JSON document.
//!
//! ## Shutdown
//!
//! `POST /shutdown` stops accepting new submissions, drains queued and
//! in-flight jobs, then exits. SIGINT terminates immediately (std has no
//! signal hooks and the workspace takes no dependencies); that is safe
//! because all final artifact writes go through the atomic
//! temp-file+rename path in [`crate::artifact`].

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use cuda_driver::GpuApp;
use diogenes_apps::*;
use ffm_core::telemetry::TraceId;
use ffm_core::{
    analysis_to_json, decode_any_doc, encode_doc, is_ffb, log_debug, log_info, log_warn,
    report_to_json, run_ffm_streaming_with_store, run_ffm_with_store, run_sweep_with_store,
    sweep_to_json, telemetry, ArtifactStore, Axis, CacheMode, FfmConfig, Json, KeyHasher, PromText,
    StoreStats, DEFAULT_STREAM_WINDOW,
};

use crate::http::{
    read_request_buffered, wants_keep_alive, write_response, write_response_conn, Request,
    MAX_KEEPALIVE_EXCHANGES,
};

/// Construct one of the five simulated applications by CLI name.
/// Shared by the CLI entry point and the daemon so both accept exactly
/// the same app vocabulary.
pub fn build_app(name: &str, paper: bool) -> Option<Box<dyn GpuApp>> {
    Some(match (name, paper) {
        ("als", false) => Box::new(CumfAls::new(AlsConfig::test_scale())),
        ("als", true) => Box::new(CumfAls::new(AlsConfig::paper_scale())),
        ("cuibm", false) => Box::new(CuIbm::new(CuibmConfig::test_scale())),
        ("cuibm", true) => Box::new(CuIbm::new(CuibmConfig::paper_scale())),
        ("amg", false) => Box::new(Amg::new(AmgConfig::test_scale())),
        ("amg", true) => Box::new(Amg::new(AmgConfig::paper_scale())),
        ("gaussian", false) => Box::new(Gaussian::new(GaussianConfig::test_scale())),
        ("gaussian", true) => Box::new(Gaussian::new(GaussianConfig::paper_scale())),
        ("pipelined", false) => Box::new(Pipelined::new(PipelinedConfig::test_scale())),
        ("pipelined", true) => Box::new(Pipelined::new(PipelinedConfig::paper_scale())),
        _ => return None,
    })
}

/// Parse a scale name — the CLI's `--scale` and a submission's
/// `"scale"` — into [`build_app`]'s `paper` flag. Anything but `test`
/// or `paper` is an error, never a silent test-scale run.
pub fn parse_scale(scale: &str) -> Result<bool, String> {
    match scale {
        "test" => Ok(false),
        "paper" => Ok(true),
        other => Err(format!("unknown scale {other:?} (expected test or paper)")),
    }
}

/// Daemon configuration (the `diogenes serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port `0` asks the OS for an ephemeral port.
    pub addr: String,
    /// Ignored: every job runs on its executor's thread at `jobs = 1`,
    /// and reports are byte-identical at every worker count anyway.
    pub jobs: usize,
    /// Executor threads draining the job queue. Each executes one job at
    /// a time on its own thread.
    pub executors: usize,
    /// Stage-artifact cache directory; `None` = memory-only store.
    pub cache_dir: Option<PathBuf>,
    /// Backpressure bound: submissions that would push the job queue
    /// past this depth are refused with `429` instead of queueing
    /// unboundedly (`--max-queue`).
    pub max_queue: usize,
    /// Completed (done or failed) jobs retained in the job table; the
    /// least-recently-accessed past this count are evicted
    /// (`--max-done`). Evicted results are reconstructible: resubmitting
    /// the same spec replays through the artifact store's caches.
    pub max_done: usize,
    /// Byte budget for the always-on flight recorder (`0` disables;
    /// `--flight-recorder-bytes`).
    pub flight_recorder_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7177".to_string(),
            jobs: 0,
            executors: 2,
            cache_dir: Some(PathBuf::from("results/cache")),
            max_queue: 256,
            max_done: 64,
            flight_recorder_bytes: 1 << 20,
        }
    }
}

/// What a job computes. `stream`/`window` are identity for run
/// jobs: a streaming job additionally publishes per-epoch snapshots
/// whose shape depends on the window, so it must not dedupe against a
/// batch job (or a differently-windowed stream) for the same app.
#[derive(Debug, Clone)]
enum JobSpec {
    Run { app: String, paper: bool, stream: bool, window: usize },
    Sweep { app: String, paper: bool, axes: Vec<Axis>, paired: bool },
}

impl JobSpec {
    fn kind(&self) -> &'static str {
        match self {
            JobSpec::Run { .. } => "run",
            JobSpec::Sweep { .. } => "sweep",
        }
    }

    /// Content-derived job id: a digest of everything that determines
    /// the result bytes. Axis order is kept significant — reordered axes
    /// produce a differently-shaped sweep document.
    fn id(&self) -> String {
        let mut h = match self {
            JobSpec::Run { .. } => KeyHasher::new("serve-run"),
            JobSpec::Sweep { .. } => KeyHasher::new("serve-sweep"),
        };
        match self {
            JobSpec::Run { app, paper, stream, window, .. } => {
                h.push_str(app);
                h.push_u64(*paper as u64);
                // Batch ids stay exactly as they were; streamed jobs get
                // a domain-separated id keyed on the window.
                if *stream {
                    h.push_str("stream");
                    h.push_u64(*window as u64);
                }
            }
            JobSpec::Sweep { app, paper, axes, paired, .. } => {
                h.push_str(app);
                h.push_u64(*paper as u64);
                h.push_u64(*paired as u64);
                h.push_u64(axes.len() as u64);
                for a in axes {
                    h.push_str(&a.field);
                    h.push_u64(a.values.len() as u64);
                    for &v in &a.values {
                        h.push_u64(v);
                    }
                }
            }
        }
        h.finish().hex()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobStatus {
    fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }
}

struct Job {
    spec: JobSpec,
    status: JobStatus,
    /// Result bytes (the exact artifact the offline CLI would write).
    result: Option<Arc<Vec<u8>>>,
    /// Per-epoch snapshot documents published by a streaming run while
    /// it executes; index k answers `GET /report/<id>?epoch=k`. The last
    /// epoch of a finished job carries the final analysis.
    epochs: Vec<Arc<Vec<u8>>>,
    error: Option<String>,
    /// Correlation id installed while the job executes (derived from the
    /// job id, so `/trace?job=<id>` can find its spans).
    trace: TraceId,
    /// Monotone access tick ([`Shared::access_tick`]) bumped on
    /// submission and fetch — the LRU key for done-job eviction.
    last_access: u64,
}

/// Correlation id for a job: the leading 64 bits of its content digest.
/// Never 0 (0 means "untraced"); the all-zero prefix is unreachable in
/// practice but mapped away anyway.
fn job_trace(id: &str) -> TraceId {
    let raw = id.get(..16).and_then(|h| u64::from_str_radix(h, 16).ok()).unwrap_or(1);
    TraceId(if raw == 0 { 1 } else { raw })
}

struct ServeState {
    jobs: HashMap<String, Job>,
    queue: VecDeque<String>,
    draining: bool,
}

/// Request routes with dedicated telemetry aggregates.
const ROUTES: [&str; 9] = [
    "POST /run",
    "POST /sweep",
    "GET /report",
    "GET /sweep",
    "GET /stats",
    "GET /metrics",
    "GET /trace",
    "POST /shutdown",
    "other",
];

#[derive(Default)]
struct RouteStats {
    count: AtomicU64,
    /// Latency distribution behind the `/metrics` quantile summaries.
    /// Uncontended except when the same route is hit concurrently.
    hist: Mutex<telemetry::Hist>,
}

struct Shared {
    state: Mutex<ServeState>,
    work_cv: Condvar,
    store: ArtifactStore,
    executors: usize,
    max_queue: usize,
    max_done: usize,
    started: Instant,
    submissions: AtomicU64,
    dedup_hits: AtomicU64,
    computed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    in_flight: AtomicU64,
    bytes_served: AtomicU64,
    /// Per-epoch snapshots published by streaming jobs over the
    /// daemon's life.
    stream_epochs: AtomicU64,
    /// Source of request-correlation ids for HTTP connections (job
    /// executions use [`job_trace`] instead).
    next_trace: AtomicU64,
    /// Monotone clock for job-table LRU ordering.
    access_tick: AtomicU64,
    routes: [RouteStats; ROUTES.len()],
}

impl Shared {
    fn tick(&self) -> u64 {
        self.access_tick.fetch_add(1, Ordering::Relaxed)
    }
}

/// A bound, not-yet-running daemon. Splitting bind from run lets callers
/// (tests, the CI smoke script via port `0`) learn the actual address
/// before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    executors: usize,
}

impl Server {
    pub fn bind(cfg: ServeConfig) -> Result<Server, String> {
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let store = match &cfg.cache_dir {
            Some(dir) => ArtifactStore::with_disk(dir.clone()),
            None => ArtifactStore::in_memory(),
        };
        // The flight recorder is process-global (spans record from every
        // thread); the daemon owns its configuration.
        telemetry::flight_configure(cfg.flight_recorder_bytes);
        let executors = cfg.executors.max(1);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(ServeState {
                    jobs: HashMap::new(),
                    queue: VecDeque::new(),
                    draining: false,
                }),
                work_cv: Condvar::new(),
                store,
                executors,
                max_queue: cfg.max_queue.max(1),
                max_done: cfg.max_done.max(1),
                started: Instant::now(),
                submissions: AtomicU64::new(0),
                dedup_hits: AtomicU64::new(0),
                computed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
                bytes_served: AtomicU64::new(0),
                stream_epochs: AtomicU64::new(0),
                next_trace: AtomicU64::new(1),
                access_tick: AtomicU64::new(1),
                routes: Default::default(),
            }),
            executors,
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| format!("local_addr: {e}"))
    }

    /// Accept and serve until a `POST /shutdown` drains the daemon.
    /// Blocks the calling thread for the server's whole life.
    pub fn run(self) -> Result<(), String> {
        let addr = self.local_addr()?;
        let mut executors = Vec::new();
        for i in 0..self.executors {
            let shared = Arc::clone(&self.shared);
            executors.push(
                std::thread::Builder::new()
                    .name(format!("serve-exec-{i}"))
                    .spawn(move || executor_loop(&shared))
                    .map_err(|e| format!("spawn executor: {e}"))?,
            );
        }
        for stream in self.listener.incoming() {
            if self.shared.state.lock().unwrap().draining {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            // Thread-per-connection: exchanges are single-shot and
            // short-lived; heavy work happens on the executors, not here.
            let _ = std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || handle_connection(stream, &shared, addr));
        }
        // Drain: executors exit once the queue is empty and draining set.
        self.shared.work_cv.notify_all();
        for h in executors {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Bind, announce the address on stdout (machine-readable: the last
/// whitespace-separated token is `host:port`), and run to completion.
pub fn serve(cfg: ServeConfig) -> Result<(), String> {
    let server = Server::bind(cfg)?;
    let addr = server.local_addr()?;
    println!("diogenes serve: listening on {addr}");
    eprintln!(
        "diogenes serve: POST /run[?stream=1] | POST /sweep | GET /report/<id>[?epoch=<k>] | \
         GET /sweep/<id> | GET /stats | GET /metrics | \
         GET /trace[?job=<id>] | POST /shutdown"
    );
    server.run()
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

fn executor_loop(shared: &Shared) {
    loop {
        let id = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if let Some(id) = st.queue.pop_front() {
                    if let Some(job) = st.jobs.get_mut(&id) {
                        job.status = JobStatus::Running;
                    }
                    break id;
                }
                if st.draining {
                    return;
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let (spec, trace) = match shared.state.lock().unwrap().jobs.get(&id) {
            Some(job) => (job.spec.clone(), job.trace),
            None => continue,
        };
        shared.in_flight.fetch_add(1, Ordering::Relaxed);
        let outcome = {
            // All spans and log lines under this job carry the job's
            // correlation id, so `/trace?job=<id>` finds them.
            let _trace = telemetry::trace_scope(Some(trace));
            let _span = {
                let id = id.clone();
                telemetry::span_detail("serve.job", move || id)
            };
            log_info!("job start kind={} id={id}", spec.kind());
            let t0 = Instant::now();
            let outcome = execute_job(&spec, shared, &id);
            match &outcome {
                Ok(bytes) => log_info!(
                    "job done kind={} id={id} bytes={} elapsed_ms={}",
                    spec.kind(),
                    bytes.len(),
                    t0.elapsed().as_millis()
                ),
                Err(e) => log_warn!("job failed kind={} id={id}: {e}", spec.kind()),
            }
            outcome
        };
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
        let mut st = shared.state.lock().unwrap();
        if let Some(job) = st.jobs.get_mut(&id) {
            match outcome {
                Ok(bytes) => {
                    job.status = JobStatus::Done;
                    job.result = Some(Arc::new(bytes));
                    shared.computed.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    job.status = JobStatus::Failed;
                    job.error = Some(e);
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        evict_done(&mut st, shared);
    }
}

/// LRU eviction of completed jobs: whenever the table holds more than
/// `max_done` done/failed entries, drop the least-recently-accessed
/// until back under the cap. Queued and running jobs are never evicted.
/// An evicted result is not lost work — resubmitting the same spec
/// replays through the artifact store, which still holds the stage
/// artifacts.
fn evict_done(st: &mut ServeState, shared: &Shared) {
    loop {
        let done: Vec<(&String, u64)> = st
            .jobs
            .iter()
            .filter(|(_, j)| matches!(j.status, JobStatus::Done | JobStatus::Failed))
            .map(|(id, j)| (id, j.last_access))
            .collect();
        if done.len() <= shared.max_done {
            return;
        }
        let victim = done
            .iter()
            .min_by_key(|(_, tick)| *tick)
            .map(|(id, _)| (*id).clone())
            .expect("non-empty by the cap check");
        st.jobs.remove(&victim);
        shared.evicted.fetch_add(1, Ordering::Relaxed);
        log_debug!("evicted completed job id={victim} (table over --max-done)");
    }
}

/// Compute a job's result bytes — exactly the bytes the offline CLI
/// writes for the same config. A streaming run additionally publishes
/// per-epoch snapshot documents into the job table as it folds, so
/// clients can read them (`?epoch=k`) before the result exists.
fn execute_job(spec: &JobSpec, shared: &Shared, id: &str) -> Result<Vec<u8>, String> {
    let doc = match spec {
        JobSpec::Run { app, paper, stream: false, .. } => {
            let app = build_app(app, *paper).ok_or_else(|| format!("unknown app {app:?}"))?;
            let cfg = FfmConfig::default().with_jobs(1);
            let report = run_ffm_with_store(app.as_ref(), &cfg, Some(&shared.store))
                .map_err(|e| format!("pipeline failed: {e}"))?;
            report_to_json(&report)
        }
        JobSpec::Run { app, paper, stream: true, window } => {
            let app = build_app(app, *paper).ok_or_else(|| format!("unknown app {app:?}"))?;
            let cfg = FfmConfig::default().with_jobs(1);
            let report = run_ffm_streaming_with_store(
                app.as_ref(),
                &cfg,
                *window,
                Some(&shared.store),
                |snap| {
                    let doc = Json::obj([
                        ("epoch", Json::Int(snap.epoch as i128)),
                        ("calls_consumed", Json::Int(snap.calls_consumed as i128)),
                        ("nodes", Json::Int(snap.nodes as i128)),
                        ("analysis", analysis_to_json(snap.analysis)),
                    ]);
                    let mut bytes = Vec::new();
                    if doc.write_pretty(&mut bytes).is_ok() {
                        let mut st = shared.state.lock().unwrap();
                        if let Some(job) = st.jobs.get_mut(id) {
                            job.epochs.push(Arc::new(bytes));
                        }
                        drop(st);
                        shared.stream_epochs.fetch_add(1, Ordering::Relaxed);
                    }
                },
            )
            .map_err(|e| format!("pipeline failed: {e}"))?;
            report_to_json(&report)
        }
        JobSpec::Sweep { app, paper, axes, paired } => {
            let app = build_app(app, *paper).ok_or_else(|| format!("unknown app {app:?}"))?;
            let mut spec = crate::sweep::build_spec(axes.clone(), *paired, 1);
            // The store is threaded in directly; the spec-level cache
            // mode is unused on this path.
            spec.cache = CacheMode::Off;
            let matrix = run_sweep_with_store(app.as_ref(), &spec, Some(&shared.store))?;
            sweep_to_json(&matrix)
        }
    };
    let mut bytes = Vec::new();
    doc.write_pretty(&mut bytes).map_err(|e| format!("render: {e}"))?;
    Ok(bytes)
}

// ---------------------------------------------------------------------------
// Connections and routing
// ---------------------------------------------------------------------------

fn route_index(method: &str, path: &str) -> usize {
    let label = match (method, path) {
        ("POST", "/run") => "POST /run",
        ("POST", "/sweep") => "POST /sweep",
        ("POST", "/shutdown") => "POST /shutdown",
        ("GET", "/stats") => "GET /stats",
        ("GET", "/metrics") => "GET /metrics",
        ("GET", "/trace") => "GET /trace",
        ("GET", p) if p.starts_with("/report/") => "GET /report",
        ("GET", p) if p.starts_with("/sweep/") => "GET /sweep",
        _ => "other",
    };
    ROUTES.iter().position(|&r| r == label).expect("label drawn from ROUTES")
}

const CT_JSON: &str = "application/json";
const CT_FFB: &str = "application/x-diogenes-ffb";
const CT_PROM: &str = "text/plain; version=0.0.4";

fn handle_connection(mut stream: TcpStream, shared: &Shared, self_addr: std::net::SocketAddr) {
    // Keep-alive loop: a client that opts in (`Connection: keep-alive`)
    // gets up to MAX_KEEPALIVE_EXCHANGES requests on one socket — the
    // access pattern of a live epoch poller. The carry buffer threads
    // pipelined surplus bytes from one read into the next.
    let mut carry = Vec::new();
    for exchange in 0..MAX_KEEPALIVE_EXCHANGES {
        let mut req = match read_request_buffered(&mut stream, &mut carry) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close (probe, shutdown self-connect, or drained keep-alive)
            Err(e) => {
                let body = error_body(&e);
                let _ = write_response(&mut stream, 400, CT_JSON, &body);
                return;
            }
        };
        let t0 = Instant::now();
        // Every request gets a fresh correlation id; log lines and spans
        // for this exchange carry it until the response is written. Job
        // execution swaps in the job-derived id on the executor thread.
        let trace = TraceId(shared.next_trace.fetch_add(1, Ordering::Relaxed));
        let _trace = telemetry::trace_scope(Some(trace));
        let _span = telemetry::span("serve.request");
        log_debug!("request {} {}", req.method, req.path);
        let (status, body, content_type) = respond(&req, shared, self_addr);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        let ri = route_index(&req.method, &req.path);
        shared.routes[ri].count.fetch_add(1, Ordering::Relaxed);
        shared.routes[ri].hist.lock().unwrap().record(elapsed_ns);
        shared.bytes_served.fetch_add(body.len() as u64, Ordering::Relaxed);
        let keep_alive = wants_keep_alive(&req) && exchange + 1 < MAX_KEEPALIVE_EXCHANGES;
        // The submission was decoded in place from the pooled body
        // buffer; the response is out, so recycle it for the next
        // request on this (or any) connection.
        ffm_core::iobuf::release(std::mem::take(&mut req.body));
        if write_response_conn(&mut stream, status, content_type, &body, keep_alive).is_err()
            || !keep_alive
        {
            return;
        }
    }
}

fn error_body(msg: &str) -> Vec<u8> {
    Json::obj([("error", Json::Str(msg.to_string()))]).to_string_pretty().into_bytes()
}

fn respond(
    req: &Request,
    shared: &Shared,
    self_addr: std::net::SocketAddr,
) -> (u16, Vec<u8>, &'static str) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => {
            (200, render_metrics(shared, &counters(shared)).into_bytes(), CT_PROM)
        }
        ("GET", path) if path.starts_with("/report/") => {
            fetch(req, shared, &path["/report/".len()..], "run")
        }
        ("GET", path) if path.starts_with("/sweep/") => {
            fetch(req, shared, &path["/sweep/".len()..], "sweep")
        }
        (method, path) => {
            let (status, body) = match (method, path) {
                ("POST", "/run") => submit(req, shared, false),
                ("POST", "/sweep") => submit(req, shared, true),
                ("GET", "/stats") => {
                    (200, stats_doc(&counters(shared)).to_string_pretty().into_bytes())
                }
                ("GET", "/trace") => trace_dump(req),
                ("POST", "/shutdown") => shutdown(shared, self_addr),
                ("GET", _) => (404, error_body(&format!("no such resource {:?}", req.path))),
                (m, _) => (405, error_body(&format!("method {m} not supported here"))),
            };
            (status, body, CT_JSON)
        }
    }
}

/// Parse a submission body (JSON or FFB, sniffed from the bytes) into a
/// document.
fn parse_body(body: &[u8]) -> Result<Json, String> {
    if body.is_empty() {
        return Err("empty request body (expected a JSON or FFB submission)".to_string());
    }
    if is_ffb(body) {
        decode_any_doc(body)
    } else {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        Json::parse(text)
    }
}

fn parse_spec(doc: &Json, sweep: bool, stream: bool) -> Result<JobSpec, String> {
    let app = doc
        .get("app")
        .and_then(Json::as_str)
        .ok_or("submission needs an \"app\" field (als|cuibm|amg|gaussian|pipelined)")?
        .to_string();
    let paper = match doc.get("scale") {
        None => false,
        Some(scale) => parse_scale(scale.as_str().ok_or("\"scale\" must be a string")?)?,
    };
    if build_app(&app, paper).is_none() {
        return Err(format!("unknown app {app:?} (expected als|cuibm|amg|gaussian|pipelined)"));
    }
    // "jobs" is accepted for parity with the CLI and otherwise ignored:
    // a job runs on its executor's thread.
    if let Some(j) = doc.get("jobs") {
        usize::try_from(j.as_i128().ok_or("\"jobs\" must be an integer")?)
            .map_err(|_| "\"jobs\" must be non-negative".to_string())?;
    }
    if !sweep {
        // Window size only matters when streaming; a body-level
        // "stream_window" overrides the default.
        let window = match doc.get("stream_window") {
            None => DEFAULT_STREAM_WINDOW,
            Some(w) => usize::try_from(w.as_i128().ok_or("\"stream_window\" must be an integer")?)
                .ok()
                .filter(|&w| w > 0)
                .ok_or("\"stream_window\" must be a positive integer")?,
        };
        return Ok(JobSpec::Run { app, paper, stream, window: if stream { window } else { 0 } });
    }
    if stream {
        return Err("streaming (?stream=1) applies to /run submissions only".to_string());
    }
    let mut axes = Vec::new();
    if let Some(list) = doc.get("axes") {
        let list = list.as_arr().ok_or("\"axes\" must be an array")?;
        for a in list {
            let field = a
                .get("field")
                .and_then(Json::as_str)
                .ok_or("each axis needs a string \"field\"")?;
            let values = a
                .get("values")
                .and_then(Json::as_arr)
                .ok_or("each axis needs a \"values\" array")?;
            let values: Vec<u64> = values
                .iter()
                .map(|v| {
                    v.as_i128().and_then(|i| u64::try_from(i).ok()).ok_or_else(|| {
                        format!("axis {field:?}: values must be non-negative integers")
                    })
                })
                .collect::<Result<_, String>>()?;
            if values.is_empty() {
                return Err(format!("axis {field:?} has no values"));
            }
            axes.push(Axis::new(field, values));
        }
    }
    let paired = match doc.get("paired") {
        None => false,
        Some(Json::Bool(b)) => *b,
        Some(_) => return Err("\"paired\" must be a boolean".to_string()),
    };
    Ok(JobSpec::Sweep { app, paper, axes, paired })
}

fn submit(req: &Request, shared: &Shared, sweep: bool) -> (u16, Vec<u8>) {
    let stream = matches!(req.query_param("stream"), Some("1") | Some("true"));
    let spec = match parse_body(&req.body).and_then(|doc| parse_spec(&doc, sweep, stream)) {
        Ok(s) => s,
        Err(e) => return (400, error_body(&e)),
    };
    // Validate sweep axes up front so a bad grid fails the submission,
    // not the job.
    if let JobSpec::Sweep { axes, paired, .. } = &spec {
        if let Err(e) = crate::sweep::build_spec(axes.clone(), *paired, 1).expand() {
            return (400, error_body(&e));
        }
    }
    let id = spec.id();
    let kind = spec.kind();
    shared.submissions.fetch_add(1, Ordering::Relaxed);
    let mut st = shared.state.lock().unwrap();
    if st.draining {
        return (503, error_body("daemon is draining; no new submissions"));
    }
    let tick = shared.tick();
    let status = match st.jobs.get_mut(&id) {
        Some(job) => {
            // Identical submission: attach to the existing job — this is
            // the daemon-level dedupe (one computation, N clients). A
            // dedupe attach costs nothing, so it bypasses backpressure.
            shared.dedup_hits.fetch_add(1, Ordering::Relaxed);
            job.last_access = tick;
            job.status
        }
        None => {
            // Backpressure: a genuinely new job would grow the queue, so
            // refuse it once the queue is at the bound. Clients retry.
            if st.queue.len() >= shared.max_queue {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                drop(st);
                log_warn!("queue full ({} jobs); rejecting submission id={id}", shared.max_queue);
                return (
                    429,
                    error_body(&format!(
                        "job queue full ({} queued); retry later",
                        shared.max_queue
                    )),
                );
            }
            st.jobs.insert(
                id.clone(),
                Job {
                    spec,
                    status: JobStatus::Queued,
                    result: None,
                    epochs: Vec::new(),
                    error: None,
                    trace: job_trace(&id),
                    last_access: tick,
                },
            );
            st.queue.push_back(id.clone());
            shared.work_cv.notify_one();
            JobStatus::Queued
        }
    };
    drop(st);
    let body = Json::obj([
        ("id", Json::Str(id.clone())),
        ("kind", Json::Static(kind)),
        ("status", Json::Static(status.as_str())),
        ("location", Json::Str(format!("/{}/{id}", if sweep { "sweep" } else { "report" }))),
    ]);
    (200, body.to_string_pretty().into_bytes())
}

/// Whether the client asked for the FFB binary encoding instead of the
/// default JSON (`Accept: application/x-diogenes-ffb`).
fn wants_ffb(req: &Request) -> bool {
    req.header("accept")
        .map(|v| {
            v.split(',')
                .any(|t| t.trim().split(';').next().unwrap_or("").eq_ignore_ascii_case(CT_FFB))
        })
        .unwrap_or(false)
}

/// Serve stored result bytes, honoring FFB content negotiation: the
/// stored document is JSON; an FFB `Accept` re-encodes it through
/// [`encode_doc`].
fn negotiate(req: &Request, bytes: Vec<u8>) -> (u16, Vec<u8>, &'static str) {
    if !wants_ffb(req) {
        return (200, bytes, CT_JSON);
    }
    match std::str::from_utf8(&bytes).ok().and_then(|text| Json::parse(text).ok()) {
        Some(doc) => (200, encode_doc(&doc), CT_FFB),
        None => (500, error_body("stored result is not re-encodable as FFB"), CT_JSON),
    }
}

fn fetch(
    req: &Request,
    shared: &Shared,
    id: &str,
    want_kind: &str,
) -> (u16, Vec<u8>, &'static str) {
    let epoch: Option<usize> = match req.query_param("epoch") {
        None => None,
        Some(raw) => match raw.parse() {
            Ok(k) => Some(k),
            Err(_) => return (400, error_body(&format!("epoch {raw:?} is not an index")), CT_JSON),
        },
    };
    let tick = shared.tick();
    let mut st = shared.state.lock().unwrap();
    let Some(job) = st.jobs.get_mut(id) else {
        return (404, error_body(&format!("no job {id:?}")), CT_JSON);
    };
    job.last_access = tick;
    if job.spec.kind() != want_kind {
        let err = format!(
            "job {id:?} is a {}; fetch it from /{}/{id}",
            job.spec.kind(),
            if job.spec.kind() == "run" { "report" } else { "sweep" }
        );
        return (404, error_body(&err), CT_JSON);
    }
    let streaming = matches!(job.spec, JobSpec::Run { stream: true, .. });
    if let Some(k) = epoch {
        // Epoch view: published snapshots are readable the moment the
        // executor folds them, long before the job is done.
        if let Some(bytes) = job.epochs.get(k) {
            let bytes = bytes.as_ref().clone();
            drop(st);
            return negotiate(req, bytes);
        }
        let published = job.epochs.len();
        return match job.status {
            JobStatus::Done | JobStatus::Failed => (
                404,
                error_body(&format!("job {id:?} published {published} epochs; no epoch {k}")),
                CT_JSON,
            ),
            status => {
                let body = Json::obj([
                    ("id", Json::Str(id.to_string())),
                    ("status", Json::Static(status.as_str())),
                    ("epochs", Json::Int(published as i128)),
                ]);
                (202, body.to_string_pretty().into_bytes(), CT_JSON)
            }
        };
    }
    match job.status {
        JobStatus::Done => {
            let bytes = job.result.as_ref().expect("done jobs carry bytes").as_ref().clone();
            drop(st);
            negotiate(req, bytes)
        }
        JobStatus::Failed => {
            let msg = job.error.clone().unwrap_or_else(|| "job failed".to_string());
            (500, error_body(&msg), CT_JSON)
        }
        status => {
            let mut fields =
                vec![("id", Json::Str(id.to_string())), ("status", Json::Static(status.as_str()))];
            if streaming {
                fields.push(("epochs", Json::Int(job.epochs.len() as i128)));
            }
            (202, Json::obj(fields).to_string_pretty().into_bytes(), CT_JSON)
        }
    }
}

fn shutdown(shared: &Shared, self_addr: std::net::SocketAddr) -> (u16, Vec<u8>) {
    let pending = {
        let mut st = shared.state.lock().unwrap();
        st.draining = true;
        st.queue.len() + shared.in_flight.load(Ordering::Relaxed) as usize
    };
    shared.work_cv.notify_all();
    // Unblock the accept loop so `run` observes the draining flag. The
    // probe connection sends nothing; the handler reads EOF and returns.
    let _ = TcpStream::connect(self_addr);
    let body = Json::obj([
        ("status", Json::Static("draining")),
        ("jobs_pending", Json::Int(pending as i128)),
    ]);
    (200, body.to_string_pretty().into_bytes())
}

/// One read of every job and cache counter that `/stats` and `/metrics`
/// both report, so the two surfaces always agree.
struct Counters {
    queue_depth: u64,
    /// Jobs in the table, indexed by [`JobStatus`] discriminant.
    by_state: [u64; 4],
    /// Streaming jobs still queued or running: id, status and published
    /// epoch count, sorted by id.
    live: Vec<(String, &'static str, usize)>,
    /// `/stats` `jobs.<name>` and `/metrics` `diogenes_jobs_<name>_total`.
    lifecycle: [(&'static str, u64); 6],
    in_flight: u64,
    stream_epochs: u64,
    cache: StoreStats,
}

fn counters(shared: &Shared) -> Counters {
    let st = shared.state.lock().unwrap();
    let queue_depth = st.queue.len() as u64;
    let mut by_state = [0u64; 4];
    let mut live = Vec::new();
    for (id, job) in &st.jobs {
        by_state[job.status as usize] += 1;
        if matches!(job.spec, JobSpec::Run { stream: true, .. })
            && matches!(job.status, JobStatus::Queued | JobStatus::Running)
        {
            live.push((id.clone(), job.status.as_str(), job.epochs.len()));
        }
    }
    drop(st);
    live.sort();
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    Counters {
        queue_depth,
        by_state,
        live,
        lifecycle: [
            ("submitted", load(&shared.submissions)),
            ("deduped", load(&shared.dedup_hits)),
            ("computed", load(&shared.computed)),
            ("failed", load(&shared.failed)),
            ("rejected", load(&shared.rejected)),
            ("evicted", load(&shared.evicted)),
        ],
        in_flight: load(&shared.in_flight),
        stream_epochs: load(&shared.stream_epochs),
        cache: shared.store.stats(),
    }
}

fn stats_doc(c: &Counters) -> Json {
    // Streaming jobs still in flight, with their published epoch
    // counts — what a dashboard polls to watch analyses converge.
    let live = c.live.iter().map(|(id, status, epochs)| {
        Json::obj([
            ("id", Json::Str(id.clone())),
            ("status", Json::Static(status)),
            ("epochs", Json::Int(*epochs as i128)),
        ])
    });
    let int = |v: u64| Json::Int(v as i128);
    let jobs = c.lifecycle.iter().map(|&(name, v)| (name, int(v))).chain([
        ("in_flight", int(c.in_flight)),
        ("stream_epochs", int(c.stream_epochs)),
        ("known", int(c.by_state.iter().sum())),
    ]);
    Json::obj([
        ("queue_depth", int(c.queue_depth)),
        ("live", Json::Arr(live.collect())),
        ("jobs", Json::obj(jobs)),
        (
            "cache",
            Json::obj([
                ("mem_hits", int(c.cache.mem_hits)),
                ("disk_hits", int(c.cache.disk_hits)),
                ("misses", int(c.cache.misses)),
                ("puts", int(c.cache.puts)),
                ("hit_rate", Json::Float(c.cache.hit_rate())),
            ]),
        ),
    ])
}

/// Render the `/metrics` Prometheus text exposition. Counters are
/// cumulative over the daemon's life (the gathered telemetry totals are
/// monotone by construction — see `telemetry::gather_metrics`).
fn render_metrics(shared: &Shared, c: &Counters) -> String {
    let mut p = PromText::new();

    p.family("diogenes_uptime_seconds", "gauge", "Seconds since the daemon started.");
    p.sample_f64("diogenes_uptime_seconds", &[], shared.started.elapsed().as_secs_f64());

    // -- HTTP --------------------------------------------------------------
    p.family("diogenes_http_requests_total", "counter", "Requests served, by route.");
    for (route, rs) in ROUTES.iter().zip(&shared.routes) {
        p.sample(
            "diogenes_http_requests_total",
            &[("route", route)],
            rs.count.load(Ordering::Relaxed),
        );
    }
    for (route, rs) in ROUTES.iter().zip(&shared.routes) {
        let hist = rs.hist.lock().unwrap().clone();
        if hist.count > 0 {
            p.summary(
                "diogenes_http_request_duration_ns",
                "Request latency by route (log2-bucket quantile estimates).",
                &[("route", route)],
                &hist,
            );
        }
    }
    p.family("diogenes_http_bytes_served_total", "counter", "Response body bytes written.");
    p.sample("diogenes_http_bytes_served_total", &[], shared.bytes_served.load(Ordering::Relaxed));

    // -- Jobs --------------------------------------------------------------
    for (name, v) in c.lifecycle {
        let name = format!("diogenes_jobs_{name}_total");
        p.family(&name, "counter", "Job lifecycle counter.");
        p.sample(&name, &[], v);
    }
    p.family("diogenes_jobs", "gauge", "Jobs currently in the table, by state.");
    for (status, n) in [JobStatus::Queued, JobStatus::Running, JobStatus::Done, JobStatus::Failed]
        .iter()
        .zip(c.by_state)
    {
        p.sample("diogenes_jobs", &[("state", status.as_str())], n);
    }
    p.family("diogenes_queue_depth", "gauge", "Jobs waiting for an executor.");
    p.sample("diogenes_queue_depth", &[], c.queue_depth);
    p.family("diogenes_queue_limit", "gauge", "Backpressure bound (--max-queue).");
    p.sample("diogenes_queue_limit", &[], shared.max_queue as u64);
    p.family("diogenes_executors", "gauge", "Executor threads.");
    p.sample("diogenes_executors", &[], shared.executors as u64);
    p.family("diogenes_executors_busy", "gauge", "Executors currently running a job.");
    p.sample("diogenes_executors_busy", &[], c.in_flight);

    // -- Streaming ---------------------------------------------------------
    p.family(
        "diogenes_stream_epochs_total",
        "counter",
        "Per-epoch analysis snapshots published by streaming jobs.",
    );
    p.sample("diogenes_stream_epochs_total", &[], c.stream_epochs);
    p.family("diogenes_stream_jobs_live", "gauge", "Streaming jobs queued or running.");
    p.sample("diogenes_stream_jobs_live", &[], c.live.len() as u64);

    // -- Artifact store ----------------------------------------------------
    let cache = c.cache;
    p.family("diogenes_cache_hits_total", "counter", "Stage-artifact cache hits, by layer.");
    p.sample("diogenes_cache_hits_total", &[("layer", "mem")], cache.mem_hits);
    p.sample("diogenes_cache_hits_total", &[("layer", "disk")], cache.disk_hits);
    p.family("diogenes_cache_misses_total", "counter", "Stage-artifact cache misses.");
    p.sample("diogenes_cache_misses_total", &[], cache.misses);
    p.family("diogenes_cache_puts_total", "counter", "Stage artifacts stored.");
    p.sample("diogenes_cache_puts_total", &[], cache.puts);

    // -- Ingest buffers ----------------------------------------------------
    let ingest = ffm_core::iobuf::stats();
    p.family(
        "diogenes_ingest_buffer_reuse_total",
        "counter",
        "Ingest buffers recycled from the pool instead of allocated.",
    );
    p.sample("diogenes_ingest_buffer_reuse_total", &[], ingest.buffer_reuse);
    p.family("diogenes_ingest_buffer_allocs_total", "counter", "Ingest buffers newly allocated.");
    p.sample("diogenes_ingest_buffer_allocs_total", &[], ingest.buffer_allocs);

    // -- Gathered telemetry: stage latency summaries + counters ------------
    let totals = telemetry::gather_metrics();
    for (name, hist) in &totals.hists {
        if let Some(stage) =
            name.strip_prefix("stage.").and_then(|rest| rest.strip_suffix(".exec_ns"))
        {
            p.summary(
                "diogenes_stage_latency_ns",
                "Pipeline stage execution latency (log2-bucket quantile estimates).",
                &[("stage", stage)],
                hist,
            );
        } else {
            let metric = format!("diogenes_{}", ffm_core::sanitize_metric_name(name));
            p.summary(&metric, "Telemetry histogram.", &[], hist);
        }
    }
    p.family(
        "diogenes_counter_total",
        "counter",
        "Internal telemetry counters (cache hits per stage, pool tasks, ...).",
    );
    for (name, v) in &totals.counters {
        p.sample("diogenes_counter_total", &[("name", name)], *v);
    }

    // -- Flight recorder ---------------------------------------------------
    let fs = telemetry::flight_stats();
    p.family("diogenes_flight_recorder_bytes", "gauge", "Bytes held in the flight ring.");
    p.sample("diogenes_flight_recorder_bytes", &[], fs.bytes as u64);
    p.family("diogenes_flight_recorder_budget_bytes", "gauge", "Flight ring byte budget.");
    p.sample("diogenes_flight_recorder_budget_bytes", &[], fs.budget_bytes as u64);
    p.family("diogenes_flight_recorder_events", "gauge", "Span events held in the flight ring.");
    p.sample("diogenes_flight_recorder_events", &[], fs.events as u64);
    p.family(
        "diogenes_flight_recorder_overwritten_total",
        "counter",
        "Span events dropped from the ring to stay in budget.",
    );
    p.sample("diogenes_flight_recorder_overwritten_total", &[], fs.overwritten);

    p.finish()
}

/// `GET /trace[?job=<id>]`: dump the flight recorder as a Chrome trace
/// (open in Perfetto / chrome://tracing). With `job=`, only spans that
/// executed under that job's correlation id are kept.
fn trace_dump(req: &Request) -> (u16, Vec<u8>) {
    let filter = match req.query_param("job") {
        None => None,
        Some(id) if id.get(..16).is_some_and(|h| h.bytes().all(|b| b.is_ascii_hexdigit())) => {
            Some(job_trace(id))
        }
        Some(id) => {
            return (400, error_body(&format!("job filter {id:?} is not a job id")));
        }
    };
    let doc = telemetry::flight_trace_json(filter);
    let mut bytes = Vec::new();
    match doc.write_pretty(&mut bytes) {
        Ok(()) => (200, bytes),
        Err(e) => (500, error_body(&format!("render trace: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scale_accepts_exactly_test_and_paper() {
        assert_eq!(parse_scale("test"), Ok(false));
        assert_eq!(parse_scale("paper"), Ok(true));
        for typo in ["papr", "Paper", "TEST", " paper", "", "full"] {
            let err = parse_scale(typo).unwrap_err();
            assert!(err.contains(&format!("{typo:?}")), "error names the value: {err}");
        }
    }

    #[test]
    fn build_app_accepts_the_cli_vocabulary() {
        for name in ["als", "cuibm", "amg", "gaussian", "pipelined"] {
            assert!(build_app(name, false).is_some(), "{name} test scale");
            assert!(build_app(name, true).is_some(), "{name} paper scale");
        }
        assert!(build_app("nonesuch", false).is_none());
    }

    fn run_spec(app: &str, paper: bool) -> JobSpec {
        JobSpec::Run { app: app.into(), paper, stream: false, window: 0 }
    }

    fn stream_spec(app: &str, window: usize) -> JobSpec {
        JobSpec::Run { app: app.into(), paper: false, stream: true, window }
    }

    /// The id of a submission body, as `submit` computes it.
    fn submitted_id(body: &str, sweep: bool, stream: bool) -> String {
        parse_spec(&Json::parse(body).unwrap(), sweep, stream).unwrap().id()
    }

    #[test]
    fn job_ids_are_content_derived_and_jobs_blind() {
        let a = run_spec("als", false);
        let b = submitted_id(r#"{"app": "als", "jobs": 8}"#, false, false);
        assert_eq!(a.id(), b, "worker count never fragments job identity");
        let c = run_spec("als", true);
        assert_ne!(a.id(), c.id(), "scale is part of identity");
        let d = run_spec("amg", false);
        assert_ne!(a.id(), d.id(), "app is part of identity");
        let s = JobSpec::Sweep { app: "als".into(), paper: false, axes: Vec::new(), paired: false };
        assert_ne!(a.id(), s.id(), "run and sweep ids are domain-separated");
    }

    #[test]
    fn streaming_is_part_of_job_identity_but_jobs_still_is_not() {
        let batch = run_spec("als", false);
        let stream = stream_spec("als", 256);
        assert_ne!(batch.id(), stream.id(), "streamed jobs publish epochs: distinct identity");
        let other_window = stream_spec("als", 64);
        assert_ne!(stream.id(), other_window.id(), "window shapes the epochs");
        let body = r#"{"app": "als", "stream_window": 256, "jobs": 8}"#;
        assert_eq!(
            stream.id(),
            submitted_id(body, false, true),
            "worker count still never fragments identity"
        );
    }

    #[test]
    fn sweep_ids_key_on_axes_and_layout() {
        let base = JobSpec::Sweep {
            app: "als".into(),
            paper: false,
            axes: vec![Axis::new("cost.free_base_ns", vec![1, 2])],
            paired: false,
        };
        let other_values = JobSpec::Sweep {
            app: "als".into(),
            paper: false,
            axes: vec![Axis::new("cost.free_base_ns", vec![1, 3])],
            paired: false,
        };
        let paired = JobSpec::Sweep {
            app: "als".into(),
            paper: false,
            axes: vec![Axis::new("cost.free_base_ns", vec![1, 2])],
            paired: true,
        };
        assert_ne!(base.id(), other_values.id());
        assert_ne!(base.id(), paired.id());
    }

    #[test]
    fn submissions_parse_and_validate() {
        let doc = Json::parse(r#"{"app": "als"}"#).unwrap();
        match parse_spec(&doc, false, false).unwrap() {
            JobSpec::Run { app, paper, stream, window } => {
                assert_eq!(app, "als");
                assert!(!paper);
                assert!(!stream);
                assert_eq!(window, 0, "batch runs carry no window");
            }
            other => panic!("expected run spec, got {other:?}"),
        }

        let doc = Json::parse(
            r#"{"app": "amg", "scale": "paper", "jobs": 3,
                "axes": [{"field": "cost.free_base_ns", "values": [1000, 2000]}],
                "paired": false}"#,
        )
        .unwrap();
        match parse_spec(&doc, true, false).unwrap() {
            JobSpec::Sweep { app, paper, axes, paired } => {
                assert_eq!(app, "amg");
                assert!(paper);
                assert!(!paired);
                assert_eq!(axes.len(), 1);
                assert_eq!(axes[0].field, "cost.free_base_ns");
                assert_eq!(axes[0].values, vec![1000, 2000]);
            }
            other => panic!("expected sweep spec, got {other:?}"),
        }

        for bad in [
            r#"{}"#,
            r#"{"app": "nonesuch"}"#,
            r#"{"app": "als", "scale": "huge"}"#,
            r#"{"app": "als", "scale": 1}"#,
            r#"{"app": "als", "jobs": "many"}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(parse_spec(&doc, false, false).is_err(), "{bad} must be rejected");
        }
        let doc = Json::parse(r#"{"app": "als", "axes": [{"field": "x", "values": []}]}"#).unwrap();
        assert!(parse_spec(&doc, true, false).is_err(), "empty axis values rejected");
    }

    #[test]
    fn streaming_submissions_parse_windows_and_reject_sweeps() {
        let doc = Json::parse(r#"{"app": "als"}"#).unwrap();
        match parse_spec(&doc, false, true).unwrap() {
            JobSpec::Run { stream, window, .. } => {
                assert!(stream);
                assert_eq!(window, DEFAULT_STREAM_WINDOW);
            }
            other => panic!("expected run spec, got {other:?}"),
        }
        let doc = Json::parse(r#"{"app": "als", "stream_window": 64}"#).unwrap();
        match parse_spec(&doc, false, true).unwrap() {
            JobSpec::Run { stream: true, window: 64, .. } => {}
            other => panic!("expected window 64, got {other:?}"),
        }
        let doc = Json::parse(r#"{"app": "als", "stream_window": 0}"#).unwrap();
        assert!(parse_spec(&doc, false, true).is_err(), "zero window rejected");
        let doc = Json::parse(r#"{"app": "als", "stream_window": "big"}"#).unwrap();
        assert!(parse_spec(&doc, false, true).is_err(), "non-integer window rejected");
        let doc = Json::parse(r#"{"app": "als"}"#).unwrap();
        assert!(parse_spec(&doc, true, true).is_err(), "sweeps do not stream");
    }

    /// A bound-but-not-running server: no executors drain the queue, so
    /// queue depth is fully deterministic.
    fn idle_server(max_queue: usize, max_done: usize) -> Server {
        Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: None,
            max_queue,
            max_done,
            flight_recorder_bytes: 0,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn request(method: &str, target: &str, body: &str) -> Request {
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (
                p,
                q.split('&')
                    .map(|kv| {
                        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                        (k.to_string(), v.to_string())
                    })
                    .collect(),
            ),
            None => (target, Vec::new()),
        };
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        request("POST", path, body)
    }

    fn get(path: &str) -> Request {
        request("GET", path, "")
    }

    #[test]
    fn full_queue_rejects_new_jobs_with_429_but_dedupes_existing() {
        let server = idle_server(2, 64);
        let shared = &server.shared;
        let (s1, _) = submit(&post("/run", r#"{"app": "als"}"#), shared, false);
        let (s2, _) = submit(&post("/run", r#"{"app": "amg"}"#), shared, false);
        assert_eq!((s1, s2), (200, 200), "queue has room for two");
        let (s3, body) = submit(&post("/run", r#"{"app": "cuibm"}"#), shared, false);
        assert_eq!(s3, 429, "third distinct job exceeds --max-queue");
        assert!(String::from_utf8(body).unwrap().contains("queue full"));
        assert_eq!(shared.rejected.load(Ordering::Relaxed), 1);
        // A duplicate of a queued job attaches without growing the
        // queue, so it must not be rejected.
        let (s4, _) = submit(&post("/run", r#"{"app": "als"}"#), shared, false);
        assert_eq!(s4, 200, "dedupe attach bypasses backpressure");
        assert_eq!(shared.dedup_hits.load(Ordering::Relaxed), 1);
        assert_eq!(shared.state.lock().unwrap().queue.len(), 2);
    }

    #[test]
    fn sweeps_naming_a_field_twice_or_oversized_are_rejected_before_queueing() {
        let server = idle_server(256, 64);
        let shared = &server.shared;
        let twice = r#"{"app": "gaussian", "axes": [
            {"field": "cost.free_base_ns", "values": [1000, 2000]},
            {"field": "cost.free_base_ns", "values": [3000]}]}"#;
        let (s, body) = submit(&post("/sweep", twice), shared, true);
        assert_eq!(s, 400);
        assert!(String::from_utf8(body).unwrap().contains("cost.free_base_ns"));
        // 100 x 100 cells is over the cap; 2^64 cells overflows the count.
        let values = |n: u64| format!("{:?}", (0..n).collect::<Vec<u64>>());
        let wide = format!(
            r#"{{"app": "gaussian", "axes": [{{"field": "cost.free_base_ns", "values": {v}}},
                {{"field": "cost.alloc_base_ns", "values": {v}}}]}}"#,
            v = values(100)
        );
        let axes: Vec<String> = ffm_core::SWEEPABLE_FIELDS[..8]
            .iter()
            .map(|f| format!(r#"{{"field": "{f}", "values": {}}}"#, values(256)))
            .collect();
        let overflow = format!(r#"{{"app": "gaussian", "axes": [{}]}}"#, axes.join(","));
        for body in [wide, overflow] {
            let (s, reply) = submit(&post("/sweep", &body), shared, true);
            assert_eq!(s, 400);
            let reply = String::from_utf8(reply).unwrap();
            assert!(reply.contains(&ffm_core::MAX_SWEEP_CELLS.to_string()), "{reply}");
        }
        let st = shared.state.lock().unwrap();
        assert!(st.jobs.is_empty() && st.queue.is_empty(), "no job was created");
    }

    #[test]
    fn eviction_drops_least_recently_accessed_completed_jobs() {
        let server = idle_server(256, 2);
        let shared = &server.shared;
        for app in ["als", "amg", "cuibm", "gaussian"] {
            let (s, _) = submit(&post("/run", &format!(r#"{{"app": "{app}"}}"#)), shared, false);
            assert_eq!(s, 200);
        }
        let ids: Vec<String> = {
            let mut st = shared.state.lock().unwrap();
            let ids: Vec<String> = st.queue.iter().cloned().collect();
            // Complete the first three in queue order (ascending
            // last_access from submission); the fourth stays queued.
            for id in &ids[..3] {
                let job = st.jobs.get_mut(id).unwrap();
                job.status = JobStatus::Done;
                job.result = Some(Arc::new(Vec::new()));
            }
            evict_done(&mut st, shared);
            ids
        };
        let st = shared.state.lock().unwrap();
        assert!(!st.jobs.contains_key(&ids[0]), "oldest completed job evicted");
        assert!(st.jobs.contains_key(&ids[1]) && st.jobs.contains_key(&ids[2]));
        assert!(st.jobs.contains_key(&ids[3]), "queued jobs are never evicted");
        assert_eq!(shared.evicted.load(Ordering::Relaxed), 1);
        drop(st);
        // Fetching bumps recency: touch ids[1], complete ids[3], and the
        // next eviction must pick ids[2].
        let _ = fetch(&get("/report/x"), shared, &ids[1], "run");
        let mut st = shared.state.lock().unwrap();
        let job = st.jobs.get_mut(&ids[3]).unwrap();
        job.status = JobStatus::Done;
        job.result = Some(Arc::new(Vec::new()));
        evict_done(&mut st, shared);
        assert!(!st.jobs.contains_key(&ids[2]), "least-recently-accessed evicted");
        assert!(st.jobs.contains_key(&ids[1]), "fetch refreshed recency");
        assert_eq!(shared.evicted.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn trace_filter_rejects_a_multibyte_char_across_the_prefix_end() {
        // Byte 16 falls inside the two-byte 'é': a client error, no panic.
        let (status, _) = trace_dump(&get("/trace?job=aaaaaaaaaaaaaaaé"));
        assert_eq!(status, 400);
    }

    #[test]
    fn job_traces_derive_from_the_id_prefix_and_are_never_zero() {
        assert_eq!(job_trace("00000000000000ffdeadbeefdeadbeef"), TraceId(0xff));
        assert_eq!(job_trace("0000000000000000deadbeefdeadbeef"), TraceId(1), "0 means untraced");
        assert_eq!(job_trace("short"), TraceId(1), "malformed ids fall back");
        let spec = run_spec("als", false);
        assert_ne!(job_trace(&spec.id()).0, 0);
    }

    #[test]
    fn metrics_exposition_is_well_formed_while_idle() {
        let server = idle_server(256, 64);
        let (s, _) = submit(&post("/run", r#"{"app": "als"}"#), &server.shared, false);
        assert_eq!(s, 200);
        server.shared.routes[0].count.fetch_add(1, Ordering::Relaxed);
        server.shared.routes[0].hist.lock().unwrap().record(12_345);
        let text = render_metrics(&server.shared, &counters(&server.shared));
        let samples = ffm_core::exposition_well_formed(&text)
            .unwrap_or_else(|e| panic!("exposition rejected: {e}\n{text}"));
        assert!(samples > 20, "expected a substantive exposition, got {samples} samples");
        assert!(text.contains("diogenes_jobs{state=\"queued\"} 1"), "{text}");
        assert!(text.contains("diogenes_queue_limit 256"), "{text}");
        assert!(
            text.contains(
                "diogenes_http_request_duration_ns{route=\"POST /run\",quantile=\"0.5\"}"
            ),
            "{text}"
        );
    }

    #[test]
    fn ffb_bodies_parse_like_json_ones() {
        let doc = Json::obj([("app", Json::Static("als")), ("scale", Json::Static("test"))]);
        let ffb = ffm_core::encode_doc(&doc);
        let parsed = parse_body(&ffb).unwrap();
        assert_eq!(parsed.get("app").and_then(Json::as_str), Some("als"));
        assert!(parse_body(b"").is_err());
        assert!(parse_body(b"not json").is_err());
    }

    #[test]
    fn epoch_fetch_serves_snapshots_before_the_job_finishes() {
        let server = idle_server(256, 64);
        let shared = &server.shared;
        let (s, body) = submit(&post("/run?stream=1", r#"{"app": "als"}"#), shared, false);
        assert_eq!(s, 200);
        let sub = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let id = sub.get("id").and_then(Json::as_str).unwrap().to_string();
        // Simulate the executor publishing two epochs mid-run.
        {
            let mut st = shared.state.lock().unwrap();
            let job = st.jobs.get_mut(&id).unwrap();
            job.status = JobStatus::Running;
            job.epochs.push(Arc::new(br#"{"epoch": 0}"#.to_vec()));
            job.epochs.push(Arc::new(br#"{"epoch": 1}"#.to_vec()));
        }
        let (s, body, ct) = fetch(&get("/report/x?epoch=1"), shared, &id, "run");
        assert_eq!((s, ct), (200, CT_JSON));
        assert_eq!(body, br#"{"epoch": 1}"#);
        // An unpublished epoch on a live job: 202 with the count so the
        // poller knows how far along the stream is.
        let (s, body, _) = fetch(&get("/report/x?epoch=5"), shared, &id, "run");
        assert_eq!(s, 202);
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("epochs").and_then(Json::as_i128), Some(2));
        // The whole-report fetch on a live streaming job also reports
        // published epochs.
        let (s, body, _) = fetch(&get("/report/x"), shared, &id, "run");
        assert_eq!(s, 202);
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(doc.get("epochs").and_then(Json::as_i128), Some(2));
        // Done: out-of-range epochs are a hard 404, not a retry hint.
        {
            let mut st = shared.state.lock().unwrap();
            let job = st.jobs.get_mut(&id).unwrap();
            job.status = JobStatus::Done;
            job.result = Some(Arc::new(br#"{"final": true}"#.to_vec()));
        }
        let (s, _, _) = fetch(&get("/report/x?epoch=5"), shared, &id, "run");
        assert_eq!(s, 404);
        let (s, _, _) = fetch(&get("/report/x?epoch=nope"), shared, &id, "run");
        assert_eq!(s, 400, "malformed epoch index");
        let (s, body, _) = fetch(&get("/report/x?epoch=0"), shared, &id, "run");
        assert_eq!((s, body.as_slice()), (200, br#"{"epoch": 0}"#.as_slice()));
    }

    #[test]
    fn ffb_accept_reencodes_results_through_the_codec() {
        let server = idle_server(256, 64);
        let shared = &server.shared;
        let (s, body) = submit(&post("/run", r#"{"app": "als"}"#), shared, false);
        assert_eq!(s, 200);
        let sub = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let id = sub.get("id").and_then(Json::as_str).unwrap().to_string();
        let stored = Json::obj([("app", Json::Static("als")), ("n", Json::Int(7))]);
        {
            let mut st = shared.state.lock().unwrap();
            let job = st.jobs.get_mut(&id).unwrap();
            job.status = JobStatus::Done;
            job.result = Some(Arc::new(stored.to_string_pretty().into_bytes()));
        }
        // Default stays JSON.
        let (s, body, ct) = fetch(&get("/report/x"), shared, &id, "run");
        assert_eq!((s, ct), (200, CT_JSON));
        assert!(!is_ffb(&body));
        // FFB Accept re-encodes the same document.
        let mut req = get("/report/x");
        req.headers.push(("accept".to_string(), CT_FFB.to_string()));
        let (s, body, ct) = fetch(&req, shared, &id, "run");
        assert_eq!((s, ct), (200, CT_FFB));
        assert!(is_ffb(&body), "negotiated bytes are FFB");
        let decoded = decode_any_doc(&body).unwrap();
        assert_eq!(decoded.get("n").and_then(Json::as_i128), Some(7));
        // Q-less token lists and parameters still match.
        let mut req = get("/report/x");
        req.headers.push(("accept".to_string(), format!("application/json, {CT_FFB};q=0.9")));
        let (_, body, ct) = fetch(&req, shared, &id, "run");
        assert_eq!(ct, CT_FFB);
        assert!(is_ffb(&body));
    }

    #[test]
    fn stats_lists_live_streaming_jobs() {
        let server = idle_server(256, 64);
        let shared = &server.shared;
        let (s, _) = submit(&post("/run?stream=1", r#"{"app": "als"}"#), shared, false);
        let (s2, _) = submit(&post("/run", r#"{"app": "amg"}"#), shared, false);
        assert_eq!((s, s2), (200, 200));
        let snapshot = counters(shared);
        let doc = stats_doc(&snapshot);
        let live = doc.get("live").and_then(Json::as_arr).unwrap();
        assert_eq!(live.len(), 1, "batch jobs are not live streams");
        assert_eq!(live[0].get("status").and_then(Json::as_str), Some("queued"));
        assert_eq!(live[0].get("epochs").and_then(Json::as_i128), Some(0));
        let text = render_metrics(shared, &snapshot);
        assert!(text.contains("diogenes_stream_jobs_live 1"), "{text}");
        assert!(text.contains("diogenes_stream_epochs_total 0"), "{text}");
        ffm_core::exposition_well_formed(&text).unwrap();
    }

    #[test]
    fn stats_and_metrics_report_one_snapshot_of_the_job_counters() {
        let server = idle_server(1, 64);
        let shared = &server.shared;
        for body in [r#"{"app": "als"}"#, r#"{"app": "als"}"#, r#"{"app": "amg"}"#] {
            submit(&post("/run", body), shared, false);
        }
        shared.computed.fetch_add(3, Ordering::Relaxed);
        shared.failed.fetch_add(4, Ordering::Relaxed);
        shared.evicted.fetch_add(5, Ordering::Relaxed);
        let snapshot = counters(shared);
        let doc = stats_doc(&snapshot);
        let text = render_metrics(shared, &snapshot);
        let jobs = doc.get("jobs").unwrap();
        for name in ["submitted", "deduped", "computed", "failed", "rejected", "evicted"] {
            let stat = jobs.get(name).and_then(Json::as_i128).unwrap();
            let head = format!("diogenes_jobs_{name}_total ");
            let sample = text
                .lines()
                .find_map(|l| l.strip_prefix(head.as_str()))
                .unwrap_or_else(|| panic!("no {head:?} sample in\n{text}"));
            assert_eq!(sample, stat.to_string(), "/stats jobs.{name} vs /metrics");
        }
        assert_eq!(jobs.get("deduped").and_then(Json::as_i128), Some(1));
        assert_eq!(jobs.get("rejected").and_then(Json::as_i128), Some(1), "max-queue 1");
        assert_eq!(jobs.get("evicted").and_then(Json::as_i128), Some(5));
    }
}
