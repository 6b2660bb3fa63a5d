//! The serve workload: the daemon runs as a child process (the harness
//! re-executes itself as `serve-child`, which calls the `diogenes::serve`
//! entry point `diogenes serve` calls), and closed-loop clients drive it
//! over keep-alive HTTP connections.
//!
//! Collection is cached by the set-up submissions, so ops exercise HTTP,
//! the job table, dedupe, stage 5, the streaming fold and FFB
//! negotiation — not the simulator.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use diogenes::http::read_request_buffered;
use diogenes::{build_app, ServeConfig};
use ffm_core::{decode_any_doc, report_to_json, run_ffm, telemetry, FfmConfig, Json};
use gpu_sim::SplitMix64;

use crate::loadgen::{closed_loop, deal, Budget, Measured};
use crate::runload::APPS;
use crate::sys::{cpu_seconds, peak_rss_mib, timed};
use crate::{median, Ctx, E2e, SETUP_REPS};

/// Completed specs a resubmission picks from.
const RECENT: usize = 16;
/// Pause between polls of a pending job.
const POLL: Duration = Duration::from_millis(1);

/// `serve-child --jobs N`: the daemon as `diogenes serve --addr
/// 127.0.0.1:0 --no-cache --jobs N` runs it. Returns the exit code.
pub fn child_main(args: &[String]) -> i32 {
    let jobs = match args {
        [flag, n] if flag == "--jobs" => n.parse().ok(),
        _ => None,
    };
    let Some(jobs) = jobs else {
        eprintln!("usage: layerbench serve-child --jobs N");
        return 2;
    };
    // The harness holds the write end of stdin; end of file means it is
    // gone, and a daemon nobody will shut down must not outlive it.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(3);
    });
    telemetry::set_enabled(false);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        cache_dir: None,
        ..ServeConfig::default()
    };
    match diogenes::serve(cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("layerbench serve-child: {e}");
            1
        }
    }
}

/// A running daemon child. Dropping it kills and reaps the child if it
/// is still running.
struct Daemon {
    child: Child,
    _stdin: ChildStdin,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(jobs: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve-child", "--jobs", &jobs.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        // The daemon announces `diogenes serve: listening on HOST:PORT`.
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line.split_whitespace().last().and_then(|a| a.parse().ok()),
            _ => None,
        };
        match addr {
            Some(addr) => Ok(Daemon { child, _stdin: stdin, _stdout: stdout, addr }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not announce its address (said {line:?})"))
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `POST /shutdown`, then wait for the drained daemon to exit. The
    /// daemon may exit before its reply is fully written, so only a
    /// reply that arrives and refuses counts against it.
    fn shutdown(mut self) -> Result<(), String> {
        if let Ok(reply) = Client::new(self.addr).request("POST", "/shutdown", b"", false) {
            if reply.status != 200 {
                return Err(format!("POST /shutdown -> {}", reply.status));
            }
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
        Err("daemon did not exit within 60 s of POST /shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

struct Response {
    status: u16,
    body: Vec<u8>,
}

/// One keep-alive HTTP/1.1 connection with `TCP_NODELAY`, reopened
/// whenever the daemon answers `Connection: close` (it does so after
/// 32 exchanges).
struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
}

impl Client {
    fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn request(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
        ffb: bool,
    ) -> Result<Response, String> {
        let stream = match &mut self.conn {
            Some(s) => s,
            None => {
                let s = TcpStream::connect(self.addr)
                    .map_err(|e| format!("cannot connect to {}: {e}", self.addr))?;
                s.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
                s.set_read_timeout(Some(Duration::from_secs(120)))
                    .map_err(|e| format!("set_read_timeout: {e}"))?;
                self.conn.insert(s)
            }
        };
        let accept = if ffb { "Accept: application/x-diogenes-ffb\r\n" } else { "" };
        let mut msg = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n{accept}\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        msg.extend_from_slice(body);
        let result = stream
            .write_all(&msg)
            .map_err(|e| format!("{method} {target}: write: {e}"))
            .and_then(|()| read_response(stream));
        match result {
            Ok((response, keep_alive)) => {
                if !keep_alive {
                    self.conn = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.conn = None;
                Err(format!("{method} {target}: {e}"))
            }
        }
    }
}

/// Read one response; the flag says whether the connection stays open.
fn read_response(stream: &mut TcpStream) -> Result<(Response, bool), String> {
    let mut buf = Vec::with_capacity(8192);
    let mut chunk = [0u8; 16384];
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed before the response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let (mut len, mut keep_alive) = (None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => len = value.trim().parse::<usize>().ok(),
            "connection" => keep_alive = value.trim().eq_ignore_ascii_case("keep-alive"),
            _ => {}
        }
    }
    let len = len.ok_or("response without Content-Length")?;
    let mut body = buf.split_off(head_end + 4);
    while body.len() < len {
        let n = stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(len);
    Ok((Response { status, body }, keep_alive))
}

/// A submission.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Spec {
    Run { app: &'static str },
    Stream { app: &'static str, window: u64 },
    Sweep { app: &'static str, thresholds: [u64; 3] },
}

impl Spec {
    fn target(&self) -> &'static str {
        match self {
            Spec::Run { .. } => "/run",
            Spec::Stream { .. } => "/run?stream=1",
            Spec::Sweep { .. } => "/sweep",
        }
    }

    fn body(&self) -> String {
        match self {
            Spec::Run { app } => format!(r#"{{"app": "{app}"}}"#),
            Spec::Stream { app, window } => {
                format!(r#"{{"app": "{app}", "stream_window": {window}}}"#)
            }
            Spec::Sweep { app, thresholds: [a, b, c] } => format!(
                r#"{{"app": "{app}", "axes": [{{"field": "analysis.misplaced_threshold_ns", "values": [{a}, {b}, {c}]}}]}}"#
            ),
        }
    }
}

/// POST a spec, then poll its location until the final response.
fn submit_and_fetch(
    client: &mut Client,
    spec: &Spec,
    ffb: bool,
    polls: &mut u64,
) -> Result<Vec<u8>, String> {
    let reply = client.request("POST", spec.target(), spec.body().as_bytes(), false)?;
    let text = String::from_utf8_lossy(&reply.body);
    if reply.status != 200 {
        return Err(format!("POST {} -> {}: {text}", spec.target(), reply.status));
    }
    let doc = Json::parse(&text).map_err(|e| format!("submission reply: {e}"))?;
    let location =
        doc.get("location").and_then(Json::as_str).ok_or("submission reply has no location")?;
    loop {
        let r = client.request("GET", location, b"", ffb)?;
        *polls += 1;
        match r.status {
            200 => return Ok(r.body),
            202 => std::thread::sleep(POLL),
            s => {
                let text = String::from_utf8_lossy(&r.body);
                return Err(format!("GET {location} -> {s}: {text}"));
            }
        }
    }
}

/// The offline answer for each app: `report_to_json` of a test-scale
/// run, rendered as the daemon renders it.
type Expected = HashMap<&'static str, Vec<u8>>;

fn offline_reports(jobs: usize) -> Result<Expected, String> {
    let mut out = HashMap::new();
    for app in APPS {
        let built = build_app(app, false).expect("the app list is the CLI's");
        let report = run_ffm(built.as_ref(), &FfmConfig::default().with_jobs(jobs))
            .map_err(|e| format!("{app}: pipeline failed: {e}"))?;
        let mut bytes = Vec::new();
        report_to_json(&report).write_pretty(&mut bytes).expect("writing to a Vec cannot fail");
        out.insert(app, bytes);
    }
    Ok(out)
}

/// Check a final response: run reports must equal the offline bytes
/// (after FFB decoding), sweeps must carry their three cells.
fn verify(spec: &Spec, body: &[u8], ffb: bool, expected: &Expected) -> Result<(), String> {
    let doc = |body: &[u8]| -> Result<Json, String> {
        if ffb {
            decode_any_doc(body)
        } else {
            Json::parse(std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?)
        }
    };
    match spec {
        Spec::Run { app } | Spec::Stream { app, .. } => {
            let json = if ffb {
                let mut bytes = Vec::new();
                doc(body)?.write_pretty(&mut bytes).expect("writing to a Vec cannot fail");
                bytes
            } else {
                body.to_vec()
            };
            if json != expected[app] {
                return Err(format!("{spec:?}: report differs from the offline report bytes"));
            }
        }
        Spec::Sweep { .. } => {
            let d = doc(body)?;
            let cells = d.get("cells").and_then(Json::as_arr).map(<[Json]>::len);
            let total = d.get("total_cells").and_then(Json::as_i128);
            if cells != Some(3) || total != Some(3) {
                return Err(format!("{spec:?}: sweep has {cells:?} of {total:?} cells, not 3"));
            }
        }
    }
    Ok(())
}

/// Start a daemon and submit the five test-scale runs once, so every
/// later op finds collection cached.
fn setup(jobs: usize, expected: &Expected) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(jobs)?;
    let mut client = Client::new(daemon.addr);
    for app in APPS {
        let spec = Spec::Run { app };
        let body = submit_and_fetch(&mut client, &spec, false, &mut 0)?;
        verify(&spec, &body, false, expected)?;
    }
    Ok(daemon)
}

#[derive(Clone, Copy)]
enum Kind {
    Resubmit,
    NewSweep,
    NewStream,
}

/// The seeded op mix: in every block of ten ops, five resubmit a
/// recently completed spec (half of them fetch FFB), three submit a new
/// sweep over three `analysis.misplaced_threshold_ns` values, and two a
/// new streamed run with a window in 16–512. Blocks are shuffled, so
/// the proportions hold exactly in every run.
///
/// A streamed run costs about 1/window of its trace length (ALS at
/// window 16 is 40 times the cost of AMG at 512), so new streams deal
/// from a shuffled deck of every app × window band rather than drawing
/// both freely: the total cost of a run then hardly depends on the seed.
const BLOCK: [Kind; 10] = [
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::Resubmit,
    Kind::NewSweep,
    Kind::NewSweep,
    Kind::NewSweep,
    Kind::NewStream,
    Kind::NewStream,
];

/// State the clients share: what completed recently, which parameters
/// were already used, and the decks new sweeps and streams are dealt
/// from (shared, so a run deals whole decks as often as it can).
struct Mix {
    recent: Mutex<VecDeque<Spec>>,
    used: Mutex<HashSet<Spec>>,
    thresholds: Mutex<HashSet<u64>>,
    sweep_apps: Mutex<Vec<&'static str>>,
    streams: Mutex<Vec<(&'static str, u32)>>,
}

impl Mix {
    fn new() -> Mix {
        let runs: Vec<Spec> = APPS.iter().map(|&app| Spec::Run { app }).collect();
        Mix {
            recent: Mutex::new(runs.iter().cloned().collect()),
            used: Mutex::new(runs.into_iter().collect()),
            thresholds: Mutex::new(HashSet::new()),
            sweep_apps: Mutex::new(Vec::new()),
            streams: Mutex::new(Vec::new()),
        }
    }

    fn remember(&self, spec: Spec) {
        let mut recent = self.recent.lock().expect("mix lock");
        recent.push_back(spec);
        while recent.len() > RECENT {
            recent.pop_front();
        }
    }
}

/// Stream windows come from four bands that split 16–512 evenly on a
/// log scale.
const WINDOW_BANDS: u32 = 4;

/// A seeded window in band `band`, or anywhere in 16–512 after `wide`.
fn window(rng: &mut SplitMix64, band: u32, wide: bool) -> u64 {
    let edge = |b: u32| (16.0 * 32f64.powf(f64::from(b) / f64::from(WINDOW_BANDS))).round() as u64;
    let last = u64::from(band + 1 == WINDOW_BANDS); // 512 itself is in the top band
    let (lo, hi) = if wide { (16, 513) } else { (edge(band), edge(band + 1) + last) };
    lo + rng.next_below(hi - lo)
}

struct ClientState {
    client: Client,
    rng: SplitMix64,
    block: Vec<Kind>,
    polls: u64,
}

impl ClientState {
    fn new(seed: u64, index: usize, addr: SocketAddr) -> ClientState {
        let stream = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ClientState {
            client: Client::new(addr),
            rng: SplitMix64::new(seed ^ stream),
            block: Vec::new(),
            polls: 0,
        }
    }

    fn pick(&mut self, mix: &Mix) -> (Spec, bool) {
        let rng = &mut self.rng;
        match deal(&mut self.block, BLOCK.into_iter(), rng) {
            Kind::Resubmit => {
                let recent = mix.recent.lock().expect("mix lock");
                let spec = recent[rng.next_below(recent.len() as u64) as usize].clone();
                (spec, rng.next_below(2) == 1)
            }
            Kind::NewSweep => {
                let app =
                    deal(&mut mix.sweep_apps.lock().expect("mix lock"), APPS.into_iter(), rng);
                let mut used = mix.thresholds.lock().expect("mix lock");
                let mut thresholds = [0u64; 3];
                for t in &mut thresholds {
                    *t = loop {
                        let v = 100 + rng.next_below(2_000_000);
                        if used.insert(v) {
                            break v;
                        }
                    };
                }
                (Spec::Sweep { app, thresholds }, false)
            }
            Kind::NewStream => {
                let all = APPS.iter().flat_map(|&a| (0..WINDOW_BANDS).map(move |b| (a, b)));
                let (app, band) = deal(&mut mix.streams.lock().expect("mix lock"), all, rng);
                let mut used = mix.used.lock().expect("mix lock");
                // A band holds at least 22 windows; past 64 draws it is
                // used up, and the window comes from the whole range.
                let spec = (0..)
                    .map(|draw| Spec::Stream { app, window: window(rng, band, draw >= 64) })
                    .find(|spec| used.insert(spec.clone()))
                    .expect("an unused window exists");
                (spec, false)
            }
        }
    }

    fn op(&mut self, mix: &Mix, expected: &Expected) -> Result<(), String> {
        let (spec, ffb) = self.pick(mix);
        let body = submit_and_fetch(&mut self.client, &spec, ffb, &mut self.polls)?;
        verify(&spec, &body, ffb, expected)?;
        mix.remember(spec);
        Ok(())
    }
}

/// Drive `daemon` with `ctx.clients` closed loops of the op mix.
fn drive(ctx: &Ctx, budget: Budget, daemon: &Daemon, expected: &Expected) -> (Measured, u64) {
    let mix = Mix::new();
    let states: Vec<Mutex<ClientState>> =
        (0..ctx.clients).map(|c| Mutex::new(ClientState::new(ctx.seed, c, daemon.addr))).collect();
    let measured = closed_loop(budget, ctx.clients, |c, _| {
        states[c].lock().expect("each client owns its state").op(&mix, expected)
    });
    let polls = states.iter().map(|s| s.lock().expect("clients are done").polls).sum();
    (measured, polls)
}

pub fn e2e(ctx: &Ctx, budget: Budget) -> Result<E2e, String> {
    let expected = offline_reports(ctx.jobs)?;
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let (d, secs) = timed(|| setup(ctx.jobs, &expected));
        daemon = Some(d?);
        setups.push(secs);
    }
    let daemon = daemon.expect("SETUP_REPS > 0");
    let cpu0 = cpu_seconds(daemon.pid())?;
    let (measured, polls) = drive(ctx, budget, &daemon, &expected);
    // Read the daemon's own accounting before it exits.
    let cpu_s = cpu_seconds(daemon.pid())? - cpu0;
    let peak_rss_mib = peak_rss_mib(daemon.pid())?;
    daemon.shutdown()?;
    Ok(E2e {
        setup_s: median(&setups),
        measured,
        cpu_s,
        peak_rss_mib,
        jobs: ctx.jobs,
        notes: vec![("polls", Json::Int(polls as i128))],
    })
}

/// Server-side totals scraped from `/metrics` and `/stats`.
struct Scrape {
    server_ns: f64,
    submitted: f64,
    deduped: f64,
    computed: f64,
}

impl Scrape {
    fn take(client: &mut Client) -> Result<Scrape, String> {
        let metrics = client.request("GET", "/metrics", b"", false)?;
        let text = String::from_utf8_lossy(&metrics.body);
        // Request time of every route but the scrapes themselves.
        let server_ns = text
            .lines()
            .filter_map(|l| l.strip_prefix("diogenes_http_request_duration_ns_sum{route=\""))
            .filter_map(|l| l.split_once("\"} "))
            .filter(|(route, _)| !matches!(*route, "GET /metrics" | "GET /stats"))
            .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
            .sum();
        let stats = client.request("GET", "/stats", b"", false)?;
        let doc = Json::parse(&String::from_utf8_lossy(&stats.body))
            .map_err(|e| format!("/stats: {e}"))?;
        let jobs = |key: &str| -> Result<f64, String> {
            doc.get("jobs")
                .and_then(|j| j.get(key))
                .and_then(Json::as_i128)
                .map(|v| v as f64)
                .ok_or_else(|| format!("/stats has no jobs.{key}"))
        };
        Ok(Scrape {
            server_ns,
            submitted: jobs("submitted")?,
            deduped: jobs("deduped")?,
            computed: jobs("computed")?,
        })
    }
}

/// The serve and HTTP layers: `ops` ops of the mix against a fresh
/// daemon, split into server time (the daemon's own request-duration
/// sums) and time ops spent waiting outside it.
pub fn layers(
    ctx: &Ctx,
    ops: u64,
    checks: &mut Measured,
) -> Result<Vec<(&'static str, f64)>, String> {
    let expected = offline_reports(ctx.jobs)?;
    let daemon = setup(ctx.jobs, &expected)?;
    let mut probe = Client::new(daemon.addr);
    let before = Scrape::take(&mut probe)?;
    let budget = Budget { ops, max_seconds: 120.0 };
    let (measured, polls) = drive(ctx, budget, &daemon, &expected);
    let after = Scrape::take(&mut probe)?;
    drop(probe);
    daemon.shutdown()?;
    let n = measured.completed().max(1) as f64;
    let server_ms = (after.server_ns - before.server_ns) / 1e6;
    let op_ms: f64 = measured.latencies_ms.iter().sum();
    let submitted = after.submitted - before.submitted;
    let out = vec![
        ("serve.server_ms_per_op", server_ms / n),
        ("serve.wait_ms_per_op", (op_ms - server_ms) / n),
        ("serve.polls_per_op", polls as f64 / n),
        ("serve.dedup_ratio", (after.deduped - before.deduped) / submitted.max(1.0)),
        ("serve.jobs_computed", after.computed - before.computed),
        ("http.parse_us", http_parse_us(20_000)?),
    ];
    checks.absorb(measured);
    Ok(out)
}

/// Mean microseconds per request of `read_request_buffered` over one
/// loopback keep-alive connection fed `n` pipelined requests.
fn http_parse_us(n: u32) -> Result<f64, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    let request: &[u8] = b"GET /report/00112233445566778899aabbccddeeff HTTP/1.1\r\n\
        Host: 127.0.0.1\r\nConnection: keep-alive\r\nAccept: application/x-diogenes-ffb\r\n\r\n";
    std::thread::scope(|s| {
        let writer = s.spawn(move || -> Result<(), String> {
            let mut c = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            for _ in 0..n {
                c.write_all(request).map_err(|e| format!("write: {e}"))?;
            }
            c.shutdown(Shutdown::Write).map_err(|e| format!("shutdown: {e}"))
        });
        let (mut server, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let mut carry = Vec::new();
        let mut parsed = 0u32;
        let t0 = Instant::now();
        while let Some(req) = read_request_buffered(&mut server, &mut carry)? {
            parsed += 1;
            ffm_core::iobuf::release(req.body);
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(parsed.max(1));
        writer.join().expect("writer thread does not panic")?;
        if parsed != n {
            return Err(format!("parsed {parsed} of {n} pipelined requests"));
        }
        Ok(us)
    })
}
