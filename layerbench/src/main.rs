//! `layerbench` — one layered benchmark for the Diogenes reproduction.
//!
//! End-to-end runs measure what a user waits for: a paper-scale
//! `diogenes <app>` report, a `serve` submit→report round trip, and a
//! sweep against the disk cache. A separate traced run (`--trace 1`)
//! times each layer from outside by calling its public functions in
//! turn on the same inputs. See README.md for the workloads, the metric
//! table and how to read `--compare`.
//!
//! ```text
//! layerbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!            [--out <runs.jsonl>] [--jobs N] [--clients N]
//! layerbench --smoke [--jobs N] [--clients N]
//! layerbench --compare <base.jsonl> <candidate.jsonl>
//! ```
//!
//! The last line on stdout is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod compare;
mod layers;
mod loadgen;
mod metrics;
mod runload;
mod servemix;
mod stats;
mod sweepdisk;
mod sys;

use std::io::Write as _;
use std::time::Instant;

use ffm_core::Json;

use crate::loadgen::{Budget, Measured};
use crate::metrics::tables;
use crate::runload::Pin;
use crate::sys::{nproc, WorkDir};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: layerbench --workload <als_paper|cuibm_paper|serve_mixed|sweep_disk> \
     [--seed N] [--seconds S] [--trace 0|1] [--out <runs.jsonl>] [--jobs N] [--clients N]\n\
     \x20      layerbench --smoke [--jobs N] [--clients N]\n\
     \x20      layerbench --compare <base.jsonl> <candidate.jsonl>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AlsPaper,
    CuibmPaper,
    ServeMixed,
    SweepDisk,
}

pub const WORKLOADS: [Workload; 4] =
    [Workload::AlsPaper, Workload::CuibmPaper, Workload::ServeMixed, Workload::SweepDisk];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::AlsPaper => "als_paper",
            Workload::CuibmPaper => "cuibm_paper",
            Workload::ServeMixed => "serve_mixed",
            Workload::SweepDisk => "sweep_disk",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Ops per second on two cores when the benchmark was written, and
    /// the multiple a run's op count is rounded to (one whole deck of the
    /// workload's op mix). A run makes `--seconds` × the rate ops, so it
    /// measures about `--seconds` at that commit; a fixed count keeps the
    /// sample the same size in every run, fast or slow.
    fn nominal_rate(self) -> (f64, u64) {
        match self {
            Workload::AlsPaper => (0.2, 1),
            Workload::CuibmPaper => (0.08, 1),
            Workload::ServeMixed => (24.0, 100),
            Workload::SweepDisk => (88.0, 4),
        }
    }

    /// The app whose layers the traced run times, and whether at paper
    /// scale. The serve workload's inputs are the five test-scale apps;
    /// ALS is the one whose collection costs the most.
    fn layer_app(self, paper: bool) -> (&'static str, bool) {
        match self {
            Workload::AlsPaper => ("als", paper),
            Workload::CuibmPaper => ("cuibm", paper),
            Workload::ServeMixed => ("als", false),
            Workload::SweepDisk => ("gaussian", paper),
        }
    }
}

/// Settings of one measurement.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Upper limit on any run's op count (`--smoke`).
    pub op_cap: Option<u64>,
    pub jobs: usize,
    pub clients: usize,
    /// Paper-scale inputs; `--smoke` runs at test scale.
    pub paper: bool,
}

impl Ctx {
    /// The end-to-end budget of workload `w`: its op count, and six
    /// times `--seconds` before no further op starts.
    pub fn budget(&self, w: Workload) -> Budget {
        let (rate, deck) = w.nominal_rate();
        let ops = ((self.seconds * rate / deck as f64).round() as u64).max(1) * deck;
        Budget { ops: self.cap(ops), max_seconds: 6.0 * self.seconds }
    }

    /// `n` ops, or fewer under `--smoke`.
    pub fn cap(&self, n: u64) -> u64 {
        self.op_cap.map_or(n, |c| n.min(c))
    }
}

/// What an end-to-end workload measured.
pub struct E2e {
    pub setup_s: f64,
    pub measured: Measured,
    /// User plus system CPU of the measured processes over the ops.
    pub cpu_s: f64,
    /// Peak resident set: the median over ops of each report process's
    /// `VmHWM` (run workloads) or of each op's own peak (`sweep_disk`),
    /// or the daemon's `VmHWM`.
    pub peak_rss_mib: f64,
    /// Worker budget the measured ops ran with.
    pub jobs: usize,
    /// Workload-specific facts for the stamp.
    pub notes: Vec<(&'static str, Json)>,
}

pub fn median(xs: &[f64]) -> f64 {
    stats::nearest_rank(xs, 50.0).unwrap_or(f64::NAN)
}

/// One run's result, before rendering.
struct Outcome {
    checks: Measured,
    metrics: Vec<(&'static str, f64)>,
    jobs: usize,
    notes: Vec<(&'static str, Json)>,
}

fn e2e(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let budget = ctx.budget(w);
    let e = match w {
        Workload::AlsPaper => runload::e2e(ctx, budget, w.name(), "als")?,
        Workload::CuibmPaper => runload::e2e(ctx, budget, w.name(), "cuibm")?,
        Workload::ServeMixed => servemix::e2e(ctx, budget)?,
        Workload::SweepDisk => sweepdisk::e2e(ctx, budget)?,
    };
    let m = &e.measured;
    let done = m.completed();
    if done == 0 {
        return Err(format!("no op completed: {:?}", m.errors));
    }
    let pct = |p| stats::nearest_rank(&m.latencies_ms, p).expect("ops completed");
    let metrics = vec![
        ("setup_s", e.setup_s),
        ("op_p50_ms", pct(50.0)),
        ("op_p99_ms", pct(99.0)),
        ("ops_per_s", done as f64 / m.wall_s),
        ("cpu_ms_per_op", e.cpu_s * 1e3 / done as f64),
        ("peak_rss_mb", e.peak_rss_mib),
    ];
    let mut notes = e.notes;
    notes.push(("wall_s", Json::Float(m.wall_s)));
    if m.latencies_ms.len() <= 32 {
        // Few, long ops: keep each one, in order, for the record.
        notes.push(("latencies_ms", Json::arr(m.latencies_ms.iter().map(|&l| Json::Float(l)))));
    }
    Ok(Outcome { checks: e.measured, metrics, jobs: e.jobs, notes })
}

fn trace(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let work = WorkDir::create(&format!("{}-trace", w.name()))?;
    let mut checks = Measured::default();
    let (app, paper) = w.layer_app(ctx.paper);
    let pin = match w {
        Workload::AlsPaper | Workload::CuibmPaper if ctx.paper => Some(Pin::expected(w.name())?),
        _ => None,
    };
    let mut metrics = layers::app_layers(app, paper, ctx.jobs, &work, pin.as_ref(), &mut checks)?;
    metrics.extend(servemix::layers(ctx, ctx.cap(64), &mut checks)?);
    metrics.extend(sweepdisk::layers(ctx, ctx.cap(40), &mut checks)?);
    let notes =
        vec![("layer_app", Json::Str(format!("{app}/{}", if paper { "paper" } else { "test" })))];
    Ok(Outcome { checks, metrics, jobs: ctx.jobs, notes })
}

/// Render the result line: every metric of the table, in table order.
fn result_json(out: &Outcome, trace: bool) -> Result<Json, String> {
    let t = tables();
    let table: Vec<(&str, &str)> = if trace {
        t.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
    } else {
        t.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let value = out
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not a number ({value})"));
        }
        metrics.push((
            name.to_string(),
            Json::obj([("value", Json::Float(value)), ("unit", Json::Str(unit.to_string()))]),
        ));
    }
    let c = &out.checks;
    Ok(Json::obj([
        ("correct", Json::Bool(c.failed == 0)),
        ("attempted", Json::Int(c.attempted.max(1) as i128)),
        ("failed", Json::Int(c.failed as i128)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

fn stamp(ctx: &Ctx, w: Workload, trace: bool, out: &Outcome) -> Json {
    let mut fields = vec![
        ("workload", Json::Static(w.name())),
        ("seed", Json::Int(ctx.seed as i128)),
        ("seconds", Json::Float(ctx.seconds)),
        ("trace", Json::Bool(trace)),
        ("scale", Json::Static(if ctx.paper { "paper" } else { "test" })),
        ("cores", Json::Int(nproc() as i128)),
        ("jobs", Json::Int(out.jobs as i128)),
        // In-process workloads are driven by one client.
        (
            "clients",
            Json::Int(if trace || w == Workload::ServeMixed { ctx.clients } else { 1 } as i128),
        ),
        ("attempted", Json::Int(out.checks.attempted as i128)),
        ("failed", Json::Int(out.checks.failed as i128)),
        ("meta", diogenes_bench::bench_meta(out.jobs, "pascal_like")),
    ];
    fields.extend(out.notes.iter().cloned());
    Json::obj(fields)
}

fn run_one(ctx: &Ctx, w: Workload, trace: bool) -> Result<(Json, Json), String> {
    let out = if trace { self::trace(ctx, w)? } else { e2e(ctx, w)? };
    for e in &out.checks.errors {
        eprintln!("layerbench {}: {e}", w.name());
    }
    Ok((stamp(ctx, w, trace, &out), result_json(&out, trace)?))
}

struct Opts {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    jobs: usize,
    clients: usize,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let cores = nproc();
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        out: None,
        jobs: cores,
        clients: cores,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("{flag}: bad number {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)? as f64,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => o.out = Some(value()?),
            "--jobs" => o.jobs = number(value()?)? as usize,
            "--clients" => o.clients = number(value()?)? as usize,
            "--smoke" => o.smoke = true,
            "--compare" => o.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // Load discipline: no more threads or connections than cores.
    for (what, n) in [("--jobs", o.jobs), ("--clients", o.clients)] {
        if n == 0 || n > cores {
            return Err(format!("{what} {n} is outside 1..={cores} (the cores available)"));
        }
    }
    Ok(o)
}

/// Every workload at test scale, at most 20 ops each, end-to-end and
/// traced: every metric must print and every check pass.
fn smoke(seconds: f64, jobs: usize, clients: usize) -> bool {
    let t0 = Instant::now();
    let ctx = Ctx { seed: 1, seconds, op_cap: Some(20), jobs, clients, paper: false };
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            match run_one(&ctx, w, trace) {
                Ok((_, result)) => {
                    let failed = result.get("failed").and_then(Json::as_i128).unwrap_or(-1);
                    ok &= failed == 0;
                    eprintln!(
                        "smoke {} trace={}: {} metrics, {failed} failed",
                        w.name(),
                        trace as u8,
                        result.get("metrics").and_then(Json::as_obj).map_or(0, <[_]>::len)
                    );
                }
                Err(e) => {
                    ok = false;
                    eprintln!("smoke {} trace={}: {e}", w.name(), trace as u8);
                }
            }
        }
    }
    eprintln!("smoke: {} in {:.1} s", if ok { "ok" } else { "FAILED" }, t0.elapsed().as_secs_f64());
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve-child") => std::process::exit(servemix::child_main(&args[1..])),
        Some("report-child") => std::process::exit(runload::child_main(&args[1..])),
        _ => {}
    }
    // `bench_meta` asks git for the revision; keep it from searching
    // above the working directory.
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(|p| p.to_owned()))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("layerbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some((base, cand)) = &opts.compare {
        std::process::exit(match compare::compare(base, cand) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("layerbench --compare: {e}");
                2
            }
        });
    }
    if opts.smoke {
        std::process::exit(if smoke(opts.seconds, opts.jobs, opts.clients) { 0 } else { 1 });
    }
    let Some(w) = opts.workload else {
        eprintln!("layerbench: --workload, --smoke or --compare is required\n{USAGE}");
        std::process::exit(2);
    };
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        op_cap: None,
        jobs: opts.jobs,
        clients: opts.clients,
        paper: true,
    };
    let (stamp, result) = match run_one(&ctx, w, opts.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("layerbench {}: {e}", w.name());
            std::process::exit(1);
        }
    };
    if let Some(path) = &opts.out {
        let record = Json::obj([
            ("workload", Json::Static(w.name())),
            ("trace", Json::Bool(opts.trace)),
            ("stamp", stamp.clone()),
            ("result", result.clone()),
        ]);
        let parent = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty());
        let appended = parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::OpenOptions::new().create(true).append(true).open(path))
            .and_then(|mut f| writeln!(f, "{}", record.to_string_compact()));
        if let Err(e) = appended {
            eprintln!("layerbench: cannot append to {path}: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", Json::obj([("stamp", stamp)]).to_string_compact());
    println!("{}", result.to_string_compact());
    let failed = result.get("failed").and_then(Json::as_i128).unwrap_or(1);
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
