//! The run workloads: `diogenes <app> --scale paper --json <path>`, one
//! report per op, each in a process of its own as the CLI makes it. The
//! harness re-executes itself as `report-child`, which makes the calls
//! the CLI makes and then reports its own CPU time and peak resident set.

use std::process::{Command, Stdio};
use std::sync::Mutex;

use diogenes::{build_app, run_diogenes, write_json_doc, DiogenesConfig};
use ffm_core::{report_to_json, FfmReport, Json};

use crate::loadgen::{closed_loop, Budget};
use crate::sys::{cpu_seconds, peak_rss_mib, timed, WorkDir};
use crate::{median, Ctx, E2e, SETUP_REPS};

/// The five simulated applications, by CLI name.
pub const APPS: [&str; 5] = ["als", "cuibm", "amg", "gaussian", "pipelined"];

/// One op: build the app, run the five-stage pipeline, export the
/// report as pretty JSON — the path of `diogenes <app> --json <path>`.
/// Returns the report and the bytes written.
pub fn report_op(
    app: &str,
    paper: bool,
    jobs: usize,
    path: &str,
) -> Result<(FfmReport, Vec<u8>), String> {
    let built = build_app(app, paper).ok_or_else(|| format!("unknown app {app}"))?;
    let result = run_diogenes(built.as_ref(), DiogenesConfig::new().with_jobs(jobs))
        .map_err(|e| format!("{app}: pipeline failed: {e}"))?;
    write_json_doc(path, &report_to_json(&result.report))?;
    Ok((result.report, take_file(path)?))
}

/// Read a written artifact and remove it, so the next write creates the
/// file afresh: replacing an existing file makes ext4 flush the new data
/// at the rename, which would time the disk instead of the program.
pub fn take_file(path: &str) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    std::fs::remove_file(path).map_err(|e| format!("cannot remove {path}: {e}"))?;
    Ok(bytes)
}

/// What a report must reproduce: the per-stage virtual times, the
/// collection total and the exported bytes. Wall time may move; these
/// may not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pin {
    stage_exec_ns: Vec<u64>,
    collection_total_ns: u64,
    report_bytes: u64,
    report_digest: String,
}

impl Pin {
    pub fn of(report: &FfmReport, bytes: &[u8]) -> Pin {
        Pin {
            stage_exec_ns: report.stages.iter().map(|s| s.exec_ns).collect(),
            collection_total_ns: report.collection_total_ns,
            report_bytes: bytes.len() as u64,
            report_digest: format!("{:032x}", gpu_sim::Digest::of(bytes).0),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("stage_exec_ns", Json::arr(self.stage_exec_ns.iter().map(|&n| Json::Int(n as i128)))),
            ("collection_total_ns", Json::Int(self.collection_total_ns as i128)),
            ("report_bytes", Json::Int(self.report_bytes as i128)),
            ("report_digest", Json::Str(self.report_digest.clone())),
        ])
    }

    fn from_json(doc: &Json) -> Option<Pin> {
        let int = |key: &str| doc.get(key)?.as_i128().and_then(|v| u64::try_from(v).ok());
        let stages = doc.get("stage_exec_ns")?.as_arr()?;
        Some(Pin {
            stage_exec_ns: stages
                .iter()
                .map(|v| v.as_i128().and_then(|v| u64::try_from(v).ok()))
                .collect::<Option<_>>()?,
            collection_total_ns: int("collection_total_ns")?,
            report_bytes: int("report_bytes")?,
            report_digest: doc.get("report_digest")?.as_str()?.to_string(),
        })
    }

    /// The pinned values of a paper-scale run workload (`expected.json`).
    pub fn expected(workload: &str) -> Result<Pin, String> {
        let doc = Json::parse(include_str!("../expected.json"))
            .map_err(|e| format!("expected.json: {e}"))?;
        doc.get(workload)
            .and_then(Pin::from_json)
            .ok_or_else(|| format!("expected.json has no valid entry for {workload}"))
    }

    /// Compare against the pin; the error carries the observed entry in
    /// `expected.json` form.
    pub fn check(&self, want: &Pin, what: &str) -> Result<(), String> {
        if self == want {
            return Ok(());
        }
        Err(format!(
            "{what} does not reproduce expected.json; observed {}",
            self.to_json().to_string_compact()
        ))
    }
}

/// Warm the process: one test-scale report of each app fills the
/// interner, the allocator and the worker pool, so the first measured op
/// is not charged for them.
pub fn warm_up(work: &WorkDir, jobs: usize) -> Result<(), String> {
    let path = work.file("REPORT_warm_up.json");
    for app in APPS {
        report_op(app, false, jobs, &path)?;
    }
    Ok(())
}

/// `report-child <app> <paper|test> <jobs> <path>`: one report, as
/// `diogenes <app> --scale <scale> --jobs <jobs> --json <path>` makes
/// it; then one line on stdout with the report's pin, this process's
/// CPU seconds and its peak resident set. Returns the exit code.
pub fn child_main(args: &[String]) -> i32 {
    let parsed = match args {
        [app, scale, jobs, path] if scale == "paper" || scale == "test" => {
            jobs.parse::<usize>().ok().map(|jobs| (app, scale == "paper", jobs, path))
        }
        _ => None,
    };
    let Some((app, paper, jobs, path)) = parsed else {
        eprintln!("usage: layerbench report-child <app> <paper|test> <jobs> <path>");
        return 2;
    };
    let pid = std::process::id();
    let line = report_op(app, paper, jobs, path).and_then(|(report, bytes)| {
        Ok(Json::obj([
            ("pin", Pin::of(&report, &bytes).to_json()),
            ("cpu_s", Json::Float(cpu_seconds(pid)?)),
            ("peak_rss_mib", Json::Float(peak_rss_mib(pid)?)),
        ]))
    });
    match line {
        Ok(line) => {
            println!("{}", line.to_string_compact());
            0
        }
        Err(e) => {
            eprintln!("layerbench report-child {app}: {e}");
            1
        }
    }
}

/// What one report process made and used.
struct ChildReport {
    pin: Pin,
    cpu_s: f64,
    peak_rss_mib: f64,
}

/// Run one `report-child` and wait for it to exit.
fn child_report(app: &str, paper: bool, jobs: usize, path: &str) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let scale = if paper { "paper" } else { "test" };
    let out = Command::new(exe)
        .args(["report-child", app, scale, &jobs.to_string(), path])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a report process: {e}"))?;
    if !out.status.success() {
        return Err(format!("report process for {app} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = Json::parse(text.lines().last().unwrap_or(""))
        .map_err(|e| format!("report process for {app} said {text:?}: {e}"))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64);
    match (doc.get("pin").and_then(Pin::from_json), num("cpu_s"), num("peak_rss_mib")) {
        (Some(pin), Some(cpu_s), Some(peak_rss_mib)) => {
            Ok(ChildReport { pin, cpu_s, peak_rss_mib })
        }
        _ => Err(format!("report process for {app} said {text:?}")),
    }
}

pub fn e2e(ctx: &Ctx, budget: Budget, workload: &str, app: &str) -> Result<E2e, String> {
    let work = WorkDir::create(workload)?;
    let path = work.file(&format!("REPORT_{app}.json"));
    // Set-up: one test-scale report of each app, each in its own
    // process, so the first measured op finds the binary and the file
    // cache warm.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (warm, secs) = timed(|| {
            APPS.iter().try_for_each(|a| child_report(a, false, ctx.jobs, &path).map(drop))
        });
        warm?;
        setups.push(secs);
    }
    let pin = if ctx.paper { Some(Pin::expected(workload)?) } else { None };
    let first: Mutex<Option<Pin>> = Mutex::new(None);
    let used = Mutex::new((0.0, Vec::new()));
    let measured = closed_loop(budget, 1, |_, _| {
        let child = child_report(app, ctx.paper, ctx.jobs, &path)?;
        let mut used = used.lock().expect("single client");
        used.0 += child.cpu_s;
        used.1.push(child.peak_rss_mib);
        let mut first = first.lock().expect("single client");
        match first.as_ref() {
            Some(f) => child.pin.check(f, "report of a later op")?,
            None => *first = Some(child.pin.clone()),
        }
        match &pin {
            Some(want) => child.pin.check(want, "report"),
            None => Ok(()),
        }
    });
    let (cpu_s, peaks) = used.into_inner().expect("single client");
    Ok(E2e {
        setup_s: median(&setups),
        cpu_s,
        peak_rss_mib: median(&peaks),
        measured,
        jobs: ctx.jobs,
        notes: Vec::new(),
    })
}
