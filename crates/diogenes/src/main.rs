//! `diogenes` — command-line entry point.
//!
//! Usage:
//! ```text
//! diogenes <als|cuibm|amg|gaussian|pipelined> [--scale test|paper]
//!          [--view overview|sequence|fold]
//!          [--fold <apiName>] [--seq N] [--sub FROM TO] [--autoseq]
//!          [--autofix] [--json <path>] [--jobs N]
//! ```
//!
//! `--jobs N` sets the worker-thread count for concurrent stage
//! execution (`0` or absent = the `DIOGENES_JOBS` environment variable,
//! else the core count; `1` = classic sequential order). The report is
//! bit-identical at every setting.
//!
//! `--profile` turns the tool's self-measurement layer on
//! (`ffm_core::telemetry`) and writes `results/TELEMETRY_<app>.json`:
//! per-stage spans, per-worker busy time, and a Chrome trace
//! of the tool's own execution (`traceEvents`, openable in Perfetto).
//! Reports stay byte-identical with profiling on or off. Diagnostics
//! verbosity is controlled by `DIOGENES_LOG=error|warn|info|debug`
//! (default `warn`).
//!
//! `--autoseq` runs the automated subsequence selection (benefit weighed
//! against fixing complexity); `--autofix` derives a fix policy from the
//! analysis, re-runs the application under the interposition shim, and
//! reports the realized saving.
//!
//! Runs the full five-stage feed-forward pipeline against the chosen
//! application (no interaction needed between stages) and renders the
//! requested terminal view, optionally exporting the JSON document.

#![forbid(unsafe_code)]

use cuda_driver::ApiFn;
use diogenes::{
    best_subsequence, build_app, derive_policy, evaluate_autofix, parse_scale,
    render_fold_expansion, render_overview, render_sequence, render_subsequence, resolve_jobs,
    run_diogenes, AutofixConfig, DiogenesConfig, ServeConfig,
};
use ffm_core::{log_error, report_to_json, telemetry};
use gpu_sim::CostModel;

/// Stop collecting, snapshot the span ring and metrics, and write the
/// self-measurement summary (spans, metrics, worker utilization,
/// tool-self Chrome trace) to `results/TELEMETRY_<app>.json`.
fn write_telemetry(app_name: &str, workload: &str, jobs: usize) {
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    let doc = ffm_core::snapshot_to_json(app_name, workload, jobs, &snap);
    let path = format!("results/TELEMETRY_{app_name}.json");
    match diogenes::write_json_doc(&path, &doc) {
        Ok(()) => eprintln!("diogenes: telemetry written to {path}"),
        Err(e) => log_error!("{e}"),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: diogenes <als|cuibm|amg|gaussian|pipelined> [--scale test|paper] \
         [--view overview|sequence|fold|compare] [--fold <apiName>] [--seq N] \
         [--sub FROM TO] [--autoseq] [--autofix] [--json <path>] [--jobs N] [--profile]\n\
         \x20      diogenes sweep <app> [--scale test|paper] [--axis field=v1,v2,...]... \
         [--paired] [--jobs N] [--out <path>] [--profile] [--list-fields] [--no-cache] \
         [--cache-dir <dir>]\n\
         \x20      diogenes cache [--dir <dir>] [--clear-stale] [--clear-all]\n\
         \x20      diogenes serve [--addr HOST:PORT] [--executors N] \
         [--cache-dir <dir>] [--no-cache] [--max-queue N] [--max-done N] \
         [--flight-recorder-bytes N]\n\
         \x20      diogenes trace-check <trace.json>   (validate a Chrome trace dump)"
    );
    std::process::exit(2);
}

/// The value of `--scale` as `build_app`'s `paper` flag. A missing value
/// prints usage and an unknown one logs the error; both exit 2.
fn scale_arg(arg: Option<&String>) -> bool {
    let Some(scale) = arg else { usage() };
    match parse_scale(scale) {
        Ok(paper) => paper,
        Err(e) => {
            log_error!("{e}");
            std::process::exit(2);
        }
    }
}

/// `diogenes cache ...` — report the stage-artifact cache and clear
/// stale (or all) entries. Stale = written by a different build or
/// store schema; the engine never reads them, they only take up disk.
fn cache_main(args: &[String]) -> ! {
    let mut dir = "results/cache".to_string();
    let mut clear_stale = false;
    let mut clear_all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--clear-stale" => clear_stale = true,
            "--clear-all" => clear_all = true,
            _ => usage(),
        }
        i += 1;
    }
    let report = if clear_all {
        ffm_core::clear_cache(std::path::Path::new(&dir), false)
    } else if clear_stale {
        ffm_core::clear_cache(std::path::Path::new(&dir), true)
    } else {
        ffm_core::scan_cache(std::path::Path::new(&dir))
    };
    match report {
        Ok(r) => {
            let verb = if clear_all || clear_stale { "removed" } else { "holds" };
            if clear_all {
                println!("cache {dir}: {verb} {} entries ({} bytes)", r.entries, r.bytes);
            } else if clear_stale {
                println!(
                    "cache {dir}: {verb} {} stale entries ({} bytes)",
                    r.stale_entries, r.stale_bytes
                );
            } else {
                println!(
                    "cache {dir}: {} entries ({} bytes), {} stale ({} bytes) from other builds",
                    r.entries, r.bytes, r.stale_entries, r.stale_bytes
                );
            }
            std::process::exit(0);
        }
        Err(e) => {
            log_error!("cache: {e}");
            std::process::exit(1);
        }
    }
}

/// `diogenes serve ...` — run the analysis-as-a-service daemon until a
/// `POST /shutdown` drains it. The bound address is announced on stdout
/// (`diogenes serve: listening on HOST:PORT`) so scripts binding port 0
/// can discover the ephemeral port.
fn serve_main(args: &[String]) -> ! {
    let mut cfg = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                cfg.addr = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--executors" => {
                i += 1;
                cfg.executors = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--cache-dir" => {
                i += 1;
                cfg.cache_dir = Some(args.get(i).cloned().unwrap_or_else(|| usage()).into());
            }
            "--no-cache" => cfg.cache_dir = None,
            "--max-queue" => {
                i += 1;
                cfg.max_queue = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--max-done" => {
                i += 1;
                cfg.max_done = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--flight-recorder-bytes" => {
                i += 1;
                cfg.flight_recorder_bytes =
                    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    match diogenes::serve(cfg) {
        Ok(()) => {
            eprintln!("diogenes serve: drained, exiting");
            std::process::exit(0);
        }
        Err(e) => {
            log_error!("serve: {e}");
            std::process::exit(1);
        }
    }
}

/// `diogenes sweep <app> ...` — replay the pipeline over a configuration
/// grid and write the matrix to `results/SWEEP_<app>.json`.
fn sweep_main(args: &[String]) -> ! {
    use diogenes::{build_spec, default_out_path, parse_axis_arg};

    if args.iter().any(|a| a == "--list-fields") {
        for f in ffm_core::SWEEPABLE_FIELDS {
            println!("{f}");
        }
        std::process::exit(0);
    }
    if args.is_empty() {
        usage();
    }
    let app_name = args[0].clone();
    let mut scale_paper = false;
    let mut axes = Vec::new();
    let mut paired = false;
    let mut jobs_flag: Option<usize> = None;
    let mut out_path: Option<String> = None;
    let mut profile = false;
    let mut no_cache = false;
    let mut cache_dir = "results/cache".to_string();

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale_paper = scale_arg(args.get(i));
            }
            "--axis" => {
                i += 1;
                let arg = args.get(i).cloned().unwrap_or_else(|| usage());
                match parse_axis_arg(&arg) {
                    Ok(a) => axes.push(a),
                    Err(e) => {
                        log_error!("sweep: {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--paired" => paired = true,
            "--profile" => profile = true,
            "--jobs" => {
                i += 1;
                jobs_flag =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--no-cache" => no_cache = true,
            "--cache-dir" => {
                i += 1;
                cache_dir = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let Some(app) = build_app(&app_name, scale_paper) else { usage() };
    let (jobs, jobs_origin) = resolve_jobs(jobs_flag);
    let mut spec = build_spec(axes, paired, jobs);
    spec.cache = if no_cache {
        ffm_core::CacheMode::Off
    } else {
        ffm_core::CacheMode::Disk(cache_dir.into())
    };
    let cell_count = match spec.expand() {
        Ok(points) => points.len(),
        Err(e) => {
            log_error!("sweep: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "diogenes sweep: {} cells over {} ({}) [{jobs} jobs, {jobs_origin}]...",
        cell_count,
        app.name(),
        app.workload()
    );
    telemetry::set_enabled(profile);
    let matrix = match ffm_core::run_sweep(app.as_ref(), &spec) {
        Ok(r) => r,
        Err(e) => {
            log_error!("sweep: {e}");
            std::process::exit(1);
        }
    };
    if profile {
        write_telemetry(app.name(), &app.workload(), jobs);
    }
    if let Some(stats) = &matrix.cache_stats {
        eprintln!(
            "diogenes sweep: stage cache {} hits / {} misses ({:.0}% hit rate)",
            stats.hits(),
            stats.misses,
            stats.hit_rate() * 100.0
        );
    }
    for (label, idx) in [
        ("max benefit", matrix.summary.max_benefit),
        ("min benefit", matrix.summary.min_benefit),
        ("max overhead", matrix.summary.max_overhead),
        ("min overhead", matrix.summary.min_overhead),
    ] {
        if let Some(i) = idx {
            let c = &matrix.cells[i];
            let assignment: Vec<String> =
                c.assignment.iter().map(|(k, v)| format!("{k}={v}")).collect();
            eprintln!(
                "  {label}: cell {i} [{}] benefit {:.3}ms ({:.2}%), overhead {:.1}x",
                assignment.join(", "),
                c.total_benefit_ns as f64 / 1e6,
                c.benefit_pct,
                c.collection_overhead_factor
            );
        }
    }
    let path = out_path.unwrap_or_else(|| default_out_path(&matrix.app_name));
    if let Err(e) = diogenes::write_json_doc(&path, &ffm_core::sweep_to_json(&matrix)) {
        log_error!("sweep: {e}");
        std::process::exit(1);
    }
    eprintln!("diogenes sweep: matrix written to {path}");
    std::process::exit(0);
}

/// `diogenes trace-check <file>` — validate a Chrome trace document
/// (e.g. the daemon's `/trace` flight dump): required fields present,
/// spans on each track properly nested. Exit 0 on a clean trace.
fn trace_check_main(args: &[String]) -> ! {
    let [path] = args else { usage() };
    let doc = match diogenes::load_doc(path) {
        Ok(doc) => doc,
        Err(e) => {
            log_error!("trace-check: {e}");
            std::process::exit(1);
        }
    };
    match diogenes::check_chrome_trace(&doc) {
        Ok(check) => {
            println!(
                "trace-check {path}: ok ({} events across {} tracks)",
                check.events, check.tracks
            );
            std::process::exit(0);
        }
        Err(e) => {
            log_error!("trace-check: {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    if args[0] == "sweep" {
        sweep_main(&args[1..]);
    }
    if args[0] == "trace-check" {
        trace_check_main(&args[1..]);
    }
    if args[0] == "cache" {
        cache_main(&args[1..]);
    }
    if args[0] == "serve" {
        serve_main(&args[1..]);
    }
    let app_name = args[0].clone();
    let mut scale_paper = false;
    let mut view = "overview".to_string();
    let mut fold_api = "cudaFree".to_string();
    let mut seq_idx = 0usize;
    let mut sub: Option<(usize, usize)> = None;
    let mut json_path: Option<String> = None;
    let mut autoseq = false;
    let mut autofix = false;
    let mut jobs_flag: Option<usize> = None;
    let mut profile = false;

    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale_paper = scale_arg(args.get(i));
            }
            "--view" => {
                i += 1;
                view = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--fold" => {
                i += 1;
                fold_api = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--seq" => {
                i += 1;
                seq_idx = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage());
            }
            "--sub" => {
                let from = args.get(i + 1).and_then(|s| s.parse().ok());
                let to = args.get(i + 2).and_then(|s| s.parse().ok());
                match (from, to) {
                    (Some(f), Some(t)) => sub = Some((f, t)),
                    _ => usage(),
                }
                i += 2;
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--jobs" => {
                i += 1;
                jobs_flag =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--autoseq" => autoseq = true,
            "--autofix" => autofix = true,
            "--profile" => profile = true,
            _ => usage(),
        }
        i += 1;
    }

    if !matches!(view.as_str(), "overview" | "sequence" | "fold" | "compare") {
        usage();
    }
    let Some(fold_api) = ApiFn::from_name(&fold_api) else {
        log_error!("unknown API function {fold_api}");
        std::process::exit(2);
    };
    let Some(app) = build_app(&app_name, scale_paper) else { usage() };
    if view == "compare" {
        // The Table 2 view: profile with all three tools and compare
        // resource consumption against expected benefit.
        eprintln!("diogenes: profiling {} with nvprof/hpctoolkit/diogenes models...", app.name());
        let t = diogenes::experiments::table2_for(app.as_ref(), &CostModel::pascal_like())
            .expect("tools run");
        println!(
            "{:<26} {:>26} {:>26} {:>26}",
            "Operation", "NVProf", "HPCToolkit", "Diogenes savings"
        );
        let cell = |v: Option<(u64, f64, usize)>| match v {
            Some((ns, pct, pos)) => format!("{:.3}ms ({:.1}%, {})", ns as f64 / 1e6, pct, pos),
            None => "-".to_string(),
        };
        for (i, r) in diogenes::experiments::significant_rows(&t, 0.3).iter().enumerate() {
            let nv = if t.nvprof_crashed {
                if i == 0 {
                    "Profiler Crashed".to_string()
                } else {
                    String::new()
                }
            } else {
                cell(r.nvprof)
            };
            println!(
                "{:<26} {:>26} {:>26} {:>26}",
                r.operation,
                nv,
                cell(r.hpctoolkit),
                cell(r.diogenes)
            );
        }
        return;
    }
    let (jobs, jobs_origin) = resolve_jobs(jobs_flag);
    eprintln!(
        "diogenes: running 5-stage feed-forward pipeline on {} ({}) \
         [{jobs} jobs, {jobs_origin}]...",
        app.name(),
        app.workload()
    );
    telemetry::set_enabled(profile);
    let cfg = DiogenesConfig::new().with_jobs(jobs);
    let result = match run_diogenes(app.as_ref(), cfg) {
        Ok(r) => r,
        Err(e) => {
            log_error!("application failed: {e}");
            std::process::exit(1);
        }
    };
    if profile {
        write_telemetry(app.name(), &app.workload(), jobs);
    }
    eprintln!(
        "diogenes: collection took {:.1}x the baseline run ({} problems found)\n",
        result.report.collection_overhead_factor(),
        result.report.analysis.problems.len()
    );

    match view.as_str() {
        "overview" => print!("{}", render_overview(&result)),
        "sequence" => {
            print!("{}", render_sequence(&result, seq_idx));
            if let Some((f, t)) = sub {
                println!();
                print!("{}", render_subsequence(&result, seq_idx, f, t));
            }
        }
        "fold" => print!("{}", render_fold_expansion(&result, fold_api)),
        _ => unreachable!("the view was checked before the run"),
    }

    if autoseq {
        if let Some(family) = result.families.get(seq_idx) {
            // Complexity weight: an eighth of the family's benefit per
            // distinct site to edit.
            let cost = family.total_benefit_ns / 8;
            if let Some(c) = best_subsequence(&result.report.analysis, family, cost) {
                println!(
                    "
auto-selected subsequence: entries {}..{} ({} sites to edit, \
                     {:.2}% of execution recoverable)",
                    c.from,
                    c.to,
                    c.sites_to_edit,
                    result.percent(c.benefit_ns)
                );
                print!("{}", render_subsequence(&result, seq_idx, c.from, c.to));
            }
        }
    }

    if autofix {
        let policy = derive_policy(&result.report.analysis, &AutofixConfig::default());
        println!(
            "
autofix: patching {} call sites...",
            policy.site_count()
        );
        match evaluate_autofix(app.as_ref(), &policy, &CostModel::pascal_like()) {
            Ok(outcome) => {
                println!(
                    "autofix: {:.3} ms -> {:.3} ms ({:.1}% saved; {} shim interceptions)",
                    outcome.before_ns as f64 / 1e6,
                    outcome.after_ns as f64 / 1e6,
                    outcome.saved_pct(),
                    outcome.stats.total()
                );
            }
            Err(e) => log_error!("autofix failed: {e}"),
        }
    }

    if let Some(path) = json_path {
        let doc = report_to_json(&result.report);
        if let Err(e) = diogenes::write_json_doc(&path, &doc) {
            log_error!("{e}");
            std::process::exit(1);
        }
        eprintln!("\ndiogenes: report exported to {path}");
    }
}
