//! The self-measurement layer must be *invisible* to the measurements:
//! `FfmReport` and sweep JSON must be byte-identical with profiling on
//! vs off, at `jobs = 1` and `jobs = 8` — and while it is on, what it
//! records must be a well-formed span hierarchy with the documented
//! taxonomy and pool metrics, in which no stage starts before its
//! dependencies have ended.
//!
//! Everything lives in ONE `#[test]`: the enabled flag and the span
//! ring are process-global, and the Rust test harness runs `#[test]`
//! functions concurrently in one process — a second test clearing or
//! toggling mid-run would corrupt both.

use std::collections::HashSet;

use cuda_driver::GpuApp;
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{
    deps, report_to_json, run_ffm, run_sweep, sweep_to_json, telemetry, FfmConfig, SpanEvent,
    StageId, SweepSpec,
};

fn report_json(app: &dyn GpuApp, jobs: usize) -> String {
    let report = run_ffm(app, &FfmConfig::default().with_jobs(jobs)).expect("pipeline runs");
    report_to_json(&report).to_string_pretty()
}

fn sweep_json(app: &dyn GpuApp, jobs: usize) -> String {
    let spec = SweepSpec::new(FfmConfig::default())
        .axis("cost.free_base_ns", vec![1_000, 2_000])
        .axis("driver.unified_memset_penalty", vec![1, 30])
        .with_jobs(jobs);
    let matrix = run_sweep(app, &spec).expect("sweep runs");
    sweep_to_json(&matrix).to_string_pretty()
}

#[test]
fn profiling_changes_no_report_bytes_and_records_well_formed_telemetry() {
    let app = CumfAls::new(AlsConfig::test_scale());

    // -- Profiling OFF: the baseline bytes, at both job counts. --------
    let report_off_1 = report_json(&app, 1);
    let report_off_8 = report_json(&app, 8);
    let sweep_off_1 = sweep_json(&app, 1);
    let sweep_off_8 = sweep_json(&app, 8);
    assert_eq!(report_off_1, report_off_8, "jobs invariance broken with profiling off");
    assert_eq!(sweep_off_1, sweep_off_8, "sweep jobs invariance broken with profiling off");

    // The disabled fast path must have recorded nothing at all.
    let empty = telemetry::snapshot();
    assert!(empty.tracks.is_empty(), "spans recorded while disabled: {:?}", empty.tracks);
    assert!(empty.counters.is_empty(), "counters recorded while disabled: {:?}", empty.counters);
    assert!(empty.hists.is_empty(), "histograms recorded while disabled");

    // -- Profiling ON: same runs, byte-identical outputs. ---------------
    telemetry::set_enabled(true);
    let report_on_1 = report_json(&app, 1);
    let report_on_8 = report_json(&app, 8);
    let pool_tasks = || {
        let c = telemetry::gather_metrics().counters;
        c.get("pool.tasks_submitter").copied().unwrap_or(0)
            + c.get("pool.tasks_helper").copied().unwrap_or(0)
    };
    let tasks_before = pool_tasks();
    // A jobs = 4 run under its own request id, so its stage spans can be
    // told apart from the other runs' (fan-out helpers inherit the id).
    let report_on_4 = {
        let _scope = telemetry::trace_scope(Some(telemetry::TraceId(4)));
        report_json(&app, 4)
    };
    // Only phase 2 of the stage plan fans out: its three lanes are the
    // run's only pool tasks (discovery and stage 1 share the caller's lane).
    assert_eq!(pool_tasks() - tasks_before, 3, "pool tasks of the jobs = 4 run");
    let sweep_on_1 = sweep_json(&app, 1);
    let sweep_on_8 = sweep_json(&app, 8);
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();

    assert_eq!(report_on_1, report_off_1, "profiling changed the jobs=1 report");
    assert_eq!(report_on_8, report_off_8, "profiling changed the jobs=8 report");
    assert_eq!(report_on_4, report_off_1, "profiling changed the jobs=4 report");
    assert_eq!(sweep_on_1, sweep_off_1, "profiling changed the jobs=1 sweep");
    assert_eq!(sweep_on_8, sweep_off_8, "profiling changed the jobs=8 sweep");

    // -- The recorded telemetry itself. ---------------------------------
    // Span taxonomy: every pipeline stage, the sweep layers, the pool.
    let names: HashSet<&str> =
        snap.tracks.iter().flat_map(|t| t.events.iter().map(|e| e.name)).collect();
    for expected in [
        "run_ffm",
        "discovery",
        "stage1-baseline",
        "stage2-detailed-tracing",
        "stage3a-memory-tracing",
        "stage3b-data-hashing",
        "stage4-sync-use",
        "stage5-analysis",
        "run_sweep",
        "sweep.cell",
        "pool.task",
    ] {
        assert!(names.contains(expected), "span {expected:?} missing; got {names:?}");
    }

    // Every track's spans nest properly (every exit matches an enter, no
    // partial overlap, recorded depths consistent).
    for track in &snap.tracks {
        telemetry::spans_well_formed(&track.events)
            .unwrap_or_else(|e| panic!("track {:?} malformed: {e}", track.thread));
    }

    // The stage plan honours the stage keys: in the jobs = 4 run, every
    // stage starts only after all of its dependencies have ended.
    let stage_span = |id: StageId| {
        let spans: Vec<&SpanEvent> = snap
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.trace == 4 && e.name == id.name())
            .collect();
        assert_eq!(spans.len(), 1, "one {} span in the jobs = 4 run", id.name());
        spans[0]
    };
    for id in StageId::ALL {
        let span = stage_span(id);
        for &dep in deps(id) {
            let dep_span = stage_span(dep);
            assert!(
                dep_span.end_ns() <= span.start_ns,
                "{} started at {} before its dependency {} ended at {}",
                id.name(),
                span.start_ns,
                dep.name(),
                dep_span.end_ns()
            );
        }
    }

    // The jobs=8 runs fanned out: helper threads ran tasks on their own
    // named tracks.
    let tasks = snap.counters.get("pool.tasks_submitter").copied().unwrap_or(0)
        + snap.counters.get("pool.tasks_helper").copied().unwrap_or(0);
    assert!(tasks > 0, "no pool tasks counted: {:?}", snap.counters);
    assert!(
        snap.tracks.iter().any(|t| t.thread.starts_with("ffm-pool-")),
        "no pool-worker track recorded: {:?}",
        snap.tracks.iter().map(|t| &t.thread).collect::<Vec<_>>()
    );

    // Collection metrics from the instrumented stages and analysis.
    for counter in [
        "stage2.traced_calls",
        "stage3.digest_bytes",
        "graph.nodes",
        "analysis.problems",
        "grouping.candidate_runs",
    ] {
        assert!(snap.counters.contains_key(counter), "{counter} missing: {:?}", snap.counters);
    }
    // 2 sweeps (jobs 1 and 8) × 2×2 grid.
    assert_eq!(snap.counters["sweep.cells_completed"], 8);

    // -- The exported TELEMETRY document. -------------------------------
    let doc = ffm_core::snapshot_to_json("cumf_als", &app.workload(), 8, &snap).to_string_pretty();
    for key in [
        "\"traceEvents\"",
        "\"ph\": \"M\"",
        "\"ph\": \"X\"",
        "diogenes-self",
        "stage2-detailed-tracing",
        "\"workers\"",
        "\"counters\"",
        "\"histograms\"",
        "ffm-pool-",
    ] {
        assert!(doc.contains(key), "TELEMETRY document missing {key}");
    }
}
