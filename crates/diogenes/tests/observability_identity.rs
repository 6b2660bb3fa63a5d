//! The honesty invariant, extended to the serve-observability layer:
//! REPORT and SWEEP bytes must be identical with the flight recorder on
//! vs off, at `--jobs 1` and `--jobs 4` — the recorder observes span
//! closes, it never feeds anything back into the computation. The same
//! must hold under an active request-trace scope, and what the ring
//! retains must be a well-formed, Perfetto-shaped span stream.
//!
//! One `#[test]`: the flight budget and trace scopes are process-global
//! state; a sibling test flipping them mid-run would race. This file is
//! its own test binary (own process), so the serve integration tests —
//! which also configure the recorder — cannot interfere.

use cuda_driver::GpuApp;
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{
    report_to_json, run_ffm, run_sweep, sweep_to_json, telemetry, FfmConfig, Json, SweepSpec,
};

fn report_json(app: &dyn GpuApp, jobs: usize) -> String {
    let report = run_ffm(app, &FfmConfig::default().with_jobs(jobs)).expect("pipeline runs");
    report_to_json(&report).to_string_pretty()
}

fn sweep_json(app: &dyn GpuApp, jobs: usize) -> String {
    let spec = SweepSpec::new(FfmConfig::default())
        .axis("cost.free_base_ns", vec![1_000, 2_000])
        .with_jobs(jobs);
    let matrix = run_sweep(app, &spec).expect("sweep runs");
    sweep_to_json(&matrix).to_string_pretty()
}

#[test]
fn flight_recorder_changes_no_report_bytes_and_keeps_well_formed_spans() {
    let app = CumfAls::new(AlsConfig::test_scale());

    // -- Recorder OFF: baseline bytes at both job counts. ---------------
    let report_off_1 = report_json(&app, 1);
    let report_off_4 = report_json(&app, 4);
    let sweep_off_1 = sweep_json(&app, 1);
    let sweep_off_4 = sweep_json(&app, 4);
    assert_eq!(report_off_1, report_off_4, "jobs invariance broken with recorder off");
    assert_eq!(sweep_off_1, sweep_off_4, "sweep jobs invariance broken with recorder off");

    // -- Recorder ON (as `serve` runs: flight on, profiling off), under
    // an active trace scope like every daemon job. ----------------------
    telemetry::flight_configure(1 << 20);
    let _scope = telemetry::trace_scope(Some(telemetry::TraceId(0xfeed)));
    let report_on_1 = report_json(&app, 1);
    let report_on_4 = report_json(&app, 4);
    let sweep_on_1 = sweep_json(&app, 1);
    let sweep_on_4 = sweep_json(&app, 4);

    assert_eq!(report_on_1, report_off_1, "flight recorder changed the jobs=1 report");
    assert_eq!(report_on_4, report_off_4, "flight recorder changed the jobs=4 report");
    assert_eq!(sweep_on_1, sweep_off_1, "flight recorder changed the jobs=1 sweep");
    assert_eq!(sweep_on_4, sweep_off_4, "flight recorder changed the jobs=4 sweep");

    // Pool workers flush span events right after batch completion; give
    // stragglers a beat so the ring below is settled.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // -- What the ring retained. ----------------------------------------
    let stats = telemetry::flight_stats();
    assert!(stats.events > 0, "recorder captured nothing");
    assert!(stats.bytes <= stats.budget_bytes, "ring exceeded its byte budget: {stats:?}");
    let events = telemetry::flight_events();
    assert!(
        events.iter().any(|(_, e)| e.name == "run_ffm" || e.name == "sweep.cell"),
        "pipeline spans missing from the ring"
    );
    assert!(
        events.iter().all(|(_, e)| e.trace == 0xfeed),
        "all spans ran under the trace scope and must carry its id"
    );

    // The surviving suffix of every track is a well-formed span stream...
    let mut by_track: std::collections::BTreeMap<u32, Vec<ffm_core::SpanEvent>> =
        std::collections::BTreeMap::new();
    for (track, e) in events {
        by_track.entry(track).or_default().push(e);
    }
    for (track, spans) in &by_track {
        telemetry::spans_well_formed(spans)
            .unwrap_or_else(|e| panic!("flight track {track} malformed: {e}"));
    }

    // ...and the Chrome dump both filters by trace id and validates as a
    // coherent trace document (the same check `diogenes trace-check`
    // applies to `/trace` dumps in CI).
    let doc = telemetry::flight_trace_json(Some(telemetry::TraceId(0xfeed)));
    let check = diogenes::check_chrome_trace(&doc).expect("flight dump is a valid Chrome trace");
    assert!(check.events > 0 && check.tracks > 0);
    let none = telemetry::flight_trace_json(Some(telemetry::TraceId(0xdead)));
    let kept = none.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert!(
        kept.iter().all(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "foreign trace filter must keep only metadata events"
    );

    telemetry::flight_configure(0);
    telemetry::flight_clear();
}
