//! The traced run's app layers: each layer's public entry point, called
//! in turn at jobs=1 on the workload's application and timed from
//! outside. No code of the program is instrumented.

use std::hint::black_box;
use std::sync::Arc;

use cuda_driver::{uninstrumented_exec_time, CudaError};
use diogenes::{build_app, write_json_doc};
use ffm_core::stages::{
    merge_stage3, run_stage1, run_stage2, run_stage3_hash, run_stage3_sync, run_stage4,
};
use ffm_core::{
    analyze, classify, decode_any_doc, decode_artifact, encode_artifact, encode_doc,
    expected_benefit, find_sequences, fold_on_api, plan_keys, report_to_json, run_ffm,
    run_ffm_streaming_with_store, single_point_groups, Artifact, ArtifactKind, ArtifactStore,
    ExecGraph, FfmConfig, Json, Stage2Cols, StageId, DEFAULT_STREAM_WINDOW,
};
use instrument::identify_sync_function;

use crate::loadgen::Measured;
use crate::runload::{take_file, Pin};
use crate::stats::unattributed;
use crate::sys::{median_secs, timed, WorkDir};

/// Repetitions of each layer that takes milliseconds; the median is kept.
const REPS: usize = 5;
const MIB: f64 = 1024.0 * 1024.0;

fn cuda(e: CudaError) -> String {
    format!("pipeline failed: {e}")
}

fn pretty(doc: &Json) -> Vec<u8> {
    let mut bytes = Vec::new();
    doc.write_pretty(&mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

/// Time every app layer on `app` and check that the pieces reproduce
/// the whole: the jobs=1 report, the jobs=`jobs` report, the streamed
/// report and the FFB round trip must all equal one set of bytes, and
/// `pin` when given.
pub fn app_layers(
    app_name: &str,
    paper: bool,
    jobs: usize,
    work: &WorkDir,
    pin: Option<&Pin>,
    checks: &mut Measured,
) -> Result<Vec<(&'static str, f64)>, String> {
    let built = build_app(app_name, paper).ok_or_else(|| format!("unknown app {app_name}"))?;
    let app = built.as_ref();
    let cfg = FfmConfig::default().with_jobs(1);
    let (cost, driver) = (&cfg.cost, &cfg.driver);
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // The first pipeline run in a process also pays for page faults, heap
    // growth and lazy set-up, so it is not timed. The whole pipeline at
    // jobs=1 is then timed before the layers and again after them, and
    // the two are averaged: a machine that speeds up or slows down during
    // the traced run does not read as unattributed time.
    run_ffm(app, &cfg).map_err(cuda)?;
    let (before, before_s) = timed(|| run_ffm(app, &cfg));
    before.map_err(cuda)?;

    // Simulator and driver, instrumentation discovery.
    let (run, app_run_s) = timed(|| uninstrumented_exec_time(app, cost.clone()));
    run.map_err(cuda)?;
    let (discovery, discovery_s) = timed(|| identify_sync_function(cost.clone()));
    let discovery = Arc::new(discovery.map_err(cuda)?);

    // Collection stages, each a full run of the app under its probes.
    let (s1, stage1_s) = timed(|| run_stage1(app, cost, driver));
    let s1 = Arc::new(s1.map_err(cuda)?);
    let (s2, stage2_s) = timed(|| run_stage2(app, cost, driver, &s1));
    let s2 = Arc::new(s2.map_err(cuda)?);
    let (s3a, stage3a_s) = timed(|| run_stage3_sync(app, cost, driver, &s1));
    let s3a = Arc::new(s3a.map_err(cuda)?);
    let (s3b, stage3b_s) = timed(|| run_stage3_hash(app, cost, driver, &s1));
    let s3b = Arc::new(s3b.map_err(cuda)?);
    // The engine clones both inputs into the merge, so this does too.
    let (s3, merge3_s) = timed(|| merge_stage3((*s3a).clone(), (*s3b).clone()));
    let s3 = Arc::new(s3);
    let (s4, stage4_s) = timed(|| run_stage4(app, cost, driver, &s1, &s3a));
    let s4 = Arc::new(s4.map_err(cuda)?);
    let calls = s2.calls.len() as f64;
    let stage3b_self_s = stage3b_s - app_run_s;
    out.extend([
        ("sim.app_run_s", app_run_s),
        ("instrument.discovery_ms", discovery_s * 1e3),
        ("stages.stage1_s", stage1_s),
        ("stages.stage2_s", stage2_s),
        ("stages.stage3a_s", stage3a_s),
        ("stages.stage3b_s", stage3b_s),
        ("stages.stage4_s", stage4_s),
        ("stages.merge3_ms", merge3_s * 1e3),
        ("stages.stage2_self_s", stage2_s - app_run_s),
        ("stages.stage3a_self_s", stage3a_s - app_run_s),
        ("stages.stage3b_self_s", stage3b_self_s),
        ("stages.stage4_self_s", stage4_s - app_run_s),
        ("stages.stage2_calls", calls),
        ("stages.stage2_us_per_call", (stage2_s - app_run_s) * 1e6 / calls.max(1.0)),
        ("stages.stage3_hashed_mb", s3b.hashed_bytes as f64 / MIB),
        ("stages.hash_gb_s", s3b.hashed_bytes as f64 / stage3b_s / 1e9),
        ("stages.stage4_first_use_gaps", s4.first_use_ns.len() as f64),
    ]);

    // Stage 5, pass by pass, chained the way `analyze` chains them.
    let acfg = &cfg.analysis;
    let graph_s = median_secs(REPS, || {
        black_box(ExecGraph::from_trace(&s2, s1.exec_time_ns));
    });
    let mut graph = ExecGraph::from_trace(&s2, s1.exec_time_ns);
    let classify_s = median_secs(REPS, || {
        black_box(classify(&mut graph, &s3, &s4, &acfg.classify));
    });
    let benefit = expected_benefit(&graph, &acfg.benefit);
    let benefit_s = median_secs(REPS, || {
        black_box(expected_benefit(&graph, &acfg.benefit));
    });
    let single_s = median_secs(REPS, || {
        black_box(single_point_groups(&graph, &benefit));
    });
    let fold_s = median_secs(REPS, || {
        black_box(fold_on_api(&graph, &benefit));
    });
    let sequences_s = median_secs(REPS, || {
        black_box(find_sequences(&graph, 1));
    });
    let analyze_s = median_secs(REPS, || {
        black_box(analyze(&s1, &s2, &s3, &s4, acfg, 1));
    });
    let analysis = analyze(&s1, &s2, &s3, &s4, acfg, 1);
    out.extend([
        ("graph.build_ms", graph_s * 1e3),
        ("problem.classify_ms", classify_s * 1e3),
        ("benefit.expected_ms", benefit_s * 1e3),
        ("grouping.single_point_ms", single_s * 1e3),
        ("grouping.fold_on_api_ms", fold_s * 1e3),
        ("grouping.find_sequences_ms", sequences_s * 1e3),
        ("analysis.analyze_ms", analyze_s * 1e3),
        ("graph.nodes", analysis.graph.nodes.len() as f64),
        ("analysis.problems", analysis.problems.len() as f64),
    ]);

    // The engine chaining all of it, sequentially and on `jobs` workers.
    let (report, after_s) = timed(|| run_ffm(app, &cfg));
    let report = report.map_err(cuda)?;
    let jobs1_s = (before_s + after_s) / 2.0;
    let (wide, wide_s) = timed(|| run_ffm(app, &cfg.clone().with_jobs(jobs)));
    let wide = wide.map_err(cuda)?;
    let layers =
        [discovery_s, stage1_s, stage2_s, stage3a_s, stage3b_s, merge3_s, stage4_s, analyze_s];
    out.extend([
        ("engine.run_ffm_jobs1_s", jobs1_s),
        ("engine.unattributed_s", unattributed(jobs1_s, &layers)),
        ("par.dag_speedup", jobs1_s / wide_s),
    ]);

    // Export and artifact writing.
    let doc = report_to_json(&report);
    let json_s = median_secs(REPS, || {
        black_box(report_to_json(&report));
    });
    let path = work.file("REPORT_trace.json");
    let mut writes = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let (written, secs) = timed(|| write_json_doc(&path, &doc));
        written?;
        writes.push(secs);
        bytes = take_file(&path)?;
    }
    let write_s = crate::median(&writes);
    out.extend([
        ("export.report_json_ms", json_s * 1e3),
        ("artifact.write_json_ms", write_s * 1e3),
        ("export.report_mb", bytes.len() as f64 / MIB),
    ]);
    checks.check(pretty(&report_to_json(&wide)) == bytes, || {
        format!("{app_name}: the jobs={jobs} report differs from the jobs=1 report")
    });
    if let Some(want) = pin {
        checks.record(Pin::of(&report, &bytes).check(want, "traced jobs=1 report"));
    }

    // Codecs: the stage 2 trace through FFB, the report through JSON
    // and FFB.
    let s2_art = Artifact::Stage2(s2.clone());
    let s2_ffb = encode_artifact(&s2_art).ok_or("stage 2 artifact does not encode")?;
    let encode_s = median_secs(REPS, || {
        black_box(encode_artifact(&s2_art));
    });
    let decode_s = median_secs(REPS, || {
        black_box(decode_artifact(&s2_ffb, ArtifactKind::Stage2).expect("fresh encoding decodes"));
    });
    let mut cols = Stage2Cols::new();
    let view_s = median_secs(REPS, || {
        cols.read(black_box(&s2_ffb)).expect("fresh encoding reads");
    });
    let text = std::str::from_utf8(&bytes).map_err(|_| "report is not UTF-8".to_string())?;
    let parse_s = median_secs(REPS, || {
        black_box(Json::parse(text).expect("report parses"));
    });
    let report_ffb = encode_doc(&doc);
    let ffb_encode_s = median_secs(REPS, || {
        black_box(encode_doc(&doc));
    });
    let ffb_decode_s = median_secs(REPS, || {
        black_box(decode_any_doc(&report_ffb).expect("fresh encoding decodes"));
    });
    out.extend([
        ("codec.stage2_encode_ms", encode_s * 1e3),
        ("codec.stage2_decode_ms", decode_s * 1e3),
        ("codec.stage2_view_ms", view_s * 1e3),
        ("codec.stage2_mb", s2_ffb.len() as f64 / MIB),
        ("json.parse_report_ms", parse_s * 1e3),
        ("codec.report_ffb_encode_ms", ffb_encode_s * 1e3),
        ("codec.report_ffb_decode_ms", ffb_decode_s * 1e3),
    ]);
    let round_trip = decode_any_doc(&report_ffb).map(|d| pretty(&d));
    checks.check(round_trip.as_deref() == Ok(&bytes[..]), || {
        format!("{app_name}: report FFB round trip changed the bytes")
    });

    // The store: every collection artifact put to and read back from a
    // disk cache under the engine's own keys; then the streaming driver
    // runs against the warm store, so only its fold executes.
    let keys = plan_keys(app, &cfg);
    let artifacts = [
        (StageId::Discovery, Artifact::Discovery(discovery)),
        (StageId::Stage1, Artifact::Stage1(s1)),
        (StageId::Stage2, s2_art),
        (StageId::Stage3a, Artifact::Stage3(s3a)),
        (StageId::Stage3b, Artifact::Stage3(s3b)),
        (StageId::Merge3, Artifact::Stage3(s3)),
        (StageId::Stage4, Artifact::Stage4(s4)),
    ];
    let dir = work.path().join("layer-store");
    let cold = ArtifactStore::with_disk(&dir);
    let ((), put_s) = timed(|| {
        for (id, a) in &artifacts {
            cold.put(keys[id.index()], a.clone());
        }
    });
    let warm = ArtifactStore::with_disk(&dir);
    let (hits, get_s) = timed(|| {
        artifacts.iter().filter(|(id, _)| warm.get(keys[id.index()], id.kind()).is_some()).count()
    });
    checks.check(warm.stats().disk_hits == artifacts.len() as u64, || {
        format!("{app_name}: {hits} of {} artifacts read back from disk", artifacts.len())
    });
    let (streamed, stream_s) = timed(|| {
        run_ffm_streaming_with_store(app, &cfg, DEFAULT_STREAM_WINDOW, Some(&warm), |_| {})
    });
    let streamed = streamed.map_err(cuda)?;
    checks.check(pretty(&report_to_json(&streamed)) == bytes, || {
        format!("{app_name}: the streamed report differs from the batch report")
    });
    out.extend([
        ("store.put_disk_ms", put_s * 1e3),
        ("store.get_disk_ms", get_s * 1e3),
        ("pipeline.stream_warm_ms", stream_s * 1e3),
    ]);
    Ok(out)
}
