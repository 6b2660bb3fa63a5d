//! Regression: the streaming pipeline must produce the *same bytes* as
//! the batch pipeline — not merely the same totals. The whole exported
//! document goes through the comparison (problems, groups, sequences,
//! per-stage timings), at multiple worker counts and multiple window
//! sizes, and every epoch it publishes must be the batch analysis of its
//! trace prefix.
//!
//! The window sizes are chosen to cover the degenerate cases: window 1
//! (every call is its own epoch), a mid-size window that leaves a
//! partial final window, and a window larger than the whole trace (a
//! single epoch — the streaming driver degenerating to batch).

use cuda_driver::GpuApp;
use diogenes_apps::{AlsConfig, Amg, AmgConfig, CumfAls};
use ffm_core::{
    analysis_to_json, analyze, report_to_json, run_ffm, run_ffm_streaming,
    run_ffm_streaming_with_store, run_ffm_with_store, ArtifactStore, FfmConfig, Stage2Result,
};

fn batch_report(app: &dyn cuda_driver::GpuApp, jobs: usize) -> String {
    let report = run_ffm(app, &FfmConfig::default().with_jobs(jobs)).expect("batch pipeline runs");
    report_to_json(&report).to_string_pretty()
}

fn streaming_report(app: &dyn cuda_driver::GpuApp, jobs: usize, window: usize) -> String {
    let report = run_ffm_streaming(app, &FfmConfig::default().with_jobs(jobs), window)
        .expect("streaming pipeline runs");
    report_to_json(&report).to_string_pretty()
}

#[test]
fn streaming_report_is_byte_identical_to_batch_across_jobs_and_windows() {
    let app = CumfAls::new(AlsConfig::test_scale());
    for jobs in [1, 4] {
        let want = batch_report(&app, jobs);
        for window in [1, 37, 1 << 20] {
            assert_eq!(
                streaming_report(&app, jobs, window),
                want,
                "streaming report (jobs={jobs}, window={window}) diverges from batch"
            );
        }
    }
}

#[test]
fn streaming_identity_holds_on_a_second_app_shape() {
    // AMG has a different problem mix (misplaced syncs, transfer
    // duplicates) than ALS; pin the identity there too so the suite
    // doesn't overfit to one trace shape.
    let app = Amg::new(AmgConfig::test_scale());
    for jobs in [1, 4] {
        let want = batch_report(&app, jobs);
        for window in [3, 256] {
            assert_eq!(
                streaming_report(&app, jobs, window),
                want,
                "streaming report (jobs={jobs}, window={window}) diverges from batch"
            );
        }
    }
}

/// A streamed run stores what a batch run stores — the collection
/// artifacts and the final analysis under the stage 5 key — and no
/// per-epoch analyses, which nothing looks up.
#[test]
fn streaming_stores_no_more_artifacts_than_batch() {
    let app = CumfAls::new(AlsConfig::test_scale());
    let cfg = FfmConfig::default().with_jobs(1);
    let batch = ArtifactStore::in_memory();
    run_ffm_with_store(&app, &cfg, Some(&batch)).expect("batch pipeline runs");
    for window in [1, 16, 1 << 20] {
        let streamed = ArtifactStore::in_memory();
        run_ffm_streaming_with_store(&app, &cfg, window, Some(&streamed), |_| {})
            .expect("streaming pipeline runs");
        assert_eq!(streamed.stats().puts, batch.stats().puts, "window={window}");
    }
}

/// Every published epoch is the batch analysis of the trace prefix it
/// has consumed: the stage 2 calls `[..calls_consumed]`, ending at the
/// last consumed call's exit, or at the trace's own end for the last
/// epoch. Windows 1 and 7 leave a partial last window on both apps.
#[test]
fn every_epoch_is_the_batch_analysis_of_its_trace_prefix() {
    let als = CumfAls::new(AlsConfig::test_scale());
    let amg = Amg::new(AmgConfig::test_scale());
    let cfg = FfmConfig::default().with_jobs(1);
    for app in [&als as &dyn GpuApp, &amg] {
        for window in [1, 7, 37] {
            let mut epochs = Vec::new();
            let report = run_ffm_streaming_with_store(app, &cfg, window, None, |snap| {
                let doc = analysis_to_json(snap.analysis).to_string_pretty();
                epochs.push((snap.epoch, snap.calls_consumed, doc));
            })
            .expect("streaming pipeline runs");
            let calls = &report.stage2.calls;
            let ctx = format!("{} window={window}", app.name());
            assert_eq!(epochs.len(), calls.len().div_ceil(window).max(1), "{ctx}: epoch count");
            for (k, (epoch, consumed, got)) in epochs.iter().enumerate() {
                assert_eq!(*epoch, k, "{ctx}: epoch ordinal");
                assert_eq!(*consumed, ((k + 1) * window).min(calls.len()), "{ctx}: epoch {k}");
                let exec_time_ns = if k + 1 == epochs.len() {
                    report.stage2.exec_time_ns
                } else {
                    calls[consumed - 1].exit_ns
                };
                let prefix = Stage2Result { exec_time_ns, calls: calls[..*consumed].to_vec() };
                let want = analyze(
                    &report.stage1,
                    &prefix,
                    &report.stage3,
                    &report.stage4,
                    &cfg.analysis,
                    1,
                );
                assert!(
                    analysis_to_json(&want).to_string_pretty() == *got,
                    "{ctx}: epoch {k} is not the batch analysis of its {consumed}-call prefix"
                );
            }
        }
    }
}
