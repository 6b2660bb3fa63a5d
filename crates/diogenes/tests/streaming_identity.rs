//! Regression: the streaming incremental pipeline must produce the
//! *same bytes* as the batch pipeline — not merely the same totals. The
//! whole exported document goes through the comparison (problems,
//! groups, sequences, per-stage timings), at multiple worker counts and
//! multiple window sizes, so any divergence in fold order, group
//! numbering, or pending-tail resolution shows up as a diff here.
//!
//! The window sizes are chosen to cover the degenerate cases: window 1
//! (every call is its own epoch — maximum snapshot pressure on the
//! incremental state), a mid-size window that leaves a partial final
//! window, and a window larger than the whole trace (a single epoch —
//! the streaming driver degenerating to batch).

use diogenes_apps::{AlsConfig, Amg, AmgConfig, CumfAls};
use ffm_core::{
    report_to_json, run_ffm, run_ffm_streaming, run_ffm_streaming_with_store, run_ffm_with_store,
    ArtifactStore, FfmConfig,
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
