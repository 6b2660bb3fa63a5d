//! Regression: the columnar analysis core (interned symbols, CSR
//! grouping tables, the non-mutating benefit pass) must not change a
//! single byte of any exported artifact. The reports under `results/`
//! were committed before the columnar layout landed; these tests replay
//! the same runs — sequentially and fanned out over threads — and compare
//! the serialized documents against the pinned files.
//!
//! Symbol ids and CSR offsets are in-memory coordinates only: labels
//! are resolved back to strings at serialization time, and group order
//! is first-appearance order exactly as the old `HashMap` + insertion
//! log produced. Any drift here means an id leaked into an artifact.

use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{report_to_json, run_ffm, run_sweep, sweep_to_json, FfmConfig, SweepSpec};

/// Read a pinned artifact from the repository's `results/` directory.
fn pinned(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn report_json(jobs: usize) -> String {
    let app = CumfAls::new(AlsConfig::test_scale());
    let report = run_ffm(&app, &FfmConfig::default().with_jobs(jobs)).expect("pipeline runs");
    report_to_json(&report).to_string_pretty()
}

fn sweep_json(jobs: usize) -> String {
    let app = CumfAls::new(AlsConfig::test_scale());
    // The default CLI grid (`diogenes sweep als`): 3×3 over the cudaFree
    // CPU cost × the unified-memset penalty.
    let spec = SweepSpec::new(FfmConfig::default())
        .axis("cost.free_base_ns", vec![1_000, 2_000, 4_000])
        .axis("driver.unified_memset_penalty", vec![1, 30, 60])
        .with_jobs(jobs);
    let matrix = run_sweep(&app, &spec).expect("sweep runs");
    sweep_to_json(&matrix).to_string_pretty()
}

#[test]
fn report_matches_pinned_artifact_at_every_job_count() {
    let want = pinned("REPORT_cumf_als.json");
    for jobs in [1, 4] {
        assert_eq!(
            report_json(jobs),
            want,
            "columnar report (jobs={jobs}) diverges from results/REPORT_cumf_als.json"
        );
    }
}

#[test]
fn sweep_matrix_matches_pinned_artifact_at_every_job_count() {
    let want = pinned("SWEEP_cumf_als.json");
    for jobs in [1, 4] {
        assert_eq!(
            sweep_json(jobs),
            want,
            "columnar sweep (jobs={jobs}) diverges from results/SWEEP_cumf_als.json"
        );
    }
}
