//! Regression: a document encoded as FFB (`encode_doc`, what serve sends
//! for an FFB `Accept`) and decoded back (`decode_any_doc`) must render
//! byte-identically to the JSON file the CLI writes — at every job
//! count. JSON stays the canonical rendering; FFB must preserve every bit
//! of content needed to reproduce it.

use diogenes::{run_diogenes, write_json_doc, DiogenesConfig};
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{
    decode_any_doc, encode_doc, report_to_json, run_sweep, sweep_to_json, FfmConfig, Json,
    SweepSpec,
};

fn app() -> CumfAls {
    let mut cfg = AlsConfig::test_scale();
    cfg.iters = 3;
    CumfAls::new(cfg)
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("diogenes-fmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The JSON file the CLI writes for `doc`, and the pretty rendering of
/// the same document after an FFB encode/decode round trip.
fn written_and_round_tripped(dir: &std::path::Path, name: &str, doc: &Json) -> (Vec<u8>, Vec<u8>) {
    let path = dir.join(name);
    write_json_doc(path.to_str().unwrap(), doc).unwrap();
    let mut back = Vec::new();
    decode_any_doc(&encode_doc(doc)).expect("document decodes").write_pretty(&mut back).unwrap();
    (std::fs::read(&path).unwrap(), back)
}

#[test]
fn report_bin_to_json_round_trip_is_byte_identical_at_every_job_count() {
    let dir = tmp_dir("report");
    let mut renders = Vec::new();
    for jobs in [1, 4] {
        let result =
            run_diogenes(&app(), DiogenesConfig::new().with_jobs(jobs)).expect("pipeline runs");
        let doc = report_to_json(&result.report);
        let (direct, decoded) =
            written_and_round_tripped(&dir, &format!("report-{jobs}.json"), &doc);
        assert_eq!(direct, decoded, "jobs={jobs}: FFB round trip diverged from the JSON file");
        renders.push(direct);
    }
    assert_eq!(renders[0], renders[1], "report must not depend on the job count");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_bin_artifact_converts_back_to_the_json_artifact() {
    let dir = tmp_dir("sweep");
    let spec = SweepSpec::new(FfmConfig::default())
        .axis("cost.free_base_ns", vec![1_000, 4_000])
        .with_jobs(1);
    let matrix = run_sweep(&app(), &spec).expect("sweep runs");
    // The bytes serve sends for an FFB `GET /sweep/<id>`.
    let (direct, decoded) = written_and_round_tripped(&dir, "sweep.json", &sweep_to_json(&matrix));
    assert_eq!(direct, decoded, "sweep FFB round trip diverged from the JSON artifact");
    let _ = std::fs::remove_dir_all(&dir);
}
