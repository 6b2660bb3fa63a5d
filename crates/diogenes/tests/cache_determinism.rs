//! Regression: stage-artifact memoization must change *speed only* —
//! the sweep document is byte-identical with no cache, a cold cache, a
//! warm in-memory cache, and a warm on-disk cache, at every job count.
//! Any divergence means a stage key under-describes the configuration
//! the stage actually reads (or the artifact codec is lossy).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use cuda_driver::GpuApp;
use diogenes_apps::{AlsConfig, Amg, AmgConfig, CumfAls, Gaussian, GaussianConfig};
use ffm_core::engine::execute;
use ffm_core::{
    deps, encode_artifact, plan_keys, run_stages, run_sweep, run_sweep_with_store, scan_cache,
    sweep_to_json, Artifact, ArtifactStore, FfmConfig, StageId, SweepSpec, CONFIG_FIELDS,
};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "diogenes-cachetest-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn app() -> CumfAls {
    let mut cfg = AlsConfig::test_scale();
    cfg.iters = 3;
    CumfAls::new(cfg)
}

/// A grid where ≥ half the cells share their (cost, driver) config:
/// only the analysis threshold varies along the second axis, so
/// discovery through stage 4 are reusable across each row.
fn spec(jobs: usize) -> SweepSpec {
    SweepSpec::new(FfmConfig::default())
        .axis("cost.free_base_ns", vec![1_000, 4_000])
        .axis("analysis.misplaced_threshold_ns", vec![10_000, 50_000, 100_000])
        .with_jobs(jobs)
}

#[test]
fn sweep_json_is_byte_identical_across_cache_modes_and_jobs() {
    let app = app();
    let reference = {
        let m = run_sweep(&app, &spec(1).no_cache()).expect("uncached sweep");
        sweep_to_json(&m).to_string_pretty()
    };
    for jobs in [1, 2, 4] {
        // No cache.
        let off = run_sweep(&app, &spec(jobs).no_cache()).expect("no-cache sweep");
        assert_eq!(sweep_to_json(&off).to_string_pretty(), reference, "no-cache, jobs={jobs}");
        // Cold + warm shared in-memory store.
        let store = ArtifactStore::in_memory();
        let cold = run_sweep_with_store(&app, &spec(jobs), Some(&store)).expect("cold sweep");
        assert_eq!(sweep_to_json(&cold).to_string_pretty(), reference, "cold, jobs={jobs}");
        let warm = run_sweep_with_store(&app, &spec(jobs), Some(&store)).expect("warm sweep");
        assert_eq!(sweep_to_json(&warm).to_string_pretty(), reference, "warm, jobs={jobs}");
        let stats = warm.cache_stats.expect("store was attached");
        assert!(stats.hits() > 0, "warm run must reuse artifacts, got {stats:?}");
        // Cold + warm on-disk store (exercises the binary codec).
        let dir = temp_dir("disk");
        let disk_cold = run_sweep(&app, &spec(jobs).disk_cache(&dir)).expect("disk cold");
        assert_eq!(
            sweep_to_json(&disk_cold).to_string_pretty(),
            reference,
            "disk cold, jobs={jobs}"
        );
        let disk_warm = run_sweep(&app, &spec(jobs).disk_cache(&dir)).expect("disk warm");
        assert_eq!(
            sweep_to_json(&disk_warm).to_string_pretty(),
            reference,
            "disk warm, jobs={jobs}"
        );
        let stats = disk_warm.cache_stats.expect("store was attached");
        assert!(stats.disk_hits > 0, "disk-warm run must hit the disk layer, got {stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_in_memory_run_recomputes_only_unshareable_stages() {
    let app = app();
    let store = ArtifactStore::in_memory();
    run_sweep_with_store(&app, &spec(1), Some(&store)).expect("cold");
    let before = store.stats();
    run_sweep_with_store(&app, &spec(1), Some(&store)).expect("warm");
    let after = store.stats();
    // Second sweep: every one of 6 cells × 8 stages should hit.
    assert_eq!(after.hits() - before.hits(), 6 * 8, "warm stats: {after:?}");
    assert_eq!(after.misses, before.misses, "warm run must not miss: {after:?}");
}

#[test]
fn within_sweep_sharing_reuses_upstream_stages() {
    let app = app();
    let store = ArtifactStore::in_memory();
    run_sweep_with_store(&app, &spec(1), Some(&store)).expect("sweep");
    let stats = store.stats();
    // 2 distinct (cost, driver) configs across 6 cells: rows 2 and 3 of
    // each column reuse discovery..stage4 (7 artifacts) from row 1.
    // Sequentially there is no duplicate-compute race, so the count is
    // exact: 6 cells × 8 stages = 48 lookups, 2×2×7 = 28 hits.
    assert_eq!(stats.hits(), 28, "stats: {stats:?}");
    assert_eq!(stats.misses, 20, "stats: {stats:?}");
}

#[test]
fn disk_entries_are_versioned_and_clearable() {
    let app = app();
    let dir = temp_dir("versioned");
    run_sweep(&app, &spec(1).disk_cache(&dir)).expect("sweep");
    let report = scan_cache(&dir).expect("scan");
    assert!(report.entries > 0);
    assert_eq!(report.stale_entries, 0, "fresh entries must read as current");

    // Corrupt one entry's header: it must scan as stale, and clearing
    // stale entries must remove exactly it.
    let victim = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("art"))
        .expect("at least one cache entry");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[8] ^= 0xFF; // flip a schema-version byte
    std::fs::write(&victim, bytes).unwrap();
    let report2 = scan_cache(&dir).expect("scan");
    assert_eq!(report2.stale_entries, 1);
    let removed = ffm_core::clear_cache(&dir, true).expect("clear stale");
    assert_eq!(removed.entries, 1);
    assert_eq!(scan_cache(&dir).unwrap().stale_entries, 0);
    assert_eq!(scan_cache(&dir).unwrap().entries, report.entries - 1);

    let removed_all = ffm_core::clear_cache(&dir, false).expect("clear all");
    assert_eq!(removed_all.entries, report.entries - 1);
    assert_eq!(scan_cache(&dir).unwrap().entries, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The proof behind every exclusion in the config-field table: each
/// collection stage, re-run on the unperturbed dep artifacts with one
/// field it does not declare perturbed (flags flipped, integers doubled
/// plus one), writes the same artifact bytes. The analysis fields are
/// skipped, because stages 1–4 never receive `AnalysisConfig`. AMG and
/// Gaussian between them have transfers, device-to-host watches and
/// unified memory.
#[test]
fn undeclared_fields_leave_every_collection_artifact_unchanged() {
    let amg = Amg::new(AmgConfig::test_scale());
    let gaussian = Gaussian::new(GaussianConfig::test_scale());
    let base = FfmConfig::default().with_jobs(1);
    let mut pairs = 0;
    for app in [&amg as &dyn GpuApp, &gaussian] {
        let store = ArtifactStore::in_memory();
        run_stages(app, &base, 1, Some(&store)).expect("the plan runs");
        let keys = plan_keys(app, &base);
        let artifact = |id: StageId| store.get(keys[id.index()], id.kind()).expect("collected");
        // Every stage that runs a simulation; the merge and the analysis
        // run none.
        for id in [
            StageId::Discovery,
            StageId::Stage1,
            StageId::Stage2,
            StageId::Stage3a,
            StageId::Stage3b,
            StageId::Stage4,
        ] {
            let dep_artifacts: Vec<Artifact> = deps(id).iter().map(|&d| artifact(d)).collect();
            let want = encode_artifact(&artifact(id));
            for field in CONFIG_FIELDS {
                if field.readers.contains(&id) || field.path.starts_with("analysis.") {
                    continue;
                }
                let mut cfg = base.clone();
                let value = field.get(&cfg);
                field.set(&mut cfg, if field.flag { value ^ 1 } else { 2 * value + 1 }).unwrap();
                let got = execute(id, app, &cfg, &dep_artifacts).expect("stage runs");
                assert!(
                    encode_artifact(&got) == want,
                    "{}: {} changed {}'s artifact, so the stage reads it",
                    app.name(),
                    field.path,
                    id.name()
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 42, "(stage, undeclared field) pairs across both apps");
}
