//! Acceptance probe: `jobs = 1` must not spawn a single worker thread
//! anywhere in the pipeline — not in the stage DAG, not in the sweep
//! fleet, not in sequence scoring — and a parallel run must leave no
//! worker thread behind once it returns. This test lives alone in its
//! own integration-test binary so no sibling test can spawn threads into
//! the process and muddy the count.

use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{run_ffm, run_sweep, FfmConfig, SweepSpec};

/// Number of OS threads in this process (Linux: /proc/self/task).
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map(|d| d.count()).unwrap_or(0)
}

/// Names of every thread in this process.
fn thread_names() -> Vec<String> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let comm = std::fs::read_to_string(e.path().join("comm")).ok()?;
        Some(comm.trim().to_string())
    })
    .collect()
}

#[test]
fn jobs_1_spawns_no_worker_threads() {
    if !std::path::Path::new("/proc/self/task").exists() {
        eprintln!("skipping: /proc is unavailable on this platform");
        return;
    }
    let before = thread_count();

    let mut cfg = AlsConfig::test_scale();
    cfg.iters = 3;
    let app = CumfAls::new(cfg);

    // Full pipeline (stage DAG + analysis incl. sequence scoring).
    run_ffm(&app, &FfmConfig::default().with_jobs(1)).expect("pipeline runs");

    // Whole sweep fleet on top of it.
    let spec = SweepSpec::new(FfmConfig::default())
        .axis("cost.free_base_ns", vec![1_000, 2_000, 4_000])
        .axis("driver.unified_memset_penalty", vec![1, 30, 60])
        .with_jobs(1);
    let matrix = run_sweep(&app, &spec).expect("sweep runs");
    assert_eq!(matrix.cells.len(), 9);

    let after = thread_count();
    assert_eq!(
        after,
        before,
        "jobs=1 changed the process thread count ({before} -> {after}); threads: {:?}",
        thread_names()
    );
    let pool_threads: Vec<String> =
        thread_names().into_iter().filter(|n| n.starts_with("ffm-pool")).collect();
    assert!(pool_threads.is_empty(), "pool workers exist under jobs=1: {pool_threads:?}");

    // Parallel runs join their helpers before returning. The kernel can
    // list an exiting thread briefly after its join, so poll a little.
    run_ffm(&app, &FfmConfig::default().with_jobs(4)).expect("parallel pipeline runs");
    let matrix = run_sweep(&app, &spec.with_jobs(2)).expect("parallel sweep runs");
    assert_eq!(matrix.cells.len(), 9);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    while thread_count() != before && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(thread_count(), before, "parallel runs left threads behind: {:?}", thread_names());
}
