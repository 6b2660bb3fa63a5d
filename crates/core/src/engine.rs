//! The stage engine: the FFM pipeline as an explicit DAG of keyed stages.
//!
//! Each pipeline step — discovery, stages 1–4 (with stage 3 split into
//! its sync and hash runs plus a merge), and the stage 5 analysis — is a
//! [`StageId`] with a declared dependency list ([`deps`]) and a declared
//! set of config fields it reads ([`declared_fields`]). A stage's output
//! is an [`Artifact`] content-addressed by [`stage_key`]:
//!
//! ```text
//! key(stage) = H(stage name, SCHEMA_VERSION,
//!               app.input_digest()      [stages that run the app],
//!               declared config fields  [read via sweep::get_field],
//!               key(dep) for each dependency)
//! ```
//!
//! Keying rules worth calling out:
//!
//! - **`jobs` is never keyed.** Reports are bit-identical across worker
//!   counts (pinned by the determinism suite), so parallelism must not
//!   fragment the cache.
//! - **Discovery keys on cost only.** `identify_sync_function` probes a
//!   throwaway context built from the [`gpu_sim::CostModel`] alone — it
//!   never sees the app or the [`cuda_driver::DriverConfig`] — so
//!   discovery is shared across apps and driver configs.
//! - **Exclusion must be proven.** A stage's field set only omits a
//!   config field when the stage provably cannot read it (e.g. the hash
//!   cost fields are charged exclusively in the stage 3 hashing run).
//!   When in doubt a field is included: over-keying costs a cache miss,
//!   under-keying corrupts reports.
//! - **Dep keys propagate invalidation.** Changing a field re-keys the
//!   stages that read it *and* everything downstream of them.
//!
//! [`run_stages`] runs ready stages on [`crate::par`] fan-out lanes (at
//! most [`MAX_STAGE_WIDTH`] concurrent — the DAG is never wider) and
//! consults an optional [`ArtifactStore`] before executing each stage,
//! recording per-stage hit/miss counters in telemetry. With `jobs <= 1`,
//! or inside a running fan-out such as a sweep cell, everything runs
//! inline on the caller's thread in the classic sequential order.

use std::sync::{Arc, Condvar, Mutex};

use cuda_driver::{CudaResult, GpuApp};
use instrument::identify_sync_function;

use crate::analysis::Analysis;
use crate::par::par_map;
use crate::pipeline::FfmConfig;
use crate::records::{Stage1Result, Stage2Result, Stage3Result, Stage4Result};
use crate::stages::{
    merge_stage3, run_stage1, run_stage2, run_stage3_hash, run_stage3_sync, run_stage4,
};
use crate::store::{Artifact, ArtifactKind, ArtifactStore, KeyHasher, StageKey};
use crate::sweep::get_field;
use crate::telemetry;
use instrument::Discovery;

/// The stages of the pipeline, in classic sequential order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageId {
    Discovery,
    Stage1,
    Stage2,
    Stage3a,
    Stage3b,
    Merge3,
    Stage4,
    Stage5,
}

pub const STAGE_COUNT: usize = 8;

/// Widest the DAG ever gets (discovery ∥ stage1, then stage2 ∥ 3a ∥ 3b
/// with stage4 chasing 3a); more workers than this would only idle.
pub const MAX_STAGE_WIDTH: usize = 4;

impl StageId {
    /// All stages, in classic sequential order — which is also a
    /// topological order (every stage appears after its dependencies),
    /// and the order used to pick which error to report when several
    /// stages fail.
    pub const ALL: [StageId; STAGE_COUNT] = [
        StageId::Discovery,
        StageId::Stage1,
        StageId::Stage2,
        StageId::Stage3a,
        StageId::Stage3b,
        StageId::Merge3,
        StageId::Stage4,
        StageId::Stage5,
    ];

    pub fn index(self) -> usize {
        StageId::ALL.iter().position(|&s| s == self).expect("ALL is exhaustive")
    }

    /// Stable name, used both as the telemetry span label and as the
    /// domain separator in the stage key.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Discovery => "discovery",
            StageId::Stage1 => "stage1-baseline",
            StageId::Stage2 => "stage2-detailed-tracing",
            StageId::Stage3a => "stage3a-memory-tracing",
            StageId::Stage3b => "stage3b-data-hashing",
            StageId::Merge3 => "stage3-merge",
            StageId::Stage4 => "stage4-sync-use",
            StageId::Stage5 => "stage5-analysis",
        }
    }

    /// Whether this stage executes the application (and therefore keys
    /// on the app's input digest). Discovery probes a throwaway context;
    /// the merge and the analysis are pure functions of their inputs.
    pub fn runs_app(self) -> bool {
        matches!(
            self,
            StageId::Stage1
                | StageId::Stage2
                | StageId::Stage3a
                | StageId::Stage3b
                | StageId::Stage4
        )
    }

    /// The artifact kind this stage produces.
    pub fn kind(self) -> ArtifactKind {
        match self {
            StageId::Discovery => ArtifactKind::Discovery,
            StageId::Stage1 => ArtifactKind::Stage1,
            StageId::Stage2 => ArtifactKind::Stage2,
            StageId::Stage3a | StageId::Stage3b | StageId::Merge3 => ArtifactKind::Stage3,
            StageId::Stage4 => ArtifactKind::Stage4,
            StageId::Stage5 => ArtifactKind::Analysis,
        }
    }
}

/// Input edges of the DAG (see the module docs of [`crate::pipeline`]
/// for the picture). Order matters: [`stage_key`] folds dep keys in this
/// order, and [`execute`] receives dep artifacts in this order.
pub fn deps(id: StageId) -> &'static [StageId] {
    match id {
        StageId::Discovery | StageId::Stage1 => &[],
        StageId::Stage2 | StageId::Stage3a | StageId::Stage3b => &[StageId::Stage1],
        StageId::Merge3 => &[StageId::Stage3a, StageId::Stage3b],
        StageId::Stage4 => &[StageId::Stage1, StageId::Stage3a],
        StageId::Stage5 => &[StageId::Stage1, StageId::Stage2, StageId::Merge3, StageId::Stage4],
    }
}

/// Cost-model fields every simulated run reads (everything except the
/// hash and load/store instrumentation costs, which only specific runs
/// charge).
const COST_COMMON: &[&str] = &[
    "cost.driver_call_ns",
    "cost.kernel_launch_ns",
    "cost.transfer_setup_ns",
    "cost.pageable_bw_bytes_per_us",
    "cost.pinned_bw_bytes_per_us",
    "cost.dtod_bw_bytes_per_us",
    "cost.transfer_latency_ns",
    "cost.sync_entry_ns",
    "cost.alloc_base_ns",
    "cost.alloc_per_mib_ns",
    "cost.free_base_ns",
    "cost.memset_bw_bytes_per_us",
    "cost.memset_base_ns",
    "cost.query_call_ns",
    "cost.probe_overhead_ns",
    "cost.stackwalk_frame_ns",
    "cost.jitter_ppm",
];

/// Driver-config fields; every run that executes the app under the
/// simulated driver reads all of them.
const DRIVER_ALL: &[&str] = &[
    "driver.free_implicit_sync",
    "driver.memcpy_implicit_sync",
    "driver.async_dtoh_pageable_sync",
    "driver.memset_unified_sync",
    "driver.unified_memset_penalty",
    "driver.device_memory_bytes",
    "driver.private_api_discount",
];

/// The config fields each stage reads — its declared input set. These
/// lists are the product of auditing the stage implementations
/// (`stages.rs`, `instrument::discovery`, `analysis::analyze`):
///
/// - Discovery builds `Cuda::new(cost)` with the *default* driver config
///   and never runs the app → cost only, no driver, no app digest.
/// - Stages 1–4 all run the app under the configured driver → common
///   cost + all driver fields.
/// - `cost.loadstore_overhead_ns` is charged only where a
///   `LoadStoreWatcher` is installed: the stage 3 memory-tracing run and
///   the stage 4 first-use run.
/// - `cost.hash_bw_bytes_per_us` / `cost.hash_base_ns` are charged only
///   in the stage 3 hashing run (`CostModel::hash_ns` has no other
///   caller in the pipeline).
/// - The merge is a pure union of its two inputs → keyed on dep keys
///   alone.
/// - The analysis reads only the two analysis knobs; everything else it
///   consumes arrives through its dep artifacts.
pub fn declared_fields(id: StageId) -> Vec<&'static str> {
    let mut fields: Vec<&'static str> = Vec::new();
    match id {
        StageId::Discovery => fields.extend(COST_COMMON),
        StageId::Stage1 | StageId::Stage2 => {
            fields.extend(COST_COMMON);
            fields.extend(DRIVER_ALL);
        }
        StageId::Stage3a | StageId::Stage4 => {
            fields.extend(COST_COMMON);
            fields.push("cost.loadstore_overhead_ns");
            fields.extend(DRIVER_ALL);
        }
        StageId::Stage3b => {
            fields.extend(COST_COMMON);
            fields.push("cost.hash_bw_bytes_per_us");
            fields.push("cost.hash_base_ns");
            fields.extend(DRIVER_ALL);
        }
        StageId::Merge3 => {}
        StageId::Stage5 => {
            fields.push("analysis.misplaced_threshold_ns");
            fields.push("analysis.clamp_misplaced");
        }
    }
    fields
}

/// Content-address of one stage's output. See the module docs for the
/// recipe. `cfg.jobs` is deliberately not an input.
pub fn stage_key(
    id: StageId,
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    dep_keys: &[StageKey],
) -> StageKey {
    debug_assert_eq!(dep_keys.len(), deps(id).len());
    let mut h = KeyHasher::new(id.name());
    if id.runs_app() {
        h.push_u64(app.input_digest());
    }
    for field in declared_fields(id) {
        h.push_str(field);
        h.push_u64(get_field(cfg, field).expect("declared fields are sweepable"));
    }
    for &k in dep_keys {
        h.push_key(k);
    }
    h.finish()
}

/// Keys for the whole plan, indexed by [`StageId::index`], without
/// executing anything. Used by the engine at claim time and by the
/// key-audit tests.
pub fn plan_keys(app: &dyn GpuApp, cfg: &FfmConfig) -> [StageKey; STAGE_COUNT] {
    let mut keys = [StageKey(0); STAGE_COUNT];
    for id in StageId::ALL {
        let dep_keys: Vec<StageKey> = deps(id).iter().map(|d| keys[d.index()]).collect();
        keys[id.index()] = stage_key(id, app, cfg, &dep_keys);
    }
    keys
}

/// Everything the engine produces: one artifact per stage, `Arc`-shared
/// with the store so a cache hit costs no deep clone.
pub struct EngineOut {
    pub discovery: Arc<Discovery>,
    pub stage1: Arc<Stage1Result>,
    pub stage2: Arc<Stage2Result>,
    pub stage3: Arc<Stage3Result>,
    pub stage4: Arc<Stage4Result>,
    pub analysis: Arc<Analysis>,
}

fn hit_counter(id: StageId) -> &'static str {
    match id {
        StageId::Discovery => "cache.discovery.hits",
        StageId::Stage1 => "cache.stage1.hits",
        StageId::Stage2 => "cache.stage2.hits",
        StageId::Stage3a => "cache.stage3a.hits",
        StageId::Stage3b => "cache.stage3b.hits",
        StageId::Merge3 => "cache.merge3.hits",
        StageId::Stage4 => "cache.stage4.hits",
        StageId::Stage5 => "cache.stage5.hits",
    }
}

fn miss_counter(id: StageId) -> &'static str {
    match id {
        StageId::Discovery => "cache.discovery.misses",
        StageId::Stage1 => "cache.stage1.misses",
        StageId::Stage2 => "cache.stage2.misses",
        StageId::Stage3a => "cache.stage3a.misses",
        StageId::Stage3b => "cache.stage3b.misses",
        StageId::Merge3 => "cache.merge3.misses",
        StageId::Stage4 => "cache.stage4.misses",
        StageId::Stage5 => "cache.stage5.misses",
    }
}

fn as_stage1(a: &Artifact) -> &Stage1Result {
    match a {
        Artifact::Stage1(s) => s,
        _ => unreachable!("dep order gives stage1 here"),
    }
}

fn as_stage3(a: &Artifact) -> &Stage3Result {
    match a {
        Artifact::Stage3(s) => s,
        _ => unreachable!("dep order gives stage3 here"),
    }
}

/// Per-stage execution-latency histogram, the source of the
/// `diogenes_stage_latency_ns{stage=…}` summaries on `/metrics`.
fn latency_hist(id: StageId) -> &'static str {
    match id {
        StageId::Discovery => "stage.discovery.exec_ns",
        StageId::Stage1 => "stage.stage1.exec_ns",
        StageId::Stage2 => "stage.stage2.exec_ns",
        StageId::Stage3a => "stage.stage3a.exec_ns",
        StageId::Stage3b => "stage.stage3b.exec_ns",
        StageId::Merge3 => "stage.merge3.exec_ns",
        StageId::Stage4 => "stage.stage4.exec_ns",
        StageId::Stage5 => "stage.stage5.exec_ns",
    }
}

/// Execute one stage for real (cache already missed). `dep_artifacts`
/// come in [`deps`] order. Opens the stage's telemetry span, so spans
/// appear exactly when work happens — a cache hit leaves no span.
fn execute(
    id: StageId,
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    dep_artifacts: &[Artifact],
) -> CudaResult<Artifact> {
    let _s = telemetry::span(id.name());
    let t0 = telemetry::collecting().then(std::time::Instant::now);
    let artifact = match id {
        StageId::Discovery => {
            Artifact::Discovery(Arc::new(identify_sync_function(cfg.cost.clone())?))
        }
        StageId::Stage1 => Artifact::Stage1(Arc::new(run_stage1(app, &cfg.cost, &cfg.driver)?)),
        StageId::Stage2 => {
            let s1 = as_stage1(&dep_artifacts[0]);
            Artifact::Stage2(Arc::new(run_stage2(app, &cfg.cost, &cfg.driver, s1)?))
        }
        StageId::Stage3a => {
            let s1 = as_stage1(&dep_artifacts[0]);
            Artifact::Stage3(Arc::new(run_stage3_sync(app, &cfg.cost, &cfg.driver, s1)?))
        }
        StageId::Stage3b => {
            let s1 = as_stage1(&dep_artifacts[0]);
            Artifact::Stage3(Arc::new(run_stage3_hash(app, &cfg.cost, &cfg.driver, s1)?))
        }
        StageId::Merge3 => {
            let sync = as_stage3(&dep_artifacts[0]).clone();
            let hash = as_stage3(&dep_artifacts[1]).clone();
            Artifact::Stage3(Arc::new(merge_stage3(sync, hash)))
        }
        StageId::Stage4 => {
            let s1 = as_stage1(&dep_artifacts[0]);
            let s3a = as_stage3(&dep_artifacts[1]);
            Artifact::Stage4(Arc::new(run_stage4(app, &cfg.cost, &cfg.driver, s1, s3a)?))
        }
        StageId::Stage5 => {
            let s1 = as_stage1(&dep_artifacts[0]);
            let s2 = match &dep_artifacts[1] {
                Artifact::Stage2(s) => s,
                _ => unreachable!("dep order gives stage2 here"),
            };
            let s3 = as_stage3(&dep_artifacts[2]);
            let s4 = match &dep_artifacts[3] {
                Artifact::Stage4(s) => s,
                _ => unreachable!("dep order gives stage4 here"),
            };
            Artifact::Analysis(Arc::new(crate::analysis::analyze(
                s1,
                s2,
                s3,
                s4,
                &cfg.analysis,
                jobs,
            )))
        }
    };
    if let Some(t0) = t0 {
        telemetry::record(latency_hist(id), t0.elapsed().as_nanos() as u64);
    }
    Ok(artifact)
}

/// Consult the store, execute on a miss and `put` the result, record
/// telemetry counters. Workers that miss the same key at once (threads
/// or processes sharing a disk cache) each compute it; the store's atomic rename makes
/// the last write win, and every write carries the same bytes.
fn obtain(
    id: StageId,
    key: StageKey,
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    store: Option<&ArtifactStore>,
    dep_artifacts: &[Artifact],
) -> CudaResult<Artifact> {
    if let Some(store) = store {
        if let Some(artifact) = store.get(key, id.kind()) {
            telemetry::counter_add(hit_counter(id), 1);
            return Ok(artifact);
        }
        telemetry::counter_add(miss_counter(id), 1);
    }
    let artifact = execute(id, app, cfg, jobs, dep_artifacts)?;
    if let Some(store) = store {
        store.put(key, artifact.clone());
    }
    Ok(artifact)
}

/// Shared scheduler state: one slot per stage.
struct SchedState {
    results: Vec<Option<CudaResult<Artifact>>>,
    claimed: [bool; STAGE_COUNT],
    /// Transitively dead: a dependency failed or was itself skipped.
    skipped: [bool; STAGE_COUNT],
    /// Stages not yet finished (completed, failed, or skipped).
    remaining: usize,
}

impl SchedState {
    /// Propagate failure: any unclaimed stage with a failed or skipped
    /// dependency can never run. Returns whether anything changed.
    fn propagate_skips(&mut self) {
        loop {
            let mut changed = false;
            for id in StageId::ALL {
                let i = id.index();
                if self.claimed[i] || self.skipped[i] {
                    continue;
                }
                let dead = deps(id).iter().any(|d| {
                    let j = d.index();
                    self.skipped[j] || matches!(self.results[j], Some(Err(_)))
                });
                if dead {
                    self.skipped[i] = true;
                    self.remaining -= 1;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// First stage in classic order that is unclaimed, not skipped, and
    /// has all dependencies completed successfully.
    fn next_ready(&self) -> Option<StageId> {
        StageId::ALL.into_iter().find(|&id| {
            let i = id.index();
            !self.claimed[i]
                && !self.skipped[i]
                && deps(id).iter().all(|d| matches!(self.results[d.index()], Some(Ok(_))))
        })
    }
}

/// Execute the DAG and return one artifact slot per stage (`None` for
/// stages excluded from this run). `jobs <= 1` runs inline on the
/// caller's thread in classic order; otherwise up to
/// `min(jobs, MAX_STAGE_WIDTH)` [`par_map`] lanes drain ready stages (a
/// nested fan-out runs its lanes one after another on one thread, and
/// the first lane then drains every stage in classic order). Error
/// semantics match the classic sequential path: when several
/// independent stages fail, the error of the earliest stage in classic
/// order is returned.
///
/// `include_stage5` is the streaming split: the collection-only run
/// ([`run_collection`]) pre-skips the analysis stage, and the streaming
/// driver folds the trace incrementally instead.
fn run_dag(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    store: Option<&ArtifactStore>,
    include_stage5: bool,
) -> CudaResult<Vec<Option<Artifact>>> {
    let keys = plan_keys(app, cfg);
    let width = jobs.clamp(1, MAX_STAGE_WIDTH);

    let mut skipped = [false; STAGE_COUNT];
    let mut remaining = STAGE_COUNT;
    if !include_stage5 {
        skipped[StageId::Stage5.index()] = true;
        remaining -= 1;
    }
    let state = Mutex::new(SchedState {
        results: (0..STAGE_COUNT).map(|_| None).collect(),
        claimed: [false; STAGE_COUNT],
        skipped,
        remaining,
    });
    let ready_cv = Condvar::new();

    let worker = |_lane: usize| {
        loop {
            let mut st = state.lock().unwrap();
            st.propagate_skips();
            if st.remaining == 0 {
                drop(st);
                ready_cv.notify_all();
                return;
            }
            let Some(id) = st.next_ready() else {
                // Nothing ready, but unfinished stages remain — their
                // dependencies are in flight on other workers (a solo
                // worker never gets here: its own claims complete before
                // it scans again). Wait for a completion.
                let _unused = ready_cv.wait(st).unwrap();
                continue;
            };
            let i = id.index();
            st.claimed[i] = true;
            // Snapshot dep artifacts (Arc clones) while holding the lock.
            let dep_artifacts: Vec<Artifact> = deps(id)
                .iter()
                .map(|d| match &st.results[d.index()] {
                    Some(Ok(a)) => a.clone(),
                    _ => unreachable!("next_ready checked deps"),
                })
                .collect();
            drop(st);

            let result = obtain(id, keys[i], app, cfg, jobs, store, &dep_artifacts);

            let mut st = state.lock().unwrap();
            st.results[i] = Some(result);
            st.remaining -= 1;
            drop(st);
            ready_cv.notify_all();
        }
    };

    if width <= 1 {
        worker(0);
    } else {
        par_map((0..width).collect(), width, worker);
    }

    let mut st = state.into_inner().unwrap();
    // Report the earliest failure in classic order, like the old
    // sequential path did.
    for id in StageId::ALL {
        if let Some(Err(_)) = &st.results[id.index()] {
            match st.results[id.index()].take() {
                Some(Err(e)) => return Err(e),
                _ => unreachable!(),
            }
        }
    }
    Ok(st
        .results
        .into_iter()
        .map(|slot| slot.map(|r| r.expect("failures returned above")))
        .collect())
}

/// Run the whole DAG, analysis included.
pub fn run_stages(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    store: Option<&ArtifactStore>,
) -> CudaResult<EngineOut> {
    let mut results = run_dag(app, cfg, jobs, store, true)?;
    let mut take =
        |id: StageId| -> Artifact { results[id.index()].take().expect("included stages all ran") };
    let discovery = match take(StageId::Discovery) {
        Artifact::Discovery(d) => d,
        _ => unreachable!(),
    };
    let stage1 = match take(StageId::Stage1) {
        Artifact::Stage1(s) => s,
        _ => unreachable!(),
    };
    let stage2 = match take(StageId::Stage2) {
        Artifact::Stage2(s) => s,
        _ => unreachable!(),
    };
    let stage3 = match take(StageId::Merge3) {
        Artifact::Stage3(s) => s,
        _ => unreachable!(),
    };
    let stage4 = match take(StageId::Stage4) {
        Artifact::Stage4(s) => s,
        _ => unreachable!(),
    };
    let analysis = match take(StageId::Stage5) {
        Artifact::Analysis(a) => a,
        _ => unreachable!(),
    };
    Ok(EngineOut { discovery, stage1, stage2, stage3, stage4, analysis })
}

/// Everything the collection stages produce — the DAG minus stage 5.
/// `stage5_key` is the content address the batch analysis would be (and
/// the final streaming analysis is) stored under, so a streaming run
/// seeds the cache for later batch runs of the same plan.
pub struct CollectOut {
    pub discovery: Arc<Discovery>,
    pub stage1: Arc<Stage1Result>,
    pub stage2: Arc<Stage2Result>,
    pub stage3: Arc<Stage3Result>,
    pub stage4: Arc<Stage4Result>,
    pub stage5_key: StageKey,
}

/// Run the collection stages only (discovery, 1–4 with the stage 3
/// merge), leaving the analysis to the caller — the entry point for the
/// streaming pipeline, which folds the trace window by window instead of
/// analyzing it in one shot.
pub fn run_collection(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    store: Option<&ArtifactStore>,
) -> CudaResult<CollectOut> {
    let stage5_key = plan_keys(app, cfg)[StageId::Stage5.index()];
    let mut results = run_dag(app, cfg, jobs, store, false)?;
    let mut take = |id: StageId| -> Artifact {
        results[id.index()].take().expect("collection stages all ran")
    };
    let discovery = match take(StageId::Discovery) {
        Artifact::Discovery(d) => d,
        _ => unreachable!(),
    };
    let stage1 = match take(StageId::Stage1) {
        Artifact::Stage1(s) => s,
        _ => unreachable!(),
    };
    let stage2 = match take(StageId::Stage2) {
        Artifact::Stage2(s) => s,
        _ => unreachable!(),
    };
    let stage3 = match take(StageId::Merge3) {
        Artifact::Stage3(s) => s,
        _ => unreachable!(),
    };
    let stage4 = match take(StageId::Stage4) {
        Artifact::Stage4(s) => s,
        _ => unreachable!(),
    };
    Ok(CollectOut { discovery, stage1, stage2, stage3, stage4, stage5_key })
}

/// Content address of one per-window analysis epoch: the stage 5 key
/// (which already folds in the app digest, analysis knobs and every
/// upstream dep key) extended with the window size and epoch ordinal.
/// Distinct windowings address distinct epoch chains; the final analysis
/// itself lives at the plain stage 5 key, since it is byte-identical to
/// the batch artifact regardless of windowing.
pub fn epoch_key(stage5: StageKey, window: usize, epoch: usize) -> StageKey {
    let mut h = KeyHasher::new("stage5-epoch");
    h.push_key(stage5);
    h.push_u64(window as u64);
    h.push_u64(epoch as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{set_field, SWEEPABLE_FIELDS};
    use crate::FfmConfig;
    use cuda_driver::Cuda;
    use std::collections::HashSet;

    struct Tiny;
    impl GpuApp for Tiny {
        fn name(&self) -> &'static str {
            "tiny"
        }
        fn run(&self, _cuda: &mut Cuda) -> CudaResult<()> {
            Ok(())
        }
    }

    struct Tiny2;
    impl GpuApp for Tiny2 {
        fn name(&self) -> &'static str {
            "tiny2"
        }
        fn run(&self, _cuda: &mut Cuda) -> CudaResult<()> {
            Ok(())
        }
    }

    fn changed_stages(field: &str) -> Vec<StageId> {
        let base = FfmConfig::default();
        let mut perturbed = base.clone();
        // Flip the field away from its default; +1 works for integers,
        // and for booleans the XOR keeps the value in {0, 1}.
        let current = get_field(&base, field).unwrap();
        let next = if field.ends_with("_sync")
            || field.ends_with("discount")
            || field.ends_with("clamp_misplaced")
        {
            current ^ 1
        } else {
            current + 1
        };
        set_field(&mut perturbed, field, next).unwrap();
        let a = plan_keys(&Tiny, &base);
        let b = plan_keys(&Tiny, &perturbed);
        StageId::ALL.into_iter().filter(|id| a[id.index()] != b[id.index()]).collect()
    }

    #[test]
    fn every_sweepable_field_rekeys_at_least_one_stage() {
        for field in SWEEPABLE_FIELDS {
            assert!(
                !changed_stages(field).is_empty(),
                "{field} is sweepable but keyed by no stage — a latent cache-incorrectness bug"
            );
        }
    }

    #[test]
    fn hash_cost_fields_rekey_only_the_hashing_chain() {
        // These are the fields the memoization win rests on: perturbing
        // the hash cost must leave discovery/stage1/stage2/stage3a/stage4
        // keys alone so their artifacts are reused.
        for field in ["cost.hash_bw_bytes_per_us", "cost.hash_base_ns"] {
            let changed = changed_stages(field);
            assert_eq!(
                changed,
                vec![StageId::Stage3b, StageId::Merge3, StageId::Stage5],
                "{field}"
            );
        }
    }

    #[test]
    fn loadstore_field_rekeys_only_the_watcher_stages() {
        let changed = changed_stages("cost.loadstore_overhead_ns");
        assert_eq!(
            changed,
            vec![StageId::Stage3a, StageId::Merge3, StageId::Stage4, StageId::Stage5]
        );
    }

    #[test]
    fn analysis_fields_rekey_only_stage5() {
        for field in ["analysis.misplaced_threshold_ns", "analysis.clamp_misplaced"] {
            assert_eq!(changed_stages(field), vec![StageId::Stage5], "{field}");
        }
    }

    #[test]
    fn driver_fields_rekey_everything_except_discovery() {
        // identify_sync_function never sees DriverConfig, so discovery
        // artifacts are shared across driver sweeps.
        for field in DRIVER_ALL {
            let changed = changed_stages(field);
            assert!(!changed.contains(&StageId::Discovery), "{field} must not rekey discovery");
            let expect: Vec<StageId> =
                StageId::ALL.into_iter().filter(|&id| id != StageId::Discovery).collect();
            assert_eq!(changed, expect, "{field}");
        }
    }

    #[test]
    fn common_cost_fields_rekey_every_stage_downstream() {
        let changed = changed_stages("cost.free_base_ns");
        assert_eq!(changed, StageId::ALL.to_vec());
    }

    #[test]
    fn jobs_never_affects_keys() {
        let a = plan_keys(&Tiny, &FfmConfig { jobs: 1, ..FfmConfig::default() });
        let b = plan_keys(&Tiny, &FfmConfig { jobs: 8, ..FfmConfig::default() });
        assert_eq!(a, b);
    }

    #[test]
    fn app_identity_rekeys_app_stages_but_not_discovery() {
        let cfg = FfmConfig::default();
        let a = plan_keys(&Tiny, &cfg);
        let b = plan_keys(&Tiny2, &cfg);
        assert_eq!(
            a[StageId::Discovery.index()],
            b[StageId::Discovery.index()],
            "discovery is app-independent and shared across apps"
        );
        for id in StageId::ALL {
            if id != StageId::Discovery {
                assert_ne!(a[id.index()], b[id.index()], "{} must key on the app", id.name());
            }
        }
    }

    #[test]
    fn all_stage_keys_are_distinct() {
        let keys = plan_keys(&Tiny, &FfmConfig::default());
        let set: HashSet<StageKey> = keys.iter().copied().collect();
        assert_eq!(set.len(), STAGE_COUNT);
    }

    #[test]
    fn second_run_with_a_store_hits_every_stage() {
        let store = ArtifactStore::in_memory();
        let cfg = FfmConfig { jobs: 1, ..FfmConfig::default() };
        run_stages(&Tiny, &cfg, 1, Some(&store)).expect("cold run");
        let cold = store.stats();
        assert_eq!(cold.misses, STAGE_COUNT as u64);
        assert_eq!(cold.puts, STAGE_COUNT as u64);
        run_stages(&Tiny, &cfg, 1, Some(&store)).expect("warm run");
        let warm = store.stats();
        assert_eq!(warm.mem_hits, STAGE_COUNT as u64, "warm run hits every stage");
        assert_eq!(warm.misses, cold.misses, "warm run misses nothing");
    }

    #[test]
    fn engine_matches_storeless_run() {
        let cfg = FfmConfig { jobs: 1, ..FfmConfig::default() };
        let store = ArtifactStore::in_memory();
        let plain = run_stages(&Tiny, &cfg, 1, None).expect("plain");
        let cached = run_stages(&Tiny, &cfg, 1, Some(&store)).expect("cold");
        let warm = run_stages(&Tiny, &cfg, 1, Some(&store)).expect("warm");
        for out in [&cached, &warm] {
            assert_eq!(out.stage1.exec_time_ns, plain.stage1.exec_time_ns);
            assert_eq!(out.stage2.calls.len(), plain.stage2.calls.len());
            assert_eq!(out.analysis.problems.len(), plain.analysis.problems.len());
        }
    }

    #[test]
    fn collection_runs_everything_but_stage5() {
        let store = ArtifactStore::in_memory();
        let cfg = FfmConfig { jobs: 1, ..FfmConfig::default() };
        let col = run_collection(&Tiny, &cfg, 1, Some(&store)).expect("collection");
        let cold = store.stats();
        assert_eq!(cold.misses, (STAGE_COUNT - 1) as u64, "stage5 never consulted");
        assert_eq!(cold.puts, (STAGE_COUNT - 1) as u64);
        assert_eq!(col.stage5_key, plan_keys(&Tiny, &cfg)[StageId::Stage5.index()]);
        // A full run over the same store reuses every collection stage
        // and computes only the analysis.
        let full = run_stages(&Tiny, &cfg, 1, Some(&store)).expect("full");
        let warm = store.stats();
        assert_eq!(warm.mem_hits, (STAGE_COUNT - 1) as u64);
        assert_eq!(warm.misses, cold.misses + 1, "only stage5 missed");
        assert_eq!(full.stage1.exec_time_ns, col.stage1.exec_time_ns);
        assert_eq!(full.stage2.calls.len(), col.stage2.calls.len());
    }

    #[test]
    fn epoch_keys_are_distinct_and_anchored_to_stage5() {
        let cfg = FfmConfig::default();
        let s5 = plan_keys(&Tiny, &cfg)[StageId::Stage5.index()];
        let mut seen = HashSet::new();
        seen.insert(s5);
        for window in [64usize, 256] {
            for epoch in 0..4 {
                assert!(seen.insert(epoch_key(s5, window, epoch)), "w={window} e={epoch}");
            }
        }
        let other = plan_keys(&Tiny2, &cfg)[StageId::Stage5.index()];
        assert_ne!(epoch_key(s5, 64, 0), epoch_key(other, 64, 0));
    }
}
