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
//!               declared config fields  [read via sweep::CONFIG_FIELDS],
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
//!   under-keying corrupts reports. The `cache_determinism` suite re-runs
//!   every collection stage with each field it omits perturbed and
//!   requires the same artifact bytes.
//! - **Dep keys propagate invalidation.** Changing a field re-keys the
//!   stages that read it *and* everything downstream of them.
//!
//! [`run_stages`] runs the stages on a fixed plan (`PLAN`): discovery
//! then stage 1 on the caller's thread, then three lanes — stage 2 |
//! 3a → 4 | 3b — on [`crate::par`] fan-out threads, then the stage 3
//! merge and stage 5 on the caller's thread. Each stage consults an
//! optional [`ArtifactStore`] before it executes, recording per-stage
//! hit/miss counters in telemetry. With `jobs <= 1`, or inside a running
//! fan-out such as a sweep cell, every lane runs inline on the caller's
//! thread in plan order.

use std::sync::Arc;

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
use crate::sweep::{ConfigField, CONFIG_FIELDS};
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
        self as usize
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

/// The config fields a stage reads — its declared input set: the
/// entries of [`CONFIG_FIELDS`] that name the stage among their readers,
/// in table order. Each reader set in [`crate::sweep`] states why the
/// stages outside it cannot read its fields. The stage 3 merge is a pure
/// union of its two inputs, so it reads none and is keyed on its dep keys
/// alone.
pub fn declared_fields(id: StageId) -> impl Iterator<Item = &'static ConfigField> {
    CONFIG_FIELDS.iter().filter(move |f| f.readers.contains(&id))
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
        h.push_str(field.path);
        h.push_u64(field.get(cfg));
    }
    for &k in dep_keys {
        h.push_key(k);
    }
    h.finish()
}

/// Keys for the whole plan, indexed by [`StageId::index`], without
/// executing anything. Used by the engine before it runs the plan and by
/// the key-audit tests.
pub fn plan_keys(app: &dyn GpuApp, cfg: &FfmConfig) -> [StageKey; STAGE_COUNT] {
    let mut keys = [StageKey(0); STAGE_COUNT];
    for id in StageId::ALL {
        let dep_keys: Vec<StageKey> = deps(id).iter().map(|d| keys[d.index()]).collect();
        keys[id.index()] = stage_key(id, app, cfg, &dep_keys);
    }
    keys
}

/// Each stage's telemetry names, indexed by [`StageId::index`]: its
/// store hit counter, its store miss counter, and its execution-latency
/// histogram (the source of the `diogenes_stage_latency_ns{stage=…}`
/// summaries on `/metrics`).
const STAGE_METRICS: [[&str; 3]; STAGE_COUNT] = [
    ["cache.discovery.hits", "cache.discovery.misses", "stage.discovery.exec_ns"],
    ["cache.stage1.hits", "cache.stage1.misses", "stage.stage1.exec_ns"],
    ["cache.stage2.hits", "cache.stage2.misses", "stage.stage2.exec_ns"],
    ["cache.stage3a.hits", "cache.stage3a.misses", "stage.stage3a.exec_ns"],
    ["cache.stage3b.hits", "cache.stage3b.misses", "stage.stage3b.exec_ns"],
    ["cache.merge3.hits", "cache.merge3.misses", "stage.merge3.exec_ns"],
    ["cache.stage4.hits", "cache.stage4.misses", "stage.stage4.exec_ns"],
    ["cache.stage5.hits", "cache.stage5.misses", "stage.stage5.exec_ns"],
];

/// Execute one stage for real, with no store. `dep_artifacts` come in
/// [`deps`] order. Opens the stage's telemetry span, so spans appear
/// exactly when work happens — a cache hit leaves no span.
pub fn execute(
    id: StageId,
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    dep_artifacts: &[Artifact],
) -> CudaResult<Artifact> {
    let _s = telemetry::span(id.name());
    let t0 = telemetry::collecting().then(std::time::Instant::now);
    let artifact = match (id, dep_artifacts) {
        (StageId::Discovery, []) => {
            Artifact::Discovery(Arc::new(identify_sync_function(cfg.cost.clone())?))
        }
        (StageId::Stage1, []) => {
            Artifact::Stage1(Arc::new(run_stage1(app, &cfg.cost, &cfg.driver)?))
        }
        (StageId::Stage2, [Artifact::Stage1(s1)]) => {
            Artifact::Stage2(Arc::new(run_stage2(app, &cfg.cost, &cfg.driver, s1)?))
        }
        (StageId::Stage3a, [Artifact::Stage1(s1)]) => {
            Artifact::Stage3(Arc::new(run_stage3_sync(app, &cfg.cost, &cfg.driver, s1)?))
        }
        (StageId::Stage3b, [Artifact::Stage1(s1)]) => {
            Artifact::Stage3(Arc::new(run_stage3_hash(app, &cfg.cost, &cfg.driver, s1)?))
        }
        (StageId::Merge3, [Artifact::Stage3(sync), Artifact::Stage3(hash)]) => Artifact::Stage3(
            Arc::new(merge_stage3(Stage3Result::clone(sync), Stage3Result::clone(hash))),
        ),
        (StageId::Stage4, [Artifact::Stage1(s1), Artifact::Stage3(s3a)]) => {
            Artifact::Stage4(Arc::new(run_stage4(app, &cfg.cost, &cfg.driver, s1, s3a)?))
        }
        (
            StageId::Stage5,
            [Artifact::Stage1(s1), Artifact::Stage2(s2), Artifact::Stage3(s3), Artifact::Stage4(s4)],
        ) => Artifact::Analysis(Arc::new(crate::analysis::analyze(
            s1,
            s2,
            s3,
            s4,
            &cfg.analysis,
            jobs,
        ))),
        _ => unreachable!("{} gets its dep artifacts in `deps` order", id.name()),
    };
    if let Some(t0) = t0 {
        let [_, _, exec_ns] = STAGE_METRICS[id.index()];
        telemetry::record(exec_ns, t0.elapsed().as_nanos() as u64);
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
        let [hits, misses, _] = STAGE_METRICS[id.index()];
        if let Some(artifact) = store.get(key, id.kind()) {
            telemetry::counter_add(hits, 1);
            return Ok(artifact);
        }
        telemetry::counter_add(misses, 1);
    }
    let artifact = execute(id, app, cfg, jobs, dep_artifacts)?;
    if let Some(store) = store {
        store.put(key, artifact.clone());
    }
    Ok(artifact)
}

/// The fixed stage plan. Phases run one after another. The lanes of a
/// phase run at once on [`par_map`], and each lane runs its stages in
/// order, so stage 4 starts as soon as stage 3a lands. A one-lane phase
/// runs on the caller's thread. Every stage's [`deps`] finish in an
/// earlier phase or earlier in its own lane (pinned by the
/// `telemetry_determinism` suite, which checks the spans of a jobs = 4
/// run against [`deps`]). Discovery takes tens of microseconds and no
/// stage depends on it, so it shares stage 1's lane rather than a helper
/// thread of its own.
const PLAN: [&[&[StageId]]; 4] = [
    &[&[StageId::Discovery, StageId::Stage1]],
    &[&[StageId::Stage2], &[StageId::Stage3a, StageId::Stage4], &[StageId::Stage3b]],
    &[&[StageId::Merge3]],
    &[&[StageId::Stage5]],
];

/// Everything the collection stages produce — the plan minus stage 5.
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

/// Run `phases` of [`PLAN`]; return the collection artifacts, plus the
/// analysis when the phases include stage 5. When stages fail, the run
/// stops after the phase they fail in and returns the error of the
/// earliest failing stage in classic order, the one a sequential run of
/// [`StageId::ALL`] would report. (The stage 3 merge, which runs after
/// stage 4 in plan order but before it in classic order, cannot fail.)
fn run_plan(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    store: Option<&ArtifactStore>,
    phases: &[&[&[StageId]]],
) -> CudaResult<(CollectOut, Option<Arc<Analysis>>)> {
    let keys = plan_keys(app, cfg);
    // Artifacts of the stages run so far, indexed by `StageId::index`.
    let mut done: [Option<Artifact>; STAGE_COUNT] = Default::default();
    for lanes in phases {
        let ran = par_map(lanes.to_vec(), jobs, |lane| {
            let mut done = done.clone();
            let mut ran = Vec::new();
            for &id in lane {
                // A dep is missing only when it failed earlier in this lane.
                let Some(dep_artifacts) =
                    deps(id).iter().map(|d| done[d.index()].clone()).collect::<Option<Vec<_>>>()
                else {
                    break;
                };
                let result = obtain(id, keys[id.index()], app, cfg, jobs, store, &dep_artifacts);
                done[id.index()] = result.as_ref().ok().cloned();
                ran.push((id, result));
            }
            ran
        });
        let mut ran: Vec<(StageId, CudaResult<Artifact>)> = ran.into_iter().flatten().collect();
        ran.sort_by_key(|(id, _)| id.index());
        for (id, result) in ran {
            done[id.index()] = Some(result?);
        }
    }
    let [discovery, stage1, stage2, _, _, stage3, stage4, stage5] = done;
    let col = match (discovery, stage1, stage2, stage3, stage4) {
        (
            Some(Artifact::Discovery(discovery)),
            Some(Artifact::Stage1(stage1)),
            Some(Artifact::Stage2(stage2)),
            Some(Artifact::Stage3(stage3)),
            Some(Artifact::Stage4(stage4)),
        ) => {
            let stage5_key = keys[StageId::Stage5.index()];
            CollectOut { discovery, stage1, stage2, stage3, stage4, stage5_key }
        }
        _ => unreachable!("the plan runs every collection stage"),
    };
    let analysis = match stage5 {
        Some(Artifact::Analysis(a)) => Some(a),
        None => None,
        Some(_) => unreachable!("stage 5 produces the analysis"),
    };
    Ok((col, analysis))
}

/// Run the whole plan: [`run_collection`] plus stage 5.
pub fn run_stages(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    jobs: usize,
    store: Option<&ArtifactStore>,
) -> CudaResult<(CollectOut, Arc<Analysis>)> {
    let (col, analysis) = run_plan(app, cfg, jobs, store, &PLAN)?;
    Ok((col, analysis.expect("the last phase runs stage 5")))
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
    Ok(run_plan(app, cfg, jobs, store, &PLAN[..3])?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SWEEPABLE_FIELDS;
    use crate::FfmConfig;
    use cuda_driver::{Cuda, CudaError};
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

    fn changed_stages(path: &str) -> Vec<StageId> {
        let field = CONFIG_FIELDS.iter().find(|f| f.path == path).expect("a table field");
        let base = FfmConfig::default();
        let mut perturbed = base.clone();
        // Move the field off its default: flags flip, integers step by one.
        let current = field.get(&base);
        field.set(&mut perturbed, if field.flag { current ^ 1 } else { current + 1 }).unwrap();
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
        for field in CONFIG_FIELDS.iter().map(|f| f.path).filter(|p| p.starts_with("driver.")) {
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
        let (plain, plain_analysis) = run_stages(&Tiny, &cfg, 1, None).expect("plain");
        let cached = run_stages(&Tiny, &cfg, 1, Some(&store)).expect("cold");
        let warm = run_stages(&Tiny, &cfg, 1, Some(&store)).expect("warm");
        for (out, analysis) in [&cached, &warm] {
            assert_eq!(out.stage1.exec_time_ns, plain.stage1.exec_time_ns);
            assert_eq!(out.stage2.calls.len(), plain.stage2.calls.len());
            assert_eq!(analysis.problems.len(), plain_analysis.problems.len());
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
        let (full, _) = run_stages(&Tiny, &cfg, 1, Some(&store)).expect("full");
        let warm = store.stats();
        assert_eq!(warm.mem_hits, (STAGE_COUNT - 1) as u64);
        assert_eq!(warm.misses, cold.misses + 1, "only stage5 missed");
        assert_eq!(full.stage1.exec_time_ns, col.stage1.exec_time_ns);
        assert_eq!(full.stage2.calls.len(), col.stage2.calls.len());
    }

    /// Fails its stage 1 run, so every stage but discovery is unreachable.
    struct Failing;
    impl GpuApp for Failing {
        fn name(&self) -> &'static str {
            "failing"
        }
        fn run(&self, _cuda: &mut Cuda) -> CudaResult<()> {
            Err(CudaError::InvalidValue { what: "failing app" })
        }
    }

    #[test]
    fn a_failing_app_fails_the_run_with_its_own_error_and_stores_only_discovery() {
        for jobs in [1, 2, 4] {
            let cfg = FfmConfig { jobs, ..FfmConfig::default() };
            let err = crate::run_ffm(&Failing, &cfg).expect_err("the app fails");
            assert_eq!(err, CudaError::InvalidValue { what: "failing app" }, "jobs={jobs}");

            let store = ArtifactStore::in_memory();
            let err = crate::run_ffm_with_store(&Failing, &cfg, Some(&store)).expect_err("fails");
            assert_eq!(err, CudaError::InvalidValue { what: "failing app" }, "jobs={jobs}");
            assert_eq!(store.stats().puts, 1, "jobs={jobs}: only discovery is stored");
            let keys = plan_keys(&Failing, &cfg);
            for id in StageId::ALL {
                let stored = store.get(keys[id.index()], id.kind()).is_some();
                assert_eq!(stored, id == StageId::Discovery, "jobs={jobs}: {}", id.name());
            }
        }
    }
}
