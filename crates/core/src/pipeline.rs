//! The multi-run pipeline: discovery, stages 1–4, analysis.
//!
//! `run_ffm` is the whole tool in one call — launch it against an
//! application the way `diogenes ./app` is launched, and it runs the
//! complete feed-forward sequence with no interaction between stages
//! (paper §3: "no user interaction is required between stages").
//!
//! ## The stage DAG
//!
//! "Feed-forward" constrains *what each stage instruments* — stage N's
//! probe set is computed from stage N-1's output — but several runs have
//! no data edge between them and can proceed concurrently on real
//! threads, each with its own private simulator:
//!
//! ```text
//! discovery ──┐                     (independent of the app)
//! stage 1 ────┼──> stage 2          (needs s1's sync-API set)
//!             ├──> stage 3a (sync)──> stage 4   (needs 3a's first-use sites)
//!             └──> stage 3b (hash)
//! ```
//!
//! The DAG lives in [`crate::engine`]: each step is a named
//! [`crate::engine::StageId`] with declared dependencies and a declared
//! config-field input set, and its output is a content-addressed
//! [`crate::store::Artifact`]. The engine runs it on a fixed plan:
//! discovery then stage 1, then three lanes — stage 2 | 3a → 4 | 3b —
//! then the stage 3 merge and stage 5 on the caller's thread. Stage 4 starts
//! as soon as stage 3a lands — it consumes only the first-use sites,
//! which the hashing run never produces. [`run_ffm`] executes the plan
//! with no store; [`run_ffm_with_store`] threads an [`ArtifactStore`]
//! through, so repeated runs (sweep cells sharing upstream config,
//! processes sharing a disk cache) reuse stage outputs instead of
//! recomputing them. With [`FfmConfig::jobs`] ≤ 1 every lane runs in
//! plan order on the caller's thread; either way the report is
//! bit-identical, because every run is a complete isolated execution
//! whose virtual clock starts at zero, and cached artifacts are
//! bit-identical to freshly computed ones.

use std::sync::Arc;

use cuda_driver::{CudaResult, DriverConfig, GpuApp};
use gpu_sim::{CostModel, Ns};
use instrument::Discovery;

use crate::analysis::{Analysis, AnalysisConfig};
use crate::engine::{run_collection, run_stages, CollectOut};
use crate::graph::GraphBuilder;
use crate::grouping::IncrementalAnalysis;
use crate::par::effective_jobs;
use crate::problem::classify_range;
use crate::records::{Stage1Result, Stage2Result, Stage3Result, Stage4Result};
use crate::store::{Artifact, ArtifactStore};
use crate::telemetry;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct FfmConfig {
    pub cost: CostModel,
    pub driver: DriverConfig,
    pub analysis: AnalysisConfig,
    /// Worker threads for concurrent stage execution. `0` (the default)
    /// resolves via [`crate::par::effective_jobs`]: the `DIOGENES_JOBS`
    /// environment variable if set, else the machine's core count. `1`
    /// forces the sequential stage order. Never part of an artifact key —
    /// reports are identical at every job count.
    pub jobs: usize,
}

impl Default for FfmConfig {
    fn default() -> Self {
        Self {
            cost: CostModel::pascal_like(),
            driver: DriverConfig::default(),
            analysis: AnalysisConfig::default(),
            jobs: 0,
        }
    }
}

impl FfmConfig {
    /// Builder-style worker-count override (0 = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Timing of one data-collection stage.
#[derive(Debug, Clone)]
pub struct StageStats {
    pub name: &'static str,
    /// Virtual execution time of the (instrumented) run.
    pub exec_ns: Ns,
    /// Slowdown relative to the stage 1 (baseline) run.
    pub overhead_factor: f64,
}

/// Everything `run_ffm` produces. Stage payloads are `Arc`-shared with
/// the artifact store, so a cache-served report costs pointer copies,
/// not deep clones; `&report.stage1` etc. deref exactly as before.
#[derive(Debug)]
pub struct FfmReport {
    pub app_name: &'static str,
    pub workload: String,
    /// Result of the sync-function discovery probe.
    pub discovery: Arc<Discovery>,
    pub stage1: Arc<Stage1Result>,
    pub stage2: Arc<Stage2Result>,
    pub stage3: Arc<Stage3Result>,
    pub stage4: Arc<Stage4Result>,
    /// The stage 5 analysis.
    pub analysis: Arc<Analysis>,
    /// Per-stage timings.
    pub stages: Vec<StageStats>,
    /// Total virtual time spent collecting data (all runs summed) — the
    /// quantity behind the paper's 8×–20× overhead discussion.
    pub collection_total_ns: Ns,
}

impl FfmReport {
    /// Total data-collection cost relative to one baseline run.
    pub fn collection_overhead_factor(&self) -> f64 {
        overhead_factor(self.collection_total_ns, self.stage1.exec_time_ns)
    }
}

/// Slowdown of `exec_ns` relative to the `base_ns` baseline.
///
/// The single zero-baseline rule for the whole crate: a zero baseline
/// yields factor `0.0` (an empty run has no meaningful slowdown), used
/// by both [`StageStats`] and [`FfmReport::collection_overhead_factor`]
/// so the two can never disagree again.
pub fn overhead_factor(exec_ns: Ns, base_ns: Ns) -> f64 {
    if base_ns == 0 {
        0.0
    } else {
        exec_ns as f64 / base_ns as f64
    }
}

/// Run the full feed-forward pipeline against an application, with no
/// artifact reuse (every stage executes).
pub fn run_ffm(app: &dyn GpuApp, cfg: &FfmConfig) -> CudaResult<FfmReport> {
    run_ffm_with_store(app, cfg, None)
}

/// Run the pipeline, consulting `store` before executing each stage and
/// recording fresh outputs into it. Stage timings in the report describe
/// the runs that *produced* the artifacts — a cache-served stage reports
/// the same virtual-time numbers as the run that computed it, which is
/// exactly what keeps reports byte-identical across cold and warm caches.
pub fn run_ffm_with_store(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    store: Option<&ArtifactStore>,
) -> CudaResult<FfmReport> {
    let _run_span = telemetry::span_detail("run_ffm", || app.name().to_string());
    let jobs = effective_jobs(cfg.jobs);
    let (col, analysis) = run_stages(app, cfg, jobs, store)?;
    Ok(assemble_report(app, col, analysis))
}

/// Build the final report from collection results and the analysis —
/// the single assembly both the batch and the streaming drivers go
/// through, so their reports can only ever differ in the analysis
/// itself (and the identity suite pins that they don't).
fn assemble_report(app: &dyn GpuApp, col: CollectOut, analysis: Arc<Analysis>) -> FfmReport {
    record_collection_metrics(&col.stage2, &col.stage3, &col.stage4, &analysis);

    let base = col.stage1.exec_time_ns;
    let stages = vec![
        StageStats {
            name: "stage1-baseline",
            exec_ns: col.stage1.exec_time_ns,
            overhead_factor: overhead_factor(col.stage1.exec_time_ns, base),
        },
        StageStats {
            name: "stage2-detailed-tracing",
            exec_ns: col.stage2.exec_time_ns,
            overhead_factor: overhead_factor(col.stage2.exec_time_ns, base),
        },
        StageStats {
            name: "stage3a-memory-tracing",
            exec_ns: col.stage3.exec_time_sync_ns,
            overhead_factor: overhead_factor(col.stage3.exec_time_sync_ns, base),
        },
        StageStats {
            name: "stage3b-data-hashing",
            exec_ns: col.stage3.exec_time_hash_ns,
            overhead_factor: overhead_factor(col.stage3.exec_time_hash_ns, base),
        },
        StageStats {
            name: "stage4-sync-use",
            exec_ns: col.stage4.exec_time_ns,
            overhead_factor: overhead_factor(col.stage4.exec_time_ns, base),
        },
    ];
    let collection_total_ns = stages.iter().map(|s| s.exec_ns).sum();

    FfmReport {
        app_name: app.name(),
        workload: app.workload(),
        discovery: col.discovery,
        stage1: col.stage1,
        stage2: col.stage2,
        stage3: col.stage3,
        stage4: col.stage4,
        analysis,
        stages,
        collection_total_ns,
    }
}

/// Default trace window (stage 2 calls per analysis epoch) for the
/// streaming pipeline.
pub const DEFAULT_STREAM_WINDOW: usize = 256;

/// One per-window analysis epoch published by the streaming driver
/// while the fold is still in flight.
pub struct EpochSnapshot<'a> {
    /// Epoch ordinal, starting at 0. The last epoch of a run carries the
    /// final analysis (identical to the batch answer).
    pub epoch: usize,
    /// Stage 2 calls consumed so far.
    pub calls_consumed: usize,
    /// Graph nodes materialized so far.
    pub nodes: usize,
    /// The analysis of everything folded so far.
    pub analysis: &'a Analysis,
}

/// Run the streaming pipeline with no artifact reuse and no epoch
/// subscriber: collection, then windowed incremental analysis. The
/// returned report is byte-identical to [`run_ffm`]'s (pinned by the
/// `streaming_identity` suite).
pub fn run_ffm_streaming(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    window: usize,
) -> CudaResult<FfmReport> {
    run_ffm_streaming_with_store(app, cfg, window, None, |_| {})
}

/// The streaming driver: run the collection stages, then interleave
/// graph building with windowed incremental analysis, publishing an
/// [`EpochSnapshot`] after every `window` consumed stage 2 calls. The
/// final epoch carries the finished analysis, which is stored under the
/// plain stage 5 key — so a later batch run of the same plan is a warm
/// cache hit. Epochs themselves are not stored: nothing looks them up.
pub fn run_ffm_streaming_with_store(
    app: &dyn GpuApp,
    cfg: &FfmConfig,
    window: usize,
    store: Option<&ArtifactStore>,
    mut on_epoch: impl FnMut(&EpochSnapshot<'_>),
) -> CudaResult<FfmReport> {
    let _run_span = telemetry::span_detail("run_ffm_streaming", || app.name().to_string());
    let jobs = effective_jobs(cfg.jobs);
    let window = window.max(1);
    let col = run_collection(app, cfg, jobs, store)?;

    let _fold_span = telemetry::span("stage5-streaming");
    let calls = &col.stage2.calls;
    let dups = col.stage3.duplicate_set();
    let mut builder = GraphBuilder::with_capacity(col.stage1.exec_time_ns, calls.len());
    let mut inc = IncrementalAnalysis::new(&cfg.analysis);
    let mut epoch = 0usize;
    let mut publish = |snapshot: &EpochSnapshot<'_>| {
        telemetry::counter_add("stream.epochs", 1);
        on_epoch(snapshot);
    };
    let mut consumed = 0usize;
    while consumed < calls.len() {
        let hi = (consumed + window).min(calls.len());
        let range = builder.append_calls(&calls[consumed..hi]);
        classify_range(
            builder.graph_mut(),
            range,
            &col.stage3,
            &dups,
            &col.stage4,
            &cfg.analysis.classify,
        );
        inc.fold(builder.graph());
        consumed = hi;
        if consumed < calls.len() {
            // Intermediate epoch: snapshot of the prefix seen so far.
            let analysis = inc.snapshot(builder.graph(), col.stage1.exec_time_ns);
            publish(&EpochSnapshot {
                epoch,
                calls_consumed: consumed,
                nodes: analysis.graph.nodes.len(),
                analysis: &analysis,
            });
            epoch += 1;
        }
    }
    // Seal the graph (tail work past the last call) and resolve
    // everything still pending under end-of-trace semantics.
    builder.seal(col.stage2.exec_time_ns);
    inc.fold(builder.graph());
    let analysis = Arc::new(inc.finish(builder.into_graph(), col.stage1.exec_time_ns));
    if let Some(store) = store {
        store.put(col.stage5_key, Artifact::Analysis(analysis.clone()));
    }
    publish(&EpochSnapshot {
        epoch,
        calls_consumed: calls.len(),
        nodes: analysis.graph.nodes.len(),
        analysis: &analysis,
    });
    drop(_fold_span);
    Ok(assemble_report(app, col, analysis))
}

/// Record what collection found into the telemetry metrics registry.
/// Read-only over the results — telemetry observes the pipeline, it
/// never feeds anything back into it.
fn record_collection_metrics(
    stage2: &Stage2Result,
    stage3: &Stage3Result,
    stage4: &Stage4Result,
    analysis: &Analysis,
) {
    if !telemetry::collecting() {
        return;
    }
    telemetry::counter_add("stage2.traced_calls", stage2.calls.len() as u64);
    telemetry::counter_add("stage3.digest_bytes", stage3.hashed_bytes);
    telemetry::counter_add("stage3.duplicate_transfers", stage3.duplicates.len() as u64);
    telemetry::counter_add("stage4.first_use_gaps", stage4.first_use_ns.len() as u64);
    telemetry::counter_add("graph.nodes", analysis.graph.nodes.len() as u64);
    telemetry::counter_add("analysis.problems", analysis.problems.len() as u64);
    telemetry::counter_add("analysis.sequences", analysis.sequences.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_factor_zero_baseline_is_zero() {
        assert_eq!(overhead_factor(0, 0), 0.0);
        assert_eq!(overhead_factor(12_345, 0), 0.0);
    }

    #[test]
    fn overhead_factor_is_a_plain_ratio_otherwise() {
        assert_eq!(overhead_factor(0, 100), 0.0);
        assert_eq!(overhead_factor(100, 100), 1.0);
        assert_eq!(overhead_factor(850, 100), 8.5);
    }

    #[test]
    fn report_and_stage_stats_agree_on_zero_baseline() {
        // Both halves of the old disagreement (0.0 vs `.max(1)`) now go
        // through `overhead_factor`; an app that does nothing has a
        // zero-length baseline and must yield 0.0 factors everywhere.
        struct Idle;
        impl GpuApp for Idle {
            fn name(&self) -> &'static str {
                "idle"
            }
            fn run(&self, _cuda: &mut cuda_driver::Cuda) -> CudaResult<()> {
                Ok(())
            }
        }
        let report =
            run_ffm(&Idle, &FfmConfig { jobs: 1, ..FfmConfig::default() }).expect("pipeline runs");
        assert_eq!(report.stage1.exec_time_ns, 0);
        assert_eq!(report.collection_overhead_factor(), 0.0);
        for s in &report.stages {
            assert_eq!(s.overhead_factor, 0.0);
        }
    }
}
