//! # ffm-core — the Feed-Forward Measurement model
//!
//! The primary contribution of the reproduced paper: a multi-stage,
//! multi-run measurement and analysis pipeline that finds problematic
//! CPU/GPU synchronizations and memory transfers and estimates the
//! benefit of fixing each one.
//!
//! The five stages (paper §3):
//!
//! 1. [`stages::run_stage1`] — baseline measurement: wrap only the
//!    internal sync funnel; learn *which* API functions synchronize.
//! 2. [`stages::run_stage2`] — detailed tracing of those functions plus
//!    documented transfer functions: stacks, call time, funnel time.
//! 3. [`stages::run_stage3_sync`] and [`stages::run_stage3_hash`],
//!    joined by [`stages::merge_stage3`] — memory tracing and data
//!    hashing: which syncs protect data the CPU actually uses; which
//!    transfers carry already-transferred payloads.
//! 4. [`stages::run_stage4`] — sync-use analysis: time from sync
//!    completion to first use of protected data.
//! 5. [`analysis::analyze`] — classification ([`problem`]), the
//!    expected-benefit algorithm ([`benefit`], paper Fig. 5), and
//!    groupings ([`grouping`]: single point, folded function, sequence,
//!    subsequence).
//!
//! [`pipeline::run_ffm`] chains all of it, and [`export`] emits the JSON
//! document other tools consume.
//!
//! ```
//! use cuda_driver::{Cuda, CudaResult, GpuApp, KernelDesc};
//! use ffm_core::{run_ffm, FfmConfig, Problem};
//! use gpu_sim::{SourceLoc, StreamId};
//!
//! /// One kernel, one readback the CPU never looks at, one useless sync.
//! struct Tiny;
//! impl GpuApp for Tiny {
//!     fn name(&self) -> &'static str { "tiny" }
//!     fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
//!         let l = |line| SourceLoc::new("tiny.cu", line);
//!         for _ in 0..8 {
//!             let d = cuda.malloc(4096, l(1))?;
//!             let k = KernelDesc::compute("work", 100_000).writing(d, 64);
//!             cuda.launch_kernel(&k, StreamId::DEFAULT, l(2))?;
//!             cuda.device_synchronize(l(3))?; // protects nothing
//!             cuda.machine.cpu_work(120_000, "host_side");
//!             cuda.free(d, l(5))?;
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let report = run_ffm(&Tiny, &FfmConfig::default()).unwrap();
//! assert!(report
//!     .analysis
//!     .problems
//!     .iter()
//!     .any(|p| p.problem == Problem::UnnecessarySync && p.benefit_ns > 0));
//! ```

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod benefit;
pub mod codec;
pub mod engine;
pub mod export;
pub mod graph;
pub mod grouping;
pub mod intern;
pub mod iobuf;
pub mod json;
pub mod log;
pub mod metrics;
pub mod par;
pub mod pipeline;
pub mod problem;
pub mod records;
pub mod stages;
pub mod store;
pub mod sweep;
pub mod telemetry;

pub use analysis::{analyze, Analysis, AnalysisConfig, ProblemOp};
pub use benefit::{expected_benefit, BenefitFold, BenefitOptions, BenefitReport, NodeBenefit};
pub use codec::{
    decode_any_doc, decode_artifact, encode_artifact, encode_doc, is_ffb, CallRow, ColU64, Ffb,
    FrameRow, Stage2Cols, StrTable, KIND_DOC,
};
pub use engine::{
    declared_fields, deps, plan_keys, run_collection, run_stages, stage_key, CollectOut, StageId,
};
pub use export::{analysis_to_json, report_to_json};
pub use graph::{Csr, ExecGraph, GraphBuilder, GraphIndex, NType, Node};
pub use grouping::{
    carry_forward_benefit, carry_forward_masked, find_sequences, fold_on_api,
    folded_function_groups, savings_by_api, single_point_groups, subsequence_benefit,
    subsequence_benefit_indexed, GroupKind, GroupScratch, GroupView, IncrementalAnalysis,
    ProblemGroup, SeqEntry, Sequence,
};
pub use intern::{intern, intern_static, Sym};
pub use json::Json;
pub use metrics::{exposition_well_formed, sanitize_metric_name, PromText, SUMMARY_QUANTILES};
pub use par::{effective_jobs, par_map, try_par_map, JOBS_ENV};
pub use pipeline::{
    overhead_factor, run_ffm, run_ffm_streaming, run_ffm_streaming_with_store, run_ffm_with_store,
    EpochSnapshot, FfmConfig, FfmReport, StageStats, DEFAULT_STREAM_WINDOW,
};
pub use problem::{classify, classify_range, ClassifyConfig, Problem};
pub use records::{
    DuplicateTransfer, OpInstance, ProtectedAccess, Stage1Result, Stage2Result, Stage3Result,
    Stage4Result, TracedCall, TransferRec,
};
pub use store::{
    build_tag, clear_cache, scan_cache, write_atomic, Artifact, ArtifactKind, ArtifactStore,
    CacheReport, KeyHasher, StageKey, StoreStats, SCHEMA_VERSION,
};
pub use sweep::{
    get_field, run_fleet, run_sweep, run_sweep_with_store, set_field, sweep_to_json, Axis,
    AxisLayout, CacheMode, ConfigField, SweepCell, SweepMatrix, SweepPoint, SweepSpec,
    SweepSummary, CONFIG_FIELDS, MAX_SWEEP_CELLS, SWEEPABLE_FIELDS,
};
pub use telemetry::{
    chrome_duration_event, chrome_duration_event_args, chrome_metadata_event, snapshot_to_json,
    spans_well_formed, SpanEvent, TelemetrySnapshot, TraceId,
};
