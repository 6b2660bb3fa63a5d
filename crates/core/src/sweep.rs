//! Configuration sweeps: replay the full FFM pipeline across a grid of
//! cost-model / driver / analysis configurations and tabulate the result.
//!
//! The paper's conclusions are statements about a *space* of
//! configurations (the 8×–20× overhead band, the Table 1 accuracy
//! claims), not a single point. A [`SweepSpec`] names the axes of that
//! space declaratively — each axis is a config field path
//! (`"cost.free_base_ns"`, `"driver.unified_memset_penalty"`, …) plus
//! the values to try — and [`run_sweep`] expands it into a fleet of
//! [`run_ffm`] jobs fanned out through [`crate::par::par_map`]; each
//! cell's stage DAG runs inline on its cell's thread, so the whole sweep
//! stays within one bounded set of threads.
//!
//! Determinism contract: every cell is a complete isolated virtual-time
//! simulation, so the produced [`SweepMatrix`] — and its JSON rendering
//! — is bit-identical for any job count, including `jobs = 1`, which
//! runs the whole sweep on the caller's thread with no worker threads
//! at all.
//!
//! ## Field paths
//!
//! A path is `section.field`, with sections `cost` ([`CostModel`]),
//! `driver` ([`DriverConfig`]) and `analysis` ([`AnalysisConfig`]).
//! Values are plain `u64`; boolean fields take `0`/`1`. The full list
//! is in [`SWEEPABLE_FIELDS`].

use std::path::PathBuf;

use cuda_driver::{CudaResult, GpuApp};
use gpu_sim::Ns;

use crate::json::Json;
use crate::par::{effective_jobs, try_par_map};
use crate::pipeline::{run_ffm_with_store, FfmConfig, FfmReport};
use crate::store::{ArtifactStore, StoreStats};
use crate::telemetry;

/// One sweep dimension: a config field path and the values it takes.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Field path, e.g. `"cost.free_base_ns"`.
    pub field: String,
    /// Values in sweep order. Booleans are `0`/`1`.
    pub values: Vec<u64>,
}

impl Axis {
    pub fn new(field: impl Into<String>, values: Vec<u64>) -> Self {
        Self { field: field.into(), values }
    }
}

/// How multiple axes combine into grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisLayout {
    /// Full cartesian product; the first axis varies slowest.
    Cartesian,
    /// Axes are zipped position-wise (all must have equal length).
    Paired,
}

/// Where sweep-level stage artifacts live (see [`crate::ArtifactStore`]).
///
/// Cells that share upstream configuration reuse each other's stage
/// outputs through the store; `Off` recomputes every stage of every
/// cell from scratch. The mode never affects the produced
/// [`SweepMatrix`] or its JSON — only how much work is repeated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// No memoization: every cell runs its full pipeline.
    Off,
    /// Artifacts are shared in memory for the duration of the sweep.
    Memory,
    /// Memory sharing plus a persistent on-disk layer under the given
    /// directory, so a later sweep (or one running at the same time) can
    /// start warm.
    Disk(PathBuf),
}

/// Largest grid [`SweepSpec::expand`] builds. Specs come from the
/// command line and from `POST /sweep` bodies, and expansion builds every
/// cell's config before anything runs, so the size is checked first.
pub const MAX_SWEEP_CELLS: usize = 4096;

/// A declarative sweep: base configuration plus axes.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// The configuration every cell starts from; each cell overrides the
    /// axis fields. The base's `jobs` field is ignored — [`SweepSpec::jobs`]
    /// governs the whole sweep.
    pub base: FfmConfig,
    pub axes: Vec<Axis>,
    pub layout: AxisLayout,
    /// Worker budget for the whole sweep (fleet × stages × scoring);
    /// `0` = auto via `DIOGENES_JOBS` / core count, `1` = fully
    /// sequential on the caller's thread.
    pub jobs: usize,
    /// Stage-artifact memoization across cells.
    pub cache: CacheMode,
}

impl SweepSpec {
    pub fn new(base: FfmConfig) -> Self {
        Self {
            base,
            axes: Vec::new(),
            layout: AxisLayout::Cartesian,
            jobs: 0,
            cache: CacheMode::Memory,
        }
    }

    /// Add an axis (builder style).
    pub fn axis(mut self, field: impl Into<String>, values: Vec<u64>) -> Self {
        self.axes.push(Axis::new(field, values));
        self
    }

    /// Zip axes position-wise instead of taking the cartesian product.
    pub fn paired(mut self) -> Self {
        self.layout = AxisLayout::Paired;
        self
    }

    /// Worker-count override (0 = auto).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Disable stage-artifact memoization entirely.
    pub fn no_cache(mut self) -> Self {
        self.cache = CacheMode::Off;
        self
    }

    /// Persist stage artifacts on disk under `dir` (and share them in
    /// memory during the sweep).
    pub fn disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = CacheMode::Disk(dir.into());
        self
    }

    /// Expand the spec into concrete per-cell configurations, in
    /// deterministic cell order. Errors on an unknown field path, a field
    /// that names two axes, a value out of range for its field,
    /// mismatched axis lengths in [`AxisLayout::Paired`] mode, or a grid
    /// larger than [`MAX_SWEEP_CELLS`]; the grid is counted, and checked
    /// against the cap, before any cell is built.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, String> {
        for (i, axis) in self.axes.iter().enumerate() {
            if axis.values.is_empty() {
                return Err(format!("axis {:?} has no values", axis.field));
            }
            // Probe the path once up front so a typo fails before any
            // simulation work starts.
            let mut probe = self.base.clone();
            set_field(&mut probe, &axis.field, axis.values[0])?;
            if self.axes[..i].iter().any(|a| a.field == axis.field) {
                return Err(format!("field {:?} names more than one axis", axis.field));
            }
        }
        let cells = self.cell_count()?;
        if cells == 0 {
            return Ok(Vec::new());
        }
        let assignments: Vec<Vec<(String, u64)>> = match self.layout {
            AxisLayout::Cartesian => {
                let mut acc: Vec<Vec<(String, u64)>> = vec![Vec::new()];
                for axis in &self.axes {
                    let mut next = Vec::with_capacity(acc.len() * axis.values.len());
                    for prefix in &acc {
                        for &v in &axis.values {
                            let mut a = prefix.clone();
                            a.push((axis.field.clone(), v));
                            next.push(a);
                        }
                    }
                    acc = next;
                }
                acc
            }
            AxisLayout::Paired => (0..cells)
                .map(|i| self.axes.iter().map(|a| (a.field.clone(), a.values[i])).collect())
                .collect(),
        };
        assignments
            .into_iter()
            .map(|assignment| {
                let mut cfg = self.base.clone();
                for (field, value) in &assignment {
                    set_field(&mut cfg, field, *value)?;
                }
                Ok(SweepPoint { assignment, cfg })
            })
            .collect()
    }

    /// The number of cells [`SweepSpec::expand`] builds, counted without
    /// building them: the product of the axis lengths (cartesian) or the
    /// common length (paired); no axes means no cells.
    fn cell_count(&self) -> Result<usize, String> {
        let Some(first) = self.axes.first() else { return Ok(0) };
        let count = match self.layout {
            AxisLayout::Cartesian => {
                self.axes.iter().try_fold(1usize, |n, a| n.checked_mul(a.values.len()))
            }
            AxisLayout::Paired => {
                let len = first.values.len();
                if let Some(axis) = self.axes.iter().find(|a| a.values.len() != len) {
                    return Err(format!(
                        "paired axes must have equal lengths: {:?} has {} values, {:?} has {}",
                        first.field,
                        len,
                        axis.field,
                        axis.values.len()
                    ));
                }
                Some(len)
            }
        };
        match count {
            Some(n) if n <= MAX_SWEEP_CELLS => Ok(n),
            _ => Err(format!("sweep grid has more than {MAX_SWEEP_CELLS} cells")),
        }
    }
}

/// One expanded grid cell: the axis assignment and the resulting config.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub assignment: Vec<(String, u64)>,
    pub cfg: FfmConfig,
}

/// The measured outcome of one grid cell.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Cell index in expansion order: the document's `"cell"` key, and
    /// what the summary rows refer to.
    pub index: usize,
    /// `(field path, value)` per axis, in axis order.
    pub assignment: Vec<(String, u64)>,
    /// Stage 1 baseline execution time under this configuration.
    pub baseline_exec_ns: Ns,
    /// Total expected benefit across all problems.
    pub total_benefit_ns: Ns,
    /// Benefit as percent of the baseline.
    pub benefit_pct: f64,
    /// Number of problematic operations.
    pub problem_count: usize,
    pub sync_issues: usize,
    pub transfer_issues: usize,
    /// Contiguous problem sequences found.
    pub sequence_count: usize,
    /// Data-collection cost relative to one baseline run (§5.3).
    pub collection_overhead_factor: f64,
}

impl SweepCell {
    fn from_report(index: usize, assignment: Vec<(String, u64)>, r: &FfmReport) -> Self {
        let a = &r.analysis;
        Self {
            index,
            assignment,
            baseline_exec_ns: a.baseline_exec_ns,
            total_benefit_ns: a.total_benefit_ns(),
            benefit_pct: a.percent(a.total_benefit_ns()),
            problem_count: a.problems.len(),
            sync_issues: a.sync_issue_count(),
            transfer_issues: a.transfer_issue_count(),
            sequence_count: a.sequences.len(),
            collection_overhead_factor: r.collection_overhead_factor(),
        }
    }
}

/// Argmin/argmax rows over the matrix (cell indices; first occurrence
/// wins on ties, so the summary is deterministic).
#[derive(Debug, Clone, Default)]
pub struct SweepSummary {
    pub min_benefit: Option<usize>,
    pub max_benefit: Option<usize>,
    pub min_overhead: Option<usize>,
    pub max_overhead: Option<usize>,
}

/// The complete result of a sweep over one application.
#[derive(Debug)]
pub struct SweepMatrix {
    pub app_name: String,
    pub workload: String,
    pub axes: Vec<Axis>,
    pub layout: AxisLayout,
    /// Every cell of the grid, in expansion order.
    pub cells: Vec<SweepCell>,
    /// Argmin/argmax over `cells`; values are cell indices.
    pub summary: SweepSummary,
    /// Artifact-store hit/miss counters for this sweep, when a cache
    /// was active. Diagnostic only — never serialized into the sweep
    /// document (it varies with cache temperature and job count).
    pub cache_stats: Option<StoreStats>,
}

impl SweepMatrix {
    pub(crate) fn summarize(cells: &[SweepCell]) -> SweepSummary {
        let arg = |better: &dyn Fn(&SweepCell, &SweepCell) -> bool| -> Option<usize> {
            let mut best: Option<usize> = None;
            for (i, c) in cells.iter().enumerate() {
                match best {
                    None => best = Some(i),
                    Some(b) if better(c, &cells[b]) => best = Some(i),
                    _ => {}
                }
            }
            best
        };
        SweepSummary {
            min_benefit: arg(&|c, b| c.total_benefit_ns < b.total_benefit_ns),
            max_benefit: arg(&|c, b| c.total_benefit_ns > b.total_benefit_ns),
            min_overhead: arg(&|c, b| c.collection_overhead_factor < b.collection_overhead_factor),
            max_overhead: arg(&|c, b| c.collection_overhead_factor > b.collection_overhead_factor),
        }
    }
}

/// Run the fleet layer: one closure per member, up to `jobs` concurrent
/// (`0` = auto via `DIOGENES_JOBS` / core count), on one [`crate::par::par_map`]
/// fan-out. Results come back in member order; on failure the error of the
/// earliest member in input order is returned — identical semantics to
/// the sequential loop. The table/overhead regenerators and
/// [`run_sweep`] itself are all built on this.
pub fn run_fleet<T, U, E, F>(members: Vec<T>, jobs: usize, f: F) -> Result<Vec<U>, E>
where
    T: Send,
    U: Send,
    E: Send,
    F: Fn(T) -> Result<U, E> + Sync,
{
    try_par_map(members, effective_jobs(jobs), f)
}

/// Execute a sweep: expand the spec, run every cell's full FFM pipeline
/// as one fan-out, and tabulate the matrix.
///
/// Creates the artifact store named by [`SweepSpec::cache`] and
/// delegates to [`run_sweep_with_store`]. Spec errors (unknown field
/// path, bad value, mismatched paired axes, oversized grid) are reported as
/// `Err(String)`; the first failing cell's [`cuda_driver::CudaError`]
/// is rendered into the same error string.
pub fn run_sweep(app: &dyn GpuApp, spec: &SweepSpec) -> Result<SweepMatrix, String> {
    match &spec.cache {
        CacheMode::Off => run_sweep_with_store(app, spec, None),
        CacheMode::Memory => {
            let store = ArtifactStore::in_memory();
            run_sweep_with_store(app, spec, Some(&store))
        }
        CacheMode::Disk(dir) => {
            let store = ArtifactStore::with_disk(dir.clone());
            run_sweep_with_store(app, spec, Some(&store))
        }
    }
}

/// [`run_sweep`] against a caller-provided artifact store (or none).
///
/// Exposed so benchmarks and tests can measure cold vs. warm behaviour
/// against one store instance and read its counters afterwards.
pub fn run_sweep_with_store(
    app: &dyn GpuApp,
    spec: &SweepSpec,
    store: Option<&ArtifactStore>,
) -> Result<SweepMatrix, String> {
    let _sweep_span = telemetry::span_detail("run_sweep", || app.name().to_string());
    let points: Vec<(usize, SweepPoint)> = spec.expand()?.into_iter().enumerate().collect();
    let jobs = effective_jobs(spec.jobs);
    let cells = run_fleet(points, jobs, |(i, p): (usize, SweepPoint)| -> CudaResult<SweepCell> {
        let _cell_span = telemetry::span_detail("sweep.cell", || {
            let axes: Vec<String> = p.assignment.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("#{i} {}", axes.join(","))
        });
        // Each cell's pipeline inherits the sweep's resolved worker
        // budget; its stage DAG, started inside this fan-out, runs
        // inline on the cell's thread.
        let cfg = FfmConfig { jobs, ..p.cfg };
        let t0 = telemetry::collecting().then(std::time::Instant::now);
        let report = run_ffm_with_store(app, &cfg, store)?;
        if let Some(t0) = t0 {
            telemetry::record("sweep.cell.exec_ns", t0.elapsed().as_nanos() as u64);
        }
        telemetry::counter_add("sweep.cells_completed", 1);
        Ok(SweepCell::from_report(i, p.assignment, &report))
    })
    .map_err(|e| format!("sweep cell failed: {e}"))?;
    let summary = SweepMatrix::summarize(&cells);
    Ok(SweepMatrix {
        app_name: app.name().to_string(),
        workload: app.workload(),
        axes: spec.axes.clone(),
        layout: spec.layout,
        cells,
        summary,
        cache_stats: store.map(|s| s.stats()),
    })
}

/// Render a sweep matrix as JSON (deterministic field order; no
/// job-count or wall-clock data, so the bytes are identical across job
/// counts).
pub fn sweep_to_json(m: &SweepMatrix) -> Json {
    let axis_json = |a: &Axis| {
        Json::obj([
            ("field", Json::Str(a.field.clone())),
            ("values", Json::Arr(a.values.iter().map(|&v| Json::Int(v as i128)).collect())),
        ])
    };
    let cell_json = |c: &SweepCell| {
        Json::obj([
            ("cell", Json::Int(c.index as i128)),
            (
                "assignment",
                Json::Obj(
                    c.assignment.iter().map(|(k, v)| (k.clone(), Json::Int(*v as i128))).collect(),
                ),
            ),
            ("baseline_exec_ns", Json::Int(c.baseline_exec_ns as i128)),
            ("total_benefit_ns", Json::Int(c.total_benefit_ns as i128)),
            ("benefit_pct", Json::Float(c.benefit_pct)),
            ("problem_count", Json::Int(c.problem_count as i128)),
            ("sync_issues", Json::Int(c.sync_issues as i128)),
            ("transfer_issues", Json::Int(c.transfer_issues as i128)),
            ("sequence_count", Json::Int(c.sequence_count as i128)),
            ("collection_overhead_factor", Json::Float(c.collection_overhead_factor)),
        ])
    };
    let opt = |i: Option<usize>| i.map(|i| Json::Int(i as i128)).unwrap_or(Json::Null);
    Json::obj([
        ("app", Json::Str(m.app_name.clone())),
        ("workload", Json::Str(m.workload.clone())),
        (
            "layout",
            Json::Str(
                match m.layout {
                    AxisLayout::Cartesian => "cartesian",
                    AxisLayout::Paired => "paired",
                }
                .to_string(),
            ),
        ),
        ("axes", Json::Arr(m.axes.iter().map(axis_json).collect())),
        ("total_cells", Json::Int(m.cells.len() as i128)),
        // Always null; the key stays so sweep documents keep their bytes.
        ("shard", Json::Null),
        ("cells", Json::Arr(m.cells.iter().map(cell_json).collect())),
        (
            "summary",
            Json::obj([
                ("min_benefit_cell", opt(m.summary.min_benefit)),
                ("max_benefit_cell", opt(m.summary.max_benefit)),
                ("min_overhead_cell", opt(m.summary.min_overhead)),
                ("max_overhead_cell", opt(m.summary.max_overhead)),
            ]),
        ),
    ])
}

/// Every sweepable field path, for `--list-fields` style help output.
pub const SWEEPABLE_FIELDS: &[&str] = &[
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
    "cost.loadstore_overhead_ns",
    "cost.hash_bw_bytes_per_us",
    "cost.hash_base_ns",
    "cost.jitter_ppm",
    "driver.free_implicit_sync",
    "driver.memcpy_implicit_sync",
    "driver.async_dtoh_pageable_sync",
    "driver.memset_unified_sync",
    "driver.unified_memset_penalty",
    "driver.device_memory_bytes",
    "driver.private_api_discount",
    "analysis.misplaced_threshold_ns",
    "analysis.clamp_misplaced",
];

fn as_bool(field: &str, value: u64) -> Result<bool, String> {
    match value {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(format!("field {field:?} is boolean; use 0 or 1, got {value}")),
    }
}

/// Read one `section.field` value from a configuration — the exact
/// inverse of [`set_field`] (booleans read back as `0`/`1`). The stage
/// engine keys artifacts on the fields a stage declares, read through
/// this single accessor, so the keyed value and the swept value can
/// never diverge.
pub fn get_field(cfg: &FfmConfig, field: &str) -> Result<u64, String> {
    Ok(match field {
        "cost.driver_call_ns" => cfg.cost.driver_call_ns,
        "cost.kernel_launch_ns" => cfg.cost.kernel_launch_ns,
        "cost.transfer_setup_ns" => cfg.cost.transfer_setup_ns,
        "cost.pageable_bw_bytes_per_us" => cfg.cost.pageable_bw_bytes_per_us,
        "cost.pinned_bw_bytes_per_us" => cfg.cost.pinned_bw_bytes_per_us,
        "cost.dtod_bw_bytes_per_us" => cfg.cost.dtod_bw_bytes_per_us,
        "cost.transfer_latency_ns" => cfg.cost.transfer_latency_ns,
        "cost.sync_entry_ns" => cfg.cost.sync_entry_ns,
        "cost.alloc_base_ns" => cfg.cost.alloc_base_ns,
        "cost.alloc_per_mib_ns" => cfg.cost.alloc_per_mib_ns,
        "cost.free_base_ns" => cfg.cost.free_base_ns,
        "cost.memset_bw_bytes_per_us" => cfg.cost.memset_bw_bytes_per_us,
        "cost.memset_base_ns" => cfg.cost.memset_base_ns,
        "cost.query_call_ns" => cfg.cost.query_call_ns,
        "cost.probe_overhead_ns" => cfg.cost.probe_overhead_ns,
        "cost.stackwalk_frame_ns" => cfg.cost.stackwalk_frame_ns,
        "cost.loadstore_overhead_ns" => cfg.cost.loadstore_overhead_ns,
        "cost.hash_bw_bytes_per_us" => cfg.cost.hash_bw_bytes_per_us,
        "cost.hash_base_ns" => cfg.cost.hash_base_ns,
        "cost.jitter_ppm" => cfg.cost.jitter_ppm as u64,
        "driver.free_implicit_sync" => cfg.driver.free_implicit_sync as u64,
        "driver.memcpy_implicit_sync" => cfg.driver.memcpy_implicit_sync as u64,
        "driver.async_dtoh_pageable_sync" => cfg.driver.async_dtoh_pageable_sync as u64,
        "driver.memset_unified_sync" => cfg.driver.memset_unified_sync as u64,
        "driver.unified_memset_penalty" => cfg.driver.unified_memset_penalty,
        "driver.device_memory_bytes" => cfg.driver.device_memory_bytes,
        "driver.private_api_discount" => cfg.driver.private_api_discount as u64,
        "analysis.misplaced_threshold_ns" => cfg.analysis.classify.misplaced_threshold_ns,
        "analysis.clamp_misplaced" => cfg.analysis.benefit.clamp_misplaced as u64,
        _ => {
            return Err(format!(
                "unknown sweep field {field:?} (expected one of: {})",
                SWEEPABLE_FIELDS.join(", ")
            ))
        }
    })
}

/// Apply one `section.field = value` override to a configuration.
pub fn set_field(cfg: &mut FfmConfig, field: &str, value: u64) -> Result<(), String> {
    match field {
        "cost.driver_call_ns" => cfg.cost.driver_call_ns = value,
        "cost.kernel_launch_ns" => cfg.cost.kernel_launch_ns = value,
        "cost.transfer_setup_ns" => cfg.cost.transfer_setup_ns = value,
        "cost.pageable_bw_bytes_per_us" => cfg.cost.pageable_bw_bytes_per_us = value,
        "cost.pinned_bw_bytes_per_us" => cfg.cost.pinned_bw_bytes_per_us = value,
        "cost.dtod_bw_bytes_per_us" => cfg.cost.dtod_bw_bytes_per_us = value,
        "cost.transfer_latency_ns" => cfg.cost.transfer_latency_ns = value,
        "cost.sync_entry_ns" => cfg.cost.sync_entry_ns = value,
        "cost.alloc_base_ns" => cfg.cost.alloc_base_ns = value,
        "cost.alloc_per_mib_ns" => cfg.cost.alloc_per_mib_ns = value,
        "cost.free_base_ns" => cfg.cost.free_base_ns = value,
        "cost.memset_bw_bytes_per_us" => cfg.cost.memset_bw_bytes_per_us = value,
        "cost.memset_base_ns" => cfg.cost.memset_base_ns = value,
        "cost.query_call_ns" => cfg.cost.query_call_ns = value,
        "cost.probe_overhead_ns" => cfg.cost.probe_overhead_ns = value,
        "cost.stackwalk_frame_ns" => cfg.cost.stackwalk_frame_ns = value,
        "cost.loadstore_overhead_ns" => cfg.cost.loadstore_overhead_ns = value,
        "cost.hash_bw_bytes_per_us" => cfg.cost.hash_bw_bytes_per_us = value,
        "cost.hash_base_ns" => cfg.cost.hash_base_ns = value,
        "cost.jitter_ppm" => {
            cfg.cost.jitter_ppm = u32::try_from(value)
                .map_err(|_| format!("field \"cost.jitter_ppm\" is u32; got {value}"))?;
        }
        "driver.free_implicit_sync" => cfg.driver.free_implicit_sync = as_bool(field, value)?,
        "driver.memcpy_implicit_sync" => cfg.driver.memcpy_implicit_sync = as_bool(field, value)?,
        "driver.async_dtoh_pageable_sync" => {
            cfg.driver.async_dtoh_pageable_sync = as_bool(field, value)?;
        }
        "driver.memset_unified_sync" => cfg.driver.memset_unified_sync = as_bool(field, value)?,
        "driver.unified_memset_penalty" => cfg.driver.unified_memset_penalty = value,
        "driver.device_memory_bytes" => cfg.driver.device_memory_bytes = value,
        "driver.private_api_discount" => cfg.driver.private_api_discount = as_bool(field, value)?,
        "analysis.misplaced_threshold_ns" => cfg.analysis.classify.misplaced_threshold_ns = value,
        "analysis.clamp_misplaced" => cfg.analysis.benefit.clamp_misplaced = as_bool(field, value)?,
        _ => {
            return Err(format!(
                "unknown sweep field {field:?} (expected one of: {})",
                SWEEPABLE_FIELDS.join(", ")
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_field_is_settable() {
        for field in SWEEPABLE_FIELDS {
            let mut cfg = FfmConfig::default();
            set_field(&mut cfg, field, 1).unwrap_or_else(|e| panic!("{field}: {e}"));
        }
    }

    #[test]
    fn get_field_is_the_exact_inverse_of_set_field() {
        for field in SWEEPABLE_FIELDS {
            let mut cfg = FfmConfig::default();
            set_field(&mut cfg, field, 1).unwrap_or_else(|e| panic!("{field}: {e}"));
            assert_eq!(get_field(&cfg, field).unwrap(), 1, "{field} should read back 1");
            set_field(&mut cfg, field, 0).unwrap_or_else(|e| panic!("{field}: {e}"));
            assert_eq!(get_field(&cfg, field).unwrap(), 0, "{field} should read back 0");
        }
        assert!(get_field(&FfmConfig::default(), "cost.nope").is_err());
    }

    #[test]
    fn unknown_field_and_bad_bool_are_rejected() {
        let mut cfg = FfmConfig::default();
        assert!(set_field(&mut cfg, "cost.nope", 1).is_err());
        assert!(set_field(&mut cfg, "banana", 1).is_err());
        assert!(set_field(&mut cfg, "driver.free_implicit_sync", 2).is_err());
        assert!(set_field(&mut cfg, "cost.jitter_ppm", u64::MAX).is_err());
    }

    #[test]
    fn cartesian_expansion_order_is_row_major() {
        let spec = SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", vec![1, 2])
            .axis("driver.unified_memset_penalty", vec![10, 20, 30]);
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 6);
        let got: Vec<(u64, u64)> =
            points.iter().map(|p| (p.assignment[0].1, p.assignment[1].1)).collect();
        assert_eq!(got, vec![(1, 10), (1, 20), (1, 30), (2, 10), (2, 20), (2, 30)]);
        assert_eq!(points[3].cfg.cost.free_base_ns, 2);
        assert_eq!(points[3].cfg.driver.unified_memset_penalty, 10);
    }

    #[test]
    fn paired_expansion_zips_and_checks_lengths() {
        let spec = SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", vec![1, 2])
            .axis("driver.unified_memset_penalty", vec![10, 20])
            .paired();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].cfg.cost.free_base_ns, 2);
        assert_eq!(points[1].cfg.driver.unified_memset_penalty, 20);

        let bad = SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", vec![1, 2])
            .axis("driver.unified_memset_penalty", vec![10])
            .paired();
        assert!(bad.expand().is_err());
    }

    #[test]
    fn empty_axis_and_typo_fail_before_any_run() {
        assert!(SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", vec![])
            .expand()
            .is_err());
        assert!(SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_nss", vec![1])
            .expand()
            .is_err());
    }

    #[test]
    fn a_field_named_by_two_axes_is_rejected() {
        for spec in [
            SweepSpec::new(FfmConfig::default())
                .axis("cost.free_base_ns", vec![1000, 2000])
                .axis("cost.free_base_ns", vec![3000]),
            SweepSpec::new(FfmConfig::default())
                .axis("cost.free_base_ns", vec![1, 2])
                .axis("driver.unified_memset_penalty", vec![10, 20])
                .axis("cost.free_base_ns", vec![3, 4])
                .paired(),
        ] {
            let err = spec.expand().unwrap_err();
            assert!(err.contains("\"cost.free_base_ns\""), "error names the field: {err}");
        }
    }

    #[test]
    fn oversized_grids_are_rejected_before_expanding() {
        let values = |n: u64| (0..n).collect::<Vec<u64>>();
        let wide = SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", values(100))
            .axis("cost.alloc_base_ns", values(100));
        assert!(wide.expand().unwrap_err().contains("4096"));
        // 256^8 = 2^64 cells: the count itself overflows.
        let mut overflow = SweepSpec::new(FfmConfig::default());
        for field in &SWEEPABLE_FIELDS[..8] {
            overflow = overflow.axis(*field, values(256));
        }
        assert!(overflow.expand().is_err());
        // A paired grid counts its common length, and the cap is inclusive.
        let paired = SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", values(MAX_SWEEP_CELLS as u64 + 1))
            .axis("cost.alloc_base_ns", values(MAX_SWEEP_CELLS as u64 + 1))
            .paired();
        assert!(paired.expand().is_err());
        let at_cap = SweepSpec::new(FfmConfig::default())
            .axis("cost.free_base_ns", values(64))
            .axis("cost.alloc_base_ns", values(64));
        assert_eq!(at_cap.expand().unwrap().len(), MAX_SWEEP_CELLS);
    }

    #[test]
    fn summary_picks_first_extremes_deterministically() {
        let mk = |benefit: Ns, ovh: f64| SweepCell {
            index: 0,
            assignment: vec![],
            baseline_exec_ns: 100,
            total_benefit_ns: benefit,
            benefit_pct: 0.0,
            problem_count: 0,
            sync_issues: 0,
            transfer_issues: 0,
            sequence_count: 0,
            collection_overhead_factor: ovh,
        };
        let cells = vec![mk(5, 2.0), mk(9, 1.0), mk(5, 2.0), mk(1, 3.0)];
        let s = SweepMatrix::summarize(&cells);
        assert_eq!(s.min_benefit, Some(3));
        assert_eq!(s.max_benefit, Some(1));
        assert_eq!(s.min_overhead, Some(1));
        assert_eq!(s.max_overhead, Some(3));
        assert_eq!(SweepMatrix::summarize(&[]).max_benefit, None);
    }

    #[test]
    fn spec_builders_set_cache() {
        let spec = SweepSpec::new(FfmConfig::default());
        assert_eq!(spec.cache, CacheMode::Memory);
        let spec = spec.no_cache();
        assert_eq!(spec.cache, CacheMode::Off);
        let spec = spec.disk_cache("/tmp/x");
        assert_eq!(spec.cache, CacheMode::Disk(PathBuf::from("/tmp/x")));
    }
}
