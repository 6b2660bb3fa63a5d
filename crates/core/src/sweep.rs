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
    /// directory, so a later sweep (or another shard of this one) can
    /// start warm.
    Disk(PathBuf),
}

/// One deterministic slice of a sweep grid, for distributing a sweep
/// across processes or machines: shard `k` of `n` (1-based `k`) keeps
/// exactly the cells whose global index `i` satisfies `i % n == k - 1`.
///
/// Round-robin assignment keeps each shard's workload representative of
/// the whole grid (contiguous blocks would give one shard all the
/// expensive corner of the space).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// 1-based shard number, `1 ..= n`.
    pub k: usize,
    /// Total shard count, `>= 1`.
    pub n: usize,
}

impl Shard {
    pub fn new(k: usize, n: usize) -> Result<Self, String> {
        if n == 0 {
            return Err("shard count n must be >= 1".to_string());
        }
        if k == 0 || k > n {
            return Err(format!("shard k must be in 1..={n}, got {k}"));
        }
        Ok(Self { k, n })
    }

    /// Does this shard own global cell index `i`?
    pub fn contains(&self, i: usize) -> bool {
        i % self.n == self.k - 1
    }
}

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
    /// Run only this slice of the grid (`None` = the whole grid).
    pub shard: Option<Shard>,
}

impl SweepSpec {
    pub fn new(base: FfmConfig) -> Self {
        Self {
            base,
            axes: Vec::new(),
            layout: AxisLayout::Cartesian,
            jobs: 0,
            cache: CacheMode::Memory,
            shard: None,
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

    /// Restrict the sweep to one round-robin slice of the grid.
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Expand the spec into concrete per-cell configurations, in
    /// deterministic cell order. Errors on an unknown field path, a
    /// value out of range for its field, or mismatched axis lengths in
    /// [`AxisLayout::Paired`] mode.
    pub fn expand(&self) -> Result<Vec<SweepPoint>, String> {
        for axis in &self.axes {
            if axis.values.is_empty() {
                return Err(format!("axis {:?} has no values", axis.field));
            }
            // Probe the path once up front so a typo fails before any
            // simulation work starts.
            let mut probe = self.base.clone();
            set_field(&mut probe, &axis.field, axis.values[0])?;
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
                if self.axes.is_empty() {
                    Vec::new()
                } else {
                    acc
                }
            }
            AxisLayout::Paired => {
                let Some(first) = self.axes.first() else { return Ok(Vec::new()) };
                let len = first.values.len();
                for axis in &self.axes {
                    if axis.values.len() != len {
                        return Err(format!(
                            "paired axes must have equal lengths: {:?} has {} values, {:?} has {}",
                            first.field,
                            len,
                            axis.field,
                            axis.values.len()
                        ));
                    }
                }
                (0..len)
                    .map(|i| self.axes.iter().map(|a| (a.field.clone(), a.values[i])).collect())
                    .collect()
            }
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
    /// Global cell index in the full (unsharded) grid, in expansion
    /// order. Shard documents carry it so merging can reassemble the
    /// exact unsharded cell order.
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

/// The complete result of a sweep over one application (or of one shard
/// of it).
#[derive(Debug)]
pub struct SweepMatrix {
    pub app_name: String,
    pub workload: String,
    pub axes: Vec<Axis>,
    pub layout: AxisLayout,
    /// Size of the full unsharded grid. Equals `cells.len()` unless
    /// this matrix is a shard.
    pub total_cells: usize,
    /// `Some` when this matrix holds only one slice of the grid.
    pub shard: Option<Shard>,
    /// Cells in global-index order (a shard's subsequence of it).
    pub cells: Vec<SweepCell>,
    /// Argmin/argmax over `cells` — i.e. over the shard, when sharded.
    /// Values are positions in `cells`, which for an unsharded run
    /// coincide with global indices.
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
/// (`0` = auto via `DIOGENES_JOBS` / core count), on the shared worker
/// pool. Results come back in member order; on failure the error of the
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
/// path, bad value, mismatched paired axes, bad shard) are reported as
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
    if let Some(s) = spec.shard {
        // Re-validate: the struct is plain-old-data, so a hand-built
        // (not `Shard::new`) value could smuggle in k > n.
        Shard::new(s.k, s.n)?;
    }
    let points = spec.expand()?;
    let total_cells = points.len();
    let jobs = effective_jobs(spec.jobs);
    let indexed: Vec<(usize, SweepPoint)> = points
        .into_iter()
        .enumerate()
        .filter(|(i, _)| spec.shard.is_none_or(|s| s.contains(*i)))
        .collect();
    let cells = run_fleet(indexed, jobs, |(i, p): (usize, SweepPoint)| -> CudaResult<SweepCell> {
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
        total_cells,
        shard: spec.shard,
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
    let shard_json = match m.shard {
        None => Json::Null,
        Some(s) => Json::obj([("k", Json::Int(s.k as i128)), ("n", Json::Int(s.n as i128))]),
    };
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
        ("total_cells", Json::Int(m.total_cells as i128)),
        ("shard", shard_json),
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

/// Merge shard documents (parsed `SWEEP_*.shard-K-of-N.json` files)
/// back into the document an unsharded run would have produced —
/// byte-identically, once rendered with the same writer.
///
/// Validates that every document describes the same sweep (app,
/// workload, layout, axes, `total_cells`), that each is a shard
/// artifact with a consistent `n`, no duplicated `k`, and that the
/// union of cells covers every global index exactly once. The summary
/// is recomputed over the merged cells; because JSON numbers round-trip
/// exactly through [`Json`], the recomputed argmin/argmax matches what
/// the unsharded run computed from the in-memory floats.
pub fn merge_sweep_docs(docs: &[Json]) -> Result<Json, String> {
    let mut fold = SweepMergeFold::new();
    for d in docs {
        fold.add_doc(d)?;
    }
    fold.finish()
}

/// The header keys every shard must agree on, in validation order.
const MERGE_HEADER_KEYS: [&str; 5] = ["app", "workload", "layout", "axes", "total_cells"];

/// Incremental shard merge: feed parsed shard documents one at a time
/// through [`SweepMergeFold::add_doc`] (a binary shard is decoded to its
/// document first), then [`SweepMergeFold::finish`]. Produces the
/// document an unsharded run would have, byte-identically once
/// rendered, regardless of how each shard arrived. Peak memory is the
/// merged cell set plus one shard document, not every shard at once.
#[derive(Default)]
pub struct SweepMergeFold {
    docs_seen: usize,
    /// Doc-0 values for [`MERGE_HEADER_KEYS`], in that order.
    header: Option<[Json; 5]>,
    total: usize,
    shard_n: Option<i128>,
    seen_k: Vec<i128>,
    cells: Vec<(usize, Json)>,
}

impl SweepMergeFold {
    pub fn new() -> SweepMergeFold {
        SweepMergeFold::default()
    }

    /// Fold in one parsed shard document.
    pub fn add_doc(&mut self, d: &Json) -> Result<(), String> {
        let i = self.docs_seen;
        if let Some(first) = &self.header {
            for (key, value) in MERGE_HEADER_KEYS.iter().zip(first) {
                if d.get(key) != Some(value) {
                    return Err(format!("shard document {i} disagrees with document 0 on {key:?}"));
                }
            }
        } else {
            let mut header = Vec::with_capacity(MERGE_HEADER_KEYS.len());
            for key in MERGE_HEADER_KEYS {
                let Some(v) = d.get(key) else {
                    return Err(format!("shard document {i} is missing {key:?}"));
                };
                header.push(v.clone());
            }
            // The grid size comes from the file: it is checked against
            // the cells actually present in `finish`, never trusted as
            // an allocation size.
            self.total = header[4]
                .as_i128()
                .and_then(|t| usize::try_from(t).ok())
                .ok_or("total_cells is not a non-negative integer")?;
            self.header = Some(header.try_into().expect("five header keys"));
        }

        let shard = d.get("shard").ok_or(format!("shard document {i} is missing \"shard\""))?;
        if matches!(shard, Json::Null) {
            return Err(format!(
                "document {i} is not a shard artifact (\"shard\" is null); \
                 merging already-complete sweeps is not meaningful"
            ));
        }
        let k = shard.get("k").and_then(Json::as_i128);
        let n = shard.get("n").and_then(Json::as_i128);
        let (Some(k), Some(n)) = (k, n) else {
            return Err(format!("document {i} has a malformed \"shard\" object"));
        };
        match self.shard_n {
            None => self.shard_n = Some(n),
            Some(expect) if n != expect => {
                return Err(format!(
                    "document {i} is a shard of {n}, but earlier documents are shards of {expect}"
                ));
            }
            _ => {}
        }
        if self.seen_k.contains(&k) {
            return Err(format!("shard {k}/{n} appears more than once"));
        }
        self.seen_k.push(k);

        let arr = d
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or(format!("document {i} has no \"cells\" array"))?;
        self.cells.reserve(arr.len());
        for cell in arr {
            let idx = cell
                .get("cell")
                .and_then(Json::as_i128)
                .and_then(|c| usize::try_from(c).ok())
                .ok_or(format!("document {i} has a cell without a \"cell\" index"))?;
            self.cells.push((idx, cell.clone()));
        }
        self.docs_seen += 1;
        Ok(())
    }

    /// Check coverage, recompute the summary over the full grid, and
    /// assemble the merged document. Shard-local summaries are
    /// discarded: their argmins only saw a slice.
    pub fn finish(self) -> Result<Json, String> {
        if self.docs_seen == 0 {
            return Err("no shard documents to merge".to_string());
        }
        let total = self.total;
        let mut cells = self.cells;
        cells.sort_by_key(|(i, _)| *i);
        if cells.len() != total {
            return Err(format!(
                "merged shards hold {} cells but the grid has {total}; \
                 a shard is missing or extra",
                cells.len()
            ));
        }
        for (pos, (idx, _)) in cells.iter().enumerate() {
            if *idx != pos {
                return Err(format!(
                    "cell coverage is broken at global index {pos} (found index {idx}); \
                     duplicate or missing shard cells"
                ));
            }
        }
        let cells: Vec<Json> = cells.into_iter().map(|(_, c)| c).collect();

        let int_of = |c: &Json, key: &str| -> Result<i128, String> {
            c.get(key).and_then(Json::as_i128).ok_or(format!("cell is missing integer {key:?}"))
        };
        let float_of = |c: &Json, key: &str| -> Result<f64, String> {
            c.get(key).and_then(Json::as_f64).ok_or(format!("cell is missing number {key:?}"))
        };
        let mut benefit: Vec<i128> = Vec::with_capacity(cells.len());
        let mut overhead: Vec<f64> = Vec::with_capacity(cells.len());
        for c in &cells {
            benefit.push(int_of(c, "total_benefit_ns")?);
            overhead.push(float_of(c, "collection_overhead_factor")?);
        }
        fn arg<T: PartialOrd + Copy>(xs: &[T], better: fn(T, T) -> bool) -> Json {
            let mut best: Option<usize> = None;
            for (i, &x) in xs.iter().enumerate() {
                match best {
                    None => best = Some(i),
                    Some(b) if better(x, xs[b]) => best = Some(i),
                    _ => {}
                }
            }
            best.map(|i| Json::Int(i as i128)).unwrap_or(Json::Null)
        }

        let [app, workload, layout, axes, _] = self.header.expect("docs_seen > 0 implies header");
        Ok(Json::obj([
            ("app", app),
            ("workload", workload),
            ("layout", layout),
            ("axes", axes),
            ("total_cells", Json::Int(total as i128)),
            ("shard", Json::Null),
            ("cells", Json::Arr(cells)),
            (
                "summary",
                Json::obj([
                    ("min_benefit_cell", arg(&benefit, |a, b| a < b)),
                    ("max_benefit_cell", arg(&benefit, |a, b| a > b)),
                    ("min_overhead_cell", arg(&overhead, |a, b| a < b)),
                    ("max_overhead_cell", arg(&overhead, |a, b| a > b)),
                ]),
            ),
        ]))
    }
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
    use crate::codec;

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
    fn shard_validation_and_round_robin_slicing() {
        assert!(Shard::new(0, 2).is_err());
        assert!(Shard::new(3, 2).is_err());
        assert!(Shard::new(1, 0).is_err());
        let total = 7;
        for n in 1..=4usize {
            let mut covered = vec![0usize; total];
            for k in 1..=n {
                let s = Shard::new(k, n).unwrap();
                for (i, slot) in covered.iter_mut().enumerate() {
                    if s.contains(i) {
                        *slot += 1;
                    }
                }
            }
            assert_eq!(covered, vec![1; total], "shards of {n} must partition the grid");
        }
        let s = Shard::new(2, 3).unwrap();
        let mine: Vec<usize> = (0..10).filter(|&i| s.contains(i)).collect();
        assert_eq!(mine, vec![1, 4, 7]);
    }

    /// A synthetic shard document with the given shard tag and cells.
    fn shard_doc(shard: Json, indices: &[usize]) -> Json {
        let cell = |i: usize| {
            Json::obj([
                ("cell", Json::Int(i as i128)),
                ("total_benefit_ns", Json::Int(100 - i as i128)),
                ("collection_overhead_factor", Json::Float(1.0 + i as f64)),
            ])
        };
        Json::obj([
            ("app", Json::Str("demo".into())),
            ("workload", Json::Str("w".into())),
            ("layout", Json::Str("cartesian".into())),
            ("axes", Json::Arr(vec![])),
            ("total_cells", Json::Int(4)),
            ("shard", shard),
            ("cells", Json::Arr(indices.iter().map(|&i| cell(i)).collect())),
            ("summary", Json::Null),
        ])
    }

    fn shard_tag(k: usize, n: usize) -> Json {
        Json::obj([("k", Json::Int(k as i128)), ("n", Json::Int(n as i128))])
    }

    #[test]
    fn merge_reassembles_cells_and_recomputes_summary() {
        let a = shard_doc(shard_tag(1, 2), &[0, 2]);
        let b = shard_doc(shard_tag(2, 2), &[1, 3]);
        // Order of documents must not matter.
        for docs in [[a.clone(), b.clone()], [b, a]] {
            let merged = merge_sweep_docs(&docs).unwrap();
            assert!(matches!(merged.get("shard"), Some(Json::Null)));
            let cells = merged.get("cells").and_then(Json::as_arr).unwrap();
            let order: Vec<i128> =
                cells.iter().map(|c| c.get("cell").and_then(Json::as_i128).unwrap()).collect();
            assert_eq!(order, vec![0, 1, 2, 3]);
            let summary = merged.get("summary").unwrap();
            // benefit = 100 - i (max at 0); overhead = 1 + i (max at 3).
            assert_eq!(summary.get("max_benefit_cell").and_then(Json::as_i128), Some(0));
            assert_eq!(summary.get("min_benefit_cell").and_then(Json::as_i128), Some(3));
            assert_eq!(summary.get("min_overhead_cell").and_then(Json::as_i128), Some(0));
            assert_eq!(summary.get("max_overhead_cell").and_then(Json::as_i128), Some(3));
        }
    }

    #[test]
    fn merge_rejects_malformed_shard_sets() {
        let a = shard_doc(shard_tag(1, 2), &[0, 2]);
        let b = shard_doc(shard_tag(2, 2), &[1, 3]);
        // Missing shard.
        assert!(merge_sweep_docs(std::slice::from_ref(&a)).unwrap_err().contains("grid has 4"));
        // Duplicate k.
        assert!(merge_sweep_docs(&[a.clone(), a.clone()]).unwrap_err().contains("more than once"));
        // Mismatched n.
        let c = shard_doc(shard_tag(1, 3), &[0, 3]);
        assert!(merge_sweep_docs(&[c, b]).unwrap_err().contains("shards of"));
        // Unsharded doc in the mix.
        let full = shard_doc(Json::Null, &[0, 1, 2, 3]);
        assert!(merge_sweep_docs(&[full]).unwrap_err().contains("not a shard artifact"));
        // Header disagreement.
        let mut renamed = shard_doc(shard_tag(2, 2), &[1, 3]);
        if let Json::Obj(fields) = &mut renamed {
            fields[0].1 = Json::Str("other".into());
        }
        assert!(merge_sweep_docs(&[a.clone(), renamed]).unwrap_err().contains("disagrees"));
        // Overlapping cells (1 appears twice, 3 missing).
        let overlap = shard_doc(shard_tag(2, 2), &[1, 1]);
        assert!(merge_sweep_docs(&[a, overlap]).unwrap_err().contains("coverage"));
        assert!(merge_sweep_docs(&[]).is_err());
        // Hostile grid sizes are errors, not allocations.
        for total in [1_099_511_627_776i128, 1_000_000_000_000_000_000, i128::MAX] {
            // Valid shards of a 4-cell grid in every field but this one.
            let hostile = [(1, [0, 2]), (2, [1, 3])].map(|(k, cells)| {
                let mut d = shard_doc(shard_tag(k, 2), &cells);
                if let Json::Obj(fields) = &mut d {
                    fields[4].1 = Json::Int(total);
                }
                d
            });
            assert!(merge_sweep_docs(&hostile).is_err(), "total_cells {total}");
        }
    }

    #[test]
    fn ffb_and_json_shards_merge_identically() {
        let mk = |k: usize, indices: &[usize]| -> SweepMatrix {
            let cells: Vec<SweepCell> = indices
                .iter()
                .map(|&i| SweepCell {
                    index: i,
                    assignment: vec![("cost.driver_call_ns".to_string(), 100 + i as u64)],
                    baseline_exec_ns: 1_000 + i as u64,
                    total_benefit_ns: 100 - i as u64,
                    benefit_pct: 1.5 * i as f64,
                    problem_count: i,
                    sync_issues: i % 2,
                    transfer_issues: i / 2,
                    sequence_count: 1,
                    collection_overhead_factor: 1.0 + i as f64,
                })
                .collect();
            let summary = SweepMatrix::summarize(&cells);
            SweepMatrix {
                app_name: "demo".into(),
                workload: "w".into(),
                axes: vec![Axis::new("cost.driver_call_ns", vec![100, 101, 102, 103])],
                layout: AxisLayout::Cartesian,
                total_cells: 4,
                shard: Some(Shard::new(k, 2).unwrap()),
                cells,
                summary,
                cache_stats: None,
            }
        };
        let a = mk(1, &[0, 2]);
        let b = mk(2, &[1, 3]);
        let expect = merge_sweep_docs(&[sweep_to_json(&a), sweep_to_json(&b)]).unwrap();
        let decoded = |m: &SweepMatrix| {
            codec::decode_any_doc(&codec::encode_sweep(m).unwrap()).expect("sweep decodes")
        };

        // Binary-only fold: each container decodes to its document, and
        // the merged document is identical.
        let mut fold = SweepMergeFold::new();
        fold.add_doc(&decoded(&a)).unwrap();
        fold.add_doc(&decoded(&b)).unwrap();
        assert_eq!(fold.finish().unwrap(), expect);

        // Mixed binary + JSON shards, either order, render-identically.
        let mut fold = SweepMergeFold::new();
        fold.add_doc(&sweep_to_json(&b)).unwrap();
        fold.add_doc(&decoded(&a)).unwrap();
        assert_eq!(fold.finish().unwrap(), expect);
        let mut fold = SweepMergeFold::new();
        fold.add_doc(&decoded(&a)).unwrap();
        fold.add_doc(&sweep_to_json(&b)).unwrap();
        let mut r1 = Vec::new();
        fold.finish().unwrap().write_pretty(&mut r1).unwrap();
        let mut r2 = Vec::new();
        expect.write_pretty(&mut r2).unwrap();
        assert_eq!(r1, r2);

        // A complete (unsharded) binary sweep is rejected like its JSON
        // counterpart.
        let mut full = mk(1, &[0, 1, 2, 3]);
        full.shard = None;
        full.summary = SweepMatrix::summarize(&full.cells);
        let mut fold = SweepMergeFold::new();
        assert!(fold.add_doc(&decoded(&full)).unwrap_err().contains("not a shard artifact"));
    }

    #[test]
    fn spec_builders_set_cache_and_shard() {
        let spec = SweepSpec::new(FfmConfig::default());
        assert_eq!(spec.cache, CacheMode::Memory);
        assert!(spec.shard.is_none());
        let spec = spec.no_cache().with_shard(Shard::new(1, 2).unwrap());
        assert_eq!(spec.cache, CacheMode::Off);
        assert_eq!(spec.shard, Some(Shard { k: 1, n: 2 }));
        let spec = spec.disk_cache("/tmp/x");
        assert_eq!(spec.cache, CacheMode::Disk(PathBuf::from("/tmp/x")));
    }
}
