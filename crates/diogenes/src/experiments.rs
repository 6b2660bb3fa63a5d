//! Experiment harness: regenerates the paper's tables (shared by the
//! bench binaries and the integration tests).

use std::fmt::Write as _;

use cuda_driver::{uninstrumented_exec_time, ApiFn, CudaResult, GpuApp};
use ffm_core::run_fleet;
use gpu_sim::{CostModel, Ns};
use profilers::{run_hpctoolkit, run_nvprof, HpctoolkitConfig, NvprofConfig};

use crate::tool::{run_diogenes, DiogenesConfig, DiogenesResult};

/// One application's broken and fixed builds plus metadata, as a Table 1
/// subject.
pub struct Subject {
    pub broken: Box<dyn GpuApp>,
    pub fixed: Box<dyn GpuApp>,
    /// Paper metadata for the table.
    pub organization: &'static str,
    pub description: &'static str,
    /// Label of the issue classes fixed ("Sync and Mem Trans").
    pub issues: &'static str,
    /// The API functions the fix targets; the estimated benefit reported
    /// in Table 1 is the expected benefit Diogenes attributes to these.
    pub fix_targets: Vec<ApiFn>,
}

/// The four paper subjects at a given scale.
pub fn paper_subjects(paper_scale: bool) -> Vec<Subject> {
    use diogenes_apps::*;
    let (als_cfg, ibm_cfg, amg_cfg, g_cfg) = if paper_scale {
        (
            AlsConfig::paper_scale(),
            CuibmConfig::paper_scale(),
            AmgConfig::paper_scale(),
            GaussianConfig::paper_scale(),
        )
    } else {
        (
            AlsConfig::test_scale(),
            CuibmConfig::test_scale(),
            AmgConfig::test_scale(),
            GaussianConfig::test_scale(),
        )
    };
    vec![
        Subject {
            broken: Box::new(CumfAls::new(als_cfg.clone())),
            fixed: Box::new(CumfAls::new(AlsConfig { fixes: AlsFixes::all(), ..als_cfg })),
            organization: "IBM/UIUC",
            description: "Matrix Factorization",
            issues: "Sync and Mem Trans",
            fix_targets: vec![ApiFn::CudaFree, ApiFn::CudaMemcpy, ApiFn::CudaDeviceSynchronize],
        },
        Subject {
            broken: Box::new(CuIbm::new(ibm_cfg.clone())),
            fixed: Box::new(CuIbm::new(CuibmConfig { fixes: CuibmFixes::all(), ..ibm_cfg })),
            organization: "Boston University",
            description: "Immersed Boundary Method",
            issues: "Sync",
            fix_targets: vec![ApiFn::CudaFree, ApiFn::CudaMemcpyAsync],
        },
        Subject {
            broken: Box::new(Amg::new(amg_cfg.clone())),
            fixed: Box::new(Amg::new(AmgConfig { fixes: AmgFixes::all(), ..amg_cfg })),
            organization: "LLNL",
            description: "Algebraic Multigrid Solver",
            issues: "Sync",
            fix_targets: vec![ApiFn::CudaMemset],
        },
        Subject {
            broken: Box::new(Gaussian::new(g_cfg.clone())),
            fixed: Box::new(Gaussian::new(GaussianConfig { fixes: GaussianFixes::all(), ..g_cfg })),
            organization: "UVA",
            description: "Gaussian (CUDA)",
            issues: "Sync",
            fix_targets: vec![ApiFn::CudaThreadSynchronize],
        },
    ]
}

/// One Table 1 row: estimated vs. actual benefit.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub app: String,
    pub organization: &'static str,
    pub description: &'static str,
    pub issues: &'static str,
    pub baseline_ns: Ns,
    /// Diogenes' expected benefit for the issues the fix addresses.
    pub estimated_ns: Ns,
    pub estimated_pct: f64,
    /// Measured runtime reduction of the fixed build.
    pub actual_ns: Ns,
    pub actual_pct: f64,
}

impl Table1Row {
    /// Estimate accuracy as the paper computes it (est within actual):
    /// `min/max` of the two, as a percentage.
    pub fn accuracy_pct(&self) -> f64 {
        let (lo, hi) = if self.estimated_ns <= self.actual_ns {
            (self.estimated_ns, self.actual_ns)
        } else {
            (self.actual_ns, self.estimated_ns)
        };
        if hi == 0 {
            100.0
        } else {
            lo as f64 * 100.0 / hi as f64
        }
    }
}

/// Produce one Table 1 row.
pub fn table1_row(subject: &Subject, cost: &CostModel) -> CudaResult<(Table1Row, DiogenesResult)> {
    let result = run_diogenes(subject.broken.as_ref(), DiogenesConfig::new())?;
    let a = &result.report.analysis;
    let estimated_ns: Ns = a
        .by_api
        .iter()
        .filter(|(api, _)| subject.fix_targets.contains(api))
        .map(|(_, ns)| *ns)
        .sum();
    let t_broken = uninstrumented_exec_time(subject.broken.as_ref(), cost.clone())?;
    let t_fixed = uninstrumented_exec_time(subject.fixed.as_ref(), cost.clone())?;
    let actual_ns = t_broken.saturating_sub(t_fixed);
    let row = Table1Row {
        app: subject.broken.name().to_string(),
        organization: subject.organization,
        description: subject.description,
        issues: subject.issues,
        baseline_ns: t_broken,
        estimated_ns,
        estimated_pct: estimated_ns as f64 * 100.0 / t_broken.max(1) as f64,
        actual_ns,
        actual_pct: actual_ns as f64 * 100.0 / t_broken.max(1) as f64,
    };
    Ok((row, result))
}

/// Produce every Table 1 row, running up to `jobs` subjects' pipelines
/// concurrently (`0` = auto via `DIOGENES_JOBS` / core count). Each
/// subject is a completely independent set of simulator runs, so results
/// are identical to the sequential loop and returned in subject order.
pub fn table1_rows(
    subjects: Vec<Subject>,
    cost: &CostModel,
    jobs: usize,
) -> CudaResult<Vec<(Table1Row, DiogenesResult)>> {
    run_fleet(subjects, jobs, |s| table1_row(&s, cost))
}

/// One operation row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub operation: String,
    /// (time, % of that tool's exec, position) per tool; `None` = the
    /// tool reported nothing for this operation.
    pub nvprof: Option<(Ns, f64, usize)>,
    pub hpctoolkit: Option<(Ns, f64, usize)>,
    /// Diogenes reports expected *savings*, not consumption.
    pub diogenes: Option<(Ns, f64, usize)>,
}

/// Table 2 for one application.
#[derive(Debug)]
pub struct Table2 {
    pub app: String,
    pub nvprof_crashed: bool,
    pub rows: Vec<Table2Row>,
}

/// Regenerate the Table 2 comparison for one application.
pub fn table2_for(app: &dyn GpuApp, cost: &CostModel) -> CudaResult<Table2> {
    let nv = run_nvprof(app, cost, &NvprofConfig::default())?;
    let hp = run_hpctoolkit(app, cost, &HpctoolkitConfig::default())?;
    let dg = run_diogenes(app, DiogenesConfig::new())?;
    let analysis = &dg.report.analysis;

    let nv_profile = nv.profile();
    let hp_profile = hp.profile();

    // Row universe: every operation any tool reported, ordered by NVProf
    // position (the paper sorts by NVProf's summary), falling back to
    // HPCToolkit order when NVProf crashed.
    let mut names: Vec<String> = Vec::new();
    if let Some(p) = nv_profile {
        names.extend(p.entries.iter().map(|e| e.name.clone()));
    } else if let Some(p) = hp_profile {
        names.extend(
            p.entries.iter().filter(|e| e.name != "<unwind failure>").map(|e| e.name.clone()),
        );
    }
    for (api, _) in &analysis.by_api {
        if !names.iter().any(|n| n == api.name()) {
            names.push(api.name().to_string());
        }
    }

    let rows = names
        .into_iter()
        .map(|operation| {
            let nvprof = nv_profile
                .and_then(|p| p.entry(&operation))
                .map(|e| (e.total_ns, e.percent, e.position));
            let hpctoolkit = hp_profile
                .and_then(|p| p.entry(&operation))
                .map(|e| (e.total_ns, e.percent, e.position));
            let diogenes =
                analysis.by_api.iter().find(|(a, _)| a.name() == operation).map(|(a, ns)| {
                    (*ns, analysis.percent(*ns), analysis.api_rank(*a).unwrap_or(0))
                });
            Table2Row { operation, nvprof, hpctoolkit, diogenes }
        })
        .collect();

    Ok(Table2 { app: app.name().to_string(), nvprof_crashed: nv.crashed(), rows })
}

/// [`table2_for`] across a whole subject fleet, `jobs` at a time
/// (`0` = auto). Order and content match the sequential loop.
pub fn table2_all(
    subjects: Vec<Subject>,
    cost: &CostModel,
    jobs: usize,
) -> CudaResult<Vec<Table2>> {
    run_fleet(subjects, jobs, |s| table2_for(s.broken.as_ref(), cost))
}

/// Keep only rows the paper's Table 2 would show (something reported by
/// at least one tool, with the noise rows removed).
pub fn significant_rows(t: &Table2, min_pct: f64) -> Vec<&Table2Row> {
    t.rows
        .iter()
        .filter(|r| {
            r.nvprof.map(|x| x.1).unwrap_or(0.0) >= min_pct
                || r.hpctoolkit.map(|x| x.1).unwrap_or(0.0) >= min_pct
                || r.diogenes.map(|x| x.1).unwrap_or(0.0) >= min_pct
        })
        .collect()
}

/// Seconds with four decimals (virtual ns rendered the way the paper
/// prints seconds).
pub fn secs(ns: Ns) -> String {
    format!("{:.4}s", ns as f64 / 1e9)
}

/// Render Table 1 ("Applications improved by correcting a subset of
/// Diogenes discovered issues").
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ =
        writeln!(out, "Table 1: Applications improved by correcting Diogenes-discovered issues");
    let _ = writeln!(
        out,
        "{:<18} {:<18} {:<26} {:<20} {:>22} {:>22} {:>9}",
        "Application",
        "Organization",
        "Description",
        "Discovered Issues",
        "Estimated Benefit",
        "Actual Reduction",
        "Accuracy"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:<18} {:<26} {:<20} {:>12} ({:4.1}%) {:>12} ({:4.1}%) {:>8.0}%",
            r.app,
            r.organization,
            r.description,
            r.issues,
            secs(r.estimated_ns),
            r.estimated_pct,
            secs(r.actual_ns),
            r.actual_pct,
            r.accuracy_pct()
        );
    }
    out
}

fn cell(v: Option<(Ns, f64, usize)>) -> String {
    match v {
        Some((ns, pct, pos)) => format!("{} ({:.1}%, {})", secs(ns), pct, pos),
        None => "-".to_string(),
    }
}

/// Render one application's Table 2 block: the [`significant_rows`] at
/// `min_pct`.
pub fn render_table2(t: &Table2, min_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", t.app);
    let _ = writeln!(
        out,
        "{:<26} {:>30} {:>30} {:>30}",
        "Operation", "NVProf Profiled", "HPCToolkit Profiled", "Diogenes Est. Savings"
    );
    let rows = significant_rows(t, min_pct);
    for (i, r) in rows.iter().enumerate() {
        let nv = if t.nvprof_crashed && i == 0 {
            "Profiler Crashed".to_string()
        } else if t.nvprof_crashed {
            String::new()
        } else {
            cell(r.nvprof)
        };
        let _ = writeln!(
            out,
            "{:<26} {:>30} {:>30} {:>30}",
            r.operation,
            nv,
            cell(r.hpctoolkit),
            cell(r.diogenes)
        );
    }
    out
}

/// The overhead experiment (paper §5.3: data collection costs 8×–20× of
/// the original execution time).
pub fn overhead_factor(app: &dyn GpuApp) -> CudaResult<f64> {
    let r = crate::tool::run_diogenes(app, DiogenesConfig::new())?;
    Ok(r.report.collection_overhead_factor())
}

/// [`overhead_factor`]'s full report across a subject fleet, `jobs` at a
/// time (`0` = auto): one complete Diogenes result per subject, in
/// subject order, for the §5.3 per-stage overhead table.
pub fn overhead_reports(subjects: Vec<Subject>, jobs: usize) -> CudaResult<Vec<DiogenesResult>> {
    run_fleet(subjects, jobs, |s| run_diogenes(s.broken.as_ref(), DiogenesConfig::new()))
}

/// [`cupti_sync_gap`] across a subject fleet, `jobs` at a time
/// (`0` = auto): `(app name, (cupti_sync_records, actual_waits))` per
/// subject, in subject order.
pub fn cupti_gaps(
    subjects: Vec<Subject>,
    cost: &CostModel,
    jobs: usize,
) -> CudaResult<Vec<(String, (u64, u64))>> {
    run_fleet(subjects, jobs, |s| {
        let name = s.broken.name().to_string();
        cupti_sync_gap(s.broken.as_ref(), cost).map(|gap| (name, gap))
    })
}

/// How CUPTI undercounts synchronizations vs. ground truth for an app
/// (the §2.2 experiment). Returns (cupti_sync_records, actual_waits).
pub fn cupti_sync_gap(app: &dyn GpuApp, cost: &CostModel) -> CudaResult<(u64, u64)> {
    use cupti_sim::{ActivityKind, Cupti, CuptiConfig};
    let mut cuda = cuda_driver::Cuda::new(cost.clone());
    let cupti = Cupti::attach(&mut cuda, CuptiConfig::default());
    app.run(&mut cuda)?;
    let records = cupti
        .borrow()
        .buffer()
        .records()
        .iter()
        .filter(|r| r.kind == ActivityKind::Synchronization)
        .count() as u64;
    let actual = cuda.machine.timeline.waits().count() as u64;
    Ok((records, actual))
}

#[cfg(test)]
mod tests {
    use super::*;
    use diogenes_apps::{AlsConfig, CumfAls};

    #[test]
    fn secs_formats() {
        assert_eq!(secs(1_500_000_000), "1.5000s");
    }

    #[test]
    fn table1_renders_all_columns() {
        let rows = vec![Table1Row {
            app: "cumf_als".into(),
            organization: "IBM/UIUC",
            description: "Matrix Factorization",
            issues: "Sync and Mem Trans",
            baseline_ns: 1_000_000,
            estimated_ns: 100_000,
            estimated_pct: 10.0,
            actual_ns: 80_000,
            actual_pct: 8.0,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("cumf_als"));
        assert!(s.contains("80%"), "{s}");
    }

    #[test]
    fn table2_crash_renders_like_the_paper() {
        let t = Table2 {
            app: "cuIBM".into(),
            nvprof_crashed: true,
            rows: vec![Table2Row {
                operation: "cudaFree".into(),
                nvprof: None,
                hpctoolkit: Some((1_000, 10.0, 1)),
                diogenes: Some((900, 9.0, 1)),
            }],
        };
        let s = render_table2(&t, 0.5);
        assert!(s.contains("Profiler Crashed"), "{s}");
    }

    #[test]
    fn table1_row_for_als_has_sane_shape() {
        let subjects = paper_subjects(false);
        let (row, _res) = table1_row(&subjects[0], &CostModel::pascal_like()).unwrap();
        assert_eq!(row.app, "cumf_als");
        assert!(row.estimated_ns > 0);
        assert!(row.actual_ns > 0);
        assert!(row.estimated_pct > 1.0 && row.estimated_pct < 60.0, "{row:?}");
        assert!(row.accuracy_pct() > 30.0, "accuracy {}", row.accuracy_pct());
    }

    #[test]
    fn fleet_rows_are_jobs_invariant() {
        let cost = CostModel::pascal_like();
        let take2 = || paper_subjects(false).into_iter().take(2).collect::<Vec<_>>();
        let seq = table1_rows(take2(), &cost, 1).unwrap();
        let par = table1_rows(take2(), &cost, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for ((a, _), (b, _)) in seq.iter().zip(&par) {
            assert_eq!(a.app, b.app, "subject order preserved");
            assert_eq!(a.estimated_ns, b.estimated_ns);
            assert_eq!(a.actual_ns, b.actual_ns);
            assert_eq!(a.baseline_ns, b.baseline_ns);
        }
    }

    #[test]
    fn cupti_gap_is_real_on_als() {
        let mut cfg = AlsConfig::test_scale();
        cfg.iters = 3;
        let app = CumfAls::new(cfg);
        let (records, actual) = cupti_sync_gap(&app, &CostModel::pascal_like()).unwrap();
        assert!(records < actual / 2, "CUPTI must miss most syncs: {records} vs {actual}");
        assert!(records > 0, "explicit syncs are recorded");
    }
}
