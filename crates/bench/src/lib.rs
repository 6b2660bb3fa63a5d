//! # diogenes-bench — experiment regenerators
//!
//! Text renderers and helpers shared by the per-table/per-figure binaries
//! (`table1`, `table2`, `figure4`, `figure6`, `figure7`, `figure8`,
//! `overhead`, `cupti_gaps`, `ablations`), plus the environment stamp
//! `layerbench` records with every run.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;

use diogenes::experiments::{significant_rows, Table1Row, Table2};
use gpu_sim::Ns;

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

/// Render one application's Table 2 block.
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

/// Whether the regenerator binaries should run at paper scale (default)
/// or quick test scale (`DIOGENES_SCALE=test`).
pub fn paper_scale_from_env() -> bool {
    std::env::var("DIOGENES_SCALE").map(|v| v != "test").unwrap_or(true)
}

/// The repository's HEAD revision, if a `git` binary and repo are
/// reachable from the working directory — benches must still run (and
/// record `null`) from an exported tarball.
pub fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        None
    } else {
        Some(rev)
    }
}

/// The environment block stamped into every `layerbench` run so runs
/// are comparable across machines and PRs: worker budget, core count,
/// cost-model name, git revision.
pub fn bench_meta(jobs: usize, cost_model: &str) -> ffm_core::Json {
    use ffm_core::Json;
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    Json::obj([
        ("jobs", Json::Int(jobs as i128)),
        ("cores", Json::Int(cores as i128)),
        ("cost_model", Json::Str(cost_model.to_string())),
        (
            "git_rev",
            match git_rev() {
                Some(rev) => Json::Str(rev),
                None => Json::Null,
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bench_meta_has_all_comparison_fields() {
        let s = bench_meta(4, "pascal_like").to_string_compact();
        for key in ["\"jobs\":4", "\"cores\"", "\"cost_model\":\"pascal_like\"", "\"git_rev\""] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }

    #[test]
    fn table2_crash_renders_like_the_paper() {
        let t = Table2 {
            app: "cuIBM".into(),
            nvprof_crashed: true,
            rows: vec![diogenes::experiments::Table2Row {
                operation: "cudaFree".into(),
                nvprof: None,
                hpctoolkit: Some((1_000, 10.0, 1)),
                diogenes: Some((900, 9.0, 1)),
            }],
        };
        let s = render_table2(&t, 0.5);
        assert!(s.contains("Profiler Crashed"), "{s}");
    }
}
