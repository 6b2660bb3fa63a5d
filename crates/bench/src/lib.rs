//! # diogenes-bench — experiment regenerators
//!
//! Helpers shared by the per-table/per-figure binaries (`table1`,
//! `table2`, `figure4`, `figure6`, `figure7`, `figure8`, `overhead`,
//! `cupti_gaps`, `ablations`), plus the environment stamp `layerbench`
//! records with every run. The table renderers live next to the tables
//! in `diogenes::experiments`.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

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
    fn bench_meta_has_all_comparison_fields() {
        let s = bench_meta(4, "pascal_like").to_string_compact();
        for key in ["\"jobs\":4", "\"cores\"", "\"cost_model\":\"pascal_like\"", "\"git_rev\""] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
    }
}
