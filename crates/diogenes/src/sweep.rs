//! The `diogenes sweep` subcommand: declarative configuration grids from
//! the command line, executed by [`ffm_core::sweep`] and written to
//! `results/SWEEP_<app>.json`.
//!
//! An axis argument is `--axis field=v1,v2,...` with field paths from
//! [`ffm_core::SWEEPABLE_FIELDS`] (e.g. `cost.free_base_ns`,
//! `driver.unified_memset_penalty`). With no `--axis` the default 3×3
//! cost/driver grid below is swept. The JSON artifact is byte-identical
//! at every `--jobs` setting.
//!
//! Distribution: `--shard k/n` runs one deterministic round-robin slice
//! of the grid and writes `results/SWEEP_<app>.shard-k-of-n.json` (or
//! `.ffb` under `--format bin`); `--merge` folds the shard files — either
//! format, freely mixed — back into the unsharded `results/SWEEP_<app>.json`,
//! byte-identical to a single-process run.
//! Stage artifacts are memoized across cells (on disk under
//! `results/cache/` by default; `--no-cache` disables, `--cache-dir`
//! redirects) — caching changes speed, never bytes.

use crate::artifact::{load_doc, OutFormat};
use cuda_driver::GpuApp;
use ffm_core::{
    run_sweep, sweep_to_json, Axis, FfmConfig, Json, Shard, SweepMatrix, SweepMergeFold, SweepSpec,
};

/// Parse one `--axis` argument of the form `field=v1,v2,...`.
pub fn parse_axis_arg(arg: &str) -> Result<Axis, String> {
    let (field, values) = arg
        .split_once('=')
        .ok_or_else(|| format!("axis {arg:?} must look like field=v1,v2,..."))?;
    if field.is_empty() {
        return Err(format!("axis {arg:?} has an empty field path"));
    }
    let values = values
        .split(',')
        .map(|v| {
            v.trim()
                .parse::<u64>()
                .map_err(|_| format!("axis {arg:?}: {v:?} is not a non-negative integer"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    if values.is_empty() {
        return Err(format!("axis {arg:?} has no values"));
    }
    Ok(Axis::new(field, values))
}

/// The default grid when no `--axis` is given: a 3×3 cartesian sweep of
/// the `cudaFree` CPU cost against the unified-memset penalty — the two
/// knobs behind the paper's dominant pathologies (cumf_als/cuIBM frees,
/// the AMG memset).
pub fn default_axes() -> Vec<Axis> {
    vec![
        Axis::new("cost.free_base_ns", vec![1_000, 2_000, 4_000]),
        Axis::new("driver.unified_memset_penalty", vec![1, 30, 60]),
    ]
}

/// Build the spec for a CLI invocation.
pub fn build_spec(axes: Vec<Axis>, paired: bool, jobs: usize) -> SweepSpec {
    let mut spec = SweepSpec::new(FfmConfig::default()).with_jobs(jobs);
    spec.axes = if axes.is_empty() { default_axes() } else { axes };
    if paired {
        spec = spec.paired();
    }
    spec
}

/// Run the sweep and return the matrix plus its document model (the
/// caller picks the serialization: pretty JSON or FFB).
pub fn run_sweep_cli(app: &dyn GpuApp, spec: &SweepSpec) -> Result<(SweepMatrix, Json), String> {
    let matrix = run_sweep(app, spec)?;
    let doc = sweep_to_json(&matrix);
    Ok((matrix, doc))
}

/// Default artifact path for an app: `results/SWEEP_<app>.<ext>`.
pub fn default_out_path(app_name: &str, format: OutFormat) -> String {
    format!("results/SWEEP_{app_name}.{}", format.ext())
}

/// Default artifact path for one shard of an app's sweep.
pub fn shard_out_path(app_name: &str, shard: Shard, format: OutFormat) -> String {
    format!("results/SWEEP_{app_name}.shard-{}-of-{}.{}", shard.k, shard.n, format.ext())
}

/// Parse a `--shard` argument of the form `k/n` (1-based k).
pub fn parse_shard_arg(arg: &str) -> Result<Shard, String> {
    let (k, n) = arg
        .split_once('/')
        .ok_or_else(|| format!("shard {arg:?} must look like k/n (e.g. 1/4)"))?;
    let k = k.trim().parse::<usize>().map_err(|_| format!("shard {arg:?}: bad k"))?;
    let n = n.trim().parse::<usize>().map_err(|_| format!("shard {arg:?}: bad n"))?;
    Shard::new(k, n)
}

/// Find every shard artifact for `app_name` under `dir`
/// (`SWEEP_<app>.shard-K-of-N.json` or `.ffb`), sorted by file name.
///
/// A directory can legitimately hold the *same* shard in both formats —
/// after `diogenes convert`, or when `--format` changed between shard
/// runs. Feeding both copies to `--merge` would fail on the duplicate
/// shard index, so duplicates are deduplicated by shard stem here, the
/// `.ffb` copy winning (it is the cheaper one to decode and both carry
/// identical data). Skipped copies are named in a debug log line.
pub fn find_shard_files(app_name: &str, dir: &str) -> Vec<String> {
    use std::collections::BTreeMap;
    let prefix = format!("SWEEP_{app_name}.shard-");
    // stem (file name minus format extension) -> chosen file name
    let mut by_stem: BTreeMap<String, String> = BTreeMap::new();
    let mut skipped: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(name) = entry.file_name().into_string() else { continue };
        if !name.starts_with(&prefix) {
            continue;
        }
        let Some(stem) = name.strip_suffix(".json").or_else(|| name.strip_suffix(".ffb")) else {
            continue;
        };
        match by_stem.entry(stem.to_string()) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(name);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => {
                // Same shard in both formats: keep the .ffb copy.
                let loser = if name.ends_with(".ffb") { o.insert(name) } else { name };
                skipped.push(format!("{dir}/{loser}"));
            }
        }
    }
    if !skipped.is_empty() {
        ffm_core::log_debug!(
            "sweep: skipping duplicate-format shard file(s): {}",
            skipped.join(", ")
        );
    }
    let mut found: Vec<String> =
        by_stem.into_values().map(|name| format!("{dir}/{name}")).collect();
    found.sort();
    found
}

/// Read, validate, and merge shard artifacts — JSON or FFB, freely mixed
/// (format sniffed from the bytes) — into the unsharded sweep document.
/// Each shard is loaded as a document and folded before the next is
/// read; the caller serializes the result exactly once.
pub fn merge_shard_files(paths: &[String]) -> Result<Json, String> {
    if paths.is_empty() {
        return Err("no shard files to merge (run with --shard k/n first)".to_string());
    }
    let mut fold = SweepMergeFold::new();
    for p in paths {
        fold.add_doc(&load_doc(p)?).map_err(|e| format!("{p}: {e}"))?;
    }
    fold.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_arg_parses_fields_and_values() {
        let a = parse_axis_arg("cost.free_base_ns=1000,2000, 4000").unwrap();
        assert_eq!(a.field, "cost.free_base_ns");
        assert_eq!(a.values, vec![1000, 2000, 4000]);
    }

    #[test]
    fn bad_axis_args_are_rejected() {
        assert!(parse_axis_arg("cost.free_base_ns").is_err());
        assert!(parse_axis_arg("=1,2").is_err());
        assert!(parse_axis_arg("cost.free_base_ns=").is_err());
        assert!(parse_axis_arg("cost.free_base_ns=1,abc").is_err());
        assert!(parse_axis_arg("cost.free_base_ns=-2").is_err());
    }

    #[test]
    fn default_grid_is_3x3_and_expands() {
        let spec = build_spec(Vec::new(), false, 1);
        assert_eq!(spec.axes.len(), 2);
        assert_eq!(spec.expand().unwrap().len(), 9);
    }

    #[test]
    fn shard_args_parse_and_name_artifacts() {
        let s = parse_shard_arg("2/4").unwrap();
        assert_eq!((s.k, s.n), (2, 4));
        assert_eq!(
            shard_out_path("als", s, OutFormat::Json),
            "results/SWEEP_als.shard-2-of-4.json"
        );
        assert_eq!(shard_out_path("als", s, OutFormat::Bin), "results/SWEEP_als.shard-2-of-4.ffb");
        assert_eq!(default_out_path("als", OutFormat::Json), "results/SWEEP_als.json");
        assert_eq!(default_out_path("als", OutFormat::Bin), "results/SWEEP_als.ffb");
        assert!(parse_shard_arg("0/4").is_err());
        assert!(parse_shard_arg("5/4").is_err());
        assert!(parse_shard_arg("2").is_err());
        assert!(parse_shard_arg("a/b").is_err());
    }

    #[test]
    fn shard_discovery_dedupes_duplicate_formats_preferring_ffb() {
        let dir =
            std::env::temp_dir().join(format!("diogenes-shard-discovery-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let d = dir.to_str().unwrap();
        // Shard 1 exists in both formats (e.g. after `diogenes convert`);
        // shard 2 only as JSON; shard 3 only as FFB. An unrelated app's
        // shard and a non-shard file must not leak in.
        for name in [
            "SWEEP_als.shard-1-of-3.json",
            "SWEEP_als.shard-1-of-3.ffb",
            "SWEEP_als.shard-2-of-3.json",
            "SWEEP_als.shard-3-of-3.ffb",
            "SWEEP_amg.shard-1-of-2.json",
            "SWEEP_als.json",
        ] {
            std::fs::write(dir.join(name), b"x").unwrap();
        }
        let found = find_shard_files("als", d);
        assert_eq!(
            found,
            vec![
                format!("{d}/SWEEP_als.shard-1-of-3.ffb"),
                format!("{d}/SWEEP_als.shard-2-of-3.json"),
                format!("{d}/SWEEP_als.shard-3-of-3.ffb"),
            ],
            "one entry per shard stem, .ffb preferred on collision"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cli_spec_honors_paired_layout() {
        let axes = vec![
            parse_axis_arg("cost.free_base_ns=1,2").unwrap(),
            parse_axis_arg("cost.sync_entry_ns=3,4").unwrap(),
        ];
        let spec = build_spec(axes, true, 1);
        assert_eq!(spec.expand().unwrap().len(), 2);
    }
}
