//! The `diogenes sweep` subcommand: declarative configuration grids from
//! the command line, executed by [`ffm_core::sweep`] and written to
//! `results/SWEEP_<app>.json`.
//!
//! An axis argument is `--axis field=v1,v2,...` with field paths from
//! [`ffm_core::SWEEPABLE_FIELDS`] (e.g. `cost.free_base_ns`,
//! `driver.unified_memset_penalty`). With no `--axis` the default 3×3
//! cost/driver grid below is swept. The JSON artifact is byte-identical
//! at every `--jobs` setting.
//! Stage artifacts are memoized across cells (on disk under
//! `results/cache/` by default; `--no-cache` disables, `--cache-dir`
//! redirects) — caching changes speed, never bytes.

use ffm_core::{Axis, FfmConfig, SweepSpec};

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

/// Default artifact path for an app: `results/SWEEP_<app>.json`.
pub fn default_out_path(app_name: &str) -> String {
    format!("results/SWEEP_{app_name}.json")
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
    fn cli_spec_honors_paired_layout() {
        let axes = vec![
            parse_axis_arg("cost.free_base_ns=1,2").unwrap(),
            parse_axis_arg("cost.sync_entry_ns=3,4").unwrap(),
        ];
        let spec = build_spec(axes, true, 1);
        assert_eq!(spec.expand().unwrap().len(), 2);
    }
}
