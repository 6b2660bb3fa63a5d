//! The Diogenes tool facade: run the feed-forward pipeline against an
//! application and hold everything the CLI / exporter needs.

use cuda_driver::{CudaResult, GpuApp};
use ffm_core::{run_ffm, FfmConfig, FfmReport};

use crate::seqfam::{merge_sequences, SequenceFamily};

/// Tool configuration (pipeline configuration plus presentation knobs).
#[derive(Debug, Clone, Default)]
pub struct DiogenesConfig {
    pub ffm: FfmConfig,
    /// Maximum rows in the overview display.
    pub overview_rows: usize,
}

impl DiogenesConfig {
    pub fn new() -> Self {
        Self { ffm: FfmConfig::default(), overview_rows: 8 }
    }

    /// Builder-style override for the pipeline's worker-thread count
    /// (`0` = auto via `DIOGENES_JOBS` / core count, `1` = sequential).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.ffm.jobs = jobs;
        self
    }
}

/// The tool's complete result for one application.
pub struct DiogenesResult {
    pub report: FfmReport,
    /// Sequences merged across loop iterations (identical site patterns).
    pub families: Vec<SequenceFamily>,
    pub config: DiogenesConfig,
}

impl DiogenesResult {
    /// Percent of baseline execution for a duration.
    pub fn percent(&self, ns: gpu_sim::Ns) -> f64 {
        self.report.analysis.percent(ns)
    }
}

/// Run Diogenes: the discovery probe, the four data-collection runs and
/// the analysis, then group per-iteration sequences into families.
pub fn run_diogenes(app: &dyn GpuApp, config: DiogenesConfig) -> CudaResult<DiogenesResult> {
    let report = run_ffm(app, &config.ffm)?;
    let families = merge_sequences(&report.analysis);
    Ok(DiogenesResult { report, families, config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diogenes_apps::{AlsConfig, CumfAls};

    #[test]
    fn tool_runs_on_als_and_finds_families() {
        let mut cfg = AlsConfig::test_scale();
        cfg.iters = 4;
        let r = run_diogenes(&CumfAls::new(cfg), DiogenesConfig::new()).unwrap();
        assert!(!r.families.is_empty(), "ALS loop must form sequence families");
        let f = &r.families[0];
        assert!(f.occurrences >= 3, "one family per loop iteration pattern");
        assert!(f.total_benefit_ns > 0);
        assert!(r.percent(f.total_benefit_ns) > 0.0);
    }
}
