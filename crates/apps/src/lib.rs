//! # diogenes-apps — the four evaluation applications
//!
//! Synthetic reproductions of the applications Diogenes was evaluated on
//! (paper §5), each engineered to exhibit its original's pathology and
//! each shipping a **fixed** variant implementing the paper's fix so that
//! "estimated vs. actual benefit" (Table 1) can be measured on the same
//! substrate:
//!
//! | app | pathology | fix |
//! |---|---|---|
//! | [`als::CumfAls`] | duplicate uploads + free/sync churn + useless device syncs | hoist allocs, upload once, drop syncs |
//! | [`cuibm::CuIbm`] | Thrust-temporary `cudaFree` syncs (millions), hidden async-D2H syncs | temporary pool, pinned monitor buffers |
//! | [`amg::Amg`] | `cudaMemset` on unified memory secretly syncs | host `memset` |
//! | [`gaussian::Gaussian`] | per-row `cudaThreadSynchronize` | remove the call |
//!
//! [`pipelined::Pipelined`] is the negative control: a correctly
//! double-buffered streaming pipeline (pinned staging, `cudaStreamWaitEvent`
//! ordering) on which the tool must report near-zero recoverable time.

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod als;
pub mod amg;
pub mod cuibm;
pub mod gaussian;
pub mod pipelined;
pub mod workloads;

pub use als::{AlsConfig, AlsFixes, CumfAls};
pub use amg::{Amg, AmgConfig, AmgFixes};
pub use cuibm::{CuIbm, CuibmConfig, CuibmFixes};
pub use gaussian::{Gaussian, GaussianConfig, GaussianFixes};
pub use pipelined::{Pipelined, PipelinedConfig};

/// The four applications at test scale, boxed for harness iteration.
pub fn all_apps_test_scale() -> Vec<Box<dyn cuda_driver::GpuApp>> {
    vec![
        Box::new(CumfAls::new(AlsConfig::test_scale())),
        Box::new(CuIbm::new(CuibmConfig::test_scale())),
        Box::new(Amg::new(AmgConfig::test_scale())),
        Box::new(Gaussian::new(GaussianConfig::test_scale())),
    ]
}

/// The four applications at experiment (paper) scale.
pub fn all_apps_paper_scale() -> Vec<Box<dyn cuda_driver::GpuApp>> {
    vec![
        Box::new(CumfAls::new(AlsConfig::paper_scale())),
        Box::new(CuIbm::new(CuibmConfig::paper_scale())),
        Box::new(Amg::new(AmgConfig::paper_scale())),
        Box::new(Gaussian::new(GaussianConfig::paper_scale())),
    ]
}
