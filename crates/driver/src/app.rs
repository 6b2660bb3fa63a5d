//! The application abstraction that tools run (and re-run).
//!
//! The feed-forward model's defining property is that each measurement
//! stage is a **separate complete run** of the application. A [`GpuApp`]
//! is therefore a pure recipe: given a fresh driver context, reproduce the
//! program's behaviour. Tools construct a new [`crate::Cuda`] per stage,
//! attach that stage's instrumentation, and invoke [`GpuApp::run`].

use std::hash::{DefaultHasher, Hash, Hasher};

use crate::cuda::Cuda;
use crate::error::CudaResult;

/// A simulated GPU application.
///
/// Implementations must be deterministic with respect to the driver calls
/// they issue (the paper notes FFM "performs best when the execution
/// pattern of the application does not change dramatically between runs").
///
/// `Send + Sync` is a supertrait so one recipe can be re-run from several
/// measurement threads at once: each stage of the parallel pipeline holds
/// `&dyn GpuApp` while building its own private context. Apps are input
/// descriptions, not live program state, so this costs implementors
/// nothing in practice.
pub trait GpuApp: Send + Sync {
    /// Short name for reports ("cumf_als").
    fn name(&self) -> &'static str;

    /// Execute the application against a fresh context.
    fn run(&self, cuda: &mut Cuda) -> CudaResult<()>;

    /// Free-form description of the configured workload, for reports.
    fn workload(&self) -> String {
        String::new()
    }

    /// Digest of every input that determines the driver-call sequence
    /// this app will issue. Caching layers key stage artifacts on this,
    /// so **two apps with equal digests must behave identically**.
    ///
    /// The default hashes `name()` + `workload()`. That is only correct
    /// when the workload string fully describes the configuration; apps
    /// with a config struct override this with [`digest_config`], which
    /// digests the whole config through its derived `Hash`, so a field
    /// added to the config is keyed with no edit here.
    fn input_digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.name().len() + 1 + self.workload().len());
        bytes.extend_from_slice(self.name().as_bytes());
        bytes.push(0); // separator: ("ab","c") != ("a","bc")
        bytes.extend_from_slice(self.workload().as_bytes());
        gpu_sim::fnv1a_64(&bytes)
    }
}

/// Helper for [`GpuApp::input_digest`] overrides: digest an app name and
/// its whole config. `DefaultHasher::new()` uses fixed keys, so the
/// digest is the same in every run of one binary; disk cache entries are
/// tagged with the binary that wrote them, so no digest outlives it.
pub fn digest_config(name: &str, cfg: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    name.hash(&mut h);
    cfg.hash(&mut h);
    h.finish()
}

/// Run an application uninstrumented and return its execution time.
///
/// This is the ground-truth measurement used for "actual benefit" numbers:
/// no hooks, no probes, virtual time only.
pub fn uninstrumented_exec_time(
    app: &dyn GpuApp,
    cost: gpu_sim::CostModel,
) -> CudaResult<gpu_sim::Ns> {
    let mut cuda = Cuda::new(cost);
    app.run(&mut cuda)?;
    Ok(cuda.exec_time_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{CostModel, SourceLoc};

    struct Tiny;
    impl GpuApp for Tiny {
        fn name(&self) -> &'static str {
            "tiny"
        }
        fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
            cuda.machine.cpu_work(100, "spin");
            let d = cuda.malloc(64, SourceLoc::new("tiny.cpp", 3))?;
            cuda.free(d, SourceLoc::new("tiny.cpp", 4))?;
            Ok(())
        }
    }

    #[test]
    fn uninstrumented_time_is_reproducible() {
        let a = uninstrumented_exec_time(&Tiny, CostModel::unit()).unwrap();
        let b = uninstrumented_exec_time(&Tiny, CostModel::unit()).unwrap();
        assert_eq!(a, b);
        assert!(a >= 100);
    }
}
