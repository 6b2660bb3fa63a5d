//! `Rodinia / Gaussian` — GPU Gaussian elimination (University of
//! Virginia, Rodinia 3.1).
//!
//! The pathology (paper §5.1): the elimination loop calls the deprecated
//! `cudaThreadSynchronize` after every row's kernel pair. The kernels are
//! all on the same stream, so stream ordering already guarantees
//! correctness — the syncs protect nothing the CPU reads and the paper's
//! fix is literally commenting the call out. Expected benefit is small
//! (~2% of execution) because the CPU has almost nothing to overlap; the
//! interesting comparison is NVProf attributing ~95% of execution to
//! `cudaThreadSynchronize` while Diogenes reports ~2% recoverable.

use cuda_driver::{Cuda, CudaResult, GpuApp, KernelDesc};
use gpu_sim::{Ns, SourceLoc, StreamId};

use crate::workloads::DenseSystem;

/// The paper's fix.
#[derive(Debug, Clone, Copy, Default, Hash)]
pub struct GaussianFixes {
    /// Comment out the per-row `cudaThreadSynchronize`.
    pub remove_thread_sync: bool,
}

impl GaussianFixes {
    pub fn all() -> Self {
        Self { remove_thread_sync: true }
    }
}

/// Configuration.
#[derive(Debug, Clone, Hash)]
pub struct GaussianConfig {
    /// Matrix dimension (rows eliminated).
    pub n: u32,
    /// GPU time of the Fan1 kernel per row.
    pub fan1_ns: Ns,
    /// GPU time of the Fan2 kernel per row.
    pub fan2_ns: Ns,
    /// Host bookkeeping per row.
    pub host_ns: Ns,
    pub fixes: GaussianFixes,
}

impl Default for GaussianConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

impl GaussianConfig {
    pub fn test_scale() -> Self {
        Self {
            n: 48,
            fan1_ns: 60_000,
            fan2_ns: 380_000,
            host_ns: 8_000,
            fixes: GaussianFixes::default(),
        }
    }

    pub fn paper_scale() -> Self {
        Self { n: 256, ..Self::test_scale() }
    }
}

/// The application.
pub struct Gaussian {
    cfg: GaussianConfig,
    system: DenseSystem,
}

impl Gaussian {
    pub fn new(cfg: GaussianConfig) -> Self {
        let system = DenseSystem::generate(cfg.n, 0x0D111A);
        Self { cfg, system }
    }
}

impl GpuApp for Gaussian {
    fn name(&self) -> &'static str {
        "Rodinia/Gaussian"
    }

    fn workload(&self) -> String {
        format!("dense {}x{} elimination", self.cfg.n, self.cfg.n)
    }

    fn input_digest(&self) -> u64 {
        cuda_driver::digest_config(self.name(), &self.cfg)
    }

    fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
        let cfg = &self.cfg;
        let l = |line| SourceLoc::new("gaussian.cu", line);
        cuda.in_frame("main", l(300), |cuda| {
            let mat_bytes = self.system.matrix.len() as u64;
            let h_a = cuda.host_malloc(mat_bytes);
            cuda.machine.host_write_raw(h_a, &self.system.matrix).unwrap();
            let d_a = cuda.malloc(mat_bytes, l(310))?;
            let d_m = cuda.malloc(mat_bytes, l(311))?;
            cuda.memcpy_htod(d_a, h_a, mat_bytes, l(315))?;

            cuda.in_frame("ForwardSub", l(350), |cuda| {
                for _row in 0..cfg.n.saturating_sub(1) {
                    let fan1 = KernelDesc::compute("Fan1", cfg.fan1_ns).writing(d_m, 64);
                    cuda.launch_kernel(&fan1, StreamId::DEFAULT, l(361))?;
                    let fan2 = KernelDesc::compute("Fan2", cfg.fan2_ns).writing(d_a, 64);
                    cuda.launch_kernel(&fan2, StreamId::DEFAULT, l(363))?;
                    // THE PATHOLOGY: same-stream ordering already makes
                    // this safe to remove.
                    if !cfg.fixes.remove_thread_sync {
                        cuda.thread_synchronize(l(365))?;
                    }
                    cuda.machine.cpu_work(cfg.host_ns, "row_bookkeeping");
                }
                CudaResult::Ok(())
            })?;

            // Back-substitution result readback: necessary & well placed.
            let h_result = cuda.host_malloc(self.system.row_bytes());
            cuda.memcpy_dtoh(h_result, d_a, self.system.row_bytes(), l(400))?;
            let x = cuda
                .machine
                .host_read_app(h_result, 64.min(self.system.row_bytes()), l(401))
                .unwrap();
            let _x0 = x[0];
            cuda.machine.cpu_work(5_000, "print_solution");

            cuda.free(d_a, l(410))?;
            cuda.free(d_m, l(411))?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_driver::uninstrumented_exec_time;
    use gpu_sim::CostModel;

    #[test]
    fn fix_gives_small_but_real_savings() {
        let broken = Gaussian::new(GaussianConfig::test_scale());
        let fixed = Gaussian::new(GaussianConfig {
            fixes: GaussianFixes::all(),
            ..GaussianConfig::test_scale()
        });
        let tb = uninstrumented_exec_time(&broken, CostModel::pascal_like()).unwrap();
        let tf = uninstrumented_exec_time(&fixed, CostModel::pascal_like()).unwrap();
        assert!(tf < tb);
        let saved = (tb - tf) as f64 / tb as f64;
        assert!(saved > 0.005 && saved < 0.15, "saved {saved}");
    }

    #[test]
    fn sync_count_matches_rows() {
        let cfg = GaussianConfig::test_scale();
        let app = Gaussian::new(cfg.clone());
        let mut cuda = Cuda::new(CostModel::pascal_like());
        app.run(&mut cuda).unwrap();
        let syncs =
            cuda.machine.timeline.waits().filter(|w| w.0 == "cudaThreadSynchronize").count();
        // First row's sync may find the device already idle only if
        // kernels finished; with these costs every sync waits.
        assert_eq!(syncs as u32, cfg.n - 1);
    }

    #[test]
    fn gpu_dominates_execution() {
        // The shape behind Table 2's Rodinia row: nearly all time is
        // kernel wait.
        let app = Gaussian::new(GaussianConfig::test_scale());
        let mut cuda = Cuda::new(CostModel::pascal_like());
        app.run(&mut cuda).unwrap();
        let wait: u64 = cuda.machine.timeline.total_wait_ns();
        let exec = cuda.exec_time_ns();
        assert!(wait as f64 / exec as f64 > 0.6, "wait {wait} / exec {exec}");
    }
}
