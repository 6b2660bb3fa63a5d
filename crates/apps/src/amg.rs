//! `AMG` — LLNL's algebraic multigrid benchmark (ij driver).
//!
//! The pathology Diogenes found (paper §5.1): a `cudaMemset` issued on a
//! **unified-memory** address synchronizes with the device, and since the
//! pages being cleared were already resident in CPU memory the right fix
//! is a plain C `memset`. The app also performs legitimate
//! `cudaStreamSynchronize` calls (which appear in Table 2 with modest
//! savings) and some `cudaFree` churn during setup/teardown of coarse
//! levels.

use cuda_driver::{Cuda, CudaResult, GpuApp, KernelDesc};
use gpu_sim::{HostPtr, Ns, SourceLoc};

use crate::workloads::StencilMatrix;

/// The paper's fix.
#[derive(Debug, Clone, Copy, Default, Hash)]
pub struct AmgFixes {
    /// Replace the unified-memory `cudaMemset` with a host `memset`.
    pub host_memset: bool,
}

impl AmgFixes {
    pub fn all() -> Self {
        Self { host_memset: true }
    }
}

/// Configuration.
#[derive(Debug, Clone, Hash)]
pub struct AmgConfig {
    pub matrix: StencilMatrix,
    /// GPU time of one SpMV at the finest level.
    pub spmv_ns: Ns,
    /// Host smoothing work per level visit.
    pub host_work_ns: Ns,
    /// Host-side setup/interpolation work per V-cycle.
    pub setup_work_ns: Ns,
    pub fixes: AmgFixes,
}

impl Default for AmgConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

impl AmgConfig {
    pub fn test_scale() -> Self {
        Self {
            matrix: StencilMatrix { n: 16, levels: 3, cycles: 6 },
            spmv_ns: 20_000,
            host_work_ns: 500_000,
            setup_work_ns: 800_000,
            fixes: AmgFixes::default(),
        }
    }

    pub fn paper_scale() -> Self {
        Self { matrix: StencilMatrix { n: 24, levels: 4, cycles: 25 }, ..Self::test_scale() }
    }
}

/// The application.
pub struct Amg {
    cfg: AmgConfig,
}

impl Amg {
    pub fn new(cfg: AmgConfig) -> Self {
        Self { cfg }
    }
}

impl GpuApp for Amg {
    fn name(&self) -> &'static str {
        "AMG"
    }

    fn workload(&self) -> String {
        let m = &self.cfg.matrix;
        format!(
            "ij 27-pt stencil n={} ({} rows), {} levels, {} V-cycles",
            m.n,
            m.rows(),
            m.levels,
            m.cycles
        )
    }

    fn input_digest(&self) -> u64 {
        cuda_driver::digest_config(self.name(), &self.cfg)
    }

    fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
        let cfg = &self.cfg;
        let m = &cfg.matrix;
        let l = |line| SourceLoc::new("par_csr_matvec.c", line);
        let ls = |line| SourceLoc::new("par_amg_solve.c", line);

        cuda.in_frame("main", SourceLoc::new("amg.c", 120), |cuda| {
            // Unified-memory workspaces per level (hypre-style managed
            // allocations; sizes shrink with coarsening, capped for the
            // byte store).
            let workspaces: Vec<(HostPtr, u64)> = (0..m.levels)
                .map(|lev| {
                    let bytes = m.level_bytes(lev).min(64 * 1024);
                    cuda.malloc_managed(bytes, l(60 + lev)).map(|p| (p, bytes))
                })
                .collect::<CudaResult<_>>()?;
            let d_rhs = cuda.malloc(m.level_bytes(0).min(128 * 1024), l(70))?;
            let stream = cuda.stream_create(l(71))?;
            let h_norm = cuda.host_malloc(256);

            for _cycle in 0..m.cycles {
                cuda.in_frame("hypre_BoomerAMGCycle", ls(300), |cuda| {
                    for (lev, &(ws, bytes)) in workspaces.iter().enumerate() {
                        // THE PATHOLOGY: clear the level workspace before
                        // the GPU pass. On unified memory this hides a
                        // synchronization. Fixed build: plain memset.
                        if cfg.fixes.host_memset {
                            cuda.host_memset(ws, 0, bytes)?;
                        } else {
                            cuda.memset(ws.0, 0, bytes, ls(321))?;
                        }
                        // Relax + restrict on the GPU.
                        let dur = (cfg.spmv_ns >> lev).max(5_000);
                        let k = KernelDesc::compute("hypre_spmv", dur)
                            .writing(gpu_sim::DevPtr(ws.0), 64.min(bytes));
                        cuda.launch_kernel(&k, stream, ls(330))?;
                        cuda.machine.cpu_work(cfg.host_work_ns >> lev, "smooth_host_part");
                    }
                    // Legitimate synchronization: the cycle's result norm
                    // is read right after.
                    let k = KernelDesc::compute("norm_reduce", 8_000).writing(d_rhs, 64);
                    cuda.launch_kernel(&k, stream, ls(350))?;
                    cuda.stream_synchronize(stream, ls(351))?;
                    CudaResult::Ok(())
                })?;
                // Interpolation / restriction operators are rebuilt on
                // the host each cycle (AMG's dominant CPU phase).
                cuda.machine.cpu_work(cfg.setup_work_ns, "rebuild_interpolation");
                // Convergence check reads the unified workspace directly
                // (unified memory: no explicit transfer needed).
                let ws0 = workspaces[0].0;
                let v = cuda.machine.host_read_app(ws0, 64, ls(360)).unwrap();
                let _r = v[0];
                cuda.machine.cpu_work(100_000, "convergence_check");
            }

            // Teardown: frees with implicit syncs (minor, but they show
            // up in Table 2's AMG rows).
            let _ = cuda.memcpy_dtoh(h_norm, d_rhs, 256, ls(400));
            let _ = cuda.machine.host_read_app(h_norm, 8, ls(401)).unwrap();
            cuda.free(d_rhs, ls(410))?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_driver::uninstrumented_exec_time;
    use gpu_sim::{CostModel, WaitReason};

    #[test]
    fn fix_recovers_time_in_single_digit_percent_band() {
        let broken = Amg::new(AmgConfig::test_scale());
        let fixed = Amg::new(AmgConfig { fixes: AmgFixes::all(), ..AmgConfig::test_scale() });
        let tb = uninstrumented_exec_time(&broken, CostModel::pascal_like()).unwrap();
        let tf = uninstrumented_exec_time(&fixed, CostModel::pascal_like()).unwrap();
        assert!(tf < tb);
        let saved = (tb - tf) as f64 / tb as f64;
        assert!(saved > 0.01 && saved < 0.30, "saved {saved}");
    }

    #[test]
    fn broken_build_has_conditional_memset_syncs() {
        let app = Amg::new(AmgConfig::test_scale());
        let mut cuda = Cuda::new(CostModel::pascal_like());
        app.run(&mut cuda).unwrap();
        let conditional = cuda
            .machine
            .timeline
            .waits()
            .filter(|w| w.0 == "cudaMemset" && w.1 == WaitReason::Conditional)
            .count();
        let cfg = AmgConfig::test_scale();
        assert_eq!(
            conditional as u32,
            cfg.matrix.cycles * cfg.matrix.levels,
            "one hidden sync per level visit"
        );
    }

    #[test]
    fn fixed_build_never_syncs_in_memset() {
        let app = Amg::new(AmgConfig { fixes: AmgFixes::all(), ..AmgConfig::test_scale() });
        let mut cuda = Cuda::new(CostModel::pascal_like());
        app.run(&mut cuda).unwrap();
        assert_eq!(cuda.machine.timeline.waits().filter(|w| w.0 == "cudaMemset").count(), 0);
    }
}
