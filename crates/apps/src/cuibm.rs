//! `cuIBM` — 2-D Navier-Stokes with the immersed boundary method
//! (Boston University).
//!
//! The pathology (paper §5.1, Fig. 7, also the subject of the authors'
//! earlier CCGRID'18 study): the solver allocates temporary device
//! storage through Thrust/Cusp *template* functions on every solver
//! iteration, and every teardown `cudaFree` performs an implicit
//! full-device synchronization — millions of times over a run. Diogenes'
//! folded-function grouping shows one template function
//! (`thrust::detail::contiguous_storage<...>`) accounting for ~10.8% of
//! execution alone.
//!
//! Also reproduced:
//! * `cudaMemcpyAsync` D2H into *pageable* memory (conditional hidden
//!   synchronization) when monitoring forces each step;
//! * heavy `cudaFuncGetAttributes` traffic (the Cusp dispatch layer);
//! * a per-step explicit `cudaDeviceSynchronize`;
//! * a call volume large enough to overflow NVProf's record buffer (the
//!   modeled cause of the paper's "Profiler Crashed" cell).

use cuda_driver::{Cuda, CudaResult, GpuApp, KernelDesc};
use gpu_sim::{Ns, SourceLoc, StreamId};

use crate::workloads::CavityConfig;

/// The paper's fix: a small memory manager that reuses temporary device
/// regions instead of allocating/freeing through Thrust each call.
#[derive(Debug, Clone, Copy, Default, Hash)]
pub struct CuibmFixes {
    /// Reuse temporaries via a pool (eliminates the `cudaFree` syncs AND
    /// the malloc/free churn — which is why the real fix recovered *more*
    /// than Diogenes estimated).
    pub pool_temporaries: bool,
    /// Use pinned host buffers for the monitoring readback, making
    /// `cudaMemcpyAsync` truly asynchronous.
    pub pinned_monitor_buffers: bool,
}

impl CuibmFixes {
    pub fn all() -> Self {
        Self { pool_temporaries: true, pinned_monitor_buffers: true }
    }
}

/// Configuration.
#[derive(Debug, Clone, Hash)]
pub struct CuibmConfig {
    pub cavity: CavityConfig,
    /// GPU time of one solver kernel.
    pub kernel_ns: Ns,
    /// CPU time spent in thrust/cusp dispatch inside the solver
    /// (distributed across the three template calls).
    pub host_work_ns: Ns,
    /// CPU time spent assembling the RHS after the template calls, per
    /// solver iteration.
    pub outer_work_ns: Ns,
    pub fixes: CuibmFixes,
}

impl Default for CuibmConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

impl CuibmConfig {
    pub fn test_scale() -> Self {
        Self {
            cavity: CavityConfig { nx: 64, ny: 64, steps: 6, solver_iters: 5, reynolds: 5000 },
            kernel_ns: 150_000,
            host_work_ns: 90_000,
            outer_work_ns: 1_100_000,
            fixes: CuibmFixes::default(),
        }
    }

    /// Scaled-down lidDrivenCavityRe5000: enough driver calls to overflow
    /// a default NVProf record buffer.
    pub fn paper_scale() -> Self {
        Self {
            cavity: CavityConfig { nx: 128, ny: 128, steps: 100, solver_iters: 40, reynolds: 5000 },
            ..Self::test_scale()
        }
    }

    /// Driver API calls per run, approximately (used by tests that check
    /// the NVProf-overflow behaviour).
    pub fn approx_api_calls(&self) -> u64 {
        let per_iter = 3 * 2 /* template alloc/free */ + 2 /* kernels */ + 2 /* attr */;
        (self.cavity.steps as u64) * (self.cavity.solver_iters as u64) * per_iter as u64
    }
}

/// The application.
pub struct CuIbm {
    cfg: CuibmConfig,
}

impl CuIbm {
    pub fn new(cfg: CuibmConfig) -> Self {
        Self { cfg }
    }

    /// The Thrust-style template function: allocate temporary device
    /// storage, run a kernel over it, free it on scope exit. `tname` is
    /// the instantiated template name — instances fold together in the
    /// folded-function grouping.
    #[allow(clippy::too_many_arguments)]
    fn thrust_temporary(
        &self,
        cuda: &mut Cuda,
        tname: &'static str,
        bytes: u64,
        kernel: &'static str,
        kernel_ns: Ns,
        inner_work_ns: Ns,
        line: u32,
        pool: &mut Option<gpu_sim::DevPtr>,
    ) -> CudaResult<()> {
        let l = |li| SourceLoc::new("thrust/detail/contiguous_storage.inl", li);
        cuda.in_frame(tname, SourceLoc::new("solver.cu", line), |cuda| {
            let (ptr, pooled) = match (self.cfg.fixes.pool_temporaries, pool.as_ref()) {
                (true, Some(p)) => (*p, true),
                _ => (cuda.malloc(bytes, l(197))?, false),
            };
            if self.cfg.fixes.pool_temporaries && !pooled {
                *pool = Some(ptr);
            }
            let k = KernelDesc::compute(kernel, kernel_ns).writing(ptr, 64.min(bytes));
            cuda.launch_kernel(&k, StreamId::DEFAULT, l(201))?;
            // Host-side thrust dispatch / result handling overlaps part
            // of the kernel before the storage is torn down.
            cuda.machine.cpu_work(inner_work_ns, "thrust_dispatch");
            if !self.cfg.fixes.pool_temporaries {
                // ~deallocate_storage(): the implicit-sync free.
                cuda.free(ptr, l(215))?;
            }
            Ok(())
        })
    }
}

impl GpuApp for CuIbm {
    fn name(&self) -> &'static str {
        "cuIBM"
    }

    fn workload(&self) -> String {
        let c = &self.cfg.cavity;
        format!(
            "lidDrivenCavityRe{} {}x{}, {} steps x {} solver iters",
            c.reynolds, c.nx, c.ny, c.steps, c.solver_iters
        )
    }

    fn input_digest(&self) -> u64 {
        cuda_driver::digest_config(self.name(), &self.cfg)
    }

    fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
        let cfg = &self.cfg;
        let l = |line| SourceLoc::new("NavierStokesSolver.cu", line);
        cuda.in_frame("main", l(10), |cuda| {
            let field_bytes = cfg.cavity.field_bytes().min(256 * 1024);
            let d_q = cuda.malloc(field_bytes, l(40))?;
            let d_lambda = cuda.malloc(field_bytes, l(41))?;
            // The boundary-force monitor reads back the whole multiplier
            // field each step.
            let h_monitor = if cfg.fixes.pinned_monitor_buffers {
                cuda.malloc_host(field_bytes, l(50))?
            } else {
                cuda.host_malloc(field_bytes)
            };

            let mut pool_a = None;
            let mut pool_b = None;
            let mut pool_c = None;

            for _step in 0..cfg.cavity.steps {
                cuda.in_frame("stepTime", l(100), |cuda| {
                    for _it in 0..cfg.cavity.solver_iters {
                        cuda.in_frame("cusp::krylov::cg", SourceLoc::new("cusp/krylov/cg.h", 80), |cuda| {
                            // The Cusp dispatch layer queries kernel
                            // attributes before each launch.
                            cuda.func_get_attributes(SourceLoc::new("cusp/detail/dispatch.h", 33))?;
                            cuda.func_get_attributes(SourceLoc::new("cusp/detail/dispatch.h", 34))?;

                            // Three template instantiations allocate and
                            // free temporaries (folded-function fodder).
                            self.thrust_temporary(
                                cuda,
                                "thrust::pair<thrust::pointer<float>, ptrdiff_t>::get_temporary_buffer",
                                (field_bytes / 4).max(256),
                                "reduce_kernel",
                                cfg.kernel_ns / 2,
                                cfg.host_work_ns / 4,
                                140,
                                &mut pool_b,
                            )?;
                            self.thrust_temporary(
                                cuda,
                                "void cusp::system::detail::generic::multiply<cusp::csr_matrix<int, float>>",
                                (field_bytes / 4).max(256),
                                "multiply_kernel",
                                cfg.kernel_ns / 4,
                                cfg.host_work_ns / 4,
                                160,
                                &mut pool_c,
                            )?;
                            self.thrust_temporary(
                                cuda,
                                "thrust::detail::contiguous_storage<float, thrust::device_malloc_allocator<float>>::allocate",
                                (field_bytes / 2).max(256),
                                "spmv_csr_kernel",
                                cfg.kernel_ns,
                                cfg.host_work_ns / 2,
                                120,
                                &mut pool_a,
                            )?;

                            cuda.machine.cpu_work(cfg.outer_work_ns, "assemble_rhs");
                            CudaResult::Ok(())
                        })?;
                    }

                    // Per-step velocity update + boundary force monitor.
                    let k = KernelDesc::compute("updateVelocity", cfg.kernel_ns).writing(d_q, 64);
                    cuda.launch_kernel(&k, StreamId::DEFAULT, l(210))?;
                    cuda.device_synchronize(l(212))?;
                    // Monitoring readback: async D2H into (by default)
                    // pageable memory — the hidden conditional sync.
                    cuda.memcpy_dtoh_async(h_monitor, d_lambda, field_bytes, StreamId::DEFAULT, l(215))?;
                    // The forces are only written to the log after the
                    // solver state update — the hidden sync above is
                    // *misplaced* by that much.
                    cuda.machine.cpu_work(60_000, "update_solver_state");
                    let forces = cuda
                        .machine
                        .host_read_app(h_monitor, 64, l(216))
                        .unwrap();
                    let _lift = forces[0];
                    cuda.machine.cpu_work(4_000, "write_forces_log");
                    CudaResult::Ok(())
                })?;
            }

            // Drain pools in the fixed build.
            for p in [pool_a, pool_b, pool_c].into_iter().flatten() {
                cuda.free(p, l(300))?;
            }
            cuda.free(d_q, l(310))?;
            cuda.free(d_lambda, l(311))?;
            if cfg.fixes.pinned_monitor_buffers {
                cuda.free_host(h_monitor, l(312))?;
            }
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
    fn fix_recovers_time() {
        let broken = CuIbm::new(CuibmConfig::test_scale());
        let fixed =
            CuIbm::new(CuibmConfig { fixes: CuibmFixes::all(), ..CuibmConfig::test_scale() });
        let tb = uninstrumented_exec_time(&broken, CostModel::pascal_like()).unwrap();
        let tf = uninstrumented_exec_time(&fixed, CostModel::pascal_like()).unwrap();
        assert!(tf < tb);
        let saved = (tb - tf) as f64 / tb as f64;
        assert!(saved > 0.05, "saved {saved}");
    }

    #[test]
    fn broken_build_issues_many_api_calls() {
        let cfg = CuibmConfig::test_scale();
        let app = CuIbm::new(cfg.clone());
        let mut cuda = Cuda::new(CostModel::unit());
        app.run(&mut cuda).unwrap();
        let calls = cuda.api_call_count();
        assert!(
            calls >= cfg.approx_api_calls(),
            "calls {calls} vs approx {}",
            cfg.approx_api_calls()
        );
        // pool build makes far fewer calls
        let fixed = CuIbm::new(CuibmConfig { fixes: CuibmFixes::all(), ..cfg });
        let mut cuda2 = Cuda::new(CostModel::unit());
        fixed.run(&mut cuda2).unwrap();
        // The pool removes the malloc/free pair from each of the three
        // template calls (6 of ~11 calls per solver iteration).
        assert!(cuda2.api_call_count() < calls * 2 / 3);
    }

    #[test]
    fn conditional_sync_happens_only_with_pageable_monitor() {
        use gpu_sim::WaitReason;
        let broken = CuIbm::new(CuibmConfig::test_scale());
        let mut cuda = Cuda::new(CostModel::pascal_like());
        broken.run(&mut cuda).unwrap();
        assert!(cuda.machine.timeline.waits().any(|w| w.1 == WaitReason::Conditional));

        let fixed = CuIbm::new(CuibmConfig {
            fixes: CuibmFixes { pinned_monitor_buffers: true, pool_temporaries: false },
            ..CuibmConfig::test_scale()
        });
        let mut cuda2 = Cuda::new(CostModel::pascal_like());
        fixed.run(&mut cuda2).unwrap();
        assert!(
            !cuda2.machine.timeline.waits().any(|w| w.1 == WaitReason::Conditional),
            "pinned monitor buffer removes the hidden sync"
        );
    }
}
