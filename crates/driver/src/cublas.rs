//! A vendor math library modeled after cuBLAS.
//!
//! Real vendor libraries reach the driver through its **proprietary,
//! non-public interface**; CUPTI does not report those calls, and may also
//! omit public-API calls made from inside the library. This module gives
//! simulated applications a realistic way to generate such invisible
//! operations: `gemm`/`axpy` launch kernels and synchronize through the
//! private entry points inside a [`Cuda::vendor_scope`].

use gpu_sim::{DevPtr, HostPtr, SourceLoc, StreamId};

use crate::cuda::Cuda;
use crate::error::CudaResult;
use crate::kernels::KernelDesc;

/// Handle to the vendor math library (one per context, like
/// `cublasHandle_t`).
#[derive(Debug, Clone, Copy)]
pub struct CublasLite {
    stream: StreamId,
}

impl Default for CublasLite {
    fn default() -> Self {
        Self::new()
    }
}

impl CublasLite {
    /// Create a handle bound to the default stream.
    pub fn new() -> Self {
        Self { stream: StreamId::DEFAULT }
    }

    /// Dense matrix-multiply of an `m×k` by `k×n` (element size 4).
    ///
    /// Launches a private kernel writing `c`, then synchronizes through
    /// the private API — the synchronization is invisible to the vendor
    /// collection framework but caught by internal-function interception.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        &self,
        cuda: &mut Cuda,
        m: u64,
        n: u64,
        k: u64,
        c: DevPtr,
        c_bytes: u64,
        site: SourceLoc,
    ) -> CudaResult<()> {
        let flops = 2 * m * n * k;
        // ~4 Tflop/s device: flops / 4000 per ns, floor 2us.
        let dur = (flops / 4_000).max(2_000);
        let desc = KernelDesc::compute("volta_sgemm_128x64", dur).writing(c, c_bytes);
        cuda.vendor_scope(|cu| {
            cu.private_launch(&desc, self.stream, site)?;
            cu.private_sync(self.stream, site)
        })
    }

    /// `y += a*x` over `n` elements, asynchronous (no hidden sync).
    pub fn axpy(
        &self,
        cuda: &mut Cuda,
        n: u64,
        y: DevPtr,
        y_bytes: u64,
        site: SourceLoc,
    ) -> CudaResult<()> {
        let dur = (n / 2_000).max(1_000);
        let desc = KernelDesc::compute("axpy_kernel", dur).writing(y, y_bytes);
        cuda.vendor_scope(|cu| {
            cu.private_launch(&desc, self.stream, site)?;
            Ok(())
        })
    }

    /// Retrieve a result vector to the host through the private copy path
    /// (synchronous, invisible to CUPTI).
    pub fn get_vector(
        &self,
        cuda: &mut Cuda,
        dst: HostPtr,
        src: DevPtr,
        bytes: u64,
        site: SourceLoc,
    ) -> CudaResult<()> {
        cuda.vendor_scope(|cu| cu.private_memcpy_dtoh(dst, src, bytes, site))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ApiFn, InternalFn};
    use crate::hooks::{DriverHook, HookEvent};
    use gpu_sim::{CostModel, Machine, WaitReason};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn site() -> SourceLoc {
        SourceLoc::new("blas_app.cpp", 7)
    }

    #[derive(Default)]
    struct Spy {
        api_calls: Vec<(ApiFn, bool)>,
        private_waits: u64,
    }
    impl DriverHook for Spy {
        fn on_event(&mut self, ev: &HookEvent, _m: &mut Machine) {
            match ev {
                HookEvent::ApiEnter { api, vendor_ctx, .. } => {
                    self.api_calls.push((*api, *vendor_ctx))
                }
                HookEvent::InternalExit {
                    func: InternalFn::SyncWait,
                    reason: Some(WaitReason::Private),
                    ..
                } => self.private_waits += 1,
                _ => {}
            }
        }
    }

    #[test]
    fn gemm_synchronizes_through_private_api() {
        let mut cuda = Cuda::new(CostModel::unit());
        let spy = Rc::new(RefCell::new(Spy::default()));
        cuda.install_hook(spy.clone());
        let c = cuda.malloc(1024, site()).unwrap();
        let blas = CublasLite::new();
        blas.gemm(&mut cuda, 64, 64, 64, c, 1024, site()).unwrap();
        let spy = spy.borrow();
        assert_eq!(spy.private_waits, 1);
        assert!(spy.api_calls.iter().any(|(a, v)| *a == ApiFn::PrivateLaunch && *v));
        assert!(spy.api_calls.iter().any(|(a, v)| *a == ApiFn::PrivateSync && *v));
    }

    #[test]
    fn gemm_cost_scales_with_problem_size() {
        let mut cuda = Cuda::new(CostModel::unit());
        let c = cuda.malloc(1 << 20, site()).unwrap();
        let blas = CublasLite::new();
        let t0 = cuda.machine.now();
        blas.gemm(&mut cuda, 64, 64, 64, c, 64, site()).unwrap();
        let small = cuda.machine.now() - t0;
        let t1 = cuda.machine.now();
        blas.gemm(&mut cuda, 512, 512, 512, c, 64, site()).unwrap();
        let large = cuda.machine.now() - t1;
        assert!(large > small * 10, "large {large} vs small {small}");
    }

    #[test]
    fn axpy_does_not_wait() {
        let mut cuda = Cuda::new(CostModel::unit());
        let spy = Rc::new(RefCell::new(Spy::default()));
        cuda.install_hook(spy.clone());
        let y = cuda.malloc(4096, site()).unwrap();
        let blas = CublasLite::new();
        blas.axpy(&mut cuda, 1_000_000, y, 4096, site()).unwrap();
        assert_eq!(spy.borrow().private_waits, 0);
        assert_eq!(cuda.machine.timeline.waits().count(), 0);
    }

    #[test]
    fn get_vector_moves_bytes_privately() {
        let mut cuda = Cuda::new(CostModel::unit());
        let y = cuda.malloc(16, site()).unwrap();
        let h = cuda.host_malloc(16);
        let blas = CublasLite::new();
        // generate data on device first
        blas.axpy(&mut cuda, 100, y, 16, site()).unwrap();
        blas.get_vector(&mut cuda, h, y, 16, site()).unwrap();
        let got = cuda.machine.host_read_raw(h, 16).unwrap();
        assert_ne!(got, vec![0u8; 16]);
        // a private wait happened (synchronous private copy)
        assert!(cuda.machine.timeline.waits().any(|w| w.1 == WaitReason::Private));
    }
}
