//! A negative control: a well-written streaming pipeline.
//!
//! Every measurement tool needs a clean-code baseline. This application
//! is what the paper's problematic apps *should* look like: pinned
//! staging buffers, double buffering across two streams, device-side
//! ordering via `cudaStreamWaitEvent` instead of host synchronization,
//! and exactly one necessary, well-placed sync per result consumption.
//! Diogenes must report (near) zero recoverable time on it — a tool that
//! finds "problems" here is crying wolf.

use cuda_driver::{Cuda, CudaResult, GpuApp, KernelDesc};
use gpu_sim::{Ns, SourceLoc};

/// Configuration.
#[derive(Debug, Clone, Hash)]
pub struct PipelinedConfig {
    /// Number of input chunks streamed through.
    pub chunks: u32,
    /// Payload bytes per chunk.
    pub chunk_bytes: u64,
    /// GPU time per chunk kernel.
    pub kernel_ns: Ns,
    /// CPU time preparing each chunk.
    pub prep_ns: Ns,
}

impl Default for PipelinedConfig {
    fn default() -> Self {
        Self::test_scale()
    }
}

impl PipelinedConfig {
    pub fn test_scale() -> Self {
        Self { chunks: 24, chunk_bytes: 64 * 1024, kernel_ns: 80_000, prep_ns: 60_000 }
    }

    pub fn paper_scale() -> Self {
        Self { chunks: 200, ..Self::test_scale() }
    }
}

/// The application.
pub struct Pipelined {
    cfg: PipelinedConfig,
}

impl Pipelined {
    pub fn new(cfg: PipelinedConfig) -> Self {
        Self { cfg }
    }
}

impl GpuApp for Pipelined {
    fn name(&self) -> &'static str {
        "pipelined"
    }

    fn workload(&self) -> String {
        format!("{} chunks x {} KiB, double buffered", self.cfg.chunks, self.cfg.chunk_bytes / 1024)
    }

    fn input_digest(&self) -> u64 {
        cuda_driver::digest_config(self.name(), &self.cfg)
    }

    fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
        let cfg = &self.cfg;
        let l = |line| SourceLoc::new("pipeline.cu", line);
        cuda.in_frame("main", l(1), |cuda| {
            let copy_stream = cuda.stream_create(l(10))?;
            let compute_stream = cuda.stream_create(l(11))?;
            // Pinned staging: uploads are genuinely asynchronous.
            let h_in = [
                cuda.malloc_host(cfg.chunk_bytes, l(12))?,
                cuda.malloc_host(cfg.chunk_bytes, l(13))?,
            ];
            let h_out = cuda.malloc_host(cfg.chunk_bytes, l(14))?;
            let d_buf =
                [cuda.malloc(cfg.chunk_bytes, l(15))?, cuda.malloc(cfg.chunk_bytes, l(16))?];
            let d_out = cuda.malloc(cfg.chunk_bytes, l(17))?;
            let uploaded = [cuda.event_create(l(18))?, cuda.event_create(l(19))?];

            for chunk in 0..cfg.chunks {
                let slot = (chunk % 2) as usize;
                cuda.in_frame("stream_chunk", l(30), |cuda| {
                    // Prepare the next chunk on the CPU (fresh bytes each
                    // time — nothing to deduplicate).
                    cuda.machine.cpu_work(cfg.prep_ns, "prepare_chunk");
                    let stamp = [chunk as u8; 8];
                    cuda.machine.host_write_raw(h_in[slot], &stamp).unwrap();
                    // Upload on the copy stream; order the compute stream
                    // behind it device-side. The CPU never blocks.
                    cuda.memcpy_htod_async(
                        d_buf[slot],
                        h_in[slot],
                        cfg.chunk_bytes,
                        copy_stream,
                        l(35),
                    )?;
                    cuda.event_record(uploaded[slot], copy_stream, l(36))?;
                    cuda.stream_wait_event(compute_stream, uploaded[slot], l(37))?;
                    let k = KernelDesc::compute("transform_chunk", cfg.kernel_ns)
                        .reading(d_buf[slot], 64)
                        .writing(d_out, 64);
                    cuda.launch_kernel(&k, compute_stream, l(40))?;
                    CudaResult::Ok(())
                })?;
            }

            // One necessary, well-placed synchronization: drain the
            // pipeline and consume the final result immediately.
            cuda.memcpy_dtoh_async(h_out, d_out, cfg.chunk_bytes, compute_stream, l(50))?;
            cuda.stream_synchronize(compute_stream, l(51))?;
            let result = cuda.machine.host_read_app(h_out, 64, l(52)).unwrap();
            let _checksum = result.iter().map(|&b| b as u64).sum::<u64>();
            cuda.machine.cpu_work(10_000, "report");

            cuda.free(d_buf[0], l(60))?;
            cuda.free(d_buf[1], l(61))?;
            cuda.free(d_out, l(62))?;
            cuda.free_host(h_in[0], l(63))?;
            cuda.free_host(h_in[1], l(64))?;
            cuda.free_host(h_out, l(65))?;
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
    fn cpu_almost_never_blocks() {
        let app = Pipelined::new(PipelinedConfig::test_scale());
        let mut cuda = Cuda::new(CostModel::pascal_like());
        app.run(&mut cuda).unwrap();
        // The only waits: the final drain (explicit) and the implicit
        // syncs of the teardown frees.
        let explicit =
            cuda.machine.timeline.waits().filter(|w| w.1 == WaitReason::Explicit).count();
        assert_eq!(explicit, 1, "exactly the drain");
        let conditional =
            cuda.machine.timeline.waits().filter(|w| w.1 == WaitReason::Conditional).count();
        assert_eq!(conditional, 0, "pinned buffers: no hidden syncs");
    }

    #[test]
    fn compute_overlaps_transfers() {
        let app = Pipelined::new(PipelinedConfig::test_scale());
        let mut cuda = Cuda::new(CostModel::pascal_like());
        app.run(&mut cuda).unwrap();
        let exec = cuda.exec_time_ns();
        let busy = cuda.machine.device.busy_ns();
        // Pipeline efficiency: total GPU work fits inside the run with
        // high utilization (CPU prep overlaps GPU compute).
        assert!(busy as f64 > 0.4 * exec as f64, "busy {busy} exec {exec}");
    }

    #[test]
    fn deterministic() {
        let app = Pipelined::new(PipelinedConfig::test_scale());
        let a = uninstrumented_exec_time(&app, CostModel::pascal_like()).unwrap();
        let b = uninstrumented_exec_time(&app, CostModel::pascal_like()).unwrap();
        assert_eq!(a, b);
    }
}
