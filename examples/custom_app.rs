//! Analyzing your own application — the downstream-user path.
//!
//! Shows everything needed to put a new workload under the feed-forward
//! pipeline: implement [`GpuApp`], declare source locations and stack
//! frames so reports are readable, then drive the stages yourself for
//! full control over what each run collects.
//!
//! Run with: `cargo run --release --example custom_app`

use cuda_driver::{Cuda, CudaResult, DriverConfig, GpuApp, KernelDesc};
use ffm_core::{analyze, stages, AnalysisConfig};
use gpu_sim::{CostModel, SourceLoc};
use instrument::identify_sync_function;

/// A made-up "particle push" mini-app with a conditional hidden sync:
/// it streams particle blocks back with `cudaMemcpyAsync` into plain
/// malloc'd memory — which secretly blocks on every call.
struct ParticlePush {
    blocks: u32,
}

impl GpuApp for ParticlePush {
    fn name(&self) -> &'static str {
        "particle_push"
    }

    fn workload(&self) -> String {
        format!("{} particle blocks", self.blocks)
    }

    fn run(&self, cuda: &mut Cuda) -> CudaResult<()> {
        let l = |line| SourceLoc::new("push.cu", line);
        cuda.in_frame("main", l(1), |cuda| {
            let stream = cuda.stream_create(l(8))?;
            let d_parts = cuda.malloc(256 * 1024, l(10))?;
            // BUG: plain pageable memory, not cudaMallocHost.
            let h_stage = cuda.host_malloc(32 * 1024);

            for _b in 0..self.blocks {
                cuda.in_frame("push_block", l(20), |cuda| {
                    let k = KernelDesc::compute("push_kernel", 90_000).writing(d_parts, 4096);
                    cuda.launch_kernel(&k, stream, l(22))?;
                    // Secretly synchronous: D2H async into pageable memory.
                    cuda.memcpy_dtoh_async(h_stage, d_parts, 32 * 1024, stream, l(24))?;
                    cuda.machine.cpu_work(70_000, "integrate_forces");
                    CudaResult::Ok(())
                })?;
            }
            // Results consumed at the end.
            let v = cuda.machine.host_read_app(h_stage, 128, l(30)).unwrap();
            let _ = v[0];
            cuda.free(d_parts, l(32))?;
            Ok(())
        })
    }
}

fn main() {
    let app = ParticlePush { blocks: 24 };
    let cost = CostModel::pascal_like();
    let driver = DriverConfig::default();

    // Drive the stages manually (run_ffm does exactly this).
    println!("discovery: locating the driver's internal sync function...");
    let d = identify_sync_function(cost.clone()).expect("discovery");
    println!("  -> {}", d.sync_fn.symbol());

    println!("stage 1: baseline measurement...");
    let s1 = stages::run_stage1(&app, &cost, &driver).expect("stage 1");
    println!(
        "  exec {:.3} ms; synchronizing APIs: {:?}",
        s1.exec_time_ns as f64 / 1e6,
        s1.sync_apis.keys().map(|a| a.name()).collect::<Vec<_>>()
    );

    println!("stage 2: detailed tracing...");
    let s2 = stages::run_stage2(&app, &cost, &driver, &s1).expect("stage 2");
    println!("  {} traced calls", s2.calls.len());

    println!("stage 3: memory tracing + data hashing (two runs)...");
    let sync = stages::run_stage3_sync(&app, &cost, &driver, &s1).expect("stage 3 memory tracing");
    let hash = stages::run_stage3_hash(&app, &cost, &driver, &s1).expect("stage 3 data hashing");
    let s3 = stages::merge_stage3(sync, hash);
    println!(
        "  {} sync instances observed, {} required, {} duplicate transfers",
        s3.observed_syncs.len(),
        s3.required_syncs.len(),
        s3.duplicates.len()
    );

    println!("stage 4: sync-use timing...");
    let s4 = stages::run_stage4(&app, &cost, &driver, &s1, &s3).expect("stage 4");
    println!("  {} first-use gaps measured", s4.first_use_ns.len());

    println!("stage 5: analysis...\n");
    let a = analyze(&s1, &s2, &s3, &s4, &AnalysisConfig::default(), 1);
    for p in a.problems.iter().take(5) {
        println!(
            "  {} at {} [{}] -> {:.3} ms",
            p.api.map(|x| x.name()).unwrap_or("?"),
            p.site.map(|s| s.to_string()).unwrap_or_default(),
            p.problem.label(),
            p.benefit_ns as f64 / 1e6
        );
    }
    println!(
        "\ntotal expected benefit: {:.3} ms ({:.1}% of execution)",
        a.total_benefit_ns() as f64 / 1e6,
        a.percent(a.total_benefit_ns())
    );
    println!("hint: allocate the staging buffer with cudaMallocHost.");
    assert!(
        a.problems.iter().any(|p| p.api.map(|x| x.name()) == Some("cudaMemcpyAsync")),
        "the hidden conditional sync must surface"
    );
}
