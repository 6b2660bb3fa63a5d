//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Sequence carry-forward** on/off — how much benefit the §3.5.2
//!    modification recovers over plain per-node Fig. 5 evaluation.
//! 2. **Misplaced-sync clamping** — paper-exact `FirstUseTime` estimates
//!    vs. estimates clamped to the wait they can actually shorten.
//! 3. **Multi-run vs. single-run discovery** — how many problematic
//!    operations a Paradyn-style single-run tracer (which only starts
//!    tracing a function after first seeing it synchronize) misses.
//! 4. **Driver honesty** — on a hypothetical fully-asynchronous driver
//!    with none of the hidden synchronizations, the tool must go quiet.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use cuda_driver::{ApiFn, Cuda, DriverConfig, GpuApp, HookEvent, InternalFn};
use diogenes_apps::{AlsConfig, CumfAls};
use ffm_core::{
    carry_forward_benefit, effective_jobs, expected_benefit, par_map, run_ffm, AnalysisConfig,
    BenefitOptions, FfmConfig,
};
use gpu_sim::CostModel;
use instrument::{FunctionProbe, ProbeSpec};

fn als() -> CumfAls {
    CumfAls::new(AlsConfig::test_scale())
}

fn main() {
    let honest_cfg = FfmConfig {
        cost: CostModel::pascal_like(),
        driver: DriverConfig::fully_async(),
        analysis: AnalysisConfig::default(),
        ..FfmConfig::default()
    };
    // Ablation 4 needs a second full pipeline on a fully-async driver;
    // it is independent of the default run, so overlap the two.
    let [report, honest]: [_; 2] =
        par_map(vec![FfmConfig::default(), honest_cfg], effective_jobs(0), |cfg| {
            run_ffm(&als(), &cfg).expect("pipeline")
        })
        .try_into()
        .expect("two configs in, two reports out");
    let a = &report.analysis;

    // ---- 1. carry-forward vs plain Fig. 5 --------------------------------
    println!("== ablation 1: sequence carry-forward ==");
    let plain_total = a.benefit.total_ns;
    let carry_total: u64 =
        a.sequences.iter().map(|s| carry_forward_benefit(&a.graph, s.start, s.end)).sum();
    println!("  per-node (Fig. 5)  : {:>12} ns", plain_total);
    println!("  carry-forward       : {:>12} ns over {} sequences", carry_total, a.sequences.len());
    println!(
        "  carry-forward recovers {:+.1}% more",
        (carry_total as f64 - plain_total as f64) * 100.0 / plain_total.max(1) as f64
    );
    println!("  (equality means every window absorbed its own wait; the two\n   estimators only diverge when waits exceed their local windows)\n");

    // ---- 2. misplaced clamping --------------------------------------------
    println!("== ablation 2: misplaced-synchronization clamping ==");
    let clamped = expected_benefit(&a.graph, &BenefitOptions { clamp_misplaced: true });
    let paper_exact = expected_benefit(&a.graph, &BenefitOptions { clamp_misplaced: false });
    println!("  clamped estimate    : {:>12} ns", clamped.total_ns);
    println!("  paper-exact estimate: {:>12} ns", paper_exact.total_ns);
    println!(
        "  paper-exact overshoots by {:.2}%\n",
        (paper_exact.total_ns as f64 - clamped.total_ns as f64) * 100.0
            / clamped.total_ns.max(1) as f64
    );

    // ---- 3. single-run vs multi-run ---------------------------------------
    println!("== ablation 3: single-run (Paradyn-style) vs multi-run discovery ==");
    let (seen_late, total) = single_run_miss_count(&als());
    println!("  problematic-API calls in the run        : {total}");
    println!("  issued before the API was known to sync : {seen_late}");
    println!(
        "  a single-run tracer would have missed {:.1}% of them;\n  the multi-run design traces 100% (stage 1 feeds stage 2)\n",
        seen_late as f64 * 100.0 / total.max(1) as f64
    );

    // ---- 4. honest driver -------------------------------------------------
    println!("== ablation 4: fully-asynchronous driver ==");
    println!(
        "  default driver: {} problems, {} ns expected benefit",
        a.problems.len(),
        a.benefit.total_ns
    );
    println!(
        "  fully-async driver: {} problems, {} ns expected benefit",
        honest.analysis.problems.len(),
        honest.analysis.benefit.total_ns
    );
    let hidden = a.problems.iter().filter(|p| p.api.map(|x| x.name()) == Some("cudaFree")).count();
    let hidden_honest = honest
        .analysis
        .problems
        .iter()
        .filter(|p| p.api.map(|x| x.name()) == Some("cudaFree"))
        .count();
    println!(
        "  cudaFree findings: {hidden} -> {hidden_honest} (implicit-sync findings need an implicit-sync driver;\n   duplicate transfers and useless explicit syncs remain real problems)"
    );
}

/// Run the app once with an all-API probe that mimics a single-run tool:
/// an API's calls only count as traced once the funnel has been observed
/// inside that API earlier in the *same* run.
#[allow(clippy::type_complexity)]
fn single_run_miss_count(app: &dyn GpuApp) -> (u64, u64) {
    let mut cuda = Cuda::new(CostModel::pascal_like());
    let state: Rc<RefCell<(HashSet<ApiFn>, u64, u64, Option<ApiFn>)>> =
        Rc::new(RefCell::new((HashSet::new(), 0, 0, None)));
    let s = state.clone();
    FunctionProbe::install(
        &mut cuda,
        ProbeSpec {
            all_apis: true,
            internals: [InternalFn::SyncWait].into_iter().collect(),
            ..Default::default()
        },
        Box::new(move |hit, _m| {
            let mut st = s.borrow_mut();
            match hit.event {
                HookEvent::ApiEnter { api, .. } => {
                    st.3 = Some(*api);
                    // Only count the APIs that will ever matter (sync
                    // performers).
                    if matches!(
                        api,
                        ApiFn::CudaFree | ApiFn::CudaMemcpy | ApiFn::CudaDeviceSynchronize
                    ) {
                        st.2 += 1;
                        if !st.0.contains(api) {
                            st.1 += 1; // not yet known to synchronize: missed
                        }
                    }
                }
                HookEvent::InternalExit { func: InternalFn::SyncWait, .. } => {
                    if let Some(api) = st.3 {
                        st.0.insert(api);
                    }
                }
                _ => {}
            }
        }),
    );
    app.run(&mut cuda).expect("runs");
    let st = state.borrow();
    (st.1, st.2)
}
