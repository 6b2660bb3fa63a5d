//! The §6 extension experiment: fully automatic correction.
//!
//! For each evaluation application: run Diogenes, derive a fix policy
//! from the analysis, install it as a driver-interposition shim, and
//! measure the patched application — no human edits. Compares the
//! realized saving with Diogenes' estimate and with the paper's
//! hand-written fixes (Table 1's actual column).

use cuda_driver::uninstrumented_exec_time;
use diogenes::experiments::paper_subjects;
use diogenes::experiments::secs;
use diogenes::{autocorrect, AutofixConfig};
use ffm_core::{effective_jobs, try_par_map};
use gpu_sim::CostModel;

fn main() {
    let paper = diogenes_bench::paper_scale_from_env();
    let cost = CostModel::pascal_like();
    println!(
        "Automatic correction (paper §6 future work), {} scale\n",
        if paper { "paper" } else { "test" }
    );
    println!(
        "{:<18} {:>7} {:>22} {:>22} {:>22} {:>10}",
        "Application",
        "sites",
        "Diogenes estimate",
        "autofix realized",
        "hand-fix realized",
        "shim ops"
    );
    // jobs = 0: subjects autofix concurrently (each runs the pipeline,
    // a patched re-run, and two uninstrumented baselines); rows print in
    // subject order once all land.
    let rows = try_par_map(
        paper_subjects(paper),
        effective_jobs(0),
        |subject| -> cuda_driver::CudaResult<_> {
            let app = subject.broken.as_ref();
            eprintln!("  autofixing {} ...", app.name());
            let (result, _policy, outcome) = autocorrect(app, &AutofixConfig::default())?;
            let est = result.report.analysis.total_benefit_ns();
            let est_pct = result.report.analysis.percent(est);
            let hand_before = uninstrumented_exec_time(app, cost.clone())?;
            let hand_after = uninstrumented_exec_time(subject.fixed.as_ref(), cost.clone())?;
            let hand_saved = hand_before.saturating_sub(hand_after);
            Ok((app.name().to_string(), outcome, est, est_pct, hand_saved, hand_before))
        },
    )
    .expect("autofix");
    for (name, outcome, est, est_pct, hand_saved, hand_before) in rows {
        println!(
            "{:<18} {:>7} {:>13} ({:4.1}%) {:>13} ({:4.1}%) {:>13} ({:4.1}%) {:>10}",
            name,
            outcome.patched_sites,
            secs(est),
            est_pct,
            secs(outcome.saved_ns()),
            outcome.saved_pct(),
            secs(hand_saved),
            hand_saved as f64 * 100.0 / hand_before.max(1) as f64,
            outcome.stats.total(),
        );
    }
    println!("\n(conditional cudaMemcpyAsync syncs are patched by page-locking the");
    println!(" destination in place — the cudaHostRegister remedy)");
}
