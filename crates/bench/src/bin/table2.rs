//! Regenerate paper Table 2: per-CUDA-call comparison of NVProf,
//! HPCToolkit, and Diogenes' expected savings, for all four applications.

use diogenes::experiments::{paper_subjects, render_table2, table2_all};
use diogenes_bench::paper_scale_from_env;
use gpu_sim::CostModel;

fn main() {
    let paper = paper_scale_from_env();
    let cost = CostModel::pascal_like();
    let subjects = paper_subjects(paper);
    eprintln!("table2: profiling {} applications with 3 tools each...", subjects.len());
    // jobs = 0: subjects profile concurrently; tables print in subject
    // order once all land.
    for t in table2_all(subjects, &cost, 0).expect("tools run") {
        print!("{}", render_table2(&t, 0.5));
        println!();
    }
}
