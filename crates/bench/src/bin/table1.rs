//! Regenerate paper Table 1: four applications, Diogenes' estimated
//! benefit for the fixed issues vs. the actual runtime reduction of the
//! fixed build.

use diogenes::experiments::{paper_subjects, render_table1, table1_rows};
use diogenes_bench::paper_scale_from_env;
use gpu_sim::CostModel;

fn main() {
    let paper = paper_scale_from_env();
    let subjects = paper_subjects(paper);
    eprintln!(
        "table1: running the 5-stage pipeline + fixed builds on {} applications ({} scale): {}",
        subjects.len(),
        if paper { "paper" } else { "test" },
        subjects.iter().map(|s| s.broken.name()).collect::<Vec<_>>().join(", ")
    );
    let cost = CostModel::pascal_like();
    // jobs = 0: the fleet fans out per DIOGENES_JOBS / core count; rows
    // come back in subject order either way.
    let rows: Vec<_> = table1_rows(subjects, &cost, 0)
        .expect("pipeline runs")
        .into_iter()
        .map(|(row, _res)| row)
        .collect();
    print!("{}", render_table1(&rows));
}
