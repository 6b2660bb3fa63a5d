//! `--compare <base> <candidate>`: two sets of runs, as the JSON lines
//! `--out` appends, reduced to one verdict per workload and end-to-end
//! metric.

use ffm_core::Json;

use crate::metrics::tables;
use crate::stats::{quartiles, verdict, worsening, Verdict};
use crate::WORKLOADS;

/// The end-to-end (untraced) records of a runs file.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let rec = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if rec.get("trace") == Some(&Json::Bool(false)) {
            records.push(rec);
        }
    }
    Ok(records)
}

fn of<'a>(records: &'a [Json], workload: &'a str) -> impl Iterator<Item = &'a Json> + 'a {
    records.iter().filter(move |r| r.get("workload").and_then(Json::as_str) == Some(workload))
}

fn values(records: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    of(records, workload)
        .filter_map(|r| r.get("result")?.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Failed ops over attempted ops, summed over the runs.
fn error_rate(records: &[Json], workload: &str) -> f64 {
    let count = |key: &str| -> f64 {
        of(records, workload).filter_map(|r| r.get("result")?.get(key)?.as_f64()).sum()
    };
    count("failed") / count("attempted").max(1.0)
}

fn show([q1, median, q3]: [f64; 3]) -> String {
    format!("{median:.4} [{q1:.4}, {q3:.4}]")
}

/// Print the table; `Ok(true)` when every verdict is `ok`.
pub fn compare(base: &str, cand: &str) -> Result<bool, String> {
    let (a, b) = (load(base)?, load(cand)?);
    println!(
        "{:<12} {:<14} {:>30} {:>30} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "candidate median [q1, q3]", "worse", "bound"
    );
    let mut all_ok = true;
    for w in WORKLOADS.map(|w| w.name()) {
        if of(&a, w).next().is_none() && of(&b, w).next().is_none() {
            continue;
        }
        for m in &tables().end_to_end {
            let (va, vb) = (values(&a, w, &m.name), values(&b, w, &m.name));
            let (Some(qa), Some(qb), Some(v)) =
                (quartiles(&va), quartiles(&vb), verdict(&va, &vb, m.better, m.bound))
            else {
                println!("{w:<12} {:<14} needs two runs on each side", m.name);
                all_ok = false;
                continue;
            };
            all_ok &= v == Verdict::Ok;
            println!(
                "{w:<12} {:<14} {:>30} {:>30} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                show(qa),
                show(qb),
                worsening(qa[1], qb[1], m.better) * 100.0,
                m.bound * 100.0,
                v.as_str()
            );
        }
        // Any increase in failures is a regression.
        let (ra, rb) = (error_rate(&a, w), error_rate(&b, w));
        let v = if rb > ra { Verdict::Worse } else { Verdict::Ok };
        all_ok &= v == Verdict::Ok;
        println!(
            "{w:<12} {:<14} {ra:>30} {rb:>30} {:>8} {:>6}  {}",
            "error_rate",
            "",
            "",
            v.as_str()
        );
    }
    Ok(all_ok)
}
