//! The metric tables. `BENCHMARK.json` at the repository root is the one
//! place they are written down; the harness reads them from it, compiled
//! in, and prints every metric listed there, in its order.

use std::sync::OnceLock;

use ffm_core::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric of what a user waits for, printed by runs without `--trace`.
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer, printed by `--trace 1` runs. Layers are timed
/// from outside, one public call at a time.
pub struct PerLayer {
    pub name: String,
    pub unit: String,
}

pub struct Tables {
    pub end_to_end: Vec<EndToEnd>,
    pub per_layer: Vec<PerLayer>,
}

/// The tables of `BENCHMARK.json`.
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json"))
            .unwrap_or_else(|e| panic!("BENCHMARK.json: {e}"))
    })
}

fn parse(text: &str) -> Result<Tables, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key).and_then(Json::as_arr).ok_or_else(|| format!("no {key} list"))
    };
    let text = |entry: &Json, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry has no {key}: {}", entry.to_string_compact()))
    };
    let mut end_to_end = Vec::new();
    for entry in list("end_to_end")? {
        let better = match text(entry, "better")?.as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => return Err(format!("better is lower or higher, not {other:?}")),
        };
        end_to_end.push(EndToEnd {
            name: text(entry, "name")?,
            unit: text(entry, "unit")?,
            better,
            bound: entry.get("bound").and_then(Json::as_f64).ok_or("an entry has no bound")?,
        });
    }
    let per_layer = list("per_layer")?
        .iter()
        .map(|entry| Ok(PerLayer { name: text(entry, "name")?, unit: text(entry, "unit")? }))
        .collect::<Result<_, String>>()?;
    Ok(Tables { end_to_end, per_layer })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_gives_both_tables_and_setup_the_largest_bound() {
        let t = tables();
        assert!(!t.end_to_end.is_empty() && !t.per_layer.is_empty());
        let setup = t.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s listed");
        assert!(t.end_to_end.iter().all(|m| m.bound <= setup.bound));
    }
}
