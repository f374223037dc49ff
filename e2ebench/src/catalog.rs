//! The catalogue of workloads and metrics, read from `BENCHMARK.json` at
//! the repository root, the one list of every name the benchmark uses.

use std::sync::OnceLock;

/// `BENCHMARK.json`, compiled in.
const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// One metric: its name and unit.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
}

/// The workload names and the two metric lists of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Catalogue {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn parse(text: &str) -> Result<Catalogue, String> {
    let json: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let list = |key: &str| -> Result<Vec<&serde::Value>, String> {
        json.get(key)
            .and_then(serde::Value::as_array)
            .map(|xs| xs.iter().collect())
            .ok_or_else(|| format!("no `{key}` list"))
    };
    let field = |entry: &serde::Value, key: &str| -> Result<String, String> {
        entry
            .get(key)
            .and_then(serde::Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("an entry has no `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        list(key)?
            .into_iter()
            .map(|m| {
                Ok(Metric {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    Ok(Catalogue {
        workloads: list("workloads")?
            .into_iter()
            .map(|w| field(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// The catalogue.
///
/// # Panics
///
/// Panics if the compiled-in `BENCHMARK.json` lacks a list or a name or
/// unit; the self-tests parse it.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| parse(SOURCE).unwrap_or_else(|e| panic!("BENCHMARK.json: {e}")))
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    let c = catalogue();
    c.end_to_end
        .iter()
        .chain(&c.per_layer)
        .find(|m| m.name == name)
        .map(|m| m.unit.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let c = catalogue();
        assert!(!c.workloads.is_empty());
        let all: Vec<&str> = c
            .workloads
            .iter()
            .map(String::as_str)
            .chain(
                c.end_to_end
                    .iter()
                    .chain(&c.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} listed twice");
        }
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(valid_unit(&m.unit), "{}", m.name);
            assert_eq!(unit_of(&m.name), Some(m.unit.as_str()));
        }
    }

    #[test]
    fn malformed_catalogues_are_refused() {
        assert!(parse("{}").is_err());
        assert!(
            parse(r#"{"workloads": [], "end_to_end": [{"name": "x"}], "per_layer": []}"#).is_err()
        );
    }
}
