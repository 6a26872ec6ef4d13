//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are declared. Every run prints exactly
//! the metrics listed there, and `--selfcheck` holds runs to its bounds.

use lad_obs::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (`None` for per-layer metrics, which are reported, not gated).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    /// # Panics
    ///
    /// Panics if the compiled-in `BENCHMARK.json` is malformed — a broken
    /// build input, not a runtime condition.
    pub fn load() -> Contract {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Value> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is an array"))
                .to_vec()
        };
        let text = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a string"))
                .to_owned()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            list(key)
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: text(m, "better") == "higher",
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_u64)
                .expect("BENCHMARK.json: `run_seconds` is a whole number"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The metrics a run with `--trace <traced>` must print.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn contract_names_the_four_workloads_and_the_base_seconds() {
        let c = Contract::load();
        assert_eq!(c.workloads, workload::NAMES);
        assert_eq!(c.run_seconds, workload::BASE_SECONDS);
    }

    #[test]
    fn bounds_directions_and_names_obey_the_driver_schema() {
        let c = Contract::load();
        let legal = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|ch| ch.is_ascii_alphanumeric() || extra.contains(ch))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in c.end_to_end.iter().chain(&c.per_layer) {
            assert!(legal(&m.name, "_.-") && m.name.len() <= 64, "{}", m.name);
            assert!(legal(&m.unit, "_/%.-") && m.unit.len() <= 16, "{}", m.unit);
            assert!(seen.insert(m.name.clone()), "{} listed twice", m.name);
        }
        for m in &c.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = c
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
    }
}
