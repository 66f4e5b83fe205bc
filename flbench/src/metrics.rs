//! The metric catalogue and the result line.
//!
//! Every name the benchmark can print is listed here with its unit; a run
//! that produces any other set of names is a bug and fails before printing.
//! `BENCHMARK.json` lists the same names (checked by a test).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("experiments_per_s", "1/s"),
    ("run_latency_p50_s", "s"),
    ("run_latency_p99_s", "s"),
    ("final_accuracy_pct", "%"),
    ("wire_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Event labels reported by `core.event.<label>.{count,s}`: every label
/// one of the workloads fires.
pub const EVENT_LABELS: &[&str] = &[
    "open_training",
    "training_done",
    "start_scoring",
    "scores_due",
    "round_barrier",
    "cluster_wake",
    "seal_slot",
    "shard_seal_due",
    "shard_exchange",
    "prefetch_due",
];

/// Per-layer metrics, printed by every workload with `--trace 1`, apart
/// from the `core.event.*` pairs, which [`per_layer`] adds per label.
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("tensor.train_batch_cnn_ms", "ms"),
    ("tensor.eval_batch_cnn_ms", "ms"),
    ("tensor.conv_fwd_us", "us"),
    ("tensor.conv_bwd_us", "us"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.train_batch_mlp_us", "us"),
    ("tensor.delta_encode_mb_s", "MB/s"),
    ("tensor.delta_decode_mb_s", "MB/s"),
    ("fl.fit_ms", "ms"),
    ("fl.evaluate_ms", "ms"),
    ("fl.aggregate_us", "us"),
    ("core.phase.train_s", "s"),
    ("core.phase.score_s", "s"),
    ("core.phase.fetch_s", "s"),
    ("core.phase.seal_s", "s"),
    ("core.scoring.accuracy_score_ms", "ms"),
    ("core.events_per_s", "1/s"),
    ("core.finish_s", "s"),
    ("storage.add_mb_s", "MB/s"),
    ("storage.get_remote_ms", "ms"),
    ("storage.get_cached_us", "us"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.physical_to_logical", "ratio"),
    ("storage.delta_fallback_ratio", "ratio"),
    ("storage.dedup_chunks_skipped", "count"),
    ("storage.route_hops", "count"),
    ("storage.relayed_mb", "MB"),
    ("chain.sha256_mb_s", "MB/s"),
    ("chain.merkle_root_us", "us"),
    ("chain.seal_block_us", "us"),
    ("chain.txs", "count"),
    ("chain.blocks", "count"),
    ("chain.failed_tx_ratio", "ratio"),
    ("chain.gas", "count"),
    ("data.generate_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.queue_wait_p50_s", "s"),
    ("service.refused", "count"),
    ("service.generator_lateness_s", "s"),
    ("self.core_s", "s"),
    ("self.tensor_fl_s", "s"),
    ("self.storage_s", "s"),
    ("self.chain_s", "s"),
    ("self.tensor_fl_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Every per-layer metric name with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect();
    for label in EVENT_LABELS {
        all.push((format!("core.event.{label}.count"), "count"));
        all.push((format!("core.event.{label}.s"), "s"));
    }
    all
}

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records a value.
    ///
    /// # Panics
    ///
    /// Panics if the name was already recorded or the value is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name.clone(), value);
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Checks that exactly the catalogue's names were recorded and renders
    /// them, in catalogue order, as the `metrics` object of the result line.
    pub fn render(&self, catalogue: &[(String, &str)]) -> Result<String, String> {
        let expected: Vec<&str> = catalogue.iter().map(|(n, _)| n.as_str()).collect();
        let missing: Vec<&str> = expected
            .iter()
            .copied()
            .filter(|n| !self.values.contains_key(*n))
            .collect();
        let extra: Vec<&str> = self
            .values
            .keys()
            .map(String::as_str)
            .filter(|n| !expected.contains(n))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            return Err(format!(
                "metric set mismatch: missing {missing:?}, extra {extra:?}"
            ));
        }
        let mut out = String::from("{");
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(self.values[name])
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        Ok(out)
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives.
pub fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

/// The end-to-end catalogue in the shape [`Metrics::render`] takes.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_owned(), unit))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The `(name, unit)` pairs of one list in `BENCHMARK.json`, read with a
    /// scan for `"name": "…"` / `"unit": "…"` pairs inside that list.
    fn listed(json: &str, list: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list is closed")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("entry without {key}: {entry}"));
            let rest = &entry[at + key.len() + 2..];
            let open = rest.find('"').expect("string value") + 1;
            let close = rest[open..].find('"').expect("closed string") + open;
            rest[open..close].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark directory")
    }

    fn owned(catalogue: Vec<(String, &str)>) -> Vec<(String, String)> {
        catalogue
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect()
    }

    #[test]
    fn every_printed_name_is_listed_in_benchmark_json_with_its_unit() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), owned(end_to_end()));
        assert_eq!(listed(&json, "per_layer"), owned(per_layer()));
        let workloads: Vec<String> = listed_names(&json, "workloads");
        let ours: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_owned())
            .collect();
        assert_eq!(workloads, ours);
    }

    fn listed_names(json: &str, list: &str) -> Vec<String> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list is closed")];
        body.match_indices("\"name\"")
            .map(|(at, _)| {
                let rest = &body[at + 6..];
                let open = rest.find('"').expect("string value") + 1;
                let close = rest[open..].find('"').expect("closed string") + open;
                rest[open..close].to_owned()
            })
            .collect()
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        assert!(all.len() <= 16 + 128);
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
        }
        let mut names: Vec<&str> = all.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
    }

    #[test]
    fn render_rejects_a_missing_or_extra_name_and_keeps_every_digit() {
        let catalogue = vec![("a_s".to_owned(), "s"), ("b".to_owned(), "count")];
        let mut m = Metrics::default();
        m.set("a_s", 0.123456789012345);
        assert!(m
            .render(&catalogue)
            .unwrap_err()
            .contains("missing [\"b\"]"));
        m.set("b", 3.0);
        assert_eq!(
            m.render(&catalogue).unwrap(),
            "{\"a_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}, \
             \"b\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
        m.set("c", 1.0);
        assert!(m.render(&catalogue).unwrap_err().contains("extra [\"c\"]"));
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
