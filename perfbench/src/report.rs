//! The metrics the benchmark reports and the JSON line that carries them.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mb_s", "MiB/s"),
    ("cpu_ms_per_mb", "ms/MiB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("context.ms", "ms"),
    ("context.share", "ratio"),
    ("context.scaling", "ratio"),
    ("context.lane_ops_per_byte", "ops/B"),
    ("meta.ms", "ms"),
    ("meta.share", "ratio"),
    ("meta.scaling", "ratio"),
    ("tagging.ms", "ms"),
    ("tagging.share", "ratio"),
    ("tagging.scaling", "ratio"),
    ("tagging.runs", "count"),
    ("partition.ms", "ms"),
    ("partition.share", "ratio"),
    ("partition.scaling", "ratio"),
    ("partition.bytes_moved", "B"),
    ("convert.ms", "ms"),
    ("convert.share", "ratio"),
    ("convert.scaling", "ratio"),
    ("convert.fields", "count"),
    ("columnar.ipc_ms", "ms"),
    ("columnar.ipc_bytes", "B"),
    ("parallel.launches", "count"),
    ("parallel.launch_us", "us"),
    ("parallel.retries", "count"),
    ("streaming.partitions", "count"),
    ("streaming.partition_ms_p50", "ms"),
    ("streaming.parse_busy_share", "ratio"),
    ("streaming.carry_bytes", "B"),
    ("pipeline.glue_ms", "ms"),
    ("baselines.sequential_ms", "ms"),
    ("baselines.floor_ratio", "ratio"),
    ("host.runq_wait_ms", "ms"),
    ("host.steal_ms", "ms"),
];

/// The result line: exactly the metrics of `set`, each taken from
/// `values`. Fails when a metric is missing, unknown or not finite.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !set.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared"));
    }
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in set.iter().enumerate() {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        // Invariant: writing to a String cannot fail.
        write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn names_and_units_are_valid_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| n).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
    }

    /// Every `"key": "value"` string pair of `key` in `text`, in order.
    fn string_fields<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\": \"");
        text.match_indices(&pat)
            .map(|(at, _)| {
                let rest = &text[at + pat.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    #[test]
    fn matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end");
        let layer_at = text.find("\"per_layer\"").expect("per_layer");
        assert!(e2e_at < layer_at, "end_to_end precedes per_layer");
        let e2e = &text[e2e_at..layer_at];
        let layer = &text[layer_at..];
        let pairs = |s: &str| -> Vec<(String, String)> {
            let names = string_fields(s, "name");
            let units = string_fields(s, "unit");
            assert_eq!(names.len(), units.len());
            names
                .into_iter()
                .zip(units)
                .map(|(n, u)| (n.into(), u.into()))
                .collect()
        };
        let own = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(e2e), own(END_TO_END));
        assert_eq!(pairs(layer), own(PER_LAYER));
        let workloads: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(string_fields(&text[..e2e_at], "name"), workloads);
    }

    #[test]
    fn json_line_shape() {
        let set = [("a.ms", "ms"), ("b", "count")];
        let values = BTreeMap::from([("a.ms", 1.25), ("b", 3.0)]);
        assert_eq!(
            result_json(true, 4, 0, &set, &values).unwrap(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a.ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        let missing = BTreeMap::from([("a.ms", 1.0)]);
        assert!(result_json(true, 1, 0, &set, &missing).is_err());
        let extra = BTreeMap::from([("a.ms", 1.0), ("b", 1.0), ("c", 1.0)]);
        assert!(result_json(true, 1, 0, &set, &extra).is_err());
        let nan = BTreeMap::from([("a.ms", f64::NAN), ("b", 1.0)]);
        assert!(result_json(true, 1, 0, &set, &nan).is_err());
    }
}
