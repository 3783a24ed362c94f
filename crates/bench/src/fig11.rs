//! Figure 11: tagging-mode breakdown (left) and skew robustness (right).
//!
//! Left: the record-tagged mode moves 4-byte record tags through tagging,
//! partitioning and conversion; the inline-terminated and vector-delimited
//! modes avoid that traffic and are "noticeably" faster. Right: a skewed
//! input with one giant record must not degrade — ParPaRaw's parallelism
//! is per symbol, not per record, and giant fields take the device-level
//! collaboration path.

use crate::datasets::Dataset;
use crate::{median, report};
use parparaw_core::{Parser, ParserOptions, TaggingMode};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::Grid;

/// One (dataset, mode) measurement.
#[derive(Debug)]
pub struct ModeRow {
    /// Dataset short name.
    pub dataset: &'static str,
    /// Tagging-mode name (`tagged`, `inline`, `delimited`).
    pub mode: &'static str,
    /// Simulated phase milliseconds (paper legend order).
    pub sim_phase_ms: Vec<(String, f64)>,
    /// Simulated total ms.
    pub sim_total_ms: f64,
    /// Wall total ms.
    pub wall_total_ms: f64,
}

/// Run the tagging-mode comparison (paper Fig. 11 left).
pub fn run_modes(bytes: usize, workers: usize) -> Vec<ModeRow> {
    let modes = [
        TaggingMode::RecordTagged,
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
    ];
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let data = dataset.generate(bytes);
        for mode in modes {
            let opts = ParserOptions {
                grid: Grid::new(workers),
                schema: Some(dataset.schema()),
                tagging: mode,
                ..ParserOptions::default()
            };
            let parser = Parser::new(rfc4180(&CsvDialect::default()), opts);
            let out = parser.parse(&data).expect("dataset parses in every mode");
            let model = parser.model(&data).expect("dataset parses in every mode");
            rows.push(ModeRow {
                dataset: dataset.short(),
                mode: match mode {
                    TaggingMode::RecordTagged => "tagged",
                    TaggingMode::InlineTerminated { .. } => "inline",
                    TaggingMode::VectorDelimited => "delimited",
                },
                sim_phase_ms: model
                    .simulated
                    .phases
                    .iter()
                    .map(|(n, s)| (n.clone(), s * 1e3))
                    .collect(),
                sim_total_ms: model.simulated.total_seconds * 1e3,
                wall_total_ms: out.timings.total().as_secs_f64() * 1e3,
            });
        }
    }
    rows
}

/// One skew measurement (paper Fig. 11 right).
#[derive(Debug)]
pub struct SkewRow {
    /// `original` or `skewed`.
    pub variant: &'static str,
    /// Simulated total ms.
    pub sim_total_ms: f64,
    /// Median wall total ms over the alternating timed parses of
    /// [`run_skew`].
    pub wall_total_ms: f64,
    /// Fields routed through device-level collaboration (the giant-field
    /// tier; excludes the block-level middle tier).
    pub device_level_fields: u64,
}

/// Timed parses per skew variant, alternating original and skewed after
/// one untimed warm-up of each; the reported wall is their median.
const SKEW_ROUNDS: usize = 7;

/// Run the skew experiment: the same total bytes, one variant containing a
/// single giant record (`giant_bytes` of text).
pub fn run_skew(bytes: usize, giant_bytes: usize, workers: usize) -> Vec<SkewRow> {
    let original = parparaw_workloads::yelp::generate(bytes, 0xE11A5);
    let skewed = parparaw_workloads::skewed::yelp_skewed(
        bytes.saturating_sub(giant_bytes),
        giant_bytes,
        0xE11A5,
    );
    let schema = parparaw_workloads::yelp::schema();
    let parser = Parser::new(
        rfc4180(&CsvDialect::default()),
        ParserOptions {
            grid: Grid::new(workers),
            schema: Some(schema),
            ..ParserOptions::default()
        },
    );
    let parse = |data: &[u8]| parser.parse(data).expect("skewed data parses");
    let variants = [("original", original), ("skewed", skewed)];
    // The warm-up parse supplies the tier count and the model the
    // simulated time; neither depends on the run.
    let mut rows: Vec<SkewRow> = variants
        .iter()
        .map(|&(variant, ref data)| {
            let out = parse(data);
            let model = parser.model(data).expect("skewed data parses");
            SkewRow {
                variant,
                sim_total_ms: model.simulated.total_seconds * 1e3,
                wall_total_ms: 0.0,
                device_level_fields: out.stats.collaborative_fields - out.stats.block_level_fields,
            }
        })
        .collect();
    let mut walls = vec![Vec::with_capacity(SKEW_ROUNDS); variants.len()];
    for _ in 0..SKEW_ROUNDS {
        for ((_, data), wall) in variants.iter().zip(&mut walls) {
            wall.push(parse(data).timings.total().as_secs_f64() * 1e3);
        }
    }
    for (row, wall) in rows.iter_mut().zip(walls) {
        row.wall_total_ms = median(wall);
    }
    rows
}

/// Render the tagging-mode series as the `BENCH_fig11.json`
/// machine-readable report: per dataset and mode, the simulated total and
/// per-phase milliseconds plus the wall total.
pub fn to_json(bytes: usize, workers: usize, modes: &[ModeRow]) -> String {
    use report::{json_num, json_str};
    let rows: Vec<String> = modes
        .iter()
        .map(|r| {
            let phases: Vec<String> = r
                .sim_phase_ms
                .iter()
                .map(|(n, v)| format!("{{\"name\": {}, \"sim_ms\": {}}}", json_str(n), json_num(*v)))
                .collect();
            format!(
                "    {{ \"dataset\": {}, \"mode\": {}, \"sim_total_ms\": {}, \"wall_total_ms\": {}, \
                 \"phases\": [{}] }}",
                json_str(r.dataset),
                json_str(r.mode),
                json_num(r.sim_total_ms),
                json_num(r.wall_total_ms),
                phases.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"harness\": \"fig11\",\n  \"bytes\": {bytes},\n  \"workers\": {workers},\n  \
         \"modes\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Print both halves of the figure.
pub fn print(modes: &[ModeRow], skew: &[SkewRow]) -> String {
    let phases = ["parse", "scan", "tag", "partition", "convert"];
    let mut headers = vec!["dataset", "mode", "sim total"];
    headers.extend(phases);
    headers.push("wall total");
    let rows: Vec<Vec<String>> = modes
        .iter()
        .map(|r| {
            let mut cells = vec![
                r.dataset.to_string(),
                r.mode.to_string(),
                report::ms(r.sim_total_ms),
            ];
            for p in &phases {
                let v = r
                    .sim_phase_ms
                    .iter()
                    .find(|(n, _)| n == p)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                cells.push(report::ms(v));
            }
            cells.push(report::ms(r.wall_total_ms));
            cells
        })
        .collect();
    let skew_rows: Vec<Vec<String>> = skew
        .iter()
        .map(|r| {
            vec![
                r.variant.to_string(),
                report::ms(r.sim_total_ms),
                report::ms(r.wall_total_ms),
                r.device_level_fields.to_string(),
            ]
        })
        .collect();
    format!(
        "Figure 11 (left): tagging modes (sim ms)\n{}\nFigure 11 (right): skewed input\n{}",
        report::table(&headers, &rows),
        report::table(
            &["variant", "sim total", "wall total", "device-tier fields"],
            &skew_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_mode_is_slowest_in_simulation() {
        let rows = run_modes(300_000, 2);
        for dataset in ["yelp", "NYC"] {
            let get = |m: &str| {
                rows.iter()
                    .find(|r| r.dataset == dataset && r.mode == m)
                    .unwrap()
                    .sim_total_ms
            };
            assert!(
                get("tagged") > get("inline"),
                "{dataset}: tagged {} should exceed inline {}",
                get("tagged"),
                get("inline")
            );
            assert!(
                get("tagged") > get("delimited"),
                "{dataset}: tagged should exceed delimited"
            );
        }
    }

    #[test]
    fn skew_stays_robust() {
        let rows = run_skew(400_000, 100_000, 2);
        let orig = rows.iter().find(|r| r.variant == "original").unwrap();
        let skew = rows.iter().find(|r| r.variant == "skewed").unwrap();
        // Robustness: the skewed run must not blow up (paper: "roughly
        // the same time"); allow 2x in simulation.
        assert!(
            skew.sim_total_ms < orig.sim_total_ms * 2.0,
            "skewed {} vs original {}",
            skew.sim_total_ms,
            orig.sim_total_ms
        );
        let modes = run_modes(100_000, 2);
        let text = print(&modes, &rows);
        assert!(text.contains("skewed"));
        let json = to_json(100_000, 2, &modes);
        assert!(json.contains("\"harness\": \"fig11\""));
        assert_eq!(json.matches("\"mode\"").count(), modes.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
