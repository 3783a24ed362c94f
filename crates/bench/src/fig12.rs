//! Figure 12: end-to-end duration as a function of partition size.
//!
//! The paper streams each dataset through the double-buffered pipeline
//! with partition sizes from 4 MB to 512 MB: throughput improves with
//! partition size until the un-overlappable head (first transfer) and
//! tail (last return) start to dominate — 128 MB (yelp) / 256 MB (taxi)
//! are the sweet spots. The same schedule replays here through the
//! Fig. 7 timeline simulator over the measured per-partition work.

use crate::datasets::Dataset;
use crate::report;
use parparaw_core::{Parser, ParserOptions};
use parparaw_device::{CostModel, DeviceConfig, PcieLink};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::Grid;

/// One sweep point.
#[derive(Debug)]
pub struct Row {
    /// Partition size in bytes.
    pub partition_bytes: usize,
    /// Simulated end-to-end seconds (transfers + overlapped parsing).
    pub sim_end_to_end_s: f64,
    /// Wall-clock seconds of the streamed parse on this host.
    pub wall_s: f64,
    /// Number of partitions.
    pub partitions: usize,
    /// Simulated on-device parse milliseconds of each partition.
    pub sim_parse_ms: Vec<f64>,
}

/// Sweep partition sizes over a fixed input.
pub fn run(dataset: Dataset, bytes: usize, partition_sizes: &[usize], workers: usize) -> Vec<Row> {
    let data = dataset.generate(bytes);
    let parser = Parser::new(
        rfc4180(&CsvDialect::default()),
        ParserOptions {
            grid: Grid::new(workers),
            schema: Some(dataset.schema()),
            ..ParserOptions::default()
        },
    );
    let model = CostModel::new(DeviceConfig::titan_x_pascal());
    partition_sizes
        .iter()
        .map(|&ps| {
            let streamed = parser.parse_stream(&data, ps).expect("stream parses");
            let modelled = parser.model_stream(&data, ps).expect("stream parses");
            let sim = modelled
                .streaming_plan(PcieLink::pcie3_x16())
                .simulate(&model);
            Row {
                partition_bytes: ps,
                sim_end_to_end_s: sim.total_seconds,
                wall_s: streamed.wall.as_secs_f64(),
                partitions: streamed.partitions.len(),
                sim_parse_ms: modelled
                    .partitions
                    .iter()
                    .map(|p| p.parse_seconds_simulated * 1e3)
                    .collect(),
            }
        })
        .collect()
}

/// Default sweep: powers of two from 1/16 of the input up to the whole
/// input (the paper's 4 MB – 512 MB shape, scaled).
pub fn default_partition_sizes(bytes: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut s = (bytes / 16).max(1 << 20);
    while s < bytes {
        sizes.push(s);
        s *= 2;
    }
    sizes.push(bytes);
    sizes
}

/// Render the sweeps as the `BENCH_fig12.json` machine-readable report:
/// per dataset and partition size, the simulated end-to-end and
/// per-partition parse milliseconds plus the wall seconds.
pub fn to_json(bytes: usize, workers: usize, results: &[(Dataset, Vec<Row>)]) -> String {
    use report::{json_num, json_str};
    let datasets: Vec<String> = results
        .iter()
        .map(|(dataset, rows)| {
            let rows: Vec<String> = rows
                .iter()
                .map(|r| {
                    let parse: Vec<String> = r.sim_parse_ms.iter().map(|&v| json_num(v)).collect();
                    format!(
                        "      {{ \"partition_bytes\": {}, \"partitions\": {}, \"sim_e2e_ms\": {}, \
                         \"wall_s\": {}, \"sim_parse_ms\": [{}] }}",
                        r.partition_bytes,
                        r.partitions,
                        json_num(r.sim_end_to_end_s * 1e3),
                        json_num(r.wall_s),
                        parse.join(", ")
                    )
                })
                .collect();
            format!(
                "    {{ \"name\": {}, \"rows\": [\n{}\n    ] }}",
                json_str(dataset.short()),
                rows.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"harness\": \"fig12\",\n  \"bytes\": {bytes},\n  \"workers\": {workers},\n  \
         \"datasets\": [\n{}\n  ]\n}}\n",
        datasets.join(",\n")
    )
}

/// Print the series.
pub fn print(dataset: Dataset, rows: &[Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.partition_bytes as f64 / (1 << 20) as f64),
                r.partitions.to_string(),
                report::ms(r.sim_end_to_end_s * 1e3),
                report::secs(r.wall_s),
            ]
        })
        .collect();
    format!(
        "Figure 12 ({}): end-to-end duration vs partition size\n{}",
        dataset.name(),
        report::table(
            &["partition (MB)", "parts", "sim e2e (ms)", "wall (s)"],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_partitions_pay_launch_overhead() {
        // The left side of the paper's U-curve: partitions so small that
        // per-partition kernel launches dominate must be slower than
        // moderate partitions. (The right side — large partitions losing
        // their overlap — needs transfer-scale inputs and is exercised by
        // the fig12 binary and the device-crate streaming tests.)
        let bytes = 2 << 20;
        let rows = run(Dataset::Taxi, bytes, &[bytes / 32, bytes / 2, bytes * 2], 2);
        let tiny = &rows[0];
        let mid = &rows[1];
        let single = &rows[2];
        assert!(tiny.partitions >= 32);
        assert_eq!(single.partitions, 1);
        assert!(
            tiny.sim_end_to_end_s > mid.sim_end_to_end_s,
            "tiny partitions {} should cost more than moderate ones {}",
            tiny.sim_end_to_end_s,
            mid.sim_end_to_end_s
        );
        assert!(rows.iter().all(|r| r.sim_parse_ms.len() == r.partitions));
        let text = print(Dataset::Taxi, &rows);
        assert!(text.contains("partition"));
        let json = to_json(bytes, 2, &[(Dataset::Taxi, rows)]);
        assert!(json.contains("\"harness\": \"fig12\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn default_sizes_cover_range() {
        let sizes = default_partition_sizes(64 << 20);
        assert!(sizes.len() >= 4);
        assert_eq!(*sizes.last().unwrap(), 64 << 20);
    }
}
