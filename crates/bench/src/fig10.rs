//! Figure 10: parsing rate as a function of input size.
//!
//! The paper sweeps 1 MB – 512 MB and reports the on-GPU parsing rate:
//! ≈14.2 GB/s at the top end, ≈9.75 GB/s at 10 MB, and > 2.1 / 2.7 GB/s
//! at a single megabyte — the small-input penalty coming from the fixed
//! kernel-launch overhead of the many per-column conversion kernels
//! (§5.1). Because the cost model charges exactly those launches, the
//! same knee reproduces here.

use crate::datasets::Dataset;
use crate::report;
use parparaw_core::{Parser, ParserOptions};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::Grid;

/// One sweep point.
#[derive(Debug)]
pub struct Row {
    /// Input bytes.
    pub bytes: usize,
    /// Simulated on-device parsing rate in GB/s.
    pub sim_rate_gbps: f64,
    /// Wall-clock throughput on this host in MB/s.
    pub wall_rate_mbps: f64,
}

/// Sweep input sizes (powers of two megabytes up to `max_bytes`).
pub fn run(dataset: Dataset, max_bytes: usize, workers: usize) -> Vec<Row> {
    let mut sizes = Vec::new();
    let mut s = 1usize << 20;
    while s <= max_bytes {
        sizes.push(s);
        s *= 2;
    }
    if sizes.is_empty() {
        sizes.push(max_bytes.max(1 << 16));
    }
    let data = dataset.generate(*sizes.last().unwrap());
    let schema = dataset.schema();
    sizes
        .into_iter()
        .map(|bytes| {
            let slice = &data[..bytes.min(data.len())];
            let opts = ParserOptions {
                grid: Grid::new(workers),
                schema: Some(schema.clone()),
                ..ParserOptions::default()
            };
            let parser = Parser::new(rfc4180(&CsvDialect::default()), opts);
            let out = parser.parse(slice).expect("dataset parses");
            let model = parser.model(slice).expect("dataset parses");
            Row {
                bytes,
                sim_rate_gbps: model.simulated.rate_gbps,
                wall_rate_mbps: bytes as f64 / 1e6 / out.timings.total().as_secs_f64(),
            }
        })
        .collect()
}

/// Print the series.
pub fn print(dataset: Dataset, rows: &[Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.bytes >> 20),
                report::rate(r.sim_rate_gbps),
                report::rate(r.wall_rate_mbps),
            ]
        })
        .collect();
    format!(
        "Figure 10 ({}): parsing rate vs input size\n{}",
        dataset.name(),
        report::table(
            &["input (MB)", "sim rate (GB/s)", "wall rate (MB/s)"],
            &table_rows
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_grows_with_input_size() {
        let rows = run(Dataset::Yelp, 4 << 20, 2);
        assert!(rows.len() >= 2);
        let first = rows.first().unwrap().sim_rate_gbps;
        let last = rows.last().unwrap().sim_rate_gbps;
        assert!(
            last > first,
            "rate should improve with size: {first} → {last}"
        );
        let text = print(Dataset::Yelp, &rows);
        assert!(text.contains("GB/s"));
    }
}
