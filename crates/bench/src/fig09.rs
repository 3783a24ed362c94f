//! Figure 9: time per processing step as a function of chunk size.
//!
//! The paper sweeps 4–64 bytes per chunk over 512 MB of each dataset and
//! finds 31 bytes optimal, with tiny chunks hurting parse/tag/scan and
//! 32/48/64-byte chunks showing small occupancy spikes. We sweep the same
//! chunk sizes at a configurable input size and report both wall and
//! simulated per-phase breakdowns.

use crate::datasets::Dataset;
use crate::{bench_ms, bench_ms_consuming, median, report};
use parparaw_core::chunks::num_chunks;
use parparaw_core::context::range_start_states;
use parparaw_core::convert::convert_column_with_diags;
use parparaw_core::css::index_from_runs;
use parparaw_core::meta::identify_ranges;
use parparaw_core::options::{PartitionKernel, ScanAlgorithm};
use parparaw_core::partition::partition_by_column_with;
use parparaw_core::tagging::{tag_symbols, TagConfig};
use parparaw_core::{parse_csv, Parser, ParserOptions};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::{Bitmap, CancelToken, Grid, KernelExecutor};

/// The paper's sweep points.
pub const CHUNK_SIZES: [usize; 8] = [4, 8, 16, 24, 31, 32, 48, 64];

/// One sweep point.
#[derive(Debug)]
pub struct Row {
    /// Bytes per chunk.
    pub chunk_size: usize,
    /// (phase, wall ms) in the paper's legend order.
    pub wall_ms: Vec<(String, f64)>,
    /// (phase, simulated ms) on the Titan-X model.
    pub sim_ms: Vec<(String, f64)>,
    /// Total simulated ms.
    pub sim_total_ms: f64,
    /// Total wall ms.
    pub wall_total_ms: f64,
    /// Wall ms of the pipeline's pass-1 kernels alone (the range-start
    /// walk and its scan, re-timed outside the pipeline; best of a few
    /// reps).
    pub pass1_wall_ms: f64,
    /// Wall ms of the pipeline's pass-2 kernels alone (bitmaps + range
    /// metadata, and the offset scans).
    pub pass2_wall_ms: f64,
    /// Wall ms of the partition phase alone, run-scatter kernel.
    pub partition_wall_ms: f64,
    /// Wall ms of the partition phase alone, radix-sort reference kernel.
    pub partition_radix_wall_ms: f64,
    /// Wall ms of the convert phase alone (run-derived indexes + typed
    /// conversion of every column).
    pub convert_wall_ms: f64,
}

/// Run the sweep for one dataset.
pub fn run(dataset: Dataset, bytes: usize, workers: usize) -> Vec<Row> {
    let data = dataset.generate(bytes);
    let schema = dataset.schema();
    let dfa = rfc4180(&CsvDialect::default());
    CHUNK_SIZES
        .iter()
        .map(|&cs| {
            let opts = ParserOptions {
                grid: Grid::new(workers),
                schema: Some(schema.clone()),
                ..ParserOptions::default()
            }
            .chunk_size(cs);
            let parser = Parser::new(dfa.clone(), opts);
            let out = parser.parse(&data).expect("dataset parses");
            let model = parser.model(&data).expect("dataset parses");
            let wall_ms: Vec<(String, f64)> = out
                .timings
                .phases()
                .iter()
                .map(|(n, d)| (n.to_string(), d.as_secs_f64() * 1e3))
                .collect();
            let sim_ms: Vec<(String, f64)> = model
                .simulated
                .phases
                .iter()
                .map(|(n, s)| (n.clone(), s * 1e3))
                .collect();

            // Isolated timings of the host pass 1 (with its scan) and pass
            // 2 (with the offset scans) the pipeline runs, for the speedup
            // tracking in EXPERIMENTS.md (the pipeline buckets the passes
            // under "parse" and their scans under "scan").
            let exec = KernelExecutor::new(Grid::new(workers));
            let reps = 3;
            let ranges = exec.grid().partition(num_chunks(data.len(), cs));
            let pass1 = || {
                range_start_states(
                    &exec,
                    &dfa,
                    &data,
                    cs,
                    &ranges,
                    ScanAlgorithm::Blocked,
                    None,
                )
                .expect("pass 1 runs")
            };
            let pass1_wall_ms = bench_ms(reps, pass1);
            let starts = pass1();
            let pass2 =
                || identify_ranges(&exec, &dfa, &data, cs, &ranges, &starts).expect("pass 2 runs");
            let pass2_wall_ms = bench_ms(reps, || pass2().num_records);

            // Isolated partition (both kernels) and convert timings. The
            // partition kernels consume the tagged buffers, so each rep
            // scatters a fresh clone (made outside the timed region).
            let meta = pass2();
            let num_cols = schema.num_columns();
            let col_map: Vec<Option<u32>> = (0..num_cols as u32).map(Some).collect();
            let cfg = TagConfig {
                mode: Default::default(),
                col_map: &col_map,
                skip_records: &[],
                expected_columns: None,
                num_out_rows: meta.num_records,
                diags: None,
            };
            let tagged = tag_symbols(&exec, &data, cs, &meta, &cfg).expect("tag runs");
            let time_kernel = |kernel: PartitionKernel| {
                bench_ms_consuming(
                    reps,
                    || tagged.clone(),
                    |t| {
                        partition_by_column_with(&exec, t, num_cols, kernel)
                            .expect("partition runs")
                            .symbols
                            .len()
                    },
                )
            };
            let partition_wall_ms = time_kernel(PartitionKernel::RunScatter);
            let partition_radix_wall_ms = time_kernel(PartitionKernel::RadixSort);

            let part =
                partition_by_column_with(&exec, tagged, num_cols, PartitionKernel::RunScatter)
                    .expect("partition runs");
            let grid = Grid::new(workers);
            let num_rows = meta.num_records as usize;
            let rejected = Bitmap::new(num_rows);
            let threshold = ParserOptions::default().effective_collaboration_threshold();
            let convert_wall_ms = bench_ms(reps, || {
                let mut total = 0usize;
                for c in 0..num_cols {
                    let index = index_from_runs(part.col_runs(c).expect("run scatter has runs"));
                    let out = convert_column_with_diags(
                        &grid,
                        part.css(c),
                        &index,
                        num_rows,
                        schema.fields[c].data_type,
                        schema.fields[c].default.as_ref(),
                        &rejected,
                        threshold,
                        None,
                    );
                    total += out.column.len();
                }
                total
            });
            let _ = exec.drain_log();

            Row {
                chunk_size: cs,
                wall_total_ms: out.timings.total().as_secs_f64() * 1e3,
                sim_total_ms: model.simulated.total_seconds * 1e3,
                wall_ms,
                sim_ms,
                pass1_wall_ms,
                pass2_wall_ms,
                partition_wall_ms,
                partition_radix_wall_ms,
                convert_wall_ms,
            }
        })
        .collect()
}

/// The cancellation-overhead guard: the cost of parsing with a
/// present-but-never-fired [`CancelToken`] relative to the token-free
/// path, at the paper's default 31-byte chunks. The token arms the
/// cooperative abort signal in every kernel (one predictable branch per
/// 256 chunks), so this must stay in the noise; CI asserts
/// `overhead_pct < 3`. Token-free and armed-token parses alternate in 21
/// pairs (each pair swapping which runs first), so drift in host speed
/// hits both sides alike, and the guard reports medians.
#[derive(Debug, Clone)]
pub struct CancelOverhead {
    /// Dataset the guard ran on.
    pub dataset: Dataset,
    /// Input bytes parsed per repetition.
    pub bytes: usize,
    /// Median wall ms without a token.
    pub baseline_ms: f64,
    /// Median wall ms with an armed, never-fired token.
    pub with_token_ms: f64,
    /// Median over the pairs of `(with_token - baseline) / baseline * 100`
    /// (negative = noise).
    pub overhead_pct: f64,
}

/// Measure [`CancelOverhead`] on `dataset` at `bytes`.
pub fn cancel_overhead(dataset: Dataset, bytes: usize, workers: usize) -> CancelOverhead {
    let data = dataset.generate(bytes);
    let schema = dataset.schema();
    let opts = |token: Option<CancelToken>| {
        let mut o = ParserOptions {
            grid: Grid::new(workers),
            schema: Some(schema.clone()),
            ..ParserOptions::default()
        };
        o.cancel = token;
        o
    };
    let token = CancelToken::new();
    let parse_ms = |armed: bool| {
        bench_ms_consuming(
            1,
            || opts(armed.then(|| token.clone())),
            |o| {
                parse_csv(&data, o)
                    .expect("dataset parses")
                    .stats
                    .num_records
            },
        )
    };
    parse_ms(false); // warm-up
    let pairs = 21;
    let (mut baseline, mut with_token, mut overhead) = (vec![], vec![], vec![]);
    for p in 0..pairs {
        let (base, armed) = if p % 2 == 0 {
            let base = parse_ms(false);
            (base, parse_ms(true))
        } else {
            let armed = parse_ms(true);
            (parse_ms(false), armed)
        };
        baseline.push(base);
        with_token.push(armed);
        overhead.push((armed - base) / base * 100.0);
    }
    CancelOverhead {
        dataset,
        bytes,
        baseline_ms: median(baseline),
        with_token_ms: median(with_token),
        overhead_pct: median(overhead),
    }
}

/// Render the whole sweep (all datasets) as the `BENCH_pipeline.json`
/// machine-readable report: per phase, wall and simulated milliseconds
/// plus the implied bytes-per-second rate, and the isolated pass-1/pass-2
/// wall timings used for speedup tracking.
pub fn to_json(
    bytes: usize,
    workers: usize,
    results: &[(Dataset, Vec<Row>)],
    cancel: &CancelOverhead,
) -> String {
    use report::{json_num, json_str};
    let rate = |ms: f64| {
        json_num(if ms > 0.0 {
            bytes as f64 / (ms / 1e3)
        } else {
            0.0
        })
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"harness\": \"fig09\",\n");
    out.push_str(&format!("  \"bytes\": {bytes},\n"));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str("  \"default_chunk_size\": 31,\n");
    out.push_str(&format!(
        "  \"cancel_overhead\": {{ \"dataset\": {}, \"bytes\": {}, \"baseline_ms\": {}, \
         \"with_token_ms\": {}, \"cancel_overhead_pct\": {} }},\n",
        json_str(cancel.dataset.short()),
        cancel.bytes,
        json_num(cancel.baseline_ms),
        json_num(cancel.with_token_ms),
        json_num(cancel.overhead_pct),
    ));
    out.push_str("  \"datasets\": [\n");
    for (di, (dataset, rows)) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"name\": {}, \"rows\": [\n",
            json_str(dataset.short())
        ));
        for (ri, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"chunk_size\": {}, \"wall_total_ms\": {}, \"sim_total_ms\": {}, \
                 \"pass1_wall_ms\": {}, \"pass2_wall_ms\": {}, \"partition_wall_ms\": {}, \
                 \"partition_radix_wall_ms\": {}, \"convert_wall_ms\": {}, \"phases\": [",
                r.chunk_size,
                json_num(r.wall_total_ms),
                json_num(r.sim_total_ms),
                json_num(r.pass1_wall_ms),
                json_num(r.pass2_wall_ms),
                json_num(r.partition_wall_ms),
                json_num(r.partition_radix_wall_ms),
                json_num(r.convert_wall_ms),
            ));
            for (pi, (name, wall)) in r.wall_ms.iter().enumerate() {
                let sim = r
                    .sim_ms
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                out.push_str(&format!(
                    "{}{{\"name\": {}, \"wall_ms\": {}, \"sim_ms\": {}, \"bytes_per_sec\": {}}}",
                    if pi == 0 { "" } else { ", " },
                    json_str(name),
                    json_num(*wall),
                    json_num(sim),
                    rate(*wall),
                ));
            }
            out.push_str(if ri + 1 < rows.len() {
                "] },\n"
            } else {
                "] }\n"
            });
        }
        out.push_str(if di + 1 < results.len() {
            "    ] },\n"
        } else {
            "    ] }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Print in the paper's layout (one stacked series per chunk size).
pub fn print(dataset: Dataset, rows: &[Row]) -> String {
    let phases = ["convert", "scan", "partition", "parse", "tag"];
    let mut headers = vec!["chunk", "sim total"];
    headers.extend(phases.iter().copied());
    headers.push("wall total");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.chunk_size.to_string(), report::ms(r.sim_total_ms)];
            for p in &phases {
                let v = r
                    .sim_ms
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
    format!(
        "Figure 9 ({}): per-step duration vs chunk size (sim ms on Titan X model)\n{}",
        dataset.name(),
        report::table(&headers, &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_and_shapes_hold() {
        let rows = run(Dataset::Taxi, 200_000, 2);
        assert_eq!(rows.len(), CHUNK_SIZES.len());
        // Tiny chunks must cost more (sim) than the paper's optimum.
        let at = |cs: usize| {
            rows.iter()
                .find(|r| r.chunk_size == cs)
                .unwrap()
                .sim_total_ms
        };
        assert!(
            at(4) > at(31),
            "4-byte chunks ({}) should be slower than 31 ({})",
            at(4),
            at(31)
        );
        let text = print(Dataset::Taxi, &rows);
        assert!(text.contains("chunk"));
        assert!(text.contains("31"));
        // The JSON report carries every row with per-phase rates and the
        // isolated pass timings, with balanced structure.
        let cancel = cancel_overhead(Dataset::Yelp, 100_000, 2);
        assert!(cancel.baseline_ms > 0.0 && cancel.with_token_ms > 0.0);
        assert!(cancel.overhead_pct.is_finite());
        let json = to_json(200_000, 2, &[(Dataset::Taxi, rows)], &cancel);
        assert!(json.contains("\"harness\": \"fig09\""));
        assert!(json.contains("\"cancel_overhead_pct\""));
        assert!(json.contains("\"pass1_wall_ms\""));
        assert!(json.contains("\"partition_wall_ms\""));
        assert!(json.contains("\"partition_radix_wall_ms\""));
        assert!(json.contains("\"convert_wall_ms\""));
        assert!(json.contains("\"bytes_per_sec\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
