//! Bench target for Figure 12: streamed parse at different partition
//! sizes (wall time of the streamed parse on this host; the simulated
//! end-to-end series comes from the `fig12` binary).
//!
//! Plain `main()` with `std` timing — run with
//! `cargo bench -p parparaw-bench --bench fig12_partition_size [-- --bytes 4M]`.

use parparaw_bench::datasets::Dataset;
use parparaw_bench::{arg_size, bench_ms, report};
use parparaw_core::{Parser, ParserOptions};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::Grid;

fn main() {
    let bytes = arg_size("--bytes", 4 << 20);
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let data = dataset.generate(bytes);
        let opts = ParserOptions {
            grid: Grid::new(2),
            schema: Some(dataset.schema()),
            ..ParserOptions::default()
        };
        let parser = Parser::new(rfc4180(&CsvDialect::default()), opts);
        for partition in [64 << 10, 256 << 10, 1 << 20] {
            let ms = bench_ms(3, || {
                parser
                    .parse_stream(&data, partition)
                    .unwrap()
                    .table
                    .num_rows()
            });
            rows.push(vec![
                dataset.short().to_string(),
                partition.to_string(),
                report::ms(ms),
            ]);
        }
    }
    println!("fig12 partition-size sweep ({bytes} bytes per dataset)");
    println!("{}", report::table(&["dataset", "partition", "ms"], &rows));
}
