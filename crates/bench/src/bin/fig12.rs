//! Regenerate paper Figure 12: end-to-end duration vs partition size.
//!
//! Usage: `cargo run --release -p parparaw-bench --bin fig12 [--bytes 32M] [--workers N]
//! [--partitions 1M,4M,…] [--json]`
//!
//! `--partitions` replaces the default sweep (powers of two from 1/16 of
//! the input). With `--json`, also writes the sweeps to `BENCH_fig12.json`
//! in the working directory (CI pins its simulated values with
//! `results/fig09_sim.py`).

use parparaw_bench::datasets::Dataset;
use parparaw_bench::{arg_flag, arg_size, arg_sizes, fig12};

fn main() {
    let bytes = arg_size("--bytes", 16 << 20);
    let workers = arg_size("--workers", 1);
    let sizes = arg_sizes("--partitions").unwrap_or_else(|| fig12::default_partition_sizes(bytes));
    let mut results = Vec::new();
    for dataset in Dataset::ALL {
        let rows = fig12::run(dataset, bytes, &sizes, workers);
        println!("{}", fig12::print(dataset, &rows));
        results.push((dataset, rows));
    }
    if arg_flag("--json") {
        let path = "BENCH_fig12.json";
        std::fs::write(path, fig12::to_json(bytes, workers, &results))
            .expect("write BENCH_fig12.json");
        println!("wrote {path}");
    }
}
