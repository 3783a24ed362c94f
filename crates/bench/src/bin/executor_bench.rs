//! Kernel-executor microbenchmark: persistent worker pool vs spawning
//! fresh OS threads on every launch (the pre-executor behaviour, kept as
//! [`LaunchMode::SpawnPerLaunch`]).
//!
//! Two measurements:
//!
//! 1. **raw launch overhead** — back-to-back trivial launches, reported
//!    as microseconds per launch;
//! 2. **small-partition streaming** — `parse_stream` with deliberately
//!    small partitions (every partition re-runs all five phases). Each
//!    window is a 1-worker parse whose launches run inline, so the launch
//!    mode only changes how each batch of windows is dispatched.
//!
//! Usage: `cargo run --release -p parparaw-bench --bin executor_bench
//! [--bytes 8M] [--partition 64K] [--workers N]`
//!
//! [`LaunchMode::SpawnPerLaunch`]: parparaw_parallel::LaunchMode::SpawnPerLaunch

use parparaw_bench::datasets::Dataset;
use parparaw_bench::{arg_size, bench_ms, report};
use parparaw_core::{Parser, ParserOptions};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::{Grid, KernelExecutor, LaunchMode};

fn main() {
    let bytes = arg_size("--bytes", 8 << 20);
    let partition = arg_size("--partition", 64 << 10);
    let workers = arg_size("--workers", 2);

    let modes = [
        ("persistent", LaunchMode::Persistent),
        ("spawn-per-launch", LaunchMode::SpawnPerLaunch),
    ];
    let mut rows = Vec::new();

    // 1. Raw launch overhead: 1000 trivial launches.
    for (name, mode) in modes {
        let exec = KernelExecutor::new(Grid::with_mode(workers, mode));
        let launches = 1000usize;
        let ms = bench_ms(5, || {
            let mut acc = 0usize;
            for _ in 0..launches {
                acc += exec
                    .launch("bench/noop", workers, |grid, _| {
                        grid.map_indexed(workers, |i| i).len()
                    })
                    .unwrap();
            }
            let _ = exec.drain_log();
            acc
        });
        rows.push(vec![
            "launch overhead".to_string(),
            name.to_string(),
            format!("{:.1} us/launch", ms * 1e3 / launches as f64),
        ]);
    }

    // 2. Small-partition streaming: the whole pipeline per tiny partition.
    let dataset = Dataset::Taxi;
    let data = dataset.generate(bytes);
    for (name, mode) in modes {
        let opts = ParserOptions {
            grid: Grid::with_mode(workers, mode),
            schema: Some(dataset.schema()),
            ..ParserOptions::default()
        };
        let parser = Parser::new(rfc4180(&CsvDialect::default()), opts);
        let ms = bench_ms(3, || {
            parser
                .parse_stream(&data, partition)
                .unwrap()
                .table
                .num_rows()
        });
        rows.push(vec![
            format!("stream {}K parts", partition >> 10),
            name.to_string(),
            format!("{} ms", report::ms(ms)),
        ]);
    }

    println!(
        "executor microbench ({bytes} input bytes, {workers} workers, {} partitions)",
        data.len().div_ceil(partition.max(1))
    );
    println!(
        "{}",
        report::table(&["measurement", "mode", "result"], &rows)
    );
}
