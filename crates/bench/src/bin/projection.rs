//! Scaling projection: the paper's §6 claim that ParPaRaw "can continue to
//! gain speed-ups, as more cores are being added with future processors".
//!
//! The measured work of the real pipeline is replayed through three device
//! models — the paper's Titan X (Pascal), the V100 its introduction cites
//! (5 120 cores), and a hypothetical 2× multi-chip-module GPU (the trend
//! the paper cites) — plus the Amdahl-limited sequential-context design
//! for contrast, which *cannot* benefit.
//!
//! ```sh
//! cargo run --release -p parparaw-bench --bin projection -- --bytes 16M
//! ```

use parparaw_baselines::SeqContextGpuParser;
use parparaw_bench::datasets::Dataset;
use parparaw_bench::{arg_size, report};
use parparaw_core::timings::SimulatedTimings;
use parparaw_core::{Parser, ParserOptions};
use parparaw_device::{CostModel, DeviceConfig};
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_parallel::Grid;

fn main() {
    let bytes = arg_size("--bytes", 16 << 20);
    let workers = arg_size("--workers", 1);
    let devices = [
        DeviceConfig::titan_x_pascal(),
        DeviceConfig::tesla_v100(),
        DeviceConfig::future_mcm_gpu(),
    ];
    for dataset in Dataset::ALL {
        let data = dataset.generate(bytes);
        let opts = ParserOptions {
            grid: Grid::new(workers),
            schema: Some(dataset.schema()),
            ..ParserOptions::default()
        };
        let parparaw = Parser::new(rfc4180(&CsvDialect::default()), opts.clone())
            .model(&data)
            .expect("parses");
        let seq_ctx = SeqContextGpuParser::new(rfc4180(&CsvDialect::default()), opts)
            .parse(&data)
            .expect("parses");

        let mut rows = Vec::new();
        for device in &devices {
            let model = CostModel::new(device.clone());
            let par =
                SimulatedTimings::from_profiles(&model, &parparaw.profiles, data.len() as u64);
            let seq = SimulatedTimings::from_profiles(&model, &seq_ctx.profiles, data.len() as u64);
            rows.push(vec![
                device.name.clone(),
                device.cores().to_string(),
                report::rate(par.rate_gbps),
                report::rate(seq.rate_gbps),
            ]);
        }
        println!(
            "Scaling projection ({}, {} MB): the data-parallel design keeps\n\
             gaining from bigger devices; the sequential-context design hits\n\
             its Amdahl ceiling.\n{}",
            dataset.name(),
            bytes >> 20,
            report::table(
                &["device", "cores", "ParPaRaw GB/s", "seq-context GB/s"],
                &rows
            )
        );
    }
}
