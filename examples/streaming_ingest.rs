//! Streaming ingestion: the end-to-end pipeline of paper §4.4.
//!
//! Parses a yelp-like input in partitions with carry-over of incomplete
//! records, then replays the modelled per-partition work through the
//! Figure-7 schedule (double-buffered transfer/parse/return over a
//! full-duplex PCIe link model).
//!
//! ```sh
//! cargo run --release --example streaming_ingest
//! ```

use parparaw::device::{CostModel, DeviceConfig, PcieLink};
use parparaw::prelude::*;
use parparaw_workloads::yelp;

fn main() {
    let bytes = 8 << 20;
    let data = yelp::generate(bytes, 0xE11A5);
    println!(
        "input: {} MB of yelp-like reviews (quoted text with embedded delimiters)",
        data.len() >> 20
    );

    let parser = Parser::new(
        rfc4180(&CsvDialect::default()),
        ParserOptions {
            schema: Some(yelp::schema()),
            ..ParserOptions::default()
        },
    );

    let partition = 1 << 20;
    let streamed = parser.parse_stream(&data, partition).expect("streams");
    println!(
        "streamed {} partitions → {} records in {:.2} s wall",
        streamed.partitions.len(),
        streamed.table.num_rows(),
        streamed.wall.as_secs_f64()
    );
    for (i, p) in streamed.partitions.iter().enumerate().take(4) {
        println!(
            "  partition {i}: {:>8} B in, {:>8} B out, carry {:>6} B, parse {:.1} ms wall",
            p.input_bytes,
            p.output_bytes,
            p.carry_bytes,
            p.parse_wall.as_secs_f64() * 1e3
        );
    }

    // Replay through the simulated device: the overlapped schedule over
    // the same partitions, with the modelled per-chunk counters.
    let modelled = parser.model_stream(&data, partition).expect("streams");
    let model = CostModel::new(DeviceConfig::titan_x_pascal());
    let link = PcieLink::pcie3_x16();
    let report = modelled.streaming_plan(link.clone()).simulate(&model);
    println!(
        "\nsimulated end-to-end on Titan X + PCIe 3.0 x16: {:.2} ms",
        report.total_seconds * 1e3
    );
    println!(
        "  transfer alone would take {:.2} ms — streaming hides {:.0}% of the parse behind it",
        link.h2d_seconds(data.len() as u64) * 1e3,
        100.0
            * (1.0
                - (report.total_seconds - link.h2d_seconds(data.len() as u64)).max(0.0)
                    / report.total_seconds)
    );
    println!(
        "  engine busy: H2D {:.2} ms | GPU {:.2} ms | D2H {:.2} ms",
        report.h2d_busy_seconds * 1e3,
        report.gpu_busy_seconds * 1e3,
        report.d2h_busy_seconds * 1e3
    );
}
