//! Quickstart: parse CSV into a typed columnar table.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use parparaw::prelude::*;

fn main() {
    // The running example from the paper's Figure 4: quoted fields may
    // contain commas, newlines, and escaped quotes.
    let csv = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";

    // Parse with everything inferred: column count, column types.
    let parser = Parser::new(rfc4180(&CsvDialect::default()), ParserOptions::default());
    let out = parser.parse(csv).expect("valid CSV");

    println!(
        "parsed {} records, {} columns",
        out.table.num_rows(),
        out.table.num_columns()
    );
    println!("{}", out.table.pretty(10));

    // The pipeline reports per-phase timings (the categories of the
    // paper's Figure 9) and the work profiles of every kernel.
    println!("phase timings (wall):");
    for (phase, d) in out.timings.phases() {
        println!("  {phase:<10} {:>8.3} ms", d.as_secs_f64() * 1e3);
    }
    // The paper's device model runs on request: the same pipeline with
    // the modelled per-chunk counters, replayed on a simulated Titan X.
    let model = parser.model(csv).expect("valid CSV");
    println!(
        "simulated on a Titan X (Pascal): {:.3} ms ({:.2} GB/s)",
        model.simulated.total_seconds * 1e3,
        model.simulated.rate_gbps
    );

    // Typed access to the output columns.
    let prices = out.table.column(1);
    assert_eq!(prices.data_type(), DataType::Float64);
    let total: f64 = (0..prices.len())
        .map(|i| match prices.value(i) {
            Value::Float64(v) => v,
            _ => 0.0,
        })
        .sum();
    println!("sum of column 1 = {total}");
}
