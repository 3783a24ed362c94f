//! End-to-end runs over the synthetic evaluation workloads: every parser,
//! both datasets, plus the failure modes the paper calls out.

use parparaw::baselines::{
    InstantLoadingMode, InstantLoadingParser, QuoteParityParser, SeqContextGpuParser,
    SequentialParser,
};
use parparaw::prelude::*;
use parparaw::workloads::{logs, skewed, taxi, yelp};

fn opts(schema: Schema) -> ParserOptions {
    ParserOptions {
        grid: Grid::new(2),
        schema: Some(schema),
        ..ParserOptions::default()
    }
}

#[test]
fn yelp_like_parses_identically_across_all_correct_parsers() {
    let data = yelp::generate(150_000, 1);
    let dfa = rfc4180(&CsvDialect::default());
    let reference = Parser::new(dfa.clone(), opts(yelp::schema()))
        .parse(&data)
        .unwrap();
    assert!(reference.table.num_rows() > 100);
    assert_eq!(reference.stats.rejected_records, 0);

    let seq = SequentialParser::new(dfa.clone(), opts(yelp::schema()))
        .parse(&data)
        .unwrap();
    assert_eq!(seq.table, reference.table);

    let safe = InstantLoadingParser::new(
        dfa.clone(),
        Grid::new(2),
        16,
        InstantLoadingMode::Safe,
        Some(yelp::schema()),
    )
    .parse(&data)
    .unwrap();
    assert_eq!(safe.table, reference.table);

    let gpu_seq = SeqContextGpuParser::new(dfa.clone(), opts(yelp::schema()))
        .parse(&data)
        .unwrap();
    assert_eq!(gpu_seq.output.table, reference.table);

    // Quote parity is also correct on plain RFC 4180 (no comments here).
    let parity = QuoteParityParser::new(Grid::new(2), 1024, Some(yelp::schema()))
        .parse(&data)
        .unwrap();
    assert_eq!(parity.table.num_rows(), reference.table.num_rows());
}

#[test]
fn unsafe_instant_loading_corrupts_yelp_but_not_taxi() {
    let yelp_data = yelp::generate(120_000, 2);
    let taxi_data = taxi::generate(120_000, 2);
    let dfa = rfc4180(&CsvDialect::default());

    let yelp_ref = Parser::new(dfa.clone(), opts(yelp::schema()))
        .parse(&yelp_data)
        .unwrap();
    let out = InstantLoadingParser::new(
        dfa.clone(),
        Grid::new(2),
        16,
        InstantLoadingMode::Unsafe,
        Some(yelp::schema()),
    )
    .parse(&yelp_data)
    .unwrap();
    assert!(
        out.suspect_records > 0 || out.table.num_rows() != yelp_ref.table.num_rows(),
        "quoted newlines must corrupt the context-free split"
    );

    let taxi_ref = Parser::new(dfa.clone(), opts(taxi::schema()))
        .parse(&taxi_data)
        .unwrap();
    let out = InstantLoadingParser::new(
        dfa,
        Grid::new(2),
        16,
        InstantLoadingMode::Unsafe,
        Some(taxi::schema()),
    )
    .parse(&taxi_data)
    .unwrap();
    assert_eq!(out.suspect_records, 0);
    assert_eq!(out.table, taxi_ref.table);
}

#[test]
fn taxi_conversion_is_lossless() {
    let data = taxi::generate(200_000, 3);
    let out = parse_csv(&data, opts(taxi::schema())).unwrap();
    assert_eq!(out.stats.conversion_rejects, 0);
    assert_eq!(out.stats.rejected_records, 0);
    assert_eq!(out.table.num_columns(), 17);
    // Spot-check: every total equals the sum of its parts (generator
    // invariant surviving the full pipeline).
    let t = &out.table;
    let cents = |name: &str, row: usize| match t.column_by_name(name).unwrap().value(row) {
        Value::Decimal128(v, 2) => v,
        other => panic!("{name}: {other:?}"),
    };
    for row in (0..t.num_rows()).step_by(97) {
        let sum = cents("fare_amount", row)
            + cents("extra", row)
            + cents("mta_tax", row)
            + cents("tip_amount", row)
            + cents("tolls_amount", row)
            + cents("improvement_surcharge", row);
        assert_eq!(sum, cents("total_amount", row));
    }
}

#[test]
fn skewed_input_stays_correct_and_collaborative() {
    let data = skewed::yelp_skewed(150_000, 60_000, 5);
    let mut o = opts(yelp::schema());
    o.device.shared_mem_per_sm_kib = 8; // a 2 KiB device threshold
    let out = parse_csv(&data, o).unwrap();
    assert!(out.stats.collaborative_fields >= 1);
    assert_eq!(out.stats.rejected_records, 0);
    // Sequential reference agrees.
    let seq = SequentialParser::new(rfc4180(&CsvDialect::default()), opts(yelp::schema()))
        .parse(&data)
        .unwrap();
    assert_eq!(seq.table, out.table);
}

#[test]
fn log_workload_round_trips_with_directives() {
    let data = logs::generate(80_000, 6, true);
    let parser = Parser::new(parparaw::dfa::log::extended_log(), opts(logs::schema()));
    let out = parser.parse(&data).unwrap();
    assert!(out.table.num_rows() > 100);
    assert_eq!(out.stats.rejected_records, 0);
    // Chunk-size invariance holds for the log automaton too.
    let mut o = opts(logs::schema());
    o = o.chunk_size(7);
    let small = Parser::new(parparaw::dfa::log::extended_log(), o)
        .parse(&data)
        .unwrap();
    assert_eq!(small.table, out.table);
}

#[test]
fn streaming_yelp_matches_monolithic() {
    let data = yelp::generate(300_000, 8);
    let parser = Parser::new(rfc4180(&CsvDialect::default()), opts(yelp::schema()));
    let mono = parser.parse(&data).unwrap();
    for psize in [10_000usize, 64_000, 1 << 20] {
        let streamed = parser.parse_stream(&data, psize).unwrap();
        assert_eq!(streamed.table, mono.table, "partition {psize}");
    }
}
