//! Adversarial-input matrix: every pathological generator from
//! `workloads::adversarial`, run under every tagging mode and both scan
//! algorithms, must either match the sequential reference parser exactly
//! or fail with the documented typed error — and must never panic.

use parparaw::baselines::SequentialParser;
use parparaw::prelude::*;
use parparaw::workloads::adversarial;

const TARGET_BYTES: usize = 8_000;
const SEED: u64 = 0xAD_0001;

/// The five adversarial generators, with a flag for whether their records
/// have a consistent column count (ragged ones do not).
fn generators() -> Vec<(&'static str, Vec<u8>, bool)> {
    vec![
        (
            "mostly_empty",
            adversarial::mostly_empty(TARGET_BYTES, 5, SEED),
            true,
        ),
        (
            "quote_heavy",
            adversarial::quote_heavy(TARGET_BYTES, SEED + 1),
            true,
        ),
        (
            "ragged",
            adversarial::ragged(TARGET_BYTES, 7, SEED + 2),
            false,
        ),
        ("crlf", adversarial::crlf(TARGET_BYTES, SEED + 3), true),
        (
            "unicode_heavy",
            adversarial::unicode_heavy(TARGET_BYTES, SEED + 4),
            true,
        ),
        ("single_column", single_column(TARGET_BYTES), true),
        // 300 columns per record crosses the radix partition kernel's
        // one-digit/two-digit key boundary (256).
        ("wide_300_columns", wide_columns(TARGET_BYTES, 300), true),
    ]
}

/// Exactly one column per record: the degenerate partition case (every
/// symbol lands in column 0, a single field run per record).
fn single_column(bytes: usize) -> Vec<u8> {
    let mut v = Vec::new();
    let mut i = 0u64;
    while v.len() < bytes {
        v.extend_from_slice(format!("value{i}\n").as_bytes());
        i += 1;
    }
    v
}

/// `cols` single-byte fields per record — kept short so one streaming
/// partition always spans at least one full record.
fn wide_columns(bytes: usize, cols: usize) -> Vec<u8> {
    let row = vec!["x"; cols].join(",");
    let mut v = Vec::new();
    while v.len() < bytes {
        v.extend_from_slice(row.as_bytes());
        v.push(b'\n');
    }
    v
}

fn modes() -> [TaggingMode; 3] {
    [
        TaggingMode::RecordTagged,
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
    ]
}

fn scans() -> [parparaw::core::ScanAlgorithm; 2] {
    [
        parparaw::core::ScanAlgorithm::Blocked,
        parparaw::core::ScanAlgorithm::DecoupledLookback,
    ]
}

fn opts(mode: TaggingMode, scan: parparaw::core::ScanAlgorithm) -> ParserOptions {
    let mut o = ParserOptions {
        grid: Grid::new(3),
        tagging: mode,
        ..ParserOptions::default()
    }
    .chunk_size(29);
    o.scan_algorithm = scan;
    o
}

#[test]
fn matrix_matches_sequential_or_fails_typed() {
    for (name, input, consistent) in generators() {
        for mode in modes() {
            for scan in scans() {
                let o = opts(mode, scan);
                let dfa = rfc4180(&CsvDialect::default());
                let par = Parser::new(dfa.clone(), o.clone());
                let result = par.parse(&input);

                if !consistent && !matches!(mode, TaggingMode::RecordTagged) {
                    // Inline and vector tagging need one column count for
                    // the whole input; ragged data must fail with the
                    // typed error, not a panic or a wrong table.
                    let err =
                        result.expect_err(&format!("{name} under {} should fail", mode.name()));
                    assert!(
                        matches!(err, ParseError::InconsistentColumns { .. }),
                        "{name} under {}: unexpected error {err}",
                        mode.name()
                    );
                    continue;
                }

                let p = result
                    .unwrap_or_else(|e| panic!("{name} mode={} scan={scan:?}: {e}", mode.name()));
                let seq = SequentialParser::new(dfa, o);
                let s = seq.parse(&input).unwrap();
                assert_eq!(
                    p.table,
                    s.table,
                    "{name} mode={} scan={scan:?}",
                    mode.name()
                );
                assert_eq!(p.rejected, s.rejected, "{name} mode={}", mode.name());
            }
        }
    }
}

#[test]
fn matrix_streaming_matches_monolithic() {
    // The streaming path re-runs the full pipeline per partition with
    // carry-over; adversarial inputs must not change the answer.
    for (name, input, consistent) in generators() {
        if !consistent {
            continue;
        }
        let o = opts(
            TaggingMode::RecordTagged,
            parparaw::core::ScanAlgorithm::Blocked,
        );
        let par = Parser::new(rfc4180(&CsvDialect::default()), o);
        let mono = par.parse(&input).unwrap();
        let streamed = par.parse_stream(&input, 997).unwrap();
        assert_eq!(
            streamed.table.num_rows(),
            mono.table.num_rows(),
            "{name}: row counts diverge"
        );
        if streamed.table.schema() == mono.table.schema() {
            assert_eq!(streamed.table, mono.table, "{name}");
        }
    }
}

#[test]
fn partition_kernels_byte_identical_across_modes_and_launch_modes() {
    // The run-scatter kernel must reproduce the radix sort's ParseOutput
    // exactly — same table bytes, same reject bitmap — for every
    // generator and all three tagging modes, on a 3-worker pool.
    for (name, input, consistent) in generators() {
        for mode in modes() {
            if !consistent && !matches!(mode, TaggingMode::RecordTagged) {
                continue;
            }
            let base = ParserOptions {
                grid: Grid::new(3),
                tagging: mode,
                ..ParserOptions::default()
            }
            .chunk_size(29);
            let dfa = rfc4180(&CsvDialect::default());
            let scatter = Parser::new(
                dfa.clone(),
                base.clone().partition_kernel(PartitionKernel::RunScatter),
            )
            .parse(&input)
            .unwrap_or_else(|e| panic!("{name} mode={}: {e}", mode.name()));
            let radix = Parser::new(dfa, base.partition_kernel(PartitionKernel::RadixSort))
                .parse(&input)
                .unwrap_or_else(|e| panic!("{name} mode={}: {e}", mode.name()));
            assert_eq!(scatter.table, radix.table, "{name} mode={}", mode.name());
            assert_eq!(
                scatter.rejected,
                radix.rejected,
                "{name} mode={}",
                mode.name()
            );
        }
    }
}

#[test]
fn ragged_under_record_tagged_is_lossless() {
    // Record-tagged mode pads short records with nulls instead of
    // failing; no record may disappear.
    let input = adversarial::ragged(4_000, 6, 0xAD_0002);
    let newline_records = input
        .split(|&b| b == b'\n')
        .filter(|r| !r.is_empty())
        .count();
    let o = opts(
        TaggingMode::RecordTagged,
        parparaw::core::ScanAlgorithm::Blocked,
    );
    let out = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(&input)
        .unwrap();
    assert_eq!(out.table.num_rows(), newline_records);
}
