//! Robustness: arbitrary byte soup must never panic, must be
//! chunk/worker invariant, and the parallel pipeline must stay equivalent
//! to the sequential reference even on garbage.

use parparaw::baselines::SequentialParser;
use parparaw::parallel::SplitMix64;
use parparaw::prelude::*;

fn opts(workers: usize, chunk: usize) -> ParserOptions {
    ParserOptions {
        grid: Grid::new(workers),
        ..ParserOptions::default()
    }
    .chunk_size(chunk)
}

/// Arbitrary byte soup of up to `max_len` bytes, biased towards the CSV
/// structural characters so interesting states are actually reached.
fn soup(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    rng.vec(len, |r| {
        if r.chance(0.3) {
            *r.choice(b",\n\"\r#")
        } else {
            r.next_u64() as u8
        }
    })
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut rng = SplitMix64::new(0x0B_0001);
    for _ in 0..96 {
        let bytes = soup(&mut rng, 400);
        let workers = rng.next_range(1, 3) as usize;
        let chunk = rng.next_range(1, 39) as usize;
        // Any outcome except a panic is acceptable; errors must be the
        // typed ParseError variants.
        let _ = parse_csv(&bytes, opts(workers, chunk));
    }
}

#[test]
fn arbitrary_bytes_chunk_invariant() {
    let mut rng = SplitMix64::new(0x0B_0002);
    for case in 0..96 {
        let bytes = soup(&mut rng, 300);
        let reference = parse_csv(&bytes, opts(1, 31)).unwrap();
        for chunk in [1usize, 7, 64] {
            let out = parse_csv(&bytes, opts(3, chunk)).unwrap();
            assert_eq!(&out.table, &reference.table, "case {case} chunk {chunk}");
            assert_eq!(&out.rejected, &reference.rejected, "case {case}");
        }
    }
}

#[test]
fn arbitrary_bytes_match_sequential() {
    let mut rng = SplitMix64::new(0x0B_0003);
    for case in 0..96 {
        let bytes = soup(&mut rng, 300);
        let dfa = rfc4180(&CsvDialect::default());
        let par = parse_csv(&bytes, opts(2, 9)).unwrap();
        let seq = SequentialParser::new(dfa, opts(1, 9))
            .parse(&bytes)
            .unwrap();
        assert_eq!(par.table, seq.table, "case {case}");
        assert_eq!(par.rejected, seq.rejected, "case {case}");
    }
}

#[test]
fn recovering_dialect_never_panics_either() {
    let mut rng = SplitMix64::new(0x0B_0004);
    for _ in 0..96 {
        let bytes = soup(&mut rng, 300);
        let dfa = rfc4180(&CsvDialect {
            recover_invalid: true,
            comment: Some(b'#'),
            ..CsvDialect::default()
        });
        let parser = Parser::new(dfa, opts(2, 13));
        let _ = parser.parse(&bytes);
        let _ = parser.parse_stream(&bytes, 37);
    }
}

#[test]
fn streaming_arbitrary_bytes_row_counts_match() {
    let mut rng = SplitMix64::new(0x0B_0005);
    for case in 0..96 {
        let bytes = soup(&mut rng, 300);
        let partition = rng.next_range(1, 63) as usize;
        let parser = Parser::new(rfc4180(&CsvDialect::default()), opts(2, 13));
        let mono = parser.parse(&bytes).unwrap();
        let streamed = parser.parse_stream(&bytes, partition).unwrap();
        assert_eq!(
            streamed.table.num_rows(),
            mono.table.num_rows(),
            "case {case} partition {partition}"
        );
    }
}

#[test]
fn block_level_tier_is_exercised() {
    // Fields between the thread budget and the device threshold count as
    // block-level; bigger ones as device-level. All go through one copy.
    let mut input = Vec::new();
    input.extend_from_slice(b"small,x\n");
    input.extend_from_slice(format!("{},mid\n", "m".repeat(1000)).as_bytes());
    input.extend_from_slice(format!("{},big\n", "g".repeat(40_000)).as_bytes());
    let mut opts = ParserOptions::default();
    opts.device.shared_mem_per_sm_kib = 64; // a 16 KiB device threshold
    let out = parse_csv(&input, opts).unwrap();
    assert_eq!(out.stats.collaborative_fields, 2, "mid + big");
    assert_eq!(out.stats.block_level_fields, 1, "only mid fits a block");
    assert_eq!(out.table.num_rows(), 3);
    // Contents intact in both tiers.
    assert_eq!(out.table.value(1, 0), Value::Utf8("m".repeat(1000)));
    assert_eq!(out.table.value(2, 0), Value::Utf8("g".repeat(40_000)));
}
