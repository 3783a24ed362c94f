//! Cross-crate equivalence: the massively parallel pipeline must produce
//! exactly what a classic sequential parser produces, for any input, any
//! chunk size, and any worker count. This is the repository's central
//! correctness property — it pins the data-parallel context recovery,
//! offset scans, tagging, partitioning and conversion against an
//! independent row-by-row implementation.

use parparaw::baselines::SequentialParser;
use parparaw::parallel::SplitMix64;
use parparaw::prelude::*;

fn parsers(workers: usize, chunk_size: usize) -> (Parser, SequentialParser) {
    let opts = ParserOptions {
        grid: Grid::new(workers),
        ..ParserOptions::default()
    }
    .chunk_size(chunk_size);
    let dfa = rfc4180(&CsvDialect::default());
    (
        Parser::new(dfa.clone(), opts.clone()),
        SequentialParser::new(dfa, opts),
    )
}

/// CSV-ish byte soup: a mix of well-formed rows, quoted fields with
/// embedded delimiters, escapes, and empties.
fn csvish(rng: &mut SplitMix64) -> Vec<u8> {
    fn field(rng: &mut SplitMix64) -> Vec<u8> {
        match rng.next_below(4) {
            // plain values
            0 => {
                let len = rng.next_below(9) as usize;
                rng.vec(len, |r| *r.choice(b"abcdefghijklmnopqrstuvwxyz0123456789"))
            }
            // numbers
            1 => {
                let mut v = Vec::new();
                if rng.chance(0.5) {
                    v.push(b'-');
                }
                let int_len = rng.next_range(1, 6) as usize;
                v.extend(rng.vec(int_len, |r| *r.choice(b"0123456789")));
                if rng.chance(0.5) {
                    v.push(b'.');
                    let frac_len = rng.next_range(1, 3) as usize;
                    v.extend(rng.vec(frac_len, |r| *r.choice(b"0123456789")));
                }
                v
            }
            // quoted with embedded delimiters and escapes
            2 => {
                let len = rng.next_below(11) as usize;
                let inner = rng.vec(len, |r| *r.choice(b"abcdefgh\",\n"));
                let mut v = vec![b'"'];
                for b in inner {
                    if b == b'"' {
                        v.extend_from_slice(b"\"\"");
                    } else {
                        v.push(b);
                    }
                }
                v.push(b'"');
                v
            }
            // empty
            _ => Vec::new(),
        }
    }
    let n_rows = rng.next_below(12) as usize;
    let mut out = Vec::new();
    for _ in 0..n_rows {
        let n_fields = rng.next_range(1, 4) as usize;
        for i in 0..n_fields {
            if i > 0 {
                out.push(b',');
            }
            out.extend(field(rng));
        }
        out.push(b'\n');
    }
    if rng.chance(0.5) && !out.is_empty() {
        out.pop(); // no trailing newline
    }
    out
}

#[test]
fn parparaw_equals_sequential() {
    let mut rng = SplitMix64::new(0xE9_0001);
    for case in 0..64 {
        let input = csvish(&mut rng);
        let workers = rng.next_range(1, 4) as usize;
        let chunk_size = rng.next_range(1, 39) as usize;
        let (par, seq) = parsers(workers, chunk_size);
        let p = par.parse(&input).unwrap();
        let s = seq.parse(&input).unwrap();
        assert_eq!(
            &p.table,
            &s.table,
            "case {} workers={} chunk={} input={:?}",
            case,
            workers,
            chunk_size,
            String::from_utf8_lossy(&input)
        );
        assert_eq!(p.rejected, s.rejected, "case {case}");
    }
}

#[test]
fn streaming_equals_monolithic() {
    let mut rng = SplitMix64::new(0xE9_0002);
    for case in 0..64 {
        let input = csvish(&mut rng);
        let partition = rng.next_range(1, 63) as usize;
        let (par, _) = parsers(2, 13);
        let mono = par.parse(&input).unwrap();
        let streamed = par.parse_stream(&input, partition).unwrap();
        // Schema inference can differ when early partitions see narrower
        // values, so compare cell-by-cell as strings when schemas differ.
        assert_eq!(
            streamed.table.num_rows(),
            mono.table.num_rows(),
            "case {case} partition={partition}"
        );
        if streamed.table.schema() == mono.table.schema() {
            assert_eq!(&streamed.table, &mono.table, "case {case}");
        }
    }
}

#[test]
fn tagging_modes_agree_on_consistent_inputs() {
    let mut rng = SplitMix64::new(0xE9_0003);
    for case in 0..64 {
        let n_rows = rng.next_range(1, 9) as usize;
        let mut input = Vec::new();
        for _ in 0..n_rows {
            for c in 0..3 {
                if c > 0 {
                    input.push(b',');
                }
                let len = rng.next_below(7) as usize;
                input.extend(rng.vec(len, |r| *r.choice(b"abcdefghijklmnopqrstuvwxyz0123456789")));
            }
            input.push(b'\n');
        }
        let base = ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        };
        let reference = parse_csv(&input, base.clone()).unwrap();
        for mode in [TaggingMode::inline_default(), TaggingMode::VectorDelimited] {
            let out = parse_csv(
                &input,
                ParserOptions {
                    tagging: mode,
                    ..base.clone()
                },
            )
            .unwrap();
            assert_eq!(&out.table, &reference.table, "case {case} {mode:?}");
        }
    }
}

#[test]
fn worked_example_from_the_paper_end_to_end() {
    let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
    let (par, seq) = parsers(3, 10);
    let p = par.parse(input).unwrap();
    let s = seq.parse(input).unwrap();
    assert_eq!(p.table, s.table);
    assert_eq!(p.table.num_rows(), 2);
    assert_eq!(
        p.table.value(1, 2),
        Value::Utf8("Frame\n\"Ribba\", black".into())
    );
}

#[test]
fn every_entry_point_matches_sequential_across_workers() {
    // Pass 1 splits its walk by worker count, so every entry point must
    // give the sequential parser's bytes on 1, 2, 3 and 8 workers and
    // across chunk sizes: parse, parse_stream, a resumed
    // parse_stream_resumable, and the partitions() iterator.
    use parparaw::columnar::ipc;
    use parparaw::workloads::yelp;
    let input = yelp::generate(24_000, 5);
    let opts = |workers: usize, cs: usize| {
        ParserOptions {
            grid: Grid::new(workers),
            schema: Some(yelp::schema()),
            ..ParserOptions::default()
        }
        .chunk_size(cs)
    };
    let dfa = rfc4180(&CsvDialect::default());
    let want = ipc::write_table(
        &SequentialParser::new(dfa.clone(), opts(1, 31))
            .parse(&input)
            .unwrap()
            .table,
    );
    for workers in [1usize, 2, 3, 8] {
        for cs in [1usize, 7, 31, 130] {
            let at = format!("workers {workers} cs {cs}");
            let p = Parser::new(dfa.clone(), opts(workers, cs));
            assert_eq!(
                ipc::write_table(&p.parse(&input).unwrap().table),
                want,
                "{at}"
            );
            let streamed = p.parse_stream(&input, 4096).unwrap();
            assert_eq!(ipc::write_table(&streamed.table), want, "stream, {at}");
            let batches: Vec<Table> = p
                .partitions(&input, 4096)
                .collect::<Result<_, _>>()
                .unwrap();
            let refs: Vec<&Table> = batches.iter().filter(|t| t.num_rows() > 0).collect();
            assert_eq!(
                ipc::write_table(&Table::concat(&refs).unwrap()),
                want,
                "iter, {at}"
            );

            let mut o = opts(workers, cs);
            o.cancel = Some(CancelToken::after_launches(60));
            let interrupted = Parser::new(dfa.clone(), o)
                .parse_stream_resumable(&input, 4096, None)
                .unwrap_err();
            assert!(interrupted.error.is_cancelled(), "{at}");
            let resumed = p
                .parse_stream_resumable(&input, 4096, Some(interrupted.checkpoint))
                .unwrap();
            let parts: Vec<&Table> = [&interrupted.completed.table, &resumed.table]
                .into_iter()
                .filter(|t| t.num_rows() > 0)
                .collect();
            assert_eq!(
                ipc::write_table(&Table::concat(&parts).unwrap()),
                want,
                "resume, {at}"
            );
        }
    }
}
