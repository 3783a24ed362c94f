//! Streaming partitions must be byte-identical to the monolithic parse.
//!
//! With a fixed schema (so per-partition type inference cannot diverge),
//! feeding the input through `parse_stream` in small partitions must
//! reproduce the whole-input parse exactly — same IPC bytes — for any
//! worker count and any tagging mode. This pins the executor's arena
//! reuse and the carry/retag logic at partition boundaries.

use parparaw::columnar::ipc;
use parparaw::prelude::*;
use parparaw::workloads::yelp;
use parparaw_core::{Checkpoint, RecordDiagnostic, StreamedOutput};

fn schema() -> Schema {
    yelp::schema()
}

fn parser(workers: usize, mode: TaggingMode) -> Parser {
    let opts = ParserOptions {
        grid: Grid::new(workers),
        schema: Some(schema()),
        tagging: mode,
        ..ParserOptions::default()
    }
    .chunk_size(17);
    Parser::new(rfc4180(&CsvDialect::default()), opts)
}

#[test]
fn streaming_is_byte_identical_across_workers_and_modes() {
    let input = yelp::generate(40_000, 7);
    let modes = [
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
        TaggingMode::RecordTagged,
    ];
    // The reference: single whole-input parse at one worker, inline mode.
    let reference = parser(1, modes[0]).parse(&input).unwrap();
    let reference_bytes = ipc::write_table(&reference.table);

    for workers in [1usize, 2, 8] {
        for mode in modes {
            let p = parser(workers, mode);
            let mono = p.parse(&input).unwrap();
            assert_eq!(
                ipc::write_table(&mono.table),
                reference_bytes,
                "monolithic parse diverged: workers={workers} mode={mode:?}"
            );
            for partition in [512usize, 4096] {
                let streamed = p.parse_stream(&input, partition).unwrap();
                assert_eq!(
                    ipc::write_table(&streamed.table),
                    reference_bytes,
                    "stream diverged: workers={workers} mode={mode:?} partition={partition}"
                );
            }
        }
    }
}

#[test]
fn partition_iterator_concatenates_to_the_monolithic_table() {
    let input = yelp::generate(20_000, 11);
    let p = parser(2, TaggingMode::inline_default());
    let mono = p.parse(&input).unwrap();
    let mut rows = 0usize;
    for part in p.partitions(&input, 1024) {
        rows += part.unwrap().num_rows();
    }
    assert_eq!(rows, mono.table.num_rows());
}

/// Options shared by the cross-driver tests: two workers, default chunks.
fn opts() -> ParserOptions {
    ParserOptions {
        grid: Grid::new(2),
        ..ParserOptions::default()
    }
}

fn csv_parser(o: ParserOptions) -> Parser {
    Parser::new(rfc4180(&CsvDialect::default()), o)
}

/// `rows` records of `int,"text, with comma",float` behind an optional
/// `a,b,c` header; record `short` (if any) has two fields instead of three.
fn csv_rows(rows: usize, header: bool, short: Option<usize>) -> Vec<u8> {
    let mut s = String::new();
    if header {
        s.push_str("a,b,c\n");
    }
    for i in 0..rows {
        if Some(i) == short {
            s.push_str(&format!("{i},short\n"));
        } else {
            s.push_str(&format!(
                "{},\"text {i}, with comma\",{}.5\n",
                i % 7,
                i % 100
            ));
        }
    }
    s.into_bytes()
}

fn xyz_schema() -> Schema {
    Schema::new(vec![
        Field::new("x", DataType::Int64),
        Field::new("y", DataType::Utf8),
        Field::new("z", DataType::Float64),
    ])
}

/// Zero-row batches contribute nothing; a stream without rows is its
/// last batch.
fn concat(mut tables: Vec<Table>) -> Table {
    let refs: Vec<&Table> = tables.iter().filter(|t| t.num_rows() > 0).collect();
    if refs.is_empty() {
        return tables.pop().unwrap_or_else(Table::empty);
    }
    Table::concat(&refs).unwrap()
}

/// What draining `partitions()` yields: the batches concatenated, every
/// batch's diagnostics, and the iterator's final checkpoint.
struct Drained {
    table: Table,
    diagnostics: Vec<RecordDiagnostic>,
    checkpoint: Checkpoint,
}

fn drain(p: &Parser, input: &[u8], partition_size: usize) -> Result<Drained, ParseError> {
    let mut it = p.partitions(input, partition_size);
    let (mut tables, mut diagnostics) = (Vec::new(), Vec::new());
    while let Some(batch) = it.next() {
        tables.push(batch?);
        diagnostics.extend_from_slice(it.diagnostics());
    }
    Ok(Drained {
        table: concat(tables),
        diagnostics,
        checkpoint: it.checkpoint().clone(),
    })
}

#[test]
fn selected_columns_stream_without_a_schema() {
    // The frozen schema must keep the raw width, or the second partition
    // with rows fails to validate the selection against it.
    let input = csv_rows(200, false, None);
    let p = csv_parser(ParserOptions {
        selected_columns: Some(vec![0, 2]),
        ..opts()
    });
    let mono = p.parse(&input).unwrap().table;
    assert_eq!(mono.num_columns(), 2);
    assert_eq!(p.parse_stream(&input, 64).unwrap().table, mono);
    assert_eq!(drain(&p, &input, 64).unwrap().table, mono);
}

#[test]
fn skip_records_are_stream_global() {
    let input = csv_rows(200, true, None);
    let p = csv_parser(ParserOptions {
        header: true,
        skip_records: [0u64, 57].into_iter().collect(),
        ..opts()
    });
    let mono = p.parse(&input).unwrap().table;
    assert_eq!(mono.num_rows(), 198);
    assert_eq!(p.parse_stream(&input, 64).unwrap().table, mono);
    assert_eq!(drain(&p, &input, 64).unwrap().table, mono);

    let mut o = p.options().clone();
    o.cancel = Some(CancelToken::after_launches(60));
    let interrupted = csv_parser(o)
        .parse_stream_resumable(&input, 64, None)
        .unwrap_err();
    assert!(interrupted.error.is_cancelled());
    assert!(interrupted.checkpoint.records_consumed > 0);
    let resumed = p
        .parse_stream_resumable(&input, 64, Some(interrupted.checkpoint))
        .unwrap();
    assert_eq!(
        concat(vec![interrupted.completed.table, resumed.table]),
        mono
    );
}

#[test]
fn resume_clamps_a_checkpoint_partition_size_past_the_input() {
    // `Checkpoint`'s fields are public, so a caller may hand back any
    // partition size: the resumed stream must read one window to the end
    // of the input, not overflow the window end.
    let input = csv_rows(200, false, None);
    let p = csv_parser(opts());
    let clean = p.parse_stream(&input, 64).unwrap().table;
    let mut it = p.partitions(&input, 64);
    let mut tables: Vec<Table> = it.by_ref().take(3).map(Result::unwrap).collect();
    let mut checkpoint = it.checkpoint().clone();
    assert!(checkpoint.rows_emitted > 0);
    assert!(checkpoint.resume_offset < input.len() as u64);
    checkpoint.partition_size = usize::MAX;
    let resumed = p
        .parse_stream_resumable(&input, 64, Some(checkpoint))
        .unwrap();
    tables.push(resumed.table);
    assert_eq!(concat(tables), clean);
}

#[test]
fn output_names_follow_one_rule_on_every_entry_point() {
    let input = csv_rows(40, true, None);
    let names =
        |t: &Table| -> Vec<String> { t.schema().fields.iter().map(|f| f.name.clone()).collect() };
    // An explicit schema's names win over the header's; otherwise header
    // names map through the selection by raw column index.
    for (o, want) in [
        (
            ParserOptions {
                header: true,
                schema: Some(xyz_schema()),
                ..opts()
            },
            vec!["x", "y", "z"],
        ),
        (
            ParserOptions {
                header: true,
                selected_columns: Some(vec![2]),
                ..opts()
            },
            vec!["c"],
        ),
    ] {
        let p = csv_parser(o);
        assert_eq!(names(&p.parse(&input).unwrap().table), want);
        assert_eq!(names(&p.parse_stream(&input, 64).unwrap().table), want);
        for batch in p.partitions(&input, 64) {
            assert_eq!(names(&batch.unwrap()), want);
        }
    }
}

#[test]
fn drivers_agree_across_the_option_matrix() {
    // {inferred, explicit schema} x header x selected_columns x
    // skip_records x validate_column_count (one short record in the
    // input) x tiny memory budget, at two partition sizes.
    for case in 0..64u32 {
        let on = |bit: u32| case & (1 << bit) != 0;
        let mut o = opts();
        if on(0) {
            o.schema = Some(xyz_schema());
        }
        o.header = on(1);
        if on(2) {
            o.selected_columns = Some(vec![0, 2]);
        }
        if on(3) {
            o.skip_records = [0u64, 57].into_iter().collect();
        }
        o.validate_column_count = on(4);
        if on(5) {
            o.memory_budget = Some(64);
        }
        let input = csv_rows(120, o.header, Some(90));
        let p = csv_parser(o.clone());
        for psize in [37usize, 512] {
            let ctx = format!("case {case:06b}, partition {psize}");
            let stream = p.parse_stream(&input, psize).unwrap();
            assert_eq!(
                stream.diagnostics.is_empty(),
                !o.validate_column_count,
                "{ctx}: the short record is flagged exactly when validating"
            );

            // The iterator: same batches, same diagnostics.
            let it = drain(&p, &input, psize).unwrap();
            assert_eq!(it.table, stream.table, "{ctx}: iterator table");
            assert_eq!(
                it.diagnostics, stream.diagnostics,
                "{ctx}: iterator diagnostics"
            );
            assert_eq!(it.checkpoint.resume_offset, input.len() as u64, "{ctx}");
            assert_eq!(
                it.checkpoint.rows_emitted,
                stream.table.num_rows() as u64,
                "{ctx}"
            );

            // Cancelled at a launch: both drivers stop at one checkpoint,
            // and the resumed stream completes the same output.
            let cancelling = || {
                let mut oc = o.clone();
                oc.cancel = Some(CancelToken::after_launches(40));
                csv_parser(oc)
            };
            let interrupted = cancelling()
                .parse_stream_resumable(&input, psize, None)
                .unwrap_err();
            assert!(interrupted.error.is_cancelled(), "{ctx}");
            let mut cancelled = cancelling().partitions(&input, psize);
            let error = cancelled.find_map(Result::err).expect("iterator cancels");
            assert!(error.is_cancelled(), "{ctx}");
            assert_eq!(
                cancelled.checkpoint(),
                &interrupted.checkpoint,
                "{ctx}: checkpoints"
            );
            let resumed = p
                .parse_stream_resumable(&input, psize, Some(interrupted.checkpoint.clone()))
                .unwrap();
            let mut diagnostics = interrupted.completed.diagnostics.clone();
            diagnostics.extend(resumed.diagnostics.iter().cloned());
            assert_eq!(
                concat(vec![interrupted.completed.table, resumed.table]),
                stream.table,
                "{ctx}: resumed table"
            );
            assert_eq!(
                diagnostics, stream.diagnostics,
                "{ctx}: resumed diagnostics"
            );
            assert_eq!(
                interrupted.completed.rejected_records + resumed.rejected_records,
                stream.rejected_records,
                "{ctx}: resumed rejects"
            );

            // A fixed schema leaves nothing to infer per partition: the
            // stream is the whole-input parse.
            if o.schema.is_some() {
                let mono = p.parse(&input).unwrap();
                assert_eq!(stream.table, mono.table, "{ctx}: parse table");
                assert_eq!(
                    stream.diagnostics, mono.diagnostics,
                    "{ctx}: parse diagnostics"
                );
                assert_eq!(
                    stream.rejected_records, mono.stats.rejected_records,
                    "{ctx}: parse rejects"
                );
            }
        }
    }
}

/// What a stream reports per partition that must not depend on how many
/// windows run side by side.
fn cuts(out: &StreamedOutput) -> Vec<(u64, u64, u64, u64, usize)> {
    out.partitions
        .iter()
        .map(|r| {
            (
                r.input_bytes,
                r.carry_bytes,
                r.records,
                r.output_bytes,
                r.partition_size,
            )
        })
        .collect()
}

#[test]
fn side_by_side_windows_match_the_one_worker_stream() {
    // Windows run side by side, one per worker, each a 1-worker parse; 8
    // workers on a small host also covers an oversubscribed pool.
    let input = yelp::generate(300 << 10, 5);
    for mode in [
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
        TaggingMode::RecordTagged,
    ] {
        for window in [37usize, 4 << 10, 64 << 10] {
            let one = parser(1, mode).parse_stream(&input, window).unwrap();
            for workers in [2usize, 3, 8] {
                let ctx = format!("mode {mode:?}, window {window}, workers {workers}");
                let out = parser(workers, mode).parse_stream(&input, window).unwrap();
                assert_eq!(out.table, one.table, "{ctx}: table");
                assert_eq!(out.diagnostics, one.diagnostics, "{ctx}: diagnostics");
                assert_eq!(out.rejected_records, one.rejected_records, "{ctx}");
                assert_eq!(cuts(&out), cuts(&one), "{ctx}: partition reports");
            }
        }
    }
}

#[test]
fn cancel_checkpoints_are_deterministic_with_windows_side_by_side() {
    // One narrow column, so a sweep of launch counts crosses batches of
    // side-by-side windows on 2 and 3 workers.
    let input: Vec<u8> = (0..1500)
        .map(|i| format!("{i}\n"))
        .collect::<String>()
        .into_bytes();
    let psize = 64;
    for workers in [2usize, 3] {
        let o = ParserOptions {
            grid: Grid::new(workers),
            ..ParserOptions::default()
        };
        let p = csv_parser(o.clone());
        let clean = p.parse_stream(&input, psize).unwrap();
        let cancelling = |n: u64| {
            let mut oc = o.clone();
            oc.cancel = Some(CancelToken::after_launches(n));
            csv_parser(oc)
        };
        for n in (1..=250u64).step_by(7) {
            let ctx = format!("workers {workers}, n {n}");
            let mut seen: Option<Checkpoint> = None;
            for _ in 0..5 {
                let stream = cancelling(n).parse_stream_resumable(&input, psize, None);
                let mut it = cancelling(n).partitions(&input, psize);
                let error = it.by_ref().find_map(Result::err);
                let Err(interrupted) = stream else {
                    assert!(error.is_none(), "{ctx}: only the iterator failed");
                    continue;
                };
                assert!(interrupted.error.is_cancelled(), "{ctx}");
                assert!(error.expect("the iterator cancels").is_cancelled(), "{ctx}");
                assert_eq!(it.checkpoint(), &interrupted.checkpoint, "{ctx}");
                if let Some(seen) = &seen {
                    assert_eq!(seen, &interrupted.checkpoint, "{ctx}: repetitions");
                }
                seen = Some(interrupted.checkpoint.clone());
                let resumed = p
                    .parse_stream_resumable(&input, psize, Some(interrupted.checkpoint))
                    .unwrap();
                assert_eq!(
                    concat(vec![interrupted.completed.table, resumed.table]),
                    clean.table,
                    "{ctx}: resumed table"
                );
            }
        }

        // The iterator yields a committed batch one partition at a time,
        // and its checkpoint follows the partitions it yielded.
        let mut it = p.partitions(&input, psize);
        let first = it
            .by_ref()
            .map(Result::unwrap)
            .find(|t| t.num_rows() > 0)
            .unwrap();
        let checkpoint = it.checkpoint().clone();
        assert_eq!(checkpoint.rows_emitted, first.num_rows() as u64);
        let rest = p
            .parse_stream_resumable(&input, psize, Some(checkpoint))
            .unwrap();
        assert_eq!(
            concat(vec![first, rest.table]),
            clean.table,
            "workers {workers}: resumed iterator"
        );
    }
}
