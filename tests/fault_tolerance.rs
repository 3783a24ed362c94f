//! Fault tolerance end to end: injected launch faults must be invisible
//! in the parsed output (monolithic and streamed), worker panics must
//! surface as typed `LaunchError`s with the original payload, and the
//! error policies must turn reject bits into actionable diagnostics.

use parparaw::parallel::{Grid as PGrid, KernelExecutor, RetryPolicy};
use parparaw::prelude::*;

fn base_opts() -> ParserOptions {
    ParserOptions {
        grid: Grid::new(3),
        ..ParserOptions::default()
    }
    .chunk_size(23)
}

fn faulty_opts(seed: u64) -> ParserOptions {
    let mut o = base_opts().retry(RetryPolicy::attempts(8));
    o.fault_injection = Some(FaultInjection::new(seed, 0.2));
    o
}

fn make_input(rows: usize) -> Vec<u8> {
    let mut s = String::new();
    for i in 0..rows {
        s.push_str(&format!("{i},\"field, {i}\",{}.25\n", i % 50));
    }
    s.into_bytes()
}

#[test]
fn injected_faults_are_invisible_in_parse_output() {
    let input = make_input(300);
    let dfa = rfc4180(&CsvDialect::default());
    let clean = Parser::new(dfa.clone(), base_opts()).parse(&input).unwrap();
    let faulty = Parser::new(dfa, faulty_opts(0xF0_0001))
        .parse(&input)
        .unwrap();
    assert_eq!(faulty.table, clean.table, "retries must not change output");
    assert_eq!(faulty.rejected, clean.rejected);
    assert!(
        faulty.timings.injected_faults > 0,
        "a 20% injector across a whole pipeline must fire"
    );
    assert!(
        faulty.timings.retries >= faulty.timings.injected_faults,
        "every injected fault costs at least one retry"
    );
    assert_eq!(clean.timings.injected_faults, 0);
}

#[test]
fn injected_faults_are_invisible_in_parse_stream() {
    let input = make_input(400);
    let dfa = rfc4180(&CsvDialect::default());
    let clean = Parser::new(dfa.clone(), base_opts())
        .parse_stream(&input, 512)
        .unwrap();
    let faulty = Parser::new(dfa, faulty_opts(0xF0_0002))
        .parse_stream(&input, 512)
        .unwrap();
    assert_eq!(faulty.table, clean.table, "retries must not change output");
    assert!(faulty.total_injected_faults() > 0);
    assert!(faulty.total_retries() >= faulty.total_injected_faults());
    // Per-partition reports carry the fault accounting.
    assert_eq!(
        faulty.partitions.iter().map(|p| p.retries).sum::<u64>(),
        faulty.total_retries()
    );
}

#[test]
fn partition_iterator_survives_injected_faults() {
    let input = make_input(200);
    let p = Parser::new(rfc4180(&CsvDialect::default()), faulty_opts(0xF0_0003));
    let batches: Vec<Table> = p.partitions(&input, 256).collect::<Result<_, _>>().unwrap();
    let total: usize = batches.iter().map(|b| b.num_rows()).sum();
    assert_eq!(total, 200);
}

#[test]
fn deadline_timeouts_recover_with_unchanged_output() {
    use std::time::Duration;
    let input = make_input(300);
    let dfa = rfc4180(&CsvDialect::default());
    let clean = Parser::new(dfa.clone(), base_opts()).parse(&input).unwrap();
    // Stall-mode injection hangs 25% of launches for 30 ms against a
    // 10 ms deadline: the watchdog unwinds each stalled attempt and the
    // retry ladder recovers it.
    let mut o = base_opts()
        .retry(RetryPolicy::attempts(8))
        .launch_deadline(Duration::from_millis(10));
    o.fault_injection = Some(FaultInjection::stalls(
        0xD00D_0001,
        0.25,
        Duration::from_millis(30),
    ));
    let out = Parser::new(dfa, o).parse(&input).unwrap();
    assert_eq!(out.table, clean.table, "timeouts must not change output");
    assert!(
        out.timings.timeouts > 0,
        "a 25% stall injector against a 3x-shorter deadline must time out"
    );
    assert!(out.timings.retries >= out.timings.timeouts);
}

#[test]
fn deadline_stops_a_worker_range_walk_mid_range() {
    use std::time::Duration;
    // Passes 1 and 2 walk each worker's whole chunk range in one go: ~4
    // MiB per worker here, many times longer than the 1 ms deadline. The
    // walks poll the abort signal per model chunk, so the watchdog stops
    // one of them mid-range and, with a single attempt allowed, the parse
    // fails with a typed timeout instead of completing.
    let input = parparaw::workloads::yelp::generate(8 << 20, 1);
    let o = ParserOptions {
        grid: Grid::new(2),
        ..ParserOptions::default()
    }
    .retry(RetryPolicy::attempts(1))
    .launch_deadline(Duration::from_millis(1));
    let err = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(&input)
        .expect_err("a 1 ms deadline cannot cover an 8 MiB walk");
    assert!(err.is_timeout(), "expected a timeout, got {err}");
    match err {
        ParseError::Launch(e) => assert!(
            e.label == "parse/pass1" || e.label == "parse/pass2",
            "the first long walk times out, not {}",
            e.label
        ),
        other => panic!("expected a launch error, got {other}"),
    }
}

#[test]
fn stall_timeout_degrade_and_resume_is_byte_identical() {
    use std::time::Duration;
    // The full recovery gauntlet, per tagging mode: launches stall and
    // time out, arena budget pressure degrades the partition size, a
    // cancel token interrupts the stream mid-flight, and the resumed run
    // must still produce byte-identical output.
    let input = make_input(2000);
    let dfa = rfc4180(&CsvDialect::default());
    for tagging in [
        TaggingMode::RecordTagged,
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
    ] {
        let mut clean_o = base_opts();
        clean_o.tagging = tagging;
        let clean = Parser::new(dfa.clone(), clean_o.clone())
            .parse_stream(&input, 16 * 1024)
            .unwrap();

        let mut o = clean_o
            .retry(RetryPolicy::attempts(8))
            .launch_deadline(Duration::from_millis(10))
            .memory_budget(512);
        o.fault_injection = Some(FaultInjection::stalls(
            0xD00D_0002,
            0.2,
            Duration::from_millis(30),
        ));
        let faulty = Parser::new(dfa.clone(), o.clone())
            .parse_stream(&input, 16 * 1024)
            .unwrap();
        assert_eq!(
            faulty.table, clean.table,
            "tagging {tagging:?}: recovery must not change output"
        );
        assert!(faulty.total_timeouts() > 0, "tagging {tagging:?}");
        assert!(faulty.budget_degradations() > 0, "tagging {tagging:?}");

        // Same gauntlet, now also cancelled mid-stream; the checkpoint
        // resumes it (without the fired token).
        let mut oc = o.clone();
        oc.cancel = Some(CancelToken::after_launches(40));
        let interrupted = Parser::new(dfa.clone(), oc)
            .parse_stream_resumable(&input, 16 * 1024, None)
            .unwrap_err();
        assert!(interrupted.error.is_cancelled(), "tagging {tagging:?}");
        let resumed = Parser::new(dfa.clone(), o)
            .parse_stream_resumable(&input, 16 * 1024, Some(interrupted.checkpoint))
            .unwrap();
        let parts: Vec<&Table> = [&interrupted.completed.table, &resumed.table]
            .into_iter()
            .filter(|t| t.num_rows() > 0)
            .collect();
        assert_eq!(
            Table::concat(&parts).unwrap(),
            clean.table,
            "tagging {tagging:?}: resumed stream must be byte-identical"
        );
    }
}

#[test]
fn stall_matrix_from_env_recovers() {
    use std::time::Duration;
    // CI drives this with PARPARAW_STALL_RATE (and PARPARAW_LAUNCH_MODE
    // picked up by Grid); locally it runs at a light default rate.
    let rate: f64 = std::env::var("PARPARAW_STALL_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1);
    let input = make_input(500);
    let dfa = rfc4180(&CsvDialect::default());
    let clean = Parser::new(dfa.clone(), base_opts())
        .parse_stream(&input, 1024)
        .unwrap();
    let mut o = base_opts()
        .retry(RetryPolicy::attempts(8))
        .launch_deadline(Duration::from_millis(8));
    o.fault_injection = Some(FaultInjection::stalls(
        0x57A1_1000,
        rate,
        Duration::from_millis(20),
    ));
    let out = Parser::new(dfa, o).parse_stream(&input, 1024).unwrap();
    assert_eq!(out.table, clean.table, "rate {rate}");
}

#[test]
fn strict_budget_floor_is_a_typed_parse_error() {
    let input = make_input(300);
    let mut o = base_opts().error_policy(ErrorPolicy::Strict);
    o.memory_budget = Some(64);
    // 512-byte partitions sit at the degradation floor already, so the
    // first pressure event must surface as a typed error, not an abort.
    let err = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse_stream(&input, 512)
        .unwrap_err();
    match err {
        ParseError::MemoryBudgetExceeded {
            budget_bytes,
            partition_size,
        } => {
            assert_eq!(budget_bytes, 64);
            assert_eq!(partition_size, 512);
        }
        other => panic!("expected MemoryBudgetExceeded, got {other}"),
    }
}

#[test]
fn cancel_mid_stream_resumes_across_tagging_modes() {
    let input = make_input(400);
    let dfa = rfc4180(&CsvDialect::default());
    for tagging in [
        TaggingMode::RecordTagged,
        TaggingMode::inline_default(),
        TaggingMode::VectorDelimited,
    ] {
        let mut clean_o = base_opts();
        clean_o.tagging = tagging;
        let p = Parser::new(dfa.clone(), clean_o.clone());
        let clean = p.parse_stream(&input, 512).unwrap();
        for nth in [5u64, 25, 60] {
            let mut o = clean_o.clone();
            o.cancel = Some(CancelToken::after_launches(nth));
            let interrupted = Parser::new(dfa.clone(), o)
                .parse_stream_resumable(&input, 512, None)
                .unwrap_err();
            assert!(interrupted.error.is_cancelled(), "{tagging:?} nth={nth}");
            let resumed = p
                .parse_stream_resumable(&input, 512, Some(interrupted.checkpoint))
                .unwrap();
            let parts: Vec<&Table> = [&interrupted.completed.table, &resumed.table]
                .into_iter()
                .filter(|t| t.num_rows() > 0)
                .collect();
            assert_eq!(
                Table::concat(&parts).unwrap(),
                clean.table,
                "{tagging:?} nth={nth}"
            );
        }
    }
}

#[test]
fn worker_panic_surfaces_as_launch_error_with_payload() {
    let exec = KernelExecutor::new(PGrid::new(3));
    let err = exec
        .launch("parse/pass1", 9, |grid, _| {
            grid.run_partitioned(9, |w, _| {
                if w == 2 {
                    panic!("simulated kernel fault in worker {w}");
                }
            });
        })
        .unwrap_err();
    assert_eq!(err.label, "parse/pass1");
    assert_eq!(err.worker, Some(2));
    assert_eq!(err.message, "simulated kernel fault in worker 2");
    assert!(err.chunk_range.is_some());
    // The error is also a ParseError for pipeline callers.
    let pe: ParseError = err.into();
    assert!(pe.to_string().contains("kernel launch failed"));
}

#[test]
fn strict_policy_aborts_on_malformed_record() {
    // Record 1 has two columns instead of three.
    let input = b"1,2,3\n4,5\n6,7,8\n";
    let mut o = base_opts().error_policy(ErrorPolicy::Strict);
    o.validate_column_count = true;
    let err = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(input)
        .unwrap_err();
    match err {
        ParseError::MalformedRecord(d) => {
            assert_eq!(d.record, 1);
            assert!(matches!(
                d.reason,
                RejectReason::ColumnCountMismatch {
                    expected: 3,
                    got: 2
                }
            ));
        }
        other => panic!("expected MalformedRecord, got {other}"),
    }
}

#[test]
fn permissive_policy_collects_diagnostics() {
    let input = b"1,2,3\n4,5\n6,7,8\n9\n10,11,12\n";
    let mut o = base_opts().error_policy(ErrorPolicy::Permissive {
        max_diagnostics: 64,
    });
    o.validate_column_count = true;
    let out = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(input)
        .unwrap();
    assert_eq!(out.stats.rejected_records, 2);
    let records: Vec<u64> = out.diagnostics.iter().map(|d| d.record).collect();
    assert_eq!(records, vec![1, 3], "diagnostics sorted by record");
    assert_eq!(out.stats.dropped_diagnostics, 0);
    // The rejected rows stay in the table as nulls.
    assert_eq!(out.table.num_rows(), 5);
}

#[test]
fn diagnostic_cap_drops_and_counts_overflow() {
    let mut bad = String::new();
    for i in 0..20 {
        bad.push_str(&format!("{i},x\n")); // 2 cols, expected 3
    }
    let input = format!("a,b,c\n{bad}");
    let mut o = base_opts().error_policy(ErrorPolicy::Permissive { max_diagnostics: 4 });
    o.validate_column_count = true;
    let out = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(input.as_bytes())
        .unwrap();
    assert_eq!(out.stats.rejected_records, 20);
    assert!(out.diagnostics.len() <= 4);
    assert!(out.stats.dropped_diagnostics > 0);
}

#[test]
fn max_rejects_budget_aborts() {
    let input = b"1,2,3\n4,5\n6\n7,8\n9,10,11\n";
    let mut o = base_opts();
    o.validate_column_count = true;
    o.max_rejects = Some(1);
    let err = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(input)
        .unwrap_err();
    match err {
        ParseError::TooManyRejects {
            rejects,
            max_rejects,
        } => {
            assert_eq!(rejects, 3);
            assert_eq!(max_rejects, 1);
        }
        other => panic!("expected TooManyRejects, got {other}"),
    }
}

#[test]
fn conversion_failures_produce_diagnostics() {
    let schema = Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]);
    let input = b"1,2.5\nnope,3.5\n3,4.5\n";
    let mut o = base_opts();
    o.schema = Some(schema);
    let out = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse(input)
        .unwrap();
    assert_eq!(out.stats.conversion_rejects, 1);
    let d = out
        .diagnostics
        .iter()
        .find(|d| matches!(d.reason, RejectReason::ConversionFailed { .. }))
        .expect("conversion failure diagnostic");
    assert_eq!(d.record, 1);
    assert_eq!(d.column, Some(0));
    assert_eq!(out.table.value(1, 0), parparaw::columnar::Value::Null);
}

#[test]
fn streaming_diagnostics_use_global_record_indices() {
    // 60 good rows, then a short record near the end; with 256-byte
    // partitions the bad record lands several partitions in.
    let mut s = String::new();
    for i in 0..60 {
        s.push_str(&format!("{i},{i},{i}\n"));
    }
    s.push_str("61,61\n");
    for i in 62..70 {
        s.push_str(&format!("{i},{i},{i}\n"));
    }
    let mut o = base_opts();
    o.validate_column_count = true;
    let streamed = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse_stream(s.as_bytes(), 256)
        .unwrap();
    assert_eq!(streamed.rejected_records, 1);
    assert_eq!(streamed.diagnostics.len(), 1);
    assert_eq!(
        streamed.diagnostics[0].record, 60,
        "record index must be stream-global, not partition-local"
    );
}

#[test]
fn strict_policy_streams() {
    let mut s = String::new();
    for i in 0..50 {
        s.push_str(&format!("{i},{i}\n"));
    }
    s.push_str("bad\n");
    let mut o = base_opts().error_policy(ErrorPolicy::Strict);
    o.validate_column_count = true;
    let err = Parser::new(rfc4180(&CsvDialect::default()), o)
        .parse_stream(s.as_bytes(), 128)
        .unwrap_err();
    assert!(matches!(err, ParseError::MalformedRecord(_)));
}

/// The first launch of a parse on `input` under `o`, as a launch error.
fn first_launch_error(o: ParserOptions, input: &[u8]) -> parparaw::parallel::LaunchError {
    match Parser::new(rfc4180(&CsvDialect::default()), o).parse(input) {
        Err(ParseError::Launch(e)) => e,
        Err(other) => panic!("expected a launch error, got {other}"),
        Ok(_) => panic!("the parse was not interrupted"),
    }
}

#[test]
fn pass1_walk_stops_at_a_stalled_deadline() {
    use std::time::Duration;
    // Every launch stalls past the deadline before its job runs, so the
    // watchdog has expired the attempt by the time pass 1 walks: both of
    // its pieces on 2 workers poll at their chunks and unwind, and with
    // one attempt the parse fails in pass 1 itself.
    let input = make_input(2000);
    let mut o = ParserOptions {
        grid: Grid::new(2),
        ..ParserOptions::default()
    }
    .retry(RetryPolicy::attempts(1))
    .launch_deadline(Duration::from_millis(5));
    o.fault_injection = Some(FaultInjection::stalls(7, 1.0, Duration::from_millis(40)));
    let e = first_launch_error(o, &input);
    assert!(e.is_timeout(), "expected a timeout, got {e}");
    assert_eq!(e.label, "parse/pass1");
}

#[test]
fn pass1_walk_stops_at_a_cancel() {
    use std::time::Duration;
    // The token fires while pass 1's launch is stalled, after the launch
    // checked it: only the walk's own polls can stop it.
    let input = make_input(2000);
    let token = CancelToken::new();
    let mut o = ParserOptions {
        grid: Grid::new(2),
        ..ParserOptions::default()
    };
    o.cancel = Some(token.clone());
    o.fault_injection = Some(FaultInjection::stalls(7, 1.0, Duration::from_millis(300)));
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        token.cancel();
    });
    let e = first_launch_error(o, &input);
    canceller.join().unwrap();
    assert!(e.is_cancelled(), "expected a cancel, got {e}");
    assert_eq!(e.label, "parse/pass1");
}

#[test]
fn stream_cancelled_at_pass1_resumes_byte_identical() {
    // Cancel the stream at each pass-1 launch in turn (after at least one
    // partition): the completed prefix plus the resumed rest must equal
    // the uninterrupted stream.
    let input = make_input(400);
    let dfa = rfc4180(&CsvDialect::default());
    let clean_o = ParserOptions {
        grid: Grid::new(2),
        ..ParserOptions::default()
    };
    let p = Parser::new(dfa.clone(), clean_o.clone());
    let clean = p.parse_stream(&input, 512).unwrap();
    let mut at_pass1 = 0;
    for nth in 1..=120u64 {
        let mut o = clean_o.clone();
        o.cancel = Some(CancelToken::after_launches(nth));
        let Err(interrupted) =
            Parser::new(dfa.clone(), o).parse_stream_resumable(&input, 512, None)
        else {
            break; // the stream finished before the nth launch
        };
        let in_pass1 =
            matches!(&interrupted.error, ParseError::Launch(e) if e.label == "parse/pass1");
        if !in_pass1 || interrupted.completed.partitions.is_empty() {
            continue;
        }
        at_pass1 += 1;
        let resumed = p
            .parse_stream_resumable(&input, 512, Some(interrupted.checkpoint))
            .unwrap();
        let parts: Vec<&Table> = [&interrupted.completed.table, &resumed.table]
            .into_iter()
            .filter(|t| t.num_rows() > 0)
            .collect();
        assert_eq!(Table::concat(&parts).unwrap(), clean.table, "nth={nth}");
    }
    assert!(at_pass1 >= 2, "only {at_pass1} cancels landed in pass 1");
}
