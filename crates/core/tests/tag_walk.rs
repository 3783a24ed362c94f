//! The word-wise tagging walk against a byte-at-a-time reference.
//!
//! `tag_symbols` jumps from boundary to boundary over the pass-2 bitmap
//! words and splits a field's run only where a pass-2 worker range ends.
//! The reference below reads the same bitmaps one bit at a time over the
//! whole input. Both must agree on the compacted symbols, the field runs
//! (after joining worker splits, with starts implied by the order), the
//! reject bitmap, the diagnostics and the terminator clash — across
//! tagging modes, skipped records, dropped and out-of-range columns,
//! column-count validation, inputs with reject bits, chunk sizes that
//! straddle bitmap words, worker counts and both launch modes. Over
//! one-chunk pass-2 ranges (the paper's grid, which the cost model runs)
//! the walk must emit, per output column, exactly the runs the reference
//! counts as per-chunk field pieces.

use parparaw_core::context::determine_contexts_fast;
use parparaw_core::diag::{DiagSink, RecordDiagnostic, RejectReason};
use parparaw_core::meta::{identify_columns_and_records, identify_ranges, MetaPass};
use parparaw_core::tagging::{tag_symbols, FieldRun, TagConfig};
use parparaw_core::{ScanAlgorithm, TaggingMode};
use parparaw_dfa::csv::{rfc4180, rfc4180_paper, CsvDialect};
use parparaw_dfa::{Dfa, DfaBuilder, Emit};
use parparaw_parallel::{grid, Bitmap, Grid, KernelExecutor, SplitMix64};

fn meta_on(exec: &KernelExecutor, dfa: &Dfa, input: &[u8], chunk_size: usize) -> MetaPass {
    let ctx = determine_contexts_fast(exec, dfa, input, chunk_size, ScanAlgorithm::Blocked, None)
        .unwrap();
    identify_columns_and_records(exec, dfa, input, chunk_size, &ctx.start_states).unwrap()
}

/// Pass 2 on the paper's grid: one range per chunk of a non-empty input,
/// each from its per-chunk start state.
fn per_chunk_meta(exec: &KernelExecutor, dfa: &Dfa, input: &[u8], chunk_size: usize) -> MetaPass {
    let ctx = determine_contexts_fast(exec, dfa, input, chunk_size, ScanAlgorithm::Blocked, None)
        .unwrap();
    let n = ctx.start_states.len();
    let ranges = grid::partition(n, n);
    identify_ranges(exec, dfa, input, chunk_size, &ranges, &ctx.start_states).unwrap()
}

/// The tag walk's runs counted per output column.
fn runs_per_col(runs: &[FieldRun], num_cols: usize) -> Vec<u64> {
    let mut counts = vec![0; num_cols];
    for r in runs {
        counts[r.col as usize] += 1;
    }
    counts
}

/// One field of the reference, in input order: where its symbols start
/// in the compacted array and the distinct chunks they fall in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefRun {
    col: u32,
    row: u32,
    start: u64,
    len: u64,
    closed: bool,
    chunks: u64,
}

/// `(col, row, start, len, closed)` per field: the reference's runs, or
/// the tag walk's runs with starts taken as the running sum of lengths and
/// worker splits joined back (same field, previous piece not closed).
fn fields_of(runs: &[RefRun]) -> Vec<(u32, u32, u64, u64, bool)> {
    runs.iter()
        .map(|r| (r.col, r.row, r.start, r.len, r.closed))
        .collect()
}

fn merged(runs: &[FieldRun]) -> Vec<(u32, u32, u64, u64, bool)> {
    let mut out: Vec<(u32, u32, u64, u64, bool)> = Vec::new();
    let mut start = 0;
    for r in runs {
        match out.last_mut() {
            Some((col, row, _, len, closed)) if (*col, *row) == (r.col, r.row) && !*closed => {
                *len += r.len();
                *closed = r.closed();
            }
            _ => out.push((r.col, r.row, start, r.len(), r.closed())),
        }
        start += r.len();
    }
    out
}

/// The byte-at-a-time reference: one walker over the whole input,
/// reading the same bitmaps bit by bit, with one run per field and
/// `chunks` counted as the distinct chunks each field's symbols hit.
struct Reference {
    symbols: Vec<u8>,
    runs: Vec<RefRun>,
    rejected: Bitmap,
    diags: Vec<RecordDiagnostic>,
    clash: bool,
}

impl Reference {
    /// The per-chunk field pieces summed per output column.
    fn col_chunk_runs(&self, num_cols: usize) -> Vec<u64> {
        let mut sums = vec![0; num_cols];
        for r in &self.runs {
            sums[r.col as usize] += r.chunks;
        }
        sums
    }
}

fn reference(input: &[u8], chunk_size: usize, meta: &MetaPass, cfg: &TagConfig) -> Reference {
    let out_row = |rec: u64| match cfg.skip_records.binary_search(&rec) {
        Ok(_) => None,
        Err(rank) => Some(rec - rank as u64),
    };
    let terminator = match cfg.mode {
        TaggingMode::InlineTerminated { terminator } => Some(terminator),
        _ => None,
    };
    let include_delims = !matches!(cfg.mode, TaggingMode::RecordTagged);
    let mut r = Reference {
        symbols: Vec::new(),
        runs: Vec::new(),
        rejected: Bitmap::new(cfg.num_out_rows as usize),
        diags: Vec::new(),
        clash: false,
    };
    let (mut rec, mut col, mut last_chunk) = (0u64, 0u32, usize::MAX);
    for (i, &b) in input.iter().enumerate() {
        let kept = out_row(rec).zip(cfg.col_map.get(col as usize).copied().flatten());
        let mut reject = |row: u64, column, reason| {
            r.rejected.set(row as usize);
            r.diags.push(RecordDiagnostic {
                record: row,
                column,
                byte_offset: Some(i as u64),
                reason,
            });
        };
        if meta.rejects.get(i) {
            if let Some(row) = out_row(rec).filter(|&row| row < cfg.num_out_rows) {
                reject(
                    row,
                    cfg.col_map.get(col as usize).copied().flatten(),
                    RejectReason::InvalidSyntax,
                );
            }
        }
        let is_rec = meta.records.get(i);
        let is_delim = is_rec || meta.fields.get(i);
        if is_rec {
            if let (Some(expected), Some(row)) = (cfg.expected_columns, out_row(rec)) {
                if col + 1 != expected {
                    let got = col + 1;
                    reject(
                        row,
                        None,
                        RejectReason::ColumnCountMismatch { expected, got },
                    );
                }
            }
        }
        let emit = if is_delim {
            include_delims.then(|| terminator.unwrap_or(b))
        } else if meta.control.get(i) {
            None
        } else {
            r.clash |= Some(b) == terminator;
            Some(b)
        };
        if let (Some(byte), Some((row, oc))) = (emit, kept) {
            let chunk = i / chunk_size;
            match r.runs.last_mut() {
                Some(run) if (run.col, run.row) == (oc, row as u32) && !run.closed => {
                    run.len += 1;
                    run.closed = is_delim;
                    run.chunks += u64::from(chunk != last_chunk);
                }
                _ => r.runs.push(RefRun {
                    col: oc,
                    row: row as u32,
                    start: r.symbols.len() as u64,
                    len: 1,
                    closed: is_delim,
                    chunks: 1,
                }),
            }
            last_chunk = chunk;
            r.symbols.push(byte);
        }
        if is_rec {
            rec += 1;
            col = 0;
        } else if is_delim {
            col += 1;
        }
    }
    r.diags.sort_by_key(|d| (d.record, d.column, d.byte_offset));
    r.diags
        .dedup_by_key(|d| (d.record, d.column, d.byte_offset));
    r
}

/// A one-state format whose `!` is a data byte flagged as a reject (the
/// CSV automata flag only control bytes): a reject bit inside a data span.
fn flagged_data_format() -> Dfa {
    let mut b = DfaBuilder::new();
    let s = b.state("FLD");
    let (nl, comma, bang) = (b.group(b"\n"), b.group(b","), b.group(b"!"));
    let any = b.catch_all();
    b.transition(s, nl, s, Emit::RECORD_DELIM)
        .transition(s, comma, s, Emit::FIELD_DELIM)
        .transition(s, bang, s, Emit::REJECT)
        .transition(s, any, s, Emit::DATA)
        .start(s)
        .accepting(&[s]);
    b.build().unwrap()
}

/// Seeded CSV-ish soup: long letter runs (so spans straddle bitmap
/// words), delimiters, quotes (rejects when unbalanced), `\r`, `#`
/// comments, `!` and the inline terminator byte.
fn soup(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(len + 100);
    while out.len() < len {
        match rng.next_below(10) {
            0..=3 => {
                let run = rng.next_below(90) as usize;
                out.extend((0..run).map(|k| b'a' + (k % 26) as u8));
            }
            4 | 5 => out.push(b','),
            6 => out.push(b'\n'),
            7 => out.push(b'"'),
            _ => out.push(*rng.choice(b"\r#\x1f!")),
        }
    }
    out
}

#[test]
fn word_walk_matches_byte_reference() {
    let mut inputs: Vec<Vec<u8>> = vec![
        b"x,\"y,\ny\",z\n1,\"2\",3\n,,\na,b,c".to_vec(),
        b"a\"b,c\n\"d\"e,f\ng,h,i,j\n\"open".to_vec(),
        b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n".to_vec(),
    ];
    inputs.extend((0..4).map(|seed| soup(0x7A6 + seed, 700)));
    let dfas = [
        rfc4180_paper(),
        rfc4180(&CsvDialect {
            comment: Some(b'#'),
            ..CsvDialect::default()
        }),
        flagged_data_format(),
    ];
    let modes = [
        TaggingMode::RecordTagged,
        TaggingMode::InlineTerminated { terminator: 0x1F },
        TaggingMode::VectorDelimited,
    ];
    // What the cases exercised, so the comparison cannot pass vacuously.
    let (mut splits, mut rejects, mut clashes) = (0, 0, 0);
    for workers in [1usize, 2, 4] {
        let exec = KernelExecutor::new(Grid::new(workers));
        for (d, dfa) in dfas.iter().enumerate() {
            for (k, input) in inputs.iter().enumerate() {
                for cs in [1usize, 3, 31, 63, 64, 65, 200] {
                    let meta = meta_on(&exec, dfa, input, cs);
                    let chunk_meta = per_chunk_meta(&exec, dfa, input, cs);
                    let last = meta.num_records.saturating_sub(1);
                    let mut skip: Vec<u64> = vec![0, 2, 3, 7, last];
                    skip.retain(|&r| r < meta.num_records);
                    skip.sort_unstable();
                    skip.dedup();
                    let identity = [Some(0), Some(1), Some(2)];
                    let sparse = [Some(0), None, Some(1)];
                    for mode in modes {
                        let plain = TagConfig {
                            mode,
                            col_map: &identity,
                            skip_records: &[],
                            expected_columns: None,
                            num_out_rows: meta.num_records,
                            diags: None,
                        };
                        let skipping = TagConfig {
                            col_map: &sparse,
                            skip_records: &skip,
                            expected_columns: Some(3),
                            num_out_rows: meta.num_records - skip.len() as u64,
                            ..plain
                        };
                        for cfg in [plain, skipping] {
                            let sink = DiagSink::new(usize::MAX);
                            let cfg = TagConfig {
                                diags: Some(&sink),
                                ..cfg
                            };
                            let at = format!(
                                "w={workers} dfa={d} input={k} cs={cs} {} skip={:?}",
                                mode.name(),
                                cfg.skip_records
                            );
                            let want = reference(input, cs, &meta, &cfg);
                            let got = tag_symbols(&exec, input, cs, &meta, &cfg).unwrap();
                            assert_eq!(got.symbols, want.symbols, "{at}");
                            assert_eq!(merged(&got.runs), fields_of(&want.runs), "{at}");
                            let num_cols = cfg.col_map.iter().flatten().count();
                            let per_chunk = TagConfig { diags: None, ..cfg };
                            let per_chunk =
                                tag_symbols(&exec, input, cs, &chunk_meta, &per_chunk).unwrap();
                            assert_eq!(
                                runs_per_col(&per_chunk.runs, num_cols),
                                want.col_chunk_runs(num_cols),
                                "{at}"
                            );
                            assert_eq!(got.rejected, want.rejected, "{at}");
                            assert_eq!(got.terminator_clash, want.clash, "{at}");
                            assert_eq!(sink.into_sorted(), want.diags, "{at}");
                            splits += usize::from(got.runs.len() > want.runs.len());
                            rejects += usize::from(got.rejected.count_ones() > 0);
                            clashes += usize::from(got.terminator_clash);
                        }
                    }
                }
            }
        }
    }
    assert!(
        splits > 0 && rejects > 0 && clashes > 0,
        "{splits} {rejects} {clashes}"
    );
}

/// Tagging follows pass 2's worker ranges, not the grid it runs on: with
/// pass 2 on three workers, tagging on one, two, three or eight workers
/// yields the same symbols, the same runs (split
/// at the same three-range edges) and the same rejects.
#[test]
fn tagging_follows_pass2_ranges_on_any_grid() {
    let dfa = rfc4180_paper();
    let pass2 = KernelExecutor::new(Grid::new(3));
    let taggers: Vec<KernelExecutor> = [Grid::new(1), Grid::new(2), Grid::new(8), Grid::new(3)]
        .into_iter()
        .map(KernelExecutor::new)
        .collect();
    let records: Vec<u8> = (0..60)
        .flat_map(|i| format!("{i},\"a, \"\"b\"\"\n{i}\",{}\n", "x".repeat(i * 3)).into_bytes())
        .collect();
    let inputs = [records, soup(0x5EED, 2000)];
    let (mut splits, mut rejects) = (0, 0);
    for (k, input) in inputs.iter().enumerate() {
        for cs in [1usize, 31, 65] {
            let meta = meta_on(&pass2, &dfa, input, cs);
            assert_eq!(meta.ranges.len(), 3);
            for mode in [
                TaggingMode::RecordTagged,
                TaggingMode::InlineTerminated { terminator: 0x1F },
                TaggingMode::VectorDelimited,
            ] {
                let cols = [Some(0), Some(1), Some(2)];
                let cfg = TagConfig {
                    mode,
                    col_map: &cols,
                    skip_records: &[],
                    expected_columns: Some(3),
                    num_out_rows: meta.num_records,
                    diags: None,
                };
                let want = tag_symbols(&pass2, input, cs, &meta, &cfg).unwrap();
                splits += usize::from(merged(&want.runs).len() < want.runs.len());
                rejects += usize::from(want.rejected.count_ones() > 0);
                for exec in &taggers {
                    let at = format!(
                        "input={k} cs={cs} {} on {} workers",
                        mode.name(),
                        exec.grid().workers()
                    );
                    let got = tag_symbols(exec, input, cs, &meta, &cfg).unwrap();
                    assert_eq!(got.symbols, want.symbols, "{at}");
                    assert_eq!(got.runs, want.runs, "{at}");
                    assert_eq!(got.rejected, want.rejected, "{at}");
                }
            }
        }
    }
    assert!(splits > 0 && rejects > 0, "{splits} {rejects}");
}
