//! The Instant-Loading-style chunked parser (Mühlbauer et al., VLDB 2013).
//!
//! Paper §2: "Their approach suggests to split the input into multiple
//! chunks of equal size that are processed in parallel. Threads start
//! parsing their chunk only from an actual record boundary onward, i.e.,
//! after encountering the first record delimiter in their chunk. Threads
//! continue parsing beyond the boundary of their chunk until encountering
//! the end of their last record."
//!
//! * [`InstantLoadingMode::Unsafe`] — record boundaries are found by a
//!   plain newline search with **no parsing context**, which silently
//!   splits records inside quoted fields. On inputs like the yelp-like
//!   workload this produces garbage — the "×" entry of paper Fig. 13 —
//!   which the result surfaces via `suspect_records`.
//! * [`InstantLoadingMode::Safe`] — a **sequential pre-pass** walks the
//!   DFA over the whole input to find the true chunk-start states and
//!   record boundaries. Correct, but the pre-pass is serial work that
//!   Amdahl turns into a hard ceiling; the work profile records it.

use parparaw_columnar::{DataType, Field, Schema, Table};
use parparaw_core::convert::convert_column_with_diags;
use parparaw_core::css::FieldIndex;
use parparaw_core::infer::infer_column_type;
use parparaw_core::ParseError;
use parparaw_device::WorkProfile;
use parparaw_dfa::Dfa;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::{Bitmap, Grid};
use std::time::{Duration, Instant};

/// How chunk boundaries are determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantLoadingMode {
    /// Split at the first newline byte in each chunk, context-free.
    Unsafe,
    /// Sequential context pre-pass, then split at true record delimiters.
    Safe,
}

/// The chunked speculative parser.
#[derive(Debug, Clone)]
pub struct InstantLoadingParser {
    dfa: Dfa,
    grid: Grid,
    num_chunks: usize,
    mode: InstantLoadingMode,
    schema: Option<Schema>,
}

/// Result of an Instant-Loading parse.
#[derive(Debug)]
pub struct InstantLoadingOutput {
    /// The parsed table (possibly garbage in unsafe mode — check
    /// `suspect_records`).
    pub table: Table,
    /// Records whose parse hit an invalid transition — in unsafe mode the
    /// tell-tale of mis-split quoted fields.
    pub suspect_records: u64,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Seconds spent in the sequential pre-pass (safe mode only).
    pub serial_prepass_wall: Duration,
    /// Work profile (`serial_ops` nonzero in safe mode).
    pub profile: WorkProfile,
}

struct RecordBuf {
    fields: Vec<Option<Vec<u8>>>,
    rejected: bool,
}

impl InstantLoadingParser {
    /// Build a parser that splits the input into `num_chunks` chunks
    /// processed by `grid`.
    pub fn new(
        dfa: Dfa,
        grid: Grid,
        num_chunks: usize,
        mode: InstantLoadingMode,
        schema: Option<Schema>,
    ) -> Self {
        InstantLoadingParser {
            dfa,
            grid,
            num_chunks: num_chunks.max(1),
            mode,
            schema,
        }
    }

    /// Parse the input.
    pub fn parse(&self, input: &[u8]) -> Result<InstantLoadingOutput, ParseError> {
        let t0 = Instant::now();
        let n = input.len();
        let dfa = &self.dfa;
        let bounds: Vec<std::ops::Range<usize>> =
            parparaw_parallel::grid::partition(n, self.num_chunks);

        // Determine each chunk's true record-boundary start (safe mode
        // walks the DFA sequentially; unsafe mode just finds '\n').
        let mut prepass_wall = Duration::ZERO;
        let starts: Vec<Option<usize>> = match self.mode {
            InstantLoadingMode::Unsafe => bounds
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    if i == 0 {
                        Some(0)
                    } else if input[r.start - 1] == b'\n' {
                        // The record boundary sits exactly on the chunk cut.
                        Some(r.start)
                    } else {
                        input[r.clone()]
                            .iter()
                            .position(|&b| b == b'\n')
                            .map(|p| r.start + p + 1)
                    }
                })
                .collect(),
            InstantLoadingMode::Safe => {
                // Sequential pass: record positions of record delimiters,
                // pick the first at-or-after each chunk start.
                let tp = Instant::now();
                let mut first_boundary_at_or_after = vec![None; bounds.len()];
                let mut state = dfa.start_state();
                let mut next_chunk = 1usize; // chunk 0 starts at 0
                first_boundary_at_or_after[0] = Some(0);
                for (i, &b) in input.iter().enumerate() {
                    let step = dfa.step(state, b);
                    state = step.next;
                    if step.emit.is_record_delimiter() {
                        while next_chunk < bounds.len() && bounds[next_chunk].start <= i + 1 {
                            first_boundary_at_or_after[next_chunk] = Some(i + 1);
                            next_chunk += 1;
                        }
                    }
                }
                prepass_wall = tp.elapsed();
                first_boundary_at_or_after
            }
        };

        // Each thread parses records from its start to the first record
        // boundary past its chunk end (sequential DFA within the chunk).
        let mut per_chunk: Vec<Vec<RecordBuf>> = Vec::new();
        per_chunk.resize_with(bounds.len(), Vec::new);
        {
            let pw = SlotWriter::new(&mut per_chunk);
            self.grid.run_partitioned(bounds.len(), |_, range| {
                for c in range {
                    let mut records = Vec::new();
                    if let Some(start) = starts[c] {
                        // Skip chunks whose speculative start duplicates a
                        // predecessor's overrun region: a chunk only owns
                        // records beginning inside [start, chunk_end).
                        let chunk_end = bounds[c].end;
                        if start < chunk_end || c == 0 {
                            parse_records(dfa, input, start, chunk_end, &mut records);
                        }
                    }
                    unsafe { pw.write(c, records) };
                }
            });
        }
        let records: Vec<RecordBuf> = per_chunk.into_iter().flatten().collect();

        // Column-wise conversion, same shared kernels as everyone else.
        let num_raw_cols = match &self.schema {
            Some(s) => s.num_columns(),
            None => records.iter().map(|r| r.fields.len()).max().unwrap_or(1),
        };
        let num_rows = records.len();
        let mut rejected = Bitmap::new(num_rows);
        let mut suspect = 0u64;
        for (row, r) in records.iter().enumerate() {
            if r.rejected {
                rejected.set(row);
                suspect += 1;
            }
        }

        let conv_grid = &self.grid;
        let mut columns = Vec::with_capacity(num_raw_cols);
        let mut fields_meta = Vec::with_capacity(num_raw_cols);
        for raw_c in 0..num_raw_cols {
            let mut css = Vec::new();
            let mut index = FieldIndex::default();
            for (row, r) in records.iter().enumerate() {
                if let Some(Some(bytes)) = r.fields.get(raw_c) {
                    index.rows.push(row as u32);
                    index.starts.push(css.len() as u64);
                    css.extend_from_slice(bytes);
                    index.ends.push(css.len() as u64);
                }
            }
            let field = match &self.schema {
                Some(s) => s.fields[raw_c].clone(),
                None => Field::new(
                    &format!("c{raw_c}"),
                    if css.is_empty() && index.num_fields() == 0 {
                        DataType::Utf8
                    } else {
                        infer_column_type(conv_grid, &css, &index)
                    },
                ),
            };
            let out = convert_column_with_diags(
                conv_grid,
                &css,
                &index,
                num_rows,
                field.data_type,
                field.default.as_ref(),
                &rejected,
                usize::MAX,
                None,
            );
            columns.push(out.column);
            fields_meta.push(field);
        }
        let table =
            Table::new(Schema::new(fields_meta), columns).expect("columns sized to record count");

        let mut profile = WorkProfile::new("instant-loading");
        // Row-wise loading touches every byte several times: the DFA walk,
        // the per-record field buffers (write + read back), the per-column
        // CSS gather (write + read), and the typed output — about seven
        // passes of memory traffic, which is what bounds multicore loaders
        // in practice.
        profile.bytes_read = input.len() as u64 * 4;
        profile.bytes_written = input.len() as u64 * 3 + table.buffer_bytes() as u64;
        profile.parallel_ops = input.len() as u64 * 8;
        if self.mode == InstantLoadingMode::Safe {
            // The context pre-pass is a lean serial scan (~1 op/byte with
            // SIMD delimiter probing, per Mühlbauer et al.).
            profile.serial_ops = input.len() as u64;
            profile.bytes_read += input.len() as u64;
        }

        Ok(InstantLoadingOutput {
            table,
            suspect_records: suspect,
            wall: t0.elapsed(),
            serial_prepass_wall: prepass_wall,
            profile,
        })
    }
}

/// Parse complete records from `start` until the first record end at or
/// past `chunk_end`.
fn parse_records(
    dfa: &Dfa,
    input: &[u8],
    start: usize,
    chunk_end: usize,
    out: &mut Vec<RecordBuf>,
) {
    let mut state = dfa.start_state();
    let mut fields: Vec<Option<Vec<u8>>> = Vec::new();
    let mut cur: Option<Vec<u8>> = None;
    let mut rejected = false;
    let mut i = start;
    while i < input.len() {
        let step = dfa.step(state, input[i]);
        state = step.next;
        let e = step.emit;
        if e.is_reject() {
            rejected = true;
        }
        if e.is_record_delimiter() {
            fields.push(cur.take());
            out.push(RecordBuf {
                fields: std::mem::take(&mut fields),
                rejected,
            });
            rejected = false;
            if i + 1 >= chunk_end {
                return; // past the chunk: the record we just closed was ours
            }
        } else if e.is_field_delimiter() {
            fields.push(cur.take());
        } else if e.is_data() {
            cur.get_or_insert_with(Vec::new).push(input[i]);
        }
        i += 1;
    }
    // Trailing record at end of input (owned by the last chunk).
    if cur.is_some() || !fields.is_empty() {
        fields.push(cur.take());
        out.push(RecordBuf { fields, rejected });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_core::{parse_csv, ParserOptions};
    use parparaw_dfa::csv::{rfc4180, CsvDialect};

    fn dfa() -> Dfa {
        rfc4180(&CsvDialect::default())
    }

    fn simple_input(rows: usize) -> Vec<u8> {
        (0..rows)
            .map(|i| format!("{i},name{i},{}.5\n", i % 10))
            .collect::<String>()
            .into_bytes()
    }

    #[test]
    fn unsafe_mode_correct_on_simple_input() {
        let input = simple_input(100);
        let p = InstantLoadingParser::new(dfa(), Grid::new(3), 8, InstantLoadingMode::Unsafe, None);
        let out = p.parse(&input).unwrap();
        assert_eq!(out.suspect_records, 0);
        let reference = parse_csv(&input, ParserOptions::default()).unwrap();
        assert_eq!(out.table.num_rows(), reference.table.num_rows());
        assert_eq!(out.table, reference.table);
    }

    #[test]
    fn unsafe_mode_breaks_on_quoted_newlines() {
        // The failure the paper reports for Inst. Loading on yelp: quoted
        // record delimiters split records mid-field.
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(
                format!("{i},\"review text\nwith embedded newline, and comma\"\n").as_bytes(),
            );
        }
        let p = InstantLoadingParser::new(dfa(), Grid::new(3), 8, InstantLoadingMode::Unsafe, None);
        let out = p.parse(&input).unwrap();
        let reference = parse_csv(&input, ParserOptions::default()).unwrap();
        let wrong_count = out.table.num_rows() != reference.table.num_rows();
        assert!(
            wrong_count || out.suspect_records > 0,
            "unsafe mode should corrupt this input ({} rows vs {}, {} suspects)",
            out.table.num_rows(),
            reference.table.num_rows(),
            out.suspect_records
        );
    }

    #[test]
    fn safe_mode_correct_on_quoted_newlines() {
        let mut input = Vec::new();
        for i in 0..50 {
            input.extend_from_slice(
                format!("{i},\"review text\nwith embedded newline, and comma\"\n").as_bytes(),
            );
        }
        let p = InstantLoadingParser::new(dfa(), Grid::new(3), 8, InstantLoadingMode::Safe, None);
        let out = p.parse(&input).unwrap();
        assert_eq!(out.suspect_records, 0);
        let reference = parse_csv(&input, ParserOptions::default()).unwrap();
        assert_eq!(out.table, reference.table);
        assert!(out.profile.serial_ops > 0, "safe mode has serial work");
    }

    #[test]
    fn safe_mode_matches_reference_across_chunk_counts() {
        let input = simple_input(37);
        let reference = parse_csv(&input, ParserOptions::default()).unwrap();
        for chunks in [1usize, 2, 5, 16, 64] {
            let p = InstantLoadingParser::new(
                dfa(),
                Grid::new(2),
                chunks,
                InstantLoadingMode::Safe,
                None,
            );
            let out = p.parse(&input).unwrap();
            assert_eq!(out.table, reference.table, "chunks={chunks}");
        }
    }

    #[test]
    fn empty_input() {
        let p = InstantLoadingParser::new(dfa(), Grid::new(2), 4, InstantLoadingMode::Safe, None);
        let out = p.parse(b"").unwrap();
        assert_eq!(out.table.num_rows(), 0);
    }
}
