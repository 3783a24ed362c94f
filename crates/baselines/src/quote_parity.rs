//! The quote-parity exploit (paper §1/§2, Mison-style).
//!
//! "One such exploit for a simple CSV format, for instance, is to count
//! the number of double-quotes, inferring the beginning and end of
//! enclosed strings depending on whether the count is odd or even,
//! respectively. As soon as the format gets more complex, e.g., by
//! introducing line comments, such an approach tends to break."
//!
//! This parser determines each chunk's in-quote context from the *parity*
//! of double-quote counts — a one-bit prefix scan instead of ParPaRaw's
//! full state-vector scan. It is parallel and correct for plain RFC 4180
//! (escaped quotes `""` toggle twice and cancel), but it has no notion of
//! comments: a quote inside a `#` comment line flips the parity and
//! corrupts everything after it, which the tests demonstrate.

use parparaw_columnar::{Field, Schema, Table};
use parparaw_core::convert::convert_column_with_diags;
use parparaw_core::css::FieldIndex;
use parparaw_core::infer::infer_column_type;
use parparaw_core::ParseError;
use parparaw_device::WorkProfile;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan::{exclusive_scan, ScanOp};
use parparaw_parallel::{Bitmap, Grid};
use std::time::{Duration, Instant};

/// XOR over booleans: the parity "scan operator".
#[derive(Debug, Clone, Copy, Default)]
struct XorOp;

impl ScanOp for XorOp {
    type Item = bool;
    fn identity(&self) -> bool {
        false
    }
    fn combine(&self, a: &bool, b: &bool) -> bool {
        a ^ b
    }
}

/// Result of a quote-parity parse.
#[derive(Debug)]
pub struct QuoteParityOutput {
    /// The parsed table.
    pub table: Table,
    /// Wall-clock duration.
    pub wall: Duration,
    /// Work profile (fully parallel, two passes).
    pub profile: WorkProfile,
}

/// The format-specific parallel CSV parser using quote-count parity.
#[derive(Debug, Clone)]
pub struct QuoteParityParser {
    grid: Grid,
    chunk_size: usize,
    schema: Option<Schema>,
}

impl QuoteParityParser {
    /// Build with a worker grid and chunk size.
    pub fn new(grid: Grid, chunk_size: usize, schema: Option<Schema>) -> Self {
        QuoteParityParser {
            grid,
            chunk_size: chunk_size.max(1),
            schema,
        }
    }

    /// Parse comma-separated input with `"` enclosures and `\n` records.
    ///
    /// No DFA here — this is the tailored exploit: phase 1 counts quotes
    /// per chunk; an exclusive XOR-scan gives each chunk its in-quote
    /// context; phase 2 splits fields/records outside quotes.
    pub fn parse(&self, input: &[u8]) -> Result<QuoteParityOutput, ParseError> {
        let t0 = Instant::now();
        let n = input.len();
        let n_chunks = n.div_ceil(self.chunk_size).max(if n == 0 { 0 } else { 1 });
        let ranges: Vec<std::ops::Range<usize>> = (0..n_chunks)
            .map(|c| c * self.chunk_size..((c + 1) * self.chunk_size).min(n))
            .collect();

        // Phase 1: per-chunk quote parity, then the one-bit scan.
        let parities: Vec<bool> = self.grid.map_indexed(n_chunks, |c| {
            input[ranges[c].clone()]
                .iter()
                .filter(|&&b| b == b'"')
                .count()
                % 2
                == 1
        });
        let in_quote_at_start = exclusive_scan(&self.grid, &parities, &XorOp);

        // Phase 2: per-chunk delimiter positions given the context.
        // (For simplicity the record assembly is done by walking the
        // delimiter classification sequentially; the classification —
        // the context-sensitive part — is what phase 1 parallelised.)
        let mut is_record_delim = vec![false; n];
        let mut is_field_delim = vec![false; n];
        let mut is_quote = vec![false; n];
        {
            let rw = SlotWriter::new(&mut is_record_delim);
            let fw = SlotWriter::new(&mut is_field_delim);
            let qw = SlotWriter::new(&mut is_quote);
            self.grid.run_partitioned(n_chunks, |_, range| {
                for c in range {
                    let mut in_quote = in_quote_at_start[c];
                    for i in ranges[c].clone() {
                        match input[i] {
                            b'"' => {
                                in_quote = !in_quote;
                                unsafe { qw.write(i, true) };
                            }
                            b'\n' if !in_quote => unsafe { rw.write(i, true) },
                            b',' if !in_quote => unsafe { fw.write(i, true) },
                            _ => {}
                        }
                    }
                }
            });
        }

        // Assemble records (escaped "" inside quotes resolve to one quote).
        let mut records: Vec<Vec<Option<Vec<u8>>>> = Vec::new();
        let mut fields: Vec<Option<Vec<u8>>> = Vec::new();
        let mut cur: Option<Vec<u8>> = None;
        let mut i = 0usize;
        let mut in_quote = false;
        while i < n {
            if is_record_delim[i] {
                fields.push(cur.take());
                records.push(std::mem::take(&mut fields));
            } else if is_field_delim[i] {
                fields.push(cur.take());
            } else if is_quote[i] {
                if in_quote && i + 1 < n && input[i + 1] == b'"' {
                    cur.get_or_insert_with(Vec::new).push(b'"');
                    i += 1; // skip the second quote of the escape
                } else {
                    in_quote = !in_quote;
                    cur.get_or_insert_with(Vec::new); // "" is an empty string
                }
            } else if input[i] != b'\r' || in_quote {
                cur.get_or_insert_with(Vec::new).push(input[i]);
            }
            i += 1;
        }
        if cur.is_some() || !fields.is_empty() {
            fields.push(cur.take());
            records.push(fields);
        }

        // Columnar conversion via the shared kernels.
        let num_raw_cols = match &self.schema {
            Some(s) => s.num_columns(),
            None => records.iter().map(|r| r.len()).max().unwrap_or(1),
        };
        let num_rows = records.len();
        let rejected = Bitmap::new(num_rows);
        let mut columns = Vec::with_capacity(num_raw_cols);
        let mut fields_meta = Vec::with_capacity(num_raw_cols);
        for raw_c in 0..num_raw_cols {
            let mut css = Vec::new();
            let mut index = FieldIndex::default();
            for (row, r) in records.iter().enumerate() {
                if let Some(Some(bytes)) = r.get(raw_c) {
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
                    infer_column_type(&self.grid, &css, &index),
                ),
            };
            let out = convert_column_with_diags(
                &self.grid,
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

        let mut profile = WorkProfile::new("quote-parity");
        profile.kernel_launches = 3;
        profile.bytes_read = n as u64 * 2;
        profile.bytes_written = n as u64 / 2 + table.buffer_bytes() as u64;
        profile.parallel_ops = n as u64 * 2;

        Ok(QuoteParityOutput {
            table,
            wall: t0.elapsed(),
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_columnar::Value;
    use parparaw_core::{parse_csv, Parser, ParserOptions};
    use parparaw_dfa::csv::{rfc4180, CsvDialect};

    fn parity(input: &[u8]) -> QuoteParityOutput {
        QuoteParityParser::new(Grid::new(3), 7, None)
            .parse(input)
            .unwrap()
    }

    #[test]
    fn correct_on_plain_rfc4180() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let out = parity(input);
        let reference = parse_csv(input, ParserOptions::default()).unwrap();
        assert_eq!(out.table.num_rows(), reference.table.num_rows());
        assert_eq!(
            out.table.value(1, 2),
            Value::Utf8("Frame\n\"Ribba\", black".into())
        );
    }

    #[test]
    fn breaks_on_line_comments() {
        // A comment line containing an odd number of quotes flips the
        // parity: everything after is misinterpreted. A comments-aware
        // DFA (ParPaRaw) handles it fine.
        let input = b"# it's a \" comment\n1,a\n2,b\n";
        let out = parity(input);
        let dfa = rfc4180(&CsvDialect {
            comment: Some(b'#'),
            ..CsvDialect::default()
        });
        let reference = Parser::new(dfa, ParserOptions::default())
            .parse(input)
            .unwrap();
        assert_eq!(reference.table.num_rows(), 2);
        assert_ne!(
            out.table.num_rows(),
            reference.table.num_rows(),
            "the exploit must miscount records once comments appear"
        );
    }

    #[test]
    fn chunk_size_invariant_on_plain_csv() {
        let input = b"a,\"b\nx\",c\n1,\"2,2\",3\n";
        let reference = parity(input);
        for cs in [1usize, 2, 3, 13, 100] {
            let out = QuoteParityParser::new(Grid::new(2), cs, None)
                .parse(input)
                .unwrap();
            assert_eq!(out.table, reference.table, "chunk size {cs}");
        }
    }

    #[test]
    fn empty_input() {
        let out = parity(b"");
        assert_eq!(out.table.num_rows(), 0);
    }
}
