//! A classic sequential DFA parser.
//!
//! One thread, one DFA instance, one pass — the shape every CPU loader in
//! the paper's Fig. 13 ultimately has at its core, and the ground truth
//! for ParPaRaw's equivalence tests. It shares the field-conversion code
//! with ParPaRaw (via `parparaw_core::convert`) so that output semantics
//! — empty fields as NULL/default, rejects as NULL, inferred types — are
//! identical by construction, and differences in benchmark numbers can
//! only come from the parallelisation strategy.

use parparaw_columnar::{DataType, Field, Schema, Table};
use parparaw_core::convert::convert_column_with_diags;
use parparaw_core::css::FieldIndex;
use parparaw_core::infer::infer_column_type;
use parparaw_core::options::ParserOptions;
use parparaw_core::ParseError;
use parparaw_device::WorkProfile;
use parparaw_dfa::Dfa;
use parparaw_parallel::{Bitmap, Grid};
use std::time::{Duration, Instant};

/// The sequential parser's result.
#[derive(Debug)]
pub struct SequentialOutput {
    /// The parsed table.
    pub table: Table,
    /// Per-row rejection flags.
    pub rejected: Bitmap,
    /// Wall-clock time of the whole parse.
    pub wall: Duration,
    /// Work profile: everything is serial by definition.
    pub profile: WorkProfile,
}

/// A single-threaded reference parser driven by the same DFA.
#[derive(Debug, Clone)]
pub struct SequentialParser {
    dfa: Dfa,
    options: ParserOptions,
}

/// One in-flight record during the row-wise pass.
#[derive(Default)]
struct RecordBuf {
    /// Per-column field bytes; `None` = no data symbols seen.
    fields: Vec<Option<Vec<u8>>>,
    rejected: bool,
}

impl SequentialParser {
    /// Build from a format automaton and (a subset of) parser options:
    /// `schema`, `infer_types`, `selected_columns`, `skip_records`, and
    /// `validate_column_count` are honoured; chunking and grid options are
    /// meaningless for a sequential pass and ignored.
    pub fn new(dfa: Dfa, options: ParserOptions) -> Self {
        SequentialParser { dfa, options }
    }

    /// Parse the input in one sequential pass.
    pub fn parse(&self, input: &[u8]) -> Result<SequentialOutput, ParseError> {
        let t0 = Instant::now();
        let dfa = &self.dfa;
        let o = &self.options;

        // Row-wise pass: gather field bytes per record.
        let mut records: Vec<RecordBuf> = Vec::new();
        let mut cur = RecordBuf::default();
        let mut cur_field: Option<Vec<u8>> = None;
        let mut saw_anything = false;
        let mut state = dfa.start_state();
        for &b in input {
            let step = dfa.step(state, b);
            state = step.next;
            let e = step.emit;
            if e.is_reject() {
                cur.rejected = true;
            }
            if e.is_record_delimiter() {
                cur.fields.push(cur_field.take());
                records.push(std::mem::take(&mut cur));
                saw_anything = false;
            } else if e.is_field_delimiter() {
                cur.fields.push(cur_field.take());
                saw_anything = true;
            } else if e.is_data() {
                cur_field.get_or_insert_with(Vec::new).push(b);
                saw_anything = true;
            }
        }
        // Trailing record: only if it has any data or field delimiter.
        if cur_field.is_some() || saw_anything && !cur.fields.is_empty() || !cur.fields.is_empty() {
            cur.fields.push(cur_field.take());
            records.push(cur);
        }

        // Column universe.
        let num_raw_cols = match &o.schema {
            Some(s) => s.num_columns(),
            None => records.iter().map(|r| r.fields.len()).max().unwrap_or(1),
        };

        // Selection (original column order, like the pipeline).
        let selection: Vec<usize> = match &o.selected_columns {
            Some(sel) => {
                let mut s = sel.clone();
                s.sort_unstable();
                s.dedup();
                for &i in &s {
                    if i >= num_raw_cols {
                        return Err(ParseError::ColumnOutOfRange {
                            index: i,
                            num_columns: num_raw_cols,
                        });
                    }
                }
                s
            }
            None => (0..num_raw_cols).collect(),
        };

        // Record skipping and validation.
        let kept: Vec<&RecordBuf> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| !o.skip_records.contains(&(*i as u64)))
            .map(|(_, r)| r)
            .collect();
        let num_rows = kept.len();
        let mut rejected = Bitmap::new(num_rows);
        for (row, r) in kept.iter().enumerate() {
            if r.rejected || (o.validate_column_count && r.fields.len() != num_raw_cols) {
                rejected.set(row);
            }
        }

        // Column-wise conversion through the shared conversion kernels
        // (sequential grid).
        let grid = Grid::new(1);
        let mut columns = Vec::with_capacity(selection.len());
        let mut fields_meta = Vec::with_capacity(selection.len());
        for &raw_c in &selection {
            // Build this column's CSS + index from the row buffers.
            let mut css = Vec::new();
            let mut index = FieldIndex::default();
            for (row, r) in kept.iter().enumerate() {
                if let Some(Some(bytes)) = r.fields.get(raw_c) {
                    index.rows.push(row as u32);
                    index.starts.push(css.len() as u64);
                    css.extend_from_slice(bytes);
                    index.ends.push(css.len() as u64);
                }
            }
            let field = match &o.schema {
                Some(s) => s.fields[raw_c].clone(),
                None => {
                    let dtype = if o.infer_types {
                        infer_column_type(&grid, &css, &index)
                    } else {
                        DataType::Utf8
                    };
                    Field::new(&format!("c{raw_c}"), dtype)
                }
            };
            let out = convert_column_with_diags(
                &grid,
                &css,
                &index,
                num_rows,
                field.data_type,
                field.default.as_ref(),
                &rejected,
                usize::MAX, // a sequential parser has no collaboration levels
                None,
            );
            columns.push(out.column);
            fields_meta.push(field);
        }

        let table = Table::new(Schema::new(fields_meta), columns)
            .expect("columns are sized to the record count");

        let mut profile = WorkProfile::new("sequential");
        profile.bytes_read = input.len() as u64 * 4;
        profile.bytes_written = input.len() as u64 * 3 + table.buffer_bytes() as u64;
        // A row-wise loader touches every byte several times: DFA step,
        // field-buffer append, CSS gather, and conversion — about eight
        // machine operations per input byte for a lean implementation
        // (full DBMS loaders do far more; see EXPERIMENTS.md).
        profile.serial_ops = input.len() as u64 * 8;

        Ok(SequentialOutput {
            table,
            rejected,
            wall: t0.elapsed(),
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_columnar::Value;
    use parparaw_core::parse_csv;
    use parparaw_dfa::csv::{rfc4180, CsvDialect};

    fn seq(input: &[u8]) -> SequentialOutput {
        SequentialParser::new(rfc4180(&CsvDialect::default()), ParserOptions::default())
            .parse(input)
            .unwrap()
    }

    #[test]
    fn parses_simple_csv() {
        let out = seq(b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\"\n");
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.value(0, 0), Value::Int64(1941));
        assert_eq!(out.table.value(1, 2), Value::Utf8("Frame".into()));
    }

    #[test]
    fn matches_parparaw_on_tricky_inputs() {
        let inputs: &[&[u8]] = &[
            b"a,b\nc,d\n",
            b"a,\"b\nb,b\",c\nd,e,f\n",
            b"1,Apples\n2\n",
            b"\"q\"\"q\",2\n,\n",
            b"trailing,record",
            b"",
            b"\n\n",
            b"1,2,3\n4,5\n6\n",
            b"a\r\nb\r\n",
        ];
        for input in inputs {
            let s = seq(input);
            let p = parse_csv(input, ParserOptions::default()).unwrap();
            assert_eq!(
                s.table,
                p.table,
                "input {:?}",
                String::from_utf8_lossy(input)
            );
            assert_eq!(s.rejected, p.rejected);
        }
    }

    #[test]
    fn honours_skip_and_selection() {
        let o = ParserOptions {
            skip_records: [1u64].into_iter().collect(),
            selected_columns: Some(vec![0, 2]),
            ..ParserOptions::default()
        };
        let s = SequentialParser::new(rfc4180(&CsvDialect::default()), o.clone())
            .parse(b"a,b,c\nd,e,f\ng,h,i\n")
            .unwrap();
        let p = parse_csv(b"a,b,c\nd,e,f\ng,h,i\n", o).unwrap();
        assert_eq!(s.table, p.table);
        assert_eq!(s.table.num_rows(), 2);
        assert_eq!(s.table.num_columns(), 2);
    }

    #[test]
    fn validation_matches() {
        let o = ParserOptions {
            schema: Some(Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64),
            ])),
            validate_column_count: true,
            ..ParserOptions::default()
        };
        let input: &[u8] = b"1,2\n3\n4,5,6\n7,8";
        let s = SequentialParser::new(rfc4180(&CsvDialect::default()), o.clone())
            .parse(input)
            .unwrap();
        let p = parse_csv(input, o).unwrap();
        assert_eq!(s.rejected, p.rejected);
        assert_eq!(s.table, p.table);
    }

    #[test]
    fn profile_is_serial() {
        let out = seq(b"a,b\n");
        assert!(out.profile.serial_ops > 0);
        assert_eq!(out.profile.parallel_ops, 0);
    }
}
