//! The end-to-end ParPaRaw pipeline (paper §3).
//!
//! [`Parser::parse`] runs the five phases over an in-memory input:
//!
//! 1. **parse** — pass 1 (multi-DFA state-transition vectors, walked only
//!    up to the last pass-2 range) and pass 2 (bitmaps + record and column
//!    totals per worker range of chunks, from the recovered contexts);
//! 2. **scan** — the composite-operator scan, which gives each pass-2
//!    range its start state, and the record/column offset scans, which
//!    give it its starting record and column;
//! 3. **tag** — compaction of relevant symbols into field runs carrying
//!    their column and record, walking pass 2's ranges (mode-dependent,
//!    §4.1);
//! 4. **partition** — field-run scatter (or the paper's stable radix
//!    sort) into per-column CSSs;
//! 5. **convert** — CSS indexing, optional type inference, and typed
//!    columnar materialisation.
//!
//! Every phase runs as an instrumented [`KernelExecutor`] launch; the
//! per-phase wall-clock timings (the categories of paper Fig. 9) and the
//! per-kernel work profiles are derived from the executor's launch log.
//! The simulated-device replay runs on request ([`Parser::model`]).
//!
//! [`KernelExecutor`]: parparaw_parallel::KernelExecutor

use crate::context::range_start_states;
use crate::convert::convert_column_with_diags;
use crate::css::{index_from_runs, FieldIndex};
use crate::diag::{DiagSink, RecordDiagnostic, RejectReason};
use crate::error::ParseError;
use crate::infer::infer_column_type;
use crate::meta::identify_ranges;
use crate::options::{ErrorPolicy, ParserOptions, TaggingMode};
use crate::partition::partition_by_column_with;
use crate::streaming::Checkpoint;
use crate::tagging::{tag_symbols, TagConfig};
use crate::timings::{ParseOutput, ParseStats, PhaseTimings};
use parparaw_columnar::{DataType, Field, Schema, Table};
use parparaw_device::WorkProfile;
use parparaw_dfa::csv::{rfc4180, CsvDialect};
use parparaw_dfa::{Dfa, PairTable};
use parparaw_parallel::{grid, Bitmap, KernelExecutor};

/// A configured ParPaRaw parser: a DFA (the format) plus options.
#[derive(Debug, Clone)]
pub struct Parser {
    dfa: Dfa,
    options: ParserOptions,
    /// Precomposed byte-pair table for pass 1, built once here when
    /// [`ParserOptions::pass1_pair_table`] is set.
    pair: Option<PairTable>,
}

impl Parser {
    /// Build a parser from a format automaton and options.
    pub fn new(dfa: Dfa, options: ParserOptions) -> Self {
        let pair = options.pass1_pair_table.then(|| PairTable::build(&dfa));
        Parser { dfa, options, pair }
    }

    /// The format automaton.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The options.
    pub fn options(&self) -> &ParserOptions {
        &self.options
    }

    /// Parse `input` into a columnar table.
    pub fn parse(&self, input: &[u8]) -> Result<ParseOutput, ParseError> {
        let exec = self.options.build_executor();
        Ok(self
            .parse_with(&exec, input, false, None, false, &|_| {})?
            .out)
    }

    /// Run the full pipeline on an explicit executor. The streaming path
    /// reuses one executor (and its buffer arena) across partitions; the
    /// launch log is drained per call, so every run reports its own
    /// timings and profiles.
    ///
    /// With `drop_trailing`, the record not closed by a record delimiter
    /// is left for the next partition. `stream` is where the stream stood
    /// before `input` (its header already split off): `skip_records` and
    /// diagnostics then count from the stream start. With `model`, the
    /// run takes the paper's per-chunk grid: one pass-1 and pass-2 range
    /// per chunk (see [`crate::model`]).
    ///
    /// `on_advance` hears how far the run takes a stream as soon as that
    /// is known: after pass 2 and the skip list, before tagging. A stream
    /// starts the next window from it while this one is still converting.
    pub(crate) fn parse_with(
        &self,
        exec: &KernelExecutor,
        input: &[u8],
        drop_trailing: bool,
        stream: Option<&Checkpoint>,
        model: bool,
        on_advance: &dyn Fn(Advance),
    ) -> Result<Parsed, ParseError> {
        let o = &self.options;
        let cs = o.chunk_size;
        // Leftover records from an aborted earlier run must not leak into
        // this run's timings, and arena hit/miss stats report per run.
        let _ = exec.drain_log();
        exec.arena().reset_stats();

        // Phase 0 (optional): prune skipped rows before anything else
        // (paper §4.3 — removing rows changes the parsing context of
        // everything after them, so it cannot wait).
        let pruned;
        let input: &[u8] = if o.skip_rows.is_empty() {
            input
        } else {
            let mut skip = o.skip_rows.clone();
            skip.sort_unstable();
            skip.dedup();
            pruned = crate::rows::prune_rows(exec, input, cs, &skip)?;
            &pruned.bytes
        };

        // Header: split the first record off as column names before the
        // parallel machinery sees the data. A stream splits it once, up
        // front.
        let split = (o.header && !input.is_empty())
            .then(|| split_header(&self.dfa, input, true).expect("a final input ends its header"));
        let (header_names, header_len) = match &split {
            Some((names, at)) => (Some(names.as_slice()), *at),
            None => (stream.and_then(|c| c.header_names.as_deref()), 0),
        };
        let input = &input[header_len..];
        let column_name = |raw: usize| {
            header_names
                .and_then(|n| n.get(raw))
                .cloned()
                .unwrap_or_else(|| format!("c{raw}"))
        };

        // Phases 1+2: the start state of each pass-2 range, then the
        // bitmaps and metadata (which end in the input's final state).
        // The model runs the paper's grid, one range per chunk, so pass 1
        // charges the per-chunk lane count and every later launch the
        // per-chunk runs.
        let n_chunks = crate::chunks::num_chunks(input.len(), cs);
        let ranges = if model {
            grid::partition(n_chunks, n_chunks)
        } else {
            exec.grid().partition(n_chunks)
        };
        let starts = range_start_states(
            exec,
            &self.dfa,
            input,
            cs,
            &ranges,
            o.scan_algorithm,
            self.pair.as_ref(),
        )?;
        let meta = identify_ranges(exec, &self.dfa, input, cs, &ranges, &starts)?;
        let input_valid = self.dfa.is_accepting(meta.final_state);

        // Column universe: schema count or inferred maximum. Streaming
        // partitions exclude the (deferred) trailing record.
        let observed = if drop_trailing {
            meta.observed_columns_closed
        } else {
            meta.observed_columns
        };
        let (observed_min, observed_max) = observed.unwrap_or((0, 0));
        let num_raw_cols = match &o.schema {
            Some(s) => s.num_columns(),
            None => observed_max.max(1) as usize,
        };

        // Selection: raw column → output column.
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
        let mut col_map: Vec<Option<u32>> = vec![None; num_raw_cols];
        for (out, &raw) in selection.iter().enumerate() {
            col_map[raw] = Some(out as u32);
        }
        let num_out_cols = selection.len();

        // Tagging-mode preconditions (§4.1: inline/vector require a
        // constant column count).
        if !matches!(o.tagging, TaggingMode::RecordTagged)
            && observed.is_some()
            && (observed_min as usize) < num_raw_cols
        {
            return Err(ParseError::InconsistentColumns {
                min: observed_min,
                max: observed_max,
            });
        }

        // Record skipping, in this input's record coordinates.
        let mut skip: Vec<u64> = o
            .skip_records
            .iter()
            .filter_map(|&r| r.checked_sub(stream.map_or(0, |c| c.records_consumed)))
            .filter(|&r| r < meta.num_records)
            .collect();
        let mut carry_len = 0usize;
        let mut records = meta.num_records;
        if drop_trailing {
            // Everything after the last record delimiter is deferred to
            // the next partition — even when it is control-only (an open
            // enclosure or a half comment still changes how the next
            // partition must parse).
            carry_len = input.len() - meta.records.last_set_bit().map(|i| i + 1).unwrap_or(0);
            if meta.has_trailing_record {
                let trailing = meta.num_records - 1;
                records = trailing;
                if !skip.contains(&trailing) {
                    skip.push(trailing);
                }
            }
        }
        skip.sort_unstable();
        let num_out_rows = meta.num_records - skip.len() as u64;
        let advance = Advance {
            carry_len,
            records,
            rows: num_out_rows,
        };
        on_advance(advance);

        // Phase 3: tagging. Every reject the kernel marks also lands in
        // the bounded diagnostic sink, placed after the header and any
        // earlier partitions.
        let (rows_before, bytes_before) =
            stream.map_or((0, 0), |c| (c.rows_emitted, c.resume_offset));
        let sink = DiagSink::new(o.error_policy.diagnostic_cap())
            .after(rows_before, bytes_before + header_len as u64);
        let cfg = TagConfig {
            mode: o.tagging,
            col_map: &col_map,
            skip_records: &skip,
            expected_columns: o.validate_column_count.then_some(num_raw_cols as u32),
            num_out_rows,
            diags: Some(&sink),
        };
        let tagged = tag_symbols(exec, input, cs, &meta, &cfg)?;
        if tagged.terminator_clash {
            if let TaggingMode::InlineTerminated { terminator } = o.tagging {
                return Err(ParseError::TerminatorInData { terminator });
            }
        }
        let mut rejected = tagged.rejected.clone();

        // Trailing-record column validation happens here: the tagging
        // kernel only sees closed records.
        if o.validate_column_count
            && !drop_trailing
            && meta.has_trailing_record
            && meta.trailing_columns != num_raw_cols as u32
        {
            if let Err(rank) = skip.binary_search(&(meta.num_records - 1)) {
                let out_row = meta.num_records - 1 - rank as u64;
                rejected.set(out_row as usize);
                sink.push(RecordDiagnostic {
                    record: out_row,
                    column: None,
                    byte_offset: None,
                    reason: RejectReason::ColumnCountMismatch {
                        expected: num_raw_cols as u32,
                        got: meta.trailing_columns,
                    },
                });
            }
        }

        // Error-policy enforcement on record-level rejects: Strict aborts
        // on the first malformed record; a max_rejects budget fails the
        // parse once exceeded.
        let record_rejects = rejected.count_ones();
        if matches!(o.error_policy, ErrorPolicy::Strict) && record_rejects > 0 {
            return Err(ParseError::MalformedRecord(first_diagnostic(
                sink,
                &rejected,
                num_out_rows,
            )));
        }
        if let Some(max) = o.max_rejects {
            if record_rejects > max {
                return Err(ParseError::TooManyRejects {
                    rejects: record_rejects,
                    max_rejects: max,
                });
            }
        }

        // Phase 4: partitioning.
        let tagged_for_partition = crate::tagging::Tagged {
            rejected: parparaw_parallel::Bitmap::new(0), // moved out above
            ..tagged
        };
        let part =
            partition_by_column_with(exec, tagged_for_partition, num_out_cols, o.partition_kernel)?;

        // Phase 5: indexing, inference, conversion — per-column launches
        // (the overhead the paper blames for small inputs, §5.1).
        let threshold = o.effective_collaboration_threshold();
        let num_rows = num_out_rows as usize;
        let mut columns = Vec::with_capacity(num_out_cols);
        let mut fields_meta = Vec::with_capacity(num_out_cols);
        let mut conversion_rejects = 0u64;
        let mut collaborative_fields = 0u64;
        let mut block_level_fields = 0u64;
        let mut total_fields = 0u64;

        for (out_c, &raw_c) in selection.iter().enumerate() {
            let css = part.css(out_c);
            let runs = part
                .col_runs(out_c)
                .expect("both partition kernels emit runs");
            // The partition kernels hand us the column's field runs, so the
            // index falls out of a merge over run metadata — no per-byte
            // scan over the CSS at all.
            let index: FieldIndex = exec.launch("convert/index", css.len(), |_, counters| {
                let index = index_from_runs(runs);
                counters.kernel_launches = 1;
                counters.bytes_read = runs.len() as u64 * crate::tagging::RUN_BYTES;
                counters.parallel_ops = runs.len() as u64;
                counters.bytes_written = index.num_fields() as u64 * 20;
                index
            })?;
            total_fields += index.num_fields() as u64;

            let field = match &o.schema {
                Some(s) => s.fields[raw_c].clone(),
                None => {
                    let dtype = if o.infer_types {
                        exec.launch("convert/infer", css.len(), |grid, counters| {
                            counters.kernel_launches = 2;
                            counters.bytes_read = css.len() as u64;
                            counters.parallel_ops = css.len() as u64;
                            infer_column_type(grid, css, &index)
                        })?
                    } else {
                        DataType::Utf8
                    };
                    Field::new(&column_name(raw_c), dtype)
                }
            };

            let out = exec.launch("convert/column", css.len(), |grid, counters| {
                let out = convert_column_with_diags(
                    grid,
                    css,
                    &index,
                    num_rows,
                    field.data_type,
                    field.default.as_ref(),
                    &rejected,
                    threshold,
                    Some((&sink, out_c as u32)),
                );
                counters.kernel_launches = out.profile.kernel_launches;
                counters.bytes_read = out.profile.bytes_read;
                counters.bytes_written = out.profile.bytes_written;
                counters.parallel_ops = out.profile.parallel_ops;
                counters.serial_ops = out.profile.serial_ops;
                out
            })?;
            if matches!(o.error_policy, ErrorPolicy::Strict) && out.reject_count > 0 {
                return Err(ParseError::MalformedRecord(first_diagnostic(
                    sink,
                    &rejected,
                    num_out_rows,
                )));
            }
            conversion_rejects += out.reject_count;
            collaborative_fields += out.collaborative_fields;
            block_level_fields += out.block_level_fields;
            columns.push(out.column);
            fields_meta.push(field);
        }

        // Conversion has copied everything it needs out of the CSSs, so
        // the partition outputs return to the arena for the next run.
        let arena = exec.arena();
        arena.put_u8("partition/symbols", part.symbols);
        arena.put_u32("partition/rec-tags", part.rec_tags);
        if let Some(runs) = part.runs {
            arena.put_vec("partition/runs", runs.runs);
        }

        // The budget also covers field-level conversion failures.
        if let Some(max) = o.max_rejects {
            let total = record_rejects + conversion_rejects;
            if total > max {
                return Err(ParseError::TooManyRejects {
                    rejects: total,
                    max_rejects: max,
                });
            }
        }

        // The raw-width schema a stream freezes: the inferred fields of
        // the selected columns, never-converted placeholders elsewhere.
        let schema = o.schema.is_none().then(|| {
            Schema::new(
                (0..num_raw_cols)
                    .map(|raw| match col_map[raw] {
                        Some(out) => fields_meta[out as usize].clone(),
                        None => Field::new(&column_name(raw), DataType::Utf8),
                    })
                    .collect(),
            )
        });

        // Invariant: every column above was materialised with exactly
        // `num_rows` rows, so the table constructor cannot fail.
        let table = Table::new(Schema::new(fields_meta), columns)
            .expect("pipeline produces equal-length columns");

        let dropped_diagnostics = sink.dropped();
        let diagnostics = sink.into_sorted();

        let stats = ParseStats {
            input_bytes: input.len() as u64,
            num_chunks: crate::chunks::num_chunks(input.len(), cs) as u64,
            num_records: num_out_rows,
            num_columns: num_out_cols as u64,
            rejected_records: rejected.count_ones(),
            conversion_rejects,
            collaborative_fields,
            block_level_fields,
            observed_columns: meta.observed_columns,
            output_bytes: table.buffer_bytes() as u64,
            input_valid,
            total_fields,
            dropped_diagnostics,
        };

        // Everything the caller learns about time and work comes from the
        // executor's launch log: wall-clock phase buckets and per-kernel
        // profiles.
        let log = exec.drain_log();
        let timings = PhaseTimings::from_log(&log);
        let profiles: Vec<WorkProfile> = log.iter().map(WorkProfile::from_launch).collect();

        Ok(Parsed {
            out: ParseOutput {
                table,
                rejected,
                diagnostics,
                stats,
                timings,
                profiles,
            },
            advance,
            schema,
        })
    }
}

/// How far one pipeline run takes a stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Advance {
    /// Bytes after the last record delimiter, deferred to the next
    /// partition (0 unless `drop_trailing`).
    pub(crate) carry_len: usize,
    /// Records consumed, skipped ones included; a deferred trailing
    /// record is not.
    pub(crate) records: u64,
    /// Rows the run emits.
    pub(crate) rows: u64,
}

/// One pipeline run plus what a stream needs to continue after it.
pub(crate) struct Parsed {
    pub(crate) out: ParseOutput,
    /// How far the run takes a stream.
    pub(crate) advance: Advance,
    /// Without a configured schema, the raw-width schema this run inferred
    /// (see [`crate::streaming`] on freezing it).
    pub(crate) schema: Option<Schema>,
}

/// The diagnostic a `Strict` parse reports: the first (lowest record)
/// entry in the sink, or a synthesised one from the reject bitmap when
/// every diagnostic was dropped at the cap.
fn first_diagnostic(sink: DiagSink, rejected: &Bitmap, num_rows: u64) -> RecordDiagnostic {
    let rows_before = sink.rows_before;
    sink.into_sorted().into_iter().next().unwrap_or_else(|| {
        let record = (0..num_rows)
            .find(|&r| rejected.get(r as usize))
            .unwrap_or(0);
        RecordDiagnostic {
            record: rows_before + record,
            column: None,
            byte_offset: None,
            reason: RejectReason::InvalidSyntax,
        }
    })
}

/// Split the first record off as a header: its column names (unnamed
/// fields become `c{i}`) and the byte offset where the data starts. The
/// walk uses the pipeline's DFA emissions from the start state, so quoted
/// names with embedded delimiters and newlines work. `None` when no record
/// delimiter has arrived yet and more input may follow (`!is_last`).
pub(crate) fn split_header(dfa: &Dfa, input: &[u8], is_last: bool) -> Option<(Vec<String>, usize)> {
    let mut names: Vec<String> = Vec::new();
    let mut cur: Vec<u8> = Vec::new();
    let mut state = dfa.start_state();
    let mut finish = |cur: &mut Vec<u8>| {
        let idx = names.len();
        names.push(if cur.is_empty() {
            format!("c{idx}")
        } else {
            String::from_utf8_lossy(cur).into_owned()
        });
        cur.clear();
    };
    for (i, &b) in input.iter().enumerate() {
        let step = dfa.step(state, b);
        state = step.next;
        if step.emit.is_record_delimiter() {
            finish(&mut cur);
            return Some((names, i + 1));
        } else if step.emit.is_field_delimiter() {
            finish(&mut cur);
        } else if step.emit.is_data() {
            cur.push(b);
        }
    }
    if !is_last {
        return None;
    }
    finish(&mut cur);
    Some((names, input.len()))
}

/// Parse RFC 4180 CSV with the default dialect.
pub fn parse_csv(input: &[u8], options: ParserOptions) -> Result<ParseOutput, ParseError> {
    Parser::new(rfc4180(&CsvDialect::default()), options).parse(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PartitionKernel;
    use parparaw_columnar::Value;
    use parparaw_parallel::Grid;

    fn opts() -> ParserOptions {
        ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        }
    }

    #[test]
    fn parses_the_figure4_example() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let out = parse_csv(input, opts()).unwrap();
        let t = &out.table;
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 3);
        // Types inferred: int, float, text.
        assert_eq!(t.schema().fields[0].data_type, DataType::Int16);
        assert_eq!(t.schema().fields[1].data_type, DataType::Float64);
        assert_eq!(t.schema().fields[2].data_type, DataType::Utf8);
        assert_eq!(t.value(0, 0), Value::Int64(1941));
        assert_eq!(t.value(1, 1), Value::Float64(19.99));
        assert_eq!(t.value(0, 2), Value::Utf8("Bookcase".into()));
        assert_eq!(t.value(1, 2), Value::Utf8("Frame\n\"Ribba\", black".into()));
        assert_eq!(out.stats.rejected_records, 0);
    }

    #[test]
    fn all_tagging_modes_agree() {
        let input = b"1,aa,x\n2,bb,y\n3,cc,z\n";
        let reference = parse_csv(input, opts()).unwrap();
        for mode in [TaggingMode::inline_default(), TaggingMode::VectorDelimited] {
            let out = parse_csv(
                input,
                ParserOptions {
                    tagging: mode,
                    ..opts()
                },
            )
            .unwrap();
            assert_eq!(out.table, reference.table, "{:?}", mode);
        }
    }

    #[test]
    fn partition_kernels_agree_end_to_end() {
        let input = b"a,\"b\nb\",3.5\n,x,\n\"q\"\"q\",y,9\ntail,t,1";
        let reference = parse_csv(input, opts()).unwrap();
        let radix = parse_csv(input, opts().partition_kernel(PartitionKernel::RadixSort)).unwrap();
        assert_eq!(radix.table, reference.table);
        assert_eq!(radix.rejected, reference.rejected);
    }

    #[test]
    fn chunk_size_invariance() {
        let input = b"a,\"b\nb\",3.5\n,x,\n\"q\"\"q\",y,9\ntail,t,1";
        let reference = parse_csv(input, opts().chunk_size(31)).unwrap();
        for cs in [1usize, 2, 3, 7, 16, 64, 1000] {
            let out = parse_csv(input, opts().chunk_size(cs)).unwrap();
            assert_eq!(out.table, reference.table, "chunk size {cs}");
        }
    }

    #[test]
    fn schema_with_defaults_and_validation() {
        use parparaw_columnar::Field;
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("qty", DataType::Int64).with_default(Value::Int64(1)),
        ]);
        let input = b"10,\n20,5\n";
        let out = parse_csv(
            input,
            ParserOptions {
                schema: Some(schema),
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(out.table.value(0, 1), Value::Int64(1)); // default
        assert_eq!(out.table.value(1, 1), Value::Int64(5));
    }

    #[test]
    fn column_selection() {
        let input = b"a,b,c\nd,e,f\n";
        let out = parse_csv(
            input,
            ParserOptions {
                selected_columns: Some(vec![2, 0]),
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(out.table.num_columns(), 2);
        // Selection preserves schema order, not request order.
        assert_eq!(out.table.value(0, 0), Value::Utf8("a".into()));
        assert_eq!(out.table.value(0, 1), Value::Utf8("c".into()));
        // Out of range errors.
        let err = parse_csv(
            input,
            ParserOptions {
                selected_columns: Some(vec![9]),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::ColumnOutOfRange { .. }));
    }

    #[test]
    fn skip_records() {
        let input = b"1,a\n2,b\n3,c\n4,d\n";
        let out = parse_csv(
            input,
            ParserOptions {
                skip_records: [1u64, 3].into_iter().collect(),
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.value(0, 0), Value::Int64(1));
        assert_eq!(out.table.value(1, 0), Value::Int64(3));
    }

    #[test]
    fn column_count_validation_flags_records() {
        let input = b"1,2\n3\n4,5\n6,7,8\n9,10";
        let out = parse_csv(
            input,
            ParserOptions {
                schema: Some(Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                ])),
                validate_column_count: true,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(out.stats.num_records, 5);
        assert!(!out.rejected.get(0));
        assert!(out.rejected.get(1), "1 column");
        assert!(!out.rejected.get(2));
        assert!(out.rejected.get(3), "3 columns");
        assert!(!out.rejected.get(4), "trailing record with 2 columns");
        // Rejected rows read as null.
        assert_eq!(out.table.value(1, 0), Value::Null);
        assert_eq!(out.table.value(4, 1), Value::Int64(10));
    }

    #[test]
    fn trailing_record_column_validation() {
        let input = b"1,2\n3";
        let out = parse_csv(
            input,
            ParserOptions {
                schema: Some(Schema::new(vec![
                    Field::new("a", DataType::Int64),
                    Field::new("b", DataType::Int64),
                ])),
                validate_column_count: true,
                ..opts()
            },
        )
        .unwrap();
        assert!(out.rejected.get(1), "trailing record has 1 column");
    }

    #[test]
    fn inline_mode_rejects_inconsistent_columns() {
        let input = b"1,2\n3\n";
        let err = parse_csv(
            input,
            ParserOptions {
                tagging: TaggingMode::inline_default(),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::InconsistentColumns { .. }));
    }

    #[test]
    fn inline_mode_rejects_terminator_in_data() {
        let input = b"a\x1fb,c\nd,e\n";
        let err = parse_csv(
            input,
            ParserOptions {
                tagging: TaggingMode::inline_default(),
                ..opts()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ParseError::TerminatorInData { .. }));
    }

    #[test]
    fn empty_input_gives_empty_table() {
        let out = parse_csv(b"", opts()).unwrap();
        assert_eq!(out.table.num_rows(), 0);
        assert_eq!(out.stats.num_records, 0);
    }

    #[test]
    fn varying_field_counts_in_robust_mode() {
        // Paper §4.1: "resilient to inputs that contain records with a
        // varying number of field delimiters per record
        // (e.g. 1,Apples\n2\n)".
        let out = parse_csv(b"1,Apples\n2\n", opts()).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.num_columns(), 2);
        assert_eq!(out.table.value(0, 1), Value::Utf8("Apples".into()));
        assert_eq!(out.table.value(1, 1), Value::Null);
        assert_eq!(out.stats.observed_columns, Some((1, 2)));
    }

    #[test]
    fn stats_and_profiles_populated() {
        let input = b"1,2.5,x\n3,4.5,y\n";
        let out = parse_csv(input, opts()).unwrap();
        assert_eq!(out.stats.input_bytes, input.len() as u64);
        assert!(out.stats.output_bytes > 0);
        assert!(out.stats.input_valid);
        assert_eq!(out.stats.total_fields, 6);
        assert!(out.profiles.len() >= 6);
        let model = Parser::new(rfc4180(&CsvDialect::default()), opts())
            .model(input)
            .unwrap();
        assert_eq!(model.profiles.len(), out.profiles.len());
        assert!(model.simulated.total_seconds > 0.0);
        assert!(model.simulated.rate_gbps > 0.0);
        let cats: Vec<&str> = model
            .simulated
            .phases
            .iter()
            .map(|(c, _)| c.as_str())
            .collect();
        for want in ["parse", "scan", "tag", "partition", "convert"] {
            assert!(cats.contains(&want), "{cats:?}");
        }
    }

    #[test]
    fn utf8_multibyte_content_survives_any_chunking() {
        let input = "id,text\n1,\"héllo, wörld 🦀\"\n2,日本語テキスト\n".as_bytes();
        let reference = parse_csv(input, opts().chunk_size(64)).unwrap();
        for cs in [1usize, 2, 3, 5, 31] {
            let out = parse_csv(input, opts().chunk_size(cs)).unwrap();
            assert_eq!(out.table, reference.table, "chunk size {cs}");
        }
        assert_eq!(
            reference.table.value(1, 1),
            Value::Utf8("héllo, wörld 🦀".into())
        );
    }

    #[test]
    fn arena_reaches_steady_state_across_runs() {
        // Every buffer a run takes from the arena must come back by the
        // end of that run — including the partition outputs, which are
        // only released after conversion — so a second run on the same
        // executor allocates nothing new.
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\"\n";
        let parser = Parser::new(rfc4180(&CsvDialect::default()), opts());
        let exec = KernelExecutor::new(Grid::new(2));
        parser
            .parse_with(&exec, input, false, None, false, &|_| {})
            .unwrap();
        let (_, misses_first) = exec.arena().stats();
        assert!(misses_first > 0, "first run allocates fresh");
        parser
            .parse_with(&exec, input, false, None, false, &|_| {})
            .unwrap();
        // Stats reset at the start of each run, so the second run's
        // counters stand alone: all takes hit, nothing allocated.
        let (hits, misses_second) = exec.arena().stats();
        assert_eq!(misses_second, 0, "second run allocated fresh");
        // At least the tag and partition symbol and run buffers.
        assert!(hits >= 4, "expected the second run's takes to hit: {hits}");
    }

    #[test]
    fn comments_dialect_end_to_end() {
        let dfa = rfc4180(&CsvDialect {
            comment: Some(b'#'),
            ..CsvDialect::default()
        });
        let parser = Parser::new(dfa, opts());
        let input = b"# header comment, with \"quotes\"\n1,a\n# mid comment\n2,b\n";
        let out = parser.parse(input).unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.value(1, 0), Value::Int64(2));
    }
}

#[cfg(test)]
mod skip_rows_tests {
    use super::*;
    use parparaw_columnar::Value;
    use parparaw_parallel::Grid;

    fn opts() -> ParserOptions {
        ParserOptions {
            grid: Grid::new(2),
            ..ParserOptions::default()
        }
    }

    #[test]
    fn skip_rows_prunes_before_parsing() {
        // Drop a header row and a comment-like row; rows are raw-newline
        // bounded, so the quoted newline in record 1 makes that record
        // span rows 1-2 and the comment sits on row 3.
        let input = b"id,name\n1,\"two\nlines\"\n#not,a,row\n2,x\n";
        let out = parse_csv(
            input,
            ParserOptions {
                skip_rows: vec![0, 3],
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.value(0, 0), Value::Int64(1));
        assert_eq!(out.table.value(0, 1), Value::Utf8("two\nlines".into()));
        assert_eq!(out.table.value(1, 1), Value::Utf8("x".into()));
    }

    #[test]
    fn skip_rows_rejected_when_streaming() {
        // Row indexes are whole-input; applying them per partition (with
        // carry sliced from unpruned bytes) would corrupt output, so every
        // streaming entry point rejects the combination up front.
        let input = b"drop me\n1,a\n2,b\n3,c\n";
        let p = Parser::new(
            rfc4180(&CsvDialect::default()),
            ParserOptions {
                skip_rows: vec![0],
                ..opts()
            },
        );
        assert!(matches!(
            p.parse_stream(input, 8),
            Err(ParseError::SkipRowsInStreaming)
        ));
        let mut it = p.partitions(input, 8);
        assert!(matches!(
            it.next(),
            Some(Err(ParseError::SkipRowsInStreaming))
        ));
        assert!(it.next().is_none());
        // The whole-input path still accepts it.
        assert_eq!(p.parse(input).unwrap().table.num_rows(), 3);
    }

    #[test]
    fn skip_rows_header_changes_inference() {
        // With the header, every column is text; without it, types infer.
        let input = b"id,price\n1,2.5\n2,3.5\n";
        let with_header = parse_csv(input, opts()).unwrap();
        assert_eq!(
            with_header.table.schema().fields[0].data_type,
            DataType::Utf8
        );
        let without = parse_csv(
            input,
            ParserOptions {
                skip_rows: vec![0],
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(without.table.schema().fields[0].data_type, DataType::Int8);
        assert_eq!(
            without.table.schema().fields[1].data_type,
            DataType::Float64
        );
        assert_eq!(without.table.num_rows(), 2);
    }
}

#[cfg(test)]
mod header_tests {
    use super::*;
    use parparaw_columnar::Value;
    use parparaw_parallel::Grid;

    fn opts() -> ParserOptions {
        ParserOptions {
            grid: Grid::new(2),
            header: true,
            ..ParserOptions::default()
        }
    }

    #[test]
    fn header_names_and_types() {
        let input = b"id,price,\"name, full\"\n1,2.5,Bookcase\n2,3.5,Frame\n";
        let out = parse_csv(input, opts()).unwrap();
        let names: Vec<&str> = out
            .table
            .schema()
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["id", "price", "name, full"]);
        assert_eq!(out.table.schema().fields[0].data_type, DataType::Int8);
        assert_eq!(out.table.num_rows(), 2);
        assert_eq!(out.table.value(0, 2), Value::Utf8("Bookcase".into()));
    }

    #[test]
    fn header_with_quoted_newline() {
        let input = b"\"two\nline header\",b\n1,2\n";
        let out = parse_csv(input, opts()).unwrap();
        assert_eq!(out.table.schema().fields[0].name, "two\nline header");
        assert_eq!(out.table.num_rows(), 1);
    }

    #[test]
    fn header_only_input() {
        let out = parse_csv(b"a,b,c", opts()).unwrap();
        assert_eq!(out.table.num_rows(), 0);
        // Column structure still derives from the header... but with no
        // data there is exactly one inferred column universe of size 1;
        // names fall back where the header is wider than the data.
        assert!(out.table.num_columns() >= 1);
    }

    #[test]
    fn unnamed_header_fields_get_defaults() {
        let input = b"id,,x\n1,2,3\n";
        let out = parse_csv(input, opts()).unwrap();
        let names: Vec<&str> = out
            .table
            .schema()
            .fields
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        assert_eq!(names, vec!["id", "c1", "x"]);
    }

    #[test]
    fn header_streams_once() {
        let input = b"id,v\n1,10\n2,20\n3,30\n4,40\n";
        let parser = Parser::new(rfc4180(&CsvDialect::default()), opts());
        let streamed = parser.parse_stream(input, 8).unwrap();
        assert_eq!(streamed.table.num_rows(), 4);
        assert_eq!(streamed.table.schema().fields[0].name, "id");
        assert_eq!(streamed.table.value(3, 1), Value::Int64(40));
    }
}
