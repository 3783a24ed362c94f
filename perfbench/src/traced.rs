//! The traced run: `Parser::parse` and `Parser::parse_stream` rebuilt
//! from each layer's public function, with a timer around every call.
//!
//! The rebuild follows `parparaw_core::pipeline` step for step for the
//! options the workloads use (a fixed schema, no header, no row or record
//! skipping, no column selection, record-tagged tagging, the run-scatter
//! partition kernel, the permissive error policy) and refuses any other
//! options rather than diverge from the program. It
//! passes each layer the same options the pipeline does. Its output is
//! checked against the same reference digest as every timed op, so the
//! per-layer numbers describe the program the end-to-end run measured.

use parparaw_columnar::Table;
use parparaw_core::context::determine_contexts_fast;
use parparaw_core::convert::convert_column_with_diags;
use parparaw_core::css::{index_from_runs, FieldIndex};
use parparaw_core::diag::DiagSink;
use parparaw_core::meta::identify_columns_and_records;
use parparaw_core::partition::partition_by_column_with;
use parparaw_core::tagging::{tag_symbols, TagConfig};
use parparaw_core::{ErrorPolicy, Parser, ParserOptions, PartitionKernel, TaggingMode};
use parparaw_dfa::{Dfa, PairTable};
use parparaw_parallel::{Bitmap, KernelExecutor};
use std::time::{Duration, Instant};

/// The timed layers, in pipeline order.
pub const LAYERS: [&str; 5] = ["context", "meta", "tagging", "partition", "convert"];

/// What one traced op measured and counted.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Wall time per layer, indexed like [`LAYERS`].
    pub layer: [Duration; 5],
    /// Bytes the layers parsed (a stream re-parses carried bytes).
    pub parsed_bytes: u64,
    /// Pass-1 lane operations (the `parse/pass1` launch's work counter).
    pub lane_ops: u64,
    /// Field runs the tagging layer emitted.
    pub runs: u64,
    /// Bytes the partition layer copied into column strings.
    pub bytes_moved: u64,
    /// Fields the convert layer indexed.
    pub fields: u64,
    /// Kernel launches in the executor's launch log.
    pub launches: u64,
    /// Launch attempts beyond the first, from the same log.
    pub retries: u64,
}

/// The pipeline of one [`Parser`], layer by layer.
pub struct TracedParser {
    dfa: Dfa,
    options: ParserOptions,
    pair: Option<PairTable>,
}

impl TracedParser {
    /// Mirror `parser`, or explain which of its options the traced run
    /// does not rebuild.
    pub fn new(parser: &Parser) -> Result<TracedParser, String> {
        let o = parser.options();
        let unsupported = [
            (o.schema.is_none(), "no schema"),
            (o.header, "header"),
            (!o.skip_rows.is_empty(), "skip_rows"),
            (!o.skip_records.is_empty(), "skip_records"),
            (o.selected_columns.is_some(), "selected_columns"),
            (o.validate_column_count, "validate_column_count"),
            (o.tagging != TaggingMode::RecordTagged, "tagging mode"),
            (o.error_policy == ErrorPolicy::Strict, "strict error policy"),
            (o.max_rejects.is_some(), "max_rejects"),
            (
                o.partition_kernel != PartitionKernel::RunScatter,
                "radix partition kernel",
            ),
            (o.fault_injection.is_some(), "fault injection"),
            (o.cancel.is_some(), "cancel token"),
            (o.launch_deadline.is_some(), "launch deadline"),
            (o.memory_budget.is_some(), "memory budget"),
        ];
        if let Some((_, what)) = unsupported.iter().find(|(on, _)| *on) {
            return Err(format!("the traced run does not rebuild option: {what}"));
        }
        let dfa = parser.dfa().clone();
        let pair = o.pass1_pair_table.then(|| PairTable::build(&dfa));
        Ok(TracedParser {
            dfa,
            options: o.clone(),
            pair,
        })
    }

    /// Mirror of `Parser::parse`: one fresh executor for the whole input.
    pub fn parse(&self, input: &[u8]) -> Result<(Table, Trace), String> {
        let exec = self.options.build_executor();
        let mut trace = Trace::default();
        let (table, _) = self.parse_with(&exec, input, false, &mut trace)?;
        Ok((table, trace))
    }

    /// Mirror of `Parser::parse_stream` with a fixed schema: one executor
    /// across `partition_size`-byte partitions, each parsed after the
    /// bytes its predecessor carried over. The stream's stage threads and
    /// queues are left out; the difference shows in `pipeline.glue_ms`.
    pub fn parse_stream(
        &self,
        input: &[u8],
        partition_size: usize,
    ) -> Result<(Table, Trace), String> {
        let exec = self.options.build_executor();
        let mut trace = Trace::default();
        let mut tables = Vec::new();
        let mut carry: Vec<u8> = Vec::new();
        for part in input.chunks(partition_size.max(1)) {
            let is_last = part.as_ptr_range().end == input.as_ptr_range().end;
            let mut work = std::mem::take(&mut carry);
            work.extend_from_slice(part);
            let (table, carry_len) = self.parse_with(&exec, &work, !is_last, &mut trace)?;
            carry = work[work.len() - carry_len..].to_vec();
            tables.push(table);
        }
        let refs: Vec<&Table> = tables.iter().filter(|t| t.num_rows() > 0).collect();
        let table = if refs.is_empty() {
            tables.into_iter().next().unwrap_or_else(Table::empty)
        } else {
            Table::concat(&refs)?
        };
        Ok((table, trace))
    }

    /// One pipeline run on `exec`, timing each layer into `trace`. With
    /// `drop_trailing`, the record not closed by a record delimiter is
    /// left out and the length of the bytes to carry is returned.
    fn parse_with(
        &self,
        exec: &KernelExecutor,
        input: &[u8],
        drop_trailing: bool,
        trace: &mut Trace,
    ) -> Result<(Table, usize), String> {
        let o = &self.options;
        let cs = o.chunk_size;
        let schema = o.schema.as_ref().expect("checked in TracedParser::new");
        let _ = exec.drain_log();
        exec.arena().reset_stats();

        let t = Instant::now();
        let ctx = determine_contexts_fast(
            exec,
            &self.dfa,
            input,
            cs,
            o.scan_algorithm,
            self.pair.as_ref(),
        )
        .map_err(|e| e.to_string())?;
        let t = lap(&mut trace.layer[0], t);
        let meta = identify_columns_and_records(exec, &self.dfa, input, cs, &ctx.start_states)
            .map_err(|e| e.to_string())?;
        lap(&mut trace.layer[1], t);

        let num_cols = schema.num_columns();
        let col_map: Vec<Option<u32>> = (0..num_cols as u32).map(Some).collect();
        let mut skip: Vec<u64> = Vec::new();
        let mut carry_len = 0usize;
        if drop_trailing {
            carry_len = input.len() - meta.records.last_set_bit().map_or(0, |i| i + 1);
            if meta.has_trailing_record {
                skip.push(meta.num_records - 1);
            }
        }
        let num_rows = meta.num_records - skip.len() as u64;

        let sink = DiagSink::new(o.error_policy.diagnostic_cap());
        let cfg = TagConfig {
            mode: o.tagging,
            col_map: &col_map,
            skip_records: &skip,
            expected_columns: None,
            num_out_rows: num_rows,
            diags: Some(&sink),
        };
        let t = Instant::now();
        let mut tagged = tag_symbols(exec, input, cs, &meta, &cfg).map_err(|e| e.to_string())?;
        lap(&mut trace.layer[2], t);
        let rejected = std::mem::replace(&mut tagged.rejected, Bitmap::new(0));
        trace.runs += tagged.runs.len() as u64;

        let t = Instant::now();
        let part = partition_by_column_with(exec, tagged, num_cols, o.partition_kernel)
            .map_err(|e| e.to_string())?;
        let t = lap(&mut trace.layer[3], t);
        trace.bytes_moved += part.symbols.len() as u64;

        let threshold = o.effective_collaboration_threshold();
        let mut columns = Vec::with_capacity(num_cols);
        for (c, field) in schema.fields.iter().enumerate() {
            let css = part.css(c);
            let runs = part.col_runs(c).expect("the run-scatter kernel keeps runs");
            let index: FieldIndex = exec
                .launch("convert/index", css.len(), |_, _| index_from_runs(runs))
                .map_err(|e| e.to_string())?;
            trace.fields += index.num_fields() as u64;
            let out = exec
                .launch("convert/column", css.len(), |grid, _| {
                    convert_column_with_diags(
                        grid,
                        css,
                        &index,
                        num_rows as usize,
                        field.data_type,
                        field.default.as_ref(),
                        &rejected,
                        threshold,
                        Some((&sink, c as u32)),
                    )
                })
                .map_err(|e| e.to_string())?;
            columns.push(out.column);
        }
        lap(&mut trace.layer[4], t);

        // The same buffer returns as the pipeline's, so a stream's next
        // partition reuses them from the arena.
        let arena = exec.arena();
        arena.put_u8("partition/symbols", part.symbols);
        arena.put_u32("partition/rec-tags", part.rec_tags);
        if let Some(runs) = part.runs {
            arena.put_vec("partition/runs", runs.runs);
        }

        let table = Table::new(schema.clone(), columns)?;
        for r in exec.drain_log() {
            trace.launches += 1;
            trace.retries += u64::from(r.attempts.saturating_sub(1));
            if r.label == "parse/pass1" {
                trace.lane_ops += r.parallel_ops;
            }
        }
        trace.parsed_bytes += input.len() as u64;
        Ok((table, carry_len))
    }
}

/// Add the time since `since` to `acc` and return now.
fn lap(acc: &mut Duration, since: Instant) -> Instant {
    let now = Instant::now();
    *acc += now - since;
    now
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Digest, Workload, STREAM_PARTITION_BYTES};
    use parparaw_columnar::ipc;
    use parparaw_parallel::Grid;

    #[test]
    fn reproduces_parse_and_parse_stream() {
        let input = parparaw_workloads::yelp::generate(600 << 10, 3);
        let parser = Workload::YelpStream.parser(Grid::new(2));
        let traced = TracedParser::new(&parser).unwrap();
        let want = Digest::of(&ipc::write_table(&parser.parse(&input).unwrap().table));

        let (table, trace) = traced.parse(&input).unwrap();
        assert_eq!(Digest::of(&ipc::write_table(&table)), want);
        assert_eq!(trace.parsed_bytes, input.len() as u64);
        assert!(trace.layer.iter().all(|d| !d.is_zero()));
        assert_eq!(trace.retries, 0);
        let launches = parser.parse(&input).unwrap().profiles.len() as u64;
        assert_eq!(
            trace.launches, launches,
            "the rebuild launches what parse does"
        );

        let (table, trace) = traced.parse_stream(&input, STREAM_PARTITION_BYTES).unwrap();
        assert_eq!(Digest::of(&ipc::write_table(&table)), want);
        assert!(
            trace.parsed_bytes > input.len() as u64,
            "carried bytes parse twice"
        );
    }

    #[test]
    fn refuses_options_it_does_not_rebuild() {
        let mut opts = Workload::TaxiParse.options(Grid::new(1));
        opts.header = true;
        let err = TracedParser::new(&Parser::new(crate::workload::format(), opts)).err();
        assert_eq!(
            err.as_deref(),
            Some("the traced run does not rebuild option: header")
        );
    }
}
