//! Tagging symbols with their record and column (paper §3.2 bottom, §4.1).
//!
//! Using the bitmap indexes and the resolved offsets, tagging compacts the
//! *relevant* symbols and describes them at field granularity: each kept
//! field becomes a [`FieldRun`] over the compacted symbols, carrying the
//! field's column and record. What is emitted depends on the tagging mode
//! (paper Fig. 6):
//!
//! * **record-tagged** — data symbols only;
//! * **inline-terminated** — data symbols plus a terminator byte in place
//!   of each field-ending delimiter, which closes the field's run;
//! * **vector-delimited** — data symbols plus the original delimiter byte,
//!   which closes the field's run (the paper's auxiliary flag).
//!
//! Tagging is also where record/column *skipping* happens (paper §4.3):
//! symbols of skipped records or unselected columns are never emitted, and
//! where per-record rejection (invalid transitions, wrong column count) is
//! recorded.
//!
//! The walk is word-wise, the structural-index idiom of simdjson and Mison:
//! the record, field, control and reject bitmaps are OR'd a `u64` at a
//! time and `trailing_zeros` jumps from one boundary to the next, so the
//! data between two boundaries is one span, copied with one `memcpy`. The
//! walks follow pass 2's worker ranges ([`MetaPass::ranges`]): each range
//! is walked whole from its resolved record and column, so a field is
//! split into several runs only where a range ends, and the output does
//! not depend on the grid tagging runs on. The cost model
//! ([`crate::model`]) hands pass 2 one range per chunk, so there the same
//! walk emits the paper's per-chunk runs, and the counters charge them.
//! The emission is allocation-free and parallel: a counting walk per
//! range, an exclusive prefix sum over the counts, then a second walk
//! writing straight into the arena buffers — the standard GPU compaction
//! shape.

use crate::chunks::num_chunks;
use crate::diag::{DiagSink, RecordDiagnostic, RejectReason};
use crate::meta::{MetaPass, RangeStart};
use crate::options::TaggingMode;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::{AtomicBitmap, Bitmap, Grid, KernelExecutor, LaunchError};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};

/// Static configuration for the tagging pass.
#[derive(Debug)]
pub struct TagConfig<'a> {
    /// Tagging mode.
    pub mode: TaggingMode,
    /// Raw column index → output column index; `None` drops the column.
    /// Raw columns `>= col_map.len()` are dropped (and optionally reject
    /// the record via `expected_columns`).
    pub col_map: &'a [Option<u32>],
    /// Sorted list of raw record indexes to skip.
    pub skip_records: &'a [u64],
    /// When set, records whose column count differs are rejected.
    pub expected_columns: Option<u32>,
    /// Number of output rows (raw records minus skipped).
    pub num_out_rows: u64,
    /// When set, every reject also records a [`RecordDiagnostic`]. The
    /// sink de-duplicates, so a retried launch does not double-report.
    pub diags: Option<&'a DiagSink>,
}

/// One run of consecutive emitted symbols belonging to a single field.
///
/// The paper's §3.3 observation that column tags are constant across each
/// field's symbols means the tag phase can describe its output at field
/// granularity. Runs tile their symbol array in order (the compacted
/// tagged symbols in [`Tagged`], a column's CSS after partitioning), so a
/// run's start is the sum of the lengths before it and is not stored. A
/// field that crosses the end of one pass-2 worker range yields two
/// adjacent runs with the same row, merged back by
/// [`crate::css::index_from_runs`]; chunk boundaries inside a range do
/// not split runs.
///
/// 16 bytes: the column, the row, and the symbol count with the `closed`
/// flag in its top bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FieldRun {
    /// Output column tag.
    pub col: u32,
    /// Output row.
    pub row: u32,
    /// Number of symbols in the low 63 bits, [`FieldRun::closed`] in the
    /// top bit.
    len_closed: u64,
}

const _: () = assert!(std::mem::size_of::<FieldRun>() == 16);

impl FieldRun {
    const CLOSED: u64 = 1 << 63;

    /// A run of `len` symbols of field (`col`, `row`).
    pub fn new(col: u32, row: u32, len: u64, closed: bool) -> Self {
        debug_assert!(len < Self::CLOSED);
        FieldRun {
            col,
            row,
            len_closed: len | if closed { Self::CLOSED } else { 0 },
        }
    }

    /// Number of symbols in the run.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len_closed & !Self::CLOSED
    }

    /// True when the run has no symbols (the tag walk never emits one).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the run's last symbol is the field's terminator or
    /// delimiter (inline/vector modes; the field's data excludes it).
    /// Record-tagged mode never emits delimiters, so always false there.
    #[inline]
    pub fn closed(&self) -> bool {
        self.len_closed & Self::CLOSED != 0
    }

    /// Append `len` symbols; `closed` replaces the run's flag.
    #[inline]
    fn extend(&mut self, len: u64, closed: bool) {
        *self = FieldRun::new(self.col, self.row, self.len() + len, closed);
    }
}

/// The tagging output: the compacted symbol stream and its field runs.
#[derive(Debug, Clone)]
pub struct Tagged {
    /// The mode the symbols were emitted under.
    pub mode: TaggingMode,
    /// Relevant symbols, in input order (delimiters included in
    /// inline/vector modes, replaced by the terminator in inline mode).
    pub symbols: Vec<u8>,
    /// Per-field runs tiling `symbols`, in input order — the field-granular
    /// metadata the partition kernels and the CSS index work from.
    pub runs: Vec<FieldRun>,
    /// Per-output-row rejection flags.
    pub rejected: Bitmap,
    /// True when inline mode found the terminator byte inside field data.
    pub terminator_clash: bool,
}

/// Run the word-wise tagging kernel as one instrumented `tag` launch.
///
/// The symbol and run arrays come from the executor's arena (labels
/// `tag/symbols`, `tag/runs`), and the partition phase returns them
/// there, so repeated runs on one executor — the streaming path — reuse
/// their allocations.
pub fn tag_symbols(
    exec: &KernelExecutor,
    input: &[u8],
    chunk_size: usize,
    meta: &MetaPass,
    cfg: &TagConfig<'_>,
) -> Result<Tagged, LaunchError> {
    let n = input.len();
    let cs = chunk_size.max(1);
    let n_chunks = num_chunks(n, cs);
    let rejected = AtomicBitmap::new(cfg.num_out_rows as usize);
    let clash = AtomicBool::new(false);

    let ranges = &meta.ranges;
    let (symbols, runs) = exec.launch("tag", n_chunks, |grid, counters| {
        // Walk A: count each pass-2 range's symbols and runs, marking
        // rejects and terminator clashes once.
        let mut counts = vec![Emitted::default(); ranges.len()];
        {
            let count_w = SlotWriter::new(&mut counts);
            let marks = Marks {
                rejected: &rejected,
                clash: &clash,
            };
            grid.run_partitioned(ranges.len(), |_, which| {
                for r in which {
                    let range = &ranges[r];
                    let e = Walker::start(input, meta, cfg, cs, range, None, Some(&marks))
                        .walk_chunks(grid, range.chunks.clone());
                    // SAFETY: `run_partitioned` hands each range index to
                    // exactly one worker.
                    unsafe { count_w.write(r, e) };
                }
            });
        }

        // Exclusive scan over the per-range counts.
        let mut sym_bases = Vec::with_capacity(counts.len());
        let mut run_bases = Vec::with_capacity(counts.len());
        let (mut total_symbols, mut total_runs) = (0, 0);
        for e in &counts {
            sym_bases.push(total_symbols as usize);
            run_bases.push(total_runs as usize);
            total_symbols += e.symbols;
            total_runs += e.runs;
        }

        // Walk B: emit into pre-sized arena-backed arrays.
        let arena = exec.arena();
        let mut symbols = arena.take_u8("tag/symbols");
        symbols.resize(total_symbols as usize, 0);
        let mut runs = arena.take_vec::<FieldRun>("tag/runs");
        runs.resize(total_runs as usize, FieldRun::default());
        {
            let sym_w = SlotWriter::new(&mut symbols);
            let run_w = SlotWriter::new(&mut runs);
            grid.run_partitioned(ranges.len(), |_, which| {
                for r in which {
                    let sinks = Sinks {
                        symbols: &sym_w,
                        runs: &run_w,
                        sym_base: sym_bases[r],
                        run_base: run_bases[r],
                    };
                    let range = &ranges[r];
                    Walker::start(input, meta, cfg, cs, range, Some(sinks), None)
                        .walk_chunks(grid, range.chunks.clone());
                }
            });
        }

        // Work counters model the paper's GPU kernel: two passes over the
        // input and its bitmaps, a column tag per symbol plus the mode's
        // record tag or delimiter flag, and the emitted runs (the
        // per-chunk ones when the model walks one range per chunk).
        let per_symbol_out: u64 = 1
            + 4
            + match cfg.mode {
                TaggingMode::RecordTagged => 4,
                TaggingMode::InlineTerminated { .. } => 0,
                TaggingMode::VectorDelimited => 1,
            };
        counters.kernel_launches = 2;
        counters.bytes_read = 2 * (n as u64 + n as u64 / 2);
        counters.bytes_written = total_symbols * per_symbol_out + total_runs * RUN_BYTES;
        counters.parallel_ops = 2 * n as u64;

        (symbols, runs)
    })?;

    Ok(Tagged {
        mode: cfg.mode,
        symbols,
        runs,
        rejected: rejected.into_bitmap(),
        terminator_clash: clash.load(Ordering::Relaxed),
    })
}

/// Cost-model size of the paper kernel's run record (col + row + start +
/// len + closed), not of this code's [`FieldRun`].
pub(crate) const RUN_BYTES: u64 = 25;

/// What one range's walk emitted.
#[derive(Debug, Clone, Copy, Default)]
struct Emitted {
    symbols: u64,
    runs: u64,
}

/// Where the emitting walk writes: the global symbol and run arrays and
/// the range's base offsets into them.
struct Sinks<'a> {
    symbols: &'a SlotWriter<'a, u8>,
    runs: &'a SlotWriter<'a, FieldRun>,
    sym_base: usize,
    run_base: usize,
}

/// Where the counting walk reports rejects and terminator clashes.
struct Marks<'a> {
    rejected: &'a AtomicBitmap,
    clash: &'a AtomicBool,
}

/// The walk over one pass-2 range of chunks. All position state lives
/// here, so consecutive [`Walker::walk`] calls continue one another.
struct Walker<'a, 's> {
    input: &'a [u8],
    meta: &'a MetaPass,
    cfg: &'a TagConfig<'a>,
    chunk_size: usize,
    /// Whether kept field delimiters are emitted (inline/vector modes).
    include_delims: bool,
    /// The inline mode's terminator.
    terminator: Option<u8>,
    /// Raw record and column of the current position.
    rec: u64,
    col: u32,
    /// Cursor into `cfg.skip_records`: the first entry `>= rec`.
    next_skip: usize,
    /// Output row of `rec` (`None` when skipped) and output column of
    /// `col` (`None` when dropped).
    row: Option<u64>,
    out_col: Option<u32>,
    /// The open run.
    run: Option<FieldRun>,
    emitted: Emitted,
    sinks: Option<Sinks<'s>>,
    marks: Option<&'s Marks<'s>>,
}

impl<'a, 's> Walker<'a, 's> {
    /// A walker positioned at the start of pass-2 range `range`.
    fn start(
        input: &'a [u8],
        meta: &'a MetaPass,
        cfg: &'a TagConfig<'a>,
        chunk_size: usize,
        range: &RangeStart,
        sinks: Option<Sinks<'s>>,
        marks: Option<&'s Marks<'s>>,
    ) -> Self {
        let (rec, col) = (range.record, range.col);
        let next_skip = cfg.skip_records.partition_point(|&s| s < rec);
        let mut w = Walker {
            input,
            meta,
            cfg,
            chunk_size,
            include_delims: !matches!(cfg.mode, TaggingMode::RecordTagged),
            terminator: match cfg.mode {
                TaggingMode::InlineTerminated { terminator } => Some(terminator),
                _ => None,
            },
            rec,
            col,
            next_skip,
            row: None,
            out_col: map_col(cfg.col_map, col),
            run: None,
            emitted: Emitted::default(),
            sinks,
            marks,
        };
        w.seek_row();
        w
    }

    /// Walk `chunks`, polling the launch's abort signal every 256 chunks'
    /// worth of bytes, and flush the last run.
    fn walk_chunks(mut self, grid: &Grid, chunks: Range<usize>) -> Emitted {
        let n = self.input.len();
        let mut c = chunks.start;
        while c < chunks.end {
            grid.check_abort(c);
            let next = ((c | 0xFF) + 1).min(chunks.end);
            self.walk(c * self.chunk_size, (next * self.chunk_size).min(n));
            c = next;
        }
        self.flush();
        self.emitted
    }

    /// Walk bytes `lo..hi` boundary to boundary.
    fn walk(&mut self, lo: usize, hi: usize) {
        let meta = self.meta;
        let (rec_w, fld_w, ctl_w, rej_w) = (
            meta.records.words(),
            meta.fields.words(),
            meta.control.words(),
            meta.rejects.words(),
        );
        let mut wi = lo >> 6;
        let (mut rec_bits, mut fld_bits, mut rej_bits) = (rec_w[wi], fld_w[wi], rej_w[wi]);
        let mut bounds = (rec_bits | fld_bits | ctl_w[wi] | rej_bits) & (!0u64 << (lo & 63));
        let mut span = lo;
        loop {
            while bounds == 0 {
                wi += 1;
                if wi << 6 >= hi {
                    self.data(span, hi);
                    return;
                }
                (rec_bits, fld_bits, rej_bits) = (rec_w[wi], fld_w[wi], rej_w[wi]);
                bounds = rec_bits | fld_bits | ctl_w[wi] | rej_bits;
            }
            let i = (wi << 6) | bounds.trailing_zeros() as usize;
            if i >= hi {
                break;
            }
            bounds &= bounds - 1;
            self.data(span, i);
            span = i + 1;
            let bit = 1u64 << (i & 63);
            if rej_bits & bit != 0 {
                self.reject_syntax(i);
            }
            if rec_bits & bit != 0 {
                self.delimiter(i, true);
            } else if fld_bits & bit != 0 {
                self.delimiter(i, false);
            } else if ctl_w[wi] & bit == 0 {
                // A rejected data byte: it opens the next data span.
                span = i;
            }
        }
        self.data(span, hi);
    }

    /// The data span `a..b` of the current field.
    #[inline]
    fn data(&mut self, a: usize, b: usize) {
        if a >= b {
            return;
        }
        let input = self.input;
        if let (Some(marks), Some(t)) = (self.marks, self.terminator) {
            if input[a..b].contains(&t) {
                marks.clash.store(true, Ordering::Relaxed);
            }
        }
        self.emit(&input[a..b], false);
    }

    /// A record (`is_rec`) or field delimiter at byte `i`.
    fn delimiter(&mut self, i: usize, is_rec: bool) {
        if self.include_delims {
            let byte = self.terminator.unwrap_or(self.input[i]);
            self.emit(&[byte], true);
        }
        if is_rec {
            if let (Some(expect), Some(row)) = (self.cfg.expected_columns, self.row) {
                if self.col + 1 != expect {
                    self.reject(
                        row,
                        None,
                        i,
                        RejectReason::ColumnCountMismatch {
                            expected: expect,
                            got: self.col + 1,
                        },
                    );
                }
            }
            self.rec += 1;
            self.col = 0;
            self.seek_row();
        } else {
            self.col += 1;
        }
        self.out_col = map_col(self.cfg.col_map, self.col);
    }

    /// An invalid transition at byte `i`. A control-only trailing segment
    /// (say a stray `\r` after the last newline) can carry reject bits
    /// without forming a trailing record; there is no row to attach them
    /// to.
    fn reject_syntax(&self, i: usize) {
        if let Some(row) = self.row.filter(|&r| r < self.cfg.num_out_rows) {
            self.reject(row, self.out_col, i, RejectReason::InvalidSyntax);
        }
    }

    /// Mark output row `row` rejected (counting walk only).
    fn reject(&self, row: u64, column: Option<u32>, i: usize, reason: RejectReason) {
        let Some(marks) = self.marks else { return };
        marks.rejected.set(row as usize);
        if let Some(sink) = self.cfg.diags {
            sink.push(RecordDiagnostic {
                record: row,
                column,
                byte_offset: Some(i as u64),
                reason,
            });
        }
    }

    /// Resolve the output row of `rec` by advancing the skip cursor.
    fn seek_row(&mut self) {
        let skip = self.cfg.skip_records;
        while skip.get(self.next_skip).is_some_and(|&s| s < self.rec) {
            self.next_skip += 1;
        }
        self.row =
            (skip.get(self.next_skip) != Some(&self.rec)).then(|| self.rec - self.next_skip as u64);
    }

    /// Emit `symbols` when the current field is kept: write them
    /// (emitting walk) and append them to the open run, or flush it and
    /// open a new one when the field changes or the open run was closed by
    /// a delimiter.
    #[inline]
    fn emit(&mut self, symbols: &[u8], closed: bool) {
        let (Some(row), Some(col)) = (self.row.map(|r| r as u32), self.out_col) else {
            return;
        };
        if let Some(s) = &self.sinks {
            // SAFETY: the counting walk sized this range's symbol slots
            // from the same emissions, and ranges' slots are disjoint.
            unsafe {
                s.symbols
                    .write_slice(s.sym_base + self.emitted.symbols as usize, symbols)
            };
        }
        let len = symbols.len() as u64;
        match &mut self.run {
            Some(run) if run.row == row && run.col == col && !run.closed() => {
                run.extend(len, closed)
            }
            _ => {
                self.flush();
                self.run = Some(FieldRun::new(col, row, len, closed));
            }
        }
        self.emitted.symbols += len;
    }

    /// Write the open run (if any).
    fn flush(&mut self) {
        if let Some(run) = self.run.take() {
            if let Some(s) = &self.sinks {
                // SAFETY: the counting walk counted this range's runs the
                // same way, so the slot lies in the range's own slots.
                unsafe { s.runs.write(s.run_base + self.emitted.runs as usize, run) };
            }
            self.emitted.runs += 1;
        }
    }
}

#[inline]
fn map_col(col_map: &[Option<u32>], col: u32) -> Option<u32> {
    col_map.get(col as usize).copied().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::determine_contexts_fast;
    use crate::meta::identify_columns_and_records;
    use crate::options::ScanAlgorithm;
    use parparaw_dfa::csv::rfc4180_paper;

    fn run_meta(input: &[u8], chunk_size: usize, workers: usize) -> (KernelExecutor, MetaPass) {
        let dfa = rfc4180_paper();
        let exec = KernelExecutor::new(Grid::new(workers));
        let ctx =
            determine_contexts_fast(&exec, &dfa, input, chunk_size, ScanAlgorithm::Blocked, None)
                .unwrap();
        let meta = identify_columns_and_records(&exec, &dfa, input, chunk_size, &ctx.start_states)
            .unwrap();
        (exec, meta)
    }

    fn identity_map(n: usize) -> Vec<Option<u32>> {
        (0..n as u32).map(Some).collect()
    }

    fn config<'a>(mode: TaggingMode, col_map: &'a [Option<u32>], meta: &MetaPass) -> TagConfig<'a> {
        TagConfig {
            mode,
            col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        }
    }

    /// `(column, row, symbols, closed)` per run, in input order: one run
    /// per field, since these tests tag on one worker.
    fn fields(t: &Tagged) -> Vec<(u32, u32, String, bool)> {
        let mut start = 0;
        let fields = t
            .runs
            .iter()
            .map(|r| {
                let bytes = &t.symbols[start..start + r.len() as usize];
                start += bytes.len();
                let text = String::from_utf8_lossy(bytes).into_owned();
                (r.col, r.row, text, r.closed())
            })
            .collect();
        assert_eq!(start, t.symbols.len(), "runs tile the symbols");
        fields
    }

    fn field(col: u32, row: u32, text: &str, closed: bool) -> (u32, u32, String, bool) {
        (col, row, text.to_string(), closed)
    }

    #[test]
    fn record_tagged_matches_figure5() {
        // Fig. 4/5 input: each field's symbols carry its (column, record).
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let (exec, meta) = run_meta(input, 10, 1);
        let col_map = identity_map(3);
        let cfg = config(TaggingMode::RecordTagged, &col_map, &meta);
        let t = tag_symbols(&exec, input, 10, &meta, &cfg).unwrap();
        // CSS content: all data symbols, no quotes/delims.
        assert_eq!(
            String::from_utf8_lossy(&t.symbols),
            "1941199.99Bookcase193819.99Frame\n\"Ribba\", black"
        );
        assert_eq!(
            fields(&t),
            [
                field(0, 0, "1941", false),
                field(1, 0, "199.99", false),
                field(2, 0, "Bookcase", false),
                field(0, 1, "1938", false),
                field(1, 1, "19.99", false),
                field(2, 1, "Frame\n\"Ribba\", black", false),
            ]
        );
        assert!(!t.terminator_clash);
        assert_eq!(t.rejected.count_ones(), 0);
    }

    #[test]
    fn inline_terminated_matches_figure6() {
        // Paper Fig. 6: 0,"Apples"\n1,\n2,"Pears"\n
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, meta) = run_meta(input, 5, 1);
        let col_map = identity_map(2);
        let cfg = config(
            TaggingMode::InlineTerminated { terminator: 0 },
            &col_map,
            &meta,
        );
        let t = tag_symbols(&exec, input, 5, &meta, &cfg).unwrap();
        // Column 1's portion (after partitioning) will be Apples\0\0Pears\0;
        // every field's run ends with its terminator.
        assert_eq!(
            fields(&t),
            [
                field(0, 0, "0\0", true),
                field(1, 0, "Apples\0", true),
                field(0, 1, "1\0", true),
                field(1, 1, "\0", true),
                field(0, 2, "2\0", true),
                field(1, 2, "Pears\0", true),
            ]
        );
    }

    #[test]
    fn vector_delimited_keeps_original_bytes() {
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, meta) = run_meta(input, 7, 1);
        let col_map = identity_map(2);
        let cfg = config(TaggingMode::VectorDelimited, &col_map, &meta);
        let t = tag_symbols(&exec, input, 7, &meta, &cfg).unwrap();
        // Paper Fig. 6: Apples??Pears? with each delimiter closing a field.
        let col1: Vec<_> = fields(&t).into_iter().filter(|f| f.0 == 1).collect();
        assert_eq!(
            col1,
            [
                field(1, 0, "Apples\n", true),
                field(1, 1, "\n", true),
                field(1, 2, "Pears\n", true),
            ]
        );
    }

    #[test]
    fn skipping_records_and_columns() {
        let input = b"a,b,c\nd,e,f\ng,h,i\n";
        let (exec, meta) = run_meta(input, 4, 1);
        // Keep only columns 0 and 2, skip record 1.
        let col_map = vec![Some(0), None, Some(1)];
        let cfg = TagConfig {
            skip_records: &[1],
            num_out_rows: meta.num_records - 1,
            ..config(TaggingMode::RecordTagged, &col_map, &meta)
        };
        let t = tag_symbols(&exec, input, 4, &meta, &cfg).unwrap();
        assert_eq!(String::from_utf8_lossy(&t.symbols), "acgi");
        assert_eq!(
            fields(&t),
            [
                field(0, 0, "a", false),
                field(1, 0, "c", false),
                field(0, 1, "g", false),
                field(1, 1, "i", false),
            ]
        );
    }

    #[test]
    fn column_count_validation_rejects() {
        let input = b"1,2\n3\n4,5\n";
        let (exec, meta) = run_meta(input, 3, 1);
        let col_map = identity_map(2);
        let cfg = TagConfig {
            expected_columns: Some(2),
            ..config(TaggingMode::RecordTagged, &col_map, &meta)
        };
        let t = tag_symbols(&exec, input, 3, &meta, &cfg).unwrap();
        assert!(!t.rejected.get(0));
        assert!(t.rejected.get(1), "record with 1 column must reject");
        assert!(!t.rejected.get(2));
    }

    #[test]
    fn terminator_clash_detected() {
        let input = b"a\x1fb,c\n";
        let (exec, meta) = run_meta(input, 3, 1);
        let col_map = identity_map(2);
        let mode = TaggingMode::InlineTerminated { terminator: 0x1F };
        let t = tag_symbols(&exec, input, 3, &meta, &config(mode, &col_map, &meta)).unwrap();
        assert!(t.terminator_clash);
    }

    #[test]
    fn extra_columns_are_dropped() {
        let input = b"a,b,EXTRA\nc,d\n";
        let (exec, meta) = run_meta(input, 5, 2);
        let col_map = identity_map(2); // only 2 columns kept
        let cfg = config(TaggingMode::RecordTagged, &col_map, &meta);
        let t = tag_symbols(&exec, input, 5, &meta, &cfg).unwrap();
        assert_eq!(String::from_utf8_lossy(&t.symbols), "abcd");
    }
}
