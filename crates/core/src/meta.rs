//! Pass 2 and the offset scans: identifying columns and records
//! (paper §3.1 bitmaps + §3.2, Fig. 4).
//!
//! With its starting state known, a single DFA instance re-simulates the
//! input and materialises the three bitmap indexes (record delimiters,
//! field delimiters, control symbols) plus a reject bitmap. Alongside, it
//! computes the metadata of Fig. 4: the record count, the
//! relative-or-absolute column offset handed onward, and the data needed
//! for column-count inference (§4.3): the number of field delimiters
//! before the first record delimiter and the min/max column count of the
//! records completed after it.
//!
//! The offset scans then turn those values into absolute starting
//! offsets: an exclusive prefix sum for records, and an exclusive scan
//! under the rel/abs composition operator for columns.
//!
//! As in pass 1 (see [`crate::context`]) the chunk is the modelled unit —
//! the work counters charge the paper's per-chunk metadata — while the
//! host walks one worker range of chunks at a time, from the range's first
//! start state. To the metadata logic a range is one big chunk: the walk
//! accumulates the range's totals directly, the offset scans run over the
//! ≤ `workers` range totals, and their results are the [`RangeStart`]s the
//! tag walk (see [`crate::tagging`]) begins each range from.

use crate::chunks::num_chunks;
use parparaw_dfa::Dfa;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan::{self, ScanOp};
use parparaw_parallel::{AtomicBitmap, Bitmap, KernelExecutor, LaunchError};
use std::ops::Range;

/// A column offset that is either relative (no record delimiter seen, the
/// offset adds to the predecessor's) or absolute (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColOffset {
    /// True when absolute.
    pub abs: bool,
    /// The offset value.
    pub value: u32,
}

impl ColOffset {
    /// The scan identity: relative zero.
    pub const IDENTITY: ColOffset = ColOffset {
        abs: false,
        value: 0,
    };
}

/// The paper's ⊕ operator for column offsets: an absolute right operand
/// wins; a relative right operand adds to the left.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColOffsetOp;

impl ScanOp for ColOffsetOp {
    type Item = ColOffset;

    fn identity(&self) -> ColOffset {
        ColOffset::IDENTITY
    }

    fn combine(&self, a: &ColOffset, b: &ColOffset) -> ColOffset {
        if b.abs {
            *b
        } else {
            ColOffset {
                abs: a.abs,
                value: a.value + b.value,
            }
        }
    }
}

/// Where one worker range of pass 2 starts: the range's chunks and the
/// absolute record and column index at its first byte, out of the offset
/// scans. The tag walk begins each range from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeStart {
    /// The range's chunks.
    pub chunks: Range<usize>,
    /// Record index at the range's first byte.
    pub record: u64,
    /// Column index at the range's first byte.
    pub col: u32,
}

/// The combined output of pass 2 and the offset scans.
#[derive(Debug)]
pub struct MetaPass {
    /// Bitmap of record-delimiter symbol positions.
    pub records: Bitmap,
    /// Bitmap of field-delimiter symbol positions.
    pub fields: Bitmap,
    /// Bitmap of control symbols (syntax that is neither data nor
    /// delimiter: quotes, comment bodies, carriage returns, …).
    pub control: Bitmap,
    /// Bitmap of positions whose transition was invalid.
    pub rejects: Bitmap,
    /// Pass 2's worker ranges, tiling the chunks in order, with their
    /// starting record and column.
    pub ranges: Vec<RangeStart>,
    /// Total number of record delimiters.
    pub total_record_delims: u64,
    /// Total records including a trailing record not closed by a
    /// delimiter.
    pub num_records: u64,
    /// Whether a trailing (undelimited) record exists.
    pub has_trailing_record: bool,
    /// Column count of the trailing record (meaningful when
    /// `has_trailing_record`).
    pub trailing_columns: u32,
    /// Observed min/max columns per record across the whole input
    /// (`None` when there are no records).
    pub observed_columns: Option<(u32, u32)>,
    /// Observed min/max columns over *closed* records only (excluding a
    /// trailing undelimited record) — what streaming partitions use, since
    /// their trailing record is deferred to the next partition.
    pub observed_columns_closed: Option<(u32, u32)>,
}

/// One worker range's pass-2 totals — the element of the ≤ `workers`-long
/// offset scans.
#[derive(Debug, Clone, Copy)]
struct RangeMeta {
    /// Record delimiters in the range.
    records: u64,
    /// Field delimiters since the range's last record delimiter (or its
    /// start when none): the value of its rel/abs column offset.
    rel: u32,
    /// Field delimiters from the range start to its first record
    /// delimiter; meaningful when `records > 0`.
    first_rel: u32,
    /// Min/max column count over the records closed in the range after
    /// its first one (`u32::MAX`/0 when there are none).
    min_cols: u32,
    /// See `min_cols`.
    max_cols: u32,
}

impl RangeMeta {
    const EMPTY: RangeMeta = RangeMeta {
        records: 0,
        rel: 0,
        first_rel: 0,
        min_cols: u32::MAX,
        max_cols: 0,
    };

    /// The range's column offset: absolute once it holds a record
    /// delimiter.
    fn col(&self) -> ColOffset {
        ColOffset {
            abs: self.records > 0,
            value: self.rel,
        }
    }
}

/// One worker's pass-2 walk over its range: the DFA state, the bitmap
/// words being filled and the range totals, carried from chunk to chunk.
struct Pass2Walk<'a> {
    dfa: &'a Dfa,
    /// Records, fields, control, rejects.
    maps: &'a [AtomicBitmap; 4],
    /// The range's first and last bitmap words, which a neighbouring
    /// range may share.
    edges: (usize, usize),
    state: u8,
    /// The word being filled and its bits, per bitmap.
    wi: usize,
    acc: [u64; 4],
    totals: RangeMeta,
}

impl Pass2Walk<'_> {
    /// Write the filled word: a plain store inside the range, an atomic
    /// OR on the edge words a neighbour may also write.
    fn flush(&self, wi: usize, acc: [u64; 4]) {
        let shared = wi == self.edges.0 || wi == self.edges.1;
        for (map, bits) in self.maps.iter().zip(acc) {
            if shared {
                map.or_word(wi, bits);
            } else {
                map.store_word(wi, bits);
            }
        }
    }

    /// Walk `input[start..end]` into the range totals: one fused table
    /// step per byte.
    fn walk(&mut self, input: &[u8], start: usize, end: usize) {
        // Locals, not fields, through the byte loop: they stay in registers.
        let dfa = self.dfa;
        let mut state = self.state;
        let mut wi = self.wi;
        let mut acc = self.acc;
        let mut t = self.totals;
        {
            // One fused table step of byte `b` at `i` from `from`.
            let mut step = |i: usize, b: u8, from: u8| {
                let emit = Dfa::emit_in_row(dfa.byte_emit_row(b), from);
                let next = Dfa::next_in_row(dfa.byte_row(b), from);
                if emit.bits() == 0 {
                    return next; // pure data: no bitmap bit, no meta change
                }
                let w = i >> 6;
                if w != wi {
                    self.flush(wi, acc);
                    acc = [0; 4];
                    wi = w;
                }
                let bit = 1u64 << (i & 63);
                if emit.is_reject() {
                    acc[3] |= bit;
                }
                if emit.is_record_delimiter() {
                    acc[0] |= bit;
                    if t.records == 0 {
                        t.first_rel = t.rel;
                    } else {
                        t.min_cols = t.min_cols.min(t.rel + 1);
                        t.max_cols = t.max_cols.max(t.rel + 1);
                    }
                    t.records += 1;
                    t.rel = 0;
                } else if emit.is_field_delimiter() {
                    acc[1] |= bit;
                    t.rel += 1;
                } else if emit.is_control() {
                    acc[2] |= bit;
                }
                next
            };
            for (i, &b) in input[start..end].iter().enumerate() {
                state = step(start + i, b, state);
            }
        }
        self.state = state;
        self.wi = wi;
        self.acc = acc;
        self.totals = t;
    }
}

/// Run pass 2 plus the offset scans as two executor launches
/// (`parse/pass2` and `scan/offsets`).
///
/// # Panics
/// When `start_states` does not hold one state per chunk.
pub fn identify_columns_and_records(
    exec: &KernelExecutor,
    dfa: &Dfa,
    input: &[u8],
    chunk_size: usize,
    start_states: &[u8],
) -> Result<MetaPass, LaunchError> {
    let n = input.len();
    let cs = chunk_size.max(1);
    let n_chunks = num_chunks(n, cs);
    // The walks read only the entries at range starts; a short slice
    // would silently give wrong output, so check it in release builds too.
    assert_eq!(start_states.len(), n_chunks, "one start state per chunk");

    let maps: [AtomicBitmap; 4] = std::array::from_fn(|_| AtomicBitmap::new(n));

    // Kernel: one single-instance DFA walk per worker range of chunks,
    // from the range's first start state, accumulating the range totals.
    // The chunk stays the modelled unit: the walk polls for aborts per
    // chunk, and the counters charge the per-chunk metadata. Bitmap bits
    // accumulate in a local word per bitmap, flushed once per word with a
    // plain store — only the ≤ 2 edge words a neighbouring range shares
    // take an atomic OR. Every byte costs one fused table step
    // (`byte_emit_row` / `byte_row` fold the group lookup into the fetch).
    let (parts, totals) = exec.launch("parse/pass2", n_chunks, |grid, counters| {
        counters.bytes_read = n as u64;
        // Four bitmaps plus the per-chunk metadata.
        counters.bytes_written = (n as u64).div_ceil(2) + (n_chunks as u64) * 24;
        // The modelled per-chunk kernel: one fused table step per byte;
        // bitmap writes amortise per word.
        counters.parallel_ops = n as u64 + (n as u64).div_ceil(16);
        let parts = grid.partition(n_chunks);
        let mut totals = vec![RangeMeta::EMPTY; parts.len()];
        {
            let totals_w = SlotWriter::new(&mut totals);
            grid.run_partitioned(n_chunks, |w, chunks| {
                if chunks.is_empty() {
                    return;
                }
                let (lo, hi) = (chunks.start * cs, (chunks.end * cs).min(n));
                let mut walk = Pass2Walk {
                    dfa,
                    maps: &maps,
                    edges: (lo >> 6, (hi - 1) >> 6),
                    state: start_states[chunks.start],
                    wi: lo >> 6,
                    acc: [0; 4],
                    totals: RangeMeta::EMPTY,
                };
                for c in chunks {
                    grid.check_abort(c);
                    walk.walk(input, c * cs, ((c + 1) * cs).min(n));
                }
                walk.flush(walk.wi, walk.acc);
                // SAFETY: one slot per worker range, written by its worker.
                unsafe { totals_w.write(w, walk.totals) };
            });
        }
        (parts, totals)
    })?;

    let [records, fields, control, rejects] = maps.map(AtomicBitmap::into_bitmap);

    // The closure only borrows the bitmaps and range totals, so a retried
    // launch recomputes from unchanged inputs.
    let (
        ranges,
        total_record_delims,
        has_trailing_record,
        trailing_columns,
        observed_columns,
        observed_columns_closed,
    ) = exec.launch("scan/offsets", n_chunks, |grid, counters| {
        // The modelled scans run over the per-chunk metadata.
        counters.kernel_launches = 6; // two scans + reduction
        counters.bytes_read = (n_chunks as u64) * 24 * 2;
        counters.bytes_written = (n_chunks as u64) * 12;
        counters.parallel_ops = n_chunks as u64 * 4;

        // Offset scans over the range totals. A still-relative scanned
        // column means "no record delimiter anywhere before this range":
        // the input's first record starts at column 0, so relative values
        // are absolute here.
        let counts: Vec<u64> = totals.iter().map(|t| t.records).collect();
        let (record_bases, total_record_delims) =
            scan::exclusive_scan_total(grid, &counts, &scan::AddOp);
        let offs: Vec<ColOffset> = totals.iter().map(RangeMeta::col).collect();
        let (col_bases, col_total) = scan::exclusive_scan_total(grid, &offs, &ColOffsetOp);
        let ranges: Vec<RangeStart> = parts
            .iter()
            .zip(&record_bases)
            .zip(&col_bases)
            .map(|((chunks, &record), col)| RangeStart {
                chunks: chunks.clone(),
                record,
                col: col.value,
            })
            .collect();

        // Trailing record: any field delimiter or data symbol — any symbol
        // not control — after the last record delimiter.
        let tail = records.last_set_bit().map_or(0, |last| last + 1);
        let has_trailing_record = control.count_ones_from(tail) < (n - tail) as u64;
        let trailing_columns = col_total.value + 1;

        let num_records = total_record_delims + u64::from(has_trailing_record);

        // Observed min/max columns per record (for inference & validation):
        // a range's first closed record spans back to its base column.
        let (mut mn, mut mx) = (u32::MAX, 0u32);
        for (t, base) in totals.iter().zip(&col_bases) {
            if t.records > 0 {
                let cols = base.value + t.first_rel + 1;
                mn = mn.min(cols).min(t.min_cols);
                mx = mx.max(cols).max(t.max_cols);
            }
        }
        let observed_columns_closed = (total_record_delims > 0).then_some((mn, mx));
        if has_trailing_record {
            mn = mn.min(trailing_columns);
            mx = mx.max(trailing_columns);
        }
        let observed_columns = (num_records > 0).then_some((mn, mx));

        (
            ranges,
            total_record_delims,
            has_trailing_record,
            trailing_columns,
            observed_columns,
            observed_columns_closed,
        )
    })?;

    let num_records = total_record_delims + u64::from(has_trailing_record);
    Ok(MetaPass {
        records,
        fields,
        control,
        rejects,
        ranges,
        total_record_delims,
        num_records,
        has_trailing_record,
        trailing_columns,
        observed_columns,
        observed_columns_closed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::determine_contexts_fast;
    use crate::options::ScanAlgorithm;
    use parparaw_dfa::csv::rfc4180_paper;
    use parparaw_parallel::Grid;

    fn run(input: &[u8], chunk_size: usize, workers: usize) -> MetaPass {
        let dfa = rfc4180_paper();
        let exec = KernelExecutor::new(Grid::new(workers));
        let ctx =
            determine_contexts_fast(&exec, &dfa, input, chunk_size, ScanAlgorithm::Blocked, None)
                .unwrap();
        identify_columns_and_records(&exec, &dfa, input, chunk_size, &ctx.start_states).unwrap()
    }

    #[test]
    fn col_offset_op_matches_paper_definition() {
        let op = ColOffsetOp;
        let rel = |v| ColOffset {
            abs: false,
            value: v,
        };
        let abs = |v| ColOffset {
            abs: true,
            value: v,
        };
        assert_eq!(op.combine(&rel(1), &rel(2)), rel(3));
        assert_eq!(op.combine(&abs(5), &rel(2)), abs(7));
        assert_eq!(op.combine(&rel(5), &abs(0)), abs(0));
        assert_eq!(op.combine(&abs(5), &abs(1)), abs(1));
        // Identity laws.
        for x in [rel(3), abs(2)] {
            assert_eq!(op.combine(&op.identity(), &x), x);
            assert_eq!(op.combine(&x, &op.identity()), x);
        }
    }

    #[test]
    fn figure4_example_offsets() {
        // The Fig. 4 input with '?' as newline:
        // 1941,199.99,"Bookcase"\n1938,19.99,"Frame\n""Ribba"", black"\n
        // chunked into 10-byte chunks (the figure uses 6 chunks of ~10).
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let m = run(input, 10, 3);
        assert_eq!(m.total_record_delims, 2);
        assert_eq!(m.num_records, 2);
        assert!(!m.has_trailing_record);
        // Both records have 3 columns.
        assert_eq!(m.observed_columns, Some((3, 3)));
        // Record bitmap: positions of the two real record delimiters.
        assert_eq!(m.records.count_ones(), 2);
        assert!(m.records.get(22));
        assert_eq!(m.records.last_set_bit(), Some(input.len() - 1));
        // The quoted newline (inside "Frame\n""Ribba""…", position 40) is
        // NOT a record delimiter.
        assert_eq!(input[40], b'\n');
        assert!(!m.records.get(40));
        // Field bitmap: 2 commas per record outside quotes; the comma
        // inside "Ribba", black" is data.
        assert_eq!(m.fields.count_ones(), 4);
    }

    #[test]
    fn record_offsets_are_prefix_sums() {
        let input = b"a\nb\nc\nd\ne\nf\n";
        // Chunks of 4 bytes, one per worker: "a\nb\n" "c\nd\n" "e\nf\n"
        // → 2 records each.
        let m = run(input, 4, 3);
        let starts: Vec<_> = m
            .ranges
            .iter()
            .map(|r| (r.chunks.clone(), r.record))
            .collect();
        assert_eq!(starts, [(0..1, 0), (1..2, 2), (2..3, 4)]);
        assert_eq!(m.num_records, 6);
    }

    #[test]
    fn trailing_record_detected() {
        let m = run(b"a,b\nc,d", 3, 2);
        assert!(m.has_trailing_record);
        assert_eq!(m.num_records, 2);
        assert_eq!(m.trailing_columns, 2);
        // Trailing comma only.
        let m = run(b"a\nb,", 2, 1);
        assert!(m.has_trailing_record);
        assert_eq!(m.trailing_columns, 2);
        // Trailing quote-control only: "a\n\"" would leave ENC with zero
        // data — the opening quote is control, so no trailing record data…
        // but an enclosure implies a field is open; the DFA sees only
        // control, so no trailing record is counted.
        let m = run(b"a\n", 2, 1);
        assert!(!m.has_trailing_record);
        assert_eq!(m.num_records, 1);
    }

    #[test]
    fn no_delimiters_at_all() {
        let m = run(b"hello", 2, 2);
        assert_eq!(m.total_record_delims, 0);
        assert!(m.has_trailing_record);
        assert_eq!(m.num_records, 1);
        assert_eq!(m.observed_columns, Some((1, 1)));
        let m = run(b"", 2, 2);
        assert_eq!(m.num_records, 0);
        assert_eq!(m.observed_columns, None);
    }

    #[test]
    fn column_offsets_resolve_across_chunks() {
        // 1-byte chunks, one per worker: every range starts mid-record
        // somewhere. The range at byte 2 (the 'b') starts at column 1, the
        // one at byte 4 at column 2; after the newline (byte 6 = 'd') the
        // columns reset and the record advances.
        let input = b"a,b,c\nd,e,f\n";
        let m = run(input, 1, input.len());
        assert!(m
            .ranges
            .iter()
            .enumerate()
            .all(|(c, r)| r.chunks == (c..c + 1)));
        let cols: Vec<u32> = m.ranges.iter().map(|r| r.col).collect();
        assert_eq!(cols, [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]);
        let records: Vec<u64> = m.ranges.iter().map(|r| r.record).collect();
        assert_eq!(records, [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn inconsistent_columns_observed() {
        // Paper §4.1's example: "1,Apples\n2\n" — 2 then 1 columns.
        let m = run(b"1,Apples\n2\n", 4, 2);
        assert_eq!(m.observed_columns, Some((1, 2)));
        assert_eq!(m.num_records, 2);
    }

    #[test]
    fn rejects_are_flagged() {
        let m = run(b"a\"b\n", 2, 1); // quote inside unquoted field
        assert!(m.rejects.count_ones() > 0);
    }

    #[test]
    fn results_independent_of_chunk_size_and_workers() {
        let input = b"x,\"y,\ny\",z\nlong,\"quoted \"\" value\",3\ntail,r";
        let reference = run(input, 7, 1);
        for chunk_size in [1usize, 2, 5, 31, 100] {
            for workers in [1usize, 3] {
                let m = run(input, chunk_size, workers);
                assert_eq!(m.records, reference.records, "cs={chunk_size}");
                assert_eq!(m.fields, reference.fields, "cs={chunk_size}");
                assert_eq!(m.control, reference.control, "cs={chunk_size}");
                assert_eq!(m.num_records, reference.num_records);
                assert_eq!(m.observed_columns, reference.observed_columns);
                assert_eq!(m.has_trailing_record, reference.has_trailing_record);
            }
        }
    }
}
