//! Partitioning symbols by column (paper §3.3).
//!
//! Two kernels produce each column's *concatenated symbol string* (CSS)
//! and its column-grouped field runs:
//!
//! * **run scatter** (default) — the tag phase's field runs fully
//!   determine every symbol's destination: a per-column histogram over
//!   run lengths plus an exclusive prefix scan yields the CSS offsets,
//!   then whole fields move with one `copy_from_slice` each. One O(n)
//!   pass of contiguous memcpy and no per-symbol payload.
//! * **radix sort** — the paper's original formulation, kept as the
//!   reference kernel ([`crate::options::PartitionKernel::RadixSort`]):
//!   per-symbol column tags (and record tags in record-tagged mode) are
//!   expanded from the runs and a stable LSD radix sort on the column
//!   tags moves the symbols, `passes × n × (key + payload)` bytes of
//!   sorted traffic.
//!
//! Stability of the run scatter comes from the same *(column-major,
//! worker-minor)* scan ordering the radix scatter uses: worker `w`'s runs
//! of column `c` land directly after worker `w-1`'s runs of the same
//! column, so fields keep their input order within each column.
//!
//! The run scatter charges the runs it is handed: the host's per-range
//! runs on a parse, the paper's per-chunk runs when the cost model
//! ([`crate::model`]) walks one pass-2 range per chunk.

use crate::options::{PartitionKernel, TaggingMode};
use crate::tagging::{FieldRun, Tagged, RUN_BYTES};
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan::{exclusive_scan_seq, AddOp};
use parparaw_parallel::{histogram, radix, KernelExecutor, LaunchError};

/// A column's field runs after partitioning: grouped by column, input
/// order within each column, so column `c`'s runs tile its CSS.
#[derive(Debug)]
pub struct ColumnRuns {
    /// All columns' runs, concatenated in column order.
    pub runs: Vec<FieldRun>,
    /// Range of column `c`'s runs (`runs[col_starts[c]..col_starts[c+1]]`);
    /// length `num_columns + 1`.
    pub col_starts: Vec<u64>,
}

/// Column-partitioned symbol data.
#[derive(Debug)]
pub struct Partitioned {
    /// Symbols grouped by column (CSS of column `c` =
    /// `symbols[col_starts[c]..col_starts[c+1]]`).
    pub symbols: Vec<u8>,
    /// Record tag per symbol, parallel to `symbols`: the radix
    /// reference's sort payload in record-tagged mode; empty otherwise.
    pub rec_tags: Vec<u32>,
    /// Start offset of each column's CSS; length `num_columns + 1`.
    pub col_starts: Vec<u64>,
    /// Column-grouped field runs, the CSS index's input. Both kernels
    /// emit them, so this is always `Some`.
    pub runs: Option<ColumnRuns>,
}

/// Partition the tagged symbols into per-column CSSs as one instrumented
/// `partition` launch, using `kernel`.
///
/// The kernels only read the tag buffers, so a failed attempt retries
/// like any other launch; afterwards the buffers go back to the
/// executor's arena (so the next pipeline run's `tag` launch reuses
/// them). The output arrays come from it (labels `partition/symbols`,
/// `partition/runs`). The pipeline puts those outputs back once the
/// convert phase has consumed the CSSs, closing the reuse cycle across
/// streaming runs.
pub fn partition_by_column_with(
    exec: &KernelExecutor,
    tagged: Tagged,
    num_columns: usize,
    kernel: PartitionKernel,
) -> Result<Partitioned, LaunchError> {
    let out = match kernel {
        PartitionKernel::RunScatter => partition_run_scatter(exec, &tagged, num_columns),
        PartitionKernel::RadixSort => partition_radix_sort(exec, &tagged, num_columns),
    };
    let arena = exec.arena();
    arena.put_u8("tag/symbols", tagged.symbols);
    arena.put_vec("tag/runs", tagged.runs);
    out
}

/// The run-scatter kernel: (1) per-worker histograms over the field runs
/// counting runs and symbols per column, (2) column-major/worker-minor
/// exclusive prefix scans over both (reusing the radix sort's stability
/// shape), (3) a scatter pass moving each run's symbols with one memcpy.
/// Each worker's source cursor starts at the symbols of the workers
/// before it, which its histogram already counts.
fn partition_run_scatter(
    exec: &KernelExecutor,
    tagged: &Tagged,
    num_columns: usize,
) -> Result<Partitioned, LaunchError> {
    let n = tagged.symbols.len();
    let num_columns = num_columns.max(1);
    let num_runs = tagged.runs.len();

    exec.launch("partition", n, |grid, counters| {
        let arena = exec.arena();
        let in_runs = &tagged.runs;

        // (1) Per-worker local histograms over the runs: run count and
        // symbol count per column.
        let parts = grid.partition(num_runs);
        let num_workers = parts.len().max(1);
        let mut locals: Vec<(Vec<u64>, Vec<u64>)> =
            vec![(vec![0u64; num_columns], vec![0u64; num_columns]); num_workers];
        {
            let lw = SlotWriter::new(&mut locals);
            grid.run_partitioned(num_runs, |w, range| {
                let mut run_hist = vec![0u64; num_columns];
                let mut sym_hist = vec![0u64; num_columns];
                for i in range {
                    grid.check_abort(i);
                    let r = &in_runs[i];
                    run_hist[r.col as usize] += 1;
                    sym_hist[r.col as usize] += r.len();
                }
                // SAFETY: one slot per worker id, written by that worker only.
                unsafe { lw.write(w, (run_hist, sym_hist)) };
            });
        }

        // (2) Exclusive prefix sums in column-major, worker-minor order:
        // per-(worker, column) write cursors for both the symbol and the
        // run output, plus the per-column CSS offsets; and in worker order,
        // each worker's first source symbol.
        let mut sym_cursors: Vec<Vec<u64>> = vec![vec![0u64; num_columns]; num_workers];
        let mut run_cursors: Vec<Vec<u64>> = vec![vec![0u64; num_columns]; num_workers];
        let mut col_starts = Vec::with_capacity(num_columns + 1);
        let mut col_run_starts = Vec::with_capacity(num_columns + 1);
        let mut sym_running = 0u64;
        let mut run_running = 0u64;
        for c in 0..num_columns {
            col_starts.push(sym_running);
            col_run_starts.push(run_running);
            for w in 0..num_workers {
                sym_cursors[w][c] = sym_running;
                run_cursors[w][c] = run_running;
                sym_running += locals[w].1[c];
                run_running += locals[w].0[c];
            }
        }
        col_starts.push(sym_running);
        col_run_starts.push(run_running);
        debug_assert_eq!(sym_running as usize, n, "runs must cover every symbol");
        debug_assert_eq!(run_running as usize, num_runs);
        let src_starts = exclusive_scan_seq(
            &locals
                .iter()
                .map(|l| l.1.iter().sum())
                .collect::<Vec<u64>>(),
            &AddOp,
        );

        // (3) Stable scatter: each worker walks its contiguous run range
        // in order, moving whole fields with one memcpy each.
        let mut symbols = arena.take_u8("partition/symbols");
        symbols.resize(n, 0);
        let mut out_runs = arena.take_vec::<FieldRun>("partition/runs");
        out_runs.resize(num_runs, FieldRun::default());
        {
            let sym_w = SlotWriter::new(&mut symbols);
            let run_w = SlotWriter::new(&mut out_runs);
            let in_syms = &tagged.symbols[..];
            grid.run_partitioned(num_runs, |w, range| {
                let mut sym_cur = sym_cursors[w].clone();
                let mut run_cur = run_cursors[w].clone();
                let mut src = src_starts[w] as usize;
                for i in range {
                    grid.check_abort(i);
                    let r = in_runs[i];
                    let c = r.col as usize;
                    let len = r.len() as usize;
                    let dst = sym_cur[c] as usize;
                    sym_cur[c] += r.len();
                    // SAFETY: the scans give each (worker, column) its own
                    // disjoint symbol and run ranges, sized by the
                    // histogram of exactly these runs.
                    unsafe {
                        sym_w.write_slice(dst, &in_syms[src..src + len]);
                        run_w.write(run_cur[c] as usize, r);
                    }
                    src += len;
                    run_cur[c] += 1;
                }
            });
        }

        // Work counters model the paper's kernel, not this code: per
        // symbol the CSS byte both ways plus the record tag (tagged mode)
        // or delimiter flag (vector mode) — the mode traffic Figure 11
        // ranks; per run the run metadata through the histogram and
        // scatter passes. The scans are serial, over one histogram row
        // (run and symbol counts per column) plus the CSS and run
        // offsets, whatever the host's worker count.
        let runs = num_runs as u64;
        let per_symbol: u64 = 1 + match tagged.mode {
            TaggingMode::RecordTagged => 4,
            TaggingMode::InlineTerminated { .. } => 0,
            TaggingMode::VectorDelimited => 1,
        };
        let scan_cells = num_columns as u64 * 2 + (num_columns + 1) as u64 * 2;
        counters.kernel_launches = 2; // histogram + scatter
        counters.bytes_read = n as u64 * per_symbol + 2 * runs * RUN_BYTES;
        counters.bytes_written = n as u64 * per_symbol + runs * RUN_BYTES + scan_cells * 8;
        counters.parallel_ops = 2 * runs + n as u64;
        counters.serial_ops = scan_cells;

        Partitioned {
            symbols,
            rec_tags: Vec::new(),
            col_starts,
            runs: Some(ColumnRuns {
                runs: out_runs,
                col_starts: col_run_starts,
            }),
        }
    })
}

/// The paper's original stable LSD radix sort on per-symbol column tags,
/// kept as the reference kernel. Keys (and, in record-tagged mode, the
/// record-tag payload) are expanded from the runs; the column-grouped
/// runs are the input runs stably ordered by column.
fn partition_radix_sort(
    exec: &KernelExecutor,
    tagged: &Tagged,
    num_columns: usize,
) -> Result<Partitioned, LaunchError> {
    let n = tagged.symbols.len();
    let num_columns = num_columns.max(1);
    let max_key = (num_columns - 1) as u32;
    let digit_bits = 8u32;
    let passes = (32 - max_key.leading_zeros()).div_ceil(digit_bits).max(1);
    let record_tagged = tagged.mode == TaggingMode::RecordTagged;

    exec.launch("partition", n, |grid, counters| {
        let arena = exec.arena();
        let expand = |label: &str, tag: fn(&FieldRun) -> u32| {
            let mut out = arena.take_u32(label);
            for r in &tagged.runs {
                out.extend(std::iter::repeat_n(tag(r), r.len() as usize));
            }
            out
        };
        let mut keys = expand("partition/col-tags", |r| r.col);

        // The histogram over column tags gives the CSS offsets (reusing the
        // sort's histogram, as the paper notes).
        let hist = histogram::histogram(grid, &keys, num_columns);
        let mut col_starts = exclusive_scan_seq(&hist, &AddOp);
        col_starts.push(n as u64);

        let mut symbols = arena.take_u8("partition/symbols");
        symbols.extend_from_slice(&tagged.symbols);
        let mut rec_tags = arena.take_u32("partition/rec-tags");
        if record_tagged {
            let rows = expand("partition/row-tags", |r| r.row);
            let mut values: Vec<(u8, u32)> =
                symbols.iter().copied().zip(rows.iter().copied()).collect();
            arena.put_u32("partition/row-tags", rows);
            radix::sort_pairs_by_key_in(grid, arena, &mut keys, &mut values, max_key, digit_bits);
            symbols.clear();
            symbols.extend(values.iter().map(|v| v.0));
            rec_tags.extend(values.iter().map(|v| v.1));
        } else {
            radix::sort_pairs_by_key_in(grid, arena, &mut keys, &mut symbols, max_key, digit_bits);
        }
        arena.put_u32("partition/col-tags", keys);

        // Column-grouped runs: a stable counting sort of the runs by
        // column.
        let mut col_run_starts = vec![0u64; num_columns + 1];
        for r in &tagged.runs {
            col_run_starts[r.col as usize + 1] += 1;
        }
        for c in 0..num_columns {
            col_run_starts[c + 1] += col_run_starts[c];
        }
        let mut run_cur = col_run_starts.clone();
        let mut out_runs = vec![FieldRun::default(); tagged.runs.len()];
        for r in &tagged.runs {
            let c = r.col as usize;
            out_runs[run_cur[c] as usize] = *r;
            run_cur[c] += 1;
        }

        // Each pass reads and writes (key + payload) for every item — the
        // paper's mode payloads: symbol + record tag, symbol + delimiter
        // flag, or the symbol alone — plus the column-tag histogram and
        // the (serial) offset scan.
        let mode_bytes: u64 = 4 + match tagged.mode {
            TaggingMode::RecordTagged => 5,
            TaggingMode::InlineTerminated { .. } => 1,
            TaggingMode::VectorDelimited => 2,
        };
        counters.kernel_launches = 3 * passes + 1;
        counters.bytes_read = passes as u64 * n as u64 * mode_bytes + n as u64 * 4;
        counters.bytes_written =
            passes as u64 * n as u64 * mode_bytes + (num_columns + 1) as u64 * 8;
        counters.parallel_ops = passes as u64 * n as u64 * 2 + n as u64;
        counters.serial_ops = (num_columns + 1) as u64;

        Partitioned {
            symbols,
            rec_tags,
            col_starts,
            runs: Some(ColumnRuns {
                runs: out_runs,
                col_starts: col_run_starts,
            }),
        }
    })
}

impl Partitioned {
    /// The CSS byte slice of column `c`.
    pub fn css(&self, c: usize) -> &[u8] {
        &self.symbols[self.col_starts[c] as usize..self.col_starts[c + 1] as usize]
    }

    /// The field runs of column `c`.
    pub fn col_runs(&self, c: usize) -> Option<&[FieldRun]> {
        self.runs
            .as_ref()
            .map(|r| &r.runs[r.col_starts[c] as usize..r.col_starts[c + 1] as usize])
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.col_starts.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::determine_contexts_fast;
    use crate::css::index_from_runs;
    use crate::meta::identify_columns_and_records;
    use crate::options::ScanAlgorithm;
    use crate::tagging::{tag_symbols, TagConfig};
    use parparaw_dfa::csv::rfc4180_paper;
    use parparaw_parallel::Grid;

    fn tag(input: &[u8], mode: TaggingMode, cols: usize) -> (KernelExecutor, Tagged) {
        let dfa = rfc4180_paper();
        let exec = KernelExecutor::new(Grid::new(3));
        let ctx =
            determine_contexts_fast(&exec, &dfa, input, 7, ScanAlgorithm::Blocked, None).unwrap();
        let meta = identify_columns_and_records(&exec, &dfa, input, 7, &ctx.start_states).unwrap();
        let col_map: Vec<Option<u32>> = (0..cols as u32).map(Some).collect();
        let cfg = TagConfig {
            mode,
            col_map: &col_map,
            skip_records: &[],
            expected_columns: None,
            num_out_rows: meta.num_records,
            diags: None,
        };
        let t = tag_symbols(&exec, input, 7, &meta, &cfg).unwrap();
        (exec, t)
    }

    #[test]
    fn figure5_record_tagged_partitioning() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let (exec, t) = tag(input, TaggingMode::RecordTagged, 3);
        let p = partition_by_column_with(&exec, t, 3, PartitionKernel::RunScatter).unwrap();
        // Paper Fig. 5: the three columns' CSSs.
        assert_eq!(p.css(0), b"19411938");
        assert_eq!(p.css(1), b"199.9919.99");
        assert_eq!(p.css(2), b"BookcaseFrame\n\"Ribba\", black");
        // Rows stay attached to their fields within a column.
        let index = index_from_runs(p.col_runs(0).unwrap());
        assert_eq!(index.rows, [0, 1]);
        assert_eq!((index.field_range(0), index.field_range(1)), (0..4, 4..8));
        assert_eq!(p.num_columns(), 3);
    }

    #[test]
    fn figure6_inline_partitioning() {
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, t) = tag(input, TaggingMode::InlineTerminated { terminator: 0 }, 2);
        let p = partition_by_column_with(&exec, t, 2, PartitionKernel::RunScatter).unwrap();
        assert_eq!(p.css(0), b"0\x001\x002\x00");
        assert_eq!(p.css(1), b"Apples\0\0Pears\0");
        assert!(p.rec_tags.is_empty());
    }

    #[test]
    fn figure6_vector_partitioning() {
        let input = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        let (exec, t) = tag(input, TaggingMode::VectorDelimited, 2);
        let p = partition_by_column_with(&exec, t, 2, PartitionKernel::RunScatter).unwrap();
        assert_eq!(p.css(1), b"Apples\n\nPears\n");
        // The paper's flag vector marks 6, 7 and 13: the closing symbol
        // of each closed run.
        let mut end = 0;
        let mut delim_positions = Vec::new();
        for r in p.col_runs(1).unwrap() {
            end += r.len();
            if r.closed() {
                delim_positions.push(end - 1);
            }
        }
        assert_eq!(delim_positions, vec![6, 7, 13]);
    }

    #[test]
    fn many_columns_take_multiple_radix_passes() {
        // 300 columns forces two 8-bit digits on the radix path; the
        // run-scatter path is digit-free but must agree byte for byte.
        let cols = 300usize;
        let row: String = (0..cols)
            .map(|c| format!("{c}"))
            .collect::<Vec<_>>()
            .join(",");
        let input = format!("{row}\n{row}\n");
        let (exec, t) = tag(input.as_bytes(), TaggingMode::RecordTagged, cols);
        let radix =
            partition_by_column_with(&exec, t.clone(), cols, PartitionKernel::RadixSort).unwrap();
        let p = partition_by_column_with(&exec, t, cols, PartitionKernel::RunScatter).unwrap();
        assert_eq!(p.css(0), b"00");
        assert_eq!(p.css(299), b"299299");
        assert_eq!(p.css(42), b"4242");
        assert_eq!(p.symbols, radix.symbols);
        assert_eq!(p.col_starts, radix.col_starts);
        assert_eq!(p.runs.unwrap().runs, radix.runs.unwrap().runs);
    }

    #[test]
    fn empty_input_partitions() {
        let (exec, t) = tag(b"", TaggingMode::RecordTagged, 1);
        let p = partition_by_column_with(&exec, t, 1, PartitionKernel::RunScatter).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert!(p.css(0).is_empty());
    }

    #[test]
    fn run_scatter_matches_radix_across_modes() {
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        let uniform = b"0,\"Apples\"\n1,\n2,\"Pears\"\n";
        for (input, cols, mode) in [
            (&input[..], 3, TaggingMode::RecordTagged),
            (&uniform[..], 2, TaggingMode::RecordTagged),
            (
                &uniform[..],
                2,
                TaggingMode::InlineTerminated { terminator: 0 },
            ),
            (&uniform[..], 2, TaggingMode::VectorDelimited),
        ] {
            let (exec, t) = tag(input, mode, cols);
            let radix =
                partition_by_column_with(&exec, t.clone(), cols, PartitionKernel::RadixSort)
                    .unwrap();
            let scatter =
                partition_by_column_with(&exec, t, cols, PartitionKernel::RunScatter).unwrap();
            assert_eq!(scatter.symbols, radix.symbols, "{}", mode.name());
            assert_eq!(scatter.col_starts, radix.col_starts, "{}", mode.name());
            let runs = scatter.runs.unwrap().runs;
            assert_eq!(runs, radix.runs.unwrap().runs, "{}", mode.name());
            // The radix payload carried each symbol's record tag along:
            // it must agree with the row of the run the symbol sits in.
            if mode == TaggingMode::RecordTagged {
                let mut rows = Vec::new();
                for r in &runs {
                    rows.extend(std::iter::repeat_n(r.row, r.len() as usize));
                }
                assert_eq!(radix.rec_tags, rows);
            } else {
                assert!(radix.rec_tags.is_empty());
            }
        }
    }

    #[test]
    fn column_runs_tile_each_css_in_order() {
        // Long fields on 3 workers, so some fields split where a worker's
        // range ends and reach the column as adjacent runs.
        let text = |c: usize, row: usize| match c {
            0 => row.to_string(),
            1 => "xy".repeat(row % 9),
            _ => (row * 7).to_string(),
        };
        let mut input = String::new();
        for row in 0..40 {
            input += &format!("{},\"{}\",{}\n", text(0, row), text(1, row), text(2, row));
        }
        let modes = [
            TaggingMode::RecordTagged,
            TaggingMode::InlineTerminated { terminator: 0 },
            TaggingMode::VectorDelimited,
        ];
        let mut splits = 0;
        for mode in modes {
            for kernel in [PartitionKernel::RunScatter, PartitionKernel::RadixSort] {
                let (exec, t) = tag(input.as_bytes(), mode, 3);
                let p = partition_by_column_with(&exec, t, 3, kernel).unwrap();
                let at = format!("{} {kernel:?}", mode.name());
                for c in 0..3 {
                    let runs = p.col_runs(c).unwrap();
                    assert!(runs.iter().all(|r| r.col as usize == c), "{at}");
                    let total: u64 = runs.iter().map(|r| r.len()).sum();
                    assert_eq!(total as usize, p.css(c).len(), "{at}");
                    // The implicit starts locate every field's text.
                    let index = index_from_runs(runs);
                    for k in 0..index.num_fields() {
                        let want = text(c, index.rows[k] as usize);
                        assert_eq!(&p.css(c)[index.field_range(k)], want.as_bytes(), "{at}");
                    }
                    if c == 0 {
                        assert_eq!(index.rows, (0..40).collect::<Vec<u32>>(), "{at}");
                    }
                    splits += runs.len() - index.num_fields();
                }
            }
        }
        assert!(splits > 0, "no field split across workers");
    }
}
