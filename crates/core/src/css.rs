//! CSS index generation (paper §3.3, Fig. 5 / §4.1, Fig. 6).
//!
//! The *index* of a column's concatenated symbol string locates every
//! field: its starting offset within the CSS, its length, and the output
//! row it belongs to. The paper builds it per tagging mode — a run-length
//! encoding of the record tags (record-tagged), or the positions of the
//! terminators or flagged delimiters (inline-terminated, vector-delimited).
//! Here both partition kernels hand over the column's field runs, which
//! already carry each field's row and length and tile the CSS in order, so
//! the index is a merge over run metadata in every mode.

use crate::tagging::FieldRun;

/// Locations of a column's fields inside its CSS.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldIndex {
    /// Output row of each field.
    pub rows: Vec<u32>,
    /// Start offset of each field within the CSS.
    pub starts: Vec<u64>,
    /// End offset (exclusive) of each field within the CSS.
    pub ends: Vec<u64>,
}

impl FieldIndex {
    /// Number of fields.
    pub fn num_fields(&self) -> usize {
        self.rows.len()
    }

    /// Byte range of field `k`.
    pub fn field_range(&self, k: usize) -> std::ops::Range<usize> {
        self.starts[k] as usize..self.ends[k] as usize
    }

    /// Length in bytes of field `k`.
    pub fn field_len(&self, k: usize) -> usize {
        (self.ends[k] - self.starts[k]) as usize
    }
}

/// Build the index from a column's field runs (either partition kernel's
/// output) — no per-byte scan over the CSS at all.
///
/// Runs arrive in input order and tile the CSS, so each run's start is
/// the running sum of the lengths before it. A field split where one
/// tagging worker's range ends shows up as adjacent runs with the same
/// row, the first not closed; those merge. A `closed` run ends with the
/// field's terminator/delimiter symbol, which the field range excludes.
/// Record-tagged runs are never closed.
pub fn index_from_runs(runs: &[FieldRun]) -> FieldIndex {
    let mut rows: Vec<u32> = Vec::with_capacity(runs.len());
    let mut starts: Vec<u64> = Vec::with_capacity(runs.len());
    let mut ends: Vec<u64> = Vec::with_capacity(runs.len());
    let (mut start, mut prev_closed) = (0u64, true);
    for r in runs {
        let end = start + r.len() - u64::from(r.closed());
        match ends.last_mut() {
            // Continuation of a worker-split field.
            Some(last_end) if !prev_closed && rows.last() == Some(&r.row) => *last_end = end,
            _ => {
                rows.push(r.row);
                starts.push(start);
                ends.push(end);
            }
        }
        start += r.len();
        prev_closed = r.closed();
    }
    FieldIndex { rows, starts, ends }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(row: u32, len: u64, closed: bool) -> FieldRun {
        FieldRun::new(0, row, len, closed)
    }

    #[test]
    fn runs_index_merges_worker_split_fields() {
        // A record-tagged column whose second field was split where a
        // tagging worker's range ended: rows 0, 2, 2. Record 1 has no
        // symbols in this column (an empty field), so it is absent from
        // the index; conversion fills its default.
        let runs = [run(0, 8, false), run(2, 10, false), run(2, 12, false)];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 2]);
        assert_eq!(idx.field_range(0), 0..8);
        assert_eq!(idx.field_range(1), 8..30);
    }

    #[test]
    fn runs_index_merges_an_open_piece_with_its_closed_tail() {
        // Inline mode: "Apples\0" split after "App" — the open piece and
        // its closed tail form one field without the terminator.
        let runs = [run(0, 3, false), run(0, 4, true), run(1, 6, true)];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 1]);
        assert_eq!(idx.field_range(0), 0..6);
        assert_eq!(idx.field_range(1), 7..12);
    }

    #[test]
    fn runs_index_keeps_a_closed_run_apart_from_the_next() {
        // A closed run ends its field even when the next run has the same
        // row, and the next row's run always starts a new field.
        let idx = index_from_runs(&[run(0, 2, true), run(0, 3, true), run(1, 1, false)]);
        assert_eq!(idx.rows, vec![0, 0, 1]);
        assert_eq!(idx.field_range(0), 0..1);
        assert_eq!(idx.field_range(1), 2..4);
        assert_eq!(idx.field_range(2), 5..6);
    }

    #[test]
    fn runs_index_excludes_closing_delimiter() {
        // Inline/vector-style runs: Apples\0 | \0 | Pears\0 — the closed
        // flag drops the terminator from each range, and the len-1 closed
        // run is an empty field.
        let runs = [run(0, 7, true), run(1, 1, true), run(2, 6, true)];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 1, 2]);
        assert_eq!(idx.field_range(0), 0..6);
        assert_eq!(idx.field_range(1), 7..7);
        assert_eq!(idx.field_range(2), 8..13);
        // An unterminated tail keeps its full range.
        let idx = index_from_runs(&[run(0, 3, true), run(1, 2, false)]);
        assert_eq!(idx.field_range(1), 3..5);
        assert_eq!(index_from_runs(&[]).num_fields(), 0);
    }
}
