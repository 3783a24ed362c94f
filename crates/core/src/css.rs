//! CSS index generation (paper §3.3, Fig. 5 / §4.1, Fig. 6).
//!
//! The *index* of a column's concatenated symbol string locates every
//! field: its starting offset within the CSS, its length, and the output
//! row it belongs to. The paper builds it per tagging mode — a run-length
//! encoding of the record tags (record-tagged), or the positions of the
//! terminators or flagged delimiters (inline-terminated, vector-delimited).
//! Here both partition kernels hand over the column's field runs, which
//! already carry each field's row, start and length, so the index is a
//! merge over run metadata in every mode.

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
/// Runs arrive in input order with CSS-relative, contiguous starts. A
/// field split where one tagging worker's range ends shows up as adjacent
/// runs with the same row and touching offsets; those merge. A `closed`
/// run ends with the field's terminator/delimiter symbol, which the field
/// range excludes. Record-tagged runs are never closed.
pub fn index_from_runs(runs: &[FieldRun]) -> FieldIndex {
    let mut rows: Vec<u32> = Vec::with_capacity(runs.len());
    let mut starts: Vec<u64> = Vec::with_capacity(runs.len());
    let mut ends: Vec<u64> = Vec::with_capacity(runs.len());
    for r in runs {
        let end = r.start + r.len - u64::from(r.closed);
        if let (Some(&last_row), Some(last_end)) = (rows.last(), ends.last_mut()) {
            if last_row == r.row && *last_end == r.start {
                // Continuation of a chunk-split field.
                *last_end = end;
                continue;
            }
        }
        rows.push(r.row);
        starts.push(r.start);
        ends.push(end);
    }
    FieldIndex { rows, starts, ends }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(col: u32, row: u32, start: u64, len: u64, closed: bool) -> FieldRun {
        FieldRun {
            col,
            row,
            start,
            len,
            closed,
            chunks: 1,
        }
    }

    #[test]
    fn runs_index_merges_chunk_split_fields() {
        // A record-tagged column whose second field was split where a
        // tagging worker's range ended: rows 0, 2, 2 with touching offsets.
        // Record 1 has no symbols in this column (an empty field), so it
        // is absent from the index; conversion fills its default.
        let runs = [
            run(2, 0, 0, 8, false),
            run(2, 2, 8, 10, false),
            run(2, 2, 18, 12, false),
        ];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 2]);
        assert_eq!(idx.field_range(0), 0..8);
        assert_eq!(idx.field_range(1), 8..30);
    }

    #[test]
    fn runs_index_excludes_closing_delimiter() {
        // Inline/vector-style runs: Apples\0 | \0 | Pears\0 — the closed
        // flag drops the terminator from each range, and the len-1 closed
        // run is an empty field.
        let runs = [
            run(1, 0, 0, 7, true),
            run(1, 1, 7, 1, true),
            run(1, 2, 8, 6, true),
        ];
        let idx = index_from_runs(&runs);
        assert_eq!(idx.rows, vec![0, 1, 2]);
        assert_eq!(idx.field_range(0), 0..6);
        assert_eq!(idx.field_range(1), 7..7);
        assert_eq!(idx.field_range(2), 8..13);
        // An unterminated tail keeps its full range.
        let idx = index_from_runs(&[run(0, 0, 0, 3, true), run(0, 1, 3, 2, false)]);
        assert_eq!(idx.field_range(1), 3..5);
        assert_eq!(index_from_runs(&[]).num_fields(), 0);
    }
}
