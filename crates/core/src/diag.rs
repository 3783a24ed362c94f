//! Per-record diagnostics (paper §4.3's format-validation capabilities,
//! surfaced as data instead of anonymous reject bits).
//!
//! The tagging and conversion kernels mark malformed records in a reject
//! bitmap; this module turns those marks into bounded, human-readable
//! [`RecordDiagnostic`] values. Collection is capped (see
//! [`crate::options::ErrorPolicy::Permissive`]) so adversarial inputs
//! cannot balloon memory: past the cap only a counter advances.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a record (or one field of it) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The DFA flagged the record as syntactically invalid (e.g. a stray
    /// quote or an unterminated quoted field).
    InvalidSyntax,
    /// The record's column count differs from the expected count.
    ColumnCountMismatch {
        /// Columns the table expects.
        expected: u32,
        /// Columns this record actually has.
        got: u32,
    },
    /// A field failed typed conversion (paper Fig. 5's reject flag).
    ConversionFailed {
        /// Name of the target data type.
        data_type: String,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::InvalidSyntax => write!(f, "invalid syntax"),
            RejectReason::ColumnCountMismatch { expected, got } => {
                write!(f, "expected {expected} columns, got {got}")
            }
            RejectReason::ConversionFailed { data_type } => {
                write!(f, "value does not convert to {data_type}")
            }
        }
    }
}

/// One malformed record (or field), with enough context to find it in the
/// raw input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDiagnostic {
    /// Zero-based output record index (after header/skip handling).
    pub record: u64,
    /// Column index, when the problem is attributable to one field.
    pub column: Option<u32>,
    /// Byte offset from the start of the input, header included (a
    /// streamed parse counts from the stream start), when known.
    pub byte_offset: Option<u64>,
    /// Why the record was rejected.
    pub reason: RejectReason,
}

impl std::fmt::Display for RecordDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "record {}", self.record)?;
        if let Some(col) = self.column {
            write!(f, ", column {col}")?;
        }
        if let Some(off) = self.byte_offset {
            write!(f, " (byte {off})")?;
        }
        write!(f, ": {}", self.reason)
    }
}

/// Bounded, thread-safe diagnostic collector shared by the parallel
/// kernels. Past the cap only a counter advances; the sink keeps the `cap`
/// lowest entries by (record, column, byte offset), so which diagnostics
/// survive does not depend on the order the workers push them in.
#[derive(Debug)]
pub struct DiagSink {
    cap: usize,
    /// Output records and input bytes before the parsed input (earlier
    /// stream partitions, a split-off header), added to every entry.
    pub(crate) rows_before: u64,
    bytes_before: u64,
    items: Mutex<BTreeMap<DiagKey, RecordDiagnostic>>,
    dropped: AtomicU64,
}

/// A diagnostic's order and identity: (record, column, byte offset).
type DiagKey = (u64, Option<u32>, Option<u64>);

impl DiagSink {
    /// A sink retaining at most `cap` diagnostics.
    pub fn new(cap: usize) -> Self {
        DiagSink {
            cap,
            rows_before: 0,
            bytes_before: 0,
            items: Mutex::new(BTreeMap::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The same sink, placing entries `rows` output records and `bytes`
    /// input bytes further in.
    pub(crate) fn after(self, rows: u64, bytes: u64) -> Self {
        DiagSink {
            rows_before: rows,
            bytes_before: bytes,
            ..self
        }
    }

    /// Record one diagnostic (counted but not stored once full). A
    /// retried launch that re-marks the same record does not duplicate
    /// it.
    pub fn push(&self, mut d: RecordDiagnostic) {
        d.record += self.rows_before;
        d.byte_offset = d.byte_offset.map(|b| b + self.bytes_before);
        let mut items = match self.items.lock() {
            Ok(g) => g,
            // A panicking kernel is already being converted into a
            // LaunchError; losing one diagnostic is acceptable.
            Err(poisoned) => poisoned.into_inner(),
        };
        items
            .entry((d.record, d.column, d.byte_offset))
            .or_insert(d);
        if items.len() > self.cap {
            items.pop_last();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of diagnostics dropped because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain in (record, column, byte offset) order.
    pub fn into_sorted(self) -> Vec<RecordDiagnostic> {
        let items = self.items.into_inner().unwrap_or_else(|p| p.into_inner());
        items.into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(record: u64) -> RecordDiagnostic {
        RecordDiagnostic {
            record,
            column: None,
            byte_offset: None,
            reason: RejectReason::InvalidSyntax,
        }
    }

    #[test]
    fn cap_counts_overflow() {
        let sink = DiagSink::new(2);
        for r in 0..5 {
            sink.push(diag(r));
        }
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.into_sorted().len(), 2);
    }

    #[test]
    fn cap_keeps_the_lowest_records_whatever_the_push_order() {
        let sink = DiagSink::new(2);
        for r in [4, 1, 3, 0, 2] {
            sink.push(diag(r));
        }
        let kept: Vec<u64> = sink.into_sorted().iter().map(|d| d.record).collect();
        assert_eq!(kept, [0, 1]);
    }

    #[test]
    fn sorted_and_deduped() {
        let sink = DiagSink::new(16);
        sink.push(diag(3));
        sink.push(diag(1));
        sink.push(diag(3)); // duplicate from a retried launch
        sink.push(diag(2));
        let out = sink.into_sorted();
        assert_eq!(out.iter().map(|d| d.record).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn displays() {
        let d = RecordDiagnostic {
            record: 7,
            column: Some(2),
            byte_offset: Some(120),
            reason: RejectReason::ColumnCountMismatch {
                expected: 4,
                got: 3,
            },
        };
        let s = d.to_string();
        assert!(s.contains("record 7"), "{s}");
        assert!(s.contains("column 2"), "{s}");
        assert!(s.contains("byte 120"), "{s}");
        assert!(s.contains("expected 4 columns, got 3"), "{s}");
        let c = RejectReason::ConversionFailed {
            data_type: "Int64".into(),
        };
        assert!(c.to_string().contains("Int64"));
    }
}
