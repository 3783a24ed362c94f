//! Parse errors.

use crate::diag::RecordDiagnostic;
use parparaw_parallel::LaunchError;

/// Errors surfaced by the parsing pipeline. Under the default
/// [`Permissive`](crate::options::ErrorPolicy::Permissive) policy,
/// malformed *data* never errors — it lands in per-record reject flags and
/// diagnostics — so most of these are configuration and format-level
/// failures; [`ParseError::MalformedRecord`] and
/// [`ParseError::TooManyRejects`] appear only under
/// [`Strict`](crate::options::ErrorPolicy::Strict) or a `max_rejects`
/// budget, and [`ParseError::Launch`] when a kernel launch exhausts its
/// retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A selected column index is out of range.
    ColumnOutOfRange {
        /// The offending index.
        index: usize,
        /// Number of columns available.
        num_columns: usize,
    },
    /// Inline-terminated or vector-delimited tagging was requested but the
    /// input has an inconsistent number of columns per record.
    InconsistentColumns {
        /// Minimum observed columns per record.
        min: u32,
        /// Maximum observed columns per record.
        max: u32,
    },
    /// The inline terminator byte occurs in field data.
    TerminatorInData {
        /// The configured terminator byte.
        terminator: u8,
    },
    /// `ParserOptions::skip_rows` was set on a streaming parse. Row
    /// indexes refer to the whole input, but streaming parses each
    /// partition independently (and carry-over is sliced from the
    /// unpruned bytes), so applying them per partition would silently
    /// corrupt the output. Prune rows before streaming instead.
    SkipRowsInStreaming,
    /// A resumed stream's [`Checkpoint`](crate::streaming::Checkpoint)
    /// starts past the end of the input it was handed, so it cannot be a
    /// checkpoint of that input.
    ResumePastInput {
        /// The checkpoint's `resume_offset`.
        resume_offset: u64,
        /// Length of the input in bytes.
        input_len: u64,
    },
    /// A kernel launch failed (worker panic or injected fault) and
    /// exhausted its retry budget.
    Launch(LaunchError),
    /// Under [`ErrorPolicy::Strict`](crate::options::ErrorPolicy::Strict),
    /// the first malformed record aborts the parse with its diagnostic.
    MalformedRecord(RecordDiagnostic),
    /// The `max_rejects` budget was exceeded.
    TooManyRejects {
        /// Rejected records observed so far.
        rejects: u64,
        /// The configured budget.
        max_rejects: u64,
    },
    /// The arena memory budget kept being exceeded after the streaming
    /// path had already degraded its partition size to the floor. Only
    /// surfaced under [`ErrorPolicy::Strict`](crate::options::ErrorPolicy::Strict);
    /// the permissive policy keeps parsing at the floor (the budget is
    /// advisory there, recorded as degradations in
    /// [`PartitionReport`](crate::streaming::PartitionReport)).
    MemoryBudgetExceeded {
        /// The configured arena budget in bytes.
        budget_bytes: u64,
        /// The partition size in effect when the floor was hit.
        partition_size: usize,
    },
}

impl ParseError {
    /// Whether this error reports a fired
    /// [`CancelToken`](parparaw_parallel::CancelToken).
    pub fn is_cancelled(&self) -> bool {
        matches!(self, ParseError::Launch(e) if e.is_cancelled())
    }

    /// Whether this error reports an expired launch deadline (after the
    /// executor's retries were exhausted).
    pub fn is_timeout(&self) -> bool {
        matches!(self, ParseError::Launch(e) if e.is_timeout())
    }
}

impl From<LaunchError> for ParseError {
    fn from(e: LaunchError) -> Self {
        ParseError::Launch(e)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::ColumnOutOfRange { index, num_columns } => write!(
                f,
                "selected column {index} out of range (input has {num_columns} columns)"
            ),
            ParseError::InconsistentColumns { min, max } => write!(
                f,
                "tagging mode requires a constant column count, observed {min}..{max}"
            ),
            ParseError::TerminatorInData { terminator } => write!(
                f,
                "inline terminator byte 0x{terminator:02X} occurs in field data"
            ),
            ParseError::SkipRowsInStreaming => write!(
                f,
                "skip_rows indexes rows of the whole input and is not \
                 supported when parsing streaming partitions"
            ),
            ParseError::ResumePastInput {
                resume_offset,
                input_len,
            } => write!(
                f,
                "checkpoint resumes at byte {resume_offset}, past the end of \
                 the {input_len}-byte input"
            ),
            ParseError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            ParseError::MalformedRecord(d) => write!(f, "malformed record: {d}"),
            ParseError::TooManyRejects {
                rejects,
                max_rejects,
            } => write!(
                f,
                "{rejects} rejected records exceed the max_rejects budget of {max_rejects}"
            ),
            ParseError::MemoryBudgetExceeded {
                budget_bytes,
                partition_size,
            } => write!(
                f,
                "arena memory budget of {budget_bytes} bytes still exceeded at \
                 the partition-size floor ({partition_size} bytes)"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = ParseError::ColumnOutOfRange {
            index: 9,
            num_columns: 3,
        };
        assert!(e.to_string().contains("column 9"));
        let e = ParseError::InconsistentColumns { min: 2, max: 5 };
        assert!(e.to_string().contains("2..5"));
        let e = ParseError::TerminatorInData { terminator: 0x1F };
        assert!(e.to_string().contains("0x1F"));
        assert!(ParseError::SkipRowsInStreaming
            .to_string()
            .contains("skip_rows"));
        let e = ParseError::ResumePastInput {
            resume_offset: 11,
            input_len: 7,
        };
        assert!(e.to_string().contains("byte 11"));
        assert!(e.to_string().contains("7-byte"));
        let e = ParseError::TooManyRejects {
            rejects: 10,
            max_rejects: 4,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("4"));
        let e = ParseError::MalformedRecord(RecordDiagnostic {
            record: 3,
            column: None,
            byte_offset: None,
            reason: crate::diag::RejectReason::InvalidSyntax,
        });
        assert!(e.to_string().contains("record 3"));
    }
}
