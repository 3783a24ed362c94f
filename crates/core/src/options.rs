//! Parser configuration.

use parparaw_columnar::Schema;
use parparaw_device::DeviceConfig;
use parparaw_parallel::{CancelToken, Grid, KernelExecutor, RetryPolicy};
use std::collections::HashSet;
use std::time::Duration;

/// What to do when a record fails validation (paper §4.3's "rejection of
/// malformed fields", made configurable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorPolicy {
    /// The first malformed record aborts the parse with
    /// [`crate::ParseError::MalformedRecord`] carrying its diagnostic.
    Strict,
    /// Malformed records are nulled out (the paper's behaviour) and
    /// diagnostics are collected up to a cap; past the cap only the
    /// dropped counter advances.
    Permissive {
        /// Maximum diagnostics retained on [`crate::ParseOutput`].
        max_diagnostics: usize,
    },
}

impl Default for ErrorPolicy {
    fn default() -> Self {
        ErrorPolicy::Permissive {
            max_diagnostics: 64,
        }
    }
}

impl ErrorPolicy {
    /// The diagnostic cap this policy implies (Strict keeps one: the
    /// record it aborts on).
    pub fn diagnostic_cap(&self) -> usize {
        match self {
            ErrorPolicy::Strict => 1,
            ErrorPolicy::Permissive { max_diagnostics } => *max_diagnostics,
        }
    }
}

/// Deterministic fault injection for testing the retry path: each kernel
/// launch attempt faults with probability `rate`, driven by a
/// SplitMix64 stream seeded with `seed` (same seed → same faults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjection {
    /// PRNG seed.
    pub seed: u64,
    /// Probability in `[0, 1]` that a launch attempt faults.
    pub rate: f64,
    /// `None` (the default): a firing fault fails the attempt before the
    /// job runs, exercising the retry ladder. `Some(d)`: a firing fault
    /// instead *stalls* the attempt by `d` inside the launch window, so
    /// with [`ParserOptions::launch_deadline`] set the watchdog sees a
    /// hung kernel — the deterministic way to test the timeout path.
    pub stall: Option<Duration>,
}

impl FaultInjection {
    /// Panic-mode injection at `rate`, seeded.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultInjection {
            seed,
            rate,
            stall: None,
        }
    }

    /// Stall-mode injection: `rate` of attempts sleep for `stall`.
    pub fn stalls(seed: u64, rate: f64, stall: Duration) -> Self {
        FaultInjection {
            seed,
            rate,
            stall: Some(stall),
        }
    }
}

/// How symbols are associated with their field after partitioning
/// (paper §4.1, Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaggingMode {
    /// Every symbol carries a four-byte record tag; the CSS index is built
    /// by run-length-encoding the tags. Fully robust: tolerates a varying
    /// number of fields per record.
    #[default]
    RecordTagged,
    /// Delimiters are replaced by a terminator symbol inside the CSS (like
    /// `\0` for C strings); the index is recovered from terminator
    /// positions. Requires a consistent number of columns per record and a
    /// terminator byte that never appears in field data.
    InlineTerminated {
        /// The terminator byte; the ASCII unit separator `0x1F` by default.
        terminator: u8,
    },
    /// Delimiters keep their original byte but an auxiliary boolean vector
    /// marks them; the index is recovered from the flags. Requires a
    /// consistent number of columns per record.
    VectorDelimited,
}

impl TaggingMode {
    /// The paper's default terminator suggestion (ASCII unit separator).
    pub fn inline_default() -> Self {
        TaggingMode::InlineTerminated { terminator: 0x1F }
    }

    /// Short name used in reports (`tagged`, `inline`, `delimited`).
    pub fn name(&self) -> &'static str {
        match self {
            TaggingMode::RecordTagged => "tagged",
            TaggingMode::InlineTerminated { .. } => "inline",
            TaggingMode::VectorDelimited => "delimited",
        }
    }
}

/// Which kernel transposes tagged symbols into per-column CSSs
/// (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionKernel {
    /// Single-pass field-run scatter: a histogram + exclusive prefix scan
    /// over the tag phase's field runs yields every field's destination,
    /// then whole fields move with one memcpy each.
    #[default]
    RunScatter,
    /// The paper's original stable LSD radix sort over per-symbol column
    /// tags (expanded from the field runs) — `passes × n × (key +
    /// payload)` bytes of sorted traffic. Kept as the reference for
    /// equivalence tests and ablations.
    RadixSort,
}

impl PartitionKernel {
    /// Short name used in reports (`run_scatter`, `radix_sort`).
    pub fn name(&self) -> &'static str {
        match self {
            PartitionKernel::RunScatter => "run_scatter",
            PartitionKernel::RadixSort => "radix_sort",
        }
    }
}

/// Which parallel prefix-scan implementation drives the pipeline's
/// context scan (the other scans are small enough not to matter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScanAlgorithm {
    /// Three-phase blocked scan (upsweep, spine, downsweep).
    #[default]
    Blocked,
    /// Merrill & Garland single-pass decoupled look-back — the algorithm
    /// the paper builds on (§2).
    DecoupledLookback,
}

/// Options controlling a parse.
#[derive(Debug, Clone)]
pub struct ParserOptions {
    /// Bytes per chunk (one virtual GPU thread per chunk). The paper finds
    /// 31 bytes optimal on the Titan X (§5.1) and we keep that default.
    pub chunk_size: usize,
    /// The CPU worker grid executing the virtual threads.
    pub grid: Grid,
    /// Tagging mode (paper §4.1).
    pub tagging: TaggingMode,
    /// Output schema. `None` infers the column count and (with
    /// [`ParserOptions::infer_types`]) the column types.
    pub schema: Option<Schema>,
    /// Infer column types when no schema is given; otherwise everything is
    /// Utf8.
    pub infer_types: bool,
    /// Parse only these column indexes (projection pushdown, §4.3:
    /// "skipping records and selecting columns"). `None` keeps all.
    pub selected_columns: Option<Vec<usize>>,
    /// Records (0-based, after the header) to skip entirely. Streaming
    /// parses count them from the stream start, not per partition.
    pub skip_records: HashSet<u64>,
    /// Rows (0-based, raw-newline bounded — *not* the same as records, see
    /// paper §4.3) to prune in an initial pass before parsing. Useful for
    /// dropping header lines. Whole-input parses only: streaming parses
    /// ([`crate::Parser::parse_stream`] and its resumable form,
    /// [`crate::Parser::partitions`]) reject it with
    /// [`crate::ParseError::SkipRowsInStreaming`].
    pub skip_rows: Vec<u64>,
    /// Treat the first record as a header: its fields become the output
    /// column names (when no schema is given) and it is excluded from the
    /// data.
    pub header: bool,
    /// Reject records whose column count differs from the schema /
    /// inferred count (§4.3, "inferring or validating number of columns").
    pub validate_column_count: bool,
    /// The simulated device used for cost accounting.
    pub device: DeviceConfig,
    /// Prefix-scan implementation for the context scan.
    pub scan_algorithm: ScanAlgorithm,
    /// Kernel used by the partition phase (§3.3). The run-scatter default
    /// moves whole fields in one pass; `RadixSort` restores the paper's
    /// per-symbol sort.
    pub partition_kernel: PartitionKernel,
    /// Step pass 1's collapsed inner loop two bytes at a time through a
    /// precomposed 64 Ki-entry byte-pair table (512 KiB, built once per
    /// parser). Halves the table loads but grows the working set past L1;
    /// off by default — the ablation harness measures both sides.
    pub pass1_pair_table: bool,
    /// What to do with malformed records (§4.3).
    pub error_policy: ErrorPolicy,
    /// Abort the parse with [`crate::ParseError::TooManyRejects`] once
    /// more than this many records reject. `None` is unbounded.
    pub max_rejects: Option<u64>,
    /// Retry policy for kernel launches: how many attempts a launch
    /// gets. Every retry runs on a fresh worker pool.
    pub retry: RetryPolicy,
    /// Optional deterministic fault injection, for testing retries.
    pub fault_injection: Option<FaultInjection>,
    /// Cancellation token: fire it from any thread to abort the parse
    /// mid-flight. Kernels poll it at chunk granularity; the parse
    /// surfaces [`crate::ParseError::Launch`] with a `Cancelled` kind
    /// (see [`crate::ParseError::is_cancelled`]), and streaming parses
    /// return a [`crate::streaming::Checkpoint`] to resume from.
    pub cancel: Option<CancelToken>,
    /// Per-launch deadline enforced by a watchdog thread. An attempt
    /// running past it unwinds cooperatively and is retried per `retry`
    /// (retry on a fresh pool → fail), with expiries counted in
    /// [`crate::PhaseTimings::timeouts`]. `None` (default) = unbounded.
    pub launch_deadline: Option<Duration>,
    /// Byte cap for the executor's scratch [`parparaw_parallel::BufferArena`].
    /// Under pressure the streaming path halves its partition size down
    /// to a floor instead of pooling past the cap; at the floor, Strict
    /// errors with [`crate::ParseError::MemoryBudgetExceeded`] while
    /// Permissive keeps going. `None` (default) = unlimited.
    pub memory_budget: Option<u64>,
}

impl Default for ParserOptions {
    fn default() -> Self {
        ParserOptions {
            chunk_size: 31,
            grid: Grid::auto(),
            tagging: TaggingMode::default(),
            schema: None,
            infer_types: true,
            selected_columns: None,
            skip_records: HashSet::new(),
            skip_rows: Vec::new(),
            header: false,
            validate_column_count: false,
            device: DeviceConfig::titan_x_pascal(),
            scan_algorithm: ScanAlgorithm::default(),
            partition_kernel: PartitionKernel::default(),
            pass1_pair_table: false,
            error_policy: ErrorPolicy::default(),
            max_rejects: None,
            retry: RetryPolicy::default(),
            fault_injection: None,
            cancel: None,
            launch_deadline: None,
            memory_budget: None,
        }
    }
}

impl ParserOptions {
    /// Options with an explicit schema.
    pub fn with_schema(schema: Schema) -> Self {
        ParserOptions {
            schema: Some(schema),
            ..ParserOptions::default()
        }
    }

    /// Builder-style chunk size override.
    pub fn chunk_size(mut self, bytes: usize) -> Self {
        self.chunk_size = bytes.max(1);
        self
    }

    /// Builder-style grid override.
    pub fn grid(mut self, grid: Grid) -> Self {
        self.grid = grid;
        self
    }

    /// Builder-style tagging-mode override.
    pub fn tagging(mut self, mode: TaggingMode) -> Self {
        self.tagging = mode;
        self
    }

    /// Builder-style partition-kernel override.
    pub fn partition_kernel(mut self, kernel: PartitionKernel) -> Self {
        self.partition_kernel = kernel;
        self
    }

    /// Builder-style byte-pair-table override.
    pub fn pass1_pair_table(mut self, enabled: bool) -> Self {
        self.pass1_pair_table = enabled;
        self
    }

    /// Builder-style error-policy override.
    pub fn error_policy(mut self, policy: ErrorPolicy) -> Self {
        self.error_policy = policy;
        self
    }

    /// Builder-style retry-policy override.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder-style cancellation token (keep a clone to fire it).
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Builder-style per-launch deadline.
    pub fn launch_deadline(mut self, deadline: Duration) -> Self {
        self.launch_deadline = Some(deadline);
        self
    }

    /// Builder-style arena memory budget in bytes.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// The device-level field size of paper §3.3, derived from the
    /// device's shared memory. It classifies Utf8 fields into the modelled
    /// collaboration tiers ([`crate::ParseStats::collaborative_fields`]);
    /// the output does not depend on it.
    pub fn effective_collaboration_threshold(&self) -> usize {
        self.device.collaboration_threshold_bytes()
    }

    /// Build a [`KernelExecutor`] configured with this options' grid,
    /// retry policy, and (if set) fault injector, cancellation token,
    /// launch deadline, and arena budget.
    pub fn build_executor(&self) -> KernelExecutor {
        let mut exec = KernelExecutor::new(self.grid.clone()).with_retry(self.retry);
        if let Some(fi) = self.fault_injection {
            exec = match fi.stall {
                None => exec.with_fault_injection(fi.seed, fi.rate),
                Some(stall) => exec.with_stall_injection(fi.seed, fi.rate, stall),
            };
        }
        if let Some(token) = &self.cancel {
            exec = exec.with_cancel(token.clone());
        }
        if let Some(deadline) = self.launch_deadline {
            exec = exec.with_deadline(deadline);
        }
        if let Some(budget) = self.memory_budget {
            exec = exec.with_arena_budget(budget);
        }
        exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let o = ParserOptions::default();
        assert_eq!(o.chunk_size, 31);
        assert_eq!(o.tagging, TaggingMode::RecordTagged);
        assert_eq!(o.partition_kernel, PartitionKernel::RunScatter);
        assert!(o.infer_types);
    }

    #[test]
    fn builders() {
        let o = ParserOptions::default()
            .chunk_size(0)
            .tagging(TaggingMode::inline_default());
        assert_eq!(o.chunk_size, 1, "chunk size clamps to 1");
        assert_eq!(o.tagging.name(), "inline");
    }

    #[test]
    fn threshold_defaults_from_device() {
        let o = ParserOptions::default();
        assert_eq!(
            o.effective_collaboration_threshold(),
            o.device.collaboration_threshold_bytes()
        );
        let o = ParserOptions {
            device: DeviceConfig {
                shared_mem_per_sm_kib: 8,
                ..DeviceConfig::titan_x_pascal()
            },
            ..ParserOptions::default()
        };
        assert_eq!(o.effective_collaboration_threshold(), 2048);
    }

    #[test]
    fn executor_reflects_fault_options() {
        let o = ParserOptions {
            retry: RetryPolicy::attempts(5),
            fault_injection: Some(FaultInjection::new(42, 0.25)),
            ..ParserOptions::default()
        };
        let exec = o.build_executor();
        assert_eq!(exec.retry_policy().max_attempts, 5);
        assert_eq!(exec.fault_injector().unwrap().rate(), 0.25);
        assert!(ParserOptions::default()
            .build_executor()
            .fault_injector()
            .is_none());
    }

    #[test]
    fn error_policy_caps() {
        assert_eq!(ErrorPolicy::Strict.diagnostic_cap(), 1);
        assert_eq!(ErrorPolicy::default().diagnostic_cap(), 64);
    }
}
