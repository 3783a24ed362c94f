//! Phase timings, statistics, and the parse output container.

use parparaw_columnar::Table;
use parparaw_device::{CostModel, WorkProfile};
use parparaw_parallel::{Bitmap, LaunchRecord};
use std::time::Duration;

/// Wall-clock time spent in each pipeline phase (the categories of paper
/// Fig. 9: parse, scan, tag, partition, convert).
#[derive(Debug, Clone, Default)]
pub struct PhaseTimings {
    /// DFA simulation passes 1 and 2.
    pub parse: Duration,
    /// All prefix scans (context vectors, record/column offsets).
    pub scan: Duration,
    /// Symbol tagging (both compaction passes).
    pub tag: Duration,
    /// Partitioning by column: the run scatter by default, or the radix
    /// sort reference (see [`PartitionKernel`](crate::PartitionKernel)).
    pub partition: Duration,
    /// CSS indexing, inference, and type conversion.
    pub convert: Duration,
    /// Launch attempts beyond the first, across all phases (the
    /// fault-tolerance retries of the executor).
    pub retries: u64,
    /// Launches that degraded from the persistent pool to
    /// spawn-per-launch after repeated failure.
    pub degraded_launches: u64,
    /// Faults injected by a configured
    /// [`FaultInjector`](parparaw_parallel::FaultInjector).
    pub injected_faults: u64,
    /// Launch attempts expired by the watchdog (each unwound
    /// cooperatively and, retry budget permitting, re-run).
    pub timeouts: u64,
    /// Launches aborted by a fired
    /// [`CancelToken`](parparaw_parallel::CancelToken).
    pub cancelled_launches: u64,
}

impl PhaseTimings {
    /// Aggregate an executor launch log into the five phase buckets by
    /// each record's label prefix (`parse/pass1` → `parse`).
    pub fn from_log(log: &[LaunchRecord]) -> Self {
        let mut t = PhaseTimings::default();
        for r in log {
            match r.phase() {
                "parse" => t.parse += r.wall,
                "scan" => t.scan += r.wall,
                "tag" => t.tag += r.wall,
                "partition" => t.partition += r.wall,
                "convert" => t.convert += r.wall,
                _ => {}
            }
            t.retries += u64::from(r.attempts.saturating_sub(1));
            t.degraded_launches += u64::from(r.degraded);
            t.injected_faults += u64::from(r.injected_faults);
            t.timeouts += u64::from(r.timed_out_attempts);
            t.cancelled_launches += u64::from(r.cancelled);
        }
        t
    }

    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.parse + self.scan + self.tag + self.partition + self.convert
    }

    /// (label, duration) pairs in the paper's legend order.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("convert", self.convert),
            ("scan", self.scan),
            ("partition", self.partition),
            ("parse", self.parse),
            ("tag", self.tag),
        ]
    }
}

/// Simulated on-device timings derived from the measured work profiles
/// (see `parparaw-device`).
#[derive(Debug, Clone, Default)]
pub struct SimulatedTimings {
    /// Per-phase simulated seconds, aggregated into the same five
    /// categories as [`PhaseTimings`].
    pub phases: Vec<(String, f64)>,
    /// Total simulated seconds.
    pub total_seconds: f64,
    /// Simulated parsing rate in GB/s.
    pub rate_gbps: f64,
}

impl SimulatedTimings {
    /// Aggregate raw profiles into the five paper categories using the
    /// prefix of each profile label (`parse/pass1` → `parse`).
    pub fn from_profiles(model: &CostModel, profiles: &[WorkProfile], input_bytes: u64) -> Self {
        let mut phases: Vec<(String, f64)> = Vec::new();
        let mut total = 0.0;
        for p in profiles {
            let cat = p.label.split('/').next().unwrap_or("other").to_string();
            let secs = model.seconds(p);
            total += secs;
            match phases.iter_mut().find(|(c, _)| *c == cat) {
                Some((_, s)) => *s += secs,
                None => phases.push((cat, secs)),
            }
        }
        let rate_gbps = if total > 0.0 {
            input_bytes as f64 / 1e9 / total
        } else {
            0.0
        };
        SimulatedTimings {
            phases,
            total_seconds: total,
            rate_gbps,
        }
    }
}

/// Aggregate statistics of one parse.
#[derive(Debug, Clone, Default)]
pub struct ParseStats {
    /// Bytes of raw input.
    pub input_bytes: u64,
    /// Number of chunks (virtual threads) used.
    pub num_chunks: u64,
    /// Records in the output (after skipping).
    pub num_records: u64,
    /// Columns in the output (after selection).
    pub num_columns: u64,
    /// Records flagged as rejected (invalid transitions or wrong column
    /// count).
    pub rejected_records: u64,
    /// Individual field conversions that failed (value is null).
    pub conversion_rejects: u64,
    /// Utf8 fields the paper would hand to block- or device-level
    /// collaboration (§3.3): longer than a thread's budget. A modelled
    /// count; the host copies every Utf8 byte in one byte-split pass.
    pub collaborative_fields: u64,
    /// Of the collaborative fields, those within the device threshold:
    /// the block-level middle tier of paper §3.3.
    pub block_level_fields: u64,
    /// Observed (min, max) columns per raw record.
    pub observed_columns: Option<(u32, u32)>,
    /// Bytes of parsed columnar output (the device→host return size).
    pub output_bytes: u64,
    /// Whether the whole input ended in an accepting DFA state.
    pub input_valid: bool,
    /// Total number of non-empty fields across all columns.
    pub total_fields: u64,
    /// Diagnostics dropped because the policy's cap was reached.
    pub dropped_diagnostics: u64,
}

/// Render a per-kernel report of work profiles through a cost model —
/// the "EXPLAIN ANALYZE" of the pipeline.
pub fn explain_profiles(model: &CostModel, profiles: &[WorkProfile]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "kernel", "launches", "read MB", "write MB", "ops", "serial", "sim ms"
    );
    let mb = |b: u64| b as f64 / 1e6;
    let mut total = 0.0;
    for p in profiles {
        let secs = model.seconds(p);
        total += secs;
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>10.2} {:>10.2} {:>12} {:>10} {:>10.3}",
            p.label,
            p.kernel_launches,
            mb(p.bytes_read),
            mb(p.bytes_written),
            p.parallel_ops,
            p.serial_ops,
            secs * 1e3
        );
    }
    let _ = writeln!(out, "{:<22} {:>64.3}", "total", total * 1e3);
    out
}

/// Everything a parse returns.
#[derive(Debug)]
pub struct ParseOutput {
    /// The parsed columnar table.
    pub table: Table,
    /// Per-row rejection flags (rows stay in the table, as nulls).
    pub rejected: Bitmap,
    /// Bounded per-record diagnostics explaining each reject, sorted by
    /// record (cap set by the error policy; overflow counted in
    /// [`ParseStats::dropped_diagnostics`]).
    pub diagnostics: Vec<crate::diag::RecordDiagnostic>,
    /// Aggregate statistics.
    pub stats: ParseStats,
    /// Wall-clock phase timings on this host.
    pub timings: PhaseTimings,
    /// The work profile of every kernel launch, one per host launch.
    /// Pass 1's lane count is left at zero: the modelled per-chunk count
    /// is charged only by [`Parser::model`](crate::Parser::model), whose
    /// profiles feed the device cost model.
    pub profiles: Vec<WorkProfile>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_device::DeviceConfig;

    #[test]
    fn phase_totals() {
        let t = PhaseTimings {
            parse: Duration::from_millis(10),
            scan: Duration::from_millis(1),
            tag: Duration::from_millis(5),
            partition: Duration::from_millis(8),
            convert: Duration::from_millis(6),
            ..PhaseTimings::default()
        };
        assert_eq!(t.total(), Duration::from_millis(30));
        assert_eq!(t.phases().len(), 5);
    }

    #[test]
    fn explain_renders_all_kernels() {
        let model = CostModel::new(DeviceConfig::titan_x_pascal());
        let mut p = WorkProfile::new("parse/pass1");
        p.kernel_launches = 1;
        p.bytes_read = 5_000_000;
        let text = explain_profiles(&model, &[p]);
        assert!(text.contains("parse/pass1"));
        assert!(text.contains("5.00"));
        assert!(text.contains("total"));
    }

    #[test]
    fn simulated_aggregates_by_label_prefix() {
        let model = CostModel::new(DeviceConfig::titan_x_pascal());
        let mut p1 = WorkProfile::new("parse/pass1");
        p1.bytes_read = 1 << 30;
        let mut p2 = WorkProfile::new("parse/pass2");
        p2.bytes_read = 1 << 30;
        let mut s = WorkProfile::new("scan/context");
        s.bytes_read = 1 << 20;
        let sim = SimulatedTimings::from_profiles(&model, &[p1, p2, s], 1 << 30);
        assert_eq!(sim.phases.len(), 2);
        let parse = sim.phases.iter().find(|(c, _)| c == "parse").unwrap().1;
        let scan = sim.phases.iter().find(|(c, _)| c == "scan").unwrap().1;
        assert!(parse > scan);
        assert!(sim.rate_gbps > 0.0);
        assert!((sim.total_seconds - (parse + scan)).abs() < 1e-12);
    }
}
