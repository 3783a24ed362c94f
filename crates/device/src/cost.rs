//! The work → time cost model.
//!
//! Each pipeline phase reports a [`WorkProfile`]: how many kernel launches
//! it needed, how many bytes it read and wrote from device memory, how many
//! data-dependent *symbol operations* it executed, and how much of its work
//! is inherently serial (zero for every ParPaRaw phase — that is the point
//! of the paper — but nonzero for the sequential-context baseline).
//!
//! Simulated time is
//!
//! ```text
//! launches · launch_overhead
//!   + max(bytes / mem_bandwidth, parallel_ops / compute_throughput)
//!   + serial_ops / single_core_throughput
//! ```
//!
//! i.e. kernels are either memory-bound or compute-bound (whichever
//! dominates), launches pay a fixed overhead (the effect that makes tiny
//! inputs inefficient, paper §5.1), and serial work obeys Amdahl.

use crate::config::DeviceConfig;
use parparaw_parallel::LaunchRecord;

/// Measured work of one phase or kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkProfile {
    /// Phase label (e.g. `parse`, `scan`, `tag`, `partition`, `convert`).
    pub label: String,
    /// Number of kernel launches performed.
    pub kernel_launches: u32,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
    /// Data-dependent operations that parallelise across all cores.
    pub parallel_ops: u64,
    /// Operations that must run on a single core (Amdahl's serial part).
    pub serial_ops: u64,
}

impl WorkProfile {
    /// A new profile with a label.
    pub fn new(label: &str) -> Self {
        WorkProfile {
            label: label.to_string(),
            ..Default::default()
        }
    }

    /// Build a profile straight from a [`KernelExecutor`] launch record —
    /// the cost model sees exactly one profile per kernel, with the
    /// label the executor logged.
    ///
    /// [`KernelExecutor`]: parparaw_parallel::KernelExecutor
    pub fn from_launch(record: &LaunchRecord) -> Self {
        WorkProfile {
            label: record.label.clone(),
            kernel_launches: record.kernel_launches,
            bytes_read: record.bytes_read,
            bytes_written: record.bytes_written,
            parallel_ops: record.parallel_ops,
            serial_ops: record.serial_ops,
        }
    }

    /// Merge another profile into this one (summing all counters).
    pub fn merge(&mut self, other: &WorkProfile) {
        self.kernel_launches += other.kernel_launches;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.parallel_ops += other.parallel_ops;
        self.serial_ops += other.serial_ops;
    }

    /// Total bytes moved through device memory.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// Converts [`WorkProfile`]s to simulated seconds on a [`DeviceConfig`].
#[derive(Debug, Clone)]
pub struct CostModel {
    device: DeviceConfig,
}

impl CostModel {
    /// A model for the given device.
    pub fn new(device: DeviceConfig) -> Self {
        CostModel { device }
    }

    /// The underlying device.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// Simulated seconds for one profile.
    pub fn seconds(&self, p: &WorkProfile) -> f64 {
        let launch = p.kernel_launches as f64 * self.device.kernel_launch_overhead_us * 1e-6;
        let mem = p.bytes_total() as f64 / (self.device.mem_bandwidth_gbps * 1e9);
        let compute = p.parallel_ops as f64 / self.device.compute_ops_per_sec();
        let serial = p.serial_ops as f64 / self.device.serial_ops_per_sec();
        launch + mem.max(compute) + serial
    }

    /// Simulated seconds for a sequence of phases (they run back to back
    /// on the device).
    pub fn seconds_total(&self, phases: &[WorkProfile]) -> f64 {
        phases.iter().map(|p| self.seconds(p)).sum()
    }

    /// Simulated parsing rate in GB/s for `input_bytes` of input.
    pub fn rate_gbps(&self, phases: &[WorkProfile], input_bytes: u64) -> f64 {
        let t = self.seconds_total(phases);
        if t <= 0.0 {
            return 0.0;
        }
        input_bytes as f64 / 1e9 / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::new(DeviceConfig::titan_x_pascal())
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let m = model();
        let mut p = WorkProfile::new("tiny");
        p.kernel_launches = 100;
        p.bytes_read = 1024;
        let t = m.seconds(&p);
        // 100 launches * 7.5us = 750us, memory time is negligible.
        assert!((t - 750e-6).abs() < 20e-6, "t={t}");
    }

    #[test]
    fn memory_bound_kernel() {
        let m = model();
        let mut p = WorkProfile::new("mem");
        p.kernel_launches = 1;
        p.bytes_read = (m.device().mem_bandwidth_gbps * 1e9) as u64; // 1 second
        let t = m.seconds(&p);
        assert!((t - 1.0).abs() < 0.01, "t={t}");
    }

    #[test]
    fn max_of_memory_and_compute() {
        let m = model();
        let mut p = WorkProfile::new("x");
        p.bytes_read = (m.device().mem_bandwidth_gbps * 1e9) as u64; // 1s of memory
        p.parallel_ops = (m.device().compute_ops_per_sec() * 2.0) as u64; // 2s compute
        let t = m.seconds(&p);
        assert!((t - 2.0).abs() < 0.05, "overlap should take the max, t={t}");
    }

    #[test]
    fn serial_work_is_amdahl() {
        let m = model();
        let mut p = WorkProfile::new("serial");
        p.serial_ops = (m.device().serial_ops_per_sec() * 0.5) as u64;
        let t = m.seconds(&p);
        assert!((t - 0.5).abs() < 0.01, "t={t}");
        // The same ops as parallel work would be thousands of times faster.
        let mut q = WorkProfile::new("parallel");
        q.parallel_ops = p.serial_ops;
        assert!(m.seconds(&q) < t / 100.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = WorkProfile::new("a");
        a.kernel_launches = 1;
        a.bytes_read = 10;
        let mut b = WorkProfile::new("b");
        b.kernel_launches = 2;
        b.bytes_written = 5;
        b.parallel_ops = 7;
        a.merge(&b);
        assert_eq!(a.kernel_launches, 3);
        assert_eq!(a.bytes_total(), 15);
        assert_eq!(a.parallel_ops, 7);
    }

    #[test]
    fn rate_is_input_over_time() {
        let m = model();
        let mut p = WorkProfile::new("x");
        p.bytes_read = (m.device().mem_bandwidth_gbps * 1e9) as u64; // 1 second
        let rate = m.rate_gbps(&[p], 10_000_000_000);
        assert!((rate - 10.0).abs() < 0.2, "rate={rate}");
    }
}
