//! The double-buffered streaming schedule of paper Figure 7.
//!
//! The input is split into partitions. Partition `i` uses buffer `i mod 2`;
//! its life cycle is *transfer* (H2D engine) → *copy carry-over* (GPU) →
//! *parse* (GPU) → *return* (D2H engine). The carry-over copy prepends the
//! incomplete trailing record of partition `i-1` to partition `i`'s input,
//! and — the ordering the paper calls out explicitly — the transfer of
//! partition `i` must wait until the carry-over copy of partition `i-1`
//! has finished reading the buffer being overwritten.

use crate::cost::CostModel;
use crate::pcie::PcieLink;
use crate::timeline::{TaskId, Timeline};

/// Per-partition inputs to the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCost {
    /// Raw input bytes transferred host→device.
    pub input_bytes: u64,
    /// Parsed output bytes returned device→host.
    pub output_bytes: u64,
    /// Bytes of the trailing incomplete record carried into this
    /// partition's parse (0 for the first partition).
    pub carry_bytes: u64,
    /// Simulated on-device parse seconds for this partition (from the
    /// [`CostModel`] applied to the partition's measured work profiles).
    pub parse_seconds: f64,
}

/// The inputs to a streaming simulation.
#[derive(Debug, Clone)]
pub struct StreamingPlan {
    /// The interconnect.
    pub link: PcieLink,
    /// Per-partition costs, in order.
    pub partitions: Vec<PartitionCost>,
}

/// The outcome: end-to-end makespan plus the full task timeline.
#[derive(Debug)]
pub struct StreamingReport {
    /// End-to-end seconds from first transfer start to last return end.
    pub total_seconds: f64,
    /// Seconds the GPU spent busy.
    pub gpu_busy_seconds: f64,
    /// Seconds the H2D engine spent busy.
    pub h2d_busy_seconds: f64,
    /// Seconds the D2H engine spent busy.
    pub d2h_busy_seconds: f64,
    /// The schedule, for rendering.
    pub timeline: Timeline,
}

impl StreamingPlan {
    /// Replay the Figure-7 schedule and report the end-to-end time.
    pub fn simulate(&self, model: &CostModel) -> StreamingReport {
        let mut tl = Timeline::new();
        let n = self.partitions.len();
        let mem_bw = model.device().mem_bandwidth_gbps * 1e9;

        // Per-partition task ids, indexed by partition.
        let mut transfer: Vec<TaskId> = Vec::with_capacity(n);
        let mut copy_co: Vec<Option<TaskId>> = Vec::with_capacity(n);
        let mut parse: Vec<TaskId> = Vec::with_capacity(n);
        let mut ret: Vec<TaskId> = Vec::with_capacity(n);

        for (i, p) in self.partitions.iter().enumerate() {
            // transfer[i] writes input buffer i%2: it must wait for
            // parse[i-2] (the previous user of the buffer) and for
            // copy_co[i-1] (which *reads* partition i-2's tail out of this
            // buffer — the ordering highlighted in the paper).
            let mut deps: Vec<TaskId> = Vec::new();
            if i >= 2 {
                deps.push(parse[i - 2]);
                if let Some(cc) = copy_co[i - 1] {
                    deps.push(cc);
                }
            }
            let t = tl.schedule(
                format!("transfer p{i}"),
                "H2D",
                &deps,
                self.link.h2d_seconds(p.input_bytes),
            );
            transfer.push(t);

            // copy carry-over for partition i (reads partition i-1's input
            // buffer, so needs parse[i-1]; device-to-device copy at memory
            // bandwidth, read + write).
            let cc = if i > 0 && p.carry_bytes > 0 {
                let dur = (2 * p.carry_bytes) as f64 / mem_bw;
                Some(tl.schedule(format!("copy c/o p{i}"), "GPU", &[parse[i - 1]], dur))
            } else {
                None
            };
            copy_co.push(cc);

            // parse[i]: needs its input transferred, its carry-over copied,
            // and its output buffer free (return[i-2] done).
            let mut deps = vec![transfer[i]];
            if let Some(cc) = copy_co[i] {
                deps.push(cc);
            }
            if i >= 2 {
                deps.push(ret[i - 2]);
            }
            let pk = tl.schedule(format!("parse p{i}"), "GPU", &deps, p.parse_seconds);
            parse.push(pk);

            // return[i]: parsed data back to the host.
            let r = tl.schedule(
                format!("return p{i}"),
                "D2H",
                &[parse[i]],
                self.link.d2h_seconds(p.output_bytes),
            );
            ret.push(r);
        }

        StreamingReport {
            total_seconds: tl.makespan(),
            gpu_busy_seconds: tl.busy_seconds("GPU"),
            h2d_busy_seconds: tl.busy_seconds("H2D"),
            d2h_busy_seconds: tl.busy_seconds("D2H"),
            timeline: tl,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn plan(n: usize, input: u64, output: u64, parse_s: f64) -> StreamingPlan {
        StreamingPlan {
            link: PcieLink::pcie3_x16(),
            partitions: (0..n)
                .map(|i| PartitionCost {
                    input_bytes: input,
                    output_bytes: output,
                    carry_bytes: if i == 0 { 0 } else { 256 },
                    parse_seconds: parse_s,
                })
                .collect(),
        }
    }

    fn model() -> CostModel {
        CostModel::new(DeviceConfig::titan_x_pascal())
    }

    #[test]
    fn single_partition_is_sum_of_stages() {
        let p = plan(1, 128 << 20, 64 << 20, 0.010);
        let r = p.simulate(&model());
        let expect = p.link.h2d_seconds(128 << 20) + 0.010 + p.link.d2h_seconds(64 << 20);
        assert!(
            (r.total_seconds - expect).abs() < 1e-9,
            "{}",
            r.total_seconds
        );
    }

    #[test]
    fn many_partitions_overlap_transfers_with_parsing() {
        // 8 partitions: the steady state should hide most transfer time.
        let per_input = 64u64 << 20;
        let single = plan(1, per_input * 8, per_input * 4, 0.080).simulate(&model());
        let streamed = plan(8, per_input, per_input / 2, 0.010).simulate(&model());
        assert!(
            streamed.total_seconds < single.total_seconds * 0.75,
            "streamed {} vs single {}",
            streamed.total_seconds,
            single.total_seconds
        );
    }

    #[test]
    fn transfer_bound_pipeline_approaches_link_time() {
        // Parsing much faster than the link: end-to-end ≈ transfer of the
        // whole input + one partition's return tail — the paper's "maxes
        // out the full-duplex capabilities" observation.
        let n = 32;
        let bytes = 16u64 << 20;
        let p = plan(n, bytes, bytes / 2, 0.0001);
        let r = p.simulate(&model());
        let transfer_total: f64 = (0..n).map(|_| p.link.h2d_seconds(bytes)).sum();
        assert!(r.total_seconds >= transfer_total);
        assert!(
            r.total_seconds < transfer_total * 1.15,
            "{}",
            r.total_seconds
        );
    }

    #[test]
    fn carry_over_ordering_blocks_buffer_reuse() {
        // With a huge carry-over copy for partition 1 (reading buffer 0),
        // the transfer of partition 2 (writing buffer 0) must wait.
        let mut p = plan(3, 1 << 20, 1 << 20, 0.001);
        p.partitions[1].carry_bytes = 1 << 30; // pathological 1 GiB carry
        let r = p.simulate(&model());
        let spans = r.timeline.spans();
        let co1_end = spans.iter().find(|s| s.label == "copy c/o p1").unwrap().end;
        let t2_start = spans
            .iter()
            .find(|s| s.label == "transfer p2")
            .unwrap()
            .start;
        assert!(t2_start >= co1_end - 1e-12);
    }

    #[test]
    fn gpu_busy_equals_parse_plus_copies() {
        let p = plan(4, 1 << 20, 1 << 20, 0.005);
        let r = p.simulate(&model());
        assert!(r.gpu_busy_seconds >= 0.020);
        assert!(r.h2d_busy_seconds > 0.0 && r.d2h_busy_seconds > 0.0);
    }
}
