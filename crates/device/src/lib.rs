//! A simulated GPU device for the ParPaRaw reproduction.
//!
//! The paper evaluates on an NVIDIA Titan X (Pascal): 3 584 cores, 12 GB of
//! device memory, CUDA kernels, PCIe transfers. This environment has no
//! GPU, so — per the reproduction's substitution rule (see `DESIGN.md`) —
//! the *algorithm* runs for real on CPU threads while this crate converts
//! the algorithm's **measured work profiles** (bytes moved, symbol
//! operations, kernel launches, unavoidable serial work) into simulated
//! device time through a fixed, calibrated cost model:
//!
//! * [`DeviceConfig`] — the hardware description (SMs, cores, clock, memory
//!   bandwidth, kernel-launch overhead) with a Titan-X-Pascal preset and a
//!   multicore-CPU preset for the Instant-Loading baseline;
//! * [`CostModel`] / [`WorkProfile`] — work → time conversion:
//!   `launches·overhead + max(memory_time, compute_time) + serial_time`;
//! * [`PcieLink`] — a full-duplex interconnect model matched to the
//!   paper's observed effective bandwidth (4.8 GB in 0.41 s ≈ 11.7 GB/s);
//! * [`Timeline`] — an event-driven scheduler over serial resources
//!   (H2D engine, GPU, D2H engine) used to replay the double-buffered
//!   streaming DAG of paper Figure 7 ([`streaming`]).
//!
//! Every number the cost model produces is a deterministic function of
//! work counts measured from the real implementation; the model's few
//! constants are calibrated once against two anchor numbers from the paper
//! and then held fixed across all experiments.

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod pcie;
pub mod streaming;
pub mod timeline;

pub use config::DeviceConfig;
pub use cost::{CostModel, WorkProfile};
pub use pcie::PcieLink;
pub use streaming::{StreamingPlan, StreamingReport};
pub use timeline::{TaskId, Timeline};
