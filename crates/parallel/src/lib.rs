//! Data-parallel primitives underpinning the ParPaRaw parsing pipeline.
//!
//! ParPaRaw (Stehle & Jacobsen, VLDB 2020) is built out of a small set of
//! classic data-parallel building blocks, all of which this crate provides as
//! standalone, testable components:
//!
//! * a [`Grid`] executor that runs a function once per *chunk* of the input,
//!   the CPU analogue of launching one GPU thread per chunk, backed by a
//!   persistent worker [`pool`] ([`grid`]),
//! * a [`KernelExecutor`] that wraps every pipeline launch with wall-clock
//!   timing and work counters and pools scratch buffers in a
//!   [`BufferArena`] ([`executor`]),
//! * inclusive/exclusive **prefix scans** over arbitrary associative
//!   operators, in sequential, blocked three-phase, and Merrill & Garland
//!   *single-pass decoupled look-back* variants ([`scan`], [`lookback`]),
//! * parallel **reduction** ([`reduce`]),
//! * parallel **histogram** ([`histogram`]),
//! * a **stable LSD radix sort** used to partition symbols by column tag
//!   ([`radix`]),
//! * **bitmap** indexes with population-count helpers used for the record /
//!   field / control-symbol masks ([`bitmap`]).
//!
//! All parallel entry points take a [`Grid`], are deterministic for any
//! worker count, and fall back to straight sequential execution when the
//! grid has a single worker (the common case in tests).
//!
//! # Example
//!
//! ```
//! use parparaw_parallel::{Grid, scan::{exclusive_scan, AddOp}};
//!
//! let grid = Grid::new(4);
//! let xs = vec![3u64, 5, 1, 2, 9, 7, 4, 2];
//! let ys = exclusive_scan(&grid, &xs, &AddOp);
//! // The worked example from Section 2 of the paper.
//! assert_eq!(ys, vec![0, 3, 8, 9, 11, 20, 27, 31]);
//! ```

#![warn(missing_docs)]

pub mod bitmap;
pub mod cancel;
pub mod executor;
pub mod grid;
pub mod histogram;
pub mod lookback;
pub mod pool;
pub mod radix;
pub mod reduce;
pub mod rng;
pub mod scan;

pub use bitmap::{AtomicBitmap, Bitmap};
pub use cancel::{CancelToken, LaunchAborted, LaunchSignal, Watchdog};
pub use executor::{
    BufferArena, FailureKind, FaultInjector, FaultMode, KernelExecutor, LaunchCounters,
    LaunchError, LaunchRecord, RetryPolicy,
};
pub use grid::Grid;
pub use rng::SplitMix64;
pub use scan::ScanOp;
