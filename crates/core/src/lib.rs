//! # ParPaRaw — massively parallel parsing of delimiter-separated raw data
//!
//! A from-scratch Rust reproduction of *ParPaRaw: Massively Parallel
//! Parsing of Delimiter-Separated Raw Data* (Stehle & Jacobsen,
//! VLDB 2020). The algorithm parses CSV-like formats fully data-parallel:
//! the input is split into fixed-size chunks processed by independent
//! virtual threads, and **no sequential pass** is ever needed to determine
//! how a chunk's symbols must be interpreted.
//!
//! The pipeline (paper §3):
//!
//! 1. **parse** — every chunk simulates one DFA instance per possible
//!    starting state, producing a *state-transition vector* ([`context`]);
//! 2. **scan** — an exclusive prefix scan with the (associative,
//!    non-commutative) vector-composition operator recovers every chunk's
//!    true starting state; further scans resolve record and column
//!    offsets ([`meta`]);
//! 3. **tag** — symbols are tagged with their record and column, in one of
//!    three tagging modes ([`tagging`], paper §4.1);
//! 4. **partition** — a single-pass field-run scatter (or, as a fallback,
//!    the paper's stable radix sort) gathers each column's symbols into
//!    its concatenated symbol string ([`partition`]);
//! 5. **convert** — CSS indexing, optional type inference, and typed
//!    columnar materialisation in an Arrow-like layout ([`css`],
//!    [`infer`], [`convert`]).
//!
//! A streaming extension (paper §4.4) pipelines transfer/parse/return with
//! carry-over of incomplete records ([`streaming`]).
//!
//! # Quick start
//!
//! ```
//! use parparaw_core::{parse_csv, ParserOptions};
//!
//! let csv = b"item,price\n1941,199.99\n1938,19.99\n";
//! let out = parse_csv(csv, ParserOptions::default()).unwrap();
//! assert_eq!(out.table.num_rows(), 3); // header row parses as data too
//! println!("{}", out.table.pretty(5));
//! ```
//!
//! Formats beyond CSV are expressed as DFAs (see `parparaw-dfa`); anything
//! the automaton toolkit can describe — TSV, pipe-separated, CSV dialects
//! with comments, W3C extended logs — parses through the same pipeline:
//!
//! ```
//! use parparaw_core::{Parser, ParserOptions};
//! use parparaw_dfa::log::extended_log;
//!
//! let parser = Parser::new(extended_log(), ParserOptions::default());
//! let out = parser
//!     .parse(b"#Version: 1.0\n10.0.0.1 alice [10/Oct/2000] \"GET /\" 200\n")
//!     .unwrap();
//! assert_eq!(out.table.num_rows(), 1);
//! ```

#![warn(missing_docs)]

pub mod chunks;
pub mod context;
pub mod convert;
pub mod css;
pub mod diag;
pub mod encoding;
pub mod error;
pub mod infer;
pub mod meta;
pub mod model;
pub mod options;
pub mod partition;
pub mod pipeline;
pub mod rows;
pub mod streaming;
pub mod tagging;
pub mod timings;

pub use diag::{RecordDiagnostic, RejectReason};
pub use error::ParseError;
pub use model::{ParseModel, PartitionModel, StreamModel};
pub use options::{
    ErrorPolicy, FaultInjection, ParserOptions, PartitionKernel, ScanAlgorithm, TaggingMode,
};
pub use pipeline::{parse_csv, Parser};
pub use streaming::{
    Checkpoint, PartitionIter, PartitionReport, StreamInterrupted, StreamedOutput,
};
pub use timings::{ParseOutput, ParseStats, PhaseTimings, SimulatedTimings};
