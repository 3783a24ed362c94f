//! Deterministic finite automata for ParPaRaw's parsing rules.
//!
//! ParPaRaw (Stehle & Jacobsen, VLDB 2020) expresses parsing rules as a DFA
//! so that one algorithm covers CSV, log formats, and anything else
//! delimiter-separated (paper §3.1). This crate provides everything the
//! pipeline needs from the automaton side:
//!
//! * [`Dfa`] — transition tables in the paper's *symbol-group-major* layout
//!   (Table 1), with per-transition semantic emissions (record delimiter /
//!   field delimiter / control symbol / reject) that later drive the three
//!   bitmap indexes of §3.1;
//! * [`SymbolGroups`] — the mapping from input bytes to symbol groups, with
//!   both a plain lookup-table matcher and the branchless **SWAR** matcher
//!   of §4.5 (Table 2);
//! * [`Mfira`] — the *multi-fragment in-register array* of §4.5, a
//!   dynamically indexable array of small integers packed into 32-bit
//!   "registers";
//! * [`StateVector`] — packed state-transition vectors and their
//!   associative composite operator from §3.1;
//! * builders for concrete formats: RFC 4180 CSV ([`csv`]), CSV with line
//!   comments, TSV/pipe dialects, and a W3C-extended-log-style format
//!   ([`log`]).
//!
//! # Example: the paper's CSV automaton
//!
//! ```
//! use parparaw_dfa::csv::{rfc4180, CsvDialect};
//!
//! let dfa = rfc4180(&CsvDialect::default());
//! // Walking `1941,"Bookcase"` from the start state never rejects and the
//! // comma is seen as a field delimiter.
//! let mut state = dfa.start_state();
//! for &b in b"1941".iter() {
//!     let step = dfa.step(state, b);
//!     assert!(step.emit.is_data());
//!     state = step.next;
//! }
//! let step = dfa.step(state, b',');
//! assert!(step.emit.is_field_delimiter());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod csv;
pub mod dfa;
pub mod log;
pub mod mfira;
pub mod spec;
pub mod swar;
pub mod symbol;
pub mod table;
pub mod vector;

pub use builder::{DfaBuilder, DfaError};
pub use dfa::{Dfa, Emit, Step};
pub use mfira::Mfira;
pub use swar::SwarMatcher;
pub use symbol::SymbolGroups;
pub use table::{LaneWalk, PairTable};
pub use vector::{StateVector, VectorComposeOp};

/// Maximum number of DFA states supported by the packed representations
/// (4 bits per state index).
pub const MAX_STATES: usize = 16;
