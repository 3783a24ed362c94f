//! Pass 1: determining the parsing context (paper §3.1, Fig. 3).
//!
//! In the paper every chunk simulates one DFA instance per possible
//! starting state and records the final states in a state-transition
//! vector. An exclusive parallel scan under the composite operator then
//! yields, for every chunk, the vector mapping "sequential start state" →
//! "this chunk's true starting state". Reading the entry for the DFA's
//! actual start state gives each chunk its context — no sequential pass
//! over the input, the paper's core contribution.
//!
//! The host needs far fewer states than the paper's GPU: pass 2 (see
//! [`crate::meta`]) walks one range of chunks per worker, so it reads only
//! the start state of each of its ≤ `workers` ranges.
//! [`range_start_states`] resolves exactly those:
//!
//! - It walks `[0, first byte of the last pass-2 range)` only. The last
//!   range's start state is the scan's total, and pass 2 reaches the
//!   input's final state itself when it walks the last range, so nothing
//!   after that byte needs pass 1. On one worker there is one range and
//!   pass 1 walks no byte at all.
//! - That span is split into ≤ `workers` pieces. Piece 0 begins in the
//!   DFA's start state, so it steps one lane, not a vector (Ko, Burgstaller
//!   & Scholz give the first processor of a speculative DFA run a larger
//!   chunk for the same reason). The other pieces step a [`LaneWalk`],
//!   which collapses to ≤ 3 live lanes on CSV. One lane walks about
//!   [`LANE_COST_RATIO`] times faster than the lanes (measured on 16 MiB of
//!   yelp and taxi data: 2.1 and 2.3), so piece 0 is that much longer and
//!   the pieces finish together ([`pass1_pieces`]).
//! - A piece records its state (piece 0) or its lane image (the others)
//!   only at the pass-2 range starts inside it. `scan/context` composes
//!   the ≤ `workers` piece vectors and resolves each range start from its
//!   piece's prefix.
//!
//! The chunk (`chunk_size`, 31 B by default) stays the unit of abort
//! polling: every piece polls once per chunk. The launches charge the
//! paper's per-chunk traffic, and its lane count exactly when every range
//! is one chunk: the paper's grid, where every chunk walks its own
//! [`LaneWalk`] ([`LaneWalk::chunk_lane_ops`] summed over the chunks), and
//! which [`Parser::model`](crate::Parser::model) runs (see
//! [`crate::model`]).
//!
//! This is the only pass-1 kernel: [`determine_contexts_fast`], the
//! per-chunk pass 1 that tests and benches compare against, runs it on one
//! range per chunk. Both launches (`parse/pass1`, `scan/context`) are
//! instrumented [`KernelExecutor`] launches, so wall time and work counters
//! land in the executor's launch log.

use crate::chunks::{num_chunks, tile};
use crate::options::ScanAlgorithm;
use parparaw_dfa::{Dfa, LaneWalk, PairTable, StateVector, VectorComposeOp};
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan::ScanOp;
use parparaw_parallel::{grid, lookback, scan, Grid, KernelExecutor, LaunchError};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The result of context determination.
#[derive(Debug)]
pub struct ContextPass {
    /// Per-chunk resolved starting states.
    pub start_states: Vec<u8>,
    /// The DFA state after the whole input — used for validation.
    pub final_state: u8,
}

/// Run pass 1 over `input` in chunks of `chunk_size` bytes with the
/// default blocked scan, on a throwaway executor (convenience for tests
/// and baselines that only need the states, not the launch log).
pub fn determine_contexts(grid: &Grid, dfa: &Dfa, input: &[u8], chunk_size: usize) -> ContextPass {
    let exec = KernelExecutor::new(grid.clone());
    determine_contexts_fast(&exec, dfa, input, chunk_size, ScanAlgorithm::Blocked, None)
        // Invariant: a throwaway executor has no fault injection and the
        // kernels contain no panicking paths on any byte input.
        .expect("context kernels cannot fail without fault injection")
}

/// The per-chunk pass 1: every chunk's start state and the input's final
/// state. It is [`range_start_states`] on the paper's grid, one range per
/// chunk, so `parse/pass1` charges the per-chunk lane count; the final
/// state steps the last chunk from its start. Tests, benches and the
/// traced bench rebuild read it; a parse resolves only its worker ranges'
/// starts.
pub fn determine_contexts_fast(
    exec: &KernelExecutor,
    dfa: &Dfa,
    input: &[u8],
    chunk_size: usize,
    algorithm: ScanAlgorithm,
    pair: Option<&PairTable>,
) -> Result<ContextPass, LaunchError> {
    let cs = chunk_size.max(1);
    let n_chunks = num_chunks(input.len(), cs);
    let ranges = grid::partition(n_chunks, n_chunks);
    let mut start_states = range_start_states(exec, dfa, input, cs, &ranges, algorithm, pair)?;
    // With no chunks, the one `0..0` range starts no chunk.
    start_states.truncate(n_chunks);
    let final_state = match start_states.last() {
        Some(&from) => step_lane(dfa, from, &input[(n_chunks - 1) * cs..]),
        None => dfa.start_state(),
    };
    Ok(ContextPass {
        start_states,
        final_state,
    })
}

/// Step one lane from `state` over `bytes`.
fn step_lane(dfa: &Dfa, state: u8, bytes: &[u8]) -> u8 {
    bytes
        .iter()
        .fold(state, |s, &b| Dfa::next_in_row(dfa.byte_row(b), s))
}

/// How many times longer pass 1's single-lane piece is than each lane
/// piece, as `(numerator, denominator)`: the lane-cost ratio of a
/// [`LaneWalk`] (≤ 3 live lanes on CSV) over a one-lane walk, 2.2 — the
/// middle of the 2.1 (yelp) and 2.3 (taxi) measured on 16 MiB inputs,
/// 31 B chunks, one thread of a 2-vCPU x86-64 host.
pub const LANE_COST_RATIO: (usize, usize) = (11, 5);

/// The pieces pass 1 splits chunks `0..last_start` into, in order, for
/// `workers` workers: piece 0 (walked on one lane) is
/// [`LANE_COST_RATIO`] times as long as each of the others (walked on a
/// [`LaneWalk`]), so all take about the same time. At most `workers`
/// pieces, none empty; none at all when `last_start` is 0.
pub fn pass1_pieces(last_start: usize, workers: usize) -> Vec<Range<usize>> {
    let k = workers.max(1).min(last_start);
    if k == 0 {
        return Vec::new();
    }
    let (num, den) = LANE_COST_RATIO;
    let first = (last_start * num / (num + (k - 1) * den)).max(1);
    let rest = grid::partition(last_start - first, k - 1)
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| r.start + first..r.end + first);
    std::iter::once(0..first).chain(rest).collect()
}

/// One pass-1 piece after its walk.
#[derive(Debug, Clone)]
enum Piece<'d> {
    /// Piece 0, one lane from the start state: the state at each range
    /// start inside it, and at its end.
    Single { states: Vec<u8>, end: u8 },
    /// A lane piece: the walk's image at each range start inside it
    /// (with whether the walk was collapsed there), and the walk after
    /// its last byte.
    Lanes {
        images: Vec<(u64, bool)>,
        walk: LaneWalk<'d>,
    },
}

impl Piece<'_> {
    /// The piece's transition vector. Piece 0 knows its start state, so
    /// its vector maps every state to its end state.
    fn vector(&self, num_states: u8) -> StateVector {
        match self {
            Piece::Single { end, .. } => {
                StateVector::from_entries(&[*end; 16][..num_states as usize])
            }
            Piece::Lanes { walk, .. } => walk.vector(),
        }
    }
}

/// Walk `chunks` on one lane from the DFA's start state, recording the
/// state at each chunk in `marks` (sorted, inside `chunks`). Polls for
/// aborts at every chunk.
fn walk_single(
    grid: &Grid,
    dfa: &Dfa,
    input: &[u8],
    cs: usize,
    chunks: Range<usize>,
    marks: &[usize],
) -> Piece<'static> {
    let n = input.len();
    let mut state = dfa.start_state();
    let mut states = Vec::with_capacity(marks.len());
    let mut marks = marks.iter().peekable();
    for c in chunks {
        grid.check_abort(c);
        if marks.next_if_eq(&&c).is_some() {
            states.push(state);
        }
        state = step_lane(dfa, state, &input[c * cs..((c + 1) * cs).min(n)]);
    }
    Piece::Single { states, end: state }
}

/// Walk `chunks` on a [`LaneWalk`], recording its image at each chunk in
/// `marks` (sorted, inside `chunks`). Polls for aborts at every chunk.
fn walk_lanes<'d>(
    grid: &Grid,
    dfa: &'d Dfa,
    pair: Option<&'d PairTable>,
    input: &[u8],
    cs: usize,
    chunks: Range<usize>,
    marks: &[usize],
) -> Piece<'d> {
    let n = input.len();
    let mut walk = LaneWalk::new(dfa, pair);
    let mut images = Vec::with_capacity(marks.len());
    let mut marks = marks.iter().peekable();
    for c in chunks {
        grid.check_abort(c);
        if marks.next_if_eq(&&c).is_some() {
            images.push((walk.image(), walk.is_collapsed()));
        }
        walk.step(input, c * cs, ((c + 1) * cs).min(n));
    }
    Piece::Lanes { images, walk }
}

/// The pipeline's pass 1: the start state of each of pass 2's `ranges`,
/// walking only up to the last range's first byte. It charges the
/// per-chunk lane count when every range is one chunk (see the
/// [module docs](self)).
///
/// # Panics
/// When `ranges` do not tile the chunks in order, none empty (as
/// `Grid::partition` cuts them).
pub fn range_start_states(
    exec: &KernelExecutor,
    dfa: &Dfa,
    input: &[u8],
    chunk_size: usize,
    ranges: &[Range<usize>],
    algorithm: ScanAlgorithm,
    pair: Option<&PairTable>,
) -> Result<Vec<u8>, LaunchError> {
    let n = input.len();
    let cs = chunk_size.max(1);
    let n_chunks = num_chunks(n, cs);
    // A wrong shape would silently give wrong states, so check it in
    // release builds too (≤ `workers` ranges).
    assert!(
        tile(ranges, n_chunks),
        "ranges must tile the chunks in order"
    );
    // Range 0 starts in the start state and the last range in the scan's
    // total; every range start in between lies inside one piece.
    let last_start = ranges.last().map_or(0, |r| r.start);
    let inner: Vec<usize> = ranges
        .iter()
        .map(|r| r.start)
        .filter(|&c| c > 0 && c < last_start)
        .collect();
    let pieces = pass1_pieces(last_start, exec.grid().workers());
    let marks = |p: &Range<usize>| {
        let lo = inner.partition_point(|&c| c < p.start);
        let hi = inner.partition_point(|&c| c < p.end);
        &inner[lo..hi]
    };

    // Kernel 1: one walk per piece. The counters charge the per-chunk
    // kernel's traffic, and its lane count only on the paper's grid.
    let walks = exec.launch("parse/pass1", n_chunks, |grid, counters| {
        counters.bytes_read = n as u64;
        counters.bytes_written = (n_chunks * 8) as u64;
        if ranges.len() == n_chunks {
            counters.parallel_ops = per_chunk_lane_ops(grid, dfa, pair, input, cs);
        }
        let mut walks: Vec<Option<Piece>> = vec![None; pieces.len()];
        {
            let walk_w = SlotWriter::new(&mut walks);
            grid.run_partitioned(pieces.len(), |_, ids| {
                for k in ids {
                    let (chunks, marks) = (pieces[k].clone(), marks(&pieces[k]));
                    let piece = if k == 0 {
                        walk_single(grid, dfa, input, cs, chunks, marks)
                    } else {
                        walk_lanes(grid, dfa, pair, input, cs, chunks, marks)
                    };
                    // SAFETY: each piece index goes to exactly one worker.
                    unsafe { walk_w.write(k, Some(piece)) };
                }
            });
        }
        walks.into_iter().flatten().collect::<Vec<Piece>>()
    })?;

    // Kernel 2: exclusive scan of the piece vectors under the composite
    // operator, then each range start from its piece's prefix.
    let start = dfa.start_state();
    exec.launch("scan/context", n_chunks, |grid, counters| {
        // The modelled scan runs over the per-chunk vectors.
        counters.kernel_launches = 3; // upsweep, spine, downsweep
        counters.bytes_read = (n_chunks * 8) as u64 * 2;
        counters.bytes_written = (n_chunks * 8) as u64 + n_chunks as u64;
        counters.parallel_ops = n_chunks as u64 * dfa.num_states() as u64 * 2;

        let ns = dfa.num_states();
        let vectors: Vec<StateVector> = walks.iter().map(|p| p.vector(ns)).collect();
        let (prefixes, total) = scan_vectors(grid, &vectors, ns, algorithm);
        let mut states = Vec::with_capacity(ranges.len());
        states.push(start);
        for (piece, prefix) in walks.iter().zip(&prefixes) {
            match piece {
                Piece::Single { states: s, .. } => states.extend_from_slice(s),
                Piece::Lanes { images, walk } => {
                    let from = prefix.get(start);
                    states.extend(
                        images
                            .iter()
                            .map(|&(image, c)| walk.resolve(image, c, from)),
                    );
                }
            }
        }
        if ranges.len() > 1 {
            states.push(total.get(start));
        }
        debug_assert_eq!(states.len(), ranges.len(), "one state per range");
        states
    })
}

/// Σ [`LaneWalk::chunk_lane_ops`] over every chunk: the lane count of the
/// paper's pass 1, one walk per chunk, summed on `grid`.
fn per_chunk_lane_ops(
    grid: &Grid,
    dfa: &Dfa,
    pair: Option<&PairTable>,
    input: &[u8],
    cs: usize,
) -> u64 {
    let n = input.len();
    let total = AtomicU64::new(0);
    grid.run_partitioned(num_chunks(n, cs), |_, chunks| {
        let ops: u64 = chunks
            .map(|c| {
                grid.check_abort(c);
                LaneWalk::chunk_lane_ops(dfa, pair, &input[c * cs..((c + 1) * cs).min(n)])
            })
            .sum();
        total.fetch_add(ops, Ordering::Relaxed);
    });
    total.into_inner()
}

/// Exclusive scan of `vectors` under the composite operator with the
/// configured algorithm, plus the total.
fn scan_vectors(
    grid: &Grid,
    vectors: &[StateVector],
    num_states: u8,
    algorithm: ScanAlgorithm,
) -> (Vec<StateVector>, StateVector) {
    let op = VectorComposeOp::new(num_states);
    match algorithm {
        ScanAlgorithm::Blocked => scan::exclusive_scan_total(grid, vectors, &op),
        ScanAlgorithm::DecoupledLookback => {
            let scanned = lookback::exclusive_scan_lookback(grid, vectors, &op, 2048);
            let total = match (scanned.last(), vectors.last()) {
                (Some(prefix), Some(last)) => op.combine(prefix, last),
                _ => op.identity(),
            };
            (scanned, total)
        }
    }
}

impl ContextPass {
    /// Whether the whole input leaves the DFA in an accepting state, read
    /// off `final_state` — used by tests and by whole-input validation.
    pub fn is_accepted_by(&self, dfa: &Dfa) -> bool {
        dfa.is_accepting(self.final_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunks::chunk_ranges;
    use parparaw_dfa::csv::rfc4180_paper;

    fn seq_state(dfa: &Dfa, input: &[u8], from: u8) -> u8 {
        let mut s = from;
        for &b in input {
            s = dfa.step(s, b).next;
        }
        s
    }

    #[test]
    fn start_states_match_sequential_simulation() {
        let dfa = rfc4180_paper();
        let input = b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        for chunk_size in [1usize, 3, 10, 31, 64, 1000] {
            for workers in [1usize, 4] {
                let grid = Grid::new(workers);
                let ctx = determine_contexts(&grid, &dfa, input, chunk_size);
                let mut state = dfa.start_state();
                for (c, range) in chunk_ranges(input.len(), chunk_size).enumerate() {
                    assert_eq!(
                        ctx.start_states[c], state,
                        "chunk {c} (size {chunk_size}, workers {workers})"
                    );
                    state = seq_state(&dfa, &input[range], state);
                }
                assert_eq!(ctx.final_state, state);
                assert!(ctx.is_accepted_by(&dfa));
            }
        }
    }

    #[test]
    fn figure3_style_quote_context_is_recovered() {
        // A chunk that begins inside an enclosure must start in ENC.
        let dfa = rfc4180_paper();
        let input = b"frame,\"colors:\nred,green\"\nshelf,x";
        let grid = Grid::new(2);
        let ctx = determine_contexts(&grid, &dfa, input, 8);
        // Chunk 1 starts at byte 8, inside the quoted field.
        assert_eq!(ctx.start_states[1], parparaw_dfa::csv::S_ENC);
    }

    #[test]
    fn empty_input() {
        let dfa = rfc4180_paper();
        let grid = Grid::new(2);
        let ctx = determine_contexts(&grid, &dfa, b"", 31);
        assert!(ctx.start_states.is_empty());
        assert_eq!(ctx.final_state, dfa.start_state());
        assert!(ctx.is_accepted_by(&dfa));
    }

    #[test]
    fn unterminated_quote_fails_validation() {
        let dfa = rfc4180_paper();
        let grid = Grid::new(2);
        let ctx = determine_contexts(&grid, &dfa, b"a,\"unterminated", 4);
        assert!(!ctx.is_accepted_by(&dfa));
    }

    #[test]
    fn lookback_scan_gives_identical_contexts() {
        let dfa = rfc4180_paper();
        let input: Vec<u8> = (0..5000u32)
            .flat_map(|i| format!("{i},\"q{i},x\"\n").into_bytes())
            .collect();
        for workers in [1usize, 4] {
            let exec = KernelExecutor::new(Grid::new(workers));
            let run = |algorithm| {
                determine_contexts_fast(&exec, &dfa, &input, 13, algorithm, None).unwrap()
            };
            let blocked = run(ScanAlgorithm::Blocked);
            let lb = run(ScanAlgorithm::DecoupledLookback);
            assert_eq!(blocked.start_states, lb.start_states);
            assert_eq!(blocked.final_state, lb.final_state);
        }
    }

    #[test]
    fn pieces_tile_up_to_the_last_range_start() {
        assert!(pass1_pieces(0, 4).is_empty(), "one range: no walk");
        assert_eq!(
            pass1_pieces(100, 1),
            std::iter::once(0..100).collect::<Vec<_>>()
        );
        assert_eq!(pass1_pieces(2, 8), [0..1, 1..2]);
        for (last, workers) in [(16usize, 2usize), (1000, 3), (541_000, 8), (7, 8)] {
            let pieces = pass1_pieces(last, workers);
            assert!(pieces.len() <= workers.min(last));
            assert_eq!(pieces[0].start, 0);
            assert_eq!(pieces.last().unwrap().end, last);
            assert!(pieces.windows(2).all(|w| w[0].end == w[1].start));
            assert!(pieces.iter().all(|p| !p.is_empty()));
            // The single-lane piece is the longest.
            assert!(pieces.iter().all(|p| p.len() <= pieces[0].len()));
        }
        // On 2 workers piece 0 takes 11/16 of the walked span.
        assert_eq!(pass1_pieces(1600, 2), [0..1100, 1100..1600]);
    }

    #[test]
    fn range_starts_match_sequential_simulation() {
        let dfa = rfc4180_paper();
        let input: Vec<u8> = (0..3000u32)
            .flat_map(|i| format!("{i},\"q{i},\nx\"\n").into_bytes())
            .collect();
        for workers in [1usize, 2, 3, 5] {
            let exec = KernelExecutor::new(Grid::new(workers));
            let ranges = exec.grid().partition(num_chunks(input.len(), 13));
            let starts = range_start_states(
                &exec,
                &dfa,
                &input,
                13,
                &ranges,
                ScanAlgorithm::Blocked,
                None,
            )
            .unwrap();
            let want: Vec<u8> = ranges
                .iter()
                .map(|r| seq_state(&dfa, &input[..r.start * 13], dfa.start_state()))
                .collect();
            assert_eq!(starts, want, "workers {workers}");
            // Two launches; the parse charges no lane count.
            let log = exec.drain_log();
            let labels: Vec<&str> = log.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(labels, ["parse/pass1", "scan/context"]);
            assert_eq!(log[0].parallel_ops, 0);
        }
    }

    #[test]
    fn both_kinds_of_piece_poll_at_every_chunk() {
        use parparaw_parallel::{CancelToken, LaunchAborted, LaunchSignal};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;
        let dfa = rfc4180_paper();
        let input = vec![b'x'; 4000];
        // Pieces that start off the 256-chunk poll stride still reach it.
        for chunks in [0..4000usize, 300..700] {
            let token = CancelToken::new();
            let signal = Arc::new(LaunchSignal::new(Some(token.clone())));
            let grid = Grid::new(1).with_signal(signal);
            let single = || walk_single(&grid, &dfa, &input, 1, chunks.clone(), &[]);
            let lanes = || walk_lanes(&grid, &dfa, None, &input, 1, chunks.clone(), &[]);
            assert!(catch_unwind(AssertUnwindSafe(single)).is_ok());
            assert!(catch_unwind(AssertUnwindSafe(lanes)).is_ok());
            token.cancel();
            for payload in [
                catch_unwind(AssertUnwindSafe(single)).unwrap_err(),
                catch_unwind(AssertUnwindSafe(lanes)).unwrap_err(),
            ] {
                assert!(payload.is::<LaunchAborted>(), "{chunks:?}");
            }
        }
    }

    #[test]
    fn launch_log_accounts_for_input() {
        let dfa = rfc4180_paper();
        let exec = KernelExecutor::new(Grid::new(1));
        let input = vec![b'x'; 1000];
        let _ = determine_contexts_fast(&exec, &dfa, &input, 31, ScanAlgorithm::Blocked, None);
        let log = exec.drain_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].label, "parse/pass1");
        assert_eq!(log[0].bytes_read, 1000);
        // Fast lane: full width (|S|+1 = 7) only during warm-up, then 4
        // ops/byte once collapsed to 3 lanes — strictly less than the
        // step-wise kernel's 7000 but still at least 4/byte.
        assert!(log[0].parallel_ops >= 4000);
        assert!(log[0].parallel_ops < 7000);
        assert_eq!(log[1].label, "scan/context");
        assert!(log[1].kernel_launches >= 1);
    }
}
