//! Pass 1: determining every chunk's parsing context (paper §3.1, Fig. 3).
//!
//! Each chunk simulates one DFA instance per possible starting state and
//! records the final states in a state-transition vector. An exclusive
//! parallel scan under the composite operator then yields, for every chunk,
//! the vector mapping "sequential start state" → "this chunk's true
//! starting state". Reading the entry for the DFA's actual start state
//! gives each chunk its context — no sequential pass over the input, the
//! paper's core contribution.
//!
//! The chunk (`chunk_size`, 31 B by default) stays the modelled unit — it
//! defines the chunk count, the work counters and every per-chunk output
//! — but the host runs one walk per worker range of chunks, not one per
//! chunk: a [`LaneWalk`] collapses once at the range start and records its
//! packed image at every chunk start inside the range. The scan then runs
//! over the ≤ `workers` range vectors, and each chunk's start state is
//! read off its recorded image. The `parse/pass1` work counter still
//! charges what the per-chunk kernel ([`Dfa::transition_vector_fast`])
//! executes, chunk by chunk ([`Dfa::fast_lane_ops`]).
//!
//! Both kernels run as instrumented [`KernelExecutor`] launches
//! (`parse/pass1` and `scan/context`); wall time and work counters land in
//! the executor's launch log instead of being threaded through the return
//! value.

use crate::chunks::num_chunks;
use crate::options::ScanAlgorithm;
use parparaw_dfa::{Dfa, LaneWalk, PairTable, StateVector, VectorComposeOp};
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::scan::ScanOp;
use parparaw_parallel::{lookback, scan, Grid, KernelExecutor, LaunchError};
use std::ops::Range;

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

/// One worker range's pass-1 walk.
#[derive(Debug, Clone)]
struct RangeWalk<'d> {
    /// The range's chunks.
    chunks: Range<usize>,
    /// The walk after the range's last byte.
    walk: LaneWalk<'d>,
    /// First chunk whose recorded image is a collapsed one.
    collapsed_from: usize,
    /// Σ [`Dfa::fast_lane_ops`] over the range's chunks.
    ops: u64,
}

/// Run pass 1 on the fast lane (per-byte tables + convergence collapse;
/// see `parparaw_dfa::table`), optionally stepping the collapsed loop two
/// bytes at a time through a precomposed [`PairTable`].
pub fn determine_contexts_fast(
    exec: &KernelExecutor,
    dfa: &Dfa,
    input: &[u8],
    chunk_size: usize,
    algorithm: ScanAlgorithm,
    pair: Option<&PairTable>,
) -> Result<ContextPass, LaunchError> {
    let n = input.len();
    let cs = chunk_size.max(1);
    let n_chunks = num_chunks(n, cs);

    // Kernel 1: one walk per worker range, recording the walk's image at
    // every chunk start. The counter is the per-chunk kernel's: full
    // width only until a chunk's own image collapses, then one op per
    // live state — so the cost replay sees the modelled 31 B threads.
    let (images, walks) = exec.launch("parse/pass1", n_chunks, |grid, counters| {
        counters.bytes_read = n as u64;
        counters.bytes_written = (n_chunks * 8) as u64;
        let parts = grid.partition(n_chunks);
        let mut images = vec![0u64; n_chunks];
        let mut walks: Vec<Option<RangeWalk>> = vec![None; parts.len()];
        {
            let image_w = SlotWriter::new(&mut images);
            let walk_w = SlotWriter::new(&mut walks);
            grid.run_partitioned(n_chunks, |w, chunks| {
                let mut walk = LaneWalk::new(dfa, pair);
                let mut collapsed_from = chunks.end;
                let mut ops = 0u64;
                for c in chunks.clone() {
                    grid.check_abort(c);
                    if walk.is_collapsed() {
                        collapsed_from = collapsed_from.min(c);
                    }
                    // SAFETY: `run_partitioned` hands each chunk index to
                    // exactly one worker.
                    unsafe { image_w.write(c, walk.image()) };
                    let (lo, hi) = (c * cs, ((c + 1) * cs).min(n));
                    ops += dfa.fast_lane_ops(&input[lo..hi], pair.is_some());
                    walk.step(input, lo, hi);
                }
                let range = RangeWalk {
                    chunks,
                    walk,
                    collapsed_from,
                    ops,
                };
                // SAFETY: one slot per worker range, written by its worker.
                unsafe { walk_w.write(w, Some(range)) };
            });
        }
        let walks: Vec<RangeWalk> = walks.into_iter().flatten().collect();
        counters.parallel_ops = walks.iter().map(|r| r.ops).sum();
        (images, walks)
    })?;

    // Kernel 2: exclusive scan of the range vectors under the composite
    // operator, then every chunk's start state from its recorded image.
    let start = dfa.start_state();
    let (start_states, final_state) = exec.launch("scan/context", n_chunks, |grid, counters| {
        counters.kernel_launches = 3; // upsweep, spine, downsweep
        counters.bytes_read = (n_chunks * 8) as u64 * 2;
        counters.bytes_written = (n_chunks * 8) as u64 + n_chunks as u64;
        counters.parallel_ops = n_chunks as u64 * dfa.num_states() as u64 * 2;

        let op = VectorComposeOp::new(dfa.num_states());
        let vectors: Vec<StateVector> = walks.iter().map(|r| r.walk.vector()).collect();
        let (scanned, total) = match algorithm {
            ScanAlgorithm::Blocked => scan::exclusive_scan_total(grid, &vectors, &op),
            ScanAlgorithm::DecoupledLookback => {
                let scanned = lookback::exclusive_scan_lookback(grid, &vectors, &op, 2048);
                let total = match (scanned.last(), vectors.last()) {
                    (Some(prefix), Some(last)) => op.combine(prefix, last),
                    _ => op.identity(),
                };
                (scanned, total)
            }
        };

        let mut start_states = vec![0u8; n_chunks];
        {
            let state_w = SlotWriter::new(&mut start_states);
            grid.run_partitioned(walks.len(), |_, ranges| {
                for (r, prefix) in walks[ranges.clone()].iter().zip(&scanned[ranges]) {
                    let from = prefix.get(start);
                    for c in r.chunks.clone() {
                        grid.check_abort(c);
                        let collapsed = c >= r.collapsed_from;
                        let state = r.walk.resolve(images[c], collapsed, from);
                        // SAFETY: worker ranges are disjoint and each is
                        // expanded by one worker.
                        unsafe { state_w.write(c, state) };
                    }
                }
            });
        }
        let final_state = if n_chunks == 0 {
            start
        } else {
            total.get(start)
        };
        (start_states, final_state)
    })?;

    Ok(ContextPass {
        start_states,
        final_state,
    })
}

impl ContextPass {
    /// Whether the whole input leaves the DFA in an accepting state, read
    /// off the `final_state` the scan produced — used by tests and by
    /// whole-input validation.
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
