//! The fast-lane multi-DFA simulation: per-byte transition tables,
//! optional byte-pair composition, and convergence collapse.
//!
//! Pass 1 is byte-bound: the step-wise kernel pays a symbol-group lookup
//! plus a nibble loop over *all* tracked DFA instances for every input
//! byte ([`Dfa::transition_vector`]). This module removes both costs:
//!
//! * **Per-byte table** — [`Dfa::byte_row`] maps a byte straight to its
//!   packed transition row, so stepping the vector is
//!   `v = compose(v, TABLE[b])`, one load and one `step_all` per byte.
//! * **Convergence collapse** — the distinct-state *image* of the running
//!   vector can only shrink under composition (if two instances ever meet
//!   in the same state they stay together forever, and no composition can
//!   split an entry in two). Speculative-DFA simulations are known to
//!   collapse to a handful of live states within a few bytes; RFC 4180
//!   CSV collapses to at most three (quoted, unquoted, and the absorbing
//!   invalid sink). Once the image fits [`COLLAPSE_LANES`] states the
//!   kernel steps only the live states — a fixed 3-lane inner loop — and
//!   rebuilds the full vector by remapping at the end.
//! * **Byte-pair table** — [`PairTable`] precomposes every two-byte
//!   sequence into one row (64 Ki × u64 = 512 KiB, L2-resident), halving
//!   the loads in the collapsed loop. Optional and ablated; enabled via
//!   `ParserOptions::pass1_pair_table` in `parparaw-core`.
//!
//! The fast kernel returns the lane-operation count it actually executed
//! so the simulated-device cost replay sees the reduced work.
//!
//! [`Dfa::transition_vector_fast`] is the per-chunk kernel of the paper's
//! model. The pipeline's host kernel is [`LaneWalk`], the same collapse
//! run once over a whole range of consecutive chunks, and
//! [`Dfa::fast_lane_ops`] reproduces the per-chunk kernel's count for
//! each chunk without computing its vector.

use crate::dfa::Dfa;
use crate::vector::StateVector;

/// Live states the collapsed inner loop tracks. Three covers RFC 4180
/// CSV (quoted/unquoted plus the absorbing reject sink) and every format
/// shipped in this crate while keeping the loop fully unrolled.
pub const COLLAPSE_LANES: usize = 3;

/// Bytes simulated at full width before the first collapse check; checks
/// then back off exponentially (capped at [`COLLAPSE_RECHECK`]) so
/// non-collapsing automata pay almost nothing for the bookkeeping.
const COLLAPSE_CHECK_AFTER: usize = 4;
const COLLAPSE_RECHECK: usize = 64;

/// A 64 Ki-entry table mapping every byte *pair* to the packed transition
/// row of reading both bytes in order: `row(a, b)[s]` is the state reached
/// from `s` after consuming `a` then `b`.
///
/// 512 KiB — sized to sit in L2, not L1; whether the halved load count
/// beats the bigger working set is workload-dependent, which is why the
/// table is optional and ablated rather than always on.
#[derive(Clone)]
pub struct PairTable {
    rows: Vec<u64>,
    num_states: u8,
}

impl std::fmt::Debug for PairTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairTable")
            .field("num_states", &self.num_states)
            .field("size_bytes", &self.size_bytes())
            .finish()
    }
}

impl PairTable {
    /// Precompose all byte pairs for `dfa`. Costs one pass over the
    /// group-pair matrix plus a 64 Ki fill — microseconds, paid once per
    /// parser build.
    pub fn build(dfa: &Dfa) -> PairTable {
        let ns = dfa.num_states();
        let ng = dfa.symbol_groups().num_groups() as usize;
        // Compose at group granularity first (≤ 16×16 pairs), then fan
        // out to bytes through the group mapping.
        let mut group_pairs = vec![0u64; ng * ng];
        for g0 in 0..ng {
            let r0 = dfa.transition_row(g0 as u8);
            for g1 in 0..ng {
                let r1 = dfa.transition_row(g1 as u8);
                let mut row = 0u64;
                for s in 0..ns as u64 {
                    let mid = (r0 >> (4 * s)) & 0xF;
                    row |= ((r1 >> (4 * mid)) & 0xF) << (4 * s);
                }
                group_pairs[g0 * ng + g1] = row;
            }
        }
        let mut rows = vec![0u64; 1 << 16];
        for b0 in 0..256usize {
            let g0 = dfa.group_of(b0 as u8) as usize;
            for b1 in 0..256usize {
                let g1 = dfa.group_of(b1 as u8) as usize;
                rows[(b0 << 8) | b1] = group_pairs[g0 * ng + g1];
            }
        }
        PairTable {
            rows,
            num_states: ns,
        }
    }

    /// The packed transition row for reading `b0` then `b1`.
    #[inline(always)]
    pub fn row(&self, b0: u8, b1: u8) -> u64 {
        self.rows[((b0 as usize) << 8) | b1 as usize]
    }

    /// Number of DFA states the table was built for.
    pub fn num_states(&self) -> u8 {
        self.num_states
    }

    /// Table footprint in bytes (64 Ki rows × 8).
    pub fn size_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<u64>()
    }
}

/// The distinct states in `v`'s image when there are at most
/// [`COLLAPSE_LANES`] of them: `(lanes, count)`, unused lanes duplicating
/// the last live state so the unrolled loop needs no bounds logic.
#[inline]
fn collapse_image(v: &StateVector) -> Option<([u8; COLLAPSE_LANES], usize)> {
    let mut lanes = [0u8; COLLAPSE_LANES];
    let mut k = 0usize;
    for i in 0..v.num_states() {
        let s = v.get(i);
        if !lanes[..k].contains(&s) {
            if k == COLLAPSE_LANES {
                return None;
            }
            lanes[k] = s;
            k += 1;
        }
    }
    let k = k.max(1);
    let fill = lanes[k - 1];
    for lane in lanes.iter_mut().skip(k) {
        *lane = fill;
    }
    Some((lanes, k))
}

impl Dfa {
    /// Table-driven pass-1 kernel with convergence collapse: the fast
    /// lane of [`Dfa::transition_vector`], bit-identical to it for every
    /// input (the `fast_lane` test suite drives that equivalence).
    ///
    /// Returns the chunk's state-transition vector plus the number of
    /// lane operations actually executed (row fetch + one op per live
    /// lane per byte), which the pipeline reports to the device cost
    /// model in place of the step-wise kernel's `|S|+1` per byte.
    pub fn transition_vector_fast(
        &self,
        chunk: &[u8],
        pair: Option<&PairTable>,
    ) -> (StateVector, u64) {
        let ns = self.num_states;
        let full_width = ns as u64 + 1;
        let mut v = StateVector::identity(ns);
        let mut ops = 0u64;
        let mut pos = 0usize;

        // Warm-up at full width until the image collapses. Composition
        // only ever shrinks the image, so a collapsed vector stays
        // collapsed for the rest of the chunk.
        let mut check_at = COLLAPSE_CHECK_AFTER;
        let mut collapsed = collapse_image(&v);
        while collapsed.is_none() && pos < chunk.len() {
            let end = chunk.len().min(pos + check_at);
            for &b in &chunk[pos..end] {
                v.step_all(self.byte_row(b));
            }
            ops += (end - pos) as u64 * full_width;
            pos = end;
            check_at = (check_at * 2).min(COLLAPSE_RECHECK);
            collapsed = collapse_image(&v);
        }

        let (lanes, live) = match collapsed {
            Some(c) => c,
            None => return (v, ops), // never collapsed; chunk fully simulated
        };
        if pos == chunk.len() {
            return (v, ops);
        }

        // Collapsed loop: step only the live states, 3 unrolled lanes.
        let [mut s0, mut s1, mut s2] = lanes;
        let rest = &chunk[pos..];
        let lane_width = live as u64 + 1;
        match pair {
            Some(pt) => {
                let mut pairs = rest.chunks_exact(2);
                for p in pairs.by_ref() {
                    let row = pt.row(p[0], p[1]);
                    s0 = Dfa::next_in_row(row, s0);
                    s1 = Dfa::next_in_row(row, s1);
                    s2 = Dfa::next_in_row(row, s2);
                }
                ops += (rest.len() / 2) as u64 * lane_width;
                for &b in pairs.remainder() {
                    let row = self.byte_row(b);
                    s0 = Dfa::next_in_row(row, s0);
                    s1 = Dfa::next_in_row(row, s1);
                    s2 = Dfa::next_in_row(row, s2);
                    ops += lane_width;
                }
            }
            None => {
                for &b in rest {
                    let row = self.byte_row(b);
                    s0 = Dfa::next_in_row(row, s0);
                    s1 = Dfa::next_in_row(row, s1);
                    s2 = Dfa::next_in_row(row, s2);
                }
                ops += rest.len() as u64 * lane_width;
            }
        }

        // Remap: every full-width entry sat in one of the live lanes when
        // the collapse happened; route it to that lane's final state.
        let finals = [s0, s1, s2];
        let mut out = v;
        for i in 0..ns {
            let mid = v.get(i);
            // Invariant: collapse_image listed every distinct image state.
            let lane = lanes[..live]
                .iter()
                .position(|&l| l == mid)
                .expect("image state missing from collapse lanes");
            out.set(i, finals[lane]);
        }
        ops += ns as u64;
        (out, ops)
    }

    /// The lane-operation count [`Dfa::transition_vector_fast`] reports
    /// for `chunk`, without computing the vector: the image of the
    /// chunk-local vector is tracked as a state mask through the same
    /// warm-up check points, and the collapsed loop's share follows in
    /// closed form. The pipeline charges this per modelled chunk while
    /// its host walk ([`LaneWalk`]) spans many chunks at once.
    pub fn fast_lane_ops(&self, chunk: &[u8], pair: bool) -> u64 {
        let ns = self.num_states;
        let full_width = ns as u64 + 1;
        let mut image: u16 = ((1u32 << ns) - 1) as u16;
        let mut ops = 0u64;
        let mut pos = 0usize;
        let mut check_at = COLLAPSE_CHECK_AFTER;
        while image.count_ones() as usize > COLLAPSE_LANES && pos < chunk.len() {
            let end = chunk.len().min(pos + check_at);
            for &b in &chunk[pos..end] {
                let row = self.byte_row(b);
                let mut rest = image;
                image = 0;
                while rest != 0 {
                    image |= 1 << Dfa::next_in_row(row, rest.trailing_zeros() as u8);
                    rest &= rest - 1;
                }
            }
            ops += (end - pos) as u64 * full_width;
            pos = end;
            check_at = (check_at * 2).min(COLLAPSE_RECHECK);
        }
        let live = image.count_ones().max(1) as u64;
        if live as usize > COLLAPSE_LANES || pos == chunk.len() {
            return ops;
        }
        let rest = (chunk.len() - pos) as u64;
        let steps = if pair { rest / 2 + rest % 2 } else { rest };
        ops + steps * (live + 1) + ns as u64
    }
}

/// Pass 1 over a run of consecutive chunks in one walk: the vector is
/// stepped at full width from the identity until its image collapses
/// (checked at the cadence of [`Dfa::transition_vector_fast`], counted
/// from the walk's start), then only the ≤ [`COLLAPSE_LANES`] live lanes
/// are stepped for the rest of the run. Between [`LaneWalk::step`] calls
/// the caller reads the walk's [`LaneWalk::image`] — one packed vector —
/// at each chunk start, and resolves it to a state with
/// [`LaneWalk::resolve`] once the state at the walk's start is known.
///
/// With a [`PairTable`] the collapsed loop steps two bytes at a time
/// within each `step` call, so no pair straddles a caller's chunk
/// boundary.
#[derive(Debug, Clone)]
pub struct LaneWalk<'d> {
    dfa: &'d Dfa,
    pair: Option<&'d PairTable>,
    /// The full-width vector from the walk's start; frozen at collapse.
    vector: StateVector,
    /// The live lanes once collapsed: lane `l` holds the current state of
    /// every start state whose entry in `lane_of` is `l`.
    lanes: Option<[u8; COLLAPSE_LANES]>,
    /// Lane of each start state, 4 bits per state (valid once collapsed).
    lane_of: u64,
    /// Bytes stepped at full width, and where the next collapse check is.
    pos: usize,
    next_check: usize,
    check_step: usize,
}

impl<'d> LaneWalk<'d> {
    /// A walk at the identity vector.
    pub fn new(dfa: &'d Dfa, pair: Option<&'d PairTable>) -> Self {
        let mut walk = LaneWalk {
            dfa,
            pair,
            vector: StateVector::identity(dfa.num_states()),
            lanes: None,
            lane_of: 0,
            pos: 0,
            next_check: COLLAPSE_CHECK_AFTER,
            check_step: COLLAPSE_CHECK_AFTER,
        };
        walk.try_collapse();
        walk
    }

    fn try_collapse(&mut self) {
        if let Some((lanes, live)) = collapse_image(&self.vector) {
            for i in 0..self.vector.num_states() {
                let mid = self.vector.get(i);
                // Invariant: collapse_image listed every distinct image state.
                let lane = lanes[..live]
                    .iter()
                    .position(|&l| l == mid)
                    .expect("image state missing from collapse lanes");
                self.lane_of |= (lane as u64) << (4 * i);
            }
            self.lanes = Some(lanes);
        }
    }

    /// Whether the walk steps collapsed lanes rather than the full vector.
    pub fn is_collapsed(&self) -> bool {
        self.lanes.is_some()
    }

    /// The walk so far as one packed vector: entry `s` is the state
    /// reached from start state `s` before collapse, entry `l` the state
    /// of lane `l` after it.
    pub fn image(&self) -> u64 {
        match self.lanes {
            Some([a, b, c]) => a as u64 | (b as u64) << 4 | (c as u64) << 8,
            None => self.vector.packed(),
        }
    }

    /// The state an [`LaneWalk::image`] records for start state `from`;
    /// `collapsed` is what [`LaneWalk::is_collapsed`] said when the image
    /// was taken. Lane assignments never change after the collapse, so
    /// this may be called on the walk's final value.
    #[inline]
    pub fn resolve(&self, image: u64, collapsed: bool, from: u8) -> u8 {
        let entry = if collapsed {
            Dfa::next_in_row(self.lane_of, from)
        } else {
            from
        };
        Dfa::next_in_row(image, entry)
    }

    /// Advance the walk over `input[start..end]`.
    pub fn step(&mut self, input: &[u8], start: usize, end: usize) {
        let mut i = start;
        while self.lanes.is_none() && i < end {
            let take = (end - i).min(self.next_check - self.pos);
            for &b in &input[i..i + take] {
                self.vector.step_all(self.dfa.byte_row(b));
            }
            self.pos += take;
            i += take;
            if self.pos == self.next_check {
                self.check_step = (self.check_step * 2).min(COLLAPSE_RECHECK);
                self.next_check += self.check_step;
                self.try_collapse();
            }
        }
        if let Some(lanes) = self.lanes {
            self.lanes = Some(self.step_lanes(lanes, &input[i..end]));
        }
    }

    /// Step `lanes` over every byte of `bytes`, two at a time through the
    /// pair table when there is one.
    #[inline]
    fn step_lanes(
        &self,
        [mut s0, mut s1, mut s2]: [u8; COLLAPSE_LANES],
        bytes: &[u8],
    ) -> [u8; COLLAPSE_LANES] {
        let mut single = bytes;
        if let Some(pt) = self.pair {
            let mut pairs = bytes.chunks_exact(2);
            for p in pairs.by_ref() {
                let row = pt.row(p[0], p[1]);
                s0 = Dfa::next_in_row(row, s0);
                s1 = Dfa::next_in_row(row, s1);
                s2 = Dfa::next_in_row(row, s2);
            }
            single = pairs.remainder();
        }
        for &b in single {
            let row = self.dfa.byte_row(b);
            s0 = Dfa::next_in_row(row, s0);
            s1 = Dfa::next_in_row(row, s1);
            s2 = Dfa::next_in_row(row, s2);
        }
        [s0, s1, s2]
    }

    /// The transition vector of everything stepped so far.
    pub fn vector(&self) -> StateVector {
        let mut out = self.vector;
        if self.lanes.is_some() {
            let image = self.image();
            for i in 0..out.num_states() {
                out.set(i, self.resolve(image, true, i));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{rfc4180, rfc4180_paper, CsvDialect};

    #[test]
    fn pair_table_matches_two_steps() {
        let dfa = rfc4180_paper();
        let pt = PairTable::build(&dfa);
        assert_eq!(pt.size_bytes(), 512 * 1024);
        for b0 in [b'a', b',', b'\n', b'"', 0x00, 0xFF] {
            for b1 in [b'x', b',', b'\n', b'"', 0x7F] {
                let row = pt.row(b0, b1);
                for s in 0..dfa.num_states() {
                    let want = dfa.step(dfa.step(s, b0).next, b1).next;
                    assert_eq!(Dfa::next_in_row(row, s), want, "{b0} {b1} from {s}");
                }
            }
        }
    }

    #[test]
    fn byte_rows_match_group_rows() {
        let dfa = rfc4180(&CsvDialect {
            comment: Some(b'#'),
            ..CsvDialect::default()
        });
        for b in 0..=255u8 {
            let g = dfa.group_of(b);
            assert_eq!(dfa.byte_row(b), dfa.transition_row(g));
            assert_eq!(dfa.byte_emit_row(b), dfa.emit_row(g));
        }
    }

    #[test]
    fn fast_vector_equals_stepwise_on_csv() {
        let dfa = rfc4180_paper();
        let pt = PairTable::build(&dfa);
        let input: &[u8] =
            b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        for len in 0..input.len() {
            let chunk = &input[..len];
            let want = dfa.transition_vector(chunk);
            let (got, _) = dfa.transition_vector_fast(chunk, None);
            assert_eq!(got, want, "no pair table, len {len}");
            let (got, _) = dfa.transition_vector_fast(chunk, Some(&pt));
            assert_eq!(got, want, "pair table, len {len}");
        }
    }

    #[test]
    fn lane_op_count_matches_the_fast_kernel() {
        let dfa = rfc4180_paper();
        let pt = PairTable::build(&dfa);
        let input: &[u8] =
            b"1941,199.99,\"Bookcase\"\n1938,19.99,\"Frame\n\"\"Ribba\"\", black\"\n";
        for lo in 0..8 {
            for hi in lo..input.len() {
                let chunk = &input[lo..hi];
                for pair in [None, Some(&pt)] {
                    let (_, ops) = dfa.transition_vector_fast(chunk, pair);
                    assert_eq!(dfa.fast_lane_ops(chunk, pair.is_some()), ops, "{lo}..{hi}");
                }
            }
        }
    }

    #[test]
    fn lane_walk_images_resolve_to_every_start_state() {
        let dfa = rfc4180_paper();
        let pt = PairTable::build(&dfa);
        let input: &[u8] = b"a,\"b\nc\",d\n\"\"\"x\",,\ny,\"z\"\"\"\n";
        for cs in [1usize, 2, 3, 5, 13] {
            for pair in [None, Some(&pt)] {
                let mut walk = LaneWalk::new(&dfa, pair);
                let mut images = Vec::new();
                for lo in (0..input.len()).step_by(cs) {
                    images.push((walk.image(), walk.is_collapsed()));
                    walk.step(input, lo, (lo + cs).min(input.len()));
                }
                assert!(walk.is_collapsed());
                assert_eq!(walk.vector(), dfa.transition_vector(input), "cs {cs}");
                for from in 0..dfa.num_states() {
                    let mut state = from;
                    for (c, chunk) in input.chunks(cs).enumerate() {
                        let (image, collapsed) = images[c];
                        assert_eq!(
                            walk.resolve(image, collapsed, from),
                            state,
                            "cs {cs} chunk {c}"
                        );
                        state = dfa.transition_vector(chunk).get(state);
                    }
                }
            }
        }
    }

    #[test]
    fn collapse_reduces_reported_ops() {
        let dfa = rfc4180_paper();
        let chunk = vec![b'x'; 1024];
        let (_, fast_ops) = dfa.transition_vector_fast(&chunk, None);
        let stepwise_ops = chunk.len() as u64 * (dfa.num_states() as u64 + 1);
        // 3 live lanes + row fetch vs 6 states + fetch per byte.
        assert!(
            fast_ops < stepwise_ops * 2 / 3,
            "collapse must reduce work: {fast_ops} vs {stepwise_ops}"
        );
    }

    #[test]
    fn csv_collapses_to_three_states() {
        // After one data byte the CSV image is {FLD, ENC, INV}: the
        // absorbing INV sink keeps a third live state forever.
        let dfa = rfc4180_paper();
        let mut v = StateVector::identity(dfa.num_states());
        v.step_all(dfa.byte_row(b'x'));
        let (lanes, live) = collapse_image(&v).expect("one data byte collapses CSV");
        assert_eq!(live, 3, "lanes {lanes:?}");
    }
}
