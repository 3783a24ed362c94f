//! Equivalence suite for the pass-1 fast lane and the word-wise pass 2.
//!
//! The fast lane (per-byte fused tables, convergence collapse to at most
//! three live lanes, optional byte-pair table) and the word-accumulated
//! bitmap writes are pure optimisations: for *any* DFA the builder can
//! produce and any byte input, they must be bit-identical to the step-wise
//! reference simulation. This suite pins that with randomly generated
//! automata and byte soups, not just the CSV machine the unit tests use.

use parparaw::core::context::{determine_contexts, determine_contexts_fast};
use parparaw::core::meta::{identify_columns_and_records, ColOffset, ColOffsetOp, MetaPass};
use parparaw::core::options::ScanAlgorithm;
use parparaw::dfa::csv::{rfc4180, CsvDialect};
use parparaw::dfa::log::extended_log;
use parparaw::dfa::{Dfa, DfaBuilder, Emit, PairTable};
use parparaw::parallel::{Bitmap, Grid, KernelExecutor, ScanOp, SplitMix64};

/// A random complete DFA: 2–8 states, 1–3 explicit symbol groups plus the
/// catch-all, every `(group, state)` pair wired to a random target with a
/// random emission. Nothing about the fast lane may depend on the machine
/// being CSV-shaped.
fn random_dfa(rng: &mut SplitMix64) -> Dfa {
    let mut b = DfaBuilder::new();
    let n_states = rng.next_range(2, 9) as usize;
    let states: Vec<_> = (0..n_states).map(|i| b.state(&format!("s{i}"))).collect();

    // Disjoint random byte sets per group (a byte may only match one).
    let mut bytes: Vec<u8> = (0..=255).collect();
    for i in 0..bytes.len() {
        let j = i + rng.next_below((bytes.len() - i) as u64) as usize;
        bytes.swap(i, j);
    }
    let n_groups = rng.next_range(1, 4) as usize;
    let mut groups = Vec::new();
    let mut pos = 0;
    for _ in 0..n_groups {
        let len = rng.next_range(1, 5) as usize;
        groups.push(b.group(&bytes[pos..pos + len]));
        pos += len;
    }
    groups.push(b.catch_all());

    b.start(states[rng.next_below(n_states as u64) as usize]);
    b.accepting(&states);
    for &g in &groups {
        for &s in &states {
            let to = states[rng.next_below(n_states as u64) as usize];
            let emit = Emit::from_bits(rng.next_below(16) as u8);
            b.transition(s, g, to, emit);
        }
    }
    b.build().expect("random DFA is complete")
}

/// Byte soup biased towards the DFA's declared symbols so transitions and
/// emissions actually fire, with plain noise mixed in.
fn soup_for(dfa: &Dfa, rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let symbols: Vec<u8> = dfa
        .symbol_groups()
        .symbols()
        .iter()
        .map(|&(b, _)| b)
        .collect();
    rng.vec(len, |r| {
        if !symbols.is_empty() && r.chance(0.5) {
            *r.choice(&symbols)
        } else {
            r.next_u64() as u8
        }
    })
}

#[test]
fn fast_lane_matches_stepwise_on_random_dfas() {
    let mut rng = SplitMix64::new(0xFA57_0001);
    for _ in 0..40 {
        let dfa = random_dfa(&mut rng);
        let pair = PairTable::build(&dfa);
        let len = rng.next_range(0, 400) as usize;
        let input = soup_for(&dfa, &mut rng, len);
        let cs = rng.next_range(1, 130) as usize;
        for chunk in input.chunks(cs.min(input.len().max(1))) {
            let reference = dfa.transition_vector(chunk);
            let (plain, _) = dfa.transition_vector_fast(chunk, None);
            let (paired, _) = dfa.transition_vector_fast(chunk, Some(&pair));
            assert_eq!(
                plain.packed(),
                reference.packed(),
                "fast lane diverged (no pair table), chunk {chunk:?}"
            );
            assert_eq!(
                paired.packed(),
                reference.packed(),
                "fast lane diverged (pair table), chunk {chunk:?}"
            );
        }
    }
}

#[test]
fn collapse_preserves_recovered_contexts() {
    let mut rng = SplitMix64::new(0xFA57_0002);
    for round in 0..12 {
        // Alternate random machines with the CSV machine the pipeline
        // actually collapses to three live states.
        let dfa = if round % 3 == 0 {
            rfc4180(&CsvDialect::default())
        } else {
            random_dfa(&mut rng)
        };
        let len = rng.next_range(1, 3000) as usize;
        let input = soup_for(&dfa, &mut rng, len);
        let cs = rng.next_range(1, 200) as usize;
        let workers = rng.next_range(1, 5) as usize;

        let ctx = determine_contexts(&Grid::new(workers), &dfa, &input, cs);

        // Sequential reference: step the whole input once, recording the
        // state at every chunk boundary.
        let mut state = dfa.start_state();
        let mut expected_starts = Vec::new();
        for (i, &b) in input.iter().enumerate() {
            if i % cs == 0 {
                expected_starts.push(state);
            }
            state = dfa.step(state, b).next;
        }
        assert_eq!(ctx.start_states, expected_starts, "round {round}");
        assert_eq!(ctx.final_state, state, "round {round}");

        // The pair-table path recovers the identical contexts.
        let pair = PairTable::build(&dfa);
        let exec = KernelExecutor::new(Grid::new(workers));
        let paired =
            determine_contexts_fast(&exec, &dfa, &input, cs, ScanAlgorithm::Blocked, Some(&pair))
                .expect("pass 1 runs");
        assert_eq!(paired.start_states, expected_starts, "round {round} (pair)");
        assert_eq!(paired.final_state, state, "round {round} (pair)");
    }
}

/// Sequential per-bit reference for the pass-2 bitmaps, mirroring the
/// documented emission semantics: reject may co-occur with anything;
/// record beats field beats control.
fn reference_bitmaps(
    dfa: &Dfa,
    input: &[u8],
    chunk_size: usize,
    start_states: &[u8],
) -> [Bitmap; 4] {
    let n = input.len();
    let mut maps = [
        Bitmap::new(n),
        Bitmap::new(n),
        Bitmap::new(n),
        Bitmap::new(n),
    ];
    for (c, chunk) in input.chunks(chunk_size).enumerate() {
        let mut state = start_states[c];
        for (j, &b) in chunk.iter().enumerate() {
            let i = c * chunk_size + j;
            let step = dfa.step(state, b);
            state = step.next;
            if step.emit.is_reject() {
                maps[3].set(i);
            }
            if step.emit.is_record_delimiter() {
                maps[0].set(i);
            } else if step.emit.is_field_delimiter() {
                maps[1].set(i);
            } else if step.emit.is_control() {
                maps[2].set(i);
            }
        }
    }
    maps
}

#[test]
fn word_wise_pass2_matches_bit_reference() {
    let mut rng = SplitMix64::new(0xFA57_0003);
    for round in 0..12 {
        let dfa = if round % 3 == 0 {
            rfc4180(&CsvDialect::default())
        } else {
            random_dfa(&mut rng)
        };
        // Odd chunk sizes force chunk boundaries inside bitmap words, so
        // the shared boundary word is exercised every round.
        let len = rng.next_range(1, 4000) as usize;
        let input = soup_for(&dfa, &mut rng, len);
        let cs = rng.next_range(1, 150) as usize;
        let workers = rng.next_range(1, 5) as usize;

        let grid = Grid::new(workers);
        let ctx = determine_contexts(&grid, &dfa, &input, cs);
        let exec = KernelExecutor::new(grid);
        let meta = identify_columns_and_records(&exec, &dfa, &input, cs, &ctx.start_states)
            .expect("pass 2 runs");

        let [records, fields, control, rejects] =
            reference_bitmaps(&dfa, &input, cs, &ctx.start_states);
        assert_eq!(
            meta.records.words(),
            records.words(),
            "records, round {round}"
        );
        assert_eq!(meta.fields.words(), fields.words(), "fields, round {round}");
        assert_eq!(
            meta.control.words(),
            control.words(),
            "control, round {round}"
        );
        assert_eq!(
            meta.rejects.words(),
            rejects.words(),
            "rejects, round {round}"
        );

        // Each range starts at the record the reference bitmap has
        // counted up to its first byte.
        for r in &meta.ranges {
            let lo = (r.chunks.start * cs).min(input.len());
            let count = (0..lo).filter(|&i| records.get(i)).count() as u64;
            assert_eq!(r.record, count, "range {:?}, round {round}", r.chunks);
        }
    }
}

/// A random DFA whose every symbol group permutes the states: the image
/// of the multi-instance vector never shrinks, so with more than
/// [`parparaw::dfa::table::COLLAPSE_LANES`] states pass 1 never collapses
/// and steps at full width throughout.
fn permutation_dfa(rng: &mut SplitMix64) -> Dfa {
    let mut b = DfaBuilder::new();
    let n_states = rng.next_range(4, 9) as usize;
    let states: Vec<_> = (0..n_states).map(|i| b.state(&format!("p{i}"))).collect();
    let mut groups = Vec::new();
    for (i, set) in [&b","[..], b"\n", b"\"'"].into_iter().enumerate() {
        if i == 0 || rng.chance(0.7) {
            groups.push(b.group(set));
        }
    }
    groups.push(b.catch_all());
    b.start(states[0]);
    b.accepting(&states);
    for &g in &groups {
        let mut perm: Vec<usize> = (0..n_states).collect();
        for i in 0..n_states {
            let j = i + rng.next_below((n_states - i) as u64) as usize;
            perm.swap(i, j);
        }
        for (s, &to) in perm.iter().enumerate() {
            let emit = Emit::from_bits(rng.next_below(16) as u8);
            b.transition(states[s], g, states[to], emit);
        }
    }
    b.build().expect("permutation DFA is complete")
}

/// The paper's per-chunk pass-2 metadata (Fig. 4), which the worker-range
/// walk accumulates per range instead.
#[derive(Debug, Clone, Copy, Default)]
struct ChunkMeta {
    /// Record delimiters in the chunk.
    record_count: u32,
    /// The rel/abs column offset handed to the next chunk.
    col_offset: ColOffset,
}

/// Everything passes 1 and 2 report, computed one modelled chunk at a
/// time: `transition_vector_fast` per chunk and a sequential composition
/// for the contexts, then a step-wise walk of each chunk from its own
/// start state for the metadata, offsets and bitmaps.
struct Reference {
    start_states: Vec<u8>,
    final_state: u8,
    pass1_ops: u64,
    record_offsets: Vec<u64>,
    col_offsets: Vec<u32>,
    bitmaps: [Bitmap; 4],
    observed_columns: Option<(u32, u32)>,
    observed_columns_closed: Option<(u32, u32)>,
}

fn per_chunk_reference(dfa: &Dfa, input: &[u8], cs: usize, pair: Option<&PairTable>) -> Reference {
    let mut start_states = Vec::new();
    let mut state = dfa.start_state();
    let mut pass1_ops = 0;
    for chunk in input.chunks(cs) {
        start_states.push(state);
        let (vector, ops) = dfa.transition_vector_fast(chunk, pair);
        pass1_ops += ops;
        state = vector.get(state);
    }
    let final_state = state;

    let bitmaps = reference_bitmaps(dfa, input, cs, &start_states);
    let mut chunk_meta = Vec::new();
    for (c, chunk) in input.chunks(cs).enumerate() {
        let mut m = ChunkMeta::default();
        let mut rel = 0u32;
        let mut state = start_states[c];
        for &b in chunk {
            let step = dfa.step(state, b);
            state = step.next;
            if step.emit.is_record_delimiter() {
                m.record_count += 1;
                rel = 0;
            } else if step.emit.is_field_delimiter() {
                rel += 1;
            }
        }
        m.col_offset = ColOffset {
            abs: m.record_count > 0,
            value: rel,
        };
        chunk_meta.push(m);
    }
    let mut record_offsets = Vec::new();
    let mut col_offsets = Vec::new();
    let (mut rec, mut col) = (0u64, ColOffset::IDENTITY);
    for m in &chunk_meta {
        record_offsets.push(rec);
        col_offsets.push(col.value);
        rec += m.record_count as u64;
        col = ColOffsetOp.combine(&col, &m.col_offset);
    }

    // Columns per record over one sequential walk; a trailing record is
    // any field delimiter or data symbol after the last record delimiter.
    let mut closed: Option<(u32, u32)> = None;
    let (mut fields, mut trailing) = (0u32, false);
    let mut state = dfa.start_state();
    for &b in input {
        let step = dfa.step(state, b);
        state = step.next;
        let e = step.emit;
        if e.is_record_delimiter() {
            let cols = fields + 1;
            closed = Some(closed.map_or((cols, cols), |(lo, hi)| (lo.min(cols), hi.max(cols))));
            (fields, trailing) = (0, false);
        } else if e.is_field_delimiter() {
            fields += 1;
            trailing = true;
        } else if !e.is_control() {
            trailing = true;
        }
    }
    let observed_columns = match (closed, trailing) {
        (c, false) => c,
        (None, true) => Some((fields + 1, fields + 1)),
        (Some((lo, hi)), true) => Some((lo.min(fields + 1), hi.max(fields + 1))),
    };
    Reference {
        start_states,
        final_state,
        pass1_ops,
        record_offsets,
        col_offsets,
        bitmaps,
        observed_columns,
        observed_columns_closed: closed,
    }
}

/// Pass 2's ranges tile `0..n_chunks` in order, one per worker (a single
/// empty range for empty input), and each starts at the reference's
/// per-chunk offsets of its first chunk.
fn assert_range_starts(meta: &MetaPass, want: &Reference, workers: usize, at: &str) {
    let n_chunks = want.record_offsets.len();
    assert_eq!(meta.ranges.len(), workers.min(n_chunks.max(1)), "{at}");
    let mut next = 0;
    for r in &meta.ranges {
        assert_eq!(r.chunks.start, next, "ranges tile the chunks, {at}");
        next = r.chunks.end;
        if let Some(&record) = want.record_offsets.get(r.chunks.start) {
            assert_eq!(r.record, record, "range {:?} record, {at}", r.chunks);
            assert_eq!(r.col, want.col_offsets[r.chunks.start], "{at}");
        } else {
            assert_eq!((r.record, r.col), (0, 0), "{at}");
        }
    }
    assert_eq!(next, n_chunks, "ranges tile the chunks, {at}");
}

#[test]
fn worker_range_walks_match_per_chunk_reference() {
    let mut rng = SplitMix64::new(0xFA57_0004);
    let builders: Vec<(&str, Dfa)> = vec![
        ("csv", rfc4180(&CsvDialect::default())),
        ("tsv", rfc4180(&CsvDialect::tsv())),
        (
            "comment",
            rfc4180(&CsvDialect {
                comment: Some(b'#'),
                ..CsvDialect::default()
            }),
        ),
        ("log", extended_log()),
    ];
    let mut machines = builders;
    for i in 0..6 {
        machines.push(("random", random_dfa(&mut rng)));
        if i % 2 == 0 {
            machines.push(("permutation", permutation_dfa(&mut rng)));
        }
    }
    let mut never_collapsed = 0;
    for (name, dfa) in &machines {
        let pair = PairTable::build(dfa);
        for len in [0usize, 5, 700] {
            let input = soup_for(dfa, &mut rng, len);
            for cs in [1usize, 7, 31, 130] {
                for workers in [1usize, 2, 3, 8] {
                    for pair in [None, Some(&pair)] {
                        let want = per_chunk_reference(dfa, &input, cs, pair);
                        let exec = KernelExecutor::new(Grid::new(workers));
                        let at = format!(
                            "{name} len {len} cs {cs} workers {workers} pair {}",
                            pair.is_some()
                        );
                        let ctx = determine_contexts_fast(
                            &exec,
                            dfa,
                            &input,
                            cs,
                            ScanAlgorithm::Blocked,
                            pair,
                        )
                        .expect("pass 1 runs");
                        let pass1_ops = exec
                            .drain_log()
                            .iter()
                            .find(|r| r.label == "parse/pass1")
                            .expect("pass 1 logged")
                            .parallel_ops;
                        assert_eq!(ctx.start_states, want.start_states, "{at}");
                        assert_eq!(ctx.final_state, want.final_state, "{at}");
                        assert_eq!(pass1_ops, want.pass1_ops, "pass-1 counter, {at}");

                        let meta =
                            identify_columns_and_records(&exec, dfa, &input, cs, &ctx.start_states)
                                .expect("pass 2 runs");
                        assert_range_starts(&meta, &want, workers, &at);
                        let got = [&meta.records, &meta.fields, &meta.control, &meta.rejects];
                        for (g, w) in got.into_iter().zip(&want.bitmaps) {
                            assert_eq!(g.words(), w.words(), "{at}");
                        }
                        assert_eq!(meta.observed_columns, want.observed_columns, "{at}");
                        assert_eq!(
                            meta.observed_columns_closed, want.observed_columns_closed,
                            "{at}"
                        );
                    }
                }
            }
            let full = dfa.num_states() as u64 + 1;
            if *name == "permutation" && len > 0 {
                let (_, ops) = dfa.transition_vector_fast(&input, None);
                assert_eq!(ops, len as u64 * full, "{name} never collapses");
                never_collapsed += 1;
            }
        }
    }
    assert!(never_collapsed > 0);
}
