//! Stable parallel LSD radix sort.
//!
//! Paper §3.3: "ParPaRaw ensures that symbols within a column maintain their
//! order by using a stable radix sort that uses the symbols' column-tags as
//! the sort-key. … A single partitioning pass involves (1) computing the
//! histogram over the number of items that belong to each partition,
//! (2) computing the exclusive prefix sum over the histogram's counts, and
//! (3) scattering the items to the respective partition."
//!
//! Stability under parallel scatter comes from scanning the per-worker
//! histograms in *(digit-major, worker-minor)* order: worker `w`'s run of
//! digit `d` lands directly after worker `w-1`'s run of the same digit, so
//! items keep their relative input order.

use crate::executor::BufferArena;
use crate::grid::{Grid, SlotWriter};
use crate::histogram::local_histograms_digits;

/// Sort `(keys, values)` pairs stably by key using LSD radix passes of
/// `digit_bits` bits. `max_key` bounds the key domain so only the necessary
/// passes run (the paper sorts by column tag, whose domain is the column
/// count).
///
/// Scratch buffers are allocated fresh; pipeline callers with an executor
/// should prefer [`sort_pairs_by_key_in`], which draws them from a
/// [`BufferArena`] so steady-state streaming re-sorts allocation-free.
pub fn sort_pairs_by_key<V>(
    grid: &Grid,
    keys: &mut Vec<u32>,
    values: &mut Vec<V>,
    max_key: u32,
    digit_bits: u32,
) where
    V: Clone + Send + Sync,
{
    let mut keys_out = Vec::new();
    let mut values_out = Vec::new();
    let mut digits = Vec::new();
    sort_core(
        grid,
        keys,
        values,
        &mut keys_out,
        &mut values_out,
        &mut digits,
        max_key,
        digit_bits,
    );
}

/// [`sort_pairs_by_key`] with scratch (key/value ping-pong buffers and the
/// per-pass digit cache) taken from — and returned to — `arena` under the
/// `radix/*` labels.
pub fn sort_pairs_by_key_in<V>(
    grid: &Grid,
    arena: &BufferArena,
    keys: &mut Vec<u32>,
    values: &mut Vec<V>,
    max_key: u32,
    digit_bits: u32,
) where
    V: Clone + Send + Sync + 'static,
{
    let mut keys_out = arena.take_u32("radix/keys");
    let mut values_out = arena.take_vec::<V>("radix/values");
    let mut digits = arena.take_vec::<u16>("radix/digits");
    sort_core(
        grid,
        keys,
        values,
        &mut keys_out,
        &mut values_out,
        &mut digits,
        max_key,
        digit_bits,
    );
    arena.put_u32("radix/keys", keys_out);
    arena.put_vec("radix/values", values_out);
    arena.put_vec("radix/digits", digits);
}

/// The pass loop shared by the allocating and arena entry points. The
/// scratch vectors arrive with arbitrary contents and leave holding
/// whatever the last swap left behind; only their capacity matters.
#[allow(clippy::too_many_arguments)]
fn sort_core<V>(
    grid: &Grid,
    keys: &mut Vec<u32>,
    values: &mut Vec<V>,
    keys_out: &mut Vec<u32>,
    values_out: &mut Vec<V>,
    digits: &mut Vec<u16>,
    max_key: u32,
    digit_bits: u32,
) where
    V: Clone + Send + Sync,
{
    assert_eq!(
        keys.len(),
        values.len(),
        "keys and values must be the same length"
    );
    let digit_bits = digit_bits.clamp(1, 16);
    let num_bins = 1usize << digit_bits;
    let key_bits = 32 - max_key.leading_zeros();
    let passes = key_bits.div_ceil(digit_bits).max(1);

    let n = keys.len();
    keys_out.clear();
    keys_out.resize(n, 0);
    // No `V: Default`: initialise the value scratch by cloning the input
    // (every slot is overwritten by the scatter before it is read).
    values_out.clear();
    values_out.extend(values.iter().cloned());
    digits.clear();
    digits.resize(n, 0);

    for pass in 0..passes {
        let shift = pass * digit_bits;
        partition_pass_digits(
            grid, keys, values, keys_out, values_out, shift, num_bins, digits,
        );
        std::mem::swap(keys, keys_out);
        std::mem::swap(values, values_out);
    }
}

/// One stable partitioning pass on digit `(key >> shift) & (num_bins-1)`,
/// with a caller-provided digit cache: the histogram pass stores each
/// item's digit, the scatter pass reads it back, so the shift-and-mask
/// runs once per item instead of twice.
#[allow(clippy::too_many_arguments)]
fn partition_pass_digits<V>(
    grid: &Grid,
    keys: &[u32],
    values: &[V],
    keys_out: &mut [u32],
    values_out: &mut [V],
    shift: u32,
    num_bins: usize,
    digits: &mut [u16],
) where
    V: Clone + Send + Sync,
{
    let n = keys.len();
    let mask = (num_bins - 1) as u32;
    let digit = |i: usize| (keys[i] >> shift) & mask;

    // (1) Per-worker histograms, caching each item's digit as it is
    // computed.
    let locals = local_histograms_digits(grid, n, num_bins, &digit, digits);
    let num_workers = locals.len();

    // (2) Exclusive prefix sum in digit-major, worker-minor order.
    let mut starts = vec![vec![0u64; num_bins]; num_workers];
    let mut running = 0u64;
    for d in 0..num_bins {
        for w in 0..num_workers {
            starts[w][d] = running;
            running += locals[w][d];
        }
    }
    debug_assert_eq!(running as usize, n);

    // (3) Stable scatter: each worker walks its contiguous input range in
    // order, so writes within (worker, digit) are ordered, and the start
    // offsets order (digit, worker) runs correctly. Digits come from the
    // cache filled in step (1).
    {
        let kw = SlotWriter::new(keys_out);
        let vw = SlotWriter::new(values_out);
        let digits = &digits[..];
        grid.run_partitioned(n, |w, range| {
            let mut cursors = starts[w].clone();
            for i in range {
                grid.check_abort(i);
                let d = digits[i] as usize;
                let dst = cursors[d] as usize;
                cursors[d] += 1;
                unsafe {
                    kw.write(dst, keys[i]);
                    vw.write(dst, values[i].clone());
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn check_sorted_stable(orig_keys: &[u32], keys: &[u32], values: &[u64]) {
        // keys ascending
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        // stability: values carry original index; within equal keys they
        // must stay increasing.
        for w in keys.windows(2).zip(values.windows(2)) {
            if w.0[0] == w.0[1] {
                assert!(w.1[0] < w.1[1], "stability violated");
            }
        }
        // permutation check
        let mut a = orig_keys.to_vec();
        let mut b = keys.to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn sorts_small() {
        let grid = Grid::new(3);
        let mut keys = vec![3u32, 1, 2, 1, 0, 3, 1];
        let orig = keys.clone();
        let mut vals: Vec<u64> = (0..keys.len() as u64).collect();
        sort_pairs_by_key(&grid, &mut keys, &mut vals, 3, 2);
        check_sorted_stable(&orig, &keys, &vals);
    }

    #[test]
    fn empty_input() {
        let grid = Grid::new(2);
        let mut keys: Vec<u32> = vec![];
        let mut vals: Vec<u64> = vec![];
        sort_pairs_by_key(&grid, &mut keys, &mut vals, 100, 8);
        assert!(keys.is_empty());
    }

    #[test]
    fn max_key_zero() {
        let grid = Grid::new(2);
        let mut keys = vec![0u32; 10];
        let mut vals: Vec<u64> = (0..10).collect();
        sort_pairs_by_key(&grid, &mut keys, &mut vals, 0, 8);
        assert_eq!(vals, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn matches_std_stable_sort() {
        let mut rng = SplitMix64::new(0x5047);
        for case in 0..48 {
            let len = rng.next_below(600) as usize;
            let keys = rng.vec(len, |r| r.next_below(50) as u32);
            let workers = rng.next_range(1, 5) as usize;
            let digit_bits = rng.next_range(1, 8) as u32;
            let grid = Grid::new(workers);
            let mut k = keys.clone();
            let mut v: Vec<u64> = (0..keys.len() as u64).collect();
            sort_pairs_by_key(&grid, &mut k, &mut v, 49, digit_bits);

            let mut want: Vec<(u32, u64)> =
                keys.iter().copied().zip(0..keys.len() as u64).collect();
            want.sort_by_key(|p| p.0); // std stable sort
            let want_k: Vec<u32> = want.iter().map(|p| p.0).collect();
            let want_v: Vec<u64> = want.iter().map(|p| p.1).collect();
            assert_eq!(k, want_k, "case {case} workers {workers} bits {digit_bits}");
            assert_eq!(v, want_v, "case {case} workers {workers} bits {digit_bits}");
        }
    }

    #[test]
    fn arena_variant_matches_and_reuses_scratch() {
        let mut rng = SplitMix64::new(0xa2e4a);
        let arena = BufferArena::default();
        let grid = Grid::new(3);
        for case in 0..8 {
            let len = 1 + rng.next_below(499) as usize;
            let keys = rng.vec(len, |r| r.next_below(300) as u32);
            let mut k1 = keys.clone();
            let mut v1: Vec<u64> = (0..len as u64).collect();
            sort_pairs_by_key(&grid, &mut k1, &mut v1, 299, 4);
            let mut k2 = keys;
            let mut v2: Vec<u64> = (0..len as u64).collect();
            sort_pairs_by_key_in(&grid, &arena, &mut k2, &mut v2, 299, 4);
            assert_eq!(k1, k2, "case {case}");
            assert_eq!(v1, v2, "case {case}");
        }
        let (hits, misses) = arena.stats();
        assert_eq!(misses, 3, "first call allocates keys/values/digits once");
        assert_eq!(hits, 7 * 3, "every later call reuses all three buffers");
    }

    #[test]
    fn large_key_domain() {
        let mut rng = SplitMix64::new(0x1a46e);
        for case in 0..24 {
            let len = rng.next_below(300) as usize;
            let keys = rng.vec(len, |r| r.next_below(1_000_000) as u32);
            let grid = Grid::new(4);
            let mut k = keys.clone();
            let mut v: Vec<u64> = (0..keys.len() as u64).collect();
            sort_pairs_by_key(&grid, &mut k, &mut v, 999_999, 8);
            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(k, want, "case {case} len {len}");
        }
    }
}
