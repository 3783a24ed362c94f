//! Prefix scans over arbitrary associative operators.
//!
//! The scan is *the* fundamental primitive of ParPaRaw (paper §2): the
//! parsing-context recovery, record offsets, column offsets and CSS index
//! are all scans. Two of the three operators are non-commutative (the
//! state-vector composite and the rel/abs column-offset operator), so every
//! implementation here is careful to combine elements strictly left to
//! right.
//!
//! Three implementations are provided:
//!
//! * [`inclusive_scan_seq`] / [`exclusive_scan_seq`] — reference sequential
//!   scans, used for testing and as the single-worker fast path;
//! * [`inclusive_scan`] / [`exclusive_scan`] — blocked three-phase parallel
//!   scans (per-tile reduce, scan of tile aggregates, per-tile downsweep);
//! * [`crate::lookback`] — the Merrill & Garland single-pass *decoupled
//!   look-back* scan the paper builds on, exposed separately.

use crate::grid::{Grid, SlotWriter};

/// A binary associative operator with an identity element.
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
/// `combine(a, combine(b, c)) == combine(combine(a, b), c)` and
/// `combine(identity(), a) == combine(a, identity()) == a`.
/// Commutativity is *not* required — the composite operator of paper §3.1
/// is non-commutative.
pub trait ScanOp: Sync {
    /// Element type flowing through the scan.
    type Item: Clone + Send + Sync;

    /// The identity element.
    fn identity(&self) -> Self::Item;

    /// Combine two elements; `a` is the element on the left.
    fn combine(&self, a: &Self::Item, b: &Self::Item) -> Self::Item;
}

/// Addition over any primitive integer, the "prefix sum" of the paper.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddOp;

macro_rules! impl_add_scan {
    ($($t:ty),*) => {
        $(
            impl ScanOpFor<$t> for AddOp {
                fn id(&self) -> $t { 0 }
                fn comb(&self, a: &$t, b: &$t) -> $t { a.wrapping_add(*b) }
            }
        )*
    };
}

/// Helper trait so [`AddOp`] can serve several integer widths.
pub trait ScanOpFor<T>: Sync {
    /// Identity element for `T`.
    fn id(&self) -> T;
    /// Combine two `T`s.
    fn comb(&self, a: &T, b: &T) -> T;
}

impl_add_scan!(u8, u16, u32, u64, usize, i32, i64);

/// Adapter turning a [`ScanOpFor<T>`] into a [`ScanOp`] with `Item = T`.
pub struct OpFor<'a, T, O: ScanOpFor<T>> {
    op: &'a O,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: Clone + Send + Sync, O: ScanOpFor<T>> ScanOp for OpFor<'_, T, O> {
    type Item = T;
    fn identity(&self) -> T {
        self.op.id()
    }
    fn combine(&self, a: &T, b: &T) -> T {
        self.op.comb(a, b)
    }
}

impl ScanOp for AddOp {
    type Item = u64;
    fn identity(&self) -> u64 {
        0
    }
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

/// Sequential inclusive scan: `out[i] = x[0] ⊕ … ⊕ x[i]`.
pub fn inclusive_scan_seq<O: ScanOp>(items: &[O::Item], op: &O) -> Vec<O::Item> {
    let mut out = Vec::with_capacity(items.len());
    let mut acc = op.identity();
    for x in items {
        acc = op.combine(&acc, x);
        out.push(acc.clone());
    }
    out
}

/// Sequential exclusive scan: `out[i] = x[0] ⊕ … ⊕ x[i-1]`, `out[0] = id`.
pub fn exclusive_scan_seq<O: ScanOp>(items: &[O::Item], op: &O) -> Vec<O::Item> {
    let mut out = Vec::with_capacity(items.len());
    let mut acc = op.identity();
    for x in items {
        out.push(acc.clone());
        acc = op.combine(&acc, x);
    }
    out
}

/// Blocked three-phase parallel inclusive scan.
///
/// Phase 1: each worker reduces its contiguous tile. Phase 2: the per-tile
/// aggregates are exclusively scanned sequentially (there are only
/// `workers` of them). Phase 3: each worker re-scans its tile seeded with
/// its tile prefix. Deterministic for any worker count because tiles are
/// contiguous and the operator is associative.
pub fn inclusive_scan<O: ScanOp>(grid: &Grid, items: &[O::Item], op: &O) -> Vec<O::Item> {
    scan_blocked(grid, items, op, false)
}

/// Blocked three-phase parallel exclusive scan. See [`inclusive_scan`].
pub fn exclusive_scan<O: ScanOp>(grid: &Grid, items: &[O::Item], op: &O) -> Vec<O::Item> {
    scan_blocked(grid, items, op, true)
}

/// Parallel exclusive scan that also returns the total reduction of the
/// input (`x[0] ⊕ … ⊕ x[n-1]`), which the pipeline needs for totals such as
/// the overall record count.
pub fn exclusive_scan_total<O: ScanOp>(
    grid: &Grid,
    items: &[O::Item],
    op: &O,
) -> (Vec<O::Item>, O::Item) {
    if items.is_empty() {
        return (Vec::new(), op.identity());
    }
    let out = scan_blocked(grid, items, op, true);
    // Invariant: `items` is non-empty (checked above) and the scan output
    // has the same length, so both `last()` calls succeed.
    let total = op.combine(out.last().unwrap(), items.last().unwrap());
    (out, total)
}

fn scan_blocked<O: ScanOp>(
    grid: &Grid,
    items: &[O::Item],
    op: &O,
    exclusive: bool,
) -> Vec<O::Item> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    if grid.workers() == 1 || n < 2 * grid.workers() {
        return if exclusive {
            exclusive_scan_seq(items, op)
        } else {
            inclusive_scan_seq(items, op)
        };
    }

    let parts = grid.partition(n);
    let k = parts.len();

    // Phase 1: tile aggregates.
    let mut aggregates = vec![op.identity(); k];
    {
        let slots = SlotWriter::new(&mut aggregates);
        grid.run_partitioned(n, |w, range| {
            let mut acc = op.identity();
            for x in &items[range] {
                acc = op.combine(&acc, x);
            }
            unsafe { slots.write(w, acc) };
        });
    }

    // Phase 2: exclusive scan of aggregates (k is tiny).
    let prefixes = exclusive_scan_seq(&aggregates, op);

    // Phase 3: downsweep, seeded with each tile's prefix. Pre-filled with
    // the identity so the buffer is always fully initialised (a panicking
    // worker must not leave uninitialised memory behind a Drop type).
    let mut out = vec![op.identity(); n];
    {
        let slots = SlotWriter::new(&mut out);
        grid.run_partitioned(n, |w, range| {
            let mut acc = prefixes[w].clone();
            for i in range {
                if exclusive {
                    unsafe { slots.write(i, acc.clone()) };
                    acc = op.combine(&acc, &items[i]);
                } else {
                    acc = op.combine(&acc, &items[i]);
                    unsafe { slots.write(i, acc.clone()) };
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// Function-composition operator over permutations of 0..N — a
    /// non-commutative associative operator shaped exactly like the paper's
    /// state-transition-vector composite.
    struct ComposeOp;
    impl ScanOp for ComposeOp {
        type Item = [u8; 6];
        fn identity(&self) -> [u8; 6] {
            [0, 1, 2, 3, 4, 5]
        }
        fn combine(&self, a: &[u8; 6], b: &[u8; 6]) -> [u8; 6] {
            // (a ∘ b)[i] = b[a[i]]  — the paper's composite definition.
            let mut out = [0u8; 6];
            for i in 0..6 {
                out[i] = b[a[i] as usize];
            }
            out
        }
    }

    #[test]
    fn paper_worked_example() {
        let xs: Vec<u64> = vec![3, 5, 1, 2, 9, 7, 4, 2];
        let grid = Grid::new(3);
        assert_eq!(
            inclusive_scan(&grid, &xs, &AddOp),
            vec![3, 8, 9, 11, 20, 27, 31, 33]
        );
        assert_eq!(
            exclusive_scan(&grid, &xs, &AddOp),
            vec![0, 3, 8, 9, 11, 20, 27, 31]
        );
    }

    #[test]
    fn empty_and_single() {
        let grid = Grid::new(4);
        let empty: Vec<u64> = vec![];
        assert!(inclusive_scan(&grid, &empty, &AddOp).is_empty());
        assert_eq!(exclusive_scan(&grid, &[7u64], &AddOp), vec![0]);
        assert_eq!(inclusive_scan(&grid, &[7u64], &AddOp), vec![7]);
    }

    #[test]
    fn exclusive_scan_total_matches() {
        let grid = Grid::new(3);
        let xs: Vec<u64> = (1..=100).collect();
        let (scan, total) = exclusive_scan_total(&grid, &xs, &AddOp);
        assert_eq!(total, 5050);
        assert_eq!(scan[99], 5050 - 100);
    }

    fn perm6(rng: &mut SplitMix64) -> [u8; 6] {
        let mut out = [0u8; 6];
        for slot in &mut out {
            *slot = rng.next_below(6) as u8;
        }
        out
    }

    #[test]
    fn parallel_matches_sequential_add() {
        let mut rng = SplitMix64::new(0xadd0);
        for case in 0..64 {
            let len = rng.next_below(500) as usize;
            let xs = rng.vec(len, |r| r.next_below(1000));
            let workers = rng.next_range(1, 7) as usize;
            let grid = Grid::new(workers);
            assert_eq!(
                inclusive_scan(&grid, &xs, &AddOp),
                inclusive_scan_seq(&xs, &AddOp),
                "case {case} len {len} workers {workers}"
            );
            assert_eq!(
                exclusive_scan(&grid, &xs, &AddOp),
                exclusive_scan_seq(&xs, &AddOp),
                "case {case} len {len} workers {workers}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_noncommutative() {
        let mut rng = SplitMix64::new(0xc0);
        for case in 0..64 {
            let len = rng.next_below(300) as usize;
            let xs = rng.vec(len, perm6);
            let workers = rng.next_range(1, 7) as usize;
            let grid = Grid::new(workers);
            assert_eq!(
                inclusive_scan(&grid, &xs, &ComposeOp),
                inclusive_scan_seq(&xs, &ComposeOp),
                "case {case} len {len} workers {workers}"
            );
            assert_eq!(
                exclusive_scan(&grid, &xs, &ComposeOp),
                exclusive_scan_seq(&xs, &ComposeOp),
                "case {case} len {len} workers {workers}"
            );
        }
    }

    #[test]
    fn compose_is_associative() {
        let mut rng = SplitMix64::new(0xa550c);
        let op = ComposeOp;
        for case in 0..500 {
            let (a, b, c) = (perm6(&mut rng), perm6(&mut rng), perm6(&mut rng));
            let left = op.combine(&op.combine(&a, &b), &c);
            let right = op.combine(&a, &op.combine(&b, &c));
            assert_eq!(left, right, "case {case}: {a:?} {b:?} {c:?}");
        }
    }
}
