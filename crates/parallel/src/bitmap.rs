//! Bitmap indexes with population-count helpers.
//!
//! Paper §3.1: "the relevant meta data for each symbol can be represented
//! using three bitmap indexes: one marking symbols that are delimiting a
//! record, one flagging symbols that are delimiting a field, and one
//! indicating whether a symbol is a control symbol." §3.2 then computes
//! record counts with `popc` and column offsets by "zeroing all bits of the
//! column delimiter bitmap index that precede the last set bit in the record
//! delimiter bitmap index" — [`Bitmap::count_ones`],
//! [`Bitmap::last_set_bit`], and [`Bitmap::count_ones_from`] are exactly
//! those operations.

/// A fixed-length bitmap packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Bitmap {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Total number of set bits (the paper's `popc`).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Number of set bits strictly before bit `i` (a rank query).
    pub fn count_ones_before(&self, i: usize) -> u64 {
        let i = i.min(self.len);
        let full = i >> 6;
        let mut c: u64 = self.words[..full]
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum();
        let rem = i & 63;
        if rem != 0 {
            c += (self.words[full] & ((1u64 << rem) - 1)).count_ones() as u64;
        }
        c
    }

    /// Number of set bits at position `i` or later — the "zero all bits that
    /// precede the last record delimiter, then popcount" step of §3.2.
    pub fn count_ones_from(&self, i: usize) -> u64 {
        self.count_ones() - self.count_ones_before(i)
    }

    /// Index of the highest set bit, if any.
    pub fn last_set_bit(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                let bit = 63 - w.leading_zeros() as usize;
                let idx = (wi << 6) + bit;
                if idx < self.len {
                    return Some(idx);
                }
                // Bits beyond len can only exist through misuse; mask them.
                let masked = w & ((1u64 << (self.len - (wi << 6)).min(64)) - 1);
                if masked != 0 {
                    return Some((wi << 6) + 63 - masked.leading_zeros() as usize);
                }
            }
        }
        None
    }

    /// Index of the lowest set bit, if any.
    pub fn first_set_bit(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                let idx = (wi << 6) + w.trailing_zeros() as usize;
                if idx < self.len {
                    return Some(idx);
                }
            }
        }
        None
    }

    /// Iterate over the indexes of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let len = self.len;
            let mut w = w;
            std::iter::from_fn(move || {
                while w != 0 {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    let idx = (wi << 6) + bit;
                    if idx < len {
                        return Some(idx);
                    }
                }
                None
            })
        })
    }

    /// Raw 64-bit words backing the bitmap.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// A bitmap writable concurrently from many workers.
///
/// Chunks are not aligned to 64-bit words (the paper's default chunk is 31
/// bytes), so two workers may set bits in the same word; `fetch_or` keeps
/// that race benign and the result deterministic.
#[derive(Debug, Default)]
pub struct AtomicBitmap {
    words: Vec<std::sync::atomic::AtomicU64>,
    len: usize,
}

impl AtomicBitmap {
    /// All-zeros atomic bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        AtomicBitmap {
            words: (0..len.div_ceil(64))
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            len,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` (relaxed; only the final converted bitmap is read).
    #[inline]
    pub fn set(&self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i >> 6].fetch_or(1u64 << (i & 63), std::sync::atomic::Ordering::Relaxed);
    }

    /// OR a whole accumulated word into word index `word` (bit positions
    /// `word*64 ..`). The fast path for writers that own a disjoint bit
    /// range: accumulate locally, flush once per word, and pay the atomic
    /// only on the (rare) boundary words two chunks share — and only when
    /// there is anything to write.
    #[inline]
    pub fn or_word(&self, word: usize, bits: u64) {
        if bits != 0 {
            self.words[word].fetch_or(bits, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Store a whole word that only one writer ever touches: a relaxed
    /// store, which compiles to a plain store with no read-modify-write.
    /// Writers that own a contiguous bit range use it for every word
    /// inside the range and [`AtomicBitmap::or_word`] for the ≤ 2 words
    /// at its ends that a neighbour may share.
    #[inline]
    pub fn store_word(&self, word: usize, bits: u64) {
        self.words[word].store(bits, std::sync::atomic::Ordering::Relaxed);
    }

    /// Freeze into an immutable [`Bitmap`].
    pub fn into_bitmap(self) -> Bitmap {
        Bitmap {
            words: self.words.into_iter().map(|w| w.into_inner()).collect(),
            len: self.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        assert!(!b.get(0));
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert_eq!(b.count_ones(), 4);
        b.clear(63);
        assert!(!b.get(63));
        assert_eq!(b.count_ones(), 3);
    }

    #[test]
    fn rank_queries() {
        let mut b = Bitmap::new(200);
        for i in [3usize, 64, 65, 127, 199] {
            b.set(i);
        }
        assert_eq!(b.count_ones_before(0), 0);
        assert_eq!(b.count_ones_before(4), 1);
        assert_eq!(b.count_ones_before(65), 2);
        assert_eq!(b.count_ones_before(200), 5);
        assert_eq!(b.count_ones_from(65), 3);
        assert_eq!(b.last_set_bit(), Some(199));
        assert_eq!(b.first_set_bit(), Some(3));
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.last_set_bit(), None);
        assert_eq!(b.first_set_bit(), None);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn iter_ones_order() {
        let mut b = Bitmap::new(300);
        let idxs = [0usize, 1, 63, 64, 128, 256, 299];
        for &i in &idxs {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, idxs);
    }

    #[test]
    fn atomic_bitmap_concurrent_sets() {
        use crate::grid::Grid;
        let ab = AtomicBitmap::new(1000);
        let grid = Grid::new(4);
        grid.run_partitioned(1000, |_, range| {
            for i in range {
                if i % 3 == 0 {
                    ab.set(i);
                }
            }
        });
        let b = ab.into_bitmap();
        assert_eq!(
            b.count_ones() as usize,
            (0..1000).filter(|i| i % 3 == 0).count()
        );
        assert!(b.get(999));
        assert!(!b.get(998));
    }

    #[test]
    fn matches_reference_model() {
        let mut rng = SplitMix64::new(0xb17);
        for case in 0..96 {
            let len = rng.next_below(300) as usize;
            let bits = rng.vec(len, |r| r.chance(0.5));
            let query = rng.next_below(310) as usize;
            let mut b = Bitmap::new(bits.len());
            for (i, &x) in bits.iter().enumerate() {
                if x {
                    b.set(i);
                }
            }
            let ones: Vec<usize> = bits
                .iter()
                .enumerate()
                .filter_map(|(i, &x)| x.then_some(i))
                .collect();
            assert_eq!(b.count_ones() as usize, ones.len(), "case {case}");
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), ones, "case {case}");
            assert_eq!(b.last_set_bit(), ones.last().copied(), "case {case}");
            assert_eq!(b.first_set_bit(), ones.first().copied(), "case {case}");
            let q = query.min(bits.len());
            assert_eq!(
                b.count_ones_before(q) as usize,
                ones.iter().filter(|&&i| i < q).count(),
                "case {case} q {q}"
            );
            assert_eq!(
                b.count_ones_from(q) as usize,
                ones.iter().filter(|&&i| i >= q).count(),
                "case {case} q {q}"
            );
        }
    }
}
