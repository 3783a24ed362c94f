//! Chunking and variable-length symbol boundaries (paper §4.2).
//!
//! The input is cut into fixed-size chunks regardless of content. For
//! variable-length encodings a symbol may straddle a cut: the thread whose
//! chunk holds the symbol's *leading* byte owns the whole symbol and reads
//! past its chunk end; threads seeing only trailing bytes at the start of
//! their chunk skip them. The detection predicates below implement the
//! paper's rules for UTF-8 (`0b10xx_xxxx` continuation bytes) and UTF-16
//! (low surrogates `0xDC00..=0xDFFF`).
//!
//! For *byte-granular* DFAs whose non-ASCII bytes all fall into the
//! catch-all symbol group (every automaton in this repository), stepping
//! the DFA byte-at-a-time is equivalent to stepping it code-point-at-a-time
//! — a continuation byte repeats the data self-transition its lead byte
//! took — so chunk cuts inside a symbol cannot change the parse. The
//! chunk-size invariance property tests exercise this on multi-byte input.

use std::ops::Range;

/// Split `len` bytes into chunks of `chunk_size` (the last chunk may be
/// short).
pub fn chunk_ranges(len: usize, chunk_size: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk_size = chunk_size.max(1);
    (0..len.div_ceil(chunk_size)).map(move |i| {
        let start = i * chunk_size;
        start..(start + chunk_size).min(len)
    })
}

/// Number of chunks for a given input length.
pub fn num_chunks(len: usize, chunk_size: usize) -> usize {
    len.div_ceil(chunk_size.max(1))
}

/// Whether `ranges` tile chunks `0..n_chunks` in order, none empty (one
/// `0..0` when there are no chunks): the shape of `Grid::partition`,
/// which passes 1 and 2 walk.
pub(crate) fn tile(ranges: &[Range<usize>], n_chunks: usize) -> bool {
    let nonempty = n_chunks == 0 || ranges.iter().all(|r| !r.is_empty());
    nonempty
        && ranges.first().is_some_and(|r| r.start == 0)
        && ranges.last().is_some_and(|r| r.end == n_chunks)
        && ranges.windows(2).all(|w| w[0].end == w[1].start)
}

/// Whether a byte is a UTF-8 continuation byte (`0b10xx_xxxx`), i.e. a
/// trailing byte the chunk's owner must skip.
#[inline(always)]
pub fn utf8_is_continuation(byte: u8) -> bool {
    byte & 0b1100_0000 == 0b1000_0000
}

/// How many leading bytes of `chunk` are UTF-8 continuation bytes (they
/// belong to a symbol owned by the preceding chunk). At most 3 for valid
/// UTF-8.
pub fn utf8_leading_continuation(chunk: &[u8]) -> usize {
    chunk
        .iter()
        .take(3)
        .take_while(|&&b| utf8_is_continuation(b))
        .count()
}

/// Total length in bytes of the UTF-8 symbol starting at `lead` (1 for
/// ASCII and for invalid lead bytes, which are treated as opaque single
/// bytes).
#[inline]
pub fn utf8_symbol_len(lead: u8) -> usize {
    match lead {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 1,
    }
}

/// Whether a UTF-16 code unit is a low surrogate (`0xDC00..=0xDFFF`), i.e.
/// the trailing half of a four-byte symbol — the unit a chunk owner skips
/// when it appears first in the chunk (paper §4.2).
#[inline(always)]
pub fn utf16_is_low_surrogate(unit: u16) -> bool {
    (0xDC00..=0xDFFF).contains(&unit)
}

/// Whether a UTF-16 code unit is a high surrogate (`0xD800..=0xDBFF`),
/// i.e. the leading half of a four-byte symbol.
#[inline(always)]
pub fn utf16_is_high_surrogate(unit: u16) -> bool {
    (0xD800..=0xDBFF).contains(&unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_are_the_grid_partition_shape() {
        assert!(tile(std::slice::from_ref(&(0..0)), 0));
        assert!(tile(&[0..3, 3..5], 5));
        assert!(!tile(&[], 0), "no range at all");
        assert!(!tile(&[0..3, 4..5], 5), "gap");
        assert!(!tile(&[0..3, 3..3, 3..5], 5), "empty range");
        assert!(!tile(std::slice::from_ref(&(0..3)), 5), "short");
        for (n, k) in [(0usize, 3usize), (2, 8), (100, 3)] {
            assert!(tile(&parparaw_parallel::grid::partition(n, k), n));
        }
    }

    #[test]
    fn ranges_cover_input() {
        let ranges: Vec<_> = chunk_ranges(100, 31).collect();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0], 0..31);
        assert_eq!(ranges[3], 93..100);
        assert_eq!(num_chunks(100, 31), 4);
        assert_eq!(num_chunks(0, 31), 0);
        assert_eq!(chunk_ranges(0, 31).count(), 0);
    }

    #[test]
    fn chunk_size_zero_clamps() {
        assert_eq!(num_chunks(5, 0), 5);
    }

    #[test]
    fn utf8_continuation_detection() {
        let s = "aé€🦀"; // 1, 2, 3, 4 bytes
        let b = s.as_bytes();
        assert!(!utf8_is_continuation(b[0]));
        assert!(!utf8_is_continuation(b[1])); // é lead
        assert!(utf8_is_continuation(b[2])); // é trail
        assert_eq!(utf8_symbol_len(b[0]), 1);
        assert_eq!(utf8_symbol_len(b[1]), 2);
        assert_eq!(utf8_symbol_len(b[3]), 3);
        assert_eq!(utf8_symbol_len(b[6]), 4);
        // A chunk starting mid-crab skips its continuation bytes.
        assert_eq!(utf8_leading_continuation(&b[7..]), 3);
        assert_eq!(utf8_leading_continuation(&b[8..]), 2);
        assert_eq!(utf8_leading_continuation(b), 0);
    }

    #[test]
    fn utf16_surrogate_ranges() {
        // '🦀' = U+1F980 → D83E DD80.
        let crab: Vec<u16> = "🦀".encode_utf16().collect();
        assert!(utf16_is_high_surrogate(crab[0]));
        assert!(utf16_is_low_surrogate(crab[1]));
        // BMP characters are neither.
        let a: Vec<u16> = "a€".encode_utf16().collect();
        assert!(!utf16_is_high_surrogate(a[0]) && !utf16_is_low_surrogate(a[0]));
        assert!(!utf16_is_high_surrogate(a[1]) && !utf16_is_low_surrogate(a[1]));
    }

    #[test]
    fn unicode_never_assigns_characters_in_surrogate_range() {
        // The property §4.2 relies on: no two-byte UTF-16 unit falls in
        // 0xD800..=0xDFFF, so a leading low surrogate is unambiguous.
        // `char` cannot hold surrogates by construction:
        assert!(char::from_u32(0xD800).is_none());
        assert!(char::from_u32(0xDFFF).is_none());
        assert!(char::from_u32(0xD7FF).is_some());
        assert!(char::from_u32(0xE000).is_some());
    }
}
