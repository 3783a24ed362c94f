//! Skewed variants (paper Fig. 11 right).
//!
//! "Compared to the original inputs, the skewed inputs … contain a single
//! record that is 200 MB in size, while the remaining records remain the
//! same." One record's text field blows up to `giant_bytes`, which would
//! serialise on any per-record work assignment; ParPaRaw's symbol-level
//! parallelism and device-level collaboration keep the runtime flat.

use crate::rng::SplitMix64;
use crate::yelp;

/// Yelp-like data of at least `target_bytes` with one giant record whose
/// quoted text field alone is `giant_bytes` long, spliced in at roughly
/// the middle.
pub fn yelp_skewed(target_bytes: usize, giant_bytes: usize, seed: u64) -> Vec<u8> {
    let base = yelp::generate(target_bytes, seed);
    let mut rng = SplitMix64::new(seed ^ 0xDEAD_BEEF);

    // Find a record boundary near the middle. Yelp-like text contains
    // quoted newlines, so scan properly: records end at '\n' with even
    // quote count.
    let mut quotes = 0usize;
    let mut split = base.len();
    for (i, &b) in base.iter().enumerate() {
        match b {
            b'"' => quotes += 1,
            b'\n' if quotes.is_multiple_of(2) && i >= base.len() / 2 => {
                split = i + 1;
                break;
            }
            _ => {}
        }
    }

    let mut out = Vec::with_capacity(base.len() + giant_bytes + 256);
    out.extend_from_slice(&base[..split]);
    // The giant record: normal columns, enormous text.
    out.extend_from_slice(b"\"GIANTGIANTGIANTGIANT00\",\"");
    rng.ident(22, &mut out);
    out.extend_from_slice(b"\",\"");
    rng.ident(22, &mut out);
    out.extend_from_slice(b"\",\"5\",\"1\",\"1\",\"1\",\"");
    let start = out.len();
    while out.len() - start < giant_bytes {
        out.extend_from_slice(b"very long review text without end, ");
    }
    out.extend_from_slice(b"\",\"2018-06-01 12:00:00\"\n");
    out.extend_from_slice(&base[split..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parparaw_core::{parse_csv, ParserOptions};
    use parparaw_parallel::Grid;

    #[test]
    fn giant_record_parses_intact() {
        let data = yelp_skewed(200_000, 50_000, 42);
        let mut opts = ParserOptions {
            grid: Grid::new(2),
            schema: Some(yelp::schema()),
            ..ParserOptions::default()
        };
        // 16 KiB of shared memory: a 4 KiB device threshold, so the giant
        // text counts as device-level.
        opts.device.shared_mem_per_sm_kib = 16;
        let out = parse_csv(&data, opts).unwrap();
        assert!(out.stats.collaborative_fields >= 1);
        assert_eq!(out.stats.rejected_records, 0);
        // The giant text made it through whole.
        let text = out.table.column_by_name("text").unwrap();
        let max_len = (0..text.len())
            .map(|i| text.utf8_bytes(i).map(|b| b.len()).unwrap_or(0))
            .max()
            .unwrap();
        assert!(max_len >= 50_000);
    }

    #[test]
    fn remaining_records_unchanged() {
        let base = yelp::generate(100_000, 9);
        let skewed = yelp_skewed(100_000, 10_000, 9);
        assert!(skewed.len() > base.len() + 10_000);
        // The prefix up to the splice point is identical.
        assert_eq!(&skewed[..1000], &base[..1000]);
    }
}
