//! Seeded fuzz smoke test: random bytes, random options, a time budget.
//!
//! Deterministic by default; CI (and curious humans) can vary the run:
//!
//! * `PARPARAW_FUZZ_SEED` — seed for the case generator (default fixed);
//! * `PARPARAW_FUZZ_MS` — soft time budget in milliseconds (default 400).
//!
//! Every case must complete without panicking — any outcome that is
//! `Ok(..)` or a typed `ParseError` is acceptable — successful parses
//! must be invariant to chunk size and worker count, and the partition
//! iterator must reproduce a successful `parse_stream` exactly.

use parparaw::parallel::SplitMix64;
use parparaw::prelude::*;
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Byte soup biased towards CSV structural characters.
fn soup(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.next_below(max_len as u64 + 1) as usize;
    rng.vec(len, |r| {
        if r.chance(0.35) {
            *r.choice(b",\n\"\r\x1f")
        } else {
            r.next_u64() as u8
        }
    })
}

fn random_options(rng: &mut SplitMix64) -> ParserOptions {
    let mut o = ParserOptions {
        grid: Grid::new(rng.next_range(1, 4) as usize),
        tagging: *rng.choice(&[
            TaggingMode::RecordTagged,
            TaggingMode::inline_default(),
            TaggingMode::VectorDelimited,
        ]),
        ..ParserOptions::default()
    }
    .chunk_size(rng.next_range(1, 48) as usize);
    o.scan_algorithm = *rng.choice(&[
        parparaw::core::ScanAlgorithm::Blocked,
        parparaw::core::ScanAlgorithm::DecoupledLookback,
    ]);
    o.validate_column_count = rng.chance(0.3);
    o.header = rng.chance(0.2);
    if rng.chance(0.3) {
        o = o.error_policy(ErrorPolicy::Strict);
    }
    if rng.chance(0.2) {
        o.max_rejects = Some(rng.next_below(4));
    }
    if rng.chance(0.3) {
        o.fault_injection = Some(FaultInjection::new(rng.next_u64(), 0.15));
        o = o.retry(parparaw::parallel::RetryPolicy::attempts(8));
    }
    o
}

/// Drain `partitions()`: the non-empty batches concatenated (a stream
/// without rows is its last batch) and every batch's diagnostics.
fn drain(
    parser: &Parser,
    input: &[u8],
    psize: usize,
) -> Result<(Table, Vec<RecordDiagnostic>), ParseError> {
    let mut it = parser.partitions(input, psize);
    let (mut tables, mut diagnostics) = (Vec::new(), Vec::new());
    while let Some(batch) = it.next() {
        tables.push(batch?);
        diagnostics.extend_from_slice(it.diagnostics());
    }
    let refs: Vec<&Table> = tables.iter().filter(|t| t.num_rows() > 0).collect();
    let table = match refs.is_empty() {
        true => tables.pop().unwrap_or_else(Table::empty),
        false => Table::concat(&refs).expect("batches share the frozen schema"),
    };
    Ok((table, diagnostics))
}

#[test]
fn fuzz_smoke_never_panics() {
    let seed = env_u64("PARPARAW_FUZZ_SEED", 0xF022_0001);
    let budget = Duration::from_millis(env_u64("PARPARAW_FUZZ_MS", 400));
    let started = Instant::now();
    let mut rng = SplitMix64::new(seed);
    let mut cases = 0u64;

    // Always run a minimum batch so the test means something even under
    // a tiny budget; stop growing once the budget is spent.
    while cases < 32 || started.elapsed() < budget {
        let input = soup(&mut rng, 600);
        let opts = random_options(&mut rng);
        let dfa = rfc4180(&CsvDialect::default());
        let parser = Parser::new(dfa, opts.clone());

        // Monolithic: any typed outcome is fine.
        let mono = parser.parse(&input);

        // Streamed: must agree with the monolithic outcome's row count
        // when both succeed (inference differences aside), and the
        // partition iterator must reproduce the stream exactly.
        if rng.chance(0.5) {
            let psize = rng.next_range(1, 128) as usize;
            let streamed = parser.parse_stream(&input, psize);
            if let (Ok(m), Ok(s)) = (&mono, &streamed) {
                assert_eq!(
                    m.table.num_rows(),
                    s.table.num_rows(),
                    "seed={seed} case={cases} psize={psize} input={:?}",
                    String::from_utf8_lossy(&input)
                );
            }
            if let (Ok(s), Ok((table, diagnostics))) = (&streamed, drain(&parser, &input, psize)) {
                assert_eq!(
                    (&s.table, &s.diagnostics),
                    (&table, &diagnostics),
                    "seed={seed} case={cases} psize={psize} iterator input={:?}",
                    String::from_utf8_lossy(&input)
                );
            }
        }

        // Cancellation at a random launch: any typed outcome is fine, and
        // a cancelled stream must resume from its checkpoint to the same
        // total row count as the monolithic parse.
        if rng.chance(0.25) {
            let psize = rng.next_range(1, 128) as usize;
            let mut oc = opts.clone();
            oc.cancel = Some(CancelToken::after_launches(rng.next_range(1, 80)));
            let cancelled = Parser::new(rfc4180(&CsvDialect::default()), oc)
                .parse_stream_resumable(&input, psize, None);
            if let Err(interrupted) = cancelled {
                if interrupted.error.is_cancelled() {
                    let resumed =
                        parser.parse_stream_resumable(&input, psize, Some(interrupted.checkpoint));
                    if let (Ok(m), Ok(r)) = (&mono, &resumed) {
                        assert_eq!(
                            m.table.num_rows(),
                            interrupted.completed.table.num_rows() + r.table.num_rows(),
                            "seed={seed} case={cases} psize={psize} cancel-resume input={:?}",
                            String::from_utf8_lossy(&input)
                        );
                    }
                }
            }
        }

        // Chunk-size invariance on successful permissive parses.
        if let Ok(m) = &mono {
            if matches!(opts.error_policy, ErrorPolicy::Permissive { .. }) {
                let alt = Parser::new(
                    rfc4180(&CsvDialect::default()),
                    opts.clone().chunk_size(31).grid(Grid::new(2)),
                )
                .parse(&input)
                .unwrap_or_else(|e| {
                    panic!("seed={seed} case={cases}: chunk-size change flipped Ok to Err({e})")
                });
                assert_eq!(
                    m.table,
                    alt.table,
                    "seed={seed} case={cases} input={:?}",
                    String::from_utf8_lossy(&input)
                );
            }
        }
        cases += 1;
        if cases > 10_000 {
            break; // hard stop for pathological budgets
        }
    }
}
