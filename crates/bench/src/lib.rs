//! Experiment harness regenerating the ParPaRaw evaluation (paper §5).
//!
//! One module per figure; each exposes a `run(...)` returning structured
//! rows and a `print(...)` producing the same series the paper plots. The
//! binaries (`fig09` … `fig13`, `tables`) are thin wrappers; the criterion
//! benches reuse the same entry points.
//!
//! Two time axes are reported everywhere, per the hardware substitution
//! documented in `DESIGN.md`:
//!
//! * **wall** — real wall-clock milliseconds on this host (single CPU
//!   core in CI; correct but not GPU-shaped);
//! * **sim** — the measured per-kernel work profiles replayed through the
//!   Titan-X-Pascal cost model, the series whose *shape* is compared to
//!   the paper's figures.

pub mod datasets;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod report;

/// Parse `--bytes 32M`-style CLI sizes (accepts `K`, `M`, `G` suffixes).
pub fn parse_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1usize << 10),
        'm' | 'M' => (&s[..s.len() - 1], 1usize << 20),
        'g' | 'G' => (&s[..s.len() - 1], 1usize << 30),
        _ => (s, 1),
    };
    num.trim()
        .parse::<f64>()
        .ok()
        .map(|v| (v * mult as f64) as usize)
}

/// Time `f` over `reps` repetitions and return the best wall-clock
/// milliseconds — the plain-`std` replacement for an external bench
/// harness. Best-of (not mean) because scheduler noise only ever adds
/// time.
pub fn bench_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The median of `xs` (the upper one for an even count).
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// [`bench_ms`] for functions that consume their input: `setup` rebuilds
/// the input before every repetition, outside the timed region, so the
/// rebuild cost (e.g. cloning a buffer the kernel will destroy) doesn't
/// pollute the measurement.
pub fn bench_ms_consuming<T, R>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut f: impl FnMut(T) -> R,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let input = setup();
        let t0 = std::time::Instant::now();
        std::hint::black_box(f(input));
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Read `--bytes`/`--workers` style flags from `std::env::args`.
pub fn arg_size(flag: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| parse_size(v))
        .unwrap_or(default)
}

/// Read a comma-separated `--partitions 64K,256K`-style size list from
/// `std::env::args`; `None` when the flag is absent or a size is bad.
pub fn arg_sizes(flag: &str) -> Option<Vec<usize>> {
    let args: Vec<String> = std::env::args().collect();
    let value = args.get(args.iter().position(|a| a == flag)? + 1)?;
    value.split(',').map(parse_size).collect()
}

/// Whether a bare `--json`-style flag is present on the command line.
pub fn arg_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("4K"), Some(4096));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("1.5M"), Some(3 << 19));
        assert_eq!(parse_size("1g"), Some(1 << 30));
        assert_eq!(parse_size("x"), None);
    }
}
