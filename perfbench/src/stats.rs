//! Order statistics, unit conversions and metric-name rules.

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// `bytes` in MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// The median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method). `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        // `i * m - j * n` is exact integer math; clamping can make it
        // negative or larger than `n`, as in the reference.
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile range as a share of the median: the spread measure the
/// benchmark's acceptance check applies to repeated runs.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// The wall time of an op that ran on every virtual CPU of the machine,
/// less the time the hypervisor took from those CPUs while it ran (the
/// steal of all CPUs over the op, summed). The op's workers meet at a
/// barrier after every launch, so a stolen CPU stalls the whole op for as
/// long as it is stolen; what is left is the wall time of the op on a
/// host that gave it its CPUs. Never below 0.
pub fn steal_free(wall: f64, steal: f64) -> f64 {
    (wall - steal).max(0.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: it starts with an
/// ASCII letter or digit and is at most 64 characters of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn median_ignores_outliers() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 50.0]), Some(1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // Values from Python 3.11: statistics.quantiles(v, n=4).
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([1.5, 3.0, 4.5]));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // Order of the input does not matter.
        let mut rev = ten.clone();
        rev.reverse();
        assert_eq!(quartiles(&rev), quartiles(&ten));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn relative_iqr_of_ten_runs() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let r = relative_iqr(&ten).unwrap();
        assert!((r - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn steal_free_wall_time() {
        assert_eq!(steal_free(0.5, 0.0), 0.5);
        assert_eq!(steal_free(1.25, 0.75), 0.5);
        // Steal of two CPUs at once can sum past the wall time.
        assert_eq!(steal_free(0.5, 0.9), 0.0);
    }

    #[test]
    fn mib_conversions() {
        assert_eq!(mib(1 << 20), 1.0);
        assert_eq!(mib(16 << 20), 16.0);
        assert_eq!(mib(512 << 10), 0.5);
    }

    #[test]
    fn name_charset() {
        for ok in ["context.ms", "yelp-parse", "setup_s", "0x", "a.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".ms", "-x", "_x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_charset() {
        for ok in ["ms", "s", "MiB/s", "ms/MiB", "%", "1/s", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
