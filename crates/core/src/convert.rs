//! Columnar type conversion (paper §3.3, Fig. 5).
//!
//! Given a column's CSS and field index, conversion produces the typed
//! Arrow-style column. Fixed-width types convert one field per virtual
//! thread. Utf8 columns copy their bytes in one pass split evenly over the
//! output bytes, so a single 200 MB field never serialises on one thread
//! (the skew experiment, Fig. 11 right): this one copy does the work of
//! the paper's block- and device-level collaboration, whose tiers are kept
//! as modelled field counts.
//!
//! The byte-level field parsers live here too and are shared with the
//! baseline parsers so that comparisons measure parallelisation strategy,
//! not parsing-code quality. All parsers are allocation-free and return
//! `Option` — a failed conversion never panics, it rejects (Fig. 5's
//! `reject` flags).

use crate::css::FieldIndex;
use crate::diag::{DiagSink, RecordDiagnostic, RejectReason};
use parparaw_columnar::value::{ymd_to_days, Value};
use parparaw_columnar::{Column, ColumnData, DataType, Validity};
use parparaw_device::WorkProfile;
use parparaw_parallel::grid::SlotWriter;
use parparaw_parallel::{Bitmap, Grid};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unaligned little-endian u64 load of the first 8 bytes of `s`.
#[inline]
fn read_u64le(s: &[u8]) -> u64 {
    u64::from_le_bytes(s[..8].try_into().expect("caller checks len >= 8"))
}

/// SWAR check that all 8 bytes of `v` are ASCII digits: the high nibbles
/// must all be `3`, and adding 6 to each low nibble must not carry into
/// the high nibble (which it does exactly for low nibbles above 9).
#[inline]
fn is_8_digits(v: u64) -> bool {
    const HI: u64 = 0xF0F0_F0F0_F0F0_F0F0;
    const THREES: u64 = 0x3030_3030_3030_3030;
    v & HI == THREES && v.wrapping_add(0x0606_0606_0606_0606) & HI == THREES
}

/// SWAR accumulation of 8 ASCII digits in one u64 (first byte in memory is
/// the most significant digit): three multiply-shift rounds combine
/// neighbouring lanes pairwise — ones into tens, tens into thousands,
/// thousands into the final value.
#[inline]
fn parse_8_digits(v: u64) -> u64 {
    let v = v & 0x0F0F_0F0F_0F0F_0F0F;
    let v = v.wrapping_mul((10 << 8) + 1) >> 8;
    let v = (v & 0x00FF_00FF_00FF_00FF).wrapping_mul((100 << 16) + 1) >> 16;
    ((v & 0x0000_FFFF_0000_FFFF).wrapping_mul((10_000 << 32) + 1)) >> 32
}

/// Parse a signed integer (optional `+`/`-`, decimal digits, surrounding
/// ASCII whitespace tolerated). Overflow rejects.
pub fn parse_i64(mut s: &[u8]) -> Option<i64> {
    s = trim(s);
    let (neg, mut rest) = match s.split_first() {
        Some((b'-', r)) => (true, r),
        Some((b'+', r)) => (false, r),
        _ => (false, s),
    };
    if rest.is_empty() {
        return None;
    }
    // SWAR fast path: validate and accumulate 8 digits per u64 load. The
    // checked ops keep the exact digit-at-a-time overflow semantics:
    // every intermediate is a prefix of the final (negative) value, so a
    // representable result never trips them and an overflowing one always
    // does — at this block or in the scalar tail.
    let mut acc: i64 = 0;
    while rest.len() >= 8 {
        let v = read_u64le(rest);
        if !is_8_digits(v) {
            break;
        }
        acc = acc
            .checked_mul(100_000_000)?
            .checked_sub(parse_8_digits(v) as i64)?;
        rest = &rest[8..];
    }
    for &b in rest {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub(d as i64)?; // negative acc
    }
    if neg {
        Some(acc)
    } else {
        acc.checked_neg()
    }
}

/// Parse a double: fast path for plain `[-+]ddd.ddd` (validating and
/// accumulating 8 digits per u64 load), falling back to the standard
/// library for exponents and other spellings.
pub fn parse_f64(s: &[u8]) -> Option<f64> {
    let s = trim(s);
    if s.is_empty() {
        return None;
    }
    let (neg, rest) = match s.split_first() {
        Some((b'-', r)) => (true, r),
        Some((b'+', r)) => (false, r),
        _ => (false, s),
    };
    // No digit up front means no speculative arithmetic: a lone '.' (or
    // '.' followed by a non-digit) rejects outright, anything else
    // (inf/nan/garbage/empty) defers to the slow path immediately.
    match rest.first() {
        Some(b) if b.is_ascii_digit() => {}
        Some(b'.') if rest.get(1).is_some_and(|b| b.is_ascii_digit()) => {}
        Some(b'.') => return None,
        _ => return parse_f64_slow(s),
    }
    let mut int_part: u64 = 0;
    let mut i = 0;
    let mut digits = 0;
    while digits <= 9 && rest.len() - i >= 8 {
        let v = read_u64le(&rest[i..]);
        if !is_8_digits(v) {
            break;
        }
        int_part = int_part * 100_000_000 + parse_8_digits(v);
        i += 8;
        digits += 8;
    }
    while i < rest.len() && rest[i].is_ascii_digit() && digits < 18 {
        int_part = int_part * 10 + (rest[i] - b'0') as u64;
        i += 1;
        digits += 1;
    }
    if digits == 18 {
        return parse_f64_slow(s); // very long number: defer
    }
    let mut value = int_part as f64;
    if i < rest.len() && rest[i] == b'.' {
        i += 1;
        let mut frac: u64 = 0;
        let mut scale: f64 = 1.0;
        let mut fdigits = 0;
        while fdigits <= 8 && rest.len() - i >= 8 {
            let v = read_u64le(&rest[i..]);
            if !is_8_digits(v) {
                break;
            }
            frac = frac * 100_000_000 + parse_8_digits(v);
            scale *= 1e8;
            i += 8;
            fdigits += 8;
        }
        while i < rest.len() && rest[i].is_ascii_digit() && fdigits < 17 {
            frac = frac * 10 + (rest[i] - b'0') as u64;
            scale *= 10.0;
            i += 1;
            fdigits += 1;
        }
        if fdigits == 17 {
            return parse_f64_slow(s);
        }
        value += frac as f64 / scale;
    }
    if i != rest.len() {
        return parse_f64_slow(s); // exponent or trailing junk
    }
    Some(if neg { -value } else { value })
}

fn parse_f64_slow(s: &[u8]) -> Option<f64> {
    std::str::from_utf8(s).ok()?.trim().parse::<f64>().ok()
}

/// Parse a fixed-point decimal with `scale` fractional digits into an
/// unscaled `i128`. Extra fractional digits reject (no silent rounding).
pub fn parse_decimal(s: &[u8], scale: u8) -> Option<i128> {
    let s = trim(s);
    let (neg, rest) = match s.split_first() {
        Some((b'-', r)) => (true, r),
        Some((b'+', r)) => (false, r),
        _ => (false, s),
    };
    if rest.is_empty() {
        return None;
    }
    let mut acc: i128 = 0;
    let mut frac_digits: Option<u8> = None;
    for &b in rest {
        if b == b'.' {
            if frac_digits.is_some() {
                return None;
            }
            frac_digits = Some(0);
            continue;
        }
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        if let Some(f) = frac_digits {
            if f >= scale {
                return None; // more precision than the column holds
            }
            frac_digits = Some(f + 1);
        }
        acc = acc.checked_mul(10)?.checked_add(d as i128)?;
    }
    // Pad out to the column scale.
    let have = frac_digits.unwrap_or(0);
    for _ in have..scale {
        acc = acc.checked_mul(10)?;
    }
    Some(if neg { -acc } else { acc })
}

/// Parse a boolean: `true/false`, `t/f`, `yes/no`, `y/n`, `1/0`
/// (case-insensitive).
pub fn parse_bool(s: &[u8]) -> Option<bool> {
    let s = trim(s);
    match s {
        b"1" => Some(true),
        b"0" => Some(false),
        _ => {
            let mut buf = [0u8; 5];
            if s.len() > 5 || s.is_empty() {
                return None;
            }
            for (d, &b) in buf.iter_mut().zip(s) {
                *d = b.to_ascii_lowercase();
            }
            match &buf[..s.len()] {
                b"true" | b"t" | b"yes" | b"y" => Some(true),
                b"false" | b"f" | b"no" | b"n" => Some(false),
                _ => None,
            }
        }
    }
}

/// Parse `YYYY-MM-DD` into days since the Unix epoch.
pub fn parse_date(s: &[u8]) -> Option<i32> {
    let s = trim(s);
    if s.len() != 10 {
        return None;
    }
    // One u64 load covers "YYYY-MM-": check both dashes at once,
    // substitute '0' for them, and the digit-validating SWAR accumulator
    // yields `year·10⁴ + month·10` directly.
    const DASH_MASK: u64 = 0xFF << 32 | 0xFF << 56;
    const DASHES: u64 = (b'-' as u64) << 32 | (b'-' as u64) << 56;
    const ZERO_FILL: u64 = (b'0' as u64) << 32 | (b'0' as u64) << 56;
    let v = read_u64le(s);
    if v & DASH_MASK != DASHES {
        return None;
    }
    let packed = (v & !DASH_MASK) | ZERO_FILL;
    if !is_8_digits(packed) {
        return None;
    }
    let ym = parse_8_digits(packed);
    let y = (ym / 10_000) as i32;
    let m = (ym % 10_000 / 10) as u32;
    let d = digits(&s[8..10])?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    // Reject days beyond the month's length via roundtrip.
    let days = ymd_to_days(y, m, d);
    let (ry, rm, rd) = parparaw_columnar::value::days_to_ymd(days);
    (ry == y && rm == m && rd == d).then_some(days)
}

/// Parse `YYYY-MM-DD[ T]HH:MM:SS[.ffffff]` (or a bare date → midnight)
/// into microseconds since the Unix epoch.
pub fn parse_timestamp(s: &[u8]) -> Option<i64> {
    let s = trim(s);
    if s.len() == 10 {
        return Some(parse_date(s)? as i64 * 86_400_000_000);
    }
    if s.len() < 19 || (s[10] != b' ' && s[10] != b'T') {
        return None;
    }
    let days = parse_date(&s[0..10])? as i64;
    // One u64 load covers "HH:MM:SS": check both colons at once,
    // substitute '0' for them, and split the SWAR-accumulated value back
    // into its three two-digit components.
    const COLON_MASK: u64 = 0xFF << 16 | 0xFF << 40;
    const COLONS: u64 = (b':' as u64) << 16 | (b':' as u64) << 40;
    const ZERO_FILL: u64 = (b'0' as u64) << 16 | (b'0' as u64) << 40;
    let v = read_u64le(&s[11..19]);
    if v & COLON_MASK != COLONS {
        return None;
    }
    let packed = (v & !COLON_MASK) | ZERO_FILL;
    if !is_8_digits(packed) {
        return None;
    }
    let hms = parse_8_digits(packed);
    let h = (hms / 1_000_000) as i64;
    let mi = (hms % 1_000_000 / 1_000) as i64;
    let sec = (hms % 1_000) as i64;
    if h > 23 || mi > 59 || sec > 60 {
        return None;
    }
    let mut micros = ((h * 3600 + mi * 60 + sec) + days * 86_400) * 1_000_000;
    if s.len() > 19 {
        if s[19] != b'.' || s.len() > 26 {
            return None;
        }
        let frac = &s[20..];
        if frac.is_empty() {
            return None;
        }
        let mut f: i64 = 0;
        for &b in frac {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            f = f * 10 + d as i64;
        }
        for _ in frac.len()..6 {
            f *= 10;
        }
        // The fraction always advances time: a rendered negative timestamp
        // is `floor(seconds) + positive fraction`.
        micros += f;
    }
    Some(micros)
}

fn digits(s: &[u8]) -> Option<u32> {
    let mut acc = 0u32;
    for &b in s {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        acc = acc * 10 + d as u32;
    }
    Some(acc)
}

fn trim(mut s: &[u8]) -> &[u8] {
    while let Some((&b, r)) = s.split_first() {
        if b == b' ' || b == b'\t' {
            s = r;
        } else {
            break;
        }
    }
    while let Some((&b, r)) = s.split_last() {
        if b == b' ' || b == b'\t' {
            s = r;
        } else {
            break;
        }
    }
    s
}

/// The result of converting one column.
#[derive(Debug)]
pub struct ConvertedColumn {
    /// The typed column, `num_rows` long.
    pub column: Column,
    /// Fields whose conversion failed (null in the output).
    pub reject_count: u64,
    /// Utf8 fields the paper would hand to block- or device-level
    /// collaboration (§3.3): longer than a thread's budget,
    /// `max(threshold / 64, 256)` bytes. A modelled count — on the host
    /// every Utf8 byte goes through the same byte-split copy.
    pub collaborative_fields: u64,
    /// Of those, fields within the device threshold: the paper's
    /// block-level middle tier (larger than a thread's budget but within a
    /// thread-block's shared memory). The rest are device-level.
    pub block_level_fields: u64,
    /// Work profile of this column's conversion kernels.
    pub profile: WorkProfile,
}

/// Convert one column's CSS into a typed column of `num_rows` rows,
/// reporting each failed conversion as a [`RecordDiagnostic`] on the sink
/// when one is given (tagged with the given output-column index; the sink
/// de-duplicates, so a retried launch is safe).
///
/// Rows absent from the index (empty fields) become the field `default`
/// or null; rows flagged in `rejected` become null unconditionally.
/// `collaboration_threshold` is the device-level field size of paper
/// §3.3; it only classifies Utf8 fields into the modelled tiers of
/// [`ConvertedColumn`], and the output does not depend on it.
#[allow(clippy::too_many_arguments)]
pub fn convert_column_with_diags(
    grid: &Grid,
    css: &[u8],
    index: &FieldIndex,
    num_rows: usize,
    dtype: DataType,
    default: Option<&Value>,
    rejected: &Bitmap,
    collaboration_threshold: usize,
    diags: Option<(&DiagSink, u32)>,
) -> ConvertedColumn {
    let rejects = AtomicU64::new(0);
    let collab = AtomicU64::new(0);
    let block_level = AtomicU64::new(0);
    let mut profile = WorkProfile::new("convert");
    profile.kernel_launches = 3;
    profile.bytes_read = css.len() as u64 + index.num_fields() as u64 * 20;
    profile.parallel_ops = css.len() as u64 * 2;

    let column = match dtype {
        DataType::Utf8 => convert_utf8(
            grid,
            css,
            index,
            num_rows,
            default,
            rejected,
            collaboration_threshold,
            &collab,
            &block_level,
            &mut profile,
        ),
        _ => convert_fixed(
            grid,
            css,
            index,
            num_rows,
            dtype,
            default,
            rejected,
            &rejects,
            &mut profile,
            diags,
        ),
    };

    ConvertedColumn {
        column,
        reject_count: rejects.load(Ordering::Relaxed),
        collaborative_fields: collab.load(Ordering::Relaxed),
        block_level_fields: block_level.load(Ordering::Relaxed),
        profile,
    }
}

/// Fixed-width conversion: pre-initialise with the default, then one
/// virtual thread per field parses and writes its row slot.
#[allow(clippy::too_many_arguments)]
fn convert_fixed(
    grid: &Grid,
    css: &[u8],
    index: &FieldIndex,
    num_rows: usize,
    dtype: DataType,
    default: Option<&Value>,
    rejected: &Bitmap,
    rejects: &AtomicU64,
    profile: &mut WorkProfile,
    diags: Option<(&DiagSink, u32)>,
) -> Column {
    profile.bytes_written += num_rows as u64 * dtype.value_width() as u64;

    // valid[i]: 0 = null, 1 = valid. Pre-set from the default.
    let default_valid = default.map(|d| !d.is_null()).unwrap_or(false);
    let mut valid = vec![u8::from(default_valid); num_rows];
    let vw = SlotWriter::new(&mut valid);

    macro_rules! fixed {
        ($native:ty, $init:expr, $parse:expr, $wrap:expr) => {{
            let init: $native = $init;
            let mut buf: Vec<$native> = vec![init; num_rows];
            {
                let bw = SlotWriter::new(&mut buf);
                grid.run_partitioned(index.num_fields(), |_, range| {
                    for k in range {
                        grid.check_abort(k);
                        let row = index.rows[k] as usize;
                        if row >= num_rows {
                            continue;
                        }
                        let bytes = &css[index.field_range(k)];
                        if rejected.get(row) {
                            unsafe { vw.write(row, 0) };
                            continue;
                        }
                        if bytes.is_empty() {
                            continue; // keep default / null
                        }
                        match $parse(bytes) {
                            Some(v) => unsafe {
                                bw.write(row, v);
                                vw.write(row, 1);
                            },
                            None => {
                                rejects.fetch_add(1, Ordering::Relaxed);
                                if let Some((sink, out_col)) = diags {
                                    sink.push(RecordDiagnostic {
                                        record: row as u64,
                                        column: Some(out_col),
                                        byte_offset: None,
                                        reason: RejectReason::ConversionFailed {
                                            data_type: dtype.to_string(),
                                        },
                                    });
                                }
                                unsafe { vw.write(row, 0) };
                            }
                        }
                    }
                });
            }
            $wrap(buf)
        }};
    }

    let data: ColumnData = match dtype {
        DataType::Boolean => fixed!(
            bool,
            matches!(default, Some(Value::Boolean(true))),
            parse_bool,
            ColumnData::Boolean
        ),
        DataType::Int8 => fixed!(
            i8,
            default_i64(default) as i8,
            |b| parse_i64(b).and_then(|v| i8::try_from(v).ok()),
            ColumnData::Int8
        ),
        DataType::Int16 => fixed!(
            i16,
            default_i64(default) as i16,
            |b| parse_i64(b).and_then(|v| i16::try_from(v).ok()),
            ColumnData::Int16
        ),
        DataType::Int32 => fixed!(
            i32,
            default_i64(default) as i32,
            |b| parse_i64(b).and_then(|v| i32::try_from(v).ok()),
            ColumnData::Int32
        ),
        DataType::Int64 => fixed!(i64, default_i64(default), parse_i64, ColumnData::Int64),
        DataType::Float64 => fixed!(
            f64,
            match default {
                Some(Value::Float64(f)) => *f,
                Some(Value::Int64(i)) => *i as f64,
                _ => 0.0,
            },
            parse_f64,
            ColumnData::Float64
        ),
        DataType::Decimal128 { scale } => {
            let init = match default {
                Some(Value::Decimal128(v, s)) if *s == scale => *v,
                Some(Value::Int64(i)) => (*i as i128) * 10i128.pow(scale as u32),
                _ => 0,
            };
            let data = fixed!(i128, init, |b| parse_decimal(b, scale), |buf| {
                ColumnData::Decimal128(buf, scale)
            });
            data
        }
        DataType::Date32 => fixed!(
            i32,
            match default {
                Some(Value::Date32(d)) => *d,
                _ => 0,
            },
            parse_date,
            ColumnData::Date32
        ),
        DataType::TimestampMicros => fixed!(
            i64,
            match default {
                Some(Value::TimestampMicros(t)) => *t,
                _ => 0,
            },
            parse_timestamp,
            ColumnData::TimestampMicros
        ),
        DataType::Utf8 => unreachable!("handled by convert_utf8"),
    };

    let validity = validity_from_flags(&valid);
    Column::new(data, Some(validity)).expect("buffers sized to num_rows")
}

/// Utf8 conversion: row → field map, per-row lengths, offset scan, then
/// one byte-split copy.
///
/// One rule gives every row its bytes, and both passes read it: a
/// rejected row is null; an absent or present-but-empty field takes the
/// Utf8 default, or null without one (paper §4.3's empty-string handling,
/// which keeps the tagging modes semantically identical: record-tagged
/// mode cannot even represent an empty field); any other row takes its
/// CSS slice. The copy splits the *output* bytes evenly across workers and
/// each worker copies the overlap of every row's byte range with its own,
/// so a giant field is shared by all workers (the paper's device level)
/// and many long fields balance by bytes (the block level), with nothing
/// deferred. The §3.3 levels remain as the modelled counts: the length
/// pass classifies each CSS field against the thread budget and the
/// device threshold.
#[allow(clippy::too_many_arguments)]
fn convert_utf8(
    grid: &Grid,
    css: &[u8],
    index: &FieldIndex,
    num_rows: usize,
    default: Option<&Value>,
    rejected: &Bitmap,
    collaboration_threshold: usize,
    collab: &AtomicU64,
    block_level: &AtomicU64,
    profile: &mut WorkProfile,
) -> Column {
    // A thread's private budget is a fraction of a thread-block's shared
    // memory (64 threads per block).
    let thread_budget = (collaboration_threshold / 64).max(256);
    let default_bytes: Option<&[u8]> = match default {
        Some(Value::Utf8(s)) => Some(s.as_bytes()),
        _ => None,
    };

    // Row → field mapping (u32::MAX = absent).
    let mut field_of_row = vec![u32::MAX; num_rows];
    {
        let fw = SlotWriter::new(&mut field_of_row);
        grid.run_partitioned(index.num_fields(), |_, range| {
            for k in range {
                grid.check_abort(k);
                let row = index.rows[k] as usize;
                if row < num_rows {
                    unsafe { fw.write(row, k as u32) };
                }
            }
        });
    }

    // The row's bytes (`None` = null) and whether they are its CSS field.
    let row_bytes = |row: usize| -> Option<(&[u8], bool)> {
        if rejected.get(row) {
            return None;
        }
        match field_of_row[row] {
            u32::MAX => default_bytes.map(|d| (d, false)),
            k => match index.field_range(k as usize) {
                r if r.is_empty() => default_bytes.map(|d| (d, false)),
                r => Some((&css[r], true)),
            },
        }
    };

    let mut lengths = vec![0u64; num_rows];
    let mut valid = vec![0u8; num_rows];
    {
        let lw = SlotWriter::new(&mut lengths);
        let vw = SlotWriter::new(&mut valid);
        grid.run_partitioned(num_rows, |_, rows| {
            let (mut wide, mut block) = (0u64, 0u64);
            for row in rows {
                grid.check_abort(row);
                let Some((bytes, is_field)) = row_bytes(row) else {
                    continue;
                };
                unsafe {
                    lw.write(row, bytes.len() as u64);
                    vw.write(row, 1);
                }
                if is_field && bytes.len() > thread_budget {
                    wide += 1;
                    block += u64::from(bytes.len() <= collaboration_threshold);
                }
            }
            collab.fetch_add(wide, Ordering::Relaxed);
            block_level.fetch_add(block, Ordering::Relaxed);
        });
    }
    let (mut offsets, total_bytes) = parparaw_parallel::scan::exclusive_scan_total(
        grid,
        &lengths,
        &parparaw_parallel::scan::AddOp,
    );
    offsets.push(total_bytes);

    let mut values = vec![0u8; total_bytes as usize];
    {
        let out = SlotWriter::new(&mut values);
        grid.run_partitioned(total_bytes as usize, |_, span| {
            // The first row whose byte range ends past this worker's start.
            let first = offsets[1..].partition_point(|&end| end as usize <= span.start);
            for row in first..num_rows {
                let (start, end) = (offsets[row] as usize, offsets[row + 1] as usize);
                if start >= span.end {
                    break;
                }
                grid.check_abort(row - first);
                let Some((bytes, _)) = row_bytes(row) else {
                    continue; // null: no bytes
                };
                let (lo, hi) = (start.max(span.start), end.min(span.end));
                // SAFETY: `lo..hi` lies inside this worker's span, and the
                // spans are disjoint.
                unsafe { out.write_slice(lo, &bytes[lo - start..hi - start]) };
            }
        });
    }

    profile.bytes_written += total_bytes + num_rows as u64 * 9;
    profile.bytes_read += total_bytes;

    let validity = validity_from_flags(&valid);
    Column::new(ColumnData::Utf8 { offsets, values }, Some(validity))
        .expect("offsets built from scan are monotonic")
}

fn default_i64(default: Option<&Value>) -> i64 {
    match default {
        Some(Value::Int64(i)) => *i,
        _ => 0,
    }
}

fn validity_from_flags(flags: &[u8]) -> Validity {
    let mut v = Validity::new();
    for &f in flags {
        v.push(f != 0);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_parsing() {
        assert_eq!(parse_i64(b"1941"), Some(1941));
        assert_eq!(parse_i64(b"-42"), Some(-42));
        assert_eq!(parse_i64(b"+7"), Some(7));
        assert_eq!(parse_i64(b" 13 "), Some(13));
        assert_eq!(parse_i64(b"9223372036854775807"), Some(i64::MAX));
        assert_eq!(parse_i64(b"-9223372036854775808"), Some(i64::MIN));
        assert_eq!(parse_i64(b"9223372036854775808"), None); // overflow
        assert_eq!(parse_i64(b""), None);
        assert_eq!(parse_i64(b"12a"), None);
        assert_eq!(parse_i64(b"-"), None);
    }

    #[test]
    fn float_parsing() {
        assert_eq!(parse_f64(b"199.99"), Some(199.99));
        assert_eq!(parse_f64(b"-0.5"), Some(-0.5));
        assert_eq!(parse_f64(b"12"), Some(12.0));
        assert_eq!(parse_f64(b"1e3"), Some(1000.0)); // slow path
        assert_eq!(parse_f64(b"2.5E-2"), Some(0.025));
        assert_eq!(parse_f64(b".5"), Some(0.5));
        assert_eq!(parse_f64(b""), None);
        assert_eq!(parse_f64(b"abc"), None);
        assert_eq!(parse_f64(b"1.2.3"), None);
    }

    #[test]
    fn decimal_parsing() {
        assert_eq!(parse_decimal(b"12.34", 2), Some(1234));
        assert_eq!(parse_decimal(b"-7.5", 2), Some(-750));
        assert_eq!(parse_decimal(b"3", 2), Some(300));
        assert_eq!(parse_decimal(b"0.005", 2), None); // too precise
        assert_eq!(parse_decimal(b"1.2.3", 2), None);
        assert_eq!(parse_decimal(b"", 2), None);
    }

    #[test]
    fn bool_parsing() {
        for t in [&b"true"[..], b"T", b"YES", b"y", b"1"] {
            assert_eq!(parse_bool(t), Some(true), "{t:?}");
        }
        for f in [&b"false"[..], b"F", b"no", b"N", b"0"] {
            assert_eq!(parse_bool(f), Some(false), "{f:?}");
        }
        assert_eq!(parse_bool(b"maybe"), None);
        assert_eq!(parse_bool(b""), None);
    }

    #[test]
    fn date_parsing() {
        assert_eq!(parse_date(b"1970-01-01"), Some(0));
        assert_eq!(parse_date(b"2018-06-01"), Some(ymd_to_days(2018, 6, 1)));
        assert_eq!(parse_date(b"2018-02-30"), None); // no such day
        assert_eq!(parse_date(b"2018-13-01"), None);
        assert_eq!(parse_date(b"2018/06/01"), None);
        assert_eq!(parse_date(b"18-06-01"), None);
    }

    #[test]
    fn timestamp_parsing() {
        let base = ymd_to_days(2018, 6, 1) as i64 * 86_400_000_000;
        assert_eq!(parse_timestamp(b"2018-06-01 00:00:00"), Some(base));
        assert_eq!(
            parse_timestamp(b"2018-06-01T01:02:03"),
            Some(base + 3_723_000_000)
        );
        assert_eq!(
            parse_timestamp(b"2018-06-01 00:00:00.5"),
            Some(base + 500_000)
        );
        assert_eq!(parse_timestamp(b"2018-06-01"), Some(base));
        assert_eq!(parse_timestamp(b"2018-06-01 25:00:00"), None);
        assert_eq!(parse_timestamp(b"junk"), None);
    }

    fn simple_index(fields: &[(&[u8], u32)]) -> (Vec<u8>, FieldIndex) {
        let mut css = Vec::new();
        let mut idx = FieldIndex::default();
        for (bytes, row) in fields {
            idx.rows.push(*row);
            idx.starts.push(css.len() as u64);
            css.extend_from_slice(bytes);
            idx.ends.push(css.len() as u64);
        }
        (css, idx)
    }

    #[test]
    fn converts_i64_column_with_missing_and_bad_rows() {
        let grid = Grid::new(2);
        let (css, idx) = simple_index(&[(b"10", 0), (b"oops", 2), (b"30", 3)]);
        let out = convert_column_with_diags(
            &grid,
            &css,
            &idx,
            4,
            DataType::Int64,
            None,
            &Bitmap::new(4),
            1 << 20,
            None,
        );
        assert_eq!(out.reject_count, 1);
        let c = out.column;
        assert_eq!(c.value(0), Value::Int64(10));
        assert_eq!(c.value(1), Value::Null); // missing
        assert_eq!(c.value(2), Value::Null); // bad
        assert_eq!(c.value(3), Value::Int64(30));
    }

    #[test]
    fn default_fills_missing_rows() {
        let grid = Grid::new(2);
        let (css, idx) = simple_index(&[(b"1", 0)]);
        let out = convert_column_with_diags(
            &grid,
            &css,
            &idx,
            3,
            DataType::Int64,
            Some(&Value::Int64(99)),
            &Bitmap::new(3),
            1 << 20,
            None,
        );
        let c = out.column;
        assert_eq!(c.value(1), Value::Int64(99));
        assert_eq!(c.value(2), Value::Int64(99));
        assert_eq!(c.value(0), Value::Int64(1));
    }

    #[test]
    fn empty_present_field_takes_default() {
        let grid = Grid::new(1);
        let (css, idx) = simple_index(&[(b"", 0), (b"5", 1)]);
        let out = convert_column_with_diags(
            &grid,
            &css,
            &idx,
            2,
            DataType::Int64,
            Some(&Value::Int64(-1)),
            &Bitmap::new(2),
            1 << 20,
            None,
        );
        assert_eq!(out.column.value(0), Value::Int64(-1));
        assert_eq!(out.reject_count, 0);
    }

    #[test]
    fn rejected_rows_are_null() {
        let grid = Grid::new(2);
        let (css, idx) = simple_index(&[(b"1", 0), (b"2", 1)]);
        let mut rej = Bitmap::new(2);
        rej.set(1);
        let out = convert_column_with_diags(
            &grid,
            &css,
            &idx,
            2,
            DataType::Int64,
            None,
            &rej,
            1 << 20,
            None,
        );
        assert_eq!(out.column.value(1), Value::Null);
        assert_eq!(out.column.value(0), Value::Int64(1));
    }

    /// Utf8-convert `fields` into `num_rows` rows on `grid`.
    fn utf8(
        grid: &Grid,
        fields: &[(&[u8], u32)],
        num_rows: usize,
        default: Option<&Value>,
        rejected: &Bitmap,
        threshold: usize,
    ) -> ConvertedColumn {
        let (css, idx) = simple_index(fields);
        let dtype = DataType::Utf8;
        convert_column_with_diags(
            grid, &css, &idx, num_rows, dtype, default, rejected, threshold, None,
        )
    }

    #[test]
    fn byte_split_copy_matches_hand_built_column_on_every_grid() {
        // A giant field holds most of the output bytes, so on every grid
        // with more than one worker the cuts between worker spans fall
        // inside it; the small rows around it straddle the other cuts.
        let giant: Vec<u8> = (0..700u32).map(|i| b'a' + (i % 26) as u8).collect();
        let giant_str = String::from_utf8(giant.clone()).unwrap();
        let fields: &[(&[u8], u32)] = &[
            (b"alpha", 0),
            // row 1 absent
            (b"", 2),         // present but empty: same as absent
            (b"rejected", 3), // its record is rejected
            (&giant, 4),
            (b"omega", 5),
            (b"tail", 6),
            // rows 7 and 8 absent (trailing)
        ];
        let num_rows = 9;
        let mut rejected = Bitmap::new(num_rows);
        rejected.set(3);
        for default in [None, Some("dflt")] {
            let fill = default
                .map(|d| Value::Utf8(d.into()))
                .unwrap_or(Value::Null);
            let want = [
                Value::Utf8("alpha".into()),
                fill.clone(),
                fill.clone(),
                Value::Null,
                Value::Utf8(giant_str.clone()),
                Value::Utf8("omega".into()),
                Value::Utf8("tail".into()),
                fill.clone(),
                fill.clone(),
            ];
            let default = default.map(|d| Value::Utf8(d.into()));
            let run = |workers| {
                let grid = Grid::new(workers);
                utf8(
                    &grid,
                    fields,
                    num_rows,
                    default.as_ref(),
                    &rejected,
                    1 << 20,
                )
                .column
            };
            let one = run(1);
            for workers in [1, 2, 3, 8] {
                let c = run(workers);
                let ColumnData::Utf8 { values, .. } = c.data() else {
                    unreachable!("a Utf8 column")
                };
                if workers > 1 {
                    assert!(giant.len() > values.len() / workers, "a cut falls inside");
                }
                let got: Vec<Value> = (0..num_rows).map(|r| c.value(r)).collect();
                assert_eq!(got, want, "{workers} workers, default {default:?}");
                assert_eq!(c, one, "{workers} workers, default {default:?}");
            }
        }
    }

    #[test]
    fn tier_counts_split_at_budget_and_threshold() {
        // Threshold 64 KiB: the thread budget is 1 KiB. Fields at the
        // budget stay thread-level, one byte over is block-level, up to
        // the threshold; one byte past it is device-level. A long default
        // and a rejected giant are not fields, so they are never counted.
        let threshold = 1 << 16;
        let budget = threshold / 64;
        let lens = [budget, budget + 1, threshold, threshold + 1, 2 * threshold];
        let bodies: Vec<Vec<u8>> = lens.iter().map(|&n| vec![b'z'; n]).collect();
        let fields: Vec<(&[u8], u32)> = bodies
            .iter()
            .enumerate()
            .map(|(r, b)| (b.as_slice(), r as u32))
            .collect();
        let num_rows = lens.len() + 1; // last row absent → default
        let mut rejected = Bitmap::new(num_rows);
        rejected.set(4);
        let default = Value::Utf8("d".repeat(2 * budget));
        for workers in [1, 3] {
            let grid = Grid::new(workers);
            let out = utf8(
                &grid,
                &fields,
                num_rows,
                Some(&default),
                &rejected,
                threshold,
            );
            assert_eq!(
                out.collaborative_fields, 3,
                "budget+1, threshold, threshold+1"
            );
            assert_eq!(out.block_level_fields, 2, "budget+1, threshold");
            for (r, &n) in lens.iter().enumerate().take(4) {
                assert_eq!(out.column.utf8_bytes(r).unwrap().len(), n);
            }
            assert_eq!(out.column.value(4), Value::Null);
            assert_eq!(out.column.value(5), default);
        }
    }

    #[test]
    fn fired_cancel_token_fails_the_conversion_launch() {
        use parparaw_parallel::{CancelToken, KernelExecutor};
        let token = CancelToken::new();
        let exec = KernelExecutor::new(Grid::new(2)).with_cancel(token.clone());
        let giant = vec![b'q'; 100_000];
        let fields: &[(&[u8], u32)] = &[(b"a", 0), (&giant, 1)];
        let err = exec
            .launch("convert/column", giant.len(), |grid, _| {
                // The launch starts armed; the token fires before the
                // kernel's first pass, whose polls must see it.
                token.cancel();
                utf8(grid, fields, 2, None, &Bitmap::new(2), 1024)
            })
            .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
    }

    #[test]
    fn decimal_column() {
        let grid = Grid::new(2);
        let (css, idx) = simple_index(&[(b"12.34", 0), (b"-0.5", 1)]);
        let out = convert_column_with_diags(
            &grid,
            &css,
            &idx,
            2,
            DataType::Decimal128 { scale: 2 },
            None,
            &Bitmap::new(2),
            1 << 20,
            None,
        );
        assert_eq!(out.column.value(0), Value::Decimal128(1234, 2));
        assert_eq!(out.column.value(1), Value::Decimal128(-50, 2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use parparaw_parallel::SplitMix64;

    #[test]
    fn i64_matches_std() {
        let mut rng = SplitMix64::new(0xC04F_EE01);
        for _ in 0..512 {
            let v = rng.next_u64() as i64;
            let s = v.to_string();
            assert_eq!(parse_i64(s.as_bytes()), Some(v));
        }
        for v in [0i64, 1, -1, i64::MIN, i64::MAX] {
            assert_eq!(parse_i64(v.to_string().as_bytes()), Some(v));
        }
    }

    #[test]
    fn i64_rejects_what_std_rejects() {
        let alphabet: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz.";
        let mut rng = SplitMix64::new(0xC04F_EE02);
        for _ in 0..2048 {
            let mut s = String::new();
            if rng.chance(0.3) {
                s.push(if rng.chance(0.5) { '+' } else { '-' });
            }
            let len = rng.next_below(21) as usize;
            for _ in 0..len {
                s.push(*rng.choice(alphabet) as char);
            }
            let std_ok = s.parse::<i64>().is_ok();
            let ours = parse_i64(s.as_bytes()).is_some();
            assert_eq!(ours, std_ok, "{s}");
        }
    }

    #[test]
    fn f64_close_to_std() {
        let mut rng = SplitMix64::new(0xC04F_EE03);
        for _ in 0..512 {
            let int = rng.next_below(1_000_000_000);
            let frac = rng.next_below(1_000_000) as u32;
            let s = format!("{int}.{frac:06}");
            let ours = parse_f64(s.as_bytes()).unwrap();
            let std = s.parse::<f64>().unwrap();
            // The fast path accumulates decimally; allow 1 ulp-ish slack.
            assert!(
                (ours - std).abs() <= std.abs() * 1e-15 + f64::EPSILON,
                "{s}"
            );
        }
    }

    #[test]
    fn f64_slow_path_matches_std() {
        let mut rng = SplitMix64::new(0xC04F_EE04);
        for _ in 0..1024 {
            // -?[0-9]{1,10}(\.[0-9]{1,10})?[eE]-?[0-9]{1,2}
            let mut s = String::new();
            if rng.chance(0.5) {
                s.push('-');
            }
            for _ in 0..rng.next_range(1, 10) {
                s.push((b'0' + rng.next_below(10) as u8) as char);
            }
            if rng.chance(0.5) {
                s.push('.');
                for _ in 0..rng.next_range(1, 10) {
                    s.push((b'0' + rng.next_below(10) as u8) as char);
                }
            }
            s.push(if rng.chance(0.5) { 'e' } else { 'E' });
            if rng.chance(0.5) {
                s.push('-');
            }
            for _ in 0..rng.next_range(1, 2) {
                s.push((b'0' + rng.next_below(10) as u8) as char);
            }
            let ours = parse_f64(s.as_bytes());
            let std = s.parse::<f64>().ok();
            assert_eq!(ours, std, "{s}");
        }
    }

    #[test]
    fn decimal_scales_consistently() {
        let mut rng = SplitMix64::new(0xC04F_EE05);
        for _ in 0..1024 {
            // Render an unscaled integer at `scale`, reparse, compare.
            let v = rng.next_range(0, 2_000_000_000) as i64 - 1_000_000_000;
            let scale = rng.next_below(6) as u8;
            let rendered = parparaw_columnar::Value::Decimal128(v as i128, scale).to_string();
            assert_eq!(
                parse_decimal(rendered.as_bytes(), scale),
                Some(v as i128),
                "{rendered}"
            );
        }
    }

    #[test]
    fn date_roundtrips() {
        let mut rng = SplitMix64::new(0xC04F_EE06);
        for _ in 0..1024 {
            let days = rng.next_below(400_000) as i32 - 200_000;
            let rendered = parparaw_columnar::Value::Date32(days).to_string();
            assert_eq!(parse_date(rendered.as_bytes()), Some(days), "{rendered}");
        }
    }

    #[test]
    fn timestamp_roundtrips() {
        let mut rng = SplitMix64::new(0xC04F_EE07);
        for _ in 0..1024 {
            let us = rng.next_range(0, 12_000_000_000_000_000) as i64 - 6_000_000_000_000_000;
            let rendered = parparaw_columnar::Value::TimestampMicros(us).to_string();
            assert_eq!(parse_timestamp(rendered.as_bytes()), Some(us), "{rendered}");
        }
    }

    #[test]
    fn i64_swar_boundaries_match_std() {
        // Fixed boundaries through the 8-digit SWAR blocks: the extremes,
        // whitespace, and leading zeros (which push the same value through
        // different block alignments).
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1] {
            for pad in ["", " ", "\t "] {
                for zeros in ["", "0", "00000000"] {
                    let sign = if v < 0 { "-" } else { "" };
                    let mag = v.unsigned_abs();
                    let s = format!("{pad}{sign}{zeros}{mag}{pad}");
                    assert_eq!(parse_i64(s.as_bytes()), Some(v), "{s:?}");
                }
            }
        }
        // One digit past the extremes overflows in both.
        assert_eq!(parse_i64(b"9223372036854775808"), None);
        assert_eq!(parse_i64(b"-9223372036854775809"), None);
        // Random digit strings of 1-25 digits — through in-range, boundary,
        // and overflowing lengths — agree with the standard library.
        let mut rng = SplitMix64::new(0xC04F_EE08);
        for _ in 0..4096 {
            let mut s = String::new();
            if rng.chance(0.2) {
                s.push(' ');
            }
            if rng.chance(0.4) {
                s.push(if rng.chance(0.5) { '+' } else { '-' });
            }
            for _ in 0..rng.next_range(1, 25) {
                s.push((b'0' + rng.next_below(10) as u8) as char);
            }
            if rng.chance(0.2) {
                s.push('\t');
            }
            assert_eq!(
                parse_i64(s.as_bytes()),
                s.trim().parse::<i64>().ok(),
                "{s:?}"
            );
        }
    }

    #[test]
    fn f64_long_mantissas_match_std() {
        // 17-19 digit mantissas straddle the fast path's deferral points
        // (18 integer digits, 17 fractional digits) on both sides.
        let mut rng = SplitMix64::new(0xC04F_EE09);
        for _ in 0..4096 {
            let mut digs = String::new();
            if rng.chance(0.3) {
                digs.push('0');
            }
            let ndigits = rng.next_range(17, 19) as usize;
            while digs.len() < ndigits {
                digs.push((b'0' + rng.next_below(10) as u8) as char);
            }
            if rng.chance(0.7) {
                let dot = rng.next_below(digs.len() as u64 + 1) as usize;
                digs.insert(dot, '.');
            }
            let s = if rng.chance(0.5) {
                format!("-{digs}")
            } else {
                digs
            };
            let ours = parse_f64(s.as_bytes());
            let std = s.parse::<f64>().ok();
            match (ours, std) {
                // Decimal accumulation vs correctly-rounded std: 1 ulp-ish.
                (Some(a), Some(b)) => {
                    assert!((a - b).abs() <= b.abs() * 1e-15 + f64::EPSILON, "{s}")
                }
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "{s}"),
            }
        }
    }

    #[test]
    fn date_time_swar_rejects_malformed() {
        // Every byte the SWAR masks substitute or validate: misplaced
        // separators, separator bytes inside digit groups, out-of-range
        // components, and over-long fractions.
        assert_eq!(parse_date(b"2020-13-01"), None);
        assert_eq!(parse_date(b"2020:01-01"), None);
        assert_eq!(parse_date(b"20-0-01-01"), None);
        assert_eq!(parse_date(b"2020-01-32"), None);
        assert_eq!(parse_date(b"202a-01-01"), None);
        assert_eq!(parse_date(b"2021-02-29"), None);
        assert_eq!(parse_date(b" 2020-02-29 "), Some(ymd_to_days(2020, 2, 29)));
        assert_eq!(parse_timestamp(b"2020-01-01 12:34:5x"), None);
        assert_eq!(parse_timestamp(b"2020-01-01 25:00:00"), None);
        assert_eq!(parse_timestamp(b"2020-01-01T12-34:56"), None);
        assert_eq!(parse_timestamp(b"2020-01-01 12:34:56.1234567"), None);
        assert_eq!(parse_timestamp(b"1970-01-01T00:00:01.5"), Some(1_500_000));
    }
}
