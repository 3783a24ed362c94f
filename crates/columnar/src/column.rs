//! Typed column buffers in Arrow layout.
//!
//! Fixed-width types store one contiguous value buffer; strings store an
//! offsets buffer (`n + 1` entries) plus a concatenated values buffer —
//! the layout ParPaRaw's conversion step produces directly from the CSS
//! index (paper Fig. 5). All constructors validate buffer-length
//! invariants so a malformed parse cannot build an inconsistent column.

use crate::datatype::DataType;
use crate::validity::Validity;
use crate::value::Value;

/// The typed buffer variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans, one byte per value.
    Boolean(Vec<bool>),
    /// 8-bit integers.
    Int8(Vec<i8>),
    /// 16-bit integers.
    Int16(Vec<i16>),
    /// 32-bit integers.
    Int32(Vec<i32>),
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// Doubles.
    Float64(Vec<f64>),
    /// Unscaled decimal values plus the column scale.
    Decimal128(Vec<i128>, u8),
    /// Days since epoch.
    Date32(Vec<i32>),
    /// Microseconds since epoch.
    TimestampMicros(Vec<i64>),
    /// Strings: `offsets.len() == n + 1`, value `i` is
    /// `values[offsets[i]..offsets[i+1]]`.
    Utf8 {
        /// Byte offsets into `values`, monotonically non-decreasing.
        offsets: Vec<u64>,
        /// Concatenated UTF-8 bytes.
        values: Vec<u8>,
    },
}

/// A column: typed data plus optional validity.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    validity: Option<Validity>,
}

impl Column {
    /// Build from data and optional validity, checking length invariants.
    pub fn new(data: ColumnData, validity: Option<Validity>) -> Result<Self, String> {
        let n = data_len(&data);
        if let ColumnData::Utf8 { offsets, values } = &data {
            if offsets.is_empty() {
                return Err("utf8 offsets must have n+1 entries".into());
            }
            if offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err("utf8 offsets must be non-decreasing".into());
            }
            // Invariant: `offsets` is non-empty (checked above).
            if *offsets.last().unwrap() as usize != values.len() {
                return Err("utf8 offsets must end at values.len()".into());
            }
        }
        if let Some(v) = &validity {
            if v.len() != n {
                return Err(format!(
                    "validity length {} does not match column length {n}",
                    v.len()
                ));
            }
        }
        // Normalise: an all-valid bitmap carries no information (Arrow
        // drops it too), and dropping it makes column equality semantic.
        let validity = validity.filter(|v| v.null_count() > 0);
        Ok(Column { data, validity })
    }

    /// An all-valid Int64 column.
    pub fn from_i64(values: Vec<i64>, validity: Option<Validity>) -> Self {
        Column::new(ColumnData::Int64(values), validity).expect("valid i64 column")
    }

    /// An all-valid Float64 column.
    pub fn from_f64(values: Vec<f64>, validity: Option<Validity>) -> Self {
        Column::new(ColumnData::Float64(values), validity).expect("valid f64 column")
    }

    /// An all-valid Utf8 column from string slices.
    pub fn from_strings<S: AsRef<str>>(strings: &[S]) -> Self {
        let mut offsets = Vec::with_capacity(strings.len() + 1);
        let mut values = Vec::new();
        offsets.push(0u64);
        for s in strings {
            values.extend_from_slice(s.as_ref().as_bytes());
            offsets.push(values.len() as u64);
        }
        Column::new(ColumnData::Utf8 { offsets, values }, None).expect("valid utf8 column")
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        data_len(&self.data)
    }

    /// Whether the column has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            ColumnData::Boolean(_) => DataType::Boolean,
            ColumnData::Int8(_) => DataType::Int8,
            ColumnData::Int16(_) => DataType::Int16,
            ColumnData::Int32(_) => DataType::Int32,
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Decimal128(_, s) => DataType::Decimal128 { scale: *s },
            ColumnData::Date32(_) => DataType::Date32,
            ColumnData::TimestampMicros(_) => DataType::TimestampMicros,
            ColumnData::Utf8 { .. } => DataType::Utf8,
        }
    }

    /// The typed buffers.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap, if any (absent = all valid).
    pub fn validity(&self) -> Option<&Validity> {
        self.validity.as_ref()
    }

    /// Number of nulls.
    pub fn null_count(&self) -> usize {
        self.validity.as_ref().map_or(0, |v| v.null_count())
    }

    /// Whether row `i` is valid.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.is_valid(i))
    }

    /// Cell accessor.
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Boolean(v) => Value::Boolean(v[i]),
            ColumnData::Int8(v) => Value::Int64(v[i] as i64),
            ColumnData::Int16(v) => Value::Int64(v[i] as i64),
            ColumnData::Int32(v) => Value::Int64(v[i] as i64),
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Decimal128(v, s) => Value::Decimal128(v[i], *s),
            ColumnData::Date32(v) => Value::Date32(v[i]),
            ColumnData::TimestampMicros(v) => Value::TimestampMicros(v[i]),
            ColumnData::Utf8 { offsets, values } => {
                let s = &values[offsets[i] as usize..offsets[i + 1] as usize];
                Value::Utf8(String::from_utf8_lossy(s).into_owned())
            }
        }
    }

    /// Raw string bytes of row `i` for Utf8 columns.
    pub fn utf8_bytes(&self, i: usize) -> Option<&[u8]> {
        match &self.data {
            ColumnData::Utf8 { offsets, values } => {
                Some(&values[offsets[i] as usize..offsets[i + 1] as usize])
            }
            _ => None,
        }
    }

    /// Approximate in-memory footprint of the buffers in bytes — what the
    /// streaming return path has to move back over the interconnect.
    pub fn buffer_bytes(&self) -> usize {
        let values = match &self.data {
            ColumnData::Boolean(v) => v.len(),
            ColumnData::Int8(v) => v.len(),
            ColumnData::Int16(v) => v.len() * 2,
            ColumnData::Int32(v) | ColumnData::Date32(v) => v.len() * 4,
            ColumnData::Int64(v) | ColumnData::TimestampMicros(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Decimal128(v, _) => v.len() * 16,
            ColumnData::Utf8 { offsets, values } => offsets.len() * 8 + values.len(),
        };
        values + self.validity.as_ref().map_or(0, |v| v.len().div_ceil(8))
    }
}

impl Column {
    /// Concatenate columns of identical type into one. Returns an error on
    /// type mismatch (including decimal scale).
    pub fn concat(parts: &[&Column]) -> Result<Column, String> {
        let (first, rest) = parts.split_first().ok_or("cannot concat zero columns")?;
        let mut out = (*first).clone();
        for p in rest {
            out.append(p)?;
        }
        Ok(out)
    }

    /// Append `other`'s rows. Returns an error on type mismatch (including
    /// decimal scale). The result has validity if either side has nulls.
    pub fn append(&mut self, other: &Column) -> Result<(), String> {
        if other.data_type() != self.data_type() {
            return Err(format!(
                "type mismatch in concat: {} vs {}",
                other.data_type(),
                self.data_type()
            ));
        }
        if self.validity.is_some() || other.null_count() > 0 {
            let n = self.len();
            let v = self
                .validity
                .get_or_insert_with(|| Validity::with_len(n, true));
            for i in 0..other.len() {
                v.push(other.is_valid(i));
            }
        }
        use ColumnData as D;
        match (&mut self.data, &other.data) {
            (D::Boolean(a), D::Boolean(b)) => a.extend_from_slice(b),
            (D::Int8(a), D::Int8(b)) => a.extend_from_slice(b),
            (D::Int16(a), D::Int16(b)) => a.extend_from_slice(b),
            (D::Int32(a), D::Int32(b)) | (D::Date32(a), D::Date32(b)) => a.extend_from_slice(b),
            (D::Int64(a), D::Int64(b)) | (D::TimestampMicros(a), D::TimestampMicros(b)) => {
                a.extend_from_slice(b)
            }
            (D::Float64(a), D::Float64(b)) => a.extend_from_slice(b),
            (D::Decimal128(a, _), D::Decimal128(b, _)) => a.extend_from_slice(b),
            (
                D::Utf8 { offsets, values },
                D::Utf8 {
                    offsets: po,
                    values: pv,
                },
            ) => {
                let base = values.len() as u64;
                values.extend_from_slice(pv);
                offsets.extend(po.iter().skip(1).map(|&o| base + o));
            }
            _ => unreachable!("type checked above"),
        }
        Ok(())
    }
}

fn data_len(data: &ColumnData) -> usize {
    match data {
        ColumnData::Boolean(v) => v.len(),
        ColumnData::Int8(v) => v.len(),
        ColumnData::Int16(v) => v.len(),
        ColumnData::Int32(v) | ColumnData::Date32(v) => v.len(),
        ColumnData::Int64(v) | ColumnData::TimestampMicros(v) => v.len(),
        ColumnData::Float64(v) => v.len(),
        ColumnData::Decimal128(v, _) => v.len(),
        ColumnData::Utf8 { offsets, .. } => offsets.len().saturating_sub(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_access() {
        let c = Column::from_i64(vec![1, 2, 3], None);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1), Value::Int64(2));
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.null_count(), 0);
    }

    #[test]
    fn utf8_access() {
        let c = Column::from_strings(&["Bookcase", "", "Frame"]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Utf8("Bookcase".into()));
        assert_eq!(c.value(1), Value::Utf8(String::new()));
        assert_eq!(c.utf8_bytes(2), Some(&b"Frame"[..]));
    }

    #[test]
    fn validity_masks_values() {
        let mut v = Validity::with_len(3, true);
        v.set(1, false);
        let c = Column::new(ColumnData::Int64(vec![1, 2, 3]), Some(v)).unwrap();
        assert_eq!(c.value(1), Value::Null);
        assert_eq!(c.value(2), Value::Int64(3));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn invariant_violations_are_rejected() {
        // Bad validity length.
        let v = Validity::with_len(2, true);
        assert!(Column::new(ColumnData::Int64(vec![1, 2, 3]), Some(v)).is_err());
        // Decreasing offsets.
        assert!(Column::new(
            ColumnData::Utf8 {
                offsets: vec![0, 5, 3],
                values: vec![0; 3]
            },
            None
        )
        .is_err());
        // Offsets not ending at values.len().
        assert!(Column::new(
            ColumnData::Utf8 {
                offsets: vec![0, 2],
                values: vec![0; 5]
            },
            None
        )
        .is_err());
        // Empty offsets.
        assert!(Column::new(
            ColumnData::Utf8 {
                offsets: vec![],
                values: vec![]
            },
            None
        )
        .is_err());
    }

    #[test]
    fn append_keeps_values_offsets_and_nulls() {
        let mut c = Column::from_strings(&["ab", "c"]);
        let mut v = Validity::with_len(2, true);
        v.set(0, false);
        let nullable = Column::new(
            ColumnData::Utf8 {
                offsets: vec![0, 0, 3],
                values: b"xyz".to_vec(),
            },
            Some(v),
        )
        .unwrap();
        c.append(&nullable).unwrap();
        c.append(&Column::from_strings(&["q"])).unwrap();
        let got: Vec<Value> = (0..c.len()).map(|i| c.value(i)).collect();
        let s = |t: &str| Value::Utf8(t.into());
        assert_eq!(got, [s("ab"), s("c"), Value::Null, s("xyz"), s("q")]);
        assert_eq!(c.null_count(), 1);
        assert!(c.append(&Column::from_i64(vec![1], None)).is_err());
    }

    #[test]
    fn buffer_bytes_accounts_buffers() {
        let c = Column::from_i64(vec![0; 10], None);
        assert_eq!(c.buffer_bytes(), 80);
        let c = Column::from_strings(&["ab", "c"]);
        assert_eq!(c.buffer_bytes(), 3 * 8 + 3);
    }
}
