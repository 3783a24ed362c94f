//! Tables: a schema plus equal-length columns.

use crate::column::Column;
use crate::schema::Schema;
use crate::value::Value;

/// A fully-materialised columnar table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Build from a schema and matching columns, checking that the column
    /// count and lengths agree.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self, String> {
        if schema.num_columns() != columns.len() {
            return Err(format!(
                "schema has {} fields but {} columns were provided",
                schema.num_columns(),
                columns.len()
            ));
        }
        let num_rows = columns.first().map_or(0, |c| c.len());
        for (f, c) in schema.fields.iter().zip(&columns) {
            if c.len() != num_rows {
                return Err(format!(
                    "column '{}' has {} rows, expected {num_rows}",
                    f.name,
                    c.len()
                ));
            }
        }
        Ok(Table {
            schema,
            columns,
            num_rows,
        })
    }

    /// An empty table with no columns.
    pub fn empty() -> Self {
        Table {
            schema: Schema::default(),
            columns: Vec::new(),
            num_rows: 0,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by index.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Option<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Cell accessor.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Total buffer footprint in bytes (what a device-to-host return
    /// transfer has to move).
    pub fn buffer_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.buffer_bytes()).sum()
    }

    /// Render the first `n` rows as an aligned text table.
    pub fn pretty(&self, n: usize) -> String {
        use std::fmt::Write;
        let n = n.min(self.num_rows);
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(n + 1);
        cells.push(
            self.schema
                .fields
                .iter()
                .map(|f| format!("{} ({})", f.name, f.data_type))
                .collect(),
        );
        for r in 0..n {
            cells.push(
                (0..self.num_columns())
                    .map(|c| {
                        let mut s = self
                            .value(r, c)
                            .to_string()
                            .replace('\n', "\\n")
                            .replace('\r', "\\r");
                        if s.len() > 32 {
                            let mut cut = 29;
                            while !s.is_char_boundary(cut) {
                                cut -= 1;
                            }
                            s.truncate(cut);
                            s.push_str("...");
                        }
                        s
                    })
                    .collect(),
            );
        }
        let mut widths = vec![0usize; self.num_columns()];
        for row in &cells {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in cells.iter().enumerate() {
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, "| {cell:w$} ");
            }
            let _ = writeln!(out, "|");
            if i == 0 {
                for w in &widths {
                    let _ = write!(out, "|{:-<width$}", "", width = w + 2);
                }
                let _ = writeln!(out, "|");
            }
        }
        if self.num_rows > n {
            let _ = writeln!(out, "... {} more rows", self.num_rows - n);
        }
        out
    }
}

impl Table {
    /// Concatenate tables with identical schemas (the streaming path glues
    /// per-partition tables back together with this).
    pub fn concat(parts: &[&Table]) -> Result<Table, String> {
        let first = parts.first().ok_or("cannot concat zero tables")?;
        for p in parts {
            if p.schema() != first.schema() {
                return Err("schema mismatch in concat".to_string());
            }
        }
        let mut columns = Vec::with_capacity(first.num_columns());
        for c in 0..first.num_columns() {
            let cols: Vec<&Column> = parts.iter().map(|p| p.column(c)).collect();
            columns.push(Column::concat(&cols)?);
        }
        Table::new(first.schema().clone(), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::Field;

    fn sample() -> Table {
        Table::new(
            Schema::new(vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Utf8),
            ]),
            vec![
                Column::from_i64(vec![1941, 1938], None),
                Column::from_strings(&["Bookcase", "Frame"]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks() {
        let t = sample();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.value(0, 0), Value::Int64(1941));
        assert_eq!(t.value(1, 1), Value::Utf8("Frame".into()));
        // Mismatched lengths rejected.
        assert!(Table::new(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Int64)
            ]),
            vec![
                Column::from_i64(vec![1], None),
                Column::from_i64(vec![1, 2], None)
            ],
        )
        .is_err());
        // Mismatched column count rejected.
        assert!(Table::new(Schema::new(vec![Field::new("a", DataType::Int64)]), vec![],).is_err());
    }

    #[test]
    fn lookup_by_name() {
        let t = sample();
        assert!(t.column_by_name("name").is_some());
        assert!(t.column_by_name("nope").is_none());
    }

    #[test]
    fn pretty_prints() {
        let t = sample();
        let s = t.pretty(10);
        assert!(s.contains("Bookcase"));
        assert!(s.contains("id (i64)"));
        let s1 = t.pretty(1);
        assert!(s1.contains("... 1 more rows"));
    }

    #[test]
    fn concat_tables() {
        let a = sample();
        let b = sample();
        let c = Table::concat(&[&a, &b]).unwrap();
        assert_eq!(c.num_rows(), 4);
        assert_eq!(c.value(2, 0), Value::Int64(1941));
        assert_eq!(c.value(3, 1), Value::Utf8("Frame".into()));
        // Mismatched schema rejected.
        let other = Table::new(
            Schema::new(vec![Field::new("z", DataType::Int64)]),
            vec![Column::from_i64(vec![1], None)],
        )
        .unwrap();
        assert!(Table::concat(&[&a, &other]).is_err());
        assert!(Table::concat(&[]).is_err());
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.buffer_bytes(), 0);
    }
}
