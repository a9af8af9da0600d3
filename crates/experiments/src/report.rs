//! Plain-text table rendering for the experiment binaries.

use std::fmt;

/// One result table (a figure or table of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Title, e.g. `"Figure 10: SpMV speedup (normalized to TACO-CSR)"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (stringified by the producer).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table (paper comparison, scaling).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Appends a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:<w$} |")?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<1$}|", "", w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "> {n}")?;
        }
        Ok(())
    }
}

/// Formats a ratio with two decimals.
pub fn r2(x: f64) -> String {
    format!("{x:.2}")
}

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1.00".into()]);
        t.push_row(vec!["b".into(), "12.34".into()]);
        t.note("paper: 1.38");
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| alpha | 1.00  |"));
        assert!(s.contains("> paper: 1.38"));
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("x", &["a", "b"]).push_row(vec!["only one".into()]);
    }
}
