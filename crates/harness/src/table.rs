//! Aligned-text tables and CSV input/output for experiment artifacts.
//!
//! Job artifacts round-trip through CSV: a job writes its [`Table`]s
//! with [`Table::write_csv`], and the reduce step reads them back with
//! [`Table::read_csv`]. Numeric cells written with [`num`] use Rust's
//! shortest-roundtrip float formatting, so the parse-back is exact and
//! resumed runs aggregate to bit-identical figures.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned table, printed in the style of the paper's
/// result tables.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in table '{}'",
            self.title
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Returns the table with a replacement title (CSV round-trips keep
    /// headers and rows but name tables after the file stem; reduce
    /// steps use this to restore the display title).
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = title.into();
        self
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The cell at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// The cell at `(row, col)` parsed as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not a number.
    pub fn f64_at(&self, row: usize, col: usize) -> f64 {
        self.cell(row, col)
            .parse()
            .unwrap_or_else(|_| panic!("table '{}' [{row}][{col}] is not an f64", self.title))
    }

    /// The cell at `(row, col)` parsed as `u64`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or not an integer.
    pub fn u64_at(&self, row: usize, col: usize) -> u64 {
        self.cell(row, col)
            .parse()
            .unwrap_or_else(|_| panic!("table '{}' [{row}][{col}] is not a u64", self.title))
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }

    /// Prints the table to stdout (tolerating a closed pipe).
    pub fn print(&self) {
        crate::cli::emit(&self.render());
    }

    /// Serializes the table body (headers + rows) as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Writes the table as CSV under `dir/<name>.csv`, atomically
    /// (write to a temporary file, then rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, dir: &Path, name: &str) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".{name}.csv.tmp"));
        fs::write(&tmp, self.to_csv())?;
        fs::rename(&tmp, dir.join(format!("{name}.csv")))
    }

    /// Reads a table back from a CSV file written by [`Table::write_csv`].
    /// The title is taken from the file stem.
    ///
    /// Cells must not contain commas (none of the harness's artifacts
    /// do); there is no quoting.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or an empty/ragged file.
    pub fn read_csv(path: &Path) -> io::Result<Table> {
        let text = fs::read_to_string(path)?;
        let title = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut lines = text.lines();
        let headers: Vec<String> = lines
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty CSV"))?
            .split(',')
            .map(str::to_string)
            .collect();
        let mut t = Table {
            title,
            headers,
            rows: Vec::new(),
        };
        for line in lines {
            let cells: Vec<String> = line.split(',').map(str::to_string).collect();
            if cells.len() != t.headers.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("ragged CSV row in {}", path.display()),
                ));
            }
            t.rows.push(cells);
        }
        Ok(t)
    }
}

/// Formats an `f64` with Rust's shortest-roundtrip representation, so
/// `parse::<f64>()` recovers the exact value. Every numeric cell in a
/// figure or artifact CSV routes through this single helper: the
/// golden-trace regression suite compares CSVs field by field, and one
/// formatting policy keeps re-runs bit-identical to the committed
/// goldens.
pub fn fmt_f64(x: f64) -> String {
    format!("{x}")
}

/// Alias of [`fmt_f64`], kept for the job-artifact call sites.
pub fn num(x: f64) -> String {
    fmt_f64(x)
}

/// Formats a duration in seconds adaptively (ms below 1 s).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else {
        format!("{:.3}ms", s * 1e3)
    }
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact values are the expected results")]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("name    value"));
        assert!(r.contains("longer  22"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("trim_table_test");
        let mut t = Table::new("demo", &["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        t.write_csv(&dir, "demo").unwrap();
        let s = std::fs::read_to_string(dir.join("demo.csv")).unwrap();
        assert_eq!(s, "x,y\n1,2\n");
        let back = Table::read_csv(&dir.join("demo.csv")).unwrap();
        assert_eq!(back.title(), "demo");
        assert_eq!(back.headers(), t.headers());
        assert_eq!(back.rows(), t.rows());
        assert_eq!(back.u64_at(0, 1), 2);
    }

    #[test]
    fn num_round_trips_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 123456.789, f64::MAX] {
            assert_eq!(num(x).parse::<f64>().unwrap(), x);
        }
        let t = {
            let mut t = Table::new("n", &["v"]);
            t.row(&[num(0.30000000000000004)]);
            t
        };
        assert_eq!(t.f64_at(0, 0), 0.30000000000000004);
    }

    #[test]
    fn fmt_f64_is_the_num_policy() {
        for x in [0.5, 97.3, 1.0 / 3.0, -2.25e-9] {
            assert_eq!(fmt_f64(x), num(x));
            assert_eq!(fmt_f64(x).parse::<f64>().unwrap(), x);
        }
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(0.5), "0.5");
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_secs(1.5), "1.500s");
        assert_eq!(fmt_secs(0.0123), "12.300ms");
        assert_eq!(fmt_pct(0.805), "80.5%");
    }
}
