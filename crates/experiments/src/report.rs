//! Plain-text tables and CSV output for the figure harnesses.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple column-aligned table with a title, printed to stdout and
/// convertible to CSV.
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
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

    /// Prints the rendered table to stdout. A closed pipe (`… | head`)
    /// ends the process quietly with status 0; any other write error
    /// ends it with status 1.
    pub fn print(&self) {
        let mut out = std::io::stdout().lock();
        if let Err(e) = writeln!(out, "{}", self.render()).and_then(|()| out.flush()) {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                std::process::exit(0);
            }
            eprintln!("writing to stdout: {e}");
            std::process::exit(1);
        }
    }

    /// Writes the table as CSV under `dir` (created if needed), named
    /// `<slug>.csv`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing.
    pub fn write_csv(&self, dir: &Path, slug: &str) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        fs::write(dir.join(format!("{slug}.csv")), out)
    }

    /// [`print`](Self::print)s the table, then [`write_csv`](Self::write_csv)s
    /// it — what a figure binary does with each table it makes.
    ///
    /// # Errors
    ///
    /// As [`write_csv`](Self::write_csv).
    pub fn emit(&self, dir: &Path, slug: &str) -> std::io::Result<()> {
        self.print();
        self.write_csv(dir, slug)
    }
}

/// Formats a ratio as a percentage with three decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.3}%", x * 100.0)
}

/// Formats a float with two decimals.
#[must_use]
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// The default output directory for CSVs (`results/` at the workspace
/// root, or `RR_RESULTS_DIR`).
#[must_use]
pub fn results_dir() -> std::path::PathBuf {
    std::env::var("RR_RESULTS_DIR")
        .map(Into::into)
        .unwrap_or_else(|_| "results".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-name"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("rr_report_test");
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&dir, "demo").expect("writes");
        let content = std::fs::read_to_string(dir.join("demo.csv")).expect("reads");
        assert_eq!(content, "a,b\n1,2\n");
    }
}
