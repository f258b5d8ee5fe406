//! Table rendering and CSV emission for the experiment binaries.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use dharma_types::Result;

/// A simple fixed-width text table, printed in the paper's row/column shape.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for c in 0..cols {
            width[c] = self.header[c].chars().count();
            for r in &self.rows {
                width[c] = width[c].max(r[c].chars().count());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    s.push_str("  ");
                }
                let pad = width[c] - cell.chars().count();
                s.push_str(cell);
                s.extend(std::iter::repeat_n(' ', pad));
            }
            s.trim_end().to_string()
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout with a caption.
    pub fn print(&self, caption: &str) {
        println!("\n== {caption} ==");
        print!("{}", self.render());
    }
}

/// A CSV writer rooted at the experiment output directory.
pub struct CsvSink {
    dir: PathBuf,
}

impl CsvSink {
    /// Creates (and mkdir -p's) a sink under `dir/experiment`.
    pub fn new(dir: &str, experiment: &str) -> Result<Self> {
        let dir = Path::new(dir).join(experiment);
        fs::create_dir_all(&dir)?;
        Ok(CsvSink { dir })
    }

    /// Writes a CSV file with the given header and rows.
    pub fn write(
        &self,
        file: &str,
        header: &[&str],
        rows: impl IntoIterator<Item = Vec<String>>,
    ) -> Result<PathBuf> {
        let path = self.dir.join(file);
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", header.join(","))?;
        for row in rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Formats a float the way the paper's tables do (4 significant decimals).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Nearest-rank percentile over an ascending-sorted slice (0 when empty):
/// the element at index `ceil(n·p) − 1`.
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

/// Down-samples a scatter series to at most `max_points`, keeping extremes —
/// the figures plot hundreds of thousands of points, which is pointless in
/// CSV; systematic sampling preserves the visual shape.
pub fn thin_scatter(mut points: Vec<(u64, u64)>, max_points: usize) -> Vec<(u64, u64)> {
    if points.len() <= max_points {
        return points;
    }
    points.sort_unstable();
    let stride = points.len() as f64 / max_points as f64;
    let mut out = Vec::with_capacity(max_points);
    let mut next = 0f64;
    for (i, p) in points.iter().enumerate() {
        if i as f64 >= next {
            out.push(*p);
            next += stride;
        }
    }
    // Always keep the maximum point.
    if let Some(last) = points.last() {
        if out.last() != Some(last) {
            out.push(*last);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["Primitive", "lookups"]);
        t.row(["Insert", "2 + 2m"]);
        t.row(["Tag (naive)", "4 + |Tags(r)|"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Primitive"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dharma-csv-{}", std::process::id()));
        let sink = CsvSink::new(dir.to_str().unwrap(), "test").unwrap();
        let path = sink
            .write(
                "x.csv",
                &["a", "b"],
                vec![vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
            )
            .unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn percentile_is_nearest_rank_at_the_edges() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.0), 7);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 1.0), 7);
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.0), 1);
        assert_eq!(percentile(&hundred, 0.50), 50);
        assert_eq!(percentile(&hundred, 0.99), 99);
        assert_eq!(percentile(&hundred, 1.0), 100);
        assert_eq!(percentile(&[10, 20, 30], 0.34), 20, "ceil(1.02) - 1 = 1");
    }

    #[test]
    fn scatter_thinning_keeps_shape() {
        let points: Vec<(u64, u64)> = (0..10_000).map(|i| (i, i * 2)).collect();
        let thin = thin_scatter(points.clone(), 100);
        assert!(thin.len() <= 101);
        assert_eq!(thin.first(), Some(&(0, 0)));
        assert_eq!(thin.last(), Some(&(9_999, 19_998)));
        // Small inputs pass through.
        let small = vec![(5u64, 6u64)];
        assert_eq!(thin_scatter(small.clone(), 100), small);
    }
}
