//! Table rendering and CSV / JSON emission for the experiment binaries.
//!
//! The paper's tables and figures print through [`TextTable`] and
//! [`CsvSink`] directly. The ablations declare their columns once, as a
//! list of [`Col`]s, and publish the rows through a [`Table`], which
//! renders the text table, the CSV and the JSON report from that one list;
//! their acceptance bars report through [`Acceptance`].

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

/// A column's name and cell in one rendering of a [`Table`]; an empty
/// name leaves the column out of that rendering.
type Part<R> = (&'static str, fn(&R) -> String);

/// One published column of an ablation's results: its header and cell in
/// the text table, in the CSV, and in the JSON report.
pub struct Col<R> {
    text: Part<R>,
    csv: Part<R>,
    json: Part<R>,
}

impl<R> Col<R> {
    /// A column headed `head` in the text table and `key` in the CSV, with
    /// the same cell in both.
    pub const fn new(head: &'static str, key: &'static str, cell: fn(&R) -> String) -> Self {
        Col {
            text: (head, cell),
            csv: (key, cell),
            json: ("", cell),
        }
    }

    /// A column only the JSON report carries, as `json`.
    pub const fn json(json: &'static str, value: fn(&R) -> String) -> Self {
        Col {
            json: (json, value),
            ..Col::new("", "", value)
        }
    }

    /// This column with its CSV cell formatted by `csv` instead (raw
    /// numbers where the text table rounds or rescales).
    pub const fn csv(self, csv: fn(&R) -> String) -> Self {
        Col {
            csv: (self.csv.0, csv),
            ..self
        }
    }

    /// This column, also in the JSON report as `json`.
    pub const fn and_json(self, json: &'static str, value: fn(&R) -> String) -> Self {
        Col {
            json: (json, value),
            ..self
        }
    }
}

/// An ablation's rows under its declared columns.
pub struct Table<R: 'static> {
    cols: &'static [Col<R>],
    /// The rows, in print order.
    pub rows: Vec<R>,
}

impl<R> Table<R> {
    /// An empty table with columns `cols`.
    pub fn new(cols: &'static [Col<R>]) -> Self {
        Table {
            cols,
            rows: Vec::new(),
        }
    }

    /// One rendering (`part` picks it): the names of the columns it
    /// carries, and each row's cells in them.
    fn render(&self, part: fn(&Col<R>) -> Part<R>) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let parts: Vec<Part<R>> = self
            .cols
            .iter()
            .map(part)
            .filter(|p| !p.0.is_empty())
            .collect();
        let cells = |row| parts.iter().map(|(_, cell)| cell(row)).collect();
        let names = parts.iter().map(|p| p.0).collect();
        (names, self.rows.iter().map(cells).collect())
    }

    /// Prints the text table under `caption`, then `note` unless it is
    /// empty.
    pub fn print(&self, caption: &str, note: &str) {
        let (header, rows) = self.render(|c| c.text);
        let mut table = TextTable::new(header);
        for row in rows {
            table.row(row);
        }
        table.print(caption);
        if !note.is_empty() {
            println!("{note}");
        }
    }

    /// Writes the CSV to `out/experiment/file` and prints its path.
    pub fn write_csv(&self, out: &str, experiment: &str, file: &str) {
        let (header, rows) = self.render(|c| c.csv);
        let sink = CsvSink::new(out, experiment).expect("output dir");
        let path = sink.write(file, &header, rows).expect("write csv");
        println!("wrote {}", path.display());
    }

    /// Writes the JSON report to `out/experiment/file`: the run's
    /// `smoke` and `seed`, then one object per row under the name `name`
    /// gives it, holding that row's JSON columns. Prints its path.
    pub fn write_json(
        &self,
        out: &str,
        experiment: &str,
        file: &str,
        smoke: bool,
        seed: u64,
        name: fn(&R) -> &str,
    ) {
        let (keys, rows) = self.render(|c| c.json);
        let object = |(row, values): (&R, Vec<String>)| {
            let fields: Vec<String> = keys
                .iter()
                .zip(values)
                .map(|(k, v)| format!("      \"{k}\": {v}"))
                .collect();
            format!("    \"{}\": {{\n{}\n    }}", name(row), fields.join(",\n"))
        };
        let objects: Vec<String> = self.rows.iter().zip(rows).map(object).collect();
        let json = format!(
            "{{\n  \"experiment\": \"{experiment}\",\n  \"smoke\": {smoke},\n  \"seed\": {seed},\n  \"configs\": {{\n{}\n  }}\n}}\n",
            objects.join(",\n")
        );
        let dir = Path::new(out).join(experiment);
        fs::create_dir_all(&dir).expect("output dir");
        let path = dir.join(file);
        fs::write(&path, json).expect("write json");
        println!("wrote {}", path.display());
    }
}

/// An ablation's acceptance bar: the checks that failed, reported when
/// the run ends.
#[derive(Default)]
pub struct Acceptance(Vec<String>);

impl Acceptance {
    /// Records `failure` when `failed`.
    pub fn fail_if(&mut self, failed: bool, failure: String) {
        if failed {
            self.0.push(failure);
        }
    }

    /// Prints each failure to stderr and exits with status 1, or prints
    /// that every check passed.
    pub fn finish(self) {
        if !self.0.is_empty() {
            for f in &self.0 {
                eprintln!("ACCEPTANCE FAILURE: {f}");
            }
            std::process::exit(1);
        }
        println!("acceptance checks passed ✓");
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

/// Formats a share as a percentage with 1 decimal (`0.9876` → `98.8%`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a µs count as ms with 1 decimal.
pub fn ms(us: f64) -> String {
    format!("{:.1}", us / 1_000.0)
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
    fn one_column_list_renders_csv_and_json() {
        type C = Col<(&'static str, u64, f64)>;
        const COLS: &[C] = &[
            C::new("config", "config", |r| r.0.to_string()),
            C::json("count", |r| r.1.to_string()),
            C::new("ratio", "ratio", |r| f2(r.2)).csv(|r| format!("{:.4}", r.2)),
            C::new("", "n", |r| r.1.to_string()).and_json("n", |r| r.1.to_string()),
            C::new("share", "", |r| pct(r.2)).and_json("share", |r| format!("{:.6}", r.2)),
        ];
        let mut table = Table::new(COLS);
        table.rows = vec![("a", 3, 0.5), ("b", 4, 0.25)];
        let (head, rows) = table.render(|c| c.text);
        assert_eq!(head, ["config", "ratio", "share"]);
        assert_eq!(rows[1], ["b", "0.25", "25.0%"]);

        let dir = std::env::temp_dir().join(format!("dharma-table-{}", std::process::id()));
        let out = dir.to_str().unwrap();
        table.write_csv(out, "t", "t.csv");
        let csv = std::fs::read_to_string(dir.join("t/t.csv")).unwrap();
        assert_eq!(csv, "config,ratio,n\na,0.5000,3\nb,0.2500,4\n");
        table.write_json(out, "t", "t.json", true, 7, |r| r.0);
        let json = std::fs::read_to_string(dir.join("t/t.json")).unwrap();
        let a =
            "    \"a\": {\n      \"count\": 3,\n      \"n\": 3,\n      \"share\": 0.500000\n    }";
        assert!(
            json.starts_with("{\n  \"experiment\": \"t\",\n  \"smoke\": true,\n  \"seed\": 7,\n"),
            "{json}"
        );
        assert!(json.contains(a), "{json}");
        assert!(json.ends_with("\n  }\n}\n"), "{json}");
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
