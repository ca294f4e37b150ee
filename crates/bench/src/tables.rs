//! Plain-text table rendering for the experiment binaries.

/// A simple column-aligned text table, printed to stdout by the experiment
/// binaries in the same layout as the paper's tables.
#[derive(Debug, Clone, Default)]
pub struct TableWriter {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// Creates a table with a title line.
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            header: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the column headers.
    pub fn header<I, S>(&mut self, columns: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = columns.into_iter().map(Into::into).collect();
        self
    }

    /// Appends one row.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let n_cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; n_cols];
        let all_rows = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("=== {} ===\n", self.title));
        let format_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, cell)| format!("{:<width$}", cell, width = widths[i] + 2))
                .collect::<String>()
                .trim_end()
                .to_string()
        };
        if !self.header.is_empty() {
            out.push_str(&format_row(&self.header));
            out.push('\n');
            out.push_str(&"-".repeat(widths.iter().map(|w| w + 2).sum::<usize>().max(4)));
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&format_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_header_and_rows() {
        let mut t = TableWriter::new("Table X");
        t.header(["#", "Query", "Value"]);
        t.row(["1", "Obama", "176"]);
        t.row(["2", "financial crisis", "113"]);
        let s = t.render();
        assert!(s.contains("=== Table X ==="));
        assert!(s.contains("Query"));
        assert!(s.contains("financial crisis"));
        // Columns are aligned: both data rows have the number at the same
        // byte offset as the header.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn handles_empty_table() {
        let t = TableWriter::new("Empty");
        let s = t.render();
        assert!(s.contains("Empty"));
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let mut t = TableWriter::new("Ragged");
        t.header(["a", "b"]);
        t.row(["1", "2", "3"]);
        t.row(["only"]);
        assert!(t.render().contains("only"));
    }
}
