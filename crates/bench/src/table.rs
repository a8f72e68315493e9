//! Plain-text result tables, shared by the `experiments` binary and
//! EXPERIMENTS.md.

use ppd_obs::metrics::json_string;

/// A titled table with aligned columns.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (experiment id and anchor).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders as a JSON object (`{"title", "headers", "rows", "notes"}`)
    /// with `ppd-obs`'s string escaper, so the bench crate needs no
    /// JSON library.
    pub fn to_json(&self) -> String {
        let arr = |items: &[String]| {
            let cells: Vec<String> = items.iter().map(|s| json_string(s)).collect();
            format!("[{}]", cells.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| arr(r)).collect();
        format!(
            "{{\"title\":{},\"headers\":{},\"rows\":[{}],\"notes\":{}}}",
            json_string(&self.title),
            arr(&self.headers),
            rows.join(","),
            arr(&self.notes)
        )
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("| ");
            for (w, cell) in widths.iter().zip(cells) {
                line.push_str(&format!("{cell:<w$} | "));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}-|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("E0 demo", &["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("## E0 demo"));
        assert!(s.contains("| longer | 2"));
        assert!(s.contains("> a note"));
    }

    #[test]
    fn json_round_trips_specials() {
        let mut t = Table::new("E0 \"quoted\"", &["a"]);
        t.row(vec!["line\nbreak".into()]);
        t.note("back\\slash");
        let j = t.to_json();
        assert!(j.contains("\"E0 \\\"quoted\\\"\""));
        assert!(j.contains("\"line\\nbreak\""));
        assert!(j.contains("\"back\\\\slash\""));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
