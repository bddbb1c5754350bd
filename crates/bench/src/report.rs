//! The one emitter behind every rows-of-numbers figure: the same
//! [`Report`] renders as the aligned text table or as the `--json`
//! document, so a figure states its title, columns, rows, cell format and
//! trailing note once.

use crate::harness::jsonio::Json;
use bfetch_stats::Table;

/// One figure row: a label and one value per column.
pub type Row = (String, Vec<f64>);

/// Three decimals: the cell format of every speedup table.
pub fn fixed3(_column: usize, v: f64) -> String {
    format!("{v:.3}")
}

/// An empty text table with the given column headers.
pub(crate) fn table<'a>(headers: impl IntoIterator<Item = &'a str>) -> Table {
    Table::new(headers.into_iter().map(String::from).collect())
}

/// A titled table of `f64` rows.
pub struct Report {
    title: String,
    key: &'static str,
    headers: Vec<String>,
    rows: Vec<Row>,
    cell: fn(usize, f64) -> String,
    note: String,
}

impl Report {
    /// A report whose first line is `title` (printed verbatim; empty for
    /// none), whose label column is headed `key`, and whose cells print
    /// with three decimals.
    pub fn new<H: Into<String>>(
        title: impl Into<String>,
        key: &'static str,
        headers: impl IntoIterator<Item = H>,
        rows: Vec<Row>,
    ) -> Self {
        Self {
            title: title.into(),
            key,
            headers: headers.into_iter().map(Into::into).collect(),
            rows,
            cell: fixed3,
            note: String::new(),
        }
    }

    /// Formats the value in column `i` with `cell(i, value)` instead.
    pub fn cell(mut self, cell: fn(usize, f64) -> String) -> Self {
        self.cell = cell;
        self
    }

    /// Text printed verbatim right after the table (text mode only).
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The `--json` rendering ([`rows_to_json`]).
    pub fn to_json(&self) -> String {
        rows_to_json(&self.headers, &self.rows)
    }

    /// The text rendering: title line, aligned table, note.
    pub fn to_text(&self) -> String {
        let mut t = table(std::iter::once(self.key).chain(self.headers.iter().map(String::as_str)));
        for (name, vals) in &self.rows {
            t.row(
                std::iter::once(name.clone())
                    .chain(vals.iter().enumerate().map(|(i, &v)| (self.cell)(i, v)))
                    .collect(),
            );
        }
        let title = if self.title.is_empty() { String::new() } else { format!("{}\n", self.title) };
        format!("{title}{t}{}", self.note)
    }

    /// Prints the report to stdout: the JSON document under `--json`,
    /// the text rendering otherwise.
    pub fn emit(&self, json: bool) {
        if json {
            println!("{}", self.to_json());
        } else {
            print!("{}", self.to_text());
        }
    }
}

/// Renders figure rows as machine-readable JSON for `--json` mode:
/// `{"headers": [...], "rows": [{"name": ..., "values": [...]}, ...]}`.
pub fn rows_to_json<H: AsRef<str>, S: AsRef<str>>(headers: &[H], rows: &[(S, Vec<f64>)]) -> String {
    let doc = Json::Obj(vec![
        (
            "headers".into(),
            Json::Arr(headers.iter().map(|h| Json::Str(h.as_ref().to_string())).collect()),
        ),
        (
            "rows".into(),
            Json::Arr(
                rows.iter()
                    .map(|(name, vals)| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(name.as_ref().to_string())),
                            (
                                "values".into(),
                                Json::Arr(vals.iter().map(|&v| Json::f64_of(v)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    doc.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let rows = vec![("a".to_string(), vec![1.0, 0.25]), ("bb".to_string(), vec![2.5, 0.5])];
        Report::new("== T ==", "key", ["x", "pct"], rows)
    }

    #[test]
    fn text_is_title_table_note_with_per_column_cells() {
        let text = report()
            .cell(|i, v| if i == 1 { format!("{:.0}%", 100.0 * v) } else { fixed3(i, v) })
            .note("\nnote\n")
            .to_text();
        let lines: Vec<&str> = text.lines().map(str::trim_end).collect();
        assert_eq!(lines[0], "== T ==");
        assert_eq!(lines[1], "key  x      pct");
        assert_eq!(lines[3], "a    1.000  25%");
        assert_eq!(lines[4], "bb   2.500  50%");
        assert_eq!(&lines[5..], ["", "note"]);
    }

    #[test]
    fn an_empty_title_prints_no_line() {
        let mut r = report();
        r.title.clear();
        assert!(r.to_text().starts_with("key"));
    }

    #[test]
    fn json_carries_headers_and_full_precision_rows() {
        let doc = Json::parse(&report().to_json()).expect("valid json");
        let Some(Json::Arr(headers)) = doc.get("headers") else { panic!("no headers") };
        assert_eq!(headers.len(), 2);
        let Some(Json::Arr(rows)) = doc.get("rows") else { panic!("no rows") };
        assert_eq!(rows[1].get("name").and_then(Json::as_str), Some("bb"));
        let Some(Json::Arr(vals)) = rows[0].get("values") else { panic!("no values") };
        assert_eq!(vals[1].as_f64(), Some(0.25));
    }
}
