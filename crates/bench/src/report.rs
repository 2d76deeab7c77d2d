//! Rendering for the experiment harness: every result states its rows once
//! as [`Rows`], and the functions here are the only ways they reach the
//! console or a JSON document, so the two cannot drift apart.

/// One result's rows, stated once: `(key, value as a JSON literal)`.
pub type Rows = Vec<(&'static str, String)>;

/// `name: key value | key value | …` — the console line for one result.
pub fn rows_line(name: &str, rows: &Rows) -> String {
    let cells: Vec<String> = rows.iter().map(|(k, v)| format!("{k} {v}")).collect();
    format!("{name}: {}", cells.join(" | "))
}

/// The JSON object for one result: on one line when `indent` is 0 (an
/// array element), otherwise one row per line at `indent` spaces.
pub fn rows_json(rows: &Rows, indent: usize) -> String {
    let cells: Vec<String> = rows.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    if indent == 0 {
        return format!("{{ {} }}", cells.join(", "));
    }
    let pad = " ".repeat(indent);
    format!("{{\n{pad}{}\n{}}}", cells.join(&format!(",\n{pad}")), &pad[2..])
}

/// A JSON array of one-line row objects, one per line at `indent` spaces.
pub fn rows_json_array(rows: &[Rows], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let items: Vec<String> = rows.iter().map(|r| format!("{pad}{}", rows_json(r, 0))).collect();
    format!("[\n{}\n{}]", items.join(",\n"), &pad[2..])
}

/// The aligned (Markdown) table of a list of rows: the first row's keys are
/// the headers, and a JSON string cell loses its quotes. Generic over the
/// key type so that rows read back from a JSON document render identically.
pub fn rows_table<K: AsRef<str>>(rows: &[Vec<(K, String)>]) -> String {
    let headers: Vec<&str> = rows.first().map_or(Vec::new(), |r| r.iter().map(|(k, _)| k.as_ref()).collect());
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    let cells: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(|(_, v)| v.trim_matches('"')).collect())
        .collect();
    for row in &cells {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[&str]| {
        let padded: Vec<String> = cells.iter().zip(&widths).map(|(c, w)| format!(" {c:w$} ")).collect();
        format!("|{}|\n", padded.join("|"))
    };
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    let mut out = line(&headers) + &format!("|{}|\n", rule.join("|"));
    for row in &cells {
        out += &line(row);
    }
    out
}

/// One titled table of a record: `key` names it in the JSON document,
/// `title` heads its [`rows_table`] on the console.
#[derive(Clone, Debug)]
pub struct Table {
    /// JSON key, e.g. `figure_before`.
    pub key: &'static str,
    /// Console heading.
    pub title: String,
    /// The rows, stated once.
    pub rows: Vec<Rows>,
}

/// A JSON string literal for a name (names carry no quotes or backslashes).
pub fn quoted(name: &str) -> String {
    format!("\"{name}\"")
}

/// Format a float with limited precision for table cells.
pub fn fmt_f64(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_as_line_json_and_table() {
        let rows: Rows = vec![("blocks", "612".into()), ("deterministic", "true".into())];
        assert_eq!(rows_line("churn", &rows), "churn: blocks 612 | deterministic true");
        assert_eq!(rows_json(&rows, 0), "{ \"blocks\": 612, \"deterministic\": true }");
        assert_eq!(
            rows_json(&rows, 4),
            "{\n    \"blocks\": 612,\n    \"deterministic\": true\n  }"
        );
        let rows: Vec<Rows> = vec![
            vec![("index", quoted("A(0)")), ("size", "71".into())],
            vec![("index", quoted("D(k)")), ("size", "12345".into())],
        ];
        assert_eq!(
            rows_json_array(&rows, 4),
            "[\n    { \"index\": \"A(0)\", \"size\": 71 },\n    { \"index\": \"D(k)\", \"size\": 12345 }\n  ]"
        );
        assert_eq!(
            rows_table(&rows),
            "| index | size  |\n|-------|-------|\n| A(0)  | 71    |\n| D(k)  | 12345 |\n"
        );
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        rows_table(&[vec![("a", "1".to_string()), ("b", "2".into())], vec![("a", "only one".into())]]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.44159), "3.4");
        assert_eq!(fmt_f64(12345.6), "12346");
    }
}
