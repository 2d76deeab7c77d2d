//! Plain-text table rendering for the experiment harness.

/// Render an aligned table; `headers.len()` must match every row's length.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: Vec<&str>| {
        for (i, cell) in cells.iter().enumerate() {
            out.push_str("| ");
            out.push_str(cell);
            out.push_str(&" ".repeat(widths[i] - cell.len() + 1));
        }
        out.push_str("|\n");
    };
    line(&mut out, headers.to_vec());
    for w in &widths {
        out.push('|');
        out.push_str(&"-".repeat(w + 2));
    }
    out.push_str("|\n");
    for row in rows {
        line(&mut out, row.iter().map(String::as_str).collect());
    }
    out
}

/// One gate result's rows, stated once: `(key, value as a JSON literal)`.
/// [`rows_line`] and [`rows_json`] are the only two renderings, so the
/// console line and the `BENCH_eval.json` object cannot drift apart.
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
    fn table_is_aligned() {
        let t = render_table(
            &["index", "size"],
            &[
                vec!["A(0)".into(), "5".into()],
                vec!["D(k)".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let len = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == len));
        assert!(lines[1].chars().all(|c| c == '|' || c == '-'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["only one".into()]]);
    }

    #[test]
    fn rows_render_as_line_and_json() {
        let rows: Rows = vec![("blocks", "612".into()), ("deterministic", "true".into())];
        assert_eq!(rows_line("churn", &rows), "churn: blocks 612 | deterministic true");
        assert_eq!(rows_json(&rows, 0), "{ \"blocks\": 612, \"deterministic\": true }");
        assert_eq!(
            rows_json(&rows, 4),
            "{\n    \"blocks\": 612,\n    \"deterministic\": true\n  }"
        );
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(3.44159), "3.4");
        assert_eq!(fmt_f64(12345.6), "12346");
    }
}
