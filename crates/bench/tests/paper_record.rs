//! The paper record and its documents: EXPERIMENTS.md quotes every table of
//! the checked-in `PAPER_eval.json` exactly as `reproduce` renders it, and
//! THEORY.md quotes ablation A's wrong-answer counts. `make verify-record`
//! checks the other side: `reproduce all` still writes that file.

use dkindex_bench::report::rows_table;
use std::process::Command;

const RECORD: &str = include_str!("../../../PAPER_eval.json");
const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const THEORY: &str = include_str!("../../../THEORY.md");

type Rows = Vec<(String, String)>;

/// `("dataset.table", rows)` for every table of the record, read from the
/// layout `experiments::record_json` writes: `"xmark": {` opens a dataset,
/// `"key": [` a table, and each row object sits on its own line.
fn record_tables() -> Vec<(String, Vec<Rows>)> {
    let mut tables: Vec<(String, Vec<Rows>)> = Vec::new();
    let mut dataset = "";
    for line in RECORD.lines().map(str::trim) {
        let key = line.strip_prefix('"');
        if let Some(name) = key.and_then(|l| l.strip_suffix("\": {")) {
            dataset = name;
        } else if let Some(name) = key.and_then(|l| l.strip_suffix("\": [")) {
            tables.push((format!("{dataset}.{name}"), Vec::new()));
        } else if let Some(row) = line.trim_end_matches(',').strip_prefix("{ \"") {
            let row = row.strip_suffix(" }").expect("a row object on one line");
            let cells = row
                .split(", \"")
                .map(|cell| {
                    let (k, v) = cell.split_once("\": ").expect("a \"key\": value cell");
                    (k.to_string(), v.to_string())
                })
                .collect();
            tables.last_mut().expect("a row inside a table").1.push(cells);
        }
    }
    tables
}

fn cell<'a>(rows: &'a Rows, key: &str) -> &'a str {
    &rows.iter().find(|(k, _)| k == key).expect("a cell the record writes").1
}

#[test]
fn experiments_quotes_every_table_of_the_record() {
    let tables = record_tables();
    assert_eq!(tables.len(), 20, "ten tables per dataset");
    let lines: Vec<&str> = EXPERIMENTS.lines().collect();
    let mut quoted: Vec<&str> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(name) = line.strip_prefix("<!-- record: ").and_then(|l| l.strip_suffix(" -->")) else {
            continue;
        };
        let Some((_, rows)) = tables.iter().find(|(n, _)| n == name) else {
            panic!("EXPERIMENTS.md quotes {name}, which PAPER_eval.json lacks");
        };
        let table: String = lines[i + 1..]
            .iter()
            .take_while(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(table, rows_table(rows), "EXPERIMENTS.md's {name} is not the record's rendering");
        quoted.push(name);
    }
    for (name, _) in &tables {
        let times = quoted.iter().filter(|q| *q == name).count();
        assert_eq!(times, 1, "EXPERIMENTS.md quotes {name} {times} times, not once");
    }
}

#[test]
fn theory_quotes_the_ablation_a_figures() {
    let tables = record_tables();
    let wrong = |dataset: &str| {
        let name = format!("{dataset}.ablation_broadcast");
        let rows = &tables.iter().find(|(n, _)| *n == name).expect("ablation A in the record").1[0];
        format!("{}/{}", cell(rows, "wrong_answers"), cell(rows, "queries"))
    };
    let phrase = format!("{} wrong answers on Xmark, {} on Nasa", wrong("xmark"), wrong("nasa"));
    assert!(THEORY.contains(&phrase), "THEORY.md must quote ablation A as \"{phrase}\"");
}

/// Ablation B's rebuild beside Algorithm 6: EXPERIMENTS.md quotes both
/// costs on both datasets, and the record's rebuild is the smaller, cheaper
/// index (the check's clause, read back from the checked-in file).
#[test]
fn experiments_quotes_the_rebuild_beside_the_promotion() {
    let tables = record_tables();
    let row = |dataset: &str| {
        let name = format!("{dataset}.ablation_promote");
        tables.iter().find(|(n, _)| *n == name).expect("ablation B in the record").1[0].clone()
    };
    let (xmark, nasa) = (row("xmark"), row("nasa"));
    let number = |rows: &Rows, key: &str| cell(rows, key).parse::<f64>().expect("a number");
    for rows in [&xmark, &nasa] {
        assert!(number(rows, "size_rebuilt") <= number(rows, "size_after"));
        assert!(number(rows, "cost_rebuilt") <= number(rows, "cost_after"));
    }
    let costs = |rows: &Rows| format!("{} vs {}", cell(rows, "cost_after"), cell(rows, "cost_rebuilt"));
    let phrase = format!("({}; {})", costs(&xmark), costs(&nasa));
    assert!(EXPERIMENTS.contains(&phrase), "EXPERIMENTS.md must quote ablation B as \"{phrase}\"");
}

/// Ablation E, §5.4 beside the rebuild: every number EXPERIMENTS.md quotes
/// from the two rows — the fresh index's size and cost, the updated one's
/// costs and validated counts and their ratios — is the record's, and the
/// record reads as the prose says (equal when fresh; after the updates
/// smaller, costlier and validating more).
#[test]
fn experiments_quotes_the_demote_beside_the_rebuild() {
    let tables = record_tables();
    let rows = |dataset: &str| {
        let name = format!("{dataset}.ablation_demote");
        let rows = &tables.iter().find(|(n, _)| *n == name).expect("ablation E in the record").1;
        let [fresh, updated] = &rows[..] else { panic!("{name}: two rows, 0 and 100 updates") };
        (fresh.clone(), updated.clone())
    };
    let ((x0, x), (n0, n)) = (rows("xmark"), rows("nasa"));
    let number = |rows: &Rows, key: &str| cell(rows, key).parse::<f64>().expect("a number");
    for rows in [&x0, &n0] {
        assert_eq!(cell(rows, "same_blocks"), "true");
        assert_eq!(cell(rows, "cost_demoted"), cell(rows, "cost_rebuilt"));
    }
    for rows in [&x, &n] {
        assert_eq!(cell(rows, "same_blocks"), "false");
        assert!(number(rows, "size_demoted") < number(rows, "size_rebuilt"));
        assert!(number(rows, "cost_demoted") > number(rows, "cost_rebuilt"));
        assert!(number(rows, "validated_demoted") > number(rows, "validated_rebuilt"));
    }
    let fresh = format!(
        "at {} blocks costing {} on Xmark and {} costing {} on Nasa",
        cell(&x0, "size_rebuilt"),
        cell(&x0, "cost_rebuilt"),
        cell(&n0, "size_rebuilt"),
        cell(&n0, "cost_rebuilt")
    );
    let ratio = |rows: &Rows, what: &str| {
        let (demoted, rebuilt) = (format!("{what}_demoted"), format!("{what}_rebuilt"));
        format!("{:.1}×", number(rows, &demoted) / number(rows, &rebuilt))
    };
    let ratios = format!(
        "costs {} (Xmark) and {} (Nasa) as much per query and validates {} and {} as many queries",
        ratio(&x, "cost"),
        ratio(&n, "cost"),
        ratio(&x, "validated"),
        ratio(&n, "validated")
    );
    let pair = |rows: &Rows, what: &str| {
        let (demoted, rebuilt) = (format!("{what}_demoted"), format!("{what}_rebuilt"));
        format!("{} vs {}", cell(rows, &demoted), cell(rows, &rebuilt))
    };
    let updated = format!(
        "({} and {} on Xmark; {} and {} on Nasa)",
        pair(&x, "cost"),
        pair(&x, "validated"),
        pair(&n, "cost"),
        pair(&n, "validated")
    );
    // The prose wraps anywhere: compare with every run of whitespace as one
    // space.
    let prose = EXPERIMENTS.split_whitespace().collect::<Vec<_>>().join(" ");
    for phrase in [fresh, ratios, updated] {
        assert!(prose.contains(&phrase), "EXPERIMENTS.md must quote ablation E as \"{phrase}\"");
    }
}

#[test]
fn a_scale_that_is_not_finite_and_positive_is_a_usage_error() {
    // `inf` is left to the unit test: a regression would allocate without bound.
    for scale in ["0", "-1", "NaN"] {
        let status = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["fig4", "--xmark-scale", scale])
            .output()
            .expect("reproduce runs")
            .status;
        assert_eq!(status.code(), Some(2), "--xmark-scale {scale}");
    }
}
