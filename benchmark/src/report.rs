//! Result files, the benchmark's specification (`BENCHMARK.json`), and the
//! comparison of two sets of runs against its bounds — shared by `dkbench aa`
//! (the same code twice) and `dkbench diff` (two result files).

use crate::json::{self, Json};
use crate::stats;
use crate::BenchResult;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics that are counts made by the program: two runs on the
/// same inputs must report them bit for bit.
pub const EXACT: [&str; 2] = ["visits_per_query", "index_blocks"];

/// An A/A gap above this share of a metric's bound means the metric is too
/// unsteady to gate and belongs in the per-layer list.
pub const STEADY_SHARE_OF_BOUND: f64 = 0.6;

pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the old median by which the metric may get worse.
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
}

impl Spec {
    pub fn load(path: &Path) -> BenchResult<Spec> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> BenchResult<Spec> {
        let root = json::parse(text)?;
        let list = |key: &str| -> BenchResult<&[Json]> {
            Ok(root
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?)
        };
        let name_of = |entry: &Json| -> BenchResult<String> {
            Ok(entry
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a BENCHMARK.json entry has no name")?
                .to_string())
        };
        let mut end_to_end = Vec::new();
        for entry in list("end_to_end")? {
            let better = entry
                .get("better")
                .and_then(Json::as_str)
                .ok_or("an end_to_end metric has no better")?;
            end_to_end.push(MetricSpec {
                name: name_of(entry)?,
                lower_is_better: better == "lower",
                bound: entry
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("an end_to_end metric has no bound")?,
            });
        }
        Ok(Spec {
            run_seconds: root
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json has no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(name_of)
                .collect::<BenchResult<_>>()?,
            end_to_end,
        })
    }
}

/// One run as a result file records it.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    pub fn from_json(run: &Json) -> Option<RunRecord> {
        let metrics = run
            .get("metrics")?
            .as_obj()?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Some(RunRecord {
            workload: run.get("workload")?.as_str()?.to_string(),
            seed: run.get("seed")?.as_f64()? as u64,
            metrics,
        })
    }
}

/// The gated runs (`"trace": false`) of a result file's `runs` list.
pub fn gated_runs(file: &Json) -> BenchResult<Vec<RunRecord>> {
    let runs = file
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("the result file has no runs list")?;
    Ok(runs
        .iter()
        .filter(|run| run.get("trace").and_then(Json::as_bool) == Some(false))
        .filter_map(RunRecord::from_json)
        .collect())
}

#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    Within,
    /// Worse than the old median by more than the bound.
    Regressed,
    /// Within the bound, but an A/A gap this large leaves too little of it.
    Unsteady,
    /// A count differs between two runs on the same seed.
    NotExact,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub old_median: f64,
    pub new_median: f64,
    /// How much worse the new median is, as a share of the old one; negative
    /// when it is better.
    pub worse_by: f64,
    pub bound: f64,
    /// Interquartile distance over the median of each side's runs, the way
    /// the benchmark contract takes it; `None` for fewer than two runs.
    pub old_spread: Option<f64>,
    pub new_spread: Option<f64>,
    pub verdict: Verdict,
}

impl Row {
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("metric", Json::str(&self.metric)),
            ("old_median", Json::Num(self.old_median)),
            ("new_median", Json::Num(self.new_median)),
            ("worse_by", Json::Num(self.worse_by)),
            ("bound", Json::Num(self.bound)),
            ("old_spread", opt(self.old_spread)),
            ("new_spread", opt(self.new_spread)),
            ("verdict", Json::str(format!("{:?}", self.verdict))),
        ])
    }
}

/// Compare `new` against `old`, metric by metric and workload by workload.
/// With `same_code`, the two sides are runs of one program on the same
/// seeds: exact metrics must then agree run for run, and a gap above
/// [`STEADY_SHARE_OF_BOUND`] of the bound is flagged.
pub fn compare(spec: &Spec, old: &[RunRecord], new: &[RunRecord], same_code: bool) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        let of = |runs: &[RunRecord], metric: &str| -> Vec<(u64, f64)> {
            runs.iter()
                .filter(|r| &r.workload == workload)
                .filter_map(|r| Some((r.seed, *r.metrics.get(metric)?)))
                .collect()
        };
        for m in &spec.end_to_end {
            let (old_runs, new_runs) = (of(old, &m.name), of(new, &m.name));
            let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<f64>>();
            let (old_values, new_values) = (values(&old_runs), values(&new_runs));
            let (Some(old_median), Some(new_median)) =
                (stats::median(&old_values), stats::median(&new_values))
            else {
                continue;
            };
            let change = (new_median - old_median) / old_median.abs();
            let worse_by = if m.lower_is_better { change } else { -change };
            let exact_differs = same_code
                && EXACT.contains(&m.name.as_str())
                && old_runs.iter().any(|(seed, value)| {
                    new_runs
                        .iter()
                        .any(|(other, new_value)| seed == other && value != new_value)
                });
            let verdict = if exact_differs {
                Verdict::NotExact
            } else if worse_by > m.bound {
                Verdict::Regressed
            } else if same_code && worse_by.abs() > STEADY_SHARE_OF_BOUND * m.bound {
                Verdict::Unsteady
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                old_median,
                new_median,
                worse_by,
                bound: m.bound,
                old_spread: stats::quartile_spread(&old_values),
                new_spread: stats::quartile_spread(&new_values),
                verdict,
            });
        }
    }
    rows
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "old median", "new median", "worse by", "bound", "spread", "spread"
    );
    let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.2}%", v * 100.0));
    for row in rows {
        println!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {:>8} {:>8}  {:?}",
            row.workload,
            row.metric,
            row.old_median,
            row.new_median,
            row.worse_by * 100.0,
            row.bound * 100.0,
            pct(row.old_spread),
            pct(row.new_spread),
            row.verdict
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["bash", "benchmark/run.sh"], "paths": ["benchmark"], "run_seconds": 15,
        "workloads": [{"name": "hot-point", "why": "x"}],
        "end_to_end": [
            {"name": "op_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "query_p50_us", "unit": "us", "better": "lower", "bound": 0.1},
            {"name": "visits_per_query", "unit": "count", "better": "lower", "bound": 0.1}
        ],
        "per_layer": [{"name": "core.eval.new_us", "unit": "us", "better": "lower"}]
    }"#;

    fn run(seed: u64, op_per_s: f64, p50: f64, visits: f64) -> RunRecord {
        let metrics = [
            ("op_per_s", op_per_s),
            ("query_p50_us", p50),
            ("visits_per_query", visits),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        RunRecord {
            workload: "hot-point".to_string(),
            seed,
            metrics,
        }
    }

    fn verdict_of<'a>(rows: &'a [Row], metric: &str) -> &'a Verdict {
        &rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let spec = Spec::parse(SPEC).unwrap();
        let old = [
            run(1, 100.0, 10.0, 5.0),
            run(2, 102.0, 10.2, 5.0),
            run(3, 98.0, 9.8, 5.0),
        ];
        // Throughput down 20 %, latency down 20 %: only the first is worse.
        let new = [
            run(1, 80.0, 8.0, 5.0),
            run(2, 81.0, 8.1, 5.0),
            run(3, 79.0, 7.9, 5.0),
        ];
        let rows = compare(&spec, &old, &new, false);
        assert_eq!(verdict_of(&rows, "op_per_s"), &Verdict::Regressed);
        assert_eq!(verdict_of(&rows, "query_p50_us"), &Verdict::Within);
        let p50 = rows.iter().find(|r| r.metric == "query_p50_us").unwrap();
        assert!((p50.worse_by + 0.2).abs() < 1e-9);
    }

    #[test]
    fn same_code_runs_must_agree_on_counts_and_leave_most_of_the_bound() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = [run(1, 100.0, 10.0, 5.0), run(2, 100.0, 10.0, 6.0)];
        let same = compare(&spec, &a, &a.clone(), true);
        assert!(same.iter().all(|r| r.verdict == Verdict::Within));
        // A different count on seed 2, and a 7 % throughput gap on a 10 % bound.
        let b = [run(1, 93.0, 10.0, 5.0), run(2, 93.0, 10.0, 6.5)];
        let rows = compare(&spec, &a, &b, true);
        assert_eq!(verdict_of(&rows, "visits_per_query"), &Verdict::NotExact);
        assert_eq!(verdict_of(&rows, "op_per_s"), &Verdict::Unsteady);
        // The same two files from different code: counts may move, within bound.
        let rows = compare(&spec, &a, &b, false);
        assert_eq!(verdict_of(&rows, "visits_per_query"), &Verdict::Within);
        assert_eq!(verdict_of(&rows, "op_per_s"), &Verdict::Within);
    }

    #[test]
    fn result_files_round_trip_through_json() {
        let file = json::parse(
            r#"{"runs": [
                {"workload": "hot-point", "seed": 7, "trace": false,
                 "metrics": {"op_per_s": {"value": 5.5, "unit": "1/s"}}},
                {"workload": "hot-point", "seed": 7, "trace": true, "metrics": {}}
            ]}"#,
        )
        .unwrap();
        let runs = gated_runs(&file).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!((runs[0].seed, runs[0].metrics["op_per_s"]), (7, 5.5));
    }
}
