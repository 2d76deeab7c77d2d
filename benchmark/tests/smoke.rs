//! Smoke runs of the real binary at `--ops-scale 0.01`: small graphs, a
//! fraction of a second each, the same checks as a full run.

use dkbench::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["hot-point", "cold-walk", "cold-validate", "mixed-adapt"];

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one smoke run and return the contract's result object.
fn smoke(test: &str, workload: &str, seed: u64, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_dkbench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seconds",
            "15",
            "--ops-scale",
            "0.01",
        ])
        .args([
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out_dir(test).join(format!("{workload}-{seed}-{trace}")))
        .output()
        .unwrap();
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    result
}

fn value(result: &Json, metric: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no metric {metric}"))
}

fn metric_names(result: &Json) -> Vec<String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// The names BENCHMARK.json lists under `key`, in its order.
fn spec_names(key: &str) -> Vec<String> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let spec = json::parse(&text).unwrap();
    spec.get(key)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

#[test]
fn the_same_seed_repeats_every_count_and_another_seed_does_not() {
    let test = "repeat";
    for workload in WORKLOADS {
        let first = smoke(test, workload, 2003, false);
        let again = smoke(test, workload, 2003, false);
        let other = smoke(test, workload, 2004, false);
        assert_eq!(metric_names(&first), spec_names("end_to_end"), "{workload}");
        let counts = |r: &Json| (value(r, "visits_per_query"), value(r, "index_blocks"));
        assert_eq!(
            counts(&first),
            counts(&again),
            "{workload}: same seed, different counts"
        );
        assert_ne!(
            counts(&first),
            counts(&other),
            "{workload}: the seed does not reach the inputs"
        );
        for metric in spec_names("end_to_end") {
            assert!(
                value(&first, &metric) > 0.0,
                "{workload} {metric} must never be 0"
            );
        }
    }
}

#[test]
fn a_traced_run_reports_every_layer_and_each_workload_idles_the_layers_it_controls_for() {
    let test = "traced";
    for workload in WORKLOADS {
        let result = smoke(test, workload, 2003, true);
        assert_eq!(metric_names(&result), spec_names("per_layer"), "{workload}");
        assert_eq!(value(&result, "failed_share"), 0.0, "{workload}");
        for timing in [
            "core.eval.sound_us",
            "core.eval.validated_us",
            "core.dk.promote_ms",
            "core.wal.fsync_us",
        ] {
            assert!(
                value(&result, timing) > 0.0,
                "{workload} {timing} has no sample"
            );
        }
        match workload {
            "hot-point" => {
                assert_eq!(value(&result, "core.serve.memo_hit_share"), 1.0);
                assert_eq!(value(&result, "core.eval.index_visits_per_query"), 0.0);
                assert_eq!(value(&result, "core.eval.data_visits_per_query"), 0.0);
            }
            "cold-walk" => {
                assert_eq!(value(&result, "core.serve.memo_hit_share"), 0.0);
                assert_eq!(value(&result, "core.eval.validated_share"), 0.0);
                assert!(value(&result, "core.eval.index_visits_per_query") > 100.0);
            }
            "cold-validate" => {
                assert!(value(&result, "core.eval.validated_share") > 0.5);
                assert!(value(&result, "core.eval.index_visits_per_query") < 10.0);
                assert!(value(&result, "core.eval.data_visits_per_query") > 100.0);
            }
            _ => {
                assert_eq!(value(&result, "core.serve.memo_hit_share"), 0.0);
                assert!(value(&result, "update_p50_us") > 0.0);
                assert!(value(&result, "core.dk.add_edge_touched") > 0.0);
            }
        }
        let trace = out_dir(test).join(format!("{workload}-2003-true/trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(trace).unwrap();
        let first = json::parse(spans.lines().next().unwrap()).unwrap();
        for key in ["name", "start_ns", "end_ns", "self_ns", "parent", "request"] {
            assert!(first.get(key).is_some(), "span line lacks {key}");
        }
    }
}

#[test]
fn diff_exits_non_zero_only_on_a_regression_beyond_the_bound() {
    let dir = out_dir("diff");
    let file = |name: &str, op_per_s: f64| {
        let runs = (0..3)
            .map(|seed| {
                format!(
                    r#"{{"workload": "hot-point", "seed": {seed}, "trace": false,
                        "metrics": {{"op_per_s": {{"value": {}, "unit": "1/s"}}}}}}"#,
                    op_per_s + seed as f64
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let path = dir.join(name);
        std::fs::write(&path, format!(r#"{{"runs": [{runs}]}}"#)).unwrap();
        path
    };
    let (old, same, slower) = (
        file("old.json", 100_000.0),
        file("same.json", 99_000.0),
        file("slow.json", 50_000.0),
    );
    let diff = |new: &PathBuf| {
        Command::new(env!("CARGO_BIN_EXE_dkbench"))
            .arg("diff")
            .args([&old, new])
            .args([
                "--spec",
                concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"),
            ])
            .output()
            .unwrap()
    };
    assert!(diff(&same).status.success());
    let regressed = diff(&slower);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regressed.stdout).contains("Regressed"));
}
