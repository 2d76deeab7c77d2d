//! Fixture tests for the analyzer: each rule fires exactly once on the
//! `bad` tree, the justified `allowed` tree passes, a bare allow comment is
//! itself a finding, the `clean` tree has zero findings under a config
//! that scopes every rule onto it — and the real workspace is clean under
//! the repository rule tables, which is the regression gate for every
//! violation fixed in this PR.
//!
//! Fixture trees live in `crates/analyze/fixtures/<case>/crates/<crate>/`
//! as manifest-less mini-workspaces: `workspace::load_workspace` falls
//! back to directory names for crate names, so a bare `src/lib.rs` is a
//! complete fixture crate.

use dkindex_analyze::rules::{
    count_by_rule, stale_rows, BlockingSpec, ConsumeConfig, ForbiddenRef, GuardConfig, GuardSpec,
    MetricConfig, OracleSpec, RuleConfig, WireConfig,
};
use dkindex_analyze::workspace::load_workspace;
use dkindex_analyze::{analyze_workspace, analyze_workspace_with, default_config, Finding, RULES};
use std::path::{Path, PathBuf};

fn fixture_root(case: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(case)
}

/// The config the `bad` and `allowed` trees are analyzed under: every rule
/// scoped onto exactly one fixture crate.
fn fixture_config() -> RuleConfig {
    RuleConfig {
        determinism_scope: vec!["detcrate".into()],
        panic_scope: vec!["panicky".into()],
        oracles: vec![OracleSpec {
            module: "oracle".into(),
            oracle_for: "the fixture fast path".into(),
            forbidden: vec![
                ForbiddenRef::new(
                    "FastEngine",
                    "the oracle would be checking the engine against itself",
                ),
                ForbiddenRef::new(
                    "telemetry_stub",
                    "telemetry must not be able to perturb the baseline",
                ),
            ],
        }],
        unsafe_hygiene: true,
        guard: Some(GuardConfig {
            scope: vec!["guardy".into()],
            guards: vec![GuardSpec::new("write", true, "epoch RwLock write guard")],
            blocking: vec![BlockingSpec::new("sync_all", false, "fsync")],
        }),
        consume: Some(ConsumeConfig {
            scope: vec!["consumy".into()],
            producers: vec!["send".into()],
            ret_types: vec!["DurableAck".into()],
        }),
        wire: Some(WireConfig {
            protocol_module: "wirey".into(),
            encode_fns: vec!["opcode".into()],
            decode_fns: vec!["decode_body".into()],
            golden_test: "golden.rs".into(),
            protocol_doc: "PROTOCOL.md".into(),
            cli_module: "wirey::cli".into(),
            exit_code_fn: "exit_code".into(),
            operations_doc: "OPERATIONS.md".into(),
        }),
        metrics: Some(MetricConfig {
            registry_module: "metricy::registry".into(),
            registry_fns: vec!["counters".into()],
            architecture_doc: "ARCH.md".into(),
        }),
    }
}

fn finding_in<'a>(findings: &'a [Finding], rule: &str) -> &'a Finding {
    findings
        .iter()
        .find(|f| f.rule == rule)
        .unwrap_or_else(|| panic!("no {rule} finding in {findings:?}"))
}

#[test]
fn each_rule_fires_exactly_once_on_the_bad_tree() {
    let findings = analyze_workspace_with(&fixture_root("bad"), &fixture_config()).unwrap();
    let counts = count_by_rule(&findings);
    for rule in RULES {
        assert_eq!(
            counts[rule.id], 1,
            "rule {} should fire exactly once on the bad tree: {findings:?}",
            rule.id
        );
    }
    assert_eq!(findings.len(), RULES.len(), "no extra findings: {findings:?}");

    // Each finding lands in the fixture crate built to trigger it.
    let lands_in = [
        ("nondeterministic-iter", "detcrate"),
        ("oracle-purity", "oracle"),
        ("panic-path", "panicky"),
        ("unsafe-hygiene", "unsafety"),
        ("guard-discipline", "guardy"),
        ("must-consume", "consumy"),
        ("wire-totality", "wirey"),
        ("metric-coherence", "metricy"),
    ];
    for (rule, crate_dir) in lands_in {
        let f = finding_in(&findings, rule);
        let path = f.path.to_string_lossy();
        assert!(path.contains(crate_dir), "{rule} fired in {path}, expected {crate_dir}");
        // The printed form is the `file:line: rule-id: message` contract.
        assert!(f.to_string().contains(&format!(":{}: {rule}: ", f.line)), "{f}");
    }
}

#[test]
fn justified_allows_and_safety_comments_pass() {
    let findings = analyze_workspace_with(&fixture_root("allowed"), &fixture_config()).unwrap();
    assert!(findings.is_empty(), "justified tree must be clean: {findings:?}");
}

#[test]
fn a_bare_allow_comment_is_itself_a_finding() {
    let config = RuleConfig {
        panic_scope: vec!["panicky".into()],
        consume: Some(ConsumeConfig {
            scope: vec!["consumy".into()],
            producers: vec!["send".into()],
            ret_types: vec!["DurableAck".into()],
        }),
        ..RuleConfig::default()
    };
    let findings = analyze_workspace_with(&fixture_root("unjustified"), &config).unwrap();
    assert_eq!(findings.len(), 2, "{findings:?}");
    for (finding, rule) in findings.iter().zip(["must-consume", "panic-path"]) {
        assert_eq!(finding.rule, rule, "{findings:?}");
        assert!(
            finding.message.contains("requires a justification"),
            "{finding}"
        );
    }
}

/// Also the stale-row check: a table whose every row matches the tree has
/// none; one oracle row naming a module the tree does not provide — what a
/// renamed or deleted oracle leaves behind — is one `oracle-purity` finding.
#[test]
fn the_clean_tree_has_zero_findings_under_the_full_config() {
    let mut config = RuleConfig {
        determinism_scope: vec!["cleanc".into()],
        panic_scope: vec!["cleanc".into()],
        oracles: vec![OracleSpec {
            module: "cleanc".into(),
            oracle_for: "the fixture fast path".into(),
            forbidden: vec![ForbiddenRef::new(
                "FastEngine",
                "the oracle would be checking the engine against itself",
            )],
        }],
        unsafe_hygiene: true,
        guard: Some(GuardConfig {
            scope: vec!["cleanc".into()],
            guards: vec![GuardSpec::new("write", true, "epoch RwLock write guard")],
            blocking: vec![BlockingSpec::new("sync_all", false, "fsync")],
        }),
        consume: Some(ConsumeConfig {
            scope: vec!["cleanc".into()],
            producers: vec!["send".into()],
            ret_types: vec!["DurableAck".into()],
        }),
        wire: Some(WireConfig {
            protocol_module: "cleanc::protocol".into(),
            encode_fns: vec!["opcode".into()],
            decode_fns: vec!["decode_body".into()],
            golden_test: "golden.rs".into(),
            protocol_doc: "PROTOCOL.md".into(),
            cli_module: "cleanc::cli".into(),
            exit_code_fn: "exit_code".into(),
            operations_doc: "OPERATIONS.md".into(),
        }),
        metrics: Some(MetricConfig {
            registry_module: "cleanc::registry".into(),
            registry_fns: vec!["counters".into()],
            architecture_doc: "ARCH.md".into(),
        }),
    };
    let findings = analyze_workspace_with(&fixture_root("clean"), &config).unwrap();
    assert!(findings.is_empty(), "clean tree must have zero findings: {findings:?}");

    let files = load_workspace(&fixture_root("clean")).unwrap();
    assert!(stale_rows(&files, &config, Path::new("tables.rs")).is_empty());
    config.oracles.push(OracleSpec {
        module: "cleanc::renamed_away".into(),
        oracle_for: "nothing any more".into(),
        forbidden: Vec::new(),
    });
    let stale = stale_rows(&files, &config, Path::new("tables.rs"));
    assert_eq!(stale.len(), 1, "{stale:?}");
    let printed = stale[0].to_string();
    assert!(printed.starts_with("tables.rs:0: oracle-purity: "), "{printed}");
    assert!(printed.contains("`cleanc::renamed_away`"), "{printed}");

    // A cross-artifact rule looks its module up by exact name and checks
    // nothing when no file has it: the exit-code half of wire-totality
    // after `cli.rs` moved would be such a row.
    config.oracles.pop();
    config.wire.as_mut().unwrap().cli_module = "cleanc::cli::moved".into();
    let stale = stale_rows(&files, &config, Path::new("tables.rs"));
    assert_eq!(stale.len(), 1, "{stale:?}");
    let printed = stale[0].to_string();
    assert!(printed.starts_with("tables.rs:0: wire-totality: "), "{printed}");
    assert!(printed.contains("`cleanc::cli::moved`"), "{printed}");
}

/// The delta-epoch store modules (`dkindex_graph::segvec`,
/// `dkindex_core::block_store`) are inside the **repository** determinism
/// and panic scopes: a fixture tree mirroring their exact module paths,
/// seeded with one hash-order iteration and one panic path per module,
/// fires both rules in both modules under `default_config`. If the scope
/// tables lose those entries, this test fails before the real modules can
/// regress unchecked.
#[test]
fn store_modules_are_inside_the_repository_scopes() {
    let findings = analyze_workspace_with(&fixture_root("store"), &default_config()).unwrap();
    let counts = count_by_rule(&findings);
    assert_eq!(counts["nondeterministic-iter"], 2, "{findings:?}");
    assert_eq!(counts["panic-path"], 2, "{findings:?}");
    assert_eq!(findings.len(), 4, "no extra findings: {findings:?}");
    for module in ["segvec", "block_store"] {
        for rule in ["nondeterministic-iter", "panic-path"] {
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == rule && f.path.to_string_lossy().contains(module)),
                "{rule} did not fire in {module}: {findings:?}"
            );
        }
    }
}

/// The network wire modules (`dkindex_server::protocol`,
/// `dkindex_server::conn`) are inside the **repository** determinism and
/// panic scopes: a fixture tree mirroring their exact module paths, seeded
/// with one hash-order iteration and one panic path per module, fires both
/// rules in both modules under `default_config`. A frame codec that panics
/// on a malformed body or encodes in hash order would break the
/// wire-determinism contract (docs/PROTOCOL.md) silently; this test fails
/// first if the scope tables lose those entries.
#[test]
fn net_server_modules_are_inside_the_repository_scopes() {
    let findings = analyze_workspace_with(&fixture_root("netserver"), &default_config()).unwrap();
    let counts = count_by_rule(&findings);
    assert_eq!(counts["nondeterministic-iter"], 2, "{findings:?}");
    assert_eq!(counts["panic-path"], 2, "{findings:?}");
    assert_eq!(findings.len(), 4, "no extra findings: {findings:?}");
    for module in ["protocol", "conn"] {
        for rule in ["nondeterministic-iter", "panic-path"] {
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == rule && f.path.to_string_lossy().contains(module)),
                "{rule} did not fire in {module}: {findings:?}"
            );
        }
    }
}

/// The durability-layer modules (`dkindex_core::wal`,
/// `dkindex_core::io_fail`) are inside the **repository** determinism and
/// panic scopes: a fixture tree mirroring their exact module paths, seeded
/// with one hash-order iteration and one panic path per module, fires both
/// rules in both modules under `default_config`. A WAL that encodes in
/// hash order would make recovery replay a different op sequence than the
/// one acknowledged, and a panicking fail-point layer would crash the
/// torture harness instead of reporting a typed violation; this test
/// fails first if the scope tables lose those entries.
#[test]
fn wal_v2_and_io_fail_are_inside_the_repository_scopes() {
    let findings = analyze_workspace_with(&fixture_root("walv2"), &default_config()).unwrap();
    let counts = count_by_rule(&findings);
    assert_eq!(counts["nondeterministic-iter"], 2, "{findings:?}");
    assert_eq!(counts["panic-path"], 2, "{findings:?}");
    assert_eq!(findings.len(), 4, "no extra findings: {findings:?}");
    // Match on file names ("wal.rs", not "wal") — the fixture root itself
    // contains "wal", so a bare substring would match every path.
    for module in ["wal.rs", "io_fail.rs"] {
        for rule in ["nondeterministic-iter", "panic-path"] {
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == rule && f.path.to_string_lossy().ends_with(module)),
                "{rule} did not fire in {module}: {findings:?}"
            );
        }
    }
}

/// The adaptive-tuning modules (`dkindex_core::tuner`,
/// `dkindex_core::mining`) are inside the **repository** determinism and
/// panic scopes: a fixture tree mirroring their exact module paths, seeded
/// with one hash-order iteration and one panic path per module, fires both
/// rules in both modules under `default_config`. A tuner that plans in
/// hash order would enqueue different `SetRequirements` ops on different
/// runs — breaking the recorded-op replay oracle the live-tuning gate
/// depends on — and a panicking plan or miner would take the maintenance
/// thread down; this test fails first if the scope tables lose those
/// entries.
#[test]
fn tuner_and_mining_are_inside_the_repository_scopes() {
    let findings = analyze_workspace_with(&fixture_root("tuner"), &default_config()).unwrap();
    let counts = count_by_rule(&findings);
    assert_eq!(counts["nondeterministic-iter"], 2, "{findings:?}");
    assert_eq!(counts["panic-path"], 2, "{findings:?}");
    assert_eq!(findings.len(), 4, "no extra findings: {findings:?}");
    // Match on file names — the fixture root itself is named "tuner", so a
    // bare substring would match every path.
    for module in ["tuner.rs", "mining.rs"] {
        for rule in ["nondeterministic-iter", "panic-path"] {
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == rule && f.path.to_string_lossy().ends_with(module)),
                "{rule} did not fire in {module}: {findings:?}"
            );
        }
    }
}

/// The evaluation oracles (`dkindex_pathexpr::oracle`,
/// `dkindex_core::eval_oracle`) are inside the **repository** oracle table:
/// a fixture tree mirroring their exact module paths, where each "oracle"
/// is secretly the fast path, fires `oracle-purity` once per forbidden
/// reference under `default_config`. The comparison of evaluator against
/// oracle only means something while the two share no walk, scratch, budget
/// or telemetry; this test fails first if the table loses those rows.
#[test]
fn evaluation_oracles_are_fenced_from_the_evaluator() {
    let findings = analyze_workspace_with(&fixture_root("evaloracle"), &default_config()).unwrap();
    assert_eq!(findings.len(), 8, "one per forbidden name, no extras: {findings:?}");
    let fired = |file: &str, name: &str| {
        findings.iter().any(|f| {
            f.rule == "oracle-purity"
                && f.path.to_string_lossy().ends_with(file)
                && f.message.contains(&format!("references `{name}`"))
        })
    };
    let fast_path_parts = [
        "dkindex_telemetry", "EvalArena", "Marks", "VisitBudget", "closure_steps_of",
        "evaluate_bounded_with", "matches_ending_at_bounded_with",
    ];
    for name in fast_path_parts {
        assert!(fired("oracle.rs", name), "{name} not flagged in oracle.rs: {findings:?}");
    }
    assert!(fired("eval_oracle.rs", "IndexEvaluator"), "{findings:?}");
}

/// A report written from one run is a complete baseline for the next:
/// every finding's stable id round-trips through `ANALYZE.json`, and the
/// ids stay put when line numbers drift (they hash `rule:path:message`,
/// not positions).
#[test]
fn a_written_report_baselines_the_same_tree() {
    let findings = analyze_workspace_with(&fixture_root("bad"), &fixture_config()).unwrap();
    assert!(!findings.is_empty());
    let dir = std::env::temp_dir().join(format!("dkindex-analyze-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("ANALYZE.json");
    dkindex_analyze::report::write_json(&json, &findings, Some(3)).unwrap();
    let known = dkindex_analyze::report::read_baseline(&json).unwrap();
    assert_eq!(known.len(), findings.len(), "ids must be distinct: {findings:?}");
    for f in &findings {
        assert!(known.contains(&f.id()), "baseline missing {} for {f}", f.id());
        let mut shifted = f.clone();
        shifted.line += 40;
        assert_eq!(shifted.id(), f.id(), "ids must survive line drift");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The regression gate for the workspace-wide fix pass: the real tree
/// lints clean under the repository rule tables, forever.
#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    let findings = analyze_workspace(root).unwrap();
    assert!(findings.is_empty(), "workspace contract violations: {findings:#?}");
}
