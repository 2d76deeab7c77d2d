//! Fixture tests for the analyzer: each rule fires exactly once on the
//! `bad` tree, the justified `allowed` tree passes, a bare allow comment is
//! itself a finding, the `clean` tree has zero findings under a config
//! that scopes every rule onto it — and the real workspace is clean under
//! the repository rule tables.
//!
//! Fixture trees live in `crates/analyze/fixtures/<case>/crates/<crate>/`
//! as manifest-less mini-workspaces: `workspace::load_workspace` falls
//! back to directory names for crate names, so a bare `src/lib.rs` is a
//! complete fixture crate.

use dkindex_analyze::rules::{
    count_by_rule, stale_rows, BlockingSpec, ForbiddenRef, GuardConfig, GuardSpec, MetricConfig,
    OracleSpec, RuleConfig, WireConfig,
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
        guard: Some(guardy_config("guardy")),
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

/// guard-discipline scoped onto `module`: the write guard and fsync.
fn guardy_config(module: &str) -> GuardConfig {
    GuardConfig {
        scope: vec![module.into()],
        guards: vec![GuardSpec::new("write", true, "epoch RwLock write guard")],
        blocking: vec![BlockingSpec::new("sync_all", false, "fsync")],
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
        assert_eq!(counts[rule], 1, "{rule} should fire exactly once on the bad tree: {findings:?}");
    }
    assert_eq!(findings.len(), RULES.len(), "no extra findings: {findings:?}");

    // Each finding lands in the fixture crate built to trigger it.
    let lands_in = [
        ("oracle-purity", "oracle"),
        ("guard-discipline", "guardy"),
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
fn justified_allows_pass() {
    let findings = analyze_workspace_with(&fixture_root("allowed"), &fixture_config()).unwrap();
    assert!(findings.is_empty(), "justified tree must be clean: {findings:?}");
}

#[test]
fn a_bare_allow_comment_is_itself_a_finding() {
    let config = RuleConfig {
        guard: Some(guardy_config("guardy")),
        ..RuleConfig::default()
    };
    let findings = analyze_workspace_with(&fixture_root("unjustified"), &config).unwrap();
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "guard-discipline", "{findings:?}");
    assert!(findings[0].message.contains("requires a justification"), "{}", findings[0]);
}

/// Also the stale-row check: a table whose every row matches the tree has
/// none; one oracle row naming a module the tree does not provide — what a
/// renamed or deleted oracle leaves behind — is one `oracle-purity` finding.
#[test]
fn the_clean_tree_has_zero_findings_under_the_full_config() {
    let mut config = RuleConfig {
        oracles: vec![OracleSpec {
            module: "cleanc".into(),
            oracle_for: "the fixture fast path".into(),
            forbidden: vec![ForbiddenRef::new(
                "FastEngine",
                "the oracle would be checking the engine against itself",
            )],
        }],
        guard: Some(guardy_config("cleanc")),
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

/// The real tree lints clean under the repository rule tables, stale rows
/// included.
#[test]
fn the_real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/analyze sits two levels under the workspace root");
    let findings = analyze_workspace(root).unwrap();
    assert!(findings.is_empty(), "workspace contract violations: {findings:#?}");
}
