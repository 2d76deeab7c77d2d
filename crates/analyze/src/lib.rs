//! # dkindex-analyze
//!
//! The workspace static-analysis pass for the contracts no compiler sees:
//! an import fence inside one crate, lock-held blocking one call deep, and
//! agreement between code and the documents and tests that describe it.
//! Panic freedom, hash-order iteration, discarded results and `unsafe` are
//! clippy's and rustc's (lint attributes in the modules they fence,
//! ARCHITECTURE.md §6):
//!
//! | rule | contract |
//! |------|----------|
//! | `oracle-purity` | reference oracles never import the fast paths / telemetry they are oracles for (module import graph) |
//! | `guard-discipline` | no blocking call (fsync, socket/channel I/O, lock re-acquisition) while an epoch write guard or mutex guard is live, across helper calls one level deep |
//! | `wire-totality` | every DKNP opcode has encode + decode + golden byte test + PROTOCOL.md anchor; CLI exit codes match the OPERATIONS.md table, both directions |
//! | `metric-coherence` | metric names agree across call sites, the telemetry registry, and the ARCHITECTURE.md metric tables — no phantom or orphaned metrics |
//!
//! A rule table row naming a module no file provides is itself a finding
//! ([`rules::stale_rows`]).
//!
//! Because the offline build environment has no `syn`, the pass runs on a
//! hand-rolled token stream ([`lexer`]) — string/comment-aware, line
//! tracking, `#[cfg(test)]` exclusion — which is exactly enough for these
//! rules. Escape hatch: `// analyze: allow(<rule-id>) — <why>` on the
//! flagged line or in the comment block directly above it; the
//! justification text is mandatory (and may wrap onto following comment
//! lines).
//!
//! Findings print as `file:line: rule-id: message` and the
//! `dkindex-analyze` binary exits nonzero on any unjustified violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod symbols;
pub mod workspace;

use rules::{
    BlockingSpec, ForbiddenRef, GuardConfig, GuardSpec, MetricConfig, OracleSpec, RuleConfig,
    WireConfig,
};
use std::io;
use std::path::Path;

pub use rules::{Finding, RULES};

/// The rule tables for this repository: which oracles must stay
/// independent of what, where guards must not block, and where the wire
/// and metric declarations live.
pub fn default_config() -> RuleConfig {
    let scope = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    RuleConfig {
        oracles: vec![
            OracleSpec {
                module: "dkindex_core::dk::reference".into(),
                oracle_for: "the engine-backed D(k) construction (`dk_partition_with_options`)"
                    .into(),
                forbidden: vec![
                    ForbiddenRef::new(
                        "RefineEngine",
                        "the oracle would be checking the engine against itself",
                    ),
                    ForbiddenRef::new(
                        "dkindex_telemetry",
                        "telemetry must not be able to perturb the baseline",
                    ),
                ],
            },
            OracleSpec {
                module: "dkindex_core::serve_ops".into(),
                oracle_for: "the concurrent epoch-publication serve layer (`core::serve`)".into(),
                forbidden: vec![
                    ForbiddenRef::new(
                        "dkindex_telemetry",
                        "the serial oracle must not share telemetry hooks with the \
                         concurrent path it checks",
                    ),
                    ForbiddenRef::new(
                        "mpsc",
                        "the serial oracle must not depend on the channel machinery",
                    ),
                    ForbiddenRef::new(
                        "JoinHandle",
                        "the serial oracle must stay single-threaded",
                    ),
                    ForbiddenRef::new(
                        "RwLock",
                        "the serial oracle must not touch the epoch lock",
                    ),
                ],
            },
            OracleSpec {
                module: "dkindex_pathexpr::oracle".into(),
                oracle_for: "the budgeted arena walks (`pathexpr::eval`)".into(),
                forbidden: evaluator_forbidden(),
            },
            OracleSpec {
                module: "dkindex_core::eval_oracle".into(),
                oracle_for: "the index→validate loop (`IndexEvaluator::evaluate_bounded`)".into(),
                forbidden: evaluator_forbidden(),
            },
            OracleSpec {
                module: "dkindex_core::one_index".into(),
                oracle_for: "index-size/soundness comparisons (1-index baseline)".into(),
                forbidden: baseline_forbidden(),
            },
            OracleSpec {
                module: "dkindex_core::dataguide".into(),
                oracle_for: "index-size comparisons (strong DataGuide baseline)".into(),
                forbidden: baseline_forbidden(),
            },
            OracleSpec {
                module: "dkindex_core::label_split".into(),
                oracle_for: "the A(0) label-split baseline".into(),
                forbidden: baseline_forbidden(),
            },
            OracleSpec {
                module: "dkindex_partition::refine".into(),
                oracle_for: "the interned-signature RefineEngine".into(),
                forbidden: partition_forbidden(),
            },
            OracleSpec {
                module: "dkindex_partition::naive".into(),
                oracle_for: "bisimulation partition fast paths".into(),
                forbidden: partition_forbidden(),
            },
            OracleSpec {
                module: "dkindex_partition::coarsest".into(),
                oracle_for: "the RefineEngine-built summaries the 1-index is compared against"
                    .into(),
                forbidden: partition_forbidden(),
            },
        ],
        guard: Some(GuardConfig {
            scope: scope(&[
                "dkindex_core::serve",
                "dkindex_core::wal",
                "dkindex_server::conn",
                "dkindex_server::server",
            ]),
            guards: vec![
                GuardSpec::new("write", true, "epoch RwLock write guard"),
                GuardSpec::new("lock", true, "mutex guard"),
            ],
            blocking: vec![
                BlockingSpec::new("sync_all", false, "fsync"),
                BlockingSpec::new("sync_data", false, "fdatasync"),
                BlockingSpec::new("recv", true, "blocking channel receive"),
                BlockingSpec::new("recv_timeout", false, "blocking channel receive"),
                BlockingSpec::new("join", true, "thread join"),
                BlockingSpec::new("read_exact", false, "blocking socket read"),
                BlockingSpec::new("write_all", false, "blocking socket write"),
                BlockingSpec::new("lock", true, "mutex (re-)acquisition"),
                BlockingSpec::new("write", true, "rwlock write (re-)acquisition"),
                BlockingSpec::new("read", true, "rwlock read (re-)acquisition"),
            ],
        }),
        wire: Some(WireConfig {
            protocol_module: "dkindex_server::protocol".into(),
            encode_fns: vec!["opcode".into(), "encode".into()],
            decode_fns: vec!["decode_body".into()],
            golden_test: "crates/server/tests/protocol_golden.rs".into(),
            protocol_doc: "docs/PROTOCOL.md".into(),
            cli_module: "dkindex_cli::commands".into(),
            exit_code_fn: "exit_code".into(),
            operations_doc: "docs/OPERATIONS.md".into(),
        }),
        metrics: Some(MetricConfig {
            registry_module: "dkindex_telemetry::metrics".into(),
            registry_fns: vec!["counters".into(), "histograms".into()],
            architecture_doc: "ARCHITECTURE.md".into(),
        }),
    }
}

/// What the two evaluation oracles must not touch: telemetry, the
/// evaluator itself, and every building block only the fast path uses.
fn evaluator_forbidden() -> Vec<ForbiddenRef> {
    let mut forbidden = vec![ForbiddenRef::new(
        "dkindex_telemetry",
        "the evaluator is instrumented; instrumenting the oracle too would hide observer effects",
    )];
    for name in [
        "EvalArena", "Marks", "VisitBudget", "closure_steps_of", "evaluate_bounded_with",
        "matches_ending_at_bounded_with", "IndexEvaluator",
    ] {
        let why = "the oracle would be checking the evaluator against itself";
        forbidden.push(ForbiddenRef::new(name, why));
    }
    forbidden
}

fn baseline_forbidden() -> Vec<ForbiddenRef> {
    vec![
        ForbiddenRef::new(
            "dkindex_telemetry",
            "baselines are compared against instrumented paths; instrumenting them too \
             would hide observer effects",
        ),
        ForbiddenRef::new(
            "RefineEngine",
            "baselines must not be built on the engine they are compared against",
        ),
    ]
}

fn partition_forbidden() -> Vec<ForbiddenRef> {
    vec![
        ForbiddenRef::new(
            "crate::engine",
            "the reference refinement must not call into the engine it certifies",
        ),
        ForbiddenRef::new(
            "RefineEngine",
            "the reference refinement must not call into the engine it certifies",
        ),
        ForbiddenRef::new(
            "dkindex_telemetry",
            "reference paths stay un-instrumented so oracle comparisons include the \
             recorder's effects",
        ),
    ]
}

/// Analyze the workspace at `root` with the repository rule tables. The
/// one place where table and tree must correspond row for row, so this is
/// where a stale row ([`rules::stale_rows`]) becomes a finding.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let config = default_config();
    let files = workspace::load_workspace(root)?;
    let mut findings = rules::run_all(&files, &config, Some(root));
    findings.extend(rules::stale_rows(&files, &config, Path::new(file!())));
    Ok(findings)
}

/// Analyze the workspace at `root` with a caller-provided config (fixture
/// tests scope the rules onto synthetic module trees this way).
pub fn analyze_workspace_with(root: &Path, config: &RuleConfig) -> io::Result<Vec<Finding>> {
    let files = workspace::load_workspace(root)?;
    Ok(rules::run_all(&files, config, Some(root)))
}
