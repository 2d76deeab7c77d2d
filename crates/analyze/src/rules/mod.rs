//! The table-driven rule set.
//!
//! Each rule has an id (used in findings and in
//! `// analyze: allow(<id>) — <why>` escape hatches) and a scope given as
//! exact module paths (`dkindex_core::serve`). Adding a rule means adding
//! its id to [`RULES`], a table in [`RuleConfig`], and a `check` function.

pub mod guard;
pub mod metric;
pub mod purity;
pub mod wire;

use crate::model::SourceFile;
use crate::symbols::SymbolIndex;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Every rule id, in reporting order. The contracts are in the crate doc.
pub const RULES: &[&str] = &[
    "oracle-purity",
    "guard-discipline",
    "wire-totality",
    "metric-coherence",
];

/// One reference an oracle module must not make.
#[derive(Clone, Debug)]
pub struct ForbiddenRef {
    /// Path segments: `["dkindex_telemetry"]` or `["crate", "engine"]`.
    /// Single lowercase segments match only in path or call position
    /// (`x::` / `::x` / `use x` / `x(`); single uppercase segments (type
    /// names) match anywhere.
    pub segs: Vec<String>,
    /// Why this reference breaks oracle purity, echoed in the finding.
    pub why: String,
}

impl ForbiddenRef {
    /// Build from `::`-separated segments.
    pub fn new(path: &str, why: &str) -> ForbiddenRef {
        ForbiddenRef {
            segs: path.split("::").map(str::to_string).collect(),
            why: why.to_string(),
        }
    }
}

/// One oracle module and what it must stay independent of.
#[derive(Clone, Debug)]
pub struct OracleSpec {
    /// Module path of the oracle (exact).
    pub module: String,
    /// What the module is the trusted baseline for, echoed in findings.
    pub oracle_for: String,
    /// References the oracle must not make.
    pub forbidden: Vec<ForbiddenRef>,
}

/// One guard-creating method: binding its result keeps a guard live until
/// the enclosing scope ends (or an explicit `drop`).
#[derive(Clone, Debug)]
pub struct GuardSpec {
    /// Method name whose call creates the guard (`write`, `lock`).
    pub method: String,
    /// Only an empty argument list creates the guard: distinguishes
    /// `RwLock::write()` from `io::Write::write(buf)`.
    pub empty_args: bool,
    /// What the guard is, echoed in findings.
    pub what: String,
}

impl GuardSpec {
    /// Build a spec from its three fields.
    pub fn new(method: &str, empty_args: bool, what: &str) -> GuardSpec {
        GuardSpec { method: method.into(), empty_args, what: what.into() }
    }
}

/// One method call the guard-discipline rule considers blocking.
#[derive(Clone, Debug)]
pub struct BlockingSpec {
    /// Method name (`sync_all`, `recv`, ...).
    pub method: String,
    /// Only an empty argument list blocks (lock re-acquisition forms).
    pub empty_args: bool,
    /// Why the call blocks, echoed in findings.
    pub why: String,
}

impl BlockingSpec {
    /// Build a spec from its three fields.
    pub fn new(method: &str, empty_args: bool, why: &str) -> BlockingSpec {
        BlockingSpec { method: method.into(), empty_args, why: why.into() }
    }
}

/// Scope and tables for the guard-discipline rule.
#[derive(Clone, Debug)]
pub struct GuardConfig {
    /// Modules the rule runs in.
    pub scope: Vec<String>,
    /// Guard-creating methods.
    pub guards: Vec<GuardSpec>,
    /// Blocking calls forbidden while a guard is live.
    pub blocking: Vec<BlockingSpec>,
}

/// Artifact locations for the wire-totality rule.
#[derive(Clone, Debug)]
pub struct WireConfig {
    /// Module declaring the opcode consts and the frame codec.
    pub protocol_module: String,
    /// Fns an opcode const must be referenced in on the encode side.
    pub encode_fns: Vec<String>,
    /// Fns an opcode const must be referenced in on the decode side.
    pub decode_fns: Vec<String>,
    /// Root-relative path of the golden byte tests.
    pub golden_test: String,
    /// Root-relative path of the wire-protocol document.
    pub protocol_doc: String,
    /// Module declaring the CLI error type and its exit codes.
    pub cli_module: String,
    /// The fn mapping errors to exit codes.
    pub exit_code_fn: String,
    /// Root-relative path of the operations document (exit-code table).
    pub operations_doc: String,
}

/// Artifact locations for the metric-coherence rule.
#[derive(Clone, Debug)]
pub struct MetricConfig {
    /// Module declaring every metric static (the registry).
    pub registry_module: String,
    /// Registry fns whose bodies must reference every declared static
    /// (`counters`, `histograms`).
    pub registry_fns: Vec<String>,
    /// Root-relative path of the document listing every metric name.
    pub architecture_doc: String,
}

/// Scopes and tables the rules run against. [`crate::default_config`]
/// describes the real workspace; tests build ad-hoc configs for fixtures.
#[derive(Clone, Debug, Default)]
pub struct RuleConfig {
    /// The oracle-purity table.
    pub oracles: Vec<OracleSpec>,
    /// The guard-discipline rule (`None` disables it).
    pub guard: Option<GuardConfig>,
    /// The wire-totality rule (`None` disables it).
    pub wire: Option<WireConfig>,
    /// The metric-coherence rule (`None` disables it).
    pub metrics: Option<MetricConfig>,
}

/// One violation, printed as `file:line: rule-id: message`.
#[derive(Clone, Debug)]
pub struct Finding {
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human explanation with the offending symbol.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Count findings per rule id (all rules present, zero-filled).
pub fn count_by_rule(findings: &[Finding]) -> BTreeMap<&'static str, usize> {
    let mut counts: BTreeMap<&'static str, usize> = RULES.iter().map(|&r| (r, 0)).collect();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    counts
}

/// Record a finding at `line` unless a justified allow-comment covers it.
/// An allow-comment *without* a justification is itself a finding — the
/// escape hatch requires a reason.
pub(crate) fn push_unless_allowed(
    file: &SourceFile,
    line: u32,
    rule: &'static str,
    message: String,
    findings: &mut Vec<Finding>,
) {
    match file.allow_on(rule, line) {
        Some(true) => {}
        Some(false) => findings.push(Finding {
            path: file.path.clone(),
            line,
            rule,
            message: format!(
                "allow({rule}) requires a justification after the closing parenthesis \
                 (suppressing: {message})"
            ),
        }),
        None => findings.push(Finding { path: file.path.clone(), line, rule, message }),
    }
}

/// Rule-table rows that fence nothing: an oracle module, a scope entry or
/// the module a cross-artifact rule reads its declarations from (protocol,
/// CLI exit codes, metric registry) that none of `files` provides — what a
/// renamed, moved or deleted module leaves behind, silently losing its
/// rule. Each is a finding under the rule the row configures, reported at
/// `table` (the file holding the tables; line 0, a row has no line of its
/// own). [`run_all`] does not call this: the fixture tests point the
/// repository tables at partial trees on purpose.
pub fn stale_rows(files: &[SourceFile], config: &RuleConfig, table: &Path) -> Vec<Finding> {
    let mut rows: Vec<(&'static str, &String)> = Vec::new();
    rows.extend(config.oracles.iter().map(|o| ("oracle-purity", &o.module)));
    if let Some(cfg) = &config.guard {
        rows.extend(cfg.scope.iter().map(|m| ("guard-discipline", m)));
    }
    if let Some(cfg) = &config.wire {
        rows.extend([&cfg.protocol_module, &cfg.cli_module].map(|m| ("wire-totality", m)));
    }
    if let Some(cfg) = &config.metrics {
        rows.push(("metric-coherence", &cfg.registry_module));
    }
    rows.retain(|(_, entry)| !files.iter().any(|f| f.module == **entry));
    let finding = |(rule, entry): (&'static str, &String)| Finding {
        path: table.to_path_buf(),
        line: 0,
        rule,
        message: format!("rule table names `{entry}`, which no analysed file provides"),
    };
    rows.into_iter().map(finding).collect()
}

/// Run every configured rule over `files` (one whole workspace or a
/// fixture set). `root` resolves the cross-artifact rules' doc and test
/// files; without it those checks are skipped. Findings come back sorted
/// by path, then line.
pub fn run_all(files: &[SourceFile], config: &RuleConfig, root: Option<&Path>) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files {
        purity::check(file, config, &mut findings);
    }
    if config.guard.is_some() || config.wire.is_some() || config.metrics.is_some() {
        let index = SymbolIndex::build(files, root);
        if let Some(cfg) = &config.guard {
            guard::check(files, &index, cfg, &mut findings);
        }
        if let Some(cfg) = &config.wire {
            wire::check(files, &index, cfg, &mut findings);
        }
        if let Some(cfg) = &config.metrics {
            metric::check(files, &index, cfg, &mut findings);
        }
    }
    findings.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    findings
}
