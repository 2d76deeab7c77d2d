//! The table-driven rule set.
//!
//! Each rule has an id (used in findings and in
//! `// analyze: allow(<id>) — <why>` escape hatches), the contract it
//! proves, and a scope given as module patterns (`a::b` exact,
//! `a::b::*` subtree). Adding a rule means adding a [`RuleMeta`] entry, a
//! scope list in [`RuleConfig`], and a `check` function — the existing
//! rules average well under a hundred lines each.

pub mod consume;
pub mod determinism;
pub mod guard;
pub mod metric;
pub mod panic_path;
pub mod purity;
pub mod unsafety;
pub mod wire;

use crate::model::{in_scope, SourceFile};
use crate::symbols::SymbolIndex;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// How bad an unjustified violation is. Both levels currently fail the
/// build; the distinction is kept for reporting and future rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Violates a correctness contract (byte-identity, purity, recovery).
    Error,
    /// Violates a hygiene contract.
    Warning,
}

/// Static description of one rule.
pub struct RuleMeta {
    /// Stable rule id, also the allow-comment key.
    pub id: &'static str,
    /// The contract the rule enforces, for reports and docs.
    pub contract: &'static str,
    /// Failure class.
    pub severity: Severity,
}

/// All rules known to the analyzer, in reporting order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "nondeterministic-iter",
        contract: "byte-identity-critical modules never iterate HashMap/HashSet in an \
                   order-sensitive way",
        severity: Severity::Error,
    },
    RuleMeta {
        id: "oracle-purity",
        contract: "reference oracles never import or call the fast paths they are oracles for, \
                   nor telemetry",
        severity: Severity::Error,
    },
    RuleMeta {
        id: "panic-path",
        contract: "serve / snapshot-recovery / WAL-replay code returns typed errors instead of \
                   panicking (no unwrap/expect/panic!/indexing)",
        severity: Severity::Error,
    },
    RuleMeta {
        id: "unsafe-hygiene",
        contract: "every unsafe block carries a SAFETY: comment; crates needing no unsafe \
                   forbid it outright",
        severity: Severity::Warning,
    },
    RuleMeta {
        id: "guard-discipline",
        contract: "no blocking call (fsync, socket/channel I/O, lock re-acquisition) while an \
                   epoch write guard or mutex guard is live in scope, across helper calls one \
                   level deep",
        severity: Severity::Error,
    },
    RuleMeta {
        id: "must-consume",
        contract: "a DurableAck or Result produced in the serve/WAL/network stack is bound and \
                   used — never silently dropped or discarded with a bare `let _`",
        severity: Severity::Error,
    },
    RuleMeta {
        id: "wire-totality",
        contract: "every DKNP opcode has an encode path, a decode arm, a golden byte test, and \
                   a PROTOCOL.md anchor; every CLI exit code matches the OPERATIONS.md table",
        severity: Severity::Error,
    },
    RuleMeta {
        id: "metric-coherence",
        contract: "every metric name used at a call site is declared in the telemetry registry \
                   and listed in ARCHITECTURE.md; no phantom or orphaned metrics",
        severity: Severity::Warning,
    },
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

/// Scope and tables for the must-consume rule.
#[derive(Clone, Debug)]
pub struct ConsumeConfig {
    /// Modules the rule runs in.
    pub scope: Vec<String>,
    /// Method/function names that always produce a must-consume value
    /// (channel `send`, WAL `log_batch`, ...).
    pub producers: Vec<String>,
    /// Return-type markers: a workspace fn whose return type mentions one
    /// of these is a producer too (`Result`, `DurableAck`).
    pub ret_types: Vec<String>,
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
    /// Modules whose construction/serialization must be byte-deterministic.
    pub determinism_scope: Vec<String>,
    /// Modules that must be panic-free (typed errors only).
    pub panic_scope: Vec<String>,
    /// The oracle-purity table.
    pub oracles: Vec<OracleSpec>,
    /// Run the workspace-wide unsafe-hygiene rule.
    pub unsafe_hygiene: bool,
    /// The guard-discipline rule (`None` disables it).
    pub guard: Option<GuardConfig>,
    /// The must-consume rule (`None` disables it).
    pub consume: Option<ConsumeConfig>,
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

impl Finding {
    /// Stable identity for baseline suppression: an FNV-1a hash over
    /// `rule:path:message`, rendered as 16 hex digits. Deliberately
    /// line-free so a finding keeps its id when unrelated edits shift
    /// code above it; the message embeds the offending symbol, so two
    /// distinct violations in one file hash apart.
    pub fn id(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .rule
            .bytes()
            .chain([b':'])
            .chain(self.path.to_string_lossy().bytes())
            .chain([b':'])
            .chain(self.message.bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        format!("{h:016x}")
    }
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
    let mut counts: BTreeMap<&'static str, usize> = RULES.iter().map(|r| (r.id, 0)).collect();
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

/// Rust keywords, used to tell expression identifiers from syntax.
pub(crate) const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
    "pub", "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use",
    "where", "while", "yield",
];

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
    rows.extend(config.determinism_scope.iter().map(|m| ("nondeterministic-iter", m)));
    rows.extend(config.panic_scope.iter().map(|m| ("panic-path", m)));
    rows.extend(config.oracles.iter().map(|o| ("oracle-purity", &o.module)));
    if let Some(cfg) = &config.guard {
        rows.extend(cfg.scope.iter().map(|m| ("guard-discipline", m)));
    }
    if let Some(cfg) = &config.consume {
        rows.extend(cfg.scope.iter().map(|m| ("must-consume", m)));
    }
    if let Some(cfg) = &config.wire {
        rows.extend([&cfg.protocol_module, &cfg.cli_module].map(|m| ("wire-totality", m)));
    }
    if let Some(cfg) = &config.metrics {
        rows.push(("metric-coherence", &cfg.registry_module));
    }
    rows.retain(|(_, entry)| !files.iter().any(|f| in_scope(&f.module, entry)));
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
        determinism::check(file, config, &mut findings);
        purity::check(file, config, &mut findings);
        panic_path::check(file, config, &mut findings);
    }
    if config.unsafe_hygiene {
        unsafety::check(files, &mut findings);
    }
    if config.guard.is_some() || config.consume.is_some() || config.wire.is_some()
        || config.metrics.is_some()
    {
        let index = SymbolIndex::build(files, root);
        if let Some(cfg) = &config.guard {
            guard::check(files, &index, cfg, &mut findings);
        }
        if let Some(cfg) = &config.consume {
            consume::check(files, &index, cfg, &mut findings);
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
