//! Contracts between source files and the documents that describe them,
//! checked as text: no type system sees them.
//!
//! * **Oracle purity.** Each reference oracle names none of the fast paths
//!   or telemetry it certifies (the [`ORACLES`] table). An oracle that leans
//!   on the engine it checks can no longer falsify it.
//! * **Metric coherence.** Every `Counter`/`Histogram` static in the
//!   telemetry registry is registered in `counters()`/`histograms()`, named
//!   in ARCHITECTURE.md and used by some other `src/` file, and no metric is
//!   constructed outside the registry.
//!
//! Each check is a function over strings; the unit tests at the bottom seed
//! the violations each one exists to catch. The wire-protocol and exit-code
//! tables are checked beside their code (`crates/server/tests/
//! protocol_golden.rs`, `crates/cli/tests/exit_codes.rs`).

use std::fs;
use std::path::Path;

/// What the two evaluation oracles must not name: telemetry, the evaluator
/// itself, and every building block only the fast path uses.
const EVALUATOR: &[&str] = &[
    "dkindex_telemetry",
    "EvalArena",
    "Marks",
    "VisitBudget",
    "closure_steps_of",
    "evaluate_bounded_with",
    "matches_ending_at_bounded_with",
    "IndexEvaluator",
];
/// What the size/soundness baselines must not name.
const BASELINE: &[&str] = &["dkindex_telemetry", "RefineEngine"];
/// What the reference refinements must not name.
const PARTITION: &[&str] = &["crate::engine", "RefineEngine", "dkindex_telemetry"];

/// The oracle table: file, the names it must not mention in non-test code,
/// and why.
const ORACLES: &[(&str, &[&str], &str)] = &[
    (
        "crates/core/src/dk/reference.rs",
        &["RefineEngine", "dkindex_telemetry"],
        "the D(k) construction oracle must not check the engine against itself or let telemetry \
         perturb the baseline",
    ),
    (
        "crates/core/src/serve_ops.rs",
        &["dkindex_telemetry", "mpsc", "JoinHandle", "RwLock"],
        "the serial serve oracle stays single-threaded: no telemetry hooks, channels, threads or \
         epoch lock shared with the concurrent path it checks",
    ),
    (
        "crates/pathexpr/src/oracle.rs",
        EVALUATOR,
        "the NFA-walk oracle must not share walk, scratch, budget or telemetry with the budgeted \
         walks it checks",
    ),
    (
        "crates/core/src/eval_oracle.rs",
        EVALUATOR,
        "the index-evaluation oracle must not be the evaluator it checks",
    ),
    (
        "crates/core/src/one_index.rs",
        BASELINE,
        "the 1-index baseline must not be built on, or instrumented like, what it is compared with",
    ),
    (
        "crates/core/src/dataguide.rs",
        BASELINE,
        "the DataGuide baseline must not be built on, or instrumented like, what it is compared with",
    ),
    (
        "crates/core/src/label_split.rs",
        BASELINE,
        "the A(0) baseline must not be built on, or instrumented like, what it is compared with",
    ),
    (
        "crates/partition/src/refine.rs",
        PARTITION,
        "the reference refinement must not call into the engine it certifies, and stays \
         uninstrumented",
    ),
    (
        "crates/partition/src/naive.rs",
        PARTITION,
        "the naive partition oracle must not call into the engine it certifies, and stays \
         uninstrumented",
    ),
    (
        "crates/partition/src/coarsest.rs",
        PARTITION,
        "the 1-index refinement must not call into the engine it is compared with, and stays \
         uninstrumented",
    ),
];

const REGISTRY: &str = "crates/telemetry/src/metrics.rs";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

/// The code of a source file: everything before its first `#[cfg(test)]`,
/// with each `//` comment cut off its line.
fn code_of(src: &str) -> String {
    let live = src.split("#[cfg(test)]").next().unwrap_or_default();
    live.lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Does `name` occur in `code` as a whole word (no identifier character on
/// either side)?
fn mentions(code: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(name)
        .any(|(at, _)| !code[..at].ends_with(ident) && !code[at + name.len()..].starts_with(ident))
}

/// The forbidden names an oracle's source mentions outside comments and
/// tests.
fn impurities<'a>(src: &str, forbidden: &[&'a str]) -> Vec<&'a str> {
    let code = code_of(src);
    forbidden
        .iter()
        .copied()
        .filter(|name| mentions(&code, name))
        .collect()
}

/// Every `static IDENT: … = Counter::new("name", …);` in the registry's
/// `code` as `(IDENT, name)`.
fn metric_statics(code: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for decl in code.split("static ").skip(1) {
        let Some((ident, rest)) = decl.split_once(':') else {
            continue;
        };
        let statement = rest.split(';').next().unwrap_or_default();
        let name = ["Counter::new(\"", "Histogram::new(\""]
            .iter()
            .find_map(|ctor| statement.split_once(ctor))
            .and_then(|(_, args)| args.split('"').next());
        out.extend(name.map(|name| (ident.trim(), name)));
    }
    out
}

/// The body of top-level `fn name(` in `code`, up to the closing brace at
/// the start of a line.
fn fn_body<'a>(code: &'a str, name: &str) -> &'a str {
    let Some((_, rest)) = code.split_once(&format!("fn {name}(")) else {
        return "";
    };
    rest.split("\n}").next().unwrap_or_default()
}

/// Every way the registry, the architecture document and the other source
/// files disagree. `others` is every workspace `src/` file but the
/// registry, as `(path, contents)`.
fn metric_incoherences(registry: &str, doc: &str, others: &[(String, String)]) -> Vec<String> {
    let code = code_of(registry);
    let registered = format!(
        "{}{}",
        fn_body(&code, "counters"),
        fn_body(&code, "histograms")
    );
    let others: Vec<(&String, String)> = others.iter().map(|(p, src)| (p, code_of(src))).collect();
    let mut out = Vec::new();
    for (ident, name) in metric_statics(&code) {
        if !mentions(&registered, ident) {
            out.push(format!(
                "`{name}` ({ident}) is not listed in counters()/histograms()"
            ));
        }
        if !doc.contains(name) {
            out.push(format!(
                "`{name}` ({ident}) is missing from ARCHITECTURE.md"
            ));
        }
        let quoted = format!("\"{name}\"");
        if !others
            .iter()
            .any(|(_, code)| mentions(code, ident) || code.contains(&quoted))
        {
            out.push(format!(
                "`{name}` ({ident}) is orphaned: no other src/ file uses it"
            ));
        }
    }
    for (path, code) in others {
        if code.contains("Counter::new(") || code.contains("Histogram::new(") {
            out.push(format!("{path} constructs a metric outside the registry"));
        }
    }
    out
}

/// Every `.rs` file under `dir` but the registry, recursively, as
/// `(path, contents)`.
fn sources_under(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(REGISTRY) {
            out.push((
                path.display().to_string(),
                fs::read_to_string(&path).unwrap(),
            ));
        }
    }
}

#[test]
fn oracles_name_nothing_they_certify() {
    let mut violations = Vec::new();
    for (file, forbidden, why) in ORACLES {
        for name in impurities(&read(file), forbidden) {
            violations.push(format!("{file} mentions `{name}`: {why}"));
        }
    }
    assert!(
        violations.is_empty(),
        "oracle purity:\n{}",
        violations.join("\n")
    );
}

#[test]
fn metrics_agree_across_registry_docs_and_call_sites() {
    let registry = read(REGISTRY);
    assert!(
        metric_statics(&code_of(&registry)).len() > 50,
        "the registry parse found its statics"
    );
    // The root package's `src/` and each `crates/*` member's.
    let mut others = Vec::new();
    sources_under(&root().join("src"), &mut others);
    for entry in fs::read_dir(root().join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            sources_under(&src, &mut others);
        }
    }
    let findings = metric_incoherences(&registry, &read("ARCHITECTURE.md"), &others);
    assert!(
        findings.is_empty(),
        "metric coherence:\n{}",
        findings.join("\n")
    );
}

#[test]
fn an_oracle_that_names_its_engine_is_impure() {
    let src = "use fast_path::FastEngine;\n\
               pub fn reference_fold(v: &[u32]) -> u32 { FastEngine::new().fold(v) }\n";
    assert_eq!(
        impurities(src, &["FastEngine", "telemetry_stub"]),
        ["FastEngine"]
    );
    // Comments, test modules and longer identifiers are not references.
    let src = "// unlike FastEngine, this folds by hand\n\
               pub fn fold(v: &[u32]) -> u32 { FastEngineless::sum(v) }\n\
               #[cfg(test)]\nmod tests { use fast_path::FastEngine; }\n";
    assert!(impurities(src, &["FastEngine"]).is_empty());
}

#[test]
fn evaluation_oracles_that_are_the_evaluator_name_all_eight_parts() {
    let path_oracle = "use crate::eval::{evaluate_bounded_with, matches_ending_at_bounded_with, \
                       EvalArena, VisitBudget};\n\
        pub fn evaluate(g: &Graph, nfa: &Nfa) -> Option<EvalOutcome> {\n\
            dkindex_telemetry::metrics::PATHEXPR_EVALUATIONS.incr();\n\
            evaluate_bounded_with(g, nfa, &mut EvalArena::new(), &mut VisitBudget::new(9)).ok()\n\
        }\n\
        pub fn matches_ending_at(g: &Graph, rev: &Nfa, seen: &mut Marks) -> bool {\n\
            seen.reset(rev.closure_steps_of(rev.start()).len());\n\
            matches_ending_at_bounded_with(g, rev, seen)\n\
        }\n";
    let index_oracle =
        "pub fn evaluate(i: &IndexGraph, d: &DataGraph, q: &PathExpr) -> Outcome {\n\
            crate::eval::IndexEvaluator::new(i, d).evaluate(q)\n\
        }\n";
    assert_eq!(impurities(path_oracle, EVALUATOR), &EVALUATOR[..7]);
    assert_eq!(impurities(index_oracle, EVALUATOR), ["IndexEvaluator"]);
}

#[test]
fn metric_drift_is_reported_in_every_direction() {
    let registry = "\
        pub static SERVE_TICKS: Counter = Counter::new(\"serve.ticks\");\n\
        pub static SERVE_SKIPS: Counter =\n    Counter::new(\"serve.skips\");\n\
        pub static SERVE_IDLE: Counter = Counter::new(\"serve.idle\");\n\
        pub static SERVE_NS: Histogram = Histogram::new(\"serve.ns\", Unit::Nanos);\n\
        pub fn counters() -> &'static [&'static Counter] {\n\
            static ALL: [&Counter; 3] = [&SERVE_TICKS, &SERVE_SKIPS, &SERVE_IDLE];\n    &ALL\n}\n\
        pub fn histograms() -> &'static [&'static Histogram] {\n    &[]\n}\n";
    let doc = "| `serve.ticks` | `serve.idle` | `serve.ns` |";
    let user = "fn observe() { SERVE_TICKS.incr(); SERVE_SKIPS.incr(); SERVE_NS.record(1); }";
    let phantom = "static ROGUE: Counter = Counter::new(\"rogue\");";
    let others = [
        ("a.rs".to_string(), user.to_string()),
        ("b.rs".to_string(), phantom.to_string()),
    ];
    let findings = metric_incoherences(registry, doc, &others);
    let expect = [
        "`serve.skips` (SERVE_SKIPS) is missing from ARCHITECTURE.md",
        "`serve.idle` (SERVE_IDLE) is orphaned: no other src/ file uses it",
        "`serve.ns` (SERVE_NS) is not listed in counters()/histograms()",
        "b.rs constructs a metric outside the registry",
    ];
    assert_eq!(findings, expect);
    // Fixed, the same tree is coherent.
    let registry = registry.replace("&[]", "&[&SERVE_NS]");
    let doc = format!("{doc} `serve.skips` |");
    let user = format!("{user} fn idle() {{ SERVE_IDLE.incr(); }}");
    let others = [("a.rs".to_string(), user)];
    assert!(metric_incoherences(&registry, &doc, &others).is_empty());
}
