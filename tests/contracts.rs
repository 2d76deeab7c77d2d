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
//! * **Lint fences.** Each lint row of ARCHITECTURE.md §6.1 lists exactly
//!   the modules whose source files deny that lint with an inner
//!   `#![deny(...)]`.
//!
//! Each check is a function over strings; the unit tests at the bottom seed
//! the violations each one exists to catch. The wire-protocol and exit-code
//! tables are checked beside their code (`crates/server/tests/
//! protocol_golden.rs`, `crates/cli/tests/exit_codes.rs`).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

/// What the two evaluation oracles must not name: telemetry, the evaluator
/// itself, and every building block only the fast path uses, so a wrong
/// part fails the differential tests instead of agreeing with itself.
const EVALUATOR: &[&str] = &[
    "dkindex_telemetry",
    "EvalArena",
    "Marks",
    "VisitBudget",
    "closure_steps_of",
    "evaluate_bounded_with",
    "matches_ending_at_bounded_with",
    "IndexEvaluator",
    "HandOff",
    "longest_word",
    "node_map",
    "similarities",
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
        &["RefineEngine", "Splitters", "first_cut", "promote_with", "dkindex_telemetry"],
        "the D(k) construction and promotion oracles must not check the refinement engine or the \
         fragment-side splitter count against themselves, or let telemetry perturb the baseline",
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

/// The backticked items of a table cell that are lint or module paths
/// (lower-case words joined by `::`), each `a::{b, c}` expanded to `a::b`,
/// `a::c`.
fn paths_in(cell: &str) -> Vec<String> {
    let path_like = |p: &String| {
        let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || "_:".contains(c);
        !p.is_empty() && p.chars().all(word)
    };
    let mut out = Vec::new();
    for item in cell.split('`').skip(1).step_by(2) {
        let expanded: Vec<String> = match item.split_once("::{") {
            Some((head, tail)) => tail
                .trim_end_matches('}')
                .split(',')
                .map(|leaf| format!("{head}::{}", leaf.trim()))
                .collect(),
            None => vec![item.to_string()],
        };
        out.extend(expanded.into_iter().filter(path_like));
    }
    out
}

/// The lint fences ARCHITECTURE.md §6.1 declares, as lint → modules: every
/// lint a row of its table names, with the module paths the row's last
/// cell lists after "inner `#![deny]` in" (up to a `;`). A lint carried
/// some other way (a command-line flag, a rustc warning) maps to none.
fn declared_fences(doc: &str) -> BTreeMap<String, BTreeSet<String>> {
    let section = doc.split_once("### 6.1").map_or("", |(_, rest)| rest);
    let section = section.split("\n#").next().unwrap_or_default();
    let mut fences: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for row in section.lines().filter(|line| line.starts_with('|')) {
        let cells: Vec<&str> = row.split('|').collect();
        let [_, _, lints, place, ..] = cells[..] else {
            continue;
        };
        let listed = place.split_once("inner `#![deny]` in").map_or("", |(_, list)| list);
        let modules = paths_in(listed.split(';').next().unwrap_or_default());
        for lint in paths_in(lints) {
            fences.entry(lint).or_default().extend(modules.iter().cloned());
        }
    }
    fences
}

/// The lints a source file denies with an inner `#![deny(...)]` outside
/// its tests.
fn denied_lints(src: &str) -> Vec<String> {
    code_of(src)
        .split("#![deny(")
        .skip(1)
        .flat_map(|rest| rest.split(')').next().unwrap_or_default().split(','))
        .map(|lint| lint.trim().to_string())
        .filter(|lint| !lint.is_empty())
        .collect()
}

/// The module path of a workspace source file: `crates/a/src/b/c.rs` (or
/// `b/c/mod.rs`) is `a::b::c`, and a crate's `lib.rs` is the crate itself.
fn module_of(path: &str) -> String {
    let (krate, file) = match path.strip_prefix("crates/") {
        Some(rest) => rest.split_once("/src/").unwrap_or((rest, "")),
        None => ("dkindex", path.strip_prefix("src/").unwrap_or(path)),
    };
    let mut parts: Vec<&str> = std::iter::once(krate)
        .chain(file.trim_end_matches(".rs").split('/'))
        .collect();
    if parts.last() == Some(&"mod") || parts[1..] == ["lib"] {
        parts.pop();
    }
    parts.join("::")
}

/// Every way §6.1's lint fences and the inner `#![deny]`s of `sources`
/// (every workspace `src/` file, as `(path, contents)`) disagree. A file
/// under a listed module's directory is covered by that module.
fn fence_drift(doc: &str, sources: &[(String, String)]) -> Vec<String> {
    let fences = declared_fences(doc);
    let denied: Vec<(String, &str, Vec<String>)> = sources
        .iter()
        .map(|(path, src)| (module_of(path), path.as_str(), denied_lints(src)))
        .collect();
    let mut out = Vec::new();
    for (lint, modules) in &fences {
        for module in modules {
            match denied.iter().find(|(m, ..)| m == module) {
                None => out.push(format!(
                    "§6.1 fences `{module}` with `{lint}`, but no source file is that module"
                )),
                Some((_, path, lints)) if !lints.contains(lint) => out.push(format!(
                    "§6.1 fences `{module}` with `{lint}`, but {path} does not deny it"
                )),
                Some(_) => {}
            }
        }
    }
    for (module, path, lints) in &denied {
        for lint in lints {
            let covered = fences.get(lint).is_some_and(|modules| {
                modules
                    .iter()
                    .any(|m| module == m || module.starts_with(&format!("{m}::")))
            });
            if !covered {
                out.push(format!(
                    "{path} denies `{lint}`, but §6.1 does not list `{module}` for it"
                ));
            }
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively, as `(path, contents)` with
/// the path relative to the workspace root.
fn sources_under(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).unwrap().display().to_string();
            out.push((rel, fs::read_to_string(&path).unwrap()));
        }
    }
}

/// The root package's `src/` files and each `crates/*` member's, in path
/// order.
fn workspace_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    sources_under(&root().join("src"), &mut out);
    for entry in fs::read_dir(root().join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            sources_under(&src, &mut out);
        }
    }
    out.sort();
    out
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
    let mut others = workspace_sources();
    others.retain(|(path, _)| path != REGISTRY);
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
fn evaluation_oracles_that_are_the_evaluator_name_every_part() {
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

#[test]
fn lint_fences_agree_between_the_architecture_doc_and_the_code() {
    let doc = read("ARCHITECTURE.md");
    assert!(
        declared_fences(&doc)
            .get("clippy::indexing_slicing")
            .is_some_and(|modules| modules.len() > 10),
        "the §6.1 parse found its rows"
    );
    let findings = fence_drift(&doc, &workspace_sources());
    assert!(findings.is_empty(), "lint fences:\n{}", findings.join("\n"));
}

#[test]
fn fence_drift_is_reported_in_both_directions() {
    let doc = "### 6.1 Contracts carried by the compiler\n\n\
        | Contract | Lint | Where it is denied |\n|---|---|---|\n\
        | typed errors | `clippy::{unwrap_used, panic}` | inner `#![deny]` in `core::wal`, \
          `core::gone` |\n\
        | hash order | `clippy::iter_over_hash_type` | inner `#![deny]` in `core::dk` (and its \
          submodules) |\n\
        | guards | `clippy::disallowed_methods` on `Mutex::lock` | inner `#![deny]` in the \
          `server` crate root; `-A` in `core::serve` |\n\
        | no unsafe | `unsafe_code` | `-F` in `CLIPPY_LINTS` |\n\n\
        ### 6.2 Contracts carried by tests\n\n\
        | mining | `clippy::todo` | inner `#![deny]` in `core::mining` |\n";
    let file = |path: &str, src: &str| (path.to_string(), src.to_string());
    let sources = [
        file("crates/core/src/wal.rs", "#![deny(clippy::unwrap_used)]\npub fn append() {}"),
        file("crates/core/src/dk/mod.rs", "#![deny(clippy::iter_over_hash_type)]\nmod promote;"),
        file("crates/core/src/dk/promote.rs", "#![deny(clippy::iter_over_hash_type)]"),
        file("crates/server/src/lib.rs", "#![deny(clippy::disallowed_methods)]"),
        file(
            "crates/core/src/store.rs",
            "#![deny(\n    clippy::unwrap_used,\n    clippy::let_underscore_must_use\n)]",
        ),
        file(
            "crates/core/src/mining.rs",
            "pub fn mine() {}\n#[cfg(test)]\nmod tests {\n    #![deny(clippy::todo)]\n}",
        ),
    ];
    let findings = fence_drift(doc, &sources);
    let expect = [
        "§6.1 fences `core::gone` with `clippy::panic`, but no source file is that module",
        "§6.1 fences `core::wal` with `clippy::panic`, but crates/core/src/wal.rs does not deny it",
        "§6.1 fences `core::gone` with `clippy::unwrap_used`, but no source file is that module",
        "crates/core/src/store.rs denies `clippy::unwrap_used`, but §6.1 does not list \
         `core::store` for it",
        "crates/core/src/store.rs denies `clippy::let_underscore_must_use`, but §6.1 does not list \
         `core::store` for it",
    ];
    assert_eq!(findings, expect);
    // Fixed, the same tree is coherent.
    let doc = doc
        .replace("`core::gone`", "`core::store`")
        .replace(
            "| no unsafe |",
            "| acks | `clippy::let_underscore_must_use` | inner `#![deny]` in `core::store` |\n\
             | no unsafe |",
        );
    let mut sources = sources.to_vec();
    sources[0].1 = "#![deny(clippy::unwrap_used, clippy::panic)]".to_string();
    sources[4].1 = "#![deny(clippy::unwrap_used, clippy::panic, clippy::let_underscore_must_use)]"
        .to_string();
    assert_eq!(fence_drift(&doc, &sources), Vec::<String>::new());
}
