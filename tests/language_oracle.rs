//! Language-level oracle for the NFA compiler: a direct recursive matcher
//! over the [`PathExpr`] AST must agree with Thompson-NFA acceptance on
//! random expressions and words. This pins the automaton construction
//! independently of the graph evaluators built on top of it.

use dkindex::graph::{LabelId, LabelInterner};
use dkindex::pathexpr::{Nfa, PathExpr};
use proptest::prelude::*;

/// Does `expr` match `word` exactly? Recursive-descent semantics with
/// explicit split points — exponential, but words here are short.
fn ast_matches(expr: &PathExpr, word: &[&str]) -> bool {
    match expr {
        PathExpr::Label(l) => word.len() == 1 && word[0] == l,
        PathExpr::Wildcard => word.len() == 1,
        PathExpr::Seq(a, b) => (0..=word.len())
            .any(|i| ast_matches(a, &word[..i]) && ast_matches(b, &word[i..])),
        PathExpr::Alt(a, b) => ast_matches(a, word) || ast_matches(b, word),
        PathExpr::Opt(a) => word.is_empty() || ast_matches(a, word),
        PathExpr::Star(a) => {
            if word.is_empty() {
                return true;
            }
            // First chunk non-empty to guarantee progress.
            (1..=word.len())
                .any(|i| ast_matches(a, &word[..i]) && ast_matches(expr, &word[i..]))
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = PathExpr> {
    let leaf = prop_oneof![
        prop::sample::select(vec!["a", "b", "c"]).prop_map(PathExpr::label),
        Just(PathExpr::Wildcard),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| PathExpr::seq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| PathExpr::alt(a, b)),
            inner.clone().prop_map(PathExpr::opt),
            inner.prop_map(PathExpr::star),
        ]
    })
}

fn word_strategy() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop::sample::select(vec!["a", "b", "c", "d"]), 0..6)
}

fn interner() -> LabelInterner {
    let mut i = LabelInterner::new();
    for l in ["a", "b", "c", "d"] {
        i.intern(l);
    }
    i
}

fn to_ids(i: &LabelInterner, word: &[&str]) -> Vec<LabelId> {
    word.iter().map(|w| i.get(w).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// NFA acceptance equals direct AST semantics.
    #[test]
    fn nfa_agrees_with_ast_semantics(e in expr_strategy(), word in word_strategy()) {
        let i = interner();
        let nfa = Nfa::compile(&e, &i);
        let expected = ast_matches(&e, &word);
        let got = nfa.accepts(&to_ids(&i, &word));
        prop_assert_eq!(got, expected, "expr {} word {:?}", e, word);
    }

    /// The reversed NFA accepts exactly the reversed words.
    #[test]
    fn reversed_nfa_accepts_reversed_words(e in expr_strategy(), word in word_strategy()) {
        let i = interner();
        let nfa = Nfa::compile(&e, &i);
        let rev = nfa.reverse();
        let mut back = word.clone();
        back.reverse();
        prop_assert_eq!(
            rev.accepts(&to_ids(&i, &back)),
            nfa.accepts(&to_ids(&i, &word)),
            "expr {} word {:?}",
            e,
            word
        );
    }

    /// Word-length bounds really bound the language.
    #[test]
    fn word_length_bounds_hold(e in expr_strategy(), word in word_strategy()) {
        let i = interner();
        let nfa = Nfa::compile(&e, &i);
        if nfa.accepts(&to_ids(&i, &word)) {
            prop_assert!(word.len() >= e.min_word_len());
            if let Some(max) = e.max_word_len() {
                prop_assert!(word.len() <= max);
            }
        }
    }
}

#[test]
fn ast_oracle_sanity() {
    let e = PathExpr::seq(
        PathExpr::label("a"),
        PathExpr::star(PathExpr::alt(PathExpr::label("b"), PathExpr::label("c"))),
    );
    assert!(ast_matches(&e, &["a"]));
    assert!(ast_matches(&e, &["a", "b", "c", "b"]));
    assert!(!ast_matches(&e, &["b"]));
    assert!(!ast_matches(&e, &[]));
}

/// The deepest queries `parse` accepts — as deep as `MAX_QUERY_NODES` is
/// large, or nested `MAX_QUERY_NESTING` levels — run every recursive
/// consumer of the AST on a quarter of the 2 MiB stack a DKNP worker gets.
#[test]
fn deepest_accepted_queries_fit_a_quarter_of_a_worker_stack() {
    use dkindex::pathexpr::{parse, MAX_QUERY_NESTING, MAX_QUERY_NODES};
    let per_level = "?".repeat((MAX_QUERY_NODES - 1) / MAX_QUERY_NESTING);
    let texts = [
        format!("a{}", "*".repeat(MAX_QUERY_NODES - 1)),
        vec!["a"; MAX_QUERY_NODES / 2].join("."),
        vec!["a"; MAX_QUERY_NODES / 2].join("|"),
        // Full nesting with the node budget spent on the way out.
        "(".repeat(MAX_QUERY_NESTING) + "a" + &format!("){per_level}").repeat(MAX_QUERY_NESTING),
    ];
    let every_recursive_consumer = move || {
        let labels = interner();
        for text in &texts {
            let e = parse(text).unwrap();
            assert!(Nfa::compile(&e, &labels).state_count() >= 2);
            assert_eq!(parse(&e.to_string()).unwrap(), e);
            let _ = (e.max_word_len(), e.min_word_len(), e.last_labels());
            let set: std::collections::HashSet<PathExpr> = [e.clone()].into();
            assert!(set.contains(&e));
        }
    };
    let thread = std::thread::Builder::new().stack_size(512 * 1024);
    thread.spawn(every_recursive_consumer).unwrap().join().unwrap();
}
