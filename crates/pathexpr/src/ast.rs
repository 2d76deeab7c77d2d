//! Abstract syntax for regular path expressions (paper §3):
//!
//! ```text
//! R  =  label  |  _  |  R.R  |  R|R  |  (R)  |  R?  |  R*
//! ```
//!
//! where `_` matches any single label. A path expression denotes a regular
//! language over the label alphabet; it matches a data node `n` when the
//! label path of some word in the language matches a node path ending in `n`.

use std::fmt;

/// A regular path expression over label names.
///
/// The derived `Ord` gives path expressions a total order (structural,
/// variant-then-operand), which deterministic consumers — the tuner's
/// observation window, sorted query streams — use to key `BTreeMap`s
/// instead of hash containers whose iteration order varies per process.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathExpr {
    /// A single label, e.g. `movie`.
    Label(String),
    /// The wildcard `_`, matching any single label.
    Wildcard,
    /// Sequence `R.S`.
    Seq(Box<PathExpr>, Box<PathExpr>),
    /// Alternation `R|S`.
    Alt(Box<PathExpr>, Box<PathExpr>),
    /// Optional `R?` (zero or one).
    Opt(Box<PathExpr>),
    /// Repetition `R*` (zero or more).
    Star(Box<PathExpr>),
}

impl PathExpr {
    /// Build the sequence `a.b` without manual boxing.
    pub fn seq(a: PathExpr, b: PathExpr) -> PathExpr {
        PathExpr::Seq(Box::new(a), Box::new(b))
    }

    /// Build the alternation `a|b` without manual boxing.
    pub fn alt(a: PathExpr, b: PathExpr) -> PathExpr {
        PathExpr::Alt(Box::new(a), Box::new(b))
    }

    /// Build `a?`.
    pub fn opt(a: PathExpr) -> PathExpr {
        PathExpr::Opt(Box::new(a))
    }

    /// Build `a*`.
    pub fn star(a: PathExpr) -> PathExpr {
        PathExpr::Star(Box::new(a))
    }

    /// Build a label atom.
    pub fn label(name: impl Into<String>) -> PathExpr {
        PathExpr::Label(name.into())
    }

    /// Build the linear path `l1.l2...ln` from a slice of label names.
    ///
    /// # Panics
    /// Panics on an empty slice — the grammar has no empty expression.
    pub fn path(labels: &[&str]) -> PathExpr {
        let mut it = labels.iter();
        let first = it.next().expect("path needs at least one label");
        let mut expr = PathExpr::label(*first);
        for l in it {
            expr = PathExpr::seq(expr, PathExpr::label(*l));
        }
        expr
    }

    /// Length (in labels) of the *longest* word in the language, or `None`
    /// when the language is unbounded (contains a `*` on a non-empty
    /// sub-expression).
    ///
    /// The paper measures query length in **edges**: a label path
    /// `l1.l2...l_{m+1}` has length `m`. The soundness test for an index
    /// node therefore compares its local similarity against
    /// `max_word_len() - 1`.
    pub fn max_word_len(&self) -> Option<usize> {
        match self {
            PathExpr::Label(_) | PathExpr::Wildcard => Some(1),
            PathExpr::Seq(a, b) => Some(a.max_word_len()?.checked_add(b.max_word_len()?)?),
            PathExpr::Alt(a, b) => Some(a.max_word_len()?.max(b.max_word_len()?)),
            PathExpr::Opt(a) => a.max_word_len(),
            PathExpr::Star(a) => {
                // `R*` is unbounded unless R's language is {ε} — which the
                // grammar cannot express, so any Star is unbounded.
                let _ = a;
                None
            }
        }
    }

    /// Length (in labels) of the *shortest* word in the language.
    pub fn min_word_len(&self) -> usize {
        match self {
            PathExpr::Label(_) | PathExpr::Wildcard => 1,
            PathExpr::Seq(a, b) => a.min_word_len() + b.min_word_len(),
            PathExpr::Alt(a, b) => a.min_word_len().min(b.min_word_len()),
            PathExpr::Opt(_) | PathExpr::Star(_) => 0,
        }
    }

    /// The label names that can end a word of the language — the labels of
    /// nodes the query can *return*. Query-load mining attributes a query's
    /// similarity requirement to exactly these labels (`None` entry means a
    /// wildcard can end the word, so every label is returnable).
    pub fn last_labels(&self) -> LastLabels {
        match self {
            PathExpr::Label(l) => LastLabels {
                labels: vec![l.clone()],
                wildcard: false,
                nullable: false,
            },
            PathExpr::Wildcard => LastLabels {
                labels: Vec::new(),
                wildcard: true,
                nullable: false,
            },
            PathExpr::Seq(a, b) => {
                let lb = b.last_labels();
                if lb.nullable {
                    let la = a.last_labels();
                    LastLabels {
                        labels: merge(la.labels, lb.labels),
                        wildcard: la.wildcard || lb.wildcard,
                        nullable: la.nullable, // seq nullable iff both nullable
                    }
                } else {
                    lb
                }
            }
            PathExpr::Alt(a, b) => {
                let la = a.last_labels();
                let lb = b.last_labels();
                LastLabels {
                    labels: merge(la.labels, lb.labels),
                    wildcard: la.wildcard || lb.wildcard,
                    nullable: la.nullable || lb.nullable,
                }
            }
            PathExpr::Opt(a) | PathExpr::Star(a) => {
                let la = a.last_labels();
                LastLabels {
                    labels: la.labels,
                    wildcard: la.wildcard,
                    nullable: true,
                }
            }
        }
    }
}

fn merge(mut a: Vec<String>, b: Vec<String>) -> Vec<String> {
    for l in b {
        if !a.contains(&l) {
            a.push(l);
        }
    }
    a
}

/// Result of [`PathExpr::last_labels`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LastLabels {
    /// Concrete labels that can end a word.
    pub labels: Vec<String>,
    /// True if a wildcard can end a word (any label is returnable).
    pub wildcard: bool,
    /// True if the language contains the empty word.
    pub nullable: bool,
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print with minimal parentheses: alternation < sequence < postfix.
        fn prec(e: &PathExpr) -> u8 {
            match e {
                PathExpr::Alt(..) => 0,
                PathExpr::Seq(..) => 1,
                _ => 2,
            }
        }
        fn go(e: &PathExpr, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
            let p = prec(e);
            if p < min {
                write!(f, "(")?;
            }
            match e {
                PathExpr::Label(l) => write!(f, "{l}")?,
                PathExpr::Wildcard => write!(f, "_")?,
                PathExpr::Seq(a, b) => {
                    go(a, f, 1)?;
                    write!(f, ".")?;
                    go(b, f, 1)?;
                }
                PathExpr::Alt(a, b) => {
                    go(a, f, 0)?;
                    write!(f, "|")?;
                    go(b, f, 0)?;
                }
                PathExpr::Opt(a) => {
                    go(a, f, 2)?;
                    write!(f, "?")?;
                }
                PathExpr::Star(a) => {
                    go(a, f, 2)?;
                    write!(f, "*")?;
                }
            }
            if p < min {
                write!(f, ")")?;
            }
            Ok(())
        }
        go(self, f, 0)
    }
}

impl fmt::Debug for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathExpr({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_linear_path() {
        let e = PathExpr::path(&["director", "movie", "title"]);
        assert_eq!(e.to_string(), "director.movie.title");
    }

    #[test]
    fn display_paper_example_with_optional_wildcard() {
        // movieDB.(_)?.movie.actor.name from the paper's §3.
        let e = PathExpr::seq(
            PathExpr::seq(
                PathExpr::seq(
                    PathExpr::seq(PathExpr::label("movieDB"), PathExpr::opt(PathExpr::Wildcard)),
                    PathExpr::label("movie"),
                ),
                PathExpr::label("actor"),
            ),
            PathExpr::label("name"),
        );
        assert_eq!(e.to_string(), "movieDB._?.movie.actor.name");
    }

    #[test]
    fn display_parenthesizes_alternation_in_sequence() {
        let e = PathExpr::seq(
            PathExpr::alt(PathExpr::label("a"), PathExpr::label("b")),
            PathExpr::label("c"),
        );
        assert_eq!(e.to_string(), "(a|b).c");
    }

    #[test]
    fn word_length_bounds() {
        let e = PathExpr::path(&["a", "b", "c"]);
        assert_eq!(e.max_word_len(), Some(3));
        assert_eq!(e.min_word_len(), 3);

        let opt = PathExpr::seq(PathExpr::label("a"), PathExpr::opt(PathExpr::label("b")));
        assert_eq!(opt.max_word_len(), Some(2));
        assert_eq!(opt.min_word_len(), 1);

        let star = PathExpr::seq(PathExpr::label("a"), PathExpr::star(PathExpr::label("b")));
        assert_eq!(star.max_word_len(), None);
        assert_eq!(star.min_word_len(), 1);

        let alt = PathExpr::alt(PathExpr::label("a"), PathExpr::path(&["b", "c"]));
        assert_eq!(alt.max_word_len(), Some(2));
        assert_eq!(alt.min_word_len(), 1);
    }

    #[test]
    fn last_labels_of_linear_path() {
        let e = PathExpr::path(&["director", "movie", "title"]);
        let last = e.last_labels();
        assert_eq!(last.labels, vec!["title".to_string()]);
        assert!(!last.wildcard && !last.nullable);
    }

    #[test]
    fn last_labels_skip_nullable_tail() {
        // a.b? can end in b or in a.
        let e = PathExpr::seq(PathExpr::label("a"), PathExpr::opt(PathExpr::label("b")));
        let last = e.last_labels();
        assert!(last.labels.contains(&"a".to_string()));
        assert!(last.labels.contains(&"b".to_string()));
        assert!(!last.nullable);
    }

    #[test]
    fn last_labels_wildcard_tail() {
        let e = PathExpr::seq(PathExpr::label("a"), PathExpr::Wildcard);
        let last = e.last_labels();
        assert!(last.wildcard);
        assert!(last.labels.is_empty());
    }

    #[test]
    fn last_labels_alt_unions() {
        let e = PathExpr::alt(PathExpr::label("x"), PathExpr::label("y"));
        let last = e.last_labels();
        assert_eq!(last.labels.len(), 2);
    }

    #[test]
    fn star_is_nullable() {
        let e = PathExpr::star(PathExpr::label("a"));
        assert!(e.last_labels().nullable);
        assert_eq!(e.min_word_len(), 0);
    }
}
