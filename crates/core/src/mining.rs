//! Query-load mining: deriving per-label local-similarity requirements from
//! a workload of path expressions (paper §6.1).
//!
//! "We set a label's local similarity requirement to be the longest length of
//! test path queries less one such that no validation will be needed for
//! evaluation on it." A query of `p` labels has path length `p − 1` (edges);
//! with the Definition 3 constraint, soundness needs the *result* node's
//! local similarity to reach that length, so each label a query can return
//! gets requirement `max(p) − 1` over the queries returning it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

use crate::requirements::Requirements;
use dkindex_pathexpr::PathExpr;

/// Mine requirements from a query load (each query weighted equally).
///
/// * Queries ending in a wildcard raise the floor for every label.
/// * Unbounded queries (containing `*`) are skipped: no finite similarity
///   makes them validation-free, and the paper's workloads contain none.
pub fn mine_requirements(queries: &[PathExpr]) -> Requirements {
    let mut reqs = Requirements::new();
    for q in queries {
        let Some(p) = q.max_word_len() else {
            continue; // unbounded
        };
        let needed = p.saturating_sub(1);
        if needed == 0 {
            continue;
        }
        let last = q.last_labels();
        if last.wildcard {
            reqs.raise_floor(needed);
        }
        for label in &last.labels {
            reqs.raise(label, needed);
        }
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_pathexpr::parse;

    #[test]
    fn linear_paths_set_last_label_requirement() {
        let qs = vec![
            parse("director.movie.title").unwrap(),
            parse("movie.title").unwrap(),
            parse("actor.name").unwrap(),
        ];
        let r = mine_requirements(&qs);
        assert_eq!(r.get("title"), 2); // longest query: 3 labels → length 2
        assert_eq!(r.get("name"), 1);
        assert_eq!(r.get("movie"), 0); // never a result label
    }

    #[test]
    fn optional_parts_use_max_length() {
        let qs = vec![parse("movieDB.(_)?.movie.actor.name").unwrap()];
        let r = mine_requirements(&qs);
        assert_eq!(r.get("name"), 4); // max 5 labels → length 4
    }

    #[test]
    fn wildcard_tail_raises_floor() {
        let qs = vec![parse("movie._").unwrap()];
        let r = mine_requirements(&qs);
        assert_eq!(r.floor(), 1);
        assert_eq!(r.get("anything"), 1);
    }

    #[test]
    fn alternation_raises_all_branch_tails() {
        let qs = vec![parse("movie.(title|year)").unwrap()];
        let r = mine_requirements(&qs);
        assert_eq!(r.get("title"), 1);
        assert_eq!(r.get("year"), 1);
    }

    #[test]
    fn unbounded_queries_are_skipped() {
        let qs = vec![parse("movie.title*").unwrap()];
        let r = mine_requirements(&qs);
        // title* can end in `movie` (nullable tail) — movie gets a
        // requirement only if the expression were bounded; it is not.
        assert_eq!(r.max_requirement(), 0);
    }

    #[test]
    fn single_label_queries_need_nothing() {
        let qs = vec![parse("title").unwrap()];
        assert_eq!(mine_requirements(&qs).max_requirement(), 0);
    }
}
