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

/// Mine requirements from a weighted query load, ignoring queries whose
/// frequency falls below `min_support` — "the choice of k_A should guarantee
/// that the majority of queries accessing A are ≤ k_A in length" (§4.1):
/// rare long queries are cheaper to validate than to index for.
pub fn mine_requirements_weighted(
    queries: &[(PathExpr, u64)],
    min_support: u64,
) -> Requirements {
    // A weight of zero means the query was never observed, so it carries no
    // support regardless of the threshold: mining over the weighted load is
    // exactly mining over its multiset expansion.
    let supported: Vec<PathExpr> = queries
        .iter()
        .filter(|&&(_, w)| w > 0 && w >= min_support)
        .map(|(q, _)| q.clone())
        .collect();
    mine_requirements(&supported)
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

    /// Property: with `min_support` 0 the weighted miner is exactly the
    /// unweighted miner over the multiset expansion (each query repeated
    /// `weight` times) — weights select, they never scale requirements.
    /// Seeded pseudo-random workloads over a mixed query pool, many draws.
    #[test]
    fn zero_support_weighted_mining_equals_multiset_expansion() {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let pool: Vec<PathExpr> = [
            "title",
            "movie.title",
            "director.movie.title",
            "movieDB.(_)?.movie.actor.name",
            "movie.(title|year)",
            "movie._",
            "a.b.c.d.e",
            "movie.title*",
            "_._.year",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        let mut rng = 0xD11E_5EEDu64;
        for _ in 0..200 {
            let n = 1 + (splitmix64(&mut rng) as usize % pool.len());
            let weighted: Vec<(PathExpr, u64)> = (0..n)
                .map(|_| {
                    let q = pool[splitmix64(&mut rng) as usize % pool.len()].clone();
                    (q, splitmix64(&mut rng) % 5) // weight 0..=4, zeros allowed
                })
                .collect();
            let expanded: Vec<PathExpr> = weighted
                .iter()
                .flat_map(|(q, w)| std::iter::repeat_n(q.clone(), *w as usize))
                .collect();
            assert_eq!(
                mine_requirements_weighted(&weighted, 0),
                mine_requirements(&expanded),
                "diverged on workload {weighted:?}"
            );
        }
    }

    #[test]
    fn weighted_mining_drops_rare_queries() {
        let qs = vec![
            (parse("a.b.c.d.e").unwrap(), 1),   // rare long query
            (parse("movie.title").unwrap(), 99), // common short query
        ];
        let r = mine_requirements_weighted(&qs, 10);
        assert_eq!(r.get("e"), 0);
        assert_eq!(r.get("title"), 1);
        let all = mine_requirements_weighted(&qs, 0);
        assert_eq!(all.get("e"), 4);
    }
}
