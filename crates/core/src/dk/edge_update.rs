//! Algorithms 4 & 5: the D(k)-index edge-addition update (paper §5.2).
//!
//! Where the A(k)/1-index propagate update re-partitions extents by touching
//! the data graph, the D(k) update never splits anything: it computes the
//! highest local similarity `k_N` that the target index node can *keep*
//! (Algorithm 4, `Update_Local_Similarity` — a label-path comparison walked
//! entirely inside the index graph), assigns it, and lowers downstream
//! neighbors just enough to restore the Definition 3 constraint (Algorithm 5,
//! a breadth-first walk that stops as soon as a node already satisfies its
//! bound). The extents — and therefore the index size — are unchanged;
//! queries pay with more validation until a promoting pass runs.

use crate::dk::construct::DkIndex;
use crate::index_graph::IndexGraph;
use dkindex_graph::{DataGraph, EdgeKind, LabelId, LabeledGraph, NodeId};
use dkindex_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Outcome of a D(k) edge-addition update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeUpdateOutcome {
    /// The new local similarity assigned to the target index node (`k_N`).
    pub new_similarity: usize,
    /// Index nodes whose similarity the BFS lowered (including the target
    /// if its similarity actually decreased).
    pub lowered: u64,
    /// Index nodes touched by the whole update (Algorithm 4's path-set walk
    /// plus Algorithm 5's BFS) — the machine-independent work measure
    /// reported next to wall-clock in the Table 1 reproduction.
    pub index_nodes_touched: u64,
}

/// Algorithm 4: the maximal `k_N` such that every label path of length `k_N`
/// into `v_inode` *through* `u_inode` already matched `v_inode` in the index
/// graph before the new edge. Must be called **before** inserting the index
/// edge `u_inode → v_inode`.
pub fn update_local_similarity(
    index: &IndexGraph,
    u_inode: NodeId,
    v_inode: NodeId,
    touched: &mut u64,
) -> usize {
    let upbound = index
        .similarity(u_inode)
        .saturating_add(1)
        .min(index.similarity(v_inode));

    // Path sets keyed by label path (outermost label first), valued by the
    // index nodes at which matching node paths start. Ordered maps keep the
    // growth loop's walk deterministic (`core::dk` denies
    // `clippy::iter_over_hash_type`).
    type PathSet = BTreeMap<Vec<LabelId>, BTreeSet<NodeId>>;
    let mut new_paths: PathSet = BTreeMap::new();
    new_paths.insert(vec![index.label_of(u_inode)], [u_inode].into_iter().collect());
    let mut old_paths: PathSet = BTreeMap::new();
    for &p in index.parents_of(v_inode) {
        old_paths
            .entry(vec![index.label_of(p)])
            .or_default()
            .insert(p);
    }
    *touched += 1 + index.parents_of(v_inode).len() as u64;

    let extend = |paths: &PathSet, touched: &mut u64| -> PathSet {
        let mut out: PathSet = BTreeMap::new();
        for (path, starts) in paths {
            for &w in starts {
                for &x in index.parents_of(w) {
                    *touched += 1;
                    let mut longer = Vec::with_capacity(path.len() + 1);
                    longer.push(index.label_of(x));
                    longer.extend_from_slice(path);
                    out.entry(longer).or_default().insert(x);
                }
            }
        }
        out
    };

    let mut k_n = 0;
    while k_n < upbound {
        let subset = new_paths.keys().all(|p| old_paths.contains_key(p));
        if !subset {
            break;
        }
        k_n += 1;
        if k_n == upbound {
            break; // capped: no need to grow the path sets further
        }
        old_paths = extend(&old_paths, touched);
        new_paths = extend(&new_paths, touched);
        if new_paths.is_empty() {
            // No longer paths arrive through U at all: every (vacuously
            // absent) longer path matches; the cap is the only limit left.
            k_n = upbound;
            break;
        }
    }
    k_n
}

/// Algorithm 5: restore Definition 3 (`k(A) ≥ k(B) − 1` on every edge
/// `A → B`) downstream of `seeds` by lowering similarities breadth-first,
/// stopping at nodes that already satisfy their bound. The edge update
/// seeds it with its target node; re-indexing seeds it with every node,
/// which repairs a whole index and is a no-op on a well-formed one. Each
/// child examined counts in `outcome.index_nodes_touched`, each lowering
/// in `outcome.lowered`.
pub fn lower_downstream(
    index: &mut IndexGraph,
    seeds: impl IntoIterator<Item = NodeId>,
    outcome: &mut EdgeUpdateOutcome,
) {
    let mut queue: VecDeque<NodeId> = seeds.into_iter().collect();
    while let Some(w) = queue.pop_front() {
        let bound = index.similarity(w).saturating_add(1);
        let children: Vec<NodeId> = index.children_of(w).to_vec();
        for x in children {
            outcome.index_nodes_touched += 1;
            if bound < index.similarity(x) {
                index.set_similarity(x, bound);
                outcome.lowered += 1;
                queue.push_back(x);
            }
            // else: X unchanged — stop propagating through X.
        }
    }
}

impl DkIndex {
    /// Edge-addition update (Algorithms 4+5): add the data edge `u → v` and
    /// adjust local similarities. Never touches the data graph beyond the
    /// edge insertion itself, and never changes extents or index size.
    pub fn add_edge(&mut self, data: &mut DataGraph, u: NodeId, v: NodeId) -> EdgeUpdateOutcome {
        let _span = telemetry::Span::start(&telemetry::metrics::DK_EDGE_UPDATE_NS);
        // Nodes appended to the data graph since construction have no index
        // block yet; fold them in as singletons before resolving u and v.
        self.register_fresh_nodes(data);
        let mut outcome = EdgeUpdateOutcome::default();
        if !data.add_edge(u, v, EdgeKind::Reference) {
            outcome.new_similarity = self.index().similarity(self.index().index_of(v));
            return outcome; // duplicate edge: nothing changes
        }
        let u_inode = self.index().index_of(u);
        let v_inode = self.index().index_of(v);

        let k_n = update_local_similarity(
            self.index(),
            u_inode,
            v_inode,
            &mut outcome.index_nodes_touched,
        );
        outcome.new_similarity = k_n;

        let index = self.index_mut();
        index.add_index_edge(u_inode, v_inode);
        if k_n < index.similarity(v_inode) {
            index.set_similarity(v_inode, k_n);
            outcome.lowered += 1;
        }
        lower_downstream(index, [v_inode], &mut outcome);
        telemetry::metrics::DK_EDGE_UPDATES.incr();
        telemetry::metrics::DK_EDGE_NODES_LOWERED.add(outcome.lowered);
        telemetry::metrics::DK_EDGE_NODES_TOUCHED.add(outcome.index_nodes_touched);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{assert_stable, check_structure};
    use crate::eval::{evaluate_on_data, IndexEvaluator};
    use crate::requirements::Requirements;
    use dkindex_pathexpr::parse;

    /// The Figure 3 shape: chains a → b → c → d → e of index nodes, plus a
    /// side branch x → c whose `c` node has a *different* ancestry. Under
    /// uniform requirements the c-nodes split into C₁ = {c under b} and
    /// C₂ = {c under x}, and D already has a C₁ parent — the precondition of
    /// the paper's "D's local similarity can stay at 1" example.
    fn figure3_data() -> DataGraph {
        let mut g = DataGraph::new();
        let r = g.root();
        // Two identical chains a -> b -> c -> d -> e.
        for _ in 0..2 {
            let a = g.add_labeled_node("a");
            let b = g.add_labeled_node("b");
            let c = g.add_labeled_node("c");
            let d = g.add_labeled_node("d");
            let e = g.add_labeled_node("e");
            g.add_edge(r, a, EdgeKind::Tree);
            g.add_edge(a, b, EdgeKind::Tree);
            g.add_edge(b, c, EdgeKind::Tree);
            g.add_edge(c, d, EdgeKind::Tree);
            g.add_edge(d, e, EdgeKind::Tree);
        }
        // Side branch: x -> c (a `c` with different ancestry, no children).
        let x = g.add_labeled_node("x");
        let c_side = g.add_labeled_node("c");
        g.add_edge(r, x, EdgeKind::Tree);
        g.add_edge(x, c_side, EdgeKind::Tree);
        g
    }

    fn node(g: &DataGraph, label: &str, nth: usize) -> NodeId {
        g.nodes_with_label(g.labels().get(label).unwrap())[nth]
    }

    /// Regression for the ordered-PathSet rewrite (was `HashMap`/`HashSet`):
    /// the growth loop must walk its path sets in a declared order, so
    /// repeated runs of the same update sequence produce identical
    /// similarities, touch counts, and serialized index bytes in-process —
    /// the byte-identity contract `clippy::iter_over_hash_type` guards.
    #[test]
    fn repeated_update_runs_are_byte_identical() {
        let run = || {
            let mut g = figure3_data();
            let mut dk = DkIndex::build(&g, Requirements::uniform(4));
            let mut outcomes = Vec::new();
            for (from_label, from_n, to_label, to_n) in
                [("c", 2, "d", 0), ("a", 0, "e", 1), ("x", 0, "b", 0)]
            {
                let from = node(&g, from_label, from_n);
                let to = node(&g, to_label, to_n);
                let o = dk.add_edge(&mut g, from, to);
                outcomes.push((o.new_similarity, o.lowered, o.index_nodes_touched));
            }
            (outcomes, crate::snapshot::snapshot_bytes(&dk, &g))
        };
        let first = run();
        for _ in 0..4 {
            assert_eq!(run(), first, "edge update walk is schedule-dependent");
        }
    }

    #[test]
    fn figure3_new_edge_from_existing_parent_label_keeps_similarity_one() {
        // Paper §5.2: D has a parent labeled c, so adding the side-branch
        // c → d₁ keeps D's local similarity at 1 (not 0): the length-1 label
        // path [c] into D through the new edge already matched D, but the
        // length-2 path [x, c] did not. E is then lowered to 2.
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(4));
        let c_side = node(&g, "c", 2); // the c under x
        let d1 = node(&g, "d", 0);
        let outcome = dk.add_edge(&mut g, c_side, d1);
        assert_eq!(outcome.new_similarity, 1);
        let idx = dk.index();
        assert_eq!(idx.similarity(idx.index_of(d1)), 1);
        let e1 = node(&g, "e", 0);
        assert_eq!(idx.similarity(idx.index_of(e1)), 2);
        check_structure(idx, &g).unwrap();
        assert_stable(idx, &g, 5);
    }

    #[test]
    fn edge_from_unrelated_label_drops_similarity_to_zero() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(3));
        // a → e : e's extents have no a-labeled parents.
        let a1 = node(&g, "a", 0);
        let e1 = node(&g, "e", 0);
        let outcome = dk.add_edge(&mut g, a1, e1);
        assert_eq!(outcome.new_similarity, 0);
        let idx = dk.index();
        assert_eq!(idx.similarity(idx.index_of(e1)), 0);
        check_structure(idx, &g).unwrap();
    }

    #[test]
    fn size_is_unchanged_by_updates() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(3));
        let before = dk.size();
        for (from, to) in [("a", "e"), ("b", "d"), ("e", "a")] {
            let u = node(&g, from, 0);
            let v = node(&g, to, 1);
            dk.add_edge(&mut g, u, v);
        }
        assert_eq!(dk.size(), before);
        check_structure(dk.index(), &g).unwrap();
    }

    #[test]
    fn queries_remain_exact_after_updates() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(4));
        let b1 = node(&g, "b", 0);
        let d2 = node(&g, "d", 1);
        dk.add_edge(&mut g, b1, d2);
        for expr in ["a.b.c.d.e", "b.d", "c.d.e", "b.d.e", "_.d"] {
            let e = parse(expr).unwrap();
            let truth = evaluate_on_data(&g, &e).0;
            let out = IndexEvaluator::new(dk.index(), &g).evaluate(&e);
            assert_eq!(out.matches, truth, "{expr}");
        }
    }

    #[test]
    fn lowered_similarities_stay_sound() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(4));
        let a1 = node(&g, "a", 0);
        let e1 = node(&g, "e", 0);
        dk.add_edge(&mut g, a1, e1);
        // Claimed similarities never exceed actual bisimilarity.
        assert_stable(dk.index(), &g, 5);
    }

    #[test]
    fn bfs_stops_at_satisfied_nodes() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(4));
        // a → d lowers D to 0 and E to 1.
        let a1 = node(&g, "a", 0);
        let d1 = node(&g, "d", 0);
        let first = dk.add_edge(&mut g, a1, d1);
        assert_eq!(first.new_similarity, 0);
        let e1 = node(&g, "e", 0);
        {
            let idx = dk.index();
            assert_eq!(idx.similarity(idx.index_of(d1)), 0);
            assert_eq!(idx.similarity(idx.index_of(e1)), 1);
        }
        // a → c lowers C₁ to 0; D's bound becomes 1 but D is already at 0,
        // so the BFS stops there and E keeps its value.
        let c1 = node(&g, "c", 0);
        let second = dk.add_edge(&mut g, a1, c1);
        assert_eq!(second.new_similarity, 0);
        let idx = dk.index();
        assert_eq!(idx.similarity(idx.index_of(c1)), 0);
        assert_eq!(idx.similarity(idx.index_of(d1)), 0);
        assert_eq!(idx.similarity(idx.index_of(e1)), 1);
        assert_stable(idx, &g, 5);
    }

    #[test]
    fn add_edge_on_a_fresh_node_registers_a_singleton() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        let size_before = dk.size();
        // A node appended after construction: extent_of falls back to the
        // singleton, and add_edge registers it instead of panicking.
        let fresh = g.add_labeled_node("f");
        assert_eq!(dk.extent_of(fresh).as_ref(), &[fresh]);
        let b1 = node(&g, "b", 0);
        dk.add_edge(&mut g, b1, fresh);
        assert_eq!(dk.size(), size_before + 1);
        assert_eq!(dk.extent_of(fresh).as_ref(), &[fresh]);
        check_structure(dk.index(), &g).unwrap();
        // The fresh node is reachable through the index, exactly.
        let e = parse("b.f").unwrap();
        let out = IndexEvaluator::new(dk.index(), &g).evaluate(&e);
        assert_eq!(out.matches, evaluate_on_data(&g, &e).0);
        assert_eq!(out.matches, vec![fresh]);
        // An update *originating* at a fresh node also registers it.
        let fresh2 = g.add_labeled_node("f");
        let e1 = node(&g, "e", 0);
        dk.add_edge(&mut g, fresh2, e1);
        check_structure(dk.index(), &g).unwrap();
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(3));
        let a1 = node(&g, "a", 0);
        let b1 = node(&g, "b", 0);
        let sims_before: Vec<usize> = dk
            .index()
            .node_ids()
            .map(|i| dk.index().similarity(i))
            .collect();
        let outcome = dk.add_edge(&mut g, a1, b1); // a1 → b1 already exists
        assert_eq!(outcome.lowered, 0);
        let sims_after: Vec<usize> = dk
            .index()
            .node_ids()
            .map(|i| dk.index().similarity(i))
            .collect();
        assert_eq!(sims_before, sims_after);
    }

    #[test]
    fn update_touches_only_index_nodes() {
        // The touch counter is bounded by a polynomial in the (small) index
        // size, independent of extent sizes.
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(3));
        let a1 = node(&g, "a", 0);
        let e1 = node(&g, "e", 0);
        let outcome = dk.add_edge(&mut g, a1, e1);
        assert!(outcome.index_nodes_touched < 100);
    }

    #[test]
    fn parallel_chain_edge_keeps_full_similarity() {
        // c₁ → d₂ crosses the two identical chains: every label path through
        // C₁ into D already matched D, so k_N reaches the upbound
        // min(k_C₁ + 1, k_D).
        let mut g = figure3_data();
        let mut dk = DkIndex::build(&g, Requirements::uniform(4));
        let c1 = node(&g, "c", 0);
        let d2 = node(&g, "d", 1);
        let idx_kd = dk.index().similarity(dk.index().index_of(d2));
        let idx_kc = dk.index().similarity(dk.index().index_of(c1));
        let outcome = dk.add_edge(&mut g, c1, d2);
        assert_eq!(outcome.new_similarity, idx_kd.min(idx_kc + 1));
        assert_stable(dk.index(), &g, 5);
    }
}
