//! Property-based tests over random graphs: the safety, soundness and
//! structural invariants of every summary, checked against the naive
//! oracles (pairwise k-bisimilarity, direct data-graph evaluation).

use dkindex::core::{
    audit, check_structure, eval_oracle, evaluate_on_data, AkIndex, AuditConfig, DkIndex,
    IndexEvaluator, IndexGraph, Invariant, Requirements,
};
use dkindex::graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use dkindex::partition::{k_bisimulation, KBisimTable};
use dkindex::pathexpr::{LabelIndex, PathExpr};
use proptest::prelude::*;

/// A compact generator description proptest can shrink: a labeled tree given
/// by parent pointers, plus extra reference edges.
#[derive(Clone, Debug)]
struct GraphSpec {
    /// labels[i] in 0..label_count for node i.
    labels: Vec<u8>,
    /// parents[i] in 0..=i (0 = the root) for node i+1... encoded as raw
    /// values reduced modulo the number of existing nodes.
    parents: Vec<u8>,
    /// (from, to) raw values reduced modulo node count.
    refs: Vec<(u8, u8)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        prop::collection::vec(0u8..5, 1..30),
        prop::collection::vec(any::<u8>(), 1..30),
        prop::collection::vec((any::<u8>(), any::<u8>()), 0..10),
    )
        .prop_map(|(labels, parents, refs)| GraphSpec {
            parents: parents[..labels.len().min(parents.len())].to_vec(),
            labels: labels[..labels.len().min(parents.len())].to_vec(),
            refs,
        })
}

fn build(spec: &GraphSpec) -> DataGraph {
    let mut g = DataGraph::new();
    let label_ids: Vec<_> = (0..5).map(|i| g.intern(&format!("l{i}"))).collect();
    let mut nodes = vec![g.root()];
    for (i, (&label, &parent)) in spec.labels.iter().zip(&spec.parents).enumerate() {
        let node = g.add_node(label_ids[label as usize]);
        let p = nodes[(parent as usize) % (i + 1)];
        g.add_edge(p, node, EdgeKind::Tree);
        nodes.push(node);
    }
    for &(from, to) in &spec.refs {
        let u = nodes[(from as usize) % nodes.len()];
        let v = nodes[(to as usize) % nodes.len()];
        if u != v {
            g.add_edge(u, v, EdgeKind::Reference);
        }
    }
    g
}

/// No extent of `index` is stale: its members agree on incoming label paths
/// up to `k + 1` labels, with `k` checked up to 4 — what Theorem 1 soundness
/// rests on, and what Algorithms 3–6 must keep truthful.
fn stable(index: &IndexGraph, g: &DataGraph) -> Result<(), TestCaseError> {
    let config = AuditConfig { stability_cap: 4, ..AuditConfig::default() };
    let report = audit(index, &Requirements::new(), g, &config);
    let stale = report.findings_for(Invariant::Stability).next().map(TestCaseError::fail);
    stale.map_or(Ok(()), Err)
}

/// Linear path queries derived from the graph: every walk that exists, plus
/// perturbed ones that may not.
fn queries_for(g: &DataGraph, salt: u64) -> Vec<PathExpr> {
    let mut queries = Vec::new();
    let mut x = salt.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x as usize) % m.max(1)
    };
    for _ in 0..8 {
        let start = NodeId::from_index(next(g.node_count()));
        let mut labels = vec![g.label_name(start).to_string()];
        let mut cur = start;
        for _ in 0..next(4) + 1 {
            let children = g.children_of(cur);
            if children.is_empty() {
                break;
            }
            cur = children[next(children.len())];
            labels.push(g.label_name(cur).to_string());
        }
        // Occasionally perturb a label so some queries match nothing.
        if next(4) == 0 {
            let i = next(labels.len());
            labels[i] = format!("l{}", next(5));
        }
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        queries.push(PathExpr::path(&refs));
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The signature-based k-bisimulation equals the naive Definition-2
    /// oracle on random graphs.
    #[test]
    fn partition_matches_naive_oracle(spec in graph_spec(), k in 0usize..4) {
        let g = build(&spec);
        let part = k_bisimulation(&g, k);
        let table = KBisimTable::compute(&g, k);
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(part.same_block(u, v), table.bisimilar(u, v));
            }
        }
    }

    /// A(k+1) refines A(k) on random graphs.
    #[test]
    fn ak_chain_is_monotone(spec in graph_spec()) {
        let g = build(&spec);
        let mut prev = k_bisimulation(&g, 0);
        for k in 1..4 {
            let next = k_bisimulation(&g, k);
            prop_assert!(next.is_refinement_of(&prev));
            prev = next;
        }
    }

    /// D(k) with uniform requirements equals A(k) (Definition 3 discussion).
    #[test]
    fn dk_uniform_equals_ak(spec in graph_spec(), k in 0usize..4) {
        let g = build(&spec);
        let dk = DkIndex::build(&g, Requirements::uniform(k));
        let ak = k_bisimulation(&g, k);
        prop_assert!(dk.index().to_partition().same_equivalence(&ak));
    }

    /// Every summary returns exactly the data-graph answer after validation
    /// (safety + validation-completeness), and D(k) maintains its invariants.
    #[test]
    fn summaries_are_exact_on_random_graphs(
        spec in graph_spec(),
        salt in any::<u64>(),
        req_label in 0u8..5,
        req_k in 0usize..4,
    ) {
        let g = build(&spec);
        let queries = queries_for(&g, salt);
        let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);
        let dk = DkIndex::build(&g, reqs);
        check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        let ak = AkIndex::build(&g, 2);
        for q in &queries {
            let truth = evaluate_on_data(&g, q).0;
            let dk_out = IndexEvaluator::new(dk.index(), &g).evaluate(q);
            prop_assert_eq!(&dk_out.matches, &truth, "D(k) wrong on {}", q);
            let ak_out = IndexEvaluator::new(ak.index(), &g).evaluate(q);
            prop_assert_eq!(&ak_out.matches, &truth, "A(2) wrong on {}", q);
        }
    }

    /// D(k) similarity claims never exceed true extent bisimilarity.
    #[test]
    fn dk_similarity_claims_are_truthful(
        spec in graph_spec(),
        req_label in 0u8..5,
        req_k in 0usize..4,
    ) {
        let g = build(&spec);
        let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);
        let dk = DkIndex::build(&g, reqs);
        dk.index()
            .check_extent_bisimilarity(&g, 5)
            .map_err(TestCaseError::fail)?;
    }

    /// Edge updates preserve invariants, truthfulness and exactness.
    #[test]
    fn edge_updates_preserve_everything(
        spec in graph_spec(),
        salt in any::<u64>(),
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut g = build(&spec);
        let mut dk = DkIndex::build(&g, Requirements::uniform(2));
        for (from, to) in edges {
            let u = NodeId::from_index((from as usize) % g.node_count());
            let v = NodeId::from_index((to as usize) % g.node_count());
            if u == v {
                continue;
            }
            dk.add_edge(&mut g, u, v);
            check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        }
        stable(dk.index(), &g)?;
        for q in queries_for(&g, salt) {
            let truth = evaluate_on_data(&g, &q).0;
            let out = IndexEvaluator::new(dk.index(), &g).evaluate(&q);
            prop_assert_eq!(&out.matches, &truth, "wrong after updates on {}", q);
        }
    }

    /// Promote then verify: claims stay truthful and the requirement is met.
    #[test]
    fn promotion_is_truthful(
        spec in graph_spec(),
        target in any::<u8>(),
        k in 1usize..4,
    ) {
        let g = build(&spec);
        let mut dk = DkIndex::build(&g, Requirements::new());
        let node = NodeId::from_index((target as usize) % g.node_count());
        dk.promote(&g, node, k);
        check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        dk.index()
            .check_extent_bisimilarity(&g, 5)
            .map_err(TestCaseError::fail)?;
        let inode = dk.index().index_of(node);
        prop_assert!(dk.index().similarity(inode) >= k);
    }

    /// Demote after random updates: still sound, still exact.
    #[test]
    fn demotion_is_truthful(
        spec in graph_spec(),
        salt in any::<u64>(),
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..4),
    ) {
        let mut g = build(&spec);
        let mut dk = DkIndex::build(&g, Requirements::uniform(3));
        for (from, to) in edges {
            let u = NodeId::from_index((from as usize) % g.node_count());
            let v = NodeId::from_index((to as usize) % g.node_count());
            if u != v {
                dk.add_edge(&mut g, u, v);
            }
        }
        dk.demote(Requirements::uniform(1));
        check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        stable(dk.index(), &g)?;
        for q in queries_for(&g, salt) {
            let truth = evaluate_on_data(&g, &q).0;
            let out = IndexEvaluator::new(dk.index(), &g).evaluate(&q);
            prop_assert_eq!(&out.matches, &truth, "wrong after demote on {}", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Subgraph addition on random graphs. Theorem 2's *equality* with a
    /// from-scratch rebuild only holds when the graft does not change the
    /// broadcast requirements (DESIGN.md §3 discusses the gap in the
    /// paper's sketch); what is guaranteed unconditionally — and asserted
    /// here — is that the incremental index stays truthful and exact, and
    /// that a promotion pass restores requirement-level soundness.
    #[test]
    fn subgraph_addition_stays_sound_and_exact(
        base in graph_spec(),
        sub in graph_spec(),
        salt in any::<u64>(),
        req_label in 0u8..5,
        req_k in 0usize..3,
    ) {
        let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);

        let mut g = build(&base);
        let h = build(&sub);
        let mut dk = DkIndex::build(&g, reqs.clone());
        dk.add_subgraph(&mut g, &h);
        check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        stable(dk.index(), &g)?;
        for q in queries_for(&g, salt) {
            let truth = evaluate_on_data(&g, &q).0;
            let out = IndexEvaluator::new(dk.index(), &g).evaluate(&q);
            prop_assert_eq!(&out.matches, &truth, "wrong after add_subgraph on {}", q);
        }
        // A promotion pass restores the user requirements everywhere.
        dk.promote_to_requirements(&g);
        check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        let table = dk.requirements().resolve(dk.index().labels());
        for inode in dk.index().node_ids() {
            let want = table[dk.index().label_of(inode).index()];
            prop_assert!(dk.index().similarity(inode) >= want);
        }
    }

    /// The A(k) propagate update keeps the index safe (a refinement of the
    /// true A(k)) and query-exact on random graphs.
    #[test]
    fn ak_update_is_safe_on_random_graphs(
        spec in graph_spec(),
        salt in any::<u64>(),
        k in 1usize..3,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..4),
    ) {
        let mut g = build(&spec);
        let mut ak = AkIndex::build(&g, k);
        for (from, to) in edges {
            let u = NodeId::from_index((from as usize) % g.node_count());
            let v = NodeId::from_index((to as usize) % g.node_count());
            if u == v {
                continue;
            }
            ak.add_edge(&mut g, u, v);
            check_structure(ak.index(), &g).map_err(TestCaseError::fail)?;
        }
        // Refinement of the freshly built A(k): never under-split.
        let fresh = k_bisimulation(&g, k);
        prop_assert!(ak.index().to_partition().is_refinement_of(&fresh));
        for q in queries_for(&g, salt) {
            let truth = evaluate_on_data(&g, &q).0;
            let out = IndexEvaluator::new(ak.index(), &g).evaluate(&q);
            prop_assert_eq!(&out.matches, &truth, "A({}) wrong on {}", k, q);
        }
    }

    /// The adaptive tuner preserves exactness and invariants across tuning
    /// rounds driven by arbitrary query streams.
    #[test]
    fn tuner_preserves_exactness(spec in graph_spec(), salt in any::<u64>()) {
        use dkindex::core::{apply_serial, Tuner, TunerConfig};
        let mut g = build(&spec);
        let queries = queries_for(&g, salt);
        let mut dk = DkIndex::build(&g, Requirements::new());
        let tuner = Tuner::new(g.labels_shared(), TunerConfig { window: 4, min_support: 1 });
        for round in 0..3 {
            for q in &queries {
                let out = IndexEvaluator::new(dk.index(), &g).evaluate(q);
                tuner.record(q, out.validated, false);
                let truth = evaluate_on_data(&g, q).0;
                prop_assert_eq!(&out.matches, &truth, "round {} query {}", round, q);
            }
            if let Some(op) = tuner.step(dk.requirements()) {
                apply_serial(&mut dk, &mut g, &[op]);
            }
            check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The worklist coarsest refinement (`OneIndex::build`'s engine) and its
    /// oracle, the signature fixpoint, compute the same bisimulation
    /// partition.
    #[test]
    fn coarsest_refinement_agrees_with_the_fixpoint_oracle(spec in graph_spec()) {
        use dkindex::partition::{bisimulation_fixpoint, coarsest_stable_refinement};
        let g = build(&spec);
        let worklist = coarsest_stable_refinement(&g);
        prop_assert!(worklist.same_equivalence(&bisimulation_fixpoint(&g)));
        worklist.check_consistency().map_err(TestCaseError::fail)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The evaluator (reused arena + validation memo) returns byte-identical
    /// matches AND costs to the independent oracle, including on repeated
    /// queries where the memo replays stored verdicts — and its bounded
    /// entry, handed exactly the oracle's cost, returns the same outcome
    /// while one visit less is a typed abort.
    #[test]
    fn evaluator_matches_oracle_byte_for_byte(
        spec in graph_spec(),
        salt in any::<u64>(),
        req_label in 0u8..5,
        req_k in 0usize..4,
    ) {
        let g = build(&spec);
        let queries = queries_for(&g, salt);
        let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);
        let dk = DkIndex::build(&g, reqs);
        let ak = AkIndex::build(&g, 2);
        for index in [dk.index(), ak.index()] {
            let labels = LabelIndex::build(index);
            let mut evaluator = IndexEvaluator::new(index, &g);
            // Two passes: the second runs with a warm arena and a populated
            // validation memo, which must not change any outcome.
            for _pass in 0..2 {
                for q in &queries {
                    let want = eval_oracle::evaluate(index, &g, &labels, q);
                    prop_assert_eq!(&evaluator.evaluate(q), &want, "evaluator != oracle on {}", q);
                    let total = want.cost.total();
                    let exact = evaluator.evaluate_bounded(q, total);
                    prop_assert_eq!(exact.as_ref(), Ok(&want), "exact budget on {}", q);
                    if total > 0 {
                        let short = evaluator.evaluate_bounded(q, total - 1);
                        prop_assert!(short.is_err(), "budget {} answered {}", total - 1, q);
                    }
                }
            }
        }
    }

    /// The interned-signature engine reproduces the reference partitions
    /// exactly: D(k) construction against `dk_partition_reference`, A(k)
    /// against `refine::k_bisimulation`, also on a reused engine.
    #[test]
    fn engine_construction_matches_the_references(
        spec in graph_spec(),
        req_label in 0u8..5,
        req_k in 0usize..4,
    ) {
        use dkindex::core::dk::{dk_partition, dk_partition_reference};
        use dkindex::partition::RefineEngine;

        let g = build(&spec);
        let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);
        let (ref_part, ref_sims) = dk_partition_reference(&g, &reqs, true);
        let (part, sims) = dk_partition(&g, &reqs);
        prop_assert_eq!(&part, &ref_part, "D(k) partition differs");
        prop_assert_eq!(&sims, &ref_sims, "D(k) similarities differ");
        let mut engine = RefineEngine::new();
        for k in [2, 0, 3] {
            prop_assert_eq!(engine.k_bisimulation(&g, k), k_bisimulation(&g, k), "A({})", k);
        }
    }
}
