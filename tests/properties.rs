//! Property-based tests over random graphs: the safety, soundness and
//! structural invariants of every summary, checked against the naive
//! oracles (pairwise k-bisimilarity, direct data-graph evaluation).

use dkindex::core::{
    apply_serial, audit, check_structure, eval_oracle, evaluate_on_data, mine_requirements,
    read_snapshot, snapshot_bytes, AkIndex, AuditConfig, DkIndex, DkServer, IndexEvaluator, IndexGraph,
    Invariant, Requirements, ServeConfig, ServeOp,
};
use dkindex::graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use dkindex::partition::{k_bisimulation, KBisimTable};
use dkindex::pathexpr::{parse, LabelIndex, PathExpr};
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

/// The body of `edge_updates_preserve_everything`.
fn edge_updates_preserve_everything_on(
    spec: &GraphSpec,
    salt: u64,
    edges: &[(u8, u8)],
) -> Result<(), TestCaseError> {
    let mut g = build(spec);
    let mut dk = DkIndex::build(&g, Requirements::uniform(2));
    for &(from, to) in edges {
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
    Ok(())
}

/// The body of `promotion_is_truthful`.
fn promotion_is_truthful_on(spec: &GraphSpec, target: u8, k: usize) -> Result<(), TestCaseError> {
    let g = build(spec);
    let mut dk = DkIndex::build(&g, Requirements::new());
    let node = NodeId::from_index((target as usize) % g.node_count());
    dk.promote(&g, node, k);
    check_structure(dk.index(), &g).map_err(TestCaseError::fail)?;
    dk.index()
        .check_extent_bisimilarity(&g, 5)
        .map_err(TestCaseError::fail)?;
    let inode = dk.index().index_of(node);
    prop_assert!(dk.index().similarity(inode) >= k);
    Ok(())
}

/// The body of `subgraph_addition_stays_sound_and_exact`.
fn subgraph_addition_stays_sound_and_exact_on(
    base: &GraphSpec,
    sub: &GraphSpec,
    salt: u64,
    req_label: u8,
    req_k: usize,
) -> Result<(), TestCaseError> {
    let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);

    let mut g = build(base);
    let h = build(sub);
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
    Ok(())
}

// Shrunk failing cases an earlier run of real proptest recorded for three of
// the properties below, replayed by name: the proptest shim reads no
// regression file.

#[test]
fn promotion_is_truthful_on_its_recorded_case() {
    let spec = GraphSpec {
        labels: vec![0, 0, 0, 0, 0],
        parents: vec![0, 0, 0, 0, 0],
        refs: vec![(0, 0), (127, 237), (231, 46)],
    };
    promotion_is_truthful_on(&spec, 37, 2).unwrap();
}

#[test]
fn edge_updates_preserve_everything_on_its_recorded_case() {
    let spec = GraphSpec {
        labels: vec![0, 0, 0, 0, 4, 0, 1, 0, 0, 4, 0, 0, 0, 0, 0],
        parents: vec![0, 0, 0, 0, 0, 0, 0, 13, 0, 18, 0, 0, 6, 75, 0],
        refs: vec![(8, 37)],
    };
    let edges = [(25, 13), (248, 1), (77, 49), (58, 158), (216, 68)];
    edge_updates_preserve_everything_on(&spec, 1_727_867, &edges).unwrap();
}

/// Recorded before the property drew a query salt, so it runs over a few.
#[test]
fn subgraph_addition_stays_sound_and_exact_on_its_recorded_case() {
    let base = GraphSpec {
        labels: vec![0, 0, 0, 0, 0, 3, 0, 2, 3],
        parents: vec![0, 0, 0, 0, 0, 48, 0, 0, 1],
        refs: vec![],
    };
    let sub = GraphSpec {
        labels: vec![0, 0, 0, 0, 0, 3, 1],
        parents: vec![5, 50, 135, 218, 79, 140, 230],
        refs: vec![
            (209, 98),
            (189, 64),
            (113, 83),
            (165, 160),
            (119, 203),
            (53, 113),
            (152, 8),
            (13, 137),
        ],
    };
    for salt in [0, 1, 2, 0x5EED, u64::MAX] {
        subgraph_addition_stays_sound_and_exact_on(&base, &sub, salt, 1, 2).unwrap();
    }
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
        edge_updates_preserve_everything_on(&spec, salt, &edges)?;
    }

    /// Promote then verify: claims stay truthful and the requirement is met.
    #[test]
    fn promotion_is_truthful(
        spec in graph_spec(),
        target in any::<u8>(),
        k in 1usize..4,
    ) {
        promotion_is_truthful_on(&spec, target, k)?;
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
        subgraph_addition_stays_sound_and_exact_on(&base, &sub, salt, req_label, req_k)?;
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
                tuner.record(q, out.validated);
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

    /// The evaluator (reused arena and seed lists) returns byte-identical
    /// matches AND costs to the independent oracle, also when it has
    /// answered the same queries before — and its bounded entry, handed
    /// exactly the oracle's cost, returns the same outcome while one visit
    /// less is a typed abort, equal to a fresh evaluator's.
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
            // Two passes: the second runs with a warm arena over queries
            // already answered, which must not change any outcome.
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
                        let fresh = IndexEvaluator::new(index, &g).evaluate_bounded(q, total - 1);
                        prop_assert_eq!(short, fresh, "warm and fresh aborts differ on {}", q);
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

/// `a` and `b` are the same index block for block — label, similarity,
/// extent, child and parent rows in order, root — and serialise to the same
/// snapshot bytes.
fn same_index(a: &DkIndex, b: &DkIndex, g: &DataGraph) -> Result<(), TestCaseError> {
    let (x, y) = (a.index(), b.index());
    prop_assert_eq!(x.size(), y.size());
    prop_assert_eq!(x.root(), y.root());
    for n in x.node_ids() {
        prop_assert_eq!(x.label_of(n), y.label_of(n), "label of {:?}", n);
        prop_assert_eq!(x.similarity(n), y.similarity(n), "similarity of {:?}", n);
        prop_assert_eq!(x.extent(n), y.extent(n), "extent of {:?}", n);
        prop_assert_eq!(x.children_of(n), y.children_of(n), "children of {:?}", n);
        prop_assert_eq!(x.parents_of(n), y.parents_of(n), "parents of {:?}", n);
    }
    prop_assert!(snapshot_bytes(a, g) == snapshot_bytes(b, g), "snapshot bytes differ");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Alg 6 counting splitters from the fragment's side leaves the index
    /// its `Succ(W)` oracle leaves, block for block, with the same split
    /// count: a promote-to-requirements pass after random edge additions,
    /// then single promotes of random nodes.
    #[test]
    fn promotion_matches_the_reference_block_for_block(
        spec in graph_spec(),
        req_label in 0u8..5,
        req_k in 0usize..4,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
        targets in prop::collection::vec((any::<u8>(), 0usize..5), 0..4),
    ) {
        use dkindex::core::dk::reference;
        let mut g = build(&spec);
        let reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);
        let mut fast = DkIndex::build(&g, reqs);
        for (from, to) in edges {
            let u = NodeId::from_index((from as usize) % g.node_count());
            let v = NodeId::from_index((to as usize) % g.node_count());
            if u != v {
                fast.add_edge(&mut g, u, v);
            }
        }
        let mut slow = fast.clone();
        prop_assert_eq!(
            fast.promote_to_requirements(&g),
            reference::promote_to_requirements(&mut slow, &g)
        );
        same_index(&fast, &slow, &g)?;
        for (target, k) in targets {
            let node = NodeId::from_index((target as usize) % g.node_count());
            prop_assert_eq!(fast.promote(&g, node, k), reference::promote(&mut slow, &g, node, k));
            same_index(&fast, &slow, &g)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// An index saved and reloaded promotes to the bytes the live one
    /// promotes to: a snapshot stores no parent-row order, and Alg 6 reads
    /// that order, so the live rows must already be in the order a reload
    /// rebuilds.
    #[test]
    fn reload_then_promote_equals_promote(
        spec in graph_spec(),
        req_k in 1usize..4,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..8),
    ) {
        let mut g = build(&spec);
        let mut live = DkIndex::build(&g, Requirements::uniform(req_k));
        for (from, to) in edges {
            let u = NodeId::from_index((from as usize) % g.node_count());
            let v = NodeId::from_index((to as usize) % g.node_count());
            if u != v {
                live.add_edge(&mut g, u, v);
            }
        }
        let saved = snapshot_bytes(&live, &g);
        let (mut reloaded, reloaded_g) = read_snapshot(&saved).map_err(TestCaseError::fail)?;
        prop_assert!(snapshot_bytes(&reloaded, &reloaded_g) == saved, "reload moved bytes");
        live.promote_to_requirements(&g);
        reloaded.promote_to_requirements(&reloaded_g);
        prop_assert!(
            snapshot_bytes(&live, &g) == snapshot_bytes(&reloaded, &reloaded_g),
            "promoted after a reload, the index serialises differently"
        );
    }
}

/// One maintenance step of the served-answers property, drawn as `(kind, a, b)`:
/// an Alg 3 subgraph addition of `sub`, an Alg 4/5 edge addition, an Alg 6
/// promote, a demote, or new requirements promoted up to.
fn maintain(dk: &mut DkIndex, g: &mut DataGraph, sub: &DataGraph, (kind, a, b): (u8, u8, u8)) {
    let node = |raw: u8, g: &DataGraph| NodeId::from_index(raw as usize % g.node_count());
    match kind {
        0 => {
            dk.add_subgraph(g, sub);
        }
        1 => {
            let (from, to) = (node(a, g), node(b, g));
            if from != to {
                dk.add_edge(g, from, to);
            }
        }
        2 => {
            let target = node(a, g);
            dk.promote(g, target, b as usize % 4);
        }
        3 => {
            dk.demote(Requirements::uniform(b as usize % 3));
        }
        _ => {
            let reqs = Requirements::from_pairs([(format!("l{}", a % 5).as_str(), b as usize % 4)]);
            apply_serial(dk, g, &[ServeOp::SetRequirements(reqs)]);
        }
    }
}

/// `index` is a well-formed summary of `g` (`check_structure`), and every
/// parent row ascends: the order a snapshot reload rebuilds, and the one
/// Alg 6 reads.
fn structure_holds(index: &IndexGraph, g: &DataGraph) -> Result<(), TestCaseError> {
    check_structure(index, g).map_err(TestCaseError::fail)?;
    for n in index.node_ids() {
        let parents = index.parents_of(n);
        prop_assert!(parents.windows(2).all(|w| w[0] < w[1]), "parents of {:?}: {:?}", n, parents);
    }
    Ok(())
}

/// What a server over `(dk, g)` answers — it walks the epoch's index graph
/// with the epoch's seed lists — equals the oracle: matches, both visit counts
/// and the validated flag. So does a fresh `IndexEvaluator`.
fn served_equals_oracle(dk: &DkIndex, g: &DataGraph, salt: u64) -> Result<(), TestCaseError> {
    let mut queries = queries_for(g, salt);
    queries.extend(["_._", "l0.(l1|_)?.l2", "_*.l3"].map(|q| parse(q).unwrap()));
    let labels = LabelIndex::build(dk.index());
    let server = DkServer::start(g.clone(), dk.clone(), ServeConfig::default());
    let served = server.handle();
    for q in &queries {
        let want = eval_oracle::evaluate(dk.index(), g, &labels, q);
        prop_assert_eq!(&*served.evaluate(q), &want, "served != oracle on {}", q);
        let evaluated = IndexEvaluator::new(dk.index(), g).evaluate(q);
        prop_assert_eq!(evaluated, want, "evaluator != oracle on {}", q);
    }
    server.shutdown().map_err(TestCaseError::fail)?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under every maintenance algorithm the index stays well-formed with
    /// ascending parent rows, and answers served over it stay the oracle's.
    #[test]
    fn served_answers_equal_the_oracle_under_maintenance(
        spec in graph_spec(),
        sub in graph_spec(),
        salt in any::<u64>(),
        req_k in 0usize..4,
        steps in prop::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 1..7),
    ) {
        let mut g = build(&spec);
        let h = build(&sub);
        let mut dk = DkIndex::build(&g, Requirements::uniform(req_k));
        structure_holds(dk.index(), &g)?;
        served_equals_oracle(&dk, &g, salt)?;
        for (i, &step) in steps.iter().enumerate() {
            maintain(&mut dk, &mut g, &h, step);
            structure_holds(dk.index(), &g)?;
            served_equals_oracle(&dk, &g, salt ^ (i as u64 + 1))?;
        }
    }
}

/// The requirements of the hand-off property, drawn as `(kind, k)`:
/// label-split, uniform(1..=3), or mined from `queries`.
fn handoff_requirements((kind, k): (u8, usize), queries: &[PathExpr]) -> Requirements {
    match kind {
        0 => Requirements::new(),
        1 => Requirements::uniform(k),
        _ => mine_requirements(queries),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Validation that hands off to the index (Theorem 1 applied mid-walk)
    /// stays exact under edge updates: after every `AddEdge`, over a
    /// label-split, uniform(1..=3) or mined D(k)-index, each answer equals
    /// direct evaluation on the data graph, and the whole outcome — matches,
    /// both visit counts and the validated flag — equals the oracle's, on
    /// one warm evaluator and a fresh one alike.
    #[test]
    fn handing_off_to_the_index_stays_exact_under_edge_updates(
        spec in graph_spec(),
        salt in any::<u64>(),
        reqs in (0u8..3, 1usize..4),
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
    ) {
        let mut g = build(&spec);
        let mut queries = queries_for(&g, salt);
        queries.extend(["l0.(l1|l2).l3", "_._._", "l1.(_)?.l2", "_*.l4"].map(|q| parse(q).unwrap()));
        let mut dk = DkIndex::build(&g, handoff_requirements(reqs, &queries));
        for step in 0..=edges.len() {
            if let Some(&(from, to)) = edges.get(step.wrapping_sub(1)) {
                let u = NodeId::from_index(from as usize % g.node_count());
                let v = NodeId::from_index(to as usize % g.node_count());
                if u != v {
                    dk.add_edge(&mut g, u, v);
                }
            }
            let labels = LabelIndex::build(dk.index());
            let mut warm = IndexEvaluator::new(dk.index(), &g);
            for q in &queries {
                let want = eval_oracle::evaluate(dk.index(), &g, &labels, q);
                prop_assert_eq!(&want.matches, &evaluate_on_data(&g, q).0, "step {}: {}", step, q);
                prop_assert_eq!(&warm.evaluate(q), &want, "step {}: warm evaluator on {}", step, q);
                let fresh = IndexEvaluator::new(dk.index(), &g).evaluate(q);
                prop_assert_eq!(fresh, want, "step {}: fresh evaluator on {}", step, q);
            }
        }
    }
}

/// A retarget drawn as `(set, raw)`: `PromoteToRequirements`, or new
/// requirements on one label.
fn retarget((set, raw): (bool, u8)) -> ServeOp {
    if set {
        ServeOp::SetRequirements(Requirements::from_pairs([(
            format!("l{}", raw % 5).as_str(),
            raw as usize % 4,
        )]))
    } else {
        ServeOp::PromoteToRequirements
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A served retarget lands on the rebuild: after any stream of Alg 3–6,
    /// edge additions and demotes, `PromoteToRequirements` and
    /// `SetRequirements` leave exactly `DkIndex::build` over the current
    /// graph and requirements — its snapshot bytes, a clean audit, and
    /// answers equal to the oracle.
    #[test]
    fn a_served_retarget_is_the_rebuild(
        spec in graph_spec(),
        sub in graph_spec(),
        salt in any::<u64>(),
        req_k in 0usize..4,
        steps in prop::collection::vec((0u8..4, any::<u8>(), any::<u8>()), 0..7),
        op in (any::<bool>(), any::<u8>()),
    ) {
        let mut g = build(&spec);
        let h = build(&sub);
        let mut dk = DkIndex::build(&g, Requirements::uniform(req_k));
        for &step in &steps {
            maintain(&mut dk, &mut g, &h, step);
        }
        let op = retarget(op);
        let reqs = match &op {
            ServeOp::SetRequirements(reqs) => reqs.clone(),
            _ => dk.requirements().clone(),
        };
        apply_serial(&mut dk, &mut g, &[op]);
        let rebuilt = DkIndex::build(&g, reqs);
        prop_assert!(snapshot_bytes(&dk, &g) == snapshot_bytes(&rebuilt, &g), "retarget != rebuild");
        let report = audit(dk.index(), dk.requirements(), &g, &AuditConfig::default());
        prop_assert!(report.is_clean(), "{}", report.render_text());
        served_equals_oracle(&dk, &g, salt)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// WAL replay runs only the last retarget, and still reaches the serve
    /// run's bytes: edge additions with no retarget, one, or several at
    /// random positions, with one forced first and one forced last when
    /// drawn.
    #[test]
    fn replay_with_retargets_equals_serial_application(
        spec in graph_spec(),
        req_k in 0usize..4,
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 0..10),
        retargets in prop::collection::vec((any::<u8>(), any::<bool>(), any::<u8>()), 0..4),
        first in prop::option::of((any::<bool>(), any::<u8>())),
        last in prop::option::of((any::<bool>(), any::<u8>())),
    ) {
        use dkindex::core::wal;
        let g0 = build(&spec);
        let dk0 = DkIndex::build(&g0, Requirements::uniform(req_k));
        let node = |raw: u8| NodeId::from_index(raw as usize % g0.node_count());
        let mut records: Vec<ServeOp> =
            edges.into_iter().map(|(a, b)| ServeOp::AddEdge { from: node(a), to: node(b) }).collect();
        for (at, set, raw) in retargets {
            let at = at as usize % (records.len() + 1);
            records.insert(at, retarget((set, raw)));
        }
        if let Some(op) = first {
            records.insert(0, retarget(op));
        }
        if let Some(op) = last {
            records.push(retarget(op));
        }

        let mut log = wal::encode_header().to_vec();
        for op in &records {
            log.extend_from_slice(&wal::encode_record(op));
        }
        log.extend_from_slice(&wal::encode_commit(records.len() as u32));
        let (mut g_replayed, mut dk_replayed) = (g0.clone(), dk0.clone());
        let report = wal::replay(&mut dk_replayed, &mut g_replayed, &log).map_err(TestCaseError::fail)?;
        prop_assert_eq!(report.applied, records.len());
        let (mut g_direct, mut dk_direct) = (g0, dk0);
        apply_serial(&mut dk_direct, &mut g_direct, &records);
        prop_assert!(
            snapshot_bytes(&dk_replayed, &g_replayed) == snapshot_bytes(&dk_direct, &g_direct),
            "replay of {:?} diverged from serial application", records
        );
    }
}

/// The log a serve run writes for `ops`: the ops `serve_ops::is_applicable`
/// accepts, as one fenced batch.
fn served_log(ops: &[ServeOp], g: &DataGraph) -> Vec<u8> {
    use dkindex::core::{serve_ops::is_applicable, wal};
    let logged: Vec<&ServeOp> = ops.iter().filter(|op| is_applicable(op, g)).collect();
    let mut log = wal::encode_header().to_vec();
    for op in &logged {
        log.extend_from_slice(&wal::encode_record(op));
    }
    log.extend_from_slice(&wal::encode_commit(logged.len() as u32));
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The served index is a function of the log: `DkIndex::build` over the
    /// graph and requirements at the last retarget, then Algorithms 4–5 for
    /// each later edge. The expected state is folded here without
    /// `serve_ops::apply` — the data edges, the requirements, one build —
    /// and both the serial application and the WAL replay of the log end on
    /// its snapshot bytes. The log mixes the three ops, with edges that name
    /// nodes past the graph's end (serve skips them and never logs them)
    /// and requirements raised and lowered.
    #[test]
    fn the_served_index_is_a_function_of_the_log(
        spec in graph_spec(),
        req_k in 0usize..4,
        draws in prop::collection::vec((0u8..5, any::<u8>(), any::<u8>()), 0..12),
    ) {
        use dkindex::core::wal;
        let g0 = build(&spec);
        let dk0 = DkIndex::build(&g0, Requirements::uniform(req_k));
        let n = g0.node_count();
        let node = |raw: u8| NodeId::from_index(raw as usize % (n + 2));
        let ops: Vec<ServeOp> = draws
            .into_iter()
            .map(|(kind, a, b)| match kind {
                0..=2 => ServeOp::AddEdge { from: node(a), to: node(b) },
                _ => retarget((kind == 4, a)),
            })
            .collect();
        let edge = |op: &ServeOp| match *op {
            ServeOp::AddEdge { from, to } if from.index() < n && to.index() < n => Some((from, to)),
            _ => None,
        };

        let last = ops.iter().rposition(|op| !matches!(op, ServeOp::AddEdge { .. }));
        let (before, after) = ops.split_at(last.map_or(0, |at| at + 1));
        let (mut g, mut reqs) = (g0.clone(), dk0.requirements().clone());
        for op in before {
            if let Some((from, to)) = edge(op) {
                g.add_edge(from, to, EdgeKind::Reference);
            } else if let ServeOp::SetRequirements(r) = op {
                reqs = r.clone();
            }
        }
        let mut dk = if last.is_some() { DkIndex::build(&g, reqs) } else { dk0.clone() };
        for (from, to) in after.iter().filter_map(edge) {
            dk.add_edge(&mut g, from, to);
        }
        let expected = snapshot_bytes(&dk, &g);

        let (mut g_serial, mut dk_serial) = (g0.clone(), dk0.clone());
        apply_serial(&mut dk_serial, &mut g_serial, &ops);
        prop_assert!(snapshot_bytes(&dk_serial, &g_serial) == expected, "serial application of {:?}", ops);
        let (mut g_replayed, mut dk_replayed) = (g0.clone(), dk0);
        wal::replay(&mut dk_replayed, &mut g_replayed, &served_log(&ops, &g0))
            .map_err(TestCaseError::fail)?;
        prop_assert!(snapshot_bytes(&dk_replayed, &g_replayed) == expected, "replay of {:?}", ops);
    }
}
