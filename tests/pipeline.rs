//! End-to-end pipeline tests: XML text → data graph → summaries → queries,
//! on both generated datasets, asserting exactness of every index against
//! direct data-graph evaluation.

use dkindex::core::{
    check_structure, evaluate_on_data, label_split_index, AkIndex, DkIndex, IndexEvaluator,
    OneIndex,
};
use dkindex::datagen::{
    nasa_document, nasa_graph_options, xmark_document, xmark_graph_options, NasaConfig,
    XmarkConfig,
};
use dkindex::graph::{DataGraph, LabeledGraph};
use dkindex::workload::{generate_test_paths, WorkloadConfig};
use dkindex::xml::{document_to_graph, Document};

fn xmark_via_xml_text() -> DataGraph {
    // Serialize the generated document to text and parse it back: the full
    // XML pipeline is in the loop.
    let doc = xmark_document(&XmarkConfig::tiny());
    let text = doc.to_xml();
    let reparsed = Document::parse(&text).expect("generated XML must reparse");
    assert_eq!(doc, reparsed);
    document_to_graph(&reparsed, &xmark_graph_options()).expect("references resolve")
}

fn nasa_via_xml_text() -> DataGraph {
    let doc = nasa_document(&NasaConfig::tiny());
    let reparsed = Document::parse(&doc.to_xml()).expect("generated XML must reparse");
    document_to_graph(&reparsed, &nasa_graph_options()).expect("references resolve")
}

fn assert_all_indexes_exact(data: &DataGraph, seed: u64) {
    let workload = generate_test_paths(
        data,
        &WorkloadConfig {
            count: 40,
            seed,
            ..WorkloadConfig::default()
        },
    );
    let reqs = workload.mine_requirements();

    let label_split = label_split_index(data);
    check_structure(&label_split, data).unwrap();
    let ak2 = AkIndex::build(data, 2);
    check_structure(ak2.index(), data).unwrap();
    let ak4 = AkIndex::build(data, 4);
    let one = OneIndex::build(data);
    check_structure(one.index(), data).unwrap();
    let dk = DkIndex::build(data, reqs);
    check_structure(dk.index(), data).unwrap();

    let indexes: Vec<(&str, &dkindex::core::IndexGraph)> = vec![
        ("label-split", &label_split),
        ("A(2)", ak2.index()),
        ("A(4)", ak4.index()),
        ("1-index", one.index()),
        ("D(k)", dk.index()),
    ];
    for q in workload.queries() {
        let truth = evaluate_on_data(data, q).0;
        for (name, index) in &indexes {
            let out = IndexEvaluator::new(index, data).evaluate(q);
            assert_eq!(out.matches, truth, "{name} wrong on {q}");
        }
    }

    // Size ordering: label-split ≤ A(2) ≤ A(4) ≤ 1-index ≤ data.
    assert!(label_split.size() <= ak2.size());
    assert!(ak2.size() <= ak4.size());
    assert!(ak4.size() <= one.size());
    assert!(one.size() <= data.node_count());
    // D(k) sits between label-split and the first sound A(k).
    assert!(dk.size() >= label_split.size());
    assert!(dk.size() <= one.size());
}

#[test]
fn xmark_pipeline_is_exact() {
    let data = xmark_via_xml_text();
    assert!(data.node_count() > 100);
    assert_all_indexes_exact(&data, 11);
}

#[test]
fn nasa_pipeline_is_exact() {
    let data = nasa_via_xml_text();
    assert!(data.node_count() > 100);
    assert_all_indexes_exact(&data, 22);
}

#[test]
fn dk_answers_whole_mined_workload_without_validation() {
    let data = xmark_via_xml_text();
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let dk = DkIndex::build(&data, workload.mine_requirements());
    let mut evaluator = IndexEvaluator::new(dk.index(), &data);
    for q in workload.queries() {
        let out = evaluator.evaluate(q);
        assert!(!out.validated, "mined D(k) validated {q}");
    }
}

#[test]
fn dk_extent_similarity_claims_are_truthful_on_xmark() {
    // Expensive oracle check on the small pipeline graph.
    let data = {
        let doc = xmark_document(&XmarkConfig {
            people: 6,
            items: 8,
            categories: 3,
            open_auctions: 4,
            closed_auctions: 3,
            seed: 9,
        });
        document_to_graph(&doc, &xmark_graph_options()).unwrap()
    };
    let workload = generate_test_paths(
        &data,
        &WorkloadConfig {
            count: 30,
            seed: 3,
            ..WorkloadConfig::default()
        },
    );
    let dk = DkIndex::build(&data, workload.mine_requirements());
    dk.index().check_extent_bisimilarity(&data, 5).unwrap();
}

#[test]
fn one_index_never_validates() {
    let data = nasa_via_xml_text();
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let one = OneIndex::build(&data);
    let mut evaluator = IndexEvaluator::new(one.index(), &data);
    for q in workload.queries() {
        assert!(!evaluator.evaluate(q).validated);
    }
}

#[test]
fn one_index_answers_root_anchored_xmark_queries_exactly() {
    use dkindex::pathexpr::parse;

    let data = xmark_via_xml_text();
    let one = OneIndex::build(&data);
    let mut evaluator = IndexEvaluator::new(one.index(), &data);
    for expr in [
        "ROOT.site.people.person",
        "ROOT.site.regions._.item.name",
        "ROOT.site.open_auctions.open_auction.bidder.personref",
        "ROOT.site.(categories|catgraph)._",
    ] {
        let e = parse(expr).unwrap();
        let truth = evaluate_on_data(&data, &e).0;
        assert!(!truth.is_empty(), "{expr} matches nothing on the pipeline graph");
        let out = evaluator.evaluate(&e);
        assert_eq!(out.matches, truth, "1-index wrong on {expr}");
        assert!(!out.validated, "1-index validated {expr}");
    }
}
