//! End-to-end pipeline tests: XML text → data graph → summaries → queries,
//! on both generated datasets, asserting exactness of every index against
//! direct data-graph evaluation.

use dkindex::core::crc32::crc32;
use dkindex::core::{
    check_structure, evaluate_on_data, label_split_index, snapshot_bytes, AkIndex, DkIndex,
    IndexEvaluator, OneIndex, Requirements,
};
use dkindex::datagen::{
    nasa_events, nasa_graph, nasa_graph_options, xmark_events, xmark_graph, xmark_graph_options,
    NasaConfig, XmarkConfig,
};
use dkindex::graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use dkindex::workload::{generate_test_paths, WorkloadConfig};
use dkindex::xml::{stream_to_graph, GraphBuilder, GraphOptions, XmlWriter};

/// The paper record's default scales (`DEFAULT_XMARK_SCALE` and
/// `DEFAULT_NASA_SCALE` in `dkindex-bench`).
const RECORD_XMARK_SCALE: f64 = 0.02;
const RECORD_NASA_SCALE: f64 = 0.15;

/// A `DKSN` snapshot of `data` with its label-split index: every node,
/// label and edge of the graph, in order.
fn label_split_bytes(data: &DataGraph) -> Vec<u8> {
    snapshot_bytes(&DkIndex::build(data, Requirements::new()), data)
}

/// CRC-32 of the graph's rows, independent of any file format: the label
/// table, each node's label, then every edge `(from, to, kind)` child row by
/// child row, in row order.
fn rows_hash(data: &DataGraph) -> u32 {
    let mut bytes = Vec::new();
    for (_, name) in data.labels().iter() {
        bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
        bytes.extend_from_slice(name.as_bytes());
    }
    for n in data.node_ids() {
        bytes.extend_from_slice(&(data.label_of(n).index() as u32).to_le_bytes());
    }
    for (from, to, kind) in data.edges() {
        bytes.extend_from_slice(&(from.index() as u32).to_le_bytes());
        bytes.extend_from_slice(&(to.index() as u32).to_le_bytes());
        bytes.push(u8::from(kind == EdgeKind::Reference));
    }
    crc32(&bytes)
}

/// Generator events → XML text → parser → graph, held byte for byte equal
/// to the generator's direct graph: the full XML pipeline is in the loop.
fn via_xml_text(
    emit: impl FnOnce(&mut XmlWriter),
    options: &GraphOptions,
    direct: &DataGraph,
) -> DataGraph {
    let mut writer = XmlWriter::new();
    emit(&mut writer);
    let data = stream_to_graph(&writer.into_string(), options).expect("generated XML maps");
    assert!(label_split_bytes(&data) == label_split_bytes(direct), "text path differs from the direct graph");
    data
}

fn xmark_via_xml_text(config: &XmarkConfig) -> DataGraph {
    via_xml_text(|w| xmark_events(config, w), &xmark_graph_options(), &xmark_graph(config))
}

fn nasa_via_xml_text(config: &NasaConfig) -> DataGraph {
    via_xml_text(|w| nasa_events(config, w), &nasa_graph_options(), &nasa_graph(config))
}

#[test]
fn generated_graphs_survive_xml_text_and_do_not_drift() {
    // `tiny()` runs through the text path in the pipeline tests below.
    nasa_via_xml_text(&NasaConfig::tiny().with_all_references());
    nasa_via_xml_text(&NasaConfig::scale(RECORD_NASA_SCALE).with_all_references());
    // The record's graphs, pinned: a generator change that moves a node,
    // a label or an edge moves every count the record and the benchmark
    // report for a seed.
    // The rows hash pins the graph itself; the snapshot CRC also pins the
    // file format and moves with it.
    let xmark = xmark_via_xml_text(&XmarkConfig::scale(RECORD_XMARK_SCALE));
    assert_eq!(rows_hash(&xmark), 0x35e9_be49);
    assert_eq!(crc32(&label_split_bytes(&xmark)), 0x6444_e65f);
    let nasa = nasa_via_xml_text(&NasaConfig::scale(RECORD_NASA_SCALE));
    assert_eq!(rows_hash(&nasa), 0x9ca9_caa0);
    assert_eq!(crc32(&label_split_bytes(&nasa)), 0x2536_b592);
}

/// The built and the re-indexed D(k)-index of a fixed graph, pinned by the
/// CRC-32 of their `snapshot_bytes`: block ids, extents, child-row order and
/// similarities all reach the bytes, so a construction change that moves
/// any of them moves a pin. Covers Algorithm 2's selective rounds (mined
/// requirements), uniform rounds (the A(k) case) and Theorem 2's re-index
/// (a demote after edge updates).
#[test]
fn built_and_reindexed_snapshots_do_not_drift() {
    let nasa = nasa_graph(&NasaConfig::scale(RECORD_NASA_SCALE));
    let uniform = DkIndex::build(&nasa, Requirements::uniform(4));
    assert_eq!(crc32(&snapshot_bytes(&uniform, &nasa)), 0xd6bf_483e);

    let mut xmark = xmark_graph(&XmarkConfig::scale(RECORD_XMARK_SCALE));
    let config = WorkloadConfig { count: 60, seed: 5, ..WorkloadConfig::default() };
    let workload = generate_test_paths(&xmark, &config);
    let dk = DkIndex::build(&xmark, workload.mine_requirements());
    assert_eq!(crc32(&snapshot_bytes(&dk, &xmark)), 0x8aac_961f);
    let mut dk = DkIndex::build(&xmark, Requirements::uniform(3));
    let n = xmark.node_count();
    for i in 0..40 {
        let (u, v) = (n / 3 + 7 * i, 2 * n / 3 + 11 * i);
        dk.add_edge(&mut xmark, NodeId::from_index(u), NodeId::from_index(v));
    }
    dk.demote(Requirements::uniform(1));
    check_structure(dk.index(), &xmark).unwrap();
    assert_eq!(crc32(&snapshot_bytes(&dk, &xmark)), 0xb64e_0c3f);
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
    let data = xmark_via_xml_text(&XmarkConfig::tiny());
    assert!(data.node_count() > 100);
    assert_all_indexes_exact(&data, 11);
}

#[test]
fn nasa_pipeline_is_exact() {
    let data = nasa_via_xml_text(&NasaConfig::tiny());
    assert!(data.node_count() > 100);
    assert_all_indexes_exact(&data, 22);
}

#[test]
fn dk_answers_whole_mined_workload_without_validation() {
    let data = xmark_via_xml_text(&XmarkConfig::tiny());
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
    let options = xmark_graph_options();
    let mut builder = GraphBuilder::new(&options);
    let config = XmarkConfig {
        people: 6,
        items: 8,
        categories: 3,
        open_auctions: 4,
        closed_auctions: 3,
        seed: 9,
    };
    xmark_events(&config, &mut builder);
    let data = builder.finish().unwrap();
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
    let data = nasa_via_xml_text(&NasaConfig::tiny());
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

    let data = xmark_via_xml_text(&XmarkConfig::tiny());
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
