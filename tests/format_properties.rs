//! Property tests for the textual and binary formats: XML round-trips,
//! path-expression printing and the `DKSN` v2 container with its graph
//! (`DKG2`), index and requirements sections — plus byte-literal goldens of
//! the two durable files (`DKSN` v2 snapshot, `DKWL` v4 log).

use dkindex::core::wal::{self, WalTail, WalWriter};
use dkindex::core::{
    check_structure, read_snapshot, snapshot_bytes, DkIndex, FailPlan, Requirements, ServeOp,
    SimDisk,
};
use dkindex::graph::{DataGraph, EdgeKind, LabeledGraph, NodeId};
use dkindex::pathexpr::{parse, PathExpr};
use dkindex::xml::{parse_into, XmlParser, XmlSink, XmlWriter};
use proptest::prelude::*;

// ---------------------------------------------------------------- XML

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}"
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Includes the characters that must be escaped; never whitespace-only
    // (the parser folds inter-element whitespace away by design).
    "[a-zA-Z<>&\"' ]{0,12}".prop_filter("non-blank", |s| !s.trim().is_empty())
}

/// A generated document: a test-local tree that emits its element events.
#[derive(Clone, Debug)]
struct Node {
    name: String,
    attributes: Vec<(String, String)>,
    text: Option<String>,
    children: Vec<Node>,
}

impl Node {
    fn emit(&self, sink: &mut impl XmlSink) {
        sink.start(&self.name, &self.attributes);
        if let Some(text) = &self.text {
            sink.text(text);
        }
        for child in &self.children {
            child.emit(sink);
        }
        sink.end();
    }

    fn to_xml(&self) -> String {
        let mut writer = XmlWriter::new();
        self.emit(&mut writer);
        writer.into_string()
    }
}

/// Element events as the tests compare them.
#[derive(Debug, PartialEq, Eq)]
enum Event {
    Start(String, Vec<(String, String)>),
    Text(String),
    End,
}

#[derive(Default)]
struct Recorder(Vec<Event>);

impl XmlSink for Recorder {
    fn start(&mut self, name: &str, attributes: &[(String, String)]) {
        self.0.push(Event::Start(name.to_string(), attributes.to_vec()));
    }
    fn text(&mut self, text: &str) {
        self.0.push(Event::Text(text.to_string()));
    }
    fn end(&mut self) {
        self.0.push(Event::End);
    }
}

fn element_strategy() -> impl Strategy<Value = Node> {
    let leaf = (
        name_strategy(),
        prop::collection::vec((name_strategy(), text_strategy()), 0..3),
        prop::option::of(text_strategy()),
    )
        .prop_map(|(name, attributes, text)| Node {
            name,
            attributes: dedup_attrs(attributes),
            text,
            children: Vec::new(),
        });
    leaf.prop_recursive(3, 24, 4, |inner| {
        (
            name_strategy(),
            prop::collection::vec((name_strategy(), text_strategy()), 0..3),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(name, attributes, children)| Node {
                name,
                attributes: dedup_attrs(attributes),
                text: None,
                children,
            })
    })
}

fn dedup_attrs(mut attrs: Vec<(String, String)>) -> Vec<(String, String)> {
    let mut seen = std::collections::HashSet::new();
    attrs.retain(|(k, _)| seen.insert(k.clone()));
    attrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Writer → parser gives back exactly the events the document emitted.
    #[test]
    fn xml_documents_round_trip(root in element_strategy()) {
        let mut emitted = Recorder::default();
        root.emit(&mut emitted);
        let text = root.to_xml();
        let mut parsed = Recorder::default();
        parse_into(&text, &mut parsed)
            .map_err(|e| TestCaseError::fail(format!("{e} in:\n{text}")))?;
        prop_assert_eq!(parsed.0, emitted.0);
    }

    #[test]
    fn xml_parse_is_deterministic(root in element_strategy()) {
        let text = root.to_xml();
        prop_assert_eq!(
            XmlParser::new(&text).into_events().unwrap(),
            XmlParser::new(&text).into_events().unwrap()
        );
    }
}

// ------------------------------------------------------- path expressions

fn expr_strategy() -> impl Strategy<Value = PathExpr> {
    let leaf = prop_oneof![
        "[a-z]{1,5}".prop_map(PathExpr::Label),
        Just(PathExpr::Wildcard),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| PathExpr::seq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| PathExpr::alt(a, b)),
            inner.clone().prop_map(PathExpr::opt),
            inner.prop_map(PathExpr::star),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `display ∘ parse` is a fixpoint: parsing the printed form and
    /// printing again yields the same text (associativity may re-shape the
    /// tree, but never the language or its rendering).
    #[test]
    fn pathexpr_display_parse_display_fixpoint(e in expr_strategy()) {
        let printed = e.to_string();
        let reparsed = parse(&printed)
            .map_err(|err| TestCaseError::fail(format!("{err} in {printed}")))?;
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Word-length analysis is stable under the print/parse cycle.
    #[test]
    fn pathexpr_lengths_survive_reparse(e in expr_strategy()) {
        let reparsed = parse(&e.to_string()).unwrap();
        prop_assert_eq!(reparsed.max_word_len(), e.max_word_len());
        prop_assert_eq!(reparsed.min_word_len(), e.min_word_len());
    }
}

// ------------------------------------------------------------ persistence

#[derive(Clone, Debug)]
struct GraphSpec {
    labels: Vec<u8>,
    parents: Vec<u8>,
    refs: Vec<(u8, u8)>,
}

fn graph_spec() -> impl Strategy<Value = GraphSpec> {
    (
        prop::collection::vec(0u8..6, 1..25),
        prop::collection::vec(any::<u8>(), 1..25),
        prop::collection::vec((any::<u8>(), any::<u8>()), 0..8),
    )
        .prop_map(|(labels, parents, refs)| GraphSpec {
            parents: parents[..labels.len().min(parents.len())].to_vec(),
            labels: labels[..labels.len().min(parents.len())].to_vec(),
            refs,
        })
}

fn build(spec: &GraphSpec) -> DataGraph {
    let mut g = DataGraph::new();
    let label_ids: Vec<_> = (0..6).map(|i| g.intern(&format!("l{i}"))).collect();
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The graph codec (`DKG1` at first, `DKG2` since it stores columns)
    /// is the container's `GRPH` section, so the round trip goes through a
    /// whole snapshot.
    #[test]
    fn graphs_round_trip_through_dkg1(spec in graph_spec()) {
        let g = build(&spec);
        let dk = DkIndex::build(&g, Requirements::uniform(0));
        let (_, back) = read_snapshot(&snapshot_bytes(&dk, &g))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(back.node_count(), g.node_count());
        prop_assert!(back.edges().eq(g.edges()));
        for n in g.node_ids() {
            prop_assert_eq!(back.label_name(n), g.label_name(n));
        }
    }

    #[test]
    fn indexes_round_trip_through_dksn(
        spec in graph_spec(),
        req_label in 0u8..6,
        req_k in 0usize..4,
        floor in 0usize..2,
    ) {
        let g = build(&spec);
        let mut reqs = Requirements::from_pairs([(format!("l{req_label}").as_str(), req_k)]);
        reqs.raise_floor(floor);
        let dk = DkIndex::build(&g, reqs);
        let (back, g2) = read_snapshot(&snapshot_bytes(&dk, &g))
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        // GRPH: every node's label name and every edge, in order.
        prop_assert_eq!(g2.node_count(), g.node_count());
        prop_assert!(g2.edges().eq(g.edges()));
        for n in g.node_ids() {
            prop_assert_eq!(g2.label_name(n), g.label_name(n));
        }
        prop_assert_eq!(back.size(), dk.size());
        prop_assert_eq!(back.requirements(), dk.requirements());
        prop_assert!(back.index().to_partition().same_equivalence(&dk.index().to_partition()));
        for inode in dk.index().node_ids() {
            prop_assert_eq!(back.index().similarity(inode), dk.index().similarity(inode));
        }
    }

    /// Random graphs over one to four 64-row segments, edges of both kinds
    /// in any order (self-loops and repeats included; `add_edge` drops a
    /// repeat): the snapshot loads to the rows `add_edge` and the index
    /// builder made — child rows in order with their kinds, parent rows,
    /// extents and similarities — and writes back byte for byte.
    #[test]
    fn random_graphs_load_row_for_row_and_rewrite_byte_identically(
        n in prop::sample::select(vec![1usize, 2, 63, 64, 65, 129, 200]),
        edges in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), any::<bool>()),
            0..400,
        ),
        k in 0usize..3,
    ) {
        let mut g = DataGraph::new();
        for i in 1..n {
            g.add_labeled_node(["a", "b", "c"][i % 3]);
        }
        for (from, to, reference) in &edges {
            let kind = if *reference { EdgeKind::Reference } else { EdgeKind::Tree };
            g.add_edge(NodeId::from_index(from.index(n)), NodeId::from_index(to.index(n)), kind);
        }
        let dk = DkIndex::build(&g, Requirements::uniform(k));
        let bytes = snapshot_bytes(&dk, &g);
        let (back, g2) = read_snapshot(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(snapshot_bytes(&back, &g2), bytes);
        prop_assert!(g2.edges().eq(g.edges()));
        for node in g.node_ids() {
            prop_assert_eq!(g2.label_of(node), g.label_of(node));
            prop_assert_eq!(g2.children_of(node), g.children_of(node));
            prop_assert_eq!(g2.parents_of(node), g.parents_of(node));
        }
        let (index, want) = (back.index(), dk.index());
        prop_assert_eq!(index.edge_count(), want.edge_count());
        for block in want.node_ids() {
            prop_assert_eq!(index.label_of(block), want.label_of(block));
            prop_assert_eq!(index.similarity(block), want.similarity(block));
            prop_assert_eq!(index.extent(block), want.extent(block));
            prop_assert_eq!(index.children_of(block), want.children_of(block));
            prop_assert_eq!(index.parents_of(block), want.parents_of(block));
        }
        for node in g.node_ids() {
            prop_assert_eq!(index.index_of(node), want.index_of(node));
        }
    }

    /// Bit-flips anywhere in the container either fail to load or load into
    /// an index that still passes its invariants — never a silently broken
    /// summary.
    #[test]
    fn corruption_never_loads_a_broken_index(
        spec in graph_spec(),
        flip in any::<prop::sample::Index>(),
    ) {
        let g = build(&spec);
        let dk = DkIndex::build(&g, Requirements::uniform(1));
        let mut bytes = snapshot_bytes(&dk, &g);
        let i = flip.index(bytes.len());
        bytes[i] ^= 0xFF;
        if let Ok((loaded, data)) = read_snapshot(&bytes) {
            // If it loads at all, it must be a structurally valid summary.
            check_structure(loaded.index(), &data).map_err(TestCaseError::fail)?;
        }
    }

    /// Loaded indexes answer queries identically to the original.
    #[test]
    fn loaded_index_is_query_equivalent(spec in graph_spec(), salt in any::<u64>()) {
        use dkindex::core::IndexEvaluator;
        let g = build(&spec);
        let dk = DkIndex::build(&g, Requirements::uniform(2));
        let (back, g2) = read_snapshot(&snapshot_bytes(&dk, &g)).unwrap();
        // A few deterministic pseudo-random walks as queries.
        let mut x = salt | 1;
        let mut next = move |m: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x as usize) % m.max(1)
        };
        for _ in 0..5 {
            let start = NodeId::from_index(next(g.node_count()));
            let mut labels = vec![g.label_name(start).to_string()];
            let mut cur = start;
            for _ in 0..next(3) + 1 {
                let children = g.children_of(cur);
                if children.is_empty() {
                    break;
                }
                cur = children[next(children.len())];
                labels.push(g.label_name(cur).to_string());
            }
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let q = PathExpr::path(&refs);
            let a = IndexEvaluator::new(dk.index(), &g).evaluate(&q);
            let b = IndexEvaluator::new(back.index(), &g2).evaluate(&q);
            prop_assert_eq!(a.matches, b.matches, "{}", q);
        }
    }
}

// ------------------------------------------------------ golden durable files

/// One complete `DKSN` version-2 file, byte for byte: ROOT → a → b with a
/// reference edge b → a, requirements {b: 1}. Today's writer reproduces it
/// and today's reader loads it; a diff here is a format change.
#[rustfmt::skip]
const GOLDEN_DKSN: [u8; 276] = [
    // header: magic, version 2, 3 sections
    0x44, 0x4b, 0x53, 0x4e, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    // REQS: tag, len 17, crc | floor 0, 1 entry: u32-len "b" = 1
    0x52, 0x45, 0x51, 0x53, 0x11, 0x00, 0x00, 0x00, 0x33, 0x7f, 0x4c, 0x58,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x62, 0x01, 0x00, 0x00, 0x00,
    // GRPH: tag, len 80, crc | "DKG2", 4 labels (ROOT VALUE a b), u32-len names
    0x47, 0x52, 0x50, 0x48, 0x50, 0x00, 0x00, 0x00, 0x02, 0xba, 0xe7, 0x4a,
    0x44, 0x4b, 0x47, 0x32,
    0x04, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x52, 0x4f, 0x4f, 0x54,
    0x05, 0x00, 0x00, 0x00, 0x56, 0x41, 0x4c, 0x55, 0x45,
    0x01, 0x00, 0x00, 0x00, 0x61, 0x01, 0x00, 0x00, 0x00, 0x62,
    //   3 nodes: labels 0 2 3
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    //   child rows: len 3, ends 1 2 3, targets 1 2 1
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    //   kinds: bit 2 set — child slot 2 (b → a) is a reference edge
    0x04,
    // INDX: tag, len 131, crc | 4 labels (ROOT VALUE a b)
    0x49, 0x4e, 0x44, 0x58, 0x83, 0x00, 0x00, 0x00, 0x20, 0x83, 0x3c, 0x7c,
    0x04, 0x00, 0x00, 0x00,
    0x04, 0x00, 0x00, 0x00, 0x52, 0x4f, 0x4f, 0x54,
    0x05, 0x00, 0x00, 0x00, 0x56, 0x41, 0x4c, 0x55, 0x45,
    0x01, 0x00, 0x00, 0x00, 0x61, 0x01, 0x00, 0x00, 0x00, 0x62,
    //   3 blocks: labels 0 2 3, u64 similarities 0 0 1
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    //   extents: len 3, ends 1 2 3, members 0 1 2
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    //   child rows: len 3, ends 1 2 3, targets 1 2 1
    0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    //   root 0
    0x00, 0x00, 0x00, 0x00,
];

/// One complete two-batch `DKWL` version-4 file covering every record tag.
#[rustfmt::skip]
const GOLDEN_DKWL: [u8; 112] = [
    // header: magic, version 4
    0x44, 0x4b, 0x57, 0x4c, 0x04, 0x00, 0x00, 0x00,
    // batch 1 — tag 1 add-edge 2→1: len 9, body, crc
    0x09, 0x00, 0x00, 0x00, 0x01, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xf5, 0x60, 0xeb, 0x0b,
    //   tag 3 promote-to-requirements
    0x01, 0x00, 0x00, 0x00, 0x03, 0x37, 0xbe, 0x0b, 0x4b,
    //   tag 6 commit fence over 2 ops
    0x05, 0x00, 0x00, 0x00, 0x06, 0x02, 0x00, 0x00, 0x00, 0x36, 0xca, 0x6b, 0xe3,
    // batch 2 — tag 5 set-requirements, lowered to (floor 0, no pairs)
    0x09, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe1, 0x51, 0x9e, 0xac,
    //   tag 5 set-requirements (floor 1; u32-len "a" = 1, "b" = 2, name-sorted)
    0x1b, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x61, 0x01, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x00, 0x00, 0x62, 0x02, 0x00, 0x00, 0x00, 0x7e, 0xb4, 0x6c, 0xa1,
    //   tag 6 commit fence over 2 ops
    0x05, 0x00, 0x00, 0x00, 0x06, 0x02, 0x00, 0x00, 0x00, 0x36, 0xca, 0x6b, 0xe3,
];

fn golden_state() -> (DataGraph, DkIndex) {
    let mut g = DataGraph::new();
    let a = g.add_labeled_node("a");
    let b = g.add_labeled_node("b");
    let r = g.root();
    g.add_edge(r, a, EdgeKind::Tree);
    g.add_edge(a, b, EdgeKind::Tree);
    g.add_edge(b, a, EdgeKind::Reference);
    let dk = DkIndex::build(&g, Requirements::from_pairs([("b", 1)]));
    (g, dk)
}

fn golden_batches() -> [Vec<ServeOp>; 2] {
    let n = NodeId::from_index;
    let mut reqs = Requirements::from_pairs([("b", 2), ("a", 1)]);
    reqs.raise_floor(1);
    [
        vec![ServeOp::AddEdge { from: n(2), to: n(1) }, ServeOp::PromoteToRequirements],
        vec![ServeOp::SetRequirements(Requirements::uniform(0)), ServeOp::SetRequirements(reqs)],
    ]
}

#[test]
fn golden_dksn_file_is_written_and_read_byte_for_byte() {
    let (g, dk) = golden_state();
    assert_eq!(snapshot_bytes(&dk, &g), GOLDEN_DKSN, "writer drifted from the DKSN golden");
    let (back, g2) = read_snapshot(&GOLDEN_DKSN).expect("golden snapshot loads strictly");
    assert_eq!(back.requirements(), dk.requirements());
    assert_eq!(snapshot_bytes(&back, &g2), GOLDEN_DKSN);
}

#[test]
fn golden_dkwl_file_is_written_and_replayed_byte_for_byte() {
    let batches = golden_batches();
    let mut writer = WalWriter::with_store(SimDisk::new(FailPlan::none())).unwrap();
    for batch in &batches {
        writer.append_batch(batch).unwrap();
    }
    assert_eq!(writer.store().cached(), GOLDEN_DKWL, "writer drifted from the DKWL golden");

    let (ops, tail) = wal::decode_wal(&GOLDEN_DKWL).expect("golden log decodes");
    assert_eq!(ops, batches.concat());
    assert_eq!(tail, WalTail::Clean);

    // Replaying the golden log over the golden snapshot equals applying the
    // same ops directly.
    let (mut g, mut dk) = golden_state();
    let report = wal::replay(&mut dk, &mut g, &GOLDEN_DKWL).expect("golden log replays");
    assert_eq!(report.applied, 4);
    let (mut g_direct, mut dk_direct) = golden_state();
    dkindex::core::apply_serial(&mut dk_direct, &mut g_direct, &ops);
    assert_eq!(snapshot_bytes(&dk, &g), snapshot_bytes(&dk_direct, &g_direct));
}

// ------------------------------------------------- streaming XML builder

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Events straight into the graph builder build exactly the graph that
    /// the same events written as text and parsed build, under each
    /// attribute/`VALUE` option.
    #[test]
    fn event_builder_equals_text_builder(root in element_strategy()) {
        use dkindex::xml::{stream_to_graph, GraphBuilder, GraphOptions};
        let text = root.to_xml();
        // Generated attribute names are arbitrary; disable the id/idref
        // interpretation so both paths build pure containment graphs.
        let plain = GraphOptions {
            id_attributes: vec![],
            idref_attributes: vec![],
            ..GraphOptions::default()
        };
        for options in [
            plain.clone(),
            GraphOptions { attribute_nodes: false, ..plain.clone() },
            GraphOptions { value_nodes: true, ..plain.clone() },
        ] {
            let mut builder = GraphBuilder::new(&options);
            root.emit(&mut builder);
            let via_events = builder.finish().unwrap();
            let via_text = stream_to_graph(&text, &options)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(via_text.node_count(), via_events.node_count());
            prop_assert!(via_text.edges().eq(via_events.edges()));
            for n in via_events.node_ids() {
                prop_assert_eq!(via_text.label_name(n), via_events.label_name(n));
            }
        }
    }
}
