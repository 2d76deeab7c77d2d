//! XMark-like auction-site data generator (substitute for the XMark
//! benchmark generator used in the paper's §6, dataset 1).
//!
//! The generator emits the XMark DTD's element hierarchy — `site` with
//! `regions` (six continents of `item`s), `categories`, `catgraph`, `people`,
//! `open_auctions` and `closed_auctions` — with the benchmark's reference
//! structure: items point into categories (`incategory/@category`), catgraph
//! edges relate categories (`@from`/`@to`), bidders/sellers/buyers point at
//! people, auctions point at items, and watches point at open auctions.
//! Text payloads are omitted (the paper's experiments index structure, not
//! values), so the substitution preserves the label alphabet, the regular
//! shallow shape, and the reference density — the inputs the D(k)/A(k)
//! experiments are sensitive to.

use crate::id_pool::IdPool;
use dkindex_xml::{GraphBuilder, GraphOptions, XmlSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the XMark-like generator. Counts follow the XMark
/// scaling ratios (per scale factor 1.0: 25 500 people, 21 750 items,
/// 1 000 categories, 12 000 open and 9 750 closed auctions).
#[derive(Clone, Debug)]
pub struct XmarkConfig {
    /// Number of `person` elements.
    pub people: usize,
    /// Total number of `item` elements (spread over six regions).
    pub items: usize,
    /// Number of `category` elements.
    pub categories: usize,
    /// Number of `open_auction` elements.
    pub open_auctions: usize,
    /// Number of `closed_auction` elements.
    pub closed_auctions: usize,
    /// RNG seed.
    pub seed: u64,
}

impl XmarkConfig {
    /// Configuration approximating XMark scale factor `f`
    /// (`f = 0.1` ≈ the paper's 10 MB file).
    pub fn scale(f: f64) -> Self {
        let n = |base: f64| ((base * f).round() as usize).max(1);
        XmarkConfig {
            people: n(25_500.0),
            items: n(21_750.0),
            categories: n(1_000.0),
            open_auctions: n(12_000.0),
            closed_auctions: n(9_750.0),
            seed: 20030609, // SIGMOD 2003 opening day
        }
    }

    /// A small configuration for unit tests (hundreds of nodes).
    pub fn tiny() -> Self {
        XmarkConfig {
            people: 20,
            items: 24,
            categories: 6,
            open_auctions: 12,
            closed_auctions: 10,
            seed: 7,
        }
    }
}

const REGIONS: [&str; 6] = [
    "africa",
    "asia",
    "australia",
    "europe",
    "namerica",
    "samerica",
];

/// Emit an XMark-like document into `sink`, element by element.
pub fn xmark_events(config: &XmarkConfig, sink: &mut impl XmlSink) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let categories = IdPool::new("category", config.categories);
    let items = IdPool::new("item", config.items);
    let people = IdPool::new("person", config.people);
    let auctions = IdPool::new("open_auction", config.open_auctions);

    sink.start("site", &[]);

    // regions: six continents sharing the item pool.
    sink.start("regions", &[]);
    fill_regions(sink, &mut rng, config, &categories);
    sink.end();

    // categories.
    sink.start("categories", &[]);
    for i in 0..config.categories {
        sink.start("category", &[("id".into(), categories.id(i))]);
        sink.leaf("name");
        sink.leaf("description");
        sink.end();
    }
    sink.end();

    // catgraph: random edges between categories.
    sink.start("catgraph", &[]);
    if config.categories >= 2 {
        for _ in 0..config.categories {
            let from = ("from".into(), categories.random(&mut rng));
            let to = ("to".into(), categories.random(&mut rng));
            sink.start("edge", &[from, to]);
            sink.end();
        }
    }
    sink.end();

    // people.
    sink.start("people", &[]);
    for i in 0..config.people {
        person(sink, &mut rng, &categories, &auctions, i, config);
    }
    sink.end();

    // open_auctions.
    sink.start("open_auctions", &[]);
    for i in 0..config.open_auctions {
        open_auction(sink, &mut rng, &people, &items, i);
    }
    sink.end();

    // closed_auctions.
    sink.start("closed_auctions", &[]);
    for _ in 0..config.closed_auctions {
        closed_auction(sink, &mut rng, &people, &items);
    }
    sink.end();

    sink.end();
}

/// An element whose one attribute references a random id of `pool`.
fn ref_leaf(sink: &mut impl XmlSink, rng: &mut StdRng, name: &str, attr: &str, pool: &IdPool) {
    sink.start(name, &[(attr.into(), pool.random(rng))]);
    sink.end();
}

/// Distribute `config.items` items round-capacity over the six regions.
fn fill_regions(sink: &mut impl XmlSink, rng: &mut StdRng, config: &XmarkConfig, categories: &IdPool) {
    let per_region = config.items.div_ceil(REGIONS.len());
    let mut item_iter = 0..config.items;
    for region_name in REGIONS {
        sink.start(region_name, &[]);
        for _ in 0..per_region {
            let Some(i) = item_iter.next() else { break };
            item(sink, rng, i, categories);
        }
        sink.end();
    }
}

fn item(sink: &mut impl XmlSink, rng: &mut StdRng, index: usize, categories: &IdPool) {
    sink.start("item", &[("id".into(), IdPool::format("item", index))]);
    for name in ["location", "quantity", "name", "payment"] {
        sink.leaf(name);
    }
    sink.start("description", &[]);
    if rng.gen_bool(0.7) {
        sink.leaf("text");
    } else {
        sink.start("parlist", &[]);
        for _ in 0..rng.gen_range(1..=3) {
            sink.leaf("listitem");
        }
        sink.end();
    }
    sink.end();
    sink.leaf("shipping");
    if !categories.is_empty() {
        for _ in 0..rng.gen_range(1..=2) {
            ref_leaf(sink, rng, "incategory", "category", categories);
        }
    }
    sink.start("mailbox", &[]);
    for _ in 0..rng.gen_range(0..=2) {
        sink.start("mail", &[]);
        for f in ["from", "to", "date"] {
            sink.leaf(f);
        }
        sink.end();
    }
    sink.end();
    sink.end();
}

fn person(
    sink: &mut impl XmlSink,
    rng: &mut StdRng,
    categories: &IdPool,
    auctions: &IdPool,
    index: usize,
    config: &XmarkConfig,
) {
    sink.start("person", &[("id".into(), IdPool::format("person", index))]);
    sink.leaf("name");
    sink.leaf("emailaddress");
    if rng.gen_bool(0.5) {
        sink.leaf("phone");
    }
    if rng.gen_bool(0.6) {
        sink.start("address", &[]);
        for f in ["street", "city", "country", "zipcode"] {
            sink.leaf(f);
        }
        sink.end();
    }
    if rng.gen_bool(0.3) {
        sink.leaf("homepage");
    }
    if rng.gen_bool(0.4) {
        sink.leaf("creditcard");
    }
    if rng.gen_bool(0.7) {
        sink.start("profile", &[]);
        if !categories.is_empty() {
            for _ in 0..rng.gen_range(0..=3) {
                ref_leaf(sink, rng, "interest", "category", categories);
            }
        }
        if rng.gen_bool(0.5) {
            sink.leaf("education");
        }
        if rng.gen_bool(0.5) {
            sink.leaf("gender");
        }
        sink.leaf("business");
        if rng.gen_bool(0.5) {
            sink.leaf("age");
        }
        sink.end();
    }
    if config.open_auctions > 0 && rng.gen_bool(0.4) {
        sink.start("watches", &[]);
        for _ in 0..rng.gen_range(1..=2) {
            ref_leaf(sink, rng, "watch", "open_auction", auctions);
        }
        sink.end();
    }
    sink.end();
}

fn open_auction(sink: &mut impl XmlSink, rng: &mut StdRng, people: &IdPool, items: &IdPool, index: usize) {
    sink.start(
        "open_auction",
        &[("id".into(), IdPool::format("open_auction", index))],
    );
    sink.leaf("initial");
    if rng.gen_bool(0.4) {
        sink.leaf("reserve");
    }
    for _ in 0..rng.gen_range(0..=4) {
        sink.start("bidder", &[]);
        sink.leaf("date");
        sink.leaf("time");
        ref_leaf(sink, rng, "personref", "person", people);
        sink.leaf("increase");
        sink.end();
    }
    sink.leaf("current");
    if rng.gen_bool(0.3) {
        sink.leaf("privacy");
    }
    ref_leaf(sink, rng, "itemref", "item", items);
    ref_leaf(sink, rng, "seller", "person", people);
    annotation(sink, rng);
    sink.leaf("quantity");
    sink.leaf("type");
    sink.start("interval", &[]);
    sink.leaf("start");
    sink.leaf("end");
    sink.end();
    sink.end();
}

fn closed_auction(sink: &mut impl XmlSink, rng: &mut StdRng, people: &IdPool, items: &IdPool) {
    sink.start("closed_auction", &[]);
    ref_leaf(sink, rng, "seller", "person", people);
    ref_leaf(sink, rng, "buyer", "person", people);
    ref_leaf(sink, rng, "itemref", "item", items);
    for f in ["price", "date", "quantity", "type"] {
        sink.leaf(f);
    }
    annotation(sink, rng);
    sink.end();
}

fn annotation(sink: &mut impl XmlSink, rng: &mut StdRng) {
    sink.start("annotation", &[]);
    if rng.gen_bool(0.6) {
        sink.leaf("author");
    }
    sink.leaf("description");
    sink.leaf("happiness");
    sink.end();
}

/// The XML → graph options matching this generator's reference attributes.
pub fn xmark_graph_options() -> GraphOptions {
    GraphOptions {
        id_attributes: vec!["id".to_string()],
        idref_attributes: vec![
            "category".to_string(),
            "from".to_string(),
            "to".to_string(),
            "person".to_string(),
            "open_auction".to_string(),
            "item".to_string(),
        ],
        attribute_nodes: false,
        value_nodes: false,
    }
}

/// Generate the XMark-like data graph directly.
pub fn xmark_graph(config: &XmarkConfig) -> dkindex_graph::DataGraph {
    let options = xmark_graph_options();
    let mut builder = GraphBuilder::new(&options);
    xmark_events(config, &mut builder);
    builder
        .finish()
        .expect("generator emits unique ids and resolvable references")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::{rewritten, xml_text};
    use dkindex_graph::stats::GraphStats;
    use dkindex_graph::LabeledGraph;

    #[test]
    fn tiny_document_has_all_six_sections() {
        let g = xmark_graph(&XmarkConfig::tiny());
        let site = g.children_of(g.root())[0];
        let names: Vec<&str> = g.children_of(site).iter().map(|&c| g.label_name(c)).collect();
        assert_eq!(
            names,
            vec![
                "regions",
                "categories",
                "catgraph",
                "people",
                "open_auctions",
                "closed_auctions"
            ]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let c = XmarkConfig::tiny();
        assert_eq!(xml_text(|w| xmark_events(&c, w)), xml_text(|w| xmark_events(&c, w)));
    }

    #[test]
    fn graph_mapping_resolves_all_references() {
        let g = xmark_graph(&XmarkConfig::tiny());
        let stats = GraphStats::of(&g);
        assert_eq!(stats.unreachable, 0);
        assert!(stats.reference_edges > 0, "expected ID/IDREF edges");
    }

    #[test]
    fn graph_has_regular_auction_structure() {
        let g = xmark_graph(&XmarkConfig::tiny());
        let person = g.labels().get("person").unwrap();
        assert_eq!(g.nodes_with_label(person).len(), 20);
        let item = g.labels().get("item").unwrap();
        assert_eq!(g.nodes_with_label(item).len(), 24);
        // personref nodes reference person nodes.
        let personref = g.labels().get("personref").unwrap();
        for pr in g.nodes_with_label(personref) {
            assert!(g
                .children_of(pr)
                .iter()
                .any(|&c| g.label_of(c) == person));
        }
    }

    #[test]
    fn scale_tracks_xmark_ratios() {
        let c = XmarkConfig::scale(0.01);
        assert_eq!(c.people, 255);
        assert_eq!(c.items, 218);
        assert_eq!(c.categories, 10);
        assert_eq!(c.open_auctions, 120);
        assert_eq!(c.closed_auctions, 98);
    }

    #[test]
    fn document_round_trips_through_xml_text() {
        let text = xml_text(|w| xmark_events(&XmarkConfig::tiny(), w));
        assert_eq!(rewritten(&text), text);
    }
}
