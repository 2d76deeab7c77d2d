//! NASA-like astronomical dataset generator (substitute for the IBM XML
//! generator + `nasa.dtd` used in the paper's §6, dataset 2).
//!
//! `nasa.dtd` marks up datasets of the NASA/GSFC astronomical data center.
//! Compared with XMark it is *broader, deeper and less regular*, with more
//! reference kinds. This generator mirrors those properties: a `datasets`
//! root containing heavily optional, recursive `dataset` structure (abstract
//! paragraphs, revision histories, tables with fields and cells, literature
//! references, nested descriptions), and **20 distinct reference kinds**
//! (`IDREF` attributes). As in the paper — "we delete 12 of its original 20
//! references" — the default configuration keeps 8 of the 20 kinds.

use dkindex_xml::{GraphBuilder, GraphOptions, XmlSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 20 reference kinds (IDREF attribute names) of the simulated DTD.
pub const ALL_REFERENCE_KINDS: [&str; 20] = [
    "relatedTo",    // dataset -> dataset
    "supersedes",   // dataset -> dataset
    "derivedFrom",  // dataset -> dataset
    "companion",    // dataset -> dataset
    "cites",        // reference -> dataset
    "sameAuthor",   // reference -> author
    "about",        // keyword -> instrument
    "toTable",      // tableLink -> table
    "ofField",      // tableCell -> field
    "forField",     // details -> field
    "forTable",     // details -> table
    "seeAlso",      // description -> dataset
    "context",      // description -> instrument
    "basedOn",      // revision -> revision
    "collaborator", // author -> author
    "derivedField", // field -> field
    "aliasOf",      // altname -> dataset
    "refersTo",     // para -> dataset
    "precededBy",   // history -> history
    "partOf",       // instrument -> instrument
];

/// The 8 reference kinds kept by default (the paper deletes 12 of 20).
pub const DEFAULT_KEPT_KINDS: [&str; 8] = [
    "relatedTo",
    "supersedes",
    "cites",
    "toTable",
    "ofField",
    "seeAlso",
    "aliasOf",
    "about",
];

/// Configuration for the NASA-like generator.
#[derive(Clone, Debug)]
pub struct NasaConfig {
    /// Number of `dataset` elements.
    pub datasets: usize,
    /// Reference kinds to emit (subset of [`ALL_REFERENCE_KINDS`]).
    pub kept_reference_kinds: Vec<String>,
    /// RNG seed.
    pub seed: u64,
}

impl NasaConfig {
    /// Configuration approximating the paper's 15 MB file at scale `f = 1.0`
    /// (~2 400 datasets), with the default 8 of 20 reference kinds.
    pub fn scale(f: f64) -> Self {
        NasaConfig {
            datasets: ((2_400.0 * f).round() as usize).max(1),
            kept_reference_kinds: DEFAULT_KEPT_KINDS.iter().map(|s| s.to_string()).collect(),
            seed: 19580729, // NASA founding date
        }
    }

    /// A small configuration for unit tests.
    pub fn tiny() -> Self {
        NasaConfig {
            datasets: 12,
            kept_reference_kinds: DEFAULT_KEPT_KINDS.iter().map(|s| s.to_string()).collect(),
            seed: 5,
        }
    }

    /// Keep all 20 reference kinds (the un-pruned DTD).
    pub fn with_all_references(mut self) -> Self {
        self.kept_reference_kinds = ALL_REFERENCE_KINDS.iter().map(|s| s.to_string()).collect();
        self
    }
}

/// Running id pools filled during generation; references sample only ids
/// that already exist (dataset ids are pre-seeded so they can be referenced
/// forward, matching ID/IDREF semantics where the target may appear later).
struct Pools {
    dataset: Vec<String>,
    table: Vec<String>,
    field: Vec<String>,
    instrument: Vec<String>,
    author: Vec<String>,
    revision: Vec<String>,
    history: Vec<String>,
}

struct Gen<'s, S> {
    sink: &'s mut S,
    rng: StdRng,
    kept: Vec<String>,
    pools: Pools,
    next_id: usize,
}

#[derive(Clone, Copy)]
enum PoolKind {
    Dataset,
    Table,
    Field,
    Instrument,
    Author,
    Revision,
    History,
}

/// Emit a NASA-like document into `sink`, element by element.
pub fn nasa_events(config: &NasaConfig, sink: &mut impl XmlSink) {
    let mut gen = Gen {
        sink,
        rng: StdRng::seed_from_u64(config.seed),
        kept: config.kept_reference_kinds.clone(),
        pools: Pools {
            // Dataset ids are pre-seeded: forward references allowed.
            dataset: (0..config.datasets).map(|i| format!("dataset{i}")).collect(),
            table: Vec::new(),
            field: Vec::new(),
            instrument: Vec::new(),
            author: Vec::new(),
            revision: Vec::new(),
            history: Vec::new(),
        },
        next_id: 0,
    };

    gen.sink.start("datasets", &[]);
    for i in 0..config.datasets {
        gen.dataset(i);
    }
    gen.sink.end();
}

impl<S: XmlSink> Gen<'_, S> {
    fn fresh_id(&mut self, prefix: &str) -> String {
        let id = format!("{prefix}{}", self.next_id);
        self.next_id += 1;
        id
    }

    /// Push `kind="<random target>"` onto `attributes` with probability
    /// `p`, when the kind is kept and the pool is non-empty.
    fn maybe_ref(&mut self, attributes: &mut Vec<(String, String)>, kind: &str, pool: PoolKind, p: f64) {
        if !self.kept.iter().any(|k| k == kind) {
            return;
        }
        let len = self.pool(pool).len();
        if len == 0 || !self.rng.gen_bool(p) {
            return;
        }
        let pick = self.rng.gen_range(0..len);
        let target = self.pool(pool)[pick].clone();
        attributes.push((kind.to_string(), target));
    }

    /// An element whose only content is one `maybe_ref` attribute.
    fn ref_leaf(&mut self, name: &str, kind: &str, pool: PoolKind, p: f64) {
        let mut attributes = Vec::new();
        self.maybe_ref(&mut attributes, kind, pool, p);
        self.sink.start(name, &attributes);
        self.sink.end();
    }

    fn pool(&self, kind: PoolKind) -> &[String] {
        match kind {
            PoolKind::Dataset => &self.pools.dataset,
            PoolKind::Table => &self.pools.table,
            PoolKind::Field => &self.pools.field,
            PoolKind::Instrument => &self.pools.instrument,
            PoolKind::Author => &self.pools.author,
            PoolKind::Revision => &self.pools.revision,
            PoolKind::History => &self.pools.history,
        }
    }

    fn dataset(&mut self, index: usize) {
        let mut attributes = vec![("id".into(), format!("dataset{index}"))];
        for kind in ["relatedTo", "supersedes", "derivedFrom", "companion"] {
            self.maybe_ref(&mut attributes, kind, PoolKind::Dataset, 0.35);
        }
        self.sink.start("dataset", &attributes);

        self.sink.leaf("title");

        for _ in 0..self.rng.gen_range(0..=2) {
            self.ref_leaf("altname", "aliasOf", PoolKind::Dataset, 0.5);
        }

        self.sink.start("abstract", &[]);
        for _ in 0..self.rng.gen_range(1..=3) {
            self.para();
        }
        self.sink.end();

        if self.rng.gen_bool(0.7) {
            self.sink.start("keywords", &[]);
            for _ in 0..self.rng.gen_range(1..=4) {
                self.ref_leaf("keyword", "about", PoolKind::Instrument, 0.4);
            }
            self.sink.end();
        }

        for _ in 0..self.rng.gen_range(1..=3) {
            self.author();
        }

        self.history();
        self.sink.leaf("identifier");

        if self.rng.gen_bool(0.5) {
            self.instrument();
        }

        if self.rng.gen_bool(0.8) {
            self.sink.start("tables", &[]);
            for _ in 0..self.rng.gen_range(1..=2) {
                self.table();
            }
            self.sink.end();
        }

        for _ in 0..self.rng.gen_range(0..=3) {
            self.reference();
        }

        if self.rng.gen_bool(0.7) {
            self.sink.start("descriptions", &[]);
            let mut attributes = Vec::new();
            self.maybe_ref(&mut attributes, "seeAlso", PoolKind::Dataset, 0.5);
            self.maybe_ref(&mut attributes, "context", PoolKind::Instrument, 0.3);
            self.sink.start("description", &attributes);
            for _ in 0..self.rng.gen_range(1..=3) {
                self.para();
            }
            if self.rng.gen_bool(0.4) {
                let mut attributes = Vec::new();
                self.maybe_ref(&mut attributes, "forField", PoolKind::Field, 0.5);
                self.maybe_ref(&mut attributes, "forTable", PoolKind::Table, 0.5);
                self.sink.start("details", &attributes);
                self.sink.end();
            }
            self.sink.end();
            self.sink.end();
        }
        self.sink.end();
    }

    fn para(&mut self) {
        self.ref_leaf("para", "refersTo", PoolKind::Dataset, 0.2);
    }

    fn author(&mut self) {
        let id = self.fresh_id("author");
        let mut attributes = vec![("id".into(), id.clone())];
        self.maybe_ref(&mut attributes, "collaborator", PoolKind::Author, 0.3);
        self.pools.author.push(id);
        self.sink.start("author", &attributes);
        if self.rng.gen_bool(0.6) {
            self.sink.leaf("initial");
        }
        self.sink.leaf("lastName");
        if self.rng.gen_bool(0.3) {
            self.sink.leaf("affiliation");
        }
        self.sink.end();
    }

    fn history(&mut self) {
        let id = self.fresh_id("history");
        let mut attributes = vec![("id".into(), id.clone())];
        self.maybe_ref(&mut attributes, "precededBy", PoolKind::History, 0.4);
        self.pools.history.push(id);
        self.sink.start("history", &attributes);
        self.sink.leaf("creationDate");
        if self.rng.gen_bool(0.7) {
            self.sink.leaf("ingestDate");
        }
        for _ in 0..self.rng.gen_range(0..=3) {
            let rid = self.fresh_id("revision");
            let mut attributes = vec![("id".into(), rid.clone())];
            self.maybe_ref(&mut attributes, "basedOn", PoolKind::Revision, 0.5);
            self.pools.revision.push(rid);
            self.sink.start("revision", &attributes);
            self.sink.leaf("revisionDate");
            self.para();
            self.sink.end();
        }
        self.sink.end();
    }

    fn instrument(&mut self) {
        let id = self.fresh_id("instrument");
        let mut attributes = vec![("id".into(), id.clone())];
        self.maybe_ref(&mut attributes, "partOf", PoolKind::Instrument, 0.3);
        self.pools.instrument.push(id);
        self.sink.start("instrument", &attributes);
        self.sink.leaf("name");
        if self.rng.gen_bool(0.5) {
            self.sink.leaf("observatory");
        }
        self.sink.end();
    }

    fn table(&mut self) {
        let tid = self.fresh_id("table");
        self.sink.start("table", &[("id".into(), tid.clone())]);
        self.pools.table.push(tid);

        self.sink.start("tableHead", &[]);
        if self.rng.gen_bool(0.4) {
            self.sink.start("tableLinks", &[]);
            for _ in 0..self.rng.gen_range(1..=2) {
                self.ref_leaf("tableLink", "toTable", PoolKind::Table, 0.8);
            }
            self.sink.end();
        }
        self.sink.start("fields", &[]);
        for _ in 0..self.rng.gen_range(2..=5) {
            let fid = self.fresh_id("field");
            let mut attributes = vec![("id".into(), fid.clone())];
            self.maybe_ref(&mut attributes, "derivedField", PoolKind::Field, 0.2);
            self.pools.field.push(fid);
            self.sink.start("field", &attributes);
            self.sink.leaf("name");
            if self.rng.gen_bool(0.5) {
                self.sink.leaf("definition");
            }
            if self.rng.gen_bool(0.4) {
                self.sink.leaf("units");
            }
            self.sink.end();
        }
        self.sink.end();
        self.sink.end();

        for _ in 0..self.rng.gen_range(1..=3) {
            self.sink.start("tableRow", &[]);
            for _ in 0..self.rng.gen_range(1..=3) {
                self.ref_leaf("tableCell", "ofField", PoolKind::Field, 0.6);
            }
            self.sink.end();
        }
        self.sink.end();
    }

    fn reference(&mut self) {
        let mut attributes = Vec::new();
        self.maybe_ref(&mut attributes, "cites", PoolKind::Dataset, 0.6);
        self.maybe_ref(&mut attributes, "sameAuthor", PoolKind::Author, 0.3);
        self.sink.start("reference", &attributes);
        self.sink.start("source", &[]);
        match self.rng.gen_range(0..3) {
            0 => {
                self.sink.start("journal", &[]);
                self.sink.leaf("title");
                for _ in 0..self.rng.gen_range(1..=2) {
                    self.author();
                }
                if self.rng.gen_bool(0.5) {
                    self.sink.leaf("date");
                }
            }
            1 => {
                self.sink.start("book", &[]);
                self.sink.leaf("title");
                if self.rng.gen_bool(0.5) {
                    self.sink.leaf("publisher");
                }
            }
            _ => {
                self.sink.start("other", &[]);
                self.sink.leaf("title");
            }
        }
        self.sink.end();
        self.sink.end();
        self.sink.end();
    }
}

/// XML → graph options matching this generator's reference kinds. Only the
/// kinds in `config.kept_reference_kinds` appear in the document, so listing
/// all 20 is safe for any configuration.
pub fn nasa_graph_options() -> GraphOptions {
    GraphOptions {
        id_attributes: vec!["id".to_string()],
        idref_attributes: ALL_REFERENCE_KINDS.iter().map(|s| s.to_string()).collect(),
        attribute_nodes: false,
        value_nodes: false,
    }
}

/// Generate the NASA-like data graph directly.
pub fn nasa_graph(config: &NasaConfig) -> dkindex_graph::DataGraph {
    let options = nasa_graph_options();
    let mut builder = GraphBuilder::new(&options);
    nasa_events(config, &mut builder);
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
    use dkindex_xml::{XmlEvent, XmlParser};
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let c = NasaConfig::tiny();
        assert_eq!(xml_text(|w| nasa_events(&c, w)), xml_text(|w| nasa_events(&c, w)));
    }

    #[test]
    fn graph_resolves_and_has_references() {
        let g = nasa_graph(&NasaConfig::tiny());
        let stats = GraphStats::of(&g);
        assert_eq!(stats.unreachable, 0);
        assert!(stats.reference_edges > 0);
    }

    #[test]
    fn kept_kinds_limit_reference_kinds_emitted() {
        for k in &ref_kinds(&NasaConfig::tiny()) {
            assert!(
                DEFAULT_KEPT_KINDS.contains(&k.as_str()),
                "unexpected reference kind {k}"
            );
        }
    }

    #[test]
    fn all_references_config_emits_more_kinds() {
        let kp = ref_kinds(&NasaConfig::tiny());
        let kf = ref_kinds(&NasaConfig::tiny().with_all_references());
        assert!(kf.len() > kp.len());
        // And the full graph has more reference edges.
        let gp = nasa_graph(&NasaConfig::tiny());
        let gf = nasa_graph(&NasaConfig::tiny().with_all_references());
        assert!(
            GraphStats::of(&gf).reference_edges > GraphStats::of(&gp).reference_edges
        );
    }

    #[test]
    fn nasa_is_deeper_than_xmark() {
        let nasa = nasa_graph(&NasaConfig::tiny());
        let xmark = crate::xmark::xmark_graph(&crate::xmark::XmarkConfig::tiny());
        // Comparable-or-greater depth and more reference kinds:
        // "broader, deeper and less regular ... more references".
        let sn = GraphStats::of(&nasa);
        let sx = GraphStats::of(&xmark);
        assert!(sn.max_depth >= sx.max_depth.saturating_sub(1));
        assert!(DEFAULT_KEPT_KINDS.len() > 6); // 8 kinds vs XMark's 6
    }

    #[test]
    fn dataset_count_matches_config() {
        let g = nasa_graph(&NasaConfig::tiny());
        let ds = g.labels().get("dataset").unwrap();
        assert_eq!(g.nodes_with_label(ds).len(), 12);
    }

    #[test]
    fn document_round_trips_through_xml_text() {
        let text = xml_text(|w| nasa_events(&NasaConfig::tiny().with_all_references(), w));
        assert_eq!(rewritten(&text), text);
    }

    /// The attribute names other than `id` that the generator emits.
    fn ref_kinds(config: &NasaConfig) -> HashSet<String> {
        let text = xml_text(|w| nasa_events(config, w));
        let mut kinds = HashSet::new();
        for e in XmlParser::new(&text).into_events().unwrap() {
            if let XmlEvent::StartElement { attributes, .. } = e {
                kinds.extend(attributes.into_iter().map(|(k, _)| k).filter(|k| k != "id"));
            }
        }
        kinds
    }
}
