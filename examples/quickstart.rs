//! Quickstart: parse an XML document, build a D(k)-index tuned to a query
//! load, and evaluate path expressions through it.
//!
//! Run with: `cargo run --example quickstart`

use dkindex::core::{mine_requirements, DkIndex, IndexEvaluator};
use dkindex::graph::stats::GraphStats;
use dkindex::pathexpr::parse;
use dkindex::xml::{stream_to_graph, GraphOptions};

const MOVIES_XML: &str = r#"
<movieDB>
  <director id="d1">
    <name>Kurosawa</name>
    <movie id="m1"><title>Ran</title><year>1985</year></movie>
    <movie id="m2"><title>Ikiru</title><year>1952</year></movie>
  </director>
  <director id="d2">
    <name>Kubrick</name>
    <movie id="m3"><title>The Shining</title><year>1980</year></movie>
  </director>
  <actor id="a1" movie="m1 m3"><name>Nakadai</name></actor>
  <actor id="a2" movie="m2"><name>Shimura</name></actor>
</movieDB>
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the XML and map it onto the data-graph model. The `movie`
    //    attribute is declared as an IDREF, so actors gain reference edges
    //    into the movies they star in — the data becomes a graph, not a tree.
    let options = GraphOptions {
        idref_attributes: vec!["movie".to_string()],
        ..GraphOptions::default()
    };
    let data = stream_to_graph(MOVIES_XML, &options)?;
    println!("data graph: {}", GraphStats::of(&data));

    // 2. Describe the query load and mine per-label similarity requirements.
    let query_load = vec![
        parse("director.movie.title")?, // titles reached by 2-step paths
        parse("actor.movie.title")?,
        parse("actor.name")?, // names by 1-step paths
        parse("movie.year")?,
    ];
    let requirements = mine_requirements(&query_load);
    println!("mined requirements:");
    let mut mined: Vec<_> = requirements.iter().collect();
    mined.sort();
    for (label, k) in mined {
        println!("  {label}: k >= {k}");
    }

    // 3. Build the adaptive D(k)-index.
    let dk = DkIndex::build(&data, requirements);
    println!(
        "D(k)-index: {} index nodes summarizing {} data nodes",
        dk.size(),
        dkindex::graph::LabeledGraph::node_count(&data),
    );

    // 4. Evaluate queries through the index. Every mined query is *sound*:
    //    answered from extents alone, without validating against the data.
    let mut evaluator = IndexEvaluator::new(dk.index(), &data);
    for query in &query_load {
        let out = evaluator.evaluate(query);
        println!(
            "{query}  ->  {} match(es), cost {} node visits, validated: {}",
            out.matches.len(),
            out.cost.total(),
            out.validated
        );
        assert!(!out.validated);
    }

    // 5. A query *outside* the tuned load still returns the exact answer —
    //    the index falls back to validation against the data graph.
    let surprise = parse("movieDB.director.movie.title")?;
    let out = evaluator.evaluate(&surprise);
    println!(
        "{surprise}  ->  {} match(es), cost {} (validated: {})",
        out.matches.len(),
        out.cost.total(),
        out.validated
    );
    Ok(())
}
