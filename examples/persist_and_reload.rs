//! Persistence round-trip through the library API: build a D(k)-index over
//! generated auction data, save graph + index to one `.dki` container,
//! reload in a "fresh process", verify the invariants and serve queries —
//! the workflow the `dkindex` CLI wraps.
//!
//! Run with: `cargo run --release --example persist_and_reload`

use dkindex::core::store::{load_dk, save_dk};
use dkindex::core::{DkIndex, IndexEvaluator};
use dkindex::datagen::{xmark_graph, XmarkConfig};
use dkindex::workload::{generate_test_paths, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "Process 1": generate, mine, build, save.
    let data = xmark_graph(&XmarkConfig::scale(0.002));
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let dk = DkIndex::build(&data, workload.mine_requirements());
    let before = IndexEvaluator::new(dk.index(), &data).evaluate_all(workload.queries());

    let mut container = Vec::new();
    save_dk(&dk, &data, &mut container)?;
    println!(
        "saved {} data nodes + {} index nodes in {} bytes ({:.1} bytes/node)",
        dkindex::graph::LabeledGraph::node_count(&data),
        dk.size(),
        container.len(),
        container.len() as f64 / dkindex::graph::LabeledGraph::node_count(&data) as f64
    );

    // "Process 2": reload (load_dk re-checks every index invariant against
    // the loaded graph) and serve the same workload from the loaded pair.
    let (loaded, loaded_data) = load_dk(&mut container.as_slice())?;
    println!("reloaded: {}", dkindex::core::IndexStats::of(loaded.index(), &loaded_data));

    let after =
        IndexEvaluator::new(loaded.index(), &loaded_data).evaluate_all(workload.queries());
    let visits: u64 = after.iter().map(|out| out.cost.total()).sum();
    println!(
        "workload cost after reload: {visits} node visits over {} queries",
        after.len()
    );
    assert_eq!(after, before, "a reloaded index answers exactly like the one saved");
    Ok(())
}
