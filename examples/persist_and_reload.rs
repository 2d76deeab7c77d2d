//! Persistence round-trip through the library API: build a D(k)-index over
//! generated auction data, save graph + index as one checksummed `DKSN`
//! snapshot, reload in a "fresh process" (which re-verifies the invariants)
//! and serve queries — the workflow the `dkindex` CLI wraps.
//!
//! Run with: `cargo run --release --example persist_and_reload`

use dkindex::core::{read_snapshot, save_snapshot_file, DkIndex, IndexEvaluator};
use dkindex::datagen::{xmark_graph, XmarkConfig};
use dkindex::workload::{generate_test_paths, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // "Process 1": generate, mine, build, save.
    let data = xmark_graph(&XmarkConfig::scale(0.002));
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let dk = DkIndex::build(&data, workload.mine_requirements());
    let before = IndexEvaluator::new(dk.index(), &data).evaluate_all(workload.queries());

    // Atomic on disk: temp file, fsync, rename.
    let path = std::env::temp_dir().join(format!("dkindex-example-{}.dki", std::process::id()));
    save_snapshot_file(&dk, &data, &path)?;
    let container = std::fs::read(&path)?;
    std::fs::remove_file(&path)?;
    println!(
        "saved {} data nodes + {} index nodes in {} bytes ({:.1} bytes/node)",
        dkindex::graph::LabeledGraph::node_count(&data),
        dk.size(),
        container.len(),
        container.len() as f64 / dkindex::graph::LabeledGraph::node_count(&data) as f64
    );

    // "Process 2": reload (read_snapshot verifies every checksum and
    // re-checks every index invariant against the loaded graph) and serve
    // the same workload from the loaded pair.
    let (loaded, loaded_data) = read_snapshot(&container)?;
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
