//! The full adaptive lifecycle of a D(k)-index (paper §5): build → data
//! updates degrade local similarities → the promoting process restores
//! performance → a drifting query load is followed by the [`Tuner`], which
//! demotes and promotes on its own, each time retargeting the index to the
//! requirements it mined.
//!
//! Run with: `cargo run --release --example adaptive_tuning`

use dkindex::core::tuner::lowers;
use dkindex::core::{apply_serial, check_structure, DkIndex, IndexEvaluator, Tuner, TunerConfig};
use dkindex::datagen::{nasa_graph, NasaConfig};
use dkindex::graph::DataGraph;
use dkindex::pathexpr::PathExpr;
use dkindex::workload::{generate_test_paths, generate_update_edges, WorkloadConfig};

fn main() {
    let mut data = nasa_graph(&NasaConfig::scale(0.03));
    let workload = generate_test_paths(&data, &WorkloadConfig::default());
    let queries = workload.queries();

    // Phase 1: build for the current load.
    let mut dk = DkIndex::build(&data, workload.mine_requirements());
    snapshot("built", &dk, &data, queries);

    // Phase 2: a stream of edge additions (Algorithms 4+5). Size never
    // changes; similarities drop, validation creeps in.
    let edges = generate_update_edges(&data, 100, 42);
    for (u, v) in edges {
        dk.add_edge(&mut data, u, v);
    }
    snapshot("after 100 edge updates", &dk, &data, queries);

    // Phase 3: a new document arrives (Algorithm 3).
    let new_file = nasa_graph(&NasaConfig {
        datasets: 5,
        seed: 77,
        ..NasaConfig::scale(0.01)
    });
    dk.add_subgraph(&mut data, &new_file);
    snapshot("after inserting a new document", &dk, &data, queries);

    // Phase 4: periodic promotion (Algorithm 6) restores the mined
    // requirements — validation disappears again.
    let splits = dk.promote_to_requirements(&data);
    println!("    (promotion performed {splits} extent splits)");
    snapshot("after promoting", &dk, &data, queries);

    // Phase 5: from here on nobody promotes or demotes by hand. The query
    // load drifts — the same result labels are fetched by bare one-label
    // queries for a while, then the long paths return — and a `Tuner`
    // follows it: every served query is recorded, every window is one
    // `step`, and the op it plans is applied through `apply_serial`,
    // exactly as a tuned `DkServer` run is replayed.
    let shallow: Vec<PathExpr> = queries
        .iter()
        .flat_map(|q| q.last_labels().labels)
        .map(PathExpr::label)
        .collect();
    let tuner = Tuner::new(
        data.labels_shared(),
        TunerConfig {
            window: queries.len(),
            min_support: 1,
        },
    );
    let drift = [
        ("shallow", &shallow[..]),
        ("shallow", &shallow[..]),
        ("deep", queries),
        ("deep", queries),
    ];
    for (name, load) in drift {
        {
            let mut evaluator = IndexEvaluator::new(dk.index(), &data);
            for q in load {
                tuner.record(q, evaluator.evaluate(q).validated);
            }
        }
        let (before, current) = (dk.size(), dk.requirements().clone());
        let action = match tuner.step(&current) {
            Some(op) => {
                apply_serial(&mut dk, &mut data, &[op]);
                let verb = if lowers(&current, dk.requirements()) { "demoted" } else { "promoted" };
                format!("{verb}, size {before} -> {}", dk.size())
            }
            None => "held".to_string(),
        };
        println!("    (tuner after a {name} window: {action})");
        snapshot(&format!("serving the {name} load"), &dk, &data, load);
    }
    let stats = tuner.stats();
    println!(
        "tuner: {} window(s) mined, {} promotion(s), {} demotion(s); final max requirement {}",
        stats.windows,
        stats.promotions,
        stats.demotions,
        dk.requirements().max_requirement()
    );
}

fn snapshot(phase: &str, dk: &DkIndex, data: &DataGraph, queries: &[PathExpr]) {
    let mut evaluator = IndexEvaluator::new(dk.index(), data);
    let mut total = 0u64;
    let mut validated = 0usize;
    for q in queries {
        let out = evaluator.evaluate(q);
        total += out.cost.total();
        validated += usize::from(out.validated);
    }
    println!(
        "{phase:<35} size {:>6}  avg cost {:>9.1}  validated {:>3}/{}",
        dk.size(),
        total as f64 / queries.len() as f64,
        validated,
        queries.len()
    );
    check_structure(dk.index(), data).expect("index invariants must hold in every phase");
}
