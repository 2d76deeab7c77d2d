//! The experiments of the paper's §6, as reusable functions returning
//! structured results (the `reproduce` binary renders them; tests assert the
//! paper's qualitative shapes on scaled-down datasets).

use dkindex_core::{
    audit, dk::dk_partition_with_options, AkIndex, AuditConfig, DkIndex, IndexEvaluator,
    IndexGraph, Invariant, OneIndex, Requirements,
};
use dkindex_graph::{DataGraph, LabeledGraph, NodeId};
use dkindex_workload::{generate_test_paths, generate_update_edges, Workload, WorkloadConfig};
use std::time::Instant;

/// Default number of update edges (the paper adds 100).
pub const UPDATE_EDGES: usize = 100;

/// One point on a figure-4/5/6/7 plot: an index, its size (X) and its
/// average evaluation cost over the workload (Y).
#[derive(Clone, Debug)]
pub struct EvalPoint {
    /// Index name, e.g. `A(2)` or `D(k)`.
    pub name: String,
    /// Index size in nodes (the X axis).
    pub size: usize,
    /// Average nodes visited per query (the Y axis).
    pub avg_cost: f64,
    /// Number of workload queries that triggered validation.
    pub validated_queries: usize,
}

fn eval_point(name: impl Into<String>, index: &IndexGraph, data: &DataGraph, w: &Workload) -> EvalPoint {
    let mut evaluator = IndexEvaluator::new(index, data);
    let mut total = 0u64;
    let mut validated = 0usize;
    for q in w.queries() {
        let out = evaluator.evaluate(q);
        total += out.cost.total();
        validated += usize::from(out.validated);
    }
    EvalPoint {
        name: name.into(),
        size: index.size(),
        avg_cost: total as f64 / w.len().max(1) as f64,
        validated_queries: validated,
    }
}

/// Figures 4 & 5: evaluation performance before updating. Returns the
/// A(0)..A(max_k) curve followed by the D(k) point (requirements mined from
/// the workload).
pub fn figure_before_update(data: &DataGraph, workload: &Workload, max_k: usize) -> Vec<EvalPoint> {
    let mut points = Vec::new();
    for k in 0..=max_k {
        let ak = AkIndex::build(data, k);
        points.push(eval_point(format!("A({k})"), ak.index(), data, workload));
    }
    let dk = DkIndex::build(data, workload.mine_requirements());
    points.push(eval_point("D(k)", dk.index(), data, workload));
    points
}

/// One row of Table 1: total time and machine-independent work to apply the
/// update stream to one index.
#[derive(Clone, Debug)]
pub struct UpdateRow {
    /// Index name.
    pub name: String,
    /// Total wall-clock time for all updates, in milliseconds.
    pub millis: f64,
    /// Machine-independent work: data nodes touched (A(k)) or index nodes
    /// touched (D(k)).
    pub work: u64,
    /// Index size before the update stream.
    pub size_before: usize,
    /// Index size after the update stream.
    pub size_after: usize,
}

/// Table 1: update efficiency of A(1)..A(max_k) vs D(k) over the same
/// 100-edge update stream.
pub fn table1(data: &DataGraph, edges: &[(NodeId, NodeId)], max_k: usize, reqs: &Requirements) -> Vec<UpdateRow> {
    let mut rows = Vec::new();
    for k in 1..=max_k {
        let mut g = data.clone();
        let mut ak = AkIndex::build(&g, k);
        let size_before = ak.size();
        let start = Instant::now();
        let mut work = 0u64;
        for &(u, v) in edges {
            work += ak.add_edge(&mut g, u, v).data_nodes_touched;
        }
        rows.push(UpdateRow {
            name: format!("A({k})"),
            millis: start.elapsed().as_secs_f64() * 1e3,
            work,
            size_before,
            size_after: ak.size(),
        });
    }
    {
        let mut g = data.clone();
        let mut dk = DkIndex::build(&g, reqs.clone());
        let size_before = dk.size();
        let start = Instant::now();
        let mut work = 0u64;
        for &(u, v) in edges {
            work += dk.add_edge(&mut g, u, v).index_nodes_touched;
        }
        rows.push(UpdateRow {
            name: "D(k)".to_string(),
            millis: start.elapsed().as_secs_f64() * 1e3,
            work,
            size_before,
            size_after: dk.size(),
        });
    }
    rows
}

/// Figures 6 & 7: evaluation performance *after* the update stream. Each
/// index receives the same new edges via its own update algorithm, then the
/// workload is re-evaluated against the updated data.
pub fn figure_after_update(
    data: &DataGraph,
    workload: &Workload,
    edges: &[(NodeId, NodeId)],
    max_k: usize,
) -> Vec<EvalPoint> {
    let mut points = Vec::new();
    for k in 0..=max_k {
        let mut g = data.clone();
        let mut ak = AkIndex::build(&g, k);
        for &(u, v) in edges {
            ak.add_edge(&mut g, u, v);
        }
        points.push(eval_point(format!("A({k})"), ak.index(), &g, workload));
    }
    {
        let mut g = data.clone();
        let mut dk = DkIndex::build(&g, workload.mine_requirements());
        for &(u, v) in edges {
            dk.add_edge(&mut g, u, v);
        }
        points.push(eval_point("D(k)", dk.index(), &g, workload));
    }
    points
}

/// Ablation B: the promoting process restores evaluation performance after
/// updates. Returns (degraded point, promoted point, splits performed).
pub fn ablation_promote(
    data: &DataGraph,
    workload: &Workload,
    edges: &[(NodeId, NodeId)],
) -> (EvalPoint, EvalPoint, usize) {
    let mut g = data.clone();
    let mut dk = DkIndex::build(&g, workload.mine_requirements());
    for &(u, v) in edges {
        dk.add_edge(&mut g, u, v);
    }
    let degraded = eval_point("D(k) after updates", dk.index(), &g, workload);
    let splits = dk.promote_to_requirements(&g);
    let promoted = eval_point("D(k) promoted", dk.index(), &g, workload);
    (degraded, promoted, splits)
}

/// Ablation A result: what happens without the broadcast algorithm.
#[derive(Clone, Debug)]
pub struct BroadcastAblation {
    /// Definition 3 violations in the no-broadcast index.
    pub constraint_violations: usize,
    /// Queries whose no-broadcast "sound" answer was wrong.
    pub wrong_answers: usize,
    /// Size with broadcast.
    pub size_with: usize,
    /// Size without broadcast.
    pub size_without: usize,
}

/// Ablation A: build D(k) with and without the broadcast step and count
/// constraint violations and wrong (unsound) answers.
pub fn ablation_broadcast(data: &DataGraph, workload: &Workload) -> BroadcastAblation {
    let reqs = workload.mine_requirements();
    let with = DkIndex::build(data, reqs.clone());
    let (p, sims) = dk_partition_with_options(data, &reqs, false);
    let without = IndexGraph::from_data_partition(data, &p, sims);

    // Every Definition 3 violation, not the doctor's first few; stability
    // is capped at 0 because only the constraint count is read.
    let config = AuditConfig { stability_cap: 0, max_findings_per_invariant: usize::MAX };
    let violations = audit(&without, &reqs, data, &config)
        .findings_for(Invariant::StructuralConstraint)
        .count();

    let mut evaluator = IndexEvaluator::new(&without, data);
    let mut wrong = 0;
    for q in workload.queries() {
        let out = evaluator.evaluate(q);
        let truth = dkindex_core::evaluate_on_data(data, q).0;
        if out.matches != truth {
            wrong += 1;
        }
    }
    BroadcastAblation {
        constraint_violations: violations,
        wrong_answers: wrong,
        size_with: with.size(),
        size_without: without.size(),
    }
}

/// Ablation C row: size of every summary structure on one dataset.
#[derive(Clone, Debug)]
pub struct SizeRow {
    /// Summary name.
    pub name: String,
    /// Node count.
    pub size: usize,
    /// Approximate resident bytes.
    pub bytes: usize,
}

/// Ablation C: sizes of label-split/A(k)/D(k)/1-index beside the data graph.
pub fn size_comparison(data: &DataGraph, workload: &Workload, max_k: usize) -> Vec<SizeRow> {
    let mut rows = Vec::new();
    for k in 0..=max_k {
        let ak = AkIndex::build(data, k);
        rows.push(SizeRow {
            name: format!("A({k})"),
            size: ak.size(),
            bytes: ak.index().approx_bytes(),
        });
    }
    let dk = DkIndex::build(data, workload.mine_requirements());
    rows.push(SizeRow {
        name: "D(k)".into(),
        size: dk.size(),
        bytes: dk.index().approx_bytes(),
    });
    let one = OneIndex::build(data);
    rows.push(SizeRow {
        name: "1-index".into(),
        size: one.size(),
        bytes: one.index().approx_bytes(),
    });
    rows.push(SizeRow {
        name: "data graph".into(),
        size: data.node_count(),
        bytes: data.approx_bytes(),
    });
    rows
}

/// Build the standard workload for a dataset (100 paths of 2–5 labels).
pub fn standard_workload(data: &DataGraph, seed: u64) -> Workload {
    generate_test_paths(
        data,
        &WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        },
    )
}

/// Build the standard update stream (100 ID/IDREF-style edges).
pub fn standard_updates(data: &DataGraph, seed: u64) -> Vec<(NodeId, NodeId)> {
    generate_update_edges(data, UPDATE_EDGES, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn small_xmark() -> DataGraph {
        datasets::xmark(0.003)
    }

    #[test]
    fn figure_shape_dk_beats_or_matches_best_ak() {
        let g = small_xmark();
        let w = standard_workload(&g, 1);
        let points = figure_before_update(&g, &w, 4);
        assert_eq!(points.len(), 6);
        let dk = points.last().unwrap();
        assert_eq!(dk.name, "D(k)");
        // The paper's headline: the D(k) point lies below the A(k) curve —
        // for every A(k) with size ≥ D(k)'s, D(k)'s cost is no worse, and
        // D(k) is smaller than the first sound A(k) (= A(4)).
        let a4 = &points[4];
        assert!(dk.size <= a4.size, "D(k) must be no larger than A(4)");
        assert!(
            dk.avg_cost <= a4.avg_cost * 1.05,
            "D(k) cost {} should be ≈≤ A(4) cost {}",
            dk.avg_cost,
            a4.avg_cost
        );
        // Neither D(k) nor A(4) validates on this workload.
        assert_eq!(dk.validated_queries, 0);
        assert_eq!(a4.validated_queries, 0);
    }

    #[test]
    fn ak_sizes_increase_and_costs_decrease_with_k() {
        let g = small_xmark();
        let w = standard_workload(&g, 2);
        let points = figure_before_update(&g, &w, 4);
        for pair in points[..5].windows(2) {
            assert!(pair[0].size <= pair[1].size);
        }
        // A(4) (sound) is cheaper than A(0) (validates everything).
        assert!(points[4].avg_cost < points[0].avg_cost);
    }

    #[test]
    fn table1_dk_update_is_cheapest() {
        let g = small_xmark();
        let w = standard_workload(&g, 5);
        let edges = standard_updates(&g, 5);
        let rows = table1(&g, &edges, 4, &w.mine_requirements());
        assert_eq!(rows.len(), 5);
        let dk = rows.last().unwrap();
        assert_eq!(dk.name, "D(k)");
        // D(k) index size is unchanged by updates; A(k≥1) sizes grow.
        assert_eq!(dk.size_before, dk.size_after);
        assert!(rows[1].size_after > rows[1].size_before); // A(2)
        // Work: D(k) touches (far) fewer units than high-k A(k).
        assert!(dk.work < rows[3].work, "D(k) {} !< A(4) {}", dk.work, rows[3].work);
    }

    #[test]
    fn after_update_dk_size_unchanged_ak_grows() {
        let g = small_xmark();
        let w = standard_workload(&g, 4);
        let edges = standard_updates(&g, 4);
        let before = figure_before_update(&g, &w, 2);
        let after = figure_after_update(&g, &w, &edges, 2);
        let dk_b = before.last().unwrap();
        let dk_a = after.last().unwrap();
        assert_eq!(dk_b.size, dk_a.size);
        // A(2) grows.
        assert!(after[2].size > before[2].size);
    }

    #[test]
    fn promote_restores_performance() {
        let g = small_xmark();
        let w = standard_workload(&g, 5);
        let edges = standard_updates(&g, 5);
        let (degraded, promoted, _splits) = ablation_promote(&g, &w, &edges);
        assert!(promoted.avg_cost <= degraded.avg_cost);
        assert_eq!(promoted.validated_queries, 0);
    }

    #[test]
    fn broadcast_ablation_reports() {
        let g = small_xmark();
        let w = standard_workload(&g, 6);
        let ab = ablation_broadcast(&g, &w);
        // Without the broadcast the index is never larger.
        assert!(ab.size_without <= ab.size_with);
    }

    #[test]
    fn size_comparison_orders_summaries() {
        let g = small_xmark();
        let w = standard_workload(&g, 7);
        let rows = size_comparison(&g, &w, 4);
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap().size;
        assert!(get("A(0)") <= get("A(4)"));
        assert!(get("A(4)") <= get("1-index"));
        assert!(get("1-index") <= get("data graph"));
        assert!(get("D(k)") <= get("A(4)"));
    }
}

/// One point of the degradation curve (extension experiment D1): evaluation
/// cost after `updates_applied` edge additions, with and without periodic
/// promotion every `promote_every` updates.
#[derive(Clone, Debug)]
pub struct DegradationPoint {
    /// Number of edge updates applied so far.
    pub updates_applied: usize,
    /// Average cost without any tuning.
    pub cost_untuned: f64,
    /// Average cost with periodic promotion.
    pub cost_promoted: f64,
    /// Index size on the promoted path.
    pub size_promoted: usize,
}

/// Extension experiment D1: how evaluation cost degrades as edge updates
/// accumulate, and how the paper's "periodically executed" promoting process
/// (§5.3) arrests the degradation. Measures after every `step` updates.
pub fn degradation_curve(
    data: &DataGraph,
    workload: &Workload,
    edges: &[(NodeId, NodeId)],
    step: usize,
    promote_every: usize,
) -> Vec<DegradationPoint> {
    let reqs = workload.mine_requirements();
    let mut g_plain = data.clone();
    let mut dk_plain = DkIndex::build(&g_plain, reqs.clone());
    let mut g_tuned = data.clone();
    let mut dk_tuned = DkIndex::build(&g_tuned, reqs);

    let avg = |dk: &DkIndex, g: &DataGraph| -> f64 {
        IndexEvaluator::new(dk.index(), g).average_cost(workload.queries())
    };

    let mut points = vec![DegradationPoint {
        updates_applied: 0,
        cost_untuned: avg(&dk_plain, &g_plain),
        cost_promoted: avg(&dk_tuned, &g_tuned),
        size_promoted: dk_tuned.size(),
    }];
    for (i, &(u, v)) in edges.iter().enumerate() {
        dk_plain.add_edge(&mut g_plain, u, v);
        dk_tuned.add_edge(&mut g_tuned, u, v);
        let applied = i + 1;
        if applied % promote_every == 0 {
            dk_tuned.promote_to_requirements(&g_tuned);
        }
        if applied % step == 0 {
            points.push(DegradationPoint {
                updates_applied: applied,
                cost_untuned: avg(&dk_plain, &g_plain),
                cost_promoted: avg(&dk_tuned, &g_tuned),
                size_promoted: dk_tuned.size(),
            });
        }
    }
    points
}

/// One row of the query-length sweep (extension experiment D2).
#[derive(Clone, Debug)]
pub struct LengthSweepRow {
    /// Query length in labels.
    pub labels: usize,
    /// Number of workload queries with that length.
    pub queries: usize,
    /// Average cost per index name, in the same order as the names returned
    /// alongside the rows.
    pub avg_costs: Vec<f64>,
}

/// Extension experiment D2: average evaluation cost broken down by query
/// length for A(0), A(2), A(4) and D(k) — shows where the validation penalty
/// kicks in for each summary (cost of A(k) explodes for queries longer than
/// k; D(k) tracks the mined requirement per result label).
pub fn length_sweep(
    data: &DataGraph,
    workload: &Workload,
) -> (Vec<String>, Vec<LengthSweepRow>) {
    let names = vec![
        "A(0)".to_string(),
        "A(2)".to_string(),
        "A(4)".to_string(),
        "D(k)".to_string(),
    ];
    let a0 = AkIndex::build(data, 0);
    let a2 = AkIndex::build(data, 2);
    let a4 = AkIndex::build(data, 4);
    let dk = DkIndex::build(data, workload.mine_requirements());
    let indexes: Vec<&IndexGraph> = vec![a0.index(), a2.index(), a4.index(), dk.index()];
    let mut evaluators: Vec<IndexEvaluator> = indexes
        .iter()
        .map(|i| IndexEvaluator::new(i, data))
        .collect();

    let mut by_len: std::collections::BTreeMap<usize, Vec<&dkindex_pathexpr::PathExpr>> =
        Default::default();
    for q in workload.queries() {
        by_len.entry(q.max_word_len().unwrap_or(0)).or_default().push(q);
    }
    let rows = by_len
        .into_iter()
        .map(|(labels, queries)| {
            let avg_costs = evaluators
                .iter_mut()
                .map(|e| {
                    let total: u64 = queries.iter().map(|q| e.evaluate(q).cost.total()).sum();
                    total as f64 / queries.len() as f64
                })
                .collect();
            LengthSweepRow {
                labels,
                queries: queries.len(),
                avg_costs,
            }
        })
        .collect();
    (names, rows)
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn degradation_is_arrested_by_promotion() {
        let g = datasets::xmark(0.003);
        let w = standard_workload(&g, 8);
        let edges = standard_updates(&g, 8);
        let points = degradation_curve(&g, &w, &edges[..40], 20, 10);
        let first = points.first().unwrap();
        let last = points.last().unwrap();
        // Untuned cost degrades; the promoted path stays near the baseline.
        assert!(last.cost_untuned > first.cost_untuned);
        assert!(last.cost_promoted <= last.cost_untuned);
    }

    #[test]
    fn length_sweep_shows_validation_penalty() {
        let g = datasets::xmark(0.003);
        let w = standard_workload(&g, 9);
        let (names, rows) = length_sweep(&g, &w);
        assert_eq!(names.len(), 4);
        assert!(!rows.is_empty());
        // For the longest queries, A(0) costs far more than A(4) and D(k).
        let longest = rows.last().unwrap();
        assert!(longest.labels >= 4);
        let a0 = longest.avg_costs[0];
        let a4 = longest.avg_costs[2];
        let dk = longest.avg_costs[3];
        assert!(a0 > a4 * 2.0, "A(0) {a0} should dwarf A(4) {a4} on long queries");
        assert!(dk <= a4 * 1.1, "D(k) {dk} should match A(4) {a4} on long queries");
    }
}
