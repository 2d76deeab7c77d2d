//! Invariant auditor for D(k)-indexes — the degradation half of the
//! durability layer.
//!
//! [`audit`] checks a loaded (or long-lived) index against its data graph
//! and reports *named* findings instead of panicking or silently answering
//! wrong. Each finding carries a [`Severity`]:
//!
//! * [`Severity::Corruption`] — the index can return **wrong answers**
//!   (extents don't partition the nodes, a claimed `k` exceeds what the
//!   extents actually satisfy, edges don't project the data graph, …).
//!   The snapshot loader's graceful mode
//!   ([`crate::snapshot::load_with_recovery`]) responds by rebuilding the
//!   index from the data graph — graceful degradation, never a panic.
//! * [`Severity::Degraded`] — the index is *correct but below target*
//!   (a block's `k` fell under its requirement, which is legal after edge
//!   updates per §5: updates only lower local similarity). Queries stay
//!   exact; they just validate more. The fix is promotion, not rebuild.
//!
//! The `dkindex doctor` CLI verb runs this audit and exits non-zero exactly
//! when a `Corruption` finding exists. [`check_structure`] is the
//! near-linear subset — every check but stability and requirement coverage,
//! O(E log d) for E data edges and index in-degree d —
//! that both snapshot loaders run before they hand out an index, and the
//! one invariant check the test suite uses after every construction and
//! update.

use crate::dk::construct::DkIndex;
use crate::index_graph::IndexGraph;
use crate::requirements::Requirements;
use dkindex_graph::{DataGraph, LabeledGraph};
use dkindex_telemetry as telemetry;
use std::fmt;

/// The named well-formedness invariants of a D(k)-index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invariant {
    /// Extents are non-empty, disjoint, and cover every data node; the
    /// node→extent map agrees with the extents.
    ExtentPartition,
    /// Every extent member carries the index node's label.
    LabelHomogeneity,
    /// Index edges are exactly the projection of data edges through the
    /// extents (each data edge appears; each index edge is witnessed). That
    /// parent rows mirror child rows, and every edge ends at an index node,
    /// is `graph::Adjacency`'s own invariant.
    EdgeProjection,
    /// Definition 3: `k(A) ≥ k(B) − 1` on every index edge `A → B`.
    StructuralConstraint,
    /// The root index node contains the data root and carries its label.
    RootConsistency,
    /// §4.2 stability: each extent's members agree on incoming label paths
    /// up to `k + 1` labels — what Theorem 1 soundness rests on.
    Stability,
    /// Every block's `k` meets its per-label requirement target.
    RequirementCoverage,
}

impl Invariant {
    /// Stable, human-readable name (used by `dkindex doctor` output).
    pub fn name(&self) -> &'static str {
        match self {
            Invariant::ExtentPartition => "extent-partition",
            Invariant::LabelHomogeneity => "label-homogeneity",
            Invariant::EdgeProjection => "edge-projection",
            Invariant::StructuralConstraint => "structural-constraint",
            Invariant::RootConsistency => "root-consistency",
            Invariant::Stability => "stability",
            Invariant::RequirementCoverage => "requirement-coverage",
        }
    }

    /// Every invariant, in audit order: the five [`check_structure`] runs,
    /// then the two only [`audit`] runs.
    pub fn all() -> [Invariant; 7] {
        [
            Invariant::ExtentPartition,
            Invariant::LabelHomogeneity,
            Invariant::EdgeProjection,
            Invariant::StructuralConstraint,
            Invariant::RootConsistency,
            Invariant::Stability,
            Invariant::RequirementCoverage,
        ]
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Correct but below target (more validation work; legal after updates).
    Degraded,
    /// Wrong answers possible; the index must not be trusted.
    Corruption,
}

/// One audit finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which invariant is violated.
    pub invariant: Invariant,
    /// How bad it is.
    pub severity: Severity,
    /// What exactly was found.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant.name(), self.detail)
    }
}

/// Audit configuration.
#[derive(Clone, Copy, Debug)]
pub struct AuditConfig {
    /// Cap on the `k` checked by the stability invariant (the label-path
    /// comparison is exponential in path length; `SIM_EXACT` nodes would
    /// otherwise be unaffordable).
    pub stability_cap: usize,
    /// Stop collecting findings for one invariant after this many.
    pub max_findings_per_invariant: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            stability_cap: 4,
            max_findings_per_invariant: 8,
        }
    }
}

/// The full audit result.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// All findings, in invariant order.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// True when no `Corruption` finding exists (the index may still be
    /// degraded, but every answer it gives is correct).
    pub fn is_sound(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Corruption)
    }

    /// True when there are no findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings for one invariant.
    pub fn findings_for(&self, invariant: Invariant) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.invariant == invariant)
    }

    /// Per-invariant text table (the `dkindex doctor` output body).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for invariant in Invariant::all() {
            let findings: Vec<&Finding> = self.findings_for(invariant).collect();
            let status = match findings.iter().map(|f| f.severity).max() {
                None => "ok".to_string(),
                Some(Severity::Degraded) => format!("DEGRADED ({})", findings.len()),
                Some(Severity::Corruption) => format!("CORRUPT ({})", findings.len()),
            };
            let _ = writeln!(out, "  {:<24} {status}", invariant.name());
            for f in findings.iter().take(3) {
                let _ = writeln!(out, "    - {}", f.detail);
            }
        }
        out
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_text())
    }
}

struct Collector {
    findings: Vec<Finding>,
    /// Findings so far per invariant, indexed by `Invariant as usize`.
    counts: [usize; 7],
    cap: usize,
}

impl Collector {
    fn new(cap: usize) -> Collector {
        Collector { findings: Vec::new(), counts: [0; 7], cap }
    }

    /// Record a finding unless the invariant is at its cap. Returns false
    /// once the cap is reached: the caller stops scanning that invariant.
    fn push(&mut self, invariant: Invariant, severity: Severity, detail: String) -> bool {
        let count = &mut self.counts[invariant as usize];
        if *count < self.cap {
            *count += 1;
            self.findings.push(Finding { invariant, severity, detail });
        }
        *count < self.cap
    }
}

/// The five near-linear checks, in audit order.
fn check_linear(index: &IndexGraph, data: &DataGraph, c: &mut Collector) {
    check_extent_partition(index, data, c);
    check_label_homogeneity(index, data, c);
    check_edge_projection(index, data, c);
    check_structural_constraint(index, c);
    check_root_consistency(index, data, c);
}

/// The near-linear subset of [`audit`] (O(E log d)): extent-partition,
/// label-homogeneity, edge-projection, structural-constraint and
/// root-consistency, returning the first finding. Every one of them is a
/// `Corruption`; stability (exponential in `k`) and requirement coverage
/// (a `Degraded` target, not a fault) are left to [`audit`]. This is the
/// check both snapshot loaders run before anything uses a loaded index.
pub fn check_structure(index: &IndexGraph, data: &DataGraph) -> Result<(), Finding> {
    let mut c = Collector::new(1);
    check_linear(index, data, &mut c);
    c.findings.into_iter().next().map_or(Ok(()), Err)
}

/// Audit `index` (with its requirements) against `data`. Never panics on a
/// malformed index: every check bounds-guards its accesses and reports a
/// finding instead.
pub fn audit(
    index: &IndexGraph,
    requirements: &Requirements,
    data: &DataGraph,
    config: &AuditConfig,
) -> AuditReport {
    let span = telemetry::Span::start(&telemetry::metrics::AUDIT_NS);
    let mut c = Collector::new(config.max_findings_per_invariant);
    check_linear(index, data, &mut c);
    check_stability(index, data, config, &mut c);
    check_requirement_coverage(index, requirements, &mut c);

    telemetry::metrics::AUDIT_RUNS.incr();
    telemetry::metrics::AUDIT_VIOLATIONS.add(c.findings.len() as u64);
    drop(span);
    AuditReport { findings: c.findings }
}

/// [`audit`] for a [`DkIndex`] (index + its own requirements).
pub fn audit_dk(dk: &DkIndex, data: &DataGraph, config: &AuditConfig) -> AuditReport {
    audit(dk.index(), dk.requirements(), data, config)
}

/// Test helper: assert that no extent of `index` is stale, checking `k` up
/// to `cap` (the claim Algorithms 4–6 must keep truthful).
#[cfg(test)]
pub(crate) fn assert_stable(index: &IndexGraph, data: &DataGraph, cap: usize) {
    let config = AuditConfig { stability_cap: cap, ..AuditConfig::default() };
    let report = audit(index, &Requirements::new(), data, &config);
    assert!(report.findings_for(Invariant::Stability).next().is_none(), "{report}");
}

fn check_extent_partition(index: &IndexGraph, data: &DataGraph, c: &mut Collector) {
    let inv = Invariant::ExtentPartition;
    let sev = Severity::Corruption;
    let mut seen = vec![false; data.node_count()];
    for inode in index.node_ids() {
        let extent = index.extent(inode);
        if extent.is_empty() {
            if !c.push(inv, sev, format!("index node {inode:?} has an empty extent")) {
                return;
            }
            continue;
        }
        for &d in extent {
            let Some(slot) = seen.get_mut(d.index()) else {
                if !c.push(inv, sev, format!("extent of {inode:?} references non-existent data node {d:?}")) {
                    return;
                }
                continue;
            };
            if *slot {
                if !c.push(inv, sev, format!("data node {d:?} appears in two extents")) {
                    return;
                }
                continue;
            }
            *slot = true;
            let mapped = (d.index() < index.node_map_len()).then(|| index.index_of(d));
            if mapped != Some(inode)
                && !c.push(inv, sev, format!("node→extent map stale for {d:?}"))
            {
                return;
            }
        }
    }
    for (i, covered) in seen.iter().enumerate() {
        if !covered && !c.push(inv, sev, format!("data node n{i} not covered by any extent")) {
            return;
        }
    }
}

fn check_label_homogeneity(index: &IndexGraph, data: &DataGraph, c: &mut Collector) {
    let inv = Invariant::LabelHomogeneity;
    for inode in index.node_ids() {
        // A loaded index has its own interner: match names once per block,
        // then label ids once per member.
        let want = index.labels().name(index.label_of(inode));
        let want_id = data.labels().get(want);
        for &d in index.extent(inode) {
            if d.index() >= data.node_count() {
                continue; // already reported by the partition check
            }
            if Some(data.label_of(d)) != want_id
                && !c.push(
                    inv,
                    Severity::Corruption,
                    format!("extent of {inode:?} ({want}) contains {d:?} labeled {}", data.label_name(d)),
                )
            {
                return;
            }
        }
    }
}

fn check_edge_projection(index: &IndexGraph, data: &DataGraph, c: &mut Collector) {
    let inv = Invariant::EdgeProjection;
    let sev = Severity::Corruption;
    // `witnessed[first_parent[b] + i]`: some data edge lands on the index
    // edge from b's i-th parent. One sequential pass over the data edges
    // fills it, each edge a binary search of its target block's ascending
    // parent row, so the check is O(E log d) for index in-degree d — it
    // runs on every snapshot load, and builds a message only for a finding.
    let mut first_parent = vec![0; index.size() + 1];
    for b in index.node_ids() {
        first_parent[b.index() + 1] = first_parent[b.index()] + index.parents_of(b).len();
    }
    let mut witnessed = vec![false; first_parent[index.size()]];
    // Every data edge, child row by child row, must appear as an index edge.
    for from in data.node_ids() {
        for &to in data.children_of(from) {
            if from.index() >= index.node_map_len() || to.index() >= index.node_map_len() {
                continue; // unreachable after a partition finding; stay safe
            }
            let (fi, ti) = (index.index_of(from), index.index_of(to));
            if fi.index() >= index.size() {
                continue; // the partition check's finding
            }
            // A target in no block has no index edge to land on.
            let row = if ti.index() < index.size() { index.parents_of(ti) } else { &[] };
            match row.binary_search(&fi) {
                Ok(i) => witnessed[first_parent[ti.index()] + i] = true,
                Err(_) => {
                    let msg =
                        format!("data edge {from:?}→{to:?} has no index edge {fi:?}→{ti:?}");
                    if !c.push(inv, sev, msg) {
                        return;
                    }
                }
            }
        }
    }
    // Every index edge must be witnessed by a data edge.
    for b in index.node_ids() {
        for (i, &a) in index.parents_of(b).iter().enumerate() {
            if !witnessed[first_parent[b.index()] + i] {
                let msg = format!("dangling index edge {a:?}→{b:?} (no witnessing data edge)");
                if !c.push(inv, sev, msg) {
                    return;
                }
            }
        }
    }
}

fn check_structural_constraint(index: &IndexGraph, c: &mut Collector) {
    let inv = Invariant::StructuralConstraint;
    for a in index.node_ids() {
        for &b in index.children_of(a) {
            if index.similarity(a).saturating_add(1) < index.similarity(b)
                && !c.push(
                    inv,
                    Severity::Corruption,
                    format!(
                        "edge {a:?}(k={})→{b:?}(k={}) violates k(A) ≥ k(B) − 1",
                        index.similarity(a),
                        index.similarity(b)
                    ),
                )
            {
                return;
            }
        }
    }
}

fn check_stability(
    index: &IndexGraph,
    data: &DataGraph,
    config: &AuditConfig,
    c: &mut Collector,
) {
    use dkindex_graph::traversal::incoming_label_paths_up_to;
    let inv = Invariant::Stability;
    for inode in index.node_ids() {
        let k = index.similarity(inode).min(config.stability_cap);
        let extent = index.extent(inode);
        if extent.len() < 2 || extent.iter().any(|d| d.index() >= data.node_count()) {
            continue;
        }
        // Members with similarity k must agree on incoming label paths of up
        // to k+1 labels (a path of k edges carries k+1 labels).
        let reference = incoming_label_paths_up_to(data, extent[0], k + 1);
        for &m in &extent[1..] {
            if incoming_label_paths_up_to(data, m, k + 1) != reference {
                if !c.push(
                    inv,
                    Severity::Corruption,
                    format!(
                        "extent of {inode:?} claims k={} but {:?} and {m:?} diverge within {k} edges (stale k)",
                        index.similarity(inode),
                        extent[0]
                    ),
                ) {
                    return;
                }
                break; // one finding per extent
            }
        }
    }
}

fn check_requirement_coverage(index: &IndexGraph, requirements: &Requirements, c: &mut Collector) {
    let inv = Invariant::RequirementCoverage;
    for inode in index.node_ids() {
        let label = index.labels().name(index.label_of(inode));
        let target = requirements.get(label);
        if index.similarity(inode) < target
            && !c.push(
                inv,
                Severity::Degraded,
                format!(
                    "{inode:?} ({label}) has k={} below its target {target}",
                    index.similarity(inode)
                ),
            )
        {
            return;
        }
    }
}

fn check_root_consistency(index: &IndexGraph, data: &DataGraph, c: &mut Collector) {
    let inv = Invariant::RootConsistency;
    let sev = Severity::Corruption;
    let root = index.root();
    if root.index() >= index.size() {
        c.push(inv, sev, format!("root index node {root:?} out of range"));
        return;
    }
    if !index.extent(root).contains(&data.root()) {
        c.push(
            inv,
            sev,
            format!("root index node {root:?} does not contain the data root"),
        );
    }
    if data.root().index() < index.node_map_len() && index.index_of(data.root()) != root {
        c.push(
            inv,
            sev,
            "data root maps to a non-root index node".to_string(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkindex_graph::{EdgeKind, NodeId};

    fn sample() -> (DataGraph, DkIndex) {
        let mut g = DataGraph::new();
        let d = g.add_labeled_node("director");
        let m1 = g.add_labeled_node("movie");
        let m2 = g.add_labeled_node("movie");
        let t1 = g.add_labeled_node("title");
        let t2 = g.add_labeled_node("title");
        let a = g.add_labeled_node("actor");
        let r = g.root();
        g.add_edge(r, d, EdgeKind::Tree);
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(d, m1, EdgeKind::Tree);
        g.add_edge(a, m2, EdgeKind::Tree);
        g.add_edge(m1, t1, EdgeKind::Tree);
        g.add_edge(m2, t2, EdgeKind::Tree);
        let dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        (g, dk)
    }

    #[test]
    fn healthy_index_is_clean() {
        let (g, dk) = sample();
        let report = audit_dk(&dk, &g, &AuditConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn check_structure_returns_the_first_corruption() {
        let (g, mut dk) = sample();
        check_structure(dk.index(), &g).unwrap();
        let index = dk.index_mut();
        let other = index.node_ids().find(|&i| i != index.root()).unwrap();
        index.set_root(other);
        let finding = check_structure(dk.index(), &g).unwrap_err();
        assert_eq!(finding.invariant, Invariant::RootConsistency, "{finding}");
    }

    #[test]
    fn split_extent_corruption_is_detected_and_named() {
        let (g, mut dk) = sample();
        // Craft a "split extent": push a duplicate node holding a data node
        // that already lives in another extent.
        let victim = NodeId::from_index(4); // a title node
        let label = g.label_of(victim);
        let index = dk.index_mut();
        index.push_node(label, vec![victim], 0);
        let report = audit_dk(&dk, &g, &AuditConfig::default());
        assert!(!report.is_sound());
        assert!(
            report.findings_for(Invariant::ExtentPartition).next().is_some(),
            "partition violation must be named: {report}"
        );
    }

    #[test]
    fn stale_k_corruption_is_detected_and_named() {
        let (g, _) = sample();
        // Inflate a block's k beyond what its extent satisfies: the two
        // title nodes differ at k=2 (director vs actor grandparent), so an
        // A(0)-grade index node claiming k=5 is lying.
        let mut dk = DkIndex::build(&g, Requirements::new());
        let title_label = g.labels().get("title").unwrap();
        let index = dk.index_mut();
        let victim = index
            .node_ids()
            .find(|&i| index.label_of(i) == title_label && index.extent(i).len() == 2)
            .expect("A(0) merges both titles");
        // Keep Definition 3 satisfied so only stability flags it.
        index.set_similarity(victim, 5);
        for p in index.node_ids().collect::<Vec<_>>() {
            if index.children_of(p).contains(&victim) {
                index.set_similarity(p, 5);
            }
        }
        let report = audit_dk(&dk, &g, &AuditConfig::default());
        assert!(!report.is_sound());
        let finding = report
            .findings_for(Invariant::Stability)
            .next()
            .expect("stale k must be named");
        assert!(finding.detail.contains("stale k"), "{}", finding.detail);
    }

    #[test]
    fn dangling_index_edge_is_detected_and_named() {
        let (g, mut dk) = sample();
        // Add an index edge no data edge witnesses: actor-block → title-block.
        let index = dk.index_mut();
        let actor = g.labels().get("actor").unwrap();
        let director = g.labels().get("director").unwrap();
        let from = index.node_ids().find(|&i| index.label_of(i) == actor).unwrap();
        let to = index.node_ids().find(|&i| index.label_of(i) == director).unwrap();
        index.add_index_edge(from, to);
        let report = audit_dk(&dk, &g, &AuditConfig::default());
        assert!(!report.is_sound());
        let finding = report
            .findings_for(Invariant::EdgeProjection)
            .next()
            .expect("dangling edge must be named");
        assert!(finding.detail.contains("dangling"), "{}", finding.detail);
    }

    #[test]
    fn below_target_k_is_degraded_not_corrupt() {
        let (g, mut dk) = sample();
        let title = g.labels().get("title").unwrap();
        let index = dk.index_mut();
        let victim = index.node_ids().find(|&i| index.label_of(i) == title).unwrap();
        // Lower below the k=2 target but keep it truthful (any extent is
        // 0-similar to itself; singletons are trivially stable).
        index.set_similarity(victim, 0);
        let report = audit_dk(&dk, &g, &AuditConfig::default());
        assert!(report.is_sound(), "below-target k is not corruption: {report}");
        assert!(!report.is_clean());
        let finding = report
            .findings_for(Invariant::RequirementCoverage)
            .next()
            .expect("coverage gap must be named");
        assert_eq!(finding.severity, Severity::Degraded);
    }

    #[test]
    fn render_text_lists_every_invariant() {
        let (g, dk) = sample();
        let text = audit_dk(&dk, &g, &AuditConfig::default()).render_text();
        for invariant in Invariant::all() {
            assert!(text.contains(invariant.name()), "{text}");
        }
    }
}
