//! Adjacency rows against one `Vec<Vec<NodeId>>` model under the row rule
//! both graphs share (`graph::Adjacency`): child rows in insertion order,
//! parent rows ascending.
//!
//! * `DataGraph::add_edge` and `IndexGraph::add_index_edge`, driven by the
//!   same random `add_node` / `add_edge` / `graft_under_root` / `clone`
//!   sequence, read back equal to the model, and so does a bare
//!   `Adjacency`. The data graph's edges read back in row order with their
//!   kinds, and `has_edge` / `Adjacency::has` equal a scan of the row.
//! * A bulk load (`DataGraph::from_rows`, `Adjacency::from_child_rows`) of
//!   the model's child rows and kinds equals the graph that added them
//!   one edge at a time, parent rows included. The loaded graph then takes
//!   later writes like a built one.
//! * A bare `SegCsr` column under one-pass row filters interleaved with
//!   appends and positional inserts (the writes an index-graph split makes
//!   to its adjacency and extents), built either row by row or at once by
//!   `SegCsr::from_rows`. A filter copies the row's segment only when it
//!   drops a target.
//!
//! In all of them, a snapshot taken by `clone` never sees a later write.

use dkindex_core::{label_split_index, IndexGraph};
use dkindex_graph::segcsr::SEG_SIZE;
use dkindex_graph::{Adjacency, DataGraph, EdgeKind, LabeledGraph, NodeId, SegCsr};
use proptest::prelude::*;

#[derive(Clone, Debug, Default)]
struct Model {
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
    references: Vec<Vec<NodeId>>,
}

impl Model {
    fn new() -> Self {
        let mut model = Model::default();
        model.add_node();
        model
    }

    fn add_node(&mut self) {
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        self.references.push(Vec::new());
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        if self.children[from.index()].contains(&to) {
            return false;
        }
        self.children[from.index()].push(to);
        let parents = &mut self.parents[to.index()];
        let at = parents.iter().take_while(|&&p| p < from).count();
        parents.insert(at, from);
        if kind == EdgeKind::Reference {
            self.references[from.index()].push(to);
        }
        true
    }

    /// Every edge with its kind, child row by child row.
    fn edges(&self) -> Vec<(NodeId, NodeId, EdgeKind)> {
        let mut edges = Vec::new();
        for (from, row) in self.children.iter().enumerate() {
            for &to in row {
                let reference = self.references[from].contains(&to);
                let kind = [EdgeKind::Tree, EdgeKind::Reference][usize::from(reference)];
                edges.push((NodeId::from_index(from), to, kind));
            }
        }
        edges
    }
}

/// The three graphs the model drives, all held to the same rows.
#[derive(Clone)]
struct Subjects {
    data: DataGraph,
    index: IndexGraph,
    adjacency: Adjacency,
}

impl Subjects {
    fn new() -> Self {
        let data = DataGraph::new();
        let index = label_split_index(&data);
        Subjects { data, index, adjacency: Adjacency::with_rows(1) }
    }

    fn add_node(&mut self, label: &str) {
        let label = self.data.intern(label);
        self.data.add_node(label);
        self.index.push_node(label, Vec::new(), 0);
        self.adjacency.push_row();
    }

    /// Add one edge to all three; each must report what the model reports.
    fn add_edge(
        &mut self,
        model: &mut Model,
        from: NodeId,
        to: NodeId,
        kind: EdgeKind,
    ) -> Result<(), TestCaseError> {
        let added = model.add_edge(from, to, kind);
        prop_assert_eq!(self.data.add_edge(from, to, kind), added);
        prop_assert_eq!(self.index.add_index_edge(from, to), added);
        prop_assert_eq!(self.adjacency.add(from, to), added);
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Add this many nodes.
    AddNodes(usize),
    /// One edge between two existing nodes, of either kind.
    AddEdge(prop::sample::Index, prop::sample::Index, bool),
    /// Alternate appends to two rows of one segment, `len` edges each.
    Interleave(prop::sample::Index, usize),
    /// Graft a small graph of `nodes` nodes with these edges under ROOT.
    Graft(usize, Vec<(prop::sample::Index, prop::sample::Index, bool)>),
    /// Reload the data graph and the bare adjacency by a bulk build of
    /// their child rows.
    BulkLoad,
    /// Keep a snapshot of the graphs and model as they are now.
    Snapshot,
}

fn kind(reference: bool) -> EdgeKind {
    [EdgeKind::Tree, EdgeKind::Reference][usize::from(reference)]
}

fn op() -> impl Strategy<Value = Op> {
    let index = any::<prop::sample::Index>;
    prop_oneof![
        (1usize..24).prop_map(Op::AddNodes),
        (index(), index(), any::<bool>()).prop_map(|(a, b, r)| Op::AddEdge(a, b, r)),
        (index(), index(), any::<bool>()).prop_map(|(a, b, r)| Op::AddEdge(a, b, r)),
        (index(), 1usize..12).prop_map(|(a, len)| Op::Interleave(a, len)),
        (1usize..6, prop::collection::vec((index(), index(), any::<bool>()), 0..8))
            .prop_map(|(nodes, edges)| Op::Graft(nodes, edges)),
        Just(Op::BulkLoad),
        Just(Op::Snapshot),
    ]
}

/// Rows of any graph against the model.
fn check_graph(g: &impl LabeledGraph, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.node_count(), model.children.len());
    prop_assert_eq!(g.edge_count(), model.children.iter().map(Vec::len).sum::<usize>());
    for node in g.node_ids() {
        prop_assert_eq!(g.children_of(node), &model.children[node.index()][..]);
        prop_assert_eq!(g.parents_of(node), &model.parents[node.index()][..]);
    }
    Ok(())
}

/// Some `(from, to)` pairs of an `n`-node graph: every pair on small
/// graphs, a stride through them on larger ones.
fn probe_pairs(n: usize) -> impl Iterator<Item = (NodeId, NodeId)> {
    let stride = (n * n / 4096).max(1);
    (0..n * n).step_by(stride).map(move |i| (NodeId::from_index(i / n), NodeId::from_index(i % n)))
}

fn check(subjects: &Subjects, model: &Model) -> Result<(), TestCaseError> {
    let Subjects { data, index, adjacency } = subjects;
    check_graph(data, model)?;
    check_graph(index, model)?;
    prop_assert_eq!(adjacency.rows(), model.children.len());
    for node in data.node_ids() {
        prop_assert_eq!(adjacency.children(node), Some(&model.children[node.index()][..]));
        prop_assert_eq!(adjacency.parents(node), Some(&model.parents[node.index()][..]));
    }
    prop_assert_eq!(data.edges().collect::<Vec<_>>(), model.edges());
    prop_assert!(adjacency.edges().eq(data.edges().map(|(from, to, _)| (from, to))));
    for (from, to) in probe_pairs(data.node_count()) {
        let scan = data.children_of(from).contains(&to);
        prop_assert_eq!(data.has_edge(from, to), scan, "{:?} -> {:?}", from, to);
        prop_assert_eq!(adjacency.has(from, to), scan, "{:?} -> {:?}", from, to);
    }
    Ok(())
}

/// `rows` laid out as a column.
fn column(rows: &[Vec<NodeId>]) -> SegCsr {
    let ends = rows.iter().scan(0, |end, row| {
        *end += row.len() as u32;
        Some(*end)
    });
    SegCsr::from_rows(ends.collect::<Vec<_>>().into_iter(), rows.concat().into_iter()).unwrap()
}

fn apply(subjects: &mut Subjects, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    let node = |i: &prop::sample::Index, n: usize| NodeId::from_index(i.index(n));
    match op {
        Op::AddNodes(count) => {
            for i in 0..*count {
                subjects.add_node(["a", "b", "c"][i % 3]);
                model.add_node();
            }
        }
        Op::AddEdge(a, b, reference) => {
            let n = model.children.len();
            subjects.add_edge(model, node(a, n), node(b, n), kind(*reference))?;
        }
        Op::Interleave(a, len) => {
            let n = model.children.len();
            let first = a.index(n);
            let base = first / SEG_SIZE * SEG_SIZE;
            let rows_here = (n - base).min(SEG_SIZE);
            let second = base + (first - base + 1) % rows_here;
            for t in 0..*len {
                for row in [first, second] {
                    let from = NodeId::from_index(row);
                    let to = NodeId::from_index((row * 7 + t * 13) % n);
                    subjects.add_edge(model, from, to, EdgeKind::Reference)?;
                }
            }
        }
        Op::Graft(nodes, edges) => {
            let mut sub = DataGraph::new();
            for i in 0..*nodes {
                sub.add_labeled_node(["b", "d"][i % 2]);
            }
            let sub_n = sub.node_count();
            for (a, b, reference) in edges {
                sub.add_edge(node(a, sub_n), node(b, sub_n), kind(*reference));
            }
            let first_new = model.children.len();
            let map = subjects.data.graft_under_root(&sub);
            for (i, &m) in map.iter().enumerate().skip(1) {
                prop_assert_eq!(m, NodeId::from_index(first_new + i - 1));
            }
            // The index and the bare adjacency take the same nodes and the
            // same edges in the order the graft copies them: sub's rows.
            for &new in &map[1..] {
                let label = subjects.data.label_of(new);
                subjects.index.push_node(label, Vec::new(), 0);
                subjects.adjacency.push_row();
                model.add_node();
            }
            for (from, to, kind) in sub.edges() {
                let (from, to) = (map[from.index()], map[to.index()]);
                let added = model.add_edge(from, to, kind);
                prop_assert_eq!(subjects.index.add_index_edge(from, to), added);
                prop_assert_eq!(subjects.adjacency.add(from, to), added);
            }
        }
        Op::BulkLoad => {
            let edges = model.edges();
            let labels = subjects.data.node_ids().map(|n| subjects.data.label_of(n)).collect();
            let interner = subjects.data.labels().clone();
            let reference = |slot: usize| edges[slot].2 == EdgeKind::Reference;
            let data = DataGraph::from_rows(interner, labels, column(&model.children), reference);
            subjects.data = data.unwrap();
            subjects.adjacency = Adjacency::from_child_rows(column(&model.children)).unwrap();
        }
        Op::Snapshot => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rows_equal_a_vec_of_vecs_model(
        start in 1usize..150,
        ops in prop::collection::vec(op(), 1..60),
    ) {
        let mut subjects = Subjects::new();
        let mut model = Model::new();
        apply(&mut subjects, &mut model, &Op::AddNodes(start))?;
        let mut snapshots = Vec::new();
        for op in &ops {
            if let Op::Snapshot = op {
                snapshots.push((subjects.clone(), model.clone()));
            }
            apply(&mut subjects, &mut model, op)?;
        }
        check(&subjects, &model)?;
        for (snapshot, snapshot_model) in &snapshots {
            check(snapshot, snapshot_model)?;
        }
    }
}

#[test]
fn a_bulk_load_refuses_rows_that_are_not_an_adjacency() {
    let n = NodeId::from_index;
    let refuse = |rows: &[Vec<NodeId>]| Adjacency::from_child_rows(column(rows)).unwrap_err();
    assert_eq!(refuse(&[vec![n(2)], vec![]]), "a target is not a node");
    assert_eq!(refuse(&[vec![n(1), n(1)], vec![]]), "a row repeats a target");
    // The same target in two rows is two edges, and its parent row ascends.
    let a = Adjacency::from_child_rows(column(&[vec![n(2), n(1)], vec![n(2)], vec![]])).unwrap();
    assert_eq!(a.parents(n(2)), Some(&[n(0), n(1)][..]));
}

#[test]
fn interleaved_appends_to_one_segment_keep_each_rows_order() {
    let mut subjects = Subjects::new();
    let mut model = Model::new();
    apply(&mut subjects, &mut model, &Op::AddNodes(2 * SEG_SIZE - 1)).unwrap();
    let before = subjects.clone();
    // Rows 3 and 40 share segment 0; rows 70 and 100 share segment 1.
    for t in 0..20 {
        for row in [40, 3, 100, 70] {
            let (from, to) = (NodeId::from_index(row), NodeId::from_index((row + 5 * t) % 128));
            subjects.add_edge(&mut model, from, to, EdgeKind::Tree).unwrap();
        }
    }
    check(&subjects, &model).unwrap();
    let empty = |g: &dyn LabeledGraph, node| g.children_of(node).is_empty() && g.parents_of(node).is_empty();
    for node in before.data.node_ids() {
        assert!(empty(&before.data, node) && empty(&before.index, node));
    }
}

#[test]
fn adjacency_remove_keeps_both_rows_in_order_and_copies_only_its_segments() {
    let n = NodeId::from_index;
    let mut a = Adjacency::with_rows(200);
    for to in [5, 150, 70, 9] {
        assert!(a.add(n(1), n(to)) && a.add(n(130), n(to)));
    }
    let before = a.clone();
    assert!(a.remove(n(1), n(150)));
    assert!(!a.remove(n(1), n(150)) && !a.remove(n(150), n(1)));
    assert_eq!(a.children(n(1)), Some(&[n(5), n(70), n(9)][..]));
    assert_eq!(a.parents(n(150)), Some(&[n(130)][..]));
    assert_eq!(before.children(n(1)), Some(&[n(5), n(150), n(70), n(9)][..]));
    let [children, parents] = a.census_with(&before).map(|c| (c.copied(), c.copied_unchanged));
    // Node 1's child segment and node 150's parent segment, one each.
    assert_eq!((children, parents), ((SEG_SIZE, 0), (SEG_SIZE, 0)));
    // Out of range: a write changes nothing.
    assert!(!a.add(n(200), n(1)) && !a.add(n(1), n(200)) && !a.has(n(1), n(200)));
}

/// One write to a bare column; rows and positions are drawn as indexes and
/// reduced against the model's current shape.
#[derive(Clone, Debug)]
enum RowOp {
    /// Append this many empty rows.
    PushRows(usize),
    /// Append a target at the end of a row.
    Push(prop::sample::Index, u8),
    /// Insert a target at a position of a row (up to one past its end).
    Insert(prop::sample::Index, prop::sample::Index, u8),
    /// Keep the targets of a row that are not a multiple of the divisor
    /// (a divisor above every target keeps all but `0`).
    Retain(prop::sample::Index, u8),
    /// Keep a clone of the column and model as they are now.
    Snapshot,
}

fn row_op() -> impl Strategy<Value = RowOp> {
    let index = any::<prop::sample::Index>;
    prop_oneof![
        (1usize..40).prop_map(RowOp::PushRows),
        (index(), any::<u8>()).prop_map(|(r, t)| RowOp::Push(r, t)),
        (index(), any::<u8>()).prop_map(|(r, t)| RowOp::Push(r, t)),
        (index(), index(), any::<u8>()).prop_map(|(r, a, t)| RowOp::Insert(r, a, t)),
        (index(), 2u8..=255).prop_map(|(r, d)| RowOp::Retain(r, d)),
        (index(), 2u8..=255).prop_map(|(r, d)| RowOp::Retain(r, d)),
        Just(RowOp::Snapshot),
    ]
}

fn check_rows(column: &SegCsr, model: &[Vec<NodeId>]) -> Result<(), TestCaseError> {
    for (r, want) in model.iter().enumerate() {
        prop_assert_eq!(column.row(r), Some(&want[..]), "row {}", r);
    }
    prop_assert_eq!(column.row(model.len()), None);
    let targets: usize = model.iter().map(Vec::len).sum();
    prop_assert_eq!(column.target_count(), targets);
    Ok(())
}

fn apply_row_op(
    column: &mut SegCsr,
    model: &mut Vec<Vec<NodeId>>,
    op: &RowOp,
) -> Result<(), TestCaseError> {
    let target = |t: &u8| NodeId::from_index(*t as usize);
    match op {
        RowOp::PushRows(count) => {
            for _ in 0..*count {
                column.push_row();
                model.push(Vec::new());
            }
        }
        RowOp::Push(r, t) => {
            let r = r.index(model.len());
            prop_assert!(column.push_to_row(r, target(t)));
            model[r].push(target(t));
        }
        RowOp::Insert(r, at, t) => {
            let r = r.index(model.len());
            let at = at.index(model[r].len() + 1);
            prop_assert!(column.insert_into_row(r, at, target(t)));
            model[r].insert(at, target(t));
        }
        RowOp::Retain(r, divisor) => {
            let r = r.index(model.len());
            let keep = |t: NodeId| !t.index().is_multiple_of(usize::from(*divisor));
            let (before, len) = (column.clone(), model[r].len());
            prop_assert!(column.retain_row(r, keep));
            model[r].retain(|&t| keep(t));
            let copied = usize::from(model[r].len() != len);
            let segment = (before.rows() - r / SEG_SIZE * SEG_SIZE).min(SEG_SIZE);
            prop_assert_eq!(column.census_with(&before).copied(), copied * segment);
        }
        RowOp::Snapshot => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn column_rows_equal_a_vec_of_vecs_model_under_filters(
        start in 1usize..150,
        ops in prop::collection::vec(row_op(), 1..80),
    ) {
        let mut column = SegCsr::new();
        let mut model = Vec::new();
        apply_row_op(&mut column, &mut model, &RowOp::PushRows(start))?;
        let mut snapshots = Vec::new();
        for op in &ops {
            if let RowOp::Snapshot = op {
                snapshots.push((column.clone(), model.clone()));
            }
            apply_row_op(&mut column, &mut model, op)?;
        }
        check_rows(&column, &model)?;
        for (snapshot, snapshot_model) in &snapshots {
            check_rows(snapshot, snapshot_model)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn a_bulk_built_column_takes_writes_like_an_appended_one(
        start in 0usize..150,
        pairs in prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..400),
        ops in prop::collection::vec(row_op(), 1..80),
    ) {
        let mut model: Vec<Vec<NodeId>> = vec![Vec::new(); start];
        for (row, target) in &pairs {
            if start > 0 {
                model[row.index(start)].push(NodeId::from_index(usize::from(*target) % 40));
            }
        }
        let mut column = column(&model);
        check_rows(&column, &model)?;
        // Rows to write into even when the staged column had none.
        apply_row_op(&mut column, &mut model, &RowOp::PushRows(1))?;
        let mut snapshots = Vec::new();
        for op in &ops {
            if let RowOp::Snapshot = op {
                snapshots.push((column.clone(), model.clone()));
            }
            apply_row_op(&mut column, &mut model, op)?;
        }
        check_rows(&column, &model)?;
        for (snapshot, snapshot_model) in &snapshots {
            check_rows(snapshot, snapshot_model)?;
        }
    }
}
