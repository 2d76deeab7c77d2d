//! Adjacency rows against a `Vec<Vec<NodeId>>` model:
//!
//! * `DataGraph`'s children and parent rows: random `add_node` / `add_edge`
//!   / `graft_under_root` / `clone` sequences read back equal and in
//!   insertion order;
//! * a bare `SegCsr` column under removals interleaved with appends and
//!   positional inserts (the writes an index-graph split makes), built
//!   either row by row or at once by `SegCsr::from_pairs` (a loader's
//!   column, repeats dropped, which the same writes must then find as they
//!   would an incrementally built one).
//!
//! In both, a snapshot taken by `clone` never sees a later write.

use dkindex_graph::segvec::SEG_SIZE;
use dkindex_graph::{DataGraph, EdgeKind, LabeledGraph, NodeId, SegCsr};
use proptest::prelude::*;

#[derive(Clone, Debug, Default)]
struct Model {
    children: Vec<Vec<NodeId>>,
    parents: Vec<Vec<NodeId>>,
}

impl Model {
    fn new() -> Self {
        Model {
            children: vec![Vec::new()],
            parents: vec![Vec::new()],
        }
    }

    fn add_node(&mut self) {
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
    }

    fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if self.children[from.index()].contains(&to) {
            return false;
        }
        self.children[from.index()].push(to);
        self.parents[to.index()].push(from);
        true
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Add this many nodes.
    AddNodes(usize),
    /// One edge between two existing nodes.
    AddEdge(prop::sample::Index, prop::sample::Index),
    /// Alternate appends to two rows of one segment, `len` edges each.
    Interleave(prop::sample::Index, usize),
    /// Graft a small graph of `nodes` nodes with these edges under ROOT.
    Graft(usize, Vec<(prop::sample::Index, prop::sample::Index)>),
    /// Keep a snapshot of the graph and model as they are now.
    Snapshot,
}

fn op() -> impl Strategy<Value = Op> {
    let index = any::<prop::sample::Index>;
    prop_oneof![
        (1usize..24).prop_map(Op::AddNodes),
        (index(), index()).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (index(), index()).prop_map(|(a, b)| Op::AddEdge(a, b)),
        (index(), 1usize..12).prop_map(|(a, len)| Op::Interleave(a, len)),
        (1usize..6, prop::collection::vec((index(), index()), 0..8))
            .prop_map(|(nodes, edges)| Op::Graft(nodes, edges)),
        Just(Op::Snapshot),
    ]
}

fn check(g: &DataGraph, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.node_count(), model.children.len());
    for node in g.node_ids() {
        prop_assert_eq!(g.children_of(node), &model.children[node.index()][..]);
        prop_assert_eq!(g.parents_of(node), &model.parents[node.index()][..]);
    }
    Ok(())
}

fn apply(g: &mut DataGraph, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    let node = |i: &prop::sample::Index, n: usize| NodeId::from_index(i.index(n));
    match op {
        Op::AddNodes(count) => {
            for i in 0..*count {
                g.add_labeled_node(["a", "b", "c"][i % 3]);
                model.add_node();
            }
        }
        Op::AddEdge(a, b) => {
            let n = g.node_count();
            let (from, to) = (node(a, n), node(b, n));
            prop_assert_eq!(g.add_edge(from, to, EdgeKind::Tree), model.add_edge(from, to));
        }
        Op::Interleave(a, len) => {
            let n = g.node_count();
            let first = a.index(n);
            let base = first / SEG_SIZE * SEG_SIZE;
            let rows_here = (n - base).min(SEG_SIZE);
            let second = base + (first - base + 1) % rows_here;
            for t in 0..*len {
                for row in [first, second] {
                    let from = NodeId::from_index(row);
                    let to = NodeId::from_index((row * 7 + t * 13) % n);
                    prop_assert_eq!(
                        g.add_edge(from, to, EdgeKind::Reference),
                        model.add_edge(from, to)
                    );
                }
            }
        }
        Op::Graft(nodes, edges) => {
            let mut sub = DataGraph::new();
            for i in 0..*nodes {
                sub.add_labeled_node(["b", "d"][i % 2]);
            }
            let sub_n = sub.node_count();
            for (a, b) in edges {
                sub.add_edge(node(a, sub_n), node(b, sub_n), EdgeKind::Tree);
            }
            let first_new = g.node_count();
            let map = g.graft_under_root(&sub);
            for _ in 1..sub_n {
                model.add_node();
            }
            for (i, &m) in map.iter().enumerate().skip(1) {
                prop_assert_eq!(m, NodeId::from_index(first_new + i - 1));
            }
            for &(from, to, _) in sub.edges() {
                model.add_edge(map[from.index()], map[to.index()]);
            }
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
        let mut g = DataGraph::new();
        let mut model = Model::new();
        apply(&mut g, &mut model, &Op::AddNodes(start))?;
        let mut snapshots = Vec::new();
        for op in &ops {
            if let Op::Snapshot = op {
                snapshots.push((g.clone(), model.clone()));
            }
            apply(&mut g, &mut model, op)?;
        }
        check(&g, &model)?;
        for (snapshot, snapshot_model) in &snapshots {
            check(snapshot, snapshot_model)?;
        }
    }
}

#[test]
fn interleaved_appends_to_one_segment_keep_each_rows_order() {
    let mut g = DataGraph::new();
    let mut model = Model::new();
    for _ in 0..2 * SEG_SIZE {
        g.add_labeled_node("a");
        model.add_node();
    }
    let before = g.clone();
    // Rows 3 and 40 share segment 0; rows 70 and 100 share segment 1.
    for t in 0..20 {
        for row in [40, 3, 100, 70] {
            let (from, to) = (NodeId::from_index(row), NodeId::from_index((row + 5 * t) % 128));
            assert_eq!(g.add_edge(from, to, EdgeKind::Tree), model.add_edge(from, to));
        }
    }
    for node in g.node_ids() {
        assert_eq!(g.children_of(node), &model.children[node.index()][..]);
        assert_eq!(g.parents_of(node), &model.parents[node.index()][..]);
        assert!(before.children_of(node).is_empty() && before.parents_of(node).is_empty());
    }
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
    /// Remove the target at a position of a row (out of range on an empty
    /// row: must change nothing).
    Remove(prop::sample::Index, prop::sample::Index),
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
        (index(), index()).prop_map(|(r, a)| RowOp::Remove(r, a)),
        (index(), index()).prop_map(|(r, a)| RowOp::Remove(r, a)),
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
        RowOp::Remove(r, at) => {
            let r = r.index(model.len());
            if model[r].is_empty() {
                prop_assert_eq!(column.remove_from_row(r, 0), None);
            } else {
                let at = at.index(model[r].len());
                prop_assert_eq!(column.remove_from_row(r, at), Some(model[r].remove(at)));
            }
        }
        RowOp::Snapshot => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn column_rows_equal_a_vec_of_vecs_model_under_removals(
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
        let pairs: Vec<(NodeId, NodeId)> = match start {
            0 => Vec::new(),
            _ => pairs
                .iter()
                .map(|(r, t)| (r.index(start), usize::from(*t) % 40))
                .map(|(r, t)| (NodeId::from_index(r), NodeId::from_index(t)))
                .collect(),
        };
        // Each row keeps the first occurrence of each of its targets.
        let mut model: Vec<Vec<NodeId>> = vec![Vec::new(); start];
        for &(row, target) in &pairs {
            if !model[row.index()].contains(&target) {
                model[row.index()].push(target);
            }
        }
        let mut column = SegCsr::from_pairs(start, pairs.iter().copied()).unwrap();
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
