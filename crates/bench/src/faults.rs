//! Fault-injection harness for the durability layer: systematically damage
//! snapshot and WAL bytes, then assert that every damaged input either
//! recovers to a provably well-formed index or fails with a typed error —
//! and that **nothing ever panics**.
//!
//! Five sweeps:
//!
//! * [`snapshot_bitflip_sweep`] — flip one bit at every byte position of a
//!   snapshot. Strict reads must reject the damage (or prove it harmless by
//!   re-serializing byte-identically); graceful loads must return an index
//!   that passes [`check_structure`] or a typed [`SnapshotError`].
//! * [`snapshot_truncation_sweep`] — cut the snapshot at every length.
//! * [`snapshot_resealed_sweep`] — the two above die at a section CRC or at
//!   the framing, so their damage never reaches a section decoder. This one
//!   flips one bit in every payload byte of each section and cuts each
//!   payload at every length, then rewrites that section's `len` and CRC, so
//!   the `GRPH`, `INDX` and `REQS` decoders see damaged bytes. Strict
//!   acceptance is legal here: the CRC no longer vouches for the bytes.
//! * [`snapshot_column_sweep`] — one resealed case per rule the column
//!   loader enforces (offsets that descend or miss the column's length, a
//!   target out of range, a row that repeats a target, an extent run that
//!   descends, a data node in two extents or in none, a root out of
//!   range): each must be a typed [`SnapshotError`] from the strict reader,
//!   naming the rule.
//! * [`wal_fault_sweep`] — flip one bit in every byte of a group-committed
//!   WAL covering every record tag the serve layer logs (must decode as a
//!   typed [`wal::WalError`] or replay to a well-formed index), and append
//!   a resealed record under each of version 3's retired tags (must be a
//!   typed unknown tag). Cutting the same log at every byte is
//!   [`crate::crash::wal_tail_sweep`].
//!
//! Every probe runs under `catch_unwind`; a panic anywhere is a harness
//! failure, reported with the exact byte offset that triggered it.

use dkindex_core::crc32::crc32;
use dkindex_core::wal;
use dkindex_core::{
    check_structure, load_with_recovery, read_snapshot, snapshot_bytes, DkIndex, Requirements,
    ServeOp, SnapshotError,
};
use dkindex_graph::{DataGraph, NodeId};
use dkindex_workload::generate_update_edges;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Outcome of one sweep: how many probes ran and how each class resolved.
#[derive(Clone, Debug, Default)]
pub struct FaultReport {
    /// Sweep label for rendering.
    pub name: String,
    /// Total damaged inputs probed.
    pub cases: usize,
    /// Inputs that loaded (strictly or via recovery) to a verified index.
    pub recovered: usize,
    /// Inputs rejected with a typed error.
    pub typed_errors: usize,
    /// Probes that violated the contract (panicked, silently accepted
    /// damage, or recovered to a malformed index); one line each.
    pub violations: Vec<String>,
}

impl FaultReport {
    pub(crate) fn new(name: &str) -> Self {
        FaultReport {
            name: name.to_string(),
            ..FaultReport::default()
        }
    }

    /// True when every probe resolved to recovery or a typed error.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} cases | {} recovered | {} typed errors | {} violations",
            self.name,
            self.cases,
            self.recovered,
            self.typed_errors,
            self.violations.len()
        )
    }
}

/// What a single probe observed, before contract checking.
pub(crate) enum Probe {
    Recovered,
    TypedError,
    Violation(String),
}

/// Run `f` under `catch_unwind`, mapping a panic to a violation.
pub(crate) fn probe(context: &str, f: impl FnOnce() -> Probe) -> Probe {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(p) => p,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Probe::Violation(format!("{context}: PANIC: {msg}"))
        }
    }
}

pub(crate) fn record(report: &mut FaultReport, outcome: Probe) {
    report.cases += 1;
    match outcome {
        Probe::Recovered => report.recovered += 1,
        Probe::TypedError => report.typed_errors += 1,
        Probe::Violation(line) => report.violations.push(line),
    }
}

/// Contract for one damaged snapshot byte stream: graceful load must yield
/// a verified index or a typed error, and the two readers must agree on what
/// "intact" means. While the CRCs still cover the damage (`pristine` is
/// `Some`), strict read must also reject it or be byte-identical; resealed
/// damage (`None`) may be accepted strictly.
fn check_snapshot_bytes(damaged: &[u8], pristine: Option<&[u8]>, context: &str) -> Probe {
    // Strict mode: accepting damaged bytes is only legal when the damage is
    // provably immaterial (re-serializes to the pristine snapshot).
    let strict = read_snapshot(damaged);
    if let (Ok((dk, g)), Some(pristine)) = (&strict, pristine) {
        if snapshot_bytes(dk, g) != pristine {
            return Probe::Violation(format!("{context}: strict read accepted damaged bytes"));
        }
    }
    let graceful = load_with_recovery(damaged);
    let intact = matches!(&graceful, Ok((_, _, recovery)) if recovery.is_intact());
    if strict.is_ok() != intact {
        return Probe::Violation(format!(
            "{context}: strict read {} but recovery reports intact={intact}",
            if strict.is_ok() { "succeeded" } else { "failed" }
        ));
    }
    match graceful {
        Ok((dk, g, _recovery)) => match check_structure(dk.index(), &g) {
            Ok(()) => Probe::Recovered,
            Err(e) => Probe::Violation(format!("{context}: recovered a malformed index: {e}")),
        },
        Err(SnapshotError::Io(e)) => {
            Probe::Violation(format!("{context}: I/O error from in-memory bytes: {e}"))
        }
        Err(_) => Probe::TypedError,
    }
}

/// Flip one bit at every byte position of the snapshot for `dk` + `data`.
pub fn snapshot_bitflip_sweep(dk: &DkIndex, data: &DataGraph) -> FaultReport {
    let pristine = snapshot_bytes(dk, data);
    let mut report = FaultReport::new("snapshot bit-flips");
    for i in 0..pristine.len() {
        let mut damaged = pristine.clone();
        damaged[i] ^= 1 << (i % 8);
        let context = format!("bit flip at byte {i}");
        let outcome = probe(&context, || {
            check_snapshot_bytes(&damaged, Some(&pristine), &context)
        });
        record(&mut report, outcome);
    }
    report
}

/// Truncate the snapshot for `dk` + `data` at every possible length.
pub fn snapshot_truncation_sweep(dk: &DkIndex, data: &DataGraph) -> FaultReport {
    let pristine = snapshot_bytes(dk, data);
    let mut report = FaultReport::new("snapshot truncations");
    for cut in 0..pristine.len() {
        let context = format!("truncation to {cut} bytes");
        let outcome = probe(&context, || {
            check_snapshot_bytes(&pristine[..cut], Some(&pristine), &context)
        });
        record(&mut report, outcome);
    }
    report
}

/// Each section of a writer-made container: its tag and its payload's byte
/// range, in file order.
fn sections(container: &[u8]) -> Vec<([u8; 4], Range<usize>)> {
    let u32_at = |at: usize| u32::from_le_bytes(container[at..at + 4].try_into().unwrap()) as usize;
    let mut at = 12; // magic, version, section count
    (0..u32_at(8))
        .map(|_| {
            let tag = container[at..at + 4].try_into().unwrap();
            let start = at + 12; // tag, len, crc
            at = start + u32_at(at + 4);
            (tag, start..at)
        })
        .collect()
}

/// `container` with the payload at `range` replaced by `payload`, and that
/// section's `len` and CRC rewritten to match it.
fn reseal(container: &[u8], range: &Range<usize>, payload: &[u8]) -> Vec<u8> {
    let len_at = range.start - 8;
    let mut out = container[..len_at].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&container[range.end..]);
    out
}

/// Damage every section payload of the snapshot for `dk` + `data` and reseal
/// it: one bit flipped in every payload byte, then every cut of every
/// payload. Returns the flip report and the cut report.
pub fn snapshot_resealed_sweep(dk: &DkIndex, data: &DataGraph) -> [FaultReport; 2] {
    let pristine = snapshot_bytes(dk, data);
    let mut flips = FaultReport::new("resealed payload bit-flips");
    let mut cuts = FaultReport::new("resealed payload truncations");
    for (tag, range) in sections(&pristine) {
        let tag = String::from_utf8_lossy(&tag).into_owned();
        let payload = &pristine[range.clone()];
        for i in 0..payload.len() {
            let mut damaged = payload.to_vec();
            damaged[i] ^= 1 << (i % 8);
            let container = reseal(&pristine, &range, &damaged);
            let context = format!("{tag} bit flip at payload byte {i}, resealed");
            let outcome = probe(&context, || check_snapshot_bytes(&container, None, &context));
            record(&mut flips, outcome);
        }
        for cut in 0..payload.len() {
            let container = reseal(&pristine, &range, &payload[..cut]);
            let context = format!("{tag} payload cut to {cut} bytes, resealed");
            let outcome = probe(&context, || check_snapshot_bytes(&container, None, &context));
            record(&mut cuts, outcome);
        }
    }
    [flips, cuts]
}

fn word(payload: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(payload[at..at + 4].try_into().unwrap())
}

fn put_word(payload: &mut [u8], at: usize, value: u32) {
    payload[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Where a rows column of a writer-made payload sits: its length field at
/// `at`, then `rows` row ends, then the targets.
#[derive(Clone, Copy)]
struct Rows {
    at: usize,
    rows: usize,
}

impl Rows {
    fn len(self, p: &[u8]) -> u32 {
        word(p, self.at)
    }
    /// Byte offset of row `r`'s end.
    fn end_at(self, r: usize) -> usize {
        self.at + 4 + 4 * r
    }
    /// Byte offset of target `i`.
    fn target_at(self, i: usize) -> usize {
        self.at + 4 + 4 * self.rows + 4 * i
    }
    /// The byte after the column.
    fn after(self, p: &[u8]) -> usize {
        self.target_at(self.len(p) as usize)
    }
    /// The first row holding at least two targets, as its start.
    fn wide_row(self, p: &[u8]) -> usize {
        let mut start = 0;
        for r in 0..self.rows {
            let end = word(p, self.end_at(r)) as usize;
            if end - start >= 2 {
                return start;
            }
            start = end;
        }
        panic!("the fixture has a row of two targets")
    }
}

/// The byte after the label table at `at`.
fn skip_table(p: &[u8], mut at: usize) -> usize {
    let count = word(p, at);
    at += 4;
    for _ in 0..count {
        at += 4 + word(p, at) as usize;
    }
    at
}

/// `GRPH`'s child rows.
fn graph_rows(p: &[u8]) -> Rows {
    let at = skip_table(p, 4); // after the magic
    let nodes = word(p, at) as usize;
    Rows { at: at + 4 + 4 * nodes, rows: nodes }
}

/// `INDX`'s extent column and child rows.
fn index_rows(p: &[u8]) -> [Rows; 2] {
    let at = skip_table(p, 0);
    let blocks = word(p, at) as usize;
    let extents = Rows { at: at + 4 + 12 * blocks, rows: blocks };
    [extents, Rows { at: extents.after(p), rows: blocks }]
}

/// One break of a column rule: the rule, the reason the loader must give,
/// and the damage to the section payload.
type Damage = (&'static str, &'static str, Box<dyn Fn(&mut Vec<u8>)>);

fn damage(rule: &'static str, reason: &'static str, f: impl Fn(&mut Vec<u8>) + 'static) -> Damage {
    (rule, reason, Box::new(f))
}

/// The breaks every rows column can take.
fn rows_damage(rows: fn(&[u8]) -> Rows) -> Vec<Damage> {
    vec![
        damage("descending row offsets", "row offsets do not ascend", move |p| {
            let r = rows(p);
            let v = word(p, r.end_at(1)) + 1;
            put_word(p, r.end_at(0), v);
        }),
        damage("last row end past the length", "row offsets do not ascend", move |p| {
            let r = rows(p);
            let v = r.len(p) + 1;
            put_word(p, r.end_at(r.rows - 1), v);
        }),
        damage("target out of range", "not a node", move |p| {
            let r = rows(p);
            put_word(p, r.target_at(0), r.rows as u32);
        }),
        damage("row repeats a target", "repeats a target", move |p| {
            let r = rows(p);
            let start = r.wide_row(p);
            let v = word(p, r.target_at(start));
            put_word(p, r.target_at(start + 1), v);
        }),
    ]
}

/// One resealed case per rule of the column loader, with its section.
fn column_cases() -> Vec<([u8; 4], Damage)> {
    let extents = |p: &[u8]| index_rows(p)[0];
    let tagged = |tag: [u8; 4], cases: Vec<Damage>| cases.into_iter().map(move |case| (tag, case));
    let mut cases: Vec<_> = tagged(*b"GRPH", rows_damage(graph_rows))
        .chain(tagged(*b"INDX", rows_damage(|p| index_rows(p)[1])))
        .collect();
    let index_cases: Vec<Damage> = vec![
        damage("last extent end past the length", "offsets do not ascend", move |p| {
            let r = extents(p);
            let v = r.len(p) + 1;
            put_word(p, r.end_at(r.rows - 1), v);
        }),
        damage("descending extent run", "does not ascend", move |p| {
            let r = extents(p);
            let start = r.wide_row(p);
            let (a, b) = (word(p, r.target_at(start)), word(p, r.target_at(start + 1)));
            put_word(p, r.target_at(start), b);
            put_word(p, r.target_at(start + 1), a);
        }),
        damage("data node in two extents", "in two extents", move |p| {
            // Block 0's first member replaces block 1's first, which is larger.
            let r = extents(p);
            let first_of_block_1 = word(p, r.end_at(0)) as usize;
            let v = word(p, r.target_at(0));
            put_word(p, r.target_at(first_of_block_1), v);
        }),
        damage("data node in no extent", "not covered by any extent", move |p| {
            let r = extents(p);
            let len = r.len(p);
            put_word(p, r.end_at(r.rows - 1), len - 1);
            put_word(p, r.at, len - 1);
            let last = r.target_at(len as usize - 1);
            p.drain(last..last + 4);
        }),
        damage("root out of range", "root index node out of range", move |p| {
            let (at, blocks) = (p.len() - 4, index_rows(p)[1].rows as u32);
            put_word(p, at, blocks);
        }),
    ];
    cases.extend(tagged(*b"INDX", index_cases));
    cases
}

/// Break each rule of the column loader once in the snapshot for `dk` +
/// `data`, reseal, and require a typed strict rejection naming the rule,
/// agreement between the two readers, and — for an `INDX` case — a
/// graceful rebuild.
pub fn snapshot_column_sweep(dk: &DkIndex, data: &DataGraph) -> FaultReport {
    let pristine = snapshot_bytes(dk, data);
    let mut report = FaultReport::new("resealed column-rule breaks");
    for (tag, (rule, reason, damage)) in column_cases() {
        let context = format!("{} {rule}, resealed", String::from_utf8_lossy(&tag));
        let outcome = probe(&context, || {
            let (_, range) = sections(&pristine).into_iter().find(|(t, _)| *t == tag).unwrap();
            let mut payload = pristine[range.clone()].to_vec();
            damage(&mut payload);
            let container = reseal(&pristine, &range, &payload);
            match read_snapshot(&container) {
                Err(SnapshotError::Section { tag: at, reason: got })
                    if at == tag && got.contains(reason) =>
                {
                    check_snapshot_bytes(&container, None, &context)
                }
                Err(e) => Probe::Violation(format!("{context}: rejected for another reason: {e}")),
                Ok(_) => Probe::Violation(format!("{context}: strict read accepted it")),
            }
        });
        record(&mut report, outcome);
    }
    report
}

/// Flip one bit in every byte of the log the server would write for
/// `updates`: [`crate::crash::torture_batches`] group-committed through a
/// `WalWriter`, so every record tag the serve layer logs and its commit
/// fences are under the sweep. Each damaged log must decode as a typed error
/// or replay to a well-formed index. Then two more probes: the log plus one
/// fenced record under each tag DKWL v4 retired, its CRC resealed — 2
/// (single-block promote) over an add-edge's two `u32`s, the layout it had
/// in v3, and 4 (demote) over a set-requirements payload. Each must replay
/// as a typed unknown tag.
pub fn wal_fault_sweep(dk: &DkIndex, data: &DataGraph, updates: &[(NodeId, NodeId)]) -> FaultReport {
    let mut report = FaultReport::new("WAL bit-flips");
    let log = match crate::crash::healthy_log(&crate::crash::torture_batches(updates)) {
        Ok((log, _)) => log,
        Err(e) => {
            report.violations.push(format!("healthy disk refused the log: {e}"));
            return report;
        }
    };

    for i in 0..log.len() {
        let mut damaged = log.clone();
        damaged[i] ^= 1 << (i % 8);
        let context = format!("WAL bit flip at byte {i}");
        let outcome = probe(&context, || {
            let mut g = data.clone();
            let mut d = dk.clone();
            match wal::replay(&mut d, &mut g, &damaged) {
                // A flip inside a length prefix can reframe the rest as a
                // torn tail and replay a prefix; the result must still be
                // well-formed.
                Ok(_) => match check_structure(d.index(), &g) {
                    Ok(()) => Probe::Recovered,
                    Err(e) => {
                        Probe::Violation(format!("{context}: replayed to a malformed index: {e}"))
                    }
                },
                Err(wal::WalError::Io(e)) => {
                    Probe::Violation(format!("{context}: I/O error from in-memory bytes: {e}"))
                }
                Err(_) => Probe::TypedError,
            }
        });
        record(&mut report, outcome);
    }

    let add_edge = ServeOp::AddEdge { from: NodeId::from_index(0), to: NodeId::from_index(0) };
    let requirements = ServeOp::SetRequirements(dk.requirements().clone());
    for (tag, op) in [(2u8, add_edge), (4, requirements)] {
        let mut retired = wal::encode_record(&op);
        let body_end = retired.len() - 4;
        retired[4] = tag;
        let crc = crc32(&retired[4..body_end]);
        retired[body_end..].copy_from_slice(&crc.to_le_bytes());
        let mut damaged = log.clone();
        damaged.extend_from_slice(&retired);
        damaged.extend_from_slice(&wal::encode_commit(1));
        let context = format!("WAL record under retired tag {tag}");
        let outcome = probe(&context, || {
            let (mut g, mut d) = (data.clone(), dk.clone());
            match wal::replay(&mut d, &mut g, &damaged) {
                Err(wal::WalError::CorruptRecord { reason, .. })
                    if reason == format!("unknown record tag {tag}") =>
                {
                    Probe::TypedError
                }
                Err(e) => Probe::Violation(format!("{context}: rejected for another reason: {e}")),
                Ok(_) => Probe::Violation(format!("{context}: replayed")),
            }
        });
        record(&mut report, outcome);
    }
    report
}

/// Standard fixture for the fault suite: a small XMark graph (with reference
/// edges, so update generation works) and a mixed-k requirement set.
pub fn fixture(seed: u64) -> (DataGraph, DkIndex, Vec<(NodeId, NodeId)>) {
    let data = crate::datasets::Dataset::Xmark.generate(0.002);
    let dk = DkIndex::build(
        &data,
        Requirements::from_pairs([("item", 2), ("bidder", 3), ("person", 1)]),
    );
    let updates = generate_update_edges(&data, 6, seed);
    (data, dk, updates)
}

/// Run all five sweeps on the standard fixture.
pub fn run_all(seed: u64) -> Vec<FaultReport> {
    let (data, dk, updates) = fixture(seed);
    let [resealed_flips, resealed_cuts] = snapshot_resealed_sweep(&dk, &data);
    vec![
        snapshot_bitflip_sweep(&dk, &data),
        snapshot_truncation_sweep(&dk, &data),
        resealed_flips,
        resealed_cuts,
        snapshot_column_sweep(&dk, &data),
        wal_fault_sweep(&dk, &data, &updates),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_snapshot_survives_every_bitflip_and_truncation() {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let c = g.add_labeled_node("c");
        let r = dkindex_graph::LabeledGraph::root(&g);
        g.add_edge(r, a, dkindex_graph::EdgeKind::Tree);
        g.add_edge(a, b, dkindex_graph::EdgeKind::Tree);
        g.add_edge(r, c, dkindex_graph::EdgeKind::Tree);
        g.add_edge(c, b, dkindex_graph::EdgeKind::Reference);
        let dk = DkIndex::build(&g, Requirements::uniform(2));

        let flips = snapshot_bitflip_sweep(&dk, &g);
        assert!(flips.passed(), "{:?}", flips.violations);
        assert_eq!(flips.cases, snapshot_bytes(&dk, &g).len());

        let cuts = snapshot_truncation_sweep(&dk, &g);
        assert!(cuts.passed(), "{:?}", cuts.violations);

        // One flip and one cut per payload byte of the three sections, and
        // the damage reaches the decoders: some cases load, some are typed.
        let container = snapshot_bytes(&dk, &g);
        let framing = 12 + 3 * 12;
        for resealed in snapshot_resealed_sweep(&dk, &g) {
            assert!(resealed.passed(), "{:?}", resealed.violations);
            assert_eq!(resealed.cases, container.len() - framing);
            assert!(resealed.typed_errors > 0 && resealed.recovered > 0, "{}", resealed.summary());
        }

        // Every column rule, on a fixture with wide rows in both sections.
        let (xmark, xmark_dk, _) = fixture(1);
        let columns = snapshot_column_sweep(&xmark_dk, &xmark);
        assert!(columns.passed(), "{:?}", columns.violations);
        assert_eq!((columns.cases, columns.typed_errors, columns.recovered), (13, 4, 9));

        let updates = vec![
            (a, c),
            (b, c),
            (NodeId::from_index(0), b),
        ];
        let wal = wal_fault_sweep(&dk, &g, &updates);
        assert!(wal.passed(), "{:?}", wal.violations);
        // One probe per byte of the log the crash sweeps cut, and one per
        // retired tag.
        let (log, _) = crate::crash::healthy_log(&crate::crash::torture_batches(&updates)).unwrap();
        assert_eq!(wal.cases, log.len() + 2);
        assert!(wal.typed_errors > 0 && wal.recovered > 0, "{}", wal.summary());
    }
}
