//! Write-ahead log of maintenance operations (§5's update stream, made
//! crash-safe): the durable form of a [`ServeOp`] sequence.
//!
//! A snapshot captures the index at one point in time; the WAL captures the
//! maintenance operations applied since. `snapshot + replay(WAL)` therefore
//! reconstructs exactly the state reached by applying the same stream
//! directly — byte-identical serialization, asserted by the fault-injection
//! suite, the crash-recovery torture harness and the robustness property
//! tests.
//!
//! On-disk format, version 4 (all integers little-endian):
//!
//! ```text
//! header   b"DKWL", u32 version (= 4)
//! record   u32 body_len, body, u32 CRC-32 of body
//!          body = u8 tag, payload
//!            tag 1  add-edge                u32 from, u32 to
//!            tag 3  promote-to-requirements (empty)
//!            tag 5  set-requirements        requirements
//!            tag 6  commit fence            u32 ops since previous fence
//!          requirements = u32 floor, u32 count,
//!                         count × (u32 name_len, name bytes, u32 k)
//!          (pairs sorted by label name — the in-memory table is a
//!          `HashMap`, so the wire order is declared here; the codec is
//!          `store`'s, the snapshot's `REQS` section)
//! ```
//!
//! Every record but add-edge is a *retarget* (`DkIndex::build` from the
//! data graph and requirements), so replay runs only the last one. Version 4
//! keeps version 3's bytes for tags 1, 3, 5 and 6 and retires its tags 2
//! (Algorithm 6 on one block) and 4 (the §5.4 demote), neither a rebuild:
//! in a version-4 body they are unknown tags. Any other header version — 3;
//! 2, whose tags 3 and 5 ran Algorithm 6; the fence-less 1 — is rejected
//! with [`WalError::UnsupportedVersion`].
//!
//! The **commit fence** (tag 6) is what makes a batch atomic: the
//! group-commit writer stages a batch of op records plus one fence in a
//! single write and `fsync`s once. Decoding returns only records *covered by
//! a fence* — the committed prefix. Everything after the last fence, whether
//! a partial record or complete-but-unfenced records, is the unacknowledged
//! tail: recovery and [`WalWriter::open`] drop it atomically, which is what
//! lets a DKNP `UPDATE_OK` promise durability (docs/PROTOCOL.md §8).
//!
//! Decoding distinguishes two failure shapes with different semantics:
//!
//! * **Torn tail** — the file ends mid-record or past the last commit
//!   fence. This is the expected crash signature (the process died while
//!   appending, or before the batch's fsync); decoding *succeeds* with the
//!   committed prefix and reports [`WalTail::Torn`].
//! * **Corrupt record** — a complete record whose CRC does not match, an
//!   unknown tag, a malformed payload, or a fence whose op count disagrees
//!   with the records actually present. This is bit rot or tampering, never
//!   a clean crash (a torn write leaves a *prefix* of what was written);
//!   decoding fails with a typed [`WalError::CorruptRecord`].
//!
//! [`WalWriter`] orders writes for durability: a batch's records and its
//! fence are written in one write and synced before
//! [`WalWriter::append_batch`] returns, so an operation acknowledged to the
//! caller survives a crash. The writer is generic over
//! [`WalStore`] so the crash torture harness can substitute the
//! fail-injecting [`crate::io_fail::SimDisk`] for a real file.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use,
    clippy::disallowed_methods
)]

use crate::bytes::Cursor;
use crate::crc32::crc32;
use crate::dk::construct::DkIndex;
use crate::serve_ops::{self, ServeOp};
use crate::store;
use dkindex_graph::{DataGraph, NodeId};
use dkindex_telemetry as telemetry;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"DKWL";
/// The on-disk version this build reads and writes.
pub const VERSION: u32 = 4;
const HEADER_LEN: usize = 8;
const TAG_ADD_EDGE: u8 = 1;
const TAG_PROMOTE_TO_REQUIREMENTS: u8 = 3;
const TAG_SET_REQUIREMENTS: u8 = 5;
const TAG_COMMIT: u8 = 6;
/// Upper bound on one record body. A length prefix beyond this is
/// corruption, not a huge record: the largest legitimate body is a
/// requirements table, and even a pathological label set stays far below
/// a mebibyte.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// How the log ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalTail {
    /// The file ends exactly on a commit fence (or is a bare header).
    Clean,
    /// The committed prefix ends at `valid_len`: the file continues with a
    /// partial record (crash during a write) or with records no commit
    /// fence covers (crash before the batch's fsync). Recovery truncates
    /// here.
    Torn {
        /// Length of the committed prefix in bytes.
        valid_len: usize,
    },
}

/// Typed WAL failure.
#[derive(Debug)]
pub enum WalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The header magic is wrong — not a WAL file.
    BadMagic,
    /// The file is shorter than the header.
    TruncatedHeader,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// A complete record failed its CRC, carries an unknown tag, has a
    /// malformed payload, or is a fence whose count disagrees with the log.
    CorruptRecord {
        /// Zero-based record index (fences included).
        index: usize,
        /// Byte offset of the record start.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// A record references a data node the graph does not have.
    RecordOutOfRange {
        /// Zero-based record index.
        index: usize,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "WAL I/O error: {e}"),
            WalError::BadMagic => write!(f, "not a WAL file (bad magic, expected DKWL)"),
            WalError::TruncatedHeader => write!(f, "WAL truncated inside the header"),
            WalError::UnsupportedVersion(v) => write!(f, "unsupported WAL version {v}"),
            WalError::CorruptRecord { index, offset, reason } => {
                write!(f, "corrupt WAL record {index} at byte {offset}: {reason}")
            }
            WalError::RecordOutOfRange { index } => {
                write!(f, "WAL record {index} references a node outside the data graph")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

// ---- encoding ------------------------------------------------------------

/// The 8-byte file header.
pub fn encode_header() -> [u8; HEADER_LEN] {
    let [m0, m1, m2, m3] = *MAGIC;
    let [v0, v1, v2, v3] = VERSION.to_le_bytes();
    [m0, m1, m2, m3, v0, v1, v2, v3]
}

/// Encode one op record into its wire form (length prefix + body + CRC).
pub fn encode_record(op: &ServeOp) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    match op {
        ServeOp::AddEdge { from, to } => {
            body.push(TAG_ADD_EDGE);
            body.extend_from_slice(&(from.index() as u32).to_le_bytes());
            body.extend_from_slice(&(to.index() as u32).to_le_bytes());
        }
        ServeOp::PromoteToRequirements => body.push(TAG_PROMOTE_TO_REQUIREMENTS),
        ServeOp::SetRequirements(reqs) => {
            body.push(TAG_SET_REQUIREMENTS);
            store::write_requirements(reqs, &mut body);
        }
    }
    frame_body(&body)
}

/// Encode a commit fence covering `count` op records.
pub fn encode_commit(count: u32) -> Vec<u8> {
    let mut body = Vec::with_capacity(5);
    body.push(TAG_COMMIT);
    body.extend_from_slice(&count.to_le_bytes());
    frame_body(&body)
}

fn frame_body(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

// ---- decoding ------------------------------------------------------------

/// Per-file WAL report for `dkindex doctor`: committed record count,
/// dropped-tail size and the tail verdict, without replaying.
#[derive(Debug)]
pub struct WalInspection {
    /// Records covered by the acknowledged prefix (replay applies these).
    pub committed: usize,
    /// Complete records past the last commit fence — written but never
    /// fsync-fenced, so recovery drops them.
    pub uncommitted: usize,
    /// How the file ends: its [`WalTail`], or [`WalError::CorruptRecord`]
    /// when a complete record is damaged — bit rot or tampering, not a
    /// crash.
    pub verdict: Result<WalTail, WalError>,
}

/// Low-level scan result shared by [`decode_wal`], [`inspect_wal`] and
/// [`WalWriter::open`].
struct Decoded {
    /// Every complete, CRC-valid op record in file order (fences excluded).
    records: Vec<ServeOp>,
    /// How many of `records` a commit fence covers.
    committed: usize,
    /// Where the scan stopped: a tail, or the first damaged record.
    end: Result<WalTail, WalError>,
}

fn decode_engine(bytes: &[u8]) -> Result<Decoded, WalError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.array4().ok_or(WalError::TruncatedHeader)?;
    if magic != *MAGIC {
        return Err(WalError::BadMagic);
    }
    let version = cur.u32_le().ok_or(WalError::TruncatedHeader)?;
    if version != VERSION {
        return Err(WalError::UnsupportedVersion(version));
    }
    let mut records: Vec<ServeOp> = Vec::new();
    let mut committed = 0usize;
    let mut committed_end = cur.offset();
    let mut index = 0usize;
    let end = loop {
        let torn = Ok(WalTail::Torn { valid_len: committed_end });
        if cur.remaining() == 0 {
            break if committed == records.len() && committed_end == cur.offset() {
                Ok(WalTail::Clean)
            } else {
                // Complete records past the last fence: written but never
                // fenced by an fsync, i.e. never acknowledged — the tail
                // recovery drops.
                torn
            };
        }
        let offset = cur.offset();
        let corrupt = move |reason: String| Err(WalError::CorruptRecord { index, offset, reason });
        // A tear inside the 4 length bytes, or a body/CRC shorter than the
        // declared length, is the crash signature: the write stopped partway.
        let Some(len) = cur.u32_le() else {
            break torn;
        };
        let len = len as usize;
        if len == 0 || len > MAX_RECORD_LEN {
            // The 4 length bytes are complete, so they are the bytes that
            // were written — an out-of-bounds value is damage, not a tear.
            break corrupt(format!("record length {len} out of bounds"));
        }
        if cur.remaining() < len + 4 {
            break torn;
        }
        let (Some(body), Some(stored)) = (cur.take(len), cur.u32_le()) else {
            break torn;
        };
        if crc32(body) != stored {
            telemetry::metrics::STORE_CRC_FAILURES.incr();
            break corrupt("CRC mismatch".to_string());
        }
        match decode_body(body) {
            Ok(DecodedBody::Op(op)) => records.push(op),
            Ok(DecodedBody::Commit(count)) => {
                let run = records.len() - committed;
                if count as usize != run {
                    break corrupt(format!(
                        "commit fence covers {count} records but {run} follow the previous fence"
                    ));
                }
                committed = records.len();
                committed_end = cur.offset();
            }
            Err(reason) => break corrupt(reason),
        }
        index += 1;
    };
    Ok(Decoded { records, committed, end })
}

enum DecodedBody {
    Op(ServeOp),
    Commit(u32),
}

fn decode_body(body: &[u8]) -> Result<DecodedBody, String> {
    let mut cur = Cursor::new(body);
    let Some(tag) = cur.u8() else {
        return Err("empty record body".to_string());
    };
    let record = match tag {
        TAG_ADD_EDGE => {
            let (Some(from), Some(to)) = (cur.u32_le(), cur.u32_le()) else {
                return Err("add-edge payload truncated".to_string());
            };
            DecodedBody::Op(ServeOp::AddEdge {
                from: NodeId::from_index(from as usize),
                to: NodeId::from_index(to as usize),
            })
        }
        TAG_PROMOTE_TO_REQUIREMENTS => DecodedBody::Op(ServeOp::PromoteToRequirements),
        TAG_SET_REQUIREMENTS => {
            DecodedBody::Op(ServeOp::SetRequirements(store::take_requirements(&mut cur)?))
        }
        TAG_COMMIT => {
            let Some(count) = cur.u32_le() else {
                return Err("commit fence payload truncated".to_string());
            };
            DecodedBody::Commit(count)
        }
        other => return Err(format!("unknown record tag {other}")),
    };
    if cur.remaining() != 0 {
        return Err(format!("{} trailing payload bytes", cur.remaining()));
    }
    Ok(record)
}

/// Decode a WAL byte stream into its committed operations. A file ending
/// mid-record or past the last commit fence yields the committed prefix
/// with [`WalTail::Torn`]; a complete record with a bad CRC (or any other
/// structural damage) is a typed error.
pub fn decode_wal(bytes: &[u8]) -> Result<(Vec<ServeOp>, WalTail), WalError> {
    let mut decoded = decode_engine(bytes)?;
    let tail = decoded.end?;
    if let WalTail::Torn { .. } = tail {
        telemetry::metrics::WAL_TORN_TAILS.incr();
        decoded.records.truncate(decoded.committed);
    }
    Ok((decoded.records, tail))
}

/// Scan a WAL byte stream for `dkindex doctor`: committed and dropped
/// record counts, and the three-way tail verdict. Unlike
/// [`decode_wal`], a corrupt record is reported in the verdict rather than
/// failing the scan; only header-level damage is an error.
pub fn inspect_wal(bytes: &[u8]) -> Result<WalInspection, WalError> {
    let decoded = decode_engine(bytes)?;
    let uncommitted = decoded.records.len() - decoded.committed;
    Ok(WalInspection { committed: decoded.committed, uncommitted, verdict: decoded.end })
}

// ---- replay --------------------------------------------------------------

/// Outcome of replaying a WAL against a snapshot.
#[derive(Debug)]
pub struct ReplayReport {
    /// Records applied.
    pub applied: usize,
    /// How the log ended.
    pub tail: WalTail,
}

/// Decode `bytes` and replay the committed ops into `dk`/`data`. A
/// retarget (every op but `AddEdge`) rebuilds the index from the data graph
/// and the requirements alone, so only the *last* one in the log runs: each record before it applies just its data edge and
/// its requirement change, and each record from it on applies exactly as
/// [`crate::serve_ops`] applied it in the serve run that logged it. Replay
/// of the committed prefix is byte-identical to that run. The group-commit
/// path logs only ops [`serve_ops::is_applicable`] accepts, so one that
/// names a node outside the graph means the WAL belongs to a different
/// snapshot: a typed error, raised *before* that op mutates anything.
pub fn replay(
    dk: &mut DkIndex,
    data: &mut DataGraph,
    bytes: &[u8],
) -> Result<ReplayReport, WalError> {
    let (records, tail) = decode_wal(bytes)?;
    let span = telemetry::Span::start(&telemetry::metrics::WAL_REPLAY_NS);
    let applied = records.len();
    let last_retarget = records.iter().rposition(serve_ops::is_retarget).unwrap_or(0);
    for (index, op) in records.into_iter().enumerate() {
        if !serve_ops::is_applicable(&op, data) {
            return Err(WalError::RecordOutOfRange { index });
        }
        if index < last_retarget {
            serve_ops::apply_overwritten(dk, data, op);
        } else {
            serve_ops::apply(dk, data, op);
        }
        telemetry::metrics::WAL_RECORDS_REPLAYED.incr();
    }
    drop(span);
    Ok(ReplayReport { applied, tail })
}

// ---- writing -------------------------------------------------------------

/// The byte sink a [`WalWriter`] appends to. The production store is a real
/// file ([`FileStore`]); the crash torture harness substitutes
/// [`crate::io_fail::SimDisk`] to inject fsync failures and torn writes.
pub trait WalStore {
    /// Append `buf` at the end of the store.
    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush everything written so far to stable storage.
    fn sync(&mut self) -> io::Result<()>;
}

/// [`WalStore`] over a real file, syncing with `sync_data`.
pub struct FileStore {
    file: File,
}

impl WalStore for FileStore {
    fn write_all_bytes(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// Durable batch sink for the serve maintenance thread: one group commit
/// (single write + single fsync) per batch, all-or-nothing before any
/// acknowledgment is released.
pub trait BatchLog: Send {
    /// Durably log one batch of operations.
    fn log_batch(&mut self, ops: &[ServeOp]) -> io::Result<()>;
}

impl<S: WalStore + Send> BatchLog for WalWriter<S> {
    fn log_batch(&mut self, ops: &[ServeOp]) -> io::Result<()> {
        self.append_batch(ops)
    }
}

/// Append-only WAL handle with fsync-ordered writes: a batch plus its
/// commit fence is flushed to stable storage before the append returns.
pub struct WalWriter<S: WalStore = FileStore> {
    store: S,
}

impl WalWriter<FileStore> {
    /// Create (or truncate) a WAL at `path`, writing and syncing the header
    /// — and the parent directory, so the log's name is as durable as the
    /// commits about to be acknowledged against it.
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut store = FileStore { file: File::create(path)? };
        store.write_all_bytes(&encode_header())?;
        store.sync()?;
        crate::snapshot::sync_parent_dir(path)?;
        Ok(WalWriter { store })
    }

    /// Open an existing WAL for appending. The whole file is validated
    /// first; the unacknowledged tail — a torn record or anything past the
    /// last commit fence — is truncated away so new records extend the
    /// committed prefix.
    pub fn open(path: &Path) -> Result<Self, WalError> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let end = decode_engine(&bytes)?.end?;
        let file = OpenOptions::new().write(true).open(path)?;
        if let WalTail::Torn { valid_len } = end {
            telemetry::metrics::WAL_TORN_TAILS.incr();
            file.set_len(valid_len as u64)?;
            file.sync_data()?;
        }
        let mut store = FileStore { file };
        use std::io::Seek;
        store.file.seek(io::SeekFrom::End(0))?;
        Ok(WalWriter { store })
    }
}

impl<S: WalStore> WalWriter<S> {
    /// Wrap a fresh store, writing and syncing the header.
    /// The torture harness builds its writers through here over a
    /// [`crate::io_fail::SimDisk`].
    pub fn with_store(mut store: S) -> io::Result<Self> {
        store.write_all_bytes(&encode_header())?;
        store.sync()?;
        Ok(WalWriter { store })
    }

    /// Borrow the underlying store (the torture harness reads crash views
    /// through this).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Group-commit one batch: every op record plus the commit fence in a
    /// single write, then a single fsync. This is the serve maintenance
    /// thread's durability step — nothing in the batch is acknowledged
    /// until this returns `Ok` — and the one way to append: a single op is
    /// `append_batch(std::slice::from_ref(&op))`.
    pub fn append_batch(&mut self, ops: &[ServeOp]) -> io::Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let span = telemetry::Span::start(&telemetry::metrics::WAL_GROUP_COMMIT_NS);
        let mut buf = Vec::new();
        for op in ops {
            buf.extend_from_slice(&encode_record(op));
        }
        buf.extend_from_slice(&encode_commit(ops.len() as u32));
        self.store.write_all_bytes(&buf)?;
        self.sync_counted()?;
        for _ in ops {
            telemetry::metrics::WAL_RECORDS_APPENDED.incr();
        }
        telemetry::metrics::WAL_GROUP_COMMITS.incr();
        drop(span);
        Ok(())
    }

    fn sync_counted(&mut self) -> io::Result<()> {
        match self.store.sync() {
            Ok(()) => Ok(()),
            Err(e) => {
                telemetry::metrics::WAL_SYNC_FAILURES.incr();
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::Requirements;
    use dkindex_graph::{EdgeKind, LabeledGraph};

    fn sample() -> (DataGraph, DkIndex) {
        let mut g = DataGraph::new();
        let a = g.add_labeled_node("a");
        let b = g.add_labeled_node("b");
        let c = g.add_labeled_node("c");
        let r = g.root();
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, b, EdgeKind::Tree);
        g.add_edge(r, c, EdgeKind::Tree);
        let dk = DkIndex::build(&g, Requirements::uniform(2));
        (g, dk)
    }

    fn add(from: usize, to: usize) -> ServeOp {
        ServeOp::AddEdge { from: NodeId::from_index(from), to: NodeId::from_index(to) }
    }

    /// Log bytes with each record individually fenced (append-per-record).
    fn log_bytes(records: &[ServeOp]) -> Vec<u8> {
        let mut bytes = encode_header().to_vec();
        for r in records {
            bytes.extend_from_slice(&encode_record(r));
            bytes.extend_from_slice(&encode_commit(1));
        }
        bytes
    }

    fn mixed_records() -> Vec<ServeOp> {
        vec![
            add(3, 1),
            ServeOp::PromoteToRequirements,
            ServeOp::SetRequirements(Requirements::from_pairs([("a", 1), ("b", 2)])),
            ServeOp::SetRequirements({
                let mut r = Requirements::from_pairs([("c", 3)]);
                r.raise_floor(1);
                r
            }),
        ]
    }

    /// The wire layout is a durable format and stays pinned: LE body length, body = tag +
    /// payload, LE CRC of the body; header is magic + LE 4; the commit
    /// fence is tag 6 with an LE op count.
    #[test]
    fn v4_wire_format_bytes_are_pinned() {
        assert_eq!(encode_header(), *b"DKWL\x04\x00\x00\x00");
        let rec = encode_record(&add(0x0102, 3));
        assert_eq!(rec[..4], 9u32.to_le_bytes());
        assert_eq!(rec[4..13], [1, 0x02, 0x01, 0, 0, 3, 0, 0, 0]);
        assert_eq!(rec[13..], crc32(&rec[4..13]).to_le_bytes());
        let fence = encode_commit(7);
        assert_eq!(fence[..4], 5u32.to_le_bytes());
        assert_eq!(fence[4..9], [6, 7, 0, 0, 0]);
        assert_eq!(fence[9..], crc32(&fence[4..9]).to_le_bytes());
        // Requirements pairs are sorted by label name on the wire.
        let reqs = ServeOp::SetRequirements(Requirements::from_pairs([("zz", 1), ("aa", 2)]));
        let body = &encode_record(&reqs)[4..];
        let aa = body.windows(2).position(|w| w == b"aa");
        let zz = body.windows(2).position(|w| w == b"zz");
        assert!(aa.unwrap() < zz.unwrap(), "pairs must be name-sorted");
    }

    #[test]
    fn v4_round_trips_every_op_kind() {
        let records = mixed_records();
        let (back, tail) = decode_wal(&log_bytes(&records)).unwrap();
        assert_eq!(back, records);
        assert_eq!(tail, WalTail::Clean);
    }

    #[test]
    fn v4_torn_record_yields_committed_prefix() {
        let records = vec![add(3, 1), add(0, 2)];
        let full = log_bytes(&records);
        let first_end = HEADER_LEN + encode_record(&records[0]).len() + encode_commit(1).len();
        // Every truncation point inside the second record (or its fence)
        // keeps exactly the first committed record.
        for cut in (first_end + 1)..full.len() {
            let (back, tail) = decode_wal(&full[..cut]).unwrap();
            assert_eq!(back, records[..1], "cut at {cut}");
            assert_eq!(tail, WalTail::Torn { valid_len: first_end }, "cut at {cut}");
        }
    }

    #[test]
    fn v4_unfenced_records_are_dropped_as_torn_tail() {
        // A batch of two records whose fence never made it to disk: both
        // are complete, neither is committed.
        let mut bytes = encode_header().to_vec();
        bytes.extend_from_slice(&encode_record(&add(3, 1)));
        bytes.extend_from_slice(&encode_record(&add(0, 2)));
        let (back, tail) = decode_wal(&bytes).unwrap();
        assert!(back.is_empty(), "unfenced records must not replay");
        assert_eq!(tail, WalTail::Torn { valid_len: HEADER_LEN });
        // With the fence appended, both commit.
        bytes.extend_from_slice(&encode_commit(2));
        let (back, tail) = decode_wal(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(tail, WalTail::Clean);
    }

    #[test]
    fn v4_fence_count_mismatch_is_corrupt() {
        let mut bytes = encode_header().to_vec();
        bytes.extend_from_slice(&encode_record(&add(3, 1)));
        bytes.extend_from_slice(&encode_commit(2));
        let err = decode_wal(&bytes).unwrap_err();
        assert!(matches!(err, WalError::CorruptRecord { .. }), "{err}");
    }

    #[test]
    fn complete_record_with_bad_crc_is_a_typed_error() {
        let records = vec![add(3, 1)];
        // Flip every body/CRC byte (flips inside a length prefix can
        // legitimately read as torn tails — the length governs framing).
        let log = log_bytes(&records);
        let rec_len = encode_record(&records[0]).len();
        let record_len_prefix = HEADER_LEN..HEADER_LEN + 4;
        let fence_len_prefix = HEADER_LEN + rec_len..HEADER_LEN + rec_len + 4;
        for byte in HEADER_LEN..log.len() {
            if record_len_prefix.contains(&byte) || fence_len_prefix.contains(&byte) {
                continue;
            }
            let mut bytes = log.clone();
            bytes[byte] ^= 0x40;
            let err = decode_wal(&bytes).unwrap_err();
            assert!(matches!(err, WalError::CorruptRecord { .. }), "flip at {byte}: {err}");
        }
    }

    #[test]
    fn v4_oversized_length_is_corrupt_not_torn() {
        let mut bytes = encode_header().to_vec();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let err = decode_wal(&bytes).unwrap_err();
        assert!(matches!(err, WalError::CorruptRecord { .. }), "{err}");
    }

    #[test]
    fn header_corruption_is_typed() {
        assert!(matches!(decode_wal(b""), Err(WalError::TruncatedHeader)));
        assert!(matches!(decode_wal(b"DKW"), Err(WalError::TruncatedHeader)));
        assert!(matches!(decode_wal(b"XXXX\x01\0\0\0"), Err(WalError::BadMagic)));
        assert!(matches!(
            decode_wal(b"DKWL\x63\0\0\0"),
            Err(WalError::UnsupportedVersion(0x63))
        ));
    }

    /// A fenced log under header `version` whose one record is `op`'s
    /// payload under `tag`, resealed: tag 2 (version 3's single-block
    /// promote: u32 node, u32 k) over an add-edge, tag 4 (its demote) over a
    /// set-requirements.
    fn retagged_log(version: u8, tag: u8, op: &ServeOp) -> Vec<u8> {
        let record = encode_record(op);
        let mut body = record[4..record.len() - 4].to_vec();
        body[0] = tag;
        let mut log = [*MAGIC, [version, 0, 0, 0]].concat();
        log.extend_from_slice(&frame_body(&body));
        log.extend_from_slice(&encode_commit(1));
        log
    }

    /// Version 3's promote and demote records are unknown tags in a
    /// version-4 log: a typed corrupt record before anything replays.
    #[test]
    fn retired_tags_are_unknown_in_v4() {
        let reqs = ServeOp::SetRequirements(Requirements::uniform(1));
        for (tag, op) in [(2, add(1, 2)), (4, reqs)] {
            let log = retagged_log(4, tag, &op);
            let (mut g, mut dk) = sample();
            let before = crate::snapshot::snapshot_bytes(&dk, &g);
            let err = replay(&mut dk, &mut g, &log).unwrap_err();
            assert!(matches!(&err, WalError::CorruptRecord { index: 0, reason, .. }
                if *reason == format!("unknown record tag {tag}")), "{err}");
            assert_eq!(crate::snapshot::snapshot_bytes(&dk, &g), before, "nothing replayed");
        }
    }

    /// Complete, CRC-valid logs of the three older versions are outside
    /// input: every entry point rejects them typed, and none replays a
    /// prefix. A version-1 log is the fence-less format that predates group
    /// commit (13-byte add-edge records); a version-2 log has version 3's
    /// bytes, but its tag 3 and 5 records ran Algorithm 6; a version-3 log
    /// may hold a single-block promote (tag 2) or a demote (tag 4), neither
    /// of which is a rebuild.
    #[test]
    fn older_versions_are_rejected_at_every_entry_point() {
        const V1: [u8; 21] = [
            0x44, 0x4b, 0x57, 0x4c, 0x01, 0x00, 0x00, 0x00, // header
            0x01, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6b, 0x60, 0x41, 0xc7,
        ];
        let mut v2 = log_bytes(&[add(3, 1), ServeOp::PromoteToRequirements]);
        v2[4] = 2;
        let v3 = retagged_log(3, 2, &add(1, 2));
        let dir = std::env::temp_dir().join(format!("dkindex-wal-old-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (version, log) in [(1, V1.to_vec()), (2, v2), (3, v3)] {
            let rejected = |r: Result<_, WalError>| matches!(r, Err(WalError::UnsupportedVersion(v)) if v == version);
            assert!(rejected(decode_wal(&log).map(|_| ())), "v{version}");
            assert!(rejected(inspect_wal(&log).map(|_| ())), "v{version}");
            let (mut g, mut dk) = sample();
            let before = crate::snapshot::snapshot_bytes(&dk, &g);
            assert!(rejected(replay(&mut dk, &mut g, &log).map(|_| ())), "v{version}");
            assert_eq!(crate::snapshot::snapshot_bytes(&dk, &g), before, "nothing replayed");

            let path = dir.join(format!("v{version}.wal"));
            std::fs::write(&path, &log).unwrap();
            assert!(rejected(WalWriter::open(&path).map(|_| ())), "v{version}");
            assert_eq!(std::fs::read(&path).unwrap(), log, "a rejected file is left untouched");
        }
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup: a leftover temp directory fails nothing"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_reports_counts_and_verdict() {
        let records = mixed_records();
        let clean = inspect_wal(&log_bytes(&records)).unwrap();
        assert_eq!(clean.committed, records.len());
        assert_eq!(clean.uncommitted, 0);
        assert!(matches!(clean.verdict, Ok(WalTail::Clean)));

        let mut unfenced = log_bytes(&records[..2]);
        unfenced.extend_from_slice(&encode_record(&records[2]));
        let torn = inspect_wal(&unfenced).unwrap();
        assert_eq!(torn.committed, 2);
        assert_eq!(torn.uncommitted, 1);
        assert!(matches!(torn.verdict, Ok(WalTail::Torn { .. })));

        let mut corrupt = log_bytes(&records[..1]);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let bad = inspect_wal(&corrupt).unwrap();
        assert!(matches!(bad.verdict, Err(WalError::CorruptRecord { .. })));

        assert!(inspect_wal(b"XXXXzzzz").is_err());
    }

    #[test]
    fn replay_matches_direct_application_for_mixed_ops() {
        let (mut g_direct, mut dk_direct) = sample();
        let (mut g_replayed, mut dk_replayed) = sample();
        let records = vec![
            add(3, 1),
            ServeOp::SetRequirements(Requirements::uniform(3)),
            add(0, 2),
            ServeOp::SetRequirements(Requirements::uniform(1)),
            ServeOp::PromoteToRequirements,
            add(2, 3),
        ];
        serve_ops::apply_serial(&mut dk_direct, &mut g_direct, &records);
        let report = replay(&mut dk_replayed, &mut g_replayed, &log_bytes(&records)).unwrap();
        assert_eq!(report.applied, records.len());

        assert_eq!(
            crate::snapshot::snapshot_bytes(&dk_direct, &g_direct),
            crate::snapshot::snapshot_bytes(&dk_replayed, &g_replayed),
            "replay must be byte-identical"
        );
    }

    #[test]
    fn replay_rejects_out_of_range_records() {
        let (mut g, mut dk) = sample();
        let bytes = log_bytes(&[add(99, 0)]);
        assert!(matches!(
            replay(&mut dk, &mut g, &bytes),
            Err(WalError::RecordOutOfRange { index: 0 })
        ));
    }

    #[test]
    fn writer_appends_durably_and_reopens_after_torn_tail() {
        let dir = std::env::temp_dir().join(format!("dkindex-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("updates.wal");

        let mut w = WalWriter::create(&path).unwrap();
        w.append_batch(&[add(3, 1)]).unwrap();
        drop(w);

        // Simulate a crash mid-append: a complete record with no fence plus
        // half of another record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(&add(0, 2)));
        bytes.extend_from_slice(&encode_record(&add(1, 1))[..5]);
        std::fs::write(&path, &bytes).unwrap();

        let mut w = WalWriter::open(&path).unwrap();
        w.append_batch(&[ServeOp::PromoteToRequirements]).unwrap();
        drop(w);

        let bytes = std::fs::read(&path).unwrap();
        let (records, tail) = decode_wal(&bytes).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(
            records,
            vec![add(3, 1), ServeOp::PromoteToRequirements],
            "unfenced tail truncated, then one append"
        );
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup: a leftover temp directory fails nothing"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_append_commits_atomically() {
        let dir =
            std::env::temp_dir().join(format!("dkindex-wal-batch-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.wal");
        let ops = vec![
            ServeOp::AddEdge { from: NodeId::from_index(3), to: NodeId::from_index(1) },
            ServeOp::SetRequirements(Requirements::uniform(1)),
            ServeOp::PromoteToRequirements,
        ];
        let mut w = WalWriter::create(&path).unwrap();
        w.append_batch(&ops).unwrap();
        w.append_batch(&[]).unwrap();
        drop(w);

        let bytes = std::fs::read(&path).unwrap();
        let (records, tail) = decode_wal(&bytes).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(records, ops);
        // Chopping the fence off drops the whole batch.
        let fence_len = encode_commit(ops.len() as u32).len();
        let (records, tail) = decode_wal(&bytes[..bytes.len() - fence_len]).unwrap();
        assert!(records.is_empty());
        assert_eq!(tail, WalTail::Torn { valid_len: HEADER_LEN });
        #[expect(
            clippy::let_underscore_must_use,
            reason = "test cleanup: a leftover temp directory fails nothing"
        )]
        let _ = std::fs::remove_dir_all(&dir);
    }
}
