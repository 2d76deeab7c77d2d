//! The versioned, checksummed snapshot container (`DKSN`) — the durable
//! on-disk form of a D(k)-index and its data graph.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic     b"DKSN"
//! version   u32 (= 1)
//! sections  u32 count, then per section:
//!             tag      [u8; 4]      (b"REQS" | b"GRPH" | b"INDX")
//!             len      u32          payload byte length
//!             crc      u32          CRC-32 of the payload
//!             payload  len bytes
//! ```
//!
//! Section payloads are the codecs of [`dkindex_graph::io`] and
//! [`crate::store`]: `GRPH` holds a `DKG1` graph stream, `REQS` the
//! requirements table, `INDX` the index body. Unknown tags are skipped
//! (forward compatibility). This container is the only index file format:
//! anything that does not start with `DKSN` is [`SnapshotError::BadMagic`].
//!
//! Two read modes over one section loader:
//!
//! * [`read_snapshot`] — strict: any checksum or structural failure is a
//!   typed [`SnapshotError`]. Used where silent degradation is unacceptable.
//! * [`load_with_recovery`] — graceful: as long as the `GRPH` section is
//!   intact, a corrupt `INDX` (or failed invariant check) triggers a rebuild
//!   of the index from the data graph, and a corrupt `REQS` falls back to
//!   empty requirements; the [`Recovery`] report says exactly what happened.
//!   Only a damaged graph section is unrecoverable.
//!
//! Both modes agree on what "intact" means: [`read_snapshot`] succeeds
//! exactly when [`load_with_recovery`] succeeds with
//! [`Recovery::is_intact`].

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type,
    clippy::let_underscore_must_use
)]

use crate::audit;
use crate::bytes::Cursor;
use crate::crc32::crc32;
use crate::dk::construct::DkIndex;
use crate::index_graph::IndexGraph;
use crate::requirements::Requirements;
use crate::store;
use dkindex_graph::io::ReadError;
use dkindex_graph::{DataGraph, LabeledGraph};
use dkindex_telemetry as telemetry;
use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"DKSN";
const VERSION: u32 = 1;
const TAG_REQS: [u8; 4] = *b"REQS";
const TAG_GRPH: [u8; 4] = *b"GRPH";
const TAG_INDX: [u8; 4] = *b"INDX";

/// Typed snapshot failure.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Wrong container magic — not a snapshot.
    BadMagic,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The byte stream ends inside a header or section frame.
    Truncated {
        /// What was being read when the stream ended.
        what: String,
    },
    /// A section's payload does not match its stored CRC.
    SectionCrc {
        /// Four-character section tag.
        tag: [u8; 4],
    },
    /// A section's payload failed to parse or validate.
    Section {
        /// Four-character section tag.
        tag: [u8; 4],
        /// What was wrong.
        reason: String,
    },
    /// A required section is absent.
    MissingSection {
        /// Four-character section tag.
        tag: [u8; 4],
    },
    /// Bytes remain after the declared sections.
    TrailingBytes,
}

fn tag_str(tag: &[u8; 4]) -> String {
    String::from_utf8_lossy(tag).into_owned()
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot (bad magic, expected DKSN)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::Truncated { what } => write!(f, "snapshot truncated while reading {what}"),
            SnapshotError::SectionCrc { tag } => {
                write!(f, "checksum mismatch in section {}", tag_str(tag))
            }
            SnapshotError::Section { tag, reason } => {
                write!(f, "corrupt section {}: {reason}", tag_str(tag))
            }
            SnapshotError::MissingSection { tag } => {
                write!(f, "snapshot is missing its {} section", tag_str(tag))
            }
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after the last section"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// What [`load_with_recovery`] had to do.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovery {
    /// The index graph was rebuilt from the data graph.
    pub rebuilt_index: bool,
    /// The requirements section was unreadable; empty requirements were used.
    pub lost_requirements: bool,
    /// One line per degradation, empty when the snapshot was intact.
    pub notes: Vec<String>,
}

impl Recovery {
    /// True when every section loaded cleanly.
    pub fn is_intact(&self) -> bool {
        self.notes.is_empty()
    }
}

/// Serialize `dk` + `data` as a snapshot container.
pub fn write_snapshot<W: Write>(dk: &DkIndex, data: &DataGraph, w: &mut W) -> io::Result<()> {
    let mut reqs_payload = Vec::new();
    store::write_requirements(dk.requirements(), &mut reqs_payload)?;
    let mut graph_payload = Vec::new();
    dkindex_graph::io::write_graph(data, &mut graph_payload)?;
    let mut index_payload = Vec::new();
    store::write_index(dk.index(), &mut index_payload)?;

    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&3u32.to_le_bytes())?;
    for (tag, payload) in [
        (TAG_REQS, &reqs_payload),
        (TAG_GRPH, &graph_payload),
        (TAG_INDX, &index_payload),
    ] {
        w.write_all(&tag)?;
        w.write_all(&(payload.len() as u32).to_le_bytes())?;
        w.write_all(&crc32(payload).to_le_bytes())?;
        w.write_all(payload)?;
    }
    telemetry::metrics::STORE_SNAPSHOT_WRITES.incr();
    Ok(())
}

/// Snapshot bytes for `dk` + `data` (convenience over [`write_snapshot`]).
pub fn snapshot_bytes(dk: &DkIndex, data: &DataGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    // Threading io::Result through every caller would only launder an error
    // that cannot happen: Write for Vec<u8> has no I/O to fail.
    #[expect(clippy::expect_used, reason = "Write for Vec<u8> is infallible")]
    write_snapshot(dk, data, &mut bytes).expect("Vec<u8> writes are infallible");
    bytes
}

/// Write a snapshot to `path` atomically and durably: write a temp sibling,
/// `sync_all` it, rename it over `path`, then fsync the parent directory so
/// the rename itself survives a crash. The temp name is the *whole* file
/// name plus `.tmp` — substituting the extension would make `x.tmp` its own
/// temp file (truncated before the new bytes are durable) and let `a.dki`
/// and `a.snap` share one. A failed save removes its temp file.
pub fn save_snapshot_file(dk: &DkIndex, data: &DataGraph, path: &Path) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = std::fs::File::create(&tmp).and_then(|mut file| {
        write_snapshot(dk, data, &mut file)?;
        file.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "best effort: the save already failed, and its error is the one the \
                      caller needs; a leftover temp file is only litter"
        )]
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    sync_parent_dir(path)
}

/// Fsync the directory holding `path`, making a just-created or
/// just-renamed entry for it durable: file contents reach stable storage
/// with the file's own `sync_all`, its name only with the directory's.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()
}

/// The container's framing: each known section's checksum-clean payload or
/// the typed reason it is unusable.
struct Frames<'a> {
    reqs: Result<&'a [u8], SnapshotError>,
    grph: Result<&'a [u8], SnapshotError>,
    indx: Result<&'a [u8], SnapshotError>,
    /// `Err` when the framing itself broke mid-stream; sections framed
    /// *before* the break are still usable for recovery.
    framing: Result<(), SnapshotError>,
}

/// Parse the container framing, validating each section's CRC. Only a bad
/// header fails outright: a framing break is recorded so recovery can still
/// use the sections that parsed before it.
fn parse_frames(bytes: &[u8]) -> Result<Frames<'_>, SnapshotError> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.array4().ok_or_else(|| SnapshotError::Truncated {
        what: "header".to_string(),
    })?;
    if magic != *MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = cur.u32_le().ok_or_else(|| SnapshotError::Truncated {
        what: "header".to_string(),
    })?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let count = cur.u32_le().ok_or_else(|| SnapshotError::Truncated {
        what: "header".to_string(),
    })? as usize;

    let mut frames = Frames {
        reqs: Err(SnapshotError::MissingSection { tag: TAG_REQS }),
        grph: Err(SnapshotError::MissingSection { tag: TAG_GRPH }),
        indx: Err(SnapshotError::MissingSection { tag: TAG_INDX }),
        framing: Ok(()),
    };
    for _ in 0..count {
        let (Some(tag), Some(len), Some(stored_crc)) =
            (cur.array4(), cur.u32_le().map(|v| v as usize), cur.u32_le())
        else {
            frames.framing = Err(SnapshotError::Truncated {
                what: "section header".to_string(),
            });
            return Ok(frames);
        };
        let Some(payload) = cur.take(len) else {
            frames.framing = Err(SnapshotError::Truncated {
                what: format!("section {} payload", tag_str(&tag)),
            });
            return Ok(frames);
        };
        let section = if crc32(payload) == stored_crc {
            Ok(payload)
        } else {
            telemetry::metrics::STORE_CRC_FAILURES.incr();
            Err(SnapshotError::SectionCrc { tag })
        };
        match tag {
            TAG_REQS => frames.reqs = section,
            TAG_GRPH => frames.grph = section,
            TAG_INDX => frames.indx = section,
            _ => {} // unknown section: skip (forward compatibility)
        }
    }
    if cur.remaining() != 0 {
        frames.framing = Err(SnapshotError::TrailingBytes);
    }
    Ok(frames)
}

/// One container, every part parsed to its typed outcome. The data graph is
/// the ground truth and therefore mandatory; the rest is a `Result` each so
/// the strict reader can demand all of them and the graceful one can
/// substitute a fallback per part.
struct Sections {
    data: DataGraph,
    reqs: Result<Requirements, SnapshotError>,
    /// Parsed, fully consumed and invariant-checked against `data`.
    index: Result<IndexGraph, SnapshotError>,
    framing: Result<(), SnapshotError>,
}

/// The one section walk behind both read modes.
fn load_sections(bytes: &[u8]) -> Result<Sections, SnapshotError> {
    let corrupt = |tag: [u8; 4], e: ReadError| SnapshotError::Section { tag, reason: e.to_string() };
    let frames = parse_frames(bytes)?;
    let data = match frames.grph {
        Ok(mut payload) => {
            dkindex_graph::io::read_graph(&mut payload).map_err(|e| corrupt(TAG_GRPH, e))?
        }
        // A graph section lost to a framing break is reported as the break.
        Err(e) => return Err(frames.framing.err().unwrap_or(e)),
    };
    let reqs = frames.reqs.and_then(|mut payload| {
        store::read_requirements(&mut payload).map_err(|e| corrupt(TAG_REQS, e))
    });
    let index = frames.indx.and_then(|mut payload| {
        let index = store::read_index(&mut payload, data.node_count())
            .map_err(|e| corrupt(TAG_INDX, e))?;
        if !payload.is_empty() {
            return Err(SnapshotError::Section {
                tag: TAG_INDX,
                reason: "trailing bytes inside the section".to_string(),
            });
        }
        // `read_index` guards only what construction needs; whether the
        // extents partition the graph, edges project it and the root is the
        // root is decided here, before anything uses the index.
        audit::check_structure(&index, &data).map_err(|finding| SnapshotError::Section {
            tag: TAG_INDX,
            reason: format!("fails invariants: {finding}"),
        })?;
        Ok(index)
    });
    Ok(Sections { data, reqs, index, framing: frames.framing })
}

/// Strict load: every section must be present, checksum-clean and parse,
/// and the index must pass its invariant check against the graph.
pub fn read_snapshot(bytes: &[u8]) -> Result<(DkIndex, DataGraph), SnapshotError> {
    let sections = load_sections(bytes)?;
    sections.framing?;
    let reqs = sections.reqs?;
    let index = sections.index?;
    telemetry::metrics::STORE_SNAPSHOT_LOADS.incr();
    Ok((DkIndex::from_parts(index, reqs), sections.data))
}

/// Graceful load: recover everything recoverable. The data graph section is
/// the ground truth — while it is intact, a damaged requirements section
/// degrades to empty requirements and a damaged (or invariant-violating)
/// index section is rebuilt from the graph. Returns a [`Recovery`] report
/// describing any degradation.
pub fn load_with_recovery(
    bytes: &[u8],
) -> Result<(DkIndex, DataGraph, Recovery), SnapshotError> {
    let Sections { data, reqs, index, framing } = load_sections(bytes)?;
    let mut recovery = Recovery::default();
    if let Err(e) = framing {
        recovery.notes.push(format!("container framing: {e}"));
    }
    let reqs = match reqs {
        Ok(reqs) => reqs,
        Err(e) => {
            recovery.lost_requirements = true;
            recovery.notes.push(format!("{e}; using empty requirements"));
            Requirements::new()
        }
    };
    let dk = match index {
        Ok(index) => DkIndex::from_parts(index, reqs),
        Err(e) => {
            recovery.rebuilt_index = true;
            recovery.notes.push(format!("{e}; index rebuilt from the data graph"));
            telemetry::metrics::AUDIT_REBUILDS.incr();
            DkIndex::build(&data, reqs)
        }
    };
    telemetry::metrics::STORE_SNAPSHOT_LOADS.incr();
    Ok((dk, data, recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::check_structure;
    use dkindex_graph::EdgeKind;

    fn sample() -> (DataGraph, DkIndex) {
        let mut g = DataGraph::new();
        let d = g.add_labeled_node("director");
        let m = g.add_labeled_node("movie");
        let t = g.add_labeled_node("title");
        let a = g.add_labeled_node("actor");
        let r = g.root();
        g.add_edge(r, d, EdgeKind::Tree);
        g.add_edge(d, m, EdgeKind::Tree);
        g.add_edge(m, t, EdgeKind::Tree);
        g.add_edge(r, a, EdgeKind::Tree);
        g.add_edge(a, m, EdgeKind::Reference);
        let dk = DkIndex::build(&g, Requirements::from_pairs([("title", 2)]));
        (g, dk)
    }

    /// A scratch directory removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("dkindex-snapshot-test-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "test cleanup in Drop, which must not panic: a leftover temp directory \
                          fails nothing"
            )]
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Regression: the temp name was `path.with_extension("tmp")`, so saving
    /// `a.dki` wrote through — and renamed away — any `a.tmp` beside it,
    /// and `a.dki` / `a.snap` shared one temp file.
    #[test]
    fn saving_leaves_a_sibling_with_the_old_temp_name_alone() {
        let dir = TempDir::new("sibling");
        let (g, dk) = sample();
        let bystander = dir.0.join("a.tmp");
        std::fs::write(&bystander, b"not a temp file").unwrap();
        for name in ["a.dki", "a.snap"] {
            let target = dir.0.join(name);
            save_snapshot_file(&dk, &g, &target).unwrap();
            read_snapshot(&std::fs::read(&target).unwrap()).unwrap();
            assert!(!dir.0.join(format!("{name}.tmp")).exists(), "temp file left behind");
        }
        assert_eq!(std::fs::read(&bystander).unwrap(), b"not a temp file");
    }

    /// Regression: with `--out x.tmp` the temp file *was* the target, so
    /// `File::create` truncated the only good copy before the new bytes
    /// were durable. The temp sibling is now `x.tmp.tmp`.
    #[test]
    fn a_target_named_dot_tmp_is_not_its_own_temp_file() {
        let dir = TempDir::new("dottmp");
        let (g, dk) = sample();
        let target = dir.0.join("x.tmp");
        save_snapshot_file(&dk, &g, &target).unwrap();
        let first = std::fs::read(&target).unwrap();
        // A hard link pins the old copy's inode: it keeps the old bytes
        // exactly when the target is replaced by rename, never rewritten.
        let old_copy = dir.0.join("x.old");
        std::fs::hard_link(&target, &old_copy).unwrap();
        let promoted = DkIndex::build(&g, Requirements::uniform(2));
        save_snapshot_file(&promoted, &g, &target).unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), snapshot_bytes(&promoted, &g));
        assert_eq!(std::fs::read(&old_copy).unwrap(), first, "old copy was written in place");
        assert!(!dir.0.join("x.tmp.tmp").exists(), "temp file left behind");
    }

    /// A save that fails after creating its temp file removes it.
    #[test]
    fn a_failed_save_removes_its_temp_file() {
        let dir = TempDir::new("failed");
        let (g, dk) = sample();
        // Renaming a file over a non-empty directory fails on every platform.
        let target = dir.0.join("out.dki");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        save_snapshot_file(&dk, &g, &target).unwrap_err();
        assert!(!dir.0.join("out.dki.tmp").exists(), "temp file left behind");
        assert!(!dir.0.join("out.tmp").exists(), "temp file left behind");
    }

    /// Regression for the cursor-based framing rewrite: the container
    /// prefix is a durable format, so its exact bytes are pinned — magic,
    /// LE version 1, LE section count 3, then the first section's tag.
    #[test]
    fn container_framing_bytes_are_pinned() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        assert_eq!(bytes[..4], *b"DKSN");
        assert_eq!(bytes[4..8], 1u32.to_le_bytes());
        assert_eq!(bytes[8..12], 3u32.to_le_bytes());
        assert_eq!(bytes[12..16], *b"REQS");
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        let (back, g2) = read_snapshot(&bytes).unwrap();
        assert_eq!(back.requirements(), dk.requirements());
        assert_eq!(snapshot_bytes(&back, &g2), bytes);
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_recovered() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        for i in 0..bytes.len() {
            let mut copy = bytes.clone();
            copy[i] ^= 0xFF;
            // Strict mode must never accept a flipped snapshot verbatim.
            if let Ok((back, g2)) = read_snapshot(&copy) {
                assert_eq!(
                    snapshot_bytes(&back, &g2),
                    bytes,
                    "flip at {i} accepted but changed the index"
                );
            }
        }
    }

    #[test]
    fn recovery_rebuilds_from_intact_graph() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        // Corrupt one byte inside the INDX payload (last section).
        let mut copy = bytes.clone();
        let n = copy.len();
        copy[n - 3] ^= 0xFF;
        assert!(read_snapshot(&copy).is_err());
        let (recovered, g2, recovery) = load_with_recovery(&copy).unwrap();
        assert!(recovery.rebuilt_index, "{:?}", recovery.notes);
        assert!(!recovery.lost_requirements);
        check_structure(recovered.index(), &g2).unwrap();
        // The rebuild reuses the recovered requirements, so it reproduces
        // the original index exactly.
        assert_eq!(snapshot_bytes(&recovered, &g2), bytes);
    }

    /// Regression: the strict loader's invariant check did not look at the
    /// root, so an `INDX` whose root field names another in-range block
    /// (CRC recomputed) loaded, and Alg 3 then grafted new files under that
    /// block.
    #[test]
    fn a_wrong_root_is_rejected_strictly_and_rebuilt_gracefully() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        let mut copy = bytes.clone();
        let wrong = (dk.index().root().index() + 1) % dk.size();
        let n = copy.len();
        copy[n - 4..].copy_from_slice(&(wrong as u32).to_le_bytes());
        // INDX is the last section: its payload ends the file, its CRC
        // precedes the payload.
        let mut indx = Vec::new();
        store::write_index(dk.index(), &mut indx).unwrap();
        let at = n - indx.len();
        let crc = crc32(&copy[at..]);
        copy[at - 4..at].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_snapshot(&copy),
            Err(SnapshotError::Section { tag, .. }) if tag == TAG_INDX
        ));
        let (recovered, g2, recovery) = load_with_recovery(&copy).unwrap();
        assert!(recovery.rebuilt_index, "{:?}", recovery.notes);
        assert_eq!(snapshot_bytes(&recovered, &g2), bytes);
    }

    #[test]
    fn recovery_fails_cleanly_when_graph_is_corrupt() {
        let (g, dk) = sample();
        let mut bytes = snapshot_bytes(&dk, &g);
        // The GRPH payload starts after REQS; find its DKG1 magic and break it.
        let pos = bytes
            .windows(4)
            .position(|w| w == b"DKG1")
            .expect("graph payload present");
        bytes[pos + 10] ^= 0xFF;
        assert!(matches!(
            load_with_recovery(&bytes),
            Err(SnapshotError::SectionCrc { tag }) if tag == TAG_GRPH
        ));
    }

    #[test]
    fn truncation_at_every_length_is_typed_or_recovered() {
        let (g, dk) = sample();
        let bytes = snapshot_bytes(&dk, &g);
        for cut in 0..bytes.len() {
            // A typed error is the other legal outcome for any cut.
            if let Ok((recovered, g2, recovery)) = load_with_recovery(&bytes[..cut]) {
                // Only possible once GRPH is fully framed; result must
                // be a well-formed index.
                assert!(!recovery.is_intact(), "cut at {cut} claimed intact");
                check_structure(recovered.index(), &g2).unwrap();
            }
        }
    }

    /// The container is the only index file format: the bare `DKG1` stream
    /// that predates it (graph payload first, no checksums) is not sniffed
    /// or half-parsed, it is `BadMagic` for both readers.
    #[test]
    fn bare_graph_streams_are_not_snapshots() {
        let (g, dk) = sample();
        let mut bare = Vec::new();
        dkindex_graph::io::write_graph(&g, &mut bare).unwrap();
        store::write_index(dk.index(), &mut bare).unwrap();
        assert!(matches!(read_snapshot(&bare), Err(SnapshotError::BadMagic)));
        assert!(matches!(load_with_recovery(&bare), Err(SnapshotError::BadMagic)));
    }
}
