//! The DKNP wire format: frame encode/decode, panic-free.
//!
//! Normative layout lives in docs/PROTOCOL.md; this module is its only
//! implementation and the golden byte tests
//! (`crates/server/tests/protocol_golden.rs`) pin the two to each other
//! section by section. Every frame is `u32 LE length | u8 opcode |
//! payload` (PROTOCOL.md §1) where `length` counts the opcode byte plus
//! the payload.
//!
//! This module parses attacker-adjacent bytes off a socket, so it denies
//! clippy's panic lints: every read goes through the Option-returning
//! [`Cursor`] the durability formats use (`dkindex_core::bytes`), decode
//! failures are the typed [`DecodeError`], and nothing here indexes,
//! unwraps, or panics. It also denies hash-container loops: encoding is a
//! pure function of the frame value — byte-for-byte reproducible, which is
//! what lets the net bench compare concurrent transcripts against serial
//! replay.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::iter_over_hash_type
)]

use dkindex_core::bytes::Cursor;

/// Protocol version implemented by this crate (PROTOCOL.md §2.2).
pub const VERSION: u16 = 1;

/// The HELLO magic, ASCII `DKNP` (PROTOCOL.md §2.1).
pub const MAGIC: [u8; 4] = *b"DKNP";

/// Hard bound on `length` (opcode + payload bytes) — PROTOCOL.md §1.1.
pub const MAX_FRAME: u32 = 1 << 20;

/// ANSWER frames carry at most this many match node ids (PROTOCOL.md
/// §4.1); `match_count` still reports the true total.
pub const MAX_ANSWER_IDS: usize = 32;

/// Why an UPDATE (or a whole connection) was refused — PROTOCOL.md §5.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded accept queue was full; the connection never reached a
    /// worker.
    QueueFull,
    /// The maintenance backlog reached the staleness threshold.
    MaintenanceLag,
    /// The server is draining; no new updates are accepted.
    Draining,
}

impl ShedReason {
    /// The wire byte (PROTOCOL.md §5.1 table).
    pub fn code(self) -> u8 {
        match self {
            ShedReason::QueueFull => 1,
            ShedReason::MaintenanceLag => 2,
            ShedReason::Draining => 3,
        }
    }

    fn from_code(code: u8) -> Option<ShedReason> {
        match code {
            1 => Some(ShedReason::QueueFull),
            2 => Some(ShedReason::MaintenanceLag),
            3 => Some(ShedReason::Draining),
            _ => None,
        }
    }
}

/// ERROR frame codes — PROTOCOL.md §6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unframeable bytes, unknown opcode, or payload size mismatch;
    /// connection-fatal.
    Malformed,
    /// HELLO version mismatch; connection-fatal.
    UnsupportedVersion,
    /// QUERY text failed to parse.
    BadQuery,
    /// Evaluation aborted when the effective visit budget ran out.
    BudgetExhausted,
    /// The maintenance thread is gone; updates can never be applied.
    Unavailable,
}

impl ErrorCode {
    /// The wire byte (PROTOCOL.md §6 table).
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::BadQuery => 3,
            ErrorCode::BudgetExhausted => 4,
            ErrorCode::Unavailable => 5,
        }
    }

    fn from_code(code: u8) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnsupportedVersion),
            3 => Some(ErrorCode::BadQuery),
            4 => Some(ErrorCode::BudgetExhausted),
            5 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// One DKNP frame, either direction. Field order mirrors the byte order
/// in docs/PROTOCOL.md.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Client hello — PROTOCOL.md §2.1 (the magic is implicit: encode
    /// writes it, decode requires it).
    Hello {
        /// Client protocol version.
        version: u16,
    },
    /// Server welcome — PROTOCOL.md §2.1.
    Welcome {
        /// Server protocol version.
        version: u16,
        /// Currently published epoch id.
        epoch: u64,
    },
    /// Path query request — PROTOCOL.md §3.1.
    Query {
        /// Requested visit budget; `0` means the server default.
        budget: u32,
        /// Path expression text.
        text: String,
    },
    /// Edge-addition update request — PROTOCOL.md §3.2.
    Update {
        /// Source data node id.
        from: u64,
        /// Target data node id.
        to: u64,
    },
    /// Liveness probe — PROTOCOL.md §3.3.
    Ping,
    /// Server statistics request — PROTOCOL.md §3.4.
    Stats,
    /// Query answer — PROTOCOL.md §4.1.
    Answer {
        /// Epoch the answer was computed against.
        epoch: u64,
        /// Index-graph visits charged.
        index_visits: u64,
        /// Data-graph visits charged during validation.
        data_visits: u64,
        /// Whether any match needed the validation walk.
        validated: bool,
        /// Total matches (may exceed `ids.len()`).
        match_count: u32,
        /// At most [`MAX_ANSWER_IDS`] leading match node ids.
        ids: Vec<u64>,
    },
    /// Update admitted — PROTOCOL.md §4.2.
    UpdateOk {
        /// Maintenance backlog at admission, including this op.
        pending: u32,
    },
    /// Ping reply — PROTOCOL.md §4.3.
    Pong {
        /// Currently published epoch id.
        epoch: u64,
    },
    /// Stats reply — PROTOCOL.md §4.4 (informational text, not
    /// machine-parseable).
    StatsOk {
        /// `key=value` lines.
        text: String,
    },
    /// Typed overload refusal — PROTOCOL.md §5.
    Shed {
        /// Why the request was refused.
        reason: ShedReason,
        /// Backlog at shed time (0 when unknown).
        pending: u32,
        /// Backoff hint for the client.
        retry_after_ms: u32,
    },
    /// Typed failure — PROTOCOL.md §6.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable diagnostic.
        message: String,
    },
}

/// Why a byte sequence failed to decode as a frame. Every variant maps to
/// ERROR code 1 (malformed) on the wire except `UnsupportedVersion`
/// handling, which the connection layer derives from a decoded `Hello`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the opcode's fixed fields did.
    Truncated,
    /// Fixed-size frame carried extra bytes after its last field.
    TrailingBytes,
    /// No frame type is assigned to this opcode byte.
    UnknownOpcode(u8),
    /// HELLO magic was not `DKNP`.
    BadMagic,
    /// A reason/code byte outside its table, or a textual field that was
    /// not UTF-8.
    BadField,
    /// A declared length of 0 or above [`MAX_FRAME`] (checked by the
    /// framing layer before the body is read).
    BadLength(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame payload truncated"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after frame payload"),
            DecodeError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02X}"),
            DecodeError::BadMagic => write!(f, "HELLO magic is not DKNP"),
            DecodeError::BadField => write!(f, "field value outside its table or bad UTF-8"),
            DecodeError::BadLength(len) => write!(f, "frame length {len} outside 1..={MAX_FRAME}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Opcode bytes (PROTOCOL.md §2–§6).
mod opcode {
    pub const HELLO: u8 = 0x01;
    pub const WELCOME: u8 = 0x02;
    pub const QUERY: u8 = 0x10;
    pub const UPDATE: u8 = 0x11;
    pub const PING: u8 = 0x12;
    pub const STATS: u8 = 0x13;
    pub const ANSWER: u8 = 0x20;
    pub const UPDATE_OK: u8 = 0x21;
    pub const PONG: u8 = 0x22;
    pub const STATS_OK: u8 = 0x23;
    pub const SHED: u8 = 0x2E;
    pub const ERROR: u8 = 0x2F;
}

impl Frame {
    /// This frame's opcode byte.
    pub fn opcode(&self) -> u8 {
        match self {
            Frame::Hello { .. } => opcode::HELLO,
            Frame::Welcome { .. } => opcode::WELCOME,
            Frame::Query { .. } => opcode::QUERY,
            Frame::Update { .. } => opcode::UPDATE,
            Frame::Ping => opcode::PING,
            Frame::Stats => opcode::STATS,
            Frame::Answer { .. } => opcode::ANSWER,
            Frame::UpdateOk { .. } => opcode::UPDATE_OK,
            Frame::Pong { .. } => opcode::PONG,
            Frame::StatsOk { .. } => opcode::STATS_OK,
            Frame::Shed { .. } => opcode::SHED,
            Frame::Error { .. } => opcode::ERROR,
        }
    }
}

/// Encode `frame` as its full wire bytes: length prefix, opcode, payload
/// (PROTOCOL.md §1). Encoding is infallible and deterministic; textual
/// fields longer than the frame bound are truncated at a char boundary so
/// the result is always a legal frame.
pub fn encode(frame: &Frame) -> Vec<u8> {
    let mut payload: Vec<u8> = Vec::new();
    match frame {
        Frame::Hello { version } => {
            payload.extend_from_slice(&MAGIC);
            payload.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Welcome { version, epoch } => {
            payload.extend_from_slice(&version.to_le_bytes());
            payload.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::Query { budget, text } => {
            payload.extend_from_slice(&budget.to_le_bytes());
            payload.extend_from_slice(bounded_text(text).as_bytes());
        }
        Frame::Update { from, to } => {
            payload.extend_from_slice(&from.to_le_bytes());
            payload.extend_from_slice(&to.to_le_bytes());
        }
        Frame::Ping | Frame::Stats => {}
        Frame::Answer {
            epoch,
            index_visits,
            data_visits,
            validated,
            match_count,
            ids,
        } => {
            payload.extend_from_slice(&epoch.to_le_bytes());
            payload.extend_from_slice(&index_visits.to_le_bytes());
            payload.extend_from_slice(&data_visits.to_le_bytes());
            payload.push(u8::from(*validated));
            payload.extend_from_slice(&match_count.to_le_bytes());
            for id in ids.iter().take(MAX_ANSWER_IDS) {
                payload.extend_from_slice(&id.to_le_bytes());
            }
        }
        Frame::UpdateOk { pending } => {
            payload.extend_from_slice(&pending.to_le_bytes());
        }
        Frame::Pong { epoch } => {
            payload.extend_from_slice(&epoch.to_le_bytes());
        }
        Frame::StatsOk { text } => {
            payload.extend_from_slice(bounded_text(text).as_bytes());
        }
        Frame::Shed {
            reason,
            pending,
            retry_after_ms,
        } => {
            payload.push(reason.code());
            payload.extend_from_slice(&pending.to_le_bytes());
            payload.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Frame::Error { code, message } => {
            payload.push(code.code());
            payload.extend_from_slice(bounded_text(message).as_bytes());
        }
    }
    let length = payload.len() as u32 + 1;
    let mut out = Vec::with_capacity(payload.len() + 5);
    out.extend_from_slice(&length.to_le_bytes());
    out.push(frame.opcode());
    out.extend_from_slice(&payload);
    out
}

/// Clamp a textual field so `fixed fields + text` can never exceed
/// [`MAX_FRAME`]: keep a comfortable margin and cut at a char boundary.
fn bounded_text(text: &str) -> &str {
    const MAX_TEXT: usize = (MAX_FRAME as usize) - 64;
    if text.len() <= MAX_TEXT {
        return text;
    }
    let mut end = MAX_TEXT;
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    text.get(..end).unwrap_or_default()
}

/// Validate a just-read length prefix before buffering the body
/// (PROTOCOL.md §1.1): zero and oversize are both malformed.
pub fn check_length(length: u32) -> Result<usize, DecodeError> {
    if length == 0 || length > MAX_FRAME {
        return Err(DecodeError::BadLength(length));
    }
    Ok(length as usize)
}

/// Decode one frame body — the `opcode | payload` bytes that follow the
/// length prefix (PROTOCOL.md §1). Fixed-size frames must consume their
/// payload exactly; trailing bytes are malformed.
pub fn decode_body(body: &[u8]) -> Result<Frame, DecodeError> {
    let mut c = Cursor::new(body);
    let op = c.u8().ok_or(DecodeError::Truncated)?;
    let frame = match op {
        opcode::HELLO => {
            let magic = c.array4().ok_or(DecodeError::Truncated)?;
            if magic != MAGIC {
                return Err(DecodeError::BadMagic);
            }
            let version = c.u16_le().ok_or(DecodeError::Truncated)?;
            Frame::Hello { version }
        }
        opcode::WELCOME => Frame::Welcome {
            version: c.u16_le().ok_or(DecodeError::Truncated)?,
            epoch: c.u64_le().ok_or(DecodeError::Truncated)?,
        },
        opcode::QUERY => {
            let budget = c.u32_le().ok_or(DecodeError::Truncated)?;
            let text = rest_utf8(&mut c).ok_or(DecodeError::BadField)?;
            return Ok(Frame::Query { budget, text });
        }
        opcode::UPDATE => Frame::Update {
            from: c.u64_le().ok_or(DecodeError::Truncated)?,
            to: c.u64_le().ok_or(DecodeError::Truncated)?,
        },
        opcode::PING => Frame::Ping,
        opcode::STATS => Frame::Stats,
        opcode::ANSWER => {
            let epoch = c.u64_le().ok_or(DecodeError::Truncated)?;
            let index_visits = c.u64_le().ok_or(DecodeError::Truncated)?;
            let data_visits = c.u64_le().ok_or(DecodeError::Truncated)?;
            let validated = match c.u8().ok_or(DecodeError::Truncated)? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::BadField),
            };
            let match_count = c.u32_le().ok_or(DecodeError::Truncated)?;
            // The id list length is implied: min(match_count, cap), and the
            // remaining payload must be exactly that many u64s.
            let expected = (match_count as usize).min(MAX_ANSWER_IDS);
            let mut ids = Vec::with_capacity(expected);
            for _ in 0..expected {
                ids.push(c.u64_le().ok_or(DecodeError::Truncated)?);
            }
            Frame::Answer {
                epoch,
                index_visits,
                data_visits,
                validated,
                match_count,
                ids,
            }
        }
        opcode::UPDATE_OK => Frame::UpdateOk {
            pending: c.u32_le().ok_or(DecodeError::Truncated)?,
        },
        opcode::PONG => Frame::Pong {
            epoch: c.u64_le().ok_or(DecodeError::Truncated)?,
        },
        opcode::STATS_OK => {
            let text = rest_utf8(&mut c).ok_or(DecodeError::BadField)?;
            return Ok(Frame::StatsOk { text });
        }
        opcode::SHED => Frame::Shed {
            reason: ShedReason::from_code(c.u8().ok_or(DecodeError::Truncated)?)
                .ok_or(DecodeError::BadField)?,
            pending: c.u32_le().ok_or(DecodeError::Truncated)?,
            retry_after_ms: c.u32_le().ok_or(DecodeError::Truncated)?,
        },
        opcode::ERROR => {
            let code = ErrorCode::from_code(c.u8().ok_or(DecodeError::Truncated)?)
                .ok_or(DecodeError::BadField)?;
            let message = rest_utf8(&mut c).ok_or(DecodeError::BadField)?;
            return Ok(Frame::Error { code, message });
        }
        other => return Err(DecodeError::UnknownOpcode(other)),
    };
    if c.remaining() != 0 {
        return Err(DecodeError::TrailingBytes);
    }
    Ok(frame)
}

/// Consume everything left in `c` as UTF-8 text.
fn rest_utf8(c: &mut Cursor<'_>) -> Option<String> {
    let slice = c.take(c.remaining())?;
    String::from_utf8(slice.to_vec()).ok()
}
