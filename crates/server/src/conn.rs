//! Per-connection request handling: handshake, framed request loop,
//! per-request budget admission, and the epoch-staleness shed gate.
//!
//! One worker thread runs [`serve_connection`] per accepted socket
//! (ARCHITECTURE.md §7). The module is in the `dkindex-analyze`
//! `panic-path` scope — it feeds on attacker-adjacent socket bytes, so
//! every failure is a typed frame ([`Frame::Shed`], [`Frame::Error`]) or a
//! silent close, never a panic — and in the determinism scope, because
//! admission decisions feed the serial-replay oracle: whether an UPDATE is
//! admitted may depend only on the backlog arithmetic specified in
//! PROTOCOL.md §5, never on iteration order or timing of anything else.

use crate::protocol::{self, DecodeError, ErrorCode, Frame, ShedReason};
use crate::server::{NetConfig, RETRY_AFTER_MS};
use dkindex_core::{ServeError, ServeHandle, ServeOp, Submitter};
use dkindex_graph::NodeId;
use dkindex_pathexpr::parse;
use dkindex_telemetry as telemetry;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often a blocked read wakes up to check the drain deadline.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// State shared by the accept loop and every worker.
pub(crate) struct Shared {
    /// Lock-free reader handle onto the published epoch chain.
    pub(crate) handle: ServeHandle,
    /// Ops admitted over the wire, *plus* the `ops_applied` baseline of the
    /// epoch current at server start — so `admitted − epoch.ops_applied()`
    /// is exactly the maintenance backlog (PROTOCOL.md §5.1 `pending`).
    pub(crate) admitted: AtomicU64,
    /// Set once at graceful-shutdown start; never cleared.
    pub(crate) draining: AtomicBool,
    /// Wall-clock moment the drain grace window ends; set together with
    /// `draining`.
    pub(crate) drain_deadline: Mutex<Option<Instant>>,
    /// True when the underlying [`dkindex_core::DkServer`] runs with a
    /// write-ahead log: UPDATE_OK is then a *durable* acknowledgment and is
    /// only sent after the op's group commit is fsynced and the epoch
    /// carrying it is published (PROTOCOL.md §8).
    pub(crate) durable: bool,
    /// Immutable serving knobs.
    pub(crate) cfg: NetConfig,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// True once the drain grace window is over: established connections
    /// stop waiting for further requests and close.
    fn drain_expired(&self) -> bool {
        if !self.draining() {
            return false;
        }
        self.drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map(|deadline| Instant::now() >= deadline)
            .unwrap_or(true)
    }

    /// Current maintenance backlog (admitted, not yet published).
    fn pending(&self) -> u64 {
        self.admitted
            .load(Ordering::SeqCst)
            .saturating_sub(self.handle.epoch().ops_applied())
    }
}

/// What one attempt to read a frame produced.
enum ReadOutcome {
    /// A complete, well-formed frame.
    Frame(Frame),
    /// The peer closed (or the connection broke) — just end the
    /// connection, nothing to answer.
    Closed,
    /// The drain grace window expired while idle between frames.
    Expired,
    /// Bytes arrived but did not decode; connection-fatal per
    /// PROTOCOL.md §6.
    Malformed(DecodeError),
}

/// Handle one accepted connection to completion: handshake (PROTOCOL.md
/// §2), then one response per request in order (§3–§4), until the peer
/// closes, a connection-fatal error occurs, or the drain window expires
/// (§7).
pub(crate) fn serve_connection(mut stream: TcpStream, shared: &Shared, submitter: &Submitter) {
    telemetry::metrics::SERVE_NET_CONNECTIONS.incr();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));

    match read_frame(&mut stream, shared) {
        ReadOutcome::Frame(Frame::Hello { version }) if version == protocol::VERSION => {
            let epoch = shared.handle.epoch();
            let welcome = Frame::Welcome {
                version: protocol::VERSION,
                epoch: epoch.id(),
            };
            if !write_frame(&mut stream, &welcome) {
                return;
            }
        }
        ReadOutcome::Frame(Frame::Hello { version }) => {
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            let frame = Frame::Error {
                code: ErrorCode::UnsupportedVersion,
                message: format!(
                    "server speaks DKNP version {}, client sent {version}",
                    protocol::VERSION
                ),
            };
            write_frame(&mut stream, &frame);
            return;
        }
        ReadOutcome::Frame(_) => {
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            let frame = Frame::Error {
                code: ErrorCode::Malformed,
                message: "first frame must be HELLO".to_string(),
            };
            write_frame(&mut stream, &frame);
            return;
        }
        ReadOutcome::Malformed(err) => {
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            let frame = Frame::Error {
                code: ErrorCode::Malformed,
                message: err.to_string(),
            };
            write_frame(&mut stream, &frame);
            return;
        }
        ReadOutcome::Closed | ReadOutcome::Expired => return,
    }

    loop {
        let request = match read_frame(&mut stream, shared) {
            ReadOutcome::Frame(frame) => frame,
            ReadOutcome::Malformed(err) => {
                telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
                let frame = Frame::Error {
                    code: ErrorCode::Malformed,
                    message: err.to_string(),
                };
                write_frame(&mut stream, &frame);
                return;
            }
            ReadOutcome::Closed | ReadOutcome::Expired => return,
        };
        telemetry::metrics::SERVE_NET_REQUESTS.incr();
        let span = telemetry::Span::start(&telemetry::metrics::SERVE_NET_REQUEST_NS);
        let reply = respond(request, shared, submitter);
        let fatal = matches!(
            reply,
            Frame::Error {
                code: ErrorCode::Malformed | ErrorCode::UnsupportedVersion,
                ..
            }
        );
        let written = write_frame(&mut stream, &reply);
        drop(span);
        if !written || fatal {
            return;
        }
    }
}

/// Compute the one response frame for one request frame (PROTOCOL.md
/// §3–§6). Pure with respect to the connection: all state it consults is
/// the shared admission state and the published epoch.
fn respond(request: Frame, shared: &Shared, submitter: &Submitter) -> Frame {
    match request {
        Frame::Query { budget, text } => respond_query(budget, &text, shared),
        Frame::Update { from, to } => respond_update(from, to, shared, submitter),
        Frame::Ping => Frame::Pong {
            epoch: shared.handle.epoch().id(),
        },
        Frame::Stats => {
            let epoch = shared.handle.epoch();
            let admitted = shared.admitted.load(Ordering::SeqCst);
            let mut text = format!(
                "epoch={}\nops_applied={}\nadmitted={admitted}\npending={}\n",
                epoch.id(),
                epoch.ops_applied(),
                admitted.saturating_sub(epoch.ops_applied()),
            );
            // Key-value lines may be appended without a protocol bump
            // (PROTOCOL.md §2); the tuning lines appear only when live
            // tuning is enabled on the serve loop.
            if let Some(tuning) = shared.handle.tuning_stats() {
                text.push_str(&format!(
                    "tune_windows={}\ntune_promotions={}\ntune_demotions={}\n",
                    tuning.windows, tuning.promotions, tuning.demotions,
                ));
            }
            Frame::StatsOk { text }
        }
        Frame::Hello { .. } => {
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            Frame::Error {
                code: ErrorCode::Malformed,
                message: "HELLO after handshake".to_string(),
            }
        }
        // Server-to-client opcodes arriving as requests are malformed.
        Frame::Welcome { .. }
        | Frame::Answer { .. }
        | Frame::UpdateOk { .. }
        | Frame::Pong { .. }
        | Frame::StatsOk { .. }
        | Frame::Shed { .. }
        | Frame::Error { .. } => {
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            Frame::Error {
                code: ErrorCode::Malformed,
                message: "response opcode sent as a request".to_string(),
            }
        }
    }
}

/// QUERY: resolve the budget (PROTOCOL.md §3.1: 0 asks for the server
/// default), evaluate against the current epoch, answer or abort typed.
fn respond_query(budget: u32, text: &str, shared: &Shared) -> Frame {
    let expr = match parse(text) {
        Ok(expr) => expr,
        Err(err) => {
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            return Frame::Error {
                code: ErrorCode::BadQuery,
                message: err.to_string(),
            };
        }
    };
    let effective = if budget == 0 {
        shared.cfg.default_budget
    } else {
        u64::from(budget)
    };
    let epoch = shared.handle.epoch();
    match epoch.evaluate_bounded(&expr, effective) {
        Ok(outcome) => {
            telemetry::metrics::SERVE_NET_QUERIES.incr();
            Frame::Answer {
                epoch: epoch.id(),
                index_visits: outcome.cost.index_visits,
                data_visits: outcome.cost.data_visits,
                validated: outcome.validated,
                match_count: outcome.matches.len().min(u32::MAX as usize) as u32,
                ids: outcome
                    .matches
                    .iter()
                    .take(protocol::MAX_ANSWER_IDS)
                    .map(|n| n.index() as u64)
                    .collect(),
            }
        }
        Err(aborted) => {
            telemetry::metrics::SERVE_NET_BUDGET_ABORTS.incr();
            telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
            Frame::Error {
                code: ErrorCode::BudgetExhausted,
                message: aborted.to_string(),
            }
        }
    }
}

/// UPDATE: the admission gate (PROTOCOL.md §3.2, §5). During drain every
/// update is shed; otherwise a slot is reserved against the staleness
/// threshold and released again if the reservation overshot — the backlog
/// is bounded by construction, shedding typed instead of queueing
/// unboundedly.
fn respond_update(from: u64, to: u64, shared: &Shared, submitter: &Submitter) -> Frame {
    if shared.draining() {
        telemetry::metrics::SERVE_NET_RESPONSES_SHED.incr();
        return Frame::Shed {
            reason: ShedReason::Draining,
            pending: clamp_u32(shared.pending()),
            retry_after_ms: RETRY_AFTER_MS,
        };
    }
    // Reserve a backlog slot first so concurrent workers can never admit
    // past the threshold between a read and an increment.
    let reserved = shared.admitted.fetch_add(1, Ordering::SeqCst) + 1;
    let applied = shared.handle.epoch().ops_applied();
    let pending = reserved.saturating_sub(applied);
    if pending > shared.cfg.staleness_threshold {
        shared.admitted.fetch_sub(1, Ordering::SeqCst);
        telemetry::metrics::SERVE_NET_RESPONSES_SHED.incr();
        return Frame::Shed {
            reason: ShedReason::MaintenanceLag,
            pending: clamp_u32(pending.saturating_sub(1)),
            retry_after_ms: RETRY_AFTER_MS,
        };
    }
    let op = ServeOp::AddEdge {
        from: NodeId::from_index(from.min(u32::MAX as u64) as usize),
        to: NodeId::from_index(to.min(u32::MAX as u64) as usize),
    };
    if shared.durable {
        // Durable-ack path (PROTOCOL.md §8): block this worker until the
        // group commit carrying the op is fsynced and its epoch published.
        // A WAL failure surfaces as a typed refusal — the op was *not*
        // applied, so the admission reservation is released.
        let waited = submitter.submit_logged(op).and_then(|ack| ack.wait());
        return match waited {
            Ok(_epoch) => {
                telemetry::metrics::SERVE_NET_UPDATES_ADMITTED.incr();
                Frame::UpdateOk {
                    pending: clamp_u32(pending),
                }
            }
            Err(err) => refuse_update(err, shared),
        };
    }
    match submitter.submit(op) {
        Ok(()) => {
            telemetry::metrics::SERVE_NET_UPDATES_ADMITTED.incr();
            Frame::UpdateOk {
                pending: clamp_u32(pending),
            }
        }
        Err(err) => refuse_update(err, shared),
    }
}

/// Release an admission reservation for an update that will never be
/// applied and turn the serve-layer failure into the typed wire refusal
/// (PROTOCOL.md §6 code 5): both "maintenance thread is gone" and
/// "write-ahead log failed" mean the server cannot currently apply
/// updates.
fn refuse_update(err: ServeError, shared: &Shared) -> Frame {
    shared.admitted.fetch_sub(1, Ordering::SeqCst);
    telemetry::metrics::SERVE_NET_RESPONSES_ERROR.incr();
    Frame::Error {
        code: ErrorCode::Unavailable,
        message: err.to_string(),
    }
}

fn clamp_u32(value: u64) -> u32 {
    value.min(u64::from(u32::MAX)) as u32
}

/// Read one full frame: length prefix, bounds check (PROTOCOL.md §1.1),
/// body, decode. Between frames the read polls the drain deadline; once a
/// frame has begun arriving it is read to completion (a response begun is
/// a response completed — §7 — and likewise a request begun is read).
fn read_frame(stream: &mut TcpStream, shared: &Shared) -> ReadOutcome {
    let mut header = [0u8; 4];
    match read_exact_polling(stream, &mut header, shared, true) {
        ReadStatus::Done => {}
        ReadStatus::Closed => return ReadOutcome::Closed,
        ReadStatus::Expired => return ReadOutcome::Expired,
    }
    let length = u32::from_le_bytes(header);
    let length = match protocol::check_length(length) {
        Ok(length) => length,
        Err(err) => return ReadOutcome::Malformed(err),
    };
    let mut body = vec![0u8; length];
    match read_exact_polling(stream, &mut body, shared, false) {
        ReadStatus::Done => {}
        ReadStatus::Closed => return ReadOutcome::Closed,
        ReadStatus::Expired => return ReadOutcome::Expired,
    }
    telemetry::metrics::SERVE_NET_BYTES_READ.add(4 + length as u64);
    match protocol::decode_body(&body) {
        Ok(frame) => ReadOutcome::Frame(frame),
        Err(err) => ReadOutcome::Malformed(err),
    }
}

enum ReadStatus {
    Done,
    Closed,
    Expired,
}

/// Fill `buf` from the socket, waking every [`POLL_INTERVAL`] to check the
/// drain deadline. `expire_at_boundary` is true only for the first bytes
/// of a frame: expiry never cuts a frame in half. I/O errors map to
/// `Closed` — the connection is over either way and nothing can be written
/// back reliably.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shared: &Shared,
    expire_at_boundary: bool,
) -> ReadStatus {
    let mut filled = 0usize;
    loop {
        if filled == buf.len() {
            return ReadStatus::Done;
        }
        if expire_at_boundary && filled == 0 && shared.drain_expired() {
            return ReadStatus::Expired;
        }
        let Some(rest) = buf.get_mut(filled..) else {
            return ReadStatus::Closed;
        };
        match stream.read(rest) {
            Ok(0) => return ReadStatus::Closed,
            Ok(n) => filled += n,
            Err(err)
                if matches!(
                    err.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => return ReadStatus::Closed,
        }
    }
}

/// Encode and write one frame; false means the connection is gone (the
/// caller ends it — writes to shed/refuse are best-effort by design).
fn write_frame(stream: &mut TcpStream, frame: &Frame) -> bool {
    let bytes = protocol::encode(frame);
    match stream.write_all(&bytes) {
        Ok(()) => {
            telemetry::metrics::SERVE_NET_BYTES_WRITTEN.add(bytes.len() as u64);
            true
        }
        Err(_) => false,
    }
}
