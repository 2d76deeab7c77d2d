//! The network server: listener + bounded accept queue + fixed worker
//! pool over a [`DkServer`], with graceful drain.
//!
//! ```text
//!    TCP connects                 bounded queue               workers (N)
//!   ┌────────────┐   try_send   ┌───────────────┐   recv   ┌─────────────┐
//!   │ accept loop├─────────────►│ sync_channel  ├─────────►│ handshake + │
//!   │ (1 thread) │   full? shed │ (accept_queue)│          │ request loop│
//!   └────────────┘   + close    └───────────────┘          └─────────────┘
//! ```
//!
//! Every queue in the pipeline is bounded: the accept queue by
//! [`NetConfig::accept_queue`] (overflow sheds the connection with a typed
//! frame, PROTOCOL.md §5), the maintenance backlog by
//! [`NetConfig::staleness_threshold`] (overflow sheds the update). Slow
//! maintenance therefore degrades into typed refusals, never into
//! unbounded memory growth. See OPERATIONS.md for tuning.
//!
//! The one lock here is the worker queue's, taken only by
//! `next_connection`; `clippy::disallowed_methods` rejects any other
//! (ARCHITECTURE.md §6).

#![deny(clippy::disallowed_methods)]

use crate::conn::{self, Shared};
use crate::protocol::{self, Frame, ShedReason};
use dkindex_core::{DkIndex, DkServer, ServeError};
use dkindex_graph::DataGraph;
use dkindex_telemetry as telemetry;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs for a [`NetServer`]. Field-by-field tuning guidance is
/// OPERATIONS.md; the defaults suit a loopback bench and small
/// deployments.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker threads handling connections (each owns one connection at a
    /// time). `0` is treated as 1.
    pub workers: usize,
    /// Accepted connections that may wait for a free worker before the
    /// server sheds new ones at the door (PROTOCOL.md §5.1 reason 1).
    pub accept_queue: usize,
    /// Visit budget applied to QUERY frames that ask for the default
    /// (budget 0, PROTOCOL.md §3.1).
    pub default_budget: u64,
    /// Maintenance backlog (admitted, unapplied ops) above which UPDATEs
    /// are shed with reason maintenance-lag (PROTOCOL.md §5.1 reason 2).
    pub staleness_threshold: u64,
    /// Grace window during drain in which established connections may
    /// finish pipelined requests (PROTOCOL.md §7).
    pub drain_grace_ms: u64,
}

/// Backoff hint written into every SHED frame (PROTOCOL.md §5).
pub(crate) const RETRY_AFTER_MS: u32 = 50;

/// Write deadline for the best-effort SHED frame sent to a connection
/// refused at the door: a stalled peer must not wedge the accept thread.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(50);

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            workers: 4,
            accept_queue: 64,
            default_budget: 1_000_000,
            staleness_threshold: 256,
            drain_grace_ms: 1_000,
        }
    }
}

/// What a graceful [`NetServer::shutdown`] hands back.
pub struct NetShutdown {
    /// The final index, after every admitted op was applied.
    pub index: DkIndex,
    /// The final data graph.
    pub data: DataGraph,
    /// Wall-clock of the drain: draining flag set → all workers joined.
    pub drain: Duration,
}

/// A running network front-end over a [`DkServer`]. Dropping it without
/// [`NetServer::shutdown`] still joins everything (via the inner
/// `DkServer` drop) but skips the drain bookkeeping; call `shutdown` to
/// get the final state and drain telemetry.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    server: DkServer,
}

impl NetServer {
    /// Bind `addr` and start serving `server` over it: one accept thread,
    /// `cfg.workers` connection workers. Port 0 binds an ephemeral port —
    /// read it back with [`NetServer::local_addr`].
    pub fn start<A: ToSocketAddrs>(
        server: DkServer,
        addr: A,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Baseline the admission counter at the current epoch's op count so
        // `admitted − ops_applied` is the backlog even when the DkServer
        // had direct submissions before the front-end came up.
        let base = server.handle().epoch().ops_applied();
        let shared = Arc::new(Shared {
            handle: server.handle(),
            admitted: AtomicU64::new(base),
            draining: AtomicBool::new(false),
            drain_deadline: OnceLock::new(),
            durable: server.is_logged(),
            cfg,
        });
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(shared.cfg.accept_queue.max(1));
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            let rx = Arc::clone(&conn_rx);
            let worker_shared = Arc::clone(&shared);
            let submitter = server.submitter();
            let join = std::thread::Builder::new()
                .name(format!("dknp-worker-{i}"))
                .spawn(move || worker_loop(&rx, &worker_shared, &submitter))?;
            workers.push(join);
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("dknp-accept".to_string())
            .spawn(move || accept_loop(&listener, &conn_tx, &accept_shared))?;
        Ok(NetServer {
            local_addr,
            shared,
            accept: Some(accept),
            workers,
            server,
        })
    }

    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The underlying serve layer — test hooks like
    /// `DkServer::pause_maintenance` live there.
    pub fn dk_server(&self) -> &DkServer {
        &self.server
    }

    /// Graceful drain (PROTOCOL.md §7, OPERATIONS.md): stop accepting (new
    /// connects are refused at the socket level), give established
    /// connections the drain grace window (queries still answered, updates
    /// shed with reason draining), join every worker, record
    /// `serve.net.drain_ns`, then stop the maintenance thread after it
    /// applies everything admitted — the returned state reflects every
    /// `UPDATE_OK` ever sent.
    pub fn shutdown(self) -> Result<NetShutdown, ServeError> {
        let NetServer {
            local_addr,
            shared,
            accept,
            workers,
            server,
        } = self;
        let start = Instant::now();
        shared
            .drain_deadline
            .get_or_init(|| start + Duration::from_millis(shared.cfg.drain_grace_ms));
        shared.draining.store(true, Ordering::SeqCst);
        // The accept thread may be parked in accept(); a throwaway
        // self-connection wakes it so it can observe the flag and exit
        // (dropping the listener — from then on connects are refused).
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the connection exists only to wake accept(); it carries nothing to act on"
        )]
        let _ = TcpStream::connect(local_addr);
        if let Some(join) = accept {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked accept thread held only the listener; the index and graph \
                          come from the maintenance thread below"
            )]
            let _ = join.join();
        }
        for join in workers {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a panicked worker held only its own connection; the index and graph come \
                          from the maintenance thread below"
            )]
            let _ = join.join();
        }
        let drain = start.elapsed();
        telemetry::metrics::SERVE_NET_DRAIN_NS.record(drain.as_nanos() as u64);
        let (index, data) = server.shutdown()?;
        Ok(NetShutdown { index, data, drain })
    }
}

/// The accept thread: hand sockets to the bounded queue, shed at the door
/// when it is full, exit (dropping the listener and the queue sender) once
/// draining starts.
fn accept_loop(listener: &TcpListener, tx: &mpsc::SyncSender<TcpStream>, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    // This is either the self-connect wakeup or a client
                    // racing the drain; both are refused by closing.
                    return;
                }
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => shed_at_door(stream),
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                // Transient accept failure (EMFILE, aborted connection):
                // keep serving.
            }
        }
    }
}

/// Best-effort typed refusal for a connection that never reached a worker
/// (PROTOCOL.md §5.1 reason 1, §5.2): write SHED instead of WELCOME, then
/// close.
fn shed_at_door(mut stream: TcpStream) {
    telemetry::metrics::SERVE_NET_CONNECTIONS_SHED.incr();
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort refusal: the SHED frame fits an empty send buffer, and the \
                  connection closes either way"
    )]
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let frame = Frame::Shed {
        reason: ShedReason::QueueFull,
        pending: 0,
        retry_after_ms: RETRY_AFTER_MS,
    };
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort refusal (PROTOCOL.md §5.2): the connection closes whether or not the \
                  SHED frame got out"
    )]
    let _ = stream.write_all(&protocol::encode(&frame));
}

/// A worker: pull connections off the shared queue until the accept thread
/// drops the sender, serving each to completion.
fn worker_loop(
    rx: &Mutex<mpsc::Receiver<TcpStream>>,
    shared: &Shared,
    submitter: &dkindex_core::Submitter,
) {
    loop {
        match next_connection(rx) {
            Ok(stream) => conn::serve_connection(stream, shared, submitter),
            Err(_) => return,
        }
    }
}

/// Block until the accept thread queues a connection. Holding the lock
/// across `recv` serializes idle workers on the mutex instead of the
/// channel — same semantics, and the lock is released before the (long)
/// connection handling starts.
#[expect(
    clippy::disallowed_methods,
    reason = "intentional: the mutex IS the work-distribution queue; only idle workers block \
              here, and the guard drops before connection handling starts"
)]
fn next_connection(rx: &Mutex<mpsc::Receiver<TcpStream>>) -> Result<TcpStream, mpsc::RecvError> {
    rx.lock().unwrap_or_else(PoisonError::into_inner).recv()
}
