//! Concurrent serving: epoch-published D(k)-indexes with a single
//! maintenance thread.
//!
//! The paper's update and tuning algorithms (§5) all take `&mut` access to
//! one [`DkIndex`]; this module turns that single-writer discipline into a
//! concurrent read path without changing any algorithm:
//!
//! ```text
//!           readers (N threads)                maintenance (1 thread)
//!   ┌────────────────────────────┐      ┌──────────────────────────────┐
//!   │ epoch = handle.epoch()     │      │ recv op, drain up to a batch │
//!   │ answer = epoch.evaluate(q) │      │ apply ops in order on the    │
//!   │   (memo hit or one walk)   │      │   owned DkIndex + DataGraph  │
//!   └────────────▲───────────────┘      │ publish Arc<Epoch> (id + 1)  │
//!                │     lock-free reads  └──────────────┬───────────────┘
//!                └──────── RwLock<Arc<Epoch>> ◄────────┘  swap on publish
//! ```
//!
//! * **Epoch publication**: the current [`Epoch`] — an immutable snapshot of
//!   index + data graph — sits behind a `RwLock<Arc<Epoch>>` used only as an
//!   atomic pointer swap (the write lock is held for one `Arc` store, never
//!   across any work). Readers clone the `Arc` and evaluate against their
//!   epoch without further synchronization; a reader holding an old epoch
//!   keeps a fully consistent view until it drops it.
//! * **Maintenance batching**: one thread owns the mutable index. It blocks
//!   on an op channel, drains up to [`ServeConfig::max_batch`] queued ops,
//!   applies them **in submission order** (edge updates and retargets,
//!   the tuner's among them), then publishes a fresh epoch. Because application
//!   order equals submission order, an N-thread serve run ends in exactly
//!   the state of a serial run over the same op sequence — snapshot bytes
//!   and all. The serial fold itself lives in [`crate::serve_ops`], kept
//!   import-isolated from this module so it can act as its oracle. The
//!   live tuner's ops join the sequence through the same channel, and a
//!   logged server's WAL is the record of it: the committed ops, in the
//!   order they were applied.
//! * **Cache invalidation contract**: each epoch carries its own query memo
//!   keyed by the query alone — the epoch *is* the other half of the
//!   `(epoch, query)` key. Publishing a new epoch drops the whole memo with
//!   the superseded `Arc`, so a stale cached answer is impossible by
//!   construction, not by bookkeeping.
//! * **A miss pays for its walk only**: a memo miss runs the one
//!   index→validate loop of `core::eval` over borrowed parts. The index
//!   phase walks the epoch's index graph itself (a flat label column and
//!   segment-CSR adjacency), seeded from the epoch's label → block seed
//!   lists, which its first miss builds (a `OnceLock`; publishing and memo
//!   hits never build them). The walk
//!   scratch (`EvalArena`) is one per reader thread, kept in a thread-local
//!   across misses, epochs and graphs. Short walks dedup on their own
//!   queue, so ordinary validation leaves the arena without a
//!   `states × nodes` mark store; a thread drops the arena after a miss
//!   that grew it past `MAX_RETAINED_MARKS_PER_NODE` mark slots per node of
//!   the epoch, so one oversized query cannot pin hundreds of megabytes in
//!   a worker.
//! * **No panic paths**: this module denies clippy's panic lints
//!   (`unwrap_used`, `indexing_slicing`, …). Lock poisoning is recovered
//!   (`PoisonError::into_inner` — every critical section leaves the guarded
//!   value consistent, so a panic elsewhere never invalidates it), and a
//!   dead maintenance thread surfaces as [`ServeError::MaintenanceGone`]
//!   instead of a panic in the caller's thread.
//! * **Guards die in their statement**: every lock here is taken by a
//!   one-statement accessor (the epoch load/store, the memo get/insert)
//!   that is handed values computed before it, so no guard can be live
//!   across fsync, channel or evaluator work.
//!   The module denies `clippy::disallowed_methods`, which rejects any other
//!   `lock()`/`read()`/`write()` (ARCHITECTURE.md §6).
//!
//! * **Delta publish**: `DkIndex` and `DataGraph` are copy-on-write
//!   snapshots (`Arc`-shared flat columns, segment-shared row columns), so
//!   the `dk.clone()`/`data.clone()` at publish time copies only the
//!   columns and segments the batch actually wrote; everything else is
//!   shared pointer-identically with the previous epoch. The
//!   `serve.publish.blocks_shared` / `serve.publish.blocks_rebuilt` counters
//!   record, on every publish, the blocks whose extent segment is shared
//!   and the rest. See ARCHITECTURE.md §5 for the delta-epoch diagram and
//!   the COW invariants.
//!
//! Telemetry: `serve.epoch_publishes`, `serve.batch_ops`, `serve.queries`,
//! `serve.stale_epoch_reads`, `serve.cache_hits`/`serve.cache_misses`,
//! `serve.publish.blocks_shared`/`serve.publish.blocks_rebuilt`, and the
//! `serve.publish_ns` span.

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

use crate::dk::construct::DkIndex;
use crate::eval::{IndexEvalOutcome, QueryAborted, Walk};
use crate::requirements::Requirements;
pub use crate::serve_ops::{apply_serial, ServeOp};
use crate::tuner::{TuneStats, Tuner, TunerConfig};
pub use crate::wal::BatchLog;
use dkindex_graph::{DataGraph, LabeledGraph};
use dkindex_pathexpr::{EvalArena, LabelIndex, PathExpr};
use dkindex_telemetry as telemetry;
use std::cell::Cell;
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;

/// A worker keeps its walk scratch between misses only while the scratch
/// holds at most this many mark slots per node of the epoch it just served.
/// Short walks allocate no `states × nodes` store at all, and ordinary
/// queries compile to a few dozen NFA states at most, so they stay under
/// it; one oversized query with a long walk (hundreds of states × every
/// data node) would otherwise stay resident in its worker for the life of
/// the thread.
const MAX_RETAINED_MARKS_PER_NODE: usize = 32;

thread_local! {
    /// This thread's walk scratch, lent to every miss it serves on any
    /// epoch. Reuse across graphs and after aborted walks is safe because
    /// every walk starts with an epoch-stamp reset of its marks.
    static ARENA: Cell<EvalArena> = Cell::new(EvalArena::new());
}

/// Knobs for a [`DkServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum operations applied per maintenance batch (one epoch publish
    /// per batch). `1` publishes after every op; larger batches amortize the
    /// publish cost under update-heavy load.
    pub max_batch: usize,
    /// Live tuning cadence: run one [`Tuner::step`] every this many
    /// published batches and enqueue the op it plans as an ordinary serve
    /// op. `0` (the default) disables live tuning — the serve loop then has
    /// no tuner and readers record nothing.
    pub tune_interval: usize,
    /// Window size and support filter of the live tuner; unused while
    /// `tune_interval` is zero.
    pub tuner: TunerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            tune_interval: 0,
            tuner: TunerConfig::default(),
        }
    }
}

/// A serve-layer failure surfaced to callers as a typed error rather than a
/// panic (the no-panic contract of this module).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The maintenance thread is gone — it panicked while applying an op or
    /// was already asked to shut down — so the operation can never be
    /// applied or acknowledged.
    MaintenanceGone,
    /// The write-ahead log could not durably commit the batch containing
    /// this operation. The batch was **not** applied (the in-memory state
    /// stays equal to the replay of the committed WAL prefix) and the WAL
    /// is abandoned — a failed fsync is never retried — so every later
    /// update on this server fails the same way until it is restarted and
    /// recovered.
    WalFailed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::MaintenanceGone => {
                write!(f, "serve maintenance thread is gone; op cannot be applied")
            }
            ServeError::WalFailed => {
                write!(f, "write-ahead log failed; update not applied (not durable)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// An immutable published snapshot: index + data graph + per-epoch memo.
///
/// The memo is keyed by the query alone because the epoch itself is the
/// other key half — it dies wholesale when the epoch's last `Arc` drops, so
/// it can never serve an answer computed against different data.
#[derive(Debug)]
pub struct Epoch {
    id: u64,
    ops_applied: u64,
    dk: DkIndex,
    data: DataGraph,
    /// The index graph's by-label seed lists, built by this epoch's first
    /// memo miss and shared by every later one. Publishing does not build
    /// them, so updates and memo hits never pay for them.
    seeds: OnceLock<LabelIndex>,
    memo: Mutex<HashMap<PathExpr, Arc<IndexEvalOutcome>>>,
    /// The live tuner shared across every epoch of one server; readers
    /// record each evaluated query into it, lock-free.
    tune: Option<Arc<Tuner>>,
}

impl Epoch {
    fn new(
        id: u64,
        ops_applied: u64,
        dk: DkIndex,
        data: DataGraph,
        tune: Option<Arc<Tuner>>,
    ) -> Self {
        Epoch {
            id,
            ops_applied,
            dk,
            data,
            seeds: OnceLock::new(),
            memo: Mutex::new(HashMap::new()),
            tune,
        }
    }

    /// Feed the tuner (when live tuning is on) with one evaluated query.
    /// Lock-free.
    fn observe(&self, query: &PathExpr, validated: bool) {
        if let Some(tuner) = &self.tune {
            tuner.record(query, validated);
        }
    }

    /// This epoch's publication number (0 for the initial build).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Cumulative [`ServeOp`]s applied up to and including this epoch's
    /// publish (0 for the initial build). A front-end that counts its own
    /// submissions can subtract this to get the maintenance backlog — the
    /// epoch-staleness measure the network layer's load-shedding is keyed
    /// on (`dkindex-server`, ARCHITECTURE.md §7).
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// The index as of this epoch.
    pub fn index(&self) -> &DkIndex {
        &self.dk
    }

    /// The data graph as of this epoch.
    pub fn data(&self) -> &DataGraph {
        &self.data
    }

    /// The one memo probe / miss / insert sequence both entry points share.
    /// A hit is one refcount bump and touches nothing else. A miss runs
    /// `miss` as one walk over this epoch's graphs, its shared seed lists
    /// and this thread's arena — the same walk `IndexEvaluator` runs. The
    /// arena goes back to the thread unless the walk grew
    /// it past [`MAX_RETAINED_MARKS_PER_NODE`]. Only a *successful* outcome
    /// is memoized, paying exactly one clone (the query key) — the outcome
    /// itself is never deep-copied. A failed miss is neither memoized nor
    /// observed: it answered nothing, so it is no evidence of served load.
    ///
    /// A poisoned memo lock is recovered: the memo only ever holds
    /// fully-inserted answers, so the map stays valid even if another
    /// reader panicked mid-query.
    fn memoized<E>(
        &self,
        query: &PathExpr,
        miss: impl FnOnce(Walk<'_>) -> Result<IndexEvalOutcome, E>,
    ) -> Result<Arc<IndexEvalOutcome>, E> {
        telemetry::metrics::SERVE_QUERIES.incr();
        if let Some(hit) = self.memo_get(query) {
            telemetry::metrics::SERVE_CACHE_HITS.incr();
            self.observe(query, hit.validated);
            return Ok(hit);
        }
        telemetry::metrics::SERVE_CACHE_MISSES.incr();
        let mut arena = ARENA.take();
        let out = miss(Walk {
            index: self.dk.index(),
            data: &self.data,
            seeds: self.seeds.get_or_init(|| LabelIndex::build(self.dk.index())),
            arena: &mut arena,
        });
        if arena.mark_capacity() <= MAX_RETAINED_MARKS_PER_NODE * self.data.node_count() {
            ARENA.set(arena);
        }
        let out = Arc::new(out?);
        self.observe(query, out.validated);
        self.memo_insert(query.clone(), Arc::clone(&out));
        Ok(out)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "memo probe: the guard lives for one lookup and one refcount bump"
    )]
    fn memo_get(&self, query: &PathExpr) -> Option<Arc<IndexEvalOutcome>> {
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(query)
            .map(Arc::clone)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "memo fill: the guard lives for one insert of an answer computed before it"
    )]
    fn memo_insert(&self, query: PathExpr, out: Arc<IndexEvalOutcome>) {
        self.memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(query, out);
    }

    /// Evaluate `query` against this epoch, consulting the per-epoch memo
    /// first. Exact with respect to this epoch's data graph.
    pub fn evaluate(&self, query: &PathExpr) -> Arc<IndexEvalOutcome> {
        match self.memoized(query, |walk| Ok::<_, Infallible>(walk.evaluate(query))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// Budget-bounded variant of [`Epoch::evaluate`] for per-request
    /// admission control: a memo hit is served for free (the work was
    /// already paid for under an earlier request's budget — replaying the
    /// stored answer costs no graph visits), a miss runs the index→validate
    /// loop of [`crate::IndexEvaluator::evaluate_bounded`] under `budget`,
    /// and an aborted probe can never poison the cache with a partial
    /// answer.
    pub fn evaluate_bounded(
        &self,
        query: &PathExpr,
        budget: u64,
    ) -> Result<Arc<IndexEvalOutcome>, QueryAborted> {
        self.memoized(query, |walk| walk.evaluate_bounded(query, budget))
    }
}

/// The published-epoch pointer: a `RwLock` used only as an atomic pointer
/// swap. Its two accessors are the only places the lock is taken, and each
/// guard dies inside its one statement — an `Arc` clone or an `Arc` store.
/// The lock never guards anything but a valid pointer, so poisoning is
/// recovered.
#[derive(Debug)]
struct EpochCell(RwLock<Arc<Epoch>>);

impl EpochCell {
    #[expect(
        clippy::disallowed_methods,
        reason = "epoch load: the read guard lives for one Arc clone"
    )]
    fn load(&self) -> Arc<Epoch> {
        Arc::clone(&self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "epoch publish: the write guard lives for one pointer store"
    )]
    fn store(&self, fresh: Arc<Epoch>) {
        *self.0.write().unwrap_or_else(PoisonError::into_inner) = fresh;
    }
}

/// A cloneable reader handle: grabs the current epoch lock-free (one
/// uncontended `RwLock` read to clone an `Arc`) and evaluates against it.
#[derive(Clone)]
pub struct ServeHandle {
    current: Arc<EpochCell>,
    tune: Option<Arc<Tuner>>,
}

impl ServeHandle {
    /// The live tuner's activity counters, or `None` when the server runs
    /// without live tuning ([`ServeConfig::tune_interval`] of zero).
    pub fn tuning_stats(&self) -> Option<TuneStats> {
        self.tune.as_ref().map(|t| t.stats())
    }

    /// The currently published epoch. The returned `Arc` stays fully
    /// consistent even if the maintenance thread publishes successors.
    pub fn epoch(&self) -> Arc<Epoch> {
        self.current.load()
    }

    /// Evaluate `query` against the current epoch. The answer is exact for
    /// the epoch it was computed on; if a publish raced the evaluation the
    /// read is counted as stale (`serve.stale_epoch_reads`) but never wrong.
    pub fn evaluate(&self, query: &PathExpr) -> Arc<IndexEvalOutcome> {
        let epoch = self.epoch();
        let out = epoch.evaluate(query);
        if self.current.load().id != epoch.id {
            telemetry::metrics::SERVE_STALE_EPOCH_READS.incr();
        }
        out
    }
}

/// Acknowledgment channel for one submitted op: the epoch id its batch
/// published under, or the typed reason it will never apply.
type AckSender = mpsc::Sender<Result<u64, ServeError>>;

enum Msg {
    /// An op, optionally carrying an acknowledgment sender the maintenance
    /// thread releases only after the op's batch is durable (WAL-backed
    /// servers) and published.
    Op(ServeOp, Option<AckSender>),
    /// A drain barrier. Resolves `Ok(epoch_id)` only while every
    /// previously submitted op has actually been applied — once a failed
    /// group commit has poisoned the server and batches are being dropped,
    /// flushes resolve `Err(WalFailed)` instead (the flush contract is
    /// "applied", not "attempted").
    Flush(mpsc::Sender<Result<u64, ServeError>>),
    Pause(PauseGate),
    Shutdown,
}

/// Pending acknowledgment for one op submitted with
/// [`DkServer::submit_logged`] / [`Submitter::submit_logged`]. Waiting
/// blocks until the op's batch has been applied and published — and, on a
/// WAL-backed server, group-committed to stable storage first — so an `Ok`
/// is a durable-ack: the update survives a crash (docs/PROTOCOL.md §8).
#[derive(Debug)]
#[must_use = "an unwaited ack reports success the disk never confirmed"]
pub struct DurableAck {
    rx: mpsc::Receiver<Result<u64, ServeError>>,
}

impl DurableAck {
    /// Block until the op's batch is acknowledged. `Ok(epoch_id)` is the
    /// epoch that made the op visible; a dead maintenance thread surfaces
    /// as [`ServeError::MaintenanceGone`], a failed group commit as
    /// [`ServeError::WalFailed`].
    pub fn wait(self) -> Result<u64, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::MaintenanceGone))
    }
}

/// The maintenance-side half of a pause: acknowledge parking, then block
/// until the holder drops its resume sender.
struct PauseGate {
    parked: mpsc::Sender<()>,
    resume: mpsc::Receiver<()>,
}

/// Held gate returned by [`DkServer::pause_maintenance`]: while it exists the
/// maintenance thread is parked between batches (ops queue but are not
/// applied, so the backlog grows); dropping it resumes maintenance.
#[doc(hidden)]
#[derive(Debug)]
pub struct MaintenanceGate {
    // Dropping the sender disconnects the receiver the maintenance thread is
    // blocked on, waking it.
    _resume: mpsc::Sender<()>,
}

/// The concurrent serving layer: spawn with [`DkServer::start`], hand
/// [`ServeHandle`]s to reader threads, feed updates through
/// [`DkServer::submit`], and [`DkServer::shutdown`] to reclaim the final
/// state.
pub struct DkServer {
    handle: ServeHandle,
    /// The server's own channel end: `submit`/`submit_logged` delegate to
    /// it, and the control messages (flush, shutdown, pause) ride the same
    /// channel so they order with the ops before them.
    submitter: Submitter,
    join: Option<JoinHandle<(DkIndex, DataGraph)>>,
    logged: bool,
}

impl DkServer {
    /// Publish `(dk, data)` as epoch 0 and spawn the maintenance thread.
    pub fn start(data: DataGraph, dk: DkIndex, config: ServeConfig) -> DkServer {
        DkServer::start_inner(data, dk, config, None)
    }

    /// Like [`DkServer::start`], but every maintenance batch is
    /// group-committed to `log` — one write, one fsync — *before* it is
    /// applied, published, or acknowledged. With this constructor an
    /// acknowledgment from [`DkServer::submit_logged`] (and the network
    /// layer's `UPDATE_OK`) means the update is on stable storage.
    pub fn start_logged(
        data: DataGraph,
        dk: DkIndex,
        config: ServeConfig,
        log: Box<dyn BatchLog>,
    ) -> DkServer {
        DkServer::start_inner(data, dk, config, Some(log))
    }

    fn start_inner(
        data: DataGraph,
        dk: DkIndex,
        config: ServeConfig,
        log: Option<Box<dyn BatchLog>>,
    ) -> DkServer {
        // The label universe is fixed while serving, so the tuner's dense
        // label × length cells can be sized once, here.
        let tune = (config.tune_interval > 0)
            .then(|| Arc::new(Tuner::new(data.labels_shared(), config.tuner)));
        let poisoned = Arc::new(AtomicBool::new(false));
        let epoch0 = Arc::new(Epoch::new(0, 0, dk.clone(), data.clone(), tune.clone()));
        let current = Arc::new(EpochCell(RwLock::new(epoch0)));
        let handle = ServeHandle {
            current: Arc::clone(&current),
            tune: tune.clone(),
        };
        telemetry::metrics::SERVE_EPOCH_PUBLISHES.incr();
        let (tx, rx) = mpsc::channel();
        let ctx = MaintenanceCtx {
            current,
            max_batch: config.max_batch.max(1),
            wal: log,
            poisoned: Arc::clone(&poisoned),
            // The maintenance thread enqueues tuning ops through its own
            // sender so they interleave with client ops at channel order
            // and flow through the WAL/batch/publish path like any op.
            tune: tune.map(|tuner| TuneCadence {
                tuner,
                tx: tx.clone(),
                interval: config.tune_interval,
                batches: 0,
            }),
        };
        let logged = ctx.wal.is_some();
        let join = std::thread::spawn(move || maintenance_loop(dk, data, rx, ctx));
        DkServer {
            handle,
            submitter: Submitter { tx, poisoned },
            join: Some(join),
            logged,
        }
    }

    /// Was this server started with a write-ahead log
    /// ([`DkServer::start_logged`])? When `true`, acknowledgments imply
    /// durability; front-ends use this to decide whether `UPDATE_OK` must
    /// wait for the group commit.
    pub fn is_logged(&self) -> bool {
        self.logged
    }

    /// A cloneable reader handle.
    pub fn handle(&self) -> ServeHandle {
        self.handle.clone()
    }

    /// A cloneable op submitter, decoupled from the owning `DkServer` so
    /// worker threads (e.g. the network front-end's pool) can each hold
    /// their own. Submitting through it is identical to
    /// [`DkServer::submit`]; after [`DkServer::shutdown`] every outstanding
    /// submitter gets [`ServeError::MaintenanceGone`].
    pub fn submitter(&self) -> Submitter {
        self.submitter.clone()
    }

    /// Enqueue a maintenance operation. Ops are applied in submission order
    /// by the maintenance thread, batched, and become visible atomically at
    /// the next epoch publish. Fails with [`ServeError::MaintenanceGone`]
    /// when the maintenance thread no longer exists to apply it, and with
    /// [`ServeError::WalFailed`] once a failed group commit has poisoned
    /// the server — a poisoned server drops every batch, so enqueueing
    /// would lose the op silently.
    pub fn submit(&self, op: ServeOp) -> Result<(), ServeError> {
        self.submitter.submit(op)
    }

    /// Enqueue a maintenance operation and return a [`DurableAck`] that
    /// resolves once the op's batch is applied and published — after its
    /// WAL group commit, when this server [`DkServer::is_logged`]. Fails
    /// fast with [`ServeError::WalFailed`] on a poisoned server.
    pub fn submit_logged(&self, op: ServeOp) -> Result<DurableAck, ServeError> {
        self.submitter.submit_logged(op)
    }

    /// Block until every previously submitted op has been applied and
    /// published; returns the epoch id current after the drain.
    /// [`ServeError::MaintenanceGone`] when the maintenance thread died
    /// before acknowledging, [`ServeError::WalFailed`] when a failed group
    /// commit poisoned the server — then some previously submitted ops
    /// were dropped, so the flush contract cannot be honored.
    pub fn flush(&self) -> Result<u64, ServeError> {
        let (ack_tx, ack_rx) = mpsc::channel();
        self.submitter
            .tx
            .send(Msg::Flush(ack_tx))
            .map_err(|_| ServeError::MaintenanceGone)?;
        ack_rx.recv().map_err(|_| ServeError::MaintenanceGone)?
    }

    /// Stop the maintenance thread after it drains all previously submitted
    /// ops, returning the final index and data graph (for snapshotting —
    /// determinism tests compare these bytes against a serial run). Fails
    /// with [`ServeError::MaintenanceGone`] when the maintenance thread
    /// panicked and the final state is unrecoverable.
    pub fn shutdown(mut self) -> Result<(DkIndex, DataGraph), ServeError> {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "a send failure means maintenance already exited; the join below \
                      surfaces that as MaintenanceGone"
        )]
        let _ = self.submitter.tx.send(Msg::Shutdown);
        let join = self.join.take().ok_or(ServeError::MaintenanceGone)?;
        join.join().map_err(|_| ServeError::MaintenanceGone)
    }

    /// Test hook: ask the maintenance thread to exit while keeping the
    /// server value alive, so tests can observe the typed
    /// [`ServeError::MaintenanceGone`] surface on subsequent calls.
    #[doc(hidden)]
    pub fn stop_maintenance_for_tests(&self) {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the hook exists to provoke the maintenance-gone state; a failed send \
                      means it is already gone"
        )]
        let _ = self.submitter.tx.send(Msg::Shutdown);
    }

    /// Test hook: park the maintenance thread between batches until the
    /// returned [`MaintenanceGate`] is dropped. Blocks until the thread has
    /// actually parked — once this returns, every subsequently submitted op
    /// queues without being applied, which is how overload tests induce a
    /// deterministic maintenance backlog for the network layer's
    /// epoch-staleness shedding. Dropping the gate resumes maintenance.
    #[doc(hidden)]
    pub fn pause_maintenance(&self) -> Result<MaintenanceGate, ServeError> {
        let (parked_tx, parked_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel();
        self.submitter
            .tx
            .send(Msg::Pause(PauseGate {
                parked: parked_tx,
                resume: resume_rx,
            }))
            .map_err(|_| ServeError::MaintenanceGone)?;
        parked_rx.recv().map_err(|_| ServeError::MaintenanceGone)?;
        Ok(MaintenanceGate { _resume: resume_tx })
    }
}

/// A cloneable handle for enqueueing maintenance ops, obtained from
/// [`DkServer::submitter`]. Each clone owns its own channel sender, so
/// submitters are freely `Send` across threads.
#[derive(Clone)]
pub struct Submitter {
    tx: mpsc::Sender<Msg>,
    /// Set by the maintenance thread when a group commit fails: the server
    /// drops every later batch, so accepting new ops would lose them
    /// silently. `submit`/`submit_logged` fast-fail on it.
    poisoned: Arc<AtomicBool>,
}

impl Submitter {
    /// Enqueue a maintenance operation; same contract as
    /// [`DkServer::submit`] (including the poisoned-server fast-fail).
    pub fn submit(&self, op: ServeOp) -> Result<(), ServeError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(ServeError::WalFailed);
        }
        self.tx
            .send(Msg::Op(op, None))
            .map_err(|_| ServeError::MaintenanceGone)
    }

    /// Enqueue a maintenance operation with a durable acknowledgment; same
    /// contract as [`DkServer::submit_logged`].
    pub fn submit_logged(&self, op: ServeOp) -> Result<DurableAck, ServeError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(ServeError::WalFailed);
        }
        let (ack_tx, ack_rx) = mpsc::channel();
        self.tx
            .send(Msg::Op(op, Some(ack_tx)))
            .map_err(|_| ServeError::MaintenanceGone)?;
        Ok(DurableAck { rx: ack_rx })
    }
}

impl Drop for DkServer {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort teardown in Drop: a dead maintenance thread is already \
                          the state we want"
            )]
            let _ = self.submitter.tx.send(Msg::Shutdown);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Drop must not panic, and a maintenance thread that panicked has \
                          nothing left to tear down"
            )]
            let _ = join.join();
        }
    }
}

/// What the maintenance loop should do after staging one message.
enum Staged {
    Continue,
    Shutdown,
}

/// Everything the maintenance thread needs besides the owned
/// `(DkIndex, DataGraph)` and its receive channel.
struct MaintenanceCtx {
    current: Arc<EpochCell>,
    max_batch: usize,
    wal: Option<Box<dyn BatchLog>>,
    /// Mirror of the loop-local `wal_broken` flag shared with
    /// `DkServer`/`Submitter` so their `submit` paths fast-fail instead of
    /// enqueueing ops a poisoned server would drop.
    poisoned: Arc<AtomicBool>,
    tune: Option<TuneCadence>,
}

/// The maintenance thread's side of live tuning: the publish-cadence
/// counter around [`Tuner::step`], and a sender clone through which the
/// planned `SetRequirements` retarget is enqueued as an ordinary
/// [`Msg::Op`] — it interleaves with client ops at channel order and flows
/// through the same WAL/batch/publish/ack path, which is what keeps an
/// N-thread tuned run byte-identical under [`apply_serial`] replay of the
/// applied op sequence — on a logged server, exactly the ops its WAL
/// committed, tuner ops at their positions. (The held sender means the channel never
/// disconnects on its own; every exit path goes through `Msg::Shutdown`,
/// which both [`DkServer::shutdown`] and `Drop` send.)
struct TuneCadence {
    tuner: Arc<Tuner>,
    tx: mpsc::Sender<Msg>,
    interval: usize,
    /// Publishes since the last step.
    batches: usize,
}

impl TuneCadence {
    /// Called after every epoch publish: every `interval` publishes, step
    /// the tuner against the index's current requirements and enqueue the
    /// op it planned, if any.
    fn after_publish(&mut self, current: &Requirements) {
        self.batches += 1;
        if self.batches < self.interval {
            return;
        }
        self.batches = 0;
        if let Some(op) = self.tuner.step(current) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "tuner self-enqueue is advisory: a failed send means maintenance is \
                          shutting down, and dropping the plan is the correct outcome"
            )]
            let _ = self.tx.send(Msg::Op(op, None));
        }
    }
}

/// The single-writer loop: block for one message, drain the channel up to
/// `max_batch` ops, group-commit the batch to the WAL when one is attached
/// (write + fence + one fsync — *before* anything is applied or
/// acknowledged), apply the ops in submission order, publish one new epoch
/// per non-empty batch, release the batch's durable acks, acknowledge
/// flushes, run the live-tuning pass, and hand the owned state back on
/// shutdown.
fn maintenance_loop(
    mut dk: DkIndex,
    mut data: DataGraph,
    rx: mpsc::Receiver<Msg>,
    mut ctx: MaintenanceCtx,
) -> (DkIndex, DataGraph) {
    let mut epoch_id = 0u64;
    let mut ops_total = 0u64;
    // Set after a group commit fails. A failed fsync leaves the log in an
    // unknowable state, so it is never retried (the fsyncgate rule): every
    // later batch is dropped with the same typed error until the operator
    // restarts and recovers the server.
    let mut wal_broken = false;
    loop {
        let Ok(first) = rx.recv() else {
            // Every sender dropped without a Shutdown: nothing more can
            // arrive, the final state is whatever was last published.
            return (dk, data);
        };
        let mut batch: Vec<(ServeOp, Option<AckSender>)> = Vec::new();
        let mut flushes: Vec<mpsc::Sender<Result<u64, ServeError>>> = Vec::new();
        let mut pauses: Vec<PauseGate> = Vec::new();
        let mut shutdown = false;
        let mut staged = first;
        loop {
            let stage = stage_message(staged, &mut batch, &mut flushes, &mut pauses);
            if matches!(stage, Staged::Shutdown) {
                shutdown = true;
                break;
            }
            if batch.len() >= ctx.max_batch {
                break;
            }
            match rx.try_recv() {
                Ok(m) => staged = m,
                Err(_) => break,
            }
        }
        if !batch.is_empty() {
            if let Some(log) = ctx.wal.as_mut() {
                // Log only ops `apply` would actually execute (node counts
                // never change while serving, so applicability is decidable
                // up front): the logged stream then replays byte-identically
                // under the *strict* replay, with no skip semantics needed.
                let to_log: Vec<ServeOp> = batch
                    .iter()
                    .filter(|(op, _)| crate::serve_ops::is_applicable(op, &data))
                    .map(|(op, _)| op.clone())
                    .collect();
                let committed = !wal_broken && log.log_batch(&to_log).is_ok();
                if !committed {
                    // Nothing in this batch reached stable storage as a
                    // fenced commit: drop it *unapplied* — the in-memory
                    // state must stay replayable from the committed WAL
                    // prefix — fail every waiting ack with the typed error,
                    // and publish the poisoning so new submits fast-fail
                    // instead of enqueueing ops this loop would drop.
                    wal_broken = true;
                    ctx.poisoned.store(true, Ordering::Release);
                    telemetry::metrics::SERVE_WAL_DROPPED_BATCHES.incr();
                    for (_, ack) in batch.drain(..) {
                        if let Some(ack) = ack {
                            #[expect(
                                clippy::let_underscore_must_use,
                                reason = "a gone receiver means the submitter stopped \
                                          waiting; the failure is already published via \
                                          `poisoned`"
                            )]
                            let _ = ack.send(Err(ServeError::WalFailed));
                        }
                    }
                }
            }
        }
        if !batch.is_empty() {
            let span = telemetry::Span::start(&telemetry::metrics::SERVE_PUBLISH_NS);
            telemetry::metrics::SERVE_BATCH_OPS.record(batch.len() as u64);
            ops_total += batch.len() as u64;
            let mut acks: Vec<AckSender> = Vec::new();
            for (op, ack) in batch.drain(..) {
                crate::serve_ops::apply(&mut dk, &mut data, op);
                if let Some(ack) = ack {
                    acks.push(ack);
                }
            }
            epoch_id += 1;
            // `dk`/`data` are COW snapshots (Arc-shared columns and
            // segments), so these clones copy only what the batch above
            // touched — the delta-epoch publish is O(touched), not O(index).
            let fresh = Arc::new(Epoch::new(
                epoch_id,
                ops_total,
                dk.clone(),
                data.clone(),
                ctx.tune.as_ref().map(|t| Arc::clone(&t.tuner)),
            ));
            {
                // This thread is the only writer, so the epoch read here is
                // exactly the predecessor being superseded.
                let prev = ctx.current.load();
                let (shared, rebuilt) = fresh.dk.index().shared_blocks_with(prev.dk.index());
                telemetry::metrics::SERVE_PUBLISH_BLOCKS_SHARED.add(shared as u64);
                telemetry::metrics::SERVE_PUBLISH_BLOCKS_REBUILT.add(rebuilt as u64);
            }
            ctx.current.store(fresh);
            drop(span);
            telemetry::metrics::SERVE_EPOCH_PUBLISHES.incr();
            // Acks release only here — after the WAL group commit *and* the
            // publish — so a released ack means both durable and visible.
            for ack in acks.drain(..) {
                if ctx.wal.is_some() {
                    telemetry::metrics::SERVE_DURABLE_ACKS.incr();
                }
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "the op is durable and visible whether or not the submitter \
                              still listens; a gone receiver must not fail maintenance"
                )]
                let _ = ack.send(Ok(epoch_id));
            }
            // Live tuning rides published batches: step the tuner on
            // cadence and self-enqueue the retarget it plans. A
            // poisoned server stops tuning with everything else — its
            // batches are dropped before this point.
            if let Some(tune) = ctx.tune.as_mut() {
                tune.after_publish(dk.requirements());
            }
        }
        for ack in flushes.drain(..) {
            // The flush contract is "every previously submitted op has been
            // *applied*" — once poisoned, batches are being dropped, so a
            // flush must surface the loss instead of acking it away (S1).
            #[expect(
                clippy::let_underscore_must_use,
                reason = "flush callers may time out and drop the receiver; the outcome they \
                          asked about is decided either way"
            )]
            let _ = ack.send(if wal_broken {
                Err(ServeError::WalFailed)
            } else {
                Ok(epoch_id)
            });
        }
        // Park between batches while a pause gate is held: acknowledge so
        // the holder knows nothing further will be applied, then block
        // until the holder drops its resume sender; maintenance resumes
        // with whatever queued meanwhile.
        for gate in pauses.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a dropped gate holder means \"resume immediately\": the park \
                          notification has no reader"
            )]
            let _ = gate.parked.send(());
            #[expect(
                clippy::let_underscore_must_use,
                reason = "no message ever arrives: the holder resumes maintenance by dropping \
                          its sender, which ends this recv with Err"
            )]
            let _ = gate.resume.recv();
        }
        if shutdown {
            return (dk, data);
        }
    }
}

/// Sort one received message into the batch/flush/pause accumulators.
fn stage_message(
    msg: Msg,
    batch: &mut Vec<(ServeOp, Option<AckSender>)>,
    flushes: &mut Vec<mpsc::Sender<Result<u64, ServeError>>>,
    pauses: &mut Vec<PauseGate>,
) -> Staged {
    match msg {
        Msg::Op(op, ack) => batch.push((op, ack)),
        Msg::Flush(ack) => flushes.push(ack),
        Msg::Pause(gate) => pauses.push(gate),
        Msg::Shutdown => return Staged::Shutdown,
    }
    Staged::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval_oracle;
    use dkindex_datagen::{random_graph, RandomGraphConfig};
    use dkindex_graph::EdgeKind;
    use dkindex_pathexpr::{parse, Nfa};

    fn epoch_over(data: DataGraph, requirements: Requirements) -> Epoch {
        let dk = DkIndex::build(&data, requirements);
        Epoch::new(0, 0, dk, data, None)
    }

    fn small_graph() -> DataGraph {
        random_graph(&RandomGraphConfig {
            nodes: 120,
            labels: 4,
            reference_edges: 12,
            max_fanout: 5,
            seed: 0x1AB5,
        })
    }

    /// Mark slots the current thread's arena holds between misses.
    fn retained_marks() -> usize {
        let arena = ARENA.take();
        let slots = arena.mark_capacity();
        ARENA.set(arena);
        slots
    }

    /// The walk uses the epoch's one set of seed lists: distinct misses
    /// share a single instance, a memo hit never builds it, and a freshly
    /// published epoch starts without one.
    #[test]
    fn one_seed_index_per_epoch_built_by_the_first_miss() {
        let epoch = epoch_over(small_graph(), Requirements::uniform(1));
        assert!(epoch.seeds.get().is_none(), "a new epoch builds nothing");

        let mut seen: Option<*const LabelIndex> = None;
        for query in ["l0", "l0.l1", "l1.l2.l3", "_*.l2", "ghost"] {
            epoch.evaluate(&parse(query).unwrap());
            let built = epoch.seeds.get().expect("a miss builds the seed lists");
            let built: *const LabelIndex = built;
            assert_eq!(*seen.get_or_insert(built), built, "{query} built a second seed index");
        }

        // A hit on an epoch whose memo was filled without a walk.
        let fresh = epoch_over(small_graph(), Requirements::uniform(1));
        let q = parse("l0.l1").unwrap();
        fresh.memo_insert(q.clone(), epoch.evaluate(&q));
        assert!(fresh.evaluate_bounded(&q, 0).is_ok(), "a hit is free");
        assert!(fresh.seeds.get().is_none(), "a memo hit must not build them");

        let data = small_graph();
        let server = DkServer::start(
            data.clone(),
            DkIndex::build(&data, Requirements::uniform(1)),
            ServeConfig::default(),
        );
        let before = server.handle().epoch();
        before.evaluate(&q);
        assert!(before.seeds.get().is_some());
        server.submit(ServeOp::PromoteToRequirements).unwrap();
        server.flush().unwrap();
        let after = server.handle().epoch();
        assert!(after.id() > before.id());
        assert!(after.seeds.get().is_none(), "publishing must not build them");
        server.shutdown().unwrap();
    }

    /// A worker keeps its arena across ordinary misses but not the
    /// `states × nodes` store of an oversized query. An ordinary validating
    /// miss walks few pairs, dedups on its queue and leaves the arena
    /// holding fewer mark slots than the data graph has nodes; after a
    /// 200-label query that validates on a label-split index, and after a
    /// query whose many branches hand off to the index, what the thread
    /// retains is under the cap, and the next miss still answers exactly.
    #[test]
    fn an_oversized_validating_query_does_not_stay_resident() {
        // A ring of `a` nodes under the root: every a-path of any length
        // exists in the data graph and in the label-split index.
        let mut data = DataGraph::new();
        let ring: Vec<_> = (0..40).map(|_| data.add_labeled_node("a")).collect();
        data.add_edge(data.root(), ring[0], EdgeKind::Tree);
        for pair in ring.windows(2) {
            data.add_edge(pair[0], pair[1], EdgeKind::Tree);
        }
        data.add_edge(ring[39], ring[0], EdgeKind::Reference);
        let b = data.add_labeled_node("b");
        data.add_edge(ring[3], b, EdgeKind::Tree);
        let cap = MAX_RETAINED_MARKS_PER_NODE * data.node_count();
        let epoch = epoch_over(data.clone(), Requirements::new());

        let ordinary = parse("a.a.b").unwrap();
        assert!(epoch.evaluate(&ordinary).validated);
        let kept = retained_marks();
        assert!(kept > 0 && kept <= cap, "an ordinary miss keeps its arena ({kept} slots)");
        assert!(
            kept < epoch.data().node_count(),
            "short validation walks allocate no states × nodes store ({kept} slots)"
        );

        let long = parse(&vec!["a"; 200].join(".")).unwrap();
        let states = Nfa::compile(&long, epoch.data().labels()).state_count();
        assert!(states > MAX_RETAINED_MARKS_PER_NODE, "the query must outgrow the cap");
        let out = epoch.evaluate(&long);
        assert!(out.validated && !out.matches.is_empty());
        assert!(retained_marks() <= cap, "the oversized store must be released");

        let labels = LabelIndex::build(epoch.index().index());
        for next in ["a.b", "a.a.a.a"] {
            let q = parse(next).unwrap();
            let want = eval_oracle::evaluate(epoch.index().index(), epoch.data(), &labels, &q);
            assert_eq!(*epoch.evaluate(&q), want, "{next}");
        }

        // The reached rows of a query that hands off to the index: on a
        // similarity-1 index, every branch of an alternation of 80 copies of
        // `a.a.a` hands off one label short of its end, each state with its
        // own rows. They are released by the same rule, and the next
        // hand-off still answers exactly.
        let epoch = epoch_over(data, Requirements::uniform(1));
        let labels = LabelIndex::build(epoch.index().index());
        let many = parse(&vec!["(a.a.a)"; 80].join("|")).unwrap();
        let want = eval_oracle::evaluate(epoch.index().index(), epoch.data(), &labels, &many);
        let forward = Nfa::compile(&many, epoch.index().index().labels());
        let on_index = dkindex_pathexpr::oracle::evaluate(epoch.index().index(), &forward, &labels);
        assert!(want.validated && want.cost.index_visits > on_index.visited, "it hands off");
        assert_eq!(*epoch.evaluate(&many), want);
        assert!(retained_marks() <= cap, "the oversized reached rows must be released");
        for next in ["a.a.b", "a.a.a.a"] {
            let q = parse(next).unwrap();
            let want = eval_oracle::evaluate(epoch.index().index(), epoch.data(), &labels, &q);
            assert_eq!(*epoch.evaluate(&q), want, "{next}");
        }
    }
}
