//! The workspace-wide metric registry.
//!
//! Every metric recorded anywhere in the D(k)-index workspace is a `static`
//! defined here, grouped by the crate that records it. Centralizing the
//! definitions keeps snapshotting trivial (one flat list per kind, no
//! runtime registration) and makes the full observable surface reviewable
//! in one file. Naming convention: `<area>.<event>`, durations end in
//! `_ns`.

use crate::{Counter, Histogram, Unit};

// ---- dkindex-pathexpr: NFA evaluation and validation walks --------------

/// Forward NFA walks started (`evaluate_bounded_with`), budget aborts
/// included: the `pathexpr.*` family counts work done, not queries answered.
pub static PATHEXPR_EVALUATIONS: Counter = Counter::new("pathexpr.evaluations");
/// Total `(state, node)` activations across forward walks — the paper's
/// §6.1 "nodes visited" cost, summed, including what aborted walks were
/// charged before their budget ran out.
pub static PATHEXPR_ACTIVATIONS: Counter = Counter::new("pathexpr.activations");
/// Backward validation walks started (`matches_ending_at_bounded_with`),
/// budget aborts included.
pub static PATHEXPR_VALIDATION_WALKS: Counter = Counter::new("pathexpr.validation_walks");
/// Total activations charged during backward validation walks, aborted
/// ones included.
pub static PATHEXPR_VALIDATION_ACTIVATIONS: Counter =
    Counter::new("pathexpr.validation_activations");
/// Distribution of per-evaluation visit counts (forward evaluations).
pub static PATHEXPR_VISITS_PER_EVAL: Histogram =
    Histogram::new("pathexpr.visits_per_eval", Unit::Count);

// ---- dkindex-partition: RefineEngine rounds ------------------------------

/// Refinement rounds executed by `RefineEngine`.
pub static PARTITION_ROUNDS: Counter = Counter::new("partition.rounds");
/// Rounds that actually split at least one block.
pub static PARTITION_ROUNDS_CHANGED: Counter = Counter::new("partition.rounds_changed");
/// Nodes whose signature was computed (i.e. not skipped by a selective
/// round) summed over all rounds.
pub static PARTITION_NODES_REFINED: Counter = Counter::new("partition.nodes_refined");
/// Distinct signatures interned, summed over all rounds.
pub static PARTITION_SYMBOLS_INTERNED: Counter = Counter::new("partition.symbols_interned");
/// Distribution of block counts after each round — the index size
/// trajectory during construction.
pub static PARTITION_BLOCKS_PER_ROUND: Histogram =
    Histogram::new("partition.blocks_per_round", Unit::Count);
/// Wall-clock per refinement round.
pub static PARTITION_ROUND_NS: Histogram = Histogram::new("partition.round_ns", Unit::Nanos);

// ---- dkindex-core: index-level query evaluation (§6.1) -------------------

/// Queries completed by `IndexEvaluator::evaluate_bounded` (and `evaluate`,
/// which calls it); the `eval.*` family counts answers, so an aborted query
/// appears only in `eval.aborted_queries` (and the `eval.query_ns` timing).
pub static EVAL_QUERIES: Counter = Counter::new("eval.queries");
/// Index-graph activations charged across all queries.
pub static EVAL_INDEX_VISITS: Counter = Counter::new("eval.index_visits");
/// Data-graph activations charged during validation across all queries.
pub static EVAL_DATA_VISITS: Counter = Counter::new("eval.data_visits");
/// Validation pairs answered by the index instead of walking on (Theorem 1
/// applied mid-walk), verdicts reused within a query included.
pub static EVAL_HANDOFFS: Counter = Counter::new("eval.handoffs");
/// The part of `eval.index_visits` the hand-offs' index-side walks charged.
pub static EVAL_HANDOFF_INDEX_VISITS: Counter = Counter::new("eval.handoff_index_visits");
/// Matched index nodes answered soundly (whole extent free, no validation).
pub static EVAL_SOUND_EXTENTS: Counter = Counter::new("eval.sound_extents");
/// Queries that needed the validation process for at least one match.
pub static EVAL_VALIDATED_QUERIES: Counter = Counter::new("eval.validated_queries");
/// Bounded queries aborted because their visit budget ran out.
pub static EVAL_ABORTED_QUERIES: Counter = Counter::new("eval.aborted_queries");
/// Distribution of per-query total visit counts (index + data) — the
/// paper's cost-model Y axis as a histogram.
pub static EVAL_VISITS_PER_QUERY: Histogram =
    Histogram::new("eval.visits_per_query", Unit::Count);
/// Wall-clock per query (evaluation + validation).
pub static EVAL_QUERY_NS: Histogram = Histogram::new("eval.query_ns", Unit::Nanos);

// ---- dkindex-core: durability (snapshots, WAL, audit, recovery) ----------

/// Versioned snapshots written (`core::snapshot`).
pub static STORE_SNAPSHOT_WRITES: Counter = Counter::new("store.snapshot_writes");
/// Versioned snapshots loaded successfully.
pub static STORE_SNAPSHOT_LOADS: Counter = Counter::new("store.snapshot_loads");
/// Section CRC mismatches detected while loading snapshots.
pub static STORE_CRC_FAILURES: Counter = Counter::new("store.crc_failures");
/// WAL records appended (`core::wal`).
pub static WAL_RECORDS_APPENDED: Counter = Counter::new("wal.records_appended");
/// WAL records replayed onto an index.
pub static WAL_RECORDS_REPLAYED: Counter = Counter::new("wal.records_replayed");
/// WAL streams that ended in a torn (incomplete) trailing record — the
/// expected signature of a crash mid-append, recovered by dropping the tail.
pub static WAL_TORN_TAILS: Counter = Counter::new("wal.torn_tails");
/// Group commits: batches of WAL records fenced and fsynced as one unit
/// (one per maintenance batch when serving with `--wal`).
pub static WAL_GROUP_COMMITS: Counter = Counter::new("wal.group_commits");
/// WAL syncs that failed. After one, the writer is abandoned: a failed
/// fsync is never retried (the fsyncgate rule), updates get typed errors.
pub static WAL_SYNC_FAILURES: Counter = Counter::new("wal.sync_failures");
/// Invariant audit passes executed (`core::audit`).
pub static AUDIT_RUNS: Counter = Counter::new("audit.runs");
/// Individual invariant violations found across all audits.
pub static AUDIT_VIOLATIONS: Counter = Counter::new("audit.violations");
/// Recoveries that fell back to rebuilding the index from the data graph.
pub static AUDIT_REBUILDS: Counter = Counter::new("audit.rebuilds");
/// Wall-clock per full audit pass.
pub static AUDIT_NS: Histogram = Histogram::new("audit.audit_ns", Unit::Nanos);
/// Wall-clock per WAL replay.
pub static WAL_REPLAY_NS: Histogram = Histogram::new("wal.replay_ns", Unit::Nanos);
/// Wall-clock per WAL group commit (encode + write + fence + fsync).
pub static WAL_GROUP_COMMIT_NS: Histogram =
    Histogram::new("wal.group_commit_ns", Unit::Nanos);

// ---- dkindex-core: D(k) construction and maintenance (§4–§5) -------------

/// D(k) partition constructions (Algorithm 2 runs).
pub static DK_CONSTRUCTIONS: Counter = Counter::new("dk.constructions");
/// Selective refinement rounds driven by D(k) construction, summed.
pub static DK_CONSTRUCT_ROUNDS: Counter = Counter::new("dk.construct_rounds");
/// Distribution of final block counts per construction.
pub static DK_BLOCKS_PER_CONSTRUCTION: Histogram =
    Histogram::new("dk.blocks_per_construction", Unit::Count);
/// Wall-clock per construction.
pub static DK_CONSTRUCT_NS: Histogram = Histogram::new("dk.construct_ns", Unit::Nanos);
/// Promoting-process invocations (`DkIndex::promote`, §5.3).
pub static DK_PROMOTE_CALLS: Counter = Counter::new("dk.promote_calls");
/// Extent splits performed by promotions.
pub static DK_PROMOTE_SPLITS: Counter = Counter::new("dk.promote_splits");
/// Wall-clock per `promote_to_requirements` pass.
pub static DK_PROMOTE_NS: Histogram = Histogram::new("dk.promote_ns", Unit::Nanos);
/// Demoting-process invocations (`DkIndex::demote`, §5.4).
pub static DK_DEMOTIONS: Counter = Counter::new("dk.demotions");
/// Index nodes merged away by demotions.
pub static DK_DEMOTE_NODES_SAVED: Counter = Counter::new("dk.demote_nodes_saved");
/// Wall-clock per demotion.
pub static DK_DEMOTE_NS: Histogram = Histogram::new("dk.demote_ns", Unit::Nanos);
/// Edge-addition updates applied (Algorithms 4+5, §5.2).
pub static DK_EDGE_UPDATES: Counter = Counter::new("dk.edge_updates");
/// Index nodes whose similarity an edge update lowered.
pub static DK_EDGE_NODES_LOWERED: Counter = Counter::new("dk.edge_nodes_lowered");
/// Index nodes touched by edge updates (the Table 1 work measure).
pub static DK_EDGE_NODES_TOUCHED: Counter = Counter::new("dk.edge_nodes_touched");
/// Wall-clock per edge update.
pub static DK_EDGE_UPDATE_NS: Histogram = Histogram::new("dk.edge_update_ns", Unit::Nanos);

// ---- dkindex-core: the adaptive tuning loop (core::tuner, §5.3/§5.4/§7) ---

/// Queries recorded by `Tuner::record` — epoch readers on every
/// `Epoch::evaluate`/`evaluate_bounded` when live tuning is on, or an
/// offline caller. Lock-free.
pub static TUNER_QUERIES: Counter = Counter::new("tuner.queries");
/// Recorded queries whose answer needed the validation process.
pub static TUNER_VALIDATIONS: Counter = Counter::new("tuner.validations");
/// Windows large enough to mine (each ran one planning pass).
pub static TUNER_WINDOWS: Counter = Counter::new("tuner.windows");
/// Planning passes that planned a promotion (a `SetRequirements` op that
/// keeps the maximum requirement or raises it).
pub static TUNER_PROMOTIONS: Counter = Counter::new("tuner.promotions");
/// Planning passes that planned a demotion (a `SetRequirements` op that
/// lowers the maximum requirement).
pub static TUNER_DEMOTIONS: Counter = Counter::new("tuner.demotions");
/// Tuning `ServeOp`s `Tuner::step` returned for its caller to apply.
pub static TUNER_OPS: Counter = Counter::new("tuner.ops");
/// Wall-clock per `Tuner::step` (harvest + mine + plan; the returned op's
/// apply cost lands in `serve.publish_ns` / `dk.*` like any other op).
pub static TUNER_PLAN_NS: Histogram = Histogram::new("tuner.plan_ns", Unit::Nanos);

// ---- dkindex-core: concurrent serving (core::serve) ----------------------

/// Epochs published by the maintenance thread (one per applied batch).
pub static SERVE_EPOCH_PUBLISHES: Counter = Counter::new("serve.epoch_publishes");
/// Queries answered through `ServeHandle::evaluate` / `Epoch::evaluate`.
pub static SERVE_QUERIES: Counter = Counter::new("serve.queries");
/// Reads whose grabbed epoch was superseded before the answer returned —
/// still exact against that epoch, just no longer the newest.
pub static SERVE_STALE_EPOCH_READS: Counter = Counter::new("serve.stale_epoch_reads");
/// Per-epoch memo hits (query answered without touching the evaluator).
pub static SERVE_CACHE_HITS: Counter = Counter::new("serve.cache_hits");
/// Per-epoch memo misses (query evaluated and cached).
pub static SERVE_CACHE_MISSES: Counter = Counter::new("serve.cache_misses");
/// Index blocks whose extent row the published epoch still holds in a
/// segment pointer-shared with its predecessor's (summed over publishes;
/// the COW delta-epoch win).
pub static SERVE_PUBLISH_BLOCKS_SHARED: Counter = Counter::new("serve.publish.blocks_shared");
/// Index blocks whose extent row sits in a copied-on-write or fresh segment
/// of the published epoch (summed over publishes; the O(touched) publish
/// cost).
pub static SERVE_PUBLISH_BLOCKS_REBUILT: Counter = Counter::new("serve.publish.blocks_rebuilt");
/// Update acknowledgments released only after their batch's WAL group
/// commit returned (the durable-ack path).
pub static SERVE_DURABLE_ACKS: Counter = Counter::new("serve.durable_acks");
/// Maintenance batches dropped unapplied because their WAL group commit
/// failed (every submitter in the batch got a typed error).
pub static SERVE_WAL_DROPPED_BATCHES: Counter = Counter::new("serve.wal_dropped_batches");
/// Distribution of operations per applied maintenance batch.
pub static SERVE_BATCH_OPS: Histogram = Histogram::new("serve.batch_ops", Unit::Count);
/// Wall-clock per batch apply + epoch publish.
pub static SERVE_PUBLISH_NS: Histogram = Histogram::new("serve.publish_ns", Unit::Nanos);

// ---- dkindex-server: network serving (serve.net.*) -----------------------

/// TCP connections accepted and handed to a worker.
pub static SERVE_NET_CONNECTIONS: Counter = Counter::new("serve.net.connections");
/// Connections shed at the door: the bounded accept queue was full, so the
/// connection got a best-effort SHED(queue-full) frame and was closed
/// without ever reaching a worker.
pub static SERVE_NET_CONNECTIONS_SHED: Counter = Counter::new("serve.net.connections_shed");
/// Request frames decoded across all connections (any opcode).
pub static SERVE_NET_REQUESTS: Counter = Counter::new("serve.net.requests");
/// QUERY requests answered with an ANSWER frame.
pub static SERVE_NET_QUERIES: Counter = Counter::new("serve.net.queries");
/// UPDATE requests admitted past the staleness gate into the maintenance
/// queue (each got an UPDATE_OK frame).
pub static SERVE_NET_UPDATES_ADMITTED: Counter = Counter::new("serve.net.updates_admitted");
/// Requests refused with a typed SHED frame (maintenance-lag or draining;
/// queue-full sheds are counted per-connection above).
pub static SERVE_NET_RESPONSES_SHED: Counter = Counter::new("serve.net.responses_shed");
/// Requests refused with an ERROR frame (malformed, bad query, budget
/// exhausted, unsupported version, unavailable).
pub static SERVE_NET_RESPONSES_ERROR: Counter = Counter::new("serve.net.responses_error");
/// QUERY requests aborted by the per-request visit-budget admission bound
/// (a subset of `serve.net.responses_error`).
pub static SERVE_NET_BUDGET_ABORTS: Counter = Counter::new("serve.net.budget_aborts");
/// Payload bytes read off client sockets (frame headers included).
pub static SERVE_NET_BYTES_READ: Counter = Counter::new("serve.net.bytes_read");
/// Payload bytes written to client sockets (frame headers included).
pub static SERVE_NET_BYTES_WRITTEN: Counter = Counter::new("serve.net.bytes_written");
/// Wall-clock per request, decode through response write.
pub static SERVE_NET_REQUEST_NS: Histogram = Histogram::new("serve.net.request_ns", Unit::Nanos);
/// Wall-clock of each graceful drain (stop accepting → workers joined).
pub static SERVE_NET_DRAIN_NS: Histogram = Histogram::new("serve.net.drain_ns", Unit::Nanos);

// ---- dkindex-workload: update-stream generation (§6.2) -------------------

/// Update edges generated.
pub static UPDATES_EDGES_GENERATED: Counter = Counter::new("updates.edges_generated");
/// Candidate draws rejected (duplicate edge, self loop, empty label group).
pub static UPDATES_REJECTED_DRAWS: Counter = Counter::new("updates.rejected_draws");
/// Wall-clock per update-stream generation.
pub static UPDATES_GENERATE_NS: Histogram =
    Histogram::new("updates.generate_ns", Unit::Nanos);

// ---- build → query → adapt phase spans (CLI + bench harness) -------------

/// Wall-clock of whole build phases (XML → graph → index).
pub static PHASE_BUILD_NS: Histogram = Histogram::new("phase.build_ns", Unit::Nanos);
/// Wall-clock of whole query phases (workload evaluation).
pub static PHASE_QUERY_NS: Histogram = Histogram::new("phase.query_ns", Unit::Nanos);
/// Wall-clock of whole adapt phases (updates + promote/demote/tuning).
pub static PHASE_ADAPT_NS: Histogram = Histogram::new("phase.adapt_ns", Unit::Nanos);

/// Every registered counter, in reporting order.
pub fn counters() -> &'static [&'static Counter] {
    static ALL: [&Counter; 63] = [
        &PATHEXPR_EVALUATIONS,
        &PATHEXPR_ACTIVATIONS,
        &PATHEXPR_VALIDATION_WALKS,
        &PATHEXPR_VALIDATION_ACTIVATIONS,
        &PARTITION_ROUNDS,
        &PARTITION_ROUNDS_CHANGED,
        &PARTITION_NODES_REFINED,
        &PARTITION_SYMBOLS_INTERNED,
        &EVAL_QUERIES,
        &EVAL_INDEX_VISITS,
        &EVAL_DATA_VISITS,
        &EVAL_HANDOFFS,
        &EVAL_HANDOFF_INDEX_VISITS,
        &EVAL_SOUND_EXTENTS,
        &EVAL_VALIDATED_QUERIES,
        &EVAL_ABORTED_QUERIES,
        &STORE_SNAPSHOT_WRITES,
        &STORE_SNAPSHOT_LOADS,
        &STORE_CRC_FAILURES,
        &WAL_RECORDS_APPENDED,
        &WAL_RECORDS_REPLAYED,
        &WAL_TORN_TAILS,
        &WAL_GROUP_COMMITS,
        &WAL_SYNC_FAILURES,
        &AUDIT_RUNS,
        &AUDIT_VIOLATIONS,
        &AUDIT_REBUILDS,
        &DK_CONSTRUCTIONS,
        &DK_CONSTRUCT_ROUNDS,
        &DK_PROMOTE_CALLS,
        &DK_PROMOTE_SPLITS,
        &DK_DEMOTIONS,
        &DK_DEMOTE_NODES_SAVED,
        &DK_EDGE_UPDATES,
        &DK_EDGE_NODES_LOWERED,
        &DK_EDGE_NODES_TOUCHED,
        &TUNER_QUERIES,
        &TUNER_VALIDATIONS,
        &TUNER_WINDOWS,
        &TUNER_PROMOTIONS,
        &TUNER_DEMOTIONS,
        &TUNER_OPS,
        &SERVE_EPOCH_PUBLISHES,
        &SERVE_QUERIES,
        &SERVE_STALE_EPOCH_READS,
        &SERVE_CACHE_HITS,
        &SERVE_CACHE_MISSES,
        &SERVE_PUBLISH_BLOCKS_SHARED,
        &SERVE_PUBLISH_BLOCKS_REBUILT,
        &SERVE_DURABLE_ACKS,
        &SERVE_WAL_DROPPED_BATCHES,
        &SERVE_NET_CONNECTIONS,
        &SERVE_NET_CONNECTIONS_SHED,
        &SERVE_NET_REQUESTS,
        &SERVE_NET_QUERIES,
        &SERVE_NET_UPDATES_ADMITTED,
        &SERVE_NET_RESPONSES_SHED,
        &SERVE_NET_RESPONSES_ERROR,
        &SERVE_NET_BUDGET_ABORTS,
        &SERVE_NET_BYTES_READ,
        &SERVE_NET_BYTES_WRITTEN,
        &UPDATES_EDGES_GENERATED,
        &UPDATES_REJECTED_DRAWS,
    ];
    &ALL
}

/// Every registered histogram (value distributions and span timings), in
/// reporting order.
pub fn histograms() -> &'static [&'static Histogram] {
    static ALL: [&Histogram; 22] = [
        &PATHEXPR_VISITS_PER_EVAL,
        &PARTITION_BLOCKS_PER_ROUND,
        &PARTITION_ROUND_NS,
        &EVAL_VISITS_PER_QUERY,
        &EVAL_QUERY_NS,
        &AUDIT_NS,
        &WAL_REPLAY_NS,
        &WAL_GROUP_COMMIT_NS,
        &DK_BLOCKS_PER_CONSTRUCTION,
        &DK_CONSTRUCT_NS,
        &DK_PROMOTE_NS,
        &DK_DEMOTE_NS,
        &DK_EDGE_UPDATE_NS,
        &TUNER_PLAN_NS,
        &SERVE_BATCH_OPS,
        &SERVE_PUBLISH_NS,
        &SERVE_NET_REQUEST_NS,
        &SERVE_NET_DRAIN_NS,
        &UPDATES_GENERATE_NS,
        &PHASE_BUILD_NS,
        &PHASE_QUERY_NS,
        &PHASE_ADAPT_NS,
    ];
    &ALL
}
