//! Model checking for the `core::serve` epoch publication protocol.
//!
//! The runtime serve tests race real threads, which samples schedules; this
//! suite enumerates **every** interleaving of a paper-model of the protocol
//! with the `dkindex-loom` explorer (the offline loom stand-in — see
//! `crates/loom-shim` for why step-atomic exhaustive interleaving is sound
//! for a fully lock-protected protocol like this one).
//!
//! Modeled protocol, mirroring `core::serve`:
//!
//! * submitters push ops into a FIFO queue (the mpsc channel);
//! * one maintenance thread atomically drains the queue, applies the ops in
//!   submission order to its owned state, and publishes a new epoch (the
//!   `RwLock<Arc<Epoch>>` pointer swap) — apply+publish is one critical
//!   section, matching the single-writer discipline;
//! * readers atomically load the current epoch and evaluate against it,
//!   with a memo keyed by the epoch (the per-epoch query cache).
//!
//! Checked properties: epoch snapshots are prefix-folds of submission
//! order (determinism vs the serial oracle), published state never skips
//! or reorders ops, reader observations are always consistent with some
//! published epoch, and the per-epoch memo can never serve an answer from
//! a different epoch. A deliberately broken variant (a global memo that
//! survives publishes) must be *caught* — proving the checker has teeth.
//!
//! The second half models the **tuner-in-the-loop** protocol layered on
//! top (live tuning + durable acks): readers feed the tuner's lock-free
//! cells, the maintenance thread harvests them after each publish
//! and self-enqueues mined ops through the same channel, group commits can
//! fail and poison the server, and durable acks release only after
//! commit + publish. Checked: the poisoned flag is sticky and nothing
//! publishes after it, an `Ok(epoch)`-acked op is visible in that epoch
//! (no acked op lost), a failed ack's op is never applied, tuner feeds
//! are conserved across harvests, and tuner ops obey channel order. Two
//! broken variants — acks released before the commit decision, and a step
//! that clears the poisoned flag — must be caught.

use loom::{explore, thread, Step};

/// The submission order every model run uses. Epoch state is the applied
/// prefix of this sequence.
const OPS: [u32; 3] = [10, 20, 30];

/// Shared state of the protocol model. Everything a real run keeps behind
/// locks/channels is a plain field here; steps are the critical sections.
#[derive(Clone, Default)]
struct ServeModel {
    /// The op channel: submitted but not yet drained.
    queue: Vec<u32>,
    /// Maintenance-owned state: ops applied, in order.
    applied: Vec<u32>,
    /// Epoch history; `published[i]` is the state snapshot of epoch `i`.
    /// Index 0 is the initial (empty) epoch.
    published: Vec<Vec<u32>>,
    /// Reader observations: (epoch id, state seen).
    observed: Vec<(usize, Vec<u32>)>,
    /// Per-epoch memo: (epoch id it was computed on, cached answer).
    memo: Option<(usize, u32)>,
    /// Memoized answers readers actually returned: (epoch id, answer).
    answers: Vec<(usize, u32)>,
}

impl ServeModel {
    fn initial() -> ServeModel {
        ServeModel {
            published: vec![Vec::new()],
            ..ServeModel::default()
        }
    }

    /// The modeled query result on an epoch's state: something that changes
    /// whenever an op is applied, so staleness is observable.
    fn answer_on(state: &[u32]) -> u32 {
        state.iter().sum::<u32>() + state.len() as u32
    }
}

/// A submitter step: enqueue the next op (one mpsc send).
fn submit(op: u32) -> Step<ServeModel> {
    Box::new(move |s: &mut ServeModel| s.queue.push(op))
}

/// A maintenance step: drain the whole queue, apply in order, publish one
/// new epoch if anything was applied. Atomic, like the real single-writer
/// critical section.
fn maintain() -> Step<ServeModel> {
    Box::new(|s: &mut ServeModel| {
        if s.queue.is_empty() {
            return;
        }
        s.applied.append(&mut s.queue);
        s.published.push(s.applied.clone());
    })
}

/// A reader step: load the current epoch and record what it saw.
fn read() -> Step<ServeModel> {
    Box::new(|s: &mut ServeModel| {
        let id = s.published.len() - 1;
        let state = s.published[id].clone();
        s.observed.push((id, state));
    })
}

/// A reader step with the **correct** memo: keyed by epoch id, so a publish
/// invalidates it by key mismatch (the real code drops the memo with the
/// epoch `Arc` — same invariant).
fn read_memoized() -> Step<ServeModel> {
    Box::new(|s: &mut ServeModel| {
        let id = s.published.len() - 1;
        let answer = match s.memo {
            Some((memo_id, cached)) if memo_id == id => cached,
            _ => {
                let fresh = ServeModel::answer_on(&s.published[id]);
                s.memo = Some((id, fresh));
                fresh
            }
        };
        s.answers.push((id, answer));
    })
}

/// A reader step with a **broken** global memo that survives publishes —
/// the bug the per-epoch design exists to make impossible.
fn read_global_memo() -> Step<ServeModel> {
    Box::new(|s: &mut ServeModel| {
        let id = s.published.len() - 1;
        let answer = match s.memo {
            Some((_, cached)) => cached,
            None => {
                let fresh = ServeModel::answer_on(&s.published[id]);
                s.memo = Some((id, fresh));
                fresh
            }
        };
        s.answers.push((id, answer));
    })
}

/// Epochs are prefix-folds of submission order, ids are dense and
/// monotone, and the newest epoch always equals the applied state.
fn epoch_invariant(s: &ServeModel) -> Result<(), String> {
    for (id, state) in s.published.iter().enumerate() {
        if state.as_slice() != &OPS[..state.len()] {
            return Err(format!("epoch {id} is not a submission-order prefix: {state:?}"));
        }
        if id > 0 && state.len() <= s.published[id - 1].len() {
            return Err(format!("epoch {id} did not grow over epoch {}", id - 1));
        }
    }
    match s.published.last() {
        Some(newest) if newest == &s.applied => Ok(()),
        _ => Err("newest epoch diverged from the maintenance-owned state".to_string()),
    }
}

/// Every reader observation matches the epoch it claims to have read.
fn observation_invariant(s: &ServeModel) -> Result<(), String> {
    for (id, state) in &s.observed {
        match s.published.get(*id) {
            Some(published) if published == state => {}
            _ => return Err(format!("observation of epoch {id} saw {state:?}")),
        }
    }
    Ok(())
}

/// Every answer a reader returned is exact for the epoch it was read on.
fn memo_invariant(s: &ServeModel) -> Result<(), String> {
    for (id, answer) in &s.answers {
        let expected = ServeModel::answer_on(&s.published[*id]);
        if *answer != expected {
            return Err(format!(
                "epoch {id} answered {answer}, expected {expected}: stale memo served"
            ));
        }
    }
    Ok(())
}

/// Epoch publication: under every interleaving of 3 submits, 2 maintenance
/// drains, and 2 reads, epochs are submission-order prefixes and readers
/// only ever observe published, consistent snapshots.
#[test]
fn epoch_publication_is_consistent_under_all_interleavings() {
    let explored = explore(
        &ServeModel::initial(),
        vec![
            thread("submitter", OPS.iter().map(|&op| submit(op)).collect()),
            thread("maintenance", vec![maintain(), maintain()]),
            thread("reader", vec![read(), read()]),
        ],
        |s| {
            epoch_invariant(s)?;
            observation_invariant(s)
        },
        |_| Ok(()),
    )
    .unwrap_or_else(|v| panic!("{v}"));
    assert!(explored.interleavings > 100, "model too small to mean anything");
}

/// Determinism vs the serial oracle: whatever the schedule, the applied
/// prefix plus the still-queued suffix is exactly the submission order —
/// draining the rest serially lands on the serial fold's result.
#[test]
fn any_schedule_converges_to_the_serial_fold() {
    explore(
        &ServeModel::initial(),
        vec![
            thread("submitter", OPS.iter().map(|&op| submit(op)).collect()),
            thread("maintenance", vec![maintain(), maintain(), maintain()]),
        ],
        epoch_invariant,
        |s| {
            let mut serial = s.applied.clone();
            serial.extend(&s.queue);
            if serial == OPS {
                Ok(())
            } else {
                Err(format!("applied {:?} + queued {:?} lost or reordered ops", s.applied, s.queue))
            }
        },
    )
    .unwrap_or_else(|v| panic!("{v}"));
}

/// The per-epoch memo never serves an answer computed on a different
/// epoch, under every interleaving of updates and memoized reads.
#[test]
fn per_epoch_memo_never_serves_stale_answers() {
    explore(
        &ServeModel::initial(),
        vec![
            thread("submitter", OPS.iter().map(|&op| submit(op)).collect()),
            thread("maintenance", vec![maintain(), maintain()]),
            thread("reader", vec![read_memoized(), read_memoized(), read_memoized()]),
        ],
        |s| {
            epoch_invariant(s)?;
            memo_invariant(s)
        },
        |_| Ok(()),
    )
    .unwrap_or_else(|v| panic!("{v}"));
}

/// Teeth check: a global memo that survives publishes MUST be caught — the
/// explorer has to find the schedule where a reader memoizes on the old
/// epoch and replays it after an update published a new one.
#[test]
fn global_memo_bug_is_caught_by_the_explorer() {
    let violation = explore(
        &ServeModel::initial(),
        vec![
            thread("submitter", vec![submit(OPS[0])]),
            thread("maintenance", vec![maintain()]),
            thread("reader", vec![read_global_memo(), read_global_memo()]),
        ],
        |s| {
            epoch_invariant(s)?;
            memo_invariant(s)
        },
        |_| Ok(()),
    )
    .expect_err("the stale global memo must be detected");
    assert!(
        violation.message.contains("stale memo served"),
        "wrong violation: {violation}"
    );
}

// ---------------------------------------------------------------------------
// Tuner-in-the-loop: WAL poisoning, durable acks, tuner feeds, self-enqueue
// ---------------------------------------------------------------------------

/// Harvests at or above this many recorded queries mine one tuner op
/// (the model's `TunerConfig::window`).
const TUNE_WINDOW: u64 = 2;
/// Tuner self-enqueued ops get ids at/above this; client ops stay below.
const TUNER_BASE: u32 = 100;

/// Shared state of the tuned protocol model. As above, everything the real
/// run keeps behind locks/channels/atomics is a plain field; steps are the
/// critical sections of `core::serve`'s maintenance loop, submitters, and
/// epoch readers.
#[derive(Clone, Default)]
struct TunedModel {
    /// The op channel: client submits and tuner self-enqueues, FIFO.
    queue: Vec<u32>,
    /// Every op ever enqueued, in channel order — the serial oracle's input.
    enqueued: Vec<u32>,
    /// Maintenance-owned state: ops applied, in order.
    applied: Vec<u32>,
    /// Epoch history; index 0 is the initial (empty) epoch.
    published: Vec<Vec<u32>>,
    /// Released acks: (client op, Ok(epoch id) | Err(reason)).
    acks: Vec<(u32, Result<usize, &'static str>)>,
    /// The `poisoned: AtomicBool` submitters fast-fail on.
    poisoned: bool,
    /// Latches the first poisoning; stickiness is `ever_poisoned → poisoned`.
    ever_poisoned: bool,
    /// `published.len()` at the moment of poisoning: it must never grow past
    /// this (a poisoned server drops every batch unapplied).
    epochs_at_poison: usize,
    /// Armed fail point: the next group commit of a non-empty batch fails.
    wal_fail_next: bool,
    /// The tuner's reader-side cells: queries recorded but not yet harvested.
    cells_pending: u64,
    /// Total queries the tuner has harvested out of its cells.
    cells_harvested: u64,
    /// Total reader feed steps executed — the conservation oracle.
    fed: u64,
    next_tuner_op: u32,
}

impl TunedModel {
    fn initial() -> TunedModel {
        TunedModel {
            published: vec![Vec::new()],
            ..TunedModel::default()
        }
    }
}

/// A submitter step: `submit_logged` — fast-fail with the typed error on a
/// poisoned server, otherwise enqueue and wait on the returned ack.
fn submit_logged(op: u32) -> Step<TunedModel> {
    Box::new(move |s: &mut TunedModel| {
        if s.poisoned {
            s.acks.push((op, Err("fast-fail")));
        } else {
            s.queue.push(op);
            s.enqueued.push(op);
        }
    })
}

/// A reader step: load the current epoch, answer a query against it, and
/// record the query into the tuner's lock-free cells.
fn read_and_feed() -> Step<TunedModel> {
    Box::new(|s: &mut TunedModel| {
        let _snapshot = s.published.last().expect("initial epoch always exists");
        s.cells_pending += 1;
        s.fed += 1;
    })
}

/// A fault-injector step: arm the WAL fail point, as the crash-torture
/// harness does — the next group commit of a non-empty batch fails its
/// fsync.
fn inject_wal_failure() -> Step<TunedModel> {
    Box::new(|s: &mut TunedModel| s.wal_fail_next = true)
}

/// A maintenance step mirroring the real loop: drain the channel, group-
/// commit (fail → poison + drop the batch unapplied + nack every waiter),
/// apply + publish, release durable acks only after both, then run the
/// tuner pass — harvest the cells and self-enqueue one mined op when the
/// window fills.
fn maintain_tuned() -> Step<TunedModel> {
    Box::new(|s: &mut TunedModel| {
        if s.queue.is_empty() {
            return;
        }
        let batch: Vec<u32> = std::mem::take(&mut s.queue);
        if s.poisoned || s.wal_fail_next {
            if !s.poisoned {
                s.poisoned = true;
                s.ever_poisoned = true;
                s.epochs_at_poison = s.published.len();
            }
            s.wal_fail_next = false;
            for op in batch {
                if op < TUNER_BASE {
                    s.acks.push((op, Err("wal")));
                }
            }
            return;
        }
        s.applied.extend(batch.iter().copied());
        s.published.push(s.applied.clone());
        let epoch = s.published.len() - 1;
        for op in batch {
            if op < TUNER_BASE {
                s.acks.push((op, Ok(epoch)));
            }
        }
        let harvest = std::mem::take(&mut s.cells_pending);
        s.cells_harvested += harvest;
        if harvest >= TUNE_WINDOW {
            let op = TUNER_BASE + s.next_tuner_op;
            s.next_tuner_op += 1;
            s.queue.push(op);
            s.enqueued.push(op);
        }
    })
}

/// A **broken** maintenance step that releases acks before the commit
/// decision — the fsyncgate bug durable acks exist to rule out.
fn maintain_ack_before_commit() -> Step<TunedModel> {
    Box::new(|s: &mut TunedModel| {
        if s.queue.is_empty() {
            return;
        }
        let batch: Vec<u32> = std::mem::take(&mut s.queue);
        let optimistic_epoch = s.published.len();
        for op in &batch {
            if *op < TUNER_BASE {
                s.acks.push((*op, Ok(optimistic_epoch)));
            }
        }
        if s.wal_fail_next {
            s.wal_fail_next = false;
            s.poisoned = true;
            s.ever_poisoned = true;
            s.epochs_at_poison = s.published.len();
            return;
        }
        s.applied.extend(batch.iter().copied());
        s.published.push(s.applied.clone());
    })
}

/// A **broken** recovery step that clears the poisoned flag in place — the
/// real server only recovers through restart + WAL replay.
fn unpoison() -> Step<TunedModel> {
    Box::new(|s: &mut TunedModel| s.poisoned = false)
}

/// Epochs form a strictly growing prefix chain that preserves channel
/// order, and the newest epoch equals the maintenance-owned state.
fn tuned_epoch_invariant(s: &TunedModel) -> Result<(), String> {
    for id in 1..s.published.len() {
        let (prev, cur) = (&s.published[id - 1], &s.published[id]);
        if cur.len() <= prev.len() || &cur[..prev.len()] != prev.as_slice() {
            return Err(format!("epoch {id} does not extend epoch {}", id - 1));
        }
    }
    if s.published.last().map(Vec::as_slice) != Some(s.applied.as_slice()) {
        return Err("newest epoch diverged from the maintenance-owned state".to_string());
    }
    // Applied ops appear in channel order (tuner ops included): their
    // positions in the enqueue log are strictly increasing.
    let mut cursor = 0usize;
    for op in &s.applied {
        match s.enqueued[cursor..].iter().position(|e| e == op) {
            Some(at) => cursor += at + 1,
            None => return Err(format!("op {op} applied out of channel order")),
        }
    }
    Ok(())
}

/// Durable-ack soundness: an `Ok(epoch)` means the op is visible in exactly
/// that epoch (no acked op lost), a failed ack's op is never applied, and
/// no op is acked twice.
fn tuned_ack_invariant(s: &TunedModel) -> Result<(), String> {
    for (op, result) in &s.acks {
        match result {
            Ok(epoch) => match s.published.get(*epoch) {
                Some(state) if state.contains(op) => {}
                _ => return Err(format!("acked op {op} lost: not in epoch {epoch}")),
            },
            Err(reason) => {
                if s.applied.contains(op) {
                    return Err(format!("op {op} failed with `{reason}` but was applied"));
                }
            }
        }
    }
    for (i, (op, _)) in s.acks.iter().enumerate() {
        if s.acks[i + 1..].iter().any(|(other, _)| other == op) {
            return Err(format!("op {op} acked twice"));
        }
    }
    Ok(())
}

/// Poisoning is sticky and final: once set it never clears, and no epoch
/// publishes after it.
fn tuned_poison_invariant(s: &TunedModel) -> Result<(), String> {
    if s.ever_poisoned && !s.poisoned {
        return Err("poisoned flag cleared: poisoning must be sticky".to_string());
    }
    if s.poisoned && s.published.len() != s.epochs_at_poison {
        return Err("epoch published after poisoning".to_string());
    }
    Ok(())
}

/// Feed conservation: every reader feed is either still pending or was
/// harvested exactly once — racy feeds are never lost or double-counted.
fn tuned_feed_invariant(s: &TunedModel) -> Result<(), String> {
    if s.cells_pending + s.cells_harvested == s.fed {
        Ok(())
    } else {
        Err(format!(
            "tuner feeds not conserved: {} pending + {} harvested != {} fed",
            s.cells_pending, s.cells_harvested, s.fed
        ))
    }
}

fn tuned_invariants(s: &TunedModel) -> Result<(), String> {
    tuned_epoch_invariant(s)?;
    tuned_ack_invariant(s)?;
    tuned_poison_invariant(s)?;
    tuned_feed_invariant(s)
}

/// The full tuner-in-the-loop protocol under fault injection: every
/// interleaving of 3 client submits, 2 reader feed steps, an armed WAL
/// fail point, and 3 maintenance drains keeps the durable-ack, sticky-
/// poison, epoch-chain, and feed-conservation contracts.
#[test]
fn tuned_serve_survives_wal_poisoning_under_all_interleavings() {
    let explored = explore(
        &TunedModel::initial(),
        vec![
            thread("submitter", vec![submit_logged(1), submit_logged(2), submit_logged(3)]),
            thread("reader", vec![read_and_feed(), read_and_feed()]),
            thread("fault", vec![inject_wal_failure()]),
            thread("maintenance", vec![maintain_tuned(), maintain_tuned(), maintain_tuned()]),
        ],
        tuned_invariants,
        |_| Ok(()),
    )
    .unwrap_or_else(|v| panic!("{v}"));
    assert!(explored.interleavings > 1000, "model too small to mean anything");
}

/// With a healthy WAL, tuner self-enqueues interleave with client ops at
/// channel order and nothing is lost: whatever the schedule, the applied
/// prefix plus the still-queued suffix is exactly the enqueue log, and the
/// explorer visits schedules where the tuner actually mined an op.
#[test]
fn tuner_self_enqueue_converges_to_channel_order() {
    let tuner_op_seen = std::cell::Cell::new(false);
    explore(
        &TunedModel::initial(),
        vec![
            thread("submitter", vec![submit_logged(1), submit_logged(2)]),
            thread("reader", vec![read_and_feed(), read_and_feed()]),
            thread(
                "maintenance",
                vec![maintain_tuned(), maintain_tuned(), maintain_tuned(), maintain_tuned()],
            ),
        ],
        tuned_invariants,
        |s| {
            if s.enqueued.iter().any(|&op| op >= TUNER_BASE) {
                tuner_op_seen.set(true);
            }
            let mut serial = s.applied.clone();
            serial.extend(&s.queue);
            if serial == s.enqueued {
                Ok(())
            } else {
                Err(format!(
                    "applied {:?} + queued {:?} diverged from enqueue log {:?}",
                    s.applied, s.queue, s.enqueued
                ))
            }
        },
    )
    .unwrap_or_else(|v| panic!("{v}"));
    assert!(tuner_op_seen.get(), "no schedule ever mined a tuner op: window never filled");
}

/// Teeth check: a maintenance loop that releases acks before the group-
/// commit decision MUST be caught — the explorer has to find the schedule
/// where the fail point is armed and an acked op is dropped.
#[test]
fn ack_before_commit_bug_is_caught_by_the_explorer() {
    let violation = explore(
        &TunedModel::initial(),
        vec![
            thread("submitter", vec![submit_logged(1)]),
            thread("fault", vec![inject_wal_failure()]),
            thread("maintenance", vec![maintain_ack_before_commit()]),
        ],
        tuned_invariants,
        |_| Ok(()),
    )
    .expect_err("releasing acks before the commit decision must be detected");
    assert!(violation.message.contains("lost"), "wrong violation: {violation}");
}

/// Teeth check: clearing the poisoned flag in place MUST be caught — the
/// sticky-poison invariant exists precisely because an in-place recovery
/// would let submits race a WAL in an unknowable state.
#[test]
fn unsticky_poison_bug_is_caught_by_the_explorer() {
    let violation = explore(
        &TunedModel::initial(),
        vec![
            thread("submitter", vec![submit_logged(1)]),
            thread("fault", vec![inject_wal_failure()]),
            thread("maintenance", vec![maintain_tuned(), unpoison()]),
        ],
        tuned_invariants,
        |_| Ok(()),
    )
    .expect_err("clearing the poisoned flag must be detected");
    assert!(violation.message.contains("sticky"), "wrong violation: {violation}");
}
