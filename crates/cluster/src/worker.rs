//! Persistent per-shard worker pipelines with batch-drained, group-committed
//! ingest and a pipelined quorum-replication stage.
//!
//! Every shard's [`Shard`] state is owned by exactly one long-lived OS thread
//! which drains a **bounded** command queue (see the `queue` module) — the
//! successor of the old one-command-per-wakeup, unbounded-channel design.
//! Because the worker is the *only* code that ever touches the shard, no lock
//! protects the arbiter: the queue itself is the serialization point, and any
//! number of gateways can send into it concurrently.
//!
//! The drain loop is batch-oriented end to end:
//!
//! 1. One blocking receive wakes the worker; it then greedily drains up to
//!    [`ClusterConfig::ingest_batch`](crate::ClusterConfig::ingest_batch)
//!    further commands without blocking, so one wakeup amortizes over a whole
//!    burst.
//! 2. The batch is arbitrated against the shard inside a
//!    [`Shard::begin_batch`]/[`Shard::commit_batch`] bracket: every request
//!    applies to the live arbiter immediately (so intra-batch ordering is
//!    exactly sequential ordering), but the durable log is appended **once**
//!    per batch ([`EventLog::append_batch`](crate::EventLog::append_batch))
//!    and the snapshot cadence is checked once per batch — the group commit.
//! 3. Replies are released only *after* the group commit (a decision is never
//!    visible before its event is durable), coalesced per submitting gateway:
//!    one channel send per gateway per batch — floor and session decisions
//!    together — instead of one per decision.
//!
//! With a nonzero [`ClusterConfig::replicas`](crate::ClusterConfig::replicas),
//! step 3 additionally waits for a **write quorum**: after the local
//! group commit the batch's log suffix is shipped to the shard's follower
//! fleet (see the `replication` module) and its replies park in an in-flight
//! window while the worker goes straight back to draining and arbitrating the
//! *next* batch — one quorum round-trip per batch, pipelined. A parked
//! batch's replies release as soon as enough follower acks cover its end
//! position, so decisions still never outrun durability (now quorum
//! durability); the pipeline depth is bounded (`REPLICA_PIPELINE` batches
//! in flight), and an idle worker settles every in-flight batch
//! (retransmitting into lossy links as needed) before it blocks, so no
//! decision is ever held hostage by an ack that got lost.
//!
//! Two command shapes (plus a fault-injection twin of the second) cover
//! everything:
//!
//! * `ShardCommand::Ingest` — the streaming ingest path for every op, floor
//!   request or session operation alike; the shard-local op picks the
//!   shard's entry point ([`Shard::arbitrate_dedup`] /
//!   [`Shard::arbitrate_session_dedup`], each through its dedup window).
//! * `ShardCommand::With` — the control plane. A closure runs with exclusive
//!   access to the shard (create a group, crash, recover, inspect, and the
//!   live-handoff phases). A `With` command is a **barrier** inside a batch:
//!   the worker group-commits and releases every decision produced so far
//!   before the closure runs, so control code always observes a fully
//!   committed shard — `handoff_prepare`'s pinned log position, snapshots and
//!   crashes can never observe half a batch. Control commands are also exempt
//!   from the queue's ingest bound, so a saturated queue cannot starve (or
//!   deadlock) crash-recovery and handoffs.
//!
//! Reply routing is allocation-free on the submit side: instead of cloning a
//! `Sender` into every command, each gateway registers its one reply channel
//! once in the shared `ReplyRegistry` and commands carry a small
//! generation-checked `ReplyHandle`. A gateway that dropped simply misses
//! its decisions; a reused slot cannot leak decisions across gateways because
//! the generation check fails.
//!
//! A worker survives its shard crashing — the thread keeps draining the
//! queue and answers requests with [`crate::ClusterError::ShardDown`] until
//! a recover command arrives — and exits only when the last command sender
//! is dropped, at which point `ShardWorker`'s `Drop` impl joins the thread.
//!
//! The pipeline itself is crate-private; it is exercised through the public
//! ingest API:
//!
//! ```
//! use dmps_cluster::{Cluster, ClusterConfig, GlobalRequest};
//! use dmps_floor::{FcmMode, Member, Role};
//!
//! let cluster = Cluster::new(ClusterConfig::with_shards(2));
//! let g = cluster.create_group("lecture", FcmMode::EqualControl).unwrap();
//! let m = cluster.register_member(Member::new("t", Role::Chair));
//! cluster.join_group(g, m).unwrap();
//! // `submit` enqueues onto the owning shard's bounded queue; the worker
//! // batch-drains, group-commits, and streams the decision back.
//! let gateway = cluster.gateway();
//! gateway.submit(GlobalRequest::speak(g, m)).unwrap();
//! assert!(gateway.recv_decision().unwrap().outcome.unwrap().is_granted());
//! ```

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use dmps_telemetry::{saturating_nanos, Stage, TraceSpan};

use crate::cluster::{ClusterConfig, Decision};
use crate::instrument::{ClusterTelemetry, ReplicaMetrics, WorkerTelemetry};
use crate::op::{LocalOp, Reply};
use crate::poison::{read, write};
use crate::queue::{bounded, OverloadPolicy, PushError, QueueReceiver, QueueSender, QueueStats};
use crate::replication::{FollowerCore, ReplicaSet};
use crate::shard::Shard;

/// A small, copyable ticket identifying a registered gateway's reply
/// channel. Generation-checked so a recycled slot cannot deliver a dead
/// gateway's decisions to its successor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ReplyHandle {
    index: u32,
    gen: u32,
}

impl ReplyHandle {
    /// The registry slot index — doubles as the gateway's stable telemetry
    /// index (`gateway.N.*` metric names and span tags).
    pub(crate) fn index(&self) -> u32 {
        self.index
    }
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    channel: Option<Sender<Vec<Reply>>>,
}

/// The shared table of gateway reply channels: registered once per gateway,
/// looked up by workers on every reply flush. Replaces the per-request
/// `Sender::clone` that used to ride inside every command.
#[derive(Debug, Default)]
pub(crate) struct ReplyRegistry {
    slots: RwLock<Vec<Slot>>,
}

impl ReplyRegistry {
    /// Registers a gateway's reply channel, recycling a free slot if one
    /// exists.
    pub(crate) fn register(&self, channel: Sender<Vec<Reply>>) -> ReplyHandle {
        let mut slots = write(&self.slots);
        if let Some(index) = slots.iter().position(|s| s.channel.is_none()) {
            let slot = &mut slots[index];
            slot.gen = slot.gen.wrapping_add(1);
            slot.channel = Some(channel);
            return ReplyHandle {
                index: index as u32,
                gen: slot.gen,
            };
        }
        slots.push(Slot {
            gen: 0,
            channel: Some(channel),
        });
        ReplyHandle {
            index: (slots.len() - 1) as u32,
            gen: 0,
        }
    }

    /// Frees a gateway's slot. In-flight decisions addressed to the old
    /// handle are dropped by the generation check.
    pub(crate) fn unregister(&self, handle: ReplyHandle) {
        let mut slots = write(&self.slots);
        if let Some(slot) = slots.get_mut(handle.index as usize) {
            if slot.gen == handle.gen {
                slot.channel = None;
            }
        }
    }

    /// Delivers a coalesced batch of replies to a gateway. A stale or freed
    /// handle (the gateway is gone) drops the batch, matching the old
    /// dropped-receiver semantics.
    pub(crate) fn send(&self, handle: ReplyHandle, batch: Vec<Reply>) {
        let slots = read(&self.slots);
        if let Some(slot) = slots.get(handle.index as usize) {
            if slot.gen == handle.gen {
                if let Some(channel) = &slot.channel {
                    let _ = channel.send(batch);
                }
            }
        }
    }
}

/// Where a reply streams back to: the registered channel of a submitting
/// gateway (the hot path — a copyable handle, no allocation), or a one-shot
/// channel for the synchronous `request`/`session` round-trips.
#[derive(Debug, Clone)]
pub(crate) enum ReplyTo {
    /// The submitting gateway's registered stream.
    Gateway(ReplyHandle),
    /// A caller-owned one-shot channel (synchronous paths).
    Direct(Sender<Reply>),
}

/// One unit of work for a shard worker.
pub(crate) enum ShardCommand {
    /// Arbitrate one op — a floor request or a session operation; the
    /// decision goes to `reply` after the batch holding it group-commits.
    Ingest {
        /// Cluster-unique request id (dedup key and decision ordering key).
        seq: u64,
        /// The op, already translated to shard-local ids.
        op: LocalOp,
        /// Where the decision streams back to.
        reply: ReplyTo,
        /// The pipeline trace span, present on the 1-in-N sampled ops.
        /// Boxed so the unsampled hot path carries one machine word.
        span: Option<Box<TraceSpan>>,
    },
    /// Run a closure with exclusive access to the shard and its replica set
    /// (a batch barrier; every in-flight batch is quorum-settled first).
    With(BarrierFn),
    /// Run a fault-injection closure with exclusive access to the shard and
    /// its replica set **without** the settle barrier: the pipeline is left
    /// exactly as it is, batches still parked mid-quorum-write. This is the
    /// point of the fault plane — a partition injected through `With` would
    /// first settle every in-flight batch and never catch a write in
    /// flight.
    Fault(BarrierFn),
}

/// A boxed control-plane barrier closure (see [`ShardCommand::With`]).
pub(crate) type BarrierFn = Box<dyn FnOnce(&mut Shard, &mut ReplicaSet) + Send>;

/// Maximum group-committed batches a worker keeps in flight awaiting quorum
/// acks before it stalls on the oldest — the quorum pipeline's depth: higher
/// tolerates more ack latency before ingest stalls, at the cost of
/// decision-release latency under loss.
const REPLICA_PIPELINE: usize = 4;

/// Handle to one shard's persistent worker thread and its bounded queue,
/// plus the read-path ends of the shard's replica fleet.
#[derive(Debug)]
pub(crate) struct ShardWorker {
    sender: Option<QueueSender<ShardCommand>>,
    thread: Option<JoinHandle<()>>,
    /// The shard's follower cores, shared with the routing layer so
    /// `session_view`-style reads can be served without entering the queue.
    followers: Vec<Arc<Mutex<FollowerCore>>>,
    /// The replication instruments (the read path increments the
    /// follower/forwarded split without touching the registry).
    replica_metrics: ReplicaMetrics,
}

impl ShardWorker {
    /// Spawns the worker thread that owns `shard`: its queue bound, drain
    /// batch and follower fleet come from `config`, its instruments from
    /// `telemetry`; at most `REPLICA_PIPELINE` batches await quorum.
    pub(crate) fn spawn(
        shard: Shard,
        config: &ClusterConfig,
        telemetry: &ClusterTelemetry,
        registry: Arc<ReplyRegistry>,
    ) -> Self {
        let index = shard.id().index();
        let (sender, receiver) = bounded(config.queue_capacity);
        let batch = config.ingest_batch.max(1);
        let worker_telemetry = telemetry.worker(index);
        let replica_metrics = telemetry.replica(index);
        let replica_set = ReplicaSet::new(
            shard.id(),
            config.replicas,
            config.replica_link,
            replica_metrics.clone(),
        );
        let followers = replica_set.followers().to_vec();
        let thread = std::thread::Builder::new()
            .name(format!("dmps-shard-{index}"))
            .spawn(move || {
                run(
                    shard,
                    replica_set,
                    receiver,
                    registry,
                    batch,
                    worker_telemetry,
                )
            })
            .expect("spawn shard worker thread");
        ShardWorker {
            sender: Some(sender),
            thread: Some(thread),
            followers,
            replica_metrics,
        }
    }

    /// The shard's follower cores (empty when unreplicated).
    pub(crate) fn followers(&self) -> &[Arc<Mutex<FollowerCore>>] {
        &self.followers
    }

    /// The shard's replication instruments.
    pub(crate) fn replica_metrics(&self) -> &ReplicaMetrics {
        &self.replica_metrics
    }

    fn sender(&self) -> &QueueSender<ShardCommand> {
        self.sender.as_ref().expect("sender taken only in drop")
    }

    /// Enqueues one ingest command under the overload policy. `Err` hands
    /// the command back when the queue is full and the policy is
    /// [`OverloadPolicy::Shed`]; the caller answers it with `Overloaded`.
    ///
    /// # Panics
    ///
    /// Panics when the worker thread is gone, which only happens if shard
    /// code panicked — a bug, not a recoverable condition.
    pub(crate) fn push_ingest(
        &self,
        command: ShardCommand,
        policy: OverloadPolicy,
    ) -> Result<(), ShardCommand> {
        match self.sender().push(command, policy) {
            Ok(()) => Ok(()),
            Err(PushError::Full(command)) => Err(command),
            Err(PushError::Disconnected(_)) => {
                panic!("shard worker thread died (shard code panicked)")
            }
        }
    }

    /// Enqueues a run of ingest commands with one queue reservation,
    /// returning the commands shed by a full queue (always empty under
    /// [`OverloadPolicy::Block`]).
    ///
    /// # Panics
    ///
    /// Panics when the worker thread is gone (shard code panicked).
    pub(crate) fn push_ingest_many(
        &self,
        commands: Vec<ShardCommand>,
        policy: OverloadPolicy,
    ) -> Vec<ShardCommand> {
        self.sender()
            .push_many(commands, policy)
            .into_iter()
            .map(|rejected| match rejected {
                PushError::Full(command) => command,
                PushError::Disconnected(_) => {
                    panic!("shard worker thread died (shard code panicked)")
                }
            })
            .collect()
    }

    /// Enqueues a control-plane command, exempt from the ingest bound.
    ///
    /// # Panics
    ///
    /// Panics when the worker thread is gone (shard code panicked).
    pub(crate) fn send_control(&self, command: ShardCommand) {
        if self.sender().push_control(command).is_err() {
            panic!("shard worker thread died (shard code panicked)");
        }
    }

    /// Occupancy statistics of this shard's ingest queue.
    pub(crate) fn stats(&self) -> QueueStats {
        self.sender().stats()
    }

    /// Restarts the queue's peak-occupancy window (see
    /// [`QueueStats::peak_queued`]).
    pub(crate) fn reset_peak(&self) {
        self.sender().reset_peak();
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        // Closing the queue lets the worker drain what is left and exit;
        // joining makes cluster teardown deterministic.
        drop(self.sender.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Releases every buffered reply, coalescing gateway-bound ones into one
/// channel send per gateway (forwarding one-shot `Direct` replies as it
/// goes). Called only after the batch that produced the replies has
/// group-committed — this is where the decisions-never-outrun-durability
/// barrier is enforced.
fn flush_replies(registry: &ReplyRegistry, replies: &mut Vec<(ReplyTo, Reply)>) {
    // A drained batch touches a handful of gateways at most, so a linear
    // scan beats a map.
    let mut by_gateway: Vec<(ReplyHandle, Vec<Reply>)> = Vec::new();
    for (to, reply) in replies.drain(..) {
        match to {
            ReplyTo::Gateway(handle) => match by_gateway.iter_mut().find(|(h, _)| *h == handle) {
                Some((_, batch)) => batch.push(reply),
                None => by_gateway.push((handle, vec![reply])),
            },
            // A gateway that dropped its one-shot receiver simply misses
            // the decision; the shard state is already consistent.
            ReplyTo::Direct(tx) => {
                let _ = tx.send(reply);
            }
        }
    }
    for (handle, batch) in by_gateway {
        registry.send(handle, batch);
    }
}

/// One batch's replies and sampled spans: the worker's open batch while it
/// drains, then — group-committed — parked in the in-flight window until
/// enough follower acks cover `end_seq`.
#[derive(Default)]
struct PendingBatch {
    /// The shard log's `next_seq` right after this batch's group commit.
    end_seq: u64,
    replies: Vec<(ReplyTo, Reply)>,
    /// Each tagged session-or-floor: which latency histogram it feeds.
    spans: Vec<(Box<TraceSpan>, bool)>,
}

/// Releases one (quorum-)committed batch: stamps every successful decision
/// with the log position it rode to (the client's read-your-writes bound)
/// and the leader epoch that committed it — a failed one committed nothing
/// and carries neither — flushes the replies and completes the spans.
fn release(
    registry: &ReplyRegistry,
    telemetry: &WorkerTelemetry,
    batch: &mut PendingBatch,
    epoch: u64,
) {
    for (_, reply) in batch.replies.iter_mut() {
        reply.stamp(batch.end_seq, epoch);
    }
    flush_replies(registry, &mut batch.replies);
    for (span, is_session) in batch.spans.drain(..) {
        telemetry.finish_span(*span, is_session);
    }
}

/// The self-demotion half of epoch fencing: the quorum is unreachable —
/// this leader is fenced by a newer epoch, or partitioned away from its
/// whole fleet — so no parked reply may ever release. Every parked decision
/// is answered [`ClusterError::ShardDown`] (its submitter retries after
/// failover; the dedup journal, reconciled against whatever state the
/// failover adopts, keeps the retry exactly-once — that is what the orphan
/// notes are for) and the shard demotes itself: serving resumes only
/// through a promotion, which bumps the epoch.
fn fail_pipeline(
    shard: &mut Shard,
    inflight: &mut VecDeque<PendingBatch>,
    registry: &ReplyRegistry,
    telemetry: &WorkerTelemetry,
) {
    while let Some(mut batch) = inflight.pop_front() {
        for (_, reply) in batch.replies.iter_mut() {
            if reply.fail(shard.id()) {
                shard.note_orphan(reply.seq(), batch.end_seq, reply.is_session());
            }
        }
        // Nothing is left to stamp: every reply is a failure now.
        release(registry, telemetry, &mut batch, 0);
    }
    shard.crash();
}

/// Settles the whole pipeline: drives the quorum (retransmitting into lossy
/// links as needed) up to the newest in-flight batch and releases everything.
/// Runs before the worker blocks on an empty queue and at every `With`
/// control barrier — a barrier closure must observe a fully quorum-committed
/// shard.
fn settle_all(
    shard: &mut Shard,
    replicas: &mut ReplicaSet,
    inflight: &mut VecDeque<PendingBatch>,
    registry: &ReplyRegistry,
    telemetry: &WorkerTelemetry,
) {
    if !replicas.is_empty() && shard.is_active() {
        // Decision-free appends (control-plane logs) may still sit in the
        // log's open tail; seal so the retransmission loop can ship them —
        // an unsealed target would never quorum-commit. The quorum target
        // is the newest parked batch, or the log tip when no replies are
        // parked (a barrier needs decision-free appends durable too).
        shard.seal_log();
        let target = inflight
            .back()
            .map_or_else(|| shard.log().next_seq(), |b| b.end_seq);
        if !replicas.force_quorum(shard, target) {
            fail_pipeline(shard, inflight, registry, telemetry);
            return;
        }
    }
    let epoch = replicas.epoch();
    while let Some(mut batch) = inflight.pop_front() {
        release(registry, telemetry, &mut batch, epoch);
    }
}

/// The tail of every batch: group-commit, then either release the replies
/// immediately (unreplicated) or ship the batch's log suffix to the
/// followers and park the replies in the in-flight window until quorum acks
/// arrive — the worker returns to draining while they are in flight. Commit
/// latency is recorded only for batches that actually produced decisions (a
/// `With`-only wakeup commits an empty batch, which would pollute the
/// histogram with no-op commits).
fn commit_and_flush(
    shard: &mut Shard,
    replicas: &mut ReplicaSet,
    inflight: &mut VecDeque<PendingBatch>,
    registry: &ReplyRegistry,
    open: &mut PendingBatch,
    telemetry: &WorkerTelemetry,
) {
    let had_decisions = !open.replies.is_empty();
    let commit = Instant::now();
    shard.commit_batch();
    if had_decisions {
        telemetry
            .commit_latency
            .record(saturating_nanos(commit.elapsed()));
    }
    for (span, _) in open.spans.iter_mut() {
        span.stamp(Stage::Committed);
    }
    open.end_seq = shard.log().next_seq();
    if replicas.is_empty() || !shard.is_active() {
        // Unreplicated (the local group commit is the durability point) —
        // or demoted, in which case the answers are errors and need no
        // quorum.
        release(registry, telemetry, open, replicas.epoch());
        return;
    }
    // The pipelined quorum write: seal the batch into a shared segment and
    // ship it now, but do not wait for the acks — park the replies and keep
    // draining. The log and every follower retain the same segment.
    shard.seal_log();
    replicas.replicate(shard);
    if had_decisions || !open.spans.is_empty() {
        inflight.push_back(std::mem::take(open));
    }
    // Opportunistically fold in whatever acks already landed (the log lets
    // go of what the fleet now holds) and release the prefix they cover.
    replicas.absorb_acks(shard);
    while inflight
        .front()
        .is_some_and(|b| b.end_seq <= replicas.quorum_committed())
    {
        let mut batch = inflight.pop_front().expect("checked front");
        release(registry, telemetry, &mut batch, replicas.epoch());
    }
    // A full window is the pipeline's backpressure: block on the oldest
    // batch's quorum (retransmitting if its acks were lost) before opening
    // another. A quorum that cannot be reached — fenced or partitioned —
    // fails the whole pipeline instead of blocking forever.
    while inflight.len() > REPLICA_PIPELINE {
        let mut batch = inflight.pop_front().expect("len checked");
        if replicas.force_quorum(shard, batch.end_seq) {
            release(registry, telemetry, &mut batch, replicas.epoch());
        } else {
            inflight.push_front(batch);
            fail_pipeline(shard, inflight, registry, telemetry);
            return;
        }
    }
}

fn run(
    mut shard: Shard,
    mut replicas: ReplicaSet,
    queue: QueueReceiver<ShardCommand>,
    registry: Arc<ReplyRegistry>,
    batch: usize,
    telemetry: WorkerTelemetry,
) {
    let mut commands: Vec<ShardCommand> = Vec::with_capacity(batch);
    // Replies and sampled spans of the batch being drained.
    let mut open = PendingBatch::default();
    // Batches group-committed locally but awaiting quorum acks.
    let mut inflight: VecDeque<PendingBatch> = VecDeque::new();
    let shard_id = shard.id();
    let shard_index = shard_id.index() as u32;
    loop {
        // Wakeup. With batches in flight the worker must not block — a
        // parked reply could deadlock its submitter against an idle ack —
        // so it probes non-blocking first and settles the pipeline before
        // any blocking wait.
        if commands.is_empty() {
            queue.drain_into(&mut commands, batch);
        }
        if commands.is_empty() {
            settle_all(
                &mut shard,
                &mut replicas,
                &mut inflight,
                &registry,
                &telemetry,
            );
            match queue.recv() {
                Some(first) => commands.push(first),
                None => break,
            }
            if batch > 1 {
                queue.drain_into(&mut commands, batch - 1);
            }
        }
        // All per-wakeup, not per-command, so the drain loop stays
        // amortized: backlog left behind after this drain, its occupancy
        // high-water mark, and how many commands one wakeup took.
        telemetry.queue_depth.observe(queue.depth() as u64);
        telemetry
            .queue_peak
            .observe(queue.stats().peak_queued as u64);
        telemetry.drain_batch.record(commands.len() as u64);
        shard.begin_batch();
        for command in commands.drain(..) {
            match command {
                ShardCommand::Ingest {
                    seq,
                    op,
                    reply,
                    span,
                } => {
                    if let Some(mut span) = span {
                        span.stamp(Stage::Drained);
                        span.set_shard(shard_index);
                        open.spans.push((span, matches!(op, LocalOp::Session(_))));
                    }
                    let by = Some(shard_id);
                    let decided = match op {
                        LocalOp::Floor { group, request } => {
                            let (outcome, replayed) = shard.arbitrate_dedup(seq, group, request);
                            Reply::Floor(Decision::unstamped(seq, group, outcome, replayed, by))
                        }
                        LocalOp::Session(event) => {
                            let group = event.group;
                            let (outcome, replayed) = shard.arbitrate_session_dedup(seq, event);
                            Reply::Session(Decision::unstamped(seq, group, outcome, replayed, by))
                        }
                    };
                    open.replies.push((reply, decided));
                }
                ShardCommand::With(f) => {
                    // Control barrier: commit the open batch, then settle
                    // every in-flight batch to quorum, so the closure
                    // observes a fully (quorum-)committed shard — handoff
                    // exports, snapshots, crashes and promotions must never
                    // see half a batch or an unsettled pipeline.
                    commit_and_flush(
                        &mut shard,
                        &mut replicas,
                        &mut inflight,
                        &registry,
                        &mut open,
                        &telemetry,
                    );
                    settle_all(
                        &mut shard,
                        &mut replicas,
                        &mut inflight,
                        &registry,
                        &telemetry,
                    );
                    let stall = Instant::now();
                    f(&mut shard, &mut replicas);
                    telemetry
                        .with_stall
                        .record(saturating_nanos(stall.elapsed()));
                    shard.begin_batch();
                }
                ShardCommand::Fault(f) => {
                    // Deliberately NOT a barrier: the closure runs with the
                    // open batch uncommitted and earlier batches still parked
                    // mid-quorum-write, so an injected partition or
                    // corruption lands exactly where the schedule placed it.
                    f(&mut shard, &mut replicas);
                }
            }
        }
        // The group commit: one amortized log append + one snapshot-cadence
        // check for the whole batch, then the replies — immediately when
        // unreplicated, after quorum acks when replicated.
        commit_and_flush(
            &mut shard,
            &mut replicas,
            &mut inflight,
            &registry,
            &mut open,
            &telemetry,
        );
    }
    // Queue closed (cluster teardown): nothing can be in flight — the loop
    // settles before every blocking receive — but be explicit.
    settle_all(
        &mut shard,
        &mut replicas,
        &mut inflight,
        &registry,
        &telemetry,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ClusterError;
    use crate::instrument::ClusterTelemetry;
    use crate::ring::ShardId;
    use crate::shard::GlobalGroupId;
    use dmps_simnet::Link;
    use std::sync::mpsc::channel;

    #[test]
    fn demoted_shard_leaves_failed_decisions_unstamped() {
        // The branch a write drained *after* a self-demotion takes: the
        // shard is replicated (epoch 1) but no longer active, so the batch
        // answers without a quorum and its failures keep commit 0 / epoch 0.
        let telemetry = ClusterTelemetry::new(0);
        let mut shard = Shard::new(ShardId(0), 0, 64);
        let mut replicas = ReplicaSet::new(ShardId(0), 2, Link::replica(), telemetry.replica(0));
        shard.crash();
        let (tx, rx) = channel();
        let mut open = PendingBatch::default();
        let down = ClusterError::ShardDown(ShardId(0));
        for (seq, session) in [(8, false), (9, true)] {
            let failed = Reply::failed(
                session,
                seq,
                GlobalGroupId(0),
                Some(ShardId(0)),
                down.clone(),
            );
            open.replies.push((ReplyTo::Direct(tx.clone()), failed));
        }
        shard.begin_batch();
        commit_and_flush(
            &mut shard,
            &mut replicas,
            &mut VecDeque::new(),
            &ReplyRegistry::default(),
            &mut open,
            &telemetry.worker(0),
        );
        let Reply::Floor(failed) = rx.recv().unwrap() else {
            panic!("the floor op is answered on the floor lane");
        };
        assert_eq!((failed.seq, failed.commit, failed.epoch), (8, 0, 0));
        let Reply::Session(failed) = rx.recv().unwrap() else {
            panic!("the session op is answered on the session lane");
        };
        assert_eq!((failed.seq, failed.commit, failed.epoch), (9, 0, 0));
    }
}
