//! The per-shard ingest pipeline: one steppable `ShardCore` per shard —
//! its [`Shard`], replica set, open batch, in-flight quorum window and
//! telemetry — behind a per-shard mutex, fed by a **bounded** command queue
//! (the `queue` module). The core's lock serializes the shard; the queue
//! orders what arrives while somebody holds it. There is one step body and
//! two kinds of thread that run it:
//!
//! * **A caller steps an idle shard itself** when the process can run on
//!   one CPU, where the worker could only run by preempting it: an op,
//!   control closure or leader read that finds the core free (`try_lock`)
//!   steps everything already queued ahead of it, then its own command, on
//!   its own stack — no wakeup, no context switch. On more CPUs every
//!   command is queued: the worker pipelines them in parallel with the
//!   callers, and the shard's state stays allocated by the one thread that
//!   serves it (state a caller allocates from its own malloc arena measured
//!   10–20 % slower to step afterwards).
//! * **The worker thread steps the rest**: what was queued while the core
//!   was busy, and what is reserved for it — fault injections, which must
//!   land mid-pipeline, and crash/recover, whose rebuilt state stays with
//!   the thread that serves the shard.
//!
//! A step takes up to [`ClusterConfig::ingest_batch`](crate::ClusterConfig::ingest_batch)
//! commands and arbitrates them inside a
//! [`Shard::begin_batch`]/[`Shard::commit_batch`] bracket: each applies to
//! the live arbiter at once, but the log is appended once per batch
//! ([`EventLog::append_batch`](crate::EventLog::append_batch)) with one
//! snapshot-cadence check — the group commit. Replies release only *after*
//! it (a decision is never visible before its event is durable), one
//! mailbox lock per gateway run of the batch. With
//! [`ClusterConfig::replicas`](crate::ClusterConfig::replicas) > 0 a
//! committed batch also ships to the followers (the `replication` module)
//! and its replies park in an in-flight window of at most
//! `REPLICA_PIPELINE` batches until a quorum of acks covers it, while the
//! next step goes on; a step that finds the queue idle settles the window
//! (retransmitting as needed), so no decision waits on a lost ack.
//!
//! Commands are `ShardCommand::Ingest` — every op, floor request or session
//! operation alike — or `ShardCommand::Control`, a closure with the shard
//! and its replica set. Except for fault injection a control closure is a
//! **barrier**: the open batch commits and the in-flight window settles
//! first, so `handoff_prepare`'s pinned position, snapshots and crashes
//! never see half a batch. Control commands are exempt from the ingest
//! bound, so a storm cannot starve crash-recovery or handoffs.
//!
//! A streamed command carries its gateway's mailbox (an `Arc`), and a
//! released batch's replies go straight into it: no channel, no per-batch
//! reply `Vec`, no registry lookup. A gateway that is dropped with decisions
//! in flight leaves them in its own mailbox, never in a successor's.
//!
//! A crashed shard keeps stepping, answering [`crate::ClusterError::ShardDown`]
//! until recovered. A *panicking* step leaves the core's mutex poisoned with
//! maybe half a batch inside: the next taker never reuses that state but
//! crashes the shard, answering every buffered and parked reply `ShardDown`
//! as a failed quorum does. The worker thread catches its own panics and
//! exits only when `ShardWorker`'s `Drop` closes the queue.
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
//! // `submit` routes to the owning shard; whoever steps it batch-drains,
//! // group-commits, and streams the decision back.
//! let gateway = cluster.gateway();
//! gateway.submit(GlobalRequest::speak(g, m)).unwrap();
//! assert!(gateway.recv_decision().unwrap().outcome.unwrap().is_granted());
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;
use std::time::Instant;

use dmps_telemetry::{saturating_nanos, Stage, TraceSpan};

use crate::cluster::{ClusterConfig, Decision};
use crate::gateway::Mailbox;
use crate::instrument::{ClusterTelemetry, ReplicaMetrics, WorkerTelemetry};
use crate::op::{LocalOp, Reply};
use crate::queue::{OverloadPolicy, Queue, QueueStats};
use crate::replication::{FollowerCore, ReplicaSet};
use crate::shard::Shard;

/// Where a reply streams back to: the submitting gateway's mailbox (the hot
/// path — an `Arc` bump, no allocation), or a one-shot channel for the
/// synchronous `request`/`session` round-trips.
#[derive(Debug, Clone)]
pub(crate) enum ReplyTo {
    /// The submitting gateway's mailbox.
    Gateway(Arc<Mailbox>),
    /// A caller-owned one-shot channel (synchronous paths).
    Direct(Sender<Reply>),
}

/// One unit of work for a shard's pipeline.
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
    /// Run a closure with exclusive access to the shard and its replica set.
    Control(Control, ControlFn),
}

impl ShardCommand {
    /// Whether only the worker thread may apply this command: a caller
    /// stepping the shard inline stops before it.
    fn worker_only(&self) -> bool {
        matches!(self, ShardCommand::Control(kind, _) if *kind != Control::Barrier)
    }
}

/// How a control closure runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Control {
    /// A batch barrier, run by whichever thread steps the shard.
    Barrier,
    /// A batch barrier run by the worker thread only (crash and recover).
    Pinned,
    /// Fault injection, run by the worker thread **without** the barrier:
    /// batches stay parked mid-quorum-write, where a partition must land.
    Fault,
}

/// A boxed control closure (see [`ShardCommand::Control`]).
pub(crate) type ControlFn = Box<dyn FnOnce(&mut Shard, &mut ReplicaSet) + Send>;

/// Maximum group-committed batches a shard keeps in flight awaiting quorum
/// acks before it stalls on the oldest — the quorum pipeline's depth: higher
/// tolerates more ack latency before ingest stalls, at the cost of
/// decision-release latency under loss.
const REPLICA_PIPELINE: usize = 4;

/// What one shard's steppers share: the core, behind the lock that
/// serializes them, and the queue that orders what arrives meanwhile.
struct ShardHost {
    core: Mutex<ShardCore>,
    queue: Queue<ShardCommand>,
}

impl ShardHost {
    /// Takes the core, waiting for the current stepper.
    fn lock(&self) -> MutexGuard<'_, ShardCore> {
        self.core
            .lock()
            .unwrap_or_else(|poisoned| self.crash_poisoned(poisoned.into_inner()))
    }

    /// Takes the core if nobody is stepping it.
    fn try_lock(&self) -> Option<MutexGuard<'_, ShardCore>> {
        match self.core.try_lock() {
            Ok(core) => Some(core),
            Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(poisoned)) => {
                Some(self.crash_poisoned(poisoned.into_inner()))
            }
        }
    }

    /// A step panicked holding the core, maybe halfway through a batch: the
    /// state is not reused as it stands but crashed, like a failed quorum,
    /// and only then is the lock healed.
    fn crash_poisoned<'a>(&self, mut core: MutexGuard<'a, ShardCore>) -> MutexGuard<'a, ShardCore> {
        core.crash_after_panic();
        self.core.clear_poison();
        core
    }

    /// Takes the idle core for a caller and steps everything queued ahead
    /// of it; `None` when another thread is stepping or a command reserved
    /// for the worker is queued ahead (the caller then queues behind it).
    fn ahead(&self) -> Option<Inline<'_>> {
        let mut inline = Inline {
            core: self.try_lock()?,
            queue: &self.queue,
        };
        // Bounded by what is queued now: entries arriving meanwhile line up
        // behind the caller and wake the worker.
        let mut ahead = self.queue.len();
        while ahead > 0 {
            match inline.core.step(&self.queue, ahead, false) {
                0 => return None,
                stepped => ahead = ahead.saturating_sub(stepped),
            }
        }
        Some(inline)
    }
}

/// The core as held by a caller stepping it inline. If the caller panics
/// mid-step, the worker is kicked so it takes the poisoned core next and
/// answers whatever the caller had drained.
struct Inline<'a> {
    core: MutexGuard<'a, ShardCore>,
    queue: &'a Queue<ShardCommand>,
}

impl Drop for Inline<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.queue.kick();
        }
    }
}

/// Handle to one shard's pipeline: its core and queue, the worker thread
/// that steps it when callers do not, and the read-path ends of the shard's
/// replica fleet.
pub(crate) struct ShardWorker {
    host: Arc<ShardHost>,
    thread: Option<JoinHandle<()>>,
    /// Whether callers step the idle core themselves (one CPU).
    inline: bool,
    /// The shard's follower cores, shared with the routing layer so
    /// `session_view`-style reads can be served without entering the queue.
    followers: Vec<Arc<Mutex<FollowerCore>>>,
    /// The replication instruments (the read path increments the
    /// follower/forwarded split without touching the registry).
    replica_metrics: ReplicaMetrics,
}

impl std::fmt::Debug for ShardWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWorker")
            .field("queue", &self.host.queue)
            .finish_non_exhaustive()
    }
}

impl ShardWorker {
    /// Builds the core that owns `shard` and spawns its worker thread: its
    /// queue bound, drain batch and follower fleet come from `config`, its
    /// instruments from `telemetry`; at most `REPLICA_PIPELINE` batches
    /// await quorum.
    pub(crate) fn spawn(
        shard: Shard,
        config: &ClusterConfig,
        telemetry: &ClusterTelemetry,
        inline: bool,
    ) -> Self {
        let index = shard.id().index();
        let replica_metrics = telemetry.replica(index);
        let replicas = ReplicaSet::new(
            shard.id(),
            config.replicas,
            config.replica_link,
            replica_metrics.clone(),
        );
        let followers = replicas.followers().to_vec();
        let host = Arc::new(ShardHost {
            core: Mutex::new(ShardCore {
                shard,
                replicas,
                commands: VecDeque::new(),
                open: PendingBatch::default(),
                inflight: VecDeque::new(),
                telemetry: telemetry.worker(index),
                batch: config.ingest_batch.max(1),
            }),
            queue: Queue::new(config.queue_capacity),
        });
        let stepped = host.clone();
        let thread = std::thread::Builder::new()
            .name(format!("dmps-shard-{index}"))
            .spawn(move || run(&stepped))
            .expect("spawn shard worker thread");
        ShardWorker {
            host,
            thread: Some(thread),
            inline,
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

    /// Ingests a run of commands: stepped on the calling thread when
    /// callers step and the core is idle, queued under the overload policy
    /// otherwise. Returns the commands shed by a full queue (always empty
    /// under [`OverloadPolicy::Block`]); the caller answers them with
    /// `Overloaded`.
    pub(crate) fn ingest(
        &self,
        commands: impl Iterator<Item = ShardCommand>,
        policy: OverloadPolicy,
    ) -> Vec<ShardCommand> {
        if self.inline {
            if let Some(mut inline) = self.host.ahead() {
                // Stepped until a step finds nothing left: that one settles.
                inline.core.commands.extend(commands);
                while inline.core.step(&self.host.queue, 0, false) > 0 {}
                return Vec::new();
            }
        }
        self.host.queue.push_many(commands, policy)
    }

    /// Runs `f` with the shard and its replica set and returns its result.
    /// A [`Control::Barrier`] closure runs on the calling thread when
    /// callers step and the core is idle; everything else goes through the
    /// queue to whichever thread steps it (the worker thread, for
    /// [`Control::Pinned`] and [`Control::Fault`]). A panic in `f` poisons
    /// the core either way and resumes in the caller.
    pub(crate) fn control<R: Send + 'static>(
        &self,
        kind: Control,
        f: impl FnOnce(&mut Shard, &mut ReplicaSet) -> R + Send + 'static,
    ) -> R {
        if self.inline && kind == Control::Barrier {
            if let Some(mut inline) = self.host.ahead() {
                return inline.core.control(&self.host.queue, f);
            }
        }
        let (tx, rx) = channel();
        let command = Box::new(move |s: &mut Shard, r: &mut ReplicaSet| {
            // The caller gets the closure's panic back, and the step still
            // unwinds, so the core is poisoned exactly as if the caller had
            // run the closure inline.
            let result = catch_unwind(AssertUnwindSafe(|| f(s, r)));
            let panicked = result.is_err();
            let _ = tx.send(result);
            if panicked {
                resume_unwind(Box::new("control closure panicked"));
            }
        });
        // Control commands are exempt from the ingest bound: a saturated
        // queue must never starve (or deadlock) the control plane.
        self.host
            .queue
            .push_control(ShardCommand::Control(kind, command));
        match rx.recv() {
            Ok(result) => result.unwrap_or_else(|panic| resume_unwind(panic)),
            Err(_) => unreachable!("the worker outlives every panic and drains before it exits"),
        }
    }

    /// Occupancy statistics of this shard's ingest queue.
    pub(crate) fn stats(&self) -> QueueStats {
        self.host.queue.stats()
    }

    /// Restarts the queue's peak-occupancy window (see
    /// [`QueueStats::peak_queued`]).
    pub(crate) fn reset_peak(&self) {
        self.host.queue.reset_peak();
    }
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        // Closing the queue lets the worker drain what is left and exit;
        // joining makes cluster teardown deterministic.
        self.host.queue.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Releases every buffered reply: each run of consecutive replies to one
/// gateway goes into its mailbox under one lock, and one-shot `Direct`
/// replies are forwarded as they come. Called only after the batch that
/// produced the replies has group-committed — this is where the
/// decisions-never-outrun-durability barrier is enforced.
fn flush_replies(replies: &mut Vec<(ReplyTo, Reply)>) {
    let mut replies = replies.drain(..).peekable();
    while let Some((to, reply)) = replies.next() {
        match to {
            ReplyTo::Gateway(mailbox) => {
                let same = |(next, _): &(ReplyTo, Reply)| match next {
                    ReplyTo::Gateway(next) => Arc::ptr_eq(next, &mailbox),
                    ReplyTo::Direct(_) => false,
                };
                let more = std::iter::from_fn(|| replies.next_if(same).map(|(_, r)| r));
                mailbox.deliver(std::iter::once(reply).chain(more));
            }
            // A caller that dropped its one-shot receiver simply misses the
            // decision; the shard state is already consistent.
            ReplyTo::Direct(tx) => {
                let _ = tx.send(reply);
            }
        }
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
fn release(telemetry: &WorkerTelemetry, batch: &mut PendingBatch, epoch: u64) {
    for (_, reply) in batch.replies.iter_mut() {
        reply.stamp(batch.end_seq, epoch);
    }
    flush_replies(&mut batch.replies);
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
    telemetry: &WorkerTelemetry,
) {
    while let Some(mut batch) = inflight.pop_front() {
        for (_, reply) in batch.replies.iter_mut() {
            if reply.fail(shard.id()) {
                shard.note_orphan(reply.seq(), batch.end_seq, reply.is_session());
            }
        }
        // Nothing is left to stamp: every reply is a failure now.
        release(telemetry, &mut batch, 0);
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
            fail_pipeline(shard, inflight, telemetry);
            return;
        }
    }
    let epoch = replicas.epoch();
    while let Some(mut batch) = inflight.pop_front() {
        release(telemetry, &mut batch, epoch);
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
        release(telemetry, open, replicas.epoch());
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
        release(telemetry, &mut batch, replicas.epoch());
    }
    // A full window is the pipeline's backpressure: block on the oldest
    // batch's quorum (retransmitting if its acks were lost) before opening
    // another. A quorum that cannot be reached — fenced or partitioned —
    // fails the whole pipeline instead of blocking forever.
    while inflight.len() > REPLICA_PIPELINE {
        let mut batch = inflight.pop_front().expect("len checked");
        if replicas.force_quorum(shard, batch.end_seq) {
            release(telemetry, &mut batch, replicas.epoch());
        } else {
            inflight.push_front(batch);
            fail_pipeline(shard, inflight, telemetry);
            return;
        }
    }
}

/// Everything one shard's pipeline owns, stepped under its host's lock by
/// the worker thread or by a caller: the shard, its replica set, the
/// commands drained but not yet applied, the open batch and the in-flight
/// quorum window.
pub(crate) struct ShardCore {
    shard: Shard,
    replicas: ReplicaSet,
    /// Drained commands not yet applied — kept here, not on a stepper's
    /// stack, so a panicking step cannot lose them.
    commands: VecDeque<ShardCommand>,
    /// Replies and sampled spans of the batch being applied.
    open: PendingBatch,
    /// Batches group-committed locally but awaiting quorum acks.
    inflight: VecDeque<PendingBatch>,
    telemetry: WorkerTelemetry,
    /// Commands per group-commit batch.
    batch: usize,
}

impl ShardCore {
    /// One step of the pipeline: takes up to `max` queued commands (a
    /// caller, not `on_worker`, stops before one reserved for the worker)
    /// and applies at most one batch of them as one group commit, shipped
    /// or released. A step that finds nothing to apply and the queue idle
    /// settles the pipeline instead: a parked reply must not wait for an
    /// ack nobody is left to absorb. Returns how many commands it applied.
    fn step(&mut self, queue: &Queue<ShardCommand>, max: usize, on_worker: bool) -> usize {
        let room = self.batch.saturating_sub(self.commands.len()).min(max);
        let left = queue.drain_into(&mut self.commands, room, |command| {
            !on_worker && command.worker_only()
        });
        let n = self.commands.len().min(self.batch);
        if n == 0 {
            if left.queued == 0 {
                self.settle();
            }
            return 0;
        }
        self.open(left, n, on_worker);
        for _ in 0..n {
            if let Some(command) = self.commands.pop_front() {
                self.apply(command);
            }
        }
        self.commit();
        n
    }

    /// A caller's control closure, run as a one-command batch after what
    /// was queued ahead.
    fn control<R>(
        &mut self,
        queue: &Queue<ShardCommand>,
        f: impl FnOnce(&mut Shard, &mut ReplicaSet) -> R,
    ) -> R {
        self.open(queue.stats(), 1, false);
        let result = self.barrier(f);
        self.commit();
        // Applies nothing; settles the pipeline if the queue is idle.
        self.step(queue, 0, false);
        result
    }

    /// Opens a batch of `n` commands. All per-step, not per-command, so
    /// the step stays amortized: backlog left behind, its occupancy
    /// high-water mark, the batch size, and which thread stepped.
    fn open(&mut self, left: QueueStats, n: usize, on_worker: bool) {
        self.telemetry.queue_depth.observe(left.queued as u64);
        self.telemetry.queue_peak.observe(left.peak_queued as u64);
        self.telemetry.drain_batch.record(n as u64);
        if on_worker {
            self.telemetry.steps_worker.incr();
        } else {
            self.telemetry.steps_inline.incr();
        }
        self.shard.begin_batch();
    }

    /// Applies one command inside the open batch.
    fn apply(&mut self, command: ShardCommand) {
        let shard_id = self.shard.id();
        match command {
            ShardCommand::Ingest {
                seq,
                op,
                reply,
                span,
            } => {
                if let Some(mut span) = span {
                    span.stamp(Stage::Drained);
                    span.set_shard(shard_id.index() as u32);
                    let session = matches!(op, LocalOp::Session(_));
                    self.open.spans.push((span, session));
                }
                let by = Some(shard_id);
                let decided = match op {
                    LocalOp::Floor { group, request } => {
                        let (outcome, replayed) = self.shard.arbitrate_dedup(seq, group, request);
                        Reply::Floor(Decision::unstamped(seq, group, outcome, replayed, by))
                    }
                    LocalOp::Session(event) => {
                        let group = event.group;
                        let (outcome, replayed) = self.shard.arbitrate_session_dedup(seq, event);
                        Reply::Session(Decision::unstamped(seq, group, outcome, replayed, by))
                    }
                };
                self.open.replies.push((reply, decided));
            }
            // Deliberately NOT a barrier: the closure runs with the open
            // batch uncommitted and earlier batches still parked
            // mid-quorum-write, so an injected partition or corruption lands
            // exactly where the schedule placed it.
            ShardCommand::Control(Control::Fault, f) => f(&mut self.shard, &mut self.replicas),
            ShardCommand::Control(_, f) => self.barrier(f),
        }
    }

    /// The control barrier: commit the open batch, then settle every
    /// in-flight batch to quorum, so the closure observes a fully
    /// (quorum-)committed shard — handoff exports, snapshots, crashes and
    /// promotions must never see half a batch or an unsettled pipeline —
    /// then reopen the batch.
    fn barrier<R>(&mut self, f: impl FnOnce(&mut Shard, &mut ReplicaSet) -> R) -> R {
        self.commit();
        self.settle();
        let stall = Instant::now();
        let result = f(&mut self.shard, &mut self.replicas);
        self.telemetry
            .with_stall
            .record(saturating_nanos(stall.elapsed()));
        self.shard.begin_batch();
        result
    }

    fn commit(&mut self) {
        commit_and_flush(
            &mut self.shard,
            &mut self.replicas,
            &mut self.inflight,
            &mut self.open,
            &self.telemetry,
        );
    }

    fn settle(&mut self) {
        settle_all(
            &mut self.shard,
            &mut self.replicas,
            &mut self.inflight,
            &self.telemetry,
        );
    }

    /// Crashes the shard after a panicking step: the open batch's replies
    /// and the parked ones are answered `ShardDown` as a failed quorum
    /// answers them (the crash discards the open batch's uncommitted events
    /// and journal entries). Commands still drained are applied by the next
    /// step, against the crashed shard.
    fn crash_after_panic(&mut self) {
        self.inflight.push_back(std::mem::take(&mut self.open));
        fail_pipeline(&mut self.shard, &mut self.inflight, &self.telemetry);
    }
}

/// The worker thread: steps the core until the queue is idle, then parks
/// until something is queued (or a panicking caller kicks it), and exits
/// once the queue is closed and drained. A panicking step is caught, and
/// the next iteration's lock crashes the shard.
fn run(host: &ShardHost) {
    loop {
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            host.lock().step(&host.queue, usize::MAX, true)
        }));
        if matches!(stepped, Ok(0)) && !host.queue.wait() {
            break;
        }
    }
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

    use crate::cluster::{Cluster, ClusterConfig, Core, GlobalRequest};
    use crate::gateway::Gateway;
    use crate::op::Op;
    use crate::session::SessionOp;
    use crate::shard::{segment_crc, GlobalMemberId};
    use dmps_floor::{ArbiterEvent, FcmMode, Member, Role};
    use std::sync::Barrier;

    /// A cluster whose CPU observation is made by the test: `inline` is
    /// what a one-CPU host selects for streaming submissions.
    fn cluster(config: ClusterConfig, inline: bool) -> Cluster {
        let core = Arc::new(Core::build(config, inline));
        let gateway = Gateway::new(core.clone());
        Cluster { core, gateway }
    }

    /// One Equal Control group with a chair and a student.
    fn lecture(cluster: &Cluster) -> (GlobalGroupId, GlobalMemberId, GlobalMemberId) {
        let g = cluster
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let chair = cluster.register_member(Member::new("chair", Role::Chair));
        let student = cluster.register_member(Member::new("student", Role::Participant));
        cluster.join_group(g, chair).unwrap();
        cluster.join_group(g, student).unwrap();
        (g, chair, student)
    }

    fn queued(cluster: &Cluster, shard: ShardId) -> usize {
        cluster.core.with_worker(shard, |w| w.host.queue.len())
    }

    /// Runs `f` while another thread holds `shard`'s core in a control
    /// closure, so everything `f` hands the shard is queued behind it.
    fn holding<R: Send>(cluster: &Cluster, shard: ShardId, f: impl FnOnce() -> R + Send) -> R {
        let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        std::thread::scope(|scope| {
            let (h, r) = (held.clone(), release.clone());
            scope.spawn(move || {
                cluster.inspect_shard(shard, move |_| {
                    h.wait();
                    r.wait();
                })
            });
            held.wait();
            let result = f();
            release.wait();
            result
        })
    }

    #[test]
    fn a_panicking_step_crashes_only_its_shard_on_either_thread() {
        for on_worker in [false, true] {
            let mut cluster = cluster(ClusterConfig::with_shards(2), true);
            let (g, chair, student) = lecture(&cluster);
            let shard = cluster.placement(g).unwrap().shard;
            assert!(cluster
                .request(GlobalRequest::speak(g, chair))
                .unwrap()
                .is_granted());
            let committed = cluster.arbiter(shard);
            let gateway = cluster.gateway();
            // Half a batch, then a panic: the chair's leave is applied to the
            // live arbiter but never committed.
            let local = cluster.local_member(chair, shard).unwrap();
            let group = cluster.placement(g).unwrap().local;
            let panicking = move |s: &mut Shard| {
                s.begin_batch();
                s.apply(ArbiterEvent::LeaveGroup {
                    group,
                    member: local,
                })
                .unwrap();
                panic!("a bug halfway through a batch");
            };
            let caught = if on_worker {
                // Queued behind a held core as a mid-batch fault, after a
                // streaming op drained into the same batch: the worker thread
                // runs — and survives — the panic, the caller still gets it
                // back, and the op's buffered reply is answered.
                let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
                std::thread::scope(|scope| {
                    let (h, r) = (held.clone(), release.clone());
                    let cluster = &cluster;
                    scope.spawn(move || {
                        cluster.inspect_shard(shard, move |_| {
                            h.wait();
                            r.wait();
                        })
                    });
                    held.wait();
                    gateway.submit(GlobalRequest::speak(g, student)).unwrap();
                    let caller = scope.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            cluster
                                .core
                                .with_shard_fault(shard, move |s, _| panicking(s))
                        }))
                    });
                    while queued(cluster, shard) < 2 {
                        std::thread::yield_now();
                    }
                    release.wait();
                    caller.join().unwrap()
                })
            } else {
                catch_unwind(AssertUnwindSafe(|| {
                    cluster.core.with_shard(shard, panicking)
                }))
            };
            assert!(caught.is_err(), "the closure's panic reaches its caller");
            if on_worker {
                // The buffered reply of the panicking batch is answered.
                let buffered = gateway.recv_decision().unwrap();
                assert_eq!(buffered.outcome, Err(ClusterError::ShardDown(shard)));
            }
            // The next op finds a crashed shard, not a dead process.
            gateway.submit(GlobalRequest::speak(g, student)).unwrap();
            let next = gateway.recv_decision().unwrap();
            assert_eq!(next.outcome, Err(ClusterError::ShardDown(shard)));
            assert!(!cluster.is_shard_active(shard));
            // Recovery rebuilds the committed state; the half batch is gone.
            cluster.recover_shard(shard).unwrap();
            assert_eq!(cluster.arbiter(shard), committed);
            let release = GlobalRequest::release_floor(g, chair);
            assert!(cluster.request(release).unwrap().is_granted());
            cluster.check_invariants().unwrap();
        }
    }

    /// A seeded stream of floor requests and chat lines over `groups`.
    fn op_stream(seed: u64, groups: &[(GlobalGroupId, [GlobalMemberId; 2])]) -> Vec<Op> {
        let mut state = seed;
        (0..300)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (g, members) = groups[(state >> 33) as usize % groups.len()];
                let m = members[(state >> 40) as usize % 2];
                match (state >> 50) % 3 {
                    0 => Op::Floor(GlobalRequest::speak(g, m)),
                    1 => Op::Floor(GlobalRequest::release_floor(g, m)),
                    _ => Op::Session(SessionOp::chat(g, m, format!("line {i}"))),
                }
            })
            .collect()
    }

    /// Every reply of the stream, one op at a time, and every shard's
    /// sealed-segment CRCs.
    fn drive(inline: bool) -> (Vec<Reply>, Vec<Vec<(u64, u32)>>) {
        let cluster = cluster(ClusterConfig::with_shards(2).with_replicas(2), inline);
        let groups: Vec<_> = (0..4)
            .map(|_| {
                let (g, chair, student) = lecture(&cluster);
                (g, [chair, student])
            })
            .collect();
        let gateway = cluster.gateway();
        let replies = op_stream(7, &groups)
            .into_iter()
            .map(|op| match op {
                Op::Floor(request) => {
                    gateway.submit(request).unwrap();
                    Reply::Floor(gateway.recv_decision().unwrap())
                }
                Op::Session(op) => {
                    gateway.submit_session(op).unwrap();
                    Reply::Session(gateway.recv_session_decision().unwrap())
                }
            })
            .collect();
        let crcs = (0..cluster.shard_count())
            .map(|i| {
                cluster.core.with_shard(ShardId(i), |s| {
                    let (segments, _) = s.log().segments_from(s.log().base());
                    segments
                        .iter()
                        .map(|(start, segment)| (*start, segment_crc(segment)))
                        .collect()
                })
            })
            .collect();
        (replies, crcs)
    }

    #[test]
    fn stepping_inline_and_draining_on_the_worker_decide_identically() {
        let (inline, inline_crcs) = drive(true);
        let (worker, worker_crcs) = drive(false);
        assert_eq!(inline, worker, "decisions and commit positions");
        assert!(inline.iter().any(|r| r.is_ok()));
        assert!(inline_crcs.iter().all(|crcs| !crcs.is_empty()));
        assert_eq!(inline_crcs, worker_crcs, "sealed segments");
    }

    #[test]
    fn steps_are_counted_by_the_thread_that_took_them() {
        let cluster = cluster(ClusterConfig::with_shards(1), true);
        let (g, chair, _) = lecture(&cluster);
        let metrics = cluster.metrics();
        let (inline, worker) = (
            metrics.counter("cluster.shard.0.steps_inline"),
            metrics.counter("cluster.shard.0.steps_worker"),
        );
        for _ in 0..10 {
            cluster.submit(GlobalRequest::speak(g, chair)).unwrap();
            cluster
                .submit(GlobalRequest::release_floor(g, chair))
                .unwrap();
        }
        cluster.collect_decisions(20).unwrap();
        // One CPU, nobody contending: every step ran on a submitting thread.
        assert!(inline.get() >= 20);
        assert_eq!(worker.get(), 0);
        // With the core held, the backlog is the worker's.
        holding(&cluster, ShardId(0), || {
            for _ in 0..4 {
                cluster.submit(GlobalRequest::speak(g, chair)).unwrap();
                cluster
                    .submit(GlobalRequest::release_floor(g, chair))
                    .unwrap();
            }
        });
        cluster.collect_decisions(8).unwrap();
        assert!(worker.get() >= 1);
        let report = cluster.metrics_report();
        assert!(report.contains("cluster.shard.0.steps_inline"));
        assert!(report.contains("cluster.shard.0.steps_worker"));
    }
}
