//! The federation: a shared directory plus per-shard worker pipelines, with
//! [`Cluster`] as the owner/admin handle.
//!
//! The concurrent machinery lives in the crate-private `Core`: a
//! [`Directory`] of placements/membership taken by `&self`, and one
//! pipeline per shard — a steppable core fed by a bounded command queue,
//! stepped by its worker thread or, on one CPU, by a caller that finds it
//! idle (the `worker` module). Any number of [`Gateway`] handles — each a
//! clone holding the same `Arc<Core>` — submit ops concurrently.
//! Floor requests and session operations are one [`Op`] to this layer: one
//! scalar and one vectored submit translate an op to the owning shard's
//! dense local ids, hand it to that shard's pipeline (or park it while its
//! group is frozen by a live handoff), and its [`Reply`] streams back to the
//! submitting gateway.
//!
//! The public surface is split by actor: participant ops (groups,
//! membership, invitations, submits, reads) are [`Gateway`]'s; the operator's
//! [`Cluster`] owns the pipelines' lifetime, carries topology, faults,
//! leader-side inspection and telemetry, and *lends* the gateway it owns
//! through `Deref` — `cluster.submit(..)` is that gateway's method.

use std::collections::BTreeMap;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, RwLock, Weak};

use dmps_floor::arbiter::ArbiterStats;
use dmps_floor::snapshot::EventOutcome;
use dmps_floor::{
    ArbiterEvent, ArbitrationOutcome, FcmMode, FloorArbiter, FloorRequest, FloorToken,
    GroupFloorExport, GroupId, InvitationStatus, MemberId, RequestKind, Resource,
};

use crate::directory::{entry_mut, ClusterInvitation, Directory, GroupPlacement, MemberRecord};
use crate::error::{ClusterError, Result};
use crate::gateway::{Gateway, Mailbox};
use crate::instrument::ClusterTelemetry;
use crate::op::{LocalOp, Op, Reply};
use crate::poison::{lock, read, write};
use crate::queue::OverloadPolicy;
use crate::replication::{lock_core, FollowerCore, ReplicaSet};
use crate::ring::{HashRing, ShardId};
use crate::session::{GroupSession, SessionEvent};
use crate::shard::{
    CorruptionTarget, GlobalGroupId, GlobalMemberId, HandoffExport, Shard, ShardView,
};
use crate::worker::{Control, ReplyTo, ShardCommand, ShardWorker};
use dmps_telemetry::Stage as TraceStage;
use dmps_telemetry::{MetricsRegistry, TraceSpan};

/// Sizing, durability and backpressure knobs of a cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: usize,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub vnodes: usize,
    /// Snapshot cadence per shard (events between snapshots; 0 disables).
    /// Used as the fallback cadence when [`ClusterConfig::snapshot_every_bytes`]
    /// is 0.
    pub snapshot_every: u64,
    /// Byte-driven checkpoint cadence: a shard checkpoints once the events
    /// committed since its last checkpoint exceed this many (approximate)
    /// bytes. 0 falls back to the event-count cadence of
    /// [`ClusterConfig::snapshot_every`]. Byte cadence tracks durability
    /// *work* rather than op count, so payload-heavy and payload-light
    /// workloads checkpoint at comparable cost.
    pub snapshot_every_bytes: u64,
    /// Maximum differential checkpoints chained on one full snapshot base
    /// before the next checkpoint is forced full. 0 makes every checkpoint a
    /// full snapshot (the legacy stop-the-world behavior). Longer chains
    /// shrink the steady-state checkpoint pause (each delta ships only state
    /// touched since the last checkpoint) at the cost of a longer base+chain
    /// fold at recovery.
    pub snapshot_chain: u64,
    /// Per-shard dedup window: how many recent decisions a shard remembers
    /// to answer gateway retries idempotently (0 disables dedup).
    pub dedup_window: usize,
    /// Capacity of each shard's bounded ingest queue, in commands (0 means
    /// effectively unbounded). Control-plane commands — crash/recover,
    /// handoff phases, inspection — are exempt from the bound so a storm
    /// cannot starve them.
    pub queue_capacity: usize,
    /// What a submission does when the owning shard's ingest queue is full:
    /// [`OverloadPolicy::Block`] throttles the submitter (lossless),
    /// [`OverloadPolicy::Shed`] answers it with
    /// [`ClusterError::Overloaded`] on its decision stream.
    pub overload: OverloadPolicy,
    /// How many commands one step of a shard's pipeline drains at most —
    /// and group-commits as one log append with one cadence check (min 1).
    pub ingest_batch: usize,
    /// End-to-end pipeline tracing rate: one in every `trace_sampling`
    /// submissions carries a [`crate::telemetry::TraceSpan`]
    /// stamped at each pipeline stage
    /// (`submitted → enqueued → drained → committed → replied`) and retained
    /// in [`Cluster::recent_spans`]. 0 (the default) disables tracing; the
    /// unsampled hot path then pays a single branch per submission.
    pub trace_sampling: u64,
    /// Followers per shard. 0 (the default) runs unreplicated — the local
    /// group commit is the durability point, exactly the pre-replication
    /// behavior. With `N > 0` followers each batch needs a write quorum of
    /// `(N + 1) / 2 + 1` copies (counting the leader) before its decisions
    /// release, failover promotes the most caught-up follower instead of
    /// replaying the full log, and `session_view`-style reads are served
    /// from followers under a read-your-writes bound.
    pub replicas: usize,
    /// The simulated link between a shard leader and each of its followers
    /// (defaults to [`dmps_simnet::Link::replica`], an intra-datacenter
    /// profile). Loss on this link is healed by leader retransmission.
    pub replica_link: dmps_simnet::Link,
}

impl ClusterConfig {
    /// A config with `shards` shards and the default ring/durability/
    /// backpressure knobs.
    pub fn with_shards(shards: usize) -> Self {
        ClusterConfig {
            shards,
            vnodes: 64,
            snapshot_every: 256,
            snapshot_every_bytes: 256 * 1024,
            snapshot_chain: 24,
            dedup_window: 1024,
            queue_capacity: 4096,
            overload: OverloadPolicy::Block,
            ingest_batch: 64,
            trace_sampling: 0,
            replicas: 0,
            replica_link: dmps_simnet::Link::replica(),
        }
    }

    /// Builder-style replica-count override (keeps the default link).
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }
}

/// A floor request addressed with cluster-wide ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalRequest {
    /// The group the request concerns.
    pub group: GlobalGroupId,
    /// The requesting member.
    pub member: GlobalMemberId,
    /// What the member wants to do.
    pub kind: GlobalRequestKind,
}

impl GlobalRequest {
    /// A speak request.
    pub fn speak(group: GlobalGroupId, member: GlobalMemberId) -> Self {
        GlobalRequest {
            group,
            member,
            kind: GlobalRequestKind::Speak,
        }
    }

    /// A release-floor request.
    pub fn release_floor(group: GlobalGroupId, member: GlobalMemberId) -> Self {
        GlobalRequest {
            group,
            member,
            kind: GlobalRequestKind::ReleaseFloor,
        }
    }

    /// A pass-floor request.
    pub fn pass_floor(group: GlobalGroupId, member: GlobalMemberId, to: GlobalMemberId) -> Self {
        GlobalRequest {
            group,
            member,
            kind: GlobalRequestKind::PassFloor { to },
        }
    }

    /// A direct-contact request.
    pub fn direct_contact(
        group: GlobalGroupId,
        member: GlobalMemberId,
        to: GlobalMemberId,
    ) -> Self {
        GlobalRequest {
            group,
            member,
            kind: GlobalRequestKind::DirectContact { to },
        }
    }
}

/// The request kinds, addressed with cluster-wide member ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalRequestKind {
    /// Deliver under the group's mode.
    Speak,
    /// Open a direct-contact channel.
    DirectContact {
        /// The destination member.
        to: GlobalMemberId,
    },
    /// Release the floor token.
    ReleaseFloor,
    /// Pass the floor token.
    PassFloor {
        /// The member to pass to.
        to: GlobalMemberId,
    },
}

impl GlobalRequestKind {
    /// Stable lowercase label used in metric names and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            GlobalRequestKind::Speak => "speak",
            GlobalRequestKind::DirectContact { .. } => "direct_contact",
            GlobalRequestKind::ReleaseFloor => "release_floor",
            GlobalRequestKind::PassFloor { .. } => "pass_floor",
        }
    }
}

/// The decision for one submitted op, generic over its outcome: a floor
/// request is answered with a plain `Decision` (an [`ArbitrationOutcome`]),
/// a session operation with a [`SessionDecision`](crate::SessionDecision) —
/// the same envelope around a [`SessionOutcome`](crate::SessionOutcome).
#[derive(Debug, Clone, PartialEq)]
pub struct Decision<O = ArbitrationOutcome> {
    /// The request id ([`Gateway::submit`](crate::Gateway::submit) sequence
    /// number).
    pub seq: u64,
    /// The group the op addressed.
    pub group: GlobalGroupId,
    /// The outcome, or the routing/shard error that prevented arbitration.
    /// The outcome is shared (`Arc`) with the owning shard's dedup journal:
    /// recording and replaying a decision never deep-copies its payload.
    pub outcome: Result<Arc<O>>,
    /// Whether the decision was answered from the shard's dedup window (a
    /// retry of an already-applied op) rather than freshly arbitrated.
    pub replayed: bool,
    /// The shard that answered, or `None` when routing failed before a shard
    /// was resolved (unknown group / member).
    pub shard: Option<ShardId>,
    /// The shard log position this decision was (quorum-)committed at — the
    /// client's read-your-writes bound: a follower may serve its reads of
    /// this shard once its applied position reaches this. `0` means the
    /// decision carries no durability information (a routing error or shed).
    pub commit: u64,
    /// The leader epoch under which this decision quorum-committed. `0`
    /// means the decision carries no fencing information — an unreplicated
    /// shard, a routing error, or a shed. Two successful decisions for the
    /// same shard with different epochs straddle a failover.
    pub epoch: u64,
}

/// What a rebalancing pass ([`Cluster::rebalance_idle`] /
/// [`Cluster::rebalance_active`]) did: which groups moved and which are
/// pinned for now.
///
/// `rebalance_idle` defers every floor-active group; `rebalance_active`
/// drains exactly that list by migrating active groups through the two-phase
/// live handoff, so on a healthy cluster its `deferred` comes back empty:
///
/// ```
/// use dmps_cluster::{Cluster, ClusterConfig, GlobalRequest};
/// use dmps_floor::{FcmMode, Member, Role};
///
/// let mut cluster = Cluster::new(ClusterConfig::with_shards(2));
/// let mut busy = Vec::new();
/// for g in 0..16 {
///     let gid = cluster.create_group(format!("g{g}"), FcmMode::EqualControl).unwrap();
///     let m = cluster.register_member(Member::new(format!("m{g}"), Role::Chair));
///     cluster.join_group(gid, m).unwrap();
///     // Every group holds its token, so none of them is idle.
///     assert!(cluster.request(GlobalRequest::speak(gid, m)).unwrap().is_granted());
///     busy.push(gid);
/// }
/// cluster.add_shard();
/// let idle_pass = cluster.rebalance_idle().unwrap();
/// assert!(idle_pass.migrated.is_empty(), "every group is token-pinned");
/// let live_pass = cluster.rebalance_active().unwrap();
/// assert_eq!(live_pass.migrated, idle_pass.deferred, "the handoff drains the deferred list");
/// assert!(live_pass.deferred.is_empty());
/// cluster.check_invariants().unwrap();
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebalanceReport {
    /// Groups migrated to their new ring placement.
    pub migrated: Vec<GlobalGroupId>,
    /// Groups whose ring placement changed but which could not move in this
    /// pass: groups whose source or target shard is down (or which are
    /// already mid-handoff) — retry once the shard recovers — and, for
    /// [`Cluster::rebalance_idle`], every floor-active group (token held or
    /// requesters queued), which [`Cluster::rebalance_active`] moves with
    /// its live floor state.
    pub deferred: Vec<GlobalGroupId>,
}

/// Phase-1 output of a live group handoff: the frozen group's complete
/// exported state plus the routing facts the commit/abort phases need.
///
/// Produced by [`Cluster::handoff_prepare`], consumed by exactly one of
/// [`Cluster::handoff_commit`] (install on the destination, flip the
/// directory, retire the source copy) or [`Cluster::handoff_abort`]
/// (unfreeze the source and resume serving there). While a ticket is
/// outstanding, streamed submissions for the group are parked at the
/// gateways and re-driven after the commit or abort; synchronous requests
/// fail fast with [`ClusterError::GroupFrozen`].
///
/// Deliberately neither `Clone` nor re-issuable: the by-value
/// commit/abort signatures make the type system enforce that each
/// prepared handoff is resolved exactly once — committing a stale copy
/// after an abort would install a pre-abort export over state the source
/// has since mutated.
#[derive(Debug)]
pub struct HandoffTicket {
    group: GlobalGroupId,
    source: ShardId,
    source_local: GroupId,
    target: ShardId,
    parent: Option<GlobalGroupId>,
    roster: Vec<GlobalMemberId>,
    chair: Option<GlobalMemberId>,
    holder: Option<GlobalMemberId>,
    queue: Vec<GlobalMemberId>,
    /// The source's export, in the source's dense ids.
    export: HandoffExport,
}

impl HandoffTicket {
    /// The group being handed off.
    pub fn group(&self) -> GlobalGroupId {
        self.group
    }

    /// The shard the group is leaving.
    pub fn source(&self) -> ShardId {
        self.source
    }

    /// The shard the group is moving to.
    pub fn target(&self) -> ShardId {
        self.target
    }

    /// The current token holder at freeze time, if any.
    pub fn token_holder(&self) -> Option<GlobalMemberId> {
        self.holder
    }

    /// The token's pending-request queue at freeze time, in FIFO order.
    pub fn token_queue(&self) -> &[GlobalMemberId] {
        &self.queue
    }

    /// The source log position the export covers (every earlier event is
    /// reflected in the exported state; the freeze guarantees no later event
    /// touches the group before commit or abort).
    pub fn pinned_seq(&self) -> u64 {
        self.export.pinned_seq
    }
}

/// A submission that arrived for a frozen group: it waits out the handoff at
/// the routing layer and is re-driven through the normal gateway path after
/// the commit (toward the new owner) or abort (back to the source).
#[derive(Debug)]
struct ParkedOp {
    seq: u64,
    op: Op,
    reply: ReplyTo,
}

/// Position of `member` in `group`'s floor-token line on an arbiter:
/// `Some(0)` = holds the floor, `Some(n)` = waits at position `n` (1 = next),
/// `None` = neither holding nor queued. Shared by the leader and follower
/// read paths so both answer identically.
fn queue_position_in(
    arbiter: &FloorArbiter,
    group: GroupId,
    member: MemberId,
) -> Result<Option<usize>> {
    let token = arbiter.token(group)?;
    if token.holder() == Some(member) {
        return Ok(Some(0));
    }
    Ok(token.queue().position(|m| m == member).map(|i| i + 1))
}

/// The concurrent heart of the control plane: the shared [`Directory`] and
/// the per-shard pipelines. Shared via `Arc` by every [`Gateway`] and the
/// owning [`Cluster`].
#[derive(Debug)]
pub(crate) struct Core {
    config: ClusterConfig,
    pub(crate) directory: Directory,
    /// Every gateway's mailbox, at its telemetry index (`gateway.N.*`). A
    /// slot is reused once its gateway and in-flight commands are gone.
    mailboxes: Mutex<Vec<Weak<Mailbox>>>,
    workers: RwLock<Vec<ShardWorker>>,
    /// Whether callers step an idle shard on their own thread: when the
    /// process can run on one CPU (the affinity mask counts), observed once
    /// at construction.
    step_inline: bool,
    /// Groups frozen by an in-flight live handoff, each with the streamed
    /// submissions that arrived during its frozen window. Presence of the
    /// key is the routing-level freeze; the ops are re-driven through the
    /// normal submit path when the handoff commits or aborts.
    ///
    /// An `RwLock` on purpose: the submit paths hold a *read* guard across
    /// the hand-off to the shard (readers never contend with each other, so
    /// multi-gateway ingest keeps scaling), while `freeze_routing` takes the
    /// *write* lock — which therefore cannot be acquired until every
    /// submission that passed the not-frozen check has been queued or
    /// applied. That ordering is what makes the freeze race-free: a racing
    /// submission either parks, or reaches the shard ahead of the prepare
    /// command and is reflected in the export.
    parked: RwLock<BTreeMap<GlobalGroupId, Vec<ParkedOp>>>,
    /// Cluster-wide metrics registry, span sampler and span log, shared with
    /// every gateway and worker (see the `instrument` module for the metric
    /// namespace).
    pub(crate) telemetry: ClusterTelemetry,
}

impl Core {
    pub(crate) fn new(config: ClusterConfig) -> Self {
        let one_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        Core::build(config, one_cpu)
    }

    /// [`Core::new`] with the CPU observation made by the caller.
    pub(crate) fn build(config: ClusterConfig, step_inline: bool) -> Self {
        let mut core = Core {
            config,
            directory: Directory::new(HashRing::new(config.shards, config.vnodes)),
            mailboxes: Mutex::default(),
            workers: RwLock::default(),
            step_inline,
            parked: RwLock::default(),
            telemetry: ClusterTelemetry::new(config.trace_sampling),
        };
        let workers = (0..config.shards).map(|i| core.spawn_worker(ShardId(i)));
        core.workers = RwLock::new(workers.collect());
        core
    }

    /// Builds shard `id` under this cluster's durability policy and the
    /// pipeline that owns it.
    fn spawn_worker(&self, id: ShardId) -> ShardWorker {
        let config = &self.config;
        let mut shard = Shard::new(id, config.snapshot_every, config.dedup_window);
        shard.set_snapshot_policy(config.snapshot_every_bytes, config.snapshot_chain);
        shard.set_metrics(self.telemetry.shard(id.0));
        ShardWorker::spawn(shard, config, &self.telemetry, self.step_inline)
    }

    /// Runs `f` with `shard`'s worker handle. Panics for an out-of-range id
    /// (shard ids come from this cluster).
    pub(crate) fn with_worker<R>(&self, shard: ShardId, f: impl FnOnce(&ShardWorker) -> R) -> R {
        let workers = read(&self.workers);
        let worker = workers.get(shard.0);
        f(worker.unwrap_or_else(|| panic!("shard {shard} out of range")))
    }

    /// A new gateway's mailbox, at the lowest free telemetry index.
    pub(crate) fn new_mailbox(&self) -> Arc<Mailbox> {
        let mut mailboxes = lock(&self.mailboxes);
        let free = mailboxes.iter().position(|m| m.strong_count() == 0);
        let index = free.unwrap_or_else(|| {
            mailboxes.push(Weak::new());
            mailboxes.len() - 1
        });
        let mailbox = Arc::new(Mailbox::new(index as u32));
        mailboxes[index] = Arc::downgrade(&mailbox);
        mailbox
    }

    /// Answers a submission on its reply route without involving a shard —
    /// the path for routing errors and shed submissions.
    fn answer(&self, to: &ReplyTo, reply: Reply) {
        match to {
            ReplyTo::Gateway(mailbox) => mailbox.deliver([reply]),
            ReplyTo::Direct(tx) => {
                let _ = tx.send(reply);
            }
        }
    }

    /// Answers an ingest command `shard`'s full queue handed back under
    /// [`OverloadPolicy::Shed`] with [`ClusterError::Overloaded`] — nothing
    /// is ever dropped silently.
    fn shed(&self, shard: ShardId, rejected: ShardCommand) {
        let ShardCommand::Ingest { seq, op, reply, .. } = rejected else {
            return;
        };
        self.telemetry.sheds.incr();
        let (session, group) = match op {
            LocalOp::Floor { group, .. } => (false, group),
            LocalOp::Session(event) => (true, event.group),
        };
        let error = ClusterError::Overloaded(shard);
        self.answer(
            &reply,
            Reply::failed(session, seq, group, Some(shard), error),
        );
    }

    pub(crate) fn shard_count(&self) -> usize {
        read(&self.workers).len()
    }

    /// Validates a caller-chosen placement target: shard ids the cluster
    /// hands out itself are always in range, one named from outside is not.
    fn known_target(&self, target: Option<ShardId>) -> Result<Option<ShardId>> {
        match target {
            Some(s) if s.0 >= self.shard_count() => Err(ClusterError::UnknownShard(s)),
            known => Ok(known),
        }
    }

    /// Runs `f` with `shard` and its replica set and returns its result;
    /// `kind` picks the barrier, worker-pinned or non-barrier fault path
    /// (see [`Control`]).
    fn control<R: Send + 'static>(
        &self,
        shard: ShardId,
        kind: Control,
        f: impl FnOnce(&mut Shard, &mut ReplicaSet) -> R + Send + 'static,
    ) -> R {
        self.with_worker(shard, |worker| worker.control(kind, f))
    }

    /// Runs `f` with exclusive access to `shard` as a control barrier — on
    /// the calling thread when the shard is idle — and returns its result
    /// (panics for an out-of-range id).
    pub(crate) fn with_shard<R: Send + 'static>(
        &self,
        shard: ShardId,
        f: impl FnOnce(&mut Shard) -> R + Send + 'static,
    ) -> R {
        self.control(shard, Control::Barrier, move |s, _| f(s))
    }

    /// Like [`Core::with_shard`] — plus the shard's replica set — but through
    /// the **non-barrier** [`Control::Fault`] path: the closure runs with
    /// the pipeline left exactly as it is — batches still parked
    /// mid-quorum-write — which is what lets an injected partition or
    /// corruption land *inside* a quorum write instead of between two fully
    /// settled batches.
    pub(crate) fn with_shard_fault<R: Send + 'static>(
        &self,
        shard: ShardId,
        f: impl FnOnce(&mut Shard, &mut ReplicaSet) -> R + Send + 'static,
    ) -> R {
        self.control(shard, Control::Fault, f)
    }

    /// Translates an op to the owning shard's local ids — by value, so a
    /// session payload moves into its event and is never cloned. The
    /// placement comes from the caller: the vectored path memoizes it per
    /// batch so consecutive ops against the same group pay one directory
    /// lookup, not one each.
    fn localize(&self, op: Op, placement: GroupPlacement) -> Result<(ShardId, LocalOp)> {
        let shard = placement.shard;
        let local = |member| self.directory.local_member(member, shard);
        let op = match op {
            Op::Floor(request) => LocalOp::Floor {
                group: request.group,
                request: FloorRequest {
                    group: placement.local,
                    member: local(request.member)?,
                    kind: match request.kind {
                        GlobalRequestKind::Speak => RequestKind::Speak,
                        GlobalRequestKind::ReleaseFloor => RequestKind::ReleaseFloor,
                        GlobalRequestKind::PassFloor { to } => {
                            RequestKind::PassFloor { to: local(to)? }
                        }
                        GlobalRequestKind::DirectContact { to } => {
                            RequestKind::DirectContact { to: local(to)? }
                        }
                    },
                },
            },
            Op::Session(op) => LocalOp::Session(SessionEvent {
                group: op.group,
                local_group: placement.local,
                from: op.from,
                local_from: local(op.from)?,
                kind: op.kind,
            }),
        };
        Ok((shard, op))
    }

    /// Hands one localized op to its shard; the reply will stream to
    /// `reply`. A full queue applies the [`OverloadPolicy`]: `Block` waits
    /// for space, `Shed` answers [`ClusterError::Overloaded`] on the reply
    /// route.
    fn enqueue(
        &self,
        shard: ShardId,
        seq: u64,
        op: LocalOp,
        reply: ReplyTo,
        mut span: Option<Box<TraceSpan>>,
    ) {
        let workers = read(&self.workers);
        if let Some(span) = &mut span {
            // Under `Block` the push below may wait for queue space; that
            // wait shows up in the enqueued→drained interval (it is all time
            // spent waiting for the shard).
            span.stamp(TraceStage::Enqueued);
        }
        let command = ShardCommand::Ingest {
            seq,
            op,
            reply,
            span,
        };
        for rejected in workers[shard.0].ingest(std::iter::once(command), self.config.overload) {
            self.shed(shard, rejected);
        }
    }

    /// Routes an op — floor request or session operation alike — to its
    /// shard's bounded queue under the given request id; the reply will
    /// stream to `reply`. An op for a group frozen by an in-flight handoff
    /// is parked and re-driven (still toward `reply`) after the handoff
    /// commits or aborts; a full queue blocks or sheds as [`Core::enqueue`]
    /// describes.
    ///
    /// The routing happens under the parking lot's read guard: a concurrent
    /// `freeze_routing` (write lock) cannot interleave between the
    /// not-frozen check and the hand-off to the shard, so every accepted
    /// submission either parks or lands ahead of the handoff's prepare
    /// command — never behind the freeze where it would bounce with
    /// [`ClusterError::GroupFrozen`]. (Holding the read guard across a
    /// `Block` wait, or across stepping the shard inline, is deadlock-free:
    /// stepping a shard never takes routing locks.)
    pub(crate) fn submit_as(&self, seq: u64, op: Op, reply: ReplyTo) -> Result<()> {
        // Sampled 1-in-N: almost every submission skips straight past this.
        let mut span = self.telemetry.begin_span(seq, op.label());
        if let (Some(span), ReplyTo::Gateway(mailbox)) = (&mut span, &reply) {
            span.set_gateway(mailbox.index());
        }
        let group = op.group();
        loop {
            {
                let parked = read(&self.parked);
                if !parked.contains_key(&group) {
                    let (shard, op) = self.localize(op, self.directory.placement(group)?)?;
                    self.enqueue(shard, seq, op, reply, span);
                    return Ok(());
                }
            }
            let mut parked = write(&self.parked);
            if let Some(waiting) = parked.get_mut(&group) {
                // The span (if any) does not wait out the handoff with the
                // op; a re-driven submission is traced as unsampled.
                self.telemetry.parked.incr();
                waiting.push(ParkedOp { seq, op, reply });
                return Ok(());
            }
            // Unfrozen between the two lock acquisitions: retry the send.
        }
    }

    /// Synchronously submits an op under the given request id and returns
    /// its whole released [`Reply`], so callers that track read-your-writes
    /// bounds (the gateways) can observe its commit position even when the
    /// outcome is an error.
    ///
    /// Unlike the streaming path, a frozen group fails fast with
    /// [`ClusterError::GroupFrozen`] instead of parking — a synchronous
    /// caller blocked on a parked decision could be the very thread that has
    /// to finish the handoff. The fail-fast is best-effort: a request that
    /// races the freeze itself may instead park and block until the handoff
    /// resolves, which is safe (the coordinator is necessarily another
    /// thread in that interleaving).
    pub(crate) fn request_raw(&self, seq: u64, op: Op) -> Result<Reply> {
        if read(&self.parked).contains_key(&op.group()) {
            return Err(ClusterError::GroupFrozen(op.group()));
        }
        let (tx, rx) = channel();
        self.submit_as(seq, op, ReplyTo::Direct(tx))?;
        rx.recv().map_err(|_| ClusterError::Disconnected)
    }

    // ----- follower-served reads ---------------------------------------------

    /// Attempts to serve a read of `shard` from one of its followers under a
    /// read-your-writes `bound`: a round-robin-picked follower serves iff its
    /// applied log position has reached the bound; otherwise (or with no
    /// followers at all) the caller falls back to the leader. The
    /// follower/forwarded split is recorded in the shard's
    /// `replica.follower_reads` / `replica.forwarded_reads` counters.
    fn try_follower_read<R>(
        &self,
        shard: ShardId,
        bound: u64,
        f: impl FnOnce(&FollowerCore) -> R,
    ) -> Option<R> {
        let workers = read(&self.workers);
        let worker = workers.get(shard.0)?;
        let followers = worker.followers();
        if followers.is_empty() {
            return None;
        }
        let pick = (self.directory.read_ticket() % followers.len() as u64) as usize;
        let mut core = lock_core(&followers[pick]);
        // Followers ack durability and apply lazily: drain the pending tail
        // so the state served (and the bound check) reflect everything this
        // follower durably holds.
        core.catch_up_for_read();
        if core.applied() >= bound {
            worker.replica_metrics().follower_reads.incr();
            Some(f(&core))
        } else {
            worker.replica_metrics().forwarded_reads.incr();
            None
        }
    }

    /// The recorded session state of a group under a read-your-writes bound:
    /// served from a follower when one has applied up to `bound`, else from
    /// the leader.
    pub(crate) fn session_view_bounded(
        &self,
        group: GlobalGroupId,
        bound: u64,
    ) -> Result<GroupSession> {
        let placement = self.directory.placement(group)?;
        if let Some(view) =
            self.try_follower_read(placement.shard, bound, |c| c.session_view(group))
        {
            return Ok(view);
        }
        Ok(self.with_shard(placement.shard, move |s| s.session().view(group)))
    }

    /// A shard health view under a read-your-writes bound. A follower-served
    /// view reports the *follower's* live state (see
    /// `FollowerCore::view` for which leader-only storage fields read as
    /// zero); the leader fallback is the exact [`Core::shard_view`].
    pub(crate) fn shard_view_bounded(&self, shard: ShardId, bound: u64) -> ShardView {
        if let Some(view) = self.try_follower_read(shard, bound, |c| c.view(shard)) {
            return view;
        }
        self.shard_view(shard)
    }

    /// A member's floor-token queue position in a group, under a
    /// read-your-writes bound: `Some(0)` when the member holds the floor,
    /// `Some(n)` when they wait at position `n` (1 = next), `None` when they
    /// are neither. The hot poll of an Equal Control session — every waiting
    /// student asking "how far am I?" — which is exactly the read that must
    /// scale with followers instead of contending on the owning leader.
    pub(crate) fn queue_position_bounded(
        &self,
        group: GlobalGroupId,
        member: GlobalMemberId,
        bound: u64,
    ) -> Result<Option<usize>> {
        let placement = self.directory.placement(group)?;
        let local_group = placement.local;
        let local_member = self.directory.local_member(member, placement.shard)?;
        if let Some(result) = self.try_follower_read(placement.shard, bound, |c| {
            queue_position_in(c.arbiter(), local_group, local_member)
        }) {
            return result;
        }
        self.with_shard(placement.shard, move |s| {
            queue_position_in(s.arbiter(), local_group, local_member)
        })
    }

    // ----- vectored (batched) submission -------------------------------------

    /// Submits a whole batch of ops — any mix of floor requests and session
    /// operations — with amortized costs: one request-id lease for the batch
    /// (allocated by the calling gateway so its ids stay monotone across
    /// interleaved scalar submissions), one pass over the routing directory,
    /// one parking-lot guard, and one queue reservation per owning shard.
    /// Returns the batch's request ids (`start_seq..start_seq + len`) in
    /// submission order; a group's ops reach its shard in that order,
    /// whatever their kinds.
    ///
    /// Every returned id resolves to exactly one reply on `reply` — a real
    /// arbitration, [`ClusterError::Overloaded`] if its shard shed it, or
    /// the routing error that made it unroutable — so callers can account
    /// for batches exactly. Ops for frozen groups park individually and
    /// re-drive after the handoff, like single submissions.
    pub(crate) fn submit_batch_as(
        &self,
        start_seq: u64,
        ops: impl ExactSizeIterator<Item = Op>,
        reply: &ReplyTo,
    ) -> Vec<u64> {
        let n = ops.len() as u64;
        let seqs: Vec<u64> = (start_seq..start_seq + n).collect();
        // One sampling-tick reservation covers the whole batch, so the
        // per-op trace decision below is pure arithmetic.
        let trace_run = self.telemetry.reserve_span_run(n);
        let mut per_shard: BTreeMap<ShardId, Vec<ShardCommand>> = BTreeMap::new();
        // Ops that must park (their group is frozen) fall back to the
        // single-submission path below, outside the read guard.
        let mut frozen: Vec<(u64, Op)> = Vec::new();
        {
            let parked = read(&self.parked);
            // The "one directory pass": batches are typically group-major
            // (a burst of ops against the same group), so a one-entry
            // placement cache removes most striped read-lock lookups.
            let mut last: Option<(GlobalGroupId, GroupPlacement)> = None;
            for (&seq, op) in seqs.iter().zip(ops) {
                let (group, session, label) = (op.group(), op.is_session(), op.label());
                if parked.contains_key(&group) {
                    frozen.push((seq, op));
                    continue;
                }
                let placement = match last {
                    Some((cached, placement)) if cached == group => Ok(placement),
                    _ => self.directory.placement(group).inspect(|&p| {
                        last = Some((group, p));
                    }),
                };
                match placement.and_then(|p| self.localize(op, p)) {
                    Ok((shard, op)) => {
                        // Sampled spans ride inside the batch; "enqueued" is
                        // stamped at command build, one reservation before
                        // the actual push.
                        let span = self
                            .telemetry
                            .begin_span_in_run(trace_run, seq - start_seq, seq, label)
                            .map(|mut span| {
                                if let ReplyTo::Gateway(mailbox) = reply {
                                    span.set_gateway(mailbox.index());
                                }
                                span.stamp(TraceStage::Enqueued);
                                span
                            });
                        per_shard
                            .entry(shard)
                            .or_default()
                            .push(ShardCommand::Ingest {
                                seq,
                                op,
                                reply: reply.clone(),
                                span,
                            });
                    }
                    Err(e) => self.answer(reply, Reply::failed(session, seq, group, None, e)),
                }
            }
            // One queue reservation (or one inline step) per shard, still
            // under the read guard so a racing freeze orders before or after
            // the whole batch.
            let workers = read(&self.workers);
            for (shard, commands) in per_shard {
                for rejected in workers[shard.0].ingest(commands.into_iter(), self.config.overload)
                {
                    self.shed(shard, rejected);
                }
            }
        }
        for (seq, op) in frozen {
            let (group, session) = (op.group(), op.is_session());
            if let Err(e) = self.submit_as(seq, op, reply.clone()) {
                self.answer(reply, Reply::failed(session, seq, group, None, e));
            }
        }
        seqs
    }

    // ----- membership and groups -------------------------------------------

    /// Creates an empty group on `shard` and returns where it lives (its new
    /// local id); placing it in the directory is the caller's step.
    fn create_group_on(
        &self,
        shard: ShardId,
        name: String,
        mode: FcmMode,
        parent: Option<GlobalGroupId>,
    ) -> Result<GroupPlacement> {
        let outcome = self.with_shard(shard, move |s| {
            s.apply(ArbiterEvent::CreateGroup { name, mode })
        })?;
        let EventOutcome::GroupCreated(local) = outcome else {
            unreachable!("CreateGroup yields GroupCreated");
        };
        Ok(GroupPlacement {
            shard,
            local,
            parent,
        })
    }

    pub(crate) fn create_group(&self, name: String, mode: FcmMode) -> Result<GlobalGroupId> {
        let id = GlobalGroupId(self.directory.alloc_group());
        let shard = self.directory.shard_for(id.0);
        let placement = self.create_group_on(shard, name, mode, None)?;
        self.directory.place_group(id, placement);
        Ok(id)
    }

    /// Ensures the member exists on the shard (instantiating it into `group`
    /// if it is new there) and returns its local id.
    ///
    /// The member's directory stripe stays write-locked across the AddMember
    /// round-trip so two gateways racing to instantiate the same member
    /// cannot register it twice; stepping a shard never takes directory locks,
    /// so no cycle can form.
    fn ensure_on_shard(
        &self,
        member: GlobalMemberId,
        shard: ShardId,
        group: GroupId,
    ) -> Result<MemberId> {
        let stripe = self.directory.member_stripe(member);
        let mut guard = write(stripe);
        let record: &mut MemberRecord =
            entry_mut(&mut guard, member.0).ok_or(ClusterError::UnknownMember(member))?;
        if let Some(local) = record.local(shard) {
            drop(guard);
            self.with_shard(shard, move |s| {
                s.apply(ArbiterEvent::JoinGroup {
                    group,
                    member: local,
                })
            })?;
            return Ok(local);
        }
        let template = record.template.clone();
        let outcome = self.with_shard(shard, move |s| {
            s.apply(ArbiterEvent::AddMember {
                group,
                member: template,
            })
        })?;
        let EventOutcome::MemberAdded(local) = outcome else {
            unreachable!("AddMember yields MemberAdded");
        };
        // Reverse mapping first: the invariant "every forward `locals` entry
        // has its reverse mapping" must hold at every instant a concurrent
        // `check_invariants` can observe.
        self.directory.record_local(shard, local, member);
        record.set_local(shard, local);
        drop(guard);
        Ok(local)
    }

    pub(crate) fn join_group(&self, group: GlobalGroupId, member: GlobalMemberId) -> Result<()> {
        // Membership mutations must not slip into a handoff's frozen window:
        // the export captures the roster, so a join applied on the source
        // mid-handoff would be lost by the commit's install/purge. Frozen
        // groups fail fast and retryable, like the synchronous request
        // paths; the read guard stays held across the shard round-trip so
        // a freeze racing this join must wait until the mutation is ordered
        // before the handoff's prepare command (and thus in the export).
        let parked = read(&self.parked);
        if parked.contains_key(&group) {
            return Err(ClusterError::GroupFrozen(group));
        }
        let placement = self.directory.placement(group)?;
        self.ensure_on_shard(member, placement.shard, placement.local)?;
        drop(parked);
        Ok(())
    }

    pub(crate) fn leave_group(&self, group: GlobalGroupId, member: GlobalMemberId) -> Result<()> {
        // Mirrors `join_group`: a leave slipping into the frozen window
        // would be resurrected by the commit's install on the destination.
        let parked = read(&self.parked);
        if parked.contains_key(&group) {
            return Err(ClusterError::GroupFrozen(group));
        }
        let placement = self.directory.placement(group)?;
        let local = self.directory.local_member(member, placement.shard)?;
        self.with_shard(placement.shard, move |s| {
            s.apply(ArbiterEvent::LeaveGroup {
                group: placement.local,
                member: local,
            })
        })?;
        drop(parked);
        Ok(())
    }

    // ----- cross-shard invitations -----------------------------------------

    pub(crate) fn invite(
        &self,
        parent: GlobalGroupId,
        from: GlobalMemberId,
        to: GlobalMemberId,
        mode: FcmMode,
        target: Option<ShardId>,
    ) -> Result<(GlobalGroupId, u64)> {
        let target = self.known_target(target)?;
        let parent_placement = self.directory.placement(parent)?;
        let parent_local = parent_placement.local;
        // Membership checks against the parent shard's arbiter.
        let locals = [
            self.directory.local_member(from, parent_placement.shard)?,
            self.directory.local_member(to, parent_placement.shard)?,
        ];
        self.with_shard(parent_placement.shard, move |s| -> Result<()> {
            let parent_group = s.arbiter().group(parent_local)?;
            for local in locals {
                if !parent_group.contains(local) {
                    return Err(ClusterError::Floor(dmps_floor::FloorError::NotAMember {
                        member: local,
                        group: parent_local,
                    }));
                }
            }
            Ok(())
        })?;
        let sub = GlobalGroupId(self.directory.alloc_group());
        let shard = target.unwrap_or_else(|| self.directory.shard_for(sub.0));
        let from_name = self.directory.member_name(from)?;
        let name = format!("{from_name}-{mode}");
        let placement = self.create_group_on(shard, name, mode, Some(parent))?;
        self.directory.place_group(sub, placement);
        // The inviter joins (and chairs, by first-join convention) the
        // sub-group immediately; the invitee joins on acceptance.
        self.ensure_on_shard(from, shard, placement.local)?;
        let invitation = self.directory.push_invitation(ClusterInvitation {
            from,
            to,
            subgroup: sub,
            status: InvitationStatus::Pending,
        });
        Ok((sub, invitation))
    }

    pub(crate) fn respond_invitation(
        &self,
        invitation: u64,
        responder: GlobalMemberId,
        accept: bool,
    ) -> Result<InvitationStatus> {
        // The invitations lock is held across the join so two racing answers
        // serialize; join only takes member-stripe and shard resources,
        // never the invitations lock again.
        self.directory
            .with_invitations_mut(|invitations| -> Result<InvitationStatus> {
                let inv = invitations
                    .get(invitation as usize)
                    .cloned()
                    .ok_or(ClusterError::UnknownInvitation(invitation))?;
                if inv.to != responder {
                    return Err(ClusterError::NotTheInvitee(responder));
                }
                if inv.status != InvitationStatus::Pending {
                    return Err(ClusterError::AlreadyAnswered(invitation));
                }
                let status = if accept {
                    self.join_group(inv.subgroup, responder)?;
                    InvitationStatus::Accepted
                } else {
                    InvitationStatus::Declined
                };
                invitations[invitation as usize].status = status;
                Ok(status)
            })
    }

    // ----- failure, recovery, scale-out ------------------------------------

    pub(crate) fn is_shard_active(&self, shard: ShardId) -> bool {
        self.with_shard(shard, |s| s.is_active())
    }

    pub(crate) fn shard_view(&self, shard: ShardId) -> ShardView {
        self.with_shard(shard, |s| s.view())
    }

    pub(crate) fn add_shard(&self) -> ShardId {
        let mut workers = write(&self.workers);
        let id = self.directory.grow_ring();
        debug_assert_eq!(id.0, workers.len());
        workers.push(self.spawn_worker(id));
        id
    }

    /// Every group whose current placement differs from its ring placement,
    /// with that ring placement — the candidates of a rebalancing pass.
    fn displaced_groups(&self) -> Vec<(GlobalGroupId, ShardId)> {
        self.directory
            .placements_snapshot()
            .into_iter()
            .filter_map(|(g, p)| {
                let target = self.directory.shard_for(g.0);
                (target != p.shard).then_some((g, target))
            })
            .collect()
    }

    /// One rebalancing pass: every ring-displaced group is prepared toward
    /// its ring placement and committed. With `idle_only`, a group whose
    /// frozen export shows floor activity — token held or requesters
    /// queued — is aborted instead, so the check is atomic with the move. A
    /// group that does not move is serving on its source again and lands in
    /// `deferred`.
    fn rebalance(&self, idle_only: bool) -> RebalanceReport {
        let mut report = RebalanceReport::default();
        for (group, target) in self.displaced_groups() {
            let moved = match self.handoff_prepare(group, Some(target)) {
                Ok(ticket)
                    if idle_only && (ticket.holder.is_some() || !ticket.queue.is_empty()) =>
                {
                    let _ = self.handoff_abort(ticket);
                    false
                }
                // `handoff_commit` aborts internally on failure.
                Ok(ticket) => self.handoff_commit(ticket).is_ok(),
                Err(_) => false,
            };
            if moved {
                report.migrated.push(group);
            } else {
                report.deferred.push(group);
            }
        }
        report
    }

    // ----- live handoff (two-phase migration of active groups) --------------

    /// Establishes the routing-level freeze: submissions for `group` park
    /// from this instant until [`Core::unfreeze_and_redrive`]. Returns
    /// `false` when the group is already frozen by another handoff — the
    /// caller must then back off *without* unfreezing, or it would clobber
    /// the in-flight handoff's freeze (and strand or leak its parked ops).
    fn freeze_routing(&self, group: GlobalGroupId) -> bool {
        let mut parked = write(&self.parked);
        if parked.contains_key(&group) {
            return false;
        }
        parked.insert(group, Vec::new());
        true
    }

    /// Lifts the routing freeze and re-drives every parked submission, in
    /// arrival order. Re-driving re-resolves the directory, so after a
    /// commit the ops land on the new owner, after an abort back on the
    /// source. Routing failures — and sheds, if the destination queue is
    /// full under [`OverloadPolicy::Shed`] — are answered on the op's own
    /// reply route so no submission is ever lost silently.
    ///
    /// The write guard stays held across the whole re-drive: a fresh
    /// submission for the group cannot pass the not-frozen check (its read
    /// lock waits) until every parked op has reached its shard, so
    /// per-gateway arrival order is preserved across the frozen window —
    /// without this, a post-unfreeze submission could overtake older parked
    /// ops. Holding it across a `Block` wait on a full queue is safe for
    /// the same reason every submit-side wait is: stepping a shard never
    /// takes routing locks, so the queue always drains.
    fn unfreeze_and_redrive(&self, group: GlobalGroupId) {
        let mut parked = write(&self.parked);
        for ParkedOp { seq, op, reply } in parked.remove(&group).unwrap_or_default() {
            self.telemetry.redriven.incr();
            let session = op.is_session();
            let routed = self.directory.placement(group);
            // Re-driven ops never carry a span: the frozen wait would
            // dominate the pipeline-stage intervals the latency histograms
            // are meant to measure.
            match routed.and_then(|p| self.localize(op, p)) {
                Ok((shard, op)) => self.enqueue(shard, seq, op, reply, None),
                Err(e) => self.answer(&reply, Reply::failed(session, seq, group, None, e)),
            }
        }
    }

    /// Phase 1: freezes the group on its source shard and exports its live
    /// state (token holder + queue, roster, session content, journal
    /// slices), translated to global ids.
    pub(crate) fn handoff_prepare(
        &self,
        group: GlobalGroupId,
        target: Option<ShardId>,
    ) -> Result<HandoffTicket> {
        let target = self.known_target(target)?;
        let placement = self.directory.placement(group)?;
        let target = target.unwrap_or_else(|| self.directory.shard_for(group.0));
        if target == placement.shard {
            return Err(ClusterError::HandoffUnnecessary(group));
        }
        if !self.is_shard_active(target) {
            return Err(ClusterError::ShardDown(target));
        }
        // Routing freeze first, then the shard-side freeze: every submission
        // racing the handoff either parks here or reaches the source shard
        // *before* its prepare command and is therefore reflected in the
        // export.
        if !self.freeze_routing(group) {
            return Err(ClusterError::GroupFrozen(group));
        }
        let local = placement.local;
        let export = match self.with_shard(placement.shard, move |s| {
            match s.handoff_prepare(group, local) {
                // An orphaned durable freeze: a crashed handoff's prepare
                // was replayed by recovery, but no coordinator is in flight
                // (we just won the routing freeze, so any previous handoff
                // is resolved or its coordinator is gone). Lift it and
                // retry so the group cannot stay wedged forever.
                Err(ClusterError::GroupFrozen(_)) => {
                    s.handoff_abort(group)?;
                    s.handoff_prepare(group, local)
                }
                other => other,
            }
        }) {
            Ok(export) => export,
            Err(e) => {
                self.unfreeze_and_redrive(group);
                return Err(e);
            }
        };
        // Translate the exported dense ids to global ids. Every shard-local
        // member has a reverse directory mapping (a cluster invariant), so a
        // miss here is a bug, not a recoverable condition.
        let global = |m: MemberId| {
            self.directory
                .global_of(placement.shard, m)
                .expect("exported member has a reverse directory mapping")
        };
        let floor = &export.floor;
        Ok(HandoffTicket {
            group,
            source: placement.shard,
            source_local: local,
            target,
            parent: placement.parent,
            roster: floor.members.iter().copied().map(global).collect(),
            chair: floor.chair.map(global),
            holder: floor.token.holder().map(global),
            queue: floor.token.queue().map(global).collect(),
            export,
        })
    }

    /// Installs the ticket's state on the target shard: the group and its
    /// roster through the ordinary logged floor events, then token, chair,
    /// session content and journal slices in one [`Shard::handoff_install`]
    /// step. Returns the group's placement on the target.
    ///
    /// Takes the ticket mutably so the bulk payloads (session content,
    /// journal slices) are *moved* into the install instead of deep-copied;
    /// the source-side floor export the retire step still needs stays
    /// behind.
    fn install_handoff(&self, ticket: &mut HandoffTicket) -> Result<GroupPlacement> {
        let (group, target) = (ticket.group, ticket.target);
        let source = &mut ticket.export;
        let (name, mode) = (source.floor.name.clone(), source.floor.mode);
        let placement = self.create_group_on(target, name, mode, ticket.parent)?;
        let local = placement.local;
        let mut members = ticket
            .roster
            .iter()
            .map(|&m| self.ensure_on_shard(m, target, local))
            .collect::<Result<Vec<_>>>()?;
        members.sort_unstable();
        let on_target = |m| self.directory.local_member(m, target);
        let holder = ticket.holder.map(on_target).transpose()?;
        let queue = ticket.queue.iter().map(|&m| on_target(m));
        let token = FloorToken::from_parts(
            holder,
            queue.collect::<Result<Vec<_>>>()?,
            source.floor.token.grant_count(),
        );
        let export = HandoffExport {
            floor: GroupFloorExport {
                name: std::mem::take(&mut source.floor.name),
                mode: source.floor.mode,
                members,
                chair: ticket.chair.map(on_target).transpose()?,
                token,
            },
            content: std::mem::take(&mut source.content),
            floor_journal: std::mem::take(&mut source.floor_journal),
            session_journal: std::mem::take(&mut source.session_journal),
            pinned_seq: source.pinned_seq,
        };
        self.with_shard(target, move |s| s.handoff_install(group, local, export))?;
        Ok(placement)
    }

    /// Phase 2: installs on the destination, flips the directory placement,
    /// retires the source copy in one [`Shard::handoff_commit_source`] step,
    /// and re-drives parked submissions. On a destination failure the
    /// handoff aborts internally (the source unfreezes and resumes serving)
    /// and the error is returned.
    pub(crate) fn handoff_commit(&self, mut ticket: HandoffTicket) -> Result<()> {
        let group = ticket.group;
        let placement = match self.install_handoff(&mut ticket) {
            Ok(placement) => placement,
            Err(e) => {
                // Destination failure: abort back to the source. A partially
                // installed destination group is an orphan its directory
                // never points at — harmless, and its shard was down anyway.
                let _ = self.handoff_abort(ticket);
                return Err(e);
            }
        };
        // The placement swap: from this instant the directory routes the
        // group to its new owner. Parked ops re-driven below (and every later
        // submission) land there.
        self.directory.place_group(group, placement);
        // Best-effort: a source that crashed mid-handoff keeps its frozen
        // husk (it fails closed until recovery; the directory no longer
        // routes to it), and a later recovery replays the freeze without a
        // commit — still exactly one serving copy.
        let (source, source_local) = (ticket.source, ticket.source_local);
        let members = ticket.export.floor.members;
        let _ = self.with_shard(source, move |s| {
            s.handoff_commit_source(group, source_local, &members)
        });
        self.unfreeze_and_redrive(group);
        Ok(())
    }

    /// Abandons a prepared handoff: lifts the source freeze (logged) and
    /// re-drives parked submissions back to the source.
    pub(crate) fn handoff_abort(&self, ticket: HandoffTicket) -> Result<()> {
        let (group, source) = (ticket.group, ticket.source);
        let result = self.with_shard(source, move |s| s.handoff_abort(group));
        self.unfreeze_and_redrive(group);
        result
    }

    // ----- invariants -------------------------------------------------------

    pub(crate) fn check_invariants(&self) -> std::result::Result<(), String> {
        // Snapshot order matters under concurrent mutation: directory
        // snapshots are taken *before* the arbiters are cloned. A group's
        // arbiter-side state always exists before its directory entry (and a
        // member's reverse mapping before its forward entry), so everything
        // the snapshots reference is guaranteed to be visible in the
        // later-cloned arbiters — a concurrent `create_group`/`join_group`
        // can therefore never produce a spurious violation.
        let placements = self.directory.placements_snapshot();
        let members = self.directory.members_snapshot();
        let shard_count = self.shard_count();
        let mut arbiters = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let shard = ShardId(i);
            arbiters.push((
                shard,
                self.with_shard(shard, |s| (s.is_active(), s.arbiter().clone())),
            ));
        }
        for (shard, (active, arbiter)) in &arbiters {
            if *active {
                arbiter
                    .check_invariants()
                    .map_err(|e| format!("{shard}: {e}"))?;
            }
        }
        for (g, p) in placements {
            // `get`, not an index: a shard added after the placements
            // snapshot would be missing from `arbiters`.
            let Some((_, (active, arbiter))) = arbiters.get(p.shard.0) else {
                continue;
            };
            if *active && arbiter.group(p.local).is_err() {
                return Err(format!(
                    "directory entry {g} points at missing {:?}",
                    p.local
                ));
            }
        }
        for (m, locals) in members {
            for (shard, local) in locals {
                if self.directory.global_of(shard, local) != Some(m) {
                    return Err(format!("reverse directory mismatch for {m} on {shard}"));
                }
            }
        }
        Ok(())
    }
}

/// The sharded multi-arbiter control plane: the owner/admin handle.
///
/// It owns the shard pipelines and carries the operator's surface: topology,
/// faults, leader-side inspection, telemetry. Participant traffic belongs to
/// [`Gateway`]: the cluster lends the one it owns through `Deref`, and
/// [`Cluster::gateway`] hands out more — each shares this cluster's directory
/// and shard pipelines but streams decisions to its own channel.
///
/// ```
/// use dmps_cluster::{Cluster, ClusterConfig, GlobalRequest};
/// use dmps_floor::{FcmMode, Member, Role};
///
/// let mut cluster = Cluster::new(ClusterConfig::with_shards(2));
/// // Participant ops resolve to the lent gateway's methods...
/// let g = cluster.create_group("lecture", FcmMode::EqualControl).unwrap();
/// let m = cluster.register_member(Member::new("t", Role::Chair));
/// cluster.join_group(g, m).unwrap();
/// let seqs = cluster.submit_batch(&[
///     GlobalRequest::speak(g, m),
///     GlobalRequest::release_floor(g, m),
/// ]);
/// let decisions = cluster.collect_decisions(seqs.len()).unwrap();
/// assert_eq!(decisions[0].seq, seqs[0]);
/// assert!(decisions.iter().all(|d| d.outcome.as_ref().unwrap().is_granted()));
/// // ...faults and recovery are the cluster's own.
/// let shard = cluster.placement(g).unwrap().shard;
/// cluster.crash_shard(shard);
/// assert!(!cluster.is_shard_active(shard));
/// cluster.recover_shard(shard).unwrap();
/// cluster.check_invariants().unwrap();
/// ```
#[derive(Debug)]
pub struct Cluster {
    pub(crate) core: Arc<Core>,
    /// The gateway this cluster lends through `Deref` (the network
    /// simulator's shard hosts apply ops through it too).
    pub(crate) gateway: Gateway,
}

impl std::ops::Deref for Cluster {
    type Target = Gateway;

    /// The cluster's own gateway: every participant op called on a
    /// `Cluster` is this gateway's method.
    fn deref(&self) -> &Gateway {
        &self.gateway
    }
}

impl Cluster {
    /// Builds a cluster of `config.shards` active shards, spawning one
    /// pipeline — and worker thread — per shard.
    pub fn new(config: ClusterConfig) -> Self {
        let core = Arc::new(Core::new(config));
        let gateway = Gateway::new(core.clone());
        Cluster { core, gateway }
    }

    /// A fresh concurrent ingest handle onto this cluster: a clone of the
    /// lent gateway, with its own decision stream and its own
    /// read-your-writes bound (clone it for more).
    pub fn gateway(&self) -> Gateway {
        self.gateway.clone()
    }

    // ----- introspection ----------------------------------------------------

    /// Number of shards (active or failed).
    pub fn shard_count(&self) -> usize {
        self.core.shard_count()
    }

    /// Number of groups in the directory.
    pub fn group_count(&self) -> usize {
        self.core.directory.group_count()
    }

    /// Number of registered members.
    pub fn member_count(&self) -> usize {
        self.core.directory.member_count()
    }

    /// An owned copy of the shard's arbiter, for inspection. The shard's
    /// state lives in its pipeline, so inspection clones it out rather
    /// than borrowing.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id (shard ids come from this cluster).
    pub fn arbiter(&self, shard: ShardId) -> FloorArbiter {
        self.inspect_shard(shard, |s| s.arbiter().clone())
    }

    /// Runs `f` on one shard's committed state and returns its result; the
    /// shard takes no other command until `f` returns.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id, and resumes a panic of `f` — after
    /// which the shard is down until [`Cluster::recover_shard`].
    pub fn inspect_shard<R: Send + 'static>(
        &self,
        shard: ShardId,
        f: impl FnOnce(&Shard) -> R + Send + 'static,
    ) -> R {
        self.core.with_shard(shard, move |s| f(s))
    }

    /// Health and counters of one shard.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id (shard ids come from this cluster).
    pub fn shard_view(&self, shard: ShardId) -> ShardView {
        self.core.shard_view(shard)
    }

    /// The member's dense id on a shard, if instantiated there.
    ///
    /// # Errors
    ///
    /// Returns unknown-member / not-on-shard errors.
    pub fn local_member(&self, member: GlobalMemberId, shard: ShardId) -> Result<MemberId> {
        self.core.directory.local_member(member, shard)
    }

    /// The global member a shard-local id belongs to, if instantiated there
    /// (the reverse of [`Cluster::local_member`]).
    pub fn global_member(&self, shard: ShardId, local: MemberId) -> Option<GlobalMemberId> {
        self.core.directory.global_of(shard, local)
    }

    /// Aggregate floor statistics per shard.
    pub fn shard_stats(&self) -> Vec<(ShardId, ArbiterStats)> {
        (0..self.shard_count())
            .map(|i| (ShardId(i), self.shard_view(ShardId(i)).stats))
            .collect()
    }

    /// Every group owned by a shard.
    pub fn groups_on(&self, shard: ShardId) -> Vec<GlobalGroupId> {
        self.core.directory.groups_on(shard)
    }

    /// Updates the resource snapshot of one shard (each shard host measures
    /// its own Network × CPU × Memory availability).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed.
    pub fn set_shard_resource(&mut self, shard: ShardId, resource: Resource) -> Result<()> {
        self.core.with_shard(shard, move |s| {
            s.apply(ArbiterEvent::SetResource { resource })
        })?;
        Ok(())
    }

    /// Restarts the peak-occupancy window of one shard's ingest queue:
    /// `peak_queued` drops to the current depth and grows from there.
    /// Sampling [`Gateway::queue_stats`] and then resetting gives long-lived
    /// clusters per-window peaks instead of one all-time high-water mark.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id (shard ids come from this cluster).
    pub fn reset_queue_peak(&self, shard: ShardId) {
        self.core.with_worker(shard, ShardWorker::reset_peak);
    }

    // ----- observability ----------------------------------------------------

    /// The cluster-wide metrics registry: lock-free counters and gauges,
    /// log-bucketed latency histograms and bounded time-series under stable
    /// names (`cluster.submit_latency_ns`, `cluster.shard.N.queue_depth`,
    /// `gateway.G.submit_batch_size`, …). Shared with every gateway and
    /// shard pipeline, so it reflects the live cluster at any moment.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.core.telemetry.registry)
    }

    /// The registry rendered as an aligned human-readable table (one metric
    /// per line, sorted by name).
    pub fn metrics_report(&self) -> String {
        self.core.telemetry.registry.to_table()
    }

    /// The registry rendered as a JSON object keyed by metric name.
    pub fn metrics_json(&self) -> String {
        self.core.telemetry.registry.to_json()
    }

    /// The most recent completed pipeline trace spans (oldest first), each
    /// stamped `submitted → enqueued → drained → committed → replied`.
    /// Empty unless [`ClusterConfig::trace_sampling`] is non-zero.
    pub fn recent_spans(&self) -> Vec<TraceSpan> {
        self.core.telemetry.spans.snapshot()
    }

    // ----- failure and recovery --------------------------------------------

    /// Crashes a shard's primary process. Requests routed to the shard fail
    /// with [`ClusterError::ShardDown`] until recovery.
    pub fn crash_shard(&mut self, shard: ShardId) {
        self.core.control(shard, Control::Pinned, |s, _| s.crash());
    }

    /// A standby recovers the shard from its snapshot + log. With followers
    /// configured this promotes the most caught-up replica, bumping the
    /// shard's leader epoch so a partitioned-away old leader is fenced; a
    /// checksum-corrupt leader copy is repaired from the quorum instead of
    /// aborting.
    ///
    /// # Errors
    ///
    /// Propagates durable-state damage replication could not repair —
    /// checksum mismatches as [`ClusterError::Corrupt`], replay divergence
    /// as [`ClusterError::Floor`]. The shard stays quarantined (down, not
    /// serving) in that case.
    pub fn recover_shard(&mut self, shard: ShardId) -> Result<()> {
        // Promotion needs both halves: the shard and its replica set.
        self.core
            .control(shard, Control::Pinned, |s, r| r.promote(s))
    }

    /// Whether a shard is serving.
    pub fn is_shard_active(&self, shard: ShardId) -> bool {
        self.core.is_shard_active(shard)
    }

    /// Fault injection: partitions `shard`'s leader away from its whole
    /// follower fleet, *without* settling the pipeline first — batches
    /// already shipped stay parked mid-quorum-write, which is exactly the
    /// window a real partition hits. The leader's next forced quorum runs
    /// out its stall budget, answers every parked decision
    /// [`ClusterError::ShardDown`], and demotes itself; promote with
    /// [`Cluster::recover_shard`] (after [`Cluster::heal_shard_partition`])
    /// to fail over. A no-op on an unreplicated shard.
    pub fn isolate_shard_leader(&mut self, shard: ShardId) {
        self.core
            .with_shard_fault(shard, |_, r| r.partition_leader());
    }

    /// Fault injection: partitions `shard`'s leader away from one follower
    /// only (a no-op for an unknown one). The rest of the fleet keeps the
    /// quorum; the isolated follower is re-seeded by a resync once healed.
    pub fn isolate_shard_follower(&mut self, shard: ShardId, follower: usize) {
        self.core
            .with_shard_fault(shard, move |_, r| r.partition_follower(follower));
    }

    /// Heals every partition on `shard`'s replication network (the inverse
    /// of [`Cluster::isolate_shard_leader`] and
    /// [`Cluster::isolate_shard_follower`]).
    pub fn heal_shard_partition(&mut self, shard: ShardId) {
        self.core.with_shard_fault(shard, |_, r| r.heal_partition());
    }

    /// Fault injection: silently corrupts one class of `shard`'s durable
    /// state (see [`CorruptionTarget`]) so its stored checksum no longer
    /// matches — detection happens at the next recovery or resync, which
    /// repairs from the replica quorum (or quarantines the shard with
    /// [`ClusterError::Corrupt`] when unreplicated). Returns `false` when
    /// the target does not currently exist (e.g. no snapshot yet).
    pub fn inject_corruption(&mut self, shard: ShardId, target: CorruptionTarget) -> bool {
        self.core
            .with_shard_fault(shard, move |s, _| s.inject_corruption(target))
    }

    /// Fault injection: corrupts one **follower's** pending copy of `shard`'s
    /// newest replicated segment. The follower's next catch-up detects the
    /// mismatch, quarantines its copy and is re-shipped the segment by the
    /// leader. Returns `false` when that follower holds nothing to corrupt.
    pub fn inject_follower_corruption(&mut self, shard: ShardId, follower: usize) -> bool {
        self.core
            .with_shard_fault(shard, move |_, r| r.inject_follower_corruption(follower))
    }

    // ----- scale-out --------------------------------------------------------

    /// Adds a new shard (and its worker pipeline) to the ring and returns
    /// its id. Existing groups stay where they are until
    /// [`Cluster::rebalance_idle`] migrates the idle ones (and
    /// [`Cluster::rebalance_active`] live-migrates the rest); new groups
    /// hash across the enlarged ring immediately.
    pub fn add_shard(&mut self) -> ShardId {
        self.core.add_shard()
    }

    /// The live handoff of [`Cluster::rebalance_active`], filtered to idle
    /// groups: every group whose ring placement changed is prepared (frozen
    /// and exported), and committed only if the export shows an idle floor
    /// (no token holder, no queued requesters). A floor-active group is
    /// aborted back to its source and reported in `deferred`, as is any
    /// group whose source or target shard is down; `rebalance_active` drains
    /// that list.
    ///
    /// Because the idle check reads the frozen export, it is atomic with the
    /// move, and gateways may keep submitting: streamed submissions that
    /// arrive while a group is frozen park and are re-driven toward wherever
    /// it serves next. A moved group keeps its chair, its token's grant
    /// count, its session content and both journal slices.
    ///
    /// # Errors
    ///
    /// None today; per-group failures are reported via `deferred`.
    pub fn rebalance_idle(&mut self) -> Result<RebalanceReport> {
        Ok(self.core.rebalance(true))
    }

    /// Migrates **every** group whose ring placement changed — including
    /// floor-active ones with a held token and queued requesters — via the
    /// two-phase live handoff, draining the `deferred` list
    /// [`Cluster::rebalance_idle`] reports. Each group is moved
    /// prepare-then-commit:
    ///
    /// 1. **Prepare** freezes the group on its source shard (durably
    ///    logged): streamed submissions park at the routing layer,
    ///    synchronous requests fail fast with
    ///    [`ClusterError::GroupFrozen`], and the group's complete state —
    ///    live token (holder + FIFO queue), roster, session content, and
    ///    both dedup-journal slices — is exported at a pinned log position.
    /// 2. **Commit** installs that state on the destination through ordinary
    ///    logged events (so destination replay is exactly as deterministic
    ///    as normal traffic), flips the directory placement, retires the
    ///    source copy, and re-drives the parked submissions toward the new
    ///    owner.
    ///
    /// A handoff that cannot complete — source or destination down — aborts
    /// back to the source (the group unfreezes and keeps serving there) and
    /// the group lands in `deferred` for a later retry; on a healthy cluster
    /// `deferred` comes back empty. `FloorArbiter::check_invariants` holds
    /// on both shards after every phase: the freeze guarantees at most one
    /// serving copy of the token at any instant, which is exactly the
    /// paper's one-holder-per-group invariant extended across shards.
    ///
    /// ```
    /// use dmps_cluster::{Cluster, ClusterConfig, GlobalRequest};
    /// use dmps_floor::{FcmMode, Member, Role};
    ///
    /// let mut cluster = Cluster::new(ClusterConfig::with_shards(2));
    /// let g = cluster.create_group("lecture", FcmMode::EqualControl).unwrap();
    /// let teacher = cluster.register_member(Member::new("t", Role::Chair));
    /// let student = cluster.register_member(Member::new("s", Role::Participant));
    /// cluster.join_group(g, teacher).unwrap();
    /// cluster.join_group(g, student).unwrap();
    /// // The teacher holds the token and the student queues: the group is
    /// // floor-active, so `rebalance_idle` could never move it...
    /// assert!(cluster.request(GlobalRequest::speak(g, teacher)).unwrap().is_granted());
    /// cluster.request(GlobalRequest::speak(g, student)).unwrap();
    /// cluster.add_shard();
    /// // ...but the live handoff can, token state and queue intact.
    /// let report = cluster.rebalance_active().unwrap();
    /// assert!(report.deferred.is_empty());
    /// if report.migrated.contains(&g) {
    ///     // Releasing on the new shard promotes the queued student: the
    ///     // arbitration continues exactly where the source stopped.
    ///     let next = cluster.request(GlobalRequest::release_floor(g, teacher)).unwrap();
    ///     assert!(next.is_granted());
    /// }
    /// cluster.check_invariants().unwrap();
    /// ```
    ///
    /// # Errors
    ///
    /// None today; per-group failures are reported via `deferred`.
    pub fn rebalance_active(&mut self) -> Result<RebalanceReport> {
        Ok(self.core.rebalance(false))
    }

    // ----- phase-level handoff (advanced; `rebalance_active` drives both
    // phases for the common case) -------------------------------------------

    /// Phase 1 of a live group handoff: freezes `group` on its current shard
    /// and exports its complete live state toward `target` (defaults to the
    /// group's ring placement). While the returned ticket is outstanding,
    /// streamed submissions for the group park and synchronous requests fail
    /// fast with [`ClusterError::GroupFrozen`] — finish the handoff with
    /// [`Cluster::handoff_commit`] or [`Cluster::handoff_abort`].
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::HandoffUnnecessary`] when the group already
    /// lives on the target, [`ClusterError::GroupFrozen`] when a handoff is
    /// already in flight for it, and shard-down / unknown-id errors.
    pub fn handoff_prepare(
        &mut self,
        group: GlobalGroupId,
        target: Option<ShardId>,
    ) -> Result<HandoffTicket> {
        self.core.handoff_prepare(group, target)
    }

    /// Phase 2 of a live group handoff: installs the ticket's state on the
    /// destination shard, flips the directory placement, retires the source
    /// copy and re-drives parked submissions toward the new owner.
    ///
    /// # Errors
    ///
    /// On a destination failure the handoff aborts internally — the source
    /// unfreezes and keeps serving the group — and the error is returned;
    /// prepare again once the destination recovers.
    pub fn handoff_commit(&mut self, ticket: HandoffTicket) -> Result<()> {
        self.core.handoff_commit(ticket)
    }

    /// Abandons a prepared handoff: the group unfreezes (durably logged) and
    /// resumes serving on its source shard; parked submissions are re-driven
    /// there.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the source is down — its
    /// replayed freeze then outlives recovery and the group fails closed,
    /// until the next [`Cluster::handoff_prepare`] (or
    /// [`Cluster::rebalance_active`] pass) detects the orphaned freeze and
    /// lifts it automatically.
    pub fn handoff_abort(&mut self, ticket: HandoffTicket) -> Result<()> {
        self.core.handoff_abort(ticket)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionOp, SessionOutcome};
    use dmps_floor::{Member, Role};

    fn cluster_with_groups(
        shards: usize,
        groups: usize,
        members_per_group: usize,
        mode: FcmMode,
    ) -> (Cluster, Vec<GlobalGroupId>, Vec<Vec<GlobalMemberId>>) {
        let cluster = Cluster::new(ClusterConfig::with_shards(shards));
        let mut gids = Vec::new();
        let mut rosters = Vec::new();
        for g in 0..groups {
            let gid = cluster.create_group(format!("lecture-{g}"), mode).unwrap();
            let mut roster = Vec::new();
            for m in 0..members_per_group {
                let role = if m == 0 {
                    Role::Chair
                } else {
                    Role::Participant
                };
                let member = cluster.register_member(Member::new(format!("u{g}-{m}"), role));
                cluster.join_group(gid, member).unwrap();
                roster.push(member);
            }
            gids.push(gid);
            rosters.push(roster);
        }
        (cluster, gids, rosters)
    }

    #[test]
    fn groups_spread_across_shards() {
        let (cluster, gids, _) = cluster_with_groups(4, 120, 2, FcmMode::FreeAccess);
        assert_eq!(cluster.group_count(), 120);
        let mut used = std::collections::BTreeSet::new();
        for &g in &gids {
            used.insert(cluster.placement(g).unwrap().shard);
        }
        assert_eq!(used.len(), 4, "120 groups must hit all 4 shards");
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn batched_flush_matches_direct_requests() {
        let (cluster, gids, rosters) = cluster_with_groups(3, 12, 3, FcmMode::EqualControl);
        let mut seqs = Vec::new();
        for (g, roster) in gids.iter().zip(&rosters) {
            for &m in roster {
                seqs.push(cluster.submit(GlobalRequest::speak(*g, m)).unwrap());
            }
        }
        let decisions = cluster.collect_decisions(36).unwrap();
        assert_eq!(decisions.len(), 36);
        let seq_order: Vec<u64> = decisions.iter().map(|d| d.seq).collect();
        assert_eq!(seq_order, seqs, "decisions come back in submission order");
        // First requester per group granted, the rest queued.
        for (g, roster) in gids.iter().zip(&rosters) {
            let of_group: Vec<&Decision> = decisions.iter().filter(|d| d.group == *g).collect();
            assert!(matches!(
                of_group[0].outcome.as_deref(),
                Ok(ArbitrationOutcome::Granted { .. })
            ));
            for d in &of_group[1..] {
                assert!(matches!(
                    d.outcome.as_deref(),
                    Ok(ArbitrationOutcome::Queued { .. })
                ));
            }
            let placement = cluster.placement(*g).unwrap();
            let token = cluster
                .arbiter(placement.shard)
                .token(placement.local)
                .unwrap()
                .clone();
            assert_eq!(token.queue_len(), roster.len() - 1);
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn identically_driven_clusters_decide_identically() {
        let build = || cluster_with_groups(4, 40, 3, FcmMode::EqualControl);
        let drive = |cluster: &Cluster, gids: &[GlobalGroupId], rosters: &[Vec<GlobalMemberId>]| {
            for (g, roster) in gids.iter().zip(rosters) {
                for &m in roster {
                    cluster.submit(GlobalRequest::speak(*g, m)).unwrap();
                }
                cluster
                    .submit(GlobalRequest::release_floor(*g, roster[0]))
                    .unwrap();
            }
            cluster.collect_decisions(40 * 4).unwrap()
        };
        let (sequential, gids, rosters) = build();
        let seq_decisions = drive(&sequential, &gids, &rosters);
        let (parallel, gids, rosters) = build();
        let par_decisions = drive(&parallel, &gids, &rosters);
        // `commit` is the group-commit batch boundary a decision released
        // under — a durability position, deliberately timing-dependent — so
        // equivalence is over everything but it.
        let comparable = |ds: &[Decision]| -> Vec<Decision> {
            ds.iter()
                .map(|d| Decision {
                    commit: 0,
                    epoch: 0,
                    ..d.clone()
                })
                .collect()
        };
        assert_eq!(comparable(&seq_decisions), comparable(&par_decisions));
        for (a, b) in sequential.shard_stats().iter().zip(parallel.shard_stats()) {
            assert_eq!(*a, b);
        }
        parallel.check_invariants().unwrap();
    }

    #[test]
    fn cross_shard_invitation_spawns_subgroup_elsewhere() {
        let (cluster, gids, rosters) = cluster_with_groups(4, 8, 4, FcmMode::FreeAccess);
        let parent = gids[0];
        let parent_shard = cluster.placement(parent).unwrap().shard;
        // Pin the sub-group to a different shard explicitly.
        let other = ShardId((parent_shard.0 + 1) % 4);
        let (sub, inv) = cluster
            .invite(
                parent,
                rosters[0][1],
                rosters[0][2],
                FcmMode::GroupDiscussion,
                Some(other),
            )
            .unwrap();
        let sub_placement = cluster.placement(sub).unwrap();
        assert_eq!(sub_placement.shard, other);
        assert_eq!(sub_placement.parent, Some(parent));
        assert_eq!(
            cluster
                .respond_invitation(inv, rosters[0][2], true)
                .unwrap(),
            InvitationStatus::Accepted
        );
        // Both parties can now speak in the sub-group on the remote shard.
        let outcome = cluster
            .request(GlobalRequest::speak(sub, rosters[0][1]))
            .unwrap();
        match outcome {
            ArbitrationOutcome::Granted { speakers, .. } => assert_eq!(speakers.len(), 2),
            other => panic!("expected grant, got {other:?}"),
        }
        // Answering twice fails; a stranger cannot answer.
        assert!(matches!(
            cluster.respond_invitation(inv, rosters[0][2], true),
            Err(ClusterError::AlreadyAnswered(_))
        ));
        // A non-member of the parent cannot be invited.
        let stranger = cluster.register_member(Member::new("x", Role::Participant));
        assert!(cluster
            .invite(
                parent,
                rosters[0][1],
                stranger,
                FcmMode::DirectContact,
                None
            )
            .is_err());
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn out_of_range_target_shard_is_a_typed_error() {
        let (mut cluster, gids, rosters) = cluster_with_groups(2, 4, 2, FcmMode::EqualControl);
        let (group, roster) = (gids[0], &rosters[0]);
        let (ghost, mode) = (ShardId(cluster.shard_count()), FcmMode::GroupDiscussion);
        let invited = cluster.invite(group, roster[0], roster[1], mode, Some(ghost));
        assert_eq!(invited.unwrap_err(), ClusterError::UnknownShard(ghost));
        let prepared = cluster.handoff_prepare(group, Some(ghost));
        assert_eq!(prepared.unwrap_err(), ClusterError::UnknownShard(ghost));
        assert_eq!(cluster.group_count(), 4, "no sub-group was placed");
        // Nothing was frozen either: a frozen group would fail this fast.
        let speak = GlobalRequest::speak(group, roster[0]);
        assert!(cluster.request(speak).unwrap().is_granted());
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn crash_and_recovery_preserve_floor_invariants() {
        let (mut cluster, gids, rosters) = cluster_with_groups(4, 24, 4, FcmMode::EqualControl);
        // Build up token state everywhere.
        for (g, roster) in gids.iter().zip(&rosters) {
            for &m in roster {
                cluster.submit(GlobalRequest::speak(*g, m)).unwrap();
            }
        }
        cluster.collect_decisions(24 * 4).unwrap();
        let victim = cluster.placement(gids[0]).unwrap().shard;
        let reference = cluster.arbiter(victim);
        cluster.crash_shard(victim);
        assert!(!cluster.is_shard_active(victim));
        // Requests to the dead shard fail closed.
        let d = cluster
            .submit(GlobalRequest::release_floor(gids[0], rosters[0][0]))
            .unwrap();
        let decisions = cluster.collect_decisions(1).unwrap();
        assert_eq!(decisions[0].seq, d);
        assert!(matches!(
            decisions[0].outcome,
            Err(ClusterError::ShardDown(_))
        ));
        // Standby takeover reconstructs the exact pre-crash state.
        cluster.recover_shard(victim).unwrap();
        assert_eq!(cluster.arbiter(victim), reference);
        cluster.check_invariants().unwrap();
        // The recovered shard serves again.
        let outcome = cluster
            .request(GlobalRequest::release_floor(gids[0], rosters[0][0]))
            .unwrap();
        assert!(outcome.is_granted());
    }

    #[test]
    fn scale_out_migrates_only_idle_groups_and_reports_pinned_ones() {
        let (mut cluster, gids, rosters) = cluster_with_groups(3, 60, 2, FcmMode::EqualControl);
        // Make one third of the groups floor-active so they are pinned.
        for (g, roster) in gids.iter().zip(&rosters).take(20) {
            cluster
                .request(GlobalRequest::speak(*g, roster[0]))
                .unwrap();
        }
        let new = cluster.add_shard();
        assert_eq!(cluster.shard_count(), 4);
        let report = cluster.rebalance_idle().unwrap();
        assert!(!report.migrated.is_empty(), "some idle groups must move");
        for g in &report.migrated {
            assert_eq!(cluster.placement(*g).unwrap().shard, new);
            let roster = &rosters[g.0 as usize];
            // Members remain functional on the new shard.
            let outcome = cluster
                .request(GlobalRequest::speak(*g, roster[0]))
                .unwrap();
            assert!(outcome.is_granted());
        }
        // Active groups stayed put with their token state intact, and any of
        // them whose ring placement changed is reported as deferred rather
        // than silently skipped.
        for (g, roster) in gids.iter().zip(&rosters).take(20) {
            assert!(
                !report.migrated.contains(g),
                "active group {g} must be pinned"
            );
            let placement = cluster.placement(*g).unwrap();
            if cluster.core.directory.shard_for(g.0) != placement.shard {
                assert!(
                    report.deferred.contains(g),
                    "pinned group {g} must be reported as deferred"
                );
            }
            let token = cluster
                .arbiter(placement.shard)
                .token(placement.local)
                .unwrap()
                .clone();
            let local = cluster.local_member(roster[0], placement.shard).unwrap();
            assert_eq!(token.holder(), Some(local));
        }
        // Deferred groups migrate once their floor state quiesces.
        if let Some(&pinned) = report.deferred.first() {
            let roster = &rosters[pinned.0 as usize];
            cluster
                .request(GlobalRequest::release_floor(pinned, roster[0]))
                .unwrap();
            let second = cluster.rebalance_idle().unwrap();
            assert!(second.migrated.contains(&pinned));
            assert!(!second.deferred.contains(&pinned));
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn deferred_groups_migrate_after_token_release() {
        // Every group is made floor-active, so the first rebalance after
        // scale-out can move nothing: every ring-displaced group must land in
        // `deferred`. Releasing the tokens and retrying — the documented
        // contract of the `deferred` list — must then migrate exactly those
        // groups.
        let (mut cluster, gids, rosters) = cluster_with_groups(3, 40, 2, FcmMode::EqualControl);
        for (g, roster) in gids.iter().zip(&rosters) {
            cluster
                .request(GlobalRequest::speak(*g, roster[0]))
                .unwrap();
        }
        let new = cluster.add_shard();
        let report = cluster.rebalance_idle().unwrap();
        assert!(report.migrated.is_empty(), "every group is token-pinned");
        assert!(
            !report.deferred.is_empty(),
            "scale-out must displace some groups on the ring"
        );
        for g in &report.deferred {
            let roster = &rosters[g.0 as usize];
            cluster
                .request(GlobalRequest::release_floor(*g, roster[0]))
                .unwrap();
        }
        let second = cluster.rebalance_idle().unwrap();
        for g in &report.deferred {
            assert!(
                second.migrated.contains(g),
                "deferred group {g} must migrate once its token is released"
            );
            assert!(!second.deferred.contains(g));
            assert_eq!(cluster.placement(*g).unwrap().shard, new);
            // The group keeps working on its new shard.
            let roster = &rosters[g.0 as usize];
            let outcome = cluster
                .request(GlobalRequest::speak(*g, roster[1]))
                .unwrap();
            assert!(outcome.is_granted());
        }
        assert!(second.deferred.is_empty());
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn live_handoff_migrates_held_token_and_queue() {
        let (mut cluster, gids, rosters) = cluster_with_groups(3, 40, 3, FcmMode::EqualControl);
        // Every group floor-active: holder + two queued requesters.
        for (g, roster) in gids.iter().zip(&rosters) {
            for &m in roster {
                cluster.request(GlobalRequest::speak(*g, m)).unwrap();
            }
        }
        let new = cluster.add_shard();
        let idle_pass = cluster.rebalance_idle().unwrap();
        assert!(idle_pass.migrated.is_empty(), "all groups token-pinned");
        assert!(!idle_pass.deferred.is_empty());
        let live_pass = cluster.rebalance_active().unwrap();
        assert_eq!(live_pass.migrated, idle_pass.deferred);
        assert!(live_pass.deferred.is_empty(), "live handoff drains it all");
        cluster.check_invariants().unwrap();
        for g in &live_pass.migrated {
            let roster = &rosters[g.0 as usize];
            let placement = cluster.placement(*g).unwrap();
            assert_eq!(placement.shard, new);
            // Token state survived the move: the original holder still holds,
            // the queue kept its FIFO order.
            let arbiter = cluster.arbiter(new);
            let token = arbiter.token(placement.local).unwrap();
            let local = |m| cluster.local_member(m, new).unwrap();
            assert_eq!(token.holder(), Some(local(roster[0])));
            assert_eq!(
                token.queue().collect::<Vec<_>>(),
                vec![local(roster[1]), local(roster[2])]
            );
            // Releasing on the new shard promotes the queued member: no lost
            // and no duplicated grant.
            let next_local = local(roster[1]);
            let next = cluster
                .request(GlobalRequest::release_floor(*g, roster[0]))
                .unwrap();
            match next {
                ArbitrationOutcome::Granted { ref speakers, .. } => {
                    assert_eq!(*speakers, vec![next_local]);
                }
                ref other => panic!("expected promotion, got {other:?}"),
            }
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn handoff_phases_keep_invariants_and_park_submissions() {
        let (mut cluster, gids, rosters) = cluster_with_groups(2, 20, 2, FcmMode::EqualControl);
        for (g, roster) in gids.iter().zip(&rosters) {
            cluster
                .request(GlobalRequest::speak(*g, roster[0]))
                .unwrap();
        }
        let new = cluster.add_shard();
        // Pick a group the ring wants on the new shard.
        let group = *gids
            .iter()
            .find(|g| cluster.core.directory.shard_for(g.0) == new)
            .expect("scale-out displaces some group");
        let idx = group.0 as usize;
        let source = cluster.placement(group).unwrap().shard;
        let gateway = cluster.gateway();

        let ticket = cluster.handoff_prepare(group, None).unwrap();
        assert_eq!(ticket.group(), group);
        assert_eq!(ticket.source(), source);
        assert_eq!(ticket.target(), new);
        assert_eq!(ticket.token_holder(), Some(rosters[idx][0]));
        // Invariants hold on every shard with the group frozen.
        cluster.check_invariants().unwrap();
        // A second prepare is refused while the first is outstanding.
        assert!(matches!(
            cluster.handoff_prepare(group, None),
            Err(ClusterError::GroupFrozen(_))
        ));
        // Synchronous requests fail fast during the frozen window...
        assert!(matches!(
            cluster.request(GlobalRequest::release_floor(group, rosters[idx][0])),
            Err(ClusterError::GroupFrozen(_))
        ));
        // ...and so do membership mutations — a join or leave slipping into
        // the window would be lost (or resurrected) by the commit's
        // install/purge.
        let newcomer = cluster.register_member(Member::new("late", Role::Participant));
        assert!(matches!(
            cluster.join_group(group, newcomer),
            Err(ClusterError::GroupFrozen(_))
        ));
        assert!(matches!(
            cluster.leave_group(group, rosters[idx][1]),
            Err(ClusterError::GroupFrozen(_))
        ));
        // ...while streamed submissions park (no decision yet).
        let parked_seq = gateway
            .submit(GlobalRequest::speak(group, rosters[idx][1]))
            .unwrap();
        let parked_session = gateway
            .submit_session(SessionOp::chat(group, rosters[idx][0], "mid-handoff"))
            .unwrap();
        // A parked pair whose outcome depends on its cross-kind order: the
        // holder releases the floor, *then* chats.
        let parked_pair = gateway.submit_ops(vec![
            Op::Floor(GlobalRequest::release_floor(group, rosters[idx][0])),
            Op::Session(SessionOp::chat(group, rosters[idx][0], "after release")),
        ]);
        assert!(gateway.try_recv_decision().is_none(), "frozen: parked");

        cluster.handoff_commit(ticket).unwrap();
        cluster.check_invariants().unwrap();
        assert_eq!(cluster.placement(group).unwrap().shard, new);
        // The parked floor request was re-driven to the new owner: the
        // holder migrated with the group, so the student queues behind them.
        let decision = gateway.recv_decision().unwrap();
        assert_eq!(decision.seq, parked_seq);
        assert!(matches!(
            decision.outcome.as_deref(),
            Ok(ArbitrationOutcome::Queued { .. })
        ));
        // The parked chat line was re-driven too and delivered under the
        // migrated token.
        let session_decision = gateway.recv_session_decision().unwrap();
        assert_eq!(session_decision.seq, parked_session);
        assert!(session_decision.outcome.unwrap().is_delivered());
        // Arrival order held across the frozen window and across kinds: the
        // release reached the new owner before the chat behind it, which
        // therefore found the floor already passed on to the student.
        let release = gateway.recv_decision().unwrap();
        assert_eq!(release.seq, parked_pair[0]);
        assert!(release.outcome.unwrap().is_granted());
        let late_chat = gateway.recv_session_decision().unwrap();
        assert_eq!(late_chat.seq, parked_pair[1]);
        assert_eq!(
            *late_chat.outcome.unwrap(),
            SessionOutcome::Rejected {
                reason: crate::SessionRejection::FloorDenied
            }
        );
        assert_eq!(cluster.session_view(group).unwrap().chat.len(), 1);
        // The source husk is empty and unfrozen; its view reflects that.
        assert_eq!(cluster.shard_view(source).frozen_groups, 0);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn poisoned_routing_locks_do_not_take_submissions_down() {
        let (cluster, gids, rosters) = cluster_with_groups(2, 2, 1, FcmMode::EqualControl);
        let core = cluster.core.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = core.parked.write().unwrap();
            panic!("a gateway thread dies holding the parking lot");
        });
        assert!(poisoner.join().is_err());
        assert!(cluster.core.parked.is_poisoned());
        // Nor does dying with a directory stripe held: localizing the first
        // speaker below reads exactly that stripe.
        let (core, speaker) = (cluster.core.clone(), rosters[0][0]);
        let poisoner = std::thread::spawn(move || {
            let _guard = core.directory.member_stripe(speaker).write().unwrap();
            panic!("an admin thread dies holding a directory stripe");
        });
        assert!(poisoner.join().is_err());
        assert!(cluster.core.directory.member_stripe(speaker).is_poisoned());
        // Both routing paths still take the lock and still get decisions.
        let speak = GlobalRequest::speak(gids[0], rosters[0][0]);
        assert!(cluster.request(speak).unwrap().is_granted());
        cluster.submit_batch(&[GlobalRequest::speak(gids[1], rosters[1][0])]);
        let decisions = cluster.collect_decisions(1).unwrap();
        assert!(decisions[0].outcome.as_ref().unwrap().is_granted());
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn a_delivered_payload_is_one_allocation_wherever_it_is_held() {
        let mut cluster = Cluster::new(ClusterConfig::with_shards(2).with_replicas(2));
        let g = cluster.create_group("g", FcmMode::FreeAccess).unwrap();
        let teacher = cluster.register_member(Member::new("t", Role::Chair));
        cluster.join_group(g, teacher).unwrap();
        let shard = cluster.placement(g).unwrap().shard;
        cluster
            .core
            .with_shard(shard, |s| s.take_snapshot().applied_seq());
        let line = SessionOp::chat(g, teacher, "one allocation".to_string());
        assert!(cluster.session(line).unwrap().is_delivered());
        let first = |content: GroupSession| content.chat[0].1.clone();
        // The leader's newest logged (sealed, shipped) event, its live
        // store, and the next differential checkpoint's suffix.
        let mut held = cluster.core.with_shard(shard, move |s| {
            let crate::ShardEvent::Session(logged) =
                s.log().events_from(s.log().base()).last().unwrap()
            else {
                panic!("the delivered line is the newest logged event");
            };
            let crate::SessionOpKind::Chat { text } = &logged.kind else {
                panic!("a chat line was delivered");
            };
            let stored = first(s.session().view(g));
            vec![
                text.clone(),
                stored,
                first(s.take_delta().sessions[0].2.clone()),
            ]
        });
        // Both followers' stores after catch-up, then two reads.
        held.extend(cluster.core.with_worker(shard, |w| {
            let stores = w.followers().iter().map(|f| {
                let mut core = lock_core(f);
                core.catch_up_for_read();
                first(core.session_view(g))
            });
            stores.collect::<Vec<_>>()
        }));
        held.extend((0..2).map(|_| first(cluster.session_view(g).unwrap())));
        // The handoff export, and what the destination serves after commit.
        let target = ShardId((shard.0 + 1) % 2);
        let ticket = cluster.handoff_prepare(g, Some(target)).unwrap();
        held.push(first(ticket.export.content.clone()));
        cluster.handoff_commit(ticket).unwrap();
        held.push(first(cluster.session_view(g).unwrap()));
        assert_eq!(held.len(), 9);
        for (i, payload) in held.iter().enumerate() {
            assert!(
                Arc::ptr_eq(payload, &held[0]),
                "holder {i} copied the payload"
            );
        }
    }

    #[test]
    fn chair_survives_live_handoff_even_via_the_join_path() {
        let mut cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let chair = cluster.register_member(Member::new("chair", Role::Chair));
        let other = cluster.register_member(Member::new("p", Role::Participant));
        cluster.join_group(g, chair).unwrap();
        cluster.join_group(g, other).unwrap();
        let source = cluster.placement(g).unwrap().shard;
        let target = ShardId((source.0 + 1) % 2);
        // Instantiate the chair member on the target shard beforehand (via a
        // pinned sub-group), so the handoff install adds them with JoinGroup
        // — the path that never elects a chair by role.
        cluster
            .invite(g, chair, other, FcmMode::GroupDiscussion, Some(target))
            .unwrap();
        cluster.request(GlobalRequest::speak(g, chair)).unwrap();
        let ticket = cluster.handoff_prepare(g, Some(target)).unwrap();
        cluster.handoff_commit(ticket).unwrap();
        let placement = cluster.placement(g).unwrap();
        assert_eq!(placement.shard, target);
        let local_chair = cluster.local_member(chair, target).unwrap();
        assert_eq!(
            cluster
                .arbiter(target)
                .group(placement.local)
                .unwrap()
                .chair,
            Some(local_chair),
            "the migrated group must keep its session chair"
        );
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn handoff_commit_aborts_cleanly_when_destination_is_down() {
        let (mut cluster, gids, rosters) = cluster_with_groups(2, 20, 2, FcmMode::EqualControl);
        for (g, roster) in gids.iter().zip(&rosters) {
            cluster
                .request(GlobalRequest::speak(*g, roster[0]))
                .unwrap();
        }
        let new = cluster.add_shard();
        let group = *gids
            .iter()
            .find(|g| cluster.core.directory.shard_for(g.0) == new)
            .expect("scale-out displaces some group");
        let idx = group.0 as usize;
        let source = cluster.placement(group).unwrap().shard;

        let ticket = cluster.handoff_prepare(group, None).unwrap();
        // The destination dies between the phases.
        cluster.crash_shard(new);
        let err = cluster.handoff_commit(ticket).unwrap_err();
        assert!(matches!(err, ClusterError::ShardDown(s) if s == new));
        // The abort path unfroze the source: the group serves there again
        // with its token state untouched.
        assert_eq!(cluster.placement(group).unwrap().shard, source);
        assert_eq!(cluster.shard_view(source).frozen_groups, 0);
        let outcome = cluster
            .request(GlobalRequest::release_floor(group, rosters[idx][0]))
            .unwrap();
        assert!(outcome.is_granted());
        cluster.check_invariants().unwrap();
        // After the destination recovers, the handoff succeeds.
        cluster.recover_shard(new).unwrap();
        cluster
            .request(GlobalRequest::speak(group, rosters[idx][1]))
            .unwrap();
        let report = cluster.rebalance_active().unwrap();
        assert!(report.migrated.contains(&group));
        assert_eq!(cluster.placement(group).unwrap().shard, new);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn explicit_abort_resumes_the_source() {
        let (mut cluster, gids, rosters) = cluster_with_groups(2, 10, 2, FcmMode::EqualControl);
        let group = gids[0];
        cluster
            .request(GlobalRequest::speak(group, rosters[0][0]))
            .unwrap();
        let source = cluster.placement(group).unwrap().shard;
        let other = ShardId((source.0 + 1) % 2);
        let gateway = cluster.gateway();
        let ticket = cluster.handoff_prepare(group, Some(other)).unwrap();
        let parked = gateway
            .submit(GlobalRequest::speak(group, rosters[0][1]))
            .unwrap();
        cluster.handoff_abort(ticket).unwrap();
        // The group never moved; the parked request was re-driven to the
        // source and queued behind the untouched holder.
        assert_eq!(cluster.placement(group).unwrap().shard, source);
        let decision = gateway.recv_decision().unwrap();
        assert_eq!(decision.seq, parked);
        assert!(matches!(
            decision.outcome.as_deref(),
            Ok(ArbitrationOutcome::Queued { .. })
        ));
        // Handoff toward the current owner is refused outright.
        assert!(matches!(
            cluster.handoff_prepare(group, Some(source)),
            Err(ClusterError::HandoffUnnecessary(_))
        ));
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn orphaned_freeze_is_lifted_by_the_next_prepare() {
        let (mut cluster, gids, rosters) = cluster_with_groups(2, 10, 2, FcmMode::EqualControl);
        let group = gids[0];
        cluster
            .request(GlobalRequest::speak(group, rosters[0][0]))
            .unwrap();
        let source = cluster.placement(group).unwrap().shard;
        let other = ShardId((source.0 + 1) % 2);
        let ticket = cluster.handoff_prepare(group, Some(other)).unwrap();
        // The source dies before an abort can be logged: the ticket is
        // consumed, the routing freeze lifts, but the durable shard-level
        // freeze outlives recovery — the group fails closed...
        cluster.crash_shard(source);
        assert!(matches!(
            cluster.handoff_abort(ticket),
            Err(ClusterError::ShardDown(_))
        ));
        cluster.recover_shard(source).unwrap();
        assert_eq!(cluster.shard_view(source).frozen_groups, 1);
        assert!(matches!(
            cluster.request(GlobalRequest::speak(group, rosters[0][1])),
            Err(ClusterError::GroupFrozen(_))
        ));
        // ...until the next prepare detects the orphaned freeze, lifts it,
        // and the handoff completes — the group cannot stay wedged forever.
        let ticket = cluster.handoff_prepare(group, Some(other)).unwrap();
        cluster.handoff_commit(ticket).unwrap();
        let placement = cluster.placement(group).unwrap();
        assert_eq!(placement.shard, other);
        assert_eq!(cluster.shard_view(source).frozen_groups, 0);
        let holder_local = cluster.local_member(rosters[0][0], other).unwrap();
        assert_eq!(
            cluster
                .arbiter(other)
                .token(placement.local)
                .unwrap()
                .holder(),
            Some(holder_local),
            "the held token survived the crash-interrupted handoff"
        );
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn dedup_journal_survives_a_live_handoff() {
        let (mut cluster, gids, rosters) = cluster_with_groups(3, 40, 2, FcmMode::EqualControl);
        // Journal a speak per group and keep every token held (floor-active).
        let mut speak_seqs = std::collections::BTreeMap::new();
        for (g, roster) in gids.iter().zip(&rosters) {
            let speak = GlobalRequest::speak(*g, roster[0]);
            speak_seqs.insert(*g, (cluster.submit(speak).unwrap(), speak));
        }
        let decided = cluster.collect_decisions(gids.len()).unwrap();
        let originals: std::collections::BTreeMap<u64, Decision> =
            decided.into_iter().map(|d| (d.seq, d)).collect();
        cluster.add_shard();
        let report = cluster.rebalance_active().unwrap();
        assert!(!report.migrated.is_empty());
        assert!(report.deferred.is_empty());
        let gateway = cluster.gateway();
        for g in &report.migrated {
            let (seq, speak) = speak_seqs[g];
            // A gateway retry of the pre-handoff id replays from the journal
            // slice that moved with the group — the speak is not re-applied,
            // so the holder's grant count cannot double.
            gateway.resubmit(seq, speak).unwrap();
            let retry = gateway.recv_decision().unwrap();
            assert_eq!(retry.seq, seq);
            assert!(retry.replayed, "journal slice for {g} must have migrated");
            assert_eq!(retry.outcome, originals[&seq].outcome);
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn session_state_and_journal_follow_rebalanced_groups() {
        let (mut cluster, gids, rosters) = cluster_with_groups(3, 60, 2, FcmMode::FreeAccess);
        let line = |g, m| SessionOp::chat(g, m, "before the move");
        let mut seqs = std::collections::BTreeMap::new();
        for (g, roster) in gids.iter().zip(&rosters) {
            let seq = cluster.submit_session(line(*g, roster[0])).unwrap();
            let first = cluster.recv_session_decision().unwrap();
            assert!(first.outcome.unwrap().is_delivered() && !first.replayed);
            seqs.insert(*g, (seq, roster[0]));
        }
        cluster.add_shard();
        let report = cluster.rebalance_idle().unwrap();
        assert!(!report.migrated.is_empty());
        for g in &report.migrated {
            // The content followed the group to its new shard...
            let view = cluster.session_view(*g).unwrap();
            assert_eq!(view.chat.len(), 1, "chat log must follow {g}");
            // ...and so did its slice of the session decision journal: a
            // gateway retry of the pre-migration id replays instead of
            // appending the line twice.
            let (seq, member) = seqs[g];
            cluster.resubmit_session(seq, line(*g, member)).unwrap();
            let retry = cluster.recv_session_decision().unwrap();
            assert!(
                retry.seq == seq && retry.replayed,
                "journal entry follows {g}"
            );
            assert!(retry.outcome.unwrap().is_delivered());
            assert_eq!(cluster.session_view(*g).unwrap().chat.len(), 1);
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn dedup_journal_migrates_with_rebalanced_groups() {
        let (mut cluster, gids, rosters) = cluster_with_groups(3, 60, 2, FcmMode::EqualControl);
        // Decide (and journal) a speak + release per group, then let every
        // group go idle so rebalancing can move it.
        let mut speak_seqs = std::collections::BTreeMap::new();
        for (g, roster) in gids.iter().zip(&rosters) {
            let speak = GlobalRequest::speak(*g, roster[0]);
            speak_seqs.insert(*g, (cluster.submit(speak).unwrap(), speak));
            cluster
                .submit(GlobalRequest::release_floor(*g, roster[0]))
                .unwrap();
        }
        let decided = cluster.collect_decisions(2 * gids.len()).unwrap();
        let originals: std::collections::BTreeMap<u64, Decision> =
            decided.into_iter().map(|d| (d.seq, d)).collect();
        cluster.add_shard();
        let report = cluster.rebalance_idle().unwrap();
        assert!(!report.migrated.is_empty());
        // Retrying a pre-migration request id must replay the journaled
        // decision from the group's *new* shard, not re-apply the speak —
        // re-applying would re-grant the (released) floor.
        let gateway = cluster.gateway();
        for g in &report.migrated {
            let (seq, speak) = speak_seqs[g];
            gateway.resubmit(seq, speak).unwrap();
            let retry = gateway.recv_decision().unwrap();
            assert_eq!(retry.seq, seq);
            assert!(retry.replayed, "journal entry for {g} must have migrated");
            assert_eq!(retry.outcome, originals[&seq].outcome);
            // The floor really was not re-granted.
            let placement = cluster.placement(*g).unwrap();
            let arbiter = cluster.arbiter(placement.shard);
            assert_eq!(arbiter.token(placement.local).unwrap().holder(), None);
        }
        cluster.check_invariants().unwrap();
    }
}
