//! Gateways: cheaply-cloneable concurrent ingest handles.
//!
//! A [`Gateway`] is the multi-gateway face of the control plane: it shares
//! the cluster's [`Directory`](crate::Directory) and shard pipelines through
//! an `Arc`, but owns a private mailbox that decisions for *its*
//! submissions are delivered into. Cloning a gateway is one mailbox
//! allocation and an `Arc` bump — hand one clone to every front-end thread
//! and they all ingest concurrently.
//!
//! Floor requests and session operations (chat lines, whiteboard strokes,
//! annotations, synchronized-media schedules) are one [`Op`] to a gateway:
//! they share its request-id space, one scalar and one vectored submit path,
//! the owning shard's FIFO queue — so a group's ops are applied in
//! submission order whatever their kinds, content floor-gated against the
//! requests before it — and one mailbox. The typed methods are views
//! of that one path:
//!
//! * [`Gateway::submit`] / [`Gateway::submit_session`] route one op
//!   (read-mostly directory lookups, one bounded-queue push) and return its
//!   cluster-unique request id. The submit path itself performs **no
//!   per-request heap allocation**: the id comes from a leased block
//!   instead of a shared atomic, and the command carries an `Arc` of the
//!   gateway's mailbox, which the shard step delivers the decision into.
//! * [`Gateway::submit_batch`] / [`Gateway::submit_session_batch`] /
//!   [`Gateway::submit_ops`] are the vectored form — one id-lease, one
//!   directory pass and one queue reservation per owning shard for a whole
//!   batch; `submit_ops` takes the kinds interleaved.
//! * [`Gateway::recv_decision`] / [`Gateway::collect_decisions`] and
//!   [`Gateway::recv_session_decision`] stream the [`Decision`]s and
//!   [`SessionDecision`]s back, each tagged with the request id and whether
//!   it was replayed from a shard's dedup window. Whoever steps the shard
//!   delivers a batch's replies straight into the gateway's mailbox, sorted
//!   onto the two typed lanes, so waiting on one never loses the other's
//!   decisions. (Threads sharing a `&Gateway` may block on different lanes
//!   at once; the intended pattern is still one clone per thread.)
//! * [`Gateway::resubmit`] / [`Gateway::resubmit_session`] retry an op under
//!   its original id — the retransmission path after a shard crash *or*
//!   after a shed ([`ClusterError::Overloaded`]). The owning shard's dedup
//!   window guarantees an already-applied op is answered from the decision
//!   journal instead of double-applying.
//!
//! Backpressure: every shard's ingest queue is bounded
//! ([`ClusterConfig::queue_capacity`](crate::ClusterConfig::queue_capacity)).
//! When it is full, the configured
//! [`OverloadPolicy`](crate::OverloadPolicy) applies — `Block` makes
//! `submit` wait for space (lossless), `Shed` answers the submission with
//! [`ClusterError::Overloaded`] on this gateway's decision stream, so a
//! storm can never exhaust memory and never loses a request silently.
//!
//! Reads scale out with replication: when
//! [`ClusterConfig::replicas`](crate::ClusterConfig::replicas) is non-zero,
//! [`Gateway::session_view`], [`Gateway::shard_view`] and
//! [`Gateway::queue_position`] are served from the owning shard's followers
//! instead of its (write-busy) leader. Each gateway tracks a per-shard
//! **read-your-writes bound** — the highest [`Decision::commit`] /
//! [`SessionDecision::commit`] position it has observed in its decision
//! streams — and a follower serves a read only when its applied position has
//! reached that bound; otherwise the read transparently forwards to the
//! leader. A gateway therefore always reads its own acknowledged writes,
//! while read throughput grows with the replica count.
//!
//! Control-plane operations (groups, membership, invitations) are exposed
//! with `&self` receivers as well, so administrative traffic can run from
//! any gateway without a cluster-wide lock.
//!
//! During a live group handoff
//! ([`Cluster::rebalance_active`](crate::Cluster::rebalance_active)) the
//! routing layer *parks* streamed submissions for the frozen group and
//! re-drives them — toward the new owner after the commit, back to the
//! source after an abort — so `submit`/`submit_session` callers never
//! observe the migration beyond added latency; the synchronous
//! [`Gateway::request`]/[`Gateway::session`] paths and the membership
//! mutations ([`Gateway::join_group`]/[`Gateway::leave_group`]) instead
//! fail fast with [`ClusterError::GroupFrozen`] and are expected to retry.
//!
//! ```
//! use dmps_cluster::{Cluster, ClusterConfig, GlobalRequest, SessionOp};
//! use dmps_floor::{FcmMode, Member, Role};
//!
//! let cluster = Cluster::new(ClusterConfig::with_shards(2));
//! let g = cluster.create_group("lecture", FcmMode::FreeAccess).unwrap();
//! let gateway = cluster.gateway();
//! let m = gateway.register_member(Member::new("teacher", Role::Chair));
//! gateway.join_group(g, m).unwrap();
//! // Floor and session traffic stream decisions back to this gateway.
//! let seq = gateway.submit(GlobalRequest::speak(g, m)).unwrap();
//! assert_eq!(gateway.recv_decision().unwrap().seq, seq);
//! let seq = gateway.submit_session(SessionOp::chat(g, m, "hello")).unwrap();
//! let decision = gateway.recv_session_decision().unwrap();
//! assert_eq!(decision.seq, seq);
//! assert!(decision.outcome.unwrap().is_delivered());
//! // Vectored ingest: one directory pass and one queue reservation per
//! // shard for the whole batch.
//! let seqs = gateway.submit_batch(&[
//!     GlobalRequest::speak(g, m),
//!     GlobalRequest::release_floor(g, m),
//! ]);
//! let decisions = gateway.collect_decisions(seqs.len()).unwrap();
//! assert_eq!(decisions.len(), 2);
//! ```

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use dmps_floor::{ArbitrationOutcome, FcmMode, InvitationStatus, Member};

use crate::cluster::{Core, Decision, GlobalRequest};
use crate::directory::{ClusterInvitation, GroupPlacement};
use crate::error::{ClusterError, Result};
use crate::instrument::GatewayMetrics;
use crate::op::{Op, Reply};
use crate::poison::{lock, wait};
use crate::queue::QueueStats;
use crate::ring::ShardId;
use crate::session::{GroupSession, SessionDecision, SessionOp, SessionOutcome};
use crate::shard::{GlobalGroupId, GlobalMemberId};
use crate::worker::{ReplyTo, ShardWorker};

/// A gateway's mailbox: the two typed decision lanes its `recv*` methods
/// read, filled directly by whichever thread releases a batch (a worker, or
/// a caller stepping the shard inline). Commands carry an `Arc` of it, so a
/// delivery is one lock and a few pushes — no channel, no per-batch `Vec` —
/// and the condvar is signalled only when a receiver actually waits. Either
/// lane can be awaited without losing the other's decisions, and threads
/// sharing one `&Gateway` may block on different lanes at once.
#[derive(Debug)]
pub(crate) struct Mailbox {
    /// The gateway's telemetry index (`gateway.N.*` names and span tags).
    index: u32,
    lanes: Mutex<Lanes>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct Lanes {
    floor: VecDeque<Decision>,
    session: VecDeque<SessionDecision>,
    /// Receivers blocked on `ready`.
    waiting: usize,
}

/// Picks one of a [`Mailbox`]'s typed lanes.
type Lane<T> = fn(&mut Lanes) -> &mut VecDeque<T>;
const FLOOR: Lane<Decision> = |lanes| &mut lanes.floor;
const SESSION: Lane<SessionDecision> = |lanes| &mut lanes.session;

impl Mailbox {
    pub(crate) fn new(index: u32) -> Self {
        Mailbox {
            index,
            lanes: Mutex::default(),
            ready: Condvar::new(),
        }
    }

    /// The owning gateway's telemetry index.
    pub(crate) fn index(&self) -> u32 {
        self.index
    }

    /// Sorts a run of released replies onto the two lanes under one lock,
    /// waking the receivers if any wait.
    pub(crate) fn deliver(&self, replies: impl IntoIterator<Item = Reply>) {
        let mut lanes = lock(&self.lanes);
        for reply in replies {
            match reply {
                Reply::Floor(decision) => lanes.floor.push_back(decision),
                Reply::Session(decision) => lanes.session.push_back(decision),
            }
        }
        if lanes.waiting > 0 {
            drop(lanes);
            self.ready.notify_all();
        }
    }

    /// The next decision on `lane`: waiting for one when `block`, else only
    /// taking what has already been delivered.
    fn next<T>(&self, lane: Lane<T>, block: bool) -> Option<T> {
        let mut lanes = lock(&self.lanes);
        loop {
            if let Some(decision) = lane(&mut lanes).pop_front() {
                return Some(decision);
            }
            if !block {
                return None;
            }
            lanes.waiting += 1;
            lanes = wait(&self.ready, lanes);
            lanes.waiting -= 1;
        }
    }
}

/// How many request ids a gateway leases from the shared directory counter
/// at a time. Larger leases take the counter off the submit hot path at the
/// cost of sparser id spaces.
const SEQ_LEASE: u64 = 64;

/// A leased block of request ids, handed out locally without touching the
/// shared directory counter.
#[derive(Debug)]
struct SeqLease {
    next: u64,
    end: u64,
}

/// A concurrent ingest handle onto the sharded control plane.
///
/// Created from [`Cluster::gateway`](crate::Cluster::gateway) (or borrowed
/// through the cluster's `Deref`) and cloned freely; each clone receives the
/// decisions of its own submissions only.
#[derive(Debug)]
pub struct Gateway {
    core: Arc<Core>,
    /// Where this gateway's decisions are delivered; every command it
    /// submits carries a clone of the `Arc`.
    mailbox: Arc<Mailbox>,
    /// The current request-id lease (empty until the first submission).
    lease: Mutex<SeqLease>,
    /// This gateway's submit-side instruments (`gateway.N.*`), pre-resolved
    /// once at registration.
    metrics: GatewayMetrics,
    /// Per-shard read-your-writes watermarks (indexed by shard id, grown on
    /// demand): the highest commit sequence among decisions this gateway has
    /// *received* per shard. Follower-served reads must have applied at
    /// least this position; see [`Gateway::session_view`].
    watermarks: Mutex<Vec<u64>>,
}

impl Clone for Gateway {
    /// A clone shares the directory and shard pipelines but gets a fresh,
    /// empty mailbox (with its own telemetry index) and id lease.
    fn clone(&self) -> Self {
        Gateway::new(self.core.clone())
    }
}

impl Gateway {
    pub(crate) fn new(core: Arc<Core>) -> Self {
        let mailbox = core.new_mailbox();
        let metrics = core.telemetry.gateway(mailbox.index);
        Gateway {
            core,
            mailbox,
            lease: Mutex::new(SeqLease { next: 0, end: 0 }),
            metrics,
            watermarks: Mutex::new(Vec::new()),
        }
    }

    /// Folds a released decision's durability position into this gateway's
    /// per-shard read-your-writes watermark. Decisions with `commit == 0`
    /// (routing errors, sheds) carry no durability information and leave the
    /// watermark untouched.
    fn observe_commit(&self, shard: Option<ShardId>, commit: u64) {
        if commit == 0 {
            return;
        }
        let Some(shard) = shard else { return };
        let mut marks = lock(&self.watermarks);
        let index = shard.0;
        if marks.len() <= index {
            marks.resize(index + 1, 0);
        }
        if marks[index] < commit {
            marks[index] = commit;
        }
    }

    /// This gateway's current read bound for a shard: the highest commit
    /// sequence it has observed there (0 before any acked write).
    fn read_bound(&self, shard: ShardId) -> u64 {
        let marks = lock(&self.watermarks);
        marks.get(shard.0).copied().unwrap_or(0)
    }

    /// Allocates `n` contiguous request ids from this gateway's lease,
    /// returning the first; the lease refills from the shared counter only
    /// once per `SEQ_LEASE` ids. When the lease cannot cover the run, its
    /// remainder is discarded and a fresh block (covering at least the run)
    /// is leased — ids stay monotone per gateway, so decision ordering by id
    /// still equals submission order on each gateway, and that is the
    /// contract `collect_decisions` ordering rests on, so a batch must never
    /// hand out newer ids while older lease ids are still unspent behind it.
    fn alloc_seq_run(&self, n: u64) -> u64 {
        let mut lease = lock(&self.lease);
        if lease.end - lease.next < n {
            let block = n.max(SEQ_LEASE);
            let start = self.core.directory.alloc_seq_block(block);
            lease.next = start;
            lease.end = start + block;
        }
        let seq = lease.next;
        lease.next += n;
        seq
    }

    // ----- ingest -----------------------------------------------------------

    /// Routes a request to its owning shard's pipeline and
    /// returns its cluster-unique request id. The decision streams back to
    /// this gateway's channel; if the shard shed the request under a full
    /// queue ([`OverloadPolicy::Shed`](crate::OverloadPolicy::Shed)), the
    /// streamed decision carries [`ClusterError::Overloaded`] and
    /// [`Gateway::resubmit`] under the same id retries exactly-once.
    ///
    /// # Errors
    ///
    /// Returns unknown-id errors when the request cannot be routed.
    pub fn submit(&self, request: GlobalRequest) -> Result<u64> {
        self.submit_op(Op::Floor(request))
    }

    /// The one scalar submit: a fresh id from the lease, then the routing
    /// layer's single path.
    fn submit_op(&self, op: Op) -> Result<u64> {
        let seq = self.alloc_seq_run(1);
        self.core
            .submit_as(seq, op, ReplyTo::Gateway(self.mailbox.clone()))?;
        Ok(seq)
    }

    /// The one retry: the same path under the op's original id.
    fn resubmit_op(&self, seq: u64, op: Op) -> Result<()> {
        self.metrics.retries.incr();
        self.core
            .submit_as(seq, op, ReplyTo::Gateway(self.mailbox.clone()))
    }

    /// The one vectored submit behind [`Gateway::submit_batch`],
    /// [`Gateway::submit_session_batch`] and [`Gateway::submit_ops`].
    fn submit_run(&self, ops: impl ExactSizeIterator<Item = Op>) -> Vec<u64> {
        if ops.len() == 0 {
            return Vec::new();
        }
        self.metrics.batch_size.record(ops.len() as u64);
        // Ids come through this gateway's lease (not a separate directory
        // block), so interleaved scalar and batched submissions stay
        // monotone per gateway.
        let start = self.alloc_seq_run(ops.len() as u64);
        self.core
            .submit_batch_as(start, ops, &ReplyTo::Gateway(self.mailbox.clone()))
    }

    /// Routes a batch of ops of any kinds — floor requests and session
    /// operations interleaved — with the amortized costs of
    /// [`Gateway::submit_batch`], returning their (contiguous) ids in
    /// submission order. A group's ops reach its shard in exactly that
    /// order, so content is admitted against the floor state the requests
    /// *before it in the batch* left behind: `[chat, speak, chat]` from a
    /// member who does not hold an Equal Control token is refused, granted,
    /// delivered.
    ///
    /// Each id resolves to exactly one decision on the stream of its kind
    /// ([`Gateway::recv_decision`] / [`Gateway::recv_session_decision`]),
    /// with the per-op error contract of [`Gateway::submit_batch`].
    pub fn submit_ops(&self, ops: Vec<Op>) -> Vec<u64> {
        self.submit_run(ops.into_iter())
    }

    /// Routes a whole batch of requests with amortized costs — one
    /// request-id lease, one directory pass, one parking-lot guard, one
    /// queue reservation per owning shard — returning their ids in
    /// submission order.
    ///
    /// Unlike [`Gateway::submit`], per-request routing failures do not fail
    /// the batch: every returned id resolves to exactly one streamed
    /// decision (arbitration outcome, routing error, or
    /// [`ClusterError::Overloaded`] on a shed), so
    /// `collect_decisions(seqs.len())` always accounts exactly.
    pub fn submit_batch(&self, requests: &[GlobalRequest]) -> Vec<u64> {
        self.submit_run(requests.iter().map(|&request| Op::Floor(request)))
    }

    /// Retries a request under its original id (gateway retransmission). If
    /// the owning shard already applied the request and still holds its
    /// decision in the dedup window, the recorded decision is replayed
    /// (`Decision::replayed == true`) instead of double-applying the event.
    ///
    /// # Errors
    ///
    /// Returns unknown-id errors when the request cannot be routed.
    pub fn resubmit(&self, seq: u64, request: GlobalRequest) -> Result<()> {
        self.resubmit_op(seq, Op::Floor(request))
    }

    /// The next decision on one of the mailbox's lanes, folded into this
    /// gateway's read-your-writes watermark.
    fn take<O>(&self, lane: Lane<Decision<O>>, block: bool) -> Option<Decision<O>> {
        let decision = self.mailbox.next(lane, block)?;
        self.observe_commit(decision.shard, decision.commit);
        Some(decision)
    }

    /// Blocks until the next decision for one of this gateway's submissions
    /// arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] when the shard pipelines are
    /// gone (the cluster was torn down).
    pub fn recv_decision(&self) -> Result<Decision> {
        self.take(FLOOR, true).ok_or(ClusterError::Disconnected)
    }

    /// The next already-delivered decision, if any (never blocks).
    pub fn try_recv_decision(&self) -> Option<Decision> {
        self.take(FLOOR, false)
    }

    /// Collects exactly `n` decisions (blocking), sorted by request id.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] when the shard pipelines are
    /// gone before `n` decisions arrived.
    pub fn collect_decisions(&self, n: usize) -> Result<Vec<Decision>> {
        let mut decisions = Vec::with_capacity(n);
        for _ in 0..n {
            decisions.push(self.recv_decision()?);
        }
        decisions.sort_by_key(|d| d.seq);
        Ok(decisions)
    }

    /// Submits and synchronously arbitrates one request, bypassing this
    /// gateway's decision stream.
    ///
    /// # Errors
    ///
    /// Returns routing and shard errors, including
    /// [`ClusterError::Overloaded`] when the owning shard shed the request.
    pub fn request(&self, request: GlobalRequest) -> Result<ArbitrationOutcome> {
        let seq = self.alloc_seq_run(1);
        let Reply::Floor(decision) = self.apply_as(seq, Op::Floor(request))? else {
            unreachable!("a floor request is answered with a floor decision");
        };
        decision.outcome.map(|o| (*o).clone())
    }

    /// Synchronously applies one op under a caller-provided id and returns
    /// its whole reply, folding the released commit position into this
    /// gateway's read bound — what [`Gateway::request`],
    /// [`Gateway::session`] and the network simulator's shard hosts are
    /// views of.
    pub(crate) fn apply_as(&self, seq: u64, op: Op) -> Result<Reply> {
        let reply = self.core.request_raw(seq, op)?;
        match &reply {
            Reply::Floor(d) => self.observe_commit(d.shard, d.commit),
            Reply::Session(d) => self.observe_commit(d.shard, d.commit),
        }
        Ok(reply)
    }

    // ----- session operations -----------------------------------------------

    /// Routes a session operation (chat, whiteboard, annotation, media
    /// schedule) to the shard owning its group and returns its
    /// cluster-unique request id. The decision streams back to this
    /// gateway's session channel; sheds surface as
    /// [`ClusterError::Overloaded`] decisions exactly like floor requests.
    ///
    /// # Errors
    ///
    /// Returns unknown-id errors when the operation cannot be routed.
    pub fn submit_session(&self, op: SessionOp) -> Result<u64> {
        self.submit_op(Op::Session(op))
    }

    /// Routes a whole batch of session operations — the vectored twin of
    /// [`Gateway::submit_batch`], with the same exactly-one-decision-per-id
    /// contract on the session stream.
    pub fn submit_session_batch(&self, ops: Vec<SessionOp>) -> Vec<u64> {
        self.submit_run(ops.into_iter().map(Op::Session))
    }

    /// Retries a session operation under its original id (gateway
    /// retransmission). An already-delivered operation is answered from the
    /// owning shard's session journal (`SessionDecision::replayed == true`)
    /// instead of delivering the content twice.
    ///
    /// # Errors
    ///
    /// Returns unknown-id errors when the operation cannot be routed.
    pub fn resubmit_session(&self, seq: u64, op: SessionOp) -> Result<()> {
        self.resubmit_op(seq, Op::Session(op))
    }

    /// Blocks until the next session decision for one of this gateway's
    /// submissions arrives.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Disconnected`] when the shard pipelines are
    /// gone (the cluster was torn down).
    pub fn recv_session_decision(&self) -> Result<SessionDecision> {
        self.take(SESSION, true).ok_or(ClusterError::Disconnected)
    }

    /// The next already-delivered session decision, if any (never blocks).
    pub fn try_recv_session_decision(&self) -> Option<SessionDecision> {
        self.take(SESSION, false)
    }

    /// Submits and synchronously applies one session operation, bypassing
    /// this gateway's session stream.
    ///
    /// # Errors
    ///
    /// Returns routing and shard errors, including
    /// [`ClusterError::Overloaded`] when the owning shard shed the
    /// operation.
    pub fn session(&self, op: SessionOp) -> Result<SessionOutcome> {
        let seq = self.alloc_seq_run(1);
        let Reply::Session(decision) = self.apply_as(seq, Op::Session(op))? else {
            unreachable!("a session op is answered with a session decision");
        };
        decision.outcome.map(|o| (*o).clone())
    }

    // ----- reads ------------------------------------------------------------

    /// The recorded session state of a group.
    ///
    /// With replication enabled ([`ClusterConfig::replicas`] > 0) the read
    /// is served from one of the owning shard's followers whenever that
    /// follower has applied at least this gateway's read-your-writes bound —
    /// the highest [`Decision::commit`] position the gateway has observed on
    /// that shard — and is forwarded to the leader otherwise. Either way the
    /// view reflects every write this gateway has already seen acknowledged.
    ///
    /// [`ClusterConfig::replicas`]: crate::ClusterConfig::replicas
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownGroup`] for an unknown id.
    pub fn session_view(&self, group: GlobalGroupId) -> Result<GroupSession> {
        let shard = self.core.directory.placement(group)?.shard;
        self.core
            .session_view_bounded(group, self.read_bound(shard))
    }

    /// A diagnostic view of one shard, served from a caught-up follower when
    /// replication is enabled (falling back to the leader under this
    /// gateway's read-your-writes bound, like [`Gateway::session_view`]). A
    /// follower-served view reports the *follower's* state: `log_retained`
    /// is its applied position and leader-only storage fields (log base,
    /// snapshot, dedup occupancy) read as zero.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id (shard ids come from this cluster).
    pub fn shard_view(&self, shard: ShardId) -> crate::ShardView {
        self.core.shard_view_bounded(shard, self.read_bound(shard))
    }

    /// A member's position in a group's floor queue — `Some(0)` while
    /// holding the token, `Some(n)` when waiting `n`-th in line, `None` when
    /// neither. Served from a caught-up follower when replication is
    /// enabled, under this gateway's read-your-writes bound.
    ///
    /// # Errors
    ///
    /// Returns unknown-id errors, and floor errors when the group does not
    /// arbitrate a token.
    pub fn queue_position(
        &self,
        group: GlobalGroupId,
        member: GlobalMemberId,
    ) -> Result<Option<usize>> {
        let shard = self.core.directory.placement(group)?.shard;
        self.core
            .queue_position_bounded(group, member, self.read_bound(shard))
    }

    // ----- backpressure -----------------------------------------------------

    /// Occupancy statistics of one shard's bounded ingest queue: current
    /// depth, configured capacity, and the high-water mark — which under a
    /// [`OverloadPolicy::Shed`](crate::OverloadPolicy::Shed) storm never
    /// exceeds the capacity.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range id (shard ids come from this cluster).
    pub fn queue_stats(&self, shard: ShardId) -> QueueStats {
        self.core.with_worker(shard, ShardWorker::stats)
    }

    // ----- control plane ----------------------------------------------------

    /// Registers a member with the cluster directory. The member is
    /// instantiated on shards lazily, the first time it joins a group there.
    pub fn register_member(&self, template: Member) -> GlobalMemberId {
        self.core.directory.register_member(template)
    }

    /// Creates a top-level group, placed by consistent hashing.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the owning shard is failed.
    pub fn create_group(&self, name: impl Into<String>, mode: FcmMode) -> Result<GlobalGroupId> {
        self.core.create_group(name.into(), mode)
    }

    /// Adds a member to a group (instantiating it on the owning shard if
    /// needed).
    ///
    /// # Errors
    ///
    /// Returns unknown-id and shard-down errors.
    pub fn join_group(&self, group: GlobalGroupId, member: GlobalMemberId) -> Result<()> {
        self.core.join_group(group, member)
    }

    /// Removes a member from a group.
    ///
    /// # Errors
    ///
    /// Returns unknown-id and shard-down errors.
    pub fn leave_group(&self, group: GlobalGroupId, member: GlobalMemberId) -> Result<()> {
        self.core.leave_group(group, member)
    }

    /// A member invites another into a new private sub-group (Group
    /// Discussion / Direct Contact). The sub-group is placed by consistent
    /// hashing — typically on a *different* shard than the parent, which is
    /// what lets breakout load spread across the cluster. Pass `target` to
    /// pin the placement explicitly.
    ///
    /// Both parties must be members of the parent group.
    ///
    /// # Errors
    ///
    /// Returns unknown-id errors ([`ClusterError::UnknownShard`] for a
    /// `target` this cluster does not have), [`ClusterError::Floor`] wrapping
    /// [`dmps_floor::FloorError::NotAMember`] when either party is not in the
    /// parent group, and shard-down errors.
    pub fn invite(
        &self,
        parent: GlobalGroupId,
        from: GlobalMemberId,
        to: GlobalMemberId,
        mode: FcmMode,
        target: Option<ShardId>,
    ) -> Result<(GlobalGroupId, u64)> {
        self.core.invite(parent, from, to, mode, target)
    }

    /// The invitee answers a cluster-level invitation; accepting joins them
    /// to the sub-group on its (possibly remote) shard.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownInvitation`],
    /// [`ClusterError::NotTheInvitee`], [`ClusterError::AlreadyAnswered`] and
    /// shard-down errors.
    pub fn respond_invitation(
        &self,
        invitation: u64,
        responder: GlobalMemberId,
        accept: bool,
    ) -> Result<InvitationStatus> {
        self.core.respond_invitation(invitation, responder, accept)
    }

    /// The cluster-level invitation with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownInvitation`] for an unknown id.
    pub fn invitation(&self, id: u64) -> Result<ClusterInvitation> {
        self.core.directory.invitation(id)
    }

    /// Where a group currently lives.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownGroup`] for an unknown id.
    pub fn placement(&self, group: GlobalGroupId) -> Result<GroupPlacement> {
        self.core.directory.placement(group)
    }

    /// Checks the floor-state invariants on every active shard, plus the
    /// cluster-level ones: every directory entry points at an existing local
    /// group, and every global member maps to distinct local ids per shard.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.core.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use dmps_floor::Role;
    use std::sync::Barrier;

    #[test]
    fn cloned_gateways_receive_only_their_own_decisions() {
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let a = cluster.gateway();
        let b = cluster.gateway();
        let ma = a.register_member(Member::new("a", Role::Chair));
        a.join_group(g, ma).unwrap();
        let mb = b.register_member(Member::new("b", Role::Participant));
        b.join_group(g, mb).unwrap();
        let seq_a = a.submit(GlobalRequest::speak(g, ma)).unwrap();
        let seq_b = b.submit(GlobalRequest::speak(g, mb)).unwrap();
        assert_ne!(seq_a, seq_b, "request ids are cluster-unique");
        let da = a.recv_decision().unwrap();
        let db = b.recv_decision().unwrap();
        assert_eq!(da.seq, seq_a);
        assert_eq!(db.seq, seq_b);
        assert!(a.try_recv_decision().is_none(), "b's decision not on a");
        assert!(b.try_recv_decision().is_none(), "a's decision not on b");
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn resubmit_replays_instead_of_double_applying() {
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let gw = cluster.gateway();
        let m = gw.register_member(Member::new("m", Role::Chair));
        gw.join_group(g, m).unwrap();
        let seq = gw.submit(GlobalRequest::speak(g, m)).unwrap();
        let first = gw.recv_decision().unwrap();
        assert!(!first.replayed);
        assert!(first.outcome.as_ref().unwrap().is_granted());
        // The "decision was lost, client retries" path.
        gw.resubmit(seq, GlobalRequest::speak(g, m)).unwrap();
        let retry = gw.recv_decision().unwrap();
        assert!(retry.replayed, "retry answered from the dedup window");
        assert_eq!(retry.outcome, first.outcome);
        // Exactly one grant was applied.
        let shard = gw.placement(g).unwrap().shard;
        assert_eq!(cluster.shard_view(shard).stats.granted, 1);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn batched_submit_matches_single_submits() {
        let cluster = Cluster::new(ClusterConfig::with_shards(4));
        let gw = cluster.gateway();
        let mut requests = Vec::new();
        for i in 0..24 {
            let g = gw
                .create_group(format!("g{i}"), FcmMode::EqualControl)
                .unwrap();
            let m = gw.register_member(Member::new(format!("m{i}"), Role::Chair));
            gw.join_group(g, m).unwrap();
            requests.push(GlobalRequest::speak(g, m));
            requests.push(GlobalRequest::release_floor(g, m));
        }
        let seqs = gw.submit_batch(&requests);
        assert_eq!(seqs.len(), requests.len());
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "one lease: ids stay in submission order"
        );
        let decisions = gw.collect_decisions(seqs.len()).unwrap();
        assert_eq!(decisions.len(), seqs.len());
        for decision in &decisions {
            assert!(
                decision.outcome.as_ref().unwrap().is_granted(),
                "speak then release both grant in a singleton group"
            );
        }
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_scalar_and_batched_submits_keep_ids_monotone() {
        // Batches draw ids through the gateway's lease, not a separate
        // directory block — otherwise a scalar submit after a batch could
        // hand out an older unspent lease id, and `collect_decisions`
        // (sorted by id) would no longer equal submission order.
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let gw = cluster.gateway();
        let g = gw.create_group("lecture", FcmMode::EqualControl).unwrap();
        let m = gw.register_member(Member::new("m", Role::Chair));
        gw.join_group(g, m).unwrap();
        let speak = GlobalRequest::speak(g, m);
        let release = GlobalRequest::release_floor(g, m);
        let mut seqs = Vec::new();
        seqs.push(gw.submit(speak).unwrap());
        seqs.extend(gw.submit_batch(&[release, speak]));
        seqs.push(gw.submit(release).unwrap());
        // A batch larger than the remaining lease forces a refill mid-run.
        let big: Vec<GlobalRequest> = (0..150)
            .map(|i| if i % 2 == 0 { speak } else { release })
            .collect();
        seqs.extend(gw.submit_batch(&big));
        seqs.push(gw.submit(speak).unwrap());
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "per-gateway ids stay strictly increasing across interleaving"
        );
        let decisions = gw.collect_decisions(seqs.len()).unwrap();
        let order: Vec<u64> = decisions.iter().map(|d| d.seq).collect();
        assert_eq!(order, seqs, "sorted-by-id equals submission order");
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn batched_submit_answers_unroutable_requests_on_the_stream() {
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let gw = cluster.gateway();
        let m = gw.register_member(Member::new("m", Role::Chair));
        gw.join_group(g, m).unwrap();
        let ghost = GlobalGroupId(999);
        let seqs = gw.submit_batch(&[GlobalRequest::speak(g, m), GlobalRequest::speak(ghost, m)]);
        let decisions = gw.collect_decisions(2).unwrap();
        assert_eq!(decisions[0].seq, seqs[0]);
        assert!(decisions[0].outcome.as_ref().unwrap().is_granted());
        assert!(matches!(
            decisions[1].outcome,
            Err(ClusterError::UnknownGroup(u)) if u == ghost
        ));
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn session_decisions_stream_to_the_submitting_gateway() {
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let a = cluster.gateway();
        let b = cluster.gateway();
        let ma = a.register_member(Member::new("a", Role::Chair));
        a.join_group(g, ma).unwrap();
        let mb = b.register_member(Member::new("b", Role::Participant));
        b.join_group(g, mb).unwrap();
        let sa = a.submit_session(SessionOp::chat(g, ma, "from a")).unwrap();
        let sb = b
            .submit_session(SessionOp::whiteboard(g, mb, "from b"))
            .unwrap();
        let da = a.recv_session_decision().unwrap();
        let db = b.recv_session_decision().unwrap();
        assert_eq!(da.seq, sa);
        assert_eq!(db.seq, sb);
        assert!(da.outcome.unwrap().is_delivered());
        assert!(a.try_recv_session_decision().is_none(), "b's not on a");
        assert!(b.try_recv_session_decision().is_none(), "a's not on b");
        let view = a.session_view(g).unwrap();
        assert_eq!(view.chat, vec![(ma, "from a".into())]);
        assert_eq!(view.whiteboard, vec![(mb, "from b".into())]);
        // Retransmission replays from the session journal instead of
        // delivering the line twice.
        a.resubmit_session(sa, SessionOp::chat(g, ma, "from a"))
            .unwrap();
        let retry = a.recv_session_decision().unwrap();
        assert!(retry.replayed);
        assert_eq!(a.session_view(g).unwrap().chat.len(), 1);
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn session_batch_delivers_in_submission_order() {
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let gw = cluster.gateway();
        let m = gw.register_member(Member::new("m", Role::Chair));
        gw.join_group(g, m).unwrap();
        let ops: Vec<SessionOp> = (0..8)
            .map(|i| SessionOp::chat(g, m, format!("line {i}")))
            .collect();
        let seqs = gw.submit_session_batch(ops);
        assert_eq!(seqs.len(), 8);
        for &seq in &seqs {
            let decision = gw.recv_session_decision().unwrap();
            assert_eq!(decision.seq, seq, "session stream preserves order");
            assert!(decision.outcome.unwrap().is_delivered());
        }
        let chat = gw.session_view(g).unwrap().chat;
        assert_eq!(chat.len(), 8);
        assert!(chat
            .iter()
            .enumerate()
            .all(|(i, (_, line))| **line == *format!("line {i}")));
        cluster.check_invariants().unwrap();
    }

    #[test]
    fn mixed_batch_keeps_cross_kind_order_within_a_group() {
        // [chat, speak, chat, release, chat] from a non-chair of an Equal
        // Control group, as one `submit_ops` batch and — on a fresh cluster —
        // one synchronous op at a time. Floor outcomes left, chats right.
        type Either = std::result::Result<ArbitrationOutcome, SessionOutcome>;
        let run = |batched: bool| -> Vec<Either> {
            let cluster = Cluster::new(ClusterConfig::with_shards(2));
            let gw = cluster.gateway();
            let g = gw.create_group("seminar", FcmMode::EqualControl).unwrap();
            let chair = gw.register_member(Member::new("chair", Role::Chair));
            let student = gw.register_member(Member::new("s", Role::Participant));
            gw.join_group(g, chair).unwrap();
            gw.join_group(g, student).unwrap();
            let chat = |text: &str| Op::Session(SessionOp::chat(g, student, text));
            let ops = vec![
                chat("before the grant"),
                Op::Floor(GlobalRequest::speak(g, student)),
                chat("holding the token"),
                Op::Floor(GlobalRequest::release_floor(g, student)),
                chat("after the release"),
            ];
            if !batched {
                let apply = |op| match op {
                    Op::Floor(request) => Ok(gw.request(request).unwrap()),
                    Op::Session(op) => Err(gw.session(op).unwrap()),
                };
                return ops.into_iter().map(apply).collect();
            }
            let seqs = gw.submit_ops(ops.clone());
            assert!(seqs.windows(2).all(|w| w[0] + 1 == w[1]), "contiguous ids");
            // Each decision is on the stream of its kind, in id order there.
            let recv = |(op, seq): (&Op, &u64)| match op {
                Op::Floor(_) => {
                    let decision = gw.recv_decision().unwrap();
                    assert_eq!(decision.seq, *seq);
                    Ok((*decision.outcome.unwrap()).clone())
                }
                Op::Session(_) => {
                    let decision = gw.recv_session_decision().unwrap();
                    assert_eq!(decision.seq, *seq);
                    Err((*decision.outcome.unwrap()).clone())
                }
            };
            let outcomes = ops.iter().zip(&seqs).map(recv).collect();
            cluster.check_invariants().unwrap();
            outcomes
        };
        let batched = run(true);
        let denied = SessionOutcome::Rejected {
            reason: crate::SessionRejection::FloorDenied,
        };
        assert_eq!(batched[0], Err(denied.clone()), "no token yet");
        assert!(batched[1].as_ref().is_ok_and(|o| o.is_granted()));
        assert!(
            batched[2].as_ref().is_err_and(|o| o.is_delivered()),
            "holder"
        );
        assert!(batched[3].as_ref().is_ok_and(|o| o.is_granted()));
        assert_eq!(batched[4], Err(denied), "token released");
        assert_eq!(batched, run(false), "a batch decides like one op at a time");
    }

    #[test]
    fn gateway_keeps_pipelines_alive_after_cluster_drop() {
        let gw = {
            let cluster = Cluster::new(ClusterConfig::with_shards(2));
            let g = cluster
                .create_group("lecture", FcmMode::FreeAccess)
                .unwrap();
            let gw = cluster.gateway();
            let m = gw.register_member(Member::new("m", Role::Chair));
            gw.join_group(g, m).unwrap();
            gw.submit(GlobalRequest::speak(g, m)).unwrap();
            gw
            // `cluster` (and the gateway it lends) drop here.
        };
        let decision = gw.recv_decision().unwrap();
        assert!(decision.outcome.unwrap().is_granted());
        gw.check_invariants().unwrap();
    }

    #[test]
    fn dropped_gateways_slot_is_recycled_without_leaking_decisions() {
        let cluster = Cluster::new(ClusterConfig::with_shards(2));
        let g = cluster
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let a = cluster.gateway();
        let m = a.register_member(Member::new("m", Role::Chair));
        a.join_group(g, m).unwrap();
        // Drain a's decision so dropping it cannot race an in-flight send,
        // then drop it and register a successor that reuses the slot.
        let seq = a.submit(GlobalRequest::speak(g, m)).unwrap();
        assert_eq!(a.recv_decision().unwrap().seq, seq);
        drop(a);
        let b = cluster.gateway();
        let seq_b = b.submit(GlobalRequest::release_floor(g, m)).unwrap();
        let decision = b.recv_decision().unwrap();
        assert_eq!(decision.seq, seq_b, "b sees exactly its own decision");
        assert!(b.try_recv_decision().is_none());
        cluster.check_invariants().unwrap();
    }

    /// A cluster whose shards are stepped by their worker threads only, so
    /// decisions are delivered into a mailbox from another thread.
    fn worker_stepped() -> Cluster {
        let core = Arc::new(Core::build(ClusterConfig::with_shards(2), false));
        let gateway = Gateway::new(core.clone());
        Cluster { core, gateway }
    }

    /// An Equal Control group with two members.
    fn seminar(cluster: &Cluster) -> (GlobalGroupId, [GlobalMemberId; 2]) {
        let g = cluster
            .create_group("seminar", FcmMode::EqualControl)
            .unwrap();
        let members = ["a", "b"].map(|name| {
            let m = cluster.register_member(Member::new(name, Role::Chair));
            cluster.join_group(g, m).unwrap();
            m
        });
        (g, members)
    }

    /// Spins until `n` receivers wait on the gateway's mailbox.
    fn await_waiters(gateway: &Gateway, n: usize) {
        while lock(&gateway.mailbox.lanes).waiting < n {
            std::thread::yield_now();
        }
    }

    /// Floor requests that alternate speak and release between two members.
    fn turns(g: GlobalGroupId, [a, b]: [GlobalMemberId; 2], n: usize) -> Vec<GlobalRequest> {
        (0..n)
            .map(|i| match (i % 2, i % 4 < 2) {
                (0, true) => GlobalRequest::speak(g, a),
                (1, true) => GlobalRequest::release_floor(g, a),
                (0, false) => GlobalRequest::speak(g, b),
                _ => GlobalRequest::release_floor(g, b),
            })
            .collect()
    }

    #[test]
    fn a_session_waiter_wakes_past_floor_decisions_delivered_first() {
        let cluster = worker_stepped();
        let (g, members) = seminar(&cluster);
        let gateway = cluster.gateway();
        let (floor_seqs, chat_seq, chat) = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gateway.recv_session_decision().unwrap());
            await_waiters(&gateway, 1);
            // One shard, one FIFO: every floor decision is delivered (and
            // wakes the waiter, which must go back to waiting) before the
            // chat's.
            let floor_seqs: Vec<u64> = turns(g, members, 16)
                .into_iter()
                .map(|r| gateway.submit(r).unwrap())
                .collect();
            let chat_seq = gateway
                .submit_session(SessionOp::chat(g, members[0], "late"))
                .unwrap();
            (floor_seqs, chat_seq, waiter.join().unwrap())
        });
        assert_eq!(chat.seq, chat_seq);
        let floor: Vec<u64> = (0..floor_seqs.len())
            .map(|_| gateway.recv_decision().unwrap().seq)
            .collect();
        assert_eq!(floor, floor_seqs, "none lost, none reordered");
        assert!(gateway.try_recv_decision().is_none());
    }

    #[test]
    fn threads_sharing_a_gateway_block_on_different_lanes_and_both_wake() {
        let cluster = worker_stepped();
        let (g, members) = seminar(&cluster);
        let gateway = cluster.gateway();
        std::thread::scope(|scope| {
            let floor = scope.spawn(|| gateway.recv_decision().unwrap());
            let session = scope.spawn(|| gateway.recv_session_decision().unwrap());
            await_waiters(&gateway, 2);
            let chat = gateway
                .submit_session(SessionOp::chat(g, members[1], "first"))
                .unwrap();
            let speak = gateway.submit(GlobalRequest::speak(g, members[0])).unwrap();
            assert_eq!(session.join().unwrap().seq, chat);
            assert_eq!(floor.join().unwrap().seq, speak);
        });
    }

    #[test]
    fn a_gateway_dropped_with_decisions_in_flight_leaks_nothing() {
        let cluster = worker_stepped();
        let (g, members) = seminar(&cluster);
        let shard = cluster.placement(g).unwrap().shard;
        let doomed = cluster.gateway();
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
            // Queued behind the held core, then orphaned.
            doomed.submit_batch(&turns(g, members, 32));
            doomed
                .submit_session(SessionOp::chat(g, members[0], "orphan"))
                .unwrap();
            drop(doomed);
            release.wait();
        });
        let successor = cluster.gateway();
        let speak = successor
            .submit(GlobalRequest::speak(g, members[1]))
            .unwrap();
        let decision = successor.recv_decision().unwrap();
        assert_eq!(decision.seq, speak, "only its own decision");
        assert!(successor.try_recv_decision().is_none());
        assert!(successor.try_recv_session_decision().is_none());
        // The worker delivered into the orphaned mailbox and kept serving.
        assert!(cluster
            .request(GlobalRequest::release_floor(g, members[1]))
            .is_ok());
        cluster.check_invariants().unwrap();
    }
}
