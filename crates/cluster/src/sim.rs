//! Driving a [`Cluster`] over the deterministic network simulator.
//!
//! [`ClusterSim`] deploys each shard's primary (and a cold standby) on its
//! own simulated host, a gateway host that routes client floor requests to
//! the owning shard, and a failure schedule that crashes shard hosts
//! mid-traffic — the harness behind the failover integration tests and the
//! `sharded_campus_lectures` example. Request→decision latencies are
//! recorded per shard so grant-latency statistics can be computed with
//! `dmps::metrics::GrantLatencyStats`.
//!
//! Whole presentation sessions travel the same network in the same two
//! messages ([`ClusterMsg::Submit`] out, [`ClusterMsg::Reply`] back): session
//! operations (chat, whiteboard strokes, annotations, synchronized-media
//! schedules) are scheduled with [`ClusterSim::submit_session_at`], routed to
//! the shard owning the group, floor-gated and durably logged there, and
//! acknowledged back to the gateway ([`ClusterSim::session_acks`]).
//!
//! With [`ClusterSim::enable_retransmission`], the gateway also models the
//! client-side half of exactly-once delivery: every op carries a
//! cluster-unique id, and when a failover completes, ops (floor *and*
//! session, one outstanding map) that were sent to the crashed shard but
//! never answered are retransmitted under their original ids, in id order. The shard's dedup windows answer
//! already-applied ids from their decision journals, so a retry cannot
//! double-apply a floor event or double-deliver a chat line, and the gateway
//! drops duplicate decisions by id — every submission yields exactly one
//! recorded decision.
//!
//! [`ClusterSim::enable_timeout_retry`] models the client-side timer
//! instead: every transmission arms a per-request deadline, and an id still
//! unanswered when the deadline fires is re-sent under the same id — up to a
//! bounded per-id retry budget — without waiting for any failure signal.
//! That heals pure message loss on a lossy link (which failover-triggered
//! retransmission never sees), with the same dedup windows keeping delivery
//! exactly-once.
//!
//! Backpressure note: the simulated gateway applies each op with a
//! synchronous per-message round-trip, so at most one
//! command per shard is in a bounded ingest queue at any instant and the
//! [`ClusterConfig::queue_capacity`] /
//! [`OverloadPolicy`](crate::OverloadPolicy) knobs cannot saturate here. A
//! request that *is* shed (`ClusterError::Overloaded`) dies unanswered like
//! a frozen-window refusal and is healed by the same retransmission
//! machinery; the thread-based overload storms live in
//! `tests/integration_overload.rs`, where real concurrency fills the
//! queues.
//!
//! Every run also produces a merged, time-ordered cluster [`Trace`]
//! ([`ClusterSim::trace`]): scheduled failures (crash, failover,
//! handoff prepare/commit/abort), retransmission passes, and every
//! decision/ack the gateway records — with journal *replays* (the dedup
//! window answering a retried id) distinguished from first-time decisions —
//! land in one event stream, so a crash, the recovery, and the first
//! replayed decision after it can be read off a single table
//! ([`Trace::to_table`]).
//!
//! Rebalancing runs under traffic too: [`ClusterSim::add_shard`] grows the
//! cluster mid-simulation, and [`ClusterSim::schedule_handoff`] drives the
//! two-phase live migration of a group with the prepare and commit as
//! *separate* plan entries — so a [`ClusterSim::schedule_crash`] of the
//! source or destination host can land exactly between the phases, which is
//! how the mid-handoff crash-consistency scenarios are exercised. Requests
//! that hit a frozen window are refused without an answer and healed by the
//! same retransmission machinery after the commit (toward the new owner) or
//! abort (back to the source).
//!
//! ```
//! use dmps_cluster::{ClusterConfig, ClusterSim, GlobalRequest, SessionOp};
//! use dmps_floor::{FcmMode, Member, Role};
//! use dmps_simnet::{Link, SimTime};
//!
//! let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 7, Link::lan());
//! let g = sim.cluster_mut().create_group("lecture", FcmMode::FreeAccess).unwrap();
//! let m = sim.cluster_mut().register_member(Member::new("t", Role::Chair));
//! sim.cluster_mut().join_group(g, m).unwrap();
//! sim.submit_at(SimTime::from_millis(10), GlobalRequest::speak(g, m)).unwrap();
//! sim.submit_session_at(SimTime::from_millis(20), SessionOp::chat(g, m, "hi")).unwrap();
//! sim.run_to_idle();
//! assert_eq!(sim.decisions().len(), 1);
//! assert_eq!(sim.session_acks().len(), 1);
//! assert_eq!(sim.cluster().session_view(g).unwrap().chat.len(), 1);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use std::sync::Arc;

use dmps_floor::ArbitrationOutcome;
use dmps_simnet::{HostId, Link, Network, SimTime, Trace};

use crate::cluster::{Cluster, ClusterConfig, Decision, GlobalRequest, HandoffTicket};
use crate::error::{ClusterError, Result};
use crate::op::{Op, Reply};
use crate::ring::ShardId;
use crate::session::{SessionOp, SessionOutcome, SessionRejection};
use crate::shard::{CorruptionTarget, GlobalGroupId};

/// Messages on the cluster's simulated control network.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterMsg {
    /// Gateway → shard: apply this op — a floor request or a session
    /// operation.
    Submit {
        /// The cluster-unique request id (idempotency key for retries).
        seq: u64,
        /// The op.
        op: Op,
    },
    /// Shard → gateway: the op's decision. Its `replayed` flag says whether
    /// the shard answered from its decision journal (a retransmitted id
    /// replayed by the dedup window) instead of applying the op anew.
    Reply(Reply),
    /// Gateway self-timer: check whether `seq` has been answered and re-send
    /// it under the same id if not (see
    /// [`ClusterSim::enable_timeout_retry`]).
    RetryCheck {
        /// The request id to check.
        seq: u64,
    },
}

impl ClusterMsg {
    fn size_bytes(&self) -> u64 {
        match self {
            ClusterMsg::Submit { op, .. } => match op {
                Op::Floor(_) => 64,
                Op::Session(op) => 16 + op.size_bytes(),
            },
            ClusterMsg::Reply(Reply::Floor(d)) => {
                64 + d
                    .outcome
                    .as_ref()
                    .map_or(0, |o| o.suspensions().len() as u64)
                    * 16
            }
            ClusterMsg::Reply(Reply::Session(_)) => 48,
            // A pure gateway timer; never occupies link bandwidth.
            ClusterMsg::RetryCheck { .. } => 0,
        }
    }
}

/// A scheduled failure-plan entry.
#[derive(Debug, Clone, Copy)]
enum FailureAction {
    Crash(ShardId),
    Failover(ShardId),
    /// Phase 1 of a scheduled live handoff: freeze + export the group
    /// toward the given shard (`None` = the group's ring placement).
    HandoffPrepare(GlobalGroupId, Option<ShardId>),
    /// Phase 2: commit the prepared handoff (or abort it if the destination
    /// died in the gap — the point of scheduling the phases separately is
    /// that a crash entry can land *between* them).
    HandoffCommit(GlobalGroupId),
    /// Partition a replicated shard's leader away from its follower fleet,
    /// through the non-barrier fault path — batches already shipped stay
    /// parked mid-quorum-write under the partition.
    PartitionLeader(ShardId),
    /// Heal the shard's replication partition; if the leader demoted itself
    /// under it (stall budget exhausted, pipeline failed), promote a
    /// follower and run the retransmission pass like a failover.
    HealPartition(ShardId),
    /// Silently corrupt one durable artifact of the shard; detection (and
    /// quorum repair) happens at the next recovery or resync.
    Corrupt(ShardId, CorruptionTarget),
}

/// What a gateway retransmission pass re-sends.
#[derive(Debug, Clone, Copy)]
enum RetransmitScope {
    /// Everything whose group the given shard currently owns (failover).
    Shard(ShardId),
    /// One group's traffic (post-handoff frozen-window healing).
    Group(GlobalGroupId),
}

/// The hosts backing one shard.
#[derive(Debug, Clone, Copy)]
struct ShardHosts {
    primary: HostId,
    standby: HostId,
    /// Which of the two currently serves.
    serving: HostId,
}

/// A sharded cluster deployed over `dmps-simnet`.
#[derive(Debug)]
pub struct ClusterSim {
    net: Network<ClusterMsg>,
    cluster: Cluster,
    gateway: HostId,
    hosts: Vec<ShardHosts>,
    plan: Vec<(SimTime, FailureAction)>,
    sent_at: BTreeMap<u64, (SimTime, ShardId)>,
    /// Ops (floor requests and session operations) sent but not yet
    /// answered, by id — the retransmission queue.
    outstanding: BTreeMap<u64, Op>,
    /// Ids already answered (duplicate decisions are dropped).
    answered: BTreeSet<u64>,
    /// `Some(delay)` when gateway retransmission after failover is on.
    retransmission: Option<Duration>,
    /// `Some((timeout, budget))` when per-request timeout retry is on.
    timeout_retry: Option<(Duration, u32)>,
    /// Timeout retries already spent per still-unanswered request id.
    retry_budget: BTreeMap<u64, u32>,
    timeout_retries: u64,
    retransmits: u64,
    latencies: Vec<Vec<Duration>>,
    decisions: Vec<(u64, GlobalGroupId, ArbitrationOutcome)>,
    session_acks: Vec<(u64, GlobalGroupId, SessionOutcome)>,
    failovers: u64,
    /// Prepared-but-not-committed live handoffs, by group.
    pending_handoffs: BTreeMap<GlobalGroupId, HandoffTicket>,
    handoffs_committed: u64,
    handoffs_aborted: u64,
    /// Merged, time-ordered event trace of the whole run.
    trace: Trace,
}

impl ClusterSim {
    /// Deploys a cluster: one gateway host, and a primary + standby host per
    /// shard, all connected to the gateway over `link`. `seed` drives every
    /// random network effect (jitter, loss), so runs are reproducible.
    pub fn new(config: ClusterConfig, seed: u64, link: Link) -> Self {
        let cluster = Cluster::new(config);
        let mut net: Network<ClusterMsg> = Network::new(seed);
        let gateway = net.add_host("gateway");
        let mut hosts = Vec::new();
        for i in 0..config.shards {
            let primary = net.add_host(format!("shard-{i}"));
            let standby = net.add_host(format!("shard-{i}-standby"));
            net.connect(gateway, primary, link).expect("fresh hosts");
            net.connect(gateway, standby, link).expect("fresh hosts");
            hosts.push(ShardHosts {
                primary,
                standby,
                serving: primary,
            });
        }
        ClusterSim {
            net,
            cluster,
            gateway,
            hosts,
            plan: Vec::new(),
            sent_at: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            answered: BTreeSet::new(),
            retransmission: None,
            timeout_retry: None,
            retry_budget: BTreeMap::new(),
            timeout_retries: 0,
            retransmits: 0,
            latencies: vec![Vec::new(); config.shards],
            decisions: Vec::new(),
            session_acks: Vec::new(),
            failovers: 0,
            pending_handoffs: BTreeMap::new(),
            handoffs_committed: 0,
            handoffs_aborted: 0,
            trace: Trace::new(),
        }
    }

    /// Control-plane access: set up groups and members directly (membership
    /// changes are an out-of-band administrative path in this harness; only
    /// floor requests travel the simulated network).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// Read access to the cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Read access to the network (drop records, counters).
    pub fn network(&self) -> &Network<ClusterMsg> {
        &self.net
    }

    /// The merged cluster trace: failures, recoveries, handoff phases,
    /// retransmission passes, and every decision/ack (replays marked with
    /// the `"replay"` / `"session-replay"` categories), in global time
    /// order. Render it with [`Trace::to_table`].
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The host currently serving a shard.
    pub fn serving_host(&self, shard: ShardId) -> HostId {
        self.hosts[shard.0].serving
    }

    /// Number of failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Number of scheduled live handoffs that committed.
    pub fn handoffs_committed(&self) -> u64 {
        self.handoffs_committed
    }

    /// Number of scheduled live handoffs that aborted (destination down at
    /// commit time; the group kept serving on its source).
    pub fn handoffs_aborted(&self) -> u64 {
        self.handoffs_aborted
    }

    /// Number of requests the gateway retransmitted after failovers.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Turns on gateway retransmission: when a failover completes, requests
    /// sent to the crashed shard but never answered are re-sent `delay`
    /// later under their original ids. Combined with the shard dedup window
    /// this makes request delivery exactly-once despite crashes.
    pub fn enable_retransmission(&mut self, delay: Duration) {
        self.retransmission = Some(delay);
    }

    /// Turns on timeout-driven gateway retry: every (re)transmission of a
    /// request or session operation arms a check `timeout` later, and an id
    /// still unanswered when its check fires is re-sent under the same id to
    /// the host *currently* serving its group — up to `budget` retries per
    /// id, after which the gateway gives up on it (traced as
    /// `"retry-exhausted"`).
    ///
    /// Orthogonal to [`ClusterSim::enable_retransmission`], which re-sends
    /// only when a *failover completes*: timeout retry needs no failure
    /// signal, so it also heals pure message loss on a lossy link. The
    /// shard dedup windows keep both paths exactly-once — a retry of an
    /// already-applied id is answered from the decision journal, and the
    /// gateway drops duplicate answers by id.
    pub fn enable_timeout_retry(&mut self, timeout: Duration, budget: u32) {
        self.timeout_retry = Some((timeout, budget));
    }

    /// Number of timeout-driven retries sent so far (distinct from
    /// [`ClusterSim::retransmits`], which counts failover/handoff healing
    /// passes).
    pub fn timeout_retries(&self) -> u64 {
        self.timeout_retries
    }

    /// Schedules a client floor request to be sent at global time `at`.
    ///
    /// # Errors
    ///
    /// Returns routing errors for unknown ids (the request must address an
    /// existing group/member so the gateway can resolve the owning shard).
    pub fn submit_at(&mut self, at: SimTime, request: GlobalRequest) -> Result<u64> {
        self.submit_op_at(at, Op::Floor(request))
    }

    fn submit_op_at(&mut self, at: SimTime, op: Op) -> Result<u64> {
        // Resolve now to surface routing errors early; the serving host is
        // resolved again at send time so failovers redirect traffic.
        let _ = self.cluster.placement(op.group())?;
        let seq = self.cluster.core.directory.alloc_seq_block(1);
        self.net
            .schedule(self.gateway, at, ClusterMsg::Submit { seq, op })
            .expect("gateway timers are always schedulable");
        Ok(seq)
    }

    /// Schedules a session operation (chat, whiteboard, annotation, media
    /// schedule) to be sent at global time `at`.
    ///
    /// # Errors
    ///
    /// Returns routing errors for unknown ids (the operation must address an
    /// existing group/member so the gateway can resolve the owning shard).
    pub fn submit_session_at(&mut self, at: SimTime, op: SessionOp) -> Result<u64> {
        self.submit_op_at(at, Op::Session(op))
    }

    /// Schedules a crash of the shard's serving host at `at`, with the
    /// standby completing snapshot-plus-log-replay recovery `downtime`
    /// later.
    pub fn schedule_crash(&mut self, at: SimTime, shard: ShardId, downtime: Duration) {
        self.plan.push((at, FailureAction::Crash(shard)));
        self.plan
            .push((at + downtime, FailureAction::Failover(shard)));
        self.plan.sort_by_key(|&(t, _)| t);
    }

    /// Schedules a replication partition isolating `shard`'s leader from its
    /// whole follower fleet at `at`, healed `heal_after` later. The
    /// partition is injected through the worker's non-barrier fault path, so
    /// quorum writes already in flight stay parked *under* it — the leader
    /// burns its retransmission stall budget, answers every parked decision
    /// `ShardDown`, and demotes itself. The heal entry then promotes a
    /// follower (epoch bump — the old leader is fenced) and, with
    /// [`ClusterSim::enable_retransmission`] on, re-drives the stranded
    /// requests exactly-once through the reconciled dedup journals. A no-op
    /// on an unreplicated shard (quorum of one: nothing ever stalls).
    pub fn schedule_partition(&mut self, at: SimTime, shard: ShardId, heal_after: Duration) {
        self.plan.push((at, FailureAction::PartitionLeader(shard)));
        self.plan
            .push((at + heal_after, FailureAction::HealPartition(shard)));
        self.plan.sort_by_key(|&(t, _)| t);
    }

    /// Schedules silent corruption of one of `shard`'s durable artifacts at
    /// `at` (see [`CorruptionTarget`]). Nothing fails immediately — the
    /// damage sits in the checksummed store until the next recovery or
    /// resync reads it, which is the point: pair it with a later
    /// [`ClusterSim::schedule_crash`] to force that read and watch the
    /// quorum repair (or, unreplicated, the `Corrupt` quarantine) in the
    /// [`ClusterSim::trace`].
    pub fn schedule_corruption(&mut self, at: SimTime, shard: ShardId, target: CorruptionTarget) {
        self.plan.push((at, FailureAction::Corrupt(shard, target)));
        self.plan.sort_by_key(|&(t, _)| t);
    }

    /// Grows the cluster by one shard mid-simulation: the ring is enlarged
    /// and a fresh primary + standby host pair joins the network over
    /// `link`. Existing groups stay put until a scheduled handoff (or an
    /// out-of-band `rebalance_active`) moves them.
    pub fn add_shard(&mut self, link: Link) -> ShardId {
        let id = self.cluster.add_shard();
        let primary = self.net.add_host(format!("shard-{}", id.0));
        let standby = self.net.add_host(format!("shard-{}-standby", id.0));
        self.net
            .connect(self.gateway, primary, link)
            .expect("fresh hosts");
        self.net
            .connect(self.gateway, standby, link)
            .expect("fresh hosts");
        self.hosts.push(ShardHosts {
            primary,
            standby,
            serving: primary,
        });
        self.latencies.push(Vec::new());
        id
    }

    /// Schedules a two-phase live handoff of `group` toward `target`
    /// (`None` = its ring placement): prepare (freeze + export) fires at
    /// `at`, commit `commit_after` later. The gap between the phases is the
    /// window a [`ClusterSim::schedule_crash`] entry can land in, which is
    /// how the mid-handoff crash scenarios are driven. Requests that hit the
    /// frozen window die unanswered (the shard refuses them with
    /// `GroupFrozen`) and are healed by the post-handoff retransmission pass
    /// when [`ClusterSim::enable_retransmission`] is on.
    pub fn schedule_handoff(
        &mut self,
        at: SimTime,
        group: GlobalGroupId,
        target: Option<ShardId>,
        commit_after: Duration,
    ) {
        self.plan
            .push((at, FailureAction::HandoffPrepare(group, target)));
        self.plan
            .push((at + commit_after, FailureAction::HandoffCommit(group)));
        self.plan.sort_by_key(|&(t, _)| t);
    }

    fn apply_failure(&mut self, at: SimTime, action: FailureAction) {
        match action {
            FailureAction::Crash(shard) => {
                let serving = self.hosts[shard.0].serving;
                // The process dies: volatile arbiter state and all in-flight
                // traffic to/from the host are gone.
                self.net.crash_host(serving).expect("host exists");
                self.cluster.crash_shard(shard);
                self.trace.record(
                    at,
                    Some(serving),
                    "crash",
                    format!("shard {} serving host down", shard.0),
                );
            }
            FailureAction::Failover(shard) => {
                let hosts = self.hosts[shard.0];
                let standby = if hosts.serving == hosts.primary {
                    hosts.standby
                } else {
                    hosts.primary
                };
                // Promotion repairs checksum-corrupt copies from the replica
                // quorum; damage it cannot repair (unreplicated corruption)
                // quarantines the shard instead of serving from bad state —
                // traced, shard left down, traffic keeps failing ShardDown.
                if let Err(e) = self.cluster.recover_shard(shard) {
                    self.trace.record(
                        at,
                        Some(standby),
                        "quarantine",
                        format!("shard {} recovery refused: {e}", shard.0),
                    );
                    return;
                }
                // The crashed station may later be repaired and become the
                // new standby.
                let _ = self.net.set_host_up(hosts.serving, true);
                self.hosts[shard.0].serving = standby;
                self.failovers += 1;
                self.trace.record(
                    at,
                    Some(standby),
                    "recover",
                    format!("shard {} failed over to standby (snapshot+replay)", shard.0),
                );
                if let Some(delay) = self.retransmission {
                    self.retransmit_unanswered(at, at + delay, RetransmitScope::Shard(shard));
                }
            }
            FailureAction::HandoffPrepare(group, target) => {
                // A prepare that cannot start — source down, a handoff
                // already in flight, or the group already home — is simply
                // skipped; traffic keeps flowing on the source.
                if let Ok(ticket) = self.cluster.handoff_prepare(group, target) {
                    self.trace.record(
                        at,
                        None,
                        "handoff-prepare",
                        format!("group {} frozen for export", group.0),
                    );
                    self.pending_handoffs.insert(group, ticket);
                }
            }
            FailureAction::HandoffCommit(group) => {
                let Some(ticket) = self.pending_handoffs.remove(&group) else {
                    return;
                };
                match self.cluster.handoff_commit(ticket) {
                    Ok(()) => {
                        self.handoffs_committed += 1;
                        self.trace.record(
                            at,
                            None,
                            "handoff-commit",
                            format!("group {} installed on new owner", group.0),
                        );
                    }
                    // Destination down at commit time: the commit aborted
                    // internally, the source unfroze and serves again.
                    Err(_) => {
                        self.handoffs_aborted += 1;
                        self.trace.record(
                            at,
                            None,
                            "handoff-abort",
                            format!("group {} resumed on source", group.0),
                        );
                    }
                }
                // Requests that hit the frozen window were refused without a
                // reply; heal them like failover retransmission does. After a
                // commit they route to the new owner, after an abort back to
                // the source — exactly-once either way, through the migrated
                // (or retained) journal slices.
                if let Some(delay) = self.retransmission {
                    self.retransmit_unanswered(at, at + delay, RetransmitScope::Group(group));
                }
            }
            FailureAction::PartitionLeader(shard) => {
                self.cluster.isolate_shard_leader(shard);
                self.trace.record(
                    at,
                    Some(self.hosts[shard.0].serving),
                    "partition",
                    format!("shard {} leader isolated from its followers", shard.0),
                );
            }
            FailureAction::HealPartition(shard) => {
                self.cluster.heal_shard_partition(shard);
                self.trace.record(
                    at,
                    Some(self.hosts[shard.0].serving),
                    "heal",
                    format!("shard {} replication partition healed", shard.0),
                );
                // A leader that tried to quorum-commit under the partition
                // demoted itself; promote a follower (epoch bump fences the
                // old leader) and heal the stranded traffic like a failover.
                // A leader that stayed quiet is still serving — nothing to
                // promote.
                if !self.cluster.is_shard_active(shard) {
                    if let Err(e) = self.cluster.recover_shard(shard) {
                        self.trace.record(
                            at,
                            None,
                            "quarantine",
                            format!("shard {} recovery refused: {e}", shard.0),
                        );
                        return;
                    }
                    self.failovers += 1;
                    self.trace.record(
                        at,
                        None,
                        "recover",
                        format!("shard {} promoted a follower (epoch bump)", shard.0),
                    );
                    if let Some(delay) = self.retransmission {
                        self.retransmit_unanswered(at, at + delay, RetransmitScope::Shard(shard));
                    }
                }
            }
            FailureAction::Corrupt(shard, target) => {
                let hit = self.cluster.inject_corruption(shard, target);
                self.trace.record(
                    at,
                    Some(self.hosts[shard.0].serving),
                    "corrupt",
                    format!(
                        "shard {} {target:?} {}",
                        shard.0,
                        if hit {
                            "silently corrupted"
                        } else {
                            "not present (nothing corrupted)"
                        }
                    ),
                );
            }
        }
    }

    /// What a retransmission pass covers: everything a recovered shard owns
    /// (failover healing) or one group's traffic (post-handoff healing).
    fn retransmit_scope_matches(&self, scope: RetransmitScope, group: GlobalGroupId) -> bool {
        match scope {
            RetransmitScope::Shard(shard) => self
                .cluster
                .placement(group)
                .is_ok_and(|p| p.shard == shard),
            RetransmitScope::Group(g) => group == g,
        }
    }

    /// Re-schedules every unanswered request and session operation in
    /// `scope` under its original id, to be sent at `at` (the pass itself is
    /// decided — and traced — at `now`). The shard's dedup windows turn
    /// retries of already-applied requests into journal replays, so this
    /// cannot double-apply a floor event or double-deliver content.
    fn retransmit_unanswered(&mut self, now: SimTime, at: SimTime, scope: RetransmitScope) {
        let before = self.retransmits;
        let retries: Vec<(u64, Op)> = self
            .outstanding
            .iter()
            .filter(|(_, op)| self.retransmit_scope_matches(scope, op.group()))
            .map(|(&seq, op)| (seq, op.clone()))
            .collect();
        for (seq, op) in retries {
            self.net
                .schedule(self.gateway, at, ClusterMsg::Submit { seq, op })
                .expect("gateway timers are always schedulable");
            self.retransmits += 1;
        }
        // Traced at `now` (not the future send time) so the trace stays in
        // global time order.
        if self.retransmits > before {
            self.trace.record(
                now,
                None,
                "retransmit",
                format!(
                    "{} unanswered submissions re-scheduled for {at}",
                    self.retransmits - before
                ),
            );
        }
    }

    fn shard_of_host(&self, host: HostId) -> Option<ShardId> {
        self.hosts
            .iter()
            .position(|h| h.primary == host || h.standby == host)
            .map(ShardId)
    }

    /// Runs the simulation — deliveries and scheduled failures in global
    /// time order — until the network is idle and the failure plan is
    /// exhausted.
    pub fn run_to_idle(&mut self) {
        loop {
            let next_delivery = self.net.peek_time();
            let next_failure = self.plan.first().map(|&(t, _)| t);
            match (next_delivery, next_failure) {
                (None, None) => break,
                (Some(d), Some(f)) if f <= d => {
                    let (t, action) = self.plan.remove(0);
                    self.apply_failure(t, action);
                }
                (None, Some(_)) => {
                    let (t, action) = self.plan.remove(0);
                    self.apply_failure(t, action);
                }
                _ => {
                    let delivery = self.net.next_delivery().expect("peeked");
                    self.dispatch(delivery.at, delivery.from, delivery.to, delivery.payload);
                }
            }
        }
    }

    fn dispatch(&mut self, at: SimTime, from: HostId, to: HostId, msg: ClusterMsg) {
        if to == self.gateway {
            match msg {
                // A gateway timer: route the client op to the shard
                // currently serving the group.
                ClusterMsg::Submit { seq, op } if from == to => {
                    self.outstanding.insert(seq, op);
                    self.transmit(at, seq);
                }
                ClusterMsg::Reply(reply) => {
                    let seq = reply.seq();
                    if !self.answered.insert(seq) {
                        // A duplicate decision (original answered, then a
                        // retransmitted copy was replayed): exactly-once
                        // accounting drops it.
                        return;
                    }
                    self.outstanding.remove(&seq);
                    self.retry_budget.remove(&seq);
                    // Shard hosts only ever send successful replies.
                    match reply {
                        Reply::Floor(d) => {
                            let Ok(outcome) = d.outcome else { return };
                            if let Some((sent, shard)) = self.sent_at.get(&seq).copied() {
                                self.latencies[shard.0].push(at.duration_since(sent));
                            }
                            let category = if d.replayed { "replay" } else { "decision" };
                            let verdict = match outcome.is_granted() {
                                true => "granted",
                                false => "not granted",
                            };
                            let detail = format!("seq {seq} group {} {verdict}", d.group.0);
                            self.trace.record(at, Some(from), category, detail);
                            let outcome = Arc::unwrap_or_clone(outcome);
                            self.decisions.push((seq, d.group, outcome));
                        }
                        Reply::Session(d) => {
                            let Ok(outcome) = d.outcome else { return };
                            let category = if d.replayed {
                                "session-replay"
                            } else {
                                "session-ack"
                            };
                            let detail = format!("seq {seq} group {}", d.group.0);
                            self.trace.record(at, Some(from), category, detail);
                            let outcome = Arc::unwrap_or_clone(outcome);
                            self.session_acks.push((seq, d.group, outcome));
                        }
                    }
                }
                // A gateway timer: the retry deadline for `seq` passed.
                ClusterMsg::RetryCheck { seq } if from == to => {
                    self.timeout_retry_check(at, seq);
                }
                ClusterMsg::Submit { .. } | ClusterMsg::RetryCheck { .. } => {}
            }
        } else if self.shard_of_host(to).is_some() {
            if let ClusterMsg::Submit { seq, op } = msg {
                // The shard primary applies the op — idempotently in the
                // request id, so a retransmitted op that was already applied
                // is answered from the decision journal — and replies to the
                // gateway. Shard down, a frozen handoff window, an
                // `Overloaded` shed or an unroutable op: it dies unanswered
                // and retransmission heals it.
                let (group, session) = (op.group(), op.is_session());
                let reply = match self.cluster.gateway.apply_as(seq, op) {
                    Ok(reply) if reply.is_ok() => reply,
                    // A member never instantiated on the owning shard is a
                    // membership rejection of session content — it must be
                    // *acked* (otherwise the op would sit in the
                    // retransmission queue forever), and whether it surfaces
                    // here or inside `apply_session` depends only on ring
                    // placement.
                    Err(ClusterError::NotOnShard { .. }) | Err(ClusterError::UnknownMember(_))
                        if session =>
                    {
                        let reason = SessionRejection::NotAMember;
                        let outcome = Ok(Arc::new(SessionOutcome::Rejected { reason }));
                        Reply::Session(Decision::unstamped(seq, group, outcome, false, None))
                    }
                    _ => return,
                };
                let reply = ClusterMsg::Reply(reply);
                let size = reply.size_bytes();
                let _ = self.net.send(to, self.gateway, reply, size);
            }
        }
    }

    /// Sends the outstanding op `seq` to the host currently serving its
    /// group — the placement is re-resolved on every (re)transmission so
    /// traffic follows failovers and handoffs — and arms its retry check.
    /// Returns whether anything was sent.
    fn transmit(&mut self, at: SimTime, seq: u64) -> bool {
        let Some(op) = self.outstanding.get(&seq).cloned() else {
            return false;
        };
        let Ok(placement) = self.cluster.placement(op.group()) else {
            return false;
        };
        // First-send time is what client-observed latency (and
        // retransmission accounting) is measured from.
        self.sent_at.entry(seq).or_insert((at, placement.shard));
        let msg = ClusterMsg::Submit { seq, op };
        let size = msg.size_bytes();
        let serving = self.hosts[placement.shard.0].serving;
        let _ = self.net.send(self.gateway, serving, msg, size);
        self.arm_retry_check(at, seq);
        true
    }

    /// Arms a timeout-retry check for `seq`, `timeout` after the
    /// transmission at `at` (no-op unless
    /// [`ClusterSim::enable_timeout_retry`] is on).
    fn arm_retry_check(&mut self, at: SimTime, seq: u64) {
        if let Some((timeout, _)) = self.timeout_retry {
            self.net
                .schedule(self.gateway, at + timeout, ClusterMsg::RetryCheck { seq })
                .expect("gateway timers are always schedulable");
        }
    }

    /// A retry deadline fired: if `seq` is still unanswered and its budget
    /// is not exhausted, re-send it under the same id to the host currently
    /// serving its group and arm the next check.
    fn timeout_retry_check(&mut self, at: SimTime, seq: u64) {
        if self.answered.contains(&seq) {
            return;
        }
        let Some((_, budget)) = self.timeout_retry else {
            return;
        };
        let used = self.retry_budget.get(&seq).copied().unwrap_or(0);
        if used >= budget {
            self.trace.record(
                at,
                None,
                "retry-exhausted",
                format!("seq {seq} abandoned after {used} timeout retries"),
            );
            return;
        }
        // Re-send under the original id (arming the next check).
        if !self.transmit(at, seq) {
            return;
        }
        self.retry_budget.insert(seq, used + 1);
        self.timeout_retries += 1;
        self.trace.record(
            at,
            None,
            "timeout-retry",
            format!("seq {seq} re-sent (retry {} of {budget})", used + 1),
        );
    }

    /// Request→decision latency samples observed for one shard, measured
    /// from the first transmission of each request.
    pub fn latencies(&self, shard: ShardId) -> &[Duration] {
        &self.latencies[shard.0]
    }

    /// Every decision received by the gateway, in arrival order as
    /// `(request id, group, outcome)` — at most one entry per request id.
    pub fn decisions(&self) -> &[(u64, GlobalGroupId, ArbitrationOutcome)] {
        &self.decisions
    }

    /// Every session acknowledgement received by the gateway, in arrival
    /// order as `(request id, group, outcome)` — at most one entry per
    /// request id.
    pub fn session_acks(&self) -> &[(u64, GlobalGroupId, SessionOutcome)] {
        &self.session_acks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmps_floor::{FcmMode, Member, Role};

    #[test]
    fn requests_flow_and_latencies_are_recorded() {
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 11, Link::lan());
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let m = sim
            .cluster_mut()
            .register_member(Member::new("t", Role::Chair));
        sim.cluster_mut().join_group(g, m).unwrap();
        for i in 0..10u64 {
            sim.submit_at(SimTime::from_millis(i * 10), GlobalRequest::speak(g, m))
                .unwrap();
        }
        sim.run_to_idle();
        assert_eq!(sim.decisions().len(), 10);
        // Every submission got a distinct request id, so decisions correlate
        // one-to-one with submissions.
        let mut seqs: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
        let shard = sim.cluster().placement(g).unwrap().shard;
        assert_eq!(sim.latencies(shard).len(), 10);
        assert!(sim.latencies(shard).iter().all(|&l| l > Duration::ZERO));
    }

    #[test]
    fn crash_during_traffic_fails_over_to_standby() {
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 5, Link::lan());
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let shard = sim.cluster().placement(g).unwrap().shard;
        let speakers: Vec<_> = (0..3)
            .map(|i| {
                let m = sim
                    .cluster_mut()
                    .register_member(Member::new(format!("m{i}"), Role::Participant));
                sim.cluster_mut().join_group(g, m).unwrap();
                m
            })
            .collect();
        let primary = sim.serving_host(shard);
        for i in 0..40u64 {
            sim.submit_at(
                SimTime::from_millis(50 * i),
                GlobalRequest::speak(g, speakers[(i % 3) as usize]),
            )
            .unwrap();
        }
        sim.schedule_crash(SimTime::from_millis(900), shard, Duration::from_millis(300));
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1);
        assert_ne!(sim.serving_host(shard), primary, "standby serves now");
        // Without retransmission, some requests were answered and some died
        // with the host.
        assert!(!sim.decisions().is_empty());
        assert!(sim.decisions().len() < 40);
        assert_eq!(sim.retransmits(), 0);
        assert!(sim
            .network()
            .dropped()
            .iter()
            .any(|d| d.reason == dmps_simnet::DropReason::HostDown));
        sim.cluster().check_invariants().unwrap();
        // Exactly one token holder after recovery.
        let placement = sim.cluster().placement(g).unwrap();
        let arbiter = sim.cluster().arbiter(placement.shard);
        let token = arbiter.token(placement.local).unwrap();
        assert!(token.holder().is_some());
    }

    #[test]
    fn retransmission_answers_every_request_exactly_once() {
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 5, Link::lan());
        sim.enable_retransmission(Duration::from_millis(40));
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let shard = sim.cluster().placement(g).unwrap().shard;
        let speakers: Vec<_> = (0..3)
            .map(|i| {
                let m = sim
                    .cluster_mut()
                    .register_member(Member::new(format!("m{i}"), Role::Participant));
                sim.cluster_mut().join_group(g, m).unwrap();
                m
            })
            .collect();
        let mut seqs = Vec::new();
        for i in 0..40u64 {
            seqs.push(
                sim.submit_at(
                    SimTime::from_millis(50 * i),
                    GlobalRequest::speak(g, speakers[(i % 3) as usize]),
                )
                .unwrap(),
            );
        }
        sim.schedule_crash(SimTime::from_millis(900), shard, Duration::from_millis(300));
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1);
        assert!(sim.retransmits() > 0, "the crash must strand some requests");
        // Exactly one decision per submission, despite drops and retries.
        let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        answered.sort_unstable();
        assert_eq!(answered, seqs, "every request answered exactly once");
        sim.cluster().check_invariants().unwrap();
    }

    #[test]
    fn crash_failover_run_yields_time_ordered_trace_with_identifiable_replay() {
        // Zero jitter and a fat 30 ms pipe make the replay deterministic: the
        // request sent at 850 ms is applied and durably logged at ~880 ms, its
        // decision is still in flight when the host dies at 900 ms, and the
        // post-failover retry is answered from the recovered journal.
        let link = Link {
            latency: Duration::from_millis(30),
            jitter: Duration::ZERO,
            ..Link::lan()
        };
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 5, link);
        sim.enable_retransmission(Duration::from_millis(40));
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let shard = sim.cluster().placement(g).unwrap().shard;
        let speakers: Vec<_> = (0..3)
            .map(|i| {
                let m = sim
                    .cluster_mut()
                    .register_member(Member::new(format!("m{i}"), Role::Participant));
                sim.cluster_mut().join_group(g, m).unwrap();
                m
            })
            .collect();
        for i in 0..40u64 {
            sim.submit_at(
                SimTime::from_millis(50 * i),
                GlobalRequest::speak(g, speakers[(i % 3) as usize]),
            )
            .unwrap();
        }
        sim.schedule_crash(SimTime::from_millis(900), shard, Duration::from_millis(300));
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1);
        assert!(sim.retransmits() > 0);

        let trace = sim.trace();
        // One merged stream, in global time order.
        assert!(
            trace.events().windows(2).all(|w| w[0].at <= w[1].at),
            "trace must be time-ordered"
        );
        // The crash, the recovery, and the retransmission pass are all in it.
        let crash = trace.of_category("crash").next().expect("crash traced");
        let recover = trace
            .of_category("recover")
            .next()
            .expect("recovery traced");
        assert_eq!(crash.at, SimTime::from_millis(900));
        assert_eq!(recover.at, SimTime::from_millis(1_200));
        assert_eq!(trace.of_category("retransmit").count(), 1);
        // Retried ids answered from the recovered journal are marked as
        // replays — identifiable, and strictly after the recovery. A retried
        // id the crashed shard never applied arbitrates anew and stays
        // "decision".
        let replay = trace
            .of_category("replay")
            .next()
            .expect("the in-flight decision at crash time must replay");
        assert!(replay.at > recover.at, "replays only after recovery");
        // Decisions + replays account for every answered request exactly.
        let answered = trace.of_category("decision").count() + trace.of_category("replay").count();
        assert_eq!(answered, sim.decisions().len());
        // And the rendered table carries the story end to end.
        let table = sim.trace().to_table();
        assert!(table.contains("crash"));
        assert!(table.contains("failed over to standby"));
    }

    #[test]
    fn session_traffic_survives_crash_with_exactly_once_delivery() {
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 5, Link::lan());
        sim.enable_retransmission(Duration::from_millis(40));
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let shard = sim.cluster().placement(g).unwrap().shard;
        let m = sim
            .cluster_mut()
            .register_member(Member::new("t", Role::Chair));
        sim.cluster_mut().join_group(g, m).unwrap();
        let mut seqs = Vec::new();
        for i in 0..40u64 {
            seqs.push(
                sim.submit_session_at(
                    SimTime::from_millis(50 * i),
                    SessionOp::chat(g, m, format!("line {i}")),
                )
                .unwrap(),
            );
        }
        sim.schedule_crash(SimTime::from_millis(900), shard, Duration::from_millis(300));
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1);
        assert!(sim.retransmits() > 0, "the crash must strand some ops");
        // Exactly one ack per submission, despite drops and retries.
        let mut acked: Vec<u64> = sim.session_acks().iter().map(|(s, ..)| *s).collect();
        acked.sort_unstable();
        assert_eq!(acked, seqs, "every session op acked exactly once");
        // And exactly one recorded chat line per submission: the recovered
        // session store was reconstructed by snapshot+replay, and retries
        // replayed from the session journal instead of re-appending.
        let view = sim.cluster().session_view(g).unwrap();
        assert_eq!(view.chat.len(), 40);
        sim.cluster().check_invariants().unwrap();
    }

    /// A 2-shard campus plus one added mid-sim; one Equal Control group with
    /// a held token and live traffic, scheduled for a live handoff to the
    /// new shard.
    fn handoff_scenario(
        seed: u64,
    ) -> (
        ClusterSim,
        GlobalGroupId,
        Vec<crate::shard::GlobalMemberId>,
        Vec<u64>,
        ShardId,
        ShardId,
    ) {
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), seed, Link::lan());
        sim.enable_retransmission(Duration::from_millis(40));
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let source = sim.cluster().placement(g).unwrap().shard;
        let speakers: Vec<_> = (0..3)
            .map(|i| {
                let m = sim
                    .cluster_mut()
                    .register_member(Member::new(format!("m{i}"), Role::Participant));
                sim.cluster_mut().join_group(g, m).unwrap();
                m
            })
            .collect();
        let target = sim.add_shard(Link::lan());
        let mut seqs = Vec::new();
        for i in 0..40u64 {
            seqs.push(
                sim.submit_at(
                    SimTime::from_millis(50 * i),
                    GlobalRequest::speak(g, speakers[(i % 3) as usize]),
                )
                .unwrap(),
            );
        }
        // Prepare at 900 ms, commit 300 ms later: requests land before,
        // inside, and after the frozen window.
        sim.schedule_handoff(
            SimTime::from_millis(900),
            g,
            Some(target),
            Duration::from_millis(300),
        );
        (sim, g, speakers, seqs, source, target)
    }

    #[test]
    fn scheduled_handoff_moves_live_group_exactly_once() {
        let (mut sim, g, _speakers, seqs, source, target) = handoff_scenario(5);
        sim.run_to_idle();
        assert_eq!(sim.handoffs_committed(), 1);
        assert_eq!(sim.handoffs_aborted(), 0);
        assert_eq!(sim.cluster().placement(g).unwrap().shard, target);
        assert!(
            sim.retransmits() > 0,
            "the frozen window must strand some requests"
        );
        // Every request answered exactly once despite the migration.
        let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        answered.sort_unstable();
        assert_eq!(answered, seqs, "every request answered exactly once");
        sim.cluster().check_invariants().unwrap();
        // Exactly one serving copy: the source husk is empty and unfrozen,
        // the destination holds the token.
        assert_eq!(sim.cluster().shard_view(source).frozen_groups, 0);
        let placement = sim.cluster().placement(g).unwrap();
        let arbiter = sim.cluster().arbiter(placement.shard);
        assert!(arbiter.token(placement.local).unwrap().holder().is_some());
    }

    #[test]
    fn source_crash_mid_handoff_recovers_consistently() {
        let (mut sim, g, _speakers, seqs, source, target) = handoff_scenario(5);
        // The source host dies inside the prepare→commit gap and its standby
        // recovers only after the commit already ran: the commit proceeds on
        // the destination and the source recovers as a frozen husk.
        sim.schedule_crash(
            SimTime::from_millis(1_000),
            source,
            Duration::from_millis(500),
        );
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1);
        assert_eq!(sim.handoffs_committed(), 1);
        assert_eq!(sim.cluster().placement(g).unwrap().shard, target);
        sim.cluster().check_invariants().unwrap();
        // Snapshot+replay restored the source *with* its frozen marker, so
        // even a stale route cannot make the husk serve the group.
        assert_eq!(sim.cluster().shard_view(source).frozen_groups, 1);
        // Exactly-once still holds end to end.
        let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        answered.sort_unstable();
        assert_eq!(answered, seqs);
        let placement = sim.cluster().placement(g).unwrap();
        let arbiter = sim.cluster().arbiter(placement.shard);
        assert!(arbiter.token(placement.local).unwrap().holder().is_some());
    }

    #[test]
    fn destination_crash_mid_handoff_aborts_back_to_source() {
        let (mut sim, g, _speakers, seqs, source, target) = handoff_scenario(5);
        // The destination dies inside the gap and stays down through the
        // commit: the handoff aborts and the group keeps serving on its
        // source, token state untouched.
        sim.schedule_crash(
            SimTime::from_millis(1_000),
            target,
            Duration::from_millis(500),
        );
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1);
        assert_eq!(sim.handoffs_committed(), 0);
        assert_eq!(sim.handoffs_aborted(), 1);
        assert_eq!(sim.cluster().placement(g).unwrap().shard, source);
        assert_eq!(sim.cluster().shard_view(source).frozen_groups, 0);
        sim.cluster().check_invariants().unwrap();
        let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        answered.sort_unstable();
        assert_eq!(answered, seqs);
        let placement = sim.cluster().placement(g).unwrap();
        let arbiter = sim.cluster().arbiter(placement.shard);
        assert!(arbiter.token(placement.local).unwrap().holder().is_some());
    }

    #[test]
    fn same_seed_same_handoff_same_state() {
        let run = |seed: u64| {
            let (mut sim, g, _, _, source, _) = handoff_scenario(seed);
            sim.schedule_crash(
                SimTime::from_millis(1_000),
                source,
                Duration::from_millis(500),
            );
            sim.run_to_idle();
            let placement = sim.cluster().placement(g).unwrap();
            (
                dmps_wire::to_string(&sim.cluster().arbiter(placement.shard)),
                placement.shard,
                sim.decisions().len(),
                sim.retransmits(),
                sim.handoffs_committed(),
            )
        };
        assert_eq!(run(91), run(91), "identical seeds reproduce exactly");
    }

    #[test]
    fn timeout_retry_heals_message_loss_exactly_once() {
        // A 20% lossy link with no crashes at all: failover-triggered
        // retransmission would never fire, so only the per-request timer can
        // heal the drops.
        let link = Link {
            loss_rate: 0.2,
            ..Link::lan()
        };
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), 23, link);
        sim.enable_timeout_retry(Duration::from_millis(30), 10);
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let m = sim
            .cluster_mut()
            .register_member(Member::new("t", Role::Chair));
        sim.cluster_mut().join_group(g, m).unwrap();
        let mut seqs = Vec::new();
        for i in 0..30u64 {
            seqs.push(
                sim.submit_at(SimTime::from_millis(40 * i), GlobalRequest::speak(g, m))
                    .unwrap(),
            );
            seqs.push(
                sim.submit_session_at(
                    SimTime::from_millis(40 * i + 20),
                    SessionOp::chat(g, m, format!("line {i}")),
                )
                .unwrap(),
            );
        }
        sim.run_to_idle();
        assert!(
            sim.timeout_retries() > 0,
            "a 20% lossy link must strand some submissions"
        );
        assert_eq!(sim.retransmits(), 0, "no failover passes ran");
        // Exactly one answer per submission despite drops and retries.
        let mut answered: Vec<u64> = sim
            .decisions()
            .iter()
            .map(|(s, ..)| *s)
            .chain(sim.session_acks().iter().map(|(s, ..)| *s))
            .collect();
        answered.sort_unstable();
        seqs.sort_unstable();
        assert_eq!(answered, seqs, "every submission answered exactly once");
        // And exactly one recorded chat line per session op.
        assert_eq!(sim.cluster().session_view(g).unwrap().chat.len(), 30);
        assert!(sim.trace().of_category("timeout-retry").count() > 0);
        sim.cluster().check_invariants().unwrap();
    }

    #[test]
    fn timeout_retry_budget_bounds_the_retries() {
        // The shard link is fully lossy in both directions, so no request is
        // ever answered: the gateway must give up after exactly `budget`
        // retries per id instead of retrying forever.
        let link = Link {
            loss_rate: 1.0,
            ..Link::lan()
        };
        let mut sim = ClusterSim::new(ClusterConfig::with_shards(1), 9, link);
        sim.enable_timeout_retry(Duration::from_millis(30), 3);
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let m = sim
            .cluster_mut()
            .register_member(Member::new("t", Role::Chair));
        sim.cluster_mut().join_group(g, m).unwrap();
        for i in 0..4u64 {
            sim.submit_at(SimTime::from_millis(10 * i), GlobalRequest::speak(g, m))
                .unwrap();
        }
        sim.run_to_idle();
        assert!(sim.decisions().is_empty(), "nothing survives a 100% loss");
        assert_eq!(
            sim.timeout_retries(),
            4 * 3,
            "exactly budget retries per request"
        );
        assert_eq!(sim.trace().of_category("retry-exhausted").count(), 4);
    }

    /// A replicated 2-shard cluster with one busy Equal Control group:
    /// the scenario every fault-plan test below perturbs.
    fn replicated_scenario(
        seed: u64,
    ) -> (ClusterSim, GlobalGroupId, Vec<u64>, crate::ring::ShardId) {
        let mut sim = ClusterSim::new(
            ClusterConfig::with_shards(2).with_replicas(2),
            seed,
            Link::lan(),
        );
        sim.enable_retransmission(Duration::from_millis(40));
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::EqualControl)
            .unwrap();
        let shard = sim.cluster().placement(g).unwrap().shard;
        let speakers: Vec<_> = (0..3)
            .map(|i| {
                let m = sim
                    .cluster_mut()
                    .register_member(Member::new(format!("m{i}"), Role::Participant));
                sim.cluster_mut().join_group(g, m).unwrap();
                m
            })
            .collect();
        let mut seqs = Vec::new();
        for i in 0..40u64 {
            seqs.push(
                sim.submit_at(
                    SimTime::from_millis(50 * i),
                    GlobalRequest::speak(g, speakers[(i % 3) as usize]),
                )
                .unwrap(),
            );
        }
        (sim, g, seqs, shard)
    }

    #[test]
    fn partition_isolating_leader_fails_over_exactly_once() {
        let (mut sim, g, seqs, shard) = replicated_scenario(5);
        // The leader is cut off from its whole fleet mid-traffic: its next
        // quorum write burns the stall budget, the pipeline fails (ShardDown
        // answers), and the shard self-demotes. The heal entry promotes a
        // follower under a bumped epoch and re-drives the stranded ids.
        sim.schedule_partition(SimTime::from_millis(900), shard, Duration::from_millis(300));
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1, "demotion under partition must promote");
        assert!(
            sim.retransmits() > 0,
            "the partition must strand some requests"
        );
        assert_eq!(sim.trace().of_category("partition").count(), 1);
        assert_eq!(sim.trace().of_category("heal").count(), 1);
        // Exactly-once despite the demote/promote cycle: the reconciled
        // dedup journal answers retries of quorum-surviving ids as replays
        // and re-arbitrates the rest.
        let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        answered.sort_unstable();
        assert_eq!(answered, seqs, "every request answered exactly once");
        sim.cluster().check_invariants().unwrap();
        let placement = sim.cluster().placement(g).unwrap();
        let arbiter = sim.cluster().arbiter(placement.shard);
        assert!(arbiter.token(placement.local).unwrap().holder().is_some());
    }

    #[test]
    fn same_seed_same_partition_same_state() {
        let run = |seed: u64| {
            let (mut sim, g, _, shard) = replicated_scenario(seed);
            sim.schedule_partition(SimTime::from_millis(900), shard, Duration::from_millis(300));
            sim.run_to_idle();
            let placement = sim.cluster().placement(g).unwrap();
            (
                dmps_wire::to_string(&sim.cluster().arbiter(placement.shard)),
                sim.decisions().len(),
                sim.retransmits(),
                sim.failovers(),
            )
        };
        assert_eq!(run(41), run(41), "identical seeds reproduce exactly");
    }

    #[test]
    fn corrupt_leader_segment_is_repaired_from_quorum_at_failover() {
        let (mut sim, g, seqs, shard) = replicated_scenario(5);
        // Silent bit-rot on the leader's newest sealed segment, then a crash:
        // promotion's checksum verification catches it and repairs the new
        // leader from the replica quorum instead of serving from bad state.
        sim.schedule_corruption(
            SimTime::from_millis(850),
            shard,
            CorruptionTarget::SealedSegment,
        );
        sim.schedule_crash(SimTime::from_millis(900), shard, Duration::from_millis(300));
        sim.run_to_idle();
        assert_eq!(sim.failovers(), 1, "repair must let the failover complete");
        assert_eq!(sim.trace().of_category("corrupt").count(), 1);
        assert_eq!(sim.trace().of_category("quarantine").count(), 0);
        let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
        answered.sort_unstable();
        assert_eq!(answered, seqs, "every request answered exactly once");
        sim.cluster().check_invariants().unwrap();
        let placement = sim.cluster().placement(g).unwrap();
        let arbiter = sim.cluster().arbiter(placement.shard);
        assert!(arbiter.token(placement.local).unwrap().holder().is_some());
    }

    #[test]
    fn unreplicated_corruption_quarantines_instead_of_aborting() {
        // No replicas: there is no quorum to repair from, so recovery must
        // refuse (ClusterError::Corrupt) and quarantine the shard — never
        // abort the process, never serve from corrupt state. A tight
        // event-count checkpoint cadence guarantees a snapshot base exists
        // to rot.
        let mut config = ClusterConfig::with_shards(2);
        config.snapshot_every = 8;
        config.snapshot_every_bytes = 0;
        let mut sim = ClusterSim::new(config, 5, Link::lan());
        let g = sim
            .cluster_mut()
            .create_group("lecture", FcmMode::FreeAccess)
            .unwrap();
        let shard = sim.cluster().placement(g).unwrap().shard;
        let m = sim
            .cluster_mut()
            .register_member(Member::new("t", Role::Chair));
        sim.cluster_mut().join_group(g, m).unwrap();
        for i in 0..20u64 {
            sim.submit_at(SimTime::from_millis(10 * i), GlobalRequest::speak(g, m))
                .unwrap();
        }
        sim.schedule_corruption(
            SimTime::from_millis(500),
            shard,
            CorruptionTarget::SnapshotBase,
        );
        sim.schedule_crash(SimTime::from_millis(600), shard, Duration::from_millis(200));
        sim.run_to_idle();
        let corrupt = sim
            .trace()
            .of_category("corrupt")
            .next()
            .expect("corruption traced");
        assert!(
            corrupt.detail.contains("silently corrupted"),
            "the snapshot base must exist to corrupt: {}",
            corrupt.detail
        );
        assert_eq!(sim.failovers(), 0, "a corrupt standby must not serve");
        assert_eq!(sim.trace().of_category("quarantine").count(), 1);
        assert!(!sim.cluster().is_shard_active(shard));
    }

    #[test]
    fn same_seed_same_failover_same_state() {
        let run = |seed: u64| {
            let mut sim = ClusterSim::new(ClusterConfig::with_shards(3), seed, Link::dsl());
            sim.enable_retransmission(Duration::from_millis(25));
            let g = sim
                .cluster_mut()
                .create_group("lecture", FcmMode::EqualControl)
                .unwrap();
            let shard = sim.cluster().placement(g).unwrap().shard;
            let ms: Vec<_> = (0..4)
                .map(|i| {
                    let m = sim
                        .cluster_mut()
                        .register_member(Member::new(format!("m{i}"), Role::Participant));
                    sim.cluster_mut().join_group(g, m).unwrap();
                    m
                })
                .collect();
            for i in 0..60u64 {
                sim.submit_at(
                    SimTime::from_millis(20 * i),
                    GlobalRequest::speak(g, ms[(i % 4) as usize]),
                )
                .unwrap();
            }
            sim.schedule_crash(SimTime::from_millis(600), shard, Duration::from_millis(200));
            sim.run_to_idle();
            let placement = sim.cluster().placement(g).unwrap();
            (
                dmps_wire::to_string(&sim.cluster().arbiter(placement.shard)),
                sim.decisions().len(),
                sim.retransmits(),
                sim.network().dropped().len(),
            )
        };
        assert_eq!(run(77), run(77), "identical seeds reproduce exactly");
    }
}
