//! # dmps-cluster
//!
//! A sharded, failure-tolerant federation of floor-control arbiters — the
//! scale-out control plane the ROADMAP's "millions of concurrent users"
//! target needs, built on the paper's single-arbiter `FCM-Arbitrate`
//! semantics without weakening them.
//!
//! ## Architecture
//!
//! The paper's floor control mechanism serializes *who may speak*; this
//! crate is careful not to also serialize *who may ask*. Ingest is
//! concurrent end to end:
//!
//! * **Sharding** ([`ring`]) — groups are partitioned across shards by
//!   consistent hashing on their [`GlobalGroupId`]; each shard is an
//!   independent [`dmps_floor::FloorArbiter`] so shards share nothing and
//!   scale linearly.
//! * **Shared directory** ([`directory`]) — placements, membership and
//!   invitations live in a read-mostly [`Directory`] whose maps are split
//!   over per-stripe `RwLock`s (stripe picked by the same splitmix64 hash
//!   the ring uses) with atomic id counters. Routing a request takes `&self`
//!   and only read locks, so any number of gateways route concurrently; the
//!   old cluster-wide `&mut self` router lock is gone.
//! * **Shard pipelines** ([`worker`], [`queue`]) — each shard's state is one
//!   steppable core behind a lock, fed by a **bounded** MPSC command queue
//!   ([`ClusterConfig::queue_capacity`]) and stepped in group-committed
//!   batches — by its worker thread, or, on a one-CPU host, by a caller
//!   that finds it idle and steps it on its own stack, sparing the two
//!   context switches of a hand-off. One step drains up to
//!   [`ClusterConfig::ingest_batch`] commands, arbitrates them all, appends
//!   their events to the durable log with one amortized
//!   [`EventLog::append_batch`] (and one snapshot-cadence check), and only
//!   then releases the decisions — coalesced into one channel send per
//!   submitting gateway. The core's lock is the shard's serialization
//!   point; the queue orders what arrives while it is held and is the
//!   backpressure valve: when it is full, the
//!   configured [`OverloadPolicy`] either blocks the submitter (lossless)
//!   or sheds with [`ClusterError::Overloaded`] on the submitter's stream,
//!   so a storm can never exhaust memory and never loses a request
//!   silently. Control-plane commands are exempt from the bound, so
//!   crash-recovery and handoffs cannot be starved by a storm.
//! * **Gateways** ([`gateway`]) — a [`Gateway`] is a cheaply-cloneable
//!   ingest handle (`Arc` of the shared core + its own decision mailbox).
//!   Hand a clone to every front-end thread. The submit path does no
//!   per-request heap allocation: request ids come from per-gateway leased
//!   blocks instead of a shared atomic, and commands carry an `Arc` of the
//!   mailbox that the shard step delivers decisions into.
//!   [`Gateway::submit_batch`] /
//!   [`Gateway::submit_session_batch`] / [`Gateway::submit_ops`] route a
//!   whole batch with one id lease, one directory pass and one queue
//!   reservation per shard.
//! * **One op, one pipeline** ([`op`]) — a floor request and a piece of
//!   session content are both an [`Op`]: one request-id space, one routing
//!   path, one shard queue (so a group's ops apply in submission order
//!   whatever their kinds) and one [`Reply`] channel back.
//! * **Sessions** ([`session`]) — the content plane of a DMPS presentation
//!   session runs sharded too: every group carries its chat / whiteboard /
//!   annotation logs and synchronized-media schedule ([`GroupSession`]) on
//!   its owning shard, deliveries are floor-gated there
//!   ([`dmps_floor::FloorArbiter::may_deliver`]) exactly like a single DMPS
//!   server gates them, and session events share the shard's durable log, so
//!   a whole session — not just its floor requests — survives a crash.
//! * **Retransmission & dedup** ([`shard`]) — every arbitration is keyed by
//!   its request id in the owning shard's [`DedupWindow`], a bounded
//!   decision journal that is durable across shard crashes (conceptually it
//!   rides the replicated log). A gateway that never saw a decision —
//!   because the shard host died mid-request — simply retries under the same
//!   id: an already-applied event is answered from the journal
//!   ([`Decision::replayed`]) instead of double-applying, so retry-after-
//!   failover is exactly-once. Session operations get the same treatment
//!   through a second journal keyed by the same id space.
//! * **Durability & failover** ([`shard`]) — every state mutation is a
//!   [`ShardEvent`] (a floor mutation or a session delivery) appended to the
//!   shard's replicated log; snapshots ([`ShardSnapshot`]) are taken on a
//!   cadence and compact the log. When a shard host crashes, a standby
//!   restores snapshot-plus-log-suffix and takes over with *exactly* the
//!   pre-crash floor and session state: no double grants, token uniqueness,
//!   suspension order — the invariants
//!   [`dmps_floor::FloorArbiter::check_invariants`] verifies.
//! * **Replication & follower reads** — with
//!   [`ClusterConfig::replicas`] > 0 each shard pipeline ships every
//!   group-committed log suffix to N follower replicas over a private
//!   `dmps-simnet` network (latency, jitter and loss on the append path)
//!   and releases decisions only once a **quorum** of copies — counting the
//!   leader's own durable append — holds the batch. The quorum write is
//!   *pipelined*: the next step drains and arbitrates the next batch
//!   while the previous batch's acks are still in flight (a bounded
//!   window), so replication costs one network round-trip of latency, not
//!   one per batch of throughput. Failover promotes the most caught-up follower and
//!   replays only the committed tail it is missing, instead of rebuilding
//!   from snapshot-plus-full-log; and reads ([`Gateway::session_view`],
//!   [`Gateway::queue_position`], [`Gateway::shard_view`]) scale out to
//!   followers under a per-gateway **read-your-writes bound** — a follower
//!   serves only once it has applied everything the reading gateway has
//!   seen acknowledged, forwarding to the leader otherwise.
//! * **Cross-shard invitations** — Group Discussion / Direct Contact
//!   sub-groups spawn on whatever shard the ring (or the caller) picks, so a
//!   popular lecture's breakouts spread over the cluster instead of
//!   hot-spotting their parent's shard.
//! * **Observability** ([`telemetry`]) — every layer of the pipeline
//!   records into one cluster-wide
//!   [`MetricsRegistry`](telemetry::MetricsRegistry) of lock-free counters,
//!   log-bucketed latency histograms and bounded time-series
//!   ([`Cluster::metrics_report`] renders it; see the metric namespace in
//!   the docs of [`Cluster::metrics`]), and
//!   [`ClusterConfig::trace_sampling`] turns on 1-in-N end-to-end request
//!   tracing: a sampled submission carries a
//!   [`TraceSpan`](telemetry::TraceSpan) stamped
//!   `submitted → enqueued → drained → committed → replied`, retained in
//!   [`Cluster::recent_spans`].
//! * **Failure injection** ([`sim`]) — [`ClusterSim`] deploys the cluster
//!   over `dmps-simnet` hosts, crashes them mid-traffic on a seeded
//!   schedule (including between the phases of a scheduled live handoff),
//!   and (optionally) retransmits unanswered requests after failover,
//!   exercising the dedup window end to end.
//! * **Scale-out & live migration** — [`Cluster::add_shard`] grows the ring
//!   and spawns the new shard's pipeline. Every group move is one two-phase
//!   handoff carrying the *live* floor state — held token, FIFO queue,
//!   chair, session content, journal slices (prepare freezes the group on
//!   the source and exports at a pinned log position; commit installs on
//!   the destination in one shard step after the roster's ordinary logged
//!   events, flips the directory placement, retires the source in one
//!   step, and re-drives the submissions parked during the frozen window;
//!   abort resumes the source). [`Cluster::rebalance_idle`] is that
//!   handoff filtered to idle groups, reporting floor-active ones as
//!   `deferred` ([`RebalanceReport`]); [`Cluster::rebalance_active`] moves
//!   every displaced group. The freeze guarantees at most one serving copy
//!   of a token at any instant — the paper's one-holder invariant,
//!   preserved across shard moves.
//!
//! The surface is split by actor, as the paper splits participants from the
//! operator of the floor-control server: a [`Gateway`] carries participant
//! ops (groups, membership, invitations, submits, decision streams, bounded
//! reads), the [`Cluster`] the operator's (lifetime, topology, faults,
//! leader-side inspection, telemetry) — and it lends the gateway it owns
//! through `Deref`, so a participant op called on it is that gateway's.
//!
//! ## Example: gateways carry traffic, the cluster administers
//!
//! ```
//! use dmps_cluster::{Cluster, ClusterConfig, GlobalRequest};
//! use dmps_floor::{FcmMode, Member, Role};
//!
//! let mut cluster = Cluster::new(ClusterConfig::with_shards(4));
//! let group = cluster.create_group("lecture", FcmMode::EqualControl).unwrap();
//! let teacher = cluster.register_member(Member::new("teacher", Role::Chair));
//! cluster.join_group(group, teacher).unwrap();
//!
//! // Concurrent ingest: every clone is an independent gateway.
//! let gateway = cluster.gateway();
//! let worker = std::thread::spawn(move || {
//!     let seq = gateway.submit(GlobalRequest::speak(group, teacher)).unwrap();
//!     let decision = gateway.recv_decision().unwrap();
//!     assert_eq!(decision.seq, seq);
//!     assert!(decision.outcome.unwrap().is_granted());
//! });
//! worker.join().unwrap();
//!
//! // The cluster's own gateway, lent through `Deref`, streams the same way.
//! cluster.submit(GlobalRequest::release_floor(group, teacher)).unwrap();
//! assert!(cluster.recv_decision().unwrap().outcome.unwrap().is_granted());
//!
//! // Admin: crash the shard owning the group; the standby recovers it exactly.
//! let shard = cluster.placement(group).unwrap().shard;
//! cluster.crash_shard(shard);
//! cluster.recover_shard(shard).unwrap();
//! cluster.check_invariants().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod directory;
pub mod error;
pub mod gateway;
mod instrument;
pub mod op;
mod poison;
pub mod queue;
mod replication;
pub mod ring;
pub mod session;
pub mod shard;
pub mod sim;
pub mod worker;

/// The cluster's telemetry vocabulary, re-exported from `dmps-telemetry`:
/// [`Cluster::metrics`] hands back a
/// [`MetricsRegistry`](telemetry::MetricsRegistry) of
/// [`Counter`](telemetry::Counter)s / [`Gauge`](telemetry::Gauge)s /
/// [`Histogram`](telemetry::Histogram)s / bounded
/// [`TimeSeries`](telemetry::TimeSeries), and [`Cluster::recent_spans`]
/// returns sampled per-request [`TraceSpan`](telemetry::TraceSpan)s.
pub use dmps_telemetry as telemetry;

pub use cluster::{
    Cluster, ClusterConfig, Decision, GlobalRequest, GlobalRequestKind, HandoffTicket,
    RebalanceReport,
};
pub use directory::{ClusterInvitation, Directory, GroupPlacement};
pub use error::{ClusterError, Result};
pub use gateway::Gateway;
pub use op::{Op, Reply};
pub use queue::{OverloadPolicy, QueueStats};
pub use ring::{HashRing, ShardId};
pub use session::{
    GroupSession, LaneLens, SessionDecision, SessionEvent, SessionOp, SessionOpKind,
    SessionOutcome, SessionRejection, SessionStore,
};
pub use shard::{
    CorruptionTarget, DedupWindow, EventLog, GlobalGroupId, GlobalMemberId, HandoffExport, Shard,
    ShardEvent, ShardSnapshot, ShardState, ShardView, SnapshotDelta,
};
pub use sim::{ClusterMsg, ClusterSim};
