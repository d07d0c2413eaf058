//! Per-shard replication: pipelined quorum group-commit over `dmps-simnet`,
//! epoch-fenced follower promotion at failover, checksummed self-healing log
//! shipping, and the follower state behind the scale-out read path.
//!
//! Every shard owns one [`ReplicaSet`]: a private simulated network with the
//! leader (the worker thread) on host 0 and each follower on its own host,
//! connected by a [`Link`] that models the append path's latency, jitter,
//! bandwidth and loss. Replication is **log shipping**: after each group
//! commit the worker sends every follower the log suffix it has not yet been
//! sent ([`ReplicaMsg::Append`]); the follower appends the segment to its
//! pending buffer and acknowledges its **durable** position
//! ([`ReplicaMsg::Ack`]). Application to the follower's state machine — the
//! same [`replay_event`] function recovery uses — is deferred to
//! [`FollowerCore::catch_up`], which runs on the *read* path and at
//! promotion. That split keeps the quorum round-trip off the leader's
//! critical path: durability costs one buffer append per follower, while the
//! (N+1)-fold state-machine work is paid by whoever actually reads the
//! replica, not by the worker pumping acks between batches.
//!
//! The quorum pipeline lives in the worker, not here: the worker calls
//! [`ReplicaSet::replicate`] as each batch commits and keeps arbitrating the
//! next batch while acks are in flight, releasing a batch's replies only once
//! [`ReplicaSet::quorum_committed`] covers it. The quorum counts the leader's
//! own (synchronous) log append plus follower acks: with `N` followers the
//! write needs `(N + 1) / 2 + 1` total copies, i.e. `(N + 1) / 2` follower
//! acks — always at least one, so the best follower's durable position is
//! never behind the quorum-committed position and promotion (which first
//! catches the follower's state machine up to its durable tail) can never
//! lose a committed (= released) decision.
//!
//! ## Epoch fencing
//!
//! Every promotion bumps the shard's **leader epoch**; every `Append`, `Ack`
//! and `Resync` carries it, and promotion announces the new epoch to the
//! whole fleet. A follower rejects traffic from a stale epoch (a leader that
//! was partitioned away while the shard failed over), and its acks carry its
//! own — higher — epoch back, which **fences** the stale leader:
//! [`ReplicaSet::force_quorum`] fails immediately once fenced, the worker
//! answers the parked batches `ShardDown` and demotes the shard. A healed
//! partition therefore cannot double-release a parked reply or fork the log:
//! the stale leader's suffix never becomes durable on any follower.
//!
//! ## Checksums and repair
//!
//! Appends carry the sealed segment's CRC (the same one
//! [`Shard::verify_durable`] checks on the leader's own artifacts).
//! [`FollowerCore::catch_up`] re-derives the CRC before replaying a segment;
//! a mismatch — or an event that fails to re-apply — **quarantines** the
//! follower copy: the suspect pending tail is dropped, the durable position
//! rolls back to what was actually applied, and a repair flag asks the
//! leader to re-ship the suffix from a healthy copy on its next
//! [`ReplicaSet::replicate`]. A resync whose artifacts fail to restore
//! resets the copy entirely and is re-seeded the same way. The leader's own
//! corruption is handled at promotion: when the crashed shard's durable
//! artifacts fail verification, [`ReplicaSet::promote`] adopts the most
//! caught-up follower's state wholesale ([`Shard::repair_from`]) instead of
//! trusting the local log — corrupt state never aborts the process and is
//! healed from the quorum.
//!
//! Loss on the replica link is healed by retransmission:
//! [`ReplicaSet::force_quorum`] rewinds a laggard's send cursor to its last
//! acked position and re-ships the suffix until the quorum covers the
//! target, giving up (bounded) only when fenced or when a partition makes
//! progress impossible.
//!
//! Compaction follows the fleet: the log keeps what the newest checkpoint
//! does not cover *and* what a follower has not acked, so every batch ships
//! as an `Append` and a healthy fleet is never re-seeded. Only a follower
//! that misses a whole checkpoint window stops pinning the log (retention
//! stays within two windows); it falls behind the log *base* and is
//! re-seeded from the checkpoint chain ([`ReplicaMsg::Resync`]).
//!
//! Failover promotes the follower with the highest applied position
//! ([`ReplicaSet::promote`]): only the log tail past that position is
//! replayed, so recovery cost shrinks from full-log replay to tail-catch-up
//! (recorded in the `cluster.shard.N.replica.catch_up_lag` histogram).
//!
//! Followers are shared with the routing layer behind `Arc<Mutex<_>>` so
//! `session_view` / `shard_view` / queue-position reads can be served from a
//! follower without entering the owning worker's command queue (the
//! read-your-writes bound is enforced by the routing layer; see
//! `Gateway::session_view`).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use dmps_floor::FloorArbiter;
use dmps_simnet::{Delivery, HostId, Link, Network};

use crate::error::{ClusterError, Result};
use crate::instrument::ReplicaMetrics;
use crate::ring::ShardId;
use crate::session::SessionStore;
use crate::shard::{
    replay_event, segment_crc, GlobalGroupId, Shard, ShardEvent, ShardSnapshot, ShardState,
    ShardView, SnapshotDelta,
};

/// Estimated wire size of one logged event, for the simulated link's
/// bandwidth model. Replication correctness never depends on this.
const EVENT_SIZE_ESTIMATE: u64 = 48;
/// Fixed per-message framing overhead, same caveat.
const FRAME_SIZE_ESTIMATE: u64 = 16;
/// Consecutive no-progress retransmission rounds [`ReplicaSet::force_quorum`]
/// tolerates before concluding the quorum is unreachable (partitioned or
/// fenced) and giving up. Loss alone never trips this: a lossy round still
/// moves acks with overwhelming probability, and any movement resets the
/// budget.
const STALL_BUDGET: u32 = 64;

/// A message on a shard's replication network. Every variant carries the
/// sender's leader epoch, which is what fences a stale leader after a
/// partitioned failover.
#[derive(Debug, Clone)]
pub(crate) enum ReplicaMsg {
    /// Leader → follower: the log suffix starting at `from_seq`. The segment
    /// is behind an `Arc` so one materialized suffix serves the whole fleet
    /// (and the follower's pending buffer) without per-follower copies.
    Append {
        /// The sending leader's epoch.
        epoch: u64,
        /// Sequence number of the first event in `events`.
        from_seq: u64,
        /// CRC-32 of the shipped events' canonical encoding (the sealed
        /// segment's recorded checksum); verified before the follower
        /// replays the segment.
        crc: u32,
        /// The shipped events. An empty run is an epoch announcement.
        events: Arc<[ShardEvent]>,
    },
    /// Follower → leader: "my durable position is now `acked`". Carries the
    /// follower's epoch: an ack from a higher epoch tells a stale leader it
    /// has been fenced.
    Ack {
        /// The acking follower's epoch.
        epoch: u64,
        /// The follower's durable position (next sequence it needs shipped).
        acked: u64,
    },
    /// Leader → follower: state re-seed for a follower that fell behind the
    /// leader's compaction base. Ships only the checkpoint suffix the
    /// follower is missing: the full base is included only when the
    /// follower's acked position predates it; otherwise just the
    /// differential checkpoints past that position.
    Resync {
        /// The sending leader's epoch.
        epoch: u64,
        /// The leader's full snapshot base, when the follower needs it.
        base: Option<Box<ShardSnapshot>>,
        /// The differential checkpoints the follower is missing, oldest
        /// first (a contiguous suffix of the leader's chain).
        deltas: Vec<SnapshotDelta>,
    },
}

impl ReplicaMsg {
    fn size_bytes(&self) -> u64 {
        match self {
            ReplicaMsg::Append { events, .. } => {
                events.len() as u64 * EVENT_SIZE_ESTIMATE + FRAME_SIZE_ESTIMATE
            }
            ReplicaMsg::Ack { .. } => FRAME_SIZE_ESTIMATE,
            ReplicaMsg::Resync { base, deltas, .. } => {
                base.as_ref().map_or(0, |s| s.size_bytes() as u64)
                    + deltas.iter().map(|d| d.size_bytes() as u64).sum::<u64>()
                    + FRAME_SIZE_ESTIMATE
            }
        }
    }
}

/// One follower's live state: the same arbiter/session/frozen triple a shard
/// holds, plus the durably-received-but-unapplied tail of the shipped log.
/// Shared with the routing layer (reads) behind a mutex; the shard's stepper
/// only locks it briefly while buffering a delivery — state-machine
/// application happens in [`FollowerCore::catch_up`], on the reader's (or
/// promoter's) dime.
#[derive(Debug)]
pub(crate) struct FollowerCore {
    /// The shard this copy replicates (names [`ClusterError::Corrupt`]).
    shard: ShardId,
    arbiter: FloorArbiter,
    session: SessionStore,
    frozen: BTreeSet<GlobalGroupId>,
    /// Events applied to the state machine so far (next sequence it needs).
    applied: u64,
    /// Durably received, not yet applied segments covering
    /// `applied..durable`, each with the CRC its `Append` carried. Segments
    /// are contiguous in arrival order; a retransmitted segment may overlap
    /// its predecessor, which [`FollowerCore::catch_up`] skips by sequence
    /// arithmetic (the CRC always covers the full shipped slice).
    pending: Vec<(u64, u32, Arc<[ShardEvent]>)>,
    /// Durable log position (next sequence this follower needs shipped).
    durable: u64,
    /// Highest leader epoch observed; traffic below it is rejected.
    epoch: u64,
    /// Set when this copy quarantined itself (checksum mismatch, replay
    /// failure, unrestorable resync); asks the leader to re-ship the suffix
    /// past `durable` from its healthy copy.
    needs_repair: bool,
}

/// Locks a follower core, tolerating poison: a reader that panicked holding
/// the lock must not take the shard's worker down with it. Events replay
/// one at a time with `applied` bumped after each, so the copy at worst sits
/// behind its durable position, which reads and promotion already tolerate.
pub(crate) fn lock_core(core: &Mutex<FollowerCore>) -> MutexGuard<'_, FollowerCore> {
    crate::poison::lock(core)
}

impl FollowerCore {
    fn new(shard: ShardId) -> Self {
        FollowerCore {
            shard,
            arbiter: FloorArbiter::with_defaults(),
            session: SessionStore::new(),
            frozen: BTreeSet::new(),
            applied: 0,
            pending: Vec::new(),
            durable: 0,
            epoch: 0,
            needs_repair: false,
        }
    }

    /// Buffers a shipped log segment as durable. Returns `false` — and
    /// changes nothing — when the segment carries a stale epoch (a fenced
    /// leader's append). Otherwise the epoch is adopted, and: a segment
    /// entirely inside already-held history is skipped (re-shipped suffixes
    /// after a lost ack are idempotent); a gap — the segment starts past
    /// `durable`, meaning an earlier `Append` was lost — is ignored
    /// entirely, and the leader's retransmission heals it; an empty segment
    /// is a pure epoch announcement.
    fn receive(&mut self, epoch: u64, from_seq: u64, crc: u32, events: Arc<[ShardEvent]>) -> bool {
        if epoch < self.epoch {
            return false;
        }
        self.epoch = epoch;
        if events.is_empty() || from_seq > self.durable {
            return true;
        }
        let end = from_seq + events.len() as u64;
        if end <= self.durable {
            return true;
        }
        self.pending.push((from_seq, crc, events));
        self.durable = end;
        true
    }

    /// Quarantines this copy after an integrity failure: the suspect pending
    /// tail is dropped, the durable position rolls back to the consistently
    /// applied prefix, and the repair flag asks the leader to re-ship from
    /// its healthy copy. Returns the error recorded against the shard.
    fn quarantine(&mut self, what: String) -> ClusterError {
        self.pending.clear();
        self.durable = self.applied;
        self.needs_repair = true;
        ClusterError::Corrupt {
            shard: self.shard,
            what,
        }
    }

    /// Replays the pending tail into the follower's state machine, verifying
    /// each segment's CRC first. Reads and promotion call this, so `applied`
    /// equals `durable` whenever the state is actually observed.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Corrupt`] on a checksum mismatch or an event
    /// that fails to re-apply; the copy quarantines itself (see
    /// [`FollowerCore::quarantine`]) and stays consistent at its applied
    /// position, awaiting repair.
    fn catch_up(&mut self) -> Result<()> {
        for (from_seq, crc, events) in std::mem::take(&mut self.pending) {
            let actual = segment_crc(&events);
            if actual != crc {
                return Err(self.quarantine(format!(
                    "replicated segment at seq {from_seq} checksum mismatch \
                     ({actual:08x} != {crc:08x})"
                )));
            }
            let skip = (self.applied - from_seq) as usize;
            for event in events.iter().skip(skip) {
                if let Err(e) = replay_event(
                    &mut self.arbiter,
                    &mut self.session,
                    &mut self.frozen,
                    event,
                ) {
                    return Err(self.quarantine(format!("replicated event does not replay: {e}")));
                }
                self.applied += 1;
            }
        }
        Ok(())
    }

    /// Re-seeds the follower from a leader checkpoint chain (compaction
    /// passed its durable position). Returns `Ok(false)` — untouched — for a
    /// stale epoch. The follower first drains whatever it already holds,
    /// then folds only the chain suffix past its own applied position: the
    /// base if it is newer, then each newer delta. A delta's
    /// window-soundness (it folds correctly onto any state inside
    /// `[base_seq, applied_seq]`) covers the case where the follower sits
    /// mid-window. A wholly stale resync is ignored.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Corrupt`] when an artifact fails to restore
    /// or fold. The copy resets to empty and quarantines — a torn base
    /// could leave it half-restored, so the repair is a full re-seed from
    /// sequence zero rather than a suffix re-ship.
    fn install_resync(
        &mut self,
        epoch: u64,
        base: Option<&ShardSnapshot>,
        deltas: &[SnapshotDelta],
    ) -> Result<bool> {
        if epoch < self.epoch {
            return Ok(false);
        }
        self.epoch = epoch;
        // Apply what is already buffered first — it may cover part of the
        // chain and is cheaper than re-restoring state we hold.
        self.catch_up()?;
        let tip = deltas
            .last()
            .map(SnapshotDelta::applied_seq)
            .or_else(|| base.map(ShardSnapshot::applied_seq))
            .unwrap_or(0);
        if tip <= self.durable {
            return Ok(true);
        }
        match self.fold_resync(base, deltas) {
            Ok(()) => {
                self.durable = self.applied;
                self.pending.clear();
                Ok(true)
            }
            Err(e) => {
                // Folding mutates in place, so a failure may leave the copy
                // inconsistent: reset it entirely and re-seed from scratch.
                self.arbiter = FloorArbiter::with_defaults();
                self.session = SessionStore::new();
                self.frozen = BTreeSet::new();
                self.applied = 0;
                Err(self.quarantine(format!("resync does not restore: {e}")))
            }
        }
    }

    /// The fallible body of [`FollowerCore::install_resync`]: restore the
    /// base if it is newer than this copy, then fold each newer delta.
    fn fold_resync(
        &mut self,
        base: Option<&ShardSnapshot>,
        deltas: &[SnapshotDelta],
    ) -> Result<()> {
        if let Some(snapshot) = base {
            if snapshot.applied_seq() > self.applied {
                // Restore into temporaries so a torn artifact cannot leave
                // the copy with a new arbiter but a stale session store.
                let arbiter = FloorArbiter::restore(&snapshot.arbiter)?;
                let session =
                    dmps_wire::from_str::<SessionStore>(&snapshot.session).map_err(|e| {
                        ClusterError::Floor(dmps_floor::FloorError::CorruptSnapshot(format!(
                            "session store: {e}"
                        )))
                    })?;
                self.arbiter = arbiter;
                self.session = session;
                self.frozen = snapshot.frozen.iter().copied().collect();
                self.applied = snapshot.applied_seq();
            }
        }
        for delta in deltas {
            if delta.applied_seq() <= self.applied {
                continue;
            }
            delta
                .fold(&mut self.arbiter, &mut self.session, &mut self.frozen)
                .map_err(|what| ClusterError::Corrupt {
                    shard: self.shard,
                    what,
                })?;
            self.applied = delta.applied_seq();
        }
        Ok(())
    }

    /// The follower's durable log position (next sequence it needs shipped).
    /// This is what the follower acks — durability, not application.
    fn durable(&self) -> u64 {
        self.durable
    }

    /// Takes the repair flag: `true` once after each self-quarantine, so the
    /// leader rewinds its cursors and re-ships exactly once per incident.
    fn take_repair(&mut self) -> bool {
        std::mem::take(&mut self.needs_repair)
    }

    /// The follower's applied log position. The routing layer compares this
    /// against a client's read-your-writes bound, after [`catch_up`]
    /// (`Self::catch_up`) has drained the pending tail.
    pub(crate) fn applied(&self) -> u64 {
        self.applied
    }

    /// Drains the pending tail before a read is served from this follower.
    /// A corrupt segment quarantines the copy instead of panicking: the
    /// read is then served from the (consistent) applied prefix, and the
    /// routing layer's read-your-writes bound forwards to the leader when
    /// that prefix is not fresh enough for the caller.
    pub(crate) fn catch_up_for_read(&mut self) {
        let _ = self.catch_up();
    }

    /// Read access to the follower's arbiter (queue-position reads).
    pub(crate) fn arbiter(&self) -> &FloorArbiter {
        &self.arbiter
    }

    /// The follower's copy of a group's session content.
    pub(crate) fn session_view(&self, group: GlobalGroupId) -> crate::session::GroupSession {
        self.session.view(group)
    }

    /// A shard-shaped health view served from this follower. Leader-only
    /// storage fields (log geometry, snapshot presence, dedup occupancy,
    /// recovery count) are reported as zero/absent — the follower holds live
    /// state, not the durable log; `log_retained` carries the follower's
    /// applied position instead.
    pub(crate) fn view(&self, id: ShardId) -> ShardView {
        ShardView {
            id,
            state: ShardState::Active,
            recoveries: 0,
            log_base: 0,
            log_retained: self.applied as usize,
            has_snapshot: false,
            dedup_entries: 0,
            session_dedup_entries: 0,
            session_groups: self.session.group_count(),
            frozen_groups: self.frozen.len(),
            log_bytes: 0,
            session_bytes: self.session.size_bytes(),
            dedup_bytes: 0,
            snapshot_bytes: 0,
            snapshot_deltas: 0,
            stats: self.arbiter.stats(),
        }
    }
}

/// The leader-side handle to one shard's replica fleet: the simulated
/// network, the per-follower send/ack cursors, and the quorum bookkeeping.
/// Owned by the shard's pipeline core; only the `FollowerCore`s inside are
/// shared (with the read path).
#[derive(Debug)]
pub(crate) struct ReplicaSet {
    net: Network<ReplicaMsg>,
    leader: HostId,
    /// Follower `i` lives on `hosts[i]` (= host index `i + 1`).
    hosts: Vec<HostId>,
    followers: Vec<Arc<Mutex<FollowerCore>>>,
    /// Highest durable position follower `i` has acknowledged.
    acked: Vec<u64>,
    /// Position up to which follower `i` has been sent the log.
    sent: Vec<u64>,
    /// Highest position covered by a write quorum (leader + enough acks).
    quorum_committed: u64,
    /// Follower acks needed per position (quorum minus the leader itself).
    quorum_acks: usize,
    /// The previous-checkpoint tip stragglers were last re-seeded against
    /// (see [`ReplicaSet::release_log`]).
    straggler_cutoff: u64,
    /// Follower-ack advances so far: how [`ReplicaSet::force_quorum`] tells
    /// a round that moved something from a stalled one.
    ack_advances: u64,
    /// Set when [`ReplicaSet::force_quorum`] gave up: the log tail past the
    /// fleet never reached quorum and the next promotion discards it.
    stranded: bool,
    /// This leader's epoch, bumped at every promotion and stamped on all
    /// outgoing traffic (and into released decisions).
    epoch: u64,
    /// Set when a follower's higher-epoch ack fenced this leader: another
    /// incarnation has been promoted, so this one must stop releasing and
    /// demote itself.
    fenced: bool,
    metrics: ReplicaMetrics,
}

impl ReplicaSet {
    /// Builds the replica fleet for `shard` with `replicas` followers over
    /// `link`. Zero replicas yields an inert set (every call is a no-op and
    /// `quorum_committed` tracks nothing — the worker skips the pipeline).
    pub(crate) fn new(
        shard: ShardId,
        replicas: usize,
        link: Link,
        metrics: ReplicaMetrics,
    ) -> Self {
        // One deterministic seed per (shard, fleet size): reproducible loss
        // and jitter without any global RNG.
        let seed = 0xD31A_5EED_u64 ^ ((shard.index() as u64) << 32) ^ replicas as u64;
        let mut net = Network::new(seed);
        let leader = net.add_host(format!("shard-{}-leader", shard.index()));
        let mut hosts = Vec::with_capacity(replicas);
        let mut followers = Vec::with_capacity(replicas);
        for i in 0..replicas {
            let host = net.add_host(format!("shard-{}-replica-{i}", shard.index()));
            net.connect(leader, host, link)
                .expect("connect replica link");
            hosts.push(host);
            followers.push(Arc::new(Mutex::new(FollowerCore::new(shard))));
        }
        ReplicaSet {
            net,
            leader,
            hosts,
            followers,
            acked: vec![0; replicas],
            sent: vec![0; replicas],
            quorum_committed: 0,
            // Total quorum is (N+1)/2 + 1 copies counting the leader's own
            // append, so (N+1)/2 follower acks — always ≥ 1 for N ≥ 1, which
            // is what makes promotion lossless.
            quorum_acks: replicas.div_ceil(2),
            straggler_cutoff: 0,
            ack_advances: 0,
            stranded: false,
            epoch: 1,
            fenced: false,
            metrics,
        }
    }

    /// Whether this shard runs unreplicated (the worker skips the pipeline).
    pub(crate) fn is_empty(&self) -> bool {
        self.followers.is_empty()
    }

    /// The shared follower cores, for the routing layer's read path.
    pub(crate) fn followers(&self) -> &[Arc<Mutex<FollowerCore>>] {
        &self.followers
    }

    /// Lets the shard's log go of everything both its newest checkpoint and
    /// every follower still worth shipping to hold; runs inside both entry
    /// points that fold acks in for the worker ([`ReplicaSet::absorb_acks`],
    /// [`ReplicaSet::force_quorum`]). A follower acked behind the *previous*
    /// checkpoint's tip is a straggler: it stops pinning the log and, once
    /// per checkpoint, has its send cursor rewound so the next
    /// [`ReplicaSet::replicate`] re-seeds it by `Resync`.
    fn release_log(&mut self, shard: &mut Shard) {
        let cutoff = shard.prev_checkpoint_tip();
        let checkpointed = cutoff > self.straggler_cutoff;
        self.straggler_cutoff = cutoff;
        let mut fleet_ack = u64::MAX;
        for (&acked, sent) in self.acked.iter().zip(&mut self.sent) {
            if acked >= cutoff {
                fleet_ack = fleet_ack.min(acked);
            } else if checkpointed {
                *sent = (*sent).min(acked);
            }
        }
        shard.retain_for_fleet(fleet_ack);
    }

    /// Highest log position covered by a write quorum. Replies for a batch
    /// release only once this reaches the batch's end position.
    pub(crate) fn quorum_committed(&self) -> u64 {
        self.quorum_committed
    }

    /// The current leader epoch, stamped into released decisions. Zero on an
    /// unreplicated shard (there is no election to number).
    pub(crate) fn epoch(&self) -> u64 {
        if self.followers.is_empty() {
            0
        } else {
            self.epoch
        }
    }

    /// Whether a higher-epoch ack has fenced this leader (see
    /// [`ReplicaSet::force_quorum`]).
    #[cfg(test)]
    pub(crate) fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// Fault injection: partitions the leader away from its entire follower
    /// fleet (both directions — appends and acks all drop) until
    /// [`ReplicaSet::heal_partition`]. Counted under
    /// `cluster.shard.N.fault.partitions`.
    pub(crate) fn partition_leader(&mut self) {
        if self.followers.is_empty() {
            return;
        }
        self.net
            .partition(&[self.leader], &self.hosts, false)
            .expect("replica hosts exist");
        self.metrics.partitions.incr();
    }

    /// Fault injection: partitions the leader away from follower `i` alone
    /// until [`ReplicaSet::heal_partition`]; a no-op for an unknown index.
    pub(crate) fn partition_follower(&mut self, follower: usize) {
        if let Some(&host) = self.hosts.get(follower) {
            self.net
                .partition(&[self.leader], &[host], false)
                .expect("replica hosts exist");
            self.metrics.partitions.incr();
        }
    }

    /// Heals every partition on the replica network.
    pub(crate) fn heal_partition(&mut self) {
        self.net.heal();
    }

    /// Fault injection: flips the stored CRC of follower `i`'s newest
    /// pending segment — one replica copy's bytes rotting on the wire or at
    /// rest. Detection happens at the follower's next catch-up (read or
    /// promotion), which quarantines the copy and asks the leader for
    /// repair. Returns `false` when the follower holds nothing to corrupt.
    pub(crate) fn inject_follower_corruption(&mut self, follower: usize) -> bool {
        let Some(core) = self.followers.get(follower) else {
            return false;
        };
        let mut core = lock_core(core);
        match core.pending.last_mut() {
            Some((_, crc, _)) => {
                *crc ^= 1;
                true
            }
            None => false,
        }
    }

    /// Ships every follower the sealed log segments it has not been sent
    /// yet. Called by the worker right after each group commit (which seals
    /// the batch into a segment first); the acks arrive later (that is the
    /// pipeline). The log, the wire and every follower share the same
    /// reference-counted segment — no event is copied to replicate it.
    ///
    /// A follower that quarantined itself since the last call (checksum
    /// mismatch on a shipped segment) has its cursors rewound to its rolled-
    /// back durable position first, so the suspect suffix is re-shipped from
    /// the leader's healthy copy — the repair path.
    pub(crate) fn replicate(&mut self, shard: &Shard) {
        if self.followers.is_empty() {
            return;
        }
        let log = shard.log();
        for i in 0..self.hosts.len() {
            let (durable, repair) = {
                let mut core = lock_core(&self.followers[i]);
                (core.durable(), core.take_repair())
            };
            if repair {
                // The copy rolled back to `durable`; anything we believed
                // sent or acked past it is untrusted. Re-ship from there.
                self.metrics.checksum_failures.incr();
                self.metrics.repairs.incr();
                self.sent[i] = self.sent[i].min(durable);
                self.acked[i] = self.acked[i].min(durable);
            }
            if self.sent[i] < log.base() {
                // Compaction passed this follower's cursor: the history it
                // needs is gone, so re-seed it from the checkpoint chain —
                // but ship only the suffix past the follower's acked
                // position. Chain contiguity (each delta's window starts at
                // the previous checkpoint's tip) guarantees the first
                // shipped delta's window contains that position.
                let snapshot = shard
                    .latest_snapshot()
                    .expect("log base > 0 implies a snapshot");
                let acked = self.acked[i];
                let (base, deltas) = if acked >= snapshot.applied_seq() {
                    (
                        None,
                        shard
                            .snapshot_deltas()
                            .iter()
                            .filter(|d| d.applied_seq() > acked)
                            .cloned()
                            .collect(),
                    )
                } else {
                    (
                        Some(Box::new(snapshot.clone())),
                        shard.snapshot_deltas().to_vec(),
                    )
                };
                self.metrics.resyncs.incr();
                let epoch = self.epoch;
                self.send_to(
                    i,
                    ReplicaMsg::Resync {
                        epoch,
                        base,
                        deltas,
                    },
                );
                self.sent[i] = log.base();
            }
            let (segments, sealed_end) = log.segments_from(self.sent[i]);
            for (from_seq, events) in segments {
                // A segment may straddle the cursor (retransmit after loss);
                // the follower skips the duplicate prefix by arithmetic. The
                // CRC shipped is the recorded seal-time checksum, so leader-
                // side rot is carried (and caught) rather than papered over;
                // a segment with no recorded CRC (shortened by repair) is
                // re-checksummed fresh.
                let crc = shard
                    .segment_crc_at(from_seq)
                    .unwrap_or_else(|| segment_crc(&events));
                let epoch = self.epoch;
                self.send_to(
                    i,
                    ReplicaMsg::Append {
                        epoch,
                        from_seq,
                        crc,
                        events,
                    },
                );
            }
            self.sent[i] = self.sent[i].max(sealed_end);
        }
    }

    fn send_to(&mut self, follower: usize, msg: ReplicaMsg) {
        let size = msg.size_bytes();
        // A send can fail only if the host is down (crashed in a failover
        // experiment); the retransmission path heals exactly like loss.
        let _ = self.net.send(self.leader, self.hosts[follower], msg, size);
    }

    /// Folds in whatever acks already landed, without waiting for any, and
    /// lets the log go of what the fleet now holds.
    pub(crate) fn absorb_acks(&mut self, shard: &mut Shard) {
        self.pump();
        self.release_log(shard);
    }

    /// Drains the replication network: applies `Append`/`Resync` deliveries
    /// to follower cores (each answers with an `Ack`) and folds `Ack`s into
    /// the quorum bookkeeping. Cheap when nothing is in flight.
    fn pump(&mut self) {
        while let Some(delivery) = self.net.next_delivery() {
            self.handle(delivery);
        }
        self.recompute_quorum();
    }

    fn handle(&mut self, delivery: Delivery<ReplicaMsg>) {
        if delivery.to == self.leader {
            if let ReplicaMsg::Ack { epoch, acked } = delivery.payload {
                if epoch > self.epoch {
                    // A newer leader has been promoted: this incarnation is
                    // fenced. The worker sees `force_quorum` fail and
                    // demotes the shard instead of ever releasing again.
                    self.fenced = true;
                    return;
                }
                let i = delivery.from.index() - 1;
                if acked > self.acked[i] {
                    self.acked[i] = acked;
                    self.ack_advances += 1;
                    self.metrics.acks.incr();
                }
            }
            return;
        }
        let i = delivery.to.index() - 1;
        let (durable, epoch) = {
            let mut core = lock_core(&self.followers[i]);
            match delivery.payload {
                ReplicaMsg::Append {
                    epoch,
                    from_seq,
                    crc,
                    events,
                } => {
                    if !core.receive(epoch, from_seq, crc, events) {
                        self.metrics.fenced_appends.incr();
                    }
                }
                ReplicaMsg::Resync {
                    epoch,
                    base,
                    deltas,
                } => match core.install_resync(epoch, base.as_deref(), &deltas) {
                    Ok(true) => {}
                    Ok(false) => self.metrics.fenced_appends.incr(),
                    // The copy quarantined itself; the repair flag asks the
                    // (current) leader for a full re-seed on its next
                    // replicate pass.
                    Err(_) => {}
                },
                ReplicaMsg::Ack { .. } => {}
            }
            (core.durable(), core.epoch)
        };
        let ack = ReplicaMsg::Ack {
            epoch,
            acked: durable,
        };
        let size = ack.size_bytes();
        let _ = self.net.send(self.hosts[i], self.leader, ack, size);
    }

    fn recompute_quorum(&mut self) {
        // The quorum-committed position is the quorum_acks-th highest
        // follower ack: that many followers (plus the leader) hold the
        // prefix up to it. Counted, not sorted: a fleet is a handful.
        let covered = self
            .acked
            .iter()
            .filter(|&&ack| self.acked.iter().filter(|&&a| a >= ack).count() >= self.quorum_acks)
            .max()
            .copied()
            .unwrap_or(0);
        self.quorum_committed = self.quorum_committed.max(covered);
    }

    /// Drives the quorum to `target`, retransmitting lost suffixes. The
    /// worker calls this when its pipeline window fills, before blocking on
    /// an empty queue, and at every control barrier.
    ///
    /// Returns `false` — without reaching the target — when this leader has
    /// been fenced by a newer epoch, or when [`STALL_BUDGET`] consecutive
    /// retransmission rounds moved nothing (the fleet is partitioned away).
    /// The worker then answers the still-parked batches `ShardDown` and
    /// demotes the shard: the self-demotion half of fencing.
    pub(crate) fn force_quorum(&mut self, shard: &mut Shard, target: u64) -> bool {
        let reached = self.followers.is_empty() || self.drive_quorum(shard, target);
        if reached {
            self.release_log(shard);
        } else {
            self.stranded = true;
        }
        reached
    }

    /// The retransmission loop behind [`ReplicaSet::force_quorum`].
    fn drive_quorum(&mut self, shard: &Shard, target: u64) -> bool {
        let mut stalls: u32 = 0;
        loop {
            self.pump();
            if self.fenced {
                return false;
            }
            if self.quorum_committed >= target {
                return true;
            }
            let progress_mark = self.ack_advances;
            // Anything sent but unacked may have been lost: rewind the
            // laggards' cursors to their acked positions and re-ship.
            self.metrics.retransmits.incr();
            for i in 0..self.sent.len() {
                if self.acked[i] < target {
                    self.sent[i] = self.acked[i];
                }
            }
            self.replicate(shard);
            self.pump();
            if self.fenced {
                return false;
            }
            if self.quorum_committed >= target {
                return true;
            }
            if self.ack_advances == progress_mark && self.net.pending_count() == 0 {
                stalls += 1;
                if stalls >= STALL_BUDGET {
                    return false;
                }
            } else {
                stalls = 0;
            }
        }
    }

    /// Failover: bumps the leader epoch (fencing any stale incarnation the
    /// moment the fleet hears the announcement) and promotes the most
    /// caught-up follower into the crashed shard. Only the log tail past the
    /// follower's applied position is replayed (tail-catch-up) — against
    /// full-log replay from the snapshot, which is what [`Shard::recover`]
    /// does and what this falls back to with no followers (or a follower
    /// stranded behind the log base).
    ///
    /// When the shard's own durable artifacts fail verification (injected
    /// corruption; counted under `cluster.shard.N.fault.repairs`) or it had
    /// demoted itself mid-quorum-write, the quorum state is adopted
    /// wholesale instead ([`Shard::repair_from`]): snapshot chain and log
    /// are discarded and a fresh checksummed base is cut. A follower copy
    /// that fails its own catch-up quarantines itself and the next-best
    /// copy is used — one rotten replica never blocks failover.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ClusterError::Floor`] when a logged event fails to
    /// re-apply, or [`crate::ClusterError::Corrupt`] when the durable
    /// artifacts are corrupt and no follower holds state to repair from
    /// (the shard stays quarantined).
    pub(crate) fn promote(&mut self, shard: &mut Shard) -> Result<()> {
        if self.followers.is_empty() {
            return shard.recover();
        }
        self.epoch += 1;
        self.fenced = false;
        // Let in-flight appends land first: promotion should start from the
        // best state the fleet actually holds.
        self.pump();
        let durable_ok = shard.verify_durable().is_ok();
        // Catch every follower up to its durable tail. A corrupt copy
        // quarantines itself (rolling back to its applied prefix) and is
        // simply less caught-up; it stays usable and gets repaired later.
        let best = (0..self.followers.len())
            .max_by_key(|&i| {
                let mut core = lock_core(&self.followers[i]);
                let _ = core.catch_up();
                core.applied()
            })
            .expect("non-empty fleet");
        let (arbiter, session, frozen, from_seq) = {
            let core = lock_core(&self.followers[best]);
            (
                core.arbiter.clone(),
                core.session.clone(),
                core.frozen.clone(),
                core.applied(),
            )
        };
        // A self-demoted leader's tail past the fleet was never released:
        // the promoted follower owns exactly what the fleet holds.
        let discard_tail = std::mem::take(&mut self.stranded) && from_seq >= self.quorum_committed;
        let result = if from_seq < shard.log().base() {
            // The whole fleet is stranded behind compaction (quorum was
            // never forced, e.g. an idle shard): full local replay — which
            // quarantines when the local artifacts are corrupt.
            shard.recover()
        } else if !durable_ok || discard_tail {
            // Adopt the fleet's state wholesale; the leader tail past it
            // never quorum-committed, so no released decision loses events.
            shard.repair_from(arbiter, session, frozen, from_seq);
            if durable_ok {
                self.metrics.catch_up_lag.record(0);
            } else {
                self.metrics.repairs.incr();
            }
            // The log was truncated to the adopted position: anything
            // believed sent or acked past it no longer exists.
            for i in 0..self.hosts.len() {
                self.sent[i] = self.sent[i].min(from_seq);
                self.acked[i] = self.acked[i].min(from_seq);
            }
            Ok(())
        } else {
            let mut arbiter = arbiter;
            let mut session = session;
            let mut frozen = frozen;
            let lag = shard.log().next_seq().saturating_sub(from_seq);
            for event in shard.log().events_from(from_seq) {
                replay_event(&mut arbiter, &mut session, &mut frozen, event)?;
            }
            shard.adopt(arbiter, session, frozen);
            shard.reconcile_orphans(shard.log().next_seq());
            self.metrics.catch_up_lag.record(lag);
            Ok(())
        };
        // Announce the new epoch to the whole fleet — an empty append per
        // follower. From this instant any stale leader's traffic is fenced.
        for i in 0..self.hosts.len() {
            let msg = ReplicaMsg::Append {
                epoch: self.epoch,
                from_seq: self.sent[i],
                crc: 0,
                events: Vec::new().into(),
            };
            self.send_to(i, msg);
        }
        result
    }

    /// Test hook: pretends this leader handle belongs to epoch `epoch`, so
    /// fencing can be exercised without a second `ReplicaSet` object.
    #[cfg(test)]
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::ClusterTelemetry;
    use crate::shard::CorruptionTarget;
    use dmps_floor::{ArbiterEvent, FcmMode, FloorRequest, GroupId, Member, MemberId, Role};

    fn arbitrated(shard: &Shard) -> u64 {
        let s = shard.arbiter().stats();
        s.granted + s.queued + s.denied + s.aborted
    }

    fn fixture(replicas: usize) -> (Shard, ReplicaSet, ClusterTelemetry) {
        let telemetry = ClusterTelemetry::new(0);
        let shard = Shard::new(ShardId(0), 0, 64);
        let set = ReplicaSet::new(ShardId(0), replicas, Link::lan(), telemetry.replica(0));
        (shard, set, telemetry)
    }

    fn commit_some(shard: &mut Shard, requests: usize) {
        shard
            .apply(ArbiterEvent::CreateGroup {
                name: "g".into(),
                mode: FcmMode::EqualControl,
            })
            .unwrap();
        for i in 0..4 {
            shard
                .apply(ArbiterEvent::AddMember {
                    group: GroupId(0),
                    member: Member::new(format!("m{i}"), Role::Participant),
                })
                .unwrap();
        }
        for i in 0..requests {
            shard
                .apply(ArbiterEvent::Arbitrate {
                    request: FloorRequest::speak(GroupId(0), MemberId(i % 4)),
                })
                .unwrap();
        }
        shard.seal_log();
    }

    #[test]
    fn stale_epoch_appends_are_fenced_and_leader_demotes() {
        let (mut shard, mut set, telemetry) = fixture(2);
        commit_some(&mut shard, 8);
        set.replicate(&shard);
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));

        // A failover elsewhere bumps the fleet to a new epoch...
        shard.crash();
        set.promote(&mut shard).unwrap();
        let new_epoch = set.epoch();
        set.pump();

        // ...and this handle turns back into the stale pre-failover leader.
        set.set_epoch(new_epoch - 1);
        set.fenced = false;
        commit_some(&mut shard, 4);
        let before: Vec<u64> = set
            .followers()
            .iter()
            .map(|f| f.lock().unwrap().durable())
            .collect();
        set.replicate(&shard);
        assert!(
            !set.drive_quorum(&shard, shard.log().next_seq()),
            "a fenced leader must fail to force quorum"
        );
        assert!(set.is_fenced());
        // The stale appends changed no follower's durable position: no fork.
        let after: Vec<u64> = set
            .followers()
            .iter()
            .map(|f| f.lock().unwrap().durable())
            .collect();
        assert_eq!(before, after);
        assert!(telemetry
            .registry
            .names()
            .iter()
            .any(|n| n == "cluster.shard.0.fault.fenced_appends"));
    }

    #[test]
    fn partition_bounds_force_quorum_and_heals() {
        let (mut shard, mut set, _telemetry) = fixture(2);
        commit_some(&mut shard, 8);
        set.partition_leader();
        set.replicate(&shard);
        assert!(
            !set.drive_quorum(&shard, shard.log().next_seq()),
            "a fully partitioned leader must give up, not spin"
        );
        assert!(!set.is_fenced(), "partition is not fencing");
        set.heal_partition();
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));
    }

    #[test]
    fn corrupt_follower_copy_quarantines_and_is_repaired() {
        let (mut shard, mut set, _telemetry) = fixture(2);
        commit_some(&mut shard, 8);
        set.replicate(&shard);
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));
        assert!(set.inject_follower_corruption(0));

        // The rotten copy quarantines at its next catch-up...
        {
            let mut core = set.followers()[0].lock().unwrap();
            core.catch_up_for_read();
            assert_eq!(core.applied(), 0, "suspect tail must not be applied");
            assert_eq!(core.durable(), 0, "durable rolls back to applied");
        }
        // ...and the next replicate pass re-ships the healthy suffix.
        set.replicate(&shard);
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));
        {
            let mut core = set.followers()[0].lock().unwrap();
            core.catch_up_for_read();
            assert_eq!(core.applied(), shard.log().next_seq());
        }
    }

    #[test]
    fn resync_suffix_past_the_follower_resets_and_quarantines_it() {
        let (mut shard, mut set, _telemetry) = fixture(1);
        commit_some(&mut shard, 8);
        set.replicate(&shard);
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));
        // The follower holds the roster and no content. The leader delivers
        // a line, cuts a base, delivers another and cuts a delta — whose
        // window the follower is wholly behind.
        let chat = |shard: &mut Shard| {
            let event = crate::session::SessionEvent {
                group: GlobalGroupId(0),
                local_group: GroupId(0),
                from: crate::GlobalMemberId(0),
                local_from: MemberId(0),
                kind: crate::SessionOpKind::Chat {
                    text: "line".into(),
                },
            };
            assert!(shard.apply_session(event).unwrap().is_delivered());
        };
        chat(&mut shard);
        shard.take_snapshot();
        chat(&mut shard);
        let delta = shard.take_delta().clone();
        let mut core = lock_core(&set.followers()[0]);
        let err = core
            .install_resync(set.epoch(), None, &[delta])
            .unwrap_err();
        assert!(matches!(err, ClusterError::Corrupt { .. }), "got {err:?}");
        assert_eq!((core.applied(), core.durable()), (0, 0), "full re-seed");
        assert!(core.take_repair());
    }

    #[test]
    fn promote_repairs_corrupt_leader_from_quorum() {
        let (mut shard, mut set, telemetry) = fixture(2);
        commit_some(&mut shard, 8);
        set.replicate(&shard);
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));
        let tip = shard.log().next_seq();

        shard.take_snapshot();
        assert!(shard.inject_corruption(CorruptionTarget::SnapshotBase));
        shard.crash();
        assert!(shard.recover().is_err(), "local recovery must detect rot");

        set.promote(&mut shard).expect("repair from quorum");
        assert!(shard.is_active());
        assert_eq!(shard.log().next_seq(), tip);
        shard.verify_durable().expect("repair cut a clean base");
        assert_eq!(arbitrated(&shard), 8);
        assert!(telemetry
            .registry
            .names()
            .iter()
            .any(|n| n == "cluster.shard.0.fault.repairs"));
    }

    #[test]
    fn promotion_still_tail_catches_up_with_clean_artifacts() {
        let (mut shard, mut set, _telemetry) = fixture(2);
        commit_some(&mut shard, 8);
        set.replicate(&shard);
        assert!(set.drive_quorum(&shard, shard.log().next_seq()));
        // More work the fleet never hears about (leader-only tail).
        commit_some(&mut shard, 4);
        let tip = shard.log().next_seq();
        let epoch_before = set.epoch();
        shard.crash();
        set.promote(&mut shard).unwrap();
        assert!(shard.is_active());
        assert_eq!(set.epoch(), epoch_before + 1);
        // The committed tail survived: all 12 arbitrations are in the state.
        assert_eq!(arbitrated(&shard), 12);
        assert_eq!(shard.log().next_seq(), tip);
    }
}
