//! The replayer: drives a [`Trace`] through the cluster's batched gateway
//! pipelines and verifies every decision plus the final session state.
//!
//! Replay preserves per-group operation order — the property that makes
//! every streamed decision individually checkable against the trace's
//! stamped expectation. The shard ingest queue is one FIFO shared by floor
//! and session commands, and a gateway takes mixed-kind batches
//! ([`Gateway::submit_ops`]) that keep submission order across kinds, so
//! per-group order holds as long as a group's ops are submitted by one
//! gateway in trace order. The driver therefore partitions groups over
//! gateways by top-level ancestor (a breakout sub-session always rides its
//! parent's gateway) and keeps **one batch buffer** of floor and session
//! ops together, in trace order.
//!
//! Latency is sampled one-in-K ops from batch submit to decision receipt and
//! recorded into lock-free [`Histogram`]s (overall and per archetype).
//!
//! With a [`CrashPlan`] the driver kills and recovers a shard mid-storm,
//! then leans on the cluster's exactly-one-decision contract: every
//! in-flight op resolves to either its real decision or a `ShardDown`
//! error, and errored ops are resubmitted *in ascending request-id order*
//! (= original per-group order) under their original ids, so the dedup
//! window replays anything that already committed instead of
//! double-applying.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dmps_cluster::{
    Cluster, ClusterConfig, ClusterError, CorruptionTarget, Decision, Gateway, GlobalGroupId,
    GlobalMemberId, GlobalRequest, Op, SessionOp, SessionOutcome, SessionRejection, ShardId,
};
use dmps_floor::{ArbitrationOutcome, FcmMode, Member, Role};
use dmps_simnet::SimTime;
use dmps_telemetry::Histogram;

use crate::rss;
use crate::trace::{payload_text, Expect, OpKind, Trace};

/// Kill one shard mid-replay (single-gateway mode only) and recover it
/// immediately, forcing the exactly-once retry path for every in-flight op.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Index into `trace.ops` at which to crash.
    pub at_op: usize,
    /// The shard to kill.
    pub shard: usize,
}

impl CrashPlan {
    /// A rolling crash schedule: `count` crashes evenly spaced over
    /// `total_ops`, rotating round-robin across `shards` shards — the soak
    /// shape where every shard dies and recovers repeatedly while the trace
    /// is in flight.
    pub fn rolling(count: usize, total_ops: usize, shards: usize) -> Vec<CrashPlan> {
        assert!(shards > 0);
        let stride = total_ops / (count + 1).max(1);
        (0..count)
            .map(|i| CrashPlan {
                at_op: stride * (i + 1),
                shard: i % shards,
            })
            .collect()
    }
}

/// What a scheduled fault-plane event does to its shard (see [`FaultPlan`]).
#[derive(Debug, Clone, Copy)]
pub enum FaultAction {
    /// Partition the shard's leader away from its whole follower fleet
    /// through the worker's non-barrier fault path — writes already shipped
    /// stay parked mid-quorum-write under the partition. The choreography
    /// then forces the leader to settle (it burns its stall budget, answers
    /// every parked decision `ShardDown` and demotes itself), heals the
    /// partition, and promotes a follower under a bumped epoch; the errored
    /// ops resubmit exactly-once through the reconciled dedup journals.
    IsolateLeader,
    /// Silently corrupt one durable artifact of the shard, then crash and
    /// recover it so the damage is actually read: promotion's checksum
    /// verification detects the rot and repairs the new leader from the
    /// replica quorum.
    Corrupt(CorruptionTarget),
}

/// One scheduled fault-plane event in a replay (single-gateway mode, like
/// [`CrashPlan`]). Requires a replicated cluster (`replicas` ≥ 2): both
/// actions lean on the follower quorum to fail over or repair.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Index into `trace.ops` at which to inject.
    pub at_op: usize,
    /// The shard to target.
    pub shard: usize,
    /// What to do to it.
    pub action: FaultAction,
}

impl FaultPlan {
    /// A rolling chaos schedule: `count` faults evenly spaced over
    /// `total_ops`, rotating round-robin across `shards` shards and cycling
    /// through leader partitions and corruption of every checksummed
    /// artifact class — the chaos-soak shape, designed to ride alongside
    /// [`CrashPlan::rolling`] on the same replay.
    pub fn rolling(count: usize, total_ops: usize, shards: usize) -> Vec<FaultPlan> {
        assert!(shards > 0);
        let stride = total_ops / (count + 1).max(1);
        (0..count)
            .map(|i| FaultPlan {
                at_op: stride * (i + 1),
                shard: i % shards,
                action: match i % 4 {
                    0 => FaultAction::IsolateLeader,
                    1 => FaultAction::Corrupt(CorruptionTarget::SealedSegment),
                    2 => FaultAction::Corrupt(CorruptionTarget::SnapshotBase),
                    _ => FaultAction::Corrupt(CorruptionTarget::SnapshotDelta),
                },
            })
            .collect()
    }
}

/// How to replay a trace.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Shard count for the cluster.
    pub shards: usize,
    /// Followers per shard (0 = unreplicated). With replicas, crash
    /// recovery goes through follower promotion instead of snapshot+log
    /// replay.
    pub replicas: usize,
    /// Concurrent driver threads, each with its own gateway (groups are
    /// partitioned by top-level ancestor). Must be 1 when `crashes` is
    /// non-empty.
    pub gateways: usize,
    /// Ops buffered (floor and session together) before a vectored submit.
    pub flush_batch: usize,
    /// Sample one in this many ops for end-to-end latency (0 = never).
    pub latency_sample_every: usize,
    /// Mid-replay crash/recovery schedule ([`CrashPlan::rolling`] builds the
    /// soak shape; one entry is the single-crash drill).
    pub crashes: Vec<CrashPlan>,
    /// Mid-replay fault-plane schedule: leader partitions and silent
    /// corruption ([`FaultPlan::rolling`] builds the chaos-soak shape).
    /// Single-gateway mode only, and needs `replicas` ≥ 2.
    pub faults: Vec<FaultPlan>,
    /// How many groups to verify end-state content counts for (0 = all),
    /// stride-sampled across the group list.
    pub verify_groups: usize,
}

impl ReplayOptions {
    /// Sensible defaults over `shards` shards: one driver, 512-op batches,
    /// 1-in-64 latency sampling, no crashes, full end-state verification.
    pub fn new(shards: usize) -> Self {
        ReplayOptions {
            shards,
            replicas: 0,
            gateways: 1,
            flush_batch: 512,
            latency_sample_every: 64,
            crashes: Vec::new(),
            faults: Vec::new(),
            verify_groups: 0,
        }
    }
}

/// Outcome counters and sampled latency for one archetype.
#[derive(Default)]
pub struct ArchetypeReport {
    /// Streamed ops replayed for this archetype.
    pub ops: u64,
    /// Floor grants observed.
    pub granted: u64,
    /// Floor queueings observed.
    pub queued: u64,
    /// Floor denials observed.
    pub denied: u64,
    /// Session deliveries observed.
    pub delivered: u64,
    /// Floor-rejected session content observed.
    pub rejected: u64,
    /// Sampled end-to-end latency (ns).
    pub latency: Histogram,
}

/// Per-shard durable-state byte totals, summed across shards.
#[derive(Debug, Default, Clone, Copy)]
pub struct StateBytes {
    /// Retained event-log bytes.
    pub log: u64,
    /// Session-store bytes.
    pub session: u64,
    /// Dedup-window bytes.
    pub dedup: u64,
    /// Snapshot bytes.
    pub snapshot: u64,
}

impl StateBytes {
    /// All components summed.
    pub fn total(&self) -> u64 {
        self.log + self.session + self.dedup + self.snapshot
    }
}

/// Everything a replay measured and verified.
pub struct ReplayReport {
    /// Groups driven (top-level + spawned sub-sessions).
    pub groups: usize,
    /// Roster seats created during setup (memberships, not people).
    pub memberships: u64,
    /// Ops that streamed a decision.
    pub streamed_ops: u64,
    /// Control-plane ops (spawn invites + acceptances count as one each).
    pub control_ops: u64,
    /// Wall-clock spent standing up groups and rosters.
    pub setup: Duration,
    /// Wall-clock spent replaying the op stream (including final drain).
    pub replay: Duration,
    /// Sampled floor submit→decision latency (ns).
    pub submit_latency: Histogram,
    /// Sampled latency of `Speak` ops that were expected to grant (ns).
    pub grant_latency: Histogram,
    /// Sampled session submit→decision latency (ns).
    pub session_latency: Histogram,
    /// Per-archetype breakdown, indexed by [`Archetype::index`](crate::Archetype::index).
    pub per_archetype: [ArchetypeReport; 4],
    /// Total expectation mismatches (0 on a faithful replay).
    pub mismatch_count: u64,
    /// The first few mismatch descriptions.
    pub mismatches: Vec<String>,
    /// Exactly-once retries issued (crash mode).
    pub resubmits: u64,
    /// Highest ingest-queue occupancy across shards.
    pub queue_peak: u64,
    /// Retained queue-depth time-series samples across shards.
    pub queue_depth_samples: u64,
    /// Resident set before setup, if the platform exposes it.
    pub rss_before: Option<u64>,
    /// Resident set after replay.
    pub rss_after: Option<u64>,
    /// Peak resident set (VmHWM).
    pub rss_peak: Option<u64>,
    /// Durable per-shard state bytes after replay.
    pub state_bytes: StateBytes,
    /// Checkpoint ingest-stall pauses across all shards, in microseconds
    /// (full snapshots and differential checkpoints together).
    pub snapshot_pause_us: Histogram,
    /// Total bytes shipped by differential checkpoints across all shards.
    pub snapshot_delta_bytes: u64,
    /// Differential checkpoints chained across shards at end of replay.
    pub snapshot_deltas: u64,
    /// Largest promotion tail-catch-up observed (events), across shards —
    /// the soak's boundedness axis. 0 when unreplicated or never promoted.
    pub catch_up_lag_max: u64,
    /// Leader partitions injected across shards
    /// (`cluster.shard.*.fault.partitions`).
    pub fault_partitions: u64,
    /// Stale-epoch appends/resyncs rejected by fencing across shards
    /// (`cluster.shard.*.fault.fenced_appends`).
    pub fault_fenced_appends: u64,
    /// Checksum verifications that failed across shards — every injected
    /// corruption that was actually read must show up here
    /// (`cluster.shard.*.fault.checksum_failures`).
    pub fault_checksum_failures: u64,
    /// Quorum repairs of corrupt copies across shards
    /// (`cluster.shard.*.fault.repairs`).
    pub fault_repairs: u64,
    /// Cluster invariant check result.
    pub invariants: Result<(), String>,
    /// Groups whose end-state content counts were verified exactly.
    pub verified_groups: usize,
}

impl ReplayReport {
    /// Streamed-op throughput over the replay phase.
    pub fn ops_per_sec(&self) -> f64 {
        self.streamed_ops as f64 / self.replay.as_secs_f64().max(1e-9)
    }

    /// Durable state bytes per group — the deterministic memory axis.
    pub fn state_bytes_per_group(&self) -> f64 {
        self.state_bytes.total() as f64 / self.groups.max(1) as f64
    }

    /// RSS growth across the whole run per group, when RSS is available.
    pub fn rss_delta_per_group(&self) -> Option<f64> {
        let (before, after) = (self.rss_before?, self.rss_after?);
        Some(after.saturating_sub(before) as f64 / self.groups.max(1) as f64)
    }

    /// Whether the replay was fully faithful: zero mismatches, invariants
    /// hold, and every selected group's content counts matched exactly.
    pub fn is_clean(&self) -> bool {
        self.mismatch_count == 0 && self.invariants.is_ok()
    }
}

const MISMATCH_CAP: usize = 32;
const MAX_RETRY_ROUNDS: usize = 16;

#[derive(Default)]
struct DriveStats {
    streamed: u64,
    control: u64,
    resubmits: u64,
    mismatch_count: u64,
    mismatches: Vec<String>,
    submit_latency: Histogram,
    grant_latency: Histogram,
    session_latency: Histogram,
    per_archetype: [ArchetypeReport; 4],
}

impl DriveStats {
    fn mismatch(&mut self, msg: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < MISMATCH_CAP {
            self.mismatches.push(msg);
        }
    }

    fn absorb(&mut self, other: DriveStats) {
        self.streamed += other.streamed;
        self.control += other.control;
        self.resubmits += other.resubmits;
        self.mismatch_count += other.mismatch_count;
        for m in other.mismatches {
            if self.mismatches.len() < MISMATCH_CAP {
                self.mismatches.push(m);
            }
        }
        self.submit_latency.merge(&other.submit_latency);
        self.grant_latency.merge(&other.grant_latency);
        self.session_latency.merge(&other.session_latency);
        for (mine, theirs) in self.per_archetype.iter_mut().zip(other.per_archetype) {
            mine.ops += theirs.ops;
            mine.granted += theirs.granted;
            mine.queued += theirs.queued;
            mine.denied += theirs.denied;
            mine.delivered += theirs.delivered;
            mine.rejected += theirs.rejected;
            mine.latency.merge(&theirs.latency);
        }
    }
}

/// One gateway's driving state: the batch buffer, outstanding-decision maps
/// and accumulated stats.
struct Driver<'a> {
    trace: &'a Trace,
    gw: &'a Gateway,
    top_ids: &'a [GlobalGroupId],
    members: &'a [Vec<GlobalMemberId>],
    sub_ids: HashMap<u32, GlobalGroupId>,
    /// Streamed ops of both kinds awaiting the next vectored submit, in
    /// trace order.
    buf: Vec<usize>,
    outstanding_floor: HashMap<u64, usize>,
    outstanding_session: HashMap<u64, usize>,
    sampled: HashMap<u64, Instant>,
    /// Errored (shard-down / shed) ops awaiting resubmission under their
    /// original ids, floor and session together: one gateway's ids are
    /// monotone across both pipelines, so resubmitting in ascending id
    /// order replays the original per-group mixed-kind order.
    retries: Vec<(u64, usize)>,
    flush_batch: usize,
    sample_every: usize,
    tick: usize,
    stats: DriveStats,
}

impl<'a> Driver<'a> {
    fn new(
        trace: &'a Trace,
        gw: &'a Gateway,
        top_ids: &'a [GlobalGroupId],
        members: &'a [Vec<GlobalMemberId>],
        opts: &ReplayOptions,
    ) -> Self {
        Driver {
            trace,
            gw,
            top_ids,
            members,
            sub_ids: HashMap::new(),
            buf: Vec::with_capacity(opts.flush_batch),
            outstanding_floor: HashMap::new(),
            outstanding_session: HashMap::new(),
            sampled: HashMap::new(),
            retries: Vec::new(),
            flush_batch: opts.flush_batch.max(1),
            sample_every: opts.latency_sample_every,
            tick: 0,
            stats: DriveStats::default(),
        }
    }

    fn group_id(&self, group: u32) -> Option<GlobalGroupId> {
        if self.trace.groups[group as usize].parent.is_some() {
            self.sub_ids.get(&group).copied()
        } else {
            Some(self.top_ids[group as usize])
        }
    }

    /// The global id of a group-local member; sub-session members resolve
    /// through the parent roster (local 0 = inviter, 1 = invitee).
    fn member_id(&self, group: u32, local: u32) -> GlobalMemberId {
        match self.trace.groups[group as usize].parent {
            Some((p, from, to)) => {
                let parent_local = if local == 0 { from } else { to };
                self.members[p as usize][parent_local as usize]
            }
            None => self.members[group as usize][local as usize],
        }
    }

    fn archetype_of(&self, op_idx: usize) -> usize {
        let op = &self.trace.ops[op_idx];
        self.trace.groups[op.group as usize].archetype.index()
    }

    fn build_op(&self, op_idx: usize) -> Op {
        let op = &self.trace.ops[op_idx];
        let gid = self.group_id(op.group).expect("group spawned before use");
        let mid = self.member_id(op.group, op.member);
        match op.kind {
            OpKind::Speak => Op::Floor(GlobalRequest::speak(gid, mid)),
            OpKind::Release => Op::Floor(GlobalRequest::release_floor(gid, mid)),
            OpKind::Pass { to } => {
                let to = self.member_id(op.group, to);
                Op::Floor(GlobalRequest::pass_floor(gid, mid, to))
            }
            OpKind::Chat { len } => Op::Session(SessionOp::chat(gid, mid, payload_text(len))),
            OpKind::Whiteboard { len } => {
                Op::Session(SessionOp::whiteboard(gid, mid, payload_text(len)))
            }
            OpKind::Annotation { len } => {
                Op::Session(SessionOp::annotation(gid, mid, payload_text(len)))
            }
            OpKind::ScheduleMedia { len } => Op::Session(SessionOp::schedule_media(
                gid,
                mid,
                payload_text(len),
                SimTime::from_nanos(op.at),
            )),
            OpKind::Spawn { .. } => unreachable!("control ops are never buffered"),
        }
    }

    fn step(&mut self, op_idx: usize) {
        let op = self.trace.ops[op_idx];
        match op.kind {
            OpKind::Spawn { sub } => {
                let (_, inviter, invitee) = self.trace.groups[sub as usize]
                    .parent
                    .expect("spawn targets a sub-group");
                let parent_gid = self.group_id(op.group).expect("parent exists");
                let from = self.member_id(op.group, inviter);
                let to = self.member_id(op.group, invitee);
                match self
                    .gw
                    .invite(parent_gid, from, to, FcmMode::GroupDiscussion, None)
                {
                    Ok((gid, invitation)) => {
                        self.sub_ids.insert(sub, gid);
                        if let Err(e) = self.gw.respond_invitation(invitation, to, true) {
                            self.stats
                                .mismatch(format!("op {op_idx}: acceptance failed: {e:?}"));
                        }
                    }
                    Err(e) => {
                        self.stats
                            .mismatch(format!("op {op_idx}: invite failed: {e:?}"));
                    }
                }
                self.stats.control += 1;
            }
            _ => {
                self.buf.push(op_idx);
                if self.buf.len() >= self.flush_batch {
                    self.flush();
                }
            }
        }
        self.drain_ready();
    }

    fn note_sample(&mut self, seq: u64, when: Instant) {
        if self.sample_every > 0 {
            self.tick += 1;
            if self.tick.is_multiple_of(self.sample_every) {
                self.sampled.insert(seq, when);
            }
        }
    }

    /// Submits everything buffered as one mixed-kind batch.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        let ops: Vec<Op> = buf.iter().map(|&i| self.build_op(i)).collect();
        let seqs = self.gw.submit_ops(ops);
        let now = Instant::now();
        self.stats.streamed += buf.len() as u64;
        for (seq, idx) in seqs.into_iter().zip(buf) {
            self.outstanding(idx).insert(seq, idx);
            self.note_sample(seq, now);
        }
    }

    /// The outstanding-decision map of the stream op `idx` is answered on.
    fn outstanding(&mut self, idx: usize) -> &mut HashMap<u64, usize> {
        if self.trace.ops[idx].kind.is_floor() {
            &mut self.outstanding_floor
        } else {
            &mut self.outstanding_session
        }
    }

    fn record_latency(&mut self, seq: u64, op_idx: usize, floor: bool) {
        if let Some(t0) = self.sampled.remove(&seq) {
            let ns = t0.elapsed().as_nanos() as u64;
            let op = &self.trace.ops[op_idx];
            let arch = self.archetype_of(op_idx);
            self.stats.per_archetype[arch].latency.record(ns);
            if floor {
                self.stats.submit_latency.record(ns);
                if op.kind == OpKind::Speak && op.expect == Expect::Granted {
                    self.stats.grant_latency.record(ns);
                }
            } else {
                self.stats.session_latency.record(ns);
            }
        }
    }

    /// Checks one streamed decision of either kind against the trace.
    /// `judge` says whether the outcome is the one the op's `Expect` stamps,
    /// counting it into the archetype's report if so.
    fn process<O: std::fmt::Debug>(
        &mut self,
        d: Decision<O>,
        floor: bool,
        judge: impl Fn(Expect, &O, &mut ArchetypeReport) -> bool,
    ) {
        let outstanding = if floor {
            &mut self.outstanding_floor
        } else {
            &mut self.outstanding_session
        };
        let Some(op_idx) = outstanding.remove(&d.seq) else {
            let stream = if floor { "floor" } else { "session" };
            self.stats
                .mismatch(format!("unexpected {stream} decision for seq {}", d.seq));
            return;
        };
        let op = self.trace.ops[op_idx];
        match d.outcome {
            Ok(outcome) => {
                let arch = self.archetype_of(op_idx);
                let stats = &mut self.stats.per_archetype[arch];
                stats.ops += 1;
                if !judge(op.expect, &outcome, stats) {
                    self.stats.mismatch(format!(
                        "op {op_idx} ({:?} by {} in group {}): expected {:?}, got {:?}",
                        op.kind, op.member, op.group, op.expect, outcome
                    ));
                }
                self.record_latency(d.seq, op_idx, floor);
            }
            Err(ClusterError::ShardDown(_)) | Err(ClusterError::Overloaded(_)) => {
                // Exactly-once retry path: resubmitted under the original id
                // after the shard heals; latency samples for retried ops are
                // dropped (they would measure the outage, not the pipeline).
                self.sampled.remove(&d.seq);
                self.retries.push((d.seq, op_idx));
            }
            Err(e) => {
                self.stats
                    .mismatch(format!("op {op_idx}: unexpected error {e:?}"));
            }
        }
    }

    fn process_floor(&mut self, d: Decision) {
        self.process(d, true, |expect, outcome, stats| {
            let counter = match (expect, outcome) {
                (Expect::Granted, ArbitrationOutcome::Granted { .. }) => &mut stats.granted,
                (Expect::Queued, ArbitrationOutcome::Queued { .. }) => &mut stats.queued,
                (Expect::Denied, ArbitrationOutcome::Denied { .. }) => &mut stats.denied,
                _ => return false,
            };
            *counter += 1;
            true
        });
    }

    fn process_session(&mut self, d: Decision<SessionOutcome>) {
        self.process(d, false, |expect, outcome, stats| {
            let floor_denied = SessionOutcome::Rejected {
                reason: SessionRejection::FloorDenied,
            };
            let counter = match expect {
                Expect::Delivered if outcome.is_delivered() => &mut stats.delivered,
                Expect::RejectedFloor if *outcome == floor_denied => &mut stats.rejected,
                _ => return false,
            };
            *counter += 1;
            true
        });
    }

    fn drain_ready(&mut self) {
        while let Some(d) = self.gw.try_recv_decision() {
            self.process_floor(d);
        }
        while let Some(d) = self.gw.try_recv_session_decision() {
            self.process_session(d);
        }
    }

    /// Resubmits every errored op under its original id in ascending id
    /// order. One gateway's ids are monotone across the floor and session
    /// pipelines, so ascending id order replays the original per-group
    /// mixed-kind submission order.
    fn resubmit_errored(&mut self) {
        self.retries.sort_unstable_by_key(|&(seq, _)| seq);
        for (seq, op_idx) in std::mem::take(&mut self.retries) {
            self.outstanding(op_idx).insert(seq, op_idx);
            let result = match self.build_op(op_idx) {
                Op::Floor(request) => self.gw.resubmit(seq, request),
                Op::Session(op) => self.gw.resubmit_session(seq, op),
            };
            match result {
                Ok(()) => self.stats.resubmits += 1,
                Err(e) => {
                    self.outstanding(op_idx).remove(&seq);
                    self.stats
                        .mismatch(format!("op {op_idx}: resubmit failed: {e:?}"));
                }
            }
        }
    }

    /// Flushes the buffer and blocks until every outstanding op has its
    /// final (non-transient) decision, retrying errored ops up to a bounded
    /// number of rounds.
    fn drain_all(&mut self) {
        self.flush();
        for _ in 0..MAX_RETRY_ROUNDS {
            while !self.outstanding_floor.is_empty() {
                match self.gw.recv_decision() {
                    Ok(d) => self.process_floor(d),
                    Err(e) => {
                        self.stats.mismatch(format!("decision stream died: {e:?}"));
                        return;
                    }
                }
            }
            while !self.outstanding_session.is_empty() {
                match self.gw.recv_session_decision() {
                    Ok(d) => self.process_session(d),
                    Err(e) => {
                        self.stats.mismatch(format!("session stream died: {e:?}"));
                        return;
                    }
                }
            }
            if self.retries.is_empty() {
                return;
            }
            self.resubmit_errored();
        }
        self.stats
            .mismatch("retry rounds exhausted with ops still erroring".to_string());
    }
}

/// The top-level ancestor of a group (itself when top-level): the partition
/// key that keeps a sub-session on its parent's gateway.
fn ancestor(trace: &Trace, group: u32) -> u32 {
    match trace.groups[group as usize].parent {
        Some((p, _, _)) => p,
        None => group,
    }
}

/// Replays a trace and returns the measured, verified report.
///
/// # Panics
///
/// Panics when `opts.crashes` is non-empty with more than one gateway (the
/// crash choreography needs the single-threaded driver), and on
/// control-plane setup failures (they indicate a broken environment, not a
/// workload outcome).
pub fn replay(trace: &Trace, opts: &ReplayOptions) -> ReplayReport {
    assert!(
        (opts.crashes.is_empty() && opts.faults.is_empty()) || opts.gateways == 1,
        "crash/fault replay requires a single gateway"
    );
    assert!(
        opts.faults.is_empty() || opts.replicas >= 2,
        "fault-plane replay needs a follower quorum to fail over / repair from"
    );
    assert!(opts.shards > 0 && opts.gateways > 0);

    let rss_before = rss::current_rss_bytes();
    let mut cluster =
        Cluster::new(ClusterConfig::with_shards(opts.shards).with_replicas(opts.replicas));

    // ----- setup: groups and rosters (control plane, measured separately) --
    let setup_start = Instant::now();
    let setup_gw = cluster.gateway();
    let mut top_ids: Vec<GlobalGroupId> = Vec::with_capacity(trace.groups.len());
    let mut members: Vec<Vec<GlobalMemberId>> = Vec::with_capacity(trace.groups.len());
    let mut memberships = 0u64;
    for (i, g) in trace.groups.iter().enumerate() {
        if g.parent.is_some() {
            // Spawned at replay time through the invitation flow.
            top_ids.push(GlobalGroupId(u64::MAX));
            members.push(Vec::new());
            continue;
        }
        let gid = setup_gw
            .create_group(format!("g{i}"), g.mode)
            .expect("create group");
        let mut roster = Vec::with_capacity(g.members as usize);
        for j in 0..g.members {
            let role = if j == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            let mid = setup_gw.register_member(Member::new(format!("g{i}.m{j}"), role));
            setup_gw.join_group(gid, mid).expect("join group");
            roster.push(mid);
            memberships += 1;
        }
        top_ids.push(gid);
        members.push(roster);
    }
    // Sub-session seats (the invited pairs) count as memberships too.
    memberships += trace
        .groups
        .iter()
        .filter(|g| g.parent.is_some())
        .map(|g| g.members as u64)
        .sum::<u64>();
    let setup = setup_start.elapsed();

    // ----- replay ----------------------------------------------------------
    let replay_start = Instant::now();
    let (mut stats, sub_ids) = if opts.gateways == 1 {
        // Crashes and fault-plane events indexed by op position; several
        // shards may be hit at once.
        let mut crash_at: HashMap<usize, Vec<usize>> = HashMap::new();
        for plan in &opts.crashes {
            crash_at.entry(plan.at_op).or_default().push(plan.shard);
        }
        let mut fault_at: HashMap<usize, Vec<(usize, FaultAction)>> = HashMap::new();
        for plan in &opts.faults {
            fault_at
                .entry(plan.at_op)
                .or_default()
                .push((plan.shard, plan.action));
        }
        let gw = cluster.gateway();
        let mut driver = Driver::new(trace, &gw, &top_ids, &members, opts);
        for idx in 0..trace.ops.len() {
            if let Some(shards) = crash_at.get(&idx) {
                for &shard in shards {
                    // Kill the shard *first*, then flush what's buffered:
                    // every op bound for the dead shard comes back as a
                    // ShardDown decision and is recorded for retry. Once the
                    // standby has replayed the checkpoint chain + log (or a
                    // follower was promoted), drain_all resubmits the
                    // errored ops under their original ids — the dedup
                    // window replays anything that had already committed —
                    // and settles every outstanding op before the storm
                    // continues.
                    cluster.crash_shard(ShardId(shard));
                    driver.flush();
                    cluster
                        .recover_shard(ShardId(shard))
                        .expect("shard recovery");
                    driver.drain_all();
                }
            }
            if let Some(faults) = fault_at.get(&idx) {
                for &(shard, action) in faults {
                    let sid = ShardId(shard);
                    match action {
                        FaultAction::IsolateLeader => {
                            // Partition first (non-barrier: parked batches
                            // stay parked under it), then flush so buffered
                            // writes ship *into* the partition. The
                            // `is_shard_active` barrier behind them forces
                            // the leader to settle: its quorum cannot make
                            // progress, the stall budget burns out, parked
                            // decisions come back `ShardDown` and it demotes
                            // itself. A leader with nothing to settle stays
                            // active — then there is nothing to promote.
                            cluster.isolate_shard_leader(sid);
                            driver.flush();
                            let demoted = !cluster.is_shard_active(sid);
                            cluster.heal_shard_partition(sid);
                            if demoted {
                                cluster
                                    .recover_shard(sid)
                                    .expect("promotion after healed partition");
                            }
                            driver.drain_all();
                        }
                        FaultAction::Corrupt(target) => {
                            // Silent rot, then a crash so the next recovery
                            // actually reads the damaged artifact: promotion
                            // verifies every checksum, detects the mismatch
                            // and repairs the new leader from the follower
                            // quorum. Injection is a no-op when the targeted
                            // artifact does not exist yet — then this is
                            // just a plain crash/failover.
                            cluster.inject_corruption(sid, target);
                            cluster.crash_shard(sid);
                            driver.flush();
                            cluster
                                .recover_shard(sid)
                                .expect("repair from replica quorum");
                            driver.drain_all();
                        }
                    }
                }
            }
            driver.step(idx);
        }
        driver.drain_all();
        (driver.stats, driver.sub_ids)
    } else {
        // Partition op indexes by owning gateway (top-level ancestor).
        let mut partitions: Vec<Vec<usize>> = vec![Vec::new(); opts.gateways];
        for (idx, op) in trace.ops.iter().enumerate() {
            let owner = ancestor(trace, op.group) as usize % opts.gateways;
            partitions[owner].push(idx);
        }
        let gateways: Vec<Gateway> = (0..opts.gateways).map(|_| cluster.gateway()).collect();
        let results: Vec<(DriveStats, HashMap<u32, GlobalGroupId>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = partitions
                .iter()
                .zip(&gateways)
                .map(|(part, gw)| {
                    let top_ids = &top_ids;
                    let members = &members;
                    scope.spawn(move || {
                        let mut driver = Driver::new(trace, gw, top_ids, members, opts);
                        for &idx in part {
                            driver.step(idx);
                        }
                        driver.drain_all();
                        (driver.stats, driver.sub_ids)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        let mut merged = DriveStats::default();
        let mut subs = HashMap::new();
        for (s, ids) in results {
            merged.absorb(s);
            subs.extend(ids);
        }
        (merged, subs)
    };
    let replay_time = replay_start.elapsed();

    // ----- end state: invariants + exactly-once content accounting ---------
    let invariants = cluster.check_invariants();
    let expected = trace.expected_content();
    let verify_gw = cluster.gateway();
    let stride = if opts.verify_groups == 0 || opts.verify_groups >= trace.groups.len() {
        1
    } else {
        (trace.groups.len() / opts.verify_groups).max(1)
    };
    let mut verified = 0usize;
    for (g, want) in expected.iter().enumerate().step_by(stride) {
        let gid = if trace.groups[g].parent.is_some() {
            match sub_ids.get(&(g as u32)) {
                Some(&gid) => gid,
                None => continue, // spawn failed; already a mismatch
            }
        } else {
            top_ids[g]
        };
        match verify_gw.session_view(gid) {
            Ok(view) => {
                let got = [
                    view.chat.len() as u64,
                    view.whiteboard.len() as u64,
                    view.annotations.len() as u64,
                    view.media.len() as u64,
                ];
                if got != *want {
                    stats.mismatch(format!(
                        "group {g}: content counts {got:?} != expected {want:?} \
                         (lost or duplicated deliveries)"
                    ));
                }
                verified += 1;
            }
            Err(e) => stats.mismatch(format!("group {g}: session view failed: {e:?}")),
        }
    }

    // ----- memory + queue axes ---------------------------------------------
    let mut state = StateBytes::default();
    let mut queue_peak = 0u64;
    let mut snapshot_deltas = 0u64;
    for s in 0..opts.shards {
        let view = cluster.shard_view(ShardId(s));
        state.log += view.log_bytes;
        state.session += view.session_bytes;
        state.dedup += view.dedup_bytes;
        state.snapshot += view.snapshot_bytes;
        snapshot_deltas += view.snapshot_deltas as u64;
        queue_peak = queue_peak.max(cluster.queue_stats(ShardId(s)).peak_queued as u64);
    }
    let mut queue_depth_samples = 0u64;
    let snapshot_pause_us = Histogram::new();
    let mut snapshot_delta_bytes = 0u64;
    let mut catch_up_lag_max = 0u64;
    let mut fault_partitions = 0u64;
    let mut fault_fenced_appends = 0u64;
    let mut fault_checksum_failures = 0u64;
    let mut fault_repairs = 0u64;
    let registry = cluster.metrics();
    for s in 0..opts.shards {
        if let Some(dmps_cluster::telemetry::Metric::TimeSeries(ts)) =
            registry.get(&format!("cluster.shard.{s}.queue_depth"))
        {
            queue_depth_samples += ts.samples().len() as u64;
        }
        snapshot_pause_us
            .merge(&registry.histogram(&format!("cluster.shard.{s}.snapshot.pause_us")));
        snapshot_delta_bytes += registry
            .counter(&format!("cluster.shard.{s}.snapshot.delta_bytes"))
            .get();
        catch_up_lag_max = catch_up_lag_max.max(
            registry
                .histogram(&format!("cluster.shard.{s}.replica.catch_up_lag"))
                .max(),
        );
        fault_partitions += registry
            .counter(&format!("cluster.shard.{s}.fault.partitions"))
            .get();
        fault_fenced_appends += registry
            .counter(&format!("cluster.shard.{s}.fault.fenced_appends"))
            .get();
        fault_checksum_failures += registry
            .counter(&format!("cluster.shard.{s}.fault.checksum_failures"))
            .get();
        fault_repairs += registry
            .counter(&format!("cluster.shard.{s}.fault.repairs"))
            .get();
    }

    ReplayReport {
        groups: trace.groups.len(),
        memberships,
        streamed_ops: stats.streamed,
        control_ops: stats.control,
        setup,
        replay: replay_time,
        submit_latency: stats.submit_latency,
        grant_latency: stats.grant_latency,
        session_latency: stats.session_latency,
        per_archetype: stats.per_archetype,
        mismatch_count: stats.mismatch_count,
        mismatches: stats.mismatches,
        resubmits: stats.resubmits,
        queue_peak,
        queue_depth_samples,
        rss_before,
        rss_after: rss::current_rss_bytes(),
        rss_peak: rss::peak_rss_bytes(),
        state_bytes: state,
        snapshot_pause_us,
        snapshot_delta_bytes,
        snapshot_deltas,
        catch_up_lag_max,
        fault_partitions,
        fault_fenced_appends,
        fault_checksum_failures,
        fault_repairs,
        invariants,
        verified_groups: verified,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::WorkloadSpec;

    #[test]
    fn small_replay_is_clean() {
        let trace = generate(&WorkloadSpec::small(11));
        let report = replay(&trace, &ReplayOptions::new(4));
        assert!(
            report.is_clean(),
            "mismatches: {:?} / invariants: {:?}",
            report.mismatches,
            report.invariants
        );
        assert_eq!(report.streamed_ops as usize, trace.streamed_ops());
        assert!(report.verified_groups > 0);
        assert!(report.state_bytes.total() > 0, "byte accounting is live");
    }

    #[test]
    fn small_replay_with_crash_stays_exactly_once() {
        let trace = generate(&WorkloadSpec::small(13));
        let mut opts = ReplayOptions::new(4);
        opts.flush_batch = 16;
        opts.crashes = vec![CrashPlan {
            at_op: trace.ops.len() / 2,
            shard: 1,
        }];
        let report = replay(&trace, &opts);
        assert!(
            report.is_clean(),
            "mismatches: {:?} / invariants: {:?}",
            report.mismatches,
            report.invariants
        );
        assert_eq!(report.streamed_ops as usize, trace.streamed_ops());
    }

    #[test]
    fn rolling_crashes_across_every_shard_stay_exactly_once() {
        // The soak shape in miniature: every shard dies and recovers at
        // least once mid-storm, with replicas so recovery goes through
        // follower promotion — and the replay still verifies exactly-once.
        let trace = generate(&WorkloadSpec::small(19));
        let mut opts = ReplayOptions::new(3);
        opts.replicas = 2;
        opts.flush_batch = 16;
        opts.crashes = CrashPlan::rolling(6, trace.ops.len(), 3);
        let report = replay(&trace, &opts);
        assert!(
            report.is_clean(),
            "mismatches: {:?} / invariants: {:?}",
            report.mismatches,
            report.invariants
        );
        assert_eq!(report.streamed_ops as usize, trace.streamed_ops());
        // The soak axis: promotion tail-catch-up stays bounded (a follower
        // that was fully caught up records 0).
        assert!(
            report.catch_up_lag_max <= 8192,
            "catch-up lag unbounded: {}",
            report.catch_up_lag_max
        );
    }

    #[test]
    fn chaos_soak_with_partitions_corruption_and_crashes_stays_exactly_once() {
        // The full chaos plane in miniature: rolling crashes AND a rolling
        // fault schedule (leader partitions + corruption of every
        // checksummed artifact class) over a replicated cluster — and the
        // replay still verifies every decision against its stamped
        // expectation with zero mismatches and exact end-state content
        // counts.
        let trace = generate(&WorkloadSpec::small(23));
        let mut opts = ReplayOptions::new(3);
        opts.replicas = 2;
        opts.flush_batch = 16;
        opts.crashes = CrashPlan::rolling(3, trace.ops.len(), 3);
        opts.faults = FaultPlan::rolling(8, trace.ops.len(), 3);
        let report = replay(&trace, &opts);
        assert!(
            report.is_clean(),
            "mismatches: {:?} / invariants: {:?}",
            report.mismatches,
            report.invariants
        );
        assert_eq!(report.streamed_ops as usize, trace.streamed_ops());
        // The fault plane actually fired and was survived, not skipped:
        // partitions were injected, at least one injected corruption was
        // detected by a checksum, and every detected corruption was
        // repaired from the quorum rather than served or aborted on.
        assert!(report.fault_partitions > 0, "no partition was injected");
        assert!(
            report.fault_checksum_failures > 0,
            "no injected corruption was ever detected"
        );
        assert!(
            report.fault_repairs > 0,
            "detected corruption was never repaired from the quorum"
        );
    }

    #[test]
    fn parallel_gateways_replay_cleanly() {
        let trace = generate(&WorkloadSpec::small(17));
        let mut opts = ReplayOptions::new(4);
        opts.gateways = 3;
        opts.flush_batch = 8;
        let report = replay(&trace, &opts);
        assert!(
            report.is_clean(),
            "mismatches: {:?} / invariants: {:?}",
            report.mismatches,
            report.invariants
        );
    }
}
