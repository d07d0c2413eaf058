//! One repetition: a fresh `Cluster`, driven only through public API.
//!
//! set-up → saturation phase (closed loop, read bursts beside the writes,
//! leader crashes where the workload has them) → paced phase (open loop,
//! latency from the due time) → state accounting → recovery drills →
//! verification. Every streamed op must get exactly one decision and that
//! decision must be the one the trace stamped; anything else is a failure.

use std::collections::HashSet;
use std::time::Instant;

use dmps_cluster::telemetry::{Stage, TraceSpan};
use dmps_cluster::{
    Cluster, ClusterConfig, ClusterError, Decision, Gateway, GlobalGroupId, GlobalMemberId,
    GlobalRequest, SessionDecision, SessionOp, SessionOutcome, SessionRejection, ShardId,
};
use dmps_floor::{ArbitrationOutcome, FcmMode, Member, Role};
use dmps_simnet::SimTime;
use dmps_workload::{generate, payload_text, Expect, OpKind, Trace, WorkloadSpec};

use crate::host;
use crate::pacer::{latency_from_due, OpenLoop, Schedule};
use crate::spans::{Recorder, NO_REQUEST};
use crate::specs::{
    ReadKind, SubmitPath, Workload, DRILL_ROUNDS, ON_TIME_LIMIT_NS, READ_BURST, SHARDS,
};
use crate::stats::{median, Pool};

const FAILURE_CAP: usize = 16;
const MAX_RETRY_ROUNDS: usize = 16;
/// Recently decided (group, member) pairs the read bursts draw from.
const RECENT_RING: usize = 1024;
/// The cluster's span ring holds 256 spans at 1-in-64 sampling, so it turns
/// over every 16 384 ops; poll well inside that.
const SPAN_POLL_EVERY: u64 = 4_096;
/// In-situ pipeline tracing rate of a traced repetition.
pub const CLUSTER_TRACE_SAMPLING: u64 = 64;

/// Durable state bytes summed over shards (`ShardView`).
#[derive(Debug, Default, Clone, Copy)]
pub struct StateBytes {
    pub log: u64,
    pub session: u64,
    pub dedup: u64,
    pub snapshot: u64,
}

impl StateBytes {
    pub fn total(&self) -> u64 {
        self.log + self.session + self.dedup + self.snapshot
    }
}

/// What the cluster itself emitted during a traced repetition: sampled
/// pipeline spans (stage deltas, ns) and the always-on registry.
#[derive(Debug, Default)]
pub struct InSitu {
    pub submit_to_enqueue: Pool,
    pub queue_wait: Pool,
    pub commit: Pool,
    pub reply: Pool,
    pub pause_us_p99: f64,
    pub pause_us_max: f64,
    pub pauses: f64,
    pub chain_len_max: f64,
    pub dedup_hits: f64,
    pub queue_peak: f64,
    pub drain_batch_mean: f64,
    pub with_stall_ns_max: f64,
    pub batch_size_mean: f64,
    pub replica_acks: f64,
    pub retransmits: f64,
    pub resyncs: f64,
    pub catch_up_lag_max: f64,
    pub follower_reads: f64,
    pub forwarded_reads: f64,
}

/// Everything one repetition measured and verified.
#[derive(Debug)]
pub struct RepOutcome {
    pub groups: usize,
    pub streamed_ops: usize,
    pub setup_ns: u64,
    pub sat_ops: u64,
    pub sat_wall_ns: u64,
    /// On-CPU time of the driver thread and of all other threads (the shard
    /// workers) during the saturation phase.
    pub sat_driver_cpu_ns: u64,
    pub sat_worker_cpu_ns: u64,
    /// Traced repetitions: duration of every single-op submit call, and of
    /// every batch submit call ÷ its size.
    pub submit_ns: Pool,
    pub submit_batch_ns: Pool,
    pub paced_attempted: u64,
    /// Due time → decision received, every op of the paced phase.
    pub paced_latency: Pool,
    pub late: Pool,
    /// One sample per burst: burst wall ÷ reads.
    pub read_ns: Pool,
    /// One sample per round: crash → recovered → first decision, summed
    /// over shards, from a fresh full checkpoint.
    pub recover_ns: Vec<u64>,
    /// One sample per in-stream leader crash: `crash_shard` + `recover_shard`.
    pub promote_ns: Vec<u64>,
    /// One crash → recovered → first decision round (summed over shards) as
    /// the stream left the shards, wherever in their delta chains that was.
    pub recover_chain_ns: u64,
    /// Durable state right after every shard took a fresh full checkpoint.
    pub state: StateBytes,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub resubmits: u64,
    pub reads: u64,
    /// Owning shard of every trace group (probes replay the same split).
    pub placement: Vec<usize>,
    pub insitu: Option<InSitu>,
    /// Placement/local-member lookups on the live cluster, ns per call.
    pub directory_ns: Option<(f64, f64)>,
    pub recorder: Recorder,
}

impl RepOutcome {
    pub fn ops_per_s(&self) -> f64 {
        self.sat_ops as f64 / (self.sat_wall_ns.max(1) as f64 / 1e9)
    }

    /// The repetition's value of every end-to-end metric a repetition has
    /// one of, in `report::END_TO_END` order (all but `rss_peak_mib`).
    pub fn end_to_end(&self) -> [f64; 8] {
        let quantile = |pool: &Pool, q: f64| pool.clone().percentile(q) as f64;
        let rounds: Vec<f64> = self.recover_ns.iter().map(|&ns| ns as f64).collect();
        [
            self.setup_ns as f64 / 1e9,
            self.ops_per_s(),
            quantile(&self.paced_latency, 0.5) / 1e3,
            quantile(&self.paced_latency, 0.99) / 1e6,
            self.paced_latency
                .share_within_pct(ON_TIME_LIMIT_NS, self.paced_attempted),
            quantile(&self.read_ns, 0.5) / 1e3,
            median(&rounds) / 1e6,
            self.state.total() as f64 / self.groups.max(1) as f64,
        ]
    }
}

const FLOOR: usize = 0;
const SESSION: usize = 1;

fn lane(kind: &OpKind) -> usize {
    if kind.is_floor() {
        FLOOR
    } else {
        SESSION
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Saturate,
    Paced,
}

struct Driver<'a> {
    w: &'a Workload,
    trace: &'a Trace,
    gw: Gateway,
    rec: Recorder,
    gids: Vec<Option<GlobalGroupId>>,
    members: Vec<Vec<GlobalMemberId>>,

    /// Undecided ops by request id: `slots[seq - seq0]` is op index + 1.
    seq0: Option<u64>,
    slots: Vec<u32>,
    /// Submitted and not yet answered, per lane (`FLOOR` / `SESSION`: the
    /// gateway streams the two kinds of decision on two channels).
    in_flight: [usize; 2],
    retries: Vec<(u64, u32)>,
    resubmits: u64,

    phase: Phase,
    clock: Instant,
    paced_start: usize,
    open_loop: OpenLoop,
    paced_latency: Pool,
    late: Pool,
    submit_ns: Pool,
    submit_batch_ns: Pool,

    decided: u64,
    delivered: Vec<u32>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,

    recent: Vec<(u32, u32)>,
    recent_next: usize,
    since_read: usize,
    read_flip: bool,
    read_ns: Pool,
    reads: u64,

    /// Vectored path: ops buffered per lane, and the groups they mention. At
    /// most one lane's buffer holds ops of a given group, so a group's ops
    /// reach its shard in trace order.
    bufs: [Vec<u32>; 2],
    buffered_groups: [HashSet<u32>; 2],

    promote_ns: Vec<u64>,
    since_poll: u64,
    spans_seen: HashSet<u64>,
    insitu: InSitu,
}

impl<'a> Driver<'a> {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < FAILURE_CAP {
            self.failures.push(msg);
        }
    }

    fn gid(&self, group: u32) -> GlobalGroupId {
        self.gids[group as usize].expect("a sub-group is spawned before its first op")
    }

    /// Global id of a group-local member; sub-session members resolve
    /// through the parent roster (local 0 = inviter, 1 = invitee).
    fn mid(&self, group: u32, local: u32) -> GlobalMemberId {
        match self.trace.groups[group as usize].parent {
            Some((p, from, to)) => {
                let parent_local = if local == 0 { from } else { to };
                self.members[p as usize][parent_local as usize]
            }
            None => self.members[group as usize][local as usize],
        }
    }

    fn floor_request(&self, idx: u32) -> GlobalRequest {
        let op = &self.trace.ops[idx as usize];
        let (gid, mid) = (self.gid(op.group), self.mid(op.group, op.member));
        match op.kind {
            OpKind::Speak => GlobalRequest::speak(gid, mid),
            OpKind::Release => GlobalRequest::release_floor(gid, mid),
            OpKind::Pass { to } => GlobalRequest::pass_floor(gid, mid, self.mid(op.group, to)),
            _ => unreachable!("floor builder on a non-floor op"),
        }
    }

    fn session_op(&self, idx: u32) -> SessionOp {
        let op = &self.trace.ops[idx as usize];
        let (gid, mid) = (self.gid(op.group), self.mid(op.group, op.member));
        match op.kind {
            OpKind::Chat { len } => SessionOp::chat(gid, mid, payload_text(len)),
            OpKind::Whiteboard { len } => SessionOp::whiteboard(gid, mid, payload_text(len)),
            OpKind::Annotation { len } => SessionOp::annotation(gid, mid, payload_text(len)),
            OpKind::ScheduleMedia { len } => {
                SessionOp::schedule_media(gid, mid, payload_text(len), SimTime::from_nanos(op.at))
            }
            _ => unreachable!("session builder on a non-session op"),
        }
    }

    // ----- outstanding-op bookkeeping ---------------------------------------

    fn slot(&mut self, seq: u64) -> Option<&mut u32> {
        let seq0 = *self.seq0.get_or_insert(seq);
        let at = seq.checked_sub(seq0)? as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, 0);
        }
        Some(&mut self.slots[at])
    }

    fn track(&mut self, seq: u64, idx: u32) {
        match self.slot(seq) {
            Some(slot) => *slot = idx + 1,
            None => self.fail(format!("request id {seq} went backwards")),
        }
    }

    fn tracked(&mut self, seq: u64) -> Option<u32> {
        self.slot(seq).and_then(|s| s.checked_sub(1))
    }

    fn in_flight(&self) -> usize {
        self.in_flight[FLOOR] + self.in_flight[SESSION]
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    // ----- submitting -------------------------------------------------------

    fn submit_one(&mut self, idx: u32) {
        let lane = lane(&self.trace.ops[idx as usize].kind);
        let span = self.rec.enter("gateway.submit", idx as u64);
        let result = if lane == FLOOR {
            self.gw.submit(self.floor_request(idx))
        } else {
            self.gw.submit_session(self.session_op(idx))
        };
        let ns = self.rec.exit(span);
        if self.rec.enabled() {
            self.submit_ns.push(ns);
        }
        self.attempted += 1;
        match result {
            Ok(seq) => {
                self.track(seq, idx);
                self.in_flight[lane] += 1;
            }
            Err(e) => self.fail(format!("op {idx}: submit refused: {e:?}")),
        }
    }

    /// Submits a lane's buffer as one vectored call, once fewer than `cap`
    /// ops would be undecided with it.
    fn flush(&mut self, lane: usize, cap: usize) {
        if self.bufs[lane].is_empty() {
            return;
        }
        while self.in_flight() + self.bufs[lane].len() > cap && self.in_flight() > 0 {
            self.recv_blocking();
        }
        let buf = std::mem::take(&mut self.bufs[lane]);
        let (seqs, ns) = if lane == FLOOR {
            let requests: Vec<GlobalRequest> = buf.iter().map(|&i| self.floor_request(i)).collect();
            let span = self.rec.enter("gateway.submit_batch", buf[0] as u64);
            let seqs = self.gw.submit_batch(&requests);
            (seqs, self.rec.exit(span))
        } else {
            let ops: Vec<SessionOp> = buf.iter().map(|&i| self.session_op(i)).collect();
            let span = self.rec.enter("gateway.submit_batch", buf[0] as u64);
            let seqs = self.gw.submit_session_batch(ops);
            (seqs, self.rec.exit(span))
        };
        if self.rec.enabled() {
            self.submit_batch_ns.push(ns / buf.len() as u64);
        }
        self.attempted += buf.len() as u64;
        self.in_flight[lane] += buf.len();
        for (seq, idx) in seqs.into_iter().zip(buf) {
            self.track(seq, idx);
        }
        self.buffered_groups[lane].clear();
    }

    fn flush_buffers(&mut self) {
        self.flush(FLOOR, usize::MAX);
        self.flush(SESSION, usize::MAX);
    }

    /// A breakout spawn: synchronous invite + acceptance, inline in the
    /// stream (in the paced phase the ops behind it wait for it).
    fn spawn(&mut self, idx: u32, sub: u32) {
        let op = self.trace.ops[idx as usize];
        let (_, inviter, invitee) = self.trace.groups[sub as usize]
            .parent
            .expect("a spawn targets a sub-group");
        let parent = self.gid(op.group);
        let (from, to) = (self.mid(op.group, inviter), self.mid(op.group, invitee));
        self.attempted += 1;
        let span = self.rec.enter("gateway.invite", idx as u64);
        let invited = self
            .gw
            .invite(parent, from, to, FcmMode::GroupDiscussion, None);
        let result = invited.and_then(|(gid, invitation)| {
            self.gids[sub as usize] = Some(gid);
            self.gw.respond_invitation(invitation, to, true)
        });
        self.rec.exit(span);
        if let Err(e) = result {
            self.fail(format!("op {idx}: spawn failed: {e:?}"));
        }
    }

    // ----- receiving --------------------------------------------------------

    /// Closes the books on a finally decided op.
    fn finish(&mut self, seq: u64, idx: u32, delivered: bool) {
        if let Some(slot) = self.slot(seq) {
            *slot = 0;
        }
        let op = self.trace.ops[idx as usize];
        self.decided += 1;
        self.since_read += 1;
        self.since_poll += 1;
        if delivered {
            self.delivered[op.group as usize] += 1;
        }
        self.recent[self.recent_next % RECENT_RING] = (op.group, op.member);
        self.recent_next += 1;
        if self.phase == Phase::Paced {
            let due = self.open_loop.due_ns(idx as usize - self.paced_start);
            let now = self.now_ns();
            self.paced_latency.push(latency_from_due(due, now));
        }
    }

    /// Checks one streamed decision against the trace. `judge` says whether
    /// the outcome is the one the op's `Expect` stamps and, if so, whether
    /// it delivered content.
    fn settle<T: std::fmt::Debug>(
        &mut self,
        lane: usize,
        seq: u64,
        outcome: dmps_cluster::Result<std::sync::Arc<T>>,
        judge: impl Fn(Expect, &T) -> Option<bool>,
    ) {
        self.in_flight[lane] = self.in_flight[lane].saturating_sub(1);
        let Some(idx) = self.tracked(seq) else {
            return self.fail(format!("decision for unknown request {seq}"));
        };
        let op = self.trace.ops[idx as usize];
        match outcome {
            Ok(outcome) => {
                let delivered = judge(op.expect, &outcome);
                if delivered.is_none() {
                    self.fail(format!(
                        "op {idx} ({:?} by {} in group {}): expected {:?}, got {outcome:?}",
                        op.kind, op.member, op.group, op.expect
                    ));
                }
                self.finish(seq, idx, delivered == Some(true));
            }
            // Exactly-once retry: resubmitted under the same id once the
            // shard is back; the dedup window answers what already applied.
            Err(ClusterError::ShardDown(_)) | Err(ClusterError::Overloaded(_)) => {
                self.retries.push((seq, idx));
            }
            Err(e) => {
                self.fail(format!("op {idx}: {e:?}"));
                self.finish(seq, idx, false);
            }
        }
    }

    fn on_floor(&mut self, d: Decision) {
        self.settle(FLOOR, d.seq, d.outcome, |expect, outcome| {
            matches!(
                (expect, outcome),
                (Expect::Granted, ArbitrationOutcome::Granted { .. })
                    | (Expect::Queued, ArbitrationOutcome::Queued { .. })
                    | (Expect::Denied, ArbitrationOutcome::Denied { .. })
            )
            .then_some(false)
        });
    }

    fn on_session(&mut self, d: SessionDecision) {
        self.settle(SESSION, d.seq, d.outcome, |expect, outcome| {
            let rejected = SessionOutcome::Rejected {
                reason: SessionRejection::FloorDenied,
            };
            match expect {
                Expect::Delivered if outcome.is_delivered() => Some(true),
                Expect::RejectedFloor if *outcome == rejected => Some(false),
                _ => None,
            }
        });
    }

    /// Takes every decision that has already arrived. A traced repetition
    /// records a `gateway.recv` span per decision taken; the polls that
    /// find nothing are not spans.
    fn drain_ready(&mut self) {
        loop {
            let t0 = self.rec.now_ns();
            let Some(d) = self.gw.try_recv_decision() else {
                break;
            };
            self.rec.leaf("gateway.recv", d.seq, t0);
            self.on_floor(d);
        }
        loop {
            let t0 = self.rec.now_ns();
            let Some(d) = self.gw.try_recv_session_decision() else {
                break;
            };
            self.rec.leaf("gateway.recv", d.seq, t0);
            self.on_session(d);
        }
    }

    /// Blocks for one decision (the window is full, or the stream is being
    /// drained). The wait is the cluster working, not gateway cost.
    fn recv_blocking(&mut self) {
        let lane = if self.in_flight[FLOOR] > 0 {
            FLOOR
        } else {
            SESSION
        };
        let span = self.rec.enter("gateway.recv_wait", NO_REQUEST);
        let died = if lane == FLOOR {
            let received = self.gw.recv_decision();
            self.rec.exit(span);
            received.map(|d| self.on_floor(d)).err()
        } else {
            let received = self.gw.recv_session_decision();
            self.rec.exit(span);
            received.map(|d| self.on_session(d)).err()
        };
        if let Some(e) = died {
            self.in_flight[lane] = 0;
            self.fail(format!("decision stream died: {e:?}"));
        }
    }

    /// Blocks until every submitted op has its final decision, resubmitting
    /// errored ops under their original ids in ascending id order (= the
    /// original per-group order).
    fn drain_all(&mut self) {
        for _ in 0..MAX_RETRY_ROUNDS {
            while self.in_flight() > 0 {
                self.recv_blocking();
            }
            if self.retries.is_empty() {
                return;
            }
            let mut retries = std::mem::take(&mut self.retries);
            retries.sort_unstable_by_key(|&(seq, _)| seq);
            for (seq, idx) in retries {
                let lane = lane(&self.trace.ops[idx as usize].kind);
                let result = if lane == FLOOR {
                    self.gw.resubmit(seq, self.floor_request(idx))
                } else {
                    self.gw.resubmit_session(seq, self.session_op(idx))
                };
                match result {
                    Ok(()) => self.in_flight[lane] += 1,
                    Err(e) => self.fail(format!("op {idx}: resubmit refused: {e:?}")),
                }
                self.resubmits += 1;
            }
        }
        self.fail("retry rounds exhausted with ops still erroring".to_string());
    }

    // ----- reads ------------------------------------------------------------

    fn read_one(&mut self, group: u32, member: u32) {
        let queue = match self.w.reads {
            ReadKind::SessionView => false,
            ReadKind::Alternate => {
                self.read_flip = !self.read_flip;
                self.read_flip
            }
        } && self.trace.groups[group as usize].mode == FcmMode::EqualControl;
        let gid = self.gid(group);
        self.attempted += 1;
        self.reads += 1;
        if queue {
            let mid = self.mid(group, member);
            let span = self.rec.enter("gateway.queue_position", group as u64);
            let result = self.gw.queue_position(gid, mid);
            self.rec.exit(span);
            let roster = self.trace.groups[group as usize].members as usize;
            match result {
                Ok(Some(position)) if position > roster => {
                    self.fail(format!("group {group}: queue position {position} > roster"))
                }
                Ok(_) => {}
                Err(e) => self.fail(format!("group {group}: queue_position failed: {e:?}")),
            }
        } else {
            let span = self.rec.enter("gateway.session_view", group as u64);
            let result = self.gw.session_view(gid);
            self.rec.exit(span);
            match result {
                // Read-your-writes: everything this gateway saw delivered
                // must be in the view (ops still in flight may be too).
                Ok(view) => {
                    let seen = view.chat.len()
                        + view.whiteboard.len()
                        + view.annotations.len()
                        + view.media.len();
                    let acked = self.delivered[group as usize] as usize;
                    if seen < acked {
                        self.fail(format!(
                            "group {group}: view shows {seen} items, {acked} were acknowledged"
                        ));
                    }
                }
                Err(e) => self.fail(format!("group {group}: session_view failed: {e:?}")),
            }
        }
    }

    /// A burst of reads of recently written groups, beside the writes.
    fn maybe_read(&mut self) {
        if self.since_read < self.w.read_every || self.recent_next < RECENT_RING {
            return;
        }
        self.since_read = 0;
        let span = self.rec.enter("reads.burst", NO_REQUEST);
        let t0 = Instant::now();
        for k in 0..READ_BURST {
            let (group, member) = self.recent[(self.recent_next + k * 13) % RECENT_RING];
            self.read_one(group, member);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.rec.exit(span);
        self.read_ns.push(ns / READ_BURST as u64);
    }

    // ----- in-situ spans ----------------------------------------------------

    fn absorb_cluster_spans(&mut self, spans: Vec<TraceSpan>) {
        if self.phase != Phase::Paced {
            // Still dedupe, so saturation-phase spans are not pooled later.
            for s in &spans {
                self.spans_seen.insert(s.seq());
            }
            return;
        }
        for s in spans {
            if !s.is_complete() || !self.spans_seen.insert(s.seq()) {
                continue;
            }
            let at = |stage| s.stage_ns(stage).unwrap_or(0);
            let i = &mut self.insitu;
            i.submit_to_enqueue
                .push(at(Stage::Enqueued).saturating_sub(at(Stage::Submitted)));
            i.queue_wait
                .push(at(Stage::Drained).saturating_sub(at(Stage::Enqueued)));
            i.commit
                .push(at(Stage::Committed).saturating_sub(at(Stage::Drained)));
            i.reply
                .push(at(Stage::Replied).saturating_sub(at(Stage::Committed)));
        }
    }

    fn maybe_poll_spans(&mut self, cluster: &Cluster) {
        if self.rec.enabled() && self.since_poll >= SPAN_POLL_EVERY {
            self.since_poll = 0;
            self.absorb_cluster_spans(cluster.recent_spans());
        }
    }

    // ----- phases -----------------------------------------------------------

    /// Crashes a shard's leader mid-stream, recovers it (replay, or follower
    /// promotion when replicated) and settles every op exactly once.
    fn failover(&mut self, cluster: &mut Cluster, shard: usize) {
        let span = self.rec.enter("cluster.crash_shard", NO_REQUEST);
        let t0 = Instant::now();
        cluster.crash_shard(ShardId(shard));
        let crash_ns = t0.elapsed().as_nanos() as u64;
        self.rec.exit(span);
        // What is buffered for the dead shard comes back `ShardDown`.
        self.flush_buffers();
        let span = self.rec.enter("cluster.recover_shard", NO_REQUEST);
        let t1 = Instant::now();
        let recovered = cluster.recover_shard(ShardId(shard));
        self.promote_ns
            .push(crash_ns + t1.elapsed().as_nanos() as u64);
        self.rec.exit(span);
        if let Err(e) = recovered {
            self.fail(format!("shard {shard}: recovery failed: {e:?}"));
        }
        self.drain_all();
    }

    fn saturate(&mut self, cluster: &mut Cluster, range: std::ops::Range<usize>) {
        self.phase = Phase::Saturate;
        let crash_at: Vec<usize> = self
            .w
            .crash_at_pct
            .iter()
            .map(|pct| range.start + range.len() * pct / 100)
            .collect();
        let cap = match self.w.path {
            SubmitPath::Single { window } => window,
            SubmitPath::Vectored { batch, in_flight } => batch * in_flight,
        };
        for idx in range {
            if let Some(nth) = crash_at.iter().position(|&at| at == idx) {
                self.failover(cluster, nth % SHARDS);
            }
            let op = self.trace.ops[idx];
            let idx = idx as u32;
            match (op.kind, self.w.path) {
                (OpKind::Spawn { sub }, _) => self.spawn(idx, sub),
                (_, SubmitPath::Single { .. }) => {
                    while self.in_flight() >= cap {
                        self.recv_blocking();
                    }
                    self.submit_one(idx);
                }
                (kind, SubmitPath::Vectored { batch, .. }) => {
                    let (lane, other) = (lane(&kind), 1 - lane(&kind));
                    if self.buffered_groups[other].contains(&op.group) {
                        self.flush(other, cap);
                    }
                    self.bufs[lane].push(idx);
                    self.buffered_groups[lane].insert(op.group);
                    if self.bufs[lane].len() >= batch {
                        self.flush(lane, cap);
                    }
                }
            }
            self.drain_ready();
            self.maybe_read();
            self.maybe_poll_spans(cluster);
        }
        self.flush_buffers();
        self.drain_all();
    }

    fn pace(&mut self, cluster: &Cluster, range: std::ops::Range<usize>) {
        let arrivals: Vec<u64> = range.clone().map(|i| self.trace.ops[i].at).collect();
        self.open_loop = OpenLoop::new(Schedule::from_arrivals(&arrivals, self.w.paced_rate));
        self.paced_start = range.start;
        self.phase = Phase::Paced;
        self.clock = Instant::now();
        loop {
            self.drain_ready();
            if self.open_loop.exhausted() && self.in_flight() == 0 {
                break;
            }
            let now = self.now_ns();
            match self.open_loop.poll(now) {
                Some(released) => {
                    self.late.push(released.late_ns);
                    let idx = (range.start + released.index) as u32;
                    match self.trace.ops[idx as usize].kind {
                        OpKind::Spawn { sub } => self.spawn(idx, sub),
                        _ => self.submit_one(idx),
                    }
                    self.maybe_poll_spans(cluster);
                }
                None => std::thread::yield_now(),
            }
        }
        if !self.retries.is_empty() {
            self.drain_all();
        }
    }

    /// Crashes and recovers every shard once; returns crash → recovered →
    /// first decision served, summed over shards.
    fn drill_round(
        &mut self,
        cluster: &mut Cluster,
        drills: &[(GlobalGroupId, GlobalMemberId)],
    ) -> u64 {
        let mut round_ns = 0u64;
        for (s, &(gid, mid)) in drills.iter().enumerate() {
            let t0 = Instant::now();
            let crash = self.rec.enter("cluster.crash_shard", NO_REQUEST);
            cluster.crash_shard(ShardId(s));
            self.rec.exit(crash);
            let recover = self.rec.enter("cluster.recover_shard", NO_REQUEST);
            let recovered = cluster.recover_shard(ShardId(s));
            self.rec.exit(recover);
            self.attempted += 1;
            let served = recovered
                .and_then(|()| self.gw.submit(GlobalRequest::speak(gid, mid)))
                .and_then(|_| self.gw.recv_decision())
                .and_then(|decision| decision.outcome);
            round_ns += t0.elapsed().as_nanos() as u64;
            match served {
                Ok(outcome) if outcome.is_granted() => {}
                other => self.fail(format!(
                    "shard {s}: first request after recovery: {other:?}"
                )),
            }
        }
        round_ns
    }

    /// Sends floor requests to each shard's drill group (they log an event
    /// and change no state) until the shard's checkpoint cadence fires; after
    /// a recovery that checkpoint is a full one, which empties the chain.
    fn force_full_checkpoints(
        &mut self,
        cluster: &Cluster,
        drills: &[(GlobalGroupId, GlobalMemberId)],
    ) {
        const FILLER_BATCH: usize = 256;
        const FILLER_BATCHES: usize = 256;
        for (s, &(gid, mid)) in drills.iter().enumerate() {
            let before = cluster.shard_view(ShardId(s));
            let filler = vec![GlobalRequest::speak(gid, mid); FILLER_BATCH];
            let mut rebased = false;
            for _ in 0..FILLER_BATCHES {
                let view = cluster.shard_view(ShardId(s));
                rebased = view.snapshot_deltas == 0 && view.log_base > before.log_base;
                if rebased {
                    break;
                }
                let sent = self.gw.submit_batch(&filler).len();
                self.attempted += sent as u64;
                match self.gw.collect_decisions(sent) {
                    Ok(decisions) => {
                        let refused = decisions
                            .iter()
                            .filter(|d| !matches!(&d.outcome, Ok(o) if o.is_granted()))
                            .count();
                        if refused > 0 {
                            self.fail(format!("shard {s}: {refused} filler requests refused"));
                        }
                    }
                    Err(e) => self.fail(format!("shard {s}: filler decisions lost: {e:?}")),
                }
            }
            if !rebased {
                self.fail(format!("shard {s}: no full checkpoint after the filler"));
            }
        }
    }
}

/// Creates one single-member free-access group per shard for the recovery
/// drills to send their first request to (outside the trace, so the drills
/// do not disturb what verification expects).
fn drill_groups(gw: &Gateway) -> Result<Vec<(GlobalGroupId, GlobalMemberId)>, String> {
    let mut per_shard: Vec<Option<(GlobalGroupId, GlobalMemberId)>> = vec![None; SHARDS];
    for n in 0..64 {
        if per_shard.iter().all(Option::is_some) {
            break;
        }
        let gid = gw
            .create_group(format!("drill{n}"), FcmMode::FreeAccess)
            .map_err(|e| format!("drill group: {e:?}"))?;
        let shard = gw
            .placement(gid)
            .map_err(|e| format!("drill placement: {e:?}"))?
            .shard
            .index();
        if per_shard[shard].is_none() {
            let mid = gw.register_member(Member::new(format!("drill{n}.m"), Role::Chair));
            gw.join_group(gid, mid)
                .map_err(|e| format!("drill join: {e:?}"))?;
            per_shard[shard] = Some((gid, mid));
        }
    }
    per_shard
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "could not place a drill group on every shard".to_string())
}

fn read_insitu(cluster: &Cluster, mut insitu: InSitu) -> InSitu {
    let registry = cluster.metrics();
    let hist = |name: String| registry.histogram(&name);
    let counter = |name: String| registry.counter(&name).get() as f64;
    let (mut drained, mut drains) = (0.0, 0.0);
    for s in 0..SHARDS {
        let pause = hist(format!("cluster.shard.{s}.snapshot.pause_us"));
        insitu.pause_us_p99 = insitu.pause_us_p99.max(pause.p99() as f64);
        insitu.pause_us_max = insitu.pause_us_max.max(pause.max() as f64);
        insitu.pauses += pause.count() as f64;
        insitu.chain_len_max = insitu
            .chain_len_max
            .max(hist(format!("cluster.shard.{s}.snapshot.chain_len")).max() as f64);
        insitu.dedup_hits += counter(format!("cluster.shard.{s}.dedup_hits"))
            + counter(format!("cluster.shard.{s}.session_dedup_hits"));
        insitu.queue_peak = insitu
            .queue_peak
            .max(cluster.queue_stats(ShardId(s)).peak_queued as f64);
        let drain = hist(format!("cluster.shard.{s}.drain_batch"));
        drained += drain.sum() as f64;
        drains += drain.count() as f64;
        insitu.with_stall_ns_max = insitu
            .with_stall_ns_max
            .max(hist(format!("cluster.shard.{s}.with_stall_ns")).max() as f64);
        insitu.replica_acks += counter(format!("cluster.shard.{s}.replica.acks"));
        insitu.retransmits += counter(format!("cluster.shard.{s}.replica.retransmits"));
        insitu.resyncs += counter(format!("cluster.shard.{s}.replica.resyncs"));
        insitu.catch_up_lag_max = insitu
            .catch_up_lag_max
            .max(hist(format!("cluster.shard.{s}.replica.catch_up_lag")).max() as f64);
        insitu.follower_reads += counter(format!("cluster.shard.{s}.replica.follower_reads"));
        insitu.forwarded_reads += counter(format!("cluster.shard.{s}.replica.forwarded_reads"));
    }
    insitu.drain_batch_mean = if drains > 0.0 { drained / drains } else { 0.0 };
    let (mut batched, mut batches) = (0.0, 0.0);
    for name in registry.names() {
        if name.starts_with("gateway.") && name.ends_with(".submit_batch_size") {
            let h = registry.histogram(&name);
            batched += h.sum() as f64;
            batches += h.count() as f64;
        }
    }
    insitu.batch_size_mean = if batches > 0.0 {
        batched / batches
    } else {
        0.0
    };
    insitu
}

/// Times `Cluster::placement` and `Cluster::local_member` over every
/// top-level group and roster seat of the live cluster.
fn directory_probe(
    cluster: &Cluster,
    gids: &[Option<GlobalGroupId>],
    members: &[Vec<GlobalMemberId>],
) -> (f64, f64) {
    let t0 = Instant::now();
    let mut placed = 0u64;
    let mut shards = Vec::with_capacity(gids.len());
    for gid in gids.iter().flatten() {
        let p = std::hint::black_box(cluster.placement(*gid));
        shards.push(p.map(|p| p.shard).unwrap_or(ShardId(0)));
        placed += 1;
    }
    let placement_ns = t0.elapsed().as_nanos() as f64 / placed.max(1) as f64;
    let t1 = Instant::now();
    let mut looked_up = 0u64;
    for (roster, shard) in members.iter().filter(|r| !r.is_empty()).zip(&shards) {
        for &mid in roster {
            let _ = std::hint::black_box(cluster.local_member(mid, *shard));
            looked_up += 1;
        }
    }
    let local_ns = t1.elapsed().as_nanos() as f64 / looked_up.max(1) as f64;
    (placement_ns, local_ns)
}

/// Runs one repetition of `w` on the trace `spec` generates.
///
/// An enabled `rec`
/// makes this a traced repetition: benchmark-side spans around every call,
/// the cluster's own 1-in-64 pipeline spans, and the registry read at the
/// end. The recorder comes back in the outcome.
pub fn run_rep(w: &Workload, spec: &WorkloadSpec, mut rec: Recorder) -> RepOutcome {
    let traced = rec.enabled();
    let rep_span = rec.enter("rep", NO_REQUEST);

    // ----- set-up: inputs, cluster, groups and rosters ----------------------
    let setup_span = rec.enter("setup", NO_REQUEST);
    let setup_start = Instant::now();
    let trace = generate(spec);
    let mut config = ClusterConfig::with_shards(SHARDS).with_replicas(w.replicas);
    if traced {
        config.trace_sampling = CLUSTER_TRACE_SAMPLING;
    }
    let mut cluster = Cluster::new(config);
    let gw = cluster.gateway();
    let mut setup_failures = Vec::new();
    let mut gids: Vec<Option<GlobalGroupId>> = Vec::with_capacity(trace.groups.len());
    let mut members: Vec<Vec<GlobalMemberId>> = Vec::with_capacity(trace.groups.len());
    for (i, g) in trace.groups.iter().enumerate() {
        if g.parent.is_some() {
            gids.push(None); // spawned in-stream through the invitation flow
            members.push(Vec::new());
            continue;
        }
        let gid = match gw.create_group(format!("g{i}"), g.mode) {
            Ok(gid) => gid,
            Err(e) => {
                setup_failures.push(format!("create group {i}: {e:?}"));
                gids.push(None);
                members.push(Vec::new());
                continue;
            }
        };
        let mut roster = Vec::with_capacity(g.members as usize);
        for j in 0..g.members {
            let role = if j == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            let mid = gw.register_member(Member::new(format!("g{i}.m{j}"), role));
            let span = rec.enter("gateway.join_group", NO_REQUEST);
            let joined = gw.join_group(gid, mid);
            rec.exit(span);
            if let Err(e) = joined {
                setup_failures.push(format!("join group {i}: {e:?}"));
            }
            roster.push(mid);
        }
        gids.push(Some(gid));
        members.push(roster);
    }
    let drills = drill_groups(&gw).unwrap_or_else(|e| {
        setup_failures.push(e);
        Vec::new()
    });
    let setup_ns = setup_start.elapsed().as_nanos() as u64;
    rec.exit(setup_span);

    let streamed_ops = trace.streamed_ops();
    let split = trace.ops.len() * w.saturated_pct / 100;

    let mut d = Driver {
        w,
        trace: &trace,
        gw,
        rec,
        delivered: vec![0; trace.groups.len()],
        gids,
        members,
        seq0: None,
        slots: Vec::with_capacity(trace.ops.len() + 1024),
        in_flight: [0; 2],
        retries: Vec::new(),
        resubmits: 0,
        phase: Phase::Saturate,
        clock: Instant::now(),
        paced_start: 0,
        open_loop: OpenLoop::new(Schedule::default()),
        paced_latency: Pool::default(),
        late: Pool::default(),
        submit_ns: Pool::default(),
        submit_batch_ns: Pool::default(),
        decided: 0,
        attempted: 0,
        failed: setup_failures.len() as u64,
        failures: setup_failures,
        recent: vec![(0, 0); RECENT_RING],
        recent_next: 0,
        since_read: 0,
        read_flip: false,
        read_ns: Pool::default(),
        reads: 0,
        bufs: Default::default(),
        buffered_groups: Default::default(),
        promote_ns: Vec::new(),
        since_poll: 0,
        spans_seen: HashSet::new(),
        insitu: InSitu::default(),
    };
    d.failures.truncate(FAILURE_CAP);

    // ----- saturation phase -------------------------------------------------
    let span = d.rec.enter("phase.saturate", NO_REQUEST);
    let cpu0 = host::thread_cpu_ns();
    let sat_start = Instant::now();
    d.saturate(&mut cluster, 0..split);
    let sat_wall_ns = sat_start.elapsed().as_nanos() as u64;
    let cpu1 = host::thread_cpu_ns();
    let sat_ops = d.decided;
    d.rec.exit(span);

    // ----- paced phase ------------------------------------------------------
    let span = d.rec.enter("phase.paced", NO_REQUEST);
    d.pace(&cluster, split..trace.ops.len());
    let paced_attempted = d.decided - sat_ops;
    if traced {
        let spans = cluster.recent_spans();
        d.absorb_cluster_spans(spans);
    }
    d.rec.exit(span);

    if d.decided as usize != streamed_ops {
        d.fail(format!(
            "{} ops decided, the trace streams {streamed_ops}",
            d.decided
        ));
    }

    let directory_ns = traced.then(|| directory_probe(&cluster, &d.gids, &d.members));

    // ----- recovery drills and state accounting -----------------------------
    // Where in its delta chain a shard stands when the stream ends differs
    // from seed to seed, and both recovery time and checkpoint bytes follow
    // that sawtooth. So: one round as the stream left things (per-layer
    // only), then filler requests until every shard has taken a fresh full
    // checkpoint (the first one after a recovery always is), then the state
    // accounting and the measured rounds from that same point of the cycle.
    let span = d.rec.enter("phase.drills", NO_REQUEST);
    let mut recover_ns = Vec::with_capacity(DRILL_ROUNDS);
    let mut recover_chain_ns = 0;
    let mut state = StateBytes::default();
    if !drills.is_empty() {
        recover_chain_ns = d.drill_round(&mut cluster, &drills);
        d.force_full_checkpoints(&cluster, &drills);
        for s in 0..SHARDS {
            let view = cluster.shard_view(ShardId(s));
            state.log += view.log_bytes;
            state.session += view.session_bytes;
            state.dedup += view.dedup_bytes;
            state.snapshot += view.snapshot_bytes;
        }
        for _ in 0..DRILL_ROUNDS {
            let round_ns = d.drill_round(&mut cluster, &drills);
            recover_ns.push(round_ns);
        }
    }
    d.rec.exit(span);

    // ----- verification -----------------------------------------------------
    let span = d.rec.enter("verify", NO_REQUEST);
    if let Err(e) = trace.check_well_formed() {
        d.fail(format!("generated trace is malformed: {e}"));
    }
    let mut placement = vec![0usize; trace.groups.len()];
    for (g, want) in trace.expected_content().iter().enumerate() {
        let Some(gid) = d.gids[g] else {
            d.fail(format!("group {g} was never created"));
            continue;
        };
        d.attempted += 1;
        match d.gw.placement(gid) {
            Ok(p) => placement[g] = p.shard.index(),
            Err(e) => d.fail(format!("group {g}: placement failed: {e:?}")),
        }
        match d.gw.session_view(gid) {
            Ok(view) => {
                let got = [
                    view.chat.len() as u64,
                    view.whiteboard.len() as u64,
                    view.annotations.len() as u64,
                    view.media.len() as u64,
                ];
                if got != *want {
                    d.fail(format!(
                        "group {g}: content counts {got:?} != expected {want:?} \
                         (lost or duplicated deliveries)"
                    ));
                }
            }
            Err(e) => d.fail(format!("group {g}: session_view failed: {e:?}")),
        }
    }
    if let Err(e) = cluster.check_invariants() {
        d.fail(format!("cluster invariants: {e}"));
    }
    d.rec.exit(span);

    let insitu = traced.then(|| read_insitu(&cluster, std::mem::take(&mut d.insitu)));
    d.rec.exit(rep_span);

    RepOutcome {
        groups: trace.groups.len(),
        streamed_ops,
        setup_ns,
        sat_ops,
        sat_wall_ns,
        sat_driver_cpu_ns: cpu1.0.saturating_sub(cpu0.0),
        sat_worker_cpu_ns: cpu1.1.saturating_sub(cpu0.1),
        submit_ns: d.submit_ns,
        submit_batch_ns: d.submit_batch_ns,
        paced_attempted,
        paced_latency: d.paced_latency,
        late: d.late,
        read_ns: d.read_ns,
        recover_ns,
        promote_ns: d.promote_ns,
        recover_chain_ns,
        state,
        attempted: d.attempted,
        failed: d.failed,
        failures: d.failures,
        resubmits: d.resubmits,
        reads: d.reads,
        placement,
        insitu,
        directory_ns,
        recorder: d.rec,
    }
}
