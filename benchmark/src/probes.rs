//! Per-layer probes: the same trace, replayed single-threaded through each
//! layer's public type with the calls timed. A probe has no queue, no
//! wake-ups and no second thread, so what the live cluster costs *beyond*
//! the probes' sum is the residual the ledger reports.
//!
//! `cluster::queue` and `cluster::replication` are not public; they are
//! measured in situ only (see `driver::InSitu`).

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dmps_cluster::{
    ClusterConfig, DedupWindow, EventLog, GlobalGroupId, GlobalMemberId, HashRing, SessionEvent,
    SessionOp, SessionStore, Shard, ShardEvent, ShardId,
};
use dmps_floor::{
    ArbiterEvent, ArbitrationOutcome, EventOutcome, FcmMode, FloorArbiter, FloorRequest, GroupId,
    Member, MemberId, RequestKind, Role,
};
use dmps_simnet::SimTime;
use dmps_workload::{payload_text, Expect, OpKind, Trace};

use crate::spans::{Recorder, NO_REQUEST};
use crate::specs::SHARDS;

/// Commands per probe group-commit, the cluster's default `ingest_batch`.
const BATCH: usize = 64;
/// Events the wire / log probes work on: the first this many the probe
/// shards commit once the rosters are set up.
const EVENT_SAMPLE: usize = 32_768;

#[derive(Debug, Default)]
pub struct Probes {
    pub wire_encode_ns_per_event: f64,
    pub wire_decode_ns_per_event: f64,
    pub wire_bytes_per_event: f64,
    pub wire_crc_ns_per_kib: f64,

    pub floor_arbitrate_ns_per_op: f64,
    pub floor_arbitrate_total_ns: f64,
    pub floor_may_deliver_ns_per_op: f64,

    pub session_apply_ns_per_op: f64,
    pub session_view_ns_per_read: f64,
    pub session_bytes_per_group: f64,

    /// begin_batch + arbitrate* + commit_batch (checkpoints included), per op.
    pub shard_arbitrate_ns_per_op: f64,
    /// Plain (non-checkpointing) commits only.
    pub shard_commit_ns_per_batch: f64,
    pub delta_ns: Vec<u64>,
    pub base_ns: Vec<u64>,
    /// Where in the stream (percent of its ops) each probe shard took a
    /// full checkpoint.
    pub base_at_pct: Vec<Vec<f64>>,
    pub checkpoint_total_ns: f64,
    pub delta_bytes_per_group: f64,
    pub snapshot_bytes_per_group: f64,
    pub shard_recover_ms: f64,

    pub log_append_ns_per_event: f64,
    pub log_seal_ns_per_segment: f64,
    pub dedup_record_ns_per_op: f64,
    pub dedup_hit_ns_per_op: f64,
    pub ring_shard_for_ns_per_op: f64,
    /// Ops a probe shard answered with an error (must be 0).
    pub errors: u64,
}

fn per(total_ns: u128, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

enum Command {
    Floor(u64, GlobalGroupId, FloorRequest),
    Session(u64, SessionEvent),
}

/// One probe shard plus the ids the trace's groups and members have on it.
struct ProbeShard {
    shard: Shard,
    batch: Vec<Command>,
    /// `(top-level trace group, roster index)` → local member id.
    members: HashMap<(u32, u32), MemberId>,
}

#[derive(Default)]
struct ShardTimes {
    ops: usize,
    total_ns: u128,
    plain_commits: usize,
    plain_commit_ns: u128,
    delta_ns: Vec<u64>,
    base_ns: Vec<u64>,
    delta_bytes: u64,
    errors: u64,
    events: Vec<ShardEvent>,
    /// Trace position (op index) of the batch being committed.
    at_op: usize,
    base_at_op: Vec<usize>,
}

fn expect_group(outcome: dmps_cluster::Result<EventOutcome>) -> GroupId {
    match outcome {
        Ok(EventOutcome::GroupCreated(id)) => id,
        other => panic!("probe shard refused CreateGroup: {other:?}"),
    }
}

impl ProbeShard {
    fn add_member(
        &mut self,
        group: GroupId,
        key: (u32, u32),
        name: String,
        role: Role,
    ) -> MemberId {
        if let Some(&local) = self.members.get(&key) {
            self.shard
                .apply(ArbiterEvent::JoinGroup {
                    group,
                    member: local,
                })
                .expect("probe shard refused JoinGroup");
            return local;
        }
        let added = self.shard.apply(ArbiterEvent::AddMember {
            group,
            member: Member::new(name, role),
        });
        let Ok(EventOutcome::MemberAdded(local)) = added else {
            panic!("probe shard refused AddMember: {added:?}");
        };
        self.members.insert(key, local);
        local
    }

    /// Group-commits the pending batch, timing the arbitration and the
    /// commit apart and noticing which checkpoint (if any) the commit took.
    fn run_batch(&mut self, times: &mut ShardTimes) {
        if self.batch.is_empty() {
            return;
        }
        let first_new = self.shard.log().next_seq();
        let deltas_before = self.shard.snapshot_deltas().len();
        let base_before = self.shard.latest_snapshot().map(|s| s.applied_seq());
        let n = self.batch.len();
        let t0 = Instant::now();
        self.shard.begin_batch();
        for command in self.batch.drain(..) {
            match command {
                Command::Floor(id, group, request) => {
                    let (decision, _) = self.shard.arbitrate_dedup(id, group, request);
                    times.errors += black_box(decision).is_err() as u64;
                }
                Command::Session(id, event) => {
                    let (decision, _) = self.shard.arbitrate_session_dedup(id, event);
                    times.errors += black_box(decision).is_err() as u64;
                }
            }
        }
        let t1 = Instant::now();
        self.shard.commit_batch();
        let commit_ns = t1.elapsed().as_nanos();
        times.ops += n;
        times.total_ns += t0.elapsed().as_nanos();
        let base_after = self.shard.latest_snapshot().map(|s| s.applied_seq());
        if base_after != base_before {
            times.base_ns.push(commit_ns as u64);
            times.base_at_op.push(times.at_op);
        } else if self.shard.snapshot_deltas().len() > deltas_before {
            times.delta_ns.push(commit_ns as u64);
            times.delta_bytes += self
                .shard
                .snapshot_deltas()
                .last()
                .map_or(0, |d| d.size_bytes() as u64);
        } else {
            times.plain_commits += 1;
            times.plain_commit_ns += commit_ns;
        }
        // Keep the first committed events for the wire and log probes (a
        // checkpoint may have compacted some of them away already).
        let log = self.shard.log();
        if times.events.len() < EVENT_SAMPLE / SHARDS {
            times
                .events
                .extend(log.events_from(first_new.max(log.base())).cloned());
        }
    }
}

/// Where each trace group and roster seat lives on the probe shards.
struct Layout {
    group: Vec<GroupId>,
    /// Local member ids of every group's roster (sub-groups: inviter,
    /// invitee).
    roster: Vec<Vec<MemberId>>,
}

fn global_member(trace: &Trace, group: u32, local: u32) -> (u32, u32) {
    match trace.groups[group as usize].parent {
        Some((p, from, to)) => (p, if local == 0 { from } else { to }),
        None => (group, local),
    }
}

fn member_id(key: (u32, u32)) -> GlobalMemberId {
    GlobalMemberId(((key.0 as u64) << 20) | key.1 as u64)
}

fn session_event(trace: &Trace, layout: &Layout, idx: usize) -> SessionEvent {
    let op = &trace.ops[idx];
    let gid = GlobalGroupId(op.group as u64);
    let from = member_id(global_member(trace, op.group, op.member));
    let built = match op.kind {
        OpKind::Chat { len } => SessionOp::chat(gid, from, payload_text(len)),
        OpKind::Whiteboard { len } => SessionOp::whiteboard(gid, from, payload_text(len)),
        OpKind::Annotation { len } => SessionOp::annotation(gid, from, payload_text(len)),
        OpKind::ScheduleMedia { len } => {
            SessionOp::schedule_media(gid, from, payload_text(len), SimTime::from_nanos(op.at))
        }
        _ => unreachable!("session event of a non-session op"),
    };
    SessionEvent {
        group: gid,
        local_group: layout.group[op.group as usize],
        from,
        local_from: layout.roster[op.group as usize][op.member as usize],
        kind: built.kind,
    }
}

fn floor_request(trace: &Trace, layout: &Layout, idx: usize) -> FloorRequest {
    let op = &trace.ops[idx];
    let roster = &layout.roster[op.group as usize];
    FloorRequest {
        group: layout.group[op.group as usize],
        member: roster[op.member as usize],
        kind: match op.kind {
            OpKind::Speak => RequestKind::Speak,
            OpKind::Release => RequestKind::ReleaseFloor,
            OpKind::Pass { to } => RequestKind::PassFloor {
                to: roster[to as usize],
            },
            _ => unreachable!("floor request of a non-floor op"),
        },
    }
}

/// Replays the trace through `SHARDS` probe [`Shard`]s, split like the live
/// cluster split it, in group commits of [`BATCH`] under the default
/// checkpoint policy. Returns the shards (for the recovery probe) and a
/// sample of the events they committed (for the wire and log probes).
fn shard_probe(
    trace: &Trace,
    placement: &[usize],
    out: &mut Probes,
) -> (Vec<Shard>, Vec<ShardEvent>) {
    let config = ClusterConfig::with_shards(SHARDS);
    let mut shards: Vec<ProbeShard> = (0..SHARDS)
        .map(|s| {
            let mut shard = Shard::new(ShardId(s), config.snapshot_every, config.dedup_window);
            shard.set_snapshot_policy(config.snapshot_every_bytes, config.snapshot_chain);
            ProbeShard {
                shard,
                batch: Vec::with_capacity(BATCH),
                members: HashMap::new(),
            }
        })
        .collect();
    let mut layout = Layout {
        group: vec![GroupId(0); trace.groups.len()],
        roster: vec![Vec::new(); trace.groups.len()],
    };
    for (g, group) in trace.groups.iter().enumerate() {
        if group.parent.is_some() {
            continue;
        }
        let on = &mut shards[placement[g]];
        let local = expect_group(on.shard.apply(ArbiterEvent::CreateGroup {
            name: format!("g{g}"),
            mode: group.mode,
        }));
        layout.group[g] = local;
        for m in 0..group.members {
            let role = if m == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            let id = on.add_member(local, (g as u32, m), format!("g{g}.m{m}"), role);
            layout.roster[g].push(id);
        }
    }

    let mut times: Vec<ShardTimes> = (0..SHARDS).map(|_| ShardTimes::default()).collect();
    for (idx, op) in trace.ops.iter().enumerate() {
        let s = placement[op.group as usize];
        match op.kind {
            OpKind::Spawn { sub } => {
                // A synchronous control-plane barrier on the sub-group's shard.
                let on = placement[sub as usize];
                shards[on].run_batch(&mut times[on]);
                let local = expect_group(shards[on].shard.apply(ArbiterEvent::CreateGroup {
                    name: format!("g{sub}"),
                    mode: FcmMode::GroupDiscussion,
                }));
                layout.group[sub as usize] = local;
                for m in 0..2 {
                    let key = global_member(trace, sub, m);
                    let id = shards[on].add_member(
                        local,
                        key,
                        format!("g{}.m{}", key.0, key.1),
                        Role::Participant,
                    );
                    layout.roster[sub as usize].push(id);
                }
                continue;
            }
            kind if kind.is_floor() => shards[s].batch.push(Command::Floor(
                idx as u64,
                GlobalGroupId(op.group as u64),
                floor_request(trace, &layout, idx),
            )),
            _ => shards[s].batch.push(Command::Session(
                idx as u64,
                session_event(trace, &layout, idx),
            )),
        }
        if shards[s].batch.len() >= BATCH {
            times[s].at_op = idx;
            shards[s].run_batch(&mut times[s]);
        }
    }
    for (shard, t) in shards.iter_mut().zip(&mut times) {
        shard.run_batch(t);
    }

    let groups = trace.groups.len();
    let ops: usize = times.iter().map(|t| t.ops).sum();
    let total: u128 = times.iter().map(|t| t.total_ns).sum();
    out.shard_arbitrate_ns_per_op = per(total, ops);
    out.errors = times.iter().map(|t| t.errors).sum();
    out.shard_commit_ns_per_batch = per(
        times.iter().map(|t| t.plain_commit_ns).sum(),
        times.iter().map(|t| t.plain_commits).sum(),
    );
    for t in &times {
        out.delta_ns.extend(&t.delta_ns);
        out.base_ns.extend(&t.base_ns);
        let pct = |&at: &usize| 100.0 * at as f64 / trace.ops.len().max(1) as f64;
        out.base_at_pct.push(t.base_at_op.iter().map(pct).collect());
    }
    out.checkpoint_total_ns = out.delta_ns.iter().chain(&out.base_ns).sum::<u64>() as f64;
    out.delta_bytes_per_group =
        times.iter().map(|t| t.delta_bytes).sum::<u64>() as f64 / groups.max(1) as f64;
    out.snapshot_bytes_per_group = shards
        .iter()
        .filter_map(|s| s.shard.latest_snapshot())
        .map(|s| s.size_bytes() as f64)
        .sum::<f64>()
        / groups.max(1) as f64;
    (
        shards.into_iter().map(|s| s.shard).collect(),
        times.into_iter().flat_map(|t| t.events).collect(),
    )
}

/// The arbiter alone: every floor op through `FloorArbiter::arbitrate`,
/// then every content op's gate through `may_deliver`.
fn floor_probe(trace: &Trace, out: &mut Probes) {
    let mut arbiter = FloorArbiter::with_defaults();
    let mut layout = Layout {
        group: Vec::with_capacity(trace.groups.len()),
        roster: Vec::with_capacity(trace.groups.len()),
    };
    for (g, group) in trace.groups.iter().enumerate() {
        let id = arbiter.create_group(format!("g{g}"), group.mode);
        let roster = (0..group.members)
            .map(|m| {
                let role = if m == 0 && group.parent.is_none() {
                    Role::Chair
                } else {
                    Role::Participant
                };
                arbiter
                    .add_member(id, Member::new(format!("g{g}.m{m}"), role))
                    .expect("probe arbiter refused a member")
            })
            .collect();
        layout.group.push(id);
        layout.roster.push(roster);
    }
    let requests: Vec<FloorRequest> = (0..trace.ops.len())
        .filter(|&i| trace.ops[i].kind.is_floor())
        .map(|i| floor_request(trace, &layout, i))
        .collect();
    let gates: Vec<(GroupId, MemberId)> = trace
        .ops
        .iter()
        .filter(|op| op.kind.is_session() && !matches!(op.kind, OpKind::ScheduleMedia { .. }))
        .map(|op| {
            (
                layout.group[op.group as usize],
                layout.roster[op.group as usize][op.member as usize],
            )
        })
        .collect();

    let t0 = Instant::now();
    for request in &requests {
        let _ = black_box(arbiter.arbitrate(black_box(request)));
    }
    let arbitrate_ns = t0.elapsed().as_nanos();
    let t1 = Instant::now();
    for &(group, member) in &gates {
        black_box(arbiter.may_deliver(black_box(group), member));
    }
    let gate_ns = t1.elapsed().as_nanos();
    out.floor_arbitrate_total_ns = arbitrate_ns as f64;
    out.floor_arbitrate_ns_per_op = per(arbitrate_ns, requests.len());
    out.floor_may_deliver_ns_per_op = per(gate_ns, gates.len());
}

/// The session store alone: every delivered session op applied, then late
/// joiners' views.
fn session_probe(trace: &Trace, out: &mut Probes) {
    // Local ids do not matter to the store; any layout will do.
    let layout = Layout {
        group: vec![GroupId(0); trace.groups.len()],
        roster: trace
            .groups
            .iter()
            .map(|g| vec![MemberId(0); g.members as usize])
            .collect(),
    };
    let events: Vec<SessionEvent> = (0..trace.ops.len())
        .filter(|&i| trace.ops[i].kind.is_session() && trace.ops[i].expect == Expect::Delivered)
        .map(|i| session_event(trace, &layout, i))
        .collect();
    let mut store = SessionStore::new();
    let t0 = Instant::now();
    for event in &events {
        store.apply(black_box(event));
    }
    out.session_apply_ns_per_op = per(t0.elapsed().as_nanos(), events.len());
    let views = trace.groups.len().min(4_096);
    let t1 = Instant::now();
    for g in 0..views {
        black_box(store.view(GlobalGroupId(g as u64)));
    }
    out.session_view_ns_per_read = per(t1.elapsed().as_nanos(), views);
    out.session_bytes_per_group = store.size_bytes() as f64 / trace.groups.len().max(1) as f64;
}

fn wire_probe(events: &[ShardEvent], out: &mut Probes) {
    let t0 = Instant::now();
    let encoded: Vec<String> = events
        .iter()
        .map(|e| dmps_wire::to_string_checksummed(black_box(e)))
        .collect();
    out.wire_encode_ns_per_event = per(t0.elapsed().as_nanos(), events.len());
    let bytes: usize = encoded.iter().map(String::len).sum();
    out.wire_bytes_per_event = bytes as f64 / events.len().max(1) as f64;
    let t1 = Instant::now();
    for s in &encoded {
        let decoded = dmps_wire::from_str_checksummed::<ShardEvent>(black_box(s));
        assert!(black_box(decoded).is_ok(), "an encoded event must decode");
    }
    out.wire_decode_ns_per_event = per(t1.elapsed().as_nanos(), events.len());
    let t2 = Instant::now();
    for s in &encoded {
        black_box(dmps_wire::crc32(black_box(s.as_bytes())));
    }
    out.wire_crc_ns_per_kib = t2.elapsed().as_nanos() as f64 / (bytes.max(1) as f64 / 1024.0);
}

fn log_probe(events: &[ShardEvent], out: &mut Probes) {
    let chunks = || -> Vec<Vec<ShardEvent>> { events.chunks(BATCH).map(<[_]>::to_vec).collect() };
    let mut log = EventLog::new();
    let batches = chunks();
    let t0 = Instant::now();
    for batch in batches {
        black_box(log.append_batch(batch));
    }
    out.log_append_ns_per_event = per(t0.elapsed().as_nanos(), events.len());

    let mut log = EventLog::new();
    let (mut seal_ns, mut segments) = (0u128, 0usize);
    for batch in chunks() {
        log.append_batch(batch);
        let t = Instant::now();
        black_box(log.seal());
        seal_ns += t.elapsed().as_nanos();
        segments += 1;
    }
    out.log_seal_ns_per_segment = per(seal_ns, segments);
}

fn dedup_probe(out: &mut Probes) {
    const N: u64 = 200_000;
    let capacity = ClusterConfig::with_shards(SHARDS).dedup_window;
    let outcome = Arc::new(ArbitrationOutcome::Granted {
        speakers: vec![MemberId(0)],
        suspensions: Vec::new(),
    });
    let mut window = DedupWindow::new(capacity);
    let t0 = Instant::now();
    for id in 0..N {
        window.record(id, GlobalGroupId(id % 512), outcome.clone());
    }
    out.dedup_record_ns_per_op = per(t0.elapsed().as_nanos(), N as usize);
    let oldest = N - window.len() as u64;
    let t1 = Instant::now();
    let mut hits = 0u64;
    for k in 0..N {
        hits += black_box(window.get(oldest + k % window.len().max(1) as u64)).is_some() as u64;
    }
    out.dedup_hit_ns_per_op = per(t1.elapsed().as_nanos(), N as usize);
    assert_eq!(hits, N, "every probed id is inside the window");
}

fn ring_probe(out: &mut Probes) {
    const N: u64 = 1_000_000;
    let ring = HashRing::new(SHARDS, ClusterConfig::with_shards(SHARDS).vnodes);
    let t0 = Instant::now();
    for key in 0..N {
        black_box(ring.shard_for(black_box(key)));
    }
    out.ring_shard_for_ns_per_op = per(t0.elapsed().as_nanos(), N as usize);
}

fn timed<T>(rec: &mut Recorder, name: &'static str, probe: impl FnOnce() -> T) -> T {
    let span = rec.enter(name, NO_REQUEST);
    let result = probe();
    rec.exit(span);
    result
}

/// Runs every probe; each is one span of the traced run.
pub fn run(trace: &Trace, placement: &[usize], rec: &mut Recorder) -> Probes {
    let mut out = Probes::default();
    let (mut shards, events) = timed(rec, "probe.shard", || {
        shard_probe(trace, placement, &mut out)
    });
    timed(rec, "probe.floor", || floor_probe(trace, &mut out));
    timed(rec, "probe.session", || session_probe(trace, &mut out));
    timed(rec, "probe.wire", || wire_probe(&events, &mut out));
    timed(rec, "probe.log", || log_probe(&events, &mut out));
    timed(rec, "probe.dedup", || dedup_probe(&mut out));
    timed(rec, "probe.ring", || ring_probe(&mut out));
    out.shard_recover_ms = timed(rec, "probe.recover", || {
        let t0 = Instant::now();
        for shard in &mut shards {
            shard.crash();
            shard
                .recover()
                .expect("a probe shard recovers from its own checkpoints");
        }
        t0.elapsed().as_nanos() as f64 / 1e6
    });
    out
}
