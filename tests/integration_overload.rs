//! Backpressure integration: bounded shard queues under storm.
//!
//! Three contracts from the ingest redesign are exercised end to end:
//!
//! * **Shed is loud and exactly-once** — with [`OverloadPolicy::Shed`], a
//!   full queue answers the submission — floor request or session operation
//!   alike — with [`ClusterError::Overloaded`] on the submitting gateway's
//!   stream of that kind (never a silent drop), a resubmission under the
//!   same request id eventually applies exactly once, and the queue's
//!   high-water mark never exceeds the configured capacity: the memory bound
//!   holds no matter how hard the storm pushes.
//! * **Block never drops** — with [`OverloadPolicy::Block`] a 4-gateway
//!   storm through a tiny queue delivers every single decision without a
//!   shed, the storm merely throttling to the workers' drain rate.
//! * **Control plane outruns the data plane** — a live two-phase handoff of
//!   a frozen group completes while its source shard's ingest queue is
//!   saturated, because control commands are exempt from the ingest bound.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use dmps_cluster::{
    Cluster, ClusterConfig, ClusterError, GlobalGroupId, GlobalMemberId, GlobalRequest, Op,
    OverloadPolicy, SessionOp, ShardId,
};
use dmps_floor::{FcmMode, Member, Role};

const GATEWAYS: usize = 4;

fn build(
    shards: usize,
    groups: usize,
    queue_capacity: usize,
    overload: OverloadPolicy,
) -> (Cluster, Vec<GlobalGroupId>, Vec<Vec<GlobalMemberId>>) {
    let cluster = Cluster::new(ClusterConfig {
        queue_capacity,
        overload,
        snapshot_every: 64,
        dedup_window: 1 << 16,
        ..ClusterConfig::with_shards(shards)
    });
    let mut gids = Vec::new();
    let mut rosters = Vec::new();
    for g in 0..groups {
        let gid = cluster
            .create_group(format!("g{g}"), FcmMode::EqualControl)
            .unwrap();
        let roster: Vec<GlobalMemberId> = (0..GATEWAYS)
            .map(|m| {
                let role = if m == 0 {
                    Role::Chair
                } else {
                    Role::Participant
                };
                let member = cluster.register_member(Member::new(format!("u{g}-{m}"), role));
                cluster.join_group(gid, member).unwrap();
                member
            })
            .collect();
        gids.push(gid);
        rosters.push(roster);
    }
    (cluster, gids, rosters)
}

#[test]
fn shed_storm_is_bounded_loud_and_exactly_once() {
    // Queue capacity 8 with batched submissions of 64, submitted while
    // every shard is held inside an inspection closure: the first wave
    // cannot be stepped by its submitters or drained by the workers, every
    // burst overflows, so sheds are guaranteed, and every shed must surface
    // as an `Overloaded` decision that a same-id resubmission heals exactly
    // once.
    const CAPACITY: usize = 8;
    const ROUNDS: usize = 12;
    let (cluster, gids, rosters) = build(4, 16, CAPACITY, OverloadPolicy::Shed);
    let total_sheds = AtomicU64::new(0);
    let session_sheds = AtomicU64::new(0);
    let chats_delivered = AtomicU64::new(0);
    let shards = cluster.shard_count();
    let held = Arc::new(Barrier::new(shards + 1));
    let release = Arc::new(Barrier::new(shards + 1));
    let submitted = Barrier::new(GATEWAYS + 1);
    std::thread::scope(|scope| {
        for s in 0..shards {
            let (held, release, cluster) = (held.clone(), release.clone(), &cluster);
            scope.spawn(move || {
                cluster.inspect_shard(ShardId(s), move |_| {
                    held.wait();
                    release.wait();
                })
            });
        }
        held.wait();
        for thread in 0..GATEWAYS {
            let gateway = cluster.gateway();
            let gids = &gids;
            let rosters = &rosters;
            let (total_sheds, session_sheds) = (&total_sheds, &session_sheds);
            let chats_delivered = &chats_delivered;
            let submitted = &submitted;
            scope.spawn(move || {
                // The storm wave: speak + chat + release per group per
                // round, all submitted in oversized mixed-kind batches. Every
                // chat line is unique, so a double delivery would show.
                let mut ops = Vec::new();
                for round in 0..ROUNDS {
                    for (gi, &gid) in gids.iter().enumerate() {
                        let me = rosters[gi][thread];
                        let line = format!("t{thread} r{round}");
                        ops.push(Op::Floor(GlobalRequest::speak(gid, me)));
                        ops.push(Op::Session(SessionOp::chat(gid, me, line)));
                        ops.push(Op::Floor(GlobalRequest::release_floor(gid, me)));
                    }
                }
                let mut floor: BTreeMap<u64, GlobalRequest> = BTreeMap::new();
                let mut session: BTreeMap<u64, SessionOp> = BTreeMap::new();
                for chunk in ops.chunks(64) {
                    let seqs = gateway.submit_ops(chunk.to_vec());
                    for (seq, op) in seqs.into_iter().zip(chunk) {
                        let fresh = match op {
                            Op::Floor(request) => floor.insert(seq, *request).is_none(),
                            Op::Session(op) => session.insert(seq, op.clone()).is_none(),
                        };
                        assert!(fresh, "request ids are unique");
                    }
                }
                submitted.wait();
                // Drain: every id resolves to exactly one applied decision;
                // sheds are answered (loudly) and retried under the same id.
                let mut applied: BTreeMap<u64, bool> = BTreeMap::new();
                let mut sheds = 0u64;
                while applied.len() < floor.len() {
                    let decision = gateway.recv_decision().unwrap();
                    match decision.outcome {
                        Err(ClusterError::Overloaded(_)) => {
                            sheds += 1;
                            std::thread::yield_now();
                            gateway
                                .resubmit(decision.seq, floor[&decision.seq])
                                .unwrap();
                        }
                        _ => {
                            assert!(
                                applied.insert(decision.seq, decision.replayed).is_none(),
                                "one applied decision per request id"
                            );
                        }
                    }
                }
                assert!(gateway.try_recv_decision().is_none(), "no stray decisions");
                // The session half of the same storm, on the session stream:
                // a shed chat is answered `Overloaded` there, and its same-id
                // resubmission is decided exactly once.
                let mut delivered: Vec<u64> = Vec::new();
                let mut decided = 0usize;
                while decided < session.len() {
                    let decision = gateway.recv_session_decision().unwrap();
                    match decision.outcome {
                        Err(ClusterError::Overloaded(_)) => {
                            sheds += 1;
                            session_sheds.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                            let op = session[&decision.seq].clone();
                            gateway.resubmit_session(decision.seq, op).unwrap();
                        }
                        outcome => {
                            decided += 1;
                            if outcome.unwrap().is_delivered() {
                                delivered.push(decision.seq);
                            }
                        }
                    }
                }
                assert!(gateway.try_recv_session_decision().is_none());
                chats_delivered.fetch_add(delivered.len() as u64, Ordering::Relaxed);
                total_sheds.fetch_add(sheds, Ordering::Relaxed);
                // Exactly-once across shed/retry races: a fresh resubmission
                // of an applied id replays from the journal. (The other
                // gateways may still be storming, so the resubmission itself
                // can be shed; it is retried like any other.)
                let (&seq, request) = floor.iter().next().unwrap();
                let replay = loop {
                    gateway.resubmit(seq, *request).unwrap();
                    let decision = gateway.recv_decision().unwrap();
                    if !matches!(decision.outcome, Err(ClusterError::Overloaded(_))) {
                        break decision;
                    }
                };
                assert_eq!(replay.seq, seq);
                assert!(replay.replayed, "applied id answered from the journal");
                if let Some(&seq) = delivered.first() {
                    let replay = loop {
                        gateway
                            .resubmit_session(seq, session[&seq].clone())
                            .unwrap();
                        let decision = gateway.recv_session_decision().unwrap();
                        if !matches!(decision.outcome, Err(ClusterError::Overloaded(_))) {
                            break decision;
                        }
                    };
                    assert_eq!(replay.seq, seq);
                    assert!(replay.replayed, "delivered chat answered from the journal");
                }
            });
        }
        // The whole wave is in: let the shards go.
        submitted.wait();
        release.wait();
    });
    assert!(
        session_sheds.load(Ordering::Relaxed) > 0,
        "a third of every overflowing batch is session ops: some must shed"
    );
    // Exactly-once delivery: every chat line a gateway saw `Delivered` is in
    // its group's log once, and nothing else is.
    let mut logged = 0u64;
    for &gid in &gids {
        let chat = cluster.session_view(gid).unwrap().chat;
        let mut lines: Vec<_> = chat.iter().collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), chat.len(), "a chat line was delivered twice");
        logged += chat.len() as u64;
    }
    assert_eq!(logged, chats_delivered.load(Ordering::Relaxed));
    assert!(
        total_sheds.load(Ordering::Relaxed) > 0,
        "64-op batches through a capacity-8 queue must shed"
    );
    // The memory bound: no queue ever held more than its capacity.
    for s in 0..cluster.shard_count() {
        let stats = cluster.queue_stats(ShardId(s));
        assert_eq!(stats.capacity, CAPACITY);
        assert!(
            stats.peak_queued <= CAPACITY,
            "shard {s} peaked at {} > capacity {CAPACITY}",
            stats.peak_queued
        );
        assert_eq!(stats.queued, 0, "storm fully drained");
    }
    cluster.check_invariants().unwrap();
    for s in 0..cluster.shard_count() {
        cluster.arbiter(ShardId(s)).check_invariants().unwrap();
    }
}

#[test]
fn block_storm_never_drops_through_a_tiny_queue() {
    const CAPACITY: usize = 8;
    const ROUNDS: usize = 20;
    let (cluster, gids, rosters) = build(4, 12, CAPACITY, OverloadPolicy::Block);
    std::thread::scope(|scope| {
        for thread in 0..GATEWAYS {
            let gateway = cluster.gateway();
            let gids = &gids;
            let rosters = &rosters;
            scope.spawn(move || {
                let mut submitted = 0usize;
                for round in 0..ROUNDS {
                    for (gi, &gid) in gids.iter().enumerate() {
                        let me = rosters[gi][thread];
                        // Mix the scalar and vectored paths; both must block
                        // (not shed, not drop) on the full queue.
                        if round % 2 == 0 {
                            gateway.submit(GlobalRequest::speak(gid, me)).unwrap();
                            gateway
                                .submit(GlobalRequest::release_floor(gid, me))
                                .unwrap();
                            submitted += 2;
                        } else {
                            submitted += gateway
                                .submit_batch(&[
                                    GlobalRequest::speak(gid, me),
                                    GlobalRequest::release_floor(gid, me),
                                ])
                                .len();
                        }
                    }
                }
                let decisions = gateway.collect_decisions(submitted).unwrap();
                assert_eq!(decisions.len(), submitted, "nothing dropped");
                for decision in &decisions {
                    assert!(
                        !matches!(decision.outcome, Err(ClusterError::Overloaded(_))),
                        "Block never sheds"
                    );
                    assert!(decision.outcome.is_ok(), "storm requests all routable");
                }
            });
        }
    });
    for s in 0..cluster.shard_count() {
        let stats = cluster.queue_stats(ShardId(s));
        assert!(
            stats.peak_queued <= CAPACITY,
            "blocked producers must not overshoot capacity"
        );
        assert_eq!(stats.queued, 0);
    }
    cluster.check_invariants().unwrap();
    for s in 0..cluster.shard_count() {
        cluster.arbiter(ShardId(s)).check_invariants().unwrap();
    }
}

#[test]
fn handoff_completes_while_the_source_queue_is_saturated() {
    // A live migration must not wait in line behind a data-plane storm:
    // control commands (freeze, export, commit bookkeeping) are exempt from
    // the ingest bound.
    const CAPACITY: usize = 4;
    let (mut cluster, gids, rosters) = build(2, 12, CAPACITY, OverloadPolicy::Shed);
    // The group to migrate: floor-active (held token + queued requester) so
    // only the two-phase handoff can move it.
    let group = gids[0];
    let idx = 0usize;
    assert!(cluster
        .request(GlobalRequest::speak(group, rosters[idx][0]))
        .unwrap()
        .is_granted());
    cluster
        .request(GlobalRequest::speak(group, rosters[idx][1]))
        .unwrap();
    let source = cluster.placement(group).unwrap().shard;
    // Storm fodder: every other group living on the same source shard.
    let fodder: Vec<usize> = (1..gids.len())
        .filter(|&gi| cluster.placement(gids[gi]).unwrap().shard == source)
        .collect();
    assert!(!fodder.is_empty(), "some group shares the source shard");

    let target = cluster.add_shard();
    let stop = AtomicBool::new(false);
    let observed_sheds = AtomicU64::new(0);
    let handoff_result = std::thread::scope(|scope| {
        // Storm threads keep the source shard's tiny queue saturated.
        for thread in 0..2 {
            let gateway = cluster.gateway();
            let stop = &stop;
            let observed_sheds = &observed_sheds;
            let gids = &gids;
            let rosters = &rosters;
            let fodder = &fodder;
            scope.spawn(move || {
                let mut outstanding = 0usize;
                let mut sheds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for &gi in fodder {
                        let me = rosters[gi][thread];
                        gateway.submit(GlobalRequest::speak(gids[gi], me)).unwrap();
                        gateway
                            .submit(GlobalRequest::release_floor(gids[gi], me))
                            .unwrap();
                        outstanding += 2;
                    }
                    while let Some(decision) = gateway.try_recv_decision() {
                        if matches!(decision.outcome, Err(ClusterError::Overloaded(_))) {
                            sheds += 1;
                        }
                        outstanding -= 1;
                    }
                }
                // Every submission is answered — applied or shed, never lost.
                for _ in 0..outstanding {
                    let decision = gateway.recv_decision().unwrap();
                    if matches!(decision.outcome, Err(ClusterError::Overloaded(_))) {
                        sheds += 1;
                    }
                }
                observed_sheds.fetch_add(sheds, Ordering::Relaxed);
            });
        }
        // Meanwhile: park a submission for the migrating group, then run the
        // two-phase handoff through the saturated shard.
        let parked_gateway = cluster.gateway();
        // Give the storm a moment to saturate the queue.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let ticket = cluster.handoff_prepare(group, Some(target)).unwrap();
        let parked_seq = parked_gateway
            .submit(GlobalRequest::speak(group, rosters[idx][2]))
            .unwrap();
        assert!(
            parked_gateway.try_recv_decision().is_none(),
            "frozen group: the submission parks instead of deciding"
        );
        let commit = cluster.handoff_commit(ticket);
        stop.store(true, Ordering::Relaxed);
        (commit, parked_seq, parked_gateway)
    });
    let (commit, parked_seq, parked_gateway) = handoff_result;
    commit.unwrap();
    // The group moved, token intact, while the source queue was full.
    let placement = cluster.placement(group).unwrap();
    assert_eq!(placement.shard, target);
    let holder_local = cluster.local_member(rosters[idx][0], target).unwrap();
    assert_eq!(
        cluster
            .arbiter(target)
            .token(placement.local)
            .unwrap()
            .holder(),
        Some(holder_local),
        "held token survived the under-pressure migration"
    );
    // The parked submission was re-driven to the new owner and decided.
    let decision = parked_gateway.recv_decision().unwrap();
    assert_eq!(decision.seq, parked_seq);
    assert!(decision.outcome.is_ok(), "parked op decided after commit");
    assert!(
        observed_sheds.load(Ordering::Relaxed) > 0,
        "the storm must actually have saturated the source queue"
    );
    let stats = cluster.queue_stats(source);
    assert!(stats.peak_queued <= CAPACITY);
    cluster.check_invariants().unwrap();
}
