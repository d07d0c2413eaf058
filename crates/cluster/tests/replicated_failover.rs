//! End-to-end replication through the public `Cluster` API: pipelined
//! quorum group-commit, follower-served reads under the read-your-writes
//! bound, and failover by follower promotion — including under seeded loss
//! on the replica links.

use std::time::Duration;

use dmps_cluster::{
    Cluster, ClusterConfig, GlobalGroupId, GlobalMemberId, GlobalRequest, SessionOp,
};
use dmps_floor::{ArbitrationOutcome, FcmMode, Member, Role};
use dmps_simnet::Link;

/// A replicated cluster with one Equal Control lecture group and `members`
/// participants (member 0 is the chair).
fn replicated_cluster(
    config: ClusterConfig,
    members: usize,
) -> (Cluster, GlobalGroupId, Vec<GlobalMemberId>) {
    let cluster = Cluster::new(config);
    let group = cluster
        .create_group("lecture", FcmMode::EqualControl)
        .unwrap();
    let roster: Vec<_> = (0..members)
        .map(|i| {
            let role = if i == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            let m = cluster.register_member(Member::new(format!("m{i}"), role));
            cluster.join_group(group, m).unwrap();
            m
        })
        .collect();
    (cluster, group, roster)
}

#[test]
fn quorum_commit_releases_every_decision_with_a_bound() {
    let config = ClusterConfig::with_shards(2).with_replicas(3);
    let (cluster, group, roster) = replicated_cluster(config, 3);
    let mut seqs = Vec::new();
    for round in 0..20 {
        for &m in &roster {
            seqs.push(cluster.submit(GlobalRequest::speak(group, m)).unwrap());
        }
        seqs.push(
            cluster
                .submit(GlobalRequest::release_floor(group, roster[round % 3]))
                .unwrap(),
        );
    }
    let decisions = cluster.collect_decisions(seqs.len()).unwrap();
    assert_eq!(decisions.len(), seqs.len());
    // Every released decision carries its durability position: the batch it
    // group-committed (and quorum-replicated) under.
    for d in &decisions {
        assert!(d.outcome.is_ok(), "arbitration outcome: {:?}", d.outcome);
        assert!(d.commit > 0, "released decisions carry a commit bound");
        assert!(d.shard.is_some());
    }
    cluster.check_invariants().unwrap();
    // The quorum pipeline actually ran: followers acked appends.
    let shard = cluster.placement(group).unwrap().shard;
    let acks = cluster
        .metrics()
        .counter(&format!("cluster.shard.{}.replica.acks", shard.0))
        .get();
    assert!(acks > 0, "followers must have acknowledged appends");
}

#[test]
fn follower_reads_observe_own_writes() {
    let config = ClusterConfig::with_shards(1).with_replicas(2);
    let (cluster, group, roster) = replicated_cluster(config, 3);
    let gateway = cluster.gateway();
    // Chat deliveries are floor-gated under Equal Control: the chair takes
    // the floor first so every line below actually delivers.
    gateway
        .request(GlobalRequest::speak(group, roster[0]))
        .unwrap();
    for i in 0..30 {
        let seq = gateway
            .submit_session(SessionOp::chat(group, roster[0], format!("line {i}")))
            .unwrap();
        let ack = gateway.recv_session_decision().unwrap();
        assert_eq!(ack.seq, seq);
        assert!(ack.outcome.as_ref().unwrap().is_delivered());
        assert!(ack.commit > 0);
        // Read-your-writes: the acked line is visible immediately, whether
        // the read lands on a follower or forwards to the leader.
        let view = gateway.session_view(group).unwrap();
        assert_eq!(view.chat.len(), i + 1, "acked chat line must be visible");
    }
    // With 2 followers and reads after a settled pipeline, at least some
    // reads must have been served by followers.
    let reads = cluster.metrics();
    let follower = reads
        .counter("cluster.shard.0.replica.follower_reads")
        .get();
    let forwarded = reads
        .counter("cluster.shard.0.replica.forwarded_reads")
        .get();
    assert_eq!(follower + forwarded, 30, "every read took one of the paths");
    assert!(follower > 0, "follower reads must serve a settled shard");
}

#[test]
fn queue_position_reads_match_arbitration_order() {
    let config = ClusterConfig::with_shards(1).with_replicas(3);
    let (cluster, group, roster) = replicated_cluster(config, 4);
    // m0 takes the floor; m1..m3 queue behind it in submission order.
    for &m in &roster {
        let outcome = cluster.request(GlobalRequest::speak(group, m)).unwrap();
        assert!(matches!(
            outcome,
            ArbitrationOutcome::Granted { .. } | ArbitrationOutcome::Queued { .. }
        ));
    }
    assert_eq!(cluster.queue_position(group, roster[0]).unwrap(), Some(0));
    assert_eq!(cluster.queue_position(group, roster[1]).unwrap(), Some(1));
    assert_eq!(cluster.queue_position(group, roster[2]).unwrap(), Some(2));
    assert_eq!(cluster.queue_position(group, roster[3]).unwrap(), Some(3));
    // Release: the queue shifts by one, and the read path sees it.
    cluster
        .request(GlobalRequest::release_floor(group, roster[0]))
        .unwrap();
    assert_eq!(cluster.queue_position(group, roster[0]).unwrap(), None);
    assert_eq!(cluster.queue_position(group, roster[1]).unwrap(), Some(0));
    assert_eq!(cluster.queue_position(group, roster[3]).unwrap(), Some(2));
    cluster.check_invariants().unwrap();
}

#[test]
fn failover_promotes_follower_with_exactly_once_decisions() {
    let config = ClusterConfig::with_shards(2).with_replicas(3);
    let (mut cluster, group, roster) = replicated_cluster(config, 3);
    let shard = cluster.placement(group).unwrap().shard;
    // Build real floor state: m0 holds, m1/m2 queue, plus session content.
    let mut journaled = Vec::new();
    for &m in &roster {
        let speak = GlobalRequest::speak(group, m);
        journaled.push((cluster.submit(speak).unwrap(), speak));
    }
    let originals = cluster.collect_decisions(journaled.len()).unwrap();
    for i in 0..5 {
        cluster
            .session(SessionOp::chat(group, roster[0], format!("line {i}")))
            .unwrap();
    }
    cluster.check_invariants().unwrap();

    cluster.crash_shard(shard);
    assert!(!cluster.is_shard_active(shard));
    cluster.recover_shard(shard).unwrap();
    assert!(cluster.is_shard_active(shard));

    // Promotion restored *exactly* the pre-crash state.
    cluster.check_invariants().unwrap();
    let placement = cluster.placement(group).unwrap();
    let token = cluster
        .arbiter(placement.shard)
        .token(placement.local)
        .unwrap()
        .clone();
    assert!(token.holder().is_some(), "token survived promotion");
    assert_eq!(token.queue_len(), 2, "queue survived promotion");
    assert_eq!(
        cluster.session_view(group).unwrap().chat.len(),
        5,
        "session content survived promotion"
    );
    // Tail catch-up was recorded (the histogram proves the promotion path
    // ran, not a full snapshot+log replay).
    let lag = cluster
        .metrics()
        .histogram(&format!("cluster.shard.{}.replica.catch_up_lag", shard.0));
    assert_eq!(lag.count(), 1, "exactly one promotion recorded");

    // Exactly-once: every pre-crash decision replays identically from the
    // promoted shard's durable journal.
    let gateway = cluster.gateway();
    for (seq, speak) in &journaled {
        gateway.resubmit(*seq, *speak).unwrap();
        let retry = gateway.recv_decision().unwrap();
        assert_eq!(retry.seq, *seq);
        assert!(retry.replayed, "journal answers the retry");
        let original = originals.iter().find(|d| d.seq == *seq).unwrap();
        assert_eq!(retry.outcome, original.outcome);
    }
    // And the cluster keeps serving: new traffic arbitrates normally.
    let outcome = cluster
        .request(GlobalRequest::release_floor(group, roster[0]))
        .unwrap();
    assert!(matches!(outcome, ArbitrationOutcome::Granted { .. }));
    assert_eq!(cluster.queue_position(group, roster[1]).unwrap(), Some(0));
}

#[test]
fn lossy_replica_links_still_commit_and_promote() {
    // 20% loss on every leader→follower link: quorum progress requires the
    // retransmission path (force_quorum rewinding send cursors).
    let config = ClusterConfig {
        replica_link: Link {
            loss_rate: 0.2,
            ..Link::replica()
        },
        ..ClusterConfig::with_shards(1).with_replicas(3)
    };
    let (mut cluster, group, roster) = replicated_cluster(config, 3);
    let mut seqs = Vec::new();
    for round in 0..30 {
        for &m in &roster {
            seqs.push(cluster.submit(GlobalRequest::speak(group, m)).unwrap());
        }
        seqs.push(
            cluster
                .submit(GlobalRequest::release_floor(group, roster[round % 3]))
                .unwrap(),
        );
    }
    let decisions = cluster.collect_decisions(seqs.len()).unwrap();
    assert_eq!(decisions.len(), seqs.len(), "loss never loses a decision");
    assert!(decisions.iter().all(|d| d.commit > 0));
    cluster.check_invariants().unwrap();

    // Failover under the same loss: promotion still restores exact state.
    cluster.crash_shard(dmps_cluster::ShardId(0));
    cluster.recover_shard(dmps_cluster::ShardId(0)).unwrap();
    cluster.check_invariants().unwrap();
    let placement = cluster.placement(group).unwrap();
    let token = cluster
        .arbiter(placement.shard)
        .token(placement.local)
        .unwrap()
        .clone();
    assert!(token.holder().is_some());

    // Reads still honour read-your-writes after promotion.
    let gateway = cluster.gateway();
    let seq = gateway
        .submit_session(SessionOp::chat(group, roster[0], "after failover"))
        .unwrap();
    let ack = gateway.recv_session_decision().unwrap();
    assert_eq!(ack.seq, seq);
    let view = gateway.session_view(group).unwrap();
    assert_eq!(view.chat.len(), 1, "own write visible after failover");
}

#[test]
fn replication_survives_snapshot_compaction_via_resync() {
    // An aggressive snapshot cadence compacts the log constantly; a
    // follower whose cursor falls behind the base is re-seeded by Resync.
    let config = ClusterConfig {
        snapshot_every: 8,
        snapshot_every_bytes: 0,
        snapshot_chain: 0,
        replica_link: Link {
            loss_rate: 0.3,
            ..Link::replica()
        },
        ..ClusterConfig::with_shards(1).with_replicas(2)
    };
    let (mut cluster, group, roster) = replicated_cluster(config, 3);
    for round in 0..40 {
        for &m in &roster {
            cluster.submit(GlobalRequest::speak(group, m)).unwrap();
        }
        cluster
            .submit(GlobalRequest::release_floor(group, roster[round % 3]))
            .unwrap();
    }
    let decisions = cluster.collect_decisions(40 * 4).unwrap();
    assert!(decisions.iter().all(|d| d.commit > 0));
    cluster.check_invariants().unwrap();
    // Crash + promote after heavy compaction still restores exact state.
    cluster.crash_shard(dmps_cluster::ShardId(0));
    cluster.recover_shard(dmps_cluster::ShardId(0)).unwrap();
    cluster.check_invariants().unwrap();
    let placement = cluster.placement(group).unwrap();
    assert!(cluster
        .arbiter(placement.shard)
        .token(placement.local)
        .unwrap()
        .holder()
        .is_some());
}

#[test]
fn follower_resync_from_a_partially_compacted_delta_chain() {
    // Differential checkpoints with a tiny byte budget: the log compacts to
    // the chain tip constantly, so lossy followers fall behind the base and
    // are re-seeded from a chain that is part base, part deltas — the
    // partially-compacted shape. Promotion afterwards must still restore
    // exact state.
    let config = ClusterConfig {
        snapshot_every: 0,
        snapshot_every_bytes: 512,
        snapshot_chain: 4,
        replica_link: Link {
            loss_rate: 0.3,
            ..Link::replica()
        },
        ..ClusterConfig::with_shards(1).with_replicas(2)
    };
    let (mut cluster, group, roster) = replicated_cluster(config, 3);
    for round in 0..40 {
        for &m in &roster {
            cluster.submit(GlobalRequest::speak(group, m)).unwrap();
        }
        cluster
            .submit(GlobalRequest::release_floor(group, roster[round % 3]))
            .unwrap();
        cluster
            .session(SessionOp::chat(
                group,
                roster[round % 3],
                format!("r{round}"),
            ))
            .unwrap();
    }
    let decisions = cluster.collect_decisions(40 * 4).unwrap();
    assert!(decisions.iter().all(|d| d.commit > 0));
    cluster.check_invariants().unwrap();
    let metrics = cluster.metrics();
    assert!(
        metrics
            .counter("cluster.shard.0.snapshot.delta_bytes")
            .get()
            > 0,
        "differential checkpoints were taken"
    );
    assert!(
        metrics.counter("cluster.shard.0.replica.resyncs").get() > 0,
        "loss must have forced at least one chain resync"
    );
    // Crash + promote: the promoted follower's state was built from resync
    // chains plus shipped segments, and must match the leader's exactly.
    let chat_before = cluster.session_view(group).unwrap().chat.len();
    cluster.crash_shard(dmps_cluster::ShardId(0));
    cluster.recover_shard(dmps_cluster::ShardId(0)).unwrap();
    cluster.check_invariants().unwrap();
    let placement = cluster.placement(group).unwrap();
    assert!(cluster
        .arbiter(placement.shard)
        .token(placement.local)
        .unwrap()
        .holder()
        .is_some());
    assert_eq!(cluster.session_view(group).unwrap().chat.len(), chat_before);
}

/// One round of mixed traffic on the lecture group: every member asks to
/// speak, one releases, one chat line lands.
fn traffic_round(
    cluster: &mut Cluster,
    group: GlobalGroupId,
    roster: &[GlobalMemberId],
    round: usize,
) {
    for &m in roster {
        cluster.submit(GlobalRequest::speak(group, m)).unwrap();
    }
    cluster
        .submit(GlobalRequest::release_floor(group, roster[round % 3]))
        .unwrap();
    let decisions = cluster.collect_decisions(roster.len() + 1).unwrap();
    assert!(decisions.iter().all(|d| d.commit > 0));
    // Whoever holds the floor now may chat (Equal Control gates the rest).
    let _ = cluster.session(SessionOp::chat(
        group,
        roster[(round + 1) % 3],
        format!("line {round}"),
    ));
}

/// What a failover must reproduce exactly: the arbiter's wire encoding and
/// the group's session content.
fn durable_state(cluster: &Cluster, group: GlobalGroupId) -> (String, usize) {
    let shard = cluster.placement(group).unwrap().shard;
    (
        dmps_wire::to_string(&cluster.arbiter(shard)),
        cluster.session_view(group).unwrap().chat.len(),
    )
}

/// A differential-checkpoint config with a small byte budget, so a few
/// rounds of traffic cross a checkpoint.
fn small_checkpoint_config(every_bytes: u64) -> ClusterConfig {
    ClusterConfig {
        snapshot_every: 0,
        snapshot_every_bytes: every_bytes,
        snapshot_chain: 8,
        ..ClusterConfig::with_shards(1).with_replicas(2)
    }
}

#[test]
fn healthy_fleet_is_never_resynced_and_the_log_compacts_to_the_checkpoint_tip() {
    // Compaction follows the fleet: on a lossless link every batch ships as
    // an `Append` — including the one a checkpoint was taken in — so no
    // checkpoint ever re-seeds a follower.
    let (mut cluster, group, roster) = replicated_cluster(small_checkpoint_config(1024), 3);
    let shard = dmps_cluster::ShardId(0);
    let (mut checkpoints, mut last) = (0, (false, 0));
    let mut tip = 0;
    for round in 0..150 {
        traffic_round(&mut cluster, group, &roster, round);
        let view = cluster.shard_view(shard);
        if (view.has_snapshot, view.snapshot_deltas) != last {
            last = (view.has_snapshot, view.snapshot_deltas);
            checkpoints += 1;
            // `shard_view` is a barrier: every ack is in, so only the
            // checkpoint holds the log back — the base *is* its tip.
            tip = view.log_base;
        }
        assert_eq!(view.log_base, tip, "between checkpoints the base rests");
    }
    assert!(checkpoints >= 30, "only {checkpoints} checkpoints taken");
    assert!(tip > 0);
    let metrics = cluster.metrics();
    assert_eq!(metrics.counter("cluster.shard.0.replica.resyncs").get(), 0);
    assert_eq!(
        metrics.counter("cluster.shard.0.replica.retransmits").get(),
        0
    );

    let before = durable_state(&cluster, group);
    cluster.crash_shard(shard);
    cluster.recover_shard(shard).unwrap();
    cluster.check_invariants().unwrap();
    assert_eq!(durable_state(&cluster, group), before);
}

#[test]
fn partitioned_follower_stops_pinning_the_log_and_is_resynced() {
    const EVERY_BYTES: u64 = 4096;
    let (mut cluster, group, roster) = replicated_cluster(small_checkpoint_config(EVERY_BYTES), 3);
    let shard = dmps_cluster::ShardId(0);
    for round in 0..10 {
        traffic_round(&mut cluster, group, &roster, round);
    }
    // One follower drops off; the other keeps the quorum, so the shard
    // keeps serving and checkpointing.
    cluster.isolate_shard_follower(shard, 1);
    let round_bytes = {
        let before = cluster.shard_view(shard).log_bytes;
        traffic_round(&mut cluster, group, &roster, 10);
        cluster.shard_view(shard).log_bytes - before
    };
    let (mut checkpoints, mut last, mut peak) = (0, (false, 0), 0);
    for round in 11..400 {
        traffic_round(&mut cluster, group, &roster, round);
        let view = cluster.shard_view(shard);
        if (view.has_snapshot, view.snapshot_deltas) != last {
            last = (view.has_snapshot, view.snapshot_deltas);
            checkpoints += 1;
        }
        peak = peak.max(view.log_bytes);
    }
    assert!(checkpoints >= 4, "only {checkpoints} checkpoints taken");
    // The absent follower pinned the log for at most the window it dropped
    // off in plus the next: two checkpoint windows (a window overshoots its
    // byte budget by at most the batch that crossed it), not the ~390
    // rounds it missed.
    assert!(
        peak <= 2 * (EVERY_BYTES + round_bytes),
        "retained log peaked at {peak} bytes"
    );
    let counter = |cluster: &Cluster, name: &str| {
        cluster
            .metrics()
            .counter(&format!("cluster.shard.0.replica.{name}"))
            .get()
    };
    // Each checkpoint offered the straggler one re-seed; the partition
    // swallowed them all.
    let swallowed = counter(&cluster, "resyncs");
    assert!(swallowed > 0 && swallowed <= checkpoints);

    // Healed: the next checkpoint's re-seed lands, and appends resume. An
    // append that overtakes the bulky re-seed on the wire is dropped as a
    // gap, and a follower the quorum does not need then waits for another
    // re-seed — so run until both are fresh instead of counting rounds.
    cluster.heal_shard_partition(shard);
    let gateway = cluster.gateway();
    let mut round = 400;
    loop {
        assert!(round < 600, "the healed straggler never caught up");
        traffic_round(&mut cluster, group, &roster, round);
        round += 1;
        // Both followers fresh: round-robin reads through a gateway with no
        // read-your-writes bound land on each in turn and see every line.
        let chat = cluster.session_view(group).unwrap().chat.len();
        if (0..2).all(|_| gateway.session_view(group).unwrap().chat.len() == chat) {
            break;
        }
    }
    assert!(
        counter(&cluster, "resyncs") > swallowed,
        "caught up by a re-seed"
    );
    let before = durable_state(&cluster, group);
    cluster.crash_shard(shard);
    cluster.recover_shard(shard).unwrap();
    cluster.check_invariants().unwrap();
    assert_eq!(durable_state(&cluster, group), before);
}

#[test]
fn writes_stranded_before_and_after_a_self_demotion_retry_alike() {
    // Two ways a write can meet a partitioned leader. The first is applied,
    // group-committed and shipped into the void: it strands mid-quorum-write
    // and fails when the stall budget burns out. The second is submitted
    // only once that failure has been received — the leader has demoted
    // itself by then — so it drains on the demoted shard and is refused
    // outright. Neither was ever released, so the failover must treat them
    // alike: the stranded log suffix dies with the old epoch, and both
    // retries arbitrate fresh, exactly once, under the new one.
    let config = ClusterConfig::with_shards(1).with_replicas(3);
    let (mut cluster, group, roster) = replicated_cluster(config, 3);
    let shard = cluster.placement(group).unwrap().shard;
    for &m in &roster {
        cluster.submit(GlobalRequest::speak(group, m)).unwrap();
    }
    let healthy = cluster.collect_decisions(roster.len()).unwrap();
    assert!(healthy.iter().all(|d| d.epoch == 1));
    let before = durable_state(&cluster, group);

    cluster.isolate_shard_leader(shard);
    let requests = [
        GlobalRequest::release_floor(group, roster[0]),
        GlobalRequest::speak(group, roster[0]),
    ];
    let mut stranded = Vec::new();
    for &request in &requests {
        let seq = cluster.submit(request).unwrap();
        let failed = cluster.collect_decisions(1).unwrap();
        assert_eq!(failed.len(), 1);
        assert!(matches!(
            failed[0].outcome,
            Err(dmps_cluster::ClusterError::ShardDown(_))
        ));
        // Failed decisions carry no position and no epoch on either path.
        assert_eq!(
            (failed[0].seq, failed[0].commit, failed[0].epoch),
            (seq, 0, 0)
        );
        assert!(!cluster.is_shard_active(shard));
        stranded.push(seq);
    }

    cluster.heal_shard_partition(shard);
    cluster.recover_shard(shard).unwrap();
    cluster.check_invariants().unwrap();
    assert_eq!(
        durable_state(&cluster, group),
        before,
        "the promoted follower owns exactly the quorum-committed prefix"
    );

    let gateway = cluster.gateway();
    let mut retried = Vec::new();
    for (&seq, &request) in stranded.iter().zip(&requests) {
        gateway.resubmit(seq, request).unwrap();
        let d = gateway.recv_decision().unwrap();
        assert_eq!((d.seq, d.epoch, d.replayed), (seq, 2, false));
        assert!(d.commit > 0);
        retried.push(d.outcome.unwrap());
    }
    assert!(matches!(*retried[0], ArbitrationOutcome::Granted { .. }));
    assert!(matches!(*retried[1], ArbitrationOutcome::Queued { .. }));
    // Applied once each: a second retry answers from the journal.
    for (&seq, &request) in stranded.iter().zip(&requests) {
        gateway.resubmit(seq, request).unwrap();
        assert!(gateway.recv_decision().unwrap().replayed);
    }
    cluster.check_invariants().unwrap();
}

#[test]
fn sim_failover_with_replicas_recovers_with_exactly_once_decisions() {
    // The full harness: simnet client traffic, a seeded crash, follower
    // promotion at failover, and gateway retransmission — every request
    // answered exactly once and the promoted shard passes the invariants.
    use dmps_cluster::ClusterSim;
    use dmps_simnet::SimTime;

    let config = ClusterConfig::with_shards(2).with_replicas(3);
    let mut sim = ClusterSim::new(config, 5, Link::lan());
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
    let mut answered: Vec<u64> = sim.decisions().iter().map(|(s, ..)| *s).collect();
    answered.sort_unstable();
    assert_eq!(answered, seqs, "every request answered exactly once");
    sim.cluster().check_invariants().unwrap();
    // The failover went through follower promotion, not full replay.
    let lag = sim
        .cluster()
        .metrics()
        .histogram(&format!("cluster.shard.{}.replica.catch_up_lag", shard.0));
    assert_eq!(lag.count(), 1, "promotion recorded exactly once");
}
