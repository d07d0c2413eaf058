//! Partition + epoch-fenced failover through the public `Cluster` API: a
//! leader isolated from its followers mid-quorum-write self-demotes when the
//! stall budget burns out, the healed partition promotes a follower under a
//! bumped epoch, and gateway retries resolve every stranded request exactly
//! once — no double-release, no forked log.

use dmps_cluster::{
    Cluster, ClusterConfig, ClusterError, GlobalGroupId, GlobalMemberId, GlobalRequest,
};
use dmps_floor::{ArbitrationOutcome, FcmMode, Member, Role};

/// A replicated single-shard-of-interest cluster with one Equal Control
/// group and three members (member 0 speaks first and holds the floor).
fn replicated_cluster(replicas: usize) -> (Cluster, GlobalGroupId, Vec<GlobalMemberId>) {
    let config = ClusterConfig::with_shards(1).with_replicas(replicas);
    let cluster = Cluster::new(config);
    let group = cluster
        .create_group("lecture", FcmMode::EqualControl)
        .unwrap();
    let roster: Vec<_> = (0..3)
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

/// Drives the full scenario and returns everything a determinism comparison
/// needs: phase outcomes, epochs, and the serialized post-failover arbiter.
#[allow(clippy::type_complexity)]
fn partition_failover_scenario() -> (Vec<String>, Vec<(u64, String, bool, u64)>, String, u64) {
    let (mut cluster, group, roster) = replicated_cluster(3);
    let shard = cluster.placement(group).unwrap().shard;

    // Phase 1 — healthy quorum traffic: m0 takes the floor, m1/m2 queue.
    for &m in &roster {
        cluster.submit(GlobalRequest::speak(group, m)).unwrap();
    }
    let healthy = cluster.collect_decisions(roster.len()).unwrap();
    assert_eq!(healthy.len(), 3);
    for d in &healthy {
        assert!(d.outcome.is_ok());
        assert!(d.commit > 0, "quorum-committed decisions carry a bound");
        assert_eq!(d.epoch, 1, "first leader incarnation stamps epoch 1");
    }

    // Phase 2 — partition the leader away from every follower, then write
    // through it. The leader group-commits locally and ships appends that
    // the partition swallows: the writes are stranded mid-quorum-write.
    cluster.isolate_shard_leader(shard);
    let stranded = [
        cluster
            .submit(GlobalRequest::release_floor(group, roster[0]))
            .unwrap(),
        cluster
            .submit(GlobalRequest::speak(group, roster[0]))
            .unwrap(),
    ];
    let drained = cluster.collect_decisions(stranded.len()).unwrap();

    // The stall budget burned out retransmitting into the void: the leader
    // failed its pipeline, answered the parked writes ShardDown, and
    // self-demoted rather than risk serving a minority fork.
    assert_eq!(drained.len(), stranded.len());
    for d in &drained {
        assert!(
            matches!(d.outcome, Err(ClusterError::ShardDown(_))),
            "stranded writes drain as ShardDown, got {:?}",
            d.outcome
        );
        assert!(!d.replayed);
        assert_eq!(d.epoch, 0, "failed decisions carry no epoch");
    }
    assert!(
        !cluster.is_shard_active(shard),
        "a leader that cannot reach quorum must demote itself"
    );
    let partitions = cluster
        .metrics()
        .counter(&format!("cluster.shard.{}.fault.partitions", shard.0))
        .get();
    assert_eq!(partitions, 1, "the partition was counted");

    // Phase 3 — heal and fail over: promotion bumps the epoch, fencing any
    // stale incarnation, and the promoted follower owns exactly the
    // quorum-committed prefix (phase 1) — the stranded suffix never forked
    // into its log.
    cluster.heal_shard_partition(shard);
    cluster.recover_shard(shard).unwrap();
    assert!(cluster.is_shard_active(shard));
    cluster.check_invariants().unwrap();
    let lag = cluster
        .metrics()
        .histogram(&format!("cluster.shard.{}.replica.catch_up_lag", shard.0));
    assert_eq!(lag.count(), 1, "exactly one follower promotion");

    // Phase 4 — gateway retries under the original ids, in order. The
    // promoted leader never saw the stranded suffix, so the retries
    // re-arbitrate fresh — exactly once — under the bumped epoch.
    let gateway = cluster.gateway();
    let retry_reqs = [
        GlobalRequest::release_floor(group, roster[0]),
        GlobalRequest::speak(group, roster[0]),
    ];
    let mut retried = Vec::new();
    for (&seq, &req) in stranded.iter().zip(retry_reqs.iter()) {
        gateway.resubmit(seq, req).unwrap();
        let d = gateway.recv_decision().unwrap();
        assert_eq!(d.seq, seq);
        assert!(d.outcome.is_ok(), "retry must arbitrate: {:?}", d.outcome);
        assert_eq!(
            d.epoch, 2,
            "post-failover decisions straddle the epoch bump"
        );
        retried.push(d);
    }

    // Exactly-once floor semantics across the failover: the release let m1
    // in, and m0 rejoined at the back of the queue. A double-applied
    // release (or a forked log) would leave a different holder or queue.
    assert!(matches!(
        retried[0].outcome.as_deref(),
        Ok(ArbitrationOutcome::Granted { .. })
    ));
    assert!(matches!(
        retried[1].outcome.as_deref(),
        Ok(ArbitrationOutcome::Queued { .. })
    ));
    let placement = cluster.placement(group).unwrap();
    let token = cluster
        .arbiter(placement.shard)
        .token(placement.local)
        .unwrap()
        .clone();
    assert_eq!(token.queue_len(), 2, "m2 and m0 queue behind m1");
    cluster.check_invariants().unwrap();

    // A retry of an already-retried id replays from the new journal instead
    // of double-applying — the dedup window survived promotion.
    gateway.resubmit(stranded[0], retry_reqs[0]).unwrap();
    let replayed = gateway.recv_decision().unwrap();
    assert!(replayed.replayed, "second retry answers from the journal");
    assert_eq!(replayed.outcome, retried[0].outcome);

    let healthy_outcomes = healthy.iter().map(|d| format!("{:?}", d.outcome)).collect();
    let retried_flat = retried
        .iter()
        .map(|d| (d.seq, format!("{:?}", d.outcome), d.replayed, d.epoch))
        .collect();
    let arbiter = dmps_wire::to_string(&cluster.arbiter(placement.shard));
    (healthy_outcomes, retried_flat, arbiter, partitions)
}

#[test]
fn partition_mid_quorum_write_fences_leader_and_fails_over_exactly_once() {
    partition_failover_scenario();
}

#[test]
fn partition_failover_is_deterministic_across_runs() {
    // No wall-clock dependence anywhere on the path: the stall budget, the
    // epoch bump and the retry outcomes reproduce exactly run over run.
    assert_eq!(partition_failover_scenario(), partition_failover_scenario());
}

#[test]
fn heal_without_demotion_keeps_the_original_leader() {
    // A partition that never carries traffic burns no stall budget: the
    // leader stays active, and healing needs no failover. The fault plane
    // must not invent failovers the workload never forced.
    let (mut cluster, group, roster) = replicated_cluster(2);
    let shard = cluster.placement(group).unwrap().shard;
    cluster
        .submit(GlobalRequest::speak(group, roster[0]))
        .unwrap();
    let decisions = cluster.collect_decisions(1).unwrap();
    assert!(decisions.iter().all(|d| d.outcome.is_ok()));

    cluster.isolate_shard_leader(shard);
    cluster.heal_shard_partition(shard);
    assert!(
        cluster.is_shard_active(shard),
        "an idle partition must not demote the leader"
    );

    // Quorum traffic flows again over the healed links, same epoch.
    cluster
        .submit(GlobalRequest::speak(group, roster[1]))
        .unwrap();
    let after = cluster.collect_decisions(1).unwrap();
    assert_eq!(after.len(), 1);
    assert!(after[0].outcome.is_ok());
    assert_eq!(after[0].epoch, 1, "no failover, no epoch bump");
    cluster.check_invariants().unwrap();
}

#[test]
fn fenced_decisions_never_double_release() {
    // The crux of fencing: a request the old leader *answered* ShardDown
    // must not also have mutated the surviving quorum's state. Count grants
    // across the whole run — the floor changed hands exactly once.
    let (mut cluster, group, roster) = replicated_cluster(3);
    let shard = cluster.placement(group).unwrap().shard;
    for &m in &roster {
        cluster.submit(GlobalRequest::speak(group, m)).unwrap();
    }
    let healthy = cluster.collect_decisions(roster.len()).unwrap();
    let grants_before = healthy
        .iter()
        .filter(|d| matches!(d.outcome.as_deref(), Ok(ArbitrationOutcome::Granted { .. })))
        .count();
    assert_eq!(grants_before, 1, "m0 holds the floor");

    cluster.isolate_shard_leader(shard);
    let seq = cluster
        .submit(GlobalRequest::release_floor(group, roster[0]))
        .unwrap();
    let drained = cluster.collect_decisions(1).unwrap();
    assert!(drained
        .iter()
        .all(|d| matches!(d.outcome, Err(ClusterError::ShardDown(_)))));
    cluster.heal_shard_partition(shard);
    cluster.recover_shard(shard).unwrap();

    // The promoted quorum still shows m0 holding: the fenced release never
    // leaked. Exactly one grant follows the (single) successful retry.
    let placement = cluster.placement(group).unwrap();
    assert!(
        cluster
            .arbiter(placement.shard)
            .token(placement.local)
            .unwrap()
            .holder()
            .is_some(),
        "fenced release must not have applied"
    );

    let gateway = cluster.gateway();
    gateway
        .resubmit(seq, GlobalRequest::release_floor(group, roster[0]))
        .unwrap();
    let retry = gateway.recv_decision().unwrap();
    assert!(
        matches!(
            retry.outcome.as_deref(),
            Ok(ArbitrationOutcome::Granted { .. })
        ),
        "the single release hands the floor to m1: {:?}",
        retry.outcome
    );
    cluster.check_invariants().unwrap();
}
