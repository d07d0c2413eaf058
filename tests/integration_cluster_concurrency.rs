//! Concurrency stress: N gateway threads storm speak/release/pass requests
//! against shared groups — with injected retries and a shard crash/recovery
//! in the middle — then every shard must satisfy the floor invariants and
//! decision accounting must be exactly-once:
//!
//! * every submission (and every injected retry) yields exactly one decision
//!   on the submitting gateway's stream;
//! * a retry of an applied request is answered from the shard's dedup window
//!   (`replayed == true`, identical outcome) instead of double-applying;
//! * a retry of a request refused while its shard was down applies freshly
//!   after recovery.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use dmps_cluster::{
    Cluster, ClusterConfig, Decision, Gateway, GlobalGroupId, GlobalMemberId, GlobalRequest,
    ShardId,
};
use dmps_floor::{FcmMode, Member, Role};

const SHARDS: usize = 8;
const GATEWAYS: usize = 4;
const GROUPS: usize = 24;
/// One member per gateway thread per group, so every thread storms every
/// group under its own identity.
const MEMBERS: usize = GATEWAYS;
const ROUNDS: usize = 40;

fn build() -> (Cluster, Vec<GlobalGroupId>, Vec<Vec<GlobalMemberId>>) {
    let cluster = Cluster::new(ClusterConfig {
        shards: SHARDS,
        snapshot_every: 64,
        // Large enough to cover a full storm, so late retries always replay.
        dedup_window: 1 << 16,
        ..ClusterConfig::with_shards(SHARDS)
    });
    let mut groups = Vec::new();
    let mut rosters = Vec::new();
    for g in 0..GROUPS {
        let gid = cluster
            .create_group(format!("lecture-{g}"), FcmMode::EqualControl)
            .unwrap();
        let mut roster = Vec::new();
        for m in 0..MEMBERS {
            let role = if m == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            let member = cluster.register_member(Member::new(format!("u{g}-{m}"), role));
            cluster.join_group(gid, member).unwrap();
            roster.push(member);
        }
        groups.push(gid);
        rosters.push(roster);
    }
    (cluster, groups, rosters)
}

/// One submission's record: request id, the request, and its first decision.
type StormRecord = (u64, GlobalRequest, Decision);
/// A gateway thread's result: its records plus how many retries replayed.
type StormResult = (Vec<StormRecord>, usize);

/// One gateway thread's storm: submit, collect, then inject retries.
fn storm(
    gateway: &Gateway,
    thread: usize,
    groups: &[GlobalGroupId],
    rosters: &[Vec<GlobalMemberId>],
) -> StormResult {
    let mut submitted: Vec<(u64, GlobalRequest)> = Vec::new();
    for round in 0..ROUNDS {
        for (gi, &group) in groups.iter().enumerate() {
            let me = rosters[gi][thread];
            let speak = GlobalRequest::speak(group, me);
            submitted.push((gateway.submit(speak).unwrap(), speak));
            if round % 3 == thread % 3 {
                let to = rosters[gi][(thread + 1) % MEMBERS];
                let pass = GlobalRequest::pass_floor(group, me, to);
                submitted.push((gateway.submit(pass).unwrap(), pass));
            }
            let release = GlobalRequest::release_floor(group, me);
            submitted.push((gateway.submit(release).unwrap(), release));
        }
    }
    // Exactly one decision per submission, each tagged with a submitted id.
    let mut by_seq: std::collections::BTreeMap<u64, Decision> = std::collections::BTreeMap::new();
    for _ in 0..submitted.len() {
        let decision = gateway.recv_decision().unwrap();
        assert!(
            by_seq.insert(decision.seq, decision).is_none(),
            "one decision per request id"
        );
    }
    assert!(
        gateway.try_recv_decision().is_none(),
        "no stray decisions on this gateway"
    );
    assert_eq!(by_seq.len(), submitted.len());

    // Inject retries: every 5th request is resubmitted under its original
    // id, as a gateway would after losing the decision. A retry refused
    // because the victim shard is mid-crash is itself retried — exactly the
    // production retry loop — until the standby answers.
    let mut replays = 0;
    for (seq, request) in submitted.iter().step_by(5) {
        let retry = loop {
            gateway.resubmit(*seq, *request).unwrap();
            let retry = gateway.recv_decision().unwrap();
            assert_eq!(retry.seq, *seq);
            if !matches!(retry.outcome, Err(dmps_cluster::ClusterError::ShardDown(_))) {
                break retry;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        let original = &by_seq[seq];
        if original.outcome.is_ok() {
            // Applied once already: the retry must replay the journaled
            // decision, not re-apply the event.
            assert!(retry.replayed, "retry of applied request {seq} replays");
            assert_eq!(retry.outcome, original.outcome);
            replays += 1;
        }
    }
    (
        submitted
            .into_iter()
            .map(|(seq, request)| {
                let decision = by_seq.remove(&seq).unwrap();
                (seq, request, decision)
            })
            .collect(),
        replays,
    )
}

#[test]
fn concurrent_gateway_storms_preserve_invariants_and_exactly_once() {
    let (mut cluster, groups, rosters) = build();
    let victim = ShardId(0);
    let barrier = Arc::new(Barrier::new(GATEWAYS + 1));
    let results: Vec<StormResult> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for thread in 0..GATEWAYS {
            let gateway = cluster.gateway();
            let barrier = barrier.clone();
            let groups = &groups;
            let rosters = &rosters;
            handles.push(scope.spawn(move || {
                barrier.wait();
                storm(&gateway, thread, groups, rosters)
            }));
        }
        // Crash and recover one shard while the storm is in flight, so some
        // requests are refused with ShardDown and must be retried.
        barrier.wait();
        std::thread::sleep(Duration::from_millis(5));
        cluster.crash_shard(victim);
        std::thread::sleep(Duration::from_millis(10));
        cluster.recover_shard(victim).unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Cluster-unique ids: no two submissions (across all gateways) shared one.
    let mut all_seqs: Vec<u64> = results
        .iter()
        .flat_map(|(records, _)| records.iter().map(|(seq, ..)| *seq))
        .collect();
    let total = all_seqs.len();
    all_seqs.sort_unstable();
    all_seqs.dedup();
    assert_eq!(all_seqs.len(), total, "request ids are cluster-unique");
    let expected: usize = (0..GATEWAYS)
        .map(|t| {
            let pass_rounds = (0..ROUNDS).filter(|r| r % 3 == t % 3).count();
            ROUNDS * GROUPS * 2 + pass_rounds * GROUPS
        })
        .sum();
    assert_eq!(total, expected);
    let total_replays: usize = results.iter().map(|(_, replays)| *replays).sum();
    assert!(
        total_replays > 0,
        "injected retries must exercise the dedup window"
    );

    // Requests refused while the victim shard was down apply cleanly (and
    // freshly — they were never applied) once retried after recovery.
    let retry_gateway = cluster.gateway();
    let mut down_retries = 0;
    for (seq, request, decision) in results.iter().flat_map(|(records, _)| records.iter()) {
        if matches!(
            decision.outcome,
            Err(dmps_cluster::ClusterError::ShardDown(_))
        ) {
            retry_gateway.resubmit(*seq, *request).unwrap();
            let retry = retry_gateway.recv_decision().unwrap();
            assert_eq!(retry.seq, *seq);
            assert!(
                !matches!(retry.outcome, Err(dmps_cluster::ClusterError::ShardDown(_))),
                "retry after recovery must reach the shard"
            );
            // `retry.replayed` may be either way here: the storm's injected
            // retry of the same id may itself have landed after recovery and
            // applied the request; this retry then replays it — still
            // exactly-once.
            down_retries += 1;
        }
    }
    // The interleaving decides how many requests hit the down window (often
    // zero on a fast machine); whatever happened, state must be sound.
    let _ = down_retries;

    // Every shard satisfies the floor invariants after the storm.
    cluster.check_invariants().unwrap();
    for s in 0..SHARDS {
        cluster.arbiter(ShardId(s)).check_invariants().unwrap();
    }
    // Every group still has a coherent token: at most one holder, and the
    // holder is a member of the group.
    for &g in &groups {
        let placement = cluster.placement(g).unwrap();
        let arbiter = cluster.arbiter(placement.shard);
        if let Some(holder) = arbiter.token(placement.local).unwrap().holder() {
            assert!(arbiter.group(placement.local).unwrap().contains(holder));
        }
    }
}

#[test]
fn control_plane_churn_races_ingest_safely() {
    // One thread storms floor requests while others churn the directory
    // (new groups, new members, joins, cross-shard invitations). The striped
    // directory must keep every path consistent without a global lock.
    let (cluster, groups, rosters) = build();
    let churners = 3;
    let created = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..churners {
            let gateway = cluster.gateway();
            let created = created.clone();
            let groups = &groups;
            let rosters = &rosters;
            scope.spawn(move || {
                for i in 0..60 {
                    let gid = gateway
                        .create_group(format!("breakout-{t}-{i}"), FcmMode::GroupDiscussion)
                        .unwrap();
                    let m = gateway
                        .register_member(Member::new(format!("guest-{t}-{i}"), Role::Participant));
                    gateway.join_group(gid, m).unwrap();
                    created.fetch_add(1, Ordering::Relaxed);
                    // Cross-shard invitation churn against the shared groups.
                    let parent = groups[i % groups.len()];
                    let from = rosters[i % groups.len()][t % MEMBERS];
                    let to = rosters[i % groups.len()][(t + 1) % MEMBERS];
                    let (_, inv) = gateway
                        .invite(parent, from, to, FcmMode::DirectContact, None)
                        .unwrap();
                    gateway.respond_invitation(inv, to, i % 2 == 0).unwrap();
                }
            });
        }
        let gateway = cluster.gateway();
        let groups = &groups;
        let rosters = &rosters;
        scope.spawn(move || {
            for round in 0..120 {
                for (gi, &group) in groups.iter().enumerate() {
                    let me = rosters[gi][round % MEMBERS];
                    gateway.submit(GlobalRequest::speak(group, me)).unwrap();
                    gateway
                        .submit(GlobalRequest::release_floor(group, me))
                        .unwrap();
                }
            }
            for _ in 0..(120 * groups.len() * 2) {
                gateway.recv_decision().unwrap();
            }
        });
    });
    assert_eq!(created.load(Ordering::Relaxed), churners * 60);
    assert_eq!(cluster.group_count(), GROUPS + churners * 60 * 2);
    cluster.check_invariants().unwrap();
    for s in 0..SHARDS {
        cluster.arbiter(ShardId(s)).check_invariants().unwrap();
    }
}
