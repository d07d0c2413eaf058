//! Live migration of active groups: the two-phase token handoff, end to end.
//!
//! The acceptance properties of the `rebalance_active` surface:
//!
//! * a group whose token is **held** (and whose queue is non-empty) migrates
//!   shards with no lost or duplicated decision;
//! * `FloorArbiter::check_invariants` passes on source and destination after
//!   every phase;
//! * a seeded mid-handoff crash of either side recovers deterministically;
//! * `RebalanceReport::deferred` is empty after `rebalance_active` on a busy
//!   cluster;
//! * `rebalance_idle` is the same handoff filtered to idle groups, so it may
//!   race streamed submissions without losing or doubling a floor.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use dmps_cluster::{
    Cluster, ClusterConfig, ClusterSim, Decision, GlobalGroupId, GlobalMemberId, GlobalRequest,
    HashRing, SessionOp, ShardId,
};
use dmps_floor::{ArbitrationOutcome, FcmMode, Member, Role};
use dmps_simnet::{Link, SimTime};

const SHARDS: usize = 4;
const GROUPS: usize = 96;
const MEMBERS_PER_GROUP: usize = 3;

/// A decision journaled before the migration: `(request id, request, the
/// original decision)`.
type JournaledDecision = (u64, GlobalRequest, Decision);

/// A campus where every group is floor-active: member 0 holds the token,
/// members 1.. queue behind it, and a chat line is journaled per group.
fn busy_campus(
    shards: usize,
    groups: usize,
) -> (
    Cluster,
    Vec<GlobalGroupId>,
    Vec<Vec<GlobalMemberId>>,
    Vec<JournaledDecision>,
) {
    let cluster = Cluster::new(ClusterConfig::with_shards(shards));
    let mut gids = Vec::new();
    let mut rosters = Vec::new();
    for g in 0..groups {
        let gid = cluster
            .create_group(format!("lecture-{g}"), FcmMode::EqualControl)
            .unwrap();
        let mut roster = Vec::new();
        for m in 0..MEMBERS_PER_GROUP {
            let role = if m == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            let member = cluster.register_member(Member::new(format!("u{g}-{m}"), role));
            cluster.join_group(gid, member).unwrap();
            roster.push(member);
        }
        gids.push(gid);
        rosters.push(roster);
    }
    // Token state + journaled decisions: every member speaks, so member 0
    // holds and the rest queue; the decisions land in the dedup journals.
    let mut journaled = Vec::new();
    for (g, roster) in gids.iter().zip(&rosters) {
        for &m in roster {
            let speak = GlobalRequest::speak(*g, m);
            let seq = cluster.submit(speak).unwrap();
            journaled.push((seq, speak));
        }
        cluster
            .session(SessionOp::chat(*g, roster[0], "pre-handoff line"))
            .unwrap();
    }
    let decisions: std::collections::BTreeMap<u64, Decision> = cluster
        .collect_decisions(journaled.len())
        .unwrap()
        .into_iter()
        .map(|d| (d.seq, d))
        .collect();
    let journaled = journaled
        .into_iter()
        .map(|(seq, req)| (seq, req, decisions[&seq].clone()))
        .collect();
    (cluster, gids, rosters, journaled)
}

fn total_granted(cluster: &Cluster) -> u64 {
    cluster
        .shard_stats()
        .iter()
        .map(|(_, stats)| stats.granted)
        .sum()
}

#[test]
fn busy_cluster_drains_deferred_with_exact_accounting() {
    let (mut cluster, gids, rosters, journaled) = busy_campus(SHARDS, GROUPS);
    let new = cluster.add_shard();
    let granted_before = total_granted(&cluster);

    // The idle pass can move nothing: every group is token-pinned.
    let idle_pass = cluster.rebalance_idle().unwrap();
    assert!(idle_pass.migrated.is_empty(), "every group is floor-active");
    assert!(!idle_pass.deferred.is_empty(), "scale-out displaces groups");

    // The live pass drains the deferred list completely.
    let live_pass = cluster.rebalance_active().unwrap();
    assert_eq!(live_pass.migrated, idle_pass.deferred);
    assert!(
        live_pass.deferred.is_empty(),
        "deferred must be empty after rebalance_active on a healthy cluster"
    );
    cluster.check_invariants().unwrap();

    // No decision was lost or duplicated by the migration: arbitration
    // counters are untouched (the handoff moves state via logged install
    // events, not by re-arbitrating), and every pre-handoff request id still
    // replays its original decision from the migrated journal slice.
    assert_eq!(total_granted(&cluster), granted_before);
    let gateway = cluster.gateway();
    let migrated: BTreeSet<GlobalGroupId> = live_pass.migrated.iter().copied().collect();
    for (seq, request, original) in &journaled {
        if !migrated.contains(&request.group) {
            continue;
        }
        gateway.resubmit(*seq, *request).unwrap();
        let retry = gateway.recv_decision().unwrap();
        assert_eq!(retry.seq, *seq);
        assert!(
            retry.replayed,
            "journal slice must have moved with {}",
            request.group
        );
        assert_eq!(retry.outcome, original.outcome);
    }
    assert_eq!(total_granted(&cluster), granted_before, "replays only");

    // Token state survived intact: the holder still holds on the new shard,
    // the queue kept FIFO order, and releasing promotes the next member.
    for g in &live_pass.migrated {
        let roster = &rosters[g.0 as usize];
        let placement = cluster.placement(*g).unwrap();
        assert_eq!(placement.shard, new);
        let token = cluster.arbiter(new).token(placement.local).unwrap().clone();
        let locals: Vec<_> = roster
            .iter()
            .map(|&m| cluster.local_member(m, new).unwrap())
            .collect();
        assert_eq!(token.holder(), Some(locals[0]));
        assert_eq!(token.queue().collect::<Vec<_>>(), locals[1..].to_vec());
        let next = cluster
            .request(GlobalRequest::release_floor(*g, roster[0]))
            .unwrap();
        assert!(
            matches!(next, ArbitrationOutcome::Granted { ref speakers, .. } if *speakers == vec![locals[1]]),
            "queued member must be promoted on the destination"
        );
        // The session content followed the group.
        assert_eq!(cluster.session_view(*g).unwrap().chat.len(), 1);
    }
    // Nothing was migrated twice and nothing displaced was left behind.
    let displaced: BTreeSet<GlobalGroupId> = gids
        .iter()
        .filter(|g| cluster.placement(**g).unwrap().shard == new)
        .copied()
        .collect();
    assert_eq!(displaced, migrated);
    cluster.check_invariants().unwrap();
}

#[test]
fn invariants_hold_on_both_shards_after_every_phase() {
    let (mut cluster, _gids, rosters, _) = busy_campus(2, 24);
    let new = cluster.add_shard();
    // Every group is busy, so the idle pass migrates nothing — its deferred
    // list is exactly the ring-displaced set; hand off the first of them.
    let displaced = cluster.rebalance_idle().unwrap().deferred;
    let group = *displaced.first().expect("scale-out displaces some group");
    let roster = &rosters[group.0 as usize];

    // Phase 1: frozen on the source, invariants green everywhere.
    let ticket = cluster.handoff_prepare(group, None).unwrap();
    cluster.check_invariants().unwrap();
    assert_eq!(ticket.token_holder(), Some(roster[0]));
    assert_eq!(ticket.token_queue(), &roster[1..]);
    assert!(ticket.pinned_seq() > 0);

    // Abort: invariants green, group serves on the source again.
    cluster.handoff_abort(ticket).unwrap();
    cluster.check_invariants().unwrap();
    let outcome = cluster
        .request(GlobalRequest::speak(group, roster[0]))
        .unwrap();
    assert!(outcome.is_granted(), "holder still holds after abort");

    // Prepare → commit: invariants green after each phase, on every shard.
    let ticket = cluster.handoff_prepare(group, None).unwrap();
    cluster.check_invariants().unwrap();
    cluster.handoff_commit(ticket).unwrap();
    cluster.check_invariants().unwrap();
    assert_eq!(cluster.placement(group).unwrap().shard, new);
    cluster.check_invariants().unwrap();
}

/// The shard state fingerprint used for determinism comparisons.
fn fingerprint(sim: &ClusterSim, shard: ShardId) -> String {
    dmps_wire::to_string(&sim.cluster().arbiter(shard))
}

/// Seeded sim: 2 shards + 1 added mid-run, one busy group handed off under
/// traffic, with a crash of `victim` landing between prepare and commit.
fn crash_mid_handoff(seed: u64, crash_source: bool) -> (Vec<String>, usize, u64, u64, ShardId) {
    let mut sim = ClusterSim::new(ClusterConfig::with_shards(2), seed, Link::lan());
    sim.enable_retransmission(Duration::from_millis(40));
    let g = sim
        .cluster_mut()
        .create_group("lecture", FcmMode::EqualControl)
        .unwrap();
    let source = sim.cluster().placement(g).unwrap().shard;
    let speakers: Vec<_> = (0..4)
        .map(|i| {
            let m = sim
                .cluster_mut()
                .register_member(Member::new(format!("m{i}"), Role::Participant));
            sim.cluster_mut().join_group(g, m).unwrap();
            m
        })
        .collect();
    let target = sim.add_shard(Link::lan());
    for i in 0..50u64 {
        sim.submit_at(
            SimTime::from_millis(40 * i),
            GlobalRequest::speak(g, speakers[(i % 4) as usize]),
        )
        .unwrap();
    }
    sim.schedule_handoff(
        SimTime::from_millis(800),
        g,
        Some(target),
        Duration::from_millis(400),
    );
    let victim = if crash_source { source } else { target };
    sim.schedule_crash(
        SimTime::from_millis(900),
        victim,
        Duration::from_millis(600),
    );
    sim.run_to_idle();
    sim.cluster().check_invariants().unwrap();
    let shards = (0..sim.cluster().shard_count())
        .map(|s| fingerprint(&sim, ShardId(s)))
        .collect();
    let owner = sim.cluster().placement(g).unwrap().shard;
    (
        shards,
        sim.decisions().len(),
        sim.handoffs_committed(),
        sim.handoffs_aborted(),
        owner,
    )
}

#[test]
fn mid_handoff_source_crash_is_deterministic_and_consistent() {
    let (shards, decisions, committed, aborted, owner) = crash_mid_handoff(23, true);
    // The commit ran while the source was down: the destination serves.
    assert_eq!(committed, 1);
    assert_eq!(aborted, 0);
    assert_eq!(owner, ShardId(2));
    assert_eq!(decisions, 50, "every request answered exactly once");
    // Bit-for-bit determinism across reruns of the same seed.
    let rerun = crash_mid_handoff(23, true);
    assert_eq!((shards, decisions, committed, aborted, owner), rerun);
}

#[test]
fn mid_handoff_destination_crash_is_deterministic_and_consistent() {
    let (shards, decisions, committed, aborted, owner) = crash_mid_handoff(23, false);
    // The destination was down at commit time: the handoff aborted and the
    // source kept serving.
    assert_eq!(committed, 0);
    assert_eq!(aborted, 1);
    assert!(owner.0 < 2, "the original source kept the group");
    assert_eq!(decisions, 50, "every request answered exactly once");
    let rerun = crash_mid_handoff(23, false);
    assert_eq!((shards, decisions, committed, aborted, owner), rerun);
}

/// `rebalance_idle` racing streamed floor traffic: a gateway thread streams
/// waves of speak(a), speak(b), release(a), release(b) at every displaced
/// group while the idle pass runs. The idle check reads each group's frozen
/// export, so a group caught mid-wave is deferred and one caught idle moves
/// with its parked submissions re-driven behind it. Either way every
/// submission is answered exactly once, each wave decides exactly as one
/// token would (a second holder would turn b's speak into a grant), and no
/// shard keeps a holder in a group it no longer serves.
#[test]
fn idle_pass_races_streamed_submissions() {
    let config = ClusterConfig::with_shards(SHARDS);
    let mut cluster = Cluster::new(config);
    let mut lectures = Vec::new();
    for g in 0..GROUPS {
        let gid = cluster
            .create_group(format!("lecture-{g}"), FcmMode::EqualControl)
            .unwrap();
        let pair: Vec<_> = (0..2)
            .map(|m| {
                let member = Member::new(format!("u{g}-{m}"), Role::Participant);
                let member = cluster.register_member(member);
                cluster.join_group(gid, member).unwrap();
                member
            })
            .collect();
        lectures.push((gid, pair));
    }
    cluster.add_shard();
    let mut ring = HashRing::new(SHARDS, config.vnodes);
    ring.add_shard();
    lectures.retain(|(g, _)| ring.shard_for(g.0) != cluster.placement(*g).unwrap().shard);
    assert!(!lectures.is_empty(), "scale-out displaces groups");
    let before: BTreeMap<GlobalGroupId, _> = lectures
        .iter()
        .map(|(g, _)| (*g, cluster.placement(*g).unwrap()))
        .collect();

    let gateway = cluster.gateway();
    let (started, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let (report, submitted, decided) = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let (mut submitted, mut decided) = (BTreeMap::new(), Vec::new());
            while !stop.load(Ordering::Relaxed) {
                for (g, pair) in &lectures {
                    let wave = [
                        GlobalRequest::speak(*g, pair[0]),
                        GlobalRequest::speak(*g, pair[1]),
                        GlobalRequest::release_floor(*g, pair[0]),
                        GlobalRequest::release_floor(*g, pair[1]),
                    ];
                    for (step, request) in wave.into_iter().enumerate() {
                        submitted.insert(gateway.submit(request).unwrap(), step);
                    }
                }
                started.store(true, Ordering::Relaxed);
                decided.extend(gateway.collect_decisions(4 * lectures.len()).unwrap());
            }
            (submitted, decided)
        });
        while !started.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        let report = cluster.rebalance_idle().unwrap();
        stop.store(true, Ordering::Relaxed);
        let (submitted, decided) = ingest.join().unwrap();
        (report, submitted, decided)
    });
    cluster.check_invariants().unwrap();

    // Every submission answered exactly once, and nothing more arrives.
    let answered: BTreeSet<u64> = decided.iter().map(|d| d.seq).collect();
    assert_eq!(answered.len(), decided.len(), "one reply per submission");
    assert!(answered.iter().eq(submitted.keys()));
    assert!(gateway.try_recv_decision().is_none());
    // Each wave decided as one token does: a grants, b queues, a's release
    // promotes b, b's release hands the floor to nobody.
    for decision in &decided {
        let outcome = decision.outcome.as_deref().unwrap();
        let ok = match (submitted[&decision.seq], outcome) {
            (0, ArbitrationOutcome::Granted { .. }) => true,
            (1, ArbitrationOutcome::Queued { position: 1, .. }) => true,
            (2, ArbitrationOutcome::Granted { speakers, .. }) => speakers.len() == 1,
            (3, ArbitrationOutcome::Granted { speakers, .. }) => speakers.is_empty(),
            _ => false,
        };
        assert!(
            ok,
            "{} step {}: {outcome:?}",
            decision.group, submitted[&decision.seq]
        );
    }
    // Every displaced group either moved or was deferred; a moved group's
    // source copy holds no floor.
    let mut accounted: Vec<_> = report.migrated.iter().chain(&report.deferred).collect();
    accounted.sort();
    assert!(accounted.into_iter().eq(before.keys()));
    for g in &report.migrated {
        let old = before[g];
        let husk = cluster.arbiter(old.shard).token(old.local).unwrap().clone();
        assert_eq!(husk.holder(), None, "{g} left a holder behind");
    }
    // With the traffic stopped every group is idle, so a second pass moves
    // whatever the race deferred.
    let second = cluster.rebalance_idle().unwrap();
    assert_eq!(second.migrated, report.deferred);
    assert!(second.deferred.is_empty());
    cluster.check_invariants().unwrap();
}
