//! Sharded campus: 4 shards serving 64 concurrent lecture *sessions* — not
//! just their floor requests — over the simulated network. Each lecture
//! mixes floor control traffic with the session's content plane (chat lines,
//! whiteboard strokes, synchronized playback schedules), all routed through
//! the sharded-session path: every operation travels to the shard owning the
//! group, is floor-gated there, and lands in the shard's durable event log.
//! One shard host crashes mid-lecture; its standby recovers by
//! snapshot+replay, gateway retransmission heals the stranded traffic
//! exactly-once, and the run finishes with per-shard grant-latency
//! statistics and the surviving session state.
//!
//! The campus then **scales out under load**: a fifth shard joins
//! (`add_shard`), and every move is one two-phase live handoff:
//! `rebalance_idle` commits the handoffs of idle groups and defers the
//! token-pinned ones, and `rebalance_active` drains that deferred list —
//! held tokens, request queues, chairs, session logs and journal slices all
//! migrate intact, verified per shard via `shard_view` and
//! `check_invariants`.
//!
//! Run with: `cargo run --example sharded_campus_lectures`

use std::time::Duration;

use dmps::metrics::GrantLatencyStats;
use dmps_cluster::{ClusterConfig, ClusterSim, GlobalRequest, SessionOp, ShardId};
use dmps_floor::{FcmMode, Member, Role};
use dmps_simnet::{Link, SimTime};

const SHARDS: usize = 4;
const GROUPS: usize = 64;
const STUDENTS: usize = 5;

fn main() {
    let mut sim = ClusterSim::new(ClusterConfig::with_shards(SHARDS), 2001, Link::lan());
    // Gateway retransmission: requests stranded by the crash below are
    // re-sent under their original ids after failover; the shard dedup
    // window keeps already-applied ones from double-applying.
    sim.enable_retransmission(Duration::from_millis(60));

    // 64 lecture groups cycling through the paper's four floor control
    // modes, each with a teacher (chair) and five students.
    let modes = [
        FcmMode::FreeAccess,
        FcmMode::EqualControl,
        FcmMode::GroupDiscussion,
        FcmMode::EqualControl,
    ];
    let mut lectures = Vec::new();
    for g in 0..GROUPS {
        let mode = modes[g % modes.len()];
        let gid = sim
            .cluster_mut()
            .create_group(format!("lecture-{g}"), mode)
            .expect("all shards up");
        let teacher = sim
            .cluster_mut()
            .register_member(Member::new(format!("teacher-{g}"), Role::Chair));
        sim.cluster_mut()
            .join_group(gid, teacher)
            .expect("fresh group");
        let students: Vec<_> = (0..STUDENTS)
            .map(|s| {
                let m = sim
                    .cluster_mut()
                    .register_member(Member::new(format!("student-{g}-{s}"), Role::Participant));
                sim.cluster_mut().join_group(gid, m).expect("fresh group");
                m
            })
            .collect();
        lectures.push((gid, mode, teacher, students));
    }
    println!(
        "campus: {} groups on {} shards ({} members)",
        sim.cluster().group_count(),
        sim.cluster().shard_count(),
        sim.cluster().member_count(),
    );
    for s in 0..SHARDS {
        println!(
            "  shard s{s}: {:3} groups on host {}",
            sim.cluster().groups_on(ShardId(s)).len(),
            sim.serving_host(ShardId(s)),
        );
    }

    // Ten seconds of floor traffic: teachers claim the floor, students
    // request (queueing under Equal Control), teachers pass and release.
    for (i, (gid, _, teacher, students)) in lectures.iter().enumerate() {
        let base = SimTime::from_millis(3 * i as u64);
        sim.submit_at(base, GlobalRequest::speak(*gid, *teacher))
            .unwrap();
        for (s, &student) in students.iter().enumerate() {
            sim.submit_at(
                base + Duration::from_millis(500 + 300 * s as u64),
                GlobalRequest::speak(*gid, student),
            )
            .unwrap();
        }
        // A second request wave lands while shard 1's host is down (crash is
        // scheduled at t = 3 s below); those die with the host and are
        // retransmitted after the standby takes over.
        sim.submit_at(
            base + Duration::from_millis(3_050),
            GlobalRequest::speak(*gid, students[1]),
        )
        .unwrap();
        sim.submit_at(
            base + Duration::from_secs(4),
            GlobalRequest::pass_floor(*gid, *teacher, students[0]),
        )
        .unwrap();
        sim.submit_at(
            base + Duration::from_secs(6),
            GlobalRequest::release_floor(*gid, students[0]),
        )
        .unwrap();
    }

    // The sharded-session path: alongside the floor traffic, every lecture
    // runs its content plane through the same shards. The teacher opens with
    // a chat line and a whiteboard stroke and schedules a synchronized
    // playback; a student chats too — delivered immediately under Free
    // Access / Group Discussion, floor-denied under Equal Control until the
    // token moves. Everything lands in the owning shard's durable log, so
    // the state survives the crash below.
    for (i, (gid, _, teacher, students)) in lectures.iter().enumerate() {
        let base = SimTime::from_millis(3 * i as u64);
        sim.submit_session_at(
            base,
            SessionOp::chat(*gid, *teacher, "welcome to the lecture"),
        )
        .unwrap();
        sim.submit_session_at(
            base + Duration::from_millis(200),
            SessionOp::whiteboard(*gid, *teacher, "axes(0,0,10,10)"),
        )
        .unwrap();
        sim.submit_session_at(
            base + Duration::from_millis(400),
            SessionOp::schedule_media(*gid, *teacher, "slide-deck", SimTime::from_secs(8)),
        )
        .unwrap();
        sim.submit_session_at(
            base + Duration::from_millis(800),
            SessionOp::chat(
                *gid,
                students[2],
                "does this apply to nets with priorities?",
            ),
        )
        .unwrap();
    }

    // Mid-lecture, the host serving shard 1 crashes; its standby replays
    // snapshot + log and takes over 400 ms later.
    sim.schedule_crash(
        SimTime::from_secs(3),
        ShardId(1),
        Duration::from_millis(400),
    );
    sim.run_to_idle();

    println!(
        "\ntraffic: {} floor decisions, {} session acks, {} messages dropped, {} failover(s), {} retransmit(s)",
        sim.decisions().len(),
        sim.session_acks().len(),
        sim.network().dropped().len(),
        sim.failovers(),
        sim.retransmits(),
    );
    sim.cluster()
        .check_invariants()
        .expect("floor invariants hold after failover");
    println!("floor invariants: OK (unique token holders, sound suspensions)");

    // The session state survived the crash: shard 1's groups were recovered
    // by snapshot+replay, chat logs and playback schedules intact.
    let delivered = sim
        .session_acks()
        .iter()
        .filter(|(_, _, o)| o.is_delivered())
        .count();
    let rejected = sim.session_acks().len() - delivered;
    println!("sessions: {delivered} ops delivered, {rejected} floor-denied (Equal Control)");
    let (sample_gid, ..) = lectures[0];
    let view = sim
        .cluster()
        .session_view(sample_gid)
        .expect("lecture 0 exists");
    println!(
        "  lecture-0 after failover: {} chat line(s), {} stroke(s), {} scheduled playback(s)\n",
        view.chat.len(),
        view.whiteboard.len(),
        view.media.len(),
    );

    println!("per-shard grant latency (request -> decision over the simulated LAN):");
    for s in 0..SHARDS {
        let shard = ShardId(s);
        let stats = GrantLatencyStats::from_samples(sim.latencies(shard));
        let view = sim.cluster().shard_view(shard);
        println!(
            "  s{s}: {:4} samples  mean {:>9.3?}  p95 {:>9.3?}  max {:>9.3?}  | granted {:4} queued {:3} denied {:2} aborted {:2}{}",
            stats.samples,
            stats.mean,
            stats.p95,
            stats.max,
            view.stats.granted,
            view.stats.queued,
            view.stats.denied,
            view.stats.aborted,
            if view.recoveries > 0 {
                "  [recovered by standby]"
            } else {
                ""
            },
        );
    }

    // ----- scale-out: add a shard and rebalance the live campus onto it -----
    //
    // Many lectures still hold their floor tokens (Equal Control teachers and
    // students mid-pass). Both passes run the same two-phase live handoff;
    // the idle pass commits only groups whose frozen export shows an idle
    // floor, and the active pass moves the token-pinned rest, with no lost
    // or duplicated decision.
    // `ClusterSim::add_shard` (not the bare cluster call) so the new shard
    // also gets its primary + standby hosts on the simulated network.
    let new = sim.add_shard(Link::lan());
    println!("\nscale-out: shard s{} joins the ring", new.0);
    let idle_pass = sim
        .cluster_mut()
        .rebalance_idle()
        .expect("directory intact");
    println!(
        "  rebalance_idle:   {:2} idle groups migrated, {:2} token-pinned deferred",
        idle_pass.migrated.len(),
        idle_pass.deferred.len(),
    );
    let live_pass = sim
        .cluster_mut()
        .rebalance_active()
        .expect("directory intact");
    println!(
        "  rebalance_active: {:2} live handoffs (held tokens + queues moved), {} deferred",
        live_pass.migrated.len(),
        live_pass.deferred.len(),
    );
    assert!(
        live_pass.deferred.is_empty(),
        "a healthy cluster drains its deferred list"
    );
    sim.cluster()
        .check_invariants()
        .expect("floor invariants hold after live migration");
    let view = sim.cluster().shard_view(new);
    println!(
        "  s{} now serves {} groups ({} with session content), invariants OK\n",
        new.0,
        sim.cluster().groups_on(new).len(),
        view.session_groups,
    );
    // A migrated lecture keeps working where it landed: its state — token
    // queues, chat logs, schedules — moved with it.
    if let Some(&moved) = live_pass.migrated.first() {
        let placement = sim.cluster().placement(moved).expect("group exists");
        let view = sim.cluster().session_view(moved).expect("group exists");
        println!(
            "  e.g. {moved} now lives on {:?} with its token state, {} chat line(s) and {} scheduled playback(s) intact",
            placement.shard,
            view.chat.len(),
            view.media.len(),
        );
    }
}
