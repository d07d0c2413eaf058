//! Integration: a complete DMPS presentation session — floor control, chat,
//! whiteboard, annotations, a Group Discussion sub-session and synchronized
//! playback — runs sharded over `dmps-cluster`, survives a mid-session shard
//! crash by snapshot+replay, and preserves the floor invariants on every
//! shard.

use std::time::Duration;

use dmps::{ClusterSession, ClusterSessionConfig};
use dmps_cluster::ClusterConfig;
use dmps_floor::{FcmMode, Role};
use dmps_simnet::SimTime;

fn lecture(seed: u64) -> ClusterSession {
    // A low snapshot cadence makes the standby's recovery exercise both
    // halves of the durability machinery: snapshot restore *and* log-suffix
    // replay.
    let mut cluster = ClusterConfig::with_shards(4);
    cluster.snapshot_every = 8;
    // Pin the event cadence: the default byte cadence would never fire on
    // a session this small, and the test needs a checkpoint before the
    // crash.
    cluster.snapshot_every_bytes = 0;
    ClusterSession::new(
        ClusterSessionConfig::new(seed, FcmMode::EqualControl).with_cluster(cluster),
    )
}

#[test]
fn full_session_runs_sharded_with_mid_session_crash() {
    let mut session = lecture(42);
    let teacher = session.add_participant("teacher", Role::Chair).unwrap();
    let students: Vec<usize> = (0..5)
        .map(|i| {
            session
                .add_participant(format!("student-{i}"), Role::Participant)
                .unwrap()
        })
        .collect();

    // Act 1 — before the crash: the teacher takes the floor, uses every
    // communication window, and schedules the synchronized playback.
    session
        .request_floor_at(SimTime::from_millis(10), teacher)
        .unwrap();
    session
        .chat_at(SimTime::from_millis(100), teacher, "welcome to the lecture")
        .unwrap();
    session
        .whiteboard_at(SimTime::from_millis(200), teacher, "axes(0,0,10,10)")
        .unwrap();
    session
        .annotate_at(SimTime::from_millis(300), teacher, "see equation 3")
        .unwrap();
    session
        .schedule_playback_at(
            SimTime::from_millis(400),
            teacher,
            "intro-video",
            SimTime::from_secs(6),
        )
        .unwrap();
    // A student chats while the teacher holds the floor: floor-denied, and
    // the denial does not pollute the session log.
    session
        .chat_at(SimTime::from_millis(500), students[0], "premature")
        .unwrap();

    // A Group Discussion breakout spawns (placed by the ring, typically on a
    // different shard than the main group) and carries private chat.
    let sub = session
        .spawn_subsession(teacher, students[1], FcmMode::GroupDiscussion)
        .unwrap();
    session
        .chat_in_at(
            SimTime::from_millis(600),
            sub,
            students[1],
            "quick question",
        )
        .unwrap();
    session
        .chat_in_at(SimTime::from_millis(700), sub, teacher, "good catch")
        .unwrap();

    // Mid-session, the host serving the main group's shard crashes; its
    // standby completes snapshot-plus-log-replay recovery 400 ms later.
    let main = session.main_group();
    let victim = session.shard_of(main).unwrap();
    session.schedule_crash(SimTime::from_secs(1), victim, Duration::from_millis(400));

    // Act 2 — traffic spanning the outage: these requests die with the host
    // and are retransmitted (under their original ids) after failover.
    for (i, &s) in students.iter().enumerate() {
        session
            .request_floor_at(SimTime::from_millis(1_050 + 40 * i as u64), s)
            .unwrap();
    }
    session
        .release_floor_at(SimTime::from_secs(2), teacher)
        .unwrap();
    // After the release exactly one student holds the floor; everybody
    // tries to chat, and floor control lets exactly that one line through.
    for (i, &s) in students.iter().enumerate() {
        session
            .chat_at(
                SimTime::from_millis(2_500 + 50 * i as u64),
                s,
                format!("my turn now ({i})"),
            )
            .unwrap();
    }
    session.run_to_idle();

    // The crash happened and was healed by the standby.
    assert_eq!(session.failovers(), 1);
    assert!(session.retransmits() > 0, "the crash must strand traffic");
    let shard_view = session.sim().cluster().shard_view(victim);
    assert_eq!(shard_view.recoveries, 1, "standby recovery ran");
    assert!(
        shard_view.has_snapshot,
        "recovery restored a cadence snapshot before replaying the log"
    );

    // The floor invariants hold on every shard, and the directory is sound.
    session.check_invariants().unwrap();

    // The pre-crash session state survived snapshot+replay: every window, in
    // order, plus the durable playback schedule.
    let view = session.session_view(main).unwrap();
    assert_eq!(view.chat.len(), 2, "teacher's line + exactly one student");
    assert_eq!(&*view.chat[0].1, "welcome to the lecture");
    assert!(view.chat[1].1.starts_with("my turn now"));
    assert_eq!(view.whiteboard.len(), 1);
    assert_eq!(view.annotations.len(), 1);
    assert_eq!(
        view.media,
        vec![("intro-video".into(), SimTime::from_secs(6))]
    );

    // Synchronized playback: one record per member, all starting at the same
    // global instant.
    let playbacks = session.playbacks(main).unwrap();
    assert_eq!(playbacks.len(), 6);
    assert!(playbacks
        .iter()
        .all(|(_, media, start)| &**media == "intro-video" && *start == SimTime::from_secs(6)));

    // The sub-session's private chat is intact on its own shard.
    let sub_view = session.session_view(sub).unwrap();
    assert_eq!(sub_view.chat.len(), 2);
    assert_eq!(&*sub_view.chat[0].1, "quick question");

    // Exactly-once accounting: every submission — floor and session — was
    // answered exactly once despite drops and retries.
    let mut floor_seqs: Vec<u64> = session.decisions().iter().map(|(s, ..)| *s).collect();
    floor_seqs.sort_unstable();
    floor_seqs.dedup();
    assert_eq!(floor_seqs.len(), 7, "1 + 5 speaks + 1 release");
    let mut ack_seqs: Vec<u64> = session.session_acks().iter().map(|(s, ..)| *s).collect();
    ack_seqs.sort_unstable();
    ack_seqs.dedup();
    assert_eq!(ack_seqs.len(), 12, "5 main ops + 2 sub ops + 5 chat races");
    // Of the five post-release chat attempts, exactly one was delivered.
    let delivered_races = session
        .session_acks()
        .iter()
        .filter(|(_, g, o)| *g == main && o.is_delivered())
        .count();
    assert_eq!(delivered_races, 5, "welcome + wb + annot + media + 1 race");
}

#[test]
fn sharded_sessions_are_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut session = lecture(seed);
        let teacher = session.add_participant("teacher", Role::Chair).unwrap();
        let alice = session.add_participant("alice", Role::Participant).unwrap();
        session
            .request_floor_at(SimTime::from_millis(10), teacher)
            .unwrap();
        session
            .chat_at(SimTime::from_millis(50), teacher, "hello")
            .unwrap();
        session
            .chat_at(SimTime::from_millis(60), alice, "blocked")
            .unwrap();
        let victim = session.shard_of(session.main_group()).unwrap();
        session.schedule_crash(
            SimTime::from_millis(100),
            victim,
            Duration::from_millis(200),
        );
        session
            .release_floor_at(SimTime::from_millis(400), teacher)
            .unwrap();
        session.run_to_idle();
        session.check_invariants().unwrap();
        (
            session.session_view(session.main_group()).unwrap(),
            session.decisions().to_vec(),
            session.session_acks().to_vec(),
            session.retransmits(),
        )
    };
    assert_eq!(run(2024), run(2024), "identical seeds reproduce exactly");
}
