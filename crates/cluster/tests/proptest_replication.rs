//! Properties of the replicated write path, under seeded loss on the
//! replica links:
//!
//! 1. **Quorum-committed log ≡ single log**: for any randomized op sequence,
//!    a replicated cluster (any fleet size, lossy links, an optional
//!    mid-sequence crash-and-promote) produces exactly the same decisions
//!    and final floor/session state as an unreplicated cluster applying the
//!    same sequence.
//! 2. **Read-your-writes**: follower-served reads issued between writes
//!    never lag the reader's own acknowledged writes — every view matches
//!    the unreplicated reference exactly at the same point in the sequence.

use dmps_cluster::{
    Cluster, ClusterConfig, GlobalGroupId, GlobalMemberId, GlobalRequest, SessionOp,
};
use dmps_floor::{FcmMode, Member, Role};
use dmps_simnet::Link;
use proptest::prelude::*;

const MEMBERS: usize = 4;

/// One step of the randomized workload, addressing members by index.
#[derive(Debug, Clone, Copy)]
enum Op {
    Speak(usize),
    Release(usize),
    Pass(usize, usize),
    Chat(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..MEMBERS).prop_map(Op::Speak),
        (0..MEMBERS).prop_map(Op::Release),
        (0..MEMBERS, 0..MEMBERS).prop_map(|(a, b)| Op::Pass(a, b)),
        (0..MEMBERS).prop_map(Op::Chat),
    ]
}

/// A 2-shard cluster with one Equal Control group and `MEMBERS` members.
fn build(replicas: usize, loss: f64) -> (Cluster, GlobalGroupId, Vec<GlobalMemberId>) {
    let config = ClusterConfig {
        replicas,
        replica_link: Link {
            loss_rate: loss,
            ..Link::replica()
        },
        ..ClusterConfig::with_shards(2)
    };
    let cluster = Cluster::new(config);
    let group = cluster
        .create_group("lecture", FcmMode::EqualControl)
        .unwrap();
    let roster: Vec<_> = (0..MEMBERS)
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

/// Applies one op synchronously, returning a comparable outcome rendering.
fn apply(cluster: &mut Cluster, group: GlobalGroupId, roster: &[GlobalMemberId], op: Op) -> String {
    match op {
        Op::Speak(a) => format!(
            "{:?}",
            cluster.request(GlobalRequest::speak(group, roster[a]))
        ),
        Op::Release(a) => format!(
            "{:?}",
            cluster.request(GlobalRequest::release_floor(group, roster[a]))
        ),
        Op::Pass(a, b) => format!(
            "{:?}",
            cluster.request(GlobalRequest::pass_floor(group, roster[a], roster[b]))
        ),
        Op::Chat(a) => format!(
            "{:?}",
            cluster.session(SessionOp::chat(group, roster[a], format!("chat-{a}")))
        ),
    }
}

/// The observable read state at one point in the sequence: every member's
/// queue position plus the group's session content.
fn observe(cluster: &Cluster, group: GlobalGroupId, roster: &[GlobalMemberId]) -> String {
    let positions: Vec<_> = roster
        .iter()
        .map(|&m| cluster.queue_position(group, m).ok().flatten())
        .collect();
    let view = cluster.session_view(group).unwrap();
    format!(
        "{positions:?} | {} chat lines | {:?}",
        view.chat.len(),
        view.chat
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replicated_run_is_equivalent_to_unreplicated(
        ops in proptest::collection::vec(arb_op(), 4..48),
        replicas in 1usize..4,
        loss_step in 0usize..3,
        // Values past the op-count range mean "never crash"; the rest name
        // the op index to crash before.
        crash_at in 0usize..96,
    ) {
        let loss = [0.0, 0.15, 0.35][loss_step];
        let (mut replicated, group, roster) = build(replicas, loss);
        let (mut reference, ref_group, ref_roster) = build(0, 0.0);
        let shard = replicated.placement(group).unwrap().shard;
        prop_assert_eq!(shard, reference.placement(ref_group).unwrap().shard);

        for (i, &op) in ops.iter().enumerate() {
            // An optional crash mid-sequence: the replicated cluster fails
            // over by follower promotion, the reference by full
            // snapshot+log replay — they must converge on the same state.
            if crash_at == i {
                replicated.crash_shard(shard);
                replicated.recover_shard(shard).unwrap();
                reference.crash_shard(shard);
                reference.recover_shard(shard).unwrap();
            }
            let a = apply(&mut replicated, group, &roster, op);
            let b = apply(&mut reference, ref_group, &ref_roster, op);
            prop_assert_eq!(&a, &b, "decision diverged at op {} ({:?})", i, op);
            // Read-your-writes: reads right after the acked write observe
            // it, whether a follower or the leader serves them. The
            // unreplicated reference *is* the leader's state, so equality
            // here is exactly the RYW bound holding.
            let ra = observe(&replicated, group, &roster);
            let rb = observe(&reference, ref_group, &ref_roster);
            prop_assert_eq!(&ra, &rb, "read diverged at op {} ({:?})", i, op);
        }

        // Final state equivalence, compared on the wire encoding of the
        // owning shard's arbiter (token holders, queues, suspension order —
        // everything).
        replicated.check_invariants().unwrap();
        reference.check_invariants().unwrap();
        let a = dmps_wire::to_string(&replicated.arbiter(shard));
        let b = dmps_wire::to_string(&reference.arbiter(shard));
        prop_assert_eq!(a, b, "final arbiter state diverged");
    }

    #[test]
    fn follower_reads_never_violate_ryw_under_loss(
        writes in 4usize..32,
        replicas in 1usize..4,
    ) {
        // Lossy links mean some followers lag behind the quorum; the bound
        // must route those reads to the leader instead of serving stale
        // state.
        let (cluster, group, roster) = build(replicas, 0.35);
        let gateway = cluster.gateway();
        gateway.request(GlobalRequest::speak(group, roster[0])).unwrap();
        for i in 0..writes {
            let seq = gateway
                .submit_session(SessionOp::chat(group, roster[0], format!("line {i}")))
                .unwrap();
            let ack = gateway.recv_session_decision().unwrap();
            prop_assert_eq!(ack.seq, seq);
            prop_assert!(ack.commit > 0);
            let view = gateway.session_view(group).unwrap();
            prop_assert_eq!(view.chat.len(), i + 1, "own write invisible at {}", i);
        }
    }
}
