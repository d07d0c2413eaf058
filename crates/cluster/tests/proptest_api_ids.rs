//! Property: arbitrary `GlobalGroupId` / `GlobalMemberId` / invitation ids —
//! known and unknown mixed — through every id-taking `Gateway` method yield
//! a typed `ClusterError` or exactly one failed decision per id on the right
//! stream, never a panic, and `check_invariants` holds afterwards.

use dmps_cluster::{
    Cluster, ClusterConfig, Gateway, GlobalGroupId, GlobalMemberId, GlobalRequest, Op, SessionOp,
    ShardId,
};
use dmps_floor::{FcmMode, Member, Role};
use proptest::prelude::*;

const SHARDS: usize = 2;
const GROUPS: u64 = 3;
const MEMBERS: u64 = 6;

/// Ids around the known ranges, plus the far end of the id space.
fn arb_id() -> impl Strategy<Value = u64> {
    (0u64..9).prop_map(|id| if id == 8 { u64::MAX } else { id })
}

/// One API call: the method, a group id, two member ids (the second doubles
/// as invitation id / retry id), and a variant selector.
fn arb_call() -> impl Strategy<Value = (u8, u64, u64, u64, u8)> {
    (0u8..15, arb_id(), arb_id(), arb_id(), 0u8..8)
}

/// What the test knows to exist; grows as invitations spawn sub-groups.
struct Known {
    groups: u64,
    invitations: u64,
}

impl Known {
    fn floor(&self, r: &GlobalRequest) -> bool {
        use dmps_cluster::GlobalRequestKind::{DirectContact, PassFloor};
        let to = match r.kind {
            PassFloor { to } | DirectContact { to } => to.0,
            _ => 0,
        };
        r.group.0 < self.groups && r.member.0 < MEMBERS && to < MEMBERS
    }

    fn session(&self, op: &SessionOp) -> bool {
        op.group.0 < self.groups && op.from.0 < MEMBERS
    }

    fn op(&self, op: &Op) -> bool {
        match op {
            Op::Floor(r) => self.floor(r),
            Op::Session(s) => self.session(s),
        }
    }
}

fn floor_request(g: u64, m: u64, n: u64, variant: u8) -> GlobalRequest {
    let (g, m, n) = (GlobalGroupId(g), GlobalMemberId(m), GlobalMemberId(n));
    match variant % 4 {
        0 => GlobalRequest::speak(g, m),
        1 => GlobalRequest::release_floor(g, m),
        2 => GlobalRequest::pass_floor(g, m, n),
        _ => GlobalRequest::direct_contact(g, m, n),
    }
}

fn session_op(g: u64, m: u64, variant: u8) -> SessionOp {
    let (g, m) = (GlobalGroupId(g), GlobalMemberId(m));
    match variant % 2 {
        0 => SessionOp::chat(g, m, "line"),
        _ => SessionOp::whiteboard(g, m, "stroke"),
    }
}

/// Takes exactly the decisions of `ops` (submitted under ascending `seqs`)
/// off the stream of each op's kind, and checks every unknown-id op failed.
fn settle(gw: &Gateway, known: &Known, ops: &[Op], seqs: &[u64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(ops.len(), seqs.len());
    let sessions = ops.iter().filter(|op| op.is_session()).count();
    // Shards answer in their own time: only sorted by id is a stream's
    // order the submission order.
    let floor = gw.collect_decisions(ops.len() - sessions).unwrap();
    let mut floor = floor.iter().map(|d| (d.seq, d.outcome.is_err()));
    let mut session: Vec<_> = (0..sessions)
        .map(|_| gw.recv_session_decision().unwrap())
        .map(|d| (d.seq, d.outcome.is_err()))
        .collect();
    session.sort_unstable();
    let mut session = session.into_iter();
    for (op, &seq) in ops.iter().zip(seqs) {
        let lane: &mut dyn Iterator<Item = (u64, bool)> = match op {
            Op::Floor(_) => &mut floor,
            Op::Session(_) => &mut session,
        };
        let (answered, failed) = lane.next().unwrap();
        prop_assert_eq!(answered, seq, "an id is answered on the stream of its kind");
        prop_assert!(known.op(op) || failed, "unknown id must fail: {:?}", op);
    }
    Ok(())
}

proptest! {
    #[test]
    fn arbitrary_ids_fail_typed_and_never_panic(
        calls in proptest::collection::vec(arb_call(), 1..40),
    ) {
        let cluster = Cluster::new(ClusterConfig::with_shards(SHARDS));
        let gw = cluster.gateway();
        for g in 0..GROUPS {
            let gid = gw.create_group(format!("g{g}"), FcmMode::EqualControl).unwrap();
            prop_assert_eq!(gid, GlobalGroupId(g));
        }
        for m in 0..MEMBERS {
            let role = if m == 0 { Role::Chair } else { Role::Participant };
            let mid = gw.register_member(Member::new(format!("m{m}"), role));
            for g in 0..GROUPS {
                gw.join_group(GlobalGroupId(g), mid).unwrap();
            }
        }
        let mut known = Known { groups: GROUPS, invitations: 0 };

        for (method, g, m, n, variant) in calls {
            let (gid, mid, nid) = (GlobalGroupId(g), GlobalMemberId(m), GlobalMemberId(n));
            let floor = floor_request(g, m, n, variant);
            let content = session_op(g, m, variant);
            let ids_known = g < known.groups && m < MEMBERS;
            match method {
                // Scalar paths: a typed routing error up front, or an id
                // that resolves to exactly one decision.
                0 => {
                    if let Ok(seq) = gw.submit(floor) {
                        settle(&gw, &known, &[Op::Floor(floor)], &[seq])?;
                    }
                }
                1 => {
                    if let Ok(seq) = gw.submit_session(content.clone()) {
                        settle(&gw, &known, &[Op::Session(content)], &[seq])?;
                    }
                }
                2 => {
                    // A batch mixing this call's ids with a surely-known op.
                    let sure = GlobalRequest::speak(GlobalGroupId(0), GlobalMemberId(0));
                    let requests = [floor, sure];
                    let seqs = gw.submit_batch(&requests);
                    settle(&gw, &known, &requests.map(Op::Floor), &seqs)?;
                }
                3 => {
                    let ops = vec![Op::Session(content), Op::Floor(floor)];
                    let seqs = gw.submit_ops(ops.clone());
                    settle(&gw, &known, &ops, &seqs)?;
                }
                4 => {
                    let batch = [content, session_op(0, 0, variant)];
                    let seqs = gw.submit_session_batch(batch.to_vec());
                    settle(&gw, &known, &batch.map(Op::Session), &seqs)?;
                }
                5 => {
                    if gw.resubmit(n, floor).is_ok() {
                        settle(&gw, &known, &[Op::Floor(floor)], &[n])?;
                    }
                }
                6 => {
                    if gw.resubmit_session(n, content.clone()).is_ok() {
                        settle(&gw, &known, &[Op::Session(content)], &[n])?;
                    }
                }
                7 => {
                    let outcome = gw.request(floor);
                    prop_assert!(known.floor(&floor) || outcome.is_err());
                }
                8 => {
                    let outcome = gw.session(content);
                    prop_assert!(ids_known || outcome.is_err());
                }
                9 => prop_assert_eq!(gw.session_view(gid).is_ok(), g < known.groups),
                10 => {
                    let position = gw.queue_position(gid, mid);
                    prop_assert!(ids_known || position.is_err());
                }
                11 => {
                    let changed = if variant % 2 == 0 {
                        gw.join_group(gid, mid)
                    } else {
                        gw.leave_group(gid, mid)
                    };
                    prop_assert!(ids_known || changed.is_err());
                }
                12 => {
                    // Placement targets range over real shards and one past.
                    let target = (variant < 6).then_some(ShardId(variant as usize % (SHARDS + 1)));
                    let all_known =
                        ids_known && n < MEMBERS && target.is_none_or(|s| s.0 < SHARDS);
                    match gw.invite(gid, mid, nid, FcmMode::GroupDiscussion, target) {
                        Ok((sub, invitation)) => {
                            prop_assert!(all_known);
                            prop_assert_eq!((sub.0, invitation), (known.groups, known.invitations));
                            known.groups += 1;
                            known.invitations += 1;
                        }
                        Err(_) => prop_assert_eq!(cluster.group_count() as u64, known.groups),
                    }
                }
                13 => {
                    let answered = gw.respond_invitation(n, mid, variant % 2 == 0);
                    prop_assert!(n < known.invitations || answered.is_err());
                    prop_assert_eq!(gw.invitation(n).is_ok(), n < known.invitations);
                }
                _ => prop_assert_eq!(gw.placement(gid).is_ok(), g < known.groups),
            }
            // Nothing beyond the accounted decisions ever reaches a stream.
            prop_assert!(gw.try_recv_decision().is_none());
            prop_assert!(gw.try_recv_session_decision().is_none());
        }
        prop_assert!(cluster.check_invariants().is_ok());
    }
}
