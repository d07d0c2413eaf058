//! Equivalence properties of the incremental-checkpoint subsystem: for any
//! randomized op sequence and any checkpoint policy (byte- or event-count
//! cadence, any chain cap), a shard recovered from a **base + delta chain**
//! holds exactly the state of one recovered from **full snapshots only**,
//! which holds exactly the state of one recovered by **pure log replay** —
//! all three wire-byte-identical to the live shard that never crashed.
//!
//! This is the correctness contract that lets the checkpoint pause shrink
//! from O(shard) to O(dirty-since-last-checkpoint): the differential chain
//! must be an *indistinguishable* durability format, not an approximation.
//!
//! And the window-soundness property the differential format itself owes its
//! restorers: a delta carries, per dirty group, only the session entries its
//! window appended (*truncate to the window's start, then extend*), yet it
//! must fold onto a restorer positioned at **any** log position inside the
//! window — including across a purge → install — and land exactly on the
//! live state at the delta's cut.

use std::collections::BTreeSet;

use dmps_cluster::session::{SessionEvent, SessionStore};
use dmps_cluster::{
    GlobalGroupId, GlobalMemberId, GroupSession, SessionOpKind, Shard, ShardId, SnapshotDelta,
};
use dmps_floor::snapshot::ArbiterEvent;
use dmps_floor::{FcmMode, FloorArbiter, FloorRequest, GroupId, Member, MemberId, Role};
use proptest::prelude::*;

const GROUPS: usize = 3;
const MEMBERS: usize = 4;

/// One step of the randomized workload, addressing groups/members by index.
#[derive(Debug, Clone, Copy)]
enum Op {
    Speak(usize, usize),
    Release(usize, usize),
    Pass(usize, usize, usize),
    Chat(usize, usize),
    /// Freeze + unfreeze one group (an aborted handoff) so frozen-set
    /// carriage through deltas is exercised too.
    FreezeThaw(usize),
    /// The group's session content migrates away.
    Purge(usize),
    /// Session content migrates in: merged on top of what is there, or —
    /// right after a purge — starting the group's lanes over.
    Install(usize, usize),
    /// Both, back to back: always inside one checkpoint window.
    PurgeInstall(usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..GROUPS, 0..MEMBERS).prop_map(|(g, m)| Op::Speak(g, m)),
        (0..GROUPS, 0..MEMBERS).prop_map(|(g, m)| Op::Release(g, m)),
        (0..GROUPS, 0..MEMBERS, 0..MEMBERS).prop_map(|(g, a, b)| Op::Pass(g, a, b)),
        (0..GROUPS, 0..MEMBERS).prop_map(|(g, m)| Op::Chat(g, m)),
        (0..GROUPS).prop_map(Op::FreezeThaw),
        (0..GROUPS).prop_map(Op::Purge),
        (0..GROUPS, 0..MEMBERS).prop_map(|(g, n)| Op::Install(g, n)),
        (0..GROUPS, 0..MEMBERS).prop_map(|(g, n)| Op::PurgeInstall(g, n)),
    ]
}

/// A shard with `GROUPS` Equal Control groups of `MEMBERS` members each.
fn build(snapshot_every: u64, every_bytes: u64, chain: u64) -> Shard {
    let mut shard = Shard::new(ShardId(0), snapshot_every, 256);
    shard.set_snapshot_policy(every_bytes, chain);
    for g in 0..GROUPS {
        shard
            .apply(ArbiterEvent::CreateGroup {
                name: format!("g{g}"),
                mode: FcmMode::EqualControl,
            })
            .unwrap();
        for m in 0..MEMBERS {
            let role = if m == 0 {
                Role::Chair
            } else {
                Role::Participant
            };
            shard
                .apply(ArbiterEvent::AddMember {
                    group: GroupId(g),
                    member: Member::new(format!("g{g}m{m}"), role),
                })
                .unwrap();
        }
    }
    shard
}

/// Applies one op; rejections (releasing a floor one does not hold, passing
/// to oneself, …) are part of the sequence and must reject identically on
/// every shard.
fn apply(shard: &mut Shard, op: Op) -> String {
    match op {
        Op::Speak(g, m) => format!(
            "{:?}",
            shard.apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(g), MemberId(m)),
            })
        ),
        Op::Release(g, m) => format!(
            "{:?}",
            shard.apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::release_floor(GroupId(g), MemberId(m)),
            })
        ),
        Op::Pass(g, a, b) => format!(
            "{:?}",
            shard.apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::pass_floor(GroupId(g), MemberId(a), MemberId(b)),
            })
        ),
        Op::Chat(g, m) => format!(
            "{:?}",
            shard.apply_session(SessionEvent {
                group: GlobalGroupId(g as u64),
                local_group: GroupId(g),
                from: GlobalMemberId((g * MEMBERS + m) as u64),
                local_from: MemberId(m),
                kind: SessionOpKind::Chat {
                    text: format!("g{g}m{m}").into(),
                },
            })
        ),
        Op::FreezeThaw(g) => {
            let global = GlobalGroupId(g as u64);
            let prepared = shard.handoff_prepare(global, GroupId(g)).is_ok();
            if prepared {
                shard.handoff_abort(global).unwrap();
            }
            format!("freeze-thaw {prepared}")
        }
        Op::Purge(g) => format!("{:?}", shard.extract_session(GlobalGroupId(g as u64))),
        Op::Install(g, n) => {
            let from = GlobalMemberId(n as u64);
            let content = GroupSession {
                chat: (0..n).map(|i| (from, format!("in{i}").into())).collect(),
                whiteboard: vec![(from, "stroke".into())],
                ..GroupSession::default()
            };
            format!(
                "{:?}",
                shard.install_session(GlobalGroupId(g as u64), content)
            )
        }
        Op::PurgeInstall(g, n) => {
            apply(shard, Op::Purge(g));
            apply(shard, Op::Install(g, n))
        }
    }
}

/// The live state a restorer would hold at the shard's current log position.
type Restorer = (FloorArbiter, SessionStore, BTreeSet<GlobalGroupId>);

fn restorer(shard: &Shard) -> Restorer {
    let frozen = (0..GROUPS as u64).map(GlobalGroupId);
    (
        shard.arbiter().clone(),
        shard.session().clone(),
        frozen.filter(|g| shard.is_frozen(*g)).collect(),
    )
}

fn folded(delta: &SnapshotDelta, mut onto: Restorer) -> Result<Restorer, String> {
    delta.fold(&mut onto.0, &mut onto.1, &mut onto.2)?;
    Ok(onto)
}

/// Everything a shard's durable state reconstructs: the arbiter (wire
/// encoding — token holders, queues, stats, all of it), the session store,
/// and the frozen set.
fn fingerprint(shard: &Shard) -> (String, String, usize) {
    (
        dmps_wire::to_string(shard.arbiter()),
        dmps_wire::to_string(shard.session()),
        shard.view().frozen_groups,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_chain_restore_equals_full_snapshot_restore_equals_log_replay(
        ops in proptest::collection::vec(arb_op(), 8..96),
        snapshot_every in 1u64..24,
        every_bytes in prop_oneof![Just(0u64), 64u64..4096],
        chain in 1u64..8,
        // Past the op range means "crash only at the end".
        mid_crash in 0usize..192,
    ) {
        // Same cadence everywhere; only the checkpoint *format* differs.
        let mut chained = build(snapshot_every, every_bytes, chain);
        let mut full = build(snapshot_every, every_bytes, 0);
        let mut log_only = build(0, 0, 0);

        for (i, &op) in ops.iter().enumerate() {
            if mid_crash == i {
                for shard in [&mut chained, &mut full, &mut log_only] {
                    shard.crash();
                    shard.recover().unwrap();
                }
            }
            let a = apply(&mut chained, op);
            let b = apply(&mut full, op);
            let c = apply(&mut log_only, op);
            prop_assert_eq!(&a, &b, "chained vs full diverged at op {} ({:?})", i, op);
            prop_assert_eq!(&b, &c, "full vs log-only diverged at op {} ({:?})", i, op);
        }

        let live = fingerprint(&chained);
        prop_assert_eq!(&live, &fingerprint(&full));
        prop_assert_eq!(&live, &fingerprint(&log_only));

        // The final crash: every shard rebuilds from its own durable format
        // — base + delta chain, full snapshots, or the bare log.
        for shard in [&mut chained, &mut full, &mut log_only] {
            shard.crash();
            shard.recover().unwrap();
            shard.arbiter().check_invariants().unwrap();
            prop_assert_eq!(&fingerprint(shard), &live, "recovery lost state");
        }
    }

    /// Checkpoints at random cuts of a random floor / session / purge /
    /// install stream. Every delta, folded onto the state at *every* log
    /// position of its window, gives exactly the live state at its cut, and
    /// so does the shard's own base + chain recovery.
    #[test]
    fn a_delta_folds_from_anywhere_inside_its_window(
        windows in proptest::collection::vec(
            (proptest::collection::vec(arb_op(), 0..12), 0usize..GROUPS, 0usize..MEMBERS),
            2..7,
        ),
    ) {
        let mut shard = build(0, 0, 64);
        shard.take_snapshot();
        // The restorer positions of the current window, its start included.
        let mut inside = vec![restorer(&shard)];
        for (ops, g, n) in windows {
            // By construction every case grows group 0 in consecutive
            // windows and crosses a purge → install (then more growth)
            // inside one window; installs cannot be floor-denied.
            let fixed = [Op::Install(0, 1), Op::PurgeInstall(g, n), Op::Install(g, 1)];
            for op in fixed.into_iter().chain(ops) {
                apply(&mut shard, op);
                inside.push(restorer(&shard));
            }
            let delta = shard.take_delta().clone();
            let cut = inside.last().expect("window start").clone();
            prop_assert_eq!(delta.applied_seq(), shard.log().next_seq());
            for (at, position) in inside.iter().enumerate() {
                let landed = folded(&delta, position.clone());
                prop_assert_eq!(landed.as_ref(), Ok(&cut), "restorer at offset {} of the window", at);
            }
            // The chain a crashed shard recovers from is the same fold.
            shard.crash();
            shard.recover().unwrap();
            prop_assert_eq!(&restorer(&shard), &cut);
            shard.arbiter().check_invariants().unwrap();
            inside = vec![cut];
        }
    }
}
