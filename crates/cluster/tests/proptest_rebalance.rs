//! Property: for *any* randomized mix of idle, token-holding and
//! queue-backed groups, scale-out rebalancing converges — `rebalance_idle`
//! moves the idle groups and defers the active ones, `rebalance_active`
//! drains that deferred list completely — with the floor invariants and
//! exactly-once decision accounting preserved throughout. Some groups share
//! one chair-role member, so a move can reach the destination through
//! `JoinGroup` (which elects no chair); every group must still keep its
//! chair and its token's grant count, whichever pass moved it.

use std::collections::BTreeSet;

use dmps_cluster::{Cluster, ClusterConfig, GlobalGroupId, GlobalMemberId, GlobalRequest};
use dmps_floor::{FcmMode, Member, Role};
use proptest::prelude::*;

/// Per-group floor activity the generator chooses from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Activity {
    /// No token holder, no queue: movable by `rebalance_idle`.
    Idle,
    /// Member 0 holds the token.
    Held,
    /// Member 0 holds the token, members 1.. queue behind it.
    HeldWithQueue,
}

fn arb_activity() -> impl Strategy<Value = Activity> {
    prop_oneof![
        Just(Activity::Idle),
        Just(Activity::Held),
        Just(Activity::HeldWithQueue),
    ]
}

/// A group's chair (as a global id) and its token's grant count, read on
/// whichever shard serves the group now.
fn chair_and_grants(cluster: &Cluster, group: GlobalGroupId) -> (Option<GlobalMemberId>, u64) {
    let placement = cluster.placement(group).unwrap();
    let arbiter = cluster.arbiter(placement.shard);
    let chair = arbiter.group(placement.local).unwrap().chair;
    let chair = chair.map(|c| cluster.global_member(placement.shard, c).unwrap());
    let grants = arbiter.token(placement.local).unwrap().grant_count();
    (chair, grants)
}

fn total_granted(cluster: &Cluster) -> u64 {
    cluster
        .shard_stats()
        .iter()
        .map(|(_, stats)| stats.granted)
        .sum()
}

proptest! {
    #[test]
    fn randomized_mix_drains_deferred_with_invariants_and_exactly_once(
        activities in proptest::collection::vec(arb_activity(), 8..32),
        shards in 2usize..5,
        shares_dean in proptest::collection::vec(proptest::bool::ANY, 32),
        warmed in proptest::collection::vec(proptest::bool::ANY, 32),
    ) {
        let mut cluster = Cluster::new(ClusterConfig::with_shards(shards));
        let dean = cluster.register_member(Member::new("dean", Role::Chair));
        let mut rosters = Vec::new();
        let mut gids = Vec::new();
        for (g, _) in activities.iter().enumerate() {
            let gid = cluster
                .create_group(format!("g{g}"), FcmMode::EqualControl)
                .unwrap();
            let roster: Vec<_> = (0..3)
                .map(|m| {
                    let role = if m == 0 { Role::Chair } else { Role::Participant };
                    let member = if m == 0 && shares_dean[g] {
                        dean
                    } else {
                        cluster.register_member(Member::new(format!("u{g}-{m}"), role))
                    };
                    cluster.join_group(gid, member).unwrap();
                    member
                })
                .collect();
            gids.push(gid);
            rosters.push(roster);
        }
        // Some idle groups have granted and released the floor once, so
        // their token carries a grant count the move must keep.
        for ((gid, roster), activity) in gids.iter().zip(&rosters).zip(&activities) {
            if *activity == Activity::Idle && warmed[gid.0 as usize] {
                let speak = cluster.request(GlobalRequest::speak(*gid, roster[0]));
                prop_assert!(speak.unwrap().is_granted());
                cluster.request(GlobalRequest::release_floor(*gid, roster[0])).unwrap();
            }
        }
        // Build the requested floor state, journaling every decision.
        let mut journaled = Vec::new();
        for ((gid, roster), activity) in gids.iter().zip(&rosters).zip(&activities) {
            let speakers = match activity {
                Activity::Idle => 0,
                Activity::Held => 1,
                Activity::HeldWithQueue => roster.len(),
            };
            for &m in roster.iter().take(speakers) {
                let speak = GlobalRequest::speak(*gid, m);
                journaled.push((cluster.submit(speak).unwrap(), speak));
            }
        }
        let originals: std::collections::BTreeMap<u64, _> = cluster
            .collect_decisions(journaled.len())
            .unwrap()
            .into_iter()
            .map(|d| (d.seq, d))
            .collect();
        cluster.check_invariants().unwrap();
        let granted_before = total_granted(&cluster);
        let floors_before: Vec<_> = gids.iter().map(|&g| chair_and_grants(&cluster, g)).collect();

        cluster.add_shard();
        let idle_pass = cluster.rebalance_idle().unwrap();
        cluster.check_invariants().unwrap();
        // The idle pass never moves an active group.
        for g in &idle_pass.migrated {
            prop_assert_eq!(activities[g.0 as usize], Activity::Idle);
        }
        // Every deferred group is drained by the live pass, none is lost and
        // none moves twice.
        let live_pass = cluster.rebalance_active().unwrap();
        cluster.check_invariants().unwrap();
        prop_assert!(live_pass.deferred.is_empty());
        prop_assert_eq!(&live_pass.migrated, &idle_pass.deferred);
        let idle_set: BTreeSet<GlobalGroupId> = idle_pass.migrated.iter().copied().collect();
        let live_set: BTreeSet<GlobalGroupId> = live_pass.migrated.iter().copied().collect();
        prop_assert!(idle_set.is_disjoint(&live_set));

        // Every group kept its chair and its token's grant count, whichever
        // pass moved it (or none did).
        for (gid, before) in gids.iter().zip(&floors_before) {
            prop_assert_eq!(&chair_and_grants(&cluster, *gid), before, "group {}", gid);
        }

        // Exactly-once accounting: migration re-arbitrated nothing…
        prop_assert_eq!(total_granted(&cluster), granted_before);
        // …and every journaled pre-migration decision still replays
        // identically, wherever its group lives now.
        let gateway = cluster.gateway();
        for (seq, speak) in &journaled {
            gateway.resubmit(*seq, *speak).unwrap();
            let retry = gateway.recv_decision().unwrap();
            prop_assert_eq!(retry.seq, *seq);
            prop_assert!(retry.replayed);
            prop_assert_eq!(&retry.outcome, &originals[seq].outcome);
        }
        prop_assert_eq!(total_granted(&cluster), granted_before);

        // Token state survived per activity: holders still hold, queues kept
        // FIFO order, and the arbitration resumes seamlessly.
        for ((gid, roster), activity) in gids.iter().zip(&rosters).zip(&activities) {
            let placement = cluster.placement(*gid).unwrap();
            let token = cluster
                .arbiter(placement.shard)
                .token(placement.local)
                .unwrap()
                .clone();
            match activity {
                Activity::Idle => prop_assert!(token.holder().is_none()),
                Activity::Held | Activity::HeldWithQueue => {
                    let holder = cluster.local_member(roster[0], placement.shard).unwrap();
                    prop_assert_eq!(token.holder(), Some(holder));
                    if *activity == Activity::HeldWithQueue {
                        let queued: Vec<_> = roster[1..]
                            .iter()
                            .map(|&m| cluster.local_member(m, placement.shard).unwrap())
                            .collect();
                        prop_assert_eq!(token.queue().collect::<Vec<_>>(), queued);
                    }
                }
            }
        }
        cluster.check_invariants().unwrap();
    }
}
