//! Bench: live-migration throughput of `rebalance_active` — groups per
//! second moved to a freshly added shard while every group is floor-active
//! (held token + queued requester), i.e. in exactly the state
//! `rebalance_idle` can never move.
//!
//! Two cases:
//!
//! * `quiescent` — no traffic during the migration: the pure cost of the
//!   two-phase handoff (freeze, export, install via logged events, directory
//!   flip, source purge) per group.
//! * `under-ingest` — a gateway thread keeps streaming speak requests at the
//!   migrating groups throughout. Submissions that hit a frozen window park
//!   at the routing layer and are re-driven after the commit, so the ingest
//!   thread still collects every decision — the bench asserts that, which
//!   keeps the "migration does not lose traffic" property honest under
//!   timing pressure.
//!
//! Each iteration builds the displaced state from scratch (a migration is
//! one-shot), so the reported mean includes campus setup; the relative gap
//! between the two cases isolates what concurrent ingest costs.

use std::sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dmps_cluster::{Cluster, ClusterConfig, GlobalGroupId, GlobalMemberId, GlobalRequest};
use dmps_floor::{FcmMode, Member, Role};

const SHARDS: usize = 4;
const GROUPS: usize = 64;
const MEMBERS: usize = 3;

/// A campus where every group is floor-active: member 0 holds the token and
/// member 1 queues behind it.
fn busy_campus() -> (Cluster, Vec<(GlobalGroupId, Vec<GlobalMemberId>)>) {
    let cluster = Cluster::new(ClusterConfig {
        snapshot_every: 0,
        snapshot_every_bytes: 0,
        dedup_window: 256,
        ..ClusterConfig::with_shards(SHARDS)
    });
    let mut lectures = Vec::new();
    for g in 0..GROUPS {
        let gid = cluster
            .create_group(format!("lecture-{g}"), FcmMode::EqualControl)
            .expect("all shards active");
        let roster: Vec<GlobalMemberId> = (0..MEMBERS)
            .map(|m| {
                let role = if m == 0 {
                    Role::Chair
                } else {
                    Role::Participant
                };
                let member = cluster.register_member(Member::new(format!("u{g}-{m}"), role));
                cluster.join_group(gid, member).expect("fresh group");
                member
            })
            .collect();
        cluster
            .request(GlobalRequest::speak(gid, roster[0]))
            .expect("token granted");
        cluster
            .request(GlobalRequest::speak(gid, roster[1]))
            .expect("request queued");
        lectures.push((gid, roster));
    }
    (cluster, lectures)
}

fn bench_rebalance(c: &mut Criterion) {
    let mut group = c.benchmark_group("rebalance_active");
    group.sample_size(10);
    group.throughput(Throughput::Elements(GROUPS as u64));

    group.bench_with_input(BenchmarkId::from_parameter("quiescent"), &(), |b, _| {
        b.iter(|| {
            let (mut cluster, _) = busy_campus();
            cluster.add_shard();
            let report = cluster.rebalance_active().expect("directory intact");
            assert!(report.deferred.is_empty(), "a busy cluster must drain");
            report.migrated.len()
        })
    });

    group.bench_with_input(BenchmarkId::from_parameter("under-ingest"), &(), |b, _| {
        b.iter(|| {
            let (mut cluster, lectures) = busy_campus();
            cluster.add_shard();
            let gateway = cluster.gateway();
            let stop = AtomicBool::new(false);
            let migrated = std::thread::scope(|scope| {
                let ingest = scope.spawn(|| {
                    // Stream speak waves at the migrating groups until the
                    // rebalance finishes, collecting each wave's decisions
                    // before sending the next so ingest paces itself to
                    // the cluster's service rate instead of flooding the
                    // worker queues the handoff commands share. Parked
                    // submissions are re-driven after each commit, so
                    // every decision arrives.
                    let mut sent = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        for (gid, roster) in &lectures {
                            gateway
                                .submit(GlobalRequest::speak(*gid, roster[2]))
                                .expect("routable");
                        }
                        sent += lectures.len();
                        gateway
                            .collect_decisions(lectures.len())
                            .expect("pipelines alive");
                    }
                    sent
                });
                let report = cluster.rebalance_active().expect("directory intact");
                stop.store(true, Ordering::Relaxed);
                assert!(report.deferred.is_empty(), "a busy cluster must drain");
                let sent = ingest.join().expect("ingest thread");
                assert!(sent > 0);
                report.migrated.len()
            });
            migrated
        })
    });

    group.finish();
}

criterion_group!(benches, bench_rebalance);
criterion_main!(benches);
