//! Bench: floor-request throughput of the sharded control plane as the shard
//! count grows.
//!
//! A fixed campus (192 Equal Control groups × 3 members) is served by 1, 2,
//! 4 and 8 shards with a production-shaped checkpoint cadence (event
//! cadence 128, differential chain). Each iteration pushes one speak wave
//! plus a release wave through every group via the streamed submit +
//! [`dmps_cluster::Gateway::collect_decisions`] path. On multi-core hosts
//! throughput rises with the shard count (per-shard workers run in
//! parallel). On a single-core host the curve used to rise too — each
//! cadence checkpoint serialized the whole shard, so per-shard checkpoint
//! work shrank ~1/shards — but incremental checkpoints made that cost
//! O(dirty-groups) at any shard count, so single-core runs now show a
//! flat-to-falling curve (pure fan-out overhead) with the 1-shard case
//! far faster than it was under full snapshots.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use dmps_cluster::{Cluster, ClusterConfig, GlobalGroupId, GlobalMemberId, GlobalRequest};
use dmps_floor::{FcmMode, Member, Role};

const GROUPS: usize = 192;
const MEMBERS: usize = 3;

fn campus(shards: usize) -> (Cluster, Vec<(GlobalGroupId, Vec<GlobalMemberId>)>) {
    let cluster = Cluster::new(ClusterConfig {
        snapshot_every: 128,
        snapshot_every_bytes: 0,
        ..ClusterConfig::with_shards(shards)
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
        lectures.push((gid, roster));
    }
    (cluster, lectures)
}

fn bench_shard_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    let requests_per_iter = (GROUPS * 2 * MEMBERS) as u64;
    for &shards in &[1usize, 2, 4, 8] {
        group.throughput(Throughput::Elements(requests_per_iter));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{shards}-shards")),
            &shards,
            |b, &shards| {
                let (cluster, lectures) = campus(shards);
                b.iter(|| {
                    for (gid, roster) in &lectures {
                        for &member in roster {
                            cluster
                                .submit(GlobalRequest::speak(*gid, member))
                                .expect("routable");
                        }
                    }
                    let decisions = cluster
                        .collect_decisions(GROUPS * MEMBERS)
                        .expect("pipelines alive");
                    // Drain every token so state does not accumulate across
                    // iterations: each member releases in turn, emptying the
                    // queue the speak wave built.
                    for (gid, roster) in &lectures {
                        for &member in roster {
                            cluster
                                .submit(GlobalRequest::release_floor(*gid, member))
                                .expect("routable");
                        }
                    }
                    let releases = cluster
                        .collect_decisions(GROUPS * MEMBERS)
                        .expect("pipelines alive");
                    (decisions.len(), releases.len())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shard_scaling);
criterion_main!(benches);
