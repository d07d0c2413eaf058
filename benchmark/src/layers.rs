//! The per-layer metric table (`--trace 1`) and its assembly from a traced
//! run: benchmark-side spans, probes, what the cluster emitted in situ, and
//! the ledger that sets their sum against the end-to-end cost.

use crate::driver::RepOutcome;
use crate::probes::Probes;
use crate::report::Better::{self, Higher, Lower};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::specs::{SubmitPath, Workload};
use crate::stats::{median, percentile_sorted, Pool};

/// `(name, unit, better)`; layer = module. Which end-to-end metric each
/// should move, on which workload, is tabulated in the README.
pub const PER_LAYER: [(&str, &str, Better); 74] = [
    // dmps-wire (probe over a retained suffix of the probe shards' logs)
    ("wire.encode_ns_per_event", "ns", Lower),
    ("wire.decode_ns_per_event", "ns", Lower),
    ("wire.bytes_per_event", "B", Lower),
    ("wire.crc_ns_per_kib", "ns/KiB", Lower),
    // dmps-floor (probe: FloorArbiter)
    ("floor.arbitrate_ns_per_op", "ns", Lower),
    ("floor.may_deliver_ns_per_op", "ns", Lower),
    // cluster::session (probe: SessionStore)
    ("session.apply_ns_per_op", "ns", Lower),
    ("session.view_ns_per_read", "ns", Lower),
    ("session.bytes_per_group", "B/group", Lower),
    // cluster::shard (probe: Shard, EventLog, DedupWindow; in situ: registry)
    ("shard.arbitrate_ns_per_op", "ns", Lower),
    ("shard.commit_ns_per_batch", "ns", Lower),
    ("shard.log_append_ns_per_event", "ns", Lower),
    ("shard.log_seal_ns_per_segment", "ns", Lower),
    ("shard.dedup_record_ns_per_op", "ns", Lower),
    ("shard.dedup_hit_ns_per_op", "ns", Lower),
    ("shard.delta_ms_p50", "ms", Lower),
    ("shard.delta_ms_max", "ms", Lower),
    ("shard.base_ms_p50", "ms", Lower),
    ("shard.base_ms_max", "ms", Lower),
    ("shard.delta_bytes_per_group", "B/group", Lower),
    ("shard.snapshot_bytes_per_group", "B/group", Lower),
    ("shard.recover_ms", "ms", Lower),
    ("shard.recover_chain_ms", "ms", Lower),
    ("shard.pause_ms_p99", "ms", Lower),
    ("shard.pause_ms_max", "ms", Lower),
    ("shard.pauses", "count", Lower),
    ("shard.chain_len_max", "count", Lower),
    ("shard.dedup_hits", "count", Lower),
    // cluster::directory / cluster::ring (live cluster; probe: HashRing)
    ("directory.placement_ns_per_op", "ns", Lower),
    ("directory.local_member_ns_per_op", "ns", Lower),
    ("ring.shard_for_ns_per_op", "ns", Lower),
    // cluster::gateway (benchmark-side spans around the calls)
    ("gateway.submit_ns_per_op", "ns", Lower),
    ("gateway.submit_batch_ns_per_op", "ns", Lower),
    ("gateway.recv_ns_per_op", "ns", Lower),
    ("gateway.join_group_us_p50", "us", Lower),
    ("gateway.invite_us_p50", "us", Lower),
    ("gateway.read_leader_us_p50", "us", Lower),
    ("gateway.read_follower_us_p50", "us", Lower),
    ("gateway.read_us_p99", "us", Lower),
    ("gateway.batch_size_mean", "count", Higher),
    // cluster::queue / cluster::worker (in situ: sampled pipeline spans of
    // the paced phase, registry)
    ("pipeline.submit_to_enqueue_us_p50", "us", Lower),
    ("pipeline.submit_to_enqueue_us_p99", "us", Lower),
    ("pipeline.queue_wait_us_p50", "us", Lower),
    ("pipeline.queue_wait_us_p99", "us", Lower),
    ("pipeline.commit_us_p50", "us", Lower),
    ("pipeline.commit_us_p99", "us", Lower),
    ("pipeline.reply_us_p50", "us", Lower),
    ("pipeline.reply_us_p99", "us", Lower),
    ("pipeline.submit_p999_ms", "ms", Lower),
    ("pipeline.submit_max_ms", "ms", Lower),
    ("queue.peak_depth", "count", Lower),
    ("worker.drain_batch_mean", "count", Higher),
    ("worker.with_stall_ms_max", "ms", Lower),
    // cluster::replication (in situ: registry)
    ("replication.acks_per_op", "count", Lower),
    ("replication.retransmits", "count", Lower),
    ("replication.resyncs", "count", Lower),
    ("replication.catch_up_lag_max", "count", Lower),
    ("replication.follower_read_share", "%", Higher),
    ("replication.promote_ms_p50", "ms", Lower),
    // dmps-workload / host
    ("workload.late_p99_ms", "ms", Lower),
    ("workload.late_max_ms", "ms", Lower),
    ("workload.trace_crc", "count", Lower),
    ("host.cpu", "count", Lower),
    ("host.cpu_share", "%", Higher),
    ("host.unpinned_ops_per_s", "1/s", Higher),
    ("trace.overhead_ratio", "ratio", Higher),
    // the ledger (saturation phase of the traced repetitions)
    ("ledger.e2e_ns_per_op", "ns", Lower),
    ("ledger.layers_ns_per_op", "ns", Lower),
    ("ledger.residual_ns_per_op", "ns", Lower),
    ("ledger.residual_share", "%", Lower),
    ("ledger.arbiter_share", "%", Lower),
    ("ledger.checkpoint_share", "%", Lower),
    ("ledger.driver_cpu_ns_per_op", "ns", Lower),
    ("ledger.worker_cpu_ns_per_op", "ns", Lower),
];

/// Everything a traced run gathered.
pub struct Traced<'a> {
    pub w: &'a Workload,
    pub trace_crc: u32,
    pub untraced: &'a [RepOutcome],
    pub traced: &'a [RepOutcome],
    pub recorder: &'a Recorder,
    pub probes: &'a Probes,
    pub cpu: Option<usize>,
    pub unpinned_ops_per_s: f64,
}

struct Builder {
    metrics: Metrics,
}

impl Builder {
    fn set(&mut self, name: &str, value: f64) {
        let (_, unit, _) = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        assert!(self.metrics.get(name).is_none(), "{name} set twice");
        self.metrics.put(name, value, unit);
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn p(values: &[u64], q: f64, div: f64) -> f64 {
    percentile_sorted(values, q) as f64 / div
}

pub fn assemble(t: &Traced<'_>) -> Metrics {
    let mut b = Builder {
        metrics: Metrics::default(),
    };
    let pr = t.probes;
    // The repetition that replayed the trace the probes replay.
    let first = t
        .traced
        .first()
        .expect("a traced run has a traced repetition");
    let totals = t.recorder.totals();
    let total_of = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| {
        let (count, total, _) = total_of(name);
        total as f64 / count.max(1) as f64
    };

    b.set("wire.encode_ns_per_event", pr.wire_encode_ns_per_event);
    b.set("wire.decode_ns_per_event", pr.wire_decode_ns_per_event);
    b.set("wire.bytes_per_event", pr.wire_bytes_per_event);
    b.set("wire.crc_ns_per_kib", pr.wire_crc_ns_per_kib);
    b.set("floor.arbitrate_ns_per_op", pr.floor_arbitrate_ns_per_op);
    b.set(
        "floor.may_deliver_ns_per_op",
        pr.floor_may_deliver_ns_per_op,
    );
    b.set("session.apply_ns_per_op", pr.session_apply_ns_per_op);
    b.set("session.view_ns_per_read", pr.session_view_ns_per_read);
    b.set("session.bytes_per_group", pr.session_bytes_per_group);
    b.set("shard.arbitrate_ns_per_op", pr.shard_arbitrate_ns_per_op);
    b.set("shard.commit_ns_per_batch", pr.shard_commit_ns_per_batch);
    b.set("shard.log_append_ns_per_event", pr.log_append_ns_per_event);
    b.set("shard.log_seal_ns_per_segment", pr.log_seal_ns_per_segment);
    b.set("shard.dedup_record_ns_per_op", pr.dedup_record_ns_per_op);
    b.set("shard.dedup_hit_ns_per_op", pr.dedup_hit_ns_per_op);
    let (delta, base) = (sorted(pr.delta_ns.clone()), sorted(pr.base_ns.clone()));
    b.set("shard.delta_ms_p50", p(&delta, 0.5, 1e6));
    b.set("shard.delta_ms_max", p(&delta, 1.0, 1e6));
    b.set("shard.base_ms_p50", p(&base, 0.5, 1e6));
    b.set("shard.base_ms_max", p(&base, 1.0, 1e6));
    b.set("shard.delta_bytes_per_group", pr.delta_bytes_per_group);
    b.set(
        "shard.snapshot_bytes_per_group",
        pr.snapshot_bytes_per_group,
    );
    b.set("shard.recover_ms", pr.shard_recover_ms);

    let insitu = first
        .insitu
        .as_ref()
        .expect("a traced repetition reads the registry");
    b.set(
        "shard.recover_chain_ms",
        median(
            &t.traced
                .iter()
                .map(|r| r.recover_chain_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    b.set("shard.pause_ms_p99", insitu.pause_us_p99 / 1e3);
    b.set("shard.pause_ms_max", insitu.pause_us_max / 1e3);
    b.set("shard.pauses", insitu.pauses);
    b.set("shard.chain_len_max", insitu.chain_len_max);
    b.set("shard.dedup_hits", insitu.dedup_hits);

    let (placement_ns, local_ns) = first.directory_ns.unwrap_or_default();
    b.set("directory.placement_ns_per_op", placement_ns);
    b.set("directory.local_member_ns_per_op", local_ns);
    b.set("ring.shard_for_ns_per_op", pr.ring_shard_for_ns_per_op);

    // On one CPU the shard worker preempts the driver inside most submit
    // calls that wake it, so a call's mean duration holds the worker's work
    // too. The fastest decile is what the call costs when that does not
    // happen.
    let (mut single, mut batched) = (Pool::default(), Pool::default());
    for rep in t.traced {
        single.absorb(&rep.submit_ns);
        batched.absorb(&rep.submit_batch_ns);
    }
    let submit_ns = single.percentile(0.10) as f64;
    let submit_batch_ns = batched.percentile(0.10) as f64;
    let recv_ns = per_call("gateway.recv");
    b.set("gateway.submit_ns_per_op", submit_ns);
    b.set("gateway.submit_batch_ns_per_op", submit_batch_ns);
    b.set("gateway.recv_ns_per_op", recv_ns);
    let joins = sorted(t.recorder.durations_of("gateway.join_group"));
    b.set("gateway.join_group_us_p50", p(&joins, 0.5, 1e3));
    let invites = sorted(t.recorder.durations_of("gateway.invite"));
    b.set("gateway.invite_us_p50", p(&invites, 0.5, 1e3));
    let mut reads = t.recorder.durations_of("gateway.session_view");
    reads.extend(t.recorder.durations_of("gateway.queue_position"));
    let reads = sorted(reads);
    let read_p50 = p(&reads, 0.5, 1e3);
    let replicated = t.w.replicas > 0;
    b.set(
        "gateway.read_leader_us_p50",
        if replicated { 0.0 } else { read_p50 },
    );
    b.set(
        "gateway.read_follower_us_p50",
        if replicated { read_p50 } else { 0.0 },
    );
    b.set("gateway.read_us_p99", p(&reads, 0.99, 1e3));
    b.set("gateway.batch_size_mean", insitu.batch_size_mean);

    let mut stage = |name: &str, pool: &Pool| {
        let mut pool = pool.clone();
        b.set(
            &format!("pipeline.{name}_us_p50"),
            pool.percentile(0.5) as f64 / 1e3,
        );
        b.set(
            &format!("pipeline.{name}_us_p99"),
            pool.percentile(0.99) as f64 / 1e3,
        );
    };
    stage("submit_to_enqueue", &insitu.submit_to_enqueue);
    stage("queue_wait", &insitu.queue_wait);
    stage("commit", &insitu.commit);
    stage("reply", &insitu.reply);
    let mut latency = Pool::default();
    let mut late = Pool::default();
    for rep in t.traced {
        latency.absorb(&rep.paced_latency);
        late.absorb(&rep.late);
    }
    b.set(
        "pipeline.submit_p999_ms",
        latency.percentile(0.999) as f64 / 1e6,
    );
    b.set("pipeline.submit_max_ms", latency.max() as f64 / 1e6);
    b.set("queue.peak_depth", insitu.queue_peak);
    b.set("worker.drain_batch_mean", insitu.drain_batch_mean);
    b.set("worker.with_stall_ms_max", insitu.with_stall_ns_max / 1e6);

    let ops = first.streamed_ops.max(1) as f64;
    b.set("replication.acks_per_op", insitu.replica_acks / ops);
    b.set("replication.retransmits", insitu.retransmits);
    b.set("replication.resyncs", insitu.resyncs);
    b.set("replication.catch_up_lag_max", insitu.catch_up_lag_max);
    let served = insitu.follower_reads + insitu.forwarded_reads;
    b.set(
        "replication.follower_read_share",
        if served > 0.0 {
            100.0 * insitu.follower_reads / served
        } else {
            0.0
        },
    );
    let promotions: Vec<f64> = t
        .traced
        .iter()
        .flat_map(|r| r.promote_ns.iter().map(|&ns| ns as f64 / 1e6))
        .collect();
    b.set("replication.promote_ms_p50", median(&promotions));

    b.set("workload.late_p99_ms", late.percentile(0.99) as f64 / 1e6);
    b.set("workload.late_max_ms", late.max() as f64 / 1e6);
    b.set("workload.trace_crc", t.trace_crc as f64);
    b.set("host.cpu", t.cpu.map_or(-1.0, |c| c as f64));
    let sum = |f: &dyn Fn(&RepOutcome) -> u64| t.traced.iter().map(f).sum::<u64>();
    let (sat_wall, sat_ops) = (sum(&|r| r.sat_wall_ns), sum(&|r| r.sat_ops));
    let (driver_cpu, worker_cpu) = (sum(&|r| r.sat_driver_cpu_ns), sum(&|r| r.sat_worker_cpu_ns));
    b.set(
        "host.cpu_share",
        100.0 * (driver_cpu + worker_cpu) as f64 / sat_wall.max(1) as f64,
    );
    b.set("host.unpinned_ops_per_s", t.unpinned_ops_per_s);
    let ops_per_s =
        |reps: &[RepOutcome]| median(&reps.iter().map(RepOutcome::ops_per_s).collect::<Vec<_>>());
    b.set(
        "trace.overhead_ratio",
        ops_per_s(t.traced) / ops_per_s(t.untraced).max(1e-9),
    );

    // The ledger: what the saturation phase cost per op, against what the
    // layers the benchmark can time cost per op.
    let e2e = sat_wall as f64 / sat_ops.max(1) as f64;
    let submit = match t.w.path {
        SubmitPath::Single { .. } => submit_ns,
        SubmitPath::Vectored { .. } => submit_batch_ns,
    };
    let layers = submit + pr.shard_arbitrate_ns_per_op + recv_ns;
    b.set("ledger.e2e_ns_per_op", e2e);
    b.set("ledger.layers_ns_per_op", layers);
    b.set("ledger.residual_ns_per_op", e2e - layers);
    b.set("ledger.residual_share", 100.0 * (e2e - layers) / e2e);
    // Shares of the whole trace's end-to-end cost at the saturated rate.
    let trace_ns = e2e * ops;
    b.set(
        "ledger.arbiter_share",
        100.0 * pr.floor_arbitrate_total_ns / trace_ns,
    );
    b.set(
        "ledger.checkpoint_share",
        100.0 * pr.checkpoint_total_ns / trace_ns,
    );
    // Where the wall time went by thread: on one CPU the driver's and the
    // workers' on-CPU time partition it (what is left is idle).
    b.set(
        "ledger.driver_cpu_ns_per_op",
        driver_cpu as f64 / sat_ops.max(1) as f64,
    );
    b.set(
        "ledger.worker_cpu_ns_per_op",
        worker_cpu as f64 / sat_ops.max(1) as f64,
    );

    for (name, _, _) in &PER_LAYER {
        assert!(b.metrics.get(name).is_some(), "{name} was never set");
    }
    b.metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128);
        for (name, unit, _) in &PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name}");
        }
    }
}
