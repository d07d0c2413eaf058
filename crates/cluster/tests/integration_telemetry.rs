//! End-to-end telemetry through the public `Cluster` API: sampled pipeline
//! spans, the cluster-wide metric namespace, dedup/replay counters, and
//! windowed queue peaks.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use dmps_cluster::telemetry::Stage;
use dmps_cluster::{
    Cluster, ClusterConfig, GlobalGroupId, GlobalMemberId, GlobalRequest, SessionOp, ShardId,
};
use dmps_floor::{FcmMode, Member, Role};

/// A 2-shard cluster with one free-access lecture group and a chair.
fn traced_cluster(trace_sampling: u64) -> (Cluster, GlobalGroupId, GlobalMemberId) {
    let config = ClusterConfig {
        trace_sampling,
        ..ClusterConfig::with_shards(2)
    };
    let cluster = Cluster::new(config);
    let group = cluster
        .create_group("lecture", FcmMode::FreeAccess)
        .unwrap();
    let member = cluster.register_member(Member::new("t", Role::Chair));
    cluster.join_group(group, member).unwrap();
    (cluster, group, member)
}

/// Spans are retained *after* replies flush, so a freshly-answered request's
/// span may still be in flight on the worker thread for a moment.
fn wait_for_spans(cluster: &Cluster, at_least: usize) -> Vec<dmps_cluster::telemetry::TraceSpan> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let spans = cluster.recent_spans();
        if spans.len() >= at_least || Instant::now() > deadline {
            return spans;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Runs `submit` while another thread holds `shard` inside an inspection
/// closure, so whatever it submits to that shard waits in the queue — a
/// backlog made on purpose rather than left to thread scheduling (an idle
/// shard may be stepped by the submitting thread itself, leaving nothing
/// queued).
fn with_shard_held(cluster: &Cluster, shard: ShardId, submit: impl FnOnce()) {
    let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    std::thread::scope(|scope| {
        let (h, r) = (held.clone(), release.clone());
        scope.spawn(move || {
            cluster.inspect_shard(shard, move |_| {
                h.wait();
                r.wait();
            })
        });
        held.wait();
        submit();
        release.wait();
    });
}

#[test]
fn sampled_spans_complete_with_monotonic_stages() {
    let (cluster, group, member) = traced_cluster(1);
    let gateway = cluster.gateway();
    for _ in 0..4 {
        let seq = gateway.submit(GlobalRequest::speak(group, member)).unwrap();
        assert_eq!(gateway.recv_decision().unwrap().seq, seq);
        let seq = gateway
            .submit(GlobalRequest::release_floor(group, member))
            .unwrap();
        assert_eq!(gateway.recv_decision().unwrap().seq, seq);
    }
    let seq = gateway
        .submit_session(SessionOp::chat(group, member, "hi"))
        .unwrap();
    assert_eq!(gateway.recv_session_decision().unwrap().seq, seq);

    let spans = wait_for_spans(&cluster, 9);
    assert!(
        spans.len() >= 9,
        "1-in-1 sampling must trace every submission, got {}",
        spans.len()
    );
    for span in &spans {
        assert!(span.is_complete(), "span must reach every stage: {span}");
        let offsets: Vec<u64> = Stage::ALL
            .iter()
            .map(|&stage| span.stage_ns(stage).unwrap())
            .collect();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        assert_eq!(offsets, sorted, "stage offsets monotonic: {span}");
        assert!(span.shard().is_some(), "completed spans are shard-tagged");
        assert!(
            span.gateway().is_some(),
            "gateway submissions carry the tag"
        );
    }
    // Both planes and the op kinds are visible in the trace.
    assert!(spans.iter().any(|s| s.kind() == "speak"));
    assert!(spans.iter().any(|s| s.kind() == "release_floor"));
    assert!(spans.iter().any(|s| s.kind() == "chat"));
    // The sampled latencies also fed the aggregate histograms.
    let metrics = cluster.metrics();
    assert!(metrics.histogram("cluster.submit_latency_ns").count() >= 8);
    assert!(metrics.histogram("cluster.session_latency_ns").count() >= 1);
}

#[test]
fn disabled_sampling_records_no_spans() {
    let (cluster, group, member) = traced_cluster(0);
    let gateway = cluster.gateway();
    let seq = gateway.submit(GlobalRequest::speak(group, member)).unwrap();
    assert_eq!(gateway.recv_decision().unwrap().seq, seq);
    assert!(cluster.recent_spans().is_empty());
}

#[test]
fn metrics_report_names_every_pipeline_layer() {
    let (cluster, group, member) = traced_cluster(0);
    let gateway = cluster.gateway();
    let batch = [
        GlobalRequest::speak(group, member),
        GlobalRequest::release_floor(group, member),
    ];
    let seqs = gateway.submit_batch(&batch);
    gateway.collect_decisions(seqs.len()).unwrap();
    // A replayed id is a dedup hit on the owning shard.
    let speak = GlobalRequest::speak(group, member);
    let seq = cluster.submit(speak).unwrap();
    assert!(!cluster.recv_decision().unwrap().replayed);
    cluster.resubmit(seq, speak).unwrap();
    assert!(
        cluster.recv_decision().unwrap().replayed,
        "second submission under the same id replays"
    );

    let shard = cluster.placement(group).unwrap().shard.0;
    let metrics = cluster.metrics();
    assert_eq!(
        metrics
            .counter(&format!("cluster.shard.{shard}.dedup_hits"))
            .get(),
        1
    );
    assert!(
        metrics
            .histogram(&format!("cluster.shard.{shard}.drain_batch"))
            .count()
            >= 1
    );
    assert!(
        metrics
            .histogram(&format!("cluster.shard.{shard}.commit_latency_ns"))
            .count()
            >= 1
    );
    assert!(
        metrics
            .histogram(&format!("cluster.shard.{shard}.append_latency_ns"))
            .count()
            >= 1
    );

    // The rendered report names every layer of the pipeline, and the JSON
    // form is machine-shaped.
    let report = cluster.metrics_report();
    for name in [
        "cluster.sheds",
        "cluster.parked_ops",
        "cluster.redriven_ops",
        "cluster.submit_latency_ns",
        "cluster.shard.0.queue_depth",
        "cluster.shard.0.drain_batch",
        "cluster.shard.0.commit_latency_ns",
        "cluster.shard.0.with_stall_ns",
        "cluster.shard.0.append_latency_ns",
        "cluster.shard.0.snapshot_pause_ns",
        "cluster.shard.0.dedup_hits",
        "cluster.shard.1.queue_depth",
        "gateway.0.submit_batch_size",
        "gateway.0.retries",
    ] {
        assert!(report.contains(name), "report must name {name}:\n{report}");
    }
    let json = cluster.metrics_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"cluster.sheds\""));
}

#[test]
fn fault_counters_surface_in_the_stable_metrics_namespace() {
    // The fault plane reports under `cluster.shard.N.fault.*` — the names
    // dashboards and the chaos soak key on. A replicated shard registers
    // the whole family up front (zeros included), and a partition-driven
    // failover moves the partition counter.
    let config = ClusterConfig::with_shards(1).with_replicas(2);
    let mut cluster = Cluster::new(config);
    let group = cluster
        .create_group("lecture", FcmMode::FreeAccess)
        .unwrap();
    let member = cluster.register_member(Member::new("t", Role::Chair));
    cluster.join_group(group, member).unwrap();
    let shard = cluster.placement(group).unwrap().shard;

    cluster.submit(GlobalRequest::speak(group, member)).unwrap();
    cluster.collect_decisions(1).unwrap();
    cluster.isolate_shard_leader(shard);
    cluster
        .submit(GlobalRequest::release_floor(group, member))
        .unwrap();
    cluster.collect_decisions(1).unwrap();
    cluster.heal_shard_partition(shard);
    cluster.recover_shard(shard).unwrap();

    let report = cluster.metrics_report();
    let json = cluster.metrics_json();
    for name in [
        "cluster.shard.0.fault.partitions",
        "cluster.shard.0.fault.fenced_appends",
        "cluster.shard.0.fault.checksum_failures",
        "cluster.shard.0.fault.repairs",
    ] {
        assert!(report.contains(name), "report must name {name}:\n{report}");
        assert!(
            json.contains(&format!("\"{name}\"")),
            "json must name {name}"
        );
    }
    assert_eq!(
        cluster
            .metrics()
            .counter("cluster.shard.0.fault.partitions")
            .get(),
        1,
        "the injected partition was counted"
    );
}

#[test]
fn reset_queue_peak_gives_windowed_peaks() {
    let (cluster, group, member) = traced_cluster(0);
    let shard = cluster.placement(group).unwrap().shard;
    with_shard_held(&cluster, shard, || {
        cluster.submit(GlobalRequest::speak(group, member)).unwrap();
    });
    cluster.collect_decisions(1).unwrap();
    assert!(
        cluster.queue_stats(shard).peak_queued >= 1,
        "the submission must have been observed in the queue"
    );
    // Resetting opens a new observation window: with the queue idle the peak
    // drops to the current occupancy (zero), then the next submission is the
    // new window's high-water mark.
    cluster.reset_queue_peak(shard);
    assert_eq!(cluster.queue_stats(shard).peak_queued, 0);
    with_shard_held(&cluster, shard, || {
        cluster
            .submit(GlobalRequest::release_floor(group, member))
            .unwrap();
    });
    cluster.collect_decisions(1).unwrap();
    assert!(cluster.queue_stats(shard).peak_queued >= 1);
}

#[test]
fn queue_peak_series_keeps_history_across_window_resets() {
    use dmps_cluster::telemetry::Metric;

    let (cluster, group, member) = traced_cluster(0);
    let shard = cluster.placement(group).unwrap().shard;
    with_shard_held(&cluster, shard, || {
        for _ in 0..8 {
            cluster.submit(GlobalRequest::speak(group, member)).unwrap();
            cluster
                .submit(GlobalRequest::release_floor(group, member))
                .unwrap();
        }
    });
    cluster.collect_decisions(16).unwrap();

    let series = match cluster
        .metrics()
        .get(&format!("cluster.shard.{}.queue_peak", shard.0))
    {
        Some(Metric::TimeSeries(s)) => s,
        other => panic!("queue_peak must be a time-series, got {other:?}"),
    };
    let observed_before = series.observations();
    assert!(
        observed_before > 0,
        "worker sampled the peak while draining"
    );

    // Resetting the QueueStats window must not disturb the time-series: the
    // retained samples (the historical windows) survive, only the live
    // counter restarts.
    cluster.reset_queue_peak(shard);
    assert_eq!(cluster.queue_stats(shard).peak_queued, 0);
    assert_eq!(series.observations(), observed_before);
    assert!(!series.samples().is_empty());

    // Traffic in the new window raises the windowed peak again and keeps
    // appending to the same series.
    with_shard_held(&cluster, shard, || {
        for _ in 0..8 {
            cluster.submit(GlobalRequest::speak(group, member)).unwrap();
            cluster
                .submit(GlobalRequest::release_floor(group, member))
                .unwrap();
        }
    });
    cluster.collect_decisions(16).unwrap();
    assert!(cluster.queue_stats(shard).peak_queued >= 1);
    assert!(
        series.observations() > observed_before,
        "the new window's drains keep feeding the series"
    );
}
