//! Telemetry wiring: the cluster-wide metric namespace, per-layer metric
//! bundles, and span plumbing.
//!
//! All instruments live in one shared [`MetricsRegistry`] under a stable
//! naming scheme:
//!
//! * `cluster.*` — routing-layer aggregates (`cluster.submit_latency_ns`,
//!   `cluster.sheds`, `cluster.parked_ops`, `cluster.redriven_ops`).
//! * `cluster.shard.N.*` — per-shard pipeline instruments (`queue_depth` and
//!   `queue_peak` time-series, `drain_batch` sizes, `commit_latency_ns`,
//!   `append_latency_ns`, `snapshot_pause_ns`, `with_stall_ns`,
//!   `dedup_hits`, `session_dedup_hits`, and the `steps_inline` /
//!   `steps_worker` split of who stepped each batch).
//! * `cluster.shard.N.snapshot.*` — checkpoint instruments (`pause_us`
//!   ingest-stall histogram covering full and differential checkpoints,
//!   `delta_bytes` shipped by differential checkpoints, `chain_len` observed
//!   at each checkpoint).
//! * `cluster.shard.N.replica.*` — replication instruments (`acks` received
//!   from followers, `retransmits` of lost append segments, `resyncs` of
//!   compaction-lagged followers, the `catch_up_lag` replayed at promotion,
//!   and the `follower_reads` / `forwarded_reads` split of the scale-out
//!   read path).
//! * `cluster.shard.N.fault.*` — fault-plane instruments (`partitions`
//!   engaged on the replica network, `fenced_appends` rejected by epoch
//!   fencing, `checksum_failures` detected on durable artifacts, and
//!   `repairs` performed from the quorum).
//! * `gateway.G.*` — per-gateway instruments (`submit_batch_size`,
//!   `retries`, and per-op-kind `submit_latency_ns.KIND` histograms fed by
//!   sampled spans).
//!
//! The bundles below pre-resolve every hot-path instrument once at
//! construction so steady-state recording never touches the registry's name
//! map; only sampled-span completion (1-in-N) looks names up lazily.

use std::sync::Arc;

use dmps_telemetry::{
    Counter, Histogram, MetricsRegistry, Sampler, SpanLog, Stage, TimeSeries, TraceSpan,
};

/// Completed sampled spans retained for [`crate::Cluster::recent_spans`].
const SPAN_LOG_CAPACITY: usize = 256;
/// Queue-depth samples retained per shard.
const QUEUE_DEPTH_SAMPLES: usize = 512;
/// Every Nth drain contributes a queue-depth sample.
const QUEUE_DEPTH_CADENCE: u64 = 8;

/// Cluster-wide telemetry: one registry, one bounded span log and one 1-in-N
/// span sampler shared by the routing layer, every gateway, and every shard
/// worker.
#[derive(Debug)]
pub(crate) struct ClusterTelemetry {
    /// All named instruments.
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Completed sampled spans, newest-retained.
    pub(crate) spans: Arc<SpanLog>,
    /// The 1-in-N span sampling decision source.
    pub(crate) sampler: Sampler,
    /// Requests answered `Overloaded` by a shedding queue.
    pub(crate) sheds: Arc<Counter>,
    /// Operations parked against frozen (mid-handoff) groups.
    pub(crate) parked: Arc<Counter>,
    /// Parked operations re-driven after an unfreeze.
    pub(crate) redriven: Arc<Counter>,
}

impl ClusterTelemetry {
    /// Builds the shared telemetry state. `trace_sampling` is the span rate
    /// (one span per `trace_sampling` submissions, 0 = tracing off).
    pub(crate) fn new(trace_sampling: u64) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let sheds = registry.counter("cluster.sheds");
        let parked = registry.counter("cluster.parked_ops");
        let redriven = registry.counter("cluster.redriven_ops");
        ClusterTelemetry {
            registry,
            spans: Arc::new(SpanLog::new(SPAN_LOG_CAPACITY)),
            sampler: Sampler::new(trace_sampling),
            sheds,
            parked,
            redriven,
        }
    }

    /// Starts a span if this submission is sampled. The unsampled path costs
    /// one branch plus (when tracing is on at all) one relaxed `fetch_add`.
    pub(crate) fn begin_span(&self, seq: u64, kind: &'static str) -> Option<Box<TraceSpan>> {
        self.sampler
            .hit()
            .then(|| Box::new(TraceSpan::begin(seq, kind)))
    }

    /// Reserves the sampling decisions for a whole batch with one atomic
    /// operation; feed the result to [`ClusterTelemetry::begin_span_in_run`]
    /// per item.
    pub(crate) fn reserve_span_run(&self, n: u64) -> Option<u64> {
        self.sampler.reserve(n)
    }

    /// Batch twin of [`ClusterTelemetry::begin_span`]: decides from a
    /// pre-reserved run, so the per-item cost is arithmetic only.
    pub(crate) fn begin_span_in_run(
        &self,
        run: Option<u64>,
        offset: u64,
        seq: u64,
        kind: &'static str,
    ) -> Option<Box<TraceSpan>> {
        run.filter(|&start| self.sampler.reserved_hit(start, offset))
            .map(|_| Box::new(TraceSpan::begin(seq, kind)))
    }

    /// The pipeline instruments shard `index`'s steppers record into.
    pub(crate) fn worker(&self, index: usize) -> WorkerTelemetry {
        WorkerTelemetry {
            registry: Arc::clone(&self.registry),
            spans: Arc::clone(&self.spans),
            submit_latency: self.registry.histogram("cluster.submit_latency_ns"),
            session_latency: self.registry.histogram("cluster.session_latency_ns"),
            queue_depth: self.registry.time_series(
                &format!("cluster.shard.{index}.queue_depth"),
                QUEUE_DEPTH_SAMPLES,
                QUEUE_DEPTH_CADENCE,
            ),
            queue_peak: self.registry.time_series(
                &format!("cluster.shard.{index}.queue_peak"),
                QUEUE_DEPTH_SAMPLES,
                QUEUE_DEPTH_CADENCE,
            ),
            drain_batch: self
                .registry
                .histogram(&format!("cluster.shard.{index}.drain_batch")),
            commit_latency: self
                .registry
                .histogram(&format!("cluster.shard.{index}.commit_latency_ns")),
            with_stall: self
                .registry
                .histogram(&format!("cluster.shard.{index}.with_stall_ns")),
            steps_inline: self
                .registry
                .counter(&format!("cluster.shard.{index}.steps_inline")),
            steps_worker: self
                .registry
                .counter(&format!("cluster.shard.{index}.steps_worker")),
        }
    }

    /// The storage-side instruments installed into shard `index` itself.
    pub(crate) fn shard(&self, index: usize) -> ShardMetrics {
        ShardMetrics {
            append_latency: self
                .registry
                .histogram(&format!("cluster.shard.{index}.append_latency_ns")),
            snapshot_pause: self
                .registry
                .histogram(&format!("cluster.shard.{index}.snapshot_pause_ns")),
            snapshot_pause_us: self
                .registry
                .histogram(&format!("cluster.shard.{index}.snapshot.pause_us")),
            delta_bytes: self
                .registry
                .counter(&format!("cluster.shard.{index}.snapshot.delta_bytes")),
            chain_len: self
                .registry
                .histogram(&format!("cluster.shard.{index}.snapshot.chain_len")),
            dedup_hits: self
                .registry
                .counter(&format!("cluster.shard.{index}.dedup_hits")),
            session_dedup_hits: self
                .registry
                .counter(&format!("cluster.shard.{index}.session_dedup_hits")),
            checksum_failures: self
                .registry
                .counter(&format!("cluster.shard.{index}.fault.checksum_failures")),
        }
    }

    /// The replication instruments of shard `index`'s replica set.
    pub(crate) fn replica(&self, index: usize) -> ReplicaMetrics {
        ReplicaMetrics {
            acks: self
                .registry
                .counter(&format!("cluster.shard.{index}.replica.acks")),
            retransmits: self
                .registry
                .counter(&format!("cluster.shard.{index}.replica.retransmits")),
            resyncs: self
                .registry
                .counter(&format!("cluster.shard.{index}.replica.resyncs")),
            catch_up_lag: self
                .registry
                .histogram(&format!("cluster.shard.{index}.replica.catch_up_lag")),
            follower_reads: self
                .registry
                .counter(&format!("cluster.shard.{index}.replica.follower_reads")),
            forwarded_reads: self
                .registry
                .counter(&format!("cluster.shard.{index}.replica.forwarded_reads")),
            partitions: self
                .registry
                .counter(&format!("cluster.shard.{index}.fault.partitions")),
            fenced_appends: self
                .registry
                .counter(&format!("cluster.shard.{index}.fault.fenced_appends")),
            checksum_failures: self
                .registry
                .counter(&format!("cluster.shard.{index}.fault.checksum_failures")),
            repairs: self
                .registry
                .counter(&format!("cluster.shard.{index}.fault.repairs")),
        }
    }

    /// The instruments gateway `index` records into on its submit side.
    pub(crate) fn gateway(&self, index: u32) -> GatewayMetrics {
        GatewayMetrics {
            batch_size: self
                .registry
                .histogram(&format!("gateway.{index}.submit_batch_size")),
            retries: self.registry.counter(&format!("gateway.{index}.retries")),
        }
    }
}

/// Pre-resolved instruments for one shard's pipeline steps, plus the
/// shared registry/span-log ends of the span pipeline.
#[derive(Debug)]
pub(crate) struct WorkerTelemetry {
    registry: Arc<MetricsRegistry>,
    spans: Arc<SpanLog>,
    submit_latency: Arc<Histogram>,
    session_latency: Arc<Histogram>,
    /// Backlog remaining in the ingest queue, sampled at each drain.
    pub(crate) queue_depth: Arc<TimeSeries>,
    /// High-water mark of the ingest queue's occupancy window, sampled at
    /// each drain alongside `queue_depth` — the operator-facing series
    /// behind [`crate::QueueStats::peak_queued`].
    pub(crate) queue_peak: Arc<TimeSeries>,
    /// Commands applied per step (the effective batch size).
    pub(crate) drain_batch: Arc<Histogram>,
    /// Group-commit duration per non-empty batch.
    pub(crate) commit_latency: Arc<Histogram>,
    /// Duration of each control barrier closure.
    pub(crate) with_stall: Arc<Histogram>,
    /// Batches stepped by a caller on its own thread.
    pub(crate) steps_inline: Arc<Counter>,
    /// Batches stepped by the shard's worker thread.
    pub(crate) steps_worker: Arc<Counter>,
}

impl WorkerTelemetry {
    /// Completes a sampled span: stamps [`Stage::Replied`], feeds the
    /// submit→reply latency into the cluster-wide and per-gateway-per-kind
    /// histograms, and retains the span in the log. Runs 1-in-N, so the lazy
    /// registry lookup is off the hot path.
    pub(crate) fn finish_span(&self, mut span: TraceSpan, session: bool) {
        span.stamp(Stage::Replied);
        if let Some(total) = span.total_ns() {
            let aggregate = if session {
                &self.session_latency
            } else {
                &self.submit_latency
            };
            aggregate.record(total);
            if let Some(gateway) = span.gateway() {
                self.registry
                    .histogram(&format!(
                        "gateway.{gateway}.submit_latency_ns.{}",
                        span.kind()
                    ))
                    .record(total);
            }
        }
        self.spans.record(span);
    }
}

/// Storage-side instruments owned by a [`crate::Shard`]; absent on shards
/// built outside a cluster (unit tests, doc examples).
#[derive(Debug, Clone)]
pub(crate) struct ShardMetrics {
    /// `EventLog::append_batch` duration per group commit.
    pub(crate) append_latency: Arc<Histogram>,
    /// Full snapshot-capture pause duration.
    pub(crate) snapshot_pause: Arc<Histogram>,
    /// Checkpoint pause duration in microseconds — both full snapshots and
    /// differential checkpoints, so its max/p99 is the ingest stall the
    /// checkpoint subsystem as a whole inflicts.
    pub(crate) snapshot_pause_us: Arc<Histogram>,
    /// Total bytes shipped in differential checkpoints since start.
    pub(crate) delta_bytes: Arc<Counter>,
    /// Chain length observed at each checkpoint (0 = a fresh full base).
    pub(crate) chain_len: Arc<Histogram>,
    /// Floor requests answered from the dedup window (replays).
    pub(crate) dedup_hits: Arc<Counter>,
    /// Session operations answered from the dedup window (replays).
    pub(crate) session_dedup_hits: Arc<Counter>,
    /// Durable artifacts (snapshot base, deltas, sealed segments) that
    /// failed checksum verification. Shares its name — and therefore its
    /// underlying counter — with the replica set's fault bundle, so leader-
    /// side and follower-side detections aggregate per shard.
    pub(crate) checksum_failures: Arc<Counter>,
}

/// Replication instruments of one shard's replica set, recorded by the
/// shard's stepper (quorum pipeline) and by the routing layer (the
/// follower-read split).
#[derive(Debug, Clone)]
pub(crate) struct ReplicaMetrics {
    /// Follower acknowledgements received by the leader.
    pub(crate) acks: Arc<Counter>,
    /// Append segments retransmitted after loss on a replica link.
    pub(crate) retransmits: Arc<Counter>,
    /// Followers re-seeded from a snapshot because the leader compacted past
    /// their acked position.
    pub(crate) resyncs: Arc<Counter>,
    /// Log-tail events replayed when a follower was promoted at failover
    /// (the tail-catch-up cost, in events).
    pub(crate) catch_up_lag: Arc<Histogram>,
    /// Reads served directly from a follower (the read-your-writes bound
    /// held).
    pub(crate) follower_reads: Arc<Counter>,
    /// Reads forwarded to the leader because the chosen follower had not
    /// applied up to the caller's bound.
    pub(crate) forwarded_reads: Arc<Counter>,
    /// Partitions engaged on the replica network (leader isolations).
    pub(crate) partitions: Arc<Counter>,
    /// Appends and resyncs rejected by a follower because they carried a
    /// stale leader epoch (the fencing that prevents split-brain).
    pub(crate) fenced_appends: Arc<Counter>,
    /// Checksum mismatches detected on replicated segments or durable
    /// artifacts (same counter as the shard-side detections).
    pub(crate) checksum_failures: Arc<Counter>,
    /// Repairs performed from the quorum: follower re-ships after
    /// quarantine and leader state rebuilds from the best follower.
    pub(crate) repairs: Arc<Counter>,
}

/// Submit-side instruments owned by one [`crate::Gateway`].
#[derive(Debug)]
pub(crate) struct GatewayMetrics {
    /// Sizes handed to `submit_batch`/`submit_session_batch`.
    pub(crate) batch_size: Arc<Histogram>,
    /// Decisions re-requested through `resubmit`/`resubmit_session`.
    pub(crate) retries: Arc<Counter>,
}
