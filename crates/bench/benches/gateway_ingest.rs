//! Bench: ingest throughput of the sharded control plane along three axes,
//! with machine-readable results written to `BENCH_ingest.json`.
//!
//! A fixed campus (240 Equal Control groups × 3 members) is served by 8
//! shards; each iteration pushes a speak wave plus a release wave through
//! every group (1440 requests).
//!
//! * **Gateway axis** (`single-submit/N-gateways`) — the pre-batching
//!   shape: every request routed and enqueued individually. Throughput
//!   rising with the gateway count shows the shared directory and per-shard
//!   pipelines scale; this is the baseline the batched axis is judged
//!   against, **measured in the same process on the same host** so the
//!   comparison survives host changes (see `crates/bench/README.md`).
//! * **Batch axis** (`batched/4-gateways/batch-N`) — the same workload
//!   through [`Gateway::submit_batch`]: one request-id lease, one directory
//!   pass and one queue reservation per shard per batch, with the workers
//!   group-committing each drained batch and coalescing replies. Committed
//!   runs measure ~1.5–1.65× the same-host single-submit baseline at
//!   4 gateways / 8 shards; the enforced floor is 1.35× (noise margin).
//! * **Saturation axis** (`saturation/shed/...`) — a deliberately small
//!   bounded queue under [`OverloadPolicy::Shed`]: gateways storm, shed
//!   requests come back as `Overloaded` decisions and are resubmitted until
//!   everything applies. Reported alongside throughput: how many sheds the
//!   storm produced and the per-shard peak queue depth, which must stay at
//!   or below the configured capacity — the memory bound backpressure
//!   exists to enforce.
//! * **Telemetry axis** (`batched/.../traced-1-in-N`) — the best batched
//!   shape re-run with 1-in-64 end-to-end span tracing on
//!   ([`ClusterConfig::trace_sampling`]). The sampled spans feed real
//!   submit→decision latency histograms, whose p50/p99 are reported as
//!   extra columns; the run asserts the traced throughput stays within 5%
//!   of the untraced batch-512 case measured in the same process
//!   (re-measuring the pair, evenhandedly, when host noise exceeds the bar).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dmps_cluster::{
    Cluster, ClusterConfig, ClusterError, Gateway, GlobalGroupId, GlobalMemberId, GlobalRequest,
    OverloadPolicy, ShardId,
};
use dmps_floor::{FcmMode, Member, Role};

const SHARDS: usize = 8;
const GROUPS: usize = 240;
const MEMBERS: usize = 3;
const REQUESTS_PER_ITER: u64 = (GROUPS * 2 * MEMBERS) as u64;
/// The batched axis must beat the single-submit shape — measured on the
/// same host, in the same process, against the same code — by at least this
/// factor. Cross-host constants are deliberately not compared against: an
/// earlier `speedup_vs_pr2_baseline` field divided by a number recorded on
/// a multi-core CI host and read 1.00 on a 1-CPU container, implying "no
/// speedup" when the same-host comparison showed 1.6×. See
/// `crates/bench/README.md` for the baseline policy.
///
/// Committed runs measure ~1.5–1.65×; the enforced floor sits below that
/// so scheduler noise on a shared 1-CPU host (±10% run to run, observed)
/// cannot flake CI, while a real regression — batching buys nothing reads
/// ~1.0× — still fails loudly.
const BATCHED_SPEEDUP_BAR: f64 = 1.35;
/// Span sampling rate of the telemetry axis: one traced request per 64.
const TRACE_SAMPLING: u64 = 64;

type Lectures = Vec<(GlobalGroupId, Vec<GlobalMemberId>)>;

fn campus(
    queue_capacity: usize,
    overload: OverloadPolicy,
    dedup_window: usize,
    trace_sampling: u64,
) -> (Cluster, Lectures) {
    let cluster = Cluster::new(ClusterConfig {
        trace_sampling,
        // Keep the shard-side durability work lean so the bench isolates
        // ingest cost. The throughput axes run with dedup off — the same
        // configuration the PR 2 baseline was measured under — while the
        // saturation axis turns the journal on because its shed/resubmit
        // loop depends on exactly-once replay.
        snapshot_every: 0,
        snapshot_every_bytes: 0,
        dedup_window,
        queue_capacity,
        overload,
        // Let a worker wakeup swallow a whole burst: on few-core hosts the
        // dominant ingest cost is context switching, and bigger drains mean
        // fewer of them.
        ingest_batch: 512,
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
        lectures.push((gid, roster));
    }
    (cluster, lectures)
}

/// The speak + release wave for one slice of the campus, in submission
/// order.
fn wave(slice: &[(GlobalGroupId, Vec<GlobalMemberId>)]) -> Vec<GlobalRequest> {
    let mut requests = Vec::with_capacity(slice.len() * MEMBERS * 2);
    for (gid, roster) in slice {
        for &member in roster {
            requests.push(GlobalRequest::speak(*gid, member));
        }
    }
    for (gid, roster) in slice {
        for &member in roster {
            requests.push(GlobalRequest::release_floor(*gid, member));
        }
    }
    requests
}

/// Measures `iter` over several independent windows (~150 ms each, min 3
/// iterations) after a warm-up and keeps the **fastest** window — scheduler
/// noise on shared or few-core hosts only ever subtracts throughput, so the
/// best window is the least-biased estimate. Returns (mean seconds/iter of
/// that window, requests/sec).
fn measure(mut iter: impl FnMut()) -> (f64, f64) {
    iter(); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut iters = 0u32;
        while iters < 3 || start.elapsed() < Duration::from_millis(150) {
            iter();
            iters += 1;
        }
        best = best.min(start.elapsed().as_secs_f64() / f64::from(iters));
    }
    (best, REQUESTS_PER_ITER as f64 / best)
}

struct CaseResult {
    case: String,
    mean_secs: f64,
    req_per_sec: f64,
    extra: Vec<(&'static str, f64)>,
}

fn report(result: &CaseResult) {
    let mean = Duration::from_secs_f64(result.mean_secs);
    let extras: String = result
        .extra
        .iter()
        .map(|(k, v)| format!("  {k} {v:.0}"))
        .collect();
    println!(
        "bench gateway_ingest/{:<40} mean {mean:>12?}  {:>12.1} elem/s{extras}",
        result.case, result.req_per_sec
    );
}

/// The PR 2 shape: every request submitted individually.
fn single_submit_case(gateways: usize) -> CaseResult {
    let (cluster, lectures) = campus(1 << 14, OverloadPolicy::Block, 0, 0);
    let handles: Vec<Gateway> = (0..gateways).map(|_| cluster.gateway()).collect();
    let slices: Vec<&[(GlobalGroupId, Vec<GlobalMemberId>)]> =
        lectures.chunks(lectures.len().div_ceil(gateways)).collect();
    let (mean_secs, req_per_sec) = measure(|| {
        std::thread::scope(|scope| {
            for (gateway, slice) in handles.iter().zip(&slices) {
                scope.spawn(move || {
                    let requests = wave(slice);
                    for request in &requests {
                        gateway.submit(*request).expect("routable");
                    }
                    gateway
                        .collect_decisions(requests.len())
                        .expect("pipelines alive")
                });
            }
        })
    });
    CaseResult {
        case: format!("single-submit/{gateways}-gateways"),
        mean_secs,
        req_per_sec,
        extra: Vec::new(),
    }
}

/// The vectored shape: the same workload through `submit_batch` chunks.
/// With `trace_sampling > 0` the case also reports the p50/p99
/// submit→decision latency read from the sampled-span histograms.
fn batched_case(gateways: usize, batch: usize, trace_sampling: u64) -> CaseResult {
    let (cluster, lectures) = campus(1 << 14, OverloadPolicy::Block, 0, trace_sampling);
    let handles: Vec<Gateway> = (0..gateways).map(|_| cluster.gateway()).collect();
    let slices: Vec<&[(GlobalGroupId, Vec<GlobalMemberId>)]> =
        lectures.chunks(lectures.len().div_ceil(gateways)).collect();
    let (mean_secs, req_per_sec) = measure(|| {
        std::thread::scope(|scope| {
            for (gateway, slice) in handles.iter().zip(&slices) {
                scope.spawn(move || {
                    let requests = wave(slice);
                    let mut sent = 0;
                    for chunk in requests.chunks(batch) {
                        sent += gateway.submit_batch(chunk).len();
                    }
                    gateway.collect_decisions(sent).expect("pipelines alive")
                });
            }
        })
    });
    let (case, extra) = if trace_sampling == 0 {
        (
            format!("batched/{gateways}-gateways/batch-{batch}"),
            Vec::new(),
        )
    } else {
        let latency = cluster.metrics().histogram("cluster.submit_latency_ns");
        assert!(
            latency.count() > 0,
            "traced run must have sampled some spans"
        );
        (
            format!("batched/{gateways}-gateways/batch-{batch}/traced-1-in-{trace_sampling}"),
            vec![
                ("p50_submit_ns", latency.p50() as f64),
                ("p99_submit_ns", latency.p99() as f64),
                ("sampled_spans", latency.count() as f64),
            ],
        )
    };
    CaseResult {
        case,
        mean_secs,
        req_per_sec,
        extra,
    }
}

/// The overload shape: a small queue under `Shed`, with shed requests
/// resubmitted (exactly-once through the dedup window) until everything
/// applies.
fn saturation_case(gateways: usize, capacity: usize, batch: usize) -> CaseResult {
    let (cluster, lectures) = campus(capacity, OverloadPolicy::Shed, 1 << 15, 0);
    let handles: Vec<Gateway> = (0..gateways).map(|_| cluster.gateway()).collect();
    let slices: Vec<&[(GlobalGroupId, Vec<GlobalMemberId>)]> =
        lectures.chunks(lectures.len().div_ceil(gateways)).collect();
    let total_shed = std::sync::atomic::AtomicU64::new(0);
    let (mean_secs, req_per_sec) = measure(|| {
        std::thread::scope(|scope| {
            for (gateway, slice) in handles.iter().zip(&slices) {
                let total_shed = &total_shed;
                scope.spawn(move || {
                    let requests = wave(slice);
                    let mut by_seq: BTreeMap<u64, GlobalRequest> = BTreeMap::new();
                    for chunk in requests.chunks(batch) {
                        for (seq, request) in gateway.submit_batch(chunk).into_iter().zip(chunk) {
                            by_seq.insert(seq, *request);
                        }
                    }
                    let mut applied = 0usize;
                    let mut shed = 0u64;
                    while applied < requests.len() {
                        let decision = gateway.recv_decision().expect("pipelines alive");
                        if matches!(decision.outcome, Err(ClusterError::Overloaded(_))) {
                            shed += 1;
                            std::thread::yield_now();
                            gateway
                                .resubmit(decision.seq, by_seq[&decision.seq])
                                .expect("routable");
                        } else {
                            applied += 1;
                        }
                    }
                    total_shed.fetch_add(shed, std::sync::atomic::Ordering::Relaxed);
                });
            }
        })
    });
    let peak = (0..SHARDS)
        .map(|s| cluster.queue_stats(ShardId(s)).peak_queued)
        .max()
        .unwrap_or(0);
    assert!(
        peak <= capacity,
        "shed storm must never queue past capacity (peak {peak} > {capacity})"
    );
    CaseResult {
        case: format!("saturation/shed/{gateways}-gateways/capacity-{capacity}"),
        mean_secs,
        req_per_sec,
        extra: vec![
            ("peak_queued", peak as f64),
            ("capacity", capacity as f64),
            (
                "sheds",
                total_shed.load(std::sync::atomic::Ordering::Relaxed) as f64,
            ),
        ],
    }
}

fn write_json(
    results: &[CaseResult],
    baseline: f64,
    batched_best: f64,
    telemetry_off: f64,
    telemetry_on: &CaseResult,
) {
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"gateway_ingest\",\n");
    body.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    body.push_str(&format!("  \"shards\": {SHARDS},\n"));
    body.push_str(&format!("  \"groups\": {GROUPS},\n"));
    body.push_str(&format!("  \"members_per_group\": {MEMBERS},\n"));
    body.push_str(&format!(
        "  \"requests_per_iteration\": {REQUESTS_PER_ITER},\n"
    ));
    body.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let extras: String = r
            .extra
            .iter()
            .map(|(k, v)| format!(", \"{k}\": {v:.0}"))
            .collect();
        body.push_str(&format!(
            "    {{\"case\": \"{}\", \"mean_iter_secs\": {:.6}, \"req_per_sec\": {:.0}{extras}}}{}\n",
            r.case,
            r.mean_secs,
            r.req_per_sec,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"acceptance\": {\n");
    body.push_str(
        "    \"baseline_policy\": \"single-submit baseline measured same-host, same-process; \
         cross-host constants are not comparable (see crates/bench/README.md)\",\n",
    );
    body.push_str(&format!(
        "    \"measured_single_submit_4gw_req_per_sec\": {baseline:.0},\n"
    ));
    body.push_str(&format!(
        "    \"measured_batched_4gw_req_per_sec\": {batched_best:.0},\n"
    ));
    body.push_str(&format!(
        "    \"speedup_vs_measured_single_submit\": {:.2},\n",
        batched_best / baseline
    ));
    body.push_str(&format!(
        "    \"batched_speedup_bar\": {BATCHED_SPEEDUP_BAR:.2},\n"
    ));
    body.push_str(&format!(
        "    \"telemetry_off_batch512_req_per_sec\": {telemetry_off:.0},\n"
    ));
    body.push_str(&format!(
        "    \"telemetry_on_batch512_req_per_sec\": {:.0},\n",
        telemetry_on.req_per_sec
    ));
    body.push_str(&format!(
        "    \"telemetry_on_over_off\": {:.3},\n",
        telemetry_on.req_per_sec / telemetry_off
    ));
    for (key, value) in &telemetry_on.extra {
        body.push_str(&format!("    \"telemetry_on_{key}\": {value:.0},\n"));
    }
    body.push_str(&format!("    \"trace_sampling\": {TRACE_SAMPLING}\n"));
    body.push_str("  }\n}\n");
    // The bench runs with CWD = crates/bench; the committed artifact lives
    // at the repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, &body).expect("write BENCH_ingest.json");
    println!("\nwrote {path}");
    print!("{body}");
}

fn main() {
    let mut results = Vec::new();
    for gateways in [1usize, 2, 4] {
        results.push(single_submit_case(gateways));
        report(results.last().unwrap());
    }
    for batch in [16usize, 64, 256, 512] {
        results.push(batched_case(4, batch, 0));
        report(results.last().unwrap());
    }
    // The same-host speedup bar: scheduler noise moves both sides of the
    // comparison, so when the first attempt lands under the bar both sides
    // are re-measured evenhandedly — same attempt count each, best attempt
    // kept per side (noise only ever subtracts throughput) — before the bar
    // is enforced.
    let base_index = results
        .iter()
        .position(|r| r.case == "single-submit/4-gateways")
        .expect("single-submit baseline ran");
    let b512_index = results
        .iter()
        .position(|r| r.case == "batched/4-gateways/batch-512")
        .expect("batch-512 case ran");
    for _ in 0..2 {
        let best_batched = results
            .iter()
            .filter(|r| r.case.starts_with("batched/4-gateways"))
            .map(|r| r.req_per_sec)
            .fold(f64::NAN, f64::max);
        if best_batched >= BATCHED_SPEEDUP_BAR * results[base_index].req_per_sec {
            break;
        }
        for (index, retry) in [
            (base_index, single_submit_case(4)),
            (b512_index, batched_case(4, 512, 0)),
        ] {
            report(&retry);
            if retry.req_per_sec > results[index].req_per_sec {
                results[index] = retry;
            }
        }
    }
    // The telemetry axis: the best batched shape with span tracing on,
    // measured back-to-back with its untraced comparator. Scheduler noise
    // on a shared few-core host can exceed the effect under test, so if the
    // first pair lands outside the 5% bar the whole pair is re-measured —
    // the same attempt count for both sides, best attempt kept per side —
    // before the bar is enforced.
    results.push(batched_case(4, 512, TRACE_SAMPLING));
    report(results.last().unwrap());
    let off_index = results
        .iter()
        .position(|r| r.case == "batched/4-gateways/batch-512")
        .expect("untraced comparator ran");
    let on_index = results.len() - 1;
    for _ in 0..2 {
        if results[on_index].req_per_sec >= 0.95 * results[off_index].req_per_sec {
            break;
        }
        for (index, sampling) in [(off_index, 0), (on_index, TRACE_SAMPLING)] {
            let retry = batched_case(4, 512, sampling);
            report(&retry);
            if retry.req_per_sec > results[index].req_per_sec {
                results[index] = retry;
            }
        }
    }
    results.push(saturation_case(4, 256, 64));
    report(results.last().unwrap());

    let baseline = results
        .iter()
        .find(|r| r.case == "single-submit/4-gateways")
        .map(|r| r.req_per_sec)
        .unwrap_or(f64::NAN);
    let batched_best = results
        .iter()
        .filter(|r| r.case.starts_with("batched/4-gateways") && !r.case.contains("traced"))
        .map(|r| r.req_per_sec)
        .fold(f64::NAN, f64::max);
    let telemetry_off = results
        .iter()
        .find(|r| r.case == "batched/4-gateways/batch-512")
        .map(|r| r.req_per_sec)
        .unwrap_or(f64::NAN);
    let telemetry_on = results
        .iter()
        .find(|r| r.case.contains("traced"))
        .expect("traced case ran");
    let ratio = telemetry_on.req_per_sec / telemetry_off;
    assert!(
        ratio >= 0.95,
        "telemetry-on batched throughput must stay within 5% of telemetry-off \
         ({:.0} vs {telemetry_off:.0} req/s, ratio {ratio:.3})",
        telemetry_on.req_per_sec
    );
    let speedup = batched_best / baseline;
    assert!(
        speedup >= BATCHED_SPEEDUP_BAR,
        "batched ingest must beat the same-host single-submit baseline by \
         {BATCHED_SPEEDUP_BAR:.2}x (measured {batched_best:.0} vs {baseline:.0} req/s, \
         {speedup:.2}x)"
    );
    write_json(
        &results,
        baseline,
        batched_best,
        telemetry_off,
        telemetry_on,
    );
}
