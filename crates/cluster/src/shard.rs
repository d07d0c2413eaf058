//! One shard: a [`FloorArbiter`] plus a [`SessionStore`] behind a single
//! append-only event log with periodic snapshots and request-id dedup
//! windows.
//!
//! The log models the shard's replicated durable state (in a real deployment
//! it would live on a quorum of log servers); the arbiter and the session
//! store are the volatile in-memory state of the shard's primary process. A
//! crash discards both; recovery restores the latest [`ShardSnapshot`] and
//! replays the log suffix, which — because [`FloorArbiter::apply`] and
//! [`SessionStore::apply`] are deterministic — reconstructs the pre-crash
//! state exactly. Floor events ([`dmps_floor::ArbiterEvent`]) and session
//! events ([`SessionEvent`]) share one totally-ordered log
//! ([`ShardEvent`]), so a chat line delivered under a held token replays
//! against exactly the floor state that admitted it.
//!
//! The [`DedupWindow`]s are the shard half of gateway retransmission: every
//! arbitration (and every delivered session op) carries a cluster-unique
//! request id, and the decision recorded for it answers any retry of the
//! same id without re-applying the event. Like the log, the windows are
//! modelled as durable (they are conceptually the tail of the decision
//! journal riding the replicated log), so a retry that arrives after a
//! crash-and-recover cannot double-apply an event.
//!
//! The shard is also one side of the two-phase *live handoff* that migrates
//! floor-active groups between shards: [`Shard::handoff_prepare`] freezes a
//! group (durably, via [`ShardEvent::HandoffPrepare`]) and exports its
//! complete state ([`HandoffExport`]) at a pinned log position;
//! [`Shard::handoff_install`] applies that export on the destination in one
//! step, and [`Shard::handoff_commit_source`] (retiring the source copy in
//! one step) / [`Shard::handoff_abort`] log the matching resolution. Frozen
//! groups refuse ingest with
//! [`crate::ClusterError::GroupFrozen`] — so no matter which side crashes
//! mid-handoff, replay reconstructs a state in which at most one shard ever
//! serves the group's token.
//!
//! ```
//! use dmps_cluster::{GlobalGroupId, Shard, ShardId};
//! use dmps_floor::{ArbiterEvent, FcmMode, FloorRequest, GroupId, Member, MemberId, Role};
//!
//! let mut shard = Shard::new(ShardId(0), 4, 64);
//! shard
//!     .apply(ArbiterEvent::CreateGroup { name: "lecture".into(), mode: FcmMode::EqualControl })
//!     .unwrap();
//! shard
//!     .apply(ArbiterEvent::AddMember { group: GroupId(0), member: Member::new("t", Role::Chair) })
//!     .unwrap();
//! let speak = FloorRequest::speak(GroupId(0), MemberId(0));
//! let (outcome, replayed) = shard.arbitrate_dedup(1, GlobalGroupId(0), speak.clone());
//! assert!(outcome.unwrap().is_granted() && !replayed);
//! // The primary dies; the standby reconstructs the exact pre-crash state.
//! shard.crash();
//! shard.recover().unwrap();
//! shard.arbiter().check_invariants().unwrap();
//! let (retry, replayed) = shard.arbitrate_dedup(1, GlobalGroupId(0), speak);
//! assert!(retry.unwrap().is_granted() && replayed, "journal answers the retry");
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use dmps_telemetry::saturating_nanos;

use crate::instrument::ShardMetrics;

use dmps_floor::arbiter::ArbiterStats;
use dmps_floor::snapshot::EventOutcome;
use dmps_floor::{
    ArbiterDelta, ArbiterDirty, ArbiterEvent, ArbiterSnapshot, ArbitrationOutcome, FloorArbiter,
    FloorRequest, GroupId, MemberId,
};
use dmps_wire::Wire;

use crate::error::{ClusterError, Result};
use crate::ring::ShardId;
use crate::session::{
    GroupSession, LaneLens, SessionEvent, SessionOutcome, SessionRejection, SessionStore,
};

/// Cluster-wide identifier of a group (stable across shard moves, unlike the
/// dense per-arbiter [`dmps_floor::GroupId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalGroupId(pub u64);

impl fmt::Display for GlobalGroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl Wire for GlobalGroupId {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.0.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(GlobalGroupId(u64::decode(r)?))
    }
}

/// Cluster-wide identifier of a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalMemberId(pub u64);

impl fmt::Display for GlobalMemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

impl Wire for GlobalMemberId {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.0.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(GlobalMemberId(u64::decode(r)?))
    }
}

/// One entry of a shard's totally-ordered durable log: a floor-control
/// mutation, a session-content delivery, or a migration bookkeeping record.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ShardEvent {
    /// A floor-control state mutation.
    Floor(ArbiterEvent),
    /// A delivered session operation (already floor-gated when logged).
    Session(SessionEvent),
    /// A group's session content left this shard (rebalancing); replay must
    /// drop it like the migration did.
    SessionPurge(GlobalGroupId),
    /// A group's session content arrived from another shard (rebalancing);
    /// replay must re-install it.
    SessionInstall {
        /// The migrated group.
        group: GlobalGroupId,
        /// Its content at migration time.
        content: GroupSession,
    },
    /// Phase 1 of a live handoff: the group is frozen on this (source)
    /// shard — ingest for it fails closed with
    /// [`crate::ClusterError::GroupFrozen`] until a commit or abort is
    /// logged. Replay must restore the frozen marker so a crash mid-handoff
    /// cannot resurrect a second serving copy.
    HandoffPrepare(GlobalGroupId),
    /// Phase 2 of a live handoff, source side: the group left this shard for
    /// good (its roster was emptied and its session content purged by the
    /// separately-logged events preceding this one); replay must unfreeze
    /// the husk.
    HandoffCommit(GlobalGroupId),
    /// A live handoff was abandoned (destination unreachable): the group
    /// resumes serving on this shard; replay must unfreeze it.
    HandoffAbort(GlobalGroupId),
}

impl ShardEvent {
    /// Approximate in-memory footprint in bytes: the enum's inline size plus
    /// the owned heap payload of the common variants. Rare bookkeeping
    /// records (handoff markers, purges) and floor events with no sizeable
    /// heap payload count only their inline size — this is a capacity
    /// metric, not an allocator audit.
    pub fn approx_bytes(&self) -> u64 {
        let inline = std::mem::size_of::<ShardEvent>() as u64;
        let heap = match self {
            ShardEvent::Floor(e) => match e {
                ArbiterEvent::CreateGroup { name, .. } => name.len() as u64,
                ArbiterEvent::AddMember { member, .. } => {
                    (member.name.len() + std::mem::size_of_val(member.channels.as_slice())) as u64
                }
                _ => 0,
            },
            ShardEvent::Session(e) => e.heap_bytes(),
            ShardEvent::SessionInstall { content, .. } => content.size_bytes(),
            _ => 0,
        };
        inline + heap
    }
}

impl Wire for ShardEvent {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        match self {
            ShardEvent::Floor(e) => {
                0u8.encode(w);
                e.encode(w);
            }
            ShardEvent::Session(e) => {
                1u8.encode(w);
                e.encode(w);
            }
            ShardEvent::SessionPurge(g) => {
                2u8.encode(w);
                g.encode(w);
            }
            ShardEvent::SessionInstall { group, content } => {
                3u8.encode(w);
                group.encode(w);
                content.encode(w);
            }
            ShardEvent::HandoffPrepare(g) => {
                4u8.encode(w);
                g.encode(w);
            }
            ShardEvent::HandoffCommit(g) => {
                5u8.encode(w);
                g.encode(w);
            }
            ShardEvent::HandoffAbort(g) => {
                6u8.encode(w);
                g.encode(w);
            }
        }
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        let tag = u8::decode(r)?;
        Ok(match tag {
            0 => ShardEvent::Floor(ArbiterEvent::decode(r)?),
            1 => ShardEvent::Session(SessionEvent::decode(r)?),
            2 => ShardEvent::SessionPurge(GlobalGroupId::decode(r)?),
            3 => ShardEvent::SessionInstall {
                group: GlobalGroupId::decode(r)?,
                content: GroupSession::decode(r)?,
            },
            4 => ShardEvent::HandoffPrepare(GlobalGroupId::decode(r)?),
            5 => ShardEvent::HandoffCommit(GlobalGroupId::decode(r)?),
            6 => ShardEvent::HandoffAbort(GlobalGroupId::decode(r)?),
            other => {
                return Err(dmps_wire::WireError::BadToken {
                    expected: "ShardEvent tag",
                    token: other.to_string(),
                })
            }
        })
    }
}

/// CRC-32 over the canonical wire encoding of a run of shard events — the
/// integrity check sealed log segments carry. Computed once at seal time on
/// the leader; recovery, followers and resync re-derive it from the events
/// they hold and compare.
pub(crate) fn segment_crc(events: &[ShardEvent]) -> u32 {
    dmps_wire::crc32_of_each(events)
}

/// A sealed log segment: the sequence number of its first event plus the
/// shared, immutable event slice (see [`EventLog::seal`]).
pub type LogSegment<E> = (u64, Arc<[E]>);

/// The append-only event log of one shard, with prefix compaction.
///
/// Event `i` of the shard's history has sequence number `i`; after
/// compaction the log keeps only events `base..`, the rest being covered by
/// a snapshot. Storage is segmented: [`EventLog::seal`] converts the open
/// tail into a shared [`LogSegment`] that replication ships (and followers
/// retain) by reference count; an unreplicated shard never seals, keeping
/// the whole log as a plain vector.
#[derive(Debug, Clone)]
pub struct EventLog<E = ShardEvent> {
    base: u64,
    /// Sequence number of the next appended event.
    next: u64,
    /// Sealed segments in append order, each `(start_seq, events)`. Segments
    /// are contiguous (each starts where the previous ended); the first may
    /// straddle `base` after a mid-segment compaction. Each segment is one
    /// shared immutable slice, so replication can ship it (and followers can
    /// retain it) by reference count instead of copying events.
    segments: VecDeque<(u64, Arc<[E]>)>,
    /// Open tail: events appended since the last [`EventLog::seal`].
    tail: Vec<E>,
}

impl<E> Default for EventLog<E> {
    fn default() -> Self {
        EventLog {
            base: 0,
            next: 0,
            segments: VecDeque::new(),
            tail: Vec::new(),
        }
    }
}

impl<E> EventLog<E> {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Sequence number the next appended event receives.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Sequence number of the oldest retained event.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of retained events.
    pub fn retained(&self) -> usize {
        (self.next - self.base) as usize
    }

    /// Sequence number of the first unsealed (open-tail) event.
    fn tail_start(&self) -> u64 {
        self.next - self.tail.len() as u64
    }

    /// Appends an event, returning its sequence number.
    pub fn append(&mut self, event: E) -> u64 {
        let seq = self.next;
        self.tail.push(event);
        self.next += 1;
        seq
    }

    /// Appends a run of events in order — the group-commit path: one
    /// amortized append for a whole ingest batch instead of one bookkeeping
    /// pass per event. Returns the sequence number the *next* event would
    /// receive (`base + retained` after the append).
    pub fn append_batch(&mut self, events: impl IntoIterator<Item = E>) -> u64 {
        let before = self.tail.len();
        self.tail.extend(events);
        self.next += (self.tail.len() - before) as u64;
        self.next
    }

    /// Seals the open tail into a shared segment, returning the segment just
    /// sealed (so the caller can checksum it), or `None` when the tail was
    /// empty. Replicated shards seal after every group commit so the batch
    /// can be shipped (and retained by followers) as one reference-counted
    /// slice; unreplicated shards never seal and keep the tail as a plain
    /// vector.
    pub fn seal(&mut self) -> Option<&LogSegment<E>> {
        if self.tail.is_empty() {
            return None;
        }
        let start = self.tail_start();
        let segment: Arc<[E]> = std::mem::take(&mut self.tail).into();
        self.segments.push_back((start, segment));
        self.segments.back()
    }

    /// The retained events starting at `from_seq`, in sequence order.
    ///
    /// # Panics
    ///
    /// Panics when `from_seq` precedes the compaction base — those events no
    /// longer exist and the caller should have used a newer snapshot.
    pub fn events_from(&self, from_seq: u64) -> impl Iterator<Item = &E> {
        assert!(
            from_seq >= self.base,
            "log suffix from {} requested but events before {} were compacted",
            from_seq,
            self.base
        );
        let from = from_seq.max(self.base);
        let sealed = self.segments.iter().flat_map(move |(start, segment)| {
            let skip = from.saturating_sub(*start).min(segment.len() as u64) as usize;
            segment[skip..].iter()
        });
        let tail_skip = from
            .saturating_sub(self.tail_start())
            .min(self.tail.len() as u64) as usize;
        sealed.chain(self.tail[tail_skip..].iter())
    }

    /// The sealed segments overlapping `from_seq..`, as shared slices, plus
    /// the position sealed coverage ends at (`tail_start`): events past it
    /// are still in the open tail and ship after the next [`EventLog::seal`].
    /// `from_seq` must be at or past [`EventLog::base`] (callers below the
    /// base re-seed from a snapshot instead).
    pub fn segments_from(&self, from_seq: u64) -> (Vec<LogSegment<E>>, u64) {
        // Binary search for the first segment whose end is past `from_seq`:
        // segments are contiguous and sorted by start, and a replication
        // cursor in the steady state sits at the second-to-last boundary, so
        // this stays cheap however long the retained history grows.
        let (mut lo, mut hi) = (0usize, self.segments.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (start, segment) = &self.segments[mid];
            if start + segment.len() as u64 <= from_seq {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let segments = self.segments.range(lo..).cloned().collect();
        (segments, self.tail_start())
    }

    /// Drops every event at or after `seq` — the unquorumed tail a quorum
    /// repair discards when it adopts replica-held state instead of
    /// trusting local artifacts. The compaction base is untouched; `seq`
    /// at or below it empties the log. A sealed segment straddling the cut
    /// is shortened by copy (its full `Arc` may still be shared with
    /// replicas and must not be mutated).
    pub fn truncate_from(&mut self, seq: u64)
    where
        E: Clone,
    {
        let seq = seq.clamp(self.base, self.next);
        if seq == self.next {
            return;
        }
        let tail_start = self.tail_start();
        if seq <= tail_start {
            self.tail.clear();
        } else {
            self.tail.truncate((seq - tail_start) as usize);
        }
        while let Some((start, segment)) = self.segments.back() {
            if *start >= seq {
                self.segments.pop_back();
            } else if *start + segment.len() as u64 > seq {
                let keep = (seq - *start) as usize;
                let start = *start;
                let shortened: Arc<[E]> = segment[..keep].to_vec().into();
                self.segments.pop_back();
                self.segments.push_back((start, shortened));
                break;
            } else {
                break;
            }
        }
        self.next = seq;
    }

    /// Drops every event before `seq` (they are covered by a snapshot). A
    /// sealed segment straddling the new base is kept whole — readers skip
    /// its compacted prefix by sequence arithmetic.
    pub fn compact_to(&mut self, seq: u64) {
        let seq = seq.min(self.next);
        if seq <= self.base {
            return;
        }
        self.base = seq;
        while let Some((start, segment)) = self.segments.front() {
            if start + segment.len() as u64 <= seq {
                self.segments.pop_front();
            } else {
                break;
            }
        }
        let tail_start = self.tail_start();
        if seq > tail_start {
            self.tail.drain(..(seq - tail_start) as usize);
        }
    }
}

/// A bounded map of recently decided request ids → outcomes: the shard side
/// of gateway retransmission, for floor decisions
/// (`DedupWindow<ArbitrationOutcome>`, the default) and session decisions
/// (`DedupWindow<SessionOutcome>`) alike.
///
/// Recording is windowed (oldest entries evicted first) so memory stays
/// bounded; the window only needs to outlast the gateways' retry horizon.
/// A capacity of zero disables dedup entirely. Entries remember which
/// global group they decided for, so a group migration can carry its slice
/// of the journal to the new owning shard ([`DedupWindow::extract_group`])
/// and retries keep replaying instead of double-applying.
///
/// Outcomes are stored behind `Arc`, so the hot path records a decision
/// with a reference-count bump (the same allocation backs the streamed
/// [`Decision`](crate::Decision)) and a replay hands the recorded outcome
/// back by reference instead of deep-cloning its payload.
#[derive(Debug, Clone)]
pub struct DedupWindow<T = ArbitrationOutcome> {
    capacity: usize,
    order: VecDeque<u64>,
    outcomes: HashMap<u64, (GlobalGroupId, Arc<T>)>,
}

impl<T> Default for DedupWindow<T> {
    fn default() -> Self {
        DedupWindow::new(0)
    }
}

impl<T> DedupWindow<T> {
    /// A window retaining the last `capacity` decisions.
    pub fn new(capacity: usize) -> Self {
        DedupWindow {
            capacity,
            order: VecDeque::new(),
            outcomes: HashMap::new(),
        }
    }

    /// Number of retained decisions.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the window holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The decision recorded for a request id, if still in the window.
    pub fn get(&self, id: u64) -> Option<&Arc<T>> {
        self.outcomes.get(&id).map(|(_, outcome)| outcome)
    }

    /// Records a decision, evicting the oldest entries when over capacity.
    /// Recording shares the outcome (`Arc` bump), never deep-copies it, and
    /// a window at capacity reuses its table: the steady state allocates
    /// nothing.
    pub fn record(&mut self, id: u64, group: GlobalGroupId, outcome: Arc<T>) {
        if self.capacity == 0 || self.outcomes.contains_key(&id) {
            return;
        }
        // The order queue may hold ids already extracted by a migration, so
        // evict until an actual entry made room (or the queue is exhausted).
        while self.outcomes.len() >= self.capacity {
            let Some(evicted) = self.order.pop_front() else {
                break;
            };
            self.outcomes.remove(&evicted);
        }
        self.order.push_back(id);
        self.outcomes.insert(id, (group, outcome));
    }

    /// Copies every journaled decision for `group`, in id order, without
    /// removing it — phase 1 of a live handoff exports the slice while the
    /// source must stay able to answer retries until the commit point. The
    /// copies are `Arc` shares, not deep clones.
    pub fn peek_group(&self, group: GlobalGroupId) -> Vec<(u64, Arc<T>)> {
        let mut entries: Vec<(u64, Arc<T>)> = self
            .outcomes
            .iter()
            .filter(|(_, (g, _))| *g == group)
            .map(|(&id, (_, outcome))| (id, outcome.clone()))
            .collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries
    }

    /// Removes and returns every journaled decision for `group`, in id
    /// order — the migration path: the entries follow the group to its new
    /// shard.
    pub fn extract_group(&mut self, group: GlobalGroupId) -> Vec<(u64, Arc<T>)> {
        let entries = self.peek_group(group);
        for (id, _) in &entries {
            self.outcomes.remove(id);
        }
        entries
    }

    /// Installs journal entries extracted from another shard's window.
    pub fn install(&mut self, group: GlobalGroupId, entries: Vec<(u64, Arc<T>)>) {
        for (id, outcome) in entries {
            self.record(id, group, outcome);
        }
    }

    /// Approximate in-memory footprint of the window in bytes: map-entry
    /// overhead plus the inline size of each journaled outcome. O(1) — the
    /// rare heap payloads inside outcomes (denial reason strings) are not
    /// walked; this is a capacity metric, not an allocator audit.
    pub fn approx_bytes(&self) -> u64 {
        let per_entry = (std::mem::size_of::<u64>()
            + std::mem::size_of::<(GlobalGroupId, Arc<T>)>()
            + std::mem::size_of::<T>()) as u64;
        self.outcomes.len() as u64 * per_entry
    }

    /// Drops the entry for a request id, if present. Used to roll back
    /// journal entries whose events died in an uncommitted group-commit
    /// batch — the journal conceptually rides the log, so it must not
    /// outlive events the log never saw. (Any stale id left in the eviction
    /// order is skipped naturally, like extracted ids are.)
    pub fn forget(&mut self, id: u64) {
        if self.outcomes.remove(&id).is_some() {
            // Purge the eviction order too: unlike migration-extracted ids
            // (which can never be re-recorded here — the directory routes
            // the group elsewhere), a rolled-back id is expected to be
            // retried and re-recorded on THIS shard, and a stale front copy
            // in `order` would then evict the live re-recorded entry long
            // before it is actually the oldest.
            self.order.retain(|&queued| queued != id);
        }
    }
}

/// A read-only snapshot of a shard's health and counters, cheap enough to
/// ship out of the pipeline that owns the [`Shard`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardView {
    /// The shard id.
    pub id: ShardId,
    /// Current liveness.
    pub state: ShardState,
    /// How many times a standby recovered the shard.
    pub recoveries: u64,
    /// Sequence number of the oldest retained log event.
    pub log_base: u64,
    /// Number of retained log events.
    pub log_retained: usize,
    /// Whether a snapshot has been taken.
    pub has_snapshot: bool,
    /// Number of floor decisions currently in the dedup window.
    pub dedup_entries: usize,
    /// Number of session decisions currently in the session dedup window.
    pub session_dedup_entries: usize,
    /// Number of groups with recorded session content on this shard.
    pub session_groups: usize,
    /// Number of groups currently frozen by an in-flight live handoff.
    pub frozen_groups: usize,
    /// Approximate bytes of the retained log suffix (including any open
    /// group-commit batch). Zero on follower views — followers retain
    /// segments by reference, so the leader already accounts for them.
    pub log_bytes: u64,
    /// Approximate bytes of recorded session content on this shard.
    pub session_bytes: u64,
    /// Approximate bytes held by the floor and session dedup windows
    /// combined. Zero on follower views (the journal lives on the leader).
    pub dedup_bytes: u64,
    /// Encoded size of the durable checkpoint state in bytes: the latest
    /// full snapshot base **plus** every delta chained on it (zero when no
    /// checkpoint was taken; zero on follower views).
    pub snapshot_bytes: u64,
    /// Number of differential checkpoints currently chained on the snapshot
    /// base (zero right after a full snapshot; zero on follower views).
    pub snapshot_deltas: usize,
    /// Aggregate floor statistics of the shard's arbiter.
    pub stats: ArbiterStats,
}

/// Which durable artifact a fault injection corrupts — see
/// [`Shard::inject_corruption`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CorruptionTarget {
    /// Bit-rot the stored snapshot base: its checksum no longer matches.
    SnapshotBase,
    /// Bit-rot the newest chained snapshot delta.
    SnapshotDelta,
    /// Bit-rot the newest sealed log segment.
    SealedSegment,
    /// A torn write on the snapshot base: the payload is truncated but the
    /// checksum covers the torn bytes, so the parser (not the CRC) must
    /// catch it.
    TornSnapshot,
}

/// Liveness of a shard's primary process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// The primary is serving requests.
    Active,
    /// The primary crashed; the log and snapshot survive but no requests are
    /// served until a standby recovers.
    Failed,
}

/// A point-in-time copy of a shard's complete durable state: the arbiter
/// snapshot plus the wire-encoded session store, both covering the same log
/// position.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// The floor-control half.
    pub arbiter: ArbiterSnapshot,
    /// The wire-encoded [`SessionStore`] at the same log position.
    pub session: String,
    /// Groups frozen by an in-flight live handoff at snapshot time (sorted).
    /// Without this, a snapshot taken inside the frozen window would lose
    /// the marker the logged [`ShardEvent::HandoffPrepare`] established.
    pub frozen: Vec<GlobalGroupId>,
}

impl ShardSnapshot {
    /// Number of log events already folded into this snapshot.
    pub fn applied_seq(&self) -> u64 {
        self.arbiter.applied_seq
    }

    /// The encoded size in bytes (capacity-planning metric for snapshot
    /// shipping).
    pub fn size_bytes(&self) -> usize {
        self.arbiter.size_bytes() + self.session.len()
    }
}

impl Wire for ShardSnapshot {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.arbiter.encode(w);
        self.session.encode(w);
        self.frozen.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(ShardSnapshot {
            arbiter: ArbiterSnapshot::decode(r)?,
            session: String::decode(r)?,
            frozen: Vec::<GlobalGroupId>::decode(r)?,
        })
    }
}

/// A differential checkpoint: only the state dirtied since the previous
/// checkpoint, chained onto a periodic full [`ShardSnapshot`] base. Restoring
/// folds the base, then each delta in chain order, then replays the log tail
/// — see [`Shard::recover`].
///
/// The delta's window is `(base_seq, applied_seq]`, and it folds correctly
/// onto a restorer positioned anywhere inside that window — the property
/// follower resync relies on when its ack knowledge lags the leader's chain.
/// Arbiter entries and the tiny globals carry their complete value at delta
/// time; session content, being append-only, carries only what the window
/// appended ([`GroupSession::splice`]: truncate to the window's start, then
/// extend), so a delta costs O(appended), not O(history of every dirty
/// group). A restorer holding less than the window's start is refused.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDelta {
    /// The floor-control half: dirty arbiter entries plus globals.
    pub arbiter: ArbiterDelta,
    /// Per group whose session log changed in the window: `(group, from,
    /// appended)` — its lane lengths at `base_seq` (0 when it was purged and
    /// re-installed inside the window) and the entries appended since.
    pub sessions: Vec<(GlobalGroupId, LaneLens, GroupSession)>,
    /// Tombstones: groups whose session content was purged (migrated away)
    /// in the window.
    pub purged: Vec<GlobalGroupId>,
    /// The complete frozen set at delta time (tiny; shipped wholesale, like
    /// the snapshot's).
    pub frozen: Vec<GlobalGroupId>,
    /// The previous checkpoint's applied position — the start of this
    /// delta's window.
    pub base_seq: u64,
}

impl SnapshotDelta {
    /// Number of log events folded into the state this delta brings a
    /// restorer up to.
    pub fn applied_seq(&self) -> u64 {
        self.arbiter.applied_seq
    }

    /// Approximate encoded size in bytes — what a delta checkpoint
    /// serializes instead of the whole shard.
    pub fn size_bytes(&self) -> usize {
        self.arbiter.size_bytes()
            + self
                .sessions
                .iter()
                .map(|(_, from, tail)| std::mem::size_of_val(from) + tail.size_bytes() as usize)
                .sum::<usize>()
            + (self.purged.len() + self.frozen.len()) * std::mem::size_of::<GlobalGroupId>()
    }

    /// Folds the delta onto a restorer's state — the one fold both
    /// [`Shard::recover`] and follower resync run.
    ///
    /// # Errors
    ///
    /// Says what did not fold: an arbiter entry that does not apply, or a
    /// session suffix the restorer cannot place. The state is then partly
    /// folded and must be discarded.
    pub fn fold(
        &self,
        arbiter: &mut FloorArbiter,
        session: &mut SessionStore,
        frozen: &mut BTreeSet<GlobalGroupId>,
    ) -> std::result::Result<(), String> {
        arbiter
            .apply_delta(&self.arbiter)
            .map_err(|e| e.to_string())?;
        for (group, from, tail) in &self.sessions {
            if !session.entry(*group).splice(*from, tail) {
                return Err(format!("session suffix of {group} starts past {from:?}"));
            }
        }
        for group in &self.purged {
            session.remove(*group);
        }
        *frozen = self.frozen.iter().copied().collect();
        Ok(())
    }
}

impl Wire for SnapshotDelta {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.arbiter.encode(w);
        self.sessions.encode(w);
        self.purged.encode(w);
        self.frozen.encode(w);
        self.base_seq.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(SnapshotDelta {
            arbiter: ArbiterDelta::decode(r)?,
            sessions: Vec::<(GlobalGroupId, LaneLens, GroupSession)>::decode(r)?,
            purged: Vec::<GlobalGroupId>::decode(r)?,
            frozen: Vec::<GlobalGroupId>::decode(r)?,
            base_seq: u64::decode(r)?,
        })
    }
}

/// Everything phase 1 of a live handoff exports from the source shard, all
/// captured at one pinned log position: the group's live floor state (roster,
/// mode, chair, token with holder + queue), its session content, and its
/// slices of both decision journals.
///
/// Member ids inside `floor` are dense ids of the **source** arbiter; the
/// coordinator translates them to global ids, and then to the destination's
/// dense ids for [`Shard::handoff_install`].
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffExport {
    /// The live floor state of the group on the source shard.
    pub floor: dmps_floor::GroupFloorExport,
    /// The group's session content (chat / whiteboard / annotation logs and
    /// media schedule).
    pub content: GroupSession,
    /// The group's slice of the floor decision journal.
    pub floor_journal: Vec<(u64, Arc<ArbitrationOutcome>)>,
    /// The group's slice of the session decision journal.
    pub session_journal: Vec<(u64, Arc<SessionOutcome>)>,
    /// The source log position the export covers: every event up to (but not
    /// including) this sequence number is reflected in the exported state,
    /// and the freeze guarantees no later event will touch the group before
    /// commit or abort.
    pub pinned_seq: u64,
}

/// A shard: the unit of horizontal scale of the control plane.
#[derive(Debug)]
pub struct Shard {
    id: ShardId,
    state: ShardState,
    arbiter: FloorArbiter,
    session: SessionStore,
    log: EventLog<ShardEvent>,
    snapshot: Option<ShardSnapshot>,
    /// CRC-32 of the snapshot base's canonical encoding, written with the
    /// base. Recovery recomputes and compares before trusting the base.
    snapshot_crc: Option<u32>,
    /// Differential checkpoints chained on `snapshot`, oldest first. Durable
    /// like the snapshot; cleared when a new full base is taken.
    deltas: Vec<SnapshotDelta>,
    /// CRC-32 of each chained delta's canonical encoding, parallel to
    /// `deltas`.
    delta_crcs: Vec<u32>,
    /// CRC-32 of each sealed log segment as `(start_seq, len, crc)`, in
    /// segment order. Written at seal time, pruned with compaction, verified
    /// on recovery and by follower catch-up.
    segment_crcs: VecDeque<(u64, u64, u32)>,
    /// Log position the checkpoint *before* the newest one covered: a
    /// follower acked behind it stops pinning the log.
    prev_checkpoint_tip: u64,
    /// Lowest position acked by a follower the log is still retained for;
    /// `u64::MAX` when nothing pins the log (an unreplicated shard), so the
    /// one rule — `min(checkpoint tip, fleet ack)` — compacts to the tip.
    fleet_ack: u64,
    snapshot_every: u64,
    /// Byte-driven checkpoint cadence: checkpoint when this many event bytes
    /// committed since the last one (0 = fall back to the `snapshot_every`
    /// event count).
    snapshot_every_bytes: u64,
    /// Maximum deltas chained on one base before the next checkpoint is a
    /// full snapshot again (0 = every checkpoint is full).
    snapshot_chain: u64,
    /// Event bytes committed since the last checkpoint.
    bytes_since_checkpoint: u64,
    /// Arbiter ids dirtied since the last checkpoint.
    dirty_floor: ArbiterDirty,
    /// Groups whose session content changed since the last checkpoint, each
    /// with its lane lengths at first touch — i.e. at that checkpoint.
    dirty_sessions: BTreeMap<GlobalGroupId, LaneLens>,
    /// Groups whose session content was purged since the last checkpoint
    /// (delta tombstones).
    purged_sessions: BTreeSet<GlobalGroupId>,
    /// Forces the next checkpoint to be a full base. Set by
    /// [`Shard::adopt`]: a recovered/promoted state was rebuilt by replay,
    /// so the dirty window since the last checkpoint is unknown.
    need_full: bool,
    dedup: DedupWindow<ArbitrationOutcome>,
    session_dedup: DedupWindow<SessionOutcome>,
    /// Groups frozen by an in-flight live handoff. Volatile like the arbiter
    /// (rebuilt on recovery from the snapshot's frozen list plus the logged
    /// prepare/commit/abort events), but checked on every ingest so a frozen
    /// group cannot serve.
    frozen: BTreeSet<GlobalGroupId>,
    recoveries: u64,
    /// When `true`, [`Shard::commit`] defers log appends into `pending` for
    /// the batch's single [`Shard::commit_batch`] group commit.
    batching: bool,
    /// Events applied to the live state but not yet group-committed to the
    /// log (only non-empty between `begin_batch` and `commit_batch`).
    pending: Vec<ShardEvent>,
    /// Request ids journaled during the open batch. The dedup windows are
    /// durable because they conceptually ride the replicated log — so if the
    /// batch dies uncommitted, these entries must be rolled back with it.
    pending_dedup: Vec<u64>,
    /// Session ids journaled during the open batch (same rollback contract).
    pending_session_dedup: Vec<u64>,
    /// Decisions the worker answered `ShardDown` while their group-committed
    /// batch was still awaiting quorum, as `(request_id, batch_end_seq,
    /// is_session)`. Their journal entries and logged events may or may not
    /// survive the failover (a replica may hold the batch durably even
    /// though the leader never saw the quorum); promotion reconciles: an
    /// orphan whose events made it into the adopted state keeps its journal
    /// entry (the client's retry replays), one whose events were discarded
    /// is forgotten (the retry re-arbitrates). Either way journal and state
    /// agree, which is what keeps retry-after-failover exactly-once.
    orphans: Vec<(u64, u64, bool)>,
    /// Storage-side telemetry, installed by the cluster wiring; `None` on
    /// shards built directly (unit tests, doc examples), which then pay
    /// nothing.
    metrics: Option<ShardMetrics>,
}

impl Shard {
    /// Creates an active shard that snapshots every `snapshot_every` events
    /// (0 disables automatic snapshots) and remembers the last
    /// `dedup_window` arbitration and session decisions for retry dedup
    /// (0 disables).
    pub fn new(id: ShardId, snapshot_every: u64, dedup_window: usize) -> Self {
        Shard {
            id,
            state: ShardState::Active,
            arbiter: FloorArbiter::with_defaults(),
            session: SessionStore::new(),
            log: EventLog::new(),
            snapshot: None,
            snapshot_crc: None,
            deltas: Vec::new(),
            delta_crcs: Vec::new(),
            segment_crcs: VecDeque::new(),
            prev_checkpoint_tip: 0,
            fleet_ack: u64::MAX,
            snapshot_every,
            snapshot_every_bytes: 0,
            snapshot_chain: 0,
            bytes_since_checkpoint: 0,
            dirty_floor: ArbiterDirty::default(),
            dirty_sessions: BTreeMap::new(),
            purged_sessions: BTreeSet::new(),
            need_full: false,
            dedup: DedupWindow::new(dedup_window),
            session_dedup: DedupWindow::new(dedup_window),
            frozen: BTreeSet::new(),
            recoveries: 0,
            batching: false,
            pending: Vec::new(),
            pending_dedup: Vec::new(),
            pending_session_dedup: Vec::new(),
            orphans: Vec::new(),
            metrics: None,
        }
    }

    /// Installs the storage-side telemetry bundle (append latency, snapshot
    /// pauses, dedup hit counters). Called once by the cluster wiring before
    /// the shard moves into its pipeline.
    pub(crate) fn set_metrics(&mut self, metrics: ShardMetrics) {
        self.metrics = Some(metrics);
    }

    /// The shard id.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// Current liveness.
    pub fn state(&self) -> ShardState {
        self.state
    }

    /// Whether the shard is serving.
    pub fn is_active(&self) -> bool {
        self.state == ShardState::Active
    }

    /// Read access to the arbiter (inspection only).
    pub fn arbiter(&self) -> &FloorArbiter {
        &self.arbiter
    }

    /// Read access to the session store (inspection only).
    pub fn session(&self) -> &SessionStore {
        &self.session
    }

    /// The event log.
    pub fn log(&self) -> &EventLog<ShardEvent> {
        &self.log
    }

    /// Seals the log's open tail into a shared segment so replication can
    /// ship the freshly committed batch by reference, and records the
    /// segment's checksum. Only the replicated worker path calls this;
    /// unreplicated shards keep a plain tail.
    pub(crate) fn seal_log(&mut self) {
        let record = self
            .log
            .seal()
            .map(|(start, segment)| (*start, segment.len() as u64, segment_crc(segment)));
        if let Some(record) = record {
            self.segment_crcs.push_back(record);
        }
    }

    /// The recorded checksum of the sealed segment starting at `start`, if
    /// one was written (segments sealed before checksumming existed, or on
    /// another replica, have none).
    pub(crate) fn segment_crc_at(&self, start: u64) -> Option<u32> {
        self.segment_crcs
            .binary_search_by(|(s, _, _)| s.cmp(&start))
            .ok()
            .map(|i| self.segment_crcs[i].2)
    }

    /// Log position the newest checkpoint (base or delta) covers; 0 before
    /// the first.
    fn checkpoint_tip(&self) -> u64 {
        self.deltas
            .last()
            .map(SnapshotDelta::applied_seq)
            .or_else(|| self.snapshot.as_ref().map(ShardSnapshot::applied_seq))
            .unwrap_or(0)
    }

    /// The one compaction rule: the log keeps what the newest checkpoint
    /// does not cover, plus what a follower still worth shipping to has not
    /// acked — `min(checkpoint tip, fleet ack)`. Checksum records of the
    /// segments this drops go with them.
    fn compact_log(&mut self) {
        self.log
            .compact_to(self.checkpoint_tip().min(self.fleet_ack));
        let base = self.log.base();
        while let Some((start, len, _)) = self.segment_crcs.front() {
            if start + len <= base {
                self.segment_crcs.pop_front();
            } else {
                break;
            }
        }
    }

    /// Log position the checkpoint before the newest one covered.
    pub(crate) fn prev_checkpoint_tip(&self) -> u64 {
        self.prev_checkpoint_tip
    }

    /// The fleet half of the compaction rule, fed by the replica set
    /// whenever acks may have advanced (see the `fleet_ack` field).
    pub(crate) fn retain_for_fleet(&mut self, fleet_ack: u64) {
        self.fleet_ack = fleet_ack;
        self.compact_log();
    }

    /// The latest snapshot, if one was taken.
    pub fn latest_snapshot(&self) -> Option<&ShardSnapshot> {
        self.snapshot.as_ref()
    }

    /// The differential checkpoints chained on the latest snapshot, oldest
    /// first (empty right after a full snapshot).
    pub fn snapshot_deltas(&self) -> &[SnapshotDelta] {
        &self.deltas
    }

    /// Switches the shard to incremental checkpoints: checkpoint whenever
    /// `every_bytes` of events committed since the last one (0 keeps the
    /// event-count cadence of [`Shard::new`]), and chain up to `chain`
    /// differential checkpoints on one full base before taking a fresh base
    /// (0 keeps every checkpoint full — the legacy behavior).
    pub fn set_snapshot_policy(&mut self, every_bytes: u64, chain: u64) {
        self.snapshot_every_bytes = every_bytes;
        self.snapshot_chain = chain;
    }

    /// How many times a standby recovered this shard.
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// The floor dedup window (recently decided request ids).
    pub fn dedup(&self) -> &DedupWindow<ArbitrationOutcome> {
        &self.dedup
    }

    /// The session dedup window (recently delivered session op ids).
    pub fn session_dedup(&self) -> &DedupWindow<SessionOutcome> {
        &self.session_dedup
    }

    /// A cheap, owned snapshot of the shard's health and counters.
    pub fn view(&self) -> ShardView {
        ShardView {
            id: self.id,
            state: self.state,
            recoveries: self.recoveries,
            log_base: self.log.base(),
            log_retained: self.log.retained(),
            has_snapshot: self.snapshot.is_some(),
            dedup_entries: self.dedup.len(),
            session_dedup_entries: self.session_dedup.len(),
            session_groups: self.session.group_count(),
            frozen_groups: self.frozen.len(),
            log_bytes: self
                .log
                .events_from(self.log.base())
                .chain(self.pending.iter())
                .map(ShardEvent::approx_bytes)
                .sum(),
            session_bytes: self.session.size_bytes(),
            dedup_bytes: self.dedup.approx_bytes() + self.session_dedup.approx_bytes(),
            snapshot_bytes: self.snapshot.as_ref().map_or(0, |s| s.size_bytes() as u64)
                + self
                    .deltas
                    .iter()
                    .map(|d| d.size_bytes() as u64)
                    .sum::<u64>(),
            snapshot_deltas: self.deltas.len(),
            stats: self.arbiter.stats(),
        }
    }

    /// Whether a group is frozen by an in-flight live handoff.
    pub fn is_frozen(&self, group: GlobalGroupId) -> bool {
        self.frozen.contains(&group)
    }

    /// Appends an already-validated event to the durable log and takes a
    /// snapshot on the configured cadence. Inside a group-commit batch
    /// ([`Shard::begin_batch`]) the append is deferred so the whole batch
    /// pays for one log append and one cadence check.
    fn commit(&mut self, event: ShardEvent) {
        self.bytes_since_checkpoint += event.approx_bytes();
        if self.batching {
            self.pending.push(event);
            return;
        }
        let seq = self.log.append(event) + 1;
        if self.cadence_crossed(seq - 1, seq) {
            self.checkpoint();
        }
    }

    /// Opens a group-commit batch: subsequent events validate and apply to
    /// the live state immediately, but their log appends are deferred until
    /// [`Shard::commit_batch`]. The worker pipeline brackets every drained
    /// ingest batch this way; a decision must not be released to its
    /// gateway until the batch holding its event has committed.
    pub fn begin_batch(&mut self) {
        self.batching = true;
    }

    /// Closes a group-commit batch: one amortized [`EventLog::append_batch`]
    /// for everything the batch applied, and a single snapshot-cadence check
    /// (a snapshot is taken if the batch crossed a cadence boundary, so
    /// cadence cost is paid per batch, not per event).
    pub fn commit_batch(&mut self) {
        self.batching = false;
        // The batch's journal entries become as durable as the log it just
        // joined.
        self.pending_dedup.clear();
        self.pending_session_dedup.clear();
        if self.pending.is_empty() {
            return;
        }
        let before = self.log.next_seq();
        let append = self.metrics.is_some().then(Instant::now);
        let after = self.log.append_batch(self.pending.drain(..));
        if let (Some(metrics), Some(append)) = (&self.metrics, append) {
            metrics
                .append_latency
                .record(saturating_nanos(append.elapsed()));
        }
        if self.cadence_crossed(before, after) {
            self.checkpoint();
        }
    }

    /// Marks a group's session content dirty *before* it grows: the first
    /// touch in a checkpoint window remembers the lane lengths the previous
    /// checkpoint covered, so the next delta ships only what was appended.
    /// A group purged earlier in the window starts over at zero and drops
    /// its tombstone. (Floor events are marked in [`Shard::apply`].)
    fn touch_session(&mut self, group: GlobalGroupId) {
        self.purged_sessions.remove(&group);
        let session = &self.session;
        self.dirty_sessions.entry(group).or_insert_with(|| {
            session
                .get(group)
                .map(GroupSession::lens)
                .unwrap_or_default()
        });
    }

    /// Whether committing the events that moved the log from `before` to
    /// `after` sequences crossed a checkpoint-cadence boundary. Byte-driven
    /// when a byte budget is configured ([`Shard::set_snapshot_policy`]),
    /// otherwise the legacy every-N-events rule.
    fn cadence_crossed(&self, before: u64, after: u64) -> bool {
        if self.snapshot_every_bytes > 0 {
            return self.bytes_since_checkpoint >= self.snapshot_every_bytes;
        }
        self.snapshot_every > 0 && after / self.snapshot_every > before / self.snapshot_every
    }

    /// Takes the next checkpoint the policy calls for: a full snapshot when
    /// there is no base yet (or chaining is off, or the chain is at its
    /// configured cap, or the state was just adopted wholesale), otherwise a
    /// differential checkpoint chained on the current base.
    fn checkpoint(&mut self) {
        let full = self.need_full
            || self.snapshot.is_none()
            || self.snapshot_chain == 0
            || self.deltas.len() as u64 >= self.snapshot_chain;
        if full {
            self.take_snapshot();
        } else {
            self.take_delta();
        }
    }

    /// Applies a floor event through the log: the event is validated against
    /// the live arbiter, appended to the durable log, and a snapshot is
    /// taken on the configured cadence.
    ///
    /// Events that *fail* (unknown ids, policy misuse) are **not** logged —
    /// they did not mutate state, so replaying them is unnecessary; this also
    /// keeps replay infallible.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed, or the
    /// underlying floor error.
    pub fn apply(&mut self, event: ArbiterEvent) -> Result<EventOutcome> {
        if self.state != ShardState::Active {
            return Err(ClusterError::ShardDown(self.id));
        }
        let outcome = self.arbiter.apply(&event)?;
        self.arbiter
            .mark_touched(&event, &outcome, &mut self.dirty_floor);
        self.commit(ShardEvent::Floor(event));
        Ok(outcome)
    }

    /// Applies a session operation through the log: the event is floor-gated
    /// against the live arbiter ([`FloorArbiter::may_deliver`] for content,
    /// membership for media schedules), recorded in the session store,
    /// appended to the durable log, and snapshotted on cadence.
    ///
    /// Rejections do **not** mutate state and are not logged — like failed
    /// floor events, they are safe (and meaningful) to re-run.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed, or
    /// [`ClusterError::Floor`] when the addressed group does not exist on
    /// this shard (stale routing after a migration fails closed).
    pub fn apply_session(&mut self, event: SessionEvent) -> Result<SessionOutcome> {
        if self.state != ShardState::Active {
            return Err(ClusterError::ShardDown(self.id));
        }
        let group = self.arbiter.group(event.local_group)?;
        if !group.contains(event.local_from) {
            return Ok(SessionOutcome::Rejected {
                reason: SessionRejection::NotAMember,
            });
        }
        let members = group.members().count() as u64;
        let listeners = if event.kind.is_content() {
            if !self
                .arbiter
                .may_deliver(event.local_group, event.local_from)
            {
                return Ok(SessionOutcome::Rejected {
                    reason: SessionRejection::FloorDenied,
                });
            }
            members.saturating_sub(1)
        } else {
            members
        };
        self.touch_session(event.group);
        self.session.apply(&event);
        self.commit(ShardEvent::Session(event));
        Ok(SessionOutcome::Delivered { listeners })
    }

    /// Arbitrates a floor request idempotently: `id` is the cluster-unique
    /// request id, and a retry of an id whose decision is still in the dedup
    /// window gets the recorded decision back (second tuple element `true`)
    /// without the event being applied again.
    ///
    /// Only *applied* arbitrations are journaled: a request refused because
    /// the shard is down, or rejected by the arbiter without mutating state,
    /// is safe (and meaningful) to re-run, so retries of those re-arbitrate.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed, or the
    /// underlying floor error.
    pub fn arbitrate_dedup(
        &mut self,
        id: u64,
        group: GlobalGroupId,
        request: FloorRequest,
    ) -> (Result<Arc<ArbitrationOutcome>>, bool) {
        if self.state != ShardState::Active {
            return (Err(ClusterError::ShardDown(self.id)), false);
        }
        if self.frozen.contains(&group) {
            // A handoff is in flight: the exported state must not move. The
            // error is retryable — after commit the directory routes the
            // retry to the new owner, after abort it lands here again.
            return (Err(ClusterError::GroupFrozen(group)), false);
        }
        if let Some(outcome) = self.dedup.get(id) {
            if let Some(metrics) = &self.metrics {
                metrics.dedup_hits.incr();
            }
            // Replay by reference: the journaled outcome is shared, not
            // deep-cloned, into the retry's decision.
            return (Ok(outcome.clone()), true);
        }
        match self.apply(ArbiterEvent::Arbitrate { request }) {
            Ok(EventOutcome::Arbitrated(outcome)) => {
                // One allocation backs both the journal entry and the
                // streamed decision.
                let outcome = Arc::new(outcome);
                self.dedup.record(id, group, outcome.clone());
                if self.batching {
                    self.pending_dedup.push(id);
                }
                (Ok(outcome), false)
            }
            Ok(_) => unreachable!("Arbitrate yields Arbitrated"),
            Err(e) => (Err(e), false),
        }
    }

    /// Applies a session operation idempotently: a retry of an id whose
    /// decision is still in the session dedup window gets the recorded
    /// decision back (second tuple element `true`) without the content being
    /// delivered twice. Only *delivered* operations are journaled;
    /// rejections re-arbitrate on retry.
    ///
    /// # Errors
    ///
    /// See [`Shard::apply_session`].
    pub fn arbitrate_session_dedup(
        &mut self,
        id: u64,
        event: SessionEvent,
    ) -> (Result<Arc<SessionOutcome>>, bool) {
        if self.state != ShardState::Active {
            return (Err(ClusterError::ShardDown(self.id)), false);
        }
        if self.frozen.contains(&event.group) {
            return (Err(ClusterError::GroupFrozen(event.group)), false);
        }
        if let Some(outcome) = self.session_dedup.get(id) {
            if let Some(metrics) = &self.metrics {
                metrics.session_dedup_hits.incr();
            }
            return (Ok(outcome.clone()), true);
        }
        let group = event.group;
        match self.apply_session(event) {
            Ok(outcome) => {
                let outcome = Arc::new(outcome);
                if outcome.is_delivered() {
                    self.session_dedup.record(id, group, outcome.clone());
                    if self.batching {
                        self.pending_session_dedup.push(id);
                    }
                }
                (Ok(outcome), false)
            }
            Err(e) => (Err(e), false),
        }
    }

    /// Removes and returns a group's session content because the group is
    /// migrating away. The removal is logged ([`ShardEvent::SessionPurge`]),
    /// so a crash-and-replay on this shard does not resurrect content that
    /// now lives elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed.
    pub fn extract_session(&mut self, group: GlobalGroupId) -> Result<Option<GroupSession>> {
        if self.state != ShardState::Active {
            return Err(ClusterError::ShardDown(self.id));
        }
        let content = self.session.remove(group);
        if content.is_some() {
            // Whatever re-installs the group inside this window starts its
            // lanes over: the dirty entry goes, so the next touch says 0.
            self.dirty_sessions.remove(&group);
            self.purged_sessions.insert(group);
            self.commit(ShardEvent::SessionPurge(group));
        }
        Ok(content)
    }

    /// Installs session content for a group this shard is taking over. The
    /// installation is logged ([`ShardEvent::SessionInstall`]) so replay
    /// reconstructs migrated-in content too.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed.
    pub fn install_session(&mut self, group: GlobalGroupId, content: GroupSession) -> Result<()> {
        if self.state != ShardState::Active {
            return Err(ClusterError::ShardDown(self.id));
        }
        self.touch_session(group);
        self.session.install(group, content.clone());
        self.commit(ShardEvent::SessionInstall { group, content });
        Ok(())
    }

    // ----- live handoff (two-phase group migration) -------------------------

    /// Phase 1 of a live handoff: freezes `group` on this shard and exports
    /// its complete state at the current (pinned) log position — live floor
    /// state including the token's holder and queue, session content, and
    /// the group's slices of both decision journals.
    ///
    /// The freeze is durably logged ([`ShardEvent::HandoffPrepare`]), so a
    /// crash-and-recover of this shard mid-handoff reconstructs the frozen
    /// marker and the group still cannot serve here: at most one side of the
    /// handoff is ever live. The export copies state rather than removing it
    /// — an abort is therefore just an unfreeze, and the source purge is
    /// deferred to the commit point.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed,
    /// [`ClusterError::GroupFrozen`] when a handoff is already in flight for
    /// the group, or the floor error for an unknown local group.
    pub fn handoff_prepare(
        &mut self,
        group: GlobalGroupId,
        local: GroupId,
    ) -> Result<HandoffExport> {
        if self.state != ShardState::Active {
            return Err(ClusterError::ShardDown(self.id));
        }
        if self.frozen.contains(&group) {
            return Err(ClusterError::GroupFrozen(group));
        }
        let floor = self.arbiter.export_group_floor(local)?;
        let export = HandoffExport {
            floor,
            content: self.session.view(group),
            floor_journal: self.dedup.peek_group(group),
            session_journal: self.session_dedup.peek_group(group),
            pinned_seq: self.log.next_seq(),
        };
        self.frozen.insert(group);
        self.commit(ShardEvent::HandoffPrepare(group));
        Ok(export)
    }

    /// Phase 2 of a live handoff, destination side: the group and its roster
    /// already exist here as `local` (created through ordinary floor
    /// events), and `export` is the source's export re-keyed to this shard's
    /// ids. One step restores the token and the chair (logged
    /// [`ArbiterEvent::RestoreToken`] / [`ArbiterEvent::RestoreChair`] — the
    /// add/join path elects chairs only by role, and nobody when a member
    /// was already instantiated here), installs the session content (logged)
    /// and takes over both journal slices.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed, or the
    /// floor error of a token or chair the roster cannot hold.
    pub fn handoff_install(
        &mut self,
        group: GlobalGroupId,
        local: GroupId,
        export: HandoffExport,
    ) -> Result<()> {
        let HandoffExport {
            floor,
            content,
            floor_journal,
            session_journal,
            ..
        } = export;
        self.apply(ArbiterEvent::RestoreToken {
            group: local,
            token: floor.token,
        })?;
        self.apply(ArbiterEvent::RestoreChair {
            group: local,
            chair: floor.chair,
        })?;
        if !content.is_empty() {
            self.install_session(group, content)?;
        }
        self.dedup.install(group, floor_journal);
        self.session_dedup.install(group, session_journal);
        Ok(())
    }

    /// Phase 2 of a live handoff, source side: the destination has installed
    /// the group, so this shard retires its copy in one step — each of
    /// `members` (the roster, in this shard's ids) leaves `local` (logged;
    /// the husk's token drains with the roster, the live token moved as a
    /// copy), the session content is purged (logged), both journal slices
    /// are dropped, and a logged [`ShardEvent::HandoffCommit`] lifts the
    /// freeze so replay knows the group left for good.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed (the
    /// husk then stays frozen — it fails closed until recovery replays the
    /// prepare without a commit, and the coordinator's directory flip keeps
    /// routing traffic to the new owner anyway).
    pub fn handoff_commit_source(
        &mut self,
        group: GlobalGroupId,
        local: GroupId,
        members: &[MemberId],
    ) -> Result<()> {
        for &member in members {
            self.apply(ArbiterEvent::LeaveGroup {
                group: local,
                member,
            })?;
        }
        self.extract_session(group)?;
        self.dedup.extract_group(group);
        self.session_dedup.extract_group(group);
        if self.frozen.remove(&group) {
            self.commit(ShardEvent::HandoffCommit(group));
        }
        Ok(())
    }

    /// Abandons a live handoff: lifts the freeze so the group resumes
    /// serving on this shard, durably logged ([`ShardEvent::HandoffAbort`]).
    /// Nothing else needs undoing — phase 1 copied state instead of
    /// removing it.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ShardDown`] when the shard is failed; retry
    /// after recovery to lift the replayed freeze.
    pub fn handoff_abort(&mut self, group: GlobalGroupId) -> Result<()> {
        if self.state != ShardState::Active {
            return Err(ClusterError::ShardDown(self.id));
        }
        if self.frozen.remove(&group) {
            self.commit(ShardEvent::HandoffAbort(group));
        }
        Ok(())
    }

    /// Opens a checkpoint: starts the pause clock (the capture runs with the
    /// worker thread stalled, so its duration is the pause ingest observes)
    /// and flushes any open group-commit batch — a checkpoint must cover
    /// every event already applied to the live state, or `applied_seq` would
    /// claim less history than the arbiter actually holds.
    fn begin_checkpoint(&mut self) -> Option<Instant> {
        let pause = self.metrics.is_some().then(Instant::now);
        if !self.pending.is_empty() {
            self.log.append_batch(self.pending.drain(..));
            self.pending_dedup.clear();
            self.pending_session_dedup.clear();
        }
        pause
    }

    /// Closes a checkpoint: the log compacts up to it (or up to the slowest
    /// live follower's ack, if that is behind), everything dirty is inside
    /// it now, and the pause is recorded.
    fn end_checkpoint(&mut self, pause: Option<Instant>) {
        self.compact_log();
        self.dirty_floor.clear();
        self.dirty_sessions.clear();
        self.purged_sessions.clear();
        self.bytes_since_checkpoint = 0;
        if let (Some(metrics), Some(pause)) = (&self.metrics, pause) {
            let nanos = saturating_nanos(pause.elapsed());
            metrics.snapshot_pause.record(nanos);
            metrics.snapshot_pause_us.record(nanos / 1_000);
            metrics.chain_len.record(self.deltas.len() as u64);
        }
    }

    /// Takes a full snapshot of the current state now; a fresh base
    /// obsoletes the delta chain.
    pub fn take_snapshot(&mut self) -> &ShardSnapshot {
        let pause = self.begin_checkpoint();
        let snap = ShardSnapshot {
            arbiter: self.arbiter.snapshot(self.log.next_seq()),
            session: dmps_wire::to_string(&self.session),
            frozen: self.frozen.iter().copied().collect(),
        };
        self.prev_checkpoint_tip = self.checkpoint_tip();
        self.snapshot_crc = Some(dmps_wire::crc32_of(&snap));
        self.snapshot = Some(snap);
        self.deltas.clear();
        self.delta_crcs.clear();
        self.need_full = false;
        self.end_checkpoint(pause);
        self.snapshot.as_ref().expect("just stored")
    }

    /// Takes a differential checkpoint: only the arbiter groups touched and
    /// the session entries appended since the last checkpoint (plus purge
    /// tombstones and the frozen set, which ships wholesale — it is tiny),
    /// chained on the current full base. The log compacts exactly as it does
    /// for a full snapshot, so durability cost stays O(dirty + appended),
    /// not O(shard).
    pub fn take_delta(&mut self) -> &SnapshotDelta {
        let pause = self.begin_checkpoint();
        let base_seq = self.checkpoint_tip();
        let sessions = self.dirty_sessions.iter().filter_map(|(group, from)| {
            Some((*group, *from, self.session.get(*group)?.suffix(*from)))
        });
        let delta = SnapshotDelta {
            arbiter: self
                .arbiter
                .export_delta(self.log.next_seq(), &self.dirty_floor),
            sessions: sessions.collect(),
            purged: self.purged_sessions.iter().copied().collect(),
            frozen: self.frozen.iter().copied().collect(),
            base_seq,
        };
        self.prev_checkpoint_tip = base_seq;
        self.deltas.push(delta);
        self.end_checkpoint(pause);
        let delta = self.deltas.last().expect("just stored");
        if let Some(metrics) = &self.metrics {
            metrics.delta_bytes.add(delta.size_bytes() as u64);
        }
        self.delta_crcs.push(dmps_wire::crc32_of(delta));
        delta
    }

    /// Crashes the primary: volatile arbiter and session state is lost; log,
    /// snapshot and dedup windows (durable, replicated — the windows are the
    /// tail of the decision journal) survive.
    pub fn crash(&mut self) {
        self.state = ShardState::Failed;
        self.arbiter = FloorArbiter::with_defaults();
        self.session = SessionStore::new();
        // Frozen markers are volatile too; recovery rebuilds them from the
        // snapshot's frozen list plus the logged handoff events.
        self.frozen.clear();
        // Events of an open group-commit batch die with the primary: their
        // decisions were never released (replies flush only after the batch
        // commits), so discarding them is the crash losing unacknowledged
        // work — exactly the semantics the dedup retry path heals. The
        // batch's journal entries roll back with it: the windows are durable
        // only as the tail of the log, and the log never saw these events.
        self.batching = false;
        self.pending.clear();
        for id in self.pending_dedup.drain(..) {
            self.dedup.forget(id);
        }
        for id in self.pending_session_dedup.drain(..) {
            self.session_dedup.forget(id);
        }
    }

    /// Builds a [`ClusterError::Corrupt`] naming this shard, counting the
    /// detection under `cluster.shard.N.fault.checksum_failures`.
    fn corrupt(&self, what: String) -> ClusterError {
        if let Some(metrics) = &self.metrics {
            metrics.checksum_failures.incr();
        }
        ClusterError::Corrupt {
            shard: self.id,
            what,
        }
    }

    /// Verifies the checksum of every durable artifact — snapshot base,
    /// chained deltas, sealed log segments — without touching the live
    /// state. Artifacts written before checksumming existed (no recorded
    /// CRC) are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Corrupt`] naming the first failing artifact.
    pub fn verify_durable(&self) -> Result<()> {
        if let (Some(snap), Some(expected)) = (&self.snapshot, self.snapshot_crc) {
            let actual = dmps_wire::crc32_of(snap);
            if actual != expected {
                return Err(self.corrupt(format!(
                    "snapshot base checksum mismatch ({actual:08x} != {expected:08x})"
                )));
            }
        }
        for (i, delta) in self.deltas.iter().enumerate() {
            if let Some(&expected) = self.delta_crcs.get(i) {
                let actual = dmps_wire::crc32_of(delta);
                if actual != expected {
                    return Err(self.corrupt(format!(
                        "snapshot delta {i} checksum mismatch ({actual:08x} != {expected:08x})"
                    )));
                }
            }
        }
        let (segments, _) = self.log.segments_from(self.log.base());
        for (start, segment) in &segments {
            if let Some(expected) = self.segment_crc_at(*start) {
                let actual = segment_crc(segment);
                if actual != expected {
                    return Err(self.corrupt(format!(
                        "log segment at seq {start} checksum mismatch \
                         ({actual:08x} != {expected:08x})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Simulates durable-media corruption for fault injection. Bit-rot
    /// targets flip the *stored checksum* of the artifact — equivalent to
    /// one copy's bytes rotting, without mutating event slices whose `Arc`s
    /// replicas share. The torn-write target truncates the snapshot's
    /// encoded session payload and re-stamps its checksum, so detection
    /// falls to the parser instead of the CRC. Returns `false` when the
    /// targeted artifact does not exist (nothing was corrupted).
    pub fn inject_corruption(&mut self, target: CorruptionTarget) -> bool {
        match target {
            CorruptionTarget::SnapshotBase => match self.snapshot_crc.as_mut() {
                Some(crc) => {
                    *crc ^= 1;
                    true
                }
                None => false,
            },
            CorruptionTarget::SnapshotDelta => match self.delta_crcs.last_mut() {
                Some(crc) => {
                    *crc ^= 1;
                    true
                }
                None => false,
            },
            CorruptionTarget::SealedSegment => match self.segment_crcs.back_mut() {
                Some((_, _, crc)) => {
                    *crc ^= 1;
                    true
                }
                None => false,
            },
            CorruptionTarget::TornSnapshot => match self.snapshot.as_mut() {
                Some(snap) => {
                    let mut cut = snap.session.len() / 2;
                    while !snap.session.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    snap.session.truncate(cut);
                    self.snapshot_crc = Some(dmps_wire::crc32_of(snap));
                    true
                }
                None => false,
            },
        }
    }

    /// A standby takes over: verify the durable artifacts' checksums,
    /// restore the latest snapshot, replay the log suffix, resume serving.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::Corrupt`] when a checksum fails, a snapshot
    /// artifact does not parse, or a logged event fails to re-apply. The
    /// shard stays failed (quarantined) — with replicas the cluster repairs
    /// it from the quorum instead ([`crate::Cluster::recover_shard`]).
    pub fn recover(&mut self) -> Result<()> {
        self.verify_durable()?;
        let (mut arbiter, mut session, mut frozen, mut from_seq) = match &self.snapshot {
            Some(snap) => (
                FloorArbiter::restore(&snap.arbiter)
                    .map_err(|e| self.corrupt(format!("snapshot base does not restore: {e}")))?,
                dmps_wire::from_str::<SessionStore>(&snap.session).map_err(|e| {
                    self.corrupt(format!("snapshot base session store does not parse: {e}"))
                })?,
                snap.frozen.iter().copied().collect::<BTreeSet<_>>(),
                snap.applied_seq(),
            ),
            None => (
                FloorArbiter::with_defaults(),
                SessionStore::new(),
                BTreeSet::new(),
                0,
            ),
        };
        // Fold the differential chain onto the base, oldest first: each delta
        // replaces the arbiter entries it shipped, extends the session lanes
        // it saw grow, removes its tombstones, and carries the full frozen
        // set as of its cut.
        for (i, delta) in self.deltas.iter().enumerate() {
            delta
                .fold(&mut arbiter, &mut session, &mut frozen)
                .map_err(|e| self.corrupt(format!("snapshot delta {i} does not fold: {e}")))?;
            from_seq = delta.applied_seq();
        }
        for event in self.log.events_from(from_seq) {
            replay_event(&mut arbiter, &mut session, &mut frozen, event)
                .map_err(|e| self.corrupt(format!("logged event does not replay: {e}")))?;
        }
        self.adopt(arbiter, session, frozen);
        self.reconcile_orphans(self.log.next_seq());
        Ok(())
    }

    /// Records a decision the worker answered `ShardDown` while its batch
    /// was still awaiting quorum — see the `orphans` field for why failover
    /// must reconcile these against the state it adopts.
    pub(crate) fn note_orphan(&mut self, id: u64, end_seq: u64, session: bool) {
        self.orphans.push((id, end_seq, session));
    }

    /// Reconciles orphaned decisions against the state failover adopted,
    /// which covers events up to `applied`: orphans whose batch survived
    /// into the adopted state keep their journal entries (retries replay),
    /// orphans whose batch was discarded are forgotten (retries
    /// re-arbitrate). Called once per recovery/promotion.
    pub(crate) fn reconcile_orphans(&mut self, applied: u64) {
        for (id, end_seq, session) in self.orphans.drain(..) {
            if end_seq > applied {
                if session {
                    self.session_dedup.forget(id);
                } else {
                    self.dedup.forget(id);
                }
            }
        }
    }

    /// Rebuilds this shard from quorum-held state — after its own durable
    /// artifacts failed verification, or after it demoted itself with a
    /// log tail (and perhaps checkpoints) the fleet never saw: adopts the
    /// state of the most caught-up replica (events up to `applied`),
    /// discards the snapshot chain, checksums and log wholesale, and cuts a
    /// fresh checksummed base so the next recovery verifies again.
    ///
    /// The discarded log tail past `applied` was never quorum-committed
    /// (promotion picks a replica at least as durable as the quorum
    /// position), so no released decision loses its events; the decision
    /// journals are not part of the checksummed artifact set and survive,
    /// reconciled against `applied` like any promotion.
    pub(crate) fn repair_from(
        &mut self,
        arbiter: FloorArbiter,
        session: SessionStore,
        frozen: BTreeSet<GlobalGroupId>,
        applied: u64,
    ) {
        self.log.compact_to(applied);
        self.log.truncate_from(applied);
        self.snapshot = None;
        self.snapshot_crc = None;
        self.deltas.clear();
        self.delta_crcs.clear();
        self.segment_crcs.clear();
        self.adopt(arbiter, session, frozen);
        self.reconcile_orphans(applied);
        self.take_snapshot();
    }

    /// Installs an already-reconstructed live state (a promoted follower's
    /// arbiter/session/frozen set, or the tail-replayed result of
    /// [`Shard::recover`]) and resumes serving. The log, snapshot and dedup
    /// windows are durable and stay as they are.
    pub(crate) fn adopt(
        &mut self,
        arbiter: FloorArbiter,
        session: SessionStore,
        frozen: BTreeSet<GlobalGroupId>,
    ) {
        self.arbiter = arbiter;
        self.session = session;
        self.frozen = frozen;
        // The dirty sets tracked what the *previous* incarnation touched; an
        // adopted state invalidates them, so the next checkpoint must be a
        // full base before differential chaining can resume.
        self.dirty_floor.clear();
        self.dirty_sessions.clear();
        self.purged_sessions.clear();
        self.need_full = true;
        self.state = ShardState::Active;
        self.recoveries += 1;
    }
}

/// Replays one logged event into a reconstructed live state. Shared by
/// [`Shard::recover`] (standby replay) and the replication module (follower
/// apply and promotion tail-catch-up), so all three paths have identical
/// semantics by construction.
///
/// # Errors
///
/// Returns [`ClusterError::Floor`] when a logged floor event fails to
/// re-apply (durable-state corruption, not a recoverable condition).
pub(crate) fn replay_event(
    arbiter: &mut FloorArbiter,
    session: &mut SessionStore,
    frozen: &mut BTreeSet<GlobalGroupId>,
    event: &ShardEvent,
) -> Result<()> {
    match event {
        ShardEvent::Floor(e) => {
            arbiter.apply(e)?;
        }
        ShardEvent::Session(e) => session.apply(e),
        ShardEvent::SessionPurge(g) => {
            session.remove(*g);
        }
        ShardEvent::SessionInstall { group, content } => {
            session.install(*group, content.clone());
        }
        ShardEvent::HandoffPrepare(g) => {
            frozen.insert(*g);
        }
        ShardEvent::HandoffCommit(g) | ShardEvent::HandoffAbort(g) => {
            frozen.remove(g);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionOpKind;
    use dmps_floor::{FcmMode, FloorRequest, GroupId, Member, MemberId, Role};
    use dmps_simnet::SimTime;

    fn scripted(shard: &mut Shard, requests: usize) {
        shard
            .apply(ArbiterEvent::CreateGroup {
                name: "g".into(),
                mode: FcmMode::EqualControl,
            })
            .unwrap();
        for i in 0..4 {
            shard
                .apply(ArbiterEvent::AddMember {
                    group: GroupId(0),
                    member: Member::new(format!("m{i}"), Role::Participant),
                })
                .unwrap();
        }
        for i in 0..requests {
            shard
                .apply(ArbiterEvent::Arbitrate {
                    request: FloorRequest::speak(GroupId(0), MemberId(i % 4)),
                })
                .unwrap();
        }
    }

    fn session_event(member: usize, kind: SessionOpKind) -> SessionEvent {
        SessionEvent {
            group: GlobalGroupId(0),
            local_group: GroupId(0),
            from: GlobalMemberId(member as u64),
            local_from: MemberId(member),
            kind,
        }
    }

    #[test]
    fn crash_and_recover_reconstructs_state_exactly() {
        let mut shard = Shard::new(ShardId(0), 8, 64);
        scripted(&mut shard, 20);
        let reference = shard.arbiter().clone();
        assert!(shard.latest_snapshot().is_some(), "cadence snapshots taken");
        shard.crash();
        assert!(!shard.is_active());
        assert!(matches!(
            shard.apply(ArbiterEvent::CreateGroup {
                name: "x".into(),
                mode: FcmMode::FreeAccess
            }),
            Err(ClusterError::ShardDown(_))
        ));
        shard.recover().unwrap();
        assert!(shard.is_active());
        assert_eq!(shard.arbiter(), &reference);
        assert_eq!(shard.recoveries(), 1);
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn recovery_works_without_any_snapshot() {
        let mut shard = Shard::new(ShardId(1), 0, 64);
        scripted(&mut shard, 5);
        let reference = shard.arbiter().clone();
        assert!(shard.latest_snapshot().is_none());
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &reference);
    }

    #[test]
    fn failed_events_are_not_logged() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 1);
        let retained = shard.log().retained();
        // Unknown group: the arbiter rejects it, so the log must not grow —
        // replay would otherwise fail.
        let err = shard
            .apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(99), MemberId(0)),
            })
            .unwrap_err();
        assert!(matches!(err, ClusterError::Floor(_)));
        assert_eq!(shard.log().retained(), retained);
        let reference = shard.arbiter().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &reference);
    }

    #[test]
    fn log_compaction_keeps_recovery_correct() {
        let mut shard = Shard::new(ShardId(2), 4, 64);
        scripted(&mut shard, 30);
        // Compaction happened: the log no longer starts at zero.
        assert!(shard.log().base() > 0);
        assert!(shard.log().retained() < 35);
        let reference = shard.arbiter().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &reference);
    }

    #[test]
    fn event_log_suffix_and_compaction_bounds() {
        let mut log: EventLog<ShardEvent> = EventLog::new();
        for i in 0..6 {
            log.append(ShardEvent::Floor(ArbiterEvent::CreateGroup {
                name: format!("g{i}"),
                mode: FcmMode::FreeAccess,
            }));
        }
        assert_eq!(log.next_seq(), 6);
        assert_eq!(log.events_from(4).count(), 2);
        // Seal mid-stream: a straddling segment must still honor the
        // compaction base via per-segment skip arithmetic.
        log.seal();
        log.compact_to(4);
        assert_eq!(log.base(), 4);
        assert_eq!(log.retained(), 2);
        assert_eq!(log.events_from(4).count(), 2);
        assert_eq!(log.events_from(6).count(), 0);
        // Compacting backwards is a no-op.
        log.compact_to(2);
        assert_eq!(log.base(), 4);
        // Sealed coverage ends where the open tail begins.
        let (segments, sealed_end) = log.segments_from(4);
        assert_eq!(segments.len(), 1);
        assert_eq!(sealed_end, 6);
        log.append(ShardEvent::Floor(ArbiterEvent::CreateGroup {
            name: "tail".into(),
            mode: FcmMode::FreeAccess,
        }));
        assert_eq!(log.segments_from(4).1, 6);
        assert_eq!(log.events_from(4).count(), 3);
    }

    #[test]
    fn duplicate_request_ids_replay_without_reapplying() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        let speak = FloorRequest::speak(GroupId(0), MemberId(0));
        let (first, replayed) = shard.arbitrate_dedup(7, GlobalGroupId(0), speak.clone());
        assert!(!replayed);
        let first = first.unwrap();
        assert!(first.is_granted());
        let logged = shard.log().retained();
        let stats = shard.arbiter().stats();
        // The retry answers from the journal: same outcome, no new log event,
        // no stats movement.
        let (second, replayed) = shard.arbitrate_dedup(7, GlobalGroupId(0), speak.clone());
        assert!(replayed);
        assert_eq!(second.unwrap(), first);
        assert_eq!(shard.log().retained(), logged);
        assert_eq!(shard.arbiter().stats(), stats);
        // A fresh id applies normally (queued behind the holder).
        let (third, replayed) = shard.arbitrate_dedup(
            8,
            GlobalGroupId(0),
            FloorRequest::speak(GroupId(0), MemberId(1)),
        );
        assert!(!replayed);
        assert!(matches!(
            &*third.unwrap(),
            ArbitrationOutcome::Queued { .. }
        ));
    }

    #[test]
    fn dedup_window_survives_crash_and_recovery() {
        let mut shard = Shard::new(ShardId(0), 4, 64);
        scripted(&mut shard, 0);
        let speak = FloorRequest::speak(GroupId(0), MemberId(0));
        let (first, _) = shard.arbitrate_dedup(42, GlobalGroupId(0), speak.clone());
        let first = first.unwrap();
        shard.crash();
        // While down, even a duplicate is refused — nothing serves.
        let (down, replayed) = shard.arbitrate_dedup(42, GlobalGroupId(0), speak.clone());
        assert!(matches!(down, Err(ClusterError::ShardDown(_))));
        assert!(!replayed);
        shard.recover().unwrap();
        // After recovery the journaled decision still answers the retry, so
        // the event cannot double-apply.
        let granted_before = shard.arbiter().stats().granted;
        let (after, replayed) = shard.arbitrate_dedup(42, GlobalGroupId(0), speak);
        assert!(replayed);
        assert_eq!(after.unwrap(), first);
        assert_eq!(shard.arbiter().stats().granted, granted_before);
    }

    #[test]
    fn shard_events_roundtrip_on_the_wire_and_crc_is_content_sensitive() {
        let events = vec![
            ShardEvent::Floor(ArbiterEvent::CreateGroup {
                name: "g".into(),
                mode: FcmMode::EqualControl,
            }),
            ShardEvent::Session(session_event(
                1,
                SessionOpKind::ScheduleMedia {
                    media: "intro".into(),
                    start: SimTime::from_secs(5),
                },
            )),
            ShardEvent::SessionPurge(GlobalGroupId(7)),
            ShardEvent::SessionInstall {
                group: GlobalGroupId(3),
                content: GroupSession::default(),
            },
            ShardEvent::HandoffPrepare(GlobalGroupId(1)),
            ShardEvent::HandoffCommit(GlobalGroupId(1)),
            ShardEvent::HandoffAbort(GlobalGroupId(2)),
        ];
        for event in &events {
            let encoded = dmps_wire::to_string(event);
            assert_eq!(&dmps_wire::from_str::<ShardEvent>(&encoded).unwrap(), event);
        }
        let crc = segment_crc(&events);
        assert_eq!(crc, segment_crc(&events), "deterministic");
        assert_ne!(crc, segment_crc(&events[1..]), "content-sensitive");
    }

    #[test]
    fn corrupt_snapshot_base_quarantines_instead_of_panicking() {
        let mut shard = Shard::new(ShardId(0), 8, 64);
        scripted(&mut shard, 20);
        assert!(shard.latest_snapshot().is_some());
        shard.verify_durable().unwrap();
        assert!(shard.inject_corruption(CorruptionTarget::SnapshotBase));
        shard.crash();
        let err = shard.recover().unwrap_err();
        assert!(
            matches!(&err, ClusterError::Corrupt { what, .. } if what.contains("snapshot base")),
            "got {err:?}"
        );
        assert!(!shard.is_active(), "quarantined, not serving");
        // The failure is stable: retrying recovery cannot resurrect a shard
        // whose only durable copy is bad.
        assert!(shard.recover().is_err());
    }

    #[test]
    fn corrupt_delta_and_sealed_segment_are_each_detected() {
        let mut shard = Shard::new(ShardId(1), 0, 64);
        scripted(&mut shard, 4);
        shard.take_snapshot();
        scripted_more(&mut shard, 4);
        shard.take_delta();
        assert!(shard.inject_corruption(CorruptionTarget::SnapshotDelta));
        shard.crash();
        let err = shard.recover().unwrap_err();
        assert!(
            matches!(&err, ClusterError::Corrupt { what, .. } if what.contains("delta")),
            "got {err:?}"
        );

        let mut shard = Shard::new(ShardId(2), 0, 64);
        scripted(&mut shard, 4);
        shard.seal_log();
        shard.verify_durable().unwrap();
        assert!(shard.inject_corruption(CorruptionTarget::SealedSegment));
        shard.crash();
        let err = shard.recover().unwrap_err();
        assert!(
            matches!(&err, ClusterError::Corrupt { what, .. } if what.contains("log segment")),
            "got {err:?}"
        );
    }

    #[test]
    fn delta_suffix_past_the_restorer_keeps_recovery_quarantined() {
        let telemetry = crate::instrument::ClusterTelemetry::new(0);
        let failures = telemetry.shard(1).checksum_failures;
        for from in [2, u64::MAX] {
            let mut shard = Shard::new(ShardId(1), 0, 64);
            shard.set_metrics(telemetry.shard(1));
            scripted(&mut shard, 4);
            scripted_more(&mut shard, 1);
            shard.take_snapshot();
            scripted_more(&mut shard, 1);
            shard.take_delta();
            // The delta claims chat history the base never held, under a
            // re-stamped checksum: only the fold can notice.
            assert_eq!(shard.deltas[0].sessions[0].1, (1, 0, 0, 0));
            shard.deltas[0].sessions[0].1 .0 = from;
            shard.delta_crcs[0] = dmps_wire::crc32_of(&shard.deltas[0]);
            shard.crash();
            let before = failures.get();
            let err = shard.recover().unwrap_err();
            assert!(
                matches!(&err, ClusterError::Corrupt { what, .. } if what.contains("does not fold")),
                "got {err:?}"
            );
            assert!(!shard.is_active(), "no silent gap: the shard stays failed");
            // Every refused recovery is one detected corruption on the
            // shard's telemetry, a retry included.
            assert_eq!(failures.get(), before + 1);
            assert!(shard.recover().is_err());
            assert_eq!(failures.get(), before + 2);
        }
    }

    #[test]
    fn torn_snapshot_write_is_caught_by_the_parser() {
        let mut shard = Shard::new(ShardId(3), 0, 64);
        scripted(&mut shard, 2);
        shard
            .apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(0), MemberId(0)),
            })
            .unwrap();
        shard
            .apply_session(session_event(0, SessionOpKind::Chat { text: "hi".into() }))
            .unwrap();
        shard.take_snapshot();
        assert!(shard.inject_corruption(CorruptionTarget::TornSnapshot));
        // The torn write re-stamped the checksum, so verification alone
        // passes — the parser is the detection layer here.
        shard.verify_durable().unwrap();
        shard.crash();
        let err = shard.recover().unwrap_err();
        assert!(
            matches!(&err, ClusterError::Corrupt { what, .. } if what.contains("parse")),
            "got {err:?}"
        );
    }

    #[test]
    fn corruption_injection_reports_missing_artifacts() {
        let mut shard = Shard::new(ShardId(4), 0, 64);
        assert!(!shard.inject_corruption(CorruptionTarget::SnapshotBase));
        assert!(!shard.inject_corruption(CorruptionTarget::SnapshotDelta));
        assert!(!shard.inject_corruption(CorruptionTarget::SealedSegment));
        assert!(!shard.inject_corruption(CorruptionTarget::TornSnapshot));
        scripted(&mut shard, 2);
        shard.crash();
        shard.recover().unwrap();
    }

    #[test]
    fn segment_checksums_prune_with_compaction() {
        let mut shard = Shard::new(ShardId(5), 0, 64);
        scripted(&mut shard, 4);
        shard.seal_log();
        scripted_more(&mut shard, 4);
        shard.seal_log();
        assert_eq!(shard.segment_crcs.len(), 2);
        shard.take_snapshot();
        assert!(
            shard.segment_crcs.is_empty(),
            "records of compacted segments dropped"
        );
        shard.crash();
        shard.recover().unwrap();
    }

    #[test]
    fn dedup_window_is_bounded_and_evicts_oldest() {
        let mut window = DedupWindow::new(2);
        let outcome = Arc::new(ArbitrationOutcome::Granted {
            speakers: vec![MemberId(0)],
            suspensions: vec![],
        });
        window.record(1, GlobalGroupId(0), outcome.clone());
        window.record(2, GlobalGroupId(0), outcome.clone());
        window.record(3, GlobalGroupId(1), outcome.clone());
        assert_eq!(window.len(), 2);
        assert!(window.get(1).is_none(), "oldest entry evicted");
        assert!(window.get(2).is_some() && window.get(3).is_some());
        // Re-recording an existing id neither grows nor reorders the window.
        window.record(2, GlobalGroupId(0), outcome.clone());
        assert_eq!(window.len(), 2);
        // Capacity zero disables recording entirely.
        let mut off = DedupWindow::new(0);
        off.record(1, GlobalGroupId(0), outcome);
        assert!(off.is_empty());
    }

    #[test]
    fn session_events_are_floor_gated_and_logged() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        // Nobody holds the floor in this Equal Control group: content is
        // rejected and nothing is logged.
        let logged = shard.log().retained();
        let rejected = shard
            .apply_session(session_event(1, SessionOpKind::Chat { text: "hi".into() }))
            .unwrap();
        assert_eq!(
            rejected,
            SessionOutcome::Rejected {
                reason: SessionRejection::FloorDenied
            }
        );
        assert_eq!(shard.log().retained(), logged);
        // The holder delivers; the other three members listen.
        shard
            .apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(0), MemberId(1)),
            })
            .unwrap();
        let delivered = shard
            .apply_session(session_event(1, SessionOpKind::Chat { text: "hi".into() }))
            .unwrap();
        assert_eq!(delivered, SessionOutcome::Delivered { listeners: 3 });
        assert_eq!(shard.session().view(GlobalGroupId(0)).chat.len(), 1);
        // Media schedules are membership-gated, not floor-gated.
        let media = shard
            .apply_session(session_event(
                2,
                SessionOpKind::ScheduleMedia {
                    media: "intro".into(),
                    start: SimTime::from_secs(5),
                },
            ))
            .unwrap();
        assert_eq!(media, SessionOutcome::Delivered { listeners: 4 });
        // A non-member is rejected without touching state.
        let stranger = shard
            .apply_session(session_event(9, SessionOpKind::Chat { text: "x".into() }))
            .unwrap();
        assert_eq!(
            stranger,
            SessionOutcome::Rejected {
                reason: SessionRejection::NotAMember
            }
        );
        // An unknown group fails closed as an error.
        let mut bad = session_event(1, SessionOpKind::Chat { text: "x".into() });
        bad.local_group = GroupId(99);
        assert!(matches!(
            shard.apply_session(bad),
            Err(ClusterError::Floor(_))
        ));
    }

    #[test]
    fn session_state_survives_crash_via_snapshot_and_replay() {
        let mut shard = Shard::new(ShardId(0), 4, 64);
        scripted(&mut shard, 0);
        shard
            .apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(0), MemberId(0)),
            })
            .unwrap();
        for i in 0..10 {
            shard
                .apply_session(session_event(
                    0,
                    SessionOpKind::Chat {
                        text: format!("line {i}").into(),
                    },
                ))
                .unwrap();
        }
        shard
            .apply_session(session_event(
                0,
                SessionOpKind::ScheduleMedia {
                    media: "intro".into(),
                    start: SimTime::from_secs(9),
                },
            ))
            .unwrap();
        let reference_arbiter = shard.arbiter().clone();
        let reference_session = shard.session().clone();
        assert!(
            shard.latest_snapshot().is_some(),
            "cadence snapshot covers session events too"
        );
        shard.crash();
        assert!(shard.session().view(GlobalGroupId(0)).is_empty());
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &reference_arbiter);
        assert_eq!(shard.session(), &reference_session);
        assert_eq!(shard.session().view(GlobalGroupId(0)).chat.len(), 10);
        assert_eq!(shard.session().view(GlobalGroupId(0)).media.len(), 1);
    }

    #[test]
    fn session_dedup_replays_delivered_ops_only() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        // Rejected op: not journaled, a retry re-arbitrates.
        let (first, replayed) = shard.arbitrate_session_dedup(
            5,
            session_event(1, SessionOpKind::Chat { text: "x".into() }),
        );
        assert!(!replayed);
        assert!(!first.unwrap().is_delivered());
        shard
            .apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(0), MemberId(1)),
            })
            .unwrap();
        // The same id retried after the floor was granted now delivers.
        let (second, replayed) = shard.arbitrate_session_dedup(
            5,
            session_event(1, SessionOpKind::Chat { text: "x".into() }),
        );
        assert!(!replayed);
        assert!(second.unwrap().is_delivered());
        // A retry of the delivered id replays from the journal: no duplicate
        // chat line.
        let (third, replayed) = shard.arbitrate_session_dedup(
            5,
            session_event(1, SessionOpKind::Chat { text: "x".into() }),
        );
        assert!(replayed);
        assert!(third.unwrap().is_delivered());
        assert_eq!(shard.session().view(GlobalGroupId(0)).chat.len(), 1);
    }

    #[test]
    fn session_purge_and_install_replay_deterministically() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        shard
            .apply(ArbiterEvent::Arbitrate {
                request: FloorRequest::speak(GroupId(0), MemberId(0)),
            })
            .unwrap();
        shard
            .apply_session(session_event(
                0,
                SessionOpKind::Chat {
                    text: "kept".into(),
                },
            ))
            .unwrap();
        // The group's content migrates away...
        let content = shard.extract_session(GlobalGroupId(0)).unwrap().unwrap();
        assert_eq!(content.chat.len(), 1);
        // ...and different content migrates in for another group.
        let mut incoming = GroupSession::default();
        incoming.chat.push((GlobalMemberId(42), "moved".into()));
        shard.install_session(GlobalGroupId(5), incoming).unwrap();
        let reference = shard.session().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.session(), &reference);
        assert!(shard.session().view(GlobalGroupId(0)).is_empty());
        assert_eq!(shard.session().view(GlobalGroupId(5)).chat.len(), 1);
    }

    #[test]
    fn handoff_prepare_freezes_and_exports_live_state() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 3); // m0 holds the token; m1, m2 queued
        let speak = FloorRequest::speak(GroupId(0), MemberId(3));
        let logged = shard.log().retained();
        let export = shard.handoff_prepare(GlobalGroupId(0), GroupId(0)).unwrap();
        assert_eq!(export.floor.token.holder(), Some(MemberId(0)));
        assert_eq!(
            export.floor.token.queue().collect::<Vec<_>>(),
            vec![MemberId(1), MemberId(2)]
        );
        assert_eq!(export.floor.members.len(), 4);
        assert_eq!(export.pinned_seq, logged as u64);
        assert!(shard.is_frozen(GlobalGroupId(0)));
        assert_eq!(shard.view().frozen_groups, 1);
        // Frozen: floor and session ingest fail closed with a retryable
        // error, and neither the log nor the journals move.
        let (refused, replayed) = shard.arbitrate_dedup(99, GlobalGroupId(0), speak.clone());
        assert!(matches!(refused, Err(ClusterError::GroupFrozen(_))) && !replayed);
        let (refused, _) = shard.arbitrate_session_dedup(
            99,
            session_event(0, SessionOpKind::Chat { text: "x".into() }),
        );
        assert!(matches!(refused, Err(ClusterError::GroupFrozen(_))));
        assert_eq!(shard.log().retained(), logged + 1, "only the prepare");
        // A second prepare for the same group is refused.
        assert!(matches!(
            shard.handoff_prepare(GlobalGroupId(0), GroupId(0)),
            Err(ClusterError::GroupFrozen(_))
        ));
        // Abort unfreezes; the group serves again with its state untouched.
        shard.handoff_abort(GlobalGroupId(0)).unwrap();
        assert!(!shard.is_frozen(GlobalGroupId(0)));
        let (after, _) = shard.arbitrate_dedup(100, GlobalGroupId(0), speak);
        assert!(matches!(
            &*after.unwrap(),
            ArbitrationOutcome::Queued { .. }
        ));
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn frozen_marker_survives_crash_snapshot_and_replay() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 2);
        shard.handoff_prepare(GlobalGroupId(0), GroupId(0)).unwrap();
        // Crash with the prepare only in the log: replay restores the freeze.
        shard.crash();
        shard.recover().unwrap();
        assert!(shard.is_frozen(GlobalGroupId(0)));
        // Snapshot inside the frozen window (compacts the prepare away), then
        // crash: the snapshot's frozen list must carry the marker.
        shard.take_snapshot();
        assert_eq!(shard.log().retained(), 0);
        shard.crash();
        shard.recover().unwrap();
        assert!(shard.is_frozen(GlobalGroupId(0)));
        // Commit retires the husk; the unfreeze is durable too.
        shard
            .handoff_commit_source(GlobalGroupId(0), GroupId(0), &[])
            .unwrap();
        shard.crash();
        shard.recover().unwrap();
        assert!(!shard.is_frozen(GlobalGroupId(0)));
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn dedup_peek_copies_without_extracting() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        let speak = FloorRequest::speak(GroupId(0), MemberId(0));
        let (first, _) = shard.arbitrate_dedup(7, GlobalGroupId(0), speak.clone());
        assert!(first.unwrap().is_granted());
        let peeked = shard.dedup().peek_group(GlobalGroupId(0));
        assert_eq!(peeked.len(), 1);
        assert_eq!(peeked[0].0, 7);
        // The entry is still in the window: a retry replays.
        let (retry, replayed) = shard.arbitrate_dedup(7, GlobalGroupId(0), speak);
        assert!(replayed);
        assert!(retry.unwrap().is_granted());
    }

    #[test]
    fn forget_purges_the_eviction_order_so_a_rerecorded_id_lives_full_term() {
        let mut window = DedupWindow::new(2);
        let outcome = Arc::new(ArbitrationOutcome::Granted {
            speakers: vec![MemberId(0)],
            suspensions: vec![],
        });
        // Roll back id 5 (mid-batch crash path), then re-record it after the
        // retry applies freshly.
        window.record(5, GlobalGroupId(0), outcome.clone());
        window.forget(5);
        assert!(window.get(5).is_none());
        window.record(7, GlobalGroupId(0), outcome.clone());
        window.record(5, GlobalGroupId(0), outcome.clone());
        // Filling past capacity must evict the genuinely oldest entry (7) —
        // a stale order entry for 5 would instead evict the live, newer 5
        // and re-open a double-apply window for its retries.
        window.record(9, GlobalGroupId(0), outcome);
        assert!(window.get(5).is_some(), "newest entries survive eviction");
        assert!(window.get(9).is_some());
        assert!(window.get(7).is_none(), "the oldest entry was evicted");
    }

    #[test]
    fn group_commit_matches_sequential_commit() {
        let mut sequential = Shard::new(ShardId(0), 4, 64);
        scripted(&mut sequential, 0);
        let mut batched = Shard::new(ShardId(0), 4, 64);
        scripted(&mut batched, 0);
        for i in 0..10u64 {
            let request = FloorRequest::speak(GroupId(0), MemberId((i % 4) as usize));
            let _ = sequential.arbitrate_dedup(i, GlobalGroupId(0), request);
        }
        batched.begin_batch();
        for i in 0..10u64 {
            let request = FloorRequest::speak(GroupId(0), MemberId((i % 4) as usize));
            let _ = batched.arbitrate_dedup(i, GlobalGroupId(0), request);
        }
        batched.commit_batch();
        // Same arbiter state, same log history, same journal.
        assert_eq!(batched.arbiter(), sequential.arbiter());
        assert_eq!(batched.log().next_seq(), sequential.log().next_seq());
        assert_eq!(batched.dedup().len(), sequential.dedup().len());
        // The group-committed log replays to the same state.
        let reference = batched.arbiter().clone();
        batched.crash();
        batched.recover().unwrap();
        assert_eq!(batched.arbiter(), &reference);
        batched.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn commit_batch_takes_one_snapshot_when_crossing_cadence() {
        let mut shard = Shard::new(ShardId(0), 4, 64);
        shard.begin_batch();
        // 1 create + 4 adds + 10 arbitrations = 15 events, crossing the
        // cadence three times — but deferred, so nothing is logged yet.
        scripted(&mut shard, 10);
        assert!(shard.latest_snapshot().is_none(), "appends are deferred");
        assert_eq!(shard.log().retained(), 0);
        shard.commit_batch();
        // One snapshot at the batch boundary covers the whole batch: the
        // cadence check is amortized per batch, not paid per event.
        assert_eq!(shard.latest_snapshot().unwrap().applied_seq(), 15);
        assert_eq!(shard.log().retained(), 0, "compacted up to the snapshot");
        shard.crash();
        shard.recover().unwrap();
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn crash_mid_batch_rolls_back_journal_entries_with_the_lost_events() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        shard.begin_batch();
        let speak = FloorRequest::speak(GroupId(0), MemberId(0));
        let (outcome, _) = shard.arbitrate_dedup(1, GlobalGroupId(0), speak.clone());
        assert!(outcome.unwrap().is_granted());
        // The batch never commits: the primary dies with the grant pending.
        // Its decision was never released, so losing it is safe — but the
        // journal entry must die too, or a retry would replay a grant the
        // recovered arbiter never saw.
        shard.crash();
        shard.recover().unwrap();
        let (retry, replayed) = shard.arbitrate_dedup(1, GlobalGroupId(0), speak);
        assert!(!replayed, "the uncommitted journal entry was rolled back");
        assert!(retry.unwrap().is_granted(), "the retry re-applies cleanly");
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn snapshot_inside_a_batch_flushes_pending_events_first() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 0);
        shard.begin_batch();
        let (outcome, _) = shard.arbitrate_dedup(
            1,
            GlobalGroupId(0),
            FloorRequest::speak(GroupId(0), MemberId(0)),
        );
        assert!(outcome.unwrap().is_granted());
        // An explicit snapshot mid-batch must cover the applied-but-pending
        // grant, or replay would reconstruct less state than the arbiter had.
        let applied = shard.take_snapshot().applied_seq();
        assert_eq!(applied, shard.log().next_seq());
        shard.commit_batch();
        let reference = shard.arbiter().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &reference);
    }

    #[test]
    fn shard_snapshot_round_trips_through_the_wire_codec() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        scripted(&mut shard, 3);
        let snap = shard.take_snapshot().clone();
        assert!(snap.size_bytes() > 0);
        let encoded = dmps_wire::to_string(&snap);
        let back: ShardSnapshot = dmps_wire::from_str(&encoded).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.applied_seq(), snap.applied_seq());
    }

    #[test]
    fn snapshot_delta_round_trips_through_the_wire_codec() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        shard.set_snapshot_policy(0, 8);
        scripted(&mut shard, 3);
        shard.take_snapshot();
        scripted_more(&mut shard, 4);
        let delta = shard.take_delta().clone();
        assert!(delta.size_bytes() > 0);
        assert!(delta.applied_seq() > delta.base_seq);
        let encoded = dmps_wire::to_string(&delta);
        let back: SnapshotDelta = dmps_wire::from_str(&encoded).unwrap();
        assert_eq!(back, delta);
    }

    /// More traffic against the group `scripted` set up, touching both the
    /// floor (arbitrations) and the session store (chat), so differential
    /// checkpoints have both halves to carry.
    fn scripted_more(shard: &mut Shard, requests: usize) {
        for i in 0..requests {
            shard
                .apply(ArbiterEvent::Arbitrate {
                    request: FloorRequest::speak(GroupId(0), MemberId(i % 4)),
                })
                .unwrap();
            shard
                .apply_session(session_event(
                    i % 4,
                    SessionOpKind::Chat {
                        text: format!("msg {i}").into(),
                    },
                ))
                .unwrap();
        }
    }

    #[test]
    fn delta_chain_recovery_matches_the_live_state_exactly() {
        // Event-count cadence 4 with a chain of 3: checkpoints at 4, 8, 12…
        // alternate one full base and three deltas.
        let mut shard = Shard::new(ShardId(0), 4, 64);
        shard.set_snapshot_policy(0, 3);
        scripted(&mut shard, 2);
        scripted_more(&mut shard, 20);
        assert!(
            !shard.snapshot_deltas().is_empty(),
            "differential checkpoints were taken"
        );
        let arbiter = shard.arbiter().clone();
        let session = shard.session().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &arbiter);
        assert_eq!(shard.session(), &session);
        // Byte-identical through the same codec the wire uses.
        assert_eq!(
            dmps_wire::to_string(shard.arbiter()),
            dmps_wire::to_string(&arbiter)
        );
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn delta_chain_caps_at_the_configured_length() {
        let mut shard = Shard::new(ShardId(0), 4, 64);
        shard.set_snapshot_policy(0, 2);
        scripted(&mut shard, 2);
        let mut longest = 0;
        for _ in 0..10 {
            scripted_more(&mut shard, 4);
            longest = longest.max(shard.snapshot_deltas().len());
            assert!(
                shard.snapshot_deltas().len() <= 2,
                "chain never exceeds the cap"
            );
        }
        assert_eq!(longest, 2, "the chain does fill before a base renews it");
        // The log always compacts to the latest checkpoint, full or delta.
        let tip = shard
            .snapshot_deltas()
            .last()
            .map(SnapshotDelta::applied_seq)
            .unwrap_or_else(|| shard.latest_snapshot().unwrap().applied_seq());
        assert_eq!(shard.log().base(), tip);
    }

    #[test]
    fn byte_cadence_drives_checkpoints_when_configured() {
        // Event-count cadence off; one byte of budget means every commit
        // crosses the cadence.
        let mut shard = Shard::new(ShardId(0), 0, 64);
        shard.set_snapshot_policy(1, 4);
        scripted(&mut shard, 2);
        assert!(
            shard.latest_snapshot().is_some(),
            "byte cadence took checkpoints with the event-count cadence disabled"
        );
        let reference = shard.arbiter().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &reference);
    }

    #[test]
    fn crash_mid_chain_loses_only_the_open_batch() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        shard.set_snapshot_policy(0, 4);
        scripted(&mut shard, 2);
        shard.take_snapshot();
        scripted_more(&mut shard, 3);
        shard.take_delta();
        // A batch opens after the delta checkpoint and dies with the crash:
        // its decision was never released, so the retry path re-applies it.
        shard.begin_batch();
        let speak = FloorRequest::speak(GroupId(0), MemberId(3));
        let (outcome, _) = shard.arbitrate_dedup(77, GlobalGroupId(0), speak.clone());
        assert!(outcome.is_ok());
        shard.crash();
        shard.recover().unwrap();
        let (retry, replayed) = shard.arbitrate_dedup(77, GlobalGroupId(0), speak);
        assert!(!replayed, "the uncommitted journal entry rolled back");
        assert!(retry.is_ok());
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn handoff_landing_between_base_and_delta_recovers_cleanly() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        shard.set_snapshot_policy(0, 4);
        scripted(&mut shard, 2);
        shard
            .apply_session(session_event(
                0,
                SessionOpKind::Chat {
                    text: "keep".into(),
                },
            ))
            .unwrap();
        shard.take_snapshot();
        // The whole two-phase handoff lands inside one delta window: the
        // delta must carry the purge tombstone and the lifted freeze.
        shard.handoff_prepare(GlobalGroupId(0), GroupId(0)).unwrap();
        let content = shard.extract_session(GlobalGroupId(0)).unwrap();
        assert!(content.is_some(), "the chat line migrated out");
        shard
            .handoff_commit_source(GlobalGroupId(0), GroupId(0), &[])
            .unwrap();
        shard.take_delta();
        let arbiter = shard.arbiter().clone();
        let session = shard.session().clone();
        shard.crash();
        shard.recover().unwrap();
        assert_eq!(shard.arbiter(), &arbiter);
        assert_eq!(shard.session(), &session);
        assert!(!shard.is_frozen(GlobalGroupId(0)));
        assert!(shard.session().view(GlobalGroupId(0)).is_empty());
        shard.arbiter().check_invariants().unwrap();
    }

    #[test]
    fn view_reports_base_plus_chain_checkpoint_bytes() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        shard.set_snapshot_policy(0, 4);
        scripted(&mut shard, 2);
        shard.take_snapshot();
        let base_only = shard.view().snapshot_bytes;
        assert!(base_only > 0);
        scripted_more(&mut shard, 2);
        shard.take_delta();
        let with_chain = shard.view();
        assert_eq!(with_chain.snapshot_deltas, 1);
        assert!(
            with_chain.snapshot_bytes > base_only,
            "the chained delta's bytes are part of the checkpoint footprint"
        );
    }

    #[test]
    fn adoption_forces_the_next_checkpoint_full() {
        let mut shard = Shard::new(ShardId(0), 0, 64);
        shard.set_snapshot_policy(0, 4);
        scripted(&mut shard, 2);
        shard.take_snapshot();
        scripted_more(&mut shard, 2);
        shard.take_delta();
        assert_eq!(shard.snapshot_deltas().len(), 1);
        // Recovery adopts a reconstructed state; the dirty sets tracked the
        // dead incarnation, so the next checkpoint may not be differential.
        shard.crash();
        shard.recover().unwrap();
        scripted_more(&mut shard, 1);
        shard.checkpoint();
        assert!(
            shard.snapshot_deltas().is_empty(),
            "the first checkpoint after adoption is a full base"
        );
        assert_eq!(
            shard.latest_snapshot().unwrap().applied_seq(),
            shard.log().next_seq()
        );
    }
}
