//! Sharded DMPS session state: the content plane of a presentation session.
//!
//! The paper's floor control mechanism exists to coordinate *presentation
//! sessions* — message windows, whiteboards, teacher annotations and
//! synchronized media playback — not bare token requests. This module is the
//! shard-side half of that: every group owned by a shard carries a
//! [`GroupSession`] (its chat / whiteboard / annotation logs and its media
//! schedule) inside the shard's [`SessionStore`], and every content delivery
//! is a [`SessionEvent`] that is floor-gated against the shard's live
//! arbiter ([`dmps_floor::FloorArbiter::may_deliver`]), appended to the same
//! durable event log as floor events, and therefore reconstructed exactly by
//! snapshot-plus-log-replay after a shard crash.
//!
//! Gateways address session traffic with cluster-wide ids through a
//! [`SessionOp`]; the routing layer translates it to a shard-local
//! [`SessionEvent`] and the owning shard answers with a [`SessionOutcome`]
//! ([`SessionDecision`] on the streaming path). Retries are exactly-once:
//! delivered ops are journaled per request id in the shard's session dedup
//! window, so a retransmitted chat line cannot appear twice.
//!
//! Delivered content is **immutable and shared**: a payload is one
//! `Arc<str>` allocated at submit, and the logged event, the live store, the
//! sealed segment, every follower's store, [`SessionStore::view`] results,
//! handoff exports and differential checkpoints (which carry only what a
//! window appended — see [`GroupSession::splice`]) all hold reference
//! counts on it. Only a wire decode (base restore, a segment read
//! back from bytes) allocates afresh. The byte accounting
//! ([`GroupSession::size_bytes`]) keeps counting logical durable bytes per
//! artifact — it does not deduplicate what the process happens to share.
//!
//! ```
//! use dmps_cluster::{Cluster, ClusterConfig, SessionOp};
//! use dmps_floor::{FcmMode, Member, Role};
//!
//! let cluster = Cluster::new(ClusterConfig::with_shards(2));
//! let g = cluster.create_group("lecture", FcmMode::FreeAccess).unwrap();
//! let teacher = cluster.register_member(Member::new("teacher", Role::Chair));
//! cluster.join_group(g, teacher).unwrap();
//!
//! let outcome = cluster
//!     .session(SessionOp::chat(g, teacher, "welcome everyone"))
//!     .unwrap();
//! assert!(outcome.is_delivered());
//! let view = cluster.session_view(g).unwrap();
//! assert_eq!(view.chat[0], (teacher, "welcome everyone".into()));
//! // A second read shares the delivered line instead of copying it.
//! let again = cluster.session_view(g).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&view.chat[0].1, &again.chat[0].1));
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use dmps_floor::{GroupId, MemberId};
use dmps_simnet::SimTime;
use dmps_wire::Wire;

use crate::shard::{GlobalGroupId, GlobalMemberId};

/// The payload of one session operation, shared between the cluster-wide
/// [`SessionOp`] and the shard-local [`SessionEvent`]. The string is one
/// immutable allocation from submit on; every later holder clones the `Arc`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionOpKind {
    /// A message-window line.
    Chat {
        /// The text.
        text: Arc<str>,
    },
    /// A whiteboard stroke batch.
    Whiteboard {
        /// Encoded stroke data.
        stroke: Arc<str>,
    },
    /// A teacher annotation (Figure 3a).
    Annotation {
        /// The annotation text.
        text: Arc<str>,
    },
    /// Schedule a synchronized media start: every member of the group starts
    /// the object at the same global time (the DOCPN schedule broadcast,
    /// sharded).
    ScheduleMedia {
        /// Name of the media object.
        media: Arc<str>,
        /// The global time at which every client starts it.
        start: SimTime,
    },
}

impl SessionOpKind {
    /// Whether the operation is a floor-gated content delivery (as opposed
    /// to a membership-gated schedule broadcast).
    pub fn is_content(&self) -> bool {
        !matches!(self, SessionOpKind::ScheduleMedia { .. })
    }

    /// Stable lowercase label used in metric names and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            SessionOpKind::Chat { .. } => "chat",
            SessionOpKind::Whiteboard { .. } => "whiteboard",
            SessionOpKind::Annotation { .. } => "annotation",
            SessionOpKind::ScheduleMedia { .. } => "schedule_media",
        }
    }

    fn payload_bytes(&self) -> u64 {
        match self {
            SessionOpKind::Chat { text } | SessionOpKind::Annotation { text } => text.len() as u64,
            SessionOpKind::Whiteboard { stroke } => stroke.len() as u64,
            SessionOpKind::ScheduleMedia { media, .. } => 16 + media.len() as u64,
        }
    }
}

/// A session operation addressed with cluster-wide ids — what gateways
/// submit.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOp {
    /// The group the operation addresses (main session or a sub-session).
    pub group: GlobalGroupId,
    /// The acting member.
    pub from: GlobalMemberId,
    /// What they do.
    pub kind: SessionOpKind,
}

impl SessionOp {
    /// A chat line in `group`.
    pub fn chat(group: GlobalGroupId, from: GlobalMemberId, text: impl Into<Arc<str>>) -> Self {
        SessionOp {
            group,
            from,
            kind: SessionOpKind::Chat { text: text.into() },
        }
    }

    /// A whiteboard stroke in `group`.
    pub fn whiteboard(
        group: GlobalGroupId,
        from: GlobalMemberId,
        stroke: impl Into<Arc<str>>,
    ) -> Self {
        SessionOp {
            group,
            from,
            kind: SessionOpKind::Whiteboard {
                stroke: stroke.into(),
            },
        }
    }

    /// A teacher annotation in `group`.
    pub fn annotation(
        group: GlobalGroupId,
        from: GlobalMemberId,
        text: impl Into<Arc<str>>,
    ) -> Self {
        SessionOp {
            group,
            from,
            kind: SessionOpKind::Annotation { text: text.into() },
        }
    }

    /// Schedules a synchronized media start in `group`.
    pub fn schedule_media(
        group: GlobalGroupId,
        from: GlobalMemberId,
        media: impl Into<Arc<str>>,
        start: SimTime,
    ) -> Self {
        SessionOp {
            group,
            from,
            kind: SessionOpKind::ScheduleMedia {
                media: media.into(),
                start,
            },
        }
    }

    /// The approximate wire size in bytes (drives simulated transmission
    /// delays).
    pub fn size_bytes(&self) -> u64 {
        48 + self.kind.payload_bytes()
    }
}

impl SessionEvent {
    /// Owned heap payload in bytes (the string content the op carries) —
    /// the variable part of the shard's per-event byte accounting.
    pub fn heap_bytes(&self) -> u64 {
        self.kind.payload_bytes()
    }
}

/// A session operation translated to shard-local ids — what the owning
/// shard's worker applies and logs.
///
/// The event carries *both* addressings: the local ids are what the arbiter
/// gates against at original apply time (only *delivered* events are logged,
/// so replay re-applies them unconditionally — no re-gating is needed or
/// performed), while the global ids keep the recorded content meaningful
/// when the group (and its session log) migrates to a shard where the same
/// member has a different dense id.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// The cluster-wide group id.
    pub group: GlobalGroupId,
    /// The group's dense id inside the owning shard's arbiter.
    pub local_group: GroupId,
    /// The cluster-wide id of the acting member.
    pub from: GlobalMemberId,
    /// The member's dense id inside the owning shard's arbiter.
    pub local_from: MemberId,
    /// The operation payload.
    pub kind: SessionOpKind,
}

/// Why a session operation was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionRejection {
    /// The acting member is not in the group (stale routing after a
    /// migration fails closed here, like floor requests do).
    NotAMember,
    /// Floor control denied the delivery (Equal Control without holding the
    /// token).
    FloorDenied,
}

/// What the owning shard did with a session operation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionOutcome {
    /// The operation was applied to the group's session state and fanned out
    /// to `listeners` other members.
    Delivered {
        /// How many members (besides the sender, for content) observe it.
        listeners: u64,
    },
    /// The operation was refused without mutating state; retries
    /// re-arbitrate.
    Rejected {
        /// Why.
        reason: SessionRejection,
    },
}

impl SessionOutcome {
    /// Whether the operation was applied.
    pub fn is_delivered(&self) -> bool {
        matches!(self, SessionOutcome::Delivered { .. })
    }
}

/// The session decision for one submitted [`SessionOp`], streamed back to
/// the submitting gateway: the generic [`Decision`](crate::Decision)
/// envelope — request id, group, shared (`Arc`) outcome or routing/shard
/// error, `replayed` (answered from the shard's session journal),
/// answering shard, read-your-writes `commit` position and leader `epoch` —
/// around a [`SessionOutcome`].
pub type SessionDecision = crate::cluster::Decision<SessionOutcome>;

/// Logical durable bytes of one recorded entry besides its payload: the
/// attribution (or start time) plus the string header a stored copy carries.
/// A constant rather than a `size_of`: the accounting counts what content
/// costs per artifact, not this process's `Arc` representation.
const ENTRY_BYTES: usize = 32;

/// Lane lengths of a [`GroupSession`], in field order: chat, whiteboard,
/// annotations, media.
pub type LaneLens = (u64, u64, u64, u64);

/// The session state of one group: the server-side logs a `DmpsServer` keeps
/// for its single session, sharded. Four append-only lanes of immutable
/// entries — cloning a `GroupSession` copies four vectors of reference
/// counts, never a payload.
///
/// Content is attributed by **global** member id so the log survives a group
/// migration to a shard with different dense ids.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupSession {
    /// Message-window lines, in delivery order.
    pub chat: Vec<(GlobalMemberId, Arc<str>)>,
    /// Whiteboard strokes, in delivery order.
    pub whiteboard: Vec<(GlobalMemberId, Arc<str>)>,
    /// Teacher annotations, in delivery order.
    pub annotations: Vec<(GlobalMemberId, Arc<str>)>,
    /// Scheduled synchronized media starts, as `(media, global start time)`.
    pub media: Vec<(Arc<str>, SimTime)>,
}

/// Truncates `lane` to the untrusted length `from`, then appends `tail`;
/// `false` (lane untouched) when `from` lies past the lane's end.
fn splice<T: Clone>(lane: &mut Vec<T>, from: u64, tail: &[T]) -> bool {
    let Some(from) = usize::try_from(from).ok().filter(|&n| n <= lane.len()) else {
        return false;
    };
    lane.truncate(from);
    lane.extend_from_slice(tail);
    true
}

impl GroupSession {
    /// Whether nothing has been recorded for the group yet.
    pub fn is_empty(&self) -> bool {
        self.chat.is_empty()
            && self.whiteboard.is_empty()
            && self.annotations.is_empty()
            && self.media.is_empty()
    }

    /// The current length of every lane — the cut a checkpoint window
    /// remembers at a group's first touch.
    pub fn lens(&self) -> LaneLens {
        (
            self.chat.len() as u64,
            self.whiteboard.len() as u64,
            self.annotations.len() as u64,
            self.media.len() as u64,
        )
    }

    /// The entries appended past `from` (lane lengths this value reported
    /// earlier — lanes only grow), sharing their payloads: a differential
    /// checkpoint's entry for the group.
    pub(crate) fn suffix(&self, from: LaneLens) -> GroupSession {
        GroupSession {
            chat: self.chat[from.0 as usize..].to_vec(),
            whiteboard: self.whiteboard[from.1 as usize..].to_vec(),
            annotations: self.annotations[from.2 as usize..].to_vec(),
            media: self.media[from.3 as usize..].to_vec(),
        }
    }

    /// Folds a checkpoint suffix: truncate every lane to `from`, then extend
    /// by `tail`. Because lanes are append-only this lands on the exact
    /// content at the suffix's cut from any position past `from`. `false`
    /// when `from` (untrusted) exceeds a lane — the restorer sits before the
    /// suffix's window, or `from` is corrupt; lanes before the failing one
    /// stay folded, so the caller discards the value.
    #[must_use]
    pub fn splice(&mut self, from: LaneLens, tail: &GroupSession) -> bool {
        splice(&mut self.chat, from.0, &tail.chat)
            && splice(&mut self.whiteboard, from.1, &tail.whiteboard)
            && splice(&mut self.annotations, from.2, &tail.annotations)
            && splice(&mut self.media, from.3, &tail.media)
    }

    /// Approximate in-memory footprint of the recorded content in bytes
    /// (entry overheads plus string payloads) — the per-group unit of the
    /// shard's session byte accounting.
    pub fn size_bytes(&self) -> u64 {
        let lane = |v: &[(GlobalMemberId, Arc<str>)]| -> u64 {
            v.iter().map(|(_, s)| (ENTRY_BYTES + s.len()) as u64).sum()
        };
        let media = self
            .media
            .iter()
            .map(|(m, _)| (ENTRY_BYTES + m.len()) as u64);
        lane(&self.chat) + lane(&self.whiteboard) + lane(&self.annotations) + media.sum::<u64>()
    }
}

impl Wire for SessionOpKind {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        match self {
            SessionOpKind::Chat { text } => {
                0u8.encode(w);
                text.encode(w);
            }
            SessionOpKind::Whiteboard { stroke } => {
                1u8.encode(w);
                stroke.encode(w);
            }
            SessionOpKind::Annotation { text } => {
                2u8.encode(w);
                text.encode(w);
            }
            SessionOpKind::ScheduleMedia { media, start } => {
                3u8.encode(w);
                media.encode(w);
                start.encode(w);
            }
        }
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        let tag = u8::decode(r)?;
        Ok(match tag {
            0 => SessionOpKind::Chat {
                text: Arc::decode(r)?,
            },
            1 => SessionOpKind::Whiteboard {
                stroke: Arc::decode(r)?,
            },
            2 => SessionOpKind::Annotation {
                text: Arc::decode(r)?,
            },
            3 => SessionOpKind::ScheduleMedia {
                media: Arc::decode(r)?,
                start: SimTime::decode(r)?,
            },
            other => {
                return Err(dmps_wire::WireError::BadToken {
                    expected: "SessionOpKind tag",
                    token: other.to_string(),
                })
            }
        })
    }
}

impl Wire for SessionEvent {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.group.encode(w);
        self.local_group.encode(w);
        self.from.encode(w);
        self.local_from.encode(w);
        self.kind.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(SessionEvent {
            group: GlobalGroupId::decode(r)?,
            local_group: GroupId::decode(r)?,
            from: GlobalMemberId::decode(r)?,
            local_from: MemberId::decode(r)?,
            kind: SessionOpKind::decode(r)?,
        })
    }
}

impl Wire for GroupSession {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.chat.encode(w);
        self.whiteboard.encode(w);
        self.annotations.encode(w);
        self.media.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(GroupSession {
            chat: Vec::decode(r)?,
            whiteboard: Vec::decode(r)?,
            annotations: Vec::decode(r)?,
            media: Vec::decode(r)?,
        })
    }
}

/// The session state of every group a shard owns.
///
/// Like the arbiter, the store is *volatile* primary state: a crash discards
/// it, and recovery reconstructs it from the latest snapshot plus the logged
/// [`SessionEvent`]s — [`SessionStore::apply`] is deterministic, which is
/// what lets session content ride the exact same durability machinery as
/// floor state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStore {
    groups: BTreeMap<GlobalGroupId, GroupSession>,
}

impl SessionStore {
    /// An empty store.
    pub fn new() -> Self {
        SessionStore::default()
    }

    /// Number of groups with recorded session state.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Approximate in-memory footprint of every group's recorded content,
    /// in bytes. O(recorded entries) — a diagnostic-path accounting walk,
    /// not a hot-path counter.
    pub fn size_bytes(&self) -> u64 {
        self.groups
            .values()
            .map(|g| std::mem::size_of::<GroupSession>() as u64 + g.size_bytes())
            .sum()
    }

    /// Applies a (already floor-gated) delivered event to the group's
    /// session state. Deterministic: replaying the same events in the same
    /// order reconstructs the same store.
    pub fn apply(&mut self, event: &SessionEvent) {
        let group = self.entry(event.group);
        match &event.kind {
            SessionOpKind::Chat { text } => group.chat.push((event.from, text.clone())),
            SessionOpKind::Whiteboard { stroke } => {
                group.whiteboard.push((event.from, stroke.clone()))
            }
            SessionOpKind::Annotation { text } => {
                group.annotations.push((event.from, text.clone()))
            }
            SessionOpKind::ScheduleMedia { media, start } => {
                group.media.push((media.clone(), *start))
            }
        }
    }

    /// The recorded session state of a group (empty if nothing was recorded).
    pub fn view(&self, group: GlobalGroupId) -> GroupSession {
        self.get(group).cloned().unwrap_or_default()
    }

    /// Removes and returns a group's session state (migration: the content
    /// follows the group to its new shard).
    pub fn remove(&mut self, group: GlobalGroupId) -> Option<GroupSession> {
        self.groups.remove(&group)
    }

    /// Installs session state extracted from another shard's store, on top
    /// of whatever is present (lanes only ever grow).
    pub fn install(&mut self, group: GlobalGroupId, content: GroupSession) {
        let lanes = self.entry(group);
        lanes.chat.extend(content.chat);
        lanes.whiteboard.extend(content.whiteboard);
        lanes.annotations.extend(content.annotations);
        lanes.media.extend(content.media);
    }

    /// The recorded state of a group, if the store holds an entry for it
    /// (distinct from the entry being empty).
    pub fn get(&self, group: GlobalGroupId) -> Option<&GroupSession> {
        self.groups.get(&group)
    }

    /// The group's entry, created empty if absent — where a checkpoint
    /// suffix is folded ([`GroupSession::splice`]).
    pub(crate) fn entry(&mut self, group: GlobalGroupId) -> &mut GroupSession {
        self.groups.entry(group).or_default()
    }
}

impl Wire for SessionStore {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.groups.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(SessionStore {
            groups: BTreeMap::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(kind: SessionOpKind) -> SessionEvent {
        SessionEvent {
            group: GlobalGroupId(7),
            local_group: GroupId(0),
            from: GlobalMemberId(3),
            local_from: MemberId(1),
            kind,
        }
    }

    #[test]
    fn store_applies_and_views_by_global_ids() {
        let mut store = SessionStore::new();
        store.apply(&event(SessionOpKind::Chat { text: "hi".into() }));
        store.apply(&event(SessionOpKind::Whiteboard {
            stroke: "rect".into(),
        }));
        store.apply(&event(SessionOpKind::Annotation {
            text: "eq. 3".into(),
        }));
        store.apply(&event(SessionOpKind::ScheduleMedia {
            media: "intro".into(),
            start: SimTime::from_secs(5),
        }));
        let view = store.view(GlobalGroupId(7));
        assert_eq!(view.chat, vec![(GlobalMemberId(3), "hi".into())]);
        assert_eq!(view.whiteboard.len(), 1);
        assert_eq!(view.annotations.len(), 1);
        assert_eq!(view.media, vec![("intro".into(), SimTime::from_secs(5))]);
        assert!(store.view(GlobalGroupId(99)).is_empty());
        assert_eq!(store.group_count(), 1);
    }

    #[test]
    fn store_round_trips_through_the_wire_codec() {
        let mut store = SessionStore::new();
        for i in 0..3 {
            store.apply(&event(SessionOpKind::Chat {
                text: format!("line {i}").into(),
            }));
        }
        store.apply(&event(SessionOpKind::ScheduleMedia {
            media: "clip".into(),
            start: SimTime::from_millis(1234),
        }));
        let encoded = dmps_wire::to_string(&store);
        let back: SessionStore = dmps_wire::from_str(&encoded).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn extraction_and_install_move_content_between_stores() {
        let mut a = SessionStore::new();
        a.apply(&event(SessionOpKind::Chat { text: "x".into() }));
        let content = a.remove(GlobalGroupId(7)).unwrap();
        assert!(a.view(GlobalGroupId(7)).is_empty());
        let mut b = SessionStore::new();
        b.install(GlobalGroupId(7), content);
        assert_eq!(b.view(GlobalGroupId(7)).chat.len(), 1);
        assert!(a.remove(GlobalGroupId(7)).is_none());
    }

    #[test]
    fn op_constructors_and_sizes() {
        let g = GlobalGroupId(1);
        let m = GlobalMemberId(2);
        assert!(SessionOp::chat(g, m, "hello").kind.is_content());
        assert!(SessionOp::whiteboard(g, m, "line").kind.is_content());
        assert!(SessionOp::annotation(g, m, "note").kind.is_content());
        let media = SessionOp::schedule_media(g, m, "intro", SimTime::from_secs(1));
        assert!(!media.kind.is_content());
        let short = SessionOp::chat(g, m, "a");
        let long = SessionOp::chat(g, m, "a significantly longer chat line");
        assert!(long.size_bytes() > short.size_bytes());
        assert!(media.size_bytes() > 48);
    }
}
