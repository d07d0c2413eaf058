//! Error types of the sharded control plane.

use std::fmt;

use dmps_floor::FloorError;

use crate::ring::ShardId;
use crate::shard::{GlobalGroupId, GlobalMemberId};

/// Convenience result alias for the crate.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Errors raised by the sharded control plane.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// A global group identifier is unknown to the directory.
    UnknownGroup(GlobalGroupId),
    /// A global member identifier is unknown to the directory.
    UnknownMember(GlobalMemberId),
    /// The shard owning the addressed group is down (crashed and not yet
    /// recovered).
    ShardDown(ShardId),
    /// A member is not registered on the shard the operation addresses.
    NotOnShard {
        /// The member.
        member: GlobalMemberId,
        /// The shard.
        shard: ShardId,
    },
    /// A cluster-level invitation identifier is unknown.
    UnknownInvitation(u64),
    /// An invitation was answered by somebody other than its recipient.
    NotTheInvitee(GlobalMemberId),
    /// An invitation was already answered.
    AlreadyAnswered(u64),
    /// A caller-chosen shard id (an invitation's or a handoff's placement
    /// target) names no shard of this cluster.
    UnknownShard(ShardId),
    /// The group is frozen by an in-flight two-phase handoff; the operation
    /// is safe to retry once the handoff commits or aborts (streamed
    /// submissions are parked and re-driven automatically instead).
    GroupFrozen(GlobalGroupId),
    /// A live handoff was requested toward the shard that already owns the
    /// group.
    HandoffUnnecessary(GlobalGroupId),
    /// The owning shard's bounded ingest queue was full and the cluster's
    /// overload policy is [`OverloadPolicy::Shed`](crate::OverloadPolicy):
    /// the submission was not enqueued. Retry under the same request id
    /// ([`Gateway::resubmit`](crate::Gateway::resubmit)) once the storm
    /// drains — the shard dedup window keeps the retry exactly-once.
    Overloaded(ShardId),
    /// The shard worker pipelines are gone (the cluster was torn down while
    /// a decision was still awaited).
    Disconnected,
    /// Durable state failed its integrity check: a checksum mismatch or an
    /// unparseable artifact. The shard is quarantined (stays down) instead
    /// of the process aborting; with replicas the damage is repaired from
    /// the quorum during promotion instead of surfacing at all.
    Corrupt {
        /// The shard whose durable artifact failed verification.
        shard: ShardId,
        /// The artifact that failed (e.g. `snapshot base`, `log segment 42`).
        what: String,
    },
    /// An error surfaced from the underlying floor arbiter.
    Floor(FloorError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::UnknownGroup(g) => write!(f, "unknown cluster group {g}"),
            ClusterError::UnknownMember(m) => write!(f, "unknown cluster member {m}"),
            ClusterError::ShardDown(s) => write!(f, "shard {s} is down"),
            ClusterError::NotOnShard { member, shard } => {
                write!(f, "member {member} is not registered on shard {shard}")
            }
            ClusterError::UnknownInvitation(i) => write!(f, "unknown cluster invitation {i}"),
            ClusterError::NotTheInvitee(m) => write!(f, "member {m} is not the invitee"),
            ClusterError::AlreadyAnswered(i) => write!(f, "invitation {i} was already answered"),
            ClusterError::UnknownShard(s) => write!(f, "unknown cluster shard {s}"),
            ClusterError::GroupFrozen(g) => {
                write!(f, "group {g} is frozen by an in-flight handoff")
            }
            ClusterError::HandoffUnnecessary(g) => {
                write!(f, "group {g} already lives on the handoff target shard")
            }
            ClusterError::Overloaded(s) => {
                write!(f, "shard {s} shed the submission: its ingest queue is full")
            }
            ClusterError::Disconnected => {
                write!(f, "the shard worker pipelines have shut down")
            }
            ClusterError::Corrupt { shard, what } => {
                write!(f, "shard {shard} durable state is corrupt: {what}")
            }
            ClusterError::Floor(e) => write!(f, "floor control error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Floor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FloorError> for ClusterError {
    fn from(e: FloorError) -> Self {
        ClusterError::Floor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errors = [
            ClusterError::UnknownGroup(GlobalGroupId(1)),
            ClusterError::UnknownMember(GlobalMemberId(2)),
            ClusterError::ShardDown(ShardId(3)),
            ClusterError::NotOnShard {
                member: GlobalMemberId(4),
                shard: ShardId(0),
            },
            ClusterError::UnknownInvitation(5),
            ClusterError::NotTheInvitee(GlobalMemberId(6)),
            ClusterError::AlreadyAnswered(7),
            ClusterError::UnknownShard(ShardId(8)),
            ClusterError::GroupFrozen(GlobalGroupId(9)),
            ClusterError::HandoffUnnecessary(GlobalGroupId(10)),
            ClusterError::Overloaded(ShardId(1)),
            ClusterError::Disconnected,
            ClusterError::Corrupt {
                shard: ShardId(2),
                what: "snapshot base".into(),
            },
            ClusterError::Floor(FloorError::MissingDestination),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
