//! The op envelope: one shape for everything a gateway submits and
//! everything a shard answers.
//!
//! In the paper a floor request and a piece of session content are two user
//! interactions on the *same* per-group ordered stream — content is admitted
//! against the floor state the preceding requests left behind. The cluster
//! therefore carries both as one [`Op`] through one pipeline (one request-id
//! space, one routing pass, one shard queue, one mailbox) and only
//! splits them again at the very ends: the shard's two arbitration entry
//! points, and the gateway's two typed decision streams. BFCP is the model:
//! one common header and one transaction-id space, many primitives.

use std::sync::Arc;

use dmps_floor::FloorRequest;

use crate::cluster::{Decision, GlobalRequest};
use crate::error::{ClusterError, Result};
use crate::ring::ShardId;
use crate::session::{SessionDecision, SessionEvent, SessionOp};
use crate::shard::GlobalGroupId;

/// One client interaction, addressed with cluster-wide ids — what
/// [`Gateway::submit_ops`](crate::Gateway::submit_ops) takes, and what the
/// typed `submit*` methods wrap their arguments in.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A floor request (speak / release / pass / direct contact), answered
    /// with a [`Decision`] on the floor stream.
    Floor(GlobalRequest),
    /// A session operation (chat / whiteboard / annotation / media
    /// schedule), answered with a [`SessionDecision`] on the session stream.
    Session(SessionOp),
}

impl Op {
    /// The group the op addresses — its routing and ordering key.
    pub fn group(&self) -> GlobalGroupId {
        match self {
            Op::Floor(request) => request.group,
            Op::Session(op) => op.group,
        }
    }

    /// Whether the op is session content (as opposed to a floor request).
    pub fn is_session(&self) -> bool {
        matches!(self, Op::Session(_))
    }

    /// Stable lowercase label used in metric names and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            Op::Floor(request) => request.kind.label(),
            Op::Session(op) => op.kind.label(),
        }
    }
}

/// An [`Op`] translated to the owning shard's dense local ids — the form
/// that rides the shard's ingest queue.
#[derive(Debug)]
pub(crate) enum LocalOp {
    Floor {
        /// The global group, echoed into the decision.
        group: GlobalGroupId,
        request: FloorRequest,
    },
    Session(SessionEvent),
}

/// The answer to one [`Op`]: the typed decision of its kind. Workers, the
/// routing layer and [`ClusterSim`](crate::ClusterSim)'s network carry this
/// envelope; a gateway unpacks it onto its two typed streams.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The decision of a floor request.
    Floor(Decision),
    /// The decision of a session operation.
    Session(SessionDecision),
}

impl<O> Decision<O> {
    /// A decision as its shard (or, for routing errors and sheds, the routing
    /// layer) produced it: no durability position and no epoch yet — the
    /// worker stamps those when the batch holding it (quorum-)commits.
    pub(crate) fn unstamped(
        seq: u64,
        group: GlobalGroupId,
        outcome: Result<Arc<O>>,
        replayed: bool,
        shard: Option<ShardId>,
    ) -> Self {
        Decision {
            seq,
            group,
            outcome,
            replayed,
            shard,
            commit: 0,
            epoch: 0,
        }
    }

    /// Stamps a successful decision with the log position it rode to and the
    /// leader epoch that committed it; a failed one committed nothing and
    /// carries neither.
    fn stamp(&mut self, commit: u64, epoch: u64) {
        if self.outcome.is_ok() {
            self.commit = commit;
            self.epoch = epoch;
        }
    }

    /// Turns the decision into a [`ClusterError::ShardDown`] answer, and
    /// reports whether it had been a freshly applied success — an orphan the
    /// failing leader must note for failover to reconcile.
    fn fail(&mut self, shard: ShardId) -> bool {
        let orphan = !self.replayed && self.outcome.is_ok();
        self.outcome = Err(ClusterError::ShardDown(shard));
        (self.replayed, self.commit, self.epoch) = (false, 0, 0);
        orphan
    }
}

impl Reply {
    /// The answer to an op that never reached arbitration: a routing error
    /// (`shard` unknown) or a shed by `shard`'s full queue.
    pub(crate) fn failed(
        session: bool,
        seq: u64,
        group: GlobalGroupId,
        shard: Option<ShardId>,
        error: ClusterError,
    ) -> Self {
        if session {
            Reply::Session(Decision::unstamped(seq, group, Err(error), false, shard))
        } else {
            Reply::Floor(Decision::unstamped(seq, group, Err(error), false, shard))
        }
    }

    /// The request id the reply answers.
    pub fn seq(&self) -> u64 {
        match self {
            Reply::Floor(d) => d.seq,
            Reply::Session(d) => d.seq,
        }
    }

    /// Whether the reply carries an outcome (as opposed to a routing, shard
    /// or overload error).
    pub fn is_ok(&self) -> bool {
        match self {
            Reply::Floor(d) => d.outcome.is_ok(),
            Reply::Session(d) => d.outcome.is_ok(),
        }
    }

    /// Whether the reply answers a session operation.
    pub fn is_session(&self) -> bool {
        matches!(self, Reply::Session(_))
    }

    /// Stamps the decision's durability position (successes only).
    pub(crate) fn stamp(&mut self, commit: u64, epoch: u64) {
        match self {
            Reply::Floor(d) => d.stamp(commit, epoch),
            Reply::Session(d) => d.stamp(commit, epoch),
        }
    }

    /// Fails the decision `ShardDown`; `true` when it was a fresh success.
    pub(crate) fn fail(&mut self, shard: ShardId) -> bool {
        match self {
            Reply::Floor(d) => d.fail(shard),
            Reply::Session(d) => d.fail(shard),
        }
    }
}
