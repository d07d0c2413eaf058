//! Full DMPS presentation sessions over the sharded control plane.
//!
//! [`crate::Session`] binds one presentation session to a single in-process
//! server; [`ClusterSession`] is its scale-out sibling: the session's floor
//! requests *and* its content plane — chat, whiteboard, annotations, Group
//! Discussion / Direct Contact sub-sessions, synchronized media playback —
//! execute against a `dmps-cluster` deployment over the deterministic
//! network simulator ([`dmps_cluster::ClusterSim`]). The session's
//! server-side state (the logs a [`crate::DmpsServer`] keeps) lives on the
//! shard owning each group, rides the shard's durable event log, and
//! survives a mid-session shard crash by snapshot-plus-log-replay.
//!
//! ```
//! use dmps::{ClusterSession, ClusterSessionConfig};
//! use dmps_floor::{FcmMode, Role};
//! use dmps_simnet::SimTime;
//!
//! let config = ClusterSessionConfig::new(7, FcmMode::FreeAccess).with_shards(2);
//! let mut session = ClusterSession::new(config);
//! let teacher = session.add_participant("teacher", Role::Chair).unwrap();
//! let alice = session.add_participant("alice", Role::Participant).unwrap();
//! session.chat_at(SimTime::from_millis(10), teacher, "welcome").unwrap();
//! session.chat_at(SimTime::from_millis(20), alice, "hello").unwrap();
//! session.run_to_idle();
//! let log = session.chat_log(session.main_group()).unwrap();
//! assert_eq!(log.len(), 2);
//! session.check_invariants().unwrap();
//! ```

use std::sync::Arc;
use std::time::Duration;

use dmps_cluster::{
    ClusterConfig, ClusterSim, GlobalGroupId, GlobalMemberId, GlobalRequest, GroupSession,
    SessionOp, SessionOutcome, ShardId,
};
use dmps_floor::{FcmMode, Member, Role};
use dmps_simnet::{Link, SimTime};

use crate::error::{DmpsError, Result};

/// Configuration of a sharded session.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSessionConfig {
    /// Sizing and durability knobs of the underlying cluster.
    pub cluster: ClusterConfig,
    /// Seed of the deterministic network simulator.
    pub seed: u64,
    /// The floor control mode of the main session group.
    pub mode: FcmMode,
    /// The link profile between the gateway and every shard host.
    pub link: Link,
    /// When set, the gateway retransmits unanswered requests this long after
    /// a failover completes (exactly-once, thanks to the shard dedup
    /// journals). `None` leaves stranded requests unanswered.
    pub retransmit_after: Option<Duration>,
}

impl ClusterSessionConfig {
    /// A configuration with the given seed and main-group mode, four shards,
    /// a LAN link and 50 ms retransmission.
    pub fn new(seed: u64, mode: FcmMode) -> Self {
        ClusterSessionConfig {
            cluster: ClusterConfig::with_shards(4),
            seed,
            mode,
            link: Link::lan(),
            retransmit_after: Some(Duration::from_millis(50)),
        }
    }

    /// Overrides the shard count, keeping every other cluster knob
    /// (snapshot cadence, dedup window, vnodes) as configured.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.cluster.shards = shards;
        self
    }

    /// Overrides the full cluster configuration (snapshot cadence, dedup
    /// window, vnodes).
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Overrides the gateway↔shard link profile.
    pub fn with_link(mut self, link: Link) -> Self {
        self.link = link;
        self
    }
}

/// A participant of a sharded session.
#[derive(Debug, Clone)]
struct Participant {
    name: String,
    member: GlobalMemberId,
}

/// A full DMPS presentation session running sharded over `dmps-cluster`.
///
/// Participants join a main group (placed by consistent hashing on some
/// shard); every action is scheduled at a global simulation time and travels
/// the simulated network to the shard owning the addressed group. Shard
/// crashes scheduled with [`ClusterSession::schedule_crash`] interleave with
/// the traffic, and — with retransmission enabled — every submitted action
/// is answered exactly once.
#[derive(Debug)]
pub struct ClusterSession {
    sim: ClusterSim,
    main: GlobalGroupId,
    participants: Vec<Participant>,
    subsessions: Vec<GlobalGroupId>,
}

impl ClusterSession {
    /// Deploys the cluster over the simulated network and creates the main
    /// session group.
    pub fn new(config: ClusterSessionConfig) -> Self {
        let mut sim = ClusterSim::new(config.cluster, config.seed, config.link);
        if let Some(delay) = config.retransmit_after {
            sim.enable_retransmission(delay);
        }
        let main = sim
            .cluster_mut()
            .create_group("session", config.mode)
            .expect("fresh cluster has no failed shards");
        ClusterSession {
            sim,
            main,
            participants: Vec::new(),
            subsessions: Vec::new(),
        }
    }

    // ----- roster -----------------------------------------------------------

    /// Registers a participant and joins them to the main session group,
    /// returning their index.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::Cluster`] when the main group's shard is down.
    pub fn add_participant(&mut self, name: impl Into<String>, role: Role) -> Result<usize> {
        let name = name.into();
        let member = self
            .sim
            .cluster_mut()
            .register_member(Member::new(name.clone(), role));
        self.sim.cluster_mut().join_group(self.main, member)?;
        self.participants.push(Participant { name, member });
        Ok(self.participants.len() - 1)
    }

    /// Number of participants.
    pub fn participant_count(&self) -> usize {
        self.participants.len()
    }

    /// The cluster-wide member id of a participant.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::UnknownClient`] for an out-of-range index.
    pub fn member(&self, index: usize) -> Result<GlobalMemberId> {
        self.participants
            .get(index)
            .map(|p| p.member)
            .ok_or(DmpsError::UnknownClient(index))
    }

    /// The display name of a participant.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::UnknownClient`] for an out-of-range index.
    pub fn name(&self, index: usize) -> Result<&str> {
        self.participants
            .get(index)
            .map(|p| p.name.as_str())
            .ok_or(DmpsError::UnknownClient(index))
    }

    // ----- groups -----------------------------------------------------------

    /// The main session group.
    pub fn main_group(&self) -> GlobalGroupId {
        self.main
    }

    /// Sub-sessions spawned so far, in creation order.
    pub fn subsessions(&self) -> &[GlobalGroupId] {
        &self.subsessions
    }

    /// The shard currently owning a group.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::Cluster`] for an unknown group.
    pub fn shard_of(&self, group: GlobalGroupId) -> Result<ShardId> {
        Ok(self.sim.cluster().placement(group)?.shard)
    }

    /// Spawns a Group Discussion / Direct Contact sub-session: `from`
    /// invites `to`, the invitation is accepted, and the sub-group lands on
    /// whatever shard the ring picks — typically *not* the parent's, which
    /// is how breakout load spreads across the cluster. Sub-session traffic
    /// then flows through [`ClusterSession::chat_in_at`] and friends.
    ///
    /// # Errors
    ///
    /// Returns index, membership and shard-down errors.
    pub fn spawn_subsession(
        &mut self,
        from: usize,
        to: usize,
        mode: FcmMode,
    ) -> Result<GlobalGroupId> {
        let inviter = self.member(from)?;
        let invitee = self.member(to)?;
        let (sub, invitation) = self
            .sim
            .cluster_mut()
            .invite(self.main, inviter, invitee, mode, None)?;
        self.sim
            .cluster_mut()
            .respond_invitation(invitation, invitee, true)?;
        self.subsessions.push(sub);
        Ok(sub)
    }

    // ----- scheduled actions ------------------------------------------------

    /// Schedules a chat line in the main group at global time `at`.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn chat_at(&mut self, at: SimTime, index: usize, text: impl Into<Arc<str>>) -> Result<u64> {
        self.chat_in_at(at, self.main, index, text)
    }

    /// Schedules a chat line in an arbitrary group (e.g. a sub-session).
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn chat_in_at(
        &mut self,
        at: SimTime,
        group: GlobalGroupId,
        index: usize,
        text: impl Into<Arc<str>>,
    ) -> Result<u64> {
        let member = self.member(index)?;
        Ok(self
            .sim
            .submit_session_at(at, SessionOp::chat(group, member, text))?)
    }

    /// Schedules a whiteboard stroke in the main group.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn whiteboard_at(
        &mut self,
        at: SimTime,
        index: usize,
        stroke: impl Into<Arc<str>>,
    ) -> Result<u64> {
        let member = self.member(index)?;
        Ok(self
            .sim
            .submit_session_at(at, SessionOp::whiteboard(self.main, member, stroke))?)
    }

    /// Schedules a teacher annotation in the main group.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn annotate_at(
        &mut self,
        at: SimTime,
        index: usize,
        text: impl Into<Arc<str>>,
    ) -> Result<u64> {
        let member = self.member(index)?;
        Ok(self
            .sim
            .submit_session_at(at, SessionOp::annotation(self.main, member, text))?)
    }

    /// Schedules a synchronized playback: at global time `at` the request
    /// travels to the main group's shard, which records that every member
    /// starts `media` at global time `start` (the sharded analog of
    /// [`crate::Session::schedule_media_start`]). The schedule is durable —
    /// it survives a shard crash between `at` and `start`.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn schedule_playback_at(
        &mut self,
        at: SimTime,
        index: usize,
        media: impl Into<Arc<str>>,
        start: SimTime,
    ) -> Result<u64> {
        let member = self.member(index)?;
        Ok(self.sim.submit_session_at(
            at,
            SessionOp::schedule_media(self.main, member, media, start),
        )?)
    }

    /// Schedules a floor request in the main group.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn request_floor_at(&mut self, at: SimTime, index: usize) -> Result<u64> {
        let member = self.member(index)?;
        Ok(self
            .sim
            .submit_at(at, GlobalRequest::speak(self.main, member))?)
    }

    /// Schedules a floor release in the main group.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn release_floor_at(&mut self, at: SimTime, index: usize) -> Result<u64> {
        let member = self.member(index)?;
        Ok(self
            .sim
            .submit_at(at, GlobalRequest::release_floor(self.main, member))?)
    }

    /// Schedules a floor pass in the main group.
    ///
    /// # Errors
    ///
    /// Returns index and routing errors.
    pub fn pass_floor_at(&mut self, at: SimTime, from: usize, to: usize) -> Result<u64> {
        let from = self.member(from)?;
        let to = self.member(to)?;
        Ok(self
            .sim
            .submit_at(at, GlobalRequest::pass_floor(self.main, from, to))?)
    }

    // ----- failure injection and execution ----------------------------------

    /// Schedules a crash of the shard's serving host at `at`, with standby
    /// recovery (snapshot restore + log replay) completing `downtime` later.
    pub fn schedule_crash(&mut self, at: SimTime, shard: ShardId, downtime: Duration) {
        self.sim.schedule_crash(at, shard, downtime);
    }

    /// Runs the session — deliveries and scheduled failures in global time
    /// order — until the network is idle and the failure plan is exhausted.
    pub fn run_to_idle(&mut self) {
        self.sim.run_to_idle();
    }

    // ----- observation ------------------------------------------------------

    /// The recorded session state of a group, read from its owning shard.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::Cluster`] for an unknown group.
    pub fn session_view(&self, group: GlobalGroupId) -> Result<GroupSession> {
        Ok(self.sim.cluster().session_view(group)?)
    }

    /// The chat log of a group.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::Cluster`] for an unknown group.
    pub fn chat_log(&self, group: GlobalGroupId) -> Result<Vec<(GlobalMemberId, Arc<str>)>> {
        Ok(self.session_view(group)?.chat)
    }

    /// The synchronized playbacks of a group: one record per scheduled media
    /// object per current group member, each starting at the same global
    /// time — the sharded Figure-2 media-sync behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`DmpsError::Cluster`] / [`DmpsError::Floor`] for unknown
    /// groups.
    pub fn playbacks(
        &self,
        group: GlobalGroupId,
    ) -> Result<Vec<(GlobalMemberId, Arc<str>, SimTime)>> {
        let placement = self.sim.cluster().placement(group)?;
        let arbiter = self.sim.cluster().arbiter(placement.shard);
        let roster: Vec<GlobalMemberId> = arbiter
            .group(placement.local)
            .map_err(DmpsError::Floor)?
            .members()
            .filter_map(|local| self.sim.cluster().global_member(placement.shard, local))
            .collect();
        let view = self.sim.cluster().session_view(group)?;
        Ok(view
            .media
            .iter()
            .flat_map(|(media, start)| {
                roster
                    .iter()
                    .map(move |&member| (member, media.clone(), *start))
            })
            .collect())
    }

    /// Every floor decision the gateway received, in arrival order.
    pub fn decisions(&self) -> &[(u64, GlobalGroupId, dmps_floor::ArbitrationOutcome)] {
        self.sim.decisions()
    }

    /// Every session acknowledgement the gateway received, in arrival order.
    pub fn session_acks(&self) -> &[(u64, GlobalGroupId, SessionOutcome)] {
        self.sim.session_acks()
    }

    /// Number of failovers performed so far.
    pub fn failovers(&self) -> u64 {
        self.sim.failovers()
    }

    /// Number of requests the gateway retransmitted after failovers.
    pub fn retransmits(&self) -> u64 {
        self.sim.retransmits()
    }

    /// Checks the floor-state invariants on every active shard plus the
    /// cluster-level directory invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        self.sim.cluster().check_invariants()
    }

    /// The underlying simulation harness (escape hatch for custom traffic).
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// Mutable access to the underlying simulation harness.
    pub fn sim_mut(&mut self) -> &mut ClusterSim {
        &mut self.sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn participants_join_and_chat_across_shards() {
        let mut session =
            ClusterSession::new(ClusterSessionConfig::new(3, FcmMode::FreeAccess).with_shards(3));
        let teacher = session.add_participant("teacher", Role::Chair).unwrap();
        let alice = session.add_participant("alice", Role::Participant).unwrap();
        assert_eq!(session.participant_count(), 2);
        assert_eq!(session.name(teacher).unwrap(), "teacher");
        assert!(session.member(99).is_err());
        session
            .chat_at(SimTime::from_millis(5), teacher, "hello class")
            .unwrap();
        session
            .whiteboard_at(SimTime::from_millis(10), alice, "circle(3,3,2)")
            .unwrap();
        session
            .annotate_at(SimTime::from_millis(15), teacher, "see fig. 2")
            .unwrap();
        session.run_to_idle();
        let view = session.session_view(session.main_group()).unwrap();
        assert_eq!(view.chat.len(), 1);
        assert_eq!(view.whiteboard.len(), 1);
        assert_eq!(view.annotations.len(), 1);
        session.check_invariants().unwrap();
    }

    #[test]
    fn equal_control_gates_sharded_chat() {
        let mut session = ClusterSession::new(ClusterSessionConfig::new(11, FcmMode::EqualControl));
        let teacher = session.add_participant("teacher", Role::Chair).unwrap();
        let alice = session.add_participant("alice", Role::Participant).unwrap();
        session
            .request_floor_at(SimTime::from_millis(10), teacher)
            .unwrap();
        // Alice chats while the teacher holds the floor: rejected. After the
        // release, her retry goes through.
        session
            .chat_at(SimTime::from_millis(100), alice, "premature")
            .unwrap();
        session
            .release_floor_at(SimTime::from_millis(200), teacher)
            .unwrap();
        session
            .request_floor_at(SimTime::from_millis(300), alice)
            .unwrap();
        session
            .chat_at(SimTime::from_millis(400), alice, "my turn now")
            .unwrap();
        session.run_to_idle();
        let rejected = session
            .session_acks()
            .iter()
            .filter(|(_, _, o)| !o.is_delivered())
            .count();
        assert_eq!(rejected, 1, "the premature chat was floor-denied");
        let log = session.chat_log(session.main_group()).unwrap();
        assert_eq!(log.len(), 1);
        assert!(log[0].1.contains("my turn"));
        session.check_invariants().unwrap();
    }

    #[test]
    fn subsessions_spawn_cross_shard_and_carry_private_chat() {
        let mut session =
            ClusterSession::new(ClusterSessionConfig::new(5, FcmMode::FreeAccess).with_shards(4));
        let teacher = session.add_participant("teacher", Role::Chair).unwrap();
        let alice = session.add_participant("alice", Role::Participant).unwrap();
        let bob = session.add_participant("bob", Role::Participant).unwrap();
        let sub = session
            .spawn_subsession(teacher, alice, FcmMode::GroupDiscussion)
            .unwrap();
        assert_eq!(session.subsessions(), &[sub]);
        session
            .chat_in_at(SimTime::from_millis(10), sub, teacher, "just us")
            .unwrap();
        // Bob is not in the sub-session: his line is rejected there.
        session
            .chat_in_at(SimTime::from_millis(20), sub, bob, "let me in")
            .unwrap();
        session.run_to_idle();
        let view = session.session_view(sub).unwrap();
        assert_eq!(view.chat.len(), 1);
        assert_eq!(&*view.chat[0].1, "just us");
        assert!(session
            .session_acks()
            .iter()
            .any(|(_, g, o)| *g == sub && !o.is_delivered()));
        session.check_invariants().unwrap();
    }
}
