//! `FCM-Arbitrate`: the floor control arbiter of the DMPS server.
//!
//! The arbiter owns the groups, members, per-group floor tokens, pending
//! invitations, the resource snapshot and the α/β thresholds, and implements
//! the paper's Z-notation arbitration algorithm:
//!
//! * resource availability **≥ α** — the request is handled according to the
//!   group's floor control mode (`Media-Available`);
//! * **β ≤ availability < α** — the request may still be granted, but the
//!   media of lower-priority members are suspended first (`Media-Suspend`);
//! * availability **< β** — the arbitration aborts (`Abort-Arbitrate`);
//! * in every regime, a request from a member who has not joined the group
//!   aborts.

use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use crate::error::{FloorError, Result};
use crate::group::{Group, GroupId};
use crate::invite::{Invitation, InvitationId, InvitationStatus};
use crate::member::{Member, MemberId, Role};
use crate::mode::FcmMode;
use crate::resource::{Resource, ResourceLevel, ResourceThresholds};
use crate::suspend::{plan_suspensions, Suspension, SuspensionOrder};
use crate::token::FloorToken;

/// A floor control request sent to the server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloorRequest {
    /// The group the request concerns.
    pub group: GroupId,
    /// The requesting member.
    pub member: MemberId,
    /// What the member wants to do.
    pub kind: RequestKind,
}

impl FloorRequest {
    /// A request to deliver (speak / write / stream) in the group under its
    /// current mode.
    pub fn speak(group: GroupId, member: MemberId) -> Self {
        FloorRequest {
            group,
            member,
            kind: RequestKind::Speak,
        }
    }

    /// A request to open a direct-contact channel to another member.
    pub fn direct_contact(group: GroupId, member: MemberId, to: MemberId) -> Self {
        FloorRequest {
            group,
            member,
            kind: RequestKind::DirectContact { to },
        }
    }

    /// Release the equal-control floor token.
    pub fn release_floor(group: GroupId, member: MemberId) -> Self {
        FloorRequest {
            group,
            member,
            kind: RequestKind::ReleaseFloor,
        }
    }

    /// Pass the equal-control floor token to a specific member.
    pub fn pass_floor(group: GroupId, member: MemberId, to: MemberId) -> Self {
        FloorRequest {
            group,
            member,
            kind: RequestKind::PassFloor { to },
        }
    }
}

/// The kinds of floor control requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Deliver on the group's channels under the current mode.
    Speak,
    /// Open a private direct-contact channel with another member.
    DirectContact {
        /// The destination member.
        to: MemberId,
    },
    /// Release the floor token (Equal Control).
    ReleaseFloor,
    /// Pass the floor token to a specific member (Equal Control).
    PassFloor {
        /// The member to pass the token to.
        to: MemberId,
    },
}

/// Why a request was denied without aborting the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DenialReason {
    /// The member's priority is below the mode's minimum (the Z `Priority ≥ 2`).
    InsufficientPriority,
    /// Another member holds the floor token; the request was queued.
    FloorBusy,
    /// The member does not hold the floor token they tried to release/pass.
    NotTokenHolder,
}

/// Why an arbitration aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// The requester has not joined the group (`G ∉ Joined-Groups(G, X)`).
    NotJoined,
    /// Resource availability fell below the minimal level β.
    ResourceCritical,
}

/// The outcome of one arbitration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArbitrationOutcome {
    /// Media are available to the listed members (for Free Access this is
    /// everyone in the group; for Equal Control the single token holder; for
    /// Group Discussion the sub-group members; for Direct Contact the pair).
    Granted {
        /// The members who may deliver.
        speakers: Vec<MemberId>,
        /// Members whose media were suspended to make room (non-empty only in
        /// the degraded regime).
        suspensions: Vec<Suspension>,
    },
    /// The request was queued behind the current floor holder (Equal
    /// Control).
    Queued {
        /// The member currently holding the floor.
        current_holder: MemberId,
        /// Position in the waiting queue (1 = next).
        position: usize,
    },
    /// The request was denied.
    Denied {
        /// Why.
        reason: DenialReason,
    },
    /// The arbitration aborted.
    Aborted {
        /// Why.
        reason: AbortReason,
    },
}

impl ArbitrationOutcome {
    /// Whether the outcome granted the floor to the requester (possibly with
    /// suspensions).
    pub fn is_granted(&self) -> bool {
        matches!(self, ArbitrationOutcome::Granted { .. })
    }

    /// The suspensions carried by a granted outcome.
    pub fn suspensions(&self) -> &[Suspension] {
        match self {
            ArbitrationOutcome::Granted { suspensions, .. } => suspensions,
            _ => &[],
        }
    }
}

/// Aggregate counters kept by the arbiter (experiment E6/E8 output).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArbiterStats {
    /// Requests granted.
    pub granted: u64,
    /// Requests queued behind the token holder.
    pub queued: u64,
    /// Requests denied.
    pub denied: u64,
    /// Arbitrations aborted.
    pub aborted: u64,
    /// Individual member-media suspensions performed.
    pub suspensions: u64,
}

/// The complete live floor state of one group, exported for a shard-to-shard
/// handoff: everything the destination arbiter needs to recreate the group
/// *mid-arbitration* — roster, mode, chair, and the token with its holder and
/// FIFO queue intact.
///
/// Member ids are dense ids of the **exporting** arbiter; the coordinator
/// translates them to the destination's ids before calling
/// [`FloorArbiter::restore_token`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupFloorExport {
    /// Display name of the group.
    pub name: String,
    /// Its floor control mode.
    pub mode: FcmMode,
    /// The joined members, in id order.
    pub members: Vec<MemberId>,
    /// The session chair, if any.
    pub chair: Option<MemberId>,
    /// The floor token: holder, pending-request queue, fairness counter.
    pub token: FloorToken,
}

/// The floor control arbiter (the "group administration of the DMPS server").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FloorArbiter {
    members: Vec<Member>,
    groups: Vec<Group>,
    tokens: BTreeMap<GroupId, FloorToken>,
    invitations: Vec<Invitation>,
    resource: Resource,
    thresholds: ResourceThresholds,
    suspension_order: SuspensionOrder,
    suspended: BTreeSet<MemberId>,
    stats: ArbiterStats,
}

impl FloorArbiter {
    /// Creates an arbiter with full resources and the default α/β thresholds.
    pub fn with_defaults() -> Self {
        FloorArbiter::default()
    }

    /// Creates an arbiter with explicit thresholds.
    pub fn new(thresholds: ResourceThresholds) -> Self {
        FloorArbiter {
            thresholds,
            ..Default::default()
        }
    }

    /// Sets the victim-selection order used in the degraded regime
    /// (the E7 ablation switch).
    pub fn set_suspension_order(&mut self, order: SuspensionOrder) {
        self.suspension_order = order;
    }

    /// The victim-selection order in force.
    pub fn suspension_order(&self) -> SuspensionOrder {
        self.suspension_order
    }

    /// Updates the resource snapshot. When availability recovers to the
    /// sufficient level, previously suspended members are resumed.
    pub fn set_resource(&mut self, resource: Resource) {
        self.resource = resource;
        if self.thresholds.classify(&self.resource) == ResourceLevel::Sufficient {
            self.suspended.clear();
        }
    }

    /// The current resource snapshot.
    pub fn resource(&self) -> Resource {
        self.resource
    }

    /// The α/β thresholds in force.
    pub fn thresholds(&self) -> ResourceThresholds {
        self.thresholds
    }

    /// The aggregate counters.
    pub fn stats(&self) -> ArbiterStats {
        self.stats
    }

    /// The members whose media are currently suspended.
    pub fn suspended_members(&self) -> impl Iterator<Item = MemberId> + '_ {
        self.suspended.iter().copied()
    }

    // ----- membership ------------------------------------------------------

    /// Creates a new top-level group and returns its id.
    pub fn create_group(&mut self, name: impl Into<String>, mode: FcmMode) -> GroupId {
        self.groups.push(Group::new(name, mode));
        let id = GroupId(self.groups.len() - 1);
        self.tokens.insert(id, FloorToken::new());
        id
    }

    /// Adds a member to a group; the first chair-role member to join becomes
    /// the group's chair.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group.
    pub fn add_member(&mut self, group: GroupId, member: Member) -> Result<MemberId> {
        let is_chair = member.is_chair();
        // Validate before mutating: a failed add must leave the member list
        // untouched, or event-log replay (which skips failed events) would
        // assign different dense ids than the live arbiter did.
        if group.0 >= self.groups.len() {
            return Err(FloorError::UnknownGroup(group));
        }
        self.members.push(member);
        let id = MemberId(self.members.len() - 1);
        let g = &mut self.groups[group.0];
        g.join(id);
        if is_chair && g.chair.is_none() {
            g.chair = Some(id);
        }
        Ok(id)
    }

    /// Adds an existing member to another (sub-)group.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] / [`FloorError::UnknownMember`]
    /// for unknown identifiers.
    pub fn join_group(&mut self, group: GroupId, member: MemberId) -> Result<()> {
        if member.0 >= self.members.len() {
            return Err(FloorError::UnknownMember(member));
        }
        let g = self
            .groups
            .get_mut(group.0)
            .ok_or(FloorError::UnknownGroup(group))?;
        g.join(member);
        Ok(())
    }

    /// Removes a member from a group (and from its floor token).
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group.
    pub fn leave_group(&mut self, group: GroupId, member: MemberId) -> Result<()> {
        let g = self
            .groups
            .get_mut(group.0)
            .ok_or(FloorError::UnknownGroup(group))?;
        g.leave(member);
        if let Some(token) = self.tokens.get_mut(&group) {
            token.remove_member(member);
        }
        Ok(())
    }

    /// The member with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownMember`] for an unknown id.
    pub fn member(&self, id: MemberId) -> Result<&Member> {
        self.members.get(id.0).ok_or(FloorError::UnknownMember(id))
    }

    /// The group with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown id.
    pub fn group(&self, id: GroupId) -> Result<&Group> {
        self.groups.get(id.0).ok_or(FloorError::UnknownGroup(id))
    }

    /// Changes the floor control mode of a group.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group.
    pub fn set_mode(&mut self, group: GroupId, mode: FcmMode) -> Result<()> {
        let g = self
            .groups
            .get_mut(group.0)
            .ok_or(FloorError::UnknownGroup(group))?;
        g.mode = mode;
        Ok(())
    }

    /// The floor token of an Equal Control group.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group.
    pub fn token(&self, group: GroupId) -> Result<&FloorToken> {
        self.group(group)?;
        Ok(self.tokens.get(&group).expect("every group has a token"))
    }

    /// Every group's floor token, in group-id order.
    pub fn tokens_iter(&self) -> impl Iterator<Item = (GroupId, &FloorToken)> {
        self.tokens.iter().map(|(&g, t)| (g, t))
    }

    /// Exports the complete live floor state of one group — roster, mode,
    /// chair and token (holder + queue) — for a live migration to another
    /// arbiter. The export is a copy; this arbiter's state is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group.
    pub fn export_group_floor(&self, group: GroupId) -> Result<GroupFloorExport> {
        let g = self.group(group)?;
        Ok(GroupFloorExport {
            name: g.name.clone(),
            mode: g.mode,
            members: g.members().collect(),
            chair: g.chair,
            token: self.token(group)?.clone(),
        })
    }

    /// Replaces a group's floor token with imported state — the destination
    /// half of a live migration ([`crate::ArbiterEvent::RestoreToken`]). The
    /// imported token is validated so the Z-spec invariants
    /// ([`FloorArbiter::check_invariants`]) cannot be violated by a restore:
    /// the holder and every queued member must belong to the group, the
    /// queue must be duplicate-free, and the holder must not also be queued.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group,
    /// [`FloorError::NotAMember`] when the holder or a queued member is not
    /// in the group, and [`FloorError::CorruptSnapshot`] for a structurally
    /// unsound queue. A failed restore leaves the existing token untouched.
    pub fn restore_token(&mut self, group: GroupId, token: FloorToken) -> Result<()> {
        let g = self.group(group)?;
        if let Some(holder) = token.holder() {
            if !g.contains(holder) {
                return Err(FloorError::NotAMember {
                    member: holder,
                    group,
                });
            }
        }
        let mut seen = BTreeSet::new();
        for queued in token.queue() {
            if !g.contains(queued) {
                return Err(FloorError::NotAMember {
                    member: queued,
                    group,
                });
            }
            if Some(queued) == token.holder() || !seen.insert(queued) {
                return Err(FloorError::CorruptSnapshot(format!(
                    "imported token for {group} queues {queued} unsoundly"
                )));
            }
        }
        self.tokens.insert(group, token);
        Ok(())
    }

    /// Sets a group's session chair to imported state — the destination half
    /// of a live migration ([`crate::ArbiterEvent::RestoreChair`]). Needed
    /// because the ordinary add/join path only elects a chair by role, while
    /// an exported group's chair may be any member (sub-groups are chaired
    /// by their inviter).
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownGroup`] for an unknown group and
    /// [`FloorError::NotAMember`] when the chair is not in the group; a
    /// failed restore leaves the existing chair untouched.
    pub fn restore_chair(&mut self, group: GroupId, chair: Option<MemberId>) -> Result<()> {
        let g = self.group(group)?;
        if let Some(chair) = chair {
            if !g.contains(chair) {
                return Err(FloorError::NotAMember {
                    member: chair,
                    group,
                });
            }
        }
        self.groups[group.0].chair = chair;
        Ok(())
    }

    /// Whether `member` may currently deliver content (chat, whiteboard,
    /// annotations) in `group` under its floor control mode, without changing
    /// any arbitration state.
    ///
    /// Free Access always permits delivery; Equal Control requires holding
    /// the floor token; the sub-session modes (Group Discussion / Direct
    /// Contact) follow the free-access rule inside the sub-group, because the
    /// moderation already happened when the sub-group was spawned by
    /// invitation. Unknown groups and non-members never deliver.
    pub fn may_deliver(&self, group: GroupId, member: MemberId) -> bool {
        let Ok(g) = self.group(group) else {
            return false;
        };
        if !g.contains(member) {
            return false;
        }
        match g.mode {
            FcmMode::FreeAccess => true,
            FcmMode::EqualControl => self
                .token(group)
                .map(|t| t.may_speak(member))
                .unwrap_or(false),
            FcmMode::GroupDiscussion | FcmMode::DirectContact => true,
        }
    }

    /// Number of groups (including sub-groups).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Number of members across all groups.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    // ----- invitations ------------------------------------------------------

    /// A member invites another into a new private sub-group (Group
    /// Discussion) or a two-person direct-contact window. Returns the new
    /// sub-group and the pending invitation.
    ///
    /// # Errors
    ///
    /// Returns unknown-identifier errors, and
    /// [`FloorError::NotAMember`] when either party is not in the parent
    /// group.
    pub fn invite(
        &mut self,
        parent: GroupId,
        from: MemberId,
        to: MemberId,
        mode: FcmMode,
    ) -> Result<(GroupId, InvitationId)> {
        let parent_group = self.group(parent)?;
        if !parent_group.contains(from) {
            return Err(FloorError::NotAMember {
                member: from,
                group: parent,
            });
        }
        if !parent_group.contains(to) {
            return Err(FloorError::NotAMember {
                member: to,
                group: parent,
            });
        }
        let from_name = self.member(from)?.name.clone();
        let name = format!("{}-{}", from_name, mode);
        self.groups.push(Group::subgroup(name, mode, parent, from));
        let sub = GroupId(self.groups.len() - 1);
        self.tokens.insert(sub, FloorToken::new());
        self.invitations.push(Invitation::new(from, to, sub));
        Ok((sub, InvitationId(self.invitations.len() - 1)))
    }

    /// The invitee answers an invitation. Accepting joins them to the
    /// sub-group.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownInvitation`],
    /// [`FloorError::NotTheInvitee`] when somebody else answers, and
    /// [`FloorError::AlreadyAnswered`] when the invitation is not pending.
    pub fn respond_invitation(
        &mut self,
        invitation: InvitationId,
        responder: MemberId,
        accept: bool,
    ) -> Result<InvitationStatus> {
        let inv = self
            .invitations
            .get_mut(invitation.0)
            .ok_or(FloorError::UnknownInvitation(invitation))?;
        if inv.to != responder {
            return Err(FloorError::NotTheInvitee(responder));
        }
        if !inv.is_pending() {
            return Err(FloorError::AlreadyAnswered(invitation));
        }
        inv.status = if accept {
            InvitationStatus::Accepted
        } else {
            InvitationStatus::Declined
        };
        let status = inv.status;
        let subgroup = inv.subgroup;
        if accept {
            self.join_group(subgroup, responder)?;
        }
        Ok(status)
    }

    /// The invitation with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::UnknownInvitation`] for an unknown id.
    pub fn invitation(&self, id: InvitationId) -> Result<&Invitation> {
        self.invitations
            .get(id.0)
            .ok_or(FloorError::UnknownInvitation(id))
    }

    /// Number of invitations ever issued (answered ones are kept).
    pub fn invitation_count(&self) -> usize {
        self.invitations.len()
    }

    // ----- arbitration ------------------------------------------------------

    /// Runs `FCM-Arbitrate` for one request.
    ///
    /// # Errors
    ///
    /// Returns unknown-identifier errors and
    /// [`FloorError::MissingDestination`] for a direct-contact request with
    /// no destination. Policy outcomes (denied, queued, aborted) are returned
    /// inside [`ArbitrationOutcome`], not as errors.
    pub fn arbitrate(&mut self, request: &FloorRequest) -> Result<ArbitrationOutcome> {
        // Borrowed field by field, not through `group()`/`member()`, so the
        // stats, tokens and suspensions below stay mutable alongside them.
        let group = self
            .groups
            .get(request.group.0)
            .ok_or(FloorError::UnknownGroup(request.group))?;
        let member = self
            .members
            .get(request.member.0)
            .ok_or(FloorError::UnknownMember(request.member))?;

        // Membership check comes first in the Z specification: a request from
        // outside the group aborts regardless of resources.
        if !group.contains(request.member) {
            self.stats.aborted += 1;
            return Ok(ArbitrationOutcome::Aborted {
                reason: AbortReason::NotJoined,
            });
        }

        // Resource regime.
        let level = self.thresholds.classify(&self.resource);
        if level == ResourceLevel::Critical {
            self.stats.aborted += 1;
            return Ok(ArbitrationOutcome::Aborted {
                reason: AbortReason::ResourceCritical,
            });
        }

        // Token bookkeeping requests are handled before the mode dispatch.
        match request.kind {
            RequestKind::ReleaseFloor => {
                let token = self.tokens.get_mut(&request.group).expect("token exists");
                return match token.release(request.member) {
                    Ok(next) => {
                        self.stats.granted += 1;
                        Ok(ArbitrationOutcome::Granted {
                            speakers: next.into_iter().collect(),
                            suspensions: Vec::new(),
                        })
                    }
                    Err(_) => {
                        self.stats.denied += 1;
                        Ok(ArbitrationOutcome::Denied {
                            reason: DenialReason::NotTokenHolder,
                        })
                    }
                };
            }
            RequestKind::PassFloor { to } => {
                let token = self.tokens.get_mut(&request.group).expect("token exists");
                return match token.pass(request.member, to) {
                    Ok(()) => {
                        self.stats.granted += 1;
                        Ok(ArbitrationOutcome::Granted {
                            speakers: vec![to],
                            suspensions: Vec::new(),
                        })
                    }
                    Err(_) => {
                        self.stats.denied += 1;
                        Ok(ArbitrationOutcome::Denied {
                            reason: DenialReason::NotTokenHolder,
                        })
                    }
                };
            }
            RequestKind::Speak | RequestKind::DirectContact { .. } => {}
        }

        // Priority predicate: every mode except Free Access requires the
        // minimum priority.
        if group.mode.requires_priority() && !member.meets_minimum_priority() {
            self.stats.denied += 1;
            return Ok(ArbitrationOutcome::Denied {
                reason: DenialReason::InsufficientPriority,
            });
        }

        // Mode dispatch (Media-Available).
        let speakers: Vec<MemberId> = match (group.mode, request.kind) {
            (FcmMode::FreeAccess, _) => group.members().collect(),
            (FcmMode::EqualControl, _) => {
                let token = self.tokens.get_mut(&request.group).expect("token exists");
                if token.request(request.member) {
                    vec![request.member]
                } else {
                    let holder = token.holder().expect("busy token has a holder");
                    let position = token
                        .queue()
                        .position(|m| m == request.member)
                        .map(|p| p + 1)
                        .unwrap_or(0);
                    self.stats.queued += 1;
                    return Ok(ArbitrationOutcome::Queued {
                        current_holder: holder,
                        position,
                    });
                }
            }
            (FcmMode::GroupDiscussion, _) => {
                // Every member of the (private) group with sufficient
                // priority may deliver together.
                let mut speakers = Vec::new();
                for m in group.members() {
                    let candidate = self.members.get(m.0).ok_or(FloorError::UnknownMember(m))?;
                    if candidate.meets_minimum_priority() {
                        speakers.push(m);
                    }
                }
                speakers
            }
            (FcmMode::DirectContact, RequestKind::DirectContact { to }) => {
                if !group.contains(to) {
                    self.stats.aborted += 1;
                    return Ok(ArbitrationOutcome::Aborted {
                        reason: AbortReason::NotJoined,
                    });
                }
                vec![request.member, to]
            }
            (FcmMode::DirectContact, RequestKind::Speak) => {
                return Err(FloorError::MissingDestination);
            }
            (_, RequestKind::ReleaseFloor | RequestKind::PassFloor { .. }) => unreachable!(),
        };

        // Degraded regime: suspend lower-priority members' media first.
        let suspensions = if level == ResourceLevel::Degraded {
            let demand = Self::member_demand_kbps(member);
            let candidates: Vec<(MemberId, &Member, u32)> = group
                .members()
                .filter(|&m| m != request.member && !self.suspended.contains(&m))
                .filter_map(|m| {
                    self.members
                        .get(m.0)
                        .map(|mm| (m, mm, Self::member_demand_kbps(mm)))
                })
                .collect();
            let plan =
                plan_suspensions(&candidates, member.priority, demand, self.suspension_order);
            for s in &plan {
                self.suspended.insert(s.member);
            }
            self.stats.suspensions += plan.len() as u64;
            plan
        } else {
            Vec::new()
        };

        self.stats.granted += 1;
        Ok(ArbitrationOutcome::Granted {
            speakers,
            suspensions,
        })
    }

    /// The aggregate bandwidth demand (kbps) of a member's enabled channels.
    fn member_demand_kbps(member: &Member) -> u32 {
        member
            .channels
            .iter()
            .flat_map(|c| c.carries())
            .map(|k| k.default_qos().bandwidth_kbps)
            .sum()
    }

    /// Convenience constructor used by benches and examples: a lecture group
    /// with one teacher (chair) and `students` participants.
    pub fn lecture(students: usize, mode: FcmMode) -> (Self, GroupId, MemberId, Vec<MemberId>) {
        let mut arbiter = FloorArbiter::with_defaults();
        let group = arbiter.create_group("lecture", mode);
        let teacher = arbiter
            .add_member(group, Member::new("teacher", Role::Chair))
            .expect("group exists");
        let student_ids = (0..students)
            .map(|i| {
                arbiter
                    .add_member(
                        group,
                        Member::new(format!("student-{i}"), Role::Participant),
                    )
                    .expect("group exists")
            })
            .collect();
        (arbiter, group, teacher, student_ids)
    }
}

fn bad_tag(expected: &'static str, tag: u8) -> dmps_wire::WireError {
    dmps_wire::WireError::BadToken {
        expected,
        token: tag.to_string(),
    }
}

impl dmps_wire::Wire for RequestKind {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        match self {
            RequestKind::Speak => 0u8.encode(w),
            RequestKind::DirectContact { to } => {
                1u8.encode(w);
                to.encode(w);
            }
            RequestKind::ReleaseFloor => 2u8.encode(w),
            RequestKind::PassFloor { to } => {
                3u8.encode(w);
                to.encode(w);
            }
        }
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(RequestKind::Speak),
            1 => Ok(RequestKind::DirectContact {
                to: MemberId::decode(r)?,
            }),
            2 => Ok(RequestKind::ReleaseFloor),
            3 => Ok(RequestKind::PassFloor {
                to: MemberId::decode(r)?,
            }),
            other => Err(bad_tag("RequestKind tag", other)),
        }
    }
}

impl dmps_wire::Wire for FloorRequest {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.group.encode(w);
        self.member.encode(w);
        self.kind.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(FloorRequest {
            group: GroupId::decode(r)?,
            member: MemberId::decode(r)?,
            kind: RequestKind::decode(r)?,
        })
    }
}

impl dmps_wire::Wire for DenialReason {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        let tag: u8 = match self {
            DenialReason::InsufficientPriority => 0,
            DenialReason::FloorBusy => 1,
            DenialReason::NotTokenHolder => 2,
        };
        tag.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(DenialReason::InsufficientPriority),
            1 => Ok(DenialReason::FloorBusy),
            2 => Ok(DenialReason::NotTokenHolder),
            other => Err(bad_tag("DenialReason tag", other)),
        }
    }
}

impl dmps_wire::Wire for AbortReason {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        let tag: u8 = match self {
            AbortReason::NotJoined => 0,
            AbortReason::ResourceCritical => 1,
        };
        tag.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(AbortReason::NotJoined),
            1 => Ok(AbortReason::ResourceCritical),
            other => Err(bad_tag("AbortReason tag", other)),
        }
    }
}

impl dmps_wire::Wire for ArbitrationOutcome {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        match self {
            ArbitrationOutcome::Granted {
                speakers,
                suspensions,
            } => {
                0u8.encode(w);
                speakers.encode(w);
                suspensions.encode(w);
            }
            ArbitrationOutcome::Queued {
                current_holder,
                position,
            } => {
                1u8.encode(w);
                current_holder.encode(w);
                position.encode(w);
            }
            ArbitrationOutcome::Denied { reason } => {
                2u8.encode(w);
                reason.encode(w);
            }
            ArbitrationOutcome::Aborted { reason } => {
                3u8.encode(w);
                reason.encode(w);
            }
        }
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(ArbitrationOutcome::Granted {
                speakers: Vec::<MemberId>::decode(r)?,
                suspensions: Vec::<Suspension>::decode(r)?,
            }),
            1 => Ok(ArbitrationOutcome::Queued {
                current_holder: MemberId::decode(r)?,
                position: usize::decode(r)?,
            }),
            2 => Ok(ArbitrationOutcome::Denied {
                reason: DenialReason::decode(r)?,
            }),
            3 => Ok(ArbitrationOutcome::Aborted {
                reason: AbortReason::decode(r)?,
            }),
            other => Err(bad_tag("ArbitrationOutcome tag", other)),
        }
    }
}

impl dmps_wire::Wire for ArbiterStats {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.granted.encode(w);
        self.queued.encode(w);
        self.denied.encode(w);
        self.aborted.encode(w);
        self.suspensions.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(ArbiterStats {
            granted: u64::decode(r)?,
            queued: u64::decode(r)?,
            denied: u64::decode(r)?,
            aborted: u64::decode(r)?,
            suspensions: u64::decode(r)?,
        })
    }
}

/// The wire payload of an [`ArbiterDelta`](crate::snapshot::ArbiterDelta):
/// full replacement values for every dirty entry (ascending id order) plus
/// the small global fields shipped wholesale.
struct DeltaPayload {
    members: Vec<(MemberId, Member)>,
    groups: Vec<(GroupId, Group, FloorToken)>,
    invitations: Vec<(InvitationId, Invitation)>,
    resource: Resource,
    thresholds: ResourceThresholds,
    suspension_order: SuspensionOrder,
    suspended: BTreeSet<MemberId>,
    stats: ArbiterStats,
}

impl dmps_wire::Wire for DeltaPayload {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.members.encode(w);
        self.groups.encode(w);
        self.invitations.encode(w);
        self.resource.encode(w);
        self.thresholds.encode(w);
        self.suspension_order.encode(w);
        self.suspended.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(DeltaPayload {
            members: Vec::<(MemberId, Member)>::decode(r)?,
            groups: Vec::<(GroupId, Group, FloorToken)>::decode(r)?,
            invitations: Vec::<(InvitationId, Invitation)>::decode(r)?,
            resource: Resource::decode(r)?,
            thresholds: ResourceThresholds::decode(r)?,
            suspension_order: SuspensionOrder::decode(r)?,
            suspended: BTreeSet::<MemberId>::decode(r)?,
            stats: ArbiterStats::decode(r)?,
        })
    }
}

impl FloorArbiter {
    /// Records which identifiers a successfully applied event dirtied. The
    /// owning shard calls this right after [`FloorArbiter::apply`] and feeds
    /// the accumulated set to [`FloorArbiter::export_delta`] at the next
    /// checkpoint.
    ///
    /// Global fields (resource, thresholds, suspension order, the suspended
    /// set, stats) need no marking: every delta ships them wholesale, they
    /// are a few dozen bytes.
    pub fn mark_touched(
        &self,
        event: &crate::snapshot::ArbiterEvent,
        outcome: &crate::snapshot::EventOutcome,
        dirty: &mut crate::snapshot::ArbiterDirty,
    ) {
        use crate::snapshot::{ArbiterEvent, EventOutcome};
        match event {
            ArbiterEvent::CreateGroup { .. } => {
                if let EventOutcome::GroupCreated(g) = outcome {
                    dirty.groups.insert(*g);
                }
            }
            ArbiterEvent::AddMember { group, .. } => {
                if let EventOutcome::MemberAdded(m) = outcome {
                    dirty.members.insert(*m);
                }
                dirty.groups.insert(*group);
            }
            ArbiterEvent::JoinGroup { group, .. }
            | ArbiterEvent::LeaveGroup { group, .. }
            | ArbiterEvent::SetMode { group, .. }
            | ArbiterEvent::RestoreToken { group, .. }
            | ArbiterEvent::RestoreChair { group, .. } => {
                dirty.groups.insert(*group);
            }
            // Arbitration mutates the request group's token (and possibly
            // the global suspended set / stats, which ship wholesale).
            ArbiterEvent::Arbitrate { request } => {
                dirty.groups.insert(request.group);
            }
            // Pure-global mutations: nothing to mark.
            ArbiterEvent::SetResource { .. } | ArbiterEvent::SetSuspensionOrder { .. } => {}
            // Invite creates the sub-group + invitation; the parent group is
            // validated but never mutated.
            ArbiterEvent::Invite { .. } => {
                if let EventOutcome::SubgroupCreated(sub, inv) = outcome {
                    dirty.groups.insert(*sub);
                    dirty.invitations.insert(*inv);
                }
            }
            // Answering flips the invitation status and (on accept) joins
            // the responder to the sub-group.
            ArbiterEvent::RespondInvitation { invitation, .. } => {
                dirty.invitations.insert(*invitation);
                if let Ok(inv) = self.invitation(*invitation) {
                    dirty.groups.insert(inv.subgroup);
                }
            }
        }
    }

    /// Serializes a differential snapshot: the current values of every dirty
    /// entry plus the global fields. `applied_seq` is the log position this
    /// delta brings a restorer up to.
    pub fn export_delta(
        &self,
        applied_seq: u64,
        dirty: &crate::snapshot::ArbiterDirty,
    ) -> crate::snapshot::ArbiterDelta {
        let payload = DeltaPayload {
            members: dirty
                .members
                .iter()
                .map(|&id| (id, self.members[id.0].clone()))
                .collect(),
            groups: dirty
                .groups
                .iter()
                .map(|&id| {
                    let token = self
                        .tokens
                        .get(&id)
                        .expect("every group has a token")
                        .clone();
                    (id, self.groups[id.0].clone(), token)
                })
                .collect(),
            invitations: dirty
                .invitations
                .iter()
                .map(|&id| (id, self.invitations[id.0].clone()))
                .collect(),
            resource: self.resource,
            thresholds: self.thresholds,
            suspension_order: self.suspension_order,
            suspended: self.suspended.clone(),
            stats: self.stats,
        };
        crate::snapshot::ArbiterDelta {
            applied_seq,
            data: dmps_wire::to_string(&payload),
        }
    }

    /// Folds one differential snapshot into this arbiter: dirty entries
    /// replace their slot (or extend the dense vector by exactly one — ids
    /// are allocated densely in order, so a delta's new entries always land
    /// at the end), and the global fields are replaced outright.
    ///
    /// # Errors
    ///
    /// Returns [`FloorError::CorruptSnapshot`] when the payload does not
    /// decode or an entry id skips past the end of its vector (the delta was
    /// applied out of chain order).
    pub fn apply_delta(&mut self, delta: &crate::snapshot::ArbiterDelta) -> Result<()> {
        use std::cmp::Ordering;
        let payload: DeltaPayload = dmps_wire::from_str(&delta.data)
            .map_err(|e| FloorError::CorruptSnapshot(e.to_string()))?;
        for (id, member) in payload.members {
            match id.0.cmp(&self.members.len()) {
                Ordering::Less => self.members[id.0] = member,
                Ordering::Equal => self.members.push(member),
                Ordering::Greater => {
                    return Err(FloorError::CorruptSnapshot(format!(
                        "delta member {id} skips past {} present",
                        self.members.len()
                    )))
                }
            }
        }
        for (id, group, token) in payload.groups {
            match id.0.cmp(&self.groups.len()) {
                Ordering::Less => self.groups[id.0] = group,
                Ordering::Equal => self.groups.push(group),
                Ordering::Greater => {
                    return Err(FloorError::CorruptSnapshot(format!(
                        "delta group {id} skips past {} present",
                        self.groups.len()
                    )))
                }
            }
            self.tokens.insert(id, token);
        }
        for (id, invitation) in payload.invitations {
            match id.0.cmp(&self.invitations.len()) {
                Ordering::Less => self.invitations[id.0] = invitation,
                Ordering::Equal => self.invitations.push(invitation),
                Ordering::Greater => {
                    return Err(FloorError::CorruptSnapshot(format!(
                        "delta invitation {id} skips past {} present",
                        self.invitations.len()
                    )))
                }
            }
        }
        self.resource = payload.resource;
        self.thresholds = payload.thresholds;
        self.suspension_order = payload.suspension_order;
        self.suspended = payload.suspended;
        self.stats = payload.stats;
        Ok(())
    }
}

impl dmps_wire::Wire for FloorArbiter {
    fn encode(&self, w: &mut dmps_wire::Writer) {
        self.members.encode(w);
        self.groups.encode(w);
        self.tokens.encode(w);
        self.invitations.encode(w);
        self.resource.encode(w);
        self.thresholds.encode(w);
        self.suspension_order.encode(w);
        self.suspended.encode(w);
        self.stats.encode(w);
    }

    fn decode(r: &mut dmps_wire::Reader<'_>) -> dmps_wire::Result<Self> {
        Ok(FloorArbiter {
            members: Vec::<Member>::decode(r)?,
            groups: Vec::<Group>::decode(r)?,
            tokens: BTreeMap::<GroupId, FloorToken>::decode(r)?,
            invitations: Vec::<Invitation>::decode(r)?,
            resource: Resource::decode(r)?,
            thresholds: ResourceThresholds::decode(r)?,
            suspension_order: SuspensionOrder::decode(r)?,
            suspended: BTreeSet::<MemberId>::decode(r)?,
            stats: ArbiterStats::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_access_grants_everyone() {
        let (mut arbiter, group, teacher, students) = FloorArbiter::lecture(3, FcmMode::FreeAccess);
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, students[0]))
            .unwrap();
        match outcome {
            ArbitrationOutcome::Granted {
                speakers,
                suspensions,
            } => {
                assert_eq!(speakers.len(), 4, "teacher + 3 students may all deliver");
                assert!(speakers.contains(&teacher));
                assert!(suspensions.is_empty());
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(arbiter.stats().granted, 1);
    }

    #[test]
    fn equal_control_serializes_speakers_through_the_token() {
        let (mut arbiter, group, _teacher, students) =
            FloorArbiter::lecture(3, FcmMode::EqualControl);
        let first = arbiter
            .arbitrate(&FloorRequest::speak(group, students[0]))
            .unwrap();
        assert!(first.is_granted());
        // Second student queues behind the first.
        let second = arbiter
            .arbitrate(&FloorRequest::speak(group, students[1]))
            .unwrap();
        match second {
            ArbitrationOutcome::Queued {
                current_holder,
                position,
            } => {
                assert_eq!(current_holder, students[0]);
                assert_eq!(position, 1);
            }
            other => panic!("expected queue, got {other:?}"),
        }
        // Releasing hands the floor to the queued student.
        let release = arbiter
            .arbitrate(&FloorRequest::release_floor(group, students[0]))
            .unwrap();
        match release {
            ArbitrationOutcome::Granted { speakers, .. } => assert_eq!(speakers, vec![students[1]]),
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(arbiter.token(group).unwrap().may_speak(students[1]));
        assert_eq!(arbiter.stats().queued, 1);
    }

    #[test]
    fn pass_floor_jumps_to_named_member() {
        let (mut arbiter, group, teacher, students) =
            FloorArbiter::lecture(2, FcmMode::EqualControl);
        arbiter
            .arbitrate(&FloorRequest::speak(group, teacher))
            .unwrap();
        arbiter
            .arbitrate(&FloorRequest::speak(group, students[0]))
            .unwrap();
        let outcome = arbiter
            .arbitrate(&FloorRequest::pass_floor(group, teacher, students[1]))
            .unwrap();
        assert!(outcome.is_granted());
        assert!(arbiter.token(group).unwrap().may_speak(students[1]));
        // A non-holder cannot pass.
        let bad = arbiter
            .arbitrate(&FloorRequest::pass_floor(group, students[0], teacher))
            .unwrap();
        assert_eq!(
            bad,
            ArbitrationOutcome::Denied {
                reason: DenialReason::NotTokenHolder
            }
        );
    }

    #[test]
    fn observers_are_denied_in_controlled_modes_but_not_free_access() {
        let mut arbiter = FloorArbiter::with_defaults();
        let group = arbiter.create_group("lecture", FcmMode::EqualControl);
        let observer = arbiter
            .add_member(group, Member::new("guest", Role::Observer))
            .unwrap();
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, observer))
            .unwrap();
        assert_eq!(
            outcome,
            ArbitrationOutcome::Denied {
                reason: DenialReason::InsufficientPriority
            }
        );
        arbiter.set_mode(group, FcmMode::FreeAccess).unwrap();
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, observer))
            .unwrap();
        assert!(outcome.is_granted());
    }

    #[test]
    fn non_member_request_aborts() {
        let (mut arbiter, group, ..) = FloorArbiter::lecture(1, FcmMode::FreeAccess);
        let other_group = arbiter.create_group("other", FcmMode::FreeAccess);
        let outsider = arbiter
            .add_member(other_group, Member::new("outsider", Role::Participant))
            .unwrap();
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, outsider))
            .unwrap();
        assert_eq!(
            outcome,
            ArbitrationOutcome::Aborted {
                reason: AbortReason::NotJoined
            }
        );
        assert_eq!(arbiter.stats().aborted, 1);
    }

    #[test]
    fn critical_resources_abort_everything() {
        let (mut arbiter, group, teacher, _) = FloorArbiter::lecture(2, FcmMode::FreeAccess);
        arbiter.set_resource(Resource::new(0.05, 1.0, 1.0));
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, teacher))
            .unwrap();
        assert_eq!(
            outcome,
            ArbitrationOutcome::Aborted {
                reason: AbortReason::ResourceCritical
            }
        );
    }

    #[test]
    fn degraded_resources_suspend_lower_priority_members() {
        let (mut arbiter, group, teacher, students) = FloorArbiter::lecture(3, FcmMode::FreeAccess);
        arbiter.set_resource(Resource::new(0.3, 1.0, 1.0));
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, teacher))
            .unwrap();
        assert!(outcome.is_granted());
        let suspensions = outcome.suspensions();
        assert!(
            !suspensions.is_empty(),
            "students should be suspended to make room"
        );
        assert!(suspensions.iter().all(|s| s.priority < 3));
        assert!(suspensions.iter().all(|s| students.contains(&s.member)));
        let suspended: Vec<_> = arbiter.suspended_members().collect();
        assert_eq!(suspended.len(), suspensions.len());
        // Recovery clears the suspensions.
        arbiter.set_resource(Resource::full());
        assert_eq!(arbiter.suspended_members().count(), 0);
    }

    #[test]
    fn student_request_in_degraded_mode_cannot_suspend_the_teacher() {
        let (mut arbiter, group, teacher, students) = FloorArbiter::lecture(2, FcmMode::FreeAccess);
        arbiter.set_resource(Resource::new(0.3, 1.0, 1.0));
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(group, students[0]))
            .unwrap();
        assert!(outcome.is_granted());
        assert!(
            outcome.suspensions().iter().all(|s| s.member != teacher),
            "the chair outranks participants"
        );
    }

    #[test]
    fn group_discussion_grants_all_qualified_subgroup_members() {
        let (mut arbiter, group, teacher, students) = FloorArbiter::lecture(3, FcmMode::FreeAccess);
        let (sub, inv) = arbiter
            .invite(group, students[0], students[1], FcmMode::GroupDiscussion)
            .unwrap();
        assert_eq!(
            arbiter.respond_invitation(inv, students[1], true).unwrap(),
            InvitationStatus::Accepted
        );
        let outcome = arbiter
            .arbitrate(&FloorRequest::speak(sub, students[0]))
            .unwrap();
        match outcome {
            ArbitrationOutcome::Granted { speakers, .. } => {
                assert_eq!(speakers.len(), 2);
                assert!(speakers.contains(&students[0]));
                assert!(speakers.contains(&students[1]));
                assert!(!speakers.contains(&teacher));
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(arbiter.group(sub).unwrap().is_subgroup());
        assert_eq!(arbiter.group(sub).unwrap().chair, Some(students[0]));
    }

    #[test]
    fn declined_invitation_does_not_join() {
        let (mut arbiter, group, _teacher, students) =
            FloorArbiter::lecture(2, FcmMode::FreeAccess);
        let (sub, inv) = arbiter
            .invite(group, students[0], students[1], FcmMode::GroupDiscussion)
            .unwrap();
        assert_eq!(
            arbiter.respond_invitation(inv, students[1], false).unwrap(),
            InvitationStatus::Declined
        );
        assert!(!arbiter.group(sub).unwrap().contains(students[1]));
        // Answering twice is an error, as is answering someone else's invite.
        assert_eq!(
            arbiter
                .respond_invitation(inv, students[1], true)
                .unwrap_err(),
            FloorError::AlreadyAnswered(inv)
        );
        let (_, inv2) = arbiter
            .invite(group, students[0], students[1], FcmMode::GroupDiscussion)
            .unwrap();
        assert_eq!(
            arbiter
                .respond_invitation(inv2, students[0], true)
                .unwrap_err(),
            FloorError::NotTheInvitee(students[0])
        );
        assert!(arbiter.invitation(inv2).unwrap().is_pending());
    }

    #[test]
    fn direct_contact_grants_exactly_the_pair() {
        let (mut arbiter, group, _teacher, students) =
            FloorArbiter::lecture(3, FcmMode::FreeAccess);
        let (sub, inv) = arbiter
            .invite(group, students[0], students[2], FcmMode::DirectContact)
            .unwrap();
        arbiter.respond_invitation(inv, students[2], true).unwrap();
        let outcome = arbiter
            .arbitrate(&FloorRequest::direct_contact(sub, students[0], students[2]))
            .unwrap();
        match outcome {
            ArbitrationOutcome::Granted { speakers, .. } => {
                assert_eq!(speakers, vec![students[0], students[2]]);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        // Speak without a destination is an API misuse error.
        assert_eq!(
            arbiter
                .arbitrate(&FloorRequest::speak(sub, students[0]))
                .unwrap_err(),
            FloorError::MissingDestination
        );
        // Direct contact with somebody outside the sub-group aborts.
        let outcome = arbiter
            .arbitrate(&FloorRequest::direct_contact(sub, students[0], students[1]))
            .unwrap();
        assert_eq!(
            outcome,
            ArbitrationOutcome::Aborted {
                reason: AbortReason::NotJoined
            }
        );
    }

    #[test]
    fn invite_requires_both_parties_in_parent_group() {
        let (mut arbiter, group, _teacher, students) =
            FloorArbiter::lecture(1, FcmMode::FreeAccess);
        let other = arbiter.create_group("other", FcmMode::FreeAccess);
        let stranger = arbiter
            .add_member(other, Member::new("stranger", Role::Participant))
            .unwrap();
        assert!(matches!(
            arbiter.invite(group, students[0], stranger, FcmMode::GroupDiscussion),
            Err(FloorError::NotAMember { .. })
        ));
        assert!(matches!(
            arbiter.invite(group, stranger, students[0], FcmMode::GroupDiscussion),
            Err(FloorError::NotAMember { .. })
        ));
    }

    #[test]
    fn leaving_a_group_releases_the_token() {
        let (mut arbiter, group, _teacher, students) =
            FloorArbiter::lecture(2, FcmMode::EqualControl);
        arbiter
            .arbitrate(&FloorRequest::speak(group, students[0]))
            .unwrap();
        arbiter
            .arbitrate(&FloorRequest::speak(group, students[1]))
            .unwrap();
        arbiter.leave_group(group, students[0]).unwrap();
        assert!(!arbiter.group(group).unwrap().contains(students[0]));
        assert!(arbiter.token(group).unwrap().may_speak(students[1]));
    }

    #[test]
    fn failed_add_member_leaves_state_untouched() {
        let mut arbiter = FloorArbiter::with_defaults();
        let before = arbiter.member_count();
        assert_eq!(
            arbiter
                .add_member(GroupId(7), Member::new("ghost", Role::Participant))
                .unwrap_err(),
            FloorError::UnknownGroup(GroupId(7))
        );
        assert_eq!(
            arbiter.member_count(),
            before,
            "a rejected add must not consume a dense member id (log-replay determinism)"
        );
    }

    #[test]
    fn export_and_restore_move_live_token_state_between_arbiters() {
        let (mut source, group, teacher, students) =
            FloorArbiter::lecture(3, FcmMode::EqualControl);
        source
            .arbitrate(&FloorRequest::speak(group, students[0]))
            .unwrap();
        source
            .arbitrate(&FloorRequest::speak(group, students[1]))
            .unwrap();
        source
            .arbitrate(&FloorRequest::speak(group, teacher))
            .unwrap();
        let export = source.export_group_floor(group).unwrap();
        assert_eq!(export.mode, FcmMode::EqualControl);
        assert_eq!(export.members.len(), 4);
        assert_eq!(export.chair, Some(teacher));
        assert_eq!(export.token.holder(), Some(students[0]));
        assert_eq!(
            export.token.queue().collect::<Vec<_>>(),
            vec![students[1], teacher]
        );
        assert!(source.export_group_floor(GroupId(9)).is_err());
        // A destination arbiter recreates the group and installs the token
        // mid-arbitration: holder, queue order and fairness counter survive.
        let mut destination = FloorArbiter::with_defaults();
        let new_group = destination.create_group(&export.name, export.mode);
        for m in 0..4 {
            destination
                .add_member(new_group, Member::new(format!("m{m}"), Role::Participant))
                .unwrap();
        }
        destination
            .restore_token(new_group, export.token.clone())
            .unwrap();
        destination.check_invariants().unwrap();
        let token = destination.token(new_group).unwrap();
        assert_eq!(token.holder(), Some(students[0]));
        assert_eq!(token.grant_count(), export.token.grant_count());
        // The queued member is promoted when the migrated holder releases —
        // arbitration continues exactly where the source stopped.
        let next = destination
            .arbitrate(&FloorRequest::release_floor(new_group, students[0]))
            .unwrap();
        assert!(
            matches!(next, ArbitrationOutcome::Granted { ref speakers, .. }
            if *speakers == vec![students[1]])
        );
    }

    #[test]
    fn restore_token_rejects_unsound_imports() {
        let (mut arbiter, group, _teacher, students) =
            FloorArbiter::lecture(2, FcmMode::EqualControl);
        let before = arbiter.token(group).unwrap().clone();
        // A holder outside the group.
        assert!(matches!(
            arbiter.restore_token(group, FloorToken::from_parts(Some(MemberId(42)), [], 1)),
            Err(FloorError::NotAMember { .. })
        ));
        // A queued member outside the group.
        assert!(matches!(
            arbiter.restore_token(
                group,
                FloorToken::from_parts(Some(students[0]), [MemberId(42)], 1)
            ),
            Err(FloorError::NotAMember { .. })
        ));
        // The holder also queued.
        assert!(matches!(
            arbiter.restore_token(
                group,
                FloorToken::from_parts(Some(students[0]), [students[0]], 1)
            ),
            Err(FloorError::CorruptSnapshot(_))
        ));
        // A duplicated queue entry.
        assert!(matches!(
            arbiter.restore_token(
                group,
                FloorToken::from_parts(None, [students[1], students[1]], 1)
            ),
            Err(FloorError::CorruptSnapshot(_))
        ));
        // An unknown group.
        assert!(arbiter
            .restore_token(GroupId(9), FloorToken::new())
            .is_err());
        // Every rejected restore left the live token untouched.
        assert_eq!(arbiter.token(group).unwrap(), &before);
        arbiter.check_invariants().unwrap();
    }

    #[test]
    fn restore_chair_reseats_only_members() {
        let (mut arbiter, group, teacher, students) = FloorArbiter::lecture(2, FcmMode::FreeAccess);
        assert_eq!(arbiter.group(group).unwrap().chair, Some(teacher));
        // Any member may be re-seated (sub-groups are chaired by their
        // inviter regardless of role), and `None` clears the seat.
        arbiter.restore_chair(group, Some(students[1])).unwrap();
        assert_eq!(arbiter.group(group).unwrap().chair, Some(students[1]));
        arbiter.restore_chair(group, None).unwrap();
        assert_eq!(arbiter.group(group).unwrap().chair, None);
        // A non-member or unknown group is rejected without touching state.
        assert!(matches!(
            arbiter.restore_chair(group, Some(MemberId(42))),
            Err(FloorError::NotAMember { .. })
        ));
        assert!(arbiter.restore_chair(GroupId(9), None).is_err());
        assert_eq!(arbiter.group(group).unwrap().chair, None);
    }

    #[test]
    fn counts_and_accessors() {
        let (arbiter, group, teacher, students) = FloorArbiter::lecture(5, FcmMode::FreeAccess);
        assert_eq!(arbiter.group_count(), 1);
        assert_eq!(arbiter.member_count(), 6);
        assert_eq!(arbiter.group(group).unwrap().len(), 6);
        assert_eq!(arbiter.group(group).unwrap().chair, Some(teacher));
        assert_eq!(arbiter.member(students[4]).unwrap().name, "student-4");
        assert!(arbiter.member(MemberId(99)).is_err());
        assert!(arbiter.group(GroupId(99)).is_err());
        assert!(arbiter.thresholds().alpha() > arbiter.thresholds().beta());
        assert_eq!(arbiter.resource(), Resource::full());
    }
}
