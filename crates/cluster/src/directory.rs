//! The shared, read-mostly cluster directory.
//!
//! The [`Directory`] holds everything the old single-threaded `Cluster`
//! router kept behind one `&mut self`: group placements, member records, the
//! reverse (shard, local id) → global id map, invitations, the consistent-hash
//! ring and the id counters. It is designed so the hot ingest path — routing a
//! floor request to its owning shard — takes `&self` and contends only on a
//! striped read lock:
//!
//! * Placements and member records live in dense tables split into
//!   `STRIPES` stripes, each behind its own [`RwLock`]. The ids are the
//!   directory's own counters, so an id's stripe is `id % STRIPES` and its
//!   slot `id / STRIPES`: a lookup is two index operations under one read
//!   lock, not a tree walk, and consecutive ids land on different stripes,
//!   so concurrent gateways routing different groups almost never touch the
//!   same lock. A member's shard-local ids are a vector indexed by shard.
//!   Routing itself only ever takes *read* locks.
//! * The reverse (shard, local id) → global id map, off the ingest path, is
//!   split into `STRIPES` ordered maps, picked by the splitmix64 hash the
//!   ring uses.
//! * Id allocation is a handful of atomics, so `register_member`,
//!   `create_group` and request-id allocation never serialize behind a map
//!   lock.
//! * Invitations and the ring are whole-structure `RwLock`s: both are
//!   read-mostly and far off the ingest hot path.
//!
//! Writer discipline: the only lock ever held across a shard round-trip is
//! the *member* stripe of the member being instantiated (see
//! `Core::ensure_on_shard`), which is what makes lazy member instantiation
//! race-free; stepping a shard — on its worker thread or inline on a
//! caller's — never takes directory locks, so no lock cycle can form.
//!
//! The directory is populated through the cluster's control plane and read
//! through its lookup API:
//!
//! ```
//! use dmps_cluster::{Cluster, ClusterConfig};
//! use dmps_floor::{FcmMode, Member, Role};
//!
//! let cluster = Cluster::new(ClusterConfig::with_shards(4));
//! let g = cluster.create_group("lecture", FcmMode::FreeAccess).unwrap();
//! let m = cluster.register_member(Member::new("t", Role::Chair));
//! cluster.join_group(g, m).unwrap();
//! // Placement: which shard owns the group, and its dense local id there.
//! let placement = cluster.placement(g).unwrap();
//! // Member translation: global id → the shard's dense id and back.
//! let local = cluster.local_member(m, placement.shard).unwrap();
//! assert_eq!(cluster.global_member(placement.shard, local), Some(m));
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use dmps_floor::{InvitationStatus, Member, MemberId};

use crate::error::{ClusterError, Result};
use crate::poison::{read, write};
use crate::ring::{mix64, HashRing, ShardId};
use crate::shard::{GlobalGroupId, GlobalMemberId};

/// Number of lock stripes for the placement/membership tables. A small power
/// of two well above any realistic gateway count keeps write collisions rare
/// without bloating the struct.
pub(crate) const STRIPES: usize = 16;

/// Where a group currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPlacement {
    /// The owning shard.
    pub shard: ShardId,
    /// The group's dense id inside that shard's arbiter.
    pub local: dmps_floor::GroupId,
    /// The parent group for sub-groups spawned by invitation (may live on a
    /// different shard — that is the point of cross-shard invitations).
    pub parent: Option<GlobalGroupId>,
}

/// A member's directory record: its template plus its dense id on every shard
/// it has been instantiated on.
#[derive(Debug, Clone)]
pub(crate) struct MemberRecord {
    pub(crate) template: Member,
    /// Indexed by shard; `None` where the member is not instantiated.
    locals: Vec<Option<MemberId>>,
}

impl MemberRecord {
    /// The member's dense id on `shard`, if instantiated there.
    pub(crate) fn local(&self, shard: ShardId) -> Option<MemberId> {
        self.locals.get(shard.0).copied().flatten()
    }

    /// Records the member's dense id on `shard`.
    pub(crate) fn set_local(&mut self, shard: ShardId, local: MemberId) {
        put(&mut self.locals, shard.0, local);
    }
}

/// Stores `value` at `index`, growing `slots` with empty ones as needed.
fn put<T>(slots: &mut Vec<Option<T>>, index: usize, value: T) {
    if slots.len() <= index {
        slots.resize_with(index + 1, || None);
    }
    slots[index] = Some(value);
}

/// One stripe of a dense [`Table`].
pub(crate) type Stripe<T> = RwLock<Vec<Option<T>>>;

/// A dense table keyed by an id from one of the directory's counters: the
/// id's stripe is `id % STRIPES`, its slot in the stripe `id / STRIPES`.
#[derive(Debug)]
struct Table<T> {
    stripes: Vec<Stripe<T>>,
}

/// An id's slot in its stripe.
fn slot(id: u64) -> usize {
    (id / STRIPES as u64) as usize
}

/// The entry in an id's stripe, if present.
pub(crate) fn entry<T>(stripe: &[Option<T>], id: u64) -> Option<&T> {
    stripe.get(slot(id))?.as_ref()
}

/// The entry in an id's write-locked stripe, if present.
pub(crate) fn entry_mut<T>(stripe: &mut [Option<T>], id: u64) -> Option<&mut T> {
    stripe.get_mut(slot(id))?.as_mut()
}

impl<T> Table<T> {
    fn new() -> Self {
        Table {
            stripes: (0..STRIPES).map(|_| RwLock::new(Vec::new())).collect(),
        }
    }

    fn stripe(&self, id: u64) -> &Stripe<T> {
        &self.stripes[(id % STRIPES as u64) as usize]
    }

    fn insert(&self, id: u64, value: T) {
        put(&mut write(self.stripe(id)), slot(id), value);
    }

    fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| read(s).iter().flatten().count())
            .sum()
    }

    /// `f` of every entry, filtered, in id order: a point-in-time copy
    /// taken under every stripe's read lock.
    fn collect<R>(&self, mut f: impl FnMut(u64, &T) -> Option<R>) -> Vec<R> {
        let stripes: Vec<_> = self.stripes.iter().map(|s| read(s)).collect();
        let slots = stripes.iter().map(|s| s.len()).max().unwrap_or(0);
        (0..(slots * STRIPES) as u64)
            .filter_map(|id| f(id, entry(&stripes[(id % STRIPES as u64) as usize], id)?))
            .collect()
    }
}

/// A cluster-level invitation (parent and sub-group may be on different
/// shards).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInvitation {
    /// The inviting member.
    pub from: GlobalMemberId,
    /// The invited member.
    pub to: GlobalMemberId,
    /// The sub-group spawned for the invitation.
    pub subgroup: GlobalGroupId,
    /// Current status.
    pub status: InvitationStatus,
}

fn stripe_of(key: u64) -> usize {
    (mix64(key) % STRIPES as u64) as usize
}

/// The sharded, read-mostly directory of the cluster control plane.
#[derive(Debug)]
pub struct Directory {
    ring: RwLock<HashRing>,
    groups: Table<GroupPlacement>,
    members: Table<MemberRecord>,
    /// Reverse directory: which global member a shard-local id belongs to.
    locals: Vec<RwLock<BTreeMap<(ShardId, MemberId), GlobalMemberId>>>,
    invitations: RwLock<Vec<ClusterInvitation>>,
    next_group: AtomicU64,
    next_member: AtomicU64,
    next_seq: AtomicU64,
    /// Monotone ticket behind the follower-read round-robin: each bounded
    /// read takes one to spread load over a shard's replica fleet.
    next_read: AtomicU64,
}

impl Directory {
    /// A fresh directory over the given ring.
    pub(crate) fn new(ring: HashRing) -> Self {
        Directory {
            ring: RwLock::new(ring),
            groups: Table::new(),
            members: Table::new(),
            locals: (0..STRIPES).map(|_| RwLock::new(BTreeMap::new())).collect(),
            invitations: RwLock::new(Vec::new()),
            next_group: AtomicU64::new(0),
            next_member: AtomicU64::new(0),
            next_seq: AtomicU64::new(0),
            next_read: AtomicU64::new(0),
        }
    }

    // ----- id allocation ----------------------------------------------------

    pub(crate) fn alloc_group(&self) -> u64 {
        self.next_group.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn alloc_member(&self) -> u64 {
        self.next_member.fetch_add(1, Ordering::Relaxed)
    }

    /// Leases a contiguous block of `n` cluster-unique request ids (the
    /// idempotency keys the shard dedup windows are keyed by) with one atomic
    /// operation, returning the first id of the block.
    ///
    /// This is what keeps id allocation off the ingest hot path: each
    /// gateway leases a block and hands out ids locally, and a batched
    /// submission leases exactly one block for the whole batch —
    /// instead of every request in the cluster hammering this one shared
    /// counter. Ids within a block are monotone, so a single gateway's
    /// request ids remain in submission order; unused tail ids of a lease
    /// are simply never observed (uniqueness, not density, is the
    /// contract).
    pub(crate) fn alloc_seq_block(&self, n: u64) -> u64 {
        self.next_seq.fetch_add(n, Ordering::Relaxed)
    }

    /// One follower-read round-robin ticket (modulo the fleet size at the
    /// call site — fleets can differ per shard).
    pub(crate) fn read_ticket(&self) -> u64 {
        self.next_read.fetch_add(1, Ordering::Relaxed)
    }

    // ----- ring -------------------------------------------------------------

    /// The shard the ring places a key on.
    pub fn shard_for(&self, key: u64) -> ShardId {
        read(&self.ring).shard_for(key)
    }

    /// Grows the ring by one shard and returns the new shard's id.
    pub(crate) fn grow_ring(&self) -> ShardId {
        write(&self.ring).add_shard()
    }

    // ----- groups -----------------------------------------------------------

    /// Where a group currently lives.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownGroup`] for an unknown id.
    pub fn placement(&self, group: GlobalGroupId) -> Result<GroupPlacement> {
        entry(&read(self.groups.stripe(group.0)), group.0)
            .copied()
            .ok_or(ClusterError::UnknownGroup(group))
    }

    /// Records (or moves) a group's placement.
    pub(crate) fn place_group(&self, group: GlobalGroupId, placement: GroupPlacement) {
        self.groups.insert(group.0, placement);
    }

    /// Number of groups in the directory.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Every group owned by a shard.
    pub fn groups_on(&self, shard: ShardId) -> Vec<GlobalGroupId> {
        self.groups
            .collect(|g, p| (p.shard == shard).then_some(GlobalGroupId(g)))
    }

    /// A point-in-time copy of every placement, sorted by group id.
    pub(crate) fn placements_snapshot(&self) -> Vec<(GlobalGroupId, GroupPlacement)> {
        self.groups.collect(|g, &p| Some((GlobalGroupId(g), p)))
    }

    // ----- members ----------------------------------------------------------

    /// The stripe holding a member's record (see [`entry_mut`]).
    pub(crate) fn member_stripe(&self, id: GlobalMemberId) -> &Stripe<MemberRecord> {
        self.members.stripe(id.0)
    }

    /// Registers a member, returning its new global id.
    pub(crate) fn register_member(&self, template: Member) -> GlobalMemberId {
        let id = GlobalMemberId(self.alloc_member());
        let record = MemberRecord {
            template,
            locals: Vec::new(),
        };
        self.members.insert(id.0, record);
        id
    }

    /// Number of registered members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Runs `f` with a member's record.
    fn with_member<R>(
        &self,
        member: GlobalMemberId,
        f: impl FnOnce(&MemberRecord) -> R,
    ) -> Result<R> {
        entry(&read(self.member_stripe(member)), member.0)
            .map(f)
            .ok_or(ClusterError::UnknownMember(member))
    }

    /// The member's display name (from its template).
    pub(crate) fn member_name(&self, member: GlobalMemberId) -> Result<String> {
        self.with_member(member, |r| r.template.name.clone())
    }

    /// The member's dense id on a shard, if instantiated there.
    pub fn local_member(&self, member: GlobalMemberId, shard: ShardId) -> Result<MemberId> {
        self.with_member(member, |r| r.local(shard))?
            .ok_or(ClusterError::NotOnShard { member, shard })
    }

    /// A point-in-time copy of every member's shard-local ids.
    pub(crate) fn members_snapshot(&self) -> Vec<(GlobalMemberId, Vec<(ShardId, MemberId)>)> {
        self.members.collect(|m, r| {
            let locals = r.locals.iter().enumerate();
            let locals = locals.filter_map(|(s, l)| l.map(|l| (ShardId(s), l)));
            Some((GlobalMemberId(m), locals.collect()))
        })
    }

    // ----- reverse directory ------------------------------------------------

    fn locals_stripe(
        &self,
        shard: ShardId,
        local: MemberId,
    ) -> &RwLock<BTreeMap<(ShardId, MemberId), GlobalMemberId>> {
        &self.locals[stripe_of(((shard.0 as u64) << 32) ^ local.0 as u64)]
    }

    /// Records that `local` on `shard` is the instantiation of `member`.
    pub(crate) fn record_local(&self, shard: ShardId, local: MemberId, member: GlobalMemberId) {
        write(self.locals_stripe(shard, local)).insert((shard, local), member);
    }

    /// The global member a shard-local id belongs to.
    pub fn global_of(&self, shard: ShardId, local: MemberId) -> Option<GlobalMemberId> {
        read(self.locals_stripe(shard, local))
            .get(&(shard, local))
            .copied()
    }

    // ----- invitations ------------------------------------------------------

    /// The cluster-level invitation with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownInvitation`] for an unknown id.
    pub fn invitation(&self, id: u64) -> Result<ClusterInvitation> {
        read(&self.invitations)
            .get(id as usize)
            .cloned()
            .ok_or(ClusterError::UnknownInvitation(id))
    }

    pub(crate) fn push_invitation(&self, invitation: ClusterInvitation) -> u64 {
        let mut guard = write(&self.invitations);
        guard.push(invitation);
        guard.len() as u64 - 1
    }

    pub(crate) fn with_invitations_mut<R>(
        &self,
        f: impl FnOnce(&mut Vec<ClusterInvitation>) -> R,
    ) -> R {
        f(&mut write(&self.invitations))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmps_floor::Role;

    #[test]
    fn ids_are_unique_under_concurrent_allocation() {
        let dir = std::sync::Arc::new(Directory::new(HashRing::new(4, 16)));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let dir = dir.clone();
            handles.push(std::thread::spawn(move || {
                (0..500)
                    .map(|_| dir.register_member(Member::new("m", Role::Participant)))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<GlobalMemberId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2_000, "every allocation got a distinct id");
        assert_eq!(dir.member_count(), 2_000);
    }

    #[test]
    fn placement_round_trips_across_stripes() {
        let dir = Directory::new(HashRing::new(2, 16));
        for i in 0..200 {
            let g = GlobalGroupId(i);
            let p = GroupPlacement {
                shard: dir.shard_for(i),
                local: dmps_floor::GroupId(i as usize),
                parent: None,
            };
            dir.place_group(g, p);
            assert_eq!(dir.placement(g).unwrap(), p);
        }
        assert_eq!(dir.group_count(), 200);
        assert!(matches!(
            dir.placement(GlobalGroupId(999)),
            Err(ClusterError::UnknownGroup(_))
        ));
        let snapshot = dir.placements_snapshot();
        assert_eq!(snapshot.len(), 200);
        assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn reverse_directory_tracks_instantiations() {
        let dir = Directory::new(HashRing::new(2, 16));
        let m = dir.register_member(Member::new("alice", Role::Chair));
        dir.record_local(ShardId(1), MemberId(7), m);
        assert_eq!(dir.global_of(ShardId(1), MemberId(7)), Some(m));
        assert_eq!(dir.global_of(ShardId(0), MemberId(7)), None);
        assert_eq!(dir.member_name(m).unwrap(), "alice");
    }

    /// Instantiates `member` as `local` on `shard` the way
    /// `Core::ensure_on_shard` does: reverse mapping first, then the record.
    fn instantiate(dir: &Directory, member: GlobalMemberId, shard: ShardId, local: MemberId) {
        dir.record_local(shard, local, member);
        let mut stripe = write(dir.member_stripe(member));
        entry_mut(&mut stripe, member.0)
            .expect("registered")
            .set_local(shard, local);
    }

    /// The dense tables against plain ordered maps: ids out of order, with
    /// gaps, across stripes and past the end of a stripe; placements moved;
    /// members instantiated on shards the ring grew to after their record
    /// was made.
    #[test]
    fn dense_tables_answer_like_ordered_maps() {
        let dir = Directory::new(HashRing::new(2, 16));
        let mut groups: BTreeMap<GlobalGroupId, GroupPlacement> = BTreeMap::new();
        let placed = |shard: usize, local: usize| GroupPlacement {
            shard: ShardId(shard),
            local: dmps_floor::GroupId(local),
            parent: None,
        };
        for (i, id) in [0, 17, 5, 40, 3, 16, 33, 1].into_iter().enumerate() {
            let p = placed(id as usize % 3, i);
            dir.place_group(GlobalGroupId(id), p);
            groups.insert(GlobalGroupId(id), p);
        }
        // A move (a handoff's commit) replaces the placement in place.
        for id in [17, 0] {
            let p = placed(2, 99);
            dir.place_group(GlobalGroupId(id), p);
            groups.insert(GlobalGroupId(id), p);
        }

        let mut members: BTreeMap<GlobalMemberId, BTreeMap<ShardId, MemberId>> = BTreeMap::new();
        for _ in 0..40 {
            let m = dir.register_member(Member::new("m", Role::Participant));
            members.insert(m, BTreeMap::new());
        }
        while dir.grow_ring().0 < 6 {}
        // Members spread over the shards by a fixed stride; shard 6 lies
        // past every record's locals at the time it is recorded.
        for (k, (&m, locals)) in members.iter_mut().enumerate() {
            for shard in [k % 3, 6 - k % 2, k % 7] {
                let local = MemberId(k * 10 + shard);
                instantiate(&dir, m, ShardId(shard), local);
                locals.insert(ShardId(shard), local);
            }
        }

        for (&g, &p) in &groups {
            assert_eq!(dir.placement(g).unwrap(), p);
        }
        assert_eq!(dir.group_count(), groups.len());
        let want: Vec<_> = groups.iter().map(|(&g, &p)| (g, p)).collect();
        assert_eq!(dir.placements_snapshot(), want, "sorted by group id");
        for shard in 0..7 {
            let on: Vec<_> = groups
                .iter()
                .filter(|(_, p)| p.shard == ShardId(shard))
                .map(|(&g, _)| g)
                .collect();
            assert_eq!(dir.groups_on(ShardId(shard)), on);
        }

        assert_eq!(dir.member_count(), members.len());
        let want: Vec<_> = members
            .iter()
            .map(|(&m, locals)| (m, locals.iter().map(|(&s, &l)| (s, l)).collect()))
            .collect::<Vec<(GlobalMemberId, Vec<(ShardId, MemberId)>)>>();
        assert_eq!(dir.members_snapshot(), want, "sorted by member, then shard");
        for (&m, locals) in &members {
            for shard in (0..8).map(ShardId) {
                match locals.get(&shard) {
                    Some(&local) => {
                        assert_eq!(dir.local_member(m, shard).unwrap(), local);
                        assert_eq!(dir.global_of(shard, local), Some(m));
                    }
                    None => assert_eq!(
                        dir.local_member(m, shard),
                        Err(ClusterError::NotOnShard { member: m, shard })
                    ),
                }
            }
        }

        // Unknown ids: in a gap, past a stripe's end, and at the far end of
        // the id space.
        for id in [2, 41, 1 << 40, u64::MAX] {
            assert_eq!(
                dir.placement(GlobalGroupId(id)),
                Err(ClusterError::UnknownGroup(GlobalGroupId(id)))
            );
        }
        for id in [40, 1 << 40, u64::MAX] {
            let m = GlobalMemberId(id);
            assert_eq!(
                dir.local_member(m, ShardId(0)),
                Err(ClusterError::UnknownMember(m))
            );
            assert_eq!(dir.member_name(m), Err(ClusterError::UnknownMember(m)));
        }
    }
}
