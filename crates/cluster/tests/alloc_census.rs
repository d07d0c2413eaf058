//! Allocation census of the streamed floor path.
//!
//! A counting global allocator (a thin wrapper over the system allocator)
//! counts every heap allocation the process makes while a gateway streams
//! single `submit` + `recv_decision` round trips through a warmed-up
//! cluster. What a floor request may still allocate is its decision: the
//! outcome `Arc` every decision shares with the dedup journal, plus the
//! `Granted` speakers `Vec` on a Speak. Cloning the group or member inside
//! arbitration, or a reply `Vec` per released batch, pushes the count past
//! the bound below.
//!
//! This binary holds exactly one test, so no other test thread allocates
//! while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmps_cluster::{
    Cluster, ClusterConfig, Gateway, GlobalGroupId, GlobalMemberId, GlobalRequest, SessionOp,
};
use dmps_floor::{FcmMode, Member, Role};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the wrapper only
// bumps a counter on the allocating entry points.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound on allocations per streamed op.
const MAX_PER_OP: f64 = 2.0;

const GROUPS: usize = 64;
const MEMBERS: usize = 4;
/// Rounds per measurement; each round sends a few ops to every group.
const ROUNDS: usize = 32;

/// Equal Control classrooms on two shards, checkpoints off so no
/// checkpoint's encoding lands inside a measurement.
fn classrooms() -> (Cluster, Vec<(GlobalGroupId, Vec<GlobalMemberId>)>) {
    let cluster = Cluster::new(ClusterConfig {
        snapshot_every: 0,
        snapshot_every_bytes: 0,
        ..ClusterConfig::with_shards(2)
    });
    let rooms = (0..GROUPS)
        .map(|g| {
            let group = cluster
                .create_group(format!("room-{g}"), FcmMode::EqualControl)
                .unwrap();
            let members = (0..MEMBERS)
                .map(|m| {
                    let member = cluster.register_member(Member::new(format!("m{m}"), Role::Chair));
                    cluster.join_group(group, member).unwrap();
                    member
                })
                .collect();
            (group, members)
        })
        .collect();
    (cluster, rooms)
}

/// One streamed floor request: submit, then wait for its decision.
fn floor(gateway: &Gateway, request: GlobalRequest) {
    let seq = gateway.submit(request).unwrap();
    let decision = gateway.recv_decision().unwrap();
    assert_eq!(decision.seq, seq);
    assert!(decision.outcome.unwrap().is_granted());
}

/// Every room's next speaker takes the floor, optionally chats, and
/// releases it. Returns the number of ops sent.
fn round(
    gateway: &Gateway,
    rooms: &[(GlobalGroupId, Vec<GlobalMemberId>)],
    turn: usize,
    line: Option<&Arc<str>>,
) -> u64 {
    let mut ops = 0;
    for (group, members) in rooms {
        let speaker = members[turn % members.len()];
        floor(gateway, GlobalRequest::speak(*group, speaker));
        if let Some(line) = line {
            let seq = gateway
                .submit_session(SessionOp::chat(*group, speaker, Arc::clone(line)))
                .unwrap();
            let decision = gateway.recv_session_decision().unwrap();
            assert_eq!(decision.seq, seq);
            assert!(decision.outcome.unwrap().is_delivered());
            ops += 1;
        }
        floor(gateway, GlobalRequest::release_floor(*group, speaker));
        ops += 2;
    }
    ops
}

/// Allocations per op over `ROUNDS` rounds.
fn per_op(
    gateway: &Gateway,
    rooms: &[(GlobalGroupId, Vec<GlobalMemberId>)],
    line: Option<&Arc<str>>,
) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ops: u64 = (0..ROUNDS)
        .map(|turn| round(gateway, rooms, turn, line))
        .sum();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    allocations as f64 / ops as f64
}

#[test]
fn a_streamed_floor_request_allocates_at_most_its_decision() {
    let (cluster, rooms) = classrooms();
    let gateway = cluster.gateway();
    let line: Arc<str> = Arc::from("a question from the back row");
    // Warm up: every dedup window fills past its capacity and starts
    // evicting, every queue, lane and table reaches its working size.
    let warm = ClusterConfig::with_shards(2).dedup_window * 4;
    let mut sent = 0;
    for turn in 0.. {
        if sent > warm as u64 {
            break;
        }
        sent += round(&gateway, &rooms, turn, Some(&line));
    }

    let floor_only = per_op(&gateway, &rooms, None);
    let mixed = per_op(&gateway, &rooms, Some(&line));
    println!("allocations per op: floor {floor_only:.2}, mixed {mixed:.2}");
    assert!(
        floor_only <= MAX_PER_OP,
        "a streamed floor request allocates {floor_only:.2} times (bound {MAX_PER_OP})"
    );
    assert!(
        mixed <= MAX_PER_OP,
        "a mixed floor/chat op allocates {mixed:.2} times (bound {MAX_PER_OP})"
    );
    cluster.check_invariants().unwrap();
}
