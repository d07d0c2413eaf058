//! Bounded MPSC command queues: the backpressure layer between gateways and
//! shard pipelines. A pre-allocated ring buffer (a `VecDeque` that never
//! grows past its configured capacity on the ingest path) with a
//! configurable [`OverloadPolicy`]:
//!
//! * [`OverloadPolicy::Block`] — the submitting thread waits for space.
//!   Lossless: under a storm, ingest throttles to the speed the shards
//!   actually drain, and memory stays bounded.
//! * [`OverloadPolicy::Shed`] — the push fails immediately and the routing
//!   layer answers the submission with
//!   [`ClusterError::Overloaded`](crate::ClusterError::Overloaded) on the
//!   submitting gateway's decision stream. Nothing is ever dropped
//!   *silently*: a shed request is answered, and a later
//!   [`Gateway::resubmit`](crate::Gateway::resubmit) under the same request
//!   id is exactly-once thanks to the shard dedup window.
//!
//! Only ingest commands (floor requests and session operations) count
//! against the capacity. Control-plane commands — crash/recover, handoff
//! phases, inspection closures — are **exempt**: they are rare, they must
//! not deadlock a coordinator that pushes while holding routing locks, and a
//! live handoff has to be able to freeze and export a group even while its
//! shard's ingest queue is saturated.
//!
//! Whoever steps the shard (see the `worker` module) takes commands with
//! `Queue::drain_into`, a batch at a time; the worker thread parks in the
//! non-popping `Queue::wait` until something is queued.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

use crate::poison::{lock, wait};

/// What a producer does when a shard's ingest queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Wait for space: lossless backpressure — a storm throttles the
    /// submitters instead of growing memory.
    #[default]
    Block,
    /// Fail fast: the submission is answered with
    /// [`ClusterError::Overloaded`](crate::ClusterError::Overloaded) and the
    /// caller retries under the same request id when it chooses to.
    Shed,
}

/// A point-in-time view of one shard queue's occupancy, for tests, benches
/// and operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// The configured ingest capacity (`usize::MAX` when unbounded).
    pub capacity: usize,
    /// Ingest commands queued right now.
    pub queued: usize,
    /// The highest ingest occupancy observed since the queue was created or
    /// the peak was last reset
    /// ([`Cluster::reset_queue_peak`](crate::Cluster::reset_queue_peak)) —
    /// under a [`OverloadPolicy::Shed`] storm this stays ≤ `capacity`, which
    /// is the memory bound the policy exists to enforce. Resetting gives
    /// long-lived clusters per-window peaks instead of one all-time
    /// high-water mark.
    pub peak_queued: usize,
}

struct State<T> {
    /// Queued commands; the flag marks entries that count against
    /// `capacity` (ingest) as opposed to exempt control commands.
    buf: VecDeque<(T, bool)>,
    /// Ingest commands currently queued.
    bounded: usize,
    /// High-water mark of `bounded`.
    peak: usize,
    /// Set by [`Queue::close`]: the waiter exits once the queue is empty.
    closed: bool,
    /// Set by [`Queue::kick`]: the next [`Queue::wait`] returns even on an
    /// empty queue.
    kicked: bool,
    /// Whether the consumer is parked on `not_empty`. Producers only pay
    /// the wake syscall when somebody is actually waiting — the difference
    /// between a lock-free-channel-class hot path and a futex storm.
    waiting: bool,
    /// Producers parked on `not_full` (under `Block` at capacity).
    senders_waiting: usize,
}

/// A bounded MPSC command queue, shared by its producers (the routing
/// layer) and its consumers (whoever steps the shard), and closed by its
/// owner.
pub(crate) struct Queue<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

// Manual impl: the queued commands themselves (which may hold closures)
// need not be `Debug` for the queue to be.
impl<T> std::fmt::Debug for Queue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Queue")
            .field("capacity", &stats.capacity)
            .field("queued", &stats.queued)
            .finish()
    }
}

impl<T> Queue<T> {
    /// Creates a bounded queue. `capacity` bounds *ingest* entries only
    /// (control entries are exempt); `0` means effectively unbounded.
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = if capacity == 0 { usize::MAX } else { capacity };
        let preallocate = capacity.min(64 * 1024) + 16;
        Queue {
            state: Mutex::new(State {
                buf: VecDeque::with_capacity(preallocate),
                bounded: 0,
                peak: 0,
                closed: false,
                kicked: false,
                waiting: false,
                senders_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a run of ingest commands with one lock acquisition (one
    /// queue reservation per shard for a vectored submission).
    ///
    /// Under [`OverloadPolicy::Block`] every command is eventually enqueued
    /// (the call waits for space as needed) and the result is empty; under
    /// [`OverloadPolicy::Shed`] the commands that found no space are handed
    /// back for the caller to answer with `Overloaded`.
    pub(crate) fn push_many(
        &self,
        values: impl IntoIterator<Item = T>,
        policy: OverloadPolicy,
    ) -> Vec<T> {
        let mut rejected = Vec::new();
        let mut state = lock(&self.state);
        for value in values {
            while state.bounded >= self.capacity && policy == OverloadPolicy::Block {
                // Let the consumer see what is queued so far, then wait for
                // space.
                if state.waiting {
                    self.not_empty.notify_one();
                }
                state.senders_waiting += 1;
                state = wait(&self.not_full, state);
                state.senders_waiting -= 1;
            }
            if state.bounded >= self.capacity {
                rejected.push(value);
                continue;
            }
            state.buf.push_back((value, true));
            state.bounded += 1;
            state.peak = state.peak.max(state.bounded);
        }
        self.wake(state);
        rejected
    }

    /// Enqueues a control-plane command. Control commands are exempt from
    /// the ingest capacity: they never block on a saturated queue and are
    /// never shed, so crash/recover/handoff/inspection cannot be starved by
    /// a data-plane storm (and a coordinator pushing while holding routing
    /// locks cannot deadlock against [`OverloadPolicy::Block`]).
    pub(crate) fn push_control(&self, value: T) {
        let mut state = lock(&self.state);
        state.buf.push_back((value, false));
        self.wake(state);
    }

    /// Wakes a parked consumer, if any, once `state` is released.
    fn wake(&self, state: std::sync::MutexGuard<'_, State<T>>) {
        let waiting = state.waiting;
        drop(state);
        if waiting {
            self.not_empty.notify_one();
        }
    }

    /// Occupancy statistics.
    pub(crate) fn stats(&self) -> QueueStats {
        let state = lock(&self.state);
        QueueStats {
            capacity: self.capacity,
            queued: state.bounded,
            peak_queued: state.peak,
        }
    }

    /// Restarts the peak-occupancy window: `peak_queued` becomes the current
    /// occupancy (not zero — entries that are still queued were necessarily
    /// observed), and grows from there.
    pub(crate) fn reset_peak(&self) {
        let mut state = lock(&self.state);
        state.peak = state.bounded;
    }

    /// Every queued entry, ingest and control alike.
    pub(crate) fn len(&self) -> usize {
        lock(&self.state).buf.len()
    }

    /// Blocks until something is queued, without taking it: `true` when an
    /// entry is waiting (or [`Queue::kick`] asked for a look), `false` once
    /// the queue is closed and empty.
    pub(crate) fn wait(&self) -> bool {
        let mut state = lock(&self.state);
        loop {
            if state.kicked || !state.buf.is_empty() {
                state.kicked = false;
                return true;
            }
            if state.closed {
                return false;
            }
            state.waiting = true;
            state = wait(&self.not_empty, state);
            state.waiting = false;
        }
    }

    /// Makes the next [`Queue::wait`] return even if nothing is queued.
    pub(crate) fn kick(&self) {
        let mut state = lock(&self.state);
        state.kicked = true;
        self.wake(state);
    }

    /// Closes the queue: once it is empty, [`Queue::wait`] returns `false`.
    pub(crate) fn close(&self) {
        let mut state = lock(&self.state);
        state.closed = true;
        self.wake(state);
    }

    /// Non-blocking: moves up to `max` queued commands into `out`, stopping
    /// early before the first one `stop` rejects, and returns the
    /// occupancy left behind.
    pub(crate) fn drain_into(
        &self,
        out: &mut VecDeque<T>,
        max: usize,
        stop: impl Fn(&T) -> bool,
    ) -> QueueStats {
        let mut state = lock(&self.state);
        let mut taken = 0;
        while taken < max {
            let Some((value, counted)) = state.buf.pop_front() else {
                break;
            };
            if stop(&value) {
                state.buf.push_front((value, counted));
                break;
            }
            if counted {
                state.bounded -= 1;
            }
            out.push_back(value);
            taken += 1;
        }
        let left = QueueStats {
            capacity: self.capacity,
            queued: state.bounded,
            peak_queued: state.peak,
        };
        let wake = taken > 0 && state.senders_waiting > 0;
        drop(state);
        if wake {
            self.not_full.notify_all();
        }
        left
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// One queue seen from both ends, as the worker pipeline sees it.
    fn bounded(capacity: usize) -> (Arc<Queue<u32>>, Arc<Queue<u32>>) {
        let queue = Arc::new(Queue::new(capacity));
        (queue.clone(), queue)
    }

    /// The scalar push and the consumer's blocking receive.
    trait Ends {
        fn push(&self, value: u32, policy: OverloadPolicy) -> Result<(), u32>;
        fn recv(&self) -> Option<u32>;
    }

    impl Ends for Queue<u32> {
        fn push(&self, value: u32, policy: OverloadPolicy) -> Result<(), u32> {
            self.push_many([value], policy).pop().map_or(Ok(()), Err)
        }

        fn recv(&self) -> Option<u32> {
            let mut out = VecDeque::new();
            while self.wait() {
                self.drain_into(&mut out, 1, |_| false);
                if let Some(value) = out.pop_front() {
                    return Some(value);
                }
            }
            None
        }
    }

    #[test]
    fn shed_fails_fast_at_capacity_and_tracks_peak() {
        let (tx, rx) = bounded(2);
        tx.push(1, OverloadPolicy::Shed).unwrap();
        tx.push(2, OverloadPolicy::Shed).unwrap();
        match tx.push(3, OverloadPolicy::Shed) {
            Err(3) => {}
            other => panic!("expected Err(3), got {other:?}"),
        }
        let stats = tx.stats();
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.peak_queued, 2);
        assert_eq!(rx.recv(), Some(1));
        // Space freed: the next shed push succeeds, peak stays at the mark.
        tx.push(4, OverloadPolicy::Shed).unwrap();
        assert_eq!(tx.stats().peak_queued, 2);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(4));
    }

    #[test]
    fn reset_peak_restarts_window_at_current_occupancy() {
        let (tx, rx) = bounded(4);
        tx.push(1, OverloadPolicy::Shed).unwrap();
        tx.push(2, OverloadPolicy::Shed).unwrap();
        tx.push(3, OverloadPolicy::Shed).unwrap();
        assert_eq!(tx.stats().peak_queued, 3);
        assert_eq!(rx.recv(), Some(1));
        // Two entries are still queued, so the new window's peak starts at
        // the current occupancy, not zero — queued entries were necessarily
        // observed inside the window.
        tx.reset_peak();
        let stats = tx.stats();
        assert_eq!(stats.queued, 2);
        assert_eq!(stats.peak_queued, 2);
        // Both ends of the channel agree on the windowed peak.
        assert_eq!(rx.stats().peak_queued, 2);
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), Some(3));
        // An idle queue restarts the window at zero, and the peak grows
        // again from there.
        tx.reset_peak();
        assert_eq!(tx.stats().peak_queued, 0);
        tx.push(4, OverloadPolicy::Shed).unwrap();
        assert_eq!(tx.stats().peak_queued, 1);
        assert_eq!(rx.recv(), Some(4));
    }

    #[test]
    fn block_waits_for_space_instead_of_failing() {
        let (tx, rx) = bounded(1);
        tx.push(1, OverloadPolicy::Block).unwrap();
        let producer = std::thread::spawn(move || {
            // Blocks until the receiver drains the first entry.
            tx.push(2, OverloadPolicy::Block).unwrap();
            tx.stats()
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Some(1));
        let stats = producer.join().unwrap();
        assert!(stats.peak_queued <= stats.capacity);
        assert_eq!(rx.recv(), Some(2));
    }

    #[test]
    fn control_pushes_are_exempt_from_the_ingest_bound() {
        let (tx, rx) = bounded(1);
        tx.push(1, OverloadPolicy::Shed).unwrap();
        // Ingest is full, but control commands still get through.
        tx.push_control(99);
        assert!(matches!(tx.push(2, OverloadPolicy::Shed), Err(2)));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(99));
    }

    #[test]
    fn push_many_sheds_only_the_overflow() {
        let (tx, rx) = bounded(2);
        let rejected = tx.push_many([1, 2, 3, 4], OverloadPolicy::Shed);
        assert_eq!(rejected, vec![3, 4]);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
    }

    #[test]
    fn drain_into_takes_at_most_max_without_blocking() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.push(i, OverloadPolicy::Block).unwrap();
        }
        let mut out = VecDeque::new();
        assert_eq!(rx.drain_into(&mut out, 3, |_| false).queued, 2);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(rx.drain_into(&mut out, 10, |_| false).queued, 0);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        rx.drain_into(&mut out, 10, |_| false);
        assert_eq!(out.len(), 5, "empty queue: no blocking");
    }

    #[test]
    fn drain_into_stops_before_a_rejected_entry() {
        let (tx, rx) = bounded(8);
        tx.push_many([1, 2, 7, 3], OverloadPolicy::Block);
        let mut out = VecDeque::new();
        assert_eq!(rx.drain_into(&mut out, 10, |&v| v == 7).queued, 2);
        assert_eq!(out, vec![1, 2]);
        rx.drain_into(&mut out, 10, |&v| v == 7);
        assert_eq!(out.len(), 2, "the rejected entry stays at the head");
        assert_eq!(rx.recv(), Some(7));
    }

    #[test]
    fn receiver_observes_disconnect_after_draining() {
        let (tx, rx) = bounded(4);
        tx.push(7, OverloadPolicy::Block).unwrap();
        tx.close();
        assert_eq!(rx.recv(), Some(7), "buffered entries drain first");
        assert_eq!(rx.recv(), None, "then the close is visible");
    }

    #[test]
    fn a_kick_wakes_the_waiter_once_without_an_entry() {
        let (tx, rx) = bounded(4);
        let waiter = std::thread::spawn(move || rx.wait());
        std::thread::sleep(Duration::from_millis(20));
        tx.kick();
        assert!(waiter.join().unwrap(), "the kick ends the wait");
        tx.close();
        assert!(!tx.wait(), "consumed by the first wait; closed and empty");
    }

    #[test]
    fn capacity_zero_means_unbounded() {
        let (tx, _rx) = bounded(0);
        for i in 0..10_000 {
            tx.push(i, OverloadPolicy::Shed).unwrap();
        }
        assert_eq!(tx.stats().capacity, usize::MAX);
        assert_eq!(tx.stats().queued, 10_000);
    }
}
