//! Bounded MPSC command queues: the backpressure layer between gateways and
//! shard workers.
//!
//! Before this module, every gateway→worker edge was an unbounded
//! `std::sync::mpsc` channel: a submission allocated a queue node, and a
//! storm of submissions could grow a shard's queue without limit until the
//! process ran out of memory. The `bounded` queue replaces that with a
//! pre-allocated ring buffer (a `VecDeque` that never grows past its
//! configured capacity on the ingest path) and a configurable
//! [`OverloadPolicy`]:
//!
//! * [`OverloadPolicy::Block`] — the submitting thread waits for space.
//!   Lossless: under a storm, ingest throttles to the speed the shard
//!   workers actually drain, and memory stays bounded.
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
//! The receiver side supports the worker's batch-drain loop: one blocking
//! `QueueReceiver::recv` wakes the worker, then a non-blocking
//! `QueueReceiver::drain_into` greedily takes whatever else is queued (up
//! to the configured batch), so one wakeup amortizes over many commands.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

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

/// Why a push did not enqueue; the command is handed back to the caller.
#[derive(Debug)]
pub(crate) enum PushError<T> {
    /// The queue is at capacity and the policy is [`OverloadPolicy::Shed`].
    Full(T),
    /// The receiver is gone (the worker thread exited).
    Disconnected(T),
}

struct State<T> {
    /// Queued commands; the flag marks entries that count against
    /// `capacity` (ingest) as opposed to exempt control commands.
    buf: VecDeque<(T, bool)>,
    /// Ingest commands currently queued.
    bounded: usize,
    /// High-water mark of `bounded`.
    peak: usize,
    senders: usize,
    receiver_alive: bool,
    /// Whether the receiver is parked on `not_empty`. Producers only pay
    /// the wake syscall when somebody is actually waiting — the difference
    /// between a lock-free-channel-class hot path and a futex storm.
    receiver_waiting: bool,
    /// Producers parked on `not_full` (under `Block` at capacity).
    senders_waiting: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// The producer half of a bounded command queue. Cloneable; the receiver
/// observes disconnection when the last sender drops.
pub(crate) struct QueueSender<T>(Arc<Shared<T>>);

/// The consumer half; owned by exactly one worker thread.
pub(crate) struct QueueReceiver<T>(Arc<Shared<T>>);

// Manual impls: the queued commands themselves (which may hold closures)
// need not be `Debug` for the queue handles to be.
impl<T> std::fmt::Debug for QueueSender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("QueueSender")
            .field("capacity", &stats.capacity)
            .field("queued", &stats.queued)
            .finish()
    }
}

impl<T> std::fmt::Debug for QueueReceiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueueReceiver")
            .field("capacity", &self.0.capacity)
            .finish()
    }
}

/// Creates a bounded MPSC queue. `capacity` bounds *ingest* entries only
/// (control entries are exempt); `0` means effectively unbounded.
pub(crate) fn bounded<T>(capacity: usize) -> (QueueSender<T>, QueueReceiver<T>) {
    let capacity = if capacity == 0 { usize::MAX } else { capacity };
    let preallocate = capacity.min(64 * 1024) + 16;
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(preallocate),
            bounded: 0,
            peak: 0,
            senders: 1,
            receiver_alive: true,
            receiver_waiting: false,
            senders_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
    });
    (QueueSender(shared.clone()), QueueReceiver(shared))
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        lock(&self.0.state).senders += 1;
        QueueSender(self.0.clone())
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.senders -= 1;
        if state.senders == 0 {
            let wake = state.receiver_waiting;
            drop(state);
            // Wake the receiver so it can observe the disconnect.
            if wake {
                self.0.not_empty.notify_all();
            }
        }
    }
}

impl<T> Drop for QueueReceiver<T> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.receiver_alive = false;
        let wake = state.senders_waiting > 0;
        drop(state);
        // Wake blocked producers so they can observe the disconnect.
        if wake {
            self.0.not_full.notify_all();
        }
    }
}

impl<T> QueueSender<T> {
    /// Enqueues one ingest command under the given overload policy.
    pub(crate) fn push(&self, value: T, policy: OverloadPolicy) -> Result<(), PushError<T>> {
        let mut state = lock(&self.0.state);
        while state.bounded >= self.0.capacity {
            if !state.receiver_alive {
                return Err(PushError::Disconnected(value));
            }
            match policy {
                OverloadPolicy::Shed => return Err(PushError::Full(value)),
                OverloadPolicy::Block => {
                    // The queue is full, so the receiver cannot be parked on
                    // `not_empty`; no wake is needed before waiting.
                    state.senders_waiting += 1;
                    state = wait(&self.0.not_full, state);
                    state.senders_waiting -= 1;
                }
            }
        }
        if !state.receiver_alive {
            return Err(PushError::Disconnected(value));
        }
        state.buf.push_back((value, true));
        state.bounded += 1;
        state.peak = state.peak.max(state.bounded);
        let wake = state.receiver_waiting;
        drop(state);
        if wake {
            self.0.not_empty.notify_one();
        }
        Ok(())
    }

    /// Enqueues a run of ingest commands with one lock acquisition (the
    /// "one queue reservation per shard" half of vectored submission).
    ///
    /// Under [`OverloadPolicy::Block`] every command is eventually enqueued
    /// (the call waits for space as needed) and the result is empty; under
    /// [`OverloadPolicy::Shed`] the commands that found no space are handed
    /// back for the caller to answer with `Overloaded`.
    pub(crate) fn push_many(
        &self,
        values: impl IntoIterator<Item = T>,
        policy: OverloadPolicy,
    ) -> Vec<PushError<T>> {
        let mut rejected = Vec::new();
        let mut state = lock(&self.0.state);
        let mut pushed = false;
        for value in values {
            loop {
                if !state.receiver_alive {
                    rejected.push(PushError::Disconnected(value));
                    break;
                }
                if state.bounded < self.0.capacity {
                    state.buf.push_back((value, true));
                    state.bounded += 1;
                    state.peak = state.peak.max(state.bounded);
                    pushed = true;
                    break;
                }
                match policy {
                    OverloadPolicy::Shed => {
                        rejected.push(PushError::Full(value));
                        break;
                    }
                    OverloadPolicy::Block => {
                        // Let the worker see what is queued so far, then wait
                        // for space. (Full queue ⇒ the receiver is not parked
                        // on `not_empty` unless it raced in just now.)
                        if state.receiver_waiting {
                            self.0.not_empty.notify_one();
                        }
                        state.senders_waiting += 1;
                        state = wait(&self.0.not_full, state);
                        state.senders_waiting -= 1;
                    }
                }
            }
        }
        let wake = pushed && state.receiver_waiting;
        drop(state);
        if wake {
            self.0.not_empty.notify_one();
        }
        rejected
    }

    /// Enqueues a control-plane command. Control commands are exempt from
    /// the ingest capacity: they never block on a saturated queue and are
    /// never shed, so crash/recover/handoff/inspection cannot be starved by
    /// a data-plane storm (and a coordinator pushing while holding routing
    /// locks cannot deadlock against [`OverloadPolicy::Block`]).
    pub(crate) fn push_control(&self, value: T) -> Result<(), PushError<T>> {
        let mut state = lock(&self.0.state);
        if !state.receiver_alive {
            return Err(PushError::Disconnected(value));
        }
        state.buf.push_back((value, false));
        let wake = state.receiver_waiting;
        drop(state);
        if wake {
            self.0.not_empty.notify_one();
        }
        Ok(())
    }

    /// Occupancy statistics.
    pub(crate) fn stats(&self) -> QueueStats {
        let state = lock(&self.0.state);
        QueueStats {
            capacity: self.0.capacity,
            queued: state.bounded,
            peak_queued: state.peak,
        }
    }

    /// Restarts the peak-occupancy window: `peak_queued` becomes the current
    /// occupancy (not zero — entries that are still queued were necessarily
    /// observed), and grows from there.
    pub(crate) fn reset_peak(&self) {
        let mut state = lock(&self.0.state);
        state.peak = state.bounded;
    }
}

impl<T> QueueReceiver<T> {
    /// Blocks until a command is available; `None` once the queue is empty
    /// and every sender is gone.
    pub(crate) fn recv(&self) -> Option<T> {
        let mut state = lock(&self.0.state);
        loop {
            if let Some((value, counted)) = state.buf.pop_front() {
                if counted {
                    state.bounded -= 1;
                }
                let wake = state.senders_waiting > 0;
                drop(state);
                if wake {
                    self.0.not_full.notify_all();
                }
                return Some(value);
            }
            if state.senders == 0 {
                return None;
            }
            state.receiver_waiting = true;
            state = wait(&self.0.not_empty, state);
            state.receiver_waiting = false;
        }
    }

    /// Ingest commands queued right now — the worker samples this into its
    /// queue-depth time-series on every drain.
    pub(crate) fn depth(&self) -> usize {
        lock(&self.0.state).bounded
    }

    /// Occupancy statistics, from the consumer side: the worker drain loop
    /// samples `peak_queued` into its `queue_peak` time-series without
    /// needing a sender handle.
    pub(crate) fn stats(&self) -> QueueStats {
        let state = lock(&self.0.state);
        QueueStats {
            capacity: self.0.capacity,
            queued: state.bounded,
            peak_queued: state.peak,
        }
    }

    /// Non-blocking: moves up to `max` queued commands into `out`, returning
    /// how many were taken. One blocking `QueueReceiver::recv` plus one
    /// `drain_into` is the worker's batch-drain step.
    pub(crate) fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = lock(&self.0.state);
        let mut taken = 0;
        while taken < max {
            let Some((value, counted)) = state.buf.pop_front() else {
                break;
            };
            if counted {
                state.bounded -= 1;
            }
            out.push(value);
            taken += 1;
        }
        let wake = taken > 0 && state.senders_waiting > 0;
        drop(state);
        if wake {
            self.0.not_full.notify_all();
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn shed_fails_fast_at_capacity_and_tracks_peak() {
        let (tx, rx) = bounded::<u32>(2);
        tx.push(1, OverloadPolicy::Shed).unwrap();
        tx.push(2, OverloadPolicy::Shed).unwrap();
        match tx.push(3, OverloadPolicy::Shed) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
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
        let (tx, rx) = bounded::<u32>(4);
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
        let (tx, rx) = bounded::<u32>(1);
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
        let (tx, rx) = bounded::<u32>(1);
        tx.push(1, OverloadPolicy::Shed).unwrap();
        // Ingest is full, but control commands still get through.
        tx.push_control(99).unwrap();
        assert!(matches!(
            tx.push(2, OverloadPolicy::Shed),
            Err(PushError::Full(2))
        ));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(99));
    }

    #[test]
    fn push_many_sheds_only_the_overflow() {
        let (tx, rx) = bounded::<u32>(2);
        let rejected = tx.push_many([1, 2, 3, 4], OverloadPolicy::Shed);
        assert_eq!(rejected.len(), 2);
        assert!(rejected
            .iter()
            .all(|r| matches!(r, PushError::Full(v) if *v >= 3)));
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
    }

    #[test]
    fn drain_into_takes_at_most_max_without_blocking() {
        let (tx, rx) = bounded::<u32>(8);
        for i in 0..5 {
            tx.push(i, OverloadPolicy::Block).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(rx.drain_into(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.drain_into(&mut out, 10), 0, "empty queue: no blocking");
    }

    #[test]
    fn receiver_observes_disconnect_after_draining() {
        let (tx, rx) = bounded::<u32>(4);
        tx.push(7, OverloadPolicy::Block).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(7), "buffered entries drain first");
        assert_eq!(rx.recv(), None, "then the disconnect is visible");
    }

    #[test]
    fn senders_observe_a_dropped_receiver() {
        let (tx, rx) = bounded::<u32>(1);
        tx.push(1, OverloadPolicy::Block).unwrap();
        drop(rx);
        assert!(matches!(
            tx.push(2, OverloadPolicy::Block),
            Err(PushError::Disconnected(2))
        ));
        assert!(matches!(
            tx.push_control(3),
            Err(PushError::Disconnected(3))
        ));
    }

    #[test]
    fn capacity_zero_means_unbounded() {
        let (tx, _rx) = bounded::<u32>(0);
        for i in 0..10_000 {
            tx.push(i, OverloadPolicy::Shed).unwrap();
        }
        assert_eq!(tx.stats().capacity, usize::MAX);
        assert_eq!(tx.stats().queued, 10_000);
    }
}
