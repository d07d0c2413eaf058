//! Poison-tolerant lock accessors for the routing layer.
//!
//! A `std` lock is poisoned when a thread panics while holding it, and every
//! later `lock()` / `read()` / `write()` then fails — so one panicking
//! gateway thread would turn into a process-wide outage at the next
//! `expect`. The locks taken through these accessors (the parking lot, the
//! worker table, a gateway's mailbox / id lease / watermarks, every
//! directory stripe, the ring, the invitation list, a shard's command
//! queue) all guard data whose every update is a single
//! insert, remove, push, pop or counter store: no panic can leave them
//! half-written, so recovering the guard is sound and the routing layer
//! keeps serving.
//!
//! A shard's pipeline core is deliberately *not* on that list: a panic can
//! leave half a batch inside it, so its lock's next taker crashes the shard
//! instead (see the `worker` module).

use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
