//! Model-aware synchronization primitives.
//!
//! These types mirror the API of `blazeit_videostore::sync` exactly; under the
//! workspace `model` feature the shim re-exports them, so every lock, atomic
//! access, and condvar wait in the engine becomes a scheduling point of the
//! explorer in [`crate::Builder`].
//!
//! Every operation consults the thread-local exploration context first:
//!
//! * **On a model thread** (spawned via [`crate::thread`] inside
//!   `Builder::check`) the operation is routed through the controlled
//!   scheduler — it waits for its turn, is recorded in the schedule trace with
//!   the caller's `file:line` (hence `#[track_caller]` everywhere), and hands
//!   the next scheduling decision to the explorer.
//! * **Outside an exploration** the operation falls through to the underlying
//!   `std::sync` primitive (ignoring poison, like the pass-through shim),
//!   so code compiled with the `model` feature still runs normally in ordinary
//!   unit tests.
//!
//! Data always lives in the real `std` primitive; the scheduler only arbitrates
//! *when* each thread may touch it. Once the scheduler has granted ownership
//! the inner `std` lock is uncontended by construction, so there is no unsafe
//! code here at all.
//!
//! Model caveats, by design:
//!
//! * `Condvar::wait_timeout` never times out under the model — a protocol that
//!   needs the timeout to make progress is reported as a deadlock, which is
//!   exactly what a lost wakeup is.
//! * Atomics are explored under sequential consistency only (every access is a
//!   serialized scheduling point); weaker-ordering reorderings are out of
//!   scope, which the shim documents at each call site.

use crate::sched;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::AtomicU64 as StdAtomicU64;
use std::sync::{
    Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock as StdOnceLock,
    PoisonError, RwLock as StdRwLock, RwLockReadGuard as StdReadGuard,
    RwLockWriteGuard as StdWriteGuard,
};
use std::time::Duration;

pub use std::sync::atomic::Ordering;

/// Stable address of a sync object for the duration of one exploration run
/// (objects are recreated fresh on every run, so addresses never alias across
/// runs).
fn addr_of<T: ?Sized>(obj: &T) -> usize {
    (obj as *const T).cast::<()>() as usize
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// A mutual-exclusion lock that becomes a scheduling point under exploration.
///
/// [`Mutex::ranked`] additionally enrolls the lock in the
/// `monitor → live_index → nn_cache → video` hierarchy: the scheduler fails
/// the run (with the violating interleaving) if it is ever acquired while a
/// lock of equal or higher rank is held.
pub struct Mutex<T: ?Sized> {
    rank: Option<(u8, &'static str)>,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates an unranked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex { rank: None, inner: StdMutex::new(value) }
    }

    /// Creates a mutex enrolled in the ranked lock hierarchy under `name`.
    pub const fn ranked(rank: u8, name: &'static str, value: T) -> Mutex<T> {
        Mutex { rank: Some((rank, name)), inner: StdMutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking (a scheduling point under exploration).
    #[track_caller]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let loc = Location::caller();
        let model = sched::current();
        if let Some((s, me)) = &model {
            s.mutex_lock(addr_of(self), self.rank, *me, loc);
        }
        let std = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { lock: self, std: Some(std), model, loc }
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Mutex");
        if let Some((rank, name)) = self.rank {
            d.field("rank", &rank).field("name", &name);
        }
        d.finish_non_exhaustive()
    }
}

/// RAII guard for [`Mutex`]; releasing it is itself a visible operation under
/// exploration (traced at the guard's acquisition site).
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    std: Option<StdMutexGuard<'a, T>>,
    model: Option<(std::sync::Arc<sched::Scheduler>, usize)>,
    loc: &'static Location<'static>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_deref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_deref_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Order matters: give up the data lock before the scheduler hands
        // ownership to another thread.
        drop(self.std.take());
        if let Some((s, me)) = self.model.take() {
            s.mutex_unlock(addr_of(self.lock), self.lock.rank, me, self.loc);
        }
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// A condition variable paired with [`Mutex`] guards.
///
/// Under exploration, `wait` atomically releases the mutex and parks until a
/// notify (no spurious wakeups, no timeouts), and `notify_one` with several
/// parked waiters is itself an explored choice point.
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates a condvar.
    pub const fn new() -> Condvar {
        Condvar { inner: StdCondvar::new() }
    }

    /// Releases `guard`'s mutex, parks until notified, then reacquires.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let loc = Location::caller();
        match guard.model.take() {
            Some((s, me)) => {
                let lock = guard.lock;
                guard.std = None;
                drop(guard); // both fields cleared: the drop is a no-op
                s.condvar_wait(addr_of(self), addr_of(lock), lock.rank, me, loc);
                let std = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                MutexGuard { lock, std: Some(std), model: Some((s, me)), loc }
            }
            None => {
                let lock = guard.lock;
                let std = guard.std.take().expect("guard accessed after release");
                drop(guard);
                let std = self.inner.wait(std).unwrap_or_else(PoisonError::into_inner);
                MutexGuard { lock, std: Some(std), model: None, loc }
            }
        }
    }

    /// Like [`wait`](Self::wait) with a timeout; returns the reacquired guard
    /// and whether the wait timed out.
    ///
    /// Under exploration the timeout **never fires** (`timed_out` is always
    /// `false`): a protocol that can only make progress via the timeout shows
    /// up as a deadlock, which is precisely a lost wakeup. This makes the
    /// checker strictly stronger than wall-clock testing.
    #[track_caller]
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let loc = Location::caller();
        match guard.model.take() {
            Some((s, me)) => {
                let lock = guard.lock;
                guard.std = None;
                drop(guard);
                s.condvar_wait(addr_of(self), addr_of(lock), lock.rank, me, loc);
                let std = lock.inner.lock().unwrap_or_else(PoisonError::into_inner);
                (MutexGuard { lock, std: Some(std), model: Some((s, me)), loc }, false)
            }
            None => {
                let lock = guard.lock;
                let std = guard.std.take().expect("guard accessed after release");
                drop(guard);
                let (std, result) =
                    self.inner.wait_timeout(std, timeout).unwrap_or_else(PoisonError::into_inner);
                (MutexGuard { lock, std: Some(std), model: None, loc }, result.timed_out())
            }
        }
    }

    /// Wakes one parked waiter (an explored choice when several are parked);
    /// a no-op when none are — which is how wakeups get lost.
    #[track_caller]
    pub fn notify_one(&self) {
        if let Some((s, me)) = sched::current() {
            s.condvar_notify(addr_of(self), false, me, Location::caller());
        } else {
            self.inner.notify_one();
        }
    }

    /// Wakes every parked waiter.
    #[track_caller]
    pub fn notify_all(&self) {
        if let Some((s, me)) = sched::current() {
            s.condvar_notify(addr_of(self), true, me, Location::caller());
        } else {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

/// A reader-writer lock that becomes a scheduling point under exploration
/// (reserved for the upcoming serving layer; no ranked variant yet).
pub struct RwLock<T: ?Sized> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates an rwlock.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock { inner: StdRwLock::new(value) }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    #[track_caller]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let loc = Location::caller();
        let model = sched::current();
        if let Some((s, me)) = &model {
            s.rw_lock(addr_of(self), false, *me, loc);
        }
        let std = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { lock: self, std: Some(std), model, loc }
    }

    /// Acquires exclusive write access.
    #[track_caller]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let loc = Location::caller();
        let model = sched::current();
        if let Some((s, me)) = &model {
            s.rw_lock(addr_of(self), true, *me, loc);
        }
        let std = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { lock: self, std: Some(std), model, loc }
    }

    /// Mutable access without locking (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> RwLock<T> {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

/// RAII shared-read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    std: Option<StdReadGuard<'a, T>>,
    model: Option<(std::sync::Arc<sched::Scheduler>, usize)>,
    loc: &'static Location<'static>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_deref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.std.take());
        if let Some((s, me)) = self.model.take() {
            s.rw_unlock(addr_of(self.lock), false, me, self.loc);
        }
    }
}

/// RAII exclusive-write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    lock: &'a RwLock<T>,
    std: Option<StdWriteGuard<'a, T>>,
    model: Option<(std::sync::Arc<sched::Scheduler>, usize)>,
    loc: &'static Location<'static>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_deref().expect("guard accessed after release")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_deref_mut().expect("guard accessed after release")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.std.take());
        if let Some((s, me)) = self.model.take() {
            s.rw_unlock(addr_of(self.lock), true, me, self.loc);
        }
    }
}

// ---------------------------------------------------------------------------
// AtomicU64
// ---------------------------------------------------------------------------

/// A 64-bit atomic whose every access is a serialized scheduling point under
/// exploration.
///
/// The model explores **sequential consistency only**: the `Ordering` argument
/// is honored by the underlying hardware atomic but adds no extra reorderings
/// to the explored schedule space.
#[derive(Debug, Default)]
pub struct AtomicU64 {
    inner: StdAtomicU64,
}

impl AtomicU64 {
    /// Creates an atomic with the given initial value.
    pub const fn new(value: u64) -> AtomicU64 {
        AtomicU64 { inner: StdAtomicU64::new(value) }
    }

    /// Loads the value.
    #[track_caller]
    pub fn load(&self, order: Ordering) -> u64 {
        match sched::current() {
            Some((s, me)) => s.atomic_op(
                me,
                Location::caller(),
                |v| format!("atomic load -> {v}"),
                || self.inner.load(order),
            ),
            None => self.inner.load(order),
        }
    }

    /// Stores a value.
    #[track_caller]
    pub fn store(&self, value: u64, order: Ordering) {
        match sched::current() {
            Some((s, me)) => s.atomic_op(
                me,
                Location::caller(),
                |_| format!("atomic store {value}"),
                || self.inner.store(value, order),
            ),
            None => self.inner.store(value, order),
        }
    }

    /// Adds to the value, returning the previous value.
    #[track_caller]
    pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
        match sched::current() {
            Some((s, me)) => s.atomic_op(
                me,
                Location::caller(),
                |prev| format!("atomic fetch_add {value} (was {prev})"),
                || self.inner.fetch_add(value, order),
            ),
            None => self.inner.fetch_add(value, order),
        }
    }

    /// Subtracts from the value, returning the previous value.
    #[track_caller]
    pub fn fetch_sub(&self, value: u64, order: Ordering) -> u64 {
        match sched::current() {
            Some((s, me)) => s.atomic_op(
                me,
                Location::caller(),
                |prev| format!("atomic fetch_sub {value} (was {prev})"),
                || self.inner.fetch_sub(value, order),
            ),
            None => self.inner.fetch_sub(value, order),
        }
    }

    /// Swaps in a new value, returning the previous value.
    #[track_caller]
    pub fn swap(&self, value: u64, order: Ordering) -> u64 {
        match sched::current() {
            Some((s, me)) => s.atomic_op(
                me,
                Location::caller(),
                |prev| format!("atomic swap {value} (was {prev})"),
                || self.inner.swap(value, order),
            ),
            None => self.inner.swap(value, order),
        }
    }

    /// Stores `new` if the current value equals `current`; returns the prior
    /// value as `Ok` on success and `Err` on failure, like the std method.
    #[track_caller]
    pub fn compare_exchange(
        &self,
        current: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        match sched::current() {
            Some((s, me)) => s.atomic_op(
                me,
                Location::caller(),
                |r| match r {
                    Ok(prev) => format!("atomic cas {current}->{new} ok (was {prev})"),
                    Err(seen) => format!("atomic cas {current}->{new} failed (saw {seen})"),
                },
                || self.inner.compare_exchange(current, new, success, failure),
            ),
            None => self.inner.compare_exchange(current, new, success, failure),
        }
    }

    /// Mutable access without synchronization (the `&mut` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut u64 {
        self.inner.get_mut()
    }
}

// ---------------------------------------------------------------------------
// OnceLock
// ---------------------------------------------------------------------------

/// A write-once cell; under exploration the init race (who claims the slot,
/// who blocks and observes the published value) is part of the schedule space.
pub struct OnceLock<T> {
    inner: StdOnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Creates an empty cell.
    pub const fn new() -> OnceLock<T> {
        OnceLock { inner: StdOnceLock::new() }
    }

    /// Returns the value if initialized. Non-blocking in both modes (matching
    /// `std`: a concurrent in-flight init reads as `None`).
    #[track_caller]
    pub fn get(&self) -> Option<&T> {
        if let Some((s, me)) = sched::current() {
            s.atomic_op(
                me,
                Location::caller(),
                |some| format!("once get -> {}", if *some { "initialized" } else { "empty" }),
                || self.inner.get().is_some(),
            );
        }
        self.inner.get()
    }

    /// Initializes the cell if empty; `Err(value)` if already initialized
    /// (or if another thread's in-flight init wins, once it completes).
    #[track_caller]
    pub fn set(&self, value: T) -> Result<(), T> {
        if let Some((s, me)) = sched::current() {
            let loc = Location::caller();
            if s.once_begin(addr_of(self), me, loc) {
                let _ = self.inner.set(value);
                s.once_complete(addr_of(self), me, loc);
                return Ok(());
            }
            return Err(value);
        }
        self.inner.set(value)
    }

    /// Returns the value, initializing it with `init` if empty; blocks while
    /// another thread is initializing (a scheduling point under exploration).
    #[track_caller]
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        if let Some((s, me)) = sched::current() {
            let loc = Location::caller();
            if s.once_begin(addr_of(self), me, loc) {
                let _ = self.inner.set(init());
                s.once_complete(addr_of(self), me, loc);
            }
            return self.inner.get().expect("OnceLock observed Done before publication");
        }
        self.inner.get_or_init(init)
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> OnceLock<T> {
        OnceLock::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnceLock").field("value", &self.inner.get()).finish()
    }
}
