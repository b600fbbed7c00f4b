//! The workspace sync shim: one import path for every synchronization
//! primitive, so the whole engine can be put under the `blazeit-model`
//! schedule-exploring checker by flipping one cargo feature.
//!
//! | Type | normal build | `--features model` |
//! |------|--------------|--------------------|
//! | [`Mutex`] / [`MutexGuard`] | `std::sync::Mutex` (poison-ignoring) | scheduler-arbitrated |
//! | [`Condvar`] | `std::sync::Condvar` | explored; timeouts never fire |
//! | [`RwLock`] + guards | `std::sync::RwLock` (poison-ignoring) | scheduler-arbitrated |
//! | [`AtomicU64`] / [`Ordering`] | `std::sync::atomic` re-export | every access a schedule point (SC) |
//! | [`OnceLock`] | `std::sync::OnceLock` re-export | init race explored |
//!
//! Production code must construct locks and atomics through this module — the
//! `sync-primitive` check in `blazeit-lint` enforces it — because only shimmed
//! primitives become scheduling points of the checker; a raw `std::sync` lock
//! would be invisible to exploration and silently shrink the verified surface.
//! `std::sync::Arc`, `mpsc` channels, and `atomic::Ordering` values stay plain
//! `std`: they carry no scheduling decisions of their own.
//!
//! In normal builds the pass-through wrappers below are `#[inline]` newtypes
//! over `std::sync` with no extra state, and the `model` scheduler code is not
//! compiled in at all, which [`MODEL_COMPILED_IN`] witnesses (CI runs
//! `sync::tests::model_shim_compiles_out_by_default` in release mode to pin
//! that).
//!
//! [`Mutex::ranked`] enrolls a lock in the documented
//! `admission → serve_cache → serve_slot → monitor → live_index → nn_cache → video → obs_trace` hierarchy; ranks are inert here
//! in normal builds (the debug tracker in `blazeit_core::lockorder` still
//! asserts order at `lock_ordered` call sites) and become a hard oracle under
//! the model: any schedule that acquires out of order fails with the exact
//! interleaving.

// The whole point of this module is to wrap the raw primitives, so it is the
// one production file allowed to name them.
// blazeit-lint: allow-file(sync-primitive) -- this module is the shim itself; it wraps the raw std primitives everything else must come through

/// `true` when the `model` feature routed this build's sync primitives through
/// the checker's scheduler. Release builds must see `false` — asserted at
/// compile time by `model_shim_compiles_out_by_default`, which CI runs in
/// release mode (mirroring the fault-injection `COMPILED_IN` witness).
pub const MODEL_COMPILED_IN: bool = cfg!(feature = "model");

#[cfg(feature = "model")]
pub use blazeit_model::sync::{
    AtomicU64, Condvar, Mutex, MutexGuard, OnceLock, Ordering, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

#[cfg(not(feature = "model"))]
pub use passthrough::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

#[cfg(not(feature = "model"))]
pub use std::sync::atomic::{AtomicU64, Ordering};

#[cfg(not(feature = "model"))]
pub use std::sync::OnceLock;

#[cfg(not(feature = "model"))]
mod passthrough {
    //! Zero-cost normal-build implementations: thin poison-ignoring newtypes
    //! over `std::sync`, API-identical to `blazeit_model::sync`.

    use std::fmt;
    use std::sync::PoisonError;
    use std::time::Duration;

    /// Guard returned by [`Mutex::lock`] (the plain std guard in this build).
    pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;
    /// Guard returned by [`RwLock::read`].
    pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
    /// Guard returned by [`RwLock::write`].
    pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

    /// A mutual-exclusion lock; poison-ignoring (a panic mid-critical-section
    /// is already a test failure, and degraded-health bookkeeping must keep
    /// working afterwards).
    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// Creates an unranked mutex.
        #[inline]
        pub const fn new(value: T) -> Mutex<T> {
            Mutex { inner: std::sync::Mutex::new(value) }
        }

        /// Creates a mutex enrolled in the ranked lock hierarchy. The rank is
        /// inert in normal builds (order is asserted by the debug tracker in
        /// `blazeit_core::lockorder` and explored by the model checker).
        #[inline]
        pub const fn ranked(rank: u8, name: &'static str, value: T) -> Mutex<T> {
            let _ = (rank, name);
            Mutex { inner: std::sync::Mutex::new(value) }
        }

        /// Consumes the mutex, returning the protected value.
        #[inline]
        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the lock, blocking until it is free.
        #[inline]
        pub fn lock(&self) -> MutexGuard<'_, T> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Mutable access without locking (the `&mut` proves exclusivity).
        #[inline]
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
            f.debug_struct("Mutex").finish_non_exhaustive()
        }
    }

    /// A condition variable paired with [`Mutex`] guards.
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a condvar.
        #[inline]
        pub const fn new() -> Condvar {
            Condvar { inner: std::sync::Condvar::new() }
        }

        /// Releases `guard`'s mutex, parks until notified, then reacquires.
        #[inline]
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
            self.inner.wait(guard).unwrap_or_else(PoisonError::into_inner)
        }

        /// Like [`wait`](Self::wait) with a timeout; returns the reacquired
        /// guard and whether the wait timed out. (Under the model checker the
        /// timeout never fires, so protocols must not rely on it for
        /// progress — a lost wakeup is reported as a deadlock there.)
        #[inline]
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            timeout: Duration,
        ) -> (MutexGuard<'a, T>, bool) {
            let (guard, result) =
                self.inner.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
            (guard, result.timed_out())
        }

        /// Wakes one parked waiter, if any.
        #[inline]
        pub fn notify_one(&self) {
            self.inner.notify_one();
        }

        /// Wakes every parked waiter.
        #[inline]
        pub fn notify_all(&self) {
            self.inner.notify_all();
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

    /// A reader-writer lock; poison-ignoring like [`Mutex`].
    pub struct RwLock<T: ?Sized> {
        inner: std::sync::RwLock<T>,
    }

    impl<T> RwLock<T> {
        /// Creates an rwlock.
        #[inline]
        pub const fn new(value: T) -> RwLock<T> {
            RwLock { inner: std::sync::RwLock::new(value) }
        }

        /// Consumes the lock, returning the protected value.
        #[inline]
        pub fn into_inner(self) -> T {
            self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
        }
    }

    impl<T: ?Sized> RwLock<T> {
        /// Acquires shared read access.
        #[inline]
        pub fn read(&self) -> RwLockReadGuard<'_, T> {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        }

        /// Acquires exclusive write access.
        #[inline]
        pub fn write(&self) -> RwLockWriteGuard<'_, T> {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        }

        /// Mutable access without locking (the `&mut` proves exclusivity).
        #[inline]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Mirrors `fault::tests::failpoints_compile_out_by_default`: CI runs this
    /// test in a default-feature release build, where the `const` block makes
    /// "the model scheduler is not compiled in" a compile-time fact.
    #[cfg(not(feature = "model"))]
    #[test]
    fn model_shim_compiles_out_by_default() {
        const { assert!(!MODEL_COMPILED_IN) }
    }

    #[test]
    fn mutex_and_condvar_round_trip() {
        let m = Mutex::ranked(6, "video", 1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);

        let cv = Condvar::new();
        let (guard, timed_out) = cv.wait_timeout(m.lock(), Duration::from_millis(1));
        assert!(timed_out, "no notifier: the timeout must fire");
        drop(guard);
        cv.notify_one();
        cv.notify_all();
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(7u32);
        assert_eq!(*l.read(), 7);
        *l.write() = 8;
        assert_eq!(*l.read(), 8);
        assert_eq!(l.into_inner(), 8);
    }

    #[test]
    fn atomics_and_once_are_std_compatible() {
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 1);
        assert_eq!(a.load(Ordering::Relaxed), 3);

        let cell: OnceLock<u32> = OnceLock::new();
        assert_eq!(*cell.get_or_init(|| 5), 5);
        assert_eq!(cell.set(6), Err(6));
        assert_eq!(cell.get(), Some(&5));
    }
}
