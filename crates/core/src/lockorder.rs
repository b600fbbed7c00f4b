//! The engine's lock hierarchy, stated once as a type, and its debug-build
//! assertions.
//!
//! Locks are acquired in [`Lock`]'s declaration order, lowest rank first —
//! **admission → serve_cache → monitor → live_index → nn_cache →
//! heldout_cache → flight → video → obs_trace** — and every other statement
//! of it links here:
//!
//! * the serving locks rank lowest: a cache miss executes a full query, so no
//!   serving lock is held while the engine's locks are taken;
//! * `monitor → live_index → nn_cache` is the drift refresh's atomic swap;
//! * `flight`, the lock of every [`crate::single_flight::Flight`] cell, ranks
//!   after each map a cell is joined under and is held across nothing;
//! * `obs_trace` ranks highest: a span opens or closes under any engine lock.
//!
//! A ranked lock is a `RankedMutex`, built once from its [`Lock`]. Its only
//! way in is `RankedMutex::lock`, which in debug builds asserts that this
//! thread holds no lock of an equal or higher rank (release builds compile the
//! assertion out), and a condvar wait goes through the same guard
//! (`OrderedGuard::wait`). Under the `model` feature the `blazeit-model`
//! explorer checks the same ranks, carried by the shim's
//! [`crate::sync::Mutex::ranked`], in every interleaving.

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};

/// One ranked lock of the hierarchy. The declaration order is the rank:
/// acquiring a lock while holding one of an equal or higher rank is a
/// violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lock {
    /// `serve::Admission::state`, acquired while holding nothing, before any
    /// engine work.
    Admission,
    /// `serve::QueryCache::slots`, the result cache's key map.
    ServeCache,
    /// `StreamState::monitor`, the first engine lock.
    Monitor,
    /// `VideoContext::live_index`.
    LiveIndex,
    /// `VideoContext::nn_cache`.
    NnCache,
    /// `VideoContext::heldout_cache`.
    HeldoutCache,
    /// One [`crate::single_flight::Flight`] cell's state.
    Flight,
    /// `VideoContext::video`, the last engine lock.
    Video,
    /// `obs::TraceCollector::state`: span guards open and close while engine
    /// locks are held, and the collector lock is held across no other
    /// acquisition.
    ObsTrace,
}

impl Lock {
    /// Every lock, lowest rank first.
    #[cfg(debug_assertions)]
    const ALL: [Lock; 9] = [
        Lock::Admission,
        Lock::ServeCache,
        Lock::Monitor,
        Lock::LiveIndex,
        Lock::NnCache,
        Lock::HeldoutCache,
        Lock::Flight,
        Lock::Video,
        Lock::ObsTrace,
    ];

    /// Position in the acquisition order; lower ranks are acquired first.
    pub const fn rank(self) -> u8 {
        self as u8
    }

    /// The name violation messages (the debug tracker's and the model
    /// explorer's) use.
    pub const fn name(self) -> &'static str {
        match self {
            Lock::Admission => "admission",
            Lock::ServeCache => "serve_cache",
            Lock::Monitor => "monitor",
            Lock::LiveIndex => "live_index",
            Lock::NnCache => "nn_cache",
            Lock::HeldoutCache => "heldout_cache",
            Lock::Flight => "flight",
            Lock::Video => "video",
            Lock::ObsTrace => "obs_trace",
        }
    }
}

#[cfg(debug_assertions)]
mod tracker {
    use super::Lock;
    use std::cell::RefCell;

    thread_local! {
        /// The ranked locks this thread currently holds.
        static HELD: RefCell<Vec<Lock>> = const { RefCell::new(Vec::new()) };
    }

    /// This thread's record of holding one ranked lock; dropping it forgets
    /// the lock.
    pub(super) struct Held(Lock);

    impl Held {
        /// Records `lock` as held, first asserting that every ranked lock this
        /// thread already holds ranks strictly lower. A violation panics at
        /// the caller of `RankedMutex::lock`.
        #[track_caller]
        pub(super) fn acquire(lock: Lock) -> Held {
            if let Some(highest) = HELD.with(|held| held.borrow().iter().copied().max()) {
                assert!(
                    highest < lock,
                    "lock-order violation: acquiring '{}' (rank {}) while holding '{}' (rank {}); \
                     the documented order is {}",
                    lock.name(),
                    lock.rank(),
                    highest.name(),
                    highest.rank(),
                    Lock::ALL.map(Lock::name).join(" → ")
                );
            }
            HELD.with(|held| held.borrow_mut().push(lock));
            Held(lock)
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                // Guards may drop out of acquisition order; remove the newest match.
                if let Some(pos) = held.iter().rposition(|&l| l == self.0) {
                    held.remove(pos);
                }
            });
        }
    }

    /// How many ranked locks this thread holds.
    #[cfg(test)]
    pub(super) fn held_count() -> usize {
        HELD.with(|held| held.borrow().len())
    }
}

#[cfg(not(debug_assertions))]
mod tracker {
    /// Release builds track nothing.
    pub(super) struct Held;
}

/// A mutex with a fixed place in the hierarchy, locked only through the
/// asserting [`RankedMutex::lock`].
pub(crate) struct RankedMutex<T> {
    #[cfg(debug_assertions)]
    lock: Lock,
    mutex: Mutex<T>,
}

impl<T> RankedMutex<T> {
    /// A mutex ranked as `lock` (the model explorer's oracle reads the same
    /// rank and name).
    pub(crate) fn new(lock: Lock, value: T) -> RankedMutex<T> {
        RankedMutex {
            #[cfg(debug_assertions)]
            lock,
            mutex: Mutex::ranked(lock.rank(), lock.name(), value),
        }
    }

    /// Acquires the lock, asserting (in debug builds) that every ranked lock
    /// this thread already holds ranks strictly lower.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn lock(&self) -> OrderedGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = tracker::Held::acquire(self.lock);
        #[cfg(not(debug_assertions))]
        let held = tracker::Held;
        OrderedGuard { guard: self.mutex.lock(), held }
    }
}

/// A guard of a [`RankedMutex`]. The fields drop in order: the mutex unlocks,
/// then the tracker forgets it.
pub(crate) struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    held: tracker::Held,
}

impl<'a, T> OrderedGuard<'a, T> {
    /// Releases the lock, parks until `ready` is notified, then reacquires it.
    /// The tracker keeps the lock recorded meanwhile: the parked thread takes
    /// nothing else.
    #[cfg_attr(debug_assertions, track_caller)]
    pub(crate) fn wait(self, ready: &Condvar) -> OrderedGuard<'a, T> {
        let OrderedGuard { guard, held } = self;
        OrderedGuard { guard: ready.wait(guard), held }
    }
}

impl<T> Deref for OrderedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The panic message `f` raised (empty if it raised none).
    fn violation(f: impl FnOnce()) -> String {
        let outcome = catch_unwind(AssertUnwindSafe(f));
        outcome
            .err()
            .and_then(|payload| payload.downcast::<String>().ok())
            .map(|m| *m)
            .unwrap_or_default()
    }

    #[test]
    fn ranks_follow_declaration_order_and_names_are_distinct() {
        for (i, lock) in Lock::ALL.iter().enumerate() {
            assert_eq!(usize::from(lock.rank()), i, "{lock:?}");
        }
        for (i, a) in Lock::ALL.iter().enumerate() {
            for b in &Lock::ALL[i + 1..] {
                assert!(a < b && a.name() != b.name(), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn serving_locks_rank_below_engine_locks() {
        // A cache miss executes a full query while holding no serving lock;
        // engine code taking a serving lock must be impossible by rank.
        for serving in [Lock::Admission, Lock::ServeCache] {
            for engine in [Lock::Monitor, Lock::LiveIndex, Lock::NnCache, Lock::Video] {
                assert!(serving < engine, "{serving:?} vs {engine:?}");
            }
        }
    }

    #[test]
    fn every_map_ranks_below_the_cells_it_holds() {
        // A single-flight cell is joined under its cache's map lock.
        for map in [Lock::ServeCache, Lock::NnCache, Lock::HeldoutCache] {
            assert!(map < Lock::Flight, "{map:?}");
        }
    }

    #[test]
    fn obs_trace_ranks_last() {
        // Spans open and close under arbitrary engine locks, and the collector
        // acquires nothing while its lock is held.
        assert_eq!(Lock::ALL.iter().max(), Some(&Lock::ObsTrace));
    }

    #[test]
    fn in_order_acquisition_is_allowed() {
        let monitor = RankedMutex::new(Lock::Monitor, ());
        let live = RankedMutex::new(Lock::LiveIndex, ());
        let video = RankedMutex::new(Lock::Video, ());
        drop((monitor.lock(), live.lock(), video.lock()));
        // The serving locks rank below every engine lock: cache → monitor is
        // the miss path (lookup, then execute), and it must be clean.
        let admission = RankedMutex::new(Lock::Admission, ());
        let cache = RankedMutex::new(Lock::ServeCache, ());
        let flight = RankedMutex::new(Lock::Flight, ());
        drop((cache.lock(), monitor.lock()));
        drop((admission.lock(), cache.lock(), flight.lock()));
        // A context cache's cell is joined under its map.
        let nn = RankedMutex::new(Lock::NnCache, ());
        drop((live.lock(), nn.lock(), flight.lock()));
        // Skipping ranks is fine; only inversions are violations.
        drop(nn.lock());
        drop(video.lock());
        // The trace collector ranks last: a span may record itself while any
        // engine lock is held.
        let trace = RankedMutex::new(Lock::ObsTrace, ());
        drop((video.lock(), trace.lock()));
        assert_eq!(tracker::held_count(), 0);
    }

    #[test]
    fn out_of_order_acquisition_panics() {
        let live = RankedMutex::new(Lock::LiveIndex, ());
        let monitor = RankedMutex::new(Lock::Monitor, ());
        let message = violation(|| {
            let _b = live.lock();
            let _a = monitor.lock();
        });
        assert!(message.contains("lock-order violation"), "got: {message}");
        assert!(message.contains("'monitor' (rank 2)"), "got: {message}");
        assert_eq!(tracker::held_count(), 0, "unwinding forgets the held lock");
    }

    #[test]
    fn same_rank_reacquisition_panics() {
        // The shim mutexes are not reentrant: re-locking the same rank on one
        // thread is a self-deadlock, caught here before the deadlock happens.
        let video = RankedMutex::new(Lock::Video, ());
        let other = RankedMutex::new(Lock::Video, ());
        let message = violation(|| {
            let _a = video.lock();
            let _b = other.lock();
        });
        assert!(message.contains("lock-order violation"), "got: {message}");
    }

    #[test]
    fn admission_under_a_flight_panics() {
        // Both are condvar-paired locks, and both now take the asserted path.
        let flight = RankedMutex::new(Lock::Flight, ());
        let admission = RankedMutex::new(Lock::Admission, ());
        let message = violation(|| {
            let _cell = flight.lock();
            let _queue = admission.lock();
        });
        assert!(message.contains("lock-order violation"), "got: {message}");
        assert!(message.contains("'admission' (rank 0) while holding 'flight'"), "{message}");
    }

    #[test]
    fn condvar_wait_keeps_the_bookkeeping_clean() {
        let published = RankedMutex::new(Lock::Flight, false);
        let ready = Condvar::new();
        std::thread::scope(|s| {
            let mut done = published.lock();
            s.spawn(|| {
                *published.lock() = true;
                ready.notify_all();
            });
            while !*done {
                done = done.wait(&ready);
            }
            // Still held after the wait: a lower rank is an inversion.
            assert_eq!(tracker::held_count(), 1);
            let admission = RankedMutex::new(Lock::Admission, ());
            let message = violation(|| drop(admission.lock()));
            assert!(message.contains("lock-order violation"), "got: {message}");
            drop(done);
            assert_eq!(tracker::held_count(), 0);
            drop(admission.lock());
        });
    }

    #[test]
    fn release_unwinds_out_of_order_drops() {
        let monitor = RankedMutex::new(Lock::Monitor, ());
        let live = RankedMutex::new(Lock::LiveIndex, ());
        let a = monitor.lock();
        let b = live.lock();
        drop(a); // dropped before b — bookkeeping must not corrupt
        drop(b);
        let a = monitor.lock();
        let b = live.lock();
        drop(b);
        drop(a);
        assert_eq!(tracker::held_count(), 0);
    }

    #[test]
    fn threads_track_independently() {
        let video = RankedMutex::new(Lock::Video, ());
        let monitor = RankedMutex::new(Lock::Monitor, ());
        let _outer = video.lock();
        std::thread::scope(|s| {
            // This thread holds nothing: `monitor` is fine here even though
            // the spawning thread holds `video`.
            s.spawn(|| drop(monitor.lock()));
        });
    }
}
