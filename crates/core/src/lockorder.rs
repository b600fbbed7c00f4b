//! The engine's lock hierarchy, stated once, and its debug-build assertions.
//!
//! Locks are acquired in this order, lowest rank first — **admission →
//! serve_cache → monitor → live_index → nn_cache → heldout_cache → flight →
//! video → obs_trace** — and every other statement of it links here:
//!
//! * the serving locks rank lowest: a cache miss executes a full query, so no
//!   serving lock is held while the engine's locks are taken;
//! * `monitor → live_index → nn_cache` is the drift refresh's atomic swap;
//! * `flight`, the lock of every [`crate::single_flight::Flight`] cell, ranks
//!   after each map a cell is joined under and is held across nothing;
//! * `obs_trace` ranks highest: a span opens or closes under any engine lock.
//!
//! Debug builds assert at every `lock_ordered` acquisition that this thread
//! holds no lock of an equal or higher rank (release builds compile it out).
//! [`RANKED_LOCKS`] also drives the static `lock-order` lint and, under the
//! `model` feature, the `blazeit-model` explorer, which checks every lock built
//! with [`crate::sync::Mutex::ranked`] in every interleaving.

use crate::sync::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};

/// One ranked lock in the context/stream hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedLock {
    /// The name used at `lock_ordered` call sites and in violation messages.
    /// The corresponding rank constant is `RANK_<NAME>` (uppercased), which is
    /// how `blazeit-lint` resolves call-site rank arguments back to this table.
    pub name: &'static str,
    /// Position in the documented acquisition order; lower ranks are acquired
    /// first, and acquiring a lock while holding an equal or higher rank is a
    /// violation.
    pub rank: u8,
}

/// The documented lock acquisition order, lowest rank first.
///
/// This table is the **single source of truth** for the hierarchy: the runtime
/// assertion below (`lock_ordered`) and the static `lock-order` check in
/// `blazeit-lint` both consume it, so the two enforcement layers cannot
/// diverge (a regression test in `crates/lint` additionally pins the
/// `RANK_*` constants and every call-site name literal to this table).
pub const RANKED_LOCKS: [RankedLock; 9] = [
    RankedLock { name: "admission", rank: 0 },
    RankedLock { name: "serve_cache", rank: 1 },
    RankedLock { name: "monitor", rank: 2 },
    RankedLock { name: "live_index", rank: 3 },
    RankedLock { name: "nn_cache", rank: 4 },
    RankedLock { name: "heldout_cache", rank: 5 },
    RankedLock { name: "flight", rank: 6 },
    RankedLock { name: "video", rank: 7 },
    RankedLock { name: "obs_trace", rank: 8 },
];

/// Rank of `serve::Admission::state` (acquired first — the serving layer sits
/// above the engine, so its locks rank below every engine lock).
pub const RANK_ADMISSION: u8 = RANKED_LOCKS[0].rank;
/// Rank of `serve::QueryCache::slots` (the result cache's key map).
pub const RANK_SERVE_CACHE: u8 = RANKED_LOCKS[1].rank;
/// Rank of `StreamState::monitor` (the first engine lock).
pub const RANK_MONITOR: u8 = RANKED_LOCKS[2].rank;
/// Rank of `VideoContext::live_index`.
pub const RANK_LIVE_INDEX: u8 = RANKED_LOCKS[3].rank;
/// Rank of `VideoContext::nn_cache`.
pub const RANK_NN_CACHE: u8 = RANKED_LOCKS[4].rank;
/// Rank of `VideoContext::heldout_cache`.
pub const RANK_HELDOUT_CACHE: u8 = RANKED_LOCKS[5].rank;
/// Rank of one [`crate::single_flight::Flight`] cell's state.
pub const RANK_FLIGHT: u8 = RANKED_LOCKS[6].rank;
/// Rank of `VideoContext::video` (the last engine lock).
pub const RANK_VIDEO: u8 = RANKED_LOCKS[7].rank;
/// Rank of `obs::TraceCollector::state` (acquired last: span guards open and
/// close while engine locks are held, and the collector lock is never held
/// across any other acquisition).
pub const RANK_OBS_TRACE: u8 = RANKED_LOCKS[8].rank;

#[cfg(debug_assertions)]
mod tracker {
    use std::cell::RefCell;

    thread_local! {
        /// Ranks of the ordered locks this thread currently holds.
        static HELD: RefCell<Vec<(u8, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: u8, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            for &(held_rank, held_name) in held.iter() {
                assert!(
                    held_rank < rank,
                    "lock-order violation: acquiring '{name}' (rank {rank}) while holding \
                     '{held_name}' (rank {held_rank}); the documented order is {}",
                    super::RANKED_LOCKS.map(|l| l.name).join(" → ")
                );
            }
            held.push((rank, name));
        });
    }

    pub(super) fn release(rank: u8, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            // Guards may drop out of acquisition order; remove the newest match.
            if let Some(pos) = held.iter().rposition(|&(r, n)| r == rank && n == name) {
                held.remove(pos);
            }
        });
    }
}

/// A `MutexGuard` participating in the ranked hierarchy: construction asserts
/// the order (debug builds only) and drop releases the bookkeeping.
pub(crate) struct OrderedGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    rank: u8,
    #[cfg(debug_assertions)]
    name: &'static str,
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

#[cfg(debug_assertions)]
impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        tracker::release(self.rank, self.name);
    }
}

/// Locks `mutex` at `rank`, asserting (in debug builds) that every ranked lock
/// this thread already holds ranks strictly lower.
pub(crate) fn lock_ordered<'a, T>(
    rank: u8,
    name: &'static str,
    mutex: &'a Mutex<T>,
) -> OrderedGuard<'a, T> {
    #[cfg(debug_assertions)]
    tracker::acquire(rank, name);
    #[cfg(not(debug_assertions))]
    let _ = (rank, name);
    OrderedGuard {
        guard: mutex.lock(),
        #[cfg(debug_assertions)]
        rank,
        #[cfg(debug_assertions)]
        name,
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn in_order_acquisition_is_allowed() {
        let monitor = Mutex::new(0u8);
        let live = Mutex::new(0u8);
        let video = Mutex::new(0u8);
        let a = lock_ordered(RANK_MONITOR, "monitor", &monitor);
        let b = lock_ordered(RANK_LIVE_INDEX, "live_index", &live);
        let c = lock_ordered(RANK_VIDEO, "video", &video);
        drop((a, b, c));
        // The serving locks rank below every engine lock: cache → monitor is
        // the miss path (lookup, then execute), and it must be clean.
        let s = lock_ordered(RANK_SERVE_CACHE, "serve_cache", &live);
        drop(s);
        let a = lock_ordered(RANK_ADMISSION, "admission", &monitor);
        let b = lock_ordered(RANK_SERVE_CACHE, "serve_cache", &live);
        let c = lock_ordered(RANK_FLIGHT, "flight", &video);
        drop((a, b, c));
        // A context cache's cell is joined under its map.
        let a = lock_ordered(RANK_LIVE_INDEX, "live_index", &monitor);
        let b = lock_ordered(RANK_NN_CACHE, "nn_cache", &live);
        let c = lock_ordered(RANK_FLIGHT, "flight", &video);
        drop((a, b, c));
        // Skipping ranks is fine; only inversions are violations.
        let c = lock_ordered(RANK_NN_CACHE, "nn_cache", &video);
        drop(c);
        let a = lock_ordered(RANK_VIDEO, "video", &video);
        drop(a);
        // The trace collector ranks last: a span may record itself while any
        // engine lock is held.
        let a = lock_ordered(RANK_VIDEO, "video", &video);
        let b = lock_ordered(RANK_OBS_TRACE, "obs_trace", &live);
        drop((a, b));
    }

    #[test]
    fn out_of_order_acquisition_panics() {
        let live = Mutex::new(0u8);
        let monitor = Mutex::new(0u8);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _b = lock_ordered(RANK_LIVE_INDEX, "live_index", &live);
            let _a = lock_ordered(RANK_MONITOR, "monitor", &monitor);
        }));
        let message = *outcome.expect_err("inversion must panic").downcast::<String>().unwrap();
        assert!(message.contains("lock-order violation"), "got: {message}");
    }

    #[test]
    fn same_rank_reacquisition_panics() {
        // The shim mutexes are not reentrant: re-locking the same rank on one
        // thread is a self-deadlock, caught here before the deadlock happens.
        let video = Mutex::new(0u8);
        let other = Mutex::new(0u8);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _a = lock_ordered(RANK_VIDEO, "video", &video);
            let _b = lock_ordered(RANK_VIDEO, "video", &other);
        }));
        assert!(outcome.is_err());
    }

    #[test]
    fn release_unwinds_out_of_order_drops() {
        let monitor = Mutex::new(0u8);
        let live = Mutex::new(0u8);
        let a = lock_ordered(RANK_MONITOR, "monitor", &monitor);
        let b = lock_ordered(RANK_LIVE_INDEX, "live_index", &live);
        drop(a); // dropped before b — bookkeeping must not corrupt
        drop(b);
        let a = lock_ordered(RANK_MONITOR, "monitor", &monitor);
        let b = lock_ordered(RANK_LIVE_INDEX, "live_index", &live);
        drop(b);
        drop(a);
    }

    #[test]
    fn threads_track_independently() {
        let live = Mutex::new(0u8);
        let _outer = lock_ordered(RANK_VIDEO, "video", &live);
        std::thread::scope(|s| {
            s.spawn(|| {
                let monitor = Mutex::new(0u8);
                // This thread holds nothing: rank 0 is fine here even though
                // the spawning thread holds `video`.
                let _g = lock_ordered(RANK_MONITOR, "monitor", &monitor);
            });
        });
    }
}
